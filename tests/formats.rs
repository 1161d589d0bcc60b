//! Byte-level pins on the formats the run counters flow into: the
//! snapshot file (whose `STAT` section serializes every `RunStats`
//! counter), the result-store record and the sweep's JSON report.
//!
//! The expected values were captured before the counters were declared
//! from one list; any refactor of that list must leave these bytes alone.
//! A deliberate format change updates the pins together with a snapshot
//! version bump or a store epoch bump.

use mipsx_core::{FaultPlan, Machine, MachineConfig, NullSink, RunError};
use mipsx_explore::{fnv1a, run_sweep, SweepOptions, SweepSpec};
use mipsx_reorg::{BranchScheme, Reorganizer};
use mipsx_workloads::find_kernel;

/// `fib_recursive` under the MIPS-X scheme with one of every fault kind,
/// stopped mid-run so every counter class (including the `injected_*`
/// ones) is live in the snapshot.
#[test]
fn mid_run_snapshot_bytes_are_pinned() {
    let raw = find_kernel("fib_recursive").expect("known kernel").raw;
    let (program, _) = Reorganizer::new(BranchScheme::mipsx())
        .reorganize(&raw)
        .expect("schedulable");
    let mut machine = Machine::new(MachineConfig::default());
    machine.load_program(&program);
    let mut plan =
        FaultPlan::parse("20:irq8,40:nmi,55:parity,70:jitter6,90:cpbusy4").expect("valid plan");
    match machine.run_with_faults(1_500, &mut NullSink, &mut plan) {
        Err(RunError::CycleLimit { .. }) => {}
        other => panic!("expected a mid-run stop, got {other:?}"),
    }
    let stats = *machine.stats();
    assert!(stats.injected_interrupts > 0 && stats.injected_nmis > 0);
    let bytes = machine.save_snapshot(Some(&plan)).expect("snapshot");
    assert_eq!(
        format!("{:016x} {}", fnv1a(&bytes), bytes.len()),
        "82da76b724ff9489 34442"
    );
    let (restored, _) = Machine::restore_snapshot(&bytes).expect("restore");
    assert_eq!(*restored.stats(), stats);
}

/// A 2×2 grid (slots × memory latency) over one kernel: the store record
/// of the first row verbatim, and the whole JSON report by digest.
#[test]
fn sweep_record_and_json_are_pinned() {
    let spec = SweepSpec::parse(
        "base mipsx\nworkload kernel:fib_recursive\naxis branch.slots 2 1\naxis mem_latency 3 5\n",
    )
    .expect("valid spec");
    let out = run_sweep(&spec, &SweepOptions::default()).expect("sweep runs");
    assert_eq!(out.rows.len(), 4);
    assert_eq!(
        out.rows[0].result.to_record(),
        concat!(
            "cycles=2658\n",
            "instructions=2563\n",
            "squashed=0\n",
            "nops=795\n",
            "branches=178\n",
            "branches_taken=88\n",
            "branch_slot_nops=356\n",
            "branch_slot_squashed=0\n",
            "loads=264\n",
            "stores=264\n",
            "exceptions=0\n",
            "icache_stall_cycles=62\n",
            "ecache_stall_cycles=28\n",
            "icache_accesses=2568\n",
            "icache_misses=15\n",
            "icache_fill_stalls=62\n",
            "ecache_accesses=294\n",
            "ecache_misses=15\n",
            "sched_branches=1\n",
            "sched_squashing=0\n",
            "sched_slot_nops=6\n",
            "sched_load_nops=1\n",
        )
    );
    let json = out.to_json();
    assert_eq!(
        format!("{:016x} {}", fnv1a(json.as_bytes()), json.len()),
        "a005a62049a8c2c4 3105"
    );
}
