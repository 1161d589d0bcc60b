//! The paper's experiments, one module each (DESIGN.md §5).

pub mod e10_btb;
pub mod e11_ecache;
pub mod e12_subblock;
pub mod e1_branch_schemes;
pub mod e2_icache_fetch;
pub mod e3_icache_orgs;
pub mod e4_quick_compare;
pub mod e5_reorganizer;
pub mod e6_fsms;
pub mod e7_cpi;
pub mod e8_coproc;
pub mod e9_vax;

use mipsx_asm::Program;
use mipsx_core::{InterlockPolicy, Machine, MachineConfig, RunStats};
use mipsx_reorg::BranchScheme;

/// Run `program`, lowered for `scheme`, to halt on a `base` machine set to
/// the scheme's slot count (load-use hazards are run errors).
pub(crate) fn run_lowered(
    program: &Program,
    scheme: BranchScheme,
    base: MachineConfig,
) -> RunStats {
    let mut machine = Machine::new(MachineConfig {
        branch_delay_slots: scheme.slots,
        interlock: InterlockPolicy::Detect,
        ..base
    });
    machine.load_program(program);
    machine.run(500_000_000).expect("run to halt")
}
