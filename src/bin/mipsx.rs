//! `mipsx` — command-line front end for the MIPS-X reproduction.
//!
//! ```text
//! mipsx asm   <target>              assemble, print words as hex
//! mipsx dis   <target>              assemble then disassemble (round trip)
//! mipsx run   <target> [options]    execute on the cycle-accurate machine
//! mipsx trace <target> [options]    execute with the cycle-level probes on:
//!                                   ASCII pipe diagram + CPI attribution
//! mipsx soak  [options]             fuzz random programs under random
//!                                   fault plans against the lockstep
//!                                   reference model
//! mipsx lint  <target> [options]    static hazard verifier: prove the
//!                                   program satisfies the pipeline
//!                                   contract (load delays, squash
//!                                   senses, MD chains, ...)
//! mipsx analyze <target> [options]  static timing analyzer: per-block
//!                                   cost table (delay-slot waste,
//!                                   liveness, loop depth) and the
//!                                   whole-program static CPI bound
//! mipsx sweep [spec.sweep] [options]
//!                                   design-space exploration: expand a
//!                                   sweep grid, run it on a thread pool,
//!                                   serve repeats from the result cache
//! mipsx profile <target|spec.sweep> [options]
//!                                   run with host telemetry on and print
//!                                   a span-tree wall-time report (stage
//!                                   attribution, pool occupancy, store
//!                                   latencies)
//! mipsx snapshot save <target> --out <path> [options]
//!                                   run for --cycles, then write a
//!                                   restorable machine snapshot
//! mipsx snapshot restore <path> [--cycles N]
//!                                   restore a snapshot, run it to
//!                                   completion, print the final stats
//! mipsx snapshot info <path>        print a snapshot's header, section
//!                                   sizes and checksum without restoring
//! mipsx info                        print the modeled machine's parameters
//!
//! <target> (every subcommand above that takes one):
//!   prog.s              an assembly file, assembled as written
//!   fib_recursive       a built-in kernel, by name or as kernel:<name>
//!   synth:<pascal|lisp|tiny>:<seed>
//!                       a calibrated synthetic program
//!   stream:<words>x<reps>
//!                       the E11 data-streaming loop
//!   Kernels and workload ids are scheduled by the code reorganizer for
//!   the --slots scheme, exactly as a sweep job runs them. trace: ids are
//!   address traces, not programs: only `mipsx sweep` runs them.
//!
//! machine flags (each subcommand takes those it lists below):
//!   --slots <1|2>       branch delay slots of the machine *and* of the
//!                       squash-optional schedule targets get (default 2)
//!   --ideal             the cache-ideal configuration (no memory stalls)
//!                       instead of the MIPS-X board
//!   --trust             disable interlock checking (model the silicon)
//!   --engine <interp|block|checked>
//!                       execution backend: `block` runs the basic-block
//!                       superop engine (fast, cycle-identical; demotes
//!                       itself to the stepper when it must), `checked`
//!                       shadows every step with the functional reference
//!                       model (2 slots only), `interp` the cycle-accurate
//!                       stepper (default)
//!
//! run options: --slots --ideal --trust --engine, and
//!   --cycles <n>        cycle budget (default 10,000,000)
//!   --regs              dump the register file after the run
//!
//! trace options: --slots, --cycles, and
//!   --diagram <n>       render the first n cycles as a pipe diagram
//!                       (default 60; 0 disables)
//!   --jsonl <path>      also write every probe event as JSON lines
//!   --from-cycle <k>    fast-forward k cycles untraced, then attach the
//!                       probes (the diagram shows cycles k..k+n; JSONL
//!                       lines keep their absolute cycle numbers)
//!
//! soak options:
//!   --runs <n>          program x fault-plan pairs to run (default 100)
//!   --seed <n>          base seed; run i uses seed n+i (default 1)
//!   --faults <spec>     fixed plan for every run, e.g. "120:irq3,340:nmi"
//!                       (default: a random plan derived from the run seed)
//!   --fault-count <n>   faults per random plan (default 6)
//!   --cycles <n>        lockstep cycle budget per run (default 2,000,000)
//!   --snap-dir <dir>    where a diverging run's last-good machine
//!                       snapshot lands (default: the system temp dir)
//!
//! lint options: --slots (the contract's delay slots), and
//!   --json              machine-readable report
//!   --kernels           lint every built-in kernel under all six Table 1
//!                       branch schemes instead of a single target; one
//!                       summary line per scheme, detail where findings
//!                       exist, non-zero exit only on errors
//!   --timing            add the four scheduling-quality lints
//!                       (missed-slot-fill, redundant-nop,
//!                       avoidable-load-stall, cross-block-hazard-at-join)
//!
//! analyze options: --slots, and
//!   --json              machine-readable analysis
//!   --kernels           analyze every built-in kernel under all six
//!                       Table 1 branch schemes
//!   --differential      also run the program fault-free on the
//!                       cache-ideal machine with the per-block dynamic
//!                       attributor attached, and check that the static
//!                       model predicts every per-block counter exactly;
//!                       any mismatch exits non-zero
//!   --cycles <n>        differential run budget (default 10,000,000)
//!
//! sweep options:
//!   <spec.sweep>        spec file (see mipsx_explore::SweepSpec::parse);
//!                       or build the grid from flags:
//!   --grid f=v1,v2      one axis (repeatable), e.g. --grid mem_latency=3,5
//!   --workload <id>     workload (repeatable): kernel:<name>,
//!                       synth:<pascal|lisp|tiny>:<seed>,
//!                       trace:<medium|large>:<seed>, stream:<words>x<reps>
//!   --fault <spec>      fault plan cell (repeatable; "none" = fault-free)
//!   --base <mipsx|ideal> base configuration (default mipsx)
//!   --engine <interp|block|checked>
//!                       base execution backend (default interp); also an
//!                       axis: --grid engine=interp,block sweeps it
//!   --cycles <n>        per-job cycle budget (default 500,000,000)
//!   --threads <n>       worker threads (default: all cores)
//!   --json | --csv      report format (default: markdown table)
//!   --store <dir>       result-cache directory (default $MIPSX_SWEEP_DIR
//!                       or sweeps/)
//!   --no-cache          disable the result cache entirely
//!   --bench <path>      run the built-in E1+E11 grids serial vs parallel
//!                       on cold caches, verify byte-identical reports,
//!                       and write the timing baseline JSON to <path>
//!   --metrics <path>    record host telemetry and write it to <path>
//!                       (JSON) plus a Prometheus text exposition at
//!                       <path>.prom
//!   --timings           render the timed report variants (adds per-job
//!                       wall_ms; no longer byte-comparable across runs)
//!   --journal <path>    crash-safe progress journal: one flushed line per
//!                       completed job, in-flight machine checkpoints in
//!                       <path>.snaps/
//!   --snapshot-every <n> checkpoint running machines every n cycles
//!                       (requires --journal; 0 disables checkpoints)
//!   --resume            replay an existing journal: completed jobs come
//!                       from the result store, checkpointed jobs resume
//!                       mid-run; refuses a journal from a different spec
//!
//! snapshot options:
//!   --cycles <n>        save: cycles to run before snapshotting (0 =
//!                       snapshot the freshly loaded machine);
//!                       restore: further cycle budget (default 10,000,000)
//!   --slots <1|2>       save: the machine flag above
//!   --faults <spec>     save: fault plan; its delivery cursor rides in
//!                       the snapshot, so restore continues it exactly
//!   --out <path>        save: where the snapshot is written (required)
//!
//! profile options:
//!   a <target> profiles a single run (assemble, machine construction,
//!   program decode, execution — plus host steps/s) and takes --slots
//!   --ideal --engine --cycles; a block run prints its fallback-cause
//!   breakdown. A .sweep file or --grid/--workload flags profile a whole
//!   sweep with the same flags as `mipsx sweep` (slot counts then come
//!   from --grid branch.slots=...). `--metrics <path>` works in both.
//! ```
//!
//! A failing soak run prints a copy-pasteable `mipsx soak --runs 1 --seed N
//! --faults <spec>` line that reproduces it exactly. `mipsx lint` exits
//! non-zero if any error-severity diagnostic is found (warnings alone do
//! not fail the run).
//!
//! The sweep report goes to stdout; timing and cache-hit chatter goes to
//! stderr, so reports are byte-comparable across runs and thread counts.

use std::process::ExitCode;
use std::time::Instant;

use mipsx::asm::{assemble_at, disassemble, Program};
use mipsx::cli::{flags_of, parse_args, point_from_flags, resolve_target, ArgError, ParsedArgs};
use mipsx::core::probe::{CpiAttribution, JsonlSink, NullSink, PipeDiagram};
use mipsx::core::{FaultPlan, Machine, MachineConfig, RunError};
use mipsx::engine::EngineStats;
use mipsx::exec::{AnyBackend, EngineKind, ExecBackend};
use mipsx::explore::{
    run_sweep, Axis, Grid, JournalConfig, ResultStore, SimPoint, SweepOptions, SweepSpec,
    Telemetry, Workload,
};
use mipsx::isa::Reg;
use mipsx::refmodel::{Lockstep, NULL_HANDLER};
use mipsx::reorg::BranchScheme;
use mipsx::verify::{
    differential, verify, verify_with_timing, BlockAttribution, TimingAnalysis, VerifyConfig,
};
use mipsx::workloads::{all_kernels, random_scheduled_program};

fn usage() -> ExitCode {
    eprintln!(
        "usage: mipsx <asm|dis|run|trace|soak|lint|analyze|sweep|profile|snapshot|info> \
         [target|spec.sweep] \
         [--cycles N] [--slots 1|2] [--trust] [--ideal] [--engine interp|block|checked] [--regs] \
         [--diagram N] [--jsonl path] \
         [--from-cycle K] [--runs N] \
         [--seed N] [--faults spec] [--fault-count N] [--snap-dir dir] [--json] [--kernels] \
         [--timing] [--differential] \
         [--grid f=v1,v2] \
         [--workload id] [--fault spec] [--base mipsx|ideal] [--threads N] [--csv] \
         [--store dir] [--no-cache] [--bench path] [--metrics path] [--timings] \
         [--journal path] [--snapshot-every N] [--resume] [--out path]"
    );
    ExitCode::FAILURE
}

/// Why a subcommand stopped early. Both print `mipsx: <message>` and exit
/// non-zero; `Usage` also prints the usage line.
enum Fail {
    Usage(Option<String>),
    Msg(String),
}

impl From<String> for Fail {
    fn from(msg: String) -> Fail {
        Fail::Msg(msg)
    }
}

impl From<ArgError> for Fail {
    fn from(e: ArgError) -> Fail {
        Fail::Msg(e.to_string())
    }
}

type Outcome = Result<ExitCode, Fail>;

fn fail<T>(msg: impl Into<String>) -> Result<T, Fail> {
    Err(Fail::Msg(msg.into()))
}

fn exit_code(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Parse `args` against `subcommand`'s declared flags.
fn parse(subcommand: &str, args: &[String]) -> Result<ParsedArgs, Fail> {
    parse_args(args, flags_of(subcommand)).map_err(|e| Fail::Usage(Some(e.to_string())))
}

/// The subcommand's target: its first positional argument.
fn target(parsed: &ParsedArgs) -> Result<&str, Fail> {
    parsed
        .positionals
        .first()
        .map(String::as_str)
        .ok_or(Fail::Usage(None))
}

/// The `--faults <spec>` plan, if one was given.
fn faults_flag(parsed: &ParsedArgs) -> Result<Option<FaultPlan>, Fail> {
    let Some(spec) = parsed.value("--faults") else {
        return Ok(None);
    };
    match FaultPlan::parse(spec) {
        Ok(plan) => Ok(Some(plan)),
        Err(e) => fail(format!("--faults {spec}: {e}")),
    }
}

fn cmd_asm(disassembly: bool, args: &[String]) -> Outcome {
    let parsed = parse("asm", args)?;
    let program = resolve_target(target(&parsed)?, &point_from_flags(&parsed)?)?;
    if disassembly {
        for line in disassemble(program.origin, &program.words) {
            println!("{line}");
        }
    } else {
        for (i, w) in program.words.iter().enumerate() {
            println!("{:#07x}: {w:08x}", program.origin + i as u32);
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_trace(args: &[String]) -> Outcome {
    let parsed = parse("trace", args)?;
    let target = target(&parsed)?;
    let cycles = parsed.parsed_or("--cycles", 10_000_000u64)?;
    let diagram_cycles = parsed.parsed_or("--diagram", 60u64)?;
    let from_cycle = parsed.parsed_or("--from-cycle", 0u64)?;
    let point = point_from_flags(&parsed)?;
    if from_cycle >= cycles {
        return fail(format!(
            "--from-cycle {from_cycle} must be below the --cycles budget {cycles}"
        ));
    }
    let program = resolve_target(target, &point)?;
    let mut machine = Machine::new(point.cfg);
    machine.load_program(&program);

    // Fast-forward untraced: probes are pure observers, so skipping them
    // for the first k cycles cannot change how the machine evolves.
    if from_cycle > 0 {
        match machine.run(from_cycle) {
            Err(RunError::CycleLimit { .. }) => {}
            Ok(stats) => {
                return fail(format!(
                    "program halted at cycle {} — nothing left to trace from cycle {from_cycle}",
                    stats.cycles
                ))
            }
            Err(e) => {
                return fail(format!(
                    "execution failed before --from-cycle {from_cycle}: {e}"
                ))
            }
        }
    }
    let budget = cycles - from_cycle;

    let diagram = PipeDiagram::with_limit(diagram_cycles.max(1));
    let mut sink = (diagram, CpiAttribution::new());
    let result = match parsed.value("--jsonl") {
        Some(path) => {
            let file =
                std::fs::File::create(path).map_err(|e| format!("cannot create {path}: {e}"))?;
            let mut jsonl = JsonlSink::new(std::io::BufWriter::new(file));
            let result = machine.run_with(budget, &mut (&mut sink, &mut jsonl));
            jsonl.finish().map_err(|e| format!("writing {path}: {e}"))?;
            result
        }
        None => machine.run_with(budget, &mut sink),
    };
    let (diagram, attribution) = sink;
    result.map_err(|e| format!("execution failed: {e}"))?;
    if diagram_cycles > 0 {
        println!(
            "pipe diagram ({diagram_cycles} cycles from cycle {from_cycle}; F R A M W = stage, \
             lowercase = killed, * = frozen):"
        );
        print!("{}", diagram.render());
        println!();
    }
    print!("{}", attribution.report());
    println!();
    println!("{}", machine.stats());
    println!("icache: {}", machine.icache().stats());
    print!("{}", machine.icache().occupancy_report());
    println!("ecache: {}", machine.ecache().stats());
    println!("{}", machine.ecache().occupancy_report());
    if !attribution.identity_holds() {
        return fail("INTERNAL ERROR: CPI attribution does not sum to total cycles");
    }
    Ok(ExitCode::SUCCESS)
}

/// `point` under each Table 1 branch scheme, for `--kernels`.
fn table1_points(point: SimPoint) -> impl Iterator<Item = SimPoint> {
    BranchScheme::table1()
        .into_iter()
        .map(move |scheme| SimPoint::new(point.cfg, scheme))
}

fn cmd_lint(args: &[String]) -> Outcome {
    let parsed = parse("lint", args)?;
    let json = parsed.has("--json");
    let timing = parsed.has("--timing");
    let point = point_from_flags(&parsed)?;
    let run_lint = |program: &Program, point: &SimPoint| {
        let cfg = VerifyConfig::for_slots(point.scheme.slots);
        if timing {
            verify_with_timing(program, &cfg)
        } else {
            verify(program, &cfg)
        }
    };

    if parsed.has("--kernels") {
        // Every built-in kernel under every Table 1 branch scheme: the
        // reorganizer's output contract, checked end to end. One summary
        // line per scheme; kernel detail only where something fired. The
        // exit code reflects error-severity findings only.
        let mut error_total = 0usize;
        let mut scheme_rows: Vec<String> = Vec::new();
        for point in table1_points(point) {
            let scheme = point.scheme;
            let mut errors = 0usize;
            let mut warnings = 0usize;
            let mut kernel_rows: Vec<String> = Vec::new();
            let mut details: Vec<String> = Vec::new();
            for kernel in all_kernels() {
                let program = resolve_target(kernel.name, &point)?;
                let lint = run_lint(&program, &point);
                errors += lint.error_count();
                warnings += lint.warning_count();
                if json {
                    // `verified` is the reorganizer's post-condition: this
                    // verifier under the scheme's slots, error-free (the
                    // timing lints only add warnings).
                    kernel_rows.push(format!(
                        "{{\"kernel\":\"{}\",\"verified\":{},\"report\":{}}}",
                        kernel.name,
                        lint.is_clean(),
                        lint.to_json()
                    ));
                } else {
                    for d in &lint.diagnostics {
                        details.push(format!("  {:<16} {d}", kernel.name));
                    }
                }
            }
            error_total += errors;
            if json {
                scheme_rows.push(format!(
                    "{{\"scheme\":\"{scheme}\",\"errors\":{errors},\"warnings\":{warnings},\
                     \"kernels\":[{}]}}",
                    kernel_rows.join(",")
                ));
            } else {
                println!(
                    "{scheme}: {} kernel(s), {errors} error(s), {warnings} warning(s)",
                    all_kernels().len()
                );
                for d in &details {
                    println!("{d}");
                }
            }
        }
        if json {
            println!("[{}]", scheme_rows.join(",\n "));
        }
        return Ok(exit_code(error_total == 0));
    }

    let target = target(&parsed)?;
    let program = resolve_target(target, &point)?;
    let slots = point.scheme.slots;
    let lint = run_lint(&program, &point);
    if json {
        println!("{}", lint.to_json());
    } else if lint.diagnostics.is_empty() {
        println!("{target}: clean ({slots}-slot contract)");
    } else {
        print!("{lint}");
        println!(" ({slots}-slot contract)");
    }
    Ok(exit_code(lint.is_clean()))
}

/// Run `program` fault-free on the cache-ideal configuration with the
/// point's delay slots and the per-block attributor attached, and check
/// every static identity. Returns the violation list (empty = exact match).
fn run_differential(
    program: &Program,
    ta: &TimingAnalysis,
    point: &SimPoint,
    budget: u64,
) -> Result<Vec<String>, String> {
    let cfg = MachineConfig {
        branch_delay_slots: point.scheme.slots,
        ..MachineConfig::cache_ideal()
    };
    let mut machine = Machine::new(cfg);
    machine.load_program(program);
    let mut attrib = BlockAttribution::new(ta);
    let stats = machine
        .run_with(budget, &mut attrib)
        .map_err(|e| e.to_string())?;
    Ok(differential(ta, &attrib, &stats))
}

/// The differential violations as a JSON string array.
fn violations_json(errs: &[String]) -> String {
    let quoted: Vec<String> = errs
        .iter()
        .map(|e| format!("\"{}\"", e.replace('"', "'")))
        .collect();
    format!("[{}]", quoted.join(","))
}

fn cmd_analyze(args: &[String]) -> Outcome {
    let parsed = parse("analyze", args)?;
    let json = parsed.has("--json");
    let diff = parsed.has("--differential");
    let point = point_from_flags(&parsed)?;
    let budget = parsed.parsed_or("--cycles", 10_000_000u64)?;

    if parsed.has("--kernels") {
        // Every kernel under every Table 1 scheme: static bound per cell,
        // and with --differential the exact static-vs-dynamic check that
        // CI gates on.
        let mut violations = 0usize;
        let mut rows: Vec<String> = Vec::new();
        for point in table1_points(point) {
            let scheme = point.scheme;
            for kernel in all_kernels() {
                let program = resolve_target(kernel.name, &point)?;
                let ta = TimingAnalysis::of(&program, &VerifyConfig::for_slots(scheme.slots));
                let errs = if diff {
                    Some(
                        run_differential(&program, &ta, &point, budget)
                            .map_err(|e| format!("kernel {} [{scheme}]: {e}", kernel.name))?,
                    )
                } else {
                    None
                };
                if let Some(errs) = &errs {
                    violations += errs.len();
                }
                if json {
                    let diff_json = match &errs {
                        None => String::new(),
                        Some(errs) => {
                            format!(",\"differential_violations\":{}", violations_json(errs))
                        }
                    };
                    rows.push(format!(
                        "{{\"kernel\":\"{}\",\"scheme\":\"{scheme}\",\
                         \"static_cpi_bound\":{:.4},\"blocks\":{}{diff_json}}}",
                        kernel.name,
                        ta.static_cpi_bound(),
                        ta.blocks.len()
                    ));
                } else {
                    let verdict = match &errs {
                        None => String::new(),
                        Some(e) if e.is_empty() => ", differential exact".to_string(),
                        Some(e) => format!(", {} DIFFERENTIAL VIOLATION(S)", e.len()),
                    };
                    println!(
                        "{:<16} [{scheme}]: bound {:.4}, {} block(s){verdict}",
                        kernel.name,
                        ta.static_cpi_bound(),
                        ta.blocks.len()
                    );
                    for e in errs.iter().flatten() {
                        println!("  {e}");
                    }
                }
            }
        }
        if json {
            println!("[{}]", rows.join(",\n "));
        }
        return Ok(exit_code(violations == 0));
    }

    let target = target(&parsed)?;
    let program = resolve_target(target, &point)?;
    let ta = TimingAnalysis::of(&program, &VerifyConfig::for_slots(point.scheme.slots));
    let errs = if diff {
        if ta.irregular {
            return fail(format!(
                "{target}: irregular control flow — exact differential unavailable"
            ));
        }
        Some(
            run_differential(&program, &ta, &point, budget)
                .map_err(|e| format!("{target}: {e}"))?,
        )
    } else {
        None
    };
    if json {
        match &errs {
            None => println!("{}", ta.to_json()),
            Some(errs) => println!(
                "{{\"analysis\":{},\"differential_violations\":{}}}",
                ta.to_json(),
                violations_json(errs)
            ),
        }
    } else {
        print!("{}", ta.render());
        match &errs {
            None => {}
            Some(e) if e.is_empty() => println!("differential: exact (cache-ideal, fault-free)"),
            Some(e) => {
                println!("differential: {} violation(s)", e.len());
                for v in e {
                    println!("  {v}");
                }
            }
        }
    }
    Ok(exit_code(errs.is_none_or(|e| e.is_empty())))
}

/// Exception vector used by the soak harness: well clear of generated
/// program text and its data region.
const SOAK_VECTOR: u32 = 0x8000;

/// Cycles between last-good checkpoints inside a soak run: coarse enough
/// to stay off the profile, fine enough that the written snapshot lands
/// within a few thousand cycles of the divergence.
const SOAK_CHECKPOINT_CYCLES: u64 = 2048;

fn cmd_soak(args: &[String]) -> Outcome {
    let parsed = parse("soak", args)?;
    let runs = parsed.parsed_or("--runs", 100u64)?;
    let base_seed = parsed.parsed_or("--seed", 1u64)?;
    let fault_count = parsed.parsed_or("--fault-count", 6u32)?;
    let cycles = parsed.parsed_or("--cycles", 2_000_000u64)?;
    let fixed_plan = faults_flag(&parsed)?;
    let handler = assemble_at(NULL_HANDLER, SOAK_VECTOR).expect("null handler assembles");
    let snap_dir = parsed
        .value("--snap-dir")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(std::env::temp_dir);
    let cfg = MachineConfig {
        exception_vector: SOAK_VECTOR,
        ..MachineConfig::mipsx()
    };

    let mut divergences = 0u64;
    let mut exceptions = 0u64;
    let mut faults = 0u64;
    for i in 0..runs {
        let seed = base_seed.wrapping_add(i);
        let program = random_scheduled_program(seed);
        // Pre-flight: statically verify the generated program, so a
        // generator bug reports as "emitted illegal code" rather than
        // masquerading as a simulator divergence downstream.
        let lint = verify(&program, &VerifyConfig::for_slots(cfg.branch_delay_slots));
        if !lint.is_clean() {
            return fail(format!(
                "seed {seed}: generator emitted illegal code (not a divergence):\n{lint}"
            ));
        }
        let plan = match &fixed_plan {
            Some(p) => p.clone(),
            None => {
                // Size the plan's horizon to this program's fault-free run
                // so every fault lands inside it.
                let mut m = Machine::new(cfg);
                m.load_program(&program);
                let horizon = m
                    .run(cycles)
                    .map_err(|e| format!("seed {seed}: fault-free baseline failed: {e}"))?
                    .cycles;
                FaultPlan::random(seed, horizon, fault_count)
            }
        };
        let plan_spec = plan.to_string();
        faults += plan.events().len() as u64;
        let mut lockstep = Lockstep::new(cfg, &program, plan);
        lockstep.install_handler(&handler);
        lockstep.enable_interrupts();
        // Step with a checkpoint cadence: the last snapshot taken before a
        // divergence is written out, so the failing window can be replayed
        // under `mipsx snapshot restore` / a debugger without re-running
        // the whole soak from cycle zero.
        let mut last_good: Option<(u64, Vec<u8>)> = None;
        let mut since_checkpoint = 0u64;
        let outcome = loop {
            if lockstep.machine().stats().cycles >= cycles {
                break Ok(());
            }
            match lockstep.step() {
                Ok(true) => break Ok(()),
                Ok(false) => {}
                Err(e) => break Err(e),
            }
            since_checkpoint += 1;
            if since_checkpoint >= SOAK_CHECKPOINT_CYCLES {
                since_checkpoint = 0;
                if let Ok(bytes) = lockstep.machine().save_snapshot(None) {
                    last_good = Some((lockstep.machine().stats().cycles, bytes));
                }
            }
        };
        match outcome {
            Ok(()) => exceptions += lockstep.machine().stats().exceptions,
            Err(e) => {
                divergences += 1;
                eprintln!("mipsx: seed {seed}: {e}");
                if let Some((cycle, bytes)) = last_good {
                    let path = snap_dir.join(format!("soak-seed{seed}-cycle{cycle}.msnap"));
                    match std::fs::write(&path, &bytes) {
                        Ok(()) => {
                            eprintln!("  last-good snapshot (cycle {cycle}): {}", path.display());
                        }
                        Err(e) => eprintln!("  could not write last-good snapshot: {e}"),
                    }
                }
                eprintln!(
                    "  reproduce: mipsx soak --runs 1 --seed {seed} --faults \"{plan_spec}\""
                );
            }
        }
    }
    println!(
        "soak: {runs} runs, {faults} fault events scheduled, {exceptions} exceptions taken, \
         {divergences} divergences"
    );
    Ok(exit_code(divergences == 0))
}

/// The block engine's side counters. `run_cycles` (the profile view) adds
/// the fast path's share of the run and says so when nothing fell back.
fn print_engine_stats(es: &EngineStats, run_cycles: Option<u64>) {
    let share = run_cycles.map_or(String::new(), |cycles| {
        format!(
            " ({:.1}% of run)",
            100.0 * es.fast_cycles as f64 / (cycles as f64).max(1.0)
        )
    });
    println!(
        "engine: {} blocks compiled ({} fallback-only), {} visits, \
         {} fast cycles{share}, {} recompiles",
        es.blocks_compiled, es.fallback_blocks, es.block_visits, es.fast_cycles, es.recompiles
    );
    if run_cycles.is_some() && es.total_fallbacks() == 0 {
        println!("engine: no stepper fallbacks");
    }
    for (cause, count) in es.fallback_breakdown() {
        println!("engine: fallback {cause:<16} x{count}");
    }
}

/// `mipsx run` and single-target `mipsx profile`: resolve the point and the
/// target, then construct, decode, compile (block engine only) and run —
/// each stage a span when profiling. `run` reports the guest books;
/// `profile` the span tree and the host simulation rate.
fn run_target(parsed: &ParsedArgs, profile: bool) -> Outcome {
    let target = target(parsed)?;
    let cycles = parsed.parsed_or("--cycles", 10_000_000u64)?;
    let point = point_from_flags(parsed)?;
    let tele = if profile {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let root = tele.span_root("profile");
    let program = {
        let _s = tele.span("assemble");
        resolve_target(target, &point)?
    };
    let mut machine = {
        let _s = tele.span("construct");
        Machine::new(point.cfg)
    };
    {
        let _s = tele.span("decode");
        machine.load_program(&program);
    }
    let mut backend = {
        // Only the block backend does real work here (compiling the
        // image into superop blocks); the span prices exactly that.
        let _s = (point.engine == EngineKind::Block).then(|| tele.span("compile"));
        AnyBackend::new(point.engine, &program, &machine)
    };
    let run_start = Instant::now();
    let result = {
        let _s = tele.span("run");
        backend
            .run(&mut machine, cycles)
            .and_then(|stats| backend.final_check(&machine).map(|()| stats))
    };
    let run_wall = run_start.elapsed();
    drop(root);

    if !profile {
        if let Some(es) = backend.engine_stats() {
            print_engine_stats(es, None);
        }
    }
    let stats = result.map_err(|e| format!("execution failed: {e}"))?;
    if profile {
        let snap = tele.snapshot();
        println!("profile: {target} ({cycles} cycle budget)");
        println!();
        print!("{}", snap.span_tree_report());
        println!();
        println!(
            "run: {} guest cycles in {run_wall:.2?} — {:.2} Mcycles/s, {:.2} Minstr/s of host time",
            stats.cycles,
            stats.host_cycles_per_sec(run_wall) / 1e6,
            stats.dynamic_instructions() as f64 / run_wall.as_secs_f64().max(1e-9) / 1e6,
        );
        println!("guest: {stats}");
        if let Some(es) = backend.engine_stats() {
            println!();
            print_engine_stats(es, Some(stats.cycles));
        }
        if let Some(path) = parsed.value("--metrics") {
            write_metrics(path, &snap)?;
        }
        return Ok(ExitCode::SUCCESS);
    }
    println!("{stats}");
    // The block engine only fast-paths ideal-cache configs; its demoted
    // runs still keep the cache books, so print them in the stepper-driven
    // modes only (where they are the point).
    if point.engine != EngineKind::Block {
        println!("icache: {}", machine.icache().stats());
        println!("ecache: {}", machine.ecache().stats());
    }
    if parsed.has("--regs") {
        for r in Reg::all() {
            let v = machine.cpu().reg(r);
            if v != 0 {
                println!("  {r:>4} = {v:#010x} ({})", v as i32);
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The sweep `mipsx sweep` and sweep-mode `mipsx profile` run: the spec (a
/// spec file and/or `--grid`/`--workload`/`--fault`/`--base`/`--engine`/
/// `--cycles`) and the run options (`--threads`, `--journal`/`--resume`/
/// `--snapshot-every`, and `--store`/`--no-cache` over `default_store`).
fn sweep_from_flags(
    parsed: &ParsedArgs,
    default_store: ResultStore,
    telemetry: Telemetry,
) -> Result<(SweepSpec, SweepOptions), Fail> {
    let threads = parsed.parsed_or("--threads", default_threads())?;
    let snapshot_every = parsed.parsed_or("--snapshot-every", 0u64)?;
    let journal = match parsed.value("--journal") {
        Some(path) => Some(JournalConfig {
            path: path.into(),
            resume: parsed.has("--resume"),
            snapshot_interval: snapshot_every,
        }),
        None if parsed.has("--resume") || snapshot_every > 0 => {
            return fail("--resume and --snapshot-every require --journal <path>")
        }
        None => None,
    };
    let store = if parsed.has("--no-cache") {
        ResultStore::disabled()
    } else {
        parsed
            .value("--store")
            .map_or(default_store, ResultStore::at)
    };

    let mut spec = match parsed.positionals.first() {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
            SweepSpec::parse(&text).map_err(|e| format!("{path}: {e}"))?
        }
        None => SweepSpec::new(SimPoint::mipsx()),
    };
    match parsed.value("--base") {
        None => {}
        Some("mipsx") => spec.base = SimPoint::mipsx(),
        Some("ideal") => spec.base = SimPoint::ideal_memory(),
        Some(other) => return fail(format!("--base {other}: expected mipsx or ideal")),
    }
    if parsed.has("--engine") {
        spec.base.engine = point_from_flags(parsed)?.engine;
    }
    let flag_axes: Vec<Axis> = parsed
        .values_of("--grid")
        .map(|g| Axis::parse_flag(g).map_err(|e| e.to_string()))
        .collect::<Result<_, String>>()?;
    if !flag_axes.is_empty() {
        match &mut spec.grid {
            Grid::Axes(axes) => axes.extend(flag_axes),
            Grid::Points(_) => return fail("--grid cannot extend an explicit point list"),
        }
    }
    for id in parsed.values_of("--workload") {
        spec.workloads
            .push(Workload::parse(id).map_err(|e| e.to_string())?);
    }
    let flag_faults: Vec<Option<String>> = parsed
        .values_of("--fault")
        .map(|f| (f != "none").then(|| f.to_owned()))
        .collect();
    if !flag_faults.is_empty() {
        spec.faults = flag_faults;
    }
    if let Some(cycles) = parsed.value("--cycles") {
        spec.run_cycles = cycles
            .parse()
            .map_err(|_| format!("--cycles {cycles}: expected a cycle count"))?;
    }
    let opts = SweepOptions {
        threads,
        store,
        telemetry,
        journal,
        ..SweepOptions::default()
    };
    Ok((spec, opts))
}

fn cmd_sweep(args: &[String]) -> Outcome {
    let parsed = parse("sweep", args)?;
    let telemetry = match parsed.value("--metrics") {
        Some(_) => Telemetry::enabled(),
        None => Telemetry::disabled(),
    };
    let default_store = ResultStore::at(ResultStore::default_dir());
    let (spec, opts) = sweep_from_flags(&parsed, default_store, telemetry)?;
    if let Some(bench_path) = parsed.value("--bench") {
        return sweep_bench(bench_path, opts.threads.max(2));
    }
    let outcome = run_sweep(&spec, &opts).map_err(|e| format!("sweep failed: {e}"))?;
    let timed = parsed.has("--timings");
    if parsed.has("--json") {
        if timed {
            println!("{}", outcome.to_json_timed());
        } else {
            println!("{}", outcome.to_json());
        }
    } else if parsed.has("--csv") {
        if timed {
            print!("{}", outcome.to_csv_timed());
        } else {
            print!("{}", outcome.to_csv());
        }
    } else {
        print!("{}", outcome.to_markdown());
    }
    if let Some(path) = parsed.value("--metrics") {
        write_metrics(path, &opts.telemetry.snapshot())?;
    }
    // Quarantined jobs never abort the sweep (the report above is
    // complete), but each one gets a reproduction line and the exit code
    // says the run was not clean.
    for row in &outcome.rows {
        if let Some(msg) = &row.failed {
            eprintln!(
                "mipsx: quarantined: {} | {}{}: {msg}",
                row.point_label,
                row.workload,
                match &row.fault {
                    Some(f) => format!(" (faults {f})"),
                    None => String::new(),
                },
            );
        }
    }
    eprintln!(
        "mipsx sweep: {} jobs on {} thread(s) in {:.2?} ({} from cache, {} quarantined)",
        outcome.rows.len(),
        opts.threads,
        outcome.wall,
        outcome.cache_hits,
        outcome.failed_count(),
    );
    Ok(exit_code(outcome.failed_count() == 0))
}

/// Write a telemetry snapshot to `path` as JSON, plus the Prometheus text
/// exposition next to it at `<path>.prom`.
fn write_metrics(path: &str, snapshot: &mipsx::telemetry::Snapshot) -> Result<(), String> {
    std::fs::write(path, snapshot.to_json() + "\n")
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    let prom = format!("{path}.prom");
    std::fs::write(&prom, snapshot.to_prometheus())
        .map_err(|e| format!("cannot write {prom}: {e}"))?;
    eprintln!("mipsx: metrics written to {path} and {prom}");
    Ok(())
}

/// The `--bench` mode: run the E1 and E11 experiment grids serial and
/// parallel on *cold* caches, check the reports match byte for byte, check
/// a warm re-run is served fully from cache, and write the timing baseline.
fn sweep_bench(path: &str, threads: usize) -> Outcome {
    let grids: [(&str, SweepSpec); 2] = [
        (
            "e1_branch_schemes",
            mipsx::bench::experiments::e1_branch_schemes::sweep_spec(),
        ),
        (
            "e11_ecache",
            mipsx::bench::experiments::e11_ecache::sweep_spec(),
        ),
    ];
    let mut entries: Vec<String> = Vec::new();
    for (name, spec) in grids {
        let cold = |threads: usize, telemetry: Telemetry| {
            let opts = SweepOptions {
                threads,
                store: mipsx::explore::temp_store(&format!("bench-{name}-{threads}")),
                telemetry,
                ..SweepOptions::default()
            };
            let start = Instant::now();
            let outcome = run_sweep(&spec, &opts).expect("bench sweep");
            (outcome, start.elapsed(), opts.store)
        };
        // One untimed warm-up run: the first sweep in a fresh process is
        // up to 2x slower (page faults, allocator growth, CPU frequency
        // ramp), which would poison every ratio derived below.
        let _ = cold(1, Telemetry::disabled());
        let (serial, serial_wall, _) = cold(1, Telemetry::disabled());
        let (parallel, parallel_wall, warm_store) = cold(threads, Telemetry::disabled());
        let identical = serial.to_json() == parallel.to_json();
        // A third cold serial run with telemetry live prices the
        // instrumentation itself: enabled wall / disabled wall.
        let (traced, traced_wall, _) = cold(1, Telemetry::enabled());
        let telemetry_identical = traced.to_json() == serial.to_json();
        let telemetry_overhead = traced_wall.as_secs_f64() / serial_wall.as_secs_f64().max(1e-9);
        // Re-run against the parallel run's store: every job must hit.
        let rerun = run_sweep(
            &spec,
            &SweepOptions {
                threads,
                store: warm_store,
                ..SweepOptions::default()
            },
        )
        .expect("bench rerun");
        let speedup = serial_wall.as_secs_f64() / parallel_wall.as_secs_f64().max(1e-9);
        eprintln!(
            "mipsx sweep --bench {name}: {} jobs, serial {serial_wall:.2?}, \
             {threads} threads {parallel_wall:.2?} ({speedup:.2}x), identical={identical}, \
             telemetry {telemetry_overhead:.3}x, rerun {}/{} from cache",
            serial.rows.len(),
            rerun.cache_hits,
            rerun.rows.len(),
        );
        if !identical || !telemetry_identical {
            return fail("BENCH FAILURE: reports differ across thread/telemetry modes");
        }
        if rerun.cache_hits != rerun.rows.len() {
            return fail("BENCH FAILURE: warm re-run was not fully served from cache");
        }
        entries.push(format!(
            "{{\"grid\":\"{name}\",\"jobs\":{},\"threads\":{threads},\
             \"serial_ms\":{},\"parallel_ms\":{},\"speedup\":{speedup:.3},\
             \"telemetry_overhead\":{telemetry_overhead:.3},\
             \"byte_identical\":true,\"rerun_cache_hits\":{},\"rerun_jobs\":{}}}",
            serial.rows.len(),
            serial_wall.as_millis(),
            parallel_wall.as_millis(),
            rerun.cache_hits,
            rerun.rows.len(),
        ));
    }
    // Speedups are only meaningful relative to the cores the host actually
    // had, so the baseline records it.
    let doc = format!(
        "{{\"bench\":\"mipsx sweep --bench\",\"host_cpus\":{},\"grids\":[{}]}}\n",
        default_threads(),
        entries.join(",")
    );
    std::fs::write(path, &doc).map_err(|e| format!("cannot write {path}: {e}"))?;
    print!("{doc}");
    Ok(ExitCode::SUCCESS)
}

/// `mipsx profile`: run with host telemetry live and print the span-tree
/// wall-time report. A target profiles one run (see [`run_target`]); a
/// `.sweep` file or `--grid`/`--workload` flags profile a whole sweep,
/// including pool occupancy and store latency metrics.
fn cmd_profile(args: &[String]) -> Outcome {
    let parsed = parse("profile", args)?;
    if parsed
        .positionals
        .first()
        .is_some_and(|t| !t.ends_with(".sweep"))
    {
        return run_target(&parsed, true);
    }
    // A sweep's machine points come from its base and grid, never from the
    // single-target machine flags.
    for (flag, instead) in [
        ("--slots", "--grid branch.slots=<1,2>"),
        ("--ideal", "--base ideal"),
    ] {
        if parsed.has(flag) {
            return fail(format!(
                "profile: {flag} applies to a single target; a sweep takes {instead}"
            ));
        }
    }
    let tele = Telemetry::enabled();
    let (spec, opts) = sweep_from_flags(&parsed, ResultStore::disabled(), tele.clone())?;
    if spec.workloads.is_empty() {
        return Err(Fail::Usage(Some(
            "profile: give a kernel name, a .s file, a .sweep file, or --workload flags".into(),
        )));
    }
    let outcome = run_sweep(&spec, &opts).map_err(|e| format!("sweep failed: {e}"))?;
    let snap = tele.snapshot();
    println!(
        "profile: {} jobs on {} thread(s) in {:.2?} ({} from cache)",
        outcome.rows.len(),
        opts.threads,
        outcome.wall,
        outcome.cache_hits
    );
    println!();
    print!("{}", snap.span_tree_report());
    let timing = |name: &str| snap.timing_counters.get(name).copied().unwrap_or(0);
    let (busy, idle) = (timing("pool.busy_ns"), timing("pool.idle_ns"));
    if busy + idle > 0 {
        println!();
        println!(
            "pool: {} worker(s), busy {:.1} ms, idle {:.1} ms ({:.1}% occupancy), {} steal(s)",
            snap.gauges.get("pool.workers").copied().unwrap_or(0),
            busy as f64 / 1e6,
            idle as f64 / 1e6,
            100.0 * busy as f64 / (busy + idle) as f64,
            timing("pool.steals"),
        );
    }
    let guest_cycles = snap.counter("guest.cycles");
    if guest_cycles > 0 {
        println!(
            "guest: {guest_cycles} cycles simulated, {:.2} Mcycles/s of host time",
            guest_cycles as f64 / outcome.wall.as_secs_f64().max(1e-9) / 1e6
        );
    }
    if let Some(path) = parsed.value("--metrics") {
        write_metrics(path, &snap)?;
    }
    Ok(ExitCode::SUCCESS)
}

/// `mipsx snapshot <save|restore|info>`: the checkpoint/restore surface.
///
/// `save` runs a target for `--cycles` and writes the machine (plus the
/// fault plan's delivery cursor) to `--out`; `restore` reads a snapshot
/// back in a *fresh process* and runs it to completion, printing the same
/// stats block a from-scratch run would — so CI can diff the two outputs
/// byte for byte; `info` prints the self-describing header without
/// constructing a machine at all.
fn cmd_snapshot(args: &[String]) -> Outcome {
    match args.first().map(String::as_str) {
        Some("save") => snapshot_save(&args[1..]),
        Some("restore") => snapshot_restore(&args[1..]),
        Some("info") => snapshot_info(&args[1..]),
        None => Err(Fail::Usage(Some(
            "snapshot: expected save, restore or info".into(),
        ))),
        Some(other) => Err(Fail::Usage(Some(format!(
            "snapshot {other}: expected save, restore or info"
        )))),
    }
}

fn snapshot_save(args: &[String]) -> Outcome {
    let parsed = parse("snapshot save", args)?;
    let target = target(&parsed)?;
    let Some(out) = parsed.value("--out") else {
        return fail("snapshot save: --out <path> is required");
    };
    let cycles = parsed.parsed_or("--cycles", 0u64)?;
    let mut plan = faults_flag(&parsed)?.unwrap_or_else(FaultPlan::none);
    let point = point_from_flags(&parsed)?;
    let program = resolve_target(target, &point)?;
    let mut machine = Machine::new(point.cfg);
    machine.load_program(&program);
    // --cycles 0 snapshots the freshly loaded machine: restoring that is
    // exactly a from-scratch run, which gives CI its reference output.
    if cycles > 0 {
        match machine.run_with_faults(cycles, &mut NullSink, &mut plan) {
            Err(RunError::CycleLimit { .. }) => {}
            Ok(stats) => eprintln!(
                "mipsx: note: program halted at cycle {} (before the {cycles}-cycle mark); \
                 snapshotting the final state",
                stats.cycles
            ),
            Err(e) => return fail(format!("execution failed: {e}")),
        }
    }
    let bytes = machine
        .save_snapshot(Some(&plan))
        .map_err(|e| format!("snapshot failed: {e}"))?;
    std::fs::write(out, &bytes).map_err(|e| format!("cannot write {out}: {e}"))?;
    eprintln!("mipsx: {} bytes written to {out}", bytes.len());
    let info = mipsx::core::snapshot::inspect(&bytes)
        .map_err(|e| format!("INTERNAL ERROR: just-written snapshot does not inspect: {e}"))?;
    print!("{info}");
    Ok(ExitCode::SUCCESS)
}

fn snapshot_restore(args: &[String]) -> Outcome {
    let parsed = parse("snapshot restore", args)?;
    let path = target(&parsed)?;
    let cycles = parsed.parsed_or("--cycles", 10_000_000u64)?;
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let (mut machine, plan) =
        Machine::restore_snapshot(&bytes).map_err(|e| format!("{path}: {e}"))?;
    let mut plan = plan.unwrap_or_else(FaultPlan::none);
    if !machine.halted() {
        machine
            .run_with_faults(cycles, &mut NullSink, &mut plan)
            .map_err(|e| format!("execution failed: {e}"))?;
    }
    println!("{}", machine.stats());
    println!("icache: {}", machine.icache().stats());
    println!("ecache: {}", machine.ecache().stats());
    Ok(ExitCode::SUCCESS)
}

fn snapshot_info(args: &[String]) -> Outcome {
    let path = args.first().ok_or(Fail::Usage(None))?;
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let info = mipsx::core::snapshot::inspect(&bytes).map_err(|e| format!("{path}: {e}"))?;
    print!("{info}");
    Ok(ExitCode::SUCCESS)
}

fn cmd_info() -> Outcome {
    let cfg = MachineConfig::mipsx();
    println!("MIPS-X (Chow & Horowitz, ISCA 1987)");
    println!(
        "  clock              : {} MHz (16 MHz first silicon)",
        cfg.clock_mhz
    );
    println!(
        "  pipeline           : IF RF ALU MEM WB, {} branch delay slots",
        cfg.branch_delay_slots
    );
    println!(
        "  icache             : {} words ({} rows x {} ways x {}-word blocks), {}-cycle miss, {}-word fetch-back",
        cfg.icache.size_words(),
        cfg.icache.rows,
        cfg.icache.ways,
        cfg.icache.block_words,
        cfg.icache.miss_penalty,
        cfg.icache.fetch_words
    );
    println!(
        "  ecache             : {} words, {}-word blocks, late-miss retry (+{} cycle)",
        cfg.ecache.size_words, cfg.ecache.block_words, cfg.ecache.late_miss_overhead
    );
    println!(
        "  memory latency     : {} cycles per retry loop",
        cfg.mem_latency
    );
    println!("  coprocessor scheme : {}", cfg.coproc_scheme);
    println!("  exception vector   : {:#x}", cfg.exception_vector);
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let rest = &args[1..];
    let outcome = match cmd.as_str() {
        "info" => cmd_info(),
        "asm" => cmd_asm(false, rest),
        "dis" => cmd_asm(true, rest),
        "run" => parse("run", rest).and_then(|parsed| run_target(&parsed, false)),
        "trace" => cmd_trace(rest),
        "soak" => cmd_soak(rest),
        "lint" => cmd_lint(rest),
        "analyze" => cmd_analyze(rest),
        "sweep" => cmd_sweep(rest),
        "profile" => cmd_profile(rest),
        "snapshot" => cmd_snapshot(rest),
        _ => Err(Fail::Usage(None)),
    };
    outcome.unwrap_or_else(|fail| match fail {
        Fail::Usage(msg) => {
            if let Some(msg) = msg {
                eprintln!("mipsx: {msg}");
            }
            usage()
        }
        Fail::Msg(msg) => {
            eprintln!("mipsx: {msg}");
            ExitCode::FAILURE
        }
    })
}
