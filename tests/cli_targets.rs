//! Every `mipsx` subcommand that takes a target resolves it, and its
//! machine flags, through `mipsx::cli::{resolve_target, point_from_flags}`.
//! The table below crosses those subcommands with every target form and the
//! shared machine flags. It checks which cells are accepted, that the
//! program's schedule always matches the machine's delay-slot count, and
//! that every accepted program passes the static verifier for that count.
//! A few cells spawn the `mipsx` binary itself.

use std::collections::BTreeSet;
use std::process::{Command, Output};

use mipsx::cli::{flags_of, parse_args, point_from_flags, resolve_target, SUBCOMMAND_FLAGS};
use mipsx::explore::{Grid, ImageCache, SimPoint, SweepSpec, Telemetry, Workload};
use mipsx::verify::{verify, VerifyConfig};

/// The subcommands that act on one target.
const TARGET_SUBCOMMANDS: [&str; 6] = [
    "run",
    "trace",
    "profile",
    "snapshot save",
    "lint",
    "analyze",
];

/// A loop that is legal under both delay-slot counts: the two `nop`s are
/// its slots on the 2-slot machine, a slot plus a plain `nop` on the
/// 1-slot one.
const LOOP_SOURCE: &str = "li r1, 20\nli r2, 0\nloop: add r2, r2, r1\naddi r1, r1, -1\n\
                           bne r1, r0, loop\nnop\nnop\nhalt\n";

fn argv(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| (*s).to_owned()).collect()
}

fn loop_file() -> String {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_targets_loop.s");
    std::fs::write(&path, LOOP_SOURCE).unwrap();
    path.to_str().unwrap().to_owned()
}

/// The program a sweep job prepares for `workload` at `point`.
fn sweep_program(workload: &str, point: SimPoint) -> Vec<u32> {
    let mut spec = SweepSpec::new(point);
    spec.workloads = vec![Workload::parse(workload).unwrap()];
    spec.grid = Grid::Axes(vec![]);
    let job = &spec.expand().unwrap()[0];
    let image = ImageCache::new()
        .get_or_prepare(job, &Telemetry::disabled())
        .unwrap();
    image.program().unwrap().words.clone()
}

#[test]
fn subcommands_x_targets_x_machine_flags() {
    let file = loop_file();
    // (target, the sweep workload it names, error substring if refused)
    let targets: [(&str, Option<&str>, Option<&str>); 6] = [
        (&file, None, None),
        ("hanoi", Some("kernel:hanoi"), None),
        ("kernel:fib_recursive", Some("kernel:fib_recursive"), None),
        ("synth:pascal:11", Some("synth:pascal:11"), None),
        ("stream:64x2", Some("stream:64x2"), None),
        ("trace:medium:11", None, Some("not a program")),
    ];
    // (machine flags, delay slots of the resulting point or the error
    // substring that refuses it)
    let flag_sets: [(&[&str], Result<usize, &str>); 10] = [
        (&[], Ok(2)),
        (&["--slots", "1"], Ok(1)),
        (&["--slots", "2"], Ok(2)),
        (&["--slots", "0"], Err("branch slots must be 1 or 2")),
        (&["--slots", "3"], Err("branch slots must be 1 or 2")),
        (&["--slots", "two"], Err("bad value")),
        (&["--ideal", "--slots", "1"], Ok(1)),
        (&["--trust"], Ok(2)),
        (&["--engine", "block", "--slots", "1"], Ok(1)),
        (
            &["--engine", "checked", "--slots", "1"],
            Err("engine=checked"),
        ),
    ];
    let mut accepted = 0;
    for sub in TARGET_SUBCOMMANDS {
        let declared: BTreeSet<&str> = flags_of(sub).iter().map(|f| f.name).collect();
        for (flags, expect) in &flag_sets {
            for (target, workload, refusal) in &targets {
                let cell = format!("{sub} {target} {}", flags.join(" "));
                let mut args = argv(flags);
                args.push((*target).to_owned());
                let parsed = parse_args(&args, flags_of(sub));
                let undeclared = flags
                    .iter()
                    .find(|f| f.starts_with("--") && !declared.contains(*f));
                if let Some(flag) = undeclared {
                    let e = parsed.expect_err(&cell);
                    assert_eq!(e.to_string(), format!("unknown option {flag}"), "{cell}");
                    continue;
                }
                let parsed = parsed.expect(&cell);
                let point = point_from_flags(&parsed);
                let slots = match expect {
                    Ok(slots) => *slots,
                    Err(msg) => {
                        let e = point.expect_err(&cell);
                        assert!(e.contains(msg), "{cell}: {e}");
                        continue;
                    }
                };
                let point = point.expect(&cell);
                assert_eq!(point.scheme.slots, slots, "{cell}");
                assert_eq!(point.cfg.branch_delay_slots, slots, "{cell}");
                let program = resolve_target(target, &point);
                if let Some(msg) = refusal {
                    let e = program.expect_err(&cell);
                    assert!(e.contains(msg), "{cell}: {e}");
                    continue;
                }
                let program = program.expect(&cell);
                let lint = verify(&program, &VerifyConfig::for_slots(slots));
                assert!(lint.is_clean(), "{cell}: {lint}");
                if let Some(workload) = workload {
                    assert_eq!(program.words, sweep_program(workload, point), "{cell}");
                }
                accepted += 1;
            }
        }
    }
    // Accepted flag sets per subcommand: all 6 for run, 5 for profile (no
    // --trust), the 3 slot-only ones for the other four; 5 targets each.
    assert_eq!(accepted, (6 + 5 + 4 * 3) * 5);
}

#[test]
fn each_subcommand_declares_its_flag_names() {
    let expected: &[(&str, &[&str])] = &[
        (
            "run",
            &[
                "--cycles", "--slots", "--engine", "--trust", "--ideal", "--regs",
            ],
        ),
        (
            "trace",
            &[
                "--cycles",
                "--slots",
                "--diagram",
                "--jsonl",
                "--from-cycle",
            ],
        ),
        (
            "soak",
            &[
                "--runs",
                "--seed",
                "--faults",
                "--fault-count",
                "--cycles",
                "--snap-dir",
            ],
        ),
        ("lint", &["--json", "--kernels", "--timing", "--slots"]),
        (
            "analyze",
            &[
                "--json",
                "--kernels",
                "--differential",
                "--slots",
                "--cycles",
            ],
        ),
        (
            "sweep",
            &[
                "--grid",
                "--workload",
                "--fault",
                "--base",
                "--engine",
                "--cycles",
                "--threads",
                "--store",
                "--json",
                "--csv",
                "--no-cache",
                "--bench",
                "--metrics",
                "--timings",
                "--journal",
                "--snapshot-every",
                "--resume",
            ],
        ),
        (
            "profile",
            &[
                "--grid",
                "--workload",
                "--fault",
                "--base",
                "--engine",
                "--cycles",
                "--threads",
                "--slots",
                "--ideal",
                "--store",
                "--metrics",
            ],
        ),
        (
            "snapshot save",
            &["--cycles", "--slots", "--faults", "--out"],
        ),
        ("snapshot restore", &["--cycles"]),
    ];
    assert_eq!(SUBCOMMAND_FLAGS.len(), expected.len());
    for (sub, names) in expected {
        let got: BTreeSet<&str> = flags_of(sub).iter().map(|f| f.name).collect();
        assert_eq!(got, names.iter().copied().collect(), "{sub}");
    }
}

fn mipsx(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mipsx"))
        .args(args)
        .output()
        .expect("spawn mipsx")
}

/// The `cycles=` figure of a stats block.
fn cycles_in(stdout: &[u8]) -> u64 {
    let text = String::from_utf8_lossy(stdout);
    let at = text.find("cycles=").expect("a stats block") + "cycles=".len();
    text[at..].split(' ').next().unwrap().parse().unwrap()
}

#[test]
fn run_accepts_a_bare_kernel_name() {
    let out = mipsx(&["run", "hanoi"]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(cycles_in(&out.stdout) > 0);
}

#[test]
fn trace_schedules_for_the_slots_it_runs_with() {
    for slots in ["1", "2"] {
        let trace = mipsx(&["trace", "fib_recursive", "--slots", slots, "--diagram", "0"]);
        assert!(trace.status.success());
        let grid = format!("branch.slots={slots}");
        let sweep = mipsx(&[
            "sweep",
            "--workload",
            "kernel:fib_recursive",
            "--grid",
            &grid,
            "--no-cache",
            "--json",
        ]);
        assert!(sweep.status.success());
        let json = String::from_utf8_lossy(&sweep.stdout);
        let at = json.find("\"cycles\":").unwrap() + "\"cycles\":".len();
        let sweep_cycles: u64 = json[at..].split(',').next().unwrap().parse().unwrap();
        assert_eq!(cycles_in(&trace.stdout), sweep_cycles, "--slots {slots}");
    }
}

#[test]
fn out_of_range_slots_exit_with_the_validation_message() {
    let out_path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_targets.msnap");
    let out_path = out_path.to_str().unwrap();
    for slots in ["0", "3"] {
        for sub in [
            &["run", "hanoi"][..],
            &["trace", "hanoi"],
            &["profile", "hanoi"],
            &["snapshot", "save", "hanoi", "--out", out_path],
        ] {
            let mut args = sub.to_vec();
            args.extend(["--slots", slots]);
            let out = mipsx(&args);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
            assert!(
                stderr.contains("branch slots must be 1 or 2"),
                "{args:?}: {stderr}"
            );
        }
    }
}

#[test]
fn sweep_mode_profile_points_slots_to_the_grid() {
    let out = mipsx(&["profile", "--workload", "kernel:sum_to_n", "--slots", "1"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("--grid branch.slots="), "{stderr}");
}

#[test]
fn trace_workloads_are_refused_as_targets() {
    let out = mipsx(&["run", "trace:medium:11"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("not a program"), "{stderr}");
}
