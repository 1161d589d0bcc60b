//! End-to-end and per-layer benchmark of the MIPS-X reproduction.
//!
//! ```text
//! perfbench --workload <paper|sched_sweep|warm_rerun|hw_sweep> --seed <n>
//!           --seconds <s> --trace <0|1> [--write-ref]
//! ```
//!
//! Batch, closed loop, one client: each pass runs the workload's fixed
//! job list back to back, and passes repeat until `--seconds` have
//! elapsed (at least three). With `--trace 0` it prints the end-to-end
//! metrics; with `--trace 1` it alternates an untraced pass, a pass with
//! the program's telemetry on, and a layer replay, and prints the
//! per-layer metrics. Times are scaled to a nominal host speed by a
//! reference kernel run between calls into the program (see `calib`).
//! The last line of standard output is one JSON object. Scratch stores
//! and the span file go under `.bench_out/`.
//! See README.md for the workloads and the metrics.

mod calib;
mod stats;
mod trace;
mod work;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use mipsx_explore::{JobResult, ResultStore, Telemetry};

use calib::HostClock;
use stats::{median, peak_rss_mb, percentile, result_json, tail_percentile, Metric};
use trace::{layer_metrics, replay, self_times, Iteration, Recorder, Work};
use work::{
    fresh_dir, paper_rel_err, paper_specs, run_pass, setup, Checker, Kind, Setup, Tally,
    DEFAULT_SEED,
};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Fewest timed passes per untraced run, however long each takes.
const MIN_PASSES: usize = 3;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    write_ref: bool,
}

const USAGE: &str = "usage: perfbench --workload <paper|sched_sweep|warm_rerun|hw_sweep> \
                     --seed <n> --seconds <s> --trace <0|1> [--write-ref]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut write_ref = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--write-ref" {
            write_ref = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("{flag}: bad value {value}");
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        write_ref,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = PathBuf::from(".bench_out");
    if let Err(err) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {err}", out_dir.display());
        return ExitCode::FAILURE;
    }
    // Stores of this process live in their own directory, removed at exit.
    let scratch = out_dir.join(format!("run-{}", std::process::id()));
    let code = if args.write_ref {
        write_reference(&args, &scratch)
    } else {
        let mut clock = HostClock::new(args.kind.host_sensitivity());
        let (tally, metrics) = if args.trace {
            traced(&args, &scratch, &mut clock)
        } else {
            untraced(&args, &scratch, &mut clock)
        };
        for m in &metrics {
            println!("{:<30} {:>16.6} {}", m.name, m.value, m.unit);
        }
        println!("{}", result_json(tally.attempted, tally.failed, &metrics));
        ExitCode::SUCCESS
    };
    let _ = std::fs::remove_dir_all(&scratch);
    code
}

/// Set the workload up `SETUP_REPS` times; keep the last set-up and
/// return the median set-up time at nominal host speed. Set-up failures
/// count once.
fn set_up(args: &Args, scratch: &Path, clock: &mut HostClock, tally: &mut Tally) -> (Setup, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept: Option<Setup> = None;
    for rep in 0..SETUP_REPS {
        let mut t = Tally::default();
        let (s, timed) = clock.time(|| setup(args.kind, args.seed, scratch, &mut t));
        times.push(timed.nominal_s());
        if rep == 0 {
            tally.add(t.attempted, t.failed);
        }
        if let Some(old) = kept.replace(s) {
            if let Some(dir) = old.store_dir {
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }
    (kept.expect("at least one set-up"), median(&times))
}

fn untraced(args: &Args, scratch: &Path, clock: &mut HostClock) -> (Tally, Vec<Metric>) {
    let mut tally = Tally::default();
    let (setup, setup_s) = set_up(args, scratch, clock, &mut tally);
    let mut checker = Checker::new(args.kind, args.seed);
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let (mut walls, mut rates, mut guest, mut job_ms) = (vec![], vec![], vec![], vec![]);
    let (mut raw_walls, mut scales) = (vec![], vec![]);
    let mut rel_err = None;
    while walls.len() < MIN_PASSES || start.elapsed() < budget {
        let pass = run_pass(
            &setup,
            &Telemetry::disabled(),
            clock,
            &mut tally,
            &mut |_, _, _| {},
        );
        checker.check(&pass, &setup, &mut tally);
        raw_walls.push(pass.raw_wall_s);
        scales.push(pass.wall_s / pass.raw_wall_s);
        walls.push(pass.wall_s);
        rates.push(pass.job_ms.len() as f64 / pass.wall_s);
        guest.push(pass.guest_cycles as f64 / pass.wall_s / 1e6);
        job_ms.extend(pass.job_ms);
        if args.kind == Kind::Paper {
            rel_err.get_or_insert_with(|| paper_rel_err(&pass.rows));
        }
    }
    checker.check_threads(&setup, scratch, &mut tally);
    let walls_ms: Vec<String> = raw_walls
        .iter()
        .zip(&scales)
        .map(|(w, k)| format!("{:.1}x{k:.3}", w * 1e3))
        .collect();
    eprintln!(
        "perfbench: host pass walls (ms) x scale to nominal speed: {}",
        walls_ms.join(" ")
    );
    let tail = tail_percentile(job_ms.len());
    println!(
        "perfbench: workload={} seed={} passes={} jobs={} host_cpus={} host_pass_s={:.6} mean_scale={:.4}",
        args.kind.name(),
        args.seed,
        walls.len(),
        job_ms.len(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        median(&raw_walls),
        scales.iter().sum::<f64>() / scales.len() as f64,
    );
    match tail {
        Some(p) => println!(
            "perfbench: job_ms_p99 is the p{p:.2} of {} jobs",
            job_ms.len()
        ),
        None => println!(
            "perfbench: job_ms_p99 is the maximum of {} jobs",
            job_ms.len()
        ),
    }
    if let Some(err) = rel_err {
        println!("perfbench: paper_rel_err={err}");
    }
    let metrics = vec![
        Metric {
            name: "pass_s",
            unit: "s",
            value: median(&walls),
        },
        Metric {
            name: "jobs_per_s",
            unit: "jobs/s",
            value: median(&rates),
        },
        Metric {
            name: "job_ms_p50",
            unit: "ms",
            value: median(&job_ms),
        },
        Metric {
            name: "job_ms_p99",
            unit: "ms",
            value: percentile(&job_ms, tail.unwrap_or(100.0)),
        },
        Metric {
            name: "guest_mcycles_per_s",
            unit: "Mcycles/s",
            value: median(&guest),
        },
        Metric {
            name: "setup_s",
            unit: "s",
            value: setup_s,
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MB",
            value: peak_rss_mb(),
        },
    ];
    (tally, metrics)
}

fn traced(args: &Args, scratch: &Path, clock: &mut HostClock) -> (Tally, Vec<Metric>) {
    let mut tally = Tally::default();
    let (setup, _) = set_up(args, scratch, clock, &mut tally);
    let mut checker = Checker::new(args.kind, args.seed);
    let mut rec = Recorder::new();
    let mut iterations: Vec<Iteration> = Vec::new();
    let mut rel_err = 0.0;
    let budget = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    while iterations.is_empty() || start.elapsed() < budget {
        let untraced = run_pass(
            &setup,
            &Telemetry::disabled(),
            clock,
            &mut tally,
            &mut |_, _, _| {},
        );
        checker.check(&untraced, &setup, &mut tally);

        let tele = Telemetry::enabled();
        let pass_begin = rec.spans.len();
        let pass_span = rec.open("pass");
        let traced = run_pass(&setup, &tele, clock, &mut tally, &mut |name, t0, t1| {
            rec.record(name, t0, t1)
        });
        rec.close(pass_span);
        checker.check(&traced, &setup, &mut tally);
        if args.kind == Kind::Paper {
            rel_err = paper_rel_err(&traced.rows);
        }

        let replay_begin = rec.spans.len();
        let mut work = Work::default();
        match args.kind {
            Kind::Paper => {
                for spec in paper_specs() {
                    replay(&spec, None, true, None, &mut rec, &mut work, &mut tally);
                }
            }
            kind => {
                let expected: Option<Vec<JobResult>> = traced
                    .outcome
                    .as_ref()
                    .map(|o| o.rows.iter().map(|r| r.result).collect());
                let cold_dir =
                    (kind == Kind::SchedSweep).then(|| fresh_dir(scratch, "replay-store"));
                let store = match (&cold_dir, &setup.store_dir) {
                    (Some(dir), _) | (None, Some(dir)) => Some(ResultStore::at(dir)),
                    (None, None) => None,
                };
                let block = kind == Kind::HwSweep;
                replay(
                    &setup.spec,
                    store.as_ref(),
                    block,
                    expected.as_deref(),
                    &mut rec,
                    &mut work,
                    &mut tally,
                );
                if let Some(dir) = cold_dir {
                    let _ = std::fs::remove_dir_all(dir);
                }
            }
        }
        iterations.push(Iteration {
            untraced_s: untraced.wall_s,
            traced_s: traced.wall_s,
            pass_spans: pass_begin..replay_begin,
            snapshot: tele.snapshot(),
            replay_spans: replay_begin..rec.spans.len(),
            work,
        });
    }
    let self_ns = self_times(&rec.spans);
    let metrics = layer_metrics(&iterations, &rec, &self_ns, tally, rel_err);
    let spans_path = Path::new(".bench_out").join(format!(
        "spans-{}-seed{}.jsonl",
        args.kind.name(),
        args.seed
    ));
    match rec.write_jsonl(&spans_path, &self_ns) {
        Ok(()) => println!(
            "perfbench: {} spans of {} iterations in {}",
            rec.spans.len(),
            iterations.len(),
            spans_path.display()
        ),
        Err(err) => eprintln!("perfbench: cannot write {}: {err}", spans_path.display()),
    }
    report_shares(&metrics);
    (tally, metrics)
}

/// Print the program's own split of job time (its telemetry spans) and
/// the cross-check of the benchmark's replay spans against it.
fn report_shares(metrics: &[Metric]) {
    let get = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let part = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let job = get("telemetry.job_ms");
    println!(
        "perfbench: telemetry job time {job:.3} ms per pass: job/reorganize {:.3}, job/run {:.3} of it",
        part(get("telemetry.job_reorganize_ms"), job),
        part(get("telemetry.job_run_ms"), job)
    );
    println!(
        "perfbench: cross-check reorg.reorganize_ms/telemetry.job_reorganize_ms={:.3} exec.run_ms/telemetry.job_run_ms={:.3}",
        part(get("reorg.reorganize_ms"), get("telemetry.job_reorganize_ms")),
        part(get("exec.run_ms"), get("telemetry.job_run_ms"))
    );
}

/// Run one pass of the default seed and store its outputs as the
/// reference the checks compare against.
fn write_reference(args: &Args, scratch: &Path) -> ExitCode {
    if args.seed != DEFAULT_SEED {
        eprintln!("perfbench: references are kept for seed {DEFAULT_SEED} only");
        return ExitCode::from(2);
    }
    let mut tally = Tally::default();
    let setup = setup(args.kind, args.seed, scratch, &mut tally);
    let pass = run_pass(
        &setup,
        &Telemetry::disabled(),
        &mut HostClock::new(args.kind.host_sensitivity()),
        &mut tally,
        &mut |_, _, _| {},
    );
    if tally.failed > 0 {
        eprintln!("perfbench: not writing a reference from a run with failures");
        return ExitCode::FAILURE;
    }
    let path = args.kind.reference_path();
    match std::fs::write(&path, pass.out.to_text()) {
        Ok(()) => {
            println!("perfbench: wrote {}", path.display());
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("perfbench: cannot write {}: {err}", path.display());
            ExitCode::FAILURE
        }
    }
}
