//! The four workloads: how each derives its inputs from the seed, sets
//! up, runs one pass through the program's public entry points, and
//! checks the pass's outputs.

use std::path::{Path, PathBuf};
use std::time::Instant;

use mipsx_bench::experiments as e;
use mipsx_bench::{Row, SEEDS};
use mipsx_explore::{
    run_sweep, Axis, Grid, ImageCache, ResultStore, SimPoint, SweepOptions, SweepOutcome, SweepRow,
    SweepSpec, Telemetry, Workload,
};
use mipsx_reorg::RawProgram;
use mipsx_workloads::synth::{generate, SynthConfig};
use mipsx_workloads::traces::{instruction_trace, TraceConfig};
use mipsx_workloads::{find_kernel, streaming};

use crate::calib::HostClock;
use crate::stats::digest;

/// The seed whose outputs are stored under `ref/`.
pub const DEFAULT_SEED: u64 = 1;

/// Grid points per timed segment of a sweep pass. A pass runs its grid in
/// segments of at most this many points, one `run_sweep` call each, and
/// the host-speed reference kernel runs between them; short segments
/// keep a change of host speed within one segment rare. `hw_sweep`'s 64
/// points make 64 segments of about 25 ms, the six-point sweeps six.
const SEGMENT_POINTS: usize = 1;

/// Workers of the identity check that reruns a store-backed sweep in
/// parallel (the host has two CPUs). Timed passes are serial: with two
/// busy workers, pass times and job tails spread 20-42% between runs on a
/// two-CPU host, too wide to resolve a regression.
const SWEEP_THREADS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// All twelve `reproduce` experiments, serial, store disabled.
    Paper,
    /// Cold serial sweep of synthetic programs × Table 1 schemes, store
    /// disabled (every job simulates).
    SchedSweep,
    /// The `SchedSweep` spec rerun serially against a store set-up filled.
    WarmRerun,
    /// Four programs × a hardware grid, serial, store disabled.
    HwSweep,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::Paper,
        Kind::SchedSweep,
        Kind::WarmRerun,
        Kind::HwSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Paper => "paper",
            Kind::SchedSweep => "sched_sweep",
            Kind::WarmRerun => "warm_rerun",
            Kind::HwSweep => "hw_sweep",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// The exponent of the host-speed reference kernel's slowdown that
    /// gives this workload's slowdown (see `calib`): the least-squares
    /// slope of log pass (or segment) time against log kernel time, taken
    /// both ways round (y on x, and x on y, which bracket the true
    /// slope), over 15-120 s recordings on the reference host in its
    /// slow stretches. `hw_sweep`, all simulation, slowed most (1.3-2.1;
    /// exponent 1 left its 20 s medians 8-16% apart, 1.5 about 5%);
    /// `warm_rerun`, whose jobs read the store and reorganize, least
    /// (0.75-0.9); `paper` 0.9-1.8 and `sched_sweep` 1.1-1.7.
    pub fn host_sensitivity(self) -> f64 {
        match self {
            Kind::Paper => 1.1,
            Kind::SchedSweep => 1.25,
            Kind::WarmRerun => 0.8,
            Kind::HwSweep => 1.5,
        }
    }

    /// The stored outputs of the default seed.
    fn reference(self) -> &'static str {
        match self {
            Kind::Paper => include_str!("../ref/paper.txt"),
            Kind::SchedSweep => include_str!("../ref/sched_sweep.txt"),
            Kind::WarmRerun => include_str!("../ref/warm_rerun.txt"),
            Kind::HwSweep => include_str!("../ref/hw_sweep.txt"),
        }
    }

    pub fn reference_path(self) -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("ref")
            .join(format!("{}.txt", self.name()))
    }
}

/// Attempted and failed operations. A failure is a quarantined row, a run
/// error, an unparseable input or an output mismatch; none aborts a run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn fail(&mut self, what: &str) {
        eprintln!("perfbench: failure: {what}");
        self.add(1, 1);
    }
}

/// A synthetic-program seed derived from the benchmark seed: SplitMix64
/// over `(seed, index)`, in `1..=999_999`, never one of the calibration
/// `SEEDS`, so a claim tuned on those can be re-checked here.
pub fn derive_seed(seed: u64, index: u64) -> u64 {
    let mut bump = 0u64;
    loop {
        let mut z = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(index.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(bump.wrapping_mul(0x94D0_49BB_1331_11EB));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        let derived = 1 + z % 999_999;
        if !SEEDS.contains(&derived) {
            return derived;
        }
        bump += 1;
    }
}

/// The workload identities a sweep kind runs for `seed`.
pub fn workload_ids(kind: Kind, seed: u64) -> Vec<String> {
    match kind {
        Kind::Paper => Vec::new(),
        Kind::SchedSweep | Kind::WarmRerun => (0..10)
            .flat_map(|i| {
                [
                    format!("synth:pascal:{}", derive_seed(seed, 2 * i)),
                    format!("synth:lisp:{}", derive_seed(seed, 2 * i + 1)),
                ]
            })
            .collect(),
        // Fixed programs: the median job falls between the two synthetic
        // programs' job groups, so seed-derived ones moved it by a quarter
        // from seed to seed. This workload varies the hardware, not the code.
        Kind::HwSweep => vec![
            format!("synth:pascal:{}", derive_seed(DEFAULT_SEED, 100)),
            format!("synth:lisp:{}", derive_seed(DEFAULT_SEED, 101)),
            "kernel:fib_recursive".to_owned(),
            // 32768 words sit inside the 65536-word Ecache and beyond the
            // 4096-word one, so the grid puts the stream on both sides.
            "stream:32768x2".to_owned(),
        ],
    }
}

/// The grid axes of a sweep kind, in `--grid` syntax.
pub fn grid_axes(kind: Kind) -> &'static [&'static str] {
    match kind {
        Kind::Paper => &[],
        // Slots slowest, squash fastest: the six Table 1 schemes.
        Kind::SchedSweep | Kind::WarmRerun => {
            &["branch.slots=2,1", "branch.squash=none,always,optional"]
        }
        Kind::HwSweep => &[
            "icache.rows=4,16",
            "icache.ways=2,8",
            "icache.miss_penalty=2,3",
            "ecache.size_words=4096,65536",
            "ecache.late_miss=0,2",
            "mem_latency=3,5",
        ],
    }
}

/// Build the sweep spec over `ids`. An identity that does not parse is
/// counted as a failed operation and left out.
pub fn build_spec(kind: Kind, ids: &[String], tally: &mut Tally) -> SweepSpec {
    let mut spec = SweepSpec::new(SimPoint::mipsx());
    spec.grid = Grid::Axes(
        grid_axes(kind)
            .iter()
            .map(|a| Axis::parse_flag(a).expect("the benchmark's own axes parse"))
            .collect(),
    );
    for id in ids {
        match Workload::parse(id) {
            Ok(w) => spec.workloads.push(w),
            Err(err) => tally.fail(&format!("workload {id}: {err}")),
        }
    }
    spec
}

/// A generated workload input.
pub enum Input {
    /// An unscheduled program (kernels, synthetic programs, streams).
    Raw(RawProgram),
    /// An instruction-address trace.
    Trace(Vec<u32>),
}

/// Generate one workload's input with the workloads crate, as the
/// program's image cache does.
pub fn generate_input(workload: &Workload) -> Result<Input, String> {
    match workload {
        Workload::Kernel(name) => find_kernel(name)
            .map(|k| Input::Raw(k.raw))
            .ok_or_else(|| format!("unknown kernel {name}")),
        Workload::Synth { profile, seed } => {
            let cfg = match profile.as_str() {
                "pascal" => SynthConfig::pascal_like(*seed),
                "lisp" => SynthConfig::lisp_like(*seed),
                "tiny" => SynthConfig::tiny(*seed),
                other => return Err(format!("unknown synth profile {other}")),
            };
            Ok(Input::Raw(generate(cfg).raw))
        }
        Workload::Stream { words, reps } => Ok(Input::Raw(streaming(*words, *reps))),
        Workload::Trace { profile, seed } => {
            let cfg = match profile.as_str() {
                "medium" => TraceConfig::medium(*seed),
                "large" => TraceConfig::large(*seed),
                other => return Err(format!("unknown trace profile {other}")),
            };
            Ok(Input::Trace(instruction_trace(cfg)))
        }
    }
}

/// One experiment of `reproduce`: its name, the span a traced pass
/// records around it, and the call.
type Experiment = (&'static str, &'static str, fn() -> Vec<Row>);

/// The twelve experiments exactly as `reproduce` runs them: serial, with
/// the result store disabled.
pub const EXPERIMENTS: [Experiment; 12] = [
    ("table1", "bench.table1", || {
        e::e1_branch_schemes::run_with(1, &ResultStore::disabled()).report_rows()
    }),
    ("icache", "bench.icache", || {
        e::e2_icache_fetch::run().report_rows()
    }),
    ("orgs", "bench.orgs", || {
        e::e3_icache_orgs::run_with(1, &ResultStore::disabled()).report_rows()
    }),
    ("quickcmp", "bench.quickcmp", || {
        e::e4_quick_compare::run().report_rows()
    }),
    ("reorg", "bench.reorg", || {
        e::e5_reorganizer::run().report_rows()
    }),
    ("fsm", "bench.fsm", || e::e6_fsms::run().report_rows()),
    ("cpi", "bench.cpi", || e::e7_cpi::run().report_rows()),
    ("coproc", "bench.coproc", || {
        e::e8_coproc::run().report_rows()
    }),
    ("vax", "bench.vax", || e::e9_vax::run().report_rows()),
    ("btb", "bench.btb", || e::e10_btb::run().report_rows()),
    ("ecache", "bench.ecache", || {
        e::e11_ecache::run_with(1, &ResultStore::disabled()).report_rows()
    }),
    ("subblock", "bench.subblock", || {
        e::e12_subblock::run_with(1, &ResultStore::disabled()).report_rows()
    }),
];

/// The sweep specs behind the sweep-backed experiments (E1, E3, E11, E12).
pub fn paper_specs() -> Vec<SweepSpec> {
    vec![
        e::e1_branch_schemes::sweep_spec(),
        e::e3_icache_orgs::sweep_spec(),
        e::e11_ecache::sweep_spec(),
        e::e12_subblock::sweep_spec(),
    ]
}

/// A prepared workload: what every pass of it needs.
pub struct Setup {
    pub kind: Kind,
    pub spec: SweepSpec,
    /// `spec` split into the segments a pass runs, in expansion order.
    pub segments: Vec<SweepSpec>,
    /// The store `warm_rerun` reads, filled during set-up.
    pub store_dir: Option<PathBuf>,
    /// The store-filling (cold) sweep `warm_rerun` is checked against.
    pub cold: Option<SweepOutcome>,
    /// `paper` only: the guest cycles one pass simulates in the programs
    /// of its sweep-backed experiments (the others do not report cycles).
    pub guest_cycles: u64,
}

/// Set a workload up: build the spec from the seed and validate every
/// input by generating, preparing and running it once at the spec's base
/// point. `paper` instead counts the guest cycles of its sweep-backed
/// experiments; `warm_rerun` fills a fresh store under `scratch`.
pub fn setup(kind: Kind, seed: u64, scratch: &Path, tally: &mut Tally) -> Setup {
    let spec = build_spec(kind, &workload_ids(kind, seed), tally);
    let mut out = Setup {
        kind,
        segments: segments(&spec),
        spec,
        store_dir: None,
        cold: None,
        guest_cycles: 0,
    };
    let mut sweep = |spec: &SweepSpec, opts: &SweepOptions, what: &str| match run_sweep(spec, opts)
    {
        Ok(o) => {
            tally.add(o.rows.len() as u64, o.failed_count() as u64);
            Some(o)
        }
        Err(err) => {
            tally.fail(&format!("{what}: {err}"));
            None
        }
    };
    match kind {
        Kind::Paper => {
            for spec in paper_specs() {
                if let Some(o) = sweep(&spec, &SweepOptions::default(), "paper guest cycles") {
                    out.guest_cycles += o.rows.iter().map(|r| r.result.cycles).sum::<u64>();
                }
            }
        }
        Kind::SchedSweep | Kind::HwSweep => {
            let mut base = out.spec.clone();
            base.grid = Grid::Axes(Vec::new());
            sweep(&base, &SweepOptions::default(), "input validation");
        }
        Kind::WarmRerun => {
            let dir = fresh_dir(scratch, "warm-store");
            let opts = SweepOptions {
                store: ResultStore::at(&dir),
                ..SweepOptions::default()
            };
            out.cold = sweep(&out.spec, &opts, "warm_rerun store fill");
            out.store_dir = Some(dir);
        }
    }
    out
}

/// Split a sweep spec's grid into specs of at most `SEGMENT_POINTS`
/// explicit points each, in expansion order, so that the segments' rows
/// concatenated are the rows of the whole spec. A spec that does not
/// expand stays whole, for `run_sweep` to report its error.
pub fn segments(spec: &SweepSpec) -> Vec<SweepSpec> {
    let Ok(jobs) = spec.expand() else {
        return vec![spec.clone()];
    };
    let mut points: Vec<(String, SimPoint)> = Vec::new();
    for job in jobs {
        if points.len() == job.point_index {
            points.push((job.point_label, job.point));
        }
    }
    if points.len() <= SEGMENT_POINTS {
        return vec![spec.clone()];
    }
    points
        .chunks(SEGMENT_POINTS)
        .map(|chunk| SweepSpec {
            grid: Grid::Points(chunk.to_vec()),
            ..spec.clone()
        })
        .collect()
}

/// A new, empty directory under `scratch`.
pub fn fresh_dir(scratch: &Path, tag: &str) -> PathBuf {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = scratch.join(format!("{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// What one pass produced.
pub struct Pass {
    /// The pass's wall at nominal host speed: the sum of its segments'
    /// walls, each scaled by the reference kernel around it.
    pub wall_s: f64,
    /// The pass's wall on the host, reference kernel runs excluded.
    pub raw_wall_s: f64,
    /// Per-job walls at nominal host speed (sweep rows, or experiments on
    /// `paper`), each scaled as its segment.
    pub job_ms: Vec<f64>,
    /// Guest cycles the pass simulated or served.
    pub guest_cycles: u64,
    /// The deterministic outputs, one entry per operation.
    pub out: Outputs,
    /// The sweep outcome (sweep kinds).
    pub outcome: Option<SweepOutcome>,
    /// Paper rows (paper kind), for `paper_rel_err`.
    pub rows: Vec<Row>,
}

/// Run one pass, timing each experiment (`paper`) or each segment's
/// sweep call with `clock`. `tele` is live only in a traced run;
/// `on_span` receives the interval of each such call.
pub fn run_pass(
    setup: &Setup,
    tele: &Telemetry,
    clock: &mut HostClock,
    tally: &mut Tally,
    on_span: &mut dyn FnMut(&'static str, Instant, Instant),
) -> Pass {
    let (mut wall_s, mut raw_wall_s) = (0.0, 0.0);
    match setup.kind {
        Kind::Paper => {
            let mut job_ms = Vec::with_capacity(EXPERIMENTS.len());
            let mut rows = Vec::new();
            let mut ops = Vec::with_capacity(EXPERIMENTS.len());
            for (name, span, run) in EXPERIMENTS {
                // A panicking experiment is a failed operation, not a crash.
                let (exp_rows, t) = clock.time(|| std::panic::catch_unwind(run));
                on_span(span, t.start, t.end);
                job_ms.push(t.nominal_s() * 1e3);
                wall_s += t.nominal_s();
                raw_wall_s += t.raw_s();
                match exp_rows {
                    Ok(exp_rows) => {
                        tally.add(1, 0);
                        ops.push((name.to_owned(), paper_rows_text(&exp_rows)));
                        rows.extend(exp_rows);
                    }
                    Err(_) => {
                        tally.fail(&format!("experiment {name} panicked"));
                        ops.push((name.to_owned(), "panicked".to_owned()));
                    }
                }
            }
            Pass {
                wall_s,
                raw_wall_s,
                job_ms,
                guest_cycles: setup.guest_cycles,
                out: Outputs::new(ops),
                outcome: None,
                rows,
            }
        }
        kind => {
            // Only `warm_rerun` times a store. A cold store would put a
            // file creation per job in `sched_sweep`'s passes, and on the
            // reference host the cost of creating files grows with every
            // file created on the disk, tenfold within a minute of such
            // passes, so the pass times would drift from run to run. The
            // traced run still times store writes on `sched_sweep`.
            let store = match kind {
                Kind::WarmRerun => setup
                    .store_dir
                    .as_ref()
                    .map_or_else(ResultStore::disabled, ResultStore::at),
                _ => ResultStore::disabled(),
            };
            // One image cache for the whole pass, so that the segments
            // share preparation as a single sweep's jobs do.
            let opts = SweepOptions {
                store,
                telemetry: tele.clone(),
                images: ImageCache::new(),
                ..SweepOptions::default()
            };
            let mut job_ms = Vec::new();
            let mut merged: Option<SweepOutcome> = None;
            let mut failed_segment = false;
            for segment in &setup.segments {
                let (result, t) = clock.time(|| run_sweep(segment, &opts));
                on_span("explore.run_sweep", t.start, t.end);
                wall_s += t.nominal_s();
                raw_wall_s += t.raw_s();
                match result {
                    Ok(mut outcome) => {
                        tally.add(outcome.rows.len() as u64, outcome.failed_count() as u64);
                        job_ms.extend(
                            outcome
                                .rows
                                .iter()
                                .map(|r| r.wall_ns as f64 / 1e6 * t.scale),
                        );
                        match merged.as_mut() {
                            None => merged = Some(outcome),
                            Some(all) => {
                                let offset = all.rows.last().map_or(0, |r| r.point_index + 1);
                                for row in &mut outcome.rows {
                                    row.point_index += offset;
                                }
                                all.rows.append(&mut outcome.rows);
                                all.cache_hits += outcome.cache_hits;
                                all.wall += outcome.wall;
                            }
                        }
                    }
                    Err(err) => {
                        let jobs = segment.expand().map_or(1, |j| j.len() as u64);
                        tally.add(jobs, jobs);
                        eprintln!("perfbench: failure: sweep: {err}");
                        failed_segment = true;
                    }
                }
            }
            // A pass with a failed segment has already counted its failure;
            // it reports no outputs, so the checks skip it.
            let outcome = merged.filter(|_| !failed_segment);
            Pass {
                wall_s,
                raw_wall_s,
                guest_cycles: outcome
                    .as_ref()
                    .map_or(0, |o| o.rows.iter().map(|r| r.result.cycles).sum()),
                out: outcome
                    .as_ref()
                    .map_or_else(|| Outputs::new(Vec::new()), sweep_outputs),
                job_ms,
                outcome,
                rows: Vec::new(),
            }
        }
    }
}

/// `label<TAB>measured` lines, the measured value in round-trip form.
fn paper_rows_text(rows: &[Row]) -> String {
    rows.iter()
        .map(|r| format!("{}\t{:?}\n", r.label, r.measured))
        .collect()
}

/// Mean abs(measured − paper)/abs(paper) over the rows with a paper value.
pub fn paper_rel_err(rows: &[Row]) -> f64 {
    let errs: Vec<f64> = rows
        .iter()
        .filter_map(|r| r.paper.map(|p| ((r.measured - p) / p).abs()))
        .collect();
    if errs.is_empty() {
        0.0
    } else {
        errs.iter().sum::<f64>() / errs.len() as f64
    }
}

/// A row's deterministic content (everything `to_json` renders).
fn row_text(row: &SweepRow) -> String {
    format!(
        "{}|{}|{:?}|{}|{}|{:?}|{}",
        row.point_label,
        row.workload,
        row.fault,
        row.key,
        row.cached,
        row.failed,
        row.result.to_record()
    )
}

fn sweep_outputs(outcome: &SweepOutcome) -> Outputs {
    let mut out = Outputs::new(
        outcome
            .rows
            .iter()
            .map(|r| (format!("{} | {}", r.point_label, r.workload), row_text(r)))
            .collect(),
    );
    // The whole-report digest is the one `mipsx sweep --json` output hashes to.
    out.report = digest(&outcome.to_json());
    out
}

/// Deterministic outputs of a pass: a digest per operation plus one over
/// the whole report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outputs {
    pub report: String,
    /// `(description, digest)` per operation.
    pub ops: Vec<(String, String)>,
}

impl Outputs {
    fn new(ops: Vec<(String, String)>) -> Outputs {
        let report = digest(&ops.iter().map(|(_, t)| t.as_str()).collect::<String>());
        Outputs {
            report,
            ops: ops.into_iter().map(|(d, t)| (d, digest(&t))).collect(),
        }
    }

    /// The reference-file form: `report <digest>`, then one
    /// `<digest><TAB><description>` line per operation.
    pub fn to_text(&self) -> String {
        let mut s = format!("report {}\n", self.report);
        for (desc, d) in &self.ops {
            s.push_str(&format!("{d}\t{desc}\n"));
        }
        s
    }

    pub fn parse(text: &str) -> Option<Outputs> {
        let mut lines = text.lines();
        let report = lines.next()?.strip_prefix("report ")?.to_owned();
        let ops = lines
            .map(|l| {
                l.split_once('\t')
                    .map(|(d, desc)| (desc.to_owned(), d.to_owned()))
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Outputs { report, ops })
    }

    /// How many operations of `self` differ from `expected` (a missing or
    /// extra operation counts too; a report-only difference counts once).
    pub fn mismatches(&self, expected: &Outputs) -> u64 {
        let differing = self
            .ops
            .iter()
            .zip(&expected.ops)
            .filter(|(a, b)| a.1 != b.1)
            .count()
            + self.ops.len().abs_diff(expected.ops.len());
        if differing == 0 && self.report != expected.report {
            1
        } else {
            differing as u64
        }
    }
}

/// Checks every pass of a run against the expected outputs: the stored
/// reference for the default seed, else the run's first pass.
pub struct Checker {
    kind: Kind,
    expected: Option<Outputs>,
}

impl Checker {
    pub fn new(kind: Kind, seed: u64) -> Checker {
        let expected = (seed == DEFAULT_SEED)
            .then(|| Outputs::parse(kind.reference()))
            .flatten();
        Checker { kind, expected }
    }

    /// Check one pass, counting every mismatching operation as failed.
    pub fn check(&mut self, pass: &Pass, setup: &Setup, tally: &mut Tally) {
        if pass.out.ops.is_empty() {
            return; // the pass already counted its failure
        }
        let expected = self.expected.get_or_insert_with(|| pass.out.clone());
        let bad = pass.out.mismatches(expected);
        if bad > 0 {
            eprintln!(
                "perfbench: failure: {} output differs from the expected one in {bad} operation(s)",
                self.kind.name()
            );
            tally.add(0, bad);
        }
        if let (Some(warm), Some(cold)) = (&pass.outcome, &setup.cold) {
            let bad = warm_mismatches(warm, cold);
            if bad > 0 {
                eprintln!(
                    "perfbench: failure: {bad} warm row(s) not cached or not equal to the cold run"
                );
                tally.add(0, bad);
            }
        }
    }

    /// The store-backed sweeps: rerun on two workers (into a fresh store,
    /// or against the filled one) and compare byte for byte with the
    /// expected serial output.
    pub fn check_threads(&mut self, setup: &Setup, scratch: &Path, tally: &mut Tally) {
        let fresh = match self.kind {
            Kind::SchedSweep => Some(fresh_dir(scratch, "parallel-store")),
            Kind::WarmRerun => None,
            Kind::Paper | Kind::HwSweep => return,
        };
        let Some(dir) = fresh.as_ref().or(setup.store_dir.as_ref()) else {
            return;
        };
        let opts = SweepOptions {
            threads: SWEEP_THREADS,
            store: ResultStore::at(dir),
            ..SweepOptions::default()
        };
        let result = run_sweep(&setup.spec, &opts);
        if let Some(dir) = fresh {
            let _ = std::fs::remove_dir_all(dir);
        }
        match (result, &self.expected) {
            (Ok(parallel), Some(expected)) => {
                let out = sweep_outputs(&parallel);
                tally.add(out.ops.len() as u64, 0);
                let bad = out.mismatches(expected);
                if bad > 0 {
                    eprintln!(
                        "perfbench: failure: serial and 2-worker reports differ in {bad} row(s)"
                    );
                    tally.add(0, bad);
                }
            }
            (Ok(_), None) => {}
            (Err(err), _) => tally.fail(&format!("2-worker sweep: {err}")),
        }
    }
}

/// Rows of a warm pass that were not served from the store, or whose key
/// or counters differ from the cold run's.
pub fn warm_mismatches(warm: &SweepOutcome, cold: &SweepOutcome) -> u64 {
    let differing = warm
        .rows
        .iter()
        .zip(&cold.rows)
        .filter(|(w, c)| !w.cached || w.key != c.key || w.result != c.result)
        .count();
    (differing + warm.rows.len().abs_diff(cold.rows.len())) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use mipsx_explore::JobResult;

    fn row(cached: bool, failed: Option<&str>, cycles: u64) -> SweepRow {
        SweepRow {
            point_index: 0,
            point_label: "base".into(),
            workload: "kernel:sum_to_n".into(),
            fault: None,
            key: "00000000000000aa".into(),
            cached,
            result: JobResult {
                cycles,
                ..JobResult::default()
            },
            wall_ns: 1,
            failed: failed.map(str::to_owned),
        }
    }

    fn outcome(rows: Vec<SweepRow>) -> SweepOutcome {
        SweepOutcome {
            cache_hits: rows.iter().filter(|r| r.cached).count(),
            rows,
            wall: std::time::Duration::ZERO,
        }
    }

    #[test]
    fn derived_seeds_avoid_the_calibration_seeds() {
        for seed in [DEFAULT_SEED, 0, 2, 3, 42, u64::MAX] {
            for i in 0..200 {
                let s = derive_seed(seed, i);
                assert!(!SEEDS.contains(&s) && (1..=999_999).contains(&s));
            }
        }
        assert_eq!(derive_seed(7, 3), derive_seed(7, 3));
        assert_ne!(
            workload_ids(Kind::SchedSweep, 1),
            workload_ids(Kind::SchedSweep, 2)
        );
        assert_eq!(
            workload_ids(Kind::HwSweep, 1),
            workload_ids(Kind::HwSweep, 2)
        );
    }

    #[test]
    fn unparseable_workload_is_counted_not_fatal() {
        let mut tally = Tally::default();
        let ids = vec!["synth:pascal:x".to_owned(), "kernel:sum_to_n".to_owned()];
        let spec = build_spec(Kind::HwSweep, &ids, &mut tally);
        assert_eq!(
            tally,
            Tally {
                attempted: 1,
                failed: 1
            }
        );
        assert_eq!(spec.workloads.len(), 1);
    }

    #[test]
    fn quarantined_rows_count_as_failed() {
        let o = outcome(vec![row(false, None, 5), row(false, Some("boom"), 0)]);
        let mut tally = Tally::default();
        tally.add(o.rows.len() as u64, o.failed_count() as u64);
        assert_eq!(
            tally,
            Tally {
                attempted: 2,
                failed: 1
            }
        );
    }

    #[test]
    fn output_mismatches_count_per_operation() {
        let good = sweep_outputs(&outcome(vec![row(false, None, 5), row(false, None, 6)]));
        let one_bad = sweep_outputs(&outcome(vec![row(false, None, 5), row(false, None, 7)]));
        let short = sweep_outputs(&outcome(vec![row(false, None, 5)]));
        assert_eq!(good.mismatches(&good), 0);
        assert_eq!(one_bad.mismatches(&good), 1);
        assert_eq!(short.mismatches(&good), 1);
        assert_eq!(Outputs::parse(&good.to_text()), Some(good));
        assert_eq!(Outputs::parse("garbage"), None);
    }

    #[test]
    fn warm_rows_must_be_cached_and_equal() {
        let cold = outcome(vec![row(false, None, 5), row(false, None, 6)]);
        let warm = outcome(vec![row(true, None, 5), row(true, None, 6)]);
        assert_eq!(warm_mismatches(&warm, &cold), 0);
        let stale = outcome(vec![row(false, None, 5), row(true, None, 9)]);
        assert_eq!(warm_mismatches(&stale, &cold), 2);
    }

    #[test]
    fn paper_rel_err_averages_rows_with_a_paper_value() {
        let rows = vec![
            Row {
                label: "a".into(),
                paper: Some(2.0),
                measured: 1.0,
            },
            Row {
                label: "b".into(),
                paper: None,
                measured: 9.0,
            },
            Row {
                label: "c".into(),
                paper: Some(1.0),
                measured: 1.0,
            },
        ];
        assert!((paper_rel_err(&rows) - 0.25).abs() < 1e-12);
    }
}
