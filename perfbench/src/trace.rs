//! The traced run: in-memory spans recorded around calls into each crate,
//! self times, and the per-layer metrics built from them.
//!
//! Spans are recorded only from the benchmark's own code. The layer
//! replay re-does one pass's jobs by calling each crate's public
//! functions directly (the workloads generators, the reorganizer, the
//! verifier, the block-engine compiler, machine construction, the
//! stepper, the trace-driven Icache, the store and the job key), checks
//! that every result equals the sweep's own row, and times each call.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

use mipsx_asm::Program;
use mipsx_core::{InterlockPolicy, Machine, SimConfig};
use mipsx_engine::BlockEngine;
use mipsx_exec::{BlockBackend, ExecBackend, Stepper};
use mipsx_explore::key::fnv1a_words;
use mipsx_explore::{canonical_cfg, job_key, JobResult, ResultStore, Snapshot, SweepSpec};
use mipsx_mem::Icache;
use mipsx_reorg::{BranchScheme, Reorganizer, ScheduleReport};
use mipsx_verify::{TimingAnalysis, VerifyConfig};

use crate::stats::{median, Metric};
use crate::work::{generate_input, Input, Tally, EXPERIMENTS};

/// One recorded span. Spans of one job share `job` (0 = not in a job).
#[derive(Clone, Debug, PartialEq)]
pub struct SpanRec {
    pub name: &'static str,
    pub job: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept in memory until the run ends; a span's id is its index.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<SpanRec>,
    stack: Vec<usize>,
    job: u64,
    jobs: u64,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            job: 0,
            jobs: 0,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(SpanRec {
            name,
            job: self.job,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        id
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Record an interval measured elsewhere as a child of the open span.
    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(SpanRec {
            name,
            job: self.job,
            parent: self.stack.last().copied(),
            start_ns,
            end_ns,
        });
    }

    /// Open a job's root span under a fresh job id.
    fn open_job(&mut self) -> usize {
        self.jobs += 1;
        self.job = self.jobs;
        self.open("job")
    }

    fn close_job(&mut self, id: usize) {
        self.close(id);
        self.job = 0;
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path, self_ns: &[u64]) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{id},\"job\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.job,
                s.name,
                s.parent.map_or("null".to_owned(), |p| p.to_string()),
                s.start_ns,
                s.end_ns,
                self_ns[id]
            )?;
        }
        out.flush()
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once).
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Work counted during one layer replay.
#[derive(Clone, Debug, Default)]
pub struct Work {
    /// Image words the reorganizer emitted.
    words: u64,
    /// Counters of every job simulated on the stepper or the trace cache.
    simulated: JobResult,
    trace_accesses: u64,
    block_cycles: u64,
    fast_cycles: u64,
    fallback_runs: u64,
}

/// One prepared (workload, scheme) image of the replay.
struct Image {
    digest: u64,
    program: Option<(Program, ScheduleReport)>,
}

/// Replay one pass of `spec`'s jobs layer by layer. `store` mirrors the
/// sweep's store (read before simulating, write after); `block` also runs
/// every program job on the block engine. Results are checked against
/// `expected` (the sweep's rows, in job order) when given.
pub fn replay(
    spec: &SweepSpec,
    store: Option<&ResultStore>,
    block: bool,
    expected: Option<&[JobResult]>,
    rec: &mut Recorder,
    work: &mut Work,
    tally: &mut Tally,
) {
    let jobs = match spec.expand() {
        Ok(jobs) => jobs,
        Err(err) => return tally.fail(&format!("replay spec: {err}")),
    };
    let mut inputs: HashMap<String, Input> = HashMap::new();
    let mut images: HashMap<(String, Option<BranchScheme>), Image> = HashMap::new();
    let mut templates: HashMap<(String, Option<BranchScheme>, String), BlockEngine> =
        HashMap::new();
    let mut machine: Option<Machine> = None;
    let mut block_machine: Option<Machine> = None;
    for job in &jobs {
        tally.add(1, 0);
        let job_span = rec.open_job();
        let id = job.workload.id();
        if !inputs.contains_key(&id) {
            match rec.time("workloads.generate", || generate_input(&job.workload)) {
                Ok(input) => {
                    inputs.insert(id.clone(), input);
                }
                Err(err) => {
                    tally.add(0, 1);
                    eprintln!("perfbench: failure: replay {id}: {err}");
                    rec.close_job(job_span);
                    continue;
                }
            }
        }
        let input = &inputs[&id];
        let image_key = match input {
            Input::Trace(_) => (id.clone(), None),
            Input::Raw(_) => (id.clone(), Some(job.point.scheme)),
        };
        if !images.contains_key(&image_key) {
            let image = match input {
                Input::Trace(addrs) => Image {
                    digest: fnv1a_words(addrs.iter().copied()),
                    program: None,
                },
                Input::Raw(raw) => {
                    let reorg = Reorganizer::new(job.point.scheme);
                    let Ok((program, report)) =
                        rec.time("reorg.reorganize", || reorg.reorganize(raw))
                    else {
                        tally.add(0, 1);
                        eprintln!("perfbench: failure: replay {id}: reorganize failed");
                        rec.close_job(job_span);
                        continue;
                    };
                    work.words += program.words.len() as u64;
                    let cfg = VerifyConfig::for_slots(job.point.scheme.slots);
                    rec.time("verify.verify", || reorg.verify_schedule(&program));
                    rec.time("verify.quality", || reorg.quality_report(&program));
                    rec.time("verify.timing", || TimingAnalysis::of(&program, &cfg));
                    Image {
                        digest: fnv1a_words(
                            [program.origin, program.entry]
                                .into_iter()
                                .chain(program.words.iter().copied()),
                        ),
                        program: Some((program, report)),
                    }
                }
            };
            images.insert(image_key.clone(), image);
        }
        let image = &images[&image_key];
        let key = rec.time("explore.key", || {
            job_key(
                &job.point,
                &id,
                image.digest,
                job.fault.as_deref(),
                spec.run_cycles,
            )
        });
        let cached = store.and_then(|s| rec.time("explore.store_read", || s.load(key)));
        let result = match (cached, input, &image.program) {
            (Some(result), _, _) => result,
            (None, Input::Trace(addrs), _) => {
                let mut cache = Icache::new(job.point.cfg.icache);
                let trace = rec.time("mem.simulate_trace", || {
                    cache.simulate_trace(addrs.iter().copied())
                });
                work.trace_accesses += trace.stats.accesses;
                let result = JobResult {
                    icache_accesses: trace.stats.accesses,
                    icache_misses: trace.stats.misses,
                    icache_fill_stalls: trace.stats.stall_cycles,
                    ..JobResult::default()
                };
                work.simulated.merge(&result);
                result
            }
            (None, Input::Raw(_), Some((program, report))) => {
                let cfg = SimConfig {
                    interlock: InterlockPolicy::Detect,
                    ..job.point.cfg
                };
                let mut m = match machine.take() {
                    Some(mut m) => {
                        rec.time("core.reset", || m.reset_with(cfg));
                        m
                    }
                    None => rec.time("core.construct", || Machine::new(cfg)),
                };
                rec.time("core.load", || m.load_program(program));
                let stats = match rec.time("exec.run", || Stepper.run(&mut m, spec.run_cycles)) {
                    Ok(stats) => stats,
                    Err(err) => {
                        tally.add(0, 1);
                        eprintln!("perfbench: failure: replay {id}: run failed: {err}");
                        machine = Some(m);
                        rec.close_job(job_span);
                        continue;
                    }
                };
                let (ic, ec) = (m.icache().stats(), m.ecache().stats());
                let result = JobResult {
                    cycles: stats.cycles,
                    instructions: stats.instructions,
                    squashed: stats.squashed,
                    nops: stats.nops,
                    branches: stats.branches,
                    branches_taken: stats.branches_taken,
                    branch_slot_nops: stats.branch_slot_nops,
                    branch_slot_squashed: stats.branch_slot_squashed,
                    loads: stats.loads,
                    stores: stats.stores,
                    exceptions: stats.exceptions,
                    icache_stall_cycles: stats.icache_stall_cycles,
                    ecache_stall_cycles: stats.ecache_stall_cycles,
                    icache_accesses: ic.accesses,
                    icache_misses: ic.misses,
                    icache_fill_stalls: ic.stall_cycles,
                    ecache_accesses: ec.accesses,
                    ecache_misses: ec.misses,
                    sched_branches: report.branches as u64,
                    sched_squashing: report.squashing_branches as u64,
                    sched_slot_nops: report.slot_nops as u64,
                    sched_load_nops: report.load_nops as u64,
                };
                machine = Some(m);
                work.simulated.merge(&result);
                if block {
                    let tkey = (image_key.0.clone(), image_key.1, canonical_cfg(&cfg));
                    if !templates.contains_key(&tkey) {
                        let engine = rec.time("engine.compile", || {
                            BlockEngine::from_program(program, &cfg)
                        });
                        templates.insert(tkey.clone(), engine);
                    }
                    let mut backend = BlockBackend::from_engine(templates[&tkey].clone_template());
                    let mut bm = match block_machine.take() {
                        Some(mut bm) => {
                            bm.reset_with(cfg);
                            bm
                        }
                        None => Machine::new(cfg),
                    };
                    bm.load_program(program);
                    let run =
                        rec.time("engine.block_run", || backend.run(&mut bm, spec.run_cycles));
                    if !matches!(&run, Ok(s) if s.cycles == stats.cycles) {
                        tally.add(0, 1);
                        eprintln!("perfbench: failure: replay {id}: block engine disagrees with the stepper");
                    }
                    if let Some(es) = backend.engine_stats() {
                        work.block_cycles += stats.cycles;
                        work.fast_cycles += es.fast_cycles;
                        work.fallback_runs += u64::from(es.total_fallbacks() > 0);
                    }
                    block_machine = Some(bm);
                }
                result
            }
            (None, Input::Raw(_), None) => unreachable!("raw inputs always prepare a program"),
        };
        if cached.is_none() {
            if let Some(s) = store {
                let label = format!("{} | {id}", job.point_label);
                rec.time("explore.store_write", || s.save(key, &result, &label));
            }
        }
        if let Some(exp) = expected {
            if exp.get(job.index) != Some(&result) {
                tally.add(0, 1);
                eprintln!("perfbench: failure: replay {id}: result differs from the sweep row");
            }
        }
        rec.close_job(job_span);
    }
}

/// What one traced iteration measured.
pub struct Iteration {
    /// Wall of the untraced pass.
    pub untraced_s: f64,
    /// Wall of the traced pass (program telemetry on).
    pub traced_s: f64,
    /// The traced pass's spans.
    pub pass_spans: Range<usize>,
    /// The program's telemetry for the traced pass.
    pub snapshot: Snapshot,
    /// The layer replay's spans and work.
    pub replay_spans: Range<usize>,
    pub work: Work,
}

/// Every per-layer metric, in output order.
pub const LAYER_METRICS: [(&str, &str); 56] = [
    ("workloads.generate_ms", "ms"),
    ("workloads.programs", "count"),
    ("reorg.reorganize_ms", "ms"),
    ("reorg.us_per_word", "us"),
    ("reorg.images", "count"),
    ("verify.verify_ms", "ms"),
    ("verify.quality_ms", "ms"),
    ("verify.timing_ms", "ms"),
    ("engine.compile_ms", "ms"),
    ("engine.block_run_ms", "ms"),
    ("engine.block_runs", "count"),
    ("engine.fast_cycle_share", "ratio"),
    ("engine.fallback_runs", "count"),
    ("core.construct_us", "us"),
    ("core.reset_us", "us"),
    ("core.load_us", "us"),
    ("exec.run_ms", "ms"),
    ("exec.runs", "count"),
    ("core.mcycles_per_s", "Mcycles/s"),
    ("core.guest_cycles", "cycles"),
    ("core.cpi", "ratio"),
    ("core.icache_stall_cycles", "cycles"),
    ("core.ecache_stall_cycles", "cycles"),
    ("mem.icache_miss_ratio", "ratio"),
    ("mem.ecache_miss_ratio", "ratio"),
    ("mem.trace_maccesses_per_s", "Maccesses/s"),
    ("explore.key_us", "us"),
    ("explore.store_read_us", "us"),
    ("explore.store_reads", "count"),
    ("explore.store_write_us", "us"),
    ("explore.store_writes", "count"),
    ("explore.image_hits", "count"),
    ("explore.image_misses", "count"),
    ("explore.pool_busy_ms", "ms"),
    ("explore.pool_idle_ms", "ms"),
    ("explore.quarantined", "count"),
    ("explore.sweep_self_ms", "ms"),
    ("telemetry.job_ms", "ms"),
    ("telemetry.job_reorganize_ms", "ms"),
    ("telemetry.job_run_ms", "ms"),
    ("bench.table1_ms", "ms"),
    ("bench.icache_ms", "ms"),
    ("bench.orgs_ms", "ms"),
    ("bench.quickcmp_ms", "ms"),
    ("bench.reorg_ms", "ms"),
    ("bench.fsm_ms", "ms"),
    ("bench.cpi_ms", "ms"),
    ("bench.coproc_ms", "ms"),
    ("bench.vax_ms", "ms"),
    ("bench.btb_ms", "ms"),
    ("bench.ecache_ms", "ms"),
    ("bench.subblock_ms", "ms"),
    ("replay.job_self_ms", "ms"),
    ("trace_overhead_frac", "ratio"),
    ("failed_frac", "ratio"),
    ("paper_rel_err", "ratio"),
];

/// Sum of self time (ns) and count of spans per name over `range`.
fn by_name(
    rec: &Recorder,
    self_ns: &[u64],
    range: Range<usize>,
) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for id in range {
        let e = out.entry(rec.spans[id].name).or_default();
        e.0 += self_ns[id];
        e.1 += 1;
    }
    out
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One iteration's per-layer values, keyed by metric name.
fn iteration_values(
    it: &Iteration,
    rec: &Recorder,
    self_ns: &[u64],
) -> BTreeMap<&'static str, f64> {
    let spans = by_name(rec, self_ns, it.replay_spans.clone());
    let total_ms = |name: &str| spans.get(name).map_or(0.0, |e| e.0 as f64 / 1e6);
    let count = |name: &str| spans.get(name).map_or(0.0, |e| e.1 as f64);
    let mean_us = |name: &str| {
        spans
            .get(name)
            .map_or(0.0, |e| ratio(e.0 as f64 / 1e3, e.1 as f64))
    };
    let w = &it.work;
    let sim = &w.simulated;
    let mut v: BTreeMap<&'static str, f64> = BTreeMap::new();
    v.insert("workloads.generate_ms", total_ms("workloads.generate"));
    v.insert("workloads.programs", count("workloads.generate"));
    v.insert("reorg.reorganize_ms", total_ms("reorg.reorganize"));
    v.insert(
        "reorg.us_per_word",
        ratio(total_ms("reorg.reorganize") * 1e3, w.words as f64),
    );
    v.insert("reorg.images", count("reorg.reorganize"));
    v.insert("verify.verify_ms", total_ms("verify.verify"));
    v.insert("verify.quality_ms", total_ms("verify.quality"));
    v.insert("verify.timing_ms", total_ms("verify.timing"));
    v.insert("engine.compile_ms", total_ms("engine.compile"));
    v.insert("engine.block_run_ms", total_ms("engine.block_run"));
    v.insert("engine.block_runs", count("engine.block_run"));
    v.insert(
        "engine.fast_cycle_share",
        ratio(w.fast_cycles as f64, w.block_cycles as f64),
    );
    v.insert("engine.fallback_runs", w.fallback_runs as f64);
    v.insert("core.construct_us", mean_us("core.construct"));
    v.insert("core.reset_us", mean_us("core.reset"));
    v.insert("core.load_us", mean_us("core.load"));
    v.insert("exec.run_ms", total_ms("exec.run"));
    v.insert("exec.runs", count("exec.run"));
    v.insert(
        "core.mcycles_per_s",
        ratio(sim.cycles as f64 / 1e3, total_ms("exec.run")),
    );
    v.insert("core.guest_cycles", sim.cycles as f64);
    v.insert("core.cpi", if sim.cycles == 0 { 0.0 } else { sim.cpi() });
    v.insert("core.icache_stall_cycles", sim.icache_stall_cycles as f64);
    v.insert("core.ecache_stall_cycles", sim.ecache_stall_cycles as f64);
    v.insert("mem.icache_miss_ratio", sim.icache_miss_ratio());
    v.insert("mem.ecache_miss_ratio", sim.ecache_miss_ratio());
    v.insert(
        "mem.trace_maccesses_per_s",
        ratio(
            w.trace_accesses as f64 / 1e3,
            total_ms("mem.simulate_trace"),
        ),
    );
    v.insert("explore.key_us", mean_us("explore.key"));
    v.insert("explore.store_read_us", mean_us("explore.store_read"));
    v.insert("explore.store_reads", count("explore.store_read"));
    v.insert("explore.store_write_us", mean_us("explore.store_write"));
    v.insert("explore.store_writes", count("explore.store_write"));
    v.insert("replay.job_self_ms", total_ms("job"));

    let snap = &it.snapshot;
    let timing = |name: &str| snap.timing_counters.get(name).copied().unwrap_or(0) as f64;
    let busy_ms = timing("pool.busy_ns") / 1e6;
    v.insert("explore.image_hits", snap.counter("image.hits") as f64);
    v.insert("explore.image_misses", snap.counter("image.misses") as f64);
    v.insert("explore.pool_busy_ms", busy_ms);
    v.insert("explore.pool_idle_ms", timing("pool.idle_ns") / 1e6);
    v.insert(
        "explore.quarantined",
        snap.counter("pool.quarantined") as f64,
    );
    v.insert("telemetry.job_ms", snap.span_total_ns("job") as f64 / 1e6);
    v.insert(
        "telemetry.job_reorganize_ms",
        snap.span_total_ns("job/reorganize") as f64 / 1e6,
    );
    v.insert(
        "telemetry.job_run_ms",
        snap.span_total_ns("job/run") as f64 / 1e6,
    );

    let pass = by_name(rec, self_ns, it.pass_spans.clone());
    if let Some(&(ns, _)) = pass.get("explore.run_sweep") {
        // The serial sweep's wall spent outside jobs: expansion and
        // aggregation.
        v.insert(
            "explore.sweep_self_ms",
            (ns as f64 / 1e6 - busy_ms).max(0.0),
        );
    }
    for (_, span, _) in EXPERIMENTS {
        if let (Some(&(ns, _)), Some(metric)) = (pass.get(span), bench_metric(span)) {
            v.insert(metric, ns as f64 / 1e6);
        }
    }
    v
}

/// The per-layer metric of an experiment's span (`bench.x` → `bench.x_ms`).
fn bench_metric(span: &str) -> Option<&'static str> {
    LAYER_METRICS
        .iter()
        .map(|(n, _)| *n)
        .find(|n| n.strip_suffix("_ms") == Some(span))
}

/// The per-layer metrics: the median over iterations of each value, plus
/// the run-wide `trace_overhead_frac`, `failed_frac` and `paper_rel_err`.
pub fn layer_metrics(
    iterations: &[Iteration],
    rec: &Recorder,
    self_ns: &[u64],
    tally: Tally,
    paper_rel_err: f64,
) -> Vec<Metric> {
    let values: Vec<BTreeMap<&'static str, f64>> = iterations
        .iter()
        .map(|it| iteration_values(it, rec, self_ns))
        .collect();
    let untraced = median(&iterations.iter().map(|i| i.untraced_s).collect::<Vec<_>>());
    let traced = median(&iterations.iter().map(|i| i.traced_s).collect::<Vec<_>>());
    LAYER_METRICS
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "trace_overhead_frac" => ratio(traced, untraced) - 1.0,
                "failed_frac" => ratio(tally.failed as f64, tally.attempted as f64),
                "paper_rel_err" => paper_rel_err,
                _ => median(
                    &values
                        .iter()
                        .map(|v| v.get(name).copied().unwrap_or(0.0))
                        .collect::<Vec<_>>(),
                ),
            };
            Metric { name, unit, value }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            name,
            job: 1,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("job", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("b", Some(0), 20, 50),  // overlaps a: 10..50 covered once
            span("c", Some(0), 90, 120), // clipped to the parent's end
            span("d", Some(1), 12, 14),
        ];
        assert_eq!(self_times(&spans), vec![100 - 40 - 10, 18, 30, 30, 2]);
    }

    #[test]
    fn recorder_nests_and_tags_jobs() {
        let mut rec = Recorder::new();
        let job = rec.open_job();
        rec.time("inner", || std::hint::black_box(1 + 1));
        rec.close_job(job);
        rec.time("outer", || ());
        assert_eq!(rec.spans.len(), 3);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[1].job, rec.spans[0].job);
        assert_eq!(rec.spans[2].job, 0);
        assert!(rec.spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn layer_metric_names_are_valid_and_unique() {
        let mut names: Vec<&str> = LAYER_METRICS.iter().map(|(n, _)| *n).collect();
        assert!(names.iter().all(|n| valid_name(n)));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), LAYER_METRICS.len());
        for (name, span, _) in EXPERIMENTS {
            assert_eq!(span, format!("bench.{name}"));
            assert_eq!(bench_metric(span), Some(format!("{span}_ms").as_str()));
        }
    }
}
