//! Shared machinery for running design points across benchmarks.
//!
//! All entry points route through the [`crate::engine`]: design points
//! are simulated once per process and repeats are served from its result
//! cache, and batches run on a work-stealing pool (see
//! [`crate::options::RunOptions`] for the knobs that size it and attach
//! observers).
//!
//! Every simulation goes through one generic `simulate`, instantiated
//! twice: with the zero-cost `Nop*` observers for plain runs, and with
//! `Option<_>` observers for runs carrying any mix of the event tracer,
//! the self-profiler, the cycle accountant and the lifecycle recorder.

use crate::engine::{self, Job};
use lsq_core::LsqConfig;
use lsq_obs::{
    job_path, NopTracer, PipeRecord, PipeviewConfig, Sampler, TraceBuffer, TraceConfig, Tracer,
};
use lsq_pipeline::{
    CycleAccountant, Lifecycle, NopAccountant, NopLifecycle, NopProfiler, PipeviewRecorder,
    Profiler, SimResult, Simulator, SlotAccountant, WallProfiler,
};
use lsq_trace::BenchProfile;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Instruction budget for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunSpec {
    /// Instructions committed before measurement starts (caches,
    /// predictors, and queues warm up; statistics from this phase are
    /// discarded by differencing).
    pub warmup: u64,
    /// Instructions measured.
    pub instrs: u64,
    /// Workload seed.
    pub seed: u64,
}

impl RunSpec {
    /// The experiments' budget: 250 000 measured instructions after a
    /// 100 000-instruction warm-up, workload seed 1. `LSQ_INSTRS`
    /// overrides `instrs` through [`crate::options::RunOptions::spec`].
    pub const DEFAULT: RunSpec = RunSpec {
        warmup: 100_000,
        instrs: 250_000,
        seed: 1,
    };
}

impl Default for RunSpec {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// The observers attached to a simulation. The default attaches none,
/// which runs the zero-cost unobserved simulator.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Observers {
    /// Event ring and windowed sampler:
    /// `LSQ_TRACE=<path>[:events|:chrome|:timeline]`, with
    /// `LSQ_SAMPLE_CYCLES` and `LSQ_TRACE_CAP` (see [`TraceConfig`]).
    pub trace: Option<TraceConfig>,
    /// `LSQ_PROFILE`: the per-phase wall-time self-profiler.
    pub profile: bool,
    /// `LSQ_ACCOUNTING`: the cycle accountant, for a CPI stack.
    pub accounting: bool,
    /// `LSQ_ACCOUNTING_CSV=<path>[:window]`: with `accounting`, also
    /// write the windowed CPI stack as CSV (default window 10 000
    /// cycles; a numeric suffix must be positive, any other is part of
    /// the path).
    pub accounting_csv: Option<(PathBuf, u64)>,
    /// Lifecycle recorder and pipeline-viewer log:
    /// `LSQ_PIPEVIEW=<path>[:konata|:o3]`, with `LSQ_PIPEVIEW_CAP`.
    pub pipeview: Option<PipeviewConfig>,
}

impl Observers {
    /// Which observers are attached: trace, profile, accounting,
    /// pipeview. Results of runs with different sets differ, so the
    /// engine's result cache keys on this.
    pub(crate) fn set(&self) -> [bool; 4] {
        [
            self.trace.is_some(),
            self.profile,
            self.accounting,
            self.pipeview.is_some(),
        ]
    }

    /// Every observer of `self` and of `other`; where both configure
    /// the same sink, `self`'s configuration wins.
    pub(crate) fn union(&self, other: &Observers) -> Observers {
        Observers {
            trace: self.trace.clone().or_else(|| other.trace.clone()),
            profile: self.profile || other.profile,
            accounting: self.accounting || other.accounting,
            accounting_csv: self
                .accounting_csv
                .clone()
                .or_else(|| other.accounting_csv.clone()),
            pipeview: self.pipeview.clone().or_else(|| other.pipeview.clone()),
        }
    }
}

/// The engine job for `bench`.
///
/// # Panics
///
/// Panics if `bench` is not one of the 18 profile names.
fn job_for(bench: &str, lsq: LsqConfig, scaled: bool, spec: RunSpec) -> Job {
    // lsq-lint: allow(no-unwrap-in-lib, reason = "documented # Panics contract: bench must be one of the 18 profile names")
    let profile = BenchProfile::named(bench).unwrap_or_else(|| panic!("unknown benchmark {bench}"));
    Job {
        bench: profile.name,
        lsq,
        scaled,
        spec,
    }
}

/// Runs one `(benchmark, LSQ design point)` pair on the base (or scaled)
/// processor and returns the measured-phase result.
///
/// Served from the engine's result cache when the same design point has
/// already run in this process.
///
/// # Panics
///
/// Panics if `bench` is not one of the 18 profile names.
pub fn run_design_point(bench: &str, lsq: LsqConfig, scaled: bool, spec: RunSpec) -> SimResult {
    engine::global()
        .run_batch(&[job_for(bench, lsq, scaled, spec)])
        .pop()
        // lsq-lint: allow(no-unwrap-in-lib, reason = "run_batch returns exactly one result per submitted job")
        .expect("one job, one result")
}

/// The one simulation core: warm up, snapshot, measure, difference.
/// Generic over the four observers, so a plain run monomorphizes to the
/// unobserved simulator. Returns the measured-window result and the
/// simulator, still holding its observers for the caller to drain.
///
/// The profile covers the whole run (host timing, like `wall_nanos`);
/// the CPI stack is windowed by the diff. A sampler (`sample_window`
/// cycles) is attached before the warm-up, so its windows partition
/// the *whole* run.
fn simulate<T: Tracer, P: Profiler, A: CycleAccountant, L: Lifecycle>(
    job: &Job,
    tracer: T,
    profiler: P,
    acct: A,
    life: L,
    sample_window: Option<u64>,
) -> (SimResult, Simulator<T, P, A, L>) {
    let bench = job.bench;
    // lsq-lint: allow(no-unwrap-in-lib, reason = "documented # Panics contract: bench must be one of the 18 profile names")
    let profile = BenchProfile::named(bench).unwrap_or_else(|| panic!("unknown benchmark {bench}"));
    let mut stream = profile.stream(job.spec.seed);
    let mut sim = Simulator::with_lifecycle(job.sim_config(), tracer, profiler, acct, life);
    if let Some(window) = sample_window {
        sim.set_sampler(window);
    }
    sim.prewarm(&stream.data_regions(), stream.code_region());
    if job.spec.warmup > 0 {
        let _ = sim.run(&mut stream, job.spec.warmup);
    }
    let before = sim.run(&mut stream, 0);
    let after = sim.run(&mut stream, job.spec.instrs);
    (diff_results(&before, &after), sim)
}

/// An observed run: the measured-phase result plus, when tracing, the
/// captured event ring and the flushed windowed sampler.
#[derive(Debug)]
pub struct Observed {
    /// The measured-phase result.
    pub result: SimResult,
    /// The event ring, when a trace was attached.
    pub trace: Option<TraceBuffer>,
    /// The windowed sampler, when the trace asked for one.
    pub sampler: Option<Sampler>,
}

/// Runs one `(benchmark, LSQ design point)` pair, uncached, with
/// `observers` attached. The CPI-stack CSV and the pipeline-viewer log
/// are written here (parallel jobs get a `.N` suffix); the trace ring
/// and sampler are returned for the caller to inspect or write.
///
/// # Panics
///
/// Panics if `bench` is not one of the 18 profile names.
pub fn run_observed(
    bench: &str,
    lsq: LsqConfig,
    scaled: bool,
    spec: RunSpec,
    observers: &Observers,
) -> Observed {
    let job = &job_for(bench, lsq, scaled, spec);
    static PIPEVIEW_JOBS: AtomicU64 = AtomicU64::new(0);
    static ACCT_CSV_JOBS: AtomicU64 = AtomicU64::new(0);
    let trace = observers.trace.as_ref();
    let tracer = trace.map(|t| TraceBuffer::with_capacity(t.capacity));
    let profiler = observers.profile.then(WallProfiler::new);
    let acct = observers
        .accounting
        .then(|| match &observers.accounting_csv {
            Some((_, window)) => SlotAccountant::with_sampler(*window),
            None => SlotAccountant::new(),
        });
    let pipeview = observers
        .pipeview
        .as_ref()
        .map(|pv| pv.for_job(PIPEVIEW_JOBS.fetch_add(1, Ordering::Relaxed)));
    let life = pipeview
        .as_ref()
        .map(|pv| PipeviewRecorder::new(pv.capacity));
    let window = trace.and_then(TraceConfig::effective_sample_cycles);
    let (result, mut sim) = simulate(job, tracer, profiler, acct, life, window);

    if let (Some((path, _)), Some(cpi)) = (&observers.accounting_csv, sim.take_cpi_sampler()) {
        let path = job_path(path, ACCT_CSV_JOBS.fetch_add(1, Ordering::Relaxed));
        match std::fs::write(&path, cpi.to_csv()) {
            Ok(()) => eprintln!("cpi-stack csv: {bench} -> {}", path.display()),
            Err(e) => eprintln!(
                "warning: could not write LSQ_ACCOUNTING_CSV={}: {e}",
                path.display()
            ),
        }
    }
    let dropped = sim.pipeview_dropped();
    if let (Some(pv), Some(records)) = (&pipeview, sim.take_pipeview_records()) {
        warn_on_pipeview_drops(bench, &records, dropped, pv.capacity);
        match pv.write(&records) {
            Ok(path) => eprintln!("pipeview: {bench} -> {}", path.display()),
            Err(e) => eprintln!(
                "warning: could not write LSQ_PIPEVIEW={}: {e}",
                pv.path.display()
            ),
        }
    }
    Observed {
        result,
        sampler: sim.take_sampler(),
        trace: sim.into_tracer(),
    }
}

/// Runs `job` fresh with `observers` attached and writes the trace
/// sink, if any — the engine's path for cache misses.
pub(crate) fn run_job(job: &Job, observers: &Observers) -> SimResult {
    if observers.set() == [false; 4] {
        return simulate(
            job,
            NopTracer,
            NopProfiler,
            NopAccountant,
            NopLifecycle,
            None,
        )
        .0;
    }
    // Parallel jobs write to distinct paths: job 0 gets the configured
    // path verbatim, later ones a `.N` suffix.
    static TRACED_JOBS: AtomicU64 = AtomicU64::new(0);
    let trace = observers
        .trace
        .as_ref()
        .map(|t| t.for_job(TRACED_JOBS.fetch_add(1, Ordering::Relaxed)));
    let observers = Observers {
        trace: trace.clone(),
        ..observers.clone()
    };
    let run = run_observed(job.bench, job.lsq, job.scaled, job.spec, &observers);
    if let (Some(trace), Some(buf)) = (&trace, &run.trace) {
        warn_on_trace_drops(job.bench, buf);
        match trace.write(buf, run.sampler.as_ref()) {
            Ok(paths) => {
                for p in paths {
                    eprintln!("trace: {} -> {}", job.bench, p.display());
                }
            }
            Err(e) => eprintln!(
                "warning: could not write LSQ_TRACE={}: {e}",
                trace.path.display()
            ),
        }
    }
    run.result
}

/// Surfaces pipeview-ring overflow at sink flush: a pipeline-viewer log
/// missing its oldest records is silently misleading, so drops cost a
/// stderr warning and a bump of the `lsq_pipeview_dropped_total` metric.
fn warn_on_pipeview_drops(bench: &str, records: &[PipeRecord], dropped: u64, capacity: usize) {
    if dropped > 0 {
        crate::telemetry::global().pipeview_drops(dropped);
        eprintln!(
            "warning: {bench}: pipeview ring dropped {dropped} of {} records; \
             the written log is truncated (raise LSQ_PIPEVIEW_CAP, \
             currently {capacity})",
            records.len() as u64 + dropped,
        );
    }
}

/// Surfaces trace-ring overflow at sink flush: a truncated JSONL/Chrome
/// artifact is silently misleading, so drops cost a stderr warning and
/// a bump of the `lsq_trace_events_dropped_total` metric.
fn warn_on_trace_drops(bench: &str, buf: &TraceBuffer) {
    if buf.dropped() > 0 {
        crate::telemetry::global().trace_drops(buf.dropped());
        eprintln!(
            "warning: {bench}: trace ring dropped {} of {} events; \
             the written trace is truncated (raise LSQ_TRACE_CAP, \
             currently {})",
            buf.dropped(),
            buf.total(),
            buf.capacity(),
        );
    }
}

/// A traced run, uncached: [`run_observed`] with only `trace` attached,
/// returning the measured-phase result, the captured ring and the
/// flushed sampler. The sampler covers warm-up and measurement, so
/// summing `committed` over every window and dividing by the summed
/// `cycles` reproduces the cumulative (undiffed) IPC exactly.
///
/// # Panics
///
/// Panics if `bench` is not one of the 18 profile names.
pub fn run_traced(
    bench: &str,
    lsq: LsqConfig,
    scaled: bool,
    spec: RunSpec,
    trace: &TraceConfig,
) -> (SimResult, TraceBuffer, Option<Sampler>) {
    let observers = Observers {
        trace: Some(trace.clone()),
        ..Observers::default()
    };
    let run = run_observed(bench, lsq, scaled, spec, &observers);
    (run.result, run.trace.unwrap_or_default(), run.sampler)
}

/// Subtracts the warm-up prefix from cumulative counters so the result
/// reflects only the measured window.
pub fn diff_results(before: &SimResult, after: &SimResult) -> SimResult {
    let mut r = after.clone();
    r.cycles = after.cycles - before.cycles;
    r.committed = after.committed - before.committed;
    r.loads_committed = after.loads_committed - before.loads_committed;
    r.stores_committed = after.stores_committed - before.stores_committed;
    r.branches_committed = after.branches_committed - before.branches_committed;
    r.branch_predictions = after.branch_predictions - before.branch_predictions;
    r.branch_mispredictions = after.branch_mispredictions - before.branch_mispredictions;
    r.violation_squashes = after.violation_squashes - before.violation_squashes;
    r.instructions_squashed = after.instructions_squashed - before.instructions_squashed;
    // LSQ counters are cumulative; difference the scalar fields.
    r.lsq.loads_dispatched -= before.lsq.loads_dispatched;
    r.lsq.stores_dispatched -= before.lsq.stores_dispatched;
    r.lsq.loads_issued -= before.lsq.loads_issued;
    r.lsq.stores_issued -= before.lsq.stores_issued;
    r.lsq.stores_committed -= before.lsq.stores_committed;
    r.lsq.sq_searches -= before.lsq.sq_searches;
    r.lsq.sq_search_hits -= before.lsq.sq_search_hits;
    r.lsq.lq_searches_by_stores -= before.lsq.lq_searches_by_stores;
    r.lsq.lq_searches_by_loads -= before.lsq.lq_searches_by_loads;
    r.lsq.lb_searches -= before.lsq.lb_searches;
    r.lsq.violations -= before.lsq.violations;
    r.lsq.commit_violations -= before.lsq.commit_violations;
    r.lsq.useless_searches -= before.lsq.useless_searches;
    r.lsq.load_load_violations -= before.lsq.load_load_violations;
    r.lsq.invalidations -= before.lsq.invalidations;
    r.lsq.invalidation_squashes -= before.lsq.invalidation_squashes;
    r.lsq.sq_port_stalls -= before.lsq.sq_port_stalls;
    r.lsq.lq_port_stalls -= before.lsq.lq_port_stalls;
    r.lsq.commit_port_delays -= before.lsq.commit_port_delays;
    r.lsq.lb_full_stalls -= before.lsq.lb_full_stalls;
    r.lsq.in_order_stalls -= before.lsq.in_order_stalls;
    r.lsq.store_set_waits -= before.lsq.store_set_waits;
    // The segment histogram is cumulative too: subtract the warm-up
    // snapshot so Table 6 reflects only the measured window.
    r.lsq.seg_search_hist.subtract(&before.lsq.seg_search_hist);
    // Occupancy means are sampled once per cycle, so the cycle counts are
    // their exact sample counts: re-base each mean onto the measured
    // window by removing the warm-up window's weighted contribution.
    r.lq_occupancy = rebase_mean(
        before.lq_occupancy,
        before.cycles,
        after.lq_occupancy,
        after.cycles,
    );
    r.sq_occupancy = rebase_mean(
        before.sq_occupancy,
        before.cycles,
        after.sq_occupancy,
        after.cycles,
    );
    r.ooo_issued_loads = rebase_mean(
        before.ooo_issued_loads,
        before.cycles,
        after.ooo_issued_loads,
        after.cycles,
    );
    r.inflight_loads = rebase_mean(
        before.inflight_loads,
        before.cycles,
        after.inflight_loads,
        after.cycles,
    );
    // The CPI stack is cumulative and monotone, so the measured-window
    // stack is a component-wise difference — the partition invariant
    // carries over: diffed components sum to diffed cycles × width.
    r.cpi_stack = match (&after.cpi_stack, &before.cpi_stack) {
        (Some(a), Some(b)) => Some(a.minus(b)),
        (Some(a), None) => Some(a.clone()),
        _ => None,
    };
    // Stage-latency histograms are cumulative over committed
    // instructions; the same windowing applies.
    r.stage_latency = match (&after.stage_latency, &before.stage_latency) {
        (Some(a), Some(b)) => Some(a.minus(b)),
        (Some(a), None) => Some(a.clone()),
        _ => None,
    };
    r
}

/// Mean over only the samples recorded after a snapshot:
/// `(after_mean·after_n − before_mean·before_n) / (after_n − before_n)`,
/// clamped at zero against floating-point cancellation.
fn rebase_mean(before_mean: f64, before_n: u64, after_mean: f64, after_n: u64) -> f64 {
    let n = after_n.saturating_sub(before_n);
    if n == 0 {
        return 0.0;
    }
    let sum = after_mean * after_n as f64 - before_mean * before_n as f64;
    (sum / n as f64).max(0.0)
}

/// Runs a design point for every benchmark, in parallel, returning
/// `(name, result)` pairs in Table 2 order.
pub fn run_all_benchmarks(
    lsq: LsqConfig,
    scaled: bool,
    spec: RunSpec,
) -> Vec<(&'static str, SimResult)> {
    run_matrix(&[lsq], scaled, spec)
        .into_iter()
        // lsq-lint: allow(no-unwrap-in-lib, reason = "run_matrix ran exactly one config per benchmark in this sweep")
        .map(|(name, mut row)| (name, row.pop().expect("one config")))
        .collect()
}

/// Runs several design points for every benchmark through the engine's
/// work-stealing pool. Returns one row per benchmark (Table 2 order),
/// each with one result per design point (input order).
pub fn run_matrix(
    configs: &[LsqConfig],
    scaled: bool,
    spec: RunSpec,
) -> Vec<(&'static str, Vec<SimResult>)> {
    run_matrix_observed(configs, scaled, spec, &Observers::default())
}

/// [`run_matrix`] with `observers` attached to every job, on top of the
/// engine's own (see [`engine::Engine::run_batch_observed`]).
pub fn run_matrix_observed(
    configs: &[LsqConfig],
    scaled: bool,
    spec: RunSpec,
    observers: &Observers,
) -> Vec<(&'static str, Vec<SimResult>)> {
    let names: Vec<&'static str> = BenchProfile::all().iter().map(|p| p.name).collect();
    let jobs: Vec<Job> = names
        .iter()
        .flat_map(|&name| {
            configs.iter().map(move |&lsq| Job {
                bench: name,
                lsq,
                scaled,
                spec,
            })
        })
        .collect();
    let mut results = engine::global()
        .run_batch_observed(&jobs, observers)
        .into_iter();
    names
        .iter()
        .map(|&name| (name, results.by_ref().take(configs.len()).collect()))
        .collect()
}

/// Splits per-benchmark values into (INT mean, FP mean) using the Table 2
/// benchmark classification.
pub fn int_fp_means(rows: &[(&'static str, f64)]) -> (f64, f64) {
    let mut int = Vec::new();
    let mut fp = Vec::new();
    for (name, v) in rows {
        // lsq-lint: allow(no-unwrap-in-lib, reason = "names come from Table 2 rows, all drawn from BenchProfile's table")
        let profile = BenchProfile::named(name).expect("known benchmark");
        if profile.fp {
            fp.push(*v);
        } else {
            int.push(*v);
        }
    }
    (
        lsq_stats::mean(&int).unwrap_or(0.0),
        lsq_stats::mean(&fp).unwrap_or(0.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsq_core::LsqStats;

    const SMALL: RunSpec = RunSpec {
        warmup: 2_000,
        instrs: 6_000,
        seed: 1,
    };

    #[test]
    fn run_design_point_produces_progress() {
        let r = run_design_point("gzip", LsqConfig::default(), false, SMALL);
        // The final cycle may retire up to commit_width instructions,
        // so a run can overshoot its budget by a few.
        assert!(
            (6_000..6_008).contains(&r.committed),
            "committed {}",
            r.committed
        );
        assert!(r.ipc() > 0.1);
        assert!(!r.hit_cycle_cap);
    }

    #[test]
    #[should_panic(expected = "unknown benchmark")]
    fn unknown_benchmark_panics() {
        let _ = run_design_point("nonesuch", LsqConfig::default(), false, SMALL);
    }

    #[test]
    fn diffing_removes_warmup() {
        let with_warm = run_design_point("gzip", LsqConfig::default(), false, SMALL);
        assert!(
            (SMALL.instrs..SMALL.instrs + 8).contains(&with_warm.committed),
            "warm-up committed removed ({})",
            with_warm.committed
        );
        assert!(
            with_warm.lsq.loads_issued < 6_000 * 2,
            "counters are windowed"
        );
    }

    #[test]
    fn diffing_rebases_means_and_histogram() {
        let mut before = blank_result();
        before.cycles = 1_000;
        before.lq_occupancy = 30.0; // congested warm-up window
        before.lsq.seg_search_hist.record(0);
        before.lsq.seg_search_hist.record(3);
        let mut after = blank_result();
        after.cycles = 3_000;
        // Cumulative mean: (30·1000 + 6·2000) / 3000 = 14.
        after.lq_occupancy = 14.0;
        after.lsq.seg_search_hist.record(0);
        after.lsq.seg_search_hist.record(3);
        after.lsq.seg_search_hist.record(1);
        let r = diff_results(&before, &after);
        assert_eq!(r.cycles, 2_000);
        assert!(
            (r.lq_occupancy - 6.0).abs() < 1e-9,
            "warm-up congestion removed"
        );
        // Only the measured-window observation remains.
        assert_eq!(r.lsq.seg_search_hist.count(), 1);
        assert_eq!(r.lsq.seg_search_hist.bucket(1), 1);
        assert_eq!(r.lsq.seg_search_hist.bucket(0), 0);
        assert_eq!(r.lsq.seg_search_hist.bucket(3), 0);
    }

    #[test]
    fn rebase_mean_edge_cases() {
        // No new samples: define the mean as zero rather than dividing
        // by zero.
        assert_eq!(rebase_mean(5.0, 100, 5.0, 100), 0.0);
        // No warm-up: the cumulative mean passes through.
        assert_eq!(rebase_mean(0.0, 0, 7.5, 200), 7.5);
        // A difference that would go negative (rounding noise near zero)
        // clamps at zero instead.
        assert_eq!(rebase_mean(2.0, 100, 1.0, 101), 0.0);
    }

    fn blank_result() -> SimResult {
        SimResult {
            cycles: 0,
            committed: 0,
            loads_committed: 0,
            stores_committed: 0,
            branches_committed: 0,
            branch_predictions: 0,
            branch_mispredictions: 0,
            violation_squashes: 0,
            instructions_squashed: 0,
            lq_occupancy: 0.0,
            sq_occupancy: 0.0,
            ooo_issued_loads: 0.0,
            inflight_loads: 0.0,
            lsq: LsqStats::new(4),
            l1d_miss_rate: 0.0,
            l2_miss_rate: 0.0,
            hit_cycle_cap: false,
            wall_nanos: 0,
            sim_mips: 0.0,
            profile: None,
            cpi_stack: None,
            stage_latency: None,
        }
    }

    #[test]
    fn traced_run_matches_untraced_counters() {
        let trace = TraceConfig::parse("unused.json", Some("500"));
        let (r, buf, sampler) = run_traced("gzip", LsqConfig::default(), false, SMALL, &trace);
        let plain = run_design_point("gzip", LsqConfig::default(), false, SMALL);
        assert_eq!(r.cycles, plain.cycles, "tracing must not perturb timing");
        assert_eq!(r.committed, plain.committed);
        assert_eq!(r.lsq.sq_searches, plain.lsq.sq_searches);
        assert_eq!(r.violation_squashes, plain.violation_squashes);
        assert!(buf.total() > 0, "a real run emits events");
        let sampler = sampler.expect("sampling was requested");
        assert!(!sampler.rows().is_empty(), "windows were recorded");
        // The sampler covers warm-up and measurement: its windowed cycles
        // partition the whole run.
        let windowed: u64 = sampler.rows().iter().map(|w| w.cycles).sum();
        assert!(
            windowed >= r.cycles,
            "windows cover at least the measured phase"
        );
    }

    #[test]
    fn trace_ring_overflow_is_counted_and_surfaced() {
        let trace = TraceConfig {
            capacity: 32,
            ..TraceConfig::parse("unused.json", None)
        };
        let (_, buf, _) = run_traced("gzip", LsqConfig::default(), false, SMALL, &trace);
        assert_eq!(buf.capacity(), 32);
        assert!(
            buf.dropped() > 0,
            "a real run overflows a 32-event ring ({} events total)",
            buf.total()
        );
        assert_eq!(buf.dropped() + buf.len() as u64, buf.total());
        let before = crate::telemetry::global().metrics().render();
        warn_on_trace_drops("gzip", &buf);
        let after = crate::telemetry::global().metrics().render();
        let count = |text: &str| -> u64 {
            text.lines()
                .find(|l| l.starts_with("lsq_trace_events_dropped_total"))
                .and_then(|l| l.split_whitespace().last())
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        };
        assert_eq!(
            count(&after),
            count(&before) + buf.dropped(),
            "sink flush bumps the drop metric"
        );
    }

    #[test]
    fn int_fp_split() {
        let rows = vec![("gzip", 2.0), ("mgrid", 4.0)];
        let (i, f) = int_fp_means(&rows);
        assert_eq!(i, 2.0);
        assert_eq!(f, 4.0);
    }

    #[test]
    fn matrix_runs_all_benchmarks() {
        let tiny = RunSpec {
            warmup: 200,
            instrs: 800,
            seed: 1,
        };
        let rows = run_matrix(&[LsqConfig::default()], false, tiny);
        assert_eq!(rows.len(), 18);
        assert!(rows
            .iter()
            .all(|(_, r)| (800..808).contains(&r[0].committed)));
    }

    #[test]
    fn matrix_keeps_config_order_within_rows() {
        let tiny = RunSpec {
            warmup: 100,
            instrs: 400,
            seed: 1,
        };
        let one_port = LsqConfig::conventional(1);
        let rows = run_matrix(&[LsqConfig::default(), one_port], false, tiny);
        for (name, row) in &rows {
            assert_eq!(row.len(), 2, "{name}");
            // Identical results to running each point individually.
            let lone = run_design_point(name, one_port, false, tiny);
            assert_eq!(row[1].cycles, lone.cycles, "{name}");
        }
    }
}
