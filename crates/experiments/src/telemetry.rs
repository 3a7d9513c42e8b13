//! Engine-side live telemetry: one process-wide [`Metrics`] registry
//! fed by the work-stealing scheduler, the `/jobs` JSON snapshot, and
//! the `LSQ_METRICS_ADDR` exposition server.
//!
//! Every [`crate::engine::Engine`] (the global one and private test
//! instances) reports into the same registry, so the server — started
//! on the first batch of an engine whose options carry `LSQ_METRICS_ADDR`
//! — always shows whole-process state: jobs queued/running/done, per-worker
//! activity, cache hit rate, steal counts, aggregate sim-MIPS, trace
//! ring drops, and (under `LSQ_PROFILE=1`) the merged simulator phase
//! profile. Counter updates are relaxed atomics on job boundaries, so
//! the cost is nil next to a simulation job.

use crate::engine::opt_json;
use lsq_obs::Json;
use lsq_pipeline::{CpiStack, PhaseProfile, SimResult, StageLatency};
use lsq_telemetry::{Counter, FloatGauge, Gauge, HistogramMetric, Metrics, MetricsServer};
use lsq_util::sync::MutexExt;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Exposition bounds (cycles) for the `lsq_stage_latency_cycles`
/// histograms; the simulator records exact per-cycle buckets up to
/// [`lsq_pipeline::STAGE_BUCKETS`], folded into these on job finish.
const STAGE_LATENCY_BOUNDS: &[u64] = &[1, 2, 4, 8, 16, 32, 64];

/// The repository commit this process was built or launched from, for
/// the `lsq_build_info` gauge; `unknown` outside a git checkout.
fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Live view of one scheduler worker, kept for `/jobs`.
#[derive(Debug, Default, Clone)]
struct WorkerView {
    busy: bool,
    /// Job label while busy (`bench` plus design-point summary).
    current: Option<String>,
    done: u64,
    steals: u64,
}

/// The process-wide telemetry hub.
pub struct EngineTelemetry {
    metrics: Arc<Metrics>,
    jobs_queued: Arc<Gauge>,
    jobs_running: Arc<Gauge>,
    jobs_done: Arc<Counter>,
    cache_hits: Arc<Counter>,
    cache_misses: Arc<Counter>,
    steals: Arc<Counter>,
    sim_instrs: Arc<Counter>,
    sim_wall_nanos: Arc<Counter>,
    sim_mips: Arc<FloatGauge>,
    job_wall_ms: Arc<HistogramMetric>,
    trace_events_dropped: Arc<Counter>,
    pipeview_dropped: Arc<Counter>,
    uptime: Arc<FloatGauge>,
    start: Instant,
    workers: Mutex<Vec<WorkerView>>,
    profile: Mutex<Option<PhaseProfile>>,
    stack: Mutex<Option<CpiStack>>,
}

/// The singleton registry every engine instance reports into.
pub fn global() -> &'static EngineTelemetry {
    static TELEMETRY: OnceLock<EngineTelemetry> = OnceLock::new();
    TELEMETRY.get_or_init(EngineTelemetry::new)
}

impl EngineTelemetry {
    fn new() -> Self {
        let m = Arc::new(Metrics::new());
        Self {
            jobs_queued: m.gauge("lsq_jobs_queued", "Jobs waiting in worker deques."),
            jobs_running: m.gauge("lsq_jobs_running", "Jobs currently simulating."),
            jobs_done: m.counter("lsq_jobs_done_total", "Fresh jobs completed."),
            cache_hits: m.counter("lsq_cache_hits_total", "Jobs served from the result cache."),
            cache_misses: m.counter(
                "lsq_cache_misses_total",
                "Jobs simulated fresh (cache misses).",
            ),
            steals: m.counter(
                "lsq_steals_total",
                "Jobs taken from another worker's deque.",
            ),
            sim_instrs: m.counter(
                "lsq_sim_instructions_total",
                "Simulated instructions, warm-up included.",
            ),
            sim_wall_nanos: m.counter(
                "lsq_sim_wall_nanos_total",
                "Host wall nanoseconds spent simulating.",
            ),
            sim_mips: m.float_gauge(
                "lsq_sim_mips",
                "Aggregate simulated MIPS (instructions / wall time).",
            ),
            job_wall_ms: m.histogram(
                "lsq_job_wall_ms",
                "Per-job wall time in milliseconds.",
                &[10, 50, 100, 500, 1000, 5000, 30000],
            ),
            trace_events_dropped: m.counter(
                "lsq_trace_events_dropped_total",
                "Trace-ring events evicted on overflow (raise LSQ_TRACE_CAP).",
            ),
            pipeview_dropped: m.counter(
                "lsq_pipeview_dropped_total",
                "Pipeview-ring records evicted on overflow (raise LSQ_PIPEVIEW_CAP).",
            ),
            uptime: {
                m.gauge_with(
                    "lsq_build_info",
                    "Build identity: constant 1, labelled with the crate \
                     version and the git commit.",
                    &[
                        ("version", env!("CARGO_PKG_VERSION")),
                        ("git_sha", &git_sha()),
                    ],
                )
                .set(1);
                m.float_gauge(
                    "lsq_uptime_seconds",
                    "Seconds since this process's telemetry hub started; \
                     refreshed on job boundaries and /jobs snapshots.",
                )
            },
            start: Instant::now(),
            workers: Mutex::new(Vec::new()),
            profile: Mutex::new(None),
            stack: Mutex::new(None),
            metrics: m,
        }
    }

    /// Refreshes the `lsq_uptime_seconds` gauge.
    fn tick_uptime(&self) {
        self.uptime.set(self.start.elapsed().as_secs_f64());
    }

    /// The underlying registry (what `/metrics` renders).
    pub fn metrics(&self) -> Arc<Metrics> {
        Arc::clone(&self.metrics)
    }

    /// Starts the `LSQ_METRICS_ADDR` server on `addr` the first time it
    /// is called; later calls are no-ops. Bind failures warn and disable
    /// retries rather than killing an experiment run.
    pub fn serve_once(&'static self, addr: &str) {
        static SERVER: OnceLock<Option<MetricsServer>> = OnceLock::new();
        SERVER.get_or_init(|| match self.serve(addr) {
            Ok(server) => {
                eprintln!(
                    "telemetry: serving /metrics and /jobs on http://{}",
                    server.addr()
                );
                Some(server)
            }
            Err(e) => {
                eprintln!("warning: could not bind LSQ_METRICS_ADDR={addr}: {e}");
                None
            }
        });
    }

    /// Binds `addr` and serves this hub's registry and job view.
    /// Exposed for tests (ephemeral ports); production goes through
    /// [`EngineTelemetry::serve_once`].
    pub fn serve(&'static self, addr: &str) -> std::io::Result<MetricsServer> {
        MetricsServer::start(
            addr,
            self.metrics(),
            Box::new(|| self.jobs_json().to_string()),
        )
    }

    /// A batch of `queued` fresh jobs is about to run on `workers`
    /// workers.
    pub(crate) fn batch_started(&self, queued: usize, workers: usize) {
        self.tick_uptime();
        self.jobs_queued.add(queued as i64);
        let mut views = self.workers.lock_unpoisoned();
        if views.len() < workers {
            views.resize(workers, WorkerView::default());
        }
    }

    /// Worker `worker` claimed a job (`stolen` from another deque).
    pub(crate) fn job_claimed(&self, worker: usize, label: String, stolen: bool) {
        self.jobs_queued.sub(1);
        self.jobs_running.add(1);
        if stolen {
            self.steals.inc();
        }
        let mut views = self.workers.lock_unpoisoned();
        if let Some(v) = views.get_mut(worker) {
            v.busy = true;
            v.current = Some(label);
            if stolen {
                v.steals += 1;
            }
        }
    }

    /// Worker `worker` finished the job it claimed; `spec_warmup` is the
    /// job's warm-up budget (the engine's sim-MIPS convention counts
    /// warm-up instructions as simulated work).
    pub(crate) fn job_finished(&self, worker: usize, result: &SimResult, spec_warmup: u64) {
        self.tick_uptime();
        self.jobs_running.sub(1);
        self.jobs_done.inc();
        self.sim_instrs.add(spec_warmup + result.committed);
        self.sim_wall_nanos.add(result.wall_nanos);
        let wall = self.sim_wall_nanos.get();
        if wall > 0 {
            self.sim_mips
                .set(self.sim_instrs.get() as f64 / wall as f64 * 1e3);
        }
        self.job_wall_ms.record(result.wall_nanos / 1_000_000);
        if let Some(profile) = &result.profile {
            self.merge_profile(profile);
        }
        if let Some(stack) = &result.cpi_stack {
            self.merge_stack(stack);
        }
        if let Some(stages) = &result.stage_latency {
            self.merge_stage_latency(stages);
        }
        let mut views = self.workers.lock_unpoisoned();
        if let Some(v) = views.get_mut(worker) {
            v.busy = false;
            v.current = None;
            v.done += 1;
        }
    }

    /// Cache accounting for one batch.
    pub(crate) fn cache_counted(&self, hits: u64, misses: u64) {
        self.cache_hits.add(hits);
        self.cache_misses.add(misses);
    }

    /// Trace-ring overflow: `dropped` events were evicted before the
    /// sink flush (see the warning in `runner`).
    pub(crate) fn trace_drops(&self, dropped: u64) {
        self.trace_events_dropped.add(dropped);
    }

    /// Pipeview-ring overflow: `dropped` finished lifecycle records
    /// were evicted before the log flush (see the warning in `runner`).
    pub(crate) fn pipeview_drops(&self, dropped: u64) {
        self.pipeview_dropped.add(dropped);
    }

    /// Folds one job's stage-latency histograms into the
    /// `lsq_stage_latency_cycles{stage=…}` exposition histograms.
    fn merge_stage_latency(&self, stages: &StageLatency) {
        for (name, h) in stages.stages() {
            let metric = self.metrics.histogram_with(
                "lsq_stage_latency_cycles",
                "Per-stage instruction latency in cycles, from the \
                 lifecycle recorder (LSQ_PIPEVIEW runs).",
                STAGE_LATENCY_BOUNDS,
                &[("stage", name)],
            );
            for (value, count) in h.iter() {
                if count > 0 {
                    metric.record_n(value as u64, count);
                }
            }
        }
    }

    /// Folds one job's phase profile into the process aggregate and the
    /// per-phase exposition counters.
    fn merge_profile(&self, profile: &PhaseProfile) {
        for stat in &profile.phases {
            self.metrics
                .counter_with(
                    "lsq_profile_phase_nanos_total",
                    "Simulator self-profile: wall nanoseconds per phase.",
                    &[("phase", &stat.phase)],
                )
                .add(stat.nanos);
            self.metrics
                .counter_with(
                    "lsq_profile_phase_calls_total",
                    "Simulator self-profile: timed invocations per phase.",
                    &[("phase", &stat.phase)],
                )
                .add(stat.calls);
        }
        let mut agg = self.profile.lock_unpoisoned();
        match agg.as_mut() {
            Some(a) => a.merge(profile),
            None => *agg = Some(profile.clone()),
        }
    }

    /// The process-wide aggregated phase profile, if any job was
    /// profiled.
    pub fn aggregated_profile(&self) -> Option<PhaseProfile> {
        self.profile.lock_unpoisoned().clone()
    }

    /// Folds one job's CPI stack into the process aggregate and the
    /// per-component exposition counters.
    fn merge_stack(&self, stack: &CpiStack) {
        for stat in &stack.components {
            self.metrics
                .counter_with(
                    "lsq_cpi_stack_cycles_total",
                    "Cycle accounting: commit slots charged per CPI-stack \
                     component (commit_width slots per simulated cycle).",
                    &[("component", &stat.component)],
                )
                .add(stat.slots);
        }
        let mut agg = self.stack.lock_unpoisoned();
        match agg.as_mut() {
            Some(a) => a.merge(stack),
            None => *agg = Some(stack.clone()),
        }
    }

    /// The process-wide aggregated CPI stack, if any job ran with
    /// cycle accounting.
    pub fn aggregated_stack(&self) -> Option<CpiStack> {
        self.stack.lock_unpoisoned().clone()
    }

    /// The `/jobs` snapshot.
    pub fn jobs_json(&self) -> Json {
        self.tick_uptime();
        let views = self.workers.lock_unpoisoned().clone();
        let workers: Vec<Json> = views
            .iter()
            .enumerate()
            .map(|(i, v)| {
                Json::obj(vec![
                    ("worker", Json::from(i)),
                    ("busy", v.busy.into()),
                    ("current", opt_json(&v.current, |l| Json::from(l.clone()))),
                    ("done", v.done.into()),
                    ("steals", v.steals.into()),
                ])
            })
            .collect();
        let hits = self.cache_hits.get();
        let misses = self.cache_misses.get();
        let lookups = hits + misses;
        let hit_rate = if lookups == 0 {
            0.0
        } else {
            hits as f64 / lookups as f64
        };
        Json::obj(vec![
            ("queued", Json::from(self.jobs_queued.get())),
            ("running", self.jobs_running.get().into()),
            ("done", self.jobs_done.get().into()),
            ("cache_hits", hits.into()),
            ("cache_misses", misses.into()),
            ("cache_hit_rate", hit_rate.into()),
            ("steals", self.steals.get().into()),
            ("sim_mips", self.sim_mips.get().into()),
            (
                "trace_events_dropped",
                self.trace_events_dropped.get().into(),
            ),
            ("workers", Json::Arr(workers)),
            (
                "profile",
                opt_json(&self.aggregated_profile(), PhaseProfile::to_json),
            ),
            (
                "cpi_stack",
                opt_json(&self.aggregated_stack(), CpiStack::to_json),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Exercised against the singleton: other tests in this process also
    // feed it, so assertions are monotonic (deltas / shape), never
    // absolute totals.

    #[test]
    fn jobs_json_has_the_operator_fields() {
        let tel = global();
        tel.batch_started(2, 2);
        tel.job_claimed(0, "gzip ports=2".to_string(), false);
        tel.job_claimed(1, "mcf ports=2".to_string(), true);
        let snap = tel.jobs_json();
        for key in [
            "queued",
            "running",
            "done",
            "cache_hits",
            "cache_misses",
            "cache_hit_rate",
            "steals",
            "sim_mips",
            "trace_events_dropped",
            "workers",
            "profile",
            "cpi_stack",
        ] {
            assert!(snap.get(key).is_some(), "missing {key}");
        }
        let workers = snap.get("workers").and_then(Json::as_arr).unwrap();
        assert!(workers.len() >= 2);
        // The snapshot is valid JSON.
        let parsed = Json::parse(&snap.to_string()).expect("snapshot parses");
        assert!(parsed.get("workers").is_some());
        // Settle the running gauge for other tests (queued already
        // netted out: +2 at batch start, -1 per claim).
        tel.jobs_running.sub(2);
    }

    #[test]
    fn concurrent_updates_under_the_worker_pool_lose_nothing() {
        // Hammer one counter and one histogram from the engine's own
        // work-stealing scheduler: every increment must land.
        let m = global().metrics();
        let c = m.counter("lsq_test_pool_total", "Worker-pool torture counter.");
        let h = m.histogram(
            "lsq_test_pool_hist",
            "Worker-pool torture histogram.",
            &[4, 16],
        );
        let c_before = c.get();
        let h_before = h.count();
        let tasks: Vec<_> = (0..64)
            .map(|i| {
                let c = Arc::clone(&c);
                let h = Arc::clone(&h);
                move || {
                    for k in 0..100u64 {
                        c.inc();
                        h.record((i + k) % 20);
                    }
                }
            })
            .collect();
        crate::engine::Engine::new().run_tasks(tasks);
        assert_eq!(c.get(), c_before + 6400);
        assert_eq!(h.count(), h_before + 6400);
        assert!(m.render().contains("lsq_test_pool_total"));
    }

    #[test]
    fn steal_and_cache_counters_accumulate() {
        let tel = global();
        let steals_before = tel.steals.get();
        let hits_before = tel.cache_hits.get();
        tel.job_claimed(0, "x".to_string(), true);
        tel.cache_counted(3, 1);
        assert_eq!(tel.steals.get(), steals_before + 1);
        assert_eq!(tel.cache_hits.get(), hits_before + 3);
        tel.jobs_running.sub(1);
        tel.jobs_queued.add(1);
    }
}
