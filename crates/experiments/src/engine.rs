//! The shared experiment engine: a work-stealing scheduler plus an
//! in-process content-addressed result cache.
//!
//! Every figure and table in the paper is a cross-product of
//! `(benchmark × LsqConfig × scaled? × RunSpec)` design points, and many
//! of them share points — the base two-ported configuration alone appears
//! in Figures 6 through 12. The engine flattens each request into [`Job`]s,
//! runs the jobs that have not been seen before on a work-stealing thread
//! pool sized by [`worker_count`], and serves repeats from a cache keyed
//! by everything that determines a run's outcome (benchmark name, the
//! full [`SimConfig`], and the [`RunSpec`]). Simulations are
//! deterministic, so a cached result is exactly the result a fresh run
//! would produce (modulo the host-timing fields).
//!
//! Observers are part of the key too: a run with the cycle accountant
//! attached is cached apart from a plain run of the same design point,
//! so an artifact that asks for CPI stacks
//! ([`Engine::run_batch_observed`]) never receives an unaccounted result
//! cached by an earlier artifact. The engine's own options — worker
//! count, progress meter, JSON dump, metrics server, and observers
//! attached to every fresh job — come from [`RunOptions`], which
//! documents the knobs behind them.

use crate::options::RunOptions;
use crate::runner::{Observers, RunSpec};
use crate::telemetry;
use lsq_core::LsqConfig;
use lsq_obs::Json;
use lsq_pipeline::{CpiStack, PhaseProfile, SimConfig, SimResult, StageLatency};
use lsq_util::sync::MutexExt;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{IsTerminal, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// One unit of work: a benchmark run through one design point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Job {
    /// Benchmark name (one of the 18 Table 2 profiles).
    pub bench: &'static str,
    /// The LSQ design point.
    pub lsq: LsqConfig,
    /// Whether to run the §4.3 scaled processor.
    pub scaled: bool,
    /// Instruction budget.
    pub spec: RunSpec,
}

/// Result-cache key: everything that determines a run's outcome. The
/// full [`SimConfig`] (not just the LSQ point and the scaled flag it was
/// derived from) is hashed, so two jobs collide only if the simulator
/// would be configured identically; the attached observer set is hashed
/// because observers add fields (profile, CPI stack, stage latencies)
/// to the result.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct JobKey {
    bench: &'static str,
    sim: SimConfig,
    spec: RunSpec,
    observers: [bool; 4],
}

impl Job {
    /// The simulator configuration this job runs: the base or the §4.3
    /// scaled processor around its LSQ design point.
    pub(crate) fn sim_config(&self) -> SimConfig {
        if self.scaled {
            SimConfig::scaled(self.lsq)
        } else {
            SimConfig::with_lsq(self.lsq)
        }
    }

    fn key(&self, observers: &Observers) -> JobKey {
        JobKey {
            bench: self.bench,
            sim: self.sim_config(),
            spec: self.spec,
            observers: observers.set(),
        }
    }
}

/// Provenance of one job, kept for the `LSQ_EXPERIMENTS_JSON` dump.
#[derive(Debug, Clone)]
struct JobRecord {
    job: Job,
    cached: bool,
    result: SimResult,
}

impl JobRecord {
    fn to_json(&self) -> Json {
        let (j, r) = (&self.job, &self.result);
        Json::obj(vec![
            ("bench", Json::from(j.bench)),
            ("scaled", j.scaled.into()),
            ("warmup", j.spec.warmup.into()),
            ("instrs", j.spec.instrs.into()),
            ("seed", j.spec.seed.into()),
            ("ports", j.lsq.ports.into()),
            ("lq_entries", j.lsq.lq_entries.into()),
            ("sq_entries", j.lsq.sq_entries.into()),
            ("predictor", format!("{:?}", j.lsq.predictor).into()),
            ("load_order", format!("{:?}", j.lsq.load_order).into()),
            (
                "segmentation",
                j.lsq
                    .segmentation
                    .map_or(Json::Null, |seg| format!("{seg:?}").into()),
            ),
            ("cached", self.cached.into()),
            ("wall_nanos", r.wall_nanos.into()),
            ("cycles", r.cycles.into()),
            ("committed", r.committed.into()),
            ("ipc", r.ipc().into()),
            ("sim_mips", r.sim_mips.into()),
            ("violations", r.lsq.violations.into()),
            ("commit_violations", r.lsq.commit_violations.into()),
            ("useless_searches", r.lsq.useless_searches.into()),
            ("load_load_violations", r.lsq.load_load_violations.into()),
            ("violation_squashes", r.violation_squashes.into()),
            ("instructions_squashed", r.instructions_squashed.into()),
            ("sq_port_stalls", r.lsq.sq_port_stalls.into()),
            ("lq_port_stalls", r.lsq.lq_port_stalls.into()),
            ("commit_port_delays", r.lsq.commit_port_delays.into()),
            ("capped", r.hit_cycle_cap.into()),
            ("profile", opt_json(&r.profile, PhaseProfile::to_json)),
            ("cpi_stack", opt_json(&r.cpi_stack, CpiStack::to_json)),
            (
                "stage_latency",
                opt_json(&r.stage_latency, StageLatency::to_json),
            ),
        ])
    }
}

/// `value` as JSON, `null` when absent.
pub(crate) fn opt_json<T>(value: &Option<T>, to_json: impl Fn(&T) -> Json) -> Json {
    value.as_ref().map_or(Json::Null, to_json)
}

/// The experiment engine. One global instance (see [`global`]) is shared
/// by every experiment in a process so design points are simulated at
/// most once per run; tests may build private instances.
#[derive(Default)]
pub struct Engine {
    options: RunOptions,
    cache: Mutex<HashMap<JobKey, SimResult>>,
    records: Mutex<Vec<JobRecord>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

static GLOBAL: OnceLock<Engine> = OnceLock::new();

/// The process-wide engine used by the `runner` entry points: the one
/// [`configure`]d by the binary's `main`, else one with default options.
pub fn global() -> &'static Engine {
    GLOBAL.get_or_init(Engine::new)
}

/// Builds the process-wide engine with `options`. Call once, from
/// `main`, before the first run; returns `false` and changes nothing
/// when the engine already exists.
pub fn configure(options: RunOptions) -> bool {
    GLOBAL.set(Engine::with_options(options)).is_ok()
}

impl Engine {
    /// Creates an empty engine with default options (private cache;
    /// used by tests).
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty engine with `options`.
    pub fn with_options(options: RunOptions) -> Self {
        Self {
            options,
            ..Self::default()
        }
    }

    /// `(cache hits, unique simulations)` served so far.
    pub fn stats(&self) -> (u64, u64) {
        (
            // lsq-lint: allow(relaxed-ordering-audit, reason = "stats snapshot read after run_batch returns; joins ordered the writes")
            self.hits.load(Ordering::Relaxed),
            // lsq-lint: allow(relaxed-ordering-audit, reason = "stats snapshot read after run_batch returns; joins ordered the writes")
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Runs a batch of jobs and returns one result per job, in order.
    ///
    /// Jobs whose key is already cached (from this or an earlier batch)
    /// are served from the cache; duplicates within the batch are
    /// simulated once. Fresh jobs run on [`worker_count`] work-stealing
    /// workers and carry the engine's observers.
    pub fn run_batch(&self, jobs: &[Job]) -> Vec<SimResult> {
        self.run_batch_with_workers(jobs, None)
    }

    /// [`Engine::run_batch`] with an explicit worker count, bypassing
    /// the configured `jobs` / `available_parallelism` (determinism
    /// tests).
    pub fn run_batch_with_workers(&self, jobs: &[Job], workers: Option<usize>) -> Vec<SimResult> {
        self.run(jobs, workers, &Observers::default())
    }

    /// [`Engine::run_batch`] with `observers` attached to every job on
    /// top of the engine's own. Results are cached per observer set, so
    /// an accounted batch never receives a plain cached result.
    pub fn run_batch_observed(&self, jobs: &[Job], observers: &Observers) -> Vec<SimResult> {
        self.run(jobs, None, observers)
    }

    fn run(&self, jobs: &[Job], workers: Option<usize>, observers: &Observers) -> Vec<SimResult> {
        if let Some(addr) = &self.options.metrics_addr {
            telemetry::global().serve_once(addr);
        }
        let observers = self.options.observers.union(observers);
        let keys: Vec<JobKey> = jobs.iter().map(|j| j.key(&observers)).collect();

        // Unique uncached keys, in first-appearance order (deterministic).
        let mut pending: Vec<(JobKey, Job)> = Vec::new();
        {
            let cache = self.cache.lock_unpoisoned();
            for (job, key) in jobs.iter().zip(&keys) {
                if !cache.contains_key(key) && !pending.iter().any(|(k, _)| k == key) {
                    pending.push((key.clone(), *job));
                }
            }
        }

        let workers = workers.unwrap_or_else(|| worker_count(self.options.jobs, pending.len()));
        let fresh = self.run_pending(&pending, workers, &observers);

        // Batch-level self-profile aggregate (profiled jobs): merged
        // over fresh jobs and printed once; cache hits re-serve the
        // profile stored with their original run.
        let mut batch_profile: Option<PhaseProfile> = None;
        for r in &fresh {
            if let Some(p) = &r.profile {
                match batch_profile.as_mut() {
                    Some(agg) => agg.merge(p),
                    None => batch_profile = Some(p.clone()),
                }
            }
        }
        if let Some(p) = &batch_profile {
            eprintln!(
                "profile: aggregate over {} fresh jobs\n{}",
                fresh.len(),
                p.render()
            );
        }

        // Batch-level CPI-stack aggregate (accounted jobs): merged
        // over fresh jobs and printed once.
        let mut batch_stack: Option<CpiStack> = None;
        let mut batch_committed = 0u64;
        for r in &fresh {
            if let Some(s) = &r.cpi_stack {
                batch_committed += r.committed;
                match batch_stack.as_mut() {
                    Some(agg) => agg.merge(s),
                    None => batch_stack = Some(s.clone()),
                }
            }
        }
        if let Some(s) = &batch_stack {
            eprintln!(
                "cpi stack: aggregate over {} fresh jobs\n{}",
                fresh.len(),
                s.render(batch_committed)
            );
        }

        {
            let mut cache = self.cache.lock_unpoisoned();
            for ((key, _), result) in pending.iter().zip(fresh) {
                cache.insert(key.clone(), result);
            }
        }

        let cache = self.cache.lock_unpoisoned();
        let results: Vec<SimResult> = keys.iter().map(|k| cache[k].clone()).collect();
        drop(cache);

        // A job is "fresh" only at the first appearance of its key in this
        // batch, and only if that key was actually simulated here; repeats
        // and keys cached by earlier batches are hits.
        let ran: HashSet<&JobKey> = pending.iter().map(|(k, _)| k).collect();
        let mut first_seen: HashSet<&JobKey> = HashSet::new();
        let cached_flags: Vec<bool> = keys
            .iter()
            .map(|k| !(ran.contains(k) && first_seen.insert(k)))
            .collect();
        let batch_hits = cached_flags.iter().filter(|&&c| c).count() as u64;
        // lsq-lint: allow(relaxed-ordering-audit, reason = "monotonic tally; read only via stats() snapshots")
        self.hits.fetch_add(batch_hits, Ordering::Relaxed);
        self.misses
            // lsq-lint: allow(relaxed-ordering-audit, reason = "monotonic tally; read only via stats() snapshots")
            .fetch_add(pending.len() as u64, Ordering::Relaxed);
        telemetry::global().cache_counted(batch_hits, pending.len() as u64);

        {
            let mut records = self.records.lock_unpoisoned();
            for ((job, &cached), result) in jobs.iter().zip(&cached_flags).zip(&results) {
                records.push(JobRecord {
                    job: *job,
                    cached,
                    result: result.clone(),
                });
            }
        }
        // Capped runs report truncated counters: say so loudly at batch
        // end instead of letting a deadlocked configuration pass as a
        // slow one.
        let capped_labels: Vec<String> = jobs
            .iter()
            .zip(&results)
            .filter(|(_, r)| r.hit_cycle_cap)
            .map(|(j, _)| job_label(j))
            .collect();
        if let Some(warning) = capped_warning(&capped_labels) {
            eprintln!("{warning}");
        }
        if let Some(path) = &self.options.experiments_json {
            self.dump_json(path);
        }
        results
    }

    /// Runs the uncached jobs on `workers` work-stealing threads.
    fn run_pending(
        &self,
        pending: &[(JobKey, Job)],
        workers: usize,
        observers: &Observers,
    ) -> Vec<SimResult> {
        let total = pending.len();
        if total == 0 {
            return Vec::new();
        }
        let workers = workers.clamp(1, total);
        let done = AtomicUsize::new(0);
        let started = Instant::now();
        let progress = self
            .options
            .progress
            .unwrap_or_else(|| std::io::stderr().is_terminal());
        let tel = telemetry::global();
        tel.batch_started(total, workers);
        let results = steal(workers, total, |w, idx, stolen| {
            let job = pending[idx].1;
            tel.job_claimed(w, job_label(&job), stolen);
            let t0 = Instant::now();
            let mut r = crate::runner::run_job(&job, observers);
            let wall = t0.elapsed();
            r.wall_nanos = wall.as_nanos() as u64;
            let simulated = (job.spec.warmup + r.committed) as f64;
            r.sim_mips = simulated / wall.as_secs_f64().max(1e-12) / 1e6;
            tel.job_finished(w, &r, job.spec.warmup);
            // lsq-lint: allow(relaxed-ordering-audit, reason = "progress tally; result hand-off is ordered by the per-slot mutex")
            let n = done.fetch_add(1, Ordering::Relaxed) + 1;
            if progress {
                report_progress(n, total, started);
            }
            r
        });
        if progress {
            eprintln!();
        }
        results
    }

    /// Writes every job recorded so far as a JSON array to `path`
    /// (one record object per line for greppability). Failures are
    /// reported on stderr, not fatal — a bad dump path must not kill an
    /// hour of simulation.
    fn dump_json(&self, path: &Path) {
        let records = self.records.lock_unpoisoned();
        let mut out = String::from("[\n");
        for (i, r) in records.iter().enumerate() {
            out.push_str("  ");
            out.push_str(&r.to_json().to_string());
            out.push_str(if i + 1 == records.len() { "\n" } else { ",\n" });
        }
        out.push_str("]\n");
        if let Err(e) = std::fs::write(path, out) {
            eprintln!(
                "warning: could not write LSQ_EXPERIMENTS_JSON={}: {e}",
                path.display()
            );
        }
    }

    /// Runs arbitrary closures on the engine's work-stealing scheduler,
    /// returning their results in input order. Sized like
    /// [`Engine::run_batch`] but bypasses the result cache (the tasks are
    /// opaque). Used by workloads that are not design-point runs, e.g. the
    /// `calibrate` seed scan.
    pub fn run_tasks<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let total = tasks.len();
        let slots: Vec<Mutex<Option<F>>> = tasks.into_iter().map(|f| Mutex::new(Some(f))).collect();
        steal(
            worker_count(self.options.jobs, total),
            total,
            |_, idx, _| {
                let task = slots[idx].lock_unpoisoned().take();
                // lsq-lint: allow(no-unwrap-in-lib, reason = "each index is enqueued exactly once, so the claimed slot still holds its closure")
                task.expect("task claimed once")()
            },
        )
    }
}

/// Runs `work(worker, index, stolen)` for every index in `0..total` on
/// `workers` work-stealing threads and returns the results in index
/// order.
///
/// Each worker owns a deque seeded round-robin; it pops its own work
/// from the front and, when empty, steals from the back of a
/// neighbour's. No new work appears mid-run, so a worker exits once
/// every deque is empty.
fn steal<T: Send>(
    workers: usize,
    total: usize,
    work: impl Fn(usize, usize, bool) -> T + Sync,
) -> Vec<T> {
    let deques: Vec<Mutex<VecDeque<usize>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for i in 0..total {
        deques[i % workers].lock_unpoisoned().push_back(i);
    }
    let results: Vec<Mutex<Option<T>>> = (0..total).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for w in 0..workers.min(total) {
            let (deques, results, work) = (&deques, &results, &work);
            scope.spawn(move || loop {
                let mut stolen = false;
                let mut claimed = deques[w].lock_unpoisoned().pop_front();
                if claimed.is_none() {
                    for (o, other) in deques.iter().enumerate() {
                        claimed = other.lock_unpoisoned().pop_back();
                        if claimed.is_some() {
                            stolen = o != w;
                            break;
                        }
                    }
                }
                let Some(idx) = claimed else { break };
                *results[idx].lock_unpoisoned() = Some(work(w, idx, stolen));
            });
        }
    });
    results
        .into_iter()
        .map(|slot| {
            let r = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
            // lsq-lint: allow(no-unwrap-in-lib, reason = "thread::scope joined every worker (propagating any panic), so each slot is filled")
            r.expect("every task runs")
        })
        .collect()
}

/// Number of worker threads for `jobs` queued jobs: `requested` (the
/// `LSQ_JOBS` option) when set, else
/// `std::thread::available_parallelism()`; always within
/// `1..=max(jobs, 1)`.
pub fn worker_count(requested: Option<usize>, jobs: usize) -> usize {
    requested
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        .clamp(1, jobs.max(1))
}

/// The batch-end warning for jobs that ended on the safety cycle cap
/// (their counters cover a truncated run), or `None` when no job was
/// capped. Separated from the stderr print for testing.
fn capped_warning(labels: &[String]) -> Option<String> {
    if labels.is_empty() {
        return None;
    }
    let mut msg = format!(
        "warning: {} job(s) hit the safety cycle cap — counters are \
         truncated and the configuration may be deadlocked:",
        labels.len()
    );
    for label in labels {
        msg.push_str("\n  capped: ");
        msg.push_str(label);
    }
    Some(msg)
}

/// Short human label for the `/jobs` worker view.
fn job_label(job: &Job) -> String {
    format!(
        "{} ports={} pred={:?}{}{}",
        job.bench,
        job.lsq.ports,
        job.lsq.predictor,
        if job.lsq.segmentation.is_some() {
            " segmented"
        } else {
            ""
        },
        if job.scaled { " scaled" } else { "" },
    )
}

fn report_progress(done: usize, total: usize, started: Instant) {
    let elapsed = started.elapsed().as_secs_f64();
    let eta = elapsed / done as f64 * (total - done) as f64;
    let mut err = std::io::stderr().lock();
    let _ = write!(
        err,
        "\r[{done}/{total}] jobs, {elapsed:.1}s elapsed, eta {eta:.1}s   "
    );
    let _ = err.flush();
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: RunSpec = RunSpec {
        warmup: 200,
        instrs: 800,
        seed: 1,
    };

    fn job(bench: &'static str) -> Job {
        Job {
            bench,
            lsq: LsqConfig::default(),
            scaled: false,
            spec: TINY,
        }
    }

    /// Non-timing fields of two results must match bit-for-bit.
    fn assert_same_counters(a: &SimResult, b: &SimResult) {
        let strip = |r: &SimResult| {
            let mut r = r.clone();
            r.wall_nanos = 0;
            r.sim_mips = 0.0;
            r.profile = None;
            r
        };
        let (a, b) = (strip(a), strip(b));
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }

    #[test]
    fn worker_count_bounds() {
        // A requested count wins.
        assert_eq!(worker_count(Some(3), 100), 3);
        // Unset falls back to the host's parallelism.
        let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(worker_count(None, 100), parallelism.min(100));
        // Never more workers than jobs, never fewer than one.
        assert_eq!(worker_count(Some(64), 5), 5);
        assert_eq!(worker_count(None, 0), 1);
        assert_eq!(worker_count(Some(1), 0), 1);
    }

    #[test]
    fn batch_results_are_in_job_order_and_deduplicated() {
        let engine = Engine::new();
        let jobs = [job("gzip"), job("mcf"), job("gzip")];
        let results = engine.run_batch_with_workers(&jobs, Some(2));
        assert_eq!(results.len(), 3);
        // Duplicate jobs return the identical result.
        assert_same_counters(&results[0], &results[2]);
        // Different benchmarks genuinely differ.
        assert_ne!(results[0].cycles, results[1].cycles);
        let (hits, misses) = engine.stats();
        assert_eq!(misses, 2, "gzip simulated once, mcf once");
        assert_eq!(hits, 1, "second gzip job served from cache");
    }

    #[test]
    fn cache_hit_equals_fresh_run() {
        let engine = Engine::new();
        let fresh = engine.run_batch_with_workers(&[job("gzip")], Some(1));
        let cached = engine.run_batch_with_workers(&[job("gzip")], Some(1));
        assert_same_counters(&fresh[0], &cached[0]);
        let (hits, misses) = engine.stats();
        assert_eq!((hits, misses), (1, 1));
        // An independent engine reproduces the same counters from scratch.
        let other = Engine::new().run_batch_with_workers(&[job("gzip")], Some(1));
        assert_same_counters(&fresh[0], &other[0]);
    }

    #[test]
    fn results_identical_across_worker_counts() {
        let jobs = [job("gzip"), job("mcf"), job("equake"), job("bzip")];
        let serial = Engine::new().run_batch_with_workers(&jobs, Some(1));
        let parallel = Engine::new().run_batch_with_workers(&jobs, Some(4));
        for (s, p) in serial.iter().zip(&parallel) {
            assert_same_counters(s, p);
        }
    }

    #[test]
    fn fresh_results_carry_timing() {
        let engine = Engine::new();
        let r = &engine.run_batch_with_workers(&[job("gzip")], Some(1))[0];
        assert!(r.wall_nanos > 0, "engine stamps wall time");
        assert!(r.sim_mips > 0.0, "engine stamps simulation rate");
    }

    #[test]
    fn scaled_and_base_do_not_collide() {
        let engine = Engine::new();
        let base = job("gzip");
        let scaled = Job {
            scaled: true,
            ..base
        };
        let results = engine.run_batch_with_workers(&[base, scaled], Some(1));
        let (hits, misses) = engine.stats();
        assert_eq!((hits, misses), (0, 2));
        assert_ne!(results[0].cycles, results[1].cycles);
    }

    #[test]
    fn run_tasks_preserves_order() {
        let tasks: Vec<_> = (0..17).map(|i| move || i * 3).collect();
        let engine = Engine::new();
        assert_eq!(
            engine.run_tasks(tasks),
            (0..17).map(|i| i * 3).collect::<Vec<_>>()
        );
        let empty: Vec<fn() -> i32> = Vec::new();
        assert_eq!(engine.run_tasks(empty), Vec::<i32>::new());
    }

    #[test]
    fn json_dump_parses_and_carries_violation_counters() {
        let engine = Engine::new();
        let _ = engine.run_batch_with_workers(&[job("gzip"), job("gzip")], Some(1));
        let path = std::env::temp_dir().join("lsq_engine_dump_test.json");
        engine.dump_json(&path);
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        let parsed = Json::parse(&text).expect("dump is valid JSON");
        let records = parsed.as_arr().expect("dump is an array");
        assert_eq!(records.len(), 2);
        let get_str = |r: &Json, k: &str| r.get(k).and_then(Json::as_str).map(str::to_string);
        let get_bool = |r: &Json, k: &str| r.get(k).and_then(Json::as_bool);
        assert_eq!(get_str(&records[0], "bench").as_deref(), Some("gzip"));
        assert_eq!(get_bool(&records[0], "cached"), Some(false));
        assert_eq!(get_bool(&records[1], "cached"), Some(true));
        // Both records describe the same simulation: identical counters.
        for key in [
            "cycles",
            "committed",
            "violations",
            "commit_violations",
            "useless_searches",
            "load_load_violations",
            "violation_squashes",
            "instructions_squashed",
            "sq_port_stalls",
            "lq_port_stalls",
            "commit_port_delays",
        ] {
            let a = records[0].get(key).and_then(Json::as_u64);
            let b = records[1].get(key).and_then(Json::as_u64);
            assert!(a.is_some(), "record has {key}");
            assert_eq!(a, b, "{key} survives the cache");
        }
        assert!(
            records[0].get("ipc").and_then(Json::as_f64).unwrap() > 0.1,
            "ipc serialized as a number"
        );
        // Accounting off, healthy runs: explicit capped flag, no stack.
        assert_eq!(get_bool(&records[0], "capped"), Some(false));
        assert!(
            matches!(records[0].get("cpi_stack"), Some(Json::Null)),
            "cpi_stack field present but null without LSQ_ACCOUNTING"
        );
        assert!(
            matches!(records[0].get("stage_latency"), Some(Json::Null)),
            "stage_latency field present but null without LSQ_PIPEVIEW"
        );
    }

    #[test]
    fn capped_warning_lists_offending_jobs() {
        assert_eq!(capped_warning(&[]), None);
        let labels = vec!["gzip ports=2".to_string(), "mcf ports=1".to_string()];
        let w = capped_warning(&labels).expect("capped jobs warn");
        assert!(w.contains("2 job(s)"), "{w}");
        assert!(w.contains("capped: gzip ports=2"), "{w}");
        assert!(w.contains("capped: mcf ports=1"), "{w}");
        assert!(w.contains("truncated"), "{w}");
    }
}
