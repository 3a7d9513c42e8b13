//! The workloads (`seg-search`, `mem-stall`): jobs driven through
//! `Simulator` on this thread, one after another.
//!
//! A pass runs every job of the workload once. The untraced run times a
//! fixed number of passes and reports the best time of every piece of
//! work over them (see [`untraced`]). The traced run repeats
//! rounds of one untraced pass followed by the same jobs taken apart
//! layer by layer, and reports the median round.

use crate::drive::{fold_digests, job_failure, run_job, sim_digest, JobRun};
use crate::host;
use crate::layers::{clock_cost_ns, layer_metrics, trace_job};
use crate::metrics::{best_of, geomean, median, median_of, percentile, ratio, Metric};
use crate::outcome::{catch, median_metrics, Outcome};
use crate::workload::{Budget, JobSpec, Workload};
use lsq_experiments::{Engine, Job, RunSpec};
use lsq_obs::Json;
use lsq_pipeline::{SimConfig, SimResult};
use std::time::{Duration, Instant};

/// One pass over every job.
struct Pass {
    wall_ns: u64,
    runs: Vec<JobRun>,
}

fn run_pass(jobs: &[JobSpec], seed: u64, b: Budget, out: &mut Outcome) -> Pass {
    let t = Instant::now();
    let mut runs = Vec::with_capacity(jobs.len());
    for job in jobs {
        out.attempted += 1;
        match catch(|| run_job(job, seed, b)) {
            Ok(run) => {
                if let Some(why) = job_failure(&run.driven, b) {
                    out.failed_jobs.push(format!("{}: {why}", run.label));
                }
                runs.push(run);
            }
            Err(panic) => out
                .failed_jobs
                .push(format!("{}: panicked: {panic}", job.label())),
        }
    }
    Pass {
        wall_ns: t.elapsed().as_nanos() as u64,
        runs,
    }
}

fn pass_digest(p: &Pass) -> u64 {
    fold_digests(p.runs.iter().map(|r| sim_digest(&r.driven.result)))
}

/// The untraced run: end-to-end metrics.
///
/// The run times [`Budget::passes`] passes, a count fixed by `seconds`
/// and the workload, so that every build takes its best-of over the same
/// number of observations; if they do not all finish within twice
/// `seconds`, the run fails. Every pass times the same pieces of work:
/// per job its set-up, each warm-up chunk and each measured chunk.
/// Passes are folded in as they finish, so memory does not grow with the
/// pass count: simulation times are the best of the passes per piece,
/// and set-up is the median per job over the passes.
pub fn untraced(w: Workload, seed: u64, seconds: f64, b: Budget) -> Outcome {
    let mut out = Outcome::default();
    let jobs = w.jobs();
    let passes = b.passes(seconds);
    let deadline = Instant::now() + Duration::from_secs_f64(2.0 * seconds);
    let mut first: Option<Pass> = None;
    let mut best: Option<Vec<f64>> = None;
    let mut setups: Vec<Vec<f64>> = Vec::new();
    let mut pass_walls: Vec<f64> = Vec::new();
    loop {
        let pass = run_pass(&jobs, seed, b, &mut out);
        let times: Vec<f64> = pass
            .runs
            .iter()
            .flat_map(|r| r.driven.warmup_ns.iter().chain(&r.driven.chunk_ns))
            .map(|&ns| ns as f64)
            .collect();
        best = match best {
            None => Some(times),
            Some(prev) => best_of(&[prev, times]),
        };
        setups.push(pass.runs.iter().map(|r| r.setup_ns as f64).collect());
        pass_walls.push(pass.wall_ns as f64 / 1e9);
        match &first {
            None => first = Some(pass),
            Some(f) if pass_digest(f) != pass_digest(&pass) => out
                .check_errors
                .push("passes with the same seed simulated different counters".to_string()),
            Some(_) => {}
        }
        if pass_walls.len() == passes || !out.correct() {
            break;
        }
        if Instant::now() >= deadline {
            out.check_errors.push(format!(
                "only {} of {passes} passes finished within {:.0} s",
                pass_walls.len(),
                2.0 * seconds
            ));
            break;
        }
    }
    let (Some(first), Some(best), Some(setup), Some(best_setup)) =
        (first, best, median_of(&setups), best_of(&setups))
    else {
        out.check_errors
            .push("passes did not run the same jobs and chunks".to_string());
        return out;
    };

    let simulated: u64 = first.runs.iter().map(|r| r.driven.total_committed).sum();
    let cycles: u64 = first.runs.iter().map(|r| r.driven.total_cycles).sum();
    let ipcs: Vec<f64> = first.runs.iter().map(|r| r.driven.result.ipc()).collect();
    // The measured chunks of each job follow its warm-up chunks in
    // `best`. Each job's chunk percentiles are taken over its own chunks
    // and then combined by geomean, so every job weighs the same and a
    // percentile never falls on the boundary between two jobs' speeds.
    let (mut p50s, mut p90s) = (Vec::new(), Vec::new());
    let mut samples = 0;
    let mut at = 0;
    for r in &first.runs {
        at += r.driven.warmup_ns.len();
        let n = r.driven.chunk_ns.len();
        let chunks_us: Vec<f64> = best[at..at + n].iter().map(|ns| ns / 1e3).collect();
        at += n;
        samples = n;
        match (percentile(&chunks_us, 0.5), percentile(&chunks_us, 0.9)) {
            (Some(p50), Some(p90)) => {
                p50s.push(p50);
                p90s.push(p90);
            }
            _ => out.check_errors.push(format!(
                "{}: {n} chunks are too few for a p90 with 10 samples above it",
                r.label
            )),
        }
    }
    let sim_ns: f64 = best.iter().sum();
    let setup_ns: f64 = setup.iter().sum();
    // Like the simulation pieces, `wall_s` counts each set-up at its best.
    let wall_s = (best_setup.iter().sum::<f64>() + sim_ns) / 1e9;
    let p50 = geomean(&p50s);
    let p90 = geomean(&p90s);
    out.metrics = vec![
        Metric::new("wall_s", "s", wall_s),
        Metric::new("sim_mips", "MIPS", ratio(simulated as f64, wall_s) / 1e6),
        Metric::new("ns_per_cycle", "ns", ratio(sim_ns, cycles as f64)),
        Metric::new("chunk_us.p50", "us", p50.unwrap_or(0.0)),
        Metric::new("chunk_us.p90", "us", p90.unwrap_or(0.0)),
        Metric::new("setup_s", "s", setup_ns / 1e9),
        Metric::new("sim_ipc", "instr/cycle", geomean(&ipcs).unwrap_or(0.0)),
    ];
    out.note("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0));
    out.note("passes", pass_walls.len());
    out.note("pass_wall_s_median", median(&pass_walls).unwrap_or(0.0));
    out.note("jobs_per_pass", jobs.len());
    out.note("chunk_instrs", b.chunk);
    out.note("chunk_samples_per_job", samples);
    out.note("warmup_instrs", b.warmup);
    out.note("measured_instrs", b.instrs);
    out.note("sim_digest", format!("{:016x}", pass_digest(&first)));
    out
}

/// The traced run: per-layer metrics.
pub fn traced(w: Workload, seed: u64, seconds: f64, b: Budget) -> Outcome {
    let mut out = Outcome::default();
    let jobs = w.jobs();
    let clock = clock_cost_ns();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut rounds = Vec::new();
    let mut reference_digest = None;
    loop {
        let pass = run_pass(&jobs, seed, b, &mut out);
        let digest = pass_digest(&pass);
        if *reference_digest.get_or_insert(digest) != digest {
            out.check_errors
                .push("untraced passes simulated different counters".to_string());
        }
        let t = Instant::now();
        let mut samples = Vec::new();
        let mut references: Vec<&SimResult> = Vec::new();
        for (job, run) in jobs.iter().zip(&pass.runs) {
            let cfg = SimConfig::with_lsq(job.lsq);
            let reference = &run.driven.result;
            match catch(|| trace_job(job.profile, cfg, seed, b, reference, clock)) {
                Ok(Ok(s)) => {
                    samples.push(s);
                    references.push(reference);
                }
                Ok(Err(e)) => out.check_errors.push(format!("{}: {e}", run.label)),
                Err(panic) => out
                    .check_errors
                    .push(format!("{}: traced run panicked: {panic}", run.label)),
            }
        }
        let traced_ns = t.elapsed().as_nanos() as u64;
        let mut m = layer_metrics(&samples, &references);
        match engine_metrics(&jobs, seed, b) {
            Ok(e) => m.extend(e),
            Err(e) => out.check_errors.push(e),
        }
        m.push(Metric::new(
            "traced.overhead_ratio",
            "ratio",
            ratio(traced_ns as f64, pass.wall_ns as f64),
        ));
        rounds.push(m);
        if Instant::now() >= deadline || !out.correct() {
            break;
        }
    }
    out.metrics = median_metrics(&rounds);
    out.note("rounds", rounds.len());
    out.note("jobs_per_round", jobs.len());
    out.note("clock_cost_ns", clock);
    out.note(
        "sim_digest",
        format!("{:016x}", reference_digest.unwrap_or(0)),
    );
    out
}

/// The `engine.*` metrics of a workload: its jobs, submitted as one
/// batch to a private experiment engine with a worker on every CPU (at
/// most four). `busy_frac` is Σ job wall / (batch wall × workers).
fn engine_metrics(jobs: &[JobSpec], seed: u64, b: Budget) -> Result<Vec<Metric>, String> {
    let spec = RunSpec {
        warmup: b.warmup,
        instrs: b.instrs,
        seed,
    };
    let batch: Vec<Job> = jobs
        .iter()
        .map(|j| Job {
            bench: j.profile.name,
            lsq: j.lsq,
            scaled: false,
            spec,
        })
        .collect();
    let workers = host::nproc().min(4);
    let engine = Engine::new();
    let steals_before = engine_steals();
    let t = Instant::now();
    let results = catch(|| engine.run_batch_with_workers(&batch, Some(workers)))
        .map_err(|panic| format!("the engine pass panicked: {panic}"))?;
    let wall_ns = t.elapsed().as_nanos() as f64;
    let steals = engine_steals() - steals_before;
    let (hits, unique) = engine.stats();
    if unique != batch.len() as u64 || hits != 0 {
        return Err(format!(
            "the engine ran {unique} unique jobs and {hits} cache hits for {} submitted",
            batch.len()
        ));
    }
    if let Some(r) = results
        .iter()
        .find(|r| r.hit_cycle_cap || r.committed < b.instrs)
    {
        return Err(format!(
            "an engine job committed {} of its {} budget",
            r.committed, b.instrs
        ));
    }
    let busy: f64 = results.iter().map(|r| r.wall_nanos as f64).sum();
    Ok(vec![
        Metric::new("engine.steals", "count", steals as f64),
        Metric::new(
            "engine.busy_frac",
            "ratio",
            ratio(busy, wall_ns * workers as f64),
        ),
    ])
}

/// Jobs taken from another worker's deque, process-wide, so far.
fn engine_steals() -> u64 {
    lsq_experiments::telemetry::global()
        .jobs_json()
        .get("steals")
        .and_then(Json::as_u64)
        .unwrap_or(0)
}
