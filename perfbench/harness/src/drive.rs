//! Driving one job through the simulator's public API, and the digest
//! of its simulated counters.
//!
//! A job is: build the workload's program and stream, build the
//! simulator, prewarm its caches (the set-up), run the warm-up window,
//! snapshot, then run the measured window as repeated `Simulator::run`
//! calls of one chunk each. Every call continues the same machine state;
//! nothing drains between chunks. The measured-window result is the
//! difference of the last and the snapshot result, exactly as the
//! experiment engine computes it.

use crate::workload::{Budget, JobSpec};
use lsq_experiments::runner::diff_results;
use lsq_isa::InstructionStream;
use lsq_obs::Tracer;
use lsq_pipeline::{CycleAccountant, Lifecycle, Profiler, SimConfig, SimResult, Simulator};
use lsq_util::FastHasher;
use std::hash::Hasher;
use std::time::Instant;

/// What one driven simulation produced.
#[derive(Debug, Clone)]
pub struct Driven {
    /// Measured-window result (warm-up differenced away).
    pub result: SimResult,
    /// Cumulative cycles, warm-up included.
    pub total_cycles: u64,
    /// Cumulative committed instructions, warm-up included.
    pub total_committed: u64,
    /// Host nanoseconds inside `Simulator::run`, warm-up included.
    pub sim_ns: u64,
    /// Host nanoseconds of each warm-up chunk, in order.
    pub warmup_ns: Vec<u64>,
    /// Host nanoseconds of each measured chunk, in order.
    pub chunk_ns: Vec<u64>,
    /// Whether any `run` call ended on the safety cycle cap.
    pub hit_cycle_cap: bool,
}

/// Runs the warm-up window and then the measured window in chunks.
pub fn drive<T, P, A, L, S>(sim: &mut Simulator<T, P, A, L>, stream: &mut S, b: Budget) -> Driven
where
    T: Tracer + Clone,
    P: Profiler,
    A: CycleAccountant,
    L: Lifecycle,
    S: InstructionStream,
{
    let started = Instant::now();
    let mut hit_cycle_cap = false;
    // The warm-up window runs in chunks too, so each timed piece is
    // short; a window no longer than one chunk is one `run` call, as in
    // the experiment engine.
    let mut warmup_ns = Vec::new();
    let mut warmed = 0;
    while warmed < b.warmup && !hit_cycle_cap {
        let t = Instant::now();
        let r = sim.run(stream, b.chunk.min(b.warmup - warmed));
        warmup_ns.push(t.elapsed().as_nanos() as u64);
        hit_cycle_cap |= r.hit_cycle_cap;
        if r.committed == warmed {
            break;
        }
        warmed = r.committed;
    }
    let before = sim.run(stream, 0);
    let mut after = before.clone();
    let mut chunk_ns = Vec::with_capacity((b.instrs / b.chunk.max(1)) as usize + 1);
    // Chunks end at fixed multiples of `chunk` past the snapshot, so the
    // few instructions a cycle commits past its target do not add up.
    let mut boundary = before.committed;
    while after.committed - before.committed < b.instrs && !hit_cycle_cap {
        boundary += b.chunk;
        let t = Instant::now();
        let next = sim.run(stream, boundary.saturating_sub(after.committed).max(1));
        chunk_ns.push(t.elapsed().as_nanos() as u64);
        hit_cycle_cap |= next.hit_cycle_cap;
        let stalled = next.committed == after.committed;
        after = next;
        if stalled {
            // The stream ended: no further call can make progress.
            break;
        }
    }
    Driven {
        result: diff_results(&before, &after),
        total_cycles: after.cycles,
        total_committed: after.committed,
        sim_ns: started.elapsed().as_nanos() as u64,
        warmup_ns,
        chunk_ns,
        hit_cycle_cap,
    }
}

/// One direct job, untraced: set-up timed, then [`drive`]n.
#[derive(Debug, Clone)]
pub struct JobRun {
    /// `bench/point`.
    pub label: String,
    /// Host ns for program build, `Simulator::new` and `prewarm`.
    pub setup_ns: u64,
    /// The driven simulation.
    pub driven: Driven,
}

/// Runs `job` on the base processor with the workload stream of `seed`.
pub fn run_job(job: &JobSpec, seed: u64, b: Budget) -> JobRun {
    let t = Instant::now();
    let mut stream = job.profile.stream(seed);
    let mut sim = Simulator::new(SimConfig::with_lsq(job.lsq));
    sim.prewarm(&stream.data_regions(), stream.code_region());
    let setup_ns = t.elapsed().as_nanos() as u64;
    let driven = drive(&mut sim, &mut stream, b);
    JobRun {
        label: job.label(),
        setup_ns,
        driven,
    }
}

/// Why a job counts as failed, or `None` when it met its budget.
pub fn job_failure(d: &Driven, b: Budget) -> Option<String> {
    if d.hit_cycle_cap {
        Some("hit the safety cycle cap".to_string())
    } else if d.result.committed < b.instrs {
        Some(format!(
            "committed {} of its {} budget",
            d.result.committed, b.instrs
        ))
    } else {
        None
    }
}

/// A hash of every simulated counter of a measured-window result: the
/// run counters, every `LsqStats` field, the segment histogram, and the
/// bit patterns of the miss rates and occupancy means. Host timing
/// (`wall_nanos`, `sim_mips`, `profile`) is left out, so the digest
/// moves only when the modelled machine does.
pub fn sim_digest(r: &SimResult) -> u64 {
    let s = &r.lsq;
    let mut h = FastHasher::default();
    for v in [
        r.cycles,
        r.committed,
        r.loads_committed,
        r.stores_committed,
        r.branches_committed,
        r.branch_predictions,
        r.branch_mispredictions,
        r.violation_squashes,
        r.instructions_squashed,
        u64::from(r.hit_cycle_cap),
        r.lq_occupancy.to_bits(),
        r.sq_occupancy.to_bits(),
        r.ooo_issued_loads.to_bits(),
        r.inflight_loads.to_bits(),
        r.l1d_miss_rate.to_bits(),
        r.l2_miss_rate.to_bits(),
        s.loads_dispatched,
        s.stores_dispatched,
        s.loads_issued,
        s.stores_issued,
        s.stores_committed,
        s.sq_searches,
        s.sq_search_hits,
        s.lq_searches_by_stores,
        s.lq_searches_by_loads,
        s.lb_searches,
        s.violations,
        s.commit_violations,
        s.useless_searches,
        s.load_load_violations,
        s.invalidations,
        s.invalidation_squashes,
        s.sq_port_stalls,
        s.lq_port_stalls,
        s.commit_port_delays,
        s.lb_full_stalls,
        s.in_order_stalls,
        s.store_set_waits,
        s.seg_search_hist.overflow(),
    ] {
        h.write_u64(v);
    }
    for (bucket, count) in s.seg_search_hist.iter() {
        h.write_u64(bucket as u64);
        h.write_u64(count);
    }
    h.finish()
}

/// Folds per-job digests, in job order, into one workload digest.
pub fn fold_digests(digests: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = FastHasher::default();
    for d in digests {
        h.write_u64(d);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{Scale, Workload};

    #[test]
    fn chunked_job_meets_budget_and_repeats_exactly() {
        let job = Workload::SegSearch.jobs()[0];
        let b = Scale::Tiny.budget(Workload::SegSearch);
        let a = run_job(&job, 3, b);
        let again = run_job(&job, 3, b);
        assert_eq!(job_failure(&a.driven, b), None);
        assert_eq!(a.driven.chunk_ns.len() as u64, b.instrs / b.chunk);
        assert_eq!(
            sim_digest(&a.driven.result),
            sim_digest(&again.driven.result)
        );
        assert!(a.driven.total_committed >= b.warmup + b.instrs);
    }

    #[test]
    fn digest_sees_lsq_counters() {
        let job = Workload::MemStall.jobs()[0];
        let b = Scale::Tiny.budget(Workload::MemStall);
        let mut r = run_job(&job, 1, b).driven.result;
        let d = sim_digest(&r);
        r.lsq.sq_port_stalls += 1;
        assert_ne!(sim_digest(&r), d);
        r.lsq.sq_port_stalls -= 1;
        r.wall_nanos += 1;
        assert_eq!(sim_digest(&r), d, "host timing is not part of the digest");
    }

    #[test]
    fn short_budget_is_a_failure() {
        let job = Workload::SegSearch.jobs()[1];
        let b = Scale::Tiny.budget(Workload::SegSearch);
        let d = run_job(&job, 1, b).driven;
        let greedy = Budget {
            instrs: d.result.committed + 1,
            ..b
        };
        assert!(job_failure(&d, greedy).is_some());
    }
}
