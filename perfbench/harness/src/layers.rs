//! The traced run: one job taken apart layer by layer, timed from here.
//!
//! Nothing inside the simulator is instrumented. Each layer is measured
//! by calling its public functions from this file:
//!
//! * `lsq-trace`: the job's instruction stream is materialised into a
//!   vector under one clock (bulk timing; a clock read per instruction
//!   would cost several times the work it measures).
//! * `lsq-pipeline`: `Simulator::run` on that vector (a `VecStream`), so
//!   trace generation is excluded, then a second pass with the
//!   simulator's own `WallProfiler` for the phase split.
//! * `lsq-core`: the job's loads and stores are replayed through a fresh
//!   `Lsq` by a small in-order commit / out-of-order issue loop.
//! * `lsq-mem`: the job's data addresses and fetch blocks are replayed
//!   through a fresh, prewarmed `MemoryHierarchy`.
//!
//! Both simulator passes must reproduce the untraced run's simulated
//! counters bit for bit; otherwise the per-layer numbers would describe
//! a different program, and the job fails.

use crate::drive::{drive, sim_digest, Driven};
use crate::metrics::{ratio, Metric};
use crate::workload::Budget;
use lsq_core::{LoadIssue, Lsq, LsqConfig, StoreDrain, StoreIssue};
use lsq_isa::{Instruction, InstructionStream, VecStream};
use lsq_mem::MemoryHierarchy;
use lsq_obs::NopTracer;
use lsq_pipeline::{SimConfig, SimResult, Simulator, WallProfiler};
use lsq_trace::{BenchProfile, TraceGenerator};
use std::hint::black_box;
use std::time::Instant;

/// Phases whose share of the profiled cycle is reported, by
/// `lsq_pipeline::Phase::name`. `squash` is nested and rare, so it is
/// left out.
pub const PHASES: [&str; 6] = [
    "fetch",
    "dispatch",
    "wakeup_issue",
    "lsq_search",
    "segment_advance",
    "commit",
];

/// The metric name of each entry of [`PHASES`].
const PHASE_METRICS: [&str; 6] = [
    "pipeline.phase.fetch.share",
    "pipeline.phase.dispatch.share",
    "pipeline.phase.wakeup_issue.share",
    "pipeline.phase.lsq_search.share",
    "pipeline.phase.segment_advance.share",
    "pipeline.phase.commit.share",
];

/// Accumulated host time and call count of one timed operation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Timed {
    /// Host nanoseconds, clock cost already subtracted.
    pub ns: f64,
    /// Calls covered.
    pub calls: u64,
}

impl Timed {
    /// Mean nanoseconds per call (0 when nothing was called).
    pub fn per_call(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns / self.calls as f64
        }
    }

    /// Folds another accumulator into this one.
    pub fn add(&mut self, other: Timed) {
        self.ns += other.ns;
        self.calls += other.calls;
    }
}

/// One job's per-layer measurements.
#[derive(Debug, Clone, Default)]
pub struct LayerSample {
    /// Program build (`BenchProfile::program`), ns.
    pub program_build_ns: f64,
    /// Stream materialisation: ns over instructions produced.
    pub trace: Timed,
    /// Cache prewarm in the plain pipeline pass, ns.
    pub prewarm_ns: f64,
    /// `Simulator::run` on the vector: ns over simulated cycles.
    pub pipeline: Timed,
    /// The same with the `WallProfiler` attached: ns over cycles.
    pub profiled: Timed,
    /// Profiled nanoseconds per phase, in [`PHASES`] order.
    pub phase_ns: [u64; PHASES.len()],
    /// Profiled nanoseconds of the un-nested phases (the share base).
    pub phase_total_ns: u64,
    /// `Lsq::load_issue` calls.
    pub load_issue: Timed,
    /// `Lsq::store_issue` calls.
    pub store_issue: Timed,
    /// `Lsq::drain_store` calls.
    pub drain: Timed,
    /// `MemoryHierarchy::data_access` calls.
    pub data_access: Timed,
    /// `MemoryHierarchy::inst_fetch` calls.
    pub inst_fetch: Timed,
}

/// Host cost of one `Instant::now()` + `elapsed()` pair, subtracted from
/// every short timed span. The median of many pairs.
pub fn clock_cost_ns() -> f64 {
    let mut samples: Vec<u128> = (0..2_001)
        .map(|_| {
            let t = Instant::now();
            black_box(t.elapsed().as_nanos())
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2] as f64
}

fn span_ns(t: Instant, clock: f64) -> f64 {
    (t.elapsed().as_nanos() as f64 - clock).max(0.0)
}

/// Takes one job apart layer by layer. `reference` is the untraced run
/// of the same job; any difference in simulated counters is an error.
pub fn trace_job(
    profile: &BenchProfile,
    cfg: SimConfig,
    seed: u64,
    b: Budget,
    reference: &SimResult,
    clock: f64,
) -> Result<LayerSample, String> {
    let mut s = LayerSample::default();

    // lsq-trace: the same program and stream `BenchProfile::stream`
    // builds, materialised with enough slack for fetch run-ahead and
    // per-chunk commit overshoot.
    let t = Instant::now();
    let program = profile.program();
    s.program_build_ns = span_ns(t, clock);
    let mut gen = TraceGenerator::new(profile.name, program, seed);
    let regions = gen.data_regions();
    let code = gen.code_region();
    let chunks = b.instrs / b.chunk.max(1) + 2;
    let wanted = b.warmup + b.instrs + chunks * 16 + 4_096;
    let t = Instant::now();
    let instrs: Vec<Instruction> = (0..wanted).map_while(|_| gen.next_instr()).collect();
    s.trace = Timed {
        ns: span_ns(t, clock),
        calls: instrs.len() as u64,
    };

    // lsq-pipeline, plain.
    let mut sim = Simulator::new(cfg.clone());
    let t = Instant::now();
    sim.prewarm(&regions, code);
    s.prewarm_ns = span_ns(t, clock);
    let plain = drive(&mut sim, &mut VecStream::new(instrs.clone()), b);
    check_same(reference, &plain, "the VecStream pass")?;
    s.pipeline = Timed {
        ns: plain.sim_ns as f64,
        calls: plain.total_cycles,
    };

    // lsq-pipeline, profiled.
    let mut sim = Simulator::with_parts(cfg.clone(), NopTracer, WallProfiler::new());
    sim.prewarm(&regions, code);
    let profiled = drive(&mut sim, &mut VecStream::new(instrs.clone()), b);
    check_same(reference, &profiled, "the profiled pass")?;
    s.profiled = Timed {
        ns: profiled.sim_ns as f64,
        calls: profiled.total_cycles,
    };
    let report = profiled
        .result
        .profile
        .as_ref()
        .ok_or("the profiled pass returned no phase profile")?;
    s.phase_total_ns = report.total_nanos();
    for (slot, name) in s.phase_ns.iter_mut().zip(PHASES) {
        *slot = report
            .phases
            .iter()
            .find(|p| p.phase == name)
            .map_or(0, |p| p.nanos);
    }

    // Only the instructions the job actually simulated are replayed.
    let used = (plain.total_committed as usize).min(instrs.len());
    let used = &instrs[..used];

    // lsq-core.
    let lsq = replay_lsq(cfg.lsq, used, clock)?;
    s.load_issue = lsq.load_issue;
    s.store_issue = lsq.store_issue;
    s.drain = lsq.drain;

    // lsq-mem.
    let mut mem = MemoryHierarchy::new(cfg.hierarchy);
    mem.prewarm_data(&regions);
    mem.prewarm_code(code.0, code.1);
    let mut latency = 0u64;
    let t = Instant::now();
    let mut accesses = 0u64;
    for i in used.iter().filter(|i| i.kind.is_mem()) {
        latency += u64::from(mem.data_access(i.addr, i.kind.is_store()));
        accesses += 1;
    }
    s.data_access = Timed {
        ns: span_ns(t, clock),
        calls: accesses,
    };
    let block = cfg.hierarchy.l1i.block_bytes.max(1);
    let t = Instant::now();
    let mut fetches = 0u64;
    let mut last_block = None;
    for i in used {
        let blk = i.pc.0 / block;
        if last_block != Some(blk) {
            last_block = Some(blk);
            latency += u64::from(mem.inst_fetch(lsq_isa::Addr(i.pc.0)));
            fetches += 1;
        }
    }
    s.inst_fetch = Timed {
        ns: span_ns(t, clock),
        calls: fetches,
    };
    black_box(latency);
    Ok(s)
}

/// The `lsq.*`, `pipeline.*`, `mem.*` and `trace.*` metrics of a set of
/// traced jobs. Times are summed over jobs and divided by summed calls;
/// the counts come from `references`, the untraced runs' measured
/// windows, and are exact.
pub fn layer_metrics(samples: &[LayerSample], references: &[&SimResult]) -> Vec<Metric> {
    let sum = |f: fn(&LayerSample) -> Timed| {
        let mut t = Timed::default();
        for s in samples {
            t.add(f(s));
        }
        t
    };
    let jobs = samples.len().max(1) as f64;
    let count = |f: fn(&SimResult) -> u64| references.iter().map(|r| f(r)).sum::<u64>() as f64;
    let per_kinstr = |n: f64| ratio(n * 1_000.0, count(|r| r.committed));
    let mean_of = |f: fn(&SimResult) -> f64| {
        references.iter().map(|r| f(r)).sum::<f64>() / references.len().max(1) as f64
    };
    let (mut seg_weighted, mut seg_searches) = (0u64, 0u64);
    for r in references {
        for (extra, n) in r.lsq.seg_search_hist.iter() {
            seg_weighted += (extra as u64 + 1) * n;
            seg_searches += n;
        }
    }
    let pipeline = sum(|s| s.pipeline);
    let profiled = sum(|s| s.profiled);
    let phase_total: u64 = samples.iter().map(|s| s.phase_total_ns).sum();
    let mut m = vec![
        Metric::new("lsq.load_issue_ns", "ns", sum(|s| s.load_issue).per_call()),
        Metric::new(
            "lsq.store_issue_ns",
            "ns",
            sum(|s| s.store_issue).per_call(),
        ),
        Metric::new("lsq.drain_ns", "ns", sum(|s| s.drain).per_call()),
        Metric::new(
            "lsq.sq_searches_per_kinstr",
            "1/kinstr",
            per_kinstr(count(|r| r.lsq.sq_searches)),
        ),
        Metric::new(
            "lsq.lq_searches_per_kinstr",
            "1/kinstr",
            per_kinstr(count(|r| r.lsq.lq_searches())),
        ),
        Metric::new(
            "lsq.lb_searches_per_kinstr",
            "1/kinstr",
            per_kinstr(count(|r| r.lsq.lb_searches)),
        ),
        Metric::new(
            "lsq.port_stalls_per_kinstr",
            "1/kinstr",
            per_kinstr(count(|r| {
                r.lsq.sq_port_stalls + r.lsq.lq_port_stalls + r.lsq.commit_port_delays
            })),
        ),
        Metric::new(
            "lsq.forward_ratio",
            "ratio",
            ratio(
                count(|r| r.lsq.sq_search_hits),
                count(|r| r.lsq.sq_searches),
            ),
        ),
        Metric::new(
            "lsq.seg_per_search",
            "segments",
            ratio(seg_weighted as f64, seg_searches as f64),
        ),
        Metric::new("pipeline.ns_per_cycle", "ns", pipeline.per_call()),
        Metric::new(
            "pipeline.prewarm_ms",
            "ms",
            samples.iter().map(|s| s.prewarm_ns).sum::<f64>() / jobs / 1e6,
        ),
        Metric::new(
            "pipeline.cycles_per_kinstr",
            "cycles/kinstr",
            per_kinstr(count(|r| r.cycles)),
        ),
        Metric::new(
            "pipeline.squashed_per_kinstr",
            "1/kinstr",
            per_kinstr(count(|r| r.instructions_squashed)),
        ),
    ];
    for (i, name) in PHASE_METRICS.iter().enumerate() {
        let ns: u64 = samples.iter().map(|s| s.phase_ns[i]).sum();
        m.push(Metric::new(
            name,
            "ratio",
            ratio(ns as f64, phase_total as f64),
        ));
    }
    m.extend([
        Metric::new(
            "pipeline.profiler_overhead",
            "ratio",
            ratio(profiled.ns, pipeline.ns) - 1.0,
        ),
        Metric::new(
            "mem.data_access_ns",
            "ns",
            sum(|s| s.data_access).per_call(),
        ),
        Metric::new("mem.inst_fetch_ns", "ns", sum(|s| s.inst_fetch).per_call()),
        Metric::new("mem.l1d_miss_rate", "ratio", mean_of(|r| r.l1d_miss_rate)),
        Metric::new("mem.l2_miss_rate", "ratio", mean_of(|r| r.l2_miss_rate)),
        Metric::new("trace.ns_per_instr", "ns", sum(|s| s.trace).per_call()),
        Metric::new(
            "trace.program_build_ms",
            "ms",
            samples.iter().map(|s| s.program_build_ns).sum::<f64>() / jobs / 1e6,
        ),
    ]);
    m
}

fn check_same(reference: &SimResult, traced: &Driven, pass: &str) -> Result<(), String> {
    if sim_digest(reference) == sim_digest(&traced.result) {
        Ok(())
    } else {
        Err(format!(
            "{pass} simulated a different machine: {} cycles / {} committed vs {} / {} untraced",
            traced.result.cycles, traced.result.committed, reference.cycles, reference.committed
        ))
    }
}

/// Timings of one `Lsq` replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct LsqReplay {
    /// `load_issue` calls.
    pub load_issue: Timed,
    /// `store_issue` calls.
    pub store_issue: Timed,
    /// `drain_store` calls.
    pub drain: Timed,
}

#[derive(Debug, Clone, Copy)]
struct Op {
    seq: u64,
    instr: Instruction,
}

/// Ops the replay moves per cycle through each of dispatch, issue and
/// commit, and the most it keeps in flight.
const REPLAY_WIDTH: usize = 4;
const REPLAY_WINDOW: usize = 128;
/// Store drains per cycle (the base machine's two d-cache ports).
const REPLAY_DRAINS: usize = 2;

/// Replays the loads and stores of `instrs` through a fresh `Lsq`.
///
/// Each cycle: `begin_cycle`; drain retired stores; commit in program
/// order (`commit_load`, `store_retire`); try to issue every unissued
/// load oldest first, then every unissued store (so loads overtake older
/// stores and the violation searches have work); dispatch in program
/// order while the queues have room. A detected violation squashes from
/// the victim, which is dispatched again. Issue and drain calls are
/// timed in per-cycle spans with the clock cost removed; an issue span
/// covers only the calls, not the scan that picks them. The queue must
/// be empty at the end.
pub fn replay_lsq(cfg: LsqConfig, instrs: &[Instruction], clock: f64) -> Result<LsqReplay, String> {
    let ops: Vec<Op> = instrs
        .iter()
        .enumerate()
        .filter(|(_, i)| i.kind.is_mem())
        .map(|(seq, &instr)| Op {
            seq: seq as u64,
            instr,
        })
        .collect();
    let mut lsq = Lsq::new(cfg).map_err(|e| format!("LSQ config rejected: {e:?}"))?;
    let mut out = LsqReplay::default();
    let mut issued = vec![false; ops.len()];
    let (mut head, mut next) = (0usize, 0usize);
    let mut retired_undrained = 0usize;
    let cycle_cap = 1_000 * ops.len() as u64 + 100_000;
    let mut cycles = 0u64;
    while head < ops.len() || retired_undrained > 0 {
        cycles += 1;
        if cycles > cycle_cap {
            return Err(format!(
                "LSQ replay made no progress ({head} of {} ops committed)",
                ops.len()
            ));
        }
        lsq.begin_cycle();

        // Drain.
        let mut squash = None;
        if retired_undrained > 0 {
            let t = Instant::now();
            let mut calls = 0u64;
            while calls < REPLAY_DRAINS as u64 && retired_undrained > 0 {
                calls += 1;
                match lsq.drain_store() {
                    StoreDrain::Drained { violation, .. } => {
                        retired_undrained -= 1;
                        if violation.is_some() {
                            squash = violation;
                            break;
                        }
                    }
                    StoreDrain::Blocked | StoreDrain::Idle => break,
                }
            }
            out.drain.add(Timed {
                ns: span_ns(t, clock),
                calls,
            });
        }
        if let Some(v) = squash {
            rewind(&mut lsq, &ops, &mut issued, &mut next, v);
        }

        // Commit.
        for _ in 0..REPLAY_WIDTH {
            if head >= next || !issued[head] {
                break;
            }
            let op = ops[head];
            if op.instr.kind.is_store() {
                lsq.store_retire(op.seq);
                retired_undrained += 1;
            } else {
                if lsq.has_undrained_store_before(op.seq) {
                    break;
                }
                lsq.commit_load(op.seq);
            }
            head += 1;
        }

        // Issue: loads, then stores. The candidates are picked before the
        // clock starts, so a span times only the `Lsq` calls.
        for loads in [true, false] {
            let mut picked = [0usize; REPLAY_WIDTH];
            let mut n = 0;
            for i in head..next {
                if n == REPLAY_WIDTH {
                    break;
                }
                if !issued[i] && ops[i].instr.kind.is_load() == loads {
                    picked[n] = i;
                    n += 1;
                }
            }
            if n == 0 {
                continue;
            }
            let (mut calls, mut squash) = (0u64, None);
            let t = Instant::now();
            for &i in &picked[..n] {
                calls += 1;
                let seq = ops[i].seq;
                let violation = if loads {
                    match lsq.load_issue(seq) {
                        LoadIssue::Issued(li) => {
                            issued[i] = true;
                            li.load_order_violation
                        }
                        _ => None,
                    }
                } else {
                    match lsq.store_issue(seq) {
                        StoreIssue::Issued { violation } => {
                            issued[i] = true;
                            violation
                        }
                        StoreIssue::NoLqPort => None,
                    }
                };
                if violation.is_some() {
                    squash = violation;
                    break;
                }
            }
            let timed = Timed {
                ns: span_ns(t, clock),
                calls,
            };
            if loads {
                out.load_issue.add(timed);
            } else {
                out.store_issue.add(timed);
            }
            if let Some(v) = squash {
                rewind(&mut lsq, &ops, &mut issued, &mut next, v);
            }
        }

        // Dispatch.
        for _ in 0..REPLAY_WIDTH {
            if next >= ops.len() || next - head >= REPLAY_WINDOW {
                break;
            }
            let op = ops[next];
            if op.instr.kind.is_load() {
                if !lsq.can_dispatch_load() {
                    break;
                }
                lsq.dispatch_load(op.seq, op.instr.pc, op.instr.addr);
            } else {
                if !lsq.can_dispatch_store() {
                    break;
                }
                lsq.dispatch_store(op.seq, op.instr.pc, op.instr.addr);
            }
            issued[next] = false;
            next += 1;
        }
    }
    if lsq.lq_occupancy() != 0 || lsq.sq_occupancy() != 0 {
        return Err(format!(
            "LSQ replay did not drain: {} loads and {} stores left",
            lsq.lq_occupancy(),
            lsq.sq_occupancy()
        ));
    }
    Ok(out)
}

/// Squashes every op from sequence number `victim` on and moves the
/// dispatch cursor back to it.
fn rewind(lsq: &mut Lsq, ops: &[Op], issued: &mut [bool], next: &mut usize, victim: u64) {
    lsq.squash_from(victim);
    let from = ops.partition_point(|o| o.seq < victim);
    for flag in &mut issued[from..*next] {
        *flag = false;
    }
    *next = from.min(*next);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::run_job;
    use crate::workload::{Scale, Workload};
    use lsq_isa::{Addr, Pc};

    #[test]
    fn replay_drains_and_counts_every_op() {
        let stream: Vec<Instruction> = (0..400u64)
            .map(|i| {
                let addr = Addr(0x1000 + (i % 7) * 8);
                if i % 3 == 0 {
                    Instruction::store(Pc(0x400 + (i % 5) * 4), addr)
                } else {
                    Instruction::load(Pc(0x800 + (i % 9) * 4), addr)
                }
            })
            .collect();
        let stores = stream.iter().filter(|i| i.kind.is_store()).count() as u64;
        for cfg in [
            LsqConfig::default(),
            LsqConfig::with_techniques(1),
            LsqConfig::all_techniques_one_port(),
        ] {
            let r = replay_lsq(cfg, &stream, 0.0).expect("replay completes");
            assert!(r.drain.calls >= stores, "{cfg:?}");
            assert!(r.load_issue.calls >= 400 - stores, "{cfg:?}");
            assert!(r.store_issue.calls >= stores, "{cfg:?}");
        }
    }

    #[test]
    fn traced_job_reproduces_the_untraced_run() {
        let job = Workload::SegSearch.jobs()[0];
        let b = Scale::Tiny.budget(Workload::SegSearch);
        let plain = run_job(&job, 5, b);
        let cfg = SimConfig::with_lsq(job.lsq);
        let s = trace_job(
            job.profile,
            cfg,
            5,
            b,
            &plain.driven.result,
            clock_cost_ns(),
        )
        .expect("traced passes match");
        assert!(s.trace.calls >= b.warmup + b.instrs);
        assert!(s.pipeline.calls > 0 && s.profiled.calls == s.pipeline.calls);
        assert!(s.phase_total_ns > 0);
        assert!(s.data_access.calls > 0 && s.inst_fetch.calls > 0);
    }

    #[test]
    fn a_different_reference_is_refused() {
        let job = Workload::MemStall.jobs()[0];
        let b = Scale::Tiny.budget(Workload::MemStall);
        let mut other = run_job(&job, 5, b).driven.result;
        other.cycles += 1;
        let cfg = SimConfig::with_lsq(job.lsq);
        assert!(trace_job(job.profile, cfg, 5, b, &other, 0.0).is_err());
    }
}
