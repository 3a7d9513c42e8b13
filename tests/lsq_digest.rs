//! Golden digests: the simulated counters of the benchmark's fourteen
//! jobs must not move.
//!
//! Each `(benchmark, LSQ design point)` job of the `seg-search` and
//! `mem-stall` workloads runs through the public API at a small budget,
//! and every simulated counter of its measured-window `SimResult` is
//! hashed: the run counters, every `LsqStats` field, the segment-search
//! histogram, and the bit patterns of the float means. Host timing is
//! left out. The constants were recorded before the LSQ searches were
//! packed, so a host-speed change to `lsq-core` that moves the modelled
//! machine by a single event fails here.
//!
//! A change that is meant to move the model updates the constants and
//! says why.

use lsq::core::{LsqConfig, SegAlloc};
use lsq::experiments::runner::diff_results;
use lsq::pipeline::{SimConfig, SimResult, Simulator};
use lsq::trace::BenchProfile;
use lsq::util::FastHasher;
use std::hash::Hasher;

const WARMUP: u64 = 2_000;
const INSTRS: u64 = 20_000;
const SEED: u64 = 1;

/// `(benchmark, design point, digest)` for every job, in workload order.
fn golden() -> Vec<(&'static str, &'static str, LsqConfig, u64)> {
    let seg = LsqConfig::segmented(SegAlloc::SelfCircular);
    let all1 = LsqConfig::all_techniques_one_port();
    let conv2 = LsqConfig::conventional(2);
    let tech1 = LsqConfig::with_techniques(1);
    vec![
        ("mgrid", "seg-sc", seg, 0x9956_6c07_7908_0999),
        ("mgrid", "all-1p", all1, 0x176a_6992_a540_74b4),
        ("perl", "seg-sc", seg, 0xc83a_cd9f_74de_8c6f),
        ("perl", "all-1p", all1, 0x8617_37e5_a32b_5796),
        ("applu", "seg-sc", seg, 0x75c7_b91c_f570_1cb4),
        ("applu", "all-1p", all1, 0x2c60_bd2f_a06e_25e1),
        ("wupwise", "seg-sc", seg, 0xf705_6ce0_3f1a_4f2b),
        ("wupwise", "all-1p", all1, 0x2e79_00df_7eb2_2a1a),
        ("mcf", "conv-2p", conv2, 0x290e_c56e_1e68_7f61),
        ("mcf", "tech-1p", tech1, 0xced4_dbae_4bd3_0d27),
        ("art", "conv-2p", conv2, 0x0125_c9c9_4316_11ef),
        ("art", "tech-1p", tech1, 0x0395_32f6_30a9_54fb),
        ("swim", "conv-2p", conv2, 0x98e6_5dfa_d0a9_c5fd),
        ("swim", "tech-1p", tech1, 0x140b_3473_3e46_d0bb),
    ]
}

fn run(bench: &str, lsq: LsqConfig) -> SimResult {
    let profile = BenchProfile::named(bench).expect("known benchmark");
    let mut stream = profile.stream(SEED);
    let mut sim = Simulator::new(SimConfig::with_lsq(lsq));
    sim.prewarm(&stream.data_regions(), stream.code_region());
    let _ = sim.run(&mut stream, WARMUP);
    let before = sim.run(&mut stream, 0);
    let after = sim.run(&mut stream, INSTRS);
    diff_results(&before, &after)
}

/// Hash of every simulated counter; floats by their bit patterns.
fn digest(r: &SimResult) -> u64 {
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

#[test]
fn benchmark_jobs_match_golden_digests() {
    let mut mismatches = Vec::new();
    for (bench, point, lsq, want) in golden() {
        let r = run(bench, lsq);
        assert!(!r.hit_cycle_cap, "{bench}/{point} hit the cycle cap");
        assert!(r.committed >= INSTRS, "{bench}/{point} fell short");
        let got = digest(&r);
        if got != want {
            mismatches.push(format!(
                "{bench}/{point}: got {got:#018x}, want {want:#018x}"
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "simulated counters moved:\n{}",
        mismatches.join("\n")
    );
}
