//! The event-driven scheduler must be architecturally invisible: every
//! counter in [`SimResult`] must be bit-identical to the reference
//! polling scheduler (which re-scans the whole issue queue against the
//! ROB every cycle, the way the simulator originally worked).
//!
//! The argument for why they agree: all execution latencies are at
//! least one cycle, so no instruction becomes ready as a consequence of
//! a same-cycle issue — the set of ready instructions is fixed when the
//! cycle starts. The polling scan visits that set in program order; the
//! event scheduler scans a ready bitmap over ROB slots from the ROB
//! head, which yields the same order. Resource-stalled candidates keep
//! their bit, matching the scan's skip-and-revisit. These tests pin
//! that equivalence across the design points that stress every issue
//! path: forwarding, squashes, the load buffer, and segmented search,
//! and across processor shapes that stress the scheduler's own
//! structures: ROBs that are not a power of two or are smaller than one
//! ready-bitmap word, squash storms, and the 12-wide scaled core.
//!
//! The polling reference also never takes the idle-cycle fast path, so
//! in release builds (where the event scheduler replays idle cycles
//! instead of running them) these tests pin the replay too: the
//! memory-bound `mcf` and `art` runs spend most cycles in idle windows,
//! and the in-order, one-ported all-techniques and port-bound shapes
//! replay in-order stalls, full load buffers and store-set waits between
//! multi-segment port bookings, port stalls and squashes.

use lsq::core::{LoadOrderPolicy, LsqConfig, PredictorKind, SegAlloc, SegConfig};
use lsq::experiments::runner::diff_results;
use lsq::obs::NopTracer;
use lsq::pipeline::{
    NopAccountant, NopLifecycle, NopProfiler, PipeviewRecorder, SimConfig, SimResult, Simulator,
    SlotAccountant,
};
use lsq::trace::BenchProfile;

const WARMUP: u64 = 3_000;
const INSTRS: u64 = 10_000;

/// Runs `bench` × `lsq_cfg` with warm-up differencing, with either the
/// event scheduler (default) or the reference polling scheduler.
fn run(bench: &str, lsq_cfg: LsqConfig, polling: bool) -> SimResult {
    run_sim(bench, SimConfig::with_lsq(lsq_cfg), polling)
}

/// Like [`run`], for a whole processor configuration.
fn run_sim(bench: &str, cfg: SimConfig, polling: bool) -> SimResult {
    let profile = BenchProfile::named(bench).expect("known benchmark");
    let mut stream = profile.stream(1);
    let mut sim = Simulator::new(cfg);
    if polling {
        sim.set_reference_scheduler();
    }
    sim.prewarm(&stream.data_regions(), stream.code_region());
    let _ = sim.run(&mut stream, WARMUP);
    let before = sim.run(&mut stream, 0);
    let after = sim.run(&mut stream, INSTRS);
    diff_results(&before, &after)
}

/// Like [`run`], but with the cycle accountant attached, so the
/// differenced result carries a CPI stack for the measured window.
fn run_accounted(bench: &str, lsq_cfg: LsqConfig, polling: bool) -> SimResult {
    let profile = BenchProfile::named(bench).expect("known benchmark");
    let mut stream = profile.stream(1);
    let mut sim = Simulator::with_lifecycle(
        SimConfig::with_lsq(lsq_cfg),
        NopTracer,
        NopProfiler,
        SlotAccountant::new(),
        NopLifecycle,
    );
    if polling {
        sim.set_reference_scheduler();
    }
    sim.prewarm(&stream.data_regions(), stream.code_region());
    let _ = sim.run(&mut stream, WARMUP);
    let before = sim.run(&mut stream, 0);
    let after = sim.run(&mut stream, INSTRS);
    diff_results(&before, &after)
}

/// Like [`run`], but with the lifecycle recorder attached, so the
/// differenced result carries per-stage latency histograms.
fn run_recorded(bench: &str, lsq_cfg: LsqConfig, polling: bool) -> SimResult {
    let profile = BenchProfile::named(bench).expect("known benchmark");
    let mut stream = profile.stream(1);
    let mut sim = Simulator::with_lifecycle(
        SimConfig::with_lsq(lsq_cfg),
        NopTracer,
        NopProfiler,
        NopAccountant,
        PipeviewRecorder::new(4096),
    );
    if polling {
        sim.set_reference_scheduler();
    }
    sim.prewarm(&stream.data_regions(), stream.code_region());
    let _ = sim.run(&mut stream, WARMUP);
    let before = sim.run(&mut stream, 0);
    let after = sim.run(&mut stream, INSTRS);
    diff_results(&before, &after)
}

fn design_points() -> Vec<(&'static str, LsqConfig)> {
    vec![
        ("conventional2", LsqConfig::default()),
        (
            "pair",
            LsqConfig {
                predictor: PredictorKind::Pair,
                ..LsqConfig::default()
            },
        ),
        ("lb1", LsqConfig::with_techniques(1)),
        ("segmented", LsqConfig::segmented(SegAlloc::SelfCircular)),
    ]
}

fn assert_equivalent(bench: &str) {
    for (label, cfg) in design_points() {
        let event = run(bench, cfg, false);
        let polling = run(bench, cfg, true);
        // SimResult has no float-free Eq; the Debug rendering covers
        // every field (occupancy means included) exactly. wall_nanos
        // and sim_mips are both zero here — only the engine stamps
        // them — so the comparison is purely architectural.
        assert_eq!(
            format!("{event:?}"),
            format!("{polling:?}"),
            "{bench}/{label}: event scheduler diverged from polling reference"
        );
        assert!(event.committed >= INSTRS, "{bench}/{label}: run too short");
    }
}

/// Cycle accounting is pure observability: attaching the accountant
/// must leave every architectural counter bit-identical, and the stack
/// it emits must partition the measured window exactly — components
/// sum to `cycles × commit_width`, with the base component equal to the
/// committed-instruction count. Checked across all four design points
/// (and two benchmarks, one cache-bound) so every stall-classification
/// path is exercised.
#[test]
fn accounting_is_invisible_and_partitions_every_slot() {
    for bench in ["gzip", "mcf"] {
        for (label, cfg) in design_points() {
            let plain = run(bench, cfg, false);
            let mut accounted = run_accounted(bench, cfg, false);
            let stack = accounted
                .cpi_stack
                .take()
                .expect("accounted run reports a CPI stack");
            assert_eq!(
                format!("{plain:?}"),
                format!("{accounted:?}"),
                "{bench}/{label}: accounting perturbed the simulation"
            );
            assert_eq!(
                stack.total_slots(),
                accounted.cycles * stack.commit_width,
                "{bench}/{label}: stack does not partition the window"
            );
            assert_eq!(
                stack.slots("base"),
                accounted.committed,
                "{bench}/{label}: base slots must equal committed instructions"
            );
        }
    }
}

/// The lifecycle recorder is pure observability, same contract as the
/// accountant: attaching it must leave every architectural counter
/// bit-identical across all four design points, and the stage-latency
/// histograms it emits must cover every committed instruction of the
/// measured window exactly once.
#[test]
fn lifecycle_recording_is_invisible_and_covers_every_commit() {
    for bench in ["gzip", "mcf"] {
        for (label, cfg) in design_points() {
            let plain = run(bench, cfg, false);
            let mut recorded = run_recorded(bench, cfg, false);
            let stages = recorded
                .stage_latency
                .take()
                .expect("recorded run reports stage latencies");
            assert_eq!(
                format!("{plain:?}"),
                format!("{recorded:?}"),
                "{bench}/{label}: lifecycle recording perturbed the simulation"
            );
            // Every committed instruction was dispatched and issued, and
            // the recorder was attached for the whole run, so the
            // windowed dispatch→issue histogram observes each exactly
            // once.
            let (name, dispatch_to_issue) = stages.stages()[0];
            assert_eq!(name, "dispatch_to_issue");
            assert_eq!(
                dispatch_to_issue.count(),
                recorded.committed,
                "{bench}/{label}: dispatch→issue must cover every committed instruction"
            );
        }
    }
}

/// The CPI stack is part of the architectural state the two schedulers
/// must agree on: an accounted event-driven run and an accounted
/// polling run must produce bit-identical stacks (the stack is in the
/// `SimResult` Debug rendering, so full-result equality covers it).
/// The cache-bound `mcf` and `art` runs spend most cycles
/// fast-forwarded, so their stacks check the replayed accounting.
#[test]
fn accounted_schedulers_agree() {
    for bench in ["gzip", "mcf", "art"] {
        for (label, cfg) in design_points() {
            let event = run_accounted(bench, cfg, false);
            let polling = run_accounted(bench, cfg, true);
            assert!(event.cpi_stack.is_some(), "{bench}/{label}: stack missing");
            assert_eq!(
                format!("{event:?}"),
                format!("{polling:?}"),
                "{bench}/{label}: accounted schedulers diverged"
            );
        }
    }
}

#[test]
fn gzip_schedulers_agree() {
    assert_equivalent("gzip");
}

#[test]
fn mcf_schedulers_agree() {
    assert_equivalent("mcf");
}

#[test]
fn mgrid_schedulers_agree() {
    assert_equivalent("mgrid");
}

/// Processor shapes that exercise the event scheduler's slot-indexed
/// structures rather than the LSQ: a ROB whose slot array is rounded up
/// (200 → 256 slots), a ROB smaller than one 64-bit bitmap word, a
/// squash storm (coherence invalidations plus load-load squashes, which
/// scrub the wheel, the bitmap and the waiter lists), and the 12-wide
/// scaled processor. Three more shapes stress idle-cycle replay: in-order
/// load issue (in-order stalls); all three techniques on one port
/// (multi-segment bookings and full load buffers); and a
/// port-bound core (eight small segments with one search port, one
/// d-cache port, a load buffer and invalidations), where port stalls
/// and squashes land between idle cycles.
fn scheduler_shapes() -> Vec<(&'static str, SimConfig)> {
    let segmented = LsqConfig::segmented(SegAlloc::SelfCircular);
    let mut rob200 = SimConfig::with_lsq(LsqConfig::with_techniques(1));
    rob200.rob_entries = 200;
    let mut rob24 = SimConfig::with_lsq(segmented);
    rob24.rob_entries = 24;
    rob24.iq_entries = 16;
    let mut squashy = SimConfig::with_lsq(LsqConfig {
        load_load_squash: true,
        ..LsqConfig::default()
    });
    squashy.invalidation_rate = 0.05;
    let in_order = SimConfig::with_lsq(LsqConfig {
        load_order: LoadOrderPolicy::InOrderNoSearch,
        ..LsqConfig::default()
    });
    let mut port_bound = SimConfig::with_lsq(LsqConfig {
        ports: 1,
        load_order: LoadOrderPolicy::LoadBuffer(2),
        segmentation: Some(SegConfig {
            segments: 8,
            entries_per_segment: 4,
            alloc: SegAlloc::SelfCircular,
        }),
        ..LsqConfig::default()
    });
    port_bound.dcache_ports = 1;
    port_bound.invalidation_rate = 0.02;
    vec![
        ("rob200", rob200),
        ("rob24", rob24),
        ("squash-storm", squashy),
        ("scaled", SimConfig::scaled(segmented)),
        ("in-order", in_order),
        (
            "all-techniques-1p",
            SimConfig::with_lsq(LsqConfig::all_techniques_one_port()),
        ),
        ("port-bound", port_bound),
    ]
}

#[test]
fn scheduler_shapes_agree() {
    let mut load_load = 0;
    // Every sticky stall kind, so each one's idle-cycle replay is pinned.
    let mut sticky = [0u64; 3];
    for bench in ["parser", "mgrid", "mcf"] {
        for (label, cfg) in scheduler_shapes() {
            let event = run_sim(bench, cfg.clone(), false);
            let polling = run_sim(bench, cfg, true);
            assert_eq!(
                format!("{event:?}"),
                format!("{polling:?}"),
                "{bench}/{label}: event scheduler diverged from polling reference"
            );
            assert!(event.committed >= INSTRS, "{bench}/{label}: run too short");
            sticky[0] += event.lsq.in_order_stalls;
            sticky[1] += event.lsq.lb_full_stalls;
            sticky[2] += event.lsq.store_set_waits;
            if label == "squash-storm" {
                assert!(
                    event.violation_squashes > 100,
                    "{bench}/{label}: only {} squashes",
                    event.violation_squashes
                );
                load_load += event.lsq.load_load_violations;
            }
        }
    }
    assert!(
        load_load > 0,
        "the squash storm never squashed a load-load pair"
    );
    assert!(
        sticky.iter().all(|&n| n > 0),
        "in-order stalls, full load buffers, store-set waits: {sticky:?}"
    );
}
