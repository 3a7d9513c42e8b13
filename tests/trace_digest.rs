//! Golden trace digest: the observable outputs of one traced run must
//! not move.
//!
//! One fixed run of a real workload, with every sink attached, is
//! rendered the way the experiment binaries write it: the event ring as
//! JSON Lines and as a Chrome `trace_event` document, the windowed IPC
//! timeline as CSV, and the windowed CPI stack as CSV. Each text is
//! hashed. The design point and workload are chosen so that every
//! [`Event`] kind occurs, which the test asserts, so a dropped,
//! reordered or re-stamped event changes a digest.
//!
//! A change that is meant to move an output updates the constants and
//! says why.

use lsq::core::LsqConfig;
use lsq::obs::{Event, TraceBuffer};
use lsq::pipeline::{NopLifecycle, NopProfiler, SimConfig, Simulator, SlotAccountant};
use lsq::trace::BenchProfile;
use lsq::util::FastHasher;
use std::collections::BTreeSet;
use std::hash::Hasher;

const BENCH: &str = "gcc";
const SEED: u64 = 1;
const WARMUP: u64 = 2_000;
const INSTRS: u64 = 6_000;
const TIMELINE_WINDOW: u64 = 500;
const CPI_WINDOW: u64 = 1_000;

/// The run's four rendered outputs: JSONL, Chrome trace, timeline CSV,
/// CPI-stack CSV; and the event ring itself.
fn traced_outputs() -> ([String; 4], TraceBuffer) {
    let profile = BenchProfile::named(BENCH).expect("known benchmark");
    let mut stream = profile.stream(SEED);
    let mut cfg = SimConfig::with_lsq(LsqConfig::all_techniques_one_port());
    cfg.lsq.load_load_squash = true;
    let mut sim = Simulator::with_lifecycle(
        cfg,
        TraceBuffer::new(),
        NopProfiler,
        SlotAccountant::with_sampler(CPI_WINDOW),
        NopLifecycle,
    );
    sim.set_sampler(TIMELINE_WINDOW);
    sim.prewarm(&stream.data_regions(), stream.code_region());
    let _ = sim.run(&mut stream, WARMUP);
    let _ = sim.run(&mut stream, INSTRS);
    let timeline = sim.take_sampler().expect("timeline attached").to_csv();
    let cpi = sim
        .take_cpi_sampler()
        .expect("cpi sampler attached")
        .to_csv();
    let buf = sim.into_tracer();
    ([buf.to_jsonl(), buf.to_chrome_trace(), timeline, cpi], buf)
}

fn digest(text: &str) -> u64 {
    let mut h = FastHasher::default();
    h.write(text.as_bytes());
    h.finish()
}

/// The event kind, by exhaustive match: a new kind fails to compile
/// here until the test accounts for it.
fn kind(e: &Event) -> &'static str {
    match e {
        Event::Dispatch { .. } => "dispatch",
        Event::Issue { .. } => "issue",
        Event::SqSearch { .. } => "sq_search",
        Event::LqSearch { .. } => "lq_search",
        Event::LbSearch { .. } => "lb_search",
        Event::Forward { .. } => "forward",
        Event::Violation { .. } => "violation",
        Event::Squash { .. } => "squash",
        Event::SegAdvance { .. } => "seg_advance",
        Event::CacheMiss { .. } => "cache_miss",
        Event::UselessSearch { .. } => "useless_search",
    }
}

#[test]
fn traced_outputs_match_the_golden_digests() {
    let (outputs, buf) = traced_outputs();
    assert_eq!(buf.dropped(), 0, "the ring holds the whole run");
    let kinds: BTreeSet<&str> = buf.events().map(|e| kind(&e.event)).collect();
    assert_eq!(kinds.len(), 11, "every event kind occurs: {kinds:?}");
    let golden = [
        ("jsonl", 0xc894_a54e_626b_2f41),
        ("chrome", 0x01bb_9976_a711_1ad7),
        ("timeline", 0xeacc_4679_24e6_0fc2),
        ("cpi_stack", 0x6e4e_f58e_67bd_78b7),
    ];
    for ((name, want), text) in golden.iter().zip(&outputs) {
        let got = digest(text);
        assert_eq!(
            got,
            *want,
            "{name} digest {got:#018x} ({} bytes)",
            text.len()
        );
    }
}
