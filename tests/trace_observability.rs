//! End-to-end checks of the observability subsystem: traced runs must
//! reproduce untraced counters exactly, the serialized trace formats
//! must parse, the windowed timeline must partition the run so per-window
//! IPC sums back to the aggregate, and the per-PC attribution must point
//! at the offending static instruction.

use lsq::isa::{Addr, ArchReg, InstrKind, Instruction, Pc, VecStream};
use lsq::obs::{Column, Event, Json, Sampler, TraceBuffer, TraceConfig};
use lsq::pipeline::NopProfiler;
use lsq::prelude::*;

/// A loop whose store's data arrives late, so the same-address load
/// issues prematurely and triggers memory-order violations (the shape
/// used by the pipeline's own squash tests).
fn violation_workload(iters: u64) -> Vec<Instruction> {
    let mut instrs = Vec::new();
    for i in 0..iters {
        let pc = 0x1000 + (i % 8) * 32;
        instrs.push(Instruction::op(Pc(pc), InstrKind::FpDiv).with_dst(ArchReg::fp(1)));
        instrs.push(
            Instruction::op(Pc(pc + 4), InstrKind::IntAlu)
                .with_dst(ArchReg::int(2))
                .with_src(ArchReg::int(2)),
        );
        instrs.push(Instruction::store(Pc(pc + 8), Addr(0x80)).with_src(ArchReg::fp(1)));
        instrs.push(Instruction::load(Pc(pc + 12), Addr(0x80)).with_dst(ArchReg::int(4)));
    }
    instrs
}

/// Runs the violation workload with a tracer and sampler attached,
/// returning the result, the trace ring, and the flushed sampler.
fn traced_run(iters: u64, window: u64) -> (lsq::pipeline::SimResult, TraceBuffer, Sampler) {
    let instrs = violation_workload(iters);
    let n = instrs.len() as u64;
    let mut stream = VecStream::new(instrs);
    let mut sim = Simulator::with_parts(SimConfig::default(), TraceBuffer::new(), NopProfiler);
    sim.set_sampler(window);
    let r = sim.run(&mut stream, n);
    let sampler = sim.take_sampler().expect("sampler was set");
    (r, sim.into_tracer(), sampler)
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    let instrs = violation_workload(100);
    let n = instrs.len() as u64;
    let mut plain_stream = VecStream::new(instrs);
    let mut plain = Simulator::new(SimConfig::default());
    let p = plain.run(&mut plain_stream, n);
    let (t, buf, _) = traced_run(100, 64);
    assert_eq!(p.cycles, t.cycles);
    assert_eq!(p.committed, t.committed);
    assert_eq!(p.violation_squashes, t.violation_squashes);
    assert_eq!(p.lsq.sq_searches, t.lsq.sq_searches);
    assert_eq!(p.lsq.violations, t.lsq.violations);
    assert!(buf.total() > 0, "the traced twin actually recorded events");
}

#[test]
fn jsonl_trace_parses_line_by_line() {
    let (r, buf, _) = traced_run(60, 128);
    let jsonl = buf.to_jsonl();
    let mut names = std::collections::HashSet::new();
    let mut lines = 0u64;
    for line in jsonl.lines() {
        let v = Json::parse(line).expect("every JSONL line is valid JSON");
        let cycle = v.get("cycle").and_then(Json::as_u64).expect("cycle field");
        assert!(cycle <= r.cycles, "cycle {cycle} within the run");
        names.insert(
            v.get("event")
                .and_then(Json::as_str)
                .expect("event field")
                .to_string(),
        );
        lines += 1;
    }
    assert_eq!(lines as usize, buf.len());
    for expected in ["dispatch", "issue", "sq_search", "violation", "squash"] {
        assert!(names.contains(expected), "missing event kind {expected}");
    }
}

#[test]
fn chrome_trace_parses_and_carries_lane_metadata() {
    let (_, buf, sampler) = traced_run(60, 128);
    let parsed = Json::parse(&buf.to_chrome_trace()).expect("chrome trace is valid JSON");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");
    // 6 thread_name metadata rows precede the payload events.
    let meta: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("M"))
        .collect();
    assert_eq!(meta.len(), 6, "one metadata row per lane");
    let payload: Vec<_> = events
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) != Some("M"))
        .collect();
    assert_eq!(payload.len(), buf.len());
    for e in payload {
        let ph = e.get("ph").and_then(Json::as_str).expect("phase");
        assert!(ph == "i" || ph == "X", "instant or complete, got {ph}");
        assert!(e.get("ts").and_then(Json::as_u64).is_some(), "timestamp");
        assert!(e.get("name").and_then(Json::as_str).is_some(), "name");
        let tid = e.get("tid").and_then(Json::as_u64).expect("lane");
        assert!(tid < 6, "lane {tid} in range");
        if ph == "X" {
            assert!(e.get("dur").and_then(Json::as_u64).unwrap() >= 1);
        }
    }
    // The CSV sidecar is also well-formed.
    let csv = sampler.to_csv();
    let mut lines = csv.lines();
    assert_eq!(
        lines.next().unwrap(),
        "start_cycle,end_cycle,cycles,committed,ipc,lq_occupancy,sq_occupancy,\
         inflight_loads,sq_searches,lq_searches"
    );
    assert!(lines.next().is_some(), "at least one data row");
    for line in lines {
        assert_eq!(line.split(',').count(), 10, "one field per column");
    }
}

#[test]
fn windowed_ipc_sums_back_to_aggregate_ipc() {
    let (r, _, sampler) = traced_run(120, 64);
    let rows = sampler.rows();
    assert!(rows.len() >= 2, "run spans several windows");
    let cycles: u64 = rows.iter().map(|w| w.cycles).sum();
    // Counter 0 of the timeline is committed instructions.
    let committed: u64 = rows.iter().map(|w| w.deltas[0]).sum();
    assert_eq!(cycles, r.cycles, "windows partition the run's cycles");
    assert_eq!(committed, r.committed, "windows partition commits");
    let windowed_ipc = committed as f64 / cycles as f64;
    assert!(
        (windowed_ipc - r.ipc()).abs() < 1e-12,
        "windowed {windowed_ipc} vs aggregate {}",
        r.ipc()
    );
    // The last (partial) window still ends at the final cycle.
    assert_eq!(rows.last().unwrap().end_cycle, r.cycles);
}

#[test]
fn attribution_points_at_the_violating_loads() {
    let (r, buf, _) = traced_run(200, 256);
    assert!(r.violation_squashes > 0, "workload must squash");
    let attrib = buf.attribution();
    assert!(!attrib.is_empty());
    // Every violating load in the workload sits at pc % 32 == 12.
    let top = attrib.top(4);
    assert!(!top.is_empty());
    let squashed_pcs: Vec<u64> = top
        .iter()
        .filter(|(_, c)| c.squashes > 0)
        .map(|(pc, _)| *pc)
        .collect();
    assert!(!squashed_pcs.is_empty(), "squashes are attributed");
    for pc in &squashed_pcs {
        assert_eq!(pc % 32, 12, "squash attributed to a load PC (got {pc:#x})");
    }
    let report = attrib.report(4);
    assert!(report.contains("pc"), "report has a header");
}

#[test]
fn trace_config_writes_parseable_files() {
    let dir = std::env::temp_dir().join("lsq_trace_obs_test");
    let _ = std::fs::remove_dir_all(&dir);
    let chrome = dir.join("run.json");
    let cfg = TraceConfig::parse(&format!("{}:chrome", chrome.display()), Some("64"));
    let (_, buf, sampler) = traced_run(60, 64);
    let written = cfg.write(&buf, Some(&sampler)).expect("write succeeds");
    assert_eq!(written.len(), 2, "chrome file plus timeline sidecar");
    let text = std::fs::read_to_string(&chrome).unwrap();
    assert!(Json::parse(&text).is_ok(), "written chrome trace parses");
    let timeline = std::fs::read_to_string(cfg.timeline_path()).unwrap();
    assert!(timeline.starts_with("start_cycle,"));
    assert!(timeline.lines().count() >= 2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn nop_tracer_interface_is_inert() {
    // The default-tracer simulator compiles and runs with no ring at
    // all; this is the configuration the benchmarks measure.
    let mut sampler = Sampler::new(4, &[Column::Delta("committed", 0), Column::Mean("lq", 0)]);
    sampler.observe(1, &[2], &[0]);
    sampler.flush();
    assert_eq!(sampler.rows().len(), 1);
    let buf = TraceBuffer::new();
    assert!(buf.is_empty());
    let _ = Event::LbSearch { load: 1 };
}
