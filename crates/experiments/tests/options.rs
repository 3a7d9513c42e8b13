//! Table-driven checks of `RunOptions` parsing from a passed-in
//! variable list (the process environment is never touched): malformed
//! and unknown knobs are errors naming the knob, valid forms keep their
//! meaning.

use lsq_experiments::{RunOptions, RunSpec};
use lsq_obs::TraceMode;
use std::path::PathBuf;

fn parse(vars: &[(&str, &str)]) -> Result<RunOptions, String> {
    RunOptions::parse(vars.iter().copied())
}

#[test]
fn malformed_values_name_their_knob() {
    for (name, value) in [
        ("LSQ_INSTRS", "abc"),
        ("LSQ_INSTRS", "-5"),
        ("LSQ_JOBS", "zero"),
        ("LSQ_JOBS", "0"),
        ("LSQ_TRACE_CAP", "abc"),
        ("LSQ_TRACE_CAP", "0"),
        ("LSQ_SAMPLE_CYCLES", "abc"),
        ("LSQ_ACCOUNTING_CSV", "out.csv:0"),
        ("LSQ_ACCOUNTING_CSV", ":5000"),
        ("LSQ_PIPEVIEW_CAP", "-1"),
    ] {
        let err = parse(&[(name, value)]).expect_err(&format!("{name}={value} must be rejected"));
        assert!(err.starts_with(&format!("{name}=")), "{err}");
        let knob = lsq_util::knobs::find(name).expect("registered");
        assert!(err.contains(knob.doc), "the message quotes the doc: {err}");
    }
    let err = parse(&[("LSQ_WARMUP", "2000")]).expect_err("unknown knob");
    assert!(
        err.starts_with("LSQ_WARMUP is not a registered knob"),
        "{err}"
    );
    assert!(
        err.contains("LSQ_INSTRS"),
        "the message lists the knobs: {err}"
    );
}

#[test]
fn unset_and_empty_knobs_give_the_defaults() {
    let defaults = RunOptions::default();
    assert_eq!(parse(&[]).unwrap(), defaults);
    assert_eq!(
        parse(&[("LSQ_INSTRS", ""), ("LSQ_TRACE", " ")]).unwrap(),
        defaults
    );
    assert_eq!(
        parse(&[("HOME", "/x"), ("NOT_LSQ_JOBS", "zero")]).unwrap(),
        defaults
    );
    assert_eq!(defaults.spec(), RunSpec::DEFAULT);
    assert_eq!(
        (RunSpec::DEFAULT.warmup, RunSpec::DEFAULT.instrs),
        (100_000, 250_000)
    );
}

#[test]
fn valid_values_keep_their_meaning() {
    let o = parse(&[
        ("LSQ_INSTRS", "2000"),
        ("LSQ_JOBS", " 3 "),
        ("LSQ_PROGRESS", "0"),
        ("LSQ_EXPERIMENTS_JSON", "/tmp/r.json"),
        ("LSQ_EXPERIMENTS_OUT", "out.txt"),
        ("LSQ_METRICS_ADDR", "127.0.0.1:9185"),
        ("LSQ_PROFILE", "yes"),
        ("LSQ_ACCOUNTING", "0"),
    ])
    .unwrap();
    assert_eq!(o.spec().instrs, 2000);
    assert_eq!(o.spec().warmup, RunSpec::DEFAULT.warmup);
    assert_eq!(o.jobs, Some(3));
    assert_eq!(o.progress, Some(false));
    assert_eq!(o.experiments_json, Some(PathBuf::from("/tmp/r.json")));
    assert_eq!(o.experiments_out, Some(PathBuf::from("out.txt")));
    assert_eq!(o.metrics_addr.as_deref(), Some("127.0.0.1:9185"));
    assert!(o.observers.profile, "any value but 0 turns a flag on");
    assert!(!o.observers.accounting);
    assert_eq!(
        parse(&[("LSQ_PROGRESS", "1")]).unwrap().progress,
        Some(true)
    );
}

#[test]
fn sink_knobs_build_their_configs() {
    let o = parse(&[
        ("LSQ_TRACE", "/tmp/t.json:chrome"),
        ("LSQ_SAMPLE_CYCLES", "500"),
        ("LSQ_TRACE_CAP", "64"),
        ("LSQ_PIPEVIEW", "/tmp/p.log:o3"),
        ("LSQ_PIPEVIEW_CAP", "32"),
    ])
    .unwrap();
    let trace = o.observers.trace.expect("LSQ_TRACE set");
    assert_eq!(trace.path, PathBuf::from("/tmp/t.json"));
    assert_eq!(trace.mode, TraceMode::Chrome);
    assert_eq!((trace.sample_cycles, trace.capacity), (Some(500), 64));
    let pv = o.observers.pipeview.expect("LSQ_PIPEVIEW set");
    assert_eq!((pv.path, pv.capacity), (PathBuf::from("/tmp/p.log"), 32));
    // Default capacities, and a zero window turns sampling off.
    let o = parse(&[("LSQ_TRACE", "t.json"), ("LSQ_SAMPLE_CYCLES", "0")]).unwrap();
    let trace = o.observers.trace.unwrap();
    assert_eq!(trace.sample_cycles, None);
    assert_eq!(trace.capacity, lsq_obs::DEFAULT_RING_CAPACITY);
}

#[test]
fn accounting_csv_suffixes() {
    let csv = |v: &str| {
        let o = parse(&[("LSQ_ACCOUNTING_CSV", v)]).unwrap();
        o.observers
            .accounting_csv
            .map(|(p, w)| (p.display().to_string(), w))
    };
    let some = |p: &str, w: u64| Some((p.to_string(), w));
    assert_eq!(csv("out.csv:5000"), some("out.csv", 5000));
    assert_eq!(csv("out.csv"), some("out.csv", 10_000));
    // A non-numeric suffix is part of the path.
    assert_eq!(csv("run:v2.csv"), some("run:v2.csv", 10_000));
    assert_eq!(
        csv("C:\\stacks\\out.csv"),
        some("C:\\stacks\\out.csv", 10_000)
    );
}
