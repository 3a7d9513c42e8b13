//! Tiny-budget runs of every workload through the real binary, in both
//! modes: each must pass its correctness checks and report exactly the
//! metrics `BENCHMARK.json` lists for its mode, with valid names.

use lsq_obs::Json;
use std::path::Path;
use std::process::{Command, Output};

const WORKLOADS: [&str; 2] = ["seg-search", "mem-stall"];

/// Runs the binary with `args` (split on spaces) and no ambient `LSQ_*`
/// variable besides `env`.
fn perfbench(args: &str, env: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perfbench"));
    cmd.args(args.split_whitespace());
    for (k, _) in std::env::vars_os() {
        if k.to_string_lossy().starts_with("LSQ_") {
            cmd.env_remove(k);
        }
    }
    cmd.envs(env.iter().copied());
    cmd.output().expect("perfbench runs")
}

fn last_line(out: &Output) -> Json {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout.lines().last().expect("a result line");
    Json::parse(line).expect("the result line is JSON")
}

/// Metric names `BENCHMARK.json` lists under `key`.
fn listed(key: &str) -> Vec<String> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let text = std::fs::read_to_string(root).expect("BENCHMARK.json is readable");
    let doc = Json::parse(&text).expect("BENCHMARK.json is JSON");
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn smoke(workload: &str, trace: &str, key: &str) {
    let out = perfbench(
        &format!("--workload {workload} --seed 3 --seconds 1 --trace {trace} --scale tiny"),
        &[],
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{workload} --trace {trace}: {stderr}");
    let result = last_line(&out);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{stderr}");
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap_or(0) >= 1);
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics");
    let names: Vec<String> = metrics.iter().map(|(k, _)| k.clone()).collect();
    assert_eq!(names, listed(key), "{workload} --trace {trace}");
    for (name, m) in metrics {
        assert!(valid_name(name), "{name}");
        assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
        assert!(m.get("unit").and_then(Json::as_str).is_some(), "{name}");
    }
}

#[test]
fn every_workload_runs_untraced() {
    for w in WORKLOADS {
        smoke(w, "0", "end_to_end");
    }
}

#[test]
fn every_workload_runs_traced() {
    for w in WORKLOADS {
        smoke(w, "1", "per_layer");
    }
}

#[test]
fn end_to_end_metrics_are_never_zero() {
    let out = perfbench(
        "--workload seg-search --seed 1 --seconds 1 --trace 0 --scale tiny",
        &[],
    );
    let result = last_line(&out);
    for (name, m) in result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics")
    {
        assert!(
            m.get("value").and_then(Json::as_f64).unwrap_or(0.0) > 0.0,
            "{name}"
        );
    }
}

#[test]
fn ambient_knobs_are_refused() {
    let out = perfbench(
        "--workload mem-stall --seed 1 --seconds 1 --trace 0 --scale tiny",
        &[("LSQ_PROFILE", "1")],
    );
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result is printed");
    assert!(String::from_utf8_lossy(&out.stderr).contains("LSQ_PROFILE"));
}

#[test]
fn bad_arguments_are_refused() {
    let out = perfbench("--workload nonesuch --seed 1", &[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
