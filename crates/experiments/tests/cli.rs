//! Process-level checks of knob parsing: a binary given a malformed or
//! unknown `LSQ_*` knob exits 2, naming the knob, before simulating.

use std::process::Command;

/// Runs `artifact table2` with `knob=value` set and every other `LSQ_*`
/// variable cleared; returns the exit code and stderr.
fn artifact_table2_with(knob: &str, value: &str) -> (Option<i32>, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_artifact"));
    for (name, _) in std::env::vars_os() {
        if name.to_string_lossy().starts_with("LSQ_") {
            cmd.env_remove(name);
        }
    }
    let out = cmd
        .arg("table2")
        .env(knob, value)
        .output()
        .expect("artifact binary runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn malformed_instruction_budget_exits_2() {
    let (code, stderr) = artifact_table2_with("LSQ_INSTRS", "abc");
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(stderr.contains("LSQ_INSTRS"), "{stderr}");
    assert!(
        stderr.contains("Measured instructions"),
        "the knob's doc: {stderr}"
    );
}

#[test]
fn unknown_knob_exits_2() {
    let (code, stderr) = artifact_table2_with("LSQ_WARMUPS", "2000");
    assert_eq!(code, Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("LSQ_WARMUPS is not a registered knob"),
        "{stderr}"
    );
}
