//! The host and process environment: `LSQ_*` knob pinning, and what the
//! result records about the machine it ran on.

use std::ffi::OsString;

/// The `LSQ_*` variables set in `vars`, by name.
pub fn lsq_knobs(vars: impl IntoIterator<Item = (OsString, OsString)>) -> Vec<String> {
    let mut names: Vec<String> = vars
        .into_iter()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("LSQ_"))
        .collect();
    names.sort();
    names
}

/// Refuses to run with any ambient `LSQ_*` knob: `RunSpec::default()`
/// and the experiment runner read them, and a stray `LSQ_PROFILE=1`
/// would silently turn a workload into a profiled run.
pub fn refuse_ambient_knobs() -> Result<(), String> {
    let stray = lsq_knobs(std::env::vars_os());
    if stray.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the benchmark pins every simulator knob itself; unset {}",
            stray.join(", "),
            if stray.len() == 1 { "it" } else { "them" }
        ))
    }
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model from `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `git rev-parse HEAD` of the working directory, or `unknown` when the
/// working directory itself is not a git checkout (git is kept from
/// searching the directories above it).
pub fn git_rev() -> String {
    let mut cmd = std::process::Command::new("git");
    if let Some(parent) = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(|p| p.to_path_buf()))
    {
        cmd.env("GIT_CEILING_DIRECTORIES", parent);
    }
    cmd.args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// This process's peak resident set (`VmHWM`) in MiB, or `None` where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_lsq_prefixed_variables_count() {
        let vars = vec![
            (OsString::from("PATH"), OsString::from("/bin")),
            (OsString::from("LSQ_PROFILE"), OsString::from("1")),
            (OsString::from("LSQ_JOBS"), OsString::from("2")),
            (OsString::from("XLSQ_JOBS"), OsString::from("2")),
        ];
        assert_eq!(lsq_knobs(vars), vec!["LSQ_JOBS", "LSQ_PROFILE"]);
    }

    #[test]
    fn host_facts_are_readable() {
        assert!(nproc() >= 1);
        assert!(!cpu_model().is_empty());
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
