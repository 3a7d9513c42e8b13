//! Typed run options: every registered `LSQ_*` knob, parsed once.
//!
//! Each experiment binary hands its environment to
//! [`RunOptions::parse_or_exit`] at the top of `main` and passes the
//! result on explicitly: the instruction budget through
//! [`RunOptions::spec`], everything else through
//! [`crate::engine::configure`]. Library code never reads the
//! environment. A malformed value, or an `LSQ_*` name missing from
//! [`lsq_util::knobs::REGISTRY`], is fatal: the binary prints the knob's
//! name and doc and exits 2 instead of silently running the defaults.
//! An empty value counts as unset; flags are on for any value but `0`.
//!
//! The knobs are the fields of [`RunOptions`] and of its
//! [`Observers`]; the `EXPERIMENTS.md` knob table lists the same names.

use crate::runner::{Observers, RunSpec};
use lsq_obs::{PipeviewConfig, TraceConfig};
use lsq_util::knobs;
use std::collections::BTreeMap;
use std::ffi::OsStr;
use std::path::PathBuf;
use std::str::FromStr;

/// Every registered knob, parsed and validated; `None` means unset.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunOptions {
    /// `LSQ_INSTRS`: measured instructions per job (default 250 000,
    /// after a 100 000-instruction warm-up).
    pub instrs: Option<u64>,
    /// `LSQ_JOBS`: worker threads (default: every available CPU).
    pub jobs: Option<usize>,
    /// `LSQ_PROGRESS=1|0`: force the progress/ETA line on stderr on or
    /// off (default: on when stderr is a terminal).
    pub progress: Option<bool>,
    /// `LSQ_EXPERIMENTS_JSON`: after every batch, dump one JSON record
    /// per job so far (configuration, counters, timing, cache hit) here.
    pub experiments_json: Option<PathBuf>,
    /// `LSQ_EXPERIMENTS_OUT`: where `--bin all` also writes its output.
    pub experiments_out: Option<PathBuf>,
    /// `LSQ_METRICS_ADDR=<ip:port>`: serve `/metrics` and `/jobs` while
    /// batches run (see [`crate::telemetry`]).
    pub metrics_addr: Option<String>,
    /// The observers attached to every *fresh* job (cache hits re-serve
    /// the stored result): `LSQ_TRACE`, `LSQ_PROFILE`, `LSQ_ACCOUNTING`,
    /// `LSQ_PIPEVIEW` and their companion knobs.
    pub observers: Observers,
}

impl RunOptions {
    /// Parses every `LSQ_*` variable of `vars` (other names are
    /// ignored), e.g. `std::env::vars_os()`. The error names the
    /// offending knob and quotes its doc.
    pub fn parse<K, V>(vars: impl IntoIterator<Item = (K, V)>) -> Result<RunOptions, String>
    where
        K: AsRef<OsStr>,
        V: AsRef<OsStr>,
    {
        let mut set = Knobs(BTreeMap::new());
        for (name, value) in vars {
            let name = name.as_ref().to_string_lossy();
            if !name.starts_with("LSQ_") {
                continue;
            }
            let Some(knob) = knobs::find(&name) else {
                let names: Vec<&str> = knobs::REGISTRY.iter().map(|k| k.name).collect();
                let names = names.join(", ");
                return Err(format!(
                    "{name} is not a registered knob; the knobs are: {names}"
                ));
            };
            let value = value.as_ref();
            let Some(text) = value.to_str() else {
                return Err(invalid(knob.name, &value.to_string_lossy(), "not UTF-8"));
            };
            if !text.trim().is_empty() {
                set.0.insert(knob.name, text.trim().to_string());
            }
        }
        set.options()
    }

    /// [`RunOptions::parse`] for a binary's `main`: on a bad knob, prints
    /// the error and exits with status 2.
    pub fn parse_or_exit(vars: std::env::VarsOs) -> RunOptions {
        Self::parse(vars).unwrap_or_else(|e| {
            eprintln!("error: {e}");
            std::process::exit(2)
        })
    }

    /// The experiments' run budget with `LSQ_INSTRS` applied.
    pub fn spec(&self) -> RunSpec {
        RunSpec {
            instrs: self.instrs.unwrap_or(RunSpec::DEFAULT.instrs),
            ..RunSpec::DEFAULT
        }
    }
}

/// The error for registered knob `name` set to `value`.
fn invalid(name: &str, value: &str, reason: &str) -> String {
    let doc = knobs::find(name).map_or(String::new(), |k| {
        format!("\n  {name} ({}, default {}): {}", k.kind, k.default, k.doc)
    });
    format!("{name}={value:?}: {reason}{doc}")
}

/// The set, non-empty registered knobs, trimmed, by name.
struct Knobs(BTreeMap<&'static str, String>);

impl Knobs {
    fn get(&self, name: &str) -> Option<&str> {
        self.0.get(name).map(String::as_str)
    }

    fn error(&self, name: &str, reason: &str) -> String {
        invalid(name, self.get(name).unwrap_or_default(), reason)
    }

    fn flag(&self, name: &str) -> bool {
        self.get(name).is_some_and(|v| v != "0")
    }

    fn int<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let parse = |v: &str| {
            v.parse()
                .map_err(|_| self.error(name, "expected a non-negative integer"))
        };
        self.get(name).map(parse).transpose()
    }

    fn positive(&self, name: &str) -> Result<Option<usize>, String> {
        match self.int::<usize>(name) {
            Ok(Some(0)) | Err(_) => Err(self.error(name, "expected a positive integer")),
            ok => ok,
        }
    }

    /// `<path>[:window]`: a numeric suffix must be a positive window in
    /// cycles (default 10 000); any other suffix is part of the path.
    fn accounting_csv(&self) -> Result<Option<(PathBuf, u64)>, String> {
        let Some(raw) = self.get("LSQ_ACCOUNTING_CSV") else {
            return Ok(None);
        };
        let (path, window) = raw.rsplit_once(':').unwrap_or((raw, ""));
        let digits = window.trim_start_matches(['+', '-']);
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return Ok(Some((PathBuf::from(raw), 10_000)));
        }
        match window.parse::<u64>() {
            Ok(w) if w > 0 && !path.is_empty() => Ok(Some((PathBuf::from(path), w))),
            _ => Err(self.error("LSQ_ACCOUNTING_CSV", "expected a positive window after `:`")),
        }
    }

    fn options(&self) -> Result<RunOptions, String> {
        // Validated even without LSQ_TRACE; `TraceConfig::parse` reads it.
        self.int::<u64>("LSQ_SAMPLE_CYCLES")?;
        let trace_cap = self.positive("LSQ_TRACE_CAP")?;
        let pipeview_cap = self.positive("LSQ_PIPEVIEW_CAP")?;
        let trace = self.get("LSQ_TRACE").map(|t| TraceConfig {
            capacity: trace_cap.unwrap_or(lsq_obs::DEFAULT_RING_CAPACITY),
            ..TraceConfig::parse(t, self.get("LSQ_SAMPLE_CYCLES"))
        });
        let pipeview = self.get("LSQ_PIPEVIEW").map(|p| PipeviewConfig {
            capacity: pipeview_cap.unwrap_or(lsq_obs::DEFAULT_PIPEVIEW_CAPACITY),
            ..PipeviewConfig::parse(p)
        });
        Ok(RunOptions {
            instrs: self.int("LSQ_INSTRS")?,
            jobs: self.positive("LSQ_JOBS")?,
            progress: self.get("LSQ_PROGRESS").map(|v| v != "0"),
            experiments_json: self.get("LSQ_EXPERIMENTS_JSON").map(PathBuf::from),
            experiments_out: self.get("LSQ_EXPERIMENTS_OUT").map(PathBuf::from),
            metrics_addr: self.get("LSQ_METRICS_ADDR").map(str::to_string),
            observers: Observers {
                trace,
                profile: self.flag("LSQ_PROFILE"),
                accounting: self.flag("LSQ_ACCOUNTING"),
                accounting_csv: self.accounting_csv()?,
                pipeview,
            },
        })
    }
}
