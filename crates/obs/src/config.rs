//! Trace configuration.
//!
//! Any run — `bin/diag`, `bin/artifact`, or a full experiment batch —
//! can be traced without code changes; the experiment binaries parse
//! these knobs once at start-up into a [`TraceConfig`]:
//!
//! * `LSQ_TRACE=<path>[:events|:chrome|:timeline]` selects the sink
//!   file and format (`events` = JSONL, `chrome` = Chrome
//!   `trace_event` JSON for Perfetto, `timeline` = windowed CSV only).
//! * `LSQ_SAMPLE_CYCLES=<n>` sets the sampler window; `events` and
//!   `chrome` runs with a window also write a `<path>.timeline.csv`
//!   sidecar.
//! * `LSQ_TRACE_CAP=<n>` bounds the event ring (default
//!   [`crate::DEFAULT_RING_CAPACITY`]).

use std::path::{Path, PathBuf};

use crate::sample::Sampler;
use crate::tracer::{TraceBuffer, DEFAULT_RING_CAPACITY};

/// Output format for a traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceMode {
    /// JSON Lines, one event object per line.
    Events,
    /// Chrome `trace_event` JSON (opens in Perfetto / `chrome://tracing`).
    Chrome,
    /// Windowed CSV time series only (no per-event output).
    Timeline,
}

/// A parsed trace configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceConfig {
    /// Primary output path.
    pub path: PathBuf,
    /// Output format.
    pub mode: TraceMode,
    /// Sampler window in cycles, if sampling was requested.
    pub sample_cycles: Option<u64>,
    /// Event-ring capacity.
    pub capacity: usize,
}

impl TraceConfig {
    /// Parse an `LSQ_TRACE`-style value plus an optional
    /// `LSQ_SAMPLE_CYCLES`-style value. The mode suffix is optional and
    /// defaults to `events`; an unrecognized suffix is treated as part
    /// of the path (so `C:\traces\out.json` keeps working).
    pub fn parse(trace: &str, sample_cycles: Option<&str>) -> TraceConfig {
        let (path, mode) = match trace.rsplit_once(':') {
            Some((p, "events")) => (p, TraceMode::Events),
            Some((p, "chrome")) => (p, TraceMode::Chrome),
            Some((p, "timeline")) => (p, TraceMode::Timeline),
            _ => (trace, TraceMode::Events),
        };
        let sample_cycles = sample_cycles.and_then(|s| s.trim().parse::<u64>().ok());
        TraceConfig {
            path: PathBuf::from(path),
            mode,
            sample_cycles: sample_cycles.filter(|&n| n > 0),
            capacity: DEFAULT_RING_CAPACITY,
        }
    }

    /// The sampler window to use, honouring the mode: `timeline` runs
    /// sample even when `LSQ_SAMPLE_CYCLES` is unset (defaulting to
    /// 1000 cycles), since a timeline with no windows would be empty.
    pub fn effective_sample_cycles(&self) -> Option<u64> {
        match (self.mode, self.sample_cycles) {
            (_, Some(n)) => Some(n),
            (TraceMode::Timeline, None) => Some(1000),
            _ => None,
        }
    }

    /// A copy with the output path uniquified for engine job `n` (see
    /// [`job_path`]).
    pub fn for_job(&self, n: u64) -> TraceConfig {
        TraceConfig {
            path: job_path(&self.path, n),
            ..self.clone()
        }
    }

    /// Path of the CSV timeline sidecar written alongside `events` /
    /// `chrome` output when sampling is on.
    pub fn timeline_path(&self) -> PathBuf {
        let mut os = self.path.clone().into_os_string();
        os.push(".timeline.csv");
        PathBuf::from(os)
    }

    /// Write the configured outputs. Returns the paths written. The
    /// sampler, if provided, should already be flushed by the caller
    /// (the simulator's `take_sampler` does this).
    pub fn write(
        &self,
        buf: &TraceBuffer,
        sampler: Option<&Sampler>,
    ) -> std::io::Result<Vec<PathBuf>> {
        let mut written = Vec::new();
        match self.mode {
            TraceMode::Events => {
                write_file(&self.path, &buf.to_jsonl())?;
                written.push(self.path.clone());
            }
            TraceMode::Chrome => {
                write_file(&self.path, &buf.to_chrome_trace())?;
                written.push(self.path.clone());
            }
            TraceMode::Timeline => {
                if let Some(s) = sampler {
                    write_file(&self.path, &s.to_csv())?;
                    written.push(self.path.clone());
                }
            }
        }
        if self.mode != TraceMode::Timeline {
            if let Some(s) = sampler {
                let path = self.timeline_path();
                write_file(&path, &s.to_csv())?;
                written.push(path);
            }
        }
        Ok(written)
    }
}

/// `path` uniquified for engine job `n`: job 0 keeps it verbatim, job
/// `n` appends `.n` (`out.json` → `out.json.3`), so parallel jobs never
/// clobber each other.
pub fn job_path(path: &Path, n: u64) -> PathBuf {
    let mut os = path.as_os_str().to_os_string();
    if n > 0 {
        os.push(format!(".{n}"));
    }
    PathBuf::from(os)
}

/// Writes `contents` to `path`, creating missing parent directories.
pub(crate) fn write_file(path: &Path, contents: &str) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    std::fs::write(path, contents)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_mode_suffixes() {
        let c = TraceConfig::parse("/tmp/t.json:chrome", None);
        assert_eq!(c.path, PathBuf::from("/tmp/t.json"));
        assert_eq!(c.mode, TraceMode::Chrome);
        let c = TraceConfig::parse("/tmp/t.jsonl:events", Some("500"));
        assert_eq!(c.mode, TraceMode::Events);
        assert_eq!(c.sample_cycles, Some(500));
        let c = TraceConfig::parse("/tmp/t.csv:timeline", None);
        assert_eq!(c.mode, TraceMode::Timeline);
    }

    #[test]
    fn bare_path_defaults_to_events() {
        let c = TraceConfig::parse("/tmp/out.jsonl", None);
        assert_eq!(c.mode, TraceMode::Events);
        assert_eq!(c.path, PathBuf::from("/tmp/out.jsonl"));
        // Unrecognized suffix stays part of the path.
        let c = TraceConfig::parse("trace:v2", None);
        assert_eq!(c.path, PathBuf::from("trace:v2"));
    }

    #[test]
    fn zero_sample_cycles_disables_sampling() {
        let c = TraceConfig::parse("/tmp/t.json", Some("0"));
        assert_eq!(c.sample_cycles, None);
        assert_eq!(c.effective_sample_cycles(), None);
    }

    #[test]
    fn timeline_mode_defaults_a_window() {
        let c = TraceConfig::parse("/tmp/t.csv:timeline", None);
        assert_eq!(c.effective_sample_cycles(), Some(1000));
        let c = TraceConfig::parse("/tmp/t.csv:timeline", Some("250"));
        assert_eq!(c.effective_sample_cycles(), Some(250));
    }

    #[test]
    fn job_paths_are_unique_and_job_zero_is_verbatim() {
        let c = TraceConfig::parse("/tmp/t.json:chrome", None);
        assert_eq!(c.for_job(0).path, PathBuf::from("/tmp/t.json"));
        assert_eq!(c.for_job(3).path, PathBuf::from("/tmp/t.json.3"));
        assert_eq!(c.timeline_path(), PathBuf::from("/tmp/t.json.timeline.csv"));
    }
}
