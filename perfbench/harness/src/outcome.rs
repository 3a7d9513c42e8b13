//! What one benchmark run reports: metrics, job counts, failures, and
//! the provenance printed beside them.

use crate::metrics::{median, Metric};
use lsq_obs::Json;

/// The result of one workload run.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Jobs attempted, over every pass of the run.
    pub attempted: u64,
    /// One line per failed job: it panicked, hit the cycle cap, or
    /// committed less than its budget.
    pub failed_jobs: Vec<String>,
    /// Failed correctness checks that are not a single job's failure.
    pub check_errors: Vec<String>,
    /// Details for the human-readable report line.
    pub info: Vec<(String, Json)>,
}

impl Outcome {
    /// Whether every job met its budget and every check passed.
    pub fn correct(&self) -> bool {
        self.failed_jobs.is_empty() && self.check_errors.is_empty()
    }

    /// Adds a detail to the report line.
    pub fn note(&mut self, key: &str, value: impl Into<Json>) {
        self.info.push((key.to_string(), value.into()));
    }
}

/// Per-metric medians over repeated measurements: every round must
/// report the same names in the same order; each name keeps its unit.
pub fn median_metrics(rounds: &[Vec<Metric>]) -> Vec<Metric> {
    let Some(first) = rounds.first() else {
        return Vec::new();
    };
    first
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let values: Vec<f64> = rounds
                .iter()
                .filter_map(|r| r.get(i))
                .map(|x| x.value)
                .collect();
            Metric::new(m.name, m.unit, median(&values).unwrap_or(m.value))
        })
        .collect()
}

/// Runs `f`, turning a panic into an error message.
pub fn catch<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panicked".to_string())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_are_taken_per_metric() {
        let rounds = vec![
            vec![Metric::new("a", "s", 1.0), Metric::new("b", "ms", 10.0)],
            vec![Metric::new("a", "s", 3.0), Metric::new("b", "ms", 30.0)],
            vec![Metric::new("a", "s", 2.0), Metric::new("b", "ms", 90.0)],
        ];
        let m = median_metrics(&rounds);
        assert_eq!(
            m,
            vec![Metric::new("a", "s", 2.0), Metric::new("b", "ms", 30.0)]
        );
        assert!(median_metrics(&[]).is_empty());
    }

    #[test]
    fn panics_become_errors() {
        assert_eq!(catch(|| 7), Ok(7));
        let e = catch(|| -> u32 { std::panic::panic_any("boom".to_string()) });
        assert_eq!(e, Err("boom".to_string()));
    }
}
