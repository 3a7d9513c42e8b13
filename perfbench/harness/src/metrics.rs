//! Metric records, their names, and the order statistics behind them.

use lsq_obs::Json;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    /// A metric; names are checked when the result is assembled.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Self { name, unit, value }
    }
}

/// Whether `name` is a valid metric or workload name: it starts with a
/// letter or digit and has at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Whether `unit` is a valid unit: 1 to 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    !unit.is_empty() && unit.len() <= 16 && unit.chars().all(ok_char)
}

/// Checks names and units, and that no name repeats.
pub fn check_metrics(metrics: &[Metric]) -> Result<(), String> {
    for (i, m) in metrics.iter().enumerate() {
        if !valid_name(m.name) {
            return Err(format!("invalid metric name {:?}", m.name));
        }
        if !valid_unit(m.unit) {
            return Err(format!("invalid unit {:?} of {}", m.unit, m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("{} is not a finite number", m.name));
        }
        if metrics[..i].iter().any(|o| o.name == m.name) {
            return Err(format!("metric {} reported twice", m.name));
        }
    }
    Ok(())
}

/// The `metrics` object of the result line.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name,
                    Json::obj(vec![
                        ("value", m.value.into()),
                        ("unit", Json::from(m.unit)),
                    ]),
                )
            })
            .collect(),
    )
}

/// Median of `xs` (mean of the middle pair for even counts); `None`
/// when empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Fewest samples that must lie above a reported percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The `q`-quantile (`0 < q < 1`) by the nearest-rank method, or `None`
/// when fewer than [`MIN_TAIL_SAMPLES`] samples would lie above it.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    let n = xs.len();
    if n == 0 || !(0.0..1.0).contains(&q) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_TAIL_SAMPLES {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// Geometric mean of positive values; `None` when empty or any value is
/// not positive.
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// Element-wise minimum over repeated passes of the same pieces of work
/// ("best of N" per piece). On a host whose cores other tenants share,
/// interference only ever adds time, and it comes in bursts of seconds
/// that cover whole passes; the quickest observation of each short piece
/// estimates the program's own cost. `None` when the passes are empty or
/// do not time the same number of pieces.
pub fn best_of(passes: &[Vec<f64>]) -> Option<Vec<f64>> {
    let first = passes.first()?;
    if passes.iter().any(|p| p.len() != first.len()) {
        return None;
    }
    Some(
        (0..first.len())
            .map(|i| passes.iter().map(|p| p[i]).fold(f64::INFINITY, f64::min))
            .collect(),
    )
}

/// Element-wise median over repeated passes of the same pieces of work;
/// `None` as for [`best_of`].
pub fn median_of(passes: &[Vec<f64>]) -> Option<Vec<f64>> {
    let first = passes.first()?;
    if passes.iter().any(|p| p.len() != first.len()) {
        return None;
    }
    (0..first.len())
        .map(|i| median(&passes.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .collect()
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_follow_the_contract() {
        assert!(valid_name("chunk_us.p90"));
        assert!(valid_name("pipeline.phase.wakeup_issue.share"));
        assert!(valid_name("seg-search"));
        assert!(valid_name("9lives"));
        assert!(!valid_name(""));
        assert!(!valid_name(".hidden"));
        assert!(!valid_name("_x"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("slash/y"));
        assert!(!valid_name(&"x".repeat(65)));
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn units_follow_the_contract() {
        for u in ["ms", "s", "1/s", "count", "%", "instr/cycle", "MB"] {
            assert!(valid_unit(u), "{u}");
        }
        assert!(!valid_unit(""));
        assert!(!valid_unit("m s"));
        assert!(!valid_unit(&"u".repeat(17)));
    }

    #[test]
    fn duplicate_and_bad_metrics_are_refused() {
        let ok = vec![Metric::new("a", "s", 1.0), Metric::new("b", "s", 2.0)];
        assert!(check_metrics(&ok).is_ok());
        let dup = vec![Metric::new("a", "s", 1.0), Metric::new("a", "s", 2.0)];
        assert!(check_metrics(&dup).is_err());
        assert!(check_metrics(&[Metric::new("a", "s", f64::NAN)]).is_err());
        assert!(check_metrics(&[Metric::new("a b", "s", 1.0)]).is_err());
    }

    #[test]
    fn p90_needs_ten_samples_above_it() {
        let xs: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(
            percentile(&xs, 0.9),
            None,
            "99 samples leave only 9 above p90"
        );
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.9), Some(90.0));
        assert_eq!(percentile(&xs, 0.5), Some(50.0));
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), Some(10.0));
        assert_eq!(percentile(&xs[..19], 0.5), None, "only 9 above the median");
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn best_and_median_are_per_piece() {
        let passes = vec![vec![3.0, 1.0], vec![1.0, 5.0], vec![2.0, 2.0]];
        assert_eq!(best_of(&passes), Some(vec![1.0, 1.0]));
        assert_eq!(median_of(&passes), Some(vec![2.0, 2.0]));
        assert_eq!(best_of(&[]), None);
        assert_eq!(best_of(&[vec![1.0], vec![1.0, 2.0]]), None);
        assert_eq!(median_of(&[vec![1.0], vec![]]), None);
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        let g = geomean(&[1.0, 4.0]).expect("positive");
        assert!((g - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), None);
    }

    #[test]
    fn json_shape() {
        let j = metrics_json(&[Metric::new("wall_s", "s", 1.5)]).to_string();
        assert!(j.contains("\"wall_s\""), "{j}");
        assert!(j.contains("\"value\""), "{j}");
        assert!(
            j.contains("\"unit\":\"s\"") || j.contains("\"unit\": \"s\""),
            "{j}"
        );
    }
}
