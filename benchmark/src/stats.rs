//! The benchmark's estimators. Everything timed is sampled once per round
//! across the whole run; the gated value is the *fast decile* of those
//! samples (see NOISE.md for why not the minimum or the median).

use crate::json::Value;

/// `p`-quantile (0 ≤ p ≤ 1) of `sorted` with linear interpolation between
/// closest ranks — the same rule as numpy's default.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The 10th percentile of the per-round *times*: robust against the host's
/// multi-second slow bursts (which only ever add time) without resting on
/// the single luckiest sample the way a minimum does.
pub fn fast_decile(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 0.10)
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 0.5)
}

/// What a run document carries beside each gated value.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub p10: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub p90: f64,
    pub max: f64,
}

impl Summary {
    pub fn of(samples: &[f64]) -> Summary {
        let s = sorted(samples);
        Summary {
            n: s.len(),
            min: s[0],
            p10: percentile(&s, 0.10),
            q1: percentile(&s, 0.25),
            median: percentile(&s, 0.5),
            q3: percentile(&s, 0.75),
            p90: percentile(&s, 0.90),
            max: s[s.len() - 1],
        }
    }

    pub fn to_json(&self) -> Value {
        Value::obj([
            ("n", Value::Num(self.n as f64)),
            ("min", Value::Num(self.min)),
            ("p10", Value::Num(self.p10)),
            ("q1", Value::Num(self.q1)),
            ("median", Value::Num(self.median)),
            ("q3", Value::Num(self.q3)),
            ("p90", Value::Num(self.p90)),
            ("max", Value::Num(self.max)),
        ])
    }
}

/// Interquartile range as a share of the median — the spread the driver
/// computes over ten runs (Python's `statistics.quantiles(v, n=4)`, the
/// exclusive method: quartile k sits at rank k(n+1)/4).
pub fn quartile_spread(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    if n < 2 {
        return 0.0;
    }
    let at = |k: f64| {
        let rank = (k * (n + 1) as f64 / 4.0 - 1.0).clamp(0.0, (n - 1) as f64);
        let lo = rank.floor() as usize;
        let hi = (lo + 1).min(n - 1);
        s[lo] + (s[hi] - s[lo]) * (rank - lo as f64)
    };
    let median = percentile(&s, 0.5);
    if median == 0.0 {
        0.0
    } else {
        (at(3.0) - at(1.0)) / median.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert!((percentile(&v, 0.10) - 1.4).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn fast_decile_ignores_slow_bursts_and_one_lucky_sample() {
        // 30 rounds: one implausibly fast outlier, a third hit by a burst
        let mut samples = vec![1.00; 19];
        samples.push(0.50);
        samples.extend([1.8; 10]);
        let d = fast_decile(&samples);
        assert!((d - 1.0).abs() < 1e-12, "fast decile {d}");
        assert!(median(&samples) >= 1.0);
        // order of arrival must not matter
        samples.reverse();
        assert_eq!(fast_decile(&samples), d);
    }

    #[test]
    fn summary_is_ordered() {
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.n, s.min, s.median, s.max), (5, 1.0, 3.0, 5.0));
        assert!(s.min <= s.p10 && s.p10 <= s.q1 && s.q1 <= s.median);
        assert!(s.median <= s.q3 && s.q3 <= s.p90 && s.p90 <= s.max);
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quartile_spread(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(quartile_spread(&[3.0, 3.0, 3.0]), 0.0);
    }
}
