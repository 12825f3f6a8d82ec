//! Order statistics the reports are built from.

/// Median, quartiles, median absolute deviation and sample count of one
/// metric within a run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub mad: f64,
    pub n: usize,
}

impl Summary {
    /// Summary of a sample; the sample must not be empty.
    pub fn of(samples: &[f64]) -> Summary {
        let sorted = sorted(samples);
        let (q1, median, q3) = quartiles(&sorted);
        let deviations: Vec<f64> = sorted.iter().map(|v| (v - median).abs()).collect();
        Summary {
            median,
            q1,
            q3,
            mad: quartiles(&self::sorted(&deviations)).1,
            n: sorted.len(),
        }
    }

    /// A value that is counted or computed, not sampled.
    pub fn exact(value: f64) -> Summary {
        Summary {
            median: value,
            q1: value,
            q3: value,
            mad: 0.0,
            n: 1,
        }
    }
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of an unsorted sample.
pub fn median(samples: &[f64]) -> f64 {
    quartiles(&sorted(samples)).1
}

/// `(q1, median, q3)` of an ascending sample, by the rule of Python's
/// `statistics.quantiles(values, n=4)` — the one the benchmark driver
/// applies across runs, so that spreads read the same inside a run.
pub fn quartiles(sorted: &[f64]) -> (f64, f64, f64) {
    assert!(!sorted.is_empty(), "quartiles of an empty sample");
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least `p` percent of the sample at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1]
}

/// `ceil(p % of n)`, with a tolerance for `p / 100 * n` landing a rounding
/// error above a whole number (99.9 % of 10 000 is 9990, not 9991).
fn rank(n: usize, p: f64) -> usize {
    (p / 100.0 * n as f64 - 1e-9).ceil() as usize
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it, with its value; `None` below 40 samples.
pub fn tail(sorted: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|&p| sorted.len().saturating_sub(rank(sorted.len(), p)) >= 10)
        .map(|p| (p, percentile(sorted, p)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let s = ramp(10);
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 91.0), 10.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail(&ramp(39)), None);
        // 40 samples: p75 is rank 30, ten beyond it.
        assert_eq!(tail(&ramp(40)), Some((75.0, 30.0)));
        // 999 samples: p99 is rank 990, only nine beyond it.
        assert_eq!(tail(&ramp(999)), Some((95.0, 950.0)));
        assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
        assert_eq!(tail(&ramp(10_000)), Some((99.9, 9990.0)));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&ramp(5)), (1.5, 3.0, 4.5));
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        assert_eq!(quartiles(&ramp(10)), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&ramp(2)), (0.75, 1.5, 2.25));
    }

    #[test]
    fn summary_reports_median_quartiles_mad_and_n() {
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.median, s.q1, s.q3, s.n), (3.0, 1.5, 4.5, 5));
        // Deviations from 3 are 0, 1, 1, 2, 2.
        assert_eq!(s.mad, 1.0);
        assert_eq!(Summary::exact(7.0).n, 1);
        assert_eq!(median(&[4.0, 1.0]), 2.5);
    }
}
