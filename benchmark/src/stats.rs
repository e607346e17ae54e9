//! Order statistics used everywhere a number is reported: exact
//! nearest-rank percentiles over integer samples (virtual latencies) and
//! median / quartiles over host-clock repeats.

/// Exact nearest-rank percentile: the smallest sample such that at least
/// `p` percent of the samples are `<=` it. `sorted` must be ascending and
/// non-empty; `p` is in `(0, 100]`.
pub fn nearest_rank(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample set");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of (0, 100]");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median and quartiles of a set of host-clock repeats.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Quartiles {
    /// Interquartile distance as a share of the median (0 when the median
    /// is 0) — the spread the compare tool holds against a metric's bound.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// Quartiles by the exclusive method (Python's
/// `statistics.quantiles(values, n=4)`, which the acceptance check uses):
/// the i-th cut sits at position `i·(n+1)/4` of the sorted values, linearly
/// interpolated and clamped to the extremes. One value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> Quartiles {
    assert!(!values.is_empty(), "quartiles of an empty sample set");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are never NaN"));
    let n = v.len();
    if n == 1 {
        return Quartiles {
            q1: v[0],
            median: v[0],
            q3: v[0],
            n,
        };
    }
    let cut = |i: usize| -> f64 {
        let pos = i as f64 * (n as f64 + 1.0) / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        v[j - 1] + (pos - j as f64) * (v[j] - v[j - 1])
    };
    Quartiles {
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
        n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&s, 50.0), 50);
        assert_eq!(nearest_rank(&s, 99.0), 99);
        assert_eq!(nearest_rank(&s, 100.0), 100);
        assert_eq!(nearest_rank(&s, 0.5), 1);
        // Classic textbook case: {15,20,35,40,50}.
        let t = [15, 20, 35, 40, 50];
        assert_eq!(nearest_rank(&t, 5.0), 15);
        assert_eq!(nearest_rank(&t, 30.0), 20);
        assert_eq!(nearest_rank(&t, 40.0), 20);
        assert_eq!(nearest_rank(&t, 50.0), 35);
        assert_eq!(nearest_rank(&t, 100.0), 50);
        assert_eq!(nearest_rank(&[7], 99.0), 7);
    }

    #[test]
    fn nearest_rank_p99_leaves_one_percent_beyond() {
        let s: Vec<u64> = (0..1000).collect();
        let p99 = nearest_rank(&s, 99.0);
        assert_eq!(s.iter().filter(|&&x| x > p99).count(), 10);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let q = quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((q.q1, q.median, q.q3, q.n), (1.5, 3.0, 4.5, 5));
        // statistics.quantiles([1,2,3], n=4) == [1.0, 2.0, 3.0]
        let q = quartiles(&[1.0, 2.0, 3.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles(range(1,11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = quartiles(&v);
        assert_eq!((q.q1, q.median, q.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates on two points.
        let q = quartiles(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
        let q = quartiles(&[4.0]);
        assert_eq!((q.q1, q.median, q.q3, q.n), (4.0, 4.0, 4.0, 1));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let q = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(q.spread(), 1.0);
        assert_eq!(quartiles(&[0.0, 0.0, 0.0]).spread(), 0.0);
    }
}
