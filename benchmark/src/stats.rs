//! Order statistics shared by the workloads and by `compare`.

/// Sorts a copy of `xs` ascending (the inputs are measured times and
/// sizes, never NaN).
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median: the middle sample, or the mean of the middle pair.
/// `0.0` for no samples.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (0 < p <= 100) of ascending `sorted`.
/// `0.0` for no samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(p, sorted.len()) - 1]
}

/// The tail percentile reported beside a median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Which percentile (99, 90, or 50 when no higher one qualifies).
    pub p: f64,
    /// Its value.
    pub value: f64,
}

/// The highest of p99 and p90 that leaves at least ten samples above
/// its rank, so the tail rests on more than one or two outliers; the
/// median when neither does.
pub fn tail(sorted: &[f64]) -> Tail {
    let n = sorted.len();
    let p = [99.0, 90.0]
        .into_iter()
        .find(|&p| n >= 10 && n - rank(p, n) >= 10)
        .unwrap_or(50.0);
    let value = if p == 50.0 {
        median(sorted)
    } else {
        percentile(sorted, p)
    };
    Tail { p, value }
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the default
/// "exclusive" method), so a spread printed here matches one computed
/// from the same values in Python.
pub fn quartiles(xs: &[f64]) -> [f64; 3] {
    let v = sorted(xs);
    let ld = v.len();
    match ld {
        0 => return [0.0; 3],
        1 => return [v[0]; 3],
        _ => {}
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile distance as a share of the median: the run-to-run
/// spread every bound is judged against.
pub fn spread(xs: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(xs);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        // 20 samples: p90 has rank 18, only 2 above it.
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(
            tail(&v),
            Tail {
                p: 50.0,
                value: 10.5
            }
        );
        // 100 samples: p90 has 10 above it, p99 only 1.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(
            tail(&v),
            Tail {
                p: 90.0,
                value: 90.0
            }
        );
        // 1000 samples: p99 has exactly 10 above it.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(
            tail(&v),
            Tail {
                p: 99.0,
                value: 990.0
            }
        );
        // 999 samples: p99 leaves 9, so p90 is the tail.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&v).p, 90.0);
        // Too few samples for any tail: the single value is the median.
        assert_eq!(
            tail(&[5.0]),
            Tail {
                p: 50.0,
                value: 5.0
            }
        );
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 2.0, 1.0, 3.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }
}
