//! Sample summaries: nearest-rank percentiles for latency samples, the
//! tail-percentile rule, and the quartiles `compare` and the repeatability
//! check use (computed the way Python's `statistics` module does).

/// Nearest-rank percentile of ascending `sorted` at `permille` / 1000: the
/// smallest sample with at least that share of samples at or below it. It
/// is always a measured value, never an interpolation. Integer arithmetic,
/// so `p90` of 100 samples is exactly the 90th sample.
pub fn percentile(sorted: &[f64], permille: u32) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let n = sorted.len();
    let rank = (permille as usize * n).div_ceil(1000).clamp(1, n);
    sorted[rank - 1]
}

/// Samples strictly beyond the nearest-rank `permille` percentile.
fn beyond(n: usize, permille: u32) -> usize {
    n - (permille as usize * n).div_ceil(1000).min(n)
}

/// The highest reportable tail percentile (in permille) for `n` samples:
/// the highest of p99.9, p99, p95, p90, p75 and p50 with at least ten
/// samples beyond it. `None` below 20 samples.
pub fn tail_permille(n: usize) -> Option<u32> {
    [999, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|&q| beyond(n, q) >= 10)
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut out = values.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

/// Median as Python's `statistics.median` computes it (mean of the two
/// middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    assert!(!s.is_empty(), "median of an empty sample");
    let mid = s.len() / 2;
    match s.len() % 2 {
        1 => s[mid],
        _ => (s[mid - 1] + s[mid]) / 2.0,
    }
}

/// First and third quartiles as Python's `statistics.quantiles(values,
/// n=4)` computes them (the default `exclusive` method). A single value is
/// its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    assert!(!s.is_empty(), "quartiles of an empty sample");
    if s.len() == 1 {
        return (s[0], s[0]);
    }
    let ld = s.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_measured_samples() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 500), 50.0);
        assert_eq!(percentile(&s, 900), 90.0);
        assert_eq!(percentile(&s, 990), 99.0);
        assert_eq!(percentile(&[7.0], 900), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 500), 2.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        assert_eq!(tail_permille(19), None);
        assert_eq!(tail_permille(20), Some(500));
        assert_eq!(tail_permille(39), Some(500));
        assert_eq!(tail_permille(40), Some(750));
        assert_eq!(tail_permille(99), Some(750));
        // p90 of 100 samples has exactly samples 91..=100 beyond it.
        assert_eq!(beyond(100, 900), 10);
        assert_eq!(tail_permille(100), Some(900));
        assert_eq!(tail_permille(199), Some(900));
        assert_eq!(tail_permille(200), Some(950));
        assert_eq!(tail_permille(1000), Some(990));
        assert_eq!(tail_permille(10_000), Some(999));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }
}
