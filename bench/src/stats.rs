//! Order statistics for timing samples.
//!
//! Repetitions of identical work (passes, kernel rounds) are reported by
//! their fastest sample plus the sample count: they differ only by host
//! interference. Distributions over different pieces of work (cells,
//! campaigns) are reported as a median and the highest percentile that
//! still has [`MIN_BEYOND`] samples beyond it.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles the benchmark is willing to report, highest first.
const TAIL_CANDIDATES: [u32; 4] = [99, 95, 90, 75];

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle samples when the count is even), or
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The smallest sample: the timing least disturbed by the host, for
/// repetitions of identical work. `None` for an empty slice.
pub fn fastest(values: &[f64]) -> Option<f64> {
    values.iter().copied().min_by(f64::total_cmp)
}

/// Nearest-rank percentile of `values` (`pct` in `1..=100`), or `None` for
/// an empty slice.
pub fn percentile(values: &[f64], pct: u32) -> Option<f64> {
    let v = sorted(values);
    if v.is_empty() {
        return None;
    }
    let rank = (v.len() * pct as usize).div_ceil(100).clamp(1, v.len());
    Some(v[rank - 1])
}

/// The highest percentile not above `wanted` that has at least
/// [`MIN_BEYOND`] of `n` samples beyond it; 50 when none qualifies.
pub fn supported_tail(n: usize, wanted: u32) -> u32 {
    TAIL_CANDIDATES
        .into_iter()
        .filter(|&pct| pct <= wanted)
        .find(|&pct| n * (100 - pct as usize) / 100 >= MIN_BEYOND)
        .unwrap_or(50)
}

/// Distance between the first and third quartile as a share of the
/// median, with the quartiles Python's `statistics.quantiles(values, n=4)`
/// gives (its default "exclusive" method). `None` with fewer than two
/// samples or a zero median.
pub fn quartile_spread(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let quartile = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    let mid = median(&v)?;
    (mid != 0.0).then(|| (quartile(3) - quartile(1)) / mid.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn fastest_is_the_minimum() {
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), Some(1.5));
        assert_eq!(fastest(&[]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 90), Some(90.0));
        assert_eq!(percentile(&v, 50), Some(50.0));
        assert_eq!(percentile(&v, 100), Some(100.0));
        assert_eq!(percentile(&[7.0], 99), Some(7.0));
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // 99 samples leave only 9 beyond p90; 100 leave exactly 10.
        assert_eq!(supported_tail(99, 90), 75);
        assert_eq!(supported_tail(100, 90), 90);
        // Never report a higher percentile than asked for.
        assert_eq!(supported_tail(5000, 90), 90);
        assert_eq!(supported_tail(1000, 99), 99);
        assert_eq!(supported_tail(999, 99), 95);
        // 40 samples: p75 leaves exactly 10.
        assert_eq!(supported_tail(40, 90), 75);
        assert_eq!(supported_tail(39, 90), 50);
        assert_eq!(supported_tail(0, 90), 50);
    }

    #[test]
    fn quartile_spread_matches_python_exclusive_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let spread = quartile_spread(&v).expect("ten samples");
        assert!((spread - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let spread = quartile_spread(&[1.0, 2.0]).expect("two samples");
        assert!((spread - 1.0).abs() < 1e-12);
        assert_eq!(quartile_spread(&[1.0]), None);
        assert_eq!(quartile_spread(&[0.0, 0.0, 0.0]), None);
    }
}
