//! Order statistics: medians, quartiles and the percentile picker.

/// Fewest samples that must lie beyond a reported percentile: below this the
/// percentile is a handful of outliers, not a property of the system.
pub const MIN_BEYOND: usize = 10;

/// Percentiles the picker may report, ascending.
pub const CANDIDATES: [u32; 5] = [50, 75, 90, 95, 99];

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle values for an even count). `NaN` when empty.
pub fn median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// `[q1, q2, q3]` exactly as Python's `statistics.quantiles(values, n=4)`
/// (the default exclusive method) computes them, because that is what the
/// acceptance procedure in BENCHMARK.json's contract uses. Needs two samples.
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(samples);
    let ld = v.len();
    if ld < 2 {
        return None;
    }
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median — the spread the acceptance
/// procedure compares with a metric's bound.
pub fn iqr_over_median(samples: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(samples)?;
    Some((q3 - q1) / q2.abs())
}

/// Largest pairwise distance as a share of the median.
pub fn range_over_median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    match (v.first(), v.last()) {
        (Some(lo), Some(hi)) => (hi - lo) / median(&v).abs(),
        _ => f64::NAN,
    }
}

/// The `pct`-th percentile by nearest rank, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], pct: u32) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    let rank = (n * pct as usize).div_ceil(100).max(1);
    if n < rank + MIN_BEYOND {
        return None;
    }
    Some(v[rank - 1])
}

/// The highest of [`CANDIDATES`] that `n` samples support.
pub fn highest_supported(n: usize) -> Option<u32> {
    CANDIDATES
        .iter()
        .rev()
        .copied()
        .find(|&p| n >= (n * p as usize).div_ceil(100).max(1) + MIN_BEYOND)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[20.0, 10.0]), Some([7.5, 15.0, 22.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(iqr_over_median(&v), Some(1.0));
        assert_eq!(range_over_median(&[9.0, 10.0, 11.0]), 0.2);
    }

    #[test]
    fn no_percentile_with_fewer_than_ten_samples_beyond() {
        let v: Vec<f64> = (1..=110).map(f64::from).collect();
        // p90 of 110 samples: rank 99, 11 beyond.
        assert_eq!(percentile(&v, 90), Some(99.0));
        // p95: rank 105, 5 beyond.
        assert_eq!(percentile(&v, 95), None);
        assert_eq!(highest_supported(110), Some(90));
        // 100 samples: p90 has exactly 10 beyond; 99 samples do not.
        assert_eq!(highest_supported(100), Some(90));
        assert_eq!(highest_supported(99), Some(75));
        // 20 samples: the median has exactly 10 beyond; 19 samples support nothing.
        assert_eq!(highest_supported(20), Some(50));
        assert_eq!(highest_supported(19), None);
        assert_eq!(percentile(&v[..19], 50), None);
        assert_eq!(highest_supported(1100), Some(99));
    }
}
