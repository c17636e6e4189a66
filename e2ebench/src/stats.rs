//! Order statistics for repeated measurements.

/// Median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Percentiles a tail may be reported at, highest first.
const TAIL_PERCENTILES: [usize; 5] = [99, 95, 90, 75, 50];

/// The highest percentile in [`TAIL_PERCENTILES`] with at least ten
/// samples beyond it, and the sample at that rank (nearest-rank). With
/// fewer than twenty samples no percentile qualifies and the maximum is
/// reported as percentile 100.
pub fn tail(values: &[f64]) -> (usize, f64) {
    assert!(!values.is_empty(), "tail of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    for p in TAIL_PERCENTILES {
        let rank = (p * n).div_ceil(100).max(1);
        if n - rank >= 10 {
            return (p, v[rank - 1]);
        }
    }
    (100, v[n - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=44).map(f64::from).collect();
        // 44 samples: p75 leaves 11 beyond, p90 only 4.4.
        assert_eq!(tail(&v), (75, 33.0));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (90, 90.0));
        assert_eq!(tail(&[5.0, 7.0]), (100, 7.0));
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&v), (50, 10.0));
    }
}
