//! Order statistics: medians, the percentile rule, and the quartile
//! spread the A/A mode gates on.

/// A tail percentile needs this many samples beyond it to be printed.
pub const MIN_BEYOND: usize = 10;

/// Why a percentile was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TooFew {
    pub have: usize,
    pub need: usize,
}

impl std::fmt::Display for TooFew {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} samples, {} needed for {MIN_BEYOND} beyond the percentile",
            self.have, self.need
        )
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count); `None`
/// for no samples.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    let n = v.len();
    Some(if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 })
}

/// The nearest-rank `p`-th percentile (`0.5 < p < 1`), refused unless at
/// least [`MIN_BEYOND`] samples lie beyond its rank.
pub fn percentile(values: &[f64], p: f64) -> Result<f64, TooFew> {
    assert!(p > 0.5 && p < 1.0, "tail percentiles only");
    // 1-based nearest rank; the epsilon keeps 0.9 * 100 at 90.
    let rank = |n: usize| (p * n as f64 - 1e-9).ceil() as usize;
    let n = values.len();
    if n < rank(n) + MIN_BEYOND {
        let need = (n..).find(|&m| m >= rank(m) + MIN_BEYOND).expect("p < 1");
        return Err(TooFew { have: n, need });
    }
    Ok(sorted(values)[rank(n) - 1])
}

/// First quartile, median, third quartile — the cut points Python's
/// `statistics.quantiles(values, n=4)` returns (its default "exclusive"
/// method), which is what the driver computes. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let v = sorted(values);
    let m = ld + 1;
    let mut out = [0.0; 3];
    for (k, i) in (1..4).enumerate() {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        out[k] = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Distance between the first and third quartile as a share of the
/// median — the run-to-run spread a bound is compared against.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, med, q3] = quartiles(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        // p90 of 100: rank 90, ten beyond — exactly enough.
        assert_eq!(percentile(&v, 0.90), Ok(90.0));
        assert_eq!(percentile(&v[..99], 0.90), Err(TooFew { have: 99, need: 100 }));
        // p99 needs a thousand.
        assert_eq!(percentile(&v, 0.99), Err(TooFew { have: 100, need: 1000 }));
        let big: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&big, 0.99), Ok(990.0));
        assert_eq!(percentile(&big, 0.95), Ok(950.0));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (1..=200).map(f64::from).collect();
        v.reverse();
        assert_eq!(percentile(&v, 0.9), Ok(180.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(quartiles(&[160.0, 10.0, 80.0, 20.0, 40.0]), Some([15.0, 40.0, 120.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), Some((8.25 - 2.75) / 5.5));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }
}
