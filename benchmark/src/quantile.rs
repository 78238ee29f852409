//! Quantiles from raw samples.
//!
//! Every latency the benchmark reports is one of the samples it took:
//! nearest-rank on the sorted list, no interpolation and no buckets.
//! `variantdbscan::Histogram` keeps log2 buckets, so its quantiles are
//! bucket edges (`http_load` printed p50 = 536.871 ms = 2^29 ns); that is
//! fine for a live daemon and useless for telling two commits apart.

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Why a quantile was refused.
#[derive(Debug, PartialEq, Eq)]
pub enum QuantileError {
    /// No samples at all.
    Empty,
    /// `p` outside `(0, 1]`.
    BadP,
    /// Fewer than [`MIN_BEYOND`] samples lie beyond the requested rank,
    /// so the value would be set by a handful of outliers.
    TooFewBeyond { beyond: usize },
}

/// Sorts samples ascending. NaN never occurs (samples are elapsed times).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    samples
}

/// Nearest-rank `p`-quantile of ascending `sorted` samples: the sample
/// at rank `ceil(p * n)`. Above the median it refuses unless at least
/// [`MIN_BEYOND`] samples lie beyond that rank.
pub fn quantile(sorted: &[f64], p: f64) -> Result<f64, QuantileError> {
    if sorted.is_empty() {
        return Err(QuantileError::Empty);
    }
    if !(p > 0.0 && p <= 1.0) {
        return Err(QuantileError::BadP);
    }
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if p > 0.5 && beyond < MIN_BEYOND {
        return Err(QuantileError::TooFewBeyond { beyond });
    }
    Ok(sorted[rank - 1])
}

/// The median (always defined for a non-empty list).
pub fn median(sorted: &[f64]) -> f64 {
    quantile(sorted, 0.5).expect("median of a non-empty sample list")
}

/// A tail quantile, or 0 when the sample list cannot support it. Used
/// for per-layer tail metrics, which are informational.
pub fn tail_or_zero(sorted: &[f64], p: f64) -> f64 {
    quantile(sorted, p).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use variantdbscan::Histogram;

    #[test]
    fn nearest_rank_returns_a_sample() {
        let s = sorted((1..=100).map(f64::from).collect());
        assert_eq!(quantile(&s, 0.5), Ok(50.0));
        assert_eq!(quantile(&s, 0.9), Ok(90.0));
        assert_eq!(quantile(&s, 0.25), Ok(25.0));
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[1.0, 2.0]), 1.0);
    }

    #[test]
    fn refuses_a_percentile_with_fewer_than_ten_samples_beyond_it() {
        let s = sorted((1..=100).map(f64::from).collect());
        // p99 of 100 samples has one sample beyond it.
        assert_eq!(
            quantile(&s, 0.99),
            Err(QuantileError::TooFewBeyond { beyond: 1 })
        );
        // p90 of 100 has exactly ten beyond: allowed.
        assert!(quantile(&s, 0.90).is_ok());
        // p90 of 99 has nine beyond: refused.
        let s99 = &s[..99];
        assert_eq!(
            quantile(s99, 0.90),
            Err(QuantileError::TooFewBeyond { beyond: 9 })
        );
        assert_eq!(tail_or_zero(s99, 0.90), 0.0);
        assert_eq!(quantile(&[], 0.5), Err(QuantileError::Empty));
        assert_eq!(quantile(&s, 0.0), Err(QuantileError::BadP));
        assert_eq!(quantile(&s, 1.5), Err(QuantileError::BadP));
    }

    /// The `http_load` artefact: latencies between 300 ms and 700 ms fed
    /// through the engine's log2 histogram come back as 2^29 ns and
    /// 2^30 ns whatever the samples were. From the raw samples the
    /// quantiles are the samples.
    #[test]
    fn raw_samples_do_not_quantise_to_powers_of_two() {
        let ns: Vec<u64> = (0..1000).map(|i| 300_000_000 + i * 400_000).collect();
        let mut h = Histogram::new();
        for &v in &ns {
            h.record_ns(v);
        }
        assert_eq!(h.quantile_upper_ns(0.5), 1 << 29);
        assert_eq!(h.quantile_upper_ns(0.99), 1 << 30);

        let s = sorted(ns.iter().map(|&v| v as f64).collect());
        let p50 = quantile(&s, 0.5).unwrap();
        let p90 = quantile(&s, 0.9).unwrap();
        assert_eq!(p50, 499_600_000.0);
        assert_eq!(p90, 659_600_000.0);
        assert!(ns.contains(&(p50 as u64)) && ns.contains(&(p90 as u64)));
    }
}
