//! The benchmark's statistics: medians, percentiles, and the tail
//! percentile a sample count can support.

/// The `p`-th percentile (0..=100) by linear interpolation between the
/// closest ranks. `None` for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

/// The median. `None` for an empty sample.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// The highest percentile from `ladder` that leaves at least `beyond`
/// samples above it among `n`: a tail figure is only reported where it
/// rests on that many samples.
pub fn supported_percentile(n: usize, beyond: usize, ladder: &[f64]) -> Option<f64> {
    ladder
        .iter()
        .copied()
        .filter(|p| n as f64 * (1.0 - p / 100.0) >= beyond as f64 - 1e-9)
        .reduce(f64::max)
}

/// The percentiles `supported_percentile` chooses among.
pub const LADDER: [f64; 7] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9, 99.99];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&v, 90.0), Some(10.0));
        assert_eq!(percentile(&v, 95.0), Some(10.5));
        assert_eq!(percentile(&v, 100.0), Some(11.0));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(supported_percentile(100, 10, &LADDER), Some(90.0));
        assert_eq!(supported_percentile(99, 10, &LADDER), Some(75.0));
        assert_eq!(supported_percentile(1000, 10, &LADDER), Some(99.0));
        assert_eq!(supported_percentile(20, 10, &LADDER), Some(50.0));
        assert_eq!(supported_percentile(19, 10, &LADDER), None);
    }
}
