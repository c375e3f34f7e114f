//! Summary statistics for the experiment harness.

/// The `q`-quantile (0 ≤ q ≤ 1) by nearest-rank on a sorted copy, or
/// `None` for an empty sample — no value stands in for missing data, so
/// a cell with no successful trial cannot read as a perfect one.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..=1.0).contains(&q));
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let idx = ((q * (sorted.len() - 1) as f64).round() as usize).min(sorted.len() - 1);
    Some(sorted[idx])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 0.5), Some(3.0));
        assert_eq!(quantile(&xs, 1.0), Some(5.0));
    }

    #[test]
    fn an_empty_sample_has_no_quantile() {
        assert_eq!(quantile(&[], 0.5), None);
    }
}
