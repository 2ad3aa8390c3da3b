//! Order statistics over measured samples.

/// Nearest-rank quantile of an ascending slice (`q` in `[0, 1]`); 0 when
/// empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Sorts `v` in place and returns its `q` quantile.
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    quantile_sorted(v, q)
}

/// Median of `v` (sorts in place).
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Mean of `v`; 0 when empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_pick_nearest_rank() {
        let mut v: Vec<f64> = (1..=101).map(|i| i as f64).collect();
        assert_eq!(median(&mut v), 51.0);
        assert_eq!(quantile(&mut v, 0.99), 100.0);
        assert_eq!(quantile_sorted(&[], 0.5), 0.0);
    }
}
