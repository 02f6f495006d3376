//! Descriptive statistics helpers used by reports and tests.

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    Some(xs.iter().sum::<f64>() / xs.len() as f64)
}

/// Population standard deviation; `None` for an empty slice.
pub fn std_dev(xs: &[f64]) -> Option<f64> {
    let m = mean(xs)?;
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
    Some(var.sqrt())
}

/// Linear-interpolated percentile (`p` in `[0, 100]`); `None` when empty.
pub fn percentile(xs: &[f64], p: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let p = p.clamp(0.0, 100.0) / 100.0;
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Minimum of a slice; `None` when empty.
pub fn min(xs: &[f64]) -> Option<f64> {
    xs.iter()
        .copied()
        .fold(None, |acc, x| Some(acc.map_or(x, |m: f64| m.min(x))))
}

/// Maximum of a slice; `None` when empty.
pub fn max(xs: &[f64]) -> Option<f64> {
    xs.iter()
        .copied()
        .fold(None, |acc, x| Some(acc.map_or(x, |m: f64| m.max(x))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&xs), Some(5.0));
        assert!((std_dev(&xs).unwrap() - 2.0).abs() < 1e-12);
        assert_eq!(mean(&[]), None);
        assert_eq!(std_dev(&[]), None);
    }

    #[test]
    fn percentiles() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&xs, 0.0), Some(1.0));
        assert_eq!(percentile(&xs, 50.0), Some(3.0));
        assert_eq!(percentile(&xs, 100.0), Some(5.0));
        assert_eq!(percentile(&xs, 25.0), Some(2.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn min_max() {
        let xs = [3.0, -1.0, 4.0];
        assert_eq!(min(&xs), Some(-1.0));
        assert_eq!(max(&xs), Some(4.0));
        assert_eq!(min(&[]), None);
    }
}
