//! Order statistics over small host-time samples and large simulated ones.

/// The median of `values` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default `exclusive` method), so
/// spreads printed here match the ones a Python reader computes from the
/// same JSONL.  A single value is its own quartiles; `None` when empty.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let ld = v.len();
    match ld {
        0 => None,
        1 => Some((v[0], v[0])),
        _ => {
            // Python's integer arithmetic, including the clamp that makes it
            // extrapolate past the ends of very small samples.
            let m = ld as i64 + 1;
            let at = |i: i64| {
                let j = (i * m / 4).clamp(1, ld as i64 - 1);
                let delta = (i * m - j * 4) as f64;
                let j = j as usize;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            };
            Some((at(1), at(3)))
        }
    }
}

/// Nearest-rank quantile `q ∈ (0, 1]` of `values`, reordering the slice in
/// place (linear-time selection, so it is cheap on millions of simulated
/// completions); `None` when empty.
pub fn nearest_rank(values: &mut [f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    let (_, v, _) = values.select_nth_unstable_by(rank - 1, f64::total_cmp);
    Some(*v)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
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
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 3.0, 2.0, 1.0]), Some((1.25, 3.75)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([5, 1, 3], n=4) == [1.0, 3.0, 5.0]
        assert_eq!(quartiles(&[5.0, 1.0, 3.0]), Some((1.0, 5.0)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn nearest_rank_p99_has_ten_samples_beyond_it_at_1000() {
        let mut v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(nearest_rank(&mut v, 0.99), Some(990.0));
        assert_eq!(v.iter().filter(|&&x| x > 990.0).count(), 10);
        let mut one = [4.5];
        assert_eq!(nearest_rank(&mut one, 0.99), Some(4.5));
        assert_eq!(nearest_rank(&mut [], 0.5), None);
        let mut small = [3.0, 1.0, 2.0, 4.0];
        assert_eq!(nearest_rank(&mut small, 0.5), Some(2.0));
    }
}
