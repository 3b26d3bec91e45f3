//! Order statistics: medians, quartiles and latency percentiles.

/// The percentiles a tail is reported at, highest first.
const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_SUPPORT: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the middle pair for an even count); `None` when
/// empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// First, second and third quartile by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so spreads computed here match ones computed from the printed
/// results. `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let i = i + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *q = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// The `p`-th percentile (`0..=100`) by linear interpolation between
/// order statistics; `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let v = sorted(values);
    if v.is_empty() {
        return None;
    }
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

/// Samples strictly beyond the `p`-th percentile of `n` samples (the
/// epsilon absorbs rounding in `100 - p` for ladder values like 99.9).
fn beyond(n: usize, p: f64) -> usize {
    (n as f64 * (100.0 - p) / 100.0 + 1e-9).floor() as usize
}

/// The highest percentile of the reporting ladder that has at least
/// [`TAIL_SUPPORT`] samples beyond it, with its value; `None` when even
/// the median lacks that support.
pub fn supported_tail(values: &[f64]) -> Option<(f64, f64)> {
    let p = TAIL_LADDER
        .into_iter()
        .find(|&p| beyond(values.len(), p) >= TAIL_SUPPORT)?;
    Some((p, percentile(values, p)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let v: Vec<f64> = (0..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&[1.0, 2.0], 50.0), Some(1.5));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn supported_tail_needs_ten_samples_beyond_it() {
        let thousand: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (p, value) = supported_tail(&thousand).unwrap();
        assert_eq!(p, 99.0);
        assert!((value - 990.01).abs() < 1e-9);
        // One sample fewer leaves only nine beyond p99.
        assert_eq!(supported_tail(&thousand[..999]).unwrap().0, 95.0);
        assert_eq!(supported_tail(&thousand[..40]).unwrap().0, 75.0);
        assert_eq!(supported_tail(&thousand[..19]), None);
        let big: Vec<f64> = (0..10_000).map(f64::from).collect();
        assert_eq!(supported_tail(&big).unwrap().0, 99.9);
    }
}
