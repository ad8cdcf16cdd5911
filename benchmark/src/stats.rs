//! Order statistics used for every reported timing.

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s
}

/// `num / den`, or 0 when there is nothing to divide by (a layer that
/// never ran, a lap in which every operation failed).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median; 0 for an empty sample (a metric whose layer never ran).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`p` in 0..=100); 0 for an empty sample.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// First quartile, median, third quartile as Python's
/// `statistics.quantiles(v, n=4)` computes them (the "exclusive"
/// method), so `--aa` spreads match what the acceptance driver sees.
pub fn quartiles(v: &[f64]) -> [f64; 3] {
    let s = sorted(v);
    let m = s.len();
    if m < 2 {
        let x = s.first().copied().unwrap_or(0.0);
        return [x; 3];
    }
    let mut out = [0.0; 3];
    for (i, q) in out.iter_mut().enumerate() {
        let num = (i + 1) * (m + 1);
        let j = (num / 4).clamp(1, m - 1);
        let delta = num as f64 - (j * 4) as f64;
        *q = (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(percentile(&v, 50.0), 100.0);
        assert_eq!(median(&v), 100.5);
        assert_eq!(percentile(&[], 95.0), 0.0);
    }
}
