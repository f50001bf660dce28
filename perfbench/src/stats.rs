//! Order statistics over timing samples.

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile: the `ceil(q * n)`-th smallest sample. Infinite
/// samples (failed operations) sort last, so they count against every
/// percentile they reach.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return 0.0;
    }
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Cuts a timed phase of `secs` seconds into `parts` equal sub-windows and
/// returns the median over them of `f(latencies completed in it, its
/// length)`, so a burst of machine noise confined to one sub-window does
/// not move the result. `done_s[i]` is when `lat[i]` completed.
pub fn windowed(
    lat: &[f64],
    done_s: &[f64],
    secs: f64,
    parts: usize,
    f: impl Fn(&[f64], f64) -> f64,
) -> f64 {
    let w = secs / parts as f64;
    let mut split = vec![Vec::new(); parts];
    for (&l, &d) in lat.iter().zip(done_s) {
        split[((d / w) as usize).min(parts - 1)].push(l);
    }
    median(&split.iter().map(|p| f(p, w)).collect::<Vec<_>>())
}

/// How many samples lie strictly beyond the `q` nearest-rank quantile.
pub fn beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 500.0);
        assert_eq!(quantile(&v, 0.99), 990.0);
        assert_eq!(beyond(v.len(), 0.99), 10);
        assert_eq!(quantile(&[1.0, f64::INFINITY], 0.99), f64::INFINITY);
    }
}
