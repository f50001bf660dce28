//! A minimal wall-clock timing harness for the `benches/ablation.rs` bench.
//!
//! The build environment has no third-party registry, so Criterion is not
//! available; this module provides the small slice of it the bench needs:
//! warmup, a time-targeted measurement loop, and a per-iteration report.
//! Numbers are indicative (no outlier rejection) — the cycle-model reports
//! remain the deterministic source of truth.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// One measured result.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Bench label.
    pub label: String,
    /// Mean nanoseconds per iteration.
    pub ns_per_iter: f64,
    /// Iterations executed in the measurement window.
    pub iters: u64,
}

impl Measurement {
    /// Iterations per second implied by the mean.
    pub fn per_sec(&self) -> f64 {
        if self.ns_per_iter > 0.0 { 1e9 / self.ns_per_iter } else { 0.0 }
    }
}

/// Times `f`, targeting roughly `target` of measurement after a short
/// warmup, and prints a Criterion-style one-liner.
pub fn bench_with_target<R>(
    label: &str,
    target: Duration,
    mut f: impl FnMut() -> R,
) -> Measurement {
    // Warmup + calibration: find an iteration count that fills the window.
    let t0 = Instant::now();
    black_box(f());
    let once = t0.elapsed().max(Duration::from_nanos(1));
    let iters = (target.as_nanos() / once.as_nanos()).clamp(1, 1_000_000_000) as u64;
    let t1 = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    let elapsed = t1.elapsed();
    let m = Measurement {
        label: label.to_string(),
        ns_per_iter: elapsed.as_nanos() as f64 / iters as f64,
        iters,
    };
    println!(
        "{:<40} {:>14.1} ns/iter   ({} iters, {:.2?} total)",
        m.label, m.ns_per_iter, m.iters, elapsed
    );
    m
}

/// Times `f` with the default 300 ms measurement window.
pub fn bench<R>(label: &str, f: impl FnMut() -> R) -> Measurement {
    bench_with_target(label, Duration::from_millis(300), f)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_positive_time() {
        let m = bench_with_target("spin", Duration::from_millis(5), || {
            (0..100u64).fold(0, |a, b| a ^ b.wrapping_mul(31))
        });
        assert!(m.ns_per_iter > 0.0);
        assert!(m.iters >= 1);
        assert!(m.per_sec() > 0.0);
    }
}
