//! Log-bucketed histograms.
//!
//! Observations are mapped to power-of-two buckets over fixed-point
//! units of 1/1024 (so the sub-millisecond range still has resolution
//! when values are milliseconds). Bucketing is pure integer arithmetic —
//! `leading_zeros` on a `u64` — which keeps the layout identical across
//! runs and platforms. Quantiles are estimated by linear interpolation
//! inside the covering bucket, clamped to the observed `[min, max]`.

use std::collections::BTreeMap;

/// Fixed-point scale: one bucket unit is 1/1024 of the observed value's
/// unit (e.g. ~1 µs when observations are in ms).
const SCALE: f64 = 1024.0;

/// A log-bucketed histogram with exact count/sum/min/max.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Histogram {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// bucket index → observation count; index 0 holds values < 1 unit,
    /// index `k` (k ≥ 1) holds units in `[2^(k-1), 2^k)`.
    buckets: BTreeMap<u32, u64>,
}

fn bucket_of(value: f64) -> u32 {
    let units = (value * SCALE).max(0.0);
    // Saturate absurd values rather than wrapping.
    let units = if units >= u64::MAX as f64 {
        u64::MAX
    } else {
        units as u64
    };
    64 - units.leading_zeros()
}

fn bucket_lo(k: u32) -> f64 {
    if k == 0 {
        0.0
    } else {
        2f64.powi(k as i32 - 1) / SCALE
    }
}

fn bucket_hi(k: u32) -> f64 {
    2f64.powi(k as i32) / SCALE
}

impl Histogram {
    pub(crate) fn new() -> Histogram {
        Histogram::default()
    }

    pub(crate) fn observe(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            if value < self.min {
                self.min = value;
            }
            if value > self.max {
                self.max = value;
            }
        }
        self.count += 1;
        self.sum += value;
        *self.buckets.entry(bucket_of(value)).or_insert(0) += 1;
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) from the buckets.
    fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        // 1-based rank of the observation the quantile falls on.
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (&k, &c) in &self.buckets {
            if seen + c >= target {
                let lo = bucket_lo(k);
                let hi = bucket_hi(k);
                let frac = (target - seen) as f64 / c as f64;
                return (lo + (hi - lo) * frac).clamp(self.min, self.max);
            }
            seen += c;
        }
        self.max
    }

    /// Non-empty buckets as `(lo, hi, count)` triples, ascending.
    fn bucket_bounds(&self) -> Vec<(f64, f64, u64)> {
        self.buckets
            .iter()
            .map(|(&k, &c)| (bucket_lo(k), bucket_hi(k), c))
            .collect()
    }

    pub(crate) fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
            p50: self.quantile(0.50),
            p95: self.quantile(0.95),
            p99: self.quantile(0.99),
            buckets: self.bucket_bounds(),
        }
    }
}

/// The exported view of a `Histogram`: exact count/sum/min/max,
/// bucket-estimated p50/p95/p99, and the raw buckets.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HistogramSummary {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    pub p50: f64,
    pub p95: f64,
    pub p99: f64,
    pub buckets: Vec<(f64, f64, u64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = Histogram::new();
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99, 0.0);
        assert!(s.buckets.is_empty());
    }

    #[test]
    fn single_value_quantiles_collapse() {
        let mut h = Histogram::new();
        h.observe(42.0);
        assert_eq!(h.quantile(0.0), 42.0);
        assert_eq!(h.quantile(0.5), 42.0);
        assert_eq!(h.quantile(1.0), 42.0);
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 42.0);
    }

    #[test]
    fn buckets_are_log_spaced_and_cover() {
        let mut h = Histogram::new();
        for v in [0.0001, 0.5, 1.0, 3.0, 900.0, 50_000.0] {
            h.observe(v);
        }
        let bounds = h.bucket_bounds();
        assert_eq!(bounds.iter().map(|b| b.2).sum::<u64>(), 6);
        for (lo, hi, _) in &bounds {
            assert!(lo < hi);
        }
        // Ascending, non-overlapping.
        for w in bounds.windows(2) {
            assert!(w[0].1 <= w[1].0 + 1e-12);
        }
    }

    #[test]
    fn quantiles_are_order_of_magnitude_right() {
        let mut h = Histogram::new();
        for i in 1..=1000 {
            h.observe(i as f64);
        }
        let p50 = h.quantile(0.50);
        let p95 = h.quantile(0.95);
        let p99 = h.quantile(0.99);
        // Log buckets give up to 2x error; accept that envelope.
        assert!((250.0..=1000.0).contains(&p50), "p50={p50}");
        assert!((475.0..=1000.0).contains(&p95), "p95={p95}");
        assert!(p50 <= p95 && p95 <= p99, "{p50} {p95} {p99}");
        assert_eq!(h.count, 1000);
    }

    #[test]
    fn negative_and_nonfinite_values_are_safe() {
        let mut h = Histogram::new();
        h.observe(-5.0); // clamped into the zero bucket
        h.observe(f64::NAN); // dropped
        h.observe(f64::INFINITY); // dropped
        assert_eq!(h.count, 1);
        assert_eq!(h.min, -5.0);
        assert!(h.quantile(0.5) <= 0.0);
    }

    #[test]
    fn huge_values_saturate() {
        let mut h = Histogram::new();
        h.observe(1e300);
        assert_eq!(h.count, 1);
        assert_eq!(h.quantile(1.0), 1e300); // clamped to max
    }
}
