//! Measurement utilities: running statistics and log-bucket histograms.
//!
//! The benchmark harness records per-operation delays (e.g. blocking-send
//! latency in slices) and per-run aggregates with these types; they are kept
//! allocation-light so they can live inside hot simulation state.

use crate::time::SimDuration;

/// Streaming mean/min/max/variance accumulator (Welford's algorithm).
#[derive(Clone, Debug, Default)]
pub struct Running {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Running {
    pub fn new() -> Running {
        Running {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 { 0.0 } else { self.mean }
    }

    pub fn min(&self) -> f64 {
        if self.n == 0 { 0.0 } else { self.min }
    }

    pub fn max(&self) -> f64 {
        if self.n == 0 { 0.0 } else { self.max }
    }

    /// Sample variance (n-1 denominator).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Merge another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Running) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 =
            self.m2 + other.m2 + delta * delta * self.n as f64 * other.n as f64 / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Power-of-two bucketed histogram for durations in nanoseconds, covering
/// 1 ns .. ~584 y in 64 buckets. Cheap enough to update on every message.
#[derive(Clone, Debug)]
pub struct LogHistogram {
    buckets: [u64; 64],
    count: u64,
    sum_ns: u128,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    pub fn new() -> LogHistogram {
        LogHistogram {
            buckets: [0; 64],
            count: 0,
            sum_ns: 0,
        }
    }

    #[inline]
    fn bucket_of(ns: u64) -> usize {
        // bucket k holds values in [2^k, 2^(k+1)); 0 maps to bucket 0.
        (64 - ns.max(1).leading_zeros() - 1) as usize
    }

    pub fn record(&mut self, d: SimDuration) {
        self.buckets[Self::bucket_of(d.as_nanos())] += 1;
        self.count += 1;
        self.sum_ns += d.as_nanos() as u128;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::nanos((self.sum_ns / self.count as u128) as u64)
        }
    }

    /// Approximate quantile (bucket upper-bound of the q-th fraction).
    pub fn quantile(&self, q: f64) -> SimDuration {
        if self.count == 0 {
            return SimDuration::ZERO;
        }
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut acc = 0;
        for (k, &c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target {
                return SimDuration::nanos(1u64 << (k + 1).min(63));
            }
        }
        SimDuration::nanos(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_mean_min_max() {
        let mut r = Running::new();
        for x in [2.0, 4.0, 6.0] {
            r.push(x);
        }
        assert_eq!(r.count(), 3);
        assert_eq!(r.mean(), 4.0);
        assert_eq!(r.min(), 2.0);
        assert_eq!(r.max(), 6.0);
        assert!((r.variance() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn running_empty_is_zeroed() {
        let r = Running::new();
        assert_eq!(r.mean(), 0.0);
        assert_eq!(r.min(), 0.0);
        assert_eq!(r.max(), 0.0);
        assert_eq!(r.stddev(), 0.0);
    }

    #[test]
    fn merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64) * 0.37).collect();
        let mut all = Running::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = Running::new();
        let mut b = Running::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-9);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(a.min(), all.min());
        assert_eq!(a.max(), all.max());
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let mut h = LogHistogram::new();
        for _ in 0..90 {
            h.record(SimDuration::nanos(100)); // bucket [64,128)
        }
        for _ in 0..10 {
            h.record(SimDuration::micros(100)); // ~1e5 ns
        }
        assert_eq!(h.count(), 100);
        // Median falls in the 100ns bucket: upper bound 128.
        assert_eq!(h.quantile(0.5), SimDuration::nanos(128));
        assert!(h.quantile(0.99) >= SimDuration::nanos(1 << 17));
        let mean = h.mean().as_nanos();
        assert!((mean as i64 - 10_090).abs() < 20, "mean={mean}");
    }

    #[test]
    fn histogram_zero_duration_goes_to_first_bucket() {
        let mut h = LogHistogram::new();
        h.record(SimDuration::ZERO);
        assert_eq!(h.count(), 1);
        assert_eq!(h.quantile(1.0), SimDuration::nanos(2));
    }
}
