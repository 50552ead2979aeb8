//! Measurement utilities: log-bucket histograms.
//!
//! The engine records per-operation delays (e.g. blocking-send latency)
//! with [`LogHistogram`]; it is allocation-free so it can live inside hot
//! simulation state.

use crate::time::SimDuration;

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
