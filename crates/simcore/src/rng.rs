//! Self-contained deterministic PRNG.
//!
//! Workload generation and noise injection must replay identically across
//! machines and crate upgrades, so the reproduction does not rely on any
//! external RNG's stream stability. [`SimRng`] is xoshiro256** seeded through
//! splitmix64 — the reference construction from Blackman & Vigna, small
//! enough to verify by eye.

/// xoshiro256** generator with splitmix64 seeding.
#[derive(Clone, Debug)]
pub struct SimRng {
    s: [u64; 4],
}

#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> SimRng {
        let mut sm = seed;
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Derive an independent child stream, e.g. one per simulated node.
    /// Children with distinct `stream` ids have (statistically) disjoint
    /// sequences.
    pub fn split(&self, stream: u64) -> SimRng {
        let mut sm = self.s[0] ^ self.s[3] ^ stream.wrapping_mul(0xA24B_AED4_963E_E407);
        SimRng {
            s: [
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
                splitmix64(&mut sm),
            ],
        }
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1]
            .wrapping_mul(5)
            .rotate_left(7)
            .wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform value in `[0, bound)` using Lemire's multiply-shift rejection.
    /// `bound` must be non-zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below(0)");
        // Rejection sampling on the top bits keeps the distribution exactly
        // uniform regardless of bound.
        loop {
            let x = self.next_u64();
            let m = (x as u128) * (bound as u128);
            let low = m as u64;
            if low >= bound || low >= (low.wrapping_neg() % bound) {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform value in the inclusive range `[lo, hi]`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi);
        if lo == hi {
            return lo;
        }
        lo + self.next_below(hi - lo + 1)
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.next_f64() * (hi - lo)
    }

    /// Exponentially distributed value with the given mean (for Poisson
    /// arrival processes, e.g. noise injection).
    pub fn exp_f64(&mut self, mean: f64) -> f64 {
        // Inverse CDF; guard against ln(0).
        let u = 1.0 - self.next_f64();
        -mean * u.ln()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn split_streams_are_independent_and_stable() {
        let root = SimRng::new(7);
        let mut c1 = root.split(0);
        let mut c2 = root.split(1);
        let mut c1b = root.split(0);
        assert_eq!(c1.next_u64(), c1b.next_u64());
        let overlap = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert_eq!(overlap, 0);
    }

    #[test]
    fn next_below_respects_bound_and_hits_all_values() {
        let mut r = SimRng::new(99);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let v = r.next_below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn range_bounds_inclusive() {
        let mut r = SimRng::new(5);
        for _ in 0..1000 {
            let v = r.range_u64(10, 12);
            assert!((10..=12).contains(&v));
        }
        assert_eq!(r.range_u64(3, 3), 3);
    }

    #[test]
    fn f64_in_unit_interval_with_sane_mean() {
        let mut r = SimRng::new(123);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let v = r.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} too far from 0.5");
    }

    #[test]
    fn exponential_mean_close() {
        let mut r = SimRng::new(77);
        let mean = 3.0;
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exp_f64(mean)).sum();
        let got = sum / n as f64;
        assert!((got - mean).abs() < 0.15, "exp mean {got}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = SimRng::new(2024);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, sorted, "shuffle left the slice in order (astronomically unlikely)");
    }
}
