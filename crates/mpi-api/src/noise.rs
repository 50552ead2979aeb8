//! OS-noise injection.
//!
//! The paper (§4.5, and reference \[20\] "The Case of the Missing
//! Supercomputer Performance") identifies uncoordinated system dæmons as a
//! major source of slowdown for fine-grained applications: each node
//! occasionally steals the CPU for hundreds of µs to a few ms, and because
//! the holes are uncorrelated across nodes, a bulk-synchronous application
//! pays the *maximum* across nodes at every synchronization point.
//!
//! [`NoiseModel`] reproduces this as a controlled parameter: every node has
//! an independent, deterministic stream of "dæmon activations" (period plus
//! exponential jitter, fixed hole length), and a rank's compute interval is
//! stretched by every hole that falls inside it. The coscheduling ablation
//! (`repro ablation-noise`) runs the same workload with noise injected into
//! the baseline's compute vs into BCS-MPI, whose slice structure absorbs
//! holes shorter than the slack in a slice.

use simcore::{SimDuration, SimRng, SimTime};

/// Configuration of per-node noise.
#[derive(Clone, Debug, PartialEq)]
pub struct NoiseConfig {
    /// Mean interval between dæmon activations on one node.
    pub mean_interval: SimDuration,
    /// Length of each computational hole.
    pub hole: SimDuration,
    /// Seed for the (deterministic) activation streams.
    pub seed: u64,
}

/// Per-node noise state. `Clone` preserves the RNG stream positions, so a
/// checkpoint restore resumes the exact noise sequence.
#[derive(Clone)]
pub struct NoiseModel {
    cfg: NoiseConfig,
    /// Next activation instant per node.
    next: Vec<SimTime>,
    rngs: Vec<SimRng>,
}

impl NoiseModel {
    pub fn new(cfg: NoiseConfig, nodes: usize) -> NoiseModel {
        let root = SimRng::new(cfg.seed);
        let mut rngs: Vec<SimRng> = (0..nodes).map(|n| root.split(n as u64)).collect();
        let next = rngs
            .iter_mut()
            .map(|r| {
                SimTime::ZERO
                    + SimDuration::nanos(
                        r.exp_f64(cfg.mean_interval.as_nanos() as f64) as u64
                    )
            })
            .collect();
        NoiseModel { cfg, next, rngs }
    }

    /// Stretch a compute interval of length `d` starting at `start` on
    /// `node` by every hole that falls inside it, returning the inflated
    /// duration. Holes that would start inside the (growing) interval are
    /// all charged, like a kernel preempting the application mid-step.
    pub fn inflate(&mut self, node: usize, start: SimTime, d: SimDuration) -> SimDuration {
        // Fast-forward activations that fired while this rank was not
        // computing — they cost nothing.
        while self.next[node] < start {
            let gap = self.rngs[node].exp_f64(self.cfg.mean_interval.as_nanos() as f64);
            self.next[node] = self.next[node] + SimDuration::nanos(gap.max(1.0) as u64);
        }
        let mut end = start + d;
        while self.next[node] < end {
            end += self.cfg.hole;
            let gap = self.rngs[node].exp_f64(self.cfg.mean_interval.as_nanos() as f64);
            self.next[node] = self.next[node] + SimDuration::nanos(gap.max(1.0) as u64);
        }
        end.since(start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> NoiseConfig {
        NoiseConfig {
            mean_interval: SimDuration::millis(10),
            hole: SimDuration::millis(1),
            seed: 42,
        }
    }

    #[test]
    fn zero_length_interval_is_never_inflated_much() {
        let mut m = NoiseModel::new(cfg(), 4);
        // A zero-length compute can only be hit if an activation is exactly
        // due; with continuous arrival times that has measure zero.
        let d = m.inflate(0, SimTime::ZERO, SimDuration::ZERO);
        assert_eq!(d, SimDuration::ZERO);
    }

    #[test]
    fn long_interval_accumulates_expected_noise_fraction() {
        let mut m = NoiseModel::new(cfg(), 1);
        // 10 s of compute with a 1 ms hole every ~10 ms: ~10% inflation.
        let d = m.inflate(0, SimTime::ZERO, SimDuration::secs(10));
        let frac = d.as_secs_f64() / 10.0 - 1.0;
        assert!(
            (0.05..0.2).contains(&frac),
            "noise fraction {frac} out of range"
        );
    }

    #[test]
    fn nodes_have_independent_streams() {
        let mut m = NoiseModel::new(cfg(), 2);
        let d0 = m.inflate(0, SimTime::ZERO, SimDuration::secs(1));
        let d1 = m.inflate(1, SimTime::ZERO, SimDuration::secs(1));
        assert_ne!(d0, d1, "two nodes produced identical noise");
    }

    #[test]
    fn deterministic_across_instances() {
        let mut a = NoiseModel::new(cfg(), 3);
        let mut b = NoiseModel::new(cfg(), 3);
        for i in 0..10 {
            let t = SimTime::ZERO + SimDuration::millis(i * 7);
            assert_eq!(
                a.inflate(1, t, SimDuration::millis(5)),
                b.inflate(1, t, SimDuration::millis(5))
            );
        }
    }

    #[test]
    fn idle_gaps_are_not_charged() {
        let mut m = NoiseModel::new(cfg(), 1);
        let first = m.inflate(0, SimTime::ZERO, SimDuration::secs(1));
        assert!(first >= SimDuration::secs(1));
        // 99 s of idle pass; the holes in between must not be charged to
        // the next 1 s compute window.
        let second = m.inflate(0, SimTime::ZERO + SimDuration::secs(100), SimDuration::secs(1));
        assert!(
            second < SimDuration::secs_f64(1.3),
            "idle-gap holes were charged: {second}"
        );
        let third = m.inflate(0, SimTime::ZERO + SimDuration::secs(200), SimDuration::ZERO);
        assert_eq!(third, SimDuration::ZERO);
    }
}
