//! Gang scheduling of multiple parallel jobs inside the BCS-MPI engine.
//!
//! §5.4 of the paper, first remedy for blocking-heavy applications: "The
//! simplest option is to schedule a different parallel job whenever the
//! application blocks for communication, thus making use of the CPU. This
//! addresses the problem without requiring any code modification."
//!
//! With [`GangConfig`] set, the world's ranks are partitioned into jobs that
//! share the compute nodes. The Node Manager gives the CPUs of a node to
//! one job per time slice; at every slice boundary it keeps the incumbent
//! if any of its local ranks still has compute to run, and otherwise
//! switches to the next job that does (paying a context-switch cost).
//! Because all communication is performed by the NIC threads, a job's
//! in-flight communication keeps progressing even while it is descheduled —
//! exactly the property that makes the paper's remedy free.
//!
//! Computation becomes slice-granular on shared nodes: a rank's `compute()`
//! advances only during slices in which its job holds the node.

use simcore::SimDuration;

/// Partition of the world's ranks into gang-scheduled jobs.
#[derive(Clone, Debug, PartialEq)]
pub struct GangConfig {
    /// World ranks of each job. Must partition `0..ranks`.
    pub jobs: Vec<Vec<usize>>,
    /// CPU cost of a job switch on a node, deducted from the slice.
    pub switch_cost: SimDuration,
}

impl GangConfig {
    /// Split the world into `k` jobs round-robin (job = rank % k).
    pub fn round_robin(ranks: usize, k: usize) -> GangConfig {
        assert!(k >= 1);
        let mut jobs = vec![Vec::new(); k];
        for r in 0..ranks {
            jobs[r % k].push(r);
        }
        GangConfig {
            jobs,
            switch_cost: SimDuration::micros(25),
        }
    }

    /// Validate and return `job_of[rank]`.
    pub(crate) fn job_of(&self, ranks: usize) -> Vec<usize> {
        let mut job_of = vec![usize::MAX; ranks];
        for (j, members) in self.jobs.iter().enumerate() {
            for &r in members {
                assert!(r < ranks, "gang job rank {r} out of range");
                assert_eq!(job_of[r], usize::MAX, "rank {r} in two gang jobs");
                job_of[r] = j;
            }
        }
        assert!(
            job_of.iter().all(|&j| j != usize::MAX),
            "gang jobs must partition the world's ranks"
        );
        job_of
    }
}

/// Per-rank compute in progress (gang mode only).
#[derive(Clone, Copy, Debug)]
pub(crate) struct PendingCompute {
    /// CPU nanoseconds still owed.
    pub remaining: u64,
}

/// Per-engine gang-scheduling state.
#[derive(Clone)]
pub(crate) struct GangState {
    pub cfg: GangConfig,
    pub job_of: Vec<usize>,
    /// Job currently holding each node's CPUs.
    pub active: Vec<usize>,
    /// Outstanding compute per rank.
    pub computing: Vec<Option<PendingCompute>>,
    /// Context switches performed (stat).
    pub switches: u64,
}

impl GangState {
    pub fn new(cfg: GangConfig, ranks: usize, nodes: usize) -> GangState {
        let job_of = cfg.job_of(ranks);
        GangState {
            cfg,
            job_of,
            active: vec![0; nodes],
            computing: (0..ranks).map(|_| None).collect(),
            switches: 0,
        }
    }

    /// Number of jobs.
    pub fn njobs(&self) -> usize {
        self.cfg.jobs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_partitions() {
        let g = GangConfig::round_robin(10, 3);
        assert_eq!(g.jobs[0], vec![0, 3, 6, 9]);
        assert_eq!(g.jobs[1], vec![1, 4, 7]);
        assert_eq!(g.jobs[2], vec![2, 5, 8]);
        let job_of = g.job_of(10);
        assert_eq!(job_of[4], 1);
        assert_eq!(job_of[9], 0);
    }

    #[test]
    #[should_panic(expected = "partition")]
    fn incomplete_partition_panics() {
        let g = GangConfig {
            jobs: vec![vec![0, 1]],
            switch_cost: SimDuration::ZERO,
        };
        g.job_of(3);
    }

    #[test]
    #[should_panic(expected = "in two gang jobs")]
    fn overlapping_jobs_panic() {
        let g = GangConfig {
            jobs: vec![vec![0, 1], vec![1, 2]],
            switch_cost: SimDuration::ZERO,
        };
        g.job_of(3);
    }
}
