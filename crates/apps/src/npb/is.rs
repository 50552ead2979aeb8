//! IS — Integer Sort.
//!
//! The NPB IS kernel ranks integer keys with a bucketed counting sort:
//! every iteration builds a local histogram, agrees on global bucket sizes
//! with an allreduce, and redistributes the keys with an all-to-all-v. The
//! paper notes IS "takes approximately 12 s to run in this configuration
//! and consequently pays a relatively high price for the overhead of
//! initializing the BCS-MPI runtime system" (§5.3).

use mpi_api::datatype::ReduceOp;
use mpi_api::datatype::{from_chunks_i32, to_bytes_i32};
use mpi_api::{AsyncMpi, RankProgram};
use simcore::{SimDuration, SimRng};

#[derive(Clone, Debug)]
pub struct IsCfg {
    /// Keys generated per rank per iteration.
    pub keys_per_rank: usize,
    /// Keys are uniform in `[0, max_key)`.
    pub max_key: u32,
    pub iters: u64,
    /// Virtual cost of the local ranking work per iteration (class C:
    /// 2^27 keys over the whole machine).
    pub rank_compute: SimDuration,
    pub seed: u64,
}

impl IsCfg {
    /// Calibrated to the paper's ~12 s class-C baseline runtime at 62 ranks.
    pub fn class_c() -> IsCfg {
        IsCfg {
            keys_per_rank: 65_536,
            max_key: 1 << 22,
            iters: 10,
            rank_compute: SimDuration::millis(1_130),
            seed: 0x15_15,
        }
    }

    /// Tiny configuration for unit tests.
    pub fn test() -> IsCfg {
        IsCfg {
            keys_per_rank: 512,
            max_key: 1 << 16,
            iters: 2,
            rank_compute: SimDuration::millis(2),
            seed: 7,
        }
    }
}

/// Returns a per-rank checksum of the keys each rank ends up owning
/// (engine-independent).
pub fn is_bench(cfg: IsCfg) -> impl RankProgram<Out = u64> {
    move |mut mpi: AsyncMpi| {
        let cfg = cfg.clone();
        async move {
            let n = mpi.size();
            let me = mpi.rank();
            let mut rng = SimRng::new(cfg.seed).split(me as u64);
            let mut checksum = 0u64;
            for it in 0..cfg.iters {
                // Key generation + local ranking cost.
                let keys: Vec<u32> = (0..cfg.keys_per_rank)
                    .map(|_| rng.next_below(cfg.max_key as u64) as u32)
                    .collect();
                mpi.compute(cfg.rank_compute).await;

                // Local histogram over rank-owned buckets.
                let bucket_of = |k: u32| ((k as u64 * n as u64) / cfg.max_key as u64) as usize;
                let mut counts = vec![0i64; n];
                for &k in &keys {
                    counts[bucket_of(k)] += 1;
                }
                let totals = mpi.allreduce_i64(ReduceOp::Sum, &counts).await;

                // Redistribute keys to their bucket owner.
                let mut outgoing: Vec<Vec<i32>> = vec![Vec::new(); n];
                for &k in &keys {
                    outgoing[bucket_of(k)].push(k as i32);
                }
                let chunks: Vec<Vec<u8>> = outgoing.iter().map(|c| to_bytes_i32(c)).collect();
                let incoming = mpi.alltoallv(&chunks).await;
                let mut mine: Vec<u32> =
                    from_chunks_i32(&incoming).into_iter().map(|k| k as u32).collect();
                mine.sort_unstable();

                // Verification 1: local count matches the global histogram.
                assert_eq!(
                    mine.len() as i64,
                    totals[me],
                    "iter {it}: bucket count mismatch on rank {me}"
                );
                // Verification 2: bucket ranges are disjoint and ordered.
                if let (Some(&lo), Some(&hi)) = (mine.first(), mine.last()) {
                    assert!(bucket_of(lo) == me && bucket_of(hi) == me);
                }
                checksum = mine
                    .iter()
                    .fold(checksum, |acc, &k| acc.wrapping_mul(31).wrapping_add(k as u64));
            }
            checksum
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{RunSpec, run_app};
    use mpi_api::runtime::JobLayout;

    #[test]
    fn is_sorts_and_checksums_match_across_engines() {
        let layout = JobLayout::new(4, 2, 8);
        let b = run_app(&RunSpec::bcs(), layout.clone(), is_bench(IsCfg::test()));
        let q = run_app(&RunSpec::quadrics(), layout, is_bench(IsCfg::test()));
        assert_eq!(b.results, q.results);
        assert!(b.results.iter().any(|&c| c != 0));
    }

    #[test]
    fn is_single_rank_degenerate() {
        let layout = JobLayout::new(1, 1, 1);
        let out = run_app(&RunSpec::quadrics(), layout, is_bench(IsCfg::test()));
        assert_eq!(out.results.len(), 1);
    }
}
