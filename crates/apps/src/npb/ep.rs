//! EP — Embarrassingly Parallel.
//!
//! Each process generates Gaussian deviates with the Marsaglia polar method
//! and tallies them into annulus counts; the only communication is three
//! allreduces at the very end. In the paper EP still shows a 5.35 %
//! slowdown, dominated by the BCS-MPI runtime initialization and the
//! residual slice overhead.

use mpi_api::datatype::ReduceOp;
use mpi_api::{AsyncMpi, RankProgram};
use simcore::{SimDuration, SimRng};

#[derive(Clone, Debug)]
pub struct EpCfg {
    pub blocks: u64,
    /// Virtual compute charge per block (class C: 2^32 pairs machine-wide).
    pub block_compute: SimDuration,
    /// Real pairs generated per block (for the verified tallies).
    pub pairs_per_block: usize,
    pub seed: u64,
}

impl EpCfg {
    /// Calibrated to a ~20 s class-C baseline runtime at 62 ranks.
    pub fn class_c() -> EpCfg {
        EpCfg {
            blocks: 10,
            block_compute: SimDuration::millis(2_000),
            pairs_per_block: 20_000,
            seed: 0xE9,
        }
    }

    pub fn test() -> EpCfg {
        EpCfg {
            blocks: 2,
            block_compute: SimDuration::millis(1),
            pairs_per_block: 500,
            seed: 3,
        }
    }
}

/// Returns `(total_pairs_accepted, sum_x_bits, sum_y_bits)` — identical on
/// every rank and engine.
pub fn ep_bench(cfg: EpCfg) -> impl RankProgram<Out = (i64, u64, u64)> {
    move |mut mpi: AsyncMpi| {
        let cfg = cfg.clone();
        async move {
            let me = mpi.rank();
            let mut rng = SimRng::new(cfg.seed).split(me as u64);
            let mut annuli = [0i64; 10];
            let (mut sx, mut sy) = (0.0f64, 0.0f64);
            for _ in 0..cfg.blocks {
                for _ in 0..cfg.pairs_per_block {
                    let x = rng.range_f64(-1.0, 1.0);
                    let y = rng.range_f64(-1.0, 1.0);
                    let t = x * x + y * y;
                    if t <= 1.0 && t > 0.0 {
                        let f = (-2.0 * t.ln() / t).sqrt();
                        let (gx, gy) = (x * f, y * f);
                        let l = gx.abs().max(gy.abs()) as usize;
                        if l < annuli.len() {
                            annuli[l] += 1;
                            sx += gx;
                            sy += gy;
                        }
                    }
                }
                mpi.compute(cfg.block_compute).await;
            }
            let counts = mpi.allreduce_i64(ReduceOp::Sum, &annuli).await;
            let sums = mpi.allreduce_f64(ReduceOp::Sum, &[sx, sy]).await;
            let max_count = mpi.allreduce_i64(ReduceOp::Max, &[annuli[0]]).await;
            assert!(max_count[0] >= annuli[0]);
            let total: i64 = counts.iter().sum();
            (total, sums[0].to_bits(), sums[1].to_bits())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{RunSpec, run_app, slowdown_pct};
    use mpi_api::runtime::JobLayout;

    #[test]
    fn ep_tallies_agree_across_engines_and_ranks() {
        let layout = JobLayout::new(4, 2, 8);
        let b = run_app(&RunSpec::bcs(), layout.clone(), ep_bench(EpCfg::test()));
        let q = run_app(&RunSpec::quadrics(), layout, ep_bench(EpCfg::test()));
        assert_eq!(b.results, q.results);
        // All ranks see the same global tallies.
        assert!(b.results.windows(2).all(|w| w[0] == w[1]));
        assert!(b.results[0].0 > 0, "no Gaussian pairs accepted");
    }

    #[test]
    fn ep_slowdown_is_small() {
        // Almost no communication: the two engines should be within a few
        // percent even at fine block granularity.
        let cfg = EpCfg {
            blocks: 5,
            block_compute: SimDuration::millis(10),
            pairs_per_block: 100,
            seed: 1,
        };
        let layout = JobLayout::new(4, 2, 8);
        let b = run_app(&RunSpec::bcs(), layout.clone(), ep_bench(cfg.clone()));
        let q = run_app(&RunSpec::quadrics(), layout, ep_bench(cfg));
        let s = slowdown_pct(b.elapsed, q.elapsed);
        assert!(s < 8.0, "EP slowdown {s:.1}% too high");
    }
}
