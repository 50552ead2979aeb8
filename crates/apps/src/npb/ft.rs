//! FT — 3-D FFT with distributed transposes.
//!
//! The paper could not run FT (or BT/SP): "MPI groups are not fully
//! implemented yet" (§4.5). With communicator support implemented in both
//! engines, this kernel exercises exactly what FT needs: the world is split
//! into **row and column communicators** over a 2-D process grid, and every
//! iteration performs an all-to-all transpose within each, plus a
//! world-level checksum allreduce — the NPB FT communication skeleton.
//!
//! The per-iteration "FFT" is a real (small) butterfly-like mixing of
//! complex values so results are verifiable and engine-invariant.

use crate::runner::grid_dims;
use mpi_api::datatype::{ReduceOp, from_chunks_f64, to_bytes_f64};
use mpi_api::{AsyncMpi, RankProgram};
use simcore::SimDuration;

#[derive(Clone, Debug)]
pub struct FtCfg {
    /// Complex values per rank (padded up to a grid multiple).
    pub n_local: usize,
    pub iters: u64,
    /// Virtual compute charge per iteration (the local FFT passes).
    pub iter_compute: SimDuration,
}

impl FtCfg {
    /// Sized like the other class-C kernels (~20 s baseline at 62 ranks).
    pub fn class_c() -> FtCfg {
        FtCfg {
            n_local: 1024,
            iters: 20,
            iter_compute: SimDuration::millis(1_000),
        }
    }

    pub fn test() -> FtCfg {
        FtCfg {
            n_local: 64,
            iters: 3,
            iter_compute: SimDuration::micros(400),
        }
    }
}

/// One local "FFT pass": a deterministic butterfly-style mixing.
fn fft_pass(data: &mut [f64], twiddle: f64) {
    let n = data.len();
    let half = n / 2;
    for i in 0..half {
        let a = data[i];
        let b = data[i + half];
        data[i] = a + twiddle * b;
        data[i + half] = a - twiddle * b;
    }
}

/// Returns the bits of the final world checksum (identical on all ranks and
/// engines).
pub fn ft_bench(cfg: FtCfg) -> impl RankProgram<Out = u64> {
    move |mut mpi: AsyncMpi| {
        let cfg = cfg.clone();
        async move {
            let me = mpi.rank();
            let n = mpi.size();
            let (pr, pc) = grid_dims(n);
            // Row/column communicators over the process grid (row-major).
            let row_color = (me / pc) as i64;
            let col_color = (me % pc) as i64;
            let row = mpi
                .comm_split(None, row_color, me as i64)
                .await
                .expect("row communicator");
            let col = mpi
                .comm_split(None, col_color, me as i64)
                .await
                .expect("column communicator");
            assert_eq!(row.size(), pc);
            assert_eq!(col.size(), pr);

            // Pad the local array to a multiple of both grid dimensions so
            // the transposes always deal equal chunks.
            let n_local = cfg.n_local.div_ceil(pr * pc) * (pr * pc);
            let mut data: Vec<f64> = (0..n_local)
                .map(|i| ((me * 37 + i) % 101) as f64 / 101.0 - 0.5)
                .collect();

            let mut checksum = 0.0f64;
            for it in 0..cfg.iters {
                // Local FFT passes along the first dimension.
                fft_pass(&mut data, 0.7 + 0.01 * (it as f64));
                mpi.compute(cfg.iter_compute / 2).await;

                // Transpose across the row communicator: equal chunks to
                // every row member.
                let chunk = data.len() / row.size();
                let send: Vec<Vec<u8>> = data
                    .chunks(chunk)
                    .map(to_bytes_f64)
                    .collect();
                let got = mpi.alltoallv_on(&row, &send).await;
                data = from_chunks_f64(&got);
                fft_pass(&mut data, 0.55);

                // Transpose across the column communicator.
                let chunk = data.len() / col.size();
                let send: Vec<Vec<u8>> = data
                    .chunks(chunk)
                    .map(to_bytes_f64)
                    .collect();
                let got = mpi.alltoallv_on(&col, &send).await;
                data = from_chunks_f64(&got);
                mpi.compute(cfg.iter_compute / 2).await;

                // Row-level partial checksum, then the world checksum (the
                // NPB FT per-iteration checksum pattern).
                let local: f64 = data.iter().map(|x| x * x).sum();
                let row_sum = mpi.allreduce_f64_on(&row, ReduceOp::Sum, &[local]).await[0];
                let world = mpi.allreduce_f64(ReduceOp::Sum, &[row_sum]).await[0];
                checksum = world;
                assert!(checksum.is_finite() && checksum > 0.0);
            }
            checksum.to_bits()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{RunSpec, run_app};
    use mpi_api::runtime::JobLayout;

    #[test]
    fn ft_transposes_agree_across_engines() {
        let layout = JobLayout::new(4, 2, 8);
        let b = run_app(&RunSpec::bcs(), layout.clone(), ft_bench(FtCfg::test()));
        let q = run_app(&RunSpec::quadrics(), layout, ft_bench(FtCfg::test()));
        assert_eq!(b.results, q.results);
        assert!(b.results.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn ft_runs_on_non_square_grids() {
        let layout = JobLayout::new(3, 2, 6); // grid (2,3)
        let out = run_app(&RunSpec::quadrics(), layout, ft_bench(FtCfg::test()));
        assert_eq!(out.results.len(), 6);
    }

    #[test]
    fn ft_single_rank_degenerate() {
        let layout = JobLayout::new(1, 1, 1);
        let out = run_app(&RunSpec::bcs(), layout, ft_bench(FtCfg::test()));
        assert_eq!(out.results.len(), 1);
    }
}
