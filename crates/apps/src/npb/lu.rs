//! LU — the SSOR wavefront solver.
//!
//! LU factorizes with symmetric successive over-relaxation: a *lower* sweep
//! propagating a wavefront from the north-west corner of the 2-D process
//! grid and an *upper* sweep propagating back, each pipelined over `k`
//! blocks of the third dimension. Every pipeline stage is a pair of small
//! **blocking** receives followed by compute and blocking sends — the most
//! slice-hostile pattern in the suite, and indeed the paper's worst
//! slowdown (15.04 %).

use crate::runner::grid_dims;
use mpi_api::datatype::ReduceOp;
use mpi_api::{AsyncMpi, RankProgram};
use simcore::SimDuration;

#[derive(Clone, Debug)]
pub struct LuCfg {
    pub iters: u64,
    /// Pipeline stages per sweep (NZ k-blocks).
    pub kblocks: usize,
    /// Virtual compute charge per k-block.
    pub block_compute: SimDuration,
    /// Bytes per face message (f64-aligned).
    pub face_elems: usize,
}

impl LuCfg {
    /// Calibrated to a ~40 s class-C baseline at 62 ranks.
    pub fn class_c() -> LuCfg {
        LuCfg {
            iters: 120,
            kblocks: 8,
            block_compute: SimDuration::millis(8),
            face_elems: 256,
        }
    }

    pub fn test() -> LuCfg {
        LuCfg {
            iters: 2,
            kblocks: 2,
            block_compute: SimDuration::micros(200),
            face_elems: 8,
        }
    }
}

/// One SSOR sweep over the process grid. `forward` selects the lower
/// (NW→SE) or upper (SE→NW) triangular direction. Returns the accumulated
/// cell value (a deterministic wavefront functional).
#[allow(clippy::too_many_arguments)]
async fn sweep(
    mpi: &mut AsyncMpi,
    px: usize,
    py: usize,
    forward: bool,
    cfg: &LuCfg,
    state: &mut [f64],
    tag_base: i32,
) -> f64 {
    let me = mpi.rank();
    let (i, j) = (me % px, me / px);
    // Upstream/downstream neighbours in sweep direction.
    let (up_x, up_y, dn_x, dn_y) = if forward {
        (
            (i > 0).then(|| me - 1),
            (j > 0).then(|| me - px),
            (i + 1 < px).then(|| me + 1),
            (j + 1 < py && me + px < px * py).then(|| me + px),
        )
    } else {
        (
            (i + 1 < px).then(|| me + 1),
            (j + 1 < py && me + px < px * py).then(|| me + px),
            (i > 0).then(|| me - 1),
            (j > 0).then(|| me - px),
        )
    };
    // Downstream neighbours may be beyond the (possibly non-rectangular)
    // rank count.
    let n = mpi.size();
    let dn_x = dn_x.filter(|&r| r < n);
    let dn_y = dn_y.filter(|&r| r < n);
    let up_x = up_x.filter(|&r| r < n);
    let up_y = up_y.filter(|&r| r < n);

    let mut acc = 0.0f64;
    for k in 0..cfg.kblocks {
        let tag = tag_base + k as i32;
        // Blocking receives from upstream (Figure: recv from west & north).
        let wx = match up_x {
            Some(r) => mpi.recv_f64(r, tag).await[0],
            None => 1.0,
        };
        let wy = match up_y {
            Some(r) => mpi.recv_f64(r, tag).await[0],
            None => 1.0,
        };
        // Block computation: relax the local state with the incoming
        // wavefront values.
        let v = 0.45 * wx + 0.45 * wy + 0.1 * state[k];
        state[k] = v;
        acc += v;
        mpi.compute(cfg.block_compute).await;
        // Blocking sends downstream.
        let mut face = vec![v; cfg.face_elems];
        face[0] = v;
        if let Some(r) = dn_x {
            mpi.send_f64(r, tag, &face).await;
        }
        if let Some(r) = dn_y {
            mpi.send_f64(r, tag, &face).await;
        }
    }
    acc
}

/// Runs the SSOR iteration loop; each iteration is a lower then an upper
/// sweep followed by a residual allreduce. Returns the bits of the final
/// residual functional (bit-identical across engines).
pub fn lu_bench(cfg: LuCfg) -> impl RankProgram<Out = u64> {
    move |mut mpi: AsyncMpi| {
        let cfg = cfg.clone();
        async move {
            let n = mpi.size();
            let (px, py) = grid_dims(n);
            let mut state = vec![1.0f64; cfg.kblocks];
            let mut res = 0.0f64;
            for it in 0..cfg.iters {
                let tag_base = ((it as i32) % 64) * 32;
                let lower = sweep(&mut mpi, px, py, true, &cfg, &mut state, tag_base).await;
                let upper =
                    sweep(&mut mpi, px, py, false, &cfg, &mut state, tag_base + 16).await;
                let local = lower + upper;
                res = mpi.allreduce_f64(ReduceOp::Sum, &[local]).await[0];
                assert!(res.is_finite());
            }
            res.to_bits()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{RunSpec, run_app};
    use mpi_api::runtime::JobLayout;

    #[test]
    fn lu_wavefront_agrees_across_engines() {
        let layout = JobLayout::new(4, 2, 8);
        let b = run_app(&RunSpec::bcs(), layout.clone(), lu_bench(LuCfg::test()));
        let q = run_app(&RunSpec::quadrics(), layout, lu_bench(LuCfg::test()));
        assert_eq!(b.results, q.results);
        assert!(b.results.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn lu_runs_on_non_square_rank_counts() {
        let layout = JobLayout::new(4, 2, 6);
        let out = run_app(&RunSpec::quadrics(), layout, lu_bench(LuCfg::test()));
        assert_eq!(out.results.len(), 6);
    }

    #[test]
    fn lu_single_rank() {
        let layout = JobLayout::new(1, 1, 1);
        let out = run_app(&RunSpec::quadrics(), layout, lu_bench(LuCfg::test()));
        assert_eq!(out.results.len(), 1);
    }
}
