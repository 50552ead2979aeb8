//! MG — Multigrid.
//!
//! A real 1-D multigrid V-cycle for the Poisson equation, distributed by
//! rank. Every smoothing step at every level performs a blocking halo
//! exchange (the NPB MG communication pattern), and each cycle ends with a
//! residual-norm allreduce. Compute charges are proportional to the number
//! of points at each level, so fine levels dominate like in the original.

use mpi_api::datatype::ReduceOp;
use mpi_api::{AsyncMpi, RankProgram};
use simcore::SimDuration;

/// Shifted-Laplacian diagonal (diagonal dominance makes the two-grid cycle
/// contract quickly even on the unscaled coarse operator).
const DIAG: f64 = 2.5;

#[derive(Clone, Debug)]
pub struct MgCfg {
    /// Points per rank on the finest level (must be a power of two).
    pub n_fine: usize,
    /// Number of levels in the V-cycle.
    pub levels: usize,
    pub cycles: u64,
    /// Virtual compute charge for one full V-cycle.
    pub cycle_compute: SimDuration,
}

impl MgCfg {
    /// Calibrated to a ~20 s class-C baseline at 62 ranks.
    pub fn class_c() -> MgCfg {
        MgCfg {
            n_fine: 256,
            levels: 6,
            cycles: 10,
            cycle_compute: SimDuration::millis(2_000),
        }
    }

    pub fn test() -> MgCfg {
        MgCfg {
            n_fine: 32,
            levels: 3,
            cycles: 3,
            cycle_compute: SimDuration::micros(500),
        }
    }
}

/// Halo exchange of one f64 per side: pre-posted irecvs + blocking sends,
/// the `comm3` pattern of the NPB original. O(1) rounds at any rank count.
async fn halo(mpi: &mut AsyncMpi, first: f64, last: f64, tag: i32) -> (f64, f64) {
    use mpi_api::message::{SrcSel, TagSel};
    let me = mpi.rank();
    let n = mpi.size();
    let (mut left, mut right) = (0.0, 0.0);
    let mut r_right = None;
    if me + 1 < n {
        r_right = Some(mpi.irecv(SrcSel::Rank(me + 1), TagSel::Tag(tag)).await);
    }
    let mut r_left = None;
    if me > 0 {
        r_left = Some(mpi.irecv(SrcSel::Rank(me - 1), TagSel::Tag(tag)).await);
    }
    if me + 1 < n {
        mpi.send_f64(me + 1, tag, &[last]).await;
    }
    if me > 0 {
        mpi.send_f64(me - 1, tag, &[first]).await;
    }
    if let Some(r) = r_right {
        right = mpi_api::datatype::from_bytes_f64(&mpi.wait_recv(r).await.0)[0];
    }
    if let Some(r) = r_left {
        left = mpi_api::datatype::from_bytes_f64(&mpi.wait_recv(r).await.0)[0];
    }
    (left, right)
}

/// Weighted-Jacobi smoothing sweep: `v ← v + ω D⁻¹ (f − A v)` for the 1-D
/// Laplacian with halo values from the neighbours.
async fn smooth(mpi: &mut AsyncMpi, v: &mut [f64], f: &[f64], tag: i32) {
    let nl = v.len();
    let (left, right) = halo(mpi, v[0], v[nl - 1], tag).await;
    let mut out = vec![0.0f64; nl];
    for i in 0..nl {
        let l = if i == 0 { left } else { v[i - 1] };
        let r = if i == nl - 1 { right } else { v[i + 1] };
        out[i] = v[i] + 0.8 * (f[i] - (DIAG * v[i] - l - r)) / DIAG;
    }
    v.copy_from_slice(&out);
}

/// Residual `f − A v`, using halo values.
async fn residual(mpi: &mut AsyncMpi, v: &[f64], f: &[f64], tag: i32) -> Vec<f64> {
    let nl = v.len();
    let (left, right) = halo(mpi, v[0], v[nl - 1], tag).await;
    (0..nl)
        .map(|i| {
            let l = if i == 0 { left } else { v[i - 1] };
            let r = if i == nl - 1 { right } else { v[i + 1] };
            f[i] - (DIAG * v[i] - l - r)
        })
        .collect()
}

/// Runs `cycles` V-cycles on `f = 1⃗`. Returns
/// `(initial_norm_bits, final_norm_bits)`; the norm must shrink and is
/// bit-identical across engines.
pub fn mg_bench(cfg: MgCfg) -> impl RankProgram<Out = (u64, u64)> {
    move |mut mpi: AsyncMpi| {
        let cfg = cfg.clone();
        async move {
            assert!(cfg.n_fine >> (cfg.levels - 1) >= 2, "too many levels");
            let nl = cfg.n_fine;
            let f_fine = vec![1.0f64; nl];
            let mut v = vec![0.0f64; nl];
            async fn norm(mpi: &mut AsyncMpi, r: &[f64]) -> f64 {
                let local: f64 = r.iter().map(|x| x * x).sum();
                mpi.allreduce_f64(ReduceOp::Sum, &[local]).await[0].sqrt()
            }
            let mut tag_seq = 0i32;
            let mut next_tag = move || {
                tag_seq = (tag_seq + 1) % 1024;
                tag_seq
            };

            let r0 = residual(&mut mpi, &v, &f_fine, next_tag()).await;
            let n0 = norm(&mut mpi, &r0).await;
            for _ in 0..cfg.cycles {
                // Descend: smooth, restrict the residual.
                let mut vs: Vec<Vec<f64>> = vec![v.clone()];
                let mut fs: Vec<Vec<f64>> = vec![f_fine.clone()];
                for lev in 0..cfg.levels - 1 {
                    let points = nl >> lev;
                    mpi.compute(level_cost(cfg.cycle_compute, cfg.levels, lev) / 2)
                        .await;
                    smooth(&mut mpi, &mut vs[lev], &fs[lev].clone(), next_tag()).await;
                    let r = residual(&mut mpi, &vs[lev], &fs[lev], next_tag()).await;
                    // Full-weighting restriction to the next coarser level.
                    let coarse: Vec<f64> = (0..points / 2)
                        .map(|i| {
                            let a = r[2 * i];
                            let b = if 2 * i + 1 < points { r[2 * i + 1] } else { 0.0 };
                            0.5 * (a + b)
                        })
                        .collect();
                    fs.push(coarse);
                    vs.push(vec![0.0; points / 2]);
                }
                // Coarsest level: a few smoothing sweeps.
                let top = cfg.levels - 1;
                mpi.compute(level_cost(cfg.cycle_compute, cfg.levels, top)).await;
                for _ in 0..2 {
                    smooth(&mut mpi, &mut vs[top], &fs[top].clone(), next_tag()).await;
                }
                // Ascend: prolong and smooth.
                for lev in (0..cfg.levels - 1).rev() {
                    let correction = vs[lev + 1].clone();
                    let fine = &mut vs[lev];
                    for (i, c) in correction.iter().enumerate() {
                        fine[2 * i] += c;
                        if 2 * i + 1 < fine.len() {
                            fine[2 * i + 1] += c;
                        }
                    }
                    mpi.compute(level_cost(cfg.cycle_compute, cfg.levels, lev) / 2)
                        .await;
                    smooth(&mut mpi, &mut vs[lev], &fs[lev].clone(), next_tag()).await;
                }
                v = vs.swap_remove(0);
            }
            let r1 = residual(&mut mpi, &v, &f_fine, next_tag()).await;
            let n1 = norm(&mut mpi, &r1).await;
            assert!(n1 < n0, "MG failed to reduce the residual: {n1:e} !< {n0:e}");
            (n0.to_bits(), n1.to_bits())
        }
    }
}

/// Compute charge of one visit to `lev` (fine levels cost more). The total
/// over a full V-cycle is ~`cycle_compute`.
fn level_cost(cycle: SimDuration, levels: usize, lev: usize) -> SimDuration {
    // Geometric split: level l gets (1/2)^l of the work, normalized.
    let denom: f64 = (0..levels).map(|l| 0.5f64.powi(l as i32)).sum();
    SimDuration::nanos((cycle.as_nanos() as f64 * 0.5f64.powi(lev as i32) / denom) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{RunSpec, run_app};
    use mpi_api::runtime::JobLayout;

    #[test]
    fn mg_reduces_residual_identically() {
        let layout = JobLayout::new(4, 2, 8);
        let b = run_app(&RunSpec::bcs(), layout.clone(), mg_bench(MgCfg::test()));
        let q = run_app(&RunSpec::quadrics(), layout, mg_bench(MgCfg::test()));
        assert_eq!(b.results, q.results);
        let (n0, n1) = b.results[0];
        assert!(f64::from_bits(n1) < f64::from_bits(n0) * 0.5);
    }

    #[test]
    fn level_costs_sum_to_cycle() {
        let total: u64 = (0..6)
            .map(|l| level_cost(SimDuration::millis(1000), 6, l).as_nanos())
            .sum();
        let ms = total as f64 / 1e6;
        assert!((995.0..1005.0).contains(&ms), "level costs sum to {ms}ms");
    }
}
