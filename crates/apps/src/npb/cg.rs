//! CG — Conjugate Gradient.
//!
//! A real distributed CG solve on a 1-D Laplacian (SPD tridiagonal system).
//! The halo exchange before every matrix-vector product uses *consecutive
//! blocking send/receive calls*, which is exactly the pattern the paper
//! blames for CG's 10.83 % slowdown: "CG and LU use several consecutive
//! blocking calls inside a loop which introduce a considerable delay, since
//! no overlap between computation and communication is possible for several
//! time slices" (§5.3). Two dot-product allreduces complete each iteration.

use mpi_api::datatype::ReduceOp;
use mpi_api::{AsyncMpi, RankProgram};
use simcore::SimDuration;

#[derive(Clone, Debug)]
pub struct CgCfg {
    /// Rows owned per rank.
    pub n_local: usize,
    pub iters: u64,
    /// Virtual compute charge per iteration (class C sparse matvec).
    pub iter_compute: SimDuration,
}

impl CgCfg {
    /// Calibrated to a ~25 s class-C baseline at 62 ranks.
    pub fn class_c() -> CgCfg {
        CgCfg {
            n_local: 512,
            iters: 320,
            iter_compute: SimDuration::millis(70),
        }
    }

    pub fn test() -> CgCfg {
        CgCfg {
            n_local: 64,
            iters: 8,
            iter_compute: SimDuration::micros(300),
        }
    }
}

/// Distributed matvec `q = A p` for the shifted 1-D Laplacian
/// `A = tridiag(-1, 2.5, -1)`; needs one halo element from each side.
/// Like the NPB Fortran original, receives are pre-posted with `MPI_Irecv`
/// and the boundary data goes out with *consecutive blocking sends* —
/// the exact call mix §5.3 blames for CG's slowdown.
async fn halo_matvec(mpi: &mut AsyncMpi, p: &[f64], q: &mut [f64], tag: i32) {
    use mpi_api::message::{SrcSel, TagSel};
    let me = mpi.rank();
    let n = mpi.size();
    let nl = p.len();
    let mut left = 0.0f64;
    let mut right = 0.0f64;
    let mut r_right = None;
    if me + 1 < n {
        r_right = Some(mpi.irecv(SrcSel::Rank(me + 1), TagSel::Tag(tag)).await);
    }
    let mut r_left = None;
    if me > 0 {
        r_left = Some(mpi.irecv(SrcSel::Rank(me - 1), TagSel::Tag(tag)).await);
    }
    // Consecutive blocking sends (each suspends until slice-scheduled).
    if me + 1 < n {
        mpi.send_f64(me + 1, tag, &[p[nl - 1]]).await;
    }
    if me > 0 {
        mpi.send_f64(me - 1, tag, &[p[0]]).await;
    }
    if let Some(r) = r_right {
        let (d, _) = mpi.wait_recv(r).await;
        right = mpi_api::datatype::from_bytes_f64(&d)[0];
    }
    if let Some(r) = r_left {
        let (d, _) = mpi.wait_recv(r).await;
        left = mpi_api::datatype::from_bytes_f64(&d)[0];
    }
    const DIAG: f64 = 2.5;
    for i in 0..nl {
        let l = if i == 0 { left } else { p[i - 1] };
        let r = if i == nl - 1 { right } else { p[i + 1] };
        q[i] = DIAG * p[i] - l - r;
    }
}

/// The transpose exchange of NPB CG's 2-D decomposition: a blocking
/// round-trip of a vector chunk with both ring neighbours (pre-posted
/// irecvs + consecutive blocking sends, checksummed).
async fn transpose_exchange(mpi: &mut AsyncMpi, q: &[f64], tag: i32) {
    use mpi_api::message::{SrcSel, TagSel};
    let me = mpi.rank();
    let n = mpi.size();
    if n == 1 {
        return;
    }
    let right = (me + 1) % n;
    let left = (me + n - 1) % n;
    let chunk = &q[..q.len().min(64)];
    let r1 = mpi.irecv(SrcSel::Rank(left), TagSel::Tag(tag)).await;
    let r2 = mpi.irecv(SrcSel::Rank(right), TagSel::Tag(tag)).await;
    mpi.send_f64(right, tag, chunk).await;
    mpi.send_f64(left, tag, chunk).await;
    let (d1, _) = mpi.wait_recv(r1).await;
    let (d2, _) = mpi.wait_recv(r2).await;
    assert_eq!(d1.len(), chunk.len() * 8);
    assert_eq!(d2.len(), chunk.len() * 8);
}

/// Runs `iters` CG iterations on `b = 1⃗`, `x₀ = 0⃗`. Returns
/// `(initial_rho_bits, final_rho_bits)`; the residual must shrink, and the
/// bits are identical across engines (the reduces are bit-exact).
pub fn cg_bench(cfg: CgCfg) -> impl RankProgram<Out = (u64, u64)> {
    move |mut mpi: AsyncMpi| {
        let cfg = cfg.clone();
        async move {
            let nl = cfg.n_local;
            let mut x = vec![0.0f64; nl];
            let mut r = vec![1.0f64; nl]; // r = b - A x0 = b
            let mut p = r.clone();
            let mut q = vec![0.0f64; nl];
            let local_dot =
                |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
            let mut rho = mpi.allreduce_f64(ReduceOp::Sum, &[local_dot(&r, &r)]).await[0];
            let rho0 = rho;
            for it in 0..cfg.iters {
                let tag = (it % 512) as i32 * 2;
                halo_matvec(&mut mpi, &p, &mut q, tag).await;
                // NPB CG's 2-D decomposition also exchanges the partial
                // result across the processor-row transpose; modelled as a
                // second blocking exchange of a vector chunk with the ring
                // neighbours.
                transpose_exchange(&mut mpi, &q, tag + 1).await;
                mpi.compute(cfg.iter_compute).await;
                let pq = mpi.allreduce_f64(ReduceOp::Sum, &[local_dot(&p, &q)]).await[0];
                let alpha = rho / pq;
                for i in 0..nl {
                    x[i] += alpha * p[i];
                    r[i] -= alpha * q[i];
                }
                let rho_new = mpi.allreduce_f64(ReduceOp::Sum, &[local_dot(&r, &r)]).await[0];
                let beta = rho_new / rho;
                rho = rho_new;
                for i in 0..nl {
                    p[i] = r[i] + beta * p[i];
                }
            }
            assert!(
                rho < rho0,
                "CG diverged: rho {rho:e} did not drop below {rho0:e}"
            );
            assert!(x.iter().all(|v| v.is_finite()));
            (rho0.to_bits(), rho.to_bits())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{RunSpec, run_app};
    use mpi_api::runtime::JobLayout;

    #[test]
    fn cg_converges_identically_on_both_engines() {
        let layout = JobLayout::new(4, 2, 8);
        let b = run_app(&RunSpec::bcs(), layout.clone(), cg_bench(CgCfg::test()));
        let q = run_app(&RunSpec::quadrics(), layout, cg_bench(CgCfg::test()));
        assert_eq!(b.results, q.results, "CG must be bit-identical across engines");
        let (rho0, rho) = b.results[0];
        assert!(f64::from_bits(rho) < f64::from_bits(rho0) * 0.9);
    }

    #[test]
    fn cg_blocking_pattern_is_slice_bound_under_bcs() {
        // With near-zero compute, every CG iteration in BCS-MPI costs
        // multiple slices (consecutive blocking calls + 2 allreduces).
        let cfg = CgCfg {
            n_local: 16,
            iters: 5,
            iter_compute: SimDuration::micros(10),
        };
        let layout = JobLayout::new(4, 1, 4);
        let b = run_app(&RunSpec::bcs(), layout.clone(), cg_bench(cfg.clone()));
        let q = run_app(&RunSpec::quadrics(), layout, cg_bench(cfg));
        let per_iter_us = b.elapsed.as_micros_f64() / 5.0;
        assert!(
            per_iter_us > 1_500.0,
            "BCS CG iteration only {per_iter_us:.0}us — blocking quantization missing"
        );
        assert!(b.elapsed > q.elapsed * 10);
    }
}
