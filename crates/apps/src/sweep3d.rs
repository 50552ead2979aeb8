//! SWEEP3D — discrete-ordinates particle transport (§5.4).
//!
//! "SWEEP3D is characterized by a fine granularity (each compute step takes
//! ≈ 3.5 ms) and a nearest-neighbor communication stencil with blocking
//! send/receive operations." Each step of the wavefront receives from west
//! and north, computes, and sends east and south.
//!
//! The paper's experiment (Figure 11): the blocking original is ~30 % slower
//! under BCS-MPI, and converting the matched send/recv pairs into
//! `MPI_Isend`/`MPI_Irecv` plus a trailing `MPI_Waitall` — "less than fifty
//! lines of source code" — removes the penalty entirely and lets BCS-MPI
//! slightly outperform the production MPI. Both variants are implemented
//! here; [`SweepVariant`] selects between them.

use crate::runner::grid_dims;
use mpi_api::datatype::{ReduceOp, from_bytes_f64, to_bytes_f64};
use mpi_api::message::{SrcSel, TagSel};
use mpi_api::{AsyncMpi, RankProgram};
use simcore::SimDuration;

/// Blocking original vs the paper's non-blocking transformation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepVariant {
    Blocking,
    NonBlocking,
}

#[derive(Clone, Debug)]
pub struct SweepCfg {
    /// Wavefront compute steps (angle-block × k-block stages).
    pub steps: u64,
    /// Compute per step (paper: ≈ 3.5 ms).
    pub step_compute: SimDuration,
    /// Face elements exchanged per step (f64).
    pub face_elems: usize,
    pub variant: SweepVariant,
}

impl SweepCfg {
    /// The paper's granularity.
    pub fn paper(variant: SweepVariant) -> SweepCfg {
        SweepCfg {
            steps: 400,
            step_compute: SimDuration::micros(3_500),
            face_elems: 512,
            variant,
        }
    }

    pub fn test(variant: SweepVariant) -> SweepCfg {
        SweepCfg {
            steps: 6,
            step_compute: SimDuration::micros(300),
            face_elems: 16,
            variant,
        }
    }
}

/// Returns the bits of the global flux sum after the last step
/// (identical across ranks; variant-specific but engine-independent).
pub fn sweep3d_bench(cfg: SweepCfg) -> impl RankProgram<Out = u64> {
    move |mut mpi: AsyncMpi| {
        let cfg = cfg.clone();
        async move {
            let me = mpi.rank();
            let n = mpi.size();
            let (px, py) = grid_dims(n);
            let (i, j) = (me % px, me / px);
            let west = (i > 0).then(|| me - 1);
            let north = (j > 0).then(|| me - px);
            let east = (i + 1 < px).then(|| me + 1).filter(|&r| r < n);
            let south = (me + px < n && j + 1 < py).then(|| me + px);

            let mut flux = vec![(me as f64 + 1.0) * 1e-3; cfg.face_elems];
            let relax = |flux: &mut Vec<f64>, w: &[f64], nn: &[f64]| {
                for k in 0..flux.len() {
                    let wv = w.get(k).copied().unwrap_or(1.0);
                    let nv = nn.get(k).copied().unwrap_or(1.0);
                    flux[k] = 0.4 * wv + 0.4 * nv + 0.2 * flux[k] + 1e-6;
                }
            };
            let boundary = vec![1.0f64; cfg.face_elems];

            match cfg.variant {
                SweepVariant::Blocking => {
                    for step in 0..cfg.steps {
                        let tag = (step % 512) as i32;
                        // Blocking receives from the upwind neighbours...
                        let w = match west {
                            Some(r) => mpi.recv_f64(r, tag).await,
                            None => boundary.clone(),
                        };
                        let nn = match north {
                            Some(r) => mpi.recv_f64(r, tag).await,
                            None => boundary.clone(),
                        };
                        relax(&mut flux, &w, &nn);
                        mpi.compute(cfg.step_compute).await;
                        // ...blocking sends to the downwind neighbours.
                        if let Some(r) = east {
                            mpi.send_f64(r, tag, &flux).await;
                        }
                        if let Some(r) = south {
                            mpi.send_f64(r, tag, &flux).await;
                        }
                    }
                }
                SweepVariant::NonBlocking => {
                    // The §5.4 transformation: pre-post irecv/isend, compute,
                    // Waitall at the end of the step. The wavefront data of
                    // step s is consumed at step s+1, overlapping each
                    // transfer with a full compute step.
                    let mut pending_w: Vec<f64> = boundary.clone();
                    let mut pending_n: Vec<f64> = boundary.clone();
                    for step in 0..cfg.steps {
                        let tag = (step % 512) as i32;
                        let mut reqs = Vec::with_capacity(4);
                        let mut recv_idx = Vec::new();
                        if let Some(r) = west {
                            recv_idx.push((reqs.len(), true));
                            reqs.push(mpi.irecv(SrcSel::Rank(r), TagSel::Tag(tag)).await);
                        }
                        if let Some(r) = north {
                            recv_idx.push((reqs.len(), false));
                            reqs.push(mpi.irecv(SrcSel::Rank(r), TagSel::Tag(tag)).await);
                        }
                        relax(&mut flux, &pending_w, &pending_n);
                        let out = to_bytes_f64(&flux);
                        if let Some(r) = east {
                            reqs.push(mpi.isend(r, tag, &out).await);
                        }
                        if let Some(r) = south {
                            reqs.push(mpi.isend(r, tag, &out).await);
                        }
                        mpi.compute(cfg.step_compute).await;
                        let results = mpi.waitall(&reqs).await;
                        for &(idx, is_west) in &recv_idx {
                            let data = results[idx].0.as_ref().expect("face payload");
                            let vals = from_bytes_f64(data);
                            if is_west {
                                pending_w = vals;
                            } else {
                                pending_n = vals;
                            }
                        }
                    }
                }
            }

            let local: f64 = flux.iter().sum();
            let total = mpi.allreduce_f64(ReduceOp::Sum, &[local]).await[0];
            assert!(total.is_finite() && total > 0.0);
            total.to_bits()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{RunSpec, run_app, slowdown_pct};
    use mpi_api::runtime::JobLayout;

    #[test]
    fn both_variants_agree_across_engines() {
        for v in [SweepVariant::Blocking, SweepVariant::NonBlocking] {
            let layout = JobLayout::new(4, 2, 8);
            let b = run_app(&RunSpec::bcs(), layout.clone(), sweep3d_bench(SweepCfg::test(v)));
            let q = run_app(&RunSpec::quadrics(), layout, sweep3d_bench(SweepCfg::test(v)));
            assert_eq!(b.results, q.results, "{v:?}");
            assert!(b.results.windows(2).all(|w| w[0] == w[1]));
        }
    }

    #[test]
    fn blocking_variant_pays_slices_nonblocking_does_not() {
        // The Figure 11 contrast, in miniature.
        let layout = || JobLayout::new(4, 2, 8);
        let mk = |v| SweepCfg {
            steps: 20,
            step_compute: SimDuration::micros(3_500),
            face_elems: 64,
            variant: v,
        };
        let bb = run_app(&RunSpec::bcs(), layout(), sweep3d_bench(mk(SweepVariant::Blocking)));
        let qb = run_app(
            &RunSpec::quadrics(),
            layout(),
            sweep3d_bench(mk(SweepVariant::Blocking)),
        );
        let bn = run_app(
            &RunSpec::bcs(),
            layout(),
            sweep3d_bench(mk(SweepVariant::NonBlocking)),
        );
        let qn = run_app(
            &RunSpec::quadrics(),
            layout(),
            sweep3d_bench(mk(SweepVariant::NonBlocking)),
        );
        let s_blocking = slowdown_pct(bb.elapsed, qb.elapsed);
        let s_nonblocking = slowdown_pct(bn.elapsed, qn.elapsed);
        assert!(
            s_blocking > 15.0,
            "blocking sweep should suffer under BCS: {s_blocking:.1}%"
        );
        assert!(
            s_nonblocking < 10.0,
            "non-blocking sweep should be near parity: {s_nonblocking:.1}%"
        );
        assert!(s_nonblocking < s_blocking);
    }
}
