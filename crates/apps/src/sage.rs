//! SAGE proxy (SAIC's Adaptive Grid Eulerian hydrocode, `timing.input`).
//!
//! SAGE "is characterized by a nearest-neighbor communication pattern that
//! uses non-blocking communication operations followed by a reduce
//! operation at the end of each compute step" (§5.3). It is medium-grained:
//! the non-blocking gather/scatter traffic rides under the compute, and the
//! per-step allreduce is the only synchronization — which is why BCS-MPI
//! runs it at parity with the production MPI (−0.42 % in Table 2).

use mpi_api::datatype::ReduceOp;
use mpi_api::message::{SrcSel, TagSel};
use mpi_api::{AsyncMpi, RankProgram};
use simcore::SimDuration;

#[derive(Clone, Debug)]
pub struct SageCfg {
    pub steps: u64,
    /// Compute per step (timing.input cycles are seconds-scale; scaled
    /// down, see calib.rs).
    pub step_compute: SimDuration,
    /// Gather/scatter messages exchanged with each ±1 neighbour per step.
    pub msgs_per_neighbor: usize,
    pub msg_bytes: usize,
    /// Elements of the end-of-step allreduce.
    pub reduce_elems: usize,
}

impl SageCfg {
    /// Calibrated to a ~100 s baseline (timing.input at 62 ranks, scaled).
    pub fn timing_input() -> SageCfg {
        SageCfg {
            steps: 50,
            step_compute: SimDuration::millis(2_000),
            msgs_per_neighbor: 8,
            msg_bytes: 24 * 1024,
            reduce_elems: 8,
        }
    }

    pub fn test() -> SageCfg {
        SageCfg {
            steps: 3,
            step_compute: SimDuration::millis(2),
            msgs_per_neighbor: 2,
            msg_bytes: 512,
            reduce_elems: 4,
        }
    }
}

/// Returns the bits of the final allreduce's first element (identical on
/// all ranks and engines).
pub fn sage_bench(cfg: SageCfg) -> impl RankProgram<Out = u64> {
    move |mut mpi: AsyncMpi| {
        let cfg = cfg.clone();
        async move {
            let me = mpi.rank();
            let n = mpi.size();
            let left = (me > 0).then(|| me - 1);
            let right = (me + 1 < n).then(|| me + 1);
            let payload: Vec<u8> = (0..cfg.msg_bytes).map(|i| (me ^ i) as u8).collect();
            // Local "hydro state" evolved each step; the reduce is its energy.
            let mut energy = (me + 1) as f64;
            let mut final_red = 0.0f64;
            for step in 0..cfg.steps {
                let tag = (step % 512) as i32;
                // AMR gather/scatter: non-blocking both ways, posted before
                // the compute so BCS-MPI can overlap them.
                let mut reqs = Vec::new();
                for peer in [left, right].into_iter().flatten() {
                    for _ in 0..cfg.msgs_per_neighbor {
                        reqs.push(mpi.irecv(SrcSel::Rank(peer), TagSel::Tag(tag)).await);
                    }
                }
                for peer in [left, right].into_iter().flatten() {
                    for _ in 0..cfg.msgs_per_neighbor {
                        reqs.push(mpi.isend(peer, tag, &payload).await);
                    }
                }
                mpi.compute(cfg.step_compute).await;
                let results = mpi.waitall(&reqs).await;
                let received: usize = results
                    .iter()
                    .filter_map(|(d, _)| d.as_ref().map(|d| d.len()))
                    .sum();
                energy = energy * 0.999 + received as f64 * 1e-6;
                // End-of-step reduce (conservation check in the real code).
                let contribution: Vec<f64> =
                    (0..cfg.reduce_elems).map(|k| energy + k as f64).collect();
                let red = mpi.allreduce_f64(ReduceOp::Sum, &contribution).await;
                final_red = red[0];
            }
            final_red.to_bits()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{RunSpec, run_app, slowdown_pct};
    use mpi_api::runtime::JobLayout;

    #[test]
    fn sage_is_bit_identical_across_engines() {
        let layout = JobLayout::new(4, 2, 8);
        let b = run_app(&RunSpec::bcs(), layout.clone(), sage_bench(SageCfg::test()));
        let q = run_app(&RunSpec::quadrics(), layout, sage_bench(SageCfg::test()));
        assert_eq!(b.results, q.results);
        assert!(b.results.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn sage_medium_grain_runs_near_parity() {
        let cfg = SageCfg {
            steps: 5,
            step_compute: SimDuration::millis(40),
            msgs_per_neighbor: 4,
            msg_bytes: 8 * 1024,
            reduce_elems: 8,
        };
        let layout = JobLayout::new(4, 2, 8);
        let b = run_app(&RunSpec::bcs(), layout.clone(), sage_bench(cfg.clone()));
        let q = run_app(&RunSpec::quadrics(), layout, sage_bench(cfg));
        let s = slowdown_pct(b.elapsed, q.elapsed);
        assert!(
            s.abs() < 8.0,
            "SAGE-like workload should run near parity, got {s:.1}%"
        );
    }
}
