#![forbid(unsafe_code)]
//! # apps — the workloads of the evaluation (§5)
//!
//! Communication-faithful mini-kernels standing in for the paper's
//! benchmarks and applications. Each kernel computes *real data* at small
//! scale (so results are verifiable and deterministic) and charges *virtual
//! compute time* per step, calibrated in [`calib`] so that baseline
//! runtimes land near the paper's; the BCS-vs-Quadrics slowdowns then
//! emerge from the protocol simulation.
//!
//! | Module | Paper workload | Communication pattern |
//! |---|---|---|
//! | [`synthetic`] | §5.2 benchmarks | compute+barrier; compute+4-neighbour non-blocking exchange |
//! | [`npb::is`] | NAS IS | bucket histogram allreduce + all-to-all key exchange |
//! | [`npb::ep`] | NAS EP | pure compute, 3 allreduces at the end |
//! | [`npb::cg`] | NAS CG | *consecutive blocking* halo exchanges + 2 dot-product allreduces per iteration |
//! | [`npb::mg`] | NAS MG | per-level blocking halo exchanges in a V-cycle |
//! | [`npb::lu`] | NAS LU | SSOR wavefront pipeline of many small blocking messages |
//! | [`sage`] | SAGE (timing.input) | non-blocking nearest-neighbour + allreduce per step |
//! | [`sweep3d`] | SWEEP3D | 2-D wavefront; blocking and non-blocking variants (§5.4) |

pub mod calib;
pub mod npb;
pub mod runner;
pub mod sage;
pub mod sweep3d;
pub mod synthetic;

pub use runner::{RunReport, RunSpec, run_app};
