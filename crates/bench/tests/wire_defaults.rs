//! `repro --fabric`/`--coll` are defaults, not overrides: the registry's
//! [`Wire`] is where every experiment's engine configurations *start*, so an
//! experiment that fixes an axis per row keeps its own values, and one that
//! fixes neither moves with the flags — the recovery path included, which
//! the environment variables these flags replace never reached.

use bench::experiments::{Wire, registry};
use bench::sweep::{self, PointOut};
use mpi_api::coll_sched::CollAlgo;
use qsnet::FabricKind;

/// Every point output of quick-mode experiment `cli` under `wire`.
fn point_outputs(cli: &str, wire: Wire) -> Vec<PointOut> {
    let exp = registry(true, wire).into_iter().find(|e| e.cli == cli).expect("registered");
    sweep::run_points(exp.points, 2).0
}

const RDMA: Wire = Wire { fabric: FabricKind::Rdma, coll: CollAlgo::HwMulticast };

#[test]
fn fabric_matrix_fixes_its_fabric_per_row() {
    assert_eq!(point_outputs("fabric-matrix", Wire::default()), point_outputs("fabric-matrix", RDMA));
}

#[test]
fn ablation_reduce_fixes_both_axes_per_cell() {
    let other = Wire { fabric: FabricKind::Rdma, coll: CollAlgo::Binomial };
    assert_eq!(
        point_outputs("ablation-reduce", Wire::default()),
        point_outputs("ablation-reduce", other)
    );
}

#[test]
fn the_default_reaches_the_recovery_path() {
    assert_ne!(point_outputs("ablation-fault", Wire::default()), point_outputs("ablation-fault", RDMA));
}
