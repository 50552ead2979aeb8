//! Miniature end-to-end application benchmarks: one figure-8-style point on
//! each engine, sized to run in milliseconds so a full bench sweep stays
//! fast. The virtual-time results are the experiment; this measures the
//! harness.
//!
//! Run offline: `cargo run --release -p bench --bin apps_micro [-- --quick]`.
//! Emits `reports/microbench_apps_micro.csv`.

use apps::runner::{RunSpec, run_app};
use apps::synthetic::{BarrierLoopCfg, NeighborLoopCfg, barrier_loop, neighbor_loop};
use bench::micro::Micro;
use mpi_api::runtime::JobLayout;
use simcore::SimDuration;
use std::hint::black_box;

fn main() {
    let mut m = Micro::from_args("apps_micro");

    for (name, sel) in [("bcs", RunSpec::bcs()), ("quadrics", RunSpec::quadrics())] {
        m.bench("barrier_loop_16r_10x2ms", name, || {
            let cfg = BarrierLoopCfg {
                granularity: SimDuration::millis(2),
                iters: 10,
            };
            let out = run_app(&sel, JobLayout::new(8, 2, 16), barrier_loop(cfg));
            black_box(out.elapsed)
        });
    }

    for (name, sel) in [("bcs", RunSpec::bcs()), ("quadrics", RunSpec::quadrics())] {
        m.bench("neighbor_loop_16r_10x2ms", name, || {
            let cfg = NeighborLoopCfg::paper(SimDuration::millis(2), 10);
            let out = run_app(&sel, JobLayout::new(8, 2, 16), neighbor_loop(cfg));
            black_box(out.elapsed)
        });
    }

    m.finish();
}
