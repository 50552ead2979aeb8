//! The paper's §5.4 story, runnable: SWEEP3D with blocking send/receive is
//! ~30 % slower under BCS-MPI; converting the matched pairs to
//! `Isend`/`Irecv` + `Waitall` ("less than fifty lines of source code")
//! removes the penalty.
//!
//! ```sh
//! cargo run --release --example sweep3d_transform
//! ```

use bcs_repro::apps::runner::{RunSpec, run_app, slowdown_pct};
use bcs_repro::apps::sweep3d::{SweepCfg, SweepVariant, sweep3d_bench};
use bcs_repro::mpi_api::runtime::JobLayout;
use bcs_repro::simcore::SimDuration;

fn main() {
    let layout = || JobLayout::new(8, 2, 16);
    let cfg = |variant| SweepCfg {
        steps: 100,
        step_compute: SimDuration::micros(3_500), // the paper's grain
        face_elems: 256,
        variant,
    };

    println!("SWEEP3D wavefront, 16 ranks, 3.5 ms compute steps\n");
    for variant in [SweepVariant::Blocking, SweepVariant::NonBlocking] {
        let b = run_app(&RunSpec::bcs(), layout(), sweep3d_bench(cfg(variant)));
        let q = run_app(&RunSpec::quadrics(), layout(), sweep3d_bench(cfg(variant)));
        assert_eq!(b.results, q.results, "flux must be engine-independent");
        println!(
            "{variant:?}: BCS-MPI {:.3}s  baseline {:.3}s  slowdown {:+.1}%",
            b.elapsed.as_secs_f64(),
            q.elapsed.as_secs_f64(),
            slowdown_pct(b.elapsed, q.elapsed),
        );
    }
    println!();
    println!("Blocking primitives suspend the caller until a slice boundary after");
    println!("the transfer (1.5 slices mean); the non-blocking form posts the same");
    println!("descriptors but overlaps the whole protocol with the 3.5 ms compute.");
}
