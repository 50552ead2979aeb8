//! Communicators in action: the NPB FT transpose skeleton the paper could
//! not run ("MPI groups are not fully implemented yet", §4.5).
//!
//! ```sh
//! cargo run --release --example ft_communicators
//! ```
//!
//! Splits the world into row and column communicators over a 2-D process
//! grid, runs FT-style all-to-all transposes scoped to each, and compares
//! the two engines.

use bcs_repro::apps::npb::ft::{FtCfg, ft_bench};
use bcs_repro::apps::runner::{RunSpec, run_app, slowdown_pct};
use bcs_repro::mpi_api::datatype::ReduceOp;
use bcs_repro::mpi_api::runtime::JobLayout;
use bcs_repro::simcore::SimDuration;

fn main() {
    // First, a tiny hand-written demo of the comm API.
    let layout = JobLayout::new(4, 2, 8);
    let out = run_app(
        &RunSpec::bcs(),
        layout,
        |mut mpi: bcs_repro::mpi_api::AsyncMpi| async move {
            let me = mpi.rank();
            // 2x4 grid: rows {0..3} and {4..7}; columns pair across rows.
            let row = mpi.comm_split(None, (me / 4) as i64, 0).await.unwrap();
            let col = mpi.comm_split(None, (me % 4) as i64, 0).await.unwrap();
            let row_sum = mpi.allreduce_f64_on(&row, ReduceOp::Sum, &[me as f64]).await[0];
            let col_sum = mpi.allreduce_f64_on(&col, ReduceOp::Sum, &[me as f64]).await[0];
            (row.rank, row_sum as i64, col.rank, col_sum as i64)
        },
    );
    println!("2x4 grid on BCS-MPI: per-rank (row-rank, row-sum, col-rank, col-sum):");
    for (r, t) in out.results.iter().enumerate() {
        println!("  world rank {r}: {t:?}");
    }

    // Then the FT kernel itself on both engines.
    let cfg = FtCfg {
        n_local: 512,
        iters: 10,
        iter_compute: SimDuration::millis(50),
    };
    let mk = || JobLayout::new(8, 2, 16);
    let b = run_app(&RunSpec::bcs(), mk(), ft_bench(cfg.clone()));
    let q = run_app(&RunSpec::quadrics(), mk(), ft_bench(cfg));
    assert_eq!(b.results, q.results, "FT checksums must be engine-invariant");
    println!(
        "\nFT skeleton, 16 ranks: BCS-MPI {:.3}s vs baseline {:.3}s ({:+.2}%)",
        b.elapsed.as_secs_f64(),
        q.elapsed.as_secs_f64(),
        slowdown_pct(b.elapsed, q.elapsed)
    );
    println!("checksum (identical on every rank and engine): {:#x}", b.results[0]);
    println!("\nThe paper excluded FT because its prototype lacked MPI groups;");
    println!("with communicator-scoped collectives in both engines it just runs.");
}
