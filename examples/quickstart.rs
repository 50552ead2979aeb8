//! Quickstart: run an MPI program on the simulated cluster with both
//! engines and compare.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```
//!
//! The program is ordinary blocking-style Rust: each rank computes, then
//! participates in point-to-point exchanges and an allreduce. The same
//! closure runs unmodified on BCS-MPI (the paper's buffered-coscheduled
//! implementation) and on the production-style baseline.

use bcs_repro::apps::runner::{RunSpec, run_app, slowdown_pct};
use bcs_repro::mpi_api::datatype::ReduceOp;
use bcs_repro::mpi_api::runtime::JobLayout;
use bcs_repro::simcore::SimDuration;

fn main() {
    // 8 nodes x 2 CPUs, 16 ranks — a miniature "crescendo".
    let layout = || JobLayout::new(8, 2, 16);

    let program = |mut mpi: bcs_repro::mpi_api::AsyncMpi| async move {
        let me = mpi.rank();
        let n = mpi.size();
        // Each rank "computes" for 5 ms, exchanges a token around the ring,
        // and reduces a global sum — a classic bulk-synchronous step.
        let mut token = me as i64;
        for _ in 0..10 {
            let next = (me + 1) % n;
            let prev = (me + n - 1) % n;
            // Post the exchange *before* computing: the transfer rides the
            // time slices underneath the 5 ms of work (§3.2).
            let s = mpi.isend(next, 0, &token.to_le_bytes()).await;
            let r = mpi
                .irecv(
                    bcs_repro::mpi_api::message::SrcSel::Rank(prev),
                    bcs_repro::mpi_api::message::TagSel::Tag(0),
                )
                .await;
            mpi.compute(SimDuration::millis(5)).await;
            let results = mpi.waitall(&[s, r]).await;
            let data = results[1].0.as_ref().unwrap();
            token = i64::from_le_bytes(data[..8].try_into().unwrap()) + 1;
        }
        let total = mpi.allreduce_i64(ReduceOp::Sum, &[token]).await[0];
        (token, total)
    };

    println!("running 16 ranks on BCS-MPI (500us time slices)...");
    let bcs = run_app(&RunSpec::bcs(), layout(), program);
    println!(
        "  virtual runtime {:.3} ms, {} discrete events",
        bcs.elapsed.as_millis_f64(),
        bcs.events
    );

    println!("running the same program on the Quadrics-style baseline...");
    let quad = run_app(&RunSpec::quadrics(), layout(), program);
    println!(
        "  virtual runtime {:.3} ms, {} discrete events",
        quad.elapsed.as_millis_f64(),
        quad.events
    );

    // Results are engine-independent (same data, same reduction order).
    assert_eq!(bcs.results, quad.results);
    let (_, total) = bcs.results[0];
    println!("verified: identical results on both engines (global sum {total})");
    println!(
        "BCS-MPI slowdown on this non-blocking workload: {:+.2}%",
        slowdown_pct(bcs.elapsed, quad.elapsed)
    );
    println!("(non-blocking exchanges overlap with compute, so the coscheduled");
    println!(" protocol costs almost nothing — the central claim of the paper)");
}
