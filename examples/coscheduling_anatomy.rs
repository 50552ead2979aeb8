//! Anatomy of buffered coscheduling: watch the slice machinery work.
//!
//! ```sh
//! cargo run --release --example coscheduling_anatomy
//! ```
//!
//! Runs a blocking ping-pong on BCS-MPI and dumps the protocol statistics:
//! slices executed, descriptors exchanged, matches, chunks, and the
//! measured distribution of blocking delays — which must average the
//! paper's 1.5 time slices. Also demonstrates that the whole simulation is
//! deterministic: a second run produces bit-identical timing.

use bcs_repro::bcs_mpi::{BcsConfig, BcsMpi};
use bcs_repro::mpi_api::AsyncMpi;
use bcs_repro::mpi_api::message::{SrcSel, TagSel};
use bcs_repro::mpi_api::runtime::{JobLayout, run_program};
use bcs_repro::simcore::SimDuration;

fn run_once() -> (Vec<u64>, bcs_repro::bcs_mpi::BcsStats, Vec<bcs_repro::bcs_mpi::SliceRecord>) {
    let layout = JobLayout::new(2, 1, 2);
    let mut cfg = BcsConfig::default();
    cfg.trace_slices = true;
    let out = run_program(
        BcsMpi::new(cfg, &layout),
        layout,
        |mut mpi: AsyncMpi| async move {
            for i in 0..50u64 {
                // Irregular compute offsets spread the posts across slice
                // interiors, like a real application.
                mpi.compute(SimDuration::micros(311 + (i * 173) % 441)).await;
                if mpi.rank() == 0 {
                    mpi.send(1, 1, &[42u8; 1024]).await;
                    mpi.recv(SrcSel::Rank(1), TagSel::Tag(2)).await;
                } else {
                    mpi.recv(SrcSel::Rank(0), TagSel::Tag(1)).await;
                    mpi.send(0, 2, &[24u8; 1024]).await;
                }
            }
            mpi.now().await.as_nanos()
        },
    );
    (out.results, out.engine.stats, out.engine.trace.to_vec())
}

fn main() {
    let (finish, stats, trace) = run_once();

    println!("BCS-MPI protocol statistics for 100 blocking exchanges:");
    println!("  time slices executed ... {}", stats.slices);
    println!("  descriptors exchanged .. {}", stats.descriptors_exchanged);
    println!("  matches made ........... {}", stats.matches);
    println!("  chunks transferred ..... {}", stats.chunks);
    println!("  slice overruns ......... {}", stats.overruns);
    let h = &stats.blocking_delay;
    println!(
        "  blocking delay ......... mean {:.2} slices, p50 {:.2}, p95 {:.2} (paper: 1.5 mean)",
        h.mean().as_micros_f64() / 500.0,
        h.quantile(0.5).as_micros_f64() / 500.0,
        h.quantile(0.95).as_micros_f64() / 500.0,
    );

    // The per-slice timeline: the "global debugger view" the paper's
    // determinism enables (first 12 active slices).
    println!("\nslice timeline (active slices):");
    let timeline = bcs_repro::bcs_mpi::trace::render_timeline(&trace);
    for line in timeline.lines().take(13) {
        println!("  {line}");
    }

    // Determinism: the global communication state is known at every slice
    // boundary, so a rerun replays exactly (the property the paper says
    // "facilitates the implementation of checkpointing and debugging").
    let (finish2, _, trace2) = run_once();
    assert_eq!(finish, finish2);
    assert_eq!(trace, trace2);
    println!("\nrerun produced a bit-identical timeline: deterministic ✓");
}
