//! A slice costs what is active in it, not what the machine holds (DESIGN
//! §9): a mostly idle barrier loop on 16× the nodes finishes at the recorded
//! virtual time, and the dispatches that are not a rank doing something —
//! strobes, polls, idle NIC threads, barrier delivery — stay under 2× (they
//! are in fact equal), and the per-node microphase bodies run are equal: an
//! idle node's microphase is not one. Counts only; nothing here depends on
//! host speed.

use bcs_mpi::{BcsConfig, BcsMpi};
use mpi_api::runtime::{JobLayout, run_program};
use mpi_api::{AsyncMpi, RankProgram};
use simcore::SimDuration;

const ITERS: u64 = 3;

/// 19 whole slices of compute, the barrier in the 20th, three times.
fn barrier_loop() -> impl RankProgram<Out = u64> {
    |mut mpi: AsyncMpi| async move {
        for _ in 0..ITERS {
            mpi.compute_then_barrier(SimDuration::micros(9_800)).await;
        }
        ITERS
    }
}

/// `(virtual ns at the last finish, machine events, slices, per-node
/// microphase bodies run)` on `nodes` nodes of two ranks each. Machine
/// events are all dispatches but the one per rank and iteration that ends a
/// rank's compute phase and posts its barrier: that one is the rank's own
/// work.
fn run(nodes: usize) -> (u64, u64, u64, u64) {
    let layout = JobLayout::new(nodes, 2, 2 * nodes);
    let engine = BcsMpi::new(BcsConfig::default(), &layout);
    let out = run_program(engine, layout, barrier_loop());
    assert!(out.results.iter().all(|&n| n == ITERS));
    let rank_events = ITERS * 2 * nodes as u64;
    (
        out.elapsed.as_nanos(),
        out.events - rank_events,
        out.engine.stats.slices,
        out.engine.stats.node_passes,
    )
}

#[test]
fn idle_slices_cost_the_same_dispatches_at_16x_the_nodes() {
    let (small_ns, small_events, small_slices, small_passes) = run(64);
    let (large_ns, large_events, large_slices, large_passes) = run(1024);
    // Virtual times recorded at the commit before the batching (PR 12).
    assert_eq!(small_ns, PARENT_NS_64);
    assert_eq!(large_ns, PARENT_NS_1024);
    assert_eq!(small_slices, large_slices);
    assert!(
        large_events < 2 * small_events,
        "{large_events} machine events on 1024 nodes vs {small_events} on 64: \
         idle nodes are paying per-node events again"
    );
    // The one node with something to do is the barrier's master: a query
    // in three MSMs, a barrier to perform in three BBMs.
    assert_eq!((small_passes, large_passes), (6, 6), "idle nodes are running microphase bodies again");
}

const PARENT_NS_64: u64 = 31_500_000;
const PARENT_NS_1024: u64 = 31_500_000;
