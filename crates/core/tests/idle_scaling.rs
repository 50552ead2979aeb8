//! A slice costs what is active in it, not what the machine holds (DESIGN
//! §9): a mostly idle barrier loop on 16× and 128× the nodes finishes at
//! the recorded virtual time, and the dispatches that are not a rank doing
//! something — strobes, polls, idle NIC threads, barrier delivery — stay
//! under 2× (they are in fact equal), the per-node microphase bodies run are
//! equal (an idle node's microphase is not one), and so are the nodes the
//! strobes look at (an idle node is not looked at). Counts only; nothing
//! here depends on host speed.

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
/// microphase bodies run, nodes the strobes looked at)` on `nodes` nodes of
/// two ranks each. Machine events are all dispatches but the one per rank
/// and iteration that ends a rank's compute phase and posts its barrier:
/// that one is the rank's own work.
fn run(nodes: usize) -> (u64, u64, u64, u64, u64) {
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
        out.engine.stats.strobe_visits,
    )
}

#[test]
fn idle_slices_cost_the_same_dispatches_at_16x_the_nodes() {
    let (small_ns, small_events, small_slices, small_passes, small_visits) = run(64);
    // Virtual times recorded before deliveries were batched per instant;
    // the 1024-node one holds at 8192 nodes too.
    assert_eq!(small_ns, PARENT_NS_64);
    // The one node with something to do is the barrier's master: a query
    // in three MSMs, a barrier to perform in three BBMs — and it is the one
    // node the strobes look at.
    assert_eq!((small_passes, small_visits), (6, STROBE_VISITS));
    for nodes in [1024, 8192] {
        let (ns, events, slices, passes, visits) = run(nodes);
        assert_eq!(ns, PARENT_NS_1024, "{nodes} nodes");
        assert_eq!(small_slices, slices);
        assert!(
            events < 2 * small_events,
            "{events} machine events on {nodes} nodes vs {small_events} on 64: \
             idle nodes are paying per-node events again"
        );
        assert_eq!(passes, 6, "{nodes} nodes: idle nodes are running microphase bodies again");
        assert_eq!(visits, small_visits, "{nodes} nodes: strobes are looking at idle nodes again");
    }
}

/// Nodes the strobes of the 64-node loop look at: the master, in the five
/// walks of each barrier's slice — the DEM, the MSM that queries the round,
/// the P2P, the BBM that performs it and the RM that finds it gone.
const STROBE_VISITS: u64 = 15;

const PARENT_NS_64: u64 = 31_500_000;
const PARENT_NS_1024: u64 = 31_500_000;
