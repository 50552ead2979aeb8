//! Property tests of the software-emulated BCS primitives: the RDMA
//! fabric's binomial-tree multicast and gather-to-root conditional must be
//! *functionally* equivalent to QsNet's hardware primitives — the same
//! payload set delivered to the same destinations, completions in a
//! deterministic order — across random topologies, group sizes and
//! operation scripts. Timing legitimately differs (that difference is the
//! point of the fabric-matrix experiment); delivery semantics must not.

use proplite::prelude::*;
use qsnet::fabric::DeliverFn;
use qsnet::{FabricKind, NetModel, NodeId};
use rdmanet::build_fabric;
use simcore::{Sim, SimTime};
use std::rc::Rc;

/// World shared by every run: the observable delivery record.
#[derive(Default)]
struct Log {
    /// One `(op, virtual_nanos, dest)` entry per per-destination delivery.
    deliveries: Vec<(usize, u64, usize)>,
    /// One `(op, virtual_nanos)` entry per operation completion.
    completions: Vec<(usize, u64)>,
}

/// Table 1 model each fabric kind actually ships with.
fn model_for(kind: FabricKind) -> NetModel {
    match kind {
        FabricKind::QsNet => NetModel::qsnet(),
        FabricKind::Rdma => NetModel::infiniband(),
    }
}

#[derive(Clone, Debug)]
enum Op {
    /// Multicast `bytes` from `src` to the group selected by `picks`.
    Mcast { src: u8, bytes: u32, picks: Vec<u8> },
    /// Global conditional rooted at `src` over the first `span` nodes.
    Cond { src: u8 },
}

fn op_strategy(nodes: u8) -> impl Strategy<Value = Op> {
    prop_oneof![
        (
            0..nodes,
            1u32..200_000,
            prop::collection::vec(0..nodes, 1..nodes as usize)
        )
            .prop_map(|(src, bytes, picks)| Op::Mcast { src, bytes, picks }),
        (0..nodes).prop_map(|src| Op::Cond { src }),
    ]
}

/// Deduplicated, order-preserving destination group for a mcast op.
fn group(picks: &[u8]) -> Vec<NodeId> {
    let mut seen = vec![false; 256];
    let mut out = Vec::new();
    for &p in picks {
        if !seen[p as usize] {
            seen[p as usize] = true;
            out.push(NodeId(p as usize));
        }
    }
    out
}

/// Execute `ops` on a fresh fabric of `kind`, with `dead` killed first,
/// and return the full delivery/completion log after the sim drains.
fn run_script(kind: FabricKind, nodes: usize, dead: &[u8], ops: &[Op]) -> Log {
    let mut fab = build_fabric::<Log>(kind, model_for(kind), nodes);
    let mut sim: Sim<Log> = Sim::new();
    for &d in dead {
        fab.kill_node(NodeId(d as usize));
    }
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Mcast { src, bytes, picks } => {
                let dests = group(picks);
                let per_dest = Rc::new(move |w: &mut Log, s: &mut Sim<Log>, d: NodeId| {
                    w.deliveries.push((i, s.now().0, d.0));
                });
                fab.multicast(
                    &mut sim,
                    NodeId(*src as usize),
                    &dests,
                    *bytes as u64,
                    Some(per_dest),
                    move |w, s| w.completions.push((i, s.now().0)),
                );
            }
            Op::Cond { src } => {
                fab.conditional(&mut sim, NodeId(*src as usize), nodes, move |w, s| {
                    w.completions.push((i, s.now().0))
                });
            }
        }
    }
    let mut log = Log::default();
    sim.run(&mut log);
    log
}

/// The `(op, dest)` delivery set, sorted — the payload-placement contract.
fn placement(log: &Log) -> Vec<(usize, usize)> {
    let mut v: Vec<(usize, usize)> = log.deliveries.iter().map(|&(op, _, d)| (op, d)).collect();
    v.sort_unstable();
    v
}

proplite! {
    #![config(cases = 48)]

    /// Software-emulated multicast reaches exactly the destinations the
    /// hardware multicast reaches: the same (op, dest) placement set, with
    /// every live group member covered and no duplicate deliveries.
    #[test]
    fn emulation_delivers_the_same_payload_set(
        nodes in 2usize..48,
        ops in prop::collection::vec(op_strategy(48), 1..12)
    ) {
        let ops: Vec<Op> = ops.into_iter().map(|op| clamp(op, nodes)).collect();
        let hw = run_script(FabricKind::QsNet, nodes, &[], &ops);
        let sw = run_script(FabricKind::Rdma, nodes, &[], &ops);
        let hw_place = placement(&hw);
        prop_assert_eq!(&hw_place, &placement(&sw));
        // Cross-check against the script itself: every mcast op delivers
        // to its whole deduplicated group exactly once.
        let mut want: Vec<(usize, usize)> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            if let Op::Mcast { picks, .. } = op {
                for d in group(picks) {
                    want.push((i, d.0));
                }
            }
        }
        want.sort_unstable();
        prop_assert_eq!(hw_place, want);
        // Both fabrics complete every operation exactly once.
        prop_assert_eq!(hw.completions.len(), ops.len());
        prop_assert_eq!(sw.completions.len(), ops.len());
    }

    /// Dead destinations are skipped identically by the hardware and the
    /// software tree: killing nodes removes exactly their deliveries.
    #[test]
    fn dead_nodes_are_skipped_identically(
        nodes in 4usize..32,
        dead in prop::collection::vec(0u8..32, 0..4),
        ops in prop::collection::vec(op_strategy(32), 1..8)
    ) {
        let ops: Vec<Op> = ops.into_iter().map(|op| clamp(op, nodes)).collect();
        let dead: Vec<u8> = dead.into_iter().filter(|&d| (d as usize) < nodes).collect();
        let hw = run_script(FabricKind::QsNet, nodes, &dead, &ops);
        let sw = run_script(FabricKind::Rdma, nodes, &dead, &ops);
        prop_assert_eq!(placement(&hw), placement(&sw));
        for &(_, _, d) in &sw.deliveries {
            prop_assert!(!dead.contains(&(d as u8)), "delivery to dead node {d}");
        }
    }

    /// The emulated collectives complete in a deterministic order: the
    /// same script replays to the bit-identical delivery and completion
    /// log — times, destinations and sequence.
    #[test]
    fn emulated_completion_order_replays_identically(
        nodes in 2usize..40,
        ops in prop::collection::vec(op_strategy(40), 1..15)
    ) {
        let ops: Vec<Op> = ops.into_iter().map(|op| clamp(op, nodes)).collect();
        let a = run_script(FabricKind::Rdma, nodes, &[], &ops);
        let b = run_script(FabricKind::Rdma, nodes, &[], &ops);
        prop_assert_eq!(a.deliveries, b.deliveries);
        prop_assert_eq!(a.completions, b.completions);
    }

    /// The software tree delivers each stage's destinations from one event
    /// (`qsnet::fabric::schedule_deliveries`) without changing what one
    /// event per destination did: over random destination orders with dead
    /// nodes and the source's own loopback, the `(instant, destination)`
    /// hook calls equal the per-destination reference in the same order,
    /// and the call schedules one event per distinct instant plus
    /// completion.
    #[test]
    fn staged_deliveries_match_one_event_per_destination(
        nodes in 2usize..40,
        src in 0usize..40,
        order in prop::collection::vec(0u8..255, 40..41),
        take in 1usize..41,
        dead in prop::collection::vec(0usize..40, 0..3),
        bytes in prop_oneof![Just(64u64), 65u64..200_000]
    ) {
        type HookLog = Vec<(u64, usize)>;
        let src = NodeId(src % nodes);
        let mut dests: Vec<NodeId> = (0..nodes).map(NodeId).collect();
        dests.sort_by_key(|d| order[d.0]);
        dests.truncate(take.min(nodes));
        let mut fab = build_fabric::<HookLog>(FabricKind::Rdma, NetModel::infiniband(), nodes);
        for &d in &dead {
            fab.kill_node(NodeId(d % nodes));
        }
        let hook: DeliverFn<HookLog> =
            Rc::new(|log: &mut HookLog, sim: &mut Sim<HookLog>, d: NodeId| {
                log.push((sim.now().0, d.0));
            });
        let mut sim: Sim<HookLog> = Sim::new();
        fab.multicast(&mut sim, src, &dests, bytes, Some(Rc::clone(&hook)), |_, _| {});
        let scheduled = sim.pending();
        let mut log = HookLog::new();
        sim.run(&mut log);

        let live: Vec<NodeId> = dests
            .iter()
            .copied()
            .filter(|&d| !fab.is_dead(d) && !fab.is_dead(src))
            .collect();
        prop_assert_eq!(log.len(), live.len());
        // The reference this replaced: one event per live destination,
        // scheduled in `dests` order at the instant its hook observed.
        let mut ref_sim: Sim<HookLog> = Sim::new();
        let mut instants = Vec::new();
        for &d in &live {
            let at = log.iter().find(|&&(_, who)| who == d.0).expect("live destination reached").0;
            instants.push(at);
            let hook = Rc::clone(&hook);
            ref_sim.schedule_at(SimTime(at), move |log, sim| hook(log, sim, d));
        }
        let mut reference = HookLog::new();
        ref_sim.run(&mut reference);
        prop_assert_eq!(log, reference);
        instants.sort_unstable();
        instants.dedup();
        prop_assert_eq!(scheduled, instants.len() + 1);
    }

    /// Multicasts are totally ordered on both fabrics: two multicasts from
    /// different sources to overlapping groups arrive at every shared
    /// destination in the same relative order everywhere.
    #[test]
    fn overlapping_multicasts_agree_on_order_at_every_destination(
        nodes in 3usize..32,
        src_a in 0usize..32,
        src_b in 0usize..32,
        bytes in 1u32..100_000
    ) {
        let (src_a, src_b) = (src_a % nodes, src_b % nodes);
        let all: Vec<u8> = (0..nodes as u8).collect();
        let ops = vec![
            Op::Mcast { src: src_a as u8, bytes, picks: all.clone() },
            Op::Mcast { src: src_b as u8, bytes, picks: all },
        ];
        for kind in [FabricKind::QsNet, FabricKind::Rdma] {
            let log = run_script(kind, nodes, &[], &ops);
            // Per destination, sort its deliveries by time; the op order
            // must be (0, 1) at every destination (issue order — the
            // serializer's total order). Source loopback is exempt on both
            // fabrics: a node's own copy lands at local-memory speed, ahead
            // of anything still crossing the wire.
            for d in (0..nodes).filter(|&d| d != src_a && d != src_b) {
                let mut at: Vec<(u64, usize)> = log
                    .deliveries
                    .iter()
                    .filter(|&&(_, _, dest)| dest == d)
                    .map(|&(op, t, _)| (t, op))
                    .collect();
                at.sort_unstable();
                let order: Vec<usize> = at.iter().map(|&(_, op)| op).collect();
                prop_assert_eq!(order, vec![0, 1], "dest {d} saw reordered multicasts");
            }
        }
    }
}

/// Clamp an op's node references into `0..nodes`.
fn clamp(op: Op, nodes: usize) -> Op {
    match op {
        Op::Mcast { src, bytes, picks } => Op::Mcast {
            src: src % nodes as u8,
            bytes,
            picks: picks.into_iter().map(|p| p % nodes as u8).collect(),
        },
        Op::Cond { src } => Op::Cond { src: src % nodes as u8 },
    }
}
