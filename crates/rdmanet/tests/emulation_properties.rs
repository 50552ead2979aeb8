//! Property tests of the software-emulated BCS primitives: the RDMA
//! fabric's binomial-tree multicast and gather-to-root conditional must be
//! *functionally* equivalent to QsNet's hardware primitives — the same
//! payload set delivered to the same destinations, completions in a
//! deterministic order — across random topologies, group sizes and
//! operation scripts. Timing legitimately differs (that difference is the
//! point of the fabric-matrix experiment); delivery semantics must not —
//! and neither may anything `qsnet::fabric::Net` keeps for both: which
//! transfers a fault plan loses, the counters, snapshot sharing, restore.

use proplite::prelude::*;
use qsnet::fabric::{CTRL_BYTES, DeliverFn};
use qsnet::model::log2_ceil;
use qsnet::{Degradation, Fabric, FabricKind, McastImpl, NetModel, NodeId, Reached};
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
    Put { src: u8, dst: u8, bytes: u32 },
    Get { req: u8, tgt: u8, bytes: u32 },
    /// Multicast `bytes` from `src` to the group selected by `picks`.
    Mcast { src: u8, bytes: u32, picks: Vec<u8> },
    /// Global conditional rooted at `src` over the first `span` nodes.
    Cond { src: u8 },
}

fn op_strategy(nodes: u8) -> impl Strategy<Value = Op> {
    // Control-sized transfers take no drop-plan coordinate; bulk ones do.
    let bytes = || prop_oneof![1u32..65, 65u32..200_000];
    prop_oneof![
        (0..nodes, 0..nodes, bytes()).prop_map(|(src, dst, bytes)| Op::Put { src, dst, bytes }),
        (0..nodes, 0..nodes, bytes()).prop_map(|(req, tgt, bytes)| Op::Get { req, tgt, bytes }),
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

type Fab = Box<dyn Fabric<Log>>;

/// Issue op `i` of a script at the sim's current instant, logging its
/// deliveries and completion under `i`; returns the completion instant.
fn issue(fab: &mut Fab, sim: &mut Sim<Log>, nodes: usize, i: usize, op: &Op) -> SimTime {
    let node = |n: &u8| NodeId(*n as usize);
    let done = move |w: &mut Log, s: &mut Sim<Log>| w.completions.push((i, s.now().0));
    match op {
        Op::Put { src, dst, bytes } => fab.put(sim, node(src), node(dst), *bytes as u64, done),
        Op::Get { req, tgt, bytes } => fab.get(sim, node(req), node(tgt), *bytes as u64, done),
        Op::Mcast { src, bytes, picks } => {
            let per_dest = Rc::new(move |w: &mut Log, s: &mut Sim<Log>, reached: Reached<'_>| {
                w.deliveries.extend(reached.nodes().map(|d| (i, s.now().0, d.0)));
            });
            fab.multicast(sim, node(src), &group(picks), *bytes as u64, Some(per_dest), done)
        }
        Op::Cond { src } => fab.conditional(sim, node(src), nodes, done),
    }
}

/// Execute `ops` on a fresh fabric of `kind`, with `dead` killed first,
/// and return the full delivery/completion log after the sim drains.
fn run_script(kind: FabricKind, nodes: usize, dead: &[u8], ops: &[Op]) -> Log {
    let mut fab = build_fabric::<Log>(kind, model_for(kind), nodes);
    let mut sim: Sim<Log> = Sim::new();
    for &d in dead {
        fab.net_mut().kill_node(NodeId(d as usize));
    }
    for (i, op) in ops.iter().enumerate() {
        issue(&mut fab, &mut sim, nodes, i, op);
    }
    let mut log = Log::default();
    sim.run(&mut log);
    log
}

/// What a fault plan injects — before a script, and again after a restore,
/// which forgets all of it.
#[derive(Clone, Debug)]
struct Faults {
    dead: Vec<u8>,
    drops: Vec<u64>,
    /// `(node, from µs, length µs, factor)` degradation windows.
    windows: Vec<(u8, u64, u64, u32)>,
}

fn inject(fab: &mut Fab, faults: &Faults) {
    let net = fab.net_mut();
    for &d in &faults.dead {
        net.kill_node(NodeId(d as usize));
    }
    net.plan_drops(faults.drops.clone());
    for &(node, from, len, factor) in &faults.windows {
        net.degrade_link(Degradation {
            node: NodeId(node as usize),
            from: SimTime(from * 1_000),
            to: SimTime((from + len) * 1_000),
            factor,
        });
    }
}

/// Op `i` of a spaced script is issued at `i * GAP_NS`, so transfers overlap
/// and degradation windows open and close between them.
const GAP_NS: u64 = 20_000;

/// Issue `ops[range]` on their spaced instants, running the sim up to each.
/// Returns the completion instants the fabric promised.
fn run_spaced(
    fab: &mut Fab,
    sim: &mut Sim<Log>,
    log: &mut Log,
    nodes: usize,
    ops: &[Op],
    range: std::ops::Range<usize>,
) -> Vec<u64> {
    let mut promised = Vec::new();
    for i in range {
        let at = SimTime(i as u64 * GAP_NS);
        sim.schedule_at(at, |_, _| {});
        while sim.now() < at && sim.step(log) {}
        promised.push(issue(fab, sim, nodes, i, &ops[i]).0);
    }
    promised
}

/// The software-tree multicast rule as it was written before its deliveries
/// were run-encoded, kept as the reference: every destination's instant, in
/// `dests` order, reserved against `fab`'s clocks exactly as it reserved.
fn per_destination_rule<W: 'static>(
    fab: &mut Box<dyn Fabric<W>>,
    now: SimTime,
    src: NodeId,
    dests: &[NodeId],
    bytes: u64,
) -> Vec<(SimTime, NodeId)> {
    let m = *fab.net().model();
    let stage = match m.mcast {
        McastImpl::SoftwareTree { stage, .. } => stage,
        McastImpl::Hardware { .. } => m.base_latency + m.nic_op,
    };
    let stage_cost = stage + m.mcast_tx_time(bytes);
    let (tx, ctrl) = (m.mcast_tx_time(bytes), bytes <= CTRL_BYTES);
    let ports = fab.net_mut().ports_mut();
    let start = now.max(ports.order_free).max(ports.tx_free[src.0]);
    ports.tx_free[src.0] = start + tx;
    ports.order_free = start + stage_cost;
    let mut relay = 0;
    let mut deliveries = Vec::new();
    for &d in dests {
        let at = if d == src {
            start + m.nic_op
        } else {
            let depth = log2_ceil(relay + 2) as u64;
            relay += 1;
            let base = start + m.base_latency + stage_cost * depth;
            if ctrl {
                base
            } else {
                let at = (base - tx).max(ports.rx_free[d.0]) + tx;
                ports.rx_free[d.0] = at;
                at
            }
        };
        deliveries.push((at, d));
    }
    deliveries
}

/// The clocks of `fab`'s port state.
fn clocks<W: 'static>(fab: &mut Box<dyn Fabric<W>>) -> (Vec<SimTime>, Vec<SimTime>, SimTime) {
    let ports = fab.net_mut().ports_mut();
    (ports.tx_free.clone(), ports.rx_free.clone(), ports.order_free)
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

    /// The contract `Net` states once, under both sets of timing rules: one
    /// script with one fault plan loses the same operations on both kinds
    /// and counts the same drops and dead skips; an unchanged fabric's
    /// snapshots are one allocation; and snapshot → suffix → restore →
    /// suffix again is bit-identical on each kind, clocks included.
    #[test]
    fn one_fault_plan_means_the_same_on_both_kinds(
        nodes in 2usize..24,
        ops in prop::collection::vec(op_strategy(24), 2..24),
        split in 0usize..24,
        dead in prop::collection::vec(0u8..24, 0..3),
        drops in prop::collection::vec(0u64..16, 0..6),
        windows in prop::collection::vec((0u8..24, 0u64..400, 1u64..400, 2u32..9), 0..3)
    ) {
        let ops: Vec<Op> = ops.into_iter().map(|op| clamp(op, nodes)).collect();
        let split = split % ops.len();
        let faults = Faults {
            dead: dead.into_iter().map(|d| d % nodes as u8).collect(),
            drops,
            windows: windows.into_iter().map(|(n, f, l, x)| (n % nodes as u8, f, l, x)).collect(),
        };
        let suffix_of = |log: &Log| {
            let d: Vec<_> = log.deliveries.iter().copied().filter(|e| e.0 >= split).collect();
            let c: Vec<_> = log.completions.iter().copied().filter(|e| e.0 >= split).collect();
            (d, c)
        };
        let mut per_kind = Vec::new();
        for kind in [FabricKind::QsNet, FabricKind::Rdma] {
            let mut fab = build_fabric::<Log>(kind, model_for(kind), nodes);
            inject(&mut fab, &faults);
            let (mut sim, mut log) = (Sim::new(), Log::default());
            run_spaced(&mut fab, &mut sim, &mut log, nodes, &ops, 0..split);

            // Nothing a snapshot holds has changed: not by a second
            // capture, not by fault injection.
            let snap = fab.net_mut().snapshot();
            fab.net_mut().plan_drops(faults.drops.clone());
            prop_assert!(snap.ptr_eq(&fab.net_mut().snapshot()));

            let first = run_spaced(&mut fab, &mut sim, &mut log, nodes, &ops, split..ops.len());
            sim.run(&mut log);
            let first_end = format!("{:?}", fab.net_mut().snapshot());
            prop_assert!(!snap.ptr_eq(&fab.net_mut().snapshot()), "the suffix moved the clocks");

            fab.net_mut().restore(&snap);
            prop_assert!(snap.ptr_eq(&fab.net_mut().snapshot()));
            prop_assert!(faults.dead.iter().all(|&d| !fab.net().is_dead(NodeId(d as usize))));
            inject(&mut fab, &faults);
            let (mut sim2, mut log2) = (Sim::new(), Log::default());
            let again = run_spaced(&mut fab, &mut sim2, &mut log2, nodes, &ops, split..ops.len());
            sim2.run(&mut log2);
            prop_assert_eq!(&first, &again, "{:?}: promised instants moved", kind);
            prop_assert_eq!(suffix_of(&log), (log2.deliveries, log2.completions));
            prop_assert_eq!(first_end, format!("{:?}", fab.net_mut().snapshot()));

            let mut lost: Vec<usize> = (0..ops.len()).collect();
            lost.retain(|i| !log.completions.iter().any(|&(op, _)| op == *i));
            let stats = *fab.net().stats();
            per_kind.push((lost, placement(&log), stats.drops, stats.dead_skips, fab.net().bulk_seq()));
        }
        prop_assert_eq!(&per_kind[0], &per_kind[1]);
    }

    /// The software tree hands each stage's destinations to the hook as one
    /// run from one event (`qsnet::fabric::schedule_deliveries`) without
    /// changing what one event per destination did: over random destination
    /// orders with dead nodes, a drop plan and the source's own loopback,
    /// the slices flattened to `(instant, destination)` equal the
    /// per-destination reference in the same order, a dead destination is
    /// in no slice, and the call schedules one event per distinct instant
    /// plus completion.
    #[test]
    fn staged_deliveries_match_one_event_per_destination(
        nodes in 2usize..40,
        src in 0usize..40,
        order in prop::collection::vec(0u8..255, 40..41),
        take in 1usize..41,
        dead in prop::collection::vec(0usize..40, 0..3),
        drops in prop::collection::vec(0u64..40, 0..4),
        bytes in prop_oneof![Just(64u64), 65u64..200_000]
    ) {
        type HookLog = Vec<(u64, usize)>;
        let src = NodeId(src % nodes);
        let mut dests: Vec<NodeId> = (0..nodes).map(NodeId).collect();
        dests.sort_by_key(|d| order[d.0]);
        dests.truncate(take.min(nodes));
        let mut fab = build_fabric::<HookLog>(FabricKind::Rdma, NetModel::infiniband(), nodes);
        fab.net_mut().plan_drops(drops);
        for &d in &dead {
            fab.net_mut().kill_node(NodeId(d % nodes));
        }
        let hook: DeliverFn<HookLog> =
            Rc::new(|log: &mut HookLog, sim: &mut Sim<HookLog>, reached: Reached<'_>| {
                log.extend(reached.nodes().map(|d| (sim.now().0, d.0)));
            });
        let mut sim: Sim<HookLog> = Sim::new();
        fab.multicast(&mut sim, src, &dests, bytes, Some(Rc::clone(&hook)), |_, _| {});
        let scheduled = sim.pending();
        let mut log = HookLog::new();
        sim.run(&mut log);

        let live: Vec<NodeId> = dests
            .iter()
            .copied()
            .filter(|&d| !fab.net().is_dead(d) && !fab.net().is_dead(src))
            .collect();
        prop_assert_eq!(log.len(), live.len());
        prop_assert!(log.iter().all(|&(_, d)| !fab.net().is_dead(NodeId(d))));
        // The reference: one event per live destination, scheduled in
        // `dests` order at the instant its hook observed, a slice of one.
        let mut ref_sim: Sim<HookLog> = Sim::new();
        let mut instants = Vec::new();
        for &d in &live {
            let at = log.iter().find(|&&(_, who)| who == d.0).expect("live destination reached").0;
            instants.push(at);
            let hook = Rc::clone(&hook);
            ref_sim.schedule_at(SimTime(at), move |log, sim| hook(log, sim, Reached::one(&d)));
        }
        let mut reference = HookLog::new();
        ref_sim.run(&mut reference);
        prop_assert_eq!(log, reference);
        instants.sort_unstable();
        instants.dedup();
        prop_assert_eq!(scheduled, instants.len() + 1);
    }

    /// Run-encoded software-tree deliveries are the per-destination rule's:
    /// a few multicasts over random destination orders (the source inside
    /// them or not), control and bulk sizes, after puts that leave the
    /// receive clocks apart, under a drop plan and with dead nodes, against
    /// a twin fabric that runs the per-destination rule and one event per
    /// live destination. The hook log is the same in the same order, each
    /// multicast schedules one event per distinct live instant plus its
    /// completion, and the two fabrics end with the same port state, dead
    /// skips and `bulk_seq`.
    #[test]
    fn run_encoded_multicasts_equal_the_per_destination_rule(
        nodes in 2usize..40,
        casts in prop::collection::vec(
            (0usize..40, prop::collection::vec(0u8..255, 40..41), 1usize..41, prop_oneof![1u64..65, 65u64..200_000]),
            1..4
        ),
        faults in (prop::collection::vec(0usize..40, 0..3), prop::collection::vec(0u64..6, 0..4)),
        warm in prop::collection::vec((0usize..40, 1u32..400_000), 0..6)
    ) {
        type HookLog = Vec<(u64, usize)>;
        let (dead, drops) = faults;
        let hook: DeliverFn<HookLog> =
            Rc::new(|log: &mut HookLog, sim: &mut Sim<HookLog>, reached: Reached<'_>| {
                log.extend(reached.nodes().map(|d| (sim.now().0, d.0)));
            });
        let mut fab = build_fabric::<HookLog>(FabricKind::Rdma, NetModel::infiniband(), nodes);
        let mut twin = build_fabric::<HookLog>(FabricKind::Rdma, NetModel::infiniband(), nodes);
        let (mut sim, mut ref_sim) = (Sim::new(), Sim::new());
        for (f, sim) in [(&mut fab, &mut sim), (&mut twin, &mut ref_sim)] {
            f.net_mut().plan_drops(drops.clone());
            for &(d, b) in &warm {
                let d = NodeId(d % nodes);
                f.put(sim, NodeId((d.0 + 1) % nodes), d, b as u64, |_, _| {});
            }
            for &d in &dead {
                f.net_mut().kill_node(NodeId(d % nodes));
            }
        }
        let mut want_skips = fab.net().stats().dead_skips;
        for (src, order, take, bytes) in &casts {
            let src = NodeId(src % nodes);
            let mut dests: Vec<NodeId> = (0..nodes).map(NodeId).collect();
            dests.sort_by_key(|d| order[d.0]);
            dests.truncate((*take).min(nodes));
            let pending = sim.pending();
            fab.multicast(&mut sim, src, &dests, *bytes, Some(Rc::clone(&hook)), |_, _| {});
            let mut live = per_destination_rule(&mut twin, ref_sim.now(), src, &dests, *bytes);
            let before = live.len();
            let net = twin.net();
            live.retain(|&(_, d)| !net.is_dead(d) && !net.is_dead(src));
            want_skips += (before - live.len()) as u64;
            let mut instants: Vec<SimTime> = live.iter().map(|&(at, _)| at).collect();
            instants.sort_unstable();
            instants.dedup();
            prop_assert_eq!(sim.pending() - pending, instants.len() + 1);
            for &(at, d) in &live {
                let hook = Rc::clone(&hook);
                ref_sim.schedule_at(at, move |log, sim| hook(log, sim, Reached::one(&d)));
            }
        }
        let (mut log, mut reference) = (HookLog::new(), HookLog::new());
        sim.run(&mut log);
        ref_sim.run(&mut reference);
        prop_assert_eq!(log, reference);
        prop_assert_eq!(fab.net().stats().dead_skips, want_skips);
        prop_assert_eq!(clocks(&mut fab), clocks(&mut twin));
        prop_assert_eq!(fab.net().bulk_seq(), twin.net().bulk_seq());
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
    let n = nodes as u8;
    match op {
        Op::Put { src, dst, bytes } => Op::Put { src: src % n, dst: dst % n, bytes },
        Op::Get { req, tgt, bytes } => Op::Get { req: req % n, tgt: tgt % n, bytes },
        Op::Mcast { src, bytes, picks } => Op::Mcast {
            src: src % nodes as u8,
            bytes,
            picks: picks.into_iter().map(|p| p % nodes as u8).collect(),
        },
        Op::Cond { src } => Op::Cond { src: src % nodes as u8 },
    }
}
