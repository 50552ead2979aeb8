//! Property tests of the fabric timing model: causality, bandwidth
//! conservation, FIFO ordering and determinism over randomized operation
//! sequences.

use proplite::prelude::*;
use qsnet::fabric::{CTRL_BYTES, DeliverFn, schedule_deliveries};
use qsnet::{Fabric, NetModel, NodeId, NodeSet, QsNetFabric, Reached, Runs};
use simcore::{Sim, SimDuration, SimTime};
use std::rc::Rc;

#[derive(Clone, Debug)]
enum Op {
    Put { src: u8, dst: u8, bytes: u32 },
    Get { req: u8, tgt: u8, bytes: u32 },
    Mcast { src: u8, bytes: u32 },
    Cond { src: u8 },
    Wait { us: u16 },
}

fn op_strategy(nodes: u8) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..nodes, 0..nodes, 1u32..2_000_000).prop_map(|(s, d, b)| Op::Put {
            src: s,
            dst: d,
            bytes: b
        }),
        (0..nodes, 0..nodes, 1u32..500_000).prop_map(|(r, t, b)| Op::Get {
            req: r,
            tgt: t,
            bytes: b
        }),
        (0..nodes, 1u32..100_000).prop_map(|(s, b)| Op::Mcast { src: s, bytes: b }),
        (0..nodes).prop_map(|s| Op::Cond { src: s }),
        (1u16..500).prop_map(|us| Op::Wait { us }),
    ]
}

/// The QsNet fabric as the engines hold it.
fn qsnet<W: 'static>(model: NetModel, nodes: usize) -> Box<dyn Fabric<W>> {
    Box::new(QsNetFabric::new(model, nodes))
}

/// Execute a script on a healthy fabric, returning every operation's
/// completion time.
fn run_script(model: NetModel, nodes: usize, ops: &[Op]) -> Vec<u64> {
    run_script_faulted(model, nodes, ops, &[], &[], false).0
}

/// Execute a script under a drop plan and with fail-stopped nodes, its
/// puts going through `put` (a counting completion) or, with `issue_only`,
/// through the issue half alone. Returns every operation's completion
/// time, how many puts landed, and the fabric's final port state: clocks,
/// every counter, `bulk_seq`.
fn run_script_faulted(
    model: NetModel,
    nodes: usize,
    ops: &[Op],
    drops: &[u64],
    dead: &[u8],
    issue_only: bool,
) -> (Vec<u64>, u64, String) {
    let mut fab: Box<dyn Fabric<u64>> = qsnet(model, nodes);
    fab.net_mut().plan_drops(drops.to_vec());
    for &d in dead {
        fab.net_mut().kill_node(NodeId(d as usize));
    }
    let mut sim: Sim<u64> = Sim::new();
    let mut landed = 0u64;
    let mut completions = Vec::new();
    let all: Vec<NodeId> = (0..nodes).map(NodeId).collect();
    let mut virtual_now = SimTime::ZERO;
    for op in ops {
        // Advance the sim to `virtual_now` by draining due events.
        sim.schedule_at(virtual_now, |_, _| {});
        while sim.now() < virtual_now && sim.step(&mut landed) {}
        let t = match *op {
            Op::Put { src, dst, bytes } => {
                let (src, dst, bytes) = (NodeId(src as usize), NodeId(dst as usize), bytes as u64);
                if issue_only {
                    let (at, lands) = fab.issue_put(sim.now(), src, dst, bytes);
                    landed += lands as u64;
                    at
                } else {
                    fab.put(&mut sim, src, dst, bytes, |landed, _| *landed += 1)
                }
            }
            Op::Get { req, tgt, bytes } => fab.get(
                &mut sim,
                NodeId(req as usize),
                NodeId(tgt as usize),
                bytes as u64,
                |_, _| {},
            ),
            Op::Mcast { src, bytes } => fab.multicast(
                &mut sim,
                NodeId(src as usize),
                &all,
                bytes as u64,
                None,
                |_, _| {},
            ),
            Op::Cond { src } => fab.conditional(&mut sim, NodeId(src as usize), nodes, |_, _| {}),
            Op::Wait { us } => {
                virtual_now = virtual_now + SimDuration::micros(us as u64);
                continue;
            }
        };
        completions.push(t.as_nanos());
    }
    sim.run(&mut landed);
    let puts = ops.iter().filter(|op| matches!(op, Op::Put { .. })).count() as u64;
    assert_eq!(fab.net().stats().puts, puts);
    (completions, landed, format!("{:?}", fab.net_mut().snapshot()))
}

/// `(instant, destination)` per destination a hook call was handed, runs
/// flattened in order; a destination's same-instant follow-up event logs it
/// + [`FOLLOW_UP`].
type HookLog = Vec<(u64, usize)>;
const FOLLOW_UP: usize = 1000;

/// A delivery hook that logs every destination it reaches, and (with
/// `follow`) schedules an event per destination for the same instant — the
/// way a microstrobe's hook starts NIC work.
fn logging_hook(follow: bool) -> DeliverFn<HookLog> {
    Rc::new(move |log: &mut HookLog, sim: &mut Sim<HookLog>, reached: Reached<'_>| {
        for d in reached.nodes() {
            log.push((sim.now().0, d.0));
            if follow {
                sim.schedule_now(move |log: &mut HookLog, sim| log.push((sim.now().0, d.0 + FOLLOW_UP)));
            }
        }
    })
}

/// The reference the per-instant hook is held to: one event per
/// destination, scheduled in `dests` order, each handing the hook that one
/// destination.
fn one_event_per_destination(
    sim: &mut Sim<HookLog>,
    hook: &DeliverFn<HookLog>,
    deliveries: &[(SimTime, NodeId)],
) {
    for &(at, d) in deliveries {
        let hook = Rc::clone(hook);
        sim.schedule_at(at, move |log, sim| hook(log, sim, Reached::one(&d)));
    }
}

/// The QsNet multicast rule as it was written before its deliveries were
/// run-encoded, kept as the reference: every destination's instant, in
/// `dests` order, reserved against `fab`'s clocks exactly as it reserved.
fn per_destination_rule<W: 'static>(
    fab: &mut Box<dyn Fabric<W>>,
    now: SimTime,
    src: NodeId,
    dests: &[NodeId],
    bytes: u64,
) -> Vec<(SimTime, NodeId)> {
    let m = *fab.net().model();
    let (tx, nic_op) = (m.mcast_tx_time(bytes), m.nic_op);
    let latency = m.mcast_latency(dests.len(), fab.net().topology().levels());
    let ports = fab.net_mut().ports_mut();
    let ctrl = bytes <= CTRL_BYTES;
    let start = if ctrl {
        now.max(ports.order_free)
    } else {
        let s = now.max(ports.tx_free[src.0]).max(ports.order_free);
        ports.tx_free[src.0] = s + tx;
        s
    };
    ports.order_free = start + tx;
    let first_bit = start + latency;
    let mut deliveries = Vec::new();
    for &d in dests {
        let at = if d == src {
            start + nic_op
        } else if ctrl {
            first_bit + tx
        } else {
            let at = first_bit.max(ports.rx_free[d.0]) + tx;
            ports.rx_free[d.0] = at;
            at
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

fn distinct_instants(deliveries: &[(SimTime, NodeId)]) -> usize {
    let mut instants: Vec<SimTime> = deliveries.iter().map(|&(at, _)| at).collect();
    instants.sort_unstable();
    instants.dedup();
    instants.len()
}

proplite! {
    #![config(cases = 64)]

    /// Any list of deliveries — ties in any position, other events queued
    /// for the same instants before and after — run-length encoded over
    /// its destinations hands the hook, one call and one event per distinct
    /// instant, runs that flattened are the hook calls of one event per
    /// destination, in the same order.
    #[test]
    fn batched_deliveries_match_one_event_per_destination(
        deliveries in prop::collection::vec((0u64..6, 0usize..32), 0..40),
        follow in any::<bool>()
    ) {
        let deliveries: Vec<(SimTime, NodeId)> =
            deliveries.into_iter().map(|(t, d)| (SimTime(t * 100), NodeId(d))).collect();
        let run = |batched: bool| {
            let mut sim: Sim<HookLog> = Sim::new();
            let hook = logging_hook(follow);
            let foreign = |sim: &mut Sim<HookLog>, tag: usize| {
                for t in 0..6 {
                    sim.schedule_at(SimTime(t * 100), move |log: &mut HookLog, _| log.push((t * 100, tag)));
                }
            };
            foreign(&mut sim, 2000);
            if batched {
                let dests = NodeSet::new(deliveries.iter().map(|&(_, d)| d).collect());
                let mut runs = Runs::default();
                for (i, &(at, _)) in deliveries.iter().enumerate() {
                    runs.push(at, i + 1);
                }
                schedule_deliveries(&mut sim, Rc::clone(&hook), dests, runs);
            } else {
                one_event_per_destination(&mut sim, &hook, &deliveries);
            }
            foreign(&mut sim, 3000);
            let mut log = HookLog::new();
            sim.run(&mut log);
            (log, sim.events_executed())
        };
        let (batched, events) = run(true);
        let (reference, _) = run(false);
        prop_assert_eq!(batched, reference);
        let follow_ups = if follow { deliveries.len() } else { 0 };
        prop_assert_eq!(events as usize, 12 + distinct_instants(&deliveries) + follow_ups);
    }

    /// A multicast over a random destination order with dead nodes, a drop
    /// plan that loses some of the earlier puts, the source's own loopback
    /// and receive ports busy with those puts: the hook's slices flattened
    /// are what one event per destination would run, no slice holds a dead
    /// destination, and the call schedules one event per distinct delivery
    /// instant plus completion.
    #[test]
    fn multicast_hooks_keep_per_destination_order(
        nodes in 2usize..12,
        src in 0usize..12,
        order in prop::collection::vec(0u8..255, 12..13),
        take in 1usize..13,
        faults in (prop::collection::vec(0usize..12, 0..3), prop::collection::vec(0u64..6, 0..4)),
        warm in prop::collection::vec((0usize..12, 1u32..400_000), 0..6),
        bytes in prop_oneof![Just(64u64), 65u64..200_000],
        follow in any::<bool>()
    ) {
        let src = NodeId(src % nodes);
        let mut dests: Vec<NodeId> = (0..nodes).map(NodeId).collect();
        dests.sort_by_key(|d| order[d.0]);
        dests.truncate(take.min(nodes));
        let (dead, drops) = faults;
        let mut fab = qsnet(NetModel::qsnet(), nodes);
        fab.net_mut().plan_drops(drops);
        let mut sim: Sim<HookLog> = Sim::new();
        for &(d, b) in &warm {
            // Distinct receive-port clocks make bulk deliveries land apart.
            let d = NodeId(d % nodes);
            let from = NodeId((d.0 + 1) % nodes);
            if from != src {
                fab.put(&mut sim, from, d, b as u64, |_, _| {});
            }
        }
        for &d in &dead {
            fab.net_mut().kill_node(NodeId(d % nodes));
        }
        let pending = sim.pending();
        let hook = logging_hook(follow);
        fab.multicast(&mut sim, src, &dests, bytes, Some(Rc::clone(&hook)), |_, _| {});
        let scheduled = sim.pending() - pending;
        let mut log = HookLog::new();
        sim.run(&mut log);

        // Every live destination exactly once, a dead one in no slice
        // (nothing at all if the source died).
        let live: Vec<NodeId> = dests
            .iter()
            .copied()
            .filter(|&d| !fab.net().is_dead(d) && !fab.net().is_dead(src))
            .collect();
        let mut reached: Vec<usize> =
            log.iter().map(|&(_, d)| d).filter(|&d| d < FOLLOW_UP).collect();
        reached.sort_unstable();
        let mut want: Vec<usize> = live.iter().map(|d| d.0).collect();
        want.sort_unstable();
        prop_assert_eq!(reached, want);

        // Replay the observed instants as one event per destination.
        let deliveries: Vec<(SimTime, NodeId)> = live
            .iter()
            .map(|&d| {
                let at = log.iter().find(|&&(_, who)| who == d.0).expect("reached").0;
                (SimTime(at), d)
            })
            .collect();
        let mut ref_sim: Sim<HookLog> = Sim::new();
        one_event_per_destination(&mut ref_sim, &hook, &deliveries);
        let mut reference = HookLog::new();
        ref_sim.run(&mut reference);
        prop_assert_eq!(log, reference);
        prop_assert_eq!(scheduled, distinct_instants(&deliveries) + 1);
    }

    /// Run-encoded deliveries are the per-destination rule's: a few
    /// multicasts over random destination orders (the source inside them
    /// or not), control and bulk sizes, after puts that leave the receive
    /// clocks apart, under a drop plan and with dead nodes, against a twin
    /// fabric that runs the per-destination rule and one event per live
    /// destination. The hook log is the same in the same order, each
    /// multicast schedules one event per distinct live instant plus its
    /// completion, and the two fabrics end with the same clocks, dead skips
    /// and `bulk_seq`.
    #[test]
    fn run_encoded_multicasts_equal_the_per_destination_rule(
        nodes in 2usize..24,
        casts in prop::collection::vec(
            (0usize..24, prop::collection::vec(0u8..255, 24..25), 1usize..25, prop_oneof![1u64..65, 65u64..200_000]),
            1..4
        ),
        faults in (prop::collection::vec(0usize..24, 0..3), prop::collection::vec(0u64..6, 0..4)),
        warm in prop::collection::vec((0usize..24, 1u32..400_000), 0..6),
        follow in any::<bool>()
    ) {
        let (dead, drops) = faults;
        let mut fab = qsnet::<HookLog>(NetModel::qsnet(), nodes);
        let mut twin = qsnet::<HookLog>(NetModel::qsnet(), nodes);
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
        let hook = logging_hook(follow);
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
            prop_assert_eq!(sim.pending() - pending, distinct_instants(&live) + 1);
            one_event_per_destination(&mut ref_sim, &hook, &live);
        }
        let (mut log, mut reference) = (HookLog::new(), HookLog::new());
        sim.run(&mut log);
        ref_sim.run(&mut reference);
        prop_assert_eq!(log, reference);
        prop_assert_eq!(fab.net().stats().dead_skips, want_skips);
        prop_assert_eq!(clocks(&mut fab), clocks(&mut twin));
        prop_assert_eq!(fab.net().bulk_seq(), twin.net().bulk_seq());
    }

    #[test]
    fn causality_and_bandwidth_bounds(
        ops in prop::collection::vec(op_strategy(8), 1..40)
    ) {
        let model = NetModel::qsnet();
        let bw = model.link_bw;
        let times = run_script(model, 8, &ops);
        let mut issued = 0u64;
        let mut i = 0usize;
        for op in &ops {
            match *op {
                Op::Wait { us } => {
                    issued += us as u64 * 1000;
                    continue;
                }
                _ => {
                    let t = times[i];
                    i += 1;
                    // Causality: completion strictly after issue.
                    prop_assert!(t > issued, "completion {t} <= issue {issued}");
                    // Bandwidth bound: a transfer cannot beat the wire.
                    let min_ns = match *op {
                        Op::Put { src, dst, bytes } if src != dst =>
                            (bytes as f64 * 1e9 / bw) as u64,
                        Op::Get { req, tgt, bytes } if req != tgt =>
                            (bytes as f64 * 1e9 / bw) as u64,
                        _ => 0,
                    };
                    prop_assert!(
                        t - issued >= min_ns,
                        "transfer finished faster than the wire allows"
                    );
                }
            }
        }
    }

    /// Eliding a put's completion event must not elide its accounting:
    /// the issue half alone reserves, counts (`puts`, `put_bytes`, `drops`,
    /// `dead_skips`) and consumes `bulk_seq` coordinates exactly as `put`
    /// does, promises the same instants, and reports as landing exactly
    /// the puts whose completion `put` runs — under a drop plan, with dead
    /// endpoints, between gets, multicasts and conditionals.
    #[test]
    fn issue_half_accounts_what_put_accounts(
        ops in prop::collection::vec(op_strategy(8), 1..40),
        drops in prop::collection::vec(0u64..40, 0..8),
        dead in prop::collection::vec(0u8..8, 0..3),
    ) {
        let run = |issue_only| run_script_faulted(NetModel::qsnet(), 8, &ops, &drops, &dead, issue_only);
        prop_assert_eq!(run(false), run(true));
    }

    #[test]
    fn same_script_replays_identically(
        ops in prop::collection::vec(op_strategy(6), 1..30)
    ) {
        let a = run_script(NetModel::qsnet(), 6, &ops);
        let b = run_script(NetModel::qsnet(), 6, &ops);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn per_pair_puts_are_fifo(
        sizes in prop::collection::vec(1u32..500_000, 2..20)
    ) {
        // Repeated puts between one pair must complete in issue order.
        let mut fab = qsnet(NetModel::qsnet(), 4);
        let mut sim: Sim<()> = Sim::new();
        let mut times = Vec::new();
        for &b in &sizes {
            times.push(fab.put(&mut sim, NodeId(0), NodeId(1), b as u64, |_, _| {}));
        }
        for w in times.windows(2) {
            prop_assert!(w[0] < w[1], "puts completed out of order");
        }
    }

    #[test]
    fn conditional_latency_independent_of_history(
        warm in prop::collection::vec(1u32..100_000, 0..10)
    ) {
        // Control traffic rides the priority channel: a conditional's
        // latency must not depend on prior bulk transfers.
        let model = NetModel::qsnet();
        let mut fab = qsnet(model, 8);
        let mut sim: Sim<()> = Sim::new();
        for &b in &warm {
            fab.put(&mut sim, NodeId(1), NodeId(2), b as u64, |_, _| {});
        }
        let t = fab.conditional(&mut sim, NodeId(0), 8, |_, _| {});
        let levels = fab.net().topology().levels();
        prop_assert_eq!(
            t.as_nanos(),
            model.cond_latency(8, levels).as_nanos()
        );
    }
}
