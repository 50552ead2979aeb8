//! The two broadcast executors, written once for both engines (DESIGN §14).
//!
//! An executor walks a wire schedule — the binomial tree or a round table
//! — and knows nothing else: what a transfer costs, what it carries beside
//! the payload and whether it can be retried is the engine's [`EdgePut`],
//! and what a node does once the payload is whole there is its
//! [`NodeHook`]. Each edge is one call of the engine's issue primitive,
//! statically dispatched, with the landing continuation passed by value.

use crate::coll_sched::{RoundSchedule, binomial_children, block_len};
use qsnet::NodeId;
use simcore::Sim;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Fires once per node, at the instant the whole payload is there.
pub type NodeHook<W> = Rc<dyn Fn(&mut W, &mut Sim<W>, NodeId)>;
/// Fires once per leg, after the last node's hook.
pub type DoneHook<W> = Box<dyn FnOnce(&mut W, &mut Sim<W>)>;

/// An engine's issue primitive for one edge of a broadcast leg: put `bytes`
/// of payload from `from` to `to` — plus whatever the engine sends beside a
/// payload (a descriptor, a header) — and run `landed` when they land.
pub trait EdgePut<W> {
    fn put(
        &self,
        w: &mut W,
        sim: &mut Sim<W>,
        from: NodeId,
        to: NodeId,
        bytes: u64,
        landed: impl Fn(&mut W, &mut Sim<W>) + 'static,
    );
}

fn fire<W>(done: &RefCell<Option<DoneHook<W>>>, w: &mut W, sim: &mut Sim<W>) {
    if let Some(f) = done.borrow_mut().take() {
        f(w, sim);
    }
}

/// Shared state of a binomial broadcast leg.
struct TreeRun<W, P> {
    put: P,
    order: Vec<NodeId>,
    bytes: u64,
    /// Positions the payload has not reached yet.
    remaining: Cell<usize>,
    on_node: NodeHook<W>,
    on_done: RefCell<Option<DoneHook<W>>>,
}

/// Binomial broadcast: `order[0]` holds `bytes`; every node forwards to its
/// subtree children (largest subtree first) the instant the payload lands.
/// `on_node` fires per node at its arrival instant, the root's now;
/// `on_done` once, at the last arrival.
pub fn binomial_bcast<W: 'static, P: EdgePut<W> + 'static>(
    w: &mut W,
    sim: &mut Sim<W>,
    put: P,
    order: Vec<NodeId>,
    bytes: u64,
    on_node: NodeHook<W>,
    on_done: DoneHook<W>,
) {
    let remaining = Cell::new(order.len());
    let on_done = RefCell::new(Some(on_done));
    tree_arrived(w, sim, &Rc::new(TreeRun { put, order, bytes, remaining, on_node, on_done }), 0);
}

// PANIC-OK: child positions come from the tree built for `order.len()`.
fn tree_arrived<W: 'static, P: EdgePut<W> + 'static>(
    w: &mut W,
    sim: &mut Sim<W>,
    run: &Rc<TreeRun<W, P>>,
    idx: usize,
) {
    (run.on_node)(w, sim, run.order[idx]);
    for &c in binomial_children(idx, run.order.len()).iter().rev() {
        let next = Rc::clone(run);
        let (from, to) = (run.order[idx], run.order[c]);
        run.put.put(w, sim, from, to, run.bytes, move |w, sim| tree_arrived(w, sim, &next, c));
    }
    run.remaining.set(run.remaining.get() - 1);
    if run.remaining.get() == 0 {
        fire(&run.on_done, w, sim);
    }
}

/// Shared state of a round-schedule broadcast leg.
struct SchedRun<W, P> {
    put: P,
    order: Vec<NodeId>,
    sched: Rc<RoundSchedule>,
    /// Payload bytes, split into `sched.blocks` shares.
    bytes: u64,
    /// Blocks received so far per position.
    got: RefCell<Vec<usize>>,
    on_node: NodeHook<W>,
    on_done: RefCell<Option<DoneHook<W>>>,
}

/// Pipelined round-schedule broadcast of `bytes` over `order` along
/// `sched`: all of a round's one-port transfers start together and the next
/// round starts at the last one's landing. `on_node` fires for the root
/// now and for every other node when its last block lands; `on_done` after
/// the final round.
#[allow(clippy::too_many_arguments)]
// PANIC-OK: the table was built for `order.len()` positions.
pub fn sched_bcast<W: 'static, P: EdgePut<W> + 'static>(
    w: &mut W,
    sim: &mut Sim<W>,
    put: P,
    order: Vec<NodeId>,
    sched: Rc<RoundSchedule>,
    bytes: u64,
    on_node: NodeHook<W>,
    on_done: DoneHook<W>,
) {
    debug_assert_eq!(sched.nodes, order.len(), "a table for another node count");
    on_node(w, sim, order[0]);
    let got = RefCell::new(vec![0; order.len()]);
    let on_done = RefCell::new(Some(on_done));
    sched_round(w, sim, Rc::new(SchedRun { put, order, sched, bytes, got, on_node, on_done }), 0);
}

// PANIC-OK: edges address positions of the table built for `order.len()`.
fn sched_round<W: 'static, P: EdgePut<W> + 'static>(
    w: &mut W,
    sim: &mut Sim<W>,
    run: Rc<SchedRun<W, P>>,
    r: usize,
) {
    let Some(edges) = run.sched.rounds.get(r) else {
        return fire(&run.on_done, w, sim);
    };
    let remaining = Rc::new(Cell::new(edges.len()));
    for &(s, d, b) in edges {
        let share = block_len(run.bytes, run.sched.blocks, b);
        let (next, rem) = (Rc::clone(&run), Rc::clone(&remaining));
        let landed = move |w: &mut W, sim: &mut Sim<W>| {
            let complete = {
                let mut got = next.got.borrow_mut();
                got[d] += 1;
                got[d] == next.sched.blocks
            };
            if complete {
                (next.on_node)(w, sim, next.order[d]);
            }
            rem.set(rem.get() - 1);
            if rem.get() == 0 {
                sched_round(w, sim, Rc::clone(&next), r + 1);
            }
        };
        run.put.put(w, sim, run.order[s], run.order[d], share, landed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coll_sched::SchedCache;
    use qsnet::{Fabric, FabricKind, NetModel};
    use simcore::SimTime;

    #[derive(Clone, Copy, Debug, PartialEq)]
    enum Ev {
        Issue(NodeId, NodeId),
        Land(NodeId, NodeId),
        Node(NodeId),
        Done,
    }

    /// A world that is a real fabric and a log of what the executor did.
    struct World {
        fabric: Box<dyn Fabric<World>>,
        log: Vec<(SimTime, Ev)>,
    }

    /// A plain fabric put that logs its issue and its landing.
    struct LoggedPut;

    impl EdgePut<World> for LoggedPut {
        fn put(
            &self,
            w: &mut World,
            sim: &mut Sim<World>,
            from: NodeId,
            to: NodeId,
            bytes: u64,
            landed: impl Fn(&mut World, &mut Sim<World>) + 'static,
        ) {
            w.log.push((sim.now(), Ev::Issue(from, to)));
            w.fabric.put(sim, from, to, bytes, move |w: &mut World, sim: &mut Sim<World>| {
                w.log.push((sim.now(), Ev::Land(from, to)));
                landed(w, sim);
            });
        }
    }

    const FABRICS: [(FabricKind, fn() -> NetModel); 2] =
        [(FabricKind::QsNet, NetModel::qsnet), (FabricKind::Rdma, NetModel::infiniband)];

    /// Run one leg from `order[0]` over a fresh fabric; its log.
    fn run_leg(
        kind: FabricKind,
        model: NetModel,
        order: &[NodeId],
        leg: impl FnOnce(&mut World, &mut Sim<World>, NodeHook<World>, DoneHook<World>),
    ) -> Vec<(SimTime, Ev)> {
        let mut w =
            World { fabric: rdmanet::build_fabric(kind, model, order.len()), log: Vec::new() };
        let mut sim = Sim::new();
        let on_node: NodeHook<World> = Rc::new(|w: &mut World, sim: &mut Sim<World>, n| {
            w.log.push((sim.now(), Ev::Node(n)));
        });
        let on_done: DoneHook<World> = Box::new(|w: &mut World, sim: &mut Sim<World>| {
            w.log.push((sim.now(), Ev::Done));
        });
        leg(&mut w, &mut sim, on_node, on_done);
        sim.run(&mut w);
        w.log
    }

    /// The root, then the others in ascending order.
    fn order(nodes: usize) -> Vec<NodeId> {
        let root = nodes / 2;
        std::iter::once(root).chain((0..nodes).filter(|&n| n != root)).map(NodeId).collect()
    }

    /// Every node's hook fires exactly once — the root's first, every other
    /// one right at a landing there — and `on_done` once, after the last.
    fn check_hooks(log: &[(SimTime, Ev)], order: &[NodeId]) {
        let node_events: Vec<usize> =
            (0..log.len()).filter(|&i| matches!(log[i].1, Ev::Node(_))).collect();
        let mut reached: Vec<NodeId> = node_events
            .iter()
            .map(|&i| match log[i].1 {
                Ev::Node(n) => n,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(reached[0], order[0], "the root's hook fires first");
        for &i in &node_events[1..] {
            let (at, Ev::Node(n)) = log[i] else { unreachable!() };
            assert!(
                matches!(log[i - 1], (t, Ev::Land(_, to)) if t == at && to == n),
                "{n:?}'s hook fired, but not at a landing there: {:?}",
                &log[i - 1]
            );
        }
        reached.sort();
        let mut all = order.to_vec();
        all.sort();
        assert_eq!(reached, all, "every node's hook fires exactly once");
        let done: Vec<usize> = (0..log.len()).filter(|&i| log[i].1 == Ev::Done).collect();
        assert_eq!(done.len(), 1, "on_done fires once");
        let last_node = *node_events.last().unwrap();
        assert!(done[0] > last_node, "on_done fires after the last node's hook");
        assert_eq!(log[done[0]].0, log[last_node].0, "on_done fires at the last arrival");
    }

    #[test]
    fn the_tree_forwards_the_moment_the_payload_lands() {
        for (kind, model) in FABRICS {
            for nodes in [1, 2, 5, 13] {
                let order = order(nodes);
                let log = run_leg(kind, model(), &order, |w, sim, on_node, on_done| {
                    binomial_bcast(w, sim, LoggedPut, order.clone(), 3000, on_node, on_done)
                });
                check_hooks(&log, &order);
                // A node's puts to its children are issued at the instant it
                // was reached, straight after its hook.
                let mut reached_at = vec![None; nodes];
                reached_at[order[0].0] = Some(SimTime::ZERO);
                for (i, &(at, ev)) in log.iter().enumerate() {
                    match ev {
                        Ev::Node(n) => reached_at[n.0] = Some(at),
                        Ev::Issue(from, _) => {
                            assert_eq!(
                                reached_at[from.0],
                                Some(at),
                                "{kind:?} n={nodes}: {from:?} forwards late"
                            );
                            assert!(
                                matches!(log[i - 1].1, Ev::Node(m) | Ev::Issue(m, _) if m == from)
                            );
                        }
                        _ => {}
                    }
                }
                let puts = log.iter().filter(|(_, ev)| matches!(ev, Ev::Issue(..))).count();
                assert_eq!(puts, nodes - 1, "one put per tree edge");
            }
        }
    }

    #[test]
    fn a_schedule_round_starts_at_the_last_landing_of_the_one_before() {
        let mut scheds = SchedCache::default();
        for (kind, model) in FABRICS {
            for nodes in [1, 2, 5, 13] {
                for bytes in [100, 3 * 8192 + 5] {
                    let order = order(nodes);
                    let sched = scheds.table(nodes, bytes);
                    let table = Rc::clone(&sched);
                    let log = run_leg(kind, model(), &order, |w, sim, on_node, on_done| {
                        sched_bcast(
                            w,
                            sim,
                            LoggedPut,
                            order.clone(),
                            sched,
                            bytes,
                            on_node,
                            on_done,
                        )
                    });
                    check_hooks(&log, &order);
                    let (mut round, mut issued, mut landed) = (0, 0, 0);
                    let mut last_landing = SimTime::ZERO;
                    for &(at, ev) in &log {
                        match ev {
                            Ev::Issue(..) => {
                                if issued == table.rounds[round].len() {
                                    assert_eq!(
                                        landed,
                                        issued,
                                        "{kind:?} n={nodes} {bytes} B: round {} issued before round {round} landed",
                                        round + 1
                                    );
                                    assert_eq!(
                                        at, last_landing,
                                        "a round starts at the last landing"
                                    );
                                    (round, issued, landed) = (round + 1, 0, 0);
                                }
                                issued += 1;
                            }
                            Ev::Land(..) => {
                                landed += 1;
                                last_landing = at;
                            }
                            _ => {}
                        }
                    }
                    assert_eq!(round + 1, table.rounds.len().max(1), "every round ran");
                    assert_eq!(landed, issued, "the last round landed");
                }
            }
        }
    }
}
