#![forbid(unsafe_code)]
//! # bcs-core — the three BCS core primitives
//!
//! The entire BCS system software stack (STORM resource management, BCS-MPI,
//! and in the paper's vision parallel file systems and fault tolerance) is
//! built on exactly three operations (paper §2):
//!
//! * **`Xfer-And-Signal`** — atomically transfer a block of data from local
//!   memory to the global memory of a *set* of nodes, optionally signalling a
//!   local and/or remote event on completion. Non-blocking.
//! * **`Test-Event`** — poll a local event, optionally blocking until it has
//!   been signalled.
//! * **`Compare-And-Write`** — compare a *global variable* (same virtual
//!   address on every node) against a local value with `>=, <, ==, !=`; if
//!   the condition holds on **all** nodes of the set, optionally write a new
//!   value to a (possibly different) global variable on all of them.
//!   Blocking, sequentially consistent.
//!
//! This crate implements those semantics on the simulated fabric:
//! [`BcsCluster`] holds per-node *global words* (the global variables) and
//! *event words* (Elan-style counting events with waiters), and drives the
//! multicast/conditional transports of whichever `Box<dyn Fabric<W>>` it was
//! built over (traffic counters and fault injection are the fabric's
//! `net()`). Sequential consistency of `Xfer-And-Signal` and
//! `Compare-And-Write` follows from the fabric's ordering clock, which every
//! set of timing rules acquires for its collective wire operations.
//!
//! Higher layers own the simulation world `W` and embed a `BcsCluster<W>` in
//! it; the [`BcsWorld`] accessor trait lets deferred completions find the
//! cluster again.

pub mod coalesce;
pub mod retry;

use qsnet::{Fabric, NodeId};
use simcore::{Sim, SimTime};
use std::collections::{BTreeMap, VecDeque};
use std::ops::Range;
use std::rc::Rc;

/// Accessor implemented by every simulation world that embeds a BCS cluster.
pub trait BcsWorld: Sized + 'static {
    fn bcs(&mut self) -> &mut BcsCluster<Self>;
}

/// Implemented by engines that own a [`BcsCluster`] over world `W`. Lets a
/// foreign world wrapper (e.g. `mpi-api`'s `ClusterWorld<E>`) forward
/// [`BcsWorld`] to the engine without violating the orphan rules.
pub trait BcsHost<W> {
    fn bcs_cluster(&mut self) -> &mut BcsCluster<W>;
}

/// Address of a global variable: the same "virtual address" designates one
/// word on every node (paper §2, semantics point 1).
pub type GlobalWord = u32;

/// Address of a local event word.
pub type EventWord = u32;

/// Comparison operator of `Compare-And-Write`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CmpOp {
    Ge,
    Lt,
    Eq,
    Ne,
}

impl CmpOp {
    #[inline]
    pub fn eval(self, lhs: i64, rhs: i64) -> bool {
        match self {
            CmpOp::Ge => lhs >= rhs,
            CmpOp::Lt => lhs < rhs,
            CmpOp::Eq => lhs == rhs,
            CmpOp::Ne => lhs != rhs,
        }
    }
}

/// Optional write performed by a successful `Compare-And-Write`.
#[derive(Clone, Copy, Debug)]
pub struct WriteSpec {
    pub word: GlobalWord,
    pub value: i64,
}

/// A destination set an in-flight operation keeps, and what the two
/// collective primitives accept as one (see [`qsnet::NodeSet`]).
pub use qsnet::{IntoNodeSet, NodeSet};

/// Delivery hook of `Xfer-And-Signal`, called once per delivery instant
/// with the destinations reached at it: higher layers use it to deposit
/// payloads (descriptors, strobes) into NIC data structures.
pub use qsnet::fabric::{DeliverFn, Reached};

/// Options of one `Xfer-And-Signal` invocation.
pub struct XsOpts<W> {
    /// Event signalled on each destination node at its delivery instant.
    pub remote_event: Option<EventWord>,
    /// Event signalled on the source node once all deliveries completed.
    pub local_event: Option<EventWord>,
    /// Arbitrary delivery action, run before `remote_event` is signalled
    /// on the same destinations.
    pub on_deliver: Option<DeliverFn<W>>,
}

impl<W> Default for XsOpts<W> {
    fn default() -> Self {
        XsOpts {
            remote_event: None,
            local_event: None,
            on_deliver: None,
        }
    }
}

struct EventState<W> {
    pending: u32,
    /// Parked continuations, woken in park order.
    waiters: VecDeque<Box<dyn FnOnce(&mut W, &mut Sim<W>)>>,
}

impl<W> Default for EventState<W> {
    fn default() -> Self {
        EventState {
            pending: 0,
            waiters: VecDeque::new(),
        }
    }
}

/// One global word across the machine: `vals[n]` is node `n`'s copy (zero
/// until written, like the memory it models). A global variable lives at
/// the same address on every node, so storing it as a column makes
/// `Compare-And-Write` — the only operation that reads many nodes — a scan
/// of adjacent memory. Columns are created on first write and kept sorted
/// by address; a protocol uses a handful of addresses, so finding one is a
/// short binary search.
#[derive(Clone, Debug, PartialEq, Eq)]
struct WordColumn {
    addr: GlobalWord,
    vals: Vec<i64>,
}

/// Control-memory state of the whole cluster at a quiescent instant: the
/// global-word columns and every node's pending (unconsumed) event counts,
/// in a deterministic order. Captured only when no event *waiters* are
/// parked — a closure cannot be checkpointed — which holds at BCS slice
/// boundaries.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WordsSnapshot {
    words: Vec<WordColumn>,
    pending_rows: Vec<Vec<(EventWord, u32)>>,
}

/// The BCS abstract machine: global words + events on every node, over the
/// simulated fabric.
pub struct BcsCluster<W: 'static> {
    pub fabric: Box<dyn Fabric<W>>,
    /// Reliable-delivery bookkeeping (see [`retry`]).
    pub retry: retry::RetryState,
    /// Global words, one column per written address, ascending address.
    words: Vec<WordColumn>,
    /// Event words, per node.
    events: Vec<BTreeMap<EventWord, EventState<W>>>,
}

impl<W: BcsWorld> BcsCluster<W> {
    pub fn new(fabric: Box<dyn Fabric<W>>) -> BcsCluster<W> {
        let n = fabric.net().nodes();
        BcsCluster {
            fabric,
            retry: retry::RetryState::default(),
            words: Vec::new(),
            events: (0..n).map(|_| BTreeMap::new()).collect(),
        }
    }

    pub fn nodes(&self) -> usize {
        self.events.len()
    }

    /// Capture the global words and every node's pending event counts.
    /// Panics if any event waiter is parked: waiters are continuations and
    /// cannot survive a checkpoint — callers must capture at quiescent
    /// points only (slice boundaries in BCS-MPI).
    pub fn snapshot_words(&self) -> WordsSnapshot {
        let pending_rows = self
            .events
            .iter()
            .enumerate()
            .map(|(i, events)| {
                events
                    .iter()
                    .inspect(|(ev, st)| {
                        assert!(
                            st.waiters.is_empty(),
                            "snapshot_words with parked waiter on node {i} event {ev}"
                        );
                    })
                    .filter(|(_, st)| st.pending > 0)
                    .map(|(&ev, st)| (ev, st.pending))
                    .collect()
            })
            .collect();
        WordsSnapshot {
            words: self.words.clone(),
            pending_rows,
        }
    }

    /// Restore global words and pending event counts from a snapshot,
    /// discarding all current control-memory state.
    pub fn restore_words(&mut self, s: &WordsSnapshot) {
        assert_eq!(s.pending_rows.len(), self.events.len(), "snapshot node count");
        self.words.clone_from(&s.words);
        for (events, ps) in self.events.iter_mut().zip(&s.pending_rows) {
            events.clear();
            for &(ev, pending) in ps {
                events.insert(
                    ev,
                    EventState {
                        pending,
                        waiters: VecDeque::new(),
                    },
                );
            }
        }
    }

    // ------------------------------------------------------------------
    // Global words
    // ------------------------------------------------------------------

    /// Every node's copy of `addr`, if any node ever wrote it.
    fn column(&self, addr: GlobalWord) -> Option<&[i64]> {
        self.words
            .binary_search_by_key(&addr, |c| c.addr)
            .ok()
            .map(|i| &self.words[i].vals[..])
    }

    fn column_mut(&mut self, addr: GlobalWord) -> &mut [i64] {
        let i = match self.words.binary_search_by_key(&addr, |c| c.addr) {
            Ok(i) => i,
            Err(i) => {
                let vals = vec![0; self.events.len()];
                self.words.insert(i, WordColumn { addr, vals });
                i
            }
        };
        &mut self.words[i].vals
    }

    /// Read a global word on one node (zero if never written).
    pub fn word(&self, node: NodeId, addr: GlobalWord) -> i64 {
        self.column(addr).map_or(0, |vals| vals[node.0])
    }

    /// Write a global word locally (no network traffic — used by NIC threads
    /// updating their own node's state).
    pub fn set_word(&mut self, node: NodeId, addr: GlobalWord, value: i64) {
        self.column_mut(addr)[node.0] = value;
    }

    /// [`set_word`](Self::set_word) on every node of `nodes`: one column
    /// look-up for all of them.
    pub fn set_word_many(&mut self, nodes: &NodeSet, addr: GlobalWord, value: i64) {
        let vals = self.column_mut(addr);
        for &n in nodes.iter() {
            vals[n.0] = value;
        }
    }

    /// [`set_word`](Self::set_word) on the nodes `nodes.start..nodes.end`.
    pub fn set_word_range(&mut self, nodes: Range<usize>, addr: GlobalWord, value: i64) {
        self.column_mut(addr)[nodes].fill(value);
    }

    /// Add to a global word locally, returning the new value.
    pub fn add_word(&mut self, node: NodeId, addr: GlobalWord, delta: i64) -> i64 {
        let w = &mut self.column_mut(addr)[node.0];
        *w += delta;
        *w
    }

    // ------------------------------------------------------------------
    // Test-Event (and local signalling)
    // ------------------------------------------------------------------

    /// Signal an event on a node: wakes one waiter if present, otherwise
    /// increments the pending count (Elan events are counters).
    pub fn signal_event(w: &mut W, sim: &mut Sim<W>, node: NodeId, ev: EventWord) {
        let st = w.bcs().events[node.0].entry(ev).or_default();
        if let Some(waiter) = st.waiters.pop_front() {
            waiter(w, sim);
        } else {
            st.pending += 1;
        }
    }

    /// Non-blocking `Test-Event`: returns true (consuming one signal) if the
    /// event has been signalled.
    pub fn test_event(&mut self, node: NodeId, ev: EventWord) -> bool {
        let st = self.events[node.0].entry(ev).or_default();
        if st.pending > 0 {
            st.pending -= 1;
            true
        } else {
            false
        }
    }

    /// Blocking `Test-Event`: run `cont` as soon as the event is signalled
    /// (immediately if a signal is already pending).
    pub fn wait_event(
        w: &mut W,
        sim: &mut Sim<W>,
        node: NodeId,
        ev: EventWord,
        cont: impl FnOnce(&mut W, &mut Sim<W>) + 'static,
    ) {
        let st = w.bcs().events[node.0].entry(ev).or_default();
        if st.pending > 0 {
            st.pending -= 1;
            cont(w, sim);
        } else {
            st.waiters.push_back(Box::new(cont));
        }
    }

    // ------------------------------------------------------------------
    // Xfer-And-Signal
    // ------------------------------------------------------------------

    /// Atomic PUT of `bytes` from `src` to every node in `dests`, with
    /// optional event signalling and a delivery hook.
    /// Returns the completion time (last delivery).
    ///
    /// `dests` is a borrowed list (copied if the operation is a multicast)
    /// or a [`NodeSet`] the multicast shares with its delivery hook.
    pub fn xfer_and_signal(
        w: &mut W,
        sim: &mut Sim<W>,
        src: NodeId,
        dests: impl IntoNodeSet,
        bytes: u64,
        opts: XsOpts<W>,
    ) -> SimTime {
        assert!(!dests.as_nodes().is_empty(), "Xfer-And-Signal with empty destination set");
        let remote_event = opts.remote_event;
        let user_deliver = opts.on_deliver;
        let on_deliver: Option<DeliverFn<W>> = match remote_event {
            None => user_deliver,
            Some(ev) => Some(Rc::new(move |w: &mut W, sim: &mut Sim<W>, reached: Reached<'_>| {
                if let Some(cb) = &user_deliver {
                    cb(w, sim, reached);
                }
                for d in reached.nodes() {
                    BcsCluster::signal_event(w, sim, d, ev);
                }
            })),
        };
        let local_event = opts.local_event;
        let on_complete = move |w: &mut W, sim: &mut Sim<W>| {
            if let Some(ev) = local_event {
                BcsCluster::signal_event(w, sim, src, ev);
            }
        };

        let unicast = match *dests.as_nodes() {
            [d] if d != src => Some(d),
            _ => None,
        };
        if let Some(d) = unicast {
            // Single destination: plain unicast DMA.
            if on_deliver.is_none() && local_event.is_none() {
                // An event that does nothing is not scheduled (DESIGN §9):
                // the transfer is issued and accounted, and the caller has
                // the instant.
                return w.bcs().fabric.issue_put(sim.now(), src, d, bytes).0;
            }
            w.bcs().fabric.put(sim, src, d, bytes, move |w, sim| {
                if let Some(cb) = &on_deliver {
                    cb(w, sim, Reached::one(&d));
                }
                on_complete(w, sim);
            })
        } else {
            w.bcs()
                .fabric
                .multicast(sim, src, dests, bytes, on_deliver, on_complete)
        }
    }

    // ------------------------------------------------------------------
    // Compare-And-Write
    // ------------------------------------------------------------------

    /// Global conditional: evaluate `word <op> value` on every node of
    /// `dests`; if it holds on **all** of them, apply `write` (if any) to all
    /// of them; finally run `cont` with the outcome.
    ///
    /// Evaluation and write happen atomically at the operation's fire time,
    /// and fire times are totally ordered by the fabric's ordering clock, so
    /// concurrent `Compare-And-Write`s with overlapping destination sets are
    /// sequentially consistent (paper §2, point 2).
    ///
    /// `dests` is a borrowed list (copied into the in-flight operation) or
    /// a [`NodeSet`] the operation shares — the strobe loop polls the same
    /// job nodes several times per slice. Over a set that is one ascending
    /// run of node ids the comparison is a scan of adjacent words; any other
    /// set is walked node by node.
    #[allow(clippy::too_many_arguments)]
    pub fn compare_and_write(
        w: &mut W,
        sim: &mut Sim<W>,
        src: NodeId,
        dests: impl IntoNodeSet,
        word: GlobalWord,
        op: CmpOp,
        value: i64,
        write: Option<WriteSpec>,
        cont: impl FnOnce(&mut W, &mut Sim<W>, bool) + 'static,
    ) -> SimTime {
        let dests = dests.into_node_set();
        assert!(!dests.is_empty(), "Compare-And-Write with empty destination set");
        let span = dests.len();
        w.bcs()
            .fabric
            .conditional(sim, src, span, move |w: &mut W, sim: &mut Sim<W>| {
                let bcs = w.bcs();
                // A never-written word reads zero everywhere.
                let ok = match (bcs.column(word), dests.span()) {
                    (Some(vals), Some(run)) => vals[run].iter().all(|&v| op.eval(v, value)),
                    (Some(vals), None) => dests.iter().all(|&d| op.eval(vals[d.0], value)),
                    (None, _) => op.eval(0, value),
                };
                if ok {
                    if let Some(ws) = write {
                        bcs.set_word_many(&dests, ws.word, ws.value);
                    }
                }
                cont(w, sim, ok);
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsnet::{NetModel, QsNetFabric};
    use simcore::SimDuration;

    struct TestWorld {
        bcs: BcsCluster<TestWorld>,
        log: Vec<(u64, String)>,
    }

    impl BcsWorld for TestWorld {
        fn bcs(&mut self) -> &mut BcsCluster<TestWorld> {
            &mut self.bcs
        }
    }

    fn setup(nodes: usize) -> (TestWorld, Sim<TestWorld>) {
        let fabric = Box::new(QsNetFabric::new(NetModel::qsnet(), nodes));
        (
            TestWorld {
                bcs: BcsCluster::new(fabric),
                log: vec![],
            },
            Sim::new(),
        )
    }

    #[test]
    fn xfer_and_signal_signals_remote_and_local_events() {
        let (mut w, mut sim) = setup(8);
        let dests: Vec<NodeId> = (1..8).map(NodeId).collect();
        BcsCluster::xfer_and_signal(
            &mut w,
            &mut sim,
            NodeId(0),
            &dests,
            256,
            XsOpts {
                remote_event: Some(7),
                local_event: Some(9),
                on_deliver: Some(Rc::new(|w: &mut TestWorld, s: &mut Sim<TestWorld>, ds: Reached<'_>| {
                    w.log.extend(ds.nodes().map(|d| (s.now().0, format!("deliver@{d}"))));
                })),
            },
        );
        sim.run(&mut w);
        assert_eq!(w.log.len(), 7);
        for d in 1..8 {
            assert!(w.bcs.test_event(NodeId(d), 7), "remote event missing on n{d}");
            assert!(!w.bcs.test_event(NodeId(d), 7), "event should be consumed");
        }
        assert!(w.bcs.test_event(NodeId(0), 9), "local completion event missing");
    }

    #[test]
    fn xfer_and_signal_unicast_path() {
        let (mut w, mut sim) = setup(4);
        let t = BcsCluster::xfer_and_signal(
            &mut w,
            &mut sim,
            NodeId(0),
            &[NodeId(3)],
            64,
            XsOpts {
                remote_event: Some(1),
                ..Default::default()
            },
        );
        sim.run(&mut w);
        assert!(w.bcs.test_event(NodeId(3), 1));
        // Unicast should not pay the multicast/root serialization.
        assert!(t.since(SimTime::ZERO) < SimDuration::micros(5));
        assert_eq!(w.bcs.fabric.net().stats().puts, 1);
        assert_eq!(w.bcs.fabric.net().stats().multicasts, 0);
    }

    #[test]
    fn wait_event_fires_immediately_when_pending() {
        let (mut w, mut sim) = setup(2);
        BcsCluster::signal_event(&mut w, &mut sim, NodeId(1), 3);
        BcsCluster::wait_event(&mut w, &mut sim, NodeId(1), 3, |w, s| {
            w.log.push((s.now().0, "woke".into()));
        });
        assert_eq!(w.log.len(), 1, "pending signal should satisfy wait at once");
    }

    #[test]
    fn wait_event_blocks_until_signal() {
        let (mut w, mut sim) = setup(2);
        BcsCluster::wait_event(&mut w, &mut sim, NodeId(0), 5, |w, s| {
            w.log.push((s.now().0, "woke".into()));
        });
        assert!(w.log.is_empty());
        // Remote signal via Xfer-And-Signal.
        BcsCluster::xfer_and_signal(
            &mut w,
            &mut sim,
            NodeId(1),
            &[NodeId(0)],
            64,
            XsOpts {
                remote_event: Some(5),
                ..Default::default()
            },
        );
        sim.run(&mut w);
        assert_eq!(w.log.len(), 1);
        assert!(w.log[0].0 > 0, "wake must happen at delivery time");
    }

    #[test]
    fn waiters_on_one_event_wake_in_park_order() {
        let (mut w, mut sim) = setup(2);
        for name in ["first", "second", "third"] {
            BcsCluster::wait_event(&mut w, &mut sim, NodeId(1), 4, move |w, s| {
                w.log.push((s.now().0, name.into()));
            });
        }
        for woken in 1..=3 {
            BcsCluster::signal_event(&mut w, &mut sim, NodeId(1), 4);
            assert_eq!(w.log.len(), woken, "one waiter per signal");
        }
        let order: Vec<&str> = w.log.iter().map(|(_, name)| name.as_str()).collect();
        assert_eq!(order, ["first", "second", "third"]);
        assert!(!w.bcs.test_event(NodeId(1), 4), "every signal went to a waiter");
    }

    #[test]
    fn compare_and_write_requires_all_nodes() {
        let (mut w, mut sim) = setup(4);
        const FLAG: GlobalWord = 11;
        for n in 0..3 {
            w.bcs.set_word(NodeId(n), FLAG, 1);
        }
        // Node 3 still has FLAG == 0: conditional must fail.
        BcsCluster::compare_and_write(
            &mut w,
            &mut sim,
            NodeId(0),
            &(0..4).map(NodeId).collect::<Vec<_>>(),
            FLAG,
            CmpOp::Ge,
            1,
            Some(WriteSpec { word: 12, value: 99 }),
            |w, s, ok| w.log.push((s.now().0, format!("cw={ok}"))),
        );
        sim.run(&mut w);
        assert_eq!(w.log[0].1, "cw=false");
        assert_eq!(w.bcs.word(NodeId(0), 12), 0, "failed C&W must not write");

        // Now satisfy node 3 and retry.
        w.bcs.set_word(NodeId(3), FLAG, 1);
        BcsCluster::compare_and_write(
            &mut w,
            &mut sim,
            NodeId(0),
            &(0..4).map(NodeId).collect::<Vec<_>>(),
            FLAG,
            CmpOp::Ge,
            1,
            Some(WriteSpec { word: 12, value: 99 }),
            |w, s, ok| w.log.push((s.now().0, format!("cw={ok}"))),
        );
        sim.run(&mut w);
        assert_eq!(w.log[1].1, "cw=true");
        for n in 0..4 {
            assert_eq!(w.bcs.word(NodeId(n), 12), 99, "write must reach all nodes");
        }
    }

    #[test]
    fn compare_and_write_reads_and_writes_only_its_set() {
        // Node 0 fails the test, so only a set without it succeeds: a run
        // of node ids (1, 2) is scanned as a slice, an unordered set with a
        // gap (3, 1) node by node; each writes exactly its own nodes.
        let (mut w, mut sim) = setup(5);
        const FLAG: GlobalWord = 11;
        for n in 1..5 {
            w.bcs.set_word(NodeId(n), FLAG, 1);
        }
        for (dests, word) in [(vec![1, 2], 20), (vec![3, 1], 21), (vec![4, 0], 22)] {
            let dests: Vec<NodeId> = dests.into_iter().map(NodeId).collect();
            BcsCluster::compare_and_write(
                &mut w,
                &mut sim,
                NodeId(0),
                &dests,
                FLAG,
                CmpOp::Ge,
                1,
                Some(WriteSpec { word, value: 7 }),
                move |w, s, ok| w.log.push((s.now().0, format!("cw{word}={ok}"))),
            );
            sim.run(&mut w);
        }
        let results: Vec<&str> = w.log.iter().map(|(_, m)| m.as_str()).collect();
        assert_eq!(results, ["cw20=true", "cw21=true", "cw22=false"]);
        let written = |word| (0..5).filter(|&n| w.bcs.word(NodeId(n), word) == 7).collect::<Vec<_>>();
        assert_eq!(written(20), [1, 2]);
        assert_eq!(written(21), [1, 3]);
        assert_eq!(written(22), Vec::<usize>::new());
    }

    #[test]
    fn compare_and_write_ops() {
        assert!(CmpOp::Ge.eval(3, 3));
        assert!(!CmpOp::Ge.eval(2, 3));
        assert!(CmpOp::Lt.eval(2, 3));
        assert!(CmpOp::Eq.eval(5, 5));
        assert!(CmpOp::Ne.eval(5, 6));
    }

    #[test]
    fn overlapping_compare_and_writes_are_sequentially_consistent() {
        // Two C&Ws race to claim a lock word: exactly one must win, and
        // afterwards every node agrees on the value (total order).
        let (mut w, mut sim) = setup(8);
        const LOCK: GlobalWord = 1;
        let all: Vec<NodeId> = (0..8).map(NodeId).collect();
        for claimant in [2i64, 3i64] {
            let dests = all.clone();
            BcsCluster::compare_and_write(
                &mut w,
                &mut sim,
                NodeId(claimant as usize),
                &dests,
                LOCK,
                CmpOp::Eq,
                0,
                Some(WriteSpec {
                    word: LOCK,
                    value: claimant,
                }),
                move |w, s, ok| w.log.push((s.now().0, format!("claim{claimant}={ok}"))),
            );
        }
        sim.run(&mut w);
        let wins: Vec<&String> = w.log.iter().map(|(_, m)| m).collect();
        assert_eq!(wins.len(), 2);
        assert_eq!(wins[0], "claim2=true", "first in serializer order wins");
        assert_eq!(wins[1], "claim3=false", "second must observe the write");
        let v = w.bcs.word(NodeId(0), LOCK);
        assert!((1..=8).all(|n| w.bcs.word(NodeId(n - 1), LOCK) == v));
        assert_eq!(v, 2);
    }

    #[test]
    fn words_snapshot_round_trips() {
        let (mut w, mut sim) = setup(3);
        w.bcs.set_word(NodeId(0), 5, 42);
        w.bcs.add_word(NodeId(2), 7, -3);
        BcsCluster::signal_event(&mut w, &mut sim, NodeId(1), 9);
        BcsCluster::signal_event(&mut w, &mut sim, NodeId(1), 9);
        let snap = w.bcs.snapshot_words();
        // Mutate everything, then restore.
        w.bcs.set_word(NodeId(0), 5, 0);
        w.bcs.set_word(NodeId(1), 99, 1);
        assert!(w.bcs.test_event(NodeId(1), 9));
        w.bcs.restore_words(&snap);
        assert_eq!(w.bcs.snapshot_words(), snap);
        assert_eq!(w.bcs.word(NodeId(0), 5), 42);
        assert_eq!(w.bcs.word(NodeId(2), 7), -3);
        assert_eq!(w.bcs.word(NodeId(1), 99), 0, "post-snapshot write discarded");
        assert!(w.bcs.test_event(NodeId(1), 9));
        assert!(w.bcs.test_event(NodeId(1), 9));
        assert!(!w.bcs.test_event(NodeId(1), 9), "pending count restored exactly");
    }

    #[test]
    fn global_word_default_and_add() {
        let (mut w, _sim) = setup(2);
        assert_eq!(w.bcs.word(NodeId(0), 42), 0);
        assert_eq!(w.bcs.add_word(NodeId(0), 42, 5), 5);
        assert_eq!(w.bcs.add_word(NodeId(0), 42, -2), 3);
        assert_eq!(w.bcs.word(NodeId(1), 42), 0, "words are per node");
    }
}
