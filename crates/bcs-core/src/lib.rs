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
//! drives the multicast/conditional transports of whichever
//! `Box<dyn Fabric<W>>` it was built over (traffic counters and fault
//! injection are the fabric's `net()`). Sequential consistency of
//! `Xfer-And-Signal` and `Compare-And-Write` follows from the fabric's
//! ordering clock, which every set of timing rules acquires for its
//! collective wire operations.
//!
//! No event state is kept. A NIC thread that would block in `Test-Event`
//! is a continuation run at the instant the event would be signalled:
//! `xfer_and_signal`'s delivery hook (remote events) or the completion
//! instant it returns (local events), the closure a fabric `put` or `get`
//! runs when its payload lands, and a `compare_and_write` continuation.
//!
//! Higher layers own the simulation world `W` and embed a `BcsCluster<W>` in
//! it; the [`BcsWorld`] accessor trait lets deferred completions find the
//! cluster again.

pub mod coalesce;
pub mod retry;

use qsnet::{Fabric, NodeId};
use simcore::{Sim, SimTime};
use std::ops::Range;

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
    /// Delivery action: the remote event's waiter, run on the destinations
    /// at their delivery instant.
    pub on_deliver: Option<DeliverFn<W>>,
}

impl<W> Default for XsOpts<W> {
    fn default() -> Self {
        XsOpts { on_deliver: None }
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

/// Control-memory state of the whole cluster: the global-word columns, in
/// ascending address order, and the machine size they were taken on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WordsSnapshot {
    nodes: usize,
    words: Vec<WordColumn>,
}

/// The BCS abstract machine: global words on every node, over the
/// simulated fabric.
pub struct BcsCluster<W: 'static> {
    pub fabric: Box<dyn Fabric<W>>,
    /// Reliable-delivery bookkeeping (see [`retry`]).
    pub retry: retry::RetryState,
    /// Global words, one column per written address, ascending address.
    words: Vec<WordColumn>,
}

impl<W: BcsWorld> BcsCluster<W> {
    pub fn new(fabric: Box<dyn Fabric<W>>) -> BcsCluster<W> {
        BcsCluster {
            fabric,
            retry: retry::RetryState::default(),
            words: Vec::new(),
        }
    }

    /// Capture the global words.
    pub fn snapshot_words(&self) -> WordsSnapshot {
        WordsSnapshot {
            nodes: self.fabric.net().nodes(),
            words: self.words.clone(),
        }
    }

    /// Restore the global words from a snapshot of a machine of the same
    /// size, discarding every word written since.
    pub fn restore_words(&mut self, s: &WordsSnapshot) {
        assert_eq!(s.nodes, self.fabric.net().nodes(), "snapshot node count");
        self.words.clone_from(&s.words);
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
                let vals = vec![0; self.fabric.net().nodes()];
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
    // Xfer-And-Signal
    // ------------------------------------------------------------------

    /// Atomic PUT of `bytes` from `src` to every node in `dests`, with an
    /// optional delivery hook. Returns the completion time (last delivery):
    /// the instant the source's local event would be signalled.
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
        let unicast = match *dests.as_nodes() {
            [d] if d != src => Some(d),
            _ => None,
        };
        match (unicast, opts.on_deliver) {
            // Single destination: plain unicast DMA. An event that does
            // nothing is not scheduled (DESIGN §9): the transfer is issued
            // and accounted, and the caller has the instant.
            (Some(d), None) => w.bcs().fabric.issue_put(sim.now(), src, d, bytes).0,
            (Some(d), Some(cb)) => w.bcs().fabric.put(sim, src, d, bytes, move |w, sim| {
                cb(w, sim, Reached::one(&d))
            }),
            (None, on_deliver) => {
                w.bcs()
                    .fabric
                    .multicast(sim, src, dests, bytes, on_deliver, |_, _| {})
            }
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
    use std::rc::Rc;

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
    fn xfer_and_signal_unicast_path() {
        let (mut w, mut sim) = setup(4);
        let t = BcsCluster::xfer_and_signal(
            &mut w,
            &mut sim,
            NodeId(0),
            &[NodeId(3)],
            64,
            XsOpts {
                on_deliver: Some(Rc::new(
                    |w: &mut TestWorld, s: &mut Sim<TestWorld>, ds: Reached<'_>| {
                        w.log
                            .extend(ds.nodes().map(|d| (s.now().0, format!("deliver@{d}"))));
                    },
                )),
            },
        );
        sim.run(&mut w);
        assert_eq!(
            w.log,
            [(t.0, "deliver@n3".to_string())],
            "one delivery, at the returned instant"
        );
        // Unicast should not pay the multicast/root serialization.
        assert!(t.since(SimTime::ZERO) < SimDuration::micros(5));
        assert_eq!(w.bcs.fabric.net().stats().puts, 1);
        assert_eq!(w.bcs.fabric.net().stats().multicasts, 0);
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
        let (mut w, _sim) = setup(3);
        w.bcs.set_word(NodeId(0), 5, 42);
        w.bcs.add_word(NodeId(2), 7, -3);
        let snap = w.bcs.snapshot_words();
        // Mutate everything, then restore.
        w.bcs.set_word(NodeId(0), 5, 0);
        w.bcs.set_word(NodeId(1), 99, 1);
        w.bcs.restore_words(&snap);
        assert_eq!(w.bcs.snapshot_words(), snap);
        assert_eq!(w.bcs.word(NodeId(0), 5), 42);
        assert_eq!(w.bcs.word(NodeId(2), 7), -3);
        assert_eq!(w.bcs.word(NodeId(1), 99), 0, "post-snapshot write discarded");
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
