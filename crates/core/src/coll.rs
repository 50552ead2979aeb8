//! Collectives: barrier, broadcast (CH) and reduce/allreduce (RH), per
//! §4.4 — extended with communicator (MPI group) support, the
//! functionality §4.5 lists as the prototype's main limitation.
//!
//! Every collective call posts a descriptor to the BR and blocks. The BR
//! pre-processes descriptors: once all local ranks *of the communicator*
//! have invoked the collective, a per-(communicator, kind) flag — a BCS
//! *global word* — is set. In the MSM, the BR of the communicator's master
//! node issues a `Compare-And-Write` query checking the flag on all member
//! nodes; when it holds everywhere the operation is scheduled. The CH then
//! performs broadcasts/barriers in the broadcast & barrier microphase, and
//! the RH performs reduces in the reduce microphase,
//! computing reductions **on the NIC** with the softfloat library (the
//! Elan3 has no FPU).
//!
//! What a round *is* — its kind, the join with its mismatch checks, the
//! close and each member's response — is [`mpi_api::round`], shared with
//! the baseline; this module is BCS-MPI's time plane over it: the flag
//! words and per-node arrival counts of the BR, the CAW queries of the MSM,
//! and the BBM/RM microphases.
//!
//! # Wire schedules ([`CollAlgo`], DESIGN §14)
//!
//! The *value plane* is fixed: a reduce's contributions land in one flat
//! buffer and combine in ascending communicator-rank order, here with
//! [`combine_nic`], so results are bit-identical under every algorithm and
//! both engines. The *time plane* — what the modeled wire carries — is
//! selected by [`crate::BcsConfig::coll_algo`]:
//!
//! * [`CollAlgo::HwMulticast`]: the fabric's native multicast primitive and
//!   an analytic ⌈log2 n⌉-stage binomial gather (the paper's path).
//! * [`CollAlgo::Binomial`]: an explicit binomial tree of point-to-point
//!   DMAs; each node forwards to its subtree the moment the payload lands,
//!   and reductions run the mirrored tree bottom-up with a per-merge
//!   softfloat delay.
//! * [`CollAlgo::OptimalSchedule`]: precomputed round-synchronized block
//!   schedules ([`mpi_api::coll_sched::bcast_schedule`]), cached per
//!   (node count, block count) in [`CollState`]; reductions replay the
//!   table in reverse with every edge flipped.
//!
//! Broadcast legs run `mpi_api::coll_sched`'s executors, shared with the
//! baseline, over this engine's issue primitives ([`BcsEdge`]); the gather
//! executors are this engine's own, as only it runs an explicit gather. A
//! schedule transfer is issued without a completion event: a broadcast
//! round schedules one event per edge (a landing block may complete a node
//! and restart its ranks), a gather round one event in all
//! (`sched_gather_round`).

use crate::engine::{BW, BcsMpi, Blocked, DESC_BYTES, DESC_COST, REDUCE_NS_PER_BYTE};
use crate::p2p::Nics;
use bcs_core::{BcsCluster, CmpOp, DeliverFn, Reached};
use mpi_api::call::MpiResp;
use mpi_api::coll_sched::{self, CollAlgo, DoneHook, EdgePut, NodeHook, RoundSchedule, SchedCache};
use mpi_api::comm::{CommId, Group, RoundCounters};
use mpi_api::datatype::{Datatype, ReduceOp, combine_native};
use mpi_api::round::{Closed, CollCall, CollKind, Round};
use mpi_api::runtime::JobLayout;
use qsnet::NodeId;
use simcore::{Sim, SimDuration};
use softfloat::{F32, F64};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::collections::btree_map::Entry;
use std::rc::Rc;

/// Word slots reserved per communicator (one per collective kind family).
const SLOTS_PER_COMM: u32 = 3;

/// Global-word address of the flag for `(comm, slot)`. Word ids below
/// [`crate::words::RESERVED`] belong to the protocol (`crate::words`); each
/// communicator owns a disjoint [`SLOTS_PER_COMM`]-word window above them.
// PANIC-OK: slot range is asserted against the reserved flag-word layout —
// violations are caught loudly at the call site (unit-tested below).
pub(crate) fn flag_word(comm: CommId, slot: usize) -> u32 {
    debug_assert!((slot as u32) < SLOTS_PER_COMM, "collective slot out of range");
    let word = comm
        .0
        .checked_mul(SLOTS_PER_COMM)
        .and_then(|base| base.checked_add(crate::words::RESERVED))
        .and_then(|base| base.checked_add(slot as u32))
        .expect("communicator id overflows the global-word space");
    debug_assert!(word >= crate::words::RESERVED, "flag word in the reserved range");
    word
}

#[derive(Clone)]
pub(crate) struct CollRound {
    /// The value plane: kind, root, contributions and arrivals.
    pub value: Round,
    /// The node hosting the root, the round's master process.
    pub master: NodeId,
    /// Arrivals per compute node.
    pub arrived_on_node: Vec<usize>,
    /// Scheduled for execution in this slice's BBM/RM.
    pub scheduled: bool,
    /// A Compare-And-Write query is in flight.
    pub query_inflight: bool,
}

/// A collective round's key: `(comm, slot, round)`.
type RoundKey = (CommId, usize, u64);

/// Engine-wide collective bookkeeping.
#[derive(Clone)]
pub(crate) struct CollState {
    /// Invocation counters per member and slot: which round a post joins.
    counters: RoundCounters,
    /// Changed through [`CollState::edit_round`]; a member's arrival
    /// through [`CollState::joining`].
    rounds: BTreeMap<RoundKey, CollRound>,
    compute_nodes: usize,
    scheds: SchedCache,
}

impl CollState {
    pub fn new(layout: &JobLayout) -> CollState {
        CollState {
            counters: RoundCounters::default(),
            rounds: BTreeMap::new(),
            compute_nodes: layout.compute_nodes,
            scheds: SchedCache::default(),
        }
    }

    /// The rounds in progress, in key order.
    pub fn rounds(&self) -> &BTreeMap<RoundKey, CollRound> {
        &self.rounds
    }

    /// The one way to make a change the predicates read: `f` inserts,
    /// changes or removes the round `key`, and then the master of every
    /// round left in its `(comm, slot)` is touched. What the MSM, BBM and
    /// RM predicates read of the rounds is the rounds' own state and which
    /// of them heads its `(comm, slot)` (`msm_query_heads`,
    /// `rooted_rounds`), so an untouched node stays idle (`p2p::Nics`).
    pub fn edit_round<R>(
        &mut self,
        nic: &mut Nics,
        key: RoundKey,
        f: impl FnOnce(Entry<'_, RoundKey, CollRound>) -> R,
    ) -> R {
        let out = f(self.rounds.entry(key));
        let (comm, slot, _) = key;
        for (_, r) in self.rounds.range((comm, slot, 0)..=(comm, slot, u64::MAX)) {
            nic.touch(r.master);
        }
        out
    }

    /// The open round `key`, for a member joining it. A join changes only
    /// the round's contributions and arrival counts, which no predicate
    /// reads, so unlike the four edits [`CollState::edit_round`] makes —
    /// creating, querying, scheduling and retiring a round — it touches no
    /// node.
    pub fn joining(&mut self, key: RoundKey) -> Option<&mut CollRound> {
        self.rounds.get_mut(&key)
    }

    pub fn describe(&self) -> String {
        let mut out = String::new();
        for ((comm, slot, id), round) in &self.rounds {
            out.push_str(&format!(
                "  collective comm{} slot{slot}#{id} ({:?}): {} arrived, scheduled={}\n",
                comm.0,
                round.value.kind(),
                round.value.arrived(),
                round.scheduled
            ));
        }
        out
    }
}

// ----------------------------------------------------------------------
// Posting (application side)
// ----------------------------------------------------------------------

// PANIC-OK: per-comm/per-rank tables are sized when the communicator is
// created; the posting rank was validated by the API layer.
pub(crate) fn post_collective(w: &mut BW, rank: usize, comm: CommId, call: CollCall) {
    let e = &mut w.engine;
    let slot = call.kind.slot();
    let node = e.node_of(rank);
    let group = e.comms.group(comm);
    let size = group.size();
    let (local_rank, local_members) = group.locate(rank);
    let id = e.coll.counters.enter(comm, local_rank, slot);
    let compute_nodes = e.coll.compute_nodes;
    let master = e.layout.node_of(group.members()[call.root]);

    // The first arrival opens the round and touches its master; the others
    // join it in place.
    let key = (comm, slot, id);
    let round = match e.coll.joining(key) {
        Some(round) => round,
        None => {
            let round = CollRound {
                value: Round::open(&call, size),
                master,
                arrived_on_node: vec![0; compute_nodes],
                scheduled: false,
                query_inflight: false,
            };
            e.coll.edit_round(&mut e.nic, key, |entry| {
                entry.or_insert(round);
            });
            e.coll.joining(key).expect("the round just opened")
        }
    };
    round.value.join(local_rank, call);
    round.arrived_on_node[node.0] += 1;
    if round.arrived_on_node[node.0] == local_members {
        // BR pre-processing (§4.4): all local member ranks have invoked the
        // collective — set the per-(comm, kind) flag word the master's
        // Compare-And-Write will test during MSM.
        e.bcs.set_word(node, flag_word(comm, slot), (id + 1) as i64);
    }
    // Every BCS collective suspends its caller (§4.4: "...and blocks").
    e.blocked[rank] = Some(Blocked::Collective);
}

/// `MPI_Comm_split`: a collective, so everyone blocks; once the last member
/// arrives the membership agreement is complete, and all participants
/// restart at the next slice boundary (the NM treats it like any other
/// collective completion).
// PANIC-OK: `blocked` is sized per rank at startup; ranks come from the
// harness layout and the parent communicator's members.
pub(crate) fn post_comm_split(w: &mut BW, rank: usize, parent: CommId, color: i64, key: i64) {
    let e = &mut w.engine;
    e.blocked[rank] = Some(Blocked::Collective);
    if let Some(outcome) = e.comms.arrive_split(parent, rank, color, key) {
        for (r, handle) in outcome.assignments {
            e.blocked[r] = None;
            e.restart_queue.push((r, MpiResp::CommSplitDone { handle }));
        }
    }
}

// ----------------------------------------------------------------------
// MSM: eligibility queries from the master node
// ----------------------------------------------------------------------

/// The rounds `node`'s BR would query in an MSM starting now: the lowest
/// round of each (comm, slot) — rounds of one communicator and kind are
/// globally ordered, so only the head can be eligible — if it is not
/// scheduled yet, has no query in flight and its master lives on `node`.
fn msm_query_heads(e: &BcsMpi, node: NodeId) -> impl Iterator<Item = RoundKey> + '_ {
    let mut seen: Option<(CommId, usize)> = None;
    e.coll
        .rounds
        .iter()
        .filter(move |((comm, slot, _), _)| seen.replace((*comm, *slot)) != Some((*comm, *slot)))
        .filter(move |(_, r)| !r.scheduled && !r.query_inflight && r.master == node)
        .map(|(key, _)| *key)
}

/// Whether [`msm_queries`] would issue anything for `node`.
pub(crate) fn has_msm_query(e: &BcsMpi, node: NodeId) -> bool {
    msm_query_heads(e, node).next().is_some()
}

/// Issue `Compare-And-Write` queries for unscheduled rounds whose master
/// process lives on `node`. Returns the number of in-flight queries (they
/// count toward the node's MSM outstanding work).
// PANIC-OK: collective rounds queried here were installed by post_collective
// on this node; per-node tables are sized by the fixed topology.
pub(crate) fn msm_queries(w: &mut BW, sim: &mut Sim<BW>, node: NodeId) -> u32 {
    let mut queries = 0u32;
    let heads: Vec<_> = msm_query_heads(&w.engine, node).collect();
    for key @ (comm, slot, id) in heads {
        let e = &mut w.engine;
        e.coll.edit_round(&mut e.nic, key, |round| {
            round.and_modify(|round| round.query_inflight = true);
        });
        queries += 1;
        let member_nodes = w.engine.comms.group(comm).nodes().clone();
        BcsCluster::compare_and_write(
            w,
            sim,
            node,
            member_nodes,
            flag_word(comm, slot),
            CmpOp::Ge,
            (id + 1) as i64,
            None,
            move |w: &mut BW, sim: &mut Sim<BW>, ok| {
                let e = &mut w.engine;
                e.coll.edit_round(&mut e.nic, key, |round| {
                    round.and_modify(|round| {
                        round.query_inflight = false;
                        if ok {
                            round.scheduled = true;
                        }
                    });
                });
                crate::protocol::work_item_done(w, sim, node);
                mpi_api::runtime::drain(w, sim);
            },
        );
    }
    queries
}

// ----------------------------------------------------------------------
// Wire primitives and gather executors (CollAlgo::Binomial / ::OptimalSchedule)
// ----------------------------------------------------------------------

/// This engine's issue primitives, both carrying the payload and its
/// descriptor: a retry-aware put on binomial-tree edges; on round-schedule
/// edges an `Xfer-And-Signal` issued without an event of its own — the
/// landing is the one event per edge, and a planned drop on such an edge is
/// modelled as delivered.
enum BcsEdge {
    Tree,
    Sched,
}

impl EdgePut<BW> for BcsEdge {
    fn put(
        &self,
        w: &mut BW,
        sim: &mut Sim<BW>,
        from: NodeId,
        to: NodeId,
        bytes: u64,
        landed: impl Fn(&mut BW, &mut Sim<BW>) + 'static,
    ) {
        let wire = bytes + DESC_BYTES;
        match self {
            BcsEdge::Tree => {
                crate::p2p::wire_put(w, sim, from, to, wire, "binomial broadcast put", landed)
            }
            BcsEdge::Sched => {
                let opts = bcs_core::XsOpts::default();
                let at = BcsCluster::xfer_and_signal(w, sim, from, &[to], wire, opts);
                sim.schedule_at(at, landed);
            }
        }
    }
}

/// Shared state of a binomial reduction (gather) leg.
struct GatherRun {
    order: Vec<NodeId>,
    bytes: u64,
    /// NIC combine cost charged per received partial.
    combine: SimDuration,
    /// Children still outstanding per tree position.
    pending: RefCell<Vec<usize>>,
    on_done: RefCell<Option<DoneHook<BW>>>,
}

/// Binomial gather: the mirrored broadcast tree walked leaf-to-root. Every
/// position sends its (combined) partial to its parent once all children
/// have arrived; `on_done` fires when the root has merged everything.
// PANIC-OK: gather contributions are indexed by tree positions computed
// from the same comm the buffers were sized for.
fn binomial_gather(
    w: &mut BW,
    sim: &mut Sim<BW>,
    order: Vec<NodeId>,
    bytes: u64,
    combine: SimDuration,
    on_done: DoneHook<BW>,
) {
    let nn = order.len();
    if nn <= 1 {
        return on_done(w, sim);
    }
    let pending = (0..nn).map(|i| coll_sched::binomial_children(i, nn).len()).collect();
    let (pending, on_done) = (RefCell::new(pending), RefCell::new(Some(on_done)));
    let run = Rc::new(GatherRun { order, bytes, combine, pending, on_done });
    for i in 1..nn {
        if run.pending.borrow()[i] == 0 {
            gather_send_up(w, sim, Rc::clone(&run), i);
        }
    }
}

// PANIC-OK: the gather run holds per-child slots allocated at post time;
// `idx` enumerates that same slot vector.
fn gather_send_up(w: &mut BW, sim: &mut Sim<BW>, run: Rc<GatherRun>, idx: usize) {
    let parent = coll_sched::binomial_parent(idx);
    let run2 = Rc::clone(&run);
    let deliver = move |_w: &mut BW, sim: &mut Sim<BW>| {
        let run3 = Rc::clone(&run2);
        sim.schedule_in(run2.combine, move |w: &mut BW, sim: &mut Sim<BW>| {
            let left = {
                let mut p = run3.pending.borrow_mut();
                p[parent] -= 1;
                p[parent]
            };
            if left == 0 {
                if parent == 0 {
                    if let Some(f) = run3.on_done.borrow_mut().take() {
                        f(w, sim);
                    }
                } else {
                    gather_send_up(w, sim, Rc::clone(&run3), parent);
                }
            }
        });
    };
    let (from, to) = (run.order[idx], run.order[parent]);
    crate::p2p::wire_put(w, sim, from, to, run.bytes, "binomial gather put", deliver);
}

/// Shared state of a reduction over a round table.
struct SchedGather {
    order: Vec<NodeId>,
    sched: Rc<RoundSchedule>,
    /// Payload bytes being moved (split into `sched.blocks` shares).
    bytes: u64,
    on_done: DoneHook<BW>,
}

/// Execute round `r` of the reduction: the broadcast table's rounds last to
/// first with every edge flipped. All of a round's one-port transfers start
/// together, and the next round starts when the slowest is combined.
///
/// A round is one event, at the instant its last block is combined: nothing
/// happens at a node when a block lands, and no other event in the queue
/// can tell that one event from one per edge scheduled by this call
/// (DESIGN §14).
// PANIC-OK: compiled schedules are validated at compile time (rounds are
// in-range, peers exist).
fn sched_gather_round(w: &mut BW, sim: &mut Sim<BW>, run: Box<SchedGather>, r: usize) {
    let total = run.sched.rounds.len();
    if r == total {
        return (run.on_done)(w, sim);
    }
    let mut round_done = sim.now();
    for &(d, s, b) in &run.sched.rounds[total - 1 - r] {
        let share = coll_sched::block_len(run.bytes, run.sched.blocks, b);
        let wire = share + DESC_BYTES;
        let landed = BcsCluster::xfer_and_signal(
            w,
            sim,
            run.order[s],
            &[run.order[d]],
            wire,
            bcs_core::XsOpts::default(),
        );
        round_done = round_done.max(landed + reduce_delay(share));
    }
    sim.schedule_at(round_done, move |w: &mut BW, sim: &mut Sim<BW>| {
        sched_gather_round(w, sim, run, r + 1);
    });
}

// ----------------------------------------------------------------------
// BBM: broadcast & barrier (CH)
// ----------------------------------------------------------------------

/// The scheduled rounds of the kinds in `slots` whose master lives on
/// `node`: what its CH (barrier, broadcast) or RH (reduce) has to perform in
/// the microphase now being strobed.
fn rooted_rounds<'e>(e: &'e BcsMpi, node: NodeId, slots: &'static [usize]) -> impl Iterator<Item = RoundKey> + 'e {
    e.coll
        .rounds
        .iter()
        .filter(move |((_, slot, _), r)| {
            slots.contains(slot) && r.scheduled && r.master == node
        })
        .map(|(key, _)| *key)
}

const BBM_SLOTS: &[usize] = &[0, 1];
const RM_SLOTS: &[usize] = &[2];

/// Whether `node`'s CH has a barrier or broadcast to perform.
pub(crate) fn bbm_has_work(e: &BcsMpi, node: NodeId) -> bool {
    rooted_rounds(e, node, BBM_SLOTS).next().is_some()
}

/// Whether `node`'s RH has a reduce or allreduce to perform.
pub(crate) fn rm_has_work(e: &BcsMpi, node: NodeId) -> bool {
    rooted_rounds(e, node, RM_SLOTS).next().is_some()
}

/// CH work for one node: perform every scheduled barrier/broadcast whose
/// master lives here. Other nodes have no BBM work.
// PANIC-OK: BBM walks collective rounds installed on this node by
// post_collective; queue entries it unwraps were inserted by that path.
pub(crate) fn node_begin_bbm(w: &mut BW, sim: &mut Sim<BW>, node: NodeId) {
    let todo: Vec<RoundKey> = rooted_rounds(&w.engine, node, BBM_SLOTS).collect();
    debug_assert!(!todo.is_empty());
    w.engine.outstanding[node.0] = todo.len() as u32;
    for key in todo {
        let round = &w.engine.coll.rounds()[&key];
        match round.value.kind() {
            CollKind::Barrier => w.engine.stats.barriers += 1,
            CollKind::Bcast => w.engine.stats.bcasts += 1,
            CollKind::Reduce { .. } => unreachable!("an RM round in the BBM"),
        }
        let group = Rc::clone(w.engine.comms.group(key.0));
        let root = group.members()[round.value.root()];
        // A barrier or broadcast round holds no per-member data: closing a
        // copy hands out the root's payload by reference, and the round
        // stays in the table until its leg completes.
        let value = round.value.clone().close(combine_nic);
        let bytes = value.bytes() as u64;
        let per_dest = restart_on(&group, root, value);
        let on_done = Box::new(move |w: &mut BW, sim: &mut Sim<BW>| {
            let e = &mut w.engine;
            e.coll.edit_round(&mut e.nic, key, |round| {
                if let Entry::Occupied(round) = round {
                    round.remove();
                }
            });
            crate::protocol::work_item_done(w, sim, node);
            mpi_api::runtime::drain(w, sim);
        });
        bcast_leg(w, sim, node, &group, bytes, per_dest, on_done);
    }
}

/// The hook that completes a collective at each node the result reaches:
/// `group`'s ranks there restart at the next slice boundary with their
/// response to `value` (`root` is the root's world rank).
// PANIC-OK: `blocked` is sized per rank at startup; the ranks come from the
// communicator's group.
fn restart_on(group: &Rc<Group>, root: usize, value: Closed) -> NodeHook<BW> {
    let group = Rc::clone(group);
    Rc::new(move |w: &mut BW, sim: &mut Sim<BW>, d: NodeId| {
        for &rank in group.ranks_on(d) {
            debug_assert!(matches!(w.engine.blocked[rank], Some(Blocked::Collective)));
            w.engine.blocked[rank] = None;
            w.engine.restart_queue.push((rank, value.response(rank == root)));
        }
        mpi_api::runtime::drain(w, sim);
    })
}

/// The end of a microphase work item at `node`.
fn item_done(node: NodeId) -> DoneHook<BW> {
    Box::new(move |w: &mut BW, sim: &mut Sim<BW>| {
        crate::protocol::work_item_done(w, sim, node);
        mpi_api::runtime::drain(w, sim);
    })
}

/// One broadcast leg from `node` to every node of `group` under the active
/// algorithm, carrying `payload_bytes` plus a descriptor: `per_dest` fires
/// per node at its arrival instant, `on_done` once, at the last arrival.
fn bcast_leg(
    w: &mut BW,
    sim: &mut Sim<BW>,
    node: NodeId,
    group: &Group,
    payload_bytes: u64,
    per_dest: NodeHook<BW>,
    on_done: DoneHook<BW>,
) {
    match w.engine.cfg.coll_algo {
        CollAlgo::HwMulticast => {
            // A node the multicast cannot reach (a dead one) holds the leg
            // open, as it holds a strobe it cannot ack, until the heartbeat
            // declares it: a boundary past the leg would capture its ranks
            // blocked in a collective that no longer exists.
            let unreached = Rc::new(Cell::new(group.nodes().len()));
            let left = Rc::clone(&unreached);
            let per_instant: DeliverFn<BW> =
                Rc::new(move |w: &mut BW, sim: &mut Sim<BW>, reached: Reached<'_>| {
                    left.set(left.get() - reached.len());
                    for d in reached.nodes() {
                        per_dest(w, sim, d);
                    }
                });
            let done_at = BcsCluster::xfer_and_signal(
                w,
                sim,
                node,
                group.nodes().clone(),
                payload_bytes + DESC_BYTES,
                bcs_core::XsOpts { on_deliver: Some(per_instant) },
            );
            // The leg ends when the multicast completes (last delivery);
            // deliveries were scheduled earlier at the same instants, so
            // they run first.
            sim.schedule_at(done_at, move |w: &mut BW, sim: &mut Sim<BW>| {
                if unreached.get() == 0 {
                    on_done(w, sim);
                }
            });
        }
        CollAlgo::Binomial => {
            let (order, put) = (group.nodes_from(node), BcsEdge::Tree);
            coll_sched::binomial_bcast(w, sim, put, order, payload_bytes, per_dest, on_done)
        }
        CollAlgo::OptimalSchedule => {
            let (order, put) = (group.nodes_from(node), BcsEdge::Sched);
            let sched = w.engine.coll.scheds.table(order.len(), payload_bytes);
            coll_sched::sched_bcast(w, sim, put, order, sched, payload_bytes, per_dest, on_done)
        }
    }
}

// ----------------------------------------------------------------------
// RM: reduce & allreduce (RH)
// ----------------------------------------------------------------------

/// RH work for one node: every scheduled reduce whose master lives here.
/// Each round closes, then its RH gathers to the root and, for an
/// allreduce, broadcasts the result back — both legs under the active
/// algorithm; every gather edge carries a partial of the result's size.
// PANIC-OK: reduce/multicast rounds are installed before the strobe
// schedules this phase; per-node tables are sized by the topology, and
// `blocked` per rank at startup.
pub(crate) fn node_begin_rm(w: &mut BW, sim: &mut Sim<BW>, node: NodeId) {
    let todo: Vec<RoundKey> = rooted_rounds(&w.engine, node, RM_SLOTS).collect();
    debug_assert!(!todo.is_empty());
    w.engine.outstanding[node.0] = todo.len() as u32;

    for key in todo {
        let e = &mut w.engine;
        let round = e.coll.edit_round(&mut e.nic, key, |round| match round {
            Entry::Occupied(round) => round.remove(),
            Entry::Vacant(_) => unreachable!("a rooted round is in the table"),
        });
        let CollKind::Reduce { all } = round.value.kind() else {
            unreachable!("a BBM round in the RM")
        };
        w.engine.stats.reduces += 1;
        let group = Rc::clone(w.engine.comms.group(key.0));
        let root = group.members()[round.value.root()];
        // RH combines partials with the NIC's softfloat arithmetic; the
        // wire schedule below only determines *when* the result is ready.
        let value = round.value.close(combine_nic);
        let bytes = value.bytes();

        // What happens once the gather leg completes at the root.
        let returns = all && group.nodes().len() > 1;
        let finish: DoneHook<BW> = if returns {
            // An allreduce over several nodes: the RH broadcasts the result
            // within the reduce microphase.
            let per_dest = restart_on(&group, root, value);
            let group = Rc::clone(&group);
            Box::new(move |w: &mut BW, sim: &mut Sim<BW>| {
                bcast_leg(w, sim, node, &group, bytes as u64, per_dest, item_done(node));
            })
        } else {
            // A plain reduce (result only on the root) or a one-node
            // allreduce: every member restarts the moment the gather
            // completes.
            let group = Rc::clone(&group);
            Box::new(move |w: &mut BW, sim: &mut Sim<BW>| {
                for &rank in group.members().iter() {
                    w.engine.blocked[rank] = None;
                    w.engine.restart_queue.push((rank, value.response(rank == root)));
                }
                crate::protocol::work_item_done(w, sim, node);
                mpi_api::runtime::drain(w, sim);
            })
        };

        run_gather_leg(w, sim, node, &group, bytes, finish);
    }
}

/// Run the gather leg of a reduction: `finish` fires at the instant the
/// root holds the combined result.
///
/// * `HwMulticast`: the paper's analytic ⌈log2 n⌉-stage binomial model —
///   each stage pays latency + wire + NIC combine + descriptor
///   processing.
/// * `Binomial`: the explicit mirrored tree with real point-to-point DMAs.
/// * `OptimalSchedule`: the reversed pipelined block schedule.
fn run_gather_leg(
    w: &mut BW,
    sim: &mut Sim<BW>,
    node: NodeId,
    group: &Group,
    bytes: usize,
    finish: DoneHook<BW>,
) {
    let cfg = &w.engine.cfg;
    let wire = bytes as u64 + DESC_BYTES;
    let combine_cost = reduce_delay(bytes as u64);
    match cfg.coll_algo {
        CollAlgo::HwMulticast => {
            let levels = w.engine.bcs.fabric.net().topology().levels();
            let depth = coll_sched::binomial_depth(group.nodes().len());
            let (net, per_stage) = (&cfg.net, DESC_COST);
            let t = coll_sched::tree_time(net, levels, wire, combine_cost, per_stage, depth);
            sim.schedule_at(sim.now() + t, finish);
        }
        CollAlgo::Binomial => {
            binomial_gather(w, sim, group.nodes_from(node), wire, combine_cost, finish)
        }
        CollAlgo::OptimalSchedule => {
            let order = group.nodes_from(node);
            let sched = w.engine.coll.scheds.table(order.len(), bytes as u64);
            let run = SchedGather { order, sched, bytes: bytes as u64, on_done: finish };
            sched_gather_round(w, sim, Box::new(run), 0);
        }
    }
}

/// NIC softfloat arithmetic time for `bytes` of reduce payload.
fn reduce_delay(bytes: u64) -> SimDuration {
    SimDuration::nanos(bytes * REDUCE_NS_PER_BYTE)
}

/// NIC-side combine: floating point through the softfloat library (the NIC
/// has no FPU — §4.4), integers natively. Bit-identical to the host
/// arithmetic of the baseline, which the cross-engine tests assert.
// PANIC-OK: operand slices are sized by the dtype lane width asserted at
// post time; a mismatch is a protocol bug, not input.
pub(crate) fn combine_nic(op: ReduceOp, dtype: Datatype, a: &mut [u8], b: &[u8]) {
    assert_eq!(a.len(), b.len());
    match dtype {
        Datatype::F64 => {
            for (ca, cb) in a.chunks_exact_mut(8).zip(b.chunks_exact(8)) {
                let x = F64::from_bits(u64::from_le_bytes(ca.try_into().unwrap()));
                let y = F64::from_bits(u64::from_le_bytes(cb.try_into().unwrap()));
                let r = match op {
                    ReduceOp::Sum => x.add(y),
                    ReduceOp::Prod => x.mul(y),
                    ReduceOp::Min => x.min(y),
                    ReduceOp::Max => x.max(y),
                    ReduceOp::BAnd | ReduceOp::BOr => {
                        panic!("bitwise reduction on floating-point data")
                    }
                };
                ca.copy_from_slice(&r.to_bits().to_le_bytes());
            }
        }
        Datatype::F32 => {
            for (ca, cb) in a.chunks_exact_mut(4).zip(b.chunks_exact(4)) {
                let x = F32::from_bits(u32::from_le_bytes(ca.try_into().unwrap()));
                let y = F32::from_bits(u32::from_le_bytes(cb.try_into().unwrap()));
                let r = match op {
                    ReduceOp::Sum => x.add(y),
                    ReduceOp::Prod => x.mul(y),
                    ReduceOp::Min => x.min(y),
                    ReduceOp::Max => x.max(y),
                    ReduceOp::BAnd | ReduceOp::BOr => {
                        panic!("bitwise reduction on floating-point data")
                    }
                };
                ca.copy_from_slice(&r.to_bits().to_le_bytes());
            }
        }
        _ => combine_native(op, dtype, a, b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpi_api::datatype::ReduceBuf;
    use proplite::prelude::*;

    /// Binary64 bits with the awkward patterns weighted up: NaNs with
    /// payloads, ±0, subnormals and ±∞.
    fn f64_bits() -> impl Strategy<Value = u64> {
        prop_oneof![
            3 => any::<u64>(),
            1 => any::<u64>().prop_map(|b| b | 0x7FF0_0000_0000_0001),
            1 => any::<u64>().prop_map(|b| b & 0x800F_FFFF_FFFF_FFFF),
            1 => prop_oneof![Just(0u64), Just(1 << 63), Just(0x7FF0 << 48), Just(0xFFF0 << 48)],
        ]
    }

    /// The same weighting for binary32.
    fn f32_bits() -> impl Strategy<Value = u32> {
        prop_oneof![
            3 => any::<u32>(),
            1 => any::<u32>().prop_map(|b| b | 0x7F80_0001),
            1 => any::<u32>().prop_map(|b| b & 0x807F_FFFF),
            1 => prop_oneof![Just(0u32), Just(1 << 31), Just(0x7F80 << 16), Just(0xFF80 << 16)],
        ]
    }

    const MAX_MEMBERS: usize = 33;
    const MAX_ELEMS: usize = 5;

    proplite! {
        #![config(cases = 256)]

        /// Contributions put in any arrival order fold to the bytes of the
        /// plain ascending-rank fold, under the NIC's and the host's
        /// arithmetic, for every datatype and operator.
        #[test]
        fn the_flat_fold_equals_the_ascending_reference(
            members in 1..MAX_MEMBERS + 1,
            elems in 0..MAX_ELEMS + 1,
            dtype in 0..5usize,
            op in 0..6usize,
            wide in prop::collection::vec(f64_bits(), MAX_MEMBERS * MAX_ELEMS..MAX_MEMBERS * MAX_ELEMS + 1),
            narrow in prop::collection::vec(f32_bits(), MAX_MEMBERS * MAX_ELEMS..MAX_MEMBERS * MAX_ELEMS + 1),
            ints in prop::collection::vec(any::<u64>(), MAX_MEMBERS * MAX_ELEMS..MAX_MEMBERS * MAX_ELEMS + 1),
            arrival in prop::collection::vec(any::<u64>(), MAX_MEMBERS..MAX_MEMBERS + 1),
        ) {
            let dtype = [Datatype::U8, Datatype::I32, Datatype::I64, Datatype::F32, Datatype::F64][dtype];
            let ops = if matches!(dtype, Datatype::F32 | Datatype::F64) {
                &[ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Min, ReduceOp::Max][..]
            } else {
                &[ReduceOp::Sum, ReduceOp::Prod, ReduceOp::Min, ReduceOp::Max, ReduceOp::BAnd, ReduceOp::BOr][..]
            };
            let op = ops[op % ops.len()];
            let contribs: Vec<Vec<u8>> = (0..members)
                .map(|m| {
                    let at = m * MAX_ELEMS;
                    (at..at + elems)
                        .flat_map(|i| match dtype {
                            Datatype::F64 => wide[i].to_le_bytes().to_vec(),
                            Datatype::F32 => narrow[i].to_le_bytes().to_vec(),
                            _ => ints[i].to_le_bytes()[..dtype.size()].to_vec(),
                        })
                        .collect()
                })
                .collect();
            let mut order: Vec<usize> = (0..members).collect();
            order.sort_by_key(|&m| arrival[m]);
            for combine in [combine_nic as mpi_api::datatype::Combine, combine_native] {
                let mut reference = contribs[0].clone();
                for c in &contribs[1..] {
                    combine(op, dtype, &mut reference, c);
                }
                let mut buf = ReduceBuf::new(members);
                for &m in &order {
                    buf.put(m, &contribs[m]);
                }
                prop_assert_eq!(buf.fold(op, dtype, combine).to_vec(), reference);
            }
        }
    }

    #[test]
    fn flag_words_avoid_the_reserved_range_and_each_other() {
        let mut seen = std::collections::BTreeSet::new();
        for comm in 0..512u32 {
            for slot in 0..SLOTS_PER_COMM as usize {
                let word = flag_word(CommId(comm), slot);
                assert!(
                    word >= crate::words::RESERVED,
                    "comm{comm} slot{slot} -> {word} is a reserved protocol word"
                );
                assert_ne!(word, crate::words::MP_DONE);
                assert!(
                    seen.insert(word),
                    "comm{comm} slot{slot} -> {word} collides with another communicator"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "overflows the global-word space")]
    fn flag_word_overflow_is_caught() {
        let _ = flag_word(CommId(u32::MAX / 2), 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "collective slot out of range")]
    fn flag_word_rejects_out_of_range_slots() {
        let _ = flag_word(CommId(0), SLOTS_PER_COMM as usize);
    }

    #[test]
    fn every_kind_maps_to_a_distinct_slot_below_the_window() {
        let kinds = [
            CollKind::Barrier,
            CollKind::Bcast,
            CollKind::Reduce { all: false },
            CollKind::Reduce { all: true },
        ];
        let mut slots = std::collections::BTreeSet::new();
        for k in kinds {
            assert!((k.slot() as u32) < SLOTS_PER_COMM);
            slots.insert(k.slot());
        }
        assert_eq!(slots.len(), 3, "both reduce variants share a slot");
    }
}
