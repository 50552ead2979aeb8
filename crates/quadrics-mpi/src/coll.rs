//! Baseline collectives.
//!
//! * **Barrier** — arrival counting plus one hardware network conditional
//!   (QsNet's hardware barrier), so its cost is `last_arrival + O(µs)`.
//!   The conditional is used under *every* [`CollAlgo`]: a barrier moves no
//!   payload, so there is nothing for a schedule to pipeline.
//! * **Broadcast** — algorithm-selected ([`QuadricsConfig::coll_algo`]):
//!   the root's hardware multicast, an explicit binomial tree of
//!   point-to-point puts, or the precomputed pipelined round schedule of
//!   [`mpi_api::coll_sched`]. Receivers get the payload at
//!   `max(their_arrival, delivery)`.
//! * **Reduce / Allreduce / Allgatherv** — software tree with *host*
//!   arithmetic (the baseline has no NIC reduce — that is BCS-MPI's Reduce
//!   Helper territory): analytic timing. The gather leg is the classic
//!   `ceil(log2 n)` binomial tree under `HwMulticast` and `Binomial` (the
//!   baseline's software tree *is* binomial), or the reversed pipelined
//!   schedule's round count under `OptimalSchedule`; the result-return leg
//!   of allreduce/allgatherv is priced per algorithm. Values are combined
//!   in ascending rank order so both engines produce bit-identical results.
//!
//! Ranks may be in different collectives simultaneously (a non-root rank
//! leaves a reduce as soon as its contribution is sent), so rounds are keyed
//! by per-rank invocation counters — MPI's "same order on all ranks" rule
//! makes the counters line up.

use crate::engine::QuadricsMpi;
use mpi_api::call::MpiResp;
use mpi_api::coll_sched::{self, CollAlgo, RoundSchedule};
use mpi_api::comm::{CommId, RoundCounters};
use mpi_api::datatype::{Datatype, ReduceOp, combine_native};
use mpi_api::payload::Payload;
use mpi_api::runtime::{ClusterWorld, drain, resume_at};
use qsnet::NodeId;
use qsnet::model::log2_ceil;
use simcore::{Sim, SimDuration};
use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

type QW = ClusterWorld<QuadricsMpi>;

#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
enum Kind {
    Barrier,
    Bcast,
    Reduce,
    Allgather,
}

#[derive(Default)]
struct Round {
    arrived: usize,
    /// Ranks blocked in this round, with the response they await.
    waiters: Vec<usize>,
    /// Bcast: payload once the root has arrived.
    payload: Option<Payload>,
    /// Bcast: ranks whose node has received the payload.
    delivered: BTreeMap<usize, bool>,
    /// Bcast: ranks already resumed (round ends when == size).
    resumed: usize,
    /// Reduce/allgather: per-rank contributions.
    contribs: Vec<Option<Payload>>,
    /// Reduce: (root, op, dtype, all) — asserted consistent across ranks.
    params: Option<(usize, ReduceOp, Datatype, bool)>,
}

/// Collective bookkeeping for the baseline engine. Rounds are keyed by
/// communicator so sub-communicator collectives proceed independently.
/// `BTreeMap`s keep every walk deterministic by construction.
#[derive(Default)]
pub struct CollManager {
    rounds: BTreeMap<(CommId, Kind, u64), Round>,
    /// Invocation counters per member: [barrier, bcast, reduce, allgather].
    counters: RoundCounters,
    /// Round-schedule tables keyed by (participants, block count).
    sched_cache: BTreeMap<(usize, usize), Rc<RoundSchedule>>,
}

impl CollManager {
    /// Join member `comm_rank`'s next round of `kind` on `comm`.
    fn enter(&mut self, comm: CommId, kind: Kind, comm_rank: usize, comm_size: usize) -> u64 {
        let slot = match kind {
            Kind::Barrier => 0,
            Kind::Bcast => 1,
            Kind::Reduce => 2,
            Kind::Allgather => 3,
        };
        let id = self.counters.enter(comm, comm_rank, slot);
        let round = self.rounds.entry((comm, kind, id)).or_default();
        if round.contribs.is_empty() {
            round.contribs = vec![None; comm_size];
        }
        round.arrived += 1;
        id
    }

    fn sched_for(&mut self, participants: usize, blocks: usize) -> Rc<RoundSchedule> {
        Rc::clone(
            self.sched_cache
                .entry((participants, blocks))
                .or_insert_with(|| Rc::new(coll_sched::bcast_schedule(participants, blocks))),
        )
    }

    pub fn describe(&self) -> String {
        self.rounds
            .iter()
            .map(|((comm, kind, id), round)| {
                format!(
                    "  collective {comm:?} {kind:?}#{id}: {} arrived, {} waiting\n",
                    round.arrived,
                    round.waiters.len()
                )
            })
            .collect()
    }

    // ------------------------------------------------------------------

    pub fn barrier(w: &mut QW, sim: &mut Sim<QW>, rank: usize, comm: CommId) {
        let size = w.engine.comms.size_of(comm);
        let local_rank = w.engine.comms.comm_rank(comm, rank);
        let id = w.engine.coll.enter(comm, Kind::Barrier, local_rank, size);
        let round = w.engine.coll.rounds.get_mut(&(comm, Kind::Barrier, id)).unwrap();
        round.waiters.push(rank);
        if round.arrived == size {
            let waiters = std::mem::take(&mut round.waiters);
            w.engine.coll.rounds.remove(&(comm, Kind::Barrier, id));
            w.engine.stats.barriers += 1;
            let span = w.engine.comms.group(comm).nodes().len();
            let src = w.engine.layout.node_of(rank);
            w.engine.fabric.conditional(sim, src, span, move |w: &mut QW, sim| {
                for r in waiters {
                    w.resume(r, MpiResp::Ok);
                }
                drain(w, sim);
            });
        }
    }

    /// `MPI_Comm_split`: a collective over the parent that completes at
    /// the last arrival plus one hardware conditional (membership
    /// agreement rides the same control exchange as a barrier).
    pub fn comm_split(w: &mut QW, sim: &mut Sim<QW>, rank: usize, parent: CommId, color: i64, key: i64) {
        // Every caller but the last stays blocked until the round closes.
        let Some(outcome) = w.engine.comms.arrive_split(parent, rank, color, key) else {
            return;
        };
        let span = w.engine.comms.group(parent).nodes().len();
        let src = w.engine.layout.node_of(rank);
        w.engine.fabric.conditional(sim, src, span, move |w: &mut QW, sim| {
            for (r, handle) in outcome.assignments {
                w.resume(r, MpiResp::CommSplitDone { handle });
            }
            drain(w, sim);
        });
    }

    // ------------------------------------------------------------------

    pub fn bcast(
        w: &mut QW,
        sim: &mut Sim<QW>,
        rank: usize,
        comm: CommId,
        root: usize,
        data: Option<Payload>,
    ) {
        let size = w.engine.comms.size_of(comm);
        let root_world = w.engine.comms.members(comm)[root];
        let local_rank = w.engine.comms.comm_rank(comm, rank);
        let id = w.engine.coll.enter(comm, Kind::Bcast, local_rank, size);
        let key = (comm, Kind::Bcast, id);

        if rank == root_world {
            let payload = data.expect("bcast root must supply data");
            let plen = payload.len() as u64;
            let bytes = plen + w.engine.cfg.header_bytes;
            {
                let round = w.engine.coll.rounds.get_mut(&key).unwrap();
                round.payload = Some(payload);
                round.waiters.push(rank);
            }
            w.engine.stats.bcasts += 1;
            let group = Rc::clone(w.engine.comms.group(comm));
            let src = w.engine.layout.node_of(root_world);
            let per_node: Rc<dyn Fn(&mut QW, &mut Sim<QW>, NodeId)> = {
                let group = Rc::clone(&group);
                Rc::new(move |w: &mut QW, sim: &mut Sim<QW>, node: NodeId| {
                    for &r in group.ranks_on(node) {
                        Self::bcast_delivered(w, key, r);
                    }
                    drain(w, sim);
                })
            };
            match w.engine.cfg.coll_algo {
                CollAlgo::HwMulticast => {
                    let per_instant: qsnet::fabric::DeliverFn<QW> =
                        Rc::new(move |w: &mut QW, sim: &mut Sim<QW>, reached: qsnet::Reached<'_>| {
                            for node in reached.nodes() {
                                per_node(w, sim, node);
                            }
                        });
                    w.engine
                        .fabric
                        .multicast(sim, src, group.nodes().clone(), bytes, Some(per_instant), |_, _| {});
                }
                CollAlgo::Binomial => {
                    let order = Rc::new(group.nodes_from(src));
                    tree_forward(w, sim, order, 0, bytes, per_node);
                }
                CollAlgo::OptimalSchedule => {
                    let order = group.nodes_from(src);
                    let blocks = coll_sched::block_count(plen);
                    let sched = w.engine.coll.sched_for(order.len(), blocks);
                    sched_bcast(w, sim, order, sched, plen, per_node);
                }
            }
        } else {
            let round = w.engine.coll.rounds.get_mut(&key).unwrap();
            if *round.delivered.get(&rank).unwrap_or(&false) {
                // Payload already landed on our node: take the data now.
                let payload = round.payload.clone().expect("delivered without payload");
                round.resumed += 1;
                let done = round.resumed == size;
                if done {
                    w.engine.coll.rounds.remove(&key);
                }
                w.resume(rank, MpiResp::Data(payload));
            } else {
                round.waiters.push(rank);
            }
        }
    }

    fn bcast_delivered(w: &mut QW, key: (CommId, Kind, u64), rank: usize) {
        let size = w.engine.comms.size_of(key.0);
        let Some(round) = w.engine.coll.rounds.get_mut(&key) else {
            return;
        };
        round.delivered.insert(rank, true);
        if let Some(i) = round.waiters.iter().position(|&r| r == rank) {
            round.waiters.remove(i);
            let payload = round
                .payload
                .clone()
                .expect("payload delivered before root arrival");
            round.resumed += 1;
            if round.resumed == size {
                w.engine.coll.rounds.remove(&key);
            }
            w.resume(rank, MpiResp::Data(payload));
        }
    }

    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    pub fn reduce(
        w: &mut QW,
        sim: &mut Sim<QW>,
        rank: usize,
        comm: CommId,
        root: usize,
        op: ReduceOp,
        dtype: Datatype,
        data: Payload,
        all: bool,
    ) {
        let size = w.engine.comms.size_of(comm);
        let root_world = w.engine.comms.members(comm)[root];
        let local_rank = w.engine.comms.comm_rank(comm, rank);
        let id = w.engine.coll.enter(comm, Kind::Reduce, local_rank, size);
        let key = (comm, Kind::Reduce, id);
        let host_overhead = w.engine.cfg.net.host_overhead;
        let bytes = data.len();
        {
            let round = w.engine.coll.rounds.get_mut(&key).unwrap();
            assert!(
                round.contribs[local_rank].is_none(),
                "rank {rank} contributed twice to reduce #{id}"
            );
            round.contribs[local_rank] = Some(data);
            match &round.params {
                None => round.params = Some((root, op, dtype, all)),
                Some(p) => assert_eq!(
                    *p,
                    (root, op, dtype, all),
                    "mismatched reduce parameters across ranks"
                ),
            }
            if all || rank == root_world {
                round.waiters.push(rank);
            }
        }
        if !all && rank != root_world {
            // Leaf of the software tree: locally complete once the partial
            // is handed to the NIC.
            resume_at(w, sim, sim.now() + host_overhead, rank, MpiResp::RootData(None));
        }

        let arrived = w.engine.coll.rounds.get(&key).unwrap().arrived;
        if arrived < size {
            return;
        }

        // All contributions in: fold in ascending rank order, then charge
        // the algorithm's tree/schedule time.
        let mut round = w.engine.coll.rounds.remove(&key).unwrap();
        w.engine.stats.reduces += 1;
        let mut acc: Option<Vec<u8>> = None;
        for c in round.contribs.iter_mut() {
            let c = c.take().expect("missing contribution");
            match &mut acc {
                None => acc = Some(c.into_vec()),
                Some(a) => combine_native(op, dtype, a, &c),
            }
        }
        let value = Payload::from_vec(acc.unwrap_or_default());

        let mut done_at =
            sim.now() + Self::gather_time(w, size, bytes, true);
        if all && size > 1 {
            done_at = done_at + Self::return_leg_time(w, size, bytes);
        }

        let waiters = std::mem::take(&mut round.waiters);
        for r in waiters {
            let resp = if all {
                MpiResp::Data(value.clone())
            } else if r == root_world {
                MpiResp::RootData(Some(value.clone()))
            } else {
                MpiResp::RootData(None)
            };
            resume_at(w, sim, done_at, r, resp);
        }
    }

    // ------------------------------------------------------------------

    pub fn allgatherv(w: &mut QW, sim: &mut Sim<QW>, rank: usize, comm: CommId, data: Payload) {
        let size = w.engine.comms.size_of(comm);
        let local_rank = w.engine.comms.comm_rank(comm, rank);
        let id = w.engine.coll.enter(comm, Kind::Allgather, local_rank, size);
        let key = (comm, Kind::Allgather, id);
        {
            let round = w.engine.coll.rounds.get_mut(&key).unwrap();
            assert!(
                round.contribs[local_rank].is_none(),
                "rank {rank} contributed twice to allgather #{id}"
            );
            round.contribs[local_rank] = Some(data);
            round.waiters.push(rank);
            if round.arrived < size {
                return;
            }
        }

        // Everyone is in: concatenate in ascending communicator-rank order
        // (the value plane — identical under every algorithm), then charge
        // a gather leg without combine cost plus the return broadcast.
        let mut round = w.engine.coll.rounds.remove(&key).unwrap();
        w.engine.stats.allgathers += 1;
        let parts: Vec<Payload> = round
            .contribs
            .iter_mut()
            .map(|c| c.take().expect("missing allgather contribution"))
            .collect();
        let total: usize = parts.iter().map(|p| p.len()).sum();

        let mut done_at = sim.now() + Self::gather_time(w, size, total, false);
        if size > 1 {
            done_at = done_at + Self::return_leg_time(w, size, total);
        }
        let waiters = std::mem::take(&mut round.waiters);
        for r in waiters {
            resume_at(
                w,
                sim,
                done_at,
                r,
                MpiResp::Gathered {
                    parts: parts.clone(),
                },
            );
        }
    }

    // ------------------------------------------------------------------

    /// Time for the software gather leg over `size` participants moving
    /// `bytes` of payload toward the root, per the active algorithm.
    ///
    /// `HwMulticast` and `Binomial` share the classic analytic binomial
    /// tree — the baseline's software reduce *is* binomial, so the explicit
    /// algorithm and the analytic model coincide. `OptimalSchedule` pays
    /// the reversed pipelined schedule's round count on block-sized wires.
    fn gather_time(w: &mut QW, size: usize, bytes: usize, combine: bool) -> SimDuration {
        let net = w.engine.cfg.net.clone();
        let levels = w.engine.fabric.net().topology().levels();
        let rnpb = w.engine.cfg.reduce_ns_per_byte;
        let combine_ns = |payload: u64| {
            if combine {
                SimDuration::nanos((payload as f64 * rnpb) as u64)
            } else {
                SimDuration::ZERO
            }
        };
        match w.engine.cfg.coll_algo {
            CollAlgo::HwMulticast | CollAlgo::Binomial => {
                let depth = if size <= 1 { 0 } else { log2_ceil(size) };
                let wire = bytes as u64 + w.engine.cfg.header_bytes;
                let stage = net.unicast_latency(levels * 2)
                    + net.tx_time(wire)
                    + combine_ns(bytes as u64)
                    + net.host_overhead;
                stage * depth as u64
            }
            CollAlgo::OptimalSchedule => {
                let blocks = coll_sched::block_count(bytes as u64);
                let sched = w.engine.coll.sched_for(size, blocks);
                let share = coll_sched::block_len(bytes as u64, blocks, 0);
                let wire = share + w.engine.cfg.header_bytes;
                let stage = net.unicast_latency(levels * 2)
                    + net.tx_time(wire)
                    + combine_ns(share)
                    + net.host_overhead;
                stage * sched.rounds.len() as u64
            }
        }
    }

    /// Time for the result-return leg of allreduce/allgatherv: one
    /// hardware multicast, a binomial unicast tree, or the pipelined
    /// schedule's rounds.
    fn return_leg_time(w: &mut QW, size: usize, bytes: usize) -> SimDuration {
        let net = w.engine.cfg.net.clone();
        let levels = w.engine.fabric.net().topology().levels();
        let wire = bytes as u64 + w.engine.cfg.header_bytes;
        match w.engine.cfg.coll_algo {
            CollAlgo::HwMulticast => net.mcast_latency(size, levels) + net.mcast_tx_time(wire),
            CollAlgo::Binomial => {
                let depth = if size <= 1 { 0 } else { log2_ceil(size) };
                let stage =
                    net.unicast_latency(levels * 2) + net.tx_time(wire) + net.host_overhead;
                stage * depth as u64
            }
            CollAlgo::OptimalSchedule => {
                let blocks = coll_sched::block_count(bytes as u64);
                let sched = w.engine.coll.sched_for(size, blocks);
                let share = coll_sched::block_len(bytes as u64, blocks, 0);
                let stage = net.unicast_latency(levels * 2)
                    + net.tx_time(share + w.engine.cfg.header_bytes)
                    + net.host_overhead;
                stage * sched.rounds.len() as u64
            }
        }
    }
}

/// Binomial broadcast over point-to-point puts: each node forwards to its
/// subtree children (largest subtree first) the instant the payload lands.
/// `per_node` fires at every node's arrival instant, the root's
/// immediately.
fn tree_forward(
    w: &mut QW,
    sim: &mut Sim<QW>,
    order: Rc<Vec<NodeId>>,
    idx: usize,
    bytes: u64,
    per_node: Rc<dyn Fn(&mut QW, &mut Sim<QW>, NodeId)>,
) {
    per_node(w, sim, order[idx]);
    let children = coll_sched::binomial_children(idx, order.len());
    for &c in children.iter().rev() {
        let (order2, per2) = (Rc::clone(&order), Rc::clone(&per_node));
        let src = order[idx];
        let dst = order[c];
        w.engine.fabric.put(sim, src, dst, bytes, move |w: &mut QW, sim| {
            tree_forward(w, sim, order2, c, bytes, per2);
        });
    }
}

struct SchedBcast {
    order: Vec<NodeId>,
    sched: Rc<RoundSchedule>,
    bytes: u64,
    hdr: u64,
    /// Blocks received per position; `per_node` fires on the last one.
    got: RefCell<Vec<usize>>,
    per_node: Rc<dyn Fn(&mut QW, &mut Sim<QW>, NodeId)>,
}

/// Pipelined block broadcast: the rounds of the precomputed schedule, each
/// synchronized on its slowest one-port transfer.
fn sched_bcast(
    w: &mut QW,
    sim: &mut Sim<QW>,
    order: Vec<NodeId>,
    sched: Rc<RoundSchedule>,
    bytes: u64,
    per_node: Rc<dyn Fn(&mut QW, &mut Sim<QW>, NodeId)>,
) {
    per_node(w, sim, order[0]);
    let nn = order.len();
    let run = Rc::new(SchedBcast {
        order,
        sched,
        bytes,
        hdr: w.engine.cfg.header_bytes,
        got: RefCell::new(vec![0; nn]),
        per_node,
    });
    sched_bcast_round(w, sim, run, 0);
}

fn sched_bcast_round(w: &mut QW, sim: &mut Sim<QW>, run: Rc<SchedBcast>, r: usize) {
    if r == run.sched.rounds.len() {
        return;
    }
    let edges = &run.sched.rounds[r];
    let remaining = Rc::new(Cell::new(edges.len()));
    for &(s, d, b) in edges {
        let share = coll_sched::block_len(run.bytes, run.sched.blocks, b);
        let (run2, rem) = (Rc::clone(&run), Rc::clone(&remaining));
        let (src, dst) = (run.order[s], run.order[d]);
        w.engine
            .fabric
            .put(sim, src, dst, share + run.hdr, move |w: &mut QW, sim| {
                let complete = {
                    let mut g = run2.got.borrow_mut();
                    g[d] += 1;
                    g[d] == run2.sched.blocks
                };
                if complete {
                    (run2.per_node)(w, sim, run2.order[d]);
                }
                rem.set(rem.get() - 1);
                if rem.get() == 0 {
                    sched_bcast_round(w, sim, run2, r + 1);
                }
            });
    }
}
