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
//!   of allreduce/allgatherv is priced per algorithm. Both legs are
//!   [`coll_sched::tree_time`]. Contributions land in one flat buffer
//!   ([`ReduceBuf`]) folded in ascending rank order, so both engines produce
//!   bit-identical results.
//!
//! The two broadcast executors are `mpi_api::coll_sched`'s, shared with
//! BCS-MPI; this engine's issue primitive for both is [`HeaderPut`].
//!
//! Ranks may be in different collectives simultaneously (a non-root rank
//! leaves a reduce as soon as its contribution is sent), so rounds are keyed
//! by per-rank invocation counters — MPI's "same order on all ranks" rule
//! makes the counters line up.

use crate::engine::{HEADER_BYTES, QuadricsMpi, REDUCE_NS_PER_BYTE};
use mpi_api::call::MpiResp;
use mpi_api::coll_sched::{self, CollAlgo, EdgePut, NodeHook, SchedCache};
use mpi_api::comm::{CommId, RoundCounters};
use mpi_api::datatype::{Datatype, ReduceBuf, ReduceOp, RoundData, combine_native};
use mpi_api::payload::Payload;
use mpi_api::runtime::{ClusterWorld, drain, resume_at};
use qsnet::NodeId;
use simcore::{Sim, SimDuration};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

type QW = ClusterWorld<QuadricsMpi>;

/// A collective kind; its discriminant is its slot in the round counters.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
enum Kind {
    Barrier,
    Bcast,
    Reduce,
    Allgather,
}

impl Kind {
    /// An open round's empty data for a collective of this kind.
    fn round_data(self, members: usize) -> RoundData {
        match self {
            Kind::Barrier => RoundData::Barrier,
            Kind::Bcast => RoundData::Bcast(None),
            Kind::Reduce => RoundData::Reduce(ReduceBuf::new(members)),
            Kind::Allgather => RoundData::Allgather(vec![None; members]),
        }
    }
}

struct Round {
    /// What the members bring, by kind; a broadcast's payload once the root
    /// has arrived.
    data: RoundData,
    arrived: usize,
    /// Ranks blocked in this round, with the response they await.
    waiters: Vec<usize>,
    /// Bcast: ranks whose node has received the payload.
    delivered: BTreeSet<usize>,
    /// Bcast: ranks already resumed (round ends when == size).
    resumed: usize,
    /// Reduce: (root, op, dtype, all) — asserted consistent across ranks.
    params: Option<(usize, ReduceOp, Datatype, bool)>,
}

/// Collective bookkeeping for the baseline engine. Rounds are keyed by
/// communicator so sub-communicator collectives proceed independently.
/// `BTreeMap`s keep every walk deterministic by construction.
#[derive(Default)]
pub struct CollManager {
    rounds: BTreeMap<(CommId, Kind, u64), Round>,
    /// Invocation counters per member and [`Kind`].
    counters: RoundCounters,
    scheds: SchedCache,
}

impl CollManager {
    /// Join member `comm_rank`'s next round of `kind` on `comm`.
    fn enter(&mut self, comm: CommId, kind: Kind, comm_rank: usize, comm_size: usize) -> u64 {
        let id = self.counters.enter(comm, comm_rank, kind as usize);
        let round = self.rounds.entry((comm, kind, id)).or_insert_with(|| Round {
            data: kind.round_data(comm_size),
            arrived: 0,
            waiters: Vec::new(),
            delivered: BTreeSet::new(),
            resumed: 0,
            params: None,
        });
        round.arrived += 1;
        id
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
            let bytes = plen + HEADER_BYTES;
            {
                let round = w.engine.coll.rounds.get_mut(&key).unwrap();
                round.data = RoundData::Bcast(Some(payload));
                round.waiters.push(rank);
            }
            w.engine.stats.bcasts += 1;
            let group = Rc::clone(w.engine.comms.group(comm));
            let src = w.engine.layout.node_of(root_world);
            let per_node: NodeHook<QW> = {
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
                    let order = group.nodes_from(src);
                    let on_done = Box::new(|_: &mut QW, _: &mut Sim<QW>| {});
                    coll_sched::binomial_bcast(w, sim, HeaderPut, order, plen, per_node, on_done);
                }
                CollAlgo::OptimalSchedule => {
                    let order = group.nodes_from(src);
                    let sched = w.engine.coll.scheds.table(order.len(), plen);
                    let on_done = Box::new(|_: &mut QW, _: &mut Sim<QW>| {});
                    coll_sched::sched_bcast(w, sim, HeaderPut, order, sched, plen, per_node, on_done);
                }
            }
        } else {
            let round = w.engine.coll.rounds.get_mut(&key).unwrap();
            if round.delivered.contains(&rank) {
                // Payload already landed on our node: take the data now.
                Self::bcast_take(w, key, rank);
            } else {
                round.waiters.push(rank);
            }
        }
    }

    fn bcast_delivered(w: &mut QW, key: (CommId, Kind, u64), rank: usize) {
        let Some(round) = w.engine.coll.rounds.get_mut(&key) else {
            return;
        };
        round.delivered.insert(rank);
        if let Some(i) = round.waiters.iter().position(|&r| r == rank) {
            round.waiters.remove(i);
            Self::bcast_take(w, key, rank);
        }
    }

    /// `rank` is in the call and its node holds the payload: hand it over;
    /// the last member to take it closes the round.
    fn bcast_take(w: &mut QW, key: (CommId, Kind, u64), rank: usize) {
        let size = w.engine.comms.size_of(key.0);
        let round = w.engine.coll.rounds.get_mut(&key).expect("an open broadcast round");
        let RoundData::Bcast(Some(payload)) = &round.data else {
            panic!("payload delivered before root arrival")
        };
        let payload = payload.clone();
        round.resumed += 1;
        if round.resumed == size {
            w.engine.coll.rounds.remove(&key);
        }
        w.resume(rank, MpiResp::Data(payload));
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
            let RoundData::Reduce(contribs) = &mut round.data else {
                unreachable!("a reduce round")
            };
            assert!(!contribs.has(local_rank), "rank {rank} contributed twice to reduce #{id}");
            contribs.put(local_rank, &data);
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
        let RoundData::Reduce(contribs) = round.data else { unreachable!("a reduce round") };
        let value = contribs.fold(op, dtype, combine_native);

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
            let RoundData::Allgather(parts) = &mut round.data else {
                unreachable!("an allgather round")
            };
            assert!(
                parts[local_rank].is_none(),
                "rank {rank} contributed twice to allgather #{id}"
            );
            parts[local_rank] = Some(data);
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
        let RoundData::Allgather(parts) = round.data else { unreachable!("an allgather round") };
        let parts: Vec<Payload> =
            parts.into_iter().map(|c| c.expect("missing allgather contribution")).collect();
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
        let sched = w.engine.cfg.coll_algo == CollAlgo::OptimalSchedule;
        Self::tree_leg_time(w, size, bytes, combine, sched)
    }

    /// Time for the result-return leg of allreduce/allgatherv: one
    /// hardware multicast, a binomial unicast tree, or the pipelined
    /// schedule's rounds.
    fn return_leg_time(w: &mut QW, size: usize, bytes: usize) -> SimDuration {
        match w.engine.cfg.coll_algo {
            CollAlgo::HwMulticast => {
                let (net, wire) = (&w.engine.cfg.net, bytes as u64 + HEADER_BYTES);
                let levels = w.engine.fabric.net().topology().levels();
                net.mcast_latency(size, levels) + net.mcast_tx_time(wire)
            }
            CollAlgo::Binomial => Self::tree_leg_time(w, size, bytes, false, false),
            CollAlgo::OptimalSchedule => Self::tree_leg_time(w, size, bytes, false, true),
        }
    }

    /// An analytic tree leg over `size` participants: ⌈log2 size⌉ stages
    /// carrying all `bytes`, or (`sched`) the round table's rounds carrying
    /// its first block; each stage pays the host combine when `combine`.
    fn tree_leg_time(
        w: &mut QW,
        size: usize,
        bytes: usize,
        combine: bool,
        sched: bool,
    ) -> SimDuration {
        let (stages, payload) = if sched {
            let table = w.engine.coll.scheds.table(size, bytes as u64);
            (table.rounds.len(), coll_sched::block_len(bytes as u64, table.blocks, 0))
        } else {
            (coll_sched::binomial_depth(size), bytes as u64)
        };
        let cfg = &w.engine.cfg;
        let combine_ns = if combine {
            SimDuration::nanos(payload * REDUCE_NS_PER_BYTE)
        } else {
            SimDuration::ZERO
        };
        let levels = w.engine.fabric.net().topology().levels();
        let wire = payload + HEADER_BYTES;
        coll_sched::tree_time(&cfg.net, levels, wire, combine_ns, cfg.net.host_overhead, stages)
    }
}

/// The baseline's issue primitive for every broadcast edge: a fabric put
/// of the payload and its header.
struct HeaderPut;

impl EdgePut<QW> for HeaderPut {
    fn put(
        &self,
        w: &mut QW,
        sim: &mut Sim<QW>,
        from: NodeId,
        to: NodeId,
        bytes: u64,
        landed: impl Fn(&mut QW, &mut Sim<QW>) + 'static,
    ) {
        let wire = bytes + HEADER_BYTES;
        w.engine.fabric.put(sim, from, to, wire, landed);
    }
}
