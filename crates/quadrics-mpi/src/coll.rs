//! Baseline collectives: this engine's time plane over the shared round
//! ([`mpi_api::round`]). Every collective call takes one post path
//! ([`CollManager::post`]): it joins the member's round — where the value
//! plane stores its contribution and checks its call against the round's —
//! and then runs its kind's timing.
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
//! * **Reduce / Allreduce** — software tree with *host*
//!   arithmetic (the baseline has no NIC reduce — that is BCS-MPI's Reduce
//!   Helper territory): analytic timing. The gather leg is the classic
//!   `ceil(log2 n)` binomial tree under `HwMulticast` and `Binomial` (the
//!   baseline's software tree *is* binomial), or the reversed pipelined
//!   schedule's round count under `OptimalSchedule`; the result-return leg
//!   of allreduce is priced per algorithm. Both legs are
//!   [`coll_sched::tree_time`]. The round closes with
//!   [`combine_native`], bit-identical to BCS-MPI's NIC arithmetic.
//!
//! The two broadcast executors are `mpi_api::coll_sched`'s, shared with
//! BCS-MPI; this engine's issue primitive for both is [`HeaderPut`].
//!
//! Ranks may be in different collectives simultaneously (a non-root rank
//! leaves a reduce as soon as its contribution is sent), so rounds are keyed
//! by per-rank invocation counters — MPI's "same order on all ranks" rule
//! makes the counters line up.
//!
//! [`QuadricsConfig::coll_algo`]: crate::QuadricsConfig::coll_algo

use crate::engine::{HEADER_BYTES, QuadricsMpi, REDUCE_NS_PER_BYTE};
use mpi_api::call::MpiResp;
use mpi_api::coll_sched::{self, CollAlgo, EdgePut, NodeHook, SchedCache};
use mpi_api::comm::{CommId, RoundCounters};
use mpi_api::datatype::combine_native;
use mpi_api::round::{CollCall, CollKind, Round};
use mpi_api::runtime::{ClusterWorld, drain, resume_at};
use qsnet::NodeId;
use simcore::{Sim, SimDuration};
use std::collections::{BTreeMap, BTreeSet};
use std::rc::Rc;

type QW = ClusterWorld<QuadricsMpi>;

/// A round's key: `(comm, slot, round)`.
type RoundKey = (CommId, usize, u64);

/// An open round: its value plane and who waits on it.
struct Open {
    round: Round,
    /// World rank of the root.
    root: usize,
    /// Ranks blocked in this round.
    waiters: Vec<usize>,
    /// Bcast: ranks whose node has received the payload.
    delivered: BTreeSet<usize>,
    /// Bcast: ranks already resumed (round ends when == size).
    resumed: usize,
}

/// Collective bookkeeping for the baseline engine. Rounds are keyed by
/// communicator so sub-communicator collectives proceed independently.
/// `BTreeMap`s keep every walk deterministic by construction.
#[derive(Default)]
pub struct CollManager {
    rounds: BTreeMap<RoundKey, Open>,
    /// Invocation counters per member and [`CollKind::slot`].
    counters: RoundCounters,
    scheds: SchedCache,
}

impl CollManager {
    pub fn describe(&self) -> String {
        self.rounds
            .iter()
            .map(|((comm, _, id), open)| {
                format!(
                    "  collective {comm:?} {:?}#{id}: {} arrived, {} waiting\n",
                    open.round.kind(),
                    open.round.arrived(),
                    open.waiters.len()
                )
            })
            .collect()
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

    /// Every collective call: join `rank`'s round of `call`'s kind on
    /// `comm`, then run the kind's time plane — the broadcast from the
    /// root's arrival on, the rest once the last member is in.
    pub fn post(w: &mut QW, sim: &mut Sim<QW>, rank: usize, comm: CommId, call: CollCall) {
        let e = &mut w.engine;
        let group = e.comms.group(comm);
        let (size, member) = (group.size(), group.comm_rank(rank));
        let kind = call.kind;
        let id = e.coll.counters.enter(comm, member, kind.slot());
        let key = (comm, kind.slot(), id);
        let root = group.members()[call.root];
        let bytes = call.data.as_ref().map_or(0, |d| d.len());
        let open = e.coll.rounds.entry(key).or_insert_with(|| Open {
            round: Round::open(&call, size),
            root,
            waiters: Vec::new(),
            delivered: BTreeSet::new(),
            resumed: 0,
        });
        open.round.join(member, call);
        match kind {
            CollKind::Bcast if rank == root => {
                open.waiters.push(rank);
                Self::bcast_from_root(w, sim, key, root, bytes as u64);
                return;
            }
            CollKind::Bcast => {
                if open.delivered.contains(&rank) {
                    // Payload already landed on our node: take the data now.
                    Self::bcast_take(w, key, rank);
                } else {
                    open.waiters.push(rank);
                }
                return;
            }
            CollKind::Barrier | CollKind::Reduce { .. } => {}
        }
        let complete = open.round.arrived() == size;
        match kind.leaf_response(rank == root) {
            // Leaf of the software tree: locally complete once the partial
            // is handed to the NIC.
            Some(resp) => resume_at(w, sim, sim.now() + w.engine.cfg.net.host_overhead, rank, resp),
            None => open.waiters.push(rank),
        }
        if !complete {
            return;
        }
        let open = w.engine.coll.rounds.remove(&key).expect("the round just joined");
        let stats = &mut w.engine.stats;
        match kind {
            CollKind::Barrier => stats.barriers += 1,
            CollKind::Bcast => unreachable!("a broadcast closes as its members take the payload"),
            CollKind::Reduce { .. } => stats.reduces += 1,
        }
        let value = open.round.close(combine_native);
        let waiters = open.waiters;
        if kind == CollKind::Barrier {
            // One hardware network conditional from the last arrival.
            let span = w.engine.comms.group(comm).nodes().len();
            let src = w.engine.layout.node_of(rank);
            w.engine.fabric.conditional(sim, src, span, move |w: &mut QW, sim| {
                for r in waiters {
                    w.resume(r, value.response(r == root));
                }
                drain(w, sim);
            });
            return;
        }
        // Everyone is in and the value is folded: charge the gather leg,
        // with the host combine — the classic binomial tree under
        // `HwMulticast` and `Binomial` (the baseline's software reduce *is*
        // binomial), the reversed pipelined schedule's rounds under
        // `OptimalSchedule` — then the return leg of an allreduce.
        let bytes = value.bytes();
        let sched = w.engine.cfg.coll_algo == CollAlgo::OptimalSchedule;
        let mut done_at = sim.now() + Self::tree_leg_time(w, size, bytes, true, sched);
        if kind == (CollKind::Reduce { all: true }) && size > 1 {
            done_at += Self::return_leg_time(w, size, bytes);
        }
        for r in waiters {
            resume_at(w, sim, done_at, r, value.response(r == root));
        }
    }

    /// The root is in: broadcast `plen` payload bytes from its node under
    /// the active algorithm; each member takes the payload once both it and
    /// the payload are there.
    fn bcast_from_root(w: &mut QW, sim: &mut Sim<QW>, key: RoundKey, root: usize, plen: u64) {
        let bytes = plen + HEADER_BYTES;
        w.engine.stats.bcasts += 1;
        let group = Rc::clone(w.engine.comms.group(key.0));
        let src = w.engine.layout.node_of(root);
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
    }

    fn bcast_delivered(w: &mut QW, key: RoundKey, rank: usize) {
        let Some(open) = w.engine.coll.rounds.get_mut(&key) else {
            return;
        };
        open.delivered.insert(rank);
        if let Some(i) = open.waiters.iter().position(|&r| r == rank) {
            open.waiters.remove(i);
            Self::bcast_take(w, key, rank);
        }
    }

    /// `rank` is in the call and its node holds the payload: hand it over;
    /// the last member to take it closes the round.
    fn bcast_take(w: &mut QW, key: RoundKey, rank: usize) {
        let size = w.engine.comms.size_of(key.0);
        let open = w.engine.coll.rounds.get_mut(&key).expect("an open broadcast round");
        // A broadcast's value is the root's payload, there from the root's
        // join on: closing a copy of the round hands it out by reference.
        let resp = open.round.clone().close(combine_native).response(rank == open.root);
        open.resumed += 1;
        if open.resumed == size {
            w.engine.coll.rounds.remove(&key);
        }
        w.resume(rank, resp);
    }

    // ------------------------------------------------------------------

    /// Time for the result-return leg of allreduce: one
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
