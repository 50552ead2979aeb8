//! Point-to-point machinery and the [`Engine`] and [`Protocol`]
//! implementations.
//!
//! Every rank has a posted-receive queue and an unexpected-message queue —
//! the two classic MPICH matching structures. Eager messages carry their
//! payload; rendezvous messages park an RTS in the unexpected queue until a
//! matching receive arrives, then pull the payload with a CTS/DATA exchange.

use crate::coll::CollManager;
use mpi_api::call::{MpiResp, ReqId};
use mpi_api::comm::{CommId, CommRegistry};
use mpi_api::message::{Envelope, SrcSel, Status, TagSel, match_first};
use mpi_api::noise::{NoiseConfig, NoiseModel};
use mpi_api::payload::Payload;
use mpi_api::request::{ReqKind, ReqTable};
use mpi_api::round::CollCall;
use mpi_api::runtime::{ClusterWorld, Engine, JobLayout, Protocol, drain, resume_at};
use qsnet::{Fabric, FabricKind, NetModel, NodeId};
use simcore::{Sim, SimDuration, SimTime};
use std::collections::BTreeMap;

type QW = ClusterWorld<QuadricsMpi>;

/// Messages up to this size (bytes) use the eager protocol.
pub(crate) const EAGER_THRESHOLD: usize = 32 * 1024;
/// Wire header per message.
pub(crate) const HEADER_BYTES: u64 = 64;
/// Host-side combine cost per byte for the software reduce tree.
pub(crate) const REDUCE_NS_PER_BYTE: u64 = 1;

/// Tuning knobs of the baseline: the values some run sets.
#[derive(Clone, Debug, PartialEq)]
pub struct QuadricsConfig {
    pub net: NetModel,
    /// Which interconnect implementation carries the wire traffic (see
    /// `BcsConfig::fabric`).
    pub fabric: FabricKind,
    /// Wire algorithm for broadcast and the result-return legs of
    /// allreduce (see `BcsConfig::coll_algo`); values are
    /// bit-identical across all three.
    pub coll_algo: mpi_api::coll_sched::CollAlgo,
    /// Optional OS-noise injection (uncoordinated dæmons).
    pub noise: Option<NoiseConfig>,
}

impl Default for QuadricsConfig {
    fn default() -> Self {
        QuadricsConfig {
            net: NetModel::qsnet(),
            fabric: FabricKind::QsNet,
            coll_algo: mpi_api::coll_sched::CollAlgo::HwMulticast,
            noise: None,
        }
    }
}

/// Operation counters.
#[derive(Clone, Debug, Default)]
pub struct QuadricsStats {
    pub sends: u64,
    pub eager_msgs: u64,
    pub rndv_msgs: u64,
    pub p2p_bytes: u64,
    pub recvs_posted: u64,
    pub unexpected_hits: u64,
    pub barriers: u64,
    pub bcasts: u64,
    pub reduces: u64,
}

/// What a message puts on the wire: the payload itself (eager) or a
/// request to send (rendezvous).
enum Wire {
    Eager(Payload),
    Rts { send_req: ReqId },
}

struct Unexpected {
    env: Envelope,
    payload: Wire,
}

struct PostedRecv {
    req: ReqId,
    src: SrcSel,
    tag: TagSel,
}

struct RankComm {
    posted: Vec<PostedRecv>,
    unexpected: Vec<Unexpected>,
    /// The blocking probe the rank is suspended in, if any (request
    /// conditions are tracked by [`QuadricsMpi::reqs`]).
    probing: Option<(SrcSel, TagSel)>,
    /// When the latest message from each sender arrives here.
    due_from: BTreeMap<usize, SimTime>,
}

/// The baseline MPI engine.
pub struct QuadricsMpi {
    pub cfg: QuadricsConfig,
    pub(crate) layout: JobLayout,
    pub fabric: Box<dyn Fabric<QW>>,
    noise: Option<NoiseModel>,
    /// Open requests (a rendezvous send parks its payload in the request
    /// until the CTS) and the request conditions ranks are suspended on.
    reqs: ReqTable,
    ranks: Vec<RankComm>,
    pub coll: CollManager,
    pub(crate) comms: CommRegistry,
    pub stats: QuadricsStats,
}

impl QuadricsMpi {
    pub fn new(cfg: QuadricsConfig, layout: &JobLayout) -> QuadricsMpi {
        let fabric = rdmanet::build_fabric(cfg.fabric, cfg.net, layout.compute_nodes);
        let noise = cfg
            .noise
            .clone()
            .map(|nc| NoiseModel::new(nc, layout.compute_nodes));
        QuadricsMpi {
            cfg,
            layout: layout.clone(),
            fabric,
            noise,
            reqs: ReqTable::new(layout.ranks),
            ranks: (0..layout.ranks)
                .map(|_| RankComm {
                    posted: Vec::new(),
                    unexpected: Vec::new(),
                    probing: None,
                    due_from: BTreeMap::new(),
                })
                .collect(),
            coll: CollManager::default(),
            comms: CommRegistry::new(layout),
            stats: QuadricsStats::default(),
        }
    }

    #[inline]
    fn node_of(&self, rank: usize) -> NodeId {
        self.layout.node_of(rank)
    }

    // ------------------------------------------------------------------
    // Sends
    // ------------------------------------------------------------------

    fn start_send(
        w: &mut QW,
        sim: &mut Sim<QW>,
        rank: usize,
        dest: usize,
        tag: i32,
        data: Payload,
        blocking: bool,
    ) {
        let e = &mut w.engine;
        e.stats.sends += 1;
        e.stats.p2p_bytes += data.len() as u64;
        let env = Envelope {
            src: rank,
            dst: dest,
            tag,
            bytes: data.len(),
        };
        let req = e.reqs.post(rank, ReqKind::Send, sim.now());
        let overhead = e.cfg.net.host_overhead;

        if data.len() <= EAGER_THRESHOLD {
            // Eager: inject now, complete locally.
            e.stats.eager_msgs += 1;
            let wire = data.len() as u64 + HEADER_BYTES;
            Self::send_envelope(w, sim, env, wire, move |w, sim| {
                QuadricsMpi::arrive_message(w, sim, env, Wire::Eager(data));
                drain(w, sim);
            });
            // A blocking send waits on its own request, so completing it
            // retires it; nobody else can be waiting on one whose id is not
            // out yet.
            if blocking {
                w.engine.reqs.block_on_send(rank, req);
            }
            let woke = w.engine.reqs.complete(req);
            debug_assert_eq!(woke.is_some(), blocking);
            if blocking {
                resume_at(w, sim, sim.now() + overhead, rank, MpiResp::Ok);
            } else {
                w.resume(rank, MpiResp::Req(req));
            }
        } else {
            // Rendezvous: park the payload, send RTS.
            e.stats.rndv_msgs += 1;
            e.reqs.req_mut(req).data = Some(data);
            let hdr = HEADER_BYTES;
            Self::send_envelope(w, sim, env, hdr, move |w, sim| {
                QuadricsMpi::arrive_message(w, sim, env, Wire::Rts { send_req: req });
                drain(w, sim);
            });
            if blocking {
                w.engine.reqs.block_on_send(rank, req);
            } else {
                w.resume(rank, MpiResp::Req(req));
            }
        }
    }

    /// Put `wire` bytes of `env` on the fabric. The fabric lets a
    /// control-sized packet pass bulk data still on the wire; MPI does not
    /// let a message overtake an earlier one from the same sender, so it
    /// arrives no earlier than that one.
    fn send_envelope(
        w: &mut QW,
        sim: &mut Sim<QW>,
        env: Envelope,
        wire: u64,
        arrive: impl FnOnce(&mut QW, &mut Sim<QW>) + 'static,
    ) {
        let e = &mut w.engine;
        let (src, dst) = (e.node_of(env.src), e.node_of(env.dst));
        let (at, lands) = e.fabric.issue_put(sim.now(), src, dst, wire);
        let due = e.ranks[env.dst].due_from.entry(env.src).or_insert(at);
        *due = at.max(*due);
        if lands {
            sim.schedule_at(*due, arrive);
        }
    }

    // ------------------------------------------------------------------
    // Arrivals and matching
    // ------------------------------------------------------------------

    fn arrive_message(w: &mut QW, sim: &mut Sim<QW>, env: Envelope, payload: Wire) {
        let rc = &mut w.engine.ranks[env.dst];
        // First posted receive whose selectors accept this envelope
        // (post order ⇒ MPI non-overtaking).
        let pos = rc
            .posted
            .iter()
            .position(|p| p.src.matches(env.src) && p.tag.matches(env.tag));
        match pos {
            Some(i) => {
                let posted = rc.posted.remove(i);
                Self::matched(w, sim, posted.req, env, payload);
            }
            None => {
                rc.unexpected.push(Unexpected { env, payload });
                Self::check_blocked_probe(w, env.dst);
            }
        }
    }

    /// Receive `req` met the message `env`: an eager one is received after
    /// the host overhead, a rendezvous one starts its CTS/DATA exchange.
    fn matched(w: &mut QW, sim: &mut Sim<QW>, req: ReqId, env: Envelope, payload: Wire) {
        match payload {
            Wire::Eager(data) => {
                let at = sim.now() + w.engine.cfg.net.host_overhead;
                Self::finish_recv(w, sim, req, env, data, at);
            }
            Wire::Rts { send_req } => Self::start_rendezvous(w, sim, send_req, req, env),
        }
    }

    /// Receive matched an RTS: send CTS back, then the payload DMA.
    fn start_rendezvous(
        w: &mut QW,
        sim: &mut Sim<QW>,
        send_req: ReqId,
        recv_req: ReqId,
        env: Envelope,
    ) {
        let e = &mut w.engine;
        let hdr = HEADER_BYTES;
        let (src_node, dst_node) = (e.node_of(env.src), e.node_of(env.dst));
        // CTS control message from receiver to sender.
        e.fabric.put(sim, dst_node, src_node, hdr, move |w, sim| {
            let e = &mut w.engine;
            let data = e
                .reqs
                .req_mut(send_req)
                .data
                .take()
                .expect("rendezvous payload already taken");
            let wire = data.len() as u64 + HEADER_BYTES;
            let (src_node, dst_node) = (e.node_of(env.src), e.node_of(env.dst));
            e.fabric.put(sim, src_node, dst_node, wire, move |w, sim| {
                // Sender completes at data departure ~ delivery (bulk DMA).
                Self::complete_req(w, sim, send_req, sim.now());
                let at = sim.now() + w.engine.cfg.net.host_overhead;
                Self::finish_recv(w, sim, recv_req, env, data, at);
                drain(w, sim);
            });
            drain(w, sim);
        });
    }

    fn finish_recv(
        w: &mut QW,
        sim: &mut Sim<QW>,
        req: ReqId,
        env: Envelope,
        data: Payload,
        at: SimTime,
    ) {
        w.engine.reqs.deliver(req, data, Status::of(&env));
        Self::complete_req(w, sim, req, at);
    }

    /// Mark a request complete (now or at `at`) and resume its owner if that
    /// satisfies what the owner is suspended on.
    fn complete_req(w: &mut QW, sim: &mut Sim<QW>, req: ReqId, at: SimTime) {
        if at > sim.now() {
            sim.schedule_at(at, move |w: &mut QW, sim| {
                Self::complete_req(w, sim, req, sim.now());
                drain(w, sim);
            });
            return;
        }
        if let Some((rank, wake)) = w.engine.reqs.complete(req) {
            w.resume(rank, wake.into_resp());
        }
    }

    fn check_blocked_probe(w: &mut QW, rank: usize) {
        if let Some((src, tag)) = w.engine.ranks[rank].probing {
            if let Some(status) = w.engine.probe_match(rank, src, tag) {
                w.engine.ranks[rank].probing = None;
                w.resume(rank, MpiResp::ProbeDone { status: Some(status) });
            }
        }
    }

    // ------------------------------------------------------------------
    // Receives
    // ------------------------------------------------------------------

    fn start_recv(
        w: &mut QW,
        sim: &mut Sim<QW>,
        rank: usize,
        src: SrcSel,
        tag: TagSel,
        blocking: bool,
    ) {
        w.engine.stats.recvs_posted += 1;
        let req = w.engine.reqs.post(rank, ReqKind::Recv, sim.now());
        if !blocking {
            w.resume(rank, MpiResp::Req(req));
        } else {
            w.engine.reqs.block_on_recv(rank, req);
        }
        // Match against already-arrived messages first (in arrival order).
        if let Some(i) = match_first(&w.engine.ranks[rank].unexpected, |u| u.env, src, tag) {
            w.engine.stats.unexpected_hits += 1;
            let u = w.engine.ranks[rank].unexpected.remove(i);
            Self::matched(w, sim, req, u.env, u.payload);
        } else {
            w.engine.ranks[rank].posted.push(PostedRecv { req, src, tag });
        }
    }
}

impl Engine for QuadricsMpi {
    fn bootstrap(_w: &mut QW, _sim: &mut Sim<QW>) {
        // No global machinery: the baseline is fully asynchronous.
    }

    fn describe_pending(&self) -> String {
        let mut out = String::new();
        for (r, rc) in self.ranks.iter().enumerate() {
            let blocked = match (rc.probing, self.reqs.describe(r)) {
                (Some((src, tag)), _) => format!("probe {src:?}/{tag:?}"),
                (None, Some(waiting)) => waiting,
                (None, None) => continue,
            };
            out.push_str(&format!(
                "  rank {r}: {blocked}; {} posted, {} unexpected\n",
                rc.posted.len(),
                rc.unexpected.len()
            ));
        }
        out.push_str(&self.coll.describe());
        out
    }
}

/// Every primitive answers as soon as its own messages allow: there is no
/// global schedule to wait for.
impl Protocol for QuadricsMpi {
    fn reqs(&mut self) -> &mut ReqTable {
        &mut self.reqs
    }

    fn compute(w: &mut QW, sim: &mut Sim<QW>, rank: usize, ns: u64) {
        let mut d = SimDuration::nanos(ns);
        let node = w.engine.node_of(rank).0;
        if let Some(noise) = &mut w.engine.noise {
            d = noise.inflate(node, sim.now(), d);
        }
        resume_at(w, sim, sim.now() + d, rank, MpiResp::Ok);
    }

    fn post_send(w: &mut QW, sim: &mut Sim<QW>, rank: usize, dest: usize, tag: i32, data: Payload, blocking: bool) {
        Self::start_send(w, sim, rank, dest, tag, data, blocking)
    }
    fn post_recv(w: &mut QW, sim: &mut Sim<QW>, rank: usize, src: SrcSel, tag: TagSel, blocking: bool) {
        Self::start_recv(w, sim, rank, src, tag, blocking)
    }
    fn probe_match(&self, rank: usize, src: SrcSel, tag: TagSel) -> Option<Status> {
        let unexpected = &self.ranks[rank].unexpected;
        match_first(unexpected, |u| u.env, src, tag).map(|i| Status::of(&unexpected[i].env))
    }
    fn park_probe(&mut self, rank: usize, src: SrcSel, tag: TagSel) {
        self.ranks[rank].probing = Some((src, tag));
    }

    fn collective(w: &mut QW, sim: &mut Sim<QW>, rank: usize, comm: CommId, call: CollCall) {
        CollManager::post(w, sim, rank, comm, call)
    }
    fn comm_split(w: &mut QW, sim: &mut Sim<QW>, rank: usize, parent: CommId, color: i64, key: i64) {
        CollManager::comm_split(w, sim, rank, parent, color, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_sane() {
        let c = QuadricsConfig::default();
        assert_eq!(EAGER_THRESHOLD, 32 * 1024);
        assert!(c.noise.is_none());
        assert_eq!(c.net.name, "QsNet");
    }

    #[test]
    fn blocking_eager_sends_leave_no_request_open() {
        let layout = JobLayout::new(2, 1, 2);
        let engine = QuadricsMpi::new(QuadricsConfig::default(), &layout);
        let program = |mut mpi: mpi_api::AsyncMpi| async move {
            let peer = 1 - mpi.rank();
            for i in 0..100 {
                if mpi.rank() == 0 {
                    mpi.send(peer, i, &[7; 64]).await;
                    mpi.recv_from(peer, i).await;
                } else {
                    mpi.recv_from(peer, i).await;
                    mpi.send(peer, i, &[7; 64]).await;
                }
            }
        };
        let run = mpi_api::run_program(engine, layout, program);
        assert_eq!(run.engine.stats.eager_msgs, 200);
        assert_eq!(run.engine.reqs.iter().count(), 0, "a finished run holds open requests");
    }
}
