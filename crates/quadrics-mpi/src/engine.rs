//! Point-to-point machinery and the [`Engine`] implementation.
//!
//! Every rank has a posted-receive queue and an unexpected-message queue —
//! the two classic MPICH matching structures. Eager messages carry their
//! payload; rendezvous messages park an RTS in the unexpected queue until a
//! matching receive arrives, then pull the payload with a CTS/DATA exchange.

use crate::coll::CollManager;
use mpi_api::call::{MpiCall, MpiResp, ReqId};
use mpi_api::comm::CommRegistry;
use mpi_api::message::{Envelope, SrcSel, Status, TagSel};
use mpi_api::noise::{NoiseConfig, NoiseModel};
use mpi_api::request::{CallSite, ReqKind, ReqTable};
use mpi_api::runtime::{ClusterWorld, Engine, JobLayout, drain, resume_at};
use qsnet::{Fabric, FabricKind, NetModel, NodeId};
use simcore::{Sim, SimDuration, SimTime};
use std::collections::BTreeMap;

type QW = ClusterWorld<QuadricsMpi>;

/// Tuning knobs of the baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct QuadricsConfig {
    pub net: NetModel,
    /// Which interconnect implementation carries the wire traffic (see
    /// `BcsConfig::fabric`).
    pub fabric: FabricKind,
    /// Messages up to this size (bytes) use the eager protocol.
    pub eager_threshold: usize,
    /// Wire header per message.
    pub header_bytes: u64,
    /// Host-side combine cost per byte for the software reduce tree.
    pub reduce_ns_per_byte: f64,
    /// Wire algorithm for broadcast and the result-return legs of
    /// allreduce/allgatherv (see `BcsConfig::coll_algo`); values are
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
            eager_threshold: 32 * 1024,
            header_bytes: 64,
            reduce_ns_per_byte: 1.0,
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
    pub allgathers: u64,
}

enum Payload {
    Eager(mpi_api::Payload),
    Rts { send_req: ReqId },
}

struct Unexpected {
    env: Envelope,
    payload: Payload,
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
        data: mpi_api::Payload,
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

        if data.len() <= e.cfg.eager_threshold {
            // Eager: inject now, complete locally.
            e.stats.eager_msgs += 1;
            let wire = data.len() as u64 + e.cfg.header_bytes;
            Self::send_envelope(w, sim, env, wire, move |w, sim| {
                QuadricsMpi::arrive_message(w, sim, env, Payload::Eager(data));
                drain(w, sim);
            });
            // Nobody can be waiting on a request whose id is not out yet.
            let woke = w.engine.reqs.complete(req);
            debug_assert!(woke.is_none());
            if blocking {
                resume_at(w, sim, sim.now() + overhead, rank, MpiResp::Ok);
            } else {
                w.resume(rank, MpiResp::Req(req));
            }
        } else {
            // Rendezvous: park the payload, send RTS.
            e.stats.rndv_msgs += 1;
            e.reqs.req_mut(req).data = Some(data);
            let hdr = e.cfg.header_bytes;
            Self::send_envelope(w, sim, env, hdr, move |w, sim| {
                QuadricsMpi::arrive_message(w, sim, env, Payload::Rts { send_req: req });
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

    fn arrive_message(w: &mut QW, sim: &mut Sim<QW>, env: Envelope, payload: Payload) {
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
                match payload {
                    Payload::Eager(data) => {
                        let at = sim.now() + w.engine.cfg.net.host_overhead;
                        Self::finish_recv(w, sim, posted.req, env, data, at);
                    }
                    Payload::Rts { send_req } => {
                        Self::start_rendezvous(w, sim, send_req, posted.req, env);
                    }
                }
            }
            None => {
                rc.unexpected.push(Unexpected { env, payload });
                Self::check_blocked_probe(w, sim, env.dst);
            }
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
        let hdr = e.cfg.header_bytes;
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
            let wire = data.len() as u64 + e.cfg.header_bytes;
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
        data: mpi_api::Payload,
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

    fn probe_match(&self, rank: usize, src: SrcSel, tag: TagSel) -> Option<Status> {
        self.ranks[rank]
            .unexpected
            .iter()
            .find(|u| src.matches(u.env.src) && tag.matches(u.env.tag))
            .map(|u| Status::of(&u.env))
    }

    fn check_blocked_probe(w: &mut QW, sim: &mut Sim<QW>, rank: usize) {
        let _ = sim;
        if let Some((src, tag)) = w.engine.ranks[rank].probing {
            if let Some(status) = w.engine.probe_match(rank, src, tag) {
                w.engine.ranks[rank].probing = None;
                w.resume(
                    rank,
                    MpiResp::ProbeDone {
                        status: Some(status),
                    },
                );
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
        let pos = w.engine.ranks[rank]
            .unexpected
            .iter()
            .position(|u| src.matches(u.env.src) && tag.matches(u.env.tag));
        if let Some(i) = pos {
            w.engine.stats.unexpected_hits += 1;
            let u = w.engine.ranks[rank].unexpected.remove(i);
            match u.payload {
                Payload::Eager(data) => {
                    let at = sim.now() + w.engine.cfg.net.host_overhead;
                    Self::finish_recv(w, sim, req, u.env, data, at);
                }
                Payload::Rts { send_req } => {
                    Self::start_rendezvous(w, sim, send_req, req, u.env);
                }
            }
        } else {
            w.engine.ranks[rank].posted.push(PostedRecv { req, src, tag });
        }
    }
}

impl Engine for QuadricsMpi {
    fn bootstrap(_w: &mut QW, _sim: &mut Sim<QW>) {
        // No global machinery: the baseline is fully asynchronous.
    }

    fn on_call(w: &mut QW, sim: &mut Sim<QW>, rank: usize, call: MpiCall) {
        match call {
            MpiCall::Compute { ns } => {
                let mut d = SimDuration::nanos(ns);
                let node = w.engine.node_of(rank).0;
                if let Some(noise) = &mut w.engine.noise {
                    d = noise.inflate(node, sim.now(), d);
                }
                resume_at(w, sim, sim.now() + d, rank, MpiResp::Ok);
            }
            MpiCall::Now => {
                w.resume(rank, MpiResp::Time(sim.now().as_nanos()));
            }
            MpiCall::Send {
                dest,
                tag,
                data,
                blocking,
            } => Self::start_send(w, sim, rank, dest, tag, data, blocking),
            MpiCall::Recv { src, tag, blocking } => {
                Self::start_recv(w, sim, rank, src, tag, blocking)
            }
            // The four calls that pass program-supplied ids name their call
            // site for the misuse diagnostic.
            MpiCall::Wait { req } => {
                let site = CallSite::new(rank, "wait", sim.now());
                if let Some(wake) = w.engine.reqs.wait(site, req) {
                    w.resume(rank, wake.into_resp());
                }
            }
            MpiCall::Waitall { reqs } => {
                let site = CallSite::new(rank, "waitall", sim.now());
                if let Some(wake) = w.engine.reqs.wait_all(site, reqs) {
                    w.resume(rank, wake.into_resp());
                }
            }
            MpiCall::Test { req } => {
                let site = CallSite::new(rank, "test", sim.now());
                let result = w.engine.reqs.test(site, req);
                w.resume(rank, MpiResp::TestDone { result });
            }
            MpiCall::Testall { reqs } => {
                let site = CallSite::new(rank, "testall", sim.now());
                let results = w.engine.reqs.test_all(site, &reqs);
                w.resume(rank, MpiResp::TestallDone { results });
            }
            MpiCall::Probe { src, tag, blocking } => {
                let found = w.engine.probe_match(rank, src, tag);
                match (found, blocking) {
                    (Some(status), _) => w.resume(
                        rank,
                        MpiResp::ProbeDone {
                            status: Some(status),
                        },
                    ),
                    (None, false) => w.resume(rank, MpiResp::ProbeDone { status: None }),
                    (None, true) => {
                        w.engine.ranks[rank].probing = Some((src, tag));
                    }
                }
            }
            MpiCall::Barrier { comm } => CollManager::barrier(w, sim, rank, comm),
            MpiCall::Bcast { comm, root, data } => {
                CollManager::bcast(w, sim, rank, comm, root, data)
            }
            MpiCall::Reduce {
                comm,
                root,
                op,
                dtype,
                data,
                all,
            } => CollManager::reduce(w, sim, rank, comm, root, op, dtype, data, all),
            MpiCall::Allgatherv { comm, data } => {
                CollManager::allgatherv(w, sim, rank, comm, data)
            }
            MpiCall::CommSplit { parent, color, key } => {
                // A collective over the parent: completes at the last
                // arrival plus one hardware conditional (membership
                // agreement rides the same control exchange as a barrier).
                match w.engine.comms.arrive_split(parent, rank, color, key) {
                    None => {} // caller stays blocked until the round closes
                    Some(outcome) => {
                        let span = w.engine.comms.group(parent).nodes().len();
                        let src = w.engine.node_of(rank);
                        w.engine.fabric.conditional(sim, src, span, move |w: &mut QW, sim| {
                            for (r, handle) in outcome.assignments {
                                w.resume(r, MpiResp::CommSplitDone { handle });
                            }
                            drain(w, sim);
                        });
                    }
                }
            }
            MpiCall::Batch { .. } => {
                unreachable!("MpiCall::Batch is unpacked by the runtime, never seen by engines")
            }
        }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_sane() {
        let c = QuadricsConfig::default();
        assert_eq!(c.eager_threshold, 32 * 1024);
        assert!(c.noise.is_none());
        assert_eq!(c.net.name, "QsNet");
    }
}
