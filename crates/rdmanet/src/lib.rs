#![forbid(unsafe_code)]
//! # rdmanet — RDMA-channel fabric with software-emulated BCS primitives
//!
//! The BCS primitives lean on two pieces of QsNet hardware that most
//! interconnects do not have: switch-replicated ordered multicast and
//! network conditionals. This crate models an RDMA-channel fabric in the
//! style of 2003-era InfiniBand VAPI (Liu et al., "Design and
//! Implementation of MPICH2 over InfiniBand with RDMA Support",
//! cs/0310059) and rebuilds both missing primitives in software, behind
//! the same object-safe [`Fabric`] trait the QsNet fabric implements — so
//! the strobe/DEM layer and the descriptor-exchange path run unchanged on
//! either interconnect:
//!
//! * **eager RDMA write** (`put`): the payload lands directly in
//!   pre-registered destination memory with the completion flag
//!   piggybacked on the last bytes of the write; the receiver detects it
//!   with one NIC completion operation, no request/ack round trip.
//! * **rendezvous via RDMA read** (`get`): the requester posts an RDMA
//!   read work request (one control-sized wire message), the target HCA
//!   turns it around and streams the data back one-sided.
//! * **software multicast**: a binomial fan-out of point-to-point RDMA
//!   writes — `ceil(log2 n)` store-and-forward stages — serialized
//!   through a software sequencer so payloads stay totally ordered, which
//!   is what `Xfer-And-Signal` (and the strobe protocol above it)
//!   requires.
//! * **gather-to-root conditionals**: `Compare-And-Write` becomes a
//!   `ceil(log2 n)`-stage reduction tree rooted at a sequencer node;
//!   serialization through the same sequencer keeps overlapping
//!   conditionals sequentially consistent.
//!
//! The defining modeling difference from QsNet: RDMA channels have **no
//! free priority channel**. Control-sized packets (descriptors, read
//! requests) occupy the send/receive queue pairs like any other work
//! request, so control traffic queues behind bulk DMA. Fault injection
//! (`kill_node`, link degradation, planned drops) and the
//! snapshot/restore contract are identical to the QsNet fabric —
//! `bulk_seq` coordinates only count transfers larger than
//! [`CTRL_BYTES`], so one fault plan replays bit-identically on both
//! fabrics.

use qsnet::fabric::{CTRL_BYTES, DeliverFn, OnDone, schedule_deliveries};
use qsnet::model::log2_ceil;
use qsnet::{
    Degradation, Fabric, FabricKind, FabricSnapshot, FabricStats, NetModel, NodeId, QsNetFabric,
    SnapState, Topology,
};
use simcore::{Sim, SimDuration, SimTime};
use std::rc::Rc;

/// Build the fabric selected by `kind` — the one construction point both
/// engines use, so adding a fabric is a one-line change here.
pub fn build_fabric<W: 'static>(
    kind: FabricKind,
    model: NetModel,
    nodes: usize,
) -> Box<dyn Fabric<W>> {
    match kind {
        FabricKind::QsNet => Box::new(QsNetFabric::new(model, nodes)),
        FabricKind::Rdma => Box::new(RdmaFabric::new(model, nodes)),
    }
}

/// Occupancy state of the RDMA fabric at a quiescent instant (see
/// `qsnet::FabricSnapshot` for the capture/restore contract).
#[derive(Clone, Debug)]
struct RdmaState {
    tx_free: Vec<SimTime>,
    rx_free: Vec<SimTime>,
    seq_free: SimTime,
    stats: FabricStats,
    bulk_seq: u64,
}

impl SnapState for RdmaState {
    fn materialize_state(&self) -> Rc<dyn SnapState> {
        Rc::new(self.clone())
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// The simulated RDMA-channel interconnect.
///
/// Issue-time analytic timing like the QsNet fabric: per-HCA send/receive
/// queue-pair clocks (`tx_free`/`rx_free`) plus one software **sequencer**
/// clock (`seq_free`) that stands in for QsNet's hardware root serializer —
/// every emulated collective acquires it, which is where the total order
/// of multicast payloads and conditional fire times comes from.
pub struct RdmaFabric {
    model: NetModel,
    topo: Topology,
    tx_free: Vec<SimTime>,
    rx_free: Vec<SimTime>,
    /// Software sequencer: totally orders emulated collectives.
    seq_free: SimTime,
    stats: FabricStats,
    dead: Vec<bool>,
    degradations: Vec<Degradation>,
    drop_seqs: Vec<u64>,
    bulk_seq: u64,
    snap_cache: Option<FabricSnapshot>,
    snap_dirty: bool,
}

impl RdmaFabric {
    pub fn new(model: NetModel, nodes: usize) -> RdmaFabric {
        RdmaFabric {
            model,
            topo: Topology::fat_tree(nodes),
            tx_free: vec![SimTime::ZERO; nodes],
            rx_free: vec![SimTime::ZERO; nodes],
            seq_free: SimTime::ZERO,
            stats: FabricStats::default(),
            dead: vec![false; nodes],
            degradations: Vec::new(),
            drop_seqs: Vec::new(),
            bulk_seq: 0,
            snap_cache: None,
            snap_dirty: true,
        }
    }

    #[inline]
    fn touch(&mut self) {
        self.snap_dirty = true;
    }

    /// Worst degradation factor touching `node` at instant `t`.
    fn degrade_factor(&self, node: NodeId, t: SimTime) -> u64 {
        self.degradations
            .iter()
            .filter(|d| d.node == node && d.from <= t && t < d.to)
            .map(|d| d.factor as u64)
            .max()
            .unwrap_or(1)
    }

    /// Per-stage cost of one software-tree forwarding hop for a multicast
    /// payload of `bytes`: the model's stage latency plus retransmission.
    /// Running a hardware-multicast model on this fabric still emulates in
    /// software — the relay then costs a wire hop plus an HCA operation.
    fn mcast_stage(&self, bytes: u64) -> SimDuration {
        let stage = match self.model.mcast {
            qsnet::McastImpl::SoftwareTree { stage, .. } => stage,
            qsnet::McastImpl::Hardware { .. } => self.model.base_latency + self.model.nic_op,
        };
        stage + self.model.mcast_tx_time(bytes)
    }

    /// Per-stage round cost of the gather-to-root conditional emulation.
    fn cond_stage(&self) -> SimDuration {
        match self.model.cond {
            qsnet::CondImpl::SoftwareTree { stage } => stage,
            qsnet::CondImpl::Hardware { .. } => {
                // Up-and-down a level in software: two wire hops + HCA ops.
                (self.model.base_latency + self.model.nic_op) * 2
            }
        }
    }

    /// Reserve the send/receive queue pairs for one RDMA write. Unlike
    /// QsNet there is no priority channel: control-sized writes occupy the
    /// ports too. Only transfers larger than `CTRL_BYTES` consume a
    /// `bulk_seq` coordinate (drop plans stay portable across fabrics).
    /// Returns the last-byte time and whether the payload lands.
    fn reserve_write(
        &mut self,
        issue: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> (SimTime, bool) {
        if src == dst {
            // Local loopback through the HCA; DMA time, no wire.
            return (issue + self.model.nic_op + self.model.tx_time(bytes), true);
        }
        let mut dropped = false;
        let mut factor = 1u64;
        if bytes > CTRL_BYTES {
            let seq = self.bulk_seq;
            self.bulk_seq += 1;
            dropped = self.drop_seqs.binary_search(&seq).is_ok();
            if dropped {
                self.stats.drops += 1;
            }
            factor = self
                .degrade_factor(src, issue)
                .max(self.degrade_factor(dst, issue));
        }
        let tx = self.model.tx_time(bytes) * factor;
        let start = issue.max(self.tx_free[src.0]);
        self.tx_free[src.0] = start + tx;
        let first_bit = start + self.model.unicast_latency(self.topo.hops(src, dst));
        let rx_start = first_bit.max(self.rx_free[dst.0]);
        let deliver = rx_start + tx;
        self.rx_free[dst.0] = deliver;
        (deliver, !dropped)
    }

    /// When the operation between `a` and `b` whose data write is `write`
    /// (last byte, landed) completes — one HCA operation after the last
    /// byte unless it was a loopback — and whether it completes at all: not
    /// when the payload was dropped, and not (counted) when an endpoint is
    /// dead.
    fn completion(&mut self, a: NodeId, b: NodeId, write: (SimTime, bool)) -> (SimTime, bool) {
        let (last_byte, landed) = write;
        let at = if a == b { last_byte } else { last_byte + self.model.nic_op };
        let dead = self.dead[a.0] || self.dead[b.0];
        self.stats.dead_skips += dead as u64;
        (at, landed && !dead)
    }
}

impl<W: 'static> Fabric<W> for RdmaFabric {
    fn kind(&self) -> FabricKind {
        FabricKind::Rdma
    }
    fn model(&self) -> &NetModel {
        &self.model
    }
    fn topology(&self) -> &Topology {
        &self.topo
    }
    fn nodes(&self) -> usize {
        self.topo.nodes()
    }
    fn stats(&self) -> &FabricStats {
        &self.stats
    }
    fn reset_stats(&mut self) {
        self.touch();
        self.stats = FabricStats::default();
    }
    fn note_gather(&mut self, msgs: u64, logical_bytes: u64) {
        self.touch();
        self.stats.gathers += 1;
        self.stats.gathered_msgs += msgs;
        self.stats.gathered_bytes += logical_bytes;
    }

    fn kill_node(&mut self, node: NodeId) {
        self.dead[node.0] = true;
    }
    fn revive_node(&mut self, node: NodeId) {
        self.dead[node.0] = false;
    }
    fn is_dead(&self, node: NodeId) -> bool {
        self.dead[node.0]
    }
    fn degrade_link(&mut self, d: Degradation) {
        assert!(d.factor >= 1);
        self.degradations.push(d);
    }
    fn clear_degradations(&mut self) {
        self.degradations.clear();
    }
    fn plan_drops(&mut self, mut seqs: Vec<u64>) {
        seqs.sort_unstable();
        seqs.dedup();
        self.drop_seqs = seqs;
    }
    fn bulk_seq(&self) -> u64 {
        self.bulk_seq
    }

    fn snapshot(&mut self) -> FabricSnapshot {
        if self.snap_dirty || self.snap_cache.is_none() {
            self.snap_cache = Some(FabricSnapshot::new(Rc::new(RdmaState {
                tx_free: self.tx_free.clone(),
                rx_free: self.rx_free.clone(),
                seq_free: self.seq_free,
                stats: self.stats,
                bulk_seq: self.bulk_seq,
            })));
            self.snap_dirty = false;
        }
        self.snap_cache.clone().expect("snapshot cache just filled")
    }

    fn restore(&mut self, s: &FabricSnapshot) {
        let p: &RdmaState = s
            .state()
            .as_any()
            .downcast_ref()
            .expect("fabric-kind mismatch: RDMA fabric restoring a non-RDMA snapshot");
        assert_eq!(p.tx_free.len(), self.tx_free.len(), "snapshot node count");
        self.tx_free.copy_from_slice(&p.tx_free);
        self.rx_free.copy_from_slice(&p.rx_free);
        self.seq_free = p.seq_free;
        self.stats = p.stats;
        self.bulk_seq = p.bulk_seq;
        self.dead.iter_mut().for_each(|d| *d = false);
        self.degradations.clear();
        self.drop_seqs.clear();
        self.snap_cache = Some(s.clone());
        self.snap_dirty = false;
    }

    /// Eager RDMA write: the payload and its piggybacked completion flag
    /// land with one work request; the destination HCA spends one
    /// operation surfacing the completion.
    fn put_timing(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> (SimTime, bool) {
        self.touch();
        self.stats.puts += 1;
        self.stats.put_bytes += bytes;
        let write = self.reserve_write(now, src, dst, bytes);
        self.completion(src, dst, write)
    }

    /// Rendezvous via RDMA read: the requester posts a read work request
    /// (a control-sized wire message that, unlike on QsNet, queues through
    /// the ports), the target HCA turns it around, and the data streams
    /// back one-sided.
    fn get_timing(
        &mut self,
        now: SimTime,
        requester: NodeId,
        target: NodeId,
        bytes: u64,
    ) -> (SimTime, bool) {
        self.touch();
        self.stats.gets += 1;
        self.stats.get_bytes += bytes;
        let (req_at, _) = self.reserve_write(now, requester, target, CTRL_BYTES);
        let data_issue = req_at + self.model.nic_op;
        let write = self.reserve_write(data_issue, target, requester, bytes);
        self.completion(requester, target, write)
    }

    /// Software multicast: binomial fan-out of point-to-point RDMA writes.
    ///
    /// Destination `j` (in argument order, self-deliveries excepted) is
    /// reached after `floor(log2(j+1)) + 1` store-and-forward stages —
    /// each stage the set of reached nodes doubles as every holder
    /// forwards one copy. The whole operation acquires the software
    /// sequencer for its first stage, so concurrent multicasts inject in a
    /// total order, exactly like QsNet's root serializer — `per_dest`
    /// hooks then fire in deterministic (stage, argument-order) order, one
    /// simulator event per stage.
    fn multicast_boxed(
        &mut self,
        sim: &mut Sim<W>,
        src: NodeId,
        dests: &[NodeId],
        bytes: u64,
        per_dest: Option<DeliverFn<W>>,
        on_complete: OnDone<W>,
    ) -> SimTime {
        assert!(!dests.is_empty(), "multicast needs at least one destination");
        self.touch();
        self.stats.multicasts += 1;
        self.stats.multicast_bytes += bytes * dests.len() as u64;

        let stage_cost = self.mcast_stage(bytes);
        let tx = self.model.mcast_tx_time(bytes);
        let ctrl = bytes <= CTRL_BYTES;
        // The root-of-tree injection owns the source send queue and the
        // sequencer; the sequencer frees after one stage (pipelined, but
        // totally ordered starts — the QsNet `coll_free` discipline).
        let start = sim.now().max(self.seq_free).max(self.tx_free[src.0]);
        self.tx_free[src.0] = start + tx;
        self.seq_free = start + stage_cost;

        let mut last = SimTime::ZERO;
        let mut relay = 0u64; // index among non-self destinations
        let mut deliveries = Vec::with_capacity(if per_dest.is_some() { dests.len() } else { 0 });
        for &d in dests {
            let deliver = if d == src {
                start + self.model.nic_op
            } else {
                let depth = log2_ceil((relay + 2) as usize) as u64; // floor(log2(relay+1))+1
                relay += 1;
                let base = start + self.model.base_latency + stage_cost * depth;
                if ctrl {
                    base
                } else {
                    // Bulk copies additionally FIFO through the receive QP.
                    let rx_start = (base - tx).max(self.rx_free[d.0]);
                    let deliver = rx_start + tx;
                    self.rx_free[d.0] = deliver;
                    deliver
                }
            };
            last = last.max(deliver);
            if self.dead[d.0] || self.dead[src.0] {
                self.stats.dead_skips += 1;
            } else if per_dest.is_some() {
                deliveries.push((deliver, d));
            }
        }
        if let Some(hook) = &per_dest {
            schedule_deliveries(sim, hook, deliveries);
        }
        sim.schedule_at(last, on_complete);
        last
    }

    /// Gather-to-root conditional: `ceil(log2 span)` reduction stages up a
    /// software tree, serialized through the sequencer — overlapping
    /// conditionals stay sequentially consistent, at software latency.
    fn conditional_timing(&mut self, now: SimTime, _src: NodeId, span: usize) -> SimTime {
        assert!(span > 0);
        self.touch();
        self.stats.conditionals += 1;
        let start = now.max(self.seq_free);
        self.seq_free = start + self.model.tx_time(CTRL_BYTES) + self.model.nic_op;
        start + self.cond_stage() * log2_ceil(span) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct W {
        delivered: Vec<(u64, &'static str)>,
        per_dest: Vec<(u64, usize)>,
    }

    fn world() -> W {
        W {
            delivered: vec![],
            per_dest: vec![],
        }
    }

    fn fab(nodes: usize) -> Box<dyn Fabric<W>> {
        build_fabric(FabricKind::Rdma, NetModel::infiniband(), nodes)
    }

    #[test]
    fn build_fabric_dispatches_on_kind() {
        let q: Box<dyn Fabric<W>> = build_fabric(FabricKind::QsNet, NetModel::qsnet(), 4);
        assert_eq!(q.kind(), FabricKind::QsNet);
        let r = fab(4);
        assert_eq!(r.kind(), FabricKind::Rdma);
        assert_eq!(r.nodes(), 4);
    }

    #[test]
    fn eager_write_is_latency_plus_wire_plus_completion() {
        let m = NetModel::infiniband();
        let mut f = fab(8);
        let mut sim: Sim<W> = Sim::new();
        let mut w = world();
        let bytes = 820_000; // 1 ms at 820 MB/s
        let t = f.put(&mut sim, NodeId(0), NodeId(1), bytes, |w, s| {
            w.delivered.push((s.now().0, "put"));
        });
        sim.run(&mut w);
        let expect = m.unicast_latency(2) + m.tx_time(bytes) + m.nic_op;
        assert_eq!(t.since(SimTime::ZERO), expect);
        assert_eq!(w.delivered, vec![(t.0, "put")]);
    }

    #[test]
    fn control_packets_occupy_the_ports_unlike_qsnet() {
        // Two back-to-back control-sized writes from one source serialize
        // through the send QP on RDMA; on QsNet they ride the free
        // priority channel and complete at the same instant.
        let m = NetModel::qsnet(); // same constants on both fabrics
        let mut sim: Sim<W> = Sim::new();
        let mut r: Box<dyn Fabric<W>> = build_fabric(FabricKind::Rdma, m, 8);
        let r1 = r.put(&mut sim, NodeId(0), NodeId(1), CTRL_BYTES, |_, _| {});
        let r2 = r.put(&mut sim, NodeId(0), NodeId(2), CTRL_BYTES, |_, _| {});
        assert!(r2.since(r1) >= m.tx_time(CTRL_BYTES) - simcore::SimDuration::nanos(1));
        let mut q: Box<dyn Fabric<W>> = build_fabric(FabricKind::QsNet, m, 8);
        let q1 = q.put(&mut sim, NodeId(0), NodeId(1), CTRL_BYTES, |_, _| {});
        let q2 = q.put(&mut sim, NodeId(0), NodeId(2), CTRL_BYTES, |_, _| {});
        assert_eq!(q1, q2, "qsnet control puts are unqueued");
    }

    #[test]
    fn rendezvous_get_costs_request_turnaround_data() {
        let m = NetModel::infiniband();
        let mut f = fab(8);
        let mut sim: Sim<W> = Sim::new();
        let mut w = world();
        let bytes = 100_000;
        let t = f.get(&mut sim, NodeId(0), NodeId(1), bytes, |w, s| {
            w.delivered.push((s.now().0, "get"));
        });
        sim.run(&mut w);
        let one_way = m.unicast_latency(2);
        let expect = one_way
            + m.tx_time(CTRL_BYTES)
            + m.nic_op
            + one_way
            + m.tx_time(bytes)
            + m.nic_op;
        assert_eq!(t.since(SimTime::ZERO), expect);
        assert_eq!(w.delivered.len(), 1);
    }

    #[test]
    fn software_multicast_reaches_all_with_log_depth() {
        let m = NetModel::infiniband();
        let mut f = fab(32);
        let mut sim: Sim<W> = Sim::new();
        let mut w = world();
        let dests: Vec<NodeId> = (0..32).map(NodeId).collect();
        let t = f.multicast(
            &mut sim,
            NodeId(0),
            &dests,
            CTRL_BYTES,
            Some(Rc::new(|w: &mut W, s: &mut Sim<W>, d: NodeId| {
                w.per_dest.push((s.now().0, d.0));
            })),
            |w, s| w.delivered.push((s.now().0, "done")),
        );
        sim.run(&mut w);
        assert_eq!(w.per_dest.len(), 32);
        assert_eq!(w.delivered.len(), 1);
        let max_dest = w.per_dest.iter().map(|&(t, _)| t).max().unwrap();
        assert_eq!(w.delivered[0].0, max_dest);
        assert_eq!(t.0, max_dest);
        // Binomial tree: the last of 31 relayed copies lands 5 stages deep,
        // and the spread between first and last non-self delivery is at
        // least 4 stage latencies — the opposite of hardware multicast's
        // tight window.
        let stage = match m.mcast {
            qsnet::McastImpl::SoftwareTree { stage, .. } => stage,
            _ => unreachable!(),
        };
        let wire: Vec<u64> = w
            .per_dest
            .iter()
            .filter(|&&(_, d)| d != 0)
            .map(|&(t, _)| t)
            .collect();
        let spread = wire.iter().max().unwrap() - wire.iter().min().unwrap();
        assert!(
            spread >= 4 * stage.as_nanos(),
            "software multicast should fan out over stages, spread {spread}ns"
        );
    }

    #[test]
    fn multicasts_are_totally_ordered_through_the_sequencer() {
        let m = NetModel::infiniband();
        let mut f = fab(8);
        let mut sim: Sim<W> = Sim::new();
        let dests: Vec<NodeId> = (0..8).map(NodeId).collect();
        let bytes = 400_000;
        let t1 = f.multicast(&mut sim, NodeId(0), &dests, bytes, None, |_, _| {});
        let t2 = f.multicast(&mut sim, NodeId(1), &dests, bytes, None, |_, _| {});
        // The second multicast cannot start before the first clears its
        // opening stage.
        assert!(t2.since(t1) >= m.mcast_tx_time(bytes) - simcore::SimDuration::micros(10));
    }

    #[test]
    fn conditional_is_log_stages_and_serializes() {
        let m = NetModel::infiniband();
        let mut f = fab(32);
        let mut sim: Sim<W> = Sim::new();
        let mut w = world();
        let stage = match m.cond {
            qsnet::CondImpl::SoftwareTree { stage } => stage,
            _ => unreachable!(),
        };
        let t1 = f.conditional(&mut sim, NodeId(0), 32, |w, s| {
            w.delivered.push((s.now().0, "c1"));
        });
        assert_eq!(t1.since(SimTime::ZERO), stage * 5); // log2_ceil(32) = 5
        let t2 = f.conditional(&mut sim, NodeId(1), 32, |w, s| {
            w.delivered.push((s.now().0, "c2"));
        });
        assert!(t2 > t1 - stage * 5, "ordered starts");
        sim.run(&mut w);
        assert_eq!(w.delivered.len(), 2);
        assert_eq!(w.delivered[0].1, "c1");
    }

    #[test]
    fn fault_surface_matches_qsnet_contract() {
        let mut f = fab(8);
        let mut sim: Sim<W> = Sim::new();
        let mut w = world();
        f.plan_drops(vec![1]);
        // Control writes take no bulk_seq coordinate; bulk seq 1 drops.
        f.put(&mut sim, NodeId(0), NodeId(1), CTRL_BYTES, |w, s| {
            w.delivered.push((s.now().0, "ctrl"));
        });
        f.put(&mut sim, NodeId(0), NodeId(1), 400_000, |w, s| {
            w.delivered.push((s.now().0, "bulk0"));
        });
        f.put(&mut sim, NodeId(0), NodeId(1), 400_000, |w, s| {
            w.delivered.push((s.now().0, "bulk1"));
        });
        f.put(&mut sim, NodeId(0), NodeId(1), 400_000, |w, s| {
            w.delivered.push((s.now().0, "bulk2"));
        });
        sim.run(&mut w);
        let tags: Vec<&str> = w.delivered.iter().map(|&(_, t)| t).collect();
        assert_eq!(tags, vec!["ctrl", "bulk0", "bulk2"]);
        assert_eq!(f.stats().drops, 1);
        assert_eq!(f.bulk_seq(), 3);

        // Dead node: reservations unchanged, delivery suppressed.
        let mut dead_f = fab(8);
        let mut live_f = fab(8);
        dead_f.kill_node(NodeId(3));
        let t_dead = dead_f.put(&mut sim, NodeId(0), NodeId(3), 400_000, |w, s| {
            w.delivered.push((s.now().0, "lost"));
        });
        let t_live = live_f.put(&mut sim, NodeId(0), NodeId(3), 400_000, |_, _| {});
        sim.run(&mut w);
        assert_eq!(t_dead, t_live, "reservations stay deterministic");
        assert!(!w.delivered.iter().any(|&(_, t)| t == "lost"));
        assert_eq!(dead_f.stats().dead_skips, 1);
        dead_f.revive_node(NodeId(3));
        assert!(!dead_f.is_dead(NodeId(3)));
    }

    #[test]
    fn degradation_window_scales_bulk_writes() {
        let m = NetModel::infiniband();
        let mut f = fab(8);
        let mut sim: Sim<W> = Sim::new();
        let bytes = 400_000;
        f.degrade_link(Degradation {
            node: NodeId(1),
            from: SimTime::ZERO,
            to: SimTime(1_000_000_000),
            factor: 4,
        });
        let t = f.put(&mut sim, NodeId(0), NodeId(1), bytes, |_, _| {});
        let expect = m.unicast_latency(2) + m.tx_time(bytes) * 4 + m.nic_op;
        assert_eq!(t.since(SimTime::ZERO), expect);
        f.clear_degradations();
        let t2 = f.put(&mut sim, NodeId(2), NodeId(3), bytes, |_, _| {});
        assert_eq!(
            t2.since(SimTime::ZERO),
            m.unicast_latency(2) + m.tx_time(bytes) + m.nic_op
        );
    }

    #[test]
    fn snapshot_restore_round_trips_and_revives() {
        let mut f = fab(8);
        let mut sim: Sim<W> = Sim::new();
        f.put(&mut sim, NodeId(0), NodeId(1), 400_000, |_, _| {});
        f.conditional(&mut sim, NodeId(0), 8, |_, _| {});
        let snap = f.snapshot();
        f.kill_node(NodeId(5));
        f.plan_drops(vec![7]);
        f.put(&mut sim, NodeId(0), NodeId(2), 640_000, |_, _| {});
        let t_before = f.put(&mut sim, NodeId(0), NodeId(4), 400_000, |_, _| {});
        f.restore(&snap);
        assert!(!f.is_dead(NodeId(5)));
        assert_eq!(f.bulk_seq(), 1);
        assert_eq!(f.stats().puts, 1);
        // Re-capture of the restored (untouched) state is a refcount bump.
        let again = f.snapshot();
        assert!(Rc::ptr_eq(snap.state(), again.state()));
        let t_after = f.put(&mut sim, NodeId(0), NodeId(4), 400_000, |_, _| {});
        assert!(t_after <= t_before);
    }

    #[test]
    #[should_panic(expected = "fabric-kind mismatch")]
    fn restoring_a_qsnet_snapshot_panics() {
        let mut q: Box<dyn Fabric<W>> = build_fabric(FabricKind::QsNet, NetModel::qsnet(), 4);
        let snap = q.snapshot();
        let mut r = fab(4);
        r.restore(&snap);
    }
}
