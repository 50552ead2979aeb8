#![forbid(unsafe_code)]
//! # rdmanet — RDMA-channel timing rules with software-emulated BCS primitives
//!
//! The BCS primitives lean on two pieces of QsNet hardware that most
//! interconnects do not have: switch-replicated ordered multicast and
//! network conditionals. This crate models an RDMA-channel fabric in the
//! style of 2003-era InfiniBand VAPI (Liu et al., "Design and
//! Implementation of MPICH2 over InfiniBand with RDMA Support",
//! cs/0310059) and rebuilds both missing primitives in software, as a second
//! set of timing rules ([`Fabric`]) over the same [`Net`] the QsNet rules
//! run on — so the strobe/DEM layer and the descriptor-exchange path run
//! unchanged on either interconnect:
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
//! The three modelled differences from QsNet, and all this crate holds: RDMA
//! channels have **no free priority channel** — control-sized packets
//! (descriptors, read requests) occupy the send/receive queue pairs like
//! any other work request, so control traffic queues behind bulk DMA; a
//! completion **surfaces one HCA operation after the last byte**; and both
//! collectives are **software trees**. Counters, fault injection
//! (`kill_node`, link degradation, planned drops) and snapshot/restore are
//! `Net`'s, so one fault plan replays bit-identically on both fabrics.

use qsnet::fabric::{CTRL_BYTES, Net};
use qsnet::model::log2_ceil;
use qsnet::{CondImpl, Fabric, FabricKind, McastImpl, NetModel, NodeId, NodeSet, QsNetFabric, Runs};
use simcore::{SimDuration, SimTime};

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

/// The simulated RDMA-channel interconnect: the port clocks are the HCAs'
/// send/receive queue pairs, and the ordering clock is a software
/// **sequencer** that stands in for QsNet's hardware root serializer — every
/// emulated collective acquires it, which is where the total order of
/// multicast payloads and conditional fire times comes from.
pub struct RdmaFabric {
    net: Net,
}

impl RdmaFabric {
    pub fn new(model: NetModel, nodes: usize) -> RdmaFabric {
        RdmaFabric {
            net: Net::new(FabricKind::Rdma, model, nodes),
        }
    }

    /// Per-stage cost of one software-tree forwarding hop for a multicast
    /// payload of `bytes`: the model's stage latency plus retransmission.
    /// Running a hardware-multicast model on this fabric still emulates in
    /// software — the relay then costs a wire hop plus an HCA operation.
    fn mcast_stage(&self, bytes: u64) -> SimDuration {
        let m = self.net.model();
        let stage = match m.mcast {
            McastImpl::SoftwareTree { stage, .. } => stage,
            McastImpl::Hardware { .. } => m.base_latency + m.nic_op,
        };
        stage + m.mcast_tx_time(bytes)
    }

    /// Per-stage round cost of the gather-to-root conditional emulation.
    fn cond_stage(&self) -> SimDuration {
        let m = self.net.model();
        match m.cond {
            CondImpl::SoftwareTree { stage } => stage,
            // Up-and-down a level in software: two wire hops + HCA ops.
            CondImpl::Hardware { .. } => (m.base_latency + m.nic_op) * 2,
        }
    }

    /// When the operation between `a` and `b` whose data write is `write`
    /// (last byte, landed) completes: one HCA operation after the last
    /// byte, unless it was a loopback.
    fn surfaced(&self, a: NodeId, b: NodeId, write: (SimTime, bool)) -> (SimTime, bool) {
        let (last_byte, landed) = write;
        let at = if a == b { last_byte } else { last_byte + self.net.model().nic_op };
        (at, landed)
    }
}

/// Every write, control-sized or not, goes through [`Net::reserve`]: there
/// is no priority channel to take instead.
impl<W: 'static> Fabric<W> for RdmaFabric {
    fn net(&self) -> &Net {
        &self.net
    }
    fn net_mut(&mut self) -> &mut Net {
        &mut self.net
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
        let write = self.net.reserve(now, src, dst, bytes);
        self.surfaced(src, dst, write)
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
        let (req_at, _) = self.net.reserve(now, requester, target, CTRL_BYTES);
        let data_issue = req_at + self.net.model().nic_op;
        let write = self.net.reserve(data_issue, target, requester, bytes);
        self.surfaced(requester, target, write)
    }

    /// Gather-to-root conditional: `ceil(log2 span)` reduction stages up a
    /// software tree, serialized through the sequencer — overlapping
    /// conditionals stay sequentially consistent, at software latency.
    fn conditional_timing(&mut self, now: SimTime, _src: NodeId, span: usize) -> SimTime {
        let m = self.net.model();
        let hold = m.tx_time(CTRL_BYTES) + m.nic_op;
        let latency = self.cond_stage() * log2_ceil(span) as u64;
        let ports = self.net.ports_mut();
        let start = now.max(ports.order_free);
        ports.order_free = start + hold;
        start + latency
    }

    /// Software multicast: binomial fan-out of point-to-point RDMA writes.
    ///
    /// Destination `j` (in argument order, self-deliveries excepted) is
    /// reached after `floor(log2(j+1)) + 1` store-and-forward stages —
    /// each stage the set of reached nodes doubles as every holder
    /// forwards one copy. The whole operation acquires the software
    /// sequencer for its first stage, so concurrent multicasts inject in a
    /// total order, exactly like QsNet's root serializer — delivery hooks
    /// then fire in deterministic (stage, argument-order) order, one
    /// simulator event per stage. Stage `k` reaches relays `2^(k-1) - 1 ..
    /// 2^k - 1`, so a control multicast is one run per depth (split where
    /// the source's own copy sits).
    fn multicast_timing(
        &mut self,
        now: SimTime,
        src: NodeId,
        dests: &NodeSet,
        bytes: u64,
        runs: &mut Runs,
    ) {
        let stage_cost = self.mcast_stage(bytes);
        let m = self.net.model();
        let (tx, nic_op, base_latency) = (m.mcast_tx_time(bytes), m.nic_op, m.base_latency);
        let ctrl = bytes <= CTRL_BYTES;
        let ports = self.net.ports_mut();
        // The root-of-tree injection owns the source send queue and the
        // sequencer; the sequencer frees after one stage (pipelined, but
        // totally ordered starts — the QsNet root's discipline).
        let start = now.max(ports.order_free).max(ports.tx_free[src.0]);
        ports.tx_free[src.0] = start + tx;
        ports.order_free = start + stage_cost;

        let loopback = start + nic_op;
        // Relay `r` (index among non-self destinations) is reached after
        // floor(log2(r + 1)) + 1 stages.
        let depth = |relay: usize| log2_ceil(relay + 2) as u64;
        let reached = |depth: u64| start + base_latency + stage_cost * depth;
        if ctrl {
            let mut selfs = dests.positions(src).peekable();
            let (mut i, mut relay) = (0, 0);
            while i < dests.len() {
                if selfs.next_if_eq(&i).is_some() {
                    runs.push(loopback, i + 1);
                    i += 1;
                    continue;
                }
                let k = depth(relay);
                let stage_end = i + ((1 << k) - 1 - relay);
                let end = stage_end.min(dests.len()).min(selfs.peek().copied().unwrap_or(usize::MAX));
                runs.push(reached(k), end);
                relay += end - i;
                i = end;
            }
            return;
        }
        let mut relay = 0;
        for (i, &d) in dests.iter().enumerate() {
            let deliver = if d == src {
                loopback
            } else {
                let base = reached(depth(relay));
                relay += 1;
                // Bulk copies additionally FIFO through the receive QP.
                let deliver = (base - tx).max(ports.rx_free[d.0]) + tx;
                ports.rx_free[d.0] = deliver;
                deliver
            };
            runs.push(deliver, i + 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qsnet::Degradation;
    use simcore::Sim;
    use std::rc::Rc;

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
        assert_eq!(q.net().kind(), FabricKind::QsNet);
        let r = fab(4);
        assert_eq!(r.net().kind(), FabricKind::Rdma);
        assert_eq!(r.net().nodes(), 4);
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
            Some(Rc::new(|w: &mut W, s: &mut Sim<W>, ds: qsnet::Reached<'_>| {
                w.per_dest.extend(ds.nodes().map(|d| (s.now().0, d.0)));
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
            McastImpl::SoftwareTree { stage, .. } => stage,
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
            CondImpl::SoftwareTree { stage } => stage,
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
        f.net_mut().plan_drops(vec![1]);
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
        assert_eq!(f.net().stats().drops, 1);
        assert_eq!(f.net().bulk_seq(), 3);

        // Dead node: reservations unchanged, delivery suppressed.
        let mut dead_f = fab(8);
        let mut live_f = fab(8);
        dead_f.net_mut().kill_node(NodeId(3));
        let t_dead = dead_f.put(&mut sim, NodeId(0), NodeId(3), 400_000, |w, s| {
            w.delivered.push((s.now().0, "lost"));
        });
        let t_live = live_f.put(&mut sim, NodeId(0), NodeId(3), 400_000, |_, _| {});
        sim.run(&mut w);
        assert_eq!(t_dead, t_live, "reservations stay deterministic");
        assert!(!w.delivered.iter().any(|&(_, t)| t == "lost"));
        assert_eq!(dead_f.net().stats().dead_skips, 1);
    }

    #[test]
    fn degradation_window_scales_bulk_writes() {
        let m = NetModel::infiniband();
        let mut f = fab(8);
        let mut sim: Sim<W> = Sim::new();
        let bytes = 400_000;
        f.net_mut().degrade_link(Degradation {
            node: NodeId(1),
            from: SimTime::ZERO,
            to: SimTime(1_000_000_000),
            factor: 4,
        });
        let t = f.put(&mut sim, NodeId(0), NodeId(1), bytes, |_, _| {});
        let expect = m.unicast_latency(2) + m.tx_time(bytes) * 4 + m.nic_op;
        assert_eq!(t.since(SimTime::ZERO), expect);
        // A transfer touching neither end of the degraded link is not slowed.
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
        let snap = f.net_mut().snapshot();
        f.net_mut().kill_node(NodeId(5));
        f.net_mut().plan_drops(vec![7]);
        f.put(&mut sim, NodeId(0), NodeId(2), 640_000, |_, _| {});
        let t_before = f.put(&mut sim, NodeId(0), NodeId(4), 400_000, |_, _| {});
        f.net_mut().restore(&snap);
        assert!(!f.net().is_dead(NodeId(5)));
        assert_eq!(f.net().bulk_seq(), 1);
        assert_eq!(f.net().stats().puts, 1);
        // Re-capture of the restored (untouched) state is a refcount bump.
        assert!(snap.ptr_eq(&f.net_mut().snapshot()));
        let t_after = f.put(&mut sim, NodeId(0), NodeId(4), 400_000, |_, _| {});
        assert!(t_after <= t_before);
    }

    #[test]
    #[should_panic(expected = "fabric-kind mismatch")]
    fn restoring_a_qsnet_snapshot_panics() {
        let mut q: Box<dyn Fabric<W>> = build_fabric(FabricKind::QsNet, NetModel::qsnet(), 4);
        let snap = q.net_mut().snapshot();
        fab(4).net_mut().restore(&snap);
    }

    #[test]
    #[should_panic(expected = "fabric-kind mismatch: qsnet fabric restoring a rdma snapshot")]
    fn qsnet_refuses_an_rdma_snapshot() {
        let snap = fab(4).net_mut().snapshot();
        let mut q: Box<dyn Fabric<W>> = build_fabric(FabricKind::QsNet, NetModel::qsnet(), 4);
        q.net_mut().restore(&snap);
    }

    #[test]
    #[should_panic(expected = "snapshot node count")]
    fn restoring_another_machine_size_panics() {
        let snap = fab(4).net_mut().snapshot();
        fab(8).net_mut().restore(&snap);
    }
}
