//! The fabric: issue-time analytic timing with per-port FIFO contention.
//!
//! Every NIC has one transmit and one receive port; collective wire
//! operations (multicast, network conditional) additionally serialize through
//! the root of the fat tree, which is what gives `Xfer-And-Signal` and
//! `Compare-And-Write` their total order (sequential consistency — see the
//! paper's §2, point 2).
//!
//! All reservations happen synchronously when an operation is issued, in
//! event order, so the model is deterministic and needs no per-packet events:
//! a transfer's delivery time is computed immediately and its completion
//! callback scheduled on the simulator queue.
//!
//! The interconnect surface the engines program against is the object-safe
//! [`Fabric`] trait; [`QsNetFabric`] is the Quadrics implementation
//! (hardware multicast + network conditionals), and `rdmanet::RdmaFabric`
//! provides the RDMA-channel alternative with software emulations of both
//! collectives. Engines hold a `Box<dyn Fabric<W>>` and never learn which
//! one they got. A unicast operation (put, get, conditional) is a *timing
//! function* on the trait — reserve, account, return the completion instant
//! — and the `put`/`get`/`conditional` wrappers on `dyn Fabric<W>` schedule
//! the caller's closure themselves, unboxed, so a small completion lives
//! inline in its simulator event; only `multicast`, whose per-destination
//! hook is shared between events, takes boxed hooks.

use crate::model::NetModel;
use crate::topology::{NodeId, Topology};
use simcore::{Sim, SimTime};
use std::any::Any;
use std::rc::Rc;

/// Wire-level size of a control packet (descriptors, get requests,
/// conditional queries). Matches the Elan3 64-byte event/packet granularity.
pub const CTRL_BYTES: u64 = 64;

/// Traffic counters, cheap enough to update on every operation.
#[derive(Clone, Copy, Debug, Default)]
pub struct FabricStats {
    pub puts: u64,
    pub put_bytes: u64,
    pub gets: u64,
    pub get_bytes: u64,
    pub multicasts: u64,
    pub multicast_bytes: u64,
    pub conditionals: u64,
    /// Coalesced blocks carried (see `bcs-core::coalesce`): each is one
    /// put/get already counted above, merging `gathered_msgs` logical
    /// messages of `gathered_bytes` payload. Recorded via
    /// [`Fabric::note_gather`] so both fabrics expose identical accounting.
    pub gathers: u64,
    pub gathered_msgs: u64,
    pub gathered_bytes: u64,
    /// Planned data-channel DMA drops that fired (fault injection).
    pub drops: u64,
    /// Deliveries suppressed because an endpoint was fail-stopped.
    pub dead_skips: u64,
}

/// A link-degradation window for fault injection: while `[from, to)` is
/// active, bulk transfers touching `node` have their serialization time
/// multiplied by `factor`. A very large factor models a link flap (the
/// transfer effectively stalls for the window).
#[derive(Clone, Debug)]
pub struct Degradation {
    pub node: NodeId,
    pub from: SimTime,
    pub to: SimTime,
    pub factor: u32,
}

/// Which interconnect implementation backs a cluster. Selected per engine
/// config (`BcsConfig::fabric`, `QuadricsConfig::fabric`) and, at the CLI,
/// via `REPRO_FABRIC` (see `apps::runner::fabric_from_env`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FabricKind {
    /// Quadrics QsNet: hardware ordered multicast + network conditionals,
    /// control packets ride a free priority channel.
    #[default]
    QsNet,
    /// RDMA channel (InfiniBand-class): eager RDMA writes with piggybacked
    /// completion flags, rendezvous via RDMA read, and *software* emulations
    /// of multicast (binomial tree) and the global conditional
    /// (gather-to-root) — implemented by `rdmanet::RdmaFabric`.
    Rdma,
}

impl FabricKind {
    pub fn name(self) -> &'static str {
        match self {
            FabricKind::QsNet => "qsnet",
            FabricKind::Rdma => "rdma",
        }
    }
}

/// Fabric-private snapshot payload behind [`FabricSnapshot`]'s type erasure.
/// Each fabric implementation captures its own occupancy state (port
/// clocks, sequencer clocks, stats) into one of these; `restore` downcasts
/// back via [`SnapState::as_any`] and panics on a fabric-kind mismatch —
/// restoring a QsNet image into an RDMA fabric is a driver bug, not a
/// recoverable condition.
pub trait SnapState: Any + std::fmt::Debug {
    /// Deep copy sharing nothing with any snapshot cache.
    fn materialize_state(&self) -> Rc<dyn SnapState>;
    fn as_any(&self) -> &dyn Any;
}

/// Port-occupancy state of a fabric at a quiescent instant, for
/// checkpoint/restore. Capturing the free times (rather than resetting
/// them) keeps post-restore timing identical to the original run; fault
/// state (dead nodes, drop plans, degradations) is deliberately *not*
/// captured — a restore revives the machine.
///
/// The state sits behind an `Rc` shared with the fabric's snapshot cache:
/// cloning a snapshot — and re-capturing an unchanged fabric — is a
/// refcount bump, the same copy-on-write scheme the engine uses for NIC
/// state and payloads. The payload is type-erased ([`SnapState`]) so one
/// checkpoint image format serves every fabric implementation.
#[derive(Clone, Debug)]
pub struct FabricSnapshot(Rc<dyn SnapState>);

impl FabricSnapshot {
    /// Wrap a fabric implementation's captured state.
    pub fn new(state: Rc<dyn SnapState>) -> FabricSnapshot {
        FabricSnapshot(state)
    }

    /// The erased state, for a fabric's `restore` to downcast.
    pub fn state(&self) -> &Rc<dyn SnapState> {
        &self.0
    }

    /// Deep copy sharing nothing with the fabric's snapshot cache or any
    /// other snapshot — the reference point incremental checkpoint images
    /// are validated against.
    pub fn materialize(&self) -> FabricSnapshot {
        FabricSnapshot(self.0.materialize_state())
    }
}

#[derive(Clone, Debug)]
struct PortState {
    tx_free: Vec<SimTime>,
    rx_free: Vec<SimTime>,
    coll_free: SimTime,
    stats: FabricStats,
    bulk_seq: u64,
}

impl SnapState for PortState {
    fn materialize_state(&self) -> Rc<dyn SnapState> {
        Rc::new(self.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Completion callback of a multicast, boxed so the trait stays
/// object-safe.
pub type OnDone<W> = Box<dyn FnOnce(&mut W, &mut Sim<W>)>;

/// Per-destination delivery hook of a multicast.
pub type DeliverFn<W> = Rc<dyn Fn(&mut W, &mut Sim<W>, NodeId)>;

/// Schedule the hook calls of one multicast: one simulator event per
/// distinct delivery instant, which runs `hook` for that instant's
/// destinations in the order they appear in `deliveries` (`dests` order).
///
/// This is the order one event per destination would give (DESIGN §9): a
/// multicast schedules all its deliveries in one call, so their sequence
/// numbers are adjacent and no other event can sit between two deliveries
/// of the same instant; whatever a hook schedules for that instant is
/// numbered after all of them either way.
pub fn schedule_deliveries<W: 'static>(
    sim: &mut Sim<W>,
    hook: &DeliverFn<W>,
    mut deliveries: Vec<(SimTime, NodeId)>,
) {
    // Stable, so destinations sharing an instant keep their `dests` order.
    deliveries.sort_by_key(|&(at, _)| at);
    for run in deliveries.chunk_by(|a, b| a.0 == b.0) {
        let hook = Rc::clone(hook);
        let nodes: Vec<NodeId> = run.iter().map(|&(_, d)| d).collect();
        sim.schedule_at(run[0].0, move |w, sim| {
            for d in nodes {
                hook(w, sim, d);
            }
        });
    }
}

/// The interconnect surface the BCS stack programs against: unicast DMA
/// (put/get), ordered multicast, the global conditional, fault injection,
/// and occupancy snapshot/restore. Object-safe — engines hold a
/// `Box<dyn Fabric<W>>` — so the unicast operations take no closure at all
/// (see the `*_timing` methods); the wrappers on `dyn Fabric<W>` below give
/// call sites `fabric.put(sim, src, dst, bytes, |w, sim| ...)`.
///
/// Contract every implementation must honor (the recovery and gate suites
/// assume it):
///
/// * all timing is reserved synchronously at issue, in event order —
///   bit-identical replay from equal state;
/// * multicast payloads and conditional fire times are **totally ordered**
///   across the whole machine (sequential consistency, paper §2);
/// * only transfers larger than [`CTRL_BYTES`] consume a `bulk_seq`
///   coordinate — fault-injection drop plans are portable across fabrics;
/// * dead endpoints suppress delivery callbacks but never change
///   reservations;
/// * the `per_dest` hooks of one multicast run in `dests` order, and
///   destinations sharing a delivery instant share one simulator event
///   ([`schedule_deliveries`]).
pub trait Fabric<W: 'static> {
    fn kind(&self) -> FabricKind;
    fn model(&self) -> &NetModel;
    fn topology(&self) -> &Topology;
    fn nodes(&self) -> usize;
    fn stats(&self) -> &FabricStats;
    fn reset_stats(&mut self);
    /// Account one coalesced block the engine is about to issue as a
    /// single put/get: `msgs` logical messages of `logical_bytes` payload
    /// merged behind one scatter header (see `bcs-core::coalesce`).
    fn note_gather(&mut self, msgs: u64, logical_bytes: u64);

    // Fault injection (see `faultsim`).
    fn kill_node(&mut self, node: NodeId);
    fn revive_node(&mut self, node: NodeId);
    fn is_dead(&self, node: NodeId) -> bool;
    fn degrade_link(&mut self, d: Degradation);
    fn clear_degradations(&mut self);
    fn plan_drops(&mut self, seqs: Vec<u64>);
    fn bulk_seq(&self) -> u64;

    // Checkpoint/restore.
    fn snapshot(&mut self) -> FabricSnapshot;
    fn restore(&mut self, s: &FabricSnapshot);

    // Unicast wire operations, issued at `now`: reserve the ports, account
    // the operation, and return its completion instant and whether the
    // completion is delivered at all (not for a planned drop or a dead
    // endpoint). Call the `dyn` wrappers, which schedule the completion.

    /// Remote put (one-sided write): DMA `bytes` from `src` to `dst`;
    /// complete when the last byte lands in destination memory.
    fn put_timing(&mut self, now: SimTime, src: NodeId, dst: NodeId, bytes: u64)
        -> (SimTime, bool);
    /// Remote get (one-sided read): `requester` pulls `bytes` from
    /// `target`'s memory. This is how the BCS-MPI DMA Helper moves message
    /// bodies (Figure 6, step 9).
    fn get_timing(
        &mut self,
        now: SimTime,
        requester: NodeId,
        target: NodeId,
        bytes: u64,
    ) -> (SimTime, bool);
    /// Network conditional spanning `span` nodes, the transport of
    /// `Compare-And-Write`: the fabric provides ordering and latency, the
    /// caller evaluates the predicate (and performs the global write) at
    /// the returned fire time. Always fires.
    fn conditional_timing(&mut self, now: SimTime, src: NodeId, span: usize) -> SimTime;

    /// Ordered, reliable, atomic multicast from `src` to `dests`
    /// (self-delivery permitted). `per_dest` runs at each destination's
    /// delivery instant; `on_complete` runs once, when the last destination
    /// has been reached. Returns the completion time.
    fn multicast_boxed(
        &mut self,
        sim: &mut Sim<W>,
        src: NodeId,
        dests: &[NodeId],
        bytes: u64,
        per_dest: Option<DeliverFn<W>>,
        on_complete: OnDone<W>,
    ) -> SimTime;
}

/// The wire operations as call sites write them, on trait objects
/// (`cluster.fabric.put(sim, src, dst, bytes, |w, s| ...)`): the unicast
/// ones schedule the completion closure as it is — no box — at the instant
/// the timing method returns. Each returns that instant.
impl<W: 'static> dyn Fabric<W> {
    pub fn put(
        &mut self,
        sim: &mut Sim<W>,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        on_delivered: impl FnOnce(&mut W, &mut Sim<W>) + 'static,
    ) -> SimTime {
        let (at, lands) = self.put_timing(sim.now(), src, dst, bytes);
        if lands {
            sim.schedule_at(at, on_delivered);
        }
        at
    }

    pub fn get(
        &mut self,
        sim: &mut Sim<W>,
        requester: NodeId,
        target: NodeId,
        bytes: u64,
        on_delivered: impl FnOnce(&mut W, &mut Sim<W>) + 'static,
    ) -> SimTime {
        let (at, lands) = self.get_timing(sim.now(), requester, target, bytes);
        if lands {
            sim.schedule_at(at, on_delivered);
        }
        at
    }

    pub fn multicast(
        &mut self,
        sim: &mut Sim<W>,
        src: NodeId,
        dests: &[NodeId],
        bytes: u64,
        per_dest: Option<DeliverFn<W>>,
        on_complete: impl FnOnce(&mut W, &mut Sim<W>) + 'static,
    ) -> SimTime {
        self.multicast_boxed(sim, src, dests, bytes, per_dest, Box::new(on_complete))
    }

    pub fn conditional(
        &mut self,
        sim: &mut Sim<W>,
        src: NodeId,
        span: usize,
        on_fire: impl FnOnce(&mut W, &mut Sim<W>) + 'static,
    ) -> SimTime {
        let at = self.conditional_timing(sim.now(), src, span);
        sim.schedule_at(at, on_fire);
        at
    }
}

/// The simulated QsNet interconnect (Elan3 NICs + Elite fat tree).
pub struct QsNetFabric {
    model: NetModel,
    topo: Topology,
    tx_free: Vec<SimTime>,
    rx_free: Vec<SimTime>,
    /// Root serializer: totally orders collective wire operations.
    coll_free: SimTime,
    stats: FabricStats,
    /// Fail-stopped nodes: deliveries from/to them are suppressed at issue
    /// time. A transfer already in flight when the node dies still lands
    /// (its delivery was scheduled at issue) — matching a NIC whose DMA
    /// completed before the crash.
    dead: Vec<bool>,
    degradations: Vec<Degradation>,
    /// Sorted bulk-DMA sequence numbers to drop (transient data-channel
    /// faults): the wire time is still consumed but the payload never
    /// lands, so the delivery callback is not scheduled.
    drop_seqs: Vec<u64>,
    /// Monotone count of bulk (non-control) transfers issued; the
    /// coordinate system of `drop_seqs`.
    bulk_seq: u64,
    /// Cached snapshot, shared with every image captured since the ports
    /// last changed; `snap_dirty` is set by any port/stats mutation.
    snap_cache: Option<FabricSnapshot>,
    snap_dirty: bool,
}

impl QsNetFabric {
    pub fn new(model: NetModel, nodes: usize) -> QsNetFabric {
        QsNetFabric {
            model,
            topo: Topology::fat_tree(nodes),
            tx_free: vec![SimTime::ZERO; nodes],
            rx_free: vec![SimTime::ZERO; nodes],
            coll_free: SimTime::ZERO,
            stats: FabricStats::default(),
            dead: vec![false; nodes],
            degradations: Vec::new(),
            drop_seqs: Vec::new(),
            bulk_seq: 0,
            snap_cache: None,
            snap_dirty: true,
        }
    }

    /// Invalidate the snapshot cache; called by every mutation of
    /// snapshot-visible state (port clocks, stats, bulk sequence).
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

    /// Whether an operation between `a` and `b` completes: not when the
    /// payload was dropped, and not (counted) when an endpoint is dead.
    fn lands(&mut self, a: NodeId, b: NodeId, landed: bool) -> bool {
        let dead = self.dead[a.0] || self.dead[b.0];
        self.stats.dead_skips += dead as u64;
        landed && !dead
    }

    /// Reserve the tx/rx ports for a unicast. Returns the delivery time and
    /// whether the payload actually lands (false when the transfer is a
    /// planned data-channel drop: wire time is consumed, delivery is not).
    fn reserve_put(
        &mut self,
        issue: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> (SimTime, bool) {
        if src == dst {
            // Local copy through the NIC; charge DMA time but no wire.
            return (issue + self.model.nic_op + self.model.tx_time(bytes), true);
        }
        if bytes <= CTRL_BYTES {
            // Control packets (descriptors, get requests, strobes) ride the
            // high-priority system virtual channel: latency only, no
            // occupancy — they never queue behind bulk DMA.
            return (
                issue
                    + self.model.unicast_latency(self.topo.hops(src, dst))
                    + self.model.tx_time(bytes),
                true,
            );
        }
        let seq = self.bulk_seq;
        self.bulk_seq += 1;
        let dropped = self.drop_seqs.binary_search(&seq).is_ok();
        if dropped {
            self.stats.drops += 1;
        }
        let factor = self.degrade_factor(src, issue).max(self.degrade_factor(dst, issue));
        let tx = self.model.tx_time(bytes) * factor;
        let start = issue.max(self.tx_free[src.0]);
        self.tx_free[src.0] = start + tx;
        let first_bit = start + self.model.unicast_latency(self.topo.hops(src, dst));
        let rx_start = first_bit.max(self.rx_free[dst.0]);
        let deliver = rx_start + tx;
        self.rx_free[dst.0] = deliver;
        (deliver, !dropped)
    }
}

impl<W: 'static> Fabric<W> for QsNetFabric {
    fn kind(&self) -> FabricKind {
        FabricKind::QsNet
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

    /// Fail-stop `node`: from now on no delivery originates from or lands
    /// on it. Timing reservations still account for its traffic already in
    /// the FIFOs, keeping the model deterministic.
    fn kill_node(&mut self, node: NodeId) {
        self.dead[node.0] = true;
    }
    /// Undo `kill_node` (spare-node replacement semantics).
    fn revive_node(&mut self, node: NodeId) {
        self.dead[node.0] = false;
    }
    fn is_dead(&self, node: NodeId) -> bool {
        self.dead[node.0]
    }
    /// Register a link-degradation window (additive with existing ones;
    /// overlapping windows take the worst factor).
    fn degrade_link(&mut self, d: Degradation) {
        assert!(d.factor >= 1);
        self.degradations.push(d);
    }
    fn clear_degradations(&mut self) {
        self.degradations.clear();
    }
    /// Replace the planned set of bulk-DMA sequence numbers to drop.
    fn plan_drops(&mut self, mut seqs: Vec<u64>) {
        seqs.sort_unstable();
        seqs.dedup();
        self.drop_seqs = seqs;
    }
    /// Bulk transfers issued so far (the coordinate of the drop plan).
    fn bulk_seq(&self) -> u64 {
        self.bulk_seq
    }

    /// Capture the port-occupancy state (see [`FabricSnapshot`]).
    ///
    /// Served from the snapshot cache when nothing changed since the last
    /// capture — back-to-back captures of a quiet fabric are refcount
    /// bumps, and every image taken of the same state shares one
    /// allocation.
    fn snapshot(&mut self) -> FabricSnapshot {
        if self.snap_dirty || self.snap_cache.is_none() {
            self.snap_cache = Some(FabricSnapshot::new(Rc::new(PortState {
                tx_free: self.tx_free.clone(),
                rx_free: self.rx_free.clone(),
                coll_free: self.coll_free,
                stats: self.stats,
                bulk_seq: self.bulk_seq,
            })));
            self.snap_dirty = false;
        }
        self.snap_cache.clone().expect("snapshot cache just filled")
    }

    /// Restore port occupancy from a snapshot and clear all fault state
    /// (every node revived, degradations and drop plans forgotten). The
    /// recovery driver re-injects whatever faults remain in its plan.
    /// Copies in place — no allocation — and re-primes the snapshot cache
    /// with the restored image (the states are now identical).
    fn restore(&mut self, s: &FabricSnapshot) {
        let p: &PortState = s
            .state()
            .as_any()
            .downcast_ref()
            .expect("fabric-kind mismatch: QsNet fabric restoring a non-QsNet snapshot");
        assert_eq!(p.tx_free.len(), self.tx_free.len(), "snapshot node count");
        self.tx_free.copy_from_slice(&p.tx_free);
        self.rx_free.copy_from_slice(&p.rx_free);
        self.coll_free = p.coll_free;
        self.stats = p.stats;
        self.bulk_seq = p.bulk_seq;
        self.dead.iter_mut().for_each(|d| *d = false);
        self.degradations.clear();
        self.drop_seqs.clear();
        self.snap_cache = Some(s.clone());
        self.snap_dirty = false;
    }

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
        let (deliver, landed) = self.reserve_put(now, src, dst, bytes);
        (deliver, self.lands(src, dst, landed))
    }

    /// A control request travels to the target, then the data DMA streams
    /// back.
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
        // Request leg.
        let (req_at, _) = self.reserve_put(now, requester, target, CTRL_BYTES);
        // Data leg, reserved now (FIFO in issue order) but starting only
        // after the request arrives and the target NIC turns it around.
        let data_issue = req_at + self.model.nic_op;
        let (deliver, landed) = self.reserve_put(data_issue, target, requester, bytes);
        (deliver, self.lands(requester, target, landed))
    }

    /// Atomicity: the simulated fabric never drops packets, so "all or none"
    /// holds trivially; ordering comes from the root serializer.
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

        let n = dests.len();
        let ctrl = bytes <= CTRL_BYTES;
        let tx = self.model.mcast_tx_time(bytes);
        let start = if ctrl {
            // Strobes and other control multicasts use the priority channel:
            // ordered through the root but never queued behind bulk DMA.
            let s = sim.now().max(self.coll_free);
            self.coll_free = s + tx;
            s
        } else {
            let s = sim.now().max(self.tx_free[src.0]).max(self.coll_free);
            self.tx_free[src.0] = s + tx;
            self.coll_free = s + tx;
            s
        };
        let first_bit = start + self.model.mcast_latency(n, self.topo.levels());

        let mut last = SimTime::ZERO;
        let mut deliveries = Vec::with_capacity(if per_dest.is_some() { n } else { 0 });
        for &d in dests {
            let deliver = if d == src {
                // Loopback through the NIC, no wire.
                start + self.model.nic_op
            } else if ctrl {
                first_bit + tx
            } else {
                let rx_start = first_bit.max(self.rx_free[d.0]);
                let deliver = rx_start + tx;
                self.rx_free[d.0] = deliver;
                deliver
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

    fn conditional_timing(&mut self, now: SimTime, _src: NodeId, span: usize) -> SimTime {
        assert!(span > 0);
        self.touch();
        self.stats.conditionals += 1;
        let start = now.max(self.coll_free);
        // A conditional is a control packet through the root.
        self.coll_free = start + self.model.tx_time(CTRL_BYTES);
        start + self.model.cond_latency(span, self.topo.levels())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::NetModel;
    use simcore::SimDuration;

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

    fn qsnet(model: NetModel, nodes: usize) -> Box<dyn Fabric<W>> {
        Box::new(QsNetFabric::new(model, nodes))
    }

    #[test]
    fn uncontended_put_latency_is_base_plus_serialization() {
        let m = NetModel::qsnet();
        let mut fab = qsnet(m, 32);
        let mut sim: Sim<W> = Sim::new();
        let mut w = world();
        let bytes = 320_000; // 1 ms at 320 MB/s
        let t = fab.put(&mut sim, NodeId(0), NodeId(1), bytes, |w, s| {
            w.delivered.push((s.now().0, "put"));
        });
        sim.run(&mut w);
        let expect = m.unicast_latency(2) + m.tx_time(bytes);
        assert_eq!(t.since(SimTime::ZERO), expect);
        assert_eq!(w.delivered, vec![(t.0, "put")]);
    }

    #[test]
    fn puts_on_same_tx_port_serialize() {
        let m = NetModel::qsnet();
        let mut fab = qsnet(m, 32);
        let mut sim: Sim<W> = Sim::new();
        let bytes = 3_200_000; // 10 ms of wire time
        let t1 = fab.put(&mut sim, NodeId(0), NodeId(1), bytes, |_, _| {});
        let t2 = fab.put(&mut sim, NodeId(0), NodeId(2), bytes, |_, _| {});
        // Second transfer waits for the first to leave the tx port.
        assert!(t2.since(t1) >= m.tx_time(bytes) - SimDuration::micros(10));
        // Different source is unaffected.
        let t3 = fab.put(&mut sim, NodeId(3), NodeId(4), bytes, |_, _| {});
        assert!(t3 < t2);
    }

    #[test]
    fn puts_into_same_rx_port_serialize() {
        let m = NetModel::qsnet();
        let mut fab = qsnet(m, 32);
        let mut sim: Sim<W> = Sim::new();
        let bytes = 3_200_000;
        let t1 = fab.put(&mut sim, NodeId(0), NodeId(9), bytes, |_, _| {});
        let t2 = fab.put(&mut sim, NodeId(1), NodeId(9), bytes, |_, _| {});
        assert!(t2.since(t1) >= m.tx_time(bytes) - SimDuration::micros(10));
    }

    #[test]
    fn get_costs_request_roundtrip_plus_data() {
        let m = NetModel::qsnet();
        let mut fab = qsnet(m, 32);
        let mut sim: Sim<W> = Sim::new();
        let mut w = world();
        let bytes = 320_000;
        let t = fab.get(&mut sim, NodeId(0), NodeId(1), bytes, |w, s| {
            w.delivered.push((s.now().0, "get"));
        });
        sim.run(&mut w);
        let one_way = m.unicast_latency(2);
        let expect =
            one_way + m.tx_time(CTRL_BYTES) + m.nic_op + one_way + m.tx_time(bytes);
        assert_eq!(t.since(SimTime::ZERO), expect);
        assert_eq!(w.delivered.len(), 1);
    }

    #[test]
    fn multicast_reaches_every_destination_and_completes_last() {
        let m = NetModel::qsnet();
        let mut fab = qsnet(m, 32);
        let mut sim: Sim<W> = Sim::new();
        let mut w = world();
        let dests: Vec<NodeId> = (0..32).map(NodeId).collect();
        let t = fab.multicast(
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
        // Hardware multicast: every off-source delivery within a tight window.
        let wire: Vec<u64> = w
            .per_dest
            .iter()
            .filter(|&&(_, d)| d != 0)
            .map(|&(t, _)| t)
            .collect();
        let spread = wire.iter().max().unwrap() - wire.iter().min().unwrap();
        assert!(
            spread < 1_000,
            "hardware multicast deliveries spread {spread}ns"
        );
    }

    #[test]
    fn multicasts_are_totally_ordered_through_the_root() {
        let m = NetModel::qsnet();
        let mut fab = qsnet(m, 8);
        let mut sim: Sim<W> = Sim::new();
        let dests: Vec<NodeId> = (0..8).map(NodeId).collect();
        let bytes = 320_000;
        // Two different sources multicast at the same instant: the serializer
        // must order the payloads.
        let t1 = fab.multicast(&mut sim, NodeId(0), &dests, bytes, None, |_, _| {});
        let t2 = fab.multicast(&mut sim, NodeId(1), &dests, bytes, None, |_, _| {});
        assert!(t2.since(t1) >= m.mcast_tx_time(bytes) - SimDuration::micros(10));
    }

    #[test]
    fn conditional_fires_at_model_latency_and_serializes() {
        let m = NetModel::qsnet();
        let levels = Topology::fat_tree(32).levels();
        let mut fab = qsnet(m, 32);
        let mut sim: Sim<W> = Sim::new();
        let mut w = world();
        let t1 = fab.conditional(&mut sim, NodeId(0), 32, |w, s| {
            w.delivered.push((s.now().0, "c1"));
        });
        assert_eq!(t1.since(SimTime::ZERO), m.cond_latency(32, levels));
        let t2 = fab.conditional(&mut sim, NodeId(1), 32, |w, s| {
            w.delivered.push((s.now().0, "c2"));
        });
        assert!(t2 > t1 - m.cond_latency(32, levels)); // ordered starts
        sim.run(&mut w);
        assert_eq!(w.delivered.len(), 2);
        assert_eq!(w.delivered[0].1, "c1");
    }

    #[test]
    fn self_put_is_local() {
        let m = NetModel::qsnet();
        let mut fab = qsnet(m, 4);
        let mut sim: Sim<W> = Sim::new();
        let t = fab.put(&mut sim, NodeId(2), NodeId(2), 64, |_, _| {});
        assert_eq!(t.since(SimTime::ZERO), m.nic_op + m.tx_time(64));
    }

    #[test]
    fn dead_node_gets_no_deliveries_but_timing_is_unchanged() {
        let m = NetModel::qsnet();
        let mut fab = qsnet(m, 8);
        let mut alive = qsnet(m, 8);
        let mut sim: Sim<W> = Sim::new();
        let mut w = world();
        fab.kill_node(NodeId(3));
        let t_dead = fab.put(&mut sim, NodeId(0), NodeId(3), 320_000, |w, s| {
            w.delivered.push((s.now().0, "lost"));
        });
        let t_alive = alive.put(&mut sim, NodeId(0), NodeId(3), 320_000, |_, _| {});
        sim.run(&mut w);
        assert_eq!(t_dead, t_alive, "reservations stay deterministic");
        assert!(w.delivered.is_empty(), "delivery suppressed");
        assert_eq!(fab.stats().dead_skips, 1);
        let dests: Vec<NodeId> = (0..8).map(NodeId).collect();
        fab.multicast(
            &mut sim,
            NodeId(0),
            &dests,
            CTRL_BYTES,
            Some(Rc::new(|w: &mut W, s: &mut Sim<W>, d: NodeId| {
                w.per_dest.push((s.now().0, d.0));
            })),
            |_, _| {},
        );
        sim.run(&mut w);
        assert_eq!(w.per_dest.len(), 7, "dead node skipped by multicast");
        assert!(w.per_dest.iter().all(|&(_, d)| d != 3));
        fab.revive_node(NodeId(3));
        fab.put(&mut sim, NodeId(0), NodeId(3), 64, |w, s| {
            w.delivered.push((s.now().0, "revived"));
        });
        sim.run(&mut w);
        assert_eq!(w.delivered.len(), 1);
    }

    #[test]
    fn planned_drop_consumes_wire_time_without_delivering() {
        let m = NetModel::qsnet();
        let mut fab = qsnet(m, 8);
        let mut sim: Sim<W> = Sim::new();
        let mut w = world();
        fab.plan_drops(vec![1]);
        // seq 0: bulk, delivered. seq 1: dropped. Control puts don't count.
        fab.put(&mut sim, NodeId(0), NodeId(1), 64, |w, s| {
            w.delivered.push((s.now().0, "ctrl"));
        });
        fab.put(&mut sim, NodeId(0), NodeId(1), 320_000, |w, s| {
            w.delivered.push((s.now().0, "bulk0"));
        });
        fab.put(&mut sim, NodeId(0), NodeId(1), 320_000, |w, s| {
            w.delivered.push((s.now().0, "bulk1"));
        });
        fab.put(&mut sim, NodeId(0), NodeId(1), 320_000, |w, s| {
            w.delivered.push((s.now().0, "bulk2"));
        });
        sim.run(&mut w);
        let tags: Vec<&str> = w.delivered.iter().map(|&(_, t)| t).collect();
        assert_eq!(tags, vec!["ctrl", "bulk0", "bulk2"]);
        assert_eq!(fab.stats().drops, 1);
        assert_eq!(fab.bulk_seq(), 3);
    }

    #[test]
    fn degradation_window_scales_bulk_tx_time() {
        let m = NetModel::qsnet();
        let mut fab = qsnet(m, 8);
        let mut sim: Sim<W> = Sim::new();
        let bytes = 320_000;
        fab.degrade_link(Degradation {
            node: NodeId(1),
            from: SimTime::ZERO,
            to: SimTime(1_000_000_000),
            factor: 4,
        });
        let t = fab.put(&mut sim, NodeId(0), NodeId(1), bytes, |_, _| {});
        let expect = m.unicast_latency(2) + m.tx_time(bytes) * 4;
        assert_eq!(t.since(SimTime::ZERO), expect);
        // Outside the window the factor no longer applies.
        let mut fab2 = qsnet(m, 8);
        fab2.degrade_link(Degradation {
            node: NodeId(1),
            from: SimTime(10),
            to: SimTime(20),
            factor: 4,
        });
        let mut sim2: Sim<W> = Sim::new();
        sim2.schedule_at(SimTime(1_000), |_, _| {});
        let mut w = world();
        sim2.run(&mut w); // advance past the window
        let t2 = fab2.put(&mut sim2, NodeId(0), NodeId(1), bytes, |_, _| {});
        assert_eq!(
            t2.since(SimTime(1_000)),
            m.unicast_latency(2) + m.tx_time(bytes)
        );
    }

    #[test]
    fn snapshot_restore_round_trips_occupancy_and_revives() {
        let m = NetModel::qsnet();
        let mut fab = qsnet(m, 8);
        let mut sim: Sim<W> = Sim::new();
        fab.put(&mut sim, NodeId(0), NodeId(1), 320_000, |_, _| {});
        fab.get(&mut sim, NodeId(2), NodeId(3), 100_000, |_, _| {});
        let snap = fab.snapshot();
        fab.kill_node(NodeId(5));
        fab.plan_drops(vec![7, 9]);
        fab.put(&mut sim, NodeId(0), NodeId(2), 640_000, |_, _| {});
        let t_before = fab.put(&mut sim, NodeId(0), NodeId(4), 64, |_, _| {});
        fab.restore(&snap);
        assert!(!fab.is_dead(NodeId(5)));
        let ports: &PortState = snap.state().as_any().downcast_ref().unwrap();
        assert_eq!(fab.bulk_seq(), ports.bulk_seq);
        assert_eq!(fab.stats().puts, ports.stats.puts);
        // Occupancy is back to the snapshot instant: the same put issued
        // again completes no later than it did post-snapshot.
        let t_after = fab.put(&mut sim, NodeId(0), NodeId(4), 64, |_, _| {});
        assert!(t_after <= t_before);
    }

    #[test]
    fn stats_accumulate() {
        let m = NetModel::qsnet();
        let mut fab = qsnet(m, 4);
        let mut sim: Sim<W> = Sim::new();
        fab.put(&mut sim, NodeId(0), NodeId(1), 100, |_, _| {});
        fab.get(&mut sim, NodeId(0), NodeId(1), 200, |_, _| {});
        fab.multicast(&mut sim, NodeId(0), &[NodeId(1), NodeId(2)], 50, None, |_, _| {});
        fab.conditional(&mut sim, NodeId(0), 4, |_, _| {});
        let s = fab.stats();
        assert_eq!((s.puts, s.put_bytes), (1, 100));
        assert_eq!((s.gets, s.get_bytes), (1, 200));
        assert_eq!((s.multicasts, s.multicast_bytes), (1, 100));
        assert_eq!(s.conditionals, 1);
        fab.reset_stats();
        assert_eq!(fab.stats().puts, 0);
    }
}
