//! The fabric: issue-time analytic timing with per-port FIFO contention.
//!
//! Every NIC has one transmit and one receive port; collective wire
//! operations (multicast, network conditional) additionally acquire one
//! machine-wide ordering clock, which is what gives `Xfer-And-Signal` and
//! `Compare-And-Write` their total order (sequential consistency — see the
//! paper's §2, point 2).
//!
//! All reservations happen synchronously when an operation is issued, in
//! event order, so the model is deterministic and needs no per-packet events:
//! a transfer's delivery time is computed immediately and its completion
//! callback scheduled on the simulator queue.
//!
//! The state of an interconnect — model, topology, port clocks, the ordering
//! clock, counters, fault injection, the snapshot cache — lives once, in
//! [`Net`]. An interconnect is a `Net` plus four *timing rules*, the
//! object-safe [`Fabric`] trait: [`QsNetFabric`] here (hardware multicast and
//! network conditionals, a free priority channel for control packets) and
//! `rdmanet::RdmaFabric` (both collectives emulated in software, control
//! packets queue like data). Engines hold a `Box<dyn Fabric<W>>` and never
//! learn which one they got: the `put`/`get`/`multicast`/`conditional`
//! wrappers on `dyn Fabric<W>` ask the rule for the instants, account the
//! operation in the `Net`, and schedule the caller's closures themselves,
//! unboxed, so a small completion lives inline in its simulator event.

use crate::model::NetModel;
use crate::topology::{IntoNodeSet, NodeId, NodeSet, Topology};
use simcore::{Sim, SimTime};
use std::ops::Range;
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
    /// [`Net::note_gather`].
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

/// Which timing rules back a cluster. Selected per engine config
/// (`BcsConfig::fabric`, `QuadricsConfig::fabric`); `repro --fabric <label>`
/// sets the default every experiment builds its configs from.
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
    /// Every kind, default first.
    pub const ALL: [FabricKind; 2] = [FabricKind::QsNet, FabricKind::Rdma];

    /// Stable CLI / CSV label.
    pub fn name(self) -> &'static str {
        match self {
            FabricKind::QsNet => "qsnet",
            FabricKind::Rdma => "rdma",
        }
    }

    /// Parse a [`FabricKind::name`] back into the kind.
    pub fn from_label(s: &str) -> Option<FabricKind> {
        FabricKind::ALL.iter().copied().find(|k| k.name() == s)
    }
}

/// What a checkpoint keeps of a fabric: the clocks the timing rules reserve
/// against, and the counters. Fault state (dead nodes, drop plans,
/// degradations) is deliberately *not* here — a restore revives the machine.
#[derive(Clone, Debug)]
pub struct PortState {
    kind: FabricKind,
    /// When each NIC's transmit port is next free.
    pub tx_free: Vec<SimTime>,
    /// When each NIC's receive port is next free.
    pub rx_free: Vec<SimTime>,
    /// The ordering clock every multicast and conditional acquires: QsNet's
    /// root-of-tree serializer, the RDMA fabric's software sequencer.
    pub order_free: SimTime,
    stats: FabricStats,
    bulk_seq: u64,
}

/// A fabric's [`PortState`] at a quiescent instant, for checkpoint/restore.
/// Capturing the free times (rather than resetting them) keeps post-restore
/// timing identical to the original run.
///
/// The state sits behind an `Rc` shared with the fabric's snapshot cache:
/// cloning a snapshot — and re-capturing an unchanged fabric — is a
/// refcount bump, as an image's copy of an unchanged NIC state and a
/// payload are.
#[derive(Clone, Debug)]
pub struct FabricSnapshot(Rc<PortState>);

impl FabricSnapshot {
    /// Deep copy sharing nothing with the fabric's snapshot cache or any
    /// other snapshot — the reference point incremental checkpoint images
    /// are validated against.
    pub fn materialize(&self) -> FabricSnapshot {
        FabricSnapshot(Rc::new(PortState::clone(&self.0)))
    }

    /// Whether two snapshots are one allocation (a re-capture of an
    /// unchanged fabric is).
    pub fn ptr_eq(&self, other: &FabricSnapshot) -> bool {
        Rc::ptr_eq(&self.0, &other.0)
    }
}

/// Everything an interconnect holds, whichever timing rules run on it.
///
/// Contract the recovery and gate suites assume, kept here once:
///
/// * all timing is reserved synchronously at issue, in event order —
///   bit-identical replay from equal state;
/// * only transfers larger than [`CTRL_BYTES`] consume a `bulk_seq`
///   coordinate or feel a degradation window ([`Net::reserve`]) — one
///   fault plan drops the same transfers under any rules;
/// * dead endpoints suppress delivery callbacks but never change
///   reservations;
/// * every mutation of what a snapshot captures invalidates the snapshot
///   cache, and nothing else does.
pub struct Net {
    model: NetModel,
    topo: Topology,
    ports: PortState,
    /// Fail-stopped nodes: deliveries from/to them are suppressed at issue
    /// time. A transfer already in flight when the node dies still lands
    /// (its delivery was scheduled at issue) — matching a NIC whose DMA
    /// completed before the crash.
    dead: Vec<bool>,
    /// How many of `dead` are set: a multicast looks for dead destinations
    /// only when some node is.
    dead_count: usize,
    degradations: Vec<Degradation>,
    /// Sorted bulk-DMA sequence numbers to drop (transient data-channel
    /// faults): the wire time is still consumed but the payload never
    /// lands, so the delivery callback is not scheduled.
    drop_seqs: Vec<u64>,
    /// The last snapshot, shared with every image captured since the ports
    /// last changed; `None` once they have.
    snap_cache: Option<FabricSnapshot>,
}

impl Net {
    pub fn new(kind: FabricKind, model: NetModel, nodes: usize) -> Net {
        Net {
            model,
            topo: Topology::fat_tree(nodes),
            ports: PortState {
                kind,
                tx_free: vec![SimTime::ZERO; nodes],
                rx_free: vec![SimTime::ZERO; nodes],
                order_free: SimTime::ZERO,
                stats: FabricStats::default(),
                bulk_seq: 0,
            },
            dead: vec![false; nodes],
            dead_count: 0,
            degradations: Vec::new(),
            drop_seqs: Vec::new(),
            snap_cache: None,
        }
    }

    pub fn kind(&self) -> FabricKind {
        self.ports.kind
    }
    pub fn model(&self) -> &NetModel {
        &self.model
    }
    pub fn topology(&self) -> &Topology {
        &self.topo
    }
    pub fn nodes(&self) -> usize {
        self.topo.nodes()
    }
    pub fn stats(&self) -> &FabricStats {
        &self.ports.stats
    }
    /// Bulk transfers issued so far: the coordinate system of the drop plan.
    pub fn bulk_seq(&self) -> u64 {
        self.ports.bulk_seq
    }

    /// The clocks, for a timing rule to reserve against.
    #[inline]
    pub fn ports_mut(&mut self) -> &mut PortState {
        self.snap_cache = None;
        &mut self.ports
    }

    /// Account one coalesced block the engine is about to issue as a
    /// single put/get: `msgs` logical messages of `logical_bytes` payload
    /// merged behind one scatter header (see `bcs-core::coalesce`).
    pub fn note_gather(&mut self, msgs: u64, logical_bytes: u64) {
        let stats = &mut self.ports_mut().stats;
        stats.gathers += 1;
        stats.gathered_msgs += msgs;
        stats.gathered_bytes += logical_bytes;
    }

    // Fault injection (see `faultsim`). A node comes back, and windows and
    // drop plans are forgotten, through `restore`.

    /// Fail-stop `node`: from now on no delivery originates from or lands
    /// on it. Timing reservations still account for its traffic already in
    /// the FIFOs, keeping the model deterministic.
    pub fn kill_node(&mut self, node: NodeId) {
        self.dead_count += !self.dead[node.0] as usize;
        self.dead[node.0] = true;
    }
    pub fn is_dead(&self, node: NodeId) -> bool {
        self.dead[node.0]
    }
    /// Register a link-degradation window (additive with existing ones;
    /// overlapping windows take the worst factor).
    pub fn degrade_link(&mut self, d: Degradation) {
        assert!(d.factor >= 1);
        self.degradations.push(d);
    }
    /// Replace the planned set of bulk-DMA sequence numbers to drop.
    pub fn plan_drops(&mut self, mut seqs: Vec<u64>) {
        seqs.sort_unstable();
        seqs.dedup();
        self.drop_seqs = seqs;
    }

    /// Capture the port state. Served from the snapshot cache when nothing
    /// changed since the last capture — back-to-back captures of a quiet
    /// fabric are refcount bumps, and every image taken of the same state
    /// shares one allocation.
    pub fn snapshot(&mut self) -> FabricSnapshot {
        self.snap_cache
            .get_or_insert_with(|| FabricSnapshot(Rc::new(self.ports.clone())))
            .clone()
    }

    /// Restore the port state from a snapshot and clear all fault state
    /// (every node revived, degradations and drop plans forgotten). The
    /// recovery driver re-injects whatever faults remain in its plan.
    /// Copies in place — no allocation — and re-primes the snapshot cache
    /// with the restored image (the states are now identical). Restoring
    /// another kind's or another machine size's image is a driver bug, not
    /// a recoverable condition.
    pub fn restore(&mut self, s: &FabricSnapshot) {
        assert!(
            s.0.kind == self.ports.kind,
            "fabric-kind mismatch: {} fabric restoring a {} snapshot",
            self.ports.kind.name(),
            s.0.kind.name()
        );
        assert_eq!(s.0.tx_free.len(), self.nodes(), "snapshot node count");
        let ports = &mut self.ports;
        ports.tx_free.copy_from_slice(&s.0.tx_free);
        ports.rx_free.copy_from_slice(&s.0.rx_free);
        (ports.order_free, ports.stats, ports.bulk_seq) = (s.0.order_free, s.0.stats, s.0.bulk_seq);
        self.dead.fill(false);
        self.dead_count = 0;
        self.degradations.clear();
        self.drop_seqs.clear();
        self.snap_cache = Some(s.clone());
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
    #[inline]
    fn lands(&mut self, a: NodeId, b: NodeId, landed: bool) -> bool {
        let dead = self.dead[a.0] || self.dead[b.0];
        if dead {
            self.ports_mut().stats.dead_skips += 1;
        }
        landed && !dead
    }

    /// One DMA of `bytes` from `src` to `dst` through the port FIFOs, issued
    /// at `issue`: the send port, the wire, then the receive port. A
    /// transfer larger than [`CTRL_BYTES`] takes the next `bulk_seq`
    /// coordinate, is stretched by the degradation windows touching either
    /// end, and is lost when the drop plan names it. Returns the last-byte
    /// instant and whether the payload lands (a drop still consumes its
    /// wire time). Inlined into each rule, as the per-fabric reservation
    /// it replaces was: it runs once or twice per message.
    #[inline]
    pub fn reserve(
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
        let (mut dropped, mut factor) = (false, 1);
        if bytes > CTRL_BYTES {
            dropped = self.drop_seqs.binary_search(&self.ports.bulk_seq).is_ok();
            self.ports.bulk_seq += 1;
            self.ports.stats.drops += dropped as u64;
            factor = self.degrade_factor(src, issue).max(self.degrade_factor(dst, issue));
        }
        let tx = self.model.tx_time(bytes) * factor;
        let first_bit_after = self.model.unicast_latency(self.topo.hops(src, dst));
        let ports = self.ports_mut();
        let start = issue.max(ports.tx_free[src.0]);
        ports.tx_free[src.0] = start + tx;
        let deliver = (start + first_bit_after).max(ports.rx_free[dst.0]) + tx;
        ports.rx_free[dst.0] = deliver;
        (deliver, !dropped)
    }

    /// The runs of a multicast from `src` that reach a live destination,
    /// each dead destination cut out and counted in `dead_skips` (every
    /// one, when `src` is dead). Looks at no destination while every node
    /// is alive.
    fn live_runs(&mut self, src: NodeId, dests: &[NodeId], runs: Runs) -> Runs {
        if self.dead_count == 0 {
            return runs;
        }
        let (mut live, mut skips) = (Vec::with_capacity(runs.0.len()), 0);
        let src_dead = self.dead[src.0];
        for (at, start, end) in runs.0 {
            let mut from = start;
            for i in start..end {
                if src_dead || self.dead[dests[i as usize].0] {
                    skips += 1;
                    if from < i {
                        live.push((at, from, i));
                    }
                    from = i + 1;
                }
            }
            if from < end {
                live.push((at, from, end));
            }
        }
        if skips > 0 {
            self.ports_mut().stats.dead_skips += skips;
        }
        Runs(live)
    }
}

/// One run of a multicast's deliveries: `dests[start..end]`, reached at
/// the instant.
type Run = (SimTime, u32, u32);

/// When a multicast reaches its destinations, run-length encoded over
/// `dests`: what a [`Fabric::multicast_timing`] rule reports (and, once
/// dead destinations are cut out, what its hook is handed). A hardware
/// control multicast is one run (three when the source is a destination),
/// a software tree one per depth; only a bulk multicast, whose receive
/// ports each have their own clock, computes an instant per destination.
#[derive(Debug, Default)]
pub struct Runs(Vec<Run>);

impl Runs {
    /// The destinations from where the last run ended up to index `end`
    /// are reached at `at`. Pushing no destination is nothing; a run at the
    /// instant of the one before extends it.
    #[inline]
    pub fn push(&mut self, at: SimTime, end: usize) {
        let (start, end) = (self.end(), end as u32);
        if end <= start {
            return;
        }
        match self.0.last_mut() {
            Some(last) if last.0 == at => last.2 = end,
            _ => self.0.push((at, start, end)),
        }
    }

    /// Index one past the last destination reported so far.
    #[inline]
    fn end(&self) -> u32 {
        self.0.last().map_or(0, |r| r.2)
    }
}

/// The destinations one delivery event reaches: one or more runs of the
/// multicast's destination set, in `dests` order, all at the event's
/// instant.
#[derive(Clone, Copy, Debug)]
pub struct Reached<'a> {
    dests: &'a [NodeId],
    /// `lo` when `dests` is the node run `lo..lo + dests.len()`.
    run_from: Option<usize>,
    runs: &'a [Run],
}

impl<'a> Reached<'a> {
    fn new(dests: &'a NodeSet, runs: &'a [Run]) -> Reached<'a> {
        Reached { dests, run_from: dests.span().map(|run| run.start), runs }
    }

    /// One destination, reached by a unicast.
    pub fn one(node: &'a NodeId) -> Reached<'a> {
        const WHOLE: &[Run] = &[(SimTime::ZERO, 0, 1)];
        Reached { dests: std::slice::from_ref(node), run_from: Some(node.0), runs: WHOLE }
    }

    /// Every destination reached, in `dests` order: the runs, as
    /// sub-slices of the destination set, one after the other.
    pub fn nodes(self) -> impl Iterator<Item = NodeId> + 'a {
        let dests = self.dests;
        self.runs.iter().flat_map(move |&(_, start, end)| &dests[start as usize..end as usize]).copied()
    }

    /// Each run as the node range it is, when the destination set is one
    /// ascending run of node ids ([`NodeSet::span`]).
    pub fn node_ranges(self) -> Option<impl Iterator<Item = Range<usize>> + 'a> {
        let lo = self.run_from?;
        Some(self.runs.iter().map(move |&(_, start, end)| lo + start as usize..lo + end as usize))
    }

    pub fn len(self) -> usize {
        self.runs.iter().map(|&(_, start, end)| (end - start) as usize).sum()
    }

    pub fn is_empty(self) -> bool {
        self.runs.is_empty()
    }
}

/// Delivery hook of a multicast: called once per delivery instant with the
/// live destinations reached at it, in `dests` order, as runs of the
/// destination set ([`Reached`]). A caller that acts per destination loops
/// over [`Reached::nodes`]; one whose destinations mostly need nothing (a
/// microstrobe on an idle machine) pays neither a call nor a look each.
pub type DeliverFn<W> = Rc<dyn Fn(&mut W, &mut Sim<W>, Reached<'_>)>;

/// What the delivery events of one multicast share: one allocation however
/// many instants it has.
struct Deliveries<W> {
    hook: DeliverFn<W>,
    dests: NodeSet,
    /// By instant, runs of one instant in `dests` order.
    runs: Vec<Run>,
}

/// Schedule the hook calls of one multicast whose live deliveries are
/// `runs` of `dests`: one simulator event per distinct delivery instant,
/// which hands `hook` that instant's runs in `dests` order.
///
/// This is the order one event per destination would give (DESIGN §9): a
/// multicast schedules all its deliveries in one call, so their sequence
/// numbers are adjacent and no other event can sit between two deliveries
/// of the same instant; whatever a hook schedules for that instant is
/// numbered after all of them either way.
pub fn schedule_deliveries<W: 'static>(
    sim: &mut Sim<W>,
    hook: DeliverFn<W>,
    dests: NodeSet,
    runs: Runs,
) {
    let mut runs = runs.0;
    if runs.is_empty() {
        return;
    }
    // Stable, so runs sharing an instant keep their `dests` order. A rule
    // reports most multicasts in instant order already.
    if !runs.is_sorted_by_key(|r| r.0) {
        runs.sort_by_key(|r| r.0);
    }
    let shared = Rc::new(Deliveries { hook, dests, runs });
    let mut lo = 0u32;
    for group in shared.runs.chunk_by(|a, b| a.0 == b.0) {
        let (at, hi) = (group[0].0, lo + group.len() as u32);
        let d = Rc::clone(&shared);
        sim.schedule_at(at, move |w, sim| {
            (d.hook)(w, sim, Reached::new(&d.dests, &d.runs[lo as usize..hi as usize]))
        });
        lo = hi;
    }
}

/// An interconnect: a [`Net`] and the four timing rules that say when its
/// wire operations complete. Object-safe — engines hold a
/// `Box<dyn Fabric<W>>` — and closure-free: call sites use the wrappers on
/// `dyn Fabric<W>` below (`fabric.put(sim, src, dst, bytes, |w, sim| ...)`),
/// which own everything that is not timing; bookkeeping is reached through
/// `fabric.net()` / `fabric.net_mut()`.
///
/// A rule reserves what the operation occupies — ports through
/// [`Net::reserve`] or [`Net::ports_mut`], in issue order — and returns
/// instants. It accounts nothing and looks at no fault state. What every
/// set of rules must give the layers above:
///
/// * multicast payloads and conditional fire times **totally ordered**
///   across the whole machine (sequential consistency, paper §2): both go
///   through `order_free`;
/// * a `bulk_seq` coordinate consumed by exactly the unicast transfers
///   larger than [`CTRL_BYTES`], which going through [`Net::reserve`]
///   guarantees.
pub trait Fabric<W: 'static> {
    fn net(&self) -> &Net;
    fn net_mut(&mut self) -> &mut Net;

    /// Remote put (one-sided write) issued at `now`: DMA `bytes` from `src`
    /// to `dst`. Returns when the put completes at the destination and
    /// whether its payload landed (not when it was a planned drop).
    fn put_timing(&mut self, now: SimTime, src: NodeId, dst: NodeId, bytes: u64)
        -> (SimTime, bool);
    /// Remote get (one-sided read): `requester` pulls `bytes` from
    /// `target`'s memory — a control-sized request, the target NIC's
    /// turnaround, the data streaming back. This is how the BCS-MPI DMA
    /// Helper moves message bodies (Figure 6, step 9). Returns as
    /// [`Fabric::put_timing`] does.
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
    /// the returned fire time.
    fn conditional_timing(&mut self, now: SimTime, src: NodeId, span: usize) -> SimTime;
    /// Ordered, reliable, atomic multicast of `bytes` from `src` to `dests`
    /// (self-delivery permitted). Reports every destination's delivery
    /// instant, in `dests` order, as runs of destinations that share one
    /// ([`Runs::push`]).
    fn multicast_timing(
        &mut self,
        now: SimTime,
        src: NodeId,
        dests: &NodeSet,
        bytes: u64,
        runs: &mut Runs,
    );
}

/// The wire operations as call sites write them, on trait objects
/// (`cluster.fabric.put(sim, src, dst, bytes, |w, s| ...)`): ask the rule
/// for the instants, count the operation, and schedule the closures as they
/// are — no box — unless an endpoint is dead. Each returns the completion
/// instant.
impl<W: 'static> dyn Fabric<W> {
    /// The issue half of [`put`](Self::put), for a caller with nothing to
    /// run at delivery: everything a put does to the fabric — the timing
    /// rule's reservations, the counters, the dead-endpoint accounting —
    /// and no simulator event. Returns the completion instant and whether
    /// the payload lands (not when dropped or an endpoint is dead).
    pub fn issue_put(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> (SimTime, bool) {
        let (at, landed) = self.put_timing(now, src, dst, bytes);
        let net = self.net_mut();
        let stats = &mut net.ports_mut().stats;
        stats.puts += 1;
        stats.put_bytes += bytes;
        (at, net.lands(src, dst, landed))
    }

    pub fn put(
        &mut self,
        sim: &mut Sim<W>,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
        on_delivered: impl FnOnce(&mut W, &mut Sim<W>) + 'static,
    ) -> SimTime {
        let (at, lands) = self.issue_put(sim.now(), src, dst, bytes);
        if lands {
            sim.schedule_at(at, on_delivered);
        }
        at
    }

    /// The issue half of [`get`](Self::get), as [`issue_put`](Self::issue_put)
    /// is of `put`.
    pub fn issue_get(
        &mut self,
        now: SimTime,
        requester: NodeId,
        target: NodeId,
        bytes: u64,
    ) -> (SimTime, bool) {
        let (at, landed) = self.get_timing(now, requester, target, bytes);
        let net = self.net_mut();
        let stats = &mut net.ports_mut().stats;
        stats.gets += 1;
        stats.get_bytes += bytes;
        (at, net.lands(requester, target, landed))
    }

    pub fn get(
        &mut self,
        sim: &mut Sim<W>,
        requester: NodeId,
        target: NodeId,
        bytes: u64,
        on_delivered: impl FnOnce(&mut W, &mut Sim<W>) + 'static,
    ) -> SimTime {
        let (at, lands) = self.issue_get(sim.now(), requester, target, bytes);
        if lands {
            sim.schedule_at(at, on_delivered);
        }
        at
    }

    /// `on_deliver` runs once per delivery instant with the live destinations
    /// reached at it, in `dests` order, one simulator event per instant
    /// ([`schedule_deliveries`]); `on_complete` runs once, when the last
    /// destination has been reached. The hook sees runs of `dests` itself:
    /// a [`NodeSet`] is shared, not copied.
    pub fn multicast(
        &mut self,
        sim: &mut Sim<W>,
        src: NodeId,
        dests: impl IntoNodeSet,
        bytes: u64,
        on_deliver: Option<DeliverFn<W>>,
        on_complete: impl FnOnce(&mut W, &mut Sim<W>) + 'static,
    ) -> SimTime {
        let dests = dests.into_node_set();
        assert!(!dests.is_empty(), "multicast needs at least one destination");
        let mut runs = Runs::default();
        self.multicast_timing(sim.now(), src, &dests, bytes, &mut runs);
        debug_assert_eq!(runs.end() as usize, dests.len(), "a timing rule skipped destinations");
        let last = runs.0.iter().map(|r| r.0).max().unwrap_or(SimTime::ZERO);
        let net = self.net_mut();
        let stats = &mut net.ports_mut().stats;
        stats.multicasts += 1;
        stats.multicast_bytes += bytes * dests.len() as u64;
        // A dead endpoint is counted whether or not anyone listens.
        let live = net.live_runs(src, &dests, runs);
        if let Some(hook) = on_deliver {
            schedule_deliveries(sim, hook, dests, live);
        }
        sim.schedule_at(last, on_complete);
        last
    }

    /// Always fires: a conditional reaches no one node in particular.
    pub fn conditional(
        &mut self,
        sim: &mut Sim<W>,
        src: NodeId,
        span: usize,
        on_fire: impl FnOnce(&mut W, &mut Sim<W>) + 'static,
    ) -> SimTime {
        assert!(span > 0);
        let at = self.conditional_timing(sim.now(), src, span);
        self.net_mut().ports_mut().stats.conditionals += 1;
        sim.schedule_at(at, on_fire);
        at
    }
}

/// The simulated QsNet interconnect (Elan3 NICs + Elite fat tree): the
/// ordering clock is the root of the tree, which replicates multicasts and
/// combines conditionals in hardware, and control-sized packets ride the
/// high-priority system virtual channel — latency only, no occupancy, never
/// queued behind bulk DMA.
pub struct QsNetFabric {
    net: Net,
}

impl QsNetFabric {
    pub fn new(model: NetModel, nodes: usize) -> QsNetFabric {
        QsNetFabric {
            net: Net::new(FabricKind::QsNet, model, nodes),
        }
    }

    /// One DMA: the priority channel for a control packet (descriptors, get
    /// requests), the port FIFOs for anything larger.
    fn dma(&mut self, issue: SimTime, src: NodeId, dst: NodeId, bytes: u64) -> (SimTime, bool) {
        if bytes <= CTRL_BYTES && src != dst {
            let m = self.net.model();
            let hops = self.net.topology().hops(src, dst);
            return (issue + m.unicast_latency(hops) + m.tx_time(bytes), true);
        }
        self.net.reserve(issue, src, dst, bytes)
    }
}

impl<W: 'static> Fabric<W> for QsNetFabric {
    fn net(&self) -> &Net {
        &self.net
    }
    fn net_mut(&mut self) -> &mut Net {
        &mut self.net
    }

    /// Complete when the last byte lands in destination memory.
    fn put_timing(
        &mut self,
        now: SimTime,
        src: NodeId,
        dst: NodeId,
        bytes: u64,
    ) -> (SimTime, bool) {
        self.dma(now, src, dst, bytes)
    }

    fn get_timing(
        &mut self,
        now: SimTime,
        requester: NodeId,
        target: NodeId,
        bytes: u64,
    ) -> (SimTime, bool) {
        let (req_at, _) = self.dma(now, requester, target, CTRL_BYTES);
        // Data leg, reserved now (FIFO in issue order) but starting only
        // after the request arrives and the target NIC turns it around.
        let data_issue = req_at + self.net.model().nic_op;
        self.dma(data_issue, target, requester, bytes)
    }

    /// A conditional is a control packet through the root.
    fn conditional_timing(&mut self, now: SimTime, _src: NodeId, span: usize) -> SimTime {
        let m = self.net.model();
        let hold = m.tx_time(CTRL_BYTES);
        let latency = m.cond_latency(span, self.net.topology().levels());
        let ports = self.net.ports_mut();
        let start = now.max(ports.order_free);
        ports.order_free = start + hold;
        start + latency
    }

    /// One injection, replicated by the switches on the way down.
    /// Atomicity: the simulated fabric never drops a multicast, so "all or
    /// none" holds trivially; ordering comes from the root serializer.
    fn multicast_timing(
        &mut self,
        now: SimTime,
        src: NodeId,
        dests: &NodeSet,
        bytes: u64,
        runs: &mut Runs,
    ) {
        let m = self.net.model();
        let (tx, nic_op) = (m.mcast_tx_time(bytes), m.nic_op);
        let latency = m.mcast_latency(dests.len(), self.net.topology().levels());
        let ports = self.net.ports_mut();
        let ctrl = bytes <= CTRL_BYTES;
        // Strobes and other control multicasts use the priority channel:
        // ordered through the root but never queued behind bulk DMA.
        let start = if ctrl {
            now.max(ports.order_free)
        } else {
            let s = now.max(ports.tx_free[src.0]).max(ports.order_free);
            ports.tx_free[src.0] = s + tx;
            s
        };
        ports.order_free = start + tx;
        let first_bit = start + latency;
        // Loopback through the NIC, no wire.
        let loopback = start + nic_op;
        if ctrl {
            // No receive-port clock: one instant for every wire delivery.
            for i in dests.positions(src) {
                runs.push(first_bit + tx, i);
                runs.push(loopback, i + 1);
            }
            runs.push(first_bit + tx, dests.len());
            return;
        }
        for (i, &d) in dests.iter().enumerate() {
            let deliver = if d == src {
                loopback
            } else {
                let deliver = first_bit.max(ports.rx_free[d.0]) + tx;
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
            Some(Rc::new(|w: &mut W, s: &mut Sim<W>, ds: Reached<'_>| {
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
        fab.net_mut().kill_node(NodeId(3));
        let t_dead = fab.put(&mut sim, NodeId(0), NodeId(3), 320_000, |w, s| {
            w.delivered.push((s.now().0, "lost"));
        });
        let t_alive = alive.put(&mut sim, NodeId(0), NodeId(3), 320_000, |_, _| {});
        sim.run(&mut w);
        assert_eq!(t_dead, t_alive, "reservations stay deterministic");
        assert!(w.delivered.is_empty(), "delivery suppressed");
        assert_eq!(fab.net().stats().dead_skips, 1);
        let dests: Vec<NodeId> = (0..8).map(NodeId).collect();
        fab.multicast(
            &mut sim,
            NodeId(0),
            &dests,
            CTRL_BYTES,
            Some(Rc::new(|w: &mut W, s: &mut Sim<W>, ds: Reached<'_>| {
                w.per_dest.extend(ds.nodes().map(|d| (s.now().0, d.0)));
            })),
            |_, _| {},
        );
        sim.run(&mut w);
        assert_eq!(w.per_dest.len(), 7, "dead node skipped by multicast");
        assert!(w.per_dest.iter().all(|&(_, d)| d != 3));
    }

    #[test]
    fn planned_drop_consumes_wire_time_without_delivering() {
        let m = NetModel::qsnet();
        let mut fab = qsnet(m, 8);
        let mut sim: Sim<W> = Sim::new();
        let mut w = world();
        fab.net_mut().plan_drops(vec![1]);
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
        assert_eq!(fab.net().stats().drops, 1);
        assert_eq!(fab.net().bulk_seq(), 3);
    }

    #[test]
    fn degradation_window_scales_bulk_tx_time() {
        let m = NetModel::qsnet();
        let mut fab = qsnet(m, 8);
        let mut sim: Sim<W> = Sim::new();
        let bytes = 320_000;
        fab.net_mut().degrade_link(Degradation {
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
        fab2.net_mut().degrade_link(Degradation {
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
        let snap = fab.net_mut().snapshot();
        fab.net_mut().kill_node(NodeId(5));
        fab.net_mut().plan_drops(vec![7, 9]);
        fab.put(&mut sim, NodeId(0), NodeId(2), 640_000, |_, _| {});
        let t_before = fab.put(&mut sim, NodeId(0), NodeId(4), 64, |_, _| {});
        fab.net_mut().restore(&snap);
        assert!(!fab.net().is_dead(NodeId(5)));
        assert_eq!(fab.net().bulk_seq(), snap.0.bulk_seq);
        assert_eq!(fab.net().stats().puts, snap.0.stats.puts);
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
        let s = fab.net().stats();
        assert_eq!((s.puts, s.put_bytes), (1, 100));
        assert_eq!((s.gets, s.get_bytes), (1, 200));
        assert_eq!((s.multicasts, s.multicast_bytes), (1, 100));
        assert_eq!(s.conditionals, 1);
    }
}
