//! Engine state and the [`Engine`] and [`Protocol`] implementations
//! (application-facing side).
//!
//! Application processes interact with BCS-MPI only by posting descriptors
//! (cheap — a write into a shared-memory FIFO, no system call, §4.5) and by
//! being suspended/restarted by the Node Manager at slice boundaries. All
//! real work happens in the NIC-thread state machines of `protocol.rs`,
//! `p2p.rs` and `coll.rs`.

use crate::coll::{CollState, post_collective};
use crate::p2p::MsgId;
use bcs_core::BcsCluster;
use mpi_api::call::{MpiResp, ReqId};
use mpi_api::comm::{CommId, CommRegistry};
use mpi_api::message::{SrcSel, Status, TagSel};
use mpi_api::noise::{NoiseConfig, NoiseModel};
use mpi_api::payload::Payload;
use mpi_api::request::{ReqKind, ReqTable, Wake};
use mpi_api::round::CollCall;
use mpi_api::runtime::{ClusterWorld, Engine, JobLayout, Protocol};
use qsnet::{FabricKind, NetModel, NodeId};
use simcore::chunklog::ChunkLog;
use simcore::stats::LogHistogram;
use simcore::{IdTable, Sim, SimDuration, SimTime};

pub(crate) type BW = ClusterWorld<BcsMpi>;

/// Interval at which the SS re-polls `Compare-And-Write` for microphase
/// completion.
pub(crate) const POLL_INTERVAL: SimDuration = SimDuration::micros(25);
/// Wire size of one descriptor / microstrobe.
pub(crate) const DESC_BYTES: u64 = 64;
/// NIC-thread cost to process one descriptor (post, exchange, match).
pub(crate) const DESC_COST: SimDuration = SimDuration::nanos(900);
/// NIC-side reduce arithmetic cost per byte (softfloat — slower than host
/// FP, but saves the PCI crossing; §4.4).
pub(crate) const REDUCE_NS_PER_BYTE: u64 = 20;

/// Tuning knobs of BCS-MPI: the values some run sets. What no run varies
/// is a constant above or is derived from these ([`BcsConfig::p2p_budget`]).
#[derive(Clone, Debug, PartialEq)]
pub struct BcsConfig {
    pub net: NetModel,
    /// Which interconnect implementation carries the wire traffic: QsNet
    /// (hardware multicast + network conditionals) or the RDMA channel
    /// (`rdmanet`, software emulations of both). The protocol layers above
    /// never branch on this.
    pub fabric: FabricKind,
    /// The global time slice (500 µs in all the paper's experiments).
    pub timeslice: SimDuration,
    /// Cost of posting a descriptor from the application (shared-memory
    /// FIFO write, no syscall — §4.5).
    pub post_cost: SimDuration,
    /// Optional scheduling noise of the user-level NM dæmon (§4.5).
    pub noise: Option<NoiseConfig>,
    /// One-time cost of bringing up the BCS-MPI runtime (STORM job launch,
    /// NIC thread setup): the first slice starts only after this delay. The
    /// paper attributes IS's slowdown to exactly this overhead (§5.3).
    pub init_delay: SimDuration,
    /// Capture a communication-state checkpoint digest every `k` slices
    /// (the §6 transparent-fault-tolerance hook). `None` disables. A run
    /// that records responses (`ClusterWorld::set_recording`) also captures
    /// a full *restorable* [`crate::CheckpointImage`] at every boundary:
    /// digest-only checkpoints stay cheap; images are what recovery
    /// restores from.
    pub checkpoint_every: Option<u64>,
    /// NM/NIC time charged at each checkpoint boundary before the DEM
    /// strobe (serializing the image). Zero keeps checkpointing free, which
    /// preserves the timing of every non-checkpointed experiment.
    pub checkpoint_cost: SimDuration,
    /// Wrap data-channel DMAs (DEM descriptor puts, P2P chunk gets) in the
    /// reliable-delivery protocol of [`bcs_core::retry`]: timeout at the
    /// expected delivery instant, exponential backoff, bounded re-issues.
    /// `None` (the default) issues raw DMAs — QsNet is lossless in
    /// hardware, so retries only matter under fault injection.
    pub retry: Option<bcs_core::retry::RetryPolicy>,
    /// Record a per-slice activity [`crate::trace::SliceRecord`] (the §1
    /// "debugging mechanisms" claim made concrete).
    pub trace_slices: bool,
    /// Gang-schedule multiple jobs on the shared nodes (§5.4 remedy 1).
    /// `None` = single dedicated job (the default, and the paper's primary
    /// configuration).
    pub gang: Option<crate::gang::GangConfig>,
    /// Persistent-schedule compilation (ROADMAP item 3): fingerprint each
    /// slice's MSM input and, after [`crate::schedule::DETECT_AFTER`]
    /// identical slices, record the matching pass into a replayable
    /// schedule. Replay is observably bit-identical to the indexed path
    /// (see [`crate::schedule`]), so this defaults to *on*.
    pub sched_compile: bool,
    /// Small-message coalescing (see [`bcs_core::coalesce`]): pack many
    /// small same-destination DEM descriptors / P2P chunks into one DMA
    /// with a scatter header. Changes the modeled wire traffic, so it
    /// defaults to *off*; experiments opt in.
    pub coalesce: bool,
    /// Which wire schedule the CH/RH use for collectives (see
    /// [`mpi_api::coll_sched`]): the fabric's native multicast (the paper's
    /// path and the default), a binomial tree of point-to-point DMAs, or
    /// the pipelined round-schedule. Value-plane results are bit-identical
    /// across all three; only the modeled wire traffic changes.
    /// `repro --coll <label>` sets the default experiments start from.
    pub coll_algo: mpi_api::coll_sched::CollAlgo,
}

impl Default for BcsConfig {
    fn default() -> Self {
        BcsConfig {
            net: NetModel::qsnet(),
            fabric: FabricKind::QsNet,
            timeslice: SimDuration::micros(500),
            post_cost: SimDuration::nanos(500),
            noise: None,
            init_delay: SimDuration::ZERO,
            checkpoint_every: None,
            checkpoint_cost: SimDuration::ZERO,
            retry: None,
            trace_slices: false,
            gang: None,
            sched_compile: true,
            coalesce: false,
            coll_algo: mpi_api::coll_sched::CollAlgo::HwMulticast,
        }
    }
}

impl BcsConfig {
    /// Per-link byte budget for the point-to-point microphase of one slice;
    /// larger messages are chunked across slices (§4.3). About 60% of the
    /// slice at QsNet's link bandwidth, whatever `net` is.
    pub fn p2p_budget(&self) -> u64 {
        let qsnet_bw = NetModel::qsnet().link_bw;
        // detlint: allow(D06) — config-time derivation: two IEEE-754
        // multiplies truncated to an integer budget, identical on every
        // host; no per-message protocol arithmetic happens in floats.
        (0.6 * self.timeslice.as_secs_f64() * qsnet_bw) as u64
    }
}

/// Protocol counters and delay measurements.
#[derive(Clone, Debug, Default)]
pub struct BcsStats {
    pub slices: u64,
    pub descriptors_exchanged: u64,
    pub matches: u64,
    pub chunks: u64,
    pub chunked_messages: u64,
    pub p2p_bytes: u64,
    pub barriers: u64,
    pub bcasts: u64,
    pub reduces: u64,
    /// Always 0: MPI_Allgatherv is composed from point-to-point calls
    /// (`AsyncMpi::allgatherv`), so the NIC runs no allgather round. Kept
    /// because the `perf/` adapter sums it into its collective count.
    pub allgathers: u64,
    /// Slices whose work overran the nominal boundary (drift events).
    pub overruns: u64,
    /// Per-node microphase bodies run (`node_begin_*`): a node that a
    /// microstrobe finds with nothing to do is not one (DESIGN §9), so a
    /// machine's idle nodes do not show here.
    pub node_passes: u64,
    /// Nodes a microstrobe's walk looked at: the touched ones (DESIGN §9).
    /// An untouched node is completed as part of a range, unseen.
    pub strobe_visits: u64,
    /// Coalesced DEM descriptor blocks issued, and the descriptors they
    /// carried (zero unless `cfg.coalesce`).
    pub dem_blocks: u64,
    pub dem_block_msgs: u64,
    /// Coalesced P2P gather blocks issued, and the chunks they carried.
    pub p2p_gathers: u64,
    pub p2p_gather_msgs: u64,
    /// Post-to-restart delay of blocking point-to-point primitives,
    /// in ns — the paper's "1.5 time slices on average" (§3.1).
    pub blocking_delay: LogHistogram,
}

/// A declared node failure: who, when, and what noticed it.
#[derive(Clone, Debug)]
pub struct FailureInfo {
    /// The fabric node declared dead.
    pub node: NodeId,
    /// Virtual time of the declaration.
    pub at: SimTime,
    /// Human-readable detector ("heartbeat", "transfer abort", ...).
    pub reason: String,
}

/// What a rank is suspended on besides a request condition (those live
/// in [`BcsMpi::reqs`], see [`mpi_api::request::Waiting`]).
#[derive(Clone)]
pub(crate) enum Blocked {
    /// Blocking probe (completed by the matcher).
    Probe { src: SrcSel, tag: TagSel },
    /// Blocking collective; completion handled by `coll.rs`.
    Collective,
}

/// The BCS-MPI engine: one management node (SS) + per-node NIC state.
pub struct BcsMpi {
    pub cfg: BcsConfig,
    pub(crate) layout: JobLayout,
    pub(crate) bcs: BcsCluster<BW>,
    /// The management node hosting the MM/SS (last fabric node).
    pub(crate) mgmt: NodeId,
    /// Per-node NIC state, the copies checkpoint images share, and the
    /// nodes a microstrobe has to look at.
    pub(crate) nic: crate::p2p::Nics,
    /// Outstanding async work items of the current microphase, per node
    /// (protocol transient — zero at every slice boundary).
    pub(crate) outstanding: Vec<u32>,
    /// Nodes whose NIC-thread work ends at the keyed instant, grouped by the
    /// simulator dispatch that started them (protocol transient — empty at
    /// every boundary; see `protocol::due_group`).
    pub(crate) due: std::collections::BTreeMap<(SimTime, u64), crate::protocol::DueGroup>,
    /// The send descriptors each node is exchanging in this slice's DEM,
    /// which the deliveries in flight name by index (protocol transient —
    /// whatever it still holds at a boundary has been delivered).
    pub(crate) dem_out: Vec<Vec<crate::p2p::SendDesc>>,
    /// Chunks scheduled for this slice's P2P microphase, per node:
    /// `(transfer, bytes)` (protocol transient — empty at every boundary).
    pub(crate) sched: Vec<Vec<(crate::p2p::XferSlot, u64)>>,
    /// Current slice number and microphase (0=DEM..4=RM).
    pub(crate) slice: u64,
    pub(crate) phase: u32,
    pub(crate) slice_started_at: SimTime,
    /// Ranks to restart at the next slice boundary, with their responses.
    pub(crate) restart_queue: Vec<(usize, MpiResp)>,
    /// Open requests and the request conditions ranks are suspended on.
    pub(crate) reqs: ReqTable,
    /// Send payloads parked until their transfer completes; the table
    /// hands out the [`MsgId`]s.
    pub(crate) payloads: IdTable<MsgId, Payload>,
    pub(crate) blocked: Vec<Option<Blocked>>,
    pub(crate) coll: CollState,
    pub(crate) comms: CommRegistry,
    /// Per-node remaining P2P byte budget for the current slice
    /// (generation-stamped: a slice boundary refills all nodes in O(1)).
    pub(crate) src_budget: crate::match_index::LazyBudget,
    pub(crate) dst_budget: crate::match_index::LazyBudget,
    /// Per-node schedule-compilation detectors (`cfg.sched_compile`).
    /// Deliberately outside `nic` and never checkpointed: learned state is
    /// a pure optimization, dropped at every checkpoint boundary, and a
    /// restored engine starts cold (see [`crate::schedule`]).
    pub(crate) sched_detect: Vec<crate::schedule::Detector>,
    pub(crate) noise: Option<NoiseModel>,
    pub stats: BcsStats,
    /// `(slice, digest)` stream captured by the checkpoint hook. A chunk
    /// log, so an image shares what earlier images hold of it.
    pub checkpoints: ChunkLog<(u64, u64)>,
    /// Full restorable images (when the run records responses).
    pub images: Vec<crate::checkpoint::CheckpointImage>,
    /// Set when the machine declared a node failure (heartbeat detection or
    /// a data-channel transfer abort); [`Engine::halted`] reports it so the
    /// run driver stops instead of spinning on a stalled protocol.
    pub failed: Option<FailureInfo>,
    /// Per-slice activity records (when `cfg.trace_slices`), kept like
    /// `checkpoints`.
    pub trace: ChunkLog<crate::trace::SliceRecord>,
    pub(crate) trace_cursor: crate::trace::TraceCursor,
    pub(crate) gang: Option<crate::gang::GangState>,
}

impl bcs_core::BcsHost<BW> for BcsMpi {
    fn bcs_cluster(&mut self) -> &mut BcsCluster<BW> {
        &mut self.bcs
    }
}

impl BcsMpi {
    pub fn new(cfg: BcsConfig, layout: &JobLayout) -> BcsMpi {
        // One extra fabric port for the management node.
        let fabric = rdmanet::build_fabric(cfg.fabric, cfg.net, layout.compute_nodes + 1);
        let mgmt = NodeId(layout.compute_nodes);
        let noise = cfg
            .noise
            .clone()
            .map(|nc| NoiseModel::new(nc, layout.compute_nodes));
        BcsMpi {
            bcs: BcsCluster::new(fabric),
            mgmt,
            nic: crate::p2p::Nics::new(layout.compute_nodes),
            outstanding: vec![0; layout.compute_nodes],
            due: Default::default(),
            dem_out: vec![Vec::new(); layout.compute_nodes],
            sched: vec![Vec::new(); layout.compute_nodes],
            slice: 0,
            phase: 0,
            slice_started_at: SimTime::ZERO,
            restart_queue: Vec::new(),
            reqs: ReqTable::new(layout.ranks),
            payloads: IdTable::new(),
            blocked: (0..layout.ranks).map(|_| None).collect(),
            coll: CollState::new(layout),
            comms: CommRegistry::new(layout),
            src_budget: crate::match_index::LazyBudget::new(layout.compute_nodes),
            dst_budget: crate::match_index::LazyBudget::new(layout.compute_nodes),
            sched_detect: (0..layout.compute_nodes)
                .map(|_| crate::schedule::Detector::default())
                .collect(),
            noise,
            stats: BcsStats::default(),
            checkpoints: ChunkLog::new(),
            images: Vec::new(),
            failed: None,
            trace: ChunkLog::new(),
            trace_cursor: crate::trace::TraceCursor::default(),
            gang: cfg
                .gang
                .clone()
                .map(|g| crate::gang::GangState::new(g, layout.ranks, layout.compute_nodes)),
            cfg,
            layout: layout.clone(),
        }
    }

    /// Fabric-level transfer counters (bytes, drops, dead-node skips) — the
    /// wire-side evidence fault experiments assert against.
    pub fn fabric_stats(&self) -> &qsnet::FabricStats {
        self.bcs.fabric.net().stats()
    }

    /// Reliable-delivery counters (retries issued, transfers aborted).
    pub fn retry_stats(&self) -> &bcs_core::retry::RetryState {
        &self.bcs.retry
    }

    /// Schedule-compilation counters, aggregated over all NICs. Kept out of
    /// [`BcsStats`] on purpose: a restored engine starts with cold
    /// detectors, so these are the one place an original and a recovered
    /// run legitimately differ.
    pub fn sched_stats(&self) -> crate::schedule::DetectorStats {
        let mut agg = crate::schedule::DetectorStats::default();
        for d in &self.sched_detect {
            agg.add(&d.stats);
        }
        agg
    }

    #[inline]
    pub(crate) fn node_of(&self, rank: usize) -> NodeId {
        self.layout.node_of(rank)
    }

    /// All compute nodes used by the job (the SS strobes exactly these):
    /// the world communicator's member nodes.
    pub(crate) fn job_nodes(&self) -> bcs_core::NodeSet {
        self.comms.group(CommId::WORLD).nodes().clone()
    }

    // ------------------------------------------------------------------
    // Request completion & NM restarts
    // ------------------------------------------------------------------

    /// Mark `req` complete. If its owner is suspended on it, queue the owner
    /// for restart at the next slice boundary (the NM restarts suspended
    /// processes only at slice starts, §3.1).
    pub(crate) fn complete_req(w: &mut BW, sim: &mut Sim<BW>, req: ReqId) {
        let e = &mut w.engine;
        let Some((rank, wake)) = e.reqs.complete(req) else {
            return;
        };
        let blocking = match &wake {
            Wake::SendDone(st) => Some(st),
            Wake::WaitDone(st) if st.kind == ReqKind::Recv => Some(st),
            Wake::WaitDone(_) | Wake::WaitallDone(_) => None,
        };
        if let Some(st) = blocking {
            let now = sim.now();
            e.stats
                .blocking_delay
                .record(now.since(st.posted_at) + e.half_slice_to_boundary(now));
        }
        e.restart_queue.push((rank, wake.into_resp()));
    }

    /// True while the NM holds `rank` suspended in a blocking primitive.
    pub(crate) fn suspended(&self, rank: usize) -> bool {
        self.blocked[rank].is_some() || self.reqs.waiting(rank).is_some()
    }

    /// Residual time from `now` to the next nominal slice boundary — added
    /// to the blocking-delay statistic because the restart actually happens
    /// there.
    fn half_slice_to_boundary(&self, now: SimTime) -> SimDuration {
        let origin = self.cfg.init_delay.as_nanos();
        let rel = now.as_nanos().saturating_sub(origin);
        let ts = self.cfg.timeslice.as_nanos();
        let next = origin + rel.div_ceil(ts.max(1)) * ts;
        SimDuration::nanos(next.saturating_sub(now.as_nanos()))
    }
}

impl Engine for BcsMpi {
    fn bootstrap(w: &mut BW, sim: &mut Sim<BW>) {
        crate::protocol::start_strobe_loop(w, sim);
    }

    fn halted(w: &BW) -> bool {
        w.engine.failed.is_some()
    }

    fn describe_pending(&self) -> String {
        let mut out = format!(
            "  slice {} phase {} started at {}\n",
            self.slice, self.phase, self.slice_started_at
        );
        if let Some(f) = &self.failed {
            out.push_str(&format!(
                "  FAILED: node {} declared dead at {} ({})\n",
                f.node, f.at, f.reason
            ));
        }
        for (r, b) in self.blocked.iter().enumerate() {
            let what = match (b, self.reqs.describe(r)) {
                (Some(Blocked::Probe { src, tag }), _) => format!("probe {src:?}/{tag:?}"),
                (Some(Blocked::Collective), _) => "collective".to_string(),
                (None, Some(waiting)) => waiting,
                (None, None) => continue,
            };
            out.push_str(&format!("  rank {r}: {what}\n"));
        }
        for (n, nic) in self.nic.iter().enumerate() {
            let s = nic.describe();
            if !s.is_empty() {
                out.push_str(&format!("  node {n}: {s}\n"));
            }
        }
        out.push_str(&self.coll.describe());
        out
    }
}

/// Where each primitive lives: compute in the Node Manager's scheduling
/// (`protocol`), point-to-point and probe in the NIC threads' DEM/MSM/P2P
/// machinery (`p2p`), collectives in their BBM/RM machinery (`coll`). A
/// call only posts; the NM restarts the rank at a slice boundary (§3.1).
impl Protocol for BcsMpi {
    fn reqs(&mut self) -> &mut ReqTable {
        &mut self.reqs
    }

    /// A wait that already holds is the §3.2 fast path ("verify that the
    /// communication has been performed and continue"), and a probe that
    /// finds its message reads the BR: each costs the rank a post.
    fn answer_cost(&self) -> Option<SimDuration> {
        Some(self.cfg.post_cost)
    }

    fn compute(w: &mut BW, sim: &mut Sim<BW>, rank: usize, ns: u64) {
        crate::protocol::compute(w, sim, rank, ns)
    }

    fn post_send(w: &mut BW, sim: &mut Sim<BW>, rank: usize, dest: usize, tag: i32, data: Payload, blocking: bool) {
        crate::p2p::post_send(w, sim, rank, dest, tag, data, blocking)
    }
    fn post_recv(w: &mut BW, sim: &mut Sim<BW>, rank: usize, src: SrcSel, tag: TagSel, blocking: bool) {
        crate::p2p::post_recv(w, sim, rank, src, tag, blocking)
    }
    fn probe_match(&self, rank: usize, src: SrcSel, tag: TagSel) -> Option<Status> {
        crate::p2p::probe_match(self, rank, src, tag)
    }
    fn park_probe(&mut self, rank: usize, src: SrcSel, tag: TagSel) {
        self.blocked[rank] = Some(Blocked::Probe { src, tag });
    }

    fn collective(w: &mut BW, _: &mut Sim<BW>, rank: usize, comm: CommId, call: CollCall) {
        post_collective(w, rank, comm, call)
    }
    fn comm_split(w: &mut BW, _: &mut Sim<BW>, rank: usize, parent: CommId, color: i64, key: i64) {
        crate::coll::post_comm_split(w, rank, parent, color, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The budget is derived from the slice however the config is built, a
    /// struct update included, and from QsNet's link whatever `net` is. The
    /// pins are the truncated float products, not rounded ones.
    #[test]
    fn the_p2p_budget_follows_the_timeslice() {
        let pins = [(100, 19_200), (250, 47_999), (500, 95_999), (1000, 191_999), (2000, 383_999)];
        for (us, budget) in pins {
            let cfg = BcsConfig { timeslice: SimDuration::micros(us), ..Default::default() };
            assert_eq!(cfg.p2p_budget(), budget, "{us} us slice");
            let bgl = BcsConfig { net: NetModel::bluegene_l(), ..cfg };
            assert_eq!(bgl.p2p_budget(), budget, "{us} us slice on BlueGene/L");
        }
    }
}
