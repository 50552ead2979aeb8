//! Point-to-point: descriptor posting, the descriptor exchange microphase
//! (BS), matching and chunk scheduling (BR), and the data transmission (DH).
//!
//! Faithful to §4.3 and Figure 6:
//!
//! 1. a send posts a descriptor to the BS; a receive posts to the BR;
//! 2. DEM: the BS delivers each send descriptor posted during slice `i-1`
//!    to the BR of the destination node;
//! 3. MSM: the BR matches the remote send-descriptor list against the local
//!    receive-descriptor list (first match in arrival/post order — MPI
//!    non-overtaking), builds a matching descriptor, and schedules it; a
//!    message that cannot be transmitted within the slice's bandwidth budget
//!    is split into chunks, the first scheduled now, the rest in following
//!    slices;
//! 4. P2P microphase: the DH of the *receiving* node performs a one-sided
//!    get for every scheduled chunk — no intervention from either
//!    application process.
//!
//! The BR's queues are held in the [`crate::match_index`] structures, so
//! matching, probing and chunk bookkeeping stay sub-linear at large
//! descriptor counts while producing bit-identical results to the
//! list-scan specification (`crates/core/tests/reference/`).

use crate::engine::{BW, Blocked, BcsMpi, DESC_BYTES, DESC_COST};
use crate::match_index::{RecvIndex, RecvSel, SendIndex, SendKey};
use mpi_api::call::{MpiResp, ReqId};
use mpi_api::message::{SrcSel, Status, TagSel};
use mpi_api::payload::Payload;
use mpi_api::request::ReqKind;
use mpi_api::runtime::resume_req_at;
use simcore::{IdTable, Sim};
use std::rc::Rc;

/// Identifier of one in-flight message (sender-assigned).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MsgId(pub u64);

impl From<u64> for MsgId {
    fn from(id: u64) -> MsgId {
        MsgId(id)
    }
}

impl From<MsgId> for u64 {
    fn from(id: MsgId) -> u64 {
        id.0
    }
}

/// A send descriptor in BS memory.
#[derive(Clone, Copy, Debug)]
pub(crate) struct SendDesc {
    pub msg: MsgId,
    pub src_rank: usize,
    pub dst_rank: usize,
    pub tag: i32,
    pub bytes: usize,
    pub req: ReqId,
}

impl SendDesc {
    /// The descriptor as the destination BR files it.
    fn arrival(&self) -> (SendKey, RemoteSend) {
        let key = SendKey {
            dst_rank: self.dst_rank,
            src_rank: self.src_rank,
            tag: self.tag,
        };
        let remote = RemoteSend {
            msg: self.msg,
            bytes: self.bytes,
            send_req: self.req,
        };
        (key, remote)
    }
}

/// A send descriptor as received by the destination BR. The envelope triple
/// lives in the [`SendKey`] it is indexed under.
#[derive(Clone, Debug)]
pub(crate) struct RemoteSend {
    pub msg: MsgId,
    pub bytes: usize,
    pub send_req: ReqId,
}

/// Per-node id of a transfer in progress (its slot in
/// [`NicState::inflight`]): what the slice's chunk schedule and the chunk
/// arrival events name a matching descriptor by.
pub(crate) type XferSlot = u64;

/// A matching descriptor: transfer in progress, owned by the receiving node.
#[derive(Clone, Debug)]
pub(crate) struct MatchItem {
    pub msg: MsgId,
    pub src_node: qsnet::NodeId,
    pub src_rank: usize,
    pub dst_rank: usize,
    pub tag: i32,
    pub send_req: ReqId,
    pub recv_req: ReqId,
    pub total: u64,
    pub moved: u64,
}

/// Per-node NIC-thread state (BS + BR + DH queues).
///
/// Held once in the engine and mutated through [`Nics::make_mut`],
/// which marks the node dirty: a checkpoint capture copies only the nodes
/// dirtied since the previous capture — compacted, so the image weighs
/// what a NIC holds and not its queues' working capacity — and shares the
/// previous image's copy of every other node, so checkpointing an idle
/// node is a refcount bump however deep its queues are. Per-microphase
/// transients (`outstanding` work counts, the DEM's staged descriptors,
/// the slice's chunk schedule) live directly in the engine so protocol
/// bookkeeping never dirties an idle node.
#[derive(Clone, Default)]
pub(crate) struct NicState {
    /// Send descriptors posted by local processes (BS input FIFO).
    pub send_posted: Vec<SendDesc>,
    /// Snapshot taken at the slice strobe: descriptors to exchange in DEM
    /// (empty outside the strobe-to-DEM hand-over, but it keeps its
    /// capacity: the three descriptor buffers rotate).
    pub send_exchanging: Vec<SendDesc>,
    /// Receive descriptors posted by local processes (BR), indexed by
    /// selector class, matched in post order.
    pub recv_posted: RecvIndex<ReqId>,
    /// Send descriptors received from remote BSs, in arrival order (BR),
    /// indexed by envelope.
    pub remote_sends: SendIndex<RemoteSend>,
    /// Matching descriptors with bytes still to move (BR/DH); slots are
    /// handed out in match order, which is the order chunk budgets are
    /// granted in.
    pub inflight: IdTable<XferSlot, MatchItem>,
    /// Set when a receive is posted, cleared by the MSM pass. While clear,
    /// the retained unmatched backlog provably cannot match (the receive
    /// set has only shrunk since it was last examined) and is skipped.
    pub recvs_since_msm: bool,
}

// An idle NIC must not pay for a busy one's queues: a large job builds
// thousands that never see a descriptor (264 B before the match index moved
// from trees to windows).
const _: () = assert!(std::mem::size_of::<NicState>() <= 264);

impl NicState {
    /// A copy without spare capacity in any queue: what a checkpoint image
    /// keeps.
    fn compacted(&self) -> NicState {
        let mut copy = self.clone();
        copy.send_posted.shrink_to_fit();
        copy.send_exchanging.shrink_to_fit();
        copy.recv_posted.shrink_to_fit();
        copy.remote_sends.shrink_to_fit();
        copy.inflight.shrink_to_fit();
        copy
    }

    /// Queue slots allocated beyond what the queues hold, spare deques
    /// included (the match indexes' hash tables are sized by their
    /// lengths and not counted).
    pub fn spare_capacity(&self) -> usize {
        self.send_posted.capacity() - self.send_posted.len()
            + (self.send_exchanging.capacity() - self.send_exchanging.len())
            + self.recv_posted.spare_capacity()
            + self.remote_sends.spare_capacity()
            + self.inflight.spare_capacity()
    }

    pub fn describe(&self) -> String {
        if self.send_posted.is_empty()
            && self.recv_posted.is_empty()
            && self.remote_sends.is_empty()
            && self.inflight.is_empty()
        {
            return String::new();
        }
        format!(
            "{} sends posted, {} recvs posted, {} remote sends, {} in flight",
            self.send_posted.len() + self.send_exchanging.len(),
            self.recv_posted.len(),
            self.remote_sends.len(),
            self.inflight.len()
        )
    }

    /// What the state holds, in a canonical form: every queue's entries
    /// with their positions, and the MSM flag — not capacities or caches,
    /// so a compacted copy has its original's view. The destructuring is
    /// exhaustive: a new field has to be added here.
    #[cfg(debug_assertions)]
    fn view(&self) -> String {
        let NicState { send_posted, send_exchanging, recv_posted, remote_sends, inflight, recvs_since_msm } = self;
        let recvs: Vec<_> = recv_posted.iter().collect();
        let remote: Vec<_> = remote_sends.iter().collect();
        let inflight: Vec<_> = inflight.iter().collect();
        format!("{send_posted:?} {send_exchanging:?} {recvs:?} {remote:?} {inflight:?} {recvs_since_msm}")
    }
}

/// A set of nodes, one bit each, walked in ascending order.
pub(crate) struct NodeBits(Vec<u64>);

impl NodeBits {
    pub fn new(nodes: usize) -> NodeBits {
        NodeBits(vec![0; nodes.div_ceil(64)])
    }

    #[inline]
    pub fn insert(&mut self, node: usize) {
        self.0[node / 64] |= 1 << (node % 64);
    }

    #[inline]
    pub fn remove(&mut self, node: usize) {
        self.0[node / 64] &= !(1 << (node % 64));
    }

    pub fn contains(&self, node: usize) -> bool {
        self.0[node / 64] >> (node % 64) & 1 == 1
    }

    /// Every node (and the unused bits of the last word: walks are bounded).
    pub fn insert_all(&mut self) {
        self.0.fill(!0);
    }

    pub fn clear(&mut self) {
        self.0.fill(0);
    }

    /// The smallest member in `from..to`.
    #[inline]
    pub fn next_in(&self, from: usize, to: usize) -> Option<usize> {
        let mut at = from;
        while at < to {
            let bits = self.0[at / 64] >> (at % 64);
            if bits != 0 {
                let node = at + bits.trailing_zeros() as usize;
                return (node < to).then_some(node);
            }
            at = (at / 64 + 1) * 64;
        }
        None
    }
}

/// Every node's NIC state, the copies checkpoint images hold, and the
/// nodes a microstrobe has to look at.
///
/// A node is *touched* from any mutable access to its NIC state
/// ([`Nics::make_mut`]) or to a collective round it roots
/// ([`Nics::touch`], `coll::CollState::edit_round`) until a strobe walk finds every
/// microphase predicate false for it (`protocol::on_microstrobe`). An
/// untouched node therefore has nothing to do in any microphase, and the
/// walk skips it without a look (DESIGN §9).
pub(crate) struct Nics {
    /// The live states, one per node, each held once. Boxed: one block the
    /// size of a 1024-node machine measured slower to build than a box per
    /// node.
    #[allow(clippy::vec_box)]
    state: Vec<Box<NicState>>,
    /// The newest image's states: per node, the compacted copy taken at
    /// the last capture that found it dirty, shared by every image since.
    /// Empty until the first capture, so an engine that never captures
    /// holds no second copy.
    image: Vec<Rc<NicState>>,
    /// Nodes whose state may differ from `image` (set by every
    /// [`Nics::make_mut`], cleared by a capture or a restore).
    dirty: NodeBits,
    touched: NodeBits,
}

impl std::ops::Index<usize> for Nics {
    type Output = NicState;
    // PANIC-OK: node ids come from the fixed topology; the table is sized
    // by the layout at startup.
    #[inline]
    fn index(&self, node: usize) -> &NicState {
        &self.state[node]
    }
}

impl Nics {
    pub fn new(nodes: usize) -> Nics {
        Nics {
            state: (0..nodes).map(|_| Box::default()).collect(),
            image: Vec::new(),
            dirty: NodeBits::new(nodes),
            touched: NodeBits::new(nodes),
        }
    }

    /// `node`'s state, marked dirty for the next capture and touched.
    // PANIC-OK: node ids come from the fixed topology; the table is sized
    // by the layout at startup.
    #[inline]
    pub fn make_mut(&mut self, node: qsnet::NodeId) -> &mut NicState {
        self.touched.insert(node.0);
        self.dirty.insert(node.0);
        &mut self.state[node.0]
    }

    /// Something `node`'s microphase predicates read changed outside its
    /// NIC state.
    #[inline]
    pub fn touch(&mut self, node: qsnet::NodeId) {
        self.touched.insert(node.0);
    }

    /// A strobe walk found nothing for `node` to do in any microphase.
    #[inline]
    pub fn untouch(&mut self, node: qsnet::NodeId) {
        self.touched.remove(node.0);
    }

    pub fn is_touched(&self, node: qsnet::NodeId) -> bool {
        self.touched.contains(node.0)
    }

    /// The first touched node in `from..to`.
    #[inline]
    pub fn next_touched(&self, from: usize, to: usize) -> Option<usize> {
        self.touched.next_in(from, to)
    }

    pub fn iter(&self) -> impl Iterator<Item = &NicState> {
        self.state.iter().map(|nic| &**nic)
    }

    /// The states as an image keeps them: a compacted copy of every node
    /// dirtied since the previous capture (of every node, at the first),
    /// the previous image's handle for every other.
    // PANIC-OK: after the first capture `image` has one entry per node, and
    // dirty bits are walked below the node count.
    pub fn capture(&mut self) -> Vec<Rc<NicState>> {
        let nodes = self.state.len();
        if self.image.len() != nodes {
            self.image = self.state.iter().map(|nic| Rc::new(nic.compacted())).collect();
        } else {
            #[cfg(debug_assertions)]
            self.assert_clean_nodes_match_image();
            let mut at = 0;
            while let Some(node) = self.dirty.next_in(at, nodes) {
                self.image[node] = Rc::new(self.state[node].compacted());
                at = node + 1;
            }
        }
        self.dirty.clear();
        self.image.clone()
    }

    /// Debug builds: every node the capture shares from the previous image
    /// still holds what that image holds, so a mutation that bypassed
    /// [`Nics::make_mut`] fails here, at the capture it would corrupt.
    #[cfg(debug_assertions)]
    fn assert_clean_nodes_match_image(&self) {
        for (node, (live, kept)) in self.state.iter().zip(&self.image).enumerate() {
            if !self.dirty.contains(node) {
                assert_eq!(
                    live.view(),
                    kept.view(),
                    "node {node}'s NIC state changed since the last capture without Nics::make_mut"
                );
            }
        }
    }

    /// Rebuild every live state from `image` (a restored image's), which
    /// the next capture shares from: every node is touched, since the walk
    /// knows nothing of what it holds, and none is dirty.
    pub fn restore(&mut self, image: &[Rc<NicState>]) {
        assert_eq!(image.len(), self.state.len(), "image node count");
        self.state = image.iter().map(|nic| Box::new(NicState::clone(nic))).collect();
        self.image = image.to_vec();
        self.dirty.clear();
        self.touched.insert_all();
    }
}

// ----------------------------------------------------------------------
// Descriptor posting (application side)
// ----------------------------------------------------------------------

// PANIC-OK: per-rank tables are sized by the layout at startup and rank
// indices come from the harness; a miss is a construction bug, not input.
pub(crate) fn post_send(
    w: &mut BW,
    sim: &mut Sim<BW>,
    rank: usize,
    dest: usize,
    tag: i32,
    data: Payload,
    blocking: bool,
) {
    let e = &mut w.engine;
    let now = sim.now();
    let req = e.reqs.post(rank, ReqKind::Send, now);
    let node = e.node_of(rank);
    let bytes = data.len();
    let msg = e.payloads.push(data);
    e.nic.make_mut(node).send_posted.push(SendDesc {
        msg,
        src_rank: rank,
        dst_rank: dest,
        tag,
        bytes,
        req,
    });
    if blocking {
        e.reqs.block_on_send(rank, req);
    } else {
        let at = now + e.cfg.post_cost;
        resume_req_at(w, sim, at, rank, req);
    }
}

// PANIC-OK: per-rank tables are sized by the layout at startup and rank
// indices come from the harness; a miss is a construction bug, not input.
pub(crate) fn post_recv(
    w: &mut BW,
    sim: &mut Sim<BW>,
    rank: usize,
    src: SrcSel,
    tag: TagSel,
    blocking: bool,
) {
    let e = &mut w.engine;
    let now = sim.now();
    let req = e.reqs.post(rank, ReqKind::Recv, now);
    let node = e.node_of(rank);
    let nic = e.nic.make_mut(node);
    nic.recv_posted.post(
        RecvSel {
            dst_rank: rank,
            src,
            tag,
        },
        req,
    );
    nic.recvs_since_msm = true;
    if blocking {
        e.reqs.block_on_recv(rank, req);
    } else {
        let at = now + e.cfg.post_cost;
        resume_req_at(w, sim, at, rank, req);
    }
}

/// MPI_Probe / MPI_Iprobe: a message is visible once its send descriptor
/// has reached this node's BR and is not yet matched.
// PANIC-OK: nic/remote_sends are sized per node at startup; node ids come
// from the fixed topology.
pub(crate) fn probe_match(e: &BcsMpi, rank: usize, src: SrcSel, tag: TagSel) -> Option<Status> {
    let node = e.node_of(rank);
    e.nic[node.0]
        .remote_sends
        .probe(rank, src, tag)
        .map(|(key, rs)| Status {
            source: key.src_rank,
            tag: key.tag,
            bytes: rs.bytes,
        })
}

/// After matching, satisfy any blocking probes on this node (they restart
/// at the next slice boundary like every blocking primitive).
// PANIC-OK: `blocked` is sized per rank at startup; ranks come from the
// layout iterator over the same table.
pub(crate) fn check_blocked_probes(w: &mut BW, node: qsnet::NodeId) {
    for rank in w.engine.layout.ranks_on(node) {
        if let Some(Blocked::Probe { src, tag }) = &w.engine.blocked[rank] {
            let (src, tag) = (*src, *tag);
            if let Some(st) = probe_match(&w.engine, rank, src, tag) {
                w.engine.blocked[rank] = None;
                w.engine
                    .restart_queue
                    .push((rank, MpiResp::ProbeDone { status: Some(st) }));
            }
        }
    }
}

// ----------------------------------------------------------------------
// DEM — descriptor exchange (BS)
// ----------------------------------------------------------------------

/// Whether `node`'s BS has anything to exchange in the DEM now being
/// strobed: a send descriptor in its input FIFO. Without one the microphase
/// is the NIC thread's look at an empty queue (`protocol::on_microstrobe`).
// PANIC-OK: per-node NIC state is sized by the layout at startup; node ids
// come from the fixed topology.
pub(crate) fn dem_has_work(e: &BcsMpi, node: qsnet::NodeId) -> bool {
    !e.nic[node.0].send_posted.is_empty()
}

/// BS work for one node: deliver every snapshot descriptor to its
/// destination BR. The node's DEM is done when the NIC thread has processed
/// the queue and every descriptor has landed.
///
/// The snapshot is staged in the engine (`dem_out`) and a delivery names its
/// descriptor by `(node, index)`, so the completion is two words and lives
/// inline in its simulator event.
// PANIC-OK: descriptor queues and per-node NIC state are populated by the
// posting path before the strobe schedules this DEM; indices are node ids
// from the fixed topology.
pub(crate) fn node_begin_dem(w: &mut BW, sim: &mut Sim<BW>, node: qsnet::NodeId) {
    debug_assert!(dem_has_work(&w.engine, node));
    let e = &mut w.engine;
    // Slice strobe: the BS snapshots its input FIFO — every send descriptor
    // present when the strobe arrives is exchanged in this slice's DEM
    // (descriptors posted by processes the NM just restarted therefore make
    // the current slice, like in the real runtime).
    let nic = e.nic.make_mut(node);
    debug_assert!(nic.send_exchanging.is_empty());
    std::mem::swap(&mut nic.send_exchanging, &mut nic.send_posted);
    e.dem_out[node.0].clear();
    std::mem::swap(&mut e.dem_out[node.0], &mut nic.send_exchanging);
    let n = e.dem_out[node.0].len();
    e.stats.descriptors_exchanged += n as u64;
    let plan = Plan::new(e.cfg.coalesce, n, || {
        let e = &w.engine;
        e.dem_out[node.0].iter().map(|d| (e.node_of(d.dst_rank).0, DESC_BYTES)).collect()
    });
    // One work item per wire operation, plus one for the NIC thread's own
    // processing pass.
    w.engine.outstanding[node.0] = plan.wire_ops() as u32 + 1;
    for i in plan.singles() {
        let dst_node = w.engine.node_of(w.engine.dem_out[node.0][i].dst_rank);
        wire_put(w, sim, node, dst_node, DESC_BYTES, "DEM descriptor put", move |w, sim| {
            deliver_desc(w, sim, node, i)
        });
    }
    // All send descriptors bound for one node travel as *one* block: a
    // single control packet whose scatter header the receiving BR unpacks
    // into its arrival list (`bcs_core::coalesce` models the wire layout).
    // Descriptors keep their posting order inside a block, so MPI
    // non-overtaking per (src, dst) pair is preserved.
    for g in plan.gathers {
        let dst_node = qsnet::NodeId(g.peer);
        let msgs = g.entries.len() as u64;
        w.engine.stats.dem_blocks += 1;
        w.engine.stats.dem_block_msgs += msgs;
        w.engine.bcs.fabric.net_mut().note_gather(msgs, msgs * DESC_BYTES);
        let deliver = move |w: &mut BW, sim: &mut Sim<BW>| {
            let e = &mut w.engine;
            let nic = e.nic.make_mut(dst_node);
            for &i in &g.entries {
                let (key, remote) = e.dem_out[node.0][i].arrival();
                nic.remote_sends.push(key, remote);
            }
            crate::protocol::work_item_done(w, sim, node);
            mpi_api::runtime::drain(w, sim);
        };
        // The packed descriptors are NIC metadata, not payload: the block
        // rides the wire as one header-sized control packet, exactly like
        // a microstrobe — that is the whole point.
        let hdr = bcs_core::coalesce::BLOCK_HDR_BYTES;
        wire_put(w, sim, node, dst_node, hdr, "DEM descriptor block put", deliver);
    }
    // NIC thread processing time for the whole queue, per descriptor
    // regardless of how the wire operations are batched.
    crate::protocol::work_item_done_in(w, sim, node, DESC_COST * n as u64);
}

/// The wire operations of one DEM or P2P microphase (`cfg.coalesce`, see
/// `bcs_core::coalesce`): the transfers issued on their own, in index
/// order, and the blocks that merge small same-peer transfers. Without
/// coalescing every transfer is a single and nothing is allocated — the
/// coalescing axis chooses which transfers merge, not which code runs.
struct Plan {
    /// `None`: all `n` transfers are singles.
    singles: Option<Vec<usize>>,
    n: usize,
    gathers: Vec<bcs_core::coalesce::Gather<usize>>,
}

impl Plan {
    /// `items` — `(peer node, bytes)` per transfer — is only built when
    /// there is a plan to make.
    fn new(coalesce: bool, n: usize, items: impl FnOnce() -> Vec<(usize, u64)>) -> Plan {
        if !coalesce {
            return Plan { singles: None, n, gathers: Vec::new() };
        }
        let (singles, gathers) = bcs_core::coalesce::plan(&items());
        Plan { singles: Some(singles), n, gathers }
    }

    /// Transfer indices to issue on their own, ascending.
    // PANIC-OK: `k` ranges over the plan's own single list.
    fn singles(&self) -> impl Iterator<Item = usize> + '_ {
        let count = self.singles.as_ref().map_or(self.n, Vec::len);
        (0..count).map(move |k| self.singles.as_ref().map_or(k, |s| s[k]))
    }

    fn wire_ops(&self) -> usize {
        self.singles.as_ref().map_or(self.n, Vec::len) + self.gathers.len()
    }
}

/// One wire put of the data channel — a DEM descriptor or block, a binomial
/// collective edge — raw or under the retry layer; `deliver` runs at most
/// once either way (a drop means it never fires, and exhausted retries
/// declare the peer failed), and a put that lands is one event either way.
pub(crate) fn wire_put(
    w: &mut BW,
    sim: &mut Sim<BW>,
    node: qsnet::NodeId,
    dst_node: qsnet::NodeId,
    bytes: u64,
    what: &'static str,
    deliver: impl Fn(&mut BW, &mut Sim<BW>) + 'static,
) {
    match w.engine.cfg.retry {
        None => {
            w.engine.bcs.fabric.put(sim, node, dst_node, bytes, deliver);
        }
        Some(policy) => bcs_core::retry::reliable_put(
            w,
            sim,
            node,
            dst_node,
            bytes,
            policy,
            deliver,
            transfer_abort(dst_node, what),
        ),
    }
}

/// Descriptor `i` of `node`'s staged snapshot landed at its destination BR.
// PANIC-OK: the index was taken from the staged snapshot it reads, which
// stays put until the node's next DEM — after this one completed.
fn deliver_desc(w: &mut BW, sim: &mut Sim<BW>, node: qsnet::NodeId, i: usize) {
    let e = &mut w.engine;
    let (key, remote) = e.dem_out[node.0][i].arrival();
    let dst_node = e.layout.node_of(key.dst_rank);
    e.nic.make_mut(dst_node).remote_sends.push(key, remote);
    crate::protocol::work_item_done(w, sim, node);
    mpi_api::runtime::drain(w, sim);
}

// ----------------------------------------------------------------------
// MSM — matching and chunk scheduling (BR)
// ----------------------------------------------------------------------

/// Whether `node`'s BR has anything to do in the MSM now being strobed: a
/// transfer to grant budget to, a receive posted since its last pass, a
/// remote send descriptor (new ones are matched, examined ones still cost
/// the walk), or an eligibility query to issue. A rank blocked in a probe
/// needs no term of its own: it is satisfied by a remote send descriptor,
/// and there is none.
// PANIC-OK: per-node NIC state is sized by the layout at startup; node ids
// come from the fixed topology.
pub(crate) fn msm_has_work(e: &BcsMpi, node: qsnet::NodeId) -> bool {
    let nic = &e.nic[node.0];
    !nic.inflight.is_empty()
        || nic.recvs_since_msm
        || !nic.remote_sends.is_empty()
        || crate::coll::has_msm_query(e, node)
}

/// BR work for one node: allocate budget to in-flight transfers, match new
/// remote send descriptors against eligible local receives, schedule chunks,
/// and kick off collective eligibility queries.
// PANIC-OK: MSM only walks descriptors the DEM already delivered into this
// node's BR; every queue entry it unwraps was inserted by that exchange and
// per-rank/per-node tables are sized by the fixed layout.
pub(crate) fn node_begin_msm(w: &mut BW, sim: &mut Sim<BW>, node: qsnet::NodeId) {
    debug_assert!(msm_has_work(&w.engine, node));
    let mut work_items = 1u32; // the matching pass itself
    let mut processed = 0u64;

    // 1. Continuation chunks of partially-moved messages, in match order
    //    (§4.3: "the remaining chunks in the following time slices").
    {
        let e = &mut w.engine;
        let mut sched = std::mem::take(&mut e.sched[node.0]);
        debug_assert!(sched.is_empty());
        for (slot, item) in e.nic[node.0].inflight.iter() {
            // Completed transfers leave the queue in `chunk_arrived` and
            // zero-byte messages never enter it, so bytes always remain.
            let remaining = item.total - item.moved;
            debug_assert!(remaining > 0);
            let chunk = remaining
                .min(e.src_budget.get(item.src_node.0))
                .min(e.dst_budget.get(node.0));
            if chunk > 0 {
                e.src_budget.sub(item.src_node.0, chunk);
                e.dst_budget.sub(node.0, chunk);
                sched.push((slot, chunk));
            }
            processed += 1;
        }
        e.sched[node.0] = sched;
    }

    // 2. New matches: remote send descriptors in arrival order against the
    //    first eligible receive in post order. If no receive has been
    //    posted since the last pass, the examined backlog cannot match (the
    //    receive set has only shrunk) — the BR still walks the list, so its
    //    NIC-thread cost is charged, but no matching work is done for it.
    let mut completions: Vec<(ReqId, ReqId)> = Vec::new(); // zero-byte messages
    let e = &mut w.engine;
    let fresh_recvs = e.nic[node.0].recvs_since_msm;
    let has_new = e.nic[node.0].remote_sends.len() > e.nic[node.0].remote_sends.examined_len();
    if !fresh_recvs {
        processed += e.nic[node.0].remote_sends.examined_len() as u64;
    }
    // (An idle BR — nothing to examine — unshares nothing: its watermark is
    // already current.)
    if fresh_recvs || has_new {
        // The one unsharing of this pass; `e`'s other fields borrow beside it.
        let nic = e.nic.make_mut(node);
        let incoming = if fresh_recvs {
            nic.recvs_since_msm = false;
            nic.remote_sends.drain_all()
        } else {
            nic.remote_sends.drain_new()
        };

        // Schedule compilation (crate::schedule): on a full pass — every
        // unmatched descriptor drained, current receive set in hand — the
        // slice's input shape is fingerprinted and the detector decides
        // whether to replay a compiled schedule, record one, or fall
        // through to plain indexed matching.
        let mut action = crate::schedule::SliceAction::Indexed;
        let mut fp_val = 0u64;
        if e.cfg.sched_compile && fresh_recvs && !incoming.is_empty() {
            let mut fp = crate::schedule::FpBuilder::new();
            fp.word(incoming.len() as u64);
            for (key, rs) in &incoming {
                fp.arrival(key, rs.bytes as u64);
            }
            // Receive side: the index maintains this digest at post time,
            // so a replay streak never re-walks the posted set.
            fp.word(nic.recv_posted.shape_digest());
            fp_val = fp.finish();
            action = e.sched_detect[node.0].observe(fp_val);
        }

        let mut replayed = false;
        if action == crate::schedule::SliceAction::Replay {
            // Validate before touching anything: the pairing itself is
            // guaranteed by the fingerprint; only the *budgets* are global
            // state other nodes' MSM passes drain concurrently. The
            // indexed path would chunk a message that no longer fits — the
            // compiled plan cannot, so a shortfall falls back wholesale.
            let c = e.sched_detect[node.0].compiled().expect("Replay without schedule");
            // Budget needs are aggregated per source at compile time
            // (`Compiled::new`), so this pass is O(distinct sources).
            let ok = c.pairs.len() == incoming.len()
                && nic.recv_posted.len() == c.pairs.len()
                && c.dst_need <= e.dst_budget.get(node.0)
                && c.src_need
                    .iter()
                    .all(|&(s, need)| need <= e.src_budget.get(s as usize));
            if ok {
                // Replay: the same externally visible transitions as the
                // indexed pass below — stats, budget arithmetic, schedule
                // and in-flight push order — minus all matching work. The
                // budget debit happens as precomputed aggregates: budgets
                // are counters, so the sum of per-pair subs and one sub of
                // the per-source sum are the same arithmetic.
                let pairs = c.pairs.clone();
                let src_need = c.src_need.clone();
                let dst_need = c.dst_need;
                for (s, need) in src_need {
                    e.src_budget.sub(s as usize, need);
                }
                e.dst_budget.sub(node.0, dst_need);
                e.stats.matches += pairs.len() as u64;
                let recvs = nic.recv_posted.take_all();
                debug_assert_eq!(recvs.len(), pairs.len());
                for p in &pairs {
                    let (key, rs) = &incoming[p.arrival as usize];
                    let (_sel, recv_req) = recvs[p.recv as usize];
                    let slot = nic.inflight.push(MatchItem {
                        msg: rs.msg,
                        src_node: qsnet::NodeId(p.src_node as usize),
                        src_rank: key.src_rank,
                        dst_rank: key.dst_rank,
                        tag: key.tag,
                        send_req: rs.send_req,
                        recv_req,
                        total: p.total,
                        moved: 0,
                    });
                    e.sched[node.0].push((slot, p.total));
                }
                processed += pairs.len() as u64;
                e.sched_detect[node.0].replayed();
                replayed = true;
            } else {
                e.sched_detect[node.0].replay_fallback();
            }
        }

        if !replayed {
            let compile = action == crate::schedule::SliceAction::Compile;
            // Recording state: receive post-sequence -> position (the
            // compiled pairing pins positions, not sequences), the pairs
            // recorded so far, and whether the pattern is still eligible.
            let mut recv_pos: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();
            let mut rec: Vec<crate::schedule::Pair> = Vec::new();
            let mut compile_ok = compile;
            if compile {
                for (i, (seq, _, _)) in nic.recv_posted.iter().enumerate() {
                    recv_pos.insert(seq, i as u32);
                }
            }
            for (i, (key, rs)) in incoming.into_iter().enumerate() {
                processed += 1;
                // The BR matches against the receive-descriptor list as of
                // MSM execution (§4.3) — no slice-age requirement.
                match nic.recv_posted.match_first_seq(&key) {
                    None => {
                        compile_ok = false; // an unmatched arrival can't replay
                        nic.remote_sends.push(key, rs);
                    }
                    Some((seq, _sel, recv_req)) => {
                        e.stats.matches += 1;
                        let src_node = e.layout.node_of(key.src_rank);
                        let total = rs.bytes as u64;
                        if total == 0 {
                            // Metadata-only message: complete in MSM.
                            compile_ok = false; // completes out of band
                            completions.push((rs.send_req, recv_req));
                            // Nothing will be transferred, so the parked
                            // (empty) payload is handed over here, not in
                            // `chunk_arrived`.
                            let data = e
                                .payloads
                                .remove(rs.msg)
                                .expect("payload vanished before its message matched");
                            e.reqs.deliver(
                                recv_req,
                                data,
                                Status {
                                    source: key.src_rank,
                                    tag: key.tag,
                                    bytes: 0,
                                },
                            );
                            continue;
                        }
                        let item = MatchItem {
                            msg: rs.msg,
                            src_node,
                            src_rank: key.src_rank,
                            dst_rank: key.dst_rank,
                            tag: key.tag,
                            send_req: rs.send_req,
                            recv_req,
                            total,
                            moved: 0,
                        };
                        let chunk = total
                            .min(e.src_budget.get(src_node.0))
                            .min(e.dst_budget.get(node.0));
                        let slot = nic.inflight.push(item);
                        if chunk > 0 {
                            e.src_budget.sub(src_node.0, chunk);
                            e.dst_budget.sub(node.0, chunk);
                            e.sched[node.0].push((slot, chunk));
                        }
                        if chunk < total {
                            e.stats.chunked_messages += 1;
                            compile_ok = false; // chunk plans don't replay
                        } else if compile {
                            rec.push(crate::schedule::Pair {
                                arrival: i as u32,
                                recv: recv_pos[&seq],
                                src_node: src_node.0 as u32,
                                total,
                            });
                        }
                    }
                }
            }
            if compile {
                // Eligible only if the pass consumed the whole input: every
                // arrival matched and fully scheduled, every receive used.
                if compile_ok && nic.recv_posted.is_empty() {
                    e.sched_detect[node.0]
                        .install(crate::schedule::Compiled::new(fp_val, rec));
                } else {
                    e.sched_detect[node.0].compile_failed();
                }
            }
        }
        // Everything now in the index has been examined against the current
        // receive set; until a new receive arrives it stays parked.
        nic.remote_sends.mark_examined();
    }
    for (sreq, rreq) in completions {
        BcsMpi::complete_req(w, sim, sreq);
        BcsMpi::complete_req(w, sim, rreq);
    }

    // 3. Collective eligibility queries (Compare-And-Write from the master
    //    node, §4.4).
    work_items += crate::coll::msm_queries(w, sim, node);

    // 4. Blocking probes see the still-unmatched descriptors.
    check_blocked_probes(w, node);

    // The matching pass costs NIC-thread time proportional to the
    // descriptors examined.
    let cost = DESC_COST * processed.max(1);
    w.engine.outstanding[node.0] = work_items;
    crate::protocol::work_item_done_in(w, sim, node, cost);
}

// ----------------------------------------------------------------------
// P2P microphase — data transmission (DH)
// ----------------------------------------------------------------------

/// Whether this slice's MSM scheduled a chunk for `node`'s DH to fetch.
// PANIC-OK: per-node tables are sized by the layout at startup; node ids
// come from the fixed topology.
pub(crate) fn p2p_has_work(e: &BcsMpi, node: qsnet::NodeId) -> bool {
    !e.sched[node.0].is_empty()
}

/// DH work for one node: one one-sided get per scheduled chunk, or — with
/// coalescing — per source node for its small chunks: block header + packed
/// payloads + one scatter-header entry per chunk (`bcs_core::coalesce`).
/// Large chunks keep their individual DMA: past the threshold the
/// per-operation overhead is already amortized.
// PANIC-OK: per-node tables are sized by the layout at startup; node ids
// come from the fixed topology; coalesced blocks index this slice's
// schedule.
pub(crate) fn node_begin_p2p(w: &mut BW, sim: &mut Sim<BW>, node: qsnet::NodeId) {
    debug_assert!(p2p_has_work(&w.engine, node));
    let mut sched = std::mem::take(&mut w.engine.sched[node.0]);
    let stats = &mut w.engine.stats;
    for &(_, chunk) in &sched {
        stats.chunks += 1;
        stats.p2p_bytes += chunk;
    }
    let plan = Plan::new(w.engine.cfg.coalesce, sched.len(), || {
        sched.iter().map(|&(slot, chunk)| (chunk_source(&w.engine, node, slot).0, chunk)).collect()
    });
    w.engine.outstanding[node.0] = plan.wire_ops() as u32;
    for i in plan.singles() {
        let (slot, chunk) = sched[i];
        let src_node = chunk_source(&w.engine, node, slot);
        let wire = chunk + DESC_BYTES;
        p2p_get(w, sim, node, src_node, wire, "P2P chunk get", move |w, sim| {
            chunk_arrived(w, sim, node, slot, chunk);
            crate::protocol::work_item_done(w, sim, node);
            mpi_api::runtime::drain(w, sim);
        });
    }
    for g in plan.gathers {
        let src_node = qsnet::NodeId(g.peer);
        let wire = g.wire_bytes();
        let batch: Vec<(XferSlot, u64)> = g.entries.iter().map(|&i| sched[i]).collect();
        w.engine.stats.p2p_gathers += 1;
        w.engine.stats.p2p_gather_msgs += batch.len() as u64;
        w.engine.bcs.fabric.net_mut().note_gather(batch.len() as u64, g.payload_bytes);
        p2p_get(w, sim, node, src_node, wire, "P2P gather get", move |w, sim| {
            for &(slot, chunk) in &batch {
                chunk_arrived(w, sim, node, slot, chunk);
            }
            crate::protocol::work_item_done(w, sim, node);
            mpi_api::runtime::drain(w, sim);
        });
    }
    // The buffer goes back empty, for the next slice's MSM to fill.
    sched.clear();
    w.engine.sched[node.0] = sched;
}

/// The node a scheduled chunk comes from.
// PANIC-OK: transmissions scheduled by the MSM reference messages recorded
// in the same slice; the in-flight table entry exists until chunk_arrived
// retires it.
fn chunk_source(e: &BcsMpi, node: qsnet::NodeId, slot: XferSlot) -> qsnet::NodeId {
    e.nic[node.0].inflight.get(slot).expect("scheduled chunk without match item").src_node
}

/// One P2P wire operation, raw or under the retry layer; `deliver` runs at
/// most once either way, and a get that lands is one event either way.
fn p2p_get(
    w: &mut BW,
    sim: &mut Sim<BW>,
    node: qsnet::NodeId,
    src_node: qsnet::NodeId,
    bytes: u64,
    what: &'static str,
    deliver: impl Fn(&mut BW, &mut Sim<BW>) + 'static,
) {
    match w.engine.cfg.retry {
        None => {
            w.engine.bcs.fabric.get(sim, node, src_node, bytes, deliver);
        }
        Some(policy) => bcs_core::retry::reliable_get(
            w,
            sim,
            node,
            src_node,
            bytes,
            policy,
            deliver,
            transfer_abort(src_node, what),
        ),
    }
}

/// Abort hook of a reliable transfer: retries exhausted means the endpoint
/// is unreachable — declare it failed so the run driver halts the machine
/// (recovery or clean abort is the caller's decision).
fn transfer_abort(peer: qsnet::NodeId, what: &'static str) -> impl Fn(&mut BW, &mut Sim<BW>) {
    move |w: &mut BW, sim: &mut Sim<BW>| {
        if w.engine.failed.is_none() {
            w.engine.failed = Some(crate::engine::FailureInfo {
                node: peer,
                at: sim.now(),
                reason: format!("{what} aborted after retries"),
            });
        }
    }
}

// PANIC-OK: a chunk arrival event is only scheduled for a message in the
// in-flight table; the entry lives until the final chunk retires it here.
fn chunk_arrived(w: &mut BW, sim: &mut Sim<BW>, node: qsnet::NodeId, slot: XferSlot, chunk: u64) {
    let e = &mut w.engine;
    let nic = e.nic.make_mut(node);
    let item = nic.inflight.get_mut(slot).expect("chunk for unknown match item");
    item.moved += chunk;
    debug_assert!(item.moved <= item.total);
    if item.moved == item.total {
        let item = nic.inflight.remove(slot).expect("chunk for unknown match item");
        let payload = e
            .payloads
            .remove(item.msg)
            .expect("payload vanished before transfer completed");
        e.reqs.deliver(
            item.recv_req,
            payload,
            Status {
                source: item.src_rank,
                tag: item.tag,
                bytes: item.total as usize,
            },
        );
        BcsMpi::complete_req(w, sim, item.recv_req);
        BcsMpi::complete_req(w, sim, item.send_req);
    }
}
