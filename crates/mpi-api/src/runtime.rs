//! The cluster runtime: the engine seam, the world, and the job driver.
//!
//! One simulation = one [`ClusterWorld`] (the engine plus the rank harness)
//! driven by one [`simcore::Sim`]. Each rank is a stackless state machine
//! ([`simcore::VmHarness`]) stepped in place by the drain loop. No OS
//! threads, no per-rank stacks: n = 4096 ranks cost 4096 heap-allocated
//! futures, so job size is bounded by memory, not by the host's thread
//! limit.
//!
//! An engine supplies only its protocol ([`Protocol`], [`Engine`]). The
//! rest lives once, in four parts: `world` — the one match over every
//! call a rank yields (the request arms, batches, the parked-call
//! bookkeeping) and the handoff back to the rank; `log` — the replay
//! log's flat record format; `record` — what a recording run logs and
//! tapes, [`RuntimeImage`], and the two ways a restore rebuilds the ranks;
//! `job` — [`Job`], a run described once as a value and then started
//! ([`run_program`] is its shorthand), its outcome and the stuck-rank
//! report.
//!
//! Every call is answered immediately or later by a scheduled resume.
//! Resuming a rank yields its next call, which may be answered
//! immediately, which resumes the rank again, and so on: completions
//! therefore go through a queue ([`ClusterWorld::resume`]) drained at the
//! top level ([`drain`]) rather than recursing.

mod job;
mod log;
mod record;
mod world;

pub use job::{Job, RunOutcome, RunResult, run_program};
pub use log::ResponseLog;
pub use record::{Delivery, LiveRanks, RuntimeImage};
pub use world::{BatchState, ClusterWorld, drain, resume_at, resume_req_at};

use crate::comm::CommId;
use crate::message::{SrcSel, Status, TagSel};
use crate::payload::Payload;
use crate::request::ReqTable;
use crate::round::CollCall;
use qsnet::NodeId;
use simcore::{Sim, SimDuration};

/// Placement of an MPI job on the simulated cluster.
#[derive(Clone, Debug)]
pub struct JobLayout {
    /// Number of compute nodes (the management node, if the engine uses one,
    /// is extra).
    pub compute_nodes: usize,
    /// Processors per node (the paper's cluster has two P-III per node).
    pub cpus_per_node: usize,
    /// Number of MPI ranks; ranks are block-distributed
    /// (`node = rank / cpus_per_node`).
    pub ranks: usize,
}

impl JobLayout {
    pub fn new(compute_nodes: usize, cpus_per_node: usize, ranks: usize) -> JobLayout {
        assert!(ranks >= 1, "job needs at least one rank");
        assert!(
            ranks <= compute_nodes * cpus_per_node,
            "{ranks} ranks do not fit on {compute_nodes} nodes x {cpus_per_node} cpus"
        );
        JobLayout {
            compute_nodes,
            cpus_per_node,
            ranks,
        }
    }

    /// The crescendo cluster of the paper: 32 compute nodes, 2 CPUs each.
    pub fn crescendo(ranks: usize) -> JobLayout {
        JobLayout::new(32, 2, ranks)
    }

    /// Compute node hosting `rank`.
    #[inline]
    pub fn node_of(&self, rank: usize) -> NodeId {
        NodeId(rank / self.cpus_per_node)
    }

    /// Number of nodes actually occupied by the job.
    pub fn nodes_used(&self) -> usize {
        self.ranks.div_ceil(self.cpus_per_node)
    }

    /// Ranks hosted on `node`, in rank order.
    pub fn ranks_on(&self, node: NodeId) -> std::ops::Range<usize> {
        let lo = (node.0 * self.cpus_per_node).min(self.ranks);
        lo..(lo + self.cpus_per_node).min(self.ranks)
    }
}

type W<E> = ClusterWorld<E>;
type S<E> = Sim<ClusterWorld<E>>;

/// An MPI implementation's protocol. Each primitive from `compute` on is
/// named after the [`MpiCall`](crate::call::MpiCall) it carries and
/// answers it, via [`ClusterWorld::resume`] or [`resume_at`], at once or
/// from an event it schedules, with the response the matching
/// [`crate::ctx::AsyncMpi`] method expects.
///
/// The rest is not here: `now`, `wait`, `waitall`, `test`, `testall` and a
/// probe's answer are given by the runtime, the same on every engine, from
/// [`Self::reqs`] and [`Self::probe_match`]. The engine posts a request in
/// its table when it opens one and completes it there
/// ([`ReqTable::complete`]), resuming the owner it wakes, when its protocol
/// is done with it.
pub trait Protocol: Sized + 'static {
    /// The engine's open requests and the conditions its ranks wait on.
    fn reqs(&mut self) -> &mut ReqTable;

    /// What answering a call from what the engine already holds costs the
    /// rank — a `wait`/`waitall` whose condition holds, a `probe` that
    /// finds its message: `None` answers it in place, `Some(d)` `d` later,
    /// by an event.
    fn answer_cost(&self) -> Option<SimDuration> {
        None
    }

    /// `probe`: the status of the first message `rank` could receive from
    /// `src` with `tag` now.
    fn probe_match(&self, rank: usize, src: SrcSel, tag: TagSel) -> Option<Status>;

    /// A blocking `probe` found nothing: answer `ProbeDone` once a message
    /// it matches is there.
    fn park_probe(&mut self, rank: usize, src: SrcSel, tag: TagSel);

    fn compute(w: &mut W<Self>, sim: &mut S<Self>, rank: usize, ns: u64);
    fn post_send(w: &mut W<Self>, sim: &mut S<Self>, rank: usize, dest: usize, tag: i32, data: Payload, blocking: bool);
    fn post_recv(w: &mut W<Self>, sim: &mut S<Self>, rank: usize, src: SrcSel, tag: TagSel, blocking: bool);
    /// A barrier, broadcast, reduce or allreduce: join `rank`'s round of
    /// `call`'s kind on `comm` ([`crate::round::Round::join`]) and answer
    /// with the closed round's response for it.
    fn collective(w: &mut W<Self>, sim: &mut S<Self>, rank: usize, comm: CommId, call: CollCall);
    fn comm_split(w: &mut W<Self>, sim: &mut S<Self>, rank: usize, parent: CommId, color: i64, key: i64);
}

/// An MPI implementation: its [`Protocol`], and how a job starts, stops
/// and explains itself.
pub trait Engine: Protocol {
    /// Start protocol machinery (strobe loops, daemons) before any rank runs.
    fn bootstrap(w: &mut W<Self>, sim: &mut S<Self>);

    /// Diagnostic dump of in-flight state, used in deadlock reports.
    fn describe_pending(&self) -> String {
        String::new()
    }

    /// True when the machine has declared itself failed and the run should
    /// stop (e.g. a node death detected by the heartbeat monitor). Checked
    /// by the driver after every event.
    fn halted(_w: &W<Self>) -> bool {
        false
    }
}

#[cfg(test)]
mod tests;
