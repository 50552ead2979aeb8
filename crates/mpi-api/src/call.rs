//! The rank ⇄ engine protocol.
//!
//! Every MPI primitive a rank program invokes crosses to the engine as one
//! [`MpiCall`] and returns as one [`MpiResp`]. The calls mirror the BCS API
//! of the paper's Appendix A (`bcs_send`, `bcs_recv`, `bcs_probe`,
//! `bcs_test`, `bcs_testall`, `bcs_barrier`, `bcs_bcast`, `bcs_reduce`);
//! the higher-level collectives (scatter/gather/allgather/
//! alltoall and their vector forms) are composed from these in
//! [`crate::ctx`], matching the paper's layering.

use crate::comm::{CommHandle, CommId};
use crate::datatype::{Datatype, ReduceOp};
use crate::message::{SrcSel, Status, TagSel};
use crate::payload::Payload;

/// Identifier of a pending non-blocking operation (`BCS_Request`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReqId(pub u64);

impl From<u64> for ReqId {
    fn from(id: u64) -> ReqId {
        ReqId(id)
    }
}

impl From<ReqId> for u64 {
    fn from(id: ReqId) -> u64 {
        id.0
    }
}

/// A request from a rank program to its MPI engine. `Clone` so an
/// in-flight [`MpiCall::Batch`]'s unissued sub-calls can be captured in a
/// checkpoint image (`runtime::BatchState`).
#[derive(Clone, Debug)]
pub enum MpiCall {
    /// Spend `ns` of virtual CPU time (the application's computation).
    Compute { ns: u64 },
    /// Read the virtual clock.
    Now,
    /// `bcs_send`: post a send descriptor. `blocking` selects
    /// `MPI_Send` vs `MPI_Isend`.
    Send {
        dest: usize,
        tag: i32,
        data: Payload,
        blocking: bool,
    },
    /// `bcs_recv`: post a receive descriptor. `blocking` selects
    /// `MPI_Recv` vs `MPI_Irecv`.
    Recv {
        src: SrcSel,
        tag: TagSel,
        blocking: bool,
    },
    /// `bcs_test(blocking)`: `MPI_Wait`.
    Wait { req: ReqId },
    /// `bcs_test(non-blocking)`: `MPI_Test`.
    Test { req: ReqId },
    /// `bcs_testall(blocking)`: `MPI_Waitall`.
    Waitall { reqs: Vec<ReqId> },
    /// `bcs_testall(non-blocking)`: `MPI_Testall`.
    Testall { reqs: Vec<ReqId> },
    /// `bcs_probe`: `MPI_Probe` (blocking) / `MPI_Iprobe`.
    Probe {
        src: SrcSel,
        tag: TagSel,
        blocking: bool,
    },
    /// `bcs_barrier`: `MPI_Barrier` over a communicator.
    Barrier { comm: CommId },
    /// `bcs_bcast`: `MPI_Bcast`. `data` is `Some` only on the root; `root`
    /// is a communicator rank.
    Bcast {
        comm: CommId,
        root: usize,
        data: Option<Payload>,
    },
    /// `bcs_reduce`: `MPI_Reduce` (`all = false`) / `MPI_Allreduce`
    /// (`all = true`); `root` is a communicator rank.
    Reduce {
        comm: CommId,
        root: usize,
        op: ReduceOp,
        dtype: Datatype,
        data: Payload,
        all: bool,
    },
    /// `MPI_Comm_split` over `parent` (a collective; `color < 0` =
    /// MPI_UNDEFINED).
    CommSplit {
        parent: CommId,
        color: i64,
        key: i64,
    },
    /// A batch of calls (see [`MpiCall::is_batchable`]) issued in one
    /// harness handoff. The runtime feeds the sub-calls to the engine one
    /// at a time — each at the exact virtual instant the rank would have
    /// issued it unbatched — and resumes the rank once with
    /// [`MpiResp::Batch`], so a rank issuing k operations back-to-back
    /// pays one OS-thread round trip instead of k. Engines never see this
    /// variant.
    Batch { calls: Vec<MpiCall> },
}

/// Response from the engine to a rank program. `Clone` so a checkpoint
/// image can hold the completions not yet delivered at its capture (see
/// `runtime::RuntimeImage`), `PartialEq` so a restore that takes over a
/// halted run's ranks can check what it re-delivers against what was
/// logged (`runtime::Job::ranks`). The log itself keeps responses in a
/// flat form of its own (`runtime::ResponseLog`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MpiResp {
    /// Generic completion (Compute, blocking Send, Barrier, ...).
    Ok,
    /// Virtual time in nanoseconds.
    Time(u64),
    /// Handle of a freshly posted non-blocking operation.
    Req(ReqId),
    /// Blocking receive / bcast / allreduce completion carrying a payload.
    Data(Payload),
    /// Reduce completion: payload only on the root.
    RootData(Option<Payload>),
    /// Wait completion: receive payload (None for sends) + status.
    WaitDone {
        data: Option<Payload>,
        status: Option<Status>,
    },
    /// Waitall completion: one entry per request, in the order requested.
    WaitallDone {
        results: Vec<(Option<Payload>, Option<Status>)>,
    },
    /// MPI_Test outcome: `None` = not yet complete.
    TestDone {
        result: Option<(Option<Payload>, Option<Status>)>,
    },
    /// MPI_Testall outcome: `None` = not all complete (nothing consumed).
    TestallDone {
        results: Option<Vec<(Option<Payload>, Option<Status>)>>,
    },
    /// Probe outcome: `None` only for a non-blocking probe that found
    /// nothing.
    ProbeDone { status: Option<Status> },
    /// Comm-split outcome: `None` when this rank passed MPI_UNDEFINED.
    CommSplitDone { handle: Option<CommHandle> },
    /// Responses to a [`MpiCall::Batch`], one per sub-call, in issue order.
    Batch { resps: Vec<MpiResp> },
}

impl MpiCall {
    /// Short operation name for diagnostics.
    pub fn op_name(&self) -> &'static str {
        match self {
            MpiCall::Compute { .. } => "compute",
            MpiCall::Now => "now",
            MpiCall::Send { blocking: true, .. } => "send",
            MpiCall::Send { blocking: false, .. } => "isend",
            MpiCall::Recv { blocking: true, .. } => "recv",
            MpiCall::Recv { blocking: false, .. } => "irecv",
            MpiCall::Wait { .. } => "wait",
            MpiCall::Test { .. } => "test",
            MpiCall::Waitall { .. } => "waitall",
            MpiCall::Testall { .. } => "testall",
            MpiCall::Probe { .. } => "probe",
            MpiCall::Barrier { .. } => "barrier",
            MpiCall::Bcast { .. } => "bcast",
            MpiCall::Reduce { all: false, .. } => "reduce",
            MpiCall::Reduce { all: true, .. } => "allreduce",
            MpiCall::CommSplit { .. } => "comm_split",
            MpiCall::Batch { .. } => "batch",
        }
    }

    /// Visit the payload of every point-to-point send this call posts — its
    /// own, or a batch's sub-calls' in issue order: the one walk over a
    /// call's payloads. A recording runtime stamps them, a restore that
    /// takes over a halted run's ranks checks their stamps, a full replay
    /// harvests them (`runtime`).
    pub fn for_each_send_payload(&mut self, f: &mut impl FnMut(&mut Payload)) {
        match self {
            MpiCall::Send { data, .. } => f(data),
            MpiCall::Batch { calls } => calls.iter_mut().for_each(|c| c.for_each_send_payload(f)),
            MpiCall::Compute { .. }
            | MpiCall::Now
            | MpiCall::Recv { .. }
            | MpiCall::Wait { .. }
            | MpiCall::Test { .. }
            | MpiCall::Waitall { .. }
            | MpiCall::Testall { .. }
            | MpiCall::Probe { .. }
            | MpiCall::Barrier { .. }
            | MpiCall::Bcast { .. }
            | MpiCall::Reduce { .. }
            | MpiCall::CommSplit { .. } => {}
        }
    }

    /// Whether the call is a non-blocking post answered by exactly one
    /// [`MpiResp::Req`] — what [`crate::ctx::AsyncMpi::post_batch`] accepts.
    pub fn is_nonblocking_post(&self) -> bool {
        matches!(
            self,
            MpiCall::Send { blocking: false, .. } | MpiCall::Recv { blocking: false, .. }
        )
    }

    /// Whether the call is legal inside a [`MpiCall::Batch`].
    ///
    /// The requirement is that the *program* cannot need the call's response
    /// to construct the next sub-call — the runtime issues sub-call *i+1*
    /// the instant response *i* arrives, sight unseen. That rules out calls
    /// whose responses carry handles later sub-calls would reference
    /// (wait/test on a request posted earlier in the same batch cannot be
    /// expressed, since `ReqId`s are engine-allocated) and admits compute,
    /// sends, non-blocking receive posts, barrier, and waitall over
    /// requests posted *before* the batch. Blocking members simply delay
    /// the *following* sub-call to their completion instant — exactly as
    /// an unbatched caller would be delayed — so virtual timing is
    /// unchanged.
    pub fn is_batchable(&self) -> bool {
        matches!(
            self,
            MpiCall::Compute { .. }
                | MpiCall::Send { .. }
                | MpiCall::Recv { blocking: false, .. }
                | MpiCall::Barrier { .. }
                | MpiCall::Waitall { .. }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_names() {
        assert_eq!(
            MpiCall::Send {
                dest: 0,
                tag: 0,
                data: Payload::empty(),
                blocking: true
            }
            .op_name(),
            "send"
        );
        assert_eq!(
            MpiCall::Send {
                dest: 0,
                tag: 0,
                data: Payload::empty(),
                blocking: false
            }
            .op_name(),
            "isend"
        );
        assert_eq!(
            MpiCall::Reduce {
                comm: CommId::WORLD,
                root: 0,
                op: ReduceOp::Sum,
                dtype: Datatype::F64,
                data: Payload::empty(),
                all: true
            }
            .op_name(),
            "allreduce"
        );
        assert_eq!(MpiCall::Barrier { comm: CommId::WORLD }.op_name(), "barrier");
    }
}
