//! [`AsyncMpi`] — the handle a rank program uses.
//!
//! The engine-backed primitives (point-to-point, probe/test/wait, barrier,
//! bcast, reduce/allreduce) each cross to the engine as one [`MpiCall`].
//! Following the paper's Appendix A, the remaining collectives —
//! scatterv, gatherv, allgather(v), alltoall(v) — are *composed*
//! (beside the engine collectives, in the `coll` submodule) from
//! non-blocking point-to-point plus waitall, identically for both
//! engines ("the point-to-point primitives and the basic collective
//! primitives ... are implemented in the NIC while the rest of them are
//! built on top of those").
//!
//! Send data crosses to the engine as a [`Payload`]. The methods that take
//! `&[u8]` copy it once on the way in; everything that already owns its
//! bytes passes them on as they are — the typed helpers the `Vec` they just
//! encoded, `allgatherv` one shared buffer for all peers, and
//! [`AsyncMpi::isend_desc`] whatever `Into<Payload>` the program hands it,
//! so a buffer kept as a `Payload` is posted by reference count. Receive
//! data comes back the same way: every receive returns the `Payload` the
//! engine delivered, so no call on the receive path copies it; only the
//! composed collectives whose result is an owned `Vec<u8>` take the bytes
//! out ([`Payload::into_vec`]).
//!
//! Every `async` method suspends at each engine handoff: awaiting a call on
//! the rank's [`simcore::VmChannel`] parks its state machine
//! (`Poll::Pending`) until the runtime delivers the response.

use crate::call::{MpiCall, MpiResp, ReqId};
use crate::comm::CommId;
use crate::datatype;
use crate::message::{SrcSel, Status, TagSel};
use crate::payload::Payload;
use simcore::{SimDuration, SimTime, VmChannel};
use std::future::Future;
use std::pin::Pin;

mod coll;

/// A rank program as data: booted once per rank into a stackless state
/// machine (a future) that the runtime steps through the [`MpiCall`] /
/// [`MpiResp`] protocol. The same program value boots every rank of a job.
///
/// Any `Fn(AsyncMpi) -> impl Future` closure is a `RankProgram` via the
/// blanket impl; write programs as
/// `move |mut mpi: AsyncMpi| async move { ... }`.
pub trait RankProgram: Send + Sync + 'static {
    /// Per-rank result type.
    type Out: Send + 'static;

    /// Instantiate this program for one rank.
    fn boot(&self, mpi: AsyncMpi) -> Pin<Box<dyn Future<Output = Self::Out>>>;
}

impl<F, Fut> RankProgram for F
where
    F: Fn(AsyncMpi) -> Fut + Send + Sync + 'static,
    Fut: Future + 'static,
    Fut::Output: Send + 'static,
{
    type Out = Fut::Output;

    fn boot(&self, mpi: AsyncMpi) -> Pin<Box<dyn Future<Output = Self::Out>>> {
        Box::pin(self(mpi))
    }
}

/// MPI context of one simulated rank.
pub struct AsyncMpi {
    chan: VmChannel<MpiCall, MpiResp>,
    rank: usize,
    size: usize,
    coll_seq: i32,
}

impl AsyncMpi {
    /// Context issuing its calls on `chan`, the channel the rank's future is
    /// spawned with ([`simcore::VmHarness::spawn`]).
    pub fn new(chan: VmChannel<MpiCall, MpiResp>, rank: usize, size: usize) -> AsyncMpi {
        AsyncMpi {
            chan,
            rank,
            size,
            coll_seq: 0,
        }
    }

    /// This process's rank in the job.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the job (MPI_COMM_WORLD size).
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    async fn call(&mut self, call: MpiCall) -> MpiResp {
        self.chan.call(call).await
    }

    /// Post several non-blocking operations (isend/irecv) in **one**
    /// harness handoff, returning their request handles in issue order.
    ///
    /// The runtime unpacks the batch and feeds each sub-call to the engine
    /// at the exact virtual instant a sequential caller would have issued
    /// it, so results and timing are identical to k separate calls — the
    /// rank just pays one harness round trip instead of k. The composed
    /// collectives below route their post loops through this.
    pub async fn post_batch(&mut self, calls: Vec<MpiCall>) -> Vec<ReqId> {
        assert!(
            calls.iter().all(MpiCall::is_nonblocking_post),
            "post_batch accepts only non-blocking posts"
        );
        self.batch(calls)
            .await
            .into_iter()
            .map(|resp| match resp {
                MpiResp::Req(r) => r,
                other => unreachable!("batched post -> {other:?}"),
            })
            .collect()
    }

    /// Issue several batchable calls (see [`MpiCall::is_batchable`]) in
    /// **one** harness handoff, returning the responses in issue order.
    ///
    /// Blocking members (compute, send, barrier) delay the following
    /// sub-call to their completion instant, exactly as they would delay an
    /// unbatched caller, so virtual timing is identical; the rank regains
    /// control once all sub-calls have completed.
    pub async fn batch(&mut self, mut calls: Vec<MpiCall>) -> Vec<MpiResp> {
        assert!(
            calls.iter().all(MpiCall::is_batchable),
            "batch accepts only batchable calls (see MpiCall::is_batchable)"
        );
        match calls.len() {
            0 => Vec::new(),
            1 => vec![self.call(calls.pop().expect("len checked")).await],
            _ => match self.call(MpiCall::Batch { calls }).await {
                MpiResp::Batch { resps } => resps,
                other => unreachable!("batch -> {other:?}"),
            },
        }
    }

    /// Compute for `d`, then barrier over MPI_COMM_WORLD, in one harness
    /// handoff — the bulk-synchronous inner loop as a single harness
    /// round trip. Timing-identical to `compute(d); barrier()`.
    pub async fn compute_then_barrier(&mut self, d: SimDuration) {
        let resps = self
            .batch(vec![
                MpiCall::Compute { ns: d.as_nanos() },
                MpiCall::Barrier {
                    comm: CommId::WORLD,
                },
            ])
            .await;
        debug_assert!(
            resps.iter().all(|r| matches!(r, MpiResp::Ok)),
            "compute/barrier -> {resps:?}"
        );
    }

    /// Build a `Compute` descriptor for [`Self::batch`].
    pub fn compute_desc(&self, d: SimDuration) -> MpiCall {
        MpiCall::Compute { ns: d.as_nanos() }
    }

    /// Build an `MPI_Barrier` (MPI_COMM_WORLD) descriptor for
    /// [`Self::batch`].
    pub fn barrier_desc(&self) -> MpiCall {
        MpiCall::Barrier {
            comm: CommId::WORLD,
        }
    }

    /// Build an `MPI_Waitall` descriptor for [`Self::batch`]. The requests
    /// must have been posted *before* the batch is issued (a batch cannot
    /// wait on its own posts — their `ReqId`s don't exist yet).
    pub fn waitall_desc(&self, reqs: &[ReqId]) -> MpiCall {
        MpiCall::Waitall {
            reqs: reqs.to_vec(),
        }
    }

    /// Build an `MPI_Isend` descriptor for [`Self::post_batch`], with the
    /// same argument checks as [`Self::isend`]. A `Vec<u8>` or a [`Payload`]
    /// is sent as it is — a program that posts one buffer many times keeps
    /// it as a `Payload` and passes clones — while a `&[u8]` is copied once.
    pub fn isend_desc(&self, dest: usize, tag: i32, data: impl Into<Payload>) -> MpiCall {
        self.check_send("isend", dest, tag);
        Self::isend_call(dest, tag, data)
    }

    /// Build an `MPI_Irecv` descriptor for [`Self::post_batch`].
    pub fn irecv_desc(&self, src: SrcSel, tag: TagSel) -> MpiCall {
        Self::irecv_call(src, tag)
    }

    fn check_send(&self, op: &str, dest: usize, tag: i32) {
        assert!(tag >= 0, "user tags must be non-negative");
        assert!(dest < self.size, "{op} to rank {dest} of {}", self.size);
    }

    fn isend_call(dest: usize, tag: i32, data: impl Into<Payload>) -> MpiCall {
        MpiCall::Send {
            dest,
            tag,
            data: data.into(),
            blocking: false,
        }
    }

    fn irecv_call(src: SrcSel, tag: TagSel) -> MpiCall {
        MpiCall::Recv {
            src,
            tag,
            blocking: false,
        }
    }

    // ------------------------------------------------------------------
    // Time
    // ------------------------------------------------------------------

    /// Spend `d` of virtual CPU time computing.
    pub async fn compute(&mut self, d: SimDuration) {
        match self.call(MpiCall::Compute { ns: d.as_nanos() }).await {
            MpiResp::Ok => {}
            other => unreachable!("compute -> {other:?}"),
        }
    }

    /// Current virtual time (MPI_Wtime).
    pub async fn now(&mut self) -> SimTime {
        match self.call(MpiCall::Now).await {
            MpiResp::Time(ns) => SimTime(ns),
            other => unreachable!("now -> {other:?}"),
        }
    }

    // ------------------------------------------------------------------
    // Point-to-point
    // ------------------------------------------------------------------

    /// MPI_Send (blocking).
    pub async fn send(&mut self, dest: usize, tag: i32, data: &[u8]) {
        self.send_payload(dest, tag, data.into()).await
    }

    async fn send_payload(&mut self, dest: usize, tag: i32, data: Payload) {
        self.check_send("send", dest, tag);
        match self
            .call(MpiCall::Send {
                dest,
                tag,
                data,
                blocking: true,
            })
            .await
        {
            MpiResp::Ok => {}
            other => unreachable!("send -> {other:?}"),
        }
    }

    /// MPI_Isend (non-blocking).
    pub async fn isend(&mut self, dest: usize, tag: i32, data: &[u8]) -> ReqId {
        self.check_send("isend", dest, tag);
        self.isend_internal(dest, tag, data.into()).await
    }

    async fn isend_internal(&mut self, dest: usize, tag: i32, data: Payload) -> ReqId {
        match self.call(Self::isend_call(dest, tag, data)).await {
            MpiResp::Req(r) => r,
            other => unreachable!("isend -> {other:?}"),
        }
    }

    /// MPI_Recv (blocking). Returns the delivered payload and its status.
    pub async fn recv(&mut self, src: SrcSel, tag: TagSel) -> (Payload, Status) {
        match self
            .call(MpiCall::Recv {
                src,
                tag,
                blocking: true,
            })
            .await
        {
            MpiResp::WaitDone {
                data: Some(d),
                status: Some(s),
            } => (d, s),
            other => unreachable!("recv -> {other:?}"),
        }
    }

    /// Blocking receive from an exact source/tag (the common case).
    pub async fn recv_from(&mut self, src: usize, tag: i32) -> Payload {
        self.recv(SrcSel::Rank(src), TagSel::Tag(tag)).await.0
    }

    /// MPI_Sendrecv: simultaneous exchange without deadlock risk — the
    /// receive is pre-posted, the send is non-blocking, and both complete
    /// before returning.
    pub async fn sendrecv(
        &mut self,
        dest: usize,
        send_tag: i32,
        data: &[u8],
        src: SrcSel,
        recv_tag: TagSel,
    ) -> (Vec<u8>, Status) {
        self.check_send("sendrecv", dest, send_tag);
        let reqs = self
            .post_batch(vec![
                Self::irecv_call(src, recv_tag),
                Self::isend_call(dest, send_tag, data),
            ])
            .await;
        let mut results = self.waitall(&reqs).await;
        let (payload, status) = results.swap_remove(0);
        (
            payload.expect("sendrecv recv payload").into_vec(),
            status.expect("sendrecv recv status"),
        )
    }

    /// MPI_Irecv (non-blocking).
    pub async fn irecv(&mut self, src: SrcSel, tag: TagSel) -> ReqId {
        match self
            .call(MpiCall::Recv {
                src,
                tag,
                blocking: false,
            })
            .await
        {
            MpiResp::Req(r) => r,
            other => unreachable!("irecv -> {other:?}"),
        }
    }

    /// MPI_Wait: returns the receive payload (None for a send request).
    pub async fn wait(&mut self, req: ReqId) -> (Option<Payload>, Option<Status>) {
        match self.call(MpiCall::Wait { req }).await {
            MpiResp::WaitDone { data, status } => (data, status),
            other => unreachable!("wait -> {other:?}"),
        }
    }

    /// Wait on a receive request, unwrapping the payload.
    pub async fn wait_recv(&mut self, req: ReqId) -> (Payload, Status) {
        let (d, s) = self.wait(req).await;
        (
            d.expect("wait_recv on a send request"),
            s.expect("receive completion must carry a status"),
        )
    }

    /// MPI_Test: `None` if the request is still in flight.
    pub async fn test(&mut self, req: ReqId) -> Option<(Option<Payload>, Option<Status>)> {
        match self.call(MpiCall::Test { req }).await {
            MpiResp::TestDone { result } => result,
            other => unreachable!("test -> {other:?}"),
        }
    }

    /// MPI_Waitall: results in the order of `reqs`, as the engine delivered
    /// them.
    pub async fn waitall(&mut self, reqs: &[ReqId]) -> Vec<(Option<Payload>, Option<Status>)> {
        if reqs.is_empty() {
            return vec![];
        }
        match self
            .call(MpiCall::Waitall {
                reqs: reqs.to_vec(),
            })
            .await
        {
            MpiResp::WaitallDone { results } => results,
            other => unreachable!("waitall -> {other:?}"),
        }
    }

    /// MPI_Testall: `None` (and nothing consumed) unless all complete.
    pub async fn testall(
        &mut self,
        reqs: &[ReqId],
    ) -> Option<Vec<(Option<Payload>, Option<Status>)>> {
        match self
            .call(MpiCall::Testall {
                reqs: reqs.to_vec(),
            })
            .await
        {
            MpiResp::TestallDone { results } => results,
            other => unreachable!("testall -> {other:?}"),
        }
    }

    /// MPI_Probe (blocking): status of the first matching message.
    pub async fn probe(&mut self, src: SrcSel, tag: TagSel) -> Status {
        match self
            .call(MpiCall::Probe {
                src,
                tag,
                blocking: true,
            })
            .await
        {
            MpiResp::ProbeDone { status: Some(s) } => s,
            other => unreachable!("probe -> {other:?}"),
        }
    }

    /// MPI_Iprobe: `None` if no matching message has arrived.
    pub async fn iprobe(&mut self, src: SrcSel, tag: TagSel) -> Option<Status> {
        match self
            .call(MpiCall::Probe {
                src,
                tag,
                blocking: false,
            })
            .await
        {
            MpiResp::ProbeDone { status } => status,
            other => unreachable!("iprobe -> {other:?}"),
        }
    }

    // ------------------------------------------------------------------
    // Typed point-to-point conveniences used by the workloads
    // ------------------------------------------------------------------

    /// Send a typed `f64` slice.
    pub async fn send_f64(&mut self, dest: usize, tag: i32, xs: &[f64]) {
        self.send_payload(dest, tag, datatype::to_bytes_f64(xs).into()).await;
    }

    /// Blocking receive of a typed `f64` slice from an exact source.
    pub async fn recv_f64(&mut self, src: usize, tag: i32) -> Vec<f64> {
        datatype::from_bytes_f64(&self.recv_from(src, tag).await)
    }
}
