//! [`AsyncMpi`] — the handle a rank program uses.
//!
//! The engine-backed primitives (point-to-point, probe/test/wait, barrier,
//! bcast, reduce/allreduce) each cross to the engine as one [`MpiCall`].
//! Following the paper's Appendix A, the remaining collectives —
//! scatter(v), gather(v), allgather(v), alltoall(v) — are *composed* here
//! from non-blocking point-to-point plus waitall, identically for both
//! engines ("the point-to-point primitives and the basic collective
//! primitives ... are implemented in the NIC while the rest of them are
//! built on top of those").
//!
//! Send data crosses to the engine as a [`Payload`]. The methods that take
//! `&[u8]` copy it once on the way in; everything that already owns its
//! bytes passes them on as they are — the typed helpers the `Vec` they just
//! encoded, `allgatherv*` one shared buffer for all peers, and
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
use crate::comm::{CommHandle, CommId};
use crate::datatype::{self, Datatype, ReduceOp};
use crate::message::{SrcSel, Status, TagSel};
use crate::payload::Payload;
use simcore::{SimDuration, SimTime, VmChannel};
use std::future::Future;
use std::pin::Pin;

/// Base of the tag space reserved for composed collectives. User tags must
/// be non-negative (asserted), so no collision is possible.
const COLL_TAG_BASE: i32 = i32::MIN / 2;
/// Collective sequence numbers wrap well before tag overflow.
const COLL_SEQ_MOD: i32 = 1 << 20;

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
    // Engine-level collectives (NIC-level in BCS-MPI)
    // ------------------------------------------------------------------

    /// MPI_Barrier (world).
    pub async fn barrier(&mut self) {
        self.barrier_on_id(CommId::WORLD).await
    }

    /// MPI_Barrier over a sub-communicator.
    pub async fn barrier_on(&mut self, comm: &CommHandle) {
        self.barrier_on_id(comm.id).await
    }

    async fn barrier_on_id(&mut self, comm: CommId) {
        match self.call(MpiCall::Barrier { comm }).await {
            MpiResp::Ok => {}
            other => unreachable!("barrier -> {other:?}"),
        }
    }

    /// MPI_Bcast: `data` is read on the root, ignored elsewhere; every rank
    /// (including the root) receives the broadcast payload.
    pub async fn bcast(&mut self, root: usize, data: Option<&[u8]>) -> Payload {
        assert!(root < self.size);
        if self.rank == root {
            assert!(data.is_some(), "bcast root must supply data");
        }
        self.bcast_on_id(CommId::WORLD, root, data).await
    }

    /// MPI_Bcast over a sub-communicator; `root` is a communicator rank.
    pub async fn bcast_on(
        &mut self,
        comm: &CommHandle,
        root: usize,
        data: Option<&[u8]>,
    ) -> Payload {
        assert!(root < comm.size());
        if comm.rank == root {
            assert!(data.is_some(), "bcast root must supply data");
        }
        self.bcast_on_id(comm.id, root, data).await
    }

    async fn bcast_on_id(&mut self, comm: CommId, root: usize, data: Option<&[u8]>) -> Payload {
        match self
            .call(MpiCall::Bcast {
                comm,
                root,
                data: data.map(|d| d.into()),
            })
            .await
        {
            MpiResp::Data(d) => d,
            other => unreachable!("bcast -> {other:?}"),
        }
    }

    /// MPI_Reduce: result only on the root.
    pub async fn reduce(
        &mut self,
        root: usize,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
    ) -> Option<Payload> {
        self.reduce_payload(root, op, dtype, data.into()).await
    }

    async fn reduce_payload(
        &mut self,
        root: usize,
        op: ReduceOp,
        dtype: Datatype,
        data: Payload,
    ) -> Option<Payload> {
        assert!(root < self.size);
        match self
            .call(MpiCall::Reduce {
                comm: CommId::WORLD,
                root,
                op,
                dtype,
                data,
                all: false,
            })
            .await
        {
            MpiResp::RootData(d) => d,
            other => unreachable!("reduce -> {other:?}"),
        }
    }

    /// MPI_Allreduce (world).
    pub async fn allreduce(&mut self, op: ReduceOp, dtype: Datatype, data: &[u8]) -> Payload {
        self.allreduce_on_id(CommId::WORLD, op, dtype, data.into()).await
    }

    /// MPI_Allreduce over a sub-communicator.
    pub async fn allreduce_on(
        &mut self,
        comm: &CommHandle,
        op: ReduceOp,
        dtype: Datatype,
        data: &[u8],
    ) -> Payload {
        self.allreduce_on_id(comm.id, op, dtype, data.into()).await
    }

    async fn allreduce_on_id(
        &mut self,
        comm: CommId,
        op: ReduceOp,
        dtype: Datatype,
        data: Payload,
    ) -> Payload {
        match self
            .call(MpiCall::Reduce {
                comm,
                root: 0,
                op,
                dtype,
                data,
                all: true,
            })
            .await
        {
            MpiResp::Data(d) => d,
            other => unreachable!("allreduce -> {other:?}"),
        }
    }

    /// MPI_Comm_split: a collective over `parent` (`None` = world). Pass a
    /// negative `color` for MPI_UNDEFINED (returns `None`). Members of each
    /// color are ordered by `(key, world rank)`.
    pub async fn comm_split(
        &mut self,
        parent: Option<&CommHandle>,
        color: i64,
        key: i64,
    ) -> Option<CommHandle> {
        let parent = parent.map_or(CommId::WORLD, |c| c.id);
        match self.call(MpiCall::CommSplit { parent, color, key }).await {
            MpiResp::CommSplitDone { handle } => handle,
            other => unreachable!("comm_split -> {other:?}"),
        }
    }

    /// MPI_Alltoallv over a sub-communicator: `chunks[i]` goes to the
    /// communicator's rank `i`; returns chunks indexed by communicator rank.
    pub async fn alltoallv_on(&mut self, comm: &CommHandle, chunks: &[Vec<u8>]) -> Vec<Vec<u8>> {
        assert_eq!(chunks.len(), comm.size(), "one chunk per member");
        let (n, me, own) = (comm.size(), comm.rank, chunks[comm.rank].clone());
        self.exchange(n, me, |i| comm.world_rank(i), own, |i| chunks[i].as_slice().into())
            .await
    }

    /// MPI_Allgatherv over a sub-communicator (indexed by communicator rank).
    pub async fn allgatherv_on(&mut self, comm: &CommHandle, data: &[u8]) -> Vec<Vec<u8>> {
        let shared: Payload = data.into();
        self.exchange(comm.size(), comm.rank, |i| comm.world_rank(i), data.to_vec(), |_| shared.clone())
            .await
    }

    /// MPI_Allgatherv as a single engine collective: gathered on the NIC
    /// and broadcast back under the active collective algorithm, instead of
    /// the point-to-point composition of [`AsyncMpi::allgatherv_on`].
    /// Returns every member's contribution by communicator rank.
    pub async fn allgatherv_coll(&mut self, data: &[u8]) -> Vec<Payload> {
        self.allgatherv_coll_on_id(CommId::WORLD, data).await
    }

    /// Engine-collective MPI_Allgatherv over a sub-communicator.
    pub async fn allgatherv_coll_on(&mut self, comm: &CommHandle, data: &[u8]) -> Vec<Payload> {
        self.allgatherv_coll_on_id(comm.id, data).await
    }

    async fn allgatherv_coll_on_id(&mut self, comm: CommId, data: &[u8]) -> Vec<Payload> {
        match self
            .call(MpiCall::Allgatherv {
                comm,
                data: data.into(),
            })
            .await
        {
            MpiResp::Gathered { parts } => parts,
            other => unreachable!("allgatherv -> {other:?}"),
        }
    }

    /// Typed allreduce over a sub-communicator.
    pub async fn allreduce_f64_on(
        &mut self,
        comm: &CommHandle,
        op: ReduceOp,
        xs: &[f64],
    ) -> Vec<f64> {
        let out = self
            .allreduce_on_id(comm.id, op, Datatype::F64, datatype::to_bytes_f64(xs).into())
            .await;
        datatype::from_bytes_f64(&out)
    }

    // ------------------------------------------------------------------
    // Composed collectives (library level, per Appendix A)
    // ------------------------------------------------------------------

    fn next_coll_tag(&mut self) -> i32 {
        let t = COLL_TAG_BASE + self.coll_seq;
        self.coll_seq = (self.coll_seq + 1) % COLL_SEQ_MOD;
        t
    }

    /// All-pairs non-blocking exchange among `n` members, of which this
    /// rank is member `me` and member `i` is world rank `world(i)`:
    /// `chunk(i)` goes to member `i`; returns what every member sent here,
    /// by member, with `own` in this rank's place. All posts (sends first,
    /// then receives — the sequential issue order) cross the harness
    /// boundary in one batch.
    async fn exchange(
        &mut self,
        n: usize,
        me: usize,
        world: impl Fn(usize) -> usize,
        own: Vec<u8>,
        chunk: impl Fn(usize) -> Payload,
    ) -> Vec<Vec<u8>> {
        let tag = self.next_coll_tag();
        let peers = (0..n).filter(|&i| i != me);
        let mut calls = Vec::with_capacity(2 * (n - 1));
        calls.extend(peers.clone().map(|i| Self::isend_call(world(i), tag, chunk(i))));
        calls.extend(
            peers.clone().map(|i| Self::irecv_call(SrcSel::Rank(world(i)), TagSel::Tag(tag))),
        );
        let reqs = self.post_batch(calls).await;
        let (sends, recvs) = reqs.split_at(n - 1);
        let mut out: Vec<Vec<u8>> = vec![Vec::new(); n];
        out[me] = own;
        let results = self.waitall(recvs).await;
        for (i, (payload, _)) in peers.zip(results) {
            out[i] = payload.expect("all-pairs recv payload").into_vec();
        }
        self.waitall(sends).await;
        out
    }

    /// MPI_Scatterv: the root supplies one chunk per rank; every rank
    /// receives its chunk.
    pub async fn scatterv(&mut self, root: usize, chunks: Option<&[Vec<u8>]>) -> Vec<u8> {
        let tag = self.next_coll_tag();
        if self.rank == root {
            let chunks = chunks.expect("scatterv root must supply chunks");
            assert_eq!(chunks.len(), self.size, "one chunk per rank");
            let mut calls = Vec::with_capacity(self.size - 1);
            for (r, chunk) in chunks.iter().enumerate() {
                if r != root {
                    calls.push(Self::isend_call(r, tag, chunk.as_slice()));
                }
            }
            let reqs = self.post_batch(calls).await;
            self.waitall(&reqs).await;
            chunks[root].clone()
        } else {
            let req = self.irecv(SrcSel::Rank(root), TagSel::Tag(tag)).await;
            self.wait_recv(req).await.0.into_vec()
        }
    }

    /// MPI_Scatter: equal-size chunks.
    pub async fn scatter(&mut self, root: usize, chunks: Option<&[Vec<u8>]>) -> Vec<u8> {
        if let Some(cs) = chunks {
            let len0 = cs.first().map_or(0, |c| c.len());
            assert!(
                cs.iter().all(|c| c.len() == len0),
                "scatter requires equal chunk sizes; use scatterv"
            );
        }
        self.scatterv(root, chunks).await
    }

    /// MPI_Gatherv: every rank contributes; the root receives all chunks in
    /// rank order.
    pub async fn gatherv(&mut self, root: usize, data: &[u8]) -> Option<Vec<Vec<u8>>> {
        let tag = self.next_coll_tag();
        if self.rank == root {
            let mut calls = Vec::with_capacity(self.size - 1);
            for r in 0..self.size {
                if r != root {
                    calls.push(Self::irecv_call(SrcSel::Rank(r), TagSel::Tag(tag)));
                }
            }
            let reqs = self.post_batch(calls).await;
            let results = self.waitall(&reqs).await;
            let mut out: Vec<Vec<u8>> = Vec::with_capacity(self.size);
            let mut it = results.into_iter();
            for r in 0..self.size {
                if r == root {
                    out.push(data.to_vec());
                } else {
                    out.push(it.next().unwrap().0.expect("gather recv payload").into_vec());
                }
            }
            Some(out)
        } else {
            let req = self.isend_internal(root, tag, data.into()).await;
            self.wait(req).await;
            None
        }
    }

    /// MPI_Gather (equal sizes enforced at the root).
    pub async fn gather(&mut self, root: usize, data: &[u8]) -> Option<Vec<Vec<u8>>> {
        let out = self.gatherv(root, data).await;
        if let Some(chunks) = &out {
            let len0 = chunks[0].len();
            assert!(
                chunks.iter().all(|c| c.len() == len0),
                "gather requires equal contributions; use gatherv"
            );
        }
        out
    }

    /// MPI_Allgatherv: every rank receives every contribution, in rank
    /// order. All-pairs non-blocking exchange of one shared buffer.
    pub async fn allgatherv(&mut self, data: &[u8]) -> Vec<Vec<u8>> {
        let shared: Payload = data.into();
        self.exchange(self.size, self.rank, |r| r, data.to_vec(), |_| shared.clone()).await
    }

    /// MPI_Allgather (equal sizes).
    pub async fn allgather(&mut self, data: &[u8]) -> Vec<Vec<u8>> {
        let out = self.allgatherv(data).await;
        let len0 = out[0].len();
        assert!(
            out.iter().all(|c| c.len() == len0),
            "allgather requires equal contributions; use allgatherv"
        );
        out
    }

    /// MPI_Alltoallv: `chunks[r]` goes to rank `r`; returns what each rank
    /// sent to us, in rank order.
    pub async fn alltoallv(&mut self, chunks: &[Vec<u8>]) -> Vec<Vec<u8>> {
        assert_eq!(chunks.len(), self.size, "one chunk per destination");
        let (n, me, own) = (self.size, self.rank, chunks[self.rank].clone());
        self.exchange(n, me, |r| r, own, |r| chunks[r].as_slice().into()).await
    }

    /// MPI_Alltoall (equal sizes).
    pub async fn alltoall(&mut self, chunks: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let len0 = chunks.first().map_or(0, |c| c.len());
        assert!(
            chunks.iter().all(|c| c.len() == len0),
            "alltoall requires equal chunk sizes; use alltoallv"
        );
        self.alltoallv(chunks).await
    }

    // ------------------------------------------------------------------
    // Typed conveniences used by the workloads
    // ------------------------------------------------------------------

    /// Allreduce over `f64` values.
    pub async fn allreduce_f64(&mut self, op: ReduceOp, xs: &[f64]) -> Vec<f64> {
        let out = self
            .allreduce_on_id(CommId::WORLD, op, Datatype::F64, datatype::to_bytes_f64(xs).into())
            .await;
        datatype::from_bytes_f64(&out)
    }

    /// Allreduce over `i64` values.
    pub async fn allreduce_i64(&mut self, op: ReduceOp, xs: &[i64]) -> Vec<i64> {
        let out = self
            .allreduce_on_id(CommId::WORLD, op, Datatype::I64, datatype::to_bytes_i64(xs).into())
            .await;
        datatype::from_bytes_i64(&out)
    }

    /// Reduce over `f64` values (result on root only).
    pub async fn reduce_f64(&mut self, root: usize, op: ReduceOp, xs: &[f64]) -> Option<Vec<f64>> {
        self.reduce_payload(root, op, Datatype::F64, datatype::to_bytes_f64(xs).into())
            .await
            .map(|b| datatype::from_bytes_f64(&b))
    }

    /// Send a typed `f64` slice.
    pub async fn send_f64(&mut self, dest: usize, tag: i32, xs: &[f64]) {
        self.send_payload(dest, tag, datatype::to_bytes_f64(xs).into()).await;
    }

    /// Blocking receive of a typed `f64` slice from an exact source.
    pub async fn recv_f64(&mut self, src: usize, tag: i32) -> Vec<f64> {
        datatype::from_bytes_f64(&self.recv_from(src, tag).await)
    }

    /// Non-blocking send of a typed `f64` slice.
    pub async fn isend_f64(&mut self, dest: usize, tag: i32, xs: &[f64]) -> ReqId {
        self.check_send("isend", dest, tag);
        self.isend_internal(dest, tag, datatype::to_bytes_f64(xs).into()).await
    }
}
