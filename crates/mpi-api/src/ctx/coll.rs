//! The collectives of [`AsyncMpi`]: the engine primitives (barrier,
//! bcast, reduce/allreduce, comm_split — NIC-level in BCS-MPI),
//! each one [`MpiCall`], and the collectives composed from non-blocking
//! point-to-point plus waitall, identically for both engines, as the
//! paper's Appendix A prescribes.

use super::AsyncMpi;
use crate::call::{MpiCall, MpiResp};
use crate::comm::{CommHandle, CommId};
use crate::datatype::{self, Datatype, ReduceOp};
use crate::message::{SrcSel, TagSel};
use crate::payload::Payload;

/// Base of the tag space reserved for composed collectives. User tags must
/// be non-negative (asserted), so no collision is possible.
const COLL_TAG_BASE: i32 = i32::MIN / 2;
/// Collective sequence numbers wrap well before tag overflow.
const COLL_SEQ_MOD: i32 = 1 << 20;

impl AsyncMpi {
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
    // Typed collective conveniences used by the workloads
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
}
