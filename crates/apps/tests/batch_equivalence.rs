//! Property: the batched harness handoff is unobservable in virtual time.
//!
//! [`mpi_api::AsyncMpi::batch`] promises that a batch of calls is fed to the
//! engine at the exact virtual instants a sequential caller would have
//! issued them, so per-rank results *and* the job's elapsed virtual time
//! must be bit-identical between the batched and unbatched forms of the
//! same program — on both engines. The generated programs exercise every
//! batchable call kind: compute, barrier, isend/irecv posts, and a
//! waitall over requests posted before the batch.

use apps::runner::{RunSpec, run_app};
use mpi_api::message::{SrcSel, TagSel};
use mpi_api::runtime::JobLayout;
use mpi_api::{AsyncMpi, MpiResp, RankProgram};
use proplite::prelude::*;
use simcore::SimDuration;

/// One randomized bulk-synchronous schedule.
#[derive(Clone, Copy, Debug)]
struct Script {
    ranks: usize,
    iters: u64,
    granularity_us: u32,
    msg_bytes: usize,
    /// Ring neighbours messaged per iteration (always < ranks).
    fanout: usize,
    /// Whether each iteration globally synchronizes after computing.
    barrier: bool,
}

fn checksum_of(results: &[(Option<mpi_api::Payload>, Option<mpi_api::Status>)], fanout: usize) -> u64 {
    let mut c = 0u64;
    for (data, _) in &results[fanout..] {
        let d = data.as_ref().expect("recv payload");
        c = c
            .wrapping_mul(31)
            .wrapping_add(d[0] as u64)
            .wrapping_add(d[d.len() - 1] as u64);
    }
    c
}

/// The schedule issued one call at a time.
fn unbatched(s: Script) -> impl RankProgram<Out = u64> {
    move |mut mpi: AsyncMpi| async move {
        let (me, n) = (mpi.rank(), mpi.size());
        let payload: Vec<u8> = (0..s.msg_bytes).map(|i| (me + i) as u8).collect();
        let mut checksum = 0u64;
        for it in 0..s.iters {
            mpi.compute(SimDuration::micros(s.granularity_us as u64)).await;
            if s.barrier {
                mpi.barrier().await;
            }
            let tag = it as i32;
            let mut reqs = Vec::new();
            for o in 1..=s.fanout {
                reqs.push(mpi.isend((me + o) % n, tag, &payload).await);
            }
            for o in 1..=s.fanout {
                reqs.push(mpi.irecv(SrcSel::Rank((me + n - o) % n), TagSel::Tag(tag)).await);
            }
            let results = mpi.waitall(&reqs).await;
            checksum = checksum.wrapping_mul(1021).wrapping_add(checksum_of(&results, s.fanout));
        }
        checksum
    }
}

/// The same schedule with each iteration's calls folded into one
/// [`mpi_api::AsyncMpi::batch`] handoff (the previous iteration's waitall
/// rides in the next batch, like `apps::synthetic::neighbor_loop`).
fn batched(s: Script) -> impl RankProgram<Out = u64> {
    move |mut mpi: AsyncMpi| async move {
        let (me, n) = (mpi.rank(), mpi.size());
        let payload: Vec<u8> = (0..s.msg_bytes).map(|i| (me + i) as u8).collect();
        let mut checksum = 0u64;
        for it in 0..s.iters {
            let tag = it as i32;
            let mut calls = Vec::new();
            calls.push(mpi.compute_desc(SimDuration::micros(s.granularity_us as u64)));
            if s.barrier {
                calls.push(mpi.barrier_desc());
            }
            for o in 1..=s.fanout {
                calls.push(mpi.isend_desc((me + o) % n, tag, &payload[..]));
            }
            for o in 1..=s.fanout {
                calls.push(mpi.irecv_desc(SrcSel::Rank((me + n - o) % n), TagSel::Tag(tag)));
            }
            let resps = mpi.batch(calls).await;
            let posts = resps.len() - 2 * s.fanout;
            assert!(resps[..posts].iter().all(|r| matches!(r, MpiResp::Ok)));
            let reqs: Vec<_> = resps[posts..]
                .iter()
                .map(|r| match r {
                    MpiResp::Req(id) => *id,
                    other => unreachable!("batched post -> {other:?}"),
                })
                .collect();
            let results = mpi.waitall(&reqs).await;
            checksum = checksum.wrapping_mul(1021).wrapping_add(checksum_of(&results, s.fanout));
        }
        checksum
    }
}

fn layouts(ranks: usize) -> JobLayout {
    JobLayout::new(ranks.div_ceil(2), 2, ranks)
}

proplite! {
    #![config(cases = 24)]
    #[test]
    fn batched_handoff_is_timing_and_result_identical(
        ranks in 3usize..9,
        iters in 1u64..4,
        granularity_us in 1u32..400,
        msg_bytes in 1usize..600,
        fanout in 1usize..3,
        barrier in any::<bool>()
    ) {
        let s = Script { ranks, iters, granularity_us, msg_bytes, fanout, barrier };
        for spec in [RunSpec::bcs(), RunSpec::quadrics()] {
            let a = run_app(&spec, layouts(s.ranks), unbatched(s));
            let b = run_app(&spec, layouts(s.ranks), batched(s));
            prop_assert_eq!(&a.results, &b.results, "{spec}: batching changed a result");
            prop_assert_eq!(a.elapsed, b.elapsed, "{spec}: batching moved virtual time");
        }
    }
}
