//! What the generator does not reach, stated once and run on both engines:
//! wildcard source *and* tag, test and iprobe, sendrecv, one-rank jobs,
//! zero-length and composed collectives, communicator splits, the 62-rank
//! machine; request and collective misuse, each of which must end in one
//! diagnostic on both engines; and the application kernels, each on a cell
//! of its own.

use super::cells;
use bcs_repro::apps::npb::{cg, ep, ft, is, lu, mg};
use bcs_repro::apps::runner::{RunSpec, run_app};
use bcs_repro::apps::{sage, sweep3d, synthetic};
use bcs_repro::mpi_api::datatype::{Datatype, ReduceOp};
use bcs_repro::mpi_api::message::{SrcSel, TagSel};
use bcs_repro::mpi_api::runtime::JobLayout;
use bcs_repro::mpi_api::{AsyncMpi, RankProgram, ReqId};
use bcs_repro::simcore::SimDuration;
use std::fmt::Debug;
use std::panic::{AssertUnwindSafe, catch_unwind};

/// `make()`'s per-rank results on BCS-MPI, which Quadrics MPI must repeat.
fn on_both<P: RankProgram>(layout: JobLayout, make: impl Fn() -> P) -> Vec<P::Out>
where
    P::Out: PartialEq + Debug,
{
    let [b, q] = [RunSpec::bcs(), RunSpec::quadrics()].map(|spec| run_app(&spec, layout.clone(), make()).results);
    assert_eq!(b, q, "the engines disagree");
    b
}

#[test]
fn point_to_point_semantics_hold_on_both_engines() {
    // Any source and any tag: each source's messages, zero-byte ones
    // included, arrive in the order it sent them.
    let got = on_both(JobLayout::crescendo(8), || {
        |mut mpi: AsyncMpi| async move {
            let (me, n) = (mpi.rank(), mpi.size());
            if me > 0 {
                for (k, tag) in [10, 20, 10].into_iter().enumerate() {
                    mpi.send(0, tag, &vec![me as u8; (me - 1) * (k + 1)]).await;
                }
                return Vec::new();
            }
            assert!(mpi.iprobe(SrcSel::Any, TagSel::Any).await.is_none(), "nothing has arrived yet");
            let mut from = Vec::new();
            for _ in 0..3 * (n - 1) {
                let (data, st) = mpi.recv(SrcSel::Any, TagSel::Any).await;
                assert_eq!(data.len(), st.bytes);
                from.push((st.source, st.tag, data.len()));
            }
            from.sort_by_key(|m| m.0);
            from
        }
    });
    let want: Vec<_> = (1..8).flat_map(|s| [(s, 10, s - 1), (s, 20, 2 * (s - 1)), (s, 10, 3 * (s - 1))]).collect();
    assert_eq!(got[0], want);

    // A test before the message lands finds nothing; a probe sees a
    // message that another posted receive does not match, and leaves it to
    // be received.
    on_both(JobLayout::new(2, 1, 2), || {
        |mut mpi: AsyncMpi| async move {
            if mpi.rank() == 1 {
                mpi.compute(SimDuration::millis(1)).await;
                mpi.send(0, 2, &[2u8; 2]).await;
                mpi.send(0, 4, &[4u8; 4]).await;
                return;
            }
            let r = mpi.irecv(SrcSel::Rank(1), TagSel::Tag(2)).await;
            assert!(mpi.test(r).await.is_none(), "nothing arrived yet");
            let st = mpi.probe(SrcSel::Rank(1), TagSel::Tag(4)).await;
            assert_eq!(st.bytes, 4);
            assert_eq!(mpi.wait_recv(r).await.0, vec![2u8; 2]);
            let st = mpi.probe(SrcSel::Rank(1), TagSel::Any).await;
            assert_eq!((st.tag, mpi.recv_from(1, 4).await.to_vec()), (4, vec![4u8; 4]));
        }
    });

    // A sendrecv ring does not deadlock, and a rank talks to itself — in a
    // one-rank job too.
    for layout in [JobLayout::new(1, 1, 1), JobLayout::new(4, 2, 8)] {
        on_both(layout, || {
            |mut mpi: AsyncMpi| async move {
                let (me, n) = (mpi.rank(), mpi.size());
                let (right, left) = ((me + 1) % n, (me + n - 1) % n);
                let (data, st) = mpi.sendrecv(right, 5, &[me as u8; 16], SrcSel::Rank(left), TagSel::Tag(5)).await;
                assert_eq!((st.source, data), (left, vec![left as u8; 16]));
                let s = mpi.isend(me, 9, b"self").await;
                assert_eq!(mpi.recv_from(me, 9).await, b"self");
                mpi.wait(s).await;
            }
        });
    }
}

#[test]
fn collective_semantics_hold_on_both_engines() {
    // The paper's full machine: NIC reductions agree bit for bit with the
    // host-side tree.
    let got = on_both(JobLayout::crescendo(62), || {
        |mut mpi: AsyncMpi| async move {
            let me = mpi.rank();
            mpi.barrier().await;
            let sum = mpi.allreduce_i64(ReduceOp::Sum, &[me as i64]).await[0];
            let x = ((me % 16) as f64 * 0.7371 - 3.3).exp() * if me.is_multiple_of(2) { 1.0 } else { -1.0 };
            let bits: Vec<u64> = mpi.allreduce_f64(ReduceOp::Sum, &[x, 1.5]).await.iter().map(|v| v.to_bits()).collect();
            let bc = mpi.bcast(5, (me == 5).then(|| vec![9u8; 256]).as_deref()).await;
            let max = mpi.reduce_f64(0, ReduceOp::Max, &[me as f64 * 1.5]).await;
            assert_eq!((sum, bc.to_vec(), max), (61 * 62 / 2, vec![9u8; 256], (me == 0).then(|| vec![61.0 * 1.5])));
            bits
        }
    });
    assert!(got.windows(2).all(|w| w[0] == w[1]));

    // On a partly filled machine: bitwise, rooted and zero-length
    // reductions, and the collectives composed from point-to-point.
    on_both(JobLayout::new(4, 2, 7), || {
        |mut mpi: AsyncMpi| async move {
            let (me, n) = (mpi.rank(), mpi.size());
            let or = mpi.allreduce_i64(ReduceOp::BOr, &[1 << me]).await;
            let and = mpi.allreduce_i64(ReduceOp::BAnd, &[!0, 0b1111 << me]).await;
            assert_eq!((or, and), (vec![(1 << n) - 1], vec![!0, 0]));
            let bc = mpi.bcast(2, (me == 2).then(|| vec![42u8; 1000]).as_deref()).await;
            assert_eq!(bc, vec![42u8; 1000]);
            let x = [me as f64 + 1.0, 2.0 * me as f64];
            let m = n as f64;
            let sum = mpi.reduce_f64(3, ReduceOp::Sum, &x).await;
            assert_eq!(sum, (me == 3).then(|| vec![m * (m + 1.0) / 2.0, m * (m - 1.0)]));
            assert_eq!(mpi.allreduce_f64(ReduceOp::Max, &x).await, vec![m, 2.0 * (m - 1.0)]);
            assert!(mpi.allreduce(ReduceOp::Sum, Datatype::F64, &[]).await.is_empty());
            let dealt = |r: usize| vec![r as u8; r + 1];
            let chunks = (me == 0).then(|| (0..n).map(dealt).collect::<Vec<_>>());
            let mine = mpi.scatterv(0, chunks.as_deref()).await;
            assert_eq!(mine, dealt(me));
            assert_eq!(mpi.gatherv(3, &mine).await, (me == 3).then(|| (0..n).map(dealt).collect()));
            assert_eq!(mpi.allgather(&[me as u8]).await, (0..n).map(|r| vec![r as u8]).collect::<Vec<_>>());
            let send: Vec<Vec<u8>> = (0..n).map(|d| vec![(me * 16 + d) as u8]).collect();
            assert_eq!(mpi.alltoall(&send).await, (0..n).map(|s| vec![(s * 16 + me) as u8]).collect::<Vec<_>>());
        }
    });

    // Communicators: ranks follow the key, groups run different numbers of
    // collectives at their own pace, roots are communicator ranks, splits
    // nest, and a negative color opts out.
    on_both(JobLayout::crescendo(8), || {
        |mut mpi: AsyncMpi| async move {
            let me = mpi.rank();
            let parity = mpi.comm_split(None, (me % 2) as i64, me as i64).await.expect("member");
            assert_eq!((parity.rank, parity.size()), (me / 2, 4));
            let s = mpi.allreduce_f64_on(&parity, ReduceOp::Sum, &[me as f64]).await[0];
            assert_eq!(s as usize, (0..8).filter(|x| x % 2 == me % 2).sum::<usize>());
            mpi.barrier_on(&parity).await;
            let mut acc = 0.0;
            for k in 0..if me.is_multiple_of(2) { 6 } else { 2 } {
                acc = mpi.allreduce_f64_on(&parity, ReduceOp::Sum, &[k as f64 + me as f64]).await[0];
            }
            let upper = (me >= 4) as u8;
            let half = mpi.comm_split(None, upper as i64, 0).await.expect("member");
            let d = mpi.bcast_on(&half, 1, (half.rank == 1).then(|| vec![10 + upper; 32]).as_deref()).await;
            assert_eq!(d, vec![10 + upper; 32]);
            let row = mpi.comm_split(None, (me / 4) as i64, 0).await.expect("member");
            let pair = mpi.comm_split(Some(&row), (row.rank / 2) as i64, 0).await.expect("member");
            let s = mpi.allreduce_f64_on(&pair, ReduceOp::Sum, &[me as f64]).await[0];
            assert_eq!((pair.size(), s as usize), (2, me + (me ^ 1)));
            let rest = mpi.comm_split(None, if me == 0 { -1 } else { 1 }, 0).await;
            let count = match rest {
                None => 0.0,
                Some(c) => mpi.allreduce_f64_on(&c, ReduceOp::Sum, &[1.0]).await[0],
            };
            assert_eq!(count, if me == 0 { 0.0 } else { 7.0 });
            acc.to_bits()
        }
    });
}

/// Request misuse `case` by rank 0 (rank 1 in case 2). Each of the four
/// calls that take program-supplied ids — waitall, test, wait, testall —
/// names itself in the diagnostic.
async fn misuse(mut mpi: AsyncMpi, case: usize) {
    match (case, mpi.rank()) {
        (0, 0) => {
            let r = mpi.isend(1, 0, &[1u8; 8]).await;
            mpi.waitall(&[r, r]).await;
        }
        (1, 0) => {
            let r = mpi.isend(1, 0, &[1u8; 8]).await;
            mpi.wait(r).await;
            mpi.test(r).await;
        }
        (1, 1) => drop(mpi.recv_from(0, 0).await),
        (2, 0) => drop(mpi.isend(1, 0, &[1u8; 8]).await),
        (2, 1) => {
            mpi.compute(SimDuration::millis(1)).await;
            mpi.wait(ReqId(0)).await;
        }
        (3, 0) => drop(mpi.wait(ReqId(7)).await),
        (4, 0) => {
            let r = mpi.isend(1, 0, &[1u8; 8]).await;
            mpi.testall(&[r, r]).await;
        }
        _ => {}
    }
}

/// Request misuse ends in the shared lifecycle diagnostic — rank, call,
/// request, virtual time — on both engines, never in a hang.
#[test]
fn request_misuse_is_diagnosed_on_both_engines() {
    let diagnostics = [
        ("rank 0 called waitall at t=", "on ReqId(0), which appears twice in the request list"),
        ("rank 0 called test at t=", "on ReqId(0), which is already retired"),
        ("rank 1 called wait at t=", "on ReqId(0), which belongs to rank 0"),
        ("rank 0 called wait at t=0ns", "on ReqId(7), which was never posted"),
        ("rank 0 called testall at t=", "on ReqId(0), which appears twice in the request list"),
    ];
    for (case, (who, what)) in diagnostics.into_iter().enumerate() {
        for spec in [RunSpec::bcs(), RunSpec::quadrics()] {
            let run = || run_app(&spec, JobLayout::new(2, 1, 2), move |mpi: AsyncMpi| misuse(mpi, case));
            let Err(err) = catch_unwind(AssertUnwindSafe(run)) else { panic!("{spec}, misuse {case}: not diagnosed") };
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains(who) && msg.contains(what), "{spec}, misuse {case}: {msg}");
        }
    }
}

/// Collective misuse `case`: rank 0 opens a round at t = 0 and rank 1 joins
/// it a millisecond later with a call that differs in kind (a reduce
/// against an allreduce, which share a round), root, operator or element
/// type.
async fn collective_misuse(mut mpi: AsyncMpi, case: usize) {
    let me = mpi.rank();
    if me == 1 {
        mpi.compute(SimDuration::millis(1)).await;
    }
    let data = [0u8; 8];
    match (case, me) {
        (0, 0) => drop(mpi.reduce(0, ReduceOp::Sum, Datatype::F64, &data).await),
        (0, _) => drop(mpi.allreduce(ReduceOp::Sum, Datatype::F64, &data).await),
        (1, _) => drop(mpi.bcast(me, Some(&data)).await),
        (2, _) => drop(mpi.allreduce([ReduceOp::Sum, ReduceOp::Max][me], Datatype::F64, &data).await),
        _ => drop(mpi.allreduce(ReduceOp::Sum, [Datatype::F64, Datatype::I64][me], &data).await),
    }
}

/// A member whose collective differs from the round it joins ends the run
/// in one diagnostic on both engines — rank, call, virtual time and what
/// differs — never in a hang or a result. Calls of kinds with different
/// slots (a barrier against a bcast) never meet in one round: that stays a
/// deadlock report, and is not a row here.
#[test]
fn collective_misuse_is_diagnosed_on_both_engines() {
    let diagnostics = [
        ("rank 1 called allreduce at t=", "a mismatched collective: kind allreduce where the round it joins has reduce"),
        ("rank 1 called bcast at t=", "a mismatched collective: root 1 where the round it joins has 0"),
        ("rank 1 called allreduce at t=", "a mismatched collective: op Max where the round it joins has Sum"),
        ("rank 1 called allreduce at t=", "a mismatched collective: dtype I64 where the round it joins has F64"),
    ];
    for (case, (who, what)) in diagnostics.into_iter().enumerate() {
        for spec in [RunSpec::bcs(), RunSpec::quadrics()] {
            let run = || run_app(&spec, JobLayout::new(2, 1, 2), move |mpi: AsyncMpi| collective_misuse(mpi, case));
            let Err(err) = catch_unwind(AssertUnwindSafe(run)) else { panic!("{spec}, collective misuse {case}: not diagnosed") };
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains(who) && msg.contains(what), "{spec}, collective misuse {case}: {msg}");
        }
    }
}

/// `make()` on cell `k` of a spread over the lattice repeats Quadrics MPI's
/// results.
fn agrees<P: RankProgram>(k: usize, name: &str, make: impl Fn() -> P)
where
    P::Out: PartialEq + Debug,
{
    let cell = &cells()[(7 * k + 3) % 30];
    let reference = run_app(&RunSpec::quadrics(), JobLayout::crescendo(8), make()).results;
    assert_eq!(run_app(cell, JobLayout::crescendo(8), make()).results, reference, "{name} on {cell}");
}

#[test]
fn application_kernels_agree_on_a_spread_of_cells() {
    agrees(0, "IS", || is::is_bench(is::IsCfg::test()));
    agrees(1, "EP", || ep::ep_bench(ep::EpCfg::test()));
    agrees(2, "CG", || cg::cg_bench(cg::CgCfg::test()));
    agrees(3, "MG", || mg::mg_bench(mg::MgCfg::test()));
    agrees(4, "LU", || lu::lu_bench(lu::LuCfg::test()));
    agrees(5, "FT", || ft::ft_bench(ft::FtCfg::test()));
    agrees(6, "SAGE", || sage::sage_bench(sage::SageCfg::test()));
    for (k, v) in [(7, sweep3d::SweepVariant::Blocking), (8, sweep3d::SweepVariant::NonBlocking)] {
        agrees(k, "SWEEP3D", || sweep3d::sweep3d_bench(sweep3d::SweepCfg::test(v)));
    }
    agrees(9, "neighbour loop", || synthetic::neighbor_loop(synthetic::NeighborLoopCfg::paper(SimDuration::millis(1), 3)));
}
