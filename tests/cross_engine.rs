//! Cross-engine integration tests: the same MPI program must produce
//! bit-identical *results* on BCS-MPI and on the baseline — only timing may
//! differ. This is the repository's strongest correctness check, because
//! the two engines share no protocol code.

use bcs_repro::apps::npb::{cg, ep, is, lu, mg};
use bcs_repro::apps::runner::{RunSpec, run_app};
use bcs_repro::apps::{sage, sweep3d, synthetic};
use bcs_repro::mpi_api::datatype::ReduceOp;
use bcs_repro::mpi_api::message::{SrcSel, TagSel};
use bcs_repro::mpi_api::runtime::JobLayout;
use bcs_repro::mpi_api::{AsyncMpi, RankProgram};
use bcs_repro::simcore::SimDuration;

fn both<P, G>(ranks: usize, make: G) -> (Vec<P::Out>, Vec<P::Out>)
where
    P: RankProgram,
    G: Fn() -> P,
{
    let layout = JobLayout::crescendo(ranks);
    let b = run_app(&RunSpec::bcs(), layout.clone(), make());
    let q = run_app(&RunSpec::quadrics(), layout, make());
    (b.results, q.results)
}

#[test]
fn every_workload_is_engine_invariant() {
    let (b, q) = both(8, || is::is_bench(is::IsCfg::test()));
    assert_eq!(b, q, "IS");
    let (b, q) = both(8, || ep::ep_bench(ep::EpCfg::test()));
    assert_eq!(b, q, "EP");
    let (b, q) = both(8, || cg::cg_bench(cg::CgCfg::test()));
    assert_eq!(b, q, "CG");
    let (b, q) = both(8, || mg::mg_bench(mg::MgCfg::test()));
    assert_eq!(b, q, "MG");
    let (b, q) = both(8, || lu::lu_bench(lu::LuCfg::test()));
    assert_eq!(b, q, "LU");
    let (b, q) = both(8, || sage::sage_bench(sage::SageCfg::test()));
    assert_eq!(b, q, "SAGE");
    for v in [sweep3d::SweepVariant::Blocking, sweep3d::SweepVariant::NonBlocking] {
        let (b, q) = both(8, || sweep3d::sweep3d_bench(sweep3d::SweepCfg::test(v)));
        assert_eq!(b, q, "SWEEP3D {v:?}");
    }
    let (b, q) = both(8, || {
        synthetic::neighbor_loop(synthetic::NeighborLoopCfg::paper(SimDuration::millis(1), 3))
    });
    assert_eq!(b, q, "neighbor loop");
}

#[test]
fn mixed_wildcard_traffic_is_engine_invariant() {
    // A stress pattern with ANY_SOURCE receives, mixed tags and message
    // sizes: both engines must deliver the same multiset per (src, tag)
    // channel, respecting non-overtaking within each channel.
    let program = |mut mpi: AsyncMpi| async move {
        let me = mpi.rank();
        let n = mpi.size();
        if me == 0 {
            let expect = (n - 1) * 3;
            let mut per_channel: std::collections::BTreeMap<(usize, i32), Vec<usize>> =
                Default::default();
            for _ in 0..expect {
                let (data, st) = mpi.recv(SrcSel::Any, TagSel::Any).await;
                per_channel
                    .entry((st.source, st.tag))
                    .or_default()
                    .push(data.len());
            }
            // Non-overtaking: per (src, tag) channel sizes arrive in
            // sending order (1, 2, 3 multiples).
            for ((src, _tag), sizes) in &per_channel {
                let sorted: Vec<usize> = {
                    let mut s = sizes.clone();
                    s.sort_unstable();
                    s
                };
                assert_eq!(sizes, &sorted, "overtaking from {src}");
            }
            per_channel.len()
        } else {
            for k in 1..=3usize {
                let tag = (me % 3) as i32;
                mpi.send(0, tag, &vec![me as u8; k * me]).await;
            }
            0
        }
    };
    let (b, q) = both(8, || program);
    assert_eq!(b, q);
    assert_eq!(b[0], 7, "one channel per sender");
}

#[test]
fn collectives_chain_is_engine_invariant() {
    let program = |mut mpi: AsyncMpi| async move {
        let me = mpi.rank() as i64;
        let mut acc: Vec<u64> = Vec::new();
        for round in 0..4i64 {
            let s = mpi.allreduce_i64(ReduceOp::Sum, &[me + round]).await[0];
            acc.push(s as u64);
            let mx = mpi
                .allreduce_f64(ReduceOp::Max, &[me as f64 * 0.5 + round as f64])
                .await[0];
            acc.push(mx.to_bits());
            mpi.barrier().await;
            let root = (round as usize) % mpi.size();
            let payload = (mpi.rank() == root).then(|| vec![round as u8; 64]);
            let b = mpi.bcast(root, payload.as_deref()).await;
            acc.push(b.iter().map(|&x| x as u64).sum());
        }
        acc
    };
    let (b, q) = both(10, || program);
    assert_eq!(b, q);
}

#[test]
fn large_transfers_are_engine_invariant() {
    // 512 KiB messages: rendezvous on the baseline, multi-slice chunking on
    // BCS-MPI — the payload must survive both paths intact.
    let program = |mut mpi: AsyncMpi| async move {
        let me = mpi.rank();
        let n = mpi.size();
        let sz = 512 * 1024;
        let peer = (me + n / 2) % n;
        let pattern: Vec<u8> = (0..sz).map(|i| ((i * 31 + me * 7) % 251) as u8).collect();
        let s = mpi.isend(peer, 9, &pattern).await;
        let r = mpi.irecv(SrcSel::Rank((me + n - n / 2) % n), TagSel::Tag(9)).await;
        let results = mpi.waitall(&[s, r]).await;
        let got = results[1].0.as_ref().unwrap();
        let from = (me + n - n / 2) % n;
        let want: Vec<u8> = (0..sz).map(|i| ((i * 31 + from * 7) % 251) as u8).collect();
        assert_eq!(got, &want);
        got.iter().map(|&b| b as u64).sum::<u64>()
    };
    let (b, q) = both(4, || program);
    assert_eq!(b, q);
}
