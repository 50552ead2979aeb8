//! Communicator (MPI group) tests — the functionality the paper's §4.5
//! lists as unimplemented, now working on both engines.

use bcs_repro::apps::runner::{RunSpec, run_app};
use bcs_repro::mpi_api::datatype::ReduceOp;
use bcs_repro::mpi_api::runtime::JobLayout;
use bcs_repro::mpi_api::{AsyncMpi, RankProgram};

fn both<P>(ranks: usize, f: P) -> (Vec<P::Out>, Vec<P::Out>)
where
    P: RankProgram + Copy,
{
    let layout = JobLayout::crescendo(ranks);
    let b = run_app(&RunSpec::bcs(), layout.clone(), f);
    let q = run_app(&RunSpec::quadrics(), layout, f);
    (b.results, q.results)
}

#[test]
fn split_by_parity_and_scoped_allreduce() {
    let prog = |mut mpi: AsyncMpi| async move {
        let me = mpi.rank();
        let comm = mpi.comm_split(None, (me % 2) as i64, me as i64).await.unwrap();
        // Sum of ranks within my parity class only.
        let s = mpi.allreduce_f64_on(&comm, ReduceOp::Sum, &[me as f64]).await[0];
        // Barrier scoped to the subgroup must not deadlock against the
        // other subgroup's collectives.
        mpi.barrier_on(&comm).await;
        (comm.rank, comm.size(), s as i64)
    };
    let (b, q) = both(10, prog);
    assert_eq!(b, q);
    for (r, &(local, size, sum)) in b.iter().enumerate() {
        assert_eq!(size, 5);
        assert_eq!(local, r / 2);
        let expect: i64 = (0..10i64).filter(|x| x % 2 == (r % 2) as i64).sum();
        assert_eq!(sum, expect, "rank {r}");
    }
}

#[test]
fn scoped_bcast_uses_comm_ranks() {
    let prog = |mut mpi: AsyncMpi| async move {
        let me = mpi.rank();
        // Two halves; root is comm-rank 1 (world rank 1 resp. n/2+1).
        let half = (me >= mpi.size() / 2) as i64;
        let comm = mpi.comm_split(None, half, 0).await.unwrap();
        let payload = (comm.rank == 1).then(|| vec![half as u8 + 10; 32]);
        let d = mpi.bcast_on(&comm, 1, payload.as_deref()).await;
        d[0]
    };
    let (b, q) = both(8, prog);
    assert_eq!(b, q);
    for (r, &v) in b.iter().enumerate() {
        assert_eq!(v, if r < 4 { 10 } else { 11 }, "rank {r}");
    }
}

#[test]
fn concurrent_subgroup_collectives_do_not_interfere() {
    // Odd and even groups run different numbers of collectives at their own
    // pace: no cross-group blocking may occur.
    let prog = |mut mpi: AsyncMpi| async move {
        let me = mpi.rank();
        let comm = mpi.comm_split(None, (me % 2) as i64, 0).await.unwrap();
        let rounds = if me % 2 == 0 { 6 } else { 2 };
        let mut acc = 0.0;
        for k in 0..rounds {
            acc = mpi.allreduce_f64_on(&comm, ReduceOp::Sum, &[k as f64 + me as f64]).await[0];
        }
        acc.to_bits()
    };
    let (b, q) = both(8, prog);
    assert_eq!(b, q);
}

#[test]
fn undefined_color_opts_out() {
    let prog = |mut mpi: AsyncMpi| async move {
        let me = mpi.rank();
        // Rank 0 opts out with a negative color.
        let color = if me == 0 { -1 } else { 1 };
        let comm = mpi.comm_split(None, color, 0).await;
        match comm {
            None => {
                assert_eq!(me, 0);
                -1i64
            }
            Some(c) => {
                assert_eq!(c.size(), mpi.size() - 1);
                mpi.allreduce_f64_on(&c, ReduceOp::Sum, &[1.0]).await[0] as i64
            }
        }
    };
    let (b, q) = both(6, prog);
    assert_eq!(b, q);
    assert_eq!(b[0], -1);
    assert!(b[1..].iter().all(|&v| v == 5));
}

#[test]
fn nested_splits_row_then_pairs() {
    let prog = |mut mpi: AsyncMpi| async move {
        let me = mpi.rank();
        let row = mpi.comm_split(None, (me / 4) as i64, 0).await.unwrap();
        // Split each row into pairs.
        let pair = mpi
            .comm_split(Some(&row), (row.rank / 2) as i64, 0)
            .await
            .unwrap();
        let s = mpi.allreduce_f64_on(&pair, ReduceOp::Sum, &[me as f64]).await[0];
        (pair.size(), s as i64)
    };
    let (b, q) = both(8, prog);
    assert_eq!(b, q);
    for (r, &(sz, sum)) in b.iter().enumerate() {
        assert_eq!(sz, 2);
        let partner = if r % 2 == 0 { r + 1 } else { r - 1 };
        assert_eq!(sum, (r + partner) as i64, "rank {r}");
    }
}

#[test]
fn ft_kernel_class_runs_on_62_ranks() {
    use bcs_repro::apps::npb::ft;
    let layout = JobLayout::crescendo(62);
    let out = run_app(
        &RunSpec::quadrics(),
        layout,
        ft::ft_bench(ft::FtCfg::test()),
    );
    assert!(out.results.windows(2).all(|w| w[0] == w[1]));
}
