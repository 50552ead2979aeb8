//! End-to-end tests of the baseline engine: real rank programs executed on
//! the runtime over the simulated fabric.

use mpi_api::AsyncMpi;
use mpi_api::datatype::{Datatype, ReduceOp};
use mpi_api::message::{SrcSel, TagSel};
use mpi_api::runtime::{JobLayout, run_program};
use quadrics_mpi::{QuadricsConfig, QuadricsMpi};
use simcore::SimDuration;

fn engine(layout: &JobLayout) -> QuadricsMpi {
    QuadricsMpi::new(QuadricsConfig::default(), layout)
}

#[test]
fn two_rank_ping_pong_latency() {
    let layout = JobLayout::new(2, 1, 2);
    let out = run_program(engine(&layout), layout, |mut mpi: AsyncMpi| async move {
        let iters = 100u64;
        let t0 = mpi.now().await;
        for _ in 0..iters {
            if mpi.rank() == 0 {
                mpi.send(1, 7, &[0u8; 8]).await;
                mpi.recv_from(1, 8).await;
            } else {
                let m = mpi.recv_from(0, 7).await;
                assert_eq!(m.len(), 8);
                mpi.send(0, 8, &[0u8; 8]).await;
            }
        }
        let rtt = mpi.now().await.since(t0).as_micros_f64() / iters as f64;
        rtt / 2.0 // one-way latency
    });
    let lat = out.results[0];
    // Quadrics Elan3 MPI small-message latency ~5 µs.
    assert!(
        (2.0..9.0).contains(&lat),
        "baseline small-message latency {lat:.2}us out of Elan3 range"
    );
}

#[test]
fn large_message_bandwidth_near_link_rate() {
    let layout = JobLayout::new(2, 1, 2);
    let mb = 4 * 1024 * 1024usize;
    let out = run_program(engine(&layout), layout, move |mut mpi: AsyncMpi| async move {
        let t0 = mpi.now().await;
        if mpi.rank() == 0 {
            mpi.send(1, 1, &vec![7u8; mb]).await;
        } else {
            let d = mpi.recv_from(0, 1).await;
            assert_eq!(d.len(), mb);
            assert!(d.iter().all(|&b| b == 7));
        }
        mpi.barrier().await;
        mpi.now().await.since(t0).as_secs_f64()
    });
    let bw = mb as f64 / out.results[1] / 1e6; // MB/s
    assert!(
        (200.0..330.0).contains(&bw),
        "rendezvous bandwidth {bw:.0} MB/s not near the 320 MB/s link"
    );
}

#[test]
fn eager_send_completes_before_recv_is_posted() {
    // The whole point of the eager protocol: a small send is buffered at the
    // receiver and the sender does not block.
    let layout = JobLayout::new(2, 1, 2);
    let out = run_program(engine(&layout), layout, |mut mpi: AsyncMpi| async move {
        if mpi.rank() == 0 {
            let t0 = mpi.now().await;
            mpi.send(1, 1, b"hello").await;
            let blocked_for = mpi.now().await.since(t0);
            blocked_for.as_micros_f64()
        } else {
            mpi.compute(SimDuration::millis(50)).await; // receiver is late
            let d = mpi.recv_from(0, 1).await;
            assert_eq!(&d, b"hello");
            0.0
        }
    });
    assert!(
        out.results[0] < 100.0,
        "eager send blocked {}us",
        out.results[0]
    );
    let e = out.engine;
    assert_eq!(e.stats.eager_msgs, 1);
    assert_eq!(e.stats.rndv_msgs, 0);
    assert_eq!(e.stats.unexpected_hits, 1);
}

#[test]
fn rendezvous_send_blocks_until_receiver_arrives() {
    let layout = JobLayout::new(2, 1, 2);
    let big = 256 * 1024usize; // above the 32 KiB eager threshold
    let out = run_program(engine(&layout), layout, move |mut mpi: AsyncMpi| async move {
        if mpi.rank() == 0 {
            let t0 = mpi.now().await;
            mpi.send(1, 1, &vec![1u8; big]).await;
            mpi.now().await.since(t0).as_millis_f64()
        } else {
            mpi.compute(SimDuration::millis(20)).await;
            let d = mpi.recv_from(0, 1).await;
            assert_eq!(d.len(), big);
            0.0
        }
    });
    assert!(
        out.results[0] >= 20.0,
        "rendezvous send returned after {}ms, before receiver posted",
        out.results[0]
    );
    assert_eq!(out.engine.stats.rndv_msgs, 1);
}

#[test]
fn wildcard_receive_any_source_any_tag() {
    let layout = JobLayout::new(4, 1, 4);
    let out = run_program(engine(&layout), layout, |mut mpi: AsyncMpi| async move {
        if mpi.rank() == 0 {
            let mut seen = vec![];
            for _ in 0..3 {
                let (data, st) = mpi.recv(SrcSel::Any, TagSel::Any).await;
                assert_eq!(data.len() as i32, st.tag); // payload length encodes tag
                seen.push(st.source);
            }
            seen.sort_unstable();
            seen
        } else {
            let r = mpi.rank();
            mpi.compute(SimDuration::micros(10 * r as u64)).await;
            mpi.send(0, r as i32, &vec![0u8; r]).await;
            vec![]
        }
    });
    assert_eq!(out.results[0], vec![1, 2, 3]);
}

#[test]
fn non_overtaking_between_one_pair() {
    let layout = JobLayout::new(2, 1, 2);
    let out = run_program(engine(&layout), layout, |mut mpi: AsyncMpi| async move {
        if mpi.rank() == 0 {
            for i in 0..10u8 {
                mpi.send(1, 5, &[i]).await;
            }
            vec![]
        } else {
            let mut got = Vec::new();
            for _ in 0..10 {
                got.push(mpi.recv_from(0, 5).await[0]);
            }
            got
        }
    });
    assert_eq!(out.results[1], (0..10).collect::<Vec<u8>>());
}

#[test]
fn isend_irecv_waitall_overlap_with_compute() {
    let layout = JobLayout::new(2, 1, 2);
    let out = run_program(engine(&layout), layout, |mut mpi: AsyncMpi| async move {
        let peer = 1 - mpi.rank();
        let t0 = mpi.now().await;
        let s = mpi.isend(peer, 3, &[9u8; 1024]).await;
        let r = mpi.irecv(SrcSel::Rank(peer), TagSel::Tag(3)).await;
        mpi.compute(SimDuration::millis(10)).await;
        let results = mpi.waitall(&[s, r]).await;
        assert!(results[0].0.is_none(), "send carries no payload");
        assert_eq!(results[1].0.as_ref().unwrap().len(), 1024);
        mpi.now().await.since(t0).as_millis_f64()
    });
    // Communication fully overlapped: elapsed ≈ compute time.
    for r in &out.results {
        assert!(
            *r < 10.5,
            "non-blocking exchange failed to overlap: {r:.2}ms"
        );
    }
}

#[test]
fn test_and_probe() {
    let layout = JobLayout::new(2, 1, 2);
    run_program(engine(&layout), layout, |mut mpi: AsyncMpi| async move {
        if mpi.rank() == 0 {
            // Nothing sent yet: iprobe must come up empty.
            assert!(mpi.iprobe(SrcSel::Any, TagSel::Any).await.is_none());
            let r = mpi.irecv(SrcSel::Rank(1), TagSel::Tag(2)).await;
            assert!(mpi.test(r).await.is_none(), "nothing arrived yet");
            // Blocking probe for the second message (tag 4) while the first
            // (tag 2) is matched by the posted irecv.
            let st = mpi.probe(SrcSel::Rank(1), TagSel::Tag(4)).await;
            assert_eq!(st.bytes, 4);
            let (d, _) = mpi.wait_recv(r).await;
            assert_eq!(d, vec![2u8; 2]);
            // The probed message is still there to be received.
            let d = mpi.recv_from(1, 4).await;
            assert_eq!(d, vec![4u8; 4]);
        } else {
            mpi.compute(SimDuration::millis(1)).await;
            mpi.send(0, 2, &[2u8; 2]).await;
            mpi.send(0, 4, &[4u8; 4]).await;
        }
    });
}

#[test]
fn barrier_synchronizes_last_arrival() {
    let layout = JobLayout::new(4, 2, 8);
    let out = run_program(engine(&layout), layout, |mut mpi: AsyncMpi| async move {
        // Stagger arrivals: the slowest rank arrives at 8 ms.
        mpi.compute(SimDuration::millis(mpi.rank() as u64 + 1)).await;
        mpi.barrier().await;
        mpi.now().await.as_millis_f64()
    });
    let first = out.results.iter().cloned().fold(f64::MAX, f64::min);
    let last = out.results.iter().cloned().fold(0.0, f64::max);
    assert!(first >= 8.0, "a rank left the barrier at {first}ms");
    assert!(last - first < 0.1, "barrier exits spread {}ms", last - first);
    assert_eq!(out.engine.stats.barriers, 1);
}

#[test]
fn bcast_delivers_root_payload_everywhere() {
    let layout = JobLayout::new(4, 2, 7);
    let out = run_program(engine(&layout), layout, |mut mpi: AsyncMpi| async move {
        let payload = if mpi.rank() == 2 {
            Some(vec![42u8; 1000])
        } else {
            None
        };
        mpi.bcast(2, payload.as_deref()).await
    });
    for (r, d) in out.results.iter().enumerate() {
        assert_eq!(d.len(), 1000, "rank {r}");
        assert!(d.iter().all(|&b| b == 42));
    }
}

#[test]
fn reduce_and_allreduce_values() {
    let layout = JobLayout::new(8, 2, 16);
    let out = run_program(engine(&layout), layout, |mut mpi: AsyncMpi| async move {
        let r = mpi.rank() as f64;
        let contribution = [r + 1.0, 2.0 * r];
        let root_sum = mpi.reduce_f64(3, ReduceOp::Sum, &contribution).await;
        let all_max = mpi.allreduce_f64(ReduceOp::Max, &contribution).await;
        (root_sum, all_max)
    });
    let n = 16.0;
    for (r, (root_sum, all_max)) in out.results.iter().enumerate() {
        if r == 3 {
            let s = root_sum.as_ref().unwrap();
            assert_eq!(s[0], n * (n + 1.0) / 2.0); // sum 1..=16
            assert_eq!(s[1], n * (n - 1.0)); // 2*sum 0..16
        } else {
            assert!(root_sum.is_none(), "rank {r} must not get reduce result");
        }
        assert_eq!(all_max, &vec![16.0, 30.0]);
    }
    assert_eq!(out.engine.stats.reduces, 2);
}

#[test]
fn allreduce_i64_bitwise_ops() {
    let layout = JobLayout::new(4, 1, 4);
    let out = run_program(engine(&layout), layout, |mut mpi: AsyncMpi| async move {
        let v = [1i64 << mpi.rank()];
        let or = mpi.allreduce_i64(ReduceOp::BOr, &v).await;
        let and = mpi.allreduce_i64(ReduceOp::BAnd, &[!0i64, 0b1111 << mpi.rank()]).await;
        (or, and)
    });
    for (or, and) in &out.results {
        assert_eq!(or[0], 0b1111);
        assert_eq!(and[0], !0i64);
        assert_eq!(and[1], 0b1111 & (0b1111 << 3));
    }
}

#[test]
fn composed_collectives_scatter_gather_allgather_alltoall() {
    let layout = JobLayout::new(4, 2, 8);
    let out = run_program(engine(&layout), layout, |mut mpi: AsyncMpi| async move {
        let n = mpi.size();
        let me = mpi.rank();

        // Scatter: root 0 deals rank r the byte pattern [r; r+1] (vector).
        let chunks: Option<Vec<Vec<u8>>> = (me == 0)
            .then(|| (0..n).map(|r| vec![r as u8; r + 1]).collect());
        let mine = mpi.scatterv(0, chunks.as_deref()).await;
        assert_eq!(mine, vec![me as u8; me + 1]);

        // Gather back to root 3.
        let gathered = mpi.gatherv(3, &mine).await;
        if me == 3 {
            let g = gathered.unwrap();
            for (r, c) in g.iter().enumerate() {
                assert_eq!(c, &vec![r as u8; r + 1]);
            }
        } else {
            assert!(gathered.is_none());
        }

        // Allgather of one byte each.
        let ag = mpi.allgather(&[me as u8]).await;
        assert_eq!(
            ag.iter().map(|c| c[0]).collect::<Vec<u8>>(),
            (0..n as u8).collect::<Vec<u8>>()
        );

        // Alltoall: send (me*16+dest) to each dest.
        let send: Vec<Vec<u8>> = (0..n).map(|d| vec![(me * 16 + d) as u8]).collect();
        let got = mpi.alltoall(&send).await;
        for (s, c) in got.iter().enumerate() {
            assert_eq!(c[0], (s * 16 + me) as u8, "from {s} to {me}");
        }
        true
    });
    assert!(out.results.iter().all(|&ok| ok));
}

#[test]
fn deterministic_repeat_runs() {
    let layout = JobLayout::new(4, 2, 8);
    let run = || {
        let l = JobLayout::new(4, 2, 8);
        run_program(engine(&l), l, |mut mpi: AsyncMpi| async move {
            let peer = (mpi.rank() + 1) % mpi.size();
            let from = (mpi.rank() + mpi.size() - 1) % mpi.size();
            for _ in 0..5 {
                let s = mpi.isend(peer, 1, &[0u8; 4096]).await;
                let r = mpi.irecv(SrcSel::Rank(from), TagSel::Tag(1)).await;
                mpi.compute(SimDuration::micros(700)).await;
                mpi.waitall(&[s, r]).await;
                mpi.barrier().await;
            }
            mpi.now().await.as_nanos()
        })
        .results
    };
    let _ = layout;
    assert_eq!(run(), run(), "same seed/world must replay identically");
}

#[test]
fn self_send_and_recv() {
    let layout = JobLayout::new(1, 1, 1);
    let out = run_program(engine(&layout), layout, |mut mpi: AsyncMpi| async move {
        let s = mpi.isend(0, 9, b"self").await;
        let d = mpi.recv_from(0, 9).await;
        mpi.wait(s).await;
        d
    });
    assert_eq!(out.results[0], b"self");
}

#[test]
fn sixty_two_rank_job_runs() {
    // The paper's full-machine configuration.
    let layout = JobLayout::crescendo(62);
    let out = run_program(engine(&layout), layout, |mut mpi: AsyncMpi| async move {
        let me = mpi.rank();
        let n = mpi.size();
        let sum = mpi.allreduce_i64(ReduceOp::Sum, &[me as i64]).await[0];
        assert_eq!(sum, (n * (n - 1) / 2) as i64);
        mpi.barrier().await;
        sum
    });
    assert!(out.results.iter().all(|&s| s == 61 * 62 / 2));
}

#[test]
fn reduce_zero_length() {
    let layout = JobLayout::new(2, 1, 2);
    let out = run_program(engine(&layout), layout, |mut mpi: AsyncMpi| async move {
        mpi.allreduce(ReduceOp::Sum, Datatype::F64, &[]).await
    });
    assert!(out.results.iter().all(|d| d.is_empty()));
}

/// Request misuse ends in the shared lifecycle diagnostic (rank, call,
/// request, virtual time): an eager isend is complete at once, the wait
/// retires it, and the test that follows names a request that is gone.
#[test]
#[should_panic(expected = "rank 0 called test at t=0ns on ReqId(0), which is already retired")]
fn testing_a_retired_request_is_diagnosed() {
    let layout = JobLayout::new(2, 1, 2);
    run_program(engine(&layout), layout, |mut mpi: AsyncMpi| async move {
        if mpi.rank() == 0 {
            let r = mpi.isend(1, 0, &[1u8; 8]).await;
            mpi.wait(r).await;
            mpi.test(r).await;
        }
    });
}
