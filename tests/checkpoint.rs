//! Slice-boundary checkpointing (the paper's §6 fault-tolerance direction):
//! the global communication state captured at slice boundaries must be
//! meaningful (reflect in-flight traffic) and reproducible (two replicas of
//! the same job produce identical digest streams).

use bcs_repro::bcs_mpi::{BcsConfig, BcsMpi};
use bcs_repro::mpi_api::AsyncMpi;
use bcs_repro::mpi_api::message::{SrcSel, TagSel};
use bcs_repro::mpi_api::runtime::{Job, JobLayout, run_program};
use bcs_repro::simcore::SimDuration;

fn run_with_checkpoints(every: u64) -> (Vec<(u64, u64)>, Vec<u64>) {
    let layout = JobLayout::new(4, 2, 8);
    let mut cfg = BcsConfig::default();
    cfg.checkpoint_every = Some(every);
    let out = run_program(BcsMpi::new(cfg, &layout), layout, |mut mpi: AsyncMpi| async move {
        let me = mpi.rank();
        let n = mpi.size();
        for it in 0..8u64 {
            mpi.compute(SimDuration::micros(700 + 137 * (me as u64 + it))).await;
            let peer = (me + 1) % n;
            let from = (me + n - 1) % n;
            // Mix of large (chunked) and small traffic so checkpoints see
            // in-flight transfers.
            let sz = if it % 3 == 0 { 200 * 1024 } else { 512 };
            let s = mpi.isend(peer, it as i32, &vec![it as u8; sz]).await;
            let r = mpi.irecv(SrcSel::Rank(from), TagSel::Tag(it as i32)).await;
            let res = mpi.waitall(&[s, r]).await;
            assert!(res[1].0.is_some());
        }
        mpi.now().await.as_nanos()
    });
    (out.engine.checkpoints.to_vec(), out.results)
}

#[test]
fn digest_stream_replays_identically() {
    let (a, ta) = run_with_checkpoints(1);
    let (b, tb) = run_with_checkpoints(1);
    assert!(!a.is_empty());
    assert_eq!(a, b, "checkpoint digests must replicate");
    assert_eq!(ta, tb);
}

#[test]
fn checkpoint_interval_is_respected() {
    let (every1, _) = run_with_checkpoints(1);
    let (every4, _) = run_with_checkpoints(4);
    assert!(every1.len() >= 4 * every4.len() - 4);
    for (slice, _) in &every4 {
        assert_eq!(slice % 4, 0);
    }
}

#[test]
fn captured_state_reflects_inflight_traffic() {
    // Drive a large transfer and capture manually mid-flight.
    let layout = JobLayout::new(2, 1, 2);
    let mut cfg = BcsConfig::default();
    cfg.checkpoint_every = Some(1);
    let out = run_program(BcsMpi::new(cfg, &layout), layout, |mut mpi: AsyncMpi| async move {
        if mpi.rank() == 0 {
            mpi.send(1, 1, &vec![9u8; 1024 * 1024]).await; // ~11 slices of chunks
        } else {
            let d = mpi.recv_from(0, 1).await;
            assert_eq!(d.len(), 1024 * 1024);
        }
    });
    // At least one boundary must have seen a partially-moved transfer.
    let final_ck = out.engine.capture_checkpoint();
    assert_eq!(final_ck.inflight_bytes(), 0, "final state must be quiescent");
    assert!(
        out.engine.stats.chunked_messages >= 1,
        "transfer must have been chunked"
    );
    // Digest stream is non-trivial (states differ across boundaries).
    let digests: std::collections::HashSet<u64> =
        out.engine.checkpoints.iter().map(|&(_, d)| d).collect();
    assert!(digests.len() > 2, "checkpoints all identical: nothing captured");
}

#[test]
fn streaming_digest_matches_materialized_checkpoint() {
    // Restore mid-run images (non-trivial state: chunked transfers parked at
    // the boundary, open requests, unmatched descriptors) and check that the
    // allocation-free streaming digest agrees with the materialized
    // CommCheckpoint's digest — and with the digest recorded at capture.
    let layout = JobLayout::new(4, 2, 8);
    let mut cfg = BcsConfig::default();
    cfg.checkpoint_every = Some(1);
    let out = Job::new(BcsMpi::new(cfg.clone(), &layout), layout.clone())
        .setup(|w, _| w.set_recording(true))
        .start(&|mut mpi: AsyncMpi| async move {
            let me = mpi.rank();
            let n = mpi.size();
            for it in 0..6u64 {
                mpi.compute(SimDuration::micros(500 + 211 * (me as u64 + it))).await;
                let peer = (me + 1) % n;
                let from = (me + n - 1) % n;
                let sz = if it % 2 == 0 { 300 * 1024 } else { 256 };
                let s = mpi.isend(peer, it as i32, &vec![it as u8; sz]).await;
                let r = mpi.irecv(SrcSel::Rank(from), TagSel::Tag(it as i32)).await;
                mpi.waitall(&[s, r]).await;
            }
        });
    assert!(out.completed);
    let images = &out.engine.images;
    assert!(images.len() > 4, "need several mid-run images");
    let mut nontrivial = 0;
    for img in images {
        let restored = BcsMpi::restore_from_image(cfg.clone(), &layout, img);
        let ck = restored.capture_checkpoint();
        if ck.inflight_bytes() > 0 {
            nontrivial += 1;
        }
        assert_eq!(restored.checkpoint_digest(), ck.digest());
        assert_eq!(restored.checkpoint_digest(), img.digest);
    }
    assert!(nontrivial > 0, "no image captured in-flight traffic");
}

#[test]
fn quiescence_of_final_state() {
    let (_, _) = run_with_checkpoints(2);
    // run_with_checkpoints already asserts correct payloads; a fresh engine
    // capture on a finished run must show empty queues.
    let layout = JobLayout::new(2, 1, 2);
    let out = run_program(
        BcsMpi::new(BcsConfig::default(), &layout),
        layout,
        |mut mpi: AsyncMpi| async move {
            if mpi.rank() == 0 {
                mpi.send(1, 1, b"x").await;
            } else {
                mpi.recv_from(0, 1).await;
            }
        },
    );
    let ck = out.engine.capture_checkpoint();
    for n in &ck.nodes {
        assert!(n.pending_sends.is_empty());
        assert!(n.unmatched.is_empty());
        assert!(n.inflight.is_empty());
    }
    assert!(ck.suspended_ranks.is_empty());
    assert!(ck.open_collectives.is_empty());
}
