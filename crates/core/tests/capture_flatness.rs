//! A checkpoint image costs what changed since the previous one, not what
//! the run has accumulated (DESIGN §9), and the replay log does not keep
//! message bytes. A capture copies the NIC states that changed since the
//! previous capture, compacted, and shares the previous image's copy of
//! every other node. Counts only; nothing here depends on host speed.
//!
//! One recorded run captures an image at every slice boundary for more than
//! 512 slices. Each image reports the cumulative work its three histories —
//! response log, digest stream, slice trace — had spent on snapshots when
//! it was taken; the difference between consecutive images is one capture.
//! At the parent commit that difference grew linearly: every capture cloned
//! one chunk handle per rank per earlier capture and copied the whole
//! digest stream and trace.

use bcs_mpi::{BcsConfig, BcsMpi, CheckpointImage};
use mpi_api::message::{SrcSel, TagSel};
use mpi_api::runtime::{Job, JobLayout};
use mpi_api::{AsyncMpi, MpiResp, Payload, ReduceOp};
use simcore::SimDuration;

const ITERS: u64 = 300;
const MSG_BYTES: usize = 2048;

/// Ring exchange, every message received, an allreduce every third
/// iteration (its 16-byte result is the only payload logged by value).
async fn ring(mut mpi: AsyncMpi) -> u64 {
    let (me, n) = (mpi.rank(), mpi.size());
    let mut acc = me as u64;
    for it in 0..ITERS {
        mpi.compute(SimDuration::micros(400)).await;
        let payload = vec![(acc ^ it) as u8; MSG_BYTES];
        let s = mpi.isend((me + 1) % n, it as i32, &payload).await;
        let r = mpi.irecv(SrcSel::Rank((me + n - 1) % n), TagSel::Tag(it as i32)).await;
        let got = mpi.waitall(&[s, r]).await;
        acc = acc.wrapping_mul(31) + got[1].0.as_ref().expect("recv payload")[0] as u64;
        if it % 3 == 2 {
            acc ^= mpi.allreduce_f64(ReduceOp::Sum, &[me as f64, it as f64]).await[1].to_bits();
        }
    }
    acc
}

fn recorded_run() -> (Vec<CheckpointImage>, u64) {
    let layout = JobLayout::new(4, 2, 8);
    let cfg = BcsConfig {
        checkpoint_every: Some(1),
        trace_slices: true,
        ..BcsConfig::default()
    };
    let out = Job::new(BcsMpi::new(cfg, &layout), layout)
        .setup(|w, _| w.set_recording(true))
        .start(&ring);
    assert!(out.completed, "{:?}", out.diagnostic);
    (out.engine.images, out.engine.stats.p2p_bytes)
}

#[test]
fn capture_work_is_flat_and_the_log_holds_no_message_bytes() {
    let (images, p2p_bytes) = recorded_run();
    assert!(images.len() > 513, "only {} images", images.len());

    // Chunk handles cloned by the capture of image `k`.
    let handles = |k: usize| images[k].history_work().handles_cloned;
    let capture = |k: usize| handles(k) - handles(k - 1);
    // One handle per history, and no record copied: the digest stream and
    // the slice trace are chunk logs like the response log.
    assert_eq!(capture(8), 3);
    assert_eq!(capture(512), capture(8), "capture work grew with the number of earlier images");

    // The log's own count of what it holds by value, checked against a walk
    // over every logged response.
    let last = images.last().expect("checked above");
    let (mut by_value, mut hollow) = (0u64, 0u64);
    for (_, resp) in last.rt.log.iter() {
        for p in payloads(&resp) {
            match p.origin() {
                Some(_) => {
                    assert!(p.is_empty(), "a stamped payload was logged with its bytes");
                    hollow += 1;
                }
                None => by_value += p.len() as u64,
            }
        }
    }
    assert_eq!(by_value, last.rt.logged_payload_bytes);
    assert!(hollow > 2000, "only {hollow} point-to-point deliveries were logged by reference");
    assert_eq!(p2p_bytes, ITERS * 8 * MSG_BYTES as u64);
    assert!(
        by_value * 100 < p2p_bytes,
        "the log retains {by_value} of {p2p_bytes} point-to-point bytes"
    );
}

/// Every payload a response carries, sub-responses of a batch included.
fn payloads(resp: &MpiResp) -> Vec<&Payload> {
    fn results(rs: &[(Option<Payload>, Option<mpi_api::message::Status>)]) -> Vec<&Payload> {
        rs.iter().filter_map(|(d, _)| d.as_ref()).collect()
    }
    match resp {
        MpiResp::Ok
        | MpiResp::Time(_)
        | MpiResp::Req(_)
        | MpiResp::ProbeDone { .. }
        | MpiResp::CommSplitDone { .. }
        | MpiResp::TestDone { result: None }
        | MpiResp::TestallDone { results: None } => Vec::new(),
        MpiResp::Data(p) => vec![p],
        MpiResp::RootData(p) => p.iter().collect(),
        MpiResp::WaitDone { data, .. } => data.iter().collect(),
        MpiResp::WaitallDone { results: rs } | MpiResp::TestallDone { results: Some(rs) } => results(rs),
        MpiResp::TestDone { result: Some(r) } => results(std::slice::from_ref(r)),
        MpiResp::Batch { resps } => resps.iter().flat_map(payloads).collect(),
    }
}

const BUSY_NODES: usize = 4;

/// Ranks on the first [`BUSY_NODES`] nodes (two per node) exchange around
/// a ring of their own; every other rank only computes, so its node's NIC
/// never changes.
async fn half_ring(mut mpi: AsyncMpi) -> u64 {
    let (me, busy) = (mpi.rank(), 2 * BUSY_NODES);
    let mut acc = me as u64;
    for it in 0..60u64 {
        mpi.compute(SimDuration::micros(700)).await;
        if me < busy {
            let s = mpi.isend((me + 1) % busy, it as i32, &vec![(acc ^ it) as u8; MSG_BYTES]).await;
            let r = mpi.irecv(SrcSel::Rank((me + busy - 1) % busy), TagSel::Tag(it as i32)).await;
            let got = mpi.waitall(&[s, r]).await;
            acc = acc.wrapping_mul(31) + got[1].0.as_ref().expect("recv payload")[0] as u64;
        }
    }
    acc
}

/// A capture copies exactly the NIC states that changed since the previous
/// capture: a node whose queues differ between two consecutive images holds
/// a copy of its own in the later one, a node nobody sent to or received
/// on is the previous image's handle in every image after the first, and a
/// busy node between two exchanges is shared too. What an image copies it
/// copies compacted: no queue of any image holds spare capacity.
#[test]
fn a_capture_copies_the_changed_nics_compacted_and_shares_the_rest() {
    let layout = JobLayout::new(2 * BUSY_NODES, 2, 4 * BUSY_NODES);
    let cfg = BcsConfig { checkpoint_every: Some(1), ..BcsConfig::default() };
    let out = Job::new(BcsMpi::new(cfg.clone(), &layout), layout.clone())
        .setup(|w, _| w.set_recording(true))
        .start(&half_ring);
    assert!(out.completed, "{:?}", out.diagnostic);
    let images = &out.engine.images;
    assert!(images.len() > 60, "only {} images", images.len());
    let queues: Vec<_> = (images.iter())
        .map(|img| BcsMpi::restore_from_image(cfg.clone(), &layout, img).capture_checkpoint().nodes)
        .collect();
    let (mut copied, mut busy_shared) = (0, 0);
    for k in 1..images.len() {
        for (node, (now, before)) in queues[k].iter().zip(&queues[k - 1]).enumerate() {
            let shared = images[k].shares_nic_with(&images[k - 1], node);
            if node >= BUSY_NODES {
                assert!(shared, "image {k} copied idle node {node}");
            } else if shared {
                assert_eq!(now, before, "image {k} shares a changed node {node}");
                busy_shared += 1;
            } else {
                copied += 1;
            }
        }
    }
    assert!(copied > images.len(), "only {copied} copies over {} captures", images.len());
    assert!(busy_shared > 0, "every busy node was copied at every capture");
    for (k, img) in images.iter().enumerate() {
        assert_eq!(img.nic_spare_capacity(), 0, "image {k} holds spare queue capacity");
    }
}
