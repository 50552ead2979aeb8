//! End-to-end fault injection & slice-boundary recovery (the `faultsim`
//! subsystem, realizing the paper's §6 transparent-fault-tolerance claim).
//!
//! The headline acceptance path: a node crash injected mid-application is
//! detected by the STORM heartbeat monitor within its epoch bound, the
//! survivors restore from the last slice-boundary checkpoint image, the
//! protocol resumes on the original timeline, and the job completes with
//! results **bit-identical** to the fault-free run. When recovery is
//! impossible (no image, budget spent) the machine aborts cleanly.

use bcs_repro::bcs_core::BcsWorld;
use bcs_repro::bcs_mpi::{BcsConfig, BcsMpi, CheckpointImage};
use bcs_repro::faultsim::{
    FaultPlan, FaultProfile, RecoveryCfg, fault_free_reference, run_with_recovery,
};
use bcs_repro::mpi_api::message::{SrcSel, TagSel};
use bcs_repro::mpi_api::runtime::{ClusterWorld, Job, JobLayout, RunOutcome};
use bcs_repro::mpi_api::{AsyncMpi, MpiCall, MpiResp, Payload, RankProgram, ReduceOp};
use bcs_repro::qsnet::NodeId;
use bcs_repro::simcore::{Sim, SimDuration};
use proplite::prelude::*;
use std::cell::RefCell;
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};

/// Deterministic ring workload: neighbor exchange with specific (never
/// wildcard) receives, a mix of chunked and small payloads, and an
/// occasional NIC-side allreduce. Returns a checksum over every received
/// byte and reduced value — any lost, duplicated or corrupted delivery
/// changes it, while pure timing shifts (heartbeat traffic, checkpoint
/// stalls, recovery rework) do not.
async fn ring_program(mut mpi: AsyncMpi, iters: u64) -> u64 {
    let me = mpi.rank();
    let n = mpi.size();
    let mut acc: u64 = (me as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for it in 0..iters {
        mpi.compute(SimDuration::micros(200 + 53 * ((me as u64 + it) % 5))).await;
        let to = (me + 1) % n;
        let from = (me + n - 1) % n;
        let sz = if it % 2 == 0 { 96 * 1024 } else { 512 };
        let payload: Vec<u8> = (0..sz)
            .map(|i| (acc ^ (i as u64).wrapping_mul(0x9E37_79B9)) as u8)
            .collect();
        let s = mpi.isend(to, it as i32, &payload).await;
        let r = mpi.irecv(SrcSel::Rank(from), TagSel::Tag(it as i32)).await;
        let res = mpi.waitall(&[s, r]).await;
        let data = res[1].0.as_ref().expect("recv payload");
        assert_eq!(data.len(), sz);
        for (i, b) in data.iter().enumerate() {
            acc = acc
                .wrapping_mul(31)
                .wrapping_add(*b as u64 ^ (i as u64 & 0xFF));
        }
        if it % 3 == 2 {
            let g = mpi
                .allreduce_f64(
                    ReduceOp::Sum,
                    &[me as f64 + it as f64 * 0.5, (acc as u32) as f64],
                )
                .await;
            for v in g {
                acc ^= v.to_bits();
            }
        }
    }
    acc
}

/// Fold one received message into a checksum, order-independently: the
/// two wildcard receives of [`mixed_program`] complete in arrival order,
/// which fault timing may change, so their contributions must commute.
fn digest(source: usize, data: &[u8]) -> u64 {
    data.iter().fold(source as u64 + 1, |h, b| {
        (h ^ *b as u64).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Everything the ring does not: wildcard-source receives, a hand-built
/// [`MpiCall::Batch`] whose two sends carry *one shared* `Payload`, a
/// self-send, and a blocking send of several slices — so some capture
/// always finds a rank parked in it. The checksum is timing-invariant like
/// the ring's.
async fn mixed_program(mut mpi: AsyncMpi, iters: u64) -> u64 {
    let me = mpi.rank();
    let n = mpi.size();
    let mut acc: u64 = (me as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for it in 0..iters {
        let tag = it as i32;
        // Self-send: sender and receiver of the logged reference coincide.
        let own: Vec<u8> = (0..300u64).map(|i| (acc ^ i) as u8).collect();
        let s = mpi.isend(me, 1000 + tag, &own).await;
        let r = mpi.irecv(SrcSel::Rank(me), TagSel::Tag(1000 + tag)).await;
        let res = mpi.waitall(&[s, r]).await;
        acc = acc.wrapping_add(digest(me, res[1].0.as_ref().expect("self payload")));

        // One buffer to two neighbours in a hand-built batch, against two
        // wildcard receives (senders: me-1 and me-2). The batch opens with
        // more than a slice of compute, so it is in flight at a boundary.
        let shared = Payload::from_vec((0..700u64).map(|i| (acc.rotate_left(7) ^ i) as u8).collect());
        let send = |dest: usize| MpiCall::Send { dest, tag, data: shared.clone(), blocking: false };
        let any = || MpiCall::Recv { src: SrcSel::Any, tag: TagSel::Tag(tag), blocking: false };
        let calls = vec![
            mpi.compute_desc(SimDuration::micros(520 + 40 * ((me as u64 + it) % 3))),
            send((me + 1) % n),
            send((me + 2) % n),
            any(),
            any(),
        ];
        let reqs: Vec<_> = mpi
            .batch(calls)
            .await
            .into_iter()
            .filter_map(|resp| match resp {
                MpiResp::Req(r) => Some(r),
                _ => None,
            })
            .collect();
        assert_eq!(reqs.len(), 4);
        let mut from_any = 0u64;
        for (data, status) in mpi.waitall(&reqs).await {
            if let (Some(data), Some(status)) = (data, status) {
                assert_eq!(data.len(), 700);
                from_any ^= digest(status.source, &data);
            }
        }
        acc = acc.wrapping_mul(31).wrapping_add(from_any);

        // A blocking send of 160 KiB takes several slices to move; the
        // receive is pre-posted so the ring of blocked senders drains.
        let big: Vec<u8> = (0..160 * 1024u64).map(|i| (acc ^ i.wrapping_mul(0x9E37)) as u8).collect();
        let r = mpi.irecv(SrcSel::Rank((me + n - 1) % n), TagSel::Tag(2000 + tag)).await;
        mpi.send((me + 1) % n, 2000 + tag, &big).await;
        let (data, _) = mpi.wait_recv(r).await;
        acc = acc.wrapping_mul(31).wrapping_add(digest(0, &data));
        if it % 2 == 1 {
            for v in mpi.allreduce_f64(ReduceOp::Sum, &[(acc as u16) as f64]).await {
                acc ^= v.to_bits();
            }
        }
    }
    acc
}

/// The program a property case runs, drawn from its seed.
#[derive(Clone, Copy, Debug)]
enum Workload {
    Ring(u64),
    Mixed(u64),
}

impl Workload {
    fn of(seed: u64) -> Workload {
        if seed % 2 == 0 { Workload::Ring(5) } else { Workload::Mixed(4) }
    }
}

impl RankProgram for Workload {
    type Out = u64;

    fn boot(&self, mpi: AsyncMpi) -> Pin<Box<dyn Future<Output = u64>>> {
        match *self {
            Workload::Ring(iters) => Box::pin(ring_program(mpi, iters)),
            Workload::Mixed(iters) => Box::pin(mixed_program(mpi, iters)),
        }
    }
}

/// `plan` with one more crash ten slices after its first. The heartbeat
/// declares a crash within nine slices (two periods of four and the
/// Compare-And-Write), so the extra one strikes survivors that are running
/// restored from a checkpoint: a crash in the segment that follows a
/// restore.
fn with_crash_after_restore(mut plan: FaultPlan, rc: &RecoveryCfg, seed: u64) -> FaultPlan {
    if let Some(first) = plan.crashes.first().cloned() {
        plan.crashes.push(bcs_repro::faultsim::CrashEvent {
            node: NodeId((first.node.0 + 1 + seed as usize % 3) % 4),
            at: first.at + rc.bcs.timeslice * 10,
        });
        plan.crashes.sort_by_key(|c| c.at);
    }
    plan
}

fn layout() -> JobLayout {
    JobLayout::new(4, 1, 4)
}

fn recovery_cfg() -> RecoveryCfg {
    RecoveryCfg::new(BcsConfig::default(), 2)
}

fn fault_free_results(rc: &RecoveryCfg, iters: u64) -> Vec<u64> {
    reference_results(rc, Workload::Ring(iters))
}

fn reference_results(rc: &RecoveryCfg, program: Workload) -> Vec<u64> {
    fault_free_reference(rc, layout(), program).results
}

/// Satellite 1 + acceptance: the heartbeat monitor (first real consumer of
/// `storm::heartbeat::start_on`) declares a silent node dead within its
/// configured epoch bound, and the machine recovers and completes.
#[test]
fn silent_node_is_detected_within_the_epoch_bound() {
    let rc = recovery_cfg();
    let plan = FaultPlan::single_crash(&rc.bcs, NodeId(2), 5);
    let out = run_with_recovery(&rc, layout(), &plan, |mpi: AsyncMpi| ring_program(mpi, 6));
    assert!(out.completed, "recovery failed: {:?}", out.abort);
    assert_eq!(out.restarts, 1);
    assert_eq!(out.detections.len(), 1);
    let d = &out.detections[0];
    assert_eq!(d.node, NodeId(2));
    let lat = d.latency().expect("planned crash must have a latency");
    // Epoch bound: a node that dies right after acking a strobe is caught
    // by the second following beat; the Compare-And-Write completes within
    // a slice of that.
    let bound = rc.heartbeat_period() * 2 + rc.bcs.timeslice;
    assert!(
        lat <= bound,
        "detection took {} (bound {})",
        lat,
        bound
    );
    assert!(d.restored_from_slice.is_some());
}

/// Acceptance: crash → detect → restore → resume completes bit-identical
/// to the fault-free execution.
#[test]
fn recovery_is_bit_identical_to_fault_free() {
    let rc = recovery_cfg();
    let reference = fault_free_results(&rc, 6);
    let plan = FaultPlan::single_crash(&rc.bcs, NodeId(1), 4);
    let out = run_with_recovery(&rc, layout(), &plan, |mpi: AsyncMpi| ring_program(mpi, 6));
    assert!(out.completed, "recovery failed: {:?}", out.abort);
    assert!(out.restarts >= 1, "the crash must have forced a restore");
    let got: Vec<u64> = out.results.iter().map(|r| r.unwrap()).collect();
    assert_eq!(got, reference, "recovered results diverged from fault-free run");
}

/// The acceptance workload: an NPB CG proxy (halo matvec + transpose
/// exchange + bit-exact NIC allreduces) crashes mid-solve, is detected,
/// restored, and converges to residual bits identical to the fault-free
/// solve.
#[test]
fn cg_proxy_recovers_bit_identically() {
    use bcs_repro::apps::npb::cg::{CgCfg, cg_bench};
    let rc = recovery_cfg();
    let cfg = CgCfg {
        n_local: 64,
        iters: 8,
        iter_compute: SimDuration::micros(300),
    };
    let reference = fault_free_reference(&rc, layout(), cg_bench(cfg.clone())).results;
    let plan = FaultPlan::single_crash(&rc.bcs, NodeId(3), 4);
    let out = run_with_recovery(&rc, layout(), &plan, cg_bench(cfg));
    assert!(out.completed, "recovery failed: {:?}", out.abort);
    assert!(out.restarts >= 1, "the crash must have forced a restore");
    let got: Vec<(u64, u64)> = out.results.iter().map(|r| r.unwrap()).collect();
    assert_eq!(got, reference, "CG residual bits diverged from fault-free solve");
    for (rho0, rho_n) in &got {
        assert!(f64::from_bits(*rho_n) < f64::from_bits(*rho0));
    }
}

/// Two crashes in sequence: the second strikes after the first recovery.
#[test]
fn survives_two_crashes() {
    let rc = recovery_cfg();
    let reference = fault_free_results(&rc, 6);
    let mut plan = FaultPlan::single_crash(&rc.bcs, NodeId(0), 3);
    plan.crashes
        .extend(FaultPlan::single_crash(&rc.bcs, NodeId(3), 9).crashes);
    let out = run_with_recovery(&rc, layout(), &plan, |mpi: AsyncMpi| ring_program(mpi, 6));
    assert!(out.completed, "recovery failed: {:?}", out.abort);
    assert_eq!(out.restarts, 2);
    assert_eq!(out.detections.len(), 2);
    let got: Vec<u64> = out.results.iter().map(|r| r.unwrap()).collect();
    assert_eq!(got, reference);
}

/// The mixed workload (wildcard receives, a batch with shared-payload sends
/// in flight at a boundary, self-sends, a parked blocking send) through two
/// restores, the second crash striking the restored segment.
#[test]
fn mixed_workload_survives_a_crash_in_the_restored_segment() {
    let rc = recovery_cfg();
    let reference = reference_results(&rc, Workload::Mixed(4));
    let plan = with_crash_after_restore(FaultPlan::single_crash(&rc.bcs, NodeId(2), 3), &rc, 0);
    let out = run_with_recovery(&rc, layout(), &plan, Workload::Mixed(4));
    assert!(out.completed, "recovery failed: {:?}", out.abort);
    assert_eq!(out.restarts, 2);
    assert!(
        out.detections[1].restored_from_at > out.detections[0].restored_from_at,
        "the second restore must start from an image the restored segment captured"
    );
    let got: Vec<u64> = out.results.iter().map(|r| r.unwrap()).collect();
    assert_eq!(got, reference);
}

/// Transient data-channel drops are masked by the retry layer without any
/// restore at all: the timeout fires, the DMA is re-issued, and the job
/// completes bit-identically.
#[test]
fn dropped_dmas_are_retried_transparently() {
    let rc = recovery_cfg();
    let reference = fault_free_results(&rc, 6);
    let mut plan = FaultPlan::none();
    plan.drops = (0..12).collect();
    let out = run_with_recovery(&rc, layout(), &plan, |mpi: AsyncMpi| ring_program(mpi, 6));
    assert!(out.completed, "run failed: {:?}", out.abort);
    assert_eq!(out.restarts, 0, "drops must be masked below the restore layer");
    assert!(
        out.engine.fabric_stats().drops >= 1,
        "plan did not hit any bulk transfer"
    );
    assert!(out.engine.retry_stats().retries >= 1);
    assert_eq!(out.engine.retry_stats().aborts, 0);
    let got: Vec<u64> = out.results.iter().map(|r| r.unwrap()).collect();
    assert_eq!(got, reference);
}

/// The edges of a binomial broadcast or gather go through the same retry
/// layer as DEM and P2P transfers: the very first bulk transfer of a lone
/// broadcast or allreduce is dropped, re-issued, and the collective
/// completes as if nothing happened (it used to idle to the horizon: a lost
/// put never fired its hook and no node had died).
#[test]
fn a_dropped_binomial_collective_edge_is_retried() {
    let bcs = BcsConfig { coll_algo: bcs_repro::mpi_api::CollAlgo::Binomial, ..BcsConfig::default() };
    let rc = RecoveryCfg::new(bcs, 2);
    let plan = FaultPlan { drops: vec![0], ..FaultPlan::none() };
    for kind in 0..2 {
        let program = move |mut mpi: AsyncMpi| async move {
            let me = mpi.rank();
            match kind {
                0 => mpi.bcast(1, (me == 1).then(|| vec![7u8; 300]).as_deref()).await.to_vec(),
                _ => mpi.allreduce_f64(ReduceOp::Sum, &[me as f64 * 0.5]).await[0].to_le_bytes().to_vec(),
            }
        };
        let reference = fault_free_reference(&rc, layout(), program).results;
        let out = run_with_recovery(&rc, layout(), &plan, program);
        assert!(out.completed, "collective {kind}: {:?}", out.abort);
        assert!(out.engine.retry_stats().retries >= 1, "collective {kind}: the drop missed");
        let got: Vec<Vec<u8>> = out.results.into_iter().map(Option::unwrap).collect();
        assert_eq!(got, reference, "collective {kind}");
    }
}

/// Recovery impossible: with no restart budget the machine aborts cleanly —
/// a reported reason, not a panic or a livelock.
#[test]
fn abort_is_clean_when_restart_budget_is_exhausted() {
    let mut rc = recovery_cfg();
    rc.max_restarts = 0;
    let plan = FaultPlan::single_crash(&rc.bcs, NodeId(2), 4);
    let out = run_with_recovery(&rc, layout(), &plan, |mpi: AsyncMpi| ring_program(mpi, 6));
    assert!(!out.completed);
    let why = out.abort.expect("abort reason must be reported");
    assert!(why.contains("restart budget"), "unexpected reason: {why}");
    assert_eq!(out.detections.len(), 1);
    assert!(out.detections[0].restored_from_slice.is_none());
    assert_eq!(out.results, [None; 4]);
}

/// The same machine, retargeted onto the RDMA-channel fabric: InfiniBand
/// constants, software-emulated multicast/conditionals (`crates/rdmanet`).
/// The recovery stack must be fabric-agnostic — fault plans are keyed by
/// bulk transfer sequence numbers, which both fabrics assign identically.
fn rdma_recovery_cfg() -> RecoveryCfg {
    let mut bcs = BcsConfig::default();
    bcs.fabric = bcs_repro::qsnet::FabricKind::Rdma;
    bcs.net = bcs_repro::qsnet::NetModel::infiniband();
    RecoveryCfg::new(bcs, 2)
}

/// Crash → detect → restore → resume on the RDMA fabric: the snapshot and
/// restore of the software sequencer / QP port clocks must replay to
/// results bit-identical to the fault-free RDMA run.
#[test]
fn rdma_fabric_recovery_is_bit_identical_to_fault_free() {
    let rc = rdma_recovery_cfg();
    let reference = fault_free_results(&rc, 6);
    let plan = FaultPlan::single_crash(&rc.bcs, NodeId(1), 4);
    let out = run_with_recovery(&rc, layout(), &plan, |mpi: AsyncMpi| ring_program(mpi, 6));
    assert!(out.completed, "recovery failed: {:?}", out.abort);
    assert!(out.restarts >= 1, "the crash must have forced a restore");
    let got: Vec<u64> = out.results.iter().map(|r| r.unwrap()).collect();
    assert_eq!(got, reference, "recovered results diverged from fault-free RDMA run");
}

/// A node that dies in the middle of an all-idle stretch is never swept up
/// with the idle nodes of a microphase (DESIGN §9): the fabric hands the
/// strobe's hook only the destinations it reached, so the dead node's
/// `MP_DONE` stays behind, the poll keeps failing and the strobe loop
/// stands still until the heartbeat declares the node. Barrier loop, 19
/// idle slices of compute per iteration, an image at every boundary; the
/// crash is 40 % into slice 25, when that slice's five microphases are
/// over, so the slice that stalls is the next. Were the node marked done,
/// the loop would run on and the newest image would be a later slice.
/// Values recorded at PR 23 (`bfb1eff`), before idle nodes were completed
/// in bulk.
#[test]
fn a_node_that_dies_while_the_machine_idles_is_not_marked_done() {
    let program = |mut mpi: AsyncMpi| async move {
        let mut seen = Vec::new();
        for _ in 0..3 {
            mpi.compute_then_barrier(SimDuration::micros(9_800)).await;
            seen.push(mpi.now().await.as_nanos());
        }
        seen
    };
    let layout = JobLayout::new(8, 2, 16);
    let rc = RecoveryCfg::new(BcsConfig::default(), 1);
    let plan = FaultPlan::single_crash(&rc.bcs, NodeId(5), 25);
    let out = run_with_recovery(&rc, layout, &plan, program);
    assert!(out.completed, "recovery failed: {:?}", out.abort);
    assert_eq!(out.restarts, 1);
    let d = &out.detections[0];
    assert_eq!(d.node, NodeId(5));
    let ts = rc.bcs.timeslice.as_nanos();
    assert_eq!(d.crashed_at.map(|t| t.as_nanos()), Some(25 * ts + ts * 2 / 5));
    // No boundary between the crash and the declaration but the one the
    // crash slice ended on.
    assert_eq!(d.restored_from_slice, Some(26));
    assert_eq!(d.restored_from_at.map(|t| t.as_nanos()), Some(26 * ts));
    assert_eq!(d.latency().map(|l| l.as_nanos()), Some(IDLE_CRASH_LATENCY_NS));
    for seen in &out.results {
        assert_eq!(seen.as_deref(), Some(&IDLE_CRASH_BARRIERS_NS[..]));
    }
}

const IDLE_CRASH_LATENCY_NS: u64 = 1_339_200;
const IDLE_CRASH_BARRIERS_NS: [u64; 3] = [10_500_000, 21_000_000, 31_500_000];

type CW = ClusterWorld<BcsMpi>;

/// Shadow every checkpoint image the engine captures with an eager
/// [`CheckpointImage::materialize`] deep clone, re-polling once per slice
/// while the job runs. The shadow is taken while the run keeps mutating the
/// engine, so if any post-capture mutation leaked into a layer an image
/// shares, the incremental image and its deep clone would diverge.
fn shadow_images(
    w: &mut CW,
    sim: &mut Sim<CW>,
    shadow: Rc<RefCell<Vec<CheckpointImage>>>,
    period: SimDuration,
) {
    {
        let mut sh = shadow.borrow_mut();
        while sh.len() < w.engine.images.len() {
            let img = &w.engine.images[sh.len()];
            sh.push(img.materialize());
        }
    }
    if w.finished < w.layout.ranks {
        let sh = shadow.clone();
        sim.schedule_in(period, move |w: &mut CW, sim| {
            shadow_images(w, sim, sh, period)
        });
    }
}

/// How rank 1 of [`unfaithful_ring`] misbehaves once its flag is set.
#[derive(Clone, Copy)]
enum Lapse {
    /// Posts a receive nobody will match where it used to send.
    SkipsItsSends,
    /// Returns after the first iteration.
    ReturnsEarly,
}

/// A ring whose rank 1 is *not* a function of its responses: it consults
/// `lapsed`, which the test sets between the recorded run and the restore.
async fn unfaithful_ring(mut mpi: AsyncMpi, lapsed: &'static AtomicBool, lapse: Lapse) -> u64 {
    let (me, n) = (mpi.rank(), mpi.size());
    let mut acc = 0u64;
    for it in 0..6i32 {
        mpi.compute(SimDuration::micros(300)).await;
        let lapsed = me == 1 && lapsed.load(Ordering::SeqCst);
        let s = match (lapsed, lapse) {
            (true, Lapse::ReturnsEarly) if it > 0 => return acc,
            (true, Lapse::SkipsItsSends) => mpi.irecv(SrcSel::Rank(me), TagSel::Tag(9000 + it)).await,
            _ => mpi.isend((me + 1) % n, it, &[me as u8; 2048]).await,
        };
        let r = mpi.irecv(SrcSel::Rank((me + n - 1) % n), TagSel::Tag(it)).await;
        let res = mpi.waitall(&[s, r]).await;
        acc += res[1].0.as_ref().map_or(0, |d| d.len() as u64);
    }
    acc
}

/// Record a fault-free run of [`unfaithful_ring`], set the flag, and restore
/// from the image in the middle of the run.
fn restore_after_lapse(lapsed: &'static AtomicBool, lapse: Lapse) {
    let mut cfg = recovery_cfg().bcs;
    cfg.checkpoint_every = Some(1);
    let program = move |mpi: AsyncMpi| unfaithful_ring(mpi, lapsed, lapse);
    let out = Job::new(BcsMpi::new(cfg.clone(), &layout()), layout())
        .setup(|w, _| w.set_recording(true))
        .start(&program);
    assert!(out.completed, "{:?}", out.diagnostic);
    let img = &out.engine.images[out.engine.images.len() / 2];
    lapsed.store(true, Ordering::SeqCst);
    Job::new(BcsMpi::restore_from_image(cfg, &layout(), img), layout())
        .resume_from(&img.rt, bcs_repro::bcs_mpi::resume_from_boundary)
        .start(&program);
}

/// Replay of a rank that no longer sends what it sent: the receiver's log
/// entry refers to a payload no replayed rank produced, and the restore
/// says which.
#[test]
#[should_panic(expected = "rank 2 is owed send #0 of rank 1, which no replayed rank has yielded")]
fn replay_names_the_send_a_divergent_rank_did_not_repeat() {
    static LAPSED: AtomicBool = AtomicBool::new(false);
    restore_after_lapse(&LAPSED, Lapse::SkipsItsSends);
}

/// Replay of a rank that returns while the log still holds responses for it.
#[test]
#[should_panic(expected = "rank 1 is owed another response, while its replay is parked in nothing")]
fn replay_names_the_rank_that_returned_early() {
    static LAPSED: AtomicBool = AtomicBool::new(false);
    restore_after_lapse(&LAPSED, Lapse::ReturnsEarly);
}

/// A ring whose ranks poll their receive with `MPI_Test`, 50 µs of compute
/// between polls: how many polls come back empty depends on when the
/// message lands, and that differs between a timeline in which a node is
/// dead and one in which it is not.
async fn polling_ring(mut mpi: AsyncMpi) -> u64 {
    let (me, n) = (mpi.rank(), mpi.size());
    let mut acc = (me as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for it in 0..40i32 {
        let s = mpi.isend((me + 1) % n, it, &[(acc as u8) ^ it as u8; 256]).await;
        let r = mpi.irecv(SrcSel::Rank((me + n - 1) % n), TagSel::Tag(it)).await;
        let data = loop {
            mpi.compute(SimDuration::micros(50)).await;
            if let Some((data, _)) = mpi.test(r).await {
                break data.expect("recv payload");
            }
        };
        mpi.wait(s).await;
        acc = acc.wrapping_mul(31).wrapping_add(digest(me, &data));
    }
    acc
}

/// The halted segment's survivors polled in vain while node 2 was dead;
/// the restored run delivers their messages sooner, so a re-delivered
/// `MPI_Test` differs from the one a reused rank took. That attempt is
/// discarded and the image restored again by the full replay, which ends
/// where the run always ended (19.610 ms and one restart, as recorded
/// before restores reused ranks; 3718 events since a reliable transfer that
/// lands no longer leaves a no-op timeout behind).
#[test]
fn polling_ring_recovers_through_the_full_replay() {
    let rc = recovery_cfg();
    let reference = fault_free_reference(&rc, layout(), polling_ring).results;
    let plan = FaultPlan::single_crash(&rc.bcs, NodeId(2), 12);
    let out = run_with_recovery(&rc, layout(), &plan, polling_ring);
    assert!(out.completed, "recovery failed: {:?}", out.abort);
    assert!(out.replayed_responses > 0, "the restore did not fall back to the full replay");
    let got: Vec<u64> = out.results.iter().map(|r| r.unwrap()).collect();
    assert_eq!(got, reference);
    assert_eq!((out.elapsed.as_nanos(), out.events, out.restarts), (19_610_000, 3718, 1));
}

/// Rank 3 waits, inside a batch, for a message nobody sends; the other
/// three ring among themselves and return.
async fn ring_beside_a_stuck_rank(mut mpi: AsyncMpi) -> u64 {
    let me = mpi.rank();
    if me == 3 {
        let r = mpi.irecv(SrcSel::Rank(0), TagSel::Tag(999)).await;
        let calls = vec![mpi.compute_desc(SimDuration::micros(10)), mpi.waitall_desc(&[r])];
        return mpi.batch(calls).await.len() as u64;
    }
    let mut acc = me as u64;
    for it in 0..8i32 {
        mpi.compute(SimDuration::micros(300)).await;
        let s = mpi.isend((me + 1) % 3, it, &[me as u8; 4096]).await;
        let r = mpi.irecv(SrcSel::Rank((me + 2) % 3), TagSel::Tag(it)).await;
        let res = mpi.waitall(&[s, r]).await;
        let data = res[1].0.as_ref().expect("recv payload");
        acc = acc.wrapping_mul(31).wrapping_add(digest(it as usize, data));
    }
    acc
}

/// A restored segment that deadlocks reports its stuck ranks as it did
/// when every restore re-ran every rank, and the ranks that finished keep
/// their results through the abort.
#[test]
fn a_deadlock_after_a_restore_is_reported_as_before() {
    let mut rc = recovery_cfg();
    rc.horizon = SimDuration::millis(30);
    let plan = FaultPlan::single_crash(&rc.bcs, NodeId(1), 4);
    let out = run_with_recovery(&rc, layout(), &plan, ring_beside_a_stuck_rank);
    assert!(!out.completed);
    assert_eq!(out.restarts, 1);
    assert_eq!(
        out.results,
        [Some(5150196803093129348), Some(6146117277640841093), Some(13858669624911480454), None]
    );
    assert_eq!(out.abort.as_deref(), Some(STUCK_AFTER_RESTORE));
    assert_eq!(out.replayed_responses, 0);
}

/// What the restored segment's horizon reports: rank 3 is named with the
/// call it yielded before the capture (the batch, not the sub-call the
/// engine holds), at the capture instant.
const STUCK_AFTER_RESTORE: &str = "MPI job did not complete at t=30.000ms (3 of 4 ranks finished).\n\
    Stuck ranks:\n  rank 3: parked in batch since t=2.000ms\n\
    Either the program deadlocked, a failure halted the machine, or the\n\
    virtual-time horizon was hit (run_until=false).\n\
    Engine state:\n  slice 60 phase 0 started at 30.000ms\n  rank 3: waitall 1 reqs (1 outstanding)\n  \
    node 3: 0 sends posted, 1 recvs posted, 0 remote sends, 0 in flight\n";

/// A restore that stops before it has re-delivered its whole lookahead
/// hands the rest on: the next restore's ranks take the stopped run's
/// steps and then what was left of the lookahead before. A planned crash
/// cannot stop a restored segment that early (only crashes after the
/// declaration stay armed), so horizons do it here: the first run stops
/// 0.9 ms past its last capture, the restore from that image stops 0.3 ms
/// past it, before it has re-delivered what the first run delivered later,
/// and the second restore from the same image ends the job exactly as an
/// uninterrupted run does.
#[test]
fn an_unconsumed_lookahead_is_carried_into_the_next_restore() {
    let cfg = recovery_cfg().bcs;
    let program = Workload::Ring(5);
    let start = |horizon_ns: Option<u64>| {
        let job = Job::new(BcsMpi::new(cfg.clone(), &layout()), layout()).setup(|w, _| w.set_recording(true));
        match horizon_ns {
            Some(ns) => job.horizon(SimDuration::nanos(ns)),
            None => job,
        }
        .start(&program)
    };
    let whole = start(None);
    assert!(whole.completed, "{:?}", whole.diagnostic);

    let first = start(Some(4_900_000));
    let img = first.engine.images.last().expect("the first run captured images").clone();
    let early = img.captured_at.as_nanos() + 300_000;
    let taken = |out: &RunOutcome<u64, BcsMpi>| {
        out.live.as_ref().expect("a halted recording run hands over its ranks").steps()
    };
    let first_steps = taken(&first);
    assert!(taken(&start(Some(early))) < first_steps, "the ranks step between the two horizons");
    let resume = |horizon: Option<u64>, live| {
        let job = Job::new(BcsMpi::restore_from_image(cfg.clone(), &layout(), &img), layout())
            .resume_from(&img.rt, bcs_repro::bcs_mpi::resume_from_boundary)
            .ranks(live);
        match horizon {
            Some(ns) => job.horizon(SimDuration::nanos(ns)),
            None => job,
        }
        .start(&program)
    };
    let second = resume(Some(early), first.live.expect("a halted recording run hands over its ranks"));
    assert!(!second.completed && !second.diverged);
    assert!(
        second.engine.images.iter().all(|i| i.captured_at == img.captured_at),
        "the restore captured no image past the one it started from"
    );
    assert_eq!(taken(&second), first_steps, "what was re-delivered, then what was left");
    let third = resume(None, second.live.expect("a halted recording run hands over its ranks"));
    assert!(third.completed, "{:?}", third.diagnostic);
    assert_eq!(third.results, whole.results);
    assert_eq!(third.finish_times, whole.finish_times);
    assert_eq!(third.engine.checkpoints.to_vec(), whole.engine.checkpoints.to_vec());
}

/// `(node, detected_at ns, restored_from_slice)` of one detection.
type Detected = (usize, u64, Option<u64>);
/// `(run, completed, restarts, elapsed ns, events, detections, FNV-1a of the
/// per-rank results, FNV-1a of the (slice, digest) stream)`.
type Row<'a> = (&'a str, bool, usize, u64, u64, &'a [Detected], u64, u64);

fn fnv(xs: impl IntoIterator<Item = u64>) -> u64 {
    xs.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, x| (h ^ x).wrapping_mul(0x0000_0100_0000_01B3))
}

const GOLDEN_SEEDS: [u64; 12] = [3, 17, 29, 101, 977, 4242, 31337, 65_521, 123_457, 271_828, 500_009, 999_983];

/// Every run of the golden recovery table with its name, its plan and its
/// program: twelve seeded plans (crashes, drops, degradations and a crash
/// in the restored segment) on both fabrics and both workloads, then one
/// plan whose second crash strikes the first restored segment before it
/// captures an image of its own, so the second restore starts from the
/// first one's image again.
fn golden_runs() -> Vec<(String, RecoveryCfg, FaultPlan, Workload)> {
    let profile = FaultProfile { mtbf_slices: Some(6.0), drops: 4, degradations: 1 };
    let mut runs = Vec::new();
    for (fabric, rc) in [("qsnet", recovery_cfg()), ("rdma", rdma_recovery_cfg())] {
        for (name, program) in [("ring", Workload::Ring(5)), ("mixed", Workload::Mixed(4))] {
            for seed in GOLDEN_SEEDS {
                let plan = with_crash_after_restore(FaultPlan::generate(seed, &rc.bcs, 4, 12, &profile), &rc, seed);
                runs.push((format!("{fabric}/{name}/seed={seed}"), rc.clone(), plan, program));
            }
        }
    }
    let rc = RecoveryCfg::new(BcsConfig::default(), 16);
    let mut plan = FaultPlan::single_crash(&rc.bcs, NodeId(1), 17);
    plan.crashes.extend(FaultPlan::single_crash(&rc.bcs, NodeId(2), 27).crashes);
    runs.push(("qsnet/ring/same-image".into(), rc, plan, Workload::Ring(12)));
    runs
}

/// Recorded before restores kept their ranks' coroutines, when every
/// restore re-ran every rank from its entry point. One count moved since:
/// `rdma/mixed/seed=271828` ran 1960 events until a collective's result
/// multicast that missed the dead node stopped completing its microphase;
/// its halted segment now stands still there, 6 events sooner. Every
/// `events` count fell again when a reliable transfer that lands stopped
/// leaving a no-op timeout behind; no other column moved.
const GOLDEN: &[Row<'static>] = &[
    ("qsnet/ring/seed=3", true, 1, 7000000, 707, &[(3, 6016800, Some(8))], 0x8bd81d31fadbca15, 0x0af666b51d578c39),
    ("qsnet/ring/seed=17", true, 2, 7000000, 804, &[(1, 2005600, Some(0)), (0, 6016800, Some(10))], 0x8bd81d31fadbca15, 0x0af666b51d578c39),
    ("qsnet/ring/seed=29", true, 1, 7000000, 583, &[(0, 6016800, Some(12))], 0x8bd81d31fadbca15, 0x0af666b51d578c39),
    ("qsnet/ring/seed=101", true, 1, 7000000, 566, &[(1, 2005600, Some(4))], 0x8bd81d31fadbca15, 0x0af666b51d578c39),
    ("qsnet/ring/seed=977", true, 2, 8500000, 1030, &[(3, 4011200, Some(4)), (2, 8016800, Some(14))], 0x8bd81d31fadbca15, 0xad478ca3de6d9c29),
    ("qsnet/ring/seed=4242", true, 2, 8000000, 823, &[(2, 2005600, Some(4)), (3, 8016800, Some(14))], 0x8bd81d31fadbca15, 0x4de75b627c482bf1),
    ("qsnet/ring/seed=31337", true, 1, 7550400, 722, &[(1, 4011200, Some(6))], 0x8bd81d31fadbca15, 0x0af666b51d578c39),
    ("qsnet/ring/seed=65521", true, 2, 7000000, 902, &[(0, 2005600, Some(0)), (0, 6016800, Some(8))], 0x8bd81d31fadbca15, 0x0af666b51d578c39),
    ("qsnet/ring/seed=123457", true, 2, 7000000, 836, &[(1, 2005600, Some(0)), (0, 6016800, Some(10))], 0x8bd81d31fadbca15, 0x0af666b51d578c39),
    ("qsnet/ring/seed=271828", true, 1, 7000000, 584, &[(2, 2005600, Some(4))], 0x8bd81d31fadbca15, 0x0af666b51d578c39),
    ("qsnet/ring/seed=500009", true, 4, 9769600, 1083, &[(2, 2005600, Some(2)), (0, 5011200, Some(8)), (1, 6005600, Some(12)), (1, 8005600, Some(12))], 0x8bd81d31fadbca15, 0x0af666b51d578c39),
    ("qsnet/ring/seed=999983", true, 2, 7000000, 746, &[(2, 2005600, Some(2)), (1, 7016800, Some(12))], 0x8bd81d31fadbca15, 0x0af666b51d578c39),
    ("qsnet/mixed/seed=3", true, 2, 13000000, 1397, &[(3, 6016800, Some(8)), (0, 10016800, Some(18))], 0x5f905803668772cd, 0xc6921e95fe1b8351),
    ("qsnet/mixed/seed=17", true, 3, 14000000, 1608, &[(1, 2005600, Some(2)), (3, 5011200, Some(10)), (0, 7005600, Some(10))], 0x5f905803668772cd, 0x0ec58bc9f06f330c),
    ("qsnet/mixed/seed=29", true, 2, 13000000, 1286, &[(0, 6016800, Some(10)), (3, 11016800, Some(22))], 0x5f905803668772cd, 0xdfaea2bced3a9a9d),
    ("qsnet/mixed/seed=101", true, 2, 13000000, 1268, &[(1, 2005600, Some(4)), (0, 8016800, Some(14))], 0x5f905803668772cd, 0x9b343faeb2d91e33),
    ("qsnet/mixed/seed=977", true, 2, 14000000, 1549, &[(3, 4011200, Some(4)), (2, 8016800, Some(14))], 0x5f905803668772cd, 0x01c3516e9e4d3eb8),
    ("qsnet/mixed/seed=4242", true, 2, 13000000, 1271, &[(2, 2005600, Some(2)), (3, 7016800, Some(14))], 0x5f905803668772cd, 0xe4b2108eb1fce3e3),
    ("qsnet/mixed/seed=31337", true, 2, 13500000, 1559, &[(1, 4011200, Some(4)), (0, 8016800, Some(12))], 0x5f905803668772cd, 0x0b66d3deb1edf61d),
    ("qsnet/mixed/seed=65521", true, 3, 14000000, 1625, &[(0, 2005600, Some(2)), (0, 5011200, Some(8)), (2, 6005600, Some(10))], 0x5f905803668772cd, 0xff3b56dbf470109e),
    ("qsnet/mixed/seed=123457", true, 2, 13000000, 1436, &[(1, 2005600, Some(0)), (0, 6016800, Some(10))], 0x5f905803668772cd, 0xb3738e0af4d4b449),
    ("qsnet/mixed/seed=271828", true, 2, 13000000, 1261, &[(2, 2005600, Some(4)), (0, 8016800, Some(14))], 0x5f905803668772cd, 0x0112868605fa5349),
    ("qsnet/mixed/seed=500009", true, 4, 14000000, 1838, &[(2, 2005600, Some(2)), (0, 5011200, Some(8)), (1, 6005600, Some(10)), (1, 7005600, Some(10))], 0x5f905803668772cd, 0x76427bde4f10cf16),
    ("qsnet/mixed/seed=999983", true, 2, 13000000, 1349, &[(2, 2005600, Some(2)), (1, 7016800, Some(12))], 0x5f905803668772cd, 0x52aa9a05bf79ba93),
    ("rdma/ring/seed=3", true, 1, 7605000, 947, &[(3, 6148800, Some(8))], 0x8bd81d31fadbca15, 0xcf5760f9b7fe0cf2),
    ("rdma/ring/seed=17", true, 2, 7180479, 1008, &[(1, 2049600, Some(0)), (0, 6148800, Some(10))], 0x8bd81d31fadbca15, 0x62a1bc2c780d9ade),
    ("rdma/ring/seed=29", true, 1, 7540000, 979, &[(0, 6148800, Some(10))], 0x8bd81d31fadbca15, 0xc2c6c87a437aa7ba),
    ("rdma/ring/seed=101", true, 2, 7105000, 1029, &[(1, 2049600, Some(2)), (0, 7433800, Some(12))], 0x8bd81d31fadbca15, 0x62a1bc2c780d9ade),
    ("rdma/ring/seed=977", true, 2, 8600479, 1194, &[(3, 4099200, Some(4)), (2, 8148800, Some(12))], 0x8bd81d31fadbca15, 0x17cefbbda93b7869),
    ("rdma/ring/seed=4242", true, 2, 8570000, 1154, &[(2, 2049600, Some(2)), (3, 7428800, Some(12))], 0x8bd81d31fadbca15, 0x04c379df4886f031),
    ("rdma/ring/seed=31337", true, 1, 7560000, 878, &[(1, 4099200, Some(6))], 0x8bd81d31fadbca15, 0x62a1bc2c780d9ade),
    ("rdma/ring/seed=65521", true, 2, 7605000, 1193, &[(0, 2049600, Some(0)), (0, 6153400, Some(6))], 0x8bd81d31fadbca15, 0x6433d875e5b5a525),
    ("rdma/ring/seed=123457", true, 2, 7605000, 1079, &[(1, 2049600, Some(0)), (0, 6148800, Some(10))], 0x8bd81d31fadbca15, 0xc2c6c87a437aa7ba),
    ("rdma/ring/seed=271828", true, 2, 7605000, 1042, &[(2, 2049600, Some(2)), (0, 7623800, Some(12))], 0x8bd81d31fadbca15, 0x6433d875e5b5a525),
    ("rdma/ring/seed=500009", true, 3, 9380000, 1117, &[(2, 2049600, Some(2)), (0, 5379200, Some(6)), (1, 7099200, Some(12))], 0x8bd81d31fadbca15, 0x62a1bc2c780d9ade),
    ("rdma/ring/seed=999983", true, 2, 7300000, 924, &[(2, 2049600, Some(2)), (1, 7433800, Some(12))], 0x8bd81d31fadbca15, 0x62a1bc2c780d9ade),
    ("rdma/mixed/seed=3", true, 2, 13255000, 1779, &[(3, 6105674, Some(8)), (0, 10228800, Some(18))], 0x5f905803668772cd, 0xc6921e95fe1b8351),
    ("rdma/mixed/seed=17", true, 3, 13329279, 1889, &[(1, 2049600, Some(2)), (3, 5099200, Some(8)), (0, 6140079, Some(10))], 0x5f905803668772cd, 0x4dfb0bd8f8b29399),
    ("rdma/mixed/seed=29", true, 2, 13255000, 1795, &[(0, 6148800, Some(10)), (3, 11148800, Some(20))], 0x5f905803668772cd, 0xdfaea2bced3a9a9d),
    ("rdma/mixed/seed=101", true, 2, 13255000, 1729, &[(1, 2049600, Some(4)), (0, 8148800, Some(12))], 0x5f905803668772cd, 0x9b343faeb2d91e33),
    ("rdma/mixed/seed=977", true, 2, 13710158, 1882, &[(3, 4099200, Some(4)), (2, 8148800, Some(10))], 0x5f905803668772cd, 0x4dfb0bd8f8b29399),
    ("rdma/mixed/seed=4242", true, 2, 13255000, 1869, &[(2, 2049600, Some(2)), (3, 7148800, Some(10))], 0x5f905803668772cd, 0xe4b2108eb1fce3e3),
    ("rdma/mixed/seed=31337", true, 2, 13455079, 1846, &[(1, 4099200, Some(4)), (0, 8148800, Some(12))], 0x5f905803668772cd, 0x01659d91f1619fbd),
    ("rdma/mixed/seed=65521", true, 3, 13524279, 1835, &[(0, 2049600, Some(2)), (0, 5099200, Some(8)), (2, 6140079, Some(10))], 0x5f905803668772cd, 0xc79d91999ccb8995),
    ("rdma/mixed/seed=123457", true, 2, 13264279, 1825, &[(1, 2049600, Some(0)), (0, 6148800, Some(10))], 0x5f905803668772cd, 0x12b00bc09a3c5469),
    ("rdma/mixed/seed=271828", true, 2, 13255000, 1794, &[(2, 2049600, Some(2)), (0, 7148800, Some(12))], 0x5f905803668772cd, 0xc3feaf9a4fbcd6b3),
    ("rdma/mixed/seed=500009", true, 3, 14889279, 2034, &[(2, 2049600, Some(2)), (0, 5099200, Some(6)), (1, 7539679, Some(10))], 0x5f905803668772cd, 0x99eb8fc98fbf3df7),
    ("rdma/mixed/seed=999983", true, 2, 13264279, 1845, &[(2, 2049600, Some(2)), (1, 7148800, Some(10))], 0x5f905803668772cd, 0x9b343faeb2d91e33),
    ("qsnet/ring/same-image", true, 2, 17000000, 1923, &[(1, 10028000, Some(16)), (2, 14016800, Some(16))], 0x6a278c23efa10a15, 0x4659611f1ae12b94),
];

/// Every restore of the table takes over the halted segment's ranks and
/// re-feeds no response to a re-booted program, yet every run ends as it
/// did when every restore re-ran every rank from its entry point.
#[test]
fn every_recovery_reproduces_the_golden_table() {
    let mut actual = Vec::new();
    for (name, rc, plan, program) in golden_runs() {
        let out = run_with_recovery(&rc, layout(), &plan, program);
        assert_eq!(out.replayed_responses, 0, "{name} fell back to the full replay");
        let detections: Vec<Detected> = out
            .detections
            .iter()
            .map(|d| (d.node.0, d.detected_at.as_nanos(), d.restored_from_slice))
            .collect();
        let results = fnv(out.results.iter().map(|r| r.unwrap_or(u64::MAX)));
        let checkpoints = fnv(out.engine.checkpoints.iter().flat_map(|&(slice, digest)| [slice, digest]));
        let elapsed = out.elapsed.as_nanos();
        actual.push((name, (out.completed, out.restarts, elapsed, out.events, detections, results, checkpoints)));
    }
    let table: String = actual
        .iter()
        .map(|(name, (c, r, ns, ev, d, res, ck))| {
            format!("    ({name:?}, {c}, {r}, {ns}, {ev}, &{d:?}, {res:#018x}, {ck:#018x}),\n")
        })
        .collect();
    for ((name, (c, r, ns, ev, d, res, ck)), want) in actual.iter().zip(GOLDEN) {
        let got: Row = (name, *c, *r, *ns, *ev, d, *res, *ck);
        assert_eq!(got, *want, "the whole table is now:\n{table}");
    }
    assert_eq!(actual.len(), GOLDEN.len(), "the whole table is now:\n{table}");
}

// Satellite 3: property suite over random fault plans.
proplite! {
    // Every case runs 2–3 full machine simulations; keep the counts tight.
    #![config(cases = 12, max_shrink_iters = 6)]

    /// (a) Whatever a seeded plan throws at the machine — crashes, drops,
    /// degradation windows — recovery yields results bit-identical to the
    /// fault-free run.
    #[test]
    fn random_fault_plans_recover_bit_identically(seed in 1u64..1_000_000u64) {
        let rc = recovery_cfg();
        let profile = FaultProfile { mtbf_slices: Some(6.0), drops: 4, degradations: 1 };
        let plan = with_crash_after_restore(FaultPlan::generate(seed, &rc.bcs, 4, 12, &profile), &rc, seed);
        let reference = reference_results(&rc, Workload::of(seed));
        let out = run_with_recovery(&rc, layout(), &plan, Workload::of(seed));
        prop_assert!(out.completed, "seed {} failed: {:?}", seed, out.abort);
        let got: Vec<u64> = out.results.iter().map(|r| r.unwrap()).collect();
        prop_assert_eq!(got, reference);
    }

    /// (a') The same guarantee holds on the RDMA-channel fabric: random
    /// fault plans — crashes, bulk-sequence drops, degradation windows —
    /// recover bit-identically with the software-emulated collectives
    /// carrying the strobe and descriptor exchange.
    #[test]
    fn random_fault_plans_recover_bit_identically_on_rdma(seed in 1u64..1_000_000u64) {
        let rc = rdma_recovery_cfg();
        let profile = FaultProfile { mtbf_slices: Some(6.0), drops: 4, degradations: 1 };
        let plan = with_crash_after_restore(FaultPlan::generate(seed, &rc.bcs, 4, 12, &profile), &rc, seed);
        let reference = reference_results(&rc, Workload::of(seed));
        let out = run_with_recovery(&rc, layout(), &plan, Workload::of(seed));
        prop_assert!(out.completed, "seed {} failed: {:?}", seed, out.abort);
        let got: Vec<u64> = out.results.iter().map(|r| r.unwrap()).collect();
        prop_assert_eq!(got, reference);
    }

    /// (b') RDMA fault runs replay exactly under the same seed: restored
    /// sequencer/port clocks land the machine on the identical timeline.
    #[test]
    fn same_seed_replays_the_rdma_fault_run_exactly(seed in 1u64..1_000_000u64) {
        let rc = rdma_recovery_cfg();
        let profile = FaultProfile { mtbf_slices: Some(5.0), drops: 3, degradations: 1 };
        let plan = with_crash_after_restore(FaultPlan::generate(seed, &rc.bcs, 4, 10, &profile), &rc, seed);
        let a = run_with_recovery(&rc, layout(), &plan, Workload::of(seed));
        let b = run_with_recovery(&rc, layout(), &plan, Workload::of(seed));
        prop_assert_eq!(a.completed, b.completed);
        prop_assert_eq!(a.restarts, b.restarts);
        prop_assert_eq!(a.elapsed.as_nanos(), b.elapsed.as_nanos());
        prop_assert_eq!(a.results, b.results);
        prop_assert_eq!(a.engine.checkpoints.to_vec(), b.engine.checkpoints.to_vec());
    }

    /// (b) The whole fault experiment is deterministic: the same seed
    /// reproduces the same detections, restore points, checkpoint digests
    /// and virtual finish time.
    #[test]
    fn same_seed_replays_the_fault_run_exactly(seed in 1u64..1_000_000u64) {
        let rc = recovery_cfg();
        let profile = FaultProfile { mtbf_slices: Some(5.0), drops: 3, degradations: 1 };
        let plan = with_crash_after_restore(FaultPlan::generate(seed, &rc.bcs, 4, 10, &profile), &rc, seed);
        let a = run_with_recovery(&rc, layout(), &plan, Workload::of(seed));
        let b = run_with_recovery(&rc, layout(), &plan, Workload::of(seed));
        prop_assert_eq!(a.completed, b.completed);
        prop_assert_eq!(a.restarts, b.restarts);
        prop_assert_eq!(a.elapsed.as_nanos(), b.elapsed.as_nanos());
        prop_assert_eq!(a.results, b.results);
        prop_assert_eq!(a.engine.checkpoints.to_vec(), b.engine.checkpoints.to_vec());
        let da: Vec<_> = a.detections.iter()
            .map(|d| (d.node.0, d.detected_at.as_nanos(), d.restored_from_slice)).collect();
        let db: Vec<_> = b.detections.iter()
            .map(|d| (d.node.0, d.detected_at.as_nanos(), d.restored_from_slice)).collect();
        prop_assert_eq!(da, db);
    }

    /// (c) Incremental checkpoint images are indistinguishable from deep
    /// clones: restoring — and resuming the whole job — from either member
    /// of each image/materialized pair is byte-identical, under random
    /// fault plans, and restores the digest recorded at the capture. The
    /// deep clones are taken *while the run keeps mutating the engine*
    /// (see [`shadow_images`]), so a mutation that reaches a shared image
    /// layer shows up as a divergence here, and a NIC change the capture
    /// did not copy (one that bypasses `Nics::make_mut`) as a digest the
    /// image no longer restores to.
    #[test]
    fn incremental_images_recover_identically_to_deep_clones(seed in 1u64..1_000_000u64) {
        let rc = recovery_cfg();
        let profile = FaultProfile { mtbf_slices: None, drops: 3, degradations: 1 };
        let plan = FaultPlan::generate(seed, &rc.bcs, 4, 10, &profile);
        let shadow: Rc<RefCell<Vec<CheckpointImage>>> = Rc::new(RefCell::new(Vec::new()));
        let sh = shadow.clone();
        let timeslice = rc.bcs.timeslice;
        let out = Job::new(BcsMpi::new(rc.bcs.clone(), &layout()), layout())
            .horizon(rc.horizon)
            .setup(move |w, sim| {
                w.set_recording(true);
                let net = w.bcs().fabric.net_mut();
                net.plan_drops(plan.drops.clone());
                for d in &plan.degradations {
                    net.degrade_link(d.clone());
                }
                shadow_images(w, sim, sh, timeslice);
            })
            .start(&Workload::of(seed));
        prop_assert!(out.completed, "seed {} failed: {:?}", seed, out.diagnostic);
        let mut shadow = shadow.borrow_mut();
        prop_assert!(!shadow.is_empty(), "no image was shadowed mid-run");
        // Boundaries that fell between the last poll and job completion are
        // shadowed now; the engine is quiescent for those, but the bulk of
        // the pairs above were cloned against a still-running machine.
        while shadow.len() < out.engine.images.len() {
            let img = &out.engine.images[shadow.len()];
            shadow.push(img.materialize());
        }
        // Every image restores to the same machine as its deep clone, and
        // both still reconstruct the digest recorded at capture time.
        for (inc, deep) in out.engine.images.iter().zip(shadow.iter()) {
            let ei = BcsMpi::restore_from_image(rc.bcs.clone(), &layout(), inc);
            let ed = BcsMpi::restore_from_image(rc.bcs.clone(), &layout(), deep);
            prop_assert_eq!(ei.capture_checkpoint(), ed.capture_checkpoint());
            prop_assert_eq!(ei.checkpoint_digest(), inc.digest);
            prop_assert_eq!(ed.checkpoint_digest(), inc.digest);
        }
        // Resuming the job to completion from a mid-run pair agrees too:
        // same results, same virtual finish, same downstream digests.
        let mid = out.engine.images.len() / 2;
        let mut outs = Vec::new();
        for img in [&out.engine.images[mid], &shadow[mid]] {
            let engine = BcsMpi::restore_from_image(rc.bcs.clone(), &layout(), img);
            let o = Job::new(engine, layout())
                .horizon(rc.horizon)
                .resume_from(&img.rt, bcs_repro::bcs_mpi::resume_from_boundary)
                .start(&Workload::of(seed));
            prop_assert!(o.completed, "resume from slice {} failed", img.slice);
            outs.push((o.results, o.elapsed.as_nanos(), o.engine.checkpoints.to_vec()));
        }
        prop_assert_eq!(&outs[0], &outs[1]);
    }
}
