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
use bcs_repro::mpi_api::runtime::{ClusterWorld, Job, JobLayout};
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
    let bound = rc.heartbeat_period * 2 + rc.bcs.timeslice;
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
/// engine, so if any post-capture mutation leaked into a shared
/// (copy-on-write) image layer, the incremental image and its deep clone
/// would diverge.
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
        prop_assert_eq!(&a.engine.checkpoints, &b.engine.checkpoints);
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
        prop_assert_eq!(&a.engine.checkpoints, &b.engine.checkpoints);
        let da: Vec<_> = a.detections.iter()
            .map(|d| (d.node.0, d.detected_at.as_nanos(), d.restored_from_slice)).collect();
        let db: Vec<_> = b.detections.iter()
            .map(|d| (d.node.0, d.detected_at.as_nanos(), d.restored_from_slice)).collect();
        prop_assert_eq!(da, db);
    }

    /// (c) Incremental (copy-on-write) checkpoint images are
    /// indistinguishable from deep clones: restoring — and resuming the
    /// whole job — from either member of each image/materialized pair is
    /// byte-identical, under random fault plans. The deep clones are taken
    /// *while the run keeps mutating the engine* (see [`shadow_images`]),
    /// so a missed unshare anywhere in the COW capture path shows up as a
    /// divergence here.
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
            outs.push((o.results, o.elapsed.as_nanos(), o.engine.checkpoints.clone()));
        }
        prop_assert_eq!(&outs[0], &outs[1]);
    }
}
