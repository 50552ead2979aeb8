//! The MM's crash-recovery driver: run, detect, restore, resume.
//!
//! [`run_with_recovery`] executes an MPI job as a sequence of *segments*.
//! Segment 0 is an ordinary run with the fault plan armed and the heartbeat
//! monitor installed. When the monitor declares a node dead (or a
//! data-channel transfer exhausts its retries), the machine halts; the
//! driver then restores every survivor from the last slice-boundary
//! [`CheckpointImage`] and resumes the slice protocol on the original
//! absolute timeline. Crashed nodes are modeled as repaired-by-reboot: the
//! fabric restore revives them, and only crashes scheduled *after* the
//! detection instant remain armed.
//!
//! The restore re-runs the rework, not the history. The halted segment's
//! rank coroutines are handed over ([`mpi_api::runtime::LiveRanks`]): each
//! has been delivered the image's history and then its lookahead, and the
//! restored segment checks every lookahead response it re-delivers before
//! crediting the rank with the step it took after it. A response can
//! differ only if the halted segment delivered it after the fault; the
//! restored segment then stops as diverged, is discarded, and the image is
//! restored again with each rank re-booted and replayed through the
//! recorded responses ([`RecoveryOutcome::replayed_responses`] counts
//! them).
//!
//! Recovery is impossible when no image exists yet or the restart budget is
//! spent; the driver then performs a clean machine-wide abort, returning a
//! [`RecoveryOutcome`] with the reason instead of panicking.

use crate::plan::{CrashEvent, FaultPlan};
use bcs_core::BcsWorld;
use bcs_mpi::{BcsConfig, BcsMpi, CheckpointImage, FailureInfo};
use mpi_api::RankProgram;
use mpi_api::runtime::{ClusterWorld, Job, JobLayout, LiveRanks, RunOutcome};
use qsnet::NodeId;
use simcore::{Sim, SimDuration, SimTime};
use std::rc::Rc;

type W = ClusterWorld<BcsMpi>;

/// Configuration of the recovery machinery around a [`BcsConfig`].
#[derive(Clone, Debug)]
pub struct RecoveryCfg {
    /// Engine configuration; must have `checkpoint_every = Some(k)` (see
    /// [`RecoveryCfg::new`]). The run records responses, so every
    /// checkpoint boundary captures a restorable image.
    pub bcs: BcsConfig,
    /// Restarts allowed before the machine aborts.
    pub max_restarts: usize,
    /// Virtual-time horizon of every segment (see `Job::horizon`).
    pub horizon: SimDuration,
}

impl RecoveryCfg {
    /// Recovery-ready configuration: enables restorable images every
    /// `checkpoint_every` slices, arms the default retry policy for the
    /// data channel, and strobes heartbeats every 4 slices
    /// ([`RecoveryCfg::heartbeat_period`]).
    pub fn new(mut bcs: BcsConfig, checkpoint_every: u64) -> RecoveryCfg {
        bcs.checkpoint_every = Some(checkpoint_every);
        if bcs.retry.is_none() {
            bcs.retry = Some(bcs_core::retry::RetryPolicy::default());
        }
        RecoveryCfg {
            bcs,
            max_restarts: 8,
            horizon: SimDuration::secs(60),
        }
    }

    /// Heartbeat strobe period: four slices. Detection is bounded by two
    /// periods: a node that dies right after acking beat `b` is caught at
    /// beat `b + 2` at the latest.
    pub fn heartbeat_period(&self) -> SimDuration {
        self.bcs.timeslice * 4
    }
}

/// One detected failure and how the machine responded.
#[derive(Clone, Debug)]
pub struct Detection {
    /// Node declared dead.
    pub node: NodeId,
    /// Injected crash instant, when the declaration matches a planned
    /// crash (`None` for retry-exhaustion declarations against a live
    /// node, which have no single crash instant).
    pub crashed_at: Option<SimTime>,
    /// Virtual instant of the MM's declaration.
    pub detected_at: SimTime,
    /// Slice of the checkpoint the survivors were restored from (`None`
    /// when the failure ended in an abort instead).
    pub restored_from_slice: Option<u64>,
    /// Capture instant of that checkpoint (`None` on abort).
    pub restored_from_at: Option<SimTime>,
}

impl Detection {
    /// Crash-to-declaration latency, when the crash instant is known.
    pub fn latency(&self) -> Option<SimDuration> {
        self.crashed_at.map(|c| self.detected_at.since(c))
    }

    /// Virtual time the restore discards and replays: everything between
    /// the checkpoint capture and the declaration. `None` on abort.
    pub fn rework(&self) -> Option<SimDuration> {
        self.restored_from_at.map(|r| self.detected_at.since(r))
    }
}

/// Outcome of [`run_with_recovery`].
pub struct RecoveryOutcome<R> {
    /// True when every rank's program returned (possibly after restarts).
    pub completed: bool,
    /// Clean-abort reason when the machine gave up.
    pub abort: Option<String>,
    /// Per-rank results (`None` for ranks lost to an abort).
    pub results: Vec<Option<R>>,
    /// Virtual time at which the job finished or the machine stopped.
    pub elapsed: SimDuration,
    /// Number of checkpoint restores performed.
    pub restarts: usize,
    /// Every failure the MM declared, in order.
    pub detections: Vec<Detection>,
    /// The final segment's engine (stats, checkpoints, trace).
    pub engine: BcsMpi,
    /// Discrete events executed across all segments (a restore attempt
    /// that diverged and was discarded is not counted).
    pub events: u64,
    /// Responses re-fed to re-booted rank programs over every restore: a
    /// restore that takes over the halted segment's ranks re-feeds none,
    /// one that falls back to the full replay the image's whole log.
    pub replayed_responses: u64,
}

/// Run `program` under `plan`, recovering from failures at slice-boundary
/// checkpoints. See the module docs for the segment protocol.
pub fn run_with_recovery<P>(
    cfg: &RecoveryCfg,
    layout: JobLayout,
    plan: &FaultPlan,
    program: P,
) -> RecoveryOutcome<P::Out>
where
    P: RankProgram,
{
    assert!(
        cfg.bcs.checkpoint_every.is_some(),
        "run_with_recovery requires restorable checkpoints \
         (BcsConfig::checkpoint_every; see RecoveryCfg::new)"
    );
    if !plan.drops.is_empty() {
        assert!(
            cfg.bcs.retry.is_some(),
            "a plan with data-channel drops needs BcsConfig::retry to be recoverable"
        );
    }

    let mut detections: Vec<Detection> = Vec::new();
    let mut restarts = 0usize;
    let mut events = 0u64;
    let mut replayed_responses = 0u64;
    let mut latest: Option<CheckpointImage> = None;

    // Segment 0: fresh run with the full plan armed.
    let mut outcome = Job::new(BcsMpi::new(cfg.bcs.clone(), &layout), layout.clone())
        .horizon(cfg.horizon)
        .setup(|w, sim| {
            w.set_recording(true);
            inject(w, sim, &plan.crashes, plan, cfg.heartbeat_period(), SimTime::ZERO);
        })
        .start(&program);

    loop {
        events += outcome.events;
        if outcome.completed {
            return RecoveryOutcome {
                completed: true,
                abort: None,
                results: outcome.results,
                elapsed: outcome.elapsed,
                restarts,
                detections,
                engine: outcome.engine,
                events,
                replayed_responses,
            };
        }
        let Some(fail) = outcome.engine.failed.clone() else {
            // Halted with no declared failure: deadlock or horizon. Nothing
            // a restore could fix — abort with the runtime's diagnosis.
            let why = outcome
                .diagnostic
                .clone()
                .unwrap_or_else(|| "run stopped without a declared failure".into());
            return aborted(outcome, restarts, detections, events, replayed_responses, why);
        };
        let crashed_at = planned_crash_instant(plan, &fail);
        if restarts >= cfg.max_restarts {
            detections.push(Detection {
                node: fail.node,
                crashed_at,
                detected_at: fail.at,
                restored_from_slice: None,
                restored_from_at: None,
            });
            let why = format!(
                "restart budget exhausted: {} of {} restores used when node {} \
                 was declared dead at {} ({})",
                restarts, cfg.max_restarts, fail.node.0, fail.at, fail.reason
            );
            return aborted(outcome, restarts, detections, events, replayed_responses, why);
        }
        // The halted engine is about to be dropped: take its newest image
        // rather than copy it. A segment that died before its first capture
        // restores from its predecessor's image again.
        if let Some(img) = outcome.engine.images.pop() {
            latest = Some(img);
        }
        let Some(img) = latest.as_ref() else {
            detections.push(Detection {
                node: fail.node,
                crashed_at,
                detected_at: fail.at,
                restored_from_slice: None,
                restored_from_at: None,
            });
            let why = format!(
                "no checkpoint image to restore from: node {} declared dead at {} ({})",
                fail.node.0, fail.at, fail.reason
            );
            return aborted(outcome, restarts, detections, events, replayed_responses, why);
        };
        detections.push(Detection {
            node: fail.node,
            crashed_at,
            detected_at: fail.at,
            restored_from_slice: Some(img.slice),
            restored_from_at: Some(img.captured_at),
        });
        restarts += 1;

        // Crashes at or before the detection are repaired by the restore
        // (the fabric snapshot revives every node); later ones stay armed.
        let remaining = plan.crashes_after(fail.at);
        let restore = |live: Option<LiveRanks>| {
            let engine = BcsMpi::restore_from_image(cfg.bcs.clone(), &layout, img);
            let job = Job::new(engine, layout.clone())
                .horizon(cfg.horizon)
                .resume_from(&img.rt, bcs_mpi::resume_from_boundary)
                .setup(|w, sim| inject(w, sim, &remaining, plan, cfg.heartbeat_period(), img.captured_at));
            match live {
                Some(live) => job.ranks(live),
                None => job,
            }
            .start(&program)
        };
        // The halted segment's ranks have been delivered the image's
        // history and then their lookahead: the restore takes them over.
        // It re-delivers the lookahead and stops, diverged, at the first
        // response that differs — only possible for one the halted segment
        // delivered after the fault. That attempt is discarded, events and
        // all, and the same image restored again by the full replay.
        outcome = match outcome.live.take().map(|live| restore(Some(live))) {
            Some(reused) if !reused.diverged => reused,
            _ => {
                replayed_responses += img.rt.log.len() as u64;
                restore(None)
            }
        };
    }
}

/// Arm a segment's faults and install the heartbeat monitor.
///
/// `monitor_at` is the instant the MM (re)installs the monitor: `ZERO` for
/// a fresh run, the checkpoint's capture instant for a resumed one — the
/// replay window before it must stay free of monitor traffic. `start_on`
/// resets the ack words at install, so restored (stale-high) ack counters
/// cannot mask a dead node.
fn inject(
    w: &mut W,
    sim: &mut Sim<W>,
    crashes: &[CrashEvent],
    plan: &FaultPlan,
    heartbeat_period: SimDuration,
    monitor_at: SimTime,
) {
    let net = w.bcs().fabric.net_mut();
    net.plan_drops(plan.drops.clone());
    for d in &plan.degradations {
        net.degrade_link(d.clone());
    }
    for c in crashes {
        let node = c.node;
        sim.schedule_at(c.at, move |w: &mut W, _sim| {
            w.bcs().fabric.net_mut().kill_node(node);
        });
    }

    let compute = w.layout.compute_nodes;
    let hb_cfg = storm::heartbeat::HeartbeatConfig {
        period: heartbeat_period,
        mgmt: NodeId(compute),
        nodes: (0..compute).map(NodeId).collect(),
    };
    let on_detect: storm::heartbeat::DetectFn<W> = Rc::new(|w, sim, node, beat| {
        if w.engine.failed.is_none() {
            w.engine.failed = Some(FailureInfo {
                node,
                at: sim.now(),
                reason: format!("heartbeat: missed liveness epoch (beat {beat})"),
            });
        }
    });
    if monitor_at == SimTime::ZERO {
        storm::heartbeat::start_on(w, sim, hb_cfg, Some(on_detect));
    } else {
        sim.schedule_at(monitor_at, move |w: &mut W, sim| {
            storm::heartbeat::start_on(w, sim, hb_cfg, Some(on_detect));
        });
    }
}

/// The most recent planned crash of `fail.node` at or before the
/// declaration — the injection this detection answers.
fn planned_crash_instant(plan: &FaultPlan, fail: &FailureInfo) -> Option<SimTime> {
    plan.crashes
        .iter()
        .filter(|c| c.node == fail.node && c.at <= fail.at)
        .map(|c| c.at)
        .max()
}

/// The machine gives up on a halted segment. The ranks that had finished
/// keep their results; a recording segment holds them with its live ranks.
fn aborted<R: 'static>(
    outcome: RunOutcome<R, BcsMpi>,
    restarts: usize,
    detections: Vec<Detection>,
    events: u64,
    replayed_responses: u64,
    why: String,
) -> RecoveryOutcome<R> {
    let results = match outcome.live {
        Some(live) => live.take_results(&outcome.finish_times),
        None => outcome.results,
    };
    RecoveryOutcome {
        completed: false,
        abort: Some(why),
        results,
        elapsed: outcome.elapsed,
        restarts,
        detections,
        engine: outcome.engine,
        events,
        replayed_responses,
    }
}

/// Helper for experiments and tests: the fault-free reference run of the
/// same program (no monitor, no recording — so no images — and no faults)
/// under `cfg`'s engine configuration and horizon: the timing baseline
/// against which checkpoint overhead and recovery cost are measured.
pub fn fault_free_reference<P>(
    cfg: &RecoveryCfg,
    layout: JobLayout,
    program: P,
) -> mpi_api::runtime::RunResult<P::Out, BcsMpi>
where
    P: RankProgram,
{
    let mut bcs = cfg.bcs.clone();
    bcs.checkpoint_cost = SimDuration::ZERO;
    Job::new(BcsMpi::new(bcs, &layout), layout).horizon(cfg.horizon).start(&program).expect_complete()
}
