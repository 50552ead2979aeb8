//! The global synchronization protocol (§4.2, Figure 5).
//!
//! The Strobe Sender on the management node divides time into slices and
//! each slice into five microphases:
//!
//! ```text
//! | DEM | MSM |      P2P      |  BBM  |  RM  |
//! |  global msg scheduling    |  transmission |
//! ```
//!
//! Transitions are driven by the SS: it checks with `Compare-And-Write`
//! that every compute node's `MP_DONE` word (a monotone count of completed
//! microphases) has reached the target, re-polling every `POLL_INTERVAL`, and
//! then multicasts the next *microstrobe* with `Xfer-And-Signal`; the Strobe
//! Receiver on each node wakes the NIC threads of the new microphase.
//!
//! Suspended application processes are restarted by the Node Manager at the
//! slice boundary (`restart_queue`), which is what produces the paper's
//! 1.5-slice average blocking delay.

use crate::engine::{BW, BcsMpi, DESC_BYTES, DESC_COST, POLL_INTERVAL};
use crate::words;
use bcs_core::{BcsCluster, CmpOp, DeliverFn, Reached, XsOpts};
use mpi_api::runtime::drain;
use qsnet::NodeId;
use simcore::{Sim, SimTime};
use std::ops::Range;
use std::rc::Rc;

/// Number of microphases per slice.
pub(crate) const PHASES: u32 = 5;

/// Start the SS loop: the first slice begins once the runtime is up
/// (`init_delay` after t = 0; zero by default).
pub(crate) fn start_strobe_loop(w: &mut BW, sim: &mut Sim<BW>) {
    let at = SimTime::ZERO + w.engine.cfg.init_delay;
    sim.schedule_at(at, |w: &mut BW, sim| {
        slice_start(w, sim, 0);
        drain(w, sim);
    });
}

/// Begin slice `slice` at the current instant: restart suspended processes,
/// reset budgets, and strobe the DEM.
fn slice_start(w: &mut BW, sim: &mut Sim<BW>, slice: u64) {
    {
        let e = &mut w.engine;
        e.slice = slice;
        e.phase = 0;
        e.slice_started_at = sim.now();
        e.stats.slices += 1;
        let budget = e.cfg.p2p_budget();
        e.src_budget.refill(budget);
        e.dst_budget.refill(budget);
    }
    // Debug trace (§1): close out the previous slice's activity record.
    if w.engine.cfg.trace_slices && slice > 0 {
        let e = &mut w.engine;
        let s = &e.stats;
        let c = e.trace_cursor;
        e.trace.push(crate::trace::SliceRecord {
            slice: slice - 1,
            started_at: e.slice_started_at,
            descriptors: s.descriptors_exchanged - c.descriptors,
            matches: s.matches - c.matches,
            chunks: s.chunks - c.chunks,
            bytes: s.p2p_bytes - c.bytes,
            collectives: (s.barriers + s.bcasts + s.reduces) - c.collectives,
            restarts: e.restart_queue.len(),
        });
        e.trace_cursor = crate::trace::TraceCursor {
            descriptors: s.descriptors_exchanged,
            matches: s.matches,
            chunks: s.chunks,
            bytes: s.p2p_bytes,
            collectives: s.barriers + s.bcasts + s.reduces,
        };
    }

    // Fault-tolerance hook (§6): the protocol is quiescent at the boundary,
    // so the global communication state has a well-defined snapshot.
    let mut ckpt_cost = simcore::SimDuration::ZERO;
    if let Some(k) = w.engine.cfg.checkpoint_every {
        if k > 0 && slice % k == 0 {
            let digest = w.engine.checkpoint_digest();
            w.engine.checkpoints.push((slice, digest));
            if w.recording() {
                let img = crate::checkpoint::capture_image(w, sim.now(), digest);
                w.engine.images.push(img);
            }
            // Compiled schedules are not part of the image; drop them at
            // every capture so a run restored from this boundary (cold
            // detectors) and the original run relearn from the same point.
            for d in &mut w.engine.sched_detect {
                d.invalidate();
            }
            ckpt_cost = w.engine.cfg.checkpoint_cost;
        }
    }

    // Serializing the checkpoint costs NM/NIC time; the DEM strobe (and the
    // restarts) wait for it, so checkpointing overhead shows up as ordinary
    // slice overrun pressure.
    if ckpt_cost.as_nanos() > 0 {
        sim.schedule_in(ckpt_cost, move |w: &mut BW, sim| {
            boundary_resume(w, sim, slice);
            drain(w, sim);
        });
    } else {
        boundary_resume(w, sim, slice);
    }
}

/// The post-checkpoint tail of a slice boundary: gang decisions, NM
/// restarts, and the DEM strobe.
fn boundary_resume(w: &mut BW, sim: &mut Sim<BW>, slice: u64) {
    // Gang scheduling (§5.4): pick each node's job for this slice and
    // advance pending computes, before restarts (freshly restarted ranks
    // compute under the decision just made).
    if w.engine.gang.is_some() {
        gang_on_boundary(w, sim);
    }

    // NM: restart every process whose blocking operation completed during
    // the previous slice — "restarted at the beginning of the time slice".
    for (rank, resp) in std::mem::take(&mut w.engine.restart_queue) {
        w.resume(rank, resp);
    }

    strobe_phase(w, sim, slice, 0);
}

/// Restart the protocol after an engine restore: runs the slice boundary's
/// post-checkpoint tail (gang decision, NM restarts, DEM strobe) for the
/// engine's current slice. Intended as the `kickoff` of
/// [`mpi_api::runtime::Job::resume_from`], scheduled at the image's capture
/// instant; the checkpoint hook is deliberately skipped — the boundary was
/// already captured, and re-capturing would duplicate the image.
pub fn resume_from_boundary(w: &mut BW, sim: &mut Sim<BW>) {
    let slice = w.engine.slice;
    boundary_resume(w, sim, slice);
}

/// SS: multicast the microstrobe for `phase`; SRs start the phase's NIC
/// threads on delivery.
fn strobe_phase(w: &mut BW, sim: &mut Sim<BW>, slice: u64, phase: u32) {
    w.engine.phase = phase;
    let mgmt = w.engine.mgmt;
    let job_nodes = w.engine.job_nodes();
    let on_deliver: DeliverFn<BW> =
        Rc::new(move |w: &mut BW, sim: &mut Sim<BW>, reached: Reached<'_>| {
            on_microstrobe(w, sim, slice, phase, reached);
        });
    BcsCluster::xfer_and_signal(
        w,
        sim,
        mgmt,
        job_nodes,
        DESC_BYTES,
        XsOpts { on_deliver: Some(on_deliver) },
    );
    // First completion check after one poll interval.
    sim.schedule_in(POLL_INTERVAL, move |w: &mut BW, sim| {
        poll_phase_done(w, sim, slice, phase);
        drain(w, sim);
    });
}

/// A microphase as the SRs see it: whether a node has anything to do in it,
/// judged from the engine's state without touching it, and the NIC-thread
/// work the node then starts. The predicate is true exactly when the work
/// would be more than one look at empty queues — one work item of
/// `DESC_COST` that leaves nothing behind (DESIGN §9).
type Microphase = (fn(&BcsMpi, NodeId) -> bool, fn(&mut BW, &mut Sim<BW>, NodeId));

const MICROPHASES: [Microphase; PHASES as usize] = [
    (crate::p2p::dem_has_work, crate::p2p::node_begin_dem),
    (crate::p2p::msm_has_work, crate::p2p::node_begin_msm),
    (crate::p2p::p2p_has_work, crate::p2p::node_begin_p2p),
    (crate::coll::bbm_has_work, crate::coll::node_begin_bbm),
    (crate::coll::rm_has_work, crate::coll::node_begin_rm),
];

/// SRs: a microstrobe arrived at the nodes of `reached` — wake the NIC
/// threads of `phase` on those that have work, at each one's turn in
/// `reached`, where it used to be looked at. The others wake, look and
/// finish `DESC_COST` later, all in one group.
///
/// Only touched nodes are looked at (`p2p::Nics`): the walk visits the
/// touched bits inside each run in ascending node order, which is `dests`
/// order, re-reading the set after every body it runs. A visited node
/// found with nothing to do in any microphase is untouched. What is left
/// of a run once the busy nodes are taken out is idle, as node ranges.
// PANIC-OK: `phase` is below `PHASES`: `advance_phase` starts a new slice
// instead of strobing a sixth; the job's nodes are `0..nodes_used` (ranks
// are block-distributed), one run of node ids.
fn on_microstrobe(w: &mut BW, sim: &mut Sim<BW>, slice: u64, phase: u32, reached: Reached<'_>) {
    debug_assert_eq!(w.engine.slice, slice);
    debug_assert!(untouched_nodes_are_idle(&w.engine));
    let (has_work, begin) = MICROPHASES[phase as usize];
    let runs = reached.node_ranges().expect("the job's nodes are one run of node ids");
    let mut idle = Vec::new();
    for run in runs {
        let (mut idle_from, mut next) = (run.start, run.start);
        while let Some(n) = w.engine.nic.next_touched(next, run.end) {
            let node = NodeId(n);
            next = n + 1;
            w.engine.stats.strobe_visits += 1;
            if has_work(&w.engine, node) {
                if idle_from < n {
                    idle.push(idle_from..n);
                }
                idle_from = next;
                w.engine.stats.node_passes += 1;
                begin(w, sim, node);
                drain(w, sim);
            } else if !MICROPHASES.iter().any(|(has_work, _)| has_work(&w.engine, node)) {
                w.engine.nic.untouch(node);
            }
        }
        if idle_from < run.end {
            idle.push(idle_from..run.end);
        }
    }
    if !idle.is_empty() {
        idle_nodes_done_in(w, sim, idle);
    }
}

/// The walk's invariant: a node outside the touched set has nothing to do
/// in any microphase. Checked before every walk in debug builds, so the
/// test suites run the whole lattice under it.
fn untouched_nodes_are_idle(e: &BcsMpi) -> bool {
    for n in 0..e.layout.compute_nodes {
        let node = NodeId(n);
        if !e.nic.is_touched(node) {
            for (phase, (has_work, _)) in MICROPHASES.iter().enumerate() {
                assert!(!has_work(e, node), "untouched {node} has work in microphase {phase}");
            }
        }
    }
    true
}

/// The `MP_DONE` value that says the current microphase is complete.
fn mp_done_target(e: &BcsMpi) -> i64 {
    (e.slice * PHASES as u64 + e.phase as u64 + 1) as i64
}

/// One of a node's outstanding work items for the current microphase
/// finished; when the count reaches zero the node reports completion via
/// its `MP_DONE` global word (read by the SS's `Compare-And-Write`).
pub(crate) fn work_item_done(w: &mut BW, sim: &mut Sim<BW>, node: NodeId) {
    let _ = sim;
    let e = &mut w.engine;
    let outstanding = &mut e.outstanding[node.0];
    debug_assert!(*outstanding > 0, "work_item_done underflow on {node}");
    *outstanding -= 1;
    if *outstanding == 0 {
        let target = mp_done_target(e);
        e.bcs.set_word(node, words::MP_DONE, target);
    }
}

/// What one simulator event completes (`BcsMpi::due`): NIC-thread work
/// items of nodes that may have more outstanding, and nodes that had
/// nothing to do and are done with the microphase outright, as node ranges.
#[derive(Default)]
pub(crate) struct DueGroup {
    work_items: Vec<NodeId>,
    idle: Vec<Range<usize>>,
}

/// The group of NIC-thread completions started by the current simulator
/// dispatch (one microstrobe delivery, see
/// `qsnet::fabric::schedule_deliveries`) and due `delay` from now, created
/// with its one event if this is its first member. On an idle machine every
/// node's item ends at the same instant, so they complete in one event.
///
/// Where in the group a node's completion runs is not observable (DESIGN
/// §9): what the same dispatch scheduled in between is per-node NIC work that
/// commutes with a decrement of another counter and with a write of another
/// node's `MP_DONE`, and the one reader of other nodes' `MP_DONE`, the SS
/// poll, is never issued from inside a delivery.
// PANIC-OK: the event scheduled with a group is the only remover of its key.
fn due_group<'a>(
    w: &'a mut BW,
    sim: &mut Sim<BW>,
    delay: simcore::SimDuration,
) -> &'a mut DueGroup {
    let key = (sim.now() + delay, sim.events_executed());
    w.engine.due.entry(key).or_insert_with(|| {
        sim.schedule_at(key.0, move |w: &mut BW, sim| {
            let group = w.engine.due.remove(&key).expect("due group fired twice");
            for node in group.work_items {
                work_item_done(w, sim, node);
            }
            let target = mp_done_target(&w.engine);
            for nodes in group.idle {
                w.engine.bcs.set_word_range(nodes, words::MP_DONE, target);
            }
            drain(w, sim);
        });
        DueGroup::default()
    })
}

/// The NIC thread of `node` finishes one work item of the current
/// microphase `delay` from now.
pub(crate) fn work_item_done_in(
    w: &mut BW,
    sim: &mut Sim<BW>,
    node: NodeId,
    delay: simcore::SimDuration,
) {
    due_group(w, sim, delay).work_items.push(node);
}

/// Nodes with nothing to do in this microphase: each NIC thread still wakes
/// and looks, which is one descriptor's cost, and nothing else is
/// outstanding — so there is no count to keep, only `MP_DONE` to write when
/// the look is over, a range fill per range. One call per dispatch.
fn idle_nodes_done_in(w: &mut BW, sim: &mut Sim<BW>, nodes: Vec<Range<usize>>) {
    let group = due_group(w, sim, DESC_COST);
    debug_assert!(group.idle.is_empty());
    group.idle = nodes;
}

/// SS: check whether all nodes completed the current microphase; if so,
/// strobe the next one (or start the next slice), otherwise re-poll.
fn poll_phase_done(w: &mut BW, sim: &mut Sim<BW>, slice: u64, phase: u32) {
    if w.engine.slice != slice || w.engine.phase != phase {
        return; // stale poll
    }
    let target = mp_done_target(&w.engine);
    let mgmt = w.engine.mgmt;
    let job_nodes = w.engine.job_nodes();
    BcsCluster::compare_and_write(
        w,
        sim,
        mgmt,
        job_nodes,
        words::MP_DONE,
        CmpOp::Ge,
        target,
        None,
        move |w: &mut BW, sim: &mut Sim<BW>, ok| {
            if w.engine.slice != slice || w.engine.phase != phase {
                return;
            }
            if ok {
                advance_phase(w, sim, slice, phase);
            } else {
                sim.schedule_in(POLL_INTERVAL, move |w: &mut BW, sim| {
                    poll_phase_done(w, sim, slice, phase);
                    drain(w, sim);
                });
            }
            drain(w, sim);
        },
    );
}

fn advance_phase(w: &mut BW, sim: &mut Sim<BW>, slice: u64, phase: u32) {
    if phase + 1 < PHASES {
        strobe_phase(w, sim, slice, phase + 1);
        return;
    }
    // Slice complete: next slice starts at the nominal boundary, or
    // immediately if the work overran it (drift).
    let ts = w.engine.cfg.timeslice;
    let nominal = SimTime(w.engine.cfg.init_delay.as_nanos() + (slice + 1) * ts.as_nanos());
    let at = if sim.now() > nominal {
        w.engine.stats.overruns += 1;
        sim.now()
    } else {
        nominal
    };
    sim.schedule_at(at, move |w: &mut BW, sim| {
        slice_start(w, sim, slice + 1);
        drain(w, sim);
    });
}

impl BcsMpi {
    /// Strictly-later nominal boundary after `now` (origin-aware).
    pub(crate) fn strict_next_boundary(&self, now: SimTime) -> SimTime {
        let origin = self.cfg.init_delay.as_nanos();
        let ts = self.cfg.timeslice.as_nanos().max(1);
        let rel = now.as_nanos().saturating_sub(origin);
        SimTime(origin + (rel / ts + 1) * ts)
    }

    /// Gang context switches performed so far (0 without gang mode).
    pub fn gang_switches(&self) -> u64 {
        self.gang.as_ref().map_or(0, |g| g.switches)
    }
}

/// A rank's `Compute` call: it runs for `ns`, inflated by the node's noise,
/// but not before the runtime is up (MPI_Init returns only once the NM has
/// scheduled it). In gang mode it advances only while its job holds the
/// node (noise not modelled there).
pub(crate) fn compute(w: &mut BW, sim: &mut Sim<BW>, rank: usize, ns: u64) {
    use mpi_api::call::MpiResp;
    use mpi_api::runtime::resume_at;
    if w.engine.gang.is_some() {
        return gang_compute(w, sim, rank, ns);
    }
    let mut d = simcore::SimDuration::nanos(ns);
    let node = w.engine.node_of(rank).0;
    let start = sim.now().max(SimTime::ZERO + w.engine.cfg.init_delay);
    if let Some(noise) = &mut w.engine.noise {
        d = noise.inflate(node, start, d);
    }
    resume_at(w, sim, start + d, rank, MpiResp::Ok);
}

/// Gang mode: handle a `Compute` call. If the caller's job currently holds
/// its node, it computes until the next boundary (possibly finishing
/// mid-slice); the residue is carried by `gang_on_boundary`.
fn gang_compute(w: &mut BW, sim: &mut Sim<BW>, rank: usize, ns: u64) {
    use mpi_api::call::MpiResp;
    use mpi_api::runtime::resume_at;
    let now = sim.now().max(SimTime::ZERO + w.engine.cfg.init_delay);
    let boundary = w.engine.strict_next_boundary(now);
    let node = w.engine.node_of(rank).0;
    let g = w.engine.gang.as_mut().expect("gang_compute without gang mode");
    let job = g.job_of[rank];
    let remaining = if g.active[node] == job {
        let window = boundary.since(now).as_nanos();
        if ns <= window {
            resume_at(w, sim, now + simcore::SimDuration::nanos(ns), rank, MpiResp::Ok);
            return;
        }
        ns - window
    } else {
        ns
    };
    g.computing[rank] = Some(crate::gang::PendingCompute { remaining });
}

/// At each slice boundary: give every node's CPUs to a runnable job
/// (keeping the incumbent when it still has work) and advance the computes
/// of the ranks whose job holds their node.
fn gang_on_boundary(w: &mut BW, sim: &mut Sim<BW>) {
    use mpi_api::call::MpiResp;
    use mpi_api::runtime::resume_at;
    let now = sim.now();
    let ts = w.engine.cfg.timeslice.as_nanos();
    let nodes = w.engine.layout.compute_nodes;
    let ranks = w.engine.layout.ranks;
    let layout = w.engine.layout.clone();

    // A job is runnable on a node if one of its local ranks has pending
    // compute or is about to be restarted at this boundary.
    let restarting: std::collections::HashSet<usize> = w
        .engine
        .restart_queue
        .iter()
        .map(|&(r, _)| r)
        .collect();
    let mut switched = vec![false; nodes];
    {
        let g = w.engine.gang.as_mut().unwrap();
        for node in 0..nodes {
            let runnable = |job: usize, g: &crate::gang::GangState| {
                layout.ranks_on(qsnet::NodeId(node)).any(|r| {
                    g.job_of[r] == job
                        && (g.computing[r].is_some() || restarting.contains(&r))
                })
            };
            let cur = g.active[node];
            if !runnable(cur, g) {
                let njobs = g.njobs();
                if let Some(j) =
                    (1..njobs).map(|k| (cur + k) % njobs).find(|&j| runnable(j, g))
                {
                    g.active[node] = j;
                    g.switches += 1;
                    switched[node] = true;
                }
            }
        }
    }
    // Advance the computes of active-job ranks over this slice.
    let mut resumes: Vec<(usize, u64)> = Vec::new();
    {
        let g = w.engine.gang.as_mut().unwrap();
        let switch_ns = g.cfg.switch_cost.as_nanos();
        for rank in 0..ranks {
            let Some(pc) = g.computing[rank] else { continue };
            let node = layout.node_of(rank).0;
            if g.active[node] != g.job_of[rank] {
                continue;
            }
            let window = ts.saturating_sub(if switched[node] { switch_ns } else { 0 });
            if pc.remaining <= window {
                let offset = pc.remaining + if switched[node] { switch_ns } else { 0 };
                resumes.push((rank, offset));
                g.computing[rank] = None;
            } else {
                g.computing[rank] = Some(crate::gang::PendingCompute {
                    remaining: pc.remaining - window,
                });
            }
        }
    }
    for (rank, offset) in resumes {
        resume_at(w, sim, now + simcore::SimDuration::nanos(offset), rank, MpiResp::Ok);
    }
}
