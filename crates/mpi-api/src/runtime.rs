//! The cluster runtime: engine trait, world, and job driver.
//!
//! One simulation = one [`ClusterWorld`] (the engine plus the rank harness)
//! driven by one [`simcore::Sim`]. Each rank is a stackless state machine
//! ([`simcore::VmHarness`]) stepped in place by the drain loop. No OS
//! threads, no per-rank stacks: n = 4096 ranks cost 4096 heap-allocated
//! futures, so job size is bounded by memory, not by the host's thread
//! limit.
//!
//! A run is described once as a [`Job`] value — engine, layout, an optional
//! horizon, setup hook, checkpoint to resume from and the halted run's
//! ranks to take over ([`LiveRanks`]) — and then started; [`run_program`]
//! is the shorthand for the common case.
//!
//! Every [`MpiCall`] a rank issues is dispatched to the engine, which
//! completes it immediately or later by scheduling a resume. The drain loop
//! is the one subtle piece: resuming a rank yields its next call, which the
//! engine may answer immediately, which resumes the rank again, and so on.
//! Completions therefore go through a queue ([`ClusterWorld::resume`])
//! drained at the top level ([`drain`]) rather than recursing.

use crate::call::{MpiCall, MpiResp, ReqId};
use crate::chunklog::{ChunkLog, LogSnapshot};
use crate::ctx::{AsyncMpi, RankProgram};
use crate::idtable::IdTable;
use crate::payload::{Origin, Payload};
use qsnet::NodeId;
use simcore::{ProcId, ProcYield, Sim, SimDuration, SimTime, VmChannel, VmHarness};
use std::collections::VecDeque;

/// Placement of an MPI job on the simulated cluster.
#[derive(Clone, Debug)]
pub struct JobLayout {
    /// Number of compute nodes (the management node, if the engine uses one,
    /// is extra).
    pub compute_nodes: usize,
    /// Processors per node (the paper's cluster has two P-III per node).
    pub cpus_per_node: usize,
    /// Number of MPI ranks; ranks are block-distributed
    /// (`node = rank / cpus_per_node`).
    pub ranks: usize,
}

impl JobLayout {
    pub fn new(compute_nodes: usize, cpus_per_node: usize, ranks: usize) -> JobLayout {
        assert!(ranks >= 1, "job needs at least one rank");
        assert!(
            ranks <= compute_nodes * cpus_per_node,
            "{ranks} ranks do not fit on {compute_nodes} nodes x {cpus_per_node} cpus"
        );
        JobLayout {
            compute_nodes,
            cpus_per_node,
            ranks,
        }
    }

    /// The crescendo cluster of the paper: 32 compute nodes, 2 CPUs each.
    pub fn crescendo(ranks: usize) -> JobLayout {
        JobLayout::new(32, 2, ranks)
    }

    /// Compute node hosting `rank`.
    #[inline]
    pub fn node_of(&self, rank: usize) -> NodeId {
        NodeId(rank / self.cpus_per_node)
    }

    /// Number of nodes actually occupied by the job.
    pub fn nodes_used(&self) -> usize {
        self.ranks.div_ceil(self.cpus_per_node)
    }

    /// Ranks hosted on `node`, in rank order.
    pub fn ranks_on(&self, node: NodeId) -> std::ops::Range<usize> {
        let lo = (node.0 * self.cpus_per_node).min(self.ranks);
        lo..(lo + self.cpus_per_node).min(self.ranks)
    }
}

/// An MPI implementation: interprets [`MpiCall`]s over a simulated cluster.
pub trait Engine: Sized + 'static {
    /// Start protocol machinery (strobe loops, daemons) before any rank runs.
    fn bootstrap(w: &mut ClusterWorld<Self>, sim: &mut Sim<ClusterWorld<Self>>);

    /// Handle one call from `rank`. The engine must eventually complete it
    /// via [`ClusterWorld::resume`] (directly or from a scheduled event).
    fn on_call(
        w: &mut ClusterWorld<Self>,
        sim: &mut Sim<ClusterWorld<Self>>,
        rank: usize,
        call: MpiCall,
    );

    /// Diagnostic dump of in-flight state, used in deadlock reports.
    fn describe_pending(&self) -> String {
        String::new()
    }

    /// True when the machine has declared itself failed and the run should
    /// stop (e.g. a node death detected by the heartbeat monitor). Checked
    /// by the driver after every event.
    fn halted(_w: &ClusterWorld<Self>) -> bool {
        false
    }
}

/// In-flight state of one rank's [`MpiCall::Batch`]: the sub-calls not yet
/// issued to the engine and the responses accumulated so far. The runtime
/// feeds sub-call *i+1* to the engine at the exact virtual instant sub-call
/// *i*'s response arrives — which is when an unbatched rank would have
/// issued it — so batching changes harness traffic, never virtual timing.
#[derive(Clone, Debug)]
pub struct BatchState {
    /// Sub-calls still to be issued, in order: the batch's own vector,
    /// consumed by value.
    pub queue: std::vec::IntoIter<MpiCall>,
    /// Engine responses collected so far, in issue order.
    pub resps: Vec<MpiResp>,
}

/// The simulation world: engine + rank harness + completion queue.
pub struct ClusterWorld<E: Engine> {
    pub engine: E,
    pub layout: JobLayout,
    harness: VmHarness<MpiCall, MpiResp>,
    pending: VecDeque<(usize, MpiResp)>,
    pub finished: usize,
    finish_times: Vec<Option<SimTime>>,
    draining: bool,
    /// Per-rank in-flight batch (see [`BatchState`]); `None` when the rank
    /// is not inside a [`MpiCall::Batch`].
    batches: Vec<Option<BatchState>>,
    /// What each unfinished rank is currently parked in: the op name of the
    /// call last issued to the engine on its behalf and the virtual instant
    /// it was issued. Pure diagnostic state — at n = 4096 a deadlock report
    /// that does not name the stuck calls is undebuggable.
    pending_call: Vec<Option<(&'static str, SimTime)>>,
    /// Scheduled-but-undelivered completions ([`resume_at`]), one slot per
    /// rank — the call/response protocol is lock-step, so a rank has at
    /// most one response in flight — each with its scheduling number.
    /// Tracked in the world (not closures) so checkpoints can capture them.
    pending_resumes: Vec<PendingResume>,
    /// Completions scheduled so far: the next one's scheduling number.
    resumes_scheduled: u64,
    /// When set, every response delivered to a rank is appended to `log`
    /// and every send a rank yields is stamped with its [`Origin`] — the
    /// raw material of deterministic replay.
    record_resps: bool,
    log: ChunkLog<Delivery>,
    /// For each delivery `log` has not sealed yet, what the rank did next:
    /// the call it yielded, stamped, or `None` if its program returned.
    /// Paired with the unsealed log it is the lookahead a halted run hands
    /// to the restore that follows ([`LiveRanks`]).
    tape: Vec<Option<MpiCall>>,
    /// Per rank, steps its coroutine took in a run that halted and that
    /// this run has not re-delivered yet ([`Job::ranks`]). A rank with any
    /// left is not resumed: [`drain`] checks each response against the
    /// next step and credits the rank with the call it holds. Empty, not
    /// one empty queue per rank, in a run that took over no ranks.
    lookahead: Vec<VecDeque<Step>>,
    /// The rank whose re-delivered response differed from its lookahead's:
    /// the run stops there ([`RunOutcome::diverged`]).
    diverged: Option<usize>,
    /// Point-to-point sends each rank has yielded while recording: the
    /// ordinal of its next one.
    sends_yielded: Vec<u64>,
    /// Payload bytes `log` holds by value (see [`RuntimeImage`]).
    logged_payload_bytes: u64,
}

/// One step of a rank's lookahead: a response a halted run delivered to
/// it, in its logged form, and what the rank did next.
type Step = (MpiResp, Option<MpiCall>);

/// One entry of the replay log: a response and the world rank it was
/// delivered to. Payloads stamped with an [`Origin`] are logged hollow
/// ([`Payload::hollow`]).
pub type Delivery = (u32, MpiResp);

impl<E: Engine> ClusterWorld<E> {
    pub fn new(engine: E, layout: JobLayout) -> ClusterWorld<E> {
        let ranks = layout.ranks;
        ClusterWorld {
            engine,
            layout,
            harness: VmHarness::new(),
            pending: VecDeque::new(),
            finished: 0,
            finish_times: vec![None; ranks],
            draining: false,
            batches: (0..ranks).map(|_| None).collect(),
            pending_call: vec![None; ranks],
            pending_resumes: vec![PendingResume::NONE; ranks],
            resumes_scheduled: 0,
            record_resps: false,
            log: ChunkLog::new(),
            tape: Vec::new(),
            lookahead: Vec::new(),
            diverged: None,
            sends_yielded: vec![0; ranks],
            logged_payload_bytes: 0,
        }
    }

    /// Boot `program` for `rank` and run it up to its first yield.
    fn boot_rank<P: RankProgram>(&mut self, program: &P, rank: usize) -> ProcYield<MpiCall> {
        let chan: VmChannel<MpiCall, MpiResp> = VmChannel::new();
        let mpi = AsyncMpi::new(chan.clone(), rank, self.layout.ranks);
        let (pid, y) = self.harness.spawn(chan, program.boot(mpi));
        assert_eq!(pid.0, rank, "rank ids must be dense");
        y
    }

    /// `rank`'s program returned at virtual time `at`.
    fn mark_finished(&mut self, rank: usize, at: SimTime) {
        self.pending_call[rank] = None;
        self.finished += 1;
        self.finish_times[rank] = Some(at);
    }

    /// Queue a completion for `rank`. Processed by the next [`drain`].
    pub fn resume(&mut self, rank: usize, resp: MpiResp) {
        self.pending.push_back((rank, resp));
    }

    /// True once every rank's program has returned.
    pub fn all_finished(&self) -> bool {
        self.finished == self.layout.ranks
    }

    /// Turn response recording on (required before a [`RuntimeImage`] can
    /// be captured). Must be enabled before any rank runs — a run's setup
    /// hook is the place: replay starts every rank from its entry point, so
    /// the log and the send ordinals have to as well.
    pub fn set_recording(&mut self, on: bool) {
        self.record_resps = on;
    }

    pub fn recording(&self) -> bool {
        self.record_resps
    }

    /// Deliver `resp` to `rank` and return what the rank does next: its
    /// next call, or `None` if its program returned.
    fn step(&mut self, rank: usize, resp: MpiResp) -> Option<MpiCall> {
        match self.harness.resume(ProcId(rank), resp) {
            ProcYield::Request(call) => Some(call),
            ProcYield::Finished => None,
        }
    }

    /// [`Self::step`] in a recording run: log `resp`, take the rank's next
    /// step — from its lookahead if it has one, else by resuming it and
    /// stamping the sends it yields — and put that step on the tape. When
    /// the lookahead's response is not the one delivered, the coroutine
    /// holds a history this run does not and cannot be credited with
    /// anything: the run is marked diverged instead.
    fn step_recorded(&mut self, rank: usize, resp: MpiResp) -> Option<MpiCall> {
        let logged = self.logged(&resp);
        let next = match self.lookahead.get_mut(rank).and_then(VecDeque::pop_front) {
            None => self
                .step(rank, resp)
                .map(|call| stamp_sends(&mut self.sends_yielded[rank], rank, call)),
            Some((expected, _)) if expected != logged => {
                self.diverged = Some(rank);
                return None;
            }
            Some((_, mut next)) => {
                // Stamped when the halted run yielded it, with the ordinals
                // this run has reached: count them, do not stamp again
                // (stamping a payload someone else holds copies it).
                let ordinal = &mut self.sends_yielded[rank];
                if let Some(call) = next.as_mut() {
                    call.for_each_send_payload(&mut |p| {
                        assert_eq!(p.origin(), Some(Origin { rank: rank as u32, ordinal: *ordinal }));
                        *ordinal += 1;
                    });
                }
                next
            }
        };
        self.log.push((rank as u32, logged));
        self.tape.push(next.clone());
        next
    }

    /// The form `resp` takes in the replay log. A stamped payload is a
    /// point-to-point message whose sender regenerates it on replay, so
    /// only its origin is kept; anything else is kept by value.
    fn logged(&mut self, resp: &MpiResp) -> MpiResp {
        let mut logged = resp.clone();
        let mut kept = 0usize;
        logged.for_each_payload(&mut |p| match p.origin() {
            Some(origin) => *p = Payload::hollow(origin),
            None => kept += p.len(),
        });
        self.logged_payload_bytes += kept as u64;
        logged
    }

    /// What `rank` is parked in, as replay names it: the call it last
    /// yielded. A rank inside a batch yielded the batch; any other had its
    /// call issued as it was.
    fn yielded_op(&self, rank: usize) -> Option<&'static str> {
        match self.batches[rank] {
            Some(_) => Some(MpiCall::Batch { calls: Vec::new() }.op_name()),
            None => self.pending_call[rank].map(|(op, _)| op),
        }
    }

    /// Capture the runtime half of a checkpoint at a quiescent instant:
    /// the machine-wide response history, every scheduled-but-undelivered
    /// completion, and per-rank finish times. Together with an engine-state
    /// snapshot this is sufficient to reconstruct the whole simulation on
    /// the original (absolute) timeline — see [`Job::resume_from`].
    ///
    /// Takes `&mut self` because capturing seals the log's tail into a
    /// chunk the image shares ([`ChunkLog::snapshot`]) — O(1) whatever the
    /// length of the history — and starts a new tape.
    pub fn runtime_image(&mut self, captured_at: SimTime) -> RuntimeImage {
        assert!(
            self.record_resps,
            "runtime_image requires response recording (ClusterWorld::set_recording)"
        );
        assert!(
            self.pending.is_empty(),
            "runtime_image at a non-quiescent instant: completion queue not drained"
        );
        self.tape.clear();
        let mut pending: Vec<(u64, (SimTime, usize, MpiResp))> = (self.pending_resumes.iter())
            .enumerate()
            .filter(|(_, p)| !p.is_empty())
            .map(|(rank, p)| (p.seq, (p.at, rank, p.resp.clone())))
            .collect();
        pending.sort_unstable_by_key(|&(seq, _)| seq);
        RuntimeImage {
            log: self.log.snapshot(),
            logged_payload_bytes: self.logged_payload_bytes,
            pending_resumes: pending.into_iter().map(|(_, r)| r).collect(),
            finish_times: self.finish_times.clone(),
            batches: self.batches.clone(),
            sends_yielded: self.sends_yielded.clone(),
            parked_in: (0..self.layout.ranks).map(|r| self.yielded_op(r)).collect(),
            captured_at,
        }
    }

    /// The ranks of a recording run that stopped short of completion, for
    /// the restore from its newest image: the harness, and per rank the
    /// steps since that image — the unsealed log paired with the tape —
    /// followed by whatever this run left of its own lookahead.
    fn take_live(&mut self) -> LiveRanks {
        let unsealed = std::mem::replace(&mut self.log, ChunkLog::new()).into_unsealed();
        let tape = std::mem::take(&mut self.tape);
        assert_eq!(unsealed.len(), tape.len(), "the tape has one step per unsealed delivery");
        let mut lookahead: Vec<VecDeque<Step>> = (0..self.layout.ranks).map(|_| VecDeque::new()).collect();
        for ((rank, resp), next) in unsealed.into_iter().zip(tape) {
            lookahead[rank as usize].push_back((resp, next));
        }
        for (steps, left) in lookahead.iter_mut().zip(std::mem::take(&mut self.lookahead)) {
            steps.extend(left);
        }
        LiveRanks { harness: std::mem::take(&mut self.harness), lookahead }
    }
}

/// The rank coroutines of a recording run that halted short of
/// completion ([`RunOutcome::live`]), for the restore that follows it
/// ([`Job::ranks`]): each rank has been delivered the newest image's
/// history and then its *lookahead*, the steps it took after the capture.
/// Only the program the halted run started can resume them.
pub struct LiveRanks {
    harness: VmHarness<MpiCall, MpiResp>,
    lookahead: Vec<VecDeque<Step>>,
}

impl LiveRanks {
    /// Steps the ranks took past the image, over all lookaheads.
    pub fn steps(&self) -> usize {
        self.lookahead.iter().map(VecDeque::len).sum()
    }

    /// The results of the ranks `finish_times` has finished (a halted
    /// run's [`RunOutcome::finish_times`]); `None` for the others.
    pub fn take_results<R: 'static>(mut self, finish_times: &[Option<SimTime>]) -> Vec<Option<R>> {
        take_results(&mut self.harness, finish_times)
    }
}

fn take_results<R: 'static>(
    harness: &mut VmHarness<MpiCall, MpiResp>,
    finish_times: &[Option<SimTime>],
) -> Vec<Option<R>> {
    let finished = finish_times.iter().enumerate();
    finished.map(|(r, at)| at.and_then(|_| harness.take_result(ProcId(r)))).collect()
}

/// Runtime half of a restorable checkpoint (the engine half is captured by
/// the engine itself). See [`ClusterWorld::runtime_image`].
#[derive(Clone, Debug)]
pub struct RuntimeImage {
    /// Every response delivered to any rank since program start, in
    /// delivery order, shared chunk by chunk with the live log and with
    /// every other image of the run. Replaying it reconstructs each rank's
    /// control state exactly (the call/response protocol is lock-step).
    /// Delivery order is a causal order — a receive completes only after
    /// its sender yielded the send — which is what lets the log hold
    /// point-to-point payloads as hollow references.
    pub log: LogSnapshot<Delivery>,
    /// Payload bytes the log holds by value (collective results and other
    /// unstamped payloads). A count, so it repeats exactly.
    pub logged_payload_bytes: u64,
    /// Completions scheduled but not yet delivered at capture, in
    /// scheduling order, with their absolute delivery times.
    pub pending_resumes: Vec<(SimTime, usize, MpiResp)>,
    /// Per-rank finish times (`Some` for ranks already done at capture).
    pub finish_times: Vec<Option<SimTime>>,
    /// Per-rank in-flight batches at capture: sub-calls not yet issued are
    /// genuinely new work on replay, while the accumulated sub-responses
    /// are folded into the eventual [`MpiResp::Batch`] (which is what the
    /// response log records).
    pub batches: Vec<Option<BatchState>>,
    /// Per-rank point-to-point sends yielded by the capture: the ordinal
    /// the rank's next send is stamped with. The full replay recomputes it
    /// and checks it against this.
    pub sends_yielded: Vec<u64>,
    /// Per-rank op name of the call each unfinished rank had last yielded
    /// (the batch, for a rank inside one): what a restore reports it parked
    /// in until it issues another.
    pub parked_in: Vec<Option<&'static str>>,
    /// Absolute virtual time of the capture (a slice boundary in BCS-MPI).
    pub captured_at: SimTime,
}

impl RuntimeImage {
    /// Deep copy whose log shares no chunk with the live runtime or other
    /// images ([`LogSnapshot::materialize`]). The reference point
    /// incremental recovery is validated against.
    pub fn materialize(&self) -> RuntimeImage {
        let mut img = self.clone();
        img.log = self.log.materialize();
        img
    }
}

/// Hand one call to the engine, noting what the rank is now parked in (the
/// raw material of the deadlock diagnostic, [`stuck_report`]).
fn issue_call<E: Engine>(
    w: &mut ClusterWorld<E>,
    sim: &mut Sim<ClusterWorld<E>>,
    rank: usize,
    call: MpiCall,
) {
    w.pending_call[rank] = Some((call.op_name(), sim.now()));
    E::on_call(w, sim, rank, call);
}

/// Stamp the sends `call` carries with their origin: `rank` and the next
/// ordinals of its count. Out of line and by value, so a run that does not
/// record never takes the call's address.
#[inline(never)]
fn stamp_sends(ordinal: &mut u64, rank: usize, mut call: MpiCall) -> MpiCall {
    call.for_each_send_payload(&mut |p| {
        p.stamp(Origin { rank: rank as u32, ordinal: *ordinal });
        *ordinal += 1;
    });
    call
}

/// Route one rank-yielded call: [`MpiCall::Batch`] is unpacked by the
/// runtime (the engine only ever sees ordinary calls); everything else goes
/// straight to the engine. A recording runtime has stamped the sends the
/// call carries, so whoever receives them can be logged by reference.
fn dispatch_call<E: Engine>(
    w: &mut ClusterWorld<E>,
    sim: &mut Sim<ClusterWorld<E>>,
    rank: usize,
    call: MpiCall,
) {
    match call {
        MpiCall::Batch { calls } => {
            assert!(
                w.batches[rank].is_none(),
                "rank {rank} issued a batch while one is in flight"
            );
            let mut queue = calls.into_iter();
            let first = queue.next().expect("empty MpiCall::Batch");
            assert!(
                first.is_batchable() && queue.as_slice().iter().all(MpiCall::is_batchable),
                "MpiCall::Batch may contain only batchable calls (see MpiCall::is_batchable)"
            );
            let resps = Vec::with_capacity(queue.len() + 1);
            w.batches[rank] = Some(BatchState { queue, resps });
            issue_call(w, sim, rank, first);
        }
        // Every non-batch call routes straight through; spelled out so a
        // new MpiCall variant fails to compile here instead of silently
        // inheriting the unbatched path (detlint D09).
        call @ (MpiCall::Compute { .. }
        | MpiCall::Now
        | MpiCall::Send { .. }
        | MpiCall::Recv { .. }
        | MpiCall::Wait { .. }
        | MpiCall::Test { .. }
        | MpiCall::Waitall { .. }
        | MpiCall::Testall { .. }
        | MpiCall::Probe { .. }
        | MpiCall::Barrier { .. }
        | MpiCall::Bcast { .. }
        | MpiCall::Reduce { .. }
        | MpiCall::Allgatherv { .. }
        | MpiCall::CommSplit { .. }) => issue_call(w, sim, rank, call),
    }
}

/// Process queued completions until quiescent. Must be called after any
/// sequence of [`ClusterWorld::resume`] calls — scheduled engine events
/// should use [`resume_at`], which does this automatically.
pub fn drain<E: Engine>(w: &mut ClusterWorld<E>, sim: &mut Sim<ClusterWorld<E>>) {
    if w.draining {
        return; // the outer drain loop will pick up new completions
    }
    if let Some((rank, resp)) = w.pending.pop_front() {
        drain_from(w, sim, rank, resp);
    }
}

/// [`drain`], its first completion handed over instead of queued: a
/// response moves from its pending-resume slot to the rank without a stop
/// in the queue (see [`resume_at`]). Nothing may be queued ahead of it.
#[inline]
fn drain_from<E: Engine>(
    w: &mut ClusterWorld<E>,
    sim: &mut Sim<ClusterWorld<E>>,
    mut rank: usize,
    mut resp: MpiResp,
) {
    debug_assert!(!w.draining, "drain_from inside a drain");
    w.draining = true;
    loop {
        if !deliver(w, sim, rank, resp) {
            w.pending.clear();
            break;
        }
        match w.pending.pop_front() {
            Some((r, x)) => (rank, resp) = (r, x),
            None => break,
        }
    }
    w.draining = false;
}

/// Hand one completion to `rank` and route what it yields. A rank inside a
/// batch is not resumed per sub-response: the response is accumulated and
/// the next sub-call issued in its place, at the same virtual instant, and
/// so on while the engine answers them at once. Returns `false` when a
/// recording run has diverged from its log.
#[inline]
fn deliver<E: Engine>(
    w: &mut ClusterWorld<E>,
    sim: &mut Sim<ClusterWorld<E>>,
    rank: usize,
    resp: MpiResp,
) -> bool {
    let resp = if let Some(st) = w.batches[rank].as_mut() {
        st.resps.push(resp);
        loop {
            let st = w.batches[rank].as_mut().expect("checked above");
            let Some(next) = st.queue.as_mut_slice().first_mut() else {
                break;
            };
            // The sub-call is moved out whole and the iterator steps past
            // the placeholder left behind without reading it back (`Now`
            // owns nothing). `next()` alone would copy the call out through
            // an `Option`, in overlapping pieces that the engine then reads
            // back slower than they were written.
            let call = std::mem::replace(next, MpiCall::Now);
            std::mem::forget(st.queue.next());
            issue_call(w, sim, rank, call);
            // An answer the engine gave at once, if it is the only
            // completion queued, is what the drain would deliver next:
            // take it here.
            let answered = w.pending.len() == 1 && w.pending[0].0 == rank;
            if !answered {
                return true; // answered later
            }
            let (_, resp) = w.pending.pop_front().expect("checked above");
            let st = w.batches[rank].as_mut().expect("checked above");
            st.resps.push(resp);
        }
        let st = w.batches[rank].take().expect("checked above");
        MpiResp::Batch { resps: st.resps }
    } else {
        resp
    };
    let next = if w.record_resps {
        let next = w.step_recorded(rank, resp);
        if w.diverged.is_some() {
            return false;
        }
        next
    } else {
        w.step(rank, resp)
    };
    match next {
        Some(call) => dispatch_call(w, sim, rank, call),
        None => w.mark_finished(rank, sim.now()),
    }
    true
}

/// Schedule `resp` to be delivered to `rank` at virtual time `at`.
///
/// The pending completion is tracked in the world (see
/// [`ClusterWorld::runtime_image`]); the scheduled event only carries the
/// rank and its scheduling number, so a checkpoint restore can re-create
/// the exact delivery schedule.
pub fn resume_at<E: Engine>(
    w: &mut ClusterWorld<E>,
    sim: &mut Sim<ClusterWorld<E>>,
    at: SimTime,
    rank: usize,
    resp: MpiResp,
) {
    let (seq, slot) = claim_resume(w, sim, at, rank);
    slot.fill(seq, at, resp);
}

/// [`resume_at`] with the handle of a freshly posted non-blocking
/// operation, the response of every `isend`/`irecv`: the
/// [`MpiResp::Req`] is built once, in the rank's pending-resume slot.
pub fn resume_req_at<E: Engine>(
    w: &mut ClusterWorld<E>,
    sim: &mut Sim<ClusterWorld<E>>,
    at: SimTime,
    rank: usize,
    req: ReqId,
) {
    let (seq, slot) = claim_resume(w, sim, at, rank);
    slot.fill(seq, at, MpiResp::Req(req));
}

/// Schedule the delivery event of `rank`'s next resume, at `at`, and return
/// its scheduling number and the empty slot its response goes in.
// PANIC-OK: a rank yields its next call only after its response arrives,
// so an engine that schedules a second one for it is broken, not loaded.
#[inline]
fn claim_resume<'w, E: Engine>(
    w: &'w mut ClusterWorld<E>,
    sim: &mut Sim<ClusterWorld<E>>,
    at: SimTime,
    rank: usize,
) -> (u64, &'w mut PendingResume) {
    let seq = w.resumes_scheduled;
    w.resumes_scheduled += 1;
    sim.schedule_at(at, move |w: &mut ClusterWorld<E>, sim| {
        let slot = &mut w.pending_resumes[rank];
        if slot.seq == seq {
            let resp = slot.take();
            if w.draining || !w.pending.is_empty() {
                w.resume(rank, resp);
                drain(w, sim);
            } else {
                drain_from(w, sim, rank, resp);
            }
        }
    });
    let slot = &mut w.pending_resumes[rank];
    assert!(slot.is_empty(), "rank {rank} has a response in flight already");
    (seq, slot)
}

/// Worlds whose engine hosts a BCS cluster expose it as [`bcs_core::BcsWorld`].
impl<E> bcs_core::BcsWorld for ClusterWorld<E>
where
    E: Engine + bcs_core::BcsHost<ClusterWorld<E>>,
{
    fn bcs(&mut self) -> &mut bcs_core::BcsCluster<Self> {
        self.engine.bcs_cluster()
    }
}

/// A rank's scheduled-but-undelivered completion: its scheduling number,
/// instant and response. Not an `Option`: the delivery checks the number
/// alone, so the response is moved out whole, never first taken apart to
/// test its variant.
#[derive(Clone)]
struct PendingResume {
    seq: u64,
    at: SimTime,
    resp: MpiResp,
}

impl PendingResume {
    /// The scheduling number of an empty slot, which no resume has. A
    /// constant of its own: reading it off [`Self::NONE`] would build and
    /// drop that whole value, response and all, at every test.
    const EMPTY: u64 = u64::MAX;

    /// The empty slot.
    const NONE: PendingResume = PendingResume { seq: Self::EMPTY, at: SimTime::ZERO, resp: MpiResp::Ok };

    #[inline]
    fn is_empty(&self) -> bool {
        self.seq == Self::EMPTY
    }

    /// Fill the empty slot. Its response is the `MpiResp::Ok` that
    /// [`Self::take`] left, which owns nothing: it is overwritten, not read
    /// back to be dropped.
    #[inline]
    fn fill(&mut self, seq: u64, at: SimTime, resp: MpiResp) {
        debug_assert!(self.is_empty() && self.resp == MpiResp::Ok);
        std::mem::forget(std::mem::replace(self, PendingResume { seq, at, resp }));
    }

    /// The response, leaving the slot empty.
    #[inline]
    fn take(&mut self) -> MpiResp {
        self.seq = Self::EMPTY;
        std::mem::replace(&mut self.resp, MpiResp::Ok)
    }
}

/// Outcome of a job that ran to completion ([`RunOutcome::expect_complete`]).
pub struct RunResult<R, E> {
    /// Per-rank program return values, indexed by rank.
    pub results: Vec<R>,
    /// Virtual time at which the last rank finished.
    pub elapsed: SimDuration,
    /// Per-rank finish times.
    pub finish_times: Vec<SimTime>,
    /// The engine, for stats inspection.
    pub engine: E,
    /// Simulator dispatches executed (simulation cost diagnostic). A
    /// dispatch is not a delivery: one event may run the hooks of every
    /// destination a multicast reaches at one instant (DESIGN §9).
    pub events: u64,
    /// Queue entries the simulator pushed for them: one per run of events
    /// scheduled back to back for one instant (DESIGN §9).
    pub heap_pushes: u64,
}

/// Outcome of [`Job::start`]: like [`RunResult`] but non-panicking, so a
/// halted run (node failure, horizon) can be inspected and recovered instead
/// of aborting the process.
pub struct RunOutcome<R, E> {
    /// True when every rank's program returned.
    pub completed: bool,
    /// Per-rank results (`None` for ranks that never finished). When
    /// `live` is `Some`, the finished ranks' results stay with it
    /// ([`LiveRanks::take_results`]) and every entry here is `None`.
    pub results: Vec<Option<R>>,
    /// Virtual time of the last finish (completed) or of the stop instant.
    pub elapsed: SimDuration,
    /// Per-rank finish times.
    pub finish_times: Vec<Option<SimTime>>,
    /// The engine, for stats/checkpoint inspection.
    pub engine: E,
    /// Simulator dispatches executed (see [`RunResult::events`]).
    pub events: u64,
    /// Queue entries pushed for them, one per run (see
    /// [`RunResult::heap_pushes`]).
    pub heap_pushes: u64,
    /// Human-readable reason when `completed` is false.
    pub diagnostic: Option<String>,
    /// True when the run stopped because a rank it took over
    /// ([`Job::ranks`]) was re-delivered a response other than the one its
    /// lookahead holds. Nothing in such a run is a result; restore the
    /// image again without the ranks.
    pub diverged: bool,
    /// The ranks of a recording run that stopped short of completion
    /// without diverging, for the restore from its newest image.
    pub live: Option<LiveRanks>,
}

impl<R, E> RunOutcome<R, E> {
    /// The result of a job that has to have completed: panics with the
    /// run's diagnostic if it deadlocked, halted or hit the horizon.
    pub fn expect_complete(self) -> RunResult<R, E> {
        assert!(
            self.completed,
            "{}",
            self.diagnostic.as_deref().unwrap_or("MPI job did not complete")
        );
        RunResult {
            results: self
                .results
                .into_iter()
                .map(|r| r.expect("finished rank must have a result"))
                .collect(),
            elapsed: self.elapsed,
            finish_times: self
                .finish_times
                .into_iter()
                .map(|t| t.expect("finished rank must have a finish time"))
                .collect(),
            engine: self.engine,
            events: self.events,
            heap_pushes: self.heap_pushes,
        }
    }
}

/// A caller-supplied step of a run, given the world and its simulator.
type Hook<'a, E> = Box<dyn FnOnce(&mut ClusterWorld<E>, &mut Sim<ClusterWorld<E>>) + 'a>;

/// An MPI job as a value: `layout.ranks` ranks over `engine`, described once
/// and then started with the program every rank boots from.
pub struct Job<'a, E: Engine> {
    engine: E,
    layout: JobLayout,
    horizon: Option<SimDuration>,
    setup: Hook<'a, E>,
    resume: Option<(&'a RuntimeImage, Hook<'static, E>)>,
    live: Option<LiveRanks>,
}

impl<'a, E: Engine> Job<'a, E> {
    /// A fresh run with no horizon and no setup hook.
    pub fn new(engine: E, layout: JobLayout) -> Job<'a, E> {
        Job {
            engine,
            layout,
            horizon: None,
            setup: Box::new(|_, _| {}),
            resume: None,
            live: None,
        }
    }

    /// Stop the run (incomplete, with a diagnostic) once virtual time
    /// exceeds `max_virtual` — catches protocol livelock.
    pub fn horizon(mut self, max_virtual: SimDuration) -> Self {
        self.horizon = Some(max_virtual);
        self
    }

    /// Run `hook` after the engine's `bootstrap` and before any rank
    /// executes: fault injection, monitors, response recording.
    pub fn setup(
        mut self,
        hook: impl FnOnce(&mut ClusterWorld<E>, &mut Sim<ClusterWorld<E>>) + 'a,
    ) -> Self {
        self.setup = Box::new(hook);
        self
    }

    /// Resume from a checkpoint instead of starting fresh: the job's engine
    /// must already be restored to the image's state, `rt` is the matching
    /// [`RuntimeImage`], and `kickoff` is scheduled at the capture instant
    /// to restart the protocol (in BCS-MPI, the slice-boundary resume) —
    /// which is why it alone must be `'static`. The simulation continues on
    /// the original absolute timeline, and a setup hook, if any, runs once
    /// the ranks are in place.
    ///
    /// Without [`Self::ranks`] the ranks are rebuilt by the *full replay*:
    /// rank programs are re-booted and silently fed the recorded
    /// responses, all ranks interleaved in the order the responses were
    /// delivered. The calls they yield are discarded, because every effect
    /// of those calls is already part of the restored engine state — except
    /// the payloads of their sends, which are what the log's hollow
    /// references are filled from. Each rank ends up parked exactly where
    /// the checkpoint caught it.
    pub fn resume_from(
        mut self,
        rt: &'a RuntimeImage,
        kickoff: impl FnOnce(&mut ClusterWorld<E>, &mut Sim<ClusterWorld<E>>) + 'static,
    ) -> Self {
        self.resume = Some((rt, Box::new(kickoff)));
        self
    }

    /// Take over the ranks of the run that halted after the image passed
    /// to [`Self::resume_from`] was captured, instead of replaying them:
    /// nothing is booted or re-fed. A rank's state is a function of the
    /// responses it was delivered, and each of these has been delivered
    /// the image's history plus its lookahead. The run re-delivers the
    /// lookahead's responses itself; each one is checked against the
    /// logged response before the rank is credited with the step it took
    /// after it, so a credited rank holds exactly what a full replay would
    /// have built, and the engine sees the same calls at the same instants.
    /// A response that differs — one the halted run delivered after a
    /// fault, say — stops the run as [`RunOutcome::diverged`].
    pub fn ranks(mut self, live: LiveRanks) -> Self {
        self.live = Some(live);
        self
    }

    /// Run the job until every rank's program has returned, the engine
    /// declares the machine halted ([`Engine::halted`]) or the horizon is
    /// hit. `Sim` breaks same-instant ties by scheduling sequence, so the
    /// order of the steps below is part of the result.
    pub fn start<P: RankProgram>(self, program: &P) -> RunOutcome<P::Out, E> {
        let mut sim: Sim<ClusterWorld<E>> = Sim::new();
        if let Some(mv) = self.horizon {
            sim.set_horizon(SimTime::ZERO + mv);
        }
        let size = self.layout.ranks;
        let mut w = ClusterWorld::new(self.engine, self.layout);
        match self.resume {
            None => {
                assert!(self.live.is_none(), "Job::ranks takes over ranks for a restore (Job::resume_from)");
                E::bootstrap(&mut w, &mut sim);
                (self.setup)(&mut w, &mut sim);
                for rank in 0..size {
                    match w.boot_rank(program, rank) {
                        ProcYield::Request(mut call) => {
                            if w.record_resps {
                                call = stamp_sends(&mut w.sends_yielded[rank], rank, call);
                            }
                            dispatch_call(&mut w, &mut sim, rank, call)
                        }
                        ProcYield::Finished => w.mark_finished(rank, SimTime::ZERO),
                    }
                }
                drain(&mut w, &mut sim);
            }
            Some((rt, kickoff)) => {
                // No bootstrap: the restored engine state already contains
                // the protocol's standing state; `kickoff` restarts its
                // event loop.
                match self.live {
                    Some(live) => reuse(&mut w, live, rt),
                    None => replay(&mut w, program, rt),
                }
                // Re-create the delivery schedule (scheduling order =
                // original issue order, so same-instant events keep their
                // relative order), then the protocol kickoff at the capture
                // instant.
                for (at, rank, resp) in &rt.pending_resumes {
                    resume_at(&mut w, &mut sim, *at, *rank, resp.clone());
                }
                sim.schedule_at(rt.captured_at, move |w: &mut ClusterWorld<E>, sim| {
                    kickoff(w, sim);
                    drain(w, sim);
                });
                (self.setup)(&mut w, &mut sim);
            }
        }

        let done = sim.run_until(&mut w, |w| {
            w.all_finished() || w.diverged.is_some() || E::halted(w)
        });
        let completed = w.all_finished();
        let end = match w.finish_times.iter().flatten().max() {
            Some(&last_finish) if completed => last_finish,
            _ => sim.now(),
        };
        let diagnostic = (!completed).then(|| match w.diverged {
            Some(rank) => format!(
                "restore diverged at t={}: rank {rank} was re-delivered a response other than \
                 the one its coroutine took in the halted run",
                sim.now()
            ),
            None => stuck_report(&w, sim.now(), done),
        });
        let live = (!completed && w.diverged.is_none() && w.record_resps).then(|| w.take_live());
        let results = match live {
            Some(_) => (0..size).map(|_| None).collect(),
            None => take_results(&mut w.harness, &w.finish_times),
        };
        RunOutcome {
            completed,
            results,
            elapsed: end.since(SimTime::ZERO),
            diagnostic,
            diverged: w.diverged.is_some(),
            live,
            finish_times: w.finish_times,
            engine: w.engine,
            events: sim.events_executed(),
            heap_pushes: sim.heap_pushes(),
        }
    }
}

/// Run `program` as an MPI job of `layout.ranks` ranks over `engine`; its
/// return value is collected per rank. Panics with a diagnostic if the job
/// deadlocks.
pub fn run_program<E, P>(engine: E, layout: JobLayout, program: P) -> RunResult<P::Out, E>
where
    E: Engine,
    P: RankProgram,
{
    Job::new(engine, layout).start(&program).expect_complete()
}

/// Boot every rank of a resumed job and replay it through `rt`'s response
/// log, leaving the world's rank and recording state as it was at the
/// capture (see [`Job::resume_from`]).
fn replay<E: Engine, P: RankProgram>(w: &mut ClusterWorld<E>, program: &P, rt: &RuntimeImage) {
    let size = w.layout.ranks;
    assert_eq!(rt.batches.len(), size, "image rank count mismatch");

    // What each rank has sent and nobody has received yet, by send ordinal.
    // In the original run a receive completed only after its sender had
    // yielded the send, and the log is in delivery order, so by the time an
    // entry refers to a payload its replayed sender has yielded it again.
    let mut sent: Vec<IdTable<u64, Payload>> = (0..size).map(|_| IdTable::new()).collect();
    let mut parked: Vec<ProcYield<MpiCall>> = Vec::with_capacity(size);
    for (rank, sent) in sent.iter_mut().enumerate() {
        let mut y = w.boot_rank(program, rank);
        harvest_sends(sent, &mut y);
        parked.push(y);
    }
    for (entry, (rank, logged)) in rt.log.iter().enumerate() {
        let rank = *rank as usize;
        if matches!(parked[rank], ProcYield::Finished) {
            replay_diverged(rt, rank, entry, &parked[rank], "is owed another response");
        }
        let mut resp = logged.clone();
        resp.for_each_payload(&mut |p| {
            let Some(Origin { rank: sender, ordinal }) = p.origin() else {
                return; // logged by value
            };
            match sent.get_mut(sender as usize).and_then(|t| t.remove(ordinal)) {
                Some(bytes) => *p = bytes,
                None => replay_diverged(
                    rt,
                    rank,
                    entry,
                    &parked[rank],
                    &format!("is owed send #{ordinal} of rank {sender}, which no replayed rank has yielded"),
                ),
            }
        });
        let mut y = w.harness.resume(ProcId(rank), resp);
        harvest_sends(&mut sent[rank], &mut y);
        parked[rank] = y;
    }
    for (rank, y) in parked.iter().enumerate() {
        match (y, rt.finish_times[rank]) {
            // The call itself is discarded (its effects live in the
            // restored engine state), but it tells the diagnostics what
            // the rank is parked in; the capture instant stands in for
            // the original issue time.
            (ProcYield::Request(call), None) => {
                debug_assert_eq!(Some(call.op_name()), rt.parked_in[rank]);
                w.pending_call[rank] = Some((call.op_name(), rt.captured_at));
            }
            (ProcYield::Finished, Some(at)) => w.mark_finished(rank, at),
            (ProcYield::Request(_), Some(at)) => {
                replay_diverged(rt, rank, rt.log.len(), y, &format!("had finished at t={at}"))
            }
            (ProcYield::Finished, None) => {
                replay_diverged(rt, rank, rt.log.len(), y, "was still running at the capture")
            }
        }
        let (replayed, recorded) = (sent[rank].next_id(), rt.sends_yielded[rank]);
        if replayed != recorded {
            let what = format!("has yielded {replayed} sends where the recorded run had yielded {recorded}");
            replay_diverged(rt, rank, rt.log.len(), y, &what)
        }
    }
    resume_recording(w, rt);
}

/// Take over the ranks of a halted run instead of replaying them (see
/// [`Job::ranks`]): every rank has been delivered `rt`'s history, and
/// [`drain`] checks the rest of what it was delivered as the run re-delivers
/// it. A rank is parked in the call it had yielded at the capture until it
/// issues another, as after a replay.
fn reuse<E: Engine>(w: &mut ClusterWorld<E>, live: LiveRanks, rt: &RuntimeImage) {
    assert_eq!(live.lookahead.len(), w.layout.ranks, "live rank count mismatch");
    w.harness = live.harness;
    w.lookahead = live.lookahead;
    for (rank, finished) in rt.finish_times.iter().enumerate() {
        match finished {
            Some(at) => w.mark_finished(rank, *at),
            None => w.pending_call[rank] = rt.parked_in[rank].map(|op| (op, rt.captured_at)),
        }
    }
    resume_recording(w, rt);
}

/// Recording continues where the image's log, send counts and batches end.
fn resume_recording<E: Engine>(w: &mut ClusterWorld<E>, rt: &RuntimeImage) {
    assert_eq!(rt.batches.len(), w.layout.ranks, "image rank count mismatch");
    w.batches = rt.batches.clone();
    w.record_resps = true;
    w.log = ChunkLog::resume(&rt.log);
    w.logged_payload_bytes = rt.logged_payload_bytes;
    w.sends_yielded = rt.sends_yielded.clone();
}

/// Keep the payloads of the sends a replayed rank just yielded, under the
/// ordinals the recording run stamped them with (a rank's sends in yield
/// order, so the table's own ids).
fn harvest_sends(sent: &mut IdTable<u64, Payload>, y: &mut ProcYield<MpiCall>) {
    if let ProcYield::Request(call) = y {
        call.for_each_send_payload(&mut |p| {
            sent.push(p.clone());
        });
    }
}

/// A rank program did not repeat under replay what it did in the recorded
/// run (it is not a function of its responses alone): say where.
fn replay_diverged(
    rt: &RuntimeImage,
    rank: usize,
    entry: usize,
    parked: &ProcYield<MpiCall>,
    what: &str,
) -> ! {
    let op = match parked {
        ProcYield::Request(call) => call.op_name(),
        ProcYield::Finished => "nothing: its program returned",
    };
    panic!(
        "replay diverged from the checkpoint image captured at t={}: at log entry {entry} of {} \
         rank {rank} {what}, while its replay is parked in {op}",
        rt.captured_at,
        rt.log.len(),
    )
}

/// Cap on per-rank lines in the deadlock diagnostic — at n = 4096 listing
/// every stuck rank would bury the report.
const STUCK_RANKS_SHOWN: usize = 16;

/// Why a run stopped short of completion at `now`: which ranks are stuck,
/// what each is parked in, and what the engine still holds.
fn stuck_report<E: Engine>(w: &ClusterWorld<E>, now: SimTime, run_until: bool) -> String {
    let size = w.layout.ranks;
    let stuck: Vec<usize> = (0..size).filter(|&r| w.finish_times[r].is_none()).collect();
    let mut lines = String::new();
    for &r in stuck.iter().take(STUCK_RANKS_SHOWN) {
        match w.pending_call[r] {
            Some((op, t)) => lines.push_str(&format!("  rank {r}: parked in {op} since t={t}\n")),
            None => lines.push_str(&format!("  rank {r}: never issued a call\n")),
        }
    }
    if stuck.len() > STUCK_RANKS_SHOWN {
        lines.push_str(&format!(
            "  … and {} more stuck ranks\n",
            stuck.len() - STUCK_RANKS_SHOWN
        ));
    }
    format!(
        "MPI job did not complete at t={now} ({} of {size} ranks finished).\n\
         Stuck ranks:\n{lines}\
         Either the program deadlocked, a failure halted the machine, or the\n\
         virtual-time horizon was hit (run_until={run_until}).\n\
         Engine state:\n{}",
        w.finished,
        w.engine.describe_pending()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_placement() {
        let l = JobLayout::new(31, 2, 62);
        assert_eq!(l.node_of(0), NodeId(0));
        assert_eq!(l.node_of(1), NodeId(0));
        assert_eq!(l.node_of(2), NodeId(1));
        assert_eq!(l.node_of(61), NodeId(30));
        assert_eq!(l.nodes_used(), 31);
        assert_eq!(l.ranks_on(NodeId(0)).collect::<Vec<_>>(), vec![0, 1]);
        assert_eq!(l.ranks_on(NodeId(30)).collect::<Vec<_>>(), vec![60, 61]);
    }

    #[test]
    fn layout_partial_last_node() {
        let l = JobLayout::new(4, 2, 5);
        assert_eq!(l.nodes_used(), 3);
        assert_eq!(l.ranks_on(NodeId(2)).collect::<Vec<_>>(), vec![4]);
        assert_eq!(l.ranks_on(NodeId(1)).collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    #[should_panic(expected = "do not fit")]
    fn oversubscribed_layout_panics() {
        JobLayout::new(2, 2, 5);
    }

    // A trivial engine: everything completes instantly except Compute,
    // which advances virtual time. Exercises the full driver machinery, and
    // notes the order the driver reaches it in.
    #[derive(Default)]
    struct NullEngine {
        seen: Vec<&'static str>,
    }

    impl Engine for NullEngine {
        fn bootstrap(w: &mut ClusterWorld<Self>, _sim: &mut Sim<ClusterWorld<Self>>) {
            w.engine.seen.push("bootstrap");
        }

        fn on_call(
            w: &mut ClusterWorld<Self>,
            sim: &mut Sim<ClusterWorld<Self>>,
            rank: usize,
            call: MpiCall,
        ) {
            w.engine.seen.push(call.op_name());
            match call {
                MpiCall::Compute { ns } => {
                    let at = sim.now() + SimDuration::nanos(ns);
                    resume_at(w, sim, at, rank, MpiResp::Ok);
                }
                MpiCall::Now => {
                    w.resume(rank, MpiResp::Time(sim.now().as_nanos()));
                    drain(w, sim);
                }
                other => panic!("NullEngine cannot handle {}", other.op_name()),
            }
        }
    }

    #[test]
    fn run_job_collects_results_and_times() {
        let layout = JobLayout::new(4, 2, 8);
        let out = run_program(NullEngine::default(), layout, |mut mpi: AsyncMpi| async move {
            mpi.compute(SimDuration::micros(100 * (mpi.rank() as u64 + 1))).await;
            mpi.rank() * 10
        });
        assert_eq!(out.results, vec![0, 10, 20, 30, 40, 50, 60, 70]);
        assert_eq!(out.elapsed, SimDuration::micros(800));
        assert_eq!(
            out.finish_times[0].since(SimTime::ZERO),
            SimDuration::micros(100)
        );
        assert!(out.events > 0);
    }

    #[test]
    fn virtual_clock_visible_to_ranks() {
        let layout = JobLayout::new(1, 1, 1);
        let out = run_program(NullEngine::default(), layout, |mut mpi: AsyncMpi| async move {
            let t0 = mpi.now().await;
            mpi.compute(SimDuration::millis(3)).await;
            let t1 = mpi.now().await;
            t1.since(t0)
        });
        assert_eq!(out.results[0], SimDuration::millis(3));
    }

    /// The setup hook sees a bootstrapped engine that no rank has called yet.
    #[test]
    fn setup_runs_between_bootstrap_and_the_first_call() {
        let layout = JobLayout::new(1, 2, 2);
        let out = Job::new(NullEngine::default(), layout)
            .setup(|w, _| w.engine.seen.push("setup"))
            .start(&|mut mpi: AsyncMpi| async move { mpi.now().await })
            .expect_complete();
        assert_eq!(out.engine.seen, ["bootstrap", "setup", "now", "now"]);
    }

    /// A rank whose program returns before issuing any call never reaches
    /// the drain loop: it is finished at boot, at t=0, result and all.
    #[test]
    fn rank_returning_without_a_call_finishes_at_time_zero() {
        let layout = JobLayout::new(1, 2, 2);
        let out = run_program(NullEngine::default(), layout, |mut mpi: AsyncMpi| async move {
            if mpi.rank() == 1 {
                mpi.compute(SimDuration::micros(5)).await;
            }
            mpi.rank() + 7
        });
        assert_eq!(out.results, [7, 8]);
        assert_eq!(out.finish_times, [SimTime::ZERO, SimTime::ZERO + SimDuration::micros(5)]);
        assert_eq!(out.engine.seen, ["bootstrap", "compute"]);
    }

    /// Rank 1 computes past the horizon.
    fn overrun() -> RunOutcome<(), NullEngine> {
        let layout = JobLayout::new(1, 2, 2);
        Job::new(NullEngine::default(), layout)
            .horizon(SimDuration::secs(1))
            .start(&|mut mpi: AsyncMpi| async move {
                if mpi.rank() == 1 {
                    mpi.compute(SimDuration::secs(10)).await;
                }
            })
    }

    #[test]
    #[should_panic(expected = "did not complete")]
    fn horizon_reports_stuck_ranks() {
        overrun().expect_complete();
    }

    /// The deadlock diagnostic must name each stuck rank's pending call and
    /// the virtual instant it was issued.
    #[test]
    fn diagnostic_names_stuck_ranks_and_calls() {
        let out = overrun();
        assert!(!out.completed);
        let d = out.diagnostic.expect("incomplete run must carry a diagnostic");
        assert!(
            d.contains("rank 1: parked in compute since t="),
            "diagnostic must name the stuck call:\n{d}"
        );
        assert!(!d.contains("rank 0:"), "rank 0 finished and must not be listed:\n{d}");
    }

    /// A rank count that would need thousands of OS threads on a
    /// thread-per-rank substrate.
    #[test]
    fn vm_backend_scales_past_thread_counts() {
        let n: usize = 4096;
        let layout = JobLayout::new(n.div_ceil(2), 2, n);
        let out = run_program(NullEngine::default(), layout, |mut mpi: AsyncMpi| async move {
            mpi.compute(SimDuration::nanos(mpi.rank() as u64 + 1)).await;
            mpi.rank()
        });
        assert_eq!(out.results.len(), n);
        assert!(out.results.iter().enumerate().all(|(i, &r)| i == r));
        assert_eq!(out.elapsed, SimDuration::nanos(n as u64));
    }
}
