//! The world a simulation steps, and the one path a call takes through it:
//! from the rank to the engine ([`issue`]) and back ([`drain`]).

use super::log::LiveLog;
use super::record::{Step, Tape};
use super::{Engine, JobLayout};
use crate::call::{MpiCall, MpiResp, ReqId};
use crate::ctx::{AsyncMpi, RankProgram};
use crate::request::CallSite;
use crate::round::{CollCall, CollKind};
use simcore::{ProcId, ProcYield, Sim, SimTime, VmChannel, VmHarness};
use std::collections::VecDeque;

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
pub struct ClusterWorld<E> {
    pub engine: E,
    pub layout: JobLayout,
    pub(super) harness: VmHarness<MpiCall, MpiResp>,
    pub(super) pending: VecDeque<(usize, MpiResp)>,
    pub finished: usize,
    pub(super) finish_times: Vec<Option<SimTime>>,
    draining: bool,
    /// Per-rank in-flight batch (see [`BatchState`]); `None` when the rank
    /// is not inside a [`MpiCall::Batch`].
    pub(super) batches: Vec<Option<BatchState>>,
    /// What each unfinished rank is currently parked in: the op name of the
    /// call last issued to the engine on its behalf and the virtual instant
    /// it was issued. Pure diagnostic state — at n = 4096 a deadlock report
    /// that does not name the stuck calls is undebuggable.
    pub(super) pending_call: Vec<Option<(&'static str, SimTime)>>,
    /// Scheduled-but-undelivered completions ([`resume_at`]), one slot per
    /// rank — the call/response protocol is lock-step, so a rank has at
    /// most one response in flight — each with its scheduling number.
    /// Tracked in the world (not closures) so checkpoints can capture them.
    pub(super) pending_resumes: Vec<PendingResume>,
    /// Completions scheduled so far: the next one's scheduling number.
    resumes_scheduled: u64,
    /// When set, every response delivered to a rank is appended to `log`
    /// and every send a rank yields is stamped with its
    /// [`Origin`](crate::payload::Origin) — the raw material of
    /// deterministic replay.
    pub(super) record_resps: bool,
    pub(super) log: LiveLog,
    /// For each delivery `log` has not sealed yet, what the rank did next.
    /// Paired with the unsealed log it is the lookahead a halted run hands
    /// to the restore that follows ([`super::LiveRanks`]).
    pub(super) tape: Tape,
    /// Per rank, steps its coroutine took in a run that halted and that
    /// this run has not re-delivered yet ([`super::Job::ranks`]). A rank
    /// with any left is not resumed: [`drain`] checks each response against
    /// the next step and credits the rank with the call it holds. Empty,
    /// not one empty queue per rank, in a run that took over no ranks.
    pub(super) lookahead: Vec<VecDeque<Step>>,
    /// The rank whose re-delivered response differed from its lookahead's:
    /// the run stops there ([`super::RunOutcome::diverged`]).
    pub(super) diverged: Option<usize>,
    /// Point-to-point sends each rank has yielded while recording: the
    /// ordinal of its next one.
    pub(super) sends_yielded: Vec<u64>,
    /// Payload bytes `log` holds by value (see [`super::RuntimeImage`]).
    pub(super) logged_payload_bytes: u64,
}

impl<E> ClusterWorld<E> {
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
            log: LiveLog::new(),
            tape: Tape::default(),
            lookahead: Vec::new(),
            diverged: None,
            sends_yielded: vec![0; ranks],
            logged_payload_bytes: 0,
        }
    }

    /// Boot `program` for `rank` and run it up to its first yield.
    pub(super) fn boot_rank<P: RankProgram>(&mut self, program: &P, rank: usize) -> ProcYield<MpiCall> {
        let chan: VmChannel<MpiCall, MpiResp> = VmChannel::new();
        let mpi = AsyncMpi::new(chan.clone(), rank, self.layout.ranks);
        let (pid, y) = self.harness.spawn(chan, program.boot(mpi));
        assert_eq!(pid.0, rank, "rank ids must be dense");
        y
    }

    /// `rank`'s program returned at virtual time `at`.
    pub(super) fn mark_finished(&mut self, rank: usize, at: SimTime) {
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

    /// Deliver `resp` to `rank` and return what the rank does next: its
    /// next call, or `None` if its program returned.
    pub(super) fn step(&mut self, rank: usize, resp: MpiResp) -> Option<MpiCall> {
        match self.harness.resume(ProcId(rank), resp) {
            ProcYield::Request(call) => Some(call),
            ProcYield::Finished => None,
        }
    }
}

/// Hand one rank-yielded call to the engine: the one match over [`MpiCall`]
/// (detlint D09: a new call fails to compile here, not inherit a default).
/// The calls a protocol carries go to the engine's [`super::Protocol`]
/// primitive; the request calls are answered here, against the engine's
/// table, the same on every engine; a [`MpiCall::Batch`] is unpacked here,
/// so the engine only ever sees ordinary calls. The rank is noted as parked
/// in the call, the raw material of the deadlock diagnostic.
pub(super) fn issue<E: Engine>(
    w: &mut ClusterWorld<E>,
    sim: &mut Sim<ClusterWorld<E>>,
    rank: usize,
    call: MpiCall,
) {
    let now = sim.now();
    let name = call.op_name();
    w.pending_call[rank] = Some((name, now));
    match call {
        MpiCall::Compute { ns } => E::compute(w, sim, rank, ns),
        MpiCall::Now => w.resume(rank, MpiResp::Time(now.as_nanos())),
        MpiCall::Send { dest, tag, data, blocking } => E::post_send(w, sim, rank, dest, tag, data, blocking),
        MpiCall::Recv { src, tag, blocking } => E::post_recv(w, sim, rank, src, tag, blocking),
        // A wait whose condition already holds is answered at once, at the
        // engine's answer cost (in BCS-MPI the §3.2 fast path: "verify that
        // the communication has been performed and continue"); otherwise
        // the rank stays suspended in the table until the engine completes
        // what it waits for. These four calls pass ids the program
        // supplied, and name their call site when one is misused.
        MpiCall::Wait { req } => {
            if let Some(wake) = w.engine.reqs().wait(CallSite::new(rank, "wait", now), req) {
                answer(w, sim, rank, wake.into_resp());
            }
        }
        MpiCall::Waitall { reqs } => {
            if let Some(wake) = w.engine.reqs().wait_all(CallSite::new(rank, "waitall", now), reqs) {
                answer(w, sim, rank, wake.into_resp());
            }
        }
        MpiCall::Test { req } => {
            let result = w.engine.reqs().test(CallSite::new(rank, "test", now), req);
            w.resume(rank, MpiResp::TestDone { result });
        }
        MpiCall::Testall { reqs } => {
            let results = w.engine.reqs().test_all(CallSite::new(rank, "testall", now), &reqs);
            w.resume(rank, MpiResp::TestallDone { results });
        }
        MpiCall::Probe { src, tag, blocking } => match (w.engine.probe_match(rank, src, tag), blocking) {
            (Some(status), _) => answer(w, sim, rank, MpiResp::ProbeDone { status: Some(status) }),
            (None, false) => w.resume(rank, MpiResp::ProbeDone { status: None }),
            (None, true) => w.engine.park_probe(rank, src, tag),
        },
        // A collective carries its call site to the round it joins, whose
        // mismatch diagnostic names it.
        MpiCall::Barrier { comm } => {
            let (kind, site) = (CollKind::Barrier, CallSite::new(rank, name, now));
            E::collective(w, sim, rank, comm, CollCall { kind, root: 0, params: None, data: None, site })
        }
        MpiCall::Bcast { comm, root, data } => {
            let (kind, site) = (CollKind::Bcast, CallSite::new(rank, name, now));
            E::collective(w, sim, rank, comm, CollCall { kind, root, params: None, data, site })
        }
        MpiCall::Reduce { comm, root, op, dtype, data, all } => {
            let (kind, site) = (CollKind::Reduce { all }, CallSite::new(rank, name, now));
            E::collective(w, sim, rank, comm, CollCall { kind, root, params: Some((op, dtype)), data: Some(data), site })
        }
        MpiCall::CommSplit { parent, color, key } => E::comm_split(w, sim, rank, parent, color, key),
        MpiCall::Batch { calls } => {
            assert!(w.batches[rank].is_none(), "rank {rank} issued a batch while one is in flight");
            let mut queue = calls.into_iter();
            let first = queue.next().expect("empty MpiCall::Batch");
            assert!(
                first.is_batchable() && queue.as_slice().iter().all(MpiCall::is_batchable),
                "MpiCall::Batch may contain only batchable calls (see MpiCall::is_batchable)"
            );
            let resps = Vec::with_capacity(queue.len() + 1);
            w.batches[rank] = Some(BatchState { queue, resps });
            issue(w, sim, rank, first);
        }
    }
}

/// Answer a call from what the engine already holds: in place, or after
/// what the engine says that costs ([`super::Protocol::answer_cost`]).
#[inline]
fn answer<E: Engine>(w: &mut ClusterWorld<E>, sim: &mut Sim<ClusterWorld<E>>, rank: usize, resp: MpiResp) {
    match w.engine.answer_cost() {
        None => w.resume(rank, resp),
        Some(cost) => resume_at(w, sim, sim.now() + cost, rank, resp),
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
            issue(w, sim, rank, call);
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
        Some(call) => issue(w, sim, rank, call),
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
pub(super) struct PendingResume {
    pub(super) seq: u64,
    pub(super) at: SimTime,
    pub(super) resp: MpiResp,
}

impl PendingResume {
    /// The scheduling number of an empty slot, which no resume has. A
    /// constant of its own: reading it off [`Self::NONE`] would build and
    /// drop that whole value, response and all, at every test.
    const EMPTY: u64 = u64::MAX;

    /// The empty slot.
    const NONE: PendingResume = PendingResume { seq: Self::EMPTY, at: SimTime::ZERO, resp: MpiResp::Ok };

    #[inline]
    pub(super) fn is_empty(&self) -> bool {
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
