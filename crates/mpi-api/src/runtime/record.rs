//! What a recording run keeps, and how a restore rebuilds its ranks: the
//! replay log ([`super::log`]) and the tape beside it, the
//! [`RuntimeImage`] a checkpoint captures, and the two ways back —
//! replaying every rank through the log ([`replay`]) or taking over the
//! ranks of the run that halted ([`reuse`]).

use super::log::{self, LiveLog, ResponseLog};
use super::world::ClusterWorld;
use crate::call::{MpiCall, MpiResp, ReqId};
use crate::ctx::RankProgram;
use crate::payload::{Origin, Payload};
use simcore::{IdTable, ProcId, ProcYield, SimTime, VmHarness};
use std::collections::VecDeque;
use std::ops::Range;

/// One step of a rank's lookahead: a response a halted run delivered to
/// it, in its logged form, and what the rank did next.
pub(super) type Step = (MpiResp, Option<MpiCall>);

/// One delivery of the replay log, decoded: the world rank a response was
/// delivered to and the response, each stamped payload a
/// [`Payload::hollow`] reference ([`ResponseLog::iter`]).
pub type Delivery = (u32, MpiResp);

impl<E> ClusterWorld<E> {
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

    /// [`Self::step`] in a recording run: log `resp`, take the rank's next
    /// step — from its lookahead if it has one, else by resuming it and
    /// stamping the sends it yields — and put that step on the tape. When
    /// the lookahead's response is not the one delivered, the coroutine
    /// holds a history this run does not and cannot be credited with
    /// anything: the run is marked diverged instead. Out of line, so the
    /// delivery loop of a run that does not record carries none of it.
    #[inline(never)]
    pub(super) fn step_recorded(&mut self, rank: usize, resp: MpiResp) -> Option<MpiCall> {
        let at = self.log.unsealed().len();
        self.logged_payload_bytes += self.log.push(rank, &resp);
        let (mut next, stamped) = match self.lookahead.get_mut(rank).and_then(VecDeque::pop_front) {
            None => (self.step(rank, resp), false),
            Some((expected, next)) => {
                if log::decode(&mut self.log.unsealed()[at..].iter(), &mut Payload::hollow).1 != expected {
                    self.diverged = Some(rank);
                    return None;
                }
                // Stamped when the halted run yielded it, with the ordinals
                // this run has reached: count them, do not stamp again
                // (stamping a payload someone else holds copies it).
                (next, true)
            }
        };
        if let Some(call) = next.as_mut() {
            call.for_each_send_payload(&mut stamper(&mut self.sends_yielded[rank], rank, stamped));
        }
        self.tape.push(next.as_ref());
        next
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
    /// the original (absolute) timeline — see [`super::Job::resume_from`].
    ///
    /// Takes `&mut self` because capturing seals the log's tail into a
    /// chunk the image shares ([`simcore::chunklog::ChunkLog::snapshot`]) —
    /// what was logged since the previous capture, whatever the length of
    /// the history — and starts a new tape.
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
    pub(super) fn take_live(&mut self) -> LiveRanks {
        let unsealed = std::mem::replace(&mut self.log, LiveLog::new()).into_unsealed();
        assert_eq!(unsealed.len(), self.tape.len(), "the tape has one step per unsealed delivery");
        let mut lookahead: Vec<VecDeque<Step>> = (0..self.layout.ranks).map(|_| VecDeque::new()).collect();
        for (i, (rank, resp)) in unsealed.into_iter().enumerate() {
            lookahead[rank as usize].push_back((resp, self.tape.call(i)));
        }
        self.tape.clear();
        for (steps, left) in lookahead.iter_mut().zip(std::mem::take(&mut self.lookahead)) {
            steps.extend(left);
        }
        LiveRanks { harness: std::mem::take(&mut self.harness), lookahead }
    }
}

/// A closure that stamps each send payload it is handed with `rank`'s next
/// ordinal — or, for sends the halted run already stamped (`stamped`),
/// checks that each carries it.
pub(super) fn stamper(ordinal: &mut u64, rank: usize, stamped: bool) -> impl FnMut(&mut Payload) + '_ {
    move |p| {
        let origin = Origin { rank: rank as u32, ordinal: *ordinal };
        match stamped {
            false => p.stamp(origin),
            true => assert_eq!(p.origin(), Some(origin)),
        }
        *ordinal += 1;
    }
}

/// For each delivery the log has not sealed yet, what the rank did next:
/// the call it yielded, stamped, or `None` if its program returned.
/// Flat, so taping a call allocates nothing: a call that owns no buffer of
/// its own is kept whole (its payloads by handle), a request list's ids go
/// into `reqs`, a batch's sub-calls into `sub`. A capture clears the tape
/// and its buffers keep their capacity.
#[derive(Default)]
pub(super) struct Tape {
    steps: Vec<Taped>,
    sub: Vec<Taped>,
    reqs: Vec<ReqId>,
}

enum Taped {
    Returned,
    Call(MpiCall),
    Waitall(Range<usize>),
    Testall(Range<usize>),
    Batch(Range<usize>),
}

impl Tape {
    pub(super) fn len(&self) -> usize {
        self.steps.len()
    }

    pub(super) fn clear(&mut self) {
        self.steps.clear();
        self.sub.clear();
        self.reqs.clear();
    }

    pub(super) fn push(&mut self, call: Option<&MpiCall>) {
        let step = call.map_or(Taped::Returned, |call| self.tape(call));
        self.steps.push(step);
    }

    fn tape(&mut self, call: &MpiCall) -> Taped {
        match call {
            MpiCall::Waitall { reqs } => Taped::Waitall(self.keep(reqs)),
            MpiCall::Testall { reqs } => Taped::Testall(self.keep(reqs)),
            MpiCall::Batch { calls } => {
                // Slots first: a sub-call's own entries go after them.
                let at = self.sub.len();
                self.sub.extend(calls.iter().map(|_| Taped::Returned));
                for (i, call) in calls.iter().enumerate() {
                    self.sub[at + i] = self.tape(call);
                }
                Taped::Batch(at..at + calls.len())
            }
            MpiCall::Compute { .. }
            | MpiCall::Now
            | MpiCall::Send { .. }
            | MpiCall::Recv { .. }
            | MpiCall::Wait { .. }
            | MpiCall::Test { .. }
            | MpiCall::Probe { .. }
            | MpiCall::Barrier { .. }
            | MpiCall::Bcast { .. }
            | MpiCall::Reduce { .. }
            | MpiCall::CommSplit { .. } => Taped::Call(call.clone()),
        }
    }

    fn keep(&mut self, reqs: &[ReqId]) -> Range<usize> {
        self.reqs.extend_from_slice(reqs);
        self.reqs.len() - reqs.len()..self.reqs.len()
    }

    /// Step `i`'s call, rebuilt.
    fn call(&self, i: usize) -> Option<MpiCall> {
        self.rebuild(&self.steps[i])
    }

    fn rebuild(&self, step: &Taped) -> Option<MpiCall> {
        Some(match step {
            Taped::Returned => return None,
            Taped::Call(call) => call.clone(),
            Taped::Waitall(ids) => MpiCall::Waitall { reqs: self.reqs[ids.clone()].to_vec() },
            Taped::Testall(ids) => MpiCall::Testall { reqs: self.reqs[ids.clone()].to_vec() },
            Taped::Batch(subs) => MpiCall::Batch {
                calls: self.sub[subs.clone()].iter().filter_map(|sub| self.rebuild(sub)).collect(),
            },
        })
    }
}

/// The rank coroutines of a recording run that halted short of
/// completion ([`super::RunOutcome::live`]), for the restore that follows
/// it ([`super::Job::ranks`]): each rank has been delivered the newest
/// image's history and then its *lookahead*, the steps it took after the
/// capture. Only the program the halted run started can resume them.
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
    /// run's [`super::RunOutcome::finish_times`]); `None` for the others.
    pub fn take_results<R: 'static>(mut self, finish_times: &[Option<SimTime>]) -> Vec<Option<R>> {
        take_results(&mut self.harness, finish_times)
    }
}

pub(super) fn take_results<R: 'static>(
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
    /// point-to-point payloads as hollow references. Its records are flat
    /// words ([`super::log`]); [`ResponseLog::iter`] decodes them.
    pub log: ResponseLog,
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
    pub batches: Vec<Option<super::BatchState>>,
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
    /// images ([`ResponseLog::materialize`]). The reference point
    /// incremental recovery is validated against.
    pub fn materialize(&self) -> RuntimeImage {
        let mut img = self.clone();
        img.log = self.log.materialize();
        img
    }
}

/// Boot every rank of a resumed job and replay it through `rt`'s response
/// log, leaving the world's rank and recording state as it was at the
/// capture (see [`super::Job::resume_from`]).
// PANIC-OK: the log was written by `log::encode`; a record that does not
// start with a head is a bug in the log, not input.
pub(super) fn replay<E, P: RankProgram>(w: &mut ClusterWorld<E>, program: &P, rt: &RuntimeImage) {
    let size = w.layout.ranks;
    assert_eq!(rt.batches.len(), size, "image rank count mismatch");

    // What each rank has sent and nobody has received yet, by send ordinal:
    // the payloads of the sends a replayed rank yields, under the ordinals
    // the recording run stamped them with (a rank's sends in yield order,
    // so the table's own ids). In the original run a receive completed
    // only after its sender had yielded the send, and the log is in
    // delivery order, so by the time an entry refers to a payload its
    // replayed sender has yielded it again.
    let mut sent: Vec<IdTable<u64, Payload>> = (0..size).map(|_| IdTable::new()).collect();
    let harvest = |sent: &mut IdTable<u64, Payload>, y: &mut ProcYield<MpiCall>| {
        if let ProcYield::Request(call) = y {
            call.for_each_send_payload(&mut |p| {
                sent.push(p.clone());
            });
        }
    };
    let mut parked: Vec<ProcYield<MpiCall>> = Vec::with_capacity(size);
    for (rank, sent) in sent.iter_mut().enumerate() {
        let mut y = w.boot_rank(program, rank);
        harvest(sent, &mut y);
        parked.push(y);
    }
    let mut words = rt.log.stream().peekable();
    for entry in 0..rt.log.len() {
        let Some(&&log::Word::Head(rank, ..)) = words.peek() else {
            panic!("replay log entry {entry} does not start with a head");
        };
        let rank = rank as usize;
        if matches!(parked[rank], ProcYield::Finished) {
            replay_diverged(rt, rank, entry, &parked[rank], "is owed another response");
        }
        let (_, resp) = log::decode(&mut words, &mut |Origin { rank: sender, ordinal }| {
            match sent.get_mut(sender as usize).and_then(|t| t.remove(ordinal)) {
                Some(bytes) => bytes,
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
        harvest(&mut sent[rank], &mut y);
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
/// [`super::Job::ranks`]): every rank has been delivered `rt`'s history,
/// and [`super::drain`] checks the rest of what it was delivered as the
/// run re-delivers it. A rank is parked in the call it had yielded at the
/// capture until it issues another, as after a replay.
pub(super) fn reuse<E>(w: &mut ClusterWorld<E>, live: LiveRanks, rt: &RuntimeImage) {
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
fn resume_recording<E>(w: &mut ClusterWorld<E>, rt: &RuntimeImage) {
    assert_eq!(rt.batches.len(), w.layout.ranks, "image rank count mismatch");
    w.batches = rt.batches.clone();
    w.record_resps = true;
    w.log = LiveLog::resume(&rt.log);
    w.logged_payload_bytes = rt.logged_payload_bytes;
    w.sends_yielded = rt.sends_yielded.clone();
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
