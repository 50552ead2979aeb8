//! What a recording run keeps, and how a restore rebuilds its ranks: the
//! replay log and the tape beside it, the [`RuntimeImage`] a checkpoint
//! captures, and the two ways back — replaying every rank through the log
//! ([`replay`]) or taking over the ranks of the run that halted
//! ([`reuse`]).

use super::world::ClusterWorld;
use crate::call::{MpiCall, MpiResp};
use crate::ctx::RankProgram;
use crate::payload::{Origin, Payload};
use simcore::chunklog::{ChunkLog, LogSnapshot};
use simcore::{IdTable, ProcId, ProcYield, SimTime, VmHarness};
use std::collections::VecDeque;

/// One step of a rank's lookahead: a response a halted run delivered to
/// it, in its logged form, and what the rank did next.
pub(super) type Step = (MpiResp, Option<MpiCall>);

/// One entry of the replay log: a response and the world rank it was
/// delivered to. Payloads stamped with an [`Origin`] are logged hollow
/// ([`Payload::hollow`]).
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
    /// anything: the run is marked diverged instead.
    pub(super) fn step_recorded(&mut self, rank: usize, resp: MpiResp) -> Option<MpiCall> {
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
    /// the original (absolute) timeline — see [`super::Job::resume_from`].
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
    pub(super) fn take_live(&mut self) -> LiveRanks {
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
    /// images ([`LogSnapshot::materialize`]). The reference point
    /// incremental recovery is validated against.
    pub fn materialize(&self) -> RuntimeImage {
        let mut img = self.clone();
        img.log = self.log.materialize();
        img
    }
}

/// Stamp the sends `call` carries with their origin: `rank` and the next
/// ordinals of its count. Out of line and by value, so a run that does not
/// record never takes the call's address.
#[inline(never)]
pub(super) fn stamp_sends(ordinal: &mut u64, rank: usize, mut call: MpiCall) -> MpiCall {
    call.for_each_send_payload(&mut |p| {
        p.stamp(Origin { rank: rank as u32, ordinal: *ordinal });
        *ordinal += 1;
    });
    call
}

/// Boot every rank of a resumed job and replay it through `rt`'s response
/// log, leaving the world's rank and recording state as it was at the
/// capture (see [`super::Job::resume_from`]).
pub(super) fn replay<E, P: RankProgram>(w: &mut ClusterWorld<E>, program: &P, rt: &RuntimeImage) {
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
