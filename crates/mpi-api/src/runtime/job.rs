//! The job driver: a run described once as a [`Job`] value and started,
//! what it returns, and why it stopped when it stopped short.

use super::record::{LiveRanks, RuntimeImage, replay, reuse, stamper, take_results};
use super::world::{ClusterWorld, drain, issue, resume_at};
use super::{Engine, JobLayout};
use crate::ctx::RankProgram;
use simcore::{ProcYield, Sim, SimDuration, SimTime};

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
                                call.for_each_send_payload(&mut stamper(&mut w.sends_yielded[rank], rank, false));
                            }
                            issue(&mut w, &mut sim, rank, call)
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
