//! The cluster runtime: engine trait, world, and job driver.
//!
//! One simulation = one [`ClusterWorld`] (the engine plus the rank harness)
//! driven by one [`simcore::Sim`]. Rank programs run on one of two
//! [`Backend`]s behind the same yield protocol:
//!
//! * [`Backend::Vm`] (default for program-based entry points) — each rank
//!   is a stackless state machine ([`simcore::VmHarness`]) stepped in place
//!   by the drain loop. No OS threads, no per-rank stacks: n = 4096 ranks
//!   cost 4096 heap-allocated futures, so job size is bounded by memory,
//!   not by the host's thread limit.
//! * [`Backend::Threads`] — the original cooperative harness
//!   ([`simcore::CoHarness`]), one parked OS thread per rank. Retained as
//!   the executable reference implementation; the backend-equivalence suite
//!   checks the two produce bit-identical results.
//!
//! Every [`MpiCall`] a rank issues is dispatched to the engine, which
//! completes it immediately or later by scheduling a resume. The drain loop
//! is the one subtle piece: resuming a rank yields its next call, which the
//! engine may answer immediately, which resumes the rank again, and so on.
//! Completions therefore go through a queue ([`ClusterWorld::resume`])
//! drained at the top level ([`drain`]) rather than recursing.

use crate::call::{MpiCall, MpiResp};
use crate::chunklog::{ChunkLog, LogSnapshot};
use crate::ctx::{ready, AsyncMpi, Mpi, RankProgram};
use crate::idtable::IdTable;
use crate::payload::{Origin, Payload};
use qsnet::NodeId;
use simcore::{CoHarness, ProcId, ProcYield, Sim, SimDuration, SimTime, SpawnError, VmChannel, VmHarness};
use std::collections::VecDeque;
use std::sync::Arc;

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
    pub fn ranks_on(&self, node: NodeId) -> impl Iterator<Item = usize> + '_ {
        let lo = node.0 * self.cpus_per_node;
        (lo..(lo + self.cpus_per_node).min(self.ranks)).filter(move |_| lo < self.ranks)
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

    /// Notification that `rank`'s program returned.
    fn on_finished(
        _w: &mut ClusterWorld<Self>,
        _sim: &mut Sim<ClusterWorld<Self>>,
        _rank: usize,
    ) {
    }

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

/// Which rank-execution substrate a job runs on (see the module docs).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backend {
    /// Stackless state-machine ranks; scales to thousands of ranks.
    #[default]
    Vm,
    /// One parked OS thread per rank; the executable reference.
    Threads,
}

/// The per-rank harness behind the yield protocol — the only place the two
/// backends differ. Both expose the same resume/take_result surface and
/// identical panic behaviour, so the driver below is backend-agnostic.
enum RankHarness {
    Threads(CoHarness<MpiCall, MpiResp>),
    Vm(VmHarness<MpiCall, MpiResp>),
}

impl RankHarness {
    fn new(backend: Backend) -> RankHarness {
        match backend {
            Backend::Threads => RankHarness::Threads(CoHarness::new()),
            Backend::Vm => RankHarness::Vm(VmHarness::new()),
        }
    }

    fn resume(&mut self, pid: ProcId, resp: MpiResp) -> ProcYield<MpiCall> {
        match self {
            RankHarness::Threads(h) => h.resume(pid, resp),
            RankHarness::Vm(h) => h.resume(pid, resp),
        }
    }

    fn take_result<R: Send + 'static>(&mut self, pid: ProcId) -> Option<R> {
        match self {
            RankHarness::Threads(h) => h.take_result::<R>(pid),
            RankHarness::Vm(h) => h.take_result::<R>(pid),
        }
    }
}

/// In-flight state of one rank's [`MpiCall::Batch`]: the sub-calls not yet
/// issued to the engine and the responses accumulated so far. The runtime
/// feeds sub-call *i+1* to the engine at the exact virtual instant sub-call
/// *i*'s response arrives — which is when an unbatched rank would have
/// issued it — so batching changes harness traffic, never virtual timing.
#[derive(Clone, Debug)]
pub struct BatchState {
    /// Sub-calls still to be issued, in order.
    pub queue: VecDeque<MpiCall>,
    /// Engine responses collected so far, in issue order.
    pub resps: Vec<MpiResp>,
}

/// The simulation world: engine + rank harness + completion queue.
pub struct ClusterWorld<E: Engine> {
    pub engine: E,
    pub layout: JobLayout,
    harness: RankHarness,
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
    /// Scheduled-but-undelivered completions ([`resume_at`]), in scheduling
    /// order. Tracked in the world (not closures) so checkpoints can
    /// capture them.
    pending_resumes: IdTable<u64, (SimTime, usize, MpiResp)>,
    /// When set, every response delivered to a rank is appended to `log`
    /// and every send a rank yields is stamped with its [`Origin`] — the
    /// raw material of deterministic replay.
    record_resps: bool,
    log: ChunkLog<Delivery>,
    /// Point-to-point sends each rank has yielded while recording: the
    /// ordinal of its next one.
    sends_yielded: Vec<u64>,
    /// Payload bytes `log` holds by value (see [`RuntimeImage`]).
    logged_payload_bytes: u64,
}

/// One entry of the replay log: a response and the world rank it was
/// delivered to. Payloads stamped with an [`Origin`] are logged hollow
/// ([`Payload::hollow`]).
pub type Delivery = (u32, MpiResp);

impl<E: Engine> ClusterWorld<E> {
    /// World on the thread backend — the constructor the closure-based
    /// [`run_job`] family uses.
    pub fn new(engine: E, layout: JobLayout) -> ClusterWorld<E> {
        ClusterWorld::with_backend(engine, layout, Backend::Threads)
    }

    /// World on an explicit [`Backend`].
    pub fn with_backend(engine: E, layout: JobLayout, backend: Backend) -> ClusterWorld<E> {
        let ranks = layout.ranks;
        ClusterWorld {
            engine,
            layout,
            harness: RankHarness::new(backend),
            pending: VecDeque::new(),
            finished: 0,
            finish_times: vec![None; ranks],
            draining: false,
            batches: (0..ranks).map(|_| None).collect(),
            pending_call: vec![None; ranks],
            pending_resumes: IdTable::new(),
            record_resps: false,
            log: ChunkLog::new(),
            sends_yielded: vec![0; ranks],
            logged_payload_bytes: 0,
        }
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

    /// Append `resp`, about to be delivered to `rank`, to the replay log.
    /// A stamped payload is a point-to-point message whose sender will
    /// regenerate it on replay, so only its origin is kept and the rank
    /// receives the sole reference to the bytes; anything else is kept by
    /// value.
    fn record(&mut self, rank: usize, resp: &MpiResp) {
        let mut logged = resp.clone();
        let mut kept = 0usize;
        logged.for_each_payload(&mut |p| match p.origin() {
            Some(origin) => *p = Payload::hollow(origin),
            None => kept += p.len(),
        });
        self.logged_payload_bytes += kept as u64;
        self.log.push((rank as u32, logged));
    }

    /// Capture the runtime half of a checkpoint at a quiescent instant:
    /// the machine-wide response history, every scheduled-but-undelivered
    /// completion, and per-rank finish times. Together with an engine-state
    /// snapshot this is sufficient to reconstruct the whole simulation on
    /// the original (absolute) timeline — see [`resume_job`].
    ///
    /// Takes `&mut self` because capturing seals the log's tail into a
    /// chunk the image shares ([`ChunkLog::snapshot`]) — O(1) whatever the
    /// length of the history.
    pub fn runtime_image(&mut self, captured_at: SimTime) -> RuntimeImage {
        assert!(
            self.record_resps,
            "runtime_image requires response recording (ClusterWorld::set_recording)"
        );
        assert!(
            self.pending.is_empty(),
            "runtime_image at a non-quiescent instant: completion queue not drained"
        );
        RuntimeImage {
            log: self.log.snapshot(),
            logged_payload_bytes: self.logged_payload_bytes,
            pending_resumes: self.pending_resumes.iter().map(|(_, r)| r.clone()).collect(),
            finish_times: self.finish_times.clone(),
            batches: self.batches.clone(),
            captured_at,
        }
    }
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
/// raw material of the deadlock diagnostic in [`finish_run`]).
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
/// straight to the engine. A recording runtime first stamps the sends the
/// call carries, so whoever receives them can be logged by reference.
fn dispatch_call<E: Engine>(
    w: &mut ClusterWorld<E>,
    sim: &mut Sim<ClusterWorld<E>>,
    rank: usize,
    call: MpiCall,
) {
    let call = if w.record_resps { stamp_sends(&mut w.sends_yielded[rank], rank, call) } else { call };
    match call {
        MpiCall::Batch { calls } => {
            assert!(
                w.batches[rank].is_none(),
                "rank {rank} issued a batch while one is in flight"
            );
            let mut queue: VecDeque<MpiCall> = calls.into();
            let first = queue.pop_front().expect("empty MpiCall::Batch");
            assert!(
                first.is_batchable() && queue.iter().all(MpiCall::is_batchable),
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
    w.draining = true;
    while let Some((rank, resp)) = w.pending.pop_front() {
        // A rank inside a batch is not resumed per sub-response: the
        // response is accumulated and the next sub-call issued in its
        // place, at the same virtual instant.
        let resp = if w.batches[rank].is_some() {
            let st = w.batches[rank].as_mut().expect("checked above");
            st.resps.push(resp);
            match st.queue.pop_front() {
                Some(next) => {
                    issue_call(w, sim, rank, next);
                    continue;
                }
                None => {
                    let st = w.batches[rank].take().expect("checked above");
                    MpiResp::Batch { resps: st.resps }
                }
            }
        } else {
            resp
        };
        if w.record_resps {
            w.record(rank, &resp);
        }
        let y = w.harness.resume(ProcId(rank), resp);
        match y {
            ProcYield::Request(call) => dispatch_call(w, sim, rank, call),
            ProcYield::Finished(_) => {
                w.pending_call[rank] = None;
                w.finished += 1;
                w.finish_times[rank] = Some(sim.now());
                E::on_finished(w, sim, rank);
            }
        }
    }
    w.draining = false;
}

/// Schedule `resp` to be delivered to `rank` at virtual time `at`.
///
/// The pending completion is tracked in the world (see
/// [`ClusterWorld::runtime_image`]); the scheduled event only carries its
/// id, so a checkpoint restore can re-create the exact delivery schedule.
pub fn resume_at<E: Engine>(
    w: &mut ClusterWorld<E>,
    sim: &mut Sim<ClusterWorld<E>>,
    at: SimTime,
    rank: usize,
    resp: MpiResp,
) {
    let id = w.pending_resumes.push((at, rank, resp));
    sim.schedule_at(at, move |w: &mut ClusterWorld<E>, sim| {
        if let Some((_, rank, resp)) = w.pending_resumes.remove(id) {
            w.resume(rank, resp);
            drain(w, sim);
        }
    });
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

/// Outcome of [`run_job`].
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
}

/// Options for [`run_job_opts`].
#[derive(Clone, Debug, Default)]
pub struct RunOpts {
    /// Abort (panic) if virtual time exceeds this bound — catches protocol
    /// livelock in tests.
    pub max_virtual: Option<SimDuration>,
}

/// How the generic driver instantiates one rank: the only seam between the
/// closure world (`Fn(&mut Mpi)`, thread backend only) and the program
/// world ([`RankProgram`], either backend).
trait Spawner {
    type Out: Send + 'static;

    fn spawn_rank(
        &self,
        harness: &mut RankHarness,
        rank: usize,
        size: usize,
    ) -> Result<(ProcId, ProcYield<MpiCall>), SpawnError>;
}

/// Spawner for blocking-style closure programs. These need a real call
/// stack to block on, so they run only on [`Backend::Threads`].
struct ClosureSpawner<F>(Arc<F>);

impl<R, F> Spawner for ClosureSpawner<F>
where
    R: Send + 'static,
    F: Fn(&mut Mpi) -> R + Send + Sync + 'static,
{
    type Out = R;

    fn spawn_rank(
        &self,
        harness: &mut RankHarness,
        rank: usize,
        size: usize,
    ) -> Result<(ProcId, ProcYield<MpiCall>), SpawnError> {
        let RankHarness::Threads(co) = harness else {
            unreachable!("closure programs run only on the thread backend")
        };
        let prog = Arc::clone(&self.0);
        co.try_spawn(format!("rank{rank}"), move |h| {
            let mut mpi = Mpi::new(h, rank, size);
            prog(&mut mpi)
        })
    }
}

/// Spawner for [`RankProgram`]s: boots the program's future into a VM slot,
/// or drives the identical future to completion on a cooperative thread.
struct ProgramSpawner<P>(Arc<P>);

impl<P: RankProgram> Spawner for ProgramSpawner<P> {
    type Out = P::Out;

    fn spawn_rank(
        &self,
        harness: &mut RankHarness,
        rank: usize,
        size: usize,
    ) -> Result<(ProcId, ProcYield<MpiCall>), SpawnError> {
        match harness {
            RankHarness::Vm(vm) => {
                let chan: VmChannel<MpiCall, MpiResp> = VmChannel::new();
                let mpi = AsyncMpi::from_vm(chan.clone(), rank, size);
                Ok(vm.spawn(chan, self.0.boot(mpi)))
            }
            RankHarness::Threads(co) => {
                let prog = Arc::clone(&self.0);
                co.try_spawn(format!("rank{rank}"), move |h| {
                    let mpi = AsyncMpi::from_thread(h, rank, size);
                    ready(prog.boot(mpi))
                })
            }
        }
    }
}

/// Run `program` as an MPI job of `layout.ranks` ranks over `engine`.
///
/// The program closure receives an [`Mpi`] context; its return value is
/// collected per rank. Panics with a diagnostic if the job deadlocks.
/// Runs on [`Backend::Threads`]; the scalable entry point is
/// [`run_program`].
pub fn run_job<E, R, F>(engine: E, layout: JobLayout, program: F) -> RunResult<R, E>
where
    E: Engine,
    R: Send + 'static,
    F: Fn(&mut Mpi) -> R + Send + Sync + 'static,
{
    run_job_opts(engine, layout, program, RunOpts::default())
}

/// [`run_job`] with explicit options.
pub fn run_job_opts<E, R, F>(
    engine: E,
    layout: JobLayout,
    program: F,
    opts: RunOpts,
) -> RunResult<R, E>
where
    E: Engine,
    R: Send + 'static,
    F: Fn(&mut Mpi) -> R + Send + Sync + 'static,
{
    expect_complete(run_job_hooked(engine, layout, program, |_, _| {}, opts))
}

/// Run a [`RankProgram`] job on the default backend ([`Backend::Vm`]).
pub fn run_program<E, P>(engine: E, layout: JobLayout, program: P) -> RunResult<P::Out, E>
where
    E: Engine,
    P: RankProgram,
{
    run_program_opts(engine, layout, program, RunOpts::default())
}

/// [`run_program`] with explicit options.
pub fn run_program_opts<E, P>(
    engine: E,
    layout: JobLayout,
    program: P,
    opts: RunOpts,
) -> RunResult<P::Out, E>
where
    E: Engine,
    P: RankProgram,
{
    run_program_on(engine, layout, program, opts, Backend::default())
}

/// [`run_program`] with explicit options and backend. Panics with a
/// diagnostic if the job deadlocks or a rank cannot be spawned.
pub fn run_program_on<E, P>(
    engine: E,
    layout: JobLayout,
    program: P,
    opts: RunOpts,
    backend: Backend,
) -> RunResult<P::Out, E>
where
    E: Engine,
    P: RankProgram,
{
    expect_complete(run_program_hooked(
        engine,
        layout,
        program,
        |_, _| {},
        opts,
        backend,
    ))
}

/// Panicking conversion shared by the infallible entry points.
fn expect_complete<R, E>(out: RunOutcome<R, E>) -> RunResult<R, E> {
    if !out.completed {
        panic!(
            "{}",
            out.diagnostic.as_deref().unwrap_or("MPI job did not complete")
        );
    }
    let finish_times: Vec<SimTime> = out
        .finish_times
        .iter()
        .map(|t| t.expect("finished rank must have a finish time"))
        .collect();
    RunResult {
        results: out
            .results
            .into_iter()
            .map(|r| r.expect("finished rank must have a result"))
            .collect(),
        elapsed: out.elapsed,
        finish_times,
        engine: out.engine,
        events: out.events,
    }
}

/// Outcome of [`run_job_hooked`] / [`resume_job`]: like [`RunResult`] but
/// non-panicking, so a halted run (node failure, horizon, rank-spawn
/// failure) can be inspected and recovered instead of aborting the process.
pub struct RunOutcome<R, E> {
    /// True when every rank's program returned.
    pub completed: bool,
    /// Per-rank results (`None` for ranks that never finished).
    pub results: Vec<Option<R>>,
    /// Virtual time of the last finish (completed) or of the stop instant.
    pub elapsed: SimDuration,
    /// Per-rank finish times.
    pub finish_times: Vec<Option<SimTime>>,
    /// The engine, for stats/checkpoint inspection.
    pub engine: E,
    /// Simulator dispatches executed (see [`RunResult::events`]).
    pub events: u64,
    /// Human-readable reason when `completed` is false.
    pub diagnostic: Option<String>,
}

/// [`run_job_opts`]'s engine room, with two extra capabilities: a `setup`
/// hook that runs after `bootstrap` but before any rank executes (fault
/// injection, monitors, response recording), and a non-panicking outcome —
/// the run also stops when [`Engine::halted`] turns true.
pub fn run_job_hooked<E, R, F, S>(
    engine: E,
    layout: JobLayout,
    program: F,
    setup: S,
    opts: RunOpts,
) -> RunOutcome<R, E>
where
    E: Engine,
    R: Send + 'static,
    F: Fn(&mut Mpi) -> R + Send + Sync + 'static,
    S: FnOnce(&mut ClusterWorld<E>, &mut Sim<ClusterWorld<E>>),
{
    run_hooked_inner(
        engine,
        layout,
        ClosureSpawner(Arc::new(program)),
        setup,
        opts,
        Backend::Threads,
    )
}

/// [`run_program_on`]'s engine room: [`run_job_hooked`] for
/// [`RankProgram`]s, on an explicit backend.
pub fn run_program_hooked<E, P, S>(
    engine: E,
    layout: JobLayout,
    program: P,
    setup: S,
    opts: RunOpts,
    backend: Backend,
) -> RunOutcome<P::Out, E>
where
    E: Engine,
    P: RankProgram,
    S: FnOnce(&mut ClusterWorld<E>, &mut Sim<ClusterWorld<E>>),
{
    run_hooked_inner(
        engine,
        layout,
        ProgramSpawner(Arc::new(program)),
        setup,
        opts,
        backend,
    )
}

/// Backend- and program-representation-agnostic driver body shared by
/// [`run_job_hooked`] and [`run_program_hooked`] — one copy of the spawn /
/// dispatch / drain logic, so the two entry families cannot drift.
fn run_hooked_inner<E, Sp, S>(
    engine: E,
    layout: JobLayout,
    spawner: Sp,
    setup: S,
    opts: RunOpts,
    backend: Backend,
) -> RunOutcome<Sp::Out, E>
where
    E: Engine,
    Sp: Spawner,
    S: FnOnce(&mut ClusterWorld<E>, &mut Sim<ClusterWorld<E>>),
{
    let mut sim: Sim<ClusterWorld<E>> = Sim::new();
    if let Some(mv) = opts.max_virtual {
        sim.set_horizon(SimTime::ZERO + mv);
    }
    let mut w = ClusterWorld::with_backend(engine, layout.clone(), backend);
    E::bootstrap(&mut w, &mut sim);
    setup(&mut w, &mut sim);

    let size = layout.ranks;
    for rank in 0..size {
        let (pid, y) = match spawner.spawn_rank(&mut w.harness, rank, size) {
            Ok(sp) => sp,
            Err(e) => return spawn_failure_outcome(w, sim, rank, e),
        };
        assert_eq!(pid.0, rank, "rank ids must be dense");
        match y {
            ProcYield::Request(call) => dispatch_call(&mut w, &mut sim, rank, call),
            ProcYield::Finished(_) => {
                w.finished += 1;
                w.finish_times[rank] = Some(SimTime::ZERO);
            }
        }
    }
    drain(&mut w, &mut sim);

    finish_run(w, sim)
}

/// A rank could not be spawned (thread backend hitting the host's thread
/// limit). Surface a structured diagnostic instead of aborting — the world
/// (and its already-spawned ranks) is torn down by dropping it.
fn spawn_failure_outcome<E: Engine, R>(
    w: ClusterWorld<E>,
    sim: Sim<ClusterWorld<E>>,
    rank: usize,
    err: SpawnError,
) -> RunOutcome<R, E> {
    let size = w.layout.ranks;
    let ClusterWorld {
        engine,
        finish_times,
        ..
    } = w;
    RunOutcome {
        completed: false,
        results: (0..size).map(|_| None).collect(),
        elapsed: sim.now().since(SimTime::ZERO),
        finish_times,
        engine,
        events: sim.events_executed(),
        diagnostic: Some(format!(
            "MPI job could not start: failed to spawn rank {rank} of {size}: {err}"
        )),
    }
}

/// Resume a job from a checkpoint: `engine` must already be restored to the
/// image's state, `rt` is the matching [`RuntimeImage`], and `kickoff` is
/// scheduled at the capture instant to restart the protocol (in BCS-MPI,
/// the slice-boundary resume). Rank programs are re-spawned and silently
/// replayed through the recorded responses, all ranks interleaved in the
/// order the responses were delivered. The calls they yield are discarded,
/// because every effect of those calls is already part of the restored
/// engine state — except the payloads of their sends, which are what the
/// log's hollow references are filled from. Each rank ends up parked
/// exactly where the checkpoint caught it, and the simulation continues on
/// the original absolute timeline.
pub fn resume_job<E, R, F, S, K>(
    engine: E,
    layout: JobLayout,
    program: F,
    rt: &RuntimeImage,
    kickoff: K,
    setup: S,
    opts: RunOpts,
) -> RunOutcome<R, E>
where
    E: Engine,
    R: Send + 'static,
    F: Fn(&mut Mpi) -> R + Send + Sync + 'static,
    S: FnOnce(&mut ClusterWorld<E>, &mut Sim<ClusterWorld<E>>),
    K: FnOnce(&mut ClusterWorld<E>, &mut Sim<ClusterWorld<E>>) + 'static,
{
    resume_inner(
        engine,
        layout,
        ClosureSpawner(Arc::new(program)),
        rt,
        kickoff,
        setup,
        opts,
        Backend::Threads,
    )
}

/// [`resume_job`] for [`RankProgram`]s, on an explicit backend. Checkpoint
/// replay works identically on VM-resident rank state: the response log is
/// fed to the re-booted state machines exactly as it is to re-spawned
/// threads.
pub fn resume_program<E, P, S, K>(
    engine: E,
    layout: JobLayout,
    program: P,
    rt: &RuntimeImage,
    kickoff: K,
    setup: S,
    opts: RunOpts,
    backend: Backend,
) -> RunOutcome<P::Out, E>
where
    E: Engine,
    P: RankProgram,
    S: FnOnce(&mut ClusterWorld<E>, &mut Sim<ClusterWorld<E>>),
    K: FnOnce(&mut ClusterWorld<E>, &mut Sim<ClusterWorld<E>>) + 'static,
{
    resume_inner(
        engine,
        layout,
        ProgramSpawner(Arc::new(program)),
        rt,
        kickoff,
        setup,
        opts,
        backend,
    )
}

/// Shared body of [`resume_job`] / [`resume_program`].
#[allow(clippy::too_many_arguments)]
fn resume_inner<E, Sp, S, K>(
    engine: E,
    layout: JobLayout,
    spawner: Sp,
    rt: &RuntimeImage,
    kickoff: K,
    setup: S,
    opts: RunOpts,
    backend: Backend,
) -> RunOutcome<Sp::Out, E>
where
    E: Engine,
    Sp: Spawner,
    S: FnOnce(&mut ClusterWorld<E>, &mut Sim<ClusterWorld<E>>),
    K: FnOnce(&mut ClusterWorld<E>, &mut Sim<ClusterWorld<E>>) + 'static,
{
    let size = layout.ranks;
    assert_eq!(rt.batches.len(), size, "image rank count mismatch");
    let mut sim: Sim<ClusterWorld<E>> = Sim::new();
    if let Some(mv) = opts.max_virtual {
        sim.set_horizon(SimTime::ZERO + mv);
    }
    let mut w = ClusterWorld::with_backend(engine, layout.clone(), backend);
    // No bootstrap: the restored engine state already contains the
    // protocol's standing state; `kickoff` restarts its event loop.
    w.batches = rt.batches.clone();

    // What each rank has sent and nobody has received yet, by send ordinal.
    // In the original run a receive completed only after its sender had
    // yielded the send, and the log is in delivery order, so by the time an
    // entry refers to a payload its replayed sender has yielded it again.
    let mut sent: Vec<IdTable<u64, Payload>> = (0..size).map(|_| IdTable::new()).collect();
    let mut parked: Vec<ProcYield<MpiCall>> = Vec::with_capacity(size);
    for (rank, sent) in sent.iter_mut().enumerate() {
        let (pid, mut y) = match spawner.spawn_rank(&mut w.harness, rank, size) {
            Ok(sp) => sp,
            Err(e) => return spawn_failure_outcome(w, sim, rank, e),
        };
        assert_eq!(pid.0, rank, "rank ids must be dense");
        harvest_sends(sent, &mut y);
        parked.push(y);
    }
    for (entry, (rank, logged)) in rt.log.iter().enumerate() {
        let rank = *rank as usize;
        if let ProcYield::Finished(_) = parked[rank] {
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
                w.pending_call[rank] = Some((call.op_name(), rt.captured_at));
            }
            (ProcYield::Finished(_), Some(at)) => {
                w.finished += 1;
                w.finish_times[rank] = Some(at);
            }
            (ProcYield::Request(_), Some(at)) => {
                replay_diverged(rt, rank, rt.log.len(), y, &format!("had finished at t={at}"))
            }
            (ProcYield::Finished(_), None) => {
                replay_diverged(rt, rank, rt.log.len(), y, "was still running at the capture")
            }
        }
    }
    // Recording continues where the image's log and send counts end.
    w.record_resps = true;
    w.log = ChunkLog::resume(&rt.log);
    w.logged_payload_bytes = rt.logged_payload_bytes;
    w.sends_yielded = sent.iter().map(IdTable::next_id).collect();

    // Re-create the delivery schedule (scheduling order = original issue
    // order, so same-instant events keep their relative order), then the
    // protocol kickoff at the capture instant.
    for (at, rank, resp) in &rt.pending_resumes {
        resume_at(&mut w, &mut sim, *at, *rank, resp.clone());
    }
    sim.schedule_at(rt.captured_at, move |w: &mut ClusterWorld<E>, sim| {
        kickoff(w, sim);
        drain(w, sim);
    });
    setup(&mut w, &mut sim);

    finish_run(w, sim)
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
        ProcYield::Finished(_) => "nothing: its program returned",
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

/// Shared tail of the drivers: run to completion/halt and collect.
fn finish_run<E, R>(mut w: ClusterWorld<E>, mut sim: Sim<ClusterWorld<E>>) -> RunOutcome<R, E>
where
    E: Engine,
    R: Send + 'static,
{
    let size = w.layout.ranks;
    let done = sim.run_until(&mut w, |w| w.all_finished() || E::halted(w));
    let completed = w.all_finished();
    let diagnostic = if completed {
        None
    } else {
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
        Some(format!(
            "MPI job did not complete at t={} ({} of {} ranks finished).\n\
             Stuck ranks:\n{lines}\
             Either the program deadlocked, a failure halted the machine, or the\n\
             virtual-time horizon was hit (run_until={done}).\n\
             Engine state:\n{}",
            sim.now(),
            w.finished,
            size,
            w.engine.describe_pending()
        ))
    };
    let elapsed = if completed {
        w.finish_times
            .iter()
            .map(|t| t.expect("finished rank must have a finish time"))
            .max()
            .unwrap_or(SimTime::ZERO)
            .since(SimTime::ZERO)
    } else {
        sim.now().since(SimTime::ZERO)
    };
    let results: Vec<Option<R>> = (0..size)
        .map(|r| w.harness.take_result::<R>(ProcId(r)))
        .collect();
    RunOutcome {
        completed,
        results,
        elapsed,
        finish_times: w.finish_times.clone(),
        engine: w.engine,
        events: sim.events_executed(),
        diagnostic,
    }
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
    // which advances virtual time. Exercises the full driver machinery.
    struct NullEngine;

    impl Engine for NullEngine {
        fn bootstrap(_w: &mut ClusterWorld<Self>, _sim: &mut Sim<ClusterWorld<Self>>) {}

        fn on_call(
            w: &mut ClusterWorld<Self>,
            sim: &mut Sim<ClusterWorld<Self>>,
            rank: usize,
            call: MpiCall,
        ) {
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
        let out = run_job(NullEngine, layout, |mpi| {
            mpi.compute(SimDuration::micros(100 * (mpi.rank() as u64 + 1)));
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
        let out = run_job(NullEngine, layout, |mpi| {
            let t0 = mpi.now();
            mpi.compute(SimDuration::millis(3));
            let t1 = mpi.now();
            t1.since(t0)
        });
        assert_eq!(out.results[0], SimDuration::millis(3));
    }

    #[test]
    #[should_panic(expected = "did not complete")]
    fn horizon_reports_stuck_ranks() {
        let layout = JobLayout::new(1, 2, 2);
        run_job_opts(
            NullEngine,
            layout,
            |mpi| {
                // Rank 1 computes past the horizon.
                if mpi.rank() == 1 {
                    mpi.compute(SimDuration::secs(10));
                }
            },
            RunOpts {
                max_virtual: Some(SimDuration::secs(1)),
            },
        );
    }

    /// The deadlock diagnostic must name each stuck rank's pending call and
    /// the virtual instant it was issued.
    #[test]
    fn diagnostic_names_stuck_ranks_and_calls() {
        let layout = JobLayout::new(1, 2, 2);
        let out = run_job_hooked(
            NullEngine,
            layout,
            |mpi: &mut Mpi| {
                if mpi.rank() == 1 {
                    mpi.compute(SimDuration::secs(10));
                }
            },
            |_, _| {},
            RunOpts {
                max_virtual: Some(SimDuration::secs(1)),
            },
        );
        assert!(!out.completed);
        let d = out.diagnostic.expect("incomplete run must carry a diagnostic");
        assert!(
            d.contains("rank 1: parked in compute since t="),
            "diagnostic must name the stuck call:\n{d}"
        );
        assert!(!d.contains("rank 0:"), "rank 0 finished and must not be listed:\n{d}");
    }

    /// Same program, same engine, both backends: identical results, finish
    /// times, and event counts.
    #[test]
    fn vm_backend_matches_thread_backend() {
        let prog = |mut mpi: AsyncMpi| async move {
            mpi.compute(SimDuration::micros(100 * (mpi.rank() as u64 + 1)))
                .await;
            let t = mpi.now().await;
            (mpi.rank() * 10, t)
        };
        let layout = JobLayout::new(4, 2, 8);
        let vm = run_program_on(
            NullEngine,
            layout.clone(),
            prog,
            RunOpts::default(),
            Backend::Vm,
        );
        let th = run_program_on(
            NullEngine,
            layout,
            prog,
            RunOpts::default(),
            Backend::Threads,
        );
        assert_eq!(vm.results, th.results);
        assert_eq!(vm.finish_times, th.finish_times);
        assert_eq!(vm.elapsed, th.elapsed);
        assert_eq!(vm.events, th.events);
        assert_eq!(vm.results[3].0, 30);
    }

    /// The VM backend runs a rank count that would need thousands of OS
    /// threads on the reference backend.
    #[test]
    fn vm_backend_scales_past_thread_counts() {
        let n: usize = 4096;
        let layout = JobLayout::new(n.div_ceil(2), 2, n);
        let out = run_program(NullEngine, layout, |mut mpi: AsyncMpi| async move {
            mpi.compute(SimDuration::nanos(mpi.rank() as u64 + 1)).await;
            mpi.rank()
        });
        assert_eq!(out.results.len(), n);
        assert!(out.results.iter().enumerate().all(|(i, &r)| i == r));
        assert_eq!(out.elapsed, SimDuration::nanos(n as u64));
    }
}
