use super::*;
use crate::call::{MpiResp, ReqId};
use crate::ctx::AsyncMpi;
use crate::message::Status;
use crate::request::ReqKind;
use simcore::SimTime;
use std::collections::VecDeque;

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

/// A trivial engine. Compute advances virtual time; a rank's non-blocking
/// sends go to its own mailbox, and a non-blocking receive takes the oldest
/// one 1 µs after it is posted. It writes no request-call code: `wait`,
/// `waitall`, `test` and `testall` come with the runtime. Notes the order
/// the driver reaches it in.
struct NullEngine {
    seen: Vec<&'static str>,
    reqs: ReqTable,
    mail: Vec<VecDeque<(usize, i32, Payload)>>,
}

impl NullEngine {
    fn new(layout: &JobLayout) -> NullEngine {
        let mail = vec![VecDeque::new(); layout.ranks];
        NullEngine { seen: Vec::new(), reqs: ReqTable::new(layout.ranks), mail }
    }
}

type NW = ClusterWorld<NullEngine>;

impl Engine for NullEngine {
    fn bootstrap(w: &mut NW, _sim: &mut Sim<NW>) {
        w.engine.seen.push("bootstrap");
    }
}

impl Protocol for NullEngine {
    fn reqs(&mut self) -> &mut ReqTable {
        &mut self.reqs
    }

    fn compute(w: &mut NW, sim: &mut Sim<NW>, rank: usize, ns: u64) {
        w.engine.seen.push("compute");
        let at = sim.now() + SimDuration::nanos(ns);
        resume_at(w, sim, at, rank, MpiResp::Ok);
    }

    fn post_send(w: &mut NW, sim: &mut Sim<NW>, rank: usize, dest: usize, tag: i32, data: Payload, blocking: bool) {
        assert!(!blocking, "NullEngine posts only non-blocking sends");
        let req = w.engine.reqs.post(rank, ReqKind::Send, sim.now());
        w.engine.mail[dest].push_back((rank, tag, data));
        w.engine.reqs.complete(req);
        w.resume(rank, MpiResp::Req(req));
    }

    fn post_recv(w: &mut NW, sim: &mut Sim<NW>, rank: usize, _: SrcSel, _: TagSel, blocking: bool) {
        assert!(!blocking, "NullEngine posts only non-blocking receives");
        let req = w.engine.reqs.post(rank, ReqKind::Recv, sim.now());
        w.resume(rank, MpiResp::Req(req));
        sim.schedule_at(sim.now() + SimDuration::micros(1), move |w: &mut NW, sim| {
            let (source, tag, data) = w.engine.mail[rank].pop_front().expect("a receive posted after its send");
            let status = Status { source, tag, bytes: data.len() };
            w.engine.reqs.deliver(req, data, status);
            if let Some((owner, wake)) = w.engine.reqs.complete(req) {
                w.resume(owner, wake.into_resp());
                drain(w, sim);
            }
        });
    }

    // Nothing else: a call to these is a test bug.
    fn probe_match(&self, _: usize, _: SrcSel, _: TagSel) -> Option<Status> {
        unimplemented!()
    }
    fn park_probe(&mut self, _: usize, _: SrcSel, _: TagSel) {
        unimplemented!()
    }
    fn collective(_: &mut NW, _: &mut Sim<NW>, _: usize, _: CommId, _: CollCall) {
        unimplemented!()
    }
    fn comm_split(_: &mut NW, _: &mut Sim<NW>, _: usize, _: CommId, _: i64, _: i64) {
        unimplemented!()
    }
}

#[test]
fn run_job_collects_results_and_times() {
    let layout = JobLayout::new(4, 2, 8);
    let out = run_program(NullEngine::new(&layout), layout, |mut mpi: AsyncMpi| async move {
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
    let out = run_program(NullEngine::new(&layout), layout, |mut mpi: AsyncMpi| async move {
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
    let out = Job::new(NullEngine::new(&layout), layout)
        .setup(|w, _| w.engine.seen.push("setup"))
        .start(&|mut mpi: AsyncMpi| async move { mpi.compute(SimDuration::nanos(1)).await })
        .expect_complete();
    assert_eq!(out.engine.seen, ["bootstrap", "setup", "compute", "compute"]);
}

/// A rank whose program returns before issuing any call never reaches
/// the drain loop: it is finished at boot, at t=0, result and all.
#[test]
fn rank_returning_without_a_call_finishes_at_time_zero() {
    let layout = JobLayout::new(1, 2, 2);
    let out = run_program(NullEngine::new(&layout), layout, |mut mpi: AsyncMpi| async move {
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
    Job::new(NullEngine::new(&layout), layout)
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

/// A third engine gets the request lifecycle without writing any code for
/// it: NullEngine only posts and completes, and `wait`, `waitall`, `test`
/// and `testall` answer as on the two real engines — at once when the
/// condition holds, else when the engine completes the request.
#[test]
fn request_calls_come_with_the_runtime() {
    let layout = JobLayout::new(2, 1, 2);
    let out = run_program(NullEngine::new(&layout), layout, |mut mpi: AsyncMpi| async move {
        let me = mpi.rank();
        let tag = |i: i32| 10 * me as i32 + i;
        let status = |i: i32| Some(Status { source: me, tag: tag(i), bytes: 1 });

        // A receive is in flight for 1 µs; a send is complete at once.
        let s = mpi.isend(me, tag(1), &[1]).await;
        let r = mpi.irecv(SrcSel::Rank(me), TagSel::Tag(tag(1))).await;
        assert_eq!(mpi.test(r).await, None, "in flight");
        let (data, st) = mpi.wait(r).await;
        assert_eq!((data.expect("a receive carries data"), st), (Payload::from(vec![1]), status(1)));
        assert_eq!(mpi.wait(s).await, (None, None), "complete: answered at once");

        let s = mpi.isend(me, tag(2), &[2]).await;
        let r = mpi.irecv(SrcSel::Rank(me), TagSel::Tag(tag(2))).await;
        let all = mpi.waitall(&[s, r]).await;
        assert_eq!(all, [(None, None), (Some(Payload::from(vec![2])), status(2))]);

        let s = mpi.isend(me, tag(3), &[3]).await;
        let r = mpi.irecv(SrcSel::Rank(me), TagSel::Tag(tag(3))).await;
        assert_eq!(mpi.testall(&[s, r]).await, None, "nothing retired while one is in flight");
        mpi.compute(SimDuration::micros(1)).await;
        let all = mpi.testall(&[s, r]).await;
        assert_eq!(all, Some(vec![(None, None), (Some(Payload::from(vec![3])), status(3))]));

        let s = mpi.isend(me, tag(4), &[4]).await;
        assert_eq!(mpi.test(s).await, Some((None, None)));
        mpi.now().await
    });
    let t = SimTime::ZERO + SimDuration::micros(3);
    assert_eq!(out.results, [t, t], "each wait on a receive and the compute took 1 µs");
}

/// The misuse diagnostic names the rank, call, instant and id, whichever
/// engine serves the call.
#[test]
#[should_panic(expected = "rank 0 called wait at t=0ns on ReqId(0), which was never posted")]
fn a_wait_on_a_never_posted_id_is_named() {
    let layout = JobLayout::new(1, 1, 1);
    run_program(NullEngine::new(&layout), layout, |mut mpi: AsyncMpi| async move {
        mpi.wait(ReqId(0)).await;
    });
}

/// A rank count that would need thousands of OS threads on a
/// thread-per-rank substrate.
#[test]
fn vm_backend_scales_past_thread_counts() {
    let n: usize = 4096;
    let layout = JobLayout::new(n.div_ceil(2), 2, n);
    let out = run_program(NullEngine::new(&layout), layout, |mut mpi: AsyncMpi| async move {
        mpi.compute(SimDuration::nanos(mpi.rank() as u64 + 1)).await;
        mpi.rank()
    });
    assert_eq!(out.results.len(), n);
    assert!(out.results.iter().enumerate().all(|(i, &r)| i == r));
    assert_eq!(out.elapsed, SimDuration::nanos(n as u64));
}
