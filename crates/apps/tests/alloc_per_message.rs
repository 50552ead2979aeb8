//! What one simulated message costs the host allocator, as an exact count.
//!
//! A counting global allocator (`simcore::CountingAlloc`: per thread, so
//! parallel tests do not mix) wraps whole runs of the two point-to-point
//! benchmarks: every heap allocation between the run call and its result is
//! divided by the messages the run moved. The bounds: at most 2.5
//! allocations per message, and at most half of what this same test
//! measured on the commit before payloads went by reference and the event
//! queue, the match index and the fabric completions stopped allocating per
//! message. Armed with the retry layer, a lossless run costs exactly what
//! an unarmed one does. Recording for recovery costs at most two more per
//! message: images are paid for at the capture, and neither the replay log
//! nor the tape allocates per delivery. The last test checks the other half of "a message
//! body is never copied": the bytes a rank reads out of a batched waitall,
//! a `waitall`, a `wait` or a blocking `recv` are the allocation its
//! neighbour posted.

use apps::runner::{RunReport, RunSpec, run_app};
use apps::synthetic::{NeighborLoopCfg, ParticleStressCfg, neighbor_loop, particle_stress};
use bcs_mpi::{BcsConfig, BcsMpi};
use mpi_api::message::{SrcSel, TagSel};
use mpi_api::runtime::{Job, JobLayout};
use mpi_api::{AsyncMpi, MpiResp, Payload, RankProgram, ReduceOp};
use simcore::{CountingAlloc, SimDuration};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations (and reallocations) this thread makes per message while it
/// runs `program`, engine construction and rank boot included.
fn allocs_per_message<P: RankProgram>(
    spec: &RunSpec,
    layout: JobLayout,
    program: P,
    msgs: usize,
) -> f64 {
    let before = CountingAlloc::allocs_on_this_thread();
    run_app(spec, layout, program);
    (CountingAlloc::allocs_on_this_thread() - before) as f64 / msgs as f64
}

#[test]
fn a_message_costs_at_most_two_and_a_half_allocations() {
    let halo = NeighborLoopCfg::paper(SimDuration::micros(400), 200);
    let halo_msgs = 62 * halo.neighbors * 200;
    let particle = ParticleStressCfg::small(false, 40);
    let particle_msgs = 32 * particle.neighbors * particle.msgs_per_peer * 40;
    let crescendo = || JobLayout::crescendo(62);
    let (bcs, quadrics) = (RunSpec::bcs(), RunSpec::quadrics());
    // (workload and spec, allocations per message now, and as this test
    // measured them on that earlier commit)
    let rows = [
        (
            format!("neighbor_loop under {bcs}"),
            allocs_per_message(&bcs, crescendo(), neighbor_loop(halo.clone()), halo_msgs),
            8.72,
        ),
        (
            format!("neighbor_loop under {quadrics}"),
            allocs_per_message(&quadrics, crescendo(), neighbor_loop(halo), halo_msgs),
            4.26,
        ),
        (
            format!("particle_stress under {bcs}"),
            allocs_per_message(&bcs, JobLayout::new(16, 2, 32), particle_stress(particle), particle_msgs),
            4.65,
        ),
    ];
    for (name, per_msg, parent) in rows {
        println!("{name}: {per_msg:.2} allocations per message (before: {parent})");
        assert!(per_msg <= 2.5, "{name}: {per_msg:.2} allocations per message");
        assert!(
            per_msg <= parent / 2.0,
            "{name}: {per_msg:.2} allocations per message, over half the {parent} it was"
        );
    }
}

/// `run_app` and the allocations this thread made during it.
fn counted<P: RankProgram>(spec: &RunSpec, layout: JobLayout, program: P) -> (RunReport<P::Out>, u64) {
    let before = CountingAlloc::allocs_on_this_thread();
    let out = run_app(spec, layout, program);
    (out, CountingAlloc::allocs_on_this_thread() - before)
}

/// Runs `program` unarmed and armed with the default retry policy, and
/// checks that the armed run retried nothing and cost nothing more.
fn assert_retry_is_free<P: RankProgram<Out = u64>>(name: &str, layout: fn() -> JobLayout, program: impl Fn() -> P) {
    let armed = RunSpec::from(BcsConfig { retry: Some(Default::default()), ..BcsConfig::default() });
    let (plain, plain_allocs) = counted(&RunSpec::bcs(), layout(), program());
    let (armed, armed_allocs) = counted(&armed, layout(), program());
    println!(
        "{name}: {} events, {plain_allocs} allocations unarmed; {} events, {armed_allocs} armed",
        plain.events, armed.events
    );
    assert_eq!(armed.engine.bcs().retry_stats().retries, 0, "{name}: a lossless run retried");
    assert_eq!(armed.results, plain.results, "{name}: results");
    assert_eq!(armed.elapsed, plain.elapsed, "{name}: elapsed time");
    assert_eq!(armed.events, plain.events, "{name}: events");
    assert_eq!(armed_allocs, plain_allocs, "{name}: host allocations");
}

/// Reliable delivery costs nothing until something is lost: every transfer
/// of a lossless run lands, so the retry layer schedules each one's
/// delivery as a plain put or get does — the same events at the same
/// instants, and not one more host allocation.
#[test]
fn a_lossless_reliable_transfer_costs_what_a_plain_one_does() {
    assert_retry_is_free("neighbor_loop", || JobLayout::crescendo(62), || {
        neighbor_loop(NeighborLoopCfg::paper(SimDuration::micros(400), 200))
    });
    assert_retry_is_free("particle_stress", || JobLayout::new(16, 2, 32), || {
        particle_stress(ParticleStressCfg::small(false, 40))
    });
}

const RING_ITERS: u64 = 300;

/// The recovery benchmark's ring: 8 KiB and 512 B messages in turn to the
/// next rank, the previous rank's received, an allreduce every third
/// iteration.
async fn ring(mut mpi: AsyncMpi) -> u64 {
    let (me, n) = (mpi.rank(), mpi.size());
    let mut acc = 0u64;
    for it in 0..RING_ITERS {
        let bytes = if it % 2 == 0 { 8192 } else { 512 };
        let payload: Vec<u8> = (0..bytes).map(|i| (me + it as usize + i) as u8).collect();
        let s = mpi.isend((me + 1) % n, it as i32, &payload).await;
        let r = mpi.irecv(SrcSel::Rank((me + n - 1) % n), TagSel::Tag(it as i32)).await;
        let got = mpi.waitall(&[s, r]).await;
        acc = acc.wrapping_add(u64::from(got[1].0.as_ref().expect("recv payload")[bytes - 1]));
        if it % 3 == 2 {
            acc = acc.wrapping_add(mpi.allreduce_f64(ReduceOp::Sum, &[it as f64, 1.0]).await[0] as u64);
        }
    }
    acc
}

/// Allocations per message of [`ring`] on 32 ranks checkpointing every
/// four slices, recorded (an image per checkpoint) or not (a digest).
fn ring_allocs_per_message(record: bool) -> f64 {
    let layout = JobLayout::new(16, 2, 32);
    let cfg = BcsConfig { checkpoint_every: Some(4), ..BcsConfig::default() };
    let before = CountingAlloc::allocs_on_this_thread();
    let out = Job::new(BcsMpi::new(cfg, &layout), layout)
        .setup(move |w, _| w.set_recording(record))
        .start(&ring);
    let allocs = CountingAlloc::allocs_on_this_thread() - before;
    assert!(out.completed, "{:?}", out.diagnostic);
    assert_eq!(out.engine.images.is_empty(), !record);
    allocs as f64 / (32 * RING_ITERS) as f64
}

/// Recording pays per capture, not per message: with an image every four
/// slices, the ring costs at most two allocations per message more than
/// the same ring unrecorded.
#[test]
fn a_recorded_message_costs_at_most_two_allocations_more() {
    let (plain, recorded) = (ring_allocs_per_message(false), ring_allocs_per_message(true));
    println!("ring, checkpoint every 4 slices: {plain:.2} allocations per message unrecorded, {recorded:.2} recorded");
    assert!(recorded <= plain + 2.0, "recording costs {:.2} allocations per message", recorded - plain);
}

/// Lock-step ranks post every `post_cost` and their resumes fall on the same
/// instants, so the event queue holds runs, not events: under two heap
/// entries for every three events executed (it was one for one).
#[test]
fn same_instant_events_share_heap_entries() {
    let spec = RunSpec::bcs();
    let out = run_app(
        &spec,
        JobLayout::crescendo(62),
        neighbor_loop(NeighborLoopCfg::paper(SimDuration::micros(400), 200)),
    );
    let share = out.heap_pushes as f64 / out.events as f64;
    println!("neighbor_loop under {spec}: {} heap pushes for {} events ({share:.3})", out.heap_pushes, out.events);
    assert!(share <= 0.65, "{spec}: {share:.3} heap pushes per event");
}

/// The receive forms, in the order [`pass_on`] uses them.
const FORMS: [&str; 4] = ["batched waitall", "waitall", "wait", "recv"];

/// Rank `r` posts one `Payload` per receive form to `r + 1` and reads what
/// `r - 1` sent through that form: a batched waitall, `waitall`, `wait` and
/// a blocking `recv`. Returns, per form, the handle it posted and the one it
/// received.
async fn pass_on(mut mpi: AsyncMpi) -> Vec<(Payload, Payload)> {
    let (me, n) = (mpi.rank(), mpi.size());
    let (next, prev) = ((me + 1) % n, SrcSel::Rank((me + n - 1) % n));
    let mut out = Vec::with_capacity(FORMS.len());
    for form in 0..FORMS.len() {
        let tag = form as i32;
        let mine: Payload = vec![(me + form) as u8; 4096].into();
        let send = mpi.post_batch(vec![mpi.isend_desc(next, tag, mine.clone())]).await;
        let received = match form {
            0 => {
                let r = mpi.irecv(prev, TagSel::Tag(tag)).await;
                match mpi.batch(vec![mpi.waitall_desc(&[r])]).await.pop() {
                    Some(MpiResp::WaitallDone { mut results }) => results.pop().and_then(|(d, _)| d),
                    other => unreachable!("batched waitall -> {other:?}"),
                }
            }
            1 => {
                let r = mpi.irecv(prev, TagSel::Tag(tag)).await;
                mpi.waitall(&[r]).await.pop().and_then(|(d, _)| d)
            }
            2 => {
                let r = mpi.irecv(prev, TagSel::Tag(tag)).await;
                mpi.wait(r).await.0
            }
            _ => Some(mpi.recv(prev, TagSel::Tag(tag)).await.0),
        };
        mpi.wait(send[0]).await;
        out.push((mine, received.expect("recv payload")));
    }
    out
}

/// Every receive form hands the rank the payload the engine delivered. A
/// recorded run, where the tape still holds the sender's handle, is checked
/// by `bcs-mpi`'s `recorded_sharing`.
#[test]
fn the_receiver_reads_the_allocation_the_sender_posted() {
    for spec in [RunSpec::bcs(), RunSpec::quadrics()] {
        let out = run_app(&spec, JobLayout::new(4, 2, 8), pass_on);
        for (r, sent) in out.results.iter().enumerate() {
            let got = &out.results[(r + 1) % 8];
            for (form, name) in FORMS.iter().enumerate() {
                assert!(
                    Payload::ptr_eq(&sent[form].0, &got[form].1),
                    "{spec}, {name}: rank {} read a copy of what rank {r} posted",
                    (r + 1) % 8
                );
            }
        }
    }
}
