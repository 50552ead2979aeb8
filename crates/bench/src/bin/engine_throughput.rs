//! Simulator-cost benchmarks: discrete-event throughput of the core engine
//! and the real-time cost of one BCS time slice (the fixed protocol
//! machinery every 500 µs of virtual time).
//!
//! Every benchmark is a deterministic simulation, so its event count is
//! measured once up front and each row reports an events/sec throughput
//! alongside the per-iteration times — the comparable figure for event
//! queue changes. The idle-slice rows (`bcs_200_idle_slices_16nodes`,
//! `bcs_idle_slices_<n>nodes`) all simulate 200 empty slices with two ranks
//! per node, so events per slice is `events_per_iter / 200` and the host
//! cost of one node in one slice is `median_ns / (200 * n)`; both are
//! printed. The `waitall_fanin_<n>` rows (two ranks, each ending in
//! one waitall over `n` small-message requests) are rated in request
//! *completions* per second instead: the figure that collapses if
//! completing one member of a wait-set ever costs more than O(1).
//!
//! Two of the rows are *gated pairs* (enforced here, run by
//! `scripts/verify.sh` through [`bench::gate::check_speedup`]):
//!
//! * `match_16384_recvs_{indexed,linear_ref}` — the indexed descriptor
//!   matcher against the retained linear-scan reference at 16384 posted
//!   receives; the index must be at least 5x faster. (The scan's per-entry
//!   cost is sub-nanosecond — a predictable branch over a flat vector — so
//!   the O(n log n) index needs thousands of posted receives before its
//!   asymptotic win clears 5x; near n = 1024 the two are at parity.)
//! * `ckpt_image_capture_{incremental,deep_clone}` — re-capturing a
//!   checkpoint image by copy-on-write sharing against the old
//!   field-for-field deep clone; sharing must be at least 5x faster.
//!
//! `ckpt_capture_at_image_{8,512}` take the 8th and the 512th image of one
//! run that captures at every slice boundary and time what an image costs
//! to share and release: equal when an image holds handles on its
//! histories, linear in the image number when it holds copies.
//! `recover_replay_resps_per_s` restores that run from its last image —
//! engine rebuild, every rank replayed through the whole response log, the
//! few remaining slices simulated — rated in log entries per second.
//!
//! Two rows are *exact counts*, not timings (`Micro::count`): what the host
//! pays per unit of simulated work, the same on every run and at any load.
//! `sim_lockstep_heap_pushes_per_event` is the share of events that cost
//! the queue a heap entry when 64 timers fire together and re-arm for the
//! same next instant (1/64: one run per period); `halo_allocs_per_msg` is
//! heap allocations per message of the 62-rank neighbour exchange on
//! BCS-MPI, through the counting allocator this binary installs.
//!
//! Run offline: `cargo run --release -p bench --bin engine_throughput
//! [-- --quick]`. Emits `reports/microbench_engine_throughput.csv`.

use bcs_mpi::match_index::reference::LinearRecvList;
use bcs_mpi::match_index::{RecvIndex, RecvSel, SendKey};
use bench::micro::Micro;
use mpi_api::message::{SrcSel, TagSel};
use mpi_api::runtime::{Job, JobLayout, run_program};
use mpi_api::AsyncMpi;
use simcore::{CountingAlloc, Sim, SimDuration, SimTime};
use std::hint::black_box;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const IDLE_SLICES: u64 = 200;

/// 100 ms of virtual time = 200 empty slices on `nodes` nodes: the
/// strobe/poll machinery and nothing else.
fn idle_slices(nodes: usize) -> u64 {
    let layout = JobLayout::new(nodes, 2, 2 * nodes);
    let out = run_program(
        bcs_mpi::BcsMpi::new(bcs_mpi::BcsConfig::default(), &layout),
        layout,
        |mut mpi: AsyncMpi| async move { mpi.compute(SimDuration::millis(100)).await },
    );
    assert_eq!(out.engine.stats.slices, IDLE_SLICES);
    black_box(out.events)
}

/// 64 timers fire together every 500 us and re-arm, 1000 times over.
/// Returns `(heap pushes, events)`.
fn lockstep_timers() -> (u64, u64) {
    fn arm(sim: &mut Sim<u64>, left: u32) {
        if left > 0 {
            sim.schedule_in(SimDuration::micros(500), move |fired: &mut u64, sim| {
                *fired += 1;
                arm(sim, left - 1);
            });
        }
    }
    let mut sim: Sim<u64> = Sim::new();
    let mut fired = 0u64;
    for _ in 0..64 {
        arm(&mut sim, 1000);
    }
    sim.run(&mut fired);
    (sim.heap_pushes(), black_box(fired))
}

/// The paper's neighbour exchange (4 x 4 KiB every 400 us) on 62 ranks of
/// BCS-MPI for 200 iterations. Returns `(allocations, messages)`.
fn halo_allocs() -> (u64, u64) {
    let cfg = apps::synthetic::NeighborLoopCfg::paper(SimDuration::micros(400), 200);
    let msgs = 62 * cfg.neighbors as u64 * cfg.iters;
    let layout = JobLayout::crescendo(62);
    let engine = bcs_mpi::BcsMpi::new(bcs_mpi::BcsConfig::default(), &layout);
    let before = CountingAlloc::allocs_on_this_thread();
    black_box(run_program(engine, layout, apps::synthetic::neighbor_loop(cfg)).events);
    (CountingAlloc::allocs_on_this_thread() - before, msgs)
}

fn burst_62ranks() -> u64 {
    // 62-rank allreduce + neighbour exchange: end-to-end engine cost.
    let layout = JobLayout::crescendo(62);
    let out = run_program(
        bcs_mpi::BcsMpi::new(bcs_mpi::BcsConfig::default(), &layout),
        layout,
        |mut mpi: AsyncMpi| async move {
            let peer = (mpi.rank() + 1) % mpi.size();
            let from = (mpi.rank() + mpi.size() - 1) % mpi.size();
            let s = mpi.isend(peer, 1, &[0u8; 4096]).await;
            let r = mpi.irecv(SrcSel::Rank(from), TagSel::Tag(1)).await;
            mpi.waitall(&[s, r]).await;
            mpi.allreduce_i64(mpi_api::datatype::ReduceOp::Sum, &[1]).await
        },
    );
    black_box(out.events)
}

/// Two ranks exchange `n / 2` eight-byte messages each way and each waits
/// on its `n` requests with one waitall.
fn waitall_fanin(n: usize) -> u64 {
    let layout = JobLayout::new(2, 1, 2);
    let out = run_program(
        bcs_mpi::BcsMpi::new(bcs_mpi::BcsConfig::default(), &layout),
        layout,
        move |mut mpi: AsyncMpi| async move {
            let peer = 1 - mpi.rank();
            let mut reqs = Vec::with_capacity(n);
            for _ in 0..n / 2 {
                reqs.push(mpi.isend(peer, 1, &[0u8; 8]).await);
            }
            for _ in 0..n / 2 {
                reqs.push(mpi.irecv(SrcSel::Rank(peer), TagSel::Tag(1)).await);
            }
            mpi.waitall(&reqs).await.len()
        },
    );
    assert_eq!(out.results, [n, n]);
    black_box(out.events)
}

/// Deterministic large-N matching workload: `n` distinct exact receives
/// (dense (src, tag) collisions across 4 destination ranks) plus a small
/// wildcard tail, then `n` send envelopes delivered in *reverse* post order
/// — the worst case for a front-to-back scan — with every 8th send matching
/// nothing but the wildcard tail. Both matchers process the identical
/// stream; `tests/match_equivalence.rs` proves their outcomes identical, so
/// the pair differs only in data-structure cost.
fn match_streams(n: usize) -> (Vec<RecvSel>, Vec<SendKey>) {
    let mut recvs = Vec::with_capacity(n + n / 64);
    for i in 0..n {
        recvs.push(RecvSel {
            dst_rank: i % 4,
            src: SrcSel::Rank(i / 4 % 8),
            tag: TagSel::Tag((i / 32) as i32),
        });
    }
    for i in 0..n / 64 {
        recvs.push(RecvSel {
            dst_rank: i % 4,
            src: SrcSel::Any,
            tag: TagSel::Any,
        });
    }
    let mut sends = Vec::with_capacity(n);
    for i in (0..n).rev() {
        if i % 8 == 3 {
            // No exact receive selects tag 1_000_000: only a wildcard (or
            // nothing, once the tail is consumed) can absorb it.
            sends.push(SendKey {
                dst_rank: i % 4,
                src_rank: i / 4 % 8,
                tag: 1_000_000,
            });
        } else {
            sends.push(SendKey {
                dst_rank: i % 4,
                src_rank: i / 4 % 8,
                tag: (i / 32) as i32,
            });
        }
    }
    (recvs, sends)
}

fn match_indexed(recvs: &[RecvSel], sends: &[SendKey]) -> usize {
    let mut idx: RecvIndex<usize> = RecvIndex::new();
    for (i, sel) in recvs.iter().enumerate() {
        idx.post(*sel, i);
    }
    let mut matched = 0usize;
    for k in sends {
        if idx.match_first(k).is_some() {
            matched += 1;
        }
    }
    matched
}

fn match_linear(recvs: &[RecvSel], sends: &[SendKey]) -> usize {
    let mut list: LinearRecvList<usize> = LinearRecvList::new();
    for (i, sel) in recvs.iter().enumerate() {
        list.post(*sel, i);
    }
    let mut matched = 0usize;
    for k in sends {
        if list.match_first(k).is_some() {
            matched += 1;
        }
    }
    matched
}

/// A mid-run checkpoint image with real weight behind it: chunked 1 MiB
/// transfers in flight (two outstanding per rank), megabytes of parked
/// payloads, open requests and a populated response log. Of the per-slice
/// images the run produces, the one referencing the most payload bytes is
/// the benchmark subject — that is the image whose deep clone pays the
/// memcpys the copy-on-write capture avoids.
fn checkpoint_image_fixture() -> bcs_mpi::CheckpointImage {
    let layout = JobLayout::new(4, 2, 8);
    let mut cfg = bcs_mpi::BcsConfig::default();
    cfg.checkpoint_every = Some(1);
    cfg.checkpoint_images = true;
    let out = Job::new(bcs_mpi::BcsMpi::new(cfg, &layout), layout)
        .setup(|w, _| w.set_recording(true))
        .start(&|mut mpi: AsyncMpi| async move {
            let peer = (mpi.rank() + 1) % mpi.size();
            let from = (mpi.rank() + mpi.size() - 1) % mpi.size();
            for it in 0..3i32 {
                let s0 = mpi.isend(peer, it * 2, &vec![0x5Au8; 1024 * 1024]).await;
                let s1 = mpi.isend(peer, it * 2 + 1, &vec![0xA5u8; 1024 * 1024]).await;
                let r0 = mpi.irecv(SrcSel::Rank(from), TagSel::Tag(it * 2)).await;
                let r1 = mpi.irecv(SrcSel::Rank(from), TagSel::Tag(it * 2 + 1)).await;
                mpi.waitall(&[s0, s1, r0, r1]).await;
            }
        });
    assert!(out.completed, "fixture job must complete");
    let img = out
        .engine
        .images
        .into_iter()
        .max_by_key(|img| img.payload_bytes())
        .expect("fixture run produced no images");
    assert!(
        img.payload_bytes() > 1024 * 1024,
        "fixture image too light: {} payload bytes",
        img.payload_bytes()
    );
    img
}

const RING_ITERS: i32 = 300;

/// The long recorded run behind the capture-by-image-number and replay
/// rows: 8 ranks exchanging 2 KiB around a ring for 300 iterations, an
/// image at every boundary (more than 512 of them).
async fn recorded_ring(mut mpi: AsyncMpi) -> u64 {
    let (me, n) = (mpi.rank(), mpi.size());
    let mut acc = 0u64;
    for it in 0..RING_ITERS {
        mpi.compute(SimDuration::micros(400)).await;
        let s = mpi.isend((me + 1) % n, it, &[it as u8; 2048]).await;
        let r = mpi.irecv(SrcSel::Rank((me + n - 1) % n), TagSel::Tag(it)).await;
        acc += mpi.waitall(&[s, r]).await[1].0.as_ref().map_or(0, |d| d[0] as u64);
    }
    acc
}

fn ring_cfg() -> (bcs_mpi::BcsConfig, JobLayout) {
    let cfg = bcs_mpi::BcsConfig {
        checkpoint_every: Some(1),
        checkpoint_images: true,
        ..bcs_mpi::BcsConfig::default()
    };
    (cfg, JobLayout::new(4, 2, 8))
}

fn recorded_ring_images() -> Vec<bcs_mpi::CheckpointImage> {
    let (cfg, layout) = ring_cfg();
    let out = Job::new(bcs_mpi::BcsMpi::new(cfg, &layout), layout)
        .setup(|w, _| w.set_recording(true))
        .start(&recorded_ring);
    assert!(out.completed, "fixture job must complete");
    assert!(out.engine.images.len() > 512, "fixture run too short");
    out.engine.images
}

/// Restore from `img` and run the job to completion.
fn restore_and_finish(img: &bcs_mpi::CheckpointImage) -> u64 {
    let (cfg, layout) = ring_cfg();
    let out = Job::new(bcs_mpi::BcsMpi::restore_from_image(cfg, &layout, img), layout)
        .resume_from(&img.rt, bcs_mpi::resume_from_boundary)
        .start(&recorded_ring);
    assert!(out.completed, "restored fixture job must complete");
    out.events
}

fn main() {
    let mut m = Micro::from_args("engine_throughput");

    m.bench_rated("engine", "sim_10k_events", 10_000.0, || {
        let mut sim: Sim<u64> = Sim::new();
        let mut world = 0u64;
        for i in 0..10_000u64 {
            sim.schedule_at(SimTime(i), |w: &mut u64, _| *w += 1);
        }
        sim.run(&mut world);
        black_box(world)
    });

    let (pushes, events) = lockstep_timers();
    m.bench_rated("engine", "sim_lockstep_64_timers", events as f64, lockstep_timers);
    m.count("engine", "sim_lockstep_heap_pushes_per_event", pushes as f64 / events as f64);

    for (nodes, name) in [
        (16usize, "bcs_200_idle_slices_16nodes"),
        (64, "bcs_idle_slices_64nodes"),
        (1024, "bcs_idle_slices_1024nodes"),
        (8192, "bcs_idle_slices_8192nodes"),
    ] {
        let events = idle_slices(nodes);
        let median_ns = m
            .bench_rated("engine", name, events as f64, move || idle_slices(nodes))
            .median_ns;
        println!(
            "    -> {:.1} events per slice, {:.1} ns per node-slice",
            events as f64 / IDLE_SLICES as f64,
            median_ns / (IDLE_SLICES * nodes as u64) as f64
        );
    }

    let events = burst_62ranks();
    m.bench_rated("engine", "bcs_burst_62ranks", events as f64, burst_62ranks);

    let (allocs, msgs) = halo_allocs();
    m.count("engine", "halo_allocs_per_msg", allocs as f64 / msgs as f64);

    for n in [64usize, 1024, 16384] {
        // Both ranks complete `n` requests.
        m.bench_rated("engine", &format!("waitall_fanin_{n}"), 2.0 * n as f64, move || {
            waitall_fanin(n)
        });
    }

    // Gated pair 1: indexed descriptor matching vs the linear reference at
    // 16384 posted receives. Rated by matching events (posts + deliveries).
    const MATCH_N: usize = 16384;
    let (recvs, sends) = match_streams(MATCH_N);
    assert_eq!(
        match_indexed(&recvs, &sends),
        match_linear(&recvs, &sends),
        "matchers disagree; run tests/match_equivalence.rs"
    );
    let ops = (recvs.len() + sends.len()) as f64;
    let indexed_ns = {
        let (r, s) = (recvs.clone(), sends.clone());
        m.bench_rated("engine", "match_16384_recvs_indexed", ops, move || {
            black_box(match_indexed(&r, &s))
        })
        .median_ns
    };
    let linear_ns = {
        let (r, s) = (recvs.clone(), sends.clone());
        m.bench_rated("engine", "match_16384_recvs_linear_ref", ops, move || {
            black_box(match_linear(&r, &s))
        })
        .median_ns
    };

    // Gated pair 2: copy-on-write image re-capture vs the old deep clone.
    let img = checkpoint_image_fixture();
    let incremental_ns = {
        let img = img.clone();
        m.bench("engine", "ckpt_image_capture_incremental", move || {
            black_box(img.clone())
        })
        .median_ns
    };
    let deep_ns = {
        let img = img.clone();
        m.bench("engine", "ckpt_image_capture_deep_clone", move || {
            black_box(img.materialize())
        })
        .median_ns
    };

    // Capture cost by image number, and one whole restore.
    let ring_images = recorded_ring_images();
    for k in [8usize, 512] {
        let img = ring_images[k].clone();
        m.bench("engine", &format!("ckpt_capture_at_image_{k}"), move || {
            black_box(img.clone())
        });
    }
    let last = ring_images.last().expect("checked non-empty").clone();
    drop(ring_images);
    m.bench_rated("engine", "recover_replay_resps_per_s", last.rt.log.len() as f64, move || {
        black_box(restore_and_finish(&last))
    });

    m.finish();

    let mut failed = false;
    for (name, base, new) in [
        ("indexed matching (16384 recvs)", linear_ns, indexed_ns),
        ("incremental image capture", deep_ns, incremental_ns),
    ] {
        match bench::gate::check_speedup(name, base, new, 5.0) {
            Ok(s) => println!("  gate: {name} {s}"),
            Err(e) => {
                eprintln!("  GATE FAILED: {e}");
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}
