//! The two synthetic benchmarks of §5.2.
//!
//! "Many scientific codes display a bulk-synchronous behavior and can be
//! characterized by a nearest-neighbor communication stencil, optionally
//! followed by a global synchronization operation."
//!
//! * [`barrier_loop`] — every process computes for a parametric amount of
//!   time and globally synchronizes, in a loop (Figures 8a/8b);
//! * [`neighbor_loop`] — every process computes, exchanges a fixed number of
//!   non-blocking point-to-point messages with a set of neighbors, and waits
//!   for completion, in a loop (Figures 8c/8d; the paper uses 4 neighbors
//!   and 4 KB messages).
//!
//! Beyond the paper, [`particle_stress`] is the halo-exchange/particle
//! workload of the schedule-compilation study (DESIGN.md §13): every
//! iteration each rank showers every ring neighbour with many tiny
//! messages, either in a perfectly repeating pattern (compilable) or with
//! a rotating tag (never compilable).

use mpi_api::message::{SrcSel, Status, TagSel};
use mpi_api::{AsyncMpi, MpiResp, Payload, RankProgram, ReqId};
use simcore::SimDuration;

/// Configuration of the compute+barrier benchmark.
#[derive(Clone, Debug)]
pub struct BarrierLoopCfg {
    /// Computational granularity per iteration.
    pub granularity: SimDuration,
    pub iters: u64,
}

/// Benchmark 1: compute, then barrier, in a loop. Returns the number of
/// barriers executed (trivially verifiable).
pub fn barrier_loop(cfg: BarrierLoopCfg) -> impl RankProgram<Out = u64> {
    move |mut mpi: AsyncMpi| {
        let cfg = cfg.clone();
        async move {
            for _ in 0..cfg.iters {
                // One handoff per iteration: the runtime issues the barrier
                // to the engine at the compute's completion instant, exactly
                // when a `compute(); barrier()` pair would have.
                mpi.compute_then_barrier(cfg.granularity).await;
            }
            cfg.iters
        }
    }
}

/// Configuration of the compute+nearest-neighbour benchmark.
#[derive(Clone, Debug)]
pub struct NeighborLoopCfg {
    pub granularity: SimDuration,
    pub iters: u64,
    /// Number of neighbours (paper: 4 — ranks at ±1, ±2 on a ring).
    pub neighbors: usize,
    /// Message size (paper: 4 KB).
    pub msg_bytes: usize,
}

impl NeighborLoopCfg {
    /// The paper's parameters: 4 neighbours, 4 KB messages.
    pub fn paper(granularity: SimDuration, iters: u64) -> NeighborLoopCfg {
        NeighborLoopCfg {
            granularity,
            iters,
            neighbors: 4,
            msg_bytes: 4096,
        }
    }
}

/// Symmetric neighbour set on a ring: ±1, ±2, ... up to `count` peers.
fn ring_peers(me: usize, n: usize, count: usize) -> Vec<usize> {
    let mut peers: Vec<usize> = Vec::new();
    for o in 1..=count.div_ceil(2) {
        peers.push((me + o) % n);
        if peers.len() < count {
            peers.push((me + n - o) % n);
        }
    }
    peers
}

/// Fold each exchange's received payloads into a checksum; the recv
/// results follow the `sends` send results in request order.
fn absorb(
    checksum: &mut u64,
    sends: usize,
    msg_bytes: usize,
    results: &[(Option<Payload>, Option<Status>)],
) {
    for (data, _) in &results[sends..] {
        let data = data.as_ref().expect("recv payload");
        assert_eq!(data.len(), msg_bytes);
        *checksum = checksum
            .wrapping_add(data[0] as u64)
            .wrapping_add(data[msg_bytes - 1] as u64);
    }
}

/// Benchmark 2: compute, post non-blocking exchanges with the ring
/// neighbours, wait for all. Returns a checksum of everything received.
pub fn neighbor_loop(cfg: NeighborLoopCfg) -> impl RankProgram<Out = u64> {
    move |mut mpi: AsyncMpi| {
        let cfg = cfg.clone();
        async move {
            let n = mpi.size();
            let me = mpi.rank();
            assert!(cfg.neighbors < n, "need more ranks than neighbours");
            let peers = ring_peers(me, n, cfg.neighbors);
            // Built once and posted by reference: every send of every
            // iteration is a clone (a refcount) of this one buffer.
            let payload: Payload =
                (0..cfg.msg_bytes).map(|i| (me + i) as u8).collect::<Vec<u8>>().into();
            let mut checksum = 0u64;
            // One harness handoff per iteration: batch the previous
            // exchange's waitall together with this iteration's compute and
            // 2k posts. The runtime issues each sub-call at the exact
            // virtual instant the unbatched `compute; post*2k; waitall`
            // loop would have (the waitall of iteration i-1 at the instant
            // its posts completed, the compute at the waitall's
            // completion), so timing and results are identical — only
            // harness traffic changes (see `AsyncMpi::batch`).
            let mut reqs: Vec<ReqId> = Vec::new();
            for it in 0..cfg.iters {
                let tag = (it % 1024) as i32;
                let mut calls = Vec::with_capacity(2 + 2 * peers.len());
                if !reqs.is_empty() {
                    calls.push(mpi.waitall_desc(&reqs));
                }
                calls.push(mpi.compute_desc(cfg.granularity));
                for &p in &peers {
                    calls.push(mpi.isend_desc(p, tag, payload.clone()));
                }
                for &p in &peers {
                    calls.push(mpi.irecv_desc(SrcSel::Rank(p), TagSel::Tag(tag)));
                }
                let mut resps = mpi.batch(calls).await.into_iter();
                if !reqs.is_empty() {
                    match resps.next() {
                        Some(MpiResp::WaitallDone { results }) => {
                            absorb(&mut checksum, peers.len(), cfg.msg_bytes, &results)
                        }
                        other => unreachable!("batched waitall -> {other:?}"),
                    }
                }
                match resps.next() {
                    Some(MpiResp::Ok) => {}
                    other => unreachable!("batched compute -> {other:?}"),
                }
                reqs = resps
                    .map(|r| match r {
                        MpiResp::Req(id) => id,
                        other => unreachable!("batched post -> {other:?}"),
                    })
                    .collect();
            }
            let tail = mpi.waitall(&reqs).await;
            absorb(&mut checksum, peers.len(), cfg.msg_bytes, &tail);
            checksum
        }
    }
}

/// Configuration of the halo-exchange/particle stress benchmark: many tiny
/// same-destination messages per iteration (DESIGN.md §13).
#[derive(Clone, Debug)]
pub struct ParticleStressCfg {
    /// Computational granularity per iteration.
    pub granularity: SimDuration,
    pub iters: u64,
    /// Ring neighbours receiving halo particles (±1, ±2, ... as in
    /// [`neighbor_loop`]).
    pub neighbors: usize,
    /// Small messages posted to each neighbour every iteration.
    pub msgs_per_peer: usize,
    /// Bytes per message — tens of bytes, far below the coalescer's
    /// small-message threshold.
    pub msg_bytes: usize,
    /// `true`: identical tags every iteration, so every slice presents the
    /// same descriptor shape and the engine compiles + replays a persistent
    /// schedule. `false`: the tag rotates per iteration, so consecutive
    /// slices never fingerprint alike and compilation never engages.
    pub stable: bool,
}

impl ParticleStressCfg {
    /// A CI-sized instance whose per-iteration traffic stays inside the
    /// default per-slice P2P budget, so every message completes unchunked
    /// in its slice (a compiled schedule only forms for such patterns).
    pub fn small(stable: bool, iters: u64) -> ParticleStressCfg {
        ParticleStressCfg {
            granularity: SimDuration::micros(400),
            iters,
            neighbors: 4,
            msgs_per_peer: 48,
            msg_bytes: 32,
            stable,
        }
    }
}

/// The schedule-compilation stress workload: compute, shower every ring
/// neighbour with `msgs_per_peer` tiny non-blocking messages, wait for the
/// previous iteration's exchange — one batched harness handoff per
/// iteration, as in [`neighbor_loop`]. Returns a checksum of everything
/// received.
pub fn particle_stress(cfg: ParticleStressCfg) -> impl RankProgram<Out = u64> {
    move |mut mpi: AsyncMpi| {
        let cfg = cfg.clone();
        async move {
            let n = mpi.size();
            let me = mpi.rank();
            assert!(cfg.neighbors < n, "need more ranks than neighbours");
            let peers = ring_peers(me, n, cfg.neighbors);
            let sends = peers.len() * cfg.msgs_per_peer;
            // Payload m is peer-independent, so build each once; the sends
            // are clones.
            let payloads: Vec<Payload> = (0..cfg.msgs_per_peer)
                .map(|m| (0..cfg.msg_bytes).map(|i| (me + m + i) as u8).collect::<Vec<u8>>().into())
                .collect();
            let mut checksum = 0u64;
            let mut reqs: Vec<ReqId> = Vec::new();
            for it in 0..cfg.iters {
                let tag = if cfg.stable { 0 } else { (it % 16) as i32 + 1 };
                let mut calls = Vec::with_capacity(2 + 2 * sends);
                if !reqs.is_empty() {
                    calls.push(mpi.waitall_desc(&reqs));
                }
                calls.push(mpi.compute_desc(cfg.granularity));
                for &p in &peers {
                    for payload in &payloads {
                        calls.push(mpi.isend_desc(p, tag, payload.clone()));
                    }
                }
                for &p in &peers {
                    for _ in 0..cfg.msgs_per_peer {
                        calls.push(mpi.irecv_desc(SrcSel::Rank(p), TagSel::Tag(tag)));
                    }
                }
                let mut resps = mpi.batch(calls).await.into_iter();
                if !reqs.is_empty() {
                    match resps.next() {
                        Some(MpiResp::WaitallDone { results }) => {
                            absorb(&mut checksum, sends, cfg.msg_bytes, &results)
                        }
                        other => unreachable!("batched waitall -> {other:?}"),
                    }
                }
                match resps.next() {
                    Some(MpiResp::Ok) => {}
                    other => unreachable!("batched compute -> {other:?}"),
                }
                reqs = resps
                    .map(|r| match r {
                        MpiResp::Req(id) => id,
                        other => unreachable!("batched post -> {other:?}"),
                    })
                    .collect();
            }
            let tail = mpi.waitall(&reqs).await;
            absorb(&mut checksum, sends, cfg.msg_bytes, &tail);
            checksum
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{RunSpec, run_app, slowdown_pct};
    use mpi_api::runtime::JobLayout;

    #[test]
    fn barrier_loop_runs_on_both_engines() {
        let cfg = BarrierLoopCfg {
            granularity: SimDuration::millis(2),
            iters: 5,
        };
        let layout = JobLayout::new(4, 2, 8);
        let b = run_app(&RunSpec::bcs(), layout.clone(), barrier_loop(cfg.clone()));
        let q = run_app(&RunSpec::quadrics(), layout, barrier_loop(cfg));
        assert!(b.results.iter().all(|&n| n == 5));
        assert!(q.results.iter().all(|&n| n == 5));
        // BCS pays slice quantization per barrier; baseline is ~free.
        assert!(b.elapsed > q.elapsed);
    }

    #[test]
    fn neighbor_loop_checksums_agree_across_engines() {
        let cfg = NeighborLoopCfg::paper(SimDuration::millis(3), 4);
        let layout = JobLayout::new(4, 2, 8);
        let b = run_app(&RunSpec::bcs(), layout.clone(), neighbor_loop(cfg.clone()));
        let q = run_app(&RunSpec::quadrics(), layout, neighbor_loop(cfg));
        assert_eq!(b.results, q.results, "payloads must be engine-independent");
    }

    #[test]
    fn particle_stress_checksums_agree_across_engines() {
        let cfg = ParticleStressCfg::small(true, 4);
        let layout = JobLayout::new(4, 2, 8);
        let b = run_app(&RunSpec::bcs(), layout.clone(), particle_stress(cfg.clone()));
        let q = run_app(&RunSpec::quadrics(), layout, particle_stress(cfg));
        assert_eq!(b.results, q.results, "payloads must be engine-independent");
    }

    #[test]
    fn stable_pattern_compiles_and_replays() {
        let layout = JobLayout::new(4, 2, 8);
        let out = mpi_api::runtime::run_program(
            bcs_mpi::BcsMpi::new(bcs_mpi::BcsConfig::default(), &layout),
            layout,
            particle_stress(ParticleStressCfg::small(true, 8)),
        );
        let s = out.engine.sched_stats();
        assert!(s.compiled > 0, "stable pattern must compile: {s:?}");
        assert!(s.replays > 0, "stable pattern must replay: {s:?}");
    }

    #[test]
    fn perturbed_pattern_never_replays() {
        let layout = JobLayout::new(4, 2, 8);
        let out = mpi_api::runtime::run_program(
            bcs_mpi::BcsMpi::new(bcs_mpi::BcsConfig::default(), &layout),
            layout,
            particle_stress(ParticleStressCfg::small(false, 8)),
        );
        let s = out.engine.sched_stats();
        assert_eq!(s.replays, 0, "rotating tags must defeat compilation: {s:?}");
    }

    #[test]
    fn coalescing_preserves_results() {
        let layout = || JobLayout::new(4, 2, 8);
        let prog = || particle_stress(ParticleStressCfg::small(true, 6));
        let base = mpi_api::runtime::run_program(
            bcs_mpi::BcsMpi::new(bcs_mpi::BcsConfig::default(), &layout()),
            layout(),
            prog(),
        );
        let cfg = bcs_mpi::BcsConfig { coalesce: true, ..Default::default() };
        let co = mpi_api::runtime::run_program(
            bcs_mpi::BcsMpi::new(cfg, &layout()),
            layout(),
            prog(),
        );
        assert_eq!(base.results, co.results, "coalescing must not change payloads");
        assert!(co.engine.stats.dem_blocks > 0, "expected DEM descriptor blocks");
        assert!(co.engine.stats.p2p_gathers > 0, "expected P2P gathers");
    }

    #[test]
    fn slowdown_shrinks_with_granularity() {
        // The core claim of Figure 8(a): coarser grain amortizes the slices.
        let layout = || JobLayout::new(4, 2, 8);
        let measure = |g_ms: u64| {
            let cfg = BarrierLoopCfg {
                granularity: SimDuration::millis(g_ms),
                iters: 6,
            };
            let b = run_app(&RunSpec::bcs(), layout(), barrier_loop(cfg.clone()));
            let q = run_app(&RunSpec::quadrics(), layout(), barrier_loop(cfg));
            slowdown_pct(b.elapsed, q.elapsed)
        };
        let fine = measure(1);
        let coarse = measure(20);
        assert!(
            fine > coarse,
            "slowdown must decrease with granularity: {fine:.1}% -> {coarse:.1}%"
        );
        assert!(coarse < 12.0, "coarse-grain slowdown {coarse:.1}% too high");
    }
}
