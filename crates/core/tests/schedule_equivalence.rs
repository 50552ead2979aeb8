//! Schedule compilation must be *observably transparent* (DESIGN.md §13):
//! for arbitrary repeated/perturbed slice patterns, an engine with
//! `sched_compile` on must produce bit-identical results, virtual timings,
//! protocol counters and checkpoint digests to one with it off — on both
//! fabrics. The generated workloads deliberately straddle the compiler's
//! eligibility line: zero-byte messages, wildcard receives, tag sequences
//! that repeat (compilable streaks) and drift (invalidations), and message
//! counts that fit or overflow the per-slice P2P budget (chunking refusals).
//!
//! The Quadrics reference engine pins down *what* the results should be
//! (checksums must agree engine-to-engine); the compiled/uncompiled BCS
//! comparison pins down that replay changes *nothing at all*. Coalescing is
//! exercised separately: it legitimately moves virtual time (fewer, larger
//! wire transactions) but must preserve results and stay deterministic.

use bcs_mpi::{BcsConfig, BcsMpi};
use mpi_api::message::{SrcSel, TagSel};
use mpi_api::runtime::{JobLayout, RunResult, run_program};
use mpi_api::{AsyncMpi, RankProgram};
use proplite::prelude::*;
use qsnet::FabricKind;
use simcore::SimDuration;

/// One generated slice-pattern workload on a ring: every rank exchanges
/// `mpp` messages with each of `neighbors` neighbours per iteration;
/// iteration `it` posts with tag `tags[it]`, so a constant run of tags is a
/// compilable streak and every tag change perturbs the fingerprint. An
/// iteration in `wild` posts its receives with a source wildcard (still
/// compilable — selector shape is part of the fingerprint).
#[derive(Clone, Debug)]
struct Pattern {
    n: usize,
    neighbors: usize,
    mpp: usize,
    msg_bytes: usize,
    tags: Vec<i32>,
    wild: Vec<bool>,
}

fn pattern_strategy() -> impl Strategy<Value = Pattern> {
    (
        2..5usize,
        1..3usize,
        1..4usize,
        // Zero-byte messages complete in MSM and make the pattern
        // uncompilable; 4096B at mpp=3 can overflow a slice budget and
        // force chunking refusals. Both must still be transparent.
        prop_oneof![Just(0usize), Just(24), Just(96), Just(4096)],
        prop::collection::vec(0..3i32, 3..9),
        prop::collection::vec(any::<bool>(), 9..10),
    )
        .prop_map(|(n, nb, mpp, msg_bytes, tags, wild)| Pattern {
            n,
            neighbors: nb.min(n - 1),
            mpp,
            msg_bytes,
            tags,
            wild,
        })
}

/// The workload itself: compute, shower every ring neighbour, absorb
/// everything received into a checksum.
fn pattern_program(p: &Pattern) -> impl RankProgram<Out = u64> {
    let p = p.clone();
    move |mut mpi: AsyncMpi| {
        let p = p.clone();
        async move {
            let me = mpi.rank();
            let n = mpi.size();
            let mut peers = Vec::new();
            for o in 1..=p.neighbors {
                peers.push((me + o) % n);
            }
            let mut checksum = 0u64;
            for (it, &tag) in p.tags.iter().enumerate() {
                mpi.compute(SimDuration::micros(150)).await;
                let payload: Vec<u8> =
                    (0..p.msg_bytes).map(|i| (me + it + i) as u8).collect();
                let mut reqs = Vec::new();
                for &peer in &peers {
                    for _ in 0..p.mpp {
                        reqs.push(mpi.isend(peer, tag, &payload).await);
                    }
                }
                let sends = reqs.len();
                let wild = p.wild[it % p.wild.len()];
                for o in 1..=p.neighbors {
                    let from = (me + n - o) % n;
                    let src = if wild { SrcSel::Any } else { SrcSel::Rank(from) };
                    for _ in 0..p.mpp {
                        reqs.push(mpi.irecv(src, TagSel::Tag(tag)).await);
                    }
                }
                for (data, status) in &mpi.waitall(&reqs).await[sends..] {
                    let data = data.as_ref().expect("recv payload");
                    let status = status.as_ref().expect("recv status");
                    assert_eq!(data.len(), p.msg_bytes);
                    // Order-insensitive fold: wildcard receives may match in
                    // engine-specific order, so each message contributes a
                    // commutative term.
                    checksum = checksum.wrapping_add(
                        (1 + status.source as u64)
                            .wrapping_mul(31)
                            .wrapping_add(data.iter().map(|&b| b as u64).sum::<u64>()),
                    );
                }
            }
            checksum
        }
    }
}

fn run_pattern(cfg: BcsConfig, p: &Pattern) -> RunResult<u64, BcsMpi> {
    let layout = JobLayout::new(p.n, 1, p.n);
    run_program(BcsMpi::new(cfg, &layout), layout, pattern_program(p))
}

fn cfg_with(fabric: FabricKind, compile: bool, coalesce: bool) -> BcsConfig {
    BcsConfig {
        fabric,
        sched_compile: compile,
        coalesce,
        // Checkpoint every few slices so the digest log actually samples
        // the mid-run protocol state the replay path touches.
        checkpoint_every: Some(3),
        ..BcsConfig::default()
    }
}

/// Everything an observer could compare between two runs: per-rank results,
/// virtual elapsed time, event count, the slice-stamped checkpoint digest
/// log, and the full protocol counter block (Debug form covers every field,
/// histograms included).
fn observables(out: &RunResult<u64, BcsMpi>) -> (Vec<u64>, u128, u64, Vec<(u64, u64)>, String) {
    (
        out.results.clone(),
        out.elapsed.as_nanos() as u128,
        out.events,
        out.engine.checkpoints.to_vec(),
        format!("{:?}", out.engine.stats),
    )
}

proplite! {
    #![config(cases = 24)]

    #[test]
    fn compiled_replay_is_bit_transparent_on_both_fabrics(p in pattern_strategy()) {
        for fabric in [FabricKind::QsNet, FabricKind::Rdma] {
            let base = run_pattern(cfg_with(fabric, false, false), &p);
            let comp = run_pattern(cfg_with(fabric, true, false), &p);
            prop_assert_eq!(
                observables(&base),
                observables(&comp),
                "sched_compile changed observable behavior ({:?}, {:?})",
                fabric,
                &p
            );
        }
    }

    #[test]
    fn coalescing_preserves_results_and_is_deterministic(p in pattern_strategy()) {
        for fabric in [FabricKind::QsNet, FabricKind::Rdma] {
            let plain = run_pattern(cfg_with(fabric, true, false), &p);
            let coal = run_pattern(cfg_with(fabric, true, true), &p);
            // Coalescing repacks wire traffic, so virtual time may move —
            // but what every rank computes must not.
            prop_assert_eq!(&plain.results, &coal.results,
                "coalescing changed results ({:?}, {:?})", fabric, &p);
            // And it must be exactly reproducible run-to-run.
            let again = run_pattern(cfg_with(fabric, true, true), &p);
            prop_assert_eq!(
                observables(&coal),
                observables(&again),
                "coalesced run is nondeterministic ({:?})",
                fabric
            );
        }
    }

    #[test]
    fn checksums_agree_with_the_quadrics_reference_engine(p in pattern_strategy()) {
        // Independent oracle for *what* the checksums should be: the
        // Quadrics engine shares no slice/schedule machinery with BCS.
        let layout = JobLayout::new(p.n, 1, p.n);
        let q = run_program(
            quadrics_mpi::QuadricsMpi::new(quadrics_mpi::QuadricsConfig::default(), &layout),
            layout,
            pattern_program(&p),
        );
        let b = run_pattern(cfg_with(FabricKind::QsNet, true, false), &p);
        prop_assert_eq!(&q.results, &b.results,
            "engines disagree on checksums ({:?})", &p);
    }
}
