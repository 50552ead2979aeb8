//! A microphase may skip the nodes that have nothing to do in it (DESIGN §9,
//! "an idle node is a branch and a store") only if nothing observable can
//! tell: a predicate that calls a busy node idle, or an idle one busy, moves
//! a completion instant or a word file, and with it a slice boundary — which
//! the result-equality suites do not look at. This file does: 32 generated
//! programs whose ranks drift apart, so that at most microstrobes some nodes
//! have work and others none, run in every cell of {qsnet, rdma} ×
//! {coalesce off/on} × {sched_compile off/on} with a digest taken at every
//! slice boundary. The table is what the commit before the skip (PR 23)
//! produced; it was recorded before any product file changed.
//!
//! The programs are drawn from fixed seeds through proplite's strategies
//! and do not depend on `PROPLITE_*`.

use bcs_mpi::{BcsConfig, BcsMpi};
use mpi_api::message::{SrcSel, TagSel};
use mpi_api::runtime::{Job, JobLayout};
use mpi_api::{AsyncMpi, RankProgram, ReduceOp};
use proplite::prelude::*;
use proplite::Source;
use qsnet::FabricKind;
use simcore::{SimDuration, SimRng};

#[derive(Clone, Debug)]
enum Step {
    /// Compute for `us` plus a per-rank stagger: many whole idle slices,
    /// ending at a different microphase on every node.
    Gap { us: u64 },
    /// Ranks whose number is a multiple of `every` send `bytes` (zero-byte
    /// messages included) to the rank `stride` above; the receive names its
    /// source or, with `wild`, takes any.
    Ring { bytes: usize, stride: usize, every: usize, wild: bool },
    /// The same exchange received through a blocking wildcard probe.
    Probe { bytes: usize },
    /// Every rank sends to itself.
    SelfSend { bytes: usize },
    /// Barrier, broadcast, allreduce or allgatherv, on the world or on the
    /// split communicator.
    Coll { kind: u8, on_sub: bool },
}

#[derive(Clone, Debug)]
struct Prog {
    nodes: usize,
    ppn: usize,
    /// Sub-communicators the world is split into (1 = no split).
    groups: usize,
    steps: Vec<Step>,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    let bytes = || prop_oneof![Just(0usize), Just(24), Just(700), Just(9_000), Just(200_000)];
    prop_oneof![
        3 => (600u64..7_000).prop_map(|us| Step::Gap { us }),
        3 => (bytes(), 1usize..4, 1usize..4, any::<bool>())
            .prop_map(|(bytes, stride, every, wild)| Step::Ring { bytes, stride, every, wild }),
        1 => bytes().prop_map(|bytes| Step::Probe { bytes }),
        1 => bytes().prop_map(|bytes| Step::SelfSend { bytes }),
        3 => (0u8..4, any::<bool>()).prop_map(|(kind, on_sub)| Step::Coll { kind, on_sub }),
    ]
}

fn prog_strategy() -> impl Strategy<Value = Prog> {
    (2usize..7, 1usize..3, 1usize..4, prop::collection::vec(step_strategy(), 4..10))
        .prop_map(|(nodes, ppn, groups, steps)| Prog { nodes, ppn, groups, steps })
}

fn fold(acc: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(acc ^ bytes.len() as u64, |h, &b| (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3))
}

fn program(p: Prog) -> impl RankProgram<Out = u64> {
    move |mut mpi: AsyncMpi| {
        let p = p.clone();
        async move {
            let (me, n) = (mpi.rank(), mpi.size());
            let mut acc = (me as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let sub = if p.groups > 1 {
                mpi.comm_split(None, (me % p.groups) as i64, me as i64).await
            } else {
                None
            };
            for (i, step) in p.steps.iter().enumerate() {
                let tag = i as i32;
                let payload = |bytes: usize| -> Vec<u8> { (0..bytes).map(|k| (me + i + k) as u8).collect() };
                match *step {
                    Step::Gap { us } => {
                        mpi.compute(SimDuration::micros(us + 137 * (me as u64 % 5))).await;
                    }
                    Step::Ring { bytes, stride, every, wild } => {
                        let stride = stride % n;
                        let from = (me + n - stride) % n;
                        let mut reqs = Vec::new();
                        let receiving = from % every == 0;
                        if receiving {
                            let src = if wild { SrcSel::Any } else { SrcSel::Rank(from) };
                            reqs.push(mpi.irecv(src, TagSel::Tag(tag)).await);
                        }
                        if me % every == 0 {
                            reqs.push(mpi.isend((me + stride) % n, tag, &payload(bytes)).await);
                        }
                        let done = mpi.waitall(&reqs).await;
                        if receiving {
                            acc = fold(acc, done[0].0.as_ref().expect("recv payload"));
                        }
                    }
                    Step::Probe { bytes } => {
                        let s = mpi.isend((me + 1) % n, tag, &payload(bytes)).await;
                        let st = mpi.probe(SrcSel::Any, TagSel::Tag(tag)).await;
                        assert_eq!(st.bytes, bytes);
                        let (data, _) = mpi.recv(SrcSel::Rank(st.source), TagSel::Tag(tag)).await;
                        acc = fold(acc, &data);
                        mpi.wait(s).await;
                    }
                    Step::SelfSend { bytes } => {
                        let r = mpi.irecv(SrcSel::Rank(me), TagSel::Tag(tag)).await;
                        let s = mpi.isend(me, tag, &payload(bytes)).await;
                        let done = mpi.waitall(&[r, s]).await;
                        acc = fold(acc, done[0].0.as_ref().expect("self payload"));
                    }
                    Step::Coll { kind, on_sub } => {
                        let mine = payload(1 + (me * 7 + i) % 23);
                        let xs = [me as f64 * 0.37 + i as f64, (acc as u16) as f64];
                        match (sub.as_ref().filter(|_| on_sub), kind) {
                            (None, 0) => mpi.barrier().await,
                            (None, 1) => {
                                let root = i % n;
                                let got = mpi.bcast(root, (me == root).then_some(&mine[..])).await;
                                acc = fold(acc, &got);
                            }
                            (None, 2) => {
                                for v in mpi.allreduce_f64(ReduceOp::Sum, &xs).await {
                                    acc ^= v.to_bits();
                                }
                            }
                            (None, _) => {
                                for part in mpi.allgatherv_coll(&mine).await {
                                    acc = fold(acc, &part);
                                }
                            }
                            (Some(h), 0) => mpi.barrier_on(h).await,
                            (Some(h), 1) => {
                                let got = mpi.bcast_on(h, 0, (h.rank == 0).then_some(&mine[..])).await;
                                acc = fold(acc, &got);
                            }
                            (Some(h), 2) => {
                                for v in mpi.allreduce_f64_on(h, ReduceOp::Sum, &xs).await {
                                    acc ^= v.to_bits();
                                }
                            }
                            (Some(h), _) => {
                                for part in mpi.allgatherv_coll_on(h, &mine).await {
                                    acc = fold(acc, &part);
                                }
                            }
                        }
                    }
                }
            }
            acc
        }
    }
}

const PROGRAMS: u64 = 32;

/// `(elapsed ns, simulator events, FNV-1a of every program's per-rank
/// results, finish times and (slice, digest) stream)`, summed and chained
/// over the programs.
fn cell(fabric: FabricKind, coalesce: bool, compile: bool) -> (u64, u64, u64) {
    let (mut elapsed, mut events, mut h) = (0u64, 0u64, 0xcbf2_9ce4_8422_2325u64);
    for i in 0..PROGRAMS {
        let p = prog_strategy().generate(&mut Source::fresh(SimRng::new(0x1D1E_5C1B + i)));
        let cfg = BcsConfig {
            fabric,
            coalesce: coalesce.then(Default::default),
            sched_compile: compile.then(Default::default),
            checkpoint_every: Some(1),
            ..BcsConfig::default()
        };
        let layout = JobLayout::new(p.nodes, p.ppn, p.nodes * p.ppn);
        // A node wrongly skipped leaves its ranks parked for good: the
        // horizon turns that into the stuck-run report.
        let out = Job::new(BcsMpi::new(cfg, &layout), layout)
            .horizon(SimDuration::secs(1))
            .start(&program(p))
            .expect_complete();
        elapsed += out.elapsed.as_nanos();
        events += out.events;
        let mut mix = |x: u64| h = (h ^ x).wrapping_mul(0x0000_0100_0000_01B3);
        out.results.iter().for_each(|&r| mix(r));
        out.finish_times.iter().for_each(|t| mix(t.as_nanos()));
        for &(slice, digest) in out.engine.checkpoints.iter() {
            mix(slice);
            mix(digest);
        }
    }
    (elapsed, events, h)
}

/// Recorded at PR 23 (`bfb1eff`), fabric-major, then coalesce, then
/// sched_compile.
const GOLDEN: &[(&str, (u64, u64, u64))] = &[
    ("qsnet/coalesce=false/sched=false", (337897000, 21253, 0xd2e0ad892281d7a8)),
    ("qsnet/coalesce=false/sched=true", (337897000, 21253, 0xd2e0ad892281d7a8)),
    ("qsnet/coalesce=true/sched=false", (337897000, 21215, 0xd2e0ad892281d7a8)),
    ("qsnet/coalesce=true/sched=true", (337897000, 21215, 0xd2e0ad892281d7a8)),
    ("rdma/coalesce=false/sched=false", (346047000, 32804, 0xe36fb46af2798565)),
    ("rdma/coalesce=false/sched=true", (346047000, 32804, 0xe36fb46af2798565)),
    ("rdma/coalesce=true/sched=false", (346047000, 32766, 0xe36fb46af2798565)),
    ("rdma/coalesce=true/sched=true", (346047000, 32766, 0xe36fb46af2798565)),
];

#[test]
fn every_cell_reproduces_the_timeline_recorded_before_the_skip() {
    let mut actual = Vec::new();
    for fabric in [FabricKind::QsNet, FabricKind::Rdma] {
        for coalesce in [false, true] {
            for compile in [false, true] {
                let name = format!("{}/coalesce={coalesce}/sched={compile}", fabric.name());
                actual.push((name, cell(fabric, coalesce, compile)));
            }
        }
    }
    let table: String = actual
        .iter()
        .map(|(name, (ns, events, h))| format!("    (\"{name}\", ({ns}, {events}, {h:#018x})),\n"))
        .collect();
    for ((name, got), (want_name, want)) in actual.iter().zip(GOLDEN.iter().copied()) {
        assert_eq!((name.as_str(), *got), (want_name, want), "the whole table is now:\n{table}");
    }
    assert_eq!(actual.len(), GOLDEN.len(), "the whole table is now:\n{table}");
}
