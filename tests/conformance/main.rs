//! One oracle over the configuration lattice (DESIGN §16): every generated
//! rank program runs in all 30 cells — BCS-MPI on {QsNet, RDMA} × {hardware
//! multicast, binomial, optimal schedule} × schedule compilation off/on ×
//! coalescing off/on, and Quadrics MPI on the six fabric × algorithm cells —
//! in each of its forms and under seeded fault plans, and must keep exactly
//! what the design promises:
//!
//! * results are equal in every cell, every form and after every recovery;
//! * schedule compilation is invisible: with fabric, algorithm and
//!   coalescing fixed, sched on ≡ off in results, elapsed time, finish
//!   times, events, digest stream and protocol counters;
//! * batched ≡ unbatched in results and elapsed time, on both engines;
//! * a waitall in post order ≡ a shuffled one in everything;
//! * a cell run twice is identical in everything;
//! * on BCS-MPI, a free checkpoint digest at every slice boundary moves no
//!   virtual time;
//! * a seeded fault plan completes with the fault-free results, and the
//!   same seed replays the same recovery.
//!
//! A failure names the cell (its `RunSpec` line), the form, the plan seed
//! and, through proplite, the `PROPLITE_SEED` that reruns the case.

mod program;
mod semantics;

use bcs_repro::apps::runner::{EngineCfg, RanEngine, RunReport, RunSpec, RunSpecError, run_app};
use bcs_repro::bcs_mpi::{BcsConfig, BcsMpi};
use bcs_repro::faultsim::{CrashEvent, FaultPlan, FaultProfile, RecoveryCfg, RecoveryOutcome, run_with_recovery};
use bcs_repro::mpi_api::coll_sched::{CollAlgo, bcast_schedule};
use bcs_repro::mpi_api::runtime::{JobLayout, RunResult, run_program};
use bcs_repro::mpi_api::{AsyncMpi, ReduceOp};
use bcs_repro::qsnet::{FabricKind, NodeId};
use bcs_repro::simcore::{SimDuration, SimRng};
use program::{CANON, Form, Prog, Step, Wait, prog_strategy, program};
use proplite::Source;
use proplite::prelude::*;
use std::panic::{AssertUnwindSafe, catch_unwind};

const FABRICS: [FabricKind; 2] = [FabricKind::QsNet, FabricKind::Rdma];
const ALGOS: [CollAlgo; 3] = [CollAlgo::HwMulticast, CollAlgo::Binomial, CollAlgo::OptimalSchedule];

/// The 30 cells, fabric-major, then algorithm: BCS-MPI without coalescing
/// (sched off, on), with it (off, on), then Quadrics MPI.
pub fn cells() -> Vec<RunSpec> {
    let mut cells = Vec::new();
    for fabric in FABRICS {
        for coll_algo in ALGOS {
            for coalesce in [false, true] {
                for sched in [false, true] {
                    cells.push(RunSpec::from(BcsConfig {
                        fabric,
                        coll_algo,
                        sched_compile: sched,
                        coalesce,
                        ..BcsConfig::default()
                    }));
                }
            }
            cells.push(RunSpec::quadrics().with_fabric(fabric).with_coll_algo(coll_algo));
        }
    }
    cells
}

/// Everything a run shows an observer.
#[derive(Clone, Debug, PartialEq)]
struct Seen {
    results: Vec<u64>,
    elapsed: u64,
    finish: Vec<u64>,
    events: u64,
    /// The `(slice, digest)` stream (BCS-MPI).
    digests: Vec<(u64, u64)>,
    /// The engine's protocol counters, every field.
    stats: String,
}

fn seen(r: &RunReport<u64>) -> Seen {
    let (digests, stats) = match &r.engine {
        RanEngine::Bcs(e) => (e.checkpoints.to_vec(), format!("{:?}", e.stats)),
        RanEngine::Quadrics(e) => (Vec::new(), format!("{:?}", e.stats)),
    };
    let finish = r.finish_times.iter().map(|t| t.as_nanos()).collect();
    Seen { results: r.results.clone(), elapsed: r.elapsed.as_nanos(), finish, events: r.events, digests, stats }
}

/// Run `f`; if it panics, panic again with `what` in front of the message.
fn named<T>(what: String, f: impl FnOnce() -> T) -> T {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|e| {
        let msg = e.downcast_ref::<String>().cloned().or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()));
        panic!("{what}: {}", msg.unwrap_or_default())
    })
}

fn layout(p: &Prog) -> JobLayout {
    JobLayout::new(p.nodes, p.ppn, p.nodes * p.ppn)
}

/// `p` in `form` on `cell`, checkpointing every `p.ckpt` slices on BCS-MPI.
fn run(cell: &RunSpec, p: &Prog, form: Form) -> RunReport<u64> {
    let mut spec = cell.clone();
    spec.horizon = SimDuration::secs(10);
    if let EngineCfg::Bcs(c) = &mut spec.engine {
        c.checkpoint_every = Some(p.ckpt);
    }
    named(format!("{spec} {form:?}"), || run_app(&spec, layout(p), program(p, form)))
}

/// The forms a cell runs besides [`CANON`]: cell `k` takes
/// `ALT[(k + k / 5 + salt) % 5]`, so one case pairs every value of every
/// cell axis with every form.
const ALT: [Form; 5] = [
    Form { batched: true, wait: Wait::PostOrder },
    Form { batched: false, wait: Wait::Shuffled },
    Form { batched: true, wait: Wait::Shuffled },
    Form { batched: false, wait: Wait::OneByOne },
    Form { batched: true, wait: Wait::OneByOne },
];

proplite! {
    #![config(cases = 12, max_shrink_iters = 16)]

    #[test]
    fn every_cell_and_form_keeps_every_promise(p in prog_strategy(), salt in 0usize..5) {
        let cells = cells();
        let canon: Vec<Seen> = cells.iter().map(|c| seen(&run(c, &p, CANON))).collect();
        for (k, cell) in cells.iter().enumerate() {
            let s = &canon[k];
            prop_assert_eq!(&s.results, &canon[0].results, "{} and {} disagree", cell, cells[0]);
            let on = cell.to_string().replace("sched=off", "sched=on");
            if let Some(j) = (k + 1..cells.len()).find(|&j| cells[j].to_string() == on) {
                prop_assert_eq!(s, &canon[j], "{} and {} differ", cell, cells[j]);
            }
            prop_assert_eq!(&seen(&run(cell, &p, CANON)), s, "{} ran twice and differed", cell);
            let form = ALT[(k + k / 5 + salt) % 5];
            let f = seen(&run(cell, &p, form));
            prop_assert_eq!(&f.results, &s.results, "{} {:?} changed a result", cell, form);
            // One wait per request is promised only its results: on
            // BCS-MPI a wait that finds its request complete still costs a
            // post and a resume (DESIGN §16).
            if form.wait != Wait::OneByOne {
                prop_assert_eq!(f.elapsed, s.elapsed, "{} {:?} moved the clock", cell, form);
            }
            if !form.batched && form.wait == Wait::Shuffled {
                prop_assert_eq!(&f, s, "{} {:?} is visible", cell, form);
            }
        }
    }

    #[test]
    fn seeded_fault_plans_recover_to_the_fault_free_results(p in prog_strategy(), seed in 1u64..1_000_000) {
        let reference = run(&cells()[0], &p, CANON).results;
        let mut k = 0;
        for fabric in FABRICS {
            for coll_algo in ALGOS {
                for coalesce in [false, true] {
                    k += 1;
                    let sched = (k + seed as usize).is_multiple_of(2);
                    let bcs = BcsConfig {
                        fabric,
                        coll_algo,
                        coalesce,
                        sched_compile: sched,
                        ..BcsConfig::default()
                    };
                    let rc = RecoveryCfg::new(bcs, 2);
                    let form = [CANON, ALT[0], ALT[1], ALT[2], ALT[3], ALT[4]][(k + seed as usize) % 6];
                    let what = format!("{} {form:?} plan seed {seed}", RunSpec::from(rc.bcs.clone()));
                    let recover = || named(what.clone(), || recover(&rc, &p, form, seed));
                    let a = recover();
                    prop_assert!(a.completed, "{}: {:?}", what, a.abort);
                    prop_assert_eq!(a.results.iter().map(|r| r.unwrap()).collect::<Vec<_>>(), reference.clone(), "{}", what);
                    if k == 1 + seed as usize % 12 {
                        prop_assert_eq!(recovery(&recover()), recovery(&a), "{} recovered differently twice", what);
                    }
                }
            }
        }
    }
}

/// `p` under the plan `seed` draws for `rc`: crashes, drops, a degradation
/// window, and one more crash ten slices after the first — inside the
/// segment that follows a restore.
fn recover(rc: &RecoveryCfg, p: &Prog, form: Form, seed: u64) -> RecoveryOutcome<u64> {
    let profile = FaultProfile { mtbf_slices: Some(6.0), drops: 4, degradations: 1 };
    let mut plan = FaultPlan::generate(seed, &rc.bcs, p.nodes, 12, &profile);
    if let Some(first) = plan.crashes.first().cloned() {
        let node = NodeId((first.node.0 + 1 + seed as usize % 3) % p.nodes);
        plan.crashes.push(CrashEvent { node, at: first.at + rc.bcs.timeslice * 10 });
        plan.crashes.sort_by_key(|c| c.at);
    }
    run_with_recovery(rc, layout(p), &plan, program(p, form))
}

/// `(results, elapsed ns, events, restarts, detections)` of a recovery.
type Recovery = (Vec<Option<u64>>, u64, u64, usize, Vec<(usize, u64, Option<u64>)>);

fn recovery(out: &RecoveryOutcome<u64>) -> Recovery {
    let detections = out.detections.iter().map(|d| (d.node.0, d.detected_at.as_nanos(), d.restored_from_slice));
    (out.results.clone(), out.elapsed.as_nanos(), out.events, out.restarts, detections.collect())
}

/// Programs of the golden table and the engagement test, drawn from fixed
/// seeds: they do not depend on `PROPLITE_*`.
fn fixed_progs() -> Vec<Prog> {
    (0..8).map(|i| prog_strategy().generate(&mut Source::fresh(SimRng::new(0xC0F0_0000 + i)))).collect()
}

/// Per cell, over [`fixed_progs`]: summed elapsed ns, summed events, and an
/// FNV-1a chain of every program's results, finish times and `(slice,
/// digest)` stream. Recorded before any product file of the change that
/// introduced it; it pins what cell-to-cell equality cannot — a change that
/// moves every cell alike.
const GOLDEN: &[(&str, u64, u64, u64)] = &[
    ("bcs/qsnet/hw-multicast/sched=off/coalesce=off", 136002000, 16844, 0x6edc62ae0597804a),
    ("bcs/qsnet/hw-multicast/sched=on/coalesce=off", 136002000, 16844, 0x6edc62ae0597804a),
    ("bcs/qsnet/hw-multicast/sched=off/coalesce=on", 136002000, 13977, 0x859b13fbd81c40ba),
    ("bcs/qsnet/hw-multicast/sched=on/coalesce=on", 136002000, 13977, 0x859b13fbd81c40ba),
    ("quadrics/qsnet/hw-multicast", 83199966, 4315, 0x3b23513355918b2b),
    ("bcs/qsnet/binomial/sched=off/coalesce=off", 136002000, 16812, 0x0e5be551db8171a4),
    ("bcs/qsnet/binomial/sched=on/coalesce=off", 136002000, 16812, 0x0e5be551db8171a4),
    ("bcs/qsnet/binomial/sched=off/coalesce=on", 136002000, 13945, 0x2b9e81c237e921b4),
    ("bcs/qsnet/binomial/sched=on/coalesce=on", 136002000, 13945, 0x2b9e81c237e921b4),
    ("quadrics/qsnet/binomial", 83252844, 4307, 0x2f697656cbd88a39),
    ("bcs/qsnet/optimal/sched=off/coalesce=off", 136002000, 16816, 0xea64f6eb8c85960a),
    ("bcs/qsnet/optimal/sched=on/coalesce=off", 136002000, 16816, 0xea64f6eb8c85960a),
    ("bcs/qsnet/optimal/sched=off/coalesce=on", 136002000, 13949, 0x906363ccacab2e7a),
    ("bcs/qsnet/optimal/sched=on/coalesce=on", 136002000, 13949, 0x906363ccacab2e7a),
    ("quadrics/qsnet/optimal", 83226586, 4307, 0xdfd31ff13797ca3f),
    ("bcs/rdma/hw-multicast/sched=off/coalesce=off", 143082000, 21496, 0x5f0391e73f4ac301),
    ("bcs/rdma/hw-multicast/sched=on/coalesce=off", 143082000, 21496, 0x5f0391e73f4ac301),
    ("bcs/rdma/hw-multicast/sched=off/coalesce=on", 143002000, 18628, 0xa5ba536c45188531),
    ("bcs/rdma/hw-multicast/sched=on/coalesce=on", 143002000, 18628, 0xa5ba536c45188531),
    ("quadrics/rdma/hw-multicast", 83879790, 4325, 0xfcb449a0f238b177),
    ("bcs/rdma/binomial/sched=off/coalesce=off", 143582000, 21494, 0xc62e7eae7014caf5),
    ("bcs/rdma/binomial/sched=on/coalesce=off", 143582000, 21494, 0xc62e7eae7014caf5),
    ("bcs/rdma/binomial/sched=off/coalesce=on", 143502000, 18628, 0x9cec71d427150a05),
    ("bcs/rdma/binomial/sched=on/coalesce=on", 143502000, 18628, 0x9cec71d427150a05),
    ("quadrics/rdma/binomial", 83898404, 4307, 0x0e3e94fc6deb9137),
    ("bcs/rdma/optimal/sched=off/coalesce=off", 143582000, 21496, 0xbd68df6e5bb54ab7),
    ("bcs/rdma/optimal/sched=on/coalesce=off", 143582000, 21496, 0xbd68df6e5bb54ab7),
    ("bcs/rdma/optimal/sched=off/coalesce=on", 143502000, 18630, 0x897207e2856b7067),
    ("bcs/rdma/optimal/sched=on/coalesce=on", 143502000, 18630, 0x897207e2856b7067),
    ("quadrics/rdma/optimal", 84499709, 4307, 0x078de5ba998243a4),
];

#[test]
fn every_cell_reproduces_the_golden_table() {
    let progs = fixed_progs();
    let rows: Vec<(String, u64, u64, u64)> = cells()
        .iter()
        .map(|cell| {
            let (mut ns, mut events, mut h) = (0, 0, 0xcbf2_9ce4_8422_2325u64);
            for p in &progs {
                let s = seen(&run(cell, p, CANON));
                ns += s.elapsed;
                events += s.events;
                let digests = s.digests.iter().flat_map(|&(slice, d)| [slice, d]);
                for x in s.results.iter().chain(&s.finish).copied().chain(digests) {
                    h = (h ^ x).wrapping_mul(0x0000_0100_0000_01B3);
                }
            }
            (cell.to_string(), ns, events, h)
        })
        .collect();
    let table: String = rows.iter().map(|(c, ns, ev, h)| format!("    ({c:?}, {ns}, {ev}, {h:#018x}),\n")).collect();
    assert_eq!(rows.len(), GOLDEN.len(), "the whole table is now:\n{table}");
    for (row, &(c, ns, ev, h)) in rows.iter().zip(GOLDEN) {
        assert_eq!((row.0.as_str(), row.1, row.2, row.3), (c, ns, ev, h), "the whole table is now:\n{table}");
    }
}

/// A digest at every slice boundary moves no virtual time at the default
/// zero `checkpoint_cost`: in every BCS-MPI cell, checkpointing every slice,
/// at each program's own period and never (`Some(0)`) agree in results,
/// elapsed time, finish times and events.
#[test]
fn a_free_checkpoint_at_every_boundary_moves_no_virtual_time() {
    let progs = fixed_progs();
    for cell in cells().iter().filter(|c| matches!(c.engine, EngineCfg::Bcs(_))) {
        for p in &progs {
            let timing = |every: u64| {
                let s = seen(&run(cell, &Prog { ckpt: every, ..p.clone() }, CANON));
                (s.digests.len(), (s.results, s.elapsed, s.finish, s.events))
            };
            let (every_slice, all) = timing(1);
            let (never, none) = timing(0);
            let (_, own) = timing(p.ckpt);
            assert!(every_slice > 0 && never == 0, "{cell}: {every_slice} digests at every slice, {never} at none");
            assert_eq!(all, own, "{cell}: a digest at every boundary moved virtual time");
            assert_eq!(none, own, "{cell}: checkpointing at the program's period moved virtual time");
        }
    }
}

/// The generator reaches every path the oracle means to cover: compiled
/// schedules and their replays, coalesced descriptor blocks and chunk
/// gathers, chunked transfers, retried DMAs and restores. A generator that
/// stops reaching one fails here, not silently.
#[test]
fn the_generator_reaches_every_path() {
    let cell = RunSpec::from(BcsConfig { coalesce: true, ..BcsConfig::default() });
    let progs = fixed_progs();
    let (mut compiled, mut replays, mut blocks, mut gathers, mut chunked) = (0, 0, 0, 0, 0);
    for p in &progs {
        let r = run(&cell, p, CANON);
        let e = r.engine.bcs();
        compiled += e.sched_stats().compiled;
        replays += e.sched_stats().replays;
        blocks += e.stats.dem_blocks;
        gathers += e.stats.p2p_gathers;
        chunked += e.stats.chunked_messages;
    }
    let rc = RecoveryCfg::new(BcsConfig::default(), 2);
    let out = recover(&rc, &progs[0], CANON, 7);
    let retries = out.engine.retry_stats().retries;
    let counts = [compiled, replays, blocks, gathers, chunked, retries, out.restarts as u64];
    assert!(
        counts.iter().all(|&c| c > 0),
        "compiled, replays, DEM blocks, P2P gathers, chunked messages, retries, restarts: {counts:?}"
    );
}

proplite! {
    #![config(cases = 64)]

    /// Every cell's `RunSpec` line reads back as that cell, and a drawn
    /// cell's line with one edit in it reads back as the spec it then
    /// names or as a named error, never a panic.
    #[test]
    fn every_cell_line_parses_back_and_a_mangled_one_is_named(
        k in 0usize..30,
        at in 0usize..64,
        edit in 0usize..4,
        ch in 0usize..6,
    ) {
        let cells = cells();
        for cell in &cells {
            prop_assert_eq!(cell.to_string().parse::<RunSpec>(), Ok(cell.clone()), "{}", cell);
        }
        let mut chars: Vec<char> = cells[k].to_string().chars().collect();
        let (at, c) = (at % chars.len(), ['/', '=', 'x', 'o', '-', ' '][ch]);
        match edit {
            0 => chars.truncate(at),
            1 => chars.insert(at, c),
            2 => chars[at] = c,
            _ => {
                chars.remove(at);
            }
        }
        let mangled: String = chars.into_iter().collect();
        match catch_unwind(|| mangled.parse::<RunSpec>()) {
            Err(_) => prop_assert!(false, "parsing `{}` panicked", mangled),
            Ok(Ok(spec)) => prop_assert_eq!(spec.to_string(), mangled),
            Ok(Err(e)) => prop_assert!(!e.to_string().is_empty(), "`{}`: {:?}", mangled, e),
        }
    }
}

/// What each way of getting a line wrong is called.
#[test]
fn a_malformed_spec_line_names_what_is_wrong() {
    let err = |line: &str| line.parse::<RunSpec>().expect_err(line);
    assert_eq!(err(""), RunSpecError::UnknownEngine(String::new()));
    assert_eq!(err("mpich/qsnet/binomial"), RunSpecError::UnknownEngine("mpich".into()));
    assert_eq!(err("bcs/qsnet/binomial"), RunSpecError::FieldCount { engine: "bcs", expected: 5, found: 3 });
    assert_eq!(
        err("quadrics/qsnet/binomial/sched=on"),
        RunSpecError::FieldCount { engine: "quadrics", expected: 3, found: 4 }
    );
    assert_eq!(err("quadrics/myrinet/binomial"), RunSpecError::UnknownFabric("myrinet".into()));
    assert_eq!(err("quadrics/rdma/ring"), RunSpecError::UnknownCollective("ring".into()));
    assert_eq!(
        err("bcs/rdma/optimal/sched=maybe/coalesce=off"),
        RunSpecError::BadSwitch { switch: "sched", found: "sched=maybe".into() }
    );
    assert_eq!(
        err("bcs/rdma/optimal/sched=on/coalescing=off"),
        RunSpecError::BadSwitch { switch: "coalesce", found: "coalescing=off".into() }
    );
    assert_eq!(
        err("bcs/qsnet/binomial").to_string(),
        "a bcs spec has 5 `/`-separated fields, not 3"
    );
}

/// A waitall whose requests all complete in one slice equals one wait per
/// request, except that each wait after a rank's first finds its request
/// complete and takes the §3.2 fast path: one resume event each. With
/// `post_cost` zero nothing else differs but the digest stream (at the
/// boundary that restarts the rank, the waitall has retired the whole set,
/// the single wait only its own request).
#[test]
fn wide_waitall_equals_one_wait_at_a_time_on_both_engines() {
    let bcs = RunSpec::from(BcsConfig { post_cost: SimDuration::ZERO, ..BcsConfig::default() });
    for (n, msgs, bytes, iters) in [(2, 128, 0, 1), (3, 150, 8, 2), (4, 192, 64, 3)] {
        let ring = Step::Ring { bytes, msgs, stride: 1, every: 1, any_src: false, any_tag: false };
        let p = Prog { nodes: n, ppn: 1, groups: 1, steps: vec![ring; iters], steady: 0, ckpt: 1 };
        for cell in [&bcs, &RunSpec::quadrics()] {
            let all = seen(&run(cell, &p, Form { batched: false, wait: Wait::Shuffled }));
            let one = seen(&run(cell, &p, Form { batched: false, wait: Wait::OneByOne }));
            assert_eq!((&all.results, &all.finish), (&one.results, &one.finish), "{cell}");
            let fast_waits = if cell == &bcs { (n * iters * (2 * msgs - 1)) as u64 } else { 0 };
            assert_eq!(all.events + fast_waits, one.events, "{cell}, {n} ranks x {msgs} messages");
        }
    }
}

/// One small allreduce (a single pipeline block) and a barrier, or the
/// barrier alone. Every run checkpoints at every slice boundary.
fn allreduce_then_barrier(
    fabric: FabricKind,
    algo: CollAlgo,
    layout: &JobLayout,
    allreduce: bool,
) -> RunResult<u64, BcsMpi> {
    let cfg = BcsConfig { fabric, coll_algo: algo, checkpoint_every: Some(1), ..BcsConfig::default() };
    run_program(BcsMpi::new(cfg, layout), layout.clone(), move |mut mpi: AsyncMpi| async move {
        let mut acc = 0u64;
        if allreduce {
            let xs: Vec<f64> = (0..8).map(|i| (mpi.rank() * 8 + i) as f64).collect();
            for v in mpi.allreduce_f64(ReduceOp::Sum, &xs).await {
                acc = acc.rotate_left(9) ^ v.to_bits();
            }
        }
        mpi.barrier().await;
        acc
    })
}

/// What a schedule-driven allreduce costs the event queue, read off its
/// table: one event per edge of the broadcast leg (a landing block may
/// complete a node, whose ranks restart), one per round of the gather leg
/// (nothing happens where a partial lands, so the round is one
/// continuation), and the slice the collective occupies. Nothing per gather
/// edge and nothing per put: an executor that schedules an event per
/// gather edge adds `edges - rounds` to the count, a put that schedules its
/// empty completion adds `2 * edges`, and both grow with the node count
/// while the last term does not.
///
/// That last term is the allreduce's slice as the barrier-only run does not
/// have it — five strobes with their polls, the eligibility query, the
/// restarts — and depends on the machine, not on the collective: 27 events
/// on QsNet at any size; on the RDMA fabric the strobes go down a software
/// tree that delivers level by level, one event per distinct instant, so
/// the slice costs 16 events and 10 more per level of a tree over the
/// compute nodes and the management node.
#[test]
fn optimal_allreduce_costs_one_event_per_bcast_edge_and_one_per_gather_round() {
    for (nodes, ppn) in [(2usize, 1usize), (5, 1), (8, 2), (13, 1), (16, 2)] {
        let layout = JobLayout::new(nodes, ppn, nodes * ppn);
        let table = bcast_schedule(nodes, 1);
        let edges = table.rounds.iter().map(Vec::len).sum::<usize>() as u64;
        let rounds = table.rounds.len() as u64;
        let tree_levels = (nodes + 1).next_power_of_two().trailing_zeros() as u64;
        for (fabric, slice) in [(FabricKind::QsNet, 27), (FabricKind::Rdma, 16 + 10 * tree_levels)] {
            let run = |algo, allreduce| allreduce_then_barrier(fabric, algo, &layout, allreduce);
            let optimal = run(CollAlgo::OptimalSchedule, true);
            let added = optimal.events - run(CollAlgo::OptimalSchedule, false).events;
            assert_eq!(
                added,
                edges + rounds + slice,
                "{fabric:?}, {nodes} nodes x {ppn}: {edges} broadcast edges + {rounds} gather \
                 rounds + {slice} for the slice"
            );
            // The wire schedule moves nothing an application or a
            // checkpoint can see when the collective fits its slice.
            for algo in [CollAlgo::HwMulticast, CollAlgo::Binomial] {
                let other = run(algo, true);
                assert_eq!(optimal.results, other.results, "{algo:?} on {fabric:?}");
                assert_eq!(optimal.finish_times, other.finish_times, "{algo:?} on {fabric:?}");
                let (a, b) = (optimal.engine.checkpoints.to_vec(), other.engine.checkpoints.to_vec());
                assert_eq!(a, b, "{algo:?} on {fabric:?}");
            }
        }
    }
}

/// A crash that lands while an allreduce's result multicast is in flight
/// is recovered: the node the multicast cannot reach holds the reduce
/// microphase open until the heartbeat declares it, so no image is captured
/// with that node's ranks blocked in a collective that has already ended
/// (the restored run used to wait for it forever). Found by the fault axis.
#[test]
fn a_crash_inside_a_result_multicast_is_recovered() {
    use program::Coll;
    let big = |kind| Step::Coll { kind, on_sub: false, big: true };
    let steps = vec![
        Step::Coll { kind: Coll::Bits(ReduceOp::BAnd), on_sub: false, big: false },
        big(Coll::Allreduce(ReduceOp::Sum)),
        Step::Gap { us: 3_791 },
        Step::Ring { bytes: 9_000, msgs: 1, stride: 2, every: 1, any_src: false, any_tag: false },
    ];
    let p = Prog { nodes: 5, ppn: 1, groups: 2, steps, steady: 7, ckpt: 1 };
    let rc = RecoveryCfg::new(BcsConfig::default(), 2);
    let plan = FaultPlan {
        crashes: vec![CrashEvent { node: NodeId(4), at: bcs_repro::simcore::SimTime::ZERO + SimDuration::nanos(2_111_000) }],
        ..FaultPlan::none()
    };
    let out = run_with_recovery(&rc, layout(&p), &plan, program(&p, CANON));
    assert!(out.completed, "{:?}", out.abort);
    assert_eq!(out.restarts, 1);
    let got: Vec<u64> = out.results.iter().map(|r| r.unwrap()).collect();
    assert_eq!(got, run(&cells()[0], &p, CANON).results);
}
