//! One experiment per table/figure of the paper (see DESIGN.md §5, §8).
//!
//! Each experiment is an [`Experiment`]: a flat list of independent sweep
//! *points* (one simulation run each — every granularity × engine pair,
//! every Table 1 (model, n) cell, every fault-injection configuration)
//! plus an `assemble` step that folds the point outputs into [`Report`]s.
//! [`run_pooled`] — what the `repro` binary calls — pools the points of
//! every selected experiment onto the work-stealing scheduler in
//! [`crate::sweep`]; because points return plain numbers, none of them a
//! host observation, and all formatting happens in `assemble` in point
//! order, the emitted reports (rows, notes, metrics) and CSVs are
//! byte-identical across runs and at any thread count.
//!
//! Most of the paper's evaluation (Figures 8–11, Table 2) is one
//! measurement: the same program on BCS-MPI and on Quadrics MPI, reported
//! as a slowdown. Those experiments, and the `scale` and `fabric-matrix`
//! sweeps beyond the paper, are lists of [`Pair`] rows turned into an
//! experiment by [`pair_exp`].
//!
//! `quick` mode shrinks the sweeps so the full suite can run in CI; the
//! full mode reproduces the paper-scale configurations (62 processes on
//! the 32-node "crescendo" layout).
//!
//! Every MPI job here starts through [`apps::runner::run_app`] or
//! [`faultsim::run_with_recovery`], under a configuration built from the
//! registry's [`Wire`] — what `repro --fabric`/`--coll` chose. It is a
//! default: an experiment that sweeps one of those axes itself
//! (`fabric-matrix`, `ablation-reduce`) sets it afterwards, per row.

use crate::sweep::{self, PointFn, PointOut, SweepStats};
use crate::{Report, pct, secs};
use apps::npb::{cg, ep, ft, is, lu, mg};
use apps::runner::{RunSpec, run_app, slowdown_pct};
use apps::{sage, sweep3d, synthetic};
use bcs_mpi::BcsConfig;
use mpi_api::coll_sched::CollAlgo;
use mpi_api::datatype::ReduceOp;
use mpi_api::message::{SrcSel, TagSel};
use mpi_api::noise::NoiseConfig;
use mpi_api::runtime::JobLayout;
use quadrics_mpi::QuadricsConfig;
use simcore::{Sim, SimDuration, SimTime};
use std::sync::Arc;
use storm::StormWorld;

/// A figure/table decomposed for the parallel sweep scheduler.
pub struct Experiment {
    /// The reports `assemble` emits, in order: each name is a CSV stem and
    /// the key of the report's gates in [`crate::gate`].
    pub reports: &'static [&'static str],
    /// Name accepted on the `repro` command line (`ablation-fault` style).
    pub cli: &'static str,
    /// One-line description for `repro --list`.
    pub desc: &'static str,
    /// Independent sweep points, each a self-contained simulation run.
    pub points: Vec<PointFn>,
    /// Folds the point outputs (in point order) into named reports.
    /// Pure formatting — never runs simulations.
    pub assemble: Box<dyn FnOnce(Vec<PointOut>) -> Vec<(&'static str, Report)> + Send>,
}

/// The interconnect timing rules and collective wire schedule every engine
/// configuration in the registry starts from (`repro --fabric`, `--coll`).
/// As with the engine configs' own `fabric` field, this picks the timing
/// rules, not the `NetModel` constants.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Wire {
    pub fabric: qsnet::FabricKind,
    pub coll: CollAlgo,
}

impl Wire {
    pub fn bcs_cfg(self) -> BcsConfig {
        BcsConfig { fabric: self.fabric, coll_algo: self.coll, ..BcsConfig::default() }
    }

    pub fn quadrics_cfg(self) -> QuadricsConfig {
        QuadricsConfig { fabric: self.fabric, coll_algo: self.coll, ..QuadricsConfig::default() }
    }

    pub fn bcs(self) -> RunSpec {
        self.bcs_cfg().into()
    }

    pub fn quadrics(self) -> RunSpec {
        self.quadrics_cfg().into()
    }
}

/// Every experiment, in the order `repro` emits them.
pub fn registry(quick: bool, wire: Wire) -> Vec<Experiment> {
    let mut exps = vec![table1_exp(), fig2_exp(wire)];
    exps.extend(FIG8.iter().map(|panel| fig8_exp(panel, quick, wire)));
    exps.extend([
        fig9_exp(quick, wire),
        fig10_exp(quick, wire),
        fig11_exp(quick, wire, sweep3d::SweepVariant::Blocking),
        fig11_exp(quick, wire, sweep3d::SweepVariant::NonBlocking),
        ablation_slice_exp(quick, wire),
        ablation_reduce_exp(quick, wire),
        ablation_noise_exp(quick, wire),
        ablation_chunk_exp(quick, wire),
        ablation_multijob_exp(wire),
        ablation_fault_exp(quick, wire),
        ablation_schedule_exp(quick, wire),
        storm_launch_exp(),
        scale_exp(quick, wire),
        fabric_matrix_exp(quick, wire),
    ]);
    exps
}

/// Pool the points of every experiment in `selected` into one sweep on
/// `threads` workers, so a straggler point of one figure overlaps with the
/// next figure's work, then assemble each experiment's reports in order.
/// Panics if an experiment emits other reports than it declares.
pub fn run_pooled(
    selected: Vec<Experiment>,
    threads: usize,
) -> (Vec<(&'static str, Report)>, SweepStats) {
    let mut pool: Vec<PointFn> = Vec::new();
    let mut pending = Vec::new(); // (point span, declared reports, assemble)
    for e in selected {
        let span = pool.len()..pool.len() + e.points.len();
        pool.extend(e.points);
        pending.push((span, e.reports, e.assemble));
    }
    let (outs, stats) = sweep::run_points(pool, threads);
    let reports = pending
        .into_iter()
        .flat_map(|(span, declared, assemble)| {
            let emitted = assemble(outs[span].to_vec());
            let names: Vec<&str> = emitted.iter().map(|(name, _)| *name).collect();
            assert_eq!(names, declared, "an experiment emitted other reports than it declares");
            emitted
        })
        .collect();
    (reports, stats)
}

/// Paper-default cluster: 31 usable nodes × 2 CPUs for 62 ranks.
fn layout(ranks: usize) -> JobLayout {
    JobLayout::crescendo(ranks)
}

/// `n` ranks, two per node on as many nodes as they need: the layout of
/// the sweeps that outgrow the paper's 32-node cluster.
fn two_per_node(n: usize) -> JobLayout {
    JobLayout::new(n.div_ceil(2), 2, n)
}

/// The two interconnects the sweeping experiments compare: timing rules
/// (whose name labels the rows) and Table 1 constants.
const FABRICS: &[(qsnet::FabricKind, fn() -> qsnet::NetModel)] = &[
    (qsnet::FabricKind::QsNet, qsnet::NetModel::qsnet),
    (qsnet::FabricKind::Rdma, qsnet::NetModel::infiniband),
];

/// Both engines from `wire` on the `net` constants: the shape of every
/// sweep over Table 1 models.
fn net_pair(wire: Wire, net: qsnet::NetModel) -> (RunSpec, RunSpec) {
    (BcsConfig { net, ..wire.bcs_cfg() }.into(), QuadricsConfig { net, ..wire.quadrics_cfg() }.into())
}

/// Reconstruct a virtual duration a point shipped as nanoseconds.
fn dur(ns: u64) -> SimDuration {
    SimDuration::nanos(ns)
}

// ======================================================================
// The engine pair — one program on BCS-MPI and on Quadrics MPI
// ======================================================================

/// A rank program behind one type: runs under a spec on a layout and
/// returns the run's `[virtual elapsed ns, simulator events]`.
type Program = Arc<dyn Fn(&RunSpec, JobLayout) -> [u64; 2] + Send + Sync>;

/// `make` as a [`Program`]. Each run builds its own rank program, so a
/// row captures only plain configuration.
fn program<P: mpi_api::RankProgram>(make: impl Fn() -> P + Send + Sync + 'static) -> Program {
    Arc::new(move |spec, layout| {
        let out = run_app(spec, layout, make());
        [out.elapsed.as_nanos(), out.events]
    })
}

/// One row of a BCS-vs-Quadrics comparison ([`pair`] builds one): `program`
/// on `layout` under both `specs`, reported as `[BCS-MPI, Quadrics, slowdown]`.
struct Pair {
    label: String,
    specs: (RunSpec, RunSpec),
    layout: JobLayout,
    program: Program,
    /// Also report the row's slowdown as this headline metric.
    metric: Option<String>,
}

fn pair(
    label: String,
    specs: &(RunSpec, RunSpec),
    layout: JobLayout,
    program: &Program,
    metric: Option<String>,
) -> Pair {
    Pair { label, specs: specs.clone(), layout, program: program.clone(), metric }
}

/// One run of `program` as a sweep point: `words = [elapsed ns, events]`.
fn run_point(spec: RunSpec, layout: JobLayout, program: &Program) -> PointFn {
    let program = program.clone();
    Box::new(move || PointOut::new(vec![], program(&spec, layout).to_vec()))
}

/// What one [`Pair`] measured.
struct Measured {
    label: String,
    slowdown: f64,
    bcs_elapsed: SimDuration,
    bcs_events: u64,
}

/// The experiment a list of [`Pair`]s makes: each row's two points, BCS-MPI
/// first, in row order; then the `[BCS-MPI, Quadrics, slowdown]` report
/// `reports[0]` titled `title`, one row and at most one metric per pair.
/// `finish` adds notes and aggregate metrics from the measured rows and
/// returns the experiment's further reports.
fn pair_exp(
    cli: &'static str,
    desc: &'static str,
    reports: &'static [&'static str],
    title: String,
    rows: Vec<Pair>,
    finish: impl FnOnce(&mut Report, &[Measured]) -> Vec<(&'static str, Report)> + Send + 'static,
) -> Experiment {
    let mut points: Vec<PointFn> = Vec::new();
    let mut heads = Vec::new(); // (label, metric) per row
    for row in rows {
        points.push(run_point(row.specs.0, row.layout.clone(), &row.program));
        points.push(run_point(row.specs.1, row.layout, &row.program));
        heads.push((row.label, row.metric));
    }
    Experiment {
        reports,
        cli,
        desc,
        points,
        assemble: Box::new(move |outs| {
            let mut r = Report::new(title, &["BCS-MPI", "Quadrics", "slowdown"]);
            let measured: Vec<Measured> = heads
                .into_iter()
                .zip(outs.chunks_exact(2))
                .map(|((label, metric), runs)| {
                    let (b, q) = (dur(runs[0].words[0]), dur(runs[1].words[0]));
                    let slowdown = slowdown_pct(b, q);
                    r.row(label.clone(), vec![secs(b.as_secs_f64()), secs(q.as_secs_f64()), pct(slowdown)]);
                    if let Some(m) = metric {
                        r.metric(m, slowdown);
                    }
                    Measured { label, slowdown, bcs_elapsed: b, bcs_events: runs[0].words[1] }
                })
                .collect();
            let more = finish(&mut r, &measured);
            [(reports[0], r)].into_iter().chain(more).collect()
        }),
    }
}

// ======================================================================
// Table 1 — BCS core primitive performance per network model
// ======================================================================

/// One point per (model, n) cell: both the C&W latency and the X&S
/// aggregate bandwidth for that node count.
pub fn table1_exp() -> Experiment {
    let models = qsnet::NetModel::table1_models();
    let ns = [32usize, 1024];
    let mut points: Vec<PointFn> = Vec::new();
    for &model in &models {
        for &n in &ns {
            points.push(Box::new(move || {
                PointOut::new(
                    vec![measure_cw_us(&model, n), measure_xs_aggregate_mbps(&model, n)],
                    vec![],
                )
            }));
        }
    }
    Experiment {
        reports: &["table1"],
        cli: "table1",
        desc: "BCS core primitive latency/bandwidth per interconnect model (Table 1)",
        points,
        assemble: Box::new(move |outs| {
            let mut r = Report::new(
                "Table 1: BCS core mechanisms vs interconnect (measured on the simulated fabrics)",
                &["C&W n=32", "C&W n=1024", "X&S n=32", "X&S n=1024", "paper C&W", "paper X&S"],
            );
            let paper = [
                ("Gigabit Ethernet", "46·log n us", "n/a"),
                ("Myrinet", "20·log n us", "~15n MB/s"),
                ("InfiniBand", "20·log n us", "n/a"),
                ("QsNet", "< 10 us", "> 150n MB/s"),
                ("BlueGene/L", "< 2 us", "700n MB/s"),
            ];
            let cells = outs.chunks_exact(ns.len()); // per model, one point per `ns`
            for ((model, (_, pcw, pxs)), cell) in models.into_iter().zip(paper).zip(cells) {
                let cw = cell.iter().map(|o| format!("{:.1}us", o.nums[0]));
                let xs = cell.iter().map(|o| format!("{:.0}MB/s", o.nums[1]));
                r.row(model.name, cw.chain(xs).chain([pcw.to_string(), pxs.to_string()]).collect());
            }
            r.note("X&S aggregate bandwidth = n x bytes / completion time of a 1 MB multicast");
            vec![("table1", r)]
        }),
    }
}

/// How long `op`, issued from the management node of a fresh `n`-node
/// STORM world on `net` to every compute node, takes to complete.
fn storm_op(
    net: &qsnet::NetModel,
    n: usize,
    op: impl FnOnce(&mut StormWorld, &mut Sim<StormWorld>, qsnet::NodeId, &[qsnet::NodeId]) -> SimTime,
) -> SimDuration {
    let mut w = StormWorld::new(*net, n);
    let mut sim: Sim<StormWorld> = Sim::new();
    let (nodes, mgmt) = (w.nodes(), w.mgmt);
    let t = op(&mut w, &mut sim, mgmt, &nodes);
    sim.run(&mut w);
    t.since(SimTime::ZERO)
}

/// Completion latency of one Compare-And-Write over `n` nodes.
fn measure_cw_us(net: &qsnet::NetModel, n: usize) -> f64 {
    use bcs_core::{BcsCluster, CmpOp};
    storm_op(net, n, |w, sim, mgmt, nodes| {
        BcsCluster::compare_and_write(w, sim, mgmt, nodes, 1, CmpOp::Ge, 0, None, |_, _, _| {})
    })
    .as_micros_f64()
}

/// Aggregate Xfer-And-Signal bandwidth: 1 MB multicast to `n` nodes.
fn measure_xs_aggregate_mbps(net: &qsnet::NetModel, n: usize) -> f64 {
    let bytes = 1_048_576u64;
    let t = storm_op(net, n, |w, sim, mgmt, nodes| {
        bcs_core::BcsCluster::xfer_and_signal(w, sim, mgmt, nodes, bytes, bcs_core::XsOpts::default())
    });
    (n as u64 * bytes) as f64 / t.as_secs_f64() / 1e6
}

// ======================================================================
// Figure 2 — blocking vs non-blocking send/receive timing
// ======================================================================

/// Two points: the blocking-delay histogram run and the overlap run.
pub fn fig2_exp(wire: Wire) -> Experiment {
    let points: Vec<PointFn> = vec![
        Box::new(move || {
            let h = blocking_delay_histogram(wire);
            PointOut::new(
                vec![h.mean().as_micros_f64(), h.quantile(0.95).as_micros_f64()],
                vec![],
            )
        }),
        Box::new(move || {
            let l = JobLayout::new(2, 1, 2);
            let out = run_app(&wire.bcs(), l, |mut mpi: mpi_api::AsyncMpi| async move {
                let peer = 1 - mpi.rank();
                let t0 = mpi.now().await;
                for _ in 0..20 {
                    let s = mpi.isend(peer, 1, &[0u8; 4096]).await;
                    let q = mpi.irecv(SrcSel::Rank(peer), TagSel::Tag(1)).await;
                    mpi.compute(SimDuration::millis(5)).await;
                    mpi.waitall(&[s, q]).await;
                }
                mpi.now().await.since(t0).as_millis_f64()
            });
            PointOut::new(vec![out.results[0]], vec![])
        }),
    ];
    Experiment {
        reports: &["fig2"],
        cli: "fig2",
        desc: "blocking vs non-blocking send/receive timing (Figure 2)",
        points,
        assemble: Box::new(|outs| {
            let mut r = Report::new(
                "Figure 2: blocking vs non-blocking primitive timing under BCS-MPI",
                &["measured", "paper"],
            );
            let mean_slices = outs[0].nums[0] / 500.0;
            r.metric("blocking_mean_slices", mean_slices);
            r.row(
                "blocking delay (mean)",
                vec![format!("{mean_slices:.2} slices"), "1.5 slices".into()],
            );
            r.row(
                "blocking delay (p95)",
                vec![
                    format!("{:.2} slices", outs[0].nums[1] / 500.0),
                    "~2 slices".into(),
                ],
            );
            let overhead = (outs[1].nums[0] / 100.0 - 1.0) * 100.0;
            r.metric("nonblocking_overhead_pct", overhead);
            r.row(
                "non-blocking overhead (5ms steps)",
                vec![format!("{overhead:+.2}%"), "~0% (full overlap)".into()],
            );
            vec![("fig2", r)]
        }),
    }
}

/// Run a 2-rank blocking workload and return the engine's blocking-delay
/// histogram.
fn blocking_delay_histogram(wire: Wire) -> simcore::stats::LogHistogram {
    let l = JobLayout::new(2, 1, 2);
    let out = run_app(&wire.bcs(), l, |mut mpi: mpi_api::AsyncMpi| async move {
        for i in 0..60u64 {
            mpi.compute(SimDuration::micros(113 + (i * 197) % 463)).await;
            if mpi.rank() == 0 {
                mpi.send(1, 1, &[0u8; 256]).await;
            } else {
                mpi.recv_from(0, 1).await;
            }
        }
    });
    out.engine.bcs().stats.blocking_delay.clone()
}

// ======================================================================
// Figure 8 — synthetic benchmarks
// ======================================================================

fn fig8_iters(g: SimDuration) -> u64 {
    (SimDuration::millis(1500).as_nanos() / g.as_nanos()).clamp(10, 300)
}

/// Figure 8's loops: `g` of compute, then a barrier or the paper's
/// 4-neighbour exchange.
fn synthetic_loop(neighbor: bool, g: SimDuration, iters: u64) -> Program {
    if neighbor {
        program(move || synthetic::neighbor_loop(synthetic::NeighborLoopCfg::paper(g, iters)))
    } else {
        program(move || synthetic::barrier_loop(synthetic::BarrierLoopCfg { granularity: g, iters }))
    }
}

/// One panel of Figure 8: a synthetic loop swept over granularity at a
/// fixed process count, or over process counts at 10 ms.
struct Fig8Panel {
    name: &'static str,
    desc: &'static str,
    /// The workload, as the title names it.
    what: &'static str,
    neighbor: bool,
    /// The process counts swept at paper scale; `None` sweeps granularity.
    procs: Option<&'static [usize]>,
    note: Option<&'static str>,
}

static FIG8: [Fig8Panel; 4] = [
    Fig8Panel {
        name: "fig8a",
        desc: "computation+barrier slowdown vs granularity (Figure 8a)",
        what: "computation+barrier",
        neighbor: false,
        procs: None,
        note: Some("paper: slowdown < 7.5% at 10 ms granularity on the full machine"),
    },
    Fig8Panel {
        name: "fig8b",
        desc: "computation+barrier slowdown vs process count (Figure 8b)",
        what: "computation+barrier",
        neighbor: false,
        procs: Some(&[4, 8, 16, 32, 48, 62]),
        note: Some("paper: almost insensitive to the number of processors"),
    },
    Fig8Panel {
        name: "fig8c",
        desc: "computation+nearest-neighbour slowdown vs granularity (Figure 8c)",
        what: "computation+nearest-neighbour (4 neighbours, 4 KB)",
        neighbor: true,
        procs: None,
        note: Some("paper: below 8% for granularities larger than 10 ms"),
    },
    Fig8Panel {
        name: "fig8d",
        desc: "computation+nearest-neighbour slowdown vs process count (Figure 8d)",
        what: "computation+nearest-neighbour",
        neighbor: true,
        procs: Some(&[6, 8, 16, 32, 48, 62]),
        note: None,
    },
];

fn fig8_exp(panel: &'static Fig8Panel, quick: bool, wire: Wire) -> Experiment {
    let specs = (wire.bcs(), wire.quadrics());
    let fig = format!("Figure 8({})", &panel.name[4..]);
    let (title, rows) = match panel.procs {
        None => {
            let ranks = if quick { 16 } else { 62 };
            let gs: &[u64] = if quick { &[2, 10] } else { &[1, 2, 5, 10, 20, 50] };
            let rows = gs.iter().map(|&g_ms| {
                let g = SimDuration::millis(g_ms);
                let prog = synthetic_loop(panel.neighbor, g, fig8_iters(g));
                let metric = (g_ms == 10).then(|| "slowdown_10ms_pct".into());
                pair(format!("{g_ms} ms"), &specs, layout(ranks), &prog, metric)
            });
            (format!("{fig}: {}, {ranks} processes — slowdown vs granularity", panel.what), rows.collect())
        }
        Some(procs) => {
            let ps: &[usize] = if quick { &[8, 16] } else { procs };
            let prog = synthetic_loop(panel.neighbor, SimDuration::millis(10), 100);
            let rows = ps.iter().map(|&p| pair(format!("{p} procs"), &specs, layout(p), &prog, None));
            (format!("{fig}: {}, 10 ms granularity — slowdown vs processes", panel.what), rows.collect())
        }
    };
    pair_exp(panel.name, panel.desc, std::slice::from_ref(&panel.name), title, rows, |r, _| {
        if let Some(note) = panel.note {
            r.note(note);
        }
        vec![]
    })
}

// ======================================================================
// Figure 9 + Table 2 — NPB and SAGE
// ======================================================================

/// One (BCS, Quadrics) pair per application; Table 2 is their slowdowns
/// beside the paper's (`apps::calib::PAPER_SLOWDOWNS`).
pub fn fig9_exp(quick: bool, wire: Wire) -> Experiment {
    use apps::calib::{BCS_INIT, PAPER_SLOWDOWNS};
    use sage::SageCfg;
    let ranks = if quick { 8 } else { 62 };
    // At paper scale BCS-MPI includes the one-time runtime initialization
    // the paper blames for IS (§5.3); quick (CI-sized) runs skip it because
    // their total runtime is smaller than the init itself.
    let init_delay = if quick { SimDuration::ZERO } else { BCS_INIT };
    let specs = (BcsConfig { init_delay, ..wire.bcs_cfg() }.into(), wire.quadrics());
    let apps = [
        ("SAGE", program(move || sage::sage_bench(if quick { SageCfg::test() } else { SageCfg::timing_input() }))),
        ("IS", program(move || is::is_bench(if quick { is::IsCfg::test() } else { is::IsCfg::class_c() }))),
        ("EP", program(move || ep::ep_bench(if quick { ep::EpCfg::test() } else { ep::EpCfg::class_c() }))),
        ("MG", program(move || mg::mg_bench(if quick { mg::MgCfg::test() } else { mg::MgCfg::class_c() }))),
        ("CG", program(move || cg::cg_bench(if quick { cg::CgCfg::test() } else { cg::CgCfg::class_c() }))),
        ("LU", program(move || lu::lu_bench(if quick { lu::LuCfg::test() } else { lu::LuCfg::class_c() }))),
        // Beyond the paper: FT needs the MPI-group support the prototype
        // lacked (§4.5).
        ("FT*", program(move || ft::ft_bench(if quick { ft::FtCfg::test() } else { ft::FtCfg::class_c() }))),
    ];
    let rows = apps.iter().map(|(app, prog)| pair(app.to_string(), &specs, layout(ranks), prog, None));
    pair_exp(
        "fig9",
        "NPB + SAGE runtimes and Table 2 application slowdowns",
        &["fig9_runtimes", "table2"],
        format!("Figure 9: NPB + SAGE runtimes, {ranks} processes"),
        rows.collect(),
        move |runtimes, measured| {
            runtimes.note(if quick {
                "BCS-MPI runs skip the one-time runtime initialization, which is longer than \
                 these CI-sized runs (see apps::calib)"
            } else {
                "BCS-MPI runs include the one-time runtime initialization (see apps::calib)"
            });
            let mut table2 = Report::new(
                "Table 2: application slowdown (BCS-MPI vs Quadrics MPI)",
                &["measured", "paper"],
            );
            for m in measured {
                let name = m.label.as_str();
                let paper = PAPER_SLOWDOWNS.iter().find(|(app, _)| *app == name);
                if matches!(name, "SAGE" | "CG" | "LU") {
                    table2.metric(format!("slowdown_{name}_pct"), m.slowdown);
                }
                let paper = paper.map_or("n/a (no groups)".into(), |&(_, p)| pct(p));
                table2.row(name, vec![pct(m.slowdown), paper]);
            }
            table2.note("FT*: requires MPI groups, unimplemented in the paper's prototype; enabled here");
            vec![("table2", table2)]
        },
    )
}

// ======================================================================
// Figure 10 — SAGE vs processes
// ======================================================================

pub fn fig10_exp(quick: bool, wire: Wire) -> Experiment {
    let ps: &[usize] = if quick { &[4, 8] } else { &[8, 16, 32, 48, 62] };
    // No runtime init here (it is reported in Figure 9 / Table 2): these
    // curves compare steady-state loop time.
    let specs = (wire.bcs(), wire.quadrics());
    // Per-point sweeps use shorter runs than Figure 9.
    let cfg = if quick {
        sage::SageCfg::test()
    } else {
        sage::SageCfg { steps: 15, ..sage::SageCfg::timing_input() }
    };
    let sage = program(move || sage::sage_bench(cfg.clone()));
    let rows = ps.iter().map(|&p| pair(format!("{p} procs"), &specs, layout(p), &sage, None)).collect();
    pair_exp(
        "fig10",
        "SAGE runtime vs process count (Figure 10)",
        &["fig10"],
        "Figure 10: SAGE runtime vs processes".into(),
        rows,
        |r, measured| {
            let max_abs = measured.iter().fold(0.0f64, |max, m| m.slowdown.abs().max(max));
            r.metric("max_abs_slowdown_pct", max_abs);
            r.note("paper: -0.42% (parity; BCS-MPI marginally faster)");
            vec![]
        },
    )
}

// ======================================================================
// Figure 11 — SWEEP3D blocking vs non-blocking
// ======================================================================

pub fn fig11_exp(quick: bool, wire: Wire, variant: sweep3d::SweepVariant) -> Experiment {
    let ps: &[usize] = if quick { &[4, 8] } else { &[4, 8, 16, 32, 48, 62] };
    let cfg = if quick { sweep3d::SweepCfg::test(variant) } else { sweep3d::SweepCfg::paper(variant) };
    let sweep = program(move || sweep3d::sweep3d_bench(cfg.clone()));
    let (reports, title, note, desc): (&'static [&'static str], &str, &'static str, &'static str) =
        match variant {
            sweep3d::SweepVariant::Blocking => (
                &["fig11a"],
                "Figure 11(a): SWEEP3D with blocking send/receive — runtime vs processes",
                "paper: ~30% slower in all configurations",
                "SWEEP3D with blocking send/receive vs process count (Figure 11a)",
            ),
            sweep3d::SweepVariant::NonBlocking => (
                &["fig11b"],
                "Figure 11(b): SWEEP3D transformed to Isend/Irecv+Waitall — runtime vs processes",
                "paper: -2.23% (BCS-MPI slightly outperforms)",
                "SWEEP3D transformed to Isend/Irecv+Waitall vs process count (Figure 11b)",
            ),
        };
    let specs = (wire.bcs(), wire.quadrics());
    let rows = ps.iter().map(|&p| pair(format!("{p} procs"), &specs, layout(p), &sweep, None)).collect();
    pair_exp(reports[0], desc, reports, title.into(), rows, move |r, measured| {
        let max_sd = measured.iter().fold(f64::NEG_INFINITY, |max, m| max.max(m.slowdown));
        r.metric("max_slowdown_pct", max_sd);
        r.note(note);
        vec![]
    })
}

// ======================================================================
// Ablations
// ======================================================================

/// Time-slice length ablation: the 500 µs default against alternatives.
/// Point 0 is the Quadrics baseline; one point per slice length follows.
pub fn ablation_slice_exp(quick: bool, wire: Wire) -> Experiment {
    let ranks = if quick { 8 } else { 32 };
    let slices_us: &'static [u64] = if quick { &[250, 500] } else { &[100, 250, 500, 1000, 2000] };
    let cfg = sweep3d::SweepCfg {
        steps: if quick { 20 } else { 100 },
        step_compute: SimDuration::micros(3_500),
        face_elems: 128,
        variant: sweep3d::SweepVariant::Blocking,
    };
    let sweep = program(move || sweep3d::sweep3d_bench(cfg.clone()));
    let mut points = vec![run_point(wire.quadrics(), layout(ranks), &sweep)];
    for &ts in slices_us {
        let bcs = BcsConfig { timeslice: SimDuration::micros(ts), ..wire.bcs_cfg() };
        points.push(run_point(bcs.into(), layout(ranks), &sweep));
    }
    Experiment {
        reports: &["ablation_slice"],
        cli: "ablation-slice",
        desc: "time-slice length ablation on fine-grained SWEEP3D",
        points,
        assemble: Box::new(move |outs| {
            let mut r = Report::new(
                "Ablation: time-slice length (SWEEP3D blocking, fine grain)",
                &["BCS-MPI", "slowdown vs Quadrics"],
            );
            let q = dur(outs[0].words[0]);
            for (&ts, out) in slices_us.iter().zip(&outs[1..]) {
                let b = dur(out.words[0]);
                let sd = slowdown_pct(b, q);
                if ts == 500 {
                    r.metric("slowdown_500us_pct", sd);
                }
                r.row(
                    format!("{ts} us slice"),
                    vec![secs(b.as_secs_f64()), pct(sd)],
                );
            }
            r.note("shorter slices cut blocking latency but raise strobe overhead");
            vec![("ablation_slice", r)]
        }),
    }
}

/// The collective-algorithm bake-off: allreduce µs/op under the three
/// wire schedules of `mpi_api::coll_sched::CollAlgo` — the fabric's native
/// multicast, the explicit binomial tree, and Träff-style pipelined
/// optimal round schedules — on both engines × both fabrics, across node
/// counts and element sizes. Value-plane results are bit-identical across
/// the three columns
/// (see `coll_equivalence`); only the modeled wire time moves.
///
/// Gate: on rdmanet — where "multicast" is software-emulated through a
/// serialized relay — the optimal schedule must beat the emulated
/// multicast at the largest n (`rdma_optimal_large_ns` vs
/// `rdma_mcast_large_ns` in `gate::SPEEDUPS`, virtual-time pair).
pub fn ablation_reduce_exp(quick: bool, wire: Wire) -> Experiment {
    let small_ns: &'static [usize] = if quick { &[8] } else { &[8, 64, 512] };
    let elem_counts: &'static [usize] = if quick { &[8, 512] } else { &[8, 512, 4096] };
    // Quick mode halves the large node count: the emulated-multicast relay
    // row costs O(n) simulator events per broadcast, and n = 4096 points
    // would dominate the pooled quick sweep. The optimal-vs-relay speedup
    // gate holds at either size.
    let large_n: usize = if quick { 2048 } else { 4096 };
    // Row grid: engines × fabrics × n × elems, plus BCS-only large-n rows
    // (the Quadrics baseline's collectives are analytic — its large-n
    // behavior is already pinned by the small rows). Every cell fixes
    // both wire axes itself, so `wire` never shows in this table.
    let mut rows: Vec<(String, RunSpec, usize, usize)> = Vec::new(); // (engine/fabric, spec, n, elems)
    for engine in ["bcs", "quadrics"] {
        for &(kind, net) in FABRICS {
            let (bcs, quadrics) = net_pair(Wire { fabric: kind, ..wire }, net());
            let spec = if engine == "bcs" { bcs } else { quadrics };
            for &n in small_ns {
                for &elems in elem_counts {
                    rows.push((format!("{engine}/{}", kind.name()), spec.clone(), n, elems));
                }
            }
        }
    }
    for &(kind, net) in FABRICS {
        let bcs = net_pair(Wire { fabric: kind, ..wire }, net()).0;
        rows.push((format!("bcs/{}", kind.name()), bcs, large_n, 512));
    }
    // Large-n points are what the sweep costs the host: quick mode runs
    // one iteration of them (per-op cost is slice-quantized, so fewer
    // iterations do not move the metric's scale).
    let iters_for = move |n: usize| -> u64 {
        if n >= 1024 {
            if quick { 1 } else { 4 }
        } else if quick {
            10
        } else {
            20
        }
    };

    let mut points: Vec<PointFn> = Vec::new();
    for &(_, ref spec, n, elems) in &rows {
        for algo in CollAlgo::ALL {
            let spec = spec.clone().with_coll_algo(algo);
            points.push(Box::new(move || {
                let iters = iters_for(n);
                let out = run_app(
                    &spec,
                    two_per_node(n),
                    move |mut mpi: mpi_api::AsyncMpi| async move {
                        let data = vec![1.0f64; elems];
                        let t0 = mpi.now().await;
                        for _ in 0..iters {
                            mpi.allreduce_f64(ReduceOp::Sum, &data).await;
                        }
                        mpi.now().await.since(t0).as_micros_f64() / iters as f64
                    },
                );
                PointOut::new(vec![out.results[0]], vec![])
            }));
        }
    }
    Experiment {
        reports: &["ablation_reduce"],
        cli: "ablation-reduce",
        desc: "collective-algorithm bake-off: hw multicast vs binomial vs optimal schedule",
        points,
        assemble: Box::new(move |outs| {
            let mut r = Report::new(
                "Bake-off: allreduce us/op under hw-multicast vs binomial vs optimal schedule",
                &["hw-multicast", "binomial", "optimal"],
            );
            for ((cell, spec, n, elems), us) in rows.iter().zip(outs.chunks_exact(CollAlgo::ALL.len())) {
                r.row(
                    format!("{cell} n={n} {elems}f64"),
                    us.iter().map(|o| format!("{:.1}us", o.nums[0])).collect(),
                );
                // Only BCS-MPI has large-n rows.
                if spec.fabric() == qsnet::FabricKind::Rdma && *n == large_n {
                    r.metric("rdma_mcast_large_ns", us[0].nums[0] * 1000.0);
                    r.metric("rdma_optimal_large_ns", us[2].nums[0] * 1000.0);
                }
            }
            r.note("columns are wire-schedule algorithms; results are bit-identical across all three (coll_equivalence)");
            r.note("rdmanet has no hardware multicast: the hw-multicast column there is the software-emulated relay");
            r.note("layout: 2 CPUs per node, n/2 compute nodes; the large-n rows are BCS-MPI only");
            vec![("ablation_reduce", r)]
        }),
    }
}

/// OS-noise ablation (§4.5, reference \[20\]): four points — Quadrics and
/// BCS, clean and with the noise injector.
pub fn ablation_noise_exp(quick: bool, wire: Wire) -> Experiment {
    let ranks = if quick { 8 } else { 62 };
    let barrier = synthetic_loop(false, SimDuration::millis(1), if quick { 50 } else { 200 });
    let noise = || NoiseConfig {
        mean_interval: SimDuration::millis(10),
        hole: SimDuration::micros(800),
        seed: 99,
    };
    let specs: [RunSpec; 4] = [
        wire.quadrics(),
        QuadricsConfig { noise: Some(noise()), ..wire.quadrics_cfg() }.into(),
        wire.bcs(),
        BcsConfig { noise: Some(noise()), ..wire.bcs_cfg() }.into(),
    ];
    let points = specs.into_iter().map(|spec| run_point(spec, layout(ranks), &barrier)).collect();
    Experiment {
        reports: &["ablation_noise"],
        cli: "ablation-noise",
        desc: "OS-noise injection on a fine-grained barrier loop",
        points,
        assemble: Box::new(|outs| {
            let mut r = Report::new(
                "Ablation: OS noise on a fine-grained (1 ms) barrier loop",
                &["runtime", "vs clean"],
            );
            let t = |i: usize| dur(outs[i].words[0]).as_secs_f64();
            let rel = |x: f64, base: f64| pct((x / base - 1.0) * 100.0);
            r.row("Quadrics clean", vec![secs(t(0)), "-".into()]);
            r.row("Quadrics + noise", vec![secs(t(1)), rel(t(1), t(0))]);
            r.row("BCS-MPI clean", vec![secs(t(2)), "-".into()]);
            r.row("BCS-MPI + noise", vec![secs(t(3)), rel(t(3), t(2))]);
            r.note("slice slack absorbs holes that hit while a rank would be waiting anyway");
            vec![("ablation_noise", r)]
        }),
    }
}

/// Chunking ablation: one point per (message size, engine).
pub fn ablation_chunk_exp(quick: bool, wire: Wire) -> Experiment {
    let sizes: &'static [usize] = if quick {
        &[16 * 1024, 1024 * 1024]
    } else {
        &[4 * 1024, 64 * 1024, 256 * 1024, 1024 * 1024, 4 * 1024 * 1024]
    };
    let measure = |spec: RunSpec, sz: usize| -> PointFn {
        Box::new(move || {
            let l = JobLayout::new(2, 1, 2);
            let out = run_app(&spec, l, move |mut mpi: mpi_api::AsyncMpi| async move {
                let reps = 4;
                mpi.barrier().await;
                let t0 = mpi.now().await;
                for i in 0..reps {
                    if mpi.rank() == 0 {
                        mpi.send(1, i, &vec![7u8; sz]).await;
                    } else {
                        mpi.recv_from(0, i).await;
                    }
                }
                mpi.barrier().await;
                (sz as f64 * reps as f64) / mpi.now().await.since(t0).as_secs_f64() / 1e6
            });
            PointOut::new(vec![out.results[1]], vec![])
        })
    };
    let cfg = wire.bcs_cfg();
    let (budget, link_mb_s) = (cfg.p2p_budget(), cfg.net.link_bw / 1e6);
    let mut points: Vec<PointFn> = Vec::new();
    for &sz in sizes {
        points.push(measure(wire.bcs(), sz));
        points.push(measure(wire.quadrics(), sz));
    }
    Experiment {
        reports: &["ablation_chunk"],
        cli: "ablation-chunk",
        desc: "effective bandwidth vs message size (chunking over slices)",
        points,
        assemble: Box::new(move |outs| {
            let mut r = Report::new(
                "Ablation: effective bandwidth vs message size (chunking over slices)",
                &["BCS-MPI", "Quadrics", "BCS/link", "notes"],
            );
            for (&sz, runs) in sizes.iter().zip(outs.chunks_exact(2)) {
                let (b, q) = (runs[0].nums[0], runs[1].nums[0]);
                r.row(
                    format!("{} KiB", sz / 1024),
                    vec![
                        format!("{b:.0} MB/s"),
                        format!("{q:.0} MB/s"),
                        format!("{:.0}%", b / link_mb_s * 100.0),
                        if sz as u64 > budget { "chunked".into() } else { "single slice".into() },
                    ],
                );
            }
            r.note("per-slice budget = 0.6 x slice x link bandwidth (~96 KiB at 500 us)");
            vec![("ablation_chunk", r)]
        }),
    }
}

/// Multiprogramming ablation (§5.4 option 1): gang-schedule two jobs —
/// first with STORM's analytic scheduler, then for real inside the BCS-MPI
/// engine (two communicator-scoped jobs sharing every node's CPUs).
///
/// Three points: the analytic solo/duo schedules, the dedicated-CPU engine
/// run, and the gang-shared engine run.
pub fn ablation_multijob_exp(wire: Wire) -> Experiment {
    // Two jobs of blocking ring exchanges, gang-scheduled on shared nodes.
    let steps = 60u64;
    let compute = SimDuration::micros(1_300);
    let ring = move |mut mpi: mpi_api::AsyncMpi| async move {
        let me = mpi.rank();
        let job = ((me % 4) / 2) as i64;
        let comm = mpi.comm_split(None, job, 0).await.expect("job comm");
        let n = comm.size();
        let my = comm.rank;
        let right = comm.world_rank((my + 1) % n);
        let left = comm.world_rank((my + n - 1) % n);
        for step in 0..steps {
            mpi.compute(compute).await;
            let tag = (step % 512) as i32;
            mpi.sendrecv(
                right,
                tag,
                &[my as u8; 64],
                SrcSel::Rank(left),
                TagSel::Tag(tag),
            )
            .await;
        }
    };
    let lay = || JobLayout::new(4, 4, 16);

    let points: Vec<PointFn> = vec![
        Box::new(|| {
            use storm::gang::{JobProfile, gang_schedule};
            let sweep_like = JobProfile {
                name: "sweep3d-like",
                compute: SimDuration::micros(3_500),
                blocked: SimDuration::micros(1_100),
                steps: 2_000,
            };
            let quantum = SimDuration::micros(500);
            let cs = SimDuration::micros(25);
            let solo = gang_schedule(&[sweep_like.clone()], quantum, cs);
            let duo = gang_schedule(&[sweep_like.clone(), sweep_like.clone()], quantum, cs);
            PointOut::new(
                vec![
                    solo.total.as_secs_f64(),
                    solo.utilization,
                    duo.total.as_secs_f64(),
                    duo.utilization,
                ],
                vec![solo.switches, duo.switches],
            )
        }),
        run_point(wire.bcs(), lay(), &program(move || ring)),
        Box::new(move || {
            let mut gcfg = wire.bcs_cfg();
            let mut jobs = vec![Vec::new(), Vec::new()];
            for rank in 0..16 {
                jobs[(rank % 4) / 2].push(rank);
            }
            gcfg.gang = Some(bcs_mpi::GangConfig {
                jobs,
                switch_cost: SimDuration::micros(25),
            });
            let gang = run_app(&gcfg.into(), lay(), ring);
            PointOut::new(
                vec![],
                vec![gang.elapsed.as_nanos(), gang.engine.bcs().gang_switches()],
            )
        }),
    ];
    Experiment {
        reports: &["ablation_multijob"],
        cli: "ablation-multijob",
        desc: "gang-scheduling a second job into blocked slices (STORM)",
        points,
        assemble: Box::new(|outs| {
            let mut r = Report::new(
                "Ablation: gang-scheduling a second job into blocked slices (STORM, §5.4)",
                &["makespan", "utilization", "switches"],
            );
            let [solo_total, solo_util, duo_total, duo_util] = outs[0].nums[..] else {
                panic!("analytic point shape");
            };
            r.row(
                "1 job",
                vec![
                    secs(solo_total),
                    format!("{:.0}%", solo_util * 100.0),
                    outs[0].words[0].to_string(),
                ],
            );
            r.row(
                "2 jobs (gang)",
                vec![
                    secs(duo_total),
                    format!("{:.0}%", duo_util * 100.0),
                    outs[0].words[1].to_string(),
                ],
            );
            let ideal_serial = solo_total * 2.0;
            r.note(format!(
                "2 jobs finish in {:.2}s vs {:.2}s run back-to-back: the second job fills the blocking holes",
                duo_total, ideal_serial
            ));
            let ded = dur(outs[1].words[0]).as_secs_f64();
            let g = dur(outs[2].words[0]).as_secs_f64();
            r.row(
                "BCS engine: dedicated CPUs",
                vec![secs(ded), "100% of 2x hardware".into(), "0".into()],
            );
            r.row(
                "BCS engine: 2 jobs gang-shared",
                vec![
                    secs(g),
                    format!("{:.0}% of serial", g / (2.0 * ded) * 100.0),
                    outs[2].words[1].to_string(),
                ],
            );
            r.note(format!(
                "real engine: two jobs on half the CPUs finish in {:.2}s vs {:.2}s serially — in-flight communication keeps progressing on the NIC while a job is descheduled",
                g,
                2.0 * ded
            ));
            vec![("ablation_multijob", r)]
        }),
    }
}

/// Fault ablation (the §6 transparent-fault-tolerance claim, quantified):
/// checkpoint interval × MTBF. Reports the pure checkpointing overhead
/// (fault-free run with images + serialization cost vs the plain run), and
/// under injected crashes the recovery cost, restart count and
/// crash-to-declaration latency. Every faulted run is verified
/// bit-identical to the fault-free results before being reported.
///
/// Point layout: `[baseline, {clean(k), faulted(k, mtbf)...}..., cost...]`.
/// Faulted points ship their per-rank checksums so `assemble` can verify
/// them against the baseline's without rerunning anything.
pub fn ablation_fault_exp(quick: bool, wire: Wire) -> Experiment {
    use faultsim::{FaultPlan, FaultProfile, RecoveryCfg, fault_free_reference, run_with_recovery};

    let (nodes, cpus, iters) = if quick { (4usize, 1usize, 5u64) } else { (8, 2, 10) };
    let ranks = nodes * cpus;
    let lay = move || JobLayout::new(nodes, cpus, ranks);
    let intervals: &'static [u64] = if quick { &[2, 8] } else { &[2, 8, 32] };
    let mtbfs: &'static [f64] = if quick { &[6.0] } else { &[12.0, 50.0] };
    // Checkpoint every `k` slices, each image costing `cost_us` to serialize.
    let recovery = move |k: u64, cost_us: u64| {
        let mut rc = RecoveryCfg::new(wire.bcs_cfg(), k);
        rc.bcs.checkpoint_cost = SimDuration::micros(cost_us);
        rc
    };

    // Deterministic ring workload (specific receives, mixed chunked/small
    // payloads, periodic NIC allreduce): the checksum is timing-invariant,
    // so it detects any state lost or duplicated across a recovery.
    let program = move |mut mpi: mpi_api::AsyncMpi| async move {
        let me = mpi.rank();
        let n = mpi.size();
        let mut acc: u64 = (me as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for it in 0..iters {
            mpi.compute(SimDuration::micros(200 + 53 * ((me as u64 + it) % 5))).await;
            let sz = if it % 2 == 0 { 64 * 1024 } else { 512 };
            let payload: Vec<u8> = (0..sz).map(|i| (acc ^ (i as u64)) as u8).collect();
            let s = mpi.isend((me + 1) % n, it as i32, &payload).await;
            let q = mpi.irecv(SrcSel::Rank((me + n - 1) % n), TagSel::Tag(it as i32)).await;
            let res = mpi.waitall(&[s, q]).await;
            for (i, b) in res[1].0.as_ref().expect("payload").iter().enumerate() {
                acc = acc.wrapping_mul(31).wrapping_add(*b as u64 ^ (i as u64 & 0xFF));
            }
            if it % 3 == 2 {
                for v in mpi
                    .allreduce_f64(ReduceOp::Sum, &[me as f64, (acc as u32) as f64])
                    .await
                {
                    acc ^= v.to_bits();
                }
            }
        }
        acc
    };

    let mut points: Vec<PointFn> = Vec::new();
    // Baseline: elapsed ns followed by the per-rank checksums. The reference
    // run drops the images and their cost, so the interval does not matter.
    points.push(Box::new(move || {
        let base = fault_free_reference(&recovery(intervals[0], 0), lay(), program);
        let mut words = vec![base.elapsed.as_nanos()];
        words.extend(base.results.iter().copied());
        PointOut::new(vec![], words)
    }));
    for &k in intervals {
        points.push(Box::new(move || {
            let clean = run_with_recovery(&recovery(k, 50), lay(), &FaultPlan::none(), program);
            assert!(clean.completed, "clean checkpointed run failed: {:?}", clean.abort);
            let last = clean.engine.images.last().expect("a checkpointed run leaves images");
            PointOut::new(
                vec![],
                vec![
                    clean.elapsed.as_nanos(),
                    last.rt.logged_payload_bytes,
                    clean.engine.stats.p2p_bytes,
                ],
            )
        }));
        for &mtbf in mtbfs {
            points.push(Box::new(move || {
                let rc = recovery(k, 50);
                let horizon = iters * 4;
                let plan = FaultPlan::generate(
                    0xBC5 + k * 31 + mtbf as u64,
                    &rc.bcs,
                    nodes,
                    horizon,
                    &FaultProfile::crashes(mtbf),
                );
                let out = run_with_recovery(&rc, lay(), &plan, program);
                assert!(
                    out.completed,
                    "faulted run (interval {k}, MTBF {mtbf}) failed: {:?}",
                    out.abort
                );
                let lats: Vec<f64> = out
                    .detections
                    .iter()
                    .filter_map(|d| d.latency())
                    .map(|l| l.as_millis_f64())
                    .collect();
                let mean_lat = if lats.is_empty() {
                    0.0
                } else {
                    lats.iter().sum::<f64>() / lats.len() as f64
                };
                let max_lat = lats.iter().fold(0.0f64, |a, &b| a.max(b));
                let rework_ms: f64 = out
                    .detections
                    .iter()
                    .filter_map(|d| d.rework())
                    .map(|w| w.as_millis_f64())
                    .sum();
                let mut words = vec![
                    out.elapsed.as_nanos(),
                    out.restarts as u64,
                    lats.len() as u64,
                ];
                words.extend(out.results.iter().map(|r| r.unwrap()));
                PointOut::new(vec![rework_ms, mean_lat, max_lat], words)
            }));
        }
    }
    // Serialization-cost cliff: a checkpoint stall that exceeds the slice
    // slack pushes application work into extra slices.
    const COSTS_US: [u64; 3] = [50, 200, 400];
    for cost_us in COSTS_US {
        points.push(Box::new(move || {
            let clean = run_with_recovery(&recovery(2, cost_us), lay(), &FaultPlan::none(), program);
            assert!(clean.completed, "cost sweep failed: {:?}", clean.abort);
            PointOut::new(vec![], vec![clean.elapsed.as_nanos()])
        }));
    }

    Experiment {
        reports: &["ablation_fault"],
        cli: "ablation-fault",
        desc: "checkpoint interval x MTBF fault-tolerance ablation",
        points,
        assemble: Box::new(move |outs| {
            let mut r = Report::new(
                format!(
                    "Ablation: fault tolerance — checkpoint interval x MTBF ({ranks} processes)"
                ),
                &["elapsed", "rework", "restarts", "detect latency (mean)"],
            );
            let base_elapsed = dur(outs[0].words[0]);
            let base_results = &outs[0].words[1..];
            let base_ms = base_elapsed.as_millis_f64();
            r.row(
                "no checkpoints, no faults",
                vec![secs(base_elapsed.as_secs_f64()), "-".into(), "0".into(), "-".into()],
            );
            let rework_cell = |ms: f64| format!("{ms:.2}ms ({})", pct(ms / base_ms * 100.0));
            let mut all_identical = true;
            let mut max_latency_ms = 0.0f64;
            // A fault-free checkpointed run's row; returns its spill in ms.
            let clean_row = |r: &mut Report, label: String, o: &PointOut| {
                let elapsed = dur(o.words[0]);
                // Slices start on a fixed global grid, so serialization
                // that fits in slice slack costs nothing; spill shows up
                // as whole slices.
                let spill_ms = elapsed.as_millis_f64() - base_ms;
                let cells = vec![secs(elapsed.as_secs_f64()), rework_cell(spill_ms), "0".into(), "-".into()];
                r.row(label, cells);
                spill_ms
            };
            let mut runs = outs[1..].iter();
            let (logged_bytes, p2p_bytes) = (outs[1].words[1], outs[1].words[2]);
            for &k in intervals {
                let label = format!("every {k} slices, no faults");
                let spill_ms = clean_row(&mut r, label, runs.next().unwrap());
                r.metric(format!("ckpt_overhead_every{k}_pct"), spill_ms / base_ms * 100.0);
                for &mtbf in mtbfs {
                    let o = runs.next().unwrap();
                    let [rework_ms, mean_lat, max_lat] = o.nums[..] else {
                        panic!("faulted point shape");
                    };
                    let restarts = o.words[1];
                    let lat_count = o.words[2];
                    all_identical &= o.words[3..] == *base_results;
                    max_latency_ms = max_latency_ms.max(max_lat);
                    r.row(
                        format!("every {k} slices, MTBF {mtbf} slices"),
                        vec![
                            secs(dur(o.words[0]).as_secs_f64()),
                            rework_cell(rework_ms),
                            restarts.to_string(),
                            if lat_count == 0 {
                                "-".into()
                            } else {
                                format!("{mean_lat:.2}ms")
                            },
                        ],
                    );
                }
            }
            for cost_us in COSTS_US {
                let label = format!("every 2 slices, {cost_us} us serialization, no faults");
                clean_row(&mut r, label, runs.next().unwrap());
            }
            r.metric("recovered_bit_identical", if all_identical { 1.0 } else { 0.0 });
            r.metric("max_detect_latency_ms", max_latency_ms);
            r.note("baseline = same workload, no checkpoint images, no serialization cost");
            r.note("every faulted row verified bit-identical to the fault-free results");
            r.note("rework = virtual time rolled back and replayed (faulted rows) or grid spill (clean rows)");
            r.note("detect latency = crash instant to heartbeat declaration (2 ms strobe period)");
            r.note(format!(
                "replay log retains {logged_bytes} B of payloads by value (collective results); \
                 the {p2p_bytes} B moved point to point are logged by reference to their send"
            ));
            vec![("ablation_fault", r)]
        }),
    }
}

// ======================================================================
// Ablation — persistent schedule compilation + small-message coalescing
// ======================================================================

/// Schedule-compilation ablation (DESIGN.md §13): the particle stress
/// workload swept over pattern stability × message size × node count, each
/// cell run three ways — baseline (no compilation, no coalescing),
/// compiled (schedule compilation only; required to be timing-transparent),
/// and compiled+coalesced. Two extra points run one slice of the MSM+P2P
/// machinery in isolation (indexed matching + per-message DMA vs digest
/// validation + pair replay + gathered DMA) and count the DMA gets each
/// issues, which feed the `gate::check_speedup` ≥5x gate through report
/// metrics and never reach CSV rows.
pub fn ablation_schedule_exp(quick: bool, wire: Wire) -> Experiment {
    let ns: &'static [usize] = if quick { &[4, 16] } else { &[16, 64, 256] };
    let sizes: &'static [usize] = if quick { &[32, 128] } else { &[32, 128, 1024] };
    let iters: u64 = 6;
    // Per-neighbour message count scaled so one iteration's traffic stays
    // inside the default per-slice P2P budget (~96 KiB/node at 500 us;
    // compilation needs every message to complete unchunked): a source
    // node emits 2 CPUs x 4 neighbours x mpp messages of msg_bytes.
    let mpp = move |msg_bytes: usize| -> usize {
        let per_node: usize = if quick { 12 * 1024 } else { 72 * 1024 };
        (per_node / (2 * 4 * msg_bytes)).max(1)
    };
    let cfg = move |stable: bool, msg_bytes: usize| synthetic::ParticleStressCfg {
        granularity: SimDuration::micros(400),
        iters,
        neighbors: 4,
        msgs_per_peer: mpp(msg_bytes),
        msg_bytes,
        stable,
    };
    // (stable, message size, nodes) per row, each run three ways.
    let cells: Vec<(bool, usize, usize)> = [true, false]
        .into_iter()
        .flat_map(|stable| sizes.iter().flat_map(move |&sz| ns.iter().map(move |&n| (stable, sz, n))))
        .collect();
    let mut points: Vec<PointFn> = Vec::new();
    for &(stable, sz, n) in &cells {
        for variant in 0..3usize {
            points.push(Box::new(move || {
                let bcfg = BcsConfig { sched_compile: variant != 0, coalesce: variant == 2, ..wire.bcs_cfg() };
                let out = run_app(
                    &bcfg.into(),
                    JobLayout::new(n, 2, 2 * n),
                    synthetic::particle_stress(cfg(stable, sz)),
                );
                let s = out.engine.bcs().sched_stats();
                let st = &out.engine.bcs().stats;
                PointOut::new(
                    vec![],
                    vec![out.elapsed.as_nanos(), s.compiled, s.replays, st.dem_blocks, st.p2p_gathers],
                )
            }));
        }
    }
    // Machinery pair: the gets each variant issues feed the >=5x gate.
    let msgs = if quick { 65_536usize } else { 262_144 };
    for compiled in [false, true] {
        points.push(Box::new(move || PointOut::new(vec![], vec![machinery_gets(msgs, compiled)])));
    }
    Experiment {
        reports: &["ablation_schedule"],
        cli: "ablation-schedule",
        desc: "persistent schedule compilation + coalescing on the particle stress workload",
        points,
        assemble: Box::new(move |outs| {
            let mut r = Report::new(
                format!(
                    "Ablation: persistent communication schedules + coalescing \
                     (particle stress, {iters} iterations)"
                ),
                &["baseline", "compiled", "compiled+coalesced", "replays", "gathers"],
            );
            let mut delta_ns = 0u64;
            let mut behavior_ok = true;
            let mut stable_replayed = 0u32;
            let (cell_outs, machinery) = outs.split_at(3 * cells.len());
            for (&(stable, sz, n), runs) in cells.iter().zip(cell_outs.chunks_exact(3)) {
                let (base, comp, coal) = (&runs[0], &runs[1], &runs[2]);
                // Compilation must not move virtual time at all.
                delta_ns += base.words[0].abs_diff(comp.words[0]);
                let replays = comp.words[2];
                // A perturbed pattern must never replay. A stable one
                // compiles and replays when an iteration meets the
                // slices the same way every time; how many cells do
                // is pinned per mode (see EXPERIMENTS.md: at paper
                // scale the 128 B cells overrun the slice in DEM and
                // alternate between two splits).
                if stable {
                    stable_replayed += u32::from(comp.words[1] > 0 && replays > 0);
                } else {
                    behavior_ok &= replays == 0;
                }
                behavior_ok &= coal.words[4] > 0; // gathers engaged
                let ms = |o: &PointOut| format!("{:.2}ms", dur(o.words[0]).as_millis_f64());
                r.row(
                    format!("{} {sz}B x{} n={n}", if stable { "stable" } else { "perturbed" }, mpp(sz)),
                    vec![ms(base), ms(comp), ms(coal), replays.to_string(), coal.words[4].to_string()],
                );
            }
            r.metric("replay_elapsed_delta_ns", delta_ns as f64);
            r.metric("pattern_behavior_ok", if behavior_ok { 1.0 } else { 0.0 });
            r.metric("stable_cells_replayed", stable_replayed as f64);
            // The machinery pair: its exact work count is gated (metrics
            // only, never rows).
            let (base, comp) = (&machinery[0], &machinery[1]);
            r.metric("stress_baseline_gets", base.words[0] as f64);
            r.metric("stress_compiled_gets", comp.words[0] as f64);
            r.note("compiled column must equal baseline exactly: replay is bit-transparent");
            r.note(format!(
                "speedup gate compares the DMA gets of one {msgs}-message matching slice \
                 of pure MSM+P2P machinery: {} indexed vs {} compiled (see \
                 gate::check_speedups); what the two paths cost the host is perf/'s \
                 core.probe_ns_per_match vs core.probe_ns_per_replay_msg",
                base.words[0],
                comp.words[0],
            ));
            vec![("ablation_schedule", r)]
        }),
    }
}

/// The DMA gets one "matching slice" of the MSM+P2P machinery issues over
/// `msgs` small messages converging on one node from 16 sources, on a live
/// QsNet fabric + simulator: an exact count at any load, and what the
/// paired ratio gate compares.
///
/// * baseline: indexed matching per message (`RecvIndex::match_first_seq`),
///   budget accounting, and one DMA get per message;
/// * compiled: fingerprint validation over the arrival stream plus the
///   index's cached receive-side digest (`RecvIndex::shape_digest`), bulk
///   recv drain, pre-paired replay, and one coalesced gather get per source
///   (the pairing *and* the gather plan are part of the persistent
///   schedule, built once when the streak compiles).
fn machinery_gets(msgs: usize, compiled: bool) -> u64 {
    use bcs_mpi::match_index::{LazyBudget, RecvIndex, RecvSel, SendIndex, SendKey};
    use bcs_mpi::schedule::FpBuilder;
    use qsnet::NodeId;

    struct W;
    let srcs = 16usize;
    let bytes = 32u64;
    let hdr = 64u64;
    let key = |i: usize| SendKey {
        dst_rank: 0,
        src_rank: i % srcs,
        tag: (i / srcs % 64) as i32,
    };
    let sel = |i: usize| RecvSel {
        dst_rank: 0,
        src: SrcSel::Rank(i % srcs),
        tag: TagSel::Tag((i / srcs % 64) as i32),
    };

    let mut fab: Box<dyn qsnet::Fabric<W>> =
        Box::new(qsnet::QsNetFabric::new(qsnet::NetModel::qsnet(), srcs + 1));
    let mut sim: simcore::Sim<W> = simcore::Sim::new();
    let mut w = W;
    let mut budget = LazyBudget::new(srcs + 1);
    budget.refill(u64::MAX / 2);
    let mut recvs: RecvIndex<u64> = RecvIndex::new();
    for i in 0..msgs {
        recvs.post(sel(i), i as u64);
    }
    let mut sends: SendIndex<u64> = SendIndex::new();
    for i in 0..msgs {
        sends.push(key(i), bytes);
    }
    // The persistent schedule: fingerprint, arrival->recv pairing
    // (identity here — arrivals match posted recvs in order), and the
    // coalesced DMA plan.
    let expected_fp = {
        let mut fp = FpBuilder::new();
        fp.word(msgs as u64);
        for i in 0..msgs {
            fp.arrival(&key(i), bytes);
        }
        fp.word(recvs.shape_digest());
        fp.finish()
    };
    let plan_items: Vec<(usize, u64)> = (0..msgs).map(|i| (i % srcs, bytes)).collect();
    let (plan_singles, plan_gathers) = bcs_core::coalesce::plan(&plan_items);
    // Per-source/destination budget needs, aggregated at compile time
    // exactly like `schedule::Compiled::new`.
    let mut src_need = vec![0u64; srcs];
    for i in 0..msgs {
        src_need[i % srcs] += bytes;
    }
    let dst_need = msgs as u64 * bytes;

    let incoming = sends.drain_new();
    let mut sched: Vec<(u64, u64)> = Vec::with_capacity(msgs);
    if compiled {
        let mut fp = FpBuilder::new();
        fp.word(incoming.len() as u64);
        for (k, b) in &incoming {
            fp.arrival(k, *b);
        }
        fp.word(recvs.shape_digest());
        assert_eq!(fp.finish(), expected_fp, "digest must validate");
        // Budget validation + debit from the schedule's precomputed
        // per-source aggregates (O(sources), not O(msgs)).
        for (s, need) in src_need.iter().enumerate() {
            assert!(*need <= budget.get(1 + s), "src budget must hold");
            budget.sub(1 + s, *need);
        }
        assert!(dst_need <= budget.get(0), "dst budget must hold");
        budget.sub(0, dst_need);
        let drained = recvs.take_all();
        for (i, (_k, b)) in incoming.iter().enumerate() {
            sched.push((drained[i].1, *b));
        }
        for &i in &plan_singles {
            let (src, b) = plan_items[i];
            fab.get(&mut sim, NodeId(0), NodeId(1 + src), b + hdr, |_, _| {});
        }
        for g in &plan_gathers {
            fab.get(&mut sim, NodeId(0), NodeId(1 + g.peer), g.wire_bytes(), |_, _| {});
        }
    } else {
        for (k, b) in incoming {
            let (_, _, item) = recvs.match_first_seq(&k).expect("recv posted");
            budget.sub(1 + k.src_rank, b);
            budget.sub(0, b);
            sched.push((item, b));
            fab.get(&mut sim, NodeId(0), NodeId(1 + k.src_rank), b + hdr, |_, _| {});
        }
    }
    sim.run(&mut w);
    assert_eq!(sched.len(), msgs);
    fab.net().stats().gets
}

// ======================================================================
// Scale — BlueGene/L sweeps to thousands of ranks
// ======================================================================

/// Figure 8-style synthetic sweeps on the BlueGene/L interconnect model
/// (Table 1's largest machine), extended to n=65536 in full mode — three
/// orders of magnitude past the paper's 62-process Quadrics cluster. Rank
/// programs are stackless state machines on the simulator's own thread, so
/// a point is one OS thread whatever n is.
pub fn scale_exp(quick: bool, wire: Wire) -> Experiment {
    let ns: &'static [usize] = if quick {
        &[64, 1024, 4096]
    } else {
        &[62, 256, 1024, 4096, 16384, 65536]
    };
    let g = SimDuration::millis(10);
    // Iteration counts taper with n to keep the sweep inside the CI
    // wall-clock budget; slowdown is per-iteration, so short loops measure
    // the same quantity.
    let iters = move |n: usize| -> u64 {
        let base: u64 = if quick { 10 } else { 40 };
        if n >= 16384 {
            (base / 20).max(1)
        } else if n >= 4096 {
            base / 5
        } else {
            base
        }
    };
    let specs = net_pair(wire, qsnet::NetModel::bluegene_l());
    let mut rows = Vec::new();
    for (what, neighbor) in [("barrier", false), ("neighbor", true)] {
        for &n in ns {
            let prog = synthetic_loop(neighbor, g, iters(n));
            let metric = (n == 4096).then(|| format!("{what}_n4096_slowdown_pct"));
            rows.push(pair(format!("{what} n={n}"), &specs, two_per_node(n), &prog, metric));
        }
    }
    pair_exp(
        "scale",
        "BlueGene/L synthetic sweeps to thousands of ranks (65536 at paper scale)",
        &["scale"],
        format!("Scale: synthetic benchmarks on BlueGene/L to n={} (10 ms granularity)", ns[ns.len() - 1]),
        rows,
        move |r, measured| {
            r.note("layout: 2 CPUs per node, n/2 compute nodes; net = Table 1 BlueGene/L");
            // Simulator cost, a note because it is not a result: what the
            // slice machinery dispatches per slice must not grow with n
            // (DESIGN §9; verify.sh holds n=4096 under twice the smallest n).
            // The one event per rank and iteration that ends a rank's
            // compute phase is the rank's own work and is left out.
            let per_slice: Vec<String> = ns
                .iter()
                .zip(measured) // the barrier rows
                .map(|(&n, m)| {
                    let machine = m.bcs_events - iters(n) * n as u64;
                    let slices = m.bcs_elapsed.as_nanos().div_ceil(BcsConfig::default().timeslice.as_nanos());
                    format!("n={n} {:.1}", machine as f64 / slices as f64)
                })
                .collect();
            r.note(format!("BCS-MPI barrier loop, machine dispatches per slice: {}", per_slice.join(" ")));
            r.note("rank programs are stackless state machines: one OS thread per point, any n");
            vec![]
        },
    )
}

/// STORM job-launch scaling (the substrate's flagship behavior):
/// one point per (node count, network).
pub fn storm_launch_exp() -> Experiment {
    const NODES: [usize; 4] = [4, 16, 32, 64];
    let nets = || [
        qsnet::NetModel::qsnet(),
        qsnet::NetModel::myrinet(),
        qsnet::NetModel::gigabit_ethernet(),
    ];
    let mut points: Vec<PointFn> = Vec::new();
    for nodes in NODES {
        for net in nets() {
            points.push(Box::new(move || {
                let rep = storm::launch::measure_launch(net, nodes, 8 * 1024 * 1024, 2);
                PointOut::new(vec![rep.total.as_millis_f64()], vec![])
            }));
        }
    }
    Experiment {
        reports: &["storm_launch"],
        cli: "storm-launch",
        desc: "STORM job-launch time vs node count and network",
        points,
        assemble: Box::new(move |outs| {
            let mut r = Report::new(
                "STORM: job launch time (8 MB image, 2 procs/node)",
                &["QsNet", "Myrinet", "GigE"],
            );
            for (nodes, launches) in NODES.into_iter().zip(outs.chunks_exact(3)) {
                let mut cells = Vec::new();
                for (net, launch) in nets().into_iter().zip(launches) {
                    let ms = launch.nums[0];
                    if nodes == 64 && net.name == "QsNet" {
                        r.metric("qsnet_launch_64nodes_ms", ms);
                    }
                    cells.push(format!("{ms:.0}ms"));
                }
                r.row(format!("{nodes} nodes"), cells);
            }
            r.note("hardware multicast keeps QsNet launch flat in node count");
            vec![("storm_launch", r)]
        }),
    }
}

// ======================================================================
// Fabric matrix — QsNet hardware collectives vs RDMA software emulation
// ======================================================================

/// Both engines on both interconnects: the Quadrics-class fabric (hardware
/// multicast + network conditionals, Table 1 QsNet constants) against the
/// RDMA-channel fabric (InfiniBand constants; multicast and global
/// conditionals software-emulated over point-to-point RDMA, see
/// `rdmanet`). Barrier and neighbor synthetics sweep node counts; one NPB
/// kernel (CG) runs at a fixed rank count. Each row is a (BCS, Quadrics)
/// pair on one fabric, so the headline is how well BCS-MPI's primitives
/// survive losing the hardware collectives.
pub fn fabric_matrix_exp(quick: bool, wire: Wire) -> Experiment {
    let ns: &'static [usize] = if quick { &[16, 62] } else { &[16, 62, 256] };
    let g = SimDuration::millis(10);
    let iters: u64 = if quick { 10 } else { 40 };
    let cg_ranks = if quick { 8 } else { 62 };
    let cg = program(move || cg::cg_bench(if quick { cg::CgCfg::test() } else { cg::CgCfg::class_c() }));
    let mut rows = Vec::new();
    for &(kind, net) in FABRICS {
        // Each row fixes its fabric; `wire` supplies the collective algorithm.
        let specs = net_pair(Wire { fabric: kind, ..wire }, net());
        let label = kind.name();
        for (what, neighbor) in [("barrier", false), ("neighbor", true)] {
            let prog = synthetic_loop(neighbor, g, iters);
            for &n in ns {
                let metric = (n == ns[ns.len() - 1]).then(|| format!("{what}_{label}_sd_pct"));
                rows.push(pair(format!("{label} {what} n={n}"), &specs, two_per_node(n), &prog, metric));
            }
        }
        let metric = Some(format!("cg_{label}_sd_pct"));
        rows.push(pair(format!("{label} CG ({cg_ranks} procs)"), &specs, layout(cg_ranks), &cg, metric));
    }
    pair_exp(
        "fabric-matrix",
        "both engines on QsNet hardware vs RDMA-emulated collectives",
        &["fabric_matrix"],
        "Fabric matrix: BCS-MPI slowdown on hardware (QsNet) vs software-emulated (RDMA/IB) collectives"
            .into(),
        rows,
        |r, _| {
            r.note("qsnet rows: Table 1 QsNet model, hardware multicast + network conditionals");
            r.note(
                "rdma rows: Table 1 InfiniBand model, binomial-tree multicast and \
                 gather-to-root conditionals emulated in software (crates/rdmanet)",
            );
            vec![]
        },
    )
}
