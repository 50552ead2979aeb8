//! One experiment per table/figure of the paper (see DESIGN.md §5, §8).
//!
//! Every experiment is a [`Table`]: the report(s) it fills, optional shared
//! baseline runs, and [`Row`]s, each a key (its label, or what its cells
//! are formatted from) and the runs it needs. [`Table::build`] makes it an
//! [`Experiment`]: independent sweep *points* (one run each, the shared
//! runs first, then every row's in row order) and an `assemble` step that
//! hands the table's `fill` each row's key beside exactly its own outputs.
//! [`run_pooled`] — what `repro` calls — pools the points of every selected
//! experiment onto the work-stealing scheduler in [`crate::sweep`]; points
//! return plain numbers, never a host observation, and all formatting
//! happens after the sweep, so the reports (rows, notes, metrics) and CSVs
//! are byte-identical across runs and at any thread count.
//!
//! Most of the paper's evaluation (Figures 8–11, Table 2) is one program
//! on BCS-MPI and on Quadrics MPI, reported as a slowdown: tables of
//! [`pair`] rows filled by [`Table::pairs`], as are the `scale` and
//! `fabric-matrix` sweeps beyond the paper. `quick` mode shrinks the sweeps
//! for CI; full mode runs the paper-scale configurations (62 processes on
//! the 32-node "crescendo" layout).
//!
//! Every MPI job starts in a [`Program`]'s [`apps::runner::run_app`] call or
//! in the fault ablation's [`faultsim::run_with_recovery`] call, under a
//! configuration built from the registry's [`Wire`] — what `repro
//! --fabric`/`--coll` chose. It is a default: an experiment that sweeps one
//! of those axes itself (`fabric-matrix`, `ablation-reduce`) sets it per row.

use crate::sweep::{self, PointFn, PointOut, SweepStats};
use crate::{Report, measure, pct, secs};
use apps::npb::{cg, ep, ft, is, lu, mg};
use apps::runner::{EngineCfg, RunReport, RunSpec, run_app, slowdown_pct};
use apps::{sage, sweep3d, synthetic};
use bcs_mpi::BcsConfig;
use mpi_api::AsyncMpi;
use mpi_api::coll_sched::CollAlgo;
use mpi_api::datatype::ReduceOp;
use mpi_api::message::{SrcSel, TagSel};
use mpi_api::noise::NoiseConfig;
use mpi_api::runtime::JobLayout;
use quadrics_mpi::QuadricsConfig;
use simcore::SimDuration;
use std::sync::Arc;

/// A figure/table decomposed for the parallel sweep scheduler.
pub struct Experiment {
    /// The reports `assemble` emits, in order: each name is a CSV stem and
    /// the key of the report's gates in [`crate::gate`].
    pub reports: Vec<String>,
    /// Name accepted on the `repro` command line (`ablation-fault` style).
    pub cli: &'static str,
    /// One-line description for `repro --list`.
    pub desc: &'static str,
    /// Independent sweep points, each a self-contained simulation run.
    pub points: Vec<PointFn>,
    /// Folds the point outputs (in point order) into the named reports.
    /// Pure formatting — never runs simulations.
    pub assemble: Box<dyn FnOnce(Vec<PointOut>) -> Vec<(String, Report)> + Send>,
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
pub fn run_pooled(
    selected: Vec<Experiment>,
    threads: usize,
) -> (Vec<(String, Report)>, SweepStats) {
    let mut pool: Vec<PointFn> = Vec::new();
    let mut pending = Vec::new(); // (point count, assemble)
    for e in selected {
        pending.push((e.points.len(), e.assemble));
        pool.extend(e.points);
    }
    let (outs, stats) = sweep::run_points(pool, threads);
    let mut outs = outs.into_iter();
    let reports = pending
        .into_iter()
        .flat_map(|(n, assemble)| assemble(outs.by_ref().take(n).collect()))
        .collect();
    (reports, stats)
}

// ======================================================================
// The table builder
// ======================================================================

/// One row of a [`Table`]: its key — its label, or what its cells are
/// formatted from — and the runs it needs, in the order they run.
struct Row<K> {
    key: K,
    runs: Vec<PointFn>,
}

/// An experiment as a table of rows.
struct Table<K> {
    cli: &'static str,
    desc: &'static str,
    /// The reports the table fills, in emit order, each beside its name (a
    /// CSV stem and the key of its gates): title and columns, no rows yet.
    reports: Vec<(String, Report)>,
    /// Baseline runs every row reads.
    shared: Vec<PointFn>,
    rows: Vec<Row<K>>,
}

/// A table of `rows` that reads no shared runs and fills one report, named
/// after `cli` (`ablation-fault` fills `ablation_fault`).
fn table<K>(
    cli: &'static str,
    desc: &'static str,
    title: impl Into<String>,
    columns: &[&str],
    rows: Vec<Row<K>>,
) -> Table<K> {
    Table { cli, desc, reports: vec![(cli.replace('-', "_"), Report::new(title, columns))], shared: Vec::new(), rows }
}

impl<K: Send + 'static> Table<K> {
    /// The experiment this table makes: the shared runs' points, then each
    /// row's in row order. Assembling hands `fill` the reports, the shared
    /// outputs, and each row's key beside exactly its own outputs.
    fn build(
        self,
        fill: impl FnOnce(&mut [Report], &[PointOut], Vec<(K, Vec<PointOut>)>) + Send + 'static,
    ) -> Experiment {
        let Table { cli, desc, reports, shared, rows } = self;
        let (names, mut reports): (Vec<String>, Vec<Report>) = reports.into_iter().unzip();
        let n_shared = shared.len();
        let mut points = shared;
        let mut keys = Vec::new(); // (key, run count) per row
        for row in rows {
            keys.push((row.key, row.runs.len()));
            points.extend(row.runs);
        }
        Experiment {
            reports: names.clone(),
            cli,
            desc,
            points,
            assemble: Box::new(move |outs| {
                let mut outs = outs.into_iter();
                let shared: Vec<PointOut> = outs.by_ref().take(n_shared).collect();
                let rows = keys.into_iter().map(|(key, n)| (key, outs.by_ref().take(n).collect())).collect();
                fill(&mut reports, &shared, rows);
                names.into_iter().zip(reports).collect()
            }),
        }
    }
}

/// A row that formats itself into the table's one report: for the tables
/// whose rows differ in shape.
type Own = Box<dyn FnOnce(&mut Report, Vec<PointOut>) + Send>;

fn own(runs: Vec<PointFn>, fill: impl FnOnce(&mut Report, Vec<PointOut>) + Send + 'static) -> Row<Own> {
    Row { key: Box::new(fill), runs }
}

/// The `fill` of a table of [`Own`] rows.
fn fill_own(r: &mut [Report], _: &[PointOut], rows: Vec<(Own, Vec<PointOut>)>) {
    for (fill, outs) in rows {
        fill(&mut r[0], outs);
    }
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

// ======================================================================
// Programs — every MPI run — and the BCS-MPI/Quadrics MPI pair
// ======================================================================

/// A rank program behind one type: runs under a spec on a layout and
/// returns what the run measured, `words = [virtual elapsed ns, simulator
/// events]`, followed by whatever its reader took from the finished run.
type Program = Arc<dyn Fn(&RunSpec, JobLayout) -> PointOut + Send + Sync>;

/// `make` as a [`Program`]. Each run builds its own rank program, so a
/// row captures only plain configuration.
fn program<P: mpi_api::RankProgram>(make: impl Fn() -> P + Send + Sync + 'static) -> Program {
    reading(make, |_, _| {})
}

/// `make` as a [`Program`] whose runs also ship what `read` takes from the
/// finished run: what the ranks computed, or the engine's counters.
fn reading<P: mpi_api::RankProgram>(
    make: impl Fn() -> P + Send + Sync + 'static,
    read: fn(&RunReport<P::Out>, &mut PointOut),
) -> Program {
    Arc::new(move |spec, layout| {
        let out = run_app(spec, layout, make());
        let mut point = PointOut::new(vec![], vec![out.elapsed.as_nanos(), out.events]);
        read(&out, &mut point);
        point
    })
}

/// One run of `program` as a sweep point.
fn run(spec: RunSpec, layout: JobLayout, program: &Program) -> PointFn {
    let program = program.clone();
    Box::new(move || program(&spec, layout))
}

/// The virtual time an MPI run's point measured.
fn elapsed(out: &PointOut) -> SimDuration {
    SimDuration::nanos(out.words[0])
}

const PAIR_COLUMNS: &[&str] = &["BCS-MPI", "Quadrics", "slowdown"];

/// `program` on `layout` under both `specs` as a row keyed by `key`, the
/// BCS-MPI run first.
fn pair<K>(key: K, specs: &(RunSpec, RunSpec), layout: JobLayout, program: &Program) -> Row<K> {
    Row { key, runs: vec![run(specs.0.clone(), layout.clone(), program), run(specs.1.clone(), layout, program)] }
}

/// A [`Table::pairs`] row's key: its label, and the headline metric its
/// slowdown is also reported as.
type PairKey = (String, Option<String>);

/// What one pair row measured.
struct Measured {
    label: String,
    slowdown: f64,
    bcs_elapsed: SimDuration,
    bcs_events: u64,
}

impl Table<PairKey> {
    /// The experiment of a BCS-vs-Quadrics comparison: one
    /// `[BCS-MPI, Quadrics, slowdown]` row and at most one metric per pair
    /// in the first report; `finish` adds notes, aggregate metrics and any
    /// further report from the measured rows.
    fn pairs(self, finish: impl FnOnce(&mut [Report], &[Measured]) + Send + 'static) -> Experiment {
        self.build(|r, _, rows| {
            let measured: Vec<Measured> = rows
                .into_iter()
                .map(|((label, metric), runs)| {
                    let (b, q) = (elapsed(&runs[0]), elapsed(&runs[1]));
                    let slowdown = slowdown_pct(b, q);
                    r[0].row(label.clone(), vec![secs(b.as_secs_f64()), secs(q.as_secs_f64()), pct(slowdown)]);
                    if let Some(m) = metric {
                        r[0].metric(m, slowdown);
                    }
                    Measured { label, slowdown, bcs_elapsed: b, bcs_events: runs[0].words[1] }
                })
                .collect();
            finish(r, &measured);
        })
    }
}

// ======================================================================
// Table 1 — BCS core primitive performance per network model
// ======================================================================

/// One row per model, one point per node count: both the C&W latency and
/// the X&S aggregate bandwidth at that count.
pub fn table1_exp() -> Experiment {
    let paper = [
        ("Gigabit Ethernet", "46·log n us", "n/a"),
        ("Myrinet", "20·log n us", "~15n MB/s"),
        ("InfiniBand", "20·log n us", "n/a"),
        ("QsNet", "< 10 us", "> 150n MB/s"),
        ("BlueGene/L", "< 2 us", "700n MB/s"),
    ];
    let rows = qsnet::NetModel::table1_models().into_iter().zip(paper).map(|(model, (_, pcw, pxs))| Row {
        key: (model.name, pcw, pxs),
        runs: vec![32usize, 1024]
            .into_iter()
            .map(|n| -> PointFn { Box::new(move || PointOut::new(measure::cw_xs(model, n).to_vec(), vec![])) })
            .collect(),
    });
    table(
        "table1",
        "BCS core primitive latency/bandwidth per interconnect model (Table 1)",
        "Table 1: BCS core mechanisms vs interconnect (measured on the simulated fabrics)",
        &["C&W n=32", "C&W n=1024", "X&S n=32", "X&S n=1024", "paper C&W", "paper X&S"],
        rows.collect(),
    )
    .build(|r, _, rows| {
        for ((name, pcw, pxs), cells) in rows {
            let cw = cells.iter().map(|o| format!("{:.1}us", o.nums[0]));
            let xs = cells.iter().map(|o| format!("{:.0}MB/s", o.nums[1]));
            r[0].row(name, cw.chain(xs).chain([pcw.to_string(), pxs.to_string()]).collect());
        }
        r[0].note("X&S aggregate bandwidth = n x bytes / completion time of a 1 MB multicast");
    })
}

// ======================================================================
// Figure 2 — blocking vs non-blocking send/receive timing
// ======================================================================

/// Two rows: the blocking-delay histogram run, whose mean and 95th
/// percentile make two report rows, and the overlap run.
pub fn fig2_exp(wire: Wire) -> Experiment {
    let two = JobLayout::new(2, 1, 2);
    // A 2-rank blocking workload; its runs ship the engine's blocking-delay
    // histogram's mean and 95th percentile in µs.
    let blocking = reading(
        || {
            |mut mpi: AsyncMpi| async move {
                for i in 0..60u64 {
                    mpi.compute(SimDuration::micros(113 + (i * 197) % 463)).await;
                    if mpi.rank() == 0 {
                        mpi.send(1, 1, &[0u8; 256]).await;
                    } else {
                        mpi.recv_from(0, 1).await;
                    }
                }
            }
        },
        |out, point| {
            let h = &out.engine.bcs().stats.blocking_delay;
            point.nums = vec![h.mean().as_micros_f64(), h.quantile(0.95).as_micros_f64()];
        },
    );
    let overlap = reading(
        || {
            |mut mpi: AsyncMpi| async move {
                let peer = 1 - mpi.rank();
                let t0 = mpi.now().await;
                for _ in 0..20 {
                    let s = mpi.isend(peer, 1, &[0u8; 4096]).await;
                    let q = mpi.irecv(SrcSel::Rank(peer), TagSel::Tag(1)).await;
                    mpi.compute(SimDuration::millis(5)).await;
                    mpi.waitall(&[s, q]).await;
                }
                mpi.now().await.since(t0).as_millis_f64()
            }
        },
        |out, point| point.nums.push(out.results[0]),
    );
    let rows = vec![
        own(vec![run(wire.bcs(), two.clone(), &blocking)], |r, outs| {
            let [mean, p95] = [0, 1].map(|i| outs[0].nums[i] / 500.0);
            r.metric("blocking_mean_slices", mean);
            r.row("blocking delay (mean)", vec![format!("{mean:.2} slices"), "1.5 slices".into()]);
            r.row("blocking delay (p95)", vec![format!("{p95:.2} slices"), "~2 slices".into()]);
        }),
        own(vec![run(wire.bcs(), two, &overlap)], |r, outs| {
            let overhead = (outs[0].nums[0] / 100.0 - 1.0) * 100.0;
            r.metric("nonblocking_overhead_pct", overhead);
            r.row(
                "non-blocking overhead (5ms steps)",
                vec![format!("{overhead:+.2}%"), "~0% (full overlap)".into()],
            );
        }),
    ];
    table(
        "fig2",
        "blocking vs non-blocking send/receive timing (Figure 2)",
        "Figure 2: blocking vs non-blocking primitive timing under BCS-MPI",
        &["measured", "paper"],
        rows,
    )
    .build(fill_own)
}

// ======================================================================
// Figure 8 — synthetic benchmarks
// ======================================================================

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
/// fixed process count, or over process counts at 10 ms. `(name,
/// description, the workload as the title names it, neighbour exchange,
/// the process counts swept at paper scale or `None` to sweep granularity,
/// note)`.
type Fig8Panel = (&'static str, &'static str, &'static str, bool, Option<&'static [usize]>, Option<&'static str>);

static FIG8: [Fig8Panel; 4] = [
    ("fig8a", "computation+barrier slowdown vs granularity (Figure 8a)", "computation+barrier", false, None,
        Some("paper: slowdown < 7.5% at 10 ms granularity on the full machine")),
    ("fig8b", "computation+barrier slowdown vs process count (Figure 8b)", "computation+barrier", false,
        Some(&[4, 8, 16, 32, 48, 62]), Some("paper: almost insensitive to the number of processors")),
    ("fig8c", "computation+nearest-neighbour slowdown vs granularity (Figure 8c)",
        "computation+nearest-neighbour (4 neighbours, 4 KB)", true, None,
        Some("paper: below 8% for granularities larger than 10 ms")),
    ("fig8d", "computation+nearest-neighbour slowdown vs process count (Figure 8d)", "computation+nearest-neighbour",
        true, Some(&[6, 8, 16, 32, 48, 62]), None),
];

fn fig8_exp(&(name, desc, what, neighbor, procs, note): &'static Fig8Panel, quick: bool, wire: Wire) -> Experiment {
    let specs = (wire.bcs(), wire.quadrics());
    let fig = format!("Figure 8({})", &name[4..]);
    let (title, rows) = match procs {
        None => {
            let ranks = if quick { 16 } else { 62 };
            let gs: &[u64] = if quick { &[2, 10] } else { &[1, 2, 5, 10, 20, 50] };
            let rows = gs.iter().map(|&g_ms| {
                let g = SimDuration::millis(g_ms);
                let prog = synthetic_loop(neighbor, g, (1_500 / g_ms).clamp(10, 300));
                let metric = (g_ms == 10).then(|| "slowdown_10ms_pct".into());
                pair((format!("{g_ms} ms"), metric), &specs, JobLayout::crescendo(ranks), &prog)
            });
            (format!("{fig}: {what}, {ranks} processes — slowdown vs granularity"), rows.collect())
        }
        Some(procs) => {
            let ps: &[usize] = if quick { &[8, 16] } else { procs };
            let prog = synthetic_loop(neighbor, SimDuration::millis(10), 100);
            let rows = ps.iter().map(|&p| pair((format!("{p} procs"), None), &specs, JobLayout::crescendo(p), &prog));
            (format!("{fig}: {what}, 10 ms granularity — slowdown vs processes"), rows.collect())
        }
    };
    table(name, desc, title, PAIR_COLUMNS, rows).pairs(move |r, _| if let Some(note) = note { r[0].note(note) })
}

// ======================================================================
// Figures 9–11 + Table 2 — NPB, SAGE and SWEEP3D
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
    let rows = apps.iter().map(|(app, prog)| pair((app.to_string(), None), &specs, JobLayout::crescendo(ranks), prog));
    let mut t = table(
        "fig9",
        "NPB + SAGE runtimes and Table 2 application slowdowns",
        format!("Figure 9: NPB + SAGE runtimes, {ranks} processes"),
        PAIR_COLUMNS,
        rows.collect(),
    );
    t.reports[0].0 = "fig9_runtimes".into();
    let table2 = Report::new("Table 2: application slowdown (BCS-MPI vs Quadrics MPI)", &["measured", "paper"]);
    t.reports.push(("table2".into(), table2));
    t.pairs(move |r, measured| {
        r[0].note(if quick {
            "BCS-MPI runs skip the one-time runtime initialization, which is longer than \
             these CI-sized runs (see apps::calib)"
        } else {
            "BCS-MPI runs include the one-time runtime initialization (see apps::calib)"
        });
        let table2 = &mut r[1];
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
    })
}

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
    let rows = ps.iter().map(|&p| pair((format!("{p} procs"), None), &specs, JobLayout::crescendo(p), &sage)).collect();
    let title = "Figure 10: SAGE runtime vs processes";
    table("fig10", "SAGE runtime vs process count (Figure 10)", title, PAIR_COLUMNS, rows).pairs(
        |r, measured| {
            let max_abs = measured.iter().fold(0.0f64, |max, m| m.slowdown.abs().max(max));
            r[0].metric("max_abs_slowdown_pct", max_abs);
            r[0].note("paper: -0.42% (parity; BCS-MPI marginally faster)");
        },
    )
}

pub fn fig11_exp(quick: bool, wire: Wire, variant: sweep3d::SweepVariant) -> Experiment {
    let ps: &[usize] = if quick { &[4, 8] } else { &[4, 8, 16, 32, 48, 62] };
    let cfg = if quick { sweep3d::SweepCfg::test(variant) } else { sweep3d::SweepCfg::paper(variant) };
    let sweep = program(move || sweep3d::sweep3d_bench(cfg.clone()));
    let (name, title, note, desc) = match variant {
        sweep3d::SweepVariant::Blocking => (
            "fig11a",
            "Figure 11(a): SWEEP3D with blocking send/receive — runtime vs processes",
            "paper: ~30% slower in all configurations",
            "SWEEP3D with blocking send/receive vs process count (Figure 11a)",
        ),
        sweep3d::SweepVariant::NonBlocking => (
            "fig11b",
            "Figure 11(b): SWEEP3D transformed to Isend/Irecv+Waitall — runtime vs processes",
            "paper: -2.23% (BCS-MPI slightly outperforms)",
            "SWEEP3D transformed to Isend/Irecv+Waitall vs process count (Figure 11b)",
        ),
    };
    let specs = (wire.bcs(), wire.quadrics());
    let rows = ps.iter().map(|&p| pair((format!("{p} procs"), None), &specs, JobLayout::crescendo(p), &sweep));
    table(name, desc, title, PAIR_COLUMNS, rows.collect()).pairs(move |r, measured| {
        let max_sd = measured.iter().fold(f64::NEG_INFINITY, |max, m| max.max(m.slowdown));
        r[0].metric("max_slowdown_pct", max_sd);
        r[0].note(note);
    })
}

// ======================================================================
// Ablations
// ======================================================================

/// Time-slice length ablation: the 500 µs default against alternatives.
/// The shared run is the Quadrics baseline; one row per slice length.
pub fn ablation_slice_exp(quick: bool, wire: Wire) -> Experiment {
    let ranks = if quick { 8 } else { 32 };
    let slices_us: &[u64] = if quick { &[250, 500] } else { &[100, 250, 500, 1000, 2000] };
    let cfg = sweep3d::SweepCfg {
        steps: if quick { 20 } else { 100 },
        step_compute: SimDuration::micros(3_500),
        face_elems: 128,
        variant: sweep3d::SweepVariant::Blocking,
    };
    let sweep = program(move || sweep3d::sweep3d_bench(cfg.clone()));
    let rows = slices_us.iter().map(|&ts| {
        let bcs = BcsConfig { timeslice: SimDuration::micros(ts), ..wire.bcs_cfg() };
        Row { key: ts, runs: vec![run(bcs.into(), JobLayout::crescendo(ranks), &sweep)] }
    });
    Table {
        shared: vec![run(wire.quadrics(), JobLayout::crescendo(ranks), &sweep)],
        ..table(
            "ablation-slice",
            "time-slice length ablation on fine-grained SWEEP3D",
            "Ablation: time-slice length (SWEEP3D blocking, fine grain)",
            &["BCS-MPI", "slowdown vs Quadrics"],
            rows.collect(),
        )
    }
    .build(|r, quadrics, rows| {
        let q = elapsed(&quadrics[0]);
        for (ts, outs) in rows {
            let b = elapsed(&outs[0]);
            let sd = slowdown_pct(b, q);
            if ts == 500 {
                r[0].metric("slowdown_500us_pct", sd);
            }
            r[0].row(format!("{ts} us slice"), vec![secs(b.as_secs_f64()), pct(sd)]);
        }
        r[0].note("shorter slices cut blocking latency but raise strobe overhead");
    })
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
    let small_ns: &[usize] = if quick { &[8] } else { &[8, 64, 512] };
    let elem_counts: &[usize] = if quick { &[8, 512] } else { &[8, 512, 4096] };
    // Quick mode halves the large node count: the emulated-multicast relay
    // row costs O(n) simulator events per broadcast, and n = 4096 points
    // would dominate the pooled quick sweep. The optimal-vs-relay speedup
    // gate holds at either size.
    let large_n: usize = if quick { 2048 } else { 4096 };
    // One row per cell, one run per algorithm; the rdma large-n row's first
    // and last columns are the gated pair. Large-n points are what the
    // sweep costs the host: quick mode runs one iteration of them (per-op
    // cost is slice-quantized, so fewer iterations do not move the metric's
    // scale).
    let cell = |engine: &str, spec: &RunSpec, n: usize, elems: usize| {
        let iters: u64 = if n >= 1024 { if quick { 1 } else { 4 } } else if quick { 10 } else { 20 };
        let allreduce = reading(
            move || {
                move |mut mpi: AsyncMpi| async move {
                    let data = vec![1.0f64; elems];
                    let t0 = mpi.now().await;
                    for _ in 0..iters {
                        mpi.allreduce_f64(ReduceOp::Sum, &data).await;
                    }
                    mpi.now().await.since(t0).as_micros_f64() / iters as f64
                }
            },
            |out, point| point.nums.push(out.results[0]),
        );
        let runs = CollAlgo::ALL.map(|algo| run(spec.clone().with_coll_algo(algo), two_per_node(n), &allreduce));
        let gated = spec.fabric() == qsnet::FabricKind::Rdma && n == large_n;
        Row { key: (format!("{engine}/{} n={n} {elems}f64", spec.fabric().name()), gated), runs: runs.into() }
    };
    // Engines × fabrics × n × elems, plus BCS-only large-n rows (the
    // Quadrics baseline's collectives are analytic — its large-n behavior
    // is already pinned by the small rows). Every cell fixes both wire axes
    // itself, so `wire` never shows in this table.
    let mut rows = Vec::new();
    for engine in ["bcs", "quadrics"] {
        for &(kind, net) in FABRICS {
            let (bcs, quadrics) = net_pair(Wire { fabric: kind, ..wire }, net());
            let spec = if engine == "bcs" { bcs } else { quadrics };
            for &n in small_ns {
                for &elems in elem_counts {
                    rows.push(cell(engine, &spec, n, elems));
                }
            }
        }
    }
    for &(kind, net) in FABRICS {
        rows.push(cell("bcs", &net_pair(Wire { fabric: kind, ..wire }, net()).0, large_n, 512));
    }
    table(
        "ablation-reduce",
        "collective-algorithm bake-off: hw multicast vs binomial vs optimal schedule",
        "Bake-off: allreduce us/op under hw-multicast vs binomial vs optimal schedule",
        &["hw-multicast", "binomial", "optimal"],
        rows,
    )
    .build(|r, _, rows| {
        let r = &mut r[0];
        for ((label, gated), us) in rows {
            r.row(label, us.iter().map(|o| format!("{:.1}us", o.nums[0])).collect());
            if gated {
                r.metric("rdma_mcast_large_ns", us[0].nums[0] * 1000.0);
                r.metric("rdma_optimal_large_ns", us[2].nums[0] * 1000.0);
            }
        }
        r.note("columns are wire-schedule algorithms; results are bit-identical across all three (coll_equivalence)");
        r.note("rdmanet has no hardware multicast: the hw-multicast column there is the software-emulated relay");
        r.note("layout: 2 CPUs per node, n/2 compute nodes; the large-n rows are BCS-MPI only");
    })
}

/// OS-noise ablation (§4.5, reference \[20\]): one row per engine, each
/// run clean and with the noise injector.
pub fn ablation_noise_exp(quick: bool, wire: Wire) -> Experiment {
    let ranks = if quick { 8 } else { 62 };
    let barrier = synthetic_loop(false, SimDuration::millis(1), if quick { 50 } else { 200 });
    let noise = Some(NoiseConfig { mean_interval: SimDuration::millis(10), hole: SimDuration::micros(800), seed: 99 });
    let engines: [(&str, RunSpec, RunSpec); 2] = [
        ("Quadrics", wire.quadrics(), QuadricsConfig { noise: noise.clone(), ..wire.quadrics_cfg() }.into()),
        ("BCS-MPI", wire.bcs(), BcsConfig { noise, ..wire.bcs_cfg() }.into()),
    ];
    let rows = engines.map(|(engine, clean, noisy)| Row {
        key: engine,
        runs: [clean, noisy].map(|spec| run(spec, JobLayout::crescendo(ranks), &barrier)).into(),
    });
    table(
        "ablation-noise",
        "OS-noise injection on a fine-grained barrier loop",
        "Ablation: OS noise on a fine-grained (1 ms) barrier loop",
        &["runtime", "vs clean"],
        rows.into(),
    )
    .build(|r, _, rows| {
        for (engine, outs) in rows {
            let [clean, noisy] = [0, 1].map(|i| elapsed(&outs[i]).as_secs_f64());
            r[0].row(format!("{engine} clean"), vec![secs(clean), "-".into()]);
            r[0].row(format!("{engine} + noise"), vec![secs(noisy), pct((noisy / clean - 1.0) * 100.0)]);
        }
        r[0].note("slice slack absorbs holes that hit while a rank would be waiting anyway");
    })
}

/// Chunking ablation: one (BCS-MPI, Quadrics) pair per message size.
pub fn ablation_chunk_exp(quick: bool, wire: Wire) -> Experiment {
    let sizes: &[usize] = if quick {
        &[16 * 1024, 1024 * 1024]
    } else {
        &[4 * 1024, 64 * 1024, 256 * 1024, 1024 * 1024, 4 * 1024 * 1024]
    };
    let specs = (wire.bcs(), wire.quadrics());
    let rows = sizes.iter().map(|&sz| {
        // Four `sz`-byte messages from rank 0 to rank 1; the receiver's MB/s.
        let stream = reading(
            move || {
                move |mut mpi: AsyncMpi| async move {
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
                }
            },
            |out, point| point.nums.push(out.results[1]),
        );
        pair(sz, &specs, JobLayout::new(2, 1, 2), &stream)
    });
    let cfg = wire.bcs_cfg();
    let (budget, link_mb_s) = (cfg.p2p_budget(), cfg.net.link_bw / 1e6);
    table(
        "ablation-chunk",
        "effective bandwidth vs message size (chunking over slices)",
        "Ablation: effective bandwidth vs message size (chunking over slices)",
        &["BCS-MPI", "Quadrics", "BCS/link", "notes"],
        rows.collect(),
    )
    .build(move |r, _, rows| {
        for (sz, runs) in rows {
            let (b, q) = (runs[0].nums[0], runs[1].nums[0]);
            r[0].row(
                format!("{} KiB", sz / 1024),
                vec![
                    format!("{b:.0} MB/s"),
                    format!("{q:.0} MB/s"),
                    format!("{:.0}%", b / link_mb_s * 100.0),
                    if sz as u64 > budget { "chunked".into() } else { "single slice".into() },
                ],
            );
        }
        r[0].note("per-slice budget = 0.6 x slice x link bandwidth (~96 KiB at 500 us)");
    })
}

/// Multiprogramming ablation (§5.4 option 1): gang-schedule two jobs —
/// first with STORM's analytic scheduler, then for real inside the BCS-MPI
/// engine (two communicator-scoped jobs sharing every node's CPUs).
///
/// Two rows: the analytic solo/duo schedules, and the engine runs on
/// dedicated CPUs and gang-shared.
pub fn ablation_multijob_exp(wire: Wire) -> Experiment {
    // Two jobs of blocking ring exchanges, gang-scheduled on shared nodes.
    let ring = move |mut mpi: AsyncMpi| async move {
        let job = ((mpi.rank() % 4) / 2) as i64;
        let comm = mpi.comm_split(None, job, 0).await.expect("job comm");
        let (n, my) = (comm.size(), comm.rank);
        let right = comm.world_rank((my + 1) % n);
        let left = comm.world_rank((my + n - 1) % n);
        for step in 0..60u64 {
            mpi.compute(SimDuration::micros(1_300)).await;
            let tag = (step % 512) as i32;
            mpi.sendrecv(right, tag, &[my as u8; 64], SrcSel::Rank(left), TagSel::Tag(tag)).await;
        }
    };
    let ring = reading(move || ring, |out, point| point.words.push(out.engine.bcs().gang_switches()));
    let lay = || JobLayout::new(4, 4, 16);
    let jobs = (0..2).map(|job| (0..16).filter(|rank| (rank % 4) / 2 == job).collect()).collect();
    let gang = BcsConfig {
        gang: Some(bcs_mpi::GangConfig { jobs, switch_cost: SimDuration::micros(25) }),
        ..wire.bcs_cfg()
    };
    let analytic: PointFn = Box::new(|| {
        use storm::gang::{JobProfile, gang_schedule};
        let job = JobProfile {
            name: "sweep3d-like",
            compute: SimDuration::micros(3_500),
            blocked: SimDuration::micros(1_100),
            steps: 2_000,
        };
        let [solo, duo] = [1, 2].map(|jobs| {
            gang_schedule(&vec![job.clone(); jobs], SimDuration::micros(500), SimDuration::micros(25))
        });
        PointOut::new(
            vec![solo.total.as_secs_f64(), solo.utilization, duo.total.as_secs_f64(), duo.utilization],
            vec![solo.switches, duo.switches],
        )
    });
    let rows = vec![
        own(vec![analytic], |r, outs| {
            let o = &outs[0];
            let [solo_total, solo_util, duo_total, duo_util] = o.nums[..] else { panic!("analytic point shape") };
            r.row("1 job", vec![secs(solo_total), format!("{:.0}%", solo_util * 100.0), o.words[0].to_string()]);
            r.row("2 jobs (gang)", vec![secs(duo_total), format!("{:.0}%", duo_util * 100.0), o.words[1].to_string()]);
            let serial = solo_total * 2.0;
            r.note(format!(
                "2 jobs finish in {duo_total:.2}s vs {serial:.2}s run back-to-back: the second job fills the blocking holes"
            ));
        }),
        own(vec![run(wire.bcs(), lay(), &ring), run(gang.into(), lay(), &ring)], |r, outs| {
            let [ded, g] = [0, 1].map(|i| elapsed(&outs[i]).as_secs_f64());
            r.row("BCS engine: dedicated CPUs", vec![secs(ded), "100% of 2x hardware".into(), "0".into()]);
            r.row(
                "BCS engine: 2 jobs gang-shared",
                vec![secs(g), format!("{:.0}% of serial", g / (2.0 * ded) * 100.0), outs[1].words[2].to_string()],
            );
            let serial = 2.0 * ded;
            r.note(format!(
                "real engine: two jobs on half the CPUs finish in {g:.2}s vs {serial:.2}s serially — in-flight communication keeps progressing on the NIC while a job is descheduled"
            ));
        }),
    ];
    table(
        "ablation-multijob",
        "gang-scheduling a second job into blocked slices (STORM)",
        "Ablation: gang-scheduling a second job into blocked slices (STORM, §5.4)",
        &["makespan", "utilization", "switches"],
        rows,
    )
    .build(fill_own)
}

/// Fault ablation (the §6 transparent-fault-tolerance claim, quantified):
/// checkpoint interval × MTBF. Reports the pure checkpointing overhead
/// (fault-free run with images + serialization cost vs the plain run), and
/// under injected crashes the recovery cost, restart count and
/// crash-to-declaration latency. Every faulted run is verified
/// bit-identical to the fault-free results before being reported.
///
/// The shared run is the fault-free reference; every row is one recovery
/// run, clean or faulted. Runs ship their per-rank checksums so the
/// faulted rows are verified against the reference without rerunning
/// anything.
pub fn ablation_fault_exp(quick: bool, wire: Wire) -> Experiment {
    use faultsim::{FaultPlan, FaultProfile, RecoveryCfg, run_with_recovery};

    let (nodes, cpus, iters) = if quick { (4usize, 1usize, 5u64) } else { (8, 2, 10) };
    let ranks = nodes * cpus;
    let lay = move || JobLayout::new(nodes, cpus, ranks);
    let intervals: &[u64] = if quick { &[2, 8] } else { &[2, 8, 32] };
    let mtbfs: &[f64] = if quick { &[6.0] } else { &[12.0, 50.0] };
    // Checkpoint every `k` slices, each image costing `cost_us` to serialize.
    let recovery = move |k: u64, cost_us: u64| {
        let mut rc = RecoveryCfg::new(wire.bcs_cfg(), k);
        rc.bcs.checkpoint_cost = SimDuration::micros(cost_us);
        rc
    };

    // Deterministic ring workload (specific receives, mixed chunked/small
    // payloads, periodic NIC allreduce): the checksum is timing-invariant,
    // so it detects any state lost or duplicated across a recovery.
    let ring = move |mut mpi: AsyncMpi| async move {
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
                for v in mpi.allreduce_f64(ReduceOp::Sum, &[me as f64, (acc as u32) as f64]).await {
                    acc ^= v.to_bits();
                }
            }
        }
        acc
    };

    // The reference: the same checkpointing engine with images that cost
    // nothing, so the interval does not matter; `words[2..]` = checksums.
    let rc = recovery(intervals[0], 0);
    let reference = RunSpec { engine: EngineCfg::Bcs(rc.bcs), horizon: rc.horizon };
    let checksums = reading(move || ring, |out, point| point.words.extend(&out.results));
    // One recovery run, checkpointing every `k` slices at `cost_us` each,
    // under crashes at MTBF `mtbf` slices when given: words = [elapsed ns,
    // restarts, detections with a latency, payload bytes the last image's
    // log retains by value, p2p bytes, checksums..], nums = [rework ms,
    // mean and max detect latency ms].
    let recover = move |k: u64, cost_us: u64, mtbf: Option<f64>| -> Vec<PointFn> {
        vec![Box::new(move || {
            let rc = recovery(k, cost_us);
            let plan = mtbf.map_or_else(FaultPlan::none, |mtbf| {
                let seed = 0xBC5 + k * 31 + mtbf as u64;
                FaultPlan::generate(seed, &rc.bcs, nodes, iters * 4, &FaultProfile::crashes(mtbf))
            });
            let out = run_with_recovery(&rc, lay(), &plan, ring);
            assert!(out.completed, "recovery run (interval {k}, {cost_us} us, MTBF {mtbf:?}) failed: {:?}", out.abort);
            let lats: Vec<f64> = out.detections.iter().filter_map(|d| d.latency()).map(|l| l.as_millis_f64()).collect();
            let mean_lat = if lats.is_empty() { 0.0 } else { lats.iter().sum::<f64>() / lats.len() as f64 };
            let max_lat = lats.iter().fold(0.0f64, |a, &b| a.max(b));
            let rework_ms: f64 = out.detections.iter().filter_map(|d| d.rework()).map(|w| w.as_millis_f64()).sum();
            let logged = out.engine.images.last().map_or(0, |image| image.rt.logged_payload_bytes);
            let (restarts, detected, moved) = (out.restarts as u64, lats.len() as u64, out.engine.stats.p2p_bytes);
            let mut words = vec![out.elapsed.as_nanos(), restarts, detected, logged, moved];
            words.extend(out.results.iter().map(|r| r.expect("a completed run returns every result")));
            PointOut::new(vec![rework_ms, mean_lat, max_lat], words)
        })]
    };
    // (label, headline metric, faulted) per row.
    let mut rows: Vec<Row<(String, Option<String>, bool)>> = Vec::new();
    for &k in intervals {
        let metric = Some(format!("ckpt_overhead_every{k}_pct"));
        rows.push(Row { key: (format!("every {k} slices, no faults"), metric, false), runs: recover(k, 50, None) });
        for &mtbf in mtbfs {
            let label = format!("every {k} slices, MTBF {mtbf} slices");
            rows.push(Row { key: (label, None, true), runs: recover(k, 50, Some(mtbf)) });
        }
    }
    // Serialization-cost cliff: a checkpoint stall that exceeds the slice
    // slack pushes application work into extra slices.
    for cost_us in [50, 200, 400] {
        let label = format!("every 2 slices, {cost_us} us serialization, no faults");
        rows.push(Row { key: (label, None, false), runs: recover(2, cost_us, None) });
    }

    Table {
        shared: vec![run(reference, lay(), &checksums)],
        ..table(
            "ablation-fault",
            "checkpoint interval x MTBF fault-tolerance ablation",
            format!("Ablation: fault tolerance — checkpoint interval x MTBF ({ranks} processes)"),
            &["elapsed", "rework", "restarts", "detect latency (mean)"],
            rows,
        )
    }
    .build(|r, reference, rows| {
        let r = &mut r[0];
        let (base, base_ms) = (&reference[0], elapsed(&reference[0]).as_millis_f64());
        r.row("no checkpoints, no faults", vec![secs(elapsed(base).as_secs_f64()), "-".into(), "0".into(), "-".into()]);
        let mut all_identical = true;
        let mut max_latency_ms = 0.0f64;
        let mut log_bytes = None; // (retained by value, moved point to point) of the first clean row
        for ((label, metric, faulted), outs) in rows {
            let o = &outs[0];
            let [rework_ms, mean_lat, max_lat] = o.nums[..] else { panic!("recovery point shape") };
            // Slices start on a fixed global grid, so serialization that
            // fits in slice slack costs nothing; on a clean row, spill
            // shows up as whole slices.
            let rework = if faulted { rework_ms } else { elapsed(o).as_millis_f64() - base_ms };
            if let Some(m) = metric {
                r.metric(m, rework / base_ms * 100.0);
            }
            if faulted {
                all_identical &= o.words[5..] == base.words[2..];
                max_latency_ms = max_latency_ms.max(max_lat);
            } else {
                log_bytes.get_or_insert((o.words[3], o.words[4]));
            }
            r.row(
                label,
                vec![
                    secs(elapsed(o).as_secs_f64()),
                    format!("{rework:.2}ms ({})", pct(rework / base_ms * 100.0)),
                    o.words[1].to_string(),
                    if o.words[2] == 0 { "-".into() } else { format!("{mean_lat:.2}ms") },
                ],
            );
        }
        r.metric("recovered_bit_identical", if all_identical { 1.0 } else { 0.0 });
        r.metric("max_detect_latency_ms", max_latency_ms);
        r.note("baseline = same workload, no checkpoint images, no serialization cost");
        r.note("every faulted row verified bit-identical to the fault-free results");
        r.note("rework = virtual time rolled back and replayed (faulted rows) or grid spill (clean rows)");
        r.note("detect latency = crash instant to heartbeat declaration (2 ms strobe period)");
        let (logged, moved) = log_bytes.expect("a clean row");
        r.note(format!(
            "replay log retains {logged} B of payloads by value (collective results); \
             the {moved} B moved point to point are logged by reference to their send"
        ));
    })
}

/// Schedule-compilation ablation (DESIGN.md §13): the particle stress
/// workload swept over pattern stability × message size × node count, each
/// cell run three ways — baseline (no compilation, no coalescing),
/// compiled (schedule compilation only; required to be timing-transparent),
/// and compiled+coalesced. A last row runs one slice of the MSM+P2P
/// machinery in isolation (indexed matching + per-message DMA vs digest
/// validation + pair replay + gathered DMA) and counts the DMA gets each
/// issues, which feed the `gate::check_speedup` ≥5x gate through report
/// metrics and never reach CSV rows.
pub fn ablation_schedule_exp(quick: bool, wire: Wire) -> Experiment {
    let ns: &[usize] = if quick { &[4, 16] } else { &[16, 64, 256] };
    let sizes: &[usize] = if quick { &[32, 128] } else { &[32, 128, 1024] };
    let iters: u64 = 6;
    // Per-neighbour message count scaled so one iteration's traffic stays
    // inside the default per-slice P2P budget (~96 KiB/node at 500 us;
    // compilation needs every message to complete unchunked): a source
    // node emits 2 CPUs x 4 neighbours x mpp messages of msg_bytes.
    let mpp = move |msg_bytes: usize| -> usize {
        let per_node: usize = if quick { 12 * 1024 } else { 72 * 1024 };
        (per_node / (2 * 4 * msg_bytes)).max(1)
    };
    // (stable, message size, nodes) per row, run three ways, each run
    // shipping `[compiled, replays, DEM blocks, gathers]` after the rest.
    let mut rows: Vec<Row<Option<(bool, usize, usize)>>> = Vec::new();
    for stable in [true, false] {
        for &sz in sizes {
            for &n in ns {
                let cfg = synthetic::ParticleStressCfg {
                    granularity: SimDuration::micros(400),
                    iters,
                    neighbors: 4,
                    msgs_per_peer: mpp(sz),
                    msg_bytes: sz,
                    stable,
                };
                let stress = reading(
                    move || synthetic::particle_stress(cfg.clone()),
                    |out, point| {
                        let (s, st) = (out.engine.bcs().sched_stats(), &out.engine.bcs().stats);
                        point.words.extend([s.compiled, s.replays, st.dem_blocks, st.p2p_gathers]);
                    },
                );
                let runs = [(false, false), (true, false), (true, true)].map(|(sched_compile, coalesce)| {
                    let spec = BcsConfig { sched_compile, coalesce, ..wire.bcs_cfg() }.into();
                    run(spec, JobLayout::new(n, 2, 2 * n), &stress)
                });
                rows.push(Row { key: Some((stable, sz, n)), runs: runs.into() });
            }
        }
    }
    // The machinery pair: the gets each variant issues feed the >=5x gate.
    let msgs = if quick { 65_536usize } else { 262_144 };
    let machinery = [false, true].map(|compiled| -> PointFn {
        Box::new(move || PointOut::new(vec![], vec![measure::machinery_gets(msgs, compiled)]))
    });
    rows.push(Row { key: None, runs: machinery.into() });
    table(
        "ablation-schedule",
        "persistent schedule compilation + coalescing on the particle stress workload",
        format!("Ablation: persistent communication schedules + coalescing (particle stress, {iters} iterations)"),
        &["baseline", "compiled", "compiled+coalesced", "replays", "gathers"],
        rows,
    )
    .build(move |r, _, rows| {
        let r = &mut r[0];
        let mut delta_ns = 0u64;
        let mut behavior_ok = true;
        let mut stable_replayed = 0u32;
        let mut gets = Vec::new();
        for (cell, runs) in rows {
            let Some((stable, sz, n)) = cell else {
                gets = runs.iter().map(|o| o.words[0]).collect();
                continue;
            };
            let (base, comp, coal) = (&runs[0], &runs[1], &runs[2]);
            // Compilation must not move virtual time at all.
            delta_ns += base.words[0].abs_diff(comp.words[0]);
            let replays = comp.words[3];
            // A perturbed pattern must never replay. A stable one compiles
            // and replays when an iteration meets the slices the same way
            // every time; how many cells do is pinned per mode (see
            // EXPERIMENTS.md: at paper scale the 128 B cells overrun the
            // slice in DEM and alternate between two splits).
            if stable {
                stable_replayed += u32::from(comp.words[2] > 0 && replays > 0);
            } else {
                behavior_ok &= replays == 0;
            }
            behavior_ok &= coal.words[5] > 0; // gathers engaged
            let ms = |o: &PointOut| format!("{:.2}ms", elapsed(o).as_millis_f64());
            r.row(
                format!("{} {sz}B x{} n={n}", if stable { "stable" } else { "perturbed" }, mpp(sz)),
                vec![ms(base), ms(comp), ms(coal), replays.to_string(), coal.words[5].to_string()],
            );
        }
        r.metric("replay_elapsed_delta_ns", delta_ns as f64);
        r.metric("pattern_behavior_ok", if behavior_ok { 1.0 } else { 0.0 });
        r.metric("stable_cells_replayed", stable_replayed as f64);
        r.metric("stress_baseline_gets", gets[0] as f64);
        r.metric("stress_compiled_gets", gets[1] as f64);
        r.note("compiled column must equal baseline exactly: replay is bit-transparent");
        r.note(format!(
            "speedup gate compares the DMA gets of one {msgs}-message matching slice \
             of pure MSM+P2P machinery: {} indexed vs {} compiled (see \
             gate::check_speedups); what the two paths cost the host is perf/'s \
             core.probe_ns_per_match vs core.probe_ns_per_replay_msg",
            gets[0], gets[1],
        ));
    })
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
    let ns: &[usize] = if quick { &[64, 1024, 4096] } else { &[62, 256, 1024, 4096, 16384, 65536] };
    let g = SimDuration::millis(10);
    // Iteration counts taper with n to keep the sweep inside the CI
    // wall-clock budget; slowdown is per-iteration, so short loops measure
    // the same quantity.
    let base: u64 = if quick { 10 } else { 40 };
    let iters = move |n: usize| match n {
        16384.. => (base / 20).max(1),
        4096.. => base / 5,
        _ => base,
    };
    let specs = net_pair(wire, qsnet::NetModel::bluegene_l());
    let mut rows = Vec::new();
    for (what, neighbor) in [("barrier", false), ("neighbor", true)] {
        for &n in ns {
            let prog = synthetic_loop(neighbor, g, iters(n));
            let metric = (n == 4096).then(|| format!("{what}_n4096_slowdown_pct"));
            rows.push(pair((format!("{what} n={n}"), metric), &specs, two_per_node(n), &prog));
        }
    }
    table(
        "scale",
        "BlueGene/L synthetic sweeps to thousands of ranks (65536 at paper scale)",
        format!("Scale: synthetic benchmarks on BlueGene/L to n={} (10 ms granularity)", ns[ns.len() - 1]),
        PAIR_COLUMNS,
        rows,
    )
    .pairs(move |r, measured| {
        r[0].note("layout: 2 CPUs per node, n/2 compute nodes; net = Table 1 BlueGene/L");
        // Simulator cost, a note because it is not a result: what the
        // slice machinery dispatches per slice must not grow with n
        // (DESIGN §9; verify.sh holds n=4096 under twice the smallest n).
        // The one event per rank and iteration that ends a rank's compute
        // phase is the rank's own work and is left out.
        let per_slice: Vec<String> = ns
            .iter()
            .zip(measured) // the barrier rows
            .map(|(&n, m)| {
                let machine = m.bcs_events - iters(n) * n as u64;
                let slices = m.bcs_elapsed.as_nanos().div_ceil(BcsConfig::default().timeslice.as_nanos());
                format!("n={n} {:.1}", machine as f64 / slices as f64)
            })
            .collect();
        r[0].note(format!("BCS-MPI barrier loop, machine dispatches per slice: {}", per_slice.join(" ")));
        r[0].note("rank programs are stackless state machines: one OS thread per point, any n");
    })
}

/// STORM job-launch scaling (the substrate's flagship behavior): one row
/// per node count, one point per network.
pub fn storm_launch_exp() -> Experiment {
    let nets = [qsnet::NetModel::qsnet(), qsnet::NetModel::myrinet(), qsnet::NetModel::gigabit_ethernet()];
    let rows = [4usize, 16, 32, 64].map(|nodes| Row {
        key: nodes,
        runs: nets
            .map(|net| -> PointFn {
                Box::new(move || {
                    let rep = storm::launch::measure_launch(net, nodes, 8 * 1024 * 1024, 2);
                    PointOut::new(vec![rep.total.as_millis_f64()], vec![])
                })
            })
            .into(),
    });
    table(
        "storm-launch",
        "STORM job-launch time vs node count and network",
        "STORM: job launch time (8 MB image, 2 procs/node)",
        &["QsNet", "Myrinet", "GigE"],
        rows.into(),
    )
    .build(move |r, _, rows| {
        for (nodes, launches) in rows {
            let mut cells = Vec::new();
            for (net, launch) in nets.iter().zip(launches) {
                let ms = launch.nums[0];
                if nodes == 64 && net.name == "QsNet" {
                    r[0].metric("qsnet_launch_64nodes_ms", ms);
                }
                cells.push(format!("{ms:.0}ms"));
            }
            r[0].row(format!("{nodes} nodes"), cells);
        }
        r[0].note("hardware multicast keeps QsNet launch flat in node count");
    })
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
    let ns: &[usize] = if quick { &[16, 62] } else { &[16, 62, 256] };
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
                rows.push(pair((format!("{label} {what} n={n}"), metric), &specs, two_per_node(n), &prog));
            }
        }
        let key = (format!("{label} CG ({cg_ranks} procs)"), Some(format!("cg_{label}_sd_pct")));
        rows.push(pair(key, &specs, JobLayout::crescendo(cg_ranks), &cg));
    }
    table(
        "fabric-matrix",
        "both engines on QsNet hardware vs RDMA-emulated collectives",
        "Fabric matrix: BCS-MPI slowdown on hardware (QsNet) vs software-emulated (RDMA/IB) collectives",
        PAIR_COLUMNS,
        rows,
    )
    .pairs(|r, _| {
        r[0].note("qsnet rows: Table 1 QsNet model, hardware multicast + network conditionals");
        r[0].note(
            "rdma rows: Table 1 InfiniBand model, binomial-tree multicast and \
             gather-to-root conditionals emulated in software (crates/rdmanet)",
        );
    })
}
