//! `repro` — regenerate every table and figure of the BCS-MPI paper.
//!
//! ```text
//! repro [--quick] [--fabric qsnet|rdma] [--coll hw-multicast|binomial|optimal]
//!       [--out DIR] [--wallclock-baseline FILE] <experiment>...
//! repro all            # everything (slow: paper-scale 62-rank runs)
//! repro --quick all    # CI-sized sweep of every experiment
//! repro fig9 fig11a    # selected experiments
//! repro --list         # every registered experiment with its description
//! ```
//!
//! `--fabric` and `--coll` set the interconnect timing rules and collective
//! wire schedule every experiment starts from ([`Wire`]); an experiment that
//! sweeps one of them itself keeps its own values. A misspelt flag, label or
//! experiment name is a usage error (exit status 2) before anything runs.
//!
//! Every selected experiment is decomposed into independent sweep points
//! (see [`bench::experiments`]) and the points of *all* experiments are
//! pooled onto one work-stealing scheduler ([`bench::sweep`]) with
//! `REPRO_THREADS` workers (default: all cores). Reports and CSVs are
//! byte-identical at any thread count; only wall-clock time changes.
//!
//! After writing the CSVs, every regenerated headline value is compared
//! against the tolerances recorded in EXPERIMENTS.md (see [`bench::gate`]);
//! the process exits non-zero if any figure deviates. Wall-clock cost is
//! recorded in `bench_wallclock.json`; pass `--wallclock-baseline` to also
//! gate harness performance against a previous run's file.

use bench::Report;
use bench::experiments::{Experiment, Wire, registry};
use bench::sweep::{self, PointFn};
use bench::wallclock::{ExperimentTime, WallclockReport};
use mpi_api::coll_sched::CollAlgo;
use qsnet::FabricKind;
use std::path::PathBuf;

const USAGE: &str = "\
usage: repro [--quick] [--fabric LABEL] [--coll LABEL] [--out DIR]
             [--wallclock-baseline FILE] <experiment>... | all
       repro --list   # every experiment with a one-line description
  --fabric qsnet|rdma                    interconnect timing rules experiments start from
  --coll hw-multicast|binomial|optimal   collective wire schedule experiments start from
    (defaults: an experiment that sweeps either axis itself keeps its own values)
REPRO_THREADS controls the sweep worker count (default: all cores)";

/// Reject the command line before any point runs.
fn usage_error(msg: String) -> ! {
    eprintln!("repro: {msg}");
    eprintln!("(see `repro --list` for the experiments, `repro --help` for the flags)");
    std::process::exit(2);
}

/// The value that has to follow `flag`; `what` says what it should be.
fn value_of(args: &mut impl Iterator<Item = String>, flag: &str, what: &str) -> String {
    args.next().unwrap_or_else(|| usage_error(format!("{flag} needs {what}")))
}

/// The label following `flag`, which `parse` has to accept; `valid` lists
/// the labels it does.
fn label_of<T>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    valid: &[&str],
    parse: fn(&str) -> Option<T>,
) -> T {
    let valid = format!("one of: {}", valid.join(", "));
    let got = value_of(args, flag, &valid);
    parse(&got).unwrap_or_else(|| usage_error(format!("{flag} {got:?} is not {valid}")))
}

fn main() {
    let mut args = std::env::args().skip(1);
    let mut quick = false;
    let mut wire = Wire::default();
    let mut out_dir = PathBuf::from("reports");
    let mut baseline: Option<PathBuf> = None;
    let mut picks: Vec<String> = Vec::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--fabric" => {
                wire.fabric = label_of(&mut args, &arg, &FabricKind::ALL.map(FabricKind::name), FabricKind::from_label)
            }
            "--coll" => {
                wire.coll = label_of(&mut args, &arg, &CollAlgo::ALL.map(CollAlgo::label), CollAlgo::from_label)
            }
            "--out" => out_dir = value_of(&mut args, &arg, "a directory").into(),
            "--wallclock-baseline" => baseline = Some(value_of(&mut args, &arg, "a file").into()),
            "--list" => {
                // Mark which experiments are gated beyond regeneration:
                // `pin` = headline values checked against recorded
                // tolerances, `speedup` = a baseline/optimized ratio floor.
                let exps = registry(true, wire);
                let w = exps.iter().map(|e| e.cli.len()).max().unwrap_or(0);
                for e in exps {
                    // Gate registries key off *report* names; fig9 is the
                    // only experiment whose reports are named differently
                    // from the experiment itself.
                    let reports: &[&str] = match e.name {
                        "fig9" => &["fig9_runtimes", "table2"],
                        _ => std::slice::from_ref(&e.name),
                    };
                    let gates = match (
                        reports.iter().any(|r| bench::gate::has_pin_gates(r)),
                        reports.iter().any(|r| bench::gate::has_speedup_gates(r)),
                    ) {
                        (true, true) => " [gates: pin, speedup]",
                        (true, false) => " [gates: pin]",
                        (false, true) => " [gates: speedup]",
                        (false, false) => "",
                    };
                    println!("{:w$}  {}{}", e.cli, e.desc, gates);
                }
                return;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            flag if flag.starts_with("--") => usage_error(format!("unknown flag `{flag}`\n{USAGE}")),
            _ => picks.push(arg),
        }
    }
    let all = picks.is_empty() || picks.iter().any(|p| p == "all");

    let experiments = registry(quick, wire);
    for p in picks.iter().filter(|p| *p != "all") {
        if !experiments.iter().any(|e| e.cli == *p) {
            let known: Vec<&str> = experiments.iter().map(|e| e.cli).collect();
            usage_error(format!("unknown experiment `{p}`; valid: all, {}", known.join(", ")));
        }
    }
    let selected: Vec<Experiment> =
        experiments.into_iter().filter(|e| all || picks.iter().any(|p| p == e.cli)).collect();

    // Pool every selected experiment's points into one global sweep so a
    // straggler point of one figure overlaps with the next figure's work.
    let mut pool: Vec<PointFn> = Vec::new();
    let mut pending = Vec::new(); // (name, point span, assemble)
    for e in selected {
        let start = pool.len();
        let count = e.points.len();
        pool.extend(e.points);
        pending.push((e.name, start..start + count, e.assemble));
    }
    let threads = sweep::threads_from_env();
    let (outs, stats) = sweep::run_points(pool, threads);

    let mut emitted: Vec<(&'static str, Report)> = Vec::new();
    let mut experiment_times: Vec<ExperimentTime> = Vec::new();
    for (name, span, assemble) in pending {
        experiment_times.push(ExperimentTime {
            name: name.to_string(),
            points: span.len(),
            busy_secs: stats.point_secs[span.clone()].iter().sum(),
        });
        for (rname, r) in assemble(outs[span].to_vec()) {
            println!("{}", r.render());
            emitted.push((rname, r));
        }
    }

    for (name, r) in &emitted {
        if let Err(e) = r.write_csv(&out_dir, name) {
            eprintln!("warning: failed to write {name}.csv: {e}");
        }
    }
    println!("wrote {} CSV file(s) to {}", emitted.len(), out_dir.display());

    let wallclock = WallclockReport {
        quick,
        threads: stats.threads,
        wall_secs: stats.wall_secs,
        worker_busy_secs: stats.worker_busy_secs.clone(),
        experiments: experiment_times,
    };
    let wc_path = out_dir.join("bench_wallclock.json");
    if let Err(e) = std::fs::write(&wc_path, wallclock.to_json()) {
        eprintln!("warning: failed to write {}: {e}", wc_path.display());
    }
    println!(
        "sweep: {} point(s) on {} thread(s) in {:.2}s wall ({:.2}s busy, {:.0}% utilization)",
        stats.point_secs.len(),
        stats.threads,
        wallclock.wall_secs,
        wallclock.total_busy_secs(),
        wallclock.utilization() * 100.0
    );

    let mut checked = 0usize;
    let mut violations: Vec<String> = Vec::new();
    for (name, r) in &emitted {
        let (c, v) = bench::gate::check(name, r, quick);
        checked += c;
        violations.extend(v);
        let (c, v) = bench::gate::check_speedups(name, r);
        checked += c;
        violations.extend(v);
    }
    if let Some(path) = baseline {
        match std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|t| WallclockReport::from_json(&t))
        {
            Ok(base) => {
                let (c, v) = bench::gate::check_wallclock(&base, &wallclock);
                checked += c;
                violations.extend(v);
            }
            Err(e) => violations.push(format!(
                "wallclock baseline {} unreadable: {e}",
                path.display()
            )),
        }
    }
    if violations.is_empty() {
        println!("tolerance gate: {checked} headline value(s) within recorded tolerances");
    } else {
        eprintln!("tolerance gate: {} violation(s):", violations.len());
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
}
