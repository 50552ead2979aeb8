//! `repro` — regenerate every table and figure of the BCS-MPI paper.
//!
//! ```text
//! repro [--quick] [--out DIR] [--wallclock-baseline FILE] <experiment>...
//! repro all            # everything (slow: paper-scale 62-rank runs)
//! repro --quick all    # CI-sized sweep of every experiment
//! repro fig9 fig11a    # selected experiments
//! repro --list         # every registered experiment with its description
//! ```
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
use bench::experiments::{Experiment, registry};
use bench::sweep::{self, PointFn};
use bench::wallclock::{ExperimentTime, WallclockReport};
use std::path::PathBuf;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut quick = false;
    let mut out_dir = PathBuf::from("reports");
    let mut baseline: Option<PathBuf> = None;
    let mut picks: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--out" => {
                i += 1;
                out_dir = PathBuf::from(args.get(i).expect("--out needs a directory"));
            }
            "--wallclock-baseline" => {
                i += 1;
                baseline = Some(PathBuf::from(
                    args.get(i).expect("--wallclock-baseline needs a file"),
                ));
            }
            "--list" => {
                // Mark which experiments are gated beyond regeneration:
                // `pin` = headline values checked against recorded
                // tolerances, `speedup` = a baseline/optimized ratio floor.
                let exps = registry(true);
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
                println!(
                    "usage: repro [--quick] [--out DIR] [--wallclock-baseline FILE] <experiment>... | all"
                );
                println!("       repro --list   # every experiment with a one-line description");
                println!("REPRO_THREADS controls the sweep worker count (default: all cores)");
                println!("REPRO_FABRIC=qsnet|rdma overrides the interconnect for every run");
                println!(
                    "REPRO_COLL=hw-multicast|binomial|optimal overrides the collective wire schedule"
                );
                return;
            }
            other => picks.push(other.to_string()),
        }
        i += 1;
    }
    if picks.is_empty() {
        picks.push("all".to_string());
    }
    let all = picks.iter().any(|p| p == "all");
    let want = |name: &str| all || picks.iter().any(|p| p == name);

    let selected: Vec<Experiment> = registry(quick).into_iter().filter(|e| want(e.cli)).collect();
    if !all {
        for p in &picks {
            if !selected.iter().any(|e| e.cli == *p) {
                eprintln!("warning: unknown experiment `{p}` (see --help)");
            }
        }
    }

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
