//! `repro` — regenerate every table and figure of the BCS-MPI paper.
//!
//! ```text
//! repro [--quick] [--fabric qsnet|rdma] [--coll hw-multicast|binomial|optimal]
//!       [--out DIR] <experiment>...
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
//! `REPRO_THREADS` workers (unset: all cores; anything but an integer of
//! at least 1 is a usage error). Standard output is a function of the
//! arguments: reports and CSVs are byte-identical across runs and thread
//! counts, and only the `sweep:` line carries a host time.
//!
//! After writing the CSVs, every regenerated headline value is compared
//! against the tolerances recorded in EXPERIMENTS.md (see [`bench::gate`]);
//! the process exits non-zero if any figure deviates or any CSV could not
//! be written. What the harness costs in host time is measured by `perf/`.

use bench::experiments::{Experiment, Wire, registry, run_pooled};
use bench::sweep;
use mpi_api::coll_sched::CollAlgo;
use qsnet::FabricKind;
use std::path::PathBuf;

const USAGE: &str = "\
usage: repro [--quick] [--fabric LABEL] [--coll LABEL] [--out DIR] <experiment>... | all
       repro --list   # every experiment with a one-line description
  --fabric qsnet|rdma                    interconnect timing rules experiments start from
  --coll hw-multicast|binomial|optimal   collective wire schedule experiments start from
    (defaults: an experiment that sweeps either axis itself keeps its own values)
REPRO_THREADS sets the sweep worker count: an integer of at least 1 (unset: all cores)";

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
            "--list" => {
                // Mark which experiments are gated beyond regeneration:
                // `pin` = headline values checked against recorded
                // tolerances, `speedup` = a baseline/optimized ratio floor.
                let exps = registry(true, wire);
                let w = exps.iter().map(|e| e.cli.len()).max().unwrap_or(0);
                for e in exps {
                    // Gate registries key off the names of the reports an
                    // experiment emits.
                    let gates = match (
                        e.reports.iter().any(|r| bench::gate::has_pin_gates(r)),
                        e.reports.iter().any(|r| bench::gate::has_speedup_gates(r)),
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

    let threads = sweep::threads_from_env().unwrap_or_else(|e| usage_error(e));
    let points: usize = selected.iter().map(|e| e.points.len()).sum();
    let (emitted, stats) = run_pooled(selected, threads);
    for (_, r) in &emitted {
        println!("{}", r.render());
    }

    let mut written = 0usize;
    for (name, r) in &emitted {
        match r.write_csv(&out_dir, name) {
            Ok(()) => written += 1,
            Err(e) => eprintln!("repro: failed to write {name}.csv to {}: {e}", out_dir.display()),
        }
    }
    println!("wrote {written} CSV file(s) to {}", out_dir.display());
    println!("sweep: {points} point(s) on {} thread(s) in {:.2}s", stats.threads, stats.wall_secs);

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
    if violations.is_empty() {
        println!("tolerance gate: {checked} headline value(s) within recorded tolerances");
    } else {
        eprintln!("tolerance gate: {} violation(s):", violations.len());
        for v in &violations {
            eprintln!("  {v}");
        }
    }
    // An unwritten CSV fails the run like a violation does, but only here:
    // every report has been printed and every gate evaluated by now.
    if !violations.is_empty() || written < emitted.len() {
        std::process::exit(1);
    }
}
