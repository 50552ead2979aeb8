//! `bcs-perf` — the repository benchmark (see README.md in this directory).
//!
//! ```text
//! bcs-perf run --workload W [--seed N] [--seconds S | --reps R] [--trace 0|1] [--out FILE]
//! bcs-perf all [--seed N] [--seconds S | --reps R] [--trace 0|1] --out FILE
//! bcs-perf compare A.json B.json [--spec BENCHMARK.json]
//! ```
//!
//! `run` measures one workload in this process and ends its standard output
//! with the one-line JSON result. `all` runs each workload as a child `run`
//! (one workload per process, so peak memory is the workload's own), first
//! untraced then traced, and writes one results file. `compare` applies the
//! bounds of `BENCHMARK.json` to two results files.

mod adapter;
mod compare;
mod harness;
mod json;
mod spec;
mod stats;
mod trace;
mod workloads;

use json::Json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    // The product reads these; a caller's settings must not reach it.
    for (name, _) in std::env::vars_os() {
        let scrub = name.to_str().is_some_and(|n| {
            ["REPRO_", "BCS_TRACE_", "MICROBENCH_"]
                .iter()
                .any(|p| n.starts_with(p))
        });
        if scrub {
            std::env::remove_var(&name);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => Args::parse(&args[1..]).and_then(|a| cmd_run(&a)),
        Some("all") => Args::parse(&args[1..]).and_then(|a| cmd_all(&a)),
        Some("compare") => cmd_compare(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("bcs-perf: {e}");
            ExitCode::from(2)
        }
    }
}

const USAGE: &str = "usage: bcs-perf run --workload W [--seed N] [--seconds S | --reps R] [--trace 0|1] [--out FILE]
       bcs-perf all [--seed N] [--seconds S | --reps R] [--trace 0|1] --out FILE
       bcs-perf compare A.json B.json [--spec BENCHMARK.json]";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    reps: Option<usize>,
    trace: Option<bool>,
    out: Option<PathBuf>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut a = Args {
            workload: None,
            seed: workloads::DEFAULT_SEED,
            seconds: None,
            reps: None,
            trace: None,
            out: None,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("`{flag}` needs a value\n{USAGE}"))?;
            let bad = || format!("bad value `{value}` for `{flag}`");
            match flag.as_str() {
                "--workload" => a.workload = Some(value.clone()),
                "--seed" => a.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    a.seconds = Some(
                        value
                            .parse()
                            .ok()
                            .filter(|s: &f64| *s > 0.0 && s.is_finite())
                            .ok_or_else(bad)?,
                    )
                }
                "--reps" => a.reps = Some(value.parse().ok().filter(|&r| r >= 1).ok_or_else(bad)?),
                "--trace" => {
                    a.trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    })
                }
                "--out" => a.out = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown option `{flag}`\n{USAGE}")),
            }
        }
        Ok(a)
    }
}

/// `repro` is built into the same directory as this binary (`run.sh`
/// builds both with one target directory); scratch files go beside them.
fn env() -> Result<adapter::Env, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("this executable has no parent directory")?;
    let repro_bin = dir.join("repro");
    if !repro_bin.is_file() {
        return Err(format!(
            "{} not found: build with perf/run.sh",
            repro_bin.display()
        ));
    }
    Ok(adapter::Env {
        repro_bin,
        work_dir: dir.join("bcs-perf-work"),
    })
}

/// Seconds a `run` measures for when neither `--seconds` nor `--reps` is given.
const DEFAULT_SECONDS: f64 = 12.0;

fn cmd_run(a: &Args) -> Result<bool, String> {
    let workload = a
        .workload
        .clone()
        .ok_or_else(|| format!("`run` needs --workload\n{USAGE}"))?;
    let env = env()?;
    let trace = a.trace.unwrap_or(false);
    let trace_out = trace.then(|| {
        env.work_dir
            .join(format!("trace_{workload}_{}.json", a.seed))
    });
    let record = harness::measure(&harness::Options {
        workload,
        seed: a.seed,
        seconds: a.seconds.unwrap_or(DEFAULT_SECONDS),
        reps: a.reps,
        trace,
        env,
        trace_out: trace_out.clone(),
    })?;
    record.print();
    if let Some(path) = trace_out {
        println!("spans written to {}", path.display());
    }
    if let Some(path) = &a.out {
        write_file(path, &record.to_json())?;
    }
    println!("{}", record.contract_line());
    Ok(record.correct())
}

fn write_file(path: &Path, doc: &Json) -> Result<(), String> {
    std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_file(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn cmd_all(a: &Args) -> Result<bool, String> {
    let out = a
        .out
        .clone()
        .ok_or_else(|| format!("`all` needs --out\n{USAGE}"))?;
    let env = env()?;
    std::fs::create_dir_all(&env.work_dir)
        .map_err(|e| format!("{}: {e}", env.work_dir.display()))?;
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    if a.workload.is_some() {
        return Err(format!(
            "`all` runs every workload; use `run --workload`\n{USAGE}"
        ));
    }
    let names = workloads::NAMES;
    let passes: &[bool] = match a.trace {
        Some(false) => &[false],
        Some(true) => &[true],
        None => &[false, true],
    };
    let mut runs = Vec::new();
    let mut all_correct = true;
    for &trace in passes {
        for name in names {
            let part = env
                .work_dir
                .join(format!("part_{name}_{}.json", u8::from(trace)));
            let mut cmd = Command::new(&exe);
            cmd.args(["run", "--workload", name, "--seed", &a.seed.to_string()]);
            cmd.args(["--trace", if trace { "1" } else { "0" }]);
            cmd.arg("--out").arg(&part);
            match (a.reps, a.seconds) {
                (Some(r), _) => cmd.args(["--reps", &r.to_string()]),
                (None, Some(s)) => cmd.args(["--seconds", &s.to_string()]),
                // One warm-up and five timed repetitions; `repro_quick`,
                // three times as long per repetition, gets four.
                (None, None) => cmd.args(["--reps", if name == "repro_quick" { "4" } else { "5" }]),
            };
            let status = cmd
                .status()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            // 1 = measured, with failed repetitions; anything else = no result.
            if !status.success() && status.code() != Some(1) {
                return Err(format!("`run --workload {name}` ended with {status}"));
            }
            let record = read_file(&part)?;
            all_correct &= record.get("correct").and_then(Json::as_bool) == Some(true);
            runs.push(record);
            let _ = std::fs::remove_file(&part);
        }
    }
    write_file(
        &out,
        &Json::Obj(vec![
            ("seed".into(), Json::Num(a.seed as f64)),
            ("runs".into(), Json::Arr(runs)),
        ]),
    )?;
    println!(
        "{} run(s) written to {}: {}",
        names.len() * passes.len(),
        out.display(),
        if all_correct {
            "every check passed"
        } else {
            "SOME CHECKS FAILED"
        }
    );
    Ok(all_correct)
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut spec_path = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--spec" {
            spec_path = PathBuf::from(it.next().ok_or("`--spec` needs a file")?);
        } else {
            files.push(PathBuf::from(arg));
        }
    }
    let [a, b] = files.as_slice() else {
        return Err(format!("`compare` needs two results files\n{USAGE}"));
    };
    let spec = spec::Spec::load(&spec_path)?;
    let outcome = compare::compare(&spec, &read_file(a)?, &read_file(b)?)?;
    for row in &outcome.rows {
        println!("{row}");
    }
    for p in &outcome.problems {
        println!("FAIL: {p}");
    }
    println!(
        "{} row(s), {} unresolved, {} problem(s)",
        outcome.rows.len(),
        outcome.unresolved,
        outcome.problems.len()
    );
    Ok(outcome.problems.is_empty())
}
