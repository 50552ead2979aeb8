//! The `repro` command line: `--fabric`/`--coll` choose what experiments
//! start from; a misspelt flag, label, experiment name or `REPRO_THREADS`
//! value is a usage error (exit status 2) that names the valid choices
//! before anything runs; a CSV that could not be written fails the run; and
//! standard output is a function of the arguments, the `sweep:` line apart.

use mpi_api::coll_sched::CollAlgo;
use qsnet::FabricKind;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh directory for one test's CSVs, removed when dropped.
struct OutDir(PathBuf);

impl OutDir {
    fn new(test: &str) -> OutDir {
        let dir = std::env::temp_dir().join(format!("repro-cli-{}-{test}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        OutDir(dir)
    }
}

impl Drop for OutDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `repro --quick --out <out> <args>` under `REPRO_THREADS=<threads>`.
fn repro_on(threads: &str, out: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "--out"])
        .arg(out)
        .args(args)
        .env("REPRO_THREADS", threads)
        .output()
        .expect("repro starts")
}

/// `repro --quick --out <out> <args>` on one sweep worker.
fn repro(out: &Path, args: &[&str]) -> Output {
    repro_on("1", out, args)
}

/// The `fig8b.csv` that `repro <flags> fig8b` writes into `dir/<sub>`.
fn fig8b_csv(dir: &OutDir, sub: &str, flags: &[&str]) -> Vec<u8> {
    let out = dir.0.join(sub);
    let run = repro(&out, &[flags, &["fig8b"]].concat());
    assert!(run.status.success(), "repro {flags:?} fig8b: {}", String::from_utf8_lossy(&run.stderr));
    std::fs::read(out.join("fig8b.csv")).expect("fig8b.csv written")
}

#[test]
fn naming_the_defaults_changes_nothing_and_rdma_changes_the_timing() {
    let dir = OutDir::new("flags");
    let plain = fig8b_csv(&dir, "plain", &[]);
    assert_eq!(plain, fig8b_csv(&dir, "named", &["--fabric", "qsnet", "--coll", "hw-multicast"]));
    assert_ne!(plain, fig8b_csv(&dir, "rdma", &["--fabric", "rdma"]));
}

#[test]
fn a_misspelt_argument_is_a_usage_error_before_anything_runs() {
    let dir = OutDir::new("usage");
    let fabrics = FabricKind::ALL.map(FabricKind::name).join(", ");
    let algos = CollAlgo::ALL.map(CollAlgo::label).join(", ");
    let cases: [(&str, &[&str], &str, &str); 7] = [
        ("1", &["--fabric", "rmda", "fig8b"], "rmda", &fabrics),
        ("1", &["--coll", "bogus", "fig8b"], "bogus", &algos),
        ("1", &["--quik", "fig8b"], "--quik", "--quick"),
        ("1", &["nosuch"], "nosuch", "fig8b, "),
        ("0", &["table1"], "REPRO_THREADS=\"0\"", "at least 1"),
        ("four", &["table1"], "REPRO_THREADS=\"four\"", "at least 1"),
        ("", &["table1"], "REPRO_THREADS=\"\"", "at least 1"),
    ];
    for (threads, args, offender, choices) in cases {
        let run = repro_on(threads, &dir.0, args);
        let err = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "repro {args:?}: {err}");
        assert!(err.contains(offender) && err.contains(choices), "repro {args:?}: {err}");
        assert!(err.contains("--list") && err.contains("--help"), "repro {args:?}: {err}");
        assert!(!dir.0.exists(), "repro {args:?} wrote into its output directory");
    }
    // Every label the two errors offer is one the parsers accept.
    assert_eq!((fabrics.as_str(), algos.as_str()), ("qsnet, rdma", "hw-multicast, binomial, optimal"));
}

#[test]
fn a_csv_that_cannot_be_written_fails_the_run() {
    let dir = OutDir::new("unwritable");
    std::fs::create_dir_all(&dir.0).unwrap();
    let file = dir.0.join("a-file");
    std::fs::write(&file, b"not a directory").unwrap();
    let run = repro(&file.join("out"), &["table1"]);
    let (out, err) = (String::from_utf8_lossy(&run.stdout), String::from_utf8_lossy(&run.stderr));
    assert_eq!(run.status.code(), Some(1), "{err}");
    assert!(err.contains("failed to write table1.csv"), "{err}");
    // The log is still complete: the report, the count and the gate line.
    assert!(out.contains("== Table 1") && out.contains("tolerance gate:"), "{out}");
    assert!(out.contains("wrote 0 CSV file(s)"), "{out}");
}

/// Nothing a report renders depends on the host, so two runs print the same
/// rows, notes and metrics, and write nothing but CSVs.
#[test]
#[cfg_attr(debug_assertions, ignore = "two quick sweeps to n=4096: release only, run by scripts/verify.sh")]
fn standard_output_repeats_except_the_sweep_line() {
    let dir = OutDir::new("repeat");
    let lines = |threads: &str| -> Vec<String> {
        let run = repro_on(threads, &dir.0, &["ablation-schedule", "scale"]);
        assert!(run.status.success(), "{}", String::from_utf8_lossy(&run.stderr));
        let out = String::from_utf8(run.stdout).expect("utf-8");
        assert_eq!(out.lines().filter(|l| l.starts_with("sweep: ")).count(), 1, "{out}");
        out.lines().filter(|l| !l.starts_with("sweep: ")).map(str::to_owned).collect()
    };
    let first = lines("1");
    assert!(first.iter().any(|l| l.contains("stress_compiled_gets")), "{first:?}");
    for threads in ["1", "4"] {
        let again = lines(threads);
        assert_eq!(first.len(), again.len());
        for (a, b) in first.iter().zip(&again) {
            assert_eq!(a, b, "REPRO_THREADS={threads} printed a different line");
        }
    }
    for entry in std::fs::read_dir(&dir.0).unwrap() {
        let path = entry.unwrap().path();
        assert!(path.extension().is_some_and(|x| x == "csv"), "{} is not a CSV", path.display());
    }
}
