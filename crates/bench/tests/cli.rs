//! The `repro` command line: `--fabric`/`--coll` choose what experiments
//! start from, and a misspelt flag, label or experiment name is a usage
//! error (exit status 2) that names the valid choices before anything runs.

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

/// `repro --quick --out <out> <args>` on one sweep worker.
fn repro(out: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--quick", "--out"])
        .arg(out)
        .args(args)
        .env("REPRO_THREADS", "1")
        .output()
        .expect("repro starts")
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
    let cases: [(&[&str], &str, &str); 4] = [
        (&["--fabric", "rmda", "fig8b"], "rmda", &fabrics),
        (&["--coll", "bogus", "fig8b"], "bogus", &algos),
        (&["--quik", "fig8b"], "--quik", "--quick"),
        (&["nosuch"], "nosuch", "fig8b, "),
    ];
    for (args, offender, choices) in cases {
        let run = repro(&dir.0, args);
        let err = String::from_utf8_lossy(&run.stderr);
        assert_eq!(run.status.code(), Some(2), "repro {args:?}: {err}");
        assert!(err.contains(offender) && err.contains(choices), "repro {args:?}: {err}");
        assert!(err.contains("--list") && err.contains("--help"), "repro {args:?}: {err}");
        assert!(!dir.0.exists(), "repro {args:?} wrote into its output directory");
    }
    // Every label the two errors offer is one the parsers accept.
    assert_eq!((fabrics.as_str(), algos.as_str()), ("qsnet, rdma", "hw-multicast, binomial, optimal"));
}
