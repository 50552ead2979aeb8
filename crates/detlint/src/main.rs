#![forbid(unsafe_code)]
//! The `detlint` driver binary.
//!
//! ```text
//! cargo run --release -p detlint                  # lint the workspace
//! cargo run --release -p detlint -- --root <dir>  # lint another tree
//! cargo run --release -p detlint -- --check-json reports/detlint.json
//! cargo run --release -p detlint -- --graph dot --max-waivers 11
//! ```
//!
//! Exit codes: 0 = clean (waived findings are fine, up to any
//! `--max-waivers` budget), 1 = unwaived findings, waiver errors, or a
//! blown waiver budget, 2 = usage / I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut json_out: Option<PathBuf> = None;
    let mut check_json: Option<PathBuf> = None;
    let mut max_waivers: Option<usize> = None;
    let mut graph = false;
    let mut quiet = false;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage("--root needs a directory"),
            },
            "--json-out" => match args.next() {
                Some(v) => json_out = Some(PathBuf::from(v)),
                None => return usage("--json-out needs a path"),
            },
            "--check-json" => match args.next() {
                Some(v) => check_json = Some(PathBuf::from(v)),
                None => return usage("--check-json needs a path"),
            },
            "--max-waivers" => match args.next().and_then(|v| v.parse::<usize>().ok()) {
                Some(n) => max_waivers = Some(n),
                None => return usage("--max-waivers needs a non-negative integer"),
            },
            "--graph" => match args.next().as_deref() {
                Some("dot") => graph = true,
                Some(other) => {
                    return usage(&format!("unknown graph format `{other}` (only `dot`)"))
                }
                None => return usage("--graph needs a format (`dot`)"),
            },
            "--quiet" | "-q" => quiet = true,
            "--help" | "-h" => {
                println!(
                    "detlint — determinism & safety lints for the BCS-MPI workspace\n\n\
                     USAGE: detlint [--root <dir>] [--json-out <path>] [--quiet]\n\
                     \x20              [--max-waivers <n>] [--graph dot]\n\
                     \x20      detlint --check-json <path>\n\n\
                     Token rules D01–D07 plus semantic rules D08 (crate-layer\n\
                     DAG), D09 (protocol-match exhaustiveness), D10 (panic-path\n\
                     audit), D11 (nondeterminism taint) — see DESIGN.md §10, §15.\n\
                     Waive inline with `// detlint: allow(D0x) — <reason>`.\n\
                     `--max-waivers <n>` fails the run (and prints every waived\n\
                     finding) when the waiver count exceeds the budget; `--graph\n\
                     dot` writes the layer DAG + call-graph summary to\n\
                     reports/detlint_graph.dot. Exit 0 only when every finding\n\
                     is waived, no waiver is reason-less or stale, and the\n\
                     budget holds."
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    // Validation-only mode: assert an existing report is well-formed.
    if let Some(path) = check_json {
        return match std::fs::read_to_string(&path) {
            Ok(contents) => match detlint::report::validate_json(&contents) {
                Ok(()) => {
                    if !quiet {
                        println!("detlint: {} is well-formed", path.display());
                    }
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("detlint: {}: malformed report: {e}", path.display());
                    ExitCode::FAILURE
                }
            },
            Err(e) => {
                eprintln!("detlint: cannot read {}: {e}", path.display());
                ExitCode::from(2)
            }
        };
    }

    // detlint: allow(D01) — lint-driver self-timing only: the elapsed time
    // goes to the console summary line and nowhere else (reports/detlint.json
    // is deliberately time-free so consecutive runs are byte-identical).
    let t0 = std::time::Instant::now();
    let (scan, call_summary) = match detlint::scan_workspace_with_graph(&root) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("detlint: cannot scan {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };
    let elapsed = t0.elapsed().as_secs_f64();

    let json_path = json_out.unwrap_or_else(|| root.join("reports").join("detlint.json"));
    let json = detlint::report::to_json(&scan, &root.display().to_string());
    if let Some(dir) = json_path.parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("detlint: cannot create {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }
    if let Err(e) = std::fs::write(&json_path, &json) {
        eprintln!("detlint: cannot write {}: {e}", json_path.display());
        return ExitCode::from(2);
    }

    if graph {
        let dot = detlint::dag::to_dot(&call_summary);
        let dot_path = root.join("reports").join("detlint_graph.dot");
        if let Err(e) = std::fs::write(&dot_path, &dot) {
            eprintln!("detlint: cannot write {}: {e}", dot_path.display());
            return ExitCode::from(2);
        }
        if !quiet {
            println!("detlint: wrote {}", dot_path.display());
        }
    }

    let diagnostics = detlint::report::render_diagnostics(&scan);
    if !diagnostics.is_empty() {
        eprint!("{diagnostics}");
    }

    // Waiver budget: the total waiver count is pinned in scripts/verify.sh so
    // new waivers are a deliberate, reviewed act. On a blown budget, dump the
    // full (already path/line/col/rule-sorted) waiver ledger so the offender
    // is obvious without re-running anything.
    let mut budget_blown = false;
    if let Some(budget) = max_waivers {
        let waived: Vec<_> = scan.findings.iter().filter(|f| f.waived).collect();
        if waived.len() > budget {
            budget_blown = true;
            eprintln!(
                "detlint: waiver budget exceeded: {} waived findings > --max-waivers {budget}",
                waived.len()
            );
            for f in &waived {
                eprintln!(
                    "  {}:{} {} — {}",
                    f.file,
                    f.line,
                    f.rule,
                    f.waiver_reason.as_deref().unwrap_or("(no reason recorded)")
                );
            }
        }
    }

    if !quiet {
        println!("{}", detlint::report::summary_line(&scan, elapsed));
    }
    if scan.clean() && !budget_blown {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("detlint: {msg} (try --help)");
    ExitCode::from(2)
}
