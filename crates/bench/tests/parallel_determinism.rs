//! Tier-1 determinism under parallelism: running representative quick-mode
//! experiments through the sweep pool at `REPRO_THREADS=1` and
//! `REPRO_THREADS=4` must produce byte-identical reports — every CSV, and
//! every row, note and metric `repro` prints — the central guarantee of
//! `bench::sweep` (points are pure, results merge by index, all formatting
//! happens after the sweep, and no point returns a host observation). The
//! sequential run's reports must also pass the tolerance gates `repro`
//! checks them against, so what an experiment assembles is checked too.

use bench::Report;
use bench::experiments::{Experiment, Wire, registry, run_pooled};

/// Quick-mode experiments cheap enough for a debug-build tier-1 test but
/// representative of every row shape the table builder has: rows that
/// format themselves (fig2), BCS-vs-Quadrics pairs (fig8c, fabric_matrix,
/// whose pins a swapped pair fails), pairs with cells of their own
/// (ablation_chunk), rows read against a shared baseline run
/// (ablation_slice, ablation_fault), an engine's clean and noisy runs in
/// one row (ablation_noise), pure-model grids (table1, storm_launch),
/// word-payload points (ablation_fault), and both sets of fabric timing
/// rules (fabric_matrix).
const PICKS: &[&str] = &[
    "table1",
    "fig2",
    "fig8c",
    "ablation-slice",
    "ablation-noise",
    "ablation-chunk",
    "ablation-fault",
    "storm-launch",
    "fabric-matrix",
];

/// Run the picked experiments pooled on `threads` workers — through the
/// driver `repro` itself calls — returning every emitted report in emit
/// order.
fn reports_at(threads: usize) -> Vec<(String, Report)> {
    let selected: Vec<Experiment> = registry(true, Wire::default())
        .into_iter()
        .filter(|e| PICKS.contains(&e.cli))
        .collect();
    assert_eq!(selected.len(), PICKS.len(), "a picked experiment vanished");
    let (reports, stats) = run_pooled(selected, threads);
    assert_eq!(stats.threads, threads);
    reports
}

#[test]
fn quick_csvs_are_byte_identical_across_thread_counts() {
    let sequential = reports_at(1);
    for (name, r) in &sequential {
        let (_, mut violations) = bench::gate::check(name, r, true);
        violations.extend(bench::gate::check_speedups(name, r).1);
        assert!(violations.is_empty(), "`{name}` fails its gates: {violations:?}");
    }
    let parallel = reports_at(4);
    assert_eq!(sequential.len(), parallel.len());
    for ((n1, r1), (n2, r2)) in sequential.iter().zip(&parallel) {
        assert_eq!(n1, n2, "emit order changed");
        assert_eq!(r1.csv_string(), r2.csv_string(), "CSV for `{n1}` differs between 1 and 4 threads");
        assert_eq!(r1.render(), r2.render(), "report `{n1}` differs between 1 and 4 threads");
        assert!(!r1.csv_string().is_empty());
    }
}
