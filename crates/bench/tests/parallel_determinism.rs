//! Tier-1 determinism under parallelism: running representative quick-mode
//! experiments through the sweep pool at `REPRO_THREADS=1` and
//! `REPRO_THREADS=4` must produce byte-identical reports — every CSV, and
//! every row, note and metric `repro` prints — the central guarantee of
//! `bench::sweep` (points are pure, results merge by index, all formatting
//! happens after the sweep, and no point returns a host observation).

use bench::experiments::{Experiment, Wire, registry, run_pooled};

/// Quick-mode experiments cheap enough for a debug-build tier-1 test but
/// representative of every point shape: multi-report assembly (fig2),
/// engine pairs (fig8c, ablation_slice), pure-model grids (table1,
/// storm_launch), word-payload points (ablation_fault), and both sets of
/// fabric timing rules (fabric_matrix).
const PICKS: &[&str] = &[
    "table1",
    "fig2",
    "fig8c",
    "ablation-slice",
    "ablation-fault",
    "storm-launch",
    "fabric-matrix",
];

/// Run the picked experiments pooled on `threads` workers — through the
/// driver `repro` itself calls — returning every emitted report's rendered
/// text (rows, notes and metrics) and CSV bytes in emit order.
fn reports_at(threads: usize) -> Vec<(&'static str, String, String)> {
    let selected: Vec<Experiment> = registry(true, Wire::default())
        .into_iter()
        .filter(|e| PICKS.contains(&e.cli))
        .collect();
    assert_eq!(selected.len(), PICKS.len(), "a picked experiment vanished");
    let (reports, stats) = run_pooled(selected, threads);
    assert_eq!(stats.threads, threads);
    reports.into_iter().map(|(name, r)| (name, r.render(), r.csv_string())).collect()
}

#[test]
fn quick_csvs_are_byte_identical_across_thread_counts() {
    let sequential = reports_at(1);
    let parallel = reports_at(4);
    assert_eq!(sequential.len(), parallel.len());
    for ((n1, text1, csv1), (n2, text2, csv2)) in sequential.iter().zip(&parallel) {
        assert_eq!(n1, n2, "emit order changed");
        assert_eq!(csv1, csv2, "CSV for `{n1}` differs between 1 and 4 threads");
        assert_eq!(text1, text2, "report `{n1}` differs between 1 and 4 threads");
        assert!(!csv1.is_empty());
    }
}
