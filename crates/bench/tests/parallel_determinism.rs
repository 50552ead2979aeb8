//! Tier-1 determinism under parallelism: running representative quick-mode
//! experiments through the sweep pool at `REPRO_THREADS=1` and
//! `REPRO_THREADS=4` must produce byte-identical CSV output — the central
//! guarantee of `bench::sweep` (points are pure, results merge by index,
//! all formatting happens after the sweep).

use bench::Report;
use bench::experiments::{Experiment, Wire, registry};
use bench::sweep::{self, PointFn};

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

/// Run the picked experiments pooled on `threads` workers, returning every
/// emitted report's CSV bytes in emit order.
fn csvs_at(threads: usize) -> Vec<(String, String)> {
    let selected: Vec<Experiment> = registry(true, Wire::default())
        .into_iter()
        .filter(|e| PICKS.contains(&e.cli))
        .collect();
    assert_eq!(selected.len(), PICKS.len(), "a picked experiment vanished");
    let mut pool: Vec<PointFn> = Vec::new();
    let mut pending = Vec::new();
    for e in selected {
        let span = pool.len()..pool.len() + e.points.len();
        pool.extend(e.points);
        pending.push((span, e.assemble));
    }
    let (outs, stats) = sweep::run_points(pool, threads);
    assert_eq!(stats.threads, threads.min(outs.len()));
    let mut csvs = Vec::new();
    for (span, assemble) in pending {
        for (name, r) in assemble(outs[span].to_vec()) {
            let r: Report = r;
            csvs.push((name.to_string(), r.csv_string()));
        }
    }
    csvs
}

#[test]
fn quick_csvs_are_byte_identical_across_thread_counts() {
    let sequential = csvs_at(1);
    let parallel = csvs_at(4);
    assert_eq!(sequential.len(), parallel.len());
    for ((n1, c1), (n2, c2)) in sequential.iter().zip(&parallel) {
        assert_eq!(n1, n2, "emit order changed");
        assert_eq!(c1, c2, "CSV for `{n1}` differs between 1 and 4 threads");
        assert!(!c1.is_empty());
    }
}
