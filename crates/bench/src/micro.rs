//! Std-only micro-benchmark harness (the criterion replacement).
//!
//! Each benchmark is warmed up, then the iteration count is calibrated so
//! one sample takes a fixed wall-clock budget, then per-iteration times
//! are collected over many samples with [`std::time::Instant`]. Reported
//! statistics are robust (median / p95 / min) rather than a mean that a
//! single descheduling blip can ruin. Results are printed as a table and
//! written as CSV into the repo's `reports/` directory, so every bench
//! run is diffable offline. A deterministic figure that needs no clock at
//! all (heap pushes per event, allocations per message) is recorded with
//! [`Micro::count`]: its row leaves the timing columns empty.
//!
//! Quick mode (`--quick` argument or `MICROBENCH_QUICK=1`) cuts warmup,
//! sample count and sample budget for CI-sized runs.

use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Per-benchmark result statistics, all in nanoseconds per iteration.
#[derive(Clone, Debug)]
pub struct Stats {
    pub samples: usize,
    pub iters_per_sample: u64,
    pub min_ns: f64,
    pub mean_ns: f64,
    pub median_ns: f64,
    pub p95_ns: f64,
}

struct Row {
    group: String,
    name: String,
    /// `None` for an exact-count row ([`Micro::count`]).
    stats: Option<Stats>,
    /// Simulation events executed per iteration, when the benchmark is a
    /// discrete-event run (deterministic, so measured once up front);
    /// turns per-iteration time into an events/sec throughput figure. On
    /// an exact-count row, the count.
    events_per_iter: Option<f64>,
}

/// A micro-benchmark session: run benches, then [`finish`](Micro::finish)
/// to emit `reports/microbench_<stem>.csv`.
pub struct Micro {
    stem: String,
    quick: bool,
    rows: Vec<Row>,
}

impl Micro {
    /// Build a session named `stem`, reading `--quick` from the process
    /// arguments and `MICROBENCH_QUICK` from the environment.
    pub fn from_args(stem: &str) -> Micro {
        let quick = std::env::args().any(|a| a == "--quick")
            || std::env::var("MICROBENCH_QUICK").is_ok_and(|v| v != "0" && !v.is_empty());
        let mode = if quick { "quick" } else { "full" };
        println!("microbench {stem} ({mode} mode)");
        Micro { stem: stem.to_string(), quick, rows: Vec::new() }
    }

    fn warmup_budget(&self) -> Duration {
        Duration::from_millis(if self.quick { 20 } else { 150 })
    }

    fn sample_budget(&self) -> Duration {
        Duration::from_millis(if self.quick { 2 } else { 10 })
    }

    fn sample_count(&self) -> usize {
        if self.quick { 7 } else { 20 }
    }

    /// Measure `f`, recording per-iteration wall-clock statistics.
    pub fn bench<T>(&mut self, group: &str, name: &str, mut f: impl FnMut() -> T) -> &Stats {
        // Warmup: run until the budget elapses (at least once) so caches,
        // allocators and thread pools reach steady state.
        let warm_start = Instant::now();
        let warm_budget = self.warmup_budget();
        let mut warm_iters = 0u64;
        loop {
            std::hint::black_box(f());
            warm_iters += 1;
            if warm_start.elapsed() >= warm_budget {
                break;
            }
        }
        let per_iter = warm_start.elapsed().as_secs_f64() / warm_iters as f64;

        // Calibrate: as many iterations per sample as fit the budget.
        let budget = self.sample_budget().as_secs_f64();
        let iters = ((budget / per_iter.max(1e-9)) as u64).clamp(1, 1_000_000_000);

        let mut per_iter_ns: Vec<f64> = Vec::with_capacity(self.sample_count());
        for _ in 0..self.sample_count() {
            let t0 = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            per_iter_ns.push(t0.elapsed().as_nanos() as f64 / iters as f64);
        }
        per_iter_ns.sort_by(|a, b| a.total_cmp(b));
        let n = per_iter_ns.len();
        let stats = Stats {
            samples: n,
            iters_per_sample: iters,
            min_ns: per_iter_ns[0],
            mean_ns: per_iter_ns.iter().sum::<f64>() / n as f64,
            median_ns: per_iter_ns[n / 2],
            p95_ns: per_iter_ns[(n * 95).div_ceil(100).saturating_sub(1).min(n - 1)],
        };
        println!(
            "  {group}/{name}: median {}  p95 {}  min {}  ({n} samples x {iters} iters)",
            fmt_ns(stats.median_ns),
            fmt_ns(stats.p95_ns),
            fmt_ns(stats.min_ns),
        );
        self.rows.push(Row {
            group: group.to_string(),
            name: name.to_string(),
            stats: Some(stats),
            events_per_iter: None,
        });
        self.last_stats()
    }

    fn last_stats(&self) -> &Stats {
        self.rows.last().and_then(|r| r.stats.as_ref()).expect("bench pushed a timed row")
    }

    /// Record an exact count instead of a timing: a figure the program
    /// computes the same way on every run and at any load, so it is taken
    /// once. Its CSV row carries `value` in the `events_per_iter` column.
    pub fn count(&mut self, group: &str, name: &str, value: f64) {
        println!("  {group}/{name}: {value:.6} (exact count)");
        self.rows.push(Row {
            group: group.to_string(),
            name: name.to_string(),
            stats: None,
            events_per_iter: Some(value),
        });
    }

    /// Like [`bench`](Micro::bench), for a benchmark that executes
    /// `events_per_iter` simulation events per call: additionally reports
    /// an events/sec throughput (from the median) on stdout and in the
    /// CSV, so queue/engine changes have a directly comparable rate.
    pub fn bench_rated<T>(
        &mut self,
        group: &str,
        name: &str,
        events_per_iter: f64,
        f: impl FnMut() -> T,
    ) -> &Stats {
        assert!(events_per_iter > 0.0, "rate needs a positive event count");
        let median_ns = self.bench(group, name, f).median_ns;
        self.rows.last_mut().expect("bench pushed a row").events_per_iter = Some(events_per_iter);
        println!(
            "    -> {} events/iter, {} events/sec (median)",
            events_per_iter,
            fmt_rate(events_per_iter * 1e9 / median_ns)
        );
        self.last_stats()
    }

    /// Write the CSV report and return its path.
    pub fn finish(self) -> PathBuf {
        let dir = reports_dir();
        std::fs::create_dir_all(&dir).expect("create reports dir");
        let path = dir.join(format!("microbench_{}.csv", self.stem));
        let mut csv = String::from(
            "group,bench,samples,iters_per_sample,min_ns,mean_ns,median_ns,p95_ns,events_per_iter,events_per_sec\n",
        );
        for r in &self.rows {
            let Some(s) = &r.stats else {
                let count = r.events_per_iter.expect("a count row has a count");
                csv.push_str(&format!("{},{},,,,,,,{count:.6},\n", r.group, r.name));
                continue;
            };
            let rate = match r.events_per_iter {
                Some(e) => format!("{e:.0},{:.0}", e * 1e9 / s.median_ns),
                None => ",".to_string(),
            };
            csv.push_str(&format!(
                "{},{},{},{},{:.1},{:.1},{:.1},{:.1},{rate}\n",
                r.group,
                r.name,
                s.samples,
                s.iters_per_sample,
                s.min_ns,
                s.mean_ns,
                s.median_ns,
                s.p95_ns
            ));
        }
        std::fs::write(&path, csv).expect("write microbench csv");
        println!("wrote {}", path.display());
        path
    }
}

/// `reports/` at the workspace root, overridable with `MICROBENCH_OUT`.
fn reports_dir() -> PathBuf {
    match std::env::var_os("MICROBENCH_OUT") {
        Some(dir) => PathBuf::from(dir),
        None => PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../reports"),
    }
}

fn fmt_rate(per_sec: f64) -> String {
    if per_sec >= 1e6 {
        format!("{:.2}M", per_sec / 1e6)
    } else if per_sec >= 1e3 {
        format!("{:.1}k", per_sec / 1e3)
    } else {
        format!("{per_sec:.0}")
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_are_ordered_and_csv_is_written() {
        let out = std::env::temp_dir().join("proplite_microbench_selftest");
        std::env::set_var("MICROBENCH_OUT", &out);
        std::env::set_var("MICROBENCH_QUICK", "1");
        let mut m = Micro::from_args("selftest");
        let mut acc = 0u64;
        let s = m.bench("g", "spin", || {
            for i in 0..100u64 {
                acc = acc.wrapping_mul(31).wrapping_add(i);
            }
            acc
        });
        assert!(s.min_ns > 0.0);
        assert!(s.min_ns <= s.median_ns && s.median_ns <= s.p95_ns);
        let s = m.bench_rated("g", "rated", 100.0, || {
            for i in 0..100u64 {
                acc = acc.wrapping_mul(31).wrapping_add(i);
            }
            acc
        });
        assert!(s.median_ns > 0.0);
        m.count("g", "exact", 0.25);
        let path = m.finish();
        let csv = std::fs::read_to_string(path).unwrap();
        assert!(csv.starts_with("group,bench,"));
        assert!(csv.ends_with("_sec\n") || csv.contains("events_per_sec"));
        assert!(csv.contains("g,spin,"));
        // The unrated row leaves the rate columns empty; the rated row
        // carries the event count and a positive throughput.
        let spin = csv.lines().find(|l| l.starts_with("g,spin,")).unwrap();
        assert!(spin.ends_with(",,"), "{spin}");
        let rated = csv.lines().find(|l| l.starts_with("g,rated,")).unwrap();
        let cols: Vec<&str> = rated.split(',').collect();
        assert_eq!(cols[8], "100");
        assert!(cols[9].parse::<f64>().unwrap() > 0.0);
        // An exact count has no timing columns at all.
        assert!(csv.contains("g,exact,,,,,,,0.250000,\n"), "{csv}");
        std::env::remove_var("MICROBENCH_OUT");
        std::env::remove_var("MICROBENCH_QUICK");
    }
}
