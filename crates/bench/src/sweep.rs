//! Deterministic parallel sweep scheduler.
//!
//! Every experiment in [`crate::experiments`] is decomposed into
//! *points* — closed-over simulation runs that share no mutable state and
//! return plain numbers ([`PointOut`]). This module shards a list of
//! points across a work-stealing pool of OS threads and merges the
//! results **by point index**, so the assembled [`crate::Report`]s (and
//! therefore every CSV the `repro` binary writes) are byte-identical to a
//! sequential run at any thread count: parallelism only reorders *when*
//! a point executes, never *what* it computes or where its output lands.
//!
//! The thread count comes from the `REPRO_THREADS` environment variable
//! (unset: `std::thread::available_parallelism`; set: an integer of at
//! least 1, anything else is a usage error). `REPRO_THREADS=1` takes a
//! no-thread sequential fast path, which is also the reference the
//! determinism test in `tests/parallel_determinism.rs` compares against.
//!
//! This is also the one module of the workspace that reads the host clock
//! (detlint D01): one `Instant` pair around a sweep, for the `sweep:` line
//! `repro` prints. Host time is *measured* by the standalone `perf/`
//! package, per PR, in `BENCH_<pr>.json`.

use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

/// Raw output of one sweep point: float measurements plus exact integer
/// words (virtual-time nanoseconds, counters, per-rank checksums).
/// Points return *data*, never formatted strings — all formatting happens
/// after the sweep, when each experiment assembles its rows, in point order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PointOut {
    pub nums: Vec<f64>,
    pub words: Vec<u64>,
}

impl PointOut {
    /// Convenience constructor.
    pub fn new(nums: Vec<f64>, words: Vec<u64>) -> PointOut {
        PointOut { nums, words }
    }
}

/// One schedulable unit of simulation work.
pub type PointFn = Box<dyn FnOnce() -> PointOut + Send>;

/// What one sweep ran on and how long it took: the one host observation
/// in the workspace outside `perf/`, for the `sweep:` line `repro` prints.
#[derive(Clone, Debug)]
pub struct SweepStats {
    /// Workers the sweep actually ran with.
    pub threads: usize,
    /// Wall-clock seconds from first point issued to last point merged.
    pub wall_secs: f64,
}

/// Worker count from the text of `REPRO_THREADS`: unset means every core
/// the machine offers, anything else has to be an integer of at least 1.
fn parse_threads(var: Option<&str>) -> Result<usize, String> {
    let Some(text) = var else {
        return Ok(std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));
    };
    match text.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err(format!("REPRO_THREADS={text:?} is not an integer of at least 1")),
    }
}

/// [`parse_threads`] of the process environment.
pub fn threads_from_env() -> Result<usize, String> {
    let var = std::env::var_os("REPRO_THREADS");
    parse_threads(var.as_ref().map(|v| v.to_string_lossy()).as_deref())
}

/// Run every point and return the outputs **in input order**, plus what
/// the sweep ran on and how long it took.
pub fn run_points(points: Vec<PointFn>, threads: usize) -> (Vec<PointOut>, SweepStats) {
    let threads = threads.clamp(1, points.len().max(1));
    let t0 = Instant::now();
    let outs = if threads == 1 {
        // Sequential fast path: no pool, no locks — the byte-identity
        // reference for any parallel run.
        points.into_iter().map(|p| p()).collect()
    } else {
        run_on_pool(points, threads)
    };
    (outs, SweepStats { threads, wall_secs: t0.elapsed().as_secs_f64() })
}

/// Points are sharded round-robin across `threads` workers; an idle
/// worker steals from the back of the busiest-looking peer queue. Because
/// no point ever enqueues further points, "every queue is empty" is a
/// sound termination condition.
fn run_on_pool(points: Vec<PointFn>, threads: usize) -> Vec<PointOut> {
    let n = points.len();
    // Task slots: a worker claims point `i` by take()ing slot `i`. The
    // index queues below only ever hold each index once, but the take()
    // guard makes double-execution structurally impossible.
    let tasks: Vec<Mutex<Option<PointFn>>> =
        points.into_iter().map(|p| Mutex::new(Some(p))).collect();
    // Round-robin sharding: point i starts on worker i % threads, so a
    // sweep whose expensive points cluster at one end still spreads them.
    let queues: Vec<Mutex<VecDeque<usize>>> = (0..threads)
        .map(|w| Mutex::new((w..n).step_by(threads).collect()))
        .collect();

    let mut outs: Vec<Option<PointOut>> = (0..n).map(|_| None).collect();

    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|wid| {
                let tasks = &tasks;
                let queues = &queues;
                s.spawn(move || {
                    let mut done: Vec<(usize, PointOut)> = Vec::new();
                    loop {
                        // Own queue first (front), then steal from the
                        // back of the other queues.
                        let mut idx = queues[wid].lock().unwrap().pop_front();
                        if idx.is_none() {
                            for off in 1..threads {
                                let victim = (wid + off) % threads;
                                idx = queues[victim].lock().unwrap().pop_back();
                                if idx.is_some() {
                                    break;
                                }
                            }
                        }
                        let Some(i) = idx else { break };
                        if let Some(p) = tasks[i].lock().unwrap().take() {
                            done.push((i, p()));
                        }
                    }
                    done
                })
            })
            .collect();
        for h in handles {
            for (i, out) in h.join().expect("sweep worker panicked") {
                outs[i] = Some(out);
            }
        }
    });

    outs.into_iter()
        .enumerate()
        .map(|(i, o)| o.unwrap_or_else(|| panic!("point {i} never executed")))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squares(n: usize) -> Vec<PointFn> {
        (0..n)
            .map(|i| {
                Box::new(move || PointOut::new(vec![(i * i) as f64], vec![i as u64]))
                    as PointFn
            })
            .collect()
    }

    #[test]
    fn results_merge_in_input_order() {
        for threads in [1, 2, 3, 8] {
            let (outs, stats) = run_points(squares(37), threads);
            assert_eq!(outs.len(), 37);
            for (i, o) in outs.iter().enumerate() {
                assert_eq!(o.nums, vec![(i * i) as f64]);
                assert_eq!(o.words, vec![i as u64]);
            }
            assert_eq!(stats.threads, threads);
        }
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let (seq, _) = run_points(squares(64), 1);
        let (par, stats) = run_points(squares(64), 4);
        assert_eq!(seq, par);
        assert_eq!(stats.threads, 4);
    }

    #[test]
    fn threads_clamped_to_point_count() {
        let (outs, stats) = run_points(squares(2), 16);
        assert_eq!(outs.len(), 2);
        assert_eq!(stats.threads, 2);
    }

    #[test]
    fn empty_sweep_is_fine() {
        let (outs, stats) = run_points(Vec::new(), 4);
        assert!(outs.is_empty());
        assert_eq!(stats.threads, 1);
    }

    #[test]
    fn uneven_point_costs_are_stolen() {
        // One slow point up front plus many fast ones: with 4 workers the
        // fast tail must not serialize behind the slow head.
        let mut points: Vec<PointFn> = vec![Box::new(|| {
            std::thread::sleep(std::time::Duration::from_millis(30));
            PointOut::new(vec![-1.0], vec![])
        })];
        points.extend(squares(40));
        let (outs, _) = run_points(points, 4);
        assert_eq!(outs.len(), 41);
        assert_eq!(outs[0].nums, vec![-1.0]);
        assert_eq!(outs[40].nums, vec![(39 * 39) as f64]);
    }

    #[test]
    fn env_parsing_defaults_sanely() {
        // Unset: every core. Set: an integer of at least 1, or an error
        // that names the variable and the value.
        assert!(parse_threads(None).unwrap() >= 1);
        for (text, want) in [("1", 1), ("4", 4), (" 12 ", 12)] {
            assert_eq!(parse_threads(Some(text)), Ok(want), "{text:?}");
        }
        for text in ["0", "four", "", " ", "-1", "2.5", "4x"] {
            let err = parse_threads(Some(text)).unwrap_err();
            assert!(err.contains("REPRO_THREADS") && err.contains(&format!("{text:?}")), "{err}");
        }
    }
}
