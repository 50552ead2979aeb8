//! Gang scheduling of multiple parallel jobs.
//!
//! §5.4 of the BCS-MPI paper: "The simplest option is to schedule a
//! different parallel job whenever the application blocks for communication,
//! thus making use of the CPU." STORM implements exactly that — all nodes
//! switch jobs in lockstep at time-slice boundaries, driven by the same
//! strobe that drives BCS-MPI.
//!
//! This module provides a deterministic slice-level model: each job is a
//! bulk-synchronous profile alternating compute bursts and communication
//! waits (during which its processes are blocked). The scheduler timeshares
//! the node CPUs between jobs at slice granularity, paying a context-switch
//! cost, and reports per-job completion time and machine utilization — the
//! numbers behind the multiprogramming ablation.

use simcore::SimDuration;

/// A bulk-synchronous job profile.
#[derive(Clone, Debug)]
pub struct JobProfile {
    pub name: &'static str,
    /// Compute time per step (all CPUs busy).
    pub compute: SimDuration,
    /// Blocked time per step (communication wait; CPU idle unless another
    /// job runs).
    pub blocked: SimDuration,
    /// Number of steps.
    pub steps: u64,
}

/// Result of a gang-scheduled run.
#[derive(Clone, Debug)]
pub struct GangReport {
    /// Per-job completion times, in job order.
    pub finish: Vec<SimDuration>,
    /// Makespan.
    pub total: SimDuration,
    /// Fraction of CPU time spent on useful compute.
    pub utilization: f64,
    /// Number of context switches performed.
    pub switches: u64,
}

/// State of one job during the simulation.
struct JobState {
    profile: JobProfile,
    /// Remaining compute in the current step.
    compute_left: SimDuration,
    /// Remaining blocked time in the current step (after the compute).
    blocked_left: SimDuration,
    steps_left: u64,
    finish: Option<SimDuration>,
}

impl JobState {
    fn new(p: &JobProfile) -> JobState {
        JobState {
            compute_left: p.compute,
            blocked_left: p.blocked,
            steps_left: p.steps,
            profile: p.clone(),
            finish: None,
        }
    }

    fn done(&self) -> bool {
        self.steps_left == 0
    }

    /// Advance this job by up to `quantum` of CPU time plus any blocked
    /// time that elapses in parallel; returns CPU time actually used.
    fn run(&mut self, quantum: SimDuration) -> SimDuration {
        let mut used = SimDuration::ZERO;
        let mut left = quantum;
        while !self.done() && !left.is_zero() {
            if !self.compute_left.is_zero() {
                let step = self.compute_left.min(left);
                self.compute_left -= step;
                left -= step;
                used += step;
            } else {
                // Communication wait: consume wall time but no CPU; in a
                // gang-scheduled machine the scheduler would switch here, so
                // the caller gives us only the blocked residue as quantum.
                let step = self.blocked_left.min(left);
                self.blocked_left -= step;
                left -= step;
            }
            if self.compute_left.is_zero() && self.blocked_left.is_zero() {
                self.steps_left -= 1;
                if self.steps_left > 0 {
                    self.compute_left = self.profile.compute;
                    self.blocked_left = self.profile.blocked;
                }
            }
        }
        used
    }

    /// Let blocked time pass while another job holds the CPU.
    fn overlap_blocked(&mut self, wall: SimDuration) {
        if self.done() || !self.compute_left.is_zero() {
            return;
        }
        let step = self.blocked_left.min(wall);
        self.blocked_left -= step;
        if self.blocked_left.is_zero() && self.compute_left.is_zero() {
            self.steps_left -= 1;
            if self.steps_left > 0 {
                self.compute_left = self.profile.compute;
                self.blocked_left = self.profile.blocked;
            }
        }
    }
}

/// Gang-schedule `jobs` with the given slice quantum and context-switch
/// cost. Scheduling policy: at each slice boundary run the first job that
/// has compute ready; jobs whose processes are blocked let others run while
/// their communication progresses in the background (BCS-MPI performs it on
/// the NIC).
pub fn gang_schedule(
    jobs: &[JobProfile],
    quantum: SimDuration,
    switch_cost: SimDuration,
) -> GangReport {
    assert!(!jobs.is_empty());
    let mut states: Vec<JobState> = jobs.iter().map(JobState::new).collect();
    let mut t = SimDuration::ZERO;
    let mut busy = SimDuration::ZERO;
    let mut switches = 0u64;
    let mut current: Option<usize> = None;

    while states.iter().any(|s| !s.done()) {
        // Pick the next runnable job (compute ready), preferring the
        // incumbent to avoid gratuitous switches.
        let runnable = |s: &JobState| !s.done() && !s.compute_left.is_zero();
        let pick = current
            .filter(|&c| runnable(&states[c]))
            .or_else(|| states.iter().position(runnable));

        match pick {
            Some(j) => {
                if current != Some(j) {
                    if current.is_some() {
                        t += switch_cost;
                    }
                    switches += u64::from(current.is_some());
                    current = Some(j);
                }
                let used = states[j].run(quantum);
                let wall = used.max(SimDuration::nanos(1));
                t += wall;
                busy += used;
                for (k, s) in states.iter_mut().enumerate() {
                    if k != j {
                        s.overlap_blocked(wall);
                    }
                }
            }
            None => {
                // Everyone is blocked: wall time passes until the nearest
                // communication completes.
                let step = states
                    .iter()
                    .filter(|s| !s.done())
                    .map(|s| s.blocked_left)
                    .min()
                    .unwrap_or(quantum)
                    .max(SimDuration::nanos(1));
                t += step;
                for s in states.iter_mut() {
                    s.overlap_blocked(step);
                }
            }
        }
        for s in states.iter_mut() {
            if s.done() && s.finish.is_none() {
                s.finish = Some(t);
            }
        }
    }

    let finish: Vec<SimDuration> = states
        .iter()
        .map(|s| s.finish.expect("job finished without timestamp"))
        .collect();
    let total = t;
    GangReport {
        finish,
        utilization: if total.is_zero() {
            0.0
        } else {
            busy.as_secs_f64() / total.as_secs_f64()
        },
        total,
        switches,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocking_heavy() -> JobProfile {
        JobProfile {
            name: "blocking-heavy",
            compute: SimDuration::millis(1),
            blocked: SimDuration::millis(1),
            steps: 1000,
        }
    }

    #[test]
    fn single_job_utilization_is_its_duty_cycle() {
        let r = gang_schedule(&[blocking_heavy()], SimDuration::micros(500), SimDuration::micros(20));
        assert!((r.total.as_secs_f64() - 2.0).abs() < 0.05, "total {}", r.total);
        assert!((r.utilization - 0.5).abs() < 0.03, "util {}", r.utilization);
    }

    #[test]
    fn two_complementary_jobs_fill_each_others_holes() {
        // The §5.4 claim: a second job absorbs the blocked slices.
        let r = gang_schedule(
            &[blocking_heavy(), blocking_heavy()],
            SimDuration::micros(500),
            SimDuration::micros(20),
        );
        // Two jobs of 1 s CPU each: ideal makespan 2 s (vs 4 s serial).
        let total = r.total.as_secs_f64();
        assert!(
            total < 2.4,
            "gang scheduling gave {total:.2}s; serial would be 4s"
        );
        assert!(r.utilization > 0.8, "utilization {:.2}", r.utilization);
        assert!(r.switches > 100, "switches {}", r.switches);
    }

    #[test]
    fn compute_bound_job_is_barely_affected_by_quantum() {
        let cpu_bound = JobProfile {
            name: "cpu",
            compute: SimDuration::millis(10),
            blocked: SimDuration::ZERO,
            steps: 100,
        };
        let r = gang_schedule(&[cpu_bound.clone()], SimDuration::micros(500), SimDuration::micros(20));
        assert!((r.total.as_secs_f64() - 1.0).abs() < 0.01);
        assert!(r.utilization > 0.99);
    }

    #[test]
    fn finish_times_are_monotone_with_load() {
        let j = blocking_heavy();
        let solo = gang_schedule(&[j.clone()], SimDuration::micros(500), SimDuration::micros(20));
        let duo = gang_schedule(
            &[j.clone(), j.clone()],
            SimDuration::micros(500),
            SimDuration::micros(20),
        );
        assert!(duo.finish[0] >= solo.finish[0]);
        assert!(duo.total > solo.total);
    }
}
