//! Calibration constants for the Figure 9 / Table 2 workloads.
//!
//! The simulator cannot reproduce a 2003 Pentium-III's absolute FLOP rate,
//! so each kernel charges virtual compute time per step. These constants
//! were chosen **once**, to make the *baseline* (Quadrics MPI) runtimes land
//! near the paper's reported/derivable values — e.g. "IS takes approximately
//! 12 s in this configuration" (§5.3) — and are then held fixed for both
//! engines. The BCS-vs-baseline slowdowns are *not* fitted: they emerge
//! from the protocol simulation.
//!
//! | app | baseline target | grain | paper slowdown |
//! |-----|-----------------|-------|----------------|
//! | IS  | ~12 s           | 10 × ~1.2 s ranking steps + all-to-all | 10.14 % |
//! | EP  | ~20 s           | 10 × 2 s independent blocks            | 5.35 %  |
//! | CG  | ~25 s           | 250 × 100 ms iterations, blocking halo | 10.83 % |
//! | MG  | ~20 s           | 20 × 1 s V-cycles, per-level blocking  | 4.37 %  |
//! | LU  | ~40 s           | 250 × 160 ms SSOR steps, wavefront     | 15.04 % |
//! | SAGE| ~100 s          | 50 × 2 s cycles, non-blocking + reduce | −0.42 % |
//!
//! The BCS runtime-initialization delay (`BCS_INIT`) models what §5.3 blames
//! for IS: "pays a relatively high price for the overhead of initializing
//! the BCS-MPI runtime system". Only the paper-scale Figure 9 / Table 2
//! runs charge it (`repro fig9` without `--quick`); quick runs, the
//! Figure 10/11 sweeps and every other experiment start at t = 0.

use simcore::SimDuration;

/// One-time BCS-MPI runtime bring-up (STORM launch integration, NIC thread
/// setup). Charged at the start of every BCS run of the paper-scale Figure 9
/// suite.
pub const BCS_INIT: SimDuration = SimDuration::millis(900);

/// The paper's Table 2: the reference column of the regenerated Table 2.
pub const PAPER_SLOWDOWNS: &[(&str, f64)] = &[
    ("SAGE", -0.42),
    ("SWEEP3D", -2.23),
    ("IS", 10.14),
    ("EP", 5.35),
    ("MG", 4.37),
    ("CG", 10.83),
    ("LU", 15.04),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_table_is_complete() {
        assert_eq!(PAPER_SLOWDOWNS.len(), 7);
        let lu = PAPER_SLOWDOWNS.iter().find(|(n, _)| *n == "LU").unwrap();
        assert_eq!(lu.1, 15.04);
    }

    #[test]
    fn init_delay_is_sub_second() {
        assert!(BCS_INIT < SimDuration::secs(2));
    }
}
