#![forbid(unsafe_code)]
//! # softfloat — IEEE-754 arithmetic for a processor without an FPU
//!
//! The Quadrics Elan3 NIC that runs the BCS-MPI Reduce Helper has no
//! floating-point unit, so the paper computes NIC-side reductions with John
//! Hauser's SoftFloat library. This crate plays that role: binary32 and
//! binary64 addition, subtraction, multiplication, division, min/max and
//! comparison implemented entirely with integer operations, rounding to
//! nearest-even (the IEEE default and the mode hardware FPUs use), so results
//! are **bit-identical** to host floating point.
//!
//! The implementation follows the classic guard/round/sticky construction:
//! operands carry three extra low-order bits through alignment and
//! normalization, and a final `round_pack` step performs round-to-nearest-even
//! with overflow to infinity and gradual underflow to subnormals.
//!
//! ```
//! use softfloat::F64;
//! let a = F64::from_f64(0.1);
//! let b = F64::from_f64(0.2);
//! assert_eq!(a.add(b).to_f64(), 0.1f64 + 0.2f64); // bit-exact
//! ```

mod gen;

pub use gen::{F32, F64};
