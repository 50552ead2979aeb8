//! # simcore — deterministic discrete-event simulation engine
//!
//! This crate is the foundation of the BCS-MPI reproduction. It provides:
//!
//! * [`SimTime`] / [`SimDuration`] — virtual time with nanosecond resolution;
//! * [`Sim`] — a single-threaded discrete-event engine whose event queue is
//!   ordered by `(time, sequence-number)` and therefore **fully
//!   deterministic**: two runs with the same inputs produce identical event
//!   interleavings and identical virtual-time results;
//! * [`VmHarness`] — the rank substrate: each simulated application process
//!   is a stackless state machine (a `Future`) stepped in place on the
//!   simulator thread, in strict lock-step with it;
//! * [`rng::SimRng`] — a tiny, self-contained, splittable PRNG
//!   (splitmix64/xoshiro256**) whose stream is stable forever, independent of
//!   external crate versions;
//! * [`stats`] — counters and fixed-bucket histograms used by the measurement
//!   harness;
//! * [`IdTable`] / [`chunklog::ChunkLog`] — the plain containers the layers
//!   above keep their state in: a dense table keyed by the monotone ids it
//!   hands out (requests, messages, in-flight transfers), and a persistent
//!   append-only log whose snapshots cost O(1) (checkpoint histories);
//! * [`CountingAlloc`] — a counting global allocator that tests and
//!   benchmark binaries install to measure allocations exactly.
//!
//! The engine knows nothing about networks or MPI; higher layers (`qsnet`,
//! `bcs-core`, `bcs-mpi`, `quadrics-mpi`) supply the world state `W` and the
//! event closures.

pub mod alloc_count;
pub mod chunklog;
pub mod idtable;
pub mod rng;
pub mod sim;
pub mod stats;
pub mod time;
pub mod vm;

pub use alloc_count::CountingAlloc;
pub use idtable::IdTable;
pub use vm::{ProcId, ProcYield, VmChannel, VmHarness};
pub use rng::SimRng;
pub use sim::Sim;
pub use time::{SimDuration, SimTime};

/// Unit tests count their allocations (`sim`'s steady-state test).
#[cfg(test)]
#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;
