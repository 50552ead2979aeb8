#![forbid(unsafe_code)]
//! # qsnet — simulated Quadrics-class cluster fabric
//!
//! The BCS-MPI paper runs on a 32-node cluster connected by a Quadrics QsNet
//! network (Elan3 NICs + Elite switches in a quaternary fat tree). This crate
//! is the hardware substitute: a deterministic, analytic timing model of that
//! fabric, exposing exactly the mechanisms the BCS core primitives need:
//!
//! * **unicast DMA** (remote put / get) with per-link bandwidth serialization
//!   and cut-through latency,
//! * **hardware ordered multicast** (one injection, replicated by the switch,
//!   totally ordered through the root — the basis of `Xfer-And-Signal`),
//! * **network conditionals** (the basis of `Compare-And-Write`),
//! * **remotely signalable events** (delivery callbacks).
//!
//! Timing is computed *at issue time* (LogGP-style): [`Net`] keeps a
//! next-free time per NIC transmit/receive port plus one ordering clock for
//! collective wire operations, so contention is modeled without per-packet
//! events. Delivery callbacks are scheduled on the [`simcore::Sim`] event
//! queue. `Net` also holds everything else an interconnect has — counters,
//! fault injection, snapshots — so a different interconnect is only a
//! different set of [`Fabric`] timing rules over it (`rdmanet` is one).
//!
//! [`NetModel`] presets reproduce the five networks of the paper's Table 1
//! (Gigabit Ethernet, Myrinet, InfiniBand, QsNet, BlueGene/L), so the same
//! primitive microbenchmarks regenerate that table.

pub mod fabric;
pub mod model;
pub mod topology;

pub use fabric::{
    Degradation, Fabric, FabricKind, FabricSnapshot, FabricStats, Net, QsNetFabric, Reached, Runs,
};
pub use model::{CondImpl, McastImpl, NetModel};
pub use topology::{IntoNodeSet, NodeId, NodeSet, Topology};
