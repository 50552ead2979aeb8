#![forbid(unsafe_code)]
//! # mpi-api — the MPI-facing surface shared by both engines
//!
//! BCS-MPI (the paper's contribution, crate `bcs-mpi`) and the
//! production-style baseline (crate `quadrics-mpi`) implement the *same* MPI
//! subset over the same simulated cluster, differing only in protocol. This
//! crate holds everything they share:
//!
//! * [`datatype`] — MPI datatypes and reduction operators (with native
//!   combine used by the host-side baseline reduction);
//! * [`message`] — ranks, tags, statuses, envelope matching (including
//!   `ANY_SOURCE` / `ANY_TAG` wildcards and the non-overtaking rule);
//! * [`call`] — the request/response protocol between simulated ranks
//!   and the engine (`MpiCall` / `MpiResp`), mirroring the BCS API
//!   of the paper's Appendix A;
//! * [`ctx`] — [`ctx::AsyncMpi`], the handle rank programs use: blocking
//!   and non-blocking point-to-point, barrier/bcast/reduce/allreduce
//!   (engine primitives, NIC-level in BCS-MPI), and scatterv/gatherv/
//!   allgather(v)/alltoall(v) composed on top of the primitives, exactly as
//!   Appendix A prescribes ("the rest of them are built on top of those");
//!   plus [`ctx::RankProgram`], a rank program as data;
//! * [`request`] — the request lifecycle (post → complete → wait →
//!   retire) both engines run on `simcore`'s dense id-ordered
//!   [`simcore::IdTable`];
//! * [`payload`] — refcounted message buffers;
//! * [`round`] — a collective round's value plane: its kinds, the join
//!   and its mismatch checks, the close and each member's response;
//! * [`coll_sched`] — the collective wire layer: algorithm selection, round
//!   schedules, the broadcast executors and the analytic tree time;
//! * [`runtime`] — the engine seam: an MPI implementation provides its
//!   [`runtime::Protocol`] (the primitives that carry a call, its request
//!   table, what an answer from its own state costs) and [`runtime::Engine`]
//!   (bootstrap, halt, deadlock dump); the request arms (`wait`,
//!   `waitall`, `test`, `testall`), `now`, the probe answer, batches and
//!   the misuse call site live once here, beside [`runtime::ClusterWorld`] (harness +
//!   engine world) and the job driver: a [`runtime::Job`] steps each rank
//!   as a stackless state machine, so job size scales to thousands of
//!   ranks; [`runtime::run_program`] is its one-line common case.

pub mod call;
pub mod coll_sched;
pub mod comm;
pub mod ctx;
pub mod datatype;
pub mod message;
pub mod noise;
pub mod payload;
pub mod request;
pub mod round;
pub mod runtime;

pub use call::{MpiCall, MpiResp, ReqId};
pub use coll_sched::CollAlgo;
pub use payload::Payload;
pub use comm::{CommHandle, CommId, CommRegistry};
pub use ctx::{AsyncMpi, RankProgram};
pub use datatype::{Datatype, ReduceOp};
pub use message::{Envelope, SrcSel, Status, TagSel};
pub use runtime::{ClusterWorld, Engine, Job, JobLayout, Protocol, RunResult, run_program};
