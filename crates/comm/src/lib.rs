//! # grape-comm
//!
//! The communication substrate of GRAPE-RS — the stand-in for the paper's
//! *MPI Controller* (MPICH2). Workers in this reproduction are threads in
//! one process, so "message passing" is implemented with `std::sync::mpsc`
//! channels; what matters for reproducing the paper's experiments is that
//! every message and every byte that *would* have crossed the network is
//! **accounted**: Table 1 reports communication volume in MB, and the
//! partition-strategy experiment reports message counts.
//!
//! The crate provides:
//!
//! * [`MessageSize`] — a trait estimating the serialized size of a message,
//!   implemented for the primitive and composite types the engines exchange.
//! * [`CommStats`] — lock-free counters of messages / bytes plus a
//!   per-superstep history.
//! * [`CommNetwork`] / [`WorkerLink`] — an all-to-all network of `n` worker
//!   endpoints plus one coordinator endpoint, with counted sends.
//! * [`wire`] — the framed wire protocol: a little-endian, length-prefixed
//!   codec ([`Wire`], [`wire::encode_frame`]) that turns every
//!   coordinator↔worker message into self-delimiting byte frames, so workers
//!   can run in other OS processes and the byte accounting can report
//!   *actual* rather than estimated wire bytes.

#![warn(missing_docs)]

pub mod network;
pub mod size;
pub mod stats;
pub mod wire;

pub use network::{CommNetwork, Envelope, WorkerLink, COORDINATOR};
pub use size::MessageSize;
pub use stats::{CommStats, SuperstepStats};
pub use wire::{Frame, Wire, WireError, WireReader};
