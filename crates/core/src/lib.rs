//! # grape-core
//!
//! The heart of GRAPE-RS: the **PIE programming model** (PEval + IncEval +
//! Assemble) and the **BSP fixpoint engine** that parallelizes it, following
//! Section 2 of *GRAPE: Parallelizing Sequential Graph Computations*
//! (PVLDB 2017).
//!
//! ## Programming model
//!
//! A query class `Q` is registered by implementing [`PieProgram`]:
//!
//! * [`PieProgram::peval`] — any sequential algorithm for `Q`, run on each
//!   fragment in parallel. It *declares update parameters* by writing values
//!   for border vertices into the [`PieContext`].
//! * [`PieProgram::inceval`] — a sequential incremental algorithm for `Q`
//!   that treats arriving border values as updates and refreshes the partial
//!   result.
//! * [`PieProgram::assemble`] — combines the partial results.
//! * [`PieProgram::aggregate`] — the conflict-resolution function (`min` for
//!   SSSP/CC, set union for keyword search, …) applied by the coordinator
//!   when several workers propose values for the same border vertex.
//!
//! ## Parallel model
//!
//! [`GrapeEngine::run`] executes the simultaneous fixpoint of Section 2.2:
//! superstep 0 runs PEval on every fragment; each subsequent superstep routes
//! changed update parameters through the coordinator (which applies the
//! aggregate function) and runs IncEval on the fragments that received
//! changes; when no update parameter changes anywhere, Assemble produces
//! `Q(G)`. Under the monotonicity condition of the Assurance Theorem the
//! fixpoint is reached in finitely many supersteps; the engine can optionally
//! verify that condition at run time ([`EngineConfig::check_monotonicity`]).

#![warn(missing_docs)]

pub mod chaos;
pub mod context;
pub mod converged;
pub mod engine;
pub mod message;
pub mod par;
pub mod program;
pub mod ship;
pub mod stats;
pub mod transport;

pub use chaos::{ChaosConfig, ChaosCoordTransport, ChaosWorkerTransport, DeterministicRng};
pub use context::PieContext;
pub use converged::{DeltaLog, IncrementalSeed, WarmHandle};
pub use engine::{
    run_seeded_worker, run_worker, EngineConfig, EngineConfigBuilder, ExecutionMode, GrapeEngine,
    GrapeResult, RunError,
};
pub use message::VertexValue;
pub use par::{ThreadCount, ThreadPool};
pub use program::{encode_owner_column, owner_columns, PieProgram};
pub use ship::{
    decode_fragment, decode_fragment_parts, encode_fragment, encode_fragment_epoch,
    encode_fragment_parts, TAG_FRAGMENT,
};
pub use stats::{RunStats, SuperstepTrace};
pub use transport::{CoordTransport, TransportError, TransportKind, WorkerTransport};

// Re-exports used by almost every PIE program.
pub use grape_comm::{wire, MessageSize, Wire, WireError, WireReader};
pub use grape_graph::delta::MutationProfile;
pub use grape_graph::VertexId;
pub use grape_partition::{
    build_fragments, ExchangeLayout, Fragment, FragmentId, FragmentParts, PartitionAssignment,
};
