//! # grape-graph
//!
//! Graph storage, construction, input/output and synthetic workload
//! generation for GRAPE-RS, a Rust reproduction of
//! *GRAPE: Parallelizing Sequential Graph Computations* (PVLDB 2017).
//!
//! The crate provides:
//!
//! * [`CsrGraph`] — an immutable, cache-friendly compressed-sparse-row graph
//!   with optional reverse (in-edge) adjacency, generic over vertex and edge
//!   data.
//! * [`GraphBuilder`] — an edge-at-a-time builder that produces a
//!   [`CsrGraph`].
//! * [`delta`] — a mutation overlay ([`DeltaGraph`]) that makes the immutable
//!   CSR updatable: edge/vertex insert + delete with tombstones, stable dense
//!   indices, and threshold-triggered compaction — the substrate of the
//!   cross-run incremental (streaming-update) path.
//! * [`dense`] — flat per-vertex state keyed by the dense `0..n` CSR indices
//!   ([`VertexDenseMap`], [`DenseBitset`]), the fast path used by the hot
//!   algorithm loops instead of `HashMap<VertexId, T>`.
//! * [`io`] — a plain-text edge-list loader / writer compatible with the
//!   formats used by SNAP-style datasets.
//! * [`generators`] — deterministic, seeded generators for the workload
//!   families used in the paper's evaluation: road-network-like grids,
//!   power-law (Barabási–Albert) social graphs, R-MAT graphs, Erdős–Rényi
//!   graphs, bipartite rating graphs for collaborative filtering and labeled
//!   property graphs for pattern matching / keyword search.
//! * [`metrics`] — degree distributions, component counts and other summary
//!   statistics used by the load balancer and by the benchmark harness.
//!
//! All identifiers are global [`VertexId`]s (`u64`). Partition-local dense
//! ids live in `grape-partition`.

#![warn(missing_docs)]

pub mod builder;
pub mod csr;
pub mod delta;
pub mod dense;
pub mod generators;
pub mod io;
pub mod labels;
pub mod metrics;
pub mod types;

pub use builder::GraphBuilder;
pub use csr::CsrGraph;
pub use delta::{AppliedBatch, DeltaGraph, GraphMutation, MutationProfile, NetMutations};
pub use dense::{
    merge_join, merge_walk, strictly_ascending, union_ranks, DenseBitset, VertexDenseMap,
};
pub use labels::{LabeledGraph, VertexLabel};
pub use types::{Direction, EdgeId, GraphError, VertexId, INVALID_VERTEX};

/// A weighted directed graph with unit vertex payloads and `f64` edge
/// weights — the workhorse instantiation used by SSSP and most benches.
pub type WeightedGraph = CsrGraph<(), f64>;

/// An unweighted directed graph (unit payloads on vertices and edges).
pub type PlainGraph = CsrGraph<(), ()>;
