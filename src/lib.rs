//! # GRAPE-RS
//!
//! A Rust reproduction of **GRAPE: Parallelizing Sequential Graph
//! Computations** (Fan, Xu, Wu, Yu, Jiang — PVLDB 10(12), 2017).
//!
//! This facade crate re-exports the whole workspace so applications can
//! depend on a single crate:
//!
//! * [`graph`] — CSR graph storage, loaders and synthetic generators.
//! * [`partition`] — partition strategies (hash, 1D/2D, LDG, Fennel,
//!   METIS-like) and fragment construction.
//! * [`comm`] — the in-process message bus standing in for the MPI
//!   controller, with full communication accounting.
//! * [`core`] — the PIE programming model and the BSP fixpoint engine.
//! * [`algo`] — registered PIE programs: SSSP, CC, PageRank, Sim, SubIso,
//!   Keyword, CF and the GPAR marketing use case.
//! * [`baseline`] — the Table 1 comparators: Pregel-like, GAS and Blogel-like
//!   engines.
//! * [`worker`] — multi-process workers over the framed wire protocol, and
//!   the resident query service ([`Session`] / [`GrapeService`]).
//!
//! ## Quickstart — a resident session
//!
//! [`Session`] is the unified entry point: load a graph once, keep the
//! fragments resident, and serve a stream of typed queries — concurrently,
//! bit-identical to cold one-shot runs. An in-process session spawns a
//! private [`GrapeService`] daemon on a loopback port and is served by it,
//! through the same code as a remote session:
//!
//! ```
//! use grape::prelude::*;
//! use grape::{Query, Session, SessionConfig, SessionGraph};
//!
//! let graph = grape::graph::generators::barabasi_albert(300, 2, 7).unwrap();
//! let session = Session::connect(SessionConfig::in_process(4))?;
//! session.load(&SessionGraph::from(graph), BuiltinStrategy::Hash)?;
//!
//! let sssp = session.submit(Query::sssp(0))?;   // two classes in flight
//! let ranks = session.submit(Query::pagerank())?; // over the same fragments
//! println!("{}", sssp.join()?.stats.summary());
//! println!("{}", ranks.join()?.stats.summary());
//! # std::io::Result::Ok(())
//! ```
//!
//! Pass [`SessionConfig::remote`] with daemon endpoints (`grape-worker
//! daemon --listen …`) to serve the same session from other processes or
//! machines over framed TCP or Unix-domain sockets; checkpoint-based worker
//! recovery works the same on both.
//!
//! ## Quickstart — one-shot engine
//!
//! The engine layer remains available for single fixpoints, with no
//! daemon, socket or wire codec in between:
//!
//! ```
//! use grape::prelude::*;
//!
//! // A small road-network-like graph.
//! let graph = grape::graph::generators::road_network(
//!     grape::graph::generators::RoadNetworkConfig { width: 16, height: 16, ..Default::default() },
//!     7,
//! ).unwrap();
//!
//! // Partition it into 4 fragments with the METIS-like strategy.
//! let assignment = BuiltinStrategy::MetisLike.partition(&graph, 4);
//!
//! // Plug the sequential Dijkstra + incremental SSSP into GRAPE and run.
//! let engine = GrapeEngine::new(SsspProgram);
//! let result = engine.run_on_graph(&SsspQuery::new(0), &graph, &assignment).unwrap();
//! assert_eq!(result.output[&0], 0.0);
//! println!("{}", result.stats.summary());
//! ```

#![warn(missing_docs)]

pub use grape_algo as algo;
pub use grape_baseline as baseline;
pub use grape_comm as comm;
pub use grape_core as core;
pub use grape_graph as graph;
pub use grape_partition as partition;
pub use grape_worker as worker;

// The coherent public surface of the service mode, re-exported at the root:
// one import path for connect → load → submit plus the knobs it takes.
pub use grape_algo::{Query, QueryClass, QueryResult};
pub use grape_core::{EngineConfig, EngineConfigBuilder, ExecutionMode, RunStats};
pub use grape_graph::GraphMutation;
pub use grape_partition::BuiltinStrategy;
pub use grape_worker::{
    Endpoint, GrapeService, QueryHandle, QueryOutcome, ServiceHandle, ServiceOptions, Session,
    SessionConfig, SessionGraph, SessionUpdate, UpdateReceipt,
};

/// The most frequently used items, importable with `use grape::prelude::*`.
pub mod prelude {
    pub use grape_algo::{
        CcProgram, CcQuery, CfProgram, CfQuery, Gpar, KeywordProgram, KeywordQuery,
        MarketingProgram, MarketingQuery, PageRankProgram, PageRankQuery, SimProgram, SimQuery,
        SsspProgram, SsspQuery, SubIsoProgram, SubIsoQuery,
    };
    pub use grape_algo::{Query, QueryClass, QueryResult};
    pub use grape_baseline::{BlogelEngine, GasEngine, PregelEngine};
    pub use grape_core::{
        build_fragments, EngineConfig, EngineConfigBuilder, ExecutionMode, Fragment, GrapeEngine,
        GrapeResult, PieContext, PieProgram, RunStats, TransportKind, VertexId,
    };
    pub use grape_graph::{
        CsrGraph, DeltaGraph, DenseBitset, GraphBuilder, GraphMutation, LabeledGraph,
        MutationProfile, VertexDenseMap, WeightedGraph,
    };
    pub use grape_partition::{
        BuiltinStrategy, HashPartitioner, MetisLikePartitioner, PartitionAssignment, Partitioner,
    };
    pub use grape_worker::{
        QueryHandle, QueryOutcome, Session, SessionConfig, SessionGraph, SessionUpdate,
        UpdateReceipt,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_compose() {
        let graph = crate::graph::generators::barabasi_albert(100, 2, 1).unwrap();
        let assignment = BuiltinStrategy::Hash.partition(&graph, 2);
        let result = GrapeEngine::new(CcProgram)
            .run_on_graph(&CcQuery, &graph, &assignment)
            .unwrap();
        assert_eq!(result.output.len(), 100);
    }
}
