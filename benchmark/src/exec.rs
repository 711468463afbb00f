//! The two ways a query reaches the engine: a one-shot `GrapeEngine::run`
//! over prebuilt fragments, and `Session::submit(..).join()` against a
//! resident daemon. Both return the typed answer plus the run's `RunStats`,
//! and both turn every failure into an `Err` the caller counts.

use grape_algo::{CcProgram, CcQuery, PageRankProgram, Query, QueryResult, SsspProgram, SsspQuery};
use grape_core::par::ThreadCount;
use grape_core::{EngineConfig, Fragment, GrapeEngine, RunStats, TransportKind};
use grape_graph::generators::WeightedGraph;
use grape_partition::{build_fragments, BuiltinStrategy};
use grape_worker::Session;
use std::sync::Arc;

/// A query that does not converge fails in seconds and is counted.
pub const MAX_SUPERSTEPS: usize = 5000;

/// Engine settings common to every workload: one thread per worker, on the
/// client side and (through the query job) on the daemon side.
pub fn engine_config(transport: TransportKind, threads: u32) -> EngineConfig {
    EngineConfig::builder()
        .transport(transport)
        .threads_per_worker(ThreadCount::Fixed(threads))
        .max_supersteps(MAX_SUPERSTEPS)
        .build()
}

pub type Answer = Result<(QueryResult, RunStats), String>;

pub trait Executor {
    fn exec(&self, query: &Query) -> Answer;
}

/// One-shot execution over a fixed set of fragments.
pub struct OneShot {
    fragments: Arc<Vec<Fragment<(), f64>>>,
    sssp: GrapeEngine<SsspProgram>,
    cc: GrapeEngine<CcProgram>,
    pagerank: GrapeEngine<PageRankProgram>,
}

impl OneShot {
    pub fn new(
        fragments: Arc<Vec<Fragment<(), f64>>>,
        global_vertices: usize,
        config: EngineConfig,
    ) -> OneShot {
        OneShot {
            fragments,
            sssp: GrapeEngine::new(SsspProgram).with_config(config.clone()),
            cc: GrapeEngine::new(CcProgram).with_config(config.clone()),
            pagerank: GrapeEngine::new(PageRankProgram::new(global_vertices)).with_config(config),
        }
    }

    /// The plain run of the same problem: one fragment, `threads` threads.
    pub fn single_fragment(graph: &WeightedGraph, threads: u32) -> OneShot {
        let assignment = BuiltinStrategy::Hash.partition(graph, 1);
        OneShot::new(
            Arc::new(build_fragments(graph, &assignment)),
            graph.num_vertices(),
            engine_config(TransportKind::InProcess, threads),
        )
    }
}

impl Executor for OneShot {
    fn exec(&self, query: &Query) -> Answer {
        match query {
            Query::Sssp { source } => self
                .sssp
                .run(&SsspQuery::new(*source), &self.fragments)
                .map(|r| (QueryResult::Distances(r.output), r.stats)),
            Query::Cc => self
                .cc
                .run(&CcQuery, &self.fragments)
                .map(|r| (QueryResult::Components(r.output), r.stats)),
            Query::PageRank { .. } => self
                .pagerank
                .run(
                    &query.to_pagerank().expect("variant checked"),
                    &self.fragments,
                )
                .map(|r| (QueryResult::Ranks(r.output), r.stats)),
            other => return Err(format!("class {:?} is not benchmarked", other.class())),
        }
        .map_err(|e| e.to_string())
    }
}

impl Executor for Session {
    fn exec(&self, query: &Query) -> Answer {
        self.submit(query.clone())
            .and_then(|handle| handle.join())
            .map(|outcome| (outcome.result, outcome.stats))
            .map_err(|e| e.to_string())
    }
}
