//! # grape-partition
//!
//! Graph partitioning for GRAPE-RS: the Partition Manager of the paper's
//! architecture (Fig. 2) and the partition strategies offered in the Play
//! panel (Section 3(2)): hash, 1D range, 2D grid, streaming (LDG / Fennel,
//! the Stanton–Kliot family) and a multilevel METIS-like strategy.
//!
//! Partitioning produces a [`PartitionAssignment`] (vertex → fragment), from
//! which [`fragment::build_fragments`] constructs the per-worker
//! [`Fragment`]s used by the PIE engine: each fragment knows its *inner*
//! vertices, its *outer* (mirror) vertices owned by other fragments, and
//! which fragments mirror each of its inner vertices — exactly the border
//! structure the paper's update parameters are declared over.

#![warn(missing_docs)]

pub mod assignment;
pub mod exchange;
pub mod fragment;
pub mod multilevel;
pub mod mutate;
pub mod quality;
pub mod strategy;
pub mod streaming;

pub use assignment::{FragmentId, PartitionAssignment};
pub use exchange::ExchangeLayout;
pub use fragment::{build_fragments, Fragment, FragmentParts};
pub use multilevel::MetisLikePartitioner;
pub use mutate::{resolve_net_mutations, FragmentView, ResolvedMutations};
pub use quality::{evaluate_partition, PartitionQuality};
pub use strategy::{
    hash_fragment_of, Grid2DPartitioner, HashPartitioner, Partitioner, RangePartitioner,
};
pub use streaming::{FennelPartitioner, LdgPartitioner};

/// The built-in strategies, in the order they appear in the demo UI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BuiltinStrategy {
    /// Hash vertices to fragments (the default of most vertex-centric systems).
    Hash,
    /// Contiguous ranges of the vertex-id space.
    Range,
    /// 2-D grid partition of the id space.
    Grid2D,
    /// Linear deterministic greedy streaming partitioner.
    Ldg,
    /// Fennel streaming partitioner.
    Fennel,
    /// Multilevel (METIS-like) partitioner.
    MetisLike,
}

impl BuiltinStrategy {
    /// All builtin strategies.
    pub fn all() -> &'static [BuiltinStrategy] {
        &[
            BuiltinStrategy::Hash,
            BuiltinStrategy::Range,
            BuiltinStrategy::Grid2D,
            BuiltinStrategy::Ldg,
            BuiltinStrategy::Fennel,
            BuiltinStrategy::MetisLike,
        ]
    }

    /// Human-readable name used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            BuiltinStrategy::Hash => "hash",
            BuiltinStrategy::Range => "range-1d",
            BuiltinStrategy::Grid2D => "grid-2d",
            BuiltinStrategy::Ldg => "ldg-streaming",
            BuiltinStrategy::Fennel => "fennel-streaming",
            BuiltinStrategy::MetisLike => "metis-like",
        }
    }

    /// Partitions `graph` into `k` fragments with this strategy.
    pub fn partition<V: Clone, E: Clone>(
        &self,
        graph: &grape_graph::CsrGraph<V, E>,
        k: usize,
    ) -> PartitionAssignment {
        match self {
            BuiltinStrategy::Hash => HashPartitioner.partition(graph, k),
            BuiltinStrategy::Range => RangePartitioner.partition(graph, k),
            BuiltinStrategy::Grid2D => Grid2DPartitioner.partition(graph, k),
            BuiltinStrategy::Ldg => LdgPartitioner::default().partition(graph, k),
            BuiltinStrategy::Fennel => FennelPartitioner::default().partition(graph, k),
            BuiltinStrategy::MetisLike => MetisLikePartitioner::default().partition(graph, k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grape_graph::generators::{barabasi_albert, road_network, RoadNetworkConfig};

    #[test]
    fn all_builtin_strategies_cover_every_vertex() {
        let g = barabasi_albert(300, 3, 5).unwrap();
        for strategy in BuiltinStrategy::all() {
            let assignment = strategy.partition(&g, 4);
            assert_eq!(
                assignment.num_assigned(),
                g.num_vertices(),
                "strategy {} must assign every vertex",
                strategy.name()
            );
            assert!(assignment.num_fragments() <= 4);
        }
    }

    #[test]
    fn metis_like_beats_hash_on_road_networks() {
        let g = road_network(
            RoadNetworkConfig {
                width: 32,
                height: 32,
                removal_prob: 0.0,
                shortcut_prob: 0.0,
                ..Default::default()
            },
            3,
        )
        .unwrap();
        let hash = evaluate_partition(&g, &BuiltinStrategy::Hash.partition(&g, 8));
        let metis = evaluate_partition(&g, &BuiltinStrategy::MetisLike.partition(&g, 8));
        assert!(
            metis.cut_edges * 2 < hash.cut_edges,
            "metis-like cut {} should be far below hash cut {}",
            metis.cut_edges,
            hash.cut_edges
        );
    }

    #[test]
    fn strategy_names_are_unique() {
        let names: std::collections::HashSet<_> =
            BuiltinStrategy::all().iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), BuiltinStrategy::all().len());
    }
}
