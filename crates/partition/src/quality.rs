//! Partition-quality metrics.
//!
//! The demo's Analytics panel reports communication and computation cost per
//! partition strategy; those costs are driven by the structural quality of
//! the partition. This module computes the standard quality measures used to
//! compare strategies in the benchmark harness: edge cut, replication factor
//! and vertex balance.

use crate::assignment::PartitionAssignment;
use crate::fragment::Cut;
use grape_graph::CsrGraph;

/// Quality report for a partition of a specific graph.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionQuality {
    /// Number of fragments with at least one vertex.
    pub used_fragments: usize,
    /// Number of directed edges whose endpoints live on different fragments.
    pub cut_edges: usize,
    /// Fraction of edges cut (`cut_edges / num_edges`).
    pub cut_ratio: f64,
    /// Total number of mirror (outer) vertex copies across all fragments.
    pub mirror_vertices: usize,
    /// Average number of copies per vertex (1.0 = no replication).
    pub replication_factor: f64,
    /// Largest fragment size divided by the ideal size `n / k`.
    pub balance: f64,
    /// Vertex counts per fragment.
    pub sizes: Vec<usize>,
}

/// Evaluates the quality of `assignment` on `graph`, from the same pass
/// over the graph that [`build_fragments`](crate::build_fragments) cuts by.
pub fn evaluate_partition<V: Clone, E: Clone>(
    graph: &CsrGraph<V, E>,
    assignment: &PartitionAssignment,
) -> PartitionQuality {
    let cut = Cut::new(graph, assignment);
    let (k, n, m) = (cut.k, graph.num_vertices(), graph.num_edges());
    // Every edge is local to its source's fragment, and a cut edge to its
    // destination's as well; every mirror copy is one bit of a mask.
    let cut_edges = cut.num_edges.iter().sum::<usize>() - m;
    let mirrors: usize = cut.mirrors.iter().map(|w| w.count_ones() as usize).sum();
    let sizes = assignment.sizes();
    let used = sizes.iter().filter(|s| **s > 0).count();
    let ideal = if k == 0 { 0.0 } else { n as f64 / k as f64 };
    let max_size = sizes.iter().copied().max().unwrap_or(0);
    PartitionQuality {
        used_fragments: used,
        cut_edges,
        cut_ratio: if m == 0 {
            0.0
        } else {
            cut_edges as f64 / m as f64
        },
        mirror_vertices: mirrors,
        replication_factor: if n == 0 {
            1.0
        } else {
            (n + mirrors) as f64 / n as f64
        },
        balance: if ideal == 0.0 {
            1.0
        } else {
            max_size as f64 / ideal
        },
        sizes,
    }
}

impl PartitionQuality {
    /// Renders a one-line summary used by the bench harness tables.
    pub fn summary(&self) -> String {
        format!(
            "fragments={} cut={} ({:.2}%) replication={:.3} balance={:.3}",
            self.used_fragments,
            self.cut_edges,
            100.0 * self.cut_ratio,
            self.replication_factor,
            self.balance
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{HashPartitioner, Partitioner, RangePartitioner};
    use grape_graph::GraphBuilder;

    fn chain(n: u64) -> CsrGraph<(), f64> {
        let mut b = GraphBuilder::<(), f64>::new();
        for v in 0..n - 1 {
            b.add_edge(v, v + 1, 1.0);
        }
        b.build().unwrap()
    }

    #[test]
    fn chain_range_partition_cuts_k_minus_one_edges() {
        let g = chain(100);
        let a = RangePartitioner.partition(&g, 4);
        let q = evaluate_partition(&g, &a);
        assert_eq!(q.cut_edges, 3);
        assert_eq!(q.used_fragments, 4);
        assert!((q.balance - 1.0).abs() < 0.05);
        assert_eq!(q.mirror_vertices, 6, "each cut edge mirrors two vertices");
    }

    #[test]
    fn perfect_partition_of_disconnected_graph_has_zero_cut() {
        let mut b = GraphBuilder::<(), ()>::new();
        b.add_edge(0, 1, ());
        b.add_edge(10, 11, ());
        let g = b.build().unwrap();
        let mut a = PartitionAssignment::new(2);
        a.assign(0, 0);
        a.assign(1, 0);
        a.assign(10, 1);
        a.assign(11, 1);
        let q = evaluate_partition(&g, &a);
        assert_eq!(q.cut_edges, 0);
        assert_eq!(q.cut_ratio, 0.0);
        assert_eq!(q.replication_factor, 1.0);
    }

    #[test]
    fn cut_ratio_and_replication_are_consistent() {
        let g = chain(50);
        let a = HashPartitioner.partition(&g, 5);
        let q = evaluate_partition(&g, &a);
        assert!(q.cut_ratio >= 0.0 && q.cut_ratio <= 1.0);
        assert!(q.replication_factor >= 1.0);
        assert_eq!(q.sizes.iter().sum::<usize>(), 50);
        assert!(q.summary().contains("cut="));
    }

    #[test]
    fn empty_graph_quality() {
        let g = CsrGraph::<(), ()>::from_records(vec![], vec![], false).unwrap();
        let a = PartitionAssignment::new(3);
        let q = evaluate_partition(&g, &a);
        assert_eq!(q.cut_edges, 0);
        assert_eq!(q.balance, 1.0);
        assert_eq!(q.replication_factor, 1.0);
    }
}
