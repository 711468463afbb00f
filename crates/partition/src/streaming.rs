//! Streaming partition strategies.
//!
//! The paper's Play panel offers "a streaming-style partition algorithm [8]
//! that reduces cross edges" — reference [8] is Stanton & Kliot (KDD 2012).
//! The two best-known heuristics from that line of work are implemented
//! here:
//!
//! * **LDG** (Linear Deterministic Greedy): place each arriving vertex on the
//!   fragment holding most of its already-placed neighbours, damped by a
//!   capacity penalty `1 - size/capacity`.
//! * **Fennel**: interpolates between LDG and hash by charging a cost
//!   `α · γ · size^(γ-1)` for fragment size.
//!
//! Both stream vertices in id order and are deterministic. They share one
//! loop, `stream_vertices`, over dense indices: the fragment of every
//! placed vertex sits in a flat array, so counting a vertex's placed
//! neighbours is one load per edge, not a map lookup. Each partitioner only
//! scores the fragments.

use crate::assignment::{FragmentId, PartitionAssignment};
use crate::strategy::Partitioner;
use grape_graph::CsrGraph;

/// Streams `graph`'s vertices in id order and places each on the fragment
/// `choose(counts, sizes)` returns, where `counts[f]` is how many of the
/// vertex's already-placed neighbours, out-edges then in-edges with
/// multiplicity, sit on `f` (in-edges only where the reverse adjacency is
/// built), and `sizes[f]` is how many vertices `f` holds so far.
fn stream_vertices<V: Clone, E: Clone>(
    graph: &CsrGraph<V, E>,
    k: usize,
    mut choose: impl FnMut(&[usize], &[usize]) -> FragmentId,
) -> PartitionAssignment {
    const UNPLACED: u32 = u32::MAX;
    let n = graph.num_vertices();
    let mut assignment = PartitionAssignment::with_capacity(k, n);
    let mut part = vec![UNPLACED; n];
    let mut counts = vec![0usize; k];
    let mut sizes = vec![0usize; k];
    for u in 0..n as u32 {
        let neighbours = graph.out_neighbors_dense(u).iter();
        for &w in neighbours.chain(graph.in_neighbors_dense(u)) {
            let f = part[w as usize];
            if f != UNPLACED {
                counts[f as usize] += 1;
            }
        }
        let best = choose(&counts, &sizes);
        counts.fill(0);
        part[u as usize] = best as u32;
        sizes[best] += 1;
        assignment.assign(graph.vertex_of(u), best);
    }
    assignment
}

/// Linear Deterministic Greedy streaming partitioner.
#[derive(Debug, Clone, Copy)]
pub struct LdgPartitioner {
    /// Capacity slack factor: each fragment may hold up to
    /// `slack · n / k` vertices.
    pub slack: f64,
}

impl Default for LdgPartitioner {
    fn default() -> Self {
        Self { slack: 1.1 }
    }
}

impl Partitioner for LdgPartitioner {
    fn partition<V: Clone, E: Clone>(
        &self,
        graph: &CsrGraph<V, E>,
        k: usize,
    ) -> PartitionAssignment {
        let k = k.max(1);
        let n = graph.num_vertices();
        let capacity = (self.slack * n as f64 / k as f64).ceil().max(1.0);
        stream_vertices(graph, k, |counts, sizes| {
            let mut best = 0usize;
            let mut best_score = f64::NEG_INFINITY;
            for f in 0..k {
                let penalty = 1.0 - sizes[f] as f64 / capacity;
                let score = counts[f] as f64 * penalty;
                // Tie-break toward the emptiest fragment for balance.
                let score = score - sizes[f] as f64 * 1e-9;
                if score > best_score {
                    best_score = score;
                    best = f;
                }
            }
            best
        })
    }

    fn name(&self) -> &'static str {
        "ldg-streaming"
    }
}

/// Fennel streaming partitioner.
#[derive(Debug, Clone, Copy)]
pub struct FennelPartitioner {
    /// Exponent γ of the size cost (the paper's recommended 1.5).
    pub gamma: f64,
    /// Balance slack: hard cap of `slack · n / k` vertices per fragment.
    pub slack: f64,
}

impl Default for FennelPartitioner {
    fn default() -> Self {
        Self {
            gamma: 1.5,
            slack: 1.1,
        }
    }
}

impl Partitioner for FennelPartitioner {
    fn partition<V: Clone, E: Clone>(
        &self,
        graph: &CsrGraph<V, E>,
        k: usize,
    ) -> PartitionAssignment {
        let k = k.max(1);
        let n = graph.num_vertices();
        let m = graph.num_edges().max(1);
        // α chosen as in the Fennel paper: m · k^(γ-1) / n^γ.
        let alpha = m as f64 * (k as f64).powf(self.gamma - 1.0) / (n as f64).powf(self.gamma);
        let capacity = (self.slack * n as f64 / k as f64).ceil().max(1.0) as usize;
        stream_vertices(graph, k, |counts, sizes| {
            let mut best = 0usize;
            let mut best_score = f64::NEG_INFINITY;
            for f in 0..k {
                if sizes[f] >= capacity {
                    continue;
                }
                let size_cost =
                    alpha * self.gamma * (sizes[f] as f64).max(0.0).powf(self.gamma - 1.0);
                let score = counts[f] as f64 - size_cost;
                if score > best_score {
                    best_score = score;
                    best = f;
                }
            }
            if best_score == f64::NEG_INFINITY {
                // Every fragment is at capacity (can happen with tiny slack);
                // fall back to the smallest fragment.
                best = (0..k).min_by_key(|f| sizes[*f]).unwrap_or(0);
            }
            best
        })
    }

    fn name(&self) -> &'static str {
        "fennel-streaming"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quality::evaluate_partition;
    use crate::strategy::HashPartitioner;
    use grape_graph::generators::{barabasi_albert, road_network, RoadNetworkConfig};

    fn road() -> grape_graph::CsrGraph<(), f64> {
        road_network(
            RoadNetworkConfig {
                width: 24,
                height: 24,
                removal_prob: 0.0,
                shortcut_prob: 0.0,
                ..Default::default()
            },
            9,
        )
        .unwrap()
    }

    #[test]
    fn ldg_covers_all_vertices_and_respects_k() {
        let g = barabasi_albert(400, 3, 2).unwrap();
        let a = LdgPartitioner::default().partition(&g, 5);
        assert_eq!(a.num_assigned(), 400);
        assert!(a.iter().all(|(_, f)| f < 5));
    }

    #[test]
    fn streaming_partitioners_cut_fewer_edges_than_hash() {
        let g = road();
        let hash = evaluate_partition(&g, &HashPartitioner.partition(&g, 8));
        let ldg = evaluate_partition(&g, &LdgPartitioner::default().partition(&g, 8));
        let fennel = evaluate_partition(&g, &FennelPartitioner::default().partition(&g, 8));
        assert!(
            ldg.cut_edges < hash.cut_edges,
            "ldg {} < hash {}",
            ldg.cut_edges,
            hash.cut_edges
        );
        assert!(
            fennel.cut_edges < hash.cut_edges,
            "fennel {} < hash {}",
            fennel.cut_edges,
            hash.cut_edges
        );
    }

    #[test]
    fn fennel_respects_capacity_slack() {
        let g = barabasi_albert(500, 3, 7).unwrap();
        let p = FennelPartitioner {
            gamma: 1.5,
            slack: 1.05,
        };
        let a = p.partition(&g, 4);
        let cap = (1.05_f64 * 500.0 / 4.0).ceil() as usize;
        for s in a.sizes() {
            assert!(s <= cap + 1, "size {s} exceeds capacity {cap}");
        }
    }

    #[test]
    fn ldg_balance_is_reasonable() {
        let g = barabasi_albert(600, 4, 11).unwrap();
        let a = LdgPartitioner::default().partition(&g, 6);
        let sizes = a.sizes();
        let max = *sizes.iter().max().unwrap();
        assert!(max as f64 <= 1.25 * 600.0 / 6.0, "sizes {sizes:?}");
    }

    #[test]
    fn empty_graph_is_fine() {
        let empty = grape_graph::CsrGraph::<(), ()>::from_records(vec![], vec![], false).unwrap();
        assert_eq!(
            LdgPartitioner::default()
                .partition(&empty, 3)
                .num_assigned(),
            0
        );
        assert_eq!(
            FennelPartitioner::default()
                .partition(&empty, 3)
                .num_assigned(),
            0
        );
    }
}
