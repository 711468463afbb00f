//! Vertex → fragment assignments.

use grape_graph::VertexId;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Identifier of a fragment / worker. The paper uses `P_1 … P_n`.
pub type FragmentId = usize;

/// The result of a partitioning pass: a total map from vertices to fragments.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct PartitionAssignment {
    /// Requested number of fragments.
    num_fragments: usize,
    /// Vertex → fragment map.
    assignment: HashMap<VertexId, FragmentId>,
}

impl PartitionAssignment {
    /// Creates an empty assignment targeting `num_fragments` fragments.
    pub fn new(num_fragments: usize) -> Self {
        Self {
            num_fragments,
            assignment: HashMap::new(),
        }
    }

    /// Creates an empty assignment targeting `num_fragments` fragments, with
    /// room for `vertices` vertices: a partitioner that knows `n` assigns
    /// them without regrowing the map.
    pub fn with_capacity(num_fragments: usize, vertices: usize) -> Self {
        Self {
            num_fragments,
            assignment: HashMap::with_capacity(vertices),
        }
    }

    /// Assigns a vertex to a fragment.
    ///
    /// # Panics
    /// Panics if `fragment >= num_fragments`, which would indicate a buggy
    /// partitioner rather than bad user input.
    pub fn assign(&mut self, vertex: VertexId, fragment: FragmentId) {
        assert!(
            fragment < self.num_fragments,
            "fragment id {fragment} out of range (k = {})",
            self.num_fragments
        );
        self.assignment.insert(vertex, fragment);
    }

    /// The fragment that owns `vertex`, if assigned.
    pub fn fragment_of(&self, vertex: VertexId) -> Option<FragmentId> {
        self.assignment.get(&vertex).copied()
    }

    /// Number of fragments this assignment targets.
    pub fn num_fragments(&self) -> usize {
        self.num_fragments
    }

    /// Number of vertices assigned so far.
    pub fn num_assigned(&self) -> usize {
        self.assignment.len()
    }

    /// Iterates over `(vertex, fragment)` pairs in unspecified order.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, FragmentId)> + '_ {
        self.assignment.iter().map(|(v, f)| (*v, *f))
    }

    /// Vertices owned by each fragment, as sorted vectors.
    pub fn members(&self) -> Vec<Vec<VertexId>> {
        let mut out = vec![Vec::new(); self.num_fragments];
        for (&v, &f) in &self.assignment {
            out[f].push(v);
        }
        for m in &mut out {
            m.sort_unstable();
        }
        out
    }

    /// Sizes (vertex counts) of each fragment.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_fragments];
        for &f in self.assignment.values() {
            sizes[f] += 1;
        }
        sizes
    }

    /// Moves a vertex to a different fragment (used by the load balancer).
    pub fn reassign(&mut self, vertex: VertexId, fragment: FragmentId) {
        self.assign(vertex, fragment);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assign_and_query() {
        let mut a = PartitionAssignment::new(3);
        a.assign(10, 0);
        a.assign(11, 2);
        assert_eq!(a.fragment_of(10), Some(0));
        assert_eq!(a.fragment_of(11), Some(2));
        assert_eq!(a.fragment_of(12), None);
        assert_eq!(a.num_assigned(), 2);
        assert_eq!(a.num_fragments(), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_fragment_panics() {
        let mut a = PartitionAssignment::new(2);
        a.assign(0, 5);
    }

    #[test]
    fn members_and_sizes_agree() {
        let mut a = PartitionAssignment::new(2);
        for v in 0..10u64 {
            a.assign(v, (v % 2) as usize);
        }
        let members = a.members();
        let sizes = a.sizes();
        assert_eq!(members[0].len(), sizes[0]);
        assert_eq!(members[1].len(), sizes[1]);
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert!(members[0].windows(2).all(|w| w[0] < w[1]), "sorted");
    }

    #[test]
    fn reassign_moves_vertex() {
        let mut a = PartitionAssignment::new(2);
        a.assign(7, 0);
        a.reassign(7, 1);
        assert_eq!(a.fragment_of(7), Some(1));
        assert_eq!(a.num_assigned(), 1);
    }
}
