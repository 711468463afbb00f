//! Vertex → fragment assignments, kept as two aligned columns: the assigned
//! ids, ascending, and the owner of each. A partitioner assigns in the
//! graph's ascending order, so each `assign` is an append.

use grape_graph::VertexId;

/// Identifier of a fragment / worker. The paper uses `P_1 … P_n`.
pub type FragmentId = usize;

/// The result of a partitioning pass: a total map from vertices to fragments.
#[derive(Debug, Clone, Default)]
pub struct PartitionAssignment {
    /// Requested number of fragments.
    num_fragments: usize,
    /// Assigned vertices, ascending.
    ids: Vec<VertexId>,
    /// Owner fragment of each vertex, aligned with `ids`.
    owner: Vec<u32>,
}

impl PartitionAssignment {
    /// Creates an empty assignment targeting `num_fragments` fragments.
    pub fn new(num_fragments: usize) -> Self {
        Self::with_capacity(num_fragments, 0)
    }

    /// Creates an empty assignment targeting `num_fragments` fragments, with
    /// room for `vertices` vertices: a partitioner that knows `n` assigns
    /// them without regrowing the columns.
    pub fn with_capacity(num_fragments: usize, vertices: usize) -> Self {
        Self {
            num_fragments,
            ids: Vec::with_capacity(vertices),
            owner: Vec::with_capacity(vertices),
        }
    }

    /// Assigns a vertex to a fragment, or moves it there: an append for an
    /// id above every assigned one, a binary search for any other.
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
        let fragment = u32::try_from(fragment).expect("fragment ids fit a u32, as shipped");
        if self.ids.last().is_none_or(|&last| last < vertex) {
            self.ids.push(vertex);
            self.owner.push(fragment);
            return;
        }
        match self.ids.binary_search(&vertex) {
            Ok(i) => self.owner[i] = fragment,
            Err(i) => {
                self.ids.insert(i, vertex);
                self.owner.insert(i, fragment);
            }
        }
    }

    /// The fragment that owns `vertex`, if assigned.
    pub fn fragment_of(&self, vertex: VertexId) -> Option<FragmentId> {
        let i = self.ids.binary_search(&vertex).ok()?;
        Some(self.owner[i] as FragmentId)
    }

    /// Number of fragments this assignment targets.
    pub fn num_fragments(&self) -> usize {
        self.num_fragments
    }

    /// Number of vertices assigned so far.
    pub fn num_assigned(&self) -> usize {
        self.ids.len()
    }

    /// Iterates over `(vertex, fragment)` pairs in ascending vertex order.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, FragmentId)> + '_ {
        let owners = self.owner.iter().map(|&f| f as FragmentId);
        self.ids.iter().copied().zip(owners)
    }

    /// The assigned ids, ascending, and the owner of each.
    pub(crate) fn columns(&self) -> (&[VertexId], &[u32]) {
        (&self.ids, &self.owner)
    }

    /// Vertices owned by each fragment, as sorted vectors.
    pub fn members(&self) -> Vec<Vec<VertexId>> {
        let mut out = vec![Vec::new(); self.num_fragments];
        for (v, f) in self.iter() {
            out[f].push(v);
        }
        out
    }

    /// Sizes (vertex counts) of each fragment.
    pub fn sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.num_fragments];
        for &f in &self.owner {
            sizes[f as usize] += 1;
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
