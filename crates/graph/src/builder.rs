//! Incremental graph construction.
//!
//! [`GraphBuilder`] accumulates vertices and edges in insertion order and
//! finalizes into a [`CsrGraph`]. It tolerates edges that mention vertices
//! which were never explicitly added (they receive the default payload),
//! which matches how raw edge-list datasets are usually consumed.
//!
//! Insertions only append; [`GraphBuilder::build`] sorts the explicit ids
//! and the endpoints they miss once, so no vertex id is hashed.

use crate::csr::{CsrGraph, VertexIndex};
use crate::merge_walk;
use crate::types::{EdgeRecord, GraphError, VertexId};

/// Edge-at-a-time builder for [`CsrGraph`].
#[derive(Debug, Clone)]
pub struct GraphBuilder<V, E> {
    /// Ids ensured explicitly, duplicates included; edge endpoints are
    /// collected from `edges` at build time.
    ids: Vec<VertexId>,
    /// Explicit payloads in insertion order; the last one per id wins.
    payloads: Vec<(VertexId, V)>,
    edges: Vec<EdgeRecord<E>>,
    with_reverse: bool,
    symmetric: bool,
}

impl<V: Clone + Default, E: Clone> Default for GraphBuilder<V, E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Clone + Default, E: Clone> GraphBuilder<V, E> {
    /// Creates an empty builder that will also build the reverse adjacency.
    pub fn new() -> Self {
        Self {
            ids: Vec::new(),
            payloads: Vec::new(),
            edges: Vec::new(),
            with_reverse: true,
            symmetric: false,
        }
    }

    /// Configures whether the reverse (in-edge) adjacency is materialized.
    pub fn with_reverse(mut self, yes: bool) -> Self {
        self.with_reverse = yes;
        self
    }

    /// When set, every added edge `(u, v)` also inserts `(v, u)` with the
    /// same payload, producing an undirected graph in directed representation
    /// (the convention used for road networks in the paper's experiments).
    pub fn symmetric(mut self, yes: bool) -> Self {
        self.symmetric = yes;
        self
    }

    /// Adds (or overwrites) a vertex with an explicit payload.
    pub fn add_vertex(&mut self, id: VertexId, data: V) -> &mut Self {
        self.payloads.push((id, data));
        self
    }

    /// Ensures a vertex exists, with the default payload unless an explicit
    /// one is added before or after.
    pub fn ensure_vertex(&mut self, id: VertexId) -> &mut Self {
        self.ids.push(id);
        self
    }

    /// Adds a directed edge; endpoints are created on demand.
    pub fn add_edge(&mut self, src: VertexId, dst: VertexId, data: E) -> &mut Self {
        self.edges.push(EdgeRecord::new(src, dst, data.clone()));
        if self.symmetric && src != dst {
            self.edges.push(EdgeRecord::new(dst, src, data));
        }
        self
    }

    /// Number of distinct vertices currently known to the builder. Copies
    /// and sorts the explicit ids: meant for checks, not for a per-insert
    /// loop.
    pub fn num_vertices(&self) -> usize {
        Self::distinct_ids(self.ids.clone(), &self.payloads, &self.edges).len()
    }

    /// Number of edge records accumulated (including symmetric duplicates).
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Every id ensured, given a payload or touching an edge, ascending and
    /// distinct. Only the explicit ids and the endpoints they miss are
    /// sorted: each endpoint is looked up in the id index over the explicit
    /// ids (one load when they are dense, a binary search otherwise).
    fn distinct_ids(
        mut ids: Vec<VertexId>,
        payloads: &[(VertexId, V)],
        edges: &[EdgeRecord<E>],
    ) -> Vec<VertexId> {
        ids.extend(payloads.iter().map(|&(id, _)| id));
        ids.sort_unstable();
        ids.dedup();
        let index = VertexIndex::build(&ids);
        let mut missing: Vec<VertexId> = edges
            .iter()
            .flat_map(|e| [e.src, e.dst])
            .filter(|&v| index.find(&ids, v).is_none())
            .collect();
        if missing.is_empty() {
            return ids;
        }
        missing.sort_unstable();
        missing.dedup();
        let mut all = Vec::with_capacity(ids.len() + missing.len());
        merge_walk(&ids, &missing, |v, _, _| all.push(v));
        all
    }

    /// Finalizes into a [`CsrGraph`].
    ///
    /// Cost: a sort of the explicit ids (linear when they were ensured in
    /// ascending order, as the generators do) and of the payloads, one
    /// id-index lookup per endpoint to find the ids no one ensured, a sort
    /// of those alone, then [`CsrGraph::from_records`] past its vertex sort:
    /// one resolving pass and one counting-sort scatter of the records.
    pub fn build(mut self) -> Result<CsrGraph<V, E>, GraphError> {
        let ids = Self::distinct_ids(std::mem::take(&mut self.ids), &self.payloads, &self.edges);
        // A stable sort keeps each id's payloads in insertion order, so the
        // last of a run is the one that wins.
        self.payloads.sort_by_key(|&(id, _)| id);
        let mut payloads = self.payloads.into_iter().peekable();
        let data: Vec<V> = ids
            .iter()
            .map(|&id| {
                let mut data = None;
                while let Some((_, d)) = payloads.next_if(|&(p, _)| p == id) {
                    data = Some(d);
                }
                data.unwrap_or_default()
            })
            .collect();
        CsrGraph::from_id_columns(ids, data, self.edges, self.with_reverse)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_simple_graph() {
        let mut b = GraphBuilder::<(), f64>::new();
        b.add_edge(0, 1, 1.0).add_edge(1, 2, 2.0);
        let g = b.build().unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn symmetric_builder_duplicates_edges() {
        let mut b = GraphBuilder::<(), u32>::new().symmetric(true);
        b.add_edge(0, 1, 7);
        b.add_edge(2, 2, 9); // self loop must not be duplicated
        let g = b.build().unwrap();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.out_degree(1), 1);
        assert_eq!(g.out_degree(0), 1);
        assert_eq!(g.out_degree(2), 1);
    }

    #[test]
    fn explicit_vertex_payloads_survive() {
        let mut b = GraphBuilder::<u8, ()>::new();
        b.add_vertex(5, 42);
        b.add_edge(5, 6, ());
        let g = b.build().unwrap();
        assert_eq!(*g.vertex_data(5).unwrap(), 42);
        assert_eq!(
            *g.vertex_data(6).unwrap(),
            0,
            "implicit vertex uses default"
        );
    }

    #[test]
    fn no_reverse_option_respected() {
        let mut b = GraphBuilder::<(), ()>::new().with_reverse(false);
        b.add_edge(1, 2, ());
        let g = b.build().unwrap();
        assert!(!g.has_reverse());
    }

    #[test]
    fn isolated_vertices_survive() {
        let mut b = GraphBuilder::<(), ()>::new();
        b.ensure_vertex(3);
        b.add_edge(0, 1, ());
        let g = b.build().unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.out_degree(3), 0);
    }

    #[test]
    fn counts_track_insertions() {
        let mut b = GraphBuilder::<(), ()>::new();
        assert_eq!(b.num_vertices(), 0);
        b.add_edge(0, 1, ());
        assert_eq!(b.num_vertices(), 2);
        assert_eq!(b.num_edges(), 1);
    }

    #[test]
    fn the_last_explicit_payload_wins() {
        let mut b = GraphBuilder::<u8, ()>::new();
        b.add_vertex(1, 5).add_vertex(2, 6).add_vertex(1, 7);
        let g = b.build().unwrap();
        assert_eq!(g.vertex_data(1), Some(&7));
        assert_eq!(g.vertex_data(2), Some(&6));
    }

    #[test]
    fn ensure_vertex_after_add_vertex_keeps_the_payload() {
        let mut b = GraphBuilder::<u8, ()>::new();
        b.add_vertex(1, 5).ensure_vertex(1).add_edge(1, 2, ());
        assert_eq!(b.build().unwrap().vertex_data(1), Some(&5));
    }

    #[test]
    fn add_vertex_after_ensure_vertex_replaces_the_default() {
        let mut b = GraphBuilder::<u8, ()>::new();
        b.ensure_vertex(1).add_edge(2, 1, ()).add_vertex(1, 5);
        let g = b.build().unwrap();
        assert_eq!(g.vertex_data(1), Some(&5));
        assert_eq!(g.vertex_data(2), Some(&0));
    }

    #[test]
    fn num_vertices_counts_distinct_ids() {
        let mut b = GraphBuilder::<u8, ()>::new();
        b.ensure_vertex(4).ensure_vertex(4).add_vertex(4, 1);
        b.add_edge(4, 9, ()).add_edge(9, 4, ()).add_vertex(7, 2);
        assert_eq!(b.num_vertices(), 3);
        assert_eq!(b.build().unwrap().num_vertices(), 3);
    }
}
