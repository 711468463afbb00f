//! Compressed-sparse-row graph storage.
//!
//! [`CsrGraph`] is the immutable graph representation used throughout
//! GRAPE-RS: by the sequential reference algorithms, by the partitioners when
//! cutting a graph into fragments, and by the baseline engines. It stores the
//! forward adjacency as the classic `(offsets, targets)` pair and, optionally,
//! the reverse adjacency for algorithms that need in-edges (graph simulation,
//! PageRank, keyword search on undirected semantics).

use crate::delta::NetMutations;
use crate::types::{Direction, EdgeRecord, GraphError, VertexId};
use std::collections::HashMap;

/// Dense-index sentinel of the patch remap tables: the vertex has no
/// counterpart on the other side of the patch.
const ABSENT: u32 = u32::MAX;

/// An immutable compressed-sparse-row graph.
///
/// * `V` — per-vertex payload (label, attribute record, …).
/// * `E` — per-edge payload (weight, relation type, …).
///
/// Vertices carry arbitrary global [`VertexId`]s; internally they are mapped
/// to dense indices `0..num_vertices`. All adjacency queries accept global
/// ids and the dense index is available through [`CsrGraph::dense_index`] for
/// algorithms that want to use flat arrays keyed by vertex.
#[derive(Debug, Clone, PartialEq)]
pub struct CsrGraph<V, E> {
    /// Sorted list of global vertex ids; position = dense index.
    vertex_ids: Vec<VertexId>,
    /// Map from global id to dense index.
    index_of: HashMap<VertexId, u32>,
    /// Per-vertex payloads, indexed densely.
    vertex_data: Vec<V>,
    /// CSR offsets for out-edges (`len = n + 1`).
    out_offsets: Vec<usize>,
    /// Dense target indices for out-edges.
    out_targets: Vec<u32>,
    /// Edge payloads aligned with `out_targets`.
    out_data: Vec<E>,
    /// CSR offsets for in-edges, empty if reverse adjacency was not built.
    in_offsets: Vec<usize>,
    /// Dense source indices for in-edges.
    in_sources: Vec<u32>,
    /// For each in-edge, the position of the corresponding out-edge, so the
    /// payload can be shared without cloning.
    in_edge_pos: Vec<usize>,
}

impl<V, E> CsrGraph<V, E>
where
    V: Clone,
    E: Clone,
{
    /// Builds a CSR graph from vertex and edge records.
    ///
    /// `vertices` supplies `(id, payload)` pairs; every edge endpoint must be
    /// present. When `with_reverse` is true the in-adjacency is also built.
    pub fn from_records(
        vertices: Vec<(VertexId, V)>,
        edges: Vec<EdgeRecord<E>>,
        with_reverse: bool,
    ) -> Result<Self, GraphError> {
        let mut vertex_ids: Vec<VertexId> = vertices.iter().map(|(id, _)| *id).collect();
        vertex_ids.sort_unstable();
        vertex_ids.dedup();
        let index_of: HashMap<VertexId, u32> = vertex_ids
            .iter()
            .enumerate()
            .map(|(i, id)| (*id, i as u32))
            .collect();
        if index_of.len() != vertices.len() {
            // Duplicate vertex ids: keep the first payload for each id but
            // treat it as a parameter problem so callers notice.
            return Err(GraphError::InvalidParameter(
                "duplicate vertex ids supplied to CsrGraph::from_records".into(),
            ));
        }
        let n = vertex_ids.len();
        let mut vertex_data: Vec<Option<V>> = vec![None; n];
        for (id, data) in vertices {
            let idx = index_of[&id] as usize;
            vertex_data[idx] = Some(data);
        }
        let vertex_data: Vec<V> = vertex_data
            .into_iter()
            .map(|d| d.expect("filled"))
            .collect();

        // Count out-degrees.
        let mut out_degree = vec![0usize; n];
        for e in &edges {
            let s = *index_of
                .get(&e.src)
                .ok_or(GraphError::UnknownVertex(e.src))? as usize;
            let _ = *index_of
                .get(&e.dst)
                .ok_or(GraphError::UnknownVertex(e.dst))?;
            out_degree[s] += 1;
        }
        let mut out_offsets = vec![0usize; n + 1];
        for i in 0..n {
            out_offsets[i + 1] = out_offsets[i] + out_degree[i];
        }
        let m = edges.len();
        let mut out_targets = vec![0u32; m];
        let mut out_data: Vec<Option<E>> = vec![None; m];
        let mut cursor = out_offsets.clone();
        for e in &edges {
            let s = index_of[&e.src] as usize;
            let d = index_of[&e.dst];
            let pos = cursor[s];
            out_targets[pos] = d;
            out_data[pos] = Some(e.data.clone());
            cursor[s] += 1;
        }
        let out_data: Vec<E> = out_data.into_iter().map(|d| d.expect("filled")).collect();

        let (in_offsets, in_sources, in_edge_pos) = if with_reverse {
            reverse_adjacency(&out_offsets, &out_targets)
        } else {
            (Vec::new(), Vec::new(), Vec::new())
        };

        Ok(Self {
            vertex_ids,
            index_of,
            vertex_data,
            out_offsets,
            out_targets,
            out_data,
            in_offsets,
            in_sources,
            in_edge_pos,
        })
    }

    /// The graph after a net mutation batch, spliced from this graph's arrays
    /// by linear passes — no per-edge hashing, no [`EdgeRecord`] round trip.
    ///
    /// The result is field for field what [`CsrGraph::from_records`] builds
    /// from the equivalent records (surviving vertices plus `added_vertices`;
    /// surviving edges in their CSR order, then `added_edges` in list order):
    ///
    /// * `vertex_ids` is sorted, so vertex inserts and removes are one sorted
    ///   merge that also yields a monotone old → new dense-index remap;
    /// * every source's adjacency run keeps its survivors in order (a removed
    ///   `(src, dst)` pair drops all parallel copies, a removed vertex drops
    ///   its incident edges) and appends its additions in insertion order;
    /// * `index_of` is the old table with its values remapped in place, and
    ///   the reverse arrays are re-derived from the patched forward arrays by
    ///   the counting pass `from_records` runs.
    ///
    /// A removed vertex must be present, an added one must not be, and added
    /// edges must join vertices of the patched graph. Removed pairs that
    /// match no edge are ignored, as [`NetMutations`] allows.
    pub fn patched(&self, net: &NetMutations<V, E>) -> Result<Self, GraphError> {
        let mut removed: Vec<u32> = Vec::with_capacity(net.removed_vertices.len());
        for &v in &net.removed_vertices {
            removed.push(self.dense_index(v).ok_or(GraphError::UnknownVertex(v))?);
        }
        removed.sort_unstable();
        removed.dedup();
        let mut added: Vec<(VertexId, &V)> =
            net.added_vertices.iter().map(|(v, d)| (*v, d)).collect();
        added.sort_unstable_by_key(|&(v, _)| v);
        if added.windows(2).any(|w| w[0].0 == w[1].0)
            || added.iter().any(|&(v, _)| self.contains(v))
        {
            return Err(GraphError::InvalidParameter(
                "CsrGraph::patched: an added vertex is already present".into(),
            ));
        }

        // Vertex set: merge the sorted old ids with the sorted additions,
        // skipping removals. `remap` sends old dense indices to new ones,
        // `old_of` new ones back.
        let n_old = self.num_vertices();
        let n_new = n_old + added.len() - removed.len();
        let mut vertex_ids = Vec::with_capacity(n_new);
        let mut vertex_data = Vec::with_capacity(n_new);
        let mut remap = vec![ABSENT; n_old];
        let mut old_of = Vec::with_capacity(n_new);
        let mut next_removed = removed.iter().copied().peekable();
        let mut next_added = added.iter().copied().peekable();
        for (old, &id) in self.vertex_ids.iter().enumerate() {
            while let Some((new_id, data)) = next_added.next_if(|&(a, _)| a < id) {
                vertex_ids.push(new_id);
                vertex_data.push(data.clone());
                old_of.push(ABSENT);
            }
            if next_removed.next_if_eq(&(old as u32)).is_some() {
                continue;
            }
            remap[old] = vertex_ids.len() as u32;
            vertex_ids.push(id);
            vertex_data.push(self.vertex_data[old].clone());
            old_of.push(old as u32);
        }
        for (new_id, data) in next_added {
            vertex_ids.push(new_id);
            vertex_data.push(data.clone());
            old_of.push(ABSENT);
        }
        // Walking the cloned table's values hashes nothing; only the batch's
        // own vertices are removed or inserted by key.
        let mut index_of = self.index_of.clone();
        for &old in &removed {
            index_of.remove(&self.vertex_ids[old as usize]);
        }
        for dense in index_of.values_mut() {
            *dense = remap[*dense as usize];
        }
        for (new, &old) in old_of.iter().enumerate() {
            if old == ABSENT {
                index_of.insert(vertex_ids[new], new as u32);
            }
        }

        // The batch's edges by dense index: removed pairs over the old
        // indices, additions over the new ones, both grouped by source (the
        // stable sort keeps each source's insertion order).
        let mut dropped: Vec<(u32, u32)> = net
            .removed_edges
            .iter()
            .filter_map(|(s, d)| Some((self.dense_index(*s)?, self.dense_index(*d)?)))
            .collect();
        dropped.sort_unstable();
        let dense = |v: &VertexId| {
            index_of
                .get(v)
                .copied()
                .ok_or(GraphError::UnknownVertex(*v))
        };
        let mut appended: Vec<(u32, u32, &E)> = Vec::with_capacity(net.added_edges.len());
        for (s, d, data) in &net.added_edges {
            appended.push((dense(s)?, dense(d)?, data));
        }
        appended.sort_by_key(|&(s, _, _)| s);

        // Forward arrays: one pass over the new sources, splicing each run.
        let capacity = self.num_edges() + appended.len();
        let mut out_offsets = Vec::with_capacity(n_new + 1);
        let mut out_targets = Vec::with_capacity(capacity);
        let mut out_data = Vec::with_capacity(capacity);
        out_offsets.push(0);
        let mut next_appended = appended.into_iter().peekable();
        let mut dropped = dropped.as_slice();
        for (new, &old) in old_of.iter().enumerate() {
            if old != ABSENT {
                // Sources are visited in ascending old index, so the removed
                // pairs of this source are a prefix of what is left.
                let start = dropped.partition_point(|&(s, _)| s < old);
                let end = dropped.partition_point(|&(s, _)| s <= old);
                let dropped_here = &dropped[start..end];
                dropped = &dropped[end..];
                let o = old as usize;
                for pos in self.out_offsets[o]..self.out_offsets[o + 1] {
                    let target = self.out_targets[pos];
                    let kept = remap[target as usize];
                    if kept == ABSENT || dropped_here.iter().any(|&(_, d)| d == target) {
                        continue;
                    }
                    out_targets.push(kept);
                    out_data.push(self.out_data[pos].clone());
                }
            }
            while let Some((_, target, data)) = next_appended.next_if(|a| a.0 as usize == new) {
                out_targets.push(target);
                out_data.push(data.clone());
            }
            out_offsets.push(out_targets.len());
        }

        let (in_offsets, in_sources, in_edge_pos) = if self.in_offsets.is_empty() {
            (Vec::new(), Vec::new(), Vec::new())
        } else {
            reverse_adjacency(&out_offsets, &out_targets)
        };
        Ok(Self {
            vertex_ids,
            index_of,
            vertex_data,
            out_offsets,
            out_targets,
            out_data,
            in_offsets,
            in_sources,
            in_edge_pos,
        })
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.vertex_ids.len()
    }

    /// Number of directed edges.
    pub fn num_edges(&self) -> usize {
        self.out_targets.len()
    }

    /// Whether the reverse adjacency is available.
    pub fn has_reverse(&self) -> bool {
        !self.in_offsets.is_empty() || self.num_edges() == 0
    }

    /// Returns true if the graph contains the given global id.
    pub fn contains(&self, v: VertexId) -> bool {
        self.index_of.contains_key(&v)
    }

    /// The dense index (`0..n`) of a global vertex id.
    pub fn dense_index(&self, v: VertexId) -> Option<u32> {
        self.index_of.get(&v).copied()
    }

    /// The global id at a dense index.
    pub fn vertex_id(&self, dense: u32) -> VertexId {
        self.vertex_ids[dense as usize]
    }

    /// The global id at a dense index (the inverse of
    /// [`CsrGraph::dense_index`]; alias of [`CsrGraph::vertex_id`] used by
    /// dense-path code for symmetry with `dense_index`).
    #[inline]
    pub fn vertex_of(&self, dense: u32) -> VertexId {
        self.vertex_id(dense)
    }

    /// Out-degree of the vertex at dense index `u`.
    #[inline]
    pub fn out_degree_dense(&self, u: u32) -> usize {
        self.out_offsets[u as usize + 1] - self.out_offsets[u as usize]
    }

    /// The dense indices of the out-neighbours of the vertex at dense index
    /// `u`, as a flat slice into the CSR target array.
    #[inline]
    pub fn out_neighbors_dense(&self, u: u32) -> &[u32] {
        &self.out_targets[self.out_offsets[u as usize]..self.out_offsets[u as usize + 1]]
    }

    /// The edge payloads of the out-edges of `u`, aligned element-for-element
    /// with [`CsrGraph::out_neighbors_dense`].
    #[inline]
    pub fn out_edge_data_dense(&self, u: u32) -> &[E] {
        &self.out_data[self.out_offsets[u as usize]..self.out_offsets[u as usize + 1]]
    }

    /// Iterates over the out-edges of dense vertex `u` as
    /// `(dense_target, &edge_data)` — the dense counterpart of
    /// [`CsrGraph::out_edges`].
    #[inline]
    pub fn out_edges_dense(&self, u: u32) -> impl Iterator<Item = (u32, &E)> + '_ {
        self.out_neighbors_dense(u)
            .iter()
            .copied()
            .zip(self.out_edge_data_dense(u))
    }

    /// The dense indices of the in-neighbours of the vertex at dense index
    /// `u`. Empty when the reverse adjacency was not built.
    #[inline]
    pub fn in_neighbors_dense(&self, u: u32) -> &[u32] {
        if self.in_offsets.is_empty() {
            return &[];
        }
        &self.in_sources[self.in_offsets[u as usize]..self.in_offsets[u as usize + 1]]
    }

    /// Iterates over the in-edges of dense vertex `u` as
    /// `(dense_source, &edge_data)`, sharing payloads with the out-edge
    /// arrays. Empty when the reverse adjacency was not built.
    pub fn in_edges_dense(&self, u: u32) -> impl Iterator<Item = (u32, &E)> + '_ {
        let range = if self.in_offsets.is_empty() {
            0..0
        } else {
            self.in_offsets[u as usize]..self.in_offsets[u as usize + 1]
        };
        range.map(move |pos| (self.in_sources[pos], &self.out_data[self.in_edge_pos[pos]]))
    }

    /// Iterator over all global vertex ids in ascending order.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.vertex_ids.iter().copied()
    }

    /// Slice of all global vertex ids in ascending order.
    pub fn vertex_ids(&self) -> &[VertexId] {
        &self.vertex_ids
    }

    /// Payload of a vertex.
    pub fn vertex_data(&self, v: VertexId) -> Option<&V> {
        self.dense_index(v).map(|i| &self.vertex_data[i as usize])
    }

    /// Payload of a vertex by dense index.
    pub fn vertex_data_at(&self, dense: u32) -> &V {
        &self.vertex_data[dense as usize]
    }

    /// Out-degree of a vertex. Returns 0 for unknown vertices.
    pub fn out_degree(&self, v: VertexId) -> usize {
        match self.dense_index(v) {
            Some(i) => self.out_offsets[i as usize + 1] - self.out_offsets[i as usize],
            None => 0,
        }
    }

    /// In-degree of a vertex. Requires reverse adjacency; returns 0 otherwise.
    pub fn in_degree(&self, v: VertexId) -> usize {
        if self.in_offsets.is_empty() {
            return 0;
        }
        match self.dense_index(v) {
            Some(i) => self.in_offsets[i as usize + 1] - self.in_offsets[i as usize],
            None => 0,
        }
    }

    /// Degree in the requested direction (`Both` = out + in).
    pub fn degree(&self, v: VertexId, dir: Direction) -> usize {
        match dir {
            Direction::Out => self.out_degree(v),
            Direction::In => self.in_degree(v),
            Direction::Both => self.out_degree(v) + self.in_degree(v),
        }
    }

    /// Iterates over the out-neighbours of `v` as `(neighbour_id, &edge_data)`.
    pub fn out_edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, &E)> + '_ {
        let range = match self.dense_index(v) {
            Some(i) => self.out_offsets[i as usize]..self.out_offsets[i as usize + 1],
            None => 0..0,
        };
        range.map(move |pos| {
            (
                self.vertex_ids[self.out_targets[pos] as usize],
                &self.out_data[pos],
            )
        })
    }

    /// Iterates over the in-neighbours of `v` as `(neighbour_id, &edge_data)`.
    ///
    /// Returns an empty iterator when the reverse adjacency was not built.
    pub fn in_edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, &E)> + '_ {
        let range = match (self.dense_index(v), self.in_offsets.is_empty()) {
            (Some(i), false) => self.in_offsets[i as usize]..self.in_offsets[i as usize + 1],
            _ => 0..0,
        };
        range.map(move |pos| {
            (
                self.vertex_ids[self.in_sources[pos] as usize],
                &self.out_data[self.in_edge_pos[pos]],
            )
        })
    }

    /// Iterates over neighbours in the requested direction.
    pub fn neighbours(
        &self,
        v: VertexId,
        dir: Direction,
    ) -> Box<dyn Iterator<Item = (VertexId, &E)> + '_> {
        match dir {
            Direction::Out => Box::new(self.out_edges(v)),
            Direction::In => Box::new(self.in_edges(v)),
            Direction::Both => Box::new(self.out_edges(v).chain(self.in_edges(v))),
        }
    }

    /// Iterates over every directed edge as `(src, dst, &data)`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId, &E)> + '_ {
        (0..self.num_vertices()).flat_map(move |s| {
            let src = self.vertex_ids[s];
            (self.out_offsets[s]..self.out_offsets[s + 1]).map(move |pos| {
                (
                    src,
                    self.vertex_ids[self.out_targets[pos] as usize],
                    &self.out_data[pos],
                )
            })
        })
    }

    /// Collects all edges into owned [`EdgeRecord`]s (used by partitioners).
    pub fn edge_records(&self) -> Vec<EdgeRecord<E>> {
        self.edges()
            .map(|(s, d, w)| EdgeRecord::new(s, d, w.clone()))
            .collect()
    }

    /// Returns the subgraph induced by `keep`, preserving payloads.
    ///
    /// Edges are kept only when both endpoints are in `keep`.
    pub fn induced_subgraph(&self, keep: &std::collections::HashSet<VertexId>) -> Self {
        let vertices: Vec<(VertexId, V)> = self
            .vertices()
            .filter(|v| keep.contains(v))
            .map(|v| (v, self.vertex_data(v).expect("present").clone()))
            .collect();
        let edges: Vec<EdgeRecord<E>> = self
            .edges()
            .filter(|(s, d, _)| keep.contains(s) && keep.contains(d))
            .map(|(s, d, w)| EdgeRecord::new(s, d, w.clone()))
            .collect();
        Self::from_records(vertices, edges, self.has_reverse()).expect("subset of valid graph")
    }

    /// Total payload-free memory footprint estimate in bytes (offsets +
    /// targets + ids); used by the load balancer's workload estimates.
    pub fn memory_estimate(&self) -> usize {
        self.vertex_ids.len() * 8
            + self.out_offsets.len() * 8
            + self.out_targets.len() * 4
            + self.in_offsets.len() * 8
            + self.in_sources.len() * 4
    }
}

/// Derives the reverse adjacency `(in_offsets, in_sources, in_edge_pos)` of
/// forward CSR arrays by one counting pass: in-edges of a vertex are ordered
/// by source index, then by position in the source's run.
fn reverse_adjacency(
    out_offsets: &[usize],
    out_targets: &[u32],
) -> (Vec<usize>, Vec<u32>, Vec<usize>) {
    let n = out_offsets.len() - 1;
    let m = out_targets.len();
    let mut in_offsets = vec![0usize; n + 1];
    for &t in out_targets {
        in_offsets[t as usize + 1] += 1;
    }
    for i in 0..n {
        in_offsets[i + 1] += in_offsets[i];
    }
    let mut in_sources = vec![0u32; m];
    let mut in_edge_pos = vec![0usize; m];
    let mut cursor = in_offsets.clone();
    for s in 0..n {
        for pos in out_offsets[s]..out_offsets[s + 1] {
            let p = &mut cursor[out_targets[pos] as usize];
            in_sources[*p] = s as u32;
            in_edge_pos[*p] = pos;
            *p += 1;
        }
    }
    (in_offsets, in_sources, in_edge_pos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn diamond() -> CsrGraph<(), f64> {
        // 0 -> 1 (1.0), 0 -> 2 (2.0), 1 -> 3 (3.0), 2 -> 3 (1.0)
        let vs = vec![(0, ()), (1, ()), (2, ()), (3, ())];
        let es = vec![
            EdgeRecord::new(0, 1, 1.0),
            EdgeRecord::new(0, 2, 2.0),
            EdgeRecord::new(1, 3, 3.0),
            EdgeRecord::new(2, 3, 1.0),
        ];
        CsrGraph::from_records(vs, es, true).unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = diamond();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert!(g.has_reverse());
    }

    #[test]
    fn degrees() {
        let g = diamond();
        assert_eq!(g.out_degree(0), 2);
        assert_eq!(g.in_degree(0), 0);
        assert_eq!(g.out_degree(3), 0);
        assert_eq!(g.in_degree(3), 2);
        assert_eq!(g.degree(1, Direction::Both), 2);
        assert_eq!(g.out_degree(99), 0, "unknown vertices have degree zero");
    }

    #[test]
    fn out_and_in_edges() {
        let g = diamond();
        let outs: Vec<(VertexId, f64)> = g.out_edges(0).map(|(v, w)| (v, *w)).collect();
        assert_eq!(outs, vec![(1, 1.0), (2, 2.0)]);
        let ins: Vec<(VertexId, f64)> = g.in_edges(3).map(|(v, w)| (v, *w)).collect();
        assert_eq!(ins.len(), 2);
        assert!(ins.contains(&(1, 3.0)));
        assert!(ins.contains(&(2, 1.0)));
    }

    #[test]
    fn neighbours_both_directions() {
        let g = diamond();
        let both: Vec<VertexId> = g.neighbours(1, Direction::Both).map(|(v, _)| v).collect();
        assert_eq!(both, vec![3, 0]);
    }

    #[test]
    fn dense_index_round_trip() {
        let g = diamond();
        for v in g.vertices() {
            let d = g.dense_index(v).unwrap();
            assert_eq!(g.vertex_id(d), v);
        }
        assert!(g.dense_index(42).is_none());
    }

    #[test]
    fn non_contiguous_ids() {
        let vs = vec![(10, ()), (200, ()), (3_000_000_000u64, ())];
        let es = vec![
            EdgeRecord::new(10, 200, ()),
            EdgeRecord::new(200, 3_000_000_000u64, ()),
        ];
        let g = CsrGraph::from_records(vs, es, true).unwrap();
        assert_eq!(g.num_vertices(), 3);
        assert_eq!(g.out_degree(10), 1);
        assert_eq!(g.in_degree(3_000_000_000u64), 1);
    }

    #[test]
    fn unknown_endpoint_is_error() {
        let vs = vec![(0, ()), (1, ())];
        let es = vec![EdgeRecord::new(0, 7, ())];
        let err = CsrGraph::from_records(vs, es, false).unwrap_err();
        assert_eq!(err, GraphError::UnknownVertex(7));
    }

    #[test]
    fn duplicate_vertices_rejected() {
        let vs = vec![(0, ()), (0, ())];
        let err = CsrGraph::<(), ()>::from_records(vs, vec![], false).unwrap_err();
        assert!(matches!(err, GraphError::InvalidParameter(_)));
    }

    #[test]
    fn edges_iterator_visits_all() {
        let g = diamond();
        let all: Vec<(VertexId, VertexId)> = g.edges().map(|(s, d, _)| (s, d)).collect();
        assert_eq!(all.len(), 4);
        assert!(all.contains(&(2, 3)));
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        let g = diamond();
        let keep: HashSet<VertexId> = [0, 1, 3].into_iter().collect();
        let sub = g.induced_subgraph(&keep);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.num_edges(), 2); // 0->1 and 1->3
        assert_eq!(sub.out_degree(0), 1);
    }

    #[test]
    fn graph_without_reverse_has_empty_in_edges() {
        let vs = vec![(0, ()), (1, ())];
        let es = vec![EdgeRecord::new(0, 1, ())];
        let g = CsrGraph::from_records(vs, es, false).unwrap();
        assert!(!g.has_reverse());
        assert_eq!(g.in_edges(1).count(), 0);
        assert_eq!(g.in_degree(1), 0);
    }

    #[test]
    fn memory_estimate_positive() {
        let g = diamond();
        assert!(g.memory_estimate() > 0);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::<(), ()>::from_records(vec![], vec![], true).unwrap();
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.vertices().count(), 0);
    }

    #[test]
    fn self_loops_and_parallel_edges_are_preserved() {
        let vs = vec![(0, ()), (1, ())];
        let es = vec![
            EdgeRecord::new(0, 0, 1.0),
            EdgeRecord::new(0, 1, 2.0),
            EdgeRecord::new(0, 1, 3.0),
        ];
        let g = CsrGraph::from_records(vs, es, true).unwrap();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.out_degree(0), 3);
        assert_eq!(g.in_degree(1), 2);
        assert_eq!(g.in_degree(0), 1);
    }
}
