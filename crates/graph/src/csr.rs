//! Compressed-sparse-row graph storage.
//!
//! [`CsrGraph`] is the immutable graph representation used throughout
//! GRAPE-RS: by the sequential reference algorithms, by the partitioners when
//! cutting a graph into fragments, and by the baseline engines. It stores the
//! forward adjacency as the classic `(offsets, targets)` pair and, optionally,
//! the reverse adjacency for algorithms that need in-edges (graph simulation,
//! PageRank, keyword search on undirected semantics).
//!
//! Global ids map to dense indices without hashing. When the ids span at
//! most eight times their count (`0..n`, a road grid with removed cells, a
//! fragment's slice of such a graph), a direct table answers
//! [`CsrGraph::dense_index`] in O(1), one indexed load; sparser id sets fall
//! back to a binary search over the sorted ids, O(log n), with no extra
//! memory.

use crate::delta::NetMutations;
use crate::types::{Direction, EdgeRecord, GraphError, VertexId};
use std::sync::Arc;

/// Dense-index sentinel: a hole of the direct index, or a vertex with no
/// counterpart on the other side of a patch in the patch remap tables.
const ABSENT: u32 = u32::MAX;

/// How many direct-table slots per vertex the id index may spend before it
/// switches to a binary search: the same 8× rule as the engine's border slot
/// translation.
const MAX_DENSE_WASTE: u64 = 8;

/// Global id → dense index, derived from the sorted `vertex_ids` it indexes.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum VertexIndex {
    /// `table[id - first]` is the dense index of `id`; [`ABSENT`] marks a
    /// hole. Used when the ids span at most [`MAX_DENSE_WASTE`] times their
    /// count. Shared like the ids it indexes.
    Direct {
        first: VertexId,
        table: Arc<Vec<u32>>,
    },
    /// A binary search over `vertex_ids`, for sparser (or no) ids.
    Sorted,
}

impl VertexIndex {
    /// The index over `ids`, which must be sorted and distinct.
    pub(crate) fn build(ids: &[VertexId]) -> Self {
        let (Some(&first), Some(&last)) = (ids.first(), ids.last()) else {
            return Self::Sorted;
        };
        // Sorted ids: `last - first` cannot overflow, even next to
        // `INVALID_VERTEX`; the table needs one slot more than that.
        let span = last - first;
        if span >= (ids.len() as u64).saturating_mul(MAX_DENSE_WASTE) {
            return Self::Sorted;
        }
        let mut table = vec![ABSENT; span as usize + 1];
        for (dense, &id) in (0u32..).zip(ids) {
            table[(id - first) as usize] = dense;
        }
        Self::Direct {
            first,
            table: Arc::new(table),
        }
    }

    /// The dense index of `v` among `ids` (the slice the index was built on).
    #[inline]
    pub(crate) fn find(&self, ids: &[VertexId], v: VertexId) -> Option<u32> {
        match self {
            Self::Direct { first, table } => {
                let slot = usize::try_from(v.checked_sub(*first)?).ok()?;
                table.get(slot).copied().filter(|&i| i != ABSENT)
            }
            Self::Sorted => ids.binary_search(&v).ok().map(|i| i as u32),
        }
    }

    /// Bytes of the direct table (the sorted form owns nothing).
    fn memory(&self) -> usize {
        match self {
            Self::Direct { table, .. } => table.len() * 4,
            Self::Sorted => 0,
        }
    }
}

/// Edge positions per block of the shift table an edges-only patch remaps
/// `in_edge_pos` through.
const SHIFT_BLOCK: usize = 256;

/// A shift-table block that holds a step of the shift function.
const MIXED_SHIFTS: isize = isize::MIN;

/// Dense indices are `u32` with [`ABSENT`] reserved, and `in_edge_pos` holds
/// edge positions as `u32`: refuse a graph either would not fit.
fn check_dense_range(vertices: usize, edges: usize) -> Result<(), GraphError> {
    if vertices >= ABSENT as usize || edges > u32::MAX as usize {
        return Err(GraphError::InvalidParameter(format!(
            "CsrGraph holds fewer than 2^32 - 1 vertices and at most 2^32 - 1 edges, \
             got {vertices} vertices and {edges} edges"
        )));
    }
    Ok(())
}

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
    /// Sorted list of global vertex ids; position = dense index. Shared
    /// with the graphs an edges-only [`CsrGraph::patched`] derives.
    vertex_ids: Arc<Vec<VertexId>>,
    /// Global id → dense index over `vertex_ids`.
    index: VertexIndex,
    /// Per-vertex payloads, indexed densely; shared like `vertex_ids`.
    vertex_data: Arc<Vec<V>>,
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
    in_edge_pos: Vec<u32>,
}

impl<V, E> CsrGraph<V, E>
where
    V: Clone,
    E: Clone,
{
    /// Builds a CSR graph from vertex and edge records.
    ///
    /// `vertices` supplies `(id, payload)` pairs in any order; every edge
    /// endpoint must be present. Each source's out-edges keep the order of
    /// `edges`. When `with_reverse` is true the in-adjacency is also built.
    ///
    /// Cost: one sort of the vertex records (linear when they come sorted),
    /// one pass resolving both endpoints of every record through the id
    /// index, and one stable counting-sort scatter of the targets and
    /// payloads into CSR order; then the reverse arrays by one more counting
    /// pass. No record is hashed and no edge is compared.
    pub fn from_records(
        mut vertices: Vec<(VertexId, V)>,
        edges: Vec<EdgeRecord<E>>,
        with_reverse: bool,
    ) -> Result<Self, GraphError> {
        vertices.sort_unstable_by_key(|&(id, _)| id);
        if vertices.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err(GraphError::InvalidParameter(
                "duplicate vertex ids supplied to CsrGraph::from_records".into(),
            ));
        }
        let (vertex_ids, vertex_data) = vertices.into_iter().unzip();
        Self::from_id_columns(vertex_ids, vertex_data, edges, with_reverse)
    }

    /// [`CsrGraph::from_records`] past its vertex sort: `vertex_ids` is
    /// strictly ascending and `vertex_data` aligned with it.
    pub(crate) fn from_id_columns(
        vertex_ids: Vec<VertexId>,
        vertex_data: Vec<V>,
        edges: Vec<EdgeRecord<E>>,
        with_reverse: bool,
    ) -> Result<Self, GraphError> {
        check_dense_range(vertex_ids.len(), edges.len())?;
        debug_assert!(crate::strictly_ascending(&vertex_ids));
        let index = VertexIndex::build(&vertex_ids);
        let n = vertex_ids.len();

        // Resolve both endpoints of every record once, counting out-degrees.
        let m = edges.len();
        let mut sources = Vec::with_capacity(m);
        let mut targets = Vec::with_capacity(m);
        let mut out_offsets = vec![0usize; n + 1];
        let dense = |v| {
            index
                .find(&vertex_ids, v)
                .ok_or(GraphError::UnknownVertex(v))
        };
        for e in &edges {
            let s = dense(e.src)?;
            targets.push(dense(e.dst)?);
            sources.push(s);
            out_offsets[s as usize + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
        }
        // A stable counting sort: each record goes to the next free slot of
        // its source's run. The payload column starts as clones of the first
        // payload (a fill for plain-data payloads), each overwritten once.
        let mut out_targets = vec![0u32; m];
        let mut out_data = match edges.first() {
            Some(e) => vec![e.data.clone(); m],
            None => Vec::new(),
        };
        let mut cursor = out_offsets[..n].to_vec();
        for ((e, &s), t) in edges.into_iter().zip(&sources).zip(targets) {
            let p = &mut cursor[s as usize];
            out_targets[*p] = t;
            out_data[*p] = e.data;
            *p += 1;
        }
        Ok(Self::assemble(
            vertex_ids,
            index,
            vertex_data,
            (out_offsets, out_targets, out_data),
            with_reverse,
        ))
    }

    /// Builds a CSR graph from its sorted parts: the strictly ascending
    /// `vertex_ids` with their payloads, and the forward adjacency in CSR
    /// form — `out_offsets` (`n + 1` entries from 0), dense `out_targets`
    /// and the payloads aligned with them. The id index and, when
    /// `with_reverse` is true, the reverse arrays are derived.
    ///
    /// Cost: one linear check of the parts, the id index, and one counting
    /// pass for the reverse arrays; the parts are moved in, not copied.
    /// Parts that break a rule are a [`GraphError::InvalidParameter`].
    pub fn from_sorted_parts(
        vertex_ids: Vec<VertexId>,
        vertex_data: Vec<V>,
        (out_offsets, out_targets, out_data): (Vec<usize>, Vec<u32>, Vec<E>),
        with_reverse: bool,
    ) -> Result<Self, GraphError> {
        let n = vertex_ids.len();
        check_dense_range(n, out_targets.len())?;
        let refuse = |rule: &str| {
            Err(GraphError::InvalidParameter(format!(
                "CsrGraph::from_sorted_parts: {rule}"
            )))
        };
        if !crate::strictly_ascending(&vertex_ids) || vertex_data.len() != n {
            return refuse("the ids are not strictly ascending or not aligned with the payloads");
        }
        if out_offsets.len() != n + 1
            || out_offsets[0] != 0
            || !out_offsets.is_sorted()
            || out_offsets[n] != out_targets.len()
            || out_data.len() != out_targets.len()
        {
            return refuse("the offsets do not split the targets and payloads into runs");
        }
        if out_targets.iter().any(|&t| t as usize >= n) {
            return refuse("a target is not a dense index");
        }
        let index = VertexIndex::build(&vertex_ids);
        Ok(Self::assemble(
            vertex_ids,
            index,
            vertex_data,
            (out_offsets, out_targets, out_data),
            with_reverse,
        ))
    }

    /// The graph over checked sorted parts and the index of their ids.
    fn assemble(
        vertex_ids: Vec<VertexId>,
        index: VertexIndex,
        vertex_data: Vec<V>,
        (out_offsets, out_targets, out_data): (Vec<usize>, Vec<u32>, Vec<E>),
        with_reverse: bool,
    ) -> Self {
        let (in_offsets, in_sources, in_edge_pos) = if with_reverse {
            reverse_adjacency(&out_offsets, &out_targets)
        } else {
            (Vec::new(), Vec::new(), Vec::new())
        };
        Self {
            vertex_ids: Arc::new(vertex_ids),
            index,
            vertex_data: Arc::new(vertex_data),
            out_offsets,
            out_targets,
            out_data,
            in_offsets,
            in_sources,
            in_edge_pos,
        }
    }

    /// The graph after a net mutation batch, spliced from this graph's arrays
    /// by linear passes — no per-edge hashing, no [`EdgeRecord`] round trip.
    ///
    /// The result is field for field what [`CsrGraph::from_records`] builds
    /// from the equivalent records (surviving vertices plus `added_vertices`;
    /// surviving edges in their CSR order, then `added_edges` in list order):
    /// every source's adjacency run keeps its survivors in order (a removed
    /// `(src, dst)` pair drops all parallel copies, a removed vertex drops its
    /// incident edges) and appends its additions in insertion order.
    ///
    /// Two paths, by what the batch does to the vertex set:
    ///
    /// * **Edges only** (no vertex added or removed): the dense indices do
    ///   not move, so the ids, payloads and id index are shared with this
    ///   graph, not copied; every untouched adjacency run is copied whole
    ///   with its offset shifted by a running count, and the reverse arrays
    ///   are patched run by run — a new source joins its target's in-run in
    ///   source order, and every `in_edge_pos` shifts by the net insertions
    ///   before it, read from a table with one entry per 256 edge
    ///   positions. Cost: one copy of the edge arrays plus
    ///   O(batch · degree).
    /// * **Vertex changes**: `vertex_ids` is sorted, so vertex inserts and
    ///   removes are one sorted merge that also yields a monotone old → new
    ///   dense-index remap; every edge is re-targeted through it, the id
    ///   index is rebuilt by one linear pass over the new ids, and the reverse
    ///   arrays are re-derived by the counting pass `from_records` runs.
    ///
    /// A removed vertex must be present, an added one must not be, and added
    /// edges must join vertices of the patched graph. Removed pairs that
    /// match no edge are ignored, as [`NetMutations`] allows.
    pub fn patched(&self, net: &NetMutations<V, E>) -> Result<Self, GraphError> {
        if net.added_vertices.is_empty() && net.removed_vertices.is_empty() {
            return self.patched_edges(net);
        }
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
        let index = VertexIndex::build(&vertex_ids);

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
            index
                .find(&vertex_ids, *v)
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
        check_dense_range(n_new, out_targets.len())?;
        Ok(Self::assemble(
            vertex_ids,
            index,
            vertex_data,
            (out_offsets, out_targets, out_data),
            !self.in_offsets.is_empty(),
        ))
    }

    /// [`CsrGraph::patched`] for a batch that adds and removes no vertex.
    fn patched_edges(&self, net: &NetMutations<V, E>) -> Result<Self, GraphError> {
        // The batch's edges by dense index, grouped by source (the stable
        // sort keeps each source's insertion order).
        let mut dropped: Vec<(u32, u32)> = net
            .removed_edges
            .iter()
            .filter_map(|(s, d)| Some((self.dense_index(*s)?, self.dense_index(*d)?)))
            .collect();
        dropped.sort_unstable();
        dropped.dedup();
        let dense = |v: &VertexId| self.dense_index(*v).ok_or(GraphError::UnknownVertex(*v));
        let mut appended: Vec<(u32, u32, &E)> = Vec::with_capacity(net.added_edges.len());
        for (s, d, data) in &net.added_edges {
            appended.push((dense(s)?, dense(d)?, data));
        }
        appended.sort_by_key(|&(s, _, _)| s);
        let n = self.num_vertices();

        // Forward arrays: untouched runs are copied whole, touched ones are
        // spliced. `moved` records, from each old edge position on, how far
        // a surviving edge moves (`new - old`), wherever that changes.
        let touched = sorted_distinct(
            dropped
                .iter()
                .map(|p| p.0)
                .chain(appended.iter().map(|a| a.0)),
        );
        let capacity = self.num_edges() + appended.len();
        let mut out_offsets = Vec::with_capacity(n + 1);
        let mut out_targets = Vec::with_capacity(capacity);
        let mut out_data = Vec::with_capacity(capacity);
        let mut moved: Vec<(usize, isize)> = Vec::new();
        // `(target, source, new position)` of every added edge.
        let mut added_in: Vec<(u32, u32, u32)> = Vec::with_capacity(appended.len());
        out_offsets.push(0);
        let mut copied = 0;
        let (mut dropped_rest, mut appended_rest) = (dropped.as_slice(), appended.as_slice());
        for s in touched.iter().map(|&s| s as usize).chain([n]) {
            let (from, to) = (self.out_offsets[copied], self.out_offsets[s]);
            let shift = out_targets.len() as isize - from as isize;
            if moved.last().map_or(0, |&(_, m)| m) != shift {
                moved.push((from, shift));
            }
            out_targets.extend_from_slice(&self.out_targets[from..to]);
            out_data.extend_from_slice(&self.out_data[from..to]);
            let shifted = self.out_offsets[copied + 1..=s].iter();
            out_offsets.extend(shifted.map(|&o| o.wrapping_add_signed(shift)));
            if s == n {
                break;
            }
            let split = dropped_rest.partition_point(|&(src, _)| src as usize <= s);
            let (dropped_here, rest) = dropped_rest.split_at(split);
            dropped_rest = rest;
            for pos in self.out_offsets[s]..self.out_offsets[s + 1] {
                let target = self.out_targets[pos];
                if dropped_here.iter().any(|&(_, d)| d == target) {
                    continue;
                }
                let shift = out_targets.len() as isize - pos as isize;
                if moved.last().map_or(0, |&(_, m)| m) != shift {
                    moved.push((pos, shift));
                }
                out_targets.push(target);
                out_data.push(self.out_data[pos].clone());
            }
            let split = appended_rest.partition_point(|a| a.0 as usize <= s);
            let (appended_here, rest) = appended_rest.split_at(split);
            appended_rest = rest;
            for &(_, target, data) in appended_here {
                added_in.push((target, s as u32, out_targets.len() as u32));
                out_targets.push(target);
                out_data.push(data.clone());
            }
            out_offsets.push(out_targets.len());
            copied = s + 1;
        }
        check_dense_range(n, out_targets.len())?;

        let (in_offsets, in_sources, in_edge_pos) = if self.in_offsets.is_empty() {
            (Vec::new(), Vec::new(), Vec::new())
        } else {
            // Old edge position → new. `moved` is a step function; a block
            // of positions with no step inside shares one shift, read from
            // a small table, and only the blocks with a step search it.
            let shift_at = |old: usize| {
                let i = moved.partition_point(|&(from, _)| from <= old);
                if i == 0 {
                    0
                } else {
                    moved[i - 1].1
                }
            };
            let block_shift: Vec<isize> = (0..self.num_edges().div_ceil(SHIFT_BLOCK))
                .map(|b| {
                    let (start, end) = (b * SHIFT_BLOCK, (b + 1) * SHIFT_BLOCK);
                    let next = moved.partition_point(|&(from, _)| from <= start);
                    match moved.get(next) {
                        Some(&(from, _)) if from < end => MIXED_SHIFTS,
                        _ => shift_at(start),
                    }
                })
                .collect();
            let new_pos = |old: u32| {
                let old = old as usize;
                let shift = match block_shift[old / SHIFT_BLOCK] {
                    MIXED_SHIFTS => shift_at(old),
                    shift => shift,
                };
                (old as isize + shift) as u32
            };
            added_in.sort_unstable();
            let touched = sorted_distinct(
                dropped
                    .iter()
                    .map(|p| p.1)
                    .chain(added_in.iter().map(|a| a.0)),
            );
            let m = out_targets.len();
            let mut in_offsets = Vec::with_capacity(n + 1);
            let mut in_sources = Vec::with_capacity(m);
            let mut in_edge_pos = Vec::with_capacity(m);
            in_offsets.push(0);
            let mut copied = 0;
            let mut added_rest = added_in.as_slice();
            for t in touched.iter().map(|&t| t as usize).chain([n]) {
                let (from, to) = (self.in_offsets[copied], self.in_offsets[t]);
                let shift = in_sources.len() as isize - from as isize;
                in_sources.extend_from_slice(&self.in_sources[from..to]);
                in_edge_pos.extend(self.in_edge_pos[from..to].iter().map(|&p| new_pos(p)));
                let shifted = self.in_offsets[copied + 1..=t].iter();
                in_offsets.extend(shifted.map(|&o| o.wrapping_add_signed(shift)));
                if t == n {
                    break;
                }
                // The in-run stays ordered by source, then by position: a new
                // source goes after every surviving entry of a smaller or
                // equal source.
                let split = added_rest.partition_point(|a| a.0 as usize <= t);
                let (added_here, rest) = added_rest.split_at(split);
                added_rest = rest;
                let mut added_here = added_here.iter().peekable();
                for i in self.in_offsets[t]..self.in_offsets[t + 1] {
                    let source = self.in_sources[i];
                    while let Some(&(_, s, pos)) = added_here.next_if(|a| a.1 < source) {
                        in_sources.push(s);
                        in_edge_pos.push(pos);
                    }
                    if dropped.binary_search(&(source, t as u32)).is_err() {
                        in_sources.push(source);
                        in_edge_pos.push(new_pos(self.in_edge_pos[i]));
                    }
                }
                for &(_, s, pos) in added_here {
                    in_sources.push(s);
                    in_edge_pos.push(pos);
                }
                in_offsets.push(in_sources.len());
                copied = t + 1;
            }
            (in_offsets, in_sources, in_edge_pos)
        };
        Ok(Self {
            vertex_ids: Arc::clone(&self.vertex_ids),
            index: self.index.clone(),
            vertex_data: Arc::clone(&self.vertex_data),
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
        self.dense_index(v).is_some()
    }

    /// The dense index (`0..n`) of a global vertex id, without hashing: O(1)
    /// through a direct table when the ids span at most eight times their
    /// count, O(log n) by binary search over the sorted ids otherwise.
    #[inline]
    pub fn dense_index(&self, v: VertexId) -> Option<u32> {
        self.index.find(&self.vertex_ids, v)
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
        range.map(move |pos| {
            (
                self.in_sources[pos],
                &self.out_data[self.in_edge_pos[pos] as usize],
            )
        })
    }

    /// Iterator over all global vertex ids in ascending order.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.vertex_ids.iter().copied()
    }

    /// Slice of all global vertex ids in ascending order.
    pub fn vertex_ids(&self) -> &[VertexId] {
        &self.vertex_ids
    }

    /// The vertex-id column itself, for holders that keep it beside state
    /// aligned with it and would otherwise copy it.
    pub fn shared_vertex_ids(&self) -> &Arc<Vec<VertexId>> {
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
                &self.out_data[self.in_edge_pos[pos] as usize],
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

    /// The parts [`CsrGraph::from_sorted_parts`] takes, borrowed: ids,
    /// payloads, and the forward offsets, targets and edge payloads.
    #[allow(clippy::type_complexity)]
    pub fn sorted_parts(&self) -> (&[VertexId], &[V], (&[usize], &[u32], &[E])) {
        (
            &self.vertex_ids,
            &self.vertex_data,
            (&self.out_offsets, &self.out_targets, &self.out_data),
        )
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

    /// Memory footprint estimate in bytes: every array the graph owns (ids,
    /// id index, offsets, targets, reverse arrays, and the payload arrays at
    /// their inline size; heap memory behind a payload is not counted).
    pub fn memory_estimate(&self) -> usize {
        self.vertex_ids.len() * size_of::<VertexId>()
            + self.index.memory()
            + self.vertex_data.len() * size_of::<V>()
            + (self.out_offsets.len() + self.in_offsets.len()) * size_of::<usize>()
            + (self.out_targets.len() + self.in_sources.len() + self.in_edge_pos.len()) * 4
            + self.out_data.len() * size_of::<E>()
    }
}

/// The distinct values of `values`, ascending.
fn sorted_distinct(values: impl Iterator<Item = u32>) -> Vec<u32> {
    let mut out: Vec<u32> = values.collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Derives the reverse adjacency `(in_offsets, in_sources, in_edge_pos)` of
/// forward CSR arrays by one counting pass: in-edges of a vertex are ordered
/// by source index, then by position in the source's run.
fn reverse_adjacency(
    out_offsets: &[usize],
    out_targets: &[u32],
) -> (Vec<usize>, Vec<u32>, Vec<u32>) {
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
    let mut in_edge_pos = vec![0u32; m];
    let mut cursor = in_offsets.clone();
    for s in 0..n {
        for pos in out_offsets[s]..out_offsets[s + 1] {
            let p = &mut cursor[out_targets[pos] as usize];
            in_sources[*p] = s as u32;
            in_edge_pos[*p] = pos as u32;
            *p += 1;
        }
    }
    (in_offsets, in_sources, in_edge_pos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::{HashMap, HashSet};

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
    fn memory_estimate_counts_every_array_in_both_index_forms() {
        // Ids 32 B, offsets 2 × 5 × 8 B, targets + in-sources + in-edge
        // positions 3 × 4 × 4 B, weights 4 × 8 B; `()` payloads take none.
        let arrays = 32 + 80 + 48 + 32;
        let g = diamond();
        assert!(matches!(g.index, VertexIndex::Direct { .. }));
        assert_eq!(g.memory_estimate(), arrays + 4 * 4, "direct table: 4 slots");
        let spread = |v: VertexId| 100 * v;
        let sparse = CsrGraph::from_records(
            g.vertices().map(|v| (spread(v), ())).collect(),
            g.edges()
                .map(|(s, d, w)| EdgeRecord::new(spread(s), spread(d), *w))
                .collect(),
            true,
        )
        .unwrap();
        assert_eq!(sparse.index, VertexIndex::Sorted);
        assert_eq!(
            sparse.memory_estimate(),
            arrays,
            "the sorted index owns nothing"
        );
    }

    #[test]
    fn sorted_parts_build_what_from_records_builds_and_bad_parts_are_refused() {
        let g = diamond();
        let parts = || {
            let n = g.num_vertices() as u32;
            let offsets = (0..=n).map(|u| g.out_offsets[u as usize]).collect();
            (g.vertex_ids().to_vec(), vec![(); n as usize], offsets)
        };
        let (ids, data, offsets) = parts();
        let run = (offsets, g.out_targets.clone(), g.out_data.clone());
        assert_eq!(
            CsrGraph::from_sorted_parts(ids, data, run, true).unwrap(),
            g
        );
        type Edit = dyn Fn(&mut Vec<VertexId>, &mut Vec<usize>, &mut Vec<u32>);
        let refused = |edit: &Edit| {
            let (mut ids, data, mut offsets) = parts();
            let mut targets = g.out_targets.clone();
            edit(&mut ids, &mut offsets, &mut targets);
            let run = (offsets, targets, g.out_data.clone());
            matches!(
                CsrGraph::from_sorted_parts(ids, data, run, true),
                Err(GraphError::InvalidParameter(_))
            )
        };
        assert!(refused(&|ids, _, _| ids.swap(0, 1)), "ids out of order");
        assert!(refused(&|ids, _, _| ids[1] = ids[0]), "a repeated id");
        assert!(refused(&|_, offsets, _| offsets[0] = 1), "offsets from 1");
        assert!(
            refused(&|_, offsets, _| offsets.swap(1, 2)),
            "falling offsets"
        );
        assert!(
            refused(&|_, offsets, _| offsets.truncate(4)),
            "short offsets"
        );
        assert!(refused(&|_, _, targets| targets[3] = 4), "a target past n");
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

    /// Sorted distinct id sets of every shape the index tells apart: empty,
    /// contiguous, gapped within 8× (direct), sparse beyond 8× (sorted),
    /// dense or sparse sets ending at `u64::MAX`, and sets whose span is one
    /// short of 8× their count (direct) or exactly that (sorted).
    fn arb_id_set() -> impl Strategy<Value = Vec<VertexId>> {
        (0u8..8, 0u64..1_000).prop_flat_map(|(kind, first)| {
            let (steps, count) = match kind {
                0 => (1u64..2, 0..1),
                1 | 6 | 7 => (1..2, 1..40),
                2 | 4 => (1..5, 1..40),
                _ => (17..1 << 40, 1..40),
            };
            proptest::collection::vec(steps, count).prop_map(move |steps| {
                if kind == 0 {
                    return Vec::new();
                }
                let mut offsets = vec![0u64];
                for step in steps {
                    offsets.push(offsets.last().unwrap() + step);
                }
                if kind >= 6 {
                    let count = offsets.len() as u64;
                    *offsets.last_mut().unwrap() = 8 * count - 1 + u64::from(kind - 6);
                }
                let span = *offsets.last().unwrap();
                if kind == 4 || kind == 5 {
                    offsets.iter().map(|o| u64::MAX - span + o).collect()
                } else {
                    offsets.iter().map(|o| first + o).collect()
                }
            })
        })
    }

    /// Every id, its neighbours on both sides (the misses below `first`,
    /// above `last` and in the holes), the ends of the id space and `random`.
    fn probes(ids: &[VertexId], random: &[u64]) -> Vec<VertexId> {
        let mut probes = vec![0, u64::MAX];
        probes.extend_from_slice(random);
        for &v in ids {
            probes.extend(
                [Some(v), v.checked_sub(1), v.checked_add(1)]
                    .into_iter()
                    .flatten(),
            );
        }
        probes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn id_index_agrees_with_a_hash_map(
            ids in arb_id_set(),
            random in proptest::collection::vec(0u64..u64::MAX, 0..8),
        ) {
            let g = CsrGraph::<u32, ()>::from_records(
                ids.iter().zip(0u32..).map(|(&v, i)| (v, i)).collect(),
                vec![],
                false,
            )
            .unwrap();
            let direct = match (ids.first(), ids.last()) {
                (Some(&first), Some(&last)) => last - first < 8 * ids.len() as u64,
                _ => false,
            };
            prop_assert_eq!(matches!(g.index, VertexIndex::Direct { .. }), direct);
            let reference: HashMap<VertexId, u32> = ids.iter().copied().zip(0u32..).collect();
            for v in probes(&ids, &random) {
                prop_assert_eq!(g.dense_index(v), reference.get(&v).copied(), "probe {}", v);
                prop_assert_eq!(g.contains(v), reference.contains_key(&v), "probe {}", v);
            }
        }

        #[test]
        fn from_records_ignores_the_order_of_vertex_records(
            ids in arb_id_set(),
            edges in proptest::collection::vec((0usize..40, 0usize..40, 0u32..9), 0..30),
            keys in proptest::collection::vec(0u64..u64::MAX, 40..41),
        ) {
            if ids.is_empty() {
                return Ok(());
            }
            let at = |i: usize| ids[i % ids.len()];
            let records = || -> Vec<EdgeRecord<u32>> {
                edges.iter().map(|&(s, d, w)| EdgeRecord::new(at(s), at(d), w)).collect()
            };
            let vertices: Vec<(VertexId, u32)> = ids.iter().zip(0u32..).map(|(&v, i)| (v, i)).collect();
            let sorted = CsrGraph::from_records(vertices.clone(), records(), true).unwrap();
            let mut shuffled = vertices;
            shuffled.sort_by_key(|&(_, i)| keys[i as usize]);
            let rebuilt = CsrGraph::from_records(shuffled.clone(), records(), true).unwrap();
            prop_assert!(rebuilt == sorted);
            for (&v, i) in ids.iter().zip(0u32..) {
                prop_assert_eq!(rebuilt.vertex_data(v), Some(&i));
            }
            // A repeated id is refused wherever it sits.
            shuffled.insert(keys[0] as usize % shuffled.len(), (at(keys[1] as usize), 99));
            let duplicate = CsrGraph::from_records(shuffled, records(), true).unwrap_err();
            prop_assert!(matches!(duplicate, GraphError::InvalidParameter(_)));
        }
    }
}
