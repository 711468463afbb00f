//! Graph updates: the mutation batch, how a batch is checked and netted,
//! and a delta overlay over the immutable [`CsrGraph`] that serves as the
//! reference for what a batch does to a graph.
//!
//! GRAPE's IncEval is a *bounded incremental* algorithm, which only pays off
//! if the graph can actually change between runs. A batch of
//! [`GraphMutation`]s is staged by [`stage_batch`] against a read-only
//! [`LiveView`] of the graph: checked in batch order, and netted into the
//! [`NetMutations`] that fragment holders splice. Staging changes nothing, so
//! a holder can splice and ship first and commit last.
//!
//! Two views implement [`LiveView`]. A session's resident fragments are one
//! (`grape_partition::FragmentView`): the owner of a vertex holds every edge
//! incident to it. [`DeltaGraph`] is the other, and the reference the splice
//! tests and the benchmark compare fragments against. It wraps a CSR base
//! and folds each accepted batch's net effect into small side structures —
//!
//! * **inserted vertices** are appended after the base's dense range, so every
//!   base vertex keeps its dense index;
//! * **deleted vertices and edges** become tombstones consulted by the
//!   read-through accessors, never holes in the packed arrays;
//! * **inserted edges** live in a per-source overlay adjacency.
//!
//! [`DeltaGraph::snapshot`] materializes the live view as a fresh CSR.
//!
//! Each staged batch comes with its [`AppliedBatch`] receipt: the *dirty
//! set* (live vertices whose local neighbourhood changed — the initial
//! IncEval frontier of an incremental run) and a [`MutationProfile`] that
//! incremental seeders use to decide whether a warm start is sound for their
//! algorithm (e.g. SSSP only for insert-only batches).

use crate::csr::CsrGraph;
use crate::types::{EdgeRecord, GraphError, VertexId};
use grape_comm::wire::{Wire, WireError, WireReader};
use std::collections::{BTreeSet, HashMap, HashSet};

/// A single graph update.
///
/// Mutations are staged in batch order by [`stage_batch`]; a batch is
/// validated against the evolving state, so e.g. an edge may target a vertex
/// inserted earlier in the same batch.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphMutation<V, E> {
    /// Insert a new vertex. Fails if the id is already live, and also if it
    /// was ever removed — by an earlier batch or earlier in this one. An id
    /// is never re-added, so state still keyed by it (its partition
    /// placement, a cached converged partial) never meets a new vertex.
    AddVertex {
        /// Global id of the new vertex.
        id: VertexId,
        /// Its payload.
        data: V,
    },
    /// Remove a vertex and every edge incident to it. Fails if not live.
    RemoveVertex {
        /// Global id of the vertex to remove.
        id: VertexId,
    },
    /// Insert one directed edge. Both endpoints must be live.
    AddEdge {
        /// Source vertex.
        src: VertexId,
        /// Destination vertex.
        dst: VertexId,
        /// Edge payload.
        data: E,
    },
    /// Remove **all** parallel copies of the directed edge `src -> dst`.
    /// Fails if no copy is live.
    RemoveEdge {
        /// Source vertex.
        src: VertexId,
        /// Destination vertex.
        dst: VertexId,
    },
}

impl<V: Wire, E: Wire> Wire for GraphMutation<V, E> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            GraphMutation::AddVertex { id, data } => {
                out.push(0);
                id.encode(out);
                data.encode(out);
            }
            GraphMutation::RemoveVertex { id } => {
                out.push(1);
                id.encode(out);
            }
            GraphMutation::AddEdge { src, dst, data } => {
                out.push(2);
                src.encode(out);
                dst.encode(out);
                data.encode(out);
            }
            GraphMutation::RemoveEdge { src, dst } => {
                out.push(3);
                src.encode(out);
                dst.encode(out);
            }
        }
    }

    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        match reader.u8()? {
            0 => Ok(GraphMutation::AddVertex {
                id: VertexId::decode(reader)?,
                data: V::decode(reader)?,
            }),
            1 => Ok(GraphMutation::RemoveVertex {
                id: VertexId::decode(reader)?,
            }),
            2 => Ok(GraphMutation::AddEdge {
                src: VertexId::decode(reader)?,
                dst: VertexId::decode(reader)?,
                data: E::decode(reader)?,
            }),
            3 => Ok(GraphMutation::RemoveEdge {
                src: VertexId::decode(reader)?,
                dst: VertexId::decode(reader)?,
            }),
            _ => Err(WireError::Malformed("unknown graph-mutation kind")),
        }
    }
}

/// Shape summary of one or more mutation batches.
///
/// Incremental seeders branch on this: a warm start that is only sound for,
/// say, insert-only updates checks `edge_deletes == 0 && vertex_deletes == 0`
/// and falls back to a cold run otherwise. Profiles from successive batches
/// [`merge`](MutationProfile::merge) into the profile of their concatenation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MutationProfile {
    /// Number of `AddEdge` mutations.
    pub edge_inserts: usize,
    /// Number of `RemoveEdge` mutations.
    pub edge_deletes: usize,
    /// Number of `AddVertex` mutations.
    pub vertex_inserts: usize,
    /// Number of `RemoveVertex` mutations.
    pub vertex_deletes: usize,
}

impl MutationProfile {
    /// Whether the profile records no mutations at all.
    pub fn is_empty(&self) -> bool {
        *self == Self::default()
    }

    /// Whether every recorded mutation is an insertion.
    pub fn insert_only(&self) -> bool {
        self.edge_deletes == 0 && self.vertex_deletes == 0
    }

    /// Whether every recorded mutation is a deletion.
    pub fn delete_only(&self) -> bool {
        self.edge_inserts == 0 && self.vertex_inserts == 0
    }

    /// Whether the live vertex set changed (inserts or deletes).
    pub fn vertex_set_changed(&self) -> bool {
        self.vertex_inserts > 0 || self.vertex_deletes > 0
    }

    /// Folds another profile in (profile of the concatenated batches).
    pub fn merge(&mut self, other: &MutationProfile) {
        self.edge_inserts += other.edge_inserts;
        self.edge_deletes += other.edge_deletes;
        self.vertex_inserts += other.vertex_inserts;
        self.vertex_deletes += other.vertex_deletes;
    }

    fn record<V, E>(&mut self, m: &GraphMutation<V, E>) {
        match m {
            GraphMutation::AddVertex { .. } => self.vertex_inserts += 1,
            GraphMutation::RemoveVertex { .. } => self.vertex_deletes += 1,
            GraphMutation::AddEdge { .. } => self.edge_inserts += 1,
            GraphMutation::RemoveEdge { .. } => self.edge_deletes += 1,
        }
    }
}

impl Wire for MutationProfile {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.edge_inserts as u64).encode(out);
        (self.edge_deletes as u64).encode(out);
        (self.vertex_inserts as u64).encode(out);
        (self.vertex_deletes as u64).encode(out);
    }

    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            edge_inserts: u64::decode(reader)? as usize,
            edge_deletes: u64::decode(reader)? as usize,
            vertex_inserts: u64::decode(reader)? as usize,
            vertex_deletes: u64::decode(reader)? as usize,
        })
    }
}

/// The **net** effect of a batch relative to the pre-batch live view, with
/// within-batch churn cancelled out: an edge added and then removed in the
/// same batch appears in neither list; removing a same-batch vertex erases
/// its insertion instead of recording a deletion.
///
/// This is what gets distributed to fragment holders: each fragment applies
/// the net removals to its current local state and then appends the net
/// additions, which reproduces — copy for copy, in order — the live view a
/// fresh cut of the updated graph would see.
#[derive(Debug, Clone, PartialEq)]
pub struct NetMutations<V, E> {
    /// Vertices live after the batch that were not live before, with their
    /// payloads, in insertion order.
    pub added_vertices: Vec<(VertexId, V)>,
    /// Edge copies live after the batch that were not live before, in
    /// insertion order (the per-source relative order matters: it is the
    /// CSR adjacency order of the updated graph).
    pub added_edges: Vec<(VertexId, VertexId, E)>,
    /// `(src, dst)` pairs whose pre-batch copies were all removed.
    pub removed_edges: Vec<(VertexId, VertexId)>,
    /// Pre-batch vertices removed by the batch (their incident pre-batch
    /// edges are implicitly removed too).
    pub removed_vertices: Vec<VertexId>,
}

impl<V, E> Default for NetMutations<V, E> {
    fn default() -> Self {
        Self {
            added_vertices: Vec::new(),
            added_edges: Vec::new(),
            removed_edges: Vec::new(),
            removed_vertices: Vec::new(),
        }
    }
}

impl<V, E> NetMutations<V, E> {
    /// Whether the batch had no net effect.
    pub fn is_empty(&self) -> bool {
        self.added_vertices.is_empty()
            && self.added_edges.is_empty()
            && self.removed_edges.is_empty()
            && self.removed_vertices.is_empty()
    }
}

impl<V: Wire, E: Wire> Wire for NetMutations<V, E> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.added_vertices.encode(out);
        self.added_edges.encode(out);
        self.removed_edges.encode(out);
        self.removed_vertices.encode(out);
    }

    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            added_vertices: Vec::decode(reader)?,
            added_edges: Vec::decode(reader)?,
            removed_edges: Vec::decode(reader)?,
            removed_vertices: Vec::decode(reader)?,
        })
    }
}

/// Receipt of one staged or applied mutation batch.
#[derive(Debug, Clone)]
pub struct AppliedBatch<V, E> {
    /// Live vertices whose local neighbourhood changed: endpoints of
    /// inserted/removed edges, inserted vertices, and the surviving
    /// neighbours of removed vertices. Sorted, deduplicated, and restricted
    /// to vertices that are still live after the batch — exactly the initial
    /// frontier an incremental run seeds IncEval with.
    pub dirty: Vec<VertexId>,
    /// Shape of the batch.
    pub profile: MutationProfile,
    /// The batch's net effect, ready to distribute to fragment holders.
    pub net: NetMutations<V, E>,
}

/// The read-only questions [`stage_batch`] asks of the graph a batch applies
/// to. [`DeltaGraph`] answers them from its base and overlay; a resident
/// fragment set answers them from the owner fragments and the partition
/// assignment (`grape_partition::FragmentView`). One staging routine over
/// both is what makes them agree on what a batch means.
pub trait LiveView<V> {
    /// Whether `v` is live.
    fn contains(&self, v: VertexId) -> bool;
    /// Whether `v` was live once and has been removed. Such an id is never
    /// re-added: per-vertex state keyed by it elsewhere may still exist.
    fn was_removed(&self, v: VertexId) -> bool;
    /// Targets of the live out-edges of `v`, one per parallel copy; empty
    /// unless `v` is live.
    fn out_targets(&self, v: VertexId) -> Vec<VertexId>;
    /// Sources of the live in-edges of `v`, one per parallel copy; empty
    /// unless `v` is live.
    fn in_sources(&self, v: VertexId) -> Vec<VertexId>;
    /// Payload of a live vertex.
    fn vertex_data(&self, v: VertexId) -> Option<&V>;
}

/// Checks a batch against `view` and nets it, without changing anything:
/// either every mutation is valid against the view as the batch's earlier
/// mutations left it, and the batch's receipt is returned, or the first
/// offending mutation's error is.
///
/// Mutations apply in batch order, so an edge may target a vertex inserted
/// earlier in the same batch. An id removed — by an earlier batch or earlier
/// in this one — is never re-added.
pub fn stage_batch<V: Clone, E: Clone>(
    view: &(impl LiveView<V> + ?Sized),
    batch: &[GraphMutation<V, E>],
) -> Result<AppliedBatch<V, E>, GraphError> {
    let mut staged = Staging {
        view,
        net: NetMutations::default(),
        dirty: BTreeSet::new(),
        born: HashSet::new(),
        gone: HashSet::new(),
        cut: HashSet::new(),
    };
    let mut profile = MutationProfile::default();
    for m in batch {
        staged.apply_one(m)?;
        profile.record(m);
    }
    let dirty = staged
        .dirty
        .iter()
        .copied()
        .filter(|&v| staged.contains(v))
        .collect();
    Ok(AppliedBatch {
        dirty,
        profile,
        net: staged.net,
    })
}

/// One batch in flight over a read-only view: the view as it was before the
/// batch, plus what the batch has done to it so far.
struct Staging<'a, G: ?Sized, V, E> {
    view: &'a G,
    /// The net effect so far. Its added edges are exactly the live copies
    /// this batch inserted, and its added vertices the live ids it inserted.
    net: NetMutations<V, E>,
    dirty: BTreeSet<VertexId>,
    /// Ids of `net.added_vertices`.
    born: HashSet<VertexId>,
    /// Every id this batch removed, pre-batch vertices and its own.
    gone: HashSet<VertexId>,
    /// Pairs whose pre-batch copies this batch removed.
    cut: HashSet<(VertexId, VertexId)>,
}

impl<G: LiveView<V> + ?Sized, V: Clone, E: Clone> Staging<'_, G, V, E> {
    fn contains(&self, v: VertexId) -> bool {
        self.born.contains(&v) || (!self.gone.contains(&v) && self.view.contains(v))
    }

    /// Whether a pre-batch copy of `s -> d` survives the batch so far.
    fn pre_batch_edge_live(&self, s: VertexId, d: VertexId) -> bool {
        !self.cut.contains(&(s, d)) && !self.gone.contains(&s) && !self.gone.contains(&d)
    }

    fn apply_one(&mut self, m: &GraphMutation<V, E>) -> Result<(), GraphError> {
        match m {
            GraphMutation::AddVertex { id, data } => {
                if self.contains(*id) {
                    return Err(GraphError::InvalidParameter(format!(
                        "AddVertex: vertex {id} already exists"
                    )));
                }
                if self.gone.contains(id) || self.view.was_removed(*id) {
                    return Err(GraphError::InvalidParameter(format!(
                        "AddVertex: vertex {id} was removed and cannot be re-inserted"
                    )));
                }
                self.born.insert(*id);
                self.net.added_vertices.push((*id, data.clone()));
                self.dirty.insert(*id);
            }
            GraphMutation::RemoveVertex { id } => {
                if !self.contains(*id) {
                    return Err(GraphError::UnknownVertex(*id));
                }
                // Neighbours lose an edge: they are the dirty frontier. A
                // vertex born in this batch has no pre-batch edges.
                let id = *id;
                if !self.born.contains(&id) {
                    for d in self.view.out_targets(id) {
                        if self.pre_batch_edge_live(id, d) {
                            self.dirty.insert(d);
                        }
                    }
                    for s in self.view.in_sources(id) {
                        if self.pre_batch_edge_live(s, id) {
                            self.dirty.insert(s);
                        }
                    }
                }
                for &(s, d, _) in &self.net.added_edges {
                    if s == id {
                        self.dirty.insert(d);
                    }
                    if d == id {
                        self.dirty.insert(s);
                    }
                }
                self.dirty.insert(id);
                // Net effect: a same-batch insertion simply disappears;
                // otherwise the pre-batch vertex is recorded as removed.
                // Same-batch edges incident to the vertex disappear too.
                self.net
                    .added_edges
                    .retain(|(s, d, _)| *s != id && *d != id);
                if self.born.remove(&id) {
                    self.net.added_vertices.retain(|(v, _)| *v != id);
                } else {
                    self.net.removed_vertices.push(id);
                }
                self.gone.insert(id);
            }
            GraphMutation::AddEdge { src, dst, data } => {
                for v in [src, dst] {
                    if !self.contains(*v) {
                        return Err(GraphError::UnknownVertex(*v));
                    }
                }
                self.net.added_edges.push((*src, *dst, data.clone()));
                self.dirty.insert(*src);
                self.dirty.insert(*dst);
            }
            GraphMutation::RemoveEdge { src, dst } => {
                let (src, dst) = (*src, *dst);
                let pre_batch_copy =
                    self.pre_batch_edge_live(src, dst) && self.view.out_targets(src).contains(&dst);
                let batch_copy = self
                    .net
                    .added_edges
                    .iter()
                    .any(|(s, d, _)| *s == src && *d == dst);
                if !pre_batch_copy && !batch_copy {
                    return Err(GraphError::InvalidParameter(format!(
                        "RemoveEdge: no live edge {src} -> {dst}"
                    )));
                }
                // Net effect: same-batch copies are cancelled outright, and
                // the pair is recorded as removed (holders remove by pair, so
                // recording it when no pre-batch copy exists matches nothing
                // and is harmless).
                self.net
                    .added_edges
                    .retain(|(s, d, _)| !(*s == src && *d == dst));
                if self.cut.insert((src, dst)) {
                    self.net.removed_edges.push((src, dst));
                }
                self.dirty.insert(src);
                self.dirty.insert(dst);
            }
        }
        Ok(())
    }
}

/// A [`CsrGraph`] plus a mutation overlay: insertions appended, deletions
/// tombstoned.
///
/// See the [module docs](self) for the design.
#[derive(Debug, Clone)]
pub struct DeltaGraph<V, E> {
    base: CsrGraph<V, E>,
    /// Ids of inserted vertices, in insertion order; `added_ids[i]` has
    /// stable dense index `base.num_vertices() + i`.
    added_ids: Vec<VertexId>,
    added_index: HashMap<VertexId, u32>,
    added_data: Vec<V>,
    /// Removed vertices, base and inserted alike: an id stays here for good,
    /// so it is never re-added.
    removed_vertices: HashSet<VertexId>,
    /// Overlay adjacency: inserted edges. Invariant: every entry is live
    /// (removals purge the overlay eagerly).
    extra_out: HashMap<VertexId, Vec<(VertexId, E)>>,
    /// Tombstoned base edges: `(src, dst)` suppresses every base copy.
    removed_edges: HashSet<(VertexId, VertexId)>,
}

impl<V: Clone + Default, E: Clone> DeltaGraph<V, E> {
    /// Wraps a base graph with an empty overlay.
    pub fn new(base: CsrGraph<V, E>) -> Self {
        Self {
            base,
            added_ids: Vec::new(),
            added_index: HashMap::new(),
            added_data: Vec::new(),
            removed_vertices: HashSet::new(),
            extra_out: HashMap::new(),
            removed_edges: HashSet::new(),
        }
    }

    /// Whether `v` is live (present and not tombstoned).
    pub fn contains(&self, v: VertexId) -> bool {
        !self.removed_vertices.contains(&v)
            && (self.base.contains(v) || self.added_index.contains_key(&v))
    }

    /// Number of live vertices.
    pub fn num_vertices(&self) -> usize {
        // Every tombstone names a previously-live vertex exactly once.
        self.base.num_vertices() + self.added_ids.len() - self.removed_vertices.len()
    }

    /// Number of live edges (counting parallel copies). `O(E)` — the delta
    /// layer sits outside the superstep loop, so clarity wins over caching.
    pub fn num_edges(&self) -> usize {
        let overlay: usize = self.extra_out.values().map(Vec::len).sum();
        let base_live = self
            .base
            .edges()
            .filter(|(s, d, _)| self.base_edge_live(*s, *d))
            .count();
        base_live + overlay
    }

    /// The stable dense index of a live vertex: its base index, or appended
    /// after the base range for inserted vertices. `None` for tombstoned /
    /// unknown vertices.
    pub fn dense_index(&self, v: VertexId) -> Option<u32> {
        if self.removed_vertices.contains(&v) {
            return None;
        }
        self.base.dense_index(v).or_else(|| {
            self.added_index
                .get(&v)
                .map(|i| self.base.num_vertices() as u32 + i)
        })
    }

    /// Live vertex ids: base order followed by insertion order.
    pub fn vertices(&self) -> Vec<VertexId> {
        self.base
            .vertex_ids()
            .iter()
            .chain(self.added_ids.iter())
            .copied()
            .filter(|v| !self.removed_vertices.contains(v))
            .collect()
    }

    /// Payload of a live vertex.
    pub fn vertex_data(&self, v: VertexId) -> Option<&V> {
        if self.removed_vertices.contains(&v) {
            return None;
        }
        self.base.vertex_data(v).or_else(|| {
            self.added_index
                .get(&v)
                .map(|&i| &self.added_data[i as usize])
        })
    }

    /// Live out-edges of `v`: surviving base copies first, then overlay
    /// insertions in insertion order.
    pub fn out_edges(&self, v: VertexId) -> Vec<(VertexId, E)> {
        let mut out = Vec::new();
        if !self.contains(v) {
            return out;
        }
        for (d, data) in self.base.out_edges(v) {
            if self.base_edge_live(v, d) {
                out.push((d, data.clone()));
            }
        }
        if let Some(extra) = self.extra_out.get(&v) {
            out.extend(extra.iter().cloned());
        }
        out
    }

    /// All live edges as records (base order, then overlay per-source order).
    pub fn live_edges(&self) -> Vec<EdgeRecord<E>> {
        let mut out = Vec::new();
        for (s, d, data) in self.base.edges() {
            if self.base_edge_live(s, d) {
                out.push(EdgeRecord::new(s, d, data.clone()));
            }
        }
        for v in self
            .base
            .vertex_ids()
            .iter()
            .chain(self.added_ids.iter())
            .copied()
        {
            if let Some(extra) = self.extra_out.get(&v) {
                for (d, data) in extra {
                    out.push(EdgeRecord::new(v, *d, data.clone()));
                }
            }
        }
        out
    }

    fn base_edge_live(&self, s: VertexId, d: VertexId) -> bool {
        !self.removed_edges.contains(&(s, d))
            && !self.removed_vertices.contains(&s)
            && !self.removed_vertices.contains(&d)
    }

    /// Applies a mutation batch atomically: [`stage_batch`] checks and nets
    /// it against the live view, and only an accepted batch's net effect is
    /// folded into the overlay. On `Err` the graph is untouched.
    pub fn apply(
        &mut self,
        batch: &[GraphMutation<V, E>],
    ) -> Result<AppliedBatch<V, E>, GraphError> {
        let applied = stage_batch(self, batch)?;
        let net = &applied.net;
        for &v in &net.removed_vertices {
            self.removed_vertices.insert(v);
            self.extra_out.remove(&v);
        }
        for &(s, d) in &net.removed_edges {
            self.removed_edges.insert((s, d));
            if let Some(extra) = self.extra_out.get_mut(&s) {
                extra.retain(|(t, _)| *t != d);
            }
        }
        if !net.removed_vertices.is_empty() {
            for extra in self.extra_out.values_mut() {
                extra.retain(|(d, _)| !self.removed_vertices.contains(d));
            }
        }
        self.extra_out.retain(|_, extra| !extra.is_empty());
        for (v, data) in &net.added_vertices {
            self.added_index.insert(*v, self.added_ids.len() as u32);
            self.added_ids.push(*v);
            self.added_data.push(data.clone());
        }
        for (s, d, data) in &net.added_edges {
            self.extra_out
                .entry(*s)
                .or_default()
                .push((*d, data.clone()));
        }
        Ok(applied)
    }

    /// Materializes the live view as a fresh CSR (the overlay is untouched).
    /// This is what a cold run on the updated graph executes against.
    pub fn snapshot(&self, with_reverse: bool) -> CsrGraph<V, E> {
        let vertices: Vec<(VertexId, V)> = self
            .vertices()
            .into_iter()
            .map(|v| (v, self.vertex_data(v).cloned().unwrap_or_default()))
            .collect();
        CsrGraph::from_records(vertices, self.live_edges(), with_reverse)
            .expect("live view is internally consistent")
    }
}

impl<V: Clone + Default, E: Clone> LiveView<V> for DeltaGraph<V, E> {
    fn contains(&self, v: VertexId) -> bool {
        DeltaGraph::contains(self, v)
    }

    fn was_removed(&self, v: VertexId) -> bool {
        self.removed_vertices.contains(&v)
    }

    fn out_targets(&self, v: VertexId) -> Vec<VertexId> {
        if !DeltaGraph::contains(self, v) {
            return Vec::new();
        }
        let base = self.base.out_edges(v).map(|(d, _)| d);
        let extra = self
            .extra_out
            .get(&v)
            .into_iter()
            .flatten()
            .map(|(d, _)| *d);
        base.filter(|&d| self.base_edge_live(v, d))
            .chain(extra)
            .collect()
    }

    fn in_sources(&self, v: VertexId) -> Vec<VertexId> {
        let mut out = Vec::new();
        if !DeltaGraph::contains(self, v) {
            return out;
        }
        if self.base.has_reverse() {
            out.extend(self.base.in_edges(v).map(|(s, _)| s));
        } else {
            out.extend(
                self.base
                    .edges()
                    .filter(|(_, d, _)| *d == v)
                    .map(|(s, _, _)| s),
            );
        }
        out.retain(|&s| self.base_edge_live(s, v));
        for (s, extra) in &self.extra_out {
            out.extend(extra.iter().filter(|(d, _)| *d == v).map(|_| *s));
        }
        out
    }

    fn vertex_data(&self, v: VertexId) -> Option<&V> {
        DeltaGraph::vertex_data(self, v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    type G = CsrGraph<(), f64>;

    fn diamond() -> G {
        // 0 -> 1 -> 3, 0 -> 2 -> 3
        let mut b = GraphBuilder::<(), f64>::new().with_reverse(true);
        b.add_edge(0, 1, 1.0);
        b.add_edge(1, 3, 1.0);
        b.add_edge(0, 2, 2.0);
        b.add_edge(2, 3, 2.0);
        b.build().unwrap()
    }

    fn add_edge(src: VertexId, dst: VertexId, w: f64) -> GraphMutation<(), f64> {
        GraphMutation::AddEdge { src, dst, data: w }
    }

    #[test]
    fn insertions_are_read_through_and_dense_index_stable() {
        let base = diamond();
        let base_idx: Vec<Option<u32>> = (0..4).map(|v| base.dense_index(v)).collect();
        let mut dg = DeltaGraph::new(base);
        let receipt = dg
            .apply(&[
                GraphMutation::AddVertex { id: 9, data: () },
                add_edge(3, 9, 0.5),
                add_edge(9, 0, 0.25),
            ])
            .unwrap();
        assert_eq!(receipt.dirty, vec![0, 3, 9]);
        assert!(receipt.profile.insert_only());
        assert_eq!(dg.num_vertices(), 5);
        assert_eq!(dg.num_edges(), 6);
        assert!(dg.contains(9));
        // Base vertices keep their dense indices; the new vertex is appended.
        for v in 0..4 {
            assert_eq!(dg.dense_index(v), base_idx[v as usize]);
        }
        assert_eq!(dg.dense_index(9), Some(4));
        assert_eq!(dg.out_edges(9), vec![(0, 0.25)]);
        let out3 = dg.out_edges(3);
        assert_eq!(out3, vec![(9, 0.5)]);
    }

    #[test]
    fn removals_tombstone_without_disturbing_live_state() {
        let mut dg = DeltaGraph::new(diamond());
        let receipt = dg
            .apply(&[GraphMutation::RemoveEdge { src: 0, dst: 2 }])
            .unwrap();
        assert_eq!(receipt.dirty, vec![0, 2]);
        assert!(receipt.profile.delete_only());
        assert_eq!(dg.num_edges(), 3);
        assert_eq!(dg.out_edges(0), vec![(1, 1.0)]);
        // Vertex removal drops the vertex and its incident edges, and dirties
        // the surviving neighbours.
        let receipt = dg.apply(&[GraphMutation::RemoveVertex { id: 1 }]).unwrap();
        assert_eq!(receipt.dirty, vec![0, 3]);
        assert!(!dg.contains(1));
        assert_eq!(dg.dense_index(1), None);
        assert_eq!(dg.num_vertices(), 3);
        assert_eq!(dg.num_edges(), 1); // only 2 -> 3 survives
        assert!(dg.out_edges(0).is_empty());
        assert_eq!(dg.vertices(), vec![0, 2, 3]);
    }

    #[test]
    fn invalid_mutations_leave_the_graph_untouched() {
        let mut dg = DeltaGraph::new(diamond());
        // Second mutation fails -> the first must not stick either.
        let err = dg
            .apply(&[add_edge(0, 3, 9.0), add_edge(0, 77, 1.0)])
            .unwrap_err();
        assert!(matches!(err, GraphError::UnknownVertex(77)));
        assert_eq!(dg.num_edges(), 4);
        assert!(dg.out_edges(0).iter().all(|(_, w)| *w != 9.0));

        assert!(dg
            .apply(&[GraphMutation::AddVertex { id: 2, data: () }])
            .is_err());
        assert!(dg
            .apply(&[GraphMutation::RemoveEdge { src: 1, dst: 0 }])
            .is_err());
        assert!(dg.apply(&[GraphMutation::RemoveVertex { id: 42 }]).is_err());
        // A removed vertex id is never resurrected.
        dg.apply(&[GraphMutation::RemoveVertex { id: 1 }]).unwrap();
        assert!(dg
            .apply(&[GraphMutation::AddVertex { id: 1, data: () }])
            .is_err());
    }

    #[test]
    fn remove_edge_drops_all_parallel_copies() {
        let mut b = GraphBuilder::<(), f64>::new();
        b.add_edge(0, 1, 1.0);
        b.add_edge(0, 1, 2.0);
        let mut dg = DeltaGraph::new(b.build().unwrap());
        dg.apply(&[add_edge(0, 1, 3.0)]).unwrap();
        assert_eq!(dg.num_edges(), 3);
        dg.apply(&[GraphMutation::RemoveEdge { src: 0, dst: 1 }])
            .unwrap();
        assert_eq!(dg.num_edges(), 0);
        // Re-inserting after a tombstone works: the overlay copy is live even
        // though the base copies stay suppressed.
        dg.apply(&[add_edge(0, 1, 4.0)]).unwrap();
        assert_eq!(dg.out_edges(0), vec![(1, 4.0)]);
    }

    #[test]
    fn snapshot_matches_the_live_view() {
        let mut dg = DeltaGraph::new(diamond());
        dg.apply(&[
            GraphMutation::AddVertex { id: 5, data: () },
            add_edge(5, 3, 1.5),
            GraphMutation::RemoveEdge { src: 1, dst: 3 },
        ])
        .unwrap();
        let snap = dg.snapshot(true);
        assert_eq!(snap.num_vertices(), dg.num_vertices());
        assert_eq!(snap.num_edges(), dg.num_edges());
        assert!(snap.has_reverse());
        for v in dg.vertices() {
            let mut live: Vec<(VertexId, f64)> = dg.out_edges(v);
            let mut snapped: Vec<(VertexId, f64)> =
                snap.out_edges(v).map(|(d, w)| (d, *w)).collect();
            live.sort_by(|a, b| a.partial_cmp(b).unwrap());
            snapped.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(live, snapped, "out-edges of {v}");
        }
    }

    #[test]
    fn net_effect_cancels_within_batch_churn() {
        let mut dg = DeltaGraph::new(diamond());
        let receipt = dg
            .apply(&[
                GraphMutation::AddVertex { id: 8, data: () },
                add_edge(8, 0, 1.0),
                add_edge(0, 3, 7.0),
                // Same-batch churn: vertex 9 and its edge vanish entirely.
                GraphMutation::AddVertex { id: 9, data: () },
                add_edge(9, 8, 2.0),
                GraphMutation::RemoveVertex { id: 9 },
                // Removing 0 -> 1 only affects the pre-batch copy.
                GraphMutation::RemoveEdge { src: 0, dst: 1 },
            ])
            .unwrap();
        let net = &receipt.net;
        assert_eq!(net.added_vertices, vec![(8, ())]);
        assert_eq!(net.added_edges, vec![(8, 0, 1.0), (0, 3, 7.0)]);
        assert_eq!(net.removed_edges, vec![(0, 1)]);
        assert!(net.removed_vertices.is_empty());
        assert!(!net.is_empty());

        // Add-then-remove of the same pair cancels the batch copy but still
        // records the pair (pre-batch copies must go).
        let receipt = dg
            .apply(&[
                add_edge(2, 3, 9.0),
                GraphMutation::RemoveEdge { src: 2, dst: 3 },
            ])
            .unwrap();
        assert!(receipt.net.added_edges.is_empty());
        assert_eq!(receipt.net.removed_edges, vec![(2, 3)]);
        // Removing a pre-batch vertex records it.
        let receipt = dg.apply(&[GraphMutation::RemoveVertex { id: 8 }]).unwrap();
        assert_eq!(receipt.net.removed_vertices, vec![8]);
        assert!(receipt.net.added_vertices.is_empty());
        assert!(NetMutations::<(), f64>::default().is_empty());
    }

    #[test]
    fn profiles_merge_and_classify() {
        let mut p = MutationProfile {
            edge_inserts: 2,
            ..Default::default()
        };
        assert!(p.insert_only() && !p.delete_only() && !p.is_empty());
        p.merge(&MutationProfile {
            edge_deletes: 1,
            vertex_inserts: 1,
            ..Default::default()
        });
        assert!(!p.insert_only() && !p.delete_only());
        assert!(p.vertex_set_changed());
        assert_eq!(p.edge_inserts, 2);
        assert!(MutationProfile::default().is_empty());
    }

    #[test]
    fn mutations_roundtrip_on_the_wire() {
        let batch: Vec<GraphMutation<(), f64>> = vec![
            GraphMutation::AddVertex { id: 3, data: () },
            GraphMutation::RemoveVertex { id: 4 },
            add_edge(1, 2, 0.5),
            GraphMutation::RemoveEdge { src: 2, dst: 1 },
        ];
        let bytes = batch.encode_to_vec();
        let mut reader = WireReader::new(&bytes);
        let back = Vec::<GraphMutation<(), f64>>::decode(&mut reader).unwrap();
        reader.finish().unwrap();
        assert_eq!(back, batch);

        let profile = MutationProfile {
            edge_inserts: 1,
            edge_deletes: 2,
            vertex_inserts: 3,
            vertex_deletes: 4,
        };
        let bytes = profile.encode_to_vec();
        let mut reader = WireReader::new(&bytes);
        assert_eq!(MutationProfile::decode(&mut reader).unwrap(), profile);
        reader.finish().unwrap();

        // Bad kind byte and truncation are typed errors.
        let mut bad = WireReader::new(&[9u8]);
        assert!(GraphMutation::<(), f64>::decode(&mut bad).is_err());
        let bytes = batch.encode_to_vec();
        let mut truncated = WireReader::new(&bytes[..bytes.len() - 1]);
        assert!(Vec::<GraphMutation<(), f64>>::decode(&mut truncated).is_err());
    }
}
