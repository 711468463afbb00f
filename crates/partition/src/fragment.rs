//! Fragment construction.
//!
//! A [`Fragment`] is the unit of work a GRAPE worker owns: the subgraph
//! induced by the vertices assigned to it, extended with *mirror* copies of
//! the remote endpoints of cross edges. The paper's *border nodes* — the
//! vertices that carry update parameters — are exactly:
//!
//! * the **outer** vertices: mirrors of vertices owned by another fragment
//!   that appear as endpoints of this fragment's edges, and
//! * the **inner-border** vertices: this fragment's own vertices that appear
//!   as mirrors in some other fragment (so other workers may send updated
//!   values for them).
//!
//! [`build_fragments`] cuts a global [`CsrGraph`] according to a
//! [`PartitionAssignment`] and computes all of this routing information once,
//! so the engine never has to consult the global graph again. Every table is
//! a sorted id list or a column aligned with one: a lookup by id is a binary
//! search, and nothing is hashed.

use crate::assignment::{FragmentId, PartitionAssignment};
use crate::exchange::LayoutMemo;
use grape_graph::{
    merge_join, merge_walk, strictly_ascending, CsrGraph, DenseBitset, GraphError, VertexId,
};
use std::sync::Arc;

/// A graph fragment owned by one worker.
#[derive(Debug, Clone, PartialEq)]
pub struct Fragment<V, E> {
    /// This fragment's id (`P_i` in the paper).
    pub id: FragmentId,
    /// Total number of fragments in the job.
    pub num_fragments: usize,
    /// Local subgraph: inner vertices plus mirrored outer vertices, with all
    /// edges incident to at least one inner vertex.
    pub graph: CsrGraph<V, E>,
    /// The fragments mirroring each mirrored inner vertex, aligned with the
    /// tables' `mirrored_inner`. Shared with the fragments a splice derives
    /// until one changes a run.
    pub(crate) mirrored_at: Arc<MirrorRuns>,
    /// The vertex and border tables, derived from the local vertex set and
    /// the set of mirrored inner vertices. Shared with the fragments an
    /// edges-only splice derives, which change neither.
    tables: Arc<VertexTables>,
}

/// A fragment's vertex and border tables, all sorted or aligned with a
/// sorted list.
#[derive(Debug, PartialEq)]
pub(crate) struct VertexTables {
    /// Vertices owned by this fragment (sorted); shared with the partials
    /// that keep it beside state aligned with it.
    inner: Arc<Vec<VertexId>>,
    /// Mirrors of remote vertices that appear in local edges (sorted).
    outer: Vec<VertexId>,
    /// Owner fragment of each outer vertex, aligned with `outer`.
    outer_owner: Vec<u32>,
    /// Membership bitset over the local graph's dense indices: bit set =
    /// inner vertex, bit clear = outer (mirror). Replaces per-call
    /// `HashSet<VertexId>` probes on the hot paths. Shared like `inner`.
    inner_mask: Arc<DenseBitset>,
    /// Dense indices of the inner vertices, aligned with `inner`. Shared
    /// like `inner`.
    inner_dense: Arc<Vec<u32>>,
    /// Dense indices of the outer vertices, aligned with `outer`.
    outer_dense: Vec<u32>,
    /// Border vertices (outer ∪ mirrored inner), sorted; precomputed once at
    /// construction instead of re-sorted on every `border_vertices()` call,
    /// and shared with the worker contexts that address it by position.
    pub(crate) border: Arc<Vec<VertexId>>,
    /// Dense index of each border vertex, aligned with `border`.
    border_dense: Vec<u32>,
    /// Inner vertices that are mirrored at other fragments, sorted.
    mirrored_inner: Vec<VertexId>,
    /// Dense indices aligned with `mirrored_inner`.
    mirrored_inner_dense: Vec<u32>,
    /// Position of each mirrored-inner vertex in `border`, aligned with
    /// `mirrored_inner`.
    mirrored_inner_border_pos: Vec<u32>,
    /// The exchange layout of the last fragment set these tables led
    /// ([`crate::ExchangeLayout::of`]).
    pub(crate) layout: LayoutMemo,
}

/// The fragments that mirror each vertex of a sorted list, as flat runs
/// aligned with it: run `i` ends at `ends[i]` in `at` and is ascending.
#[derive(Debug, Default, PartialEq)]
pub(crate) struct MirrorRuns {
    ends: Vec<usize>,
    at: Vec<FragmentId>,
}

impl MirrorRuns {
    fn run(&self, i: usize) -> &[FragmentId] {
        let start = i.checked_sub(1).map_or(0, |j| self.ends[j]);
        &self.at[start..self.ends[i]]
    }

    fn push(&mut self, run: impl IntoIterator<Item = FragmentId>) {
        self.at.extend(run);
        self.ends.push(self.at.len());
    }
}

impl<V: Clone, E: Clone> Fragment<V, E> {
    /// The vertices owned by this fragment, in ascending order.
    pub fn inner_vertices(&self) -> &[VertexId] {
        &self.tables.inner
    }

    /// The mirror (outer) vertices, in ascending order.
    pub fn outer_vertices(&self) -> &[VertexId] {
        &self.tables.outer
    }

    /// Dense indices (into [`Fragment::graph`]) of the inner vertices,
    /// aligned with [`Fragment::inner_vertices`].
    pub fn inner_dense_indices(&self) -> &[u32] {
        &self.tables.inner_dense
    }

    /// [`Fragment::inner_vertices`] as the shared list itself, for holders
    /// that keep it beside state aligned with it and would otherwise copy it.
    pub fn shared_inner_vertices(&self) -> &Arc<Vec<VertexId>> {
        &self.tables.inner
    }

    /// [`Fragment::inner_dense_indices`] as the shared list itself, like
    /// [`Fragment::shared_inner_vertices`].
    pub fn shared_inner_dense_indices(&self) -> &Arc<Vec<u32>> {
        &self.tables.inner_dense
    }

    /// Dense indices (into [`Fragment::graph`]) of the outer vertices,
    /// aligned with [`Fragment::outer_vertices`].
    pub fn outer_dense_indices(&self) -> &[u32] {
        &self.tables.outer_dense
    }

    /// Whether `v` is owned by this fragment.
    pub fn is_inner(&self, v: VertexId) -> bool {
        self.graph
            .dense_index(v)
            .is_some_and(|i| self.tables.inner_mask.contains(i))
    }

    /// Whether `v` is a mirror of a remote vertex.
    pub fn is_outer(&self, v: VertexId) -> bool {
        self.graph
            .dense_index(v)
            .is_some_and(|i| !self.tables.inner_mask.contains(i))
    }

    /// Whether the local vertex at dense index `i` is inner (owned here).
    #[inline]
    pub fn is_inner_dense(&self, i: u32) -> bool {
        self.tables.inner_mask.contains(i)
    }

    /// The inner-membership bitset over the local graph's dense indices
    /// (bit set = inner vertex). Lets per-superstep loops that need the whole
    /// membership view borrow the precomputed bitset instead of rebuilding
    /// one from [`Fragment::inner_dense_indices`].
    pub fn inner_bitset(&self) -> &DenseBitset {
        &self.tables.inner_mask
    }

    /// [`Fragment::inner_bitset`] as the shared bitset itself, like
    /// [`Fragment::shared_inner_vertices`].
    pub fn shared_inner_bitset(&self) -> &Arc<DenseBitset> {
        &self.tables.inner_mask
    }

    /// Whether the local vertex at dense index `i` is an outer mirror.
    #[inline]
    pub fn is_outer_dense(&self, i: u32) -> bool {
        (i as usize) < self.graph.num_vertices() && !self.tables.inner_mask.contains(i)
    }

    /// The fragment that owns a local vertex: this one for an inner vertex,
    /// the owner column's entry for an outer one.
    pub fn owner_of(&self, v: VertexId) -> Option<FragmentId> {
        if self.is_inner(v) {
            return Some(self.id);
        }
        let i = self.tables.outer.binary_search(&v).ok()?;
        Some(self.tables.outer_owner[i] as FragmentId)
    }

    /// The vertex and border tables, shared with the fragments an
    /// edges-only splice derives.
    pub(crate) fn tables(&self) -> &Arc<VertexTables> {
        &self.tables
    }

    /// The owner of each outer vertex, aligned with `outer_vertices`.
    pub(crate) fn outer_owners(&self) -> &[u32] {
        &self.tables.outer_owner
    }

    /// Fragments that hold a mirror of the inner vertex `v` (empty slice if
    /// none or if `v` is not inner).
    pub fn mirrors_of(&self, v: VertexId) -> &[FragmentId] {
        match self.tables.mirrored_inner.binary_search(&v) {
            Ok(i) => self.mirrored_at.run(i),
            Err(_) => &[],
        }
    }

    /// Border nodes in the paper's sense: vertices of this fragment that
    /// carry update parameters. These are the outer vertices plus the inner
    /// vertices mirrored at other fragments, in ascending order. The list is
    /// precomputed at construction — algorithms call this in PEval and every
    /// IncEval round, so it must be allocation-free.
    pub fn border_vertices(&self) -> &[VertexId] {
        &self.tables.border
    }

    /// [`Fragment::border_vertices`] as the shared list itself, for holders
    /// that keep it for a whole run.
    pub fn shared_border_vertices(&self) -> &Arc<Vec<VertexId>> {
        &self.tables.border
    }

    /// Dense indices (into [`Fragment::graph`]) of the border vertices,
    /// aligned with [`Fragment::border_vertices`].
    pub fn border_dense_indices(&self) -> &[u32] {
        &self.tables.border_dense
    }

    /// Position of `v` in [`Fragment::border_vertices`], if it is a border
    /// vertex. A binary search over the sorted border list — no hashing —
    /// so side tables aligned with the border (such as the exchange layout's
    /// border→slot column) can be addressed without a `HashMap`.
    #[inline]
    pub fn border_position(&self, v: VertexId) -> Option<u32> {
        self.tables.border.binary_search(&v).ok().map(|i| i as u32)
    }

    /// Inner vertices mirrored at other fragments (the inner half of the
    /// border), in ascending order.
    pub fn mirrored_inner_vertices(&self) -> &[VertexId] {
        &self.tables.mirrored_inner
    }

    /// Dense indices aligned with [`Fragment::mirrored_inner_vertices`].
    pub fn mirrored_inner_dense_indices(&self) -> &[u32] {
        &self.tables.mirrored_inner_dense
    }

    /// Positions of the mirrored-inner vertices in
    /// [`Fragment::border_vertices`], aligned with
    /// [`Fragment::mirrored_inner_vertices`]. Precomputed so publication
    /// loops over the inner half of the border can address per-border side
    /// tables (e.g. `PieContext::update_at`) without any search.
    pub fn mirrored_inner_border_positions(&self) -> &[u32] {
        &self.tables.mirrored_inner_border_pos
    }

    /// All fragments that must be informed when the value of `v` changes at
    /// this fragment: the owner of `v` (if remote) plus every fragment that
    /// mirrors `v`.
    pub fn recipients_of(&self, v: VertexId) -> Vec<FragmentId> {
        let mut out: Vec<FragmentId> = self
            .owner_of(v)
            .filter(|&f| f != self.id)
            .into_iter()
            .collect();
        out.extend(self.mirrors_of(v).iter().filter(|&&f| f != self.id));
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Number of inner vertices.
    pub fn num_inner(&self) -> usize {
        self.tables.inner.len()
    }

    /// Number of outer (mirror) vertices.
    pub fn num_outer(&self) -> usize {
        self.tables.outer.len()
    }

    /// Number of local edges (edges with at least one inner endpoint,
    /// counted once per direction present in the global graph).
    pub fn num_local_edges(&self) -> usize {
        self.graph.num_edges()
    }

    /// This fragment's columns: a copy of the local graph's sorted parts, the
    /// owner of each local vertex and the mirror runs.
    pub fn to_parts(&self) -> FragmentParts<V, E> {
        let (ids, data, (offsets, targets, weights)) = self.graph.sorted_parts();
        let mut owner = vec![self.id as u32; ids.len()];
        for (&i, &f) in self.tables.outer_dense.iter().zip(&self.tables.outer_owner) {
            owner[i as usize] = f;
        }
        FragmentParts {
            id: self.id,
            num_fragments: self.num_fragments,
            ids: ids.to_vec(),
            data: data.to_vec(),
            owner,
            offsets: offsets.to_vec(),
            targets: targets.to_vec(),
            weights: weights.to_vec(),
            mirrored_inner: self.tables.mirrored_inner.clone(),
            mirror_ends: self.mirrored_at.ends.clone(),
            mirror_at: self.mirrored_at.at.iter().map(|&f| f as u32).collect(),
        }
    }
}

impl<V: Clone + Default, E: Clone> Fragment<V, E> {
    /// Rebuilds a fragment from its columns through the constructors
    /// [`build_fragments`] ends in, so a round trip through
    /// [`Fragment::to_parts`] yields a bit-identical fragment. The inner and
    /// outer lists come from one pass over `(ids, owner)`, so they split the
    /// local vertices by construction. The rest is checked, not repaired:
    /// `id` and every owner are below `num_fragments`; the graph columns pass
    /// [`CsrGraph::from_sorted_parts`]; `mirror_ends` splits `mirror_at` into
    /// one non-empty, ascending run of remote fragments for each ascending
    /// inner vertex of `mirrored_inner`. Else a [`GraphError::InvalidParameter`].
    pub fn from_parts(parts: FragmentParts<V, E>) -> Result<Self, GraphError> {
        let (id, num_fragments, owner) = (parts.id, parts.num_fragments, parts.owner);
        let malformed = |rule: &str| {
            let at = format!("fragment {id} of {num_fragments}");
            Err(GraphError::InvalidParameter(format!("{at}: {rule}")))
        };
        if id >= num_fragments {
            return malformed("its id is out of range");
        }
        if owner.len() != parts.ids.len() || owner.iter().any(|&f| f as usize >= num_fragments) {
            return malformed("owner does not name a fragment for each local vertex");
        }
        let run = (parts.offsets, parts.targets, parts.weights);
        let local_graph = CsrGraph::from_sorted_parts(parts.ids, parts.data, run, true)?;

        let (mut inner, mut outer, mut outer_owner) = (Vec::new(), Vec::new(), Vec::new());
        for (&v, &f) in local_graph.vertex_ids().iter().zip(&owner) {
            if f as usize == id {
                inner.push(v);
            } else {
                outer.push(v);
                outer_owner.push(f);
            }
        }
        let (mirrored_inner, mirror_ends) = (parts.mirrored_inner, parts.mirror_ends);
        if mirror_ends.len() != mirrored_inner.len()
            || !mirror_ends.is_sorted()
            || mirror_ends.last().map_or(0, |&end| end) != parts.mirror_at.len()
        {
            return malformed("mirror_ends does not split mirror_at into runs");
        }
        let is_inner = |v: &VertexId| inner.binary_search(v).is_ok();
        if !strictly_ascending(&mirrored_inner) || !mirrored_inner.iter().all(is_inner) {
            return malformed("mirrored_inner does not list inner vertices in order");
        }
        let at = parts.mirror_at.into_iter().map(|f| f as FragmentId);
        let runs = MirrorRuns {
            ends: mirror_ends,
            at: at.collect(),
        };
        let remote = |&f: &FragmentId| f < num_fragments && f != id;
        if !(0..runs.ends.len()).all(|i| {
            let run = runs.run(i);
            !run.is_empty() && run.windows(2).all(|w| w[0] < w[1]) && run.iter().all(remote)
        }) {
            return malformed("a mirror run is empty, unsorted or names no remote fragment");
        }
        Ok(assemble_fragment(
            id,
            num_fragments,
            local_graph,
            inner,
            (outer, outer_owner),
            (mirrored_inner, runs),
        ))
    }
}

/// A fragment's primary columns: the inputs of [`CsrGraph::from_sorted_parts`]
/// and of the table assembly, made by [`Fragment::to_parts`] and taken by
/// [`Fragment::from_parts`]. Its frame codec is `grape_core::ship`.
#[derive(Debug, Clone, PartialEq)]
pub struct FragmentParts<V, E> {
    /// The fragment's id.
    pub id: FragmentId,
    /// Total number of fragments in the job.
    pub num_fragments: usize,
    /// The local vertices, strictly ascending: position = dense index.
    pub ids: Vec<VertexId>,
    /// The payload of each local vertex, aligned with `ids`; mirrors keep theirs.
    pub data: Vec<V>,
    /// The owner of each local vertex, aligned with `ids`: `id` for an
    /// inner vertex, another fragment for an outer (mirror) one.
    pub owner: Vec<u32>,
    /// Local CSR offsets: `ids.len() + 1` entries from 0.
    pub offsets: Vec<usize>,
    /// Dense local targets of the local edges, in CSR order.
    pub targets: Vec<u32>,
    /// Edge payloads, aligned with `targets`.
    pub weights: Vec<E>,
    /// The inner vertices mirrored at other fragments, strictly ascending.
    pub mirrored_inner: Vec<VertexId>,
    /// The end of each mirrored vertex's run in `mirror_at`, aligned with `mirrored_inner`.
    pub mirror_ends: Vec<usize>,
    /// The fragments mirroring each mirrored inner vertex, run after run.
    pub mirror_at: Vec<u32>,
}

/// One pass of a cut over the graph's dense order: the owner of every vertex
/// and the fragments that mirror it. Shared by [`build_fragments`] and
/// [`evaluate_partition`](crate::evaluate_partition).
pub(crate) struct Cut {
    /// Number of fragments (at least one).
    pub(crate) k: usize,
    /// Owner fragment of each vertex, by dense index.
    pub(crate) owner: Vec<u32>,
    /// `words` words per vertex: bit `f` of vertex `v`'s mask = `v` is
    /// mirrored at fragment `f`.
    pub(crate) mirrors: Vec<u64>,
    pub(crate) words: usize,
    /// Local edges of each fragment: the out-edges of its vertices plus the
    /// cross edges into them.
    pub(crate) num_edges: Vec<usize>,
}

impl Cut {
    pub(crate) fn new<V: Clone, E: Clone>(
        graph: &CsrGraph<V, E>,
        assignment: &PartitionAssignment,
    ) -> Self {
        let k = assignment.num_fragments().max(1);
        let n = graph.num_vertices();
        // The owner column, from one merge walk of the assignment's ids
        // against the graph's: ids the graph lacks are skipped, and a vertex
        // the assignment lacks goes to fragment 0.
        let (ids, owners) = assignment.columns();
        let mut owner = vec![0u32; n];
        merge_join(ids, graph.vertex_ids(), |i, j| owner[j] = owners[i]);

        // A cross edge mirrors each endpoint at the other's owner.
        let words = k.div_ceil(64);
        let mut mirrors = vec![0u64; n * words];
        let mut mirror_at =
            |v: usize, f: u32| mirrors[v * words + f as usize / 64] |= 1 << (f % 64);
        let mut num_edges = vec![0usize; k];
        for s in 0..n {
            let fs = owner[s];
            for &d in graph.out_neighbors_dense(s as u32) {
                let fd = owner[d as usize];
                num_edges[fs as usize] += 1;
                if fd != fs {
                    num_edges[fd as usize] += 1;
                    mirror_at(s, fd);
                    mirror_at(d as usize, fs);
                }
            }
        }
        Cut {
            k,
            owner,
            mirrors,
            words,
            num_edges,
        }
    }
}

/// The fragments set in a mirror mask, ascending.
fn fragments_in(mask: &[u64]) -> impl Iterator<Item = FragmentId> + '_ {
    mask.iter().enumerate().flat_map(|(word, &bits)| {
        let mut bits = bits;
        std::iter::from_fn(move || {
            let bit = bits.trailing_zeros() as usize;
            bits &= bits.wrapping_sub(1);
            (bit < 64).then_some(word * 64 + bit)
        })
    })
}

/// Cuts `graph` into fragments according to `assignment`.
///
/// Every vertex must be assigned; vertices missing from the assignment are
/// placed on fragment 0 so the engine never loses data, and assigned ids the
/// graph lacks are skipped.
///
/// Each fragment receives every edge whose source *or* destination it owns,
/// so both out-edges of inner vertices and in-edges from remote vertices are
/// locally visible (the latter are what IncEval needs to relax when a border
/// value arrives).
///
/// No hashing, no edge records and no sort: one merge walk reads the
/// assignment into an owner per vertex of the global graph's dense order,
/// one pass over the edges gives each vertex a bitmask of the fragments
/// mirroring it, and one ascending scan of the vertices appends every
/// fragment's sorted lists and the columns aligned with them (the owner of
/// each outer vertex, the mirror run of each mirrored inner vertex). A
/// fragment's CSR is then cut straight from the global rows of its local
/// vertices, which are ascending in both graphs: an inner vertex's row is
/// copied whole, an outer vertex's row keeps the edges into this fragment's
/// inner vertices, and one table from global to local dense index, which
/// also marks the inner vertices, maps every target and decides which
/// edges of a row to keep. [`CsrGraph::from_sorted_parts`] derives the id index
/// and the reverse arrays. Cost: O(n · ⌈k/64⌉) for the masks and lists,
/// plus one read of each local vertex's global row per fragment holding it.
pub fn build_fragments<V: Clone + Default, E: Clone>(
    graph: &CsrGraph<V, E>,
    assignment: &PartitionAssignment,
) -> Vec<Fragment<V, E>> {
    let cut = Cut::new(graph, assignment);
    let (k, n, owner) = (cut.k, graph.num_vertices(), &cut.owner);

    // Vertex memberships from one ascending scan, so every list comes out
    // sorted. `members` holds each fragment's local vertices (inner and
    // outer) by global dense index, which is also their local order.
    let mut members: Vec<Vec<u32>> = vec![Vec::new(); k];
    let mut inner: Vec<Vec<VertexId>> = vec![Vec::new(); k];
    let mut outer: Vec<(Vec<VertexId>, Vec<u32>)> = vec![Default::default(); k];
    let mut mirrored: Vec<(Vec<VertexId>, MirrorRuns)> =
        (0..k).map(|_| Default::default()).collect();
    for (i, &f) in owner.iter().enumerate() {
        let v = graph.vertex_id(i as u32);
        inner[f as usize].push(v);
        members[f as usize].push(i as u32);
        let mask = &cut.mirrors[i * cut.words..(i + 1) * cut.words];
        for g in fragments_in(mask) {
            outer[g].0.push(v);
            outer[g].1.push(f);
            members[g].push(i as u32);
        }
        if mask.iter().any(|&word| word != 0) {
            mirrored[f as usize].0.push(v);
            mirrored[f as usize].1.push(fragments_in(mask));
        }
    }

    // Global dense index → `local index << 1 | inner` in the fragment being
    // cut, for its members; 0 (not inner) elsewhere.
    let mut local = vec![0u32; n];
    let mut fragments = Vec::with_capacity(k);
    let pieces = members.into_iter().zip(inner).zip(outer).zip(mirrored);
    for (f, (((members, inner), outer), mirrored)) in pieces.enumerate() {
        assert!(
            members.len() <= (u32::MAX >> 1) as usize,
            "fragment {f} is too large"
        );
        for (l, &v) in (0u32..).zip(&members) {
            local[v as usize] = l << 1 | u32::from(owner[v as usize] as usize == f);
        }
        // Local vertices, with their payloads from the global graph (mirrors
        // keep the payload so label/keyword predicates still work on them).
        let ids = members.iter().map(|&v| graph.vertex_id(v)).collect();
        let data = members
            .iter()
            .map(|&v| graph.vertex_data_at(v).clone())
            .collect();
        // An inner vertex sees all its out-edges; the mirror of a remote
        // vertex sees the edges into this fragment's inner vertices (what
        // IncEval relaxes when a border value arrives).
        let mut offsets = Vec::with_capacity(members.len() + 1);
        let mut targets = Vec::with_capacity(cut.num_edges[f]);
        let mut weights = Vec::with_capacity(cut.num_edges[f]);
        offsets.push(0);
        for &s in &members {
            let row = graph.out_neighbors_dense(s);
            let row_data = graph.out_edge_data_dense(s);
            if local[s as usize] & 1 == 1 {
                targets.extend(row.iter().map(|&d| local[d as usize] >> 1));
                weights.extend_from_slice(row_data);
            } else {
                for (&d, w) in row.iter().zip(row_data) {
                    if local[d as usize] & 1 == 1 {
                        targets.push(local[d as usize] >> 1);
                        weights.push(w.clone());
                    }
                }
            }
            offsets.push(targets.len());
        }
        for &v in &members {
            local[v as usize] = 0;
        }
        let local_graph = CsrGraph::from_sorted_parts(ids, data, (offsets, targets, weights), true)
            .expect("a fragment's rows are CSR runs over its local vertices");
        fragments.push(assemble_fragment(f, k, local_graph, inner, outer, mirrored));
    }
    fragments
}

impl<V: Clone, E: Clone> Fragment<V, E> {
    /// This fragment with `graph` and `mirrored_at` swapped in and every
    /// other table carried over — for a splice that changes neither the
    /// local vertex set nor which inner vertices are mirrored, whose dense
    /// and border tables are then exactly what [`assemble_fragment`] would
    /// derive again.
    pub(crate) fn with_graph_and_mirrors(
        &self,
        graph: CsrGraph<V, E>,
        mirrored_at: Arc<MirrorRuns>,
    ) -> Fragment<V, E> {
        debug_assert_eq!(graph.vertex_ids(), self.graph.vertex_ids());
        debug_assert_eq!(mirrored_at.ends.len(), self.mirrored_at.ends.len());
        Fragment {
            id: self.id,
            num_fragments: self.num_fragments,
            graph,
            mirrored_at,
            tables: Arc::clone(&self.tables),
        }
    }

    /// The mirrored inner vertices and their mirror runs with `changes`
    /// applied: each `(vertex, fragments)` gives its vertex a new run, and
    /// an empty one drops it. `changes` is sorted by vertex.
    pub(crate) fn mirrors_with(
        &self,
        changes: &[(VertexId, Vec<FragmentId>)],
    ) -> (Vec<VertexId>, MirrorRuns) {
        let changed: Vec<VertexId> = changes.iter().map(|(v, _)| *v).collect();
        let (mut ids, mut runs) = (Vec::new(), MirrorRuns::default());
        merge_walk(&self.tables.mirrored_inner, &changed, |v, i, j| {
            let run = match (i, j) {
                (_, Some(j)) => &changes[j].1[..],
                (Some(i), None) => self.mirrored_at.run(i),
                (None, None) => unreachable!("each id is in one list or both"),
            };
            if !run.is_empty() {
                ids.push(v);
                runs.push(run.iter().copied());
            }
        });
        (ids, runs)
    }
}

/// Derives every precomputed lookup table from a fragment's primary data and
/// assembles the [`Fragment`]: the sorted `inner` list, the sorted `outer`
/// list with its owner column, and the sorted mirrored inner vertices with
/// their mirror runs. Shared by [`build_fragments`] (the coordinator-side
/// cut) and [`Fragment::from_parts`] (a shipped fragment rebuilt on a remote
/// worker), so both construction paths are one code path and the results
/// are bit-identical.
pub(crate) fn assemble_fragment<V: Clone, E: Clone>(
    id: FragmentId,
    num_fragments: usize,
    local_graph: CsrGraph<V, E>,
    inner_list: Vec<VertexId>,
    (outer_list, outer_owner): (Vec<VertexId>, Vec<u32>),
    (mirrored_inner, mirrored_at): (Vec<VertexId>, MirrorRuns),
) -> Fragment<V, E> {
    // Precompute the dense lookup structures once, so the per-superstep
    // hot paths never rebuild or hash anything. Every id list here is sorted,
    // like the local graph's own, so the positions of one in another fall
    // out of a merge walk — no hashing either.
    let positions = |ids: &[VertexId], within: &[VertexId]| -> Vec<u32> {
        let mut at = Vec::with_capacity(ids.len());
        merge_join(ids, within, |_, j| at.push(j as u32));
        debug_assert_eq!(at.len(), ids.len(), "a listed vertex is missing");
        at
    };
    let dense_of = |ids: &[VertexId]| positions(ids, local_graph.vertex_ids());
    let mut inner_mask = DenseBitset::new(local_graph.num_vertices());
    let inner_dense = dense_of(&inner_list);
    for &i in &inner_dense {
        inner_mask.set(i);
    }
    let outer_dense = dense_of(&outer_list);
    let mirrored_inner_dense = dense_of(&mirrored_inner);
    // The border is the union of two disjoint sorted lists.
    let mut border = Vec::with_capacity(outer_list.len() + mirrored_inner.len());
    merge_walk(&outer_list, &mirrored_inner, |v, _, _| border.push(v));
    let border_dense = dense_of(&border);
    let mirrored_inner_border_pos = positions(&mirrored_inner, &border);

    Fragment {
        id,
        num_fragments,
        graph: local_graph,
        mirrored_at: Arc::new(mirrored_at),
        tables: Arc::new(VertexTables {
            inner: Arc::new(inner_list),
            outer: outer_list,
            outer_owner,
            inner_mask: Arc::new(inner_mask),
            inner_dense: Arc::new(inner_dense),
            outer_dense,
            border: Arc::new(border),
            border_dense,
            mirrored_inner,
            mirrored_inner_dense,
            mirrored_inner_border_pos,
            layout: LayoutMemo::default(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::{HashPartitioner, Partitioner, RangePartitioner};
    use grape_graph::generators::{barabasi_albert, erdos_renyi};
    use grape_graph::GraphBuilder;
    use std::collections::HashSet;

    fn chain(n: u64) -> CsrGraph<(), f64> {
        let mut b = GraphBuilder::<(), f64>::new();
        for v in 0..n - 1 {
            b.add_edge(v, v + 1, 1.0);
        }
        b.build().unwrap()
    }

    #[test]
    fn inner_vertices_partition_the_graph() {
        let g = barabasi_albert(200, 3, 1).unwrap();
        let a = HashPartitioner.partition(&g, 4);
        let frags = build_fragments(&g, &a);
        assert_eq!(frags.len(), 4);
        let total_inner: usize = frags.iter().map(|f| f.num_inner()).sum();
        assert_eq!(total_inner, g.num_vertices());
        // No vertex is inner in two fragments.
        let mut seen = HashSet::new();
        for f in &frags {
            for &v in f.inner_vertices() {
                assert!(seen.insert(v), "vertex {v} owned twice");
            }
        }
    }

    #[test]
    fn chain_split_in_two_has_one_cross_edge_and_correct_borders() {
        let g = chain(10);
        let a = RangePartitioner.partition(&g, 2);
        let frags = build_fragments(&g, &a);
        let f0 = &frags[0];
        let f1 = &frags[1];
        // Vertices 0..4 on fragment 0, 5..9 on fragment 1; cross edge 4 -> 5.
        assert!(f0.is_inner(4));
        assert!(f1.is_inner(5));
        assert!(f0.is_outer(5), "5 is mirrored on fragment 0");
        assert!(f1.is_outer(4), "4 is mirrored on fragment 1");
        assert_eq!(f0.owner_of(5), Some(1));
        assert_eq!(f1.owner_of(4), Some(0));
        assert_eq!(f0.mirrors_of(4), &[1]);
        assert_eq!(f1.mirrors_of(5), &[0]);
        assert_eq!(f0.border_vertices(), vec![4, 5]);
        assert_eq!(f1.border_vertices(), vec![4, 5]);
        // Message routing: if fragment 0 updates mirror 5, it informs owner 1.
        assert_eq!(f0.recipients_of(5), vec![1]);
        // If fragment 0 updates its own border vertex 4, it informs mirror 1.
        assert_eq!(f0.recipients_of(4), vec![1]);
    }

    #[test]
    fn cross_edges_visible_from_both_sides() {
        let g = chain(10);
        let a = RangePartitioner.partition(&g, 2);
        let frags = build_fragments(&g, &a);
        // Edge 4 -> 5 must exist in both local graphs.
        assert!(frags[0].graph.out_edges(4).any(|(d, _)| d == 5));
        assert!(frags[1].graph.out_edges(4).any(|(d, _)| d == 5));
    }

    #[test]
    fn local_edge_counts_cover_global_edges() {
        let g = erdos_renyi(150, 0.03, 3).unwrap();
        let a = HashPartitioner.partition(&g, 5);
        let frags = build_fragments(&g, &a);
        let local_total: usize = frags.iter().map(|f| f.num_local_edges()).sum();
        // Cross edges are duplicated in exactly two fragments.
        let q = crate::quality::evaluate_partition(&g, &a);
        assert_eq!(local_total, g.num_edges() + q.cut_edges);
    }

    #[test]
    fn dense_tables_agree_with_global_id_views() {
        let g = erdos_renyi(200, 0.03, 9).unwrap();
        let a = HashPartitioner.partition(&g, 4);
        for f in build_fragments(&g, &a) {
            // Aligned id/dense pairs round-trip through the local graph.
            assert_eq!(f.inner_vertices().len(), f.inner_dense_indices().len());
            for (&v, &i) in f.inner_vertices().iter().zip(f.inner_dense_indices()) {
                assert_eq!(f.graph.vertex_of(i), v);
                assert!(f.is_inner(v) && f.is_inner_dense(i));
                assert!(!f.is_outer(v) && !f.is_outer_dense(i));
            }
            for (&v, &i) in f.outer_vertices().iter().zip(f.outer_dense_indices()) {
                assert_eq!(f.graph.vertex_of(i), v);
                assert!(f.is_outer(v) && f.is_outer_dense(i));
                assert!(!f.is_inner(v) && !f.is_inner_dense(i));
            }
            for (pos, (&v, &i)) in f
                .border_vertices()
                .iter()
                .zip(f.border_dense_indices())
                .enumerate()
            {
                assert_eq!(f.graph.vertex_of(i), v);
                assert_eq!(f.border_position(v), Some(pos as u32));
            }
            // Non-border vertices have no border position.
            for &v in f.inner_vertices() {
                if f.mirrors_of(v).is_empty() {
                    assert_eq!(f.border_position(v), None);
                }
            }
            assert_eq!(f.border_position(999_999), None);
            // The cached border equals the on-the-fly definition.
            let mut expected: Vec<VertexId> = f
                .outer_vertices()
                .iter()
                .chain(f.mirrored_inner_vertices().iter())
                .copied()
                .collect();
            expected.sort_unstable();
            expected.dedup();
            assert_eq!(f.border_vertices(), expected);
            // Mirrored-inner vertices are exactly the inner ones with mirrors.
            for (&v, &i) in f
                .mirrored_inner_vertices()
                .iter()
                .zip(f.mirrored_inner_dense_indices())
            {
                assert_eq!(f.graph.vertex_of(i), v);
                assert!(f.is_inner(v));
                assert!(!f.mirrors_of(v).is_empty());
            }
            // Their precomputed border positions point back at themselves.
            assert_eq!(
                f.mirrored_inner_border_positions().len(),
                f.mirrored_inner_vertices().len()
            );
            for (&v, &pos) in f
                .mirrored_inner_vertices()
                .iter()
                .zip(f.mirrored_inner_border_positions())
            {
                assert_eq!(f.border_vertices()[pos as usize], v);
                assert_eq!(f.border_position(v), Some(pos));
            }
            // Vertices absent from the local graph are neither inner nor outer.
            assert!(!f.is_inner(999_999));
            assert!(!f.is_outer(999_999));
        }
    }

    #[test]
    fn single_fragment_has_no_borders() {
        let g = barabasi_albert(100, 2, 2).unwrap();
        let a = HashPartitioner.partition(&g, 1);
        let frags = build_fragments(&g, &a);
        assert_eq!(frags.len(), 1);
        assert_eq!(frags[0].num_outer(), 0);
        assert!(frags[0].border_vertices().is_empty());
        assert_eq!(frags[0].num_inner(), 100);
    }

    #[test]
    fn mirror_payloads_are_preserved() {
        let mut b = GraphBuilder::<u8, ()>::new();
        b.add_vertex(0, 10);
        b.add_vertex(1, 20);
        b.add_edge(0, 1, ());
        let g = b.build().unwrap();
        let mut a = PartitionAssignment::new(2);
        a.assign(0, 0);
        a.assign(1, 1);
        let frags = build_fragments(&g, &a);
        // Fragment 0 sees vertex 1 as a mirror but keeps its payload.
        assert_eq!(*frags[0].graph.vertex_data(1).unwrap(), 20);
    }

    #[test]
    fn parts_roundtrip_rebuilds_fragments_bit_identically() {
        let g = erdos_renyi(180, 0.04, 5).unwrap();
        let a = HashPartitioner.partition(&g, 4);
        for f in build_fragments(&g, &a) {
            let parts = f.to_parts();
            let back = Fragment::from_parts(parts.clone()).expect("rebuild");
            // Every table — primary and derived — must match exactly.
            assert_eq!(back.id, f.id);
            assert_eq!(back.num_fragments, f.num_fragments);
            assert_eq!(back.graph.vertex_ids(), f.graph.vertex_ids());
            assert_eq!(back.graph.num_edges(), f.graph.num_edges());
            assert_eq!(
                back.graph.edges().collect::<Vec<_>>(),
                f.graph.edges().collect::<Vec<_>>(),
                "CSR edge order must survive the round trip"
            );
            assert_eq!(back.inner_vertices(), f.inner_vertices());
            assert_eq!(back.outer_vertices(), f.outer_vertices());
            assert_eq!(back.inner_dense_indices(), f.inner_dense_indices());
            assert_eq!(back.outer_dense_indices(), f.outer_dense_indices());
            assert_eq!(back.border_vertices(), f.border_vertices());
            assert_eq!(back.border_dense_indices(), f.border_dense_indices());
            assert_eq!(back.mirrored_inner_vertices(), f.mirrored_inner_vertices());
            assert_eq!(
                back.mirrored_inner_border_positions(),
                f.mirrored_inner_border_positions()
            );
            for &v in f.outer_vertices() {
                assert_eq!(back.owner_of(v), f.owner_of(v));
            }
            for &v in f.mirrored_inner_vertices() {
                assert_eq!(back.mirrors_of(v), f.mirrors_of(v));
            }
            // And re-flattening yields the same canonical parts.
            assert_eq!(back.to_parts(), f.to_parts());
            // Parts whose ids lost their order are refused, not repaired.
            let mut shuffled = parts;
            shuffled.ids.reverse();
            assert!(Fragment::from_parts(shuffled).is_err());
        }
    }

    /// The parts of fragment 0 of a 10-chain cut in two (0..=4 | 5..=9):
    /// ids 0..=5, vertex 5 an outer vertex owned by fragment 1, and vertex 4
    /// mirrored at fragment 1. Returns the error `from_parts` gives once
    /// `break_rule` broke one rule.
    fn refusal(break_rule: impl Fn(&mut FragmentParts<(), f64>)) -> String {
        let frags = build_fragments(&chain(10), &RangePartitioner.partition(&chain(10), 2));
        let mut parts = frags[0].to_parts();
        assert_eq!(parts.owner, [0, 0, 0, 0, 0, 1]);
        assert_eq!(
            (
                &parts.mirrored_inner[..],
                &parts.mirror_ends[..],
                &parts.mirror_at[..]
            ),
            (&[4][..], &[1][..], &[1][..])
        );
        assert!(Fragment::from_parts(parts.clone()).is_ok());
        break_rule(&mut parts);
        match Fragment::from_parts(parts) {
            Err(GraphError::InvalidParameter(rule)) => rule,
            other => panic!("broken parts were accepted: {other:?}"),
        }
    }

    #[test]
    fn parts_with_an_id_out_of_range_are_refused() {
        assert!(refusal(|p| p.id = 2).contains("its id is out of range"));
        assert!(refusal(|p| p.num_fragments = 0).contains("its id is out of range"));
    }

    #[test]
    fn parts_whose_outer_owner_is_not_a_remote_owner_of_outer_are_refused() {
        let rule = "owner does not name a fragment for each local vertex";
        assert!(refusal(|p| p.owner[5] = 2).contains(rule));
        assert!(refusal(|p| p.owner[0] = u32::MAX).contains(rule));
        assert!(refusal(|p| {
            p.owner.pop();
        })
        .contains(rule));
    }

    #[test]
    fn parts_whose_ids_are_out_of_order_are_refused() {
        let rule = "the ids are not strictly ascending";
        assert!(refusal(|p| p.ids.swap(0, 1)).contains(rule));
        assert!(refusal(|p| p.ids[1] = p.ids[0]).contains(rule));
        assert!(refusal(|p| {
            p.data.pop();
        })
        .contains(rule));
    }

    #[test]
    fn parts_whose_offsets_do_not_split_the_targets_are_refused() {
        let rule = "the offsets do not split the targets";
        assert!(refusal(|p| p.offsets[0] = 1).contains(rule));
        assert!(refusal(|p| p.offsets.swap(1, 2)).contains(rule));
        assert!(refusal(|p| {
            p.offsets.pop();
        })
        .contains(rule));
        assert!(refusal(|p| {
            p.targets.pop();
        })
        .contains(rule));
        assert!(refusal(|p| {
            p.weights.pop();
        })
        .contains(rule));
    }

    #[test]
    fn parts_with_a_target_out_of_range_are_refused() {
        assert!(refusal(|p| p.targets[0] = 6).contains("a target is not a dense index"));
    }

    #[test]
    fn parts_whose_mirrored_at_is_not_remote_fragments_of_inner_vertices_are_refused() {
        let rule = "mirrored_inner does not list inner vertices in order";
        assert!(refusal(|p| p.mirrored_inner[0] = 77).contains(rule));
        assert!(refusal(|p| p.mirrored_inner[0] = 5).contains(rule));
        let rule = "a mirror run is empty, unsorted or names no remote fragment";
        assert!(refusal(|p| {
            p.mirror_ends[0] = 0;
            p.mirror_at.clear();
        })
        .contains(rule));
        assert!(refusal(|p| {
            p.num_fragments = 3;
            p.mirror_at = vec![2, 1];
            p.mirror_ends[0] = 2;
        })
        .contains(rule));
        assert!(refusal(|p| {
            p.mirror_at.push(1);
            p.mirror_ends[0] = 2;
        })
        .contains(rule));
        assert!(refusal(|p| p.mirror_at[0] = 0).contains(rule));
        assert!(refusal(|p| p.mirror_at[0] = 2).contains(rule));
    }

    #[test]
    fn parts_whose_run_ends_do_not_split_the_mirror_runs_are_refused() {
        let rule = "mirror_ends does not split mirror_at";
        assert!(refusal(|p| p.mirror_ends[0] = 2).contains(rule));
        assert!(refusal(|p| p.mirror_at.push(1)).contains(rule));
        assert!(refusal(|p| p.mirror_ends.push(1)).contains(rule));
        assert!(refusal(|p| {
            p.mirrored_inner.insert(0, 3);
            p.mirror_ends = vec![1, 0];
        })
        .contains(rule));
    }

    #[test]
    fn unassigned_vertices_default_to_fragment_zero() {
        let g = chain(4);
        let mut a = PartitionAssignment::new(2);
        a.assign(0, 1); // only vertex 0 assigned explicitly
        let frags = build_fragments(&g, &a);
        let total: usize = frags.iter().map(|f| f.num_inner()).sum();
        assert_eq!(total, 4);
        assert!(frags[1].is_inner(0));
        assert!(frags[0].is_inner(1));
    }
}
