//! Connected components (CC), one of the registered query classes of the
//! demo.
//!
//! Each vertex ends up labeled with the smallest vertex id in its weakly
//! connected component.
//!
//! * **PEval** — a sequential union-find pass over the fragment's local
//!   edges, run entirely over dense CSR indices.
//! * **IncEval** — min-label propagation with pointer jumping. An arriving
//!   border label lowers the label of the border vertex's whole class. A
//!   label is the id of a vertex connected to the one it labels, so when
//!   that vertex is local as well, its class and the border vertex's are
//!   joined first, in the spirit of Shiloach–Vishkin's hooking and pointer
//!   jumping. A small label then jumps to every class its vertex reaches
//!   instead of walking one fragment-hop per superstep: label propagation
//!   costs O(diameter · m), the reason GBBS (Dhulipala, Blelloch & Shun)
//!   drops it. Sound because a union joins only connected vertices and
//!   labels still only fall; the fixpoint, the component minimum, is unique
//!   and independent of message order.
//! * **Aggregate** — `min`, which is monotonically decreasing, so termination
//!   and correctness follow from the Assurance Theorem.
//!
//! The per-fragment state is a [`VertexDenseMap`] of labels; because a
//! [`CsrGraph`]'s dense indices are assigned in ascending global-id order,
//! "smallest dense index in the class" and "smallest global id in the class"
//! coincide, which [`DenseUnionFind`] exploits.

use grape_core::par::for_each_slice_chunk;
use grape_core::{
    encode_owner_column, owner_columns, Fragment, PieContext, PieProgram, VertexId, WireError,
};
use grape_graph::{merge_join, strictly_ascending, CsrGraph, DenseBitset, VertexDenseMap};
use std::collections::HashMap;
use std::sync::Arc;

/// CC query: no parameters (the whole graph is labeled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CcQuery;

/// Disjoint-set forest over arbitrary `u64` vertex ids (the global-id
/// reference variant; the PIE hot path uses [`DenseUnionFind`]).
#[derive(Debug, Clone, Default)]
pub struct UnionFind {
    parent: HashMap<VertexId, VertexId>,
}

impl UnionFind {
    /// Creates an empty forest.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finds the representative of `v`, inserting it as a singleton if new.
    pub fn find(&mut self, v: VertexId) -> VertexId {
        let parent = *self.parent.entry(v).or_insert(v);
        if parent == v {
            return v;
        }
        let root = self.find(parent);
        self.parent.insert(v, root);
        root
    }

    /// Unions the classes of `a` and `b`, keeping the smaller id as the root.
    pub fn union(&mut self, a: VertexId, b: VertexId) {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return;
        }
        let (small, large) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent.insert(large, small);
    }

    /// Representative of `v` without inserting (read-only).
    pub fn find_readonly(&self, mut v: VertexId) -> VertexId {
        while let Some(&p) = self.parent.get(&v) {
            if p == v {
                return v;
            }
            v = p;
        }
        v
    }
}

/// Disjoint-set forest over dense `0..n` indices: a flat parent array with
/// path halving, keeping the smallest index as the representative.
#[derive(Debug, Clone)]
pub struct DenseUnionFind {
    parent: Vec<u32>,
}

impl DenseUnionFind {
    /// A forest of `n` singletons.
    pub fn new(n: usize) -> Self {
        Self {
            parent: (0..n as u32).collect(),
        }
    }

    /// Adopts an existing parent array (e.g. a canonicalized component map
    /// from an earlier run) as the starting forest.
    ///
    /// Precondition: every entry is at most its own index, i.e. the array is
    /// an acyclic forest rooted at each class's smallest index — the shape
    /// [`DenseUnionFind::union`] and path halving preserve and
    /// [`DenseUnionFind::into_roots`] relies on. A component map from
    /// [`CcPartial`] has it (snapshots that lack it are refused on restore).
    pub fn from_parents(parent: Vec<u32>) -> Self {
        debug_assert!(
            parent.iter().zip(0u32..).all(|(&p, i)| p <= i),
            "a parent above its child"
        );
        Self { parent }
    }

    /// Finds the representative of `i` with path halving.
    #[inline]
    pub fn find(&mut self, mut i: u32) -> u32 {
        while self.parent[i as usize] != i {
            let grandparent = self.parent[self.parent[i as usize] as usize];
            self.parent[i as usize] = grandparent;
            i = grandparent;
        }
        i
    }

    /// Unions the classes of `a` and `b`, keeping the smaller index as root,
    /// and returns that root.
    #[inline]
    pub fn union(&mut self, a: u32, b: u32) -> u32 {
        let ra = self.find(a);
        let rb = self.find(b);
        let (small, large) = if ra < rb { (ra, rb) } else { (rb, ra) };
        self.parent[large as usize] = small;
        small
    }

    /// The parent array as it stands (canonical if no union has run since
    /// a canonical array was adopted: path halving leaves a flat forest
    /// flat).
    pub fn into_parents(self) -> Vec<u32> {
        self.parent
    }

    /// The canonical component map: entry `i` is the root of `i`'s class.
    /// Every parent sits below its child, so one ascending pass flattens the
    /// forest — each parent has already been pointed at its root.
    pub fn into_roots(mut self) -> Vec<u32> {
        for i in 0..self.parent.len() {
            self.parent[i] = self.parent[self.parent[i] as usize];
        }
        self.parent
    }

    /// Number of elements in the forest.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the forest is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }
}

/// Sequential weakly-connected-components labeling of a whole graph: the
/// reference used in tests (equivalent to
/// [`grape_graph::metrics::weakly_connected_components`] but built on the
/// same union-find the PIE program uses).
pub fn sequential_cc<V: Clone, E: Clone>(graph: &CsrGraph<V, E>) -> HashMap<VertexId, VertexId> {
    let mut uf = UnionFind::new();
    for v in graph.vertices() {
        uf.find(v);
    }
    for (s, d, _) in graph.edges() {
        uf.union(s, d);
    }
    graph.vertices().map(|v| (v, uf.find(v))).collect()
}

/// Component roots (smallest dense index per weakly connected class) of the
/// fragment's local graph: one sequential [`DenseUnionFind`] pass over the
/// local edges, whatever the worker's pool holds. A concurrent min-hooking
/// union-find was deleted: on two threads it took 29.7 ms against 16.2 for
/// this pass on road-512 and 6.7 against 3.8 on road-256
/// (`core.cc.k1_par_ms` against `k1_ms`), and was within noise on R-MAT.
fn local_components(g: &CsrGraph<(), f64>) -> Vec<u32> {
    let n = g.num_vertices();
    let mut uf = DenseUnionFind::new(n);
    for u in 0..n as u32 {
        for &w in g.out_neighbors_dense(u) {
            uf.union(u, w);
        }
    }
    uf.into_roots()
}

/// Per-fragment partial state: the component label (smallest known global id)
/// of every local vertex, keyed by the fragment's dense indices.
#[derive(Debug, Clone, Default)]
pub struct CcPartial {
    labels: VertexDenseMap<VertexId>,
    /// Global ids aligned with `labels`, for Assemble: the local graph's
    /// own column, shared rather than copied.
    vertex_ids: Arc<Vec<VertexId>>,
    /// The owner marker: bit `i` set = local vertex `i` is inner, so this
    /// partial is the one Assemble reads its label from. The fragment's own
    /// bitset, shared.
    owned: Arc<DenseBitset>,
    /// Root dense index (the smallest) of each vertex's class, canonical:
    /// `comp[i]` is the root itself, so `comp[i] <= i`. PEval starts from
    /// the components of the local edges; IncEval joins two classes when a
    /// label shows they are connected through other fragments.
    comp: Vec<u32>,
    /// Current label per root slot (only entries named by `comp` are live).
    comp_label: Vec<VertexId>,
}

/// The CC PIE program.
#[derive(Debug, Clone, Copy, Default)]
pub struct CcProgram;

impl CcProgram {
    fn publish_borders(
        fragment: &Fragment<(), f64>,
        labels: &VertexDenseMap<VertexId>,
        ctx: &mut PieContext<VertexId>,
    ) {
        // Position-addressed: an indexed compare per border vertex.
        for (pos, &i) in fragment.border_dense_indices().iter().enumerate() {
            ctx.update_at(pos as u32, labels[i]);
        }
    }
}

impl PieProgram for CcProgram {
    type Query = CcQuery;
    type VertexData = ();
    type EdgeData = f64;
    type Value = VertexId;
    type Partial = CcPartial;
    type Output = HashMap<VertexId, VertexId>;

    fn peval(
        &self,
        _query: &CcQuery,
        fragment: &Fragment<(), f64>,
        ctx: &mut PieContext<VertexId>,
    ) -> CcPartial {
        // Union-find over the local edges, entirely on dense indices.
        let g = &fragment.graph;
        let n = g.num_vertices();
        let comp = local_components(g);
        // Dense indices ascend with global ids, so the root's id is the
        // smallest global id of the class.
        let comp_label: Vec<VertexId> = (0..n as u32).map(|i| g.vertex_of(i)).collect();
        let labels = VertexDenseMap::from_fn(n, |i| comp_label[comp[i as usize] as usize]);
        Self::publish_borders(fragment, &labels, ctx);
        CcPartial {
            labels,
            vertex_ids: Arc::clone(g.shared_vertex_ids()),
            owned: Arc::clone(fragment.shared_inner_bitset()),
            comp,
            comp_label,
        }
    }

    fn inceval(
        &self,
        _query: &CcQuery,
        fragment: &Fragment<(), f64>,
        partial: &mut CcPartial,
        messages: &[(u32, VertexId)],
        ctx: &mut PieContext<VertexId>,
    ) {
        // Labels are class-uniform, so a message for any vertex of a class
        // lowers the whole class: fold it into the root's slot and, if
        // anything moved, rebuild the flat label array in O(n) instead of
        // re-propagating along edges. A label is the id of a vertex connected
        // to the one it labels; when that vertex is local too, its class and
        // the border vertex's are one component, so join them first (pointer
        // jumping). The smaller root survives with the smaller label, so the
        // result does not depend on the order of the messages.
        let border = fragment.border_dense_indices();
        let g = &fragment.graph;
        let comp_label = &mut partial.comp_label;
        let mut uf = DenseUnionFind::from_parents(std::mem::take(&mut partial.comp));
        let (mut merged, mut touched) = (false, false);
        for &(pos, label) in messages {
            let mut r = uf.find(border[pos as usize]);
            if let Some(j) = g.dense_index(label) {
                let rj = uf.find(j);
                if rj != r {
                    let joined = comp_label[r as usize].min(comp_label[rj as usize]);
                    r = uf.union(r, rj);
                    comp_label[r as usize] = joined;
                    merged = true;
                }
            }
            if label < comp_label[r as usize] {
                comp_label[r as usize] = label;
                touched = true;
            }
        }
        partial.comp = if merged {
            uf.into_roots()
        } else {
            uf.into_parents()
        };
        if !(merged || touched) {
            return;
        }
        let pool = std::sync::Arc::clone(ctx.pool());
        let comp = &partial.comp;
        let comp_label = &partial.comp_label;
        for_each_slice_chunk(&pool, partial.labels.as_mut_slice(), |start, window| {
            for (off, slot) in window.iter_mut().enumerate() {
                *slot = comp_label[comp[start + off] as usize];
            }
        });
        Self::publish_borders(fragment, &partial.labels, ctx);
    }

    fn assemble(&self, partials: Vec<CcPartial>) -> HashMap<VertexId, VertexId> {
        // Each vertex once, from its owner: every copy of a shared vertex is
        // a border vertex and the folded minimum is routed to all of them, so
        // at the fixpoint the owner's label is the smallest any copy has. The
        // map is sized once, to the owned count (the sum of local sizes would
        // be twice that on a hash cut).
        let owned = partials.iter().map(|p| p.owned.count_ones()).sum();
        let mut out = HashMap::with_capacity(owned);
        for partial in &partials {
            for i in partial.owned.iter_ones() {
                out.insert(partial.vertex_ids[i as usize], partial.labels[i]);
            }
        }
        out
    }

    fn encode_answer(&self, fragment: &Fragment<(), f64>, partial: &CcPartial) -> Option<Vec<u8>> {
        // Assemble reads the owners' labels and nothing else.
        Some(encode_owner_column(fragment, |i| partial.labels[i]))
    }

    fn assemble_answers(
        &self,
        fragments: &[Arc<Fragment<(), f64>>],
        answers: &[Vec<u8>],
    ) -> Result<HashMap<VertexId, VertexId>, WireError> {
        let columns = owner_columns::<_, _, VertexId>(fragments, answers)?;
        let mut out = HashMap::with_capacity(columns.iter().map(Vec::len).sum());
        for (fragment, column) in fragments.iter().zip(&columns) {
            out.extend(
                fragment
                    .inner_vertices()
                    .iter()
                    .copied()
                    .zip(column.iter().copied()),
            );
        }
        Ok(out)
    }

    fn aggregate(&self, a: &VertexId, b: &VertexId) -> VertexId {
        *a.min(b)
    }

    fn monotonic(&self, old: &VertexId, new: &VertexId) -> Option<bool> {
        Some(new <= old)
    }

    fn snapshot_partial(&self, partial: &CcPartial) -> Option<Vec<u8>> {
        use grape_core::{wire, MessageSize, Wire};
        use std::mem::size_of_val;
        // Length-prefixed runs of fixed-width numbers: the length is known.
        let len = 4 * 4
            + size_of_val(partial.labels.as_slice())
            + size_of_val(&partial.vertex_ids[..])
            + partial.owned.size_bytes()
            + size_of_val(&partial.comp[..])
            + size_of_val(&partial.comp_label[..]);
        let mut out = Vec::with_capacity(len);
        wire::encode_seq(partial.labels.as_slice(), &mut out);
        partial.vertex_ids.encode(&mut out);
        partial.owned.encode(&mut out);
        partial.comp.encode(&mut out);
        partial.comp_label.encode(&mut out);
        debug_assert_eq!(out.len(), len);
        Some(out)
    }

    fn restore_partial(&self, bytes: &[u8]) -> Option<CcPartial> {
        use grape_core::{Wire, WireReader};
        let mut reader = WireReader::new(bytes);
        let labels = Vec::<VertexId>::decode(&mut reader).ok()?;
        let vertex_ids = Vec::<VertexId>::decode(&mut reader).ok()?;
        let owned = DenseBitset::decode(&mut reader).ok()?;
        let comp = Vec::<u32>::decode(&mut reader).ok()?;
        let comp_label = Vec::<VertexId>::decode(&mut reader).ok()?;
        reader.finish().ok()?;
        // The bytes may be a peer's. Assemble indexes by the owner marker, a
        // warm start merge-joins `vertex_ids` and adopts `comp` as a forest:
        // all five must agree in length, the ids must ascend, and a root is
        // the smallest index of its class, so no entry of `comp` points above
        // itself — which also keeps the forest in range and acyclic.
        let n = labels.len();
        let aligned = [vertex_ids.len(), owned.len(), comp.len(), comp_label.len()] == [n; 4];
        let valid = aligned
            && strictly_ascending(&vertex_ids)
            && comp.iter().zip(0u32..).all(|(&root, i)| root <= i);
        valid.then(|| CcPartial {
            labels: VertexDenseMap::from_vec(labels),
            vertex_ids: Arc::new(vertex_ids),
            owned: Arc::new(owned),
            comp,
            comp_label,
        })
    }

    fn incremental_eligible(&self, profile: &grape_core::MutationProfile) -> bool {
        // Insertions only merge components, so old labels stay valid upper
        // bounds in the min-label order. Deletions can split components,
        // which min-propagation cannot undo — those fall back cold.
        profile.insert_only()
    }

    fn seed_partial(
        &self,
        _query: &CcQuery,
        fragment: &Fragment<(), f64>,
        snapshot: &[u8],
        dirty: &[VertexId],
        _profile: &grape_core::MutationProfile,
        ctx: &mut PieContext<VertexId>,
    ) -> Option<CcPartial> {
        let old = self.restore_partial(snapshot)?;
        // The old converged labels — global minima of the old components —
        // fold straight into the new roots: under insert-only updates every
        // old component is a subset of a new one, so its old label is a valid
        // (often already final) upper bound. The warm run skips the
        // cross-fragment min propagation, which dominates the supersteps of a
        // cold run.
        let g = &fragment.graph;
        let n = g.num_vertices();
        let comp = if *old.vertex_ids == g.vertex_ids() {
            // Edge-only batches keep the fragment's dense-index space, so the
            // old canonical component map is a valid forest over the new
            // graph. Its classes are local components joined by IncEval
            // through other fragments; all were connected in the old graph,
            // so they still are under insert-only batches. Every inserted
            // edge has a dirty source, so folding the out-edges of the dirty
            // vertices into it reconnects what changed. This skips the
            // whole-fragment union-find rebuild of PEval.
            let mut uf = DenseUnionFind::from_parents(old.comp.clone());
            for &v in dirty {
                if let Some(i) = g.dense_index(v) {
                    for &w in g.out_neighbors_dense(i) {
                        uf.union(i, w);
                    }
                }
            }
            uf.into_roots()
        } else {
            // The local vertex set moved (new mirrors or inserted vertices):
            // dense indices shifted, rebuild from the edges.
            local_components(g)
        };
        let mut comp_label: Vec<VertexId> = (0..n as u32).map(|i| g.vertex_of(i)).collect();
        let old_labels = old.labels.as_slice();
        merge_join(&old.vertex_ids, g.vertex_ids(), |i, j| {
            let r = comp[j] as usize;
            comp_label[r] = comp_label[r].min(old_labels[i]);
        });
        let labels = VertexDenseMap::from_fn(n, |i| comp_label[comp[i as usize] as usize]);
        Self::publish_borders(fragment, &labels, ctx);
        Some(CcPartial {
            labels,
            vertex_ids: Arc::clone(g.shared_vertex_ids()),
            owned: Arc::clone(fragment.shared_inner_bitset()),
            comp,
            comp_label,
        })
    }

    fn name(&self) -> &str {
        "cc"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grape_core::{EngineConfig, GrapeEngine};
    use grape_graph::generators::{barabasi_albert, erdos_renyi, road_network, RoadNetworkConfig};
    use grape_graph::GraphBuilder;
    use grape_partition::{
        build_fragments, BuiltinStrategy, HashPartitioner, Partitioner, RangePartitioner,
    };

    #[test]
    fn the_snapshot_is_allocated_at_its_encoded_length() {
        let g = barabasi_albert(150, 2, 17).unwrap();
        let frags = build_fragments(&g, &HashPartitioner.partition(&g, 2));
        for fragment in &frags {
            let mut ctx = PieContext::new();
            ctx.configure_borders(fragment.border_vertices());
            let partial = CcProgram.peval(&CcQuery, fragment, &mut ctx);
            let bytes = CcProgram.snapshot_partial(&partial).expect("snapshots");
            assert_eq!(bytes.capacity(), bytes.len());
        }
    }

    #[test]
    fn partial_snapshot_roundtrips_bit_identically() {
        let g = barabasi_albert(150, 2, 17).unwrap();
        let assignment = HashPartitioner.partition(&g, 2);
        let frags = build_fragments(&g, &assignment);
        let program = CcProgram;
        let mut ctx = PieContext::new();
        ctx.configure_borders(frags[1].border_vertices());
        let partial = program.peval(&CcQuery, &frags[1], &mut ctx);
        let bytes = program.snapshot_partial(&partial).expect("cc snapshots");
        let back = program.restore_partial(&bytes).expect("restore");
        assert_eq!(partial.labels.as_slice(), back.labels.as_slice());
        assert_eq!(partial.vertex_ids, back.vertex_ids);
        assert_eq!(partial.owned, back.owned);
        assert_eq!(partial.comp, back.comp);
        assert_eq!(partial.comp_label, back.comp_label);
        assert!(program.restore_partial(&bytes[..bytes.len() - 1]).is_none());
    }

    /// Assemble as it was before partials carried an owner marker: for every
    /// vertex the smallest label over *all* its copies, mirrors included. The
    /// oracle of the owner-only Assemble.
    fn assemble_min_over_copies(partials: &[CcPartial]) -> HashMap<VertexId, VertexId> {
        let mut out: HashMap<VertexId, VertexId> = HashMap::new();
        for partial in partials {
            for (&v, &label) in partial.vertex_ids.iter().zip(partial.labels.as_slice()) {
                out.entry(v)
                    .and_modify(|l| *l = (*l).min(label))
                    .or_insert(label);
            }
        }
        out
    }

    #[test]
    fn owner_only_assemble_is_the_minimum_over_all_copies() {
        // Several components of a thinned road grid, plus isolated vertices.
        let road = road_network(
            RoadNetworkConfig {
                width: 14,
                height: 14,
                removal_prob: 0.35,
                ..Default::default()
            },
            9,
        )
        .unwrap();
        let mut b = GraphBuilder::<(), f64>::new();
        for (s, d, w) in road.edges() {
            b.add_edge(s, d, *w);
        }
        for v in 2000..2005u64 {
            b.ensure_vertex(v);
        }
        let g = b.build().unwrap();
        let reference = sequential_cc(&g);
        for strategy in [BuiltinStrategy::Hash, BuiltinStrategy::MetisLike] {
            for k in [1, 2, 5] {
                let fragments = build_fragments(&g, &strategy.partition(&g, k));
                let (partials, _) = GrapeEngine::new(CcProgram)
                    .run_partials(&CcQuery, &fragments, &[])
                    .unwrap();
                let owned: usize = partials.iter().map(|p| p.owned.count_ones()).sum();
                assert_eq!(owned, g.num_vertices(), "every vertex has one owner");
                let expected = assemble_min_over_copies(&partials);
                let got = CcProgram.assemble(partials);
                assert_eq!(got, expected, "{strategy:?} k={k}");
                assert_eq!(got, reference, "{strategy:?} k={k}");
                assert_eq!(got[&2003], 2003);
            }
        }
    }

    #[test]
    fn a_snapshot_that_would_misjoin_or_index_out_of_range_is_refused() {
        let g = barabasi_albert(60, 2, 17).unwrap();
        let frags = build_fragments(&g, &HashPartitioner.partition(&g, 2));
        let mut ctx = PieContext::new();
        ctx.configure_borders(frags[1].border_vertices());
        let good = CcProgram.peval(&CcQuery, &frags[1], &mut ctx);
        let n = good.labels.len();
        let refused = |corrupt: &dyn Fn(&mut CcPartial)| {
            let mut partial = good.clone();
            corrupt(&mut partial);
            let bytes = CcProgram.snapshot_partial(&partial).unwrap();
            CcProgram.restore_partial(&bytes).is_none()
        };
        assert!(!refused(&|_| {}), "the untouched snapshot restores");
        assert!(refused(&|p| p.labels = VertexDenseMap::new(n + 1, 0)));
        assert!(refused(&|p| p.owned = Arc::new(DenseBitset::new(n - 1))));
        assert!(refused(&|p| p.comp_label.truncate(1)));
        assert!(refused(&|p| {
            p.comp.pop();
        }));
        // A forest entry past the array (or merely above itself, which could
        // close a cycle) must not reach `DenseUnionFind::from_parents`.
        assert!(refused(&|p| p.comp[0] = n as u32));
        assert!(refused(&|p| p.comp[3] = 4));
        assert!(
            refused(&|p| Arc::make_mut(&mut p.vertex_ids).swap(2, 3)),
            "unsorted ids"
        );
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new();
        uf.union(5, 3);
        uf.union(3, 8);
        assert_eq!(uf.find(8), 3);
        assert_eq!(uf.find(5), 3);
        assert_eq!(uf.find(42), 42);
        assert_eq!(uf.find_readonly(8), 3);
        assert_eq!(uf.find_readonly(1_000), 1_000);
    }

    #[test]
    fn dense_union_find_basics() {
        let mut uf = DenseUnionFind::new(10);
        assert_eq!(uf.len(), 10);
        assert!(!uf.is_empty());
        uf.union(5, 3);
        uf.union(3, 8);
        assert_eq!(uf.find(8), 3);
        assert_eq!(uf.find(5), 3);
        assert_eq!(uf.find(9), 9);
        // The smallest index always wins the root.
        uf.union(8, 0);
        assert_eq!(uf.find(5), 0);
        assert!(DenseUnionFind::new(0).is_empty());
    }

    #[test]
    fn dense_and_hash_union_find_agree() {
        let g = erdos_renyi(120, 0.03, 13).unwrap();
        let reference = sequential_cc(&g);
        let n = g.num_vertices();
        let mut uf = DenseUnionFind::new(n);
        for u in 0..n as u32 {
            for &w in g.out_neighbors_dense(u) {
                uf.union(u, w);
            }
        }
        for u in 0..n as u32 {
            assert_eq!(g.vertex_of(uf.find(u)), reference[&g.vertex_of(u)]);
        }
    }

    #[test]
    fn sequential_cc_labels_by_min_id() {
        let mut b = GraphBuilder::<(), ()>::new();
        b.add_edge(4, 2, ());
        b.add_edge(2, 9, ());
        b.add_edge(7, 8, ());
        let g = b.build().unwrap();
        let cc = sequential_cc(&g);
        assert_eq!(cc[&4], 2);
        assert_eq!(cc[&9], 2);
        assert_eq!(cc[&7], 7);
        assert_eq!(cc[&8], 7);
    }

    fn check_against_reference(g: &CsrGraph<(), f64>, k: usize, strategy: BuiltinStrategy) {
        let expected = sequential_cc(g);
        let assignment = strategy.partition(g, k);
        let engine = GrapeEngine::new(CcProgram).with_config(EngineConfig {
            check_monotonicity: true,
            ..Default::default()
        });
        let result = engine.run_on_graph(&CcQuery, g, &assignment).unwrap();
        for v in g.vertices() {
            assert_eq!(result.output[&v], expected[&v], "vertex {v}");
        }
        assert_eq!(result.stats.monotonicity_violations, 0);
    }

    #[test]
    fn pie_cc_matches_reference_on_random_graphs() {
        check_against_reference(
            &erdos_renyi(300, 0.01, 5).unwrap(),
            4,
            BuiltinStrategy::Hash,
        );
        check_against_reference(
            &barabasi_albert(400, 3, 6).unwrap(),
            6,
            BuiltinStrategy::Ldg,
        );
    }

    #[test]
    fn pie_cc_matches_reference_on_road_network() {
        let g = road_network(
            RoadNetworkConfig {
                width: 20,
                height: 20,
                removal_prob: 0.15,
                ..Default::default()
            },
            31,
        )
        .unwrap();
        check_against_reference(&g, 8, BuiltinStrategy::MetisLike);
    }

    #[test]
    fn many_small_components() {
        // 50 disjoint edges -> 50 components.
        let mut b = GraphBuilder::<(), f64>::new();
        for i in 0..50u64 {
            b.add_edge(2 * i, 2 * i + 1, 1.0);
        }
        let g = b.build().unwrap();
        let assignment = HashPartitioner.partition(&g, 5);
        let result = GrapeEngine::new(CcProgram)
            .run_on_graph(&CcQuery, &g, &assignment)
            .unwrap();
        let distinct: std::collections::HashSet<_> = result.output.values().collect();
        assert_eq!(distinct.len(), 50);
        for i in 0..50u64 {
            assert_eq!(result.output[&(2 * i)], 2 * i);
            assert_eq!(result.output[&(2 * i + 1)], 2 * i);
        }
    }

    #[test]
    fn chain_across_many_fragments_converges() {
        let mut b = GraphBuilder::<(), f64>::new();
        for v in 0..100u64 {
            b.add_edge(v, v + 1, 1.0);
        }
        let g = b.build().unwrap();
        let assignment = RangePartitioner.partition(&g, 10);
        let result = GrapeEngine::new(CcProgram)
            .run_on_graph(&CcQuery, &g, &assignment)
            .unwrap();
        assert!(result.output.values().all(|&l| l == 0));
        // Label 0 must hop across 9 fragment boundaries one superstep at a
        // time, plus the PEval round and a final quiescent round. Pointer
        // jumping cannot shortcut a range-cut chain: a label arriving at a
        // range's first vertex names a vertex of an earlier range, never one
        // local to this range, so no classes join.
        assert!(result.stats.supersteps >= 10);
    }

    #[test]
    fn cc_is_bit_identical_across_thread_counts() {
        use grape_core::par::ThreadCount;
        let g = erdos_renyi(600, 0.008, 23).unwrap();
        let assignment = HashPartitioner.partition(&g, 4);
        let run = |threads: u32| {
            GrapeEngine::new(CcProgram)
                .with_config(EngineConfig {
                    threads_per_worker: ThreadCount::Fixed(threads),
                    ..Default::default()
                })
                .run_on_graph(&CcQuery, &g, &assignment)
                .unwrap()
        };
        let reference = run(1);
        for threads in [2u32, 4, 8] {
            let result = run(threads);
            assert_eq!(result.output, reference.output, "threads={threads}");
            assert_eq!(result.stats.supersteps, reference.stats.supersteps);
            assert_eq!(result.stats.messages, reference.stats.messages);
        }
    }

    #[test]
    fn hash_cut_road_grid_collapses_in_a_few_supersteps() {
        // Under a hash cut a fragment-hop is about one graph-hop, so plain
        // min-label propagation walks the grid's diameter: 32 supersteps
        // here before IncEval joined a label's class to the label's local
        // vertex. Pointer jumping carries a small label across the grid in
        // a handful.
        let g = road_network(RoadNetworkConfig::default(), 7).unwrap();
        let assignment = HashPartitioner.partition(&g, 4);
        let result = GrapeEngine::new(CcProgram)
            .with_config(EngineConfig {
                check_monotonicity: true,
                ..Default::default()
            })
            .run_on_graph(&CcQuery, &g, &assignment)
            .unwrap();
        assert_eq!(result.output, sequential_cc(&g));
        assert_eq!(result.stats.monotonicity_violations, 0);
        assert!(
            result.stats.supersteps <= 4,
            "{} supersteps",
            result.stats.supersteps
        );
    }

    #[test]
    fn program_declarations() {
        assert_eq!(CcProgram.aggregate(&7, &3), 3);
        assert_eq!(CcProgram.monotonic(&7, &3), Some(true));
        assert_eq!(CcProgram.monotonic(&3, &7), Some(false));
        assert_eq!(CcProgram.name(), "cc");
    }
}
