//! Single-source shortest paths (SSSP) — Example 1 of the paper.
//!
//! * **PEval** relaxes the local fragment from the source, if it is local.
//! * **IncEval** is the bounded incremental shortest-path algorithm of
//!   Ramalingam & Reps: when border distances drop, only the affected
//!   vertices are re-relaxed, so the relaxation costs the size of the change
//!   (`|M| + |ΔO|`), not the fragment size. Publication does not: after any
//!   change `inceval` re-reads every border position, O(|border|) — on a
//!   hash cut nearly the whole fragment. Measured small: publishing from the
//!   relaxation's changed list instead moved `road_comm` by 0–7 %, within
//!   noise.
//! * **Assemble** takes every vertex's distance from the fragment that owns
//!   it: at the fixpoint the owner holds the smallest distance any fragment
//!   knows.
//! * The update parameters are the distances of border vertices, aggregated
//!   with `min`; they decrease monotonically, so the Assurance Theorem
//!   applies and the fixpoint is reached with correct answers.
//!
//! PEval, IncEval and a warm start's seeding are one kernel ([`dense_relax`])
//! that relaxes in distance bands as wide as the fragment's largest finite
//! weight, drained in order and FIFO within a band (GBBS's bucketing): an
//! entry costs a push, not the radix queue's walk down its buckets, which on
//! `road_comm` made 17–31 M moves for IncEval's 2.8–5.1 M improvements per
//! query. Bands cut `core.sssp.inceval_ms` there 138 → 70 ms for 2–3 % more
//! improvements, at the same bit-exact fixpoint. The kernel runs on one
//! thread: a chunked Bellman–Ford sweep on two threads lost on road grids
//! (`core.sssp.k1_par_ms` 417 against `k1_ms` 55 on road-512) and won only
//! on R-MAT (62 against 77), so it was deleted. Parallelism is across
//! fragments.
//!
//! The PIE program keeps its per-fragment state in a [`VertexDenseMap`]
//! keyed by the fragment's dense CSR indices and relaxes edges over the flat
//! CSR neighbour/weight slices, so the hot loops never touch a `HashMap`.
//! The global-id `HashMap` variants ([`sequential_sssp`],
//! [`incremental_sssp`]) remain as the sequential references the tests and
//! benches compare against.

use grape_core::{
    encode_owner_column, owner_columns, Fragment, PieContext, PieProgram, VertexId, WireError,
};
use grape_graph::{merge_join, strictly_ascending, CsrGraph, DenseBitset, VertexDenseMap};
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// Distance value used throughout: `f64` seconds/metres/weights.
pub type Distance = f64;

/// An SSSP query: the source vertex.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SsspQuery {
    /// The source vertex (global id).
    pub source: VertexId,
}

impl SsspQuery {
    /// Creates a query.
    pub fn new(source: VertexId) -> Self {
        Self { source }
    }
}

/// Min-heap entry for Dijkstra over global ids.
#[derive(PartialEq)]
struct HeapEntry(Distance, VertexId);

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse so BinaryHeap pops the smallest distance first.
        other
            .0
            .partial_cmp(&self.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| other.1.cmp(&self.1))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Sequential Dijkstra from `source` over the whole graph: the reference
/// answer used by tests and by the single-machine baseline of the benches.
pub fn sequential_sssp(
    graph: &CsrGraph<(), Distance>,
    source: VertexId,
) -> HashMap<VertexId, Distance> {
    let mut dist: HashMap<VertexId, Distance> = HashMap::new();
    if !graph.contains(source) {
        return dist;
    }
    let mut heap = BinaryHeap::new();
    dist.insert(source, 0.0);
    heap.push(HeapEntry(0.0, source));
    while let Some(HeapEntry(d, u)) = heap.pop() {
        if d > dist.get(&u).copied().unwrap_or(Distance::INFINITY) {
            continue;
        }
        for (v, w) in graph.out_edges(u) {
            let nd = d + *w;
            if nd < dist.get(&v).copied().unwrap_or(Distance::INFINITY) {
                dist.insert(v, nd);
                heap.push(HeapEntry(nd, v));
            }
        }
    }
    dist
}

/// Bounded incremental SSSP in the style of Ramalingam & Reps: given current
/// distances and a set of vertices whose distance just dropped, propagate the
/// improvements. Only vertices whose distance actually changes are touched.
///
/// Returns the number of vertices whose distance changed (`|ΔO|`), which the
/// boundedness experiment measures.
pub fn incremental_sssp(
    graph: &CsrGraph<(), Distance>,
    dist: &mut HashMap<VertexId, Distance>,
    seeds: &[(VertexId, Distance)],
) -> usize {
    let mut heap = BinaryHeap::new();
    let mut changed = 0usize;
    for &(v, d) in seeds {
        if d < dist.get(&v).copied().unwrap_or(Distance::INFINITY) {
            dist.insert(v, d);
            changed += 1;
            heap.push(HeapEntry(d, v));
        }
    }
    while let Some(HeapEntry(d, u)) = heap.pop() {
        if d > dist.get(&u).copied().unwrap_or(Distance::INFINITY) {
            continue;
        }
        for (v, w) in graph.out_edges(u) {
            let nd = d + *w;
            if nd < dist.get(&v).copied().unwrap_or(Distance::INFINITY) {
                dist.insert(v, nd);
                changed += 1;
                heap.push(HeapEntry(nd, v));
            }
        }
    }
    changed
}

/// Dense SSSP from the dense index `source` (if any) by PEval's kernel,
/// writing distances into a flat per-vertex array.
pub fn dense_sssp(graph: &CsrGraph<(), Distance>, source: Option<u32>) -> VertexDenseMap<Distance> {
    let mut dist = VertexDenseMap::for_graph(graph, Distance::INFINITY);
    if let Some(src) = source {
        dense_relax(graph, &mut dist, &[(src, 0.0)]);
    }
    dist
}

/// Dense bounded incremental SSSP: relaxes the seeds that improve `dist` in
/// distance bands. Returns `|ΔO|` counted with repeats, the number of strict
/// improvements: which vertices improve is fixed, how often each does
/// depends on the order within a band.
pub fn dense_relax(
    graph: &CsrGraph<(), Distance>,
    dist: &mut VertexDenseMap<Distance>,
    seeds: &[(u32, Distance)],
) -> usize {
    relax_in_bands(graph, dist, seeds, &mut None)
}

/// The kernel of [`dense_relax`], PEval, IncEval and warm seeding. Band
/// `⌊(d − base) / width⌋`, capped at the vertex count, `base` the least
/// improving seed; bands drain in order, FIFO within one. A relaxation at or
/// below the band being drained joins it: label correcting, so zero and
/// negative weights reach the least fixpoint too. `width`, the largest finite
/// positive weight (1.0 if none), is measured once a call has seeds.
fn relax_in_bands(
    graph: &CsrGraph<(), Distance>,
    dist: &mut VertexDenseMap<Distance>,
    seeds: &[(u32, Distance)],
    width: &mut Option<Distance>,
) -> usize {
    let base = seeds
        .iter()
        .filter(|&&(u, d)| d < dist[u])
        .fold(Distance::INFINITY, |base, &(_, d)| base.min(d));
    if base == Distance::INFINITY {
        return 0;
    }
    let width = *width.get_or_insert_with(|| {
        let (_, _, (_, _, weights)) = graph.sorted_parts();
        let finite = weights.iter().copied().filter(|w| w.is_finite());
        Some(finite.fold(0.0, Distance::max))
            .filter(|&w| w > 0.0)
            .unwrap_or(1.0)
    });
    let cap = graph.num_vertices();
    let mut bands: Vec<Vec<(Distance, u32)>> = Vec::new();
    // A drained band's buffer serves the next band opened: fresh buffers per
    // band slowed the queries run after sssp (`rmat_compute` cc +6 %).
    let mut spare = Vec::new();
    let push = |bands: &mut Vec<Vec<_>>, spare: &mut Vec<_>, current, (d, v): (Distance, u32)| {
        // The cast saturates: an offset below `current`, or NaN (infinite
        // `d − base`), joins the band being drained.
        let b = (((d - base) / width) as usize).clamp(current, cap);
        if b >= bands.len() {
            bands.resize_with(b + 1, || std::mem::take(spare));
        }
        bands[b].push((d, v));
    };
    let mut changed = 0usize;
    for &(u, d) in seeds {
        if d < dist[u] {
            dist[u] = d;
            changed += 1;
            push(&mut bands, &mut spare, 0, (d, u));
        }
    }
    let mut current = 0;
    while current < bands.len() {
        let mut next = 0;
        while let Some(&(d, u)) = bands[current].get(next) {
            next += 1;
            if d > dist[u] {
                continue;
            }
            for (&v, &w) in graph
                .out_neighbors_dense(u)
                .iter()
                .zip(graph.out_edge_data_dense(u))
            {
                let nd = d + w;
                if nd < dist[v] {
                    dist[v] = nd;
                    changed += 1;
                    push(&mut bands, &mut spare, current, (nd, v));
                }
            }
        }
        spare = std::mem::take(&mut bands[current]);
        spare.clear();
        current += 1;
    }
    changed
}

/// Per-fragment partial result: the current distance estimates for every
/// local vertex (inner and mirror), keyed by the fragment's dense indices.
#[derive(Debug, Clone, Default)]
pub struct SsspPartial {
    /// Distance estimates keyed by the local graph's dense index
    /// (`INFINITY` = unreached).
    pub dist: VertexDenseMap<Distance>,
    /// Global ids aligned with `dist` (the local graph's vertex-id table),
    /// kept so Assemble can translate without the fragments at hand.
    vertex_ids: Arc<Vec<VertexId>>,
    /// The owner marker: bit `i` set = local vertex `i` is inner, so this
    /// partial is the one Assemble reads its distance from. The fragment's
    /// own bitset, shared rather than copied.
    owned: Arc<DenseBitset>,
    /// Total number of distance changes applied by IncEval calls; used by the
    /// boundedness experiment (F-inc).
    pub inceval_changes: usize,
    /// The band width of `relax_in_bands` on this fragment (`None` until a
    /// relaxation had seeds): kept so IncEval and a warm start make no pass
    /// over the weights.
    width: Option<Distance>,
}

/// The SSSP PIE program.
#[derive(Debug, Clone, Copy, Default)]
pub struct SsspProgram;

impl PieProgram for SsspProgram {
    type Query = SsspQuery;
    type VertexData = ();
    type EdgeData = Distance;
    type Value = Distance;
    type Partial = SsspPartial;
    type Output = HashMap<VertexId, Distance>;

    fn peval(
        &self,
        query: &SsspQuery,
        fragment: &Fragment<(), Distance>,
        ctx: &mut PieContext<Distance>,
    ) -> SsspPartial {
        let g = &fragment.graph;
        // Dense SSSP on the local fragment (distances stay infinite when the
        // source lives elsewhere).
        let mut dist = VertexDenseMap::for_graph(g, Distance::INFINITY);
        let mut width = None;
        let source = g.dense_index(query.source).map(|src| (src, 0.0));
        relax_in_bands(g, &mut dist, source.as_slice(), &mut width);
        // Declare update parameters: the current distance of every border
        // vertex that is already reachable locally. `update_at` addresses
        // the context by border position — an indexed compare per vertex,
        // no lookup.
        for (pos, &i) in fragment.border_dense_indices().iter().enumerate() {
            let d = dist[i];
            if d.is_finite() {
                ctx.update_at(pos as u32, d);
            }
        }
        SsspPartial {
            dist,
            vertex_ids: Arc::clone(g.shared_vertex_ids()),
            owned: Arc::clone(fragment.shared_inner_bitset()),
            inceval_changes: 0,
            width,
        }
    }

    fn inceval(
        &self,
        _query: &SsspQuery,
        fragment: &Fragment<(), Distance>,
        partial: &mut SsspPartial,
        messages: &[(u32, Distance)],
        ctx: &mut PieContext<Distance>,
    ) {
        let g = &fragment.graph;
        // Treat improved border distances as seeds for the incremental
        // algorithm. Messages arrive addressed by border position, so the
        // dense index is one load from the precomputed border table.
        let border = fragment.border_dense_indices();
        let seeds: Vec<(u32, Distance)> = messages
            .iter()
            .map(|&(pos, d)| (border[pos as usize], d))
            .collect();
        let changed = relax_in_bands(g, &mut partial.dist, &seeds, &mut partial.width);
        partial.inceval_changes += changed;
        if changed == 0 {
            return;
        }
        for (pos, &i) in fragment.border_dense_indices().iter().enumerate() {
            let d = partial.dist[i];
            if d.is_finite() {
                ctx.update_at(pos as u32, d);
            }
        }
    }

    fn assemble(&self, partials: Vec<SsspPartial>) -> HashMap<VertexId, Distance> {
        // Each vertex once, from its owner. Every copy of a shared vertex is
        // a border vertex and the coordinator routes the folded minimum to
        // all of them, so at the fixpoint the owner holds it: no pass over
        // mirrors, no compare — and a map sized once, to the owned count (the
        // sum of local sizes would be twice that on a hash cut).
        let owned = partials.iter().map(|p| p.owned.count_ones()).sum();
        let mut out = HashMap::with_capacity(owned);
        for partial in &partials {
            for i in partial.owned.iter_ones() {
                let d = partial.dist[i];
                if d.is_finite() {
                    out.insert(partial.vertex_ids[i as usize], d);
                }
            }
        }
        out
    }

    fn encode_answer(
        &self,
        fragment: &Fragment<(), Distance>,
        partial: &SsspPartial,
    ) -> Option<Vec<u8>> {
        // Assemble reads the owners' distances and nothing else.
        Some(encode_owner_column(fragment, |i| partial.dist[i]))
    }

    fn assemble_answers(
        &self,
        fragments: &[Arc<Fragment<(), Distance>>],
        answers: &[Vec<u8>],
    ) -> Result<HashMap<VertexId, Distance>, WireError> {
        let columns = owner_columns::<_, _, Distance>(fragments, answers)?;
        let mut out = HashMap::with_capacity(columns.iter().map(Vec::len).sum());
        for (fragment, column) in fragments.iter().zip(&columns) {
            for (&v, &d) in fragment.inner_vertices().iter().zip(column) {
                if d.is_finite() {
                    out.insert(v, d);
                }
            }
        }
        Ok(out)
    }

    fn aggregate(&self, a: &Distance, b: &Distance) -> Distance {
        a.min(*b)
    }

    fn monotonic(&self, old: &Distance, new: &Distance) -> Option<bool> {
        Some(new <= old)
    }

    fn snapshot_partial(&self, partial: &SsspPartial) -> Option<Vec<u8>> {
        use grape_core::{wire, MessageSize, Wire};
        use std::mem::size_of_val;
        // Length-prefixed runs of fixed-width numbers: the length is known.
        let len = 4
            + size_of_val(partial.dist.as_slice())
            + 4
            + size_of_val(&partial.vertex_ids[..])
            + partial.owned.size_bytes()
            + 8
            + partial.width.size_bytes();
        let mut out = Vec::with_capacity(len);
        // Raw f64 bits: infinities (unreached vertices) survive exactly.
        wire::encode_seq(partial.dist.as_slice(), &mut out);
        partial.vertex_ids.encode(&mut out);
        partial.owned.encode(&mut out);
        partial.inceval_changes.encode(&mut out);
        partial.width.encode(&mut out);
        debug_assert_eq!(out.len(), len);
        Some(out)
    }

    fn restore_partial(&self, bytes: &[u8]) -> Option<SsspPartial> {
        use grape_core::{Wire, WireReader};
        let mut reader = WireReader::new(bytes);
        let dist = Vec::<Distance>::decode(&mut reader).ok()?;
        let vertex_ids = Vec::<VertexId>::decode(&mut reader).ok()?;
        let owned = DenseBitset::decode(&mut reader).ok()?;
        let inceval_changes = usize::decode(&mut reader).ok()?;
        let width = Option::<Distance>::decode(&mut reader).ok()?;
        reader.finish().ok()?;
        // The bytes may be a peer's: Assemble indexes `dist` and `vertex_ids`
        // by the owner marker and a warm start merge-joins `vertex_ids`, so
        // the three must agree in length and the ids must ascend; a band
        // width is finite and positive.
        let aligned = dist.len() == vertex_ids.len() && owned.len() == dist.len();
        let banded = width.is_none_or(|w| w.is_finite() && w > 0.0);
        (aligned && banded && strictly_ascending(&vertex_ids)).then(|| SsspPartial {
            dist: VertexDenseMap::from_vec(dist),
            vertex_ids: Arc::new(vertex_ids),
            owned: Arc::new(owned),
            inceval_changes,
            width,
        })
    }

    fn incremental_eligible(&self, profile: &grape_core::MutationProfile) -> bool {
        // Distances only tighten under insertions, so the old fixpoint is a
        // valid upper bound to relax down from. Deletions could *lengthen*
        // paths, which min-relaxation cannot undo — those fall back cold.
        profile.insert_only()
    }

    fn seed_partial(
        &self,
        query: &SsspQuery,
        fragment: &Fragment<(), Distance>,
        snapshot: &[u8],
        dirty: &[VertexId],
        _profile: &grape_core::MutationProfile,
        ctx: &mut PieContext<Distance>,
    ) -> Option<SsspPartial> {
        let old = self.restore_partial(snapshot)?;
        let g = &fragment.graph;
        // Carry the converged distances over by global id (dense indices may
        // have shifted) — both id lists ascend, so one merge-join does it;
        // inserted vertices start unreached like a cold run.
        let mut dist = VertexDenseMap::for_graph(g, Distance::INFINITY);
        let (carried, settled) = (dist.as_mut_slice(), old.dist.as_slice());
        merge_join(&old.vertex_ids, g.vertex_ids(), |i, j| {
            carried[j] = settled[i]
        });
        // Every path the update can improve starts by crossing an edge out
        // of a dirty vertex, so relaxing each dirty vertex's out-edges from
        // its settled distance is a complete seed set. Re-seeding the source
        // covers the fragment that just gained it. Min-relaxation converges
        // to the unique least fixpoint from any upper bound, and equal
        // nonnegative f64s share one bit pattern — hence bit-identity with a
        // cold run on the updated graph. The band width grows by the weights
        // read here (an inserted edge a seed crosses), not by a pass.
        let mut width = old.width;
        let mut seeds: Vec<(u32, Distance)> = Vec::new();
        if let Some(src) = g.dense_index(query.source) {
            seeds.push((src, 0.0));
        }
        for &v in dirty {
            let Some(u) = g.dense_index(v) else { continue };
            let d = dist[u];
            if !d.is_finite() {
                continue;
            }
            for (&w_idx, &w) in g
                .out_neighbors_dense(u)
                .iter()
                .zip(g.out_edge_data_dense(u))
            {
                width = width.map(|m| if w.is_finite() { m.max(w) } else { m });
                seeds.push((w_idx, d + w));
            }
        }
        relax_in_bands(g, &mut dist, &seeds, &mut width);
        for (pos, &i) in fragment.border_dense_indices().iter().enumerate() {
            let d = dist[i];
            if d.is_finite() {
                ctx.update_at(pos as u32, d);
            }
        }
        Some(SsspPartial {
            dist,
            vertex_ids: Arc::clone(g.shared_vertex_ids()),
            owned: Arc::clone(fragment.shared_inner_bitset()),
            inceval_changes: 0,
            width,
        })
    }

    fn name(&self) -> &str {
        "sssp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grape_core::{EngineConfig, GrapeEngine};
    use grape_graph::generators::{barabasi_albert, road_network, RoadNetworkConfig};
    use grape_graph::GraphBuilder;
    use grape_partition::{
        build_fragments, BuiltinStrategy, HashPartitioner, Partitioner, RangePartitioner,
    };

    fn assert_distances_match(
        got: &HashMap<VertexId, Distance>,
        expected: &HashMap<VertexId, Distance>,
    ) {
        for (v, d) in expected {
            let g = got.get(v).copied().unwrap_or(Distance::INFINITY);
            assert!(
                (g - d).abs() < 1e-9,
                "vertex {v}: engine {g} vs reference {d}"
            );
        }
        // No spurious finite distances for unreachable vertices.
        for (v, d) in got {
            if d.is_finite() {
                assert!(expected.contains_key(v), "vertex {v} should be unreachable");
            }
        }
    }

    #[test]
    fn the_snapshot_is_allocated_at_its_encoded_length() {
        let g = barabasi_albert(200, 3, 13).unwrap();
        let frags = build_fragments(&g, &HashPartitioner.partition(&g, 2));
        for fragment in &frags {
            let mut ctx = PieContext::new();
            ctx.configure_borders(fragment.border_vertices());
            let partial = SsspProgram.peval(&SsspQuery::new(0), fragment, &mut ctx);
            let bytes = SsspProgram.snapshot_partial(&partial).expect("snapshots");
            assert_eq!(bytes.capacity(), bytes.len());
        }
    }

    #[test]
    fn partial_snapshot_roundtrips_bit_identically() {
        let g = barabasi_albert(200, 3, 13).unwrap();
        let assignment = HashPartitioner.partition(&g, 2);
        let frags = build_fragments(&g, &assignment);
        let program = SsspProgram;
        let mut ctx = PieContext::new();
        ctx.configure_borders(frags[0].border_vertices());
        let partial = program.peval(&SsspQuery::new(0), &frags[0], &mut ctx);
        let bytes = program.snapshot_partial(&partial).expect("sssp snapshots");
        let back = program.restore_partial(&bytes).expect("restore");
        assert_eq!(
            partial
                .dist
                .as_slice()
                .iter()
                .map(|d| d.to_bits())
                .collect::<Vec<_>>(),
            back.dist
                .as_slice()
                .iter()
                .map(|d| d.to_bits())
                .collect::<Vec<_>>(),
            "distances must survive bit for bit (including infinities)"
        );
        assert_eq!(partial.vertex_ids, back.vertex_ids);
        assert_eq!(partial.owned, back.owned);
        assert_eq!(partial.inceval_changes, back.inceval_changes);
        // Corrupt bytes fail typed, not by panic.
        assert!(program.restore_partial(&bytes[..bytes.len() - 1]).is_none());
    }

    /// Assemble as it was before partials carried an owner marker: for every
    /// vertex the smallest finite distance over *all* its copies, mirrors
    /// included. The oracle of the owner-only Assemble.
    fn assemble_min_over_copies(partials: &[SsspPartial]) -> HashMap<VertexId, Distance> {
        let mut out: HashMap<VertexId, Distance> = HashMap::new();
        for partial in partials {
            for (&v, &d) in partial.vertex_ids.iter().zip(partial.dist.as_slice()) {
                if d.is_finite() {
                    out.entry(v)
                        .and_modify(|cur| *cur = cur.min(d))
                        .or_insert(d);
                }
            }
        }
        out
    }

    #[test]
    fn owner_only_assemble_is_the_minimum_over_all_copies() {
        // A road grid, a chain the source cannot reach, isolated vertices.
        let road = road_network(
            RoadNetworkConfig {
                width: 14,
                height: 14,
                removal_prob: 0.1,
                ..Default::default()
            },
            5,
        )
        .unwrap();
        let mut b = GraphBuilder::<(), f64>::new();
        for (s, d, w) in road.edges() {
            b.add_edge(s, d, *w);
        }
        for v in 1000..1010u64 {
            b.add_edge(v, v + 1, 1.0);
        }
        for v in 2000..2005u64 {
            b.ensure_vertex(v);
        }
        let g = b.build().unwrap();
        let query = SsspQuery::new(road.vertex_ids()[0]);
        let reference = sequential_sssp(&g, query.source);
        for strategy in [BuiltinStrategy::Hash, BuiltinStrategy::MetisLike] {
            for k in [1, 2, 5] {
                let fragments = build_fragments(&g, &strategy.partition(&g, k));
                let (partials, _) = GrapeEngine::new(SsspProgram)
                    .run_partials(&query, &fragments, &[])
                    .unwrap();
                let owned: usize = partials.iter().map(|p| p.owned.count_ones()).sum();
                assert_eq!(owned, g.num_vertices(), "every vertex has one owner");
                let expected = assemble_min_over_copies(&partials);
                let got = SsspProgram.assemble(partials);
                assert_eq!(got, expected, "{strategy:?} k={k}");
                assert_eq!(got, reference, "{strategy:?} k={k}");
                assert!(!got.contains_key(&1005) && !got.contains_key(&2003));
            }
        }
    }

    #[test]
    fn a_snapshot_that_would_misjoin_or_index_out_of_range_is_refused() {
        let g = barabasi_albert(60, 2, 13).unwrap();
        let frags = build_fragments(&g, &HashPartitioner.partition(&g, 2));
        let mut ctx = PieContext::new();
        ctx.configure_borders(frags[0].border_vertices());
        let good = SsspProgram.peval(&SsspQuery::new(0), &frags[0], &mut ctx);
        let n = good.dist.len();
        let refused = |corrupt: &dyn Fn(&mut SsspPartial)| {
            let mut partial = good.clone();
            corrupt(&mut partial);
            let bytes = SsspProgram.snapshot_partial(&partial).unwrap();
            SsspProgram.restore_partial(&bytes).is_none()
        };
        assert!(!refused(&|_| {}), "the untouched snapshot restores");
        assert!(refused(&|p| p.dist = VertexDenseMap::new(n - 1, 0.0)));
        assert!(refused(&|p| Arc::make_mut(&mut p.vertex_ids).push(u64::MAX)));
        assert!(refused(&|p| p.owned = Arc::new(DenseBitset::new(n + 64))));
        assert!(
            refused(&|p| Arc::make_mut(&mut p.vertex_ids).swap(0, 1)),
            "unsorted ids"
        );
        assert!(
            refused(&|p| Arc::make_mut(&mut p.vertex_ids)[1] = p.vertex_ids[0]),
            "a repeated id"
        );
        for width in [0.0, -0.0, -1.0, Distance::INFINITY, Distance::NAN] {
            assert!(refused(&|p| p.width = Some(width)), "width {width}");
        }
        assert!(!refused(&|p| p.width = Some(2.5)));
        assert!(!refused(&|p| p.width = None), "a width not measured yet");
    }

    #[test]
    fn sequential_dijkstra_small_example() {
        let mut b = GraphBuilder::<(), f64>::new();
        b.add_edge(0, 1, 1.0);
        b.add_edge(0, 2, 4.0);
        b.add_edge(1, 2, 2.0);
        b.add_edge(2, 3, 1.0);
        let g = b.build().unwrap();
        let d = sequential_sssp(&g, 0);
        assert_eq!(d[&0], 0.0);
        assert_eq!(d[&1], 1.0);
        assert_eq!(d[&2], 3.0);
        assert_eq!(d[&3], 4.0);
        assert!(sequential_sssp(&g, 99).is_empty());
    }

    #[test]
    fn dense_sssp_matches_sequential_reference() {
        let g = barabasi_albert(400, 3, 19).unwrap();
        let dense = dense_sssp(&g, g.dense_index(0));
        let reference = sequential_sssp(&g, 0);
        for (v, d) in dense.iter_with(&g) {
            match reference.get(&v) {
                Some(r) => assert_eq!(*d, *r, "vertex {v}"),
                None => assert!(d.is_infinite(), "vertex {v} should be unreached"),
            }
        }
        // A missing source yields an all-infinite map.
        let empty = dense_sssp(&g, None);
        assert!(empty.as_slice().iter().all(|d| d.is_infinite()));
    }

    #[test]
    fn work_does_not_depend_on_the_thread_count() {
        // One kernel at every pool size: not only the distances but the
        // number of strict improvements IncEval makes, and the supersteps
        // and messages of the run, are those of one thread.
        use grape_core::par::ThreadCount;
        let g = road_network(RoadNetworkConfig::default(), 7).unwrap();
        let fragments = build_fragments(&g, &HashPartitioner.partition(&g, 2));
        let run = |threads: u32| {
            GrapeEngine::new(SsspProgram)
                .with_config(EngineConfig {
                    threads_per_worker: ThreadCount::Fixed(threads),
                    ..Default::default()
                })
                .run_partials(&SsspQuery::new(g.vertex_ids()[0]), &fragments, &[])
                .unwrap()
        };
        let bits = |p: &SsspPartial| -> Vec<u64> {
            p.dist.as_slice().iter().map(|d| d.to_bits()).collect()
        };
        let (reference, stats) = run(1);
        assert!(stats.supersteps > 2, "the cut makes IncEval work");
        for threads in [2u32, 4] {
            let (partials, got) = run(threads);
            assert_eq!(got.supersteps, stats.supersteps, "threads={threads}");
            assert_eq!(got.messages, stats.messages, "threads={threads}");
            for (i, (p, r)) in partials.iter().zip(&reference).enumerate() {
                let what = format!("fragment {i}, threads={threads}");
                assert_eq!(p.inceval_changes, r.inceval_changes, "{what}");
                assert_eq!(bits(p), bits(r), "{what}");
            }
        }
    }

    #[test]
    fn dense_relax_is_idempotent() {
        let g = barabasi_albert(300, 3, 7).unwrap();
        let mut dist = VertexDenseMap::for_graph(&g, Distance::INFINITY);
        let src = g.dense_index(0).unwrap();
        let changed = dense_relax(&g, &mut dist, &[(src, 0.0)]);
        assert!(changed > 0);
        assert_eq!(dense_relax(&g, &mut dist, &[(src, 0.0)]), 0);
    }

    #[test]
    fn the_band_width_is_the_largest_finite_weight_and_a_warm_start_widens_it() {
        let graph = |edges: &[(VertexId, VertexId, Distance)]| {
            let mut b = GraphBuilder::<(), f64>::new();
            for &(s, d, w) in edges {
                b.add_edge(s, d, w);
            }
            b.build().unwrap()
        };
        let one_fragment = |g: &CsrGraph<(), Distance>| {
            build_fragments(g, &RangePartitioner.partition(g, 1)).remove(0)
        };
        let peval = |fragment: &Fragment<(), Distance>, source: VertexId| {
            let mut ctx = PieContext::new();
            ctx.configure_borders(fragment.border_vertices());
            SsspProgram.peval(&SsspQuery::new(source), fragment, &mut ctx)
        };
        let edges = [
            (0, 1, 0.5),
            (1, 2, 3.0),
            (2, 3, Distance::INFINITY),
            (3, 4, 0.0),
            (4, 5, 2.0),
        ];
        let before = one_fragment(&graph(&edges));
        let partial = peval(&before, 0);
        assert_eq!(partial.width, Some(3.0), "+∞ is not a width");
        assert_eq!(peval(&before, 99).width, None, "no seeds, no pass");
        let flat = one_fragment(&graph(&[(0, 1, 0.0), (1, 2, Distance::INFINITY)]));
        assert_eq!(
            peval(&flat, 0).width,
            Some(1.0),
            "no finite positive weight"
        );

        // An inserted edge out of a reached vertex, heavier than any before.
        let inserted = [edges.as_slice(), &[(2, 6, 7.0)]].concat();
        let after = one_fragment(&graph(&inserted));
        let snapshot = SsspProgram.snapshot_partial(&partial).unwrap();
        let mut ctx = PieContext::new();
        ctx.configure_borders(after.border_vertices());
        let profile = grape_core::MutationProfile {
            edge_inserts: 1,
            ..Default::default()
        };
        let warm = SsspProgram
            .seed_partial(
                &SsspQuery::new(0),
                &after,
                &snapshot,
                &[2, 6],
                &profile,
                &mut ctx,
            )
            .expect("an insert-only seed");
        assert_eq!(warm.width, Some(7.0));
        let cold = peval(&after, 0);
        assert_eq!(cold.width, Some(7.0));
        assert_eq!(warm.dist.as_slice(), cold.dist.as_slice());
    }

    #[test]
    fn a_negative_weight_still_relaxes_to_the_fixpoint() {
        // Pushes below the last key popped: no longer Dijkstra's order, but
        // nothing is lost, as with the reference's binary heap.
        let mut b = GraphBuilder::<(), f64>::new();
        b.add_edge(0, 1, 5.0);
        b.add_edge(0, 2, 1.0);
        b.add_edge(0, 4, 6.0);
        b.add_edge(1, 2, -4.5);
        b.add_edge(2, 3, 1.0);
        b.add_edge(3, 4, 0.25);
        let g = b.build().unwrap();
        let dense = dense_sssp(&g, g.dense_index(0));
        let reference = sequential_sssp(&g, 0);
        for (v, d) in dense.iter_with(&g) {
            assert_eq!(d.to_bits(), reference[&v].to_bits(), "vertex {v}");
        }
        assert_eq!(reference[&4], 1.75);
    }

    #[test]
    fn incremental_matches_recompute() {
        let g = barabasi_albert(300, 3, 7).unwrap();
        // Start from distances computed with an artificially bad source
        // estimate, then feed the true source as a seed.
        let mut dist = HashMap::new();
        let changed = incremental_sssp(&g, &mut dist, &[(0, 0.0)]);
        assert!(changed > 0);
        let expected = sequential_sssp(&g, 0);
        assert_distances_match(&dist, &expected);
        // Feeding the same seeds again changes nothing (idempotent).
        assert_eq!(incremental_sssp(&g, &mut dist, &[(0, 0.0)]), 0);
    }

    #[test]
    fn incremental_cost_scales_with_change_not_graph() {
        // On a long chain, improving the distance of a vertex near the end
        // touches only the tail — the boundedness property of IncEval.
        let mut b = GraphBuilder::<(), f64>::new();
        for v in 0..10_000u64 {
            b.add_edge(v, v + 1, 1.0);
        }
        let g = b.build().unwrap();
        let mut dist = sequential_sssp(&g, 0);
        let near_end = 9_990u64;
        let changed = incremental_sssp(&g, &mut dist, &[(near_end, 1.0)]);
        assert!(changed <= 11, "only the tail is touched, got {changed}");
    }

    #[test]
    fn pie_sssp_matches_reference_on_road_network() {
        let g = road_network(
            RoadNetworkConfig {
                width: 24,
                height: 24,
                ..Default::default()
            },
            11,
        )
        .unwrap();
        let expected = sequential_sssp(&g, 0);
        for strategy in [BuiltinStrategy::Hash, BuiltinStrategy::MetisLike] {
            let assignment = strategy.partition(&g, 6);
            let engine = GrapeEngine::new(SsspProgram).with_config(EngineConfig {
                check_monotonicity: true,
                ..Default::default()
            });
            let result = engine
                .run_on_graph(&SsspQuery::new(0), &g, &assignment)
                .unwrap();
            assert_distances_match(&result.output, &expected);
            assert_eq!(result.stats.monotonicity_violations, 0);
        }
    }

    #[test]
    fn pie_sssp_matches_reference_on_power_law_graph() {
        let g = barabasi_albert(800, 4, 3).unwrap();
        let expected = sequential_sssp(&g, 5);
        let assignment = HashPartitioner.partition(&g, 8);
        let result = GrapeEngine::new(SsspProgram)
            .run_on_graph(&SsspQuery::new(5), &g, &assignment)
            .unwrap();
        assert_distances_match(&result.output, &expected);
        assert!(result.stats.supersteps >= 2, "cross-fragment paths exist");
    }

    #[test]
    fn unreachable_vertices_stay_unreached() {
        // Two disjoint chains; source in the first one.
        let mut b = GraphBuilder::<(), f64>::new();
        for v in 0..10u64 {
            b.add_edge(v, v + 1, 1.0);
        }
        for v in 100..110u64 {
            b.add_edge(v, v + 1, 1.0);
        }
        let g = b.build().unwrap();
        let assignment = RangePartitioner.partition(&g, 4);
        let result = GrapeEngine::new(SsspProgram)
            .run_on_graph(&SsspQuery::new(0), &g, &assignment)
            .unwrap();
        for v in 100..=110u64 {
            assert!(
                !result.output.contains_key(&v) || result.output[&v].is_infinite(),
                "vertex {v} must not receive a finite distance"
            );
        }
        assert_eq!(result.output[&10], 10.0);
    }

    #[test]
    fn source_missing_from_graph_gives_empty_result() {
        let g = barabasi_albert(50, 2, 2).unwrap();
        let assignment = HashPartitioner.partition(&g, 3);
        let result = GrapeEngine::new(SsspProgram)
            .run_on_graph(&SsspQuery::new(9_999), &g, &assignment)
            .unwrap();
        assert!(result.output.values().all(|d| d.is_infinite() || *d == 0.0));
        assert!(result.output.is_empty());
        assert_eq!(result.stats.supersteps, 1);
    }

    #[test]
    fn better_partitions_ship_fewer_messages() {
        let g = road_network(
            RoadNetworkConfig {
                width: 32,
                height: 32,
                removal_prob: 0.0,
                shortcut_prob: 0.0,
                ..Default::default()
            },
            13,
        )
        .unwrap();
        let hash = GrapeEngine::new(SsspProgram)
            .run_on_graph(
                &SsspQuery::new(0),
                &g,
                &BuiltinStrategy::Hash.partition(&g, 8),
            )
            .unwrap();
        let metis = GrapeEngine::new(SsspProgram)
            .run_on_graph(
                &SsspQuery::new(0),
                &g,
                &BuiltinStrategy::MetisLike.partition(&g, 8),
            )
            .unwrap();
        assert!(
            metis.stats.messages < hash.stats.messages,
            "metis {} messages should undercut hash {}",
            metis.stats.messages,
            hash.stats.messages
        );
        // Same answers either way.
        let reference = sequential_sssp(&g, 0);
        assert_distances_match(&metis.output, &reference);
        assert_distances_match(&hash.output, &reference);
    }

    #[test]
    fn query_constructor() {
        assert_eq!(SsspQuery::new(7).source, 7);
        assert_eq!(SsspProgram.name(), "sssp");
        assert_eq!(SsspProgram.aggregate(&3.0, &5.0), 3.0);
        assert_eq!(SsspProgram.monotonic(&5.0, &3.0), Some(true));
        assert_eq!(SsspProgram.monotonic(&3.0, &5.0), Some(false));
    }
}
