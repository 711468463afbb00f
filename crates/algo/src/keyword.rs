//! Keyword search in graphs (`Keyword`), one of the registered query classes
//! of the demo.
//!
//! Given a set of keywords and a hop bound, a keyword query returns the
//! vertices ("answer roots") that can reach at least one holder of *every*
//! keyword within the bound, ranked by the total distance to the nearest
//! holders — the classic distance-based keyword-search semantics over graphs.
//!
//! PIE formulation (a vectorized variant of SSSP):
//!
//! * For every vertex `v` and keyword `k`, maintain `d_k(v)` = the length of
//!   the shortest outgoing path from `v` to a vertex carrying `k`.
//! * **PEval** runs a multi-source Dijkstra per keyword *backwards* (along
//!   in-edges, sources are the keyword holders) on the fragment.
//! * The **update parameter** of a border vertex is its distance vector,
//!   aggregated element-wise with `min` — monotonically decreasing, so the
//!   Assurance Theorem applies.
//! * **IncEval** relaxes backwards from border vertices whose vector
//!   improved.
//! * **Assemble** merges the vectors and extracts the ranked answers,
//!   re-applying the query's distance bound (each fragment carries the bound
//!   in its partial, so a finite `max_total_distance` filters the merged
//!   answers exactly like the sequential reference).
//!
//! The per-fragment state is one flat [`VertexDenseMap<f64>`] per keyword,
//! keyed by the local graph's dense CSR indices; the relaxation loops run
//! over the flat CSR in-neighbour slices and never touch a `HashMap`.

use grape_core::par::{map_chunks, ThreadPool};
use grape_core::{Fragment, PieContext, PieProgram, VertexId};
use grape_graph::labels::LabeledVertex;
use grape_graph::{CsrGraph, DenseBitset, VertexDenseMap};
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// A keyword-search query.
#[derive(Debug, Clone, PartialEq)]
pub struct KeywordQuery {
    /// Keywords that must all be reachable.
    pub keywords: Vec<String>,
    /// Maximum total distance (sum over keywords) for a root to qualify.
    pub max_total_distance: f64,
}

impl KeywordQuery {
    /// Creates a query.
    pub fn new(keywords: impl IntoIterator<Item = impl Into<String>>, max_total: f64) -> Self {
        Self {
            keywords: keywords.into_iter().map(Into::into).collect(),
            max_total_distance: max_total,
        }
    }
}

/// Distance vector: position `i` is the distance to the nearest holder of
/// keyword `i` (infinite when unreachable).
pub type DistanceVector = Vec<f64>;

/// A ranked keyword-search answer.
#[derive(Debug, Clone, PartialEq)]
pub struct KeywordAnswer {
    /// The answer root.
    pub root: VertexId,
    /// Distance to the nearest holder of each keyword.
    pub distances: DistanceVector,
    /// Sum of the per-keyword distances (the ranking key).
    pub total: f64,
}

/// Min-heap entry, reversed so `BinaryHeap` pops the smallest distance
/// first; generic over the vertex-id type so the global-id reference path
/// (`VertexId`) and the dense hot path (`u32`) share one ordering.
#[derive(PartialEq)]
struct HeapEntry<I>(f64, I);
impl<I: Ord + PartialEq> Eq for HeapEntry<I> {}
impl<I: Ord> Ord for HeapEntry<I> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .0
            .partial_cmp(&self.0)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| other.1.cmp(&self.1))
    }
}
impl<I: Ord> PartialOrd for HeapEntry<I> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Backward multi-source Dijkstra for one keyword over any adjacency closure:
/// `sources` are the keyword holders (distance 0); `in_edges(v)` lists the
/// predecessors of `v` with hop weight 1.
fn backward_bfs<F>(sources: &[VertexId], in_edges: F, dist: &mut HashMap<VertexId, f64>) -> usize
where
    F: Fn(VertexId) -> Vec<VertexId>,
{
    let mut heap = BinaryHeap::new();
    let mut changed = 0usize;
    for &s in sources {
        if 0.0 < dist.get(&s).copied().unwrap_or(f64::INFINITY) {
            dist.insert(s, 0.0);
            changed += 1;
        }
        heap.push(HeapEntry(dist[&s], s));
    }
    while let Some(HeapEntry(d, v)) = heap.pop() {
        if d > dist.get(&v).copied().unwrap_or(f64::INFINITY) {
            continue;
        }
        for u in in_edges(v) {
            let nd = d + 1.0;
            if nd < dist.get(&u).copied().unwrap_or(f64::INFINITY) {
                dist.insert(u, nd);
                changed += 1;
                heap.push(HeapEntry(nd, u));
            }
        }
    }
    changed
}

/// Sequential keyword search over a whole labeled graph — the reference.
pub fn sequential_keyword(
    graph: &grape_graph::LabeledGraph,
    query: &KeywordQuery,
) -> Vec<KeywordAnswer> {
    let mut per_vertex: HashMap<VertexId, DistanceVector> = graph
        .vertices()
        .map(|v| (v, vec![f64::INFINITY; query.keywords.len()]))
        .collect();
    for (k, keyword) in query.keywords.iter().enumerate() {
        let sources: Vec<VertexId> = graph
            .vertices()
            .filter(|v| {
                graph
                    .vertex_data(*v)
                    .is_some_and(|d| d.has_keyword(keyword))
            })
            .collect();
        let mut dist: HashMap<VertexId, f64> = HashMap::new();
        backward_bfs(
            &sources,
            |v| graph.in_edges(v).map(|(u, _)| u).collect(),
            &mut dist,
        );
        for (v, d) in dist {
            per_vertex.get_mut(&v).expect("vertex exists")[k] = d;
        }
    }
    rank_answers(&per_vertex, query)
}

/// Turns per-vertex distance vectors into the ranked answer list.
pub fn rank_answers(
    per_vertex: &HashMap<VertexId, DistanceVector>,
    query: &KeywordQuery,
) -> Vec<KeywordAnswer> {
    let mut answers: Vec<KeywordAnswer> = per_vertex
        .iter()
        .filter_map(|(v, dists)| {
            if dists.iter().any(|d| !d.is_finite()) {
                return None;
            }
            let total: f64 = dists.iter().sum();
            (total <= query.max_total_distance).then(|| KeywordAnswer {
                root: *v,
                distances: dists.clone(),
                total,
            })
        })
        .collect();
    answers.sort_by(|a, b| {
        a.total
            .partial_cmp(&b.total)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.root.cmp(&b.root))
    });
    answers
}

/// Per-fragment partial state: one flat distance array per keyword, keyed by
/// the local graph's dense indices.
#[derive(Debug, Clone)]
pub struct KeywordPartial {
    /// `dist[k][i]` = distance from local dense vertex `i` to the nearest
    /// holder of keyword `k`.
    dist: Vec<VertexDenseMap<f64>>,
    /// Global ids aligned with the dense indices (the local graph's id
    /// table, shared rather than copied), kept so Assemble can translate
    /// without the fragments at hand.
    vertex_ids: Arc<Vec<VertexId>>,
    /// The query's distance bound, carried into Assemble so the merged
    /// answers are filtered exactly like the sequential reference.
    max_total_distance: f64,
}

impl Default for KeywordPartial {
    fn default() -> Self {
        Self {
            dist: Vec::new(),
            vertex_ids: Arc::default(),
            max_total_distance: f64::INFINITY,
        }
    }
}

/// The keyword-search PIE program.
#[derive(Debug, Clone, Copy, Default)]
pub struct KeywordProgram;

impl KeywordProgram {
    /// Backward Dijkstra restricted to keyword slot `k`, seeded with the
    /// given `(dense vertex, distance)` pairs, relaxing over the flat CSR
    /// in-neighbour slices.
    fn relax_keyword(
        graph: &CsrGraph<LabeledVertex, String>,
        dist: &mut VertexDenseMap<f64>,
        seeds: &[(u32, f64)],
    ) -> usize {
        let mut heap = BinaryHeap::new();
        let mut changed = 0usize;
        for &(v, d) in seeds {
            if d < dist[v] {
                dist[v] = d;
                changed += 1;
                heap.push(HeapEntry(d, v));
            }
        }
        while let Some(HeapEntry(d, v)) = heap.pop() {
            if d > dist[v] {
                continue;
            }
            for &u in graph.in_neighbors_dense(v) {
                let nd = d + 1.0;
                if nd < dist[u] {
                    dist[u] = nd;
                    changed += 1;
                    heap.push(HeapEntry(nd, u));
                }
            }
        }
        changed
    }

    /// [`Self::relax_keyword`] with an intra-fragment thread pool: a
    /// single-threaded pool takes the sequential backward Dijkstra unchanged;
    /// a larger pool runs chunked frontier rounds (`map_chunks` over the
    /// frontier's index list, candidates applied in fixed chunk order)
    /// relaxing over the flat CSR *in*-neighbour slices with hop weight 1.
    /// Hop distances are small integers, exactly representable in f64, so
    /// both schedules converge to the same least fixpoint with **identical
    /// bits** for every thread count. The returned change count is
    /// schedule-dependent; callers only branch on `changed == 0`.
    fn relax_keyword_par(
        pool: &ThreadPool,
        graph: &CsrGraph<LabeledVertex, String>,
        dist: &mut VertexDenseMap<f64>,
        seeds: &[(u32, f64)],
    ) -> usize {
        if pool.threads() <= 1 {
            return Self::relax_keyword(graph, dist, seeds);
        }
        let n = graph.num_vertices();
        let mut changed = 0usize;
        let mut in_frontier = DenseBitset::new(n);
        let mut frontier: Vec<u32> = Vec::new();
        for &(v, d) in seeds {
            if d < dist[v] {
                dist[v] = d;
                changed += 1;
                if !in_frontier.contains(v) {
                    in_frontier.set(v);
                    frontier.push(v);
                }
            }
        }
        frontier.sort_unstable();
        let mut next: Vec<u32> = Vec::new();
        while !frontier.is_empty() {
            let snapshot: &VertexDenseMap<f64> = dist;
            let frontier_ref: &[u32] = &frontier;
            let candidates =
                map_chunks(pool, frontier.len(), |range, out: &mut Vec<(u32, f64)>| {
                    for &v in &frontier_ref[range] {
                        let nd = snapshot[v] + 1.0;
                        for &u in graph.in_neighbors_dense(v) {
                            if nd < snapshot[u] {
                                out.push((u, nd));
                            }
                        }
                    }
                });
            for &v in &frontier {
                in_frontier.clear(v);
            }
            next.clear();
            for chunk in &candidates {
                for &(u, nd) in chunk {
                    if nd < dist[u] {
                        dist[u] = nd;
                        changed += 1;
                        if !in_frontier.contains(u) {
                            in_frontier.set(u);
                            next.push(u);
                        }
                    }
                }
            }
            std::mem::swap(&mut frontier, &mut next);
        }
        changed
    }

    /// Publishes the distance vector of every border vertex that is already
    /// reachable for at least one keyword. Position-addressed via the border
    /// tables — an indexed gather per vertex, no lookup.
    fn publish_borders(
        fragment: &Fragment<LabeledVertex, String>,
        partial: &KeywordPartial,
        ctx: &mut PieContext<DistanceVector>,
    ) {
        for (pos, &i) in fragment.border_dense_indices().iter().enumerate() {
            let vec: DistanceVector = partial.dist.iter().map(|d| d[i]).collect();
            if vec.iter().any(|d| d.is_finite()) {
                ctx.update_at(pos as u32, vec);
            }
        }
    }
}

impl PieProgram for KeywordProgram {
    type Query = KeywordQuery;
    type VertexData = LabeledVertex;
    type EdgeData = String;
    type Value = DistanceVector;
    type Partial = KeywordPartial;
    type Output = Vec<KeywordAnswer>;

    fn peval(
        &self,
        query: &KeywordQuery,
        fragment: &Fragment<LabeledVertex, String>,
        ctx: &mut PieContext<DistanceVector>,
    ) -> KeywordPartial {
        let g = &fragment.graph;
        let n = g.num_vertices();
        let mut partial = KeywordPartial {
            dist: vec![VertexDenseMap::new(n, f64::INFINITY); query.keywords.len()],
            vertex_ids: Arc::clone(g.shared_vertex_ids()),
            max_total_distance: query.max_total_distance,
        };
        let pool = std::sync::Arc::clone(ctx.pool());
        for (k, keyword) in query.keywords.iter().enumerate() {
            let sources: Vec<(u32, f64)> = (0..n as u32)
                .filter(|&i| g.vertex_data_at(i).has_keyword(keyword))
                .map(|i| (i, 0.0))
                .collect();
            Self::relax_keyword_par(&pool, g, &mut partial.dist[k], &sources);
        }
        Self::publish_borders(fragment, &partial, ctx);
        partial
    }

    fn inceval(
        &self,
        query: &KeywordQuery,
        fragment: &Fragment<LabeledVertex, String>,
        partial: &mut KeywordPartial,
        messages: &[(u32, DistanceVector)],
        ctx: &mut PieContext<DistanceVector>,
    ) {
        let g = &fragment.graph;
        // Messages arrive addressed by border position: the dense index is
        // one load from the precomputed border table.
        let border = fragment.border_dense_indices();
        let pool = std::sync::Arc::clone(ctx.pool());
        let mut total_changed = 0usize;
        for k in 0..query.keywords.len() {
            let seeds: Vec<(u32, f64)> = messages
                .iter()
                .filter(|(_, vec)| vec.len() > k && vec[k].is_finite())
                .map(|(pos, vec)| (border[*pos as usize], vec[k]))
                .collect();
            if seeds.is_empty() {
                continue;
            }
            total_changed += Self::relax_keyword_par(&pool, g, &mut partial.dist[k], &seeds);
        }
        if total_changed == 0 {
            return;
        }
        Self::publish_borders(fragment, partial, ctx);
    }

    fn assemble(&self, partials: Vec<KeywordPartial>) -> Vec<KeywordAnswer> {
        let mut merged: HashMap<VertexId, DistanceVector> = HashMap::new();
        // All fragments carry the same query bound; fold with `min` so an
        // empty run stays unbounded.
        let bound = partials
            .iter()
            .map(|p| p.max_total_distance)
            .fold(f64::INFINITY, f64::min);
        let mut width = 0usize;
        for partial in &partials {
            width = width.max(partial.dist.len());
            for (idx, &v) in partial.vertex_ids.iter().enumerate() {
                let i = idx as u32;
                match merged.get_mut(&v) {
                    None => {
                        merged.insert(v, partial.dist.iter().map(|d| d[i]).collect());
                    }
                    Some(existing) => {
                        for (e, d) in existing.iter_mut().zip(partial.dist.iter().map(|d| d[i])) {
                            if d < *e {
                                *e = d;
                            }
                        }
                    }
                }
            }
        }
        let query = KeywordQuery {
            keywords: vec![String::new(); width],
            max_total_distance: bound,
        };
        rank_answers(&merged, &query)
    }

    fn aggregate(&self, a: &DistanceVector, b: &DistanceVector) -> DistanceVector {
        a.iter().zip(b.iter()).map(|(x, y)| x.min(*y)).collect()
    }

    fn monotonic(&self, old: &DistanceVector, new: &DistanceVector) -> Option<bool> {
        Some(new.iter().zip(old.iter()).all(|(n, o)| n <= o))
    }

    fn snapshot_partial(&self, partial: &KeywordPartial) -> Option<Vec<u8>> {
        use grape_core::{wire, Wire};
        let mut out = Vec::new();
        (partial.dist.len() as u32).encode(&mut out);
        for layer in &partial.dist {
            // Infinity (unreached) round-trips bit-exactly.
            wire::encode_seq(layer.as_slice(), &mut out);
        }
        partial.vertex_ids.encode(&mut out);
        partial.max_total_distance.encode(&mut out);
        Some(out)
    }

    fn restore_partial(&self, bytes: &[u8]) -> Option<KeywordPartial> {
        use grape_core::{Wire, WireReader};
        let mut reader = WireReader::new(bytes);
        let layers = u32::decode(&mut reader).ok()? as usize;
        let mut dist = Vec::with_capacity(layers);
        for _ in 0..layers {
            dist.push(VertexDenseMap::from_vec(
                Vec::<f64>::decode(&mut reader).ok()?,
            ));
        }
        let vertex_ids = Vec::<VertexId>::decode(&mut reader).ok()?;
        let max_total_distance = f64::decode(&mut reader).ok()?;
        reader.finish().ok()?;
        Some(KeywordPartial {
            dist,
            vertex_ids: Arc::new(vertex_ids),
            max_total_distance,
        })
    }

    fn name(&self) -> &str {
        "keyword"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grape_core::{EngineConfig, GrapeEngine};
    use grape_graph::generators::{labeled_social, SocialGraphConfig};
    use grape_graph::labels::lv;
    use grape_graph::types::EdgeRecord;
    use grape_graph::LabeledGraph;
    use grape_partition::BuiltinStrategy;

    fn tiny_graph() -> LabeledGraph {
        // 0 -> 1 -> 2(phone), 0 -> 3(camera)
        let vs = vec![
            lv(0, "person", &[]),
            lv(1, "person", &[]),
            lv(2, "product", &["phone"]),
            lv(3, "product", &["camera"]),
        ];
        let es = vec![
            EdgeRecord::new(0, 1, "follows".to_string()),
            EdgeRecord::new(1, 2, "recommends".to_string()),
            EdgeRecord::new(0, 3, "recommends".to_string()),
        ];
        LabeledGraph::from_records(vs, es, true).unwrap()
    }

    #[test]
    fn sequential_keyword_distances() {
        let q = KeywordQuery::new(["phone", "camera"], 10.0);
        let answers = sequential_keyword(&tiny_graph(), &q);
        // Only vertex 0 reaches both: phone at distance 2, camera at 1.
        assert_eq!(answers.len(), 1);
        assert_eq!(answers[0].root, 0);
        assert_eq!(answers[0].distances, vec![2.0, 1.0]);
        assert_eq!(answers[0].total, 3.0);
    }

    #[test]
    fn distance_bound_filters_answers() {
        let q = KeywordQuery::new(["phone"], 1.0);
        let answers = sequential_keyword(&tiny_graph(), &q);
        // Vertex 2 holds the keyword (distance 0) and vertex 1 reaches it in 1.
        let roots: Vec<VertexId> = answers.iter().map(|a| a.root).collect();
        assert_eq!(roots, vec![2, 1]);
    }

    #[test]
    fn missing_keyword_yields_no_answers() {
        let q = KeywordQuery::new(["spaceship"], 100.0);
        assert!(sequential_keyword(&tiny_graph(), &q).is_empty());
    }

    #[test]
    fn ranking_is_by_total_distance_then_id() {
        let mut per_vertex = HashMap::new();
        per_vertex.insert(5u64, vec![1.0, 1.0]);
        per_vertex.insert(3u64, vec![0.0, 2.0]);
        per_vertex.insert(9u64, vec![0.0, 0.0]);
        let q = KeywordQuery::new(["a", "b"], 10.0);
        let answers = rank_answers(&per_vertex, &q);
        assert_eq!(
            answers.iter().map(|a| a.root).collect::<Vec<_>>(),
            vec![9, 3, 5]
        );
    }

    #[test]
    fn pie_keyword_matches_sequential_on_social_graph() {
        let g = labeled_social(
            SocialGraphConfig {
                num_persons: 250,
                num_products: 10,
                ..Default::default()
            },
            33,
        )
        .unwrap();
        let query = KeywordQuery::new(["phone", "laptop"], f64::INFINITY);
        let reference = sequential_keyword(&g, &query);
        for strategy in [BuiltinStrategy::Hash, BuiltinStrategy::Ldg] {
            let assignment = strategy.partition(&g, 4);
            let engine = GrapeEngine::new(KeywordProgram).with_config(EngineConfig {
                check_monotonicity: true,
                ..Default::default()
            });
            let result = engine.run_on_graph(&query, &g, &assignment).unwrap();
            assert_eq!(result.output.len(), reference.len(), "{strategy:?}");
            for (got, want) in result.output.iter().zip(reference.iter()) {
                assert_eq!(got.root, want.root);
                assert_eq!(got.distances, want.distances);
            }
            assert_eq!(result.stats.monotonicity_violations, 0);
        }
    }

    #[test]
    fn finite_distance_bound_is_applied_across_fragments() {
        // Regression: Assemble used to rank the merged vectors against an
        // *unbounded* query, so a finite `max_total_distance` was silently
        // ignored on the distributed path (the parity test above dodged it
        // with an infinite bound). The bound now rides in the partials.
        let g = labeled_social(
            SocialGraphConfig {
                num_persons: 220,
                num_products: 8,
                ..Default::default()
            },
            51,
        )
        .unwrap();
        for bound in [0.0, 1.0, 3.0, 5.0] {
            let query = KeywordQuery::new(["phone", "laptop"], bound);
            let reference = sequential_keyword(&g, &query);
            let unbounded =
                sequential_keyword(&g, &KeywordQuery::new(["phone", "laptop"], f64::INFINITY));
            for k in [2usize, 5] {
                let assignment = BuiltinStrategy::Hash.partition(&g, k);
                let result = GrapeEngine::new(KeywordProgram)
                    .run_on_graph(&query, &g, &assignment)
                    .unwrap();
                assert_eq!(
                    result.output.len(),
                    reference.len(),
                    "bound {bound}, {k} fragments: distributed answers must be \
                     filtered by the query bound"
                );
                for (got, want) in result.output.iter().zip(reference.iter()) {
                    assert_eq!(got.root, want.root);
                    assert_eq!(got.distances, want.distances);
                    assert!(got.total <= bound);
                }
            }
            // The bound actually bites on this graph (otherwise the
            // regression test would be vacuous).
            if bound < 5.0 {
                assert!(reference.len() < unbounded.len());
            }
        }
    }

    #[test]
    fn keyword_sweeps_are_bit_identical_across_thread_counts() {
        let g = labeled_social(
            SocialGraphConfig {
                num_persons: 300,
                num_products: 12,
                ..Default::default()
            },
            77,
        )
        .unwrap();
        let assignment = BuiltinStrategy::Hash.partition(&g, 1);
        let frags = grape_partition::build_fragments(&g, &assignment);
        let local = &frags[0].graph;
        let n = local.num_vertices();
        for keyword in ["phone", "laptop"] {
            let sources: Vec<(u32, f64)> = (0..n as u32)
                .filter(|&i| local.vertex_data_at(i).has_keyword(keyword))
                .map(|i| (i, 0.0))
                .collect();
            assert!(!sources.is_empty(), "keyword {keyword} must have holders");
            let mut reference = VertexDenseMap::new(n, f64::INFINITY);
            KeywordProgram::relax_keyword(local, &mut reference, &sources);
            for threads in [1usize, 2, 4, 8] {
                let pool = grape_core::par::ThreadPool::new(threads);
                let mut dist = VertexDenseMap::new(n, f64::INFINITY);
                let changed = KeywordProgram::relax_keyword_par(&pool, local, &mut dist, &sources);
                assert!(changed > 0);
                for (i, (d, r)) in dist.as_slice().iter().zip(reference.as_slice()).enumerate() {
                    assert!(
                        d.to_bits() == r.to_bits(),
                        "keyword {keyword}, threads {threads}, dense index {i}: {d} vs {r}"
                    );
                }
                // Idempotent under re-seeding, like the sequential path.
                assert_eq!(
                    KeywordProgram::relax_keyword_par(&pool, local, &mut dist, &sources),
                    0
                );
            }
        }
    }

    #[test]
    fn program_declarations() {
        let p = KeywordProgram;
        assert_eq!(
            p.aggregate(&vec![1.0, 5.0], &vec![2.0, 3.0]),
            vec![1.0, 3.0]
        );
        assert_eq!(p.monotonic(&vec![2.0], &vec![1.0]), Some(true));
        assert_eq!(p.monotonic(&vec![1.0], &vec![2.0]), Some(false));
        assert_eq!(p.name(), "keyword");
        let q = KeywordQuery::new(["x"], 5.0);
        assert_eq!(q.keywords, vec!["x"]);
    }
}
