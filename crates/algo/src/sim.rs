//! Graph pattern matching via simulation (`Sim`), one of the registered
//! query classes of the demo.
//!
//! Graph simulation computes, for every pattern vertex `u`, the set of data
//! vertices `v` that can *simulate* it: `label(v) = label(u)` and for every
//! pattern edge `u → u'` there is a data edge `v → v'` (with a matching
//! relation type, when the pattern edge specifies one) such that `v'`
//! simulates `u'`. Unlike subgraph isomorphism, simulation is computable in
//! polynomial time and is the pattern-matching semantics GRAPE's
//! social-network analyses prefer.
//!
//! PIE formulation:
//!
//! * The candidate set of every data vertex is encoded as a **bitmask over
//!   pattern vertices** (`u64`; [`SimQuery::try_new`] rejects wider patterns
//!   with a typed error).
//! * **PEval** runs the sequential Henzinger–Henzinger–Kopke-style fixpoint
//!   on the fragment, treating mirror vertices optimistically (any
//!   label-compatible pattern vertex).
//! * The **update parameter** of a border vertex is its bitmask, *owned* by
//!   the fragment that holds its out-edges; masks only lose bits, so the
//!   computation is monotonic (aggregate = bitwise AND) and the Assurance
//!   Theorem applies.
//! * **IncEval** shrinks mirror masks with the received values and re-runs
//!   the local fixpoint.
//!
//! The per-fragment state is a flat [`VertexDenseMap<u64>`] keyed by the
//! local graph's dense CSR indices, and the refinement loop is a
//! bitset-driven worklist: when a vertex's mask shrinks, only its (eligible)
//! in-neighbours are re-examined, instead of re-scanning every vertex per
//! pass. The greatest simulation is a unique fixpoint, so the worklist order
//! cannot change the answer.

use grape_core::par::{map_chunks, ThreadPool};
use grape_core::{Fragment, PieContext, PieProgram, VertexId};
use grape_graph::labels::{LabeledVertex, PatternGraph};
use grape_graph::{CsrGraph, DenseBitset, VertexDenseMap};
use std::collections::HashSet;

/// The number of pattern vertices a simulation query can hold: masks are
/// `u64`, one bit per pattern vertex.
pub const MAX_PATTERN_WIDTH: usize = 64;

/// Why a [`SimQuery`] could not be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimQueryError {
    /// The pattern has more vertices than a `u64` mask has bits; shifting by
    /// the vertex index would overflow (panic in debug, silent wrap in
    /// release), so wide patterns are rejected up front.
    PatternTooWide {
        /// Number of vertices in the offending pattern.
        width: usize,
    },
    /// A pattern edge references a vertex outside `0..width`.
    InvalidPattern(String),
}

impl std::fmt::Display for SimQueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimQueryError::PatternTooWide { width } => write!(
                f,
                "simulation patterns are limited to {MAX_PATTERN_WIDTH} vertices \
                 (64 vertices per u64 mask), got {width}"
            ),
            SimQueryError::InvalidPattern(msg) => write!(f, "invalid pattern: {msg}"),
        }
    }
}

impl std::error::Error for SimQueryError {}

/// A graph-simulation query: a small pattern graph.
#[derive(Debug, Clone, PartialEq)]
pub struct SimQuery {
    /// The pattern; at most [`MAX_PATTERN_WIDTH`] vertices (masks are `u64`).
    pub pattern: PatternGraph,
}

impl SimQuery {
    /// Creates a query, validating the pattern width and edge endpoints.
    ///
    /// A pattern with more than [`MAX_PATTERN_WIDTH`] vertices is rejected
    /// with [`SimQueryError::PatternTooWide`]: the candidate masks are `u64`
    /// and `1 << u` for pattern vertex `u ≥ 64` would overflow the shift.
    pub fn try_new(pattern: PatternGraph) -> Result<Self, SimQueryError> {
        if pattern.num_vertices() > MAX_PATTERN_WIDTH {
            return Err(SimQueryError::PatternTooWide {
                width: pattern.num_vertices(),
            });
        }
        pattern
            .validate()
            .map_err(|e| SimQueryError::InvalidPattern(e.to_string()))?;
        Ok(Self { pattern })
    }

    /// Creates a query, validating the pattern.
    ///
    /// # Panics
    /// Panics if the pattern has more than 64 vertices or dangling edge
    /// endpoints — both indicate programmer error in query construction.
    /// Fallible callers should use [`SimQuery::try_new`].
    pub fn new(pattern: PatternGraph) -> Self {
        match Self::try_new(pattern) {
            Ok(query) => query,
            Err(e) => panic!("{e}"),
        }
    }
}

/// The match relation produced by simulation: for each pattern vertex, the
/// set of data vertices simulating it.
pub type SimMatches = Vec<HashSet<VertexId>>;

fn label_mask(pattern: &PatternGraph, data: &LabeledVertex) -> u64 {
    let mut mask = 0u64;
    for (u, label) in pattern.labels.iter().enumerate() {
        if *label == data.label {
            mask |= 1 << u;
        }
    }
    mask
}

/// The initial (label-only) candidate mask of every local vertex.
fn initial_masks(
    pattern: &PatternGraph,
    graph: &CsrGraph<LabeledVertex, String>,
) -> VertexDenseMap<u64> {
    VertexDenseMap::from_fn(graph.num_vertices(), |i| {
        label_mask(pattern, graph.vertex_data_at(i))
    })
}

/// Bitset-driven worklist refinement of the simulation masks.
///
/// `eligible` marks the vertices whose out-edges are fully known (inner
/// vertices of a fragment, or all vertices in the sequential case); only
/// those are refined — the masks of the rest (mirrors) act as fixed
/// optimistic input. `seeds` is the initial worklist; callers pass every
/// eligible vertex for a from-scratch fixpoint or just the vertices whose
/// mask was tightened externally for an incremental one. When a mask
/// shrinks, the vertex's eligible in-neighbours are re-queued (their witness
/// may have vanished), so a quiet superstep costs O(changed), not O(n).
///
/// The greatest simulation relation is a unique fixpoint of this monotone
/// operator, so the processing order cannot affect the result.
fn refine(
    pattern: &PatternGraph,
    graph: &CsrGraph<LabeledVertex, String>,
    masks: &mut VertexDenseMap<u64>,
    eligible: &DenseBitset,
    seeds: impl IntoIterator<Item = u32>,
) -> bool {
    debug_assert!(
        graph.has_reverse(),
        "sim::refine needs the reverse adjacency to drive its worklist"
    );
    let mut queued = DenseBitset::new(graph.num_vertices());
    let mut queue: Vec<u32> = Vec::new();
    for v in seeds {
        if eligible.contains(v) && !queued.contains(v) {
            queued.set(v);
            queue.push(v);
        }
    }
    let mut changed_any = false;
    while let Some(v) = queue.pop() {
        queued.clear(v);
        let current = masks[v];
        if current == 0 {
            continue;
        }
        let next = recompute_mask(pattern, graph, masks, v);
        if next != current {
            masks.set(v, next);
            changed_any = true;
            // Re-examine the vertices that may have used v as a witness.
            for &p in graph.in_neighbors_dense(v) {
                if eligible.contains(p) && !queued.contains(p) {
                    queued.set(p);
                    queue.push(p);
                }
            }
        }
    }
    changed_any
}

/// Recomputes the candidate mask of `v` from a frozen snapshot of all masks.
#[inline]
fn recompute_mask(
    pattern: &PatternGraph,
    graph: &CsrGraph<LabeledVertex, String>,
    snapshot: &VertexDenseMap<u64>,
    v: u32,
) -> u64 {
    let current = snapshot[v];
    if current == 0 {
        return 0;
    }
    let mut next = current;
    for u in 0..pattern.num_vertices() {
        if next & (1 << u) == 0 {
            continue;
        }
        for (u_child, relation) in pattern.out_edges(u) {
            let witnessed = graph.out_edges_dense(v).any(|(v_child, rel)| {
                relation.is_none_or(|r| r == rel) && snapshot[v_child] & (1 << u_child) != 0
            });
            if !witnessed {
                next &= !(1 << u);
                break;
            }
        }
    }
    next
}

/// Parallel sibling of [`refine`]: round-based worklist propagation through
/// the `grape_core::par` primitives. Each round recomputes every queued
/// vertex from a frozen snapshot of the masks (Jacobi style), applies the
/// shrunk masks in ascending order, and queues the eligible in-neighbours of
/// the changed vertices for the next round. The greatest simulation is the
/// unique fixpoint of this monotone operator, so the answer is bit-identical
/// to the sequential worklist for any thread count; on one thread this
/// delegates to [`refine`] outright.
fn refine_par(
    pool: &ThreadPool,
    pattern: &PatternGraph,
    graph: &CsrGraph<LabeledVertex, String>,
    masks: &mut VertexDenseMap<u64>,
    eligible: &DenseBitset,
    seeds: impl IntoIterator<Item = u32>,
) -> bool {
    if pool.threads() <= 1 {
        return refine(pattern, graph, masks, eligible, seeds);
    }
    debug_assert!(
        graph.has_reverse(),
        "sim::refine_par needs the reverse adjacency to drive its worklist"
    );
    let n = graph.num_vertices();
    let mut queued = DenseBitset::new(n);
    for v in seeds {
        if eligible.contains(v) {
            queued.set(v);
        }
    }
    let mut worklist: Vec<u32> = queued.iter_ones().collect();
    let mut changed_any = false;
    while !worklist.is_empty() {
        queued.clear_all();
        let snapshot: &VertexDenseMap<u64> = masks;
        let work_ref: &[u32] = &worklist;
        let updates = map_chunks(pool, worklist.len(), |range, out: &mut Vec<(u32, u64)>| {
            for &v in &work_ref[range] {
                let next = recompute_mask(pattern, graph, snapshot, v);
                if next != snapshot[v] {
                    out.push((v, next));
                }
            }
        });
        let mut next_work: Vec<u32> = Vec::new();
        for chunk in &updates {
            for &(v, next) in chunk {
                masks.set(v, next);
                changed_any = true;
                for &p in graph.in_neighbors_dense(v) {
                    if eligible.contains(p) && !queued.contains(p) {
                        queued.set(p);
                        next_work.push(p);
                    }
                }
            }
        }
        next_work.sort_unstable();
        worklist = next_work;
    }
    changed_any
}

/// A bitset with every vertex of `graph` marked eligible.
fn all_eligible(graph: &CsrGraph<LabeledVertex, String>) -> DenseBitset {
    let mut all = DenseBitset::new(graph.num_vertices());
    for i in 0..graph.num_vertices() as u32 {
        all.set(i);
    }
    all
}

/// Sequential graph simulation over a whole labeled graph — the reference
/// algorithm (and what a user would plug into PEval).
///
/// # Panics
/// Panics if the pattern is wider than [`MAX_PATTERN_WIDTH`] vertices; use
/// [`SimQuery::try_new`] to validate untrusted patterns first.
pub fn sequential_sim(
    graph: &CsrGraph<LabeledVertex, String>,
    pattern: &PatternGraph,
) -> SimMatches {
    assert!(
        pattern.num_vertices() <= MAX_PATTERN_WIDTH,
        "{}",
        SimQueryError::PatternTooWide {
            width: pattern.num_vertices()
        }
    );
    let mut masks = initial_masks(pattern, graph);
    let eligible = all_eligible(graph);
    refine(
        pattern,
        graph,
        &mut masks,
        &eligible,
        0..graph.num_vertices() as u32,
    );
    let mut out = vec![HashSet::new(); pattern.num_vertices()];
    for (v, &mask) in masks.iter_with(graph) {
        for (u, bucket) in out.iter_mut().enumerate() {
            if mask & (1 << u) != 0 {
                bucket.insert(v);
            }
        }
    }
    out
}

/// Per-fragment partial state: the bitmask of every local vertex, flat over
/// the local graph's dense indices.
#[derive(Debug, Clone, Default)]
pub struct SimPartial {
    masks: VertexDenseMap<u64>,
    /// Global ids of the inner vertices, aligned with `inner_dense`, so
    /// Assemble can translate without the fragments at hand.
    inner_ids: Vec<VertexId>,
    /// Dense indices of the inner vertices.
    inner_dense: Vec<u32>,
    /// Number of pattern vertices (needed by Assemble to size the result).
    pattern_width: usize,
}

/// The graph-simulation PIE program.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimProgram;

impl SimProgram {
    /// Publishes the authoritative mask of every inner border vertex so
    /// fragments holding it as a mirror can tighten their view.
    fn publish_borders(
        fragment: &Fragment<LabeledVertex, String>,
        partial: &SimPartial,
        ctx: &mut PieContext<u64>,
    ) {
        for (&pos, &i) in fragment
            .mirrored_inner_border_positions()
            .iter()
            .zip(fragment.mirrored_inner_dense_indices())
        {
            ctx.update_at(pos, partial.masks[i]);
        }
    }
}

impl PieProgram for SimProgram {
    type Query = SimQuery;
    type VertexData = LabeledVertex;
    type EdgeData = String;
    type Value = u64;
    type Partial = SimPartial;
    type Output = SimMatches;

    fn peval(
        &self,
        query: &SimQuery,
        fragment: &Fragment<LabeledVertex, String>,
        ctx: &mut PieContext<u64>,
    ) -> SimPartial {
        let g = &fragment.graph;
        let mut partial = SimPartial {
            masks: initial_masks(&query.pattern, g),
            inner_ids: fragment.inner_vertices().to_vec(),
            inner_dense: fragment.inner_dense_indices().to_vec(),
            pattern_width: query.pattern.num_vertices(),
        };
        let pool = std::sync::Arc::clone(ctx.pool());
        refine_par(
            &pool,
            &query.pattern,
            g,
            &mut partial.masks,
            fragment.inner_bitset(),
            fragment.inner_dense_indices().iter().copied(),
        );
        Self::publish_borders(fragment, &partial, ctx);
        partial
    }

    fn inceval(
        &self,
        query: &SimQuery,
        fragment: &Fragment<LabeledVertex, String>,
        partial: &mut SimPartial,
        messages: &[(u32, u64)],
        ctx: &mut PieContext<u64>,
    ) {
        let g = &fragment.graph;
        // Tighten mirror masks with the received values, addressed by
        // border position.
        let border = fragment.border_dense_indices();
        let mut tightened: Vec<u32> = Vec::new();
        for &(pos, mask) in messages {
            let i = border[pos as usize];
            if !fragment.is_outer_dense(i) {
                continue;
            }
            let entry = &mut partial.masks[i];
            let next = *entry & mask;
            if next != *entry {
                *entry = next;
                tightened.push(i);
            }
        }
        if tightened.is_empty() {
            return;
        }
        // Only the in-neighbours of the tightened mirrors can lose a witness;
        // the worklist propagates from there.
        let seeds = tightened
            .iter()
            .flat_map(|&i| g.in_neighbors_dense(i).iter().copied());
        let pool = std::sync::Arc::clone(ctx.pool());
        refine_par(
            &pool,
            &query.pattern,
            g,
            &mut partial.masks,
            fragment.inner_bitset(),
            seeds,
        );
        Self::publish_borders(fragment, partial, ctx);
    }

    fn assemble(&self, partials: Vec<SimPartial>) -> SimMatches {
        // Merge the masks of inner vertices only (mirror masks may be stale
        // supersets); each vertex is inner to exactly one fragment.
        let width = partials.iter().map(|p| p.pattern_width).max().unwrap_or(0);
        let mut out = vec![HashSet::new(); width];
        for partial in &partials {
            for (&v, &i) in partial.inner_ids.iter().zip(&partial.inner_dense) {
                let mask = partial.masks[i];
                for (u, bucket) in out.iter_mut().enumerate() {
                    if mask & (1 << u) != 0 {
                        bucket.insert(v);
                    }
                }
            }
        }
        out
    }

    fn aggregate(&self, a: &u64, b: &u64) -> u64 {
        a & b
    }

    fn monotonic(&self, old: &u64, new: &u64) -> Option<bool> {
        Some(new & old == *new)
    }

    fn snapshot_partial(&self, partial: &SimPartial) -> Option<Vec<u8>> {
        use grape_core::{wire, Wire};
        let mut out = Vec::new();
        wire::encode_seq(partial.masks.as_slice(), &mut out);
        partial.inner_ids.encode(&mut out);
        partial.inner_dense.encode(&mut out);
        partial.pattern_width.encode(&mut out);
        Some(out)
    }

    fn restore_partial(&self, bytes: &[u8]) -> Option<SimPartial> {
        use grape_core::{Wire, WireReader};
        let mut reader = WireReader::new(bytes);
        let masks = Vec::<u64>::decode(&mut reader).ok()?;
        let inner_ids = Vec::<VertexId>::decode(&mut reader).ok()?;
        let inner_dense = Vec::<u32>::decode(&mut reader).ok()?;
        let pattern_width = usize::decode(&mut reader).ok()?;
        reader.finish().ok()?;
        Some(SimPartial {
            masks: VertexDenseMap::from_vec(masks),
            inner_ids,
            inner_dense,
            pattern_width,
        })
    }

    fn incremental_eligible(&self, profile: &grape_core::MutationProfile) -> bool {
        // The greatest simulation only shrinks when edges disappear, so the
        // old fixpoint is a valid superset to refine down from. Insertions
        // could *add* matches (grow masks), which the decreasing worklist
        // cannot do — those fall back cold.
        profile.delete_only()
    }

    fn seed_partial(
        &self,
        query: &SimQuery,
        fragment: &Fragment<LabeledVertex, String>,
        snapshot: &[u8],
        dirty: &[VertexId],
        _profile: &grape_core::MutationProfile,
        ctx: &mut PieContext<u64>,
    ) -> Option<SimPartial> {
        let old = self.restore_partial(snapshot)?;
        let g = &fragment.graph;
        // Mirrors restart at the optimistic label masks exactly like PEval —
        // owners re-publish their authoritative masks in round 1 — while
        // inner vertices resume from the old converged masks (by global id;
        // delete-only updates never add vertices). The greatest simulation of
        // the pruned graph is a subset of the old one, and the decreasing
        // worklist converges to it from any superset, so only the deletion
        // sites need a first look: everything else still has every witness
        // it had at the old fixpoint.
        let mut partial = SimPartial {
            masks: initial_masks(&query.pattern, g),
            inner_ids: fragment.inner_vertices().to_vec(),
            inner_dense: fragment.inner_dense_indices().to_vec(),
            pattern_width: query.pattern.num_vertices(),
        };
        let old_mask: std::collections::HashMap<VertexId, u64> = old
            .inner_ids
            .iter()
            .zip(&old.inner_dense)
            .map(|(&v, &i)| (v, old.masks[i]))
            .collect();
        for (&v, &i) in partial.inner_ids.iter().zip(&partial.inner_dense) {
            if let Some(&mask) = old_mask.get(&v) {
                partial.masks[i] = mask;
            }
        }
        let seeds: Vec<u32> = dirty.iter().filter_map(|&v| g.dense_index(v)).collect();
        let pool = std::sync::Arc::clone(ctx.pool());
        refine_par(
            &pool,
            &query.pattern,
            g,
            &mut partial.masks,
            fragment.inner_bitset(),
            seeds,
        );
        Self::publish_borders(fragment, &partial, ctx);
        Some(partial)
    }

    fn name(&self) -> &str {
        "sim"
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

    /// person --follows--> person --recommends--> product
    fn chain_pattern() -> PatternGraph {
        PatternGraph::new(vec!["person".into(), "person".into(), "product".into()])
            .edge_labeled(0, 1, "follows")
            .edge_labeled(1, 2, "recommends")
    }

    fn tiny_graph() -> LabeledGraph {
        let vs = vec![
            lv(0, "person", &[]),
            lv(1, "person", &[]),
            lv(2, "product", &[]),
            lv(3, "person", &[]), // follows nobody who recommends
        ];
        let es = vec![
            EdgeRecord::new(0, 1, "follows".to_string()),
            EdgeRecord::new(1, 2, "recommends".to_string()),
            EdgeRecord::new(3, 0, "follows".to_string()),
        ];
        LabeledGraph::from_records(vs, es, true).unwrap()
    }

    #[test]
    fn sequential_sim_small_example() {
        let g = tiny_graph();
        let matches = sequential_sim(&g, &chain_pattern());
        // Pattern vertex 0 (a person following a recommender): only vertex 0
        // qualifies (3 follows 0, but 0 does not recommend anything).
        assert_eq!(matches[0], HashSet::from([0]));
        // Pattern vertex 1 (a person who recommends a product): vertex 1.
        assert_eq!(matches[1], HashSet::from([1]));
        // Pattern vertex 2 (a product): vertex 2.
        assert_eq!(matches[2], HashSet::from([2]));
    }

    #[test]
    fn unlabeled_pattern_edge_matches_any_relation() {
        let g = tiny_graph();
        let pattern = PatternGraph::new(vec!["person".into(), "person".into()]).edge(0, 1);
        let matches = sequential_sim(&g, &pattern);
        // Any person with an out-edge (of any relation) to a person: 0 and 3.
        assert_eq!(matches[0], HashSet::from([0, 3]));
    }

    #[test]
    fn empty_result_when_label_absent() {
        let g = tiny_graph();
        let pattern = PatternGraph::new(vec!["robot".into()]);
        let matches = sequential_sim(&g, &pattern);
        assert!(matches[0].is_empty());
    }

    fn equal_matches(a: &SimMatches, b: &SimMatches) -> bool {
        if a.len() != b.len() {
            return false;
        }
        a.iter().zip(b.iter()).all(|(x, y)| x == y)
    }

    #[test]
    fn pie_sim_matches_sequential_on_social_graph() {
        let g = labeled_social(
            SocialGraphConfig {
                num_persons: 300,
                num_products: 8,
                ..Default::default()
            },
            42,
        )
        .unwrap();
        let query = SimQuery::new(chain_pattern());
        let reference = sequential_sim(&g, &query.pattern);
        for strategy in [BuiltinStrategy::Hash, BuiltinStrategy::Fennel] {
            let assignment = strategy.partition(&g, 4);
            let engine = GrapeEngine::new(SimProgram).with_config(EngineConfig {
                check_monotonicity: true,
                ..Default::default()
            });
            let result = engine.run_on_graph(&query, &g, &assignment).unwrap();
            assert!(
                equal_matches(&result.output, &reference),
                "strategy {:?} diverges from the sequential result",
                strategy
            );
            assert_eq!(result.stats.monotonicity_violations, 0);
        }
    }

    #[test]
    fn pie_sim_single_fragment_equals_sequential() {
        let g = labeled_social(
            SocialGraphConfig {
                num_persons: 120,
                num_products: 4,
                ..Default::default()
            },
            7,
        )
        .unwrap();
        let query = SimQuery::new(chain_pattern());
        let reference = sequential_sim(&g, &query.pattern);
        let assignment = BuiltinStrategy::Hash.partition(&g, 1);
        let result = GrapeEngine::new(SimProgram)
            .run_on_graph(&query, &g, &assignment)
            .unwrap();
        assert!(equal_matches(&result.output, &reference));
        assert_eq!(result.stats.supersteps, 1);
    }

    #[test]
    fn sim_is_identical_across_thread_counts() {
        use grape_core::par::ThreadCount;
        let g = labeled_social(
            SocialGraphConfig {
                num_persons: 250,
                num_products: 6,
                ..Default::default()
            },
            19,
        )
        .unwrap();
        let query = SimQuery::new(chain_pattern());
        let assignment = BuiltinStrategy::Hash.partition(&g, 3);
        let run = |threads: u32| {
            GrapeEngine::new(SimProgram)
                .with_config(EngineConfig {
                    threads_per_worker: ThreadCount::Fixed(threads),
                    ..Default::default()
                })
                .run_on_graph(&query, &g, &assignment)
                .unwrap()
        };
        let reference = run(1);
        for threads in [2u32, 4, 8] {
            let result = run(threads);
            assert!(
                equal_matches(&result.output, &reference.output),
                "threads={threads} diverges"
            );
            assert_eq!(result.stats.supersteps, reference.stats.supersteps);
            assert_eq!(result.stats.messages, reference.stats.messages);
        }
    }

    #[test]
    #[should_panic(expected = "64 vertices")]
    fn oversized_pattern_is_rejected() {
        let labels = vec![grape_graph::VertexLabel::from("x"); 65];
        SimQuery::new(PatternGraph::new(labels));
    }

    #[test]
    fn oversized_pattern_yields_typed_error() {
        // Regression: a 65-vertex pattern used to reach `1 << 64` in
        // label_mask/refine — a shift overflow (panic in debug, silent wrap
        // in release). Width is now validated at query construction.
        let labels = vec![grape_graph::VertexLabel::from("x"); 65];
        let err = SimQuery::try_new(PatternGraph::new(labels)).unwrap_err();
        assert_eq!(err, SimQueryError::PatternTooWide { width: 65 });
        assert!(err.to_string().contains("64 vertices"));
        assert!(err.to_string().contains("65"));

        // A 64-vertex pattern is exactly at the limit and must be accepted
        // (bit 63 is a valid shift) — and must survive a refinement pass.
        let labels = vec![grape_graph::VertexLabel::from("person"); 64];
        let query = SimQuery::try_new(PatternGraph::new(labels).edge(62, 63)).unwrap();
        let g = tiny_graph();
        let matches = sequential_sim(&g, &query.pattern);
        assert_eq!(matches.len(), 64);
        // Persons in tiny_graph: 0, 1, 3. Pattern vertex 63 (the top mask
        // bit) is any person; 62 needs an out-edge to a person (0 → 1,
        // 3 → 0); edge-free pattern vertices match every person.
        assert_eq!(matches[63], HashSet::from([0, 1, 3]));
        assert_eq!(matches[62], HashSet::from([0, 3]));
        assert_eq!(matches[0], HashSet::from([0, 1, 3]));
    }

    #[test]
    fn invalid_pattern_edges_yield_typed_error() {
        let bad = PatternGraph::new(vec!["x".into()]).edge(0, 5);
        match SimQuery::try_new(bad) {
            Err(SimQueryError::InvalidPattern(_)) => {}
            other => panic!("expected InvalidPattern, got {other:?}"),
        }
    }

    #[test]
    fn program_declarations() {
        assert_eq!(SimProgram.aggregate(&0b1101, &0b1011), 0b1001);
        assert_eq!(SimProgram.monotonic(&0b111, &0b011), Some(true));
        assert_eq!(SimProgram.monotonic(&0b011, &0b111), Some(false));
        assert_eq!(SimProgram.name(), "sim");
    }
}
