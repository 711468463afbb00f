//! PageRank — an extra iterative query class used by the analytics panel and
//! by the engine-comparison benches (it is the canonical workload of
//! vertex-centric systems, so it completes the Table-1-style comparison).
//!
//! The PIE formulation follows the GRAPE idea of running a *whole sequential
//! algorithm per fragment*:
//!
//! * **PEval** runs local power iteration over the fragment's inner vertices.
//! * The **update parameter** of a border vertex `u` is the *per-edge rank
//!   share* `rank(u) / outdeg(u)` computed by `u`'s owner fragment; mirrors
//!   of `u` use that share to account for rank flowing in over cut edges.
//!   Only the owner ever proposes a value for `u`, so no aggregation
//!   conflicts arise.
//! * **IncEval** re-runs local iteration after new mirror shares arrive.
//! * Values are rounded to the query tolerance, so once shares stop moving by
//!   more than the tolerance nothing changes and the engine reaches its
//!   fixpoint.
//!
//! PageRank is not monotonic, so (unlike SSSP/CC) it does not fall under the
//! Assurance Theorem; termination is ensured by the tolerance rounding, as in
//! every practical PageRank implementation.
//!
//! **Dangling vertices.** Vertices without out-edges would leak their rank
//! mass every iteration (the ranks would no longer sum to 1). The sequential
//! reference redistributes the dangling mass uniformly each sweep — the
//! standard "dangling node" correction. The distributed program reaches the
//! same answer without a per-iteration global reduction by exploiting a
//! classical identity: with uniform teleport, the redistributed fixpoint is
//! the *leaky* fixpoint rescaled to total mass 1 (fold the dangling term
//! `c·(dᵀx)/n · e` into the teleport and both systems differ only by that
//! scalar). Each fragment iterates the leaky system as before and Assemble
//! normalizes the merged ranks once.

use grape_core::par::{map_chunks, ThreadPool};
use grape_core::{
    encode_owner_column, owner_columns, Fragment, PieContext, PieProgram, VertexId, WireError,
};
use grape_graph::{merge_join, strictly_ascending, CsrGraph, DenseBitset, VertexDenseMap};
use std::collections::HashMap;
use std::sync::Arc;

/// PageRank query parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageRankQuery {
    /// Damping factor (0.85 in the original paper).
    pub damping: f64,
    /// Maximum local power-iteration sweeps per PEval/IncEval call.
    pub max_local_iterations: usize,
    /// Convergence tolerance on rank values and shipped shares.
    pub tolerance: f64,
}

impl Default for PageRankQuery {
    fn default() -> Self {
        Self {
            damping: 0.85,
            max_local_iterations: 30,
            tolerance: 1e-6,
        }
    }
}

impl PageRankQuery {
    /// Radius of the quantized-fixpoint cluster: any two self-consistent
    /// solutions of the tolerance-grid equations — e.g. a warm (incremental)
    /// run seeded from an old fixpoint and a cold run started from the
    /// uniform prior — differ per vertex by at most this much.
    ///
    /// The quantized Jacobi operator is a contraction only up to the grid
    /// resolution: around short cycles (a self-loop in the extreme) the
    /// condition `|S − (1−d)·g| < tol/2` admits `O(1/(1−d))` adjacent grid
    /// values, so the fixpoint is a *cluster*, not a point. Each of the `m`
    /// quantizations contributes at most `tol/2` of slack and the leaky
    /// system amplifies ℓ₁ differences by `d/(1−d)`, giving the (pessimistic)
    /// bound `d·tol·m/(1−d)` on any per-vertex gap, which survives the final
    /// normalization up to a factor absorbed by the slack in the ℓ₁ argument.
    pub fn fixpoint_cluster_radius(&self, num_edges: usize) -> f64 {
        self.damping * self.tolerance * num_edges.max(1) as f64 / (1.0 - self.damping)
    }
}

/// Sequential PageRank over a whole graph — the reference implementation.
///
/// The rank mass of dangling vertices (no out-edges) is redistributed
/// uniformly every sweep, so the ranks always sum to 1 — previously that
/// mass was silently dropped (`out == 0 => continue`) and the totals on
/// graphs with sinks drifted below 1.
pub fn sequential_pagerank(
    graph: &CsrGraph<(), f64>,
    query: &PageRankQuery,
    iterations: usize,
) -> HashMap<VertexId, f64> {
    let n = graph.num_vertices();
    if n == 0 {
        return HashMap::new();
    }
    let mut rank: HashMap<VertexId, f64> = graph.vertices().map(|v| (v, 1.0 / n as f64)).collect();
    for _ in 0..iterations {
        let mut next: HashMap<VertexId, f64> = graph
            .vertices()
            .map(|v| (v, (1.0 - query.damping) / n as f64))
            .collect();
        let mut dangling = 0.0f64;
        for v in graph.vertices() {
            let out = graph.out_degree(v);
            let r = rank[&v];
            if out == 0 {
                dangling += r;
                continue;
            }
            let share = query.damping * r / out as f64;
            for (u, _) in graph.out_edges(v) {
                *next.get_mut(&u).expect("vertex exists") += share;
            }
        }
        if dangling > 0.0 {
            let correction = query.damping * dangling / n as f64;
            for r in next.values_mut() {
                *r += correction;
            }
        }
        rank = next;
    }
    rank
}

/// Rounds a value to the tolerance grid so equality (and thus convergence of
/// the update parameters) is well defined.
fn quantize(value: f64, tolerance: f64) -> f64 {
    (value / tolerance).round() * tolerance
}

/// Per-fragment partial state, kept in flat per-vertex arrays over the
/// fragment's dense CSR indices.
#[derive(Debug, Clone, Default)]
pub struct PageRankPartial {
    /// Current rank by local dense index; only the slots of inner vertices
    /// are meaningful (mirror slots are scratch space for the iteration).
    rank: VertexDenseMap<f64>,
    /// Per-edge rank share of each outer (mirror) vertex by local dense
    /// index, as received from its owner (0.0 until the first message).
    mirror_share: VertexDenseMap<f64>,
    /// Global ids of the inner vertices, aligned with `inner_dense`, so
    /// Assemble can translate without the fragments at hand. The fragment's
    /// own list, shared rather than copied.
    inner_ids: Arc<Vec<VertexId>>,
    /// Dense indices of the inner vertices; the fragment's own, shared.
    inner_dense: Arc<Vec<u32>>,
    /// Damping-scaled per-edge contribution of every local vertex: for inner
    /// vertices `damping * rank / outdeg` (0 for sinks), for mirrors
    /// `damping * mirror_share`. Kept in lockstep with `rank`/`mirror_share`
    /// so a sweep can pull contributions without re-deriving them.
    contrib: VertexDenseMap<f64>,
    /// Inner vertices whose in-contributions changed since they were last
    /// recomputed. Invariant between sweeps: a vertex *not* in this set would
    /// recompute to its current rank bit-for-bit, so it can be skipped.
    pending: DenseBitset,
}

/// The PageRank PIE program.
///
/// The `global_vertices` field must be set to the vertex count of the whole
/// graph (fragments only know their own slice).
#[derive(Debug, Clone, Copy)]
pub struct PageRankProgram {
    /// Number of vertices of the global graph.
    pub global_vertices: usize,
}

impl PageRankProgram {
    /// Creates the program for a graph with `global_vertices` vertices.
    pub fn new(global_vertices: usize) -> Self {
        Self { global_vertices }
    }

    /// The contribution a local vertex feeds each of its out-edges: rank
    /// share for inner vertices, owner-published share for mirrors.
    ///
    /// Inner shares are *quantized to the tolerance grid* — the same grid
    /// [`PageRankProgram::emit_shares`] publishes on — so the contribution a
    /// vertex feeds its local out-neighbours is bitwise the one its mirrors
    /// feed theirs. That makes every in-contribution a grid value,
    /// independent of whether the contributor is inner or mirrored, which is
    /// what makes a run deterministic given its start point: the trajectory
    /// depends only on the grid equations and the initial ranks. The grid
    /// equations themselves admit a *cluster* of self-consistent solutions
    /// (see [`PageRankQuery::fixpoint_cluster_radius`]), so different starts
    /// — warm from an old fixpoint vs cold from the uniform prior — may
    /// settle on different members of that cluster.
    #[inline]
    fn contribution_of(
        &self,
        query: &PageRankQuery,
        fragment: &Fragment<(), f64>,
        partial: &PageRankPartial,
        i: u32,
    ) -> f64 {
        if fragment.is_inner_dense(i) {
            let out = fragment.graph.out_degree_dense(i);
            if out == 0 {
                0.0
            } else {
                query.damping * quantize(partial.rank[i] / out as f64, query.tolerance)
            }
        } else {
            query.damping * partial.mirror_share[i]
        }
    }

    /// Local power iteration over the fragment's inner vertices, treating the
    /// mirror shares as fixed external input.
    ///
    /// Each sweep is a *pull* over the `pending` delta frontier: only
    /// vertices whose in-contributions changed bit-for-bit since their last
    /// recompute are re-evaluated, in ascending dense order, reading a frozen
    /// snapshot of `contrib` (Jacobi style). A vertex outside the frontier
    /// would pull exactly the same inputs in the same order and reproduce its
    /// current rank bitwise, so skipping it cannot change the fixpoint — and
    /// the same argument makes the result independent of the pool's thread
    /// count. The frontier persists across PEval/IncEval calls, so a
    /// superstep that only moves a few mirror shares touches only the cone
    /// those shares reach instead of re-sweeping the whole fragment.
    fn local_iterate(
        &self,
        query: &PageRankQuery,
        fragment: &Fragment<(), f64>,
        partial: &mut PageRankPartial,
        pool: &ThreadPool,
    ) {
        let g = &fragment.graph;
        debug_assert!(g.has_reverse(), "PageRank pulls over reverse adjacency");
        let base = (1.0 - query.damping) / self.global_vertices.max(1) as f64;
        for _ in 0..query.max_local_iterations {
            let frontier: Vec<u32> = partial.pending.iter_ones().collect();
            if frontier.is_empty() {
                break;
            }
            partial.pending.clear_all();
            let rank = &partial.rank;
            let contrib = &partial.contrib;
            let frontier_ref: &[u32] = &frontier;
            let updates = map_chunks(pool, frontier.len(), |range, out: &mut Vec<(u32, f64)>| {
                for &v in &frontier_ref[range] {
                    let mut new = base;
                    for &u in g.in_neighbors_dense(v) {
                        new += contrib[u];
                    }
                    if new.to_bits() != rank[v].to_bits() {
                        out.push((v, new));
                    }
                }
            });
            // Apply in chunk order (ascending frontier order) so the next
            // frontier is schedule-independent. A neighbour is requeued only
            // when the *quantized contribution* moved bits: rank drift below
            // the grid resolution feeds out-neighbours the same inputs, so
            // skipping them cannot change anything. The sweep terminates
            // exactly when the frontier empties (contributions frozen on the
            // grid), making the converged state independent of thread count
            // and chunking — there is no early exit on a residual norm. It
            // still depends on the *start point*: see `contribution_of` on
            // the fixpoint cluster.
            for chunk in &updates {
                for &(v, new) in chunk {
                    partial.rank[v] = new;
                    let out = g.out_degree_dense(v);
                    let contrib = if out == 0 {
                        0.0
                    } else {
                        query.damping * quantize(new / out as f64, query.tolerance)
                    };
                    if contrib.to_bits() != partial.contrib[v].to_bits() {
                        partial.contrib[v] = contrib;
                        for &w in g.out_neighbors_dense(v) {
                            if fragment.is_inner_dense(w) {
                                partial.pending.set(w);
                            }
                        }
                    }
                }
            }
        }
    }

    /// Posts the rank share of every inner border vertex (vertices mirrored
    /// at other fragments).
    fn emit_shares(
        &self,
        query: &PageRankQuery,
        fragment: &Fragment<(), f64>,
        partial: &PageRankPartial,
        ctx: &mut PieContext<f64>,
    ) {
        // Position-addressed via the precomputed border positions of the
        // mirrored-inner vertices: an indexed compare per vertex, no lookup.
        for (&pos, &i) in fragment
            .mirrored_inner_border_positions()
            .iter()
            .zip(fragment.mirrored_inner_dense_indices())
        {
            let out = fragment.graph.out_degree_dense(i);
            if out == 0 {
                continue;
            }
            let share = partial.rank[i] / out as f64;
            ctx.update_at(pos, quantize(share, query.tolerance));
        }
    }
}

impl PieProgram for PageRankProgram {
    type Query = PageRankQuery;
    type VertexData = ();
    type EdgeData = f64;
    type Value = f64;
    type Partial = PageRankPartial;
    type Output = HashMap<VertexId, f64>;

    fn peval(
        &self,
        query: &PageRankQuery,
        fragment: &Fragment<(), f64>,
        ctx: &mut PieContext<f64>,
    ) -> PageRankPartial {
        let pool = std::sync::Arc::clone(ctx.pool());
        let n = self.global_vertices.max(1) as f64;
        let g = &fragment.graph;
        let n_local = g.num_vertices();
        let mut partial = PageRankPartial {
            rank: VertexDenseMap::for_graph(g, 1.0 / n),
            mirror_share: VertexDenseMap::for_graph(g, 0.0),
            inner_ids: Arc::clone(fragment.shared_inner_vertices()),
            inner_dense: Arc::clone(fragment.shared_inner_dense_indices()),
            contrib: VertexDenseMap::new(n_local, 0.0),
            pending: DenseBitset::new(n_local),
        };
        for i in 0..n_local as u32 {
            partial.contrib[i] = self.contribution_of(query, fragment, &partial, i);
        }
        for &i in fragment.inner_dense_indices() {
            partial.pending.set(i);
        }
        self.local_iterate(query, fragment, &mut partial, &pool);
        self.emit_shares(query, fragment, &partial, ctx);
        partial
    }

    fn inceval(
        &self,
        query: &PageRankQuery,
        fragment: &Fragment<(), f64>,
        partial: &mut PageRankPartial,
        messages: &[(u32, f64)],
        ctx: &mut PieContext<f64>,
    ) {
        let g = &fragment.graph;
        let border = fragment.border_dense_indices();
        let mut changed = false;
        for &(pos, share) in messages {
            let o = border[pos as usize];
            if fragment.is_outer_dense(o)
                && (partial.mirror_share[o] - share).abs() >= query.tolerance / 2.0
            {
                partial.mirror_share[o] = share;
                partial.contrib[o] = query.damping * share;
                // Only the cone downstream of the moved mirror needs
                // re-sweeping; everything else is bitwise at fixpoint.
                for &w in g.out_neighbors_dense(o) {
                    if fragment.is_inner_dense(w) {
                        partial.pending.set(w);
                    }
                }
                changed = true;
            }
        }
        if !changed {
            return;
        }
        let pool = std::sync::Arc::clone(ctx.pool());
        self.local_iterate(query, fragment, partial, &pool);
        self.emit_shares(query, fragment, partial, ctx);
    }

    fn assemble(&self, partials: Vec<PageRankPartial>) -> HashMap<VertexId, f64> {
        // Every vertex is inner to exactly one fragment: sized once, exactly.
        let mut out = HashMap::with_capacity(partials.iter().map(|p| p.inner_ids.len()).sum());
        // Accumulate the total leaked-system mass in deterministic fragment /
        // inner-vertex order, then rescale once: at the fixpoint this equals
        // redistributing the dangling mass uniformly every iteration (see the
        // module docs), and it keeps the distributed path free of global
        // per-iteration reductions.
        let mut total = 0.0f64;
        for partial in &partials {
            for &i in partial.inner_dense.iter() {
                total += partial.rank[i];
            }
        }
        for partial in partials {
            for (&v, &i) in partial.inner_ids.iter().zip(partial.inner_dense.iter()) {
                let r = partial.rank[i];
                out.insert(v, if total > 0.0 { r / total } else { r });
            }
        }
        out
    }

    fn encode_answer(
        &self,
        fragment: &Fragment<(), f64>,
        partial: &PageRankPartial,
    ) -> Option<Vec<u8>> {
        // Assemble reads the owners' ranks and nothing else.
        Some(encode_owner_column(fragment, |i| partial.rank[i]))
    }

    fn assemble_answers(
        &self,
        fragments: &[Arc<Fragment<(), f64>>],
        answers: &[Vec<u8>],
    ) -> Result<HashMap<VertexId, f64>, WireError> {
        let columns = owner_columns::<_, _, f64>(fragments, answers)?;
        // The total in `assemble`'s fragment-then-inner order, so the
        // rescaled ranks match it bit for bit.
        let total: f64 = columns.iter().flatten().fold(0.0, |sum, &r| sum + r);
        let mut out = HashMap::with_capacity(columns.iter().map(Vec::len).sum());
        for (fragment, column) in fragments.iter().zip(&columns) {
            for (&v, &r) in fragment.inner_vertices().iter().zip(column) {
                out.insert(v, if total > 0.0 { r / total } else { r });
            }
        }
        Ok(out)
    }

    fn aggregate(&self, a: &f64, b: &f64) -> f64 {
        // Only the owner of a vertex proposes its share, so conflicts should
        // not arise; prefer the larger share if they ever do.
        a.max(*b)
    }

    fn snapshot_partial(&self, partial: &PageRankPartial) -> Option<Vec<u8>> {
        use grape_core::{wire, Wire};
        use std::mem::size_of_val;
        let dense = [&partial.rank, &partial.mirror_share, &partial.contrib];
        let pending = partial.pending.count_ones();
        // Length-prefixed runs of fixed-width numbers: the length is known.
        let len = dense
            .iter()
            .map(|d| 4 + size_of_val(d.as_slice()))
            .sum::<usize>()
            + 4
            + size_of_val(&partial.inner_ids[..])
            + 4
            + size_of_val(&partial.inner_dense[..])
            + 4
            + 4
            + 4 * pending;
        let mut out = Vec::with_capacity(len);
        for d in dense {
            wire::encode_seq(d.as_slice(), &mut out);
        }
        partial.inner_ids.encode(&mut out);
        partial.inner_dense.encode(&mut out);
        // The pending frontier: domain size, then the set indices as a
        // `Vec<u32>` would code them. Restoring it exactly matters — a
        // replacement with a stale frontier would re-sweep (or skip)
        // different vertices than the lost worker.
        (partial.pending.len() as u32).encode(&mut out);
        (pending as u32).encode(&mut out);
        for i in partial.pending.iter_ones() {
            i.encode(&mut out);
        }
        debug_assert_eq!(out.len(), len);
        Some(out)
    }

    fn restore_partial(&self, bytes: &[u8]) -> Option<PageRankPartial> {
        use grape_core::{Wire, WireReader};
        let mut reader = WireReader::new(bytes);
        let rank = Vec::<f64>::decode(&mut reader).ok()?;
        let mirror_share = Vec::<f64>::decode(&mut reader).ok()?;
        let contrib = Vec::<f64>::decode(&mut reader).ok()?;
        let inner_ids = Vec::<VertexId>::decode(&mut reader).ok()?;
        let inner_dense = Vec::<u32>::decode(&mut reader).ok()?;
        let pending_len = u32::decode(&mut reader).ok()? as usize;
        let pending_ones = Vec::<u32>::decode(&mut reader).ok()?;
        reader.finish().ok()?;
        // The bytes may be a peer's. Assemble and a warm start index `rank`
        // by `inner_dense` and pair it with `inner_ids`, which the warm start
        // merge-joins: the dense vectors must agree in length, the inner
        // lists with each other, every index must be in range and the ids
        // must ascend.
        let n = rank.len();
        let aligned = [mirror_share.len(), contrib.len(), pending_len] == [n; 3]
            && inner_ids.len() == inner_dense.len();
        let in_range = |indices: &[u32]| indices.iter().all(|&i| (i as usize) < n);
        if !(aligned
            && in_range(&inner_dense)
            && in_range(&pending_ones)
            && strictly_ascending(&inner_ids))
        {
            return None;
        }
        let mut pending = DenseBitset::new(pending_len);
        for i in pending_ones {
            pending.set(i);
        }
        Some(PageRankPartial {
            rank: VertexDenseMap::from_vec(rank),
            mirror_share: VertexDenseMap::from_vec(mirror_share),
            inner_ids: Arc::new(inner_ids),
            inner_dense: Arc::new(inner_dense),
            contrib: VertexDenseMap::from_vec(contrib),
            pending,
        })
    }

    fn incremental_eligible(&self, _profile: &grape_core::MutationProfile) -> bool {
        // Any mutation batch can be answered from the old converged ranks:
        // seeding from them converges to a valid quantized fixpoint. Unlike
        // SSSP/CC (unique fixpoints), the grid equations admit a cluster of
        // solutions, so a warm answer may differ from a cold run on the
        // updated graph — by at most
        // `PageRankQuery::fixpoint_cluster_radius(num_edges)` per vertex.
        true
    }

    fn seed_partial(
        &self,
        query: &PageRankQuery,
        fragment: &Fragment<(), f64>,
        snapshot: &[u8],
        dirty: &[VertexId],
        profile: &grape_core::MutationProfile,
        ctx: &mut PieContext<f64>,
    ) -> Option<PageRankPartial> {
        let old = self.restore_partial(snapshot)?;
        let pool = std::sync::Arc::clone(ctx.pool());
        let n = self.global_vertices.max(1) as f64;
        let g = &fragment.graph;
        let n_local = g.num_vertices();
        let mut partial = PageRankPartial {
            rank: VertexDenseMap::for_graph(g, 1.0 / n),
            mirror_share: VertexDenseMap::for_graph(g, 0.0),
            inner_ids: Arc::clone(fragment.shared_inner_vertices()),
            inner_dense: Arc::clone(fragment.shared_inner_dense_indices()),
            contrib: VertexDenseMap::new(n_local, 0.0),
            pending: DenseBitset::new(n_local),
        };
        // Carry the old converged inner ranks over by global id — both inner
        // lists ascend, so one merge-join does it; vertices inserted since
        // start at the uniform prior like a cold run. Mirror
        // shares start at 0 exactly as in PEval — superstep-0 publications
        // re-deliver every owner share in round 1 and requeue the cones.
        merge_join(&old.inner_ids, &partial.inner_ids, |i, j| {
            partial.rank[partial.inner_dense[j]] = old.rank[old.inner_dense[i]];
        });
        for i in 0..n_local as u32 {
            partial.contrib[i] = self.contribution_of(query, fragment, &partial, i);
        }
        if profile.vertex_set_changed() {
            // The teleport base (1-d)/n changed for everyone: full frontier.
            for &i in fragment.inner_dense_indices() {
                partial.pending.set(i);
            }
        } else {
            // Only vertices whose in-contributions can differ from the old
            // fixpoint need a first look: the dirty vertices themselves
            // (their in-edge sets may have changed) and their out-neighbours
            // (a changed out-degree moves the per-edge share).
            for &v in dirty {
                let Some(i) = g.dense_index(v) else { continue };
                if fragment.is_inner_dense(i) {
                    partial.pending.set(i);
                }
                for &w in g.out_neighbors_dense(i) {
                    if fragment.is_inner_dense(w) {
                        partial.pending.set(w);
                    }
                }
            }
        }
        self.local_iterate(query, fragment, &mut partial, &pool);
        self.emit_shares(query, fragment, &partial, ctx);
        Some(partial)
    }

    fn name(&self) -> &str {
        "pagerank"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grape_core::GrapeEngine;
    use grape_graph::generators::{barabasi_albert, erdos_renyi};
    use grape_graph::GraphBuilder;
    use grape_partition::{BuiltinStrategy, HashPartitioner, Partitioner};

    #[test]
    fn the_snapshot_is_allocated_at_its_encoded_length() {
        let g = barabasi_albert(150, 2, 17).unwrap();
        let frags = grape_partition::build_fragments(&g, &HashPartitioner.partition(&g, 2));
        let program = PageRankProgram::new(g.num_vertices());
        for fragment in &frags {
            let mut ctx = PieContext::new();
            ctx.configure_borders(fragment.border_vertices());
            let mut partial = program.peval(&PageRankQuery::default(), fragment, &mut ctx);
            for &i in fragment.inner_dense_indices().iter().take(3) {
                partial.pending.set(i);
            }
            let bytes = program.snapshot_partial(&partial).expect("snapshots");
            assert_eq!(bytes.capacity(), bytes.len());
        }
    }

    #[test]
    fn partial_snapshot_roundtrips_bit_identically() {
        let g = barabasi_albert(150, 2, 17).unwrap();
        let assignment = HashPartitioner.partition(&g, 2);
        let frags = grape_partition::build_fragments(&g, &assignment);
        let program = PageRankProgram {
            global_vertices: g.num_vertices(),
        };
        let mut ctx = PieContext::new();
        ctx.configure_borders(frags[1].border_vertices());
        let mut partial = program.peval(&PageRankQuery::default(), &frags[1], &mut ctx);
        // Leave a non-trivial pending frontier in the snapshot.
        for &i in frags[1].inner_dense_indices().iter().take(3) {
            partial.pending.set(i);
        }
        let bytes = program
            .snapshot_partial(&partial)
            .expect("pagerank snapshots");
        let back = program.restore_partial(&bytes).expect("restore");
        assert_eq!(partial.rank.as_slice(), back.rank.as_slice());
        assert_eq!(
            partial.mirror_share.as_slice(),
            back.mirror_share.as_slice()
        );
        assert_eq!(partial.inner_ids, back.inner_ids);
        assert_eq!(partial.inner_dense, back.inner_dense);
        assert_eq!(partial.contrib.as_slice(), back.contrib.as_slice());
        assert_eq!(
            partial.pending.iter_ones().collect::<Vec<_>>(),
            back.pending.iter_ones().collect::<Vec<_>>()
        );
        assert_eq!(partial.pending.len(), back.pending.len());
        assert!(program.restore_partial(&bytes[..bytes.len() - 1]).is_none());
    }

    #[test]
    fn a_snapshot_that_would_misjoin_or_index_out_of_range_is_refused() {
        let g = barabasi_albert(60, 2, 17).unwrap();
        let frags = grape_partition::build_fragments(&g, &HashPartitioner.partition(&g, 2));
        let program = PageRankProgram::new(g.num_vertices());
        let mut ctx = PieContext::new();
        ctx.configure_borders(frags[0].border_vertices());
        let good = program.peval(&PageRankQuery::default(), &frags[0], &mut ctx);
        let n = good.rank.len();
        let refused = |corrupt: &dyn Fn(&mut PageRankPartial)| {
            let mut partial = good.clone();
            corrupt(&mut partial);
            let bytes = program.snapshot_partial(&partial).unwrap();
            program.restore_partial(&bytes).is_none()
        };
        assert!(!refused(&|_| {}), "the untouched snapshot restores");
        assert!(refused(&|p| p.rank = VertexDenseMap::new(n - 1, 0.0)));
        assert!(refused(
            &|p| p.mirror_share = VertexDenseMap::new(n + 1, 0.0)
        ));
        assert!(refused(&|p| p.contrib = VertexDenseMap::new(0, 0.0)));
        assert!(refused(&|p| p.pending = DenseBitset::new(n + 1)));
        assert!(refused(&|p| {
            Arc::make_mut(&mut p.inner_dense).pop();
        }));
        assert!(
            refused(&|p| Arc::make_mut(&mut p.inner_dense)[0] = n as u32),
            "an owner past the ranks"
        );
        assert!(
            refused(&|p| Arc::make_mut(&mut p.inner_ids).swap(0, 1)),
            "unsorted ids"
        );
    }

    #[test]
    fn sequential_pagerank_sums_to_one_even_with_dangling_vertices() {
        // A hub-and-spoke graph where every sink is dangling: vertices
        // 301..=330 receive edges but have no out-edges. Dropping their rank
        // mass used to make the totals drift below 1; the uniform
        // redistribution keeps the distribution normalized.
        let mut b = GraphBuilder::<(), f64>::new();
        let base = barabasi_albert(300, 3, 17).unwrap();
        for (s, d, w) in base.edges() {
            b.add_edge(s, d, *w);
        }
        for sink in 301..=330u64 {
            b.add_edge(sink % 300, sink, 1.0);
        }
        let g = b.build().unwrap();
        assert!(
            g.vertices().filter(|v| g.out_degree(*v) == 0).count() >= 30,
            "the test graph must actually contain dangling vertices"
        );
        let pr = sequential_pagerank(&g, &PageRankQuery::default(), 40);
        let total: f64 = pr.values().sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "ranks must sum to 1 even with dangling vertices, got {total}"
        );
        let hub = g
            .vertices()
            .max_by_key(|v| g.in_degree(*v) + g.out_degree(*v))
            .unwrap();
        let avg = 1.0 / g.num_vertices() as f64;
        assert!(pr[&hub] > 2.0 * avg);
    }

    #[test]
    fn distributed_pagerank_matches_sequential_on_dangling_graph() {
        // The distributed program folds the dangling correction into a single
        // Assemble-time rescale; at the fixpoint that equals the sequential
        // per-iteration redistribution.
        let mut b = GraphBuilder::<(), f64>::new();
        let base = erdos_renyi(120, 0.05, 3).unwrap();
        for (s, d, w) in base.edges() {
            b.add_edge(s, d, *w);
        }
        for sink in 200..215u64 {
            b.add_edge(sink % 120, sink, 1.0);
        }
        let g = b.build().unwrap();
        assert!(g.vertices().any(|v| g.out_degree(v) == 0));
        let query = PageRankQuery {
            max_local_iterations: 120,
            tolerance: 1e-10,
            ..Default::default()
        };
        let reference = sequential_pagerank(&g, &query, 120);
        let program = PageRankProgram::new(g.num_vertices());
        for k in [1usize, 4] {
            let result = GrapeEngine::new(program)
                .run_on_graph(&query, &g, &HashPartitioner.partition(&g, k))
                .unwrap();
            let total: f64 = result.output.values().sum();
            assert!(
                (total - 1.0).abs() < 1e-9,
                "k={k}: distributed ranks must sum to 1, got {total}"
            );
            for (v, r) in &reference {
                let got = result.output.get(v).copied().unwrap_or(0.0);
                assert!(
                    (got - r).abs() < 5e-3,
                    "k={k} vertex {v}: {got} vs sequential {r}"
                );
            }
        }
    }

    #[test]
    fn star_graph_centre_dominates() {
        let mut b = GraphBuilder::<(), f64>::new().symmetric(true);
        for leaf in 1..=20u64 {
            b.add_edge(leaf, 0, 1.0);
        }
        let g = b.build().unwrap();
        let pr = sequential_pagerank(&g, &PageRankQuery::default(), 30);
        for leaf in 1..=20u64 {
            assert!(pr[&0] > pr[&leaf] * 5.0);
        }
    }

    #[test]
    fn pie_pagerank_approximates_sequential() {
        let g = erdos_renyi(150, 0.05, 9).unwrap();
        let query = PageRankQuery {
            max_local_iterations: 80,
            tolerance: 1e-9,
            ..Default::default()
        };
        let reference = sequential_pagerank(&g, &query, 80);
        let assignment = HashPartitioner.partition(&g, 4);
        let program = PageRankProgram::new(g.num_vertices());
        let result = GrapeEngine::new(program)
            .run_on_graph(&query, &g, &assignment)
            .unwrap();
        let mut max_err = 0.0f64;
        for (v, r) in &reference {
            let got = result.output.get(v).copied().unwrap_or(0.0);
            max_err = max_err.max((got - r).abs());
        }
        assert!(
            max_err < 5e-3,
            "distributed PageRank deviates too much: {max_err}"
        );
        let total: f64 = result.output.values().sum();
        assert!(
            (total - 1.0).abs() < 0.05,
            "mass roughly preserved: {total}"
        );
    }

    #[test]
    fn pie_pagerank_is_partition_invariant() {
        let g = barabasi_albert(200, 3, 23).unwrap();
        let query = PageRankQuery {
            tolerance: 1e-9,
            max_local_iterations: 80,
            ..Default::default()
        };
        let program = PageRankProgram::new(g.num_vertices());
        let r1 = GrapeEngine::new(program)
            .run_on_graph(&query, &g, &BuiltinStrategy::Hash.partition(&g, 3))
            .unwrap();
        let r2 = GrapeEngine::new(program)
            .run_on_graph(&query, &g, &BuiltinStrategy::MetisLike.partition(&g, 6))
            .unwrap();
        for v in g.vertices() {
            let a = r1.output[&v];
            let b = r2.output[&v];
            assert!(
                (a - b).abs() < 5e-3,
                "vertex {v} rank differs across partitions: {a} vs {b}"
            );
        }
    }

    #[test]
    fn single_fragment_matches_sequential_exactly_in_shape() {
        let g = barabasi_albert(100, 2, 5).unwrap();
        let query = PageRankQuery {
            tolerance: 1e-10,
            max_local_iterations: 100,
            ..Default::default()
        };
        let program = PageRankProgram::new(g.num_vertices());
        let result = GrapeEngine::new(program)
            .run_on_graph(&query, &g, &HashPartitioner.partition(&g, 1))
            .unwrap();
        let reference = sequential_pagerank(&g, &query, 100);
        for v in g.vertices() {
            assert!((result.output[&v] - reference[&v]).abs() < 1e-6);
        }
        assert_eq!(result.stats.supersteps, 1);
    }

    #[test]
    fn frontier_sweep_is_bitwise_equal_to_a_full_jacobi_pull() {
        // On a single fragment, the delta-frontier sweep must reproduce a
        // naive full Jacobi pull bit-for-bit: skipped vertices would have
        // pulled identical inputs in the identical order.
        let g = barabasi_albert(300, 3, 7).unwrap();
        let n = g.num_vertices();
        let query = PageRankQuery {
            max_local_iterations: 50,
            tolerance: 1e-12,
            ..Default::default()
        };
        let assignment = HashPartitioner.partition(&g, 1);
        let fragments = grape_core::build_fragments(&g, &assignment);
        let fragment = &fragments[0];
        let fg = &fragment.graph;
        let program = PageRankProgram::new(n);
        let mut ctx = grape_core::PieContext::<f64>::new();
        let partial = program.peval(&query, fragment, &mut ctx);

        let base = (1.0 - query.damping) / n as f64;
        let mut rank = vec![1.0 / n as f64; n];
        for _ in 0..query.max_local_iterations {
            // Same grid equations as the program: quantized per-edge shares.
            let contrib: Vec<f64> = (0..n as u32)
                .map(|i| {
                    let out = fg.out_degree_dense(i);
                    if out == 0 {
                        0.0
                    } else {
                        query.damping * quantize(rank[i as usize] / out as f64, query.tolerance)
                    }
                })
                .collect();
            let mut next = vec![0.0f64; n];
            let mut moved = false;
            for v in 0..n as u32 {
                let mut new = base;
                for &u in fg.in_neighbors_dense(v) {
                    new += contrib[u as usize];
                }
                moved |= new.to_bits() != rank[v as usize].to_bits();
                next[v as usize] = new;
            }
            rank = next;
            if !moved {
                break;
            }
        }
        for i in 0..n as u32 {
            assert_eq!(
                partial.rank[i].to_bits(),
                rank[i as usize].to_bits(),
                "dense index {i}"
            );
        }
    }

    #[test]
    fn pagerank_is_bit_identical_across_thread_counts() {
        use grape_core::par::ThreadCount;
        use grape_core::EngineConfig;
        let g = barabasi_albert(400, 3, 29).unwrap();
        let query = PageRankQuery {
            tolerance: 1e-9,
            max_local_iterations: 80,
            ..Default::default()
        };
        let program = PageRankProgram::new(g.num_vertices());
        let assignment = HashPartitioner.partition(&g, 4);
        let run = |threads: u32| {
            GrapeEngine::new(program)
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
            assert_eq!(result.stats.supersteps, reference.stats.supersteps);
            for (v, r) in &reference.output {
                assert_eq!(
                    result.output[v].to_bits(),
                    r.to_bits(),
                    "vertex {v} threads={threads}"
                );
            }
        }
    }

    #[test]
    fn query_defaults_and_declarations() {
        let q = PageRankQuery::default();
        assert_eq!(q.damping, 0.85);
        assert!(q.tolerance > 0.0);
        assert_eq!(PageRankProgram::new(10).global_vertices, 10);
        assert_eq!(PageRankProgram::new(10).name(), "pagerank");
        assert_eq!(PageRankProgram::new(10).aggregate(&0.25, &0.5), 0.5);
        assert_eq!(quantize(0.123456, 1e-3), 0.123);
    }
}
