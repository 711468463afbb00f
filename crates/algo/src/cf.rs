//! Collaborative filtering (`CF`) — the machine-learning query class
//! registered in the demo library.
//!
//! The model is classic matrix factorization trained with stochastic gradient
//! descent (SGD): every user `u` and item `i` gets a latent factor vector and
//! a rating is predicted as their dot product.
//!
//! PIE formulation:
//!
//! * The bipartite rating graph is partitioned like any other graph; a
//!   fragment owns the users and items assigned to it and sees every rating
//!   edge incident to them (cross edges give it mirror copies of remote
//!   endpoints).
//! * **PEval** initializes factors deterministically and runs one local SGD
//!   epoch over the ratings whose *user* endpoint is inner (so each rating is
//!   trained by exactly one fragment — cross edges are replicated into both
//!   fragments' local graphs, and the inner-user filter is what keeps the
//!   replica from being trained twice; a regression test pins this).
//! * The **update parameters** are the factor vectors of border vertices; the
//!   aggregate is the element-wise average (different fragments see different
//!   ratings of a shared item and their estimates are blended, as in
//!   distributed parameter averaging).
//! * **IncEval** blends the averaged factors of its mirrors into its own and
//!   runs another epoch, up to the query's epoch budget; after the last epoch
//!   it stops posting updates, so the engine reaches its fixpoint. A vertex
//!   not touched yet holds its deterministic initial factor, so a delivery is
//!   always blended, never adopted verbatim: the answer is not an echo (the
//!   engine drops those) and wakes the sender for its next epoch — every
//!   fragment with a border spends its whole budget.
//!
//! CF is not monotonic — it is the example in the paper's library of a
//! program that relies on a bounded number of rounds rather than the
//! Assurance Theorem for termination.
//!
//! The per-fragment state is a flat [`VertexDenseMap`] of factor vectors
//! keyed by the local graph's dense CSR indices (an empty vector marks an
//! untouched vertex; `rank > 0`), and the ratings are stored as dense
//! `(user, item, score)` index triples, so the per-epoch SGD loop performs
//! no hashing at all.

use grape_core::{Fragment, PieContext, PieProgram, VertexId};
use grape_graph::VertexDenseMap;
use std::collections::HashMap;
use std::sync::Arc;

/// A collaborative-filtering query/training job description.
#[derive(Debug, Clone, PartialEq)]
pub struct CfQuery {
    /// Latent factor dimensionality.
    pub rank: usize,
    /// Number of SGD epochs (= IncEval rounds after the PEval epoch).
    pub epochs: usize,
    /// SGD learning rate.
    pub learning_rate: f64,
    /// L2 regularization weight.
    pub regularization: f64,
}

impl Default for CfQuery {
    fn default() -> Self {
        Self {
            rank: 8,
            epochs: 10,
            learning_rate: 0.05,
            regularization: 0.05,
        }
    }
}

/// The learned model: a factor vector per vertex (users and items alike).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CfModel {
    /// Factor vectors keyed by vertex id.
    pub factors: HashMap<VertexId, Vec<f64>>,
}

impl CfModel {
    /// Predicted rating for a `(user, item)` pair; `None` if either vertex is
    /// unknown.
    pub fn predict(&self, user: VertexId, item: VertexId) -> Option<f64> {
        let u = self.factors.get(&user)?;
        let i = self.factors.get(&item)?;
        Some(u.iter().zip(i.iter()).map(|(a, b)| a * b).sum())
    }

    /// Root-mean-square error over a list of `(user, item, rating)` triples;
    /// pairs with unknown vertices are skipped.
    pub fn rmse(&self, ratings: &[(VertexId, VertexId, f64)]) -> f64 {
        let mut sum = 0.0;
        let mut count = 0usize;
        for &(u, i, r) in ratings {
            if let Some(p) = self.predict(u, i) {
                sum += (p - r) * (p - r);
                count += 1;
            }
        }
        if count == 0 {
            0.0
        } else {
            (sum / count as f64).sqrt()
        }
    }
}

/// Deterministic pseudo-random initial factor for a vertex (splitmix64-based
/// so every fragment initializes shared vertices identically).
fn initial_factor(vertex: VertexId, rank: usize) -> Vec<f64> {
    let mut state = vertex.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z as f64 / u64::MAX as f64) * 0.2 + 0.4
    };
    (0..rank).map(|_| next()).collect()
}

/// One SGD epoch over the given ratings, updating the factors in place.
fn sgd_epoch(
    query: &CfQuery,
    factors: &mut HashMap<VertexId, Vec<f64>>,
    ratings: &[(VertexId, VertexId, f64)],
) {
    for &(u, i, r) in ratings {
        let pu = factors
            .entry(u)
            .or_insert_with(|| initial_factor(u, query.rank))
            .clone();
        let qi = factors
            .entry(i)
            .or_insert_with(|| initial_factor(i, query.rank))
            .clone();
        let (new_pu, new_qi) = sgd_step(query, &pu, &qi, r);
        factors.insert(u, new_pu);
        factors.insert(i, new_qi);
    }
}

/// One SGD update of a `(user, item, rating)` triple: returns the new user
/// and item factor vectors. Shared between the sequential reference and the
/// dense distributed path so their arithmetic stays bit-identical.
fn sgd_step(query: &CfQuery, pu: &[f64], qi: &[f64], r: f64) -> (Vec<f64>, Vec<f64>) {
    let pred: f64 = pu.iter().zip(qi.iter()).map(|(a, b)| a * b).sum();
    let err = r - pred;
    let lr = query.learning_rate;
    let reg = query.regularization;
    let new_pu: Vec<f64> = pu
        .iter()
        .zip(qi.iter())
        .map(|(p, q)| p + lr * (err * q - reg * p))
        .collect();
    let new_qi: Vec<f64> = qi
        .iter()
        .zip(pu.iter())
        .map(|(q, p)| q + lr * (err * p - reg * q))
        .collect();
    (new_pu, new_qi)
}

/// One SGD epoch over dense rating triples, updating the flat factor table in
/// place. `ids` translates dense indices to global ids for the deterministic
/// initialization; an empty vector marks an uninitialized slot.
fn sgd_epoch_dense(
    query: &CfQuery,
    factors: &mut VertexDenseMap<Vec<f64>>,
    ids: &[VertexId],
    ratings: &[(u32, u32, f64)],
) {
    for &(u, i, r) in ratings {
        if factors[u].is_empty() {
            factors.set(u, initial_factor(ids[u as usize], query.rank));
        }
        if factors[i].is_empty() {
            factors.set(i, initial_factor(ids[i as usize], query.rank));
        }
        let (new_pu, new_qi) = sgd_step(query, &factors[u], &factors[i], r);
        factors.set(u, new_pu);
        factors.set(i, new_qi);
    }
}

/// Sequential matrix-factorization training — the reference implementation.
pub fn sequential_cf(query: &CfQuery, ratings: &[(VertexId, VertexId, f64)]) -> CfModel {
    let mut factors = HashMap::new();
    for _ in 0..=query.epochs {
        sgd_epoch(query, &mut factors, ratings);
    }
    CfModel { factors }
}

/// Per-fragment partial state, flat over the local graph's dense indices.
#[derive(Debug, Clone, Default)]
pub struct CfPartial {
    /// Factor vector of each local vertex by dense index; an empty vector
    /// means the vertex has not been touched by training or messages yet.
    factors: VertexDenseMap<Vec<f64>>,
    /// Ratings trained by this fragment — edges whose source (user) is inner
    /// — as dense `(user, item, score)` triples.
    ratings: Vec<(u32, u32, f64)>,
    /// Global ids aligned with the dense indices (the local graph's id
    /// table, shared rather than copied), for deterministic initialization
    /// and Assemble.
    vertex_ids: Arc<Vec<VertexId>>,
    epochs_done: usize,
}

/// The collaborative-filtering PIE program.
///
/// `num_users` distinguishes user vertices (`id < num_users`) from item
/// vertices, matching the layout produced by
/// [`grape_graph::generators::bipartite_ratings`].
#[derive(Debug, Clone, Copy)]
pub struct CfProgram {
    /// Number of user vertices in the bipartite graph.
    pub num_users: usize,
}

impl CfProgram {
    /// Creates the program.
    pub fn new(num_users: usize) -> Self {
        Self { num_users }
    }

    fn publish_borders(
        fragment: &Fragment<(), f64>,
        partial: &CfPartial,
        ctx: &mut PieContext<Vec<f64>>,
    ) {
        for (pos, &i) in fragment.border_dense_indices().iter().enumerate() {
            let f = &partial.factors[i];
            if f.is_empty() {
                continue;
            }
            // Quantize slightly so tiny float jitter does not keep the
            // fixpoint from being reached once the epoch budget is spent.
            let rounded: Vec<f64> = f.iter().map(|x| (x * 1e9).round() / 1e9).collect();
            ctx.update_at(pos as u32, rounded);
        }
    }
}

impl PieProgram for CfProgram {
    type Query = CfQuery;
    type VertexData = ();
    type EdgeData = f64;
    type Value = Vec<f64>;
    type Partial = CfPartial;
    type Output = CfModel;

    fn peval(
        &self,
        query: &CfQuery,
        fragment: &Fragment<(), f64>,
        ctx: &mut PieContext<Vec<f64>>,
    ) -> CfPartial {
        let g = &fragment.graph;
        // Collect the ratings this fragment is responsible for: edges whose
        // user endpoint is inner (item -> user duplicates are skipped, and a
        // cross edge's replica on the item-owning fragment fails the
        // inner-user test — each rating is trained by exactly one fragment).
        let mut ratings: Vec<(u32, u32, f64)> = Vec::new();
        for &iu in fragment.inner_dense_indices() {
            if g.vertex_of(iu) as usize >= self.num_users {
                continue;
            }
            for (id, &w) in g.out_edges_dense(iu) {
                if (g.vertex_of(id) as usize) >= self.num_users {
                    ratings.push((iu, id, w));
                }
            }
        }
        let mut partial = CfPartial {
            factors: VertexDenseMap::new(g.num_vertices(), Vec::new()),
            ratings,
            vertex_ids: Arc::clone(g.shared_vertex_ids()),
            epochs_done: 0,
        };
        sgd_epoch_dense(
            query,
            &mut partial.factors,
            &partial.vertex_ids,
            &partial.ratings,
        );
        Self::publish_borders(fragment, &partial, ctx);
        partial
    }

    fn inceval(
        &self,
        query: &CfQuery,
        fragment: &Fragment<(), f64>,
        partial: &mut CfPartial,
        messages: &[(u32, Vec<f64>)],
        ctx: &mut PieContext<Vec<f64>>,
    ) {
        // Blend the received (already averaged) factors of mirror vertices
        // into the local model, addressed by border position.
        let border = fragment.border_dense_indices();
        for (pos, remote) in messages {
            let i = border[*pos as usize];
            let local = &mut partial.factors[i];
            if local.is_empty() {
                *local = initial_factor(partial.vertex_ids[i as usize], query.rank);
            }
            for (l, r) in local.iter_mut().zip(remote.iter()) {
                *l = (*l + *r) / 2.0;
            }
        }
        if partial.epochs_done >= query.epochs {
            // Budget exhausted: absorb silently so the fixpoint is reached.
            return;
        }
        partial.epochs_done += 1;
        sgd_epoch_dense(
            query,
            &mut partial.factors,
            &partial.vertex_ids,
            &partial.ratings,
        );
        Self::publish_borders(fragment, partial, ctx);
    }

    fn assemble(&self, partials: Vec<CfPartial>) -> CfModel {
        // Average the factor estimates of vertices shared by several
        // fragments. Each vertex's accumulation runs in fragment order, so
        // the float sums are deterministic.
        let mut sums: HashMap<VertexId, (Vec<f64>, usize)> = HashMap::new();
        for partial in partials {
            for (idx, &v) in partial.vertex_ids.iter().enumerate() {
                let f = &partial.factors[idx as u32];
                if f.is_empty() {
                    continue;
                }
                match sums.get_mut(&v) {
                    None => {
                        sums.insert(v, (f.clone(), 1));
                    }
                    Some((acc, count)) => {
                        for (a, x) in acc.iter_mut().zip(f.iter()) {
                            *a += x;
                        }
                        *count += 1;
                    }
                }
            }
        }
        CfModel {
            factors: sums
                .into_iter()
                .map(|(v, (sum, count))| (v, sum.into_iter().map(|x| x / count as f64).collect()))
                .collect(),
        }
    }

    fn aggregate(&self, a: &Vec<f64>, b: &Vec<f64>) -> Vec<f64> {
        a.iter().zip(b.iter()).map(|(x, y)| (x + y) / 2.0).collect()
    }

    fn snapshot_partial(&self, partial: &CfPartial) -> Option<Vec<u8>> {
        use grape_core::{wire, Wire};
        let mut out = Vec::new();
        wire::encode_seq(partial.factors.as_slice(), &mut out);
        partial.ratings.encode(&mut out);
        partial.vertex_ids.encode(&mut out);
        partial.epochs_done.encode(&mut out);
        Some(out)
    }

    fn restore_partial(&self, bytes: &[u8]) -> Option<CfPartial> {
        use grape_core::{Wire, WireReader};
        let mut reader = WireReader::new(bytes);
        let factors = Vec::<Vec<f64>>::decode(&mut reader).ok()?;
        let ratings = Vec::<(u32, u32, f64)>::decode(&mut reader).ok()?;
        let vertex_ids = Vec::<VertexId>::decode(&mut reader).ok()?;
        let epochs_done = usize::decode(&mut reader).ok()?;
        reader.finish().ok()?;
        Some(CfPartial {
            factors: VertexDenseMap::from_vec(factors),
            ratings,
            vertex_ids: Arc::new(vertex_ids),
            epochs_done,
        })
    }

    fn name(&self) -> &str {
        "cf"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grape_core::GrapeEngine;
    use grape_graph::generators::bipartite_ratings;
    use grape_partition::{
        build_fragments, BuiltinStrategy, HashPartitioner, PartitionAssignment, Partitioner,
    };

    fn as_triples(data: &grape_graph::generators::RatingData) -> Vec<(VertexId, VertexId, f64)> {
        data.train
            .iter()
            .map(|r| (r.user, r.item, r.score))
            .collect()
    }

    #[test]
    fn sequential_cf_reduces_training_error() {
        let data = bipartite_ratings(60, 30, 12, 4, 5).unwrap();
        let triples = as_triples(&data);
        let query = CfQuery {
            epochs: 25,
            ..Default::default()
        };
        // Error of an untrained model (single epoch) vs the trained one.
        let rough = sequential_cf(
            &CfQuery {
                epochs: 0,
                ..query.clone()
            },
            &triples,
        );
        let trained = sequential_cf(&query, &triples);
        let before = rough.rmse(&triples);
        let after = trained.rmse(&triples);
        assert!(
            after < before,
            "training must reduce RMSE: before {before}, after {after}"
        );
        assert!(after < 0.8, "trained RMSE should be small, got {after}");
    }

    #[test]
    fn model_predicts_in_rating_range_ballpark() {
        let data = bipartite_ratings(40, 20, 10, 4, 9).unwrap();
        let triples = as_triples(&data);
        let model = sequential_cf(&CfQuery::default(), &triples);
        for &(u, i, _) in triples.iter().take(20) {
            let p = model.predict(u, i).unwrap();
            assert!((0.0..=7.0).contains(&p), "prediction {p} is wildly off");
        }
        assert!(model.predict(9_999, 0).is_none());
    }

    #[test]
    fn pie_cf_trains_comparably_to_sequential() {
        let data = bipartite_ratings(80, 30, 15, 4, 13).unwrap();
        let triples = as_triples(&data);
        let query = CfQuery {
            epochs: 15,
            ..Default::default()
        };
        let sequential = sequential_cf(&query, &triples);
        let seq_rmse = sequential.rmse(&triples);

        let assignment = HashPartitioner.partition(&data.graph, 4);
        let program = CfProgram::new(data.num_users);
        let result = GrapeEngine::new(program)
            .run_on_graph(&query, &data.graph, &assignment)
            .unwrap();
        let dist_rmse = result.output.rmse(&triples);
        assert!(
            dist_rmse < seq_rmse * 1.5 + 0.2,
            "distributed training should be in the same ballpark: sequential {seq_rmse}, distributed {dist_rmse}"
        );
        // The engine terminates because each fragment's epoch budget bounds
        // the total number of rounds by (fragments × epochs) + 2.
        assert!(result.stats.supersteps <= 4 * query.epochs + 2);
    }

    #[test]
    fn every_fragment_with_a_border_spends_its_epoch_budget() {
        // Rounds must not depend on echoes, which the engine drops. Users on
        // one fragment, items on the other: the item side trains nothing, yet
        // its answers — blends, never the delivered factor itself — drive the
        // user side through all its epochs, one every other superstep.
        let data = bipartite_ratings(30, 80, 12, 4, 5).unwrap();
        let triples = as_triples(&data);
        let query = CfQuery::default();
        let run = |assignment: &PartitionAssignment| {
            GrapeEngine::new(CfProgram::new(data.num_users))
                .run_on_graph(&query, &data.graph, assignment)
                .unwrap()
        };
        let mut lopsided = PartitionAssignment::new(2);
        for v in data.graph.vertices() {
            lopsided.assign(v, usize::from(v as usize >= data.num_users));
        }
        let result = run(&lopsided);
        assert_eq!(result.stats.supersteps, 2 * query.epochs + 2);
        let untrained = CfQuery {
            epochs: 0,
            ..query.clone()
        };
        let one_epoch = sequential_cf(&untrained, &triples).rmse(&triples);
        let rmse = result.output.rmse(&triples);
        assert!(
            rmse < 0.16 && rmse < 0.6 * one_epoch,
            "a spent budget trains well past the PEval epoch: {rmse} vs {one_epoch}"
        );
        // A regular cut, where every fragment trains: one epoch per superstep.
        let result = run(&HashPartitioner.partition(&data.graph, 4));
        assert_eq!(result.stats.supersteps, query.epochs + 2);
        let rmse = result.output.rmse(&triples);
        assert!(rmse < 0.2, "hash/4 train RMSE {rmse}");
    }

    #[test]
    fn each_rating_is_trained_by_exactly_one_fragment() {
        // Cross-fragment audit regression: every rating edge of the bipartite
        // graph is replicated into both endpoint fragments' local graphs (and
        // the generator also records the reverse item→user edge), so a
        // careless PEval would train cut ratings twice — double-counting
        // their gradient. Pin the invariant: the union of the fragments'
        // training sets equals the global user→item edge multiset exactly.
        let data = bipartite_ratings(60, 25, 10, 4, 41).unwrap();
        let mut expected: Vec<(VertexId, VertexId)> = data
            .graph
            .edges()
            .filter(|(s, d, _)| (*s as usize) < data.num_users && (*d as usize) >= data.num_users)
            .map(|(s, d, _)| (s, d))
            .collect();
        expected.sort_unstable();
        for strategy in [BuiltinStrategy::Hash, BuiltinStrategy::Range] {
            for k in [2usize, 5] {
                let assignment = strategy.partition(&data.graph, k);
                let fragments = build_fragments(&data.graph, &assignment);
                let program = CfProgram::new(data.num_users);
                let mut trained: Vec<(VertexId, VertexId)> = Vec::new();
                let mut cut_ratings = 0usize;
                for fragment in &fragments {
                    let mut ctx = PieContext::new();
                    ctx.configure_borders(fragment.border_vertices());
                    let partial = program.peval(&CfQuery::default(), fragment, &mut ctx);
                    for &(u, i, _) in &partial.ratings {
                        let user = fragment.graph.vertex_of(u);
                        let item = fragment.graph.vertex_of(i);
                        if fragment.is_outer(item) {
                            cut_ratings += 1;
                        }
                        trained.push((user, item));
                    }
                }
                trained.sort_unstable();
                assert_eq!(
                    trained, expected,
                    "{strategy:?}/{k} fragments: each rating must be trained \
                     exactly once, no duplicates across cut edges"
                );
                if k > 1 {
                    assert!(
                        cut_ratings > 0,
                        "{strategy:?}/{k}: the test must actually cover cut \
                         rating edges"
                    );
                }
            }
        }
    }

    #[test]
    fn held_out_rmse_is_sane() {
        let data = bipartite_ratings(100, 40, 20, 4, 21).unwrap();
        let triples = as_triples(&data);
        let test: Vec<(VertexId, VertexId, f64)> = data
            .test
            .iter()
            .map(|r| (r.user, r.item, r.score))
            .collect();
        let model = sequential_cf(
            &CfQuery {
                epochs: 20,
                ..Default::default()
            },
            &triples,
        );
        let rmse = model.rmse(&test);
        assert!(rmse < 1.5, "held-out RMSE too large: {rmse}");
    }

    #[test]
    fn deterministic_initialization() {
        assert_eq!(initial_factor(42, 4), initial_factor(42, 4));
        assert_ne!(initial_factor(42, 4), initial_factor(43, 4));
        let f = initial_factor(7, 8);
        assert_eq!(f.len(), 8);
        assert!(f.iter().all(|x| (0.0..1.0).contains(x)));
    }

    #[test]
    fn program_declarations() {
        let p = CfProgram::new(10);
        assert_eq!(p.num_users, 10);
        assert_eq!(p.name(), "cf");
        assert_eq!(
            p.aggregate(&vec![1.0, 3.0], &vec![3.0, 5.0]),
            vec![2.0, 4.0]
        );
        let q = CfQuery::default();
        assert!(q.rank > 0 && q.epochs > 0);
    }
}
