//! Deterministic, seeded synthetic graph generators.
//!
//! The paper evaluates GRAPE on real datasets (US road network, LiveJournal,
//! Weibo, movie-rating data). Those datasets cannot be shipped here, so this
//! module produces synthetic graphs with the structural properties that drive
//! the paper's results:
//!
//! * [`road_network`] — a 2-D grid with weighted edges, a few diagonal
//!   shortcuts and removed cells. Like a real road network it has a *large
//!   diameter* and a small, nearly constant degree — the regime where
//!   vertex-centric engines need thousands of supersteps for SSSP and GRAPE's
//!   fragment-level Dijkstra shines (Table 1).
//! * [`barabasi_albert`] — a power-law social graph (LiveJournal/Weibo
//!   stand-in) with small diameter and heavy-tailed degrees.
//! * [`rmat`] — Kronecker-style R-MAT graphs used in many BSP benchmarks.
//! * [`erdos_renyi`] — uniform random graphs for unit tests and property
//!   tests.
//! * [`bipartite_ratings`] — user × item rating graph for collaborative
//!   filtering.
//! * [`labeled_social`] — a labeled property graph with `person`, `product`
//!   and rating edges (`follows`, `recommends`, `rates_bad`, `buys`) used by
//!   graph simulation, subgraph isomorphism, keyword search and the GPAR
//!   social-media-marketing demo (Fig. 4).
//!
//! Every generator takes an explicit seed and is fully deterministic.

use crate::builder::GraphBuilder;
use crate::csr::CsrGraph;
use crate::labels::{LabeledGraph, LabeledVertex};
use crate::types::{EdgeRecord, GraphError, VertexId};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// A weighted graph produced by the generators in this module.
pub type WeightedGraph = CsrGraph<(), f64>;

/// Parameters for the road-network-like grid generator.
#[derive(Debug, Clone, Copy)]
pub struct RoadNetworkConfig {
    /// Grid width (number of columns).
    pub width: usize,
    /// Grid height (number of rows).
    pub height: usize,
    /// Probability that a grid cell is removed (a "lake"/obstacle).
    pub removal_prob: f64,
    /// Probability of adding a diagonal shortcut at a cell.
    pub shortcut_prob: f64,
    /// Minimum edge weight (e.g. road length).
    pub min_weight: f64,
    /// Maximum edge weight.
    pub max_weight: f64,
}

impl Default for RoadNetworkConfig {
    fn default() -> Self {
        Self {
            width: 64,
            height: 64,
            removal_prob: 0.03,
            shortcut_prob: 0.05,
            min_weight: 1.0,
            max_weight: 10.0,
        }
    }
}

/// Generates a road-network-like weighted graph: a `width × height` grid with
/// bidirectional weighted edges between 4-neighbours, occasional removed
/// cells and occasional diagonal shortcuts.
pub fn road_network(config: RoadNetworkConfig, seed: u64) -> Result<WeightedGraph, GraphError> {
    if config.width == 0 || config.height == 0 {
        return Err(GraphError::InvalidParameter(
            "road_network: width and height must be positive".into(),
        ));
    }
    if config.max_weight < config.min_weight {
        return Err(GraphError::InvalidParameter(
            "road_network: max_weight must be >= min_weight".into(),
        ));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let w = config.width;
    let h = config.height;
    let idx = |x: usize, y: usize| (y * w + x) as VertexId;
    let mut removed = vec![false; w * h];
    for cell in removed.iter_mut() {
        *cell = rng.random::<f64>() < config.removal_prob;
    }
    // Keep the corners so sources used by the benches always exist.
    removed[0] = false;
    removed[w * h - 1] = false;

    let mut builder = GraphBuilder::<(), f64>::new().symmetric(true);
    let weight = |rng: &mut StdRng| {
        config.min_weight + rng.random::<f64>() * (config.max_weight - config.min_weight)
    };
    for y in 0..h {
        for x in 0..w {
            if removed[y * w + x] {
                continue;
            }
            builder.ensure_vertex(idx(x, y));
            if x + 1 < w && !removed[y * w + x + 1] {
                let wt = weight(&mut rng);
                builder.add_edge(idx(x, y), idx(x + 1, y), wt);
            }
            if y + 1 < h && !removed[(y + 1) * w + x] {
                let wt = weight(&mut rng);
                builder.add_edge(idx(x, y), idx(x, y + 1), wt);
            }
            if x + 1 < w
                && y + 1 < h
                && !removed[(y + 1) * w + x + 1]
                && rng.random::<f64>() < config.shortcut_prob
            {
                let wt = weight(&mut rng);
                builder.add_edge(idx(x, y), idx(x + 1, y + 1), wt);
            }
        }
    }
    builder.build()
}

/// Generates a Barabási–Albert preferential-attachment graph with `n`
/// vertices, each new vertex attaching to `m` existing vertices. Edges are
/// directed from the new vertex to its chosen targets and weighted 1.0;
/// symmetric edges are added so the graph is usable for undirected traversal.
pub fn barabasi_albert(n: usize, m: usize, seed: u64) -> Result<WeightedGraph, GraphError> {
    if m == 0 || n < m + 1 {
        return Err(GraphError::InvalidParameter(
            "barabasi_albert: need m >= 1 and n >= m + 1".into(),
        ));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::<(), f64>::new().symmetric(true);
    // Repeated-endpoint list for preferential attachment.
    let mut endpoints: Vec<VertexId> = Vec::with_capacity(2 * n * m);
    // Start with a small clique of m + 1 vertices.
    for u in 0..=(m as VertexId) {
        for v in 0..u {
            builder.add_edge(u, v, 1.0);
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    for u in (m as VertexId + 1)..(n as VertexId) {
        // A small insertion-ordered list instead of a `HashSet`: iterating a
        // std hash set would replay in per-process-random order (SipHash
        // keys) and leak into the attachment sequence, making the "seeded"
        // graph differ between processes.
        let mut chosen: Vec<VertexId> = Vec::with_capacity(m);
        let mut guard = 0;
        while chosen.len() < m && guard < 50 * m {
            guard += 1;
            let target = if endpoints.is_empty() {
                rng.random_range(0..u)
            } else {
                endpoints[rng.random_range(0..endpoints.len())]
            };
            if target != u && !chosen.contains(&target) {
                chosen.push(target);
            }
        }
        for &v in &chosen {
            builder.add_edge(u, v, 1.0);
            endpoints.push(u);
            endpoints.push(v);
        }
    }
    builder.build()
}

/// Parameters of the R-MAT generator.
#[derive(Debug, Clone, Copy)]
pub struct RmatConfig {
    /// log2 of the number of vertices.
    pub scale: u32,
    /// Average directed edges per vertex.
    pub edge_factor: usize,
    /// R-MAT quadrant probabilities; must sum to ~1.
    pub a: f64,
    /// Probability of the upper-right quadrant.
    pub b: f64,
    /// Probability of the lower-left quadrant.
    pub c: f64,
}

impl Default for RmatConfig {
    fn default() -> Self {
        Self {
            scale: 10,
            edge_factor: 8,
            a: 0.57,
            b: 0.19,
            c: 0.19,
        }
    }
}

/// Generates an R-MAT graph (Graph500-style skewed random graph).
///
/// Each of the `edge_factor · 2^scale` edges descends `scale` levels of the
/// adjacency matrix, one uniform draw per level: the draw picks a quadrant
/// by counting the thresholds `a`, `a + b`, `a + b + c` it reaches, and the
/// quadrant's two bits are the next bits of the source and target ids, so
/// the descent has no data-dependent branch. One more draw gives the weight
/// in `[1, 10)`. Cost: `(scale + 1) · m` draws and `m` builder appends,
/// then [`GraphBuilder::build`] on ids `0..2^scale`, all ensured.
///
/// `a`, `b` and `c` must be probabilities with `a + b + c ≤ 1`; anything
/// else (a negative or NaN value included) is a
/// [`GraphError::InvalidParameter`].
pub fn rmat(config: RmatConfig, seed: u64) -> Result<WeightedGraph, GraphError> {
    let RmatConfig { a, b, c, .. } = config;
    let probability = |p: f64| (0.0..=1.0).contains(&p);
    if ![a, b, c, 1.0 - a - b - c].into_iter().all(probability) {
        return Err(GraphError::InvalidParameter(
            "rmat: a, b and c must lie in [0, 1] with a + b + c <= 1".into(),
        ));
    }
    // Ascending, as the quadrant count needs: b and c are not negative.
    let (ab, abc) = (a + b, a + b + c);
    let n: u64 = 1u64 << config.scale;
    let m = (n as usize) * config.edge_factor;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::<(), f64>::new();
    for v in 0..n {
        builder.ensure_vertex(v);
    }
    for _ in 0..m {
        // Quadrant 0 keeps both halves low, 1 takes the right (target)
        // half, 2 the lower (source) half, 3 both.
        let (mut src, mut dst) = (0u64, 0u64);
        for bit in (0..config.scale).rev() {
            let r = rng.random::<f64>();
            let quadrant = u64::from(r >= a) + u64::from(r >= ab) + u64::from(r >= abc);
            dst |= (quadrant & 1) << bit;
            src |= (quadrant >> 1) << bit;
        }
        let weight = 1.0 + rng.random::<f64>() * 9.0;
        builder.add_edge(src, dst, weight);
    }
    builder.build()
}

/// Generates a directed Erdős–Rényi `G(n, p)` graph with unit weights.
pub fn erdos_renyi(n: usize, p: f64, seed: u64) -> Result<WeightedGraph, GraphError> {
    if !(0.0..=1.0).contains(&p) {
        return Err(GraphError::InvalidParameter(
            "erdos_renyi: p must be in [0, 1]".into(),
        ));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = GraphBuilder::<(), f64>::new();
    for v in 0..n as VertexId {
        builder.ensure_vertex(v);
    }
    for u in 0..n as VertexId {
        for v in 0..n as VertexId {
            if u != v && rng.random::<f64>() < p {
                builder.add_edge(u, v, 1.0 + rng.random::<f64>() * 4.0);
            }
        }
    }
    builder.build()
}

/// A user–item rating edge produced by [`bipartite_ratings`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rating {
    /// The user (vertex ids `0..num_users`).
    pub user: VertexId,
    /// The item (vertex ids `num_users..num_users + num_items`).
    pub item: VertexId,
    /// Rating value in `[1, 5]`.
    pub score: f64,
}

/// Output of [`bipartite_ratings`]: a rating graph plus the raw rating list,
/// together with a "ground truth" latent model so collaborative-filtering
/// experiments can measure reconstruction error.
#[derive(Debug, Clone)]
pub struct RatingData {
    /// Bipartite graph; edge weight is the rating score.
    pub graph: WeightedGraph,
    /// Flat list of ratings (train split).
    pub train: Vec<Rating>,
    /// Held-out ratings (test split).
    pub test: Vec<Rating>,
    /// Number of user vertices (ids `0..num_users`).
    pub num_users: usize,
    /// Number of item vertices (ids `num_users..num_users+num_items`).
    pub num_items: usize,
}

/// Generates a bipartite user–item rating graph from a planted latent-factor
/// model, splitting ratings into train/test.
pub fn bipartite_ratings(
    num_users: usize,
    num_items: usize,
    ratings_per_user: usize,
    rank: usize,
    seed: u64,
) -> Result<RatingData, GraphError> {
    if num_users == 0 || num_items == 0 || ratings_per_user == 0 || rank == 0 {
        return Err(GraphError::InvalidParameter(
            "bipartite_ratings: all parameters must be positive".into(),
        ));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let user_factors: Vec<Vec<f64>> = (0..num_users)
        .map(|_| (0..rank).map(|_| rng.random::<f64>()).collect())
        .collect();
    let item_factors: Vec<Vec<f64>> = (0..num_items)
        .map(|_| (0..rank).map(|_| rng.random::<f64>()).collect())
        .collect();
    let mut train = Vec::new();
    let mut test = Vec::new();
    let mut builder = GraphBuilder::<(), f64>::new();
    for u in 0..num_users as VertexId {
        builder.ensure_vertex(u);
    }
    for i in 0..num_items as VertexId {
        builder.ensure_vertex(num_users as VertexId + i);
    }
    for (u, user_factor) in user_factors.iter().enumerate() {
        let mut seen = std::collections::HashSet::new();
        for _ in 0..ratings_per_user {
            let item = rng.random_range(0..num_items);
            if !seen.insert(item) {
                continue;
            }
            let dot: f64 = user_factor
                .iter()
                .zip(&item_factors[item])
                .map(|(a, b)| a * b)
                .sum();
            let noise = (rng.random::<f64>() - 0.5) * 0.2;
            #[allow(clippy::manual_clamp)]
            let score = (1.0 + 4.0 * (dot / rank as f64) + noise).clamp(1.0, 5.0);
            let rating = Rating {
                user: u as VertexId,
                item: (num_users + item) as VertexId,
                score,
            };
            if rng.random::<f64>() < 0.9 {
                builder.add_edge(rating.user, rating.item, score);
                builder.add_edge(rating.item, rating.user, score);
                train.push(rating);
            } else {
                test.push(rating);
            }
        }
    }
    Ok(RatingData {
        graph: builder.build()?,
        train,
        test,
        num_users,
        num_items,
    })
}

/// Parameters of the labeled social-graph generator.
#[derive(Debug, Clone, Copy)]
pub struct SocialGraphConfig {
    /// Number of `person` vertices.
    pub num_persons: usize,
    /// Number of `product` vertices.
    pub num_products: usize,
    /// Preferential-attachment out-degree for `follows` edges.
    pub follows_per_person: usize,
    /// Probability that a person recommends a product they are exposed to.
    pub recommend_prob: f64,
    /// Probability that a person gives a bad rating to a product.
    pub bad_rating_prob: f64,
    /// Probability that a person has already bought a product.
    pub buy_prob: f64,
}

impl Default for SocialGraphConfig {
    fn default() -> Self {
        Self {
            num_persons: 1_000,
            num_products: 20,
            follows_per_person: 8,
            recommend_prob: 0.25,
            bad_rating_prob: 0.02,
            buy_prob: 0.05,
        }
    }
}

/// Keywords attached to some person vertices, used by keyword search tests.
const PERSON_KEYWORDS: &[&str] = &["student", "engineer", "artist", "doctor", "teacher"];
/// Product names used as both labels' keywords and GPAR targets.
const PRODUCT_KEYWORDS: &[&str] = &["phone", "laptop", "camera", "tablet", "watch"];

/// Generates a labeled social graph for pattern matching, keyword search and
/// the GPAR social-media-marketing use case of Fig. 4.
///
/// Vertices: `person` (ids `0..num_persons`) and `product`
/// (ids `num_persons..num_persons+num_products`).
/// Edges: `follows` (person → person, power-law), `recommends`
/// (person → product), `rates_bad` (person → product), `buys`
/// (person → product).
pub fn labeled_social(config: SocialGraphConfig, seed: u64) -> Result<LabeledGraph, GraphError> {
    if config.num_persons < 2 || config.num_products == 0 {
        return Err(GraphError::InvalidParameter(
            "labeled_social: need at least 2 persons and 1 product".into(),
        ));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let np = config.num_persons as VertexId;
    let mut vertices: Vec<(VertexId, LabeledVertex)> = Vec::new();
    for p in 0..np {
        let kw = PERSON_KEYWORDS[rng.random_range(0..PERSON_KEYWORDS.len())];
        vertices.push((
            p,
            LabeledVertex::with_keywords("person", [kw, &format!("user{p}")]),
        ));
    }
    for i in 0..config.num_products as VertexId {
        let kw = PRODUCT_KEYWORDS[(i as usize) % PRODUCT_KEYWORDS.len()];
        vertices.push((
            np + i,
            LabeledVertex::with_keywords("product", [kw, &format!("model{i}")]),
        ));
    }

    let mut edges: Vec<EdgeRecord<String>> = Vec::new();
    // `follows` edges with preferential attachment (heavy-tailed in-degree).
    let mut endpoints: Vec<VertexId> = vec![0, 1];
    edges.push(EdgeRecord::new(1, 0, "follows".to_string()));
    for p in 2..np {
        let k = config.follows_per_person.min(p as usize);
        // Insertion-ordered for cross-process determinism (see
        // `barabasi_albert`).
        let mut chosen: Vec<VertexId> = Vec::with_capacity(k);
        let mut guard = 0;
        while chosen.len() < k && guard < 20 * k {
            guard += 1;
            let t = if rng.random::<f64>() < 0.7 && !endpoints.is_empty() {
                endpoints[rng.random_range(0..endpoints.len())]
            } else {
                rng.random_range(0..p)
            };
            if t != p && !chosen.contains(&t) {
                chosen.push(t);
            }
        }
        for &t in &chosen {
            edges.push(EdgeRecord::new(p, t, "follows".to_string()));
            endpoints.push(t);
            endpoints.push(p);
        }
    }
    // Product interactions.
    for p in 0..np {
        for i in 0..config.num_products as VertexId {
            let product = np + i;
            let r = rng.random::<f64>();
            if r < config.recommend_prob {
                edges.push(EdgeRecord::new(p, product, "recommends".to_string()));
            } else if r < config.recommend_prob + config.bad_rating_prob {
                edges.push(EdgeRecord::new(p, product, "rates_bad".to_string()));
            }
            if rng.random::<f64>() < config.buy_prob {
                edges.push(EdgeRecord::new(p, product, "buys".to_string()));
            }
        }
    }
    LabeledGraph::from_records(vertices, edges, true)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn road_network_is_deterministic_and_connected_enough() {
        let cfg = RoadNetworkConfig {
            width: 16,
            height: 16,
            ..Default::default()
        };
        let g1 = road_network(cfg, 7).unwrap();
        let g2 = road_network(cfg, 7).unwrap();
        assert_eq!(g1.num_vertices(), g2.num_vertices());
        assert_eq!(g1.num_edges(), g2.num_edges());
        assert!(g1.num_vertices() > 200, "most cells survive removal");
        // Undirected representation: every edge has its reverse.
        for (s, d, _) in g1.edges().take(50) {
            assert!(g1.out_edges(d).any(|(t, _)| t == s));
        }
    }

    #[test]
    fn road_network_rejects_bad_config() {
        let cfg = RoadNetworkConfig {
            width: 0,
            ..Default::default()
        };
        assert!(road_network(cfg, 1).is_err());
        let cfg = RoadNetworkConfig {
            min_weight: 5.0,
            max_weight: 1.0,
            ..Default::default()
        };
        assert!(road_network(cfg, 1).is_err());
    }

    #[test]
    fn barabasi_albert_has_heavy_tail() {
        let g = barabasi_albert(2_000, 4, 13).unwrap();
        assert_eq!(g.num_vertices(), 2_000);
        let max_deg = g
            .vertices()
            .map(|v| g.degree(v, crate::types::Direction::Both))
            .max()
            .unwrap();
        let avg_deg = 2.0 * g.num_edges() as f64 / g.num_vertices() as f64;
        assert!(
            max_deg as f64 > 4.0 * avg_deg,
            "power-law graphs have hubs: max {max_deg} vs avg {avg_deg}"
        );
    }

    #[test]
    fn barabasi_albert_rejects_bad_params() {
        assert!(barabasi_albert(3, 0, 1).is_err());
        assert!(barabasi_albert(3, 5, 1).is_err());
    }

    #[test]
    fn rmat_sizes() {
        let g = rmat(
            RmatConfig {
                scale: 8,
                edge_factor: 4,
                ..Default::default()
            },
            3,
        )
        .unwrap();
        assert_eq!(g.num_vertices(), 256);
        assert_eq!(g.num_edges(), 1024);
    }

    #[test]
    fn rmat_rejects_bad_probabilities() {
        let refused = |a, b, c| {
            let cfg = RmatConfig {
                a,
                b,
                c,
                ..Default::default()
            };
            matches!(rmat(cfg, 1), Err(GraphError::InvalidParameter(_)))
        };
        assert!(refused(0.6, 0.3, 0.3), "a + b + c > 1");
        assert!(refused(-0.1, 0.6, 0.3), "negative a");
        assert!(refused(0.6, -0.1, 0.3), "negative b");
        assert!(refused(0.6, 0.3, -0.1), "negative c");
        assert!(refused(f64::NAN, 0.2, 0.2), "NaN a");
        assert!(refused(0.2, f64::NAN, 0.2), "NaN b");
        assert!(refused(0.2, 0.2, f64::NAN), "NaN c");
        assert!(refused(1.5, -0.25, -0.25), "a above 1");
        assert!(!refused(0.57, 0.19, 0.19));
        assert!(!refused(1.0, 0.0, 0.0));
        assert!(!refused(0.0, 0.0, 0.0));
    }

    #[test]
    fn erdos_renyi_edge_count_close_to_expectation() {
        let n = 200;
        let p = 0.05;
        let g = erdos_renyi(n, p, 11).unwrap();
        let expected = (n * (n - 1)) as f64 * p;
        let actual = g.num_edges() as f64;
        assert!(
            (actual - expected).abs() < 0.3 * expected,
            "edge count {actual} should be near {expected}"
        );
        assert!(erdos_renyi(10, 1.5, 1).is_err());
    }

    #[test]
    fn bipartite_ratings_structure() {
        let data = bipartite_ratings(50, 20, 10, 4, 17).unwrap();
        assert_eq!(data.num_users, 50);
        assert_eq!(data.num_items, 20);
        assert!(!data.train.is_empty());
        for r in data.train.iter().chain(data.test.iter()) {
            assert!(r.user < 50);
            assert!(r.item >= 50 && r.item < 70);
            assert!((1.0..=5.0).contains(&r.score));
        }
        assert!(bipartite_ratings(0, 1, 1, 1, 1).is_err());
    }

    #[test]
    fn labeled_social_has_expected_labels_and_relations() {
        let g = labeled_social(
            SocialGraphConfig {
                num_persons: 200,
                num_products: 5,
                ..Default::default()
            },
            23,
        )
        .unwrap();
        assert_eq!(g.num_vertices(), 205);
        let mut relations = std::collections::HashSet::new();
        for (_, _, rel) in g.edges() {
            relations.insert(rel.clone());
        }
        assert!(relations.contains("follows"));
        assert!(relations.contains("recommends"));
        let person = g.vertex_data(0).unwrap();
        assert_eq!(person.label.0, "person");
        let product = g.vertex_data(200).unwrap();
        assert_eq!(product.label.0, "product");
        assert!(labeled_social(
            SocialGraphConfig {
                num_persons: 1,
                ..Default::default()
            },
            1
        )
        .is_err());
    }

    #[test]
    fn generators_are_seed_sensitive() {
        let a = barabasi_albert(300, 3, 1).unwrap();
        let b = barabasi_albert(300, 3, 2).unwrap();
        let ea: Vec<_> = a.edges().map(|(s, d, _)| (s, d)).collect();
        let eb: Vec<_> = b.edges().map(|(s, d, _)| (s, d)).collect();
        assert_ne!(ea, eb, "different seeds give different graphs");
    }
}
