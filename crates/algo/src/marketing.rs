//! Social-media marketing with graph-pattern association rules (GPARs) —
//! the application demonstrated in Fig. 4 of the paper.
//!
//! A GPAR `Q(x, y) ⇒ p(x, y)` says: when the topological condition `Q` holds
//! around persons `x` and entity `y`, then `x` is likely to be associated
//! with `y` through predicate `p` (e.g. *buy*). The demo's Example 2 rule is:
//!
//! > if, among the people followed by `x`, at least 80 % recommend the
//! > product and nobody gives it a bad rating, then recommend the product to
//! > `x`.
//!
//! Two layers are provided:
//!
//! * [`Gpar`] — a generic rule (pattern + consequent) whose support and
//!   confidence are computed with the [`crate::subiso`] matcher; used when a
//!   rule is an arbitrary pattern.
//! * [`MarketingProgram`] — a PIE program specialised to the Fig. 4 rule that
//!   scales to large social graphs: PEval computes each person's
//!   recommend/bad-rating status locally, the statuses of border persons are
//!   the update parameters (aggregate = bitwise OR), and IncEval refreshes
//!   the candidate scores of persons whose followees live on other
//!   fragments. The output is the list of potential customers ranked by
//!   confidence, exactly what the demo's result panel shows.

use crate::subiso::sequential_subiso;
use grape_core::{Fragment, PieContext, PieProgram, VertexId};
use grape_graph::labels::{LabeledVertex, PatternGraph};
use grape_graph::{LabeledGraph, VertexDenseMap};
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// Generic GPARs
// ---------------------------------------------------------------------------

/// A graph-pattern association rule `Q(x, y) ⇒ p(x, y)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Gpar {
    /// The antecedent pattern. Pattern vertex `x_index` plays the role of
    /// `x`, `y_index` the role of `y`.
    pub pattern: PatternGraph,
    /// Position of the designated vertex `x` in the pattern.
    pub x_index: usize,
    /// Position of the designated vertex `y` in the pattern.
    pub y_index: usize,
    /// The consequent relation `p` (an edge type such as `"buys"`).
    pub consequent: String,
}

/// Support/confidence measurement of a GPAR on a graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GparStats {
    /// Number of distinct `(x, y)` pairs satisfying the antecedent.
    pub support_q: usize,
    /// Number of those pairs that also satisfy the consequent.
    pub support_pq: usize,
    /// `support_pq / support_q` (0 when the antecedent never holds).
    pub confidence: f64,
}

impl Gpar {
    /// Creates a rule.
    pub fn new(
        pattern: PatternGraph,
        x_index: usize,
        y_index: usize,
        consequent: impl Into<String>,
    ) -> Self {
        Self {
            pattern,
            x_index,
            y_index,
            consequent: consequent.into(),
        }
    }

    /// Evaluates support and confidence of the rule on `graph` using the
    /// sequential SubIso matcher.
    pub fn evaluate(&self, graph: &LabeledGraph) -> GparStats {
        let matches = sequential_subiso(graph, &self.pattern);
        let mut pairs: std::collections::HashSet<(VertexId, VertexId)> =
            std::collections::HashSet::new();
        for m in &matches {
            pairs.insert((m[self.x_index], m[self.y_index]));
        }
        let support_q = pairs.len();
        let support_pq = pairs
            .iter()
            .filter(|(x, y)| {
                graph
                    .out_edges(*x)
                    .any(|(d, rel)| d == *y && rel == &self.consequent)
            })
            .count();
        GparStats {
            support_q,
            support_pq,
            confidence: if support_q == 0 {
                0.0
            } else {
                support_pq as f64 / support_q as f64
            },
        }
    }
}

// ---------------------------------------------------------------------------
// The Fig. 4 marketing query as a PIE program
// ---------------------------------------------------------------------------

/// The marketing query of Example 2.
#[derive(Debug, Clone, PartialEq)]
pub struct MarketingQuery {
    /// The product being promoted.
    pub product: VertexId,
    /// Minimum fraction of followees that must recommend the product.
    pub min_recommend_ratio: f64,
    /// Minimum number of followees for the ratio to be meaningful.
    pub min_followees: usize,
}

impl MarketingQuery {
    /// Creates the Example 2 query (80 % threshold, at least 2 followees).
    pub fn new(product: VertexId) -> Self {
        Self {
            product,
            min_recommend_ratio: 0.8,
            min_followees: 2,
        }
    }
}

/// A potential customer suggested by the rule.
#[derive(Debug, Clone, PartialEq)]
pub struct Prospect {
    /// The person to target.
    pub person: VertexId,
    /// Fraction of their followees recommending the product.
    pub recommend_ratio: f64,
    /// Number of followees considered.
    pub followees: usize,
}

/// Bit flags describing one person's relation to the product.
const FLAG_RECOMMENDS: u8 = 0b001;
const FLAG_RATES_BAD: u8 = 0b010;
const FLAG_BUYS: u8 = 0b100;

fn product_flags(
    graph: &grape_graph::CsrGraph<LabeledVertex, String>,
    person: VertexId,
    product: VertexId,
) -> u8 {
    let mut flags = 0u8;
    for (d, rel) in graph.out_edges(person) {
        if d != product {
            continue;
        }
        match rel.as_str() {
            "recommends" => flags |= FLAG_RECOMMENDS,
            "rates_bad" => flags |= FLAG_RATES_BAD,
            "buys" => flags |= FLAG_BUYS,
            _ => {}
        }
    }
    flags
}

/// Sequential evaluation of the marketing rule — the reference.
pub fn sequential_marketing(graph: &LabeledGraph, query: &MarketingQuery) -> Vec<Prospect> {
    let flags: HashMap<VertexId, u8> = graph
        .vertices()
        .map(|v| (v, product_flags(graph, v, query.product)))
        .collect();
    let mut prospects = Vec::new();
    for x in graph.vertices() {
        let Some(data) = graph.vertex_data(x) else {
            continue;
        };
        if data.label.0 != "person" {
            continue;
        }
        // Skip people who already bought or already dislike the product.
        if flags[&x] & (FLAG_BUYS | FLAG_RATES_BAD) != 0 {
            continue;
        }
        let followees: Vec<VertexId> = graph
            .out_edges(x)
            .filter(|(_, rel)| rel.as_str() == "follows")
            .map(|(d, _)| d)
            .collect();
        if followees.len() < query.min_followees {
            continue;
        }
        let recommends = followees
            .iter()
            .filter(|f| flags.get(f).copied().unwrap_or(0) & FLAG_RECOMMENDS != 0)
            .count();
        let any_bad = followees
            .iter()
            .any(|f| flags.get(f).copied().unwrap_or(0) & FLAG_RATES_BAD != 0);
        let ratio = recommends as f64 / followees.len() as f64;
        if !any_bad && ratio >= query.min_recommend_ratio {
            prospects.push(Prospect {
                person: x,
                recommend_ratio: ratio,
                followees: followees.len(),
            });
        }
    }
    sort_prospects(&mut prospects);
    prospects
}

fn sort_prospects(prospects: &mut [Prospect]) {
    prospects.sort_by(|a, b| {
        b.recommend_ratio
            .partial_cmp(&a.recommend_ratio)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| b.followees.cmp(&a.followees))
            .then_with(|| a.person.cmp(&b.person))
    });
}

/// Per-fragment partial state. The product flags live in a flat per-vertex
/// array keyed by the local graph's dense indices — the rescoring loops over
/// followees never touch a `HashMap`.
#[derive(Debug, Clone, Default)]
pub struct MarketingPartial {
    /// Product flags of every local vertex, keyed by dense index (mirrors
    /// get theirs via messages).
    flags: VertexDenseMap<u8>,
    /// Prospects found among this fragment's inner persons.
    prospects: Vec<Prospect>,
}

/// The marketing PIE program.
#[derive(Debug, Clone, Copy, Default)]
pub struct MarketingProgram;

impl MarketingProgram {
    /// Product flags of the local vertex at dense index `i`, scanned over the
    /// flat CSR neighbour/relation slices.
    fn dense_product_flags(
        graph: &grape_graph::CsrGraph<LabeledVertex, String>,
        i: u32,
        product: Option<u32>,
    ) -> u8 {
        let Some(product) = product else {
            // The product is not in this fragment, so no local edge can
            // reach it.
            return 0;
        };
        let mut flags = 0u8;
        for (&d, rel) in graph
            .out_neighbors_dense(i)
            .iter()
            .zip(graph.out_edge_data_dense(i))
        {
            if d != product {
                continue;
            }
            match rel.as_str() {
                "recommends" => flags |= FLAG_RECOMMENDS,
                "rates_bad" => flags |= FLAG_RATES_BAD,
                "buys" => flags |= FLAG_BUYS,
                _ => {}
            }
        }
        flags
    }

    fn rescore(
        query: &MarketingQuery,
        fragment: &Fragment<LabeledVertex, String>,
        partial: &mut MarketingPartial,
    ) {
        let g = &fragment.graph;
        let mut prospects = Vec::new();
        let mut followees: Vec<u32> = Vec::new();
        for (&x, &xi) in fragment
            .inner_vertices()
            .iter()
            .zip(fragment.inner_dense_indices())
        {
            let Some(data) = g.vertex_data(x) else {
                continue;
            };
            if data.label.0 != "person" {
                continue;
            }
            let own = partial.flags[xi];
            if own & (FLAG_BUYS | FLAG_RATES_BAD) != 0 {
                continue;
            }
            followees.clear();
            followees.extend(
                g.out_neighbors_dense(xi)
                    .iter()
                    .zip(g.out_edge_data_dense(xi))
                    .filter(|(_, rel)| rel.as_str() == "follows")
                    .map(|(&d, _)| d),
            );
            if followees.len() < query.min_followees {
                continue;
            }
            let recommends = followees
                .iter()
                .filter(|&&f| partial.flags[f] & FLAG_RECOMMENDS != 0)
                .count();
            let any_bad = followees
                .iter()
                .any(|&f| partial.flags[f] & FLAG_RATES_BAD != 0);
            let ratio = recommends as f64 / followees.len() as f64;
            if !any_bad && ratio >= query.min_recommend_ratio {
                prospects.push(Prospect {
                    person: x,
                    recommend_ratio: ratio,
                    followees: followees.len(),
                });
            }
        }
        sort_prospects(&mut prospects);
        partial.prospects = prospects;
    }
}

impl PieProgram for MarketingProgram {
    type Query = MarketingQuery;
    type VertexData = LabeledVertex;
    type EdgeData = String;
    type Value = u8;
    type Partial = MarketingPartial;
    type Output = Vec<Prospect>;

    fn peval(
        &self,
        query: &MarketingQuery,
        fragment: &Fragment<LabeledVertex, String>,
        ctx: &mut PieContext<u8>,
    ) -> MarketingPartial {
        let g = &fragment.graph;
        // Product flags of inner vertices are authoritative (every out-edge
        // of an inner vertex is local).
        let mut partial = MarketingPartial {
            flags: VertexDenseMap::for_graph(g, 0),
            prospects: Vec::new(),
        };
        let product = g.dense_index(query.product);
        for &i in fragment.inner_dense_indices() {
            partial.flags[i] = Self::dense_product_flags(g, i, product);
        }
        // Publish the flags of inner border persons so fragments that follow
        // them from afar can score their candidates.
        for (&pos, &i) in fragment
            .mirrored_inner_border_positions()
            .iter()
            .zip(fragment.mirrored_inner_dense_indices())
        {
            ctx.update_at(pos, partial.flags[i]);
        }
        Self::rescore(query, fragment, &mut partial);
        partial
    }

    fn inceval(
        &self,
        query: &MarketingQuery,
        fragment: &Fragment<LabeledVertex, String>,
        partial: &mut MarketingPartial,
        messages: &[(u32, u8)],
        ctx: &mut PieContext<u8>,
    ) {
        let border = fragment.border_dense_indices();
        let mut changed = false;
        for &(pos, flags) in messages {
            // Addressed by border position; only mirror flags can change.
            let i = border[pos as usize];
            if !fragment.is_outer_dense(i) {
                continue;
            }
            let entry = &mut partial.flags[i];
            let merged = *entry | flags;
            if merged != *entry {
                *entry = merged;
                changed = true;
            }
        }
        if !changed {
            return;
        }
        Self::rescore(query, fragment, partial);
        // Flags of inner vertices never change after PEval, so nothing new is
        // published; the ctx is only consulted for completeness.
        let _ = ctx;
    }

    fn assemble(&self, partials: Vec<MarketingPartial>) -> Vec<Prospect> {
        let mut all: Vec<Prospect> = partials.into_iter().flat_map(|p| p.prospects).collect();
        sort_prospects(&mut all);
        all
    }

    fn aggregate(&self, a: &u8, b: &u8) -> u8 {
        a | b
    }

    fn monotonic(&self, old: &u8, new: &u8) -> Option<bool> {
        Some(new & old == *old)
    }

    fn snapshot_partial(&self, partial: &MarketingPartial) -> Option<Vec<u8>> {
        use grape_core::{wire, Wire};
        let mut out = Vec::new();
        wire::encode_seq(partial.flags.as_slice(), &mut out);
        (partial.prospects.len() as u32).encode(&mut out);
        for p in &partial.prospects {
            (p.person, p.recommend_ratio, p.followees).encode(&mut out);
        }
        Some(out)
    }

    fn restore_partial(&self, bytes: &[u8]) -> Option<MarketingPartial> {
        use grape_core::{Wire, WireReader};
        let mut reader = WireReader::new(bytes);
        let flags = Vec::<u8>::decode(&mut reader).ok()?;
        let prospects = Vec::<(VertexId, f64, usize)>::decode(&mut reader)
            .ok()?
            .into_iter()
            .map(|(person, recommend_ratio, followees)| Prospect {
                person,
                recommend_ratio,
                followees,
            })
            .collect();
        reader.finish().ok()?;
        Some(MarketingPartial {
            flags: VertexDenseMap::from_vec(flags),
            prospects,
        })
    }

    fn name(&self) -> &str {
        "gpar-marketing"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grape_core::{EngineConfig, GrapeEngine};
    use grape_graph::generators::{labeled_social, SocialGraphConfig};
    use grape_graph::labels::lv;
    use grape_graph::types::EdgeRecord;
    use grape_partition::BuiltinStrategy;

    /// Build the Fig. 4 scenario by hand: person 0 follows 1, 2, 3; persons
    /// 1-3 all recommend product 100; person 4 follows 5 and 6 but 6 rates
    /// the product badly; person 7 already bought it.
    fn fig4_graph() -> LabeledGraph {
        let vs = vec![
            lv(0, "person", &[]),
            lv(1, "person", &[]),
            lv(2, "person", &[]),
            lv(3, "person", &[]),
            lv(4, "person", &[]),
            lv(5, "person", &[]),
            lv(6, "person", &[]),
            lv(7, "person", &[]),
            lv(100, "product", &["phone"]),
        ];
        let mut es = vec![
            EdgeRecord::new(0, 1, "follows".to_string()),
            EdgeRecord::new(0, 2, "follows".to_string()),
            EdgeRecord::new(0, 3, "follows".to_string()),
            EdgeRecord::new(1, 100, "recommends".to_string()),
            EdgeRecord::new(2, 100, "recommends".to_string()),
            EdgeRecord::new(3, 100, "recommends".to_string()),
            EdgeRecord::new(4, 5, "follows".to_string()),
            EdgeRecord::new(4, 6, "follows".to_string()),
            EdgeRecord::new(5, 100, "recommends".to_string()),
            EdgeRecord::new(6, 100, "rates_bad".to_string()),
            EdgeRecord::new(7, 1, "follows".to_string()),
            EdgeRecord::new(7, 2, "follows".to_string()),
            EdgeRecord::new(7, 100, "buys".to_string()),
        ];
        es.push(EdgeRecord::new(5, 4, "follows".to_string()));
        LabeledGraph::from_records(vs, es, true).unwrap()
    }

    #[test]
    fn sequential_marketing_identifies_the_right_prospect() {
        let g = fig4_graph();
        let prospects = sequential_marketing(&g, &MarketingQuery::new(100));
        // Person 0: 3/3 followees recommend, nobody rates badly -> prospect.
        // Person 4: a followee rates badly -> excluded.
        // Person 7: already bought -> excluded.
        let people: Vec<VertexId> = prospects.iter().map(|p| p.person).collect();
        assert_eq!(people, vec![0]);
        assert!((prospects[0].recommend_ratio - 1.0).abs() < 1e-9);
        assert_eq!(prospects[0].followees, 3);
    }

    #[test]
    fn threshold_and_minimum_followee_count_are_respected() {
        let g = fig4_graph();
        // Raise the bar to 3 followees: person 0 still qualifies.
        let q = MarketingQuery {
            product: 100,
            min_recommend_ratio: 0.8,
            min_followees: 4,
        };
        assert!(sequential_marketing(&g, &q).is_empty());
        // Lower the ratio: person 4 is still excluded because of the bad
        // rating, not the ratio.
        let q = MarketingQuery {
            product: 100,
            min_recommend_ratio: 0.1,
            min_followees: 1,
        };
        let people: Vec<VertexId> = sequential_marketing(&g, &q)
            .iter()
            .map(|p| p.person)
            .collect();
        assert!(people.contains(&0));
        assert!(!people.contains(&4));
        assert!(!people.contains(&7));
    }

    #[test]
    fn pie_marketing_matches_sequential_on_generated_social_graph() {
        let g = labeled_social(
            SocialGraphConfig {
                num_persons: 400,
                num_products: 6,
                recommend_prob: 0.5,
                bad_rating_prob: 0.03,
                ..Default::default()
            },
            55,
        )
        .unwrap();
        let product = 400; // first product vertex
        let query = MarketingQuery {
            product,
            min_recommend_ratio: 0.6,
            min_followees: 2,
        };
        let reference = sequential_marketing(&g, &query);
        for strategy in [BuiltinStrategy::Hash, BuiltinStrategy::MetisLike] {
            let assignment = strategy.partition(&g, 4);
            let engine = GrapeEngine::new(MarketingProgram).with_config(EngineConfig {
                check_monotonicity: true,
                ..Default::default()
            });
            let result = engine.run_on_graph(&query, &g, &assignment).unwrap();
            assert_eq!(
                result.output, reference,
                "strategy {strategy:?} must reproduce the sequential prospect list"
            );
            assert_eq!(result.stats.monotonicity_violations, 0);
        }
    }

    #[test]
    fn pie_marketing_needs_at_most_two_evaluation_rounds() {
        let g = labeled_social(
            SocialGraphConfig {
                num_persons: 200,
                num_products: 4,
                ..Default::default()
            },
            77,
        )
        .unwrap();
        let query = MarketingQuery::new(200);
        let assignment = BuiltinStrategy::Hash.partition(&g, 8);
        let result = GrapeEngine::new(MarketingProgram)
            .run_on_graph(&query, &g, &assignment)
            .unwrap();
        // PEval + one IncEval round with the mirror statuses + quiescence.
        assert!(result.stats.supersteps <= 3);
    }

    #[test]
    fn gpar_confidence_on_fig4_graph() {
        let g = fig4_graph();
        // Antecedent: person follows someone who recommends the product.
        let pattern = PatternGraph::new(vec!["person".into(), "person".into(), "product".into()])
            .edge_labeled(0, 1, "follows")
            .edge_labeled(1, 2, "recommends");
        let rule = Gpar::new(pattern, 0, 2, "buys");
        let stats = rule.evaluate(&g);
        // (x, y) pairs satisfying the antecedent: x in {0, 4, 5?, 7}: 0 and 7
        // follow recommenders of 100; 4 follows 5 who recommends 100.
        assert_eq!(stats.support_q, 3);
        // Only person 7 actually bought the product.
        assert_eq!(stats.support_pq, 1);
        assert!((stats.confidence - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn gpar_with_unsatisfied_antecedent_has_zero_confidence() {
        let g = fig4_graph();
        let pattern = PatternGraph::new(vec!["person".into(), "robot".into()]).edge(0, 1);
        let rule = Gpar::new(pattern, 0, 1, "buys");
        let stats = rule.evaluate(&g);
        assert_eq!(stats.support_q, 0);
        assert_eq!(stats.confidence, 0.0);
    }

    #[test]
    fn program_declarations() {
        let p = MarketingProgram;
        assert_eq!(p.aggregate(&0b001, &0b010), 0b011);
        assert_eq!(p.monotonic(&0b001, &0b011), Some(true));
        assert_eq!(p.monotonic(&0b011, &0b001), Some(false));
        assert_eq!(p.name(), "gpar-marketing");
        let q = MarketingQuery::new(5);
        assert_eq!(q.product, 5);
        assert!((q.min_recommend_ratio - 0.8).abs() < 1e-9);
    }
}
