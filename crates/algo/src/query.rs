//! The typed query surface of the service mode: one [`Query`] value per
//! supported query class, wire-encodable so a session can submit it to
//! resident workers, plus the matching [`QueryResult`] sum type and the
//! order-independent result digests the bit-identity contracts pin.
//!
//! Historically the canonical query parameters (the Fig. 4 simulation
//! pattern, the `subiso` star, the keyword terms, CF's smoke-test
//! rank/epochs) were hardcoded inside `grape-worker`'s job constructors.
//! They live here now: [`Query`] *is* the parameter set, shipped on the
//! wire, and both endpoints of a service session derive their typed program
//! queries from the same decoded value instead of re-hardcoding constants.

use crate::{
    CcProgram, CcQuery, CfModel, CfProgram, CfQuery, Embeddings, KeywordAnswer, KeywordProgram,
    KeywordQuery, MarketingProgram, MarketingQuery, PageRankProgram, PageRankQuery, Prospect,
    SimMatches, SimProgram, SimQuery, SimQueryError, SsspProgram, SsspQuery, SubIsoProgram,
    SubIsoQuery,
};
use grape_core::{Fragment, PieProgram, VertexId, Wire, WireError, WireReader};
use grape_graph::labels::{LabeledVertex, PatternGraph, VertexLabel};
use std::collections::HashMap;
use std::io;
use std::sync::Arc;

/// The eight query classes the engine serves, as a plain enum for grouping,
/// dispatch and batch admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryClass {
    /// Single-source shortest paths (weighted graphs).
    Sssp,
    /// Connected components (weighted graphs).
    Cc,
    /// PageRank (weighted graphs).
    PageRank,
    /// Collaborative filtering by matrix factorization (weighted graphs).
    Cf,
    /// Graph-pattern matching by simulation (labeled graphs).
    Sim,
    /// Subgraph isomorphism (labeled graphs).
    SubIso,
    /// Distance-bounded keyword search (labeled graphs).
    Keyword,
    /// GPAR-based social media marketing (labeled graphs).
    Marketing,
}

impl QueryClass {
    /// Every query class, in canonical order.
    pub fn all() -> [QueryClass; 8] {
        [
            QueryClass::Sssp,
            QueryClass::Cc,
            QueryClass::PageRank,
            QueryClass::Cf,
            QueryClass::Sim,
            QueryClass::SubIso,
            QueryClass::Keyword,
            QueryClass::Marketing,
        ]
    }

    /// The class's stable name (`sssp`, `cc`, …), as used by job specs and
    /// the CLI.
    pub fn name(&self) -> &'static str {
        match self {
            QueryClass::Sssp => "sssp",
            QueryClass::Cc => "cc",
            QueryClass::PageRank => "pagerank",
            QueryClass::Cf => "cf",
            QueryClass::Sim => "sim",
            QueryClass::SubIso => "subiso",
            QueryClass::Keyword => "keyword",
            QueryClass::Marketing => "marketing",
        }
    }

    /// Parses a stable class name back to the class.
    pub fn parse(name: &str) -> Option<QueryClass> {
        QueryClass::all().into_iter().find(|c| c.name() == name)
    }

    /// Whether the class runs on a labeled social graph (`true`) or a
    /// weighted graph (`false`).
    pub fn is_labeled(&self) -> bool {
        matches!(
            self,
            QueryClass::Sim | QueryClass::SubIso | QueryClass::Keyword | QueryClass::Marketing
        )
    }
}

/// A typed query against a loaded graph: the complete parameter set of one
/// query-class invocation, self-contained and wire-encodable.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// Shortest paths from `source`.
    Sssp {
        /// The source vertex (global id).
        source: VertexId,
    },
    /// Connected components (no parameters).
    Cc,
    /// PageRank with explicit convergence knobs.
    PageRank {
        /// Damping factor.
        damping: f64,
        /// Maximum local power-iteration sweeps per PEval/IncEval call.
        max_local_iterations: usize,
        /// Convergence tolerance.
        tolerance: f64,
    },
    /// Collaborative filtering by SGD matrix factorization.
    Cf {
        /// Latent factor dimensionality.
        rank: usize,
        /// SGD epochs.
        epochs: usize,
        /// SGD learning rate.
        learning_rate: f64,
        /// L2 regularization weight.
        regularization: f64,
    },
    /// Pattern matching by simulation.
    Sim {
        /// The pattern to match.
        pattern: PatternGraph,
    },
    /// Subgraph isomorphism.
    SubIso {
        /// The pattern to embed; vertex 0 is the pivot.
        pattern: PatternGraph,
        /// Per-fragment cap on materialized embeddings.
        max_matches: usize,
    },
    /// Distance-bounded keyword search.
    Keyword {
        /// Keywords that must all be reachable.
        terms: Vec<String>,
        /// Maximum total distance (sum over keywords) for a root to qualify.
        bound: f64,
    },
    /// GPAR-based social media marketing.
    Marketing {
        /// The promoted product.
        product: VertexId,
        /// Minimum fraction of followees that must recommend the product.
        min_recommend_ratio: f64,
        /// Minimum number of followees for the ratio to be meaningful.
        min_followees: usize,
    },
}

impl Query {
    /// Shortest paths from `source`.
    pub fn sssp(source: VertexId) -> Query {
        Query::Sssp { source }
    }

    /// Connected components.
    pub fn cc() -> Query {
        Query::Cc
    }

    /// PageRank with the default knobs ([`PageRankQuery::default`]).
    pub fn pagerank() -> Query {
        let q = PageRankQuery::default();
        Query::PageRank {
            damping: q.damping,
            max_local_iterations: q.max_local_iterations,
            tolerance: q.tolerance,
        }
    }

    /// The canonical CF query of the drills and benches: rank 4, 4 epochs,
    /// default learning rate and regularization.
    pub fn cf() -> Query {
        let q = CfQuery {
            rank: 4,
            epochs: 4,
            ..Default::default()
        };
        Query::Cf {
            rank: q.rank,
            epochs: q.epochs,
            learning_rate: q.learning_rate,
            regularization: q.regularization,
        }
    }

    /// Simulation matching of `pattern` (validated when the query runs).
    pub fn sim(pattern: PatternGraph) -> Query {
        Query::Sim { pattern }
    }

    /// The canonical simulation pattern — the chain of Fig. 4:
    /// person →`follows` person →`recommends` product.
    pub fn canonical_sim() -> Query {
        Query::sim(
            PatternGraph::new(vec!["person".into(), "person".into(), "product".into()])
                .edge_labeled(0, 1, "follows")
                .edge_labeled(1, 2, "recommends"),
        )
    }

    /// Subgraph isomorphism of `pattern` with no embedding cap.
    pub fn subiso(pattern: PatternGraph) -> Query {
        Query::SubIso {
            pattern,
            max_matches: usize::MAX,
        }
    }

    /// The canonical subgraph-isomorphism pattern: a radius-1 star (with
    /// radius ≥ 2 the protocol would replicate whole 2-hop neighbourhoods of
    /// a hubby social graph per border vertex).
    pub fn canonical_subiso() -> Query {
        Query::subiso(
            PatternGraph::new(vec!["person".into(), "person".into(), "product".into()])
                .edge_labeled(0, 1, "follows")
                .edge_labeled(0, 2, "recommends"),
        )
    }

    /// Keyword search for `terms` within total distance `bound`.
    pub fn keyword(terms: impl IntoIterator<Item = impl Into<String>>, bound: f64) -> Query {
        Query::Keyword {
            terms: terms.into_iter().map(Into::into).collect(),
            bound,
        }
    }

    /// The canonical keyword query of the drills: `phone` + `laptop`,
    /// unbounded total distance.
    pub fn canonical_keyword() -> Query {
        Query::keyword(["phone", "laptop"], f64::INFINITY)
    }

    /// Marketing prospects for `product` with the Example 2 thresholds
    /// (80 % recommend ratio, at least 2 followees).
    pub fn marketing(product: VertexId) -> Query {
        let q = MarketingQuery::new(product);
        Query::Marketing {
            product: q.product,
            min_recommend_ratio: q.min_recommend_ratio,
            min_followees: q.min_followees,
        }
    }

    /// The canonical query of `class`, as the batch CLI and the drills run
    /// it: `anchor` is the SSSP source or the promoted product of
    /// `marketing`; every other class takes no vertex.
    pub fn canonical(class: QueryClass, anchor: VertexId) -> Query {
        match class {
            QueryClass::Sssp => Query::sssp(anchor),
            QueryClass::Cc => Query::cc(),
            QueryClass::PageRank => Query::pagerank(),
            QueryClass::Cf => Query::cf(),
            QueryClass::Sim => Query::canonical_sim(),
            QueryClass::SubIso => Query::canonical_subiso(),
            QueryClass::Keyword => Query::canonical_keyword(),
            QueryClass::Marketing => Query::marketing(anchor),
        }
    }

    /// The query's class.
    pub fn class(&self) -> QueryClass {
        match self {
            Query::Sssp { .. } => QueryClass::Sssp,
            Query::Cc => QueryClass::Cc,
            Query::PageRank { .. } => QueryClass::PageRank,
            Query::Cf { .. } => QueryClass::Cf,
            Query::Sim { .. } => QueryClass::Sim,
            Query::SubIso { .. } => QueryClass::SubIso,
            Query::Keyword { .. } => QueryClass::Keyword,
            Query::Marketing { .. } => QueryClass::Marketing,
        }
    }

    /// The typed [`SsspQuery`] this query describes, if it is one.
    pub fn to_sssp(&self) -> Option<SsspQuery> {
        match self {
            Query::Sssp { source } => Some(SsspQuery::new(*source)),
            _ => None,
        }
    }

    /// The typed [`PageRankQuery`] this query describes, if it is one.
    pub fn to_pagerank(&self) -> Option<PageRankQuery> {
        match self {
            Query::PageRank {
                damping,
                max_local_iterations,
                tolerance,
            } => Some(PageRankQuery {
                damping: *damping,
                max_local_iterations: *max_local_iterations,
                tolerance: *tolerance,
            }),
            _ => None,
        }
    }

    /// The typed [`CfQuery`] this query describes, if it is one.
    pub fn to_cf(&self) -> Option<CfQuery> {
        match self {
            Query::Cf {
                rank,
                epochs,
                learning_rate,
                regularization,
            } => Some(CfQuery {
                rank: *rank,
                epochs: *epochs,
                learning_rate: *learning_rate,
                regularization: *regularization,
            }),
            _ => None,
        }
    }

    /// The typed [`SimQuery`] this query describes, if it is one (pattern
    /// validation happens here).
    pub fn to_sim(&self) -> Option<Result<SimQuery, SimQueryError>> {
        match self {
            Query::Sim { pattern } => Some(SimQuery::try_new(pattern.clone())),
            _ => None,
        }
    }

    /// The typed [`SubIsoQuery`] this query describes, if it is one.
    pub fn to_subiso(&self) -> Option<SubIsoQuery> {
        match self {
            Query::SubIso {
                pattern,
                max_matches,
            } => Some(SubIsoQuery {
                pattern: pattern.clone(),
                max_matches: *max_matches,
            }),
            _ => None,
        }
    }

    /// The typed [`KeywordQuery`] this query describes, if it is one.
    pub fn to_keyword(&self) -> Option<KeywordQuery> {
        match self {
            Query::Keyword { terms, bound } => Some(KeywordQuery::new(terms.clone(), *bound)),
            _ => None,
        }
    }

    /// The typed [`MarketingQuery`] this query describes, if it is one.
    pub fn to_marketing(&self) -> Option<MarketingQuery> {
        match self {
            Query::Marketing {
                product,
                min_recommend_ratio,
                min_followees,
            } => Some(MarketingQuery {
                product: *product,
                min_recommend_ratio: *min_recommend_ratio,
                min_followees: *min_followees,
            }),
            _ => None,
        }
    }
}

fn encode_pattern(pattern: &PatternGraph, out: &mut Vec<u8>) {
    (pattern.labels.len() as u32).encode(out);
    for label in &pattern.labels {
        label.0.encode(out);
    }
    (pattern.edges.len() as u32).encode(out);
    for (from, to, relation) in &pattern.edges {
        (*from as u32).encode(out);
        (*to as u32).encode(out);
        relation.encode(out);
    }
}

fn decode_pattern(reader: &mut WireReader<'_>) -> Result<PatternGraph, WireError> {
    let n = reader.u32()? as usize;
    let mut labels: Vec<VertexLabel> = Vec::with_capacity(n.min(1024));
    for _ in 0..n {
        labels.push(VertexLabel(String::decode(reader)?));
    }
    let m = reader.u32()? as usize;
    let mut pattern = PatternGraph::new(labels);
    for _ in 0..m {
        let from = reader.u32()? as usize;
        let to = reader.u32()? as usize;
        let relation = Option::<String>::decode(reader)?;
        pattern.edges.push((from, to, relation));
    }
    Ok(pattern)
}

impl Wire for Query {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Query::Sssp { source } => {
                0u8.encode(out);
                source.encode(out);
            }
            Query::Cc => 1u8.encode(out),
            Query::PageRank {
                damping,
                max_local_iterations,
                tolerance,
            } => {
                2u8.encode(out);
                damping.encode(out);
                (*max_local_iterations as u64).encode(out);
                tolerance.encode(out);
            }
            Query::Cf {
                rank,
                epochs,
                learning_rate,
                regularization,
            } => {
                3u8.encode(out);
                (*rank as u64).encode(out);
                (*epochs as u64).encode(out);
                learning_rate.encode(out);
                regularization.encode(out);
            }
            Query::Sim { pattern } => {
                4u8.encode(out);
                encode_pattern(pattern, out);
            }
            Query::SubIso {
                pattern,
                max_matches,
            } => {
                5u8.encode(out);
                encode_pattern(pattern, out);
                (*max_matches as u64).encode(out);
            }
            Query::Keyword { terms, bound } => {
                6u8.encode(out);
                terms.encode(out);
                bound.encode(out);
            }
            Query::Marketing {
                product,
                min_recommend_ratio,
                min_followees,
            } => {
                7u8.encode(out);
                product.encode(out);
                min_recommend_ratio.encode(out);
                (*min_followees as u64).encode(out);
            }
        }
    }

    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        match reader.u8()? {
            0 => Ok(Query::Sssp {
                source: reader.u64()?,
            }),
            1 => Ok(Query::Cc),
            2 => Ok(Query::PageRank {
                damping: reader.f64()?,
                max_local_iterations: reader.u64()? as usize,
                tolerance: reader.f64()?,
            }),
            3 => Ok(Query::Cf {
                rank: reader.u64()? as usize,
                epochs: reader.u64()? as usize,
                learning_rate: reader.f64()?,
                regularization: reader.f64()?,
            }),
            4 => Ok(Query::Sim {
                pattern: decode_pattern(reader)?,
            }),
            5 => Ok(Query::SubIso {
                pattern: decode_pattern(reader)?,
                max_matches: reader.u64()? as usize,
            }),
            6 => Ok(Query::Keyword {
                terms: Vec::<String>::decode(reader)?,
                bound: reader.f64()?,
            }),
            7 => Ok(Query::Marketing {
                product: reader.u64()?,
                min_recommend_ratio: reader.f64()?,
                min_followees: reader.u64()? as usize,
            }),
            other => Err(WireError::BadTag { found: other }),
        }
    }
}

// ---------------------------------------------------------------------------
// Class dispatch
// ---------------------------------------------------------------------------

/// The fragments of one loaded graph, in whichever of the two payload
/// families it carries.
#[derive(Clone, Copy)]
pub enum FamilyFragments<'a> {
    /// Unit vertices, `f64` edge weights: `sssp`, `cc`, `pagerank`, `cf`.
    Weighted(&'a [Arc<Fragment<(), f64>>]),
    /// Labeled vertices, relation-typed edges: `sim`, `subiso`, `keyword`,
    /// `marketing`.
    Labeled(&'a [Arc<Fragment<LabeledVertex, String>>]),
}

/// What a caller does with a [`Query`] once [`dispatch`] has resolved it to
/// its PIE program: one generic method instead of a `match` per caller.
pub trait ClassVisitor {
    /// What the visit produces.
    type Out;

    /// Called exactly once, with the class's program, its typed query, the
    /// [`QueryResult`] constructor for its output, and the fragments in the
    /// program's payload family.
    fn visit<P>(
        self,
        program: P,
        query: P::Query,
        wrap: impl Fn(P::Output) -> QueryResult,
        fragments: &[Arc<Fragment<P::VertexData, P::EdgeData>>],
    ) -> io::Result<Self::Out>
    where
        P: PieProgram,
        P::VertexData: Wire,
        P::EdgeData: Wire;
}

/// CF's user/item split on a generic weighted graph: the lower half of the
/// id space plays the users.
fn cf_num_users(vertices: u64) -> usize {
    ((vertices / 2) as usize).max(1)
}

/// The one mapping from a [`Query`] to its PIE program: resolves `query`
/// against a graph of `vertices` global vertices and hands the program, the
/// typed query and the result constructor to `visitor`. A query of the other
/// payload family than `fragments`, or an invalid simulation pattern, is an
/// `InvalidData` error raised before the visitor runs.
pub fn dispatch<T: ClassVisitor>(
    query: &Query,
    vertices: u64,
    fragments: FamilyFragments<'_>,
    visitor: T,
) -> io::Result<T::Out> {
    use FamilyFragments::{Labeled, Weighted};
    let typed = "the arm matched the query's class";
    match (query.class(), fragments) {
        (QueryClass::Sssp, Weighted(f)) => visitor.visit(
            SsspProgram,
            query.to_sssp().expect(typed),
            QueryResult::Distances,
            f,
        ),
        (QueryClass::Cc, Weighted(f)) => {
            visitor.visit(CcProgram, CcQuery, QueryResult::Components, f)
        }
        (QueryClass::PageRank, Weighted(f)) => visitor.visit(
            PageRankProgram::new(vertices as usize),
            query.to_pagerank().expect(typed),
            QueryResult::Ranks,
            f,
        ),
        (QueryClass::Cf, Weighted(f)) => visitor.visit(
            CfProgram::new(cf_num_users(vertices)),
            query.to_cf().expect(typed),
            QueryResult::Model,
            f,
        ),
        (QueryClass::Sim, Labeled(f)) => {
            let sim = query.to_sim().expect(typed).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("invalid simulation pattern: {e}"),
                )
            })?;
            visitor.visit(SimProgram, sim, QueryResult::Matches, f)
        }
        (QueryClass::SubIso, Labeled(f)) => visitor.visit(
            SubIsoProgram,
            query.to_subiso().expect(typed),
            QueryResult::Embeddings,
            f,
        ),
        (QueryClass::Keyword, Labeled(f)) => visitor.visit(
            KeywordProgram,
            query.to_keyword().expect(typed),
            QueryResult::Answers,
            f,
        ),
        (QueryClass::Marketing, Labeled(f)) => visitor.visit(
            MarketingProgram,
            query.to_marketing().expect(typed),
            QueryResult::Prospects,
            f,
        ),
        (class, fragments) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "query class {} does not run on the loaded graph family ({})",
                class.name(),
                match fragments {
                    Weighted(_) => "weighted",
                    Labeled(_) => "labeled",
                }
            ),
        )),
    }
}

/// The typed answer of one [`Query`], one variant per query class.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryResult {
    /// `sssp`: distance from the source per reachable vertex.
    Distances(HashMap<VertexId, f64>),
    /// `cc`: smallest-id representative per vertex.
    Components(HashMap<VertexId, VertexId>),
    /// `pagerank`: rank per vertex.
    Ranks(HashMap<VertexId, f64>),
    /// `cf`: the learned factor model.
    Model(CfModel),
    /// `sim`: per-pattern-vertex match sets.
    Matches(SimMatches),
    /// `subiso`: the embeddings found.
    Embeddings(Embeddings),
    /// `keyword`: ranked answers.
    Answers(Vec<KeywordAnswer>),
    /// `marketing`: the prospect list.
    Prospects(Vec<Prospect>),
}

impl QueryResult {
    /// The class that produced this result.
    pub fn class(&self) -> QueryClass {
        match self {
            QueryResult::Distances(_) => QueryClass::Sssp,
            QueryResult::Components(_) => QueryClass::Cc,
            QueryResult::Ranks(_) => QueryClass::PageRank,
            QueryResult::Model(_) => QueryClass::Cf,
            QueryResult::Matches(_) => QueryClass::Sim,
            QueryResult::Embeddings(_) => QueryClass::SubIso,
            QueryResult::Answers(_) => QueryClass::Keyword,
            QueryResult::Prospects(_) => QueryClass::Marketing,
        }
    }

    /// Order-independent digest of the full result, bit-exact on every
    /// value — the quantity the service-vs-cold identity contracts pin.
    pub fn digest(&self) -> u64 {
        match self {
            QueryResult::Distances(map) => digest_f64_map(map),
            QueryResult::Components(map) => digest_u64_map(map),
            QueryResult::Ranks(map) => digest_f64_map(map),
            QueryResult::Model(model) => digest_cf(model),
            QueryResult::Matches(matches) => digest_sim(matches),
            QueryResult::Embeddings(embeddings) => digest_embeddings(embeddings),
            QueryResult::Answers(answers) => digest_keyword(answers),
            QueryResult::Prospects(prospects) => digest_prospects(prospects),
        }
    }
}

// ---------------------------------------------------------------------------
// Result digests
// ---------------------------------------------------------------------------

/// Order-independent FNV-1a digest over canonically encoded items: XOR of
/// per-item hashes, so iteration order (HashMap, HashSet, process) cannot
/// leak in, while every bit of every item still matters.
fn digest_items<T: Wire>(items: impl Iterator<Item = T>) -> u64 {
    let mut acc = 0u64;
    for item in items {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in item.encode_to_vec() {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        acc ^= h;
    }
    acc
}

/// Digest of a vertex→`f64` result map (bit-exact on the values).
pub fn digest_f64_map(map: &HashMap<VertexId, f64>) -> u64 {
    digest_items(map.iter().map(|(&k, &v)| (k, v.to_bits())))
}

/// Digest of a vertex→vertex result map.
pub fn digest_u64_map(map: &HashMap<VertexId, VertexId>) -> u64 {
    digest_items(map.iter().map(|(&k, &v)| (k, v)))
}

/// Digest of a simulation match relation: every `(pattern vertex, data
/// vertex)` pair, independent of set order.
pub fn digest_sim(matches: &SimMatches) -> u64 {
    digest_items(
        matches
            .iter()
            .enumerate()
            .flat_map(|(u, bucket)| bucket.iter().map(move |&v| (u as u64, v))),
    )
}

/// Digest of a set of subgraph-isomorphism embeddings.
pub fn digest_embeddings(embeddings: &Embeddings) -> u64 {
    digest_items(embeddings.iter().cloned())
}

/// Digest of ranked keyword-search answers (roots, per-keyword distances
/// and totals, all bit-exact).
pub fn digest_keyword(answers: &[KeywordAnswer]) -> u64 {
    digest_items(
        answers
            .iter()
            .map(|a| (a.root, a.distances.clone(), a.total)),
    )
}

/// Digest of a collaborative-filtering model: every factor vector, bit-exact.
pub fn digest_cf(model: &CfModel) -> u64 {
    digest_items(model.factors.iter().map(|(&v, f)| (v, f.clone())))
}

/// Digest of the marketing prospects list.
pub fn digest_prospects(prospects: &[Prospect]) -> u64 {
    digest_items(
        prospects
            .iter()
            .map(|p| (p.person, p.recommend_ratio, p.followees)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queries_roundtrip_on_the_wire() {
        let queries = [
            Query::sssp(42),
            Query::cc(),
            Query::pagerank(),
            Query::cf(),
            Query::canonical_sim(),
            Query::canonical_subiso(),
            Query::canonical_keyword(),
            Query::keyword(["phone"], 12.5),
            Query::marketing(17),
            Query::Sim {
                pattern: PatternGraph::new(vec!["a".into(), "b".into()]).edge(0, 1),
            },
        ];
        for query in queries {
            let bytes = query.encode_to_vec();
            let mut reader = WireReader::new(&bytes);
            let decoded = Query::decode(&mut reader).unwrap();
            reader.finish().unwrap();
            assert_eq!(decoded, query);
        }
    }

    #[test]
    fn classes_have_stable_names_and_families() {
        for class in QueryClass::all() {
            assert_eq!(QueryClass::parse(class.name()), Some(class));
        }
        assert!(!QueryClass::Sssp.is_labeled());
        assert!(!QueryClass::Cf.is_labeled());
        assert!(QueryClass::Sim.is_labeled());
        assert!(QueryClass::Marketing.is_labeled());
        assert_eq!(Query::canonical_keyword().class(), QueryClass::Keyword);
    }

    #[test]
    fn typed_extraction_matches_the_historical_constructors() {
        // The canonical constructors must reproduce the exact parameter sets
        // the pre-service job constructors hardcoded, or cold-vs-service
        // bit-identity would silently compare different queries.
        let sim = Query::canonical_sim().to_sim().unwrap().unwrap();
        assert_eq!(sim.pattern.num_vertices(), 3);
        assert_eq!(sim.pattern.edges[0], (0, 1, Some("follows".into())));
        assert_eq!(sim.pattern.edges[1], (1, 2, Some("recommends".into())));

        let subiso = Query::canonical_subiso().to_subiso().unwrap();
        assert_eq!(subiso.pattern.edges[0], (0, 1, Some("follows".into())));
        assert_eq!(subiso.pattern.edges[1], (0, 2, Some("recommends".into())));
        assert_eq!(subiso.max_matches, usize::MAX);

        let keyword = Query::canonical_keyword().to_keyword().unwrap();
        assert_eq!(keyword.keywords, vec!["phone", "laptop"]);
        assert_eq!(keyword.max_total_distance, f64::INFINITY);

        let cf = Query::cf().to_cf().unwrap();
        assert_eq!((cf.rank, cf.epochs), (4, 4));
        let defaults = CfQuery::default();
        assert_eq!(cf.learning_rate, defaults.learning_rate);
        assert_eq!(cf.regularization, defaults.regularization);

        let pr = Query::pagerank().to_pagerank().unwrap();
        let defaults = PageRankQuery::default();
        assert_eq!(pr.damping, defaults.damping);
        assert_eq!(pr.tolerance, defaults.tolerance);

        let marketing = Query::marketing(9).to_marketing().unwrap();
        let reference = MarketingQuery::new(9);
        assert_eq!(marketing.product, reference.product);
        assert_eq!(marketing.min_recommend_ratio, reference.min_recommend_ratio);
        assert_eq!(marketing.min_followees, reference.min_followees);
    }

    #[test]
    fn digests_are_order_independent_and_value_sensitive() {
        let mut a = HashMap::new();
        a.insert(1u64, 1.5f64);
        a.insert(2, 2.5);
        let mut b = HashMap::new();
        b.insert(2u64, 2.5f64);
        b.insert(1, 1.5);
        assert_eq!(digest_f64_map(&a), digest_f64_map(&b));
        b.insert(1, 1.5000001);
        assert_ne!(digest_f64_map(&a), digest_f64_map(&b));
        assert_eq!(
            QueryResult::Distances(a.clone()).digest(),
            digest_f64_map(&a)
        );
    }
}
