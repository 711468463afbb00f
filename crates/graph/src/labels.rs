//! Labeled property graphs for pattern matching, keyword search and GPARs.
//!
//! The pattern-matching query classes of the paper (graph simulation,
//! subgraph isomorphism, keyword search and the GPAR-based social-media
//! marketing use case) operate on graphs whose vertices carry a label (e.g.
//! `"person"`, `"product"`) and a small set of keyword attributes, and whose
//! edges carry a relation type (e.g. `"follows"`, `"recommends"`). This
//! module provides that instantiation of [`CsrGraph`] plus the pattern-graph
//! type used as queries.

use crate::csr::CsrGraph;
use crate::types::{GraphError, VertexId};
use grape_comm::wire::{Wire, WireError, WireReader};

/// A vertex label: an interned small string such as `"person"`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct VertexLabel(pub String);

impl From<&str> for VertexLabel {
    fn from(s: &str) -> Self {
        VertexLabel(s.to_string())
    }
}

impl std::fmt::Display for VertexLabel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Per-vertex payload of a labeled graph: a label plus keyword attributes.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LabeledVertex {
    /// The type label of the vertex (`person`, `product`, …).
    pub label: VertexLabel,
    /// Keyword attributes attached to the vertex, used by keyword search.
    pub keywords: Vec<String>,
}

impl LabeledVertex {
    /// Creates a labeled vertex without keywords.
    pub fn new(label: impl Into<VertexLabel>) -> Self {
        Self {
            label: label.into(),
            keywords: Vec::new(),
        }
    }

    /// Creates a labeled vertex with keywords.
    pub fn with_keywords(
        label: impl Into<VertexLabel>,
        keywords: impl IntoIterator<Item = impl Into<String>>,
    ) -> Self {
        Self {
            label: label.into(),
            keywords: keywords.into_iter().map(Into::into).collect(),
        }
    }

    /// Whether the vertex carries the given keyword.
    pub fn has_keyword(&self, kw: &str) -> bool {
        self.keywords.iter().any(|k| k == kw)
    }
}

impl Wire for VertexLabel {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out)
    }

    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(VertexLabel(String::decode(reader)?))
    }
}

// Labeled vertices ship over the fragment-placement codec exactly like the
// numeric payloads of the traversal classes, so the pattern-matching query
// classes run multi-process too.
impl Wire for LabeledVertex {
    fn encode(&self, out: &mut Vec<u8>) {
        self.label.encode(out);
        self.keywords.encode(out);
    }

    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            label: VertexLabel::decode(reader)?,
            keywords: Vec::<String>::decode(reader)?,
        })
    }
}

/// Edge payload of a labeled graph: a relation type.
pub type EdgeRelation = String;

/// Labeled property graph: vertices carry [`LabeledVertex`], edges carry a
/// relation-type string.
pub type LabeledGraph = CsrGraph<LabeledVertex, EdgeRelation>;

/// A small pattern graph used as a query by graph simulation, subgraph
/// isomorphism and GPARs.
///
/// Pattern vertices are numbered `0..n` and carry a label predicate; pattern
/// edges optionally constrain the relation type.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternGraph {
    /// Label required at each pattern vertex, indexed by pattern-vertex id.
    pub labels: Vec<VertexLabel>,
    /// Directed pattern edges `(from, to, relation)`; `None` relation matches
    /// any edge.
    pub edges: Vec<(usize, usize, Option<String>)>,
}

impl PatternGraph {
    /// Creates a pattern with the given vertex labels and no edges.
    pub fn new(labels: Vec<VertexLabel>) -> Self {
        Self {
            labels,
            edges: Vec::new(),
        }
    }

    /// Adds a pattern edge that matches any relation type.
    pub fn edge(mut self, from: usize, to: usize) -> Self {
        self.edges.push((from, to, None));
        self
    }

    /// Adds a pattern edge that requires a specific relation type.
    pub fn edge_labeled(mut self, from: usize, to: usize, relation: impl Into<String>) -> Self {
        self.edges.push((from, to, Some(relation.into())));
        self
    }

    /// Number of pattern vertices.
    pub fn num_vertices(&self) -> usize {
        self.labels.len()
    }

    /// Number of pattern edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Out-neighbours of a pattern vertex: `(to, relation)`.
    pub fn out_edges(&self, from: usize) -> impl Iterator<Item = (usize, Option<&str>)> + '_ {
        self.edges
            .iter()
            .filter(move |(f, _, _)| *f == from)
            .map(|(_, t, r)| (*t, r.as_deref()))
    }

    /// In-neighbours of a pattern vertex: `(from, relation)`.
    pub fn in_edges(&self, to: usize) -> impl Iterator<Item = (usize, Option<&str>)> + '_ {
        self.edges
            .iter()
            .filter(move |(_, t, _)| *t == to)
            .map(|(f, _, r)| (*f, r.as_deref()))
    }

    /// Validates that every edge endpoint names an existing pattern vertex.
    pub fn validate(&self) -> Result<(), GraphError> {
        for (f, t, _) in &self.edges {
            if *f >= self.labels.len() || *t >= self.labels.len() {
                return Err(GraphError::InvalidParameter(format!(
                    "pattern edge ({f},{t}) references a missing pattern vertex"
                )));
            }
        }
        Ok(())
    }

    /// The radius of the pattern from vertex 0 treating edges as undirected:
    /// used by distributed SubIso to decide how many hops of replication a
    /// fragment needs.
    pub fn radius(&self) -> usize {
        let n = self.num_vertices();
        if n == 0 {
            return 0;
        }
        let mut dist = vec![usize::MAX; n];
        dist[0] = 0;
        let mut queue = std::collections::VecDeque::from([0usize]);
        while let Some(u) = queue.pop_front() {
            for (f, t, _) in &self.edges {
                for (a, b) in [(*f, *t), (*t, *f)] {
                    if a == u && dist[b] == usize::MAX {
                        dist[b] = dist[u] + 1;
                        queue.push_back(b);
                    }
                }
            }
        }
        dist.iter()
            .filter(|d| **d != usize::MAX)
            .copied()
            .max()
            .unwrap_or(0)
    }
}

/// Convenience constructor for a labeled-graph vertex list entry.
pub fn lv(id: VertexId, label: &str, keywords: &[&str]) -> (VertexId, LabeledVertex) {
    (
        id,
        LabeledVertex::with_keywords(label, keywords.iter().copied()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::EdgeRecord;

    fn tiny_labeled() -> LabeledGraph {
        let vs = vec![
            lv(0, "person", &["alice"]),
            lv(1, "person", &["bob"]),
            lv(2, "product", &["phone", "huawei"]),
        ];
        let es = vec![
            EdgeRecord::new(0, 1, "follows".to_string()),
            EdgeRecord::new(1, 2, "recommends".to_string()),
        ];
        LabeledGraph::from_records(vs, es, true).unwrap()
    }

    #[test]
    fn labeled_vertex_accessors() {
        let g = tiny_labeled();
        let v = g.vertex_data(2).unwrap();
        assert_eq!(v.label, VertexLabel::from("product"));
        assert!(v.has_keyword("huawei"));
        assert!(!v.has_keyword("xiaomi"));
    }

    #[test]
    fn relation_types_on_edges() {
        let g = tiny_labeled();
        let (_, rel) = g.out_edges(1).next().unwrap();
        assert_eq!(rel, "recommends");
    }

    #[test]
    fn pattern_graph_edges_and_validation() {
        let p = PatternGraph::new(vec!["person".into(), "product".into()]).edge_labeled(
            0,
            1,
            "recommends",
        );
        assert_eq!(p.num_vertices(), 2);
        assert_eq!(p.num_edges(), 1);
        assert!(p.validate().is_ok());
        let bad = PatternGraph::new(vec!["person".into()]).edge(0, 5);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn pattern_adjacency_iterators() {
        let p = PatternGraph::new(vec!["a".into(), "b".into(), "c".into()])
            .edge(0, 1)
            .edge_labeled(0, 2, "likes");
        let outs: Vec<_> = p.out_edges(0).collect();
        assert_eq!(outs.len(), 2);
        let ins: Vec<_> = p.in_edges(2).collect();
        assert_eq!(ins, vec![(0, Some("likes"))]);
    }

    #[test]
    fn pattern_radius() {
        // chain 0 - 1 - 2 has radius 2 from vertex 0
        let p = PatternGraph::new(vec!["a".into(), "b".into(), "c".into()])
            .edge(0, 1)
            .edge(1, 2);
        assert_eq!(p.radius(), 2);
        // star centred at 0 has radius 1
        let star = PatternGraph::new(vec!["a".into(), "b".into(), "c".into()])
            .edge(0, 1)
            .edge(0, 2);
        assert_eq!(star.radius(), 1);
        let empty = PatternGraph::new(vec![]);
        assert_eq!(empty.radius(), 0);
    }

    #[test]
    fn display_and_from_for_labels() {
        let l: VertexLabel = "city".into();
        assert_eq!(l.to_string(), "city");
    }

    #[test]
    fn labeled_vertices_roundtrip_on_the_wire() {
        let v = LabeledVertex::with_keywords("product", ["phone", "huawei"]);
        let bytes = v.encode_to_vec();
        let mut reader = WireReader::new(&bytes);
        assert_eq!(LabeledVertex::decode(&mut reader).unwrap(), v);
        reader.finish().unwrap();
        // Truncated payloads are rejected, not misread.
        let mut truncated = WireReader::new(&bytes[..bytes.len() - 1]);
        assert!(LabeledVertex::decode(&mut truncated).is_err());
    }
}
