//! Graph pattern matching via subgraph isomorphism (`SubIso`), the query
//! class behind the GPAR-based social-media-marketing demo (Fig. 4).
//!
//! Subgraph isomorphism asks for *injective* embeddings of a small pattern
//! `Q` into the data graph that preserve vertex labels, edge directions and
//! (optionally) edge relation types.
//!
//! PIE formulation — the data-locality argument of the paper: an embedding
//! whose pivot (pattern vertex 0) maps to data vertex `v` lies entirely
//! within the `radius(Q)`-hop neighbourhood of `v`. So:
//!
//! * **PEval** enumerates embeddings whose pivot is an *inner* vertex using a
//!   VF2-style backtracking matcher over the fragment, and publishes, for
//!   every border vertex, the part of its neighbourhood the fragment knows
//!   (a [`NeighborhoodDelta`]).
//! * **IncEval** merges arriving neighbourhood deltas into an extension
//!   graph, republishes the (now larger) neighbourhoods of its border
//!   vertices, and re-enumerates. After at most `radius(Q)` rounds every
//!   fragment knows the full ball around its inner vertices and the deltas
//!   stop growing.
//! * The **aggregate** is set union, which only grows — monotonic, so the
//!   Assurance Theorem applies.
//! * **Assemble** concatenates the per-fragment embeddings; pivots are inner
//!   to exactly one fragment, so no embedding is reported twice.
//!
//! The extension knowledge received from other fragments is kept in an
//! `ExtIndex`: flat sorted-id tables with CSR-style out/in adjacency
//! slices, rebuilt only when a superstep actually grows the knowledge. The
//! matcher's adjacency queries are a local CSR slice chained with an indexed
//! extension slice — the per-call linear scans over an edge `HashSet` (and
//! the `String` clone + sort + dedup of every neighbourhood query) of the
//! original formulation are gone, and the ball BFS marks visited vertices in
//! dense bitsets instead of a `HashMap`.

use grape_core::{Fragment, MessageSize, PieContext, PieProgram, VertexId};
use grape_graph::labels::{LabeledVertex, PatternGraph};
use grape_graph::DenseBitset;
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// A subgraph-isomorphism query.
#[derive(Debug, Clone, PartialEq)]
pub struct SubIsoQuery {
    /// The pattern graph; vertex 0 is the pivot.
    pub pattern: PatternGraph,
    /// Cap on the number of embeddings materialized per fragment (the total
    /// count is still exact up to this cap × fragments). `usize::MAX` keeps
    /// everything.
    pub max_matches: usize,
}

impl SubIsoQuery {
    /// Creates a query keeping every embedding.
    pub fn new(pattern: PatternGraph) -> Self {
        pattern.validate().expect("pattern edges must be valid");
        Self {
            pattern,
            max_matches: usize::MAX,
        }
    }

    /// Limits the number of embeddings materialized per fragment.
    pub fn with_max_matches(mut self, cap: usize) -> Self {
        self.max_matches = cap;
        self
    }
}

/// The piece of a vertex's neighbourhood a fragment knows and shares with the
/// fragments that mirror the vertex.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NeighborhoodDelta {
    /// Known vertices `(id, label)`, sorted by id.
    pub vertices: Vec<(VertexId, String)>,
    /// Known edges `(src, dst, relation)`, sorted.
    pub edges: Vec<(VertexId, VertexId, String)>,
}

impl NeighborhoodDelta {
    /// Merges another delta into this one, keeping the sorted-set invariants.
    pub fn merge(&self, other: &NeighborhoodDelta) -> NeighborhoodDelta {
        let vertices: BTreeMap<VertexId, String> = self
            .vertices
            .iter()
            .chain(other.vertices.iter())
            .cloned()
            .collect();
        let edges: BTreeSet<(VertexId, VertexId, String)> = self
            .edges
            .iter()
            .chain(other.edges.iter())
            .cloned()
            .collect();
        NeighborhoodDelta {
            vertices: vertices.into_iter().collect(),
            edges: edges.into_iter().collect(),
        }
    }

    /// Whether `other` is a subset of this delta. Both sides keep their
    /// vectors sorted, so this is a pair of binary-search probes per entry.
    pub fn contains(&self, other: &NeighborhoodDelta) -> bool {
        other
            .vertices
            .iter()
            .all(|v| self.vertices.binary_search(v).is_ok())
            && other
                .edges
                .iter()
                .all(|e| self.edges.binary_search(e).is_ok())
    }
}

impl MessageSize for NeighborhoodDelta {
    fn size_bytes(&self) -> usize {
        let v: usize = self.vertices.iter().map(|(_, l)| 8 + 4 + l.len()).sum();
        let e: usize = self.edges.iter().map(|(_, _, r)| 16 + 4 + r.len()).sum();
        8 + v + e
    }
}

impl grape_core::Wire for NeighborhoodDelta {
    // Two length-prefixed vectors: 4 + Σ(8 + 4 + |label|) for the vertices
    // and 4 + Σ(16 + 4 + |relation|) for the edges — exactly the
    // MessageSize estimate (its leading 8 is the two vector headers).
    fn encode(&self, out: &mut Vec<u8>) {
        self.vertices.encode(out);
        self.edges.encode(out);
    }

    fn decode(reader: &mut grape_core::WireReader<'_>) -> Result<Self, grape_core::WireError> {
        Ok(NeighborhoodDelta {
            vertices: Vec::decode(reader)?,
            edges: Vec::decode(reader)?,
        })
    }
}

/// The embeddings found by one run: each entry maps pattern vertex `i` to the
/// data vertex at position `i`.
pub type Embeddings = Vec<Vec<VertexId>>;

/// Indexed extension knowledge: everything a fragment has learned about
/// vertices and edges beyond its local graph, addressable without hashing.
///
/// Ids are kept in one sorted table (`ids`); labels and CSR-style out/in
/// adjacency slices are aligned with it. Rebuilt from the master stores only
/// when a superstep grows the knowledge (at most `radius(Q)` times), so the
/// matcher's million-fold adjacency queries amortize the build.
#[derive(Debug, Clone, Default)]
struct ExtIndex {
    /// Sorted ids of every vertex the extension knowledge mentions (labeled
    /// or appearing as an edge endpoint).
    ids: Vec<VertexId>,
    /// Label of each id, aligned with `ids` (`None` when only edges mention
    /// the vertex so far).
    labels: Vec<Option<String>>,
    /// CSR offsets into `out_entries`, aligned with `ids` (`len = ids + 1`).
    out_offsets: Vec<usize>,
    /// `(dst, relation)` pairs grouped by source.
    out_entries: Vec<(VertexId, String)>,
    /// CSR offsets into `in_entries`, aligned with `ids`.
    in_offsets: Vec<usize>,
    /// `(src, relation)` pairs grouped by destination.
    in_entries: Vec<(VertexId, String)>,
}

impl ExtIndex {
    fn build(
        labels: &BTreeMap<VertexId, String>,
        edges: &BTreeSet<(VertexId, VertexId, String)>,
    ) -> Self {
        let mut ids: Vec<VertexId> = labels.keys().copied().collect();
        for (s, d, _) in edges {
            ids.push(*s);
            ids.push(*d);
        }
        ids.sort_unstable();
        ids.dedup();
        let pos = |v: VertexId| ids.binary_search(&v).expect("endpoint indexed");
        let id_labels: Vec<Option<String>> = ids.iter().map(|v| labels.get(v).cloned()).collect();

        let mut out_degree = vec![0usize; ids.len()];
        let mut in_degree = vec![0usize; ids.len()];
        for (s, d, _) in edges {
            out_degree[pos(*s)] += 1;
            in_degree[pos(*d)] += 1;
        }
        let mut out_offsets = vec![0usize; ids.len() + 1];
        let mut in_offsets = vec![0usize; ids.len() + 1];
        for i in 0..ids.len() {
            out_offsets[i + 1] = out_offsets[i] + out_degree[i];
            in_offsets[i + 1] = in_offsets[i] + in_degree[i];
        }
        let mut out_entries = vec![(0, String::new()); edges.len()];
        let mut in_entries = vec![(0, String::new()); edges.len()];
        let mut out_cursor = out_offsets.clone();
        let mut in_cursor = in_offsets.clone();
        for (s, d, rel) in edges {
            let sp = pos(*s);
            let dp = pos(*d);
            out_entries[out_cursor[sp]] = (*d, rel.clone());
            out_cursor[sp] += 1;
            in_entries[in_cursor[dp]] = (*s, rel.clone());
            in_cursor[dp] += 1;
        }
        Self {
            ids,
            labels: id_labels,
            out_offsets,
            out_entries,
            in_offsets,
            in_entries,
        }
    }

    #[inline]
    fn pos(&self, v: VertexId) -> Option<usize> {
        self.ids.binary_search(&v).ok()
    }

    fn label_of(&self, v: VertexId) -> Option<&str> {
        self.pos(v).and_then(|p| self.labels[p].as_deref())
    }

    fn out_edges(&self, v: VertexId) -> &[(VertexId, String)] {
        match self.pos(v) {
            Some(p) => &self.out_entries[self.out_offsets[p]..self.out_offsets[p + 1]],
            None => &[],
        }
    }

    fn in_edges(&self, v: VertexId) -> &[(VertexId, String)] {
        match self.pos(v) {
            Some(p) => &self.in_entries[self.in_offsets[p]..self.in_offsets[p + 1]],
            None => &[],
        }
    }
}

/// A combined view over the fragment's local graph and the indexed extension
/// knowledge received from other fragments.
struct KnowledgeGraph<'a> {
    fragment: Option<&'a Fragment<LabeledVertex, String>>,
    ext: &'a ExtIndex,
}

impl<'a> KnowledgeGraph<'a> {
    fn label_of(&self, v: VertexId) -> Option<&'a str> {
        if let Some(f) = self.fragment {
            if let Some(data) = f.graph.vertex_data(v) {
                return Some(&data.label.0);
            }
        }
        self.ext.label_of(v)
    }

    /// Out-edges of `v` as `(dst, relation)`: the local CSR slice chained
    /// with the indexed extension slice. The two are disjoint — IncEval
    /// never records an edge the local graph already stores.
    fn out_edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, &'a str)> + '_ {
        let local = self
            .fragment
            .into_iter()
            .flat_map(move |f| f.graph.out_edges(v).map(|(d, r)| (d, r.as_str())));
        local.chain(self.ext.out_edges(v).iter().map(|(d, r)| (*d, r.as_str())))
    }

    /// In-edges of `v` as `(src, relation)`.
    fn in_edges(&self, v: VertexId) -> impl Iterator<Item = (VertexId, &'a str)> + '_ {
        let local = self
            .fragment
            .into_iter()
            .flat_map(move |f| f.graph.in_edges(v).map(|(s, r)| (s, r.as_str())));
        local.chain(self.ext.in_edges(v).iter().map(|(s, r)| (*s, r.as_str())))
    }

    fn has_edge(&self, s: VertexId, d: VertexId, relation: Option<&str>) -> bool {
        self.out_edges(s)
            .any(|(t, r)| t == d && relation.is_none_or(|rel| rel == r))
    }
}

/// Order the pattern vertices so each one (after the first) is adjacent to an
/// already-placed vertex when the pattern is connected.
fn matching_order(pattern: &PatternGraph) -> Vec<usize> {
    let n = pattern.num_vertices();
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    let mut queue = VecDeque::new();
    for start in 0..n {
        if seen[start] {
            continue;
        }
        seen[start] = true;
        queue.push_back(start);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for (f, t, _) in &pattern.edges {
                for (a, b) in [(*f, *t), (*t, *f)] {
                    if a == u && !seen[b] {
                        seen[b] = true;
                        queue.push_back(b);
                    }
                }
            }
        }
    }
    order
}

/// Backtracking enumeration of embeddings whose pivot (pattern vertex 0) maps
/// into `pivot_candidates`.
fn enumerate(
    pattern: &PatternGraph,
    graph: &KnowledgeGraph<'_>,
    pivot_candidates: &[VertexId],
    cap: usize,
) -> Embeddings {
    let n = pattern.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let order = matching_order(pattern);
    let mut results = Vec::new();
    let mut assignment: Vec<Option<VertexId>> = vec![None; n];

    fn consistent(
        pattern: &PatternGraph,
        graph: &KnowledgeGraph<'_>,
        assignment: &[Option<VertexId>],
        u: usize,
        v: VertexId,
    ) -> bool {
        // Injectivity.
        if assignment.iter().flatten().any(|&w| w == v) {
            return false;
        }
        // Label.
        match graph.label_of(v) {
            Some(l) if l == pattern.labels[u].0 => {}
            _ => return false,
        }
        // Every pattern edge between u and an already-assigned vertex must be
        // witnessed in the data.
        for (f, t, rel) in &pattern.edges {
            let rel = rel.as_deref();
            if *f == u {
                if let Some(Some(w)) = assignment.get(*t) {
                    if !graph.has_edge(v, *w, rel) {
                        return false;
                    }
                }
            }
            if *t == u {
                if let Some(Some(w)) = assignment.get(*f) {
                    if !graph.has_edge(*w, v, rel) {
                        return false;
                    }
                }
            }
        }
        true
    }

    #[allow(clippy::too_many_arguments)]
    fn backtrack(
        pattern: &PatternGraph,
        graph: &KnowledgeGraph<'_>,
        order: &[usize],
        depth: usize,
        assignment: &mut Vec<Option<VertexId>>,
        pivot_candidates: &[VertexId],
        results: &mut Embeddings,
        cap: usize,
    ) {
        if results.len() >= cap {
            return;
        }
        if depth == order.len() {
            results.push(assignment.iter().map(|a| a.expect("complete")).collect());
            return;
        }
        let u = order[depth];
        // Candidate data vertices for u.
        let candidates: Vec<VertexId> = if depth == 0 {
            pivot_candidates.to_vec()
        } else {
            // Prefer expanding from an already-assigned neighbour of u.
            let mut from_neighbours: Option<Vec<VertexId>> = None;
            for (f, t, _) in &pattern.edges {
                if *f == u {
                    if let Some(Some(w)) = assignment.get(*t) {
                        from_neighbours = Some(graph.in_edges(*w).map(|(s, _)| s).collect());
                        break;
                    }
                }
                if *t == u {
                    if let Some(Some(w)) = assignment.get(*f) {
                        from_neighbours = Some(graph.out_edges(*w).map(|(d, _)| d).collect());
                        break;
                    }
                }
            }
            match from_neighbours {
                Some(mut c) => {
                    c.sort_unstable();
                    c.dedup();
                    c
                }
                None => {
                    // Disconnected pattern vertex: consider every known vertex.
                    let mut all: Vec<VertexId> = graph
                        .ext
                        .ids
                        .iter()
                        .copied()
                        .chain(
                            graph
                                .fragment
                                .map(|f| f.graph.vertices().collect::<Vec<_>>())
                                .unwrap_or_default(),
                        )
                        .collect();
                    all.sort_unstable();
                    all.dedup();
                    all
                }
            }
        };
        for v in candidates {
            if consistent(pattern, graph, assignment, u, v) {
                assignment[u] = Some(v);
                backtrack(
                    pattern,
                    graph,
                    order,
                    depth + 1,
                    assignment,
                    pivot_candidates,
                    results,
                    cap,
                );
                assignment[u] = None;
                if results.len() >= cap {
                    return;
                }
            }
        }
    }

    backtrack(
        pattern,
        graph,
        &order,
        0,
        &mut assignment,
        pivot_candidates,
        &mut results,
        cap,
    );
    results
}

/// Sequential subgraph isomorphism over a whole labeled graph — the reference
/// algorithm.
pub fn sequential_subiso(graph: &grape_graph::LabeledGraph, pattern: &PatternGraph) -> Embeddings {
    // Reuse the fragment-based matcher by viewing the whole graph as one
    // fragment-less knowledge graph.
    let labels: BTreeMap<VertexId, String> = graph
        .vertices()
        .map(|v| (v, graph.vertex_data(v).expect("present").label.0.clone()))
        .collect();
    let edges: BTreeSet<(VertexId, VertexId, String)> =
        graph.edges().map(|(s, d, r)| (s, d, r.clone())).collect();
    let ext = ExtIndex::build(&labels, &edges);
    let kg = KnowledgeGraph {
        fragment: None,
        ext: &ext,
    };
    let pivots: Vec<VertexId> = graph.vertices().collect();
    enumerate(pattern, &kg, &pivots, usize::MAX)
}

/// Per-fragment partial state.
#[derive(Debug, Clone, Default)]
pub struct SubIsoPartial {
    /// Labels learned from other fragments (master store, ordered — no
    /// hashing).
    ext_labels: BTreeMap<VertexId, String>,
    /// Edges learned from other fragments (master store, ordered).
    ext_edges: BTreeSet<(VertexId, VertexId, String)>,
    /// Flat adjacency index over the stores, rebuilt when they grow.
    ext_index: ExtIndex,
    /// Embeddings found so far (pivot is always an inner vertex).
    pub matches: Embeddings,
}

/// The SubIso PIE program.
#[derive(Debug, Clone, Copy, Default)]
pub struct SubIsoProgram;

impl SubIsoProgram {
    /// BFS ball of radius `radius` around `center` over the fragment's local
    /// graph plus the extension knowledge, packaged as a delta. Visited marks
    /// live in two dense bitsets (one over the local graph's CSR indices, one
    /// over the extension-id table) — no per-vertex hashing.
    fn ball(
        fragment: &Fragment<LabeledVertex, String>,
        partial: &SubIsoPartial,
        center: VertexId,
        radius: usize,
    ) -> NeighborhoodDelta {
        let kg = KnowledgeGraph {
            fragment: Some(fragment),
            ext: &partial.ext_index,
        };
        let mut seen_local = DenseBitset::new(fragment.graph.num_vertices());
        let mut seen_ext = DenseBitset::new(partial.ext_index.ids.len());
        // Marks `v` as visited; returns false if it already was. Every id the
        // knowledge graph can surface is local or in the extension-id table.
        let mut visit = |v: VertexId| -> bool {
            if let Some(i) = fragment.graph.dense_index(v) {
                if seen_local.contains(i) {
                    return false;
                }
                seen_local.set(i);
                return true;
            }
            let Some(p) = partial.ext_index.pos(v) else {
                debug_assert!(false, "knowledge-graph id {v} is neither local nor indexed");
                return false;
            };
            if seen_ext.contains(p as u32) {
                return false;
            }
            seen_ext.set(p as u32);
            true
        };
        let mut queue = VecDeque::from([(center, 0usize)]);
        visit(center);
        let mut vertices: BTreeMap<VertexId, String> = BTreeMap::new();
        let mut edges: BTreeSet<(VertexId, VertexId, String)> = BTreeSet::new();
        if let Some(l) = kg.label_of(center) {
            vertices.insert(center, l.to_string());
        }
        while let Some((u, du)) = queue.pop_front() {
            if du >= radius {
                continue;
            }
            for (v, rel) in kg.out_edges(u) {
                edges.insert((u, v, rel.to_string()));
                if visit(v) {
                    if let Some(l) = kg.label_of(v) {
                        vertices.insert(v, l.to_string());
                    }
                    queue.push_back((v, du + 1));
                }
            }
            for (v, rel) in kg.in_edges(u) {
                edges.insert((v, u, rel.to_string()));
                if visit(v) {
                    if let Some(l) = kg.label_of(v) {
                        vertices.insert(v, l.to_string());
                    }
                    queue.push_back((v, du + 1));
                }
            }
        }
        NeighborhoodDelta {
            vertices: vertices.into_iter().collect(),
            edges: edges.into_iter().collect(),
        }
    }

    fn publish_borders(
        query: &SubIsoQuery,
        fragment: &Fragment<LabeledVertex, String>,
        partial: &SubIsoPartial,
        ctx: &mut PieContext<NeighborhoodDelta>,
    ) {
        let radius = query.pattern.radius().max(1);
        // Position-addressed read-modify-write over the border list: the
        // published value only ever grows, and the context suppresses no-op
        // republication automatically via PartialEq.
        for (pos, &b) in fragment.border_vertices().iter().enumerate() {
            let ball = Self::ball(fragment, partial, b, radius);
            let merged = match ctx.get_at(pos as u32) {
                Some(existing) => existing.merge(&ball),
                None => ball,
            };
            ctx.update_at(pos as u32, merged);
        }
    }

    fn enumerate_local(
        query: &SubIsoQuery,
        fragment: &Fragment<LabeledVertex, String>,
        partial: &SubIsoPartial,
    ) -> Embeddings {
        let kg = KnowledgeGraph {
            fragment: Some(fragment),
            ext: &partial.ext_index,
        };
        let pivots: Vec<VertexId> = fragment.inner_vertices().to_vec();
        enumerate(&query.pattern, &kg, &pivots, query.max_matches)
    }
}

impl PieProgram for SubIsoProgram {
    type Query = SubIsoQuery;
    type VertexData = LabeledVertex;
    type EdgeData = String;
    type Value = NeighborhoodDelta;
    type Partial = SubIsoPartial;
    type Output = Embeddings;

    fn peval(
        &self,
        query: &SubIsoQuery,
        fragment: &Fragment<LabeledVertex, String>,
        ctx: &mut PieContext<NeighborhoodDelta>,
    ) -> SubIsoPartial {
        let mut partial = SubIsoPartial::default();
        partial.matches = Self::enumerate_local(query, fragment, &partial);
        Self::publish_borders(query, fragment, &partial, ctx);
        partial
    }

    fn inceval(
        &self,
        query: &SubIsoQuery,
        fragment: &Fragment<LabeledVertex, String>,
        partial: &mut SubIsoPartial,
        messages: &[(u32, NeighborhoodDelta)],
        ctx: &mut PieContext<NeighborhoodDelta>,
    ) {
        let mut grew = false;
        for (_, delta) in messages {
            for (v, label) in &delta.vertices {
                if fragment.graph.contains(*v) {
                    continue;
                }
                if partial.ext_labels.insert(*v, label.clone()).is_none() {
                    grew = true;
                }
            }
            for edge in &delta.edges {
                // Skip edges the local graph already stores.
                let locally_known = fragment
                    .graph
                    .out_edges(edge.0)
                    .any(|(d, r)| d == edge.1 && *r == edge.2);
                if !locally_known && partial.ext_edges.insert(edge.clone()) {
                    grew = true;
                }
            }
        }
        if !grew {
            return;
        }
        partial.ext_index = ExtIndex::build(&partial.ext_labels, &partial.ext_edges);
        partial.matches = Self::enumerate_local(query, fragment, partial);
        Self::publish_borders(query, fragment, partial, ctx);
    }

    fn assemble(&self, partials: Vec<SubIsoPartial>) -> Embeddings {
        let mut out = Vec::new();
        for partial in partials {
            out.extend(partial.matches);
        }
        out.sort();
        out.dedup();
        out
    }

    fn aggregate(&self, a: &NeighborhoodDelta, b: &NeighborhoodDelta) -> NeighborhoodDelta {
        a.merge(b)
    }

    fn monotonic(&self, old: &NeighborhoodDelta, new: &NeighborhoodDelta) -> Option<bool> {
        Some(new.contains(old))
    }

    fn snapshot_partial(&self, partial: &SubIsoPartial) -> Option<Vec<u8>> {
        use grape_core::Wire;
        let mut out = Vec::new();
        // The ordered stores serialize in their iteration order (ascending),
        // so the encoding is canonical; the flat index is derived state and
        // rebuilt on restore.
        let labels: Vec<(VertexId, String)> = partial
            .ext_labels
            .iter()
            .map(|(&v, l)| (v, l.clone()))
            .collect();
        labels.encode(&mut out);
        let edges: Vec<(VertexId, VertexId, String)> = partial.ext_edges.iter().cloned().collect();
        edges.encode(&mut out);
        partial.matches.encode(&mut out);
        Some(out)
    }

    fn restore_partial(&self, bytes: &[u8]) -> Option<SubIsoPartial> {
        use grape_core::{Wire, WireReader};
        let mut reader = WireReader::new(bytes);
        let labels = Vec::<(VertexId, String)>::decode(&mut reader).ok()?;
        let edges = Vec::<(VertexId, VertexId, String)>::decode(&mut reader).ok()?;
        let matches = Embeddings::decode(&mut reader).ok()?;
        reader.finish().ok()?;
        let ext_labels: BTreeMap<VertexId, String> = labels.into_iter().collect();
        let ext_edges: BTreeSet<(VertexId, VertexId, String)> = edges.into_iter().collect();
        let ext_index = ExtIndex::build(&ext_labels, &ext_edges);
        Some(SubIsoPartial {
            ext_labels,
            ext_edges,
            ext_index,
            matches,
        })
    }

    fn name(&self) -> &str {
        "subiso"
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

    fn person_product_pattern() -> PatternGraph {
        // person --follows--> person --recommends--> product
        PatternGraph::new(vec!["person".into(), "person".into(), "product".into()])
            .edge_labeled(0, 1, "follows")
            .edge_labeled(1, 2, "recommends")
    }

    fn tiny_graph() -> LabeledGraph {
        let vs = vec![
            lv(0, "person", &[]),
            lv(1, "person", &[]),
            lv(2, "product", &[]),
            lv(3, "person", &[]),
            lv(4, "product", &[]),
        ];
        let es = vec![
            EdgeRecord::new(0, 1, "follows".to_string()),
            EdgeRecord::new(1, 2, "recommends".to_string()),
            EdgeRecord::new(1, 4, "recommends".to_string()),
            EdgeRecord::new(3, 1, "follows".to_string()),
        ];
        LabeledGraph::from_records(vs, es, true).unwrap()
    }

    #[test]
    fn sequential_subiso_counts_embeddings() {
        let matches = sequential_subiso(&tiny_graph(), &person_product_pattern());
        // Pivots 0 and 3 each follow person 1 who recommends products 2 and 4:
        // 4 embeddings in total.
        assert_eq!(matches.len(), 4);
        for m in &matches {
            assert_eq!(m.len(), 3);
            assert_eq!(m[1], 1);
        }
    }

    #[test]
    fn injectivity_is_enforced() {
        // Pattern person -> person (follows) on a graph with a self-loop-free
        // 2-cycle: 0 follows 1, 1 follows 0 -> exactly two embeddings, never
        // mapping both pattern vertices to the same data vertex.
        let vs = vec![lv(0, "person", &[]), lv(1, "person", &[])];
        let es = vec![
            EdgeRecord::new(0, 1, "follows".to_string()),
            EdgeRecord::new(1, 0, "follows".to_string()),
        ];
        let g = LabeledGraph::from_records(vs, es, true).unwrap();
        let p =
            PatternGraph::new(vec!["person".into(), "person".into()]).edge_labeled(0, 1, "follows");
        let matches = sequential_subiso(&g, &p);
        assert_eq!(matches.len(), 2);
        for m in matches {
            assert_ne!(m[0], m[1]);
        }
    }

    #[test]
    fn relation_constraint_filters_matches() {
        let g = tiny_graph();
        let wrong_rel = PatternGraph::new(vec!["person".into(), "product".into()]).edge_labeled(
            0,
            1,
            "rates_bad",
        );
        assert!(sequential_subiso(&g, &wrong_rel).is_empty());
        let right_rel = PatternGraph::new(vec!["person".into(), "product".into()]).edge_labeled(
            0,
            1,
            "recommends",
        );
        assert_eq!(sequential_subiso(&g, &right_rel).len(), 2);
    }

    #[test]
    fn neighborhood_delta_merge_and_order() {
        let a = NeighborhoodDelta {
            vertices: vec![(1, "x".into())],
            edges: vec![(1, 2, "e".into())],
        };
        let b = NeighborhoodDelta {
            vertices: vec![(2, "y".into())],
            edges: vec![(1, 2, "e".into()), (2, 3, "f".into())],
        };
        let m = a.merge(&b);
        assert_eq!(m.vertices.len(), 2);
        assert_eq!(m.edges.len(), 2);
        assert!(m.contains(&a));
        assert!(m.contains(&b));
        assert!(!a.contains(&b));
        assert!(m.size_bytes() > 0);
    }

    #[test]
    fn ext_index_adjacency_matches_the_stores() {
        let labels: BTreeMap<VertexId, String> =
            [(1, "a".to_string()), (2, "b".to_string())].into();
        let edges: BTreeSet<(VertexId, VertexId, String)> = [
            (1, 2, "x".to_string()),
            (1, 3, "y".to_string()),
            (3, 2, "z".to_string()),
        ]
        .into();
        let idx = ExtIndex::build(&labels, &edges);
        // Vertex 3 appears only as an endpoint: indexed, but unlabeled.
        assert_eq!(idx.ids, vec![1, 2, 3]);
        assert_eq!(idx.label_of(1), Some("a"));
        assert_eq!(idx.label_of(3), None);
        assert_eq!(idx.label_of(9), None);
        assert_eq!(
            idx.out_edges(1),
            &[(2, "x".to_string()), (3, "y".to_string())]
        );
        assert_eq!(idx.in_edges(2).len(), 2);
        assert!(idx.out_edges(2).is_empty());
        assert!(idx.out_edges(42).is_empty());
    }

    fn canonical(mut m: Embeddings) -> Embeddings {
        m.sort();
        m
    }

    #[test]
    fn pie_subiso_matches_sequential_on_social_graph() {
        let g = labeled_social(
            SocialGraphConfig {
                num_persons: 80,
                num_products: 4,
                follows_per_person: 4,
                recommend_prob: 0.2,
                ..Default::default()
            },
            19,
        )
        .unwrap();
        let query = SubIsoQuery::new(person_product_pattern());
        let reference = canonical(sequential_subiso(&g, &query.pattern));
        for strategy in [BuiltinStrategy::Hash, BuiltinStrategy::MetisLike] {
            let assignment = strategy.partition(&g, 3);
            let engine = GrapeEngine::new(SubIsoProgram).with_config(EngineConfig {
                check_monotonicity: true,
                ..Default::default()
            });
            let result = engine.run_on_graph(&query, &g, &assignment).unwrap();
            assert_eq!(
                canonical(result.output),
                reference,
                "strategy {strategy:?} must find exactly the sequential embeddings"
            );
            assert_eq!(result.stats.monotonicity_violations, 0);
        }
    }

    #[test]
    fn pie_subiso_single_fragment_equals_sequential() {
        let g = labeled_social(
            SocialGraphConfig {
                num_persons: 60,
                num_products: 3,
                ..Default::default()
            },
            3,
        )
        .unwrap();
        let query = SubIsoQuery::new(person_product_pattern());
        let reference = canonical(sequential_subiso(&g, &query.pattern));
        let assignment = BuiltinStrategy::Hash.partition(&g, 1);
        let result = GrapeEngine::new(SubIsoProgram)
            .run_on_graph(&query, &g, &assignment)
            .unwrap();
        assert_eq!(canonical(result.output), reference);
    }

    #[test]
    fn match_cap_limits_materialization() {
        let g = labeled_social(
            SocialGraphConfig {
                num_persons: 100,
                num_products: 5,
                ..Default::default()
            },
            8,
        )
        .unwrap();
        let query = SubIsoQuery::new(person_product_pattern()).with_max_matches(5);
        let assignment = BuiltinStrategy::Hash.partition(&g, 2);
        let result = GrapeEngine::new(SubIsoProgram)
            .run_on_graph(&query, &g, &assignment)
            .unwrap();
        assert!(result.output.len() <= 10, "at most cap × fragments");
    }

    #[test]
    fn program_declarations() {
        let d1 = NeighborhoodDelta::default();
        let d2 = NeighborhoodDelta {
            vertices: vec![(1, "a".into())],
            edges: vec![],
        };
        assert_eq!(SubIsoProgram.aggregate(&d1, &d2), d2);
        assert_eq!(SubIsoProgram.monotonic(&d1, &d2), Some(true));
        assert_eq!(SubIsoProgram.monotonic(&d2, &d1), Some(false));
        assert_eq!(SubIsoProgram.name(), "subiso");
    }
}
