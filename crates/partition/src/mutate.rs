//! Fragment mutation: applying a resolved update batch to a resident
//! [`Fragment`] without re-cutting the whole graph.
//!
//! The flow mirrors how a coordinator distributes work. The resident
//! fragments are the graph: the owner of a vertex holds every edge incident
//! to it. The graph holder (a session / service) stages a user batch against
//! them through a [`FragmentView`] with [`stage_batch`](grape_graph::stage_batch),
//! read-only, and obtains the batch's [`NetMutations`].
//! [`ResolvedMutations::resolve`] then stamps every referenced vertex with
//! its owner fragment — existing vertices keep their assignment, inserted
//! vertices are placed by [`hash_fragment_of`] — and attaches the payloads a
//! fragment might need for brand-new mirrors, still without changing the
//! assignment. The resulting [`ResolvedMutations`] batch is fully
//! self-contained: each fragment applies it *locally and deterministically*
//! with [`Fragment::splice_mutations`] (or its by-value wrapper
//! [`Fragment::apply_mutations`]), no global graph in sight. Only once every
//! holder has the batch does the holder record its
//! [`placements`](ResolvedMutations::placements) in the assignment.
//!
//! **Cost model.** Only touched fragments do any work: a fragment decides in
//! O(batch) whether the batch concerns it (an inserted vertex or edge endpoint
//! it owns, a removed edge it holds a copy of, a removed vertex it owns or
//! mirrors) and otherwise stays as it is — holders keep sharing it. A
//! touched fragment pays O(batch · degree) for mirror bookkeeping — only the
//! batch's vertices are re-examined, each against its own adjacency run, and
//! the mirror runs are rebuilt, in one pass, only when one of them changes —
//! plus one copy of its arrays, by one of two paths:
//!
//! * **Edges only**: the batch adds or drops no local vertex (no inserted
//!   vertex, no new or vanished mirror, no removed vertex) and no inner
//!   vertex starts or stops being mirrored. Dense indices stay put, so the
//!   local CSR keeps its ids and id index, copies its untouched adjacency
//!   runs whole and patches its reverse arrays in place
//!   ([`CsrGraph::patched`](grape_graph::CsrGraph::patched)), and every dense
//!   and border table carries over: the cost is a memory copy. Inserts that
//!   parallel existing edges, as the service benchmark's do, take this path.
//! * **Vertex changes**: the local CSR is spliced through a dense-index remap
//!   that re-targets every edge and re-derives the reverse arrays, and the
//!   dense and border tables are re-assembled as [`build_fragments`](crate::build_fragments) does.
//!
//! Neither path hashes anything or rebuilds from edge records: the batch's
//! own lists are sorted and searched by bisection.
//!
//! **Equivalence guarantee** (pinned by tests here and exercised end-to-end
//! by the incremental engine path): applying resolved batches to the
//! fragments of graph `G` yields fragments **bit-identical** to cutting the
//! updated graph `G'` from scratch with [`build_fragments`](crate::build_fragments) under the updated
//! assignment — same CSR edge order (surviving copies keep their order, net
//! additions append in insertion order, exactly like
//! [`DeltaGraph`](grape_graph::DeltaGraph)'s overlay), same
//! border tables, same dense indices. That is what lets an incremental run on
//! mutated fragments reproduce a cold run on `G'` bit for bit, even for
//! order-sensitive float accumulations.

use crate::assignment::{FragmentId, PartitionAssignment};
use crate::fragment::{assemble_fragment, Fragment};
use crate::strategy::hash_fragment_of;
use grape_comm::wire::{Wire, WireError, WireReader};
use grape_graph::delta::{LiveView, NetMutations};
use grape_graph::{merge_walk, GraphError, VertexId};
use std::borrow::Borrow;
use std::sync::Arc;

/// A resident fragment set read as the live graph, for staging a batch
/// against it ([`LiveView`]).
///
/// The owner of `v` is `assignment.fragment_of(v)`, or fragment 0 when the
/// assignment does not name one — the rule of [`crate::build_fragments`].
/// `v` is live when its owner holds it as an inner vertex, and removed when
/// the assignment names it but it is not live. That takes an assignment that
/// names every vertex of the graph it cut, as every
/// [`BuiltinStrategy`](crate::BuiltinStrategy) does, extended with the
/// [`placements`](ResolvedMutations::placements) of each committed batch: it
/// then keeps every vertex that was ever live. The owner's local CSR holds
/// every edge incident to an inner vertex, in both directions, and its
/// payload.
pub struct FragmentView<'a, V, E> {
    fragments: Vec<&'a Fragment<V, E>>,
    assignment: &'a PartitionAssignment,
}

impl<'a, V: Clone, E: Clone> FragmentView<'a, V, E> {
    /// Views `fragments`, cut under `assignment`.
    pub fn new<F: Borrow<Fragment<V, E>>>(
        fragments: &'a [F],
        assignment: &'a PartitionAssignment,
    ) -> Self {
        FragmentView {
            fragments: fragments.iter().map(Borrow::borrow).collect(),
            assignment,
        }
    }

    /// The fragment that owns `v`, if `v` is live.
    fn live_owner(&self, v: VertexId) -> Option<&'a Fragment<V, E>> {
        let owner = self.assignment.fragment_of(v).unwrap_or(0);
        self.fragments.get(owner).copied().filter(|f| f.is_inner(v))
    }
}

impl<V: Clone, E: Clone> LiveView<V> for FragmentView<'_, V, E> {
    fn contains(&self, v: VertexId) -> bool {
        self.live_owner(v).is_some()
    }

    fn was_removed(&self, v: VertexId) -> bool {
        self.assignment.fragment_of(v).is_some() && !self.contains(v)
    }

    fn out_targets(&self, v: VertexId) -> Vec<VertexId> {
        self.live_owner(v)
            .map(|f| f.graph.out_edges(v).map(|(d, _)| d).collect())
            .unwrap_or_default()
    }

    fn in_sources(&self, v: VertexId) -> Vec<VertexId> {
        self.live_owner(v)
            .map(|f| f.graph.in_edges(v).map(|(s, _)| s).collect())
            .unwrap_or_default()
    }

    fn vertex_data(&self, v: VertexId) -> Option<&V> {
        self.live_owner(v).and_then(|f| f.graph.vertex_data(v))
    }
}

/// A net mutation batch resolved against the partition: every vertex the
/// batch references carries its owner fragment, and endpoints that may be
/// new mirrors carry their payloads. Self-contained — a fragment applies it
/// with no access to the global graph or the assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedMutations<V, E> {
    /// The net effect of the batch (see [`NetMutations`]).
    pub net: NetMutations<V, E>,
    /// `(vertex, owner fragment)` for every vertex referenced by the net:
    /// inserted vertices and all endpoints of inserted edges. Sorted by
    /// vertex id.
    pub owners: Vec<(VertexId, u32)>,
    /// Payloads of inserted-edge endpoints that are *not* themselves
    /// inserted vertices (a fragment may need them to materialize a new
    /// mirror it has never seen). Sorted by vertex id.
    pub endpoint_data: Vec<(VertexId, V)>,
}

impl<V, E> ResolvedMutations<V, E> {
    /// Whether the batch has no effect at all.
    pub fn is_empty(&self) -> bool {
        self.net.is_empty()
    }
}

impl<V: Wire, E: Wire> Wire for ResolvedMutations<V, E> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.net.encode(out);
        self.owners.encode(out);
        self.endpoint_data.encode(out);
    }

    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Self {
            net: NetMutations::decode(reader)?,
            owners: Vec::decode(reader)?,
            endpoint_data: Vec::decode(reader)?,
        })
    }
}

impl<V: Clone, E: Clone> ResolvedMutations<V, E> {
    /// Resolves a net mutation batch against the partition assignment,
    /// leaving it as it is.
    ///
    /// An inserted vertex the assignment has never seen is placed by the
    /// [`hash_fragment_of`] rule; that placement travels in
    /// [`owners`](Self::owners) and reaches the assignment only through
    /// [`placements`](Self::placements). `payload_of` supplies the payload of
    /// an existing vertex (typically the staging view's `vertex_data`),
    /// consulted only for inserted-edge endpoints.
    pub fn resolve(
        net: NetMutations<V, E>,
        assignment: &PartitionAssignment,
        payload_of: impl Fn(VertexId) -> Option<V>,
    ) -> Self {
        let k = assignment.num_fragments();
        let mut inserted: Vec<VertexId> = net.added_vertices.iter().map(|(v, _)| *v).collect();
        inserted.sort_unstable();
        let is_inserted = |v: &VertexId| inserted.binary_search(v).is_ok();
        let mut referenced = inserted.clone();
        referenced.extend(net.added_edges.iter().flat_map(|&(s, d, _)| [s, d]));
        referenced.sort_unstable();
        referenced.dedup();
        let owners: Vec<(VertexId, u32)> = referenced
            .iter()
            .map(|&v| {
                let fallback = if is_inserted(&v) {
                    hash_fragment_of(v, k)
                } else {
                    0
                };
                (v, assignment.fragment_of(v).unwrap_or(fallback) as u32)
            })
            .collect();
        let endpoint_data: Vec<(VertexId, V)> = referenced
            .iter()
            .filter(|v| !is_inserted(v))
            .filter_map(|&v| payload_of(v).map(|d| (v, d)))
            .collect();
        ResolvedMutations {
            net,
            owners,
            endpoint_data,
        }
    }

    /// The `(vertex, fragment)` entries committing this batch adds to
    /// `assignment`: every inserted vertex it has never seen, at its owner.
    pub fn placements(&self, assignment: &PartitionAssignment) -> Vec<(VertexId, FragmentId)> {
        let owner = |v: &VertexId| self.owners.binary_search_by_key(v, |&(u, _)| u).ok();
        self.net
            .added_vertices
            .iter()
            .filter(|(v, _)| assignment.fragment_of(*v).is_none())
            .filter_map(|(v, _)| owner(v).map(|i| (*v, self.owners[i].1 as FragmentId)))
            .collect()
    }
}

/// Resolves a net mutation batch against the partition assignment
/// ([`ResolvedMutations::resolve`]) and records the batch's
/// [`placements`](ResolvedMutations::placements) into `assignment` at once,
/// so later batches (and a from-scratch cut of the updated graph under this
/// assignment) agree on ownership.
pub fn resolve_net_mutations<V: Clone, E: Clone>(
    net: NetMutations<V, E>,
    assignment: &mut PartitionAssignment,
    payload_of: impl Fn(VertexId) -> Option<V>,
) -> ResolvedMutations<V, E> {
    let resolved = ResolvedMutations::resolve(net, assignment, payload_of);
    for (v, f) in resolved.placements(assignment) {
        assignment.assign(v, f);
    }
    resolved
}

impl<V: Clone + Default, E: Clone> Fragment<V, E> {
    /// Applies a resolved mutation batch and returns the updated fragment —
    /// [`Fragment::splice_mutations`] for callers that hold fragments by
    /// value; a batch that does not touch this fragment yields a plain copy.
    pub fn apply_mutations(
        &self,
        batch: &ResolvedMutations<V, E>,
    ) -> Result<Fragment<V, E>, GraphError> {
        Ok(self
            .splice_mutations(batch)?
            .unwrap_or_else(|| self.clone()))
    }

    /// Splices a resolved mutation batch into this fragment, or returns
    /// `None` when the batch does not touch it: no inserted vertex or edge
    /// endpoint is owned here, no removed edge has a copy here, and no
    /// removed vertex is owned or mirrored here. Deciding that costs
    /// O(batch) — a removed pair is looked up in its source's adjacency run —
    /// so holders keep sharing an untouched fragment as it is.
    ///
    /// Local and deterministic: surviving edges keep their CSR order and net
    /// additions relevant to this fragment (an endpoint owned here) append in
    /// insertion order
    /// ([`CsrGraph::patched`](grape_graph::CsrGraph::patched)); the mirror
    /// tables are patched for the batch's vertices only — each is re-derived from its own
    /// adjacency run, so a removed cut edge un-mirrors a vertex only if no
    /// other edge still ties it to that fragment — and rebuilt only when one
    /// of them changes. When neither the local vertex set nor the set of
    /// mirrored inner vertices changes, the dense and border tables carry
    /// over from this fragment and only the graph and mirror runs are new;
    /// otherwise they go through the same assembly as
    /// [`crate::build_fragments`]. The result is bit-identical to a
    /// from-scratch cut of the updated graph (see the [module docs](self)).
    ///
    /// Cost: O(batch · degree) bookkeeping plus one copy of this fragment's
    /// arrays — a memory copy on the edges-only path, a remap of every edge
    /// and a re-assembly of the tables when the vertex set or the border
    /// changes.
    pub fn splice_mutations(
        &self,
        batch: &ResolvedMutations<V, E>,
    ) -> Result<Option<Fragment<V, E>>, GraphError> {
        let my = self.id;
        // The batch names the owner of everything new; this fragment's own
        // tables cover the endpoints of its old edges.
        let owner = |v: VertexId| -> Result<FragmentId, GraphError> {
            match batch.owners.binary_search_by_key(&v, |&(u, _)| u) {
                Ok(i) => Ok(batch.owners[i].1 as FragmentId),
                Err(_) => self.owner_of(v).ok_or(GraphError::UnknownVertex(v)),
            }
        };

        // 1. The batch as this fragment's local graph sees it.
        let net = &batch.net;
        let mut local: NetMutations<V, E> = NetMutations::default();
        for (v, data) in &net.added_vertices {
            if owner(*v)? == my {
                local.added_vertices.push((*v, data.clone()));
            }
        }
        for (s, d, w) in &net.added_edges {
            if owner(*s)? == my || owner(*d)? == my {
                local.added_edges.push((*s, *d, w.clone()));
            }
        }
        // A removed pair counts only if a local copy matches it: the net also
        // lists pairs whose every copy was added within the batch, and those
        // may name vertices this fragment has never seen.
        for &(s, d) in &net.removed_edges {
            if self.graph.out_edges(s).any(|(n, _)| n == d) {
                local.removed_edges.push((s, d));
            }
        }
        for &v in &net.removed_vertices {
            if self.graph.contains(v) {
                local.removed_vertices.push(v);
            }
        }
        if local.is_empty() {
            return Ok(None);
        }

        // 2. Vertices whose mirror status the batch can change: endpoints of
        //    its local edges and the neighbours of its removed vertices. The
        //    batch's lists are sorted, for bisection.
        let mut removed_v = local.removed_vertices.clone();
        removed_v.sort_unstable();
        removed_v.dedup();
        let is_removed = |v: &VertexId| removed_v.binary_search(v).is_ok();
        let mut removed_e = local.removed_edges.clone();
        removed_e.sort_unstable();
        // `(v, n)`: the batch adds an edge between `v` and `n`.
        let mut gained: Vec<(VertexId, VertexId)> = (local.added_edges.iter())
            .flat_map(|&(s, d, _)| [(s, d), (d, s)])
            .collect();
        gained.sort_unstable();
        let mut affected: Vec<VertexId> = gained.iter().map(|&(v, _)| v).collect();
        affected.extend(removed_e.iter().flat_map(|&(s, d)| [s, d]));
        for &v in &removed_v {
            affected.extend(self.graph.out_edges(v).map(|(n, _)| n));
            affected.extend(self.graph.in_edges(v).map(|(n, _)| n));
        }
        affected.sort_unstable();
        affected.dedup();
        affected.retain(|v| !is_removed(v));
        // The neighbours a vertex keeps or gains: its old adjacency run minus
        // the batch's removals, plus the batch's local additions.
        let neighbours = |v: VertexId| -> Vec<VertexId> {
            let graph = &self.graph;
            let kept_out = graph.out_edges(v).map(|(n, _)| (n, (v, n)));
            let kept_in = graph.in_edges(v).map(|(n, _)| (n, (n, v)));
            let from = gained.partition_point(|&(u, _)| u < v);
            let gained = gained[from..].iter().take_while(|&&(u, _)| u == v);
            kept_out
                .chain(kept_in)
                .filter(|(n, pair)| !is_removed(n) && removed_e.binary_search(pair).is_err())
                .map(|(n, _)| n)
                .chain(gained.map(|&(_, n)| n))
                .collect()
        };

        // 3. The mirror tables' changes, for those vertices only: a new
        //    mirror run for an inner vertex, an outer vertex gone or new.
        let mut changes: Vec<(VertexId, Vec<FragmentId>)> = Vec::new();
        // Whether an inner vertex starts or stops being mirrored anywhere.
        let mut mirrored_set_changed = false;
        let mut inner_gone: Vec<VertexId> = Vec::new();
        let mut outer_gone: Vec<VertexId> = Vec::new();
        let mut outer_new: Vec<(VertexId, u32)> = Vec::new();
        for &v in &removed_v {
            if self.is_inner(v) {
                if !self.mirrors_of(v).is_empty() {
                    changes.push((v, Vec::new()));
                    mirrored_set_changed = true;
                }
                inner_gone.push(v);
            } else {
                outer_gone.push(v);
            }
        }
        for &v in &affected {
            let home = owner(v)?;
            let neighbours = neighbours(v);
            if home == my {
                let mut fragments: Vec<FragmentId> = Vec::new();
                for n in neighbours {
                    fragments.push(owner(n)?);
                }
                fragments.retain(|&f| f != my);
                fragments.sort_unstable();
                fragments.dedup();
                let before = self.mirrors_of(v);
                if before == fragments.as_slice() {
                    continue;
                }
                mirrored_set_changed |= before.is_empty() || fragments.is_empty();
                changes.push((v, fragments));
            } else if neighbours.is_empty() {
                // Its last cut edge went: un-mirror.
                if self.is_outer(v) {
                    outer_gone.push(v);
                }
            } else if !self.is_outer(v) {
                outer_new.push((v, home as u32));
            }
        }
        changes.sort_unstable_by_key(|(v, _)| *v);
        let mut inner_new: Vec<VertexId> = local.added_vertices.iter().map(|(v, _)| *v).collect();
        let same_vertices = [&inner_gone, &outer_gone, &inner_new]
            .iter()
            .all(|list| list.is_empty())
            && outer_new.is_empty();
        if same_vertices && !mirrored_set_changed {
            // Edges only, and the border stays: the dense and border tables
            // carry over as they are, and so do the mirror runs unless one
            // of them changed.
            let mirrored_at = if changes.is_empty() {
                Arc::clone(&self.mirrored_at)
            } else {
                Arc::new(self.mirrors_with(&changes).1)
            };
            let graph = self.graph.patched(&local)?;
            return Ok(Some(self.with_graph_and_mirrors(graph, mirrored_at)));
        }
        outer_gone.sort_unstable();
        inner_new.sort_unstable();

        // 4. The local graph loses its un-mirrored vertices and gains the new
        //    mirrors, with the payloads the batch carries for them.
        local
            .removed_vertices
            .extend(outer_gone.iter().copied().filter(|v| !is_removed(v)));
        let mut inserted: Vec<(VertexId, &V)> =
            net.added_vertices.iter().map(|(v, d)| (*v, d)).collect();
        inserted.sort_unstable_by_key(|&(v, _)| v);
        for &(v, _) in &outer_new {
            let data = match batch.endpoint_data.binary_search_by_key(&v, |(u, _)| *u) {
                Ok(i) => Some(&batch.endpoint_data[i].1),
                Err(_) => {
                    (inserted.binary_search_by_key(&v, |&(u, _)| u).ok()).map(|i| inserted[i].1)
                }
            };
            local
                .added_vertices
                .push((v, data.cloned().unwrap_or_default()));
        }
        let graph = self.graph.patched(&local)?;
        // The id lists without what went and with what came, new mirrors
        // with the owners the batch names.
        let (mut inner, mut outer) = (Vec::new(), (Vec::new(), Vec::new()));
        let stays = |gone: &[VertexId], v| gone.binary_search(&v).is_err();
        merge_walk(self.inner_vertices(), &inner_new, |v, _, new| {
            if new.is_some() || stays(&inner_gone, v) {
                inner.push(v);
            }
        });
        let new_ids: Vec<VertexId> = outer_new.iter().map(|&(v, _)| v).collect();
        merge_walk(self.outer_vertices(), &new_ids, |v, old, new| {
            if new.is_some() || stays(&outer_gone, v) {
                outer.0.push(v);
                outer.1.push(match (old, new) {
                    (_, Some(j)) => outer_new[j].1,
                    _ => self.outer_owners()[old.expect("a kept mirror")],
                });
            }
        });
        Ok(Some(assemble_fragment(
            my,
            self.num_fragments,
            graph,
            inner,
            outer,
            self.mirrors_with(&changes),
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::build_fragments;
    use crate::strategy::{HashPartitioner, Partitioner};
    use crate::BuiltinStrategy;
    use grape_graph::generators::{erdos_renyi, road_network, RoadNetworkConfig};
    use grape_graph::{CsrGraph, DeltaGraph, GraphMutation};
    use std::collections::BTreeSet;

    fn assert_fragments_eq(
        incremental: &[Fragment<(), f64>],
        fresh: &[Fragment<(), f64>],
        context: &str,
    ) {
        assert_eq!(incremental.len(), fresh.len());
        for (a, b) in incremental.iter().zip(fresh) {
            assert_eq!(a.to_parts(), b.to_parts(), "{context}: fragment {}", a.id);
            assert_eq!(
                a.graph.edges().collect::<Vec<_>>(),
                b.graph.edges().collect::<Vec<_>>(),
                "{context}: CSR edge order of fragment {}",
                a.id
            );
            assert_eq!(a.border_vertices(), b.border_vertices(), "{context}");
            assert_eq!(
                a.mirrored_inner_border_positions(),
                b.mirrored_inner_border_positions(),
                "{context}"
            );
            // Every table, primary and derived, reverse adjacency included.
            assert!(a == b, "{context}: fragment {} differs in a table", a.id);
        }
    }

    /// Applies batches both ways — incrementally to resident fragments, and
    /// by re-cutting the updated graph from scratch — and demands bitwise
    /// equality after every batch. Returns the fragments after the last one.
    fn check_batches_on(
        g: CsrGraph<(), f64>,
        mut assignment: PartitionAssignment,
        batches: Vec<Vec<GraphMutation<(), f64>>>,
    ) -> Vec<Fragment<(), f64>> {
        let mut fragments = build_fragments(&g, &assignment);
        let mut delta = DeltaGraph::new(g);
        for (i, batch) in batches.into_iter().enumerate() {
            let receipt = delta.apply(&batch).expect("valid batch");
            let resolved = resolve_net_mutations(receipt.net, &mut assignment, |v| {
                delta.vertex_data(v).cloned()
            });
            fragments = fragments
                .iter()
                .map(|f| f.apply_mutations(&resolved).expect("apply"))
                .collect();
            let fresh = build_fragments(&delta.snapshot(true), &assignment);
            assert_fragments_eq(&fragments, &fresh, &format!("batch {i}"));
        }
        fragments
    }

    fn check_batches(seed: u64, k: usize, batches: Vec<Vec<GraphMutation<(), f64>>>) {
        let g = erdos_renyi(120, 0.04, seed).unwrap();
        let assignment = HashPartitioner.partition(&g, k);
        check_batches_on(g, assignment, batches);
    }

    /// Every distinct `(src, dst)` pair of the local edges at `v`.
    fn local_pairs(f: &Fragment<(), f64>, v: VertexId) -> BTreeSet<(VertexId, VertexId)> {
        let outgoing = f.graph.out_edges(v).map(|(n, _)| (v, n));
        let incoming = f.graph.in_edges(v).map(|(n, _)| (n, v));
        outgoing.chain(incoming).collect()
    }

    #[test]
    fn road_network_batches_match_a_fresh_cut_under_hash_and_metis() {
        let config = RoadNetworkConfig {
            width: 128,
            height: 128,
            ..Default::default()
        };
        for strategy in [BuiltinStrategy::Hash, BuiltinStrategy::MetisLike] {
            let g = road_network(config, 5).unwrap();
            let assignment = strategy.partition(&g, 4);
            let fragments = build_fragments(&g, &assignment);
            let f0 = &fragments[0];

            // A brand-new mirror: an edge from a vertex fragment 0 owns to
            // one it has never seen.
            let here = f0.inner_vertices()[0];
            let stranger = g.vertices().find(|&v| !f0.graph.contains(v)).unwrap();
            let new_mirror = vec![GraphMutation::AddEdge {
                src: here,
                dst: stranger,
                data: 2.5,
            }];
            // An un-mirror: every cut edge tying one mirror to fragment 0 goes.
            let mirror = *f0
                .outer_vertices()
                .iter()
                .min_by_key(|&&v| local_pairs(f0, v).len())
                .unwrap();
            let un_mirror: Vec<_> = local_pairs(f0, mirror)
                .into_iter()
                .map(|(src, dst)| GraphMutation::RemoveEdge { src, dst })
                .collect();
            // A vertex and edges to it, in one batch.
            let newcomer = 1_000_000;
            let vertex_then_edges = vec![
                GraphMutation::AddVertex {
                    id: newcomer,
                    data: (),
                },
                GraphMutation::AddEdge {
                    src: here,
                    dst: newcomer,
                    data: 1.0,
                },
                GraphMutation::AddEdge {
                    src: newcomer,
                    dst: stranger,
                    data: 4.0,
                },
            ];
            // And the mirror's owner loses it altogether.
            let vertex_gone = vec![GraphMutation::RemoveVertex { id: mirror }];

            // Only the two endpoint owners of the first batch are touched.
            let mut a = assignment.clone();
            let net = DeltaGraph::new(g.clone()).apply(&new_mirror).unwrap().net;
            let resolved = resolve_net_mutations(net, &mut a, |_| Some(()));
            let owners = [here, stranger].map(|v| assignment.fragment_of(v).unwrap());
            for f in &fragments {
                let spliced = f.splice_mutations(&resolved).unwrap();
                assert_eq!(spliced.is_some(), owners.contains(&f.id), "{strategy:?}");
            }

            let after = check_batches_on(
                g,
                assignment,
                vec![new_mirror, un_mirror, vertex_then_edges, vertex_gone],
            );
            assert!(after[0].is_outer(stranger), "{strategy:?}: new mirror");
            assert!(!after[0].graph.contains(mirror), "{strategy:?}: un-mirror");
            assert!(after.iter().any(|f| f.is_inner(newcomer)));
        }
    }

    /// Batches shaped like the service benchmark's updates: `count` inserts
    /// `v -> v + 1` between row-neighbours of a `width`-wide grid, both
    /// live, weights from 30 up, drawn from a seeded stream.
    fn row_neighbour_batches(
        g: &CsrGraph<(), f64>,
        width: u64,
        batches: usize,
        count: usize,
    ) -> Vec<Vec<GraphMutation<(), f64>>> {
        let ids = g.vertex_ids();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        (0..batches)
            .map(|_| {
                let mut batch = Vec::new();
                while batch.len() < count {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let p = (state % (ids.len() as u64 - 1)) as usize;
                    let (src, dst) = (ids[p], ids[p + 1]);
                    if dst == src + 1 && src / width == dst / width {
                        let data = 30.0 + batch.len() as f64;
                        batch.push(GraphMutation::AddEdge { src, dst, data });
                    }
                }
                batch
            })
            .collect()
    }

    #[test]
    fn row_neighbour_batches_match_a_fresh_cut_under_metis_and_hash() {
        // The benchmark's update shape: every insert parallels a grid edge,
        // so a batch mostly leaves every fragment's vertex set and border as
        // they are and takes the carry-over path; the inserts that land
        // where the grid lost its edge may still add a mirror.
        let config = RoadNetworkConfig {
            width: 96,
            height: 96,
            ..Default::default()
        };
        for strategy in [BuiltinStrategy::MetisLike, BuiltinStrategy::Hash] {
            let g = road_network(config, 3).unwrap();
            let assignment = strategy.partition(&g, 4);
            let before = build_fragments(&g, &assignment);
            let batches = row_neighbour_batches(&g, config.width as u64, 6, 8);
            let after = check_batches_on(g, assignment, batches);
            let kept = before.iter().zip(&after).filter(|(b, a)| {
                b.graph.vertex_ids() == a.graph.vertex_ids()
                    && b.border_vertices() == a.border_vertices()
            });
            assert!(
                kept.count() > 0,
                "{strategy:?}: some fragment keeps its tables"
            );
        }
    }

    #[test]
    fn a_new_cut_edge_that_mirrors_an_inner_vertex_reassembles_the_border() {
        // `here` is inner to fragment 0 and mirrored nowhere; `there` is
        // already a mirror on fragment 0. The edge between them adds no
        // local vertex to fragment 0, but makes `here` a border vertex: the
        // carry-over path must not run there.
        let config = RoadNetworkConfig {
            width: 32,
            height: 32,
            ..Default::default()
        };
        let g = road_network(config, 31).unwrap();
        let assignment = BuiltinStrategy::MetisLike.partition(&g, 3);
        let fragments = build_fragments(&g, &assignment);
        let f0 = &fragments[0];
        let here = *f0
            .inner_vertices()
            .iter()
            .find(|&&v| f0.mirrors_of(v).is_empty())
            .expect("an inner vertex that is mirrored nowhere");
        let there = f0.outer_vertices()[0];
        let batch = vec![GraphMutation::AddEdge {
            src: here,
            dst: there,
            data: 2.0,
        }];
        let after = check_batches_on(g, assignment, vec![batch]);
        assert_eq!(after[0].graph.vertex_ids(), f0.graph.vertex_ids());
        assert_eq!(after[0].mirrors_of(here), &[f0.owner_of(there).unwrap()]);
        assert!(after[0].border_vertices().contains(&here));
        assert!(!f0.border_vertices().contains(&here));
    }

    #[test]
    fn pairs_added_and_removed_within_a_batch_match_a_fresh_cut() {
        // The net lists such a pair as removed although no pre-batch copy
        // exists, so its far endpoint may be unknown to the fragment — in
        // the batch's owner table and in the local graph alike.
        let g = erdos_renyi(120, 0.04, 29).unwrap();
        let assignment = HashPartitioner.partition(&g, 3);
        let fragments = build_fragments(&g, &assignment);
        let f0 = &fragments[0];
        let here = f0.inner_vertices()[0];
        let strangers: Vec<VertexId> = g.vertices().filter(|&v| !f0.graph.contains(v)).collect();
        let (stranger, other) = (strangers[0], strangers[1]);
        let add = |src, dst| GraphMutation::AddEdge {
            src,
            dst,
            data: 1.5,
        };
        let churn = vec![
            add(here, stranger),
            GraphMutation::RemoveEdge {
                src: here,
                dst: stranger,
            },
            add(here, other),
        ];
        // Same, with the far endpoint itself gone by the end of the batch.
        let newcomer = 5_000;
        let churned_vertex = vec![
            GraphMutation::AddVertex {
                id: newcomer,
                data: (),
            },
            add(here, newcomer),
            GraphMutation::RemoveEdge {
                src: here,
                dst: newcomer,
            },
            GraphMutation::RemoveVertex { id: newcomer },
            add(stranger, here),
        ];
        // A batch that is churn only touches nothing.
        let net = DeltaGraph::new(g.clone()).apply(&churn[..2]).unwrap().net;
        assert_eq!(net.removed_edges, vec![(here, stranger)]);
        let resolved = resolve_net_mutations(net, &mut assignment.clone(), |_| Some(()));
        for f in &fragments {
            assert!(f.splice_mutations(&resolved).unwrap().is_none());
        }

        let after = check_batches_on(g, assignment, vec![churn, churned_vertex]);
        assert!(after[0].is_outer(other) && after[0].is_outer(stranger));
        assert!(!after[0].graph.contains(newcomer));
    }

    #[test]
    fn random_batches_match_a_fresh_cut() {
        // A seeded stream of mixed batches over a small dense graph, where
        // mirrors appear and vanish constantly; ids 0..80 over 60 resident
        // vertices make vertex inserts and re-targeted edges both likely.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = move |bound: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % bound
        };
        let g = erdos_renyi(60, 0.05, 23).unwrap();
        let assignment = HashPartitioner.partition(&g, 3);
        let mut live = DeltaGraph::new(g.clone());
        let mut batches = Vec::new();
        for _ in 0..60 {
            let mut batch = Vec::new();
            for _ in 0..draw(6) {
                let (a, b) = (draw(80), draw(80));
                let edges = live.live_edges();
                let mutation = match draw(5) {
                    0 => GraphMutation::AddVertex { id: a, data: () },
                    1 => GraphMutation::RemoveVertex { id: a },
                    2 if !edges.is_empty() => {
                        let edge = &edges[a as usize % edges.len()];
                        GraphMutation::RemoveEdge {
                            src: edge.src,
                            dst: edge.dst,
                        }
                    }
                    _ => GraphMutation::AddEdge {
                        src: a,
                        dst: b,
                        data: draw(9) as f64,
                    },
                };
                // Keep what the evolving graph accepts.
                if live.apply(std::slice::from_ref(&mutation)).is_ok() {
                    batch.push(mutation);
                }
            }
            batches.push(batch);
        }
        check_batches_on(g, assignment, batches);
    }

    #[test]
    fn edge_insertions_match_a_fresh_cut() {
        check_batches(
            7,
            3,
            vec![
                vec![
                    GraphMutation::AddEdge {
                        src: 3,
                        dst: 90,
                        data: 0.5,
                    },
                    GraphMutation::AddEdge {
                        src: 90,
                        dst: 3,
                        data: 0.25,
                    },
                    GraphMutation::AddEdge {
                        src: 1,
                        dst: 2,
                        data: 1.5,
                    },
                ],
                // A second batch with a parallel copy of an existing pair.
                vec![GraphMutation::AddEdge {
                    src: 3,
                    dst: 90,
                    data: 0.75,
                }],
            ],
        );
    }

    #[test]
    fn vertex_insertions_land_on_their_hash_owner() {
        let g = erdos_renyi(80, 0.05, 11).unwrap();
        let mut assignment = HashPartitioner.partition(&g, 4);
        let fragments = build_fragments(&g, &assignment);
        let mut delta = DeltaGraph::new(g);
        let receipt = delta
            .apply(&[
                GraphMutation::AddVertex { id: 500, data: () },
                GraphMutation::AddEdge {
                    src: 500,
                    dst: 0,
                    data: 1.0,
                },
                GraphMutation::AddEdge {
                    src: 7,
                    dst: 500,
                    data: 2.0,
                },
            ])
            .unwrap();
        let resolved = resolve_net_mutations(receipt.net, &mut assignment, |v| {
            delta.vertex_data(v).cloned()
        });
        assert_eq!(assignment.fragment_of(500), Some(hash_fragment_of(500, 4)));
        let updated: Vec<_> = fragments
            .iter()
            .map(|f| f.apply_mutations(&resolved).unwrap())
            .collect();
        let home = hash_fragment_of(500, 4);
        assert!(updated[home].is_inner(500));
        for (i, f) in updated.iter().enumerate() {
            if i != home {
                assert!(!f.is_inner(500));
            }
        }
        assert_fragments_eq(
            &updated,
            &build_fragments(&delta.snapshot(true), &assignment),
            "vertex insert",
        );
    }

    #[test]
    fn mixed_batches_with_deletions_match_a_fresh_cut() {
        // Find a few edges that actually exist so removals are valid.
        let g = erdos_renyi(120, 0.04, 13).unwrap();
        let existing: Vec<(VertexId, VertexId)> =
            g.edges().map(|(s, d, _)| (s, d)).take(4).collect();
        let mut batches = vec![vec![
            GraphMutation::RemoveEdge {
                src: existing[0].0,
                dst: existing[0].1,
            },
            GraphMutation::AddEdge {
                src: existing[0].0,
                dst: existing[0].1,
                data: 42.0,
            },
            GraphMutation::AddVertex { id: 300, data: () },
            GraphMutation::AddEdge {
                src: 300,
                dst: existing[1].0,
                data: 3.0,
            },
        ]];
        batches.push(vec![
            GraphMutation::RemoveEdge {
                src: existing[2].0,
                dst: existing[2].1,
            },
            GraphMutation::RemoveVertex { id: existing[3].0 },
        ]);
        check_batches(13, 4, batches);
    }

    #[test]
    fn removing_a_border_vertex_rewires_the_border_tables() {
        // Pick a vertex that is mirrored somewhere so its removal must shrink
        // border tables on several fragments at once.
        let g = erdos_renyi(100, 0.06, 17).unwrap();
        let assignment = HashPartitioner.partition(&g, 3);
        let fragments = build_fragments(&g, &assignment);
        let victim = *fragments[0]
            .mirrored_inner_vertices()
            .first()
            .expect("dense ER graph has cross edges");
        check_batches(
            17,
            3,
            vec![vec![GraphMutation::RemoveVertex { id: victim }]],
        );
    }

    #[test]
    fn empty_batches_are_identity() {
        let g = erdos_renyi(60, 0.05, 19).unwrap();
        let mut assignment = HashPartitioner.partition(&g, 2);
        let fragments = build_fragments(&g, &assignment);
        let net: NetMutations<(), f64> = NetMutations::default();
        let resolved = resolve_net_mutations(net, &mut assignment, |_| Some(()));
        assert!(resolved.is_empty());
        for f in &fragments {
            let back = f.apply_mutations(&resolved).unwrap();
            assert_eq!(back.to_parts(), f.to_parts());
        }
    }
}
