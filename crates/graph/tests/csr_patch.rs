//! The CSR splice against its oracle: for random graphs and random net
//! batches, [`CsrGraph::patched`] must equal — field for field, reverse
//! arrays and `in_edge_pos` included — the graph [`CsrGraph::from_records`]
//! builds from the equivalent records ([`DeltaGraph::snapshot`]).

use grape_graph::types::EdgeRecord;
use grape_graph::{CsrGraph, DeltaGraph, GraphMutation, VertexId};
use proptest::prelude::*;

type Graph = CsrGraph<u8, u32>;
type Mutation = GraphMutation<u8, u32>;

/// Vertex `i` of the base graph: ids leave gaps, so inserted vertices land
/// before, between and after the old ones and shift their dense indices.
fn base_id(i: u64) -> VertexId {
    3 * i + 1
}

/// One raw draw, turned into mutations valid for the evolving graph.
type Draw = (u8, u64, u64, u32);

/// Vertex count, base edges over vertex positions, and the draws of each batch.
type Case = (usize, Vec<(u64, u64, u32)>, Vec<Vec<Draw>>);

fn arb_case() -> impl Strategy<Value = Case> {
    (2usize..14).prop_flat_map(|n| {
        let edges = proptest::collection::vec((0..n as u64, 0..n as u64, 1u32..50), 0..40);
        let draw = (0u8..6, 0u64..64, 0u64..64, 1u32..50);
        let batches = proptest::collection::vec(proptest::collection::vec(draw, 0..12), 1..4);
        (edges, batches).prop_map(move |(edges, batches)| (n, edges, batches))
    })
}

fn base_graph(n: usize, edges: &[(u64, u64, u32)], with_reverse: bool) -> Graph {
    let vertices = (0..n as u64).map(|i| (base_id(i), i as u8)).collect();
    let edges = edges
        .iter()
        .map(|&(s, d, w)| EdgeRecord::new(base_id(s), base_id(d), w))
        .collect();
    CsrGraph::from_records(vertices, edges, with_reverse).expect("base graph")
}

/// Expands a draw against the live view: every shape the splice must handle.
fn expand(live: &DeltaGraph<u8, u32>, (kind, a, b, w): Draw) -> Vec<Mutation> {
    let vertices = live.vertices();
    let edges = live.live_edges();
    let vertex = |x: u64| vertices[x as usize % vertices.len()];
    let edge = |x: u64| &edges[x as usize % edges.len()];
    match kind {
        0 if !vertices.is_empty() => vec![GraphMutation::AddEdge {
            src: vertex(a),
            dst: vertex(b),
            data: w,
        }],
        1 if !edges.is_empty() => vec![GraphMutation::RemoveEdge {
            src: edge(a).src,
            dst: edge(a).dst,
        }],
        // A new vertex (ids 0..64 interleave with the base ids), wired in.
        2 => {
            let mut out = vec![GraphMutation::AddVertex {
                id: a,
                data: w as u8,
            }];
            if !vertices.is_empty() {
                out.push(GraphMutation::AddEdge {
                    src: vertex(b),
                    dst: a,
                    data: w,
                });
            }
            out
        }
        3 if !vertices.is_empty() => vec![GraphMutation::RemoveVertex { id: vertex(a) }],
        // Re-add of a removed edge: the pair is in both net lists.
        4 if !edges.is_empty() => vec![
            GraphMutation::RemoveEdge {
                src: edge(a).src,
                dst: edge(a).dst,
            },
            GraphMutation::AddEdge {
                src: edge(a).src,
                dst: edge(a).dst,
                data: w,
            },
        ],
        // Empty one vertex's whole adjacency run.
        5 if !vertices.is_empty() => {
            let src = vertex(a);
            let mut targets: Vec<VertexId> =
                live.out_edges(src).into_iter().map(|(d, _)| d).collect();
            targets.sort_unstable();
            targets.dedup();
            targets
                .into_iter()
                .map(|dst| GraphMutation::RemoveEdge { src, dst })
                .collect()
        }
        _ => Vec::new(),
    }
}

/// Expands a draw into mutations that add and remove no vertex, so the
/// batch takes the edges-only splice: parallel copies of live edges,
/// self-loops, removals, and pairs added and removed within the batch, which
/// the net lists as removed although no edge of the graph matches them.
fn expand_edges_only(live: &DeltaGraph<u8, u32>, (kind, a, b, w): Draw) -> Vec<Mutation> {
    let vertices = live.vertices();
    let edges = live.live_edges();
    if vertices.is_empty() {
        return Vec::new();
    }
    let vertex = |x: u64| vertices[x as usize % vertices.len()];
    let add = |src, dst| GraphMutation::AddEdge { src, dst, data: w };
    let remove = |src, dst| GraphMutation::RemoveEdge { src, dst };
    match kind {
        0 if !edges.is_empty() => {
            let e = &edges[a as usize % edges.len()];
            vec![add(e.src, e.dst)]
        }
        1 => vec![add(vertex(a), vertex(a))],
        2 if !edges.is_empty() => {
            let e = &edges[a as usize % edges.len()];
            vec![remove(e.src, e.dst)]
        }
        3 => {
            let (src, dst) = (vertex(a), vertex(b));
            if live.out_edges(src).iter().any(|&(d, _)| d == dst) {
                return Vec::new();
            }
            vec![add(src, dst), remove(src, dst)]
        }
        4 if !edges.is_empty() => {
            let e = &edges[a as usize % edges.len()];
            vec![remove(e.src, e.dst), add(e.src, e.dst)]
        }
        _ => vec![add(vertex(a), vertex(b))],
    }
}

fn check(n: usize, edges: &[(u64, u64, u32)], batches: &[Vec<Draw>], with_reverse: bool) {
    check_expanded(expand, n, edges, batches, with_reverse);
}

/// Replays the draws of every batch through `expand` against the evolving
/// graph, and holds each splice equal to a rebuild; returns the net batches.
fn check_expanded(
    expand: fn(&DeltaGraph<u8, u32>, Draw) -> Vec<Mutation>,
    n: usize,
    edges: &[(u64, u64, u32)],
    batches: &[Vec<Draw>],
    with_reverse: bool,
) -> Vec<grape_graph::NetMutations<u8, u32>> {
    let mut nets = Vec::new();
    let mut patched = base_graph(n, edges, with_reverse);
    // The overlay keeps the live view, the splice keeps up.
    let mut live = DeltaGraph::new(patched.clone());
    for draws in batches {
        // Draws that the evolving graph rejects (a duplicate vertex id, say)
        // are dropped one by one; the rest form the batch.
        let mut scratch = live.clone();
        let mut batch = Vec::new();
        for &draw in draws {
            let mutations = expand(&scratch, draw);
            if scratch.apply(&mutations).is_ok() {
                batch.extend(mutations);
            }
        }
        let net = live.apply(&batch).expect("every kept draw was valid").net;
        patched = patched.patched(&net).expect("patch");
        assert_eq!(patched, live.snapshot(with_reverse), "batch {batch:?}");
        nets.push(net);
    }
    nets
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn patched_equals_from_records(case in arb_case()) {
        let (n, edges, batches) = case;
        check(n, &edges, &batches, true);
        check(n, &edges, &batches, false);
    }

    #[test]
    fn edges_only_patches_equal_from_records(case in arb_case()) {
        let (n, edges, batches) = case;
        for with_reverse in [true, false] {
            let nets = check_expanded(expand_edges_only, n, &edges, &batches, with_reverse);
            for net in nets {
                prop_assert!(net.added_vertices.is_empty() && net.removed_vertices.is_empty());
            }
        }
    }
}

#[test]
fn patch_rejects_inconsistent_batches() {
    use grape_graph::{GraphError, NetMutations};
    let g = base_graph(3, &[(0, 1, 7)], true);
    let unknown_removed = NetMutations {
        removed_vertices: vec![99],
        ..NetMutations::default()
    };
    assert_eq!(
        g.patched(&unknown_removed).unwrap_err(),
        GraphError::UnknownVertex(99)
    );
    let duplicate = NetMutations {
        added_vertices: vec![(base_id(1), 0)],
        ..NetMutations::default()
    };
    assert!(matches!(
        g.patched(&duplicate),
        Err(GraphError::InvalidParameter(_))
    ));
    let dangling = NetMutations {
        added_edges: vec![(base_id(0), 99, 1)],
        ..NetMutations::default()
    };
    assert_eq!(
        g.patched(&dangling).unwrap_err(),
        GraphError::UnknownVertex(99)
    );
    // A removed pair that matches nothing is not an error.
    let harmless = NetMutations {
        removed_edges: vec![(base_id(2), base_id(0)), (98, 99)],
        ..NetMutations::default()
    };
    assert_eq!(g.patched(&harmless).unwrap(), g);
}
