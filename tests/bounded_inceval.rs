//! IncEval publishes what changed, and nothing else moves.
//!
//! * The pinned traces: sssp (two sources) and pagerank on a 48×48 road grid
//!   under Hash and MetisLike cuts, k = 4, over the framed transport. Every
//!   superstep's `changed_parameters`, `changed_slots`, `published_updates`,
//!   `messages` and `bytes`, and the answer, are pinned by digest: a change
//!   to how a program publishes may make IncEval cheaper, never move a frame.
//! * Each program leaves its IncEval pairs for `drain_dirty_into` in
//!   ascending border position, the order a walk over the border gives.
//! * The paper's F-inc experiment as an assertion: after PEval, one late
//!   message costs IncEval at most one publication per local vertex whose
//!   value changed, not a pass over the border.

use grape::algo::pagerank::PageRankPartial;
use grape::algo::query::digest_f64_map;
use grape::algo::sssp::SsspPartial;
use grape::core::{Wire, WireReader};
use grape::graph::generators::{road_network, RoadNetworkConfig};
use grape::prelude::*;
use proptest::prelude::*;

/// FNV-1a over the per-superstep exchange figures, in superstep order.
fn trace_digest(stats: &RunStats) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for t in &stats.history {
        let row = [
            t.superstep as u64,
            t.changed_parameters as u64,
            t.changed_slots as u64,
            t.published_updates as u64,
            t.messages,
            t.bytes,
        ];
        for word in row {
            for b in word.to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x1000_0000_01b3);
            }
        }
    }
    h
}

/// What a run pins: supersteps, messages, bytes, the trace digest and the
/// answer digest.
type Pinned = (usize, u64, u64, u64, u64);

fn pinned(stats: &RunStats, answer: u64) -> Pinned {
    (
        stats.supersteps,
        stats.messages,
        stats.bytes,
        trace_digest(stats),
        answer,
    )
}

#[test]
fn inceval_traces_are_pinned() {
    let graph = road_network(
        RoadNetworkConfig {
            width: 48,
            height: 48,
            ..Default::default()
        },
        7,
    )
    .unwrap();
    let config = EngineConfig::builder()
        .transport(TransportKind::Framed)
        .build();
    let ids = graph.vertex_ids();
    let sources = [ids[0], ids[ids.len() / 2]];
    let pagerank = PageRankProgram::new(graph.num_vertices());
    let mut got: Vec<(String, Pinned)> = Vec::new();
    for strategy in [BuiltinStrategy::Hash, BuiltinStrategy::MetisLike] {
        let fragments = build_fragments(&graph, &strategy.partition(&graph, 4));
        for source in sources {
            let run = GrapeEngine::new(SsspProgram)
                .with_config(config.clone())
                .run(&SsspQuery::new(source), &fragments)
                .unwrap();
            let what = format!("{strategy:?} sssp from {source}");
            got.push((what, pinned(&run.stats, digest_f64_map(&run.output))));
        }
        let run = GrapeEngine::new(pagerank)
            .with_config(config.clone())
            .run(&PageRankQuery::default(), &fragments)
            .unwrap();
        let what = format!("{strategy:?} pagerank");
        got.push((what, pinned(&run.stats, digest_f64_map(&run.output))));
    }
    // Taken before IncEval published from a changed list: every pass over
    // the border it skips must publish nothing, so none of these moves.
    let expected: [Pinned; 6] = [
        (33, 254, 396_875, 2902022372672512566, 4426320613203598684),
        (30, 232, 327_360, 3217828483532495459, 13529261383170765730),
        (27, 212, 1_158_314, 4626471670344692587, 5796473864264876851),
        (5, 32, 8_912, 796672358031779576, 4426320613203598684),
        (4, 28, 9_018, 12588721761720352407, 13529261383170765730),
        (13, 98, 42_749, 1306848825267568346, 6283633548565301955),
    ];
    assert_eq!(got.len(), expected.len());
    for ((what, pinned), expected) in got.iter().zip(expected) {
        assert_eq!(*pinned, expected, "{what}");
    }
}

/// Runs `program` to its fixpoint by hand, without the engine: PEval on every
/// fragment, then rounds in which every changed border value is folded with
/// `aggregate` and delivered to every other fragment holding that vertex on
/// its border, by position. `check` sees each IncEval's drained pairs, with
/// the fragment index.
fn exchange_by_hand<P: PieProgram>(
    program: &P,
    query: &P::Query,
    fragments: &[Fragment<P::VertexData, P::EdgeData>],
    mut check: impl FnMut(usize, &[(u32, P::Value)]),
) {
    use std::collections::BTreeMap;
    let mut ctxs: Vec<PieContext<P::Value>> = fragments
        .iter()
        .map(|f| {
            let mut ctx = PieContext::new();
            ctx.configure_borders(f.border_vertices());
            ctx
        })
        .collect();
    let mut partials: Vec<P::Partial> = fragments
        .iter()
        .zip(&mut ctxs)
        .map(|(f, ctx)| program.peval(query, f, ctx))
        .collect();
    let drain = |ctx: &mut PieContext<P::Value>| {
        let (mut changes, mut strays) = (Vec::new(), Vec::new());
        ctx.drain_dirty_into(&mut changes, &mut strays);
        assert!(strays.is_empty());
        changes
    };
    let mut reported: Vec<Vec<(u32, P::Value)>> = ctxs.iter_mut().map(drain).collect();
    for _ in 0..10_000 {
        let mut inbox: Vec<BTreeMap<u32, P::Value>> = vec![BTreeMap::new(); fragments.len()];
        for (from, changes) in reported.iter().enumerate() {
            for (pos, value) in changes {
                let v = fragments[from].border_vertices()[*pos as usize];
                for (to, f) in fragments.iter().enumerate() {
                    let Some(at) = f.border_position(v).filter(|_| to != from) else {
                        continue;
                    };
                    inbox[to]
                        .entry(at)
                        .and_modify(|held| *held = program.aggregate(held, value))
                        .or_insert_with(|| value.clone());
                }
            }
        }
        if inbox.iter().all(BTreeMap::is_empty) {
            return;
        }
        for (i, messages) in inbox.into_iter().enumerate() {
            let messages: Vec<(u32, P::Value)> = messages.into_iter().collect();
            program.inceval(
                query,
                &fragments[i],
                &mut partials[i],
                &messages,
                &mut ctxs[i],
            );
            for (pos, value) in &messages {
                ctxs[i].absorb(*pos, value);
            }
            reported[i] = drain(&mut ctxs[i]);
            check(i, &reported[i]);
        }
    }
    panic!("{} did not reach a fixpoint", program.name());
}

#[test]
fn inceval_leaves_its_pairs_in_ascending_position_order() {
    let graph = road_network(
        RoadNetworkConfig {
            width: 20,
            height: 20,
            ..Default::default()
        },
        3,
    )
    .unwrap();
    let pagerank = PageRankProgram::new(graph.num_vertices());
    for strategy in [BuiltinStrategy::Hash, BuiltinStrategy::MetisLike] {
        let fragments = build_fragments(&graph, &strategy.partition(&graph, 4));
        let mut orders = 0;
        let mut ascending = |i: usize, pairs: &[(u32, f64)]| {
            orders += usize::from(pairs.len() > 1);
            assert!(
                pairs.windows(2).all(|w| w[0].0 < w[1].0),
                "{strategy:?}, fragment {i}: {pairs:?}"
            );
        };
        exchange_by_hand(&SsspProgram, &SsspQuery::new(0), &fragments, &mut ascending);
        exchange_by_hand(
            &pagerank,
            &PageRankQuery::default(),
            &fragments,
            &mut ascending,
        );
        assert!(orders > 8, "{strategy:?}: {orders} reports had an order");
    }
}

/// A directed chain of `size²` vertices, or a `size × size` grid with both
/// directions of every edge; weights 1–5, a function of the endpoints.
fn chain_or_grid(grid: bool, size: u64) -> WeightedGraph {
    let mut b = GraphBuilder::<(), f64>::new();
    let mut edge = |u: u64, v: u64| {
        b.add_edge(u, v, 1.0 + ((u * 7 + v) % 5) as f64);
    };
    if grid {
        for u in 0..size * size {
            let right = (u % size + 1 < size).then_some(u + 1);
            let down = (u + size < size * size).then_some(u + size);
            for v in right.into_iter().chain(down) {
                edge(u, v);
                edge(v, u);
            }
        }
    } else {
        for u in 0..size * size - 1 {
            edge(u, u + 1);
        }
    }
    b.build().unwrap()
}

/// The F-inc experiment on one fragment set: PEval on every fragment, then
/// one late message — a pair some fragment's PEval published, delivered to
/// one other fragment holding that vertex on its border (`pick` chooses
/// which) — and one IncEval there. Returns that IncEval's `update_calls`
/// and the number of its local vertices whose value (`values`, as bits)
/// changed; `None` when PEval published nothing another fragment holds.
fn one_late_message<P: PieProgram>(
    program: &P,
    query: &P::Query,
    fragments: &[Fragment<P::VertexData, P::EdgeData>],
    pick: usize,
    values: impl Fn(&P, &P::Partial) -> Vec<u64>,
) -> Option<(u64, usize)> {
    let mut ctxs: Vec<PieContext<P::Value>> = Vec::new();
    let mut partials = Vec::new();
    let mut late = Vec::new();
    for (from, f) in fragments.iter().enumerate() {
        let mut ctx = PieContext::new();
        ctx.configure_borders(f.border_vertices());
        partials.push(program.peval(query, f, &mut ctx));
        let (mut changes, mut strays) = (Vec::new(), Vec::new());
        ctx.drain_dirty_into(&mut changes, &mut strays);
        for (pos, value) in changes {
            let v = f.border_vertices()[pos as usize];
            for (to, g) in fragments.iter().enumerate().filter(|&(to, _)| to != from) {
                if let Some(at) = g.border_position(v) {
                    late.push((to, at, value.clone()));
                }
            }
        }
        ctxs.push(ctx);
    }
    let (to, at, value) = late.get(pick % late.len().max(1))?.clone();
    let (ctx, partial) = (&mut ctxs[to], &mut partials[to]);
    let (calls, before) = (ctx.update_calls(), values(program, partial));
    program.inceval(query, &fragments[to], partial, &[(at, value)], ctx);
    let after = values(program, partial);
    let changed = before.iter().zip(&after).filter(|(b, a)| b != a).count();
    Some((ctx.update_calls() - calls, changed))
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn one_late_message_costs_inceval_what_it_changes(
        grid in 0u8..2,
        size in 3u64..12,
        k in 0usize..2,
        cut in 0u8..2,
        pick in 0usize..10_000,
    ) {
        let graph = chain_or_grid(grid == 1, size);
        let k = [2, 4][k];
        let strategy = [BuiltinStrategy::Hash, BuiltinStrategy::Range][cut as usize];
        let fragments = build_fragments(&graph, &strategy.partition(&graph, k));
        let what = format!("{strategy:?}, k = {k}, grid = {grid}, size = {size}");

        // sssp: the vertices whose distance improved.
        let dist = |_: &SsspProgram, p: &SsspPartial| bits(p.dist.as_slice());
        let sssp = one_late_message(&SsspProgram, &SsspQuery::new(0), &fragments, pick, dist);
        if let Some((calls, changed)) = sssp {
            prop_assert!(calls <= changed as u64, "sssp, {what}: {calls} calls, {changed} changed");
        }

        // pagerank: the vertices whose rank was rewritten. PEval runs to
        // its fixpoint, so IncEval sweeps the late share's cone only. The
        // ranks are the snapshot's first column.
        let program = PageRankProgram::new(graph.num_vertices());
        let query = PageRankQuery { max_local_iterations: 1_000, ..Default::default() };
        let rank = |program: &PageRankProgram, p: &PageRankPartial| {
            let snapshot = program.snapshot_partial(p).unwrap();
            bits(&Vec::<f64>::decode(&mut WireReader::new(&snapshot)).unwrap())
        };
        let pagerank = one_late_message(&program, &query, &fragments, pick, rank);
        if let Some((calls, changed)) = pagerank {
            prop_assert!(
                calls <= changed as u64,
                "pagerank, {what}: {calls} calls, {changed} changed"
            );
        }
    }
}
