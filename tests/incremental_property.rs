//! Property test for cross-run incremental IncEval: after random mutation
//! batches (inserts, then deletes) on a resident session, resubmitted queries
//! must match a cold session that replays the same batches and answers from
//! scratch — across partition strategies, worker counts and all three
//! transports (in-process, TCP, Unix-domain sockets). SSSP and CC have unique
//! fixpoints, so their answers must be bit-identical; PageRank's quantized
//! grid admits a cluster of fixpoints, so warm answers must land within the
//! documented cluster radius of the cold one.

use grape::prelude::*;
use grape::{GrapeService, Query, ServiceOptions, Session, SessionConfig, SessionGraph};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Strategy: a random weighted edge list over `n` vertices.
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = WeightedGraph> {
    (2..max_n, 1..max_m).prop_flat_map(|(n, m)| {
        let edges = proptest::collection::vec((0..n as u64, 0..n as u64, 1u32..20), 1..m.max(2));
        edges.prop_map(move |edges| {
            let mut b = GraphBuilder::<(), f64>::new();
            for v in 0..n as u64 {
                b.ensure_vertex(v);
            }
            for (s, d, w) in edges {
                b.add_edge(s, d, w as f64 / 2.0);
            }
            b.build().expect("valid edges")
        })
    })
}

/// PageRank whose local sweeps always drain their frontier, so each run is
/// fully deterministic given its start point. Warm and cold starts may still
/// settle on different members of the quantized-fixpoint cluster; the test
/// checks the documented per-vertex radius instead of bit equality.
fn patient_pagerank() -> Query {
    Query::PageRank {
        damping: 0.85,
        max_local_iterations: 400,
        tolerance: 1e-6,
    }
}

/// The query parameters of [`patient_pagerank`], for the cluster radius.
fn patient_pagerank_query() -> PageRankQuery {
    PageRankQuery {
        damping: 0.85,
        max_local_iterations: 400,
        tolerance: 1e-6,
    }
}

/// Asserts a warm answer matches the cold reference: bit-identical result and
/// digest for the unique-fixpoint classes (SSSP, CC), same vertex set and
/// per-vertex gap within the fixpoint cluster radius for PageRank.
fn assert_matches_cold(
    query: &Query,
    warm: &QueryOutcome,
    cold: &QueryOutcome,
    num_edges: usize,
    context: &str,
) -> Result<(), TestCaseError> {
    if matches!(query, Query::PageRank { .. }) {
        let radius = patient_pagerank_query().fixpoint_cluster_radius(num_edges);
        let (QueryResult::Ranks(w), QueryResult::Ranks(c)) = (&warm.result, &cold.result) else {
            return Err(TestCaseError::fail(format!(
                "{context}: pagerank returned a non-rank result"
            )));
        };
        prop_assert_eq!(w.len(), c.len(), "{}: rank vertex sets differ", context);
        for (v, r) in c {
            let wv = w.get(v).copied();
            prop_assert!(
                wv.is_some(),
                "{}: vertex {} missing from warm ranks",
                context,
                v
            );
            let gap = (wv.unwrap() - r).abs();
            prop_assert!(
                gap <= radius,
                "{}: rank of vertex {} off by {:e} > cluster radius {:e}",
                context,
                v,
                gap,
                radius
            );
        }
    } else {
        prop_assert_eq!(&warm.result, &cold.result, "{}: answer diverged", context);
        prop_assert_eq!(warm.result.digest(), cold.result.digest());
    }
    Ok(())
}

/// The cold reference: a fresh in-process session that replays the same
/// update batches and then answers for the first time — identical
/// incrementally-updated fragments, empty converged cache.
fn replay_cold(
    graph: &WeightedGraph,
    batches: &[Vec<GraphMutation<(), f64>>],
    strategy: BuiltinStrategy,
    workers: usize,
    query: Query,
) -> QueryOutcome {
    let session = Session::connect(SessionConfig::in_process(workers)).expect("connect");
    session
        .load(&SessionGraph::from(graph.clone()), strategy)
        .expect("load");
    for batch in batches {
        session.update(batch.clone()).expect("replay update");
    }
    session
        .submit(query)
        .expect("submit")
        .join()
        .expect("cold query")
}

/// `run` and `run_incremental` with no seeds through every observable: the
/// answer, the supersteps, the messages and the bytes.
fn assert_no_seeds_is_cold<P>(
    program: P,
    query: &P::Query,
    fragments: &[Fragment<P::VertexData, P::EdgeData>],
) where
    P: PieProgram + Clone,
    P::Output: PartialEq + std::fmt::Debug,
{
    for transport in [TransportKind::InProcess, TransportKind::Framed] {
        let config = EngineConfig::builder().transport(transport).build();
        let engine = GrapeEngine::new(program.clone()).with_config(config);
        let cold = engine.run(query, fragments).expect("cold run");
        let unseeded = engine
            .run_incremental(query, fragments, &[])
            .expect("run without seeds");
        let name = engine.program().name();
        assert_eq!(unseeded.output, cold.output, "{name}");
        assert_eq!(unseeded.stats.supersteps, cold.stats.supersteps, "{name}");
        assert_eq!(unseeded.stats.messages, cold.stats.messages, "{name}");
        assert_eq!(unseeded.stats.bytes, cold.stats.bytes, "{name}");
    }
}

/// The degenerate case the one run path rests on: a cold run *is* the warm
/// run with no seed, for a program of every warm-start rule (insert-only,
/// delete-only, always).
#[test]
fn a_run_with_no_seeds_is_the_cold_run() {
    use grape::graph::generators::{barabasi_albert, labeled_social, SocialGraphConfig};
    let graph = barabasi_albert(300, 3, 7).expect("generator");
    let fragments = build_fragments(&graph, &BuiltinStrategy::Hash.partition(&graph, 4));
    assert_no_seeds_is_cold(SsspProgram, &SsspQuery::new(0), &fragments);
    assert_no_seeds_is_cold(CcProgram, &CcQuery, &fragments);
    let ranks = PageRankProgram::new(graph.num_vertices());
    assert_no_seeds_is_cold(ranks, &patient_pagerank_query(), &fragments);

    let config = SocialGraphConfig {
        num_persons: 60,
        num_products: 6,
        ..Default::default()
    };
    let social = labeled_social(config, 21).expect("generator");
    let fragments = build_fragments(&social, &BuiltinStrategy::Hash.partition(&social, 3));
    let Some(Ok(pattern)) = Query::canonical_sim().to_sim() else {
        panic!("the canonical sim query is a valid pattern")
    };
    assert_no_seeds_is_cold(SimProgram, &pattern, &fragments);
}

/// Classes in a cc snapshot's component map (`comp[i] == i` marks a root);
/// the map is the fourth field of the snapshot.
fn cc_snapshot_classes(snapshot: &[u8]) -> usize {
    use grape::core::{Wire, WireReader};
    let mut reader = WireReader::new(snapshot);
    Vec::<VertexId>::decode(&mut reader).expect("labels");
    Vec::<VertexId>::decode(&mut reader).expect("vertex ids");
    DenseBitset::decode(&mut reader).expect("owner marker");
    let comp = Vec::<u32>::decode(&mut reader).expect("component map");
    comp.iter()
        .zip(0u32..)
        .filter(|&(&root, i)| root == i)
        .count()
}

/// CC's IncEval joins a fragment's classes through other fragments (pointer
/// jumping), so a converged partial's component map is coarser than the
/// fragment's local components. A warm start adopts that map as its
/// union-find forest: the snapshot must restore, and an insert-only batch
/// seeded from it must answer exactly as the cold run does.
#[test]
fn cc_warm_start_adopts_the_forest_pointer_jumping_left() {
    use grape::algo::cc::sequential_cc;
    use grape::core::IncrementalSeed;
    use grape::graph::generators::{road_network, RoadNetworkConfig};
    use std::sync::Arc;
    let config = RoadNetworkConfig {
        width: 32,
        height: 32,
        removal_prob: 0.2,
        ..Default::default()
    };
    let grid = road_network(config, 5).expect("generator");
    for k in [2, 4] {
        let assignment = BuiltinStrategy::Hash.partition(&grid, k);
        let fragments = build_fragments(&grid, &assignment);
        let engine = GrapeEngine::new(CcProgram);
        let (partials, _) = engine
            .run_partials(&CcQuery, &fragments, &[])
            .expect("cold");
        let mut snapshots = Vec::new();
        let mut joined = false;
        for (partial, fragment) in partials.iter().zip(&fragments) {
            let snapshot = CcProgram.snapshot_partial(partial).expect("cc snapshots");
            assert!(CcProgram.restore_partial(&snapshot).is_some(), "k={k}");
            let local: HashSet<_> = sequential_cc(&fragment.graph).into_values().collect();
            let classes = cc_snapshot_classes(&snapshot);
            assert!(classes <= local.len(), "k={k}");
            joined |= classes < local.len();
            snapshots.push(Arc::new(snapshot));
        }
        assert!(joined, "k={k}: no fragment joined classes");

        // Far-apart pairs under one owner: every fragment keeps its vertex
        // set, so each warm start adopts its old forest as it stands.
        let ids: Vec<VertexId> = grid.vertices().collect();
        let owner = |v: VertexId| assignment.fragment_of(v).expect("assigned");
        let batch: Vec<GraphMutation<(), f64>> = ids
            .iter()
            .step_by(61)
            .filter_map(|&u| {
                let v = *ids.iter().rev().find(|&&v| owner(v) == owner(u))?;
                (v != u).then_some(GraphMutation::AddEdge {
                    src: u,
                    dst: v,
                    data: 1.0,
                })
            })
            .collect();
        assert!(!batch.is_empty());
        let mut delta = DeltaGraph::new(grid.clone());
        delta.apply(&batch).expect("insert batch applies");
        let updated = delta.snapshot(grid.has_reverse());
        let updated_fragments = build_fragments(&updated, &assignment);
        for (old, new) in fragments.iter().zip(&updated_fragments) {
            assert_eq!(old.graph.vertex_ids(), new.graph.vertex_ids());
        }
        let mut dirty: Vec<VertexId> = batch
            .iter()
            .flat_map(|m| match m {
                GraphMutation::AddEdge { src, dst, .. } => [*src, *dst],
                _ => unreachable!("an insert-only batch of edges"),
            })
            .collect();
        dirty.sort_unstable();
        dirty.dedup();
        let dirty = Arc::new(dirty);
        let profile = MutationProfile {
            edge_inserts: batch.len(),
            ..Default::default()
        };
        let seeds: Vec<IncrementalSeed> = snapshots
            .into_iter()
            .map(|snapshot| IncrementalSeed {
                snapshot,
                dirty: Arc::clone(&dirty),
                profile,
            })
            .collect();
        for (fragment, seed) in updated_fragments.iter().zip(&seeds) {
            let mut ctx = PieContext::new();
            ctx.configure_borders(fragment.border_vertices());
            let seeded = CcProgram.seed_partial(
                &CcQuery,
                fragment,
                &seed.snapshot,
                &seed.dirty,
                &seed.profile,
                &mut ctx,
            );
            assert!(seeded.is_some(), "k={k}: the seed is declined");
        }
        let warm = engine
            .run_incremental(&CcQuery, &updated_fragments, &seeds)
            .expect("warm");
        let cold = engine.run(&CcQuery, &updated_fragments).expect("cold");
        assert_eq!(warm.output, cold.output, "k={k}");
        assert_eq!(cold.output, sequential_cc(&updated), "k={k}");
        assert_ne!(
            cold.output,
            sequential_cc(&grid),
            "the batch joins components"
        );
    }
}

/// Monotonically increasing suffix so concurrent / repeated cases never
/// collide on a Unix socket path.
static CASE: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Insert batch → resubmit (sssp/cc/pagerank all warm-eligible), then
    /// delete batch → resubmit (sssp/cc fall back cold, pagerank stays
    /// warm): every answer equals the replayed cold run bit for bit.
    #[test]
    fn incremental_resubmissions_match_cold_replays(
        graph in arb_graph(40, 100),
        inserts in proptest::collection::vec((0u64..1000, 0u64..1000, 1u32..20), 1..8),
        new_vertices in 0usize..3,
        delete_picks in proptest::collection::vec(0usize..10_000, 1..6),
        k in 2usize..5,
        strategy_index in 0usize..8,
        transport in 0usize..3,
    ) {
        let n = graph.num_vertices() as u64;
        let strategy = BuiltinStrategy::all()[strategy_index % BuiltinStrategy::all().len()];

        // Insert-only batch: random edges between residents, plus up to two
        // brand-new vertices wired into the graph.
        let mut insert_batch: Vec<GraphMutation<(), f64>> = inserts
            .iter()
            .map(|&(s, d, w)| GraphMutation::AddEdge {
                src: s % n,
                dst: d % n,
                data: w as f64 / 4.0,
            })
            .collect();
        for i in 0..new_vertices {
            let id = 1_000 + i as u64;
            insert_batch.push(GraphMutation::AddVertex { id, data: () });
            insert_batch.push(GraphMutation::AddEdge {
                src: i as u64 % n,
                dst: id,
                data: 1.5,
            });
        }

        // Delete batch: distinct live (src, dst) pairs of the inserted graph
        // (RemoveEdge drops all parallel copies of a pair at once).
        let mut delta = DeltaGraph::new(graph.clone());
        delta.apply(&insert_batch).expect("insert batch applies");
        let mid = delta.snapshot(graph.has_reverse());
        let mut pairs: Vec<(u64, u64)> = Vec::new();
        let mut seen = HashSet::new();
        for (s, d, _) in mid.edges() {
            if seen.insert((s, d)) {
                pairs.push((s, d));
            }
        }
        let mut chosen = HashSet::new();
        let delete_batch: Vec<GraphMutation<(), f64>> = delete_picks
            .iter()
            .filter_map(|&p| {
                let (s, d) = pairs[p % pairs.len()];
                chosen.insert((s, d)).then_some(GraphMutation::RemoveEdge { src: s, dst: d })
            })
            .collect();

        // The session under test, on one of the three transports.
        let mut tcp_daemon = None;
        #[cfg(unix)]
        let mut uds = None;
        let config = match transport {
            1 => {
                let daemon = GrapeService::bind("127.0.0.1:0", ServiceOptions::default())
                    .expect("bind")
                    .spawn()
                    .expect("spawn");
                let config = SessionConfig::remote(k, vec![daemon.endpoint().clone()]);
                tcp_daemon = Some(daemon);
                config
            }
            #[cfg(unix)]
            2 => {
                let path = std::env::temp_dir().join(format!(
                    "grape-incprop-{}-{}.sock",
                    std::process::id(),
                    CASE.fetch_add(1, Ordering::Relaxed)
                ));
                let daemon = GrapeService::bind_uds(&path, ServiceOptions::default())
                    .expect("bind uds")
                    .spawn()
                    .expect("spawn");
                let config = SessionConfig::remote(k, vec![daemon.endpoint().clone()]);
                uds = Some(daemon);
                config
            }
            _ => SessionConfig::in_process(k),
        };
        let session = Session::connect(config).expect("connect");
        session
            .load(&SessionGraph::from(graph.clone()), strategy)
            .expect("load");

        let queries = [Query::sssp(0), Query::cc(), patient_pagerank()];
        for query in &queries {
            session.submit(query.clone()).expect("submit").join().expect("prime run");
        }

        session.update(insert_batch.clone()).expect("insert update");
        let after_inserts = [insert_batch.clone()];
        let mid_edges = mid.edges().count();
        for query in &queries {
            let warm = session.submit(query.clone()).expect("submit").join().expect("warm run");
            let cold = replay_cold(&graph, &after_inserts, strategy, k, query.clone());
            let context = format!(
                "{:?}/{}/k={}/t={} post-insert",
                query.class(),
                strategy.name(),
                k,
                transport
            );
            assert_matches_cold(query, &warm, &cold, mid_edges, &context)?;
        }

        if !delete_batch.is_empty() {
            session.update(delete_batch.clone()).expect("delete update");
            delta.apply(&delete_batch).expect("delete batch applies");
            let final_edges = delta.snapshot(graph.has_reverse()).edges().count();
            let after_deletes = [insert_batch.clone(), delete_batch.clone()];
            for query in &queries {
                let warm = session.submit(query.clone()).expect("submit").join().expect("warm run");
                let cold = replay_cold(&graph, &after_deletes, strategy, k, query.clone());
                let context = format!(
                    "{:?}/{}/k={}/t={} post-delete",
                    query.class(),
                    strategy.name(),
                    k,
                    transport
                );
                assert_matches_cold(query, &warm, &cold, final_edges, &context)?;
            }
        }

        if let Some(daemon) = tcp_daemon {
            daemon.shutdown().expect("shutdown");
        }
        #[cfg(unix)]
        if let Some(daemon) = uds {
            daemon.shutdown().expect("shutdown");
        }
    }
}
