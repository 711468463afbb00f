//! Mutable fragments + cross-run incremental IncEval through the service:
//! after [`Session::update`] the next submission of an already-answered query
//! warm-starts from the cached fixpoint (when the algorithm is eligible for
//! the batch shape) and must be bit-identical to a cold run on the updated
//! graph — in-process and remote, across stacked update batches, and across
//! a worker kill mid-incremental-run.

use grape_algo::Query;
use grape_core::EngineConfig;
use grape_graph::labels::LabeledVertex;
use grape_graph::{DeltaGraph, GraphMutation};
use grape_partition::BuiltinStrategy;
use grape_worker::{
    Endpoint, GrapeService, GraphSpec, QueryOutcome, ServiceOptions, Session, SessionConfig,
    SessionGraph,
};
use std::collections::HashSet;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

fn weighted_graph() -> SessionGraph {
    SessionGraph::generate(&GraphSpec::parse("ba:160:3:5").expect("spec")).expect("generator")
}

fn labeled_graph() -> SessionGraph {
    SessionGraph::generate(&GraphSpec::parse("social:60:6:21").expect("spec")).expect("generator")
}

/// PageRank with a local-iteration budget generous enough that every local
/// sweep drains its frontier before the cap — on the quantized grid the
/// fixpoint is then start-point independent, so warm and cold runs land on
/// identical bits.
fn patient_pagerank() -> Query {
    Query::PageRank {
        damping: 0.85,
        max_local_iterations: 200,
        tolerance: 1e-6,
    }
}

/// Insert-only batch on the BA graph: new edges between residents plus one
/// brand-new vertex wired in both directions, so ownership of an inserted
/// vertex and dense-index shifts are both exercised.
fn weighted_inserts() -> Vec<GraphMutation<(), f64>> {
    vec![
        GraphMutation::AddEdge {
            src: 0,
            dst: 155,
            data: 0.25,
        },
        GraphMutation::AddEdge {
            src: 155,
            dst: 3,
            data: 0.5,
        },
        GraphMutation::AddVertex { id: 500, data: () },
        GraphMutation::AddEdge {
            src: 2,
            dst: 500,
            data: 1.0,
        },
        GraphMutation::AddEdge {
            src: 500,
            dst: 7,
            data: 1.5,
        },
    ]
}

/// A second batch stacked on the first, so a converged state cached at
/// version 1 has to be re-seeded across the merged delta log.
fn weighted_inserts_round_two() -> Vec<GraphMutation<(), f64>> {
    vec![
        GraphMutation::AddEdge {
            src: 500,
            dst: 0,
            data: 0.75,
        },
        GraphMutation::AddEdge {
            src: 9,
            dst: 120,
            data: 0.3,
        },
    ]
}

/// Delete-only batch on the social graph: the first `count` distinct live
/// `(src, dst)` pairs (RemoveEdge drops all parallel copies at once, so the
/// pairs must be distinct within one batch).
fn labeled_deletes(
    graph: &SessionGraph,
    count: usize,
) -> Vec<GraphMutation<LabeledVertex, String>> {
    let SessionGraph::Labeled(g) = graph else {
        panic!("labeled graph expected")
    };
    let mut seen = HashSet::new();
    let mut batch = Vec::new();
    for (src, dst, _) in g.edges() {
        if seen.insert((src, dst)) {
            batch.push(GraphMutation::RemoveEdge { src, dst });
            if batch.len() == count {
                break;
            }
        }
    }
    assert_eq!(batch.len(), count, "graph too small for the delete batch");
    batch
}

/// The updated graph a cold reference run sees: the same batches applied to
/// an out-of-band delta overlay over the same base, then materialized.
fn updated_weighted(graph: &SessionGraph, batches: &[Vec<GraphMutation<(), f64>>]) -> SessionGraph {
    let SessionGraph::Weighted(g) = graph else {
        panic!("weighted graph expected")
    };
    let mut delta = DeltaGraph::new(g.clone());
    for batch in batches {
        delta.apply(batch).expect("reference apply");
    }
    SessionGraph::Weighted(delta.snapshot(g.has_reverse()))
}

fn updated_labeled(
    graph: &SessionGraph,
    batches: &[Vec<GraphMutation<LabeledVertex, String>>],
) -> SessionGraph {
    let SessionGraph::Labeled(g) = graph else {
        panic!("labeled graph expected")
    };
    let mut delta = DeltaGraph::new(g.clone());
    for batch in batches {
        delta.apply(batch).expect("reference apply");
    }
    SessionGraph::Labeled(delta.snapshot(g.has_reverse()))
}

/// A cold one-shot run: a fresh in-process session per query, so nothing is
/// resident, cached, or warm-started.
fn cold_run(
    graph: &SessionGraph,
    strategy: BuiltinStrategy,
    workers: usize,
    query: Query,
) -> QueryOutcome {
    let session = Session::connect(SessionConfig::in_process(workers)).expect("connect");
    session.load(graph, strategy).expect("load");
    session
        .submit(query)
        .expect("submit")
        .join()
        .expect("cold query")
}

/// The canonical cold reference for a warm resubmission: a fresh session
/// that replays the same update batches and then answers the query for the
/// first time — identical incrementally-updated fragments, no converged
/// cache, so PEval runs cold. (A from-scratch cut of the updated graph is
/// only bit-comparable under hash partitioning, where ownership is a pure
/// function of the vertex id — see `hash_cut_of_the_updated_graph_agrees`.)
fn cold_after_weighted_updates(
    graph: &SessionGraph,
    batches: &[Vec<GraphMutation<(), f64>>],
    strategy: BuiltinStrategy,
    workers: usize,
    query: Query,
) -> QueryOutcome {
    let session = Session::connect(SessionConfig::in_process(workers)).expect("connect");
    session.load(graph, strategy).expect("load");
    for batch in batches {
        session.update(batch.clone()).expect("replay update");
    }
    session
        .submit(query)
        .expect("submit")
        .join()
        .expect("cold query")
}

fn cold_after_labeled_updates(
    graph: &SessionGraph,
    batches: &[Vec<GraphMutation<LabeledVertex, String>>],
    strategy: BuiltinStrategy,
    workers: usize,
    query: Query,
) -> QueryOutcome {
    let session = Session::connect(SessionConfig::in_process(workers)).expect("connect");
    session.load(graph, strategy).expect("load");
    for batch in batches {
        session.update(batch.clone()).expect("replay update");
    }
    session
        .submit(query)
        .expect("submit")
        .join()
        .expect("cold query")
}

/// The drill every transport runs: load, answer once (populating the
/// converged cache), update, answer again, and demand bit-identity with a
/// cold run on the updated graph — then stack a second update and repeat.
fn drill_weighted(session: &Session, strategy: BuiltinStrategy, workers: usize) {
    let graph = weighted_graph();
    session.load(&graph, strategy).expect("load");
    let queries = vec![Query::sssp(0), Query::cc(), patient_pagerank(), Query::cf()];

    for query in &queries {
        session
            .submit(query.clone())
            .expect("submit")
            .join()
            .expect("first run");
    }

    let receipt = session.update(weighted_inserts()).expect("update");
    assert_eq!(receipt.version, 1);
    assert!(receipt.profile.insert_only());
    assert_eq!(receipt.profile.edge_inserts, 4);
    assert_eq!(receipt.profile.vertex_inserts, 1);
    assert!(receipt.dirty > 0, "inserts must dirty their endpoints");

    let round_one = [weighted_inserts()];
    for query in &queries {
        let label = format!("{:?}/{}/v1", query.class(), strategy.name());
        let warm = session
            .submit(query.clone())
            .expect("submit")
            .join()
            .unwrap_or_else(|e| panic!("{label}: post-update query failed: {e}"));
        let cold =
            cold_after_weighted_updates(&graph, &round_one, strategy, workers, query.clone());
        assert_eq!(
            warm.result, cold.result,
            "{label}: post-update answer differs from a cold run on the updated graph"
        );
        assert_eq!(
            warm.result.digest(),
            cold.result.digest(),
            "{label}: digests differ"
        );
    }

    let receipt = session
        .update(weighted_inserts_round_two())
        .expect("update");
    assert_eq!(receipt.version, 2);

    let round_two = [weighted_inserts(), weighted_inserts_round_two()];
    for query in &queries {
        let label = format!("{:?}/{}/v2", query.class(), strategy.name());
        let warm = session
            .submit(query.clone())
            .expect("submit")
            .join()
            .unwrap_or_else(|e| panic!("{label}: post-update query failed: {e}"));
        let cold =
            cold_after_weighted_updates(&graph, &round_two, strategy, workers, query.clone());
        assert_eq!(
            warm.result, cold.result,
            "{label}: answer after two stacked updates differs from cold"
        );
    }
}

/// Same drill for the labeled family: simulation is delete-eligible (the old
/// fixpoint is a superset to refine down from), keyword falls back cold —
/// both must agree with a cold run on the shrunk graph.
fn drill_labeled(session: &Session, strategy: BuiltinStrategy, workers: usize) {
    let graph = labeled_graph();
    session.load(&graph, strategy).expect("load");
    let queries = vec![Query::canonical_sim(), Query::canonical_keyword()];

    for query in &queries {
        session
            .submit(query.clone())
            .expect("submit")
            .join()
            .expect("first run");
    }

    let batch = labeled_deletes(&graph, 6);
    let receipt = session.update(batch.clone()).expect("update");
    assert_eq!(receipt.version, 1);
    assert!(receipt.profile.delete_only());
    assert_eq!(receipt.profile.edge_deletes, 6);

    let batches = [batch];
    for query in &queries {
        let label = format!("{:?}/{}", query.class(), strategy.name());
        let warm = session
            .submit(query.clone())
            .expect("submit")
            .join()
            .unwrap_or_else(|e| panic!("{label}: post-update query failed: {e}"));
        let cold = cold_after_labeled_updates(&graph, &batches, strategy, workers, query.clone());
        assert_eq!(
            warm.result, cold.result,
            "{label}: post-delete answer differs from a cold run on the shrunk graph"
        );
        assert_eq!(
            warm.result.digest(),
            cold.result.digest(),
            "{label}: digests differ"
        );
    }
}

#[test]
fn hash_cut_of_the_updated_graph_agrees_with_the_incremental_session() {
    // Under hash partitioning ownership is a pure function of the vertex id,
    // so a brand-new session loading the *updated* graph cuts it exactly as
    // the live session extended its fragments — the strongest end-to-end
    // check that `Session::update` and a from-scratch load are one graph.
    let workers = 2;
    let weighted = weighted_graph();
    let session = Session::connect(SessionConfig::in_process(workers)).expect("connect");
    session
        .load(&weighted, BuiltinStrategy::Hash)
        .expect("load");
    for query in [Query::sssp(0), Query::cc(), patient_pagerank(), Query::cf()] {
        session
            .submit(query)
            .expect("submit")
            .join()
            .expect("first run");
    }
    session.update(weighted_inserts()).expect("update");
    let fresh = updated_weighted(&weighted, &[weighted_inserts()]);
    for query in [Query::sssp(0), Query::cc(), patient_pagerank(), Query::cf()] {
        let warm = session
            .submit(query.clone())
            .expect("submit")
            .join()
            .expect("post-update run");
        let cold = cold_run(&fresh, BuiltinStrategy::Hash, workers, query.clone());
        assert_eq!(
            warm.result,
            cold.result,
            "{:?}: live session diverged from a fresh load of the updated graph",
            query.class()
        );
    }

    let labeled = labeled_graph();
    let session = Session::connect(SessionConfig::in_process(workers)).expect("connect");
    session.load(&labeled, BuiltinStrategy::Hash).expect("load");
    for query in [Query::canonical_sim(), Query::canonical_keyword()] {
        session
            .submit(query)
            .expect("submit")
            .join()
            .expect("first run");
    }
    let batch = labeled_deletes(&labeled, 6);
    session.update(batch.clone()).expect("update");
    let fresh = updated_labeled(&labeled, &[batch]);
    for query in [Query::canonical_sim(), Query::canonical_keyword()] {
        let warm = session
            .submit(query.clone())
            .expect("submit")
            .join()
            .expect("post-update run");
        let cold = cold_run(&fresh, BuiltinStrategy::Hash, workers, query.clone());
        assert_eq!(
            warm.result,
            cold.result,
            "{:?}: live session diverged from a fresh load of the shrunk graph",
            query.class()
        );
    }
}

#[test]
fn updates_then_queries_match_cold_runs_in_process() {
    let workers = 2;
    for strategy in [BuiltinStrategy::Hash, BuiltinStrategy::MetisLike] {
        let session = Session::connect(SessionConfig::in_process(workers)).expect("connect");
        drill_weighted(&session, strategy, workers);
        let session = Session::connect(SessionConfig::in_process(workers)).expect("connect");
        drill_labeled(&session, strategy, workers);
    }
}

#[test]
fn updates_then_queries_match_cold_runs_over_the_wire() {
    let daemon = GrapeService::bind("127.0.0.1:0", ServiceOptions::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let endpoint = daemon.endpoint().clone();
    let workers = 3;

    let session =
        Session::connect(SessionConfig::remote(workers, vec![endpoint.clone()])).expect("connect");
    drill_weighted(&session, BuiltinStrategy::Hash, workers);

    let session =
        Session::connect(SessionConfig::remote(workers, vec![endpoint])).expect("connect");
    drill_labeled(&session, BuiltinStrategy::MetisLike, workers);

    daemon.shutdown().expect("shutdown");
}

/// A BA graph relabelled to even ids, so a vertex can be inserted *between*
/// residents: every dense index above it shifts, and the id list a cached
/// partial was keyed by no longer lines up with the fragment's.
fn gapped_graph() -> SessionGraph {
    let SessionGraph::Weighted(ba) = weighted_graph() else {
        panic!("weighted graph expected")
    };
    let mut gapped = grape_graph::GraphBuilder::<(), f64>::new();
    for v in ba.vertices() {
        gapped.ensure_vertex(2 * v);
    }
    for (src, dst, weight) in ba.edges() {
        gapped.add_edge(2 * src, 2 * dst, *weight);
    }
    SessionGraph::Weighted(gapped.build().expect("graph"))
}

/// Three batch shapes a warm start has to join old state across: the id
/// lists unchanged (edges only), grown in the middle, shrunk in the middle.
fn id_list_batches() -> [Vec<GraphMutation<(), f64>>; 3] {
    let edge = |src, dst, data| GraphMutation::AddEdge { src, dst, data };
    [
        vec![edge(0, 154, 0.25), edge(10, 180, 0.5)],
        vec![
            GraphMutation::AddVertex { id: 41, data: () },
            edge(40, 41, 1.0),
            edge(41, 120, 1.5),
        ],
        vec![GraphMutation::RemoveVertex { id: 60 }],
    ]
}

/// Answers once, then after every batch of [`id_list_batches`] demands the
/// resubmission — warm where the program is eligible — be the cold answer on
/// the same updated fragments, bit for bit.
fn drill_id_lists(session: &Session, strategy: BuiltinStrategy, workers: usize) {
    let graph = gapped_graph();
    session.load(&graph, strategy).expect("load");
    let queries = [Query::sssp(0), Query::cc(), patient_pagerank()];
    for query in &queries {
        let first = session.submit(query.clone()).expect("submit").join();
        first.expect("first run");
    }
    let batches = id_list_batches();
    for applied in 1..=batches.len() {
        let receipt = session
            .update(batches[applied - 1].clone())
            .expect("update");
        assert_eq!(receipt.version, applied as u64);
        for query in &queries {
            let label = format!("{:?}/{}/v{applied}", query.class(), strategy.name());
            let warm = session
                .submit(query.clone())
                .expect("submit")
                .join()
                .unwrap_or_else(|e| panic!("{label}: post-update query failed: {e}"));
            let cold = cold_after_weighted_updates(
                &graph,
                &batches[..applied],
                strategy,
                workers,
                query.clone(),
            );
            assert_eq!(warm.result, cold.result, "{label}: warm differs from cold");
            assert_eq!(warm.result.digest(), cold.result.digest(), "{label}");
        }
    }
}

#[test]
fn warm_seeds_join_by_id_across_vertex_inserts_removals_and_edge_only_batches() {
    for (strategy, workers) in [(BuiltinStrategy::Hash, 3), (BuiltinStrategy::MetisLike, 2)] {
        let session = Session::connect(SessionConfig::in_process(workers)).expect("connect");
        drill_id_lists(&session, strategy, workers);
    }
    let daemon = GrapeService::bind("127.0.0.1:0", ServiceOptions::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let endpoints = vec![daemon.endpoint().clone()];
    let session = Session::connect(SessionConfig::remote(3, endpoints)).expect("connect");
    drill_id_lists(&session, BuiltinStrategy::Hash, 3);
    daemon.shutdown().expect("shutdown");
}

#[test]
fn a_worker_kill_mid_incremental_run_recovers_to_the_updated_answer() {
    let daemon = GrapeService::bind("127.0.0.1:0", ServiceOptions::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let endpoint = daemon.endpoint().clone();
    let workers = 3;

    let graph = weighted_graph();
    let config = SessionConfig::remote(workers, vec![endpoint])
        .with_engine(EngineConfig::builder().checkpoint_every(1).build());
    let session = Session::connect(config).expect("connect");
    session.load(&graph, BuiltinStrategy::Hash).expect("load");

    // Converge once so the update's resubmission takes the warm path, then
    // sever worker 1 mid-incremental-run: recovery replays the job — seed
    // included, since it rides on the job spec — and the answer must still
    // be bit-identical to a cold run on the updated graph.
    session
        .submit(Query::sssp(0))
        .expect("submit")
        .join()
        .expect("first run");
    session.update(weighted_inserts()).expect("update");

    // The same warm resubmission, undisturbed and in process, says how many
    // commands a worker can receive: kill on the last one (capped at the 3rd).
    let undisturbed = Session::connect(SessionConfig::in_process(workers)).expect("connect");
    undisturbed
        .load(&graph, BuiltinStrategy::Hash)
        .expect("load");
    let run = |session: &Session| {
        let handle = session.submit(Query::sssp(0)).expect("submit");
        handle.join().expect("undisturbed run")
    };
    run(&undisturbed);
    undisturbed.update(weighted_inserts()).expect("update");
    let kill_at = (run(&undisturbed).stats.supersteps - 1).min(2);

    let killed = session
        .submit_with_kill(Query::sssp(0), 1, kill_at)
        .expect("submit kill drill")
        .join()
        .expect("killed query must recover");
    assert!(
        killed.stats.recoveries >= 1,
        "the kill drill must actually trigger a recovery"
    );

    let once = updated_weighted(&graph, &[weighted_inserts()]);
    let cold = cold_run(&once, BuiltinStrategy::Hash, workers, Query::sssp(0));
    assert_eq!(
        killed.result, cold.result,
        "recovered incremental run diverged from a cold run on the updated graph"
    );
    assert_eq!(killed.result.digest(), cold.result.digest());
    daemon.shutdown().expect("shutdown");
}

#[test]
fn queries_beside_a_stream_of_updates_answer_one_graph_version_each() {
    // A second handle on the session queries while the first streams updates
    // into the daemon. Nothing may deadlock, and every answer must be the
    // cold answer of one graph version: one between the last update finished
    // when the query was submitted and the last one started when it returned
    // — never a blend of two versions' fragments.
    let daemon = GrapeService::bind("127.0.0.1:0", ServiceOptions::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let workers = 3;
    let strategy = BuiltinStrategy::Hash;
    let graph = weighted_graph();
    let session = Session::connect(SessionConfig::remote(
        workers,
        vec![daemon.endpoint().clone()],
    ))
    .expect("connect");
    session.load(&graph, strategy).expect("load");

    // Insert-only batches, so SSSP and CC take the warm path every time.
    let batches: Vec<Vec<GraphMutation<(), f64>>> = (0..12u64)
        .map(|i| {
            vec![
                GraphMutation::AddEdge {
                    src: i,
                    dst: 150 - 7 * i,
                    data: 0.125 * (i + 1) as f64,
                },
                GraphMutation::AddEdge {
                    src: 159 - i,
                    dst: 3 * i + 1,
                    data: 0.5,
                },
            ]
        })
        .collect();
    let queries = [Query::sssp(0), Query::cc()];
    let cold: Vec<Vec<_>> = (0..=batches.len())
        .map(|version| {
            queries
                .iter()
                .map(|query| {
                    let replayed = &batches[..version];
                    cold_after_weighted_updates(&graph, replayed, strategy, workers, query.clone())
                        .result
                })
                .collect()
        })
        .collect();
    for query in &queries {
        session
            .submit(query.clone())
            .expect("submit")
            .join()
            .expect("first run");
    }

    let (started, finished) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let together = Barrier::new(2);
    let reader = session.clone();
    let answered = std::thread::scope(|scope| {
        let reading = scope.spawn(|| {
            together.wait();
            let mut answered = 0;
            while finished.load(Ordering::SeqCst) < batches.len() {
                for (which, query) in queries.iter().enumerate() {
                    let oldest = finished.load(Ordering::SeqCst);
                    let outcome = reader
                        .submit(query.clone())
                        .expect("submit")
                        .join()
                        .expect("query beside updates");
                    let newest = started.load(Ordering::SeqCst);
                    assert!(
                        (oldest..=newest).any(|version| cold[version][which] == outcome.result),
                        "{:?}: answer matches no graph version in {oldest}..={newest}",
                        query.class()
                    );
                    answered += 1;
                }
            }
            answered
        });
        together.wait();
        for batch in &batches {
            started.fetch_add(1, Ordering::SeqCst);
            session
                .update(batch.clone())
                .expect("update beside queries");
            finished.fetch_add(1, Ordering::SeqCst);
        }
        reading.join().expect("reader thread")
    });
    assert!(answered > 0, "the reader never ran beside the updates");

    for (which, query) in queries.iter().enumerate() {
        let settled = session
            .submit(query.clone())
            .expect("submit")
            .join()
            .expect("query after the stream");
        assert_eq!(settled.result, cold[batches.len()][which]);
    }
    daemon.shutdown().expect("shutdown");
}

#[test]
fn edges_added_and_removed_within_one_batch_leave_the_session_consistent() {
    // Such a pair reaches the fragments as a net removal with no copy to
    // match, naming an endpoint most of them have never seen; the batch must
    // go through and the rest of it must land.
    let workers = 4;
    let weighted = weighted_graph();
    let SessionGraph::Weighted(g) = &weighted else {
        panic!("weighted graph expected")
    };
    let linked: HashSet<(u64, u64)> = g.edges().map(|(s, d, _)| (s, d)).collect();
    let mut batch = Vec::new();
    for (src, dst) in (0..40u64).map(|i| (i, 159 - i)) {
        if linked.contains(&(src, dst)) || linked.contains(&(dst, src)) {
            continue;
        }
        batch.push(GraphMutation::AddEdge {
            src,
            dst,
            data: 0.125,
        });
        batch.push(GraphMutation::RemoveEdge { src, dst });
    }
    assert!(batch.len() >= 40, "graph too dense for the churn batch");
    batch.extend(weighted_inserts());

    let session = Session::connect(SessionConfig::in_process(workers)).expect("connect");
    session
        .load(&weighted, BuiltinStrategy::Hash)
        .expect("load");
    let first = session.submit(Query::cc()).expect("submit").join();
    first.expect("first run");
    assert_eq!(session.update(batch.clone()).expect("update").version, 1);
    let fresh = updated_weighted(&weighted, &[batch]);
    for query in [Query::sssp(0), Query::cc()] {
        let live = session.submit(query.clone()).expect("submit").join();
        let cold = cold_run(&fresh, BuiltinStrategy::Hash, workers, query.clone());
        assert_eq!(
            live.expect("post-update run").result,
            cold.result,
            "{:?}: live session diverged from a fresh load of the updated graph",
            query.class()
        );
    }
}

#[test]
fn updates_reject_family_mismatches_and_advance_versions() {
    let session = Session::connect(SessionConfig::in_process(2)).expect("connect");
    session
        .load(&weighted_graph(), BuiltinStrategy::Hash)
        .expect("load");

    // A labeled batch against a weighted graph is refused outright.
    let err = session
        .update(labeled_deletes(&labeled_graph(), 1))
        .expect_err("family mismatch must fail");
    assert!(
        err.to_string().contains("family"),
        "unexpected error: {err}"
    );

    // Versions advance one per accepted batch, mismatches notwithstanding.
    assert_eq!(
        session.update(weighted_inserts()).expect("update").version,
        1
    );
    assert_eq!(
        session
            .update(weighted_inserts_round_two())
            .expect("update")
            .version,
        2
    );
}

#[test]
fn an_update_receipt_splits_its_time_within_the_wall_time() {
    let daemon = GrapeService::bind("127.0.0.1:0", ServiceOptions::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let remote = SessionConfig::remote(3, vec![daemon.endpoint().clone()]);
    for config in [SessionConfig::in_process(3), remote] {
        let session = Session::connect(config).expect("connect");
        session
            .load(&weighted_graph(), BuiltinStrategy::Hash)
            .expect("load");
        for batch in [weighted_inserts(), weighted_inserts_round_two()] {
            let started = std::time::Instant::now();
            let receipt = session.update(batch).expect("update");
            let wall = started.elapsed().as_secs_f64();
            let split = [
                receipt.stage_seconds,
                receipt.splice_seconds,
                receipt.ship_seconds,
            ];
            assert!(split.iter().all(|&s| s >= 0.0), "{split:?}");
            assert!(split.iter().sum::<f64>() <= wall, "{split:?} over {wall} s");
        }
    }
    daemon.shutdown().expect("shutdown");
}

/// A TCP proxy in front of `upstream` that pipes every connection through,
/// except that once armed it drops the next one it accepts.
fn dropping_proxy(upstream: &Endpoint) -> (Endpoint, Arc<AtomicBool>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let endpoint = Endpoint::parse(&listener.local_addr().expect("addr").to_string());
    let (armed, upstream) = (Arc::new(AtomicBool::new(false)), upstream.to_string());
    let trigger = Arc::clone(&armed);
    std::thread::spawn(move || {
        for client in listener.incoming().flatten() {
            if trigger.swap(false, Ordering::SeqCst) {
                continue; // dropped, so closed
            }
            let Ok(server) = TcpStream::connect(&upstream) else {
                continue;
            };
            let (c, s) = (client.try_clone().unwrap(), server.try_clone().unwrap());
            for (mut from, mut to) in [(client, s), (server, c)] {
                let _ = to.set_nodelay(true);
                std::thread::spawn(move || {
                    let _ = std::io::copy(&mut from, &mut to);
                    let _ = to.shutdown(Shutdown::Write);
                });
            }
        }
    });
    (endpoint, armed)
}

#[test]
fn an_update_that_fails_mid_ship_leaves_the_session_at_its_old_version() {
    // Three daemons, the third behind a proxy that drops the update's
    // connection: the first two apply version 1, the third stays at 0. The
    // session must neither commit nor let anything but a retry of the same
    // batch through, and the retry must land everywhere.
    let daemons: Vec<_> = (0..3)
        .map(|_| {
            GrapeService::bind("127.0.0.1:0", ServiceOptions::default())
                .expect("bind")
                .spawn()
                .expect("spawn")
        })
        .collect();
    let (proxy, armed) = dropping_proxy(daemons[2].endpoint());
    let endpoints = vec![
        daemons[0].endpoint().clone(),
        daemons[1].endpoint().clone(),
        proxy,
    ];
    let (workers, strategy) = (3, BuiltinStrategy::Hash);
    let graph = weighted_graph();
    let session = Session::connect(SessionConfig::remote(workers, endpoints)).expect("connect");
    session.load(&graph, strategy).expect("load");
    let classes = [Query::sssp(0), Query::cc(), patient_pagerank(), Query::cf()];
    for query in &classes {
        session
            .submit(query.clone())
            .expect("submit")
            .join()
            .expect("first run");
    }

    let SessionGraph::Weighted(g) = &graph else {
        panic!("weighted graph expected")
    };
    let (src, dst, _) = g.edges().next().expect("an edge");
    let batch = vec![
        GraphMutation::RemoveEdge { src, dst },
        GraphMutation::AddEdge {
            src: 0,
            dst: 155,
            data: 0.25,
        },
        GraphMutation::AddVertex { id: 500, data: () },
    ];
    armed.store(true, Ordering::SeqCst);
    let err = session.update(batch.clone()).expect_err("the ship fails");
    assert!(err.to_string().contains("in doubt"), "{err}");
    let err = session.submit(Query::cc()).expect("submit").join();
    let err = err.expect_err("a query while update 1 is in doubt");
    assert!(err.to_string().contains("update 1"), "{err}");
    let err = session.update(weighted_inserts_round_two());
    let err = err.expect_err("another batch while update 1 is in doubt");
    assert!(err.to_string().contains("update 1"), "{err}");

    let retried = session.update(batch.clone()).expect("the retry ships");
    assert_eq!(retried.version, 1);
    let replay = Session::connect(SessionConfig::in_process(workers)).expect("connect");
    replay.load(&graph, strategy).expect("load");
    let replayed = replay.update(batch.clone()).expect("replay");
    assert_eq!(
        (retried.dirty, retried.profile),
        (replayed.dirty, replayed.profile)
    );
    let fresh = updated_weighted(&graph, std::slice::from_ref(&batch));
    for query in &classes {
        let live = session.submit(query.clone()).expect("submit").join();
        let live = live.expect("query after the retry").result;
        let replayed = replay.submit(query.clone()).expect("submit").join();
        assert_eq!(live, replayed.expect("replayed query").result, "{query:?}");
        let cold = cold_run(&fresh, strategy, workers, query.clone()).result;
        assert_eq!(live, cold, "{query:?}: diverged from a fresh load");
    }
    let next = session
        .update(weighted_inserts_round_two())
        .expect("update");
    assert_eq!(next.version, 2);
    for daemon in daemons {
        daemon.shutdown().expect("shutdown");
    }
}
