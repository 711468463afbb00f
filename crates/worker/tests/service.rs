//! Service-mode integration: resident fragments served over framed TCP/UDS
//! must answer every query class bit-identically to cold one-shot runs,
//! multiplex different classes in flight (from several client threads on
//! one session too), and survive a worker kill
//! mid-query-stream without disturbing concurrent queries.

use grape_algo::{Query, QueryResult, SsspProgram, SsspQuery};
use grape_comm::wire::{
    self, Wire, TAG_HELLO, TAG_LOAD, TAG_LOADED, TAG_QUERY, TAG_RESULT, TAG_UPDATE, TAG_UPDATED,
};
use grape_comm::CommStats;
use grape_core::ship::encode_fragment_epoch;
use grape_core::transport::FramedStreamCoord;
use grape_core::{
    build_fragments, EngineConfig, Fragment, GrapeEngine, IncrementalSeed, MutationProfile,
    PieProgram, WarmHandle,
};
use grape_graph::delta::{stage_batch, GraphMutation, LiveView};
use grape_graph::generators::{barabasi_albert, road_network, RoadNetworkConfig};
use grape_graph::GraphBuilder;
use grape_partition::{BuiltinStrategy, FragmentView, PartitionAssignment, ResolvedMutations};
use grape_worker::service::{LoadSpec, QueryJob, ServiceSocket, ServiceStream};
use grape_worker::{
    Endpoint, GrapeService, GraphSpec, QueryOutcome, ServiceOptions, Session, SessionConfig,
    SessionGraph, UpdateSpec,
};
use std::io::{self, Read, Write};
use std::sync::Arc;

fn weighted_graph() -> SessionGraph {
    SessionGraph::generate(&GraphSpec::parse("ba:160:3:5").expect("spec")).expect("generator")
}

fn labeled_graph() -> SessionGraph {
    SessionGraph::generate(&GraphSpec::parse("social:60:6:21").expect("spec")).expect("generator")
}

/// Queries that run on a weighted graph.
fn weighted_queries() -> Vec<Query> {
    vec![Query::sssp(0), Query::cc(), Query::pagerank(), Query::cf()]
}

/// Queries that run on a labeled social graph (the promoted product is the
/// first product vertex: id = number of persons).
fn labeled_queries() -> Vec<Query> {
    vec![
        Query::canonical_sim(),
        Query::canonical_subiso(),
        Query::canonical_keyword(),
        Query::marketing(60),
    ]
}

/// A cold one-shot run: a fresh in-process session per query, so nothing is
/// resident or recycled between calls.
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

#[test]
fn every_class_is_bit_identical_through_the_service_path() {
    let daemon = GrapeService::bind("127.0.0.1:0", ServiceOptions::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let endpoint = daemon.endpoint().clone();

    for strategy in [BuiltinStrategy::Hash, BuiltinStrategy::MetisLike] {
        for workers in [2usize, 3] {
            for (graph, queries) in [
                (weighted_graph(), weighted_queries()),
                (labeled_graph(), labeled_queries()),
            ] {
                let session =
                    Session::connect(SessionConfig::remote(workers, vec![endpoint.clone()]))
                        .expect("connect");
                session.load(&graph, strategy).expect("load");
                for query in queries {
                    let label = format!("{:?}/{}/{workers}", query.class(), strategy.name());
                    let remote = session
                        .submit(query.clone())
                        .expect("submit")
                        .join()
                        .unwrap_or_else(|e| panic!("{label}: service query failed: {e}"));
                    let cold = cold_run(&graph, strategy, workers, query);
                    assert_eq!(
                        remote.result, cold.result,
                        "{label}: service result differs from the cold run"
                    );
                    assert_eq!(
                        remote.result.digest(),
                        cold.result.digest(),
                        "{label}: digests differ"
                    );
                    assert_eq!(
                        remote.stats.supersteps, cold.stats.supersteps,
                        "{label}: superstep counts differ"
                    );
                }
            }
        }
    }
    daemon.shutdown().expect("shutdown");
}

#[cfg(unix)]
#[test]
fn interleaved_classes_share_resident_fragments_over_uds() {
    let path = std::env::temp_dir().join(format!("grape-service-{}.sock", std::process::id()));
    let daemon = GrapeService::bind_uds(&path, ServiceOptions::default())
        .expect("bind uds")
        .spawn()
        .expect("spawn");
    let endpoint = daemon.endpoint().clone();
    let workers = 3;

    let graph = labeled_graph();
    let session =
        Session::connect(SessionConfig::remote(workers, vec![endpoint])).expect("connect");
    session.load(&graph, BuiltinStrategy::Hash).expect("load");

    // Two different classes in flight at once over the same loaded
    // fragments: submit both before joining either.
    let sim = session.submit(Query::canonical_sim()).expect("submit sim");
    let keyword = session
        .submit(Query::canonical_keyword())
        .expect("submit keyword");
    assert_ne!(sim.run_id(), keyword.run_id(), "run ids must be distinct");
    let sim = sim.join().expect("sim");
    let keyword = keyword.join().expect("keyword");

    assert_eq!(
        sim.result,
        cold_run(
            &graph,
            BuiltinStrategy::Hash,
            workers,
            Query::canonical_sim()
        )
        .result,
        "interleaved sim diverged"
    );
    assert_eq!(
        keyword.result,
        cold_run(
            &graph,
            BuiltinStrategy::Hash,
            workers,
            Query::canonical_keyword()
        )
        .result,
        "interleaved keyword diverged"
    );

    // Batch admission: same-class queries form one wave, classes run
    // concurrently; handles come back in submission order.
    let handles = session
        .submit_batch(vec![
            Query::canonical_sim(),
            Query::marketing(60),
            Query::canonical_sim(),
        ])
        .expect("batch");
    let outcomes: Vec<QueryOutcome> = handles
        .into_iter()
        .map(|h| h.join().expect("batch query"))
        .collect();
    assert!(matches!(outcomes[0].result, QueryResult::Matches(_)));
    assert!(matches!(outcomes[1].result, QueryResult::Prospects(_)));
    assert_eq!(
        outcomes[0].result, outcomes[2].result,
        "same query in one batch must agree with itself"
    );
    daemon.shutdown().expect("shutdown");
}

#[test]
fn worker_kill_mid_stream_leaves_the_concurrent_query_undisturbed() {
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

    // The drill: worker 1's connection is severed on the last evaluation
    // command the undisturbed run would send (capped at its 3rd), while a
    // PageRank query runs concurrently on its own connections.
    let cold_sssp = cold_run(&graph, BuiltinStrategy::Hash, workers, Query::sssp(0));
    let kill_at = (cold_sssp.stats.supersteps - 1).min(2);
    let killed = session
        .submit_with_kill(Query::sssp(0), 1, kill_at)
        .expect("submit kill drill");
    let concurrent = session.submit(Query::pagerank()).expect("submit pagerank");

    let killed = killed.join().expect("killed query must recover");
    let concurrent = concurrent.join().expect("concurrent query");

    assert!(
        killed.stats.recoveries >= 1,
        "the kill drill must actually trigger a recovery"
    );
    assert_eq!(
        killed.result,
        cold_run(&graph, BuiltinStrategy::Hash, workers, Query::sssp(0)).result,
        "recovered query diverged from the cold run"
    );
    assert_eq!(
        concurrent.stats.recoveries, 0,
        "the concurrent query must not observe the other query's kill"
    );
    assert_eq!(
        concurrent.result,
        cold_run(&graph, BuiltinStrategy::Hash, workers, Query::pagerank()).result,
        "concurrent query diverged from the cold run"
    );
    daemon.shutdown().expect("shutdown");
}

#[test]
fn an_in_process_kill_drill_recovers_bit_identically() {
    // An in-process session is served by a private daemon, so it runs the
    // same recovery as a remote one: worker 1's connection is severed on
    // the last evaluation command the undisturbed run sends (capped at its
    // 3rd), and the query recovers to the undisturbed answer.
    let graph = weighted_graph();
    for workers in [2usize, 3] {
        let session = Session::connect(SessionConfig::in_process(workers)).expect("connect");
        session.load(&graph, BuiltinStrategy::Hash).expect("load");
        for query in [Query::sssp(0), Query::cc()] {
            let label = format!("{:?}/{workers}", query.class());
            let undisturbed = cold_run(&graph, BuiltinStrategy::Hash, workers, query.clone());
            let kill_at = (undisturbed.stats.supersteps - 1).min(2);
            let killed = session
                .submit_with_kill(query, 1, kill_at)
                .expect("submit kill drill")
                .join()
                .unwrap_or_else(|e| panic!("{label}: the killed query must recover: {e}"));
            assert!(killed.stats.recoveries >= 1, "{label}: a kill happened");
            assert_eq!(killed.result, undisturbed.result, "{label}: result");
            assert_eq!(
                killed.result.digest(),
                undisturbed.result.digest(),
                "{label}: digest"
            );
            assert_eq!(
                killed.stats.supersteps, undisturbed.stats.supersteps,
                "{label}: supersteps"
            );
        }
    }
}

#[test]
fn client_threads_sharing_one_session_each_get_the_cold_answer() {
    // Four client threads share one remote session and submit sssp / cc /
    // pagerank round-robin, so every class is in flight from several
    // threads at once; each answer must equal its cold one-shot run.
    let daemon = GrapeService::bind("127.0.0.1:0", ServiceOptions::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let workers = 3;
    let graph = weighted_graph();
    let classes = [Query::sssp(0), Query::cc(), Query::pagerank()];
    let cold: Vec<QueryResult> = classes
        .iter()
        .map(|query| cold_run(&graph, BuiltinStrategy::Hash, workers, query.clone()).result)
        .collect();

    let session = Session::connect(SessionConfig::remote(
        workers,
        vec![daemon.endpoint().clone()],
    ))
    .expect("connect");
    session.load(&graph, BuiltinStrategy::Hash).expect("load");
    std::thread::scope(|scope| {
        for client in 0..4 {
            let (session, classes, cold) = (&session, &classes, &cold);
            scope.spawn(move || {
                for i in 0..6 {
                    let which = (client + i) % classes.len();
                    let outcome = session
                        .submit(classes[which].clone())
                        .expect("submit")
                        .join()
                        .expect("service query");
                    assert_eq!(
                        outcome.result,
                        cold[which],
                        "client {client} query {i} ({:?}) differs from the cold run",
                        classes[which].class()
                    );
                }
            });
        }
    });
    daemon.shutdown().expect("shutdown");
}

#[test]
fn resubmitting_a_query_yields_identical_results_and_stats() {
    // Nothing per-query outlives a query on the resident workers — there is
    // no scratch registry left to reset: the second run of the same query
    // sees the same supersteps, messages, and wire bytes as the first.
    let daemon = GrapeService::bind("127.0.0.1:0", ServiceOptions::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let endpoint = daemon.endpoint().clone();
    let session = Session::connect(SessionConfig::remote(3, vec![endpoint])).expect("connect");
    session
        .load(&weighted_graph(), BuiltinStrategy::Hash)
        .expect("load");

    let first = session
        .submit(Query::sssp(0))
        .expect("submit")
        .join()
        .expect("first run");
    let second = session
        .submit(Query::sssp(0))
        .expect("submit")
        .join()
        .expect("second run");

    assert_eq!(first.result, second.result, "results differ across reruns");
    assert_ne!(
        first.stats.run_id, second.stats.run_id,
        "each submission gets its own run id"
    );
    assert_eq!(first.stats.supersteps, second.stats.supersteps);
    assert_eq!(first.stats.messages, second.stats.messages);
    assert_eq!(first.stats.bytes, second.stats.bytes);
    assert_eq!(first.stats.recoveries, second.stats.recoveries);
    daemon.shutdown().expect("shutdown");
}

#[test]
fn the_service_boundary_is_measured_from_inside_run_stats() {
    // A remote query reports what crossed the service boundary outside the
    // supersteps: its job frames out, its result frames back, and the time
    // each took. A result is the owners' labels, and a warm job a handle:
    // the converged partials stay in the daemon.
    use grape_algo::{CcProgram, CcQuery};
    use grape_graph::delta::GraphMutation;
    use grape_worker::SessionGraph::Weighted;
    use std::time::{Duration, Instant};

    let workers = 3;
    let strategy = BuiltinStrategy::MetisLike;
    let graph = weighted_graph();
    let Weighted(csr) = &graph else {
        unreachable!("a ba spec generates a weighted graph")
    };
    // What the daemon keeps are the cold query's converged partials, which
    // are bit-identical to an in-process run's; what it answers is one
    // 8-byte label per vertex.
    let fragments = build_fragments(csr, &strategy.partition(csr, workers));
    let (partials, _) = GrapeEngine::new(CcProgram)
        .run_partials(&CcQuery, &fragments, &[])
        .expect("in-process cc");
    let kept: u64 = partials
        .iter()
        .map(|partial| CcProgram.snapshot_partial(partial).expect("snapshot").len() as u64)
        .sum();
    let labels = 8 * csr.num_vertices() as u64;

    let in_process = cold_run(&graph, strategy, workers, Query::cc()).stats;

    let daemon = GrapeService::bind("127.0.0.1:0", ServiceOptions::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let session = Session::connect(SessionConfig::remote(
        workers,
        vec![daemon.endpoint().clone()],
    ))
    .expect("connect");
    session.load(&graph, strategy).expect("load");
    let timed = |label: &str| {
        let started = Instant::now();
        let outcome = session
            .submit(Query::cc())
            .expect("submit")
            .join()
            .unwrap_or_else(|e| panic!("{label} query failed: {e}"));
        let latency = started.elapsed();
        let stats = &outcome.stats;
        assert!(
            stats.dispatch_seconds > 0.0 && stats.collect_seconds > 0.0,
            "{label}: a remote query dispatches and collects"
        );
        let inside = stats.wall_time
            + Duration::from_secs_f64(
                stats.dispatch_seconds + stats.collect_seconds + stats.assemble_seconds,
            );
        assert!(
            inside <= latency,
            "{label}: the parts ({inside:?}) exceed the client's latency ({latency:?})"
        );
        outcome.stats
    };

    let cold = timed("cold");
    assert_eq!(
        in_process.boundary_bytes, cold.boundary_bytes,
        "in-process and remote sessions report equal boundary_bytes"
    );
    assert!(
        cold.boundary_bytes >= labels,
        "a cold query's labels come back: {} < {labels}",
        cold.boundary_bytes
    );
    assert!(
        cold.boundary_bytes < kept,
        "a cold query's partials stay in the daemon: {} ≥ {kept}",
        cold.boundary_bytes
    );
    session
        .update(vec![
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
        ])
        .expect("update");
    let warm = timed("warm");
    assert_eq!(warm.warm_fragments, workers, "every fragment starts warm");
    assert!(
        warm.boundary_bytes < cold.boundary_bytes + 1024,
        "a warm query ships a handle, not its partials: {} vs {} cold",
        warm.boundary_bytes,
        cold.boundary_bytes
    );
    daemon.shutdown().expect("shutdown");
}

#[test]
fn a_query_reports_how_many_fragments_started_warm() {
    // Warm is what the daemons kept: every fragment after an insert-only
    // batch, none on a first run or where the program cannot replay the
    // batch (sssp and cc after a delete), every one again for pagerank,
    // which replays any batch. Warm or cold, sssp and cc answer what a fresh
    // session replaying the batches answers cold.
    use grape_graph::delta::GraphMutation;
    let workers = 3;
    let strategy = BuiltinStrategy::Hash;
    let graph = weighted_graph();
    let daemon = GrapeService::bind("127.0.0.1:0", ServiceOptions::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let session = Session::connect(SessionConfig::remote(
        workers,
        vec![daemon.endpoint().clone()],
    ))
    .expect("connect");
    session.load(&graph, strategy).expect("load");
    let mut batches: Vec<Vec<GraphMutation<(), f64>>> = Vec::new();
    let mut run = |batch: Option<GraphMutation<(), f64>>, expected: [usize; 3]| {
        if let Some(mutation) = batch {
            session.update(vec![mutation.clone()]).expect("update");
            batches.push(vec![mutation]);
        }
        let reference = Session::connect(SessionConfig::in_process(workers)).expect("connect");
        reference.load(&graph, strategy).expect("load");
        for batch in &batches {
            reference.update(batch.clone()).expect("replay");
        }
        for (query, warm) in [Query::sssp(0), Query::cc(), Query::pagerank()]
            .into_iter()
            .zip(expected)
        {
            let class = query.class();
            let outcome = session.submit(query.clone()).expect("submit").join();
            let outcome = outcome.expect("query");
            assert_eq!(outcome.stats.warm_fragments, warm, "{class:?}");
            let cold = reference
                .submit(query)
                .expect("submit")
                .join()
                .expect("cold");
            assert_eq!(cold.stats.warm_fragments, 0, "{class:?}");
            if class != grape_algo::QueryClass::PageRank {
                assert_eq!(outcome.result, cold.result, "{class:?}");
            }
        }
    };
    run(None, [0, 0, 0]);
    let insert = GraphMutation::AddEdge {
        src: 3,
        dst: 150,
        data: 0.75,
    };
    run(Some(insert), [workers; 3]);
    run(
        Some(GraphMutation::RemoveEdge { src: 3, dst: 150 }),
        [0, 0, workers],
    );
    daemon.shutdown().expect("shutdown");
}

#[test]
fn the_daemon_enforces_its_auth_token() {
    let daemon = GrapeService::bind(
        "127.0.0.1:0",
        ServiceOptions {
            token: Some("sesame".into()),
            ..Default::default()
        },
    )
    .expect("bind")
    .spawn()
    .expect("spawn");
    let endpoint = daemon.endpoint().clone();

    // No token: the daemon drops the connection before acking the load.
    let anon = Session::connect(SessionConfig::remote(2, vec![endpoint.clone()]))
        .expect("probe succeeds before auth is checked");
    assert!(
        anon.load(&weighted_graph(), BuiltinStrategy::Hash).is_err(),
        "an unauthenticated load must fail"
    );

    // Matching token: full query round trip.
    let config = SessionConfig::remote(2, vec![endpoint]).with_engine(
        EngineConfig::builder()
            .auth_token("sesame".to_string())
            .build(),
    );
    let session = Session::connect(config).expect("connect");
    let graph = weighted_graph();
    session.load(&graph, BuiltinStrategy::Hash).expect("load");
    let outcome = session
        .submit(Query::cc())
        .expect("submit")
        .join()
        .expect("query");
    assert_eq!(
        outcome.result,
        cold_run(&graph, BuiltinStrategy::Hash, 2, Query::cc()).result
    );
    daemon.shutdown().expect("shutdown");
}

/// A connection to `endpoint` that has said hello, as a session's would.
fn greeted(endpoint: &Endpoint) -> ServiceSocket {
    let mut stream = endpoint.connect().expect("connect");
    wire::write_frame_io_epoch(&mut stream, TAG_HELLO, 0, &None::<String>).expect("hello");
    stream
}

/// The two frames of a load, at epoch 0: the spec, then the fragment.
fn load_frames(spec: &LoadSpec, fragment: &Fragment<(), f64>) -> Vec<u8> {
    let mut frames = Vec::new();
    wire::encode_frame_epoch(TAG_LOAD, 0, spec, &mut frames);
    encode_fragment_epoch(fragment, 0, &mut frames);
    frames
}

#[test]
fn hostile_load_specs_are_refused_and_leave_nothing_behind() {
    let daemon = GrapeService::bind("127.0.0.1:0", ServiceOptions::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let graph = barabasi_albert(30, 2, 1).expect("generator");
    let fragments = build_fragments(&graph, &BuiltinStrategy::Hash.partition(&graph, 1));
    let good = LoadSpec {
        graph_id: 77,
        family: 0,
        index: 0,
        workers: 1,
        vertices: 30,
        version: 0,
    };
    let hostile = [
        // Would size two slot tables of 2^32 - 1 entries each.
        LoadSpec {
            workers: u32::MAX,
            ..good.clone()
        },
        // No such payload family: must not be stored as a labeled graph.
        LoadSpec {
            family: 2,
            ..good.clone()
        },
        // Fragment 0 shipped as fragment 1 of 2.
        LoadSpec {
            index: 1,
            workers: 2,
            ..good.clone()
        },
    ];
    for spec in hostile {
        let frames = load_frames(&spec, &fragments[0]);
        // The daemon sends no ack, only a hang-up (a reset when the
        // fragment frame was never read).
        let mut live = greeted(daemon.endpoint());
        live.write_all(&frames).expect("write");
        let mut answer = Vec::new();
        if let Err(err) = live.read_to_end(&mut answer) {
            assert_eq!(err.kind(), io::ErrorKind::ConnectionReset, "{spec:?}");
        }
        assert!(answer.is_empty(), "{spec:?} was answered");
    }

    // The daemon still serves, and nothing was left behind under the graph
    // id: a correct load of it goes through.
    let mut stream = greeted(daemon.endpoint());
    stream
        .write_all(&load_frames(&good, &fragments[0]))
        .expect("write");
    let (tag, _, body) = wire::read_frame_io_epoch(&mut stream)
        .expect("ack")
        .expect("the daemon answers a correct load");
    assert_eq!((tag, body), (TAG_LOADED, 77u64.to_le_bytes().to_vec()));
    daemon.shutdown().expect("shutdown");
}

#[test]
fn a_seed_the_program_is_not_eligible_for_yields_the_cold_answer() {
    const RUN: u32 = 41;
    const GRAPH: u64 = 5;
    let config = RoadNetworkConfig {
        width: 12,
        height: 12,
        ..Default::default()
    };
    let graph = road_network(config, 3).expect("generator");
    let k = 3;
    let assignment = BuiltinStrategy::Hash.partition(&graph, k);
    let source = graph.vertex_ids()[0];
    let query = SsspQuery::new(source);
    let engine =
        GrapeEngine::new(SsspProgram).with_config(EngineConfig::builder().run_id(RUN).build());

    // The old fixpoint, on the graph as it was; then the source is cut off,
    // which sssp cannot repair from its old distances.
    let before = build_fragments(&graph, &assignment);
    let (old, _) = engine.run_partials(&query, &before, &[]).expect("old run");
    let mut cut = GraphBuilder::<(), f64>::new();
    for v in graph.vertices() {
        cut.ensure_vertex(v);
    }
    let mut deletions = Vec::new();
    for (src, dst, weight) in graph.edges() {
        if src == source {
            deletions.push(GraphMutation::RemoveEdge { src, dst });
        } else {
            cut.add_edge(src, dst, *weight);
        }
    }
    let cut = cut.build().expect("graph");
    let fragments = build_fragments(&cut, &assignment);
    let cold = engine.run(&query, &fragments).expect("cold run").output;

    let deleted = graph.out_degree(source);
    let seed = |worker: usize, profile: MutationProfile| IncrementalSeed {
        snapshot: Arc::new(
            SsspProgram
                .snapshot_partial(&old[worker])
                .expect("snapshot"),
        ),
        dirty: Arc::new(vec![source]),
        profile,
    };
    // Passed off as inserts the seeds are consumed, and the old distances
    // survive: refusing them is what the answer below depends on.
    let lie = MutationProfile {
        edge_inserts: deleted,
        ..Default::default()
    };
    let consumed: Vec<_> = (0..k).map(|worker| seed(worker, lie)).collect();
    let stale = engine.run_incremental(&query, &fragments, &consumed);
    assert_ne!(stale.expect("seeded run").output, cold);

    // Two copies of the old graph in one daemon, each queried cold and then
    // cut off: the daemon keeps both version-0 fixpoints. A coordinator then
    // names them in handles built by hand — a session would not have sent
    // either.
    let daemon = GrapeService::bind("127.0.0.1:0", ServiceOptions::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let endpoint = daemon.endpoint();
    let sssp = Query::sssp(source);
    for graph_id in [GRAPH, GRAPH + 1] {
        load_by_hand(endpoint, graph_id, &before, graph.num_vertices());
        let (_, warm) = query_by_hand(
            endpoint,
            SsspProgram,
            sssp.clone(),
            (graph_id, RUN),
            &before,
            &|_| None,
        )
        .expect("old run");
        assert_eq!(warm, 0);
        update_by_hand(
            endpoint,
            graph_id,
            &before,
            &assignment,
            &deletions,
            graph.num_vertices(),
        );
    }
    let handle = |profile: MutationProfile| WarmHandle {
        version: 0,
        dirty: Arc::new(vec![source]),
        profile,
    };
    // Under the lie, every worker seeds from what it kept...
    let (answer, warm) = query_by_hand(
        endpoint,
        SsspProgram,
        sssp.clone(),
        (GRAPH + 1, RUN + 1),
        &fragments,
        &|_| Some(handle(lie)),
    )
    .expect("answered");
    assert_eq!(
        (answer != cold, warm),
        (true, k),
        "the daemon kept the old fixpoint"
    );
    // ...and under the truth, none may.
    let truth = MutationProfile {
        edge_deletes: deleted,
        ..Default::default()
    };
    let (answer, warm) = query_by_hand(
        endpoint,
        SsspProgram,
        sssp,
        (GRAPH, RUN + 1),
        &fragments,
        &|_| Some(handle(truth)),
    )
    .expect("answered");
    assert_eq!(answer, cold, "a worker consumed a seed it had to refuse");
    assert_eq!(warm, 0);
    daemon.shutdown().expect("shutdown");
}

/// Ships `fragments` to the daemon under `graph_id`, one connection each, as
/// a session's load would.
fn load_by_hand(
    endpoint: &Endpoint,
    graph_id: u64,
    fragments: &[Fragment<(), f64>],
    vertices: usize,
) {
    for (index, fragment) in fragments.iter().enumerate() {
        let spec = LoadSpec {
            graph_id,
            family: 0,
            index: index as u32,
            workers: fragments.len() as u32,
            vertices: vertices as u64,
            version: 0,
        };
        let mut stream = greeted(endpoint);
        stream
            .write_all(&load_frames(&spec, fragment))
            .expect("write");
        let ack = wire::read_frame_io_epoch(&mut stream).expect("ack");
        assert_eq!(ack.expect("ack").0, TAG_LOADED);
    }
}

/// Applies `batch` to the resident `fragments` of `graph_id` as the first
/// update, staged and resolved the way a session's update is, and shipped to
/// every fragment; the graph keeps its `vertices`.
fn update_by_hand(
    endpoint: &Endpoint,
    graph_id: u64,
    fragments: &[Fragment<(), f64>],
    assignment: &PartitionAssignment,
    batch: &[GraphMutation<(), f64>],
    vertices: usize,
) {
    let view = FragmentView::new(fragments, assignment);
    let staged = stage_batch(&view, batch).expect("a valid batch");
    let resolved =
        ResolvedMutations::resolve(staged.net, assignment, |v| view.vertex_data(v).cloned());
    for index in 0..fragments.len() as u32 {
        let spec = UpdateSpec {
            graph_id,
            family: 0,
            index,
            version: 1,
            vertices: vertices as u64,
        };
        let mut frame = Vec::new();
        wire::encode_frame_with_epoch(TAG_UPDATE, 1, &mut frame, |out| {
            spec.encode(out);
            resolved.encode(out);
        });
        let mut stream = greeted(endpoint);
        stream.write_all(&frame).expect("write");
        let ack = wire::read_frame_io_epoch(&mut stream).expect("ack");
        assert_eq!(ack.expect("ack").0, TAG_UPDATED);
    }
}

/// One query against resident fragments, driven by hand: a `TAG_QUERY` per
/// worker carrying whatever warm handle `handle_of` hands it, the
/// coordinator half of the fixpoint, then the `TAG_RESULT` answers
/// assembled. Returns the answer and the number of workers whose PEval
/// started warm; an error is a worker that hung up instead of answering.
fn query_by_hand<P>(
    endpoint: &Endpoint,
    program: P,
    query: Query,
    (graph_id, run_id): (u64, u32),
    fragments: &[Fragment<(), f64>],
    handle_of: &dyn Fn(usize) -> Option<WarmHandle>,
) -> Result<(P::Output, usize), String>
where
    P: PieProgram<VertexData = (), EdgeData = f64>,
{
    let k = fragments.len();
    let engine =
        GrapeEngine::new(program).with_config(EngineConfig::builder().run_id(run_id).build());
    let streams: Vec<ServiceSocket> = (0..k)
        .map(|worker| {
            let job = QueryJob {
                graph_id,
                index: worker as u32,
                workers: k as u32,
                run_id,
                threads: 1,
                checkpoint_every: 0,
                query: query.clone(),
                kill_at: None,
                seed: handle_of(worker),
            };
            let mut stream = greeted(endpoint);
            wire::write_frame_io_epoch(&mut stream, TAG_QUERY, run_id, &job).expect("query");
            stream
        })
        .collect();
    let hangup: Vec<ServiceSocket> = streams
        .iter()
        .map(|stream| stream.try_clone_stream().expect("alias"))
        .collect();
    let stats = Arc::new(CommStats::new());
    let transport =
        FramedStreamCoord::<P::Value>::new_at_epoch(streams, stats, run_id).expect("transport");
    let answer = engine
        .run_coordinator(fragments, &transport, None)
        .map_err(|e| e.to_string())
        .and_then(|_| {
            // Each result is the worker's answer, then its warm flag.
            let mut answers = vec![Vec::new(); k];
            let mut warm = 0;
            for _ in 0..k {
                let (from, tag, mut body) = transport
                    .recv_oob_blocking()
                    .map_err(|e| e.to_string())?
                    .ok_or("no result frame")?;
                assert_eq!(tag, TAG_RESULT);
                warm += usize::from(body.pop() == Some(1));
                answers[from] = body;
            }
            let shared: Vec<Arc<Fragment<(), f64>>> =
                fragments.iter().cloned().map(Arc::new).collect();
            let output = engine.program().assemble_answers(&shared, &answers);
            Ok((output.map_err(|e| e.to_string())?, warm))
        });
    for stream in &hangup {
        let _ = stream.shutdown_both();
    }
    answer
}

/// The snapshot of a converged sssp / cc / pagerank partial, taken apart
/// with the wire codec and put back together wrong, one way per entry: every
/// shape `restore_partial` must refuse before a warm start indexes or
/// merge-joins by it.
fn corrupt_snapshots(class: &str, snapshot: &[u8]) -> Vec<(&'static str, Vec<u8>)> {
    use grape_comm::wire::{Wire, WireReader};
    use grape_graph::DenseBitset;
    /// A named way to spoil the decoded parts `T` of a snapshot.
    type Edit<'a, T> = (&'static str, &'a dyn Fn(&mut T));
    /// Decodes the snapshot as `T` (tuples encode their fields in order),
    /// checks that is all of it, and re-encodes it once per edit.
    fn edited<T: Wire + Clone>(
        snapshot: &[u8],
        edits: Vec<Edit<'_, T>>,
    ) -> Vec<(&'static str, Vec<u8>)> {
        let good = T::decode(&mut WireReader::new(snapshot)).expect("snapshot layout");
        let bytes = |parts: &T| {
            let mut out = Vec::new();
            parts.encode(&mut out);
            out
        };
        assert_eq!(bytes(&good), snapshot, "snapshot layout");
        let corrupt = |(name, edit): Edit<'_, T>| {
            let mut parts = good.clone();
            edit(&mut parts);
            (name, bytes(&parts))
        };
        edits.into_iter().map(corrupt).collect()
    }
    type Ids = Vec<u64>;
    // distances, ids, owner marker, (IncEval counter, band width)
    type Sssp = (Vec<f64>, Ids, DenseBitset, (usize, Option<f64>));
    // labels, ids, owner marker, (forest, root labels)
    type Cc = (Ids, Ids, DenseBitset, (Vec<u32>, Ids));
    // (rank, mirror share, contrib), (inner ids, inner indices), frontier
    type PageRank = (
        (Vec<f64>, Vec<f64>, Vec<f64>),
        (Ids, Vec<u32>),
        (u32, Vec<u32>),
    );
    match class {
        "sssp" => edited::<Sssp>(
            snapshot,
            vec![
                ("a distance short", &|p| p.0.truncate(1)),
                ("an owner marker of another length", &|p| {
                    p.2 = DenseBitset::new(p.0.len() + 64)
                }),
                ("unsorted ids", &|p| p.1.swap(0, 1)),
                ("a zero band width", &|p| p.3 .1 = Some(0.0)),
                ("a negative band width", &|p| p.3 .1 = Some(-2.5)),
                ("an infinite band width", &|p| p.3 .1 = Some(f64::INFINITY)),
                ("a NaN band width", &|p| p.3 .1 = Some(f64::NAN)),
            ],
        ),
        "cc" => edited::<Cc>(
            snapshot,
            vec![
                ("a forest entry past the array", &|p| p.3 .0[0] = u32::MAX),
                ("a root label short", &|p| p.3 .1.truncate(1)),
                ("unsorted ids", &|p| p.1.swap(0, 1)),
            ],
        ),
        "pagerank" => edited::<PageRank>(
            snapshot,
            vec![
                ("an owner past the ranks", &|p| p.1 .1[0] = u32::MAX),
                ("a rank short", &|p| p.0 .0.truncate(1)),
                ("unsorted ids", &|p| p.1 .0.swap(0, 1)),
            ],
        ),
        other => panic!("no snapshot layout known for {other}"),
    }
}

/// For one program: a corrupt snapshot never restores; a handle naming a
/// version the daemon does not hold is answered cold, with the cold answer;
/// and the daemon then still seeds from the version it does hold.
fn stale_handles_are_answered_cold<P>(
    endpoint: &Endpoint,
    program: P,
    typed: P::Query,
    query: Query,
    graph_id: u64,
    fragments: &[Fragment<(), f64>],
) where
    P: PieProgram<VertexData = (), EdgeData = f64> + Clone,
    P::Output: PartialEq + std::fmt::Debug,
{
    let class = program.name().to_string();
    let engine = GrapeEngine::new(program.clone());
    let (partials, _) = engine.run_partials(&typed, fragments, &[]).expect("cold");
    // Checkpoints still travel as snapshots: every corrupt one is refused.
    for partial in &partials {
        let snapshot = program.snapshot_partial(partial).expect("snapshot");
        for (name, corrupt) in corrupt_snapshots(&class, &snapshot) {
            assert!(
                program.restore_partial(&corrupt).is_none(),
                "{class}, {name}: restored"
            );
        }
    }
    let cold = program.assemble(partials);
    let run = |run_id: u32, version: Option<u64>| {
        // An edge-only insert profile — one every class is eligible for —
        // naming a vertex every fragment of a hash cut is likely to hold.
        let handle = version.map(|version| WarmHandle {
            version,
            dirty: Arc::new(vec![fragments[0].graph.vertex_ids()[0]]),
            profile: MutationProfile {
                edge_inserts: 1,
                ..Default::default()
            },
        });
        query_by_hand(
            endpoint,
            program.clone(),
            query.clone(),
            (graph_id, run_id),
            fragments,
            &|_| handle.clone(),
        )
        .unwrap_or_else(|e| panic!("{class}: not answered: {e}"))
    };
    // The cold run leaves a version-0 partial beside every fragment.
    let (answer, warm) = run(100, None);
    assert_eq!((&answer, warm), (&cold, 0), "{class}: cold");
    for version in [1, 7, u64::MAX] {
        let (answer, warm) = run(101, Some(version));
        assert_eq!((&answer, warm), (&cold, 0), "{class}: version {version}");
    }
    // Nothing changed under the kept version, so warm is cold here too.
    let (answer, warm) = run(102, Some(0));
    let k = fragments.len();
    assert_eq!(
        (&answer, warm),
        (&cold, k),
        "{class}: the daemon still serves"
    );
}

#[test]
fn a_corrupt_seed_is_answered_cold_and_the_daemon_keeps_serving() {
    use grape_algo::{CcProgram, CcQuery, PageRankProgram, PageRankQuery};
    const GRAPH: u64 = 9;
    let graph = barabasi_albert(120, 3, 7).expect("generator");
    let fragments = build_fragments(&graph, &BuiltinStrategy::Hash.partition(&graph, 3));
    let daemon = GrapeService::bind("127.0.0.1:0", ServiceOptions::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let endpoint = daemon.endpoint();
    load_by_hand(endpoint, GRAPH, &fragments, graph.num_vertices());
    stale_handles_are_answered_cold(
        endpoint,
        SsspProgram,
        SsspQuery::new(0),
        Query::sssp(0),
        GRAPH,
        &fragments,
    );
    stale_handles_are_answered_cold(endpoint, CcProgram, CcQuery, Query::cc(), GRAPH, &fragments);
    stale_handles_are_answered_cold(
        endpoint,
        PageRankProgram::new(graph.num_vertices()),
        PageRankQuery::default(),
        Query::pagerank(),
        GRAPH,
        &fragments,
    );
    daemon.shutdown().expect("shutdown");
}
