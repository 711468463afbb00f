//! Service-mode integration: resident fragments served over framed TCP/UDS
//! must answer every query class bit-identically to cold one-shot runs,
//! multiplex different classes in flight, and survive a worker kill
//! mid-query-stream without disturbing concurrent queries.

use grape_algo::{Query, QueryResult, SsspProgram, SsspQuery};
use grape_comm::wire::{self, TAG_HELLO, TAG_LOAD, TAG_LOADED, TAG_QUERY, TAG_RESULT};
use grape_comm::CommStats;
use grape_core::ship::encode_fragment_epoch;
use grape_core::transport::FramedStreamCoord;
use grape_core::{
    build_fragments, EngineConfig, Fragment, GrapeEngine, IncrementalSeed, MutationProfile,
    PieProgram,
};
use grape_graph::generators::{barabasi_albert, road_network, RoadNetworkConfig};
use grape_graph::GraphBuilder;
use grape_partition::BuiltinStrategy;
use grape_worker::service::{LoadSpec, QueryJob, ServiceSocket, ServiceStream};
use grape_worker::{
    run_worker, Endpoint, GrapeService, GraphSpec, QueryOutcome, ServiceOptions, Session,
    SessionConfig, SessionGraph, WorkerOptions,
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
        // What the frame loop says about it — a dialled-in worker runs the
        // daemon's, and hands its verdict back...
        let (mut coordinator, worker) = std::os::unix::net::UnixStream::pair().expect("pair");
        let served = std::thread::spawn(move || run_worker(worker, WorkerOptions::default()));
        let hello = wire::read_frame_io_epoch(&mut coordinator).expect("hello");
        assert_eq!(hello.expect("hello").0, TAG_HELLO);
        coordinator.write_all(&frames).expect("write");
        let err = served.join().expect("worker thread").expect_err("refused");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{spec:?}: {err}");
        // ...and what a live daemon does: no ack, only a hang-up (a reset
        // when the fragment frame was never read).
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
    for (src, dst, weight) in graph.edges().filter(|&(src, ..)| src != source) {
        cut.add_edge(src, dst, *weight);
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

    // A coordinator that ships such seeds under their true profile, on query
    // jobs built by hand — a session would not have sent them.
    let daemon = GrapeService::bind("127.0.0.1:0", ServiceOptions::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    for (index, fragment) in fragments.iter().enumerate() {
        let spec = LoadSpec {
            graph_id: GRAPH,
            family: 0,
            index: index as u32,
            workers: k as u32,
            vertices: cut.num_vertices() as u64,
        };
        let mut stream = greeted(daemon.endpoint());
        stream
            .write_all(&load_frames(&spec, fragment))
            .expect("write");
        let ack = wire::read_frame_io_epoch(&mut stream).expect("ack");
        assert_eq!(ack.expect("ack").0, TAG_LOADED);
    }
    let truth = MutationProfile {
        edge_deletes: deleted,
        ..Default::default()
    };
    let streams: Vec<ServiceSocket> = (0..k)
        .map(|worker| {
            let job = QueryJob {
                graph_id: GRAPH,
                index: worker as u32,
                workers: k as u32,
                run_id: RUN,
                threads: 1,
                checkpoint_every: 0,
                query: Query::sssp(source),
                kill_at: None,
                seed: Some(seed(worker, truth)),
            };
            let mut stream = greeted(daemon.endpoint());
            wire::write_frame_io_epoch(&mut stream, TAG_QUERY, RUN, &job).expect("query");
            stream
        })
        .collect();
    let hangup: Vec<ServiceSocket> = streams
        .iter()
        .map(|stream| stream.try_clone_stream().expect("alias"))
        .collect();
    let stats = Arc::new(CommStats::new());
    let transport = FramedStreamCoord::<f64>::new_at_epoch(streams, stats, RUN).expect("transport");
    engine
        .run_coordinator(&fragments, &transport, None)
        .expect("fixpoint");
    let mut partials: Vec<_> = (0..k).map(|_| None).collect();
    for _ in 0..k {
        let (from, tag, body) = transport.recv_oob_blocking().expect("result frame");
        assert_eq!(tag, TAG_RESULT);
        partials[from] = SsspProgram.restore_partial(&body);
    }
    let partials = partials.into_iter().map(|p| p.expect("restored"));
    assert_eq!(
        SsspProgram.assemble(partials.collect()),
        cold,
        "a worker consumed a seed it had to refuse"
    );
    for stream in &hangup {
        let _ = stream.shutdown_both();
    }
    daemon.shutdown().expect("shutdown");
}
