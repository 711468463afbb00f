//! End-to-end multi-process tests: real `grape-worker daemon` OS processes
//! serving sessions over TCP and Unix-domain sockets, pinned bit-identical
//! to the in-process framed reference — and, through it, to the in-process
//! and in-thread daemon sessions that share their code.

mod support;

use grape_algo::{Query, QueryClass, QueryResult, SsspProgram, SsspQuery};
use grape_core::{build_fragments, EngineConfig, GrapeEngine, TransportKind};
use grape_graph::labels::PatternGraph;
use grape_graph::{DeltaGraph, GraphMutation};
use grape_partition::BuiltinStrategy;
use grape_worker::{
    run_local_framed, run_session, DaemonProcess, Endpoint, GrapeService, GraphSpec, JobSpec,
    QueryOutcome, ServiceOptions, Session, SessionConfig, SessionGraph,
};
use std::process::{Command, Stdio};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};
use support::{daemon_process, endpoints, silent_daemon, worker_bin};

fn job(algo: &str, workers: u32) -> JobSpec {
    let labeled = matches!(algo, "sim" | "subiso" | "keyword" | "marketing");
    JobSpec {
        algo: algo.into(),
        graph: if labeled {
            GraphSpec::Social {
                persons: 40,
                products: 5,
                seed: 7,
            }
        } else {
            GraphSpec::Road {
                width: 14,
                height: 14,
                seed: 7,
            }
        },
        strategy: "hash".into(),
        workers,
        source: 0,
        threads: 1,
        checkpoint_every: 0,
    }
}

fn config_with_timeout(timeout: Duration) -> EngineConfig {
    EngineConfig {
        read_timeout: Some(timeout),
        ..Default::default()
    }
}

/// `n` daemon processes, each started with `args`.
fn daemon_processes(n: u32, args: &[&str]) -> Vec<DaemonProcess> {
    (0..n).map(|_| daemon_process(args)).collect()
}

/// A batch run of `job`: a one-query session over daemon processes on TCP.
fn batch_run(job: &JobSpec) -> QueryOutcome {
    let daemons = daemon_processes(job.workers, &[]);
    let config = SessionConfig::remote(0, endpoints(&daemons));
    run_session(job, config).expect("batch")
}

#[test]
fn tcp_workers_match_the_in_process_reference() {
    for class in QueryClass::all() {
        let algo = class.name();
        let job = job(algo, 3);
        let remote = batch_run(&job);
        let reference = run_local_framed(&job).expect("local run");
        assert_eq!(remote.result, reference.result, "{algo}: results differ");
        assert_eq!(
            remote.result.digest(),
            reference.result.digest(),
            "{algo}: digests differ"
        );
        assert_eq!(
            remote.stats.supersteps, reference.stats.supersteps,
            "{algo}: superstep counts differ"
        );
        assert_eq!(
            remote.stats.messages, reference.stats.messages,
            "{algo}: message counts differ"
        );
        // Same frames either way: the socket path and the framed channel
        // path must account the identical number of wire bytes.
        assert_eq!(
            remote.stats.bytes, reference.stats.bytes,
            "{algo}: wire bytes differ"
        );
    }
}

#[cfg(unix)]
#[test]
fn unix_domain_workers_match_the_in_process_reference() {
    let job = job("sssp", 2);
    let dir = std::env::temp_dir();
    let daemons: Vec<DaemonProcess> = (0..job.workers)
        .map(|i| {
            let path = dir.join(format!("grape-worker-test-{}-{i}.sock", std::process::id()));
            let mut command = Command::new(worker_bin());
            command.arg("daemon").arg("--uds").arg(&path);
            DaemonProcess::spawn(command).expect("start daemon")
        })
        .collect();
    assert!(matches!(daemons[0].endpoint(), Endpoint::Uds(_)));
    let remote =
        run_session(&job, SessionConfig::remote(0, endpoints(&daemons))).expect("remote run");
    drop(daemons);

    let reference = run_local_framed(&job).expect("local run");
    assert_eq!(remote.result, reference.result);
    assert_eq!(remote.stats.supersteps, reference.stats.supersteps);
    assert_eq!(remote.stats.messages, reference.stats.messages);
    assert_eq!(remote.stats.bytes, reference.stats.bytes);
}

#[test]
fn silent_workers_fail_the_run_with_a_typed_timeout_error() {
    // Three "daemons" take their fragments but never answer a query: the
    // coordinator must not hang on the missing PEval reports — it must
    // surface a typed WorkerLost error once the configured read timeout
    // elapses.
    let job = job("sssp", 3);
    let (released, _) = mpsc::channel();
    let fakes = (0..job.workers)
        .map(|_| silent_daemon(released.clone()))
        .collect();
    let timeout = Duration::from_millis(500);
    let config = SessionConfig::remote(0, fakes).with_engine(config_with_timeout(timeout));
    let start = Instant::now();
    let err = run_session(&job, config).expect_err("a run with mute workers must fail");
    let elapsed = start.elapsed();
    assert!(
        elapsed >= timeout,
        "failed before the timeout could have elapsed: {elapsed:?}"
    );
    assert!(
        elapsed < timeout + Duration::from_secs(10),
        "took far longer than the deadline: {elapsed:?}"
    );
    let message = err.to_string();
    assert!(
        message.contains("lost") && message.contains("read timeout"),
        "expected a typed worker-lost timeout error, got: {message}"
    );
}

#[cfg(unix)]
#[test]
fn a_killed_worker_surfaces_a_typed_error_quickly() {
    // One real daemon SIGKILLs itself on the query's Init: without a
    // respawn hook or checkpoints, the coordinator's reader sees the closed
    // socket and the run fails with a typed disconnect error immediately —
    // not after the read timeout.
    let job = job("cc", 3);
    let daemons = vec![
        daemon_process(&["--kill-at", "0"]),
        daemon_process(&[]),
        daemon_process(&[]),
    ];
    let config = SessionConfig::remote(0, endpoints(&daemons))
        .with_engine(config_with_timeout(Duration::from_secs(30)));
    let start = Instant::now();
    let err = run_session(&job, config).expect_err("a run missing a worker must fail");
    assert!(
        start.elapsed() < Duration::from_secs(20),
        "disconnect took as long as a timeout: {:?}",
        start.elapsed()
    );
    let message = err.to_string();
    assert!(
        message.contains("lost"),
        "expected a typed worker-lost error, got: {message}"
    );
}

#[test]
fn mismatched_or_missing_auth_tokens_are_rejected() {
    // A daemon with an auth token must refuse sessions presenting the wrong
    // token — or none — with a typed PermissionDenied error, which it logs,
    // before any fragment is taken: the load fails.
    for (presented, says) in [
        (Some("not-the-secret"), "mismatched auth token"),
        (None, "no auth token"),
    ] {
        let log = std::env::temp_dir().join(format!(
            "grape-auth-test-{}-{}.log",
            std::process::id(),
            presented.is_some()
        ));
        let mut command = Command::new(worker_bin());
        command
            .args(["daemon", "--listen", "127.0.0.1:0", "--token", "the-secret"])
            .stderr(Stdio::from(std::fs::File::create(&log).expect("log file")));
        let daemon = DaemonProcess::spawn(command).expect("start daemon");
        let engine = EngineConfig {
            read_timeout: Some(Duration::from_secs(10)),
            auth_token: presented.map(String::from),
            ..Default::default()
        };
        let config = SessionConfig::remote(0, vec![daemon.endpoint().clone()]).with_engine(engine);
        run_session(&job("sssp", 1), config).expect_err("a wrong token must be rejected");
        // The daemon logs the typed refusal as it hangs up.
        let deadline = Instant::now() + Duration::from_secs(10);
        let logged = loop {
            let logged = std::fs::read_to_string(&log).expect("read log");
            if logged.contains(says) || Instant::now() > deadline {
                break logged;
            }
            std::thread::sleep(Duration::from_millis(20));
        };
        assert!(logged.contains(says), "unhelpful auth error: {logged}");
        drop(daemon);
        let _ = std::fs::remove_file(&log);
    }
}

#[test]
fn matching_auth_tokens_run_to_completion() {
    let job = job("sssp", 2);
    let daemons = daemon_processes(job.workers, &["--token", "the-secret"]);
    let engine = EngineConfig {
        auth_token: Some("the-secret".into()),
        ..Default::default()
    };
    let config = SessionConfig::remote(0, endpoints(&daemons)).with_engine(engine);
    let remote = run_session(&job, config).expect("authenticated run");
    let reference = run_local_framed(&job).expect("local run");
    assert_eq!(remote.result, reference.result);
    assert_eq!(remote.stats.supersteps, reference.stats.supersteps);
}

#[test]
fn a_daemon_process_reads_a_zero_handshake_timeout_as_none() {
    // `--handshake-timeout 0` once made the daemon refuse every connection
    // (the OS takes no zero socket timeout); it now waits forever, as a
    // zero timeout does everywhere.
    let job = job("cc", 2);
    let daemons = daemon_processes(job.workers, &["--handshake-timeout", "0"]);
    let remote = run_session(&job, SessionConfig::remote(0, endpoints(&daemons))).expect("run");
    assert_eq!(remote.result, run_local_framed(&job).expect("local").result);
}

#[test]
fn self_spawning_coordinator_verifies_itself() {
    // The one-command demo: `serve --spawn --verify` starts its own daemons
    // and asserts the multi-process digests equal the in-process reference.
    let output = Command::new(worker_bin())
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--algo",
            "cc",
            "--graph",
            "ba:240:3:11",
            "--strategy",
            "range-1d",
            "--spawn",
            "--verify",
        ])
        .output()
        .expect("run serve --spawn --verify");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "serve failed: {stdout}\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        stdout.contains("verified: bit-identical"),
        "missing verification line in {stdout}"
    );
}

#[test]
fn batch_and_both_session_backends_agree_on_the_typed_result() {
    // One job protocol, three places its daemons live: separate processes
    // (a batch run), a session's private daemon, and a daemon thread of this
    // process. All eight classes must produce the same typed `QueryResult`
    // — not merely the same digest — and the same superstep count on each
    // route.
    let daemon = GrapeService::bind("127.0.0.1:0", ServiceOptions::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    for class in QueryClass::all() {
        let algo = class.name();
        let job = job(algo, 3);
        let query = job.query().expect("canonical query");
        let graph = SessionGraph::generate(&job.graph).expect("graph");
        let session_run = |config: SessionConfig| {
            let session = Session::connect(config).expect("connect");
            session.load(&graph, BuiltinStrategy::Hash).expect("load");
            let handle = session.submit(query.clone()).expect("submit");
            handle.join().expect("session query")
        };
        let batch = batch_run(&job);
        let in_process = session_run(SessionConfig::in_process(3));
        let remote = session_run(SessionConfig::remote(3, vec![daemon.endpoint().clone()]));
        assert_eq!(batch.result.class(), class);
        assert_eq!(
            batch.result, in_process.result,
            "{algo}: batch vs in-process"
        );
        assert_eq!(batch.result, remote.result, "{algo}: batch vs daemon");
        for (route, stats) in [("in-process", &in_process.stats), ("daemon", &remote.stats)] {
            assert_eq!(
                batch.stats.supersteps, stats.supersteps,
                "{algo}: supersteps differ between batch and {route}"
            );
        }
    }
    daemon.shutdown().expect("shutdown");
}

#[test]
fn a_wrong_family_query_is_the_same_error_on_every_route() {
    // Every class against the graph family it does not run on: the
    // dispatcher refuses it — with one typed InvalidData error, worded the
    // same whether the query came in through a batch run over daemon
    // processes, an in-process session or a session on a daemon thread.
    let daemon = GrapeService::bind("127.0.0.1:0", ServiceOptions::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let processes = daemon_processes(2, &[]);
    for class in QueryClass::all() {
        let algo = class.name();
        // The job helper pairs a class with its own family: swap the graphs.
        let wrong_graph = job(if class.is_labeled() { "sssp" } else { "sim" }, 2).graph;
        let job = JobSpec {
            graph: wrong_graph,
            // An explicit product, so `marketing` has a query on a road graph.
            source: 1,
            ..job(algo, 2)
        };
        let query = job.query().expect("canonical query");
        let graph = SessionGraph::generate(&job.graph).expect("graph");

        let batch = run_session(&job, SessionConfig::remote(0, endpoints(&processes)))
            .expect_err("batch run of a wrong-family query");

        let session_error = |config: SessionConfig| {
            let session = Session::connect(config).expect("connect");
            session.load(&graph, BuiltinStrategy::Hash).expect("load");
            let handle = session.submit(query.clone()).expect("submit");
            handle
                .join()
                .expect_err("session run of a wrong-family query")
        };
        let in_process = session_error(SessionConfig::in_process(2));
        let remote = session_error(SessionConfig::remote(2, vec![daemon.endpoint().clone()]));

        let family = if class.is_labeled() {
            "weighted"
        } else {
            "labeled"
        };
        let expected =
            format!("query class {algo} does not run on the loaded graph family ({family})");
        for (route, err) in [
            ("batch", batch),
            ("in-process", in_process),
            ("daemon", remote),
        ] {
            assert_eq!(
                err.kind(),
                std::io::ErrorKind::InvalidData,
                "{algo} via {route}"
            );
            assert_eq!(err.to_string(), expected, "{algo} via {route}");
        }
    }
    daemon.shutdown().expect("shutdown");
}

#[test]
fn an_overwide_simulation_pattern_is_rejected_before_any_frame_is_sent() {
    // 65 pattern vertices do not fit the u64 candidate masks: the dispatcher
    // must refuse the query while it resolves it, before a single stream is
    // opened. The daemon is shut down after the load, so a session that
    // tried to dial it for the query would fail with a connection error
    // instead of the typed one.
    let pattern = PatternGraph::new(vec!["person".into(); 65]).edge_labeled(0, 1, "follows");
    let query = Query::sim(pattern);
    let graph =
        SessionGraph::generate(&GraphSpec::parse("social:24:4:5").expect("spec")).expect("graph");
    let daemon = GrapeService::bind("127.0.0.1:0", ServiceOptions::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let session = Session::connect(SessionConfig::remote(2, vec![daemon.endpoint().clone()]))
        .expect("connect");
    session.load(&graph, BuiltinStrategy::Hash).expect("load");
    daemon.shutdown().expect("shutdown");
    let err = session
        .submit(query)
        .expect("submit")
        .join()
        .expect_err("an over-wide pattern must be rejected");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert!(
        err.to_string().contains("invalid simulation pattern"),
        "unhelpful error: {err}"
    );
}

/// The graph a cold reference sees after `batches`: the same batches applied
/// to a delta overlay over the same base, then materialized.
fn updated(graph: &SessionGraph, batches: &[Vec<GraphMutation<(), f64>>]) -> SessionGraph {
    let SessionGraph::Weighted(g) = graph else {
        panic!("weighted graph expected")
    };
    let mut delta = DeltaGraph::new(g.clone());
    for batch in batches {
        delta.apply(batch).expect("reference apply");
    }
    SessionGraph::Weighted(delta.snapshot(g.has_reverse()))
}

/// What [`run_local_framed`] runs, on a graph no recipe makes: a one-shot
/// sssp over the framed channel transport, hash cut into `workers`.
fn framed_sssp(graph: &SessionGraph, workers: usize) -> QueryOutcome {
    let SessionGraph::Weighted(g) = graph else {
        panic!("weighted graph expected")
    };
    let fragments = build_fragments(g, &BuiltinStrategy::Hash.partition(g, workers));
    let config = EngineConfig {
        transport: TransportKind::Framed,
        ..Default::default()
    };
    let run = GrapeEngine::new(SsspProgram)
        .with_config(config)
        .run(&SsspQuery::new(0), &fragments)
        .expect("framed run");
    QueryOutcome {
        result: QueryResult::Distances(run.output),
        stats: run.stats,
    }
}

#[test]
fn a_killed_daemon_process_is_respawned_after_an_update() {
    // Three daemon processes; worker 1's SIGKILLs itself on the first
    // IncEval of the first query it serves. The graph is updated first, so
    // the replacement the respawn hook starts must be shipped the fragment
    // at version 1 — or the next update would be refused as a gap.
    let workers = 3;
    let graph =
        SessionGraph::generate(&GraphSpec::parse("road:14x14:7").expect("spec")).expect("graph");
    let respawned = Arc::new(Mutex::new(Vec::new()));
    let kept = Arc::clone(&respawned);
    let daemons = vec![
        daemon_process(&[]),
        daemon_process(&["--kill-at", "1"]),
        daemon_process(&[]),
    ];
    let config = SessionConfig::remote(workers, endpoints(&daemons)).with_respawn(move |_| {
        let fresh = daemon_process(&[]);
        let endpoint = fresh.endpoint().clone();
        kept.lock().unwrap().push(fresh);
        Ok(endpoint)
    });
    let session = Session::connect(config).expect("connect");
    session.load(&graph, BuiltinStrategy::Hash).expect("load");
    let edge = |src, dst, data| GraphMutation::AddEdge { src, dst, data };
    let batches = [
        vec![edge(0, 100, 0.5), edge(50, 150, 0.25)],
        vec![edge(20, 180, 0.125)],
    ];

    session.update(batches[0].clone()).expect("first update");
    let recovered = session
        .submit(Query::sssp(0))
        .expect("submit")
        .join()
        .expect("the killed daemon's worker is respawned");
    let reference = framed_sssp(&updated(&graph, &batches[..1]), workers);
    assert!(recovered.stats.recoveries >= 1, "a daemon was killed");
    assert_eq!(respawned.lock().unwrap().len(), recovered.stats.recoveries);
    assert_eq!(recovered.result, reference.result);
    assert_eq!(recovered.result.digest(), reference.result.digest());
    assert_eq!(recovered.stats.supersteps, reference.stats.supersteps);

    session
        .update(batches[1].clone())
        .expect("the replacement takes version 2");
    let warm = session
        .submit(Query::sssp(0))
        .expect("submit")
        .join()
        .expect("warm resubmission");
    assert_eq!(warm.stats.warm_fragments, workers, "every fragment warm");
    let cold = framed_sssp(&updated(&graph, &batches), workers);
    assert_eq!(warm.result, cold.result);
    assert_eq!(warm.result.digest(), cold.result.digest());
}

#[test]
fn unparseable_flag_values_are_usage_errors_not_silent_defaults() {
    // `--kill-at 1O` used to run a chaos drill with no kill and report
    // success; `--timeout 3s` silently meant 30 s. Every numeric flag must
    // now refuse a value it cannot parse: a message naming the flag, exit
    // status 2, and nothing bound, dialled or run.
    let serve = [
        "serve",
        "--workers",
        "2",
        "--algo",
        "sssp",
        "--graph",
        "road:4x4:1",
    ];
    let cases: [(&[&str], &str, &str); 7] = [
        (&["daemon"], "--kill-at", "1O"),
        (&["daemon"], "--handshake-timeout", "3s"),
        (&serve, "--timeout", "3s"),
        (&serve, "--threads", "two"),
        (&serve, "--source", "-1"),
        (&serve, "--checkpoint-every", "1.5"),
        (&["serve", "--algo", "sssp"], "--workers", "-2"),
    ];
    for (base, flag, value) in cases {
        let output = Command::new(worker_bin())
            .args(base)
            .args([flag, value])
            .output()
            .expect("run grape-worker");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(
            output.status.code(),
            Some(2),
            "{base:?} {flag} {value}: expected a usage error, got {:?}: {stderr}",
            output.status
        );
        assert!(
            stderr.contains(flag) && stderr.contains(value),
            "{flag} {value}: the message must name the flag and the value: {stderr}"
        );
    }
}

#[test]
fn zero_workers_is_a_usage_error() {
    // `serve --workers 0` used to panic on an empty connection table.
    let output = Command::new(worker_bin())
        .args(["serve", "--workers", "0", "--algo", "sssp"])
        .args(["--graph", "road:4x4:1", "--spawn", "--verify"])
        .output()
        .expect("run grape-worker");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(
        output.status.code(),
        Some(2),
        "{:?}: {stderr}",
        output.status
    );
    assert!(stderr.contains("--workers must be at least 1"), "{stderr}");
}

#[test]
fn a_flag_missing_its_value_is_a_usage_error() {
    let output = Command::new(worker_bin())
        .args(["daemon", "--kill-at"])
        .output()
        .expect("run grape-worker");
    assert_eq!(output.status.code(), Some(2), "{:?}", output.status);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--kill-at needs a value"), "{stderr}");
}
