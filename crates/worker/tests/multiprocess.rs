//! End-to-end multi-process tests: real `grape-worker` OS processes speaking
//! the framed wire protocol over TCP and Unix-domain sockets, pinned
//! bit-identical to the in-process framed reference — and, through it, to
//! the in-process and remote-daemon sessions that share its code.

use grape_algo::{Query, QueryClass};
use grape_core::EngineConfig;
use grape_graph::labels::PatternGraph;
use grape_partition::BuiltinStrategy;
use grape_worker::{
    run_coordinator, run_local_framed, GrapeService, GraphSpec, JobSpec, QueryOutcome,
    ServiceOptions, Session, SessionConfig, SessionGraph,
};
use std::io::Read;
use std::net::{TcpListener, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

fn worker_bin() -> &'static str {
    env!("CARGO_BIN_EXE_grape-worker")
}

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

fn spawn_workers(connect_args: &[&str], n: u32) -> Vec<Child> {
    (0..n)
        .map(|_| {
            Command::new(worker_bin())
                .args(connect_args)
                .stdout(Stdio::null())
                .spawn()
                .expect("spawn grape-worker")
        })
        .collect()
}

fn reap(children: Vec<Child>) {
    for mut child in children {
        let status = child.wait().expect("wait for worker");
        assert!(status.success(), "worker exited with {status}");
    }
}

/// A batch run of `job` over real worker processes dialling in over TCP.
fn batch_run(job: &JobSpec) -> QueryOutcome {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let children = spawn_workers(&["connect", &addr], job.workers);
    let streams = (0..job.workers)
        .map(|_| listener.accept().expect("accept").0)
        .collect();
    let outcome = run_coordinator(job, streams, &EngineConfig::default(), None).expect("batch");
    reap(children);
    outcome
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
    let path = dir.join(format!("grape-worker-test-{}.sock", std::process::id()));
    let path_str = path.to_str().expect("utf-8 socket path");
    let _ = std::fs::remove_file(&path);
    let listener = std::os::unix::net::UnixListener::bind(&path).expect("bind uds");
    let children = spawn_workers(&["connect-uds", path_str], job.workers);
    let streams = (0..job.workers)
        .map(|_| listener.accept().expect("accept").0)
        .collect();
    let remote =
        run_coordinator(&job, streams, &EngineConfig::default(), None).expect("remote run");
    reap(children);
    let _ = std::fs::remove_file(&path);

    let reference = run_local_framed(&job).expect("local run");
    assert_eq!(remote.result, reference.result);
    assert_eq!(remote.stats.supersteps, reference.stats.supersteps);
    assert_eq!(remote.stats.messages, reference.stats.messages);
    assert_eq!(remote.stats.bytes, reference.stats.bytes);
}

#[test]
fn silent_workers_fail_the_run_with_a_typed_timeout_error() {
    // Three "workers" connect but never speak the protocol: the coordinator
    // must not hang on the missing PEval reports — it must surface a typed
    // WorkerLost error once the configured read timeout elapses.
    let job = job("sssp", 3);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let mut held_clients = Vec::new();
    let mut streams = Vec::new();
    for _ in 0..job.workers {
        held_clients.push(std::net::TcpStream::connect(addr).expect("connect"));
        streams.push(listener.accept().expect("accept").0);
    }
    let timeout = Duration::from_millis(500);
    let start = Instant::now();
    let err = run_coordinator(&job, streams, &config_with_timeout(timeout), None)
        .expect_err("a run with mute workers must fail");
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
    drop(held_clients);
}

#[cfg(unix)]
#[test]
fn a_killed_worker_surfaces_a_typed_error_quickly() {
    // SIGKILL one real worker right after it connects: the coordinator's
    // reader sees the closed socket and the run fails with a typed
    // disconnect error immediately — not after the read timeout.
    let job = job("cc", 3);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let mut children = spawn_workers(&["connect", &addr], job.workers);
    let streams = (0..job.workers)
        .map(|_| listener.accept().expect("accept").0)
        .collect();
    children[0].kill().expect("kill worker");
    children[0].wait().expect("reap killed worker");
    let start = Instant::now();
    let err = run_coordinator(
        &job,
        streams,
        &config_with_timeout(Duration::from_secs(30)),
        None,
    )
    .expect_err("a run missing a worker must fail");
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
    for mut child in children.drain(1..) {
        let _ = child.kill();
        let _ = child.wait();
    }
}

#[test]
fn mismatched_or_missing_auth_tokens_are_rejected() {
    // A coordinator with an auth token must refuse workers presenting the
    // wrong token — or none — with a typed PermissionDenied error, before
    // any job state is shipped.
    for wrong_args in [
        vec!["--token", "not-the-secret"], // mismatched
        vec![],                            // missing entirely
    ] {
        let job = job("sssp", 1);
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let mut args = vec!["connect", &addr];
        args.extend(wrong_args.iter());
        let children = spawn_workers(&args, 1);
        let streams = vec![listener.accept().expect("accept").0];
        let config = EngineConfig {
            read_timeout: Some(Duration::from_secs(10)),
            auth_token: Some("the-secret".into()),
            ..Default::default()
        };
        let err = run_coordinator(&job, streams, &config, None)
            .expect_err("a wrong token must be rejected");
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::PermissionDenied,
            "want a typed PermissionDenied, got: {err}"
        );
        assert!(
            err.to_string().contains("auth token"),
            "unhelpful auth error: {err}"
        );
        // The rejected worker never gets a job and exits with an error of
        // its own; just make sure it is gone.
        for mut child in children {
            let _ = child.wait();
        }
    }
}

#[test]
fn matching_auth_tokens_run_to_completion() {
    let job = job("sssp", 2);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr").to_string();
    let children = spawn_workers(&["connect", &addr, "--token", "the-secret"], job.workers);
    let streams = (0..job.workers)
        .map(|_| listener.accept().expect("accept").0)
        .collect();
    let config = EngineConfig {
        auth_token: Some("the-secret".into()),
        ..Default::default()
    };
    let remote = run_coordinator(&job, streams, &config, None).expect("authenticated run");
    reap(children);
    let reference = run_local_framed(&job).expect("local run");
    assert_eq!(remote.result, reference.result);
    assert_eq!(remote.stats.supersteps, reference.stats.supersteps);
}

#[test]
fn self_spawning_coordinator_verifies_itself() {
    // The one-command demo: `serve --spawn --verify` forks its own workers
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
    // One job protocol, three ways to reach it: worker processes dialling a
    // batch coordinator, a session over in-process workers, and a session
    // over a resident daemon. All eight classes must produce the same typed
    // `QueryResult` — not merely the same digest — and the same superstep
    // count on each route.
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

/// Connected socket pairs standing in for dialled-in workers: the
/// coordinator's ends, and ours — on which nothing may ever arrive.
fn idle_connections(n: u32) -> (Vec<TcpStream>, Vec<TcpStream>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    (0..n)
        .map(|_| {
            let ours = TcpStream::connect(addr).expect("connect");
            (listener.accept().expect("accept").0, ours)
        })
        .unzip()
}

fn assert_nothing_was_sent(ours: Vec<TcpStream>) {
    for mut stream in ours {
        stream.set_nonblocking(true).expect("nonblocking");
        match stream.read(&mut [0u8; 1]) {
            // The coordinator hung up without a byte, or is still silent.
            Ok(0) => {}
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            other => panic!("the coordinator sent something: {other:?}"),
        }
    }
}

#[test]
fn a_wrong_family_query_is_the_same_error_on_every_route() {
    // Every class against the graph family it does not run on: the
    // dispatcher refuses it — with one typed InvalidData error, worded the
    // same whether the query came in through a batch run, an in-process
    // session or a session on a daemon — and before anything is shipped.
    let daemon = GrapeService::bind("127.0.0.1:0", ServiceOptions::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
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

        let (streams, ours) = idle_connections(job.workers);
        let batch = run_coordinator(&job, streams, &EngineConfig::default(), None)
            .expect_err("batch run of a wrong-family query");
        assert_nothing_was_sent(ours);

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
        (&["connect", "127.0.0.1:1"], "--kill-at", "1O"),
        (&["connect", "127.0.0.1:1"], "--timeout", "3s"),
        (&serve, "--timeout", "3s"),
        (&serve, "--threads", "two"),
        (&serve, "--source", "-1"),
        (&serve, "--checkpoint-every", "1.5"),
        (&["daemon"], "--handshake-timeout", "3s"),
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
fn a_flag_missing_its_value_is_a_usage_error() {
    let output = Command::new(worker_bin())
        .args(["connect", "127.0.0.1:1", "--kill-at"])
        .output()
        .expect("run grape-worker");
    assert_eq!(output.status.code(), Some(2), "{:?}", output.status);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("--kill-at needs a value"), "{stderr}");
}
