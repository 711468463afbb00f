//! A batch run is a one-query session over daemons: that no daemon is left
//! waiting when its query fails, and that listeners report the endpoint
//! they accept on.

mod support;

use grape_comm::wire::{self, TAG_QUERY};
use grape_core::EngineConfig;
use grape_worker::service::ServiceStream;
use grape_worker::{
    run_session, Endpoint, GrapeService, GraphSpec, JobSpec, ServiceListener, ServiceOptions,
    SessionConfig,
};
use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::mpsc;
use std::time::Duration;
use support::silent_daemon;

fn weighted_job(algo: &str) -> JobSpec {
    JobSpec {
        algo: algo.into(),
        graph: GraphSpec::Ba {
            n: 200,
            m: 3,
            seed: 5,
        },
        strategy: "hash".into(),
        workers: 3,
        source: 0,
        threads: 1,
        checkpoint_every: 0,
    }
}

/// A proxy in front of `upstream` that passes every frame through and, for
/// each connection that carried a query, sends `released` whether the
/// session hung up on it.
fn hangup_proxy(upstream: Endpoint, released: mpsc::Sender<bool>) -> Endpoint {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
    let endpoint = Endpoint::Tcp(listener.local_addr().expect("addr").to_string());
    std::thread::spawn(move || {
        for client in listener.incoming().flatten() {
            let mut daemon = upstream.connect().expect("upstream");
            let (mut to_client, mut from_daemon) = (
                client.try_clone().unwrap(),
                daemon.try_clone_stream().unwrap(),
            );
            std::thread::spawn(move || {
                let _ = std::io::copy(&mut from_daemon, &mut to_client);
            });
            let (mut client, released) = (client, released.clone());
            std::thread::spawn(move || {
                let mut queried = false;
                let hung_up = loop {
                    match wire::read_frame_io_epoch(&mut client) {
                        Ok(Some((tag, epoch, body))) => {
                            queried |= tag == TAG_QUERY;
                            let mut frame = Vec::new();
                            wire::encode_frame_with_epoch(tag, epoch, &mut frame, |out| {
                                out.extend_from_slice(&body)
                            });
                            let _ = daemon.write_all(&frame);
                        }
                        Ok(None) => break true,
                        Err(_) => break false,
                    }
                };
                let _ = daemon.shutdown_both();
                if queried {
                    let _ = released.send(hung_up);
                }
            });
        }
    });
    endpoint
}

#[test]
fn workers_are_hung_up_on_when_a_run_fails() {
    // Worker 0's daemon is real, behind a proxy. "Worker 1"'s takes its
    // fragment and then never reports, so the query fails on the read
    // timeout — after which both must see their query connection closed
    // instead of waiting forever.
    let daemon = GrapeService::bind("127.0.0.1:0", ServiceOptions::default())
        .expect("bind")
        .spawn()
        .expect("spawn");
    let (released, joined) = mpsc::channel();
    let endpoints = vec![
        hangup_proxy(daemon.endpoint().clone(), released.clone()),
        silent_daemon(released),
    ];
    let mut job = weighted_job("cc");
    job.workers = 2;
    let engine = EngineConfig {
        read_timeout: Some(Duration::from_millis(200)),
        ..Default::default()
    };
    let config = SessionConfig::remote(0, endpoints).with_engine(engine);
    let err = run_session(&job, config).expect_err("a worker that never reports fails the run");
    assert!(err.to_string().contains("read timeout"), "{err}");
    for _ in 0..2 {
        let released = joined.recv_timeout(Duration::from_secs(10));
        assert_eq!(released, Ok(true), "a worker was left waiting");
    }
    daemon.shutdown().expect("shutdown");
}

#[test]
fn listeners_report_the_endpoint_they_accept_on() {
    let path = std::env::temp_dir().join(format!("grape-listen-{}.sock", std::process::id()));
    for endpoint in [Endpoint::Tcp("127.0.0.1:0".into()), Endpoint::Uds(path)] {
        let listener = ServiceListener::bind(&endpoint).expect("bind");
        let bound = listener.endpoint().expect("endpoint");
        assert_ne!(bound, Endpoint::Tcp("127.0.0.1:0".into()), "port resolved");
        let mut dialler = bound.connect().expect("connect");
        let mut accepted = listener.accept().expect("accept");
        dialler.write_all(b"ping").expect("write");
        let mut buf = [0u8; 4];
        accepted.read_exact(&mut buf).expect("read");
        assert_eq!(&buf, b"ping");
    }
}
