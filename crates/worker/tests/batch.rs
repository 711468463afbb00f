//! The two batch entry points on in-process socket pairs: what a run needs
//! to start, and that no worker is left waiting when it fails.

use grape_comm::wire::{self, TAG_HELLO, TAG_LOADED};
use grape_core::EngineConfig;
use grape_worker::{
    run_coordinator, run_worker, Endpoint, GraphSpec, JobSpec, ServiceListener, WorkerOptions,
};
use std::io::{self, Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::mpsc;
use std::time::Duration;

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

#[test]
fn a_batch_run_needs_one_connection_per_worker() {
    let (one, _other) = UnixStream::pair().unwrap();
    let err = run_coordinator(
        &weighted_job("cc"),
        vec![one],
        &EngineConfig::default(),
        None,
    )
    .expect_err("1 connection for 3 workers");
    assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("1 connections for 3 workers"));
}

#[test]
fn workers_are_hung_up_on_when_a_run_fails() {
    // Worker 0 is real. "Worker 1" greets, acks its load and then never
    // reports, so the run fails on the read timeout — after which both
    // must see their connection closed instead of waiting forever. The real
    // worker's claim is that it returns, not how: the hang-up can reach it
    // between frames, as the clean end of stream `run_worker` answers with
    // `Ok(())`.
    let (real, real_accepted) = UnixStream::pair().unwrap();
    let (mut fake, fake_accepted) = UnixStream::pair().unwrap();
    let (done, joined) = mpsc::channel();
    let real_done = done.clone();
    std::thread::spawn(move || {
        let _ = run_worker(real, WorkerOptions::default());
        let _ = real_done.send(true);
    });
    std::thread::spawn(move || {
        wire::write_frame_io_epoch(&mut fake, TAG_HELLO, 0, &None::<String>).unwrap();
        for _ in 0..2 {
            wire::read_frame_io_epoch(&mut fake)
                .unwrap()
                .expect("load, then fragment");
        }
        wire::write_frame_io_epoch(&mut fake, TAG_LOADED, 0, &0u64).unwrap();
        let hung_up = fake.read_to_end(&mut Vec::new()).is_ok();
        let _ = done.send(hung_up);
    });
    let mut job = weighted_job("cc");
    job.workers = 2;
    let config = EngineConfig {
        read_timeout: Some(Duration::from_millis(200)),
        ..Default::default()
    };
    let err = run_coordinator(&job, vec![real_accepted, fake_accepted], &config, None)
        .expect_err("a worker that never reports fails the run");
    assert!(err.to_string().contains("read timeout"), "{err}");
    for _ in 0..2 {
        let released = joined.recv_timeout(Duration::from_secs(10));
        assert_eq!(released, Ok(true), "a worker was left waiting");
    }
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
