//! Multi-process fault drills: real `grape-worker` OS processes that SIGKILL
//! themselves at scheduled supersteps, with the coordinator recovering —
//! respawn, re-ship the fragment and the query at a bumped epoch, resume from
//! the last checkpoint, replay the commands since — and every recovered
//! typed result pinned bit-identical to an undisturbed run of the same job.
//!
//! The kill schedule sweeps *every* superstep index of the run, over both
//! TCP and Unix-domain sockets, for all eight query classes, at every
//! checkpoint cadence in `GRAPE_CHECKPOINT_EVERY` (a single cadence for CI
//! matrix entries) or {1, 2, 4} by default. Concurrent two-victim kills,
//! replacements dying mid-replay, muted workers and duplicated frames get
//! their own drills. Everything is deterministic: victims die upon receiving
//! their `kill_at`-th evaluation command, never by wall-clock.

use grape_core::chaos::ChaosConfig;
use grape_core::EngineConfig;
use grape_worker::{
    run_coordinator, run_local_framed, run_worker, Endpoint, GraphSpec, JobSpec, QueryOutcome,
    ServiceListener, WorkerOptions,
};
use std::cell::RefCell;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

fn worker_bin() -> &'static str {
    env!("CARGO_BIN_EXE_grape-worker")
}

/// The cadences a sweep covers: a single value from `GRAPE_CHECKPOINT_EVERY`
/// (how the CI matrix splits the axis) or {1, 2, 4} by default — recovery
/// must be bit-identical whatever the snapshot rhythm.
fn checkpoint_cadences() -> Vec<u32> {
    match std::env::var("GRAPE_CHECKPOINT_EVERY") {
        Ok(v) => vec![v
            .parse()
            .expect("GRAPE_CHECKPOINT_EVERY must be a positive integer")],
        Err(_) => vec![1, 2, 4],
    }
}

fn job(algo: &str) -> JobSpec {
    let labeled = matches!(algo, "sim" | "subiso" | "keyword" | "marketing");
    JobSpec {
        algo: algo.into(),
        // Small graphs with several supersteps, so the kill sweep has real
        // indices to cover: 10x10 seed 3 for the weighted classes (many road
        // seeds let CC converge in a single superstep), a small social graph
        // for the labeled pattern-matching classes.
        graph: if labeled {
            GraphSpec::Social {
                persons: 24,
                products: 4,
                seed: 5,
            }
        } else {
            GraphSpec::Road {
                width: 10,
                height: 10,
                seed: 3,
            }
        },
        strategy: "hash".into(),
        workers: 2,
        source: 0,
        threads: 1,
        checkpoint_every: 1,
    }
}

fn spawn_worker(args: &[String]) -> Child {
    Command::new(worker_bin())
        .args(args)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn grape-worker")
}

/// Waits for every child; victims died by SIGKILL on purpose, so exit
/// statuses are not asserted — only that nothing is left running.
fn reap_lenient(children: Vec<Child>) {
    for mut child in children {
        let _ = child.wait();
    }
}

/// One drill over `endpoint` (TCP or Unix-domain) with an arbitrary kill
/// plan: each `kills` entry `(worker, kill_at)` arms that initial worker to
/// die at its `kill_at`-th evaluation command; each `replacement_kills` entry
/// is consumed by one respawn of that worker, arming the *replacement* —
/// cascading failure. Spawn/accept run strictly in sequence so
/// accepted-stream order is fragment order.
fn drill_plan(
    job: &JobSpec,
    endpoint: &Endpoint,
    kills: &[(usize, usize)],
    replacement_kills: &[(usize, usize)],
) -> QueryOutcome {
    let listener = ServiceListener::bind(endpoint).expect("bind");
    let connect_args = match listener.endpoint().expect("endpoint") {
        Endpoint::Tcp(addr) => vec!["connect".to_string(), addr],
        #[cfg(unix)]
        Endpoint::Uds(path) => vec![
            "connect-uds".to_string(),
            path.to_str().expect("utf-8 socket path").to_string(),
        ],
    };
    let spawn_armed = |kill_at: Option<usize>| {
        let mut args = connect_args.clone();
        if let Some(kill_at) = kill_at {
            args.extend(["--kill-at".to_string(), kill_at.to_string()]);
        }
        spawn_worker(&args)
    };
    let mut streams = Vec::new();
    let mut children = Vec::new();
    for index in 0..job.workers as usize {
        let armed = kills.iter().find(|&&(worker, _)| worker == index);
        children.push(spawn_armed(armed.map(|&(_, kill_at)| kill_at)));
        streams.push(listener.accept().expect("accept"));
    }
    let children = RefCell::new(children);
    let mut pending = replacement_kills.to_vec();
    let mut respawn = |worker: usize| {
        let position = pending.iter().position(|&(w, _)| w == worker);
        let kill_at = position.map(|i| pending.remove(i).1);
        children.borrow_mut().push(spawn_armed(kill_at));
        listener.accept()
    };
    let outcome = run_coordinator(job, streams, &EngineConfig::default(), Some(&mut respawn))
        .expect("recoverable run");
    reap_lenient(children.into_inner());
    outcome
}

fn tcp_drill_plan(
    job: &JobSpec,
    kills: &[(usize, usize)],
    replacement_kills: &[(usize, usize)],
) -> QueryOutcome {
    let endpoint = Endpoint::Tcp("127.0.0.1:0".into());
    drill_plan(job, &endpoint, kills, replacement_kills)
}

fn tcp_drill(job: &JobSpec, kill_at: usize) -> QueryOutcome {
    tcp_drill_plan(job, &[(0, kill_at)], &[])
}

/// The Unix-domain-socket twin of [`tcp_drill`].
#[cfg(unix)]
fn uds_drill(job: &JobSpec, kill_at: usize, tag: &str) -> QueryOutcome {
    let path = std::env::temp_dir().join(format!(
        "grape-chaos-{}-{tag}-{kill_at}.sock",
        std::process::id()
    ));
    drill_plan(job, &Endpoint::Uds(path), &[(0, kill_at)], &[])
}

/// Sweeps the kill schedule over every superstep of the reference run, at
/// every checkpoint cadence, and pins each recovered outcome against the
/// undisturbed one.
fn sweep(algo: &str, drill: impl Fn(&JobSpec, usize) -> QueryOutcome) {
    let mut job = job(algo);
    for k in checkpoint_cadences() {
        job.checkpoint_every = k;
        let reference = run_local_framed(&job).expect("reference run");
        let supersteps = reference.stats.supersteps;
        assert!(supersteps >= 2, "{algo}: job too small to drill");
        let mut kills = 0usize;
        for kill_at in 0..supersteps {
            let recovered = drill(&job, kill_at);
            assert_eq!(
                recovered.result, reference.result,
                "{algo} k={k} kill_at={kill_at}: recovered result diverges"
            );
            assert_eq!(
                recovered.result.digest(),
                reference.result.digest(),
                "{algo} k={k} kill_at={kill_at}: recovered digest diverges"
            );
            assert_eq!(
                recovered.stats.supersteps, reference.stats.supersteps,
                "{algo} k={k} kill_at={kill_at}: superstep count diverges"
            );
            // The victim counts evaluation commands; if it reached the
            // fixpoint before `kill_at` evaluations (it received fewer
            // IncEvals than the global superstep count) the kill never fires
            // and the run is legitimately undisturbed. Every index where it
            // does fire must recover, and the sweep as a whole must have
            // killed repeatedly.
            kills += recovered.stats.recoveries;
        }
        // The victim is only sent the IncEvals it has messages for, so it can
        // receive fewer evaluation commands than the global superstep count
        // (trailing schedule indices never fire); a majority still must.
        assert!(
            kills >= supersteps.div_ceil(2),
            "{algo} k={k}: only {kills} kills fired across {supersteps} scheduled indices"
        );
    }
}

#[test]
fn tcp_kill_sweep_sssp() {
    sweep("sssp", tcp_drill);
}

#[test]
fn tcp_kill_sweep_cc() {
    sweep("cc", tcp_drill);
}

#[test]
fn tcp_kill_sweep_pagerank() {
    sweep("pagerank", tcp_drill);
}

#[test]
fn tcp_kill_sweep_cf() {
    sweep("cf", tcp_drill);
}

#[test]
fn tcp_kill_sweep_sim() {
    sweep("sim", tcp_drill);
}

#[test]
fn tcp_kill_sweep_subiso() {
    sweep("subiso", tcp_drill);
}

#[test]
fn tcp_kill_sweep_keyword() {
    sweep("keyword", tcp_drill);
}

#[test]
fn tcp_kill_sweep_marketing() {
    sweep("marketing", tcp_drill);
}

#[cfg(unix)]
#[test]
fn uds_kill_sweep_sssp() {
    sweep("sssp", |job, kill_at| uds_drill(job, kill_at, "sssp"));
}

#[cfg(unix)]
#[test]
fn uds_kill_sweep_cc() {
    sweep("cc", |job, kill_at| uds_drill(job, kill_at, "cc"));
}

#[cfg(unix)]
#[test]
fn uds_kill_sweep_pagerank() {
    sweep("pagerank", |job, kill_at| {
        uds_drill(job, kill_at, "pagerank")
    });
}

#[cfg(unix)]
#[test]
fn uds_kill_sweep_cf() {
    sweep("cf", |job, kill_at| uds_drill(job, kill_at, "cf"));
}

#[cfg(unix)]
#[test]
fn uds_kill_sweep_sim() {
    sweep("sim", |job, kill_at| uds_drill(job, kill_at, "sim"));
}

#[cfg(unix)]
#[test]
fn uds_kill_sweep_subiso() {
    sweep("subiso", |job, kill_at| uds_drill(job, kill_at, "subiso"));
}

#[cfg(unix)]
#[test]
fn uds_kill_sweep_keyword() {
    sweep("keyword", |job, kill_at| uds_drill(job, kill_at, "keyword"));
}

#[cfg(unix)]
#[test]
fn uds_kill_sweep_marketing() {
    sweep("marketing", |job, kill_at| {
        uds_drill(job, kill_at, "marketing")
    });
}

#[test]
fn two_victims_in_the_same_superstep_recover_as_a_batch() {
    // Two of three real worker processes SIGKILL themselves at the same
    // evaluation command: the coordinator must recover both in one wave —
    // one epoch bump and one replay each — and still land bit-identical.
    for algo in ["sssp", "pagerank"] {
        let mut job = job(algo);
        job.workers = 3;
        let reference = run_local_framed(&job).expect("reference run");
        let kill_at = (reference.stats.supersteps - 1).min(1);
        let recovered = tcp_drill_plan(&job, &[(0, kill_at), (1, kill_at)], &[]);
        assert_eq!(recovered.result, reference.result, "{algo}");
        assert_eq!(
            recovered.stats.supersteps, reference.stats.supersteps,
            "{algo}"
        );
        assert!(
            recovered.stats.recoveries >= 2,
            "{algo}: both victims must have died, got {} recoveries",
            recovered.stats.recoveries
        );
    }
}

#[test]
fn a_replacement_dying_mid_replay_reenters_recovery() {
    // Cascading failure: worker 0's replacement dies on its first replayed
    // command, so recovery itself must survive a recovery in progress.
    let job = job("sssp");
    let reference = run_local_framed(&job).expect("reference run");
    let recovered = tcp_drill_plan(&job, &[(0, 1)], &[(0, 0)]);
    assert_eq!(recovered.result, reference.result);
    assert_eq!(recovered.stats.supersteps, reference.stats.supersteps);
    assert!(
        recovered.stats.recoveries >= 2,
        "the replacement's death must count as a second recovery, got {}",
        recovered.stats.recoveries
    );
}

#[test]
fn a_muted_worker_hits_the_timeout_path_and_is_replaced() {
    // A worker whose sends are all dropped (its reports simply never arrive)
    // is indistinguishable from a hung process: the coordinator's read
    // timeout must attribute the silence, replace the worker and recover
    // bit-identical. In-process worker threads over real TCP sockets, so
    // the chaos transport's mute mode is exercised end to end.
    let job = job("sssp");
    let reference = run_local_framed(&job).expect("reference run");
    let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let outcome = std::thread::scope(|scope| {
        let mut streams = Vec::new();
        for index in 0..job.workers as usize {
            let connect = std::net::TcpStream::connect(addr).expect("connect");
            let (accepted, _) = listener.accept().expect("accept");
            let options = if index == 0 {
                WorkerOptions {
                    // The mute victim keeps reading and evaluating; the short
                    // read timeout bounds its life after it stops being fed.
                    read_timeout: Some(Duration::from_secs(5)),
                    chaos: ChaosConfig {
                        mute_per_mille: 1000,
                        ..Default::default()
                    },
                    ..Default::default()
                }
            } else {
                WorkerOptions::default()
            };
            scope.spawn(move || {
                let _ = run_worker(connect, options);
            });
            streams.push(accepted);
        }
        let listener = &listener;
        let mut respawn = |_worker: usize| {
            let connect = std::net::TcpStream::connect(addr)?;
            let (accepted, _) = listener.accept()?;
            scope.spawn(move || {
                let _ = run_worker(connect, WorkerOptions::default());
            });
            Ok(accepted)
        };
        let config = EngineConfig {
            read_timeout: Some(Duration::from_millis(300)),
            ..Default::default()
        };
        run_coordinator(&job, streams, &config, Some(&mut respawn)).expect("recoverable run")
    });
    assert_eq!(outcome.result, reference.result);
    assert_eq!(outcome.stats.supersteps, reference.stats.supersteps);
    assert!(
        outcome.stats.recoveries >= 1,
        "the muted worker must have been replaced"
    );
}

#[test]
fn duplicated_frames_are_fenced_by_the_gather() {
    // Workers whose every frame is sent twice: the recoverable gather's
    // dedup must drop the echoes (they are out-of-phase reports) and land
    // on exactly the clean run's digests and superstep count.
    use grape_algo::{digest_f64_map, SsspProgram, SsspQuery};
    use grape_comm::CommStats;
    use grape_core::chaos::ChaosWorkerTransport;
    use grape_core::engine::run_worker;
    use grape_core::transport::framed_channel_pair;
    use grape_core::{GrapeEngine, PieProgram};
    use grape_graph::generators::{road_network, RoadNetworkConfig};
    use grape_partition::{build_fragments, BuiltinStrategy};
    use std::sync::Arc;

    let graph = road_network(
        RoadNetworkConfig {
            width: 10,
            height: 10,
            ..Default::default()
        },
        3,
    )
    .expect("road graph");
    let assignment = BuiltinStrategy::Hash.partition(&graph, 2);
    let fragments = build_fragments(&graph, &assignment);
    let query = SsspQuery::new(0);

    let run = |duplicate_per_mille: u32| {
        let stats = Arc::new(CommStats::new());
        let (coord, worker_transports) =
            framed_channel_pair::<<SsspProgram as PieProgram>::Value>(fragments.len(), stats);
        std::thread::scope(|scope| {
            let handles: Vec<_> = fragments
                .iter()
                .zip(worker_transports)
                .map(|(fragment, wt)| {
                    let query = &query;
                    scope.spawn(move || {
                        let chaos = ChaosConfig {
                            duplicate_per_mille,
                            ..Default::default()
                        };
                        let wrapped = ChaosWorkerTransport::new(wt, chaos, Box::new(|| {}));
                        let partial =
                            run_worker(&SsspProgram, query, fragment, &wrapped, 1, 1, None)
                                .expect("worker ran");
                        digest_f64_map(&SsspProgram.assemble(vec![partial]))
                    })
                })
                .collect();
            let mut recover = |worker: usize, _epoch: u32| -> Result<(), String> {
                panic!("duplicated frames must not trigger recovery (worker {worker})")
            };
            let stats_out = GrapeEngine::new(SsspProgram)
                .run_coordinator(&fragments, &coord, Some(&mut recover))
                .expect("coordinator ran");
            let digests: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
            (digests, stats_out.supersteps)
        })
    };

    let (clean_digests, clean_supersteps) = run(0);
    let (dup_digests, dup_supersteps) = run(1000);
    assert_eq!(dup_digests, clean_digests, "duplicates changed the answer");
    assert_eq!(dup_supersteps, clean_supersteps);
}
