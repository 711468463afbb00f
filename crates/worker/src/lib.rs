//! # grape-worker
//!
//! Runs GRAPE workers as **separate OS processes**, speaking the framed wire
//! protocol of [`grape_comm::wire`] over TCP or Unix-domain sockets.
//!
//! The division of labour mirrors the paper's deployment: a coordinator owns
//! the graph, partitions it, and drives the BSP fixpoint
//! ([`grape_core::GrapeEngine::run_coordinator`]); each worker owns one
//! fragment and runs the *unchanged* PIE program through
//! [`grape_core::engine::run_worker`] — the same function the in-process
//! threaded driver uses, pointed at a socket instead of a channel. Every
//! query class of the paper is served: the traversal/ML classes (`sssp`,
//! `cc`, `pagerank`, `cf`) on weighted graphs and the pattern-matching
//! classes (`sim`, `subiso`, `keyword`, `marketing`) on labeled social
//! graphs.
//!
//! There is one job protocol, described once in [`service`]: load a
//! fragment, submit a typed query, get the typed result back. A resident
//! [`GrapeService`] daemon serves it to any number of [`Session`]s; a
//! **batch run** — what the `grape-worker serve` CLI does — is a one-query
//! session whose workers dial in instead of being dialled:
//!
//! * [`run_worker`] is the worker side: it greets the coordinator and then
//!   serves frames exactly as a daemon connection does, from a private
//!   one-connection fragment registry;
//! * [`run_coordinator`] is the coordinator side: it checks each accepted
//!   connection's greeting, ships it its fragment and the query, and drives
//!   the same open → drive → collect loop a remote [`Session`] query runs —
//!   with a respawn hook, through worker loss (see [`service`]'s "Fault
//!   tolerance");
//! * [`run_local_framed`] and [`run_local_recoverable_tcp`] are the
//!   in-process reference and recovery drill the tests and benches pin the
//!   multi-process path against: a one-shot engine run over the framed
//!   channel, and a batch run over the pieces above.

#![warn(missing_docs)]

use grape_algo::{dispatch, ClassVisitor, Query, QueryClass, QueryResult};
use grape_comm::wire::{self, Wire, TAG_HELLO, TAG_QUERY};
use grape_core::chaos::ChaosConfig;
use grape_core::{EngineConfig, Fragment, GrapeEngine, PieProgram, TransportKind};
use grape_partition::BuiltinStrategy;
use service::{
    coordinate, expect_hello, serve_frames, ship_fragment, LoadSpec, QueryJob, ServiceSocket,
    ServiceState, ServiceStream, SessionFragments,
};
use std::io;
use std::sync::Arc;
use std::time::Duration;

pub mod service;

pub use grape_core::WarmHandle;
pub use service::{
    Endpoint, GrapeService, QueryHandle, QueryOutcome, ServiceHandle, ServiceListener,
    ServiceOptions, Session, SessionConfig, SessionGraph, SessionUpdate, UpdateReceipt, UpdateSpec,
};

/// A deterministic graph recipe ([`SessionGraph::generate`] builds it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphSpec {
    /// `road_network(width × height, seed)` with default lake/shortcut
    /// probabilities.
    Road {
        /// Grid width.
        width: u32,
        /// Grid height.
        height: u32,
        /// Generator seed.
        seed: u32,
    },
    /// `barabasi_albert(n, m, seed)`.
    Ba {
        /// Number of vertices.
        n: u32,
        /// Edges per new vertex.
        m: u32,
        /// Generator seed.
        seed: u32,
    },
    /// `labeled_social(persons, products, seed)` — the labeled property
    /// graph the pattern-matching classes (`sim`, `subiso`, `keyword`,
    /// `marketing`) run on.
    Social {
        /// Number of `person` vertices.
        persons: u32,
        /// Number of `product` vertices.
        products: u32,
        /// Generator seed.
        seed: u32,
    },
}

impl GraphSpec {
    /// Parses `road:WxH:SEED`, `ba:N:M:SEED` or `social:P:R:SEED`.
    pub fn parse(text: &str) -> Result<Self, String> {
        let parts: Vec<&str> = text.split(':').collect();
        let num = |s: &str| -> Result<u32, String> {
            s.parse::<u32>().map_err(|_| format!("bad number {s:?}"))
        };
        match parts.as_slice() {
            ["road", dims, seed] => {
                let (w, h) = dims
                    .split_once('x')
                    .ok_or_else(|| format!("bad dimensions {dims:?}, expected WxH"))?;
                Ok(GraphSpec::Road {
                    width: num(w)?,
                    height: num(h)?,
                    seed: num(seed)?,
                })
            }
            ["ba", n, m, seed] => Ok(GraphSpec::Ba {
                n: num(n)?,
                m: num(m)?,
                seed: num(seed)?,
            }),
            ["social", persons, products, seed] => Ok(GraphSpec::Social {
                persons: num(persons)?,
                products: num(products)?,
                seed: num(seed)?,
            }),
            _ => Err(format!(
                "bad graph spec {text:?}; expected road:WxH:SEED, ba:N:M:SEED or social:P:R:SEED"
            )),
        }
    }
}

/// One batch run, as the CLI and the drills describe it: which canonical
/// query, on which generated graph, cut how, over how many workers.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// Algorithm name ([`QueryClass::name`]): `sssp`, `cc`, `pagerank`, `cf`
    /// (weighted graphs) or `sim`, `subiso`, `keyword`, `marketing` (labeled
    /// social graphs).
    pub algo: String,
    /// The graph the coordinator generates.
    pub graph: GraphSpec,
    /// Partition strategy name (a [`BuiltinStrategy::name`]).
    pub strategy: String,
    /// Total number of workers / fragments.
    pub workers: u32,
    /// Query anchor vertex: the SSSP source; the promoted product for
    /// `marketing` (0 = the graph's first product). Ignored elsewhere.
    pub source: u64,
    /// Intra-worker threads for the PIE hot loops (0 = auto: physical cores
    /// divided by the worker count).
    pub threads: u32,
    /// Checkpoint cadence: each worker snapshots its dense local state onto
    /// the first accepted report of every `k`-superstep window. 0 disables
    /// checkpoints; a run with a respawn hook forces at least 1.
    pub checkpoint_every: u32,
}

impl JobSpec {
    /// The canonical query of [`JobSpec::algo`], anchored at
    /// [`JobSpec::source`].
    pub fn query(&self) -> io::Result<Query> {
        let class = QueryClass::parse(&self.algo)
            .ok_or_else(|| bad_data(format!("unknown algorithm {:?}", self.algo)))?;
        let anchor = match (class, self.source, &self.graph) {
            // The first product vertex of a social graph follows its persons.
            (QueryClass::Marketing, 0, GraphSpec::Social { persons, .. }) => *persons as u64,
            (_, source, _) => source,
        };
        Ok(Query::canonical(class, anchor))
    }

    fn strategy(&self) -> io::Result<BuiltinStrategy> {
        strategy_by_name(&self.strategy)
            .ok_or_else(|| bad_data(format!("unknown strategy {:?}", self.strategy)))
    }

    /// `base` with this job's thread count and checkpoint cadence.
    fn engine_config(&self, base: &EngineConfig) -> EngineConfig {
        EngineConfig {
            threads_per_worker: self.threads.into(),
            checkpoint_every: self.checkpoint_every as usize,
            ..base.clone()
        }
    }
}

/// Looks up a partition strategy by its [`BuiltinStrategy::name`].
pub fn strategy_by_name(name: &str) -> Option<BuiltinStrategy> {
    BuiltinStrategy::all()
        .iter()
        .copied()
        .find(|s| s.name() == name)
}

pub(crate) fn bad_data(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

/// SIGKILLs the calling process: the real thing for multi-process chaos
/// drills — no unwinding, no flushes, no goodbye frame.
pub fn kill_self() {
    let pid = std::process::id().to_string();
    // `kill` is a real binary on every target we run on; abort() is the
    // fallback and is equally un-catchable.
    let _ = std::process::Command::new("kill")
        .args(["-9", &pid])
        .status();
    std::process::abort();
}

/// The worker-side knob set of [`run_worker`].
#[derive(Default)]
pub struct WorkerOptions {
    /// OS-level read timeout on the connection: a vanished coordinator then
    /// surfaces as an error instead of a worker that waits forever.
    pub read_timeout: Option<Duration>,
    /// Auth token presented in the [`TAG_HELLO`] frame.
    pub token: Option<String>,
    /// Fault-injection schedule (kills, duplicated / muted / delayed
    /// frames); [`ChaosConfig::default`] injects nothing. The kill index
    /// counts the evaluation commands of a query (0 = its Init handshake).
    pub chaos: ChaosConfig,
    /// How a scheduled kill dies: the `grape-worker` binary passes
    /// [`kill_self`]; `None` severs the connection, which is the same event
    /// at the transport level and what in-process harnesses need.
    pub on_kill: Option<fn()>,
}

/// Runs one dialled-in worker over an established connection: sends the
/// [`TAG_HELLO`] greeting, then serves the coordinator's frames — its
/// fragment, its query, the BSP loop, the result — until the coordinator
/// hangs up, exactly as a [`GrapeService`] daemon serves a connection.
pub fn run_worker<S: ServiceStream>(mut stream: S, options: WorkerOptions) -> io::Result<()> {
    if let Some(timeout) = options.read_timeout {
        stream.set_read_timeout(Some(timeout))?;
    }
    // Present credentials before anything else: the coordinator will not
    // ship a byte until the greeting passes validation.
    wire::write_frame_io_epoch(&mut stream, TAG_HELLO, 0, &options.token)?;
    stream.flush()?;
    let state = ServiceState::new(
        ServiceOptions::default(),
        options.chaos,
        options.on_kill,
        false,
    );
    serve_frames(stream, &state)
}

// ---------------------------------------------------------------------------
// Coordinator side
// ---------------------------------------------------------------------------

/// Runs `job` as the coordinator over `streams` — one accepted connection
/// per dialled-in worker, in fragment order: authenticates each worker's
/// hello against [`EngineConfig::auth_token`] (a mismatched or missing token
/// is a typed `PermissionDenied` error before anything is shipped), ships it
/// its fragment and the query, drives the BSP fixpoint, and assembles the
/// typed result. [`EngineConfig::read_timeout`] bounds the handshake and
/// every receive, so a silent worker surfaces as a typed
/// [`grape_core::TransportError::WorkerLost`] instead of a hang.
///
/// With a `respawn` hook the run survives worker loss — including several
/// workers in the same superstep, and replacements that die again
/// mid-replay: `respawn(worker)` must produce a fresh accepted connection to
/// a replacement worker process, which is shipped the lost fragment and the
/// query at a bumped epoch and resumed from the last checkpoint. A
/// [`JobSpec::checkpoint_every`] of 0 is then forced to 1 — recovery without
/// snapshots would mean replaying the whole run's lineage on every loss.
pub fn run_coordinator<S: ServiceStream>(
    job: &JobSpec,
    streams: Vec<S>,
    config: &EngineConfig,
    respawn: Option<&mut dyn FnMut(usize) -> io::Result<S>>,
) -> io::Result<QueryOutcome> {
    if streams.len() != job.workers as usize {
        return Err(bad_data(format!(
            "{} connections for {} workers",
            streams.len(),
            job.workers
        )));
    }
    let query = job.query()?;
    let graph = SessionGraph::generate(&job.graph)?;
    let (fragments, _) = SessionFragments::cut(&graph, job.strategy()?, streams.len());
    let mut config = job.engine_config(config);
    if respawn.is_some() {
        config.checkpoint_every = config.checkpoint_every.max(1);
    }
    let vertices = graph.num_vertices() as u64;
    let batch = Batch {
        query: &query,
        load: LoadSpec {
            graph_id: 0, // the only graph a dialled-in worker ever holds
            family: fragments.family(),
            index: 0, // set per connection
            workers: job.workers,
            vertices,
        },
        streams,
        respawn,
        config,
    };
    dispatch(&query, vertices, fragments.as_family(), batch)
}

/// One batch run, for whichever class [`dispatch`] resolves its query to.
struct Batch<'q, 'r, S> {
    query: &'q Query,
    load: LoadSpec,
    streams: Vec<S>,
    respawn: Option<&'r mut dyn FnMut(usize) -> io::Result<S>>,
    config: EngineConfig,
}

impl<S: ServiceStream> ClassVisitor for Batch<'_, '_, S> {
    type Out = QueryOutcome;

    fn visit<P>(
        self,
        program: P,
        _typed: P::Query,
        wrap: impl Fn(P::Output) -> QueryResult,
        fragments: &[Arc<Fragment<P::VertexData, P::EdgeData>>],
    ) -> io::Result<QueryOutcome>
    where
        P: PieProgram,
        P::VertexData: Wire,
        P::EdgeData: Wire,
    {
        let Batch {
            query,
            load,
            streams,
            mut respawn,
            config,
        } = self;
        let recoverable = respawn.is_some();
        let engine = GrapeEngine::new(program).with_config(config);
        let config = engine.config();
        let mut accepted: Vec<Option<S>> = streams.into_iter().map(Some).collect();
        // A stream to worker `i` at epoch `e`: the connection accepted for it
        // (or, after a loss, one to a respawned replacement), greeted, and —
        // since a dialled-in worker starts empty — shipped its fragment.
        let mut open = |worker: usize, epoch: u32| -> io::Result<(S, usize)> {
            let mut stream = match (accepted[worker].take(), respawn.as_mut()) {
                (Some(stream), _) => stream,
                (None, Some(respawn)) => respawn(worker)?,
                (None, None) => return Err(io::Error::other("no respawn hook")),
            };
            expect_hello(
                &mut stream,
                config.auth_token.as_deref(),
                worker,
                config.read_timeout,
            )?;
            let spec = LoadSpec {
                index: worker as u32,
                ..load.clone()
            };
            let job = QueryJob {
                graph_id: spec.graph_id,
                index: spec.index,
                workers: spec.workers,
                run_id: epoch,
                threads: config.threads_per_worker.into(),
                checkpoint_every: config.checkpoint_every as u32,
                query: query.clone(),
                kill_at: None,
                seed: None,
            };
            // A dialled-in worker acks its load, and a socket that has
            // answered once delays its TCP ACKs: the coordinator's
            // back-to-back small writes (query then Init, Resume then the
            // replayed commands) must not wait on those.
            stream.set_nodelay()?;
            // A connection dead before the handshake completes is a startup
            // failure of that worker, not a mid-run loss.
            stream.set_read_timeout(config.read_timeout)?;
            let sent = ship_fragment(&mut stream, &spec, epoch, &fragments[worker])
                .and_then(|()| stream.set_read_timeout(None))
                .and_then(|()| wire::write_frame_io_epoch(&mut stream, TAG_QUERY, epoch, &job))
                .and_then(|sent| stream.flush().map(|()| sent))
                .map_err(|e| {
                    io::Error::other(format!("worker {worker} lost during handshake: {e}"))
                })?;
            Ok((stream, sent))
        };
        let (answers, mut stats) = coordinate(&engine, fragments, recoverable, &mut open)?;
        let assemble_started = std::time::Instant::now();
        let output = engine
            .program()
            .assemble_answers(fragments, &answers)
            .map_err(|e| bad_data(e.to_string()))?;
        stats.assemble_seconds = assemble_started.elapsed().as_secs_f64();
        Ok(QueryOutcome {
            result: wrap(output),
            stats,
        })
    }
}

// ---------------------------------------------------------------------------
// In-process reference + recovery drill
// ---------------------------------------------------------------------------

/// Runs the identical job fully in-process — a one-shot [`GrapeEngine`] run
/// over the framed *channel* transport, no socket anywhere: the reference
/// the multi-process path must match bit for bit (typed result, supersteps,
/// message and wire-byte counts).
pub fn run_local_framed(job: &JobSpec) -> io::Result<QueryOutcome> {
    let query = job.query()?;
    let graph = SessionGraph::generate(&job.graph)?;
    let (fragments, _) = SessionFragments::cut(&graph, job.strategy()?, job.workers as usize);
    let config = job.engine_config(&EngineConfig {
        transport: TransportKind::Framed,
        ..Default::default()
    });
    let vertices = graph.num_vertices() as u64;
    dispatch(&query, vertices, fragments.as_family(), OneShot(config))
}

/// One one-shot engine run, for whichever class [`dispatch`] resolves its
/// query to.
struct OneShot(EngineConfig);

impl ClassVisitor for OneShot {
    type Out = QueryOutcome;

    fn visit<P: PieProgram>(
        self,
        program: P,
        query: P::Query,
        wrap: impl Fn(P::Output) -> QueryResult,
        fragments: &[Arc<Fragment<P::VertexData, P::EdgeData>>],
    ) -> io::Result<QueryOutcome> {
        let run = GrapeEngine::new(program)
            .with_config(self.0)
            .run(&query, fragments)
            .map_err(|e| io::Error::other(e.to_string()))?;
        Ok(QueryOutcome {
            result: wrap(run.output),
            stats: run.stats,
        })
    }
}

/// Runs `job` over real TCP sockets with worker threads in this process,
/// killed on schedule — their sockets torn down, the SIGKILL event at the
/// transport level — and recovered by [`run_coordinator`]. This is the
/// deterministic in-process recovery drill the chaos tests and the
/// `recovery_ms` benchmark column share.
///
/// `kills` schedules `(worker, kill_at)` deaths for the initial workers
/// (several entries with the same `kill_at` exercise same-superstep batch
/// recovery), and each `replacement_kills` entry `(worker, kill_at)` is
/// consumed by one respawn of that worker, whose *replacement* then dies at
/// its own command index — cascading failure mid-replay. Repeat a worker in
/// `replacement_kills` to drive it into its crash-loop budget.
pub fn run_local_recoverable_tcp(
    job: &JobSpec,
    kills: &[(usize, usize)],
    replacement_kills: &[(usize, usize)],
) -> io::Result<QueryOutcome> {
    let listener = ServiceListener::bind(&Endpoint::Tcp("127.0.0.1:0".into()))?;
    let endpoint = listener.endpoint()?;
    let n = job.workers as usize;
    for &(worker, _) in kills.iter().chain(replacement_kills) {
        if worker >= n {
            return Err(bad_data(format!(
                "kill schedule names worker {worker}, but the job has {n} workers"
            )));
        }
    }
    std::thread::scope(|scope| {
        // Connect + accept strictly in sequence so accepted-stream order is
        // fragment order — the index mapping must be deterministic.
        let spawn_worker = |kill_at: Option<usize>| -> io::Result<ServiceSocket> {
            let connect = endpoint.connect()?;
            let accepted = listener.accept()?;
            let options = WorkerOptions {
                chaos: ChaosConfig {
                    kill_at,
                    ..Default::default()
                },
                ..Default::default()
            };
            scope.spawn(move || {
                // A killed worker exits with a torn-down connection; its
                // replacement reports in its stead.
                let _ = run_worker(connect, options);
            });
            Ok(accepted)
        };
        let scheduled = |plan: &[(usize, usize)], worker: usize| {
            plan.iter().position(|&(victim, _)| victim == worker)
        };
        let streams = (0..n)
            .map(|worker| spawn_worker(scheduled(kills, worker).map(|i| kills[i].1)))
            .collect::<io::Result<Vec<_>>>()?;
        let mut pending = replacement_kills.to_vec();
        let mut respawn =
            |worker: usize| spawn_worker(scheduled(&pending, worker).map(|i| pending.remove(i).1));
        run_coordinator(job, streams, &EngineConfig::default(), Some(&mut respawn))
    })
}

/// Owns a Unix-domain socket path for a listener's lifetime: unlinks a stale
/// socket left behind by a dead process before binding, and removes the
/// socket again on drop — including drops driven by a panic unwinding.
pub struct UdsPathGuard {
    path: std::path::PathBuf,
}

impl UdsPathGuard {
    /// Claims `path`, unlinking a pre-existing *socket* there. Anything else
    /// (a regular file, a directory) is an error — a stale socket is the only
    /// thing this guard may destroy.
    pub fn claim(path: impl Into<std::path::PathBuf>) -> io::Result<Self> {
        let path = path.into();
        match std::fs::symlink_metadata(&path) {
            Ok(meta) => {
                #[cfg(unix)]
                let is_socket = {
                    use std::os::unix::fs::FileTypeExt;
                    meta.file_type().is_socket()
                };
                #[cfg(not(unix))]
                let is_socket = false;
                if is_socket {
                    std::fs::remove_file(&path)?;
                } else {
                    return Err(bad_data(format!(
                        "{} exists and is not a socket; refusing to unlink",
                        path.display()
                    )));
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        Ok(Self { path })
    }

    /// The guarded path.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

impl Drop for UdsPathGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_spec_parsing() {
        assert_eq!(
            GraphSpec::parse("road:12x9:7").unwrap(),
            GraphSpec::Road {
                width: 12,
                height: 9,
                seed: 7
            }
        );
        assert_eq!(
            GraphSpec::parse("ba:300:3:11").unwrap(),
            GraphSpec::Ba {
                n: 300,
                m: 3,
                seed: 11
            }
        );
        assert_eq!(
            GraphSpec::parse("social:80:6:21").unwrap(),
            GraphSpec::Social {
                persons: 80,
                products: 6,
                seed: 21
            }
        );
        assert!(GraphSpec::parse("road:12:7").is_err());
        assert!(GraphSpec::parse("lattice:3").is_err());
    }

    fn job(algo: &str, graph: GraphSpec) -> JobSpec {
        JobSpec {
            algo: algo.into(),
            graph,
            strategy: "hash".into(),
            workers: 3,
            source: 0,
            threads: 1,
            checkpoint_every: 0,
        }
    }

    fn weighted_job(algo: &str) -> JobSpec {
        let graph = GraphSpec::Ba {
            n: 200,
            m: 3,
            seed: 5,
        };
        job(algo, graph)
    }

    fn labeled_job(algo: &str) -> JobSpec {
        let graph = GraphSpec::Social {
            persons: 60,
            products: 6,
            seed: 21,
        };
        job(algo, graph)
    }

    #[test]
    fn mismatched_algo_and_graph_families_are_rejected() {
        let mut job = weighted_job("sim");
        assert!(run_local_framed(&job).is_err(), "sim needs a social graph");
        job = labeled_job("sssp");
        assert!(
            run_local_framed(&job).is_err(),
            "sssp needs a weighted graph"
        );
    }

    #[test]
    fn marketing_defaults_to_the_first_product() {
        assert_eq!(
            labeled_job("marketing").query().unwrap(),
            Query::marketing(60)
        );
        let mut job = labeled_job("marketing");
        job.source = 63;
        assert_eq!(job.query().unwrap(), Query::marketing(63));
        assert!(labeled_job("dijkstra").query().is_err());
    }

    #[test]
    fn local_framed_runs_agree_across_algorithms() {
        // The in-process framed reference itself must be deterministic for
        // every query class, on both graph families.
        for class in QueryClass::all() {
            let algo = class.name();
            let job = if class.is_labeled() {
                labeled_job(algo)
            } else {
                weighted_job(algo)
            };
            let first = run_local_framed(&job).unwrap();
            let second = run_local_framed(&job).unwrap();
            assert_eq!(first.result, second.result, "{algo}");
            assert_eq!(first.stats.supersteps, second.stats.supersteps, "{algo}");
            assert_eq!(first.stats.messages, second.stats.messages, "{algo}");
            assert!(first.stats.bytes > 0);
        }
    }

    #[test]
    fn checkpoint_cadence_does_not_change_results() {
        // Checkpoints ride on report frames; the answer and the superstep
        // count are invariant under any cadence.
        for mut job in [weighted_job("sssp"), labeled_job("sim")] {
            let reference = run_local_framed(&job).unwrap();
            for k in [1u32, 2, 4] {
                job.checkpoint_every = k;
                let run = run_local_framed(&job).unwrap();
                assert_eq!(run.result, reference.result, "{} k={k}", job.algo);
                assert_eq!(
                    run.stats.supersteps, reference.stats.supersteps,
                    "{} k={k}",
                    job.algo
                );
            }
        }
    }

    #[test]
    fn recovered_tcp_runs_match_the_undisturbed_reference() {
        // One in-process drill per graph family: kill worker 1 at its second
        // command, recover, and pin the result and superstep count against
        // an undisturbed framed run of the same job.
        for job in [weighted_job("sssp"), labeled_job("sim")] {
            let algo = &job.algo;
            let reference = run_local_framed(&job).unwrap();
            // Kill on the last evaluation command the worker will receive,
            // so the schedule fires whatever the algorithm's depth.
            let kill_at = (reference.stats.supersteps - 1).min(2);
            let recovered = run_local_recoverable_tcp(&job, &[(1, kill_at)], &[]).unwrap();
            assert_eq!(recovered.result, reference.result, "{algo}");
            assert_eq!(
                recovered.stats.supersteps, reference.stats.supersteps,
                "{algo}"
            );
            assert!(recovered.stats.recoveries >= 1, "{algo}: a kill happened");
        }
    }

    #[test]
    fn a_crash_looping_worker_exhausts_its_recovery_budget() {
        // Worker 1 dies, and every replacement dies again on its first
        // command: after the per-worker budget the coordinator gives up with
        // a typed crash-loop error instead of respawning forever.
        let job = weighted_job("sssp");
        let replacement_kills = [(1usize, 0usize); 8];
        let err = run_local_recoverable_tcp(&job, &[(1, 1)], &replacement_kills)
            .expect_err("a crash-looping worker must exhaust its budget");
        let message = err.to_string();
        assert!(
            message.contains("crash-loop budget"),
            "expected a crash-loop budget error, got: {message}"
        );
    }

    #[test]
    fn uds_path_guard_unlinks_stale_sockets_but_never_files() {
        let dir = std::env::temp_dir();
        let sock = dir.join(format!("grape-guard-test-{}.sock", std::process::id()));
        let _ = std::fs::remove_file(&sock);
        // A real stale socket is reclaimed...
        drop(std::os::unix::net::UnixListener::bind(&sock).unwrap());
        assert!(sock.exists());
        let guard = UdsPathGuard::claim(&sock).unwrap();
        assert!(!guard.path().exists(), "stale socket unlinked");
        drop(guard);
        // ...but a regular file at the path is refused.
        std::fs::write(&sock, b"precious").unwrap();
        assert!(UdsPathGuard::claim(&sock).is_err());
        std::fs::remove_file(&sock).unwrap();
    }
}
