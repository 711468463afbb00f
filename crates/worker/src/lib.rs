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
//! There is one job protocol and one path through it, described in
//! [`service`]: a [`Session`] is the coordinator, and [`GrapeService`]
//! daemons hold the workers' fragments — in this process, or in
//! `grape-worker daemon` processes ([`DaemonProcess`]). A batch run, which
//! is what the `grape-worker serve` CLI does, is a one-query session
//! ([`run_session`]); with [`SessionConfig::respawn`] it survives the loss
//! of daemon processes. [`run_local_framed`] is the in-process reference
//! the tests pin it against: a one-shot engine run over the framed channel.

#![warn(missing_docs)]

use grape_algo::{dispatch, ClassVisitor, Query, QueryClass, QueryResult};
use grape_core::{EngineConfig, Fragment, GrapeEngine, PieProgram, TransportKind};
use grape_partition::BuiltinStrategy;
use service::SessionFragments;
use std::io::{self, BufRead, BufReader};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Arc;

pub mod service;

pub use grape_core::WarmHandle;
pub use service::{
    Endpoint, GrapeService, QueryHandle, QueryOutcome, Respawn, ServiceHandle, ServiceListener,
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
    /// checkpoints; a session with a respawn hook forces at least 1.
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

/// Runs `job` as a one-query [`Session`] over `config`'s daemons: generates
/// the graph, cuts it with the job's strategy into the job's worker count,
/// ships it, submits the job's query and waits for the outcome. The job's
/// thread count and checkpoint cadence override `config.engine`'s.
pub fn run_session(job: &JobSpec, config: SessionConfig) -> io::Result<QueryOutcome> {
    let query = job.query()?;
    let strategy = job.strategy()?;
    let graph = SessionGraph::generate(&job.graph)?;
    let session = Session::connect(SessionConfig {
        workers: job.workers as usize,
        engine: job.engine_config(&config.engine),
        ..config
    })?;
    session.load(&graph, strategy)?;
    session.submit(query)?.join()
}

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

/// The line a `grape-worker daemon` prints on stdout once it listens,
/// followed by its endpoint.
pub const LISTENING: &str = "service listening on ";

/// A `grape-worker daemon` child process, killed and reaped on drop.
pub struct DaemonProcess {
    child: Child,
    endpoint: Endpoint,
    /// Kept open: the daemon's stdout outlives the one line read from it.
    _stdout: BufReader<ChildStdout>,
}

impl DaemonProcess {
    /// Spawns `command` — a `grape-worker daemon` invocation — with its
    /// stdout piped, and waits for the [`LISTENING`] line naming its
    /// endpoint.
    pub fn spawn(mut command: Command) -> io::Result<DaemonProcess> {
        let mut child = command.stdout(Stdio::piped()).spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let Some(endpoint) = line.trim_end().strip_prefix(LISTENING) else {
            let _ = child.kill();
            let status = child.wait()?;
            return Err(io::Error::other(format!(
                "daemon exited ({status}) before it listened"
            )));
        };
        Ok(DaemonProcess {
            endpoint: Endpoint::parse(endpoint),
            child,
            _stdout: stdout,
        })
    }

    /// The endpoint the daemon listens on.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Whether the process has exited (a chaos victim has).
    pub fn exited(&mut self) -> io::Result<bool> {
        Ok(self.child.try_wait()?.is_some())
    }
}

impl Drop for DaemonProcess {
    /// Kills the daemon and removes its Unix-domain socket, which a killed
    /// daemon cannot remove itself.
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        #[cfg(unix)]
        if let Endpoint::Uds(path) = &self.endpoint {
            let _ = std::fs::remove_file(path);
        }
    }
}

// ---------------------------------------------------------------------------
// In-process reference
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
    use grape_core::chaos::ChaosConfig;
    use std::sync::Mutex;

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

    /// `job` as a session over in-process daemons on loopback TCP,
    /// recovered by respawn. Each `kills` entry `(worker, kill_at)` arms
    /// that worker's first daemon to sever its query connection at that
    /// command — the SIGKILL event at the transport level — and several
    /// entries with the same `kill_at` exercise same-superstep batch
    /// recovery. Each `replacement_kills` entry is consumed by one respawn
    /// of that worker, whose fresh daemon then kills at its own command
    /// index — cascading failure mid-replay. Repeat a worker in
    /// `replacement_kills` to drive it into its crash-loop budget.
    fn run_local_recoverable_tcp(
        job: &JobSpec,
        kills: &[(usize, usize)],
        replacement_kills: &[(usize, usize)],
    ) -> io::Result<QueryOutcome> {
        let daemon = |kill_at: Option<usize>| {
            let chaos = ChaosConfig {
                kill_at,
                ..Default::default()
            };
            let options = ServiceOptions {
                chaos,
                ..Default::default()
            };
            GrapeService::bind("127.0.0.1:0", options)?.spawn()
        };
        let armed = |plan: &mut Vec<(usize, usize)>, worker: usize| {
            let at = plan.iter().position(|&(victim, _)| victim == worker)?;
            Some(plan.remove(at).1)
        };
        let mut kills = kills.to_vec();
        let initial = (0..job.workers as usize)
            .map(|worker| daemon(armed(&mut kills, worker)))
            .collect::<io::Result<Vec<ServiceHandle>>>()?;
        let endpoints = initial.iter().map(|d| d.endpoint().clone()).collect();
        let pending = Mutex::new(replacement_kills.to_vec());
        let respawned = Arc::new(Mutex::new(Vec::new()));
        let kept = Arc::clone(&respawned);
        let config = SessionConfig::remote(0, endpoints).with_respawn(move |worker| {
            let fresh = daemon(armed(&mut pending.lock().unwrap(), worker))?;
            let endpoint = fresh.endpoint().clone();
            kept.lock().unwrap().push(fresh);
            Ok(endpoint)
        });
        run_session(job, config)
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
