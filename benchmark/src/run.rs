//! One run: set-up (several times, median reported), references, warm-up,
//! a fixed number of timed rounds, and — traced — the layer probes.
//!
//! A *round* is one SSSP (the round's source of the run's stratified list),
//! one CC and one PageRank; on `svc_update` a `Session::update` precedes them.

use crate::exec::{engine_config, Executor, OneShot};
use crate::inputs::{Mode, Workload, K, SOURCES};
use crate::oracle::{FirstRanks, Oracle};
use crate::probes;
use crate::spec::{CLASSES, RUN_SECONDS};
use crate::stats::{median, peak_rss_mb, quantile};
use crate::trace::{span_coverage, write_chrome_trace, Span, Tracer};
use grape_algo::{Query, QueryResult};
use grape_core::{Fragment, RunStats, TransportKind};
use grape_graph::generators::WeightedGraph;
use grape_graph::{DeltaGraph, GraphMutation, VertexId};
use grape_partition::{
    build_fragments, resolve_net_mutations, PartitionAssignment, ResolvedMutations,
};
use grape_worker::{
    GrapeService, ServiceHandle, ServiceOptions, Session, SessionConfig, SessionGraph,
};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Untimed rounds before the timed ones.
const WARMUP_ROUNDS: usize = 2;

pub struct Args {
    pub workload: Workload,
    /// Seed of the SSSP sources and the mutation batches.
    pub seed: u64,
    /// Seed of the graph generator.
    pub graph_seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub quick: bool,
}

pub struct Outcome {
    /// Queries and updates attempted in the timed phase.
    pub attempted: u64,
    /// Of those: errors, refusals and wrong answers.
    pub failed: u64,
    /// Of those: wrong answers.
    pub wrong: u64,
    pub metrics: Vec<(String, f64)>,
}

/// A partition of the run's graph held by the harness itself.
pub struct Cut {
    pub assignment: PartitionAssignment,
    pub fragments: Arc<Vec<Fragment<(), f64>>>,
}

pub enum Target {
    OneShot(OneShot),
    Service {
        daemon: ServiceHandle,
        session: Session,
    },
}

/// Milliseconds of each set-up step; 0 for a step the workload does not have
/// (on `svc_*` the partition and fragment build happen inside `load`).
#[derive(Default, Clone, Copy)]
pub struct SetupTimes {
    pub generate_ms: f64,
    pub assign_ms: f64,
    pub build_fragments_ms: f64,
    pub bind_spawn_ms: f64,
    pub connect_ms: f64,
    pub load_ms: f64,
}

impl SetupTimes {
    fn fields(&self) -> [f64; 6] {
        [
            self.generate_ms,
            self.assign_ms,
            self.build_fragments_ms,
            self.bind_spawn_ms,
            self.connect_ms,
            self.load_ms,
        ]
    }

    fn total_s(&self) -> f64 {
        self.fields().iter().sum::<f64>() / 1e3
    }

    /// Field-wise median over several set-ups.
    fn median_of(all: &[SetupTimes]) -> SetupTimes {
        let m = |i: usize| median(&all.iter().map(|t| t.fields()[i]).collect::<Vec<_>>());
        SetupTimes {
            generate_ms: m(0),
            assign_ms: m(1),
            build_fragments_ms: m(2),
            bind_spawn_ms: m(3),
            connect_ms: m(4),
            load_ms: m(5),
        }
    }
}

pub struct Setup {
    pub graph: WeightedGraph,
    pub target: Target,
    /// The cut the one-shot target runs on; `svc_*` cut inside the session.
    pub cut: Option<Cut>,
    pub times: SetupTimes,
}

impl Setup {
    fn tear_down(self) -> Result<(), String> {
        match self.target {
            Target::OneShot(_) => Ok(()),
            Target::Service { daemon, session } => {
                drop(session);
                daemon
                    .shutdown()
                    .map_err(|e| format!("daemon shutdown: {e}"))
            }
        }
    }
}

/// Partitions `graph` for `workload` and builds the fragments, timing both.
pub fn cut(workload: &Workload, graph: &WeightedGraph, tracer: &mut Tracer) -> (Cut, f64, f64) {
    let open = tracer.begin("partition", "assign", 0);
    let assignment = workload.strategy.partition(graph, K);
    let assign_ms = tracer.end(open);
    let open = tracer.begin("partition", "build_fragments", 0);
    let fragments = Arc::new(build_fragments(graph, &assignment));
    let build_ms = tracer.end(open);
    (
        Cut {
            assignment,
            fragments,
        },
        assign_ms,
        build_ms,
    )
}

/// Spawns a daemon on an ephemeral loopback port and makes `graph` resident.
pub fn resident(
    workload: &Workload,
    graph: &WeightedGraph,
    times: &mut SetupTimes,
    tracer: &mut Tracer,
) -> Result<Target, String> {
    // The copy is the harness's (it keeps `graph` for the references).
    let session_graph = SessionGraph::from(graph.clone());
    let open = tracer.begin("service", "bind_spawn", 0);
    let daemon = GrapeService::bind("127.0.0.1:0", ServiceOptions::default())
        .and_then(|service| service.spawn());
    times.bind_spawn_ms = tracer.end(open);
    let daemon = daemon.map_err(|e| format!("daemon bind/spawn: {e}"))?;
    let open = tracer.begin("service", "connect", 0);
    let session = Session::connect(
        SessionConfig::remote(K, vec![daemon.endpoint().clone()])
            .with_engine(engine_config(TransportKind::Framed, 1)),
    );
    times.connect_ms = tracer.end(open);
    let session = session.map_err(|e| format!("session connect: {e}"))?;
    let open = tracer.begin("service", "load", 0);
    let loaded = session.load(&session_graph, workload.strategy);
    times.load_ms = tracer.end(open);
    loaded.map_err(|e| format!("session load: {e}"))?;
    Ok(Target::Service { daemon, session })
}

fn set_up(workload: &Workload, graph_seed: u64, tracer: &mut Tracer) -> Result<Setup, String> {
    let whole = tracer.begin("bench", "setup", 0);
    let mut times = SetupTimes::default();
    let open = tracer.begin("graph", "generate", 0);
    let graph = workload.generate(graph_seed);
    times.generate_ms = tracer.end(open);
    let graph = graph?;
    let (target, cut) = match workload.mode {
        Mode::OneShot => {
            let (cut, assign_ms, build_ms) = cut(workload, &graph, tracer);
            times.assign_ms = assign_ms;
            times.build_fragments_ms = build_ms;
            let one_shot = OneShot::new(
                Arc::clone(&cut.fragments),
                graph.num_vertices(),
                engine_config(workload.transport, 1),
            );
            (Target::OneShot(one_shot), Some(cut))
        }
        Mode::Service { .. } => (resident(workload, &graph, &mut times, tracer)?, None),
    };
    tracer.end(whole);
    Ok(Setup {
        graph,
        target,
        cut,
        times,
    })
}

/// One timed query that came back right.
pub struct Sample {
    pub class: usize,
    pub latency_ms: f64,
    pub stats: RunStats,
}

#[derive(Default)]
pub struct Log {
    pub samples: Vec<Sample>,
    pub update_ms: Vec<f64>,
    pub update_dirty: Vec<f64>,
    /// Time each round spent in its timed operations (update and queries,
    /// not their verification), and whether its spans were recorded.
    pub round_ms: Vec<(bool, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
    /// Answers kept for a check against a rebuilt graph (`svc_update`).
    pub held: Vec<(usize, Query, QueryResult)>,
}

impl Log {
    fn merge(&mut self, other: Log) {
        self.samples.extend(other.samples);
        self.update_ms.extend(other.update_ms);
        self.update_dirty.extend(other.update_dirty);
        self.round_ms.extend(other.round_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        self.held.extend(other.held);
    }

    pub fn latencies(&self, class: usize) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.class == class)
            .map(|s| s.latency_ms)
            .collect()
    }

    fn fail(&mut self, what: &str, detail: &str) {
        self.failed += 1;
        // The first few say why; a broken build must not flood the log.
        if self.failed <= 3 {
            eprintln!("benchmark: {what} failed: {detail}");
        }
    }
}

/// The harness's own copy of the graph state an update stream acts on, so a
/// traced run can replay each batch through the three layers under
/// `Session::update` and time them apart.
pub struct Replay {
    delta: DeltaGraph<(), f64>,
    assignment: PartitionAssignment,
    fragments: Vec<Fragment<(), f64>>,
}

#[derive(Default)]
pub struct ReplayTimes {
    pub delta_apply_ms: Vec<f64>,
    pub resolve_ms: Vec<f64>,
    pub apply_ms: Vec<f64>,
    pub fragments_touched: Vec<f64>,
}

impl Replay {
    pub fn new(graph: &WeightedGraph, cut: &Cut) -> Replay {
        Replay {
            delta: DeltaGraph::new(graph.clone()),
            assignment: cut.assignment.clone(),
            fragments: cut.fragments.to_vec(),
        }
    }

    pub fn apply(
        &mut self,
        batch: &[GraphMutation<(), f64>],
        round: u32,
        tracer: &mut Tracer,
        times: &mut ReplayTimes,
    ) -> Result<(), String> {
        let open = tracer.begin("graph", "delta_apply", round);
        let applied = self.delta.apply(batch);
        times.delta_apply_ms.push(tracer.end(open));
        let applied = applied.map_err(|e| format!("replayed batch: {e}"))?;
        let open = tracer.begin("partition", "resolve_mutations", round);
        let delta = &self.delta;
        let resolved: ResolvedMutations<(), f64> =
            resolve_net_mutations(applied.net, &mut self.assignment, |v| {
                delta.vertex_data(v).cloned()
            });
        times.resolve_ms.push(tracer.end(open));
        let open = tracer.begin("partition", "apply_mutations", round);
        let updated: Result<Vec<_>, _> = self
            .fragments
            .iter()
            .map(|f| f.apply_mutations(&resolved))
            .collect();
        times.apply_ms.push(tracer.end(open));
        self.fragments = updated.map_err(|e| format!("replayed fragment update: {e}"))?;
        let owners: BTreeSet<u32> = resolved.owners.iter().map(|&(_, owner)| owner).collect();
        times.fragments_touched.push(owners.len() as f64);
        Ok(())
    }
}

/// One closed-loop client.
#[derive(Clone, Copy)]
pub struct Client<'a> {
    pub exec: &'a dyn Executor,
    /// Layer the queries enter: `core` one-shot, `service` resident.
    pub layer: &'static str,
    pub oracle: &'a Oracle,
    /// Shared by the clients of one executor: its PageRank answers repeat.
    pub first_ranks: &'a FirstRanks,
    pub id: usize,
    /// Rounds whose answers are held for a later check instead of being
    /// checked on the spot: `svc_update`, where every round has its own graph.
    pub hold: Option<[usize; 2]>,
}

impl Client<'_> {
    pub fn query(&self, class: usize, round: usize) -> Query {
        match class {
            0 => {
                let sources = &self.oracle.sources;
                Query::sssp(sources[(round + self.id * SOURCES / 2) % sources.len()])
            }
            1 => Query::cc(),
            _ => Query::pagerank(),
        }
    }

    /// Submits one query, verifies the answer and returns the latency.
    pub fn submit(&self, class: usize, round: usize, tracer: &mut Tracer, log: &mut Log) -> f64 {
        let query = self.query(class, round);
        let open = tracer.begin(self.layer, CLASSES[class], round as u32);
        let answer = self.exec.exec(&query);
        let latency_ms = tracer.end(open);
        log.attempted += 1;
        match answer {
            Err(e) => log.fail(CLASSES[class], &e),
            Ok((result, stats)) => {
                let open = tracer.begin("bench", "verify", round as u32);
                let right = match self.hold {
                    None => self.oracle.check(&query, &result, self.first_ranks),
                    Some(rounds) => {
                        if rounds.contains(&round) {
                            log.held.push((round, query, result));
                        }
                        true
                    }
                };
                tracer.end(open);
                if right {
                    log.samples.push(Sample {
                        class,
                        latency_ms,
                        stats,
                    });
                } else {
                    log.wrong += 1;
                    log.fail(CLASSES[class], "wrong answer");
                }
            }
        }
        latency_ms
    }

    /// Runs `rounds`, recording the spans of those `record` names.
    pub fn rounds(
        &self,
        rounds: std::ops::Range<usize>,
        record: fn(usize) -> bool,
        tracer: &mut Tracer,
        log: &mut Log,
        mut update: Option<&mut UpdateFn>,
    ) {
        let before = tracer.recording;
        for round in rounds {
            tracer.recording = record(round);
            let open = tracer.begin("bench", "round", round as u32);
            let mut busy_ms = 0.0;
            if let Some(update) = update.as_mut() {
                busy_ms += update(round, tracer, log);
            }
            for class in 0..CLASSES.len() {
                busy_ms += self.submit(class, round, tracer, log);
            }
            tracer.end(open);
            log.round_ms.push((tracer.recording, busy_ms));
        }
        tracer.recording = before;
    }
}

/// The update that opens a round of `svc_update`; returns its latency.
pub type UpdateFn<'a> = dyn FnMut(usize, &mut Tracer, &mut Log) -> f64 + 'a;

pub const NEVER: fn(usize) -> bool = |_| false;
pub const ALWAYS: fn(usize) -> bool = |_| true;

/// What the timed phase leaves behind.
pub struct Phase {
    pub log: Log,
    pub wall_s: f64,
    pub rounds_per_client: usize,
    pub clients: usize,
    pub replay_times: ReplayTimes,
    /// `svc_update`: cold resident latencies before the first update.
    pub cold: Log,
}

/// The graph after `batches`, as a cold run would load it.
fn rebuilt(
    base: &WeightedGraph,
    batches: &[Vec<GraphMutation<(), f64>>],
) -> Result<WeightedGraph, String> {
    let mut delta = DeltaGraph::new(base.clone());
    for batch in batches {
        delta
            .apply(batch)
            .map_err(|e| format!("rebuilding the graph: {e}"))?;
    }
    Ok(delta.snapshot(true))
}

/// Checks the held answers of `svc_update` against cold references on the
/// graph rebuilt from base + every batch up to the answer's round: bit-exact
/// for sssp/cc, within the PageRank tolerance for pagerank.
fn check_held(
    base: &WeightedGraph,
    batches: &[Vec<GraphMutation<(), f64>>],
    log: &mut Log,
    tracer: &mut Tracer,
) -> Result<(), String> {
    let held = std::mem::take(&mut log.held);
    let rounds: BTreeSet<usize> = held.iter().map(|(round, _, _)| *round).collect();
    for round in rounds {
        let graph = rebuilt(base, &batches[..=round])?;
        let sources: Vec<VertexId> = held
            .iter()
            .filter(|(r, _, _)| *r == round)
            .filter_map(|(_, query, _)| match query {
                Query::Sssp { source } => Some(*source),
                _ => None,
            })
            .collect();
        let (oracle, _) = Oracle::build(&graph, 0, Some(&sources), tracer)?;
        for (_, query, result) in held.iter().filter(|(r, _, _)| *r == round) {
            let right = match query {
                Query::PageRank { .. } => oracle.check_ranks_only(result),
                _ => oracle.check(query, result, &FirstRanks::new(0)),
            };
            if !right {
                log.wrong += 1;
                log.fail(
                    query.class().name(),
                    "warm answer differs from the cold run on the rebuilt graph",
                );
            }
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn timed_phase(
    args: &Args,
    setup: &Setup,
    oracle: &Oracle,
    rounds: usize,
    epoch: Instant,
    replay: Option<Replay>,
    spans: &mut Vec<Span>,
) -> Result<Phase, String> {
    let workload = &args.workload;
    // A traced run records the spans of even rounds and leaves odd rounds
    // untraced, so both kinds see the same conditions.
    let record: fn(usize) -> bool = if args.trace {
        |round| round % 2 == 0
    } else {
        NEVER
    };
    // Span ids are unique per tracer: 0 is the run's own (set-up, references,
    // probes), 1 this phase's, 2.. the concurrent clients'.
    let mut tracer = Tracer::new(epoch, 1, false);
    let first_ranks = &FirstRanks::new(0);
    let mut cold = Log::default();
    let mut log = Log::default();
    let mut replay_times = ReplayTimes::default();
    let (exec, layer): (&dyn Executor, _) = match &setup.target {
        Target::OneShot(one_shot) => (one_shot, "core"),
        Target::Service { session, .. } => (session, "service"),
    };
    // Warm-up answers are checked on the spot even on `svc_update`: no update
    // has happened yet.
    let warm = Client {
        exec,
        layer,
        oracle,
        first_ranks,
        id: 0,
        hold: None,
    };
    warm.rounds(0..WARMUP_ROUNDS, NEVER, &mut tracer, &mut cold, None);
    let wall_s;
    let clients;
    match (&setup.target, workload.mode) {
        (Target::Service { session, .. }, Mode::Service { clients: n, .. }) if n > 1 => {
            clients = n;
            let started = Instant::now();
            let logs: Vec<(Log, Vec<Span>)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..n)
                    .map(|id| {
                        let session = session.clone();
                        scope.spawn(move || {
                            let client = Client {
                                exec: &session,
                                id,
                                ..warm
                            };
                            let mut tracer = Tracer::new(epoch, id as u32 + 2, false);
                            let mut log = Log::default();
                            client.rounds(0..rounds, record, &mut tracer, &mut log, None);
                            (log, tracer.spans)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("client thread"))
                    .collect()
            });
            wall_s = started.elapsed().as_secs_f64();
            for (client_log, client_spans) in logs {
                log.merge(client_log);
                spans.extend(client_spans);
            }
        }
        (target, _) => {
            clients = 1;
            let updates = workload.updates();
            if updates {
                // Converged state is cached per query: answer every source
                // once, so each timed SSSP resubmits a query already seen.
                for round in WARMUP_ROUNDS..oracle.sources.len() {
                    let _ = warm.submit(0, round, &mut tracer, &mut cold);
                }
            }
            let client = Client {
                hold: updates.then_some([0, rounds - 1]),
                ..warm
            };
            let vertices = setup.graph.vertex_ids();
            let batches: Vec<_> = (0..rounds)
                .map(|i| workload.batch(vertices, args.seed, i))
                .collect();
            let mut replay = replay;
            let mut replay_error = None;
            let mut update = |round: usize, tracer: &mut Tracer, log: &mut Log| {
                let Target::Service { session, .. } = target else {
                    return 0.0;
                };
                let open = tracer.begin("service", "update", round as u32);
                let receipt = session.update(batches[round].clone());
                let elapsed = tracer.end(open);
                log.attempted += 1;
                match receipt {
                    Ok(receipt) => {
                        log.update_ms.push(elapsed);
                        log.update_dirty.push(receipt.dirty as f64);
                    }
                    Err(e) => log.fail("update", &e.to_string()),
                }
                if let Some(replay) = replay.as_mut() {
                    let open = tracer.begin("bench", "replay", round as u32);
                    let replayed =
                        replay.apply(&batches[round], round as u32, tracer, &mut replay_times);
                    tracer.end(open);
                    if let Err(e) = replayed {
                        replay_error.get_or_insert(e);
                    }
                }
                elapsed
            };
            let update: Option<&mut UpdateFn> = if updates { Some(&mut update) } else { None };
            let started = Instant::now();
            client.rounds(0..rounds, record, &mut tracer, &mut log, update);
            wall_s = started.elapsed().as_secs_f64();
            if let Some(e) = replay_error {
                return Err(e);
            }
            if updates {
                tracer.recording = false;
                check_held(&setup.graph, &batches, &mut log, &mut tracer)?;
            }
        }
    }
    spans.extend(tracer.spans);
    Ok(Phase {
        log,
        wall_s,
        rounds_per_client: rounds,
        clients,
        replay_times,
        cold,
    })
}

/// Where the traced run's Chrome trace goes: `<target dir>/benchmark/`.
fn trace_path(workload: &str) -> std::path::PathBuf {
    let target = std::env::current_exe()
        .ok()
        .and_then(|exe| Some(exe.parent()?.parent()?.to_path_buf()))
        .unwrap_or_else(|| "target".into());
    target
        .join("benchmark")
        .join(format!("{workload}.trace.json"))
}

pub fn run(args: &Args) -> Result<Outcome, String> {
    let workload = &args.workload;
    let epoch = Instant::now();
    let mut tracer = Tracer::new(epoch, 0, args.trace);

    // Set-up, several times over; the last one is the one measured on.
    let reps = if args.trace || args.quick {
        1
    } else {
        SETUP_REPS
    };
    let mut all_times = Vec::with_capacity(reps);
    let mut setup = set_up(workload, args.graph_seed, &mut tracer)?;
    all_times.push(setup.times);
    for _ in 1..reps {
        setup.tear_down()?;
        setup = set_up(workload, args.graph_seed, &mut tracer)?;
        all_times.push(setup.times);
    }
    let setup_times = SetupTimes::median_of(&all_times);
    let setup_s = median(&all_times.iter().map(|t| t.total_s()).collect::<Vec<_>>());

    let open = tracer.begin("bench", "references", 0);
    let (oracle, oracle_times) = Oracle::build(&setup.graph, args.seed, None, &mut tracer)?;
    tracer.end(open);

    // A traced run measures a third of the rounds traced and as many
    // untraced, interleaved.
    let scaled = (workload.rounds as u64 * args.seconds.max(1) / RUN_SECONDS).max(2) as usize;
    let rounds = if args.trace {
        2 * (scaled / 3).max(1)
    } else {
        scaled
    };

    // The harness's own cut: the one-shot target's, or — traced `svc_*` only
    // — a second one built the way `Session::load` builds its own.
    let mut local_cut_ms = (setup_times.assign_ms, setup_times.build_fragments_ms);
    if args.trace && setup.cut.is_none() {
        let (cut, assign_ms, build_ms) = cut(workload, &setup.graph, &mut tracer);
        setup.cut = Some(cut);
        local_cut_ms = (assign_ms, build_ms);
    }
    let replay = match &setup.cut {
        Some(cut) if args.trace && workload.updates() => Some(Replay::new(&setup.graph, cut)),
        _ => None,
    };

    let mut spans = Vec::new();
    let phase = timed_phase(args, &setup, &oracle, rounds, epoch, replay, &mut spans)?;
    let peak_rss = peak_rss_mb();

    let log = &phase.log;
    let total_rounds = (phase.rounds_per_client * phase.clients) as f64;
    let bytes: u64 = log.samples.iter().map(|s| s.stats.bytes).sum();
    let p25 = |class| quantile(&log.latencies(class), 0.25);
    let mut metrics: Vec<(String, f64)> = Vec::new();
    if !args.trace {
        // Right answers per round of all clients, over the lower-quartile
        // time a round's operations take (see `spec::end_to_end` for why the
        // lower quartile).
        let round_s = quantile(
            &log.round_ms.iter().map(|(_, ms)| *ms).collect::<Vec<_>>(),
            0.25,
        ) / 1e3;
        let answers_per_round = log.samples.len() as f64 / phase.rounds_per_client as f64;
        metrics.extend([
            ("setup_s".to_string(), setup_s),
            ("sssp_p25_ms".to_string(), p25(0)),
            ("cc_p25_ms".to_string(), p25(1)),
            ("pagerank_p25_ms".to_string(), p25(2)),
            ("throughput_qps".to_string(), answers_per_round / round_s),
            (
                "comm_mb_per_round".to_string(),
                bytes as f64 / 1e6 / total_rounds,
            ),
            ("peak_rss_mb".to_string(), peak_rss),
        ]);
    } else {
        let layers = probes::Layers {
            args,
            setup: &setup,
            setup_times,
            local_cut_ms,
            oracle: &oracle,
            oracle_times: &oracle_times,
            phase: &phase,
        };
        metrics = layers.measure(&mut tracer)?;
        spans.extend(std::mem::take(&mut tracer.spans));
        metrics.push(("bench.span_coverage".to_string(), span_coverage(&spans)));
        let path = trace_path(workload.name);
        write_chrome_trace(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
        eprintln!("benchmark: {} spans -> {}", spans.len(), path.display());
    }
    let rounded = |q: f64| -> Vec<f64> {
        (0..3)
            .map(|c| (quantile(&log.latencies(c), q) * 10.0).round() / 10.0)
            .collect()
    };
    eprintln!(
        "benchmark: {} samples per class {:?}, p50 {:?} ms, p90 {:?} ms, {:.2} s timed, \
         set-up {:.2} s x{reps}",
        workload.name,
        (0..3).map(|c| log.latencies(c).len()).collect::<Vec<_>>(),
        rounded(0.5),
        rounded(0.9),
        phase.wall_s,
        setup_s,
    );
    let outcome = Outcome {
        attempted: log.attempted,
        failed: log.failed,
        wrong: log.wrong,
        metrics,
    };
    setup.tear_down()?;
    Ok(outcome)
}
