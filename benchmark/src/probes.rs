//! Per-layer metrics of a traced run. Each comes from a span around a call
//! into a layer's public function or from the `RunStats` the engine returns;
//! nothing inside the program is instrumented.
//!
//! Every workload reports every metric on its own graph and cut: a one-shot
//! workload makes its graph resident in a daemon for the `service.*` rows,
//! and a resident workload cuts its graph a second time for the one-shot
//! rows. Where a metric's situation differs by workload, README.md says how.

use crate::exec::{engine_config, Executor, OneShot};
use crate::inputs::{Mode, K};
use crate::oracle::{FirstRanks, Oracle, OracleTimes};
use crate::run::{resident, Args, Client, Cut, Log, Phase, Replay, ReplayTimes, Sample};
use crate::run::{Setup, SetupTimes, Target, ALWAYS};
use crate::spec::CLASSES;
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use grape_algo::pagerank::sequential_pagerank;
use grape_algo::PageRankQuery;
use grape_baseline::{BlockSssp, BlogelEngine, GasEngine, GasSssp, PregelEngine, PregelSssp};
use grape_comm::wire::{decode_frame_epoch, write_frame_io_epoch, TAG_HELLO};
use grape_core::message::{CoordCommand, WorkerReport};
use grape_core::ship::{decode_fragment, encode_fragment};
use grape_core::TransportKind;
use grape_partition::evaluate_partition;
use grape_worker::Session;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

/// Samples per class of the small probes (other transport, one client).
const PROBE_ROUNDS: usize = 3;
/// Updates a non-updating workload applies for `update_p50_ms`, and the time
/// after which it stops early (one update takes seconds on R-MAT 2^18).
const PROBE_UPDATES: usize = 3;
const PROBE_UPDATE_BUDGET_S: f64 = 3.0;

pub struct Layers<'a> {
    pub args: &'a Args,
    pub setup: &'a Setup,
    pub setup_times: SetupTimes,
    /// `assign` and `build_fragments` of the harness's own cut.
    pub local_cut_ms: (f64, f64),
    pub oracle: &'a Oracle,
    pub oracle_times: &'a OracleTimes,
    pub phase: &'a Phase,
}

fn class_samples(samples: &[Sample], class: usize) -> impl Iterator<Item = &Sample> {
    samples.iter().filter(move |s| s.class == class)
}

fn median_by(samples: &[Sample], class: usize, f: impl Fn(&Sample) -> f64) -> f64 {
    median(&class_samples(samples, class).map(f).collect::<Vec<_>>())
}

/// Σ max_eval ÷ (Σ total_eval ÷ k): 1 = the workers of every superstep
/// finished together, k = one worker did everything.
fn eval_skew(sample: &Sample) -> f64 {
    let max: f64 = sample
        .stats
        .history
        .iter()
        .map(|t| t.max_eval_seconds)
        .sum();
    let total: f64 = sample
        .stats
        .history
        .iter()
        .map(|t| t.total_eval_seconds)
        .sum();
    if total > 0.0 {
        max / (total / sample.stats.num_workers.max(1) as f64)
    } else {
        0.0
    }
}

fn published(sample: &Sample) -> f64 {
    sample
        .stats
        .history
        .iter()
        .map(|t| t.published_updates as f64)
        .sum()
}

/// Encode and decode throughput of the superstep codec on frames of
/// `updates` slot values: one `CoordCommand::IncEval` and one
/// `WorkerReport::Done` per iteration.
fn codec_mbps(updates: usize, tracer: &mut Tracer) -> (f64, f64) {
    let values: Vec<(u32, f64)> = (0..updates as u32).map(|i| (i, i as f64 * 0.5)).collect();
    let command = CoordCommand::IncEval {
        superstep: 7,
        updates: values.clone(),
    };
    let report = WorkerReport::Done {
        superstep: 7,
        changes: values,
        strays: Vec::new(),
        checkpoint: None,
        eval_seconds: 0.001,
    };
    let mut command_frame = Vec::new();
    command.encode_frame(&mut command_frame);
    let mut report_frame = Vec::new();
    report.encode_frame(&mut report_frame);
    let bytes = (command_frame.len() + report_frame.len()) as f64;
    // Enough iterations to move about 64 MB each way.
    let iterations = ((64e6 / bytes) as usize).clamp(8, 200_000);

    let mut out = Vec::with_capacity(bytes as usize);
    let open = tracer.begin("comm", "encode", 0);
    for _ in 0..iterations {
        out.clear();
        command.encode_frame(&mut out);
        report.encode_frame(&mut out);
        std::hint::black_box(&out);
    }
    let encode_s = tracer.end(open) / 1e3;
    let open = tracer.begin("comm", "decode", 0);
    for _ in 0..iterations {
        let decoded = CoordCommand::<f64>::decode_frame(std::hint::black_box(&command_frame));
        std::hint::black_box(decoded.is_ok());
        let decoded = WorkerReport::<f64>::decode_frame(std::hint::black_box(&report_frame));
        std::hint::black_box(decoded.is_ok());
    }
    let decode_s = tracer.end(open) / 1e3;
    let mb = bytes * iterations as f64 / 1e6;
    (mb / encode_s, mb / decode_s)
}

/// `Endpoint::connect` plus the hello frame, alone: a query pays `K` of them.
fn raw_connect_ms(session_target: &Target, tracer: &mut Tracer) -> Result<f64, String> {
    let Target::Service { daemon, .. } = session_target else {
        return Err("raw connect needs a daemon".into());
    };
    let mut samples = Vec::new();
    for _ in 0..20 {
        let open = tracer.begin("service", "raw_connect", 0);
        let connected = daemon.endpoint().connect().and_then(|mut stream| {
            write_frame_io_epoch(&mut stream, TAG_HELLO, 0, &None::<String>)?;
            stream.flush()
        });
        samples.push(tracer.end(open));
        connected.map_err(|e| format!("raw connect: {e}"))?;
    }
    Ok(median(&samples))
}

impl Layers<'_> {
    pub fn measure(&self, tracer: &mut Tracer) -> Result<Vec<(String, f64)>, String> {
        let workload = &self.args.workload;
        let graph = &self.setup.graph;
        let cut: &Cut = self
            .setup
            .cut
            .as_ref()
            .ok_or("a traced run holds its own cut")?;
        let samples = &self.phase.log.samples;
        let updating = workload.updates();
        let mut out: Vec<(String, f64)> = Vec::new();
        let mut put = |name: String, value: f64| out.push((name, value));

        // graph, partition: set-up steps and the quality of the cut.
        put("graph.generate_ms".into(), self.setup_times.generate_ms);
        put("graph.vertices".into(), graph.num_vertices() as f64);
        put("graph.edges".into(), graph.num_edges() as f64);
        put("partition.assign_ms".into(), self.local_cut_ms.0);
        put("partition.build_fragments_ms".into(), self.local_cut_ms.1);
        let open = tracer.begin("partition", "evaluate_partition", 0);
        let quality = evaluate_partition(graph, &cut.assignment);
        tracer.end(open);
        put("partition.cut_ratio".into(), quality.cut_ratio);
        put(
            "partition.replication_factor".into(),
            quality.replication_factor,
        );
        put("partition.balance".into(), quality.balance);
        let border: usize = cut
            .fragments
            .iter()
            .map(|f| f.border_vertices().len())
            .sum();
        put("partition.border_vertices".into(), border as f64);

        // core::ship: what `Session::load` pays per fragment.
        let mut frames: Vec<Vec<u8>> = Vec::with_capacity(K);
        let open = tracer.begin("core", "ship_encode", 0);
        for fragment in cut.fragments.iter() {
            let mut frame = Vec::new();
            encode_fragment(fragment, &mut frame);
            frames.push(frame);
        }
        put("core.ship_encode_ms".into(), tracer.end(open));
        let open = tracer.begin("core", "ship_decode", 0);
        let mut decoded = 0;
        for frame in &frames {
            let (tag, _, body, _) = decode_frame_epoch(frame).map_err(|e| e.to_string())?;
            decoded += decode_fragment::<(), f64>(tag, body).is_ok() as usize;
        }
        put("core.ship_decode_ms".into(), tracer.end(open));
        if decoded != frames.len() {
            return Err("a shipped fragment did not decode".into());
        }
        let shipped: usize = frames.iter().map(Vec::len).sum();
        put("core.fragment_mb".into(), shipped as f64 / 1e6);
        drop(frames);

        // comm: the codec on a frame of the median SSSP superstep's size.
        let mut per_superstep: Vec<f64> = class_samples(samples, 0)
            .flat_map(|s| s.stats.history.iter())
            .map(|t| t.published_updates as f64 / K as f64)
            .collect();
        if per_superstep.is_empty() {
            per_superstep.push(1.0);
        }
        let (encode_mbps, decode_mbps) =
            codec_mbps(median(&per_superstep).max(1.0) as usize, tracer);
        put("comm.encode_mbps".into(), encode_mbps);
        put("comm.decode_mbps".into(), decode_mbps);
        let bytes: f64 = samples.iter().map(|s| s.stats.bytes as f64).sum();
        let updates: f64 = samples.iter().map(published).sum();
        put("comm.bytes_per_update".into(), bytes / updates.max(1.0));

        // core.<c>: the engine's own account of the timed queries, then the
        // same queries on the other transport and on one fragment.
        let other_kind = match (workload.mode, workload.transport) {
            (Mode::OneShot, TransportKind::InProcess) => TransportKind::Framed,
            _ => TransportKind::InProcess,
        };
        let other = OneShot::new(
            Arc::clone(&cut.fragments),
            graph.num_vertices(),
            engine_config(other_kind, 1),
        );
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get()) as u32;
        let k1_par = OneShot::single_fragment(graph, cores);
        let probe = |exec: &dyn Executor, name: &'static str, rounds, tracer: &mut Tracer| {
            let client = Client {
                exec,
                layer: name,
                oracle: self.oracle,
                first_ranks: &FirstRanks::new(0),
                id: 0,
                hold: None,
            };
            let mut log = Log::default();
            client.rounds(0..rounds, ALWAYS, tracer, &mut log, None);
            log
        };
        let other_log = probe(&other, "core.other_transport", PROBE_ROUNDS, tracer);
        let par_log = probe(&k1_par, "core.k1_par", 2, tracer);
        drop((other, k1_par));
        for (class, c) in CLASSES.iter().enumerate() {
            let ms = |f: &dyn Fn(&Sample) -> f64| median_by(samples, class, f);
            let peval = ms(&|s| s.stats.peval_seconds * 1e3);
            put(format!("core.{c}.peval_ms"), peval);
            put(
                format!("core.{c}.inceval_ms"),
                ms(&|s| s.stats.inceval_seconds * 1e3),
            );
            put(
                format!("core.{c}.coord_ms"),
                ms(&|s| {
                    (s.stats.wall_time.as_secs_f64()
                        - s.stats.peval_seconds
                        - s.stats.inceval_seconds)
                        * 1e3
                }),
            );
            put(
                format!("core.{c}.supersteps"),
                ms(&|s| s.stats.supersteps as f64),
            );
            put(
                format!("core.{c}.messages"),
                ms(&|s| s.stats.messages as f64),
            );
            put(format!("core.{c}.published_updates"), ms(&published));
            put(format!("core.{c}.eval_skew"), ms(&eval_skew));
            put(
                format!("core.{c}.other_transport_ms"),
                median(&other_log.latencies(class)),
            );
            let k1 = median(&self.oracle_times.k1_ms[class]);
            put(format!("core.{c}.k1_ms"), k1);
            put(
                format!("core.{c}.k1_par_ms"),
                median(&par_log.latencies(class)),
            );
            let p50 = median(&self.phase.log.latencies(class));
            put(
                format!("core.{c}.cost_ratio"),
                if k1 > 0.0 { p50 / k1 } else { 0.0 },
            );
            put(format!("bench.{c}.p50_ms"), p50);
        }

        // algo: the sequential references (PageRank's is timed here only —
        // it takes seconds) and the PEval kernels' per-edge rate.
        let open = tracer.begin("algo", "sequential_pagerank", 0);
        std::hint::black_box(sequential_pagerank(graph, &PageRankQuery::default(), 30));
        let sequential_pagerank_ms = tracer.end(open);
        for (class, c) in CLASSES.iter().enumerate() {
            let sequential = match class {
                2 => sequential_pagerank_ms,
                _ => self.oracle_times.sequential_ms[class],
            };
            put(format!("algo.{c}.sequential_ms"), sequential);
            let peval_s = median_by(samples, class, |s| s.stats.peval_seconds);
            put(
                format!("algo.{c}.peval_medges_per_s"),
                if peval_s > 0.0 {
                    graph.num_edges() as f64 / peval_s / 1e6
                } else {
                    0.0
                },
            );
        }

        // baseline: the Table 1 rows, one sample each, first source.
        let source = self.oracle.sources[0];
        let open = tracer.begin("baseline", "pregel_sssp", 0);
        let (_, pregel) = PregelEngine::new(K).run(&PregelSssp, &source, graph);
        put("baseline.pregel_sssp_ms".into(), tracer.end(open));
        put("baseline.pregel_sssp_mb".into(), pregel.megabytes());
        let open = tracer.begin("baseline", "gas_sssp", 0);
        let (_, gas) = GasEngine::new(K).run(&GasSssp, &source, graph);
        put("baseline.gas_sssp_ms".into(), tracer.end(open));
        put("baseline.gas_sssp_mb".into(), gas.megabytes());
        let open = tracer.begin("baseline", "blogel_sssp", 0);
        let (_, blogel) = BlogelEngine::new().run(&BlockSssp, &source, graph, &cut.assignment);
        put("baseline.blogel_sssp_ms".into(), tracer.end(open));
        put("baseline.blogel_sssp_mb".into(), blogel.megabytes());

        // service: the workload's own daemon, or one spawned for the purpose.
        let mut service_times = self.setup_times;
        let own_daemon = match &self.setup.target {
            Target::Service { .. } => None,
            Target::OneShot(_) => Some(resident(workload, graph, &mut service_times, tracer)?),
        };
        let target = own_daemon.as_ref().unwrap_or(&self.setup.target);
        let Target::Service { session, .. } = target else {
            unreachable!("both arms above hold a daemon");
        };
        put("service.bind_spawn_ms".into(), service_times.bind_spawn_ms);
        put("service.connect_ms".into(), service_times.connect_ms);
        put("service.load_ms".into(), service_times.load_ms);
        put(
            "service.raw_connect_ms".into(),
            raw_connect_ms(target, tracer)?,
        );

        // One client, cold, resident. `svc_update` took these samples before
        // its first update; its own timed samples are the one-client ones.
        let one_client = if updating {
            None
        } else {
            Some(probe(
                session as &Session,
                "service.c1",
                PROBE_ROUNDS,
                tracer,
            ))
        };
        let cold = one_client.as_ref().unwrap_or(&self.phase.cold);
        let c1 = one_client.as_ref().unwrap_or(&self.phase.log);
        // The resident workloads' own timed samples; a one-shot workload has
        // only the probe's.
        let resident_samples = match workload.mode {
            Mode::OneShot => &c1.samples,
            Mode::Service { .. } => samples,
        };
        for (class, c) in CLASSES.iter().enumerate() {
            let engine = |s: &Sample| s.stats.wall_time.as_secs_f64() * 1e3;
            put(
                format!("service.{c}.engine_ms"),
                median_by(resident_samples, class, engine),
            );
            put(
                format!("service.{c}.overhead_ms"),
                median_by(resident_samples, class, |s| s.latency_ms - engine(s)),
            );
            put(
                format!("service.{c}.supersteps"),
                median_by(resident_samples, class, |s| s.stats.supersteps as f64),
            );
            let latencies: Vec<f64> = class_samples(resident_samples, class)
                .map(|s| s.latency_ms)
                .collect();
            put(format!("service.{c}.p90_ms"), quantile(&latencies, 0.9));
            put(format!("service.{c}.c1_ms"), median(&c1.latencies(class)));
            put(
                format!("service.{c}.cold_ms"),
                median(&cold.latencies(class)),
            );
        }

        // Updates: the workload's own, or a few applied now, last of all.
        let mut replay_times = ReplayTimes::default();
        let (update_ms, update_dirty) = if updating {
            (
                self.phase.log.update_ms.clone(),
                self.phase.log.update_dirty.clone(),
            )
        } else {
            let vertices = graph.vertex_ids();
            let mut replay = Replay::new(graph, cut);
            let (mut ms, mut dirty) = (Vec::new(), Vec::new());
            let started = Instant::now();
            for i in 0..PROBE_UPDATES {
                if i > 0 && started.elapsed().as_secs_f64() > PROBE_UPDATE_BUDGET_S {
                    break;
                }
                let batch = workload.batch(vertices, self.args.seed, i);
                let open = tracer.begin("service", "update", i as u32);
                let receipt = session.update(batch.clone());
                ms.push(tracer.end(open));
                dirty.push(receipt.map_err(|e| format!("probe update: {e}"))?.dirty as f64);
                if i == 0 {
                    replay.apply(&batch, 0, tracer, &mut replay_times)?;
                }
            }
            (ms, dirty)
        };
        let replayed = if updating {
            &self.phase.replay_times
        } else {
            &replay_times
        };
        put(
            "graph.delta_apply_ms".into(),
            median(&replayed.delta_apply_ms),
        );
        put(
            "partition.resolve_mutations_ms".into(),
            median(&replayed.resolve_ms),
        );
        put(
            "partition.apply_mutations_ms".into(),
            median(&replayed.apply_ms),
        );
        put(
            "partition.fragments_touched".into(),
            median(&replayed.fragments_touched),
        );
        put("service.update_dirty".into(), median(&update_dirty));
        put("update_p50_ms".into(), median(&update_ms));

        // bench: what tracing costs, and how much was measured.
        let round_ms = |recorded| {
            quantile(
                &self
                    .phase
                    .log
                    .round_ms
                    .iter()
                    .filter(|(r, _)| *r == recorded)
                    .map(|(_, ms)| *ms)
                    .collect::<Vec<_>>(),
                0.25,
            )
        };
        let untraced = round_ms(false);
        put(
            "bench.trace_overhead".into(),
            if untraced > 0.0 {
                round_ms(true) / untraced
            } else {
                0.0
            },
        );
        put("bench.samples".into(), samples.len() as f64);

        if let Some(Target::Service { daemon, session }) = own_daemon {
            drop(session);
            daemon
                .shutdown()
                .map_err(|e| format!("daemon shutdown: {e}"))?;
        }
        Ok(out)
    }
}
