//! Message-accounting invariants of the comm bus.
//!
//! Two layers are checked:
//!
//! 1. **Bus-level:** bytes and message counts recorded by [`CommStats`]
//!    match, exactly, the [`MessageSize`] estimates of the payloads pushed
//!    through [`CommNetwork`], with self-sends excluded and the superstep
//!    history summing back to the totals.
//! 2. **Engine-level:** for a small SSSP run through the real PIE engine,
//!    the totals the run reports (`RunStats::{messages, bytes}`) agree with
//!    the per-superstep history — i.e. what the bus counted is what `stats`
//!    reports.
//!
//! (`grape-core`/`grape-algo` are dev-dependencies: they depend on this
//! crate, and cargo permits dev-dependency cycles.)

use grape_comm::{CommNetwork, CommStats, MessageSize, COORDINATOR};
use std::sync::Arc;

#[test]
fn bus_counts_match_message_size_estimates() {
    let stats = Arc::new(CommStats::new());
    let net = CommNetwork::<Vec<(u64, f64)>>::with_stats(3, Arc::clone(&stats));
    let (coord, workers) = net.split();

    // Superstep 0: worker 0 → worker 1 (2 entries), worker 2 → coordinator
    // (1 entry), worker 1 → itself (uncounted self-send).
    let p01 = vec![(1u64, 0.5f64), (2, 1.5)];
    let p2c = vec![(9u64, 3.0f64)];
    let expected0 = (p01.size_bytes() + p2c.size_bytes()) as u64;
    assert!(workers[0].send(1, p01));
    assert!(workers[2].send(COORDINATOR, p2c));
    assert!(workers[1].send(1, vec![(7, 7.0)]));
    let s0 = stats.end_superstep(0);
    assert_eq!(s0.messages, 2, "self-sends are not network traffic");
    assert_eq!(s0.bytes, expected0);

    // Superstep 1: coordinator broadcasts one entry to every worker.
    let reply = vec![(0u64, 0.25f64)];
    let expected1 = 3 * reply.size_bytes() as u64;
    for w in 0..3 {
        assert!(coord.send(w, reply.clone()));
    }
    let s1 = stats.end_superstep(1);
    assert_eq!(s1.messages, 3);
    assert_eq!(s1.bytes, expected1);

    // Totals equal the sum of the history, and the payloads all arrived.
    assert_eq!(stats.messages(), 5);
    assert_eq!(stats.bytes(), expected0 + expected1);
    let history = stats.history();
    assert_eq!(
        history.iter().map(|s| s.messages).sum::<u64>(),
        stats.messages()
    );
    assert_eq!(history.iter().map(|s| s.bytes).sum::<u64>(), stats.bytes());
    assert_eq!(workers[1].drain().len(), 3);
    assert_eq!(coord.drain().len(), 1);
}

#[test]
fn bus_counts_match_slot_addressed_engine_messages() {
    use grape_core::message::{CoordCommand, WorkerReport};

    // Push the engine's actual position-addressed wire types through the bus
    // and check the recorded bytes equal their MessageSize estimates: border
    // positions cost 4 bytes where vertex ids cost 8.
    let stats = Arc::new(CommStats::new());
    let net = CommNetwork::<CoordCommand<f64>>::with_stats(2, Arc::clone(&stats));
    let (coord, workers) = net.split();

    let init: CoordCommand<f64> = CoordCommand::Init;
    let inceval: CoordCommand<f64> = CoordCommand::IncEval {
        superstep: 1,
        updates: vec![(0, 1.5), (2, 2.5)],
    };
    let finish: CoordCommand<f64> = CoordCommand::Finish;
    let expected = (init.size_bytes() + inceval.size_bytes() + finish.size_bytes()) as u64;
    assert_eq!(init.size_bytes(), 1, "the handshake carries no mapping");
    assert_eq!(
        inceval.size_bytes(),
        8 + 4 + 2 * (4 + 8),
        "superstep + length prefix + (u32 position, f64 value) pairs"
    );
    assert!(coord.send(0, init));
    assert!(coord.send(1, inceval));
    assert!(coord.send(0, finish));
    assert_eq!(stats.messages(), 3);
    assert_eq!(stats.bytes(), expected);
    assert_eq!(workers[0].drain().len(), 2);
    assert_eq!(workers[1].drain().len(), 1);

    let stats = Arc::new(CommStats::new());
    let net = CommNetwork::<WorkerReport<f64>>::with_stats(1, Arc::clone(&stats));
    let (coord, workers) = net.split();
    let report: WorkerReport<f64> = WorkerReport::Done {
        superstep: 2,
        changes: vec![(7, 0.5)],
        strays: vec![(99, 1.0)],
        checkpoint: None,
        eval_seconds: 0.1,
    };
    let expected = report.size_bytes() as u64;
    assert_eq!(
        expected,
        8 + 4 + 12 + 4 + 16 + 1,
        "superstep + position changes + vertex-addressed strays + absent checkpoint"
    );
    assert!(workers[0].send(COORDINATOR, report));
    assert_eq!(stats.bytes(), expected);
    assert_eq!(coord.drain().len(), 1);
}

#[test]
fn framed_encoding_matches_the_estimates_for_slot_messages() {
    use grape_comm::wire::{Wire, HEADER_LEN};
    use grape_core::message::{CoordCommand, WorkerReport};

    // The satellite invariant: for `(u32 position, f64 value)` traffic — the
    // bulk of every superstep — the MessageSize *estimate* equals the
    // *actual* encoded payload length, byte for byte.
    for len in [0usize, 1, 2, 17, 256] {
        let slots: Vec<(u32, f64)> = (0..len).map(|i| (i as u32, i as f64 * 0.5)).collect();
        assert_eq!(
            slots.encode_to_vec().len(),
            slots.size_bytes(),
            "estimate != encoded bytes for {len} slots"
        );
    }

    // Whole messages carry a fixed, documented overhead on top: the 8-byte
    // frame header, plus (for reports) the eval_seconds bookkeeping field
    // the estimate deliberately does not charge.
    let command: CoordCommand<f64> = CoordCommand::IncEval {
        superstep: 3,
        updates: vec![(0, 1.5), (7, 2.5), (9, f64::INFINITY)],
    };
    let mut frame = Vec::new();
    command.encode_frame(&mut frame);
    assert_eq!(frame.len(), command.size_bytes() + HEADER_LEN);
    assert_eq!(CoordCommand::<f64>::WIRE_OVERHEAD, HEADER_LEN);

    let report: WorkerReport<f64> = WorkerReport::Done {
        superstep: 3,
        changes: vec![(0, 1.5), (7, 2.5)],
        strays: vec![(42, 0.25)],
        checkpoint: None,
        eval_seconds: 0.125,
    };
    let mut frame = Vec::new();
    report.encode_frame(&mut frame);
    assert_eq!(frame.len(), report.size_bytes() + HEADER_LEN + 8);
    assert_eq!(WorkerReport::<f64>::WIRE_OVERHEAD, HEADER_LEN + 8);
}

#[test]
fn framed_engine_bytes_reconcile_exactly_with_the_estimated_path() {
    use grape_algo::{SsspProgram, SsspQuery};
    use grape_comm::wire::HEADER_LEN;
    use grape_core::{EngineConfig, ExecutionMode, GrapeEngine, TransportKind};
    use grape_graph::generators::{road_network, RoadNetworkConfig};
    use grape_partition::BuiltinStrategy;

    // Counted messages pair up exactly — every Init / IncEval command
    // triggers exactly one report, and Finish is sent after the books close —
    // so the framed path's *actual* bytes must equal the estimated path's
    // bytes plus one frame header per message plus the 8-byte eval_seconds
    // field per report (= half the messages). No slack on either side.
    let graph = road_network(
        RoadNetworkConfig {
            width: 14,
            height: 14,
            ..Default::default()
        },
        21,
    )
    .unwrap();
    let assignment = BuiltinStrategy::Hash.partition(&graph, 4);
    let run = |transport| {
        GrapeEngine::new(SsspProgram)
            .with_config(EngineConfig {
                execution: ExecutionMode::Inline,
                transport,
                ..Default::default()
            })
            .run_on_graph(&SsspQuery::new(0), &graph, &assignment)
            .unwrap()
            .stats
    };
    let estimated = run(TransportKind::InProcess);
    let framed = run(TransportKind::Framed);
    assert_eq!(estimated.messages, framed.messages);
    assert_eq!(estimated.supersteps, framed.supersteps);
    assert!(estimated.messages > 0 && estimated.messages % 2 == 0);
    let reports = estimated.messages / 2;
    assert_eq!(
        framed.bytes,
        estimated.bytes + estimated.messages * HEADER_LEN as u64 + reports * 8,
        "framed bytes must be estimates + header per message + eval field per report"
    );
}

#[test]
fn sssp_run_stats_agree_with_bus_history() {
    use grape_algo::{SsspProgram, SsspQuery};
    use grape_core::GrapeEngine;
    use grape_graph::generators::{road_network, RoadNetworkConfig};
    use grape_partition::BuiltinStrategy;

    let graph = road_network(
        RoadNetworkConfig {
            width: 12,
            height: 12,
            ..Default::default()
        },
        21,
    )
    .unwrap();
    let assignment = BuiltinStrategy::Hash.partition(&graph, 4);
    let result = GrapeEngine::new(SsspProgram)
        .run_on_graph(&SsspQuery::new(0), &graph, &assignment)
        .unwrap();

    let stats = &result.stats;
    assert!(stats.supersteps >= 1);
    assert_eq!(stats.history.len(), stats.supersteps);
    // The totals the run reports are exactly the sum of what the bus
    // recorded per superstep.
    let messages: u64 = stats.history.iter().map(|t| t.messages).sum();
    let bytes: u64 = stats.history.iter().map(|t| t.bytes).sum();
    assert_eq!(messages, stats.messages);
    assert_eq!(bytes, stats.bytes);
    // A 4-fragment run must actually communicate, and every message has a
    // nonzero wire-size estimate.
    assert!(stats.messages > 0);
    assert!(stats.bytes > 0);
    for trace in &stats.history {
        assert!(
            trace.bytes == 0 || trace.messages > 0,
            "bytes without messages in superstep {}",
            trace.superstep
        );
    }
}
