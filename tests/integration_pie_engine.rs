//! Cross-crate integration tests: generators → partitioners → fragments →
//! PIE engine → answers, checked against the sequential references for every
//! registered query class.

use grape::algo::{
    cc::sequential_cc, keyword::sequential_keyword, marketing::sequential_marketing,
    sim::sequential_sim, sssp::sequential_sssp, subiso::sequential_subiso,
};
use grape::comm::CommStats;
use grape::core::message::{CoordCommand, WorkerReport};
use grape::core::{run_worker, transport::framed_channel_pair, CoordTransport};
use grape::graph::generators::{
    barabasi_albert, labeled_social, road_network, RoadNetworkConfig, SocialGraphConfig,
};
use grape::graph::labels::PatternGraph;
use grape::prelude::*;
use std::sync::{Arc, Mutex};

fn road() -> WeightedGraph {
    road_network(
        RoadNetworkConfig {
            width: 28,
            height: 28,
            ..Default::default()
        },
        17,
    )
    .unwrap()
}

#[test]
fn sssp_agrees_with_dijkstra_across_strategies_and_worker_counts() {
    let graph = road();
    let expected = sequential_sssp(&graph, 0);
    for strategy in [
        BuiltinStrategy::Hash,
        BuiltinStrategy::Range,
        BuiltinStrategy::Grid2D,
        BuiltinStrategy::Ldg,
        BuiltinStrategy::Fennel,
        BuiltinStrategy::MetisLike,
    ] {
        for workers in [1, 3, 8] {
            let assignment = strategy.partition(&graph, workers);
            let result = GrapeEngine::new(SsspProgram)
                .run_on_graph(&SsspQuery::new(0), &graph, &assignment)
                .unwrap();
            for (v, d) in &expected {
                let got = result.output.get(v).copied().unwrap_or(f64::INFINITY);
                assert!(
                    (got - d).abs() < 1e-9,
                    "strategy {:?}, {} workers, vertex {v}: {got} vs {d}",
                    strategy,
                    workers
                );
            }
        }
    }
}

#[test]
fn cc_agrees_with_union_find_on_fragmented_power_law_graph() {
    let graph = barabasi_albert(1_500, 3, 23).unwrap();
    let expected = sequential_cc(&graph);
    for workers in [2, 5, 12] {
        let assignment = BuiltinStrategy::Fennel.partition(&graph, workers);
        let result = GrapeEngine::new(CcProgram)
            .run_on_graph(&CcQuery, &graph, &assignment)
            .unwrap();
        for v in graph.vertices() {
            assert_eq!(result.output[&v], expected[&v]);
        }
    }
}

#[test]
fn pattern_queries_agree_with_sequential_references() {
    let graph = labeled_social(
        SocialGraphConfig {
            num_persons: 200,
            num_products: 6,
            ..Default::default()
        },
        9,
    )
    .unwrap();
    let pattern = PatternGraph::new(vec!["person".into(), "person".into(), "product".into()])
        .edge_labeled(0, 1, "follows")
        .edge_labeled(1, 2, "recommends");
    let assignment = BuiltinStrategy::MetisLike.partition(&graph, 5);

    // Simulation.
    let sim = GrapeEngine::new(SimProgram)
        .run_on_graph(&SimQuery::new(pattern.clone()), &graph, &assignment)
        .unwrap();
    assert_eq!(sim.output, sequential_sim(&graph, &pattern));

    // Subgraph isomorphism.
    let mut sub = GrapeEngine::new(SubIsoProgram)
        .run_on_graph(&SubIsoQuery::new(pattern.clone()), &graph, &assignment)
        .unwrap()
        .output;
    let mut expected = sequential_subiso(&graph, &pattern);
    sub.sort();
    expected.sort();
    assert_eq!(sub, expected);

    // Keyword search.
    let kq = KeywordQuery::new(["phone", "laptop"], f64::INFINITY);
    let kw = GrapeEngine::new(KeywordProgram)
        .run_on_graph(&kq, &graph, &assignment)
        .unwrap();
    let reference = sequential_keyword(&graph, &kq);
    assert_eq!(kw.output.len(), reference.len());
    for (a, b) in kw.output.iter().zip(reference.iter()) {
        assert_eq!(a.root, b.root);
        assert_eq!(a.distances, b.distances);
    }

    // Marketing rule.
    let mq = MarketingQuery::new(200);
    let mk = GrapeEngine::new(MarketingProgram)
        .run_on_graph(&mq, &graph, &assignment)
        .unwrap();
    assert_eq!(mk.output, sequential_marketing(&graph, &mq));
}

#[test]
fn framed_transport_is_bit_identical_for_every_query_class() {
    // Run every registered PIE program on both transport backends and pin
    // the answers (bit-for-bit) and the superstep/message counts identical.
    // The framed path round-trips each message through the wire codec —
    // including the String-carrying SubIso deltas and the Vec<f64> values of
    // Keyword/CF — so this is the codec exercised by every value type in the
    // repertoire. Inline execution keeps the schedule deterministic.
    fn run_pair<P: PieProgram>(
        make: impl Fn() -> P,
        query: &P::Query,
        graph: &CsrGraph<P::VertexData, P::EdgeData>,
        assignment: &PartitionAssignment,
    ) -> (GrapeResult<P::Output>, GrapeResult<P::Output>) {
        let run = |transport| {
            GrapeEngine::new(make())
                .with_config(
                    EngineConfig::builder()
                        .execution(ExecutionMode::Inline)
                        .transport(transport)
                        .build(),
                )
                .run_on_graph(query, graph, assignment)
                .unwrap()
        };
        let typed = run(TransportKind::InProcess);
        let framed = run(TransportKind::Framed);
        assert_eq!(typed.stats.supersteps, framed.stats.supersteps);
        assert_eq!(typed.stats.messages, framed.stats.messages);
        (typed, framed)
    }

    // --- numeric programs on a weighted graph --------------------------
    let graph = road();
    let assignment = BuiltinStrategy::MetisLike.partition(&graph, 4);

    let (typed, framed) = run_pair(|| SsspProgram, &SsspQuery::new(0), &graph, &assignment);
    assert_eq!(typed.output.len(), framed.output.len());
    for (v, d) in &typed.output {
        assert_eq!(d.to_bits(), framed.output[v].to_bits(), "sssp vertex {v}");
    }

    let (typed, framed) = run_pair(|| CcProgram, &CcQuery, &graph, &assignment);
    assert_eq!(typed.output, framed.output);

    let pr_query = PageRankQuery {
        max_local_iterations: 40,
        ..Default::default()
    };
    let n = graph.num_vertices();
    let (typed, framed) = run_pair(|| PageRankProgram::new(n), &pr_query, &graph, &assignment);
    assert_eq!(typed.output.len(), framed.output.len());
    for (v, r) in &typed.output {
        assert_eq!(
            r.to_bits(),
            framed.output[v].to_bits(),
            "pagerank vertex {v}"
        );
    }

    // CF trains over the same weighted graph's (user, item, rating) edges;
    // its update values are whole Vec<f64> factor vectors.
    let cf_query = CfQuery {
        rank: 4,
        epochs: 4,
        ..Default::default()
    };
    let (typed, framed) = run_pair(|| CfProgram::new(64), &cf_query, &graph, &assignment);
    assert_eq!(
        typed.output.factors, framed.output.factors,
        "cf factor vectors must match bit for bit"
    );

    // --- pattern programs on a labeled graph ---------------------------
    // SubIso deltas carry Strings; Keyword values are distance vectors.
    let social = labeled_social(
        SocialGraphConfig {
            num_persons: 150,
            num_products: 5,
            ..Default::default()
        },
        9,
    )
    .unwrap();
    let pattern = PatternGraph::new(vec!["person".into(), "person".into(), "product".into()])
        .edge_labeled(0, 1, "follows")
        .edge_labeled(1, 2, "recommends");
    let social_assignment = BuiltinStrategy::Hash.partition(&social, 3);

    let (typed, framed) = run_pair(
        || SimProgram,
        &SimQuery::new(pattern.clone()),
        &social,
        &social_assignment,
    );
    assert_eq!(typed.output, framed.output);

    let (typed, framed) = run_pair(
        || SubIsoProgram,
        &SubIsoQuery::new(pattern.clone()),
        &social,
        &social_assignment,
    );
    let (mut a, mut b) = (typed.output, framed.output);
    a.sort();
    b.sort();
    assert_eq!(a, b);

    let (typed, framed) = run_pair(
        || KeywordProgram,
        &KeywordQuery::new(["phone", "laptop"], f64::INFINITY),
        &social,
        &social_assignment,
    );
    assert_eq!(typed.output.len(), framed.output.len());
    for (x, y) in typed.output.iter().zip(framed.output.iter()) {
        assert_eq!(x.root, y.root);
        assert_eq!(x.distances, y.distances);
    }

    let (typed, framed) = run_pair(
        || MarketingProgram,
        &MarketingQuery::new(150),
        &social,
        &social_assignment,
    );
    assert_eq!(typed.output, framed.output);
}

#[test]
fn engine_statistics_are_internally_consistent() {
    let graph = road();
    let assignment = BuiltinStrategy::MetisLike.partition(&graph, 6);
    let result = GrapeEngine::new(SsspProgram)
        .run_on_graph(&SsspQuery::new(0), &graph, &assignment)
        .unwrap();
    let stats = &result.stats;
    assert_eq!(stats.history.len(), stats.supersteps);
    assert_eq!(
        stats.history.iter().map(|t| t.messages).sum::<u64>(),
        stats.messages
    );
    assert_eq!(
        stats.history.iter().map(|t| t.bytes).sum::<u64>(),
        stats.bytes
    );
    assert!(stats.history[0].active_workers == 6);
    assert!(stats.peval_seconds >= 0.0 && stats.inceval_seconds >= 0.0);
}

#[test]
fn sssp_publishes_only_changed_border_slots_per_superstep() {
    // A long directed chain split into 8 ranges: the SSSP frontier crosses
    // one fragment boundary per superstep, so only the handful of border
    // vertices around that cut change — while the run as a whole has
    // 2 × 7 = 14 distinct border vertices. The engine must ship exactly the
    // changed slots (each chain border vertex lives on two fragments and the
    // proposer already holds its value, so one copy per changed slot), never
    // republish the full border.
    let mut b = GraphBuilder::<(), f64>::new();
    for v in 0..400u64 {
        b.add_edge(v, v + 1, 1.0);
    }
    let graph = b.build().unwrap();
    let k = 8;
    let assignment = BuiltinStrategy::Range.partition(&graph, k);
    let result = GrapeEngine::new(SsspProgram)
        .run_on_graph(&SsspQuery::new(0), &graph, &assignment)
        .unwrap();
    let total_border_slots = 2 * (k - 1);
    let history = &result.stats.history;
    assert!(history.len() >= k, "the frontier crosses every cut in turn");
    for trace in history {
        assert_eq!(
            trace.published_updates, trace.changed_slots,
            "superstep {}: each changed slot ships exactly one copy",
            trace.superstep
        );
        assert!(
            trace.changed_slots <= 4,
            "superstep {}: only the borders at the frontier's cut may change, got {}",
            trace.superstep,
            trace.changed_slots
        );
        assert!(trace.changed_slots < total_border_slots);
    }
    // The run still visits every border slot overall.
    let touched: usize = history.iter().map(|t| t.changed_slots).sum();
    assert!(touched >= total_border_slots);
    // And the answer is right.
    let expected = sequential_sssp(&graph, 0);
    for (v, d) in &expected {
        assert!((result.output[v] - d).abs() < 1e-9);
    }
}

/// A coordinator transport that watches the traffic crossing it for echoes:
/// a report pair equal to the pair the command it answers delivered to that
/// worker for that slot.
struct EchoWatch<T, V> {
    inner: T,
    /// Per worker, the pairs of the last `IncEval` command sent to it.
    delivered: Mutex<Vec<Vec<(u32, V)>>>,
    /// Per superstep, `(pairs reported, of which echoes)`.
    reported: Mutex<Vec<(usize, usize)>>,
}

impl<T, V: Clone + PartialEq> EchoWatch<T, V> {
    fn inspect(&self, reports: Vec<(usize, WorkerReport<V>)>) -> Vec<(usize, WorkerReport<V>)> {
        let delivered = self.delivered.lock().unwrap();
        let mut reported = self.reported.lock().unwrap();
        for (from, report) in &reports {
            let WorkerReport::Done {
                superstep, changes, ..
            } = report;
            if reported.len() <= *superstep {
                reported.resize(superstep + 1, (0, 0));
            }
            reported[*superstep].0 += changes.len();
            // Superstep 0 answers the handshake, which delivers no pairs.
            if *superstep > 0 {
                reported[*superstep].1 += changes
                    .iter()
                    .filter(|pair| delivered[*from].contains(pair))
                    .count();
            }
        }
        reports
    }
}

impl<T, V> CoordTransport<V> for EchoWatch<T, V>
where
    T: CoordTransport<V>,
    V: Clone + PartialEq + Send,
{
    fn send(&self, worker: usize, command: CoordCommand<V>) {
        if let CoordCommand::IncEval { updates, .. } = &command {
            self.delivered.lock().unwrap()[worker] = updates.clone();
        }
        self.inner.send(worker, command);
    }
    fn recv_blocking(&self) -> Vec<(usize, WorkerReport<V>)> {
        self.inspect(self.inner.recv_blocking())
    }
    fn drain(&self) -> Vec<(usize, WorkerReport<V>)> {
        self.inspect(self.inner.drain())
    }
    fn comm_stats(&self) -> Arc<CommStats> {
        self.inner.comm_stats()
    }
}

#[test]
fn no_report_repeats_the_pair_its_command_delivered() {
    // The echo rule, watched on the wire: for the four classes whose workers
    // adopt and republish delivered values (sssp, cc, keyword) or publish
    // owner-side only (sim), no report pair equals the pair the previous
    // command routed to that worker for that slot — so no superstep is spent
    // on echoes, and the run ends on its first quiescent round.
    fn watch<P: PieProgram>(
        program: P,
        query: &P::Query,
        graph: &CsrGraph<P::VertexData, P::EdgeData>,
    ) {
        let k = 4;
        let fragments = build_fragments(graph, &BuiltinStrategy::Hash.partition(graph, k));
        let stats = Arc::new(CommStats::new());
        let (coord, workers) = framed_channel_pair::<P::Value>(k, stats);
        let watch = EchoWatch {
            inner: coord,
            delivered: Mutex::new(vec![Vec::new(); k]),
            reported: Mutex::new(Vec::new()),
        };
        let engine = GrapeEngine::new(program);
        let program = engine.program();
        let stats = std::thread::scope(|scope| {
            for (fragment, wt) in fragments.iter().zip(workers) {
                scope.spawn(move || run_worker(program, query, fragment, &wt, 1, 0, None));
            }
            engine.run_coordinator(&fragments, &watch, None).unwrap()
        });
        let name = program.name();
        let reported = watch.reported.into_inner().unwrap();
        assert_eq!(reported.len(), stats.history.len(), "{name}");
        assert!(
            stats.supersteps >= 2,
            "{name}: the run must exchange values"
        );
        for (trace, &(pairs, echoes)) in stats.history.iter().zip(&reported) {
            assert_eq!(trace.changed_parameters, pairs, "{name}");
            assert_eq!(echoes, 0, "{name}: superstep {} echoed", trace.superstep);
        }
        // Every superstep but the last carried news somebody needed; the
        // last is quiescent (or all agreement), not a round of echoes.
        let (last, earlier) = stats.history.split_last().unwrap();
        assert_eq!(last.published_updates, 0, "{name}");
        assert!(earlier.iter().all(|t| t.published_updates > 0), "{name}");
    }

    let grid = road_network(
        RoadNetworkConfig {
            width: 16,
            height: 16,
            ..Default::default()
        },
        17,
    )
    .unwrap();
    watch(SsspProgram, &SsspQuery::new(0), &grid);
    watch(CcProgram, &CcQuery, &grid);

    let social = labeled_social(
        SocialGraphConfig {
            num_persons: 200,
            num_products: 6,
            ..Default::default()
        },
        9,
    )
    .unwrap();
    let pattern = PatternGraph::new(vec!["person".into(), "person".into(), "product".into()])
        .edge_labeled(0, 1, "follows")
        .edge_labeled(1, 2, "recommends");
    watch(SimProgram, &SimQuery::new(pattern), &social);
    watch(
        KeywordProgram,
        &KeywordQuery::new(["phone", "laptop"], f64::INFINITY),
        &social,
    );
}

#[test]
fn grape_and_all_baselines_agree_on_sssp() {
    use grape::baseline::{BlockSssp, BlogelEngine, GasEngine, GasSssp, PregelEngine, PregelSssp};
    let graph = barabasi_albert(600, 3, 31).unwrap();
    let source = 3;
    let assignment = BuiltinStrategy::Hash.partition(&graph, 4);
    let grape_run = GrapeEngine::new(SsspProgram)
        .run_on_graph(&SsspQuery::new(source), &graph, &assignment)
        .unwrap();
    let (pregel, _) = PregelEngine::new(4).run(&PregelSssp, &source, &graph);
    let (gas, _) = GasEngine::new(4).run(&GasSssp, &source, &graph);
    let (blogel, _) = BlogelEngine::new().run(&BlockSssp, &source, &graph, &assignment);
    let expected = sequential_sssp(&graph, source);
    for (v, d) in &expected {
        assert!((grape_run.output[v] - d).abs() < 1e-9);
        assert!((pregel[v] - d).abs() < 1e-9);
        assert!((gas[v] - d).abs() < 1e-9);
        assert!((blogel[v] - d).abs() < 1e-9);
    }
}

#[test]
fn table1_rows_have_expected_shape() {
    // Table 1's headline on a road network: GRAPE needs far fewer supersteps
    // and ships less data than the vertex-centric engine. Supersteps and
    // bytes are deterministic counters, so the claim is asserted strictly.
    use grape::baseline::{PregelEngine, PregelSssp};
    let graph = road_network(
        RoadNetworkConfig {
            width: 24,
            height: 24,
            ..Default::default()
        },
        2_024,
    )
    .unwrap();
    let (source, workers) = (0, 4);
    let (_, pregel) = PregelEngine::new(workers).run(&PregelSssp, &source, &graph);
    let assignment = BuiltinStrategy::MetisLike.partition(&graph, workers);
    let grape = GrapeEngine::new(SsspProgram)
        .run_on_graph(&SsspQuery::new(source), &graph, &assignment)
        .unwrap()
        .stats;
    assert!(
        grape.supersteps * 5 < pregel.supersteps,
        "grape {} supersteps vs pregel {}",
        grape.supersteps,
        pregel.supersteps
    );
    assert!(
        grape.bytes < pregel.bytes,
        "grape {} bytes vs pregel {}",
        grape.bytes,
        pregel.bytes
    );
}

#[test]
fn partition_effect_shape() {
    // §3(3) on a power-law graph: a METIS-like partition cuts fewer edges
    // than hashing, and GRAPE's SSSP over it does not ship markedly more
    // messages.
    let graph = barabasi_albert(3_000, 8, 2_024).unwrap();
    let workers = 8;
    let [metis, hash] = [BuiltinStrategy::MetisLike, BuiltinStrategy::Hash].map(|strategy| {
        let assignment = strategy.partition(&graph, workers);
        let cut = grape::partition::evaluate_partition(&graph, &assignment).cut_edges;
        let stats = GrapeEngine::new(SsspProgram)
            .run_on_graph(&SsspQuery::new(0), &graph, &assignment)
            .unwrap()
            .stats;
        (cut, stats.messages)
    });
    // The cut-edge gap is wide and deterministic: assert it strictly.
    assert!(
        metis.0 < hash.0,
        "metis-like cut {} should be below hash cut {}",
        metis.0,
        hash.0
    );
    // The message total depends on which reports the coordinator folds
    // together in a superstep, so keep 50% slack: only a real messaging
    // regression trips it.
    assert!(
        metis.1 <= hash.1 * 3 / 2,
        "metis-like messages {} should not exceed hash messages {} by >50%",
        metis.1,
        hash.1
    );
}

#[test]
fn the_exchange_layout_is_built_once_per_fragment_set() {
    use grape::core::ExchangeLayout;
    use grape::graph::delta::DeltaGraph;
    use grape::partition::resolve_net_mutations;

    let graph = road();
    let mut assignment = BuiltinStrategy::MetisLike.partition(&graph, 4);
    let fragments = build_fragments(&graph, &assignment);
    let sssp = GrapeEngine::new(SsspProgram);
    let cc = GrapeEngine::new(CcProgram);

    // Two queries, and a query of another class between them, on one
    // fragment set: the second run finds the layout the first one built.
    sssp.run(&SsspQuery::new(0), &fragments).unwrap();
    let layout = ExchangeLayout::of(&fragments);
    cc.run(&CcQuery, &fragments).unwrap();
    let second = sssp.run(&SsspQuery::new(7), &fragments).unwrap();
    assert!(Arc::ptr_eq(&layout, &ExchangeLayout::of(&fragments)));
    let config = EngineConfig::builder()
        .transport(TransportKind::Framed)
        .build();
    let framed = GrapeEngine::new(SsspProgram)
        .with_config(config)
        .run(&SsspQuery::new(7), &fragments)
        .unwrap();
    assert_eq!(framed.output, second.output);
    assert!(Arc::ptr_eq(&layout, &ExchangeLayout::of(&fragments)));

    // Splices the batch into every fragment, checks the answers against a
    // fresh cut of the updated graph, and hands back the spliced set.
    let mut delta = DeltaGraph::new(graph.clone());
    let mut splice = |fragments: &[Fragment<(), f64>], batch: Vec<GraphMutation<(), f64>>| {
        let receipt = delta.apply(&batch).expect("valid batch");
        let resolved = resolve_net_mutations(receipt.net, &mut assignment, |v| {
            delta.vertex_data(v).cloned()
        });
        let spliced: Vec<Fragment<(), f64>> = fragments
            .iter()
            .map(|f| f.apply_mutations(&resolved).expect("splice"))
            .collect();
        let fresh = build_fragments(&delta.snapshot(true), &assignment);
        for query in [SsspQuery::new(0), SsspQuery::new(7)] {
            let on_splice = sssp.run(&query, &spliced).unwrap();
            let on_fresh = sssp.run(&query, &fresh).unwrap();
            assert_eq!(on_splice.output, on_fresh.output);
            assert_eq!(on_splice.stats.supersteps, on_fresh.stats.supersteps);
            assert_eq!(on_splice.stats.messages, on_fresh.stats.messages);
        }
        assert_eq!(
            cc.run(&CcQuery, &spliced).unwrap().output,
            cc.run(&CcQuery, &fresh).unwrap().output
        );
        spliced
    };

    // An edge between two inner vertices of fragment 0 that are on no
    // border: every fragment keeps its tables, so the layout stays.
    let f0 = &fragments[0];
    let quiet: Vec<VertexId> = f0
        .inner_vertices()
        .iter()
        .copied()
        .filter(|&v| f0.border_position(v).is_none())
        .collect();
    let (u, v) = (quiet[0], *quiet.last().unwrap());
    assert!(f0.graph.out_edges(u).all(|(n, _)| n != v));
    let edges_only = splice(
        &fragments,
        vec![GraphMutation::AddEdge {
            src: u,
            dst: v,
            data: 3.0,
        }],
    );
    assert!(Arc::ptr_eq(&layout, &ExchangeLayout::of(&edges_only)));

    // An edge from fragment 0 to a vertex it has never seen adds an outer
    // copy: the border changes, and so does the layout.
    let stranger = graph
        .vertices()
        .find(|&v| !edges_only[0].graph.contains(v))
        .unwrap();
    let with_copy = splice(
        &edges_only,
        vec![GraphMutation::AddEdge {
            src: u,
            dst: stranger,
            data: 2.5,
        }],
    );
    assert!(with_copy[0].outer_vertices().contains(&stranger));
    let rebuilt = ExchangeLayout::of(&with_copy);
    assert!(!Arc::ptr_eq(&layout, &rebuilt));
    assert_eq!(
        rebuilt.border_slots(0).len(),
        with_copy[0].border_vertices().len()
    );
}
