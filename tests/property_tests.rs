//! Property-based tests on the core invariants of GRAPE-RS, using proptest.
//!
//! * partitioners always produce total, in-range assignments;
//! * fragment construction preserves the vertex set and the cut-edge
//!   bookkeeping;
//! * the PIE engine's answers are independent of the partition strategy and
//!   the number of workers (the Assurance Theorem's observable consequence);
//! * the bounded incremental SSSP always agrees with recomputation from
//!   scratch;
//! * a batch staged against resident fragments means what it means to the
//!   `DeltaGraph` reference, and splicing it yields a fresh cut.

use grape::algo::pagerank::sequential_pagerank;
use grape::algo::sssp::{dense_relax, incremental_sssp, sequential_sssp};
use grape::algo::{
    cc::sequential_cc, keyword::sequential_keyword, sim::sequential_sim, subiso::sequential_subiso,
    CcProgram, CcQuery, CfProgram, CfQuery, KeywordProgram, KeywordQuery, PageRankProgram,
    PageRankQuery, SimProgram, SimQuery, SsspProgram, SsspQuery, SubIsoProgram, SubIsoQuery,
};
use grape::core::ThreadCount;
use grape::graph::labels::{LabeledVertex, PatternGraph};
use grape::graph::types::EdgeRecord;
use grape::graph::LabeledGraph;
use grape::partition::{FennelPartitioner, LdgPartitioner};
use grape::prelude::*;
use proptest::prelude::*;
use std::collections::HashMap;

/// Strategy: a random edge list over `n` vertices (ensuring every vertex id
/// in 0..n exists), with weights in [0.5, 10].
fn arb_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = WeightedGraph> {
    (2..max_n, 1..max_m).prop_flat_map(|(n, m)| {
        let edges = proptest::collection::vec((0..n as u64, 0..n as u64, 1u32..20), 1..m.max(2));
        edges.prop_map(move |edges| {
            let mut b = GraphBuilder::<(), f64>::new();
            for v in 0..n as u64 {
                b.ensure_vertex(v);
            }
            for (s, d, w) in edges {
                b.add_edge(s, d, w as f64 / 2.0);
            }
            b.build().expect("valid edges")
        })
    })
}

/// Strategy: a random labeled graph over `n` vertices. Labels and keywords
/// are deterministic functions of the id (person/product mix, `phone` /
/// `laptop` keyword holders); proptest varies the edge structure and
/// relation types.
fn arb_labeled_graph(max_n: usize, max_m: usize) -> impl Strategy<Value = LabeledGraph> {
    (4..max_n, 1..max_m).prop_flat_map(|(n, m)| {
        let edges = proptest::collection::vec((0..n as u64, 0..n as u64, 0..3usize), 1..m.max(2));
        edges.prop_map(move |edges| {
            let relations = ["follows", "recommends", "rates_bad"];
            let vertices: Vec<(VertexId, LabeledVertex)> = (0..n as u64)
                .map(|i| {
                    let label = if i % 4 == 0 { "product" } else { "person" };
                    let mut keywords: Vec<String> = Vec::new();
                    if i % 3 == 0 {
                        keywords.push("phone".into());
                    }
                    if i % 5 == 0 {
                        keywords.push("laptop".into());
                    }
                    (i, LabeledVertex::with_keywords(label, keywords))
                })
                .collect();
            let records: Vec<EdgeRecord<String>> = edges
                .into_iter()
                .map(|(s, d, r)| EdgeRecord::new(s, d, relations[r].to_string()))
                .collect();
            LabeledGraph::from_records(vertices, records, true).expect("valid records")
        })
    })
}

/// The chain pattern shared by the sim/subiso parity suites:
/// person --follows--> person --recommends--> product.
fn chain_pattern() -> PatternGraph {
    PatternGraph::new(vec!["person".into(), "person".into(), "product".into()])
        .edge_labeled(0, 1, "follows")
        .edge_labeled(1, 2, "recommends")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn partitioners_cover_every_vertex_within_range(
        graph in arb_graph(120, 500),
        k in 1usize..9,
    ) {
        for strategy in BuiltinStrategy::all() {
            let assignment = strategy.partition(&graph, k);
            prop_assert_eq!(assignment.num_assigned(), graph.num_vertices());
            for (_, f) in assignment.iter() {
                prop_assert!(f < k);
            }
            let sizes = assignment.sizes();
            prop_assert_eq!(sizes.iter().sum::<usize>(), graph.num_vertices());
        }
    }

    #[test]
    fn fragments_partition_vertices_and_duplicate_only_cut_edges(
        graph in arb_graph(100, 400),
        k in 1usize..7,
    ) {
        let assignment = BuiltinStrategy::Hash.partition(&graph, k);
        let quality = grape::partition::evaluate_partition(&graph, &assignment);
        let fragments = build_fragments(&graph, &assignment);
        let total_inner: usize = fragments.iter().map(|f| f.num_inner()).sum();
        prop_assert_eq!(total_inner, graph.num_vertices());
        let total_edges: usize = fragments.iter().map(|f| f.num_local_edges()).sum();
        prop_assert_eq!(total_edges, graph.num_edges() + quality.cut_edges);
        // Border bookkeeping is symmetric: v is outer somewhere iff its owner
        // lists that fragment as a mirror location.
        for fragment in &fragments {
            for &v in fragment.outer_vertices() {
                let owner = fragment.owner_of(v).expect("outer vertices have owners");
                prop_assert!(fragments[owner].mirrors_of(v).contains(&fragment.id));
            }
        }
    }

    #[test]
    fn sssp_answers_are_partition_invariant(
        graph in arb_graph(80, 300),
        k in 1usize..6,
    ) {
        let expected = sequential_sssp(&graph, 0);
        let assignment = BuiltinStrategy::Ldg.partition(&graph, k);
        let result = GrapeEngine::new(SsspProgram)
            .run_on_graph(&SsspQuery::new(0), &graph, &assignment)
            .unwrap();
        for (v, d) in &expected {
            let got = result.output.get(v).copied().unwrap_or(f64::INFINITY);
            prop_assert!((got - d).abs() < 1e-9, "vertex {} {} vs {}", v, got, d);
        }
        for (v, d) in &result.output {
            if d.is_finite() {
                prop_assert!(expected.contains_key(v));
            }
        }
    }

    #[test]
    fn cc_answers_are_partition_invariant(
        dense in arb_graph(60, 200),
        sparse in arb_graph(120, 40),
        k in 1usize..9,
    ) {
        // IncEval joins classes by pointer jumping, so which classes merge
        // in which superstep depends on the cut. The answer must not: it is
        // the sequential labeling under every strategy, and one cut's run is
        // the same run — answers, supersteps, messages — on every thread
        // count and transport. The sparse graph brings many components and
        // isolated vertices.
        for graph in [&dense, &sparse] {
            let expected = sequential_cc(graph);
            for strategy in BuiltinStrategy::all() {
                let assignment = strategy.partition(graph, k);
                let run = |threads: u32, transport: TransportKind| {
                    let config = EngineConfig::builder()
                        .transport(transport)
                        .threads_per_worker(ThreadCount::Fixed(threads))
                        .check_monotonicity(true)
                        .build();
                    GrapeEngine::new(CcProgram)
                        .with_config(config)
                        .run_on_graph(&CcQuery, graph, &assignment)
                        .unwrap()
                };
                let base = run(1, TransportKind::InProcess);
                prop_assert_eq!(&base.output, &expected, "{} k={}", strategy.name(), k);
                prop_assert_eq!(base.stats.monotonicity_violations, 0);
                for threads in [1u32, 2, 4] {
                    for transport in [TransportKind::InProcess, TransportKind::Framed] {
                        let got = run(threads, transport);
                        let context =
                            format!("{} k={} t={} {:?}", strategy.name(), k, threads, transport);
                        prop_assert_eq!(&got.output, &base.output, "{}", context);
                        prop_assert_eq!(got.stats.supersteps, base.stats.supersteps, "{}", context);
                        prop_assert_eq!(got.stats.messages, base.stats.messages, "{}", context);
                    }
                }
            }
        }
    }

    #[test]
    fn incremental_sssp_equals_recomputation(
        graph in arb_graph(60, 200),
        new_source in 0u64..60,
    ) {
        // Start from the distances of source 0, then additionally seed
        // `new_source` at distance 0; the result must equal a two-source
        // recomputation.
        let mut dist = sequential_sssp(&graph, 0);
        if !graph.contains(new_source) {
            return Ok(());
        }
        incremental_sssp(&graph, &mut dist, &[(new_source, 0.0)]);
        // Reference: min over both single-source runs.
        let a = sequential_sssp(&graph, 0);
        let b = sequential_sssp(&graph, new_source);
        let mut expected: HashMap<VertexId, f64> = a;
        for (v, d) in b {
            expected
                .entry(v)
                .and_modify(|e| *e = e.min(d))
                .or_insert(d);
        }
        for (v, d) in &expected {
            prop_assert!((dist[v] - d).abs() < 1e-9);
        }
    }

    #[test]
    fn dense_sssp_and_cc_are_identical_to_sequential_references(
        graph in arb_graph(70, 250),
        k in 1usize..7,
    ) {
        // The generated weights are multiples of 0.5, so every path length is
        // an exact dyadic rational in f64 and the dense engine paths must be
        // *bit-identical* to the sequential references, for every partition
        // strategy and worker count.
        let sssp_ref = sequential_sssp(&graph, 0);
        let cc_ref = sequential_cc(&graph);
        for strategy in BuiltinStrategy::all() {
            let assignment = strategy.partition(&graph, k);
            let sssp = GrapeEngine::new(SsspProgram)
                .run_on_graph(&SsspQuery::new(0), &graph, &assignment)
                .unwrap();
            for v in graph.vertices() {
                let got = sssp.output.get(&v).copied().unwrap_or(f64::INFINITY);
                let want = sssp_ref.get(&v).copied().unwrap_or(f64::INFINITY);
                prop_assert!(
                    got == want || (got.is_infinite() && want.is_infinite()),
                    "sssp/{} k={} vertex {}: {} vs {}",
                    strategy.name(), k, v, got, want
                );
            }
            let cc = GrapeEngine::new(CcProgram)
                .run_on_graph(&CcQuery, &graph, &assignment)
                .unwrap();
            for v in graph.vertices() {
                prop_assert_eq!(
                    cc.output[&v], cc_ref[&v],
                    "cc/{} k={} vertex {}", strategy.name(), k, v
                );
            }
        }
    }

    #[test]
    fn dense_pagerank_tracks_sequential_reference(
        graph in arb_graph(60, 200),
        k in 1usize..5,
    ) {
        // PageRank is iterative over floats, so the distributed fixpoint is
        // only tolerance-close to the sequential reference (and to itself
        // across partitionings) rather than bit-identical.
        let query = PageRankQuery {
            max_local_iterations: 80,
            tolerance: 1e-9,
            ..Default::default()
        };
        let reference = sequential_pagerank(&graph, &query, 80);
        let program = PageRankProgram::new(graph.num_vertices());
        for strategy in [BuiltinStrategy::Hash, BuiltinStrategy::MetisLike] {
            let assignment = strategy.partition(&graph, k);
            let result = GrapeEngine::new(program)
                .run_on_graph(&query, &graph, &assignment)
                .unwrap();
            for v in graph.vertices() {
                let got = result.output.get(&v).copied().unwrap_or(0.0);
                prop_assert!(
                    (got - reference[&v]).abs() < 5e-3,
                    "pagerank/{} k={} vertex {}: {} vs {}",
                    strategy.name(), k, v, got, reference[&v]
                );
            }
        }
    }

    #[test]
    fn framed_transport_is_bit_identical_across_strategies_and_worker_counts(
        graph in arb_graph(70, 220),
        k in 1usize..6,
    ) {
        // The framed backend round-trips every message through the wire
        // codec; the Assurance Theorem's observable consequence must be
        // byte-for-byte unaffected: same answers (bit-identical floats),
        // same superstep count, same message count. Inline execution makes
        // the schedule deterministic so the comparison is exact for every
        // program, including the float-iterating PageRank.
        let pr_query = PageRankQuery { max_local_iterations: 40, ..Default::default() };
        let pr_n = graph.num_vertices();
        let cf_query = CfQuery { rank: 3, epochs: 3, ..Default::default() };
        for strategy in BuiltinStrategy::all() {
            let assignment = strategy.partition(&graph, k);
            let run = |transport: TransportKind| {
                let config = EngineConfig::builder()
                    .execution(ExecutionMode::Inline)
                    .transport(transport)
                    .build();
                let sssp = GrapeEngine::new(SsspProgram)
                    .with_config(config.clone())
                    .run_on_graph(&SsspQuery::new(0), &graph, &assignment)
                    .unwrap();
                let cc = GrapeEngine::new(CcProgram)
                    .with_config(config.clone())
                    .run_on_graph(&CcQuery, &graph, &assignment)
                    .unwrap();
                let pr = GrapeEngine::new(PageRankProgram::new(pr_n))
                    .with_config(config.clone())
                    .run_on_graph(&pr_query, &graph, &assignment)
                    .unwrap();
                let cf = GrapeEngine::new(CfProgram::new(pr_n / 2))
                    .with_config(config.clone())
                    .run_on_graph(&cf_query, &graph, &assignment)
                    .unwrap();
                (sssp, cc, pr, cf)
            };
            let (sssp_t, cc_t, pr_t, cf_t) = run(TransportKind::InProcess);
            let (sssp_f, cc_f, pr_f, cf_f) = run(TransportKind::Framed);
            // CF's factor vectors must survive the codec round-trip bit for
            // bit (Vec<f64> values over the wire).
            prop_assert_eq!(cf_t.output.factors.len(), cf_f.output.factors.len());
            for (v, fac) in &cf_t.output.factors {
                prop_assert_eq!(
                    fac, &cf_f.output.factors[v],
                    "cf/{} k={} vertex {}", strategy.name(), k, v
                );
            }
            for v in graph.vertices() {
                let (a, b) = (sssp_t.output.get(&v), sssp_f.output.get(&v));
                prop_assert!(
                    a.map(|d| d.to_bits()) == b.map(|d| d.to_bits()),
                    "sssp/{} k={} vertex {}: {:?} vs {:?}", strategy.name(), k, v, a, b
                );
                prop_assert_eq!(cc_t.output.get(&v), cc_f.output.get(&v));
                let (a, b) = (pr_t.output.get(&v), pr_f.output.get(&v));
                prop_assert!(
                    a.map(|d| d.to_bits()) == b.map(|d| d.to_bits()),
                    "pagerank/{} k={} vertex {}: {:?} vs {:?}", strategy.name(), k, v, a, b
                );
            }
            for (typed, framed, algo) in [
                (&sssp_t.stats, &sssp_f.stats, "sssp"),
                (&cc_t.stats, &cc_f.stats, "cc"),
                (&pr_t.stats, &pr_f.stats, "pagerank"),
                (&cf_t.stats, &cf_f.stats, "cf"),
            ] {
                prop_assert_eq!(
                    typed.supersteps, framed.supersteps,
                    "{}/{} k={}: superstep counts differ", algo, strategy.name(), k
                );
                prop_assert_eq!(
                    typed.messages, framed.messages,
                    "{}/{} k={}: message counts differ", algo, strategy.name(), k
                );
                // Framed accounting counts actual bytes: estimates plus one
                // header per message (and the eval field per report), so it
                // can only exceed the estimated path when anything moved.
                if typed.messages > 0 {
                    prop_assert!(
                        framed.bytes > typed.bytes,
                        "{}/{} k={}: framed {} bytes vs estimated {}",
                        algo, strategy.name(), k, framed.bytes, typed.bytes
                    );
                }
            }
        }
    }

    #[test]
    fn numeric_answers_are_bit_identical_across_thread_counts(
        graph in arb_graph(70, 220),
        k in 1usize..5,
    ) {
        // The determinism contract of the parallel-primitive layer: the
        // intra-worker thread count changes only which OS thread executes a
        // chunk, never the chunk decomposition or the reduction order, so
        // every answer — including the float-iterating PageRank and CF —
        // must be *bit-identical* across thread counts, along with the
        // superstep and message counts. Checked per partition strategy, and
        // once through the framed wire codec.
        let pr_query = PageRankQuery {
            max_local_iterations: 40,
            tolerance: 1e-9,
            ..Default::default()
        };
        let n = graph.num_vertices();
        let cf_query = CfQuery { rank: 3, epochs: 3, ..Default::default() };
        for strategy in [BuiltinStrategy::Hash, BuiltinStrategy::MetisLike] {
            let assignment = strategy.partition(&graph, k);
            let run = |threads: u32, transport: TransportKind| {
                let config = EngineConfig::builder()
                    .execution(ExecutionMode::Inline)
                    .transport(transport)
                    .threads_per_worker(ThreadCount::Fixed(threads))
                    .build();
                let sssp = GrapeEngine::new(SsspProgram)
                    .with_config(config.clone())
                    .run_on_graph(&SsspQuery::new(0), &graph, &assignment)
                    .unwrap();
                let cc = GrapeEngine::new(CcProgram)
                    .with_config(config.clone())
                    .run_on_graph(&CcQuery, &graph, &assignment)
                    .unwrap();
                let pr = GrapeEngine::new(PageRankProgram::new(n))
                    .with_config(config.clone())
                    .run_on_graph(&pr_query, &graph, &assignment)
                    .unwrap();
                let cf = GrapeEngine::new(CfProgram::new(n / 2))
                    .with_config(config.clone())
                    .run_on_graph(&cf_query, &graph, &assignment)
                    .unwrap();
                (sssp, cc, pr, cf)
            };
            let base = run(1, TransportKind::InProcess);
            let variants = [
                (2u32, TransportKind::InProcess),
                (4, TransportKind::InProcess),
                (8, TransportKind::InProcess),
                (4, TransportKind::Framed),
            ];
            for (threads, transport) in variants {
                let got = run(threads, transport);
                for v in graph.vertices() {
                    prop_assert!(
                        base.0.output.get(&v).map(|d| d.to_bits())
                            == got.0.output.get(&v).map(|d| d.to_bits()),
                        "sssp/{} k={} t={} vertex {}", strategy.name(), k, threads, v
                    );
                    prop_assert_eq!(
                        base.1.output.get(&v), got.1.output.get(&v),
                        "cc/{} k={} t={} vertex {}", strategy.name(), k, threads, v
                    );
                    prop_assert!(
                        base.2.output.get(&v).map(|d| d.to_bits())
                            == got.2.output.get(&v).map(|d| d.to_bits()),
                        "pagerank/{} k={} t={} vertex {}", strategy.name(), k, threads, v
                    );
                }
                prop_assert_eq!(base.3.output.factors.len(), got.3.output.factors.len());
                for (v, fac) in &base.3.output.factors {
                    prop_assert_eq!(
                        fac, &got.3.output.factors[v],
                        "cf/{} k={} t={} vertex {}", strategy.name(), k, threads, v
                    );
                }
                for (a, b, algo) in [
                    (&base.0.stats, &got.0.stats, "sssp"),
                    (&base.1.stats, &got.1.stats, "cc"),
                    (&base.2.stats, &got.2.stats, "pagerank"),
                    (&base.3.stats, &got.3.stats, "cf"),
                ] {
                    prop_assert_eq!(
                        a.supersteps, b.supersteps,
                        "{}/{} k={} t={}: superstep counts differ",
                        algo, strategy.name(), k, threads
                    );
                    prop_assert_eq!(
                        a.messages, b.messages,
                        "{}/{} k={} t={}: message counts differ",
                        algo, strategy.name(), k, threads
                    );
                }
            }
        }
    }

    #[test]
    fn message_totals_match_superstep_history(
        graph in arb_graph(70, 250),
        k in 2usize..6,
    ) {
        let assignment = BuiltinStrategy::Hash.partition(&graph, k);
        let result = GrapeEngine::new(CcProgram)
            .run_on_graph(&CcQuery, &graph, &assignment)
            .unwrap();
        let by_history: u64 = result.stats.history.iter().map(|t| t.messages).sum();
        prop_assert_eq!(by_history, result.stats.messages);
        prop_assert_eq!(result.stats.history.len(), result.stats.supersteps);
    }
}

/// Edge weights for the relaxation-kernel property: zeros (zero-weight
/// cycles, pushes at the key just popped), dyadic values (exact ties between
/// paths) and non-dyadic ones (rounded sums).
const RELAX_WEIGHTS: [f64; 8] = [0.0, 0.0, 0.5, 1.0, 2.5, 0.1, 0.3, 1.0 / 3.0];

/// Strategy: a graph over `0..n` with parallel edges, self-loops and
/// unreachable vertices as chance makes them, plus two seed batches
/// `(vertex, distance)` — a PEval-shaped first call and an IncEval-shaped
/// second one.
#[allow(clippy::type_complexity)]
fn arb_relax_case() -> impl Strategy<Value = (WeightedGraph, Vec<(u64, f64)>, Vec<(u64, f64)>)> {
    (2usize..40, 1usize..120).prop_flat_map(|(n, m)| {
        let edges = proptest::collection::vec(
            (0..n as u64, 0..n as u64, 0..RELAX_WEIGHTS.len()),
            1..m.max(2),
        );
        let seeds = || proptest::collection::vec((0..n as u64, 0u32..8), 1..5);
        (edges, seeds(), seeds()).prop_map(move |(edges, first, second)| {
            let mut b = GraphBuilder::<(), f64>::new();
            for v in 0..n as u64 {
                b.ensure_vertex(v);
            }
            for (s, d, w) in edges {
                b.add_edge(s, d, RELAX_WEIGHTS[w]);
            }
            let at = |seeds: Vec<(u64, u32)>| -> Vec<(u64, f64)> {
                seeds
                    .into_iter()
                    .map(|(v, d)| (v, d as f64 * 0.7))
                    .collect()
            };
            (b.build().expect("valid edges"), at(first), at(second))
        })
    })
}

/// The least fixpoint a multi-seed relaxation must reach, by an independent
/// route: a fresh source with an edge of weight `d` to every seed `(v, d)`,
/// then [`sequential_sssp`] from it (`0.0 + d` is `d` exactly).
fn multi_seed_reference(graph: &WeightedGraph, seeds: &[(u64, f64)]) -> HashMap<VertexId, f64> {
    let source = graph.vertices().max().map_or(0, |v| v + 1);
    let mut b = GraphBuilder::<(), f64>::new();
    for v in graph.vertices() {
        b.ensure_vertex(v);
    }
    for (s, d, w) in graph.edges() {
        b.add_edge(s, d, *w);
    }
    for &(v, d) in seeds {
        b.add_edge(source, v, d);
    }
    sequential_sssp(&b.build().expect("valid edges"), source)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dense_relax_is_bit_identical_to_sequential_dijkstra(case in arb_relax_case()) {
        let (graph, first, mut second) = case;
        let dense = |seeds: &[(u64, f64)]| -> Vec<(u32, f64)> {
            seeds
                .iter()
                .map(|&(v, d)| (graph.dense_index(v).expect("seeds are vertices"), d))
                .collect()
        };
        let bits_match = |dist: &VertexDenseMap<f64>, seeds: &[(u64, f64)]| {
            let reference = multi_seed_reference(&graph, seeds);
            graph.vertices().find(|&v| {
                let want = reference.get(&v).copied().unwrap_or(f64::INFINITY);
                dist[graph.dense_index(v).unwrap()].to_bits() != want.to_bits()
            })
        };
        let mut dist = VertexDenseMap::for_graph(&graph, f64::INFINITY);
        dense_relax(&graph, &mut dist, &dense(&first));
        let mismatch = bits_match(&dist, &first);
        prop_assert!(mismatch.is_none(), "first call, vertex {:?}", mismatch);
        // The IncEval shape: the same `dist` again, seeds at unequal
        // distances, and re-seeds that cannot improve (equal, or worse).
        for &(v, _) in &first {
            let settled = dist[graph.dense_index(v).unwrap()];
            second.push((v, settled));
            second.push((v, settled + 1.0));
        }
        dense_relax(&graph, &mut dist, &dense(&second));
        let all: Vec<(u64, f64)> = first.iter().chain(&second).copied().collect();
        let mismatch = bits_match(&dist, &all);
        prop_assert!(mismatch.is_none(), "second call, vertex {:?}", mismatch);
        prop_assert_eq!(dense_relax(&graph, &mut dist, &dense(&all)), 0);
    }
}

// The pattern/keyword parity suites enumerate embeddings and run three
// programs per strategy, so they get a smaller case budget than the numeric
// suites above.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sim_subiso_keyword_are_identical_to_sequential_across_strategies(
        graph in arb_labeled_graph(36, 150),
        k in 1usize..6,
    ) {
        // The three pattern/keyword programs are exact algorithms: for every
        // partition strategy and worker count the distributed answers must be
        // *identical* to the sequential references — including a finite
        // keyword distance bound, which Assemble must re-apply.
        let pattern = chain_pattern();
        let sim_ref = sequential_sim(&graph, &pattern);
        let subiso_ref = {
            let mut m = sequential_subiso(&graph, &pattern);
            m.sort();
            m
        };
        let kq = KeywordQuery::new(["phone", "laptop"], 6.0);
        let kw_ref = sequential_keyword(&graph, &kq);
        for strategy in BuiltinStrategy::all() {
            let assignment = strategy.partition(&graph, k);
            let sim = GrapeEngine::new(SimProgram)
                .run_on_graph(&SimQuery::new(pattern.clone()), &graph, &assignment)
                .unwrap();
            prop_assert_eq!(
                &sim.output, &sim_ref,
                "sim/{} k={}", strategy.name(), k
            );
            let mut sub = GrapeEngine::new(SubIsoProgram)
                .run_on_graph(&SubIsoQuery::new(pattern.clone()), &graph, &assignment)
                .unwrap()
                .output;
            sub.sort();
            prop_assert_eq!(
                &sub, &subiso_ref,
                "subiso/{} k={}", strategy.name(), k
            );
            let kw = GrapeEngine::new(KeywordProgram)
                .run_on_graph(&kq, &graph, &assignment)
                .unwrap();
            prop_assert_eq!(
                kw.output.len(), kw_ref.len(),
                "keyword/{} k={}", strategy.name(), k
            );
            for (got, want) in kw.output.iter().zip(kw_ref.iter()) {
                prop_assert_eq!(got.root, want.root, "keyword/{} k={}", strategy.name(), k);
                prop_assert_eq!(
                    &got.distances, &want.distances,
                    "keyword/{} k={} root {}", strategy.name(), k, got.root
                );
            }
        }
    }

    #[test]
    fn pattern_answers_are_identical_across_thread_counts(
        graph in arb_labeled_graph(32, 120),
        k in 1usize..5,
    ) {
        // Thread-count half of the determinism contract for the four
        // label-driven classes. `sim` exercises the parallel refinement
        // worklist; subiso, keyword and marketing pin that programs which do
        // not (yet) use the pool are untouched by the knob. One variant runs
        // through the framed wire codec.
        let pattern = chain_pattern();
        let kq = KeywordQuery::new(["phone", "laptop"], 6.0);
        let mq = MarketingQuery::new(0);
        for strategy in [BuiltinStrategy::Hash, BuiltinStrategy::MetisLike] {
            let assignment = strategy.partition(&graph, k);
            let run = |threads: u32, transport: TransportKind| {
                let config = EngineConfig::builder()
                    .execution(ExecutionMode::Inline)
                    .transport(transport)
                    .threads_per_worker(ThreadCount::Fixed(threads))
                    .build();
                let sim = GrapeEngine::new(SimProgram)
                    .with_config(config.clone())
                    .run_on_graph(&SimQuery::new(pattern.clone()), &graph, &assignment)
                    .unwrap();
                let sub = GrapeEngine::new(SubIsoProgram)
                    .with_config(config.clone())
                    .run_on_graph(&SubIsoQuery::new(pattern.clone()), &graph, &assignment)
                    .unwrap();
                let kw = GrapeEngine::new(KeywordProgram)
                    .with_config(config.clone())
                    .run_on_graph(&kq, &graph, &assignment)
                    .unwrap();
                let mk = GrapeEngine::new(MarketingProgram)
                    .with_config(config.clone())
                    .run_on_graph(&mq, &graph, &assignment)
                    .unwrap();
                (sim, sub, kw, mk)
            };
            let base = run(1, TransportKind::InProcess);
            let variants = [
                (2u32, TransportKind::InProcess),
                (8, TransportKind::InProcess),
                (4, TransportKind::Framed),
            ];
            for (threads, transport) in variants {
                let got = run(threads, transport);
                prop_assert_eq!(
                    &base.0.output, &got.0.output,
                    "sim/{} k={} t={}", strategy.name(), k, threads
                );
                prop_assert_eq!(
                    &base.1.output, &got.1.output,
                    "subiso/{} k={} t={}", strategy.name(), k, threads
                );
                prop_assert_eq!(base.2.output.len(), got.2.output.len());
                for (a, b) in base.2.output.iter().zip(got.2.output.iter()) {
                    prop_assert_eq!(a.root, b.root);
                    prop_assert_eq!(&a.distances, &b.distances);
                }
                prop_assert_eq!(
                    &base.3.output, &got.3.output,
                    "marketing/{} k={} t={}", strategy.name(), k, threads
                );
                for (a, b, algo) in [
                    (&base.0.stats, &got.0.stats, "sim"),
                    (&base.1.stats, &got.1.stats, "subiso"),
                    (&base.2.stats, &got.2.stats, "keyword"),
                    (&base.3.stats, &got.3.stats, "marketing"),
                ] {
                    prop_assert_eq!(
                        a.supersteps, b.supersteps,
                        "{}/{} k={} t={}: superstep counts differ",
                        algo, strategy.name(), k, threads
                    );
                    prop_assert_eq!(
                        a.messages, b.messages,
                        "{}/{} k={} t={}: message counts differ",
                        algo, strategy.name(), k, threads
                    );
                }
            }
        }
    }

    #[test]
    fn framed_transport_is_bit_identical_for_pattern_programs(
        graph in arb_labeled_graph(32, 120),
        k in 1usize..5,
    ) {
        // Same invariant as the numeric framed parity suite, for the value
        // types the pattern programs put on the wire: u64 masks (sim),
        // String-carrying neighbourhood deltas (subiso) and Vec<f64>
        // distance vectors (keyword).
        let pattern = chain_pattern();
        let kq = KeywordQuery::new(["phone", "laptop"], f64::INFINITY);
        for strategy in [BuiltinStrategy::Hash, BuiltinStrategy::MetisLike] {
            let assignment = strategy.partition(&graph, k);
            let run = |transport: TransportKind| {
                let config = EngineConfig::builder()
                    .execution(ExecutionMode::Inline)
                    .transport(transport)
                    .build();
                let sim = GrapeEngine::new(SimProgram)
                    .with_config(config.clone())
                    .run_on_graph(&SimQuery::new(pattern.clone()), &graph, &assignment)
                    .unwrap();
                let sub = GrapeEngine::new(SubIsoProgram)
                    .with_config(config.clone())
                    .run_on_graph(&SubIsoQuery::new(pattern.clone()), &graph, &assignment)
                    .unwrap();
                let kw = GrapeEngine::new(KeywordProgram)
                    .with_config(config.clone())
                    .run_on_graph(&kq, &graph, &assignment)
                    .unwrap();
                (sim, sub, kw)
            };
            let (sim_t, sub_t, kw_t) = run(TransportKind::InProcess);
            let (sim_f, sub_f, kw_f) = run(TransportKind::Framed);
            prop_assert_eq!(&sim_t.output, &sim_f.output);
            prop_assert_eq!(&sub_t.output, &sub_f.output);
            prop_assert_eq!(kw_t.output.len(), kw_f.output.len());
            for (a, b) in kw_t.output.iter().zip(kw_f.output.iter()) {
                prop_assert_eq!(a.root, b.root);
                prop_assert_eq!(&a.distances, &b.distances);
            }
            for (typed, framed, algo) in [
                (&sim_t.stats, &sim_f.stats, "sim"),
                (&sub_t.stats, &sub_f.stats, "subiso"),
                (&kw_t.stats, &kw_f.stats, "keyword"),
            ] {
                prop_assert_eq!(
                    typed.supersteps, framed.supersteps,
                    "{}/{} k={}: superstep counts differ", algo, strategy.name(), k
                );
                prop_assert_eq!(
                    typed.messages, framed.messages,
                    "{}/{} k={}: message counts differ", algo, strategy.name(), k
                );
            }
        }
    }
}

/// Round-trips every fragment's PEval partial through the checkpoint codec
/// ([`snapshot_partial`](grape::core::PieProgram::snapshot_partial) /
/// `restore_partial`) and asserts the re-snapshot of the restored partial is
/// byte-identical — the bit-exactness recovery relies on — and that
/// truncated snapshots are rejected instead of misread.
fn audit_snapshot_roundtrip<P: grape::core::PieProgram>(
    program: &P,
    query: &P::Query,
    fragments: &[Fragment<P::VertexData, P::EdgeData>],
) {
    use grape::core::PieContext;
    for fragment in fragments {
        let mut ctx = PieContext::new();
        let slots: Vec<u32> = (0..fragment.border_vertices().len() as u32).collect();
        ctx.configure_borders(fragment.border_vertices(), &slots);
        let partial = program.peval(query, fragment, &mut ctx);
        let bytes = program
            .snapshot_partial(&partial)
            .expect("every query class snapshots its partial");
        let restored = program.restore_partial(&bytes).expect("snapshot restores");
        let again = program
            .snapshot_partial(&restored)
            .expect("restored partial re-snapshots");
        assert_eq!(
            bytes,
            again,
            "{}: restored partial re-snapshots differently",
            program.name()
        );
        if !bytes.is_empty() {
            assert!(
                program.restore_partial(&bytes[..bytes.len() - 1]).is_none(),
                "{}: truncated snapshot must be rejected",
                program.name()
            );
        }
    }
}

// Snapshot audit: recovery restores lost workers from these bytes, so every
// query class's partial must survive the checkpoint codec bit-exactly on
// arbitrary graphs, not just the unit-test fixtures.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn pattern_partial_snapshots_roundtrip_bit_identically(
        graph in arb_labeled_graph(32, 120),
        k in 2usize..5,
    ) {
        let pattern = chain_pattern();
        let assignment = BuiltinStrategy::Hash.partition(&graph, k);
        let fragments = build_fragments(&graph, &assignment);
        audit_snapshot_roundtrip(&SimProgram, &SimQuery::new(pattern.clone()), &fragments);
        audit_snapshot_roundtrip(&SubIsoProgram, &SubIsoQuery::new(pattern.clone()), &fragments);
        audit_snapshot_roundtrip(
            &KeywordProgram,
            &KeywordQuery::new(["phone", "laptop"], 6.0),
            &fragments,
        );
        audit_snapshot_roundtrip(&MarketingProgram, &MarketingQuery::new(0), &fragments);
    }

    #[test]
    fn numeric_partial_snapshots_roundtrip_bit_identically(
        graph in arb_graph(32, 120),
        k in 2usize..5,
    ) {
        let assignment = BuiltinStrategy::Hash.partition(&graph, k);
        let fragments = build_fragments(&graph, &assignment);
        let n = graph.num_vertices();
        audit_snapshot_roundtrip(&SsspProgram, &SsspQuery::new(0), &fragments);
        audit_snapshot_roundtrip(&CcProgram, &CcQuery, &fragments);
        audit_snapshot_roundtrip(
            &PageRankProgram { global_vertices: n },
            &PageRankQuery::default(),
            &fragments,
        );
        audit_snapshot_roundtrip(
            &CfProgram::new(n / 2),
            &CfQuery { rank: 3, epochs: 3, ..Default::default() },
            &fragments,
        );
    }
}

/// The reference cut for `build_fragments`, written the straightforward way:
/// two assignment lookups per edge, hash sets of outer vertices and of
/// mirror locations, assembled through [`Fragment::from_parts`] (the
/// assembly `build_fragments` shares).
fn reference_fragments<V: Clone + Default, E: Clone>(
    graph: &CsrGraph<V, E>,
    assignment: &PartitionAssignment,
) -> Vec<Fragment<V, E>> {
    use std::collections::HashSet;
    let k = assignment.num_fragments().max(1);
    let owner = |v: VertexId| assignment.fragment_of(v).unwrap_or(0);
    let mut inner: Vec<Vec<VertexId>> = vec![Vec::new(); k];
    for v in graph.vertices() {
        inner[owner(v)].push(v);
    }
    let mut edges: Vec<Vec<(VertexId, VertexId, E)>> = vec![Vec::new(); k];
    let mut outer: Vec<HashSet<VertexId>> = vec![HashSet::new(); k];
    let mut mirrored_at: Vec<HashMap<VertexId, HashSet<usize>>> = vec![HashMap::new(); k];
    for (s, d, w) in graph.edges() {
        let (fs, fd) = (owner(s), owner(d));
        edges[fs].push((s, d, w.clone()));
        if fd != fs {
            edges[fd].push((s, d, w.clone()));
            outer[fd].insert(s);
            outer[fs].insert(d);
            mirrored_at[fs].entry(s).or_default().insert(fd);
            mirrored_at[fd].entry(d).or_default().insert(fs);
        }
    }
    (0..k)
        .map(|f| {
            let mut outer_list: Vec<VertexId> = outer[f].iter().copied().collect();
            outer_list.sort_unstable();
            let vertices = inner[f]
                .iter()
                .chain(&outer_list)
                .map(|&v| (v, graph.vertex_data(v).cloned().unwrap_or_default()))
                .collect();
            let outer_owner = outer_list.iter().map(|&v| (v, owner(v) as u32)).collect();
            let mut mirrored: Vec<(VertexId, Vec<u32>)> = mirrored_at[f]
                .iter()
                .map(|(&v, at)| {
                    let mut at: Vec<u32> = at.iter().map(|&g| g as u32).collect();
                    at.sort_unstable();
                    (v, at)
                })
                .collect();
            mirrored.sort_unstable_by_key(|&(v, _)| v);
            Fragment::from_parts(grape::partition::FragmentParts {
                id: f,
                num_fragments: k,
                vertices,
                edges: std::mem::take(&mut edges[f]),
                inner: std::mem::take(&mut inner[f]),
                outer: outer_list,
                outer_owner,
                mirrored_at: mirrored,
            })
            .expect("reference fragment")
        })
        .collect()
}

/// Strategy: a graph with vertex payloads whose `n` ids are `i * stretch`,
/// so the id index is direct (stretch 1 or 3) or sorted (stretch 1000).
fn arb_cut_graph() -> impl Strategy<Value = CsrGraph<u32, f64>> {
    (2usize..90, 1usize..300, 0usize..3).prop_flat_map(|(n, m, shape)| {
        let stretch = [1u64, 3, 1000][shape];
        let edges = proptest::collection::vec((0..n as u64, 0..n as u64, 1u32..20), 0..m);
        edges.prop_map(move |edges| {
            let mut b = GraphBuilder::<u32, f64>::new();
            for v in 0..n as u64 {
                b.add_vertex(v * stretch, v as u32 % 7);
            }
            for (s, d, w) in edges {
                b.add_edge(s * stretch, d * stretch, w as f64 / 2.0);
            }
            b.build().expect("valid edges")
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The dense-index cut equals the hash-based reference on every built-in
    /// strategy and on an assignment that leaves vertices out; k = 65 takes
    /// the mirror masks into their second word.
    #[test]
    fn fragments_equal_the_reference_cut(graph in arb_cut_graph()) {
        for k in [1usize, 2, 3, 4, 7, 65] {
            let mut partial = PartitionAssignment::new(k);
            for (i, v) in graph.vertices().enumerate() {
                if i % 3 != 0 {
                    partial.assign(v, i % k);
                }
            }
            let mut assignments: Vec<PartitionAssignment> = BuiltinStrategy::all()
                .iter()
                .map(|strategy| strategy.partition(&graph, k))
                .collect();
            assignments.push(partial);
            for assignment in &assignments {
                let fragments = build_fragments(&graph, assignment);
                let reference = reference_fragments(&graph, assignment);
                prop_assert_eq!(fragments.len(), reference.len());
                for (fragment, expected) in fragments.iter().zip(&reference) {
                    prop_assert!(fragment == expected, "fragment {} of {}", fragment.id, k);
                    prop_assert!(fragment.to_parts() == expected.to_parts());
                }
            }
            // Vertices the partial assignment leaves out land on fragment 0.
            let fragments = build_fragments(&graph, assignments.last().unwrap());
            for v in graph.vertices().step_by(3) {
                prop_assert!(fragments[0].is_inner(v), "vertex {}", v);
            }
        }
    }
}

/// The reference for `evaluate_partition`, written the way it first was:
/// two assignment lookups per edge and a hash set of `(fragment, vertex)`
/// mirror pairs.
fn reference_quality<V: Clone, E: Clone>(
    graph: &CsrGraph<V, E>,
    assignment: &PartitionAssignment,
) -> grape::partition::PartitionQuality {
    use std::collections::HashSet;
    let k = assignment.num_fragments().max(1);
    let owner = |v: VertexId| assignment.fragment_of(v).unwrap_or(0);
    let mut cut = 0usize;
    let mut mirrors: HashSet<(usize, VertexId)> = HashSet::new();
    for (s, d, _) in graph.edges() {
        let (fs, fd) = (owner(s), owner(d));
        if fs != fd {
            cut += 1;
            mirrors.insert((fd, s));
            mirrors.insert((fs, d));
        }
    }
    let sizes = assignment.sizes();
    let (n, m) = (graph.num_vertices(), graph.num_edges());
    let ideal = n as f64 / k as f64;
    let max_size = sizes.iter().copied().max().unwrap_or(0);
    grape::partition::PartitionQuality {
        used_fragments: sizes.iter().filter(|s| **s > 0).count(),
        cut_edges: cut,
        cut_ratio: if m == 0 { 0.0 } else { cut as f64 / m as f64 },
        mirror_vertices: mirrors.len(),
        replication_factor: if n == 0 {
            1.0
        } else {
            (n + mirrors.len()) as f64 / n as f64
        },
        balance: if ideal == 0.0 {
            1.0
        } else {
            max_size as f64 / ideal
        },
        sizes,
    }
}

/// Strategy: `k` and a sequence of `(reassign?, vertex, fragment)` calls
/// whose ids run ascending, descending, over a handful of repeated ids, just
/// below `u64::MAX`, or mix all four.
fn arb_assign_calls() -> impl Strategy<Value = (usize, Vec<(bool, VertexId, usize)>)> {
    let calls = proptest::collection::vec((0u8..2, 0u64..1_000, 0usize..64), 0..120);
    (1usize..9, 0u64..5, calls).prop_map(|(k, shape, calls)| {
        let calls = calls
            .into_iter()
            .enumerate()
            .map(|(i, (op, x, f))| {
                let i = i as u64;
                let id = match if shape == 4 { x % 4 } else { shape } {
                    0 => 3 * i + x % 3,
                    1 => 10_000 - 3 * i - x % 3,
                    2 => x % 8,
                    _ => u64::MAX - x % 40,
                };
                (op == 1, id, f % k)
            })
            .collect();
        (k, calls)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The assignment's sorted columns answer like a map from id to
    /// fragment, whatever order the ids come in.
    #[test]
    fn assignment_columns_equal_a_map_model(case in arb_assign_calls()) {
        let (k, calls) = case;
        let mut assignment = PartitionAssignment::new(k);
        let mut model: HashMap<VertexId, usize> = HashMap::new();
        for &(reassign, v, f) in &calls {
            if reassign {
                assignment.reassign(v, f);
            } else {
                assignment.assign(v, f);
            }
            model.insert(v, f);
            prop_assert_eq!(assignment.fragment_of(v), Some(f));
        }
        prop_assert_eq!(assignment.num_assigned(), model.len());
        for &(_, v, _) in &calls {
            for probe in [v.wrapping_sub(1), v, v.wrapping_add(1)] {
                prop_assert_eq!(assignment.fragment_of(probe), model.get(&probe).copied());
            }
        }
        let mut pairs: Vec<(VertexId, usize)> = model.iter().map(|(&v, &f)| (v, f)).collect();
        pairs.sort_unstable();
        prop_assert_eq!(assignment.iter().collect::<Vec<_>>(), pairs.clone());
        let mut members = vec![Vec::new(); k];
        for &(v, f) in &pairs {
            members[f].push(v);
        }
        let sizes: Vec<usize> = members.iter().map(Vec::len).collect();
        prop_assert_eq!(assignment.members(), members);
        prop_assert_eq!(assignment.sizes(), sizes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// An assignment may name ids the graph lacks (a session's keeps the
    /// vertices a batch removed): the cut skips them, and the quality
    /// report counts them in the sizes only, as the reference cut and the
    /// reference quality do.
    #[test]
    fn an_assignment_naming_absent_ids_cuts_like_the_reference(
        graph in arb_cut_graph(),
        extra in proptest::collection::vec(0u64..100_000, 0..40),
    ) {
        for k in [1usize, 2, 3, 4, 65] {
            let mut assignment = PartitionAssignment::new(k);
            for (i, v) in graph.vertices().enumerate() {
                if i % 3 != 1 {
                    assignment.assign(v, (v as usize / 7 + i) % k);
                }
            }
            for (j, &v) in extra.iter().enumerate() {
                if !graph.contains(v) {
                    assignment.assign(v, j % k);
                }
            }
            assignment.assign(u64::MAX, k - 1);
            let fragments = build_fragments(&graph, &assignment);
            let reference = reference_fragments(&graph, &assignment);
            prop_assert_eq!(fragments.len(), reference.len());
            for (fragment, expected) in fragments.iter().zip(&reference) {
                prop_assert!(fragment == expected, "fragment {} of {}", fragment.id, k);
                prop_assert!(fragment.to_parts() == expected.to_parts());
            }
            let quality = grape::partition::evaluate_partition(&graph, &assignment);
            prop_assert_eq!(quality, reference_quality(&graph, &assignment));
        }
    }
}

/// The reference for `MetisLikePartitioner`, written the way it first was:
/// each level an adjacency list built through one `HashMap` per vertex,
/// and refinement counting a vertex's edges per fragment in a `HashMap`.
/// Same knobs, same recipe; the partitioner must give every vertex the
/// fragment this gives it.
fn reference_metis_like<V: Clone, E: Clone>(
    graph: &CsrGraph<V, E>,
    p: &MetisLikePartitioner,
    k: usize,
) -> PartitionAssignment {
    struct Coarse {
        adj: Vec<Vec<(usize, u64)>>,
        weight: Vec<u64>,
    }
    fn sorted_rows(maps: Vec<HashMap<usize, u64>>) -> Vec<Vec<(usize, u64)>> {
        maps.into_iter()
            .map(|m| {
                let mut v: Vec<(usize, u64)> = m.into_iter().collect();
                v.sort_unstable();
                v
            })
            .collect()
    }
    fn coarsen_once(graph: &Coarse) -> (Coarse, Vec<usize>) {
        let n = graph.adj.len();
        let mut matched = vec![usize::MAX; n];
        let mut coarse_of = vec![usize::MAX; n];
        let mut next_coarse = 0usize;
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&v| graph.adj[v].len());
        for &v in &order {
            if matched[v] != usize::MAX {
                continue;
            }
            let mut best = usize::MAX;
            let mut best_w = 0u64;
            for &(u, w) in &graph.adj[v] {
                if matched[u] == usize::MAX && w > best_w {
                    best = u;
                    best_w = w;
                }
            }
            if best != usize::MAX {
                matched[v] = best;
                matched[best] = v;
                coarse_of[v] = next_coarse;
                coarse_of[best] = next_coarse;
            } else {
                matched[v] = v;
                coarse_of[v] = next_coarse;
            }
            next_coarse += 1;
        }
        let mut weight = vec![0u64; next_coarse];
        for v in 0..n {
            weight[coarse_of[v]] += graph.weight[v];
        }
        let mut adj_maps: Vec<HashMap<usize, u64>> = vec![HashMap::new(); next_coarse];
        for v in 0..n {
            let cv = coarse_of[v];
            for &(u, w) in &graph.adj[v] {
                let cu = coarse_of[u];
                if cu != cv {
                    *adj_maps[cv].entry(cu).or_insert(0) += w;
                }
            }
        }
        (
            Coarse {
                adj: sorted_rows(adj_maps),
                weight,
            },
            coarse_of,
        )
    }
    fn initial_partition(graph: &Coarse, k: usize) -> Vec<usize> {
        let n = graph.adj.len();
        let mut part = vec![usize::MAX; n];
        let target = (graph.weight.iter().sum::<u64>() as f64 / k as f64).ceil() as u64;
        let mut loads = vec![0u64; k];
        for (f, load) in loads.iter_mut().enumerate() {
            let seed = (f * n / k).min(n - 1);
            let start = (seed..n).chain(0..seed).find(|&v| part[v] == usize::MAX);
            let Some(start) = start else { break };
            let mut queue = std::collections::VecDeque::from([start]);
            while let Some(v) = queue.pop_front() {
                if part[v] != usize::MAX {
                    continue;
                }
                if *load >= target && f + 1 < k {
                    break;
                }
                part[v] = f;
                *load += graph.weight[v];
                for &(u, _) in &graph.adj[v] {
                    if part[u] == usize::MAX {
                        queue.push_back(u);
                    }
                }
            }
        }
        for (v, p) in part.iter_mut().enumerate() {
            if *p == usize::MAX {
                let f = (0..k).min_by_key(|&f| loads[f]).unwrap_or(0);
                *p = f;
                loads[f] += graph.weight[v];
            }
        }
        part
    }
    fn refine(p: &MetisLikePartitioner, graph: &Coarse, part: &mut [usize], k: usize) {
        let n = graph.adj.len();
        let total = graph.weight.iter().sum::<u64>();
        let max_load = (p.balance_slack * total as f64 / k as f64).ceil() as u64;
        let mut loads = vec![0u64; k];
        for v in 0..n {
            loads[part[v]] += graph.weight[v];
        }
        for _ in 0..p.refine_passes {
            let mut moved = 0usize;
            for v in 0..n {
                let current = part[v];
                let mut edges_to: HashMap<usize, u64> = HashMap::new();
                for &(u, w) in &graph.adj[v] {
                    *edges_to.entry(part[u]).or_insert(0) += w;
                }
                let internal = edges_to.get(&current).copied().unwrap_or(0);
                let mut best_f = current;
                let mut best_gain = 0i64;
                let mut candidates: Vec<(usize, u64)> = edges_to.into_iter().collect();
                candidates.sort_unstable();
                for (f, w) in candidates {
                    if f == current || loads[f] + graph.weight[v] > max_load {
                        continue;
                    }
                    let gain = w as i64 - internal as i64;
                    if gain > best_gain {
                        best_gain = gain;
                        best_f = f;
                    }
                }
                if best_f != current {
                    loads[current] -= graph.weight[v];
                    loads[best_f] += graph.weight[v];
                    part[v] = best_f;
                    moved += 1;
                }
            }
            if moved == 0 {
                break;
            }
        }
    }

    let k = k.max(1);
    let mut assignment = PartitionAssignment::new(k);
    let n = graph.num_vertices();
    if n == 0 {
        return assignment;
    }
    if k == 1 {
        for v in graph.vertices() {
            assignment.assign(v, 0);
        }
        return assignment;
    }
    let ids: Vec<VertexId> = graph.vertices().collect();
    let mut adj_maps: Vec<HashMap<usize, u64>> = vec![HashMap::new(); n];
    for (s, d, _) in graph.edges() {
        if s == d {
            continue;
        }
        let si = graph.dense_index(s).unwrap() as usize;
        let di = graph.dense_index(d).unwrap() as usize;
        *adj_maps[si].entry(di).or_insert(0) += 1;
        *adj_maps[di].entry(si).or_insert(0) += 1;
    }
    let mut levels = vec![Coarse {
        adj: sorted_rows(adj_maps),
        weight: vec![1; n],
    }];
    let mut maps: Vec<Vec<usize>> = Vec::new();
    let stop = (p.coarsen_until * k).max(2 * k);
    let mut guard = 0;
    while levels.last().unwrap().adj.len() > stop && guard < 64 {
        guard += 1;
        let current = levels.last().unwrap();
        let before = current.adj.len();
        let (coarser, map) = coarsen_once(current);
        if coarser.adj.len() as f64 > 0.95 * before as f64 {
            break;
        }
        maps.push(map);
        levels.push(coarser);
    }
    let mut part = initial_partition(levels.last().unwrap(), k);
    refine(p, levels.last().unwrap(), &mut part, k);
    for (level_idx, map) in maps.iter().enumerate().rev() {
        part = map.iter().map(|&c| part[c]).collect();
        refine(p, &levels[level_idx], &mut part, k);
    }
    for (dense, &frag) in part.iter().enumerate() {
        assignment.assign(ids[dense], frag.min(k - 1));
    }
    assignment
}

/// The knob settings the reference check runs: the defaults, then each knob
/// pushed to both sides of them.
fn metis_knobs() -> Vec<MetisLikePartitioner> {
    let d = MetisLikePartitioner::default();
    vec![
        d,
        MetisLikePartitioner {
            coarsen_until: 1,
            ..d
        },
        MetisLikePartitioner {
            coarsen_until: 200,
            ..d
        },
        MetisLikePartitioner {
            refine_passes: 0,
            ..d
        },
        MetisLikePartitioner {
            refine_passes: 8,
            ..d
        },
        MetisLikePartitioner {
            balance_slack: 1.0,
            ..d
        },
        MetisLikePartitioner {
            balance_slack: 2.0,
            ..d
        },
    ]
}

/// Checks `MetisLikePartitioner` against [`reference_metis_like`] on every
/// knob setting and every `k`, vertex by vertex.
fn check_metis_like_against_reference<V: Clone, E: Clone>(
    graph: &CsrGraph<V, E>,
    ks: &[usize],
) -> Result<(), TestCaseError> {
    for p in metis_knobs() {
        for &k in ks {
            let got = p.partition(graph, k);
            let expected = reference_metis_like(graph, &p, k);
            prop_assert_eq!(got.num_fragments(), expected.num_fragments());
            prop_assert_eq!(got.num_assigned(), expected.num_assigned());
            for v in graph.vertices() {
                prop_assert_eq!(
                    got.fragment_of(v),
                    expected.fragment_of(v),
                    "vertex {} of {} at k = {}, {:?}",
                    v,
                    graph.num_vertices(),
                    k,
                    p
                );
            }
        }
    }
    Ok(())
}

/// Strategy: a graph for the multilevel cut. `n` ids `i * stretch` (direct
/// or sorted id index) split into `parts` components, each edge kept inside
/// its source's component; self-loops, parallel and antiparallel edges come
/// from the draw, `isolated` extra vertices have no edges, and the reverse
/// adjacency is built or not.
fn arb_metis_graph() -> impl Strategy<Value = CsrGraph<u32, f64>> {
    (
        2usize..400,
        0usize..1200,
        0usize..3,
        1usize..5,
        0usize..8,
        0usize..2,
    )
        .prop_flat_map(|(n, m, shape, parts, isolated, reverse)| {
            let stretch = [1u64, 3, 1000][shape];
            let block = n.div_ceil(parts) as u64;
            let edges = proptest::collection::vec((0..n as u64, 0..n as u64, 0usize..4), 0..m);
            edges.prop_map(move |edges| {
                let mut b = GraphBuilder::<u32, f64>::new().with_reverse(reverse == 1);
                for v in 0..(n + isolated) as u64 {
                    b.add_vertex(v * stretch, v as u32 % 7);
                }
                for (s, d, shape) in edges {
                    let d = (s / block * block + d % block).min(n as u64 - 1);
                    b.add_edge(s * stretch, d * stretch, 1.0);
                    // Now and then a parallel or an antiparallel twin.
                    match shape {
                        0 => {
                            b.add_edge(s * stretch, d * stretch, 2.0);
                        }
                        1 => {
                            b.add_edge(d * stretch, s * stretch, 2.0);
                        }
                        _ => {}
                    }
                }
                b.build().expect("valid edges")
            })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The CSR-level multilevel partitioner puts every vertex on the
    /// fragment the per-vertex `HashMap` reference puts it on, for every
    /// knob setting and every `k`, including `k` above `n`.
    #[test]
    fn metis_like_equals_the_reference_partitioner(graph in arb_metis_graph()) {
        check_metis_like_against_reference(&graph, &[1, 2, 3, 4, 7, 65])?;
    }
}

/// The same check on a road grid and a small R-MAT: the graph families the
/// benchmark cuts with MetisLike, deep enough to coarsen several levels.
#[test]
fn metis_like_equals_the_reference_partitioner_on_road_and_rmat() {
    use grape::graph::generators::{rmat, road_network, RmatConfig, RoadNetworkConfig};
    let road = road_network(
        RoadNetworkConfig {
            width: 48,
            height: 48,
            ..Default::default()
        },
        5,
    )
    .unwrap();
    let rmat = rmat(
        RmatConfig {
            scale: 11,
            ..Default::default()
        },
        3,
    )
    .unwrap();
    check_metis_like_against_reference(&road, &[2, 4, 7, 65]).unwrap();
    check_metis_like_against_reference(&rmat, &[2, 4, 7, 65]).unwrap();
}

/// The reference for `LdgPartitioner`, the loop as it first was: per vertex
/// a fresh count array, filled from `neighbours(v, Both)` through the
/// assignment's map.
fn reference_ldg<V: Clone, E: Clone>(
    graph: &CsrGraph<V, E>,
    p: &LdgPartitioner,
    k: usize,
) -> PartitionAssignment {
    use grape::graph::Direction;
    let k = k.max(1);
    let n = graph.num_vertices();
    let mut assignment = PartitionAssignment::with_capacity(k, n);
    if n == 0 {
        return assignment;
    }
    let capacity = (p.slack * n as f64 / k as f64).ceil().max(1.0);
    let mut sizes = vec![0usize; k];
    for v in graph.vertices() {
        let mut neighbour_count = vec![0usize; k];
        for (u, _) in graph.neighbours(v, Direction::Both) {
            if let Some(f) = assignment.fragment_of(u) {
                neighbour_count[f] += 1;
            }
        }
        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for f in 0..k {
            let penalty = 1.0 - sizes[f] as f64 / capacity;
            let score = neighbour_count[f] as f64 * penalty;
            let score = score - sizes[f] as f64 * 1e-9;
            if score > best_score {
                best_score = score;
                best = f;
            }
        }
        assignment.assign(v, best);
        sizes[best] += 1;
    }
    assignment
}

/// The reference for `FennelPartitioner`, the loop as it first was.
fn reference_fennel<V: Clone, E: Clone>(
    graph: &CsrGraph<V, E>,
    p: &FennelPartitioner,
    k: usize,
) -> PartitionAssignment {
    use grape::graph::Direction;
    let k = k.max(1);
    let n = graph.num_vertices();
    let m = graph.num_edges().max(1);
    let mut assignment = PartitionAssignment::with_capacity(k, n);
    if n == 0 {
        return assignment;
    }
    let alpha = m as f64 * (k as f64).powf(p.gamma - 1.0) / (n as f64).powf(p.gamma);
    let capacity = (p.slack * n as f64 / k as f64).ceil().max(1.0) as usize;
    let mut sizes = vec![0usize; k];
    for v in graph.vertices() {
        let mut neighbour_count = vec![0usize; k];
        for (u, _) in graph.neighbours(v, Direction::Both) {
            if let Some(f) = assignment.fragment_of(u) {
                neighbour_count[f] += 1;
            }
        }
        let mut best = 0usize;
        let mut best_score = f64::NEG_INFINITY;
        for f in 0..k {
            if sizes[f] >= capacity {
                continue;
            }
            let size_cost = alpha * p.gamma * (sizes[f] as f64).max(0.0).powf(p.gamma - 1.0);
            let score = neighbour_count[f] as f64 - size_cost;
            if score > best_score {
                best_score = score;
                best = f;
            }
        }
        if best_score == f64::NEG_INFINITY {
            best = (0..k).min_by_key(|f| sizes[*f]).unwrap_or(0);
        }
        assignment.assign(v, best);
        sizes[best] += 1;
    }
    assignment
}

/// Checks `got` against `expected` vertex by vertex.
fn check_same_assignment<V: Clone, E: Clone>(
    graph: &CsrGraph<V, E>,
    got: &PartitionAssignment,
    expected: &PartitionAssignment,
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.num_fragments(), expected.num_fragments());
    prop_assert_eq!(got.num_assigned(), expected.num_assigned());
    for v in graph.vertices() {
        prop_assert_eq!(
            got.fragment_of(v),
            expected.fragment_of(v),
            "vertex {} of {}, {}",
            v,
            graph.num_vertices(),
            what
        );
    }
    Ok(())
}

/// Checks LDG and Fennel against their references at every `k` in `ks`, at
/// the default knobs, a tight slack and a slack below one (Fennel then finds
/// every fragment full and falls back to the smallest).
fn check_streaming_against_reference<V: Clone, E: Clone>(
    graph: &CsrGraph<V, E>,
    ks: &[usize],
) -> Result<(), TestCaseError> {
    for &k in ks {
        for slack in [1.1, 1.0, 0.5] {
            let ldg = LdgPartitioner { slack };
            let what = format!("k = {k}, {ldg:?}");
            let got = ldg.partition(graph, k);
            check_same_assignment(graph, &got, &reference_ldg(graph, &ldg, k), &what)?;
            for gamma in [1.5, 2.0] {
                let fennel = FennelPartitioner { gamma, slack };
                let what = format!("k = {k}, {fennel:?}");
                let got = fennel.partition(graph, k);
                check_same_assignment(graph, &got, &reference_fennel(graph, &fennel, k), &what)?;
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The dense streaming loop puts every vertex on the fragment the
    /// per-vertex map loop puts it on: neighbour multiplicity, self-loops,
    /// antiparallel twins, isolated vertices and graphs without a reverse
    /// adjacency (where `Both` yields out-edges only) included.
    #[test]
    fn streaming_partitioners_equal_the_reference(graph in arb_metis_graph()) {
        check_streaming_against_reference(&graph, &[1, 2, 3, 4, 7, 65])?;
    }
}

/// One drawn mutation: `(kind, a, b)` over ids `0..n + 8`, so draws name
/// residents, strangers, and ids the stream removed before.
type Draw = (u8, u64, u64);

/// Expands a draw into mutations, in the shapes `mutate.rs`'s churn stream
/// draws plus same-batch pairs — a vertex added, wired and removed again, an
/// edge added and removed again — and re-inserts of `removed` ids.
fn expand_draw(
    live: &DeltaGraph<u32, f64>,
    removed: &[VertexId],
    (kind, a, b): Draw,
) -> Vec<GraphMutation<u32, f64>> {
    let edge = |src, dst| GraphMutation::AddEdge {
        src,
        dst,
        data: (a + b) as f64 / 4.0,
    };
    match kind {
        0 => vec![GraphMutation::AddVertex {
            id: a,
            data: b as u32 % 5 + 1,
        }],
        1 | 2 => vec![GraphMutation::RemoveVertex { id: a }],
        3 => {
            let edges = live.live_edges();
            match edges.get(a as usize % edges.len().max(1)) {
                Some(e) => vec![GraphMutation::RemoveEdge {
                    src: e.src,
                    dst: e.dst,
                }],
                None => Vec::new(),
            }
        }
        4 => vec![
            GraphMutation::AddVertex { id: a, data: 9 },
            edge(a, b),
            edge(b, a),
            GraphMutation::RemoveVertex { id: a },
        ],
        5 => vec![edge(a, b), GraphMutation::RemoveEdge { src: a, dst: b }],
        6 if !removed.is_empty() => vec![GraphMutation::AddVertex {
            id: removed[a as usize % removed.len()],
            data: 1,
        }],
        _ => vec![edge(a, b)],
    }
}

/// Strategy: a payload-carrying graph, and a stream of batches, each a list
/// of draws kept only where the evolving graph accepts them plus one final
/// draw kept as drawn — so some batches are refused as a whole.
#[allow(clippy::type_complexity)]
fn arb_update_stream() -> impl Strategy<Value = (CsrGraph<u32, f64>, Vec<(Vec<Draw>, Draw)>)> {
    (2u64..40, 0usize..120).prop_flat_map(|(n, m)| {
        let edges = proptest::collection::vec((0..n, 0..n, 1u32..20), 0..m.max(1));
        let draw = || (0u8..8, 0..n + 8, 0..n + 8);
        let batch = (proptest::collection::vec(draw(), 0..8), draw());
        (edges, proptest::collection::vec(batch, 1..6)).prop_map(move |(edges, batches)| {
            let mut b = GraphBuilder::<u32, f64>::new().with_reverse(true);
            for v in 0..n {
                b.add_vertex(v, v as u32 % 3);
            }
            for (s, d, w) in edges {
                b.add_edge(s, d, w as f64 / 2.0);
            }
            (b.build().expect("valid edges"), batches)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Staging a batch on the fragments `build_fragments` cut agrees with the
    /// `DeltaGraph` reference on accept or reject (the same error) and on the
    /// receipt; resolving it leaves the assignment alone, and splicing it and
    /// recording its placements yields the fresh cut of the updated graph.
    /// Batches stack, so removed ids come back as re-insert attempts.
    #[test]
    fn staging_on_fragments_agrees_with_the_delta_reference(case in arb_update_stream()) {
        use grape::graph::{stage_batch, LiveView};
        use grape::partition::{resolve_net_mutations, FragmentView, ResolvedMutations};

        let (graph, stream) = case;
        for strategy in BuiltinStrategy::all() {
            for k in 1..=4usize {
                let mut assignment = strategy.partition(&graph, k);
                let mut fragments = build_fragments(&graph, &assignment);
                let mut reference = DeltaGraph::new(graph.clone());
                let mut reference_assignment = assignment.clone();
                let mut removed = Vec::new();
                for (i, (draws, last)) in stream.iter().enumerate() {
                    let context = format!("{} k={k} batch {i}", strategy.name());
                    let mut scratch = reference.clone();
                    let mut batch = Vec::new();
                    for &draw in draws {
                        let mutations = expand_draw(&scratch, &removed, draw);
                        if scratch.apply(&mutations).is_ok() {
                            batch.extend(mutations);
                        }
                    }
                    batch.extend(expand_draw(&scratch, &removed, *last));

                    let view = FragmentView::new(&fragments, &assignment);
                    let staged = stage_batch(&view, &batch);
                    let applied = reference.apply(&batch);
                    let (staged, applied) = match (staged, applied) {
                        (Ok(staged), Ok(applied)) => (staged, applied),
                        (Err(a), Err(b)) => {
                            prop_assert_eq!(&a, &b, "{}: {:?} vs {:?}", context, a, b);
                            continue;
                        }
                        (a, b) => {
                            return Err(TestCaseError::fail(format!(
                                "{context}: fragments {:?}, reference {:?}",
                                a.map(|s| s.net),
                                b.map(|s| s.net)
                            )));
                        }
                    };
                    prop_assert_eq!(&staged.dirty, &applied.dirty, "{}: dirty", context);
                    prop_assert_eq!(staged.profile, applied.profile, "{}: profile", context);
                    removed.extend(&applied.net.removed_vertices);
                    prop_assert_eq!(
                        &staged.net, &applied.net,
                        "{}: {:?} vs {:?}", context, staged.net, applied.net
                    );

                    let before = assignment.clone();
                    let resolved = ResolvedMutations::resolve(staged.net, &assignment, |v| {
                        view.vertex_data(v).cloned()
                    });
                    let expected = resolve_net_mutations(
                        applied.net,
                        &mut reference_assignment,
                        |v| reference.vertex_data(v).cloned(),
                    );
                    prop_assert_eq!(&resolved, &expected, "{}: resolved", context);
                    let spliced: Vec<_> = fragments
                        .iter()
                        .map(|f| f.apply_mutations(&resolved).expect("splice"))
                        .collect();
                    for (v, f) in resolved.placements(&assignment) {
                        assignment.assign(v, f);
                    }
                    prop_assert!(
                        before.iter().all(|(v, f)| assignment.fragment_of(v) == Some(f)),
                        "{}: a placement moved a vertex", context
                    );
                    prop_assert_eq!(
                        assignment.members(),
                        reference_assignment.members(),
                        "{}: assignments differ", context
                    );
                    fragments = spliced;
                    let fresh = build_fragments(&reference.snapshot(true), &assignment);
                    for (fragment, expected) in fragments.iter().zip(&fresh) {
                        prop_assert!(
                            fragment == expected,
                            "{}: fragment {} differs from a fresh cut", context, fragment.id
                        );
                    }
                }
            }
        }
    }
}
