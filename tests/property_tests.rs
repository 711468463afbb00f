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
        graph in arb_graph(80, 250),
        k in 1usize..6,
    ) {
        let expected = sequential_cc(&graph);
        let assignment = BuiltinStrategy::MetisLike.partition(&graph, k);
        let result = GrapeEngine::new(CcProgram)
            .run_on_graph(&CcQuery, &graph, &assignment)
            .unwrap();
        for v in graph.vertices() {
            prop_assert_eq!(result.output[&v], expected[&v]);
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
