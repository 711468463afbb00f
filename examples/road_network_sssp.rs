//! Road-network SSSP: GRAPE against the vertex-centric and block-centric
//! baselines — a laptop-scale rerun of the scenario behind Table 1.
//!
//! Run with: `cargo run --release --example road_network_sssp`

use grape::baseline::{BlockSssp, BlogelEngine, GasEngine, GasSssp, PregelEngine, PregelSssp};
use grape::prelude::*;

fn main() {
    let workers = 8;
    let graph = grape::graph::generators::road_network(
        grape::graph::generators::RoadNetworkConfig {
            width: 160,
            height: 160,
            ..Default::default()
        },
        7,
    )
    .expect("valid generator parameters");
    println!(
        "road network: {} vertices, {} edges, estimated diameter {}",
        graph.num_vertices(),
        graph.num_edges(),
        grape::graph::metrics::estimate_diameter(&graph, 2)
    );
    let source = 0;

    // GRAPE with a METIS-like partition (what the paper recommends).
    let assignment = BuiltinStrategy::MetisLike.partition(&graph, workers);
    let grape_run = GrapeEngine::new(SsspProgram)
        .run_on_graph(&SsspQuery::new(source), &graph, &assignment)
        .expect("grape run succeeds");

    // Vertex-centric (Giraph-like) and GAS (GraphLab-like) engines.
    let (pregel_states, pregel_stats) =
        PregelEngine::new(workers).run(&PregelSssp, &source, &graph);
    let (gas_states, gas_stats) = GasEngine::new(workers).run(&GasSssp, &source, &graph);

    // Block-centric (Blogel-like) engine on the same partition.
    let (blogel_states, blogel_stats) =
        BlogelEngine::new().run(&BlockSssp, &source, &graph, &assignment);

    // All four agree on the answer.
    for (v, d) in &grape_run.output {
        if d.is_finite() {
            assert!((pregel_states[v] - d).abs() < 1e-9);
            assert!((gas_states[v] - d).abs() < 1e-9);
            assert!((blogel_states[v] - d).abs() < 1e-9);
        }
    }

    println!(
        "\n{:<22} {:>10} {:>12} {:>14} {:>12}",
        "system", "time (s)", "supersteps", "messages", "comm (MB)"
    );
    println!(
        "{:<22} {:>10.3} {:>12} {:>14} {:>12.4}",
        "pregel (Giraph-like)",
        pregel_stats.wall_time.as_secs_f64(),
        pregel_stats.supersteps,
        pregel_stats.messages,
        pregel_stats.megabytes()
    );
    println!(
        "{:<22} {:>10.3} {:>12} {:>14} {:>12.4}",
        "gas (GraphLab-like)",
        gas_stats.wall_time.as_secs_f64(),
        gas_stats.supersteps,
        gas_stats.messages,
        gas_stats.megabytes()
    );
    println!(
        "{:<22} {:>10.3} {:>12} {:>14} {:>12.4}",
        "blogel (block-centric)",
        blogel_stats.wall_time.as_secs_f64(),
        blogel_stats.supersteps,
        blogel_stats.messages,
        blogel_stats.megabytes()
    );
    println!(
        "{:<22} {:>10.3} {:>12} {:>14} {:>12.4}",
        "grape (PIE)",
        grape_run.stats.wall_time.as_secs_f64(),
        grape_run.stats.supersteps,
        grape_run.stats.messages,
        grape_run.stats.megabytes()
    );
    // Table 1's claim, on deterministic counters rather than time: GRAPE
    // needs far fewer supersteps and ships less data than the vertex-centric
    // engine (8 supersteps / 0.058 MB against 307 / 16.8 MB here).
    assert!(
        grape_run.stats.supersteps * 5 < pregel_stats.supersteps,
        "grape {} supersteps vs pregel {}",
        grape_run.stats.supersteps,
        pregel_stats.supersteps
    );
    assert!(
        grape_run.stats.bytes < pregel_stats.bytes,
        "grape {} bytes vs pregel {}",
        grape_run.stats.bytes,
        pregel_stats.bytes
    );
    // Where the PIE run's time went: evaluation on the critical path, and
    // the coordinator's own work around it — the exchange layout before the
    // first superstep (built here, since the fragments are fresh); gather (blocked on reports), fold, route and send between
    // supersteps; Assemble after the last.
    println!(
        "\ngrape (PIE) breakdown: {:.2} ms peval + {:.2} ms inceval, coordinator {:.2} ms exchange layout + {:.2} ms gather + {:.2} ms fold + {:.2} ms route + {:.2} ms send + {:.2} ms assemble",
        grape_run.stats.peval_seconds * 1e3,
        grape_run.stats.inceval_seconds * 1e3,
        grape_run.stats.slot_build_seconds * 1e3,
        grape_run.stats.gather_seconds * 1e3,
        grape_run.stats.fold_seconds * 1e3,
        grape_run.stats.route_seconds * 1e3,
        grape_run.stats.send_seconds * 1e3,
        grape_run.stats.assemble_seconds * 1e3
    );
}
