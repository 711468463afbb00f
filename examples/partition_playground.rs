//! Partition playground: the demo's Play-panel experiment on the impact of
//! partition strategies (Section 3(3)) — METIS-like vs streaming vs hash.
//!
//! Run with: `cargo run --release --example partition_playground`

use grape::prelude::*;

fn main() {
    // LiveJournal stand-in: a power-law social graph.
    let graph = grape::graph::generators::barabasi_albert(30_000, 8, 11)
        .expect("valid generator parameters");
    println!(
        "social graph: {} vertices, {} edges",
        graph.num_vertices(),
        graph.num_edges()
    );
    let workers = 16;
    let source = 0;

    println!(
        "\n{:<18} {:>10} {:>12} {:>10} {:>12} {:>10} {:>10}",
        "strategy", "cut edges", "replication", "balance", "messages", "comm (MB)", "time (s)"
    );
    // (cut edges, bytes shipped) per strategy, in the order below.
    let mut rows = Vec::new();
    for strategy in [
        BuiltinStrategy::MetisLike,
        BuiltinStrategy::Ldg,
        BuiltinStrategy::Fennel,
        BuiltinStrategy::Hash,
    ] {
        let assignment = strategy.partition(&graph, workers);
        let quality = grape::partition::evaluate_partition(&graph, &assignment);
        let result = GrapeEngine::new(SsspProgram)
            .run_on_graph(&SsspQuery::new(source), &graph, &assignment)
            .expect("run succeeds");
        println!(
            "{:<18} {:>10} {:>12.3} {:>10.3} {:>12} {:>10.2} {:>10.3}",
            strategy.name(),
            quality.cut_edges,
            quality.replication_factor,
            quality.balance,
            result.stats.messages,
            result.stats.megabytes(),
            result.stats.wall_time.as_secs_f64()
        );
        rows.push((quality.cut_edges, result.stats.bytes));
    }
    // The §3(3) claim, on deterministic counters rather than time: the
    // METIS-like partition cuts fewer edges than hashing (350,492 against
    // 450,282 here), and GRAPE ships fewer bytes over it (5.79 against
    // 7.28 MB). METIS-like ran first and hash last.
    let (metis_cut, metis_bytes) = rows[0];
    let (hash_cut, hash_bytes) = rows[rows.len() - 1];
    assert!(
        metis_cut < hash_cut,
        "metis-like cut {metis_cut} should be below hash cut {hash_cut}"
    );
    assert!(
        metis_bytes < hash_bytes,
        "metis-like bytes {metis_bytes} should be below hash bytes {hash_bytes}"
    );
    println!("\nAs in the demo, the better the partition (fewer cut edges), the fewer");
    println!("bytes GRAPE ships.");
}
