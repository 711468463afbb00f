//! Query-service mode: one resident graph, a stream of concurrent queries.
//!
//! Serves the same workload through the unified `Session` facade twice —
//! an in-process session, which spawns a private daemon on a loopback port
//! of this process, and a session against a `GrapeService` daemon over
//! framed TCP (spawned in this process for the example's sake; `grape-worker
//! daemon --listen …` runs the same thing stand-alone). Both run the same
//! code, and both are checked bit-identical to one-shot engine runs of the
//! same queries, which involve no session at all.
//!
//! Run with: `cargo run --example query_service`

use grape::prelude::*;
use grape::{GrapeService, ServiceOptions};
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let workers = 4;
    let graph = grape::graph::generators::labeled_social(
        grape::graph::generators::SocialGraphConfig {
            num_persons: 400,
            num_products: 40,
            ..Default::default()
        },
        21,
    )
    .expect("generator");
    let queries = [
        Query::canonical_sim(),
        Query::canonical_keyword(),
        Query::marketing(400),
    ];

    // --- The reference: one-shot engine runs over the same cut. ---
    let assignment = BuiltinStrategy::Hash.partition(&graph, workers);
    let sim = queries[0].to_sim().expect("a sim query")?;
    let keyword = queries[1].to_keyword().expect("a keyword query");
    let marketing = queries[2].to_marketing().expect("a marketing query");
    let one_shot = vec![
        QueryResult::Matches(
            GrapeEngine::new(SimProgram)
                .run_on_graph(&sim, &graph, &assignment)?
                .output,
        ),
        QueryResult::Answers(
            GrapeEngine::new(KeywordProgram)
                .run_on_graph(&keyword, &graph, &assignment)?
                .output,
        ),
        QueryResult::Prospects(
            GrapeEngine::new(MarketingProgram)
                .run_on_graph(&marketing, &graph, &assignment)?
                .output,
        ),
    ];

    // --- In-process session: load once, submit a batch of mixed classes. ---
    let session = Session::connect(SessionConfig::in_process(workers))?;
    session.load(&SessionGraph::from(graph.clone()), BuiltinStrategy::Hash)?;
    let mut local_results = Vec::new();
    for handle in session.submit_batch(queries.to_vec())? {
        let outcome = handle.join()?;
        println!("[in-process] {}", outcome.stats.summary());
        local_results.push(outcome.result);
    }
    assert_eq!(
        local_results, one_shot,
        "in-process session results must be bit-identical to one-shot runs"
    );

    // One query at a time, submit to join: the latency a client sees.
    let mut latencies: Vec<f64> = (0..21)
        .map(|_| {
            let started = Instant::now();
            session.submit(queries[1].clone())?.join()?;
            Ok(started.elapsed().as_secs_f64() * 1e3)
        })
        .collect::<std::io::Result<_>>()?;
    latencies.sort_by(f64::total_cmp);
    println!(
        "[in-process] keyword query, submit to join: median {:.2} ms of {}",
        latencies[latencies.len() / 2],
        latencies.len()
    );

    // --- The same queries through a resident TCP daemon. ---
    let daemon = GrapeService::bind("127.0.0.1:0", ServiceOptions::default())?.spawn()?;
    let endpoint = daemon.endpoint().clone();
    println!("daemon listening on {endpoint}");

    let remote = Session::connect(SessionConfig::remote(workers, vec![endpoint]))?;
    remote.load(&SessionGraph::from(graph), BuiltinStrategy::Hash)?;

    // Different query classes in flight at once, multiplexed over the same
    // resident fragments.
    let handles = queries
        .map(|query| remote.submit(query))
        .into_iter()
        .collect::<std::io::Result<Vec<_>>>()?;
    let remote_results = handles
        .into_iter()
        .map(|handle| Ok(handle.join()?.result))
        .collect::<std::io::Result<Vec<_>>>()?;
    assert_eq!(
        remote_results, one_shot,
        "remote session results must be bit-identical to one-shot runs"
    );
    println!("verified: in-process and remote session results bit-identical to one-shot runs");

    drop(remote);
    daemon.shutdown()?;
    Ok(())
}
