//! Reference answers, computed in set-up and independent of the partitioned
//! run: the sequential references of `grape-algo` and a cold run on one
//! fragment with one thread.
//!
//! * `sssp`, `cc`: bit-exact. Every answer's digest must equal the
//!   one-fragment run's, which itself must equal `sequential_sssp` (first
//!   source) and `sequential_cc`.
//! * `pagerank`: the quantised fixpoint depends on the cut (README, Known
//!   gaps), so an answer must lie within [`PAGERANK_L1_TOLERANCE`] of the
//!   one-fragment run in total variation *and* repeat bit for bit within a
//!   run: same fragments, same query, same bits.

use crate::exec::{Executor, OneShot};
use crate::inputs::{source_start, SOURCES};
use crate::trace::Tracer;
use grape_algo::cc::sequential_cc;
use grape_algo::sssp::sequential_sssp;
use grape_algo::{Query, QueryResult};
use grape_graph::generators::WeightedGraph;
use grape_graph::VertexId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Largest accepted L1 distance between a PageRank answer and the
/// one-fragment reference (both sum to 1). Measured: 2e-2 on road-256 under a
/// hash cut, 1e-14 on the other graphs.
pub const PAGERANK_L1_TOLERANCE: f64 = 0.05;

/// Candidates tried per stratum before it goes without a source.
const TRIES_PER_STRATUM: usize = 32;

fn fnv(words: [u64; 2]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        for byte in word.to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Order-independent digest, exact on every bit of every entry. The oracle's
/// own rather than `QueryResult::digest`: it must not share code with the
/// answers it checks, and it is called on every timed answer (no allocation
/// per entry).
pub fn digest(result: &QueryResult) -> u64 {
    match result {
        QueryResult::Distances(map) | QueryResult::Ranks(map) => map
            .iter()
            .fold(0, |acc, (&v, x)| acc ^ fnv([v, x.to_bits()])),
        QueryResult::Components(map) => map.iter().fold(0, |acc, (&v, &c)| acc ^ fnv([v, c])),
        _ => 0,
    }
}

/// A rank vector indexed by vertex id; `NaN` where the graph has no vertex.
struct DenseRanks {
    ranks: Vec<f64>,
    len: usize,
}

impl DenseRanks {
    fn new(map: &HashMap<VertexId, f64>) -> DenseRanks {
        let size = map.keys().max().map_or(0, |&v| v as usize + 1);
        let mut ranks = vec![f64::NAN; size];
        for (&v, &r) in map {
            ranks[v as usize] = r;
        }
        DenseRanks {
            ranks,
            len: map.len(),
        }
    }

    /// L1 distance; infinite when the vertex sets differ.
    fn l1(&self, map: &HashMap<VertexId, f64>) -> f64 {
        if map.len() != self.len {
            return f64::INFINITY;
        }
        let sum: f64 = map
            .iter()
            .map(|(&v, r)| (r - self.ranks.get(v as usize).copied().unwrap_or(f64::NAN)).abs())
            .sum();
        if sum.is_nan() {
            f64::INFINITY
        } else {
            sum
        }
    }
}

pub struct Oracle {
    pub sources: Vec<VertexId>,
    sssp: HashMap<VertexId, u64>,
    cc: u64,
    pagerank: DenseRanks,
}

/// Digest of the first PageRank answer one executor gave; 0 until then.
pub type FirstRanks = AtomicU64;

/// Time the references took, by class (`sssp`, `cc`, `pagerank`).
#[derive(Default)]
pub struct OracleTimes {
    /// Cold one-fragment, one-thread engine runs: `core.<c>.k1_ms`.
    pub k1_ms: [Vec<f64>; 3],
    /// `sequential_sssp` / `sequential_cc`: `algo.<c>.sequential_ms`.
    /// PageRank's is measured by the traced probes only (seconds per call).
    pub sequential_ms: [f64; 2],
}

impl Oracle {
    /// Builds the references for `graph`. With `sources` absent, draws one
    /// source per stratum of the vertex order from `seed`, keeping the first
    /// candidate that reaches at least a quarter of the graph (an R-MAT graph
    /// is half sinks, from which SSSP is the empty query).
    pub fn build(
        graph: &WeightedGraph,
        seed: u64,
        sources: Option<&[VertexId]>,
        tracer: &mut Tracer,
    ) -> Result<(Oracle, OracleTimes), String> {
        let k1 = OneShot::single_fragment(graph, 1);
        let mut times = OracleTimes::default();
        let timed = |query: &Query, tracer: &mut Tracer| {
            let open = tracer.begin("core", "k1", 0);
            let answer = k1.exec(query);
            let elapsed = tracer.end(open);
            let (result, _) = answer.map_err(|e| format!("one-fragment reference run: {e}"))?;
            Ok::<_, String>((result, elapsed))
        };

        let vertices = graph.vertex_ids();
        let n = vertices.len();
        let mut sssp = HashMap::new();
        let mut chosen = Vec::new();
        let candidates: Vec<Vec<VertexId>> = match sources {
            Some(given) => given.iter().map(|&v| vec![v]).collect(),
            None => (0..SOURCES.min(n))
                .map(|stratum| {
                    let start = source_start(n, seed, stratum);
                    (0..TRIES_PER_STRATUM.min(n))
                        .map(|i| vertices[(start + i) % n])
                        .collect()
                })
                .collect(),
        };
        for stratum in candidates {
            for v in stratum {
                if sssp.contains_key(&v) {
                    continue;
                }
                let (result, elapsed) = timed(&Query::sssp(v), tracer)?;
                let reached = match &result {
                    QueryResult::Distances(map) => map.len(),
                    _ => 0,
                };
                if sources.is_some() || reached * 4 >= n {
                    times.k1_ms[0].push(elapsed);
                    sssp.insert(v, digest(&result));
                    chosen.push(v);
                    break;
                }
            }
        }
        let first = *chosen.first().ok_or("no usable SSSP source in the graph")?;

        let open = tracer.begin("algo", "sequential_sssp", 0);
        let reference = QueryResult::Distances(sequential_sssp(graph, first));
        times.sequential_ms[0] = tracer.end(open);
        if digest(&reference) != sssp[&first] {
            return Err(format!(
                "sequential_sssp and the one-fragment run disagree from source {first}"
            ));
        }

        let open = tracer.begin("algo", "sequential_cc", 0);
        let cc = digest(&QueryResult::Components(sequential_cc(graph)));
        times.sequential_ms[1] = tracer.end(open);
        let (result, elapsed) = timed(&Query::cc(), tracer)?;
        times.k1_ms[1].push(elapsed);
        if digest(&result) != cc {
            return Err("sequential_cc and the one-fragment run disagree".into());
        }

        let (result, elapsed) = timed(&Query::pagerank(), tracer)?;
        times.k1_ms[2].push(elapsed);
        let QueryResult::Ranks(ranks) = &result else {
            return Err("pagerank reference has the wrong type".into());
        };
        let total: f64 = ranks.values().sum();
        if (total - 1.0).abs() > 1e-6 {
            return Err(format!("pagerank reference sums to {total}, not 1"));
        }
        Ok((
            Oracle {
                sources: chosen,
                sssp,
                cc,
                pagerank: DenseRanks::new(ranks),
            },
            times,
        ))
    }

    /// Whether `result` is the right answer to `query`; `first` belongs to
    /// the executor that gave it.
    pub fn check(&self, query: &Query, result: &QueryResult, first: &FirstRanks) -> bool {
        match (query, result) {
            (Query::Sssp { source }, QueryResult::Distances(_)) => {
                self.sssp.get(source) == Some(&digest(result))
            }
            (Query::Cc, QueryResult::Components(_)) => digest(result) == self.cc,
            (Query::PageRank { .. }, QueryResult::Ranks(_)) => {
                let seen = digest(result).max(1);
                let first = first
                    .compare_exchange(0, seen, Ordering::SeqCst, Ordering::SeqCst)
                    .unwrap_or_else(|existing| existing);
                (first == 0 || first == seen) && self.check_ranks_only(result)
            }
            _ => false,
        }
    }

    /// The PageRank tolerance check alone, for answers that are not expected
    /// to repeat (one per graph version on `svc_update`).
    pub fn check_ranks_only(&self, result: &QueryResult) -> bool {
        match result {
            QueryResult::Ranks(map) => self.pagerank.l1(map) <= PAGERANK_L1_TOLERANCE,
            _ => false,
        }
    }
}
