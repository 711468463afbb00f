//! Everything a run derives from `--seed`: the graph, the stratified SSSP
//! source positions and the mutation batches. The program under test sees
//! only these generated inputs, never the seed.

use grape_core::TransportKind;
use grape_graph::generators::{rmat, road_network, RmatConfig, RoadNetworkConfig, WeightedGraph};
use grape_graph::{GraphMutation, VertexId};
use grape_partition::BuiltinStrategy;

/// Fragments (and workers) of every workload — the house value of every
/// `BENCH_pr*.json`.
pub const K: usize = 4;
/// SSSP sources of a run, one per stratum of the vertex order.
pub const SOURCES: usize = 16;
/// Edge inserts per update batch.
pub const BATCH_EDGES: usize = 8;

/// SplitMix64: the harness's own generator, so inputs do not depend on the
/// repository's `rand` stand-in.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}

#[derive(Clone, Copy)]
pub enum GraphKind {
    /// `road_network` on a `side × side` grid.
    Road { side: usize },
    /// `rmat` with `2^scale` vertices and edge factor 8.
    Rmat { scale: u32 },
}

#[derive(Clone, Copy, PartialEq)]
pub enum Mode {
    /// `GrapeEngine::run` on prebuilt fragments, one client.
    OneShot,
    /// Resident in a `GrapeService` TCP daemon, closed loop of `clients`.
    Service { clients: usize, updates: bool },
}

/// One workload at one size preset.
#[derive(Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub graph: GraphKind,
    pub strategy: BuiltinStrategy,
    /// Transport of the one-shot engine (the service always uses framed TCP).
    pub transport: TransportKind,
    pub mode: Mode,
    /// Timed rounds per client at `--seconds` = `RUN_SECONDS`.
    pub rounds: usize,
}

/// The four workloads. `quick` is the size preset of the schema test:
/// the same code paths on graphs of a few hundred vertices.
pub fn workload(name: &str, quick: bool) -> Option<Workload> {
    let road = |side, quick_side| GraphKind::Road {
        side: if quick { quick_side } else { side },
    };
    let rounds = |full| if quick { 3 } else { full };
    Some(match name {
        "road_comm" => Workload {
            name: "road_comm",
            graph: road(256, 24),
            strategy: BuiltinStrategy::Hash,
            transport: TransportKind::Framed,
            mode: Mode::OneShot,
            rounds: rounds(16),
        },
        "rmat_compute" => Workload {
            name: "rmat_compute",
            graph: GraphKind::Rmat {
                scale: if quick { 9 } else { 18 },
            },
            strategy: BuiltinStrategy::Hash,
            transport: TransportKind::InProcess,
            mode: Mode::OneShot,
            rounds: rounds(32),
        },
        "svc_query" => Workload {
            name: "svc_query",
            graph: road(512, 32),
            strategy: BuiltinStrategy::MetisLike,
            transport: TransportKind::Framed,
            mode: Mode::Service {
                clients: 2,
                updates: false,
            },
            rounds: rounds(32),
        },
        "svc_update" => Workload {
            name: "svc_update",
            graph: road(512, 32),
            strategy: BuiltinStrategy::MetisLike,
            transport: TransportKind::Framed,
            mode: Mode::Service {
                clients: 1,
                updates: true,
            },
            rounds: rounds(16),
        },
        _ => return None,
    })
}

impl Workload {
    /// Whether a `Session::update` opens every round.
    pub fn updates(&self) -> bool {
        matches!(self.mode, Mode::Service { updates: true, .. })
    }

    pub fn generate(&self, graph_seed: u64) -> Result<WeightedGraph, String> {
        match self.graph {
            GraphKind::Road { side } => road_network(
                RoadNetworkConfig {
                    width: side,
                    height: side,
                    ..Default::default()
                },
                graph_seed,
            ),
            GraphKind::Rmat { scale } => rmat(
                RmatConfig {
                    scale,
                    edge_factor: 8,
                    ..Default::default()
                },
                graph_seed,
            ),
        }
        .map_err(|e| format!("generator: {e}"))
    }

    /// Width of a grid row, where the graph has rows.
    fn row_width(&self) -> Option<u64> {
        match self.graph {
            GraphKind::Road { side } => Some(side as u64),
            GraphKind::Rmat { .. } => None,
        }
    }

    /// Update batch `index` of a run: `BATCH_EDGES` insert-only `AddEdge`s
    /// between row-adjacent vertices (ids `v`, `v + 1`, both live, same grid
    /// row), weights 30..37 — above the generators' 1..10, so a new edge is a
    /// slow detour and SSSP/CC stay warm-eligible.
    pub fn batch(
        &self,
        vertices: &[VertexId],
        seed: u64,
        index: usize,
    ) -> Vec<GraphMutation<(), f64>> {
        let mut rng = Rng::new(seed, 1000 + index as u64);
        let width = self.row_width();
        let mut batch = Vec::with_capacity(BATCH_EDGES);
        let mut tries = 0;
        while batch.len() < BATCH_EDGES && tries < 10_000 && vertices.len() > 1 {
            tries += 1;
            let p = rng.below(vertices.len() - 1);
            let (src, dst) = (vertices[p], vertices[p + 1]);
            let same_row = width.is_none_or(|w| src / w == dst / w);
            if dst == src + 1 && same_row {
                batch.push(GraphMutation::AddEdge {
                    src,
                    dst,
                    data: 30.0 + batch.len() as f64,
                });
            }
        }
        batch
    }
}

/// Position in the vertex order at which the search for source `stratum`
/// starts: a seeded point inside the stratum, so every run draws the same mix
/// of corner, edge and centre (or hub and leaf) sources.
pub fn source_start(n: usize, seed: u64, stratum: usize) -> usize {
    let width = (n / SOURCES).max(1);
    let offset = Rng::new(seed, 100 + stratum as u64).below(width);
    (stratum * width + offset).min(n.saturating_sub(1))
}
