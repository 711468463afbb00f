//! Graph construction against pinned outputs and test-only references.
//!
//! * Every seeded generator's output is pinned by an order-sensitive digest
//!   of the ids, the vertex payloads, each source's targets and payloads in
//!   CSR order, and the reverse arrays (`in_offsets`, `in_sources`,
//!   `in_edge_pos`). A construction change that moves one edge, one payload
//!   bit or one reverse entry changes a digest.
//! * [`GraphBuilder::build`] equals a sort-based reference kept here: every
//!   id sorted and deduplicated, the last explicit payload winning.
//! * [`CsrGraph::from_records`] builds the same graph from shuffled records
//!   as from the same records stably presorted by source, and both match a
//!   per-vertex model of the out- and in-runs.

use grape_graph::generators::{
    barabasi_albert, bipartite_ratings, erdos_renyi, labeled_social, rmat, road_network,
    RmatConfig, RoadNetworkConfig, SocialGraphConfig,
};
use grape_graph::labels::LabeledVertex;
use grape_graph::types::EdgeRecord;
use grape_graph::{CsrGraph, GraphBuilder, VertexId};
use proptest::prelude::*;

/// FNV-1a over a stream of words: order-sensitive and stable across
/// processes and toolchains.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn bytes(&mut self, b: &[u8]) {
        self.word(b.len() as u64);
        for chunk in b.chunks(8) {
            let mut w = [0u8; 8];
            w[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(w));
        }
    }
}

/// A payload's contribution to a digest.
trait Payload {
    fn digest(&self, d: &mut Digest);
}

impl Payload for () {
    fn digest(&self, _: &mut Digest) {}
}

impl Payload for f64 {
    fn digest(&self, d: &mut Digest) {
        d.word(self.to_bits());
    }
}

impl Payload for String {
    fn digest(&self, d: &mut Digest) {
        d.bytes(self.as_bytes());
    }
}

impl Payload for LabeledVertex {
    fn digest(&self, d: &mut Digest) {
        d.bytes(self.label.0.as_bytes());
        d.word(self.keywords.len() as u64);
        for k in &self.keywords {
            d.bytes(k.as_bytes());
        }
    }
}

/// The digest of every array a graph exposes, in dense order. An in-edge's
/// `in_edge_pos` is read back as the position of its payload within the
/// source's out-run, so parallel edges with equal payloads are told apart.
fn graph_digest<V: Payload + Clone, E: Payload + Clone>(g: &CsrGraph<V, E>) -> u64 {
    let mut d = Digest::new();
    d.word(g.num_vertices() as u64);
    d.word(g.num_edges() as u64);
    d.word(u64::from(g.has_reverse()));
    let n = g.num_vertices() as u32;
    for u in 0..n {
        d.word(g.vertex_id(u));
        g.vertex_data_at(u).digest(&mut d);
    }
    for u in 0..n {
        d.word(g.out_degree_dense(u) as u64);
        for (t, w) in g.out_edges_dense(u) {
            d.word(u64::from(t));
            w.digest(&mut d);
        }
    }
    for u in 0..n {
        d.word(g.in_neighbors_dense(u).len() as u64);
        for (s, w) in g.in_edges_dense(u) {
            let run = g.out_edge_data_dense(s);
            let at = run.iter().position(|x| std::ptr::eq(x, w));
            let at = at.expect("an in-edge's payload lies in its source's out-run");
            d.word(u64::from(s));
            d.word(at as u64);
        }
    }
    d.0
}

fn rmat_digest(scale: u32, seed: u64) -> u64 {
    let config = RmatConfig {
        scale,
        edge_factor: 8,
        ..Default::default()
    };
    graph_digest(&rmat(config, seed).expect("rmat"))
}

#[test]
fn generator_digests_are_pinned() {
    let road = RoadNetworkConfig {
        width: 48,
        height: 40,
        ..Default::default()
    };
    let ratings = bipartite_ratings(120, 40, 12, 4, 5).expect("ratings");
    let social = SocialGraphConfig {
        num_persons: 400,
        num_products: 12,
        ..Default::default()
    };
    let ba = barabasi_albert(3_000, 4, 13).expect("ba");
    let er = erdos_renyi(300, 0.03, 11).expect("er");
    let cases = [
        (
            "rmat 2^10 seed 1",
            rmat_digest(10, 1),
            0x456a_f451_0ef8_ad6f,
        ),
        (
            "rmat 2^10 seed 2",
            rmat_digest(10, 2),
            0xc160_10be_8c1a_255e,
        ),
        (
            "rmat 2^14 seed 1",
            rmat_digest(14, 1),
            0x769f_377c_84c4_52df,
        ),
        (
            "rmat 2^14 seed 2",
            rmat_digest(14, 2),
            0xe4fe_83c4_348b_5fcf,
        ),
        (
            "road_network 48x40",
            graph_digest(&road_network(road, 7).expect("road")),
            0xb22b_91ad_4090_8fab,
        ),
        ("barabasi_albert", graph_digest(&ba), 0xaa17_5abc_36df_91a9),
        ("erdos_renyi", graph_digest(&er), 0x960a_8685_2a79_3f18),
        (
            "labeled_social",
            graph_digest(&labeled_social(social, 23).expect("social")),
            0x954c_2758_9265_3d92,
        ),
        (
            "bipartite_ratings",
            graph_digest(&ratings.graph),
            0xc89a_57f1_f0b4_9074,
        ),
    ];
    for (name, got, pinned) in cases {
        assert_eq!(
            got, pinned,
            "{name}: digest {got:#018x}, pinned {pinned:#018x}"
        );
    }
}

/// One builder call.
#[derive(Debug, Clone)]
enum Op {
    Ensure(usize),
    Payload(usize, u8),
    Edge(usize, usize, u16),
}

/// An id pool of one shape the id index tells apart: dense from 0, dense
/// ending at `u64::MAX`, sparse ending at `u64::MAX`, or mixed.
fn arb_pool() -> impl Strategy<Value = Vec<VertexId>> {
    (0u8..4, 1usize..24).prop_map(|(kind, len)| {
        let len = len as u64;
        match kind {
            0 => (0..len).collect(),
            1 => (0..len).map(|i| u64::MAX - i).collect(),
            2 => (0..len).map(|i| u64::MAX - i * (1 << 40)).collect(),
            _ => (0..len)
                .map(|i| if i % 2 == 0 { i } else { u64::MAX - i })
                .collect(),
        }
    })
}

fn arb_ops(pool_len: usize) -> impl Strategy<Value = Vec<Op>> {
    let op =
        (0u8..3, 0..pool_len, 0..pool_len, 0u16..u16::MAX).prop_map(|(kind, a, b, w)| match kind {
            0 => Op::Ensure(a),
            1 => Op::Payload(a, w as u8),
            _ => Op::Edge(a, b, w),
        });
    proptest::collection::vec(op, 0..60)
}

/// The builder as it stood: every id ensured, given a payload or touching an
/// edge, sorted and deduplicated; the last payload per id wins.
fn reference_build(
    pool: &[VertexId],
    ops: &[Op],
    symmetric: bool,
    with_reverse: bool,
) -> CsrGraph<u8, u16> {
    let mut ids = Vec::new();
    let mut payloads: Vec<(VertexId, u8)> = Vec::new();
    let mut edges = Vec::new();
    for op in ops {
        match *op {
            Op::Ensure(v) => ids.push(pool[v]),
            Op::Payload(v, p) => payloads.push((pool[v], p)),
            Op::Edge(s, d, w) => {
                edges.push(EdgeRecord::new(pool[s], pool[d], w));
                if symmetric && s != d {
                    edges.push(EdgeRecord::new(pool[d], pool[s], w));
                }
            }
        }
    }
    ids.extend(payloads.iter().map(|&(v, _)| v));
    ids.extend(edges.iter().flat_map(|e: &EdgeRecord<u16>| [e.src, e.dst]));
    ids.sort_unstable();
    ids.dedup();
    let vertices = ids
        .iter()
        .map(|&v| {
            let last = payloads.iter().rev().find(|&&(p, _)| p == v);
            (v, last.map_or(0, |&(_, p)| p))
        })
        .collect();
    CsrGraph::from_records(vertices, edges, with_reverse).expect("reference graph")
}

fn bools() -> impl Strategy<Value = bool> {
    (0u8..2).prop_map(|b| b == 1)
}

/// Records over `ids` (positions drawn mod its length) and the vertex
/// records, each vertex's payload its position.
fn records(ids: &[VertexId], draws: &[(usize, usize, u16)]) -> Vec<EdgeRecord<u16>> {
    let at = |i: usize| ids[i % ids.len()];
    draws
        .iter()
        .map(|&(s, d, w)| EdgeRecord::new(at(s), at(d), w))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn builder_equals_the_sort_based_reference(
        drawn in arb_pool().prop_flat_map(|pool| {
            let len = pool.len();
            (Just(pool), arb_ops(len))
        }),
        symmetric in bools(),
        with_reverse in bools(),
    ) {
        let (pool, ops) = drawn;
        let mut builder = GraphBuilder::<u8, u16>::new()
            .symmetric(symmetric)
            .with_reverse(with_reverse);
        for op in &ops {
            match *op {
                Op::Ensure(v) => {
                    builder.ensure_vertex(pool[v]);
                }
                Op::Payload(v, p) => {
                    builder.add_vertex(pool[v], p);
                }
                Op::Edge(s, d, w) => {
                    builder.add_edge(pool[s], pool[d], w);
                }
            }
        }
        let reference = reference_build(&pool, &ops, symmetric, with_reverse);
        prop_assert_eq!(builder.num_vertices(), reference.num_vertices());
        let built = builder.build().expect("build");
        prop_assert!(built == reference, "{:?}\nvs\n{:?}", built, reference);
    }

    #[test]
    fn from_records_is_equal_on_shuffled_and_presorted_records(
        pool in arb_pool(),
        draws in proptest::collection::vec((0usize..64, 0usize..64, 0u16..u16::MAX), 0..80),
        keys in proptest::collection::vec(0u64..u64::MAX, 80..81),
        with_reverse in bools(),
    ) {
        let vertices: Vec<(VertexId, u8)> = pool.iter().zip(0u8..).map(|(&v, i)| (v, i)).collect();
        let shuffled: Vec<EdgeRecord<u16>> = {
            let mut keyed: Vec<(u64, EdgeRecord<u16>)> =
                keys.iter().copied().zip(records(&pool, &draws)).collect();
            keyed.sort_by_key(|&(k, _)| k);
            keyed.into_iter().map(|(_, e)| e).collect()
        };
        let mut presorted = shuffled.clone();
        presorted.sort_by_key(|e| e.src);
        let from_shuffled = CsrGraph::from_records(vertices.clone(), shuffled.clone(), with_reverse)
            .expect("shuffled");
        let from_presorted = CsrGraph::from_records(vertices, presorted, with_reverse)
            .expect("presorted");
        prop_assert!(from_shuffled == from_presorted);

        // Each vertex's out-run is its records in record order; its in-run
        // is the records into it, by source id and then record order.
        for &v in &pool {
            let out: Vec<(VertexId, u16)> =
                from_shuffled.out_edges(v).map(|(d, &w)| (d, w)).collect();
            let want: Vec<(VertexId, u16)> =
                shuffled.iter().filter(|e| e.src == v).map(|e| (e.dst, e.data)).collect();
            prop_assert_eq!(out, want);
            if with_reverse {
                let ins: Vec<(VertexId, u16)> =
                    from_shuffled.in_edges(v).map(|(s, &w)| (s, w)).collect();
                let mut want: Vec<(VertexId, u16)> =
                    shuffled.iter().filter(|e| e.dst == v).map(|e| (e.src, e.data)).collect();
                want.sort_by_key(|&(s, _)| s);
                prop_assert_eq!(ins, want);
            }
        }
    }
}
