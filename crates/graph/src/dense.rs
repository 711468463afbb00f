//! Flat per-vertex state keyed by dense CSR indices.
//!
//! [`CsrGraph`] maps arbitrary global [`VertexId`]s to dense
//! indices `0..n`. Algorithms that keep per-vertex state in a
//! `HashMap<VertexId, T>` pay a hash + probe on every edge relaxation; the
//! types in this module replace that with a single indexed load:
//!
//! * [`VertexDenseMap<T>`] — a `Vec<T>` keyed by dense index, with a
//!   [`VertexId`] view for the points where global ids are needed (assembling
//!   results, shipping border values).
//! * [`DenseBitset`] — a packed membership bitset over dense indices, used
//!   for inner/outer tests in fragments and visited sets in traversals.

use crate::csr::CsrGraph;
use crate::types::VertexId;
use grape_comm::wire::{Wire, WireError, WireReader};
use grape_comm::MessageSize;
use std::borrow::Cow;
use std::ops::Range;

/// A dense per-vertex value table: `map[dense_index] = value`.
///
/// Construct it sized to a graph with [`VertexDenseMap::for_graph`] (or
/// [`VertexDenseMap::new`] when only the count is at hand), index it with the
/// `u32` dense indices produced by
/// [`CsrGraph::dense_index`](crate::CsrGraph::dense_index) /
/// [`CsrGraph::out_neighbors_dense`](crate::CsrGraph::out_neighbors_dense),
/// and convert back to global ids at the edges of the hot path with
/// [`VertexDenseMap::iter_with`].
#[derive(Debug, Clone, PartialEq)]
pub struct VertexDenseMap<T> {
    values: Vec<T>,
}

impl<T> VertexDenseMap<T> {
    /// A map of `n` slots, all set to `init`.
    pub fn new(n: usize, init: T) -> Self
    where
        T: Clone,
    {
        Self {
            values: vec![init; n],
        }
    }

    /// A map with one slot per vertex of `graph`, all set to `init`.
    pub fn for_graph<V, E>(graph: &CsrGraph<V, E>, init: T) -> Self
    where
        T: Clone,
        V: Clone,
        E: Clone,
    {
        Self::new(graph.num_vertices(), init)
    }

    /// A map of `n` slots where slot `i` holds `f(i)`.
    pub fn from_fn(n: usize, mut f: impl FnMut(u32) -> T) -> Self {
        Self {
            values: (0..n).map(|i| f(i as u32)).collect(),
        }
    }

    /// Wraps an existing dense vector (must be aligned with the graph's
    /// dense indices).
    pub fn from_vec(values: Vec<T>) -> Self {
        Self { values }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the map has no slots.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value at dense index `i`.
    #[inline]
    pub fn get(&self, i: u32) -> &T {
        &self.values[i as usize]
    }

    /// Mutable access to the value at dense index `i`.
    #[inline]
    pub fn get_mut(&mut self, i: u32) -> &mut T {
        &mut self.values[i as usize]
    }

    /// Sets the value at dense index `i`.
    #[inline]
    pub fn set(&mut self, i: u32, value: T) {
        self.values[i as usize] = value;
    }

    /// The backing slice, aligned with dense indices.
    pub fn as_slice(&self) -> &[T] {
        &self.values
    }

    /// The backing slice, mutable.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.values
    }

    /// Consumes the map, returning the backing vector.
    pub fn into_vec(self) -> Vec<T> {
        self.values
    }

    /// Resets every slot to `value`.
    pub fn fill(&mut self, value: T)
    where
        T: Clone,
    {
        self.values.fill(value);
    }

    /// Iterates as `(dense_index, &value)`.
    pub fn iter_dense(&self) -> impl Iterator<Item = (u32, &T)> + '_ {
        self.values.iter().enumerate().map(|(i, v)| (i as u32, v))
    }

    /// The global-id view: iterates as `(VertexId, &value)` using `graph` to
    /// translate dense indices back to global ids. The graph must be the one
    /// the map was sized for.
    pub fn iter_with<'a, V, E>(
        &'a self,
        graph: &'a CsrGraph<V, E>,
    ) -> impl Iterator<Item = (VertexId, &'a T)> + 'a
    where
        V: Clone,
        E: Clone,
    {
        debug_assert_eq!(self.values.len(), graph.num_vertices());
        self.values
            .iter()
            .enumerate()
            .map(move |(i, v)| (graph.vertex_of(i as u32), v))
    }
}

impl<T> Default for VertexDenseMap<T> {
    /// An empty map (no slots); resize by constructing a fresh map for the
    /// graph at hand.
    fn default() -> Self {
        Self { values: Vec::new() }
    }
}

impl<T> std::ops::Index<u32> for VertexDenseMap<T> {
    type Output = T;
    #[inline]
    fn index(&self, i: u32) -> &T {
        &self.values[i as usize]
    }
}

impl<T> std::ops::IndexMut<u32> for VertexDenseMap<T> {
    #[inline]
    fn index_mut(&mut self, i: u32) -> &mut T {
        &mut self.values[i as usize]
    }
}

/// Whether `ids` is strictly ascending — the invariant of every id list the
/// dense layer hands out ([`CsrGraph::vertex_ids`], a fragment's border and
/// inner lists) and the precondition of [`merge_walk`]. One linear pass; what
/// a decoder checks before it trusts a peer's list.
pub fn strictly_ascending(ids: &[VertexId]) -> bool {
    ids.windows(2).all(|w| w[0] < w[1])
}

/// Walks two strictly ascending id lists in step: calls `visit(id, i, j)`
/// once per distinct id of their union, in ascending order, with the id's
/// position in `a` and in `b` (`None` where that list lacks it). O(|a| + |b|)
/// sequential reads, no hashing — the building block of every pass that
/// relates two dense index spaces: [`merge_join`] for the ids both lists
/// hold, [`union_ranks`] for the sorted union of many.
pub fn merge_walk(
    a: &[VertexId],
    b: &[VertexId],
    mut visit: impl FnMut(VertexId, Option<usize>, Option<usize>),
) {
    debug_assert!(strictly_ascending(a) && strictly_ascending(b));
    let (mut i, mut j) = (0, 0);
    loop {
        match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) if x == y => {
                visit(x, Some(i), Some(j));
                i += 1;
                j += 1;
            }
            (Some(&x), y) if y.is_none_or(|&y| x < y) => {
                visit(x, Some(i), None);
                i += 1;
            }
            (_, Some(&y)) => {
                visit(y, None, Some(j));
                j += 1;
            }
            _ => return,
        }
    }
}

/// Merge-join of two strictly ascending id lists: calls `on_match(i, j)` for
/// every pair of positions with `a[i] == b[j]`, in ascending id order — how
/// state keyed by one dense index space is carried into another (a converged
/// partial onto a mutated fragment, whose indices may have shifted).
pub fn merge_join(a: &[VertexId], b: &[VertexId], mut on_match: impl FnMut(usize, usize)) {
    merge_walk(a, b, |_, i, j| {
        if let (Some(i), Some(j)) = (i, j) {
            on_match(i, j);
        }
    });
}

/// Ranks every entry of `lists` — each strictly ascending — in the sorted
/// union of them all: `ranks[l][pos]` is how many distinct ids, over all the
/// lists, are smaller than `lists[l][pos]`. Also returns the size of the
/// union. A perfect hash of the ids the lists share, without hashing: a
/// balanced tree of two-list merges ([`merge_walk`]), O(total entries ·
/// log k) sequential reads and writes.
pub fn union_ranks(lists: &[&[VertexId]]) -> (Vec<Vec<u32>>, usize) {
    // `ranks[l]` holds list `l`'s ranks in the tree node that covers it; a
    // leaf is the list itself.
    let mut ranks: Vec<Vec<u32>> = lists
        .iter()
        .map(|list| (0..list.len() as u32).collect())
        .collect();
    let mut level: Vec<(Cow<'_, [VertexId]>, Range<usize>)> = lists
        .iter()
        .enumerate()
        .map(|(l, &list)| (Cow::Borrowed(list), l..l + 1))
        .collect();
    while level.len() > 1 {
        let mut nodes = level.into_iter();
        level = Vec::with_capacity(nodes.len().div_ceil(2));
        while let Some((left, covers)) = nodes.next() {
            let Some((right, right_covers)) = nodes.next() else {
                level.push((left, covers));
                break;
            };
            let mut union = Vec::with_capacity(left.len() + right.len());
            let mut up_left = Vec::with_capacity(left.len());
            let mut up_right = Vec::with_capacity(right.len());
            merge_walk(&left, &right, |id, i, j| {
                let rank = union.len() as u32;
                union.push(id);
                if i.is_some() {
                    up_left.push(rank);
                }
                if j.is_some() {
                    up_right.push(rank);
                }
            });
            for (covered, up) in [
                (covers.clone(), &up_left),
                (right_covers.clone(), &up_right),
            ] {
                for rank in ranks[covered].iter_mut().flatten() {
                    *rank = up[*rank as usize];
                }
            }
            level.push((Cow::Owned(union), covers.start..right_covers.end));
        }
    }
    let distinct = level.pop().map_or(0, |(root, _)| root.len());
    (ranks, distinct)
}

/// A packed bitset over dense vertex indices.
///
/// One bit per vertex; used for constant-time inner/outer membership tests
/// in fragments and for visited sets in traversals, replacing
/// `HashSet<VertexId>` probes on hot paths.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DenseBitset {
    words: Vec<u64>,
    len: usize,
}

impl DenseBitset {
    /// An all-zero bitset over `n` indices.
    pub fn new(n: usize) -> Self {
        Self {
            words: vec![0u64; n.div_ceil(64)],
            len: n,
        }
    }

    /// Number of indices covered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the bitset covers no indices.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sets bit `i`. Must be in range (`i < len`); out-of-range indices
    /// would otherwise land silently in the last word's slack bits.
    #[inline]
    pub fn set(&mut self, i: u32) {
        debug_assert!((i as usize) < self.len, "DenseBitset::set out of range");
        self.words[i as usize / 64] |= 1u64 << (i % 64);
    }

    /// Clears bit `i`. Must be in range (`i < len`).
    #[inline]
    pub fn clear(&mut self, i: u32) {
        debug_assert!((i as usize) < self.len, "DenseBitset::clear out of range");
        self.words[i as usize / 64] &= !(1u64 << (i % 64));
    }

    /// Whether bit `i` is set. Out-of-range indices read as unset.
    #[inline]
    pub fn contains(&self, i: u32) -> bool {
        (i as usize) < self.len && self.words[i as usize / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Clears every bit.
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Iterates over the set indices in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = u32> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            let mut w = word;
            std::iter::from_fn(move || {
                if w == 0 {
                    return None;
                }
                let bit = w.trailing_zeros();
                w &= w - 1;
                Some(wi as u32 * 64 + bit)
            })
        })
    }
}

impl MessageSize for DenseBitset {
    fn size_bytes(&self) -> usize {
        4 + std::mem::size_of_val(&self.words[..])
    }
}

/// Wire layout: the covered length (`u32`), then the packed words — their
/// count follows from the length. Decoding refuses a bit set past the length,
/// so `count_ones` and `iter_ones` of a decoded set stay inside it.
impl Wire for DenseBitset {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len as u32).encode(out);
        u64::encode_slice(&self.words, out);
    }

    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = reader.u32()? as usize;
        let words = u64::decode_many(reader, len.div_ceil(64))?;
        let slack = (words.len() * 64 - len) as u32;
        if words
            .last()
            .is_some_and(|last| last.leading_zeros() < slack)
        {
            return Err(WireError::Malformed("bitset has a bit set past its length"));
        }
        Ok(Self { words, len })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::EdgeRecord;

    fn graph() -> CsrGraph<(), f64> {
        // Non-contiguous ids to exercise the dense mapping.
        let vs = vec![(10, ()), (20, ()), (30, ())];
        let es = vec![EdgeRecord::new(10, 20, 1.0), EdgeRecord::new(20, 30, 2.0)];
        CsrGraph::from_records(vs, es, true).unwrap()
    }

    #[test]
    fn dense_map_round_trips_through_graph() {
        let g = graph();
        let mut m = VertexDenseMap::for_graph(&g, 0.0f64);
        assert_eq!(m.len(), 3);
        let i20 = g.dense_index(20).unwrap();
        m[i20] = 7.5;
        assert_eq!(m[i20], 7.5);
        let by_id: Vec<(VertexId, f64)> = m.iter_with(&g).map(|(v, x)| (v, *x)).collect();
        assert_eq!(by_id, vec![(10, 0.0), (20, 7.5), (30, 0.0)]);
    }

    #[test]
    fn dense_map_constructors_and_accessors() {
        let mut m = VertexDenseMap::from_fn(4, |i| i * 2);
        assert_eq!(m.as_slice(), &[0, 2, 4, 6]);
        m.set(1, 9);
        assert_eq!(*m.get(1), 9);
        *m.get_mut(0) = 1;
        m.fill(5);
        assert!(m.as_slice().iter().all(|&x| x == 5));
        assert_eq!(m.iter_dense().count(), 4);
        assert!(!m.is_empty());
        let v = m.into_vec();
        assert_eq!(VertexDenseMap::from_vec(v).len(), 4);
        assert!(VertexDenseMap::<u8>::new(0, 0).is_empty());
    }

    #[test]
    fn merge_walk_visits_the_union_once_and_merge_join_the_intersection() {
        let a = [2u64, 3, 7, 9, 40];
        let b = [1u64, 3, 8, 9, 10, 11];
        assert!(strictly_ascending(&a) && strictly_ascending(&b));
        assert!(!strictly_ascending(&[1, 1]) && !strictly_ascending(&[2, 1]));
        assert!(strictly_ascending(&[]) && strictly_ascending(&[5]));
        let mut walked = Vec::new();
        merge_walk(&a, &b, |id, i, j| walked.push((id, i, j)));
        let ids: Vec<VertexId> = walked.iter().map(|&(id, ..)| id).collect();
        assert_eq!(ids, [1, 2, 3, 7, 8, 9, 10, 11, 40]);
        for &(id, i, j) in &walked {
            assert_eq!(i, a.iter().position(|&x| x == id));
            assert_eq!(j, b.iter().position(|&x| x == id));
        }
        let mut joined = Vec::new();
        merge_join(&a, &b, |i, j| joined.push((i, j)));
        assert_eq!(joined, [(1, 1), (3, 3)]);
        // Empty sides: nothing to join, the other side walked alone.
        merge_join(&a, &[], |_, _| panic!("nothing matches an empty list"));
        let mut alone = 0;
        merge_walk(&[], &b, |_, i, j| {
            assert!(i.is_none() && j == Some(alone));
            alone += 1;
        });
        assert_eq!(alone, b.len());
    }

    #[test]
    fn union_ranks_rank_every_entry_in_the_sorted_union() {
        let lists: [&[VertexId]; 5] = [&[3, 9, 20], &[], &[1, 3, 20, 40], &[9], &[2, 3, 41]];
        for k in 0..=lists.len() {
            let (ranks, distinct) = union_ranks(&lists[..k]);
            let mut union: Vec<VertexId> = lists[..k].concat();
            union.sort_unstable();
            union.dedup();
            assert_eq!(distinct, union.len(), "k={k}");
            assert_eq!(ranks.len(), k);
            for (list, ranks) in lists.iter().zip(&ranks) {
                let expected: Vec<u32> = list
                    .iter()
                    .map(|id| union.binary_search(id).unwrap() as u32)
                    .collect();
                assert_eq!(ranks, &expected, "k={k}");
            }
        }
    }

    #[test]
    fn bitset_wire_round_trip_and_refusals() {
        for n in [0usize, 1, 63, 64, 65, 130] {
            let mut b = DenseBitset::new(n);
            for i in (0..n as u32).step_by(3) {
                b.set(i);
            }
            let mut bytes = Vec::new();
            b.encode(&mut bytes);
            assert_eq!(bytes.len(), 4 + n.div_ceil(64) * 8);
            let mut reader = WireReader::new(&bytes);
            assert_eq!(DenseBitset::decode(&mut reader).unwrap(), b);
            reader.finish().unwrap();
            if n > 0 {
                let mut reader = WireReader::new(&bytes[..bytes.len() - 1]);
                assert!(
                    DenseBitset::decode(&mut reader).is_err(),
                    "truncated, n={n}"
                );
            }
        }
        // A bit past the length, and a length the buffer cannot hold.
        let mut slack = Vec::new();
        3u32.encode(&mut slack);
        0b1000u64.encode(&mut slack);
        assert!(DenseBitset::decode(&mut WireReader::new(&slack)).is_err());
        let mut huge = Vec::new();
        u32::MAX.encode(&mut huge);
        assert!(DenseBitset::decode(&mut WireReader::new(&huge)).is_err());
    }

    #[test]
    fn bitset_set_clear_contains() {
        let mut b = DenseBitset::new(130);
        assert_eq!(b.len(), 130);
        assert!(!b.is_empty());
        b.set(0);
        b.set(64);
        b.set(129);
        assert!(b.contains(0) && b.contains(64) && b.contains(129));
        assert!(!b.contains(1));
        assert!(!b.contains(1000), "out of range reads as unset");
        assert!(
            !b.contains(135),
            "slack bits of the last word read as unset"
        );
        assert_eq!(b.count_ones(), 3);
        b.clear(64);
        assert!(!b.contains(64));
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![0, 129]);
        b.clear_all();
        assert_eq!(b.count_ones(), 0);
        assert!(DenseBitset::new(0).is_empty());
    }
}
