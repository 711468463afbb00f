//! The exchange layout of a fragment set: how a coordinator addresses the
//! update parameters its fragments share.
//!
//! Every distinct border vertex of the set gets one **slot**. The layout
//! holds, for each fragment, the slot of each of its border positions, and
//! for each slot, the fragments that have the vertex on their border
//! (`homes`) and the border position it has at each of them. Workers speak
//! border positions only; the coordinator turns a reported position into a
//! slot with one indexed load, and a routed slot into the receiver's
//! position with a few.
//!
//! The layout is a function of the fragments' border lists alone, so
//! [`ExchangeLayout::of`] builds it once per fragment set and keeps it beside
//! the first fragment's border tables: every later run over the same
//! fragments — the queries of a session, the query classes of a one-shot
//! caller — finds it there, an edges-only splice (which keeps the tables)
//! keeps it, and it is freed with those tables.

use crate::fragment::{Fragment, VertexTables};
use grape_graph::union_ranks;
use std::borrow::Borrow;
use std::fmt;
use std::sync::{Arc, Mutex, PoisonError, Weak};

/// The slot numbering of a fragment set and both of its translations.
/// Workers are addressed by their position in the fragment slice the layout
/// was built from, whatever `Fragment::id` says.
#[derive(Debug)]
pub struct ExchangeLayout {
    /// The border tables the layout was built from, in fragment order: the
    /// memo's key. A weak handle keeps its allocation (not its contents)
    /// alive, so no later table can take one of these addresses while the
    /// layout is kept.
    built_from: Vec<Weak<VertexTables>>,
    /// 64-bit words per slot in `homes`.
    words_per_slot: usize,
    /// Packed per-slot fragment bitmask: bit `f` of slot `s` set means
    /// fragment `f` has the vertex on its border.
    homes: Vec<u64>,
    /// `slots[f][pos]` is the slot of fragment `f`'s border position `pos`.
    slots: Vec<Vec<u32>>,
    /// Slot `s`'s entries of `positions` are `starts[s]..starts[s + 1]`.
    starts: Vec<u32>,
    /// The border position of each slot at each of its homes, in ascending
    /// fragment order — aligned with the set bits of the slot's `homes`.
    positions: Vec<u32>,
}

impl ExchangeLayout {
    /// The layout of `fragments`, built at most once per fragment set: it is
    /// kept beside the first fragment's border tables and handed out again
    /// while every fragment still holds the tables it was built from.
    pub fn of<V: Clone, E: Clone>(fragments: &[impl Borrow<Fragment<V, E>>]) -> Arc<Self> {
        let tables: Vec<&Arc<VertexTables>> = fragments
            .iter()
            .map(|fragment| fragment.borrow().tables())
            .collect();
        let Some(first) = tables.first() else {
            return Arc::new(Self::build(&tables));
        };
        let mut kept = first
            .layout
            .0
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(layout) = kept.as_ref().filter(|layout| layout.built_for(&tables)) {
            return Arc::clone(layout);
        }
        let layout = Arc::new(Self::build(&tables));
        *kept = Some(Arc::clone(&layout));
        layout
    }

    /// Whether this layout was built from exactly these tables.
    fn built_for(&self, tables: &[&Arc<VertexTables>]) -> bool {
        self.built_from.len() == tables.len()
            && self
                .built_from
                .iter()
                .zip(tables)
                .all(|(kept, table)| std::ptr::eq(kept.as_ptr(), Arc::as_ptr(table)))
    }

    /// The border lists are sorted, so [`union_ranks`] ranks the distinct
    /// vertices by id with a tree of two-list merges — O(total borders ·
    /// log k), no hashing; the ranks are then renumbered in the order a scan
    /// of fragment 0's borders, then fragment 1's, … first meets each vertex.
    fn build(tables: &[&Arc<VertexTables>]) -> Self {
        let borders: Vec<&[_]> = tables.iter().map(|t| &t.border[..]).collect();
        let (mut slots, num_slots) = union_ranks(&borders);
        let words_per_slot = tables.len().div_ceil(64).max(1);
        let mut homes = vec![0u64; num_slots * words_per_slot];
        let mut slot_of_rank = vec![u32::MAX; num_slots];
        let mut starts = vec![0u32; num_slots + 1];
        let mut next_slot = 0u32;
        for (f, local) in slots.iter_mut().enumerate() {
            for slot in local {
                let assigned = &mut slot_of_rank[*slot as usize];
                if *assigned == u32::MAX {
                    *assigned = next_slot;
                    next_slot += 1;
                }
                *slot = *assigned;
                homes[*slot as usize * words_per_slot + f / 64] |= 1u64 << (f % 64);
                starts[*slot as usize + 1] += 1;
            }
        }
        for s in 0..num_slots {
            starts[s + 1] += starts[s];
        }
        // Fragments in ascending order, so each slot's positions line up
        // with the set bits of its homes.
        let mut next = starts.clone();
        let mut positions = vec![0u32; starts[num_slots] as usize];
        for local in &slots {
            for (&slot, pos) in local.iter().zip(0u32..) {
                positions[next[slot as usize] as usize] = pos;
                next[slot as usize] += 1;
            }
        }
        Self {
            built_from: tables.iter().map(|t| Arc::downgrade(t)).collect(),
            words_per_slot,
            homes,
            slots,
            starts,
            positions,
        }
    }

    /// Number of slots: the distinct border vertices of the set.
    pub fn num_slots(&self) -> usize {
        self.starts.len() - 1
    }

    /// 64-bit words per slot in [`ExchangeLayout::homes`].
    pub fn words_per_slot(&self) -> usize {
        self.words_per_slot
    }

    /// The slot of each of fragment `fragment`'s border positions, aligned
    /// with its `Fragment::border_vertices()`.
    pub fn border_slots(&self, fragment: usize) -> &[u32] {
        &self.slots[fragment]
    }

    /// The fragments that have `slot`'s vertex on their border, as
    /// [`ExchangeLayout::words_per_slot`] words: bit `f` of word `f / 64`.
    #[inline]
    pub fn homes(&self, slot: u32) -> &[u64] {
        let base = slot as usize * self.words_per_slot;
        &self.homes[base..base + self.words_per_slot]
    }

    /// Rewrites the `(position, value)` pairs fragment `fragment` reported
    /// into `(slot, value)` pairs, in order, one indexed load each. A pair
    /// whose position is past the fragment's border (a corrupt frame) is
    /// dropped.
    pub fn to_slots<V>(&self, fragment: usize, pairs: &mut Vec<(u32, V)>) {
        let column = &self.slots[fragment][..];
        pairs.retain_mut(|(at, _)| match column.get(*at as usize) {
            Some(&slot) => {
                *at = slot;
                true
            }
            None => false,
        });
    }

    /// Rewrites `(slot, value)` pairs bound for fragment `fragment`, one of
    /// each slot's homes, into `(position, value)` pairs: the vertex's
    /// position in that fragment's border. A slot's positions line up with
    /// the set bits of its homes, so the entry is the number of homes below
    /// `fragment`.
    pub fn to_positions<V>(&self, fragment: usize, pairs: &mut [(u32, V)]) {
        let (homes, starts, positions) = (&self.homes[..], &self.starts[..], &self.positions[..]);
        let words = self.words_per_slot;
        let (word, below) = (fragment / 64, (1u64 << (fragment % 64)) - 1);
        for (at, _) in pairs {
            let slot = *at as usize;
            debug_assert_eq!(homes[slot * words + word] >> (fragment % 64) & 1, 1);
            let earlier: u32 = homes[slot * words..slot * words + word]
                .iter()
                .map(|w| w.count_ones())
                .sum();
            let rank = earlier + (homes[slot * words + word] & below).count_ones();
            *at = positions[(starts[slot] + rank) as usize];
        }
    }
}

/// Where a fragment's border tables keep the layout of the last fragment set
/// they led. A memo, not part of the tables' value: it compares equal always.
#[derive(Default)]
pub(crate) struct LayoutMemo(Mutex<Option<Arc<ExchangeLayout>>>);

impl PartialEq for LayoutMemo {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl fmt::Debug for LayoutMemo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("LayoutMemo")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_fragments, HashPartitioner, Partitioner};
    use grape_graph::generators::barabasi_albert;

    #[test]
    fn positions_and_slots_translate_both_ways() {
        let g = barabasi_albert(300, 3, 9).unwrap();
        let fragments = build_fragments(&g, &HashPartitioner.partition(&g, 5));
        let layout = ExchangeLayout::of(&fragments);
        let mut entries = 0;
        for (f, fragment) in fragments.iter().enumerate() {
            let border = fragment.border_vertices().len() as u32;
            // Every position, then one past the border: dropped.
            let mut pairs: Vec<(u32, ())> = (0..=border).map(|pos| (pos, ())).collect();
            layout.to_slots(f, &mut pairs);
            assert_eq!(pairs.len(), border as usize);
            for (&(slot, ()), &column) in pairs.iter().zip(layout.border_slots(f)) {
                assert_eq!(slot, column);
                assert_ne!(layout.homes(slot)[f / 64] & 1 << (f % 64), 0);
            }
            layout.to_positions(f, &mut pairs);
            assert!(pairs.iter().zip(0u32..).all(|(&(at, ()), pos)| at == pos));
            entries += pairs.len();
        }
        let homes: u32 = (0..layout.num_slots() as u32)
            .map(|slot| layout.homes(slot)[0].count_ones())
            .sum();
        assert_eq!(homes as usize, entries);
    }

    #[test]
    fn a_layout_is_kept_for_its_set_and_rebuilt_for_another() {
        let g = barabasi_albert(200, 3, 4).unwrap();
        let fragments = build_fragments(&g, &HashPartitioner.partition(&g, 4));
        let first = ExchangeLayout::of(&fragments);
        assert!(Arc::ptr_eq(&first, &ExchangeLayout::of(&fragments)));
        // A clone shares its tables, so it is the same set.
        let cloned = fragments.clone();
        assert!(Arc::ptr_eq(&first, &ExchangeLayout::of(&cloned)));
        // Another set led by the same fragment replaces the memo.
        let fewer = ExchangeLayout::of(&fragments[..3]);
        assert!(!Arc::ptr_eq(&first, &fewer));
        assert_eq!(
            fewer.border_slots(0).len(),
            fragments[0].border_vertices().len()
        );
        assert!(Arc::ptr_eq(&fewer, &ExchangeLayout::of(&fragments[..3])));
        // Freed with the tables: only the caller's handle is left.
        let weak = Arc::downgrade(&fewer);
        drop((fragments, cloned, fewer, first));
        assert!(weak.upgrade().is_none());
    }
}
