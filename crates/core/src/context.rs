//! The per-worker context PIE programs write update parameters into.

use crate::par::ThreadPool;
use grape_graph::{DenseBitset, VertexId};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// The update-parameter table of one fragment.
///
/// PEval *declares* update parameters by calling [`PieContext::update`] for
/// border vertices; IncEval calls the same method whenever a border value
/// improves. The engine harvests the vertices whose value actually changed
/// after each call and turns them into messages; values persist across
/// supersteps so programs can consult the current value with
/// [`PieContext::get`].
///
/// Inside the engine the context is configured with the fragment's border
/// list ([`PieContext::configure_shared_borders`]). Border updates then live in flat
/// arrays indexed by the **border position** — the index into
/// `Fragment::border_vertices()`, the address space of
/// [`PieContext::update_at`], of the messages IncEval receives and of the
/// pairs [`PieContext::drain_dirty_into`] reports (only the coordinator
/// knows slots). Dirtiness is a [`DenseBitset`] plus an insertion-ordered
/// index list, so a drain is O(changed). Updates outside the
/// border (possible only in buggy or diagnostic programs) fall back to a
/// `HashMap` side table and are reported as *strays*. An unconfigured
/// context — the state of a standalone driver or test — treats every vertex
/// through that side table, preserving the original behavior.
///
/// **The echo rule.** A position is reported when its value differs from the
/// one this worker last published there — and never when it equals the value
/// the command being answered delivered for it ([`PieContext::absorb`]): the
/// coordinator already holds that value and would only route it back.
#[derive(Debug, Clone)]
pub struct PieContext<V> {
    /// Sorted global ids of the fragment's border vertices (empty until
    /// [`PieContext::configure_borders`]); the fragment's own list, shared.
    border_ids: Arc<Vec<VertexId>>,
    /// Current value of each border vertex (`None` = not declared yet),
    /// aligned with `border_ids`.
    border_values: Vec<Option<V>>,
    /// Which border positions changed since the last drain.
    border_dirty: DenseBitset,
    /// The dirty border positions in first-touch order, so draining is
    /// O(changed); the bitset deduplicates, and a cleared bit is skipped.
    dirty_list: Vec<u32>,
    /// Values of non-border vertices (strays) — the legacy path.
    values: HashMap<VertexId, V>,
    /// Dirty non-border vertices.
    dirty: HashSet<VertexId>,
    /// Cumulative number of `update` calls that changed a value (used by the
    /// boundedness experiment to measure |ΔO| on the border).
    changed_updates: u64,
    /// Cumulative number of `update` / `update_at` calls, changed or not:
    /// the publication work the boundedness experiment holds to |ΔO|.
    update_calls: u64,
    /// The worker's intra-fragment thread pool (inline/single-threaded by
    /// default); PIE programs hand it to the `grape_core::par` primitives.
    pool: Arc<ThreadPool>,
}

impl<V: Clone + PartialEq> Default for PieContext<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V: Clone + PartialEq> PieContext<V> {
    /// Creates an empty context.
    pub fn new() -> Self {
        Self {
            border_ids: Arc::default(),
            border_values: Vec::new(),
            border_dirty: DenseBitset::default(),
            dirty_list: Vec::new(),
            values: HashMap::new(),
            dirty: HashSet::new(),
            changed_updates: 0,
            update_calls: 0,
            pool: Arc::new(ThreadPool::inline()),
        }
    }

    /// Installs the worker's intra-fragment thread pool. Called by the engine
    /// before PEval; standalone drivers keep the default inline pool.
    pub fn set_pool(&mut self, pool: Arc<ThreadPool>) {
        self.pool = pool;
    }

    /// The worker's intra-fragment thread pool, for the `grape_core::par`
    /// primitives. Single-threaded (inline) unless the engine installed a
    /// larger one via `threads_per_worker`.
    pub fn pool(&self) -> &Arc<ThreadPool> {
        &self.pool
    }

    /// Installs the fragment's border list, whose positions address every
    /// border value from now on. `ids` must be sorted ascending — exactly
    /// what `Fragment::border_vertices()` provides. Copies the list; for
    /// standalone drivers and tests.
    pub fn configure_borders(&mut self, ids: &[VertexId]) {
        self.configure_shared_borders(Arc::new(ids.to_vec()));
    }

    /// [`PieContext::configure_borders`] with the list held, not copied.
    /// Called once per run by the engine before PEval, with
    /// `Fragment::shared_border_vertices()`.
    pub fn configure_shared_borders(&mut self, ids: Arc<Vec<VertexId>>) {
        debug_assert!(ids.windows(2).all(|w| w[0] < w[1]), "border ids sorted");
        self.border_values = vec![None; ids.len()];
        self.border_dirty = DenseBitset::new(ids.len());
        self.dirty_list.clear();
        self.border_ids = ids;
    }

    /// The border position of `vertex`, if it is a configured border vertex.
    #[inline]
    fn border_position(&self, vertex: VertexId) -> Option<u32> {
        self.border_ids
            .binary_search(&vertex)
            .ok()
            .map(|i| i as u32)
    }

    /// Sets the update parameter of `vertex` to `value`. The vertex is marked
    /// dirty (and the value shipped at the end of the superstep) only if the
    /// value differs from the stored one.
    ///
    /// `vertex` should be one of this fragment's border vertices — those are
    /// the update parameters of the PIE model, and the only values the
    /// coordinator can route. Updates to any other vertex are kept locally,
    /// reported as *strays* for the monotonicity diagnostic, and never
    /// delivered to another fragment.
    pub fn update(&mut self, vertex: VertexId, value: V) {
        if let Some(pos) = self.border_position(vertex) {
            return self.update_at(pos, value);
        }
        self.update_calls += 1;
        match self.values.get(&vertex) {
            Some(existing) if *existing == value => {}
            _ => {
                self.values.insert(vertex, value);
                self.dirty.insert(vertex);
                self.changed_updates += 1;
            }
        }
    }

    /// Sets the update parameter of the border vertex at position `pos` in
    /// the configured border list (the index into
    /// `Fragment::border_vertices()` / `border_dense_indices()`). A direct
    /// indexed compare-and-set — no search of any kind — so per-superstep
    /// border publication loops cost O(1) per vertex. Like
    /// [`PieContext::update`], the vertex is marked dirty only if the value
    /// differs from the stored one.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range of the configured border list (the
    /// engine always configures the context before PEval; standalone drivers
    /// must call [`PieContext::configure_borders`] first).
    #[inline]
    pub fn update_at(&mut self, pos: u32, value: V) {
        assert!(
            (pos as usize) < self.border_values.len(),
            "PieContext::update_at({pos}) outside the configured border list \
             ({} entries); standalone drivers must call configure_borders \
             with the fragment's border vertices before PEval",
            self.border_values.len()
        );
        self.update_calls += 1;
        let stored = &mut self.border_values[pos as usize];
        if stored.as_ref() != Some(&value) {
            *stored = Some(value);
            if !self.border_dirty.contains(pos) {
                self.border_dirty.set(pos);
                self.dirty_list.push(pos);
            }
            self.changed_updates += 1;
        }
    }

    /// Current value of the update parameter of `vertex`, if declared.
    pub fn get(&self, vertex: VertexId) -> Option<&V> {
        if let Some(pos) = self.border_position(vertex) {
            return self.border_values[pos as usize].as_ref();
        }
        self.values.get(&vertex)
    }

    /// Current value of the border vertex at position `pos` in the configured
    /// border list, if declared — the search-free sibling of
    /// [`PieContext::get`] for read-modify-write publication loops that
    /// already walk the border by position.
    ///
    /// # Panics
    ///
    /// Panics if `pos` is out of range of the configured border list, like
    /// [`PieContext::update_at`].
    #[inline]
    pub fn get_at(&self, pos: u32) -> Option<&V> {
        self.border_values[pos as usize].as_ref()
    }

    /// Number of declared update parameters.
    pub fn len(&self) -> usize {
        self.values.len() + self.border_values.iter().filter(|v| v.is_some()).count()
    }

    /// Whether no update parameter has been declared yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of `update` calls that actually changed a value so far.
    pub fn changed_updates(&self) -> u64 {
        self.changed_updates
    }

    /// Number of `update` / `update_at` calls so far, whether or not they
    /// changed a value: what publication cost, beside
    /// [`PieContext::changed_updates`], what it found. Kept on the worker;
    /// no frame carries it.
    pub fn update_calls(&self) -> u64 {
        self.update_calls
    }

    /// Drains the set of vertices whose value changed since the last call and
    /// returns them with their current values, sorted by vertex id. The
    /// global-id view used by standalone drivers and tests; the engine uses
    /// [`PieContext::drain_dirty_into`] instead.
    pub fn take_dirty(&mut self) -> Vec<(VertexId, V)> {
        let mut out: Vec<(VertexId, V)> = self
            .dirty
            .drain()
            .map(|v| {
                (
                    v,
                    self.values.get(&v).cloned().expect("dirty implies present"),
                )
            })
            .collect();
        for pos in self.dirty_list.drain(..) {
            if self.border_dirty.contains(pos) {
                self.border_dirty.clear(pos);
                let value = self.border_values[pos as usize]
                    .clone()
                    .expect("dirty implies present");
                out.push((self.border_ids[pos as usize], value));
            }
        }
        out.sort_unstable_by_key(|(v, _)| *v);
        out
    }

    /// Drains the changed border values as `(position, value)` pairs into
    /// `changes` and the changed non-border (stray) values into `strays`,
    /// reusing the callers' buffers. Border draining walks only the dirty
    /// positions — O(changed), not O(border). Called by the engine after
    /// each PEval / IncEval invocation.
    pub fn drain_dirty_into(
        &mut self,
        changes: &mut Vec<(u32, V)>,
        strays: &mut Vec<(VertexId, V)>,
    ) {
        for pos in self.dirty_list.drain(..) {
            if self.border_dirty.contains(pos) {
                self.border_dirty.clear(pos);
                let value = self.border_values[pos as usize]
                    .clone()
                    .expect("dirty implies present");
                changes.push((pos, value));
            }
        }
        if !self.dirty.is_empty() {
            for v in self.dirty.drain() {
                let value = self.values.get(&v).cloned().expect("dirty implies present");
                strays.push((v, value));
            }
            strays.sort_unstable_by_key(|(v, _)| *v);
        }
    }

    /// Snapshot of the configured border values, for checkpointing. The
    /// engine takes it right after a drain, so no dirtiness needs capturing:
    /// the values are exactly what the coordinator has already seen.
    pub fn snapshot_border_values(&self) -> Vec<Option<V>> {
        self.border_values.clone()
    }

    /// Restores border values from a [`PieContext::snapshot_border_values`]
    /// checkpoint, clearing all dirtiness. Must be called after
    /// [`PieContext::configure_borders`] with the same border list the
    /// snapshot was taken under.
    pub fn restore_border_values(&mut self, values: Vec<Option<V>>) {
        debug_assert_eq!(values.len(), self.border_ids.len());
        self.border_values = values;
        self.border_dirty = DenseBitset::new(self.border_ids.len());
        self.dirty_list.clear();
    }

    /// The echo rule, one delivered pair at a time: the command being
    /// answered delivered `value` for border position `pos`; if the position
    /// holds that value now — the program adopted it — it is not reported (a
    /// stale `dirty_list` entry may remain; the cleared bit makes the drain
    /// skip it). The engine calls this after IncEval, before the drain, with
    /// positions it has checked against the border list.
    #[inline]
    pub fn absorb(&mut self, pos: u32, value: &V) {
        if self.border_values[pos as usize].as_ref() == Some(value) {
            self.border_dirty.clear(pos);
        }
    }

    /// Iterates over all `(vertex, value)` pairs currently stored.
    pub fn iter(&self) -> impl Iterator<Item = (VertexId, &V)> + '_ {
        let borders = self
            .border_ids
            .iter()
            .zip(self.border_values.iter())
            .filter_map(|(&v, val)| val.as_ref().map(|val| (v, val)));
        self.values.iter().map(|(v, val)| (*v, val)).chain(borders)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn update_marks_dirty_only_on_change() {
        let mut ctx = PieContext::<u64>::new();
        ctx.update(1, 10);
        ctx.update(2, 20);
        ctx.update(1, 10); // no change
        assert_eq!(ctx.changed_updates(), 2);
        assert_eq!(ctx.update_calls(), 3);
        let dirty = ctx.take_dirty();
        assert_eq!(dirty, vec![(1, 10), (2, 20)]);
        assert!(ctx.take_dirty().is_empty(), "drained");
        ctx.update(1, 5);
        assert_eq!(ctx.take_dirty(), vec![(1, 5)]);
    }

    #[test]
    fn get_and_len() {
        let mut ctx = PieContext::<f64>::new();
        assert!(ctx.is_empty());
        ctx.update(7, 1.5);
        assert_eq!(ctx.get(7), Some(&1.5));
        assert_eq!(ctx.get(8), None);
        assert_eq!(ctx.len(), 1);
        assert!(!ctx.is_empty());
    }

    #[test]
    fn iter_sees_everything() {
        let mut ctx = PieContext::<u64>::new();
        ctx.update(1, 1);
        ctx.update(2, 2);
        assert_eq!(ctx.take_dirty(), vec![(1, 1), (2, 2)]);
        let mut all: Vec<(VertexId, u64)> = ctx.iter().map(|(v, x)| (v, *x)).collect();
        all.sort_unstable();
        assert_eq!(all, vec![(1, 1), (2, 2)]);
    }

    #[test]
    fn configured_borders_use_the_slot_path() {
        let mut ctx = PieContext::<u64>::new();
        // Border vertices 10, 20, 30 sit at positions 0, 1, 2.
        ctx.configure_borders(&[10, 20, 30]);
        ctx.update(20, 7);
        ctx.update(10, 1);
        ctx.update(20, 7); // unchanged: not re-dirtied
        assert_eq!(ctx.changed_updates(), 2);
        assert_eq!(ctx.update_calls(), 3, "every call counts");
        assert_eq!(ctx.get(20), Some(&7));
        assert_eq!(ctx.len(), 2);

        let mut changes = Vec::new();
        let mut strays = Vec::new();
        ctx.drain_dirty_into(&mut changes, &mut strays);
        // Position-addressed, in first-touch order; no strays.
        assert_eq!(changes, vec![(1, 7), (0, 1)]);
        assert!(strays.is_empty());

        // Drained: nothing left.
        changes.clear();
        ctx.drain_dirty_into(&mut changes, &mut strays);
        assert!(changes.is_empty() && strays.is_empty());
    }

    #[test]
    fn non_border_updates_become_strays() {
        let mut ctx = PieContext::<u64>::new();
        ctx.configure_borders(&[10]);
        ctx.update(10, 1);
        ctx.update(99, 2); // not a border vertex
        ctx.update(42, 3); // not a border vertex
        let mut changes = Vec::new();
        let mut strays = Vec::new();
        ctx.drain_dirty_into(&mut changes, &mut strays);
        assert_eq!(changes, vec![(0, 1)]);
        assert_eq!(strays, vec![(42, 3), (99, 2)], "strays sorted by vertex");
    }

    #[test]
    fn an_adopted_delivery_is_not_reported() {
        let mut ctx = PieContext::<u64>::new();
        ctx.configure_borders(&[10, 20, 30]);
        let mut changes = Vec::new();
        let mut strays = Vec::new();
        // The command delivered 3 for position 0 and 9 for position 1; the
        // program adopted the first and improved on the second.
        ctx.update_at(0, 3);
        ctx.update_at(1, 8);
        ctx.update_at(2, 4);
        ctx.absorb(0, &3);
        ctx.absorb(1, &9);
        ctx.drain_dirty_into(&mut changes, &mut strays);
        assert_eq!(changes, vec![(1, 8), (2, 4)], "the echo of (0, 3) is gone");
        // The adopted value is the position's value from now on: publishing
        // it again stays silent, a genuine change is reported.
        assert_eq!(ctx.get_at(0), Some(&3));
        changes.clear();
        ctx.update_at(0, 3);
        ctx.drain_dirty_into(&mut changes, &mut strays);
        assert!(changes.is_empty());
        ctx.update_at(0, 1);
        ctx.drain_dirty_into(&mut changes, &mut strays);
        assert_eq!(changes, vec![(0, 1)]);
    }

    #[test]
    fn absorb_compares_with_the_value_held_after_the_call() {
        let mut ctx = PieContext::<u64>::new();
        ctx.configure_borders(&[10, 20]);
        // Moving away from the delivered value and back is still an echo; a
        // delivery the program did not adopt leaves its own report alone.
        ctx.update_at(0, 5);
        ctx.update_at(0, 3);
        ctx.update_at(1, 7);
        ctx.absorb(0, &3);
        ctx.absorb(1, &9);
        let mut changes = Vec::new();
        let mut strays = Vec::new();
        ctx.drain_dirty_into(&mut changes, &mut strays);
        assert_eq!(changes, vec![(1, 7)]);
    }

    #[test]
    fn border_snapshot_roundtrips_without_dirtiness() {
        let mut ctx = PieContext::<u64>::new();
        ctx.configure_borders(&[10, 20, 30]);
        ctx.update(10, 5);
        ctx.update(30, 7);
        let mut changes = Vec::new();
        let mut strays = Vec::new();
        ctx.drain_dirty_into(&mut changes, &mut strays);
        let snapshot = ctx.snapshot_border_values();
        assert_eq!(snapshot, vec![Some(5), None, Some(7)]);

        // A fresh context restored from the snapshot sees the same values
        // but reports nothing (the coordinator already has them)...
        let mut restored = PieContext::<u64>::new();
        restored.configure_borders(&[10, 20, 30]);
        restored.restore_border_values(snapshot);
        assert_eq!(restored.get(10), Some(&5));
        assert_eq!(restored.get(30), Some(&7));
        changes.clear();
        restored.drain_dirty_into(&mut changes, &mut strays);
        assert!(changes.is_empty() && strays.is_empty());

        // ...and re-publishing an unchanged value stays suppressed, exactly
        // like on the original worker.
        restored.update(10, 5);
        restored.drain_dirty_into(&mut changes, &mut strays);
        assert!(changes.is_empty(), "unchanged republication suppressed");
        restored.update(10, 3);
        restored.drain_dirty_into(&mut changes, &mut strays);
        assert_eq!(changes, vec![(0, 3)]);
    }

    #[test]
    fn take_dirty_merges_border_and_stray_updates_sorted() {
        let mut ctx = PieContext::<u64>::new();
        ctx.configure_borders(&[20]);
        ctx.update(20, 2);
        ctx.update(5, 1); // stray
        assert_eq!(ctx.take_dirty(), vec![(5, 1), (20, 2)]);
    }
}
