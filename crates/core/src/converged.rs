//! Cross-run incremental evaluation: converged-state capture and warm seeds.
//!
//! A query service that keeps fragments resident can answer a repeated query
//! after a mutation batch *from the old fixpoint* instead of from scratch:
//!
//! 1. A converged run captures every fragment's final partial as bytes
//!    ([`ConvergedState`], via [`crate::EngineConfig::capture_converged`]).
//! 2. Each mutation batch records its dirty set and profile in a
//!    [`DeltaLog`]; [`DeltaLog::since`] merges everything applied since the
//!    cached state was captured.
//! 3. [`crate::GrapeEngine::run_incremental`] wraps the program in a
//!    [`Seeded`] adapter whose PEval restores the old partial and
//!    re-evaluates only from the dirty vertices
//!    ([`crate::PieProgram::seed_partial`]); the BSP fixpoint then proceeds
//!    unchanged and — for profiles the program declares eligible — lands on
//!    a state bit-identical to a cold run on the mutated graph.

use crate::context::PieContext;
use crate::program::PieProgram;
use grape_graph::delta::MutationProfile;
use grape_graph::VertexId;
use grape_partition::Fragment;
use std::collections::BTreeSet;
use std::sync::Arc;

/// The converged dense state of one finished run: every fragment's final
/// partial, serialized with [`PieProgram::snapshot_partial`], plus the
/// graph version the run observed. A service caches one per
/// `(graph, query)` pair and seeds later runs from it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConvergedState {
    /// The [`DeltaLog::version`] of the graph the run converged on.
    pub version: u64,
    /// Per-fragment snapshot bytes, indexed by fragment id — shared, so a
    /// warm plan hands them to a run without copying them.
    pub partials: Arc<[Arc<Vec<u8>>]>,
}

/// An append-only log of applied mutation batches: per batch, the dirty
/// vertex set and the [`MutationProfile`]. The log's length is the graph
/// *version*; [`DeltaLog::since`] folds every batch applied after a given
/// version into one merged dirty set + profile, which is exactly what a
/// warm run seeded from a version-`v` [`ConvergedState`] must re-evaluate.
#[derive(Debug, Default, Clone)]
pub struct DeltaLog {
    entries: Vec<(Vec<VertexId>, MutationProfile)>,
}

impl DeltaLog {
    /// An empty log at version 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current graph version (number of recorded batches).
    pub fn version(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Records one applied batch and returns the new version.
    pub fn record(&mut self, dirty: Vec<VertexId>, profile: MutationProfile) -> u64 {
        self.entries.push((dirty, profile));
        self.version()
    }

    /// Merges every batch recorded after `version`: the union of their dirty
    /// sets (sorted, deduplicated) and the merged profile. Returns `None` if
    /// `version` is ahead of the log (a stale cache from another graph).
    /// `since(current_version)` returns an empty dirty set — a no-op warm
    /// start.
    pub fn since(&self, version: u64) -> Option<(Vec<VertexId>, MutationProfile)> {
        if version > self.version() {
            return None;
        }
        let mut dirty = BTreeSet::new();
        let mut profile = MutationProfile::default();
        for (d, p) in &self.entries[version as usize..] {
            dirty.extend(d.iter().copied());
            profile.merge(p);
        }
        Some((dirty.into_iter().collect(), profile))
    }
}

/// Adapter that turns a cold program into a warm one: PEval first tries
/// [`PieProgram::seed_partial`] with the fragment's cached snapshot bytes,
/// falling back to the inner cold PEval when no seed exists (or the program
/// declines); every other method delegates unchanged. Built by
/// [`crate::GrapeEngine::run_incremental`].
#[derive(Debug, Clone)]
pub struct Seeded<P> {
    inner: Arc<P>,
    /// Per-fragment snapshot bytes, indexed by fragment id; `None` slots run
    /// the cold PEval.
    seeds: Vec<Option<Arc<Vec<u8>>>>,
    dirty: Vec<VertexId>,
    profile: MutationProfile,
}

impl<P> Seeded<P> {
    /// Wraps `inner` with per-fragment seeds and the merged dirty set +
    /// profile of the mutations applied since the seeds converged.
    pub fn new(
        inner: Arc<P>,
        seeds: Vec<Option<Arc<Vec<u8>>>>,
        dirty: Vec<VertexId>,
        profile: MutationProfile,
    ) -> Self {
        Self {
            inner,
            seeds,
            dirty,
            profile,
        }
    }
}

impl<P: PieProgram> PieProgram for Seeded<P> {
    type Query = P::Query;
    type VertexData = P::VertexData;
    type EdgeData = P::EdgeData;
    type Value = P::Value;
    type Partial = P::Partial;
    type Output = P::Output;

    fn peval(
        &self,
        query: &Self::Query,
        fragment: &Fragment<Self::VertexData, Self::EdgeData>,
        ctx: &mut PieContext<Self::Value>,
    ) -> Self::Partial {
        if let Some(Some(bytes)) = self.seeds.get(fragment.id) {
            if let Some(partial) =
                self.inner
                    .seed_partial(query, fragment, bytes, &self.dirty, &self.profile, ctx)
            {
                return partial;
            }
        }
        self.inner.peval(query, fragment, ctx)
    }

    fn inceval(
        &self,
        query: &Self::Query,
        fragment: &Fragment<Self::VertexData, Self::EdgeData>,
        partial: &mut Self::Partial,
        messages: &[(VertexId, Self::Value)],
        ctx: &mut PieContext<Self::Value>,
    ) {
        self.inner.inceval(query, fragment, partial, messages, ctx);
    }

    fn assemble(&self, partials: Vec<Self::Partial>) -> Self::Output {
        self.inner.assemble(partials)
    }

    fn aggregate(&self, a: &Self::Value, b: &Self::Value) -> Self::Value {
        self.inner.aggregate(a, b)
    }

    fn monotonic(&self, old: &Self::Value, new: &Self::Value) -> Option<bool> {
        self.inner.monotonic(old, new)
    }

    fn snapshot_partial(&self, partial: &Self::Partial) -> Option<Vec<u8>> {
        self.inner.snapshot_partial(partial)
    }

    fn restore_partial(&self, bytes: &[u8]) -> Option<Self::Partial> {
        self.inner.restore_partial(bytes)
    }

    fn incremental_eligible(&self, profile: &MutationProfile) -> bool {
        self.inner.incremental_eligible(profile)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_insert() -> MutationProfile {
        MutationProfile {
            edge_inserts: 1,
            ..Default::default()
        }
    }

    #[test]
    fn delta_log_versions_and_merges() {
        let mut log = DeltaLog::new();
        assert_eq!(log.version(), 0);
        assert_eq!(log.record(vec![1, 2], one_insert()), 1);
        assert_eq!(log.record(vec![2, 3], one_insert()), 2);

        let (dirty, profile) = log.since(0).unwrap();
        assert_eq!(dirty, vec![1, 2, 3]);
        assert_eq!(profile.edge_inserts, 2);
        assert!(profile.insert_only());

        let (dirty, _) = log.since(1).unwrap();
        assert_eq!(dirty, vec![2, 3]);

        let (dirty, profile) = log.since(2).unwrap();
        assert!(dirty.is_empty());
        assert!(profile.insert_only());

        assert!(log.since(3).is_none(), "future versions are stale caches");
    }

    #[test]
    fn converged_state_is_plain_data() {
        let s = ConvergedState {
            version: 3,
            partials: [vec![1, 2], vec![]].map(Arc::new).into(),
        };
        assert_eq!(s.clone(), s);
    }
}
