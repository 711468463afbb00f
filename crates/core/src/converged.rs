//! Cross-run incremental evaluation: converged-state capture and warm seeds.
//!
//! A query service that keeps fragments resident can answer a repeated query
//! after a mutation batch *from the old fixpoint* instead of from scratch:
//!
//! 1. A converged run leaves every fragment's final partial, serialized with
//!    [`crate::PieProgram::snapshot_partial`], where that fragment's worker
//!    runs: the daemon keeps it beside its resident fragment, stamped with
//!    the graph version the run converged at. The client keeps only that
//!    version.
//! 2. Each mutation batch records its dirty set and profile in a
//!    [`DeltaLog`]; [`DeltaLog::since`] merges everything applied since the
//!    cached state was captured.
//! 3. The next run of that query names the version it may start from in a
//!    [`WarmHandle`]; a worker holding a partial of exactly that version turns
//!    the two into an [`IncrementalSeed`]. A cold run is a warm run with no
//!    seed: a worker's PEval step restores the old partial and re-evaluates
//!    only from the dirty vertices ([`crate::PieProgram::seed_partial`]) when
//!    it holds a seed whose profile the program declares eligible, and runs
//!    the cold PEval otherwise; the BSP fixpoint then proceeds unchanged and
//!    lands on a state bit-identical to a cold run on the mutated graph.

use grape_comm::{Wire, WireError, WireReader};
use grape_graph::delta::MutationProfile;
use grape_graph::VertexId;
use std::collections::BTreeSet;
use std::sync::Arc;

/// An append-only log of applied mutation batches: per batch, the dirty
/// vertex set and the [`MutationProfile`]. The log's length is the graph
/// *version*; [`DeltaLog::since`] folds every batch applied after a given
/// version into one merged dirty set + profile, which is exactly what a
/// warm run seeded from partials that converged at version `v` must
/// re-evaluate.
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

/// Warm start for one fragment: its snapshot-encoded converged partial from
/// the previous run of the same query, and the merged dirty set + mutation
/// profile of every update applied since that run converged. Built where the
/// partial is kept ([`WarmHandle::seed`]) and handed to
/// [`crate::engine::run_worker`] or [`crate::GrapeEngine::run_incremental`].
#[derive(Debug, Clone, PartialEq)]
pub struct IncrementalSeed {
    /// Snapshot-encoded converged partial of the fragment, shared with the
    /// converged cache it came from rather than copied per query.
    pub snapshot: Arc<Vec<u8>>,
    /// Union of the dirty sets of the updates applied since the snapshot
    /// converged (global ids, sorted); one list shared by every fragment's
    /// seed.
    pub dirty: Arc<Vec<VertexId>>,
    /// Merged shape of those updates.
    pub profile: MutationProfile,
}

/// What a warm query ships to a worker instead of its converged partial: the
/// graph version the worker's kept partial must have converged at, and the
/// merged dirty set and profile of every update applied since
/// ([`DeltaLog::since`]). A worker holding a partial of exactly that version
/// seeds its PEval from it; any other worker runs cold.
#[derive(Debug, Clone, PartialEq)]
pub struct WarmHandle {
    /// The [`DeltaLog::version`] the kept partial converged at.
    pub version: u64,
    /// Union of the dirty sets of the updates applied since (global ids,
    /// sorted); one list shared by every fragment's handle.
    pub dirty: Arc<Vec<VertexId>>,
    /// Merged shape of those updates.
    pub profile: MutationProfile,
}

impl WarmHandle {
    /// The seed this handle makes of a kept `snapshot` that converged at
    /// [`WarmHandle::version`].
    pub fn seed(&self, snapshot: Arc<Vec<u8>>) -> IncrementalSeed {
        IncrementalSeed {
            snapshot,
            dirty: Arc::clone(&self.dirty),
            profile: self.profile,
        }
    }
}

impl Wire for WarmHandle {
    fn encode(&self, out: &mut Vec<u8>) {
        self.version.encode(out);
        self.dirty.encode(out);
        self.profile.encode(out);
    }

    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(WarmHandle {
            version: u64::decode(reader)?,
            dirty: Arc::new(Vec::decode(reader)?),
            profile: MutationProfile::decode(reader)?,
        })
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
}
