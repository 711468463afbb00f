//! Run statistics.
//!
//! The demo's Analytics panel (Section 3(4)) visualizes "the communication
//! and computational costs for computing Q(G)" with "a fine-grained analysis
//! … of partial evaluation (PEval) and incremental steps (IncEval)". This
//! module is that report: per-superstep traces plus job totals, filled in by
//! the engine and printed by the benchmark harness.

use std::time::Duration;

/// Trace of a single superstep.
#[derive(Debug, Clone, PartialEq)]
pub struct SuperstepTrace {
    /// Superstep index; 0 is the PEval round.
    pub superstep: usize,
    /// Number of workers that evaluated during this superstep.
    pub active_workers: usize,
    /// Longest per-worker evaluation time (the BSP critical path).
    pub max_eval_seconds: f64,
    /// Sum of per-worker evaluation times (total compute).
    pub total_eval_seconds: f64,
    /// Changed update parameters reported by all workers.
    pub changed_parameters: usize,
    /// Distinct border slots whose folded value was touched this superstep.
    pub changed_slots: usize,
    /// `(slot, value)` updates actually shipped to workers at the end of
    /// this superstep. With dirty-border tracking this is bounded by the
    /// changed slots times their interested fragments — never a full-border
    /// republication.
    pub published_updates: usize,
    /// Messages shipped (worker → coordinator and coordinator → worker).
    pub messages: u64,
    /// Bytes shipped.
    pub bytes: u64,
}

/// Statistics of one query — a [`crate::GrapeEngine::run`] invocation, or
/// one submitted query of a resident service session (which runs many of
/// these over the same fragments, one per query).
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Name of the PIE program that ran.
    pub program: String,
    /// The query's run id ([`crate::EngineConfig::run_id`]): the base wire
    /// epoch its stream frames carried, letting service sessions match
    /// per-query stats to submitted queries. `0` for one-shot runs.
    pub run_id: u32,
    /// Number of fragments / workers.
    pub num_workers: usize,
    /// Number of supersteps executed (PEval counts as one).
    pub supersteps: usize,
    /// Wall-clock duration of the whole query, including assemble.
    pub wall_time: Duration,
    /// Wall-clock seconds spent in PEval (critical path: the slowest worker
    /// per superstep under threaded execution, the summed worker time when
    /// the engine drives the workers inline on one hardware thread).
    pub peval_seconds: f64,
    /// Wall-clock seconds spent in IncEval supersteps (critical path, see
    /// [`RunStats::peval_seconds`]).
    pub inceval_seconds: f64,
    /// Coordinator seconds finding the fragment set's exchange layout — the
    /// border slot numbering, built the first time a set runs and kept with
    /// its fragments ([`grape_partition::ExchangeLayout::of`]) — before the
    /// first `Init` goes out.
    pub slot_build_seconds: f64,
    /// Coordinator seconds folding gathered reports, summed over supersteps.
    pub fold_seconds: f64,
    /// Coordinator seconds queueing the folds (sends excluded), likewise.
    pub route_seconds: f64,
    /// Coordinator seconds blocked gathering worker reports, likewise:
    /// waiting for them, and decoding them on a framed transport. Under
    /// inline execution the gather runs the workers, so it holds their
    /// evaluation as well.
    pub gather_seconds: f64,
    /// Coordinator seconds in the IncEval send loop, likewise: building each
    /// command, encoding it on a framed transport, handing it over.
    pub send_seconds: f64,
    /// Seconds Assemble took to combine the partials — or, through daemons,
    /// to decode the workers' answers and combine them — into the answer; `0`
    /// from the entry points that stop before it
    /// ([`crate::GrapeEngine::run_partials`], `run_coordinator`).
    pub assemble_seconds: f64,
    /// Seconds a query through daemons spent handing each worker its job:
    /// dialling (or taking the connection), encoding the `TAG_QUERY` frame,
    /// warm handle included, and sending it, summed over workers (a batch run
    /// ships the fragment in the same step). Reconnects after a worker loss
    /// count too; those run inside [`RunStats::wall_time`]. `0` when the
    /// workers are in-process.
    pub dispatch_seconds: f64,
    /// Seconds from the end of the BSP run until every worker's answer is in
    /// hand on a query through daemons: the wait for its `TAG_RESULT` frame.
    /// Decoding the answers is Assemble's ([`RunStats::assemble_seconds`]).
    /// `0` when the workers are in-process.
    pub collect_seconds: f64,
    /// Bytes of the query's `TAG_QUERY` frames sent plus its `TAG_RESULT`
    /// frames received, headers included: the per-query state that crosses
    /// the service boundary outside the supersteps. A warm job carries a
    /// handle, not a partial, and a result what Assemble reads. Not part of
    /// [`RunStats::bytes`]. `0` when the workers are in-process.
    pub boundary_bytes: u64,
    /// Fragments whose PEval started from a converged partial kept where
    /// their worker runs, instead of running cold: `0` on a cold run, the
    /// worker count when every fragment was warm.
    pub warm_fragments: usize,
    /// Total messages shipped through the coordinator.
    pub messages: u64,
    /// Total bytes shipped.
    pub bytes: u64,
    /// Number of update-parameter transitions that violated the program's
    /// declared partial order (only counted when monotonicity checking is
    /// enabled; should be zero for correct programs).
    pub monotonicity_violations: u64,
    /// Worker losses the coordinator recovered from (checkpoint restore +
    /// epoch bump + superstep replay). Zero for undisturbed runs.
    pub recoveries: usize,
    /// Per-superstep traces.
    pub history: Vec<SuperstepTrace>,
}

impl RunStats {
    /// Communication volume in megabytes (10^6 bytes, as the paper reports).
    pub fn megabytes(&self) -> f64 {
        self.bytes as f64 / 1_000_000.0
    }

    /// Critical-path compute time (PEval + IncEval supersteps).
    pub fn compute_seconds(&self) -> f64 {
        self.peval_seconds + self.inceval_seconds
    }

    /// Renders a compact single-line summary for logs and tables.
    pub fn summary(&self) -> String {
        format!(
            "{}: {} workers, {} supersteps, {:.3}s wall ({:.3}s peval + {:.3}s inceval), {} msgs, {:.3} MB",
            self.program,
            self.num_workers,
            self.supersteps,
            self.wall_time.as_secs_f64(),
            self.peval_seconds,
            self.inceval_seconds,
            self.messages,
            self.megabytes()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_quantities() {
        let stats = RunStats {
            program: "sssp".into(),
            run_id: 0,
            num_workers: 4,
            supersteps: 3,
            wall_time: Duration::from_millis(1500),
            peval_seconds: 0.6,
            inceval_seconds: 0.4,
            slot_build_seconds: 0.01,
            fold_seconds: 0.05,
            route_seconds: 0.03,
            gather_seconds: 0.2,
            send_seconds: 0.04,
            assemble_seconds: 0.02,
            dispatch_seconds: 0.0,
            collect_seconds: 0.0,
            boundary_bytes: 0,
            warm_fragments: 0,
            messages: 1000,
            bytes: 2_000_000,
            monotonicity_violations: 0,
            recoveries: 0,
            history: vec![],
        };
        assert!((stats.megabytes() - 2.0).abs() < 1e-9);
        assert!((stats.compute_seconds() - 1.0).abs() < 1e-9);
        let s = stats.summary();
        assert!(s.contains("sssp"));
        assert!(s.contains("4 workers"));
        assert!(s.contains("3 supersteps"));
    }

    #[test]
    fn default_is_zeroed() {
        let stats = RunStats::default();
        assert_eq!(stats.supersteps, 0);
        assert_eq!(stats.messages, 0);
        assert_eq!(stats.megabytes(), 0.0);
        assert!(stats.history.is_empty());
    }
}
