//! Communication accounting.
//!
//! Every send through the [`crate::CommNetwork`] (and every logical message
//! the baseline engines ship) is recorded here. The counters reproduce the
//! two communication columns the paper reports: total message count (the
//! LiveJournal partition experiment reports 7.5 M vs 40 M messages) and
//! total volume in MB (Table 1 reports 0.05 MB for GRAPE vs 10^5 MB for the
//! vertex-centric systems).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Per-superstep communication snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SuperstepStats {
    /// Superstep index (0 = PEval round in the PIE engine).
    pub superstep: usize,
    /// Messages sent during the superstep.
    pub messages: u64,
    /// Bytes sent during the superstep.
    pub bytes: u64,
}

/// Thread-safe communication counters shared by all workers of a job.
#[derive(Debug, Default)]
pub struct CommStats {
    messages: AtomicU64,
    bytes: AtomicU64,
    history: Mutex<Vec<SuperstepStats>>,
}

impl CommStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `messages` logical messages totalling `bytes` bytes.
    pub fn record(&self, messages: u64, bytes: u64) {
        self.messages.fetch_add(messages, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Total messages recorded so far.
    pub fn messages(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// Total bytes recorded so far.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Total volume in megabytes (10^6 bytes, as the paper reports MB).
    pub fn megabytes(&self) -> f64 {
        self.bytes() as f64 / 1_000_000.0
    }

    /// Closes the current superstep: records a history entry containing the
    /// traffic since the previous snapshot and returns it.
    pub fn end_superstep(&self, superstep: usize) -> SuperstepStats {
        let mut history = self.history.lock().unwrap();
        let (prev_m, prev_b) = history
            .iter()
            .fold((0u64, 0u64), |(m, b), s| (m + s.messages, b + s.bytes));
        let entry = SuperstepStats {
            superstep,
            messages: self.messages().saturating_sub(prev_m),
            bytes: self.bytes().saturating_sub(prev_b),
        };
        history.push(entry);
        entry
    }

    /// The per-superstep history recorded by [`CommStats::end_superstep`].
    pub fn history(&self) -> Vec<SuperstepStats> {
        self.history.lock().unwrap().clone()
    }

    /// Resets all counters and the history.
    pub fn reset(&self) {
        self.messages.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
        self.history.lock().unwrap().clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn record_accumulates() {
        let s = CommStats::new();
        s.record(3, 24);
        s.record(2, 16);
        assert_eq!(s.messages(), 5);
        assert_eq!(s.bytes(), 40);
        assert!((s.megabytes() - 40e-6).abs() < 1e-12);
    }

    #[test]
    fn superstep_history_tracks_deltas() {
        let s = CommStats::new();
        s.record(10, 100);
        let first = s.end_superstep(0);
        assert_eq!(first.messages, 10);
        assert_eq!(first.bytes, 100);
        s.record(5, 50);
        let second = s.end_superstep(1);
        assert_eq!(second.messages, 5);
        assert_eq!(second.bytes, 50);
        let h = s.history();
        assert_eq!(h.len(), 2);
        assert_eq!(h[0].superstep, 0);
        assert_eq!(h[1].superstep, 1);
    }

    #[test]
    fn reset_clears_everything() {
        let s = CommStats::new();
        s.record(1, 1);
        s.end_superstep(0);
        s.reset();
        assert_eq!(s.messages(), 0);
        assert_eq!(s.bytes(), 0);
        assert!(s.history().is_empty());
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let s = Arc::new(CommStats::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1_000 {
                    s.record(1, 8);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.messages(), 8_000);
        assert_eq!(s.bytes(), 64_000);
    }
}
