//! Deterministic intra-worker parallel primitives.
//!
//! GRAPE parallelizes sequential algorithms *across* fragments; this module
//! parallelizes the hot loops *inside* one fragment without giving up the
//! engine's determinism contract. The design follows the frontier-primitive
//! shape of Ligra/GBBS (edgeMap/vertexMap over dense or sparse frontiers):
//!
//! * a small scoped [`ThreadPool`] built on `std::thread` + `std::sync::mpsc`
//!   only — no external dependencies;
//! * work is split into **fixed-size chunks** ([`CHUNK`] indices each, a
//!   constant independent of the thread count);
//! * each chunk writes into its own output slot, and the caller applies the
//!   slots **in chunk-index order**.
//!
//! Only the chunk→thread assignment varies between runs and thread counts,
//! and no observable state depends on it, so results are **bit-identical
//! across `threads_per_worker` ∈ {1, 2, 4, 8, …}** — the same guarantee the
//! Inline/Threads execution modes already pin across worker counts.
//!
//! A parallel kernel stays only while it beats one good thread; a loop that
//! loses runs its sequential algorithm at every pool size. The users left,
//! each with the measurement that keeps it (2-core box, two threads against
//! one):
//!
//! * pagerank's chunked pull sweep (`pagerank.rs`, `local_iterate`):
//!   `core.pagerank.k1_par_ms` 7.5 against `k1_ms` 10.2 on road-256, 18.5
//!   against 19.1 on road-512;
//! * sim's `refine_par`, Jacobi rounds over the refinement worklist: 2.2×
//!   on `labeled_social` with 200 k persons;
//! * keyword's `relax_keyword_par`, unit-weight frontier rounds, which are
//!   BFS levels: 1.25× on the same graph;
//! * cc's label rewrite in `inceval`, the sequential loop cut into chunks
//!   (not a second algorithm), so it cannot lose much: `core.cc.k1_par_ms`
//!   4.2 against `k1_ms` 4.6 on road-256, 23.5 against 22.0 on road-512.
//!
//! SSSP's chunked Bellman–Ford sweep (3.6–7.5× slower than Dijkstra on road
//! grids) and CC's concurrent union-find (1.8× slower on road grids) lost
//! and were deleted.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex};

/// Indices per chunk. A fixed constant — deliberately *not* derived from the
/// thread count — so the chunk boundaries (and therefore the order of every
/// reduction) are identical no matter how many threads execute them.
pub const CHUNK: usize = 1024;

/// How many threads each worker's pool should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ThreadCount {
    /// Divide the machine's cores evenly among the workers (at least 1).
    /// The `GRAPE_THREADS` environment variable, when set to a positive
    /// integer, overrides the core count detection — but only for `Auto`;
    /// an explicit [`ThreadCount::Fixed`] always wins, so tests that pin a
    /// thread count stay pinned under the CI thread matrix.
    #[default]
    Auto,
    /// Exactly this many threads per worker (clamped to at least 1).
    Fixed(u32),
}

impl ThreadCount {
    /// Resolves to a concrete thread count for one worker out of `workers`,
    /// where `inline` says the workers run serialized on the calling thread
    /// (and may therefore share the whole machine instead of splitting it).
    pub fn resolve(self, workers: usize, inline: bool) -> usize {
        match self {
            ThreadCount::Fixed(t) => (t as usize).max(1),
            ThreadCount::Auto => {
                if let Some(t) = std::env::var("GRAPE_THREADS")
                    .ok()
                    .and_then(|v| v.trim().parse::<usize>().ok())
                    .filter(|&t| t > 0)
                {
                    return t;
                }
                let cores = std::thread::available_parallelism()
                    .map(|c| c.get())
                    .unwrap_or(1);
                if inline {
                    cores
                } else {
                    (cores / workers.max(1)).max(1)
                }
            }
        }
    }
}

/// The wire and CLI spelling of a thread count: `0` is [`ThreadCount::Auto`],
/// anything else is that many threads.
impl From<u32> for ThreadCount {
    fn from(threads: u32) -> Self {
        match threads {
            0 => ThreadCount::Auto,
            t => ThreadCount::Fixed(t),
        }
    }
}

impl From<ThreadCount> for u32 {
    fn from(count: ThreadCount) -> Self {
        match count {
            ThreadCount::Auto => 0,
            ThreadCount::Fixed(t) => t,
        }
    }
}

/// One parallel invocation: a lifetime-erased task plus the claim/completion
/// bookkeeping shared between the caller and the pool's worker threads.
struct Job {
    /// The chunk body. Lifetime-erased raw pointer: [`ThreadPool::run`]
    /// guarantees every dereference happens before it returns (it waits for
    /// `done == chunks`, and each claimed chunk finishes its call before
    /// counting itself done), so the pointee outlives all uses.
    task: *const (dyn Fn(usize) + Sync),
    /// Next chunk index to claim.
    next: AtomicUsize,
    /// Total chunks; claims at or past this are no-ops.
    chunks: usize,
    /// Completed chunk count, guarded for the condvar handshake.
    done: Mutex<usize>,
    cv: Condvar,
    /// Set when any chunk panics; remaining chunks are skipped (but still
    /// counted) and the caller re-panics after the join.
    panicked: AtomicBool,
}

unsafe impl Send for Job {}
unsafe impl Sync for Job {}

impl Job {
    /// Claims and runs chunks until none remain. Called by pool workers and
    /// by the submitting thread itself (the caller participates).
    fn work(&self) {
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.chunks {
                return;
            }
            if !self.panicked.load(Ordering::Acquire) {
                let task = unsafe { &*self.task };
                if catch_unwind(AssertUnwindSafe(|| task(i))).is_err() {
                    self.panicked.store(true, Ordering::Release);
                }
            }
            let mut done = self.done.lock().unwrap();
            *done += 1;
            if *done == self.chunks {
                self.cv.notify_all();
            }
        }
    }
}

/// A persistent pool of `threads - 1` helper threads; the submitting thread
/// is the remaining participant. With one thread (or [`ThreadPool::inline`])
/// everything runs on the caller with no synchronization at all.
pub struct ThreadPool {
    senders: Vec<mpsc::Sender<Arc<Job>>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl ThreadPool {
    /// A pool that runs jobs on `threads` threads total (the caller plus
    /// `threads - 1` spawned helpers). `threads` is clamped to at least 1.
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let mut senders = Vec::with_capacity(threads - 1);
        let mut handles = Vec::with_capacity(threads - 1);
        for i in 1..threads {
            let (tx, rx) = mpsc::channel::<Arc<Job>>();
            senders.push(tx);
            handles.push(
                std::thread::Builder::new()
                    .name(format!("grape-par-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            job.work();
                        }
                    })
                    .expect("spawn pool thread"),
            );
        }
        Self {
            senders,
            handles,
            threads,
        }
    }

    /// A single-threaded pool: every job runs inline on the caller.
    pub fn inline() -> Self {
        Self::new(1)
    }

    /// The total thread count (callers use this to pick sequential fast
    /// paths when it is 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs `f(chunk_index)` for every index in `0..chunks`, distributing
    /// chunks across the pool. Returns once every chunk has completed.
    /// Panics (after all chunks have settled) if any chunk panicked.
    pub fn run(&self, chunks: usize, f: &(dyn Fn(usize) + Sync)) {
        if chunks == 0 {
            return;
        }
        if self.senders.is_empty() || chunks == 1 {
            for i in 0..chunks {
                f(i);
            }
            return;
        }
        let job = Arc::new(Job {
            // Erase the borrow's lifetime; see the field docs for why this
            // cannot dangle.
            task: unsafe {
                std::mem::transmute::<
                    *const (dyn Fn(usize) + Sync + '_),
                    *const (dyn Fn(usize) + Sync + 'static),
                >(f as *const _)
            },
            next: AtomicUsize::new(0),
            chunks,
            done: Mutex::new(0),
            cv: Condvar::new(),
            panicked: AtomicBool::new(false),
        });
        for sender in &self.senders {
            // A send can only fail if the worker thread died, which only
            // happens on pool drop; the remaining participants still finish
            // every chunk.
            let _ = sender.send(Arc::clone(&job));
        }
        job.work();
        let mut done = job.done.lock().unwrap();
        while *done < chunks {
            done = job.cv.wait(done).unwrap();
        }
        drop(done);
        if job.panicked.load(Ordering::Acquire) {
            panic!("a parallel chunk panicked");
        }
    }
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.senders.clear();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// A raw pointer that may cross threads. Used for disjoint per-chunk writes:
/// each chunk index is claimed exactly once, so the regions derived from it
/// never alias.
struct SendPtr<T>(*mut T);

impl<T> SendPtr<T> {
    /// Accessor rather than direct field use: closures must capture the
    /// whole wrapper (which is Send + Sync), not disjointly capture the raw
    /// pointer field (which is neither).
    fn get(self) -> *mut T {
        self.0
    }
}

unsafe impl<T> Send for SendPtr<T> {}
unsafe impl<T> Sync for SendPtr<T> {}

impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

/// The number of [`CHUNK`]-sized chunks covering `0..n`.
pub fn num_chunks(n: usize) -> usize {
    n.div_ceil(CHUNK)
}

/// Maps `0..n` in parallel, one output buffer per chunk.
///
/// `f(range, out)` fills `out` with whatever the chunk produces for the
/// index range; the returned `Vec` holds the buffers **in chunk order**, so
/// the caller's sequential drain over it is a fixed-order reduction —
/// independent of which thread ran which chunk. This is the sparse
/// `edge_map`/`vertex_map` workhorse: `n` is a frontier length and `range`
/// indexes into the frontier's index list.
pub fn map_chunks<R: Send>(
    pool: &ThreadPool,
    n: usize,
    f: impl Fn(std::ops::Range<usize>, &mut Vec<R>) + Sync,
) -> Vec<Vec<R>> {
    let chunks = num_chunks(n);
    let mut out: Vec<Vec<R>> = (0..chunks).map(|_| Vec::new()).collect();
    let slots = SendPtr(out.as_mut_ptr());
    // `move` so the closure captures the `SendPtr` wrapper (Copy) rather
    // than disjointly capturing the raw pointer field, which is not Sync.
    let body = move |ci: usize| {
        let start = ci * CHUNK;
        let end = (start + CHUNK).min(n);
        // Chunk `ci` is claimed exactly once, so this &mut is exclusive.
        let slot = unsafe { &mut *slots.get().add(ci) };
        f(start..end, slot);
    };
    pool.run(chunks, &body);
    out
}

/// Runs `f(start, slice)` over disjoint [`CHUNK`]-sized windows of `data` in
/// parallel — the dense `vertex_map`: each chunk owns its window exclusively
/// and may mutate it freely. `start` is the window's offset into `data`.
pub fn for_each_slice_chunk<T: Send>(
    pool: &ThreadPool,
    data: &mut [T],
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    let n = data.len();
    let base = SendPtr(data.as_mut_ptr());
    let body = move |ci: usize| {
        let start = ci * CHUNK;
        let end = (start + CHUNK).min(n);
        // Windows from distinct chunk indices are disjoint.
        let window = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
        f(start, window);
    };
    pool.run(num_chunks(n), &body);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_counts_round_trip_through_their_wire_spelling() {
        assert_eq!(ThreadCount::from(0), ThreadCount::Auto);
        assert_eq!(ThreadCount::from(3), ThreadCount::Fixed(3));
        for count in [
            ThreadCount::Auto,
            ThreadCount::Fixed(1),
            ThreadCount::Fixed(8),
        ] {
            assert_eq!(ThreadCount::from(u32::from(count)), count);
        }
    }

    #[test]
    fn map_chunks_is_bit_identical_across_pool_sizes() {
        let n = 10 * CHUNK + 37;
        let reference: Vec<u64> = {
            let pool = ThreadPool::inline();
            map_chunks(&pool, n, |range, out: &mut Vec<u64>| {
                for i in range {
                    out.push((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
                }
            })
            .into_iter()
            .flatten()
            .collect()
        };
        for threads in [2, 4, 8] {
            let pool = ThreadPool::new(threads);
            for _ in 0..3 {
                let got: Vec<u64> = map_chunks(&pool, n, |range, out: &mut Vec<u64>| {
                    for i in range {
                        out.push((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
                    }
                })
                .into_iter()
                .flatten()
                .collect();
                assert_eq!(got, reference, "threads={threads}");
            }
        }
    }

    #[test]
    fn slice_chunks_cover_every_index_exactly_once() {
        for threads in [1, 3, 8] {
            let pool = ThreadPool::new(threads);
            let mut data = vec![0u32; 5 * CHUNK + 11];
            for_each_slice_chunk(&pool, &mut data, |start, window| {
                for (off, slot) in window.iter_mut().enumerate() {
                    *slot += (start + off) as u32 + 1;
                }
            });
            assert!(data.iter().enumerate().all(|(i, &v)| v == i as u32 + 1));
        }
    }

    #[test]
    fn empty_and_tiny_inputs_are_fine() {
        let pool = ThreadPool::new(4);
        let out = map_chunks(&pool, 0, |_range, _out: &mut Vec<u8>| unreachable!());
        assert!(out.is_empty());
        let out = map_chunks(&pool, 3, |range, out: &mut Vec<usize>| out.extend(range));
        assert_eq!(out.into_iter().flatten().collect::<Vec<_>>(), vec![0, 1, 2]);
        let mut empty: Vec<u8> = Vec::new();
        for_each_slice_chunk(&pool, &mut empty, |_, _| unreachable!());
    }

    #[test]
    fn a_panicking_chunk_propagates_and_the_pool_survives() {
        let pool = ThreadPool::new(4);
        let n = 6 * CHUNK;
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(num_chunks(n), &|ci| {
                if ci == 2 {
                    panic!("boom");
                }
            });
        }));
        assert!(result.is_err());
        // The pool must still be usable afterwards.
        let hits: usize = map_chunks(&pool, n, |range, out: &mut Vec<usize>| {
            out.push(range.len());
        })
        .into_iter()
        .flatten()
        .sum();
        assert_eq!(hits, n);
    }

    #[test]
    fn thread_count_resolution() {
        assert_eq!(ThreadCount::Fixed(4).resolve(2, false), 4);
        assert_eq!(ThreadCount::Fixed(0).resolve(2, false), 1);
        // Auto never resolves below 1 regardless of the worker count.
        assert!(ThreadCount::Auto.resolve(64, false) >= 1);
        assert!(ThreadCount::Auto.resolve(1, true) >= 1);
        assert_eq!(ThreadCount::default(), ThreadCount::Auto);
    }
}
