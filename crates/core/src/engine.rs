//! The BSP fixpoint engine (coordinator + workers).
//!
//! [`GrapeEngine::run`] implements the workflow of Fig. 1 / Section 2.2:
//!
//! 1. **Handshake** — the coordinator takes the fragment set's
//!    [`ExchangeLayout`]: one stable `u32` slot per distinct border vertex,
//!    numbered by merging the fragments' sorted border lists (no hashing),
//!    with each fragment's border-position→slot column and each slot's
//!    position at every fragment that has it. The layout depends on the
//!    border lists alone, so it is built the first time a fragment set runs
//!    and kept with the fragments ([`RunStats::slot_build_seconds`] is ~0 on
//!    every later run). It then sends each worker an empty
//!    [`CoordCommand::Init`]: a worker addresses its border by *position* in
//!    its own fragment and needs no mapping.
//! 2. **PEval superstep** — every worker runs PEval on its fragment in
//!    parallel and reports its changed update parameters as
//!    `(border position, value)` pairs.
//! 3. **IncEval supersteps** — the coordinator turns each reported position
//!    into its slot (one indexed load), folds the changed values into its
//!    flat per-run fold state (using the program's aggregate function; no
//!    hashing per superstep) and routes the results to every fragment that
//!    has the vertex on its border and does not hold the value yet, each
//!    pair carrying the vertex's position in the receiver's border (one more
//!    indexed load). A worker runs IncEval on those `(position, value)`
//!    messages — no global id and no slot in either direction — and reports
//!    its changed values, minus any pair the command just delivered (the
//!    echo rule, [`PieContext::absorb`]).
//! 4. **Termination** — when a superstep produces no changed update
//!    parameters (every worker is inactive), the coordinator collects the
//!    partial results and Assemble combines them into `Q(G)`
//!    ([`RunStats::assemble_seconds`]). At that point every copy of a border
//!    vertex holds its folded value, so a per-vertex-value program assembles
//!    from each vertex's owner alone.
//!
//! Workers are OS threads — or, when the host has a single hardware thread
//! (or [`ExecutionMode::Inline`] is requested), the same workers driven
//! sequentially on the calling thread, which removes the per-superstep
//! futex-wake and preemption chains that dominate oversubscribed runs.
//! Either way the "network" traffic flows through
//! [`grape_comm::CommNetwork`] so every message and byte is accounted in the
//! run statistics, mirroring the communication columns of the paper's
//! tables. On the typed transport ([`TransportKind::InProcess`]) report and
//! command buffers circulate between the endpoints — a received report
//! buffer becomes the next superstep's command buffer and vice versa — so
//! its steady-state superstep path allocates nothing. The framed transport
//! ([`TransportKind::Framed`], and the socket streams) recycles nothing:
//! every frame is a fresh `Vec` grown by doubling, decoding allocates fresh
//! vectors, and an encoded command's buffer is dropped, so the command-buffer
//! pool holds only what decode just allocated. The coordinator's time is
//! split from inside: [`RunStats::gather_seconds`] (blocked on reports,
//! decode included), `fold_seconds`, `route_seconds` and
//! [`RunStats::send_seconds`] (encode included).

use crate::context::PieContext;
use crate::converged::IncrementalSeed;
use crate::message::{CheckpointState, CoordCommand, WorkerReport};
use crate::par::{ThreadCount, ThreadPool};
use crate::program::PieProgram;
use crate::stats::{RunStats, SuperstepTrace};
use crate::transport::{
    self, CoordTransport, DrainableWorkerTransport, TransportError, TransportKind, WorkerTransport,
};
use grape_comm::CommStats;
use grape_graph::{CsrGraph, VertexId};
use grape_partition::{build_fragments, ExchangeLayout, Fragment, PartitionAssignment};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One worker's superstep report as gathered by the coordinator:
/// `(worker id, changed border positions, stray updates, eval seconds)`.
type GatheredReport<V> = (usize, Vec<(u32, V)>, Vec<(VertexId, V)>, f64);

/// The coordinator's per-run fold state over a fragment set's
/// [`ExchangeLayout`].
///
/// Every superstep the coordinator turns each reported `(position, value)`
/// pair into its slot and folds it into flat arrays — no global id is
/// hashed — and routing is one mask per slot word: the fragments that have
/// the vertex (the layout's `homes`) minus those already holding the fold
/// (`holders`). Each routed pair is then given the vertex's position in its
/// receiver's border, a pass of its own per receiver
/// ([`ExchangeLayout::to_positions`]).
struct FoldState<V> {
    layout: Arc<ExchangeLayout>,
    /// Folded value of each slot in the current superstep (`None` =
    /// untouched this superstep).
    value: Vec<Option<V>>,
    /// Folded value of each slot in any previous superstep, for the
    /// monotonicity check (empty when the run does not check).
    last_value: Vec<Option<V>>,
    /// Packed per-slot worker bitmask, shaped like the layout's `homes`: bit
    /// `f` of slot `s` set means worker `f` already holds the folded value
    /// of `s` (no echo needed).
    holders: Vec<u64>,
    /// Slots touched in the current superstep, so clearing is O(touched).
    touched: Vec<u32>,
}

impl<V: Clone> FoldState<V> {
    fn new(layout: Arc<ExchangeLayout>, check_monotonicity: bool) -> Self {
        let num_slots = layout.num_slots();
        Self {
            value: vec![None; num_slots],
            last_value: vec![None; if check_monotonicity { num_slots } else { 0 }],
            holders: vec![0u64; num_slots * layout.words_per_slot()],
            touched: Vec::new(),
            layout,
        }
    }

    #[inline]
    fn set_holder(&mut self, slot: u32, worker: usize) {
        let base = slot as usize * self.layout.words_per_slot();
        self.holders[base + worker / 64] |= 1u64 << (worker % 64);
    }

    #[inline]
    fn clear_holders(&mut self, slot: u32) {
        let words = self.layout.words_per_slot();
        let base = slot as usize * words;
        self.holders[base..base + words].fill(0);
    }

    /// Resets the per-superstep state (folded values + holder bits) of every
    /// slot touched since the last call.
    fn begin_superstep(&mut self) {
        let touched = std::mem::take(&mut self.touched);
        for &slot in &touched {
            self.value[slot as usize] = None;
            self.clear_holders(slot);
        }
    }

    /// Folds `proposal` from `worker` into `slot` using `aggregate`: a pair
    /// of indexed loads, no hashing.
    fn fold(&mut self, slot: u32, worker: usize, proposal: &V, aggregate: impl Fn(&V, &V) -> V)
    where
        V: PartialEq,
    {
        match &self.value[slot as usize] {
            None => {
                self.value[slot as usize] = Some(proposal.clone());
                self.touched.push(slot);
                self.set_holder(slot, worker);
            }
            Some(current) => {
                let folded = aggregate(current, proposal);
                // Any worker recorded as holding the previous fold is stale
                // the moment the folded value moves; only workers whose own
                // proposal equals the fold can skip the echo. This also
                // covers non-selective aggregates (sums, element-wise mins)
                // where the fold equals *neither* input: everyone gets the
                // message.
                if folded != *current {
                    self.clear_holders(slot);
                }
                if folded == *proposal {
                    self.set_holder(slot, worker);
                }
                self.value[slot as usize] = Some(folded);
            }
        }
    }

    /// Queues the folded value of every touched slot for every fragment
    /// that has the vertex and does not hold the fold yet (`homes &
    /// !holders`), addressed by the vertex's position in that fragment's
    /// border; O(changed). Returns the number of pairs queued.
    fn route(&self, outbox: &mut [Vec<(u32, V)>]) -> usize {
        let words = self.layout.words_per_slot();
        let mut published = 0usize;
        for &slot in &self.touched {
            let value = self.value[slot as usize]
                .as_ref()
                .expect("touched slots carry values");
            let held = &self.holders[slot as usize * words..][..words];
            for (word, (&home, &held)) in self.layout.homes(slot).iter().zip(held).enumerate() {
                let mut waiting = home & !held;
                while waiting != 0 {
                    let f = word * 64 + waiting.trailing_zeros() as usize;
                    outbox[f].push((slot, value.clone()));
                    published += 1;
                    waiting &= waiting - 1;
                }
            }
        }
        for (f, pairs) in outbox.iter_mut().enumerate() {
            self.layout.to_positions(f, pairs);
        }
        published
    }
}

/// One worker's execution state, shared by the threaded and inline drivers
/// and the remote worker loop ([`run_worker`]): the program context, the
/// partial result, and the buffers that circulate across supersteps.
/// Transport-agnostic — commands go in, reports come out, and the caller
/// moves both across whatever fabric it runs on.
struct WorkerRuntime<'a, P: PieProgram> {
    program: &'a P,
    query: &'a P::Query,
    fragment: &'a Fragment<P::VertexData, P::EdgeData>,
    ctx: PieContext<P::Value>,
    /// The fragment's partial result; `Some` once PEval has run.
    partial: Option<P::Partial>,
    /// Checkpoint cadence: a [`CheckpointState`] is attached to the *first*
    /// report of every `checkpoint_every`-superstep window (so superstep 0
    /// always snapshots, and an idle superstep cannot silently skip a
    /// window). `0` disables checkpoints entirely.
    checkpoint_every: usize,
    /// The window (`superstep / checkpoint_every`) of the last report sent,
    /// used to detect the first report of a fresh window. A replacement
    /// worker starts at `None` and therefore re-checkpoints on its first
    /// accepted report, re-arming the coordinator's bounded command log.
    reported_window: Option<usize>,
    /// Warm start consulted by the PEval step; `None` is a cold run.
    seed: Option<&'a IncrementalSeed>,
    /// Whether the last PEval step started from `seed`.
    warm: bool,
}

/// What [`WorkerRuntime::handle`] asks the surrounding loop to do.
enum HandleOutcome<V> {
    /// Send this report to the coordinator.
    Reply(WorkerReport<V>),
    /// State was installed (a [`CoordCommand::Resume`] restore); nothing to
    /// send — the coordinator drives the next step.
    Silent,
    /// [`CoordCommand::Finish`]: stop and hand back the partial result.
    Stop,
}

impl<'a, P: PieProgram> WorkerRuntime<'a, P> {
    fn new(
        program: &'a P,
        query: &'a P::Query,
        fragment: &'a Fragment<P::VertexData, P::EdgeData>,
        pool: Arc<ThreadPool>,
        checkpoint_every: usize,
        seed: Option<&'a IncrementalSeed>,
    ) -> Self {
        let mut ctx = PieContext::new();
        ctx.set_pool(pool);
        Self {
            program,
            query,
            fragment,
            ctx,
            partial: None,
            checkpoint_every,
            reported_window: None,
            seed,
            warm: false,
        }
    }

    /// The PEval step and its superstep-0 report: the seed's partial when
    /// the program is eligible for its profile and accepts it, the cold
    /// PEval otherwise. Init and a checkpoint-less Resume both land here, so
    /// a replacement worker re-enters with the same warm start.
    fn run_peval(&mut self) -> WorkerReport<P::Value> {
        let t0 = Instant::now();
        let seeded = match self.seed {
            Some(s) if self.program.incremental_eligible(&s.profile) => self.program.seed_partial(
                self.query,
                self.fragment,
                &s.snapshot,
                &s.dirty,
                &s.profile,
                &mut self.ctx,
            ),
            _ => None,
        };
        self.warm = seeded.is_some();
        let partial =
            seeded.unwrap_or_else(|| self.program.peval(self.query, self.fragment, &mut self.ctx));
        let eval_seconds = t0.elapsed().as_secs_f64();
        self.partial = Some(partial);
        self.report(0, Vec::new(), eval_seconds)
    }

    /// Handles one coordinator command.
    fn handle(&mut self, command: CoordCommand<P::Value>) -> HandleOutcome<P::Value> {
        match command {
            CoordCommand::Init => {
                // Handshake: address the border by position, then run PEval.
                let border = self.fragment.shared_border_vertices();
                self.ctx.configure_shared_borders(Arc::clone(border));
                HandleOutcome::Reply(self.run_peval())
            }
            CoordCommand::Resume {
                superstep: _,
                checkpoint,
            } => {
                // Recovery handshake for a replacement worker: install the
                // lost worker's checkpointed state instead of recomputing it.
                let border = self.fragment.shared_border_vertices();
                self.ctx.configure_shared_borders(Arc::clone(border));
                match checkpoint {
                    Some(cp) => {
                        let partial = self
                            .program
                            .restore_partial(&cp.partial)
                            .expect("coordinator only resumes programs that snapshot");
                        self.partial = Some(partial);
                        self.ctx.restore_border_values(cp.border);
                        HandleOutcome::Silent
                    }
                    // The lost worker died before its PEval report landed:
                    // nothing to restore, run PEval from scratch and report
                    // it like a fresh Init.
                    None => HandleOutcome::Reply(self.run_peval()),
                }
            }
            CoordCommand::IncEval {
                superstep,
                mut updates,
            } => {
                // The coordinator addressed each pair by its position in this
                // fragment's border; a position past the border (a corrupt
                // frame) is dropped, so the program and `absorb` index
                // unchecked.
                let border = self.fragment.border_vertices().len();
                updates.retain(|&(position, _)| (position as usize) < border);
                let t0 = Instant::now();
                let partial = self.partial.as_mut().expect("IncEval before PEval");
                self.program
                    .inceval(self.query, self.fragment, partial, &updates, &mut self.ctx);
                let eval_seconds = t0.elapsed().as_secs_f64();
                // The echo rule: an adopted delivery is not reported back.
                for (pos, value) in &updates {
                    self.ctx.absorb(*pos, value);
                }
                // The spent command buffer becomes this report's payload:
                // buffers circulate instead of reallocating.
                updates.clear();
                HandleOutcome::Reply(self.report(superstep, updates, eval_seconds))
            }
            CoordCommand::Finish => HandleOutcome::Stop,
        }
    }

    /// Drains the context's dirty border positions into `changes` (a recycled
    /// buffer) and builds the superstep report, attaching a checkpoint on
    /// the cadence the run asked for. The checkpoint is taken *after* the
    /// drain, so it captures exactly the state the coordinator will believe
    /// this worker to be in once the report lands.
    fn report(
        &mut self,
        superstep: usize,
        mut changes: Vec<(u32, P::Value)>,
        eval_seconds: f64,
    ) -> WorkerReport<P::Value> {
        let mut strays = Vec::new();
        self.ctx.drain_dirty_into(&mut changes, &mut strays);
        // Cadence: snapshot on the first report of each
        // `checkpoint_every`-superstep window. The window is a pure function
        // of the superstep number, so recovered runs attach checkpoints at
        // the same supersteps as undisturbed ones.
        let snapshot_due = self.checkpoint_every > 0 && {
            let window = superstep / self.checkpoint_every;
            let due = self.reported_window != Some(window);
            self.reported_window = Some(window);
            due
        };
        let checkpoint = if snapshot_due {
            let partial = self.partial.as_ref().expect("report implies PEval ran");
            self.program
                .snapshot_partial(partial)
                .map(|bytes| CheckpointState {
                    partial: bytes,
                    border: self.ctx.snapshot_border_values(),
                })
        } else {
            None
        };
        WorkerReport::Done {
            superstep,
            changes,
            strays,
            checkpoint,
            eval_seconds,
        }
    }

    /// Takes the partial result after the run, and whether its PEval step
    /// started from the seed — `None` when the run was torn down before
    /// PEval ever produced one (e.g. a worker whose connection died at its
    /// Init command).
    fn into_partial(self) -> Option<(P::Partial, bool)> {
        let warm = self.warm;
        self.partial.map(|partial| (partial, warm))
    }
}

/// Drives one worker over `transport` until the coordinator sends
/// [`CoordCommand::Finish`] (or disconnects), returning the fragment's
/// partial result.
///
/// This is the complete worker side of the BSP protocol: the engine's
/// threaded driver runs it over in-process channels, and the `grape-worker`
/// binary runs the *same function* over a framed TCP / Unix-domain socket —
/// the PIE program cannot tell the difference.
///
/// `threads` is the size of the worker's intra-fragment thread pool
/// (1 = fully sequential evaluation). With `checkpoint_every = k > 0` the
/// first report of every k-superstep window carries a [`CheckpointState`]
/// (if the program supports snapshots), which is what makes the
/// coordinator's worker-loss recovery cheap — `k = 1` snapshots every
/// superstep, larger `k` amortizes the snapshot cost against a bounded
/// command replay. `0` disables checkpoints. A `seed` warm-starts the PEval
/// step (see [`crate::converged`]); `None` is a cold run.
///
/// Returns `None` only when the connection was torn down before PEval ever
/// produced a partial — a worker killed at its Init command has no result,
/// and its replacement reports in its stead.
pub fn run_worker<P: PieProgram>(
    program: &P,
    query: &P::Query,
    fragment: &Fragment<P::VertexData, P::EdgeData>,
    transport: &impl WorkerTransport<P::Value>,
    threads: usize,
    checkpoint_every: usize,
    seed: Option<&IncrementalSeed>,
) -> Option<P::Partial> {
    run_seeded_worker(
        program,
        query,
        fragment,
        transport,
        threads,
        checkpoint_every,
        seed,
    )
    .map(|(partial, _)| partial)
}

/// [`run_worker`], also telling whether the worker's PEval step started from
/// `seed`: `false` for a cold run, and for a seed the program refused (an
/// ineligible profile, or [`PieProgram::seed_partial`] declining it).
pub fn run_seeded_worker<P: PieProgram>(
    program: &P,
    query: &P::Query,
    fragment: &Fragment<P::VertexData, P::EdgeData>,
    transport: &impl WorkerTransport<P::Value>,
    threads: usize,
    checkpoint_every: usize,
    seed: Option<&IncrementalSeed>,
) -> Option<(P::Partial, bool)> {
    let pool = Arc::new(ThreadPool::new(threads));
    let mut worker = WorkerRuntime::new(program, query, fragment, pool, checkpoint_every, seed);
    loop {
        let batch = transport.recv_blocking();
        if batch.is_empty() {
            // Coordinator vanished; stop gracefully.
            return worker.into_partial();
        }
        for command in batch {
            match worker.handle(command) {
                HandleOutcome::Reply(report) => transport.send(report),
                HandleOutcome::Silent => {}
                HandleOutcome::Stop => return worker.into_partial(),
            }
        }
    }
}

/// The report source of every driver whose workers run on their own threads
/// or machines: blocks on the transport, and turns an empty receive into the
/// typed loss the transport recorded.
fn blocking_pump<V>(
    transport: &impl CoordTransport<V>,
) -> Result<Vec<(usize, WorkerReport<V>)>, RunError> {
    let reports = transport.recv_blocking();
    if reports.is_empty() {
        return Err(match transport.failure() {
            Some(err) => RunError::Transport(err),
            None => RunError::WorkerPanic("a worker disconnected before reporting".into()),
        });
    }
    Ok(reports)
}

/// How the engine executes its workers.
///
/// The BSP exchange is identical in every mode — same handshake, same
/// position-addressed messages, same accounting, bit-identical results — only
/// the scheduling differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionMode {
    /// One OS thread per fragment when the host has more than one hardware
    /// thread and there is more than one fragment; inline otherwise. On a
    /// single hardware thread, thread-per-fragment is pure scheduling
    /// overhead (every superstep pays a chain of futex wake-ups and
    /// preemptions), so the engine drives the workers sequentially instead.
    #[default]
    Auto,
    /// Always spawn one OS thread per fragment.
    Threads,
    /// Always drive the workers sequentially on the calling thread.
    Inline,
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Hard limit on supersteps; exceeded only by non-terminating (e.g.
    /// non-monotonic) programs.
    pub max_supersteps: usize,
    /// When set, every aggregated update-parameter transition is checked
    /// against [`PieProgram::monotonic`] and violations are counted in
    /// [`RunStats::monotonicity_violations`].
    pub check_monotonicity: bool,
    /// Worker scheduling (see [`ExecutionMode`]).
    pub execution: ExecutionMode,
    /// Message fabric between coordinator and workers (see
    /// [`TransportKind`]): typed in-process channels (estimated bytes) or
    /// framed byte channels round-tripping every message through the wire
    /// codec (actual bytes).
    pub transport: TransportKind,
    /// Size of each worker's intra-fragment thread pool (see
    /// [`ThreadCount`]). Results are bit-identical for every setting; only
    /// the wall time changes.
    pub threads_per_worker: ThreadCount,
    /// How long a stream-transport coordinator waits for the next report
    /// before declaring the silent workers lost
    /// ([`transport::DEFAULT_READ_TIMEOUT`] by default; `None` waits
    /// forever). Only stream transports enforce it — the in-process channel
    /// backends cannot lose workers.
    pub read_timeout: Option<Duration>,
    /// Checkpoint cadence for recoverable runs: workers attach a
    /// [`CheckpointState`] to the first report of every
    /// `checkpoint_every`-superstep window, and the coordinator replays the
    /// (bounded) log of commands sent since the last checkpoint when it
    /// restores a replacement. `1` snapshots every superstep, larger values
    /// amortize the snapshot cost against a longer replay, `0` disables
    /// checkpoints. Recovered runs are bit-identical for every cadence.
    pub checkpoint_every: usize,
    /// Shared-secret handshake token. When set, stream-transport workers
    /// must present the same token in their hello frame before the
    /// coordinator ships them a job; mismatched or missing tokens are
    /// rejected with a typed error. `None` accepts every connection.
    pub auth_token: Option<String>,
    /// The query's run id, stamped into [`RunStats::run_id`] and used as the
    /// starting wire epoch of the run: stream frames carry it in their
    /// header, so a service multiplexing queries over resident workers can
    /// fence each query's traffic by its own id (recovery still bumps the
    /// epoch per recovered worker, starting from this base). One-shot runs
    /// keep the default `0`.
    pub run_id: u32,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            max_supersteps: 100_000,
            check_monotonicity: false,
            execution: ExecutionMode::Auto,
            transport: TransportKind::InProcess,
            threads_per_worker: ThreadCount::Auto,
            read_timeout: Some(transport::DEFAULT_READ_TIMEOUT),
            checkpoint_every: 0,
            auth_token: None,
            run_id: 0,
        }
    }
}

impl EngineConfig {
    /// A typed builder starting from the defaults — the preferred way to
    /// construct a configuration (the struct fields stay public for now, but
    /// new call sites should go through the builder).
    ///
    /// ```
    /// use grape_core::{EngineConfig, ExecutionMode};
    ///
    /// let config = EngineConfig::builder()
    ///     .execution(ExecutionMode::Inline)
    ///     .checkpoint_every(3)
    ///     .build();
    /// assert_eq!(config.checkpoint_every, 3);
    /// ```
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder {
            config: EngineConfig::default(),
        }
    }
}

/// Typed builder for [`EngineConfig`], created by [`EngineConfig::builder`].
/// Every setter has the same name and semantics as the field it sets;
/// unset knobs keep their [`EngineConfig::default`] values.
#[derive(Debug, Clone)]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// Sets [`EngineConfig::max_supersteps`].
    pub fn max_supersteps(mut self, max_supersteps: usize) -> Self {
        self.config.max_supersteps = max_supersteps;
        self
    }

    /// Sets [`EngineConfig::check_monotonicity`].
    pub fn check_monotonicity(mut self, check: bool) -> Self {
        self.config.check_monotonicity = check;
        self
    }

    /// Sets [`EngineConfig::execution`].
    pub fn execution(mut self, execution: ExecutionMode) -> Self {
        self.config.execution = execution;
        self
    }

    /// Sets [`EngineConfig::transport`].
    pub fn transport(mut self, transport: TransportKind) -> Self {
        self.config.transport = transport;
        self
    }

    /// Sets [`EngineConfig::threads_per_worker`].
    pub fn threads_per_worker(mut self, threads: ThreadCount) -> Self {
        self.config.threads_per_worker = threads;
        self
    }

    /// Sets [`EngineConfig::read_timeout`].
    pub fn read_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.config.read_timeout = timeout;
        self
    }

    /// Sets [`EngineConfig::checkpoint_every`].
    pub fn checkpoint_every(mut self, cadence: usize) -> Self {
        self.config.checkpoint_every = cadence;
        self
    }

    /// Sets [`EngineConfig::auth_token`].
    pub fn auth_token(mut self, token: impl Into<String>) -> Self {
        self.config.auth_token = Some(token.into());
        self
    }

    /// Sets [`EngineConfig::run_id`].
    pub fn run_id(mut self, run_id: u32) -> Self {
        self.config.run_id = run_id;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> EngineConfig {
        self.config
    }
}

/// Errors produced by [`GrapeEngine::run`].
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The fragment list was empty.
    NoFragments,
    /// The superstep limit was reached before the fixpoint.
    SuperstepLimit(usize),
    /// A worker thread panicked (the payload carries the panic message).
    WorkerPanic(String),
    /// The transport lost contact with a worker (disconnect or read
    /// timeout); see [`TransportError`].
    Transport(TransportError),
    /// A worker was lost and recovery could not resume the run: respawning
    /// the replacement failed, or a single worker exhausted its per-worker
    /// crash-loop budget (replacements kept dying).
    RecoveryFailed(String),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::NoFragments => write!(f, "no fragments to run on"),
            RunError::SuperstepLimit(n) => {
                write!(
                    f,
                    "no fixpoint after {n} supersteps (non-monotonic program?)"
                )
            }
            RunError::WorkerPanic(msg) => write!(f, "worker panicked: {msg}"),
            RunError::Transport(err) => write!(f, "transport failure: {err}"),
            RunError::RecoveryFailed(msg) => write!(f, "recovery failed: {msg}"),
        }
    }
}

impl std::error::Error for RunError {}

/// Bookkeeping the coordinator keeps while a run is recoverable: everything
/// needed to rebuild a lost worker's world — its last accepted checkpoint
/// and the log of commands sent since that checkpoint — plus the run epoch
/// that fences stale traffic. Built by [`GrapeEngine::run_coordinator`] when
/// it is given a recovery hook.
struct RecoveryCtx<'a, V> {
    /// Each worker's checkpoint from its last accepted checkpoint-bearing
    /// report.
    checkpoints: Vec<Option<CheckpointState<V>>>,
    /// Every evaluation command sent to each worker since its last accepted
    /// checkpoint, replayed in order to a replacement after its state is
    /// restored. Bounded by the checkpoint cadence: a fresh checkpoint
    /// clears the log, so it holds at most ~`checkpoint_every` entries (a
    /// program without snapshot support never checkpoints, and its log is
    /// its full lineage — replaying it from PEval is still deterministic).
    log: Vec<Vec<CoordCommand<V>>>,
    /// Per-worker recovery attempts, the crash-loop budget: a single worker
    /// may be recovered at most [`MAX_RECOVERIES`] times, with deterministic
    /// exponential backoff between repeated respawns of the same worker.
    attempts: Vec<usize>,
    /// Current run epoch; bumped on every recovery so frames from the dead
    /// connection are fenced at the transport.
    epoch: u32,
    /// How many recoveries this run performed in total (reported in
    /// [`RunStats::recoveries`]).
    recoveries: usize,
    /// Produces a replacement connection for `(worker, epoch)`: respawn or
    /// reconnect, re-ship the fragment, and swap the transport's endpoint
    /// (e.g. [`transport::FramedStreamCoord::replace_worker`]).
    recover: &'a mut dyn FnMut(usize, u32) -> Result<(), String>,
}

/// Per-worker crash-loop budget: one worker may be recovered at most this
/// many times per run before the coordinator gives up, so a bad host that
/// kills every replacement placed on it surfaces as a typed error instead of
/// an endless respawn loop. The budget is per worker — concurrent failures
/// across the fleet do not consume each other's.
const MAX_RECOVERIES: usize = 5;

/// Base delay of the deterministic exponential backoff between repeated
/// respawns of the *same* worker. The first recovery of a worker is
/// immediate; its n-th waits `BASE << min(n - 2, DOUBLINGS)` first.
const RESPAWN_BACKOFF_BASE: Duration = Duration::from_millis(20);

/// Cap on backoff doublings (maximum sleep = base << cap = 320ms).
const RESPAWN_BACKOFF_DOUBLINGS: u32 = 4;

/// The answer of a run plus its statistics.
#[derive(Debug)]
pub struct GrapeResult<O> {
    /// `Q(G)` as produced by Assemble.
    pub output: O,
    /// Timing / communication statistics.
    pub stats: RunStats,
}

/// The parallel query engine: wraps a [`PieProgram`] and executes it over
/// fragmented graphs.
#[derive(Debug, Clone)]
pub struct GrapeEngine<P> {
    program: Arc<P>,
    config: EngineConfig,
}

impl<P: PieProgram> GrapeEngine<P> {
    /// Wraps a program with the default configuration.
    pub fn new(program: P) -> Self {
        Self {
            program: Arc::new(program),
            config: EngineConfig::default(),
        }
    }

    /// Overrides the configuration.
    pub fn with_config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Access to the wrapped program.
    pub fn program(&self) -> &P {
        &self.program
    }

    /// The configuration the engine runs with.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Partitions `graph` with `assignment`, builds the fragments and runs
    /// the query.
    pub fn run_on_graph(
        &self,
        query: &P::Query,
        graph: &CsrGraph<P::VertexData, P::EdgeData>,
        assignment: &PartitionAssignment,
    ) -> Result<GrapeResult<P::Output>, RunError> {
        let fragments = build_fragments(graph, assignment);
        self.run(query, &fragments)
    }

    /// Runs the simultaneous fixpoint over prebuilt fragments, held by value
    /// or shared (`Arc<Fragment>`): a holder that swaps single fragments, like
    /// the query service, passes its table as it is. A cold run is a warm run
    /// with no seed.
    pub fn run(
        &self,
        query: &P::Query,
        fragments: &[impl Borrow<Fragment<P::VertexData, P::EdgeData>> + Sync],
    ) -> Result<GrapeResult<P::Output>, RunError> {
        self.run_incremental(query, fragments, &[])
    }

    /// Runs the fixpoint *warm*: instead of a cold PEval, fragment `i` is
    /// restored from `seeds[i]` — its snapshot from a previous converged run
    /// on the pre-mutation graph — via [`PieProgram::seed_partial`] and
    /// re-evaluated only from the dirty vertices of the mutations applied
    /// since (see [`crate::converged`]).
    ///
    /// A fragment runs the cold PEval when it has no seed, when the program
    /// rejects the seed's mutation profile
    /// ([`PieProgram::incremental_eligible`]) or when `seed_partial`
    /// declines. For eligible profiles the result is bit-identical to the
    /// cold run on the mutated fragments.
    pub fn run_incremental(
        &self,
        query: &P::Query,
        fragments: &[impl Borrow<Fragment<P::VertexData, P::EdgeData>> + Sync],
        seeds: &[IncrementalSeed],
    ) -> Result<GrapeResult<P::Output>, RunError> {
        let started = Instant::now();
        let (partials, mut stats) = self.run_partials(query, fragments, seeds)?;
        let assemble_started = Instant::now();
        let output = self.program.assemble(partials);
        stats.assemble_seconds = assemble_started.elapsed().as_secs_f64();
        stats.wall_time = started.elapsed();
        Ok(GrapeResult { output, stats })
    }

    /// [`GrapeEngine::run_incremental`] up to the step before Assemble: the
    /// converged partial of every fragment, in fragment order, plus the run's
    /// statistics. What a caller wants that snapshots the partials (to seed a
    /// later run) before it assembles them.
    pub fn run_partials(
        &self,
        query: &P::Query,
        fragments: &[impl Borrow<Fragment<P::VertexData, P::EdgeData>> + Sync],
        seeds: &[IncrementalSeed],
    ) -> Result<(Vec<P::Partial>, RunStats), RunError> {
        let n = fragments.len();
        if n == 0 {
            return Err(RunError::NoFragments);
        }
        let started = Instant::now();

        // One set of communication counters shared by both directions of
        // whichever transport backend the config selects.
        let stats = Arc::new(CommStats::new());
        let (partials, mut stats_out) = match self.config.transport {
            TransportKind::InProcess => {
                let (coord, workers) = transport::typed_channel_pair(n, stats);
                self.drive(query, fragments, seeds, coord, workers)
            }
            TransportKind::Framed => {
                let (coord, workers) = transport::framed_channel_pair(n, stats);
                self.drive(query, fragments, seeds, coord, workers)
            }
        }?;
        stats_out.run_id = self.config.run_id;
        stats_out.wall_time = started.elapsed();
        Ok((partials, stats_out))
    }

    /// Runs only the coordinator half of the fixpoint over an external
    /// transport whose workers live elsewhere (other processes or hosts, via
    /// [`transport::FramedStreamCoord`]). The fragments are used for their
    /// exchange layout (found or built once per fragment set, see
    /// [`ExchangeLayout::of`]); evaluation happens wherever the
    /// workers run [`run_worker`] on their own fragment replicas. Returns the
    /// run statistics; partial results stay with the workers (shipping them
    /// home is the driver's job — see `grape-worker`'s result frames).
    ///
    /// Without a `recover` hook a lost worker fails the run with a typed
    /// [`RunError::Transport`]. With one the run survives worker loss:
    /// workers attach checkpoints on the [`EngineConfig::checkpoint_every`]
    /// cadence, and when the transport loses workers the coordinator
    /// recovers the whole batch — for each victim it bumps the run epoch,
    /// calls `recover(worker, new_epoch)`, which must leave the transport
    /// ready to ship commands to a replacement at that epoch (respawn or
    /// reconnect + [`transport::FramedStreamCoord::replace_worker`]),
    /// restores the lost worker's last checkpoint via
    /// [`CoordCommand::Resume`], replays the logged commands sent since that
    /// checkpoint in order, and continues. Replayed intermediate reports are
    /// deduplicated, so recovered runs are bit-identical to undisturbed ones
    /// for any cadence: same supersteps, same folded values, same final
    /// answer. A replacement dying mid-replay re-enters recovery through the
    /// same path; each worker has a crash-loop budget of `MAX_RECOVERIES`
    /// attempts with deterministic exponential backoff between repeated
    /// respawns.
    pub fn run_coordinator(
        &self,
        fragments: &[impl Borrow<Fragment<P::VertexData, P::EdgeData>> + Sync],
        transport: &impl CoordTransport<P::Value>,
        recover: Option<&mut dyn FnMut(usize, u32) -> Result<(), String>>,
    ) -> Result<RunStats, RunError> {
        let n = fragments.len();
        if n == 0 {
            return Err(RunError::NoFragments);
        }
        let started = Instant::now();
        let layout = ExchangeLayout::of(fragments);
        let slot_build_seconds = started.elapsed().as_secs_f64();
        let mut folds = FoldState::new(layout, self.config.check_monotonicity);
        let mut rec = recover.map(|recover| RecoveryCtx {
            checkpoints: (0..n).map(|_| None).collect(),
            log: (0..n).map(|_| Vec::new()).collect(),
            attempts: vec![0; n],
            epoch: self.config.run_id,
            recoveries: 0,
            recover,
        });
        for f in 0..n {
            transport.send(f, CoordCommand::Init);
        }
        let program = Arc::clone(&self.program);
        let coordination = Self::coordinate(
            &program,
            &self.config,
            n,
            &mut folds,
            transport,
            false,
            rec.as_mut(),
            || blocking_pump(transport),
        );
        // Always release the workers, even on error.
        for f in 0..n {
            transport.send(f, CoordCommand::Finish);
        }
        let mut stats_out = coordination?;
        stats_out.slot_build_seconds = slot_build_seconds;
        stats_out.recoveries = rec.map_or(0, |rec| rec.recoveries);
        stats_out.num_workers = n;
        stats_out.program = program.name().to_string();
        stats_out.run_id = self.config.run_id;
        stats_out.wall_time = started.elapsed();
        Ok(stats_out)
    }

    /// Handles a lost-worker transport error inside the gather loop:
    /// identifies the *whole* lost set (every failure the transport has
    /// recorded, so same-superstep losses recover as one batch), spins up
    /// replacements at bumped epochs, and re-seeds each with its checkpoint
    /// plus the logged commands sent since it.
    #[allow(clippy::too_many_arguments)]
    fn recover_lost_workers(
        rec: &mut RecoveryCtx<'_, P::Value>,
        err: &RunError,
        transport: &impl CoordTransport<P::Value>,
        superstep: usize,
        awaiting: &[bool],
        got: &[bool],
        n: usize,
    ) -> Result<(), RunError> {
        // Only worker loss is recoverable; everything else propagates.
        let RunError::Transport(TransportError::WorkerLost { .. }) = err else {
            return Err(err.clone());
        };
        // Drain every recorded failure so concurrent losses are handled in
        // one wave instead of one round trip through the gather loop each.
        let mut lost: Vec<(usize, String)> = Vec::new();
        let mut anonymous = false;
        for failure in transport.failures() {
            let TransportError::WorkerLost { worker, reason } = failure;
            match worker {
                Some(w) if !lost.iter().any(|(l, _)| *l == w) => lost.push((w, reason)),
                Some(_) => {}
                None => anonymous = true,
            }
        }
        if anonymous {
            // A read timeout fires without naming anyone: whoever still owes
            // this superstep a report is considered lost.
            for w in 0..n {
                if awaiting[w] && !got[w] && !lost.iter().any(|(l, _)| *l == w) {
                    lost.push((w, "no report within the read timeout".into()));
                }
            }
        }
        if lost.is_empty() {
            return Err(err.clone());
        }
        lost.sort_by_key(|&(w, _)| w);
        for (w, reason) in lost {
            rec.attempts[w] += 1;
            if rec.attempts[w] > MAX_RECOVERIES {
                return Err(RunError::RecoveryFailed(format!(
                    "worker {w} exhausted its crash-loop budget of {MAX_RECOVERIES} \
                     recoveries (lost again: {reason})"
                )));
            }
            // Deterministic exponential backoff between repeated respawns of
            // the same worker: its first recovery is immediate, a
            // crash-looping one waits 20ms, 40ms, ... capped at 320ms.
            if rec.attempts[w] > 1 {
                let doublings = (rec.attempts[w] as u32 - 2).min(RESPAWN_BACKOFF_DOUBLINGS);
                std::thread::sleep(RESPAWN_BACKOFF_BASE * (1u32 << doublings));
            }
            rec.epoch += 1;
            rec.recoveries += 1;
            eprintln!(
                "coordinator: recovering worker {w} at superstep {superstep} \
                 (epoch {}, attempt {}): {reason}",
                rec.epoch, rec.attempts[w]
            );
            (rec.recover)(w, rec.epoch).map_err(|e| {
                RunError::RecoveryFailed(format!("could not replace worker {w}: {e}"))
            })?;
            // Restore the last checkpoint, then replay every command sent
            // since it, in order. The replacement re-evaluates those
            // supersteps deterministically and the gather loop drops the
            // replayed intermediate reports as out-of-phase, so only the
            // live superstep's report is folded. With no checkpoint at all
            // (a superstep-0 death, or a program without snapshot support)
            // Resume itself triggers a fresh PEval and the log holds the
            // full lineage since superstep 0 — same replay, longer.
            transport.send(
                w,
                CoordCommand::Resume {
                    superstep,
                    checkpoint: rec.checkpoints[w].clone(),
                },
            );
            for command in rec.log[w].clone() {
                transport.send(w, command);
            }
        }
        Ok(())
    }

    /// Runs the full fixpoint (coordinator + local workers) over an
    /// in-process transport pair built by the caller.
    fn drive<CT, WT>(
        &self,
        query: &P::Query,
        fragments: &[impl Borrow<Fragment<P::VertexData, P::EdgeData>> + Sync],
        seeds: &[IncrementalSeed],
        coord: CT,
        worker_transports: Vec<WT>,
    ) -> Result<(Vec<P::Partial>, RunStats), RunError>
    where
        CT: CoordTransport<P::Value>,
        WT: DrainableWorkerTransport<P::Value>,
    {
        let n = fragments.len();
        let program = Arc::clone(&self.program);
        let config = self.config.clone();
        let inline = match config.execution {
            ExecutionMode::Inline => true,
            ExecutionMode::Threads => false,
            ExecutionMode::Auto => {
                n == 1
                    || std::thread::available_parallelism()
                        .map(|p| p.get() <= 1)
                        .unwrap_or(false)
            }
        };
        let threads = config.threads_per_worker.resolve(n, inline);

        if inline {
            // ---------------- inline driver ----------------
            // Every worker runs on this thread; the exchange still flows
            // through the same transport so the accounting and the message
            // protocol are identical to the threaded mode. The workers run
            // serialized, so they share one intra-fragment pool.
            let build_started = Instant::now();
            let layout = ExchangeLayout::of(fragments);
            let slot_build_seconds = build_started.elapsed().as_secs_f64();
            let mut folds = FoldState::new(layout, config.check_monotonicity);
            for f in 0..n {
                coord.send(f, CoordCommand::Init);
            }
            let pool = Arc::new(ThreadPool::new(threads));
            let mut workers: Vec<WorkerRuntime<'_, P>> = fragments
                .iter()
                .enumerate()
                .map(|(f, fragment)| {
                    WorkerRuntime::new(
                        &*program,
                        query,
                        fragment.borrow(),
                        Arc::clone(&pool),
                        config.checkpoint_every,
                        seeds.get(f),
                    )
                })
                .collect();
            let coordination =
                Self::coordinate(&program, &config, n, &mut folds, &coord, true, None, || {
                    // Run every worker with queued commands, then hand their
                    // reports to the coordinator.
                    for (worker, wt) in workers.iter_mut().zip(&worker_transports) {
                        for command in wt.drain() {
                            if let HandleOutcome::Reply(report) = worker.handle(command) {
                                wt.send(report);
                            }
                        }
                    }
                    let reports = coord.drain();
                    if reports.is_empty() {
                        return Err(RunError::WorkerPanic("no worker produced a report".into()));
                    }
                    Ok(reports)
                });
            coordination.map(|mut stats_out| {
                stats_out.slot_build_seconds = slot_build_seconds;
                stats_out.num_workers = n;
                stats_out.program = program.name().to_string();
                let (partials, warm): (Vec<_>, Vec<bool>) = workers
                    .into_iter()
                    .map(|w| w.into_partial().expect("every worker ran PEval"))
                    .unzip();
                stats_out.warm_fragments = warm.into_iter().filter(|&w| w).count();
                (partials, stats_out)
            })
        } else {
            std::thread::scope(|scope| {
                // ---------------- threaded driver ----------------
                let mut handles = Vec::with_capacity(n);
                let checkpoint_every = config.checkpoint_every;
                for (f, (fragment, wt)) in fragments.iter().zip(worker_transports).enumerate() {
                    let fragment = fragment.borrow();
                    let program = Arc::clone(&program);
                    let seed = seeds.get(f);
                    handles.push(scope.spawn(move || {
                        run_seeded_worker(
                            &*program,
                            query,
                            fragment,
                            &wt,
                            threads,
                            checkpoint_every,
                            seed,
                        )
                        .expect("every worker ran PEval")
                    }));
                }

                // The coordinator half is the one remote workers are driven
                // by; it releases the workers even on error, so the scope
                // can join them.
                let coordination = self.run_coordinator(fragments, &coord, None);
                let mut partials = Vec::with_capacity(n);
                let mut warm_fragments = 0;
                let mut panic_message = None;
                for handle in handles {
                    match handle.join() {
                        Ok((partial, warm)) => {
                            partials.push(partial);
                            warm_fragments += usize::from(warm);
                        }
                        Err(payload) => {
                            let msg = payload
                                .downcast_ref::<&str>()
                                .map(|s| s.to_string())
                                .or_else(|| payload.downcast_ref::<String>().cloned())
                                .unwrap_or_else(|| "unknown panic".to_string());
                            panic_message = Some(msg);
                        }
                    }
                }
                if let Some(msg) = panic_message {
                    return Err(RunError::WorkerPanic(msg));
                }
                let mut stats_out = coordination?;
                stats_out.warm_fragments = warm_fragments;
                Ok((partials, stats_out))
            })
        }
    }

    /// The coordinator's superstep loop. Returns the (partially filled) run
    /// statistics once the fixpoint is reached.
    ///
    /// `pump` produces the next batch of worker reports: the threaded and
    /// remote drivers block on the transport, the inline driver runs the
    /// workers. `serialized` declares that the workers execute sequentially
    /// on the caller's thread, in which case the critical path through a
    /// superstep is the *sum* of the workers' evaluation times rather than
    /// their max.
    #[allow(clippy::too_many_arguments)]
    fn coordinate(
        program: &Arc<P>,
        config: &EngineConfig,
        n: usize,
        folds: &mut FoldState<P::Value>,
        transport: &impl CoordTransport<P::Value>,
        serialized: bool,
        mut recovery: Option<&mut RecoveryCtx<'_, P::Value>>,
        mut pump: impl FnMut() -> Result<Vec<(usize, WorkerReport<P::Value>)>, RunError>,
    ) -> Result<RunStats, RunError> {
        let stats: Arc<CommStats> = transport.comm_stats();
        let mut run_stats = RunStats::default();
        // Last folded value of each non-border vertex a program proposed,
        // kept only for the monotonicity diagnostic (border vertices use the
        // fold state's `last_value`).
        let mut stray_last: HashMap<VertexId, P::Value> = HashMap::new();
        let mut pending = n;
        let mut superstep = 0usize;
        // Which workers the current superstep's gather is waiting on, and who
        // has already been counted — the dedup state recovery needs to drop
        // replayed duplicates and out-of-phase reports.
        let mut awaiting = vec![true; n];
        let mut got = vec![false; n];
        // Superstep-scoped buffers, reused across the whole run. Report
        // buffers received from the workers are recycled through `pool` into
        // the next superstep's command buffers, so on the typed transport the
        // steady-state loop allocates nothing (a framed one allocates per
        // frame; see the module doc).
        let mut reports: Vec<GatheredReport<P::Value>> = Vec::with_capacity(n);
        let mut pool: Vec<Vec<(u32, P::Value)>> = Vec::with_capacity(n);
        let mut outbox: Vec<Vec<(u32, P::Value)>> = (0..n).map(|_| Vec::new()).collect();

        loop {
            // Gather the reports of every worker that evaluated this superstep.
            while reports.len() < pending {
                let gather_started = Instant::now();
                let pumped = pump();
                run_stats.gather_seconds += gather_started.elapsed().as_secs_f64();
                let batch = match pumped {
                    Ok(batch) => batch,
                    Err(err) => {
                        let Some(rec) = recovery.as_deref_mut() else {
                            return Err(err);
                        };
                        Self::recover_lost_workers(
                            rec, &err, transport, superstep, &awaiting, &got, n,
                        )?;
                        continue;
                    }
                };
                for (from, report) in batch {
                    let WorkerReport::Done {
                        superstep: reported,
                        changes,
                        strays,
                        checkpoint,
                        eval_seconds,
                    } = report;
                    if let Some(rec) = recovery.as_deref_mut() {
                        // Recovery replays supersteps, so a report is only
                        // accepted when it answers the gather in progress:
                        // right superstep, from a worker we are waiting on,
                        // not yet counted. Anything else is an echo of work
                        // already folded (e.g. a replacement worker's replay
                        // racing a report the dead worker managed to flush).
                        if reported != superstep || !awaiting[from] || got[from] {
                            eprintln!(
                                "coordinator: dropping out-of-phase report from worker {from} \
                                 (superstep {reported}, gathering {superstep})"
                            );
                            continue;
                        }
                        if let Some(cp) = checkpoint {
                            // A fresh checkpoint supersedes the command log:
                            // everything sent up to this report is baked into
                            // the snapshot, so the replayable history resets.
                            // This is what bounds the log to the cadence.
                            rec.checkpoints[from] = Some(cp);
                            rec.log[from].clear();
                        }
                    }
                    got[from] = true;
                    reports.push((from, changes, strays, eval_seconds));
                }
            }

            // Fold the position-addressed proposals into the per-border-vertex
            // slots — indexed loads per changed value, no hashing. Each slot
            // keeps the aggregated value plus a worker bitmask of who already
            // holds it (those workers do not need an echo).
            //
            // Fold in worker order, not arrival order: concurrent transports
            // deliver reports in whatever order the wire produced them, and
            // order-sensitive aggregates (float sums, CF's averaging) must
            // still fold identically to the serialized reference.
            let fold_started = Instant::now();
            reports.sort_unstable_by_key(|&(from, ..)| from);
            folds.begin_superstep();
            let mut changed_parameters = 0usize;
            let mut max_eval = 0.0f64;
            let mut total_eval = 0.0f64;
            let active_workers = reports.len();
            // Proposals for vertices on no fragment's border cannot be
            // routed, but the monotonicity diagnostic still folds them here
            // so it keeps catching programs that update the wrong vertices.
            let mut stray: HashMap<VertexId, P::Value> = HashMap::new();
            for (from, mut changes, strays, eval_seconds) in reports.drain(..) {
                max_eval = max_eval.max(eval_seconds);
                total_eval += eval_seconds;
                changed_parameters += changes.len() + strays.len();
                folds.layout.to_slots(from, &mut changes);
                for &(slot, ref value) in &changes {
                    folds.fold(slot, from, value, |a, b| program.aggregate(a, b));
                }
                // Recycle the report buffer into the command-buffer pool.
                changes.clear();
                pool.push(changes);
                if config.check_monotonicity {
                    for (v, value) in strays {
                        match stray.get_mut(&v) {
                            None => {
                                stray.insert(v, value);
                            }
                            Some(current) => *current = program.aggregate(current, &value),
                        }
                    }
                }
            }
            run_stats.fold_seconds += fold_started.elapsed().as_secs_f64();

            if config.check_monotonicity {
                for idx in 0..folds.touched.len() {
                    let slot = folds.touched[idx] as usize;
                    let value = folds.value[slot]
                        .as_ref()
                        .expect("touched slots carry values");
                    if let Some(old) = &folds.last_value[slot] {
                        if program.monotonic(old, value) == Some(false) {
                            run_stats.monotonicity_violations += 1;
                        }
                    }
                    folds.last_value[slot] = Some(value.clone());
                }
                for (v, value) in stray {
                    if let Some(old) = stray_last.get(&v) {
                        if program.monotonic(old, &value) == Some(false) {
                            run_stats.monotonicity_violations += 1;
                        }
                    }
                    stray_last.insert(v, value);
                }
            }

            // Close the books on this superstep. In serialized (inline)
            // execution the workers ran back to back on this thread, so the
            // superstep's critical path through evaluation is their summed
            // time.
            let critical_eval = if serialized { total_eval } else { max_eval };
            let comm = stats.end_superstep(superstep);
            let trace = SuperstepTrace {
                superstep,
                active_workers,
                max_eval_seconds: max_eval,
                total_eval_seconds: total_eval,
                changed_parameters,
                changed_slots: folds.touched.len(),
                published_updates: 0,
                messages: comm.messages,
                bytes: comm.bytes,
            };
            if superstep == 0 {
                run_stats.peval_seconds = critical_eval;
            } else {
                run_stats.inceval_seconds += critical_eval;
            }
            run_stats.history.push(trace);
            run_stats.supersteps = superstep + 1;

            // Fixpoint: no worker changed any update parameter.
            if changed_parameters == 0 {
                break;
            }
            if superstep + 1 >= config.max_supersteps {
                return Err(RunError::SuperstepLimit(config.max_supersteps));
            }

            // Route the aggregated values to every fragment that has the
            // vertex on its border, except fragments already holding the
            // aggregated value.
            let route_started = Instant::now();
            let published = folds.route(&mut outbox);
            run_stats.route_seconds += route_started.elapsed().as_secs_f64();
            run_stats
                .history
                .last_mut()
                .expect("trace just pushed")
                .published_updates = published;
            superstep += 1;
            pending = 0;
            got.iter_mut().for_each(|g| *g = false);
            let send_started = Instant::now();
            for (f, buffer) in outbox.iter_mut().enumerate() {
                awaiting[f] = !buffer.is_empty();
                if !buffer.is_empty() {
                    let updates = std::mem::replace(buffer, pool.pop().unwrap_or_default());
                    let command = CoordCommand::IncEval { superstep, updates };
                    if let Some(rec) = recovery.as_deref_mut() {
                        // Log what is in flight: if this worker dies before
                        // its next checkpoint, its replacement restores the
                        // last checkpoint and replays this log in order.
                        rec.log[f].push(command.clone());
                    }
                    transport.send(f, command);
                    pending += 1;
                }
            }
            run_stats.send_seconds += send_started.elapsed().as_secs_f64();
            if pending == 0 {
                // Changes happened but every interested fragment already
                // holds the aggregated values: fixpoint.
                break;
            }
        }

        run_stats.messages = stats.messages();
        run_stats.bytes = stats.bytes();
        Ok(run_stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use grape_graph::generators::{barabasi_albert, road_network, RoadNetworkConfig};
    use grape_graph::GraphBuilder;
    use grape_partition::{BuiltinStrategy, HashPartitioner, Partitioner};

    /// Connected components by min-label propagation: the update parameter of
    /// a border vertex is the smallest vertex id known to be connected to it.
    struct MinLabelCc;

    impl PieProgram for MinLabelCc {
        type Query = ();
        type VertexData = ();
        type EdgeData = f64;
        type Value = u64;
        type Partial = HashMap<VertexId, u64>;
        type Output = HashMap<VertexId, u64>;

        fn peval(
            &self,
            _q: &(),
            fragment: &Fragment<(), f64>,
            ctx: &mut PieContext<u64>,
        ) -> Self::Partial {
            // Local label propagation to convergence (sequential CC on F_i).
            let mut label: HashMap<VertexId, u64> =
                fragment.graph.vertices().map(|v| (v, v)).collect();
            let mut changed = true;
            while changed {
                changed = false;
                for (s, d, _) in fragment.graph.edges() {
                    let ls = label[&s];
                    let ld = label[&d];
                    let m = ls.min(ld);
                    if ls != m {
                        label.insert(s, m);
                        changed = true;
                    }
                    if ld != m {
                        label.insert(d, m);
                        changed = true;
                    }
                }
            }
            for &b in fragment.border_vertices() {
                ctx.update(b, label[&b]);
            }
            label
        }

        fn inceval(
            &self,
            _q: &(),
            fragment: &Fragment<(), f64>,
            partial: &mut Self::Partial,
            messages: &[(u32, u64)],
            ctx: &mut PieContext<u64>,
        ) {
            let mut changed = false;
            for &(pos, incoming) in messages {
                let v = fragment.border_vertices()[pos as usize];
                let current = partial.get_mut(&v).expect("border vertices are local");
                if incoming < *current {
                    *current = incoming;
                    changed = true;
                }
            }
            while changed {
                changed = false;
                for (s, d, _) in fragment.graph.edges() {
                    let ls = partial[&s];
                    let ld = partial[&d];
                    let m = ls.min(ld);
                    if ls != m {
                        partial.insert(s, m);
                        changed = true;
                    }
                    if ld != m {
                        partial.insert(d, m);
                        changed = true;
                    }
                }
            }
            for &b in fragment.border_vertices() {
                let value = partial[&b];
                ctx.update(b, value);
            }
        }

        fn assemble(&self, partials: Vec<Self::Partial>) -> Self::Output {
            // Keep the smallest label seen for each vertex (mirrors may carry
            // stale larger labels).
            let mut out: HashMap<VertexId, u64> = HashMap::new();
            for partial in partials {
                for (v, label) in partial {
                    out.entry(v)
                        .and_modify(|l| *l = (*l).min(label))
                        .or_insert(label);
                }
            }
            out
        }

        fn aggregate(&self, a: &u64, b: &u64) -> u64 {
            *a.min(b)
        }

        fn monotonic(&self, old: &u64, new: &u64) -> Option<bool> {
            Some(new <= old)
        }

        fn name(&self) -> &str {
            "min-label-cc"
        }
    }

    fn reference_cc(graph: &CsrGraph<(), f64>) -> HashMap<VertexId, u64> {
        grape_graph::metrics::weakly_connected_components(graph)
    }

    #[test]
    fn cc_matches_reference_on_power_law_graph() {
        let g = barabasi_albert(500, 3, 21).unwrap();
        let assignment = HashPartitioner.partition(&g, 4);
        let engine = GrapeEngine::new(MinLabelCc).with_config(EngineConfig {
            check_monotonicity: true,
            ..Default::default()
        });
        let result = engine.run_on_graph(&(), &g, &assignment).unwrap();
        let expected = reference_cc(&g);
        for v in g.vertices() {
            assert_eq!(result.output[&v], expected[&v], "vertex {v}");
        }
        assert_eq!(result.stats.monotonicity_violations, 0);
        assert!(result.stats.supersteps >= 1);
        assert_eq!(result.stats.num_workers, 4);
        assert_eq!(result.stats.program, "min-label-cc");
    }

    #[test]
    fn cc_on_disconnected_graph_keeps_components_apart() {
        let mut b = GraphBuilder::<(), f64>::new();
        for v in 0..10u64 {
            b.add_edge(v, (v + 1) % 10, 1.0);
        }
        for v in 100..105u64 {
            b.add_edge(v, v + 1, 1.0);
        }
        let g = b.build().unwrap();
        let assignment = HashPartitioner.partition(&g, 3);
        let result = GrapeEngine::new(MinLabelCc)
            .run_on_graph(&(), &g, &assignment)
            .unwrap();
        for v in 0..10u64 {
            assert_eq!(result.output[&v], 0);
        }
        for v in 100..=105u64 {
            assert_eq!(result.output[&v], 100);
        }
    }

    #[test]
    fn single_fragment_needs_one_superstep() {
        let g = barabasi_albert(100, 2, 3).unwrap();
        let assignment = HashPartitioner.partition(&g, 1);
        let result = GrapeEngine::new(MinLabelCc)
            .run_on_graph(&(), &g, &assignment)
            .unwrap();
        assert_eq!(result.stats.supersteps, 1, "no borders, PEval suffices");
        assert_eq!(result.stats.messages, result.stats.history[0].messages);
        assert!(result.output.values().all(|&l| l == 0));
    }

    #[test]
    fn more_workers_more_supersteps_on_chains() {
        // A long chain partitioned into many contiguous ranges needs label
        // propagation across every boundary: supersteps grow with k.
        let mut b = GraphBuilder::<(), f64>::new();
        for v in 0..64u64 {
            b.add_edge(v, v + 1, 1.0);
        }
        let g = b.build().unwrap();
        let few = GrapeEngine::new(MinLabelCc)
            .run_on_graph(&(), &g, &grape_partition::RangePartitioner.partition(&g, 2))
            .unwrap();
        let many = GrapeEngine::new(MinLabelCc)
            .run_on_graph(&(), &g, &grape_partition::RangePartitioner.partition(&g, 8))
            .unwrap();
        assert!(many.stats.supersteps > few.stats.supersteps);
        assert!(many.stats.messages > few.stats.messages);
        // Both still compute the right answer.
        assert!(many.output.values().all(|&l| l == 0));
        assert!(few.output.values().all(|&l| l == 0));
    }

    #[test]
    fn empty_fragment_list_is_an_error() {
        let engine = GrapeEngine::new(MinLabelCc);
        let none: [Fragment<(), f64>; 0] = [];
        let err = engine.run(&(), &none).unwrap_err();
        assert_eq!(err, RunError::NoFragments);
        assert!(err.to_string().contains("no fragments"));
    }

    #[test]
    fn superstep_limit_is_enforced() {
        /// A deliberately non-monotonic program that flips a border value
        /// forever.
        struct Oscillator;
        impl PieProgram for Oscillator {
            type Query = ();
            type VertexData = ();
            type EdgeData = f64;
            type Value = u64;
            type Partial = u64;
            type Output = u64;
            fn peval(
                &self,
                _q: &(),
                fragment: &Fragment<(), f64>,
                ctx: &mut PieContext<u64>,
            ) -> u64 {
                for &b in fragment.border_vertices() {
                    ctx.update(b, fragment.id as u64);
                }
                0
            }
            fn inceval(
                &self,
                _q: &(),
                fragment: &Fragment<(), f64>,
                partial: &mut u64,
                _messages: &[(u32, u64)],
                ctx: &mut PieContext<u64>,
            ) {
                *partial += 1;
                for &b in fragment.border_vertices() {
                    // Alternate the value every superstep: never converges.
                    ctx.update(b, *partial % 2 + fragment.id as u64 * 10);
                }
            }
            fn assemble(&self, partials: Vec<u64>) -> u64 {
                partials.into_iter().sum()
            }
            fn aggregate(&self, a: &u64, b: &u64) -> u64 {
                *a.min(b)
            }
            fn monotonic(&self, old: &u64, new: &u64) -> Option<bool> {
                Some(new <= old)
            }
        }
        let mut b = GraphBuilder::<(), f64>::new();
        for v in 0..16u64 {
            b.add_edge(v, v + 1, 1.0);
        }
        let g = b.build().unwrap();
        let assignment = grape_partition::RangePartitioner.partition(&g, 2);
        let engine = GrapeEngine::new(Oscillator).with_config(EngineConfig {
            max_supersteps: 10,
            check_monotonicity: true,
            ..Default::default()
        });
        let err = engine.run_on_graph(&(), &g, &assignment).unwrap_err();
        assert_eq!(err, RunError::SuperstepLimit(10));
    }

    /// Appends `messages` to `log` with each border position resolved to the
    /// vertex it stands for.
    fn record_by_vertex(
        fragment: &Fragment<(), f64>,
        log: &mut Vec<(VertexId, u64)>,
        messages: &[(u32, u64)],
    ) {
        let border = fragment.border_vertices();
        log.extend(messages.iter().map(|&(pos, v)| (border[pos as usize], v)));
    }

    /// A probe program for the coordinator's echo suppression: PEval proposes
    /// a per-fragment value for every border vertex and IncEval records every
    /// message that arrives (without proposing anything new, so the run
    /// terminates after one exchange).
    struct EchoProbe;

    impl PieProgram for EchoProbe {
        type Query = ();
        type VertexData = ();
        type EdgeData = f64;
        type Value = u64;
        /// Messages received by this fragment, in arrival order.
        type Partial = Vec<(VertexId, u64)>;
        /// The per-fragment message logs, in fragment order.
        type Output = Vec<Vec<(VertexId, u64)>>;

        fn peval(
            &self,
            _q: &(),
            fragment: &Fragment<(), f64>,
            ctx: &mut PieContext<u64>,
        ) -> Self::Partial {
            // Fragment 0 proposes 0, fragment 1 proposes 100, ...: the
            // aggregate (min) is always fragment 0's proposal.
            for &b in fragment.border_vertices() {
                ctx.update(b, fragment.id as u64 * 100);
            }
            Vec::new()
        }

        fn inceval(
            &self,
            _q: &(),
            fragment: &Fragment<(), f64>,
            partial: &mut Self::Partial,
            messages: &[(u32, u64)],
            _ctx: &mut PieContext<u64>,
        ) {
            record_by_vertex(fragment, partial, messages);
        }

        fn assemble(&self, partials: Vec<Self::Partial>) -> Self::Output {
            partials
        }

        fn aggregate(&self, a: &u64, b: &u64) -> u64 {
            *a.min(b)
        }
    }

    #[test]
    fn echo_suppression_prevents_self_messages() {
        // Chain 0-1-2-3 split in two: border vertices {1, 2} on both sides.
        let mut b = GraphBuilder::<(), f64>::new();
        for v in 0..3u64 {
            b.add_edge(v, v + 1, 1.0);
        }
        let g = b.build().unwrap();
        let assignment = grape_partition::RangePartitioner.partition(&g, 2);
        let result = GrapeEngine::new(EchoProbe)
            .run_on_graph(&(), &g, &assignment)
            .unwrap();
        // Fragment 0 proposed the winning value 0 for both border vertices,
        // so it must receive no echo; fragment 1 receives the fold.
        assert!(
            result.output[0].is_empty(),
            "the proposer of the aggregated value got echoed its own message: {:?}",
            result.output[0]
        );
        assert_eq!(result.output[1], vec![(1, 0), (2, 0)]);
        assert_eq!(result.stats.supersteps, 2);
    }

    #[test]
    fn non_selective_aggregate_reaches_every_proposer() {
        /// A sum aggregate: the fold of two different proposals equals
        /// *neither* of them, so no proposer holds the folded value and
        /// every fragment must receive it (a stale holder bit here would
        /// leave one fragment with its own, wrong value).
        struct SumProbe;
        impl PieProgram for SumProbe {
            type Query = ();
            type VertexData = ();
            type EdgeData = f64;
            type Value = u64;
            type Partial = Vec<(VertexId, u64)>;
            type Output = Vec<Vec<(VertexId, u64)>>;
            fn peval(
                &self,
                _q: &(),
                fragment: &Fragment<(), f64>,
                ctx: &mut PieContext<u64>,
            ) -> Self::Partial {
                for &b in fragment.border_vertices() {
                    ctx.update(b, 10 + fragment.id as u64);
                }
                Vec::new()
            }
            fn inceval(
                &self,
                _q: &(),
                fragment: &Fragment<(), f64>,
                partial: &mut Self::Partial,
                messages: &[(u32, u64)],
                _ctx: &mut PieContext<u64>,
            ) {
                record_by_vertex(fragment, partial, messages);
            }
            fn assemble(&self, partials: Vec<Self::Partial>) -> Self::Output {
                partials
            }
            fn aggregate(&self, a: &u64, b: &u64) -> u64 {
                *a + *b
            }
        }
        let mut b = GraphBuilder::<(), f64>::new();
        for v in 0..3u64 {
            b.add_edge(v, v + 1, 1.0);
        }
        let g = b.build().unwrap();
        let assignment = grape_partition::RangePartitioner.partition(&g, 2);
        let result = GrapeEngine::new(SumProbe)
            .run_on_graph(&(), &g, &assignment)
            .unwrap();
        // Proposals 10 and 11 fold to 21 for both border vertices {1, 2};
        // neither fragment holds 21, so both must be told.
        for (f, received) in result.output.iter().enumerate() {
            assert_eq!(
                received,
                &vec![(1, 21), (2, 21)],
                "fragment {f} must receive the folded sum"
            );
        }
    }

    #[test]
    fn monotonicity_check_sees_non_border_updates() {
        /// A program that (buggily) posts *increasing* values for a
        /// non-border inner vertex while driving normal decreasing border
        /// traffic: the stray updates can never be routed, but the
        /// monotonicity diagnostic must still flag them.
        struct StrayOscillator;
        impl StrayOscillator {
            fn stray_vertex(fragment: &Fragment<(), f64>) -> VertexId {
                fragment
                    .inner_vertices()
                    .iter()
                    .copied()
                    .find(|&v| fragment.mirrors_of(v).is_empty())
                    .expect("a non-border inner vertex exists")
            }
        }
        impl PieProgram for StrayOscillator {
            type Query = ();
            type VertexData = ();
            type EdgeData = f64;
            type Value = u64;
            type Partial = u64;
            type Output = u64;
            fn peval(
                &self,
                _q: &(),
                fragment: &Fragment<(), f64>,
                ctx: &mut PieContext<u64>,
            ) -> u64 {
                ctx.update(Self::stray_vertex(fragment), 100);
                for &b in fragment.border_vertices() {
                    ctx.update(b, 50 + fragment.id as u64);
                }
                0
            }
            fn inceval(
                &self,
                _q: &(),
                fragment: &Fragment<(), f64>,
                partial: &mut u64,
                _messages: &[(u32, u64)],
                ctx: &mut PieContext<u64>,
            ) {
                *partial += 1;
                if *partial > 3 {
                    return;
                }
                // Increasing: violates the min-order declared below.
                ctx.update(Self::stray_vertex(fragment), 100 + *partial);
                for &b in fragment.border_vertices() {
                    // Decreasing: monotone, keeps the exchange alive.
                    ctx.update(b, 50 - *partial);
                }
            }
            fn assemble(&self, partials: Vec<u64>) -> u64 {
                partials.into_iter().sum()
            }
            fn aggregate(&self, a: &u64, b: &u64) -> u64 {
                *a.min(b)
            }
            fn monotonic(&self, old: &u64, new: &u64) -> Option<bool> {
                Some(new <= old)
            }
        }
        let mut b = GraphBuilder::<(), f64>::new();
        for v in 0..3u64 {
            b.add_edge(v, v + 1, 1.0);
        }
        let g = b.build().unwrap();
        let assignment = grape_partition::RangePartitioner.partition(&g, 2);
        let engine = GrapeEngine::new(StrayOscillator).with_config(EngineConfig {
            check_monotonicity: true,
            ..Default::default()
        });
        let result = engine.run_on_graph(&(), &g, &assignment).unwrap();
        assert!(
            result.stats.monotonicity_violations > 0,
            "increasing non-border updates must be flagged"
        );
    }

    #[test]
    fn agreeing_proposals_ship_no_messages() {
        /// Both fragments propose the same constant for their borders: every
        /// interested fragment already holds the folded value, so the run
        /// must reach its fixpoint after PEval with zero messages shipped.
        struct ConstantProbe;
        impl PieProgram for ConstantProbe {
            type Query = ();
            type VertexData = ();
            type EdgeData = f64;
            type Value = u64;
            type Partial = usize;
            type Output = usize;
            fn peval(
                &self,
                _q: &(),
                fragment: &Fragment<(), f64>,
                ctx: &mut PieContext<u64>,
            ) -> usize {
                for &b in fragment.border_vertices() {
                    ctx.update(b, 7);
                }
                0
            }
            fn inceval(
                &self,
                _q: &(),
                _f: &Fragment<(), f64>,
                partial: &mut usize,
                messages: &[(u32, u64)],
                _ctx: &mut PieContext<u64>,
            ) {
                *partial += messages.len();
            }
            fn assemble(&self, partials: Vec<usize>) -> usize {
                partials.into_iter().sum()
            }
            fn aggregate(&self, a: &u64, b: &u64) -> u64 {
                *a.min(b)
            }
        }
        let mut b = GraphBuilder::<(), f64>::new();
        for v in 0..7u64 {
            b.add_edge(v, v + 1, 1.0);
        }
        let g = b.build().unwrap();
        let assignment = grape_partition::RangePartitioner.partition(&g, 2);
        let result = GrapeEngine::new(ConstantProbe)
            .run_on_graph(&(), &g, &assignment)
            .unwrap();
        assert_eq!(result.output, 0, "no IncEval message should be delivered");
        assert_eq!(result.stats.supersteps, 1);
    }

    /// The slot table as it was built before the merge: slots handed out by
    /// a `HashMap` in the order a scan of the fragments' borders first meets
    /// each vertex. Kept as the oracle of the exchange layout's numbering;
    /// returns the per-fragment slots and the `homes` masks.
    fn build_hashed(fragments: &[Fragment<(), f64>]) -> (Vec<Vec<u32>>, Vec<u64>) {
        let mut slot_of: HashMap<VertexId, u32> = HashMap::new();
        let mut fragment_slots: Vec<Vec<u32>> = Vec::with_capacity(fragments.len());
        for fragment in fragments {
            let mut local = Vec::new();
            for &v in fragment.border_vertices() {
                let next = slot_of.len() as u32;
                local.push(*slot_of.entry(v).or_insert(next));
            }
            fragment_slots.push(local);
        }
        let words_per_slot = fragments.len().div_ceil(64).max(1);
        let mut homes = vec![0u64; slot_of.len() * words_per_slot];
        for (f, local) in fragment_slots.iter().enumerate() {
            for &slot in local {
                homes[slot as usize * words_per_slot + f / 64] |= 1u64 << (f % 64);
            }
        }
        (fragment_slots, homes)
    }

    #[test]
    fn the_merge_built_slot_table_is_the_hash_built_one() {
        // A road grid plus isolated vertices: at large k some fragment draws
        // only isolated ones (or nothing) and has no border at all.
        let mut b = GraphBuilder::<(), f64>::new();
        let road = road_network(
            RoadNetworkConfig {
                width: 16,
                height: 16,
                ..Default::default()
            },
            4,
        )
        .unwrap();
        for (s, d, w) in road.edges() {
            b.add_edge(s, d, *w);
        }
        for v in 1000..1040u64 {
            b.ensure_vertex(v);
        }
        let g = b.build().unwrap();
        let mut empty_borders = 0;
        for &strategy in BuiltinStrategy::all() {
            for k in [1usize, 2, 4, 16, 64, 130] {
                let fragments = build_fragments(&g, &strategy.partition(&g, k));
                let layout = ExchangeLayout::of(&fragments);
                let fragment_slots: Vec<Vec<u32>> =
                    (0..k).map(|f| layout.border_slots(f).to_vec()).collect();
                let homes: Vec<u64> = (0..layout.num_slots() as u32)
                    .flat_map(|slot| layout.homes(slot).iter().copied())
                    .collect();
                let (expected_slots, expected_homes) = build_hashed(&fragments);
                assert_eq!(fragment_slots, expected_slots, "{strategy:?} k={k}");
                assert_eq!(homes, expected_homes, "{strategy:?} k={k}");
                assert_eq!(layout.words_per_slot(), k.div_ceil(64));
                empty_borders += fragments
                    .iter()
                    .filter(|f| f.border_vertices().is_empty())
                    .count();
            }
        }
        assert!(
            empty_borders > 0,
            "no fragment without a border was covered"
        );
    }

    #[test]
    fn workers_are_addressed_by_position_whatever_the_fragment_ids_say() {
        // `fragments[i]` is worker `i`'s, in the handshake as in every later
        // send. A reversed slice must route like the ordered one, and a
        // partial slice (ids 2 and 3 at positions 0 and 1) must not index
        // the routing tables by id.
        let g = barabasi_albert(300, 3, 9).unwrap();
        let mut fragments = build_fragments(&g, &HashPartitioner.partition(&g, 4));
        let engine = GrapeEngine::new(MinLabelCc);
        let ordered = engine.run(&(), &fragments).unwrap();
        let tail = engine.run(&(), &fragments[2..]).unwrap();
        assert_eq!(tail.stats.num_workers, 2);
        fragments.reverse();
        let layout = ExchangeLayout::of(&fragments);
        for position in 0..fragments.len() {
            for &slot in layout.border_slots(position) {
                assert_ne!(layout.homes(slot)[0] & (1 << position), 0);
            }
        }
        let reversed = engine.run(&(), &fragments).unwrap();
        assert_eq!(reversed.output, ordered.output);
        assert_eq!(reversed.stats.supersteps, ordered.stats.supersteps);
        assert_eq!(reversed.stats.messages, ordered.stats.messages);
    }

    #[test]
    fn a_position_past_the_border_is_dropped_before_inceval() {
        // A coordinator frame arrives over TCP in service mode; a position at
        // or past the fragment's border length must not reach the program as
        // an out-of-range index.
        let g = barabasi_albert(60, 2, 3).unwrap();
        let fragments = build_fragments(&g, &HashPartitioner.partition(&g, 2));
        let fragment = &fragments[0];
        let pool = Arc::new(ThreadPool::new(1));
        let mut worker = WorkerRuntime::new(&MinLabelCc, &(), fragment, pool, 0, None);
        assert!(matches!(
            worker.handle(CoordCommand::Init),
            HandleOutcome::Reply(_)
        ));
        let border = fragment.border_vertices().len() as u32;
        let last = border - 1;
        let updates = vec![(border, 0), (last, 0), (u32::MAX, 0)];
        let HandleOutcome::Reply(WorkerReport::Done { changes, .. }) =
            worker.handle(CoordCommand::IncEval {
                superstep: 1,
                updates,
            })
        else {
            panic!("IncEval replies");
        };
        // Only the fragment's own position was delivered — and adopted, so
        // the echo rule keeps it out of the report.
        assert_eq!(
            worker.partial.as_ref().unwrap()[&fragment.border_vertices()[last as usize]],
            0
        );
        assert!(changes.iter().all(|&(pos, _)| pos != last));
        // The coordinator drops a reported position past the border alike.
        let mut reported = vec![(border, 0u64), (last, 0), (u32::MAX, 0)];
        ExchangeLayout::of(&fragments).to_slots(0, &mut reported);
        assert_eq!(reported.len(), 1);
    }

    #[test]
    fn inceval_positions_name_the_routed_vertex_on_both_translation_forms() {
        /// PEval proposes `vertex * 100 + fragment` for every border vertex,
        /// so the fold (min) of a slot names its vertex; IncEval checks every
        /// delivered position against it. Both of the coordinator's
        /// translations are on the path: reported position → slot, and slot
        /// → the receiver's position.
        struct PositionProbe;
        impl PieProgram for PositionProbe {
            type Query = ();
            type VertexData = ();
            type EdgeData = f64;
            type Value = u64;
            type Partial = usize;
            type Output = usize;
            fn peval(
                &self,
                _q: &(),
                fragment: &Fragment<(), f64>,
                ctx: &mut PieContext<u64>,
            ) -> usize {
                for (pos, &b) in fragment.border_vertices().iter().enumerate() {
                    ctx.update_at(pos as u32, b * 100 + fragment.id as u64);
                }
                0
            }
            fn inceval(
                &self,
                _q: &(),
                fragment: &Fragment<(), f64>,
                delivered: &mut usize,
                messages: &[(u32, u64)],
                _ctx: &mut PieContext<u64>,
            ) {
                for &(pos, value) in messages {
                    assert_eq!(fragment.border_vertices()[pos as usize], value / 100);
                }
                *delivered += messages.len();
            }
            fn assemble(&self, partials: Vec<usize>) -> usize {
                partials.into_iter().sum()
            }
            fn aggregate(&self, a: &u64, b: &u64) -> u64 {
                *a.min(b)
            }
        }
        // 32 fragments of a 16x16 grid: early fragments draw compact slot
        // ranges, late ones a few slots scattered over the whole space, and
        // most vertices have homes beside the proposer.
        let g = road_network(
            RoadNetworkConfig {
                width: 16,
                height: 16,
                ..Default::default()
            },
            4,
        )
        .unwrap();
        let fragments = build_fragments(&g, &HashPartitioner.partition(&g, 32));
        let engine = GrapeEngine::new(PositionProbe).with_config(EngineConfig {
            execution: ExecutionMode::Inline,
            ..Default::default()
        });
        let result = engine.run(&(), &fragments).unwrap();
        assert_eq!(result.output, result.stats.history[0].published_updates);
        assert!(result.output > 0);
    }

    #[test]
    fn threaded_and_inline_execution_agree() {
        // Both drivers run the identical BSP exchange; answers, superstep
        // counts and message totals must match bit for bit.
        let g = barabasi_albert(400, 3, 5).unwrap();
        let assignment = HashPartitioner.partition(&g, 4);
        let mut results = Vec::new();
        for execution in [ExecutionMode::Threads, ExecutionMode::Inline] {
            let engine = GrapeEngine::new(MinLabelCc).with_config(EngineConfig {
                execution,
                ..Default::default()
            });
            results.push(engine.run_on_graph(&(), &g, &assignment).unwrap());
        }
        let (threaded, inline) = (&results[0], &results[1]);
        for v in g.vertices() {
            assert_eq!(threaded.output[&v], inline.output[&v], "vertex {v}");
        }
        assert_eq!(threaded.stats.supersteps, inline.stats.supersteps);
        assert_eq!(threaded.stats.messages, inline.stats.messages);
        assert_eq!(threaded.stats.bytes, inline.stats.bytes);
        assert_eq!(threaded.stats.num_workers, inline.stats.num_workers);
    }

    #[test]
    fn inline_execution_reports_serialized_critical_path() {
        // In inline mode the per-superstep critical path through evaluation
        // is the summed worker time, never less than any single worker's.
        let g = barabasi_albert(300, 3, 9).unwrap();
        let assignment = HashPartitioner.partition(&g, 4);
        let engine = GrapeEngine::new(MinLabelCc).with_config(EngineConfig {
            execution: ExecutionMode::Inline,
            ..Default::default()
        });
        let result = engine.run_on_graph(&(), &g, &assignment).unwrap();
        for trace in &result.stats.history {
            assert!(trace.total_eval_seconds >= trace.max_eval_seconds);
        }
        let summed: f64 = result
            .stats
            .history
            .iter()
            .map(|t| t.total_eval_seconds)
            .sum();
        assert!(result.stats.compute_seconds() <= summed + 1e-9);
    }

    #[test]
    fn handshake_ships_one_init_per_worker() {
        // Chain 0-1-2-3 split in two: superstep 0 carries exactly the two
        // Init handshakes plus the two PEval reports.
        let mut b = GraphBuilder::<(), f64>::new();
        for v in 0..3u64 {
            b.add_edge(v, v + 1, 1.0);
        }
        let g = b.build().unwrap();
        let assignment = grape_partition::RangePartitioner.partition(&g, 2);
        let result = GrapeEngine::new(MinLabelCc)
            .run_on_graph(&(), &g, &assignment)
            .unwrap();
        assert_eq!(
            result.stats.history[0].messages, 4,
            "2 Init + 2 PEval reports"
        );
    }

    /// The coordinator half over framed channels, with the worker halves on
    /// threads of their own — what a multi-process deployment runs.
    fn coordinate_apart(
        fragments: &[Fragment<(), f64>],
        recover: Option<&mut dyn FnMut(usize, u32) -> Result<(), String>>,
    ) -> Result<RunStats, RunError> {
        let stats = Arc::new(CommStats::new());
        let (coord, workers) = transport::framed_channel_pair::<u64>(fragments.len(), stats);
        std::thread::scope(|scope| {
            for (fragment, wt) in fragments.iter().zip(workers) {
                scope.spawn(move || run_worker(&MinLabelCc, &(), fragment, &wt, 1, 1, None));
            }
            GrapeEngine::new(MinLabelCc).run_coordinator(fragments, &coord, recover)
        })
    }

    #[test]
    fn the_coordinator_half_alone_matches_the_full_run() {
        let g = barabasi_albert(200, 2, 9).unwrap();
        let fragments = build_fragments(&g, &HashPartitioner.partition(&g, 3));
        let config = EngineConfig::builder()
            .transport(TransportKind::Framed)
            .checkpoint_every(1)
            .build();
        let whole = GrapeEngine::new(MinLabelCc)
            .with_config(config)
            .run(&(), &fragments)
            .unwrap();
        // With or without a recovery hook, an undisturbed run is the same
        // run: same supersteps, same frames, and the hook is never called.
        let plain = coordinate_apart(&fragments, None).unwrap();
        let mut hook = |worker: usize, _epoch: u32| -> Result<(), String> {
            panic!("nothing was lost, yet worker {worker} is being recovered")
        };
        let hooked = coordinate_apart(&fragments, Some(&mut hook)).unwrap();
        for stats in [&plain, &hooked] {
            assert_eq!(stats.supersteps, whole.stats.supersteps);
            assert_eq!(stats.messages, whole.stats.messages);
            assert_eq!(stats.bytes, whole.stats.bytes);
            assert_eq!(stats.recoveries, 0);
            assert_eq!(stats.num_workers, 3);
        }
    }

    #[test]
    fn the_coordinators_time_is_split_on_every_run_path() {
        // A chain cut into ranges: labels cross a boundary per superstep.
        let mut b = GraphBuilder::<(), f64>::new();
        for v in 0..64u64 {
            b.add_edge(v, v + 1, 1.0);
        }
        let g = b.build().unwrap();
        let fragments = build_fragments(&g, &grape_partition::RangePartitioner.partition(&g, 4));
        for execution in [ExecutionMode::Inline, ExecutionMode::Threads] {
            for transport in [TransportKind::InProcess, TransportKind::Framed] {
                let config = EngineConfig::builder()
                    .execution(execution)
                    .transport(transport)
                    .build();
                let stats = GrapeEngine::new(MinLabelCc)
                    .with_config(config)
                    .run(&(), &fragments)
                    .unwrap()
                    .stats;
                assert!(stats.supersteps > 1, "{execution:?}/{transport:?}");
                assert!(stats.gather_seconds > 0.0 && stats.send_seconds > 0.0);
                let inside = stats.gather_seconds
                    + stats.fold_seconds
                    + stats.route_seconds
                    + stats.send_seconds;
                assert!(inside <= stats.wall_time.as_secs_f64());
            }
        }
        let apart = coordinate_apart(&fragments, None).unwrap();
        assert!(apart.gather_seconds > 0.0 && apart.send_seconds > 0.0);
    }

    #[test]
    fn a_coordinator_without_fragments_is_an_error() {
        let err = coordinate_apart(&[], None).unwrap_err();
        assert_eq!(err, RunError::NoFragments);
    }

    #[test]
    fn published_updates_are_bounded_by_changed_slots() {
        // On a chain every border vertex lives on exactly two fragments, so
        // a changed slot is shipped to at most one non-proposer: publication
        // is O(changed), never a full-border rebroadcast.
        let mut b = GraphBuilder::<(), f64>::new();
        for v in 0..64u64 {
            b.add_edge(v, v + 1, 1.0);
        }
        let g = b.build().unwrap();
        let assignment = grape_partition::RangePartitioner.partition(&g, 8);
        let result = GrapeEngine::new(MinLabelCc)
            .run_on_graph(&(), &g, &assignment)
            .unwrap();
        let history = &result.stats.history;
        assert!(history.len() > 2, "chains need several supersteps");
        for trace in history {
            assert!(
                trace.published_updates <= trace.changed_slots,
                "superstep {}: shipped {} for {} changed slots",
                trace.superstep,
                trace.published_updates,
                trace.changed_slots
            );
        }
        // The final superstep reaches the fixpoint and ships nothing.
        assert_eq!(history.last().unwrap().published_updates, 0);
        // Earlier supersteps actually route updates.
        assert!(history[0].published_updates > 0);
    }

    #[test]
    fn statistics_history_is_consistent() {
        let g = road_network(
            RoadNetworkConfig {
                width: 16,
                height: 16,
                ..Default::default()
            },
            4,
        )
        .unwrap();
        let assignment = BuiltinStrategy::MetisLike.partition(&g, 4);
        let result = GrapeEngine::new(MinLabelCc)
            .run_on_graph(&(), &g, &assignment)
            .unwrap();
        let stats = &result.stats;
        assert_eq!(stats.history.len(), stats.supersteps);
        let history_messages: u64 = stats.history.iter().map(|t| t.messages).sum();
        assert_eq!(history_messages, stats.messages);
        assert!(stats.wall_time.as_secs_f64() > 0.0);
        assert!(stats.compute_seconds() >= stats.peval_seconds);
        // The first superstep involves every worker.
        assert_eq!(stats.history[0].active_workers, 4);
        assert!(!stats.summary().is_empty());
    }
}
