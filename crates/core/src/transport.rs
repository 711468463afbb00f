//! Pluggable transports between the coordinator and its workers.
//!
//! The BSP exchange of [`crate::GrapeEngine`] is expressed against two small
//! traits — [`CoordTransport`] (the coordinator's view: send commands, gather
//! reports) and [`WorkerTransport`] (a worker's view: receive commands, send
//! reports) — so the *same* engine drives three very different fabrics:
//!
//! * **Typed channels** ([`typed_channel_pair`]): the original in-process
//!   backend. Messages move as typed values through
//!   [`grape_comm::CommNetwork`]; byte accounting uses the
//!   [`MessageSize`] *estimates*.
//! * **Framed channels** ([`framed_channel_pair`]): every message is encoded
//!   into a length-prefixed wire frame ([`grape_comm::wire`]), moved as raw
//!   bytes, and decoded on the far side. Semantically identical to the typed
//!   backend — property tests pin the results bit-identical — but the byte
//!   accounting now reports **actual framed bytes** (payload + header), and
//!   every message round-trips through the exact codec a multi-process
//!   deployment uses.
//! * **Framed streams** ([`FramedStreamCoord`] / [`FramedStreamWorker`]):
//!   the same frames over `std::net` TCP or Unix-domain sockets, for workers
//!   that live in other OS processes (see the `grape-worker` binary).
//!
//! The engine picks between the first two via
//! [`crate::EngineConfig::transport`]; the stream transports are used with
//! [`crate::GrapeEngine::run_coordinator`] and [`crate::engine::run_worker`].

use crate::message::{CoordCommand, WorkerReport};
use grape_comm::wire::{self, Frame, Wire};
use grape_comm::{CommNetwork, CommStats, MessageSize, WorkerLink, COORDINATOR};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// A typed transport-level failure, surfaced by [`CoordTransport::failure`]
/// after a receive comes back empty: the coordinator lost contact with a
/// worker instead of reaching a normal end of stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// A worker disconnected mid-run or stayed silent past the configured
    /// read timeout.
    WorkerLost {
        /// Which worker was lost. `None` when the transport cannot tell (a
        /// read timeout fires without naming the silent worker); recovery
        /// then derives the lost set from who has not reported.
        worker: Option<usize>,
        /// Human-readable cause (disconnect, timeout, corrupt frame).
        reason: String,
    },
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::WorkerLost {
                worker: Some(w),
                reason,
            } => write!(f, "worker {w} lost: {reason}"),
            TransportError::WorkerLost {
                worker: None,
                reason,
            } => write!(f, "worker lost: {reason}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Default coordinator-side read timeout of the framed stream transport: how
/// long [`FramedStreamCoord::recv_blocking`] waits for the next report
/// before declaring the silent workers lost.
pub const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(30);

/// A timeout as every socket and every wait of the stream transports reads
/// it: `None` and a zero duration both wait forever. The OS refuses a zero
/// socket timeout, and a zero deadline would declare every worker lost
/// before it could speak, so zero gets the one meaning that works.
pub fn effective_timeout(timeout: Option<Duration>) -> Option<Duration> {
    timeout.filter(|t| !t.is_zero())
}

/// Which in-process transport backend the engine uses.
///
/// Both backends run the identical BSP exchange — same handshake, same
/// messages, same results — only the representation in flight differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// Typed values through in-process channels; byte accounting uses
    /// [`MessageSize`] estimates. The fastest backend.
    #[default]
    InProcess,
    /// Every message is encoded to a wire frame and decoded on arrival; byte
    /// accounting reports actual framed bytes. This is the codec-exercising
    /// backend — what a multi-process deployment ships, minus the kernel.
    Framed,
}

/// The coordinator's endpoint of a transport.
pub trait CoordTransport<V>: Send {
    /// Sends `command` to worker `worker`.
    fn send(&self, worker: usize, command: CoordCommand<V>);

    /// Blocks until at least one report arrives, then drains the rest.
    /// An empty vector means every worker has disconnected.
    fn recv_blocking(&self) -> Vec<(usize, WorkerReport<V>)>;

    /// Drains the reports that have already arrived, without blocking.
    fn drain(&self) -> Vec<(usize, WorkerReport<V>)>;

    /// The counters this transport records its traffic into.
    fn comm_stats(&self) -> Arc<CommStats>;

    /// The typed reason the last [`CoordTransport::recv_blocking`] came back
    /// empty, if the transport lost a worker (disconnect, read timeout).
    /// In-process channel backends never lose workers and keep the default.
    fn failure(&self) -> Option<TransportError> {
        None
    }

    /// Every failure the transport has recorded so far, so a recovering
    /// coordinator can treat same-superstep losses as one batch (one epoch
    /// bump and one replay wave per victim) instead of discovering them one
    /// gather round trip at a time. Defaults to at most the single failure
    /// reported by [`CoordTransport::failure`].
    fn failures(&self) -> Vec<TransportError> {
        self.failure().into_iter().collect()
    }
}

/// One worker's endpoint of a transport.
pub trait WorkerTransport<V>: Send {
    /// Sends `report` to the coordinator.
    fn send(&self, report: WorkerReport<V>);

    /// Blocks until at least one command arrives, then drains the rest.
    /// An empty vector means the coordinator has disconnected.
    fn recv_blocking(&self) -> Vec<CoordCommand<V>>;
}

/// A worker endpoint that can also be polled without blocking — required by
/// the engine's inline driver, which multiplexes every worker onto one
/// thread. Channel-backed transports implement it; socket streams do not.
pub trait DrainableWorkerTransport<V>: WorkerTransport<V> {
    /// Drains the commands that have already arrived, without blocking.
    fn drain(&self) -> Vec<CoordCommand<V>>;
}

// ---------------------------------------------------------------------------
// Typed in-process channels (the original backend).
// ---------------------------------------------------------------------------

/// Coordinator endpoint of the typed in-process backend.
#[derive(Debug)]
pub struct TypedChannelCoord<V> {
    down: WorkerLink<CoordCommand<V>>,
    up: WorkerLink<WorkerReport<V>>,
}

/// Worker endpoint of the typed in-process backend.
#[derive(Debug)]
pub struct TypedChannelWorker<V> {
    down: WorkerLink<CoordCommand<V>>,
    up: WorkerLink<WorkerReport<V>>,
}

/// Builds the typed in-process transport for `n` workers, recording into
/// `stats`.
pub fn typed_channel_pair<V: MessageSize + Send>(
    n: usize,
    stats: Arc<CommStats>,
) -> (TypedChannelCoord<V>, Vec<TypedChannelWorker<V>>) {
    let up = CommNetwork::<WorkerReport<V>>::with_stats(n, Arc::clone(&stats));
    let down = CommNetwork::<CoordCommand<V>>::with_stats(n, stats);
    let (up_coord, up_workers) = up.split();
    let (down_coord, down_workers) = down.split();
    let workers = down_workers
        .into_iter()
        .zip(up_workers)
        .map(|(down, up)| TypedChannelWorker { down, up })
        .collect();
    (
        TypedChannelCoord {
            down: down_coord,
            up: up_coord,
        },
        workers,
    )
}

impl<V: MessageSize + Send> CoordTransport<V> for TypedChannelCoord<V> {
    fn send(&self, worker: usize, command: CoordCommand<V>) {
        self.down.send(worker, command);
    }

    fn recv_blocking(&self) -> Vec<(usize, WorkerReport<V>)> {
        self.up
            .recv_blocking()
            .into_iter()
            .map(|env| (env.from, env.payload))
            .collect()
    }

    fn drain(&self) -> Vec<(usize, WorkerReport<V>)> {
        self.up
            .drain()
            .into_iter()
            .map(|env| (env.from, env.payload))
            .collect()
    }

    fn comm_stats(&self) -> Arc<CommStats> {
        Arc::clone(self.up.stats())
    }
}

impl<V: MessageSize + Send> WorkerTransport<V> for TypedChannelWorker<V> {
    fn send(&self, report: WorkerReport<V>) {
        self.up.send(COORDINATOR, report);
    }

    fn recv_blocking(&self) -> Vec<CoordCommand<V>> {
        self.down
            .recv_blocking()
            .into_iter()
            .map(|env| env.payload)
            .collect()
    }
}

impl<V: MessageSize + Send> DrainableWorkerTransport<V> for TypedChannelWorker<V> {
    fn drain(&self) -> Vec<CoordCommand<V>> {
        self.down
            .drain()
            .into_iter()
            .map(|env| env.payload)
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Framed in-process channels: encode → byte channel → decode.
// ---------------------------------------------------------------------------

/// Coordinator endpoint of the framed backend. Every command is encoded to a
/// [`Frame`] before the channel and every report decoded after it, so the
/// full wire codec is on the hot path and the recorded bytes are the actual
/// frame lengths.
#[derive(Debug)]
pub struct FramedChannelCoord<V> {
    down: WorkerLink<Frame>,
    up: WorkerLink<Frame>,
    _values: PhantomData<fn() -> V>,
}

/// Worker endpoint of the framed backend.
#[derive(Debug)]
pub struct FramedChannelWorker<V> {
    down: WorkerLink<Frame>,
    up: WorkerLink<Frame>,
    _values: PhantomData<fn() -> V>,
}

/// Builds the framed in-process transport for `n` workers, recording into
/// `stats` (actual framed bytes, not estimates).
pub fn framed_channel_pair<V: Wire + Send>(
    n: usize,
    stats: Arc<CommStats>,
) -> (FramedChannelCoord<V>, Vec<FramedChannelWorker<V>>) {
    let up = CommNetwork::<Frame>::with_stats(n, Arc::clone(&stats));
    let down = CommNetwork::<Frame>::with_stats(n, stats);
    let (up_coord, up_workers) = up.split();
    let (down_coord, down_workers) = down.split();
    let workers = down_workers
        .into_iter()
        .zip(up_workers)
        .map(|(down, up)| FramedChannelWorker {
            down,
            up,
            _values: PhantomData,
        })
        .collect();
    (
        FramedChannelCoord {
            down: down_coord,
            up: up_coord,
            _values: PhantomData,
        },
        workers,
    )
}

/// Framed channels are an in-process fabric: a frame that fails to decode is
/// an engine bug, not an I/O condition, so the decode path panics with the
/// wire error rather than threading `Result`s through the BSP loop.
fn expect_report<V: Wire>(frame: &Frame) -> WorkerReport<V> {
    WorkerReport::decode_frame(&frame.0)
        .expect("framed channel carried an undecodable report frame")
        .0
}

fn expect_command<V: Wire>(frame: &Frame) -> CoordCommand<V> {
    CoordCommand::decode_frame(&frame.0)
        .expect("framed channel carried an undecodable command frame")
        .0
}

impl<V: Wire + Send> CoordTransport<V> for FramedChannelCoord<V> {
    fn send(&self, worker: usize, command: CoordCommand<V>) {
        let mut bytes = Vec::new();
        command.encode_frame(&mut bytes);
        self.down.send(worker, Frame(bytes));
    }

    fn recv_blocking(&self) -> Vec<(usize, WorkerReport<V>)> {
        self.up
            .recv_blocking()
            .into_iter()
            .map(|env| (env.from, expect_report(&env.payload)))
            .collect()
    }

    fn drain(&self) -> Vec<(usize, WorkerReport<V>)> {
        self.up
            .drain()
            .into_iter()
            .map(|env| (env.from, expect_report(&env.payload)))
            .collect()
    }

    fn comm_stats(&self) -> Arc<CommStats> {
        Arc::clone(self.up.stats())
    }
}

impl<V: Wire + Send> WorkerTransport<V> for FramedChannelWorker<V> {
    fn send(&self, report: WorkerReport<V>) {
        let mut bytes = Vec::new();
        report.encode_frame(&mut bytes);
        self.up.send(COORDINATOR, Frame(bytes));
    }

    fn recv_blocking(&self) -> Vec<CoordCommand<V>> {
        self.down
            .recv_blocking()
            .into_iter()
            .map(|env| expect_command(&env.payload))
            .collect()
    }
}

impl<V: Wire + Send> DrainableWorkerTransport<V> for FramedChannelWorker<V> {
    fn drain(&self) -> Vec<CoordCommand<V>> {
        self.down
            .drain()
            .into_iter()
            .map(|env| expect_command(&env.payload))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Framed byte streams: the same frames over TCP / Unix-domain sockets.
// ---------------------------------------------------------------------------

/// A duplex byte stream that can be split into independently owned read and
/// write halves (both referring to the same connection), as `std::net`
/// sockets can via `try_clone`.
pub trait SplitStream: Read + Write + Send + Sized + 'static {
    /// Splits into `(read half, write half)`.
    fn split(self) -> io::Result<(Self, Self)>;

    /// Applies an OS-level read timeout to the underlying connection
    /// (`None` or zero = block forever, see [`effective_timeout`]). Lets a worker notice a vanished
    /// coordinator instead of waiting on a dead socket indefinitely.
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()>;
}

impl SplitStream for std::net::TcpStream {
    fn split(self) -> io::Result<(Self, Self)> {
        let read = self.try_clone()?;
        Ok((read, self))
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        std::net::TcpStream::set_read_timeout(self, effective_timeout(timeout))
    }
}

#[cfg(unix)]
impl SplitStream for std::os::unix::net::UnixStream {
    fn split(self) -> io::Result<(Self, Self)> {
        let read = self.try_clone()?;
        Ok((read, self))
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        std::os::unix::net::UnixStream::set_read_timeout(self, effective_timeout(timeout))
    }
}

/// An out-of-band frame received by [`FramedStreamCoord`]: a frame whose tag
/// the BSP protocol does not know, surfaced raw so higher-level drivers can
/// run side protocols (e.g. the `grape-worker` result digests) over the same
/// connection.
pub type OobFrame = (usize, u8, Vec<u8>);

enum StreamEvent<V> {
    Report(usize, WorkerReport<V>),
    Oob(OobFrame),
    /// The worker's reader thread exited (EOF, I/O error, or a corrupt
    /// frame). Carries the epoch the reader was serving: a replaced
    /// connection's reader exits *after* the replacement took over, and its
    /// stale epoch tells the coordinator to ignore the hang-up.
    Disconnected(usize, u32),
}

/// Coordinator endpoint over framed byte streams (one stream per worker).
///
/// One reader thread per connection decodes incoming frames; report frames
/// feed the BSP loop, any other tag is parked on an out-of-band queue
/// ([`FramedStreamCoord::recv_oob_blocking`]). Sends go straight to the
/// connection's buffered writer. Bytes recorded in the [`CommStats`] are the
/// actual frame lengths, both directions.
pub struct FramedStreamCoord<V> {
    writers: Vec<Mutex<BufWriter<Box<dyn Write + Send>>>>,
    inbox: std::sync::mpsc::Receiver<StreamEvent<V>>,
    /// Kept so [`FramedStreamCoord::replace_worker`] can hand new reader
    /// threads their event channel. Because the struct holds a sender, the
    /// inbox never "disconnects"; end-of-traffic is tracked by `live`.
    tx: std::sync::mpsc::Sender<StreamEvent<V>>,
    oob: Mutex<Vec<OobFrame>>,
    /// Sticky until recovered: which workers were lost while the BSP loop
    /// still ran (mid-run disconnects, or silence past `read_timeout`).
    /// While non-empty, `recv_blocking` returns empty immediately so the
    /// coordinator surfaces a typed [`TransportError`] instead of waiting
    /// forever for a report that cannot come;
    /// [`FramedStreamCoord::replace_worker`] clears the replaced worker's
    /// entries.
    failures: Mutex<Vec<TransportError>>,
    /// Per-worker connection epoch. Frames stamped with any other epoch are
    /// fenced (dropped + counted) by the reader threads; sends stamp the
    /// current value.
    epochs: Vec<Arc<AtomicU32>>,
    /// Frames dropped because their epoch did not match the connection's.
    fenced: Arc<AtomicU64>,
    /// Reader threads still running; when it reaches zero every connection
    /// has closed and `recv_oob_blocking` can report end-of-traffic.
    live: Arc<AtomicUsize>,
    /// How long `recv_blocking` waits for the next report before declaring
    /// the silent workers lost; `None` waits indefinitely.
    read_timeout: Option<Duration>,
    stats: Arc<CommStats>,
}

impl<V: Wire + Send + 'static> FramedStreamCoord<V> {
    /// Wraps `streams` (one accepted connection per worker, in worker
    /// order), spawning a reader thread per connection. All connections
    /// start at epoch 0.
    pub fn new<S: SplitStream>(streams: Vec<S>, stats: Arc<CommStats>) -> io::Result<Self> {
        Self::new_at_epoch(streams, stats, 0)
    }

    /// [`FramedStreamCoord::new`] with every connection starting at `epoch`
    /// instead of 0 — the service path, where each query's connections are
    /// fenced by its own run id. The epoch must be a constructor parameter
    /// (not a post-hoc setter) because each reader thread captures it for
    /// the `StreamEvent::Disconnected` it emits: a reader spawned at the
    /// wrong epoch would report a loss the coordinator then ignores as
    /// stale, turning a fast worker-loss signal into a read-timeout stall.
    pub fn new_at_epoch<S: SplitStream>(
        streams: Vec<S>,
        stats: Arc<CommStats>,
        epoch: u32,
    ) -> io::Result<Self> {
        let (tx, rx) = std::sync::mpsc::channel();
        let n = streams.len();
        let coord = Self {
            writers: Vec::new(),
            inbox: rx,
            tx,
            oob: Mutex::new(Vec::new()),
            failures: Mutex::new(Vec::new()),
            epochs: (0..n).map(|_| Arc::new(AtomicU32::new(epoch))).collect(),
            fenced: Arc::new(AtomicU64::new(0)),
            live: Arc::new(AtomicUsize::new(0)),
            read_timeout: Some(DEFAULT_READ_TIMEOUT),
            stats,
        };
        let mut coord = coord;
        for (worker, stream) in streams.into_iter().enumerate() {
            let (read_half, write_half) = stream.split()?;
            coord.writers.push(Mutex::new(BufWriter::new(
                Box::new(write_half) as Box<dyn Write + Send>
            )));
            coord.spawn_reader(worker, read_half, epoch);
        }
        Ok(coord)
    }

    /// Spawns the reader thread serving `worker`'s connection at `epoch`.
    /// Frames stamped with a different epoch are fenced: dropped, counted,
    /// never delivered.
    fn spawn_reader<R: Read + Send + 'static>(&self, worker: usize, read_half: R, epoch: u32) {
        let tx = self.tx.clone();
        let stats = Arc::clone(&self.stats);
        let expected = Arc::clone(&self.epochs[worker]);
        let fenced = Arc::clone(&self.fenced);
        let live = Arc::clone(&self.live);
        live.fetch_add(1, Ordering::SeqCst);
        std::thread::spawn(move || {
            let mut reader = BufReader::new(read_half);
            while let Ok(Some((tag, frame_epoch, body))) = wire::read_frame_io_epoch(&mut reader) {
                stats.record(1, (wire::HEADER_LEN + body.len()) as u64);
                // Epoch fence: a frame from a connection that has since been
                // replaced (or any mis-stamped frame) must not reach the BSP
                // loop — a stale report would corrupt the replayed superstep.
                if frame_epoch != expected.load(Ordering::SeqCst) {
                    fenced.fetch_add(1, Ordering::SeqCst);
                    eprintln!(
                        "coordinator: fenced stale frame (tag {tag:#04x}, epoch {frame_epoch}) \
                         from worker {worker}"
                    );
                    continue;
                }
                let event = if tag == crate::message::TAG_REPORT {
                    match WorkerReport::<V>::decode_body(tag, &body) {
                        Ok(report) => StreamEvent::Report(worker, report),
                        Err(err) => {
                            eprintln!(
                                "coordinator: corrupt report frame from worker {worker}: {err}"
                            );
                            break;
                        }
                    }
                } else {
                    // Frames outside the BSP protocol go to the driver.
                    StreamEvent::Oob((worker, tag, body))
                };
                if tx.send(event).is_err() {
                    live.fetch_sub(1, Ordering::SeqCst);
                    return; // Coordinator gone; stop reading.
                }
            }
            // EOF, I/O error or corrupt frame: tell the coordinator this
            // worker is gone so it never blocks on a report from it. The
            // decrement happens first so a receiver woken by the event
            // observes the updated count.
            live.fetch_sub(1, Ordering::SeqCst);
            let _ = tx.send(StreamEvent::Disconnected(worker, epoch));
        });
    }

    /// Replaces `worker`'s connection with a fresh stream at `epoch`
    /// (recovery): future sends are stamped with the new epoch, frames still
    /// in flight from the old connection are fenced, and the worker's
    /// recorded failures are forgotten so the BSP loop can resume.
    pub fn replace_worker<S: SplitStream>(
        &self,
        worker: usize,
        stream: S,
        epoch: u32,
    ) -> io::Result<()> {
        let (read_half, write_half) = stream.split()?;
        self.epochs[worker].store(epoch, Ordering::SeqCst);
        *self.writers[worker].lock().unwrap() =
            BufWriter::new(Box::new(write_half) as Box<dyn Write + Send>);
        self.spawn_reader(worker, read_half, epoch);
        // Forget this worker's failures, and any anonymous timeout failures
        // (the recovery layer re-derives who is still silent, if anyone).
        self.failures.lock().unwrap().retain(|f| match f {
            TransportError::WorkerLost { worker: w, .. } => *w != Some(worker) && w.is_some(),
        });
        Ok(())
    }

    /// How many frames the reader threads dropped because their epoch did
    /// not match the connection's — stale traffic from before a recovery.
    pub fn fenced_frames(&self) -> u64 {
        self.fenced.load(Ordering::SeqCst)
    }

    /// The epoch `worker`'s connection currently runs at.
    pub fn worker_epoch(&self, worker: usize) -> u32 {
        self.epochs[worker].load(Ordering::SeqCst)
    }

    /// Overrides the coordinator-side read timeout (default
    /// [`DEFAULT_READ_TIMEOUT`]); `None` or zero restores the historical
    /// wait-forever behavior.
    pub fn with_read_timeout(mut self, timeout: Option<Duration>) -> Self {
        self.read_timeout = effective_timeout(timeout);
        self
    }

    /// Records a lost-worker failure (deduplicated per worker).
    fn record_failure(&self, worker: Option<usize>, reason: String) {
        let mut failures = self.failures.lock().unwrap();
        let duplicate = failures
            .iter()
            .any(|TransportError::WorkerLost { worker: w, .. }| *w == worker);
        if !duplicate {
            failures.push(TransportError::WorkerLost { worker, reason });
        }
    }

    fn sort_event(&self, event: StreamEvent<V>, out: &mut Vec<(usize, WorkerReport<V>)>) {
        match event {
            StreamEvent::Report(from, report) => out.push((from, report)),
            StreamEvent::Oob(frame) => self.oob.lock().unwrap().push(frame),
            // During the BSP loop a vanished worker is fatal (until
            // recovered): remember it so every later receive fails fast
            // instead of blocking. (This arm only runs mid-loop — post-run
            // hang-ups go through `recv_oob_blocking`, which treats them as
            // normal.) A hang-up from a *replaced* connection's reader is
            // expected and carries a stale epoch: ignore it.
            StreamEvent::Disconnected(worker, epoch) => {
                if epoch == self.epochs[worker].load(Ordering::SeqCst) {
                    eprintln!("coordinator: worker {worker} disconnected mid-run");
                    self.record_failure(
                        Some(worker),
                        format!("worker {worker} disconnected mid-run"),
                    );
                }
            }
        }
    }

    /// Blocks until an out-of-band frame (any non-report tag) arrives from
    /// any worker. Returns `Ok(None)` when every connection has closed first.
    /// (Connection closes are expected here — this runs after the BSP loop,
    /// when workers finish and hang up.) Like a report, the frame must come
    /// within the read timeout ([`FramedStreamCoord::with_read_timeout`]):
    /// silence past it is a [`TransportError::WorkerLost`] naming no worker.
    pub fn recv_oob_blocking(&self) -> Result<Option<OobFrame>, TransportError> {
        let deadline = self.read_timeout.map(|t| Instant::now() + t);
        loop {
            if let Some(frame) = {
                let mut oob = self.oob.lock().unwrap();
                if oob.is_empty() {
                    None
                } else {
                    Some(oob.remove(0))
                }
            } {
                return Ok(Some(frame));
            }
            // The struct itself holds a sender, so the channel never
            // disconnects on its own: once the last reader has exited, drain
            // what is queued and then report end-of-traffic.
            if self.live.load(Ordering::SeqCst) == 0 {
                match self.inbox.try_recv() {
                    Ok(StreamEvent::Oob(frame)) => return Ok(Some(frame)),
                    Ok(_) => continue,
                    Err(_) => return Ok(None),
                }
            }
            let event = match deadline {
                Some(deadline) => {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    match self.inbox.recv_timeout(remaining) {
                        Ok(event) => event,
                        Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                            return Err(TransportError::WorkerLost {
                                worker: None,
                                reason: format!(
                                    "no out-of-band frame within the {:?} read timeout",
                                    self.read_timeout.expect("deadline implies timeout")
                                ),
                            })
                        }
                        Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return Ok(None),
                    }
                }
                None => match self.inbox.recv() {
                    Ok(event) => event,
                    Err(_) => return Ok(None),
                },
            };
            match event {
                StreamEvent::Oob(frame) => return Ok(Some(frame)),
                StreamEvent::Report(from, _) => {
                    // A late report while waiting for OOB traffic would be a
                    // protocol error by the worker; drop it loudly.
                    eprintln!("discarding post-run report from worker {from}");
                }
                // Normal post-run hang-up; the `live` check above notices
                // when the last reader is gone.
                StreamEvent::Disconnected(..) => {}
            }
        }
    }
}

impl<V: Wire + Send + 'static> CoordTransport<V> for FramedStreamCoord<V> {
    fn send(&self, worker: usize, command: CoordCommand<V>) {
        let mut frame = Vec::new();
        command.encode_frame_epoch(self.epochs[worker].load(Ordering::SeqCst), &mut frame);
        let mut writer = self.writers[worker].lock().unwrap();
        // A vanished worker surfaces as an empty recv later; sends must not
        // panic mid-superstep.
        if writer
            .write_all(&frame)
            .and_then(|_| writer.flush())
            .is_ok()
        {
            self.stats.record(1, frame.len() as u64);
        }
    }

    fn recv_blocking(&self) -> Vec<(usize, WorkerReport<V>)> {
        let mut out = Vec::new();
        // A worker already died mid-run: fail fast (the coordinator turns
        // the empty receive into a typed Transport error) instead of waiting
        // for a report that can never arrive. If recovery replaced the
        // worker, `replace_worker` cleared its entry and we proceed.
        if !self.failures.lock().unwrap().is_empty() {
            return out;
        }
        let deadline = self.read_timeout.map(|t| Instant::now() + t);
        while out.is_empty() && self.failures.lock().unwrap().is_empty() {
            let event = if let Some(deadline) = deadline {
                let remaining = deadline.saturating_duration_since(Instant::now());
                match self.inbox.recv_timeout(remaining) {
                    Ok(event) => event,
                    Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                        // The transport cannot tell which worker went silent;
                        // `worker: None` lets recovery derive the set from
                        // who has not reported this superstep.
                        self.record_failure(
                            None,
                            format!(
                                "no report within the {:?} read timeout",
                                self.read_timeout.expect("deadline implies timeout")
                            ),
                        );
                        return out;
                    }
                    // Every reader thread has exited.
                    Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => return out,
                }
            } else {
                match self.inbox.recv() {
                    Ok(event) => event,
                    Err(_) => return out, // every reader thread has exited
                }
            };
            self.sort_event(event, &mut out);
        }
        while let Ok(event) = self.inbox.try_recv() {
            self.sort_event(event, &mut out);
        }
        out
    }

    fn drain(&self) -> Vec<(usize, WorkerReport<V>)> {
        let mut out = Vec::new();
        while let Ok(event) = self.inbox.try_recv() {
            self.sort_event(event, &mut out);
        }
        out
    }

    fn comm_stats(&self) -> Arc<CommStats> {
        Arc::clone(&self.stats)
    }

    fn failure(&self) -> Option<TransportError> {
        self.failures.lock().unwrap().first().cloned()
    }

    fn failures(&self) -> Vec<TransportError> {
        self.failures.lock().unwrap().clone()
    }
}

/// Worker endpoint over one framed byte stream to the coordinator.
pub struct FramedStreamWorker<V> {
    reader: Mutex<BufReader<Box<dyn Read + Send>>>,
    writer: Mutex<BufWriter<Box<dyn Write + Send>>>,
    /// Why the command stream ended, when it ended without a Finish: the
    /// error text, or the bare close. `recv_blocking` must return an empty
    /// batch in both cases (the worker loop's stop signal), but drivers need
    /// to distinguish "run complete" from "run torn down" before reporting
    /// success — see [`FramedStreamWorker::disconnect_reason`].
    disconnect: Mutex<Option<String>>,
    /// The connection epoch: stamps every outgoing frame, and incoming
    /// command frames with any other epoch are fenced (dropped + counted).
    /// A worker spawned during recovery runs at the bumped run epoch.
    epoch: u32,
    /// Command frames dropped because their epoch did not match.
    fenced: AtomicU64,
    stats: Arc<CommStats>,
    _values: PhantomData<fn() -> V>,
}

impl<V: Wire + Send> FramedStreamWorker<V> {
    /// Wraps the worker's connection to the coordinator, at epoch 0.
    pub fn new<S: SplitStream>(stream: S, stats: Arc<CommStats>) -> io::Result<Self> {
        let (read_half, write_half) = stream.split()?;
        Ok(Self {
            reader: Mutex::new(BufReader::new(Box::new(read_half) as Box<dyn Read + Send>)),
            writer: Mutex::new(BufWriter::new(Box::new(write_half) as Box<dyn Write + Send>)),
            disconnect: Mutex::new(None),
            epoch: 0,
            fenced: AtomicU64::new(0),
            stats: stats.clone(),
            _values: PhantomData,
        })
    }

    /// Sets the connection epoch this endpoint speaks (outgoing frames are
    /// stamped with it; incoming frames at other epochs are fenced).
    pub fn with_epoch(mut self, epoch: u32) -> Self {
        self.epoch = epoch;
        self
    }

    /// How many incoming command frames were fenced for carrying a stale
    /// epoch.
    pub fn fenced_frames(&self) -> u64 {
        self.fenced.load(Ordering::SeqCst)
    }

    /// This endpoint's communication counters (frames and actual bytes, both
    /// directions).
    pub fn comm_stats(&self) -> Arc<CommStats> {
        Arc::clone(&self.stats)
    }

    /// Why the command stream ended, if it ended *without* a Finish command:
    /// a connection error, an undecodable frame, or a bare close. `None`
    /// while the stream is healthy — i.e. after a clean Finish-terminated
    /// run. Drivers must check this before treating a finished worker loop
    /// as a successful run.
    pub fn disconnect_reason(&self) -> Option<String> {
        self.disconnect.lock().unwrap().clone()
    }

    /// Sends a raw out-of-band frame (any tag outside the BSP protocol) to
    /// the coordinator, stamped with this endpoint's epoch, for driver-level
    /// side protocols.
    pub fn send_oob<T: Wire>(&self, tag: u8, value: &T) -> io::Result<()> {
        let mut writer = self.writer.lock().unwrap();
        let written = wire::write_frame_io_epoch(&mut *writer, tag, self.epoch, value)?;
        writer.flush()?;
        self.stats.record(1, written as u64);
        Ok(())
    }
}

impl<V: Wire + Send> WorkerTransport<V> for FramedStreamWorker<V> {
    fn send(&self, report: WorkerReport<V>) {
        let mut frame = Vec::new();
        report.encode_frame_epoch(self.epoch, &mut frame);
        let mut writer = self.writer.lock().unwrap();
        if writer
            .write_all(&frame)
            .and_then(|_| writer.flush())
            .is_ok()
        {
            self.stats.record(1, frame.len() as u64);
        }
    }

    fn recv_blocking(&self) -> Vec<CoordCommand<V>> {
        let mut reader = self.reader.lock().unwrap();
        // The empty batch is the worker loop's stop signal; record *why* the
        // stream ended so the driver can tell a torn-down run from success.
        let reason = loop {
            match wire::read_frame_io_epoch(&mut *reader) {
                Ok(Some((tag, frame_epoch, body))) => {
                    self.stats.record(1, (wire::HEADER_LEN + body.len()) as u64);
                    // Epoch fence: a command stamped for another run epoch
                    // (e.g. written just before this worker's connection was
                    // replaced) must not be executed.
                    if frame_epoch != self.epoch {
                        self.fenced.fetch_add(1, Ordering::SeqCst);
                        eprintln!(
                            "worker: fenced stale command frame (tag {tag:#04x}, epoch \
                             {frame_epoch}, expected {})",
                            self.epoch
                        );
                        continue;
                    }
                    match CoordCommand::decode_body(tag, &body) {
                        Ok(command) => return vec![command],
                        Err(err) => break format!("undecodable command frame: {err}"),
                    }
                }
                Ok(None) => break "connection closed before Finish".to_string(),
                Err(err) => break format!("connection error: {err}"),
            }
        };
        eprintln!("worker: {reason}");
        *self.disconnect.lock().unwrap() = Some(reason);
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(superstep: usize, changes: Vec<(u32, f64)>) -> WorkerReport<f64> {
        WorkerReport::Done {
            superstep,
            changes,
            strays: vec![],
            checkpoint: None,
            eval_seconds: 0.0,
        }
    }

    #[test]
    fn typed_and_framed_channel_pairs_deliver_identically() {
        for kind in [TransportKind::InProcess, TransportKind::Framed] {
            let stats = Arc::new(CommStats::new());
            let command = CoordCommand::IncEval {
                superstep: 1,
                updates: vec![(0u32, 1.5f64), (3, 2.5)],
            };
            let sent_report = report(1, vec![(7, 0.5)]);
            let (got_commands, got_reports, bytes) = match kind {
                TransportKind::InProcess => {
                    let (coord, workers) = typed_channel_pair::<f64>(2, Arc::clone(&stats));
                    coord.send(1, command.clone());
                    let got = workers[1].drain();
                    workers[1].send(sent_report.clone());
                    (got, coord.recv_blocking(), stats.bytes())
                }
                TransportKind::Framed => {
                    let (coord, workers) = framed_channel_pair::<f64>(2, Arc::clone(&stats));
                    coord.send(1, command.clone());
                    let got = workers[1].drain();
                    workers[1].send(sent_report.clone());
                    (got, coord.recv_blocking(), stats.bytes())
                }
            };
            assert_eq!(got_commands, vec![command.clone()]);
            assert_eq!(got_reports, vec![(1usize, sent_report.clone())]);
            match kind {
                // Estimated: payload sizes only.
                TransportKind::InProcess => assert_eq!(
                    bytes,
                    (command.size_bytes() + sent_report.size_bytes()) as u64
                ),
                // Actual: payload + per-message wire overhead.
                TransportKind::Framed => assert_eq!(
                    bytes,
                    (command.size_bytes()
                        + CoordCommand::<f64>::WIRE_OVERHEAD
                        + sent_report.size_bytes()
                        + WorkerReport::<f64>::WIRE_OVERHEAD) as u64
                ),
            }
        }
    }

    #[test]
    fn a_lost_worker_fails_the_receive_instead_of_hanging() {
        // Two workers; one dies mid-run while the other stays connected.
        // recv_blocking must fail fast (empty batch → the engine's
        // WorkerPanic) rather than block forever on the survivor's channel.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let dead = std::thread::spawn(move || {
            // Connects and hangs up without ever reporting.
            drop(std::net::TcpStream::connect(addr).unwrap());
        });
        let survivor_conn = std::net::TcpStream::connect(addr).unwrap();
        let survivor =
            FramedStreamWorker::<f64>::new(survivor_conn, Arc::new(CommStats::new())).unwrap();
        let mut streams = Vec::new();
        for _ in 0..2 {
            streams.push(listener.accept().unwrap().0);
        }
        let coord = FramedStreamCoord::<f64>::new(streams, Arc::new(CommStats::new())).unwrap();
        dead.join().unwrap();
        // Wait until the disconnect has been noticed (first call may still
        // deliver nothing but must not block forever).
        let got = coord.recv_blocking();
        assert!(got.is_empty(), "no worker reported anything: {got:?}");
        // Sticky: every later receive fails immediately too, and the reason
        // is typed.
        assert!(coord.recv_blocking().is_empty());
        assert!(matches!(
            coord.failure(),
            Some(TransportError::WorkerLost { worker: Some(_), reason }) if reason.contains("disconnected")
        ));
        drop(survivor);
    }

    #[test]
    fn a_silent_worker_times_out_with_a_typed_error() {
        // The "worker" connects but never speaks the protocol: without a
        // read timeout the coordinator would block forever. With one, the
        // receive must come back empty within the deadline and failure()
        // must carry the typed reason.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let silent = std::net::TcpStream::connect(addr).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let timeout = Duration::from_millis(200);
        let coord = FramedStreamCoord::<f64>::new(vec![accepted], Arc::new(CommStats::new()))
            .unwrap()
            .with_read_timeout(Some(timeout));
        let started = Instant::now();
        let got = coord.recv_blocking();
        let elapsed = started.elapsed();
        assert!(got.is_empty());
        assert!(
            elapsed >= timeout && elapsed < timeout + Duration::from_secs(5),
            "timed out after {elapsed:?} with a {timeout:?} deadline"
        );
        assert!(matches!(
            coord.failure(),
            Some(TransportError::WorkerLost { worker: None, reason }) if reason.contains("read timeout")
        ));
        // Sticky: later receives fail fast, well under the deadline.
        let started = Instant::now();
        assert!(coord.recv_blocking().is_empty());
        assert!(started.elapsed() < timeout);
        drop(silent);
    }

    #[test]
    fn stale_epoch_frames_are_fenced_not_delivered() {
        // A worker still speaking the pre-recovery epoch sends a report
        // *after* the coordinator bumped the connection epoch via
        // replace_worker. The report must be dropped (fenced + counted),
        // never delivered to the BSP loop — this is the proof obligation
        // behind "stale frames from the pre-recovery epoch are provably
        // dropped".
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stale_conn = std::net::TcpStream::connect(addr).unwrap();
        let (stale_accepted, _) = listener.accept().unwrap();
        let coord = FramedStreamCoord::<f64>::new(vec![stale_accepted], Arc::new(CommStats::new()))
            .unwrap()
            .with_read_timeout(Some(Duration::from_millis(300)));

        // Recovery: replace worker 0 with a fresh connection at epoch 1.
        let fresh_conn = std::net::TcpStream::connect(addr).unwrap();
        let (fresh_accepted, _) = listener.accept().unwrap();
        coord.replace_worker(0, fresh_accepted, 1).unwrap();
        assert_eq!(coord.worker_epoch(0), 1);

        // The stale endpoint (still epoch 0) reports — into the fence.
        let stale = FramedStreamWorker::<f64>::new(stale_conn, Arc::new(CommStats::new())).unwrap();
        stale.send(report(3, vec![(2, 4.5)]));
        // The fresh endpoint (epoch 1) reports — delivered.
        let fresh = FramedStreamWorker::<f64>::new(fresh_conn, Arc::new(CommStats::new()))
            .unwrap()
            .with_epoch(1);
        fresh.send(report(3, vec![(9, 1.25)]));

        let mut got = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        while got.is_empty() && Instant::now() < deadline {
            got.extend(coord.recv_blocking());
        }
        assert_eq!(got, vec![(0usize, report(3, vec![(9, 1.25)]))]);
        // Wait for the stale frame to have hit the fence (reader threads run
        // concurrently; the frame may arrive after the fresh one).
        let deadline = Instant::now() + Duration::from_secs(10);
        while coord.fenced_frames() == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(coord.fenced_frames(), 1, "stale report fenced exactly once");
        assert!(coord.drain().is_empty(), "fenced frame never delivered");
    }

    #[test]
    fn workers_fence_commands_from_other_epochs() {
        // The mirror direction: a worker running at epoch 1 must drop a
        // command stamped with epoch 0 and keep listening.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let conn = std::net::TcpStream::connect(addr).unwrap();
        let (accepted, _) = listener.accept().unwrap();
        let worker = FramedStreamWorker::<f64>::new(conn, Arc::new(CommStats::new()))
            .unwrap()
            .with_epoch(1);
        let mut writer = BufWriter::new(accepted);
        let stale = CoordCommand::<f64>::Finish;
        let current = CoordCommand::<f64>::IncEval {
            superstep: 4,
            updates: vec![(0, 1.5)],
        };
        let mut bytes = Vec::new();
        stale.encode_frame_epoch(0, &mut bytes); // pre-recovery epoch
        current.encode_frame_epoch(1, &mut bytes);
        writer.write_all(&bytes).unwrap();
        writer.flush().unwrap();
        // One receive call: the stale Finish is skipped, the IncEval
        // delivered.
        assert_eq!(worker.recv_blocking(), vec![current]);
        assert_eq!(worker.fenced_frames(), 1);
    }

    #[test]
    fn framed_streams_round_trip_over_tcp() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let stream = std::net::TcpStream::connect(addr).unwrap();
            let worker =
                FramedStreamWorker::<f64>::new(stream, Arc::new(CommStats::new())).unwrap();
            let commands = worker.recv_blocking();
            assert_eq!(commands.len(), 1);
            worker.send(report(0, vec![(1, 9.0)]));
            worker.send_oob(0x77, &String::from("digest")).unwrap();
            // The coordinator releases the worker with Finish; the worker
            // exits and its socket close unblocks the reader thread.
            assert_eq!(worker.recv_blocking(), vec![CoordCommand::Finish]);
        });
        let (accepted, _) = listener.accept().unwrap();
        let stats = Arc::new(CommStats::new());
        let coord = FramedStreamCoord::<f64>::new(vec![accepted], Arc::clone(&stats)).unwrap();
        coord.send(0, CoordCommand::Init);
        let reports = coord.recv_blocking();
        assert_eq!(reports, vec![(0usize, report(0, vec![(1, 9.0)]))]);
        let (from, tag, body) = coord.recv_oob_blocking().unwrap().unwrap();
        assert_eq!((from, tag), (0, 0x77));
        let mut reader = wire::WireReader::new(&body);
        assert_eq!(String::decode(&mut reader).unwrap(), "digest");
        // Both directions were recorded with their actual frame lengths.
        assert_eq!(stats.messages(), 3);
        coord.send(0, CoordCommand::Finish);
        client.join().unwrap();
    }
}
