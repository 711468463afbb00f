//! The job protocol and both of its ends: resident fragments, a unified
//! session API, and concurrent-query serving.
//!
//! There is one protocol for shipping work to a worker, and everything in
//! this crate speaks it — a resident daemon serving many sessions, and the
//! batch CLI, whose run is a one-query session whose workers dial in:
//!
//! * [`GrapeService`] is the daemon: it accepts framed TCP (or Unix-domain)
//!   connections, loads shipped fragments **once** into a registry keyed by
//!   graph id, and then serves a stream of typed [`Query`] submissions over
//!   those resident fragments — each query a fresh BSP session fenced by its
//!   own run id in the wire epoch header. A dialled-in batch worker
//!   ([`crate::run_worker`]) runs the same frame loop over a private
//!   one-connection registry.
//! * [`Session`] is the client facade, `connect → load → submit`:
//!   [`Session::connect`] dials the daemons it is given — or, given none,
//!   spawns a private one in this process, bound with a token only the
//!   session knows, so every session runs the same code —
//!   [`Session::load`] partitions and ships a graph once,
//!   and [`Session::submit`] returns a [`QueryHandle`] whose
//!   [`QueryHandle::join`] yields the typed [`QueryResult`] plus per-query
//!   [`RunStats`]. Queries of different classes run concurrently over the
//!   same loaded fragments; results are bit-identical to cold one-shot runs.
//!   The batch coordinator ([`crate::run_coordinator`]) drives the same
//!   open → drive → collect loop over connections it accepted.
//!
//! ## Protocol
//!
//! Whoever dials sends one [`TAG_HELLO`] frame carrying its
//! `Option<String>` auth token; the accepting side validates it (a
//! mismatched or missing token is a typed `PermissionDenied` error) before
//! anything else happens. A session dials the daemon; a batch worker dials
//! the coordinator. After that the coordinator side sends and the worker
//! side answers:
//!
//! 1. `TAG_LOAD` carries a [`LoadSpec`] naming the graph id, payload family,
//!    fragment index and global vertex count, immediately followed by one
//!    [`TAG_FRAGMENT`] frame at the same epoch shipping the fragment itself
//!    (CSR edges, border tables, payloads — workers never regenerate the
//!    graph). The worker stores the fragment in its registry and acks with
//!    `TAG_LOADED`.
//! 2. `TAG_QUERY` carries a [`QueryJob`] — the typed query, its run id and,
//!    for a warm start, a [`WarmHandle`] naming the graph version the
//!    worker's kept partial must have converged at — stamped with that run id
//!    as the frame epoch. The worker resolves the resident fragment, and the
//!    converged partial it keeps beside it for this query when that partial
//!    is of the handle's version, and enters the ordinary BSP worker loop at
//!    that epoch (`Init` → PEval report → (`IncEval` → report)* → `Finish`);
//!    the `Init` carries nothing, since the worker addresses its border by
//!    position in the fragment it holds, and the coordinator drives the
//!    ordinary fixpoint over a per-query fold state on the fragment set's
//!    exchange layout (built once per set, see
//!    [`grape_partition::ExchangeLayout`]).
//! 3. After `Finish`, a daemon keeps its converged partial's snapshot beside
//!    the fragment, stamped with the fragment's version (a dialled-in batch
//!    worker keeps nothing), and answers with one `TAG_RESULT` frame: what
//!    Assemble reads of its partial — for sssp, cc and pagerank one value per
//!    inner vertex ([`PieProgram::encode_answer`]), for the other classes
//!    the snapshot, taken once for both — then a `bool` telling whether its
//!    PEval started warm. The coordinator
//!    assembles the k answers into the typed output
//!    ([`PieProgram::assemble_answers`]).
//! 4. `TAG_UPDATE` (sessions only) carries a versioned mutation batch for one
//!    resident fragment, acked with `TAG_UPDATED`.
//! 5. `TAG_UNLOAD` (sessions only) names a graph id whose fragments and kept
//!    partials the daemon drops, acked with `TAG_UNLOADED`. A session sends
//!    it, best effort, for the graph a new load replaces, and for its graph
//!    when its last handle drops; an unknown graph id is acked all the same.
//!
//! A session bounds each of its load, update and unload requests — the
//! connect, the write and the ack — by [`EngineConfig::read_timeout`].
//!
//! ## Fault tolerance
//!
//! With a checkpoint cadence k ≥ 1, every worker snapshots its dense local
//! state onto the first accepted report of each k-superstep window, and a
//! worker lost mid-query is replaced: the run epoch is bumped, a stream to a
//! replacement is opened — a session reconnects to the same daemon, whose
//! resident fragment is **not** re-shipped; the batch coordinator respawns a
//! process and ships it the lost fragment again — the replacement resumes
//! from the last checkpoint at the new epoch, and the (at most k) commands
//! sent since are replayed in order. Frames still in flight from the dead
//! connection are fenced by their stale epoch. Same-superstep losses recover
//! as a batch; each worker has a crash-loop budget with exponential respawn
//! backoff. Recovered runs are bit-identical to undisturbed ones for every
//! query class and cadence, and other in-flight queries run on their own
//! connections and epochs and are never disturbed.

use crate::{bad_data, UdsPathGuard};
use grape_algo::{dispatch, ClassVisitor, FamilyFragments, Query, QueryResult};
use grape_comm::wire::{
    self, Wire, WireError, WireReader, HEADER_LEN, TAG_HELLO, TAG_LOAD, TAG_LOADED, TAG_QUERY,
    TAG_RESULT, TAG_UNLOAD, TAG_UNLOADED, TAG_UPDATE, TAG_UPDATED,
};
use grape_comm::CommStats;
use grape_core::chaos::{ChaosConfig, ChaosWorkerTransport};
use grape_core::par::ThreadCount;
use grape_core::transport::{FramedStreamCoord, FramedStreamWorker, SplitStream};
use grape_core::{
    decode_fragment, encode_fragment_epoch, run_seeded_worker, DeltaLog, EngineConfig, GrapeEngine,
    IncrementalSeed, MutationProfile, PieProgram, RunStats, VertexId, WarmHandle, TAG_FRAGMENT,
};
use grape_graph::delta::{stage_batch, GraphMutation, LiveView};
use grape_graph::generators::{
    barabasi_albert, labeled_social, road_network, RoadNetworkConfig, SocialGraphConfig,
};
use grape_graph::labels::{LabeledGraph, LabeledVertex};
use grape_graph::WeightedGraph;
use grape_partition::{
    build_fragments, BuiltinStrategy, Fragment, FragmentId, FragmentView, PartitionAssignment,
    ResolvedMutations,
};
use std::collections::hash_map::RandomState;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Endpoints and sockets
// ---------------------------------------------------------------------------

/// Where a [`GrapeService`] daemon listens / where a [`Session`] connects.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address, e.g. `127.0.0.1:4817`.
    Tcp(String),
    /// A Unix-domain socket path.
    #[cfg(unix)]
    Uds(std::path::PathBuf),
}

impl Endpoint {
    /// Parses `uds:PATH` as a Unix-domain endpoint, anything else as TCP.
    pub fn parse(text: &str) -> Endpoint {
        #[cfg(unix)]
        if let Some(path) = text.strip_prefix("uds:") {
            return Endpoint::Uds(path.into());
        }
        Endpoint::Tcp(text.to_string())
    }

    /// Opens a connection and greets the daemon with the [`TAG_HELLO`] frame,
    /// ahead of whatever the caller sends next.
    fn dial(&self, token: &Option<String>) -> io::Result<ServiceSocket> {
        self.dial_within(token, None)
    }

    /// [`Endpoint::dial`], with connecting, every write and every read of
    /// the connection bounded by `timeout` (`None` blocks). A Unix-domain
    /// connect is local and not bounded.
    fn dial_within(
        &self,
        token: &Option<String>,
        timeout: Option<Duration>,
    ) -> io::Result<ServiceSocket> {
        // A zero duration is not a timeout the sockets accept.
        let timeout = timeout.filter(|t| !t.is_zero());
        let mut stream = match (self, timeout) {
            (Endpoint::Tcp(addr), Some(timeout)) => {
                let mut last = io::Error::other(format!("{addr} names no address"));
                let mut connected = None;
                for addr in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&addr, timeout) {
                        Ok(stream) => {
                            connected = Some(ServiceSocket::Tcp(stream));
                            break;
                        }
                        Err(e) => last = e,
                    }
                }
                connected.ok_or(last)?
            }
            _ => self.connect()?,
        };
        if timeout.is_some() {
            stream.set_timeouts(timeout)?;
        }
        // A session writes small frames back to back (a job, then its first
        // command) on a socket that has already been answered: neither may
        // wait on a delayed ACK.
        stream.set_nodelay()?;
        wire::write_frame_io_epoch(&mut stream, TAG_HELLO, 0, token)?;
        Ok(stream)
    }

    /// Opens a connection to the endpoint.
    pub fn connect(&self) -> io::Result<ServiceSocket> {
        match self {
            Endpoint::Tcp(addr) => TcpStream::connect(addr.as_str()).map(ServiceSocket::Tcp),
            #[cfg(unix)]
            Endpoint::Uds(path) => {
                std::os::unix::net::UnixStream::connect(path).map(ServiceSocket::Uds)
            }
        }
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "{addr}"),
            #[cfg(unix)]
            Endpoint::Uds(path) => write!(f, "uds:{}", path.display()),
        }
    }
}

/// A connected service socket of either transport, so one coordinator can
/// drive a mixed fleet of TCP and Unix-domain daemons.
#[derive(Debug)]
pub enum ServiceSocket {
    /// TCP connection.
    Tcp(TcpStream),
    /// Unix-domain connection.
    #[cfg(unix)]
    Uds(std::os::unix::net::UnixStream),
}

impl ServiceSocket {
    /// Bounds every read and every write by `timeout` (`None` blocks).
    fn set_timeouts(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            ServiceSocket::Tcp(s) => {
                s.set_read_timeout(timeout)?;
                s.set_write_timeout(timeout)
            }
            #[cfg(unix)]
            ServiceSocket::Uds(s) => {
                s.set_read_timeout(timeout)?;
                s.set_write_timeout(timeout)
            }
        }
    }
}

impl Read for ServiceSocket {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            ServiceSocket::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            ServiceSocket::Uds(s) => s.read(buf),
        }
    }
}

impl Write for ServiceSocket {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            ServiceSocket::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            ServiceSocket::Uds(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            ServiceSocket::Tcp(s) => s.flush(),
            #[cfg(unix)]
            ServiceSocket::Uds(s) => s.flush(),
        }
    }
}

impl SplitStream for ServiceSocket {
    fn split(self) -> io::Result<(Self, Self)> {
        match self {
            ServiceSocket::Tcp(s) => {
                let (r, w) = s.split()?;
                Ok((ServiceSocket::Tcp(r), ServiceSocket::Tcp(w)))
            }
            #[cfg(unix)]
            ServiceSocket::Uds(s) => {
                let (r, w) = s.split()?;
                Ok((ServiceSocket::Uds(r), ServiceSocket::Uds(w)))
            }
        }
    }

    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            ServiceSocket::Tcp(s) => SplitStream::set_read_timeout(s, timeout),
            #[cfg(unix)]
            ServiceSocket::Uds(s) => SplitStream::set_read_timeout(s, timeout),
        }
    }
}

/// A [`SplitStream`] whose connection can additionally be aliased
/// (`try_clone`) and torn down — what a resident connection needs so one
/// query's BSP transport can borrow the socket while the outer serve loop
/// keeps it, and so kill drills can sever it mid-query.
pub trait ServiceStream: SplitStream {
    /// A second owned handle to the same connection.
    fn try_clone_stream(&self) -> io::Result<Self>;

    /// Severs the connection in both directions — the transport-level
    /// equivalent of SIGKILLing the worker that owns it.
    fn shutdown_both(&self) -> io::Result<()>;

    /// Sends every write at once instead of coalescing small ones (TCP's
    /// `TCP_NODELAY`; nothing to do on a Unix-domain socket).
    fn set_nodelay(&self) -> io::Result<()> {
        Ok(())
    }
}

impl ServiceStream for TcpStream {
    fn try_clone_stream(&self) -> io::Result<Self> {
        self.try_clone()
    }

    fn set_nodelay(&self) -> io::Result<()> {
        TcpStream::set_nodelay(self, true)
    }

    fn shutdown_both(&self) -> io::Result<()> {
        self.shutdown(std::net::Shutdown::Both)
    }
}

#[cfg(unix)]
impl ServiceStream for std::os::unix::net::UnixStream {
    fn try_clone_stream(&self) -> io::Result<Self> {
        self.try_clone()
    }

    fn shutdown_both(&self) -> io::Result<()> {
        self.shutdown(std::net::Shutdown::Both)
    }
}

impl ServiceStream for ServiceSocket {
    fn try_clone_stream(&self) -> io::Result<Self> {
        match self {
            ServiceSocket::Tcp(s) => s.try_clone().map(ServiceSocket::Tcp),
            #[cfg(unix)]
            ServiceSocket::Uds(s) => s.try_clone().map(ServiceSocket::Uds),
        }
    }

    fn shutdown_both(&self) -> io::Result<()> {
        match self {
            ServiceSocket::Tcp(s) => s.shutdown(std::net::Shutdown::Both),
            #[cfg(unix)]
            ServiceSocket::Uds(s) => s.shutdown(std::net::Shutdown::Both),
        }
    }

    fn set_nodelay(&self) -> io::Result<()> {
        match self {
            ServiceSocket::Tcp(s) => s.set_nodelay(true),
            #[cfg(unix)]
            ServiceSocket::Uds(_) => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------------
// Wire messages
// ---------------------------------------------------------------------------

/// Payload of a [`TAG_LOAD`] frame: which graph the fragment that follows
/// belongs to, and where it fits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadSpec {
    /// Session-unique graph id; queries name the resident graph by it.
    pub graph_id: u64,
    /// Payload family: 0 = weighted (`(), f64`), 1 = labeled
    /// (`LabeledVertex, String`).
    pub family: u8,
    /// Fragment index the following [`TAG_FRAGMENT`] frame carries.
    pub index: u32,
    /// Total number of fragments/workers of the graph.
    pub workers: u32,
    /// Global vertex count (PageRank and CF need |V|).
    pub vertices: u64,
}

impl Wire for LoadSpec {
    fn encode(&self, out: &mut Vec<u8>) {
        self.graph_id.encode(out);
        self.family.encode(out);
        self.index.encode(out);
        self.workers.encode(out);
        self.vertices.encode(out);
    }

    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(LoadSpec {
            graph_id: reader.u64()?,
            family: reader.u8()?,
            index: reader.u32()?,
            workers: reader.u32()?,
            vertices: reader.u64()?,
        })
    }
}

/// Payload of a [`TAG_QUERY`] frame: one typed query submission against a
/// resident graph. The frame's epoch must equal [`QueryJob::run_id`] — the
/// query's fencing epoch for its whole BSP session (recovery bumps it per
/// replaced worker, starting from this base).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryJob {
    /// The resident graph to query.
    pub graph_id: u64,
    /// Which fragment this connection serves.
    pub index: u32,
    /// Total number of workers of the query.
    pub workers: u32,
    /// The query's run id — also the wire epoch of this submission.
    pub run_id: u32,
    /// Intra-worker threads (0 = auto).
    pub threads: u32,
    /// Checkpoint cadence for recoverable queries (0 = no checkpoints).
    pub checkpoint_every: u32,
    /// The typed query itself.
    pub query: Query,
    /// Chaos drill: the worker dies upon receiving this command index — a
    /// daemon severs the connection, a dialled-in process SIGKILLs itself.
    pub kill_at: Option<u32>,
    /// Warm start: the graph version at which the worker's kept partial of
    /// this query must have converged, plus the dirty set of the updates
    /// applied since. `None`, or a version the worker does not hold, runs the
    /// ordinary cold PEval.
    pub seed: Option<WarmHandle>,
}

impl Wire for QueryJob {
    fn encode(&self, out: &mut Vec<u8>) {
        self.graph_id.encode(out);
        self.index.encode(out);
        self.workers.encode(out);
        self.run_id.encode(out);
        self.threads.encode(out);
        self.checkpoint_every.encode(out);
        self.query.encode(out);
        self.kill_at.encode(out);
        self.seed.encode(out);
    }

    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(QueryJob {
            graph_id: reader.u64()?,
            index: reader.u32()?,
            workers: reader.u32()?,
            run_id: reader.u32()?,
            threads: reader.u32()?,
            checkpoint_every: reader.u32()?,
            query: Query::decode(reader)?,
            kill_at: Option::<u32>::decode(reader)?,
            seed: Option::<WarmHandle>::decode(reader)?,
        })
    }
}

/// Header of a [`TAG_UPDATE`] frame: which resident fragment the resolved
/// mutation batch that follows (in the same frame body) targets, and the
/// fragment version the batch advances it to. Versions make retries
/// idempotent: a daemon that already sits at `version` acks without
/// re-applying; a gap is a protocol error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateSpec {
    /// The resident graph to mutate.
    pub graph_id: u64,
    /// Payload family of the batch (must match the resident graph's).
    pub family: u8,
    /// Fragment index the batch targets.
    pub index: u32,
    /// Version the fragment reaches after this batch (first update = 1).
    pub version: u64,
    /// Global vertex count after the update (PageRank and CF need |V|).
    pub vertices: u64,
}

impl Wire for UpdateSpec {
    fn encode(&self, out: &mut Vec<u8>) {
        self.graph_id.encode(out);
        self.family.encode(out);
        self.index.encode(out);
        self.version.encode(out);
        self.vertices.encode(out);
    }

    fn decode(reader: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(UpdateSpec {
            graph_id: reader.u64()?,
            family: reader.u8()?,
            index: reader.u32()?,
            version: reader.u64()?,
            vertices: reader.u64()?,
        })
    }
}

// ---------------------------------------------------------------------------
// Graphs a session can load
// ---------------------------------------------------------------------------

/// A graph in one of the two payload families the engine serves.
#[derive(Debug, Clone)]
pub enum SessionGraph {
    /// Unit vertices, `f64` edge weights: `sssp`, `cc`, `pagerank`, `cf`.
    Weighted(WeightedGraph),
    /// Labeled vertices, relation-typed edges: `sim`, `subiso`, `keyword`,
    /// `marketing`.
    Labeled(LabeledGraph),
}

impl From<WeightedGraph> for SessionGraph {
    fn from(graph: WeightedGraph) -> Self {
        SessionGraph::Weighted(graph)
    }
}

impl From<LabeledGraph> for SessionGraph {
    fn from(graph: LabeledGraph) -> Self {
        SessionGraph::Labeled(graph)
    }
}

impl SessionGraph {
    /// Generates the deterministic graph a [`crate::GraphSpec`] recipe
    /// describes: `road`/`ba` specs yield weighted graphs, `social` specs
    /// labeled ones — the same generators and defaults the one-shot job path
    /// uses, so service and cold runs see bit-identical inputs.
    pub fn generate(spec: &crate::GraphSpec) -> io::Result<SessionGraph> {
        match spec {
            crate::GraphSpec::Road {
                width,
                height,
                seed,
            } => road_network(
                RoadNetworkConfig {
                    width: *width as usize,
                    height: *height as usize,
                    ..Default::default()
                },
                *seed as u64,
            )
            .map(SessionGraph::Weighted)
            .map_err(|e| bad_data(format!("bad road spec: {e}"))),
            crate::GraphSpec::Ba { n, m, seed } => {
                barabasi_albert(*n as usize, *m as usize, *seed as u64)
                    .map(SessionGraph::Weighted)
                    .map_err(|e| bad_data(format!("bad BA spec: {e}")))
            }
            crate::GraphSpec::Social {
                persons,
                products,
                seed,
            } => labeled_social(
                SocialGraphConfig {
                    num_persons: *persons as usize,
                    num_products: *products as usize,
                    ..Default::default()
                },
                *seed as u64,
            )
            .map(SessionGraph::Labeled)
            .map_err(|e| bad_data(format!("bad social spec: {e}"))),
        }
    }

    /// Global vertex count.
    pub fn num_vertices(&self) -> usize {
        match self {
            SessionGraph::Weighted(g) => g.num_vertices(),
            SessionGraph::Labeled(g) => g.num_vertices(),
        }
    }
}

/// Built fragments of a loaded graph, per family. Each fragment is shared on
/// its own: a query checks the whole table out by cloning it, and an update
/// replaces just the entries it spliced.
#[derive(Clone)]
pub(crate) enum SessionFragments {
    Weighted(Vec<Arc<Fragment<(), f64>>>),
    Labeled(Vec<Arc<Fragment<LabeledVertex, String>>>),
}

impl From<Vec<Arc<Fragment<(), f64>>>> for SessionFragments {
    fn from(fragments: Vec<Arc<Fragment<(), f64>>>) -> Self {
        SessionFragments::Weighted(fragments)
    }
}

impl From<Vec<Arc<Fragment<LabeledVertex, String>>>> for SessionFragments {
    fn from(fragments: Vec<Arc<Fragment<LabeledVertex, String>>>) -> Self {
        SessionFragments::Labeled(fragments)
    }
}

impl SessionFragments {
    /// Cuts `graph` into `workers` fragments with `strategy`.
    pub(crate) fn cut(
        graph: &SessionGraph,
        strategy: BuiltinStrategy,
        workers: usize,
    ) -> (SessionFragments, PartitionAssignment) {
        fn shared<T>(items: Vec<T>) -> Vec<Arc<T>> {
            items.into_iter().map(Arc::new).collect()
        }
        match graph {
            SessionGraph::Weighted(g) => {
                let assignment = strategy.partition(g, workers);
                let fragments = shared(build_fragments(g, &assignment));
                (SessionFragments::Weighted(fragments), assignment)
            }
            SessionGraph::Labeled(g) => {
                let assignment = strategy.partition(g, workers);
                let fragments = shared(build_fragments(g, &assignment));
                (SessionFragments::Labeled(fragments), assignment)
            }
        }
    }

    /// The `family` byte of [`LoadSpec`] and [`UpdateSpec`].
    pub(crate) fn family(&self) -> u8 {
        match self {
            SessionFragments::Weighted(_) => 0,
            SessionFragments::Labeled(_) => 1,
        }
    }

    /// The borrowed view [`dispatch`] takes.
    pub(crate) fn as_family(&self) -> FamilyFragments<'_> {
        match self {
            SessionFragments::Weighted(f) => FamilyFragments::Weighted(f),
            SessionFragments::Labeled(f) => FamilyFragments::Labeled(f),
        }
    }
}

/// A mutation batch submitted through [`Session::update`], in the family of
/// the loaded graph.
#[derive(Debug, Clone)]
pub enum SessionUpdate {
    /// Mutations of a weighted graph.
    Weighted(Vec<GraphMutation<(), f64>>),
    /// Mutations of a labeled graph.
    Labeled(Vec<GraphMutation<LabeledVertex, String>>),
}

impl From<Vec<GraphMutation<(), f64>>> for SessionUpdate {
    fn from(batch: Vec<GraphMutation<(), f64>>) -> Self {
        SessionUpdate::Weighted(batch)
    }
}

impl From<Vec<GraphMutation<LabeledVertex, String>>> for SessionUpdate {
    fn from(batch: Vec<GraphMutation<LabeledVertex, String>>) -> Self {
        SessionUpdate::Labeled(batch)
    }
}

/// Receipt of one applied [`Session::update`] batch.
#[derive(Debug, Clone)]
pub struct UpdateReceipt {
    /// The graph version the batch advanced the session to (first update = 1).
    pub version: u64,
    /// Number of live vertices whose neighbourhood the batch changed.
    pub dirty: usize,
    /// Shape of the batch.
    pub profile: MutationProfile,
    /// Seconds spent staging the batch against the resident fragments,
    /// resolving it against the assignment, and encoding it for the wire
    /// (once, for every daemon).
    pub stage_seconds: f64,
    /// Seconds spent splicing the batch into the session's own copies of the
    /// fragments it touches.
    pub splice_seconds: f64,
    /// Seconds from the first daemon dialled to the last `TAG_UPDATED` ack
    /// read. The daemons splice their resident fragments inside it, all at
    /// once; a session's private daemon is one of them, over loopback.
    pub ship_seconds: f64,
}

/// A graph made resident by [`Session::load`] and kept live across
/// [`Session::update`] batches. The fragments are the graph: the owner of a
/// vertex holds every edge incident to it, and the assignment names the
/// owner, so the session keeps no other copy. An update stages against them,
/// splices into new fragments, ships, and only then commits — fragments,
/// placements, vertex count and log entry together, under the session lock.
struct LoadedGraph {
    graph_id: u64,
    /// Number of live vertices.
    vertices: u64,
    fragments: SessionFragments,
    /// The partition assignment, extended at each commit with the placements
    /// of inserted vertices, so incremental fragments and a fresh cut agree
    /// on ownership. Shared: an update stages and resolves against a
    /// snapshot of it outside the lock; the commit writes in place once that
    /// snapshot is gone.
    assignment: Arc<PartitionAssignment>,
    /// Update history: per-version dirty sets + profiles, so a converged
    /// state kept at version `v` can be re-seeded across any number of later
    /// updates.
    log: DeltaLog,
    /// The graph version the last completed run of each query converged at,
    /// keyed by the query's wire encoding. The converged partials stay where
    /// the workers ran, beside the daemons' resident fragments.
    converged: HashMap<Vec<u8>, u64>,
    /// The wire encoding of a resolved batch whose ship to the daemons
    /// failed: some of them may hold version `log.version() + 1` already,
    /// and their version fence would skip any other batch sent under that
    /// version. Until that batch is shipped again, no other update is
    /// accepted and no query runs.
    in_doubt: Option<Vec<u8>>,
}

/// What an update stages against besides the fragments: a snapshot of the
/// session taken under its lock. The assignment is shared with the session
/// until the update returns, so the commit must come after.
struct UpdateBase {
    vertices: u64,
    assignment: Arc<PartitionAssignment>,
    in_doubt: Option<Vec<u8>>,
}

/// A staged, spliced and shipped update, ready to commit.
struct StagedUpdate {
    /// The fragment table at the new version.
    fragments: SessionFragments,
    /// Assignment entries the batch adds ([`ResolvedMutations::placements`]).
    placements: Vec<(VertexId, FragmentId)>,
    vertices: u64,
    dirty: Vec<VertexId>,
    profile: MutationProfile,
    /// [`UpdateReceipt`]'s split of the update's time.
    stage_seconds: f64,
    splice_seconds: f64,
    ship_seconds: f64,
}

/// A ship that failed, possibly after some daemons applied the batch.
struct InDoubt {
    error: io::Error,
    /// The resolved batch's wire encoding: the one batch a retry may ship.
    resolved: Vec<u8>,
}

// ---------------------------------------------------------------------------
// The daemon: GrapeService
// ---------------------------------------------------------------------------

/// Fragments resident in a daemon, per family, one slot per fragment index.
enum ResidentFragments {
    Weighted(Vec<Option<Arc<Fragment<(), f64>>>>),
    Labeled(Vec<Option<Arc<Fragment<LabeledVertex, String>>>>),
}

impl ResidentFragments {
    fn family(&self) -> u8 {
        match self {
            ResidentFragments::Weighted(_) => 0,
            ResidentFragments::Labeled(_) => 1,
        }
    }

    /// Checks the fragment in slot `index` out (`None` if never loaded).
    fn handle(&self, index: usize) -> Option<FragmentHandle> {
        match self {
            ResidentFragments::Weighted(slots) => {
                slots[index].clone().map(FragmentHandle::Weighted)
            }
            ResidentFragments::Labeled(slots) => slots[index].clone().map(FragmentHandle::Labeled),
        }
    }

    /// Puts `fragment` into slot `index`; `false` if it is of the other
    /// family.
    fn put(&mut self, index: usize, fragment: FragmentHandle) -> bool {
        match (self, fragment) {
            (ResidentFragments::Weighted(slots), FragmentHandle::Weighted(f)) => {
                slots[index] = Some(f)
            }
            (ResidentFragments::Labeled(slots), FragmentHandle::Labeled(f)) => {
                slots[index] = Some(f)
            }
            _ => return false,
        }
        true
    }
}

/// One graph resident in a daemon.
struct ResidentGraph {
    workers: u32,
    vertices: u64,
    fragments: ResidentFragments,
    /// Per-fragment update version (how many batches each slot has applied).
    /// Kept per slot because one daemon may host several fragments of the
    /// same graph, each updated over its own connection.
    versions: Vec<u64>,
    /// The converged partial of the last run of each query on each slot,
    /// keyed by fragment index and the query's wire encoding: what a warm
    /// [`QueryJob::seed`] names by its version.
    converged: HashMap<(u32, Vec<u8>), KeptPartial>,
}

/// A converged partial kept beside its resident fragment: the snapshot bytes
/// of the run, and the fragment version the run converged at.
struct KeptPartial {
    version: u64,
    snapshot: Arc<Vec<u8>>,
}

/// Daemon knobs.
#[derive(Debug, Clone, Default)]
pub struct ServiceOptions {
    /// Required client auth token; `None` accepts every connection.
    pub token: Option<String>,
    /// Read timeout on the hello handshake (resident connections block
    /// indefinitely between frames afterwards; their lifetime is the
    /// client's).
    pub handshake_timeout: Option<Duration>,
}

/// What a worker-side frame loop serves from: the fragment registry, plus
/// what a chaos drill's kill means here.
pub(crate) struct ServiceState {
    registry: Mutex<HashMap<u64, ResidentGraph>>,
    options: ServiceOptions,
    stop: AtomicBool,
    /// Fault injection applied to every query's BSP session;
    /// [`QueryJob::kill_at`] overrides its kill index per query.
    chaos: ChaosConfig,
    /// How a scheduled kill dies. A daemon (`None`) severs the query's
    /// connection and keeps serving the others; a dialled-in worker process
    /// SIGKILLs itself ([`crate::kill_self`]).
    on_kill: Option<fn()>,
    /// Whether a query's converged partial is kept for later warm queries:
    /// a daemon keeps it, a dialled-in batch worker — one query, then gone —
    /// keeps nothing.
    keeps_converged: bool,
}

impl ServiceState {
    pub(crate) fn new(
        options: ServiceOptions,
        chaos: ChaosConfig,
        on_kill: Option<fn()>,
        keeps_converged: bool,
    ) -> Self {
        ServiceState {
            registry: Mutex::new(HashMap::new()),
            options,
            stop: AtomicBool::new(false),
            chaos,
            on_kill,
            keeps_converged,
        }
    }

    /// Keeps a query's converged `snapshot` beside fragment `index` of graph
    /// `graph_id`, stamped with the fragment `version` the run converged at.
    /// Never replaces a fresher entry: a concurrent run of the same query
    /// may have converged on a later version.
    fn keep_converged(
        &self,
        graph_id: u64,
        index: u32,
        key: Vec<u8>,
        version: u64,
        snapshot: Vec<u8>,
    ) {
        let mut registry = self.registry.lock().unwrap();
        let Some(resident) = registry.get_mut(&graph_id) else {
            return;
        };
        let key = (index, key);
        if resident
            .converged
            .get(&key)
            .is_none_or(|kept| kept.version <= version)
        {
            let snapshot = Arc::new(snapshot);
            resident
                .converged
                .insert(key, KeptPartial { version, snapshot });
        }
    }
}

/// A bound listener of either transport: what a daemon serves from, and what
/// a batch coordinator accepts its dialled-in workers on.
pub enum ServiceListener {
    /// TCP listener.
    Tcp(TcpListener),
    /// Unix-domain listener; the guard unlinks a stale socket left by a dead
    /// process before binding and removes ours again on drop.
    #[cfg(unix)]
    Uds(std::os::unix::net::UnixListener, UdsPathGuard),
}

impl ServiceListener {
    /// Binds `endpoint` (e.g. `127.0.0.1:0` for an ephemeral TCP port).
    pub fn bind(endpoint: &Endpoint) -> io::Result<ServiceListener> {
        match endpoint {
            Endpoint::Tcp(addr) => TcpListener::bind(addr.as_str()).map(ServiceListener::Tcp),
            #[cfg(unix)]
            Endpoint::Uds(path) => {
                let guard = UdsPathGuard::claim(path)?;
                let listener = std::os::unix::net::UnixListener::bind(guard.path())?;
                Ok(ServiceListener::Uds(listener, guard))
            }
        }
    }

    /// Accepts the next connection.
    pub fn accept(&self) -> io::Result<ServiceSocket> {
        match self {
            ServiceListener::Tcp(l) => l.accept().map(|(s, _)| ServiceSocket::Tcp(s)),
            #[cfg(unix)]
            ServiceListener::Uds(l, _) => l.accept().map(|(s, _)| ServiceSocket::Uds(s)),
        }
    }

    /// The endpoint peers should connect to (with the port the OS picked).
    pub fn endpoint(&self) -> io::Result<Endpoint> {
        match self {
            ServiceListener::Tcp(l) => Ok(Endpoint::Tcp(l.local_addr()?.to_string())),
            #[cfg(unix)]
            ServiceListener::Uds(_, guard) => Ok(Endpoint::Uds(guard.path().to_path_buf())),
        }
    }
}

/// The resident query daemon: loads shipped fragments once, then serves an
/// unbounded stream of typed queries over them (see the module docs for the
/// protocol). One daemon process can host any number of graphs and fragment
/// indexes; each accepted connection is served on its own thread, so
/// concurrent queries — of the same or different classes — multiplex freely
/// over the same resident fragments.
pub struct GrapeService {
    listener: ServiceListener,
    state: Arc<ServiceState>,
}

impl GrapeService {
    /// Binds a TCP daemon on `addr` (e.g. `127.0.0.1:0` for an ephemeral
    /// port).
    pub fn bind(addr: &str, options: ServiceOptions) -> io::Result<GrapeService> {
        Self::on(&Endpoint::Tcp(addr.to_string()), options)
    }

    /// Binds a Unix-domain daemon on `path`, reclaiming a stale socket left
    /// by a dead daemon (see [`UdsPathGuard`]).
    #[cfg(unix)]
    pub fn bind_uds(
        path: impl Into<std::path::PathBuf>,
        options: ServiceOptions,
    ) -> io::Result<GrapeService> {
        Self::on(&Endpoint::Uds(path.into()), options)
    }

    fn on(endpoint: &Endpoint, options: ServiceOptions) -> io::Result<GrapeService> {
        Ok(GrapeService {
            listener: ServiceListener::bind(endpoint)?,
            state: Arc::new(ServiceState::new(
                options,
                ChaosConfig::default(),
                None,
                true,
            )),
        })
    }

    /// The endpoint clients should connect to.
    pub fn endpoint(&self) -> io::Result<Endpoint> {
        self.listener.endpoint()
    }

    /// Serves connections until shut down (blocking). Each accepted
    /// connection runs on its own thread; a connection error tears down that
    /// connection only, never the daemon.
    pub fn serve(self) -> io::Result<()> {
        loop {
            let socket = self.listener.accept();
            if self.state.stop.load(Ordering::SeqCst) {
                return Ok(());
            }
            let socket = socket?;
            let state = Arc::clone(&self.state);
            std::thread::spawn(move || {
                if let Err(err) = serve_connection(socket, &state) {
                    eprintln!("grape service: connection error: {err}");
                }
            });
        }
    }

    /// Runs [`GrapeService::serve`] on a background thread and returns a
    /// handle that can shut the daemon down.
    pub fn spawn(self) -> io::Result<ServiceHandle> {
        let endpoint = self.endpoint()?;
        let state = Arc::clone(&self.state);
        let thread = std::thread::spawn(move || self.serve());
        Ok(ServiceHandle {
            endpoint,
            state,
            thread: Some(thread),
        })
    }
}

/// Handle to a daemon spawned with [`GrapeService::spawn`]. Dropping it
/// shuts the daemon down, as [`ServiceHandle::shutdown`] does.
pub struct ServiceHandle {
    endpoint: Endpoint,
    state: Arc<ServiceState>,
    thread: Option<std::thread::JoinHandle<io::Result<()>>>,
}

impl ServiceHandle {
    /// The endpoint clients should connect to.
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Stops accepting connections and joins the daemon thread. In-flight
    /// connections finish on their own threads.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.stop()
    }

    fn stop(&mut self) -> io::Result<()> {
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        self.state.stop.store(true, Ordering::SeqCst);
        // Poke the accept loop so it observes the stop flag.
        let _ = self.endpoint.connect();
        thread
            .join()
            .map_err(|_| io::Error::other("service thread panicked"))?
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// Reads and validates a dialler's [`TAG_HELLO`] greeting within `timeout`.
/// `expected = None` accepts any greeting; otherwise the presented token
/// must match, and a mismatched or missing token is a typed
/// `PermissionDenied` error.
pub(crate) fn expect_hello<S: SplitStream>(
    stream: &mut S,
    expected: Option<&str>,
    index: usize,
    timeout: Option<Duration>,
) -> io::Result<()> {
    stream.set_read_timeout(timeout)?;
    let frame = wire::read_frame_io_epoch(stream);
    stream.set_read_timeout(None)?;
    let (tag, _epoch, body) = frame
        .map_err(|e| {
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ) {
                io::Error::other(format!(
                    "worker {index} lost during handshake: no hello frame within the read timeout"
                ))
            } else {
                io::Error::other(format!("worker {index} lost during handshake: {e}"))
            }
        })?
        .ok_or_else(|| {
            io::Error::other(format!(
                "worker {index} lost during handshake: connection closed before the hello frame"
            ))
        })?;
    if tag != TAG_HELLO {
        return Err(bad_data(format!(
            "worker {index}: expected hello frame, got tag {tag:#04x}"
        )));
    }
    let token: Option<String> = decode_body(&body, "hello frame")?;
    let denied = |message: String| io::Error::new(io::ErrorKind::PermissionDenied, message);
    match (expected, token) {
        (None, _) => Ok(()),
        (Some(want), Some(got)) if same_secret(&got, want) => Ok(()),
        (Some(_), Some(_)) => Err(denied(format!(
            "worker {index} presented a mismatched auth token"
        ))),
        (Some(_), None) => Err(denied(format!(
            "worker {index} presented no auth token, but this coordinator requires one"
        ))),
    }
}

/// Whether two tokens are equal, in a time that depends on their lengths
/// only: how long a refusal takes tells a guesser nothing of the token.
fn same_secret(a: &str, b: &str) -> bool {
    a.len() == b.len()
        && a.bytes()
            .zip(b.bytes())
            .fold(0, |diff, (x, y)| diff | (x ^ y))
            == 0
}

/// A fresh 128-bit secret: two words from the hashers std keys randomly,
/// from the operating system, per process.
fn fresh_token() -> String {
    let word = || RandomState::new().build_hasher().finish();
    format!("{:016x}{:016x}", word(), word())
}

/// Decodes a whole frame body as one `T`; trailing bytes are an error.
fn decode_body<T: Wire>(body: &[u8], what: &str) -> io::Result<T> {
    let mut reader = WireReader::new(body);
    T::decode(&mut reader)
        .and_then(|value| reader.finish().map(|()| value))
        .map_err(|e| bad_data(format!("bad {what}: {e}")))
}

/// Writes already-encoded frames in one go: back-to-back frames leave as one
/// write, so none of them waits on a delayed ACK of the one before.
fn send(stream: &mut impl Write, frames: &[u8]) -> io::Result<()> {
    stream.write_all(frames)?;
    stream.flush()
}

/// Reads the one frame that acknowledges a request, checking its tag.
fn read_ack(stream: &mut impl Read, tag: u8, what: &str) -> io::Result<Vec<u8>> {
    let (found, _epoch, body) = wire::read_frame_io_epoch(stream)
        .map_err(|e| match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => io::Error::new(
                io::ErrorKind::TimedOut,
                format!("no ack of {what} within the read timeout"),
            ),
            _ => e,
        })?
        .ok_or_else(|| io::Error::other(format!("connection closed before the ack of {what}")))?;
    if found != tag {
        return Err(bad_data(format!(
            "expected ack tag {tag:#04x} for {what}, got tag {found:#04x}"
        )));
    }
    Ok(body)
}

/// One accepted connection's life in a daemon: authenticate the client, then
/// serve its frames.
fn serve_connection<S: ServiceStream>(mut stream: S, state: &ServiceState) -> io::Result<()> {
    // The answers to a session are small frames written back to back (a
    // result after the last report): none may wait on a delayed ACK.
    stream.set_nodelay()?;
    expect_hello(
        &mut stream,
        state.options.token.as_deref(),
        0,
        state.options.handshake_timeout,
    )?;
    serve_frames(stream, state)
}

/// The worker side of the job protocol, from "frame read" to "`TAG_RESULT`
/// written": serves `TAG_LOAD`, `TAG_QUERY`, `TAG_UPDATE` and `TAG_UNLOAD`
/// frames until the peer closes. A daemon runs it per accepted connection, a
/// dialled-in batch worker over its one connection to the coordinator.
pub(crate) fn serve_frames<S: ServiceStream>(
    mut stream: S,
    state: &ServiceState,
) -> io::Result<()> {
    loop {
        let Some((tag, epoch, body)) = wire::read_frame_io_epoch(&mut stream)? else {
            return Ok(()); // The peer is done with this connection.
        };
        match tag {
            TAG_LOAD => {
                let spec: LoadSpec = decode_body(&body, "load spec")?;
                load_fragment(&mut stream, spec, epoch, state)?;
            }
            TAG_QUERY => {
                let job: QueryJob = decode_body(&body, "query job")?;
                if epoch != job.run_id {
                    return Err(bad_data(format!(
                        "query frame at epoch {epoch} but run id {}",
                        job.run_id
                    )));
                }
                serve_query(&stream, job, state)?;
            }
            TAG_UPDATE => {
                let mut reader = WireReader::new(&body);
                let spec = UpdateSpec::decode(&mut reader)
                    .map_err(|e| bad_data(format!("bad update spec: {e}")))?;
                if epoch != spec.version as u32 {
                    return Err(bad_data(format!(
                        "update frame at epoch {epoch} but version {}",
                        spec.version
                    )));
                }
                apply_update(&mut stream, spec, reader, state)?;
            }
            TAG_UNLOAD => {
                let graph_id: u64 = decode_body(&body, "unload")?;
                // Freed outside the registry lock: other graphs' queries
                // need not wait for it.
                let unloaded = state.registry.lock().unwrap().remove(&graph_id);
                drop(unloaded);
                wire::write_frame_io_epoch(&mut stream, TAG_UNLOADED, epoch, &graph_id)?;
                stream.flush()?;
            }
            other => {
                return Err(bad_data(format!(
                    "unexpected frame tag {other:#04x} on a service connection"
                )))
            }
        }
    }
}

/// Most fragments one resident graph may be cut into. A [`LoadSpec`] is
/// peer-controlled, and its worker count sizes the registry's slot tables.
const MAX_WORKERS: u32 = 4096;

/// Handles one `TAG_LOAD`: reads the following fragment frame, stores the
/// fragment in the registry, and acks. Spec and fragment are checked in
/// full before the registry is touched, so a refused load leaves nothing
/// behind.
fn load_fragment<S: ServiceStream>(
    stream: &mut S,
    spec: LoadSpec,
    epoch: u32,
    state: &ServiceState,
) -> io::Result<()> {
    fn decode<V, E>(body: &[u8], spec: &LoadSpec) -> io::Result<Arc<Fragment<V, E>>>
    where
        V: Wire + Clone + Default,
        E: Wire + Clone,
    {
        let fragment: Fragment<V, E> = decode_fragment(TAG_FRAGMENT, body)
            .map_err(|e| bad_data(format!("bad fragment frame: {e}")))?;
        if fragment.id != spec.index as usize {
            return Err(bad_data(format!(
                "shipped fragment {} under load index {}",
                fragment.id, spec.index
            )));
        }
        if fragment.num_fragments != spec.workers as usize {
            return Err(bad_data(format!(
                "shipped fragment of {} under a load spec of {} workers",
                fragment.num_fragments, spec.workers
            )));
        }
        Ok(Arc::new(fragment))
    }

    if spec.workers > MAX_WORKERS || spec.index >= spec.workers {
        return Err(bad_data(format!(
            "fragment index {} out of range for {} workers (at most {MAX_WORKERS})",
            spec.index, spec.workers
        )));
    }
    if spec.family > 1 {
        return Err(bad_data(format!("unknown payload family {}", spec.family)));
    }
    let (ftag, fepoch, fbody) = wire::read_frame_io_epoch(stream)?
        .ok_or_else(|| bad_data("connection closed before the fragment"))?;
    if ftag != TAG_FRAGMENT {
        return Err(bad_data(format!(
            "expected fragment frame after load spec, got tag {ftag:#04x}"
        )));
    }
    if fepoch != epoch {
        return Err(bad_data(format!(
            "fragment frame at epoch {fepoch}, load spec at epoch {epoch}"
        )));
    }
    let fragment = match spec.family {
        0 => FragmentHandle::Weighted(decode(&fbody, &spec)?),
        _ => FragmentHandle::Labeled(decode(&fbody, &spec)?),
    };

    {
        let n = spec.workers as usize;
        let mut registry = state.registry.lock().unwrap();
        let entry = registry
            .entry(spec.graph_id)
            .or_insert_with(|| ResidentGraph {
                workers: spec.workers,
                vertices: spec.vertices,
                fragments: match fragment {
                    FragmentHandle::Weighted(_) => ResidentFragments::Weighted(vec![None; n]),
                    FragmentHandle::Labeled(_) => ResidentFragments::Labeled(vec![None; n]),
                },
                versions: vec![0; n],
                converged: HashMap::new(),
            });
        let fits = entry.workers == spec.workers && entry.vertices == spec.vertices;
        if !(fits && entry.fragments.put(spec.index as usize, fragment)) {
            return Err(bad_data(format!(
                "load spec for graph {} conflicts with its resident shape",
                spec.graph_id
            )));
        }
        // What converged on the fragment this one replaces says nothing
        // about it.
        entry.converged.retain(|&(index, _), _| index != spec.index);
    }

    wire::write_frame_io_epoch(stream, TAG_LOADED, epoch, &spec.graph_id)?;
    stream.flush()
}

/// Handles one `TAG_UPDATE`: applies the resolved mutation batch that
/// follows the spec in the frame body to the targeted resident fragment,
/// version-fenced so retries are idempotent, and acks with `TAG_UPDATED`.
///
/// The registry lock is held only to snapshot the fragment's `Arc` and,
/// later, to swap the new one in: the splice itself runs unlocked, so an
/// update never stalls the fragment lookups of concurrent queries.
fn apply_update<S: ServiceStream>(
    stream: &mut S,
    spec: UpdateSpec,
    reader: WireReader<'_>,
    state: &ServiceState,
) -> io::Result<()> {
    /// Decodes the batch and splices it into `fragment`; `None` when the
    /// batch does not touch it.
    fn splice<V, E>(
        fragment: &Fragment<V, E>,
        mut reader: WireReader<'_>,
    ) -> io::Result<Option<Arc<Fragment<V, E>>>>
    where
        V: Wire + Clone + Default,
        E: Wire + Clone,
    {
        let resolved = ResolvedMutations::<V, E>::decode(&mut reader)
            .and_then(|r| reader.finish().map(|()| r))
            .map_err(|e| bad_data(format!("bad update batch: {e}")))?;
        let spliced = fragment
            .splice_mutations(&resolved)
            .map_err(|e| bad_data(format!("update failed on fragment {}: {e}", fragment.id)))?;
        Ok(spliced.map(Arc::new))
    }

    let not_resident = || {
        bad_data(format!(
            "graph {} is not resident in this service",
            spec.graph_id
        ))
    };
    let index = spec.index as usize;
    let (current, snapshot) = {
        let registry = state.registry.lock().unwrap();
        let resident = registry.get(&spec.graph_id).ok_or_else(not_resident)?;
        if spec.index >= resident.workers {
            return Err(bad_data(format!(
                "update targets fragment {}/{} of graph {}",
                spec.index, resident.workers, spec.graph_id
            )));
        }
        if resident.fragments.family() != spec.family {
            return Err(bad_data(format!(
                "update family {} conflicts with the resident graph's",
                spec.family
            )));
        }
        (resident.versions[index], resident.fragments.handle(index))
    };

    let acked_version = if spec.version <= current {
        // Already applied (a retry after a lost ack) — idempotent skip.
        current
    } else if spec.version == current + 1 {
        let Some(snapshot) = snapshot else {
            return Err(bad_data(format!(
                "update targets fragment {index}, which was never loaded"
            )));
        };
        let spliced = match &snapshot {
            FragmentHandle::Weighted(f) => splice(f, reader)?.map(FragmentHandle::Weighted),
            FragmentHandle::Labeled(f) => splice(f, reader)?.map(FragmentHandle::Labeled),
        };
        let mut registry = state.registry.lock().unwrap();
        let resident = registry.get_mut(&spec.graph_id).ok_or_else(not_resident)?;
        // The fence again: a retry of this very batch on another connection
        // may have landed while this one spliced.
        if resident.versions[index] == current {
            // Untouched fragment: the same `Arc` stays, only the version moves.
            if spliced.is_some_and(|f| !resident.fragments.put(index, f)) {
                return Err(bad_data("resident fragments changed family mid-update"));
            }
            resident.versions[index] = spec.version;
            resident.vertices = spec.vertices;
        } else if resident.versions[index] < spec.version {
            return Err(bad_data(format!(
                "fragment {index} of graph {} moved from version {current} to {} under update {}",
                spec.graph_id, resident.versions[index], spec.version
            )));
        }
        resident.versions[index]
    } else {
        return Err(bad_data(format!(
            "update jumps fragment {index} of graph {} from version {current} to {}",
            spec.graph_id, spec.version
        )));
    };

    let ack = (spec.graph_id, acked_version);
    wire::write_frame_io_epoch(stream, TAG_UPDATED, spec.version as u32, &ack)?;
    stream.flush()
}

/// Handles one `TAG_QUERY`: resolves the resident fragment, and the warm
/// start its job names, and runs the BSP worker loop for it at the query's
/// epoch, then ships the result home.
fn serve_query<S: ServiceStream>(
    stream: &S,
    job: QueryJob,
    state: &ServiceState,
) -> io::Result<()> {
    let key = job.query.encode_to_vec();
    // Clone the fragment handle and the kept snapshot out and release the
    // lock before evaluating: concurrent queries must not serialize on the
    // registry.
    let (fragment_slot, vertices, version, seed) = {
        let registry = state.registry.lock().unwrap();
        let resident = registry.get(&job.graph_id).ok_or_else(|| {
            bad_data(format!(
                "graph {} is not resident in this service",
                job.graph_id
            ))
        })?;
        if job.index >= resident.workers || job.workers != resident.workers {
            return Err(bad_data(format!(
                "query names worker {}/{} but graph {} is cut into {} fragments",
                job.index, job.workers, job.graph_id, resident.workers
            )));
        }
        // Warm only from a partial of exactly the handle's version: the
        // handle's dirty set covers the updates since that one alone.
        let seed = job.seed.as_ref().and_then(|handle| {
            let kept = resident.converged.get(&(job.index, key.clone()))?;
            (kept.version == handle.version).then(|| handle.seed(Arc::clone(&kept.snapshot)))
        });
        let index = job.index as usize;
        (
            resident.fragments.handle(index),
            resident.vertices,
            resident.versions[index],
            seed,
        )
    };
    let Some(fragment) = fragment_slot else {
        return Err(bad_data(format!(
            "fragment {} of graph {} was never loaded",
            job.index, job.graph_id
        )));
    };
    let fragments = match &fragment {
        FragmentHandle::Weighted(f) => FamilyFragments::Weighted(std::slice::from_ref(f)),
        FragmentHandle::Labeled(f) => FamilyFragments::Labeled(std::slice::from_ref(f)),
    };
    let answer = Answer {
        stream,
        state,
        job: &job,
        seed,
        kept: (key, version),
    };
    dispatch(&job.query, vertices, fragments, answer)
}

/// A resident fragment checked out of the registry, for one query or as the
/// snapshot an update splices from.
enum FragmentHandle {
    Weighted(Arc<Fragment<(), f64>>),
    Labeled(Arc<Fragment<LabeledVertex, String>>),
}

/// One query's BSP session over a borrowed connection, for whichever class
/// [`dispatch`] resolves the job's query to.
struct Answer<'a, S> {
    stream: &'a S,
    state: &'a ServiceState,
    job: &'a QueryJob,
    /// The warm start resolved from the job's handle; `None` runs cold.
    seed: Option<IncrementalSeed>,
    /// The query's key and the fragment version its converged partial is
    /// kept under.
    kept: (Vec<u8>, u64),
}

impl<S: ServiceStream> ClassVisitor for Answer<'_, S> {
    type Out = ();

    /// The BSP session body: the transport runs on an alias (`try_clone`) of
    /// the connection at the query's epoch; the outer frame loop keeps the
    /// original for the next frame, which is safe because the protocol is
    /// strictly request-response (the coordinator sends nothing after
    /// `Finish` until it has our `TAG_RESULT`). The converged partial is kept
    /// before the result goes out, so the next warm job finds it.
    fn visit<P: PieProgram>(
        self,
        program: P,
        query: P::Query,
        _wrap: impl Fn(P::Output) -> QueryResult,
        fragments: &[Arc<Fragment<P::VertexData, P::EdgeData>>],
    ) -> io::Result<()> {
        let Answer {
            stream,
            state,
            job,
            seed,
            kept: (key, version),
        } = self;
        let fragment = &*fragments[0];
        let run_id = job.run_id;
        let threads = ThreadCount::from(job.threads).resolve(job.workers as usize, false);
        let checkpoint_every = job.checkpoint_every as usize;
        let chaos = ChaosConfig {
            kill_at: job.kill_at.map(|at| at as usize).or(state.chaos.kill_at),
            ..state.chaos
        };
        let stats = Arc::new(CommStats::new());
        let transport = FramedStreamWorker::<P::Value>::new(stream.try_clone_stream()?, stats)?
            .with_epoch(run_id);
        // The fault schedule of a drill; empty (the default), the wrapper
        // passes every command and report through.
        let victim = stream.try_clone_stream()?;
        let die = state.on_kill;
        let on_kill = move || match die {
            Some(die) => die(),
            None => {
                let _ = victim.shutdown_both();
            }
        };
        let transport = ChaosWorkerTransport::new(transport, chaos, Box::new(on_kill));
        let outcome = run_seeded_worker(
            &program,
            &query,
            fragment,
            &transport,
            threads,
            checkpoint_every,
            seed.as_ref(),
        );
        // The worker loop also stops on connection failure; only a clean
        // Finish-terminated run may report a result.
        if let Some(reason) = transport.inner().disconnect_reason() {
            return Err(io::Error::other(format!(
                "query {run_id} torn down: {reason}"
            )));
        }
        let Some((partial, warm)) = outcome else {
            return Err(io::Error::other(format!(
                "query {run_id} torn down before PEval"
            )));
        };
        let (frame, snapshot) = result_frame(
            &program,
            fragment,
            &partial,
            warm,
            run_id,
            state.keeps_converged,
        )?;
        if let Some(snapshot) = snapshot {
            state.keep_converged(job.graph_id, job.index, key, version, snapshot);
        }
        send(&mut stream.try_clone_stream()?, &frame)
    }
}

/// A finished query's `TAG_RESULT` frame — what Assemble reads of the
/// partial, then the flag that says whether PEval started warm — and, when
/// `keep` asks for it, the partial's snapshot to keep. One snapshot at most:
/// a program whose answer is its snapshot ([`PieProgram::encode_answer`]
/// declines) ships the one it keeps.
fn result_frame<P: PieProgram>(
    program: &P,
    fragment: &Fragment<P::VertexData, P::EdgeData>,
    partial: &P::Partial,
    warm: bool,
    run_id: u32,
    keep: bool,
) -> io::Result<(Vec<u8>, Option<Vec<u8>>)> {
    let owners = program.encode_answer(fragment, partial);
    let snapshot = if keep || owners.is_none() {
        program.snapshot_partial(partial)
    } else {
        None
    };
    let answer = owners
        .as_deref()
        .or(snapshot.as_deref())
        .ok_or_else(|| io::Error::other("program cannot encode its answer"))?;
    let mut frame = Vec::with_capacity(wire::HEADER_LEN + 1 + answer.len());
    wire::encode_frame_with_epoch(TAG_RESULT, run_id, &mut frame, |out| {
        out.extend_from_slice(answer);
        warm.encode(out);
    });
    Ok((frame, snapshot.filter(|_| keep)))
}

// ---------------------------------------------------------------------------
// The client: Session
// ---------------------------------------------------------------------------

/// Where a session's workers live.
#[derive(Debug, Clone, Default)]
pub struct SessionConfig {
    /// Number of fragments/workers.
    pub workers: usize,
    /// Daemon endpoints; worker `i` is served by `endpoints[i % len]`, so a
    /// single daemon can host the whole fleet. Empty = a private daemon that
    /// [`Session::connect`] spawns on a loopback port of this process and
    /// binds with [`EngineConfig::auth_token`], or a fresh random token.
    pub endpoints: Vec<Endpoint>,
    /// Per-query engine knobs (read timeout, checkpoint cadence, auth token,
    /// threads per worker). [`EngineConfig::transport`] and
    /// [`EngineConfig::execution`] apply to one-shot runs only: a session's
    /// workers always speak framed streams to their daemon.
    /// [`EngineConfig::run_id`] is stamped per query by the session and need
    /// not be set here.
    pub engine: EngineConfig,
}

impl SessionConfig {
    /// A session whose workers are resident in this process, served by a
    /// private daemon.
    pub fn in_process(workers: usize) -> SessionConfig {
        SessionConfig {
            workers,
            ..Default::default()
        }
    }

    /// A session served by remote daemons.
    pub fn remote(workers: usize, endpoints: Vec<Endpoint>) -> SessionConfig {
        SessionConfig {
            workers,
            endpoints,
            ..Default::default()
        }
    }

    /// Overrides the engine configuration.
    pub fn with_engine(mut self, engine: EngineConfig) -> SessionConfig {
        self.engine = engine;
        self
    }
}

/// The unified entry point of the engine: `connect → load → submit`.
///
/// A session holds a graph resident — partitioned once, fragments shipped
/// once to [`GrapeService`] daemons: remote ones, or the private one an
/// in-process session spawns — and serves a stream of typed queries over
/// it. Each submitted query gets a fresh run id (its wire epoch), its own
/// fold state over the fragments' shared exchange layout, and its own
/// [`RunStats`]; queries run concurrently on their own threads and
/// connections, so two in-flight queries of different classes never share
/// mutable state. Cloning a [`Session`] yields another handle to the same
/// resident graph (for multi-client drivers); when the last handle drops,
/// the daemons unload the graph and a private daemon shuts down.
///
/// ```no_run
/// use grape_worker::service::{Session, SessionConfig, SessionGraph};
/// use grape_worker::GraphSpec;
/// use grape_algo::Query;
/// use grape_partition::BuiltinStrategy;
///
/// let session = Session::connect(SessionConfig::in_process(4))?;
/// let graph = SessionGraph::generate(&GraphSpec::parse("ba:3000:3:11").unwrap())?;
/// session.load(&graph, BuiltinStrategy::Hash)?;
/// let sssp = session.submit(Query::sssp(0))?;
/// let ranks = session.submit(Query::pagerank())?; // concurrent with sssp
/// println!("{:?}", sssp.join()?.result);
/// println!("{:?}", ranks.join()?.result);
/// # std::io::Result::Ok(())
/// ```
#[derive(Clone)]
pub struct Session {
    inner: Arc<SessionInner>,
}

struct SessionInner {
    /// Never without endpoints: an in-process session's one endpoint is its
    /// private `daemon`'s.
    config: SessionConfig,
    graph: Mutex<Option<LoadedGraph>>,
    /// Orders queries against updates and loads: a query holds it shared
    /// from its snapshot of `graph` until its workers reported; an update
    /// holds it exclusively while it ships, a load while it unloads the graph
    /// it replaces — daemons keep one version per fragment, so a query must
    /// not straddle one. Taken before `graph`, never after.
    resident: RwLock<()>,
    next_run_id: AtomicU32,
    /// The private daemon of an in-process session. Fields drop after
    /// [`Drop::drop`], so dropping this handle shuts the daemon down once
    /// the graph is unloaded. Held for that; only unit tests read it.
    #[cfg_attr(not(test), allow(dead_code))]
    daemon: Option<ServiceHandle>,
}

impl Drop for SessionInner {
    /// Unloads the graph from the daemons, best effort and within the read
    /// timeout: a daemon that is gone has nothing left to free.
    fn drop(&mut self) {
        if let Some(loaded) = self.graph.get_mut().ok().and_then(Option::take) {
            let _ = self.unload(loaded.graph_id);
        }
    }
}

/// Process-wide graph id sequence; combined with the pid so ids from
/// different client processes sharing one daemon cannot collide.
static NEXT_GRAPH_ID: AtomicU64 = AtomicU64::new(1);

fn fresh_graph_id() -> u64 {
    ((std::process::id() as u64) << 32) | NEXT_GRAPH_ID.fetch_add(1, Ordering::Relaxed)
}

/// The answer of one submitted query.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The typed result, bit-identical to a cold one-shot run of the same
    /// query.
    pub result: QueryResult,
    /// Per-query statistics ([`RunStats::run_id`] names the query).
    pub stats: RunStats,
}

/// Handle to one in-flight query; [`QueryHandle::join`] blocks for its
/// outcome.
pub struct QueryHandle {
    run_id: u32,
    class: grape_algo::QueryClass,
    rx: mpsc::Receiver<io::Result<QueryOutcome>>,
}

impl QueryHandle {
    /// The query's run id (its wire epoch; also [`RunStats::run_id`]).
    pub fn run_id(&self) -> u32 {
        self.run_id
    }

    /// The submitted query's class.
    pub fn class(&self) -> grape_algo::QueryClass {
        self.class
    }

    /// Waits for the query to finish.
    pub fn join(self) -> io::Result<QueryOutcome> {
        self.rx
            .recv()
            .map_err(|_| io::Error::other("query thread vanished before reporting"))?
    }
}

impl Session {
    /// Opens a session. Without endpoints, spawns a private daemon on a
    /// loopback port and serves the session from it. The daemon is bound
    /// with the session's auth token; a session without one gets a fresh
    /// random token, so no other process can reach its graph. Endpoints are
    /// probed (connect + hello) so a dead daemon fails here, not on the
    /// first query.
    pub fn connect(mut config: SessionConfig) -> io::Result<Session> {
        if config.workers == 0 {
            return Err(bad_data("a session needs at least one worker"));
        }
        // The one place that tells the two kinds of session apart.
        let daemon = match config.endpoints[..] {
            [] => {
                let token = config.engine.auth_token.get_or_insert_with(fresh_token);
                let options = ServiceOptions {
                    token: Some(token.clone()),
                    handshake_timeout: config.engine.read_timeout,
                };
                let daemon = GrapeService::bind("127.0.0.1:0", options)?.spawn()?;
                config.endpoints.push(daemon.endpoint().clone());
                Some(daemon)
            }
            _ => None,
        };
        for endpoint in &config.endpoints {
            endpoint
                .dial(&config.engine.auth_token)
                .and_then(|mut stream| stream.flush())
                .map_err(|e| {
                    io::Error::other(format!("service endpoint {endpoint} unreachable: {e}"))
                })?;
        }
        Ok(Session {
            inner: Arc::new(SessionInner {
                config,
                graph: Mutex::new(None),
                resident: RwLock::new(()),
                next_run_id: AtomicU32::new(1),
                daemon,
            }),
        })
    }

    /// Partitions `graph` with `strategy` and makes it resident: fragments
    /// are built once, shipped once to the daemons, and kept for every
    /// subsequent query (with the exchange layout the first query builds
    /// over them). Loading a new graph replaces the previous one: once the
    /// queries in flight on it finish, the daemons unload it, best effort —
    /// a daemon that does not ack the unload within the read timeout keeps
    /// the old graph, and the load still succeeds.
    pub fn load(&self, graph: &SessionGraph, strategy: BuiltinStrategy) -> io::Result<()> {
        let n = self.inner.config.workers;
        let graph_id = fresh_graph_id();
        let vertices = graph.num_vertices() as u64;
        let (fragments, assignment) = SessionFragments::cut(graph, strategy, n);
        let spec = LoadSpec {
            graph_id,
            family: fragments.family(),
            index: 0, // set per fragment
            workers: n as u32,
            vertices,
        };
        let shipped = match &fragments {
            SessionFragments::Weighted(frags) => self.inner.ship_fragments(spec, frags),
            SessionFragments::Labeled(frags) => self.inner.ship_fragments(spec, frags),
        };
        if let Err(e) = shipped {
            // The daemons that took a fragment would keep it for good.
            let _ = self.inner.unload(graph_id);
            return Err(e);
        }
        let _exclusive = self.inner.resident.write().unwrap();
        let replaced = self.inner.graph.lock().unwrap().replace(LoadedGraph {
            graph_id,
            vertices,
            fragments,
            assignment: Arc::new(assignment),
            log: DeltaLog::new(),
            converged: HashMap::new(),
            in_doubt: None,
        });
        if let Some(old) = replaced {
            let _ = self.inner.unload(old.graph_id);
        }
        Ok(())
    }

    /// Applies a mutation batch to the resident graph, atomically for every
    /// subsequent query. The batch is checked and netted against the
    /// resident fragments without changing them, spliced into new copies of
    /// the fragments it touches (bit-identical to re-cutting the updated
    /// graph), and shipped to every daemon's resident fragment over
    /// versioned `TAG_UPDATE` frames. Only then does the session commit the
    /// new version. The update waits for the queries in flight; the ones
    /// submitted after it run on the new version.
    ///
    /// On `Err` the session is at its old version: an invalid batch, a
    /// failed splice and a failed ship all leave its fragments, assignment
    /// and version log as they were. A failed ship may still have reached
    /// some daemons, which then hold the next version; the session records
    /// the batch as *in doubt*. Until the same batch is retried (it is
    /// shipped again, and committed) or a graph is loaded afresh, the
    /// session refuses any other batch and every query, naming the version
    /// in doubt.
    ///
    /// Subsequent [`Session::submit`] calls of a query that has already
    /// converged on this session are transparently **incremental**: each
    /// worker re-seeds from the converged state it keeps and the batch's
    /// dirty set instead of re-running PEval cold, with bit-identical
    /// results ([`RunStats::warm_fragments`] counts the fragments that did).
    pub fn update(&self, batch: impl Into<SessionUpdate>) -> io::Result<UpdateReceipt> {
        self.inner.apply_session_update(batch.into())
    }

    /// Submits one query; returns immediately with a handle. The query runs
    /// on its own thread and its own connections, concurrently with every
    /// other in-flight query.
    pub fn submit(&self, query: Query) -> io::Result<QueryHandle> {
        self.submit_inner(query, None)
    }

    /// [`Session::submit`] with a chaos schedule: worker `kill_worker`'s
    /// connection is severed upon receiving command `kill_at` — the
    /// transport-level SIGKILL of the recovery drills. Forces a checkpoint
    /// cadence of at least 1 so the query recovers.
    pub fn submit_with_kill(
        &self,
        query: Query,
        kill_worker: usize,
        kill_at: usize,
    ) -> io::Result<QueryHandle> {
        if kill_worker >= self.inner.config.workers {
            return Err(bad_data(format!(
                "kill drill names worker {kill_worker}, but the session has {} workers",
                self.inner.config.workers
            )));
        }
        self.submit_inner(query, Some((kill_worker, kill_at)))
    }

    /// Submits a batch with co-scheduled admission: queries of the same
    /// class form one admission wave sharing a submission thread (amortizing
    /// program setup back-to-back over the same resident fragments), and the
    /// waves of different classes run concurrently. Handles come back in
    /// submission order.
    pub fn submit_batch(&self, queries: Vec<Query>) -> io::Result<Vec<QueryHandle>> {
        let mut waves: Vec<(grape_algo::QueryClass, Wave)> = Vec::new();
        let mut handles = Vec::with_capacity(queries.len());
        for query in queries {
            let run_id = self.inner.next_run_id.fetch_add(1, Ordering::Relaxed);
            let class = query.class();
            let (tx, rx) = mpsc::channel();
            handles.push(QueryHandle { run_id, class, rx });
            match waves.iter_mut().find(|(c, _)| *c == class) {
                Some((_, wave)) => wave.push((query, run_id, tx)),
                None => waves.push((class, vec![(query, run_id, tx)])),
            }
        }
        for (_, wave) in waves {
            spawn_wave(Arc::clone(&self.inner), wave, None);
        }
        Ok(handles)
    }

    fn submit_inner(&self, query: Query, kill: Option<(usize, usize)>) -> io::Result<QueryHandle> {
        let run_id = self.inner.next_run_id.fetch_add(1, Ordering::Relaxed);
        let class = query.class();
        let (tx, rx) = mpsc::channel();
        spawn_wave(Arc::clone(&self.inner), vec![(query, run_id, tx)], kill);
        Ok(QueryHandle { run_id, class, rx })
    }
}

/// Queries run back to back on one thread, each with its run id and the
/// sender its [`QueryHandle`] receives from.
type Wave = Vec<(Query, u32, mpsc::Sender<io::Result<QueryOutcome>>)>;

/// Runs `wave` on a thread of its own, answering each query as it finishes.
/// The thread lets go of the session before it answers the last one, so a
/// caller that joins every handle and then drops its [`Session`] drops the
/// last handle: the graph is unloaded by the time that drop returns.
fn spawn_wave(inner: Arc<SessionInner>, wave: Wave, kill: Option<(usize, usize)>) {
    std::thread::spawn(move || {
        let mut wave = wave.into_iter();
        while let Some((query, run_id, tx)) = wave.next() {
            let outcome = inner.run_query(&query, run_id, kill);
            if wave.len() == 0 {
                drop(inner);
                let _ = tx.send(outcome);
                return;
            }
            let _ = tx.send(outcome);
        }
    });
}

impl SessionInner {
    /// Applies one update batch end to end; see [`Session::update`].
    fn apply_session_update(&self, batch: SessionUpdate) -> io::Result<UpdateReceipt> {
        // Queries read the daemons' fragments, not this session's: wait for
        // the ones in flight, so none sees a half-shipped version.
        // Holding it also keeps updates one at a time.
        let _exclusive = self.resident.write().unwrap();
        let (graph_id, version, fragments, base) = {
            let guard = self.graph.lock().unwrap();
            let loaded = guard
                .as_ref()
                .ok_or_else(|| bad_data("no graph loaded: call Session::load first"))?;
            let base = UpdateBase {
                vertices: loaded.vertices,
                assignment: Arc::clone(&loaded.assignment),
                in_doubt: loaded.in_doubt.clone(),
            };
            let version = loaded.log.version() + 1;
            (loaded.graph_id, version, loaded.fragments.clone(), base)
        };
        let spec = UpdateSpec {
            graph_id,
            family: fragments.family(),
            index: 0,    // set per fragment
            vertices: 0, // known once the batch is staged
            version,
        };
        let shipped = match (&fragments, &batch) {
            (SessionFragments::Weighted(frags), SessionUpdate::Weighted(muts)) => {
                self.stage_and_ship(spec, base, frags, muts)?
            }
            (SessionFragments::Labeled(frags), SessionUpdate::Labeled(muts)) => {
                self.stage_and_ship(spec, base, frags, muts)?
            }
            _ => {
                return Err(bad_data(
                    "update family does not match the loaded graph's family",
                ))
            }
        };

        let mut guard = self.graph.lock().unwrap();
        let loaded = guard
            .as_mut()
            .filter(|loaded| loaded.graph_id == graph_id)
            .ok_or_else(|| {
                bad_data(format!(
                    "the graph was replaced while update {version} was in flight"
                ))
            })?;
        let staged = match shipped {
            Ok(staged) => staged,
            Err(InDoubt { error: e, resolved }) => {
                loaded.in_doubt = Some(resolved);
                return Err(io::Error::new(
                    e.kind(),
                    format!(
                        "update {version} failed mid-ship and is in doubt \
                         (retry the same batch): {e}"
                    ),
                ));
            }
        };
        loaded.fragments = staged.fragments;
        let assignment = Arc::make_mut(&mut loaded.assignment);
        for (v, f) in staged.placements {
            assignment.assign(v, f);
        }
        loaded.vertices = staged.vertices;
        loaded.in_doubt = None;
        let receipt = UpdateReceipt {
            version,
            dirty: staged.dirty.len(),
            profile: staged.profile,
            stage_seconds: staged.stage_seconds,
            splice_seconds: staged.splice_seconds,
            ship_seconds: staged.ship_seconds,
        };
        let recorded = loaded.log.record(staged.dirty, staged.profile);
        debug_assert_eq!(recorded, version);
        Ok(receipt)
    }

    /// Family-generic core of an update, outside the session lock: stage
    /// the batch against the resident fragments, resolve it against the
    /// assignment, splice it into new copies of the fragments it touches,
    /// and ship it to the daemons. Nothing the session holds changes here;
    /// the caller commits what this returns. Untouched fragments stay shared
    /// with the queries in flight, and with the next version's table.
    ///
    /// `Err` if the batch is refused before anything leaves the session;
    /// `Ok(Err(_))` if the ship failed.
    fn stage_and_ship<V, E>(
        &self,
        mut spec: UpdateSpec,
        base: UpdateBase,
        fragments: &[Arc<Fragment<V, E>>],
        batch: &[GraphMutation<V, E>],
    ) -> io::Result<Result<StagedUpdate, InDoubt>>
    where
        V: Wire + Clone + Default,
        E: Wire + Clone,
        SessionFragments: From<Vec<Arc<Fragment<V, E>>>>,
    {
        let version = spec.version;
        // While a batch is in doubt, only that batch may ship as `version`.
        let in_doubt = || {
            bad_data(format!(
                "update {version} is in doubt: retry the batch that failed to ship, \
                 or load the graph again"
            ))
        };
        let staging = Instant::now();
        let view = FragmentView::new(fragments, &base.assignment);
        let staged = stage_batch(&view, batch).map_err(|e| match base.in_doubt {
            Some(_) => in_doubt(),
            None => bad_data(format!("bad update batch: {e}")),
        })?;
        let added = staged.net.added_vertices.len() as u64;
        let removed = staged.net.removed_vertices.len() as u64;
        let resolved = ResolvedMutations::resolve(staged.net, &base.assignment, |v| {
            view.vertex_data(v).cloned()
        });
        let encoded = resolved.encode_to_vec();
        if base
            .in_doubt
            .as_ref()
            .is_some_and(|pending| *pending != encoded)
        {
            return Err(in_doubt());
        }
        let stage_seconds = staging.elapsed().as_secs_f64();
        let splicing = Instant::now();
        let mut next = fragments.to_vec();
        for (index, fragment) in fragments.iter().enumerate() {
            let updated = fragment
                .splice_mutations(&resolved)
                .map_err(|e| bad_data(format!("fragment update failed: {e}")))?;
            if let Some(updated) = updated {
                next[index] = Arc::new(updated);
            }
        }
        let splice_seconds = splicing.elapsed().as_secs_f64();
        spec.vertices = base.vertices + added - removed;
        let shipping = Instant::now();
        if let Err(error) = self.ship_updates(&spec, &encoded) {
            return Ok(Err(InDoubt {
                error,
                resolved: encoded,
            }));
        }
        Ok(Ok(StagedUpdate {
            fragments: next.into(),
            placements: resolved.placements(&base.assignment),
            vertices: spec.vertices,
            dirty: staged.dirty,
            profile: staged.profile,
            stage_seconds,
            splice_seconds,
            ship_seconds: shipping.elapsed().as_secs_f64(),
        }))
    }

    /// Ships every fragment of a freshly cut graph to the daemon hosting its
    /// worker, each over a connection of its own.
    fn ship_fragments<V, E>(
        &self,
        mut spec: LoadSpec,
        fragments: &[Arc<Fragment<V, E>>],
    ) -> io::Result<()>
    where
        V: Wire + Clone,
        E: Wire + Clone,
    {
        for (index, fragment) in fragments.iter().enumerate() {
            spec.index = index as u32;
            ship_fragment(&mut self.dial_control(index)?, &spec, 0, fragment)?;
        }
        Ok(())
    }

    /// A greeted connection to the daemon hosting worker `index`.
    fn dial(&self, index: usize) -> io::Result<ServiceSocket> {
        self.config.endpoints[index % self.config.endpoints.len()]
            .dial(&self.config.engine.auth_token)
    }

    /// [`SessionInner::dial`] for a request answered by one ack (a load, an
    /// update, an unload): connecting, writing and the ack are bounded by
    /// the read timeout, so a daemon that never answers fails the request
    /// instead of stalling it, and the queries waiting behind it, for good.
    fn dial_control(&self, index: usize) -> io::Result<ServiceSocket> {
        let engine = &self.config.engine;
        self.config.endpoints[index % self.config.endpoints.len()]
            .dial_within(&engine.auth_token, engine.read_timeout)
    }

    /// Ships one resolved batch, wire-encoded once as `batch`, to every
    /// daemon-resident fragment: per worker, a versioned `TAG_UPDATE` frame
    /// answered by `TAG_UPDATED`. Every frame is written before the first
    /// ack is read, so the daemons splice their fragments at once rather
    /// than one after another. The version fence makes retries after a lost
    /// ack idempotent on the daemon.
    fn ship_updates(&self, spec: &UpdateSpec, batch: &[u8]) -> io::Result<()> {
        let (graph_id, version) = (spec.graph_id, spec.version);
        let mut frame = Vec::new();
        let mut streams = Vec::with_capacity(self.config.workers);
        for index in 0..self.config.workers {
            let spec = UpdateSpec {
                index: index as u32,
                ..spec.clone()
            };
            frame.clear();
            wire::encode_frame_with_epoch(TAG_UPDATE, version as u32, &mut frame, |out| {
                spec.encode(out);
                out.extend_from_slice(batch);
            });
            let mut stream = self.dial_control(index)?;
            send(&mut stream, &frame)?;
            streams.push(stream);
        }
        for mut stream in streams {
            let ack = read_ack(&mut stream, TAG_UPDATED, &format!("update {version}"))?;
            let (acked_graph, acked_version): (u64, u64) = decode_body(&ack, "update ack")?;
            if acked_graph != graph_id || acked_version != version {
                return Err(bad_data(format!(
                    "daemon acked graph {acked_graph:#x} at version {acked_version}, \
                     expected {graph_id:#x} at {version}"
                )));
            }
        }
        Ok(())
    }

    /// Tells every daemon to drop graph `graph_id`: one `TAG_UNLOAD` frame
    /// per endpoint, all written before the first `TAG_UNLOADED` ack is
    /// read. A daemon older than the unload frame hangs up on it: an `Err`
    /// that leaves its graph resident, as it always was there.
    fn unload(&self, graph_id: u64) -> io::Result<()> {
        let mut frame = Vec::new();
        wire::encode_frame_epoch(TAG_UNLOAD, 0, &graph_id, &mut frame);
        let mut streams = Vec::with_capacity(self.config.endpoints.len());
        for index in 0..self.config.endpoints.len() {
            let mut stream = self.dial_control(index)?;
            send(&mut stream, &frame)?;
            streams.push(stream);
        }
        for mut stream in streams {
            let ack = read_ack(&mut stream, TAG_UNLOADED, &format!("unload {graph_id:#x}"))?;
            let acked: u64 = decode_body(&ack, "unload ack")?;
            if acked != graph_id {
                return Err(bad_data(format!(
                    "daemon acked the unload of graph {acked:#x}, expected {graph_id:#x}"
                )));
            }
        }
        Ok(())
    }

    /// Runs one submitted query to completion over the resident graph.
    fn run_query(
        &self,
        query: &Query,
        run_id: u32,
        kill: Option<(usize, usize)>,
    ) -> io::Result<QueryOutcome> {
        let _shared = self.resident.read().unwrap();
        let (graph_id, vertices, fragments, warm) = {
            let guard = self.graph.lock().unwrap();
            let loaded = guard
                .as_ref()
                .ok_or_else(|| bad_data("no graph loaded: call Session::load first"))?;
            if loaded.in_doubt.is_some() {
                return Err(bad_data(format!(
                    "update {} is in doubt: the daemons may hold different graph \
                     versions until that batch is retried",
                    loaded.log.version() + 1
                )));
            }
            let key = query.encode_to_vec();
            // Warm start: the version this exact query last converged at (if
            // any), re-based across every update applied since. Only built
            // when updates actually happened — a plain resubmission stays
            // cold, so its stats (supersteps, messages) reproduce exactly.
            let handle = loaded
                .converged
                .get(&key)
                .filter(|&&converged| converged < loaded.log.version())
                .and_then(|&converged| {
                    let (dirty, profile) = loaded.log.since(converged)?;
                    Some(WarmHandle {
                        version: converged,
                        dirty: Arc::new(dirty),
                        profile,
                    })
                });
            (
                loaded.graph_id,
                loaded.vertices,
                loaded.fragments.clone(),
                WarmContext {
                    cache_key: key,
                    version: loaded.log.version(),
                    handle,
                },
            )
        };
        let run = SessionRun {
            session: self,
            query,
            graph_id,
            run_id,
            warm: &warm,
            kill,
        };
        dispatch(query, vertices, fragments.as_family(), run)
    }

    /// Records that a run of the query converged, stamped with the graph
    /// version the run started at — so later submissions re-seed across
    /// exactly the updates applied since. Never replaces a fresher entry (a
    /// concurrent query may have finished on newer fragments), and drops the
    /// write if the graph was replaced mid-run.
    fn store_converged(&self, graph_id: u64, warm: &WarmContext) {
        let mut guard = self.graph.lock().unwrap();
        let Some(loaded) = guard.as_mut() else { return };
        if loaded.graph_id != graph_id {
            return;
        }
        let key = &warm.cache_key;
        if loaded.converged.get(key).is_some_and(|&v| v > warm.version) {
            return;
        }
        loaded.converged.insert(key.clone(), warm.version);
    }
}

/// One submitted query of a [`Session`], for whichever class [`dispatch`]
/// resolves it to.
struct SessionRun<'a> {
    session: &'a SessionInner,
    query: &'a Query,
    graph_id: u64,
    run_id: u32,
    warm: &'a WarmContext,
    kill: Option<(usize, usize)>,
}

impl ClassVisitor for SessionRun<'_> {
    type Out = QueryOutcome;

    /// Drives the query as a coordinator over per-query daemon connections.
    /// With a warm handle the run is incremental — each worker's PEval
    /// warm-starts from the converged partial it keeps and the dirty set of
    /// the updates applied since; either way the run's convergence is
    /// recorded for the next submission, and the answer assembled.
    fn visit<P: PieProgram>(
        self,
        program: P,
        _typed: P::Query,
        wrap: impl Fn(P::Output) -> QueryResult,
        fragments: &[Arc<Fragment<P::VertexData, P::EdgeData>>],
    ) -> io::Result<QueryOutcome> {
        let SessionRun {
            session,
            query,
            graph_id,
            run_id,
            warm,
            kill,
        } = self;
        let mut config = session.config.engine.clone();
        config.run_id = run_id;
        if kill.is_some() && config.checkpoint_every == 0 {
            config.checkpoint_every = 1;
        }
        // Do not ship a handle that will be refused: the worker decides, but
        // an update shape the program cannot replay from its old fixpoint
        // runs cold either way (and still refreshes the converged state).
        let handle = warm
            .handle
            .as_ref()
            .filter(|handle| program.incremental_eligible(&handle.profile));
        let engine = GrapeEngine::new(program).with_config(config);
        let config = engine.config();

        // A stream to worker `i` at epoch `e`: a fresh connection to its
        // daemon, which holds the fragment resident — reconnecting after a
        // loss re-ships nothing.
        let mut frame = Vec::new();
        let mut open = |worker: usize, epoch: u32| -> io::Result<(ServiceSocket, usize)> {
            let job = QueryJob {
                graph_id,
                index: worker as u32,
                workers: fragments.len() as u32,
                run_id: epoch,
                threads: config.threads_per_worker.into(),
                checkpoint_every: config.checkpoint_every as u32,
                query: query.clone(),
                // Only the first connection of the victim carries the kill;
                // its replacement must live.
                kill_at: kill
                    .filter(|&(victim, _)| victim == worker && epoch == run_id)
                    .map(|(_, at)| at as u32),
                // The handle rides on the job itself, so a worker replaced
                // mid-run re-enters with the same warm start.
                seed: handle.cloned(),
            };
            frame.clear();
            wire::encode_frame_epoch(TAG_QUERY, epoch, &job, &mut frame);
            let mut stream = session.dial(worker)?;
            send(&mut stream, &frame)?;
            Ok((stream, frame.len()))
        };
        let (answers, mut stats) =
            coordinate(&engine, fragments, config.checkpoint_every > 0, &mut open)?;
        let assemble_started = Instant::now();
        let output = engine
            .program()
            .assemble_answers(fragments, &answers)
            .map_err(|e| bad_data(format!("query {run_id}: {e}")))?;
        stats.assemble_seconds = assemble_started.elapsed().as_secs_f64();
        session.store_converged(graph_id, warm);
        Ok(QueryOutcome {
            result: wrap(output),
            stats,
        })
    }
}

/// Ships one fragment down a greeted connection and waits for the ack:
/// `TAG_LOAD`, the fragment frame at the same `epoch`, then `TAG_LOADED`.
pub(crate) fn ship_fragment<V, E>(
    stream: &mut (impl Read + Write),
    spec: &LoadSpec,
    epoch: u32,
    fragment: &Fragment<V, E>,
) -> io::Result<()>
where
    V: Wire + Clone,
    E: Wire + Clone,
{
    let mut frames = Vec::new();
    wire::encode_frame_epoch(TAG_LOAD, epoch, spec, &mut frames);
    encode_fragment_epoch(fragment, epoch, &mut frames);
    send(stream, &frames)?;
    let ack = read_ack(stream, TAG_LOADED, &format!("fragment {}", spec.index))?;
    let acked: u64 = decode_body(&ack, "load ack")?;
    if acked != spec.graph_id {
        return Err(bad_data(format!(
            "worker acked graph {acked:#x}, expected {:#x}",
            spec.graph_id
        )));
    }
    Ok(())
}

/// Hangs up every connection a query opened once its coordinator is done
/// with them, on success and on error alike: the reader threads of the
/// transport hold their own aliases of the sockets, so dropping the
/// transport alone would leave each worker waiting for a next frame that
/// never comes.
struct Hangup<S: ServiceStream>(Vec<S>);

impl<S: ServiceStream> Drop for Hangup<S> {
    fn drop(&mut self) {
        for stream in &self.0 {
            let _ = stream.shutdown_both();
        }
    }
}

/// The coordinator side of one query over remote workers: opens a stream per
/// worker, drives the BSP fixpoint over them, and collects one `TAG_RESULT`
/// per worker. Returns, in worker order, the workers' answers — the bytes
/// [`PieProgram::assemble_answers`] reads — plus the run's stats, [`RunStats::warm_fragments`] included.
///
/// `open(worker, epoch)` is the only thing that differs between callers: it
/// must return a stream on which worker `worker` has been sent its
/// `TAG_QUERY` at `epoch`, and the bytes of that frame — called once per
/// worker at [`EngineConfig::run_id`] and, when `recoverable`, again at a
/// bumped epoch for every worker lost mid-run. A session dials the daemon;
/// the batch coordinator takes an accepted connection (or respawns a
/// process) and ships the fragment first. The stats carry the service
/// boundary's share: time in `open` ([`RunStats::dispatch_seconds`]), the
/// result wait ([`RunStats::collect_seconds`]), and the query and result
/// frame bytes ([`RunStats::boundary_bytes`]).
///
/// A result frame is a peer's: one that does not end in a warm flag, or
/// that comes from a worker which already answered, is an `InvalidData`
/// error; [`PieProgram::assemble_answers`] checks the answers themselves.
pub(crate) fn coordinate<P, S>(
    engine: &GrapeEngine<P>,
    fragments: &[Arc<Fragment<P::VertexData, P::EdgeData>>],
    recoverable: bool,
    open: &mut dyn FnMut(usize, u32) -> io::Result<(S, usize)>,
) -> io::Result<(Vec<Vec<u8>>, RunStats)>
where
    P: PieProgram,
    S: ServiceStream,
{
    let n = fragments.len();
    let run_id = engine.config().run_id;
    let mut dispatch_seconds = 0.0;
    let mut query_bytes = 0;
    let mut open = |worker: usize, epoch: u32| -> io::Result<S> {
        let started = Instant::now();
        let (stream, sent) = open(worker, epoch)?;
        dispatch_seconds += started.elapsed().as_secs_f64();
        query_bytes += sent;
        Ok(stream)
    };
    let mut hangup = Hangup(Vec::with_capacity(n));
    let mut streams = Vec::with_capacity(n);
    for worker in 0..n {
        let stream = open(worker, run_id)?;
        hangup.0.push(stream.try_clone_stream()?);
        streams.push(stream);
    }
    let comm_stats = Arc::new(CommStats::new());
    let transport = FramedStreamCoord::<P::Value>::new_at_epoch(streams, comm_stats, run_id)?
        .with_read_timeout(engine.config().read_timeout);
    let mut recover = |worker: usize, epoch: u32| -> Result<(), String> {
        let stream = open(worker, epoch).map_err(|e| format!("reopen worker {worker}: {e}"))?;
        let alias = stream
            .try_clone_stream()
            .map_err(|e| format!("alias worker {worker}'s stream: {e}"))?;
        hangup.0.push(alias);
        transport
            .replace_worker(worker, stream, epoch)
            .map_err(|e| format!("replace worker {worker}: {e}"))
    };
    let recover: Option<&mut dyn FnMut(usize, u32) -> Result<(), String>> = if recoverable {
        Some(&mut recover)
    } else {
        None
    };
    let mut stats = engine
        .run_coordinator(fragments, &transport, recover)
        .map_err(|e| io::Error::other(e.to_string()))?;

    // Collect one TAG_RESULT per worker (any order): the answer, taken as it
    // arrived, then the warm flag.
    let collect_started = Instant::now();
    let mut answers: Vec<Option<Vec<u8>>> = vec![None; n];
    let mut result_bytes = 0;
    while answers.iter().any(Option::is_none) {
        let (from, tag, mut payload) = transport
            .recv_oob_blocking()
            .map_err(|e| io::Error::new(io::ErrorKind::TimedOut, e.to_string()))?
            .ok_or_else(|| {
                io::Error::other("connection closed before every worker reported a result")
            })?;
        if tag != TAG_RESULT {
            return Err(bad_data(format!(
                "expected TAG_RESULT from worker {from}, got tag {tag:#04x}"
            )));
        }
        if answers[from].is_some() {
            return Err(bad_data(format!("worker {from} answered twice")));
        }
        result_bytes += HEADER_LEN + payload.len();
        let warm = match payload.pop() {
            Some(0) => false,
            Some(1) => true,
            _ => {
                return Err(bad_data(format!(
                    "worker {from} sent a result without its warm flag"
                )))
            }
        };
        stats.warm_fragments += usize::from(warm);
        answers[from] = Some(payload);
    }
    stats.collect_seconds = collect_started.elapsed().as_secs_f64();
    stats.dispatch_seconds = dispatch_seconds;
    stats.boundary_bytes = (query_bytes + result_bytes) as u64;
    Ok((answers.into_iter().flatten().collect(), stats))
}

/// Context a query carries for converged state: its key, the graph version
/// its fragments correspond to, and — when the query converged before an
/// update — the warm start.
struct WarmContext {
    /// The query's wire encoding: one converged state per distinct query.
    cache_key: Vec<u8>,
    /// Graph version of the fragments this query runs on.
    version: u64,
    /// The version the query last converged at, and the merged dirty set
    /// and profile of every update applied since; `None` runs cold.
    handle: Option<WarmHandle>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(value: &T) {
        let mut buf = Vec::new();
        value.encode(&mut buf);
        let mut reader = WireReader::new(&buf);
        let back = T::decode(&mut reader).expect("decodes");
        reader.finish().expect("no trailing bytes");
        assert_eq!(&back, value);
    }

    type Shared = Vec<Arc<Fragment<(), f64>>>;

    /// The weighted fragments a session holds — checked out the way a query
    /// does it — and the ones its daemon holds.
    fn resident_weighted(session: &Session, daemon: &ServiceHandle) -> (Shared, Shared) {
        let guard = session.inner.graph.lock().unwrap();
        let loaded = guard.as_ref().expect("graph loaded");
        let SessionFragments::Weighted(held) = loaded.fragments.clone() else {
            panic!("weighted graph expected")
        };
        let registry = daemon.state.registry.lock().unwrap();
        let ResidentFragments::Weighted(slots) = &registry[&loaded.graph_id].fragments else {
            panic!("weighted graph expected")
        };
        let slots = slots.iter().map(|s| s.clone().expect("loaded")).collect();
        (held, slots)
    }

    #[test]
    fn an_update_inside_one_fragment_leaves_the_others_alone() {
        let daemon = GrapeService::bind("127.0.0.1:0", ServiceOptions::default())
            .expect("bind")
            .spawn()
            .expect("spawn");
        let workers = 4;
        let session = Session::connect(SessionConfig::remote(
            workers,
            vec![daemon.endpoint().clone()],
        ))
        .expect("connect");
        let config = RoadNetworkConfig {
            width: 24,
            height: 24,
            ..Default::default()
        };
        let graph = road_network(config, 3).expect("generator");
        session
            .load(&graph.into(), BuiltinStrategy::Range)
            .expect("load");
        // Held across the update, like the fragments of a query in flight:
        // sharing them must not make the update copy what it leaves alone.
        let (held_before, slots_before) = resident_weighted(&session, &daemon);

        // Both endpoints owned by fragment 2: no other fragment holds the edge.
        let home = 2;
        let inner = held_before[home].inner_vertices();
        let batch = vec![GraphMutation::AddEdge {
            src: inner[0],
            dst: inner[inner.len() / 2],
            data: 1.25,
        }];
        assert_eq!(session.update(batch).expect("update").version, 1);

        let (held_after, slots_after) = resident_weighted(&session, &daemon);
        for index in 0..workers {
            let untouched = index != home;
            assert_eq!(
                Arc::ptr_eq(&slots_before[index], &slots_after[index]),
                untouched,
                "daemon slot {index}"
            );
            assert_eq!(
                Arc::ptr_eq(&held_before[index], &held_after[index]),
                untouched,
                "session fragment {index}"
            );
            assert_eq!(
                held_before[index] == held_after[index],
                untouched,
                "session fragment {index} changed"
            );
            assert!(
                held_after[index] == slots_after[index],
                "session and daemon disagree on fragment {index}"
            );
        }
        let registry = daemon.state.registry.lock().unwrap();
        assert!(registry.values().all(|g| g.versions == vec![1; workers]));
        drop(registry);
        daemon.shutdown().expect("shutdown");
    }

    #[test]
    fn a_retired_batch_tag_is_refused_and_the_daemon_keeps_serving() {
        // 0x20 was the batch job frame; it is retired, never reassigned, and
        // handled like any other unknown tag.
        const RETIRED_TAG: u8 = 0x20;
        let daemon = GrapeService::bind("127.0.0.1:0", ServiceOptions::default())
            .expect("bind")
            .spawn()
            .expect("spawn");

        // What the frame loop says about it...
        let (mut client, server) = std::os::unix::net::UnixStream::pair().expect("pair");
        wire::write_frame_io_epoch(&mut client, RETIRED_TAG, 0, &7u64).expect("write");
        let err = serve_frames(server, &daemon.state).expect_err("retired tag");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(
            err.to_string(),
            "unexpected frame tag 0x20 on a service connection"
        );

        // ...and what a live daemon does: that connection is hung up on, and
        // a session arriving afterwards is served as if nothing happened.
        let mut stale = daemon.endpoint().dial(&None).expect("dial");
        wire::write_frame_io_epoch(&mut stale, RETIRED_TAG, 0, &7u64).expect("write");
        let mut rest = Vec::new();
        stale.read_to_end(&mut rest).expect("the daemon closes");
        assert!(rest.is_empty(), "the daemon answered a retired frame");

        let session = Session::connect(SessionConfig::remote(2, vec![daemon.endpoint().clone()]))
            .expect("connect");
        let graph = barabasi_albert(60, 2, 5).expect("generator");
        session
            .load(&graph.into(), BuiltinStrategy::Hash)
            .expect("load");
        let outcome = session.submit(Query::cc()).expect("submit").join();
        assert!(outcome.is_ok(), "the daemon stopped serving: {outcome:?}");
        daemon.shutdown().expect("shutdown");
    }

    #[test]
    fn a_fragment_cut_for_another_worker_count_is_refused() {
        let daemon = GrapeService::bind("127.0.0.1:0", ServiceOptions::default())
            .expect("bind")
            .spawn()
            .expect("spawn");
        // Fragment 0 of a three-way cut, loaded under a two-worker spec: its
        // outer owners and mirror runs may name fragment 2.
        let graph = barabasi_albert(30, 2, 1).expect("generator");
        let (fragments, _) = SessionFragments::cut(&graph.into(), BuiltinStrategy::Hash, 3);
        let SessionFragments::Weighted(fragments) = fragments else {
            panic!("weighted graph expected")
        };
        assert!(fragments[0].to_parts().owner.contains(&2));
        let spec = LoadSpec {
            graph_id: 12,
            family: 0,
            index: 0,
            workers: 2,
            vertices: 30,
        };
        let mut frames = Vec::new();
        wire::encode_frame_epoch(TAG_LOAD, 0, &spec, &mut frames);
        encode_fragment_epoch(&fragments[0], 0, &mut frames);

        // The client sends nothing more, so a daemon that took the fragment
        // returns at end of stream instead of waiting for the next frame.
        let (mut client, server) = std::os::unix::net::UnixStream::pair().expect("pair");
        client.write_all(&frames).expect("write");
        client
            .shutdown(std::net::Shutdown::Write)
            .expect("shutdown");
        let err = serve_frames(server, &daemon.state).expect_err("mismatched cut");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string()
                .contains("shipped fragment of 3 under a load spec of 2 workers"),
            "{err}"
        );
        assert!(daemon.state.registry.lock().unwrap().is_empty());
        daemon.shutdown().expect("shutdown");
    }

    #[test]
    fn a_malformed_fragment_is_refused_and_the_daemon_keeps_serving() {
        let daemon = GrapeService::bind("127.0.0.1:0", ServiceOptions::default())
            .expect("bind")
            .spawn()
            .expect("spawn");
        // A load whose fragment names an owner outside the cut.
        let graph = barabasi_albert(30, 2, 1).expect("generator");
        let (fragments, _) = SessionFragments::cut(&graph.into(), BuiltinStrategy::Hash, 2);
        let SessionFragments::Weighted(fragments) = fragments else {
            panic!("weighted graph expected")
        };
        let mut parts = fragments[0].to_parts();
        parts.owner[0] = 7;
        let spec = LoadSpec {
            graph_id: 11,
            family: 0,
            index: 0,
            workers: 2,
            vertices: 30,
        };
        let mut frames = Vec::new();
        wire::encode_frame_epoch(TAG_LOAD, 0, &spec, &mut frames);
        grape_core::encode_fragment_parts(&parts, 0, &mut frames);

        // What the frame loop says about it...
        let (mut client, server) = std::os::unix::net::UnixStream::pair().expect("pair");
        client.write_all(&frames).expect("write");
        let err = serve_frames(server, &daemon.state).expect_err("malformed fragment");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("bad fragment frame"), "{err}");
        assert!(
            err.to_string()
                .contains("owner does not name a fragment for each local vertex"),
            "the error names the rule the fragment broke: {err}"
        );
        assert!(daemon.state.registry.lock().unwrap().is_empty());

        // ...and what a live daemon does: that connection is hung up on, and
        // a session arriving afterwards is served as if nothing happened.
        let mut stale = daemon.endpoint().dial(&None).expect("dial");
        stale.write_all(&frames).expect("write");
        let mut rest = Vec::new();
        stale.read_to_end(&mut rest).expect("the daemon closes");
        assert!(rest.is_empty(), "the daemon acked a malformed fragment");

        let session = Session::connect(SessionConfig::remote(2, vec![daemon.endpoint().clone()]))
            .expect("connect");
        let graph = barabasi_albert(60, 2, 5).expect("generator");
        session
            .load(&graph.into(), BuiltinStrategy::Hash)
            .expect("load");
        let outcome = session.submit(Query::cc()).expect("submit").join();
        assert!(outcome.is_ok(), "the daemon stopped serving: {outcome:?}");
        daemon.shutdown().expect("shutdown");
    }

    /// How [`answer_proxy`] spoils the first `TAG_RESULT` it forwards.
    #[derive(Clone, Copy, Debug)]
    enum Spoil {
        /// The owner column one value short of the fragment's inner count.
        Short,
        /// A byte of the column cut off.
        Truncated,
        /// A byte after the column.
        Trailing,
        /// Sent twice; every other worker's result is held back.
        Twice,
        /// Never forwarded, while the connection stays open.
        Withheld,
    }

    /// A fake daemon: a proxy in front of `upstream` that passes every frame
    /// through, but spoils the first result frame a session gets through it.
    fn answer_proxy(upstream: Endpoint, spoil: Spoil) -> Endpoint {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy");
        let endpoint = Endpoint::Tcp(listener.local_addr().expect("addr").to_string());
        let fired = Arc::new(AtomicBool::new(false));
        std::thread::spawn(move || {
            for client in listener.incoming() {
                let Ok(mut client) = client else { return };
                let mut daemon = upstream.connect().expect("upstream");
                let (mut to_daemon, mut from_client) = (
                    daemon.try_clone_stream().unwrap(),
                    client.try_clone().unwrap(),
                );
                std::thread::spawn(move || {
                    let _ = io::copy(&mut from_client, &mut to_daemon);
                    let _ = to_daemon.shutdown_both();
                });
                let fired = Arc::clone(&fired);
                std::thread::spawn(move || {
                    while let Ok(Some((tag, epoch, mut body))) =
                        wire::read_frame_io_epoch(&mut daemon)
                    {
                        let mut copies = 1;
                        if tag == TAG_RESULT {
                            if fired.swap(true, Ordering::SeqCst) {
                                copies = usize::from(!matches!(spoil, Spoil::Twice));
                            } else {
                                // The column, then the warm flag.
                                let flag = body.len() - 1;
                                match spoil {
                                    Spoil::Short => {
                                        let len = u32::from_le_bytes(body[..4].try_into().unwrap());
                                        body[..4].copy_from_slice(&(len - 1).to_le_bytes());
                                        body.drain(flag - 8..flag);
                                    }
                                    Spoil::Truncated => drop(body.remove(flag - 1)),
                                    Spoil::Trailing => body.insert(flag, 0),
                                    Spoil::Twice => copies = 2,
                                    Spoil::Withheld => copies = 0,
                                }
                            }
                        }
                        let mut frame = Vec::new();
                        for _ in 0..copies {
                            wire::encode_frame_with_epoch(tag, epoch, &mut frame, |out| {
                                out.extend_from_slice(&body)
                            });
                        }
                        if client.write_all(&frame).is_err() {
                            break;
                        }
                    }
                    let _ = client.shutdown(std::net::Shutdown::Both);
                });
            }
        });
        endpoint
    }

    #[test]
    fn hostile_answer_frames_are_refused_and_the_daemon_keeps_serving() {
        let daemon = GrapeService::bind("127.0.0.1:0", ServiceOptions::default())
            .expect("bind")
            .spawn()
            .expect("spawn");
        let graph: SessionGraph = barabasi_albert(60, 2, 5).expect("generator").into();
        let cases = [
            (Spoil::Short, "values for its"),
            (Spoil::Truncated, "truncated"),
            (Spoil::Trailing, "trailing bytes"),
            (Spoil::Twice, "answered twice"),
        ];
        for (spoil, says) in cases {
            let proxy = answer_proxy(daemon.endpoint().clone(), spoil);
            let session = Session::connect(SessionConfig::remote(2, vec![proxy])).expect("connect");
            session.load(&graph, BuiltinStrategy::Hash).expect("load");
            let err = session
                .submit(Query::sssp(0))
                .expect("submit")
                .join()
                .expect_err("a spoilt answer is refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{spoil:?}: {err}");
            assert!(err.to_string().contains(says), "{spoil:?}: {err}");
        }
        // The daemon behind the proxies serves a session of its own as if
        // nothing happened.
        let session = Session::connect(SessionConfig::remote(2, vec![daemon.endpoint().clone()]))
            .expect("connect");
        session.load(&graph, BuiltinStrategy::Hash).expect("load");
        let outcome = session.submit(Query::sssp(0)).expect("submit").join();
        assert!(outcome.is_ok(), "the daemon stopped serving: {outcome:?}");
        daemon.shutdown().expect("shutdown");
    }

    /// sssp, counting the snapshots it takes; with `owners` off it declines
    /// `encode_answer`, like the classes whose answer is their snapshot.
    struct CountingSssp {
        owners: bool,
        snapshots: AtomicU64,
    }

    impl PieProgram for CountingSssp {
        type Query = grape_algo::SsspQuery;
        type VertexData = ();
        type EdgeData = f64;
        type Value = f64;
        type Partial = <grape_algo::SsspProgram as PieProgram>::Partial;
        type Output = HashMap<VertexId, f64>;

        fn peval(
            &self,
            query: &Self::Query,
            fragment: &Fragment<(), f64>,
            ctx: &mut grape_core::PieContext<f64>,
        ) -> Self::Partial {
            grape_algo::SsspProgram.peval(query, fragment, ctx)
        }

        fn inceval(
            &self,
            query: &Self::Query,
            fragment: &Fragment<(), f64>,
            partial: &mut Self::Partial,
            messages: &[(u32, f64)],
            ctx: &mut grape_core::PieContext<f64>,
        ) {
            grape_algo::SsspProgram.inceval(query, fragment, partial, messages, ctx)
        }

        fn assemble(&self, partials: Vec<Self::Partial>) -> Self::Output {
            grape_algo::SsspProgram.assemble(partials)
        }

        fn aggregate(&self, a: &f64, b: &f64) -> f64 {
            grape_algo::SsspProgram.aggregate(a, b)
        }

        fn snapshot_partial(&self, partial: &Self::Partial) -> Option<Vec<u8>> {
            self.snapshots.fetch_add(1, Ordering::SeqCst);
            grape_algo::SsspProgram.snapshot_partial(partial)
        }

        fn encode_answer(
            &self,
            fragment: &Fragment<(), f64>,
            partial: &Self::Partial,
        ) -> Option<Vec<u8>> {
            self.owners
                .then(|| grape_algo::SsspProgram.encode_answer(fragment, partial))
                .flatten()
        }
    }

    #[test]
    fn a_query_takes_one_snapshot_at_most() {
        let g = barabasi_albert(60, 2, 5).expect("generator");
        let fragments = build_fragments(&g, &BuiltinStrategy::Hash.partition(&g, 2));
        for owners in [true, false] {
            let engine = GrapeEngine::new(CountingSssp {
                owners,
                snapshots: AtomicU64::new(0),
            });
            let query = grape_algo::SsspQuery::new(0);
            let (partials, _) = engine.run_partials(&query, &fragments, &[]).unwrap();
            let program = engine.program();
            // A daemon keeps the snapshot; a dialled-in batch worker does not.
            for keep in [true, false] {
                program.snapshots.store(0, Ordering::SeqCst);
                let (frame, kept) =
                    result_frame(program, &fragments[0], &partials[0], false, 7, keep)
                        .expect("frame");
                let taken = program.snapshots.load(Ordering::SeqCst);
                assert_eq!(
                    taken,
                    u64::from(keep || !owners),
                    "owners {owners} keep {keep}"
                );
                assert_eq!(kept.is_some(), keep);
                let (_, body, _) = wire::decode_frame(&frame).expect("a frame");
                let answer = match owners {
                    true => program.encode_answer(&fragments[0], &partials[0]),
                    false => program.snapshot_partial(&partials[0]),
                };
                assert_eq!(body, [&answer.unwrap()[..], &[0]].concat());
            }
        }
    }

    #[test]
    fn a_withheld_result_times_out_and_the_daemon_keeps_serving() {
        let daemon = GrapeService::bind("127.0.0.1:0", ServiceOptions::default())
            .expect("bind")
            .spawn()
            .expect("spawn");
        let graph: SessionGraph = barabasi_albert(60, 2, 5).expect("generator").into();
        // The proxy lets the BSP loop finish, then holds one result back.
        let proxy = answer_proxy(daemon.endpoint().clone(), Spoil::Withheld);
        let timeout = Duration::from_millis(500);
        let engine = EngineConfig::builder().read_timeout(Some(timeout)).build();
        let session = Session::connect(SessionConfig::remote(2, vec![proxy]).with_engine(engine))
            .expect("connect");
        session.load(&graph, BuiltinStrategy::Hash).expect("load");
        let handle = session.submit(Query::sssp(0)).expect("submit");
        let waited = Instant::now();
        let err = handle.join().expect_err("a withheld result is an error");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        assert!(err.to_string().contains("read timeout"), "{err}");
        // The query ran its supersteps, then waited one timeout, not more.
        assert!(waited.elapsed() < 8 * timeout, "{:?}", waited.elapsed());
        let session = Session::connect(SessionConfig::remote(2, vec![daemon.endpoint().clone()]))
            .expect("connect");
        session.load(&graph, BuiltinStrategy::Hash).expect("load");
        let outcome = session.submit(Query::sssp(0)).expect("submit").join();
        assert!(outcome.is_ok(), "the daemon stopped serving: {outcome:?}");
        daemon.shutdown().expect("shutdown");
    }

    #[test]
    fn both_ends_of_a_session_connection_send_without_delay() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let endpoint = Endpoint::Tcp(listener.local_addr().expect("addr").to_string());
        let ServiceSocket::Tcp(client) = endpoint.dial(&None).expect("dial") else {
            unreachable!("a TCP endpoint dials TCP")
        };
        let (server, _) = listener.accept().expect("accept");
        let probe = server.try_clone().expect("alias");
        // The hello is in, and nothing follows: the daemon's side serves the
        // connection to its end.
        client
            .shutdown(std::net::Shutdown::Write)
            .expect("shutdown");
        let state = ServiceState::new(
            ServiceOptions::default(),
            ChaosConfig::default(),
            None,
            true,
        );
        serve_connection(server, &state).expect("served");
        assert!(
            client.nodelay().expect("client option"),
            "the session's end"
        );
        assert!(probe.nodelay().expect("daemon option"), "the daemon's end");
    }

    #[test]
    fn hellos_are_checked_against_the_expected_token() {
        use std::os::unix::net::UnixStream;
        let greet = |token: Option<&str>, expected: Option<&str>| {
            let (mut dialler, mut acceptor) = UnixStream::pair().expect("pair");
            let token = token.map(String::from);
            wire::write_frame_io_epoch(&mut dialler, TAG_HELLO, 0, &token).expect("write");
            expect_hello(&mut acceptor, expected, 3, None)
        };
        assert!(greet(None, None).is_ok());
        assert!(greet(Some("anything"), None).is_ok());
        assert!(greet(Some("secret"), Some("secret")).is_ok());
        for presented in [Some("wrong"), None] {
            let err = greet(presented, Some("secret")).expect_err("rejected");
            assert_eq!(err.kind(), io::ErrorKind::PermissionDenied, "{err}");
            assert!(err.to_string().contains("worker 3"), "{err}");
        }

        // Anything but a hello, a silent dialler and a hang-up are all typed.
        let (mut dialler, mut acceptor) = UnixStream::pair().expect("pair");
        wire::write_frame_io_epoch(&mut dialler, TAG_QUERY, 0, &0u8).expect("write");
        let err = expect_hello(&mut acceptor, None, 0, None).expect_err("not a hello");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let timeout = Some(Duration::from_millis(20));
        let err = expect_hello(&mut acceptor, None, 0, timeout).expect_err("silence");
        assert!(err.to_string().contains("read timeout"), "{err}");
        drop(dialler);
        let err = expect_hello(&mut acceptor, None, 0, None).expect_err("hang-up");
        assert!(err.to_string().contains("lost during handshake"), "{err}");
    }

    #[test]
    fn a_load_acked_for_another_graph_is_refused() {
        let (mut coordinator, mut worker) = std::os::unix::net::UnixStream::pair().expect("pair");
        let graph = barabasi_albert(30, 2, 1).expect("generator");
        let (fragments, _) = SessionFragments::cut(&graph.into(), BuiltinStrategy::Hash, 1);
        let SessionFragments::Weighted(fragments) = fragments else {
            panic!("weighted graph expected")
        };
        let spec = LoadSpec {
            graph_id: 11,
            family: 0,
            index: 0,
            workers: 1,
            vertices: 30,
        };
        // A "worker" that acks graph 12 whatever it was sent.
        wire::write_frame_io_epoch(&mut worker, TAG_LOADED, 0, &12u64).expect("ack");
        let err =
            ship_fragment(&mut coordinator, &spec, 0, &fragments[0]).expect_err("foreign ack");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("acked graph 0xc"), "{err}");
        // What went out is the load spec, then the fragment, at one epoch.
        let (tag, _, body) = wire::read_frame_io_epoch(&mut worker).unwrap().unwrap();
        assert_eq!(tag, TAG_LOAD);
        assert_eq!(decode_body::<LoadSpec>(&body, "load spec").unwrap(), spec);
        let (tag, epoch, _) = wire::read_frame_io_epoch(&mut worker).unwrap().unwrap();
        assert_eq!((tag, epoch), (TAG_FRAGMENT, 0));
    }

    /// The converged partials kept for `query`, per fragment, and the version
    /// they converged at, beside the resident fragments: in an in-process
    /// session's private daemon, or in `daemon`.
    fn kept_partials(
        session: &Session,
        daemon: &ServiceHandle,
        query: &Query,
    ) -> (u64, Vec<Vec<u8>>) {
        let key = query.encode_to_vec();
        let guard = session.inner.graph.lock().unwrap();
        let loaded = guard.as_ref().expect("graph loaded");
        let version = loaded.converged[&key];
        let daemon = session.inner.daemon.as_ref().unwrap_or(daemon);
        let registry = daemon.state.registry.lock().unwrap();
        let resident = &registry[&loaded.graph_id];
        let partials = (0..resident.workers)
            .map(|index| {
                let kept = &resident.converged[&(index, key.clone())];
                assert_eq!(kept.version, version, "fragment {index}");
                kept.snapshot.to_vec()
            })
            .collect();
        (version, partials)
    }

    #[test]
    fn both_backends_cache_the_same_converged_partials() {
        let daemon = GrapeService::bind("127.0.0.1:0", ServiceOptions::default())
            .expect("bind")
            .spawn()
            .expect("spawn");
        let workers = 3;
        let remote = SessionConfig::remote(workers, vec![daemon.endpoint().clone()]);
        let sessions = [SessionConfig::in_process(workers), remote]
            .map(|config| Session::connect(config).expect("connect"));
        let graph = barabasi_albert(200, 3, 5).expect("generator");
        for session in &sessions {
            session
                .load(&graph.clone().into(), BuiltinStrategy::MetisLike)
                .expect("load");
        }
        // Each session's daemon — the in-process one's private daemon, and
        // `daemon` — keeps its workers' partials beside their fragments: after
        // a cold run and after a warm one both hold the same bytes per
        // fragment, at the same version.
        let agree = |stage: &str, warm: usize| {
            for query in [Query::sssp(0), Query::cc(), Query::pagerank()] {
                let [local, remote] = sessions.each_ref().map(|session| {
                    let outcome = session.submit(query.clone()).expect("submit").join();
                    let outcome = outcome.expect("query");
                    assert_eq!(
                        outcome.stats.warm_fragments,
                        warm,
                        "{stage} {:?}",
                        query.class()
                    );
                    (outcome.result, kept_partials(session, &daemon, &query))
                });
                assert_eq!(local.0, remote.0, "{stage} {:?}: answers", query.class());
                assert_eq!(local.1 .1.len(), workers);
                assert!(local.1 == remote.1, "{stage} {:?}: partials", query.class());
            }
        };
        agree("cold", 0);
        let inserts: Vec<GraphMutation<(), f64>> = (1..7)
            .map(|i| GraphMutation::AddEdge {
                src: i * 7,
                dst: 199 - i * 11,
                data: 0.5 + i as f64,
            })
            .collect();
        for session in &sessions {
            session.update(inserts.clone()).expect("update");
        }
        agree("warm", workers);
        daemon.shutdown().expect("shutdown");
    }

    #[test]
    fn a_replaced_or_dropped_graph_leaves_its_daemon() {
        let daemon = GrapeService::bind("127.0.0.1:0", ServiceOptions::default())
            .expect("bind")
            .spawn()
            .expect("spawn");
        let resident = || -> Vec<u64> {
            let registry = daemon.state.registry.lock().unwrap();
            registry.keys().copied().collect()
        };
        let remote = SessionConfig::remote(3, vec![daemon.endpoint().clone()]);
        let session = Session::connect(remote.clone()).expect("connect");
        let graph: SessionGraph = barabasi_albert(60, 2, 5).expect("generator").into();
        for _ in 0..2 {
            session.load(&graph, BuiltinStrategy::Hash).expect("load");
            // A kept partial, to go with the fragments.
            let outcome = session.submit(Query::cc()).expect("submit").join();
            outcome.expect("query");
        }
        let current = session
            .inner
            .graph
            .lock()
            .unwrap()
            .as_ref()
            .unwrap()
            .graph_id;
        assert_eq!(resident(), vec![current], "the replaced graph stayed");
        let other = session.clone();
        drop(session);
        assert_eq!(resident(), vec![current], "a handle is left");
        drop(other);
        assert!(resident().is_empty(), "the dropped session's graph stayed");

        // An unload naming a graph the daemon does not hold is acked.
        let session = Session::connect(remote).expect("connect");
        session.inner.unload(current).expect("unknown graph acked");

        // A private daemon goes with its session.
        let private = Session::connect(SessionConfig::in_process(2)).expect("connect");
        let endpoint = private.inner.config.endpoints[0].clone();
        private.load(&graph, BuiltinStrategy::Hash).expect("load");
        drop(private);
        assert!(
            endpoint.connect().is_err(),
            "the private daemon still listens"
        );
        daemon.shutdown().expect("shutdown");
    }

    #[test]
    fn a_private_daemon_refuses_a_dialler_without_the_session_token() {
        let graph: SessionGraph = barabasi_albert(60, 2, 5).expect("generator").into();
        let session = Session::connect(SessionConfig::in_process(2)).expect("connect");
        session.load(&graph, BuiltinStrategy::Hash).expect("load");
        let token = session.inner.config.engine.auth_token.clone();
        let token = token.expect("a private daemon is bound with a token");
        let graph_id = session
            .inner
            .graph
            .lock()
            .unwrap()
            .as_ref()
            .unwrap()
            .graph_id;
        let resident = || {
            let daemon = session.inner.daemon.as_ref().expect("a private daemon");
            let registry = daemon.state.registry.lock().unwrap();
            registry.contains_key(&graph_id)
        };

        // Another process that found the port and guessed the graph id, with
        // no token or a wrong one, is hung up on before its frame is read.
        let mut unload = Vec::new();
        wire::encode_frame_epoch(TAG_UNLOAD, 0, &graph_id, &mut unload);
        for guess in [None, Some("0".repeat(token.len()))] {
            let endpoint = &session.inner.config.endpoints[0];
            let mut stranger = endpoint
                .dial_within(&guess, Some(Duration::from_secs(5)))
                .expect("dial");
            let _ = stranger.write_all(&unload);
            let mut answer = Vec::new();
            let _ = stranger.read_to_end(&mut answer);
            assert!(answer.is_empty(), "the daemon answered token {guess:?}");
            assert!(resident(), "a dialler without the token unloaded the graph");
        }

        // Every private daemon has a token of its own; the session's own
        // queries are served; a token the session was given is the one used.
        let other = Session::connect(SessionConfig::in_process(2)).expect("connect");
        assert_ne!(other.inner.config.engine.auth_token.as_ref(), Some(&token));
        session
            .submit(Query::cc())
            .expect("submit")
            .join()
            .expect("query");
        let given = EngineConfig::builder().auth_token("given").build();
        let chosen =
            Session::connect(SessionConfig::in_process(2).with_engine(given)).expect("connect");
        let daemon = chosen.inner.daemon.as_ref().expect("a private daemon");
        assert_eq!(daemon.state.options.token.as_deref(), Some("given"));
    }

    #[test]
    fn a_daemon_that_never_acks_fails_a_load_within_the_read_timeout() {
        // Accepts every connection, reads nothing and answers nothing; the
        // channel keeps the accepted sockets open.
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let endpoint = Endpoint::Tcp(listener.local_addr().expect("addr").to_string());
        let (held, accepted) = mpsc::channel();
        std::thread::spawn(move || {
            for stream in listener.incoming().flatten() {
                if held.send(stream).is_err() {
                    break;
                }
            }
        });
        let timeout = Duration::from_millis(200);
        let engine = EngineConfig::builder().read_timeout(Some(timeout)).build();
        let session =
            Session::connect(SessionConfig::remote(2, vec![endpoint]).with_engine(engine))
                .expect("connect");
        let graph: SessionGraph = barabasi_albert(60, 2, 5).expect("generator").into();
        let started = Instant::now();
        let err = session
            .load(&graph, BuiltinStrategy::Hash)
            .expect_err("no ack");
        assert_eq!(err.kind(), io::ErrorKind::TimedOut, "{err}");
        assert!(err.to_string().contains("within the read timeout"), "{err}");
        // The ack of the first fragment, then the unload of the partly
        // shipped graph: each waits one timeout, not for good.
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "{:?}",
            started.elapsed()
        );
        drop(session);
        drop(accepted);
    }

    #[test]
    fn load_spec_wire_roundtrip() {
        roundtrip(&LoadSpec {
            graph_id: 0xdead_beef_0000_0001,
            family: 1,
            index: 3,
            workers: 4,
            vertices: 5000,
        });
    }

    #[test]
    fn query_job_wire_roundtrip() {
        roundtrip(&QueryJob {
            graph_id: 42,
            index: 1,
            workers: 3,
            run_id: 17,
            threads: 2,
            checkpoint_every: 1,
            query: Query::sssp(7),
            kill_at: Some(4),
            seed: None,
        });
        roundtrip(&QueryJob {
            graph_id: 42,
            index: 0,
            workers: 1,
            run_id: 1,
            threads: 0,
            checkpoint_every: 0,
            query: Query::canonical_keyword(),
            kill_at: None,
            seed: Some(WarmHandle {
                version: 3,
                dirty: Arc::new(vec![7, 9]),
                profile: MutationProfile {
                    edge_inserts: 2,
                    ..Default::default()
                },
            }),
        });
    }

    #[test]
    fn update_spec_wire_roundtrip() {
        roundtrip(&UpdateSpec {
            graph_id: 0xfeed_0000_0000_0007,
            family: 0,
            index: 2,
            version: 5,
            vertices: 1234,
        });
    }

    #[test]
    fn endpoint_parse_and_display() {
        let tcp = Endpoint::parse("127.0.0.1:4817");
        assert_eq!(tcp, Endpoint::Tcp("127.0.0.1:4817".into()));
        assert_eq!(tcp.to_string(), "127.0.0.1:4817");
        #[cfg(unix)]
        {
            let uds = Endpoint::parse("uds:/tmp/grape.sock");
            assert_eq!(uds, Endpoint::Uds("/tmp/grape.sock".into()));
            assert_eq!(uds.to_string(), "uds:/tmp/grape.sock");
        }
    }

    #[test]
    fn graph_ids_are_process_unique() {
        let a = fresh_graph_id();
        let b = fresh_graph_id();
        assert_ne!(a, b);
        assert_eq!(a >> 32, std::process::id() as u64);
    }
}
