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
//!   [`Session::connect`] picks the backend (in-process resident engine, or
//!   remote daemons), [`Session::load`] partitions and ships a graph once,
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
//!    for a warm start, the worker's [`IncrementalSeed`] — stamped with that
//!    run id as the frame epoch. The worker resolves the resident fragment
//!    and enters the ordinary BSP worker loop at that epoch (`Init` → PEval
//!    report → (`IncEval` → report)* → `Finish`); the coordinator drives the
//!    ordinary fixpoint over a per-query slot table.
//! 3. After `Finish`, the worker answers with one `TAG_RESULT` frame whose
//!    body is its snapshot-encoded partial and nothing else; the coordinator
//!    restores the k partials and assembles them into the typed output.
//! 4. `TAG_UPDATE` (sessions only) carries a versioned mutation batch for one
//!    resident fragment, acked with `TAG_UPDATED`.
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
    TAG_RESULT, TAG_UPDATE, TAG_UPDATED,
};
use grape_comm::CommStats;
use grape_core::chaos::{ChaosConfig, ChaosWorkerTransport};
use grape_core::engine::run_worker;
use grape_core::par::ThreadCount;
use grape_core::transport::{FramedStreamCoord, FramedStreamWorker, SplitStream};
use grape_core::{
    decode_fragment, encode_fragment_epoch, ConvergedState, DeltaLog, EngineConfig, GrapeEngine,
    IncrementalSeed, MutationProfile, PieProgram, RunStats, VertexId, TAG_FRAGMENT,
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
use std::collections::HashMap;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
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
        let mut stream = self.connect()?;
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
    /// Warm start: the worker's converged partial from a previous run of the
    /// same query, plus the dirty set of the updates applied since. `None`
    /// runs the ordinary cold PEval.
    pub seed: Option<IncrementalSeed>,
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
            seed: Option::<IncrementalSeed>::decode(reader)?,
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
    /// once. Next to nothing in-process, where nothing ships.
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
    /// state cached at version `v` can be re-seeded across any number of
    /// later updates.
    log: DeltaLog,
    /// Converged states keyed by the query's wire encoding: the per-fragment
    /// snapshot-encoded partials of the last completed run of that query,
    /// and the graph version they converged at.
    converged: HashMap<Vec<u8>, ConvergedState>,
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
}

impl ServiceState {
    pub(crate) fn new(options: ServiceOptions, chaos: ChaosConfig, on_kill: Option<fn()>) -> Self {
        ServiceState {
            registry: Mutex::new(HashMap::new()),
            options,
            stop: AtomicBool::new(false),
            chaos,
            on_kill,
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
            state: Arc::new(ServiceState::new(options, ChaosConfig::default(), None)),
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

/// Handle to a daemon spawned with [`GrapeService::spawn`].
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
        self.state.stop.store(true, Ordering::SeqCst);
        // Poke the accept loop so it observes the stop flag.
        let _ = self.endpoint.connect();
        match self.thread.take() {
            Some(thread) => thread
                .join()
                .map_err(|_| io::Error::other("service thread panicked"))?,
            None => Ok(()),
        }
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
        (Some(want), Some(got)) if got == want => Ok(()),
        (Some(_), Some(_)) => Err(denied(format!(
            "worker {index} presented a mismatched auth token"
        ))),
        (Some(_), None) => Err(denied(format!(
            "worker {index} presented no auth token, but this coordinator requires one"
        ))),
    }
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
    let (found, _epoch, body) = wire::read_frame_io_epoch(stream)?
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
    expect_hello(
        &mut stream,
        state.options.token.as_deref(),
        0,
        state.options.handshake_timeout,
    )?;
    serve_frames(stream, state)
}

/// The worker side of the job protocol, from "frame read" to "`TAG_RESULT`
/// written": serves `TAG_LOAD`, `TAG_QUERY` and `TAG_UPDATE` frames until the
/// peer closes. A daemon runs it per accepted connection, a dialled-in batch
/// worker over its one connection to the coordinator.
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
    fn decode<V, E>(body: &[u8], index: u32) -> io::Result<Arc<Fragment<V, E>>>
    where
        V: Wire + Clone + Default,
        E: Wire + Clone,
    {
        let fragment: Fragment<V, E> = decode_fragment(TAG_FRAGMENT, body)
            .map_err(|e| bad_data(format!("bad fragment frame: {e}")))?;
        if fragment.id != index as usize {
            return Err(bad_data(format!(
                "shipped fragment {} under load index {index}",
                fragment.id
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
        0 => FragmentHandle::Weighted(decode(&fbody, spec.index)?),
        _ => FragmentHandle::Labeled(decode(&fbody, spec.index)?),
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
            });
        let fits = entry.workers == spec.workers && entry.vertices == spec.vertices;
        if !(fits && entry.fragments.put(spec.index as usize, fragment)) {
            return Err(bad_data(format!(
                "load spec for graph {} conflicts with its resident shape",
                spec.graph_id
            )));
        }
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

/// Handles one `TAG_QUERY`: resolves the resident fragment and runs the BSP
/// worker loop for it at the query's epoch, then ships the result home.
fn serve_query<S: ServiceStream>(
    stream: &S,
    job: QueryJob,
    state: &ServiceState,
) -> io::Result<()> {
    // Clone the fragment handle out and release the lock before evaluating:
    // concurrent queries must not serialize on the registry.
    let (fragment_slot, vertices) = {
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
        (
            resident.fragments.handle(job.index as usize),
            resident.vertices,
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
}

impl<S: ServiceStream> ClassVisitor for Answer<'_, S> {
    type Out = ();

    /// The BSP session body: the transport runs on an alias (`try_clone`) of
    /// the connection at the query's epoch; the outer frame loop keeps the
    /// original for the next frame, which is safe because the protocol is
    /// strictly request-response (the coordinator sends nothing after
    /// `Finish` until it has our `TAG_RESULT`). A seed on the job goes to the
    /// worker loop as it is.
    fn visit<P: PieProgram>(
        self,
        program: P,
        query: P::Query,
        _wrap: impl Fn(P::Output) -> QueryResult,
        fragments: &[Arc<Fragment<P::VertexData, P::EdgeData>>],
    ) -> io::Result<()> {
        let Answer { stream, state, job } = self;
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
        let partial = run_worker(
            &program,
            &query,
            fragment,
            &transport,
            threads,
            checkpoint_every,
            job.seed.as_ref(),
        );
        // The worker loop also stops on connection failure; only a clean
        // Finish-terminated run may report a result.
        if let Some(reason) = transport.inner().disconnect_reason() {
            return Err(io::Error::other(format!(
                "query {run_id} torn down: {reason}"
            )));
        }
        let Some(partial) = partial else {
            return Err(io::Error::other(format!(
                "query {run_id} torn down before PEval"
            )));
        };
        // The result goes home as the snapshot-encoded partial and nothing
        // else: the coordinator restores and assembles.
        let snapshot = program
            .snapshot_partial(&partial)
            .ok_or_else(|| io::Error::other("program cannot snapshot its partial result"))?;
        let mut frame = Vec::with_capacity(wire::HEADER_LEN + snapshot.len());
        wire::encode_frame_with_epoch(TAG_RESULT, run_id, &mut frame, |out| {
            out.extend_from_slice(&snapshot)
        });
        send(&mut stream.try_clone_stream()?, &frame)
    }
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
    /// single daemon can host the whole fleet. Empty = resident in-process
    /// workers (the engine's `Threads`/`Inline` scheduling).
    pub endpoints: Vec<Endpoint>,
    /// Per-query engine knobs (transport read timeout, checkpoint cadence,
    /// auth token, execution mode, …). [`EngineConfig::run_id`] is stamped
    /// per query by the session and need not be set here.
    pub engine: EngineConfig,
}

impl SessionConfig {
    /// A session whose workers are resident in this process.
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
/// A session holds a graph resident — partitioned once, fragments kept by
/// in-process workers or shipped once to remote [`GrapeService`] daemons —
/// and serves a stream of typed queries over it. Each submitted query gets a
/// fresh run id (its wire epoch), its own slot table, and its own
/// [`RunStats`]; queries run concurrently on their own threads and
/// connections, so two in-flight queries of different classes never share
/// mutable state. Cloning a [`Session`] yields another handle to the same
/// resident graph (for multi-client drivers).
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
    config: SessionConfig,
    graph: Mutex<Option<LoadedGraph>>,
    /// Orders remote queries against updates: a query holds it shared from
    /// its snapshot of `graph` until its workers reported, an update holds it
    /// exclusively while it ships — daemons keep one version per fragment, so
    /// a query must not straddle one. Taken before `graph`, never after.
    resident: RwLock<()>,
    next_run_id: AtomicU32,
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
    /// Opens a session. Remote endpoints are probed (connect + hello) so a
    /// dead daemon fails here, not on the first query.
    pub fn connect(config: SessionConfig) -> io::Result<Session> {
        if config.workers == 0 {
            return Err(bad_data("a session needs at least one worker"));
        }
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
            }),
        })
    }

    /// Partitions `graph` with `strategy` and makes it resident: fragments
    /// are built once, kept for every subsequent query's slot table, and —
    /// for remote sessions — shipped once to the daemons. Loading a new
    /// graph replaces the previous one for future queries; in-flight queries
    /// keep the fragments they started with.
    pub fn load(&self, graph: &SessionGraph, strategy: BuiltinStrategy) -> io::Result<()> {
        let n = self.inner.config.workers;
        let graph_id = fresh_graph_id();
        let vertices = graph.num_vertices() as u64;
        let (fragments, assignment) = SessionFragments::cut(graph, strategy, n);
        if !self.inner.config.endpoints.is_empty() {
            let spec = LoadSpec {
                graph_id,
                family: fragments.family(),
                index: 0, // set per fragment
                workers: n as u32,
                vertices,
            };
            match &fragments {
                SessionFragments::Weighted(frags) => self.inner.ship_fragments(spec, frags)?,
                SessionFragments::Labeled(frags) => self.inner.ship_fragments(spec, frags)?,
            }
        }
        *self.inner.graph.lock().unwrap() = Some(LoadedGraph {
            graph_id,
            vertices,
            fragments,
            assignment: Arc::new(assignment),
            log: DeltaLog::new(),
            converged: HashMap::new(),
            in_doubt: None,
        });
        Ok(())
    }

    /// Applies a mutation batch to the resident graph, atomically for every
    /// subsequent query. The batch is checked and netted against the
    /// resident fragments without changing them, spliced into new copies of
    /// the fragments it touches (bit-identical to re-cutting the updated
    /// graph), and, for remote sessions, shipped to every daemon's resident
    /// fragment over versioned `TAG_UPDATE` frames. Only then does the
    /// session commit the new version. Queries already in flight keep the
    /// fragments they started with.
    ///
    /// On `Err` the session is at its old version: an invalid batch, a
    /// failed splice and a failed ship all leave its fragments, assignment
    /// and version log as they were. A failed ship may still have reached
    /// some daemons, which then hold the next version; the session records
    /// the batch as *in doubt*. Until the same batch is retried (it is
    /// shipped again, and committed) or a graph is loaded afresh, the
    /// session refuses any other batch and every query, naming the version
    /// in doubt. In-process sessions ship nothing and are never in doubt.
    ///
    /// Subsequent [`Session::submit`] calls of a query class that has already
    /// converged on this session are transparently **incremental**: they
    /// re-seed IncEval from the cached converged state and the batch's dirty
    /// set instead of re-running PEval cold, with bit-identical results.
    pub fn update(&self, batch: impl Into<SessionUpdate>) -> io::Result<UpdateReceipt> {
        self.inner.apply_session_update(batch.into())
    }

    /// Submits one query; returns immediately with a handle. The query runs
    /// on its own thread (and, for remote sessions, its own connections),
    /// concurrently with every other in-flight query.
    pub fn submit(&self, query: Query) -> io::Result<QueryHandle> {
        self.submit_inner(query, None)
    }

    /// [`Session::submit`] with a chaos schedule: worker `kill_worker`'s
    /// connection is severed upon receiving command `kill_at` — the
    /// transport-level SIGKILL of the recovery drills. Forces a checkpoint
    /// cadence of at least 1 so the query recovers; remote sessions only.
    pub fn submit_with_kill(
        &self,
        query: Query,
        kill_worker: usize,
        kill_at: usize,
    ) -> io::Result<QueryHandle> {
        if self.inner.config.endpoints.is_empty() {
            return Err(bad_data("kill drills need a remote service session"));
        }
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
        type Wave = Vec<(Query, u32, mpsc::Sender<io::Result<QueryOutcome>>)>;
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
            let inner = Arc::clone(&self.inner);
            std::thread::spawn(move || {
                for (query, run_id, tx) in wave {
                    let _ = tx.send(inner.run_query(&query, run_id, None));
                }
            });
        }
        Ok(handles)
    }

    fn submit_inner(&self, query: Query, kill: Option<(usize, usize)>) -> io::Result<QueryHandle> {
        let run_id = self.inner.next_run_id.fetch_add(1, Ordering::Relaxed);
        let class = query.class();
        let (tx, rx) = mpsc::channel();
        let inner = Arc::clone(&self.inner);
        std::thread::spawn(move || {
            let outcome = inner.run_query(&query, run_id, kill);
            let _ = tx.send(outcome);
        });
        Ok(QueryHandle { run_id, class, rx })
    }
}

impl SessionInner {
    /// Applies one update batch end to end; see [`Session::update`].
    fn apply_session_update(&self, batch: SessionUpdate) -> io::Result<UpdateReceipt> {
        // Remote queries read the daemons' fragments, not this session's:
        // wait for the ones in flight, so none sees a half-shipped version.
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
            ship_fragment(&mut self.dial(index)?, &spec, 0, fragment)?;
        }
        Ok(())
    }

    /// A greeted connection to the daemon hosting worker `index`.
    fn dial(&self, index: usize) -> io::Result<ServiceSocket> {
        self.config.endpoints[index % self.config.endpoints.len()]
            .dial(&self.config.engine.auth_token)
    }

    /// Ships one resolved batch, wire-encoded once as `batch`, to every
    /// daemon-resident fragment (no-op for in-process sessions): per worker,
    /// a versioned `TAG_UPDATE` frame answered by `TAG_UPDATED`. Every frame
    /// is written before the first ack is read, so the daemons splice their
    /// fragments at once rather than one after another. The version fence
    /// makes retries after a lost ack idempotent on the daemon.
    fn ship_updates(&self, spec: &UpdateSpec, batch: &[u8]) -> io::Result<()> {
        if self.config.endpoints.is_empty() {
            return Ok(());
        }
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
            let mut stream = self.dial(index)?;
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

    /// Runs one submitted query to completion over the resident graph.
    fn run_query(
        &self,
        query: &Query,
        run_id: u32,
        kill: Option<(usize, usize)>,
    ) -> io::Result<QueryOutcome> {
        let _shared = (!self.config.endpoints.is_empty()).then(|| self.resident.read().unwrap());
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
            let mut key = Vec::new();
            query.encode(&mut key);
            // Warm start: the cached converged state of this exact query (if
            // any), one seed per fragment, re-based across every update
            // applied since it converged. Only built when updates actually
            // happened — a plain resubmission stays cold, so its stats
            // (supersteps, messages) reproduce exactly.
            let mut seeds = Vec::new();
            let cached = loaded.converged.get(&key);
            if let Some(entry) = cached.filter(|entry| entry.version < loaded.log.version()) {
                if let Some((dirty, profile)) = loaded.log.since(entry.version) {
                    let dirty = Arc::new(dirty);
                    seeds.extend(entry.partials.iter().map(|snapshot| IncrementalSeed {
                        snapshot: Arc::clone(snapshot),
                        dirty: Arc::clone(&dirty),
                        profile,
                    }));
                }
            }
            (
                loaded.graph_id,
                loaded.vertices,
                loaded.fragments.clone(),
                WarmContext {
                    cache_key: key,
                    version: loaded.log.version(),
                    seeds,
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

    /// Caches a run's converged partials under its query key, stamped with
    /// the graph version the run started at — so later submissions re-seed
    /// across exactly the updates applied since. Never replaces a fresher
    /// entry (a concurrent query may have finished on newer fragments), and
    /// drops the write if the graph was replaced mid-run.
    fn store_converged(&self, graph_id: u64, warm: &WarmContext, partials: Vec<Vec<u8>>) {
        let mut guard = self.graph.lock().unwrap();
        let Some(loaded) = guard.as_mut() else { return };
        if loaded.graph_id != graph_id {
            return;
        }
        match loaded.converged.get(&warm.cache_key) {
            Some(existing) if existing.version > warm.version => {}
            _ => {
                loaded.converged.insert(
                    warm.cache_key.clone(),
                    ConvergedState {
                        version: warm.version,
                        partials: partials.into_iter().map(Arc::new).collect(),
                    },
                );
            }
        }
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

    /// Drives the query in-process over the resident fragments, or as a
    /// coordinator over per-query daemon connections. With cached seeds the
    /// run is incremental — PEval warm-starts from the cached converged
    /// partials and the dirty set of the updates applied since; either way
    /// both backends end in the same tail: the converged partials of this run
    /// are cached for the next submission, then assembled.
    fn visit<P: PieProgram>(
        self,
        program: P,
        typed: P::Query,
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
        let remote = !session.config.endpoints.is_empty();
        let mut config = session.config.engine.clone();
        config.run_id = run_id;
        if kill.is_some() && config.checkpoint_every == 0 {
            config.checkpoint_every = 1;
        }
        // Do not ship a seed that will be refused: the worker decides, but an
        // update shape the program cannot replay from its old fixpoint runs
        // cold either way (and still refreshes the converged cache).
        let seeds = match warm.seeds.first() {
            Some(seed) if program.incremental_eligible(&seed.profile) => &warm.seeds[..],
            _ => &[],
        };
        let engine = GrapeEngine::new(program).with_config(config);
        let program = engine.program();

        let (partials, snapshots, mut stats) = if remote {
            // A stream to worker `i` at epoch `e`: a fresh connection to its
            // daemon, which holds the fragment resident — reconnecting after
            // a loss re-ships nothing.
            let config = engine.config();
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
                    // Only the first connection of the victim carries the
                    // kill; its replacement must live.
                    kill_at: kill
                        .filter(|&(victim, _)| victim == worker && epoch == run_id)
                        .map(|(_, at)| at as u32),
                    // The seed rides on the job itself, so a worker replaced
                    // mid-run re-enters with the same warm start.
                    seed: seeds.get(worker).cloned(),
                };
                frame.clear();
                wire::encode_frame_epoch(TAG_QUERY, epoch, &job, &mut frame);
                let mut stream = session.dial(worker)?;
                send(&mut stream, &frame)?;
                Ok((stream, frame.len()))
            };
            coordinate(&engine, fragments, config.checkpoint_every > 0, &mut open)?
        } else {
            let (partials, stats) = engine
                .run_partials(&typed, fragments, seeds)
                .map_err(|e| io::Error::other(e.to_string()))?;
            let snapshots = partials
                .iter()
                .map(|partial| program.snapshot_partial(partial))
                .collect::<Option<Vec<_>>>()
                .ok_or_else(|| io::Error::other("program cannot snapshot its partial result"))?;
            (partials, snapshots, stats)
        };
        session.store_converged(graph_id, warm, snapshots);
        let assemble_started = Instant::now();
        let output = program.assemble(partials);
        stats.assemble_seconds = assemble_started.elapsed().as_secs_f64();
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
/// per worker. Returns, in worker order, the workers' converged partials —
/// restored, ready for Assemble — and the frame bodies they came as (their
/// snapshots), plus the run's stats.
///
/// `open(worker, epoch)` is the only thing that differs between callers: it
/// must return a stream on which worker `worker` has been sent its
/// `TAG_QUERY` at `epoch`, and the bytes of that frame — called once per
/// worker at [`EngineConfig::run_id`] and, when `recoverable`, again at a
/// bumped epoch for every worker lost mid-run. A session dials the daemon;
/// the batch coordinator takes an accepted connection (or respawns a
/// process) and ships the fragment first. The stats carry the service
/// boundary's share: time in `open` ([`RunStats::dispatch_seconds`]), the
/// result wait and restore ([`RunStats::collect_seconds`]), and the query
/// and result frame bytes ([`RunStats::boundary_bytes`]).
#[allow(clippy::type_complexity)]
pub(crate) fn coordinate<P, S>(
    engine: &GrapeEngine<P>,
    fragments: &[Arc<Fragment<P::VertexData, P::EdgeData>>],
    recoverable: bool,
    open: &mut dyn FnMut(usize, u32) -> io::Result<(S, usize)>,
) -> io::Result<(Vec<P::Partial>, Vec<Vec<u8>>, RunStats)>
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

    // Collect one TAG_RESULT per worker (any order); its body is the
    // snapshot, taken as it arrived.
    let collect_started = Instant::now();
    let mut snapshots: Vec<Option<Vec<u8>>> = vec![None; n];
    while snapshots.iter().any(Option::is_none) {
        let (from, tag, payload) = transport.recv_oob_blocking().ok_or_else(|| {
            io::Error::other("connection closed before every worker reported a result")
        })?;
        if tag != TAG_RESULT {
            return Err(bad_data(format!(
                "expected TAG_RESULT from worker {from}, got tag {tag:#04x}"
            )));
        }
        snapshots[from] = Some(payload);
    }
    let snapshots: Vec<Vec<u8>> = snapshots.into_iter().flatten().collect();
    let partials = snapshots
        .iter()
        .enumerate()
        .map(|(worker, snapshot)| {
            engine.program().restore_partial(snapshot).ok_or_else(|| {
                bad_data(format!(
                    "worker {worker} returned an undecodable result snapshot"
                ))
            })
        })
        .collect::<io::Result<_>>()?;
    stats.collect_seconds = collect_started.elapsed().as_secs_f64();
    stats.dispatch_seconds = dispatch_seconds;
    let result_bytes: usize = snapshots.iter().map(|s| HEADER_LEN + s.len()).sum();
    stats.boundary_bytes = (query_bytes + result_bytes) as u64;
    Ok((partials, snapshots, stats))
}

/// Context a query carries for the converged-state cache: its cache key, the
/// graph version its fragments correspond to, and — on a cache hit — the
/// warm start.
struct WarmContext {
    /// The query's wire encoding: one cache slot per distinct query.
    cache_key: Vec<u8>,
    /// Graph version of the fragments this query runs on.
    version: u64,
    /// The cached converged state re-based to this version, one seed per
    /// fragment: its partial plus the merged dirty set and profile of every
    /// update applied since it converged. Empty on a cache miss.
    seeds: Vec<IncrementalSeed>,
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
    fn a_malformed_fragment_is_refused_and_the_daemon_keeps_serving() {
        let daemon = GrapeService::bind("127.0.0.1:0", ServiceOptions::default())
            .expect("bind")
            .spawn()
            .expect("spawn");
        // A load whose fragment lists an inner vertex it does not hold.
        let graph = barabasi_albert(30, 2, 1).expect("generator");
        let (fragments, _) = SessionFragments::cut(&graph.into(), BuiltinStrategy::Hash, 2);
        let SessionFragments::Weighted(fragments) = fragments else {
            panic!("weighted graph expected")
        };
        let mut parts = fragments[0].to_parts();
        parts.inner.push(1_000_000);
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

    /// The converged partials a session caches for `query`, per fragment.
    fn cached_partials(session: &Session, query: &Query) -> Vec<Vec<u8>> {
        let guard = session.inner.graph.lock().unwrap();
        let cache = &guard.as_ref().expect("graph loaded").converged;
        let entry = cache.get(&query.encode_to_vec()).expect("query converged");
        entry.partials.iter().map(|p| p.to_vec()).collect()
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
        // Both end in one tail — snapshots, cache, assemble — so after a cold
        // run and after a warm one they hold the same bytes per fragment.
        let agree = |stage: &str| {
            for query in [Query::sssp(0), Query::cc(), Query::pagerank()] {
                let [local, remote] = sessions.each_ref().map(|session| {
                    let outcome = session.submit(query.clone()).expect("submit").join();
                    let result = outcome.expect("query").result;
                    (result, cached_partials(session, &query))
                });
                assert_eq!(local.0, remote.0, "{stage} {:?}: answers", query.class());
                assert_eq!(local.1.len(), workers);
                assert!(local.1 == remote.1, "{stage} {:?}: partials", query.class());
            }
        };
        agree("cold");
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
        agree("warm");
        daemon.shutdown().expect("shutdown");
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
            seed: Some(IncrementalSeed {
                snapshot: Arc::new(vec![1, 2, 3, 250]),
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
