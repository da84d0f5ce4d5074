//! The reactor-based model-distribution server.
//!
//! A small fixed pool of event-loop threads ("reactors") shares one
//! non-blocking listener, all on `std` — no async runtime, consistent with
//! the workspace's vendored-offline policy. Each reactor owns a set of
//! connections outright and sweeps them with non-blocking reads/writes:
//! per-connection [`FrameReader`]/[`FrameWriter`] state machines resume
//! partial frames across sweeps, so one thread serves thousands of
//! keep-alive connections instead of one thread pinning one socket.
//!
//! Fetch responses come from the catalog's pre-encoded tail cache where
//! possible (unscoped fetches — see `crate::catalog`): the hot path is a
//! 13-byte per-request head plus a shared `Arc<[u8]>` tail, not a fresh
//! `encode_response`. Scoped fetches still encode per request and count as
//! cache misses.
//!
//! The timeout policy carries over from the threaded server unchanged:
//!
//! * a connection that stays idle longer than
//!   [`ServeConfig::read_timeout`] is dropped (clients reconnect
//!   transparently on their next request);
//! * once the first byte of a frame arrives, the whole frame must land
//!   within [`ServeConfig::frame_deadline`] — a slow-loris peer trickling
//!   one byte per idle window cannot pin buffer space forever;
//! * a write that makes no progress for [`ServeConfig::write_timeout`]
//!   drops the connection, as does a peer that queues requests without
//!   draining responses past a fixed backpressure bound;
//! * at most [`ServeConfig::max_connections`] connections are served at
//!   once; excess connections get one [`Status::Busy`] response and are
//!   closed, so an accept flood degrades into fast rejections;
//! * any error response ([`Status`] ≠ `Ok`) is flushed and the connection
//!   closed — a peer that sent one malformed frame is not trusted to frame
//!   the next one correctly.
//!
//! For chaos testing, a [`TransportFaults`] schedule in the config wraps
//! every accepted socket in a [`FaultStream`] (forked per connection, so
//! each connection replays its own deterministic sequence); fault-induced
//! I/O errors tear the one connection down, never the reactor.

use std::collections::BTreeMap;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use waldo_fault::{FaultStream, TransportFaults};
use waldo_obs::series::{wall_ms, MetricsRegistry};

use crate::catalog::{ModelCatalog, ServedChannel};
use crate::ingest::IngestPlane;
use crate::protocol::{
    encode_response, encode_response_header, response_head, FetchResponse, Fill, Flush,
    FrameReader, FrameWriter, LocalityEntry, Request, Status, MAX_REQUEST_BYTES,
};
use crate::stats::{EndpointStats, StatsSnapshot};

/// Environment variable overriding the default connection cap
/// (positive integer; a present-but-invalid value is a loud error — see
/// [`ServeConfig::from_env`]).
pub const ENV_MAX_CONNECTIONS: &str = "WALDO_SERVE_MAX_CONNECTIONS";

/// Environment variable overriding the reactor-pool size
/// (positive integer; a present-but-invalid value is a loud error — see
/// [`ServeConfig::from_env`]).
pub const ENV_REACTORS: &str = "WALDO_SERVE_REACTORS";

/// A peer that has queued this many unread response bytes stops being
/// read from until it drains them — bounds per-connection memory against
/// a pipeliner that never reads.
const WRITE_BACKPRESSURE_BYTES: usize = 1 << 20;

/// Reads attempted per connection per sweep before moving on, so one
/// fire-hose peer cannot starve its reactor's other connections.
const MAX_FILLS_PER_SWEEP: usize = 8;

/// Sweeps that yield (stay hot) before an idle reactor starts sleeping.
const IDLE_SPIN_YIELDS: u32 = 64;

/// Idle sleep ramp: 50µs per idle sweep past the yield budget, capped.
const IDLE_SLEEP_STEP: Duration = Duration::from_micros(50);
const IDLE_SLEEP_MAX: Duration = Duration::from_millis(2);

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Idle limit per connection; an idle connection is dropped after this.
    pub read_timeout: Duration,
    /// Per-write stall limit.
    pub write_timeout: Duration,
    /// Once a frame's first byte arrives, the rest must follow within this
    /// budget or the connection is dropped (anti-slow-loris).
    pub frame_deadline: Duration,
    /// Hard cap on concurrently served connections; connections beyond it
    /// get [`Status::Busy`] and are closed.
    pub max_connections: usize,
    /// Reactor event-loop threads; `0` means auto (available parallelism,
    /// capped at 4 — reactors are I/O loops, not compute workers).
    pub reactors: usize,
    /// Size bound for UPLOAD request frames. Non-upload opcodes stay
    /// bounded by [`MAX_REQUEST_BYTES`]; only a frame whose buffered
    /// opcode byte says UPLOAD may announce up to this many bytes.
    pub max_upload_bytes: u32,
    /// Optional fault schedule wrapped around every accepted socket
    /// (forked per connection). Inert without the `fault` feature.
    pub faults: Option<TransportFaults>,
    /// Cadence of the background metrics sampler feeding the server's
    /// time-series registry (served by `OBS_EXPORT`). Sampling happens on
    /// its own thread, never on the request path.
    pub metrics_cadence: Duration,
}

impl ServeConfig {
    /// The hard-coded defaults, with no environment consulted: 5 s idle
    /// limit, 5 s write stall limit, 10 s frame deadline, 256-connection
    /// cap, auto reactor pool, no fault injection.
    pub fn baseline() -> Self {
        Self {
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            frame_deadline: Duration::from_secs(10),
            max_connections: 256,
            reactors: 0,
            max_upload_bytes: 256 * 1024,
            faults: None,
            metrics_cadence: Duration::from_millis(100),
        }
    }

    /// [`baseline`](Self::baseline) with [`ENV_MAX_CONNECTIONS`] and
    /// [`ENV_REACTORS`] overrides applied. A variable that is *set but
    /// invalid* (zero, negative, garbage, non-unicode) is a typed error,
    /// not a silent fallback — a fleet operator who typo'd a cap should
    /// find out at startup, not during an overload.
    ///
    /// # Errors
    ///
    /// Returns [`EnvConfigError`] naming the variable and its raw value.
    pub fn from_env() -> Result<Self, EnvConfigError> {
        let mut config = Self::baseline();
        if let Some(n) = env_positive_checked(ENV_MAX_CONNECTIONS)? {
            config.max_connections = n;
        }
        if let Some(n) = env_positive_checked(ENV_REACTORS)? {
            config.reactors = n;
        }
        Ok(config)
    }
}

impl Default for ServeConfig {
    /// [`from_env`](ServeConfig::from_env), except `Default` cannot fail:
    /// an invalid override is reported loudly on stderr and ignored
    /// (valid overrides still apply). Binaries that should *refuse* to
    /// start on a bad variable call [`ServeConfig::from_env`] directly.
    fn default() -> Self {
        let mut config = Self::baseline();
        match env_positive_checked(ENV_MAX_CONNECTIONS) {
            Ok(Some(n)) => config.max_connections = n,
            Ok(None) => {}
            Err(e) => {
                eprintln!("waldo-serve: {e}; keeping max_connections = {}", config.max_connections)
            }
        }
        match env_positive_checked(ENV_REACTORS) {
            Ok(Some(n)) => config.reactors = n,
            Ok(None) => {}
            Err(e) => eprintln!("waldo-serve: {e}; keeping reactors = auto"),
        }
        config
    }
}

/// A `WALDO_SERVE_*` variable that was set but did not parse as a
/// positive integer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvConfigError {
    /// The offending variable.
    pub var: &'static str,
    /// Its raw value (lossily decoded if not unicode).
    pub value: String,
}

impl std::fmt::Display for EnvConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} is set to {:?}, which is not a positive integer", self.var, self.value)
    }
}

impl std::error::Error for EnvConfigError {}

/// Parses a positive integer the way `WALDO_WORKERS` does: trimmed,
/// base 10, rejecting zero and garbage.
fn parse_positive(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok().filter(|&n| n > 0)
}

/// Reads `name` as a positive integer: `Ok(None)` when unset,
/// `Ok(Some(n))` when valid, and a typed error when present but invalid.
fn env_positive_checked(name: &'static str) -> Result<Option<usize>, EnvConfigError> {
    match std::env::var(name) {
        Ok(raw) => match parse_positive(&raw) {
            Some(n) => Ok(Some(n)),
            None => Err(EnvConfigError { var: name, value: raw }),
        },
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(os)) => {
            Err(EnvConfigError { var: name, value: os.to_string_lossy().into_owned() })
        }
    }
}

/// Resolves `ServeConfig::reactors == 0` to the machine's parallelism,
/// capped at 4.
fn resolve_reactors(configured: usize) -> usize {
    if configured > 0 {
        return configured;
    }
    std::thread::available_parallelism().map_or(1, usize::from).clamp(1, 4)
}

/// Live counters shared between the reactors and the `Stats` endpoint.
/// All monotonic except `active`.
#[derive(Debug, Default)]
pub(crate) struct ServerStats {
    /// Connections accepted since startup.
    accepted_total: AtomicU64,
    /// Connections open right now (also the connection-cap accounting).
    active: AtomicUsize,
    /// Connections answered [`Status::Busy`] at the cap.
    busy_rejections: AtomicU64,
    /// Requests handled (any opcode, any outcome).
    requests_total: AtomicU64,
    /// Requests answered with a non-`Ok` status.
    errors_total: AtomicU64,
    /// Fetches answered from the pre-encoded response-tail cache.
    cache_hits: AtomicU64,
    /// Fetches that encoded a response (cache build or scoped fetch).
    cache_misses: AtomicU64,
    /// Reactor threads, fixed at startup.
    reactors: AtomicU64,
    /// Replication pulls served to followers.
    repl_syncs_total: AtomicU64,
    /// Metrics-series exports served to observers.
    obs_exports_total: AtomicU64,
}

impl ServerStats {
    /// Builds the wire-facing snapshot, folding in the process-wide obs
    /// histograms (which is what "per-endpoint" means here: one histogram
    /// per `waldo_obs::timed` name) and, when an ingestion plane is
    /// attached, its v3 counters.
    fn snapshot(&self, ingest: Option<&IngestPlane>) -> StatsSnapshot {
        let ingest = ingest.map(IngestPlane::snapshot).unwrap_or_default();
        StatsSnapshot {
            obs_compiled: waldo_obs::compiled(),
            obs_enabled: waldo_obs::enabled(),
            accepted_total: self.accepted_total.load(Ordering::Relaxed),
            active_connections: self.active.load(Ordering::Relaxed) as u64,
            busy_rejections: self.busy_rejections.load(Ordering::Relaxed),
            requests_total: self.requests_total.load(Ordering::Relaxed),
            errors_total: self.errors_total.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            reactors: self.reactors.load(Ordering::Relaxed),
            uploads_total: ingest.uploads_total,
            upload_readings: ingest.readings_total,
            upload_duplicates: ingest.duplicates_total,
            refits_total: ingest.refits_total,
            repl_syncs_total: self.repl_syncs_total.load(Ordering::Relaxed),
            obs_exports_total: self.obs_exports_total.load(Ordering::Relaxed),
            endpoints: waldo_obs::histogram_snapshot()
                .into_iter()
                .map(|(name, hist)| EndpointStats { name: name.to_owned(), hist })
                .collect(),
        }
    }

    fn error(&self) {
        self.errors_total.fetch_add(1, Ordering::Relaxed);
    }
}

/// A running server. Dropping the handle without calling
/// [`shutdown`](Self::shutdown) leaves the reactors running until process
/// exit; tests and the load generator always shut down explicitly.
#[derive(Debug)]
pub struct ServerHandle {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<ServerStats>,
    ingest: Option<Arc<IngestPlane>>,
    metrics: Arc<Mutex<MetricsRegistry>>,
    reactors: Vec<JoinHandle<()>>,
    sampler: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    /// The same snapshot the `Stats` opcode serves, read in-process.
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        self.stats.snapshot(self.ingest.as_deref())
    }

    /// A point-in-time clone of this server's time-series registry — the
    /// same series `OBS_EXPORT` serves, read in-process. Per-handle, not
    /// process-global, so a drill running a leader and followers in one
    /// process still gets per-node series.
    pub fn metrics_snapshot(&self) -> MetricsRegistry {
        self.metrics.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Signals the reactors and sampler to stop and joins them; open
    /// connections are dropped. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        for t in self.reactors.drain(..) {
            let _ = t.join();
        }
        if let Some(t) = self.sampler.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Starts the server on `addr` (use port 0 for an ephemeral port) serving
/// models from `catalog`. Publishing into the catalog after start is fine —
/// reactors read it behind the `RwLock` per request, and a publish swaps
/// in a fresh response cache with the new channel state.
///
/// # Errors
///
/// Returns the bind error if the address is unavailable, or the error from
/// configuring/cloning the shared non-blocking listener.
pub fn serve(
    addr: impl ToSocketAddrs,
    catalog: Arc<RwLock<ModelCatalog>>,
    config: ServeConfig,
) -> std::io::Result<ServerHandle> {
    serve_with_ingest(addr, catalog, config, None)
}

/// [`serve`] with an attached ingestion plane: `UPLOAD` frames are
/// durably appended to its WAL and acknowledged, `INGEST_STATS` serves
/// its counters, and `STATS` grows the v3 ingest fields. Without a plane
/// (`None`, what [`serve`] passes) both ingest opcodes answer
/// [`Status::UnknownOpcode`] — the same behaviour an older server gives a
/// newer client. The caller keeps its own `Arc` to the plane and owns the
/// refit worker's lifetime.
///
/// # Errors
///
/// Returns the bind error if the address is unavailable, or the error from
/// configuring/cloning the shared non-blocking listener.
pub fn serve_with_ingest(
    addr: impl ToSocketAddrs,
    catalog: Arc<RwLock<ModelCatalog>>,
    config: ServeConfig,
    ingest: Option<Arc<IngestPlane>>,
) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let stats = Arc::new(ServerStats::default());
    let metrics = Arc::new(Mutex::new(MetricsRegistry::default()));
    let conn_seq = Arc::new(AtomicU64::new(0));
    let pool = resolve_reactors(config.reactors);
    stats.reactors.store(pool as u64, Ordering::Relaxed);
    let mut reactors = Vec::with_capacity(pool);
    for _ in 0..pool {
        // Every reactor accepts from a clone of the same listener — a
        // sharded accept queue: the kernel hands each pending connection
        // to whichever reactor calls accept() first.
        let reactor = Reactor {
            listener: listener.try_clone()?,
            catalog: Arc::clone(&catalog),
            config: config.clone(),
            stats: Arc::clone(&stats),
            stop: Arc::clone(&stop),
            conn_seq: Arc::clone(&conn_seq),
            ingest: ingest.clone(),
            metrics: Arc::clone(&metrics),
        };
        reactors.push(std::thread::spawn(move || reactor.run()));
    }
    let sampler = MetricsSampler {
        metrics: Arc::clone(&metrics),
        stats: Arc::clone(&stats),
        catalog: Arc::clone(&catalog),
        ingest: ingest.clone(),
        stop: Arc::clone(&stop),
        cadence: config.metrics_cadence,
        last: BTreeMap::new(),
    };
    let sampler = std::thread::Builder::new()
        .name("waldo-metrics".into())
        .spawn(move || sampler.run())
        .expect("spawn metrics sampler");
    Ok(ServerHandle { addr, stop, stats, ingest, metrics, reactors, sampler: Some(sampler) })
}

/// Releases one connection slot on drop, however the connection ends.
struct ConnectionSlot(Arc<ServerStats>);

impl Drop for ConnectionSlot {
    fn drop(&mut self) {
        self.0.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// One connection's state between sweeps.
struct Conn {
    stream: FaultStream<TcpStream>,
    reader: FrameReader,
    writer: FrameWriter,
    /// Accepted over the connection cap: answer the first frame with
    /// [`Status::Busy`] and close.
    over_cap: bool,
    /// An error response (or busy rejection) is queued; flush it, then
    /// close without reading further.
    close_after_flush: bool,
    /// The peer closed its write side; serve what's buffered, then close.
    read_eof: bool,
    /// Last moment bytes arrived (accept counts), for the idle timeout.
    last_activity: Instant,
    /// When the currently-buffered partial frame started arriving.
    partial_since: Option<Instant>,
    /// When the current write stall started (queued bytes, no progress).
    write_since: Option<Instant>,
    _slot: ConnectionSlot,
}

/// One event-loop thread: accepts from the shared listener and sweeps its
/// own connections with non-blocking reads and writes.
struct Reactor {
    listener: TcpListener,
    catalog: Arc<RwLock<ModelCatalog>>,
    config: ServeConfig,
    stats: Arc<ServerStats>,
    stop: Arc<AtomicBool>,
    conn_seq: Arc<AtomicU64>,
    ingest: Option<Arc<IngestPlane>>,
    metrics: Arc<Mutex<MetricsRegistry>>,
}

impl Reactor {
    fn run(self) {
        let mut conns: Vec<Conn> = Vec::new();
        let mut idle_spins: u32 = 0;
        while !self.stop.load(Ordering::Relaxed) {
            let mut progress = false;
            self.accept_burst(&mut conns, &mut progress);
            let now = Instant::now();
            conns.retain_mut(|conn| self.drive(conn, now, &mut progress));
            if progress {
                idle_spins = 0;
            } else {
                idle_spins = idle_spins.saturating_add(1);
                if idle_spins <= IDLE_SPIN_YIELDS {
                    std::thread::yield_now();
                } else {
                    let over = idle_spins - IDLE_SPIN_YIELDS;
                    std::thread::sleep((IDLE_SLEEP_STEP * over).min(IDLE_SLEEP_MAX));
                }
            }
        }
        // Dropping `conns` closes every socket; clients see EOF/reset and
        // surface it as a typed I/O error, same as the threaded server.
    }

    /// Accepts every connection the listener has pending right now.
    fn accept_burst(&self, conns: &mut Vec<Conn>, progress: &mut bool) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // Transient accept errors (peer reset mid-handshake, fd
                // pressure): skip this round rather than kill the reactor.
                Err(_) => return,
            };
            *progress = true;
            self.stats.accepted_total.fetch_add(1, Ordering::Relaxed);
            // Claim the slot before serving so a flood cannot race past
            // the cap; `ConnectionSlot` releases it when the conn drops.
            let over_cap =
                self.stats.active.fetch_add(1, Ordering::SeqCst) >= self.config.max_connections;
            let slot = ConnectionSlot(Arc::clone(&self.stats));
            if over_cap {
                self.stats.error();
                self.stats.busy_rejections.fetch_add(1, Ordering::Relaxed);
            }
            if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                continue; // slot released by drop
            }
            let index = self.conn_seq.fetch_add(1, Ordering::Relaxed);
            let stream = match self.config.faults.as_ref().map(|f| f.fork(index)) {
                Some(faults) => FaultStream::with_faults(stream, faults),
                None => FaultStream::transparent(stream),
            };
            conns.push(Conn {
                stream,
                reader: FrameReader::new(),
                writer: FrameWriter::new(),
                over_cap,
                close_after_flush: false,
                read_eof: false,
                last_activity: Instant::now(),
                partial_since: None,
                write_since: None,
                _slot: slot,
            });
        }
    }

    /// One sweep over one connection: read and handle what has arrived,
    /// flush what the socket will take, then enforce deadlines. Returns
    /// `false` to drop the connection.
    fn drive(&self, conn: &mut Conn, now: Instant, progress: &mut bool) -> bool {
        // Read phase. Skipped once the connection is closing, and paused
        // while the peer has a backlog of unread responses. The fairness
        // cap yields to one exception: a partially-buffered frame larger
        // than the small-request cap (a legitimate upload mid-transfer)
        // keeps filling while the socket has bytes — otherwise an 8-fill
        // bound would stretch a multi-chunk upload across sweeps behind
        // every other connection's traffic. The loop still exits on
        // `WouldBlock`, so the exemption is bounded by what the kernel has
        // buffered, and the frame deadline still applies.
        let mut fills = 0;
        while !conn.close_after_flush
            && !conn.read_eof
            && conn.writer.queued_bytes() <= WRITE_BACKPRESSURE_BYTES
            && (fills < MAX_FILLS_PER_SWEEP || self.large_frame_in_flight(conn))
        {
            match conn.reader.fill(&mut conn.stream) {
                Ok(Fill::Bytes(_)) => {
                    fills += 1;
                    conn.last_activity = now;
                    *progress = true;
                    self.handle_buffered_frames(conn);
                }
                Ok(Fill::WouldBlock) => break,
                Ok(Fill::Eof) => conn.read_eof = true,
                Err(_) => return false,
            }
        }

        // Write phase: push queued bytes until the socket pushes back.
        if !conn.writer.is_empty() {
            let before = conn.writer.queued_bytes();
            match conn.writer.flush_into(&mut conn.stream) {
                Ok(Flush::Done) => {
                    conn.write_since = None;
                    *progress = true;
                }
                Ok(Flush::Pending) => {
                    if conn.writer.queued_bytes() < before {
                        conn.write_since = Some(now);
                        *progress = true;
                    } else {
                        conn.write_since.get_or_insert(now);
                    }
                }
                Err(_) => return false,
            }
        }

        // Close once a closing connection has nothing left to flush.
        if (conn.close_after_flush || conn.read_eof) && conn.writer.is_empty() {
            return false;
        }

        // Deadlines.
        if let Some(t0) = conn.write_since {
            if now.duration_since(t0) >= self.config.write_timeout {
                return false;
            }
        }
        if conn.reader.has_partial() {
            let started = *conn.partial_since.get_or_insert(now);
            if now.duration_since(started) >= self.config.frame_deadline {
                return false;
            }
        } else {
            conn.partial_since = None;
            if conn.writer.is_empty()
                && now.duration_since(conn.last_activity) >= self.config.read_timeout
            {
                return false;
            }
        }
        true
    }

    /// Whether the connection is mid-way through receiving a frame that
    /// announces more than the small-request cap but stays within the
    /// upload bound — the only frames allowed past the per-sweep fill
    /// fairness cap.
    fn large_frame_in_flight(&self, conn: &Conn) -> bool {
        conn.reader.pending_frame().is_some_and(|(announced, _)| {
            announced > MAX_REQUEST_BYTES
                && announced <= MAX_REQUEST_BYTES.max(self.config.max_upload_bytes)
        })
    }

    /// Pops and handles every complete frame in the connection's read
    /// buffer. Stops at the first frame that ends the connection (error
    /// response or busy rejection) — the rest of the buffer is untrusted.
    fn handle_buffered_frames(&self, conn: &mut Conn) {
        while !conn.close_after_flush {
            match conn.reader.pop_request_frame(MAX_REQUEST_BYTES, self.config.max_upload_bytes) {
                Ok(Some(payload)) => {
                    if conn.over_cap {
                        // Echo the request ID even on the rejection path,
                        // if the request parsed far enough to carry one.
                        let req_id = match Request::decode(&payload) {
                            Ok((id, _)) | Err((id, _)) => id,
                        };
                        self.push_response(conn, req_id, Status::Busy, None);
                        conn.close_after_flush = true;
                    } else {
                        self.handle_request(conn, &payload);
                    }
                }
                Ok(None) => return,
                Err(_) => {
                    // Oversized announcement: lengths are not self-syncing,
                    // so reject and close without reading the body.
                    if conn.over_cap {
                        self.push_response(conn, 0, Status::Busy, None);
                    } else {
                        self.stats.error();
                        self.push_response(conn, 0, Status::RequestTooLarge, None);
                    }
                    conn.close_after_flush = true;
                }
            }
        }
    }

    /// Dispatches one request frame, queueing the response. Error statuses
    /// mark the connection to close once flushed.
    fn handle_request(&self, conn: &mut Conn, payload: &[u8]) {
        self.stats.requests_total.fetch_add(1, Ordering::Relaxed);
        let (req_id, request) = match Request::decode(payload) {
            Ok(parsed) => parsed,
            Err((req_id, status)) => {
                self.stats.error();
                self.push_response(conn, req_id, status, None);
                conn.close_after_flush = true;
                return;
            }
        };
        let _span = waldo_obs::span_req("serve_handle", req_id);
        let _t = waldo_obs::timed("serve_handle");
        match request {
            Request::Ping => self.push_response(conn, req_id, Status::Ok, None),
            Request::Fetch { channel, x_km, y_km, radius_km, have_epoch } => {
                let Ok(guard) = self.catalog.read() else {
                    self.stats.error();
                    self.push_response(conn, req_id, Status::Internal, None);
                    conn.close_after_flush = true;
                    return;
                };
                match guard.channel(channel) {
                    None => {
                        self.stats.error();
                        self.push_response(conn, req_id, Status::UnknownChannel, None);
                        conn.close_after_flush = true;
                    }
                    Some(served) if radius_km <= 0.0 => {
                        // Hot path: unscoped responses are position-
                        // independent, so the pre-encoded tail is shared
                        // across every client at this have_epoch.
                        let (tail, hit) = served.unscoped_response_tail(have_epoch);
                        drop(guard);
                        if hit {
                            self.stats.cache_hits.fetch_add(1, Ordering::Relaxed);
                        } else {
                            self.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
                        }
                        let head = response_head(req_id);
                        conn.writer.push_frame_split(&head, &tail);
                    }
                    Some(served) => {
                        // Scoped fetch: the entry set depends on the
                        // client's position, so it is encoded per request.
                        let body = build_fetch_response(served, x_km, y_km, radius_km, have_epoch);
                        drop(guard);
                        self.stats.cache_misses.fetch_add(1, Ordering::Relaxed);
                        self.push_response(conn, req_id, Status::Ok, Some(&body));
                    }
                }
            }
            Request::Stats => {
                let payload = crate::stats::encode_stats_response(
                    req_id,
                    &self.stats.snapshot(self.ingest.as_deref()),
                );
                conn.writer.push_frame(&payload);
            }
            Request::Upload { batch } => {
                let Some(ingest) = self.ingest.as_deref() else {
                    // No ingestion plane attached: behave exactly like a
                    // server that predates the opcode.
                    self.stats.error();
                    self.push_response(conn, req_id, Status::UnknownOpcode, None);
                    conn.close_after_flush = true;
                    return;
                };
                let _t = waldo_obs::timed("serve_upload");
                match ingest.ingest_traced(&batch, req_id) {
                    Ok(ack) => {
                        let mut payload = encode_response_header(req_id, Status::Ok);
                        payload.extend_from_slice(&ack.encode_body());
                        conn.writer.push_frame(&payload);
                    }
                    Err(_) => {
                        // WAL write failed: nothing was acknowledged, so
                        // the client's retry (same batch ID) is safe.
                        self.stats.error();
                        self.push_response(conn, req_id, Status::Internal, None);
                        conn.close_after_flush = true;
                    }
                }
            }
            Request::IngestStats => match self.ingest.as_deref() {
                None => {
                    self.stats.error();
                    self.push_response(conn, req_id, Status::UnknownOpcode, None);
                    conn.close_after_flush = true;
                }
                Some(ingest) => {
                    let mut payload = encode_response_header(req_id, Status::Ok);
                    payload.extend_from_slice(&ingest.snapshot().encode_body());
                    conn.writer.push_frame(&payload);
                }
            },
            Request::ReplSync { channel, have_epoch } => {
                let Ok(guard) = self.catalog.read() else {
                    self.stats.error();
                    self.push_response(conn, req_id, Status::Internal, None);
                    conn.close_after_flush = true;
                    return;
                };
                match guard.channel(channel) {
                    None => {
                        self.stats.error();
                        self.push_response(conn, req_id, Status::UnknownChannel, None);
                        conn.close_after_flush = true;
                    }
                    Some(served) => {
                        // Any replica can answer a sync pull — followers
                        // serve the same mirrored state, so chained
                        // topologies work without special-casing.
                        let _t = waldo_obs::timed("serve_repl_sync");
                        let state = served.repl_state(channel, have_epoch);
                        drop(guard);
                        self.stats.repl_syncs_total.fetch_add(1, Ordering::Relaxed);
                        let mut payload = encode_response_header(req_id, Status::Ok);
                        payload.extend_from_slice(&state.encode());
                        conn.writer.push_frame(&payload);
                    }
                }
            }
            Request::ObsExport => {
                let _t = waldo_obs::timed("serve_obs_export");
                self.stats.obs_exports_total.fetch_add(1, Ordering::Relaxed);
                let encoded = self.metrics.lock().unwrap_or_else(|e| e.into_inner()).encode();
                let mut payload = encode_response_header(req_id, Status::Ok);
                payload.extend_from_slice(&encoded);
                conn.writer.push_frame(&payload);
            }
        }
    }

    /// Queues one owned response frame.
    fn push_response(
        &self,
        conn: &mut Conn,
        req_id: u64,
        status: Status,
        body: Option<&FetchResponse>,
    ) {
        let payload = encode_response(req_id, status, body);
        conn.writer.push_frame(&payload);
    }
}

/// The per-server metrics sampler: one background thread per
/// [`ServerHandle`] recording counter deltas and gauge levels into the
/// server's time-series registry at the configured cadence. Entirely off
/// the request path — reactors only touch the registry when serving
/// `OBS_EXPORT`, and even that is one lock + encode.
///
/// Per-handle (not process-global) on purpose: a failover drill runs a
/// leader and several followers in one process, and each must export its
/// own `serve/*`, `ingest/*`, and `catalog/*` series. The one exception
/// is latency quantiles: `waldo_obs` histograms are process-wide, so the
/// `lat/*` gauges are a process view sampled identically by every
/// co-resident server.
struct MetricsSampler {
    metrics: Arc<Mutex<MetricsRegistry>>,
    stats: Arc<ServerStats>,
    catalog: Arc<RwLock<ModelCatalog>>,
    ingest: Option<Arc<IngestPlane>>,
    stop: Arc<AtomicBool>,
    cadence: Duration,
    /// Last-seen cumulative counter values, so each tick records the
    /// per-interval delta (what `Series` counters hold).
    last: BTreeMap<String, u64>,
}

impl MetricsSampler {
    fn run(mut self) {
        while !self.stop.load(Ordering::Relaxed) {
            self.sample_once();
            // Nap in small slices so shutdown never waits a full cadence.
            let mut slept = Duration::ZERO;
            while slept < self.cadence && !self.stop.load(Ordering::Relaxed) {
                let nap = (self.cadence - slept).min(Duration::from_millis(20));
                std::thread::sleep(nap);
                slept += nap;
            }
        }
        // Final tick so a short-lived server still exports its last state.
        self.sample_once();
    }

    fn sample_once(&mut self) {
        let now = wall_ms();

        // Gather everything before taking the registry lock.
        let counters = [
            ("serve/accepted_total", self.stats.accepted_total.load(Ordering::Relaxed)),
            ("serve/busy_rejections", self.stats.busy_rejections.load(Ordering::Relaxed)),
            ("serve/requests_total", self.stats.requests_total.load(Ordering::Relaxed)),
            ("serve/errors_total", self.stats.errors_total.load(Ordering::Relaxed)),
            ("serve/cache_hits", self.stats.cache_hits.load(Ordering::Relaxed)),
            ("serve/cache_misses", self.stats.cache_misses.load(Ordering::Relaxed)),
            ("serve/repl_syncs_total", self.stats.repl_syncs_total.load(Ordering::Relaxed)),
            ("serve/obs_exports_total", self.stats.obs_exports_total.load(Ordering::Relaxed)),
        ];
        let active = self.stats.active.load(Ordering::Relaxed) as u64;

        let epochs: Vec<(u8, u64)> = match self.catalog.read() {
            Ok(guard) => guard
                .channels()
                .into_iter()
                .filter_map(|ch| guard.channel(ch).map(|served| (ch, served.epoch)))
                .collect(),
            Err(_) => Vec::new(),
        };

        let ingest = self.ingest.as_deref().map(IngestPlane::snapshot);

        // Latency quantiles only exist while obs is recording; skip the
        // snapshot walk entirely otherwise.
        let quantiles: Vec<(String, u64, u64)> = if waldo_obs::enabled() {
            waldo_obs::histogram_snapshot()
                .into_iter()
                .filter(|(_, hist)| hist.count() > 0)
                .map(|(name, hist)| (name.to_owned(), hist.quantile(0.5), hist.quantile(0.99)))
                .collect()
        } else {
            Vec::new()
        };

        let mut reg = self.metrics.lock().unwrap_or_else(|e| e.into_inner());
        for (name, cumulative) in counters {
            let prev = self.last.get(name).copied().unwrap_or(0);
            reg.record_counter(name, now, cumulative.saturating_sub(prev));
            self.last.insert(name.to_owned(), cumulative);
        }
        reg.record_gauge("serve/active_connections", now, active);
        for (ch, epoch) in epochs {
            reg.record_gauge(&format!("catalog/epoch/{ch}"), now, epoch);
        }
        if let Some(snap) = ingest {
            for (name, cumulative) in [
                ("ingest/uploads_total", snap.uploads_total),
                ("ingest/readings_total", snap.readings_total),
                ("ingest/duplicates_total", snap.duplicates_total),
                ("ingest/refits_total", snap.refits_total),
            ] {
                let prev = self.last.get(name).copied().unwrap_or(0);
                reg.record_counter(name, now, cumulative.saturating_sub(prev));
                self.last.insert(name.to_owned(), cumulative);
            }
            reg.record_gauge("ingest/wal_backlog", now, snap.wal_batches);
            reg.record_gauge("ingest/stored_readings", now, snap.stored_readings);
            reg.record_gauge("ingest/model_epoch", now, snap.model_epoch);
        }
        for (name, p50, p99) in quantiles {
            reg.record_gauge(&format!("lat/{name}/p50_ns"), now, p50);
            reg.record_gauge(&format!("lat/{name}/p99_ns"), now, p99);
        }
    }
}

/// Applies the delta + scope rules for one fetch. Per locality:
///
/// * change-epoch ≤ `have_epoch` → `Unchanged` (client's copy is current);
/// * changed and in scope (or unscoped) → `Sent` with the payload;
/// * changed but out of scope → `OutOfScope` (client must drop its copy).
///
/// The locality nearest the client is always in scope, so a scoped fetch
/// never comes back empty-handed.
fn build_fetch_response(
    served: &ServedChannel,
    x_km: f64,
    y_km: f64,
    radius_km: f64,
    have_epoch: u64,
) -> FetchResponse {
    let _t = waldo_obs::timed("serve_encode");
    let nearest = served
        .slots
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            dist_sq_km(a.centroid, x_km, y_km).total_cmp(&dist_sq_km(b.centroid, x_km, y_km))
        })
        .map_or(0, |(i, _)| i);
    let entries = served
        .slots
        .iter()
        .enumerate()
        .map(|(i, slot)| {
            if slot.epoch <= have_epoch {
                return LocalityEntry::Unchanged;
            }
            let in_scope = radius_km <= 0.0
                || i == nearest
                || dist_sq_km(slot.centroid, x_km, y_km) <= radius_km * radius_km;
            if in_scope {
                LocalityEntry::Sent { digest: slot.digest, payload: slot.payload.clone() }
            } else {
                LocalityEntry::OutOfScope
            }
        })
        .collect();
    FetchResponse {
        epoch: served.epoch,
        trace_id: served.trace_id,
        prelude: served.prelude.clone(),
        entries,
    }
}

fn dist_sq_km(centroid: [f64; 2], x_km: f64, y_km: f64) -> f64 {
    let dx = centroid[0] - x_km;
    let dy = centroid[1] - y_km;
    dx * dx + dy * dy
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_style_positive_integer_parsing() {
        assert_eq!(parse_positive("3"), Some(3));
        assert_eq!(parse_positive("  2048 "), Some(2048));
        assert_eq!(parse_positive("0"), None);
        assert_eq!(parse_positive("-4"), None);
        assert_eq!(parse_positive("four"), None);
        assert_eq!(parse_positive(""), None);
    }

    #[test]
    fn reactor_pool_resolution() {
        assert_eq!(resolve_reactors(7), 7);
        let auto = resolve_reactors(0);
        assert!((1..=4).contains(&auto));
    }

    /// No other test in this binary reads these variables, so mutating the
    /// process environment here cannot race a parallel `default()` or
    /// `from_env()` call.
    #[test]
    fn env_overrides_shape_the_default_config() {
        std::env::set_var(ENV_MAX_CONNECTIONS, "9");
        std::env::set_var(ENV_REACTORS, "3");
        let config = ServeConfig::default();
        assert_eq!(config.max_connections, 9);
        assert_eq!(config.reactors, 3);
        assert_eq!(ServeConfig::from_env().unwrap().max_connections, 9);

        // A present-but-invalid value is a typed error from `from_env`,
        // naming the variable and the raw value.
        std::env::set_var(ENV_MAX_CONNECTIONS, "0");
        let err = ServeConfig::from_env().unwrap_err();
        assert_eq!(err, EnvConfigError { var: ENV_MAX_CONNECTIONS, value: "0".into() });
        assert!(err.to_string().contains(ENV_MAX_CONNECTIONS));
        assert!(err.to_string().contains("\"0\""));

        std::env::set_var(ENV_MAX_CONNECTIONS, "many");
        let err = ServeConfig::from_env().unwrap_err();
        assert_eq!(err.value, "many");

        // `Default` cannot fail: the invalid cap is ignored (loudly, on
        // stderr), while the still-valid reactor override applies.
        let config = ServeConfig::default();
        assert_eq!(config.max_connections, 256);
        assert_eq!(config.reactors, 3);

        // Unset variables are not errors — just the baseline.
        std::env::remove_var(ENV_MAX_CONNECTIONS);
        std::env::remove_var(ENV_REACTORS);
        let config = ServeConfig::from_env().unwrap();
        assert_eq!(config.max_connections, 256);
        assert_eq!(config.reactors, 0);
    }
}
