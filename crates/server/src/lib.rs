//! # agg-server
//!
//! Networked front-end over [`agg_core::stream::StreamingVerifier`]: one
//! TCP listener speaking **two protocols on the same port** — an
//! HTTP/1.1 JSON API for submit/poll/cancel/stats, and a length-prefixed
//! binary protocol that pushes per-claim verdict frames to the client
//! *incrementally* as evaluation waves complete. Everything is built on
//! `std::net` — the build environment has no crates.io access, so there
//! is no async runtime, no HTTP library, and no serde: hand-rolled
//! codecs throughout ([`http`], [`json`], [`protocol`]).
//!
//! The wire contract is written down in `docs/protocol.md` (normative,
//! byte-level) and kept honest by [`protocol`]'s unit tests, which fail if
//! the opcode or stats tables there drift from the code.
//! `docs/architecture.md` traces a submission end-to-end;
//! `docs/operations.md` is the `verifyd` runbook.
//!
//! ## Sessions, namespaces, fairness
//!
//! A server hosts one verification service per **namespace** (one
//! logical database each — multi-tenant). A connection is a **session**:
//! it picks its namespace in the handshake (binary `Hello`) or per
//! request (HTTP `"namespace"` field), and every submission it makes
//! rides the session's own **intake lane** (`lane = session id`), so the
//! round-robin lane scheduler in `core::stream` interleaves competing
//! clients fairly instead of first-come-first-served.
//!
//! ## Incremental results
//!
//! Binary submissions attach a [`ProgressObserver`] that forwards each
//! completed evaluation wave as a `Progress` frame; once the ticket
//! settles, the session streams one `ClaimVerdict` frame per claim
//! followed by `Complete`. A client reassembling those frames
//! ([`client::BinaryClient::await_report`]) gets a report **bit-identical**
//! to an in-process run — same
//! [`content_fingerprint`](agg_core::VerificationReport::content_fingerprint)
//! at any worker count — because the frames reuse the exact codec in
//! [`agg_core::report::wire`].
//!
//! ## Example: submit and await over loopback
//!
//! ```
//! use agg_core::{CheckerConfig, StreamConfig, StreamingVerifier};
//! use agg_relational::{Database, Table};
//! use agg_server::client::BinaryClient;
//! use agg_server::{ServerConfig, VerifyServer};
//!
//! let table = Table::from_columns(
//!     "sales",
//!     vec![("region", vec!["west".into(), "west".into(), "east".into()])],
//! )?;
//! let mut db = Database::new("demo");
//! db.add_table(table);
//! let service = StreamingVerifier::new(db, CheckerConfig::default(), StreamConfig::default())?;
//!
//! // Port 0: the OS picks a free port; local_addr() reports it.
//! let server = VerifyServer::start(
//!     "127.0.0.1:0",
//!     vec![("demo".to_string(), service)],
//!     ServerConfig::default(),
//! )?;
//!
//! let mut client = BinaryClient::connect(server.local_addr(), "demo")?;
//! let doc = client.submit("<p>There were two sales in the west region.</p>", None)?;
//! let report = client.await_report(doc)?;
//! assert_eq!(report.claims.len(), 1);
//! client.goodbye()?;
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! ## Example: the handshake, one frame at a time
//!
//! ```
//! use agg_core::{CheckerConfig, StreamConfig, StreamingVerifier};
//! use agg_relational::{Database, Table};
//! use agg_server::protocol::{self, FrameReader, Opcode, ReadOutcome};
//! use agg_server::{ServerConfig, VerifyServer};
//! use std::net::TcpStream;
//!
//! let table = Table::from_columns("sales", vec![("region", vec!["west".into()])])?;
//! let mut db = Database::new("demo");
//! db.add_table(table);
//! let service = StreamingVerifier::new(db, CheckerConfig::default(), StreamConfig::default())?;
//! let server = VerifyServer::start(
//!     "127.0.0.1:0",
//!     vec![("demo".to_string(), service)],
//!     ServerConfig::default(),
//! )?;
//!
//! // Raw TCP: [len u32 LE][opcode u8][payload], exactly as docs/protocol.md says.
//! let mut sock = TcpStream::connect(server.local_addr())?;
//! protocol::write_frame(&mut sock, Opcode::Hello, &protocol::hello("demo"))?;
//! let mut reader = FrameReader::new();
//! let frame = loop {
//!     if let ReadOutcome::Frame(f) = reader.read_from(&mut sock)? {
//!         break f;
//!     }
//! };
//! assert_eq!(frame.opcode, Opcode::HelloOk as u8);
//! let session = protocol::parse_hello_ok(&frame.payload)?;
//! assert!(session > 0);
//! server.shutdown();
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod client;
pub mod http;
pub mod json;
pub mod protocol;

use agg_core::report::wire;
use agg_core::stream::{StreamingVerifier, SubmitError, SubmitOptions, Ticket};
use agg_core::{ClaimProgress, ProgressObserver, VerificationReport};
use protocol::{errcode, FrameReader, Opcode, ReadOutcome, WireStats};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Read};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Server tunables (`docs/operations.md` documents each).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Close a connection with nothing outstanding after this long
    /// without a frame or request.
    pub idle_timeout: Duration,
    /// Socket read timeout: how often blocked reads wake to check
    /// idle/shutdown conditions. Bounds shutdown latency.
    pub poll_interval: Duration,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            idle_timeout: Duration::from_secs(30),
            poll_interval: Duration::from_millis(25),
        }
    }
}

/// Point-in-time server counters (connection plumbing only; per-document
/// verification counters live in [`agg_core::StreamStats`], one set per
/// namespace).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Connections ever accepted.
    pub connections: u64,
    /// Connections currently open.
    pub open_connections: u64,
    /// HTTP requests served (any status).
    pub http_requests: u64,
    /// Binary frames decoded from clients.
    pub frames_in: u64,
    /// Binary frames written to clients.
    pub frames_out: u64,
    /// Frames (or frame streams) that failed to decode; each also
    /// closed its connection.
    pub malformed_frames: u64,
}

#[derive(Default)]
struct Counters {
    connections: AtomicU64,
    open_connections: AtomicU64,
    http_requests: AtomicU64,
    frames_in: AtomicU64,
    frames_out: AtomicU64,
    malformed_frames: AtomicU64,
}

/// How many *settled* HTTP documents the registry retains for polling.
/// Past this, the settled document with the lowest id is forgotten and a
/// poll for it answers `404 unknown document`. Unsettled entries are not
/// counted: the intake queue plus the worker count already bound them.
pub const MAX_SETTLED_DOCS: usize = 1024;

/// One HTTP-submitted document: the ticket, and the settled result once
/// a poll has claimed it (polls are idempotent — the first one to find
/// the ticket done caches the report here).
struct DocEntry {
    ticket: Arc<Ticket>,
    done: Option<Result<VerificationReport, String>>,
}

impl DocEntry {
    fn settled(&self) -> bool {
        self.done.is_some() || self.ticket.is_done()
    }
}

struct ServerShared {
    namespaces: HashMap<String, Arc<StreamingVerifier>>,
    /// Namespace used by HTTP submissions that name none: the first one
    /// passed to [`VerifyServer::start`].
    default_namespace: String,
    /// Ordered by id (ids are monotone), so eviction finds the oldest
    /// settled entry first.
    registry: Mutex<BTreeMap<u64, DocEntry>>,
    next_doc: AtomicU64,
    next_conn: AtomicU64,
    counters: Counters,
    shutdown: AtomicBool,
    config: ServerConfig,
}

/// The listener: accept loop plus one thread per connection, every
/// protocol detail delegated to [`protocol`]/[`http`]. Shut down with
/// [`shutdown`](VerifyServer::shutdown) (graceful: drains every
/// namespace's intake, then joins every connection); plain `Drop` does
/// the same.
pub struct VerifyServer {
    shared: Arc<ServerShared>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl VerifyServer {
    /// Bind `addr` (use port 0 for an ephemeral port) and serve the
    /// given namespaces. The first namespace is the HTTP default.
    pub fn start(
        addr: impl ToSocketAddrs,
        namespaces: Vec<(String, StreamingVerifier)>,
        config: ServerConfig,
    ) -> io::Result<VerifyServer> {
        let Some(default_namespace) = namespaces.first().map(|(name, _)| name.clone()) else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "a server needs at least one namespace",
            ));
        };
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(ServerShared {
            namespaces: namespaces
                .into_iter()
                .map(|(name, service)| (name, Arc::new(service)))
                .collect(),
            default_namespace,
            registry: Mutex::new(BTreeMap::new()),
            next_doc: AtomicU64::new(0),
            next_conn: AtomicU64::new(0),
            counters: Counters::default(),
            shutdown: AtomicBool::new(false),
            config,
        });
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let accept_shared = Arc::clone(&shared);
        let accept_conns = Arc::clone(&conns);
        let accept = thread::Builder::new()
            .name("verifyd-accept".into())
            .spawn(move || loop {
                if accept_shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                match listener.accept() {
                    Ok((stream, _peer)) => {
                        accept_shared
                            .counters
                            .connections
                            .fetch_add(1, Ordering::SeqCst);
                        accept_shared
                            .counters
                            .open_connections
                            .fetch_add(1, Ordering::SeqCst);
                        let conn_id = accept_shared.next_conn.fetch_add(1, Ordering::SeqCst) + 1;
                        let conn_shared = Arc::clone(&accept_shared);
                        let handle = thread::Builder::new()
                            .name(format!("verifyd-conn-{conn_id}"))
                            .spawn(move || {
                                serve_connection(&conn_shared, stream, conn_id);
                                conn_shared
                                    .counters
                                    .open_connections
                                    .fetch_sub(1, Ordering::SeqCst);
                            })
                            .expect("spawn connection thread");
                        // Reap as we go: a long-lived server must not keep
                        // a handle per connection ever accepted.
                        let mut conns = lock(&accept_conns);
                        conns.retain(|conn| !conn.is_finished());
                        conns.push(handle);
                    }
                    // Non-blocking accept: nothing pending (or a
                    // transient error) — nap and re-check shutdown.
                    Err(_) => thread::sleep(Duration::from_millis(5)),
                }
            })?;
        Ok(VerifyServer {
            shared,
            addr: local,
            accept: Some(accept),
            conns,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The verification service behind a namespace (tests and embedders
    /// inspect its [`StreamStats`](agg_core::StreamStats) directly).
    pub fn namespace(&self, name: &str) -> Option<Arc<StreamingVerifier>> {
        self.shared.namespaces.get(name).cloned()
    }

    /// Snapshot of the connection-level counters.
    pub fn stats(&self) -> ServerStats {
        let c = &self.shared.counters;
        ServerStats {
            connections: c.connections.load(Ordering::SeqCst),
            open_connections: c.open_connections.load(Ordering::SeqCst),
            http_requests: c.http_requests.load(Ordering::SeqCst),
            frames_in: c.frames_in.load(Ordering::SeqCst),
            frames_out: c.frames_out.load(Ordering::SeqCst),
            malformed_frames: c.malformed_frames.load(Ordering::SeqCst),
        }
    }

    /// Graceful drain: stop accepting, close every namespace's intake
    /// (queued documents still verify), then join every connection —
    /// sessions finish streaming results for work already admitted.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept.take() {
            handle.join().ok();
        }
        for service in self.shared.namespaces.values() {
            service.close();
        }
        let handles = std::mem::take(&mut *lock(&self.conns));
        for handle in handles {
            handle.join().ok();
        }
    }
}

impl Drop for VerifyServer {
    fn drop(&mut self) {
        self.stop();
    }
}

// --- connection handling ---------------------------------------------

type OutMsg = Option<(Opcode, Vec<u8>)>;

/// Forwards evaluation waves as `Progress` frames. Send failures are
/// ignored: a dead writer means the client is gone, and the watcher
/// thread handles settlement.
struct FrameObserver {
    doc: u64,
    tx: Mutex<mpsc::Sender<OutMsg>>,
}

impl ProgressObserver for FrameObserver {
    fn wave_complete(&self, wave: usize, last: bool, claims: &[ClaimProgress]) {
        let payload = protocol::progress(self.doc, wave as u64, last, claims);
        let _ = lock(&self.tx).send(Some((Opcode::Progress, payload)));
    }
}

/// Sniff the first bytes to pick a protocol, then serve.
fn serve_connection(shared: &Arc<ServerShared>, mut stream: TcpStream, conn_id: u64) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(shared.config.poll_interval));
    let started = Instant::now();
    let mut sniffed = Vec::new();
    while sniffed.len() < 4 {
        if shared.shutdown.load(Ordering::SeqCst) || started.elapsed() > shared.config.idle_timeout
        {
            return;
        }
        let mut chunk = [0u8; 1024];
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => sniffed.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
    if looks_like_http(&sniffed) {
        serve_http(shared, stream, conn_id, sniffed);
    } else {
        serve_binary(shared, stream, conn_id, sniffed);
    }
}

fn looks_like_http(head: &[u8]) -> bool {
    const METHODS: [&[u8; 4]; 7] = [
        b"GET ", b"POST", b"PUT ", b"HEAD", b"DELE", b"OPTI", b"PATC",
    ];
    METHODS.iter().any(|m| head.starts_with(*m))
}

// --- HTTP front-end ---------------------------------------------------

fn serve_http(shared: &Arc<ServerShared>, mut stream: TcpStream, conn_id: u64, buffered: Vec<u8>) {
    let mut reader = http::HttpReader::with_buffered(buffered);
    let mut last_activity = Instant::now();
    loop {
        let mut read_ref = &stream;
        match reader.read_from(&mut read_ref) {
            Ok(http::HttpOutcome::Request(req)) => {
                last_activity = Instant::now();
                shared.counters.http_requests.fetch_add(1, Ordering::SeqCst);
                let close = req.wants_close();
                let (status, reason, body) = route(shared, conn_id, &req);
                if http::respond(&mut stream, status, reason, &body, !close).is_err() || close {
                    return;
                }
            }
            Ok(http::HttpOutcome::Eof) => return,
            Ok(http::HttpOutcome::Idle) => {
                if shared.shutdown.load(Ordering::SeqCst)
                    || last_activity.elapsed() > shared.config.idle_timeout
                {
                    return;
                }
            }
            Err(_) => {
                let _ = http::respond(
                    &mut stream,
                    400,
                    "Bad Request",
                    "{\"error\":\"malformed request\"}",
                    false,
                );
                return;
            }
        }
    }
}

fn route(
    shared: &Arc<ServerShared>,
    conn_id: u64,
    req: &http::Request,
) -> (u16, &'static str, String) {
    match (req.method.as_str(), req.path.as_str()) {
        ("POST", "/v1/documents") => submit_document(shared, conn_id, &req.body),
        ("GET", "/v1/stats") => (200, "OK", stats_json(shared)),
        (method, path) => {
            if let Some(rest) = path.strip_prefix("/v1/documents/") {
                if method == "GET" {
                    return poll_document(shared, rest);
                }
                if method == "POST" {
                    if let Some(id_text) = rest.strip_suffix("/cancel") {
                        return cancel_document(shared, id_text);
                    }
                }
            }
            (404, "Not Found", "{\"error\":\"not found\"}".to_string())
        }
    }
}

fn bad_request(message: &str) -> (u16, &'static str, String) {
    (
        400,
        "Bad Request",
        format!("{{\"error\":\"{}\"}}", json::escape(message)),
    )
}

fn submit_document(
    shared: &Arc<ServerShared>,
    conn_id: u64,
    body: &[u8],
) -> (u16, &'static str, String) {
    let Ok(text_body) = std::str::from_utf8(body) else {
        return bad_request("body is not UTF-8");
    };
    let parsed = match json::parse(text_body) {
        Ok(v) => v,
        Err(e) => return bad_request(&e.to_string()),
    };
    let Some(text) = parsed.get("text").and_then(json::Json::as_str) else {
        return bad_request("missing required string field \"text\"");
    };
    let namespace = match parsed.get("namespace") {
        None => shared.default_namespace.as_str(),
        Some(v) => match v.as_str() {
            Some(name) => name,
            None => return bad_request("\"namespace\" must be a string"),
        },
    };
    let Some(service) = shared.namespaces.get(namespace) else {
        return (
            404,
            "Not Found",
            format!(
                "{{\"error\":\"unknown namespace \\\"{}\\\"\"}}",
                json::escape(namespace)
            ),
        );
    };
    let deadline = match parsed.get("deadline_ms") {
        None | Some(json::Json::Null) => None,
        Some(v) => match v.as_u64() {
            Some(ms) => Some(Instant::now() + Duration::from_millis(ms)),
            None => return bad_request("\"deadline_ms\" must be a non-negative integer"),
        },
    };
    let opts = SubmitOptions {
        deadline,
        lane: conn_id,
        observer: None,
    };
    match service.submit_text_with(text, opts) {
        Ok(ticket) => {
            let id = shared.next_doc.fetch_add(1, Ordering::SeqCst) + 1;
            let mut registry = lock(&shared.registry);
            // Make room first, so settled entries never exceed the cap
            // even once this document settles too.
            if registry.len() >= MAX_SETTLED_DOCS {
                let settled: Vec<u64> = registry
                    .iter()
                    .filter(|(_, entry)| entry.settled())
                    .map(|(&id, _)| id)
                    .collect();
                let excess = (settled.len() + 1).saturating_sub(MAX_SETTLED_DOCS);
                for old in &settled[..excess] {
                    registry.remove(old);
                }
            }
            registry.insert(
                id,
                DocEntry {
                    ticket: Arc::new(ticket),
                    done: None,
                },
            );
            (
                202,
                "Accepted",
                format!(
                    "{{\"id\":{id},\"status\":\"pending\",\"namespace\":\"{}\"}}",
                    json::escape(namespace)
                ),
            )
        }
        Err(SubmitError::Full) => (
            503,
            "Service Unavailable",
            "{\"error\":\"intake queue full\",\"code\":\"full\"}".to_string(),
        ),
        Err(SubmitError::Closed) => (
            503,
            "Service Unavailable",
            "{\"error\":\"service closed\",\"code\":\"closed\"}".to_string(),
        ),
    }
}

fn poll_document(shared: &Arc<ServerShared>, id_text: &str) -> (u16, &'static str, String) {
    let Ok(id) = id_text.parse::<u64>() else {
        return (
            404,
            "Not Found",
            "{\"error\":\"unknown document\"}".to_string(),
        );
    };
    let mut registry = lock(&shared.registry);
    let Some(entry) = registry.get_mut(&id) else {
        return (
            404,
            "Not Found",
            "{\"error\":\"unknown document\"}".to_string(),
        );
    };
    if entry.done.is_none() {
        if let Some(result) = entry.ticket.try_take() {
            entry.done = Some(result.map_err(|e| e.to_string()));
        }
    }
    let body = match &entry.done {
        None => format!("{{\"id\":{id},\"status\":\"pending\"}}"),
        Some(Err(message)) => format!(
            "{{\"id\":{id},\"status\":\"failed\",\"error\":\"{}\"}}",
            json::escape(message)
        ),
        Some(Ok(report)) => report_json(id, report),
    };
    (200, "OK", body)
}

fn cancel_document(shared: &Arc<ServerShared>, id_text: &str) -> (u16, &'static str, String) {
    let Ok(id) = id_text.parse::<u64>() else {
        return (
            404,
            "Not Found",
            "{\"error\":\"unknown document\"}".to_string(),
        );
    };
    let registry = lock(&shared.registry);
    let Some(entry) = registry.get(&id) else {
        return (
            404,
            "Not Found",
            "{\"error\":\"unknown document\"}".to_string(),
        );
    };
    entry.ticket.cancel();
    (200, "OK", format!("{{\"id\":{id},\"cancelled\":true}}"))
}

fn report_json(id: u64, report: &VerificationReport) -> String {
    let claims: Vec<String> = report
        .claims
        .iter()
        .enumerate()
        .map(|(index, claim)| {
            let best = claim
                .top_queries
                .first()
                .map(|q| format!("\"{}\"", json::escape(&q.description)))
                .unwrap_or_else(|| "null".to_string());
            format!(
                "{{\"index\":{index},\"sentence\":\"{}\",\"claimed_value\":{},\"verdict\":\"{}\",\"correctness_probability\":{},\"best_query\":{best}}}",
                json::escape(&claim.sentence),
                wire::json_f64(claim.claimed_value),
                protocol::verdict_name(claim.verdict),
                wire::json_f64(claim.correctness_probability),
            )
        })
        .collect();
    // The "stats" object is `RunStats` as the wire carries it, minus the
    // scheduling-ledger fields the HTTP view never exposed.
    const OMITTED: [&str; 7] = [
        "cubes_executed",
        "cubes_cached",
        "tasks_executed",
        "tasks_deduped",
        "singleflight_waits",
        "poison_retries",
        "candidate_space_log10",
    ];
    let mut stats = report.stats;
    let shown = wire::RUN_STATS_FIELDS
        .iter()
        .filter(|(name, _)| !OMITTED.contains(name));
    format!(
        "{{\"id\":{id},\"status\":\"{}\",\"claims\":[{}],\"stats\":{{{}}},\"fingerprint\":\"{}\"}}",
        protocol::status_name(report.status),
        claims.join(","),
        json_members(&mut stats, shown),
        json::escape(&report.content_fingerprint()),
    )
}

/// `"name":value` members, comma-joined, for the given fields of `s`.
fn json_members<'f, S: 'f>(
    s: &mut S,
    fields: impl Iterator<Item = &'f wire::StatField<S>>,
) -> String {
    let members: Vec<String> = fields
        .map(|(name, slot)| format!("\"{name}\":{}", slot(s).text()))
        .collect();
    members.join(",")
}

/// The keys of one `/v1/stats` namespace object, in order; each names a
/// [`protocol::STATS_OK_FIELDS`] entry, which supplies the value.
#[rustfmt::skip]
const NAMESPACE_JSON_KEYS: [&str; 28] = [
    "submitted", "completed", "failed", "rejected", "timed_out", "cancelled", "partial",
    "respawns", "poison_retries", "queue_depth_high_water", "in_flight_high_water", "claims",
    "rows_scanned", "tasks_executed", "tasks_deduped", "singleflight_waits", "scan_passes",
    "blocks_scanned", "blocks_skipped", "bytes_scanned", "partitions_scanned", "partition_merges",
    "partition_parallelism", "grids_patched", "delta_rows_scanned",
    "queue_depth", "in_flight", "lanes",
];

/// One namespace's entry of the `/v1/stats` `"namespaces"` object.
fn namespace_json(
    name: &str,
    s: &agg_core::StreamStats,
    queue_depth: usize,
    in_flight: usize,
    lane_depths: &[(u64, usize)],
) -> String {
    let mut stats = WireStats {
        stream: *s,
        queue_depth: queue_depth as u64,
        in_flight: in_flight as u64,
        lane_depths: lane_depths.iter().map(|&(l, d)| (l, d as u64)).collect(),
        ..WireStats::default()
    };
    let fields = NAMESPACE_JSON_KEYS.iter().map(|key| {
        protocol::STATS_OK_FIELDS
            .iter()
            .find(|(name, _)| name == key)
            .expect("every namespace key names a StatsOk field")
    });
    format!(
        "\"{}\":{{{}}}",
        json::escape(name),
        json_members(&mut stats, fields)
    )
}

fn stats_json(shared: &Arc<ServerShared>) -> String {
    let c = &shared.counters;
    let mut names: Vec<&String> = shared.namespaces.keys().collect();
    names.sort();
    let namespaces: Vec<String> = names
        .into_iter()
        .map(|name| {
            let service = &shared.namespaces[name];
            namespace_json(
                name,
                &service.stats(),
                service.queue_depth(),
                service.in_flight(),
                &service.lane_depths(),
            )
        })
        .collect();
    format!(
        "{{\"connections\":{},\"open_connections\":{},\"http_requests\":{},\"frames_in\":{},\"frames_out\":{},\"malformed_frames\":{},\"namespaces\":{{{}}}}}",
        c.connections.load(Ordering::SeqCst),
        c.open_connections.load(Ordering::SeqCst),
        c.http_requests.load(Ordering::SeqCst),
        c.frames_in.load(Ordering::SeqCst),
        c.frames_out.load(Ordering::SeqCst),
        c.malformed_frames.load(Ordering::SeqCst),
        namespaces.join(","),
    )
}

// --- binary front-end -------------------------------------------------

/// What a handled frame means for the session loop.
enum Flow {
    Continue,
    /// `Goodbye`: finish streaming outstanding results, then close.
    Drain,
    /// Protocol violation or disconnect: cancel outstanding, then close.
    Abort,
}

struct BinarySession<'s> {
    shared: &'s Arc<ServerShared>,
    service: Arc<StreamingVerifier>,
    conn_id: u64,
    tx: mpsc::Sender<OutMsg>,
    outstanding: Arc<Mutex<HashMap<u64, Arc<Ticket>>>>,
    watchers: Vec<JoinHandle<()>>,
}

impl BinarySession<'_> {
    fn send(&self, op: Opcode, payload: Vec<u8>) {
        let _ = self.tx.send(Some((op, payload)));
    }

    fn handle(&mut self, frame: &protocol::Frame) -> Flow {
        match Opcode::from_u8(frame.opcode) {
            Some(Opcode::Submit) => self.handle_submit(&frame.payload),
            Some(Opcode::Cancel) => self.handle_cancel(&frame.payload),
            Some(Opcode::Stats) => {
                self.send(Opcode::StatsOk, protocol::stats_ok(&self.wire_stats()));
                Flow::Continue
            }
            Some(Opcode::Goodbye) => Flow::Drain,
            Some(Opcode::Hello) | Some(_) | None => {
                // A second Hello, a server→client opcode, or a number
                // outside the table: the stream is out of sync.
                self.send(
                    Opcode::Error,
                    protocol::error(
                        errcode::UNKNOWN_OPCODE,
                        &format!("unexpected opcode 0x{:02x}", frame.opcode),
                    ),
                );
                Flow::Abort
            }
        }
    }

    fn handle_submit(&mut self, payload: &[u8]) -> Flow {
        let Ok((doc, deadline_ms, text)) = protocol::parse_submit(payload) else {
            return self.malformed("submit payload does not decode");
        };
        if lock(&self.outstanding).contains_key(&doc) {
            self.send(
                Opcode::Rejected,
                protocol::rejected(
                    doc,
                    errcode::DUPLICATE_DOC,
                    "document id already outstanding",
                ),
            );
            return Flow::Continue;
        }
        let opts = SubmitOptions {
            deadline: (deadline_ms > 0)
                .then(|| Instant::now() + Duration::from_millis(deadline_ms)),
            lane: self.conn_id,
            observer: Some(Arc::new(FrameObserver {
                doc,
                tx: Mutex::new(self.tx.clone()),
            })),
        };
        match self.service.submit_text_with(&text, opts) {
            Ok(ticket) => {
                let ticket = Arc::new(ticket);
                lock(&self.outstanding).insert(doc, Arc::clone(&ticket));
                self.send(Opcode::Accepted, protocol::doc_id(doc));
                let tx = self.tx.clone();
                let outstanding = Arc::clone(&self.outstanding);
                let watcher = thread::Builder::new()
                    .name(format!("verifyd-watch-{}-{doc}", self.conn_id))
                    .spawn(move || {
                        match ticket.wait_ref() {
                            Ok(report) => {
                                for (index, claim) in report.claims.iter().enumerate() {
                                    let _ = tx.send(Some((
                                        Opcode::ClaimVerdict,
                                        protocol::claim_verdict(doc, index as u32, claim),
                                    )));
                                }
                                let _ = tx.send(Some((
                                    Opcode::Complete,
                                    protocol::complete(doc, report.status, &report.stats),
                                )));
                            }
                            Err(e) => {
                                let _ = tx.send(Some((
                                    Opcode::Rejected,
                                    protocol::rejected(doc, errcode::VERIFY_FAILED, &e.to_string()),
                                )));
                            }
                        }
                        lock(&outstanding).remove(&doc);
                    })
                    .expect("spawn watcher thread");
                self.watchers.push(watcher);
            }
            Err(SubmitError::Full) => self.send(
                Opcode::Rejected,
                protocol::rejected(doc, errcode::FULL, "intake queue (or lane) full"),
            ),
            Err(SubmitError::Closed) => self.send(
                Opcode::Rejected,
                protocol::rejected(doc, errcode::CLOSED, "service closed"),
            ),
        }
        Flow::Continue
    }

    fn handle_cancel(&mut self, payload: &[u8]) -> Flow {
        let Ok(doc) = protocol::parse_doc_id(payload) else {
            return self.malformed("cancel payload does not decode");
        };
        match lock(&self.outstanding).get(&doc) {
            // The watcher announces the outcome: a Complete frame with
            // Cancelled (or Complete, if the race was lost) status.
            Some(ticket) => ticket.cancel(),
            None => self.send(
                Opcode::Rejected,
                protocol::rejected(doc, errcode::UNKNOWN_DOC, "document not outstanding here"),
            ),
        }
        Flow::Continue
    }

    fn malformed(&self, message: &str) -> Flow {
        self.shared
            .counters
            .malformed_frames
            .fetch_add(1, Ordering::SeqCst);
        self.send(Opcode::Error, protocol::error(errcode::BAD_FRAME, message));
        Flow::Abort
    }

    fn wire_stats(&self) -> WireStats {
        let c = &self.shared.counters;
        WireStats {
            stream: self.service.stats(),
            queue_depth: self.service.queue_depth() as u64,
            in_flight: self.service.in_flight() as u64,
            lane_depths: self
                .service
                .lane_depths()
                .into_iter()
                .map(|(lane, depth)| (lane, depth as u64))
                .collect(),
            connections: c.connections.load(Ordering::SeqCst),
            frames_in: c.frames_in.load(Ordering::SeqCst),
            frames_out: c.frames_out.load(Ordering::SeqCst),
            malformed_frames: c.malformed_frames.load(Ordering::SeqCst),
        }
    }
}

fn serve_binary(shared: &Arc<ServerShared>, stream: TcpStream, conn_id: u64, buffered: Vec<u8>) {
    let Ok(writer_stream) = stream.try_clone() else {
        return;
    };
    let (tx, rx) = mpsc::channel::<OutMsg>();
    let writer_shared = Arc::clone(shared);
    let writer = thread::Builder::new()
        .name(format!("verifyd-write-{conn_id}"))
        .spawn(move || {
            let mut stream = writer_stream;
            let mut dead = false;
            while let Ok(msg) = rx.recv() {
                let Some((op, payload)) = msg else { break };
                if dead {
                    continue;
                }
                if protocol::write_frame(&mut stream, op, &payload).is_err() {
                    dead = true;
                    continue;
                }
                writer_shared
                    .counters
                    .frames_out
                    .fetch_add(1, Ordering::SeqCst);
            }
        })
        .expect("spawn writer thread");

    let mut reader = FrameReader::with_buffered(buffered);
    let mut read_ref = &stream;
    let service = binary_handshake(shared, &mut reader, &mut read_ref, &tx, conn_id);
    let mut abort = false;
    if let Some(service) = service {
        let mut session = BinarySession {
            shared,
            service,
            conn_id,
            tx: tx.clone(),
            outstanding: Arc::new(Mutex::new(HashMap::new())),
            watchers: Vec::new(),
        };
        let mut last_activity = Instant::now();
        loop {
            match reader.read_from(&mut read_ref) {
                Ok(ReadOutcome::Frame(frame)) => {
                    last_activity = Instant::now();
                    shared.counters.frames_in.fetch_add(1, Ordering::SeqCst);
                    match session.handle(&frame) {
                        Flow::Continue => {}
                        Flow::Drain => break,
                        Flow::Abort => {
                            abort = true;
                            break;
                        }
                    }
                }
                // Disconnect with work outstanding: settle the tickets
                // so nothing leaks (the watchers observe cancellation).
                Ok(ReadOutcome::Eof) => {
                    abort = true;
                    break;
                }
                Ok(ReadOutcome::Idle) => {
                    let nothing_outstanding = lock(&session.outstanding).is_empty();
                    if nothing_outstanding
                        && (shared.shutdown.load(Ordering::SeqCst)
                            || last_activity.elapsed() > shared.config.idle_timeout)
                    {
                        break;
                    }
                }
                Err(_) => {
                    shared
                        .counters
                        .malformed_frames
                        .fetch_add(1, Ordering::SeqCst);
                    session.send(
                        Opcode::Error,
                        protocol::error(errcode::BAD_FRAME, "malformed frame"),
                    );
                    abort = true;
                    break;
                }
            }
        }
        if abort {
            for ticket in lock(&session.outstanding).values() {
                ticket.cancel();
            }
        }
        // Either way, wait for every outstanding document to settle and
        // its frames to be queued (Drain streams them; Abort settles
        // fast via the cancellations above).
        for watcher in session.watchers.drain(..) {
            watcher.join().ok();
        }
    }
    let _ = tx.send(None);
    writer.join().ok();
}

/// First frame must be a valid `Hello` for a served namespace; answers
/// `HelloOk` and returns the session's service, or answers `Error` and
/// returns `None`.
fn binary_handshake(
    shared: &Arc<ServerShared>,
    reader: &mut FrameReader,
    read_ref: &mut &TcpStream,
    tx: &mpsc::Sender<OutMsg>,
    conn_id: u64,
) -> Option<Arc<StreamingVerifier>> {
    let send = |op: Opcode, payload: Vec<u8>| {
        let _ = tx.send(Some((op, payload)));
    };
    let started = Instant::now();
    let frame = loop {
        match reader.read_from(read_ref) {
            Ok(ReadOutcome::Frame(frame)) => break frame,
            Ok(ReadOutcome::Eof) => return None,
            Ok(ReadOutcome::Idle) => {
                if shared.shutdown.load(Ordering::SeqCst)
                    || started.elapsed() > shared.config.idle_timeout
                {
                    return None;
                }
            }
            Err(_) => {
                shared
                    .counters
                    .malformed_frames
                    .fetch_add(1, Ordering::SeqCst);
                send(
                    Opcode::Error,
                    protocol::error(errcode::BAD_FRAME, "malformed frame"),
                );
                return None;
            }
        }
    };
    shared.counters.frames_in.fetch_add(1, Ordering::SeqCst);
    if frame.opcode != Opcode::Hello as u8 {
        send(
            Opcode::Error,
            protocol::error(errcode::BAD_FRAME, "first frame must be Hello"),
        );
        return None;
    }
    let namespace = match protocol::parse_hello(&frame.payload) {
        Ok(namespace) => namespace,
        Err((code, message)) => {
            if code == errcode::BAD_FRAME {
                shared
                    .counters
                    .malformed_frames
                    .fetch_add(1, Ordering::SeqCst);
            }
            send(Opcode::Error, protocol::error(code, &message));
            return None;
        }
    };
    let Some(service) = shared.namespaces.get(&namespace) else {
        send(
            Opcode::Error,
            protocol::error(
                errcode::UNKNOWN_NAMESPACE,
                &format!("namespace \"{namespace}\" is not served here"),
            ),
        );
        return None;
    };
    send(Opcode::HelloOk, protocol::hello_ok(conn_id));
    Some(Arc::clone(service))
}

#[cfg(test)]
mod tests {
    use super::*;
    use agg_core::{CheckerConfig, ReportStatus, StreamConfig};
    use agg_relational::{Database, Table};
    use std::io::Write;

    fn demo_server() -> VerifyServer {
        let table = Table::from_columns("sales", vec![("region", vec!["west".into()])]).unwrap();
        let mut db = Database::new("demo");
        db.add_table(table);
        let service =
            StreamingVerifier::new(db, CheckerConfig::default(), StreamConfig::default()).unwrap();
        let config = ServerConfig {
            poll_interval: Duration::from_millis(5),
            ..ServerConfig::default()
        };
        VerifyServer::start("127.0.0.1:0", vec![("demo".into(), service)], config).unwrap()
    }

    /// A long-lived server forgets the oldest settled documents instead
    /// of keeping every report forever.
    #[test]
    fn registry_retains_a_bounded_number_of_settled_documents() {
        let server = demo_server();
        let shared = &server.shared;
        let total = MAX_SETTLED_DOCS as u64 + 10;
        for id in 1..=total {
            let (status, _, _) = submit_document(shared, 1, b"{\"text\":\"<p>No claims.</p>\"}");
            assert_eq!(status, 202);
            // Settle before the next submission, polled or not.
            let ticket = Arc::clone(&lock(&shared.registry)[&id].ticket);
            while !ticket.is_done() {
                thread::sleep(Duration::from_millis(1));
            }
        }
        assert_eq!(lock(&shared.registry).len(), MAX_SETTLED_DOCS);
        let (status, _, body) = poll_document(shared, &total.to_string());
        assert_eq!(status, 200);
        assert!(body.contains("\"status\":\"complete\""), "{body}");
        let (status, _, body) = poll_document(shared, "1");
        assert_eq!(
            (status, body.as_str()),
            (404, "{\"error\":\"unknown document\"}")
        );
    }

    /// Finished connection threads are reaped as new connections arrive.
    #[test]
    fn connection_handles_are_reaped_as_connections_close() {
        let server = demo_server();
        let request = || {
            let mut sock = TcpStream::connect(server.local_addr()).unwrap();
            write!(sock, "GET /v1/stats HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
            let mut response = String::new();
            sock.read_to_string(&mut response).unwrap();
            assert!(response.starts_with("HTTP/1.1 200"), "{response}");
        };
        for _ in 0..50 {
            request();
        }
        // Each accept reaps the threads that finished before it; a thread
        // may lag its socket's close by a moment, so allow a few rounds.
        let bounded = (0..100).any(|_| {
            request();
            let held = lock(&server.conns).len() as u64;
            held <= server.stats().open_connections + 1 || {
                thread::sleep(Duration::from_millis(10));
                false
            }
        });
        assert!(bounded, "{} handles still held", lock(&server.conns).len());
    }

    /// A `RunStats` whose every wire-visible field is a distinct value
    /// (1..=19 in wire order, then 2.5), built by decoding so the test
    /// does not depend on how the struct lays its fields out.
    fn pinned_run_stats() -> agg_core::RunStats {
        let mut bytes = Vec::new();
        for v in 1..=16u64 {
            wire::put_u64(&mut bytes, v);
        }
        wire::put_u32(&mut bytes, 17);
        wire::put_u64(&mut bytes, 18);
        wire::put_u64(&mut bytes, 19);
        wire::put_f64(&mut bytes, 2.5);
        wire::get_stats(&mut &bytes[..]).unwrap()
    }

    /// The exact text of a settled report's JSON — the `"stats"` object
    /// is a 13-key subset of `RunStats`, in this order.
    #[test]
    fn report_json_text_is_pinned() {
        let report = wire::assemble_report(Vec::new(), pinned_run_stats(), ReportStatus::Complete);
        assert_eq!(
            report_json(7, &report),
            "{\"id\":7,\"status\":\"complete\",\"claims\":[],\"stats\":{\"claims\":1,\
             \"em_iterations\":2,\"candidates_evaluated\":3,\"rows_scanned\":6,\
             \"scan_passes\":10,\"blocks_scanned\":12,\"blocks_skipped\":13,\
             \"bytes_scanned\":14,\"partitions_scanned\":15,\"partition_merges\":16,\
             \"partition_parallelism\":17,\"grids_patched\":18,\"delta_rows_scanned\":19},\
             \"fingerprint\":\"[]|claims=1|em=2|cand=3\"}"
        );
    }

    /// The exact text of one `/v1/stats` namespace entry: all 25
    /// `StreamStats` counters in `StatsOk` order except that
    /// `partition_parallelism` sits between `partition_merges` and
    /// `grids_patched`, then the live queue state.
    #[test]
    fn stats_namespace_json_text_is_pinned() {
        let mut payload = Vec::new();
        for v in 1..=24u64 {
            wire::put_u64(&mut payload, v);
        }
        wire::put_u32(&mut payload, 25);
        for v in [0u64, 0] {
            wire::put_u64(&mut payload, v);
        }
        wire::put_u32(&mut payload, 0);
        for v in [0u64, 0, 0, 0] {
            wire::put_u64(&mut payload, v);
        }
        let stream = protocol::parse_stats_ok(&payload).unwrap().stream;
        assert_eq!(
            namespace_json("demo", &stream, 26, 27, &[(28, 29), (30, 31)]),
            "\"demo\":{\"submitted\":1,\"completed\":2,\"failed\":3,\"rejected\":4,\
             \"timed_out\":5,\"cancelled\":6,\"partial\":7,\"respawns\":8,\
             \"poison_retries\":9,\"queue_depth_high_water\":10,\
             \"in_flight_high_water\":11,\"claims\":12,\"rows_scanned\":13,\
             \"tasks_executed\":14,\"tasks_deduped\":15,\"singleflight_waits\":16,\
             \"scan_passes\":17,\"blocks_scanned\":18,\"blocks_skipped\":19,\
             \"bytes_scanned\":20,\"partitions_scanned\":21,\"partition_merges\":22,\
             \"partition_parallelism\":25,\"grids_patched\":23,\"delta_rows_scanned\":24,\
             \"queue_depth\":26,\"in_flight\":27,\
             \"lanes\":[{\"lane\":28,\"depth\":29},{\"lane\":30,\"depth\":31}]}"
        );
    }
}
