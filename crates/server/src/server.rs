//! The accept loop and per-connection handlers over the concurrent
//! service core.
//!
//! ## Architecture
//!
//! The server shares one [`OracleService`] — the concurrent,
//! epoch-published core — across every connection. Each accepted
//! connection gets a **handler thread** that reads protocol frames,
//! applies the per-client token bucket, submits work straight into the
//! service ([`OracleService::submit_batch`] keeps a batch contiguous in
//! the admission queue), and calls [`OracleService::wait`] for each
//! ticket. There is no job channel and no server-side worker pool: `wait`
//! runs the service's rounds on the handler thread itself, so a handler
//! answers its own chunk — and whatever other connections queued beside
//! it, which is how concurrent clients coalesce against each other in the
//! shared admission queue exactly like one big batch would. A round
//! releases the service's state lock while it answers, so handlers run
//! rounds concurrently against the published epoch.
//!
//! Telemetry reads never enter the query queue: `METRICS` renders from
//! the shared metric counters and `SNAPSHOT` captures against the
//! currently published epoch, off the query path. (A capture briefly
//! pins the epoch; a concurrent wave barrier waits for it to finish, so
//! snapshot downloads delay repairs, never corrupt them — and they are
//! charged tokens, see below.)
//!
//! ## Flow control
//!
//! * **Per-client rate limiting** ([`ServerConfig::rate_capacity`] /
//!   [`ServerConfig::rate_refill_per_sec`]): a token bucket per connection;
//!   `BATCH` costs its length and every other request costs one token.
//!   **Every request costs at least one token** — an empty `BATCH` or a
//!   telemetry read is never free, so a throttled client cannot loop free
//!   multi-MB snapshot downloads. An empty bucket produces an explicit
//!   [`Reply::Shed`]`(`[`ShedReason::RateLimited`]`)` — clients are told,
//!   never silently dropped.
//! * **Bounded in-flight tickets**: batches larger than 256 queries are
//!   split into chunks submitted one at a time, so a single connection can
//!   never occupy more than its share of service tickets. Within the
//!   service, one round answers everything queued ahead of the next wave,
//!   and the round runs on the thread that steps it. The pending-queue cap
//!   ([`ServiceConfig::max_pending`](ftspan_oracle::ServiceConfig::max_pending))
//!   is the one overload guard. Queries the service sheds come back as
//!   per-entry [`BatchEntry::Shed`] (or [`ShedReason::Admission`] for
//!   single queries).
//! * **Accepting**: the accept loop blocks in `accept`; shutdown wakes it
//!   with a connection to its own address. Errors about one peer
//!   (`ECONNABORTED`, `ECONNRESET`) are retried at once, and resource
//!   errors (`EMFILE`, `ENFILE`, …) after a short back-off, so one failed
//!   `accept` never stops the server from accepting.
//! * **Graceful drain**: [`Server::shutdown`] stops accepting, unblocks
//!   every connection, joins every handler (each finishes its in-flight
//!   request first) — then hands the warm [`OracleService`] back to the
//!   caller (ready for [`Snapshot::capture`]).

use std::collections::HashMap;
use std::io;
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use ftspan::FaultSet;
use ftspan_graph::wire::WireWriter;
use ftspan_oracle::{OracleService, Query, Snapshot, Snapshottable, SpannerOracle, TicketState};

use crate::protocol::{
    decode_request, encode_reply_into, read_frame, write_frame, BatchEntry, Frame, Reply, Request,
    ShedReason, WaveSummary, WireAnswer,
};

/// Configuration of a [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Token-bucket burst capacity per connection. `0` disables rate
    /// limiting entirely.
    pub rate_capacity: u32,
    /// Tokens restored per second. `0.0` means the bucket never refills —
    /// each connection gets exactly `rate_capacity` requests, which makes
    /// shedding deterministic (the configuration the e2e tests pin).
    pub rate_refill_per_sec: f64,
    /// Per-connection read timeout. A connection that sends nothing — or
    /// stalls mid-frame, the slow-loris pattern — for this long gets one
    /// explicit [`Reply::Shed`]`(`[`ShedReason::Timeout`]`)` and is
    /// closed, freeing its handler thread. `None` disables the timeout
    /// (a stalled client then pins its handler until shutdown).
    pub read_timeout: Option<Duration>,
    /// Largest [`Reply::SnapshotChunk`] data payload in a `SNAPSHOT`
    /// download (default 4 MiB). The capture is still one in-memory byte
    /// string, but neither the wire nor the client ever materializes a
    /// frame bigger than this — a 256 MiB snapshot streams as bounded
    /// frames instead of one giant one.
    pub snapshot_chunk_len: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            rate_capacity: 0,
            rate_refill_per_sec: 0.0,
            read_timeout: Some(Duration::from_secs(30)),
            snapshot_chunk_len: 4 * 1024 * 1024,
        }
    }
}

/// Service tickets one connection may hold in flight: a larger `BATCH` is
/// split into chunks of this size, submitted one chunk at a time.
const MAX_IN_FLIGHT_PER_CONN: usize = 256;

/// Longest a journal subscription stays silent: an idle tick still sends
/// an empty frame, as a heartbeat.
const JOURNAL_HEARTBEAT: Duration = Duration::from_millis(200);

/// Token cost of one request: a `BATCH` costs its length, floored at one
/// token so no request shape — not even `BATCH []` — is free; every other
/// request costs one.
fn request_cost(request: &Request) -> f64 {
    match request {
        Request::Batch(queries) => queries.len().max(1) as f64,
        Request::Distance { .. }
        | Request::Path { .. }
        | Request::Wave(_)
        | Request::Metrics
        | Request::Snapshot
        | Request::JournalSubscribe { .. }
        | Request::Promote => 1.0,
    }
}

/// The replication link of a running replica: the follower thread applying
/// the primary's journal stream, plus what `PROMOTE` (or shutdown) needs to
/// stop it — shutting the stream down unblocks the thread's blocking read,
/// and joining it guarantees every entry it received has been applied.
#[derive(Debug)]
pub(crate) struct FollowerControl {
    pub(crate) stop: Arc<AtomicBool>,
    pub(crate) stream: TcpStream,
    pub(crate) handle: thread::JoinHandle<()>,
}

impl FollowerControl {
    fn stop_and_join(self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
        let _ = self.handle.join();
    }
}

/// Replication role of a running server, shared with every handler.
#[derive(Debug)]
struct RoleState {
    /// `true` on a primary. A replica rejects `WAVE` with a typed error
    /// until a `PROMOTE` flips this.
    accepts_waves: AtomicBool,
    /// The replica's follower link; `PROMOTE` (and shutdown) takes it.
    follower: Mutex<Option<FollowerControl>>,
}

/// A running `ftspan` server. Dropping it shuts it down; prefer
/// [`Server::shutdown`] to get the warm service back.
#[derive(Debug)]
pub struct Server<O: SpannerOracle + 'static> {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    conns: Connections,
    handlers: Handlers,
    accept_thread: Option<thread::JoinHandle<()>>,
    role: Arc<RoleState>,
    service: Option<Arc<OracleService<O>>>,
}

impl<O> Server<O>
where
    O: SpannerOracle + Snapshottable + 'static,
{
    /// Binds `addr` (use port `0` for an ephemeral port) and starts serving
    /// the given service as a **primary** (waves accepted, wave journal
    /// enabled so followers can subscribe). The service is shared with
    /// every connection handler and comes back out of [`Server::shutdown`].
    /// Handlers run the service's rounds themselves in
    /// [`OracleService::wait`]; the server adds no threads to the service.
    ///
    /// # Errors
    ///
    /// Returns any error from binding the listener.
    pub fn start(
        service: OracleService<O>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<Self> {
        Self::start_with_role(service, addr, config, true)
    }

    /// [`Server::start`] with an explicit starting role;
    /// `accepts_waves == false` is the replica mode
    /// [`ReplicaServer`](crate::ReplicaServer) uses.
    pub(crate) fn start_with_role(
        service: OracleService<O>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        accepts_waves: bool,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns = Connections::default();
        let handlers = Handlers::default();
        // Every server journals its waves: a primary so followers can
        // subscribe, a replica so *it* can serve followers (and fresh
        // subscriptions) after promotion. Enabled before the listener
        // serves anything, so no wave can precede the journal's base.
        let _ = service.enable_journal();
        let vertex_count = service.oracle().graph().vertex_count();
        let service = Arc::new(service);
        let role = Arc::new(RoleState {
            accepts_waves: AtomicBool::new(accepts_waves),
            follower: Mutex::new(None),
        });

        let accept_thread = {
            let shutdown = Arc::clone(&shutdown);
            let conns = Arc::clone(&conns);
            let handlers = Arc::clone(&handlers);
            let service = Arc::clone(&service);
            let role = Arc::clone(&role);
            let config = config.clone();
            thread::Builder::new()
                .name("ftspan-accept".into())
                .spawn(move || {
                    accept_loop(
                        &listener,
                        &service,
                        &shutdown,
                        &conns,
                        &handlers,
                        &config,
                        vertex_count,
                        &role,
                    );
                })?
        };

        Ok(Self {
            local_addr,
            shutdown,
            conns,
            handlers,
            accept_thread: Some(accept_thread),
            role,
            service: Some(service),
        })
    }

    /// A shared handle to the serving service, for the follower thread a
    /// [`ReplicaServer`](crate::ReplicaServer) attaches.
    pub(crate) fn service_arc(&self) -> Arc<OracleService<O>> {
        Arc::clone(
            self.service
                .as_ref()
                .expect("service present until shutdown"),
        )
    }

    /// Installs the replica's follower link so `PROMOTE` and shutdown can
    /// stop it.
    pub(crate) fn install_follower(&self, control: FollowerControl) {
        *self.role.follower.lock().expect("role state poisoned") = Some(control);
    }

    /// `true` when this server accepts `WAVE` requests (a primary, or a
    /// promoted replica).
    #[must_use]
    pub fn accepts_waves(&self) -> bool {
        self.role.accepts_waves.load(Ordering::SeqCst)
    }

    /// The address the server is listening on.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, drains in-flight work, joins every thread, and
    /// returns the warm [`OracleService`] — metrics, caches, and repaired
    /// spanner intact, ready for [`Snapshot::capture`].
    ///
    /// # Panics
    ///
    /// Panics if a server thread panicked.
    #[must_use]
    pub fn shutdown(mut self) -> OracleService<O> {
        assert!(self.stop_threads(), "server threads must not panic");
        let service = self.service.take().expect("service present until shutdown");
        match Arc::try_unwrap(service) {
            Ok(service) => service,
            Err(_) => panic!("a connection handler outlived shutdown"),
        }
    }
}

impl<O: SpannerOracle + 'static> Server<O> {
    /// Stops the replication follower, wakes and joins the accept thread,
    /// then closes every connection and joins every handler (handlers
    /// observe the closed socket, finish their in-flight request, and
    /// exit). The accept thread is joined before the connections are
    /// closed, so no connection can register after the close. Returns
    /// `false` if the accept thread panicked.
    fn stop_threads(&mut self) -> bool {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(follower) = self
            .role
            .follower
            .lock()
            .expect("role state poisoned")
            .take()
        {
            follower.stop_and_join();
        }
        let mut clean = true;
        if let Some(accept) = self.accept_thread.take() {
            wake_accept(self.local_addr);
            clean = accept.join().is_ok();
        }
        for (_, conn) in self.conns.lock().expect("connection list poisoned").drain() {
            let _ = conn.shutdown(std::net::Shutdown::Both);
        }
        let handlers = std::mem::take(&mut *self.handlers.lock().expect("handler list poisoned"));
        for handler in handlers {
            let _ = handler.join();
        }
        clean
    }
}

impl<O: SpannerOracle + 'static> Drop for Server<O> {
    fn drop(&mut self) {
        self.stop_threads();
        // Dropping the service Arc last: with every handler joined this is
        // the final reference, so the service joins its background threads
        // (if it was built with any) here.
        self.service.take();
    }
}

/// A clone of every live connection's stream by connection id, kept so
/// shutdown can close the socket under its handler. Each handler removes
/// its own entry when it exits.
type Connections = Arc<Mutex<HashMap<u64, TcpStream>>>;

/// Handler threads not yet joined. The accept loop joins the finished ones
/// as it registers each new handler; shutdown joins the rest.
type Handlers = Arc<Mutex<Vec<thread::JoinHandle<()>>>>;

/// Pause before retrying an `accept` error that is not about one peer
/// (`EMFILE`, `ENFILE`, `ENOBUFS`, …), so the loop does not spin while
/// the resource frees up.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// Unblocks the accept loop's blocking `accept` by connecting to the
/// listener; the loop then sees the shutdown flag and exits. A wildcard
/// bind address is reached through loopback.
fn wake_accept(mut addr: SocketAddr) {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    let _ = TcpStream::connect(addr);
}

#[allow(clippy::too_many_arguments)]
fn accept_loop<O: SpannerOracle + Snapshottable + 'static>(
    listener: &TcpListener,
    service: &Arc<OracleService<O>>,
    shutdown: &Arc<AtomicBool>,
    conns: &Connections,
    handlers: &Handlers,
    config: &ServerConfig,
    vertex_count: usize,
    role: &Arc<RoleState>,
) {
    for id in 0u64.. {
        match listener.accept() {
            // The wake-up connection from `stop_threads`, or a client that
            // raced shutdown: either way, stop accepting.
            Ok(_) if shutdown.load(Ordering::SeqCst) => return,
            Ok((stream, _peer)) => {
                let _ = stream.set_nodelay(true);
                if let Ok(clone) = stream.try_clone() {
                    conns
                        .lock()
                        .expect("connection list poisoned")
                        .insert(id, clone);
                }
                let service = Arc::clone(service);
                let config = config.clone();
                let role = Arc::clone(role);
                let shutdown = Arc::clone(shutdown);
                let registry = Arc::clone(conns);
                let spawned = thread::Builder::new()
                    .name("ftspan-conn".into())
                    .spawn(move || {
                        handle_connection(
                            stream,
                            &service,
                            &config,
                            vertex_count,
                            &role,
                            &shutdown,
                        );
                        registry
                            .lock()
                            .expect("connection list poisoned")
                            .remove(&id);
                    });
                let mut handlers = handlers.lock().expect("handler list poisoned");
                let (finished, running) = std::mem::take(&mut *handlers)
                    .into_iter()
                    .partition::<Vec<_>, _>(thread::JoinHandle::is_finished);
                *handlers = running;
                for handler in finished {
                    let _ = handler.join();
                }
                match spawned {
                    Ok(handle) => handlers.push(handle),
                    // No handler will deregister the stream: close it here.
                    Err(_) => {
                        conns.lock().expect("connection list poisoned").remove(&id);
                    }
                }
            }
            Err(_) if shutdown.load(Ordering::SeqCst) => return,
            // The peer gave up before it was accepted: nothing to wait for.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::ConnectionAborted
                        | io::ErrorKind::ConnectionReset
                        | io::ErrorKind::Interrupted
                ) => {}
            Err(_) => thread::sleep(ACCEPT_BACKOFF),
        }
    }
}

/// Per-connection token bucket. With `refill_per_sec == 0.0` the bucket is
/// a hard per-connection budget, which is what the deterministic tests use.
struct TokenBucket {
    capacity: f64,
    tokens: f64,
    refill_per_sec: f64,
    last: Instant,
}

impl TokenBucket {
    fn new(config: &ServerConfig) -> Option<Self> {
        (config.rate_capacity > 0).then(|| Self {
            capacity: f64::from(config.rate_capacity),
            tokens: f64::from(config.rate_capacity),
            refill_per_sec: config.rate_refill_per_sec,
            last: Instant::now(),
        })
    }

    fn admit(&mut self, cost: f64) -> bool {
        let now = Instant::now();
        let elapsed = now.duration_since(self.last).as_secs_f64();
        self.last = now;
        self.tokens = (self.tokens + elapsed * self.refill_per_sec).min(self.capacity);
        if self.tokens + 1e-9 < cost {
            return false;
        }
        self.tokens -= cost;
        true
    }
}

fn handle_connection<O: SpannerOracle + Snapshottable + 'static>(
    mut stream: TcpStream,
    service: &OracleService<O>,
    config: &ServerConfig,
    vertex_count: usize,
    role: &RoleState,
    shutdown: &AtomicBool,
) {
    let mut bucket = TokenBucket::new(config);
    if stream.set_read_timeout(config.read_timeout).is_err() {
        return;
    }
    // One reply buffer per connection: every encode clears and reuses it,
    // so steady-state replies (the loopback batch path in particular) cost
    // zero allocations in the codec.
    let mut reply_buf = WireWriter::new();
    loop {
        match read_frame(&mut stream) {
            Ok(Some(Frame::Intact(body))) => match decode_request(&body) {
                // Multi-frame replies are written by the handler itself;
                // everything else goes through `serve_request`.
                Ok(Request::Snapshot) => {
                    let reply = admission(&Request::Snapshot, &mut bucket);
                    let result = match reply {
                        Some(reply) => {
                            encode_reply_into(&reply, &mut reply_buf);
                            write_frame(&mut stream, reply_buf.as_slice())
                        }
                        None => {
                            let bytes = Snapshot::capture(&*service.oracle());
                            write_snapshot_chunks(
                                &mut stream,
                                &mut reply_buf,
                                &bytes,
                                config.snapshot_chunk_len,
                            )
                        }
                    };
                    if result.is_err() {
                        break;
                    }
                }
                Ok(Request::JournalSubscribe { from_epoch }) => {
                    stream_journal(
                        &mut stream,
                        &mut reply_buf,
                        service,
                        from_epoch,
                        &mut bucket,
                        shutdown,
                    );
                    // A subscription consumes the connection: when the
                    // stream ends (shutdown, divergent subscriber, dead
                    // peer), the connection is done.
                    break;
                }
                Ok(request) => {
                    let reply = admission(&request, &mut bucket)
                        .unwrap_or_else(|| serve_request(request, service, vertex_count, role));
                    encode_reply_into(&reply, &mut reply_buf);
                    if write_frame(&mut stream, reply_buf.as_slice()).is_err() {
                        break;
                    }
                }
                Err(e) => {
                    encode_reply_into(&Reply::Error(format!("bad request: {e}")), &mut reply_buf);
                    if write_frame(&mut stream, reply_buf.as_slice()).is_err() {
                        break;
                    }
                }
            },
            // The frame arrived whole but its checksum failed: answer with
            // a typed error and keep the connection — framing is still
            // aligned, and the next frame may be healthy.
            Ok(Some(Frame::Corrupt)) => {
                encode_reply_into(
                    &Reply::Error("frame checksum mismatch: request dropped".to_owned()),
                    &mut reply_buf,
                );
                if write_frame(&mut stream, reply_buf.as_slice()).is_err() {
                    break;
                }
            }
            Ok(None) => break,
            // The read timeout fired (reported as `WouldBlock` or
            // `TimedOut` depending on platform): whether the client went
            // idle or stalled mid-frame, it gets one explicit shed and
            // loses the connection — a slow-loris cannot pin this thread.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                encode_reply_into(&Reply::Shed(ShedReason::Timeout), &mut reply_buf);
                let _ = write_frame(&mut stream, reply_buf.as_slice());
                break;
            }
            Err(_) => break,
        }
    }
    // The shutdown registry holds a clone of this stream, so dropping our
    // handle would leave the TCP connection half-alive after the handler
    // exits — a shed client would block forever on its next read instead
    // of seeing the close. Shut the underlying socket down explicitly:
    // handler exit means the connection is over.
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Rate-limit + validity gate shared by all request shapes. `Some` is the
/// rejection reply; `None` admits the request.
fn admission(request: &Request, bucket: &mut Option<TokenBucket>) -> Option<Reply> {
    if let Some(bucket) = bucket {
        if !bucket.admit(request_cost(request)) {
            return Some(Reply::Shed(ShedReason::RateLimited));
        }
    }
    None
}

/// Streams a `SNAPSHOT` capture as bounded [`Reply::SnapshotChunk`]
/// frames. An empty capture is still one (empty) chunk, so the client
/// always gets at least one frame to complete on.
fn write_snapshot_chunks(
    stream: &mut TcpStream,
    reply_buf: &mut WireWriter,
    bytes: &[u8],
    chunk_len: usize,
) -> io::Result<()> {
    let total = bytes.len() as u64;
    let chunk_len = chunk_len.max(1);
    let mut offset = 0usize;
    loop {
        let end = bytes.len().min(offset + chunk_len);
        encode_reply_into(
            &Reply::SnapshotChunk {
                total,
                offset: offset as u64,
                data: bytes[offset..end].to_vec(),
            },
            reply_buf,
        );
        write_frame(stream, reply_buf.as_slice())?;
        offset = end;
        if offset >= bytes.len() {
            return Ok(());
        }
    }
}

/// Turns the connection into a journal subscription: send the backlog past
/// `from_epoch`, then keep sending entries as waves commit, with empty
/// heartbeat frames on idle ticks so a dead subscriber is noticed. Runs
/// until shutdown, a write failure (subscriber gone), or a rejection.
fn stream_journal<O: SpannerOracle + 'static>(
    stream: &mut TcpStream,
    reply_buf: &mut WireWriter,
    service: &OracleService<O>,
    from_epoch: u64,
    bucket: &mut Option<TokenBucket>,
    shutdown: &AtomicBool,
) {
    let request = Request::JournalSubscribe { from_epoch };
    if let Some(reply) = admission(&request, bucket) {
        encode_reply_into(&reply, reply_buf);
        let _ = write_frame(stream, reply_buf.as_slice());
        return;
    }
    let Some(journal) = service.journal() else {
        encode_reply_into(
            &Reply::Error("journaling is not enabled on this server".to_owned()),
            reply_buf,
        );
        let _ = write_frame(stream, reply_buf.as_slice());
        return;
    };
    if from_epoch < journal.base_epoch() {
        encode_reply_into(
            &Reply::Error(format!(
                "journal starts after epoch {}; epoch {from_epoch} predates it — \
                 re-bootstrap from a fresh snapshot",
                journal.base_epoch()
            )),
            reply_buf,
        );
        let _ = write_frame(stream, reply_buf.as_slice());
        return;
    }
    let mut cursor = from_epoch;
    // The first frame is the backlog, sent at once even when it is empty:
    // a subscriber that is already current must not wait out a tick.
    let mut wait = Duration::ZERO;
    while !shutdown.load(Ordering::SeqCst) {
        let entries = journal.wait_past(cursor, wait);
        wait = JOURNAL_HEARTBEAT;
        if let Some(last) = entries.last() {
            cursor = last.epoch;
        }
        // Empty == idle tick: still write, as a heartbeat — a vanished
        // subscriber turns it into a write error and ends the stream.
        encode_reply_into(&Reply::JournalEntries(entries), reply_buf);
        if write_frame(stream, reply_buf.as_slice()).is_err() {
            return;
        }
    }
}

fn serve_request<O: SpannerOracle + Snapshottable + 'static>(
    request: Request,
    service: &OracleService<O>,
    vertex_count: usize,
    role: &RoleState,
) -> Reply {
    if let Some(message) = validate(&request, vertex_count) {
        return Reply::Error(message);
    }
    match request {
        Request::Distance { u, v, faults } => single_query(service, Query::distance(u, v, faults)),
        Request::Path { u, v, faults } => single_query(service, Query::path(u, v, faults)),
        Request::Batch(queries) => {
            // Bound this connection's in-flight tickets: submit one chunk at
            // a time, waiting for each before the next.
            let mut entries = Vec::with_capacity(queries.len());
            let mut queries = queries;
            while !queries.is_empty() {
                let rest = queries.split_off(queries.len().min(MAX_IN_FLIGHT_PER_CONN));
                let chunk = std::mem::replace(&mut queries, rest);
                let tickets = service.submit_batch(chunk);
                for ticket in tickets {
                    entries.push(match service.wait(ticket) {
                        TicketState::Answered(answer) => BatchEntry::Answered(WireAnswer {
                            distance: answer.distance,
                            path: answer.path,
                        }),
                        _ => BatchEntry::Shed,
                    });
                }
            }
            Reply::Batch(entries)
        }
        Request::Wave(wave) => {
            if !role.accepts_waves.load(Ordering::SeqCst) {
                return Reply::Error(
                    "replica is read-only: WAVE rejected (send PROMOTE to make it a primary)"
                        .to_owned(),
                );
            }
            let ticket = service.submit_wave(wave);
            match service.wait(ticket) {
                TicketState::Waved(report) => Reply::Wave(WaveSummary {
                    epoch: report.epoch,
                    edges_added: report.outcome.edges_added as u64,
                    broken_pairs: report.outcome.broken_pairs.len() as u64,
                    escalated: report.outcome.escalated,
                    rebuilt_lanes: report.rebuilt_lanes.iter().map(|&l| l as u32).collect(),
                }),
                state => Reply::Error(format!("wave unresolved: {state:?}")),
            }
        }
        Request::Promote => {
            if role.accepts_waves.load(Ordering::SeqCst) {
                return Reply::Error("already a primary: PROMOTE rejected".to_owned());
            }
            // Stop the follower first: shutting its stream down unblocks
            // its read, and joining it guarantees every journal entry it
            // received has been applied before waves are accepted — the
            // promoted epoch is exactly what the replica caught up to.
            let follower = role.follower.lock().expect("role state poisoned").take();
            if let Some(follower) = follower {
                follower.stop_and_join();
            }
            role.accepts_waves.store(true, Ordering::SeqCst);
            Reply::Promoted {
                epoch: service.oracle().epoch(),
            }
        }
        // Reads answer against current shared state, off the query queue.
        Request::Metrics => Reply::Metrics(service.render_prometheus()),
        // Multi-frame replies never reach this function.
        Request::Snapshot | Request::JournalSubscribe { .. } => {
            Reply::Error("internal: streaming request routed to serve_request".to_owned())
        }
    }
}

fn single_query<O: SpannerOracle + 'static>(service: &OracleService<O>, query: Query) -> Reply {
    let ticket = service.submit(query);
    match service.wait(ticket) {
        TicketState::Answered(answer) => Reply::Answer(WireAnswer {
            distance: answer.distance,
            path: answer.path,
        }),
        _ => Reply::Shed(ShedReason::Admission),
    }
}

/// Rejects ids outside the graph's vertex set before they reach the
/// backend — the oracles index dense arrays by vertex id, and a remote
/// client must not be able to panic a handler thread.
fn validate(request: &Request, vertex_count: usize) -> Option<String> {
    let check_vertex = |v: ftspan_graph::VertexId| {
        (v.index() >= vertex_count).then(|| {
            format!(
                "vertex id {} out of range for {vertex_count} vertices",
                v.index()
            )
        })
    };
    // Edge-fault ids are checked by the oracles themselves (stale ids are
    // treated as already-removed edges), so only vertex ids need guarding.
    let check_faults =
        |faults: &FaultSet| faults.vertex_faults().iter().find_map(|&v| check_vertex(v));
    match request {
        Request::Distance { u, v, faults } | Request::Path { u, v, faults } => check_vertex(*u)
            .or_else(|| check_vertex(*v))
            .or_else(|| check_faults(faults)),
        Request::Batch(queries) => queries.iter().find_map(|q| {
            check_vertex(q.u)
                .or_else(|| check_vertex(q.v))
                .or_else(|| check_faults(&q.faults))
        }),
        Request::Wave(wave) => check_faults(wave),
        Request::Metrics
        | Request::Snapshot
        | Request::JournalSubscribe { .. }
        | Request::Promote => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ftspan::FaultModel;
    use ftspan_graph::vid;

    #[test]
    fn every_request_costs_at_least_one_token() {
        assert_eq!(request_cost(&Request::Batch(vec![])), 1.0);
        assert_eq!(request_cost(&Request::Metrics), 1.0);
        assert_eq!(request_cost(&Request::Snapshot), 1.0);
        let empty = FaultSet::empty(FaultModel::Vertex);
        assert_eq!(
            request_cost(&Request::Distance {
                u: vid(0),
                v: vid(1),
                faults: empty.clone(),
            }),
            1.0
        );
        assert_eq!(request_cost(&Request::Wave(empty.clone())), 1.0);
        let queries = vec![Query::distance(vid(0), vid(1), empty); 5];
        assert_eq!(request_cost(&Request::Batch(queries)), 5.0);
    }

    #[test]
    fn a_depleted_bucket_sheds_telemetry_reads() {
        let server_config = ServerConfig {
            rate_capacity: 2,
            rate_refill_per_sec: 0.0,
            ..ServerConfig::default()
        };
        let mut bucket = TokenBucket::new(&server_config).expect("bucket configured");
        let cost = request_cost(&Request::Snapshot);
        assert!(bucket.admit(cost));
        assert!(bucket.admit(cost));
        assert!(!bucket.admit(cost), "free snapshot loops are closed");
    }
}
