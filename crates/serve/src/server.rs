//! The daemon: a blocking acceptor and a fixed worker pool over a bounded
//! channel.
//!
//! Connection-level scheduling: the acceptor sends each accepted socket
//! into a `sync_channel` of `queue` slots, and a fixed pool of workers
//! takes turns receiving from it, each serving its connection's keep-alive
//! request stream to completion. Backpressure is explicit — when the
//! channel is full the acceptor answers `503` immediately instead of
//! letting connections pile up invisibly in the kernel backlog. It then
//! closes the connection's write half and hands it to one lingering
//! thread, which reads what the client still sends until it closes (or a
//! short timeout passes), so the close cannot reset a connection whose
//! request is unread before the client has read its `503`.
//! Per-request deadlines (`x-deadline-ms`, or the configured default) are
//! admission control: a request whose deadline passed while its connection
//! sat in the queue is answered `408` without running the DP, so a
//! backlogged daemon sheds stale work first. A panicking handler is caught
//! per-request and mapped to `500` — the daemon itself never dies on a
//! request.
//!
//! Nothing polls: the acceptor blocks in `accept`, an idle worker in
//! `recv`, and a serving one in a read whose timeout is the idle limit.
//! Shutdown sets the closing state and wakes each wait once: the acceptor
//! by a connection to its own port, after which it returns and drops the
//! channels' senders, ending every `recv` (the lingering thread's once its
//! read, at most `SHED_LINGER` long, returns); a serving worker by a
//! shutdown of its connection's read half, after the response it is
//! writing.

use crate::cache::{CacheStats, ShardedLruCache};
use crate::http::{self, ReadError, Request};
use crate::protocol::{self, ApiError, PlanCache};
use pipedream_obs::MetricsRegistry;
use std::io::{BufReader, Read};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Tunables for [`Server::start`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address, e.g. `127.0.0.1:7100` (port 0 picks a free port).
    pub addr: String,
    /// Worker threads serving connections.
    pub threads: usize,
    /// Bounded connection-queue depth; beyond it the acceptor sheds 503s.
    pub queue: usize,
    /// Plan-cache entry bound across all shards.
    pub cache_capacity: usize,
    /// Plan-cache shard count.
    pub cache_shards: usize,
    /// Default per-request deadline in ms when the client sends no
    /// `x-deadline-ms` header; 0 disables.
    pub default_deadline_ms: u64,
    /// Close keep-alive connections idle this long, freeing the worker
    /// for queued connections; 0 uses the 10 s default.
    pub idle_timeout_ms: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:7100".into(),
            threads: 2,
            queue: 64,
            cache_capacity: 256,
            cache_shards: 8,
            default_deadline_ms: 0,
            idle_timeout_ms: 0,
        }
    }
}

/// How long a shed connection may go on sending after its `503` before
/// it is closed anyway.
const SHED_LINGER: Duration = Duration::from_millis(200);

/// Shed connections waiting for the lingering thread; one shed while this
/// many wait is closed at once.
const SHED_BACKLOG: usize = 64;

/// A connection waiting for a worker, stamped with its arrival time so
/// first-request deadlines cover queue wait.
struct QueuedConn {
    stream: TcpStream,
    accepted_at: Instant,
}

/// Shared server state: the plan cache and the metrics registry.
pub struct ServiceState {
    /// The sharded plan cache.
    pub cache: PlanCache,
    /// Prometheus registry backing `/metrics`.
    pub metrics: Arc<MetricsRegistry>,
    /// Cache counters already published to `metrics` (delta tracking —
    /// registry counters are monotonic adds, cache stats are absolutes).
    published: Mutex<CacheStats>,
}

impl ServiceState {
    fn new(opts: &ServeOptions, metrics: Arc<MetricsRegistry>) -> Self {
        ServiceState {
            cache: ShardedLruCache::new(opts.cache_capacity, opts.cache_shards),
            metrics,
            published: Mutex::new(CacheStats::default()),
        }
    }

    /// Fold the cache's absolute counters into the registry as deltas.
    pub fn publish_cache_metrics(&self) {
        let now = self.cache.stats();
        let mut last = self.published.lock().unwrap();
        for (name, now, last) in [
            ("serve_cache_hits_total", now.hits, last.hits),
            ("serve_cache_misses_total", now.misses, last.misses),
            ("serve_cache_evictions_total", now.evictions, last.evictions),
            ("serve_cache_coalesced_total", now.coalesced, last.coalesced),
        ] {
            self.metrics.counter(name).add(now - last);
        }
        self.metrics
            .gauge("serve_cache_entries")
            .set(self.cache.len() as f64);
        *last = now;
    }
}

/// What the acceptor, the workers and [`Server::shutdown`] share, and
/// the workers' settings.
struct Pool {
    /// The receiving end of the connection queue; a worker holds the lock
    /// only while it waits for the next connection.
    queue: Mutex<Receiver<QueuedConn>>,
    /// Connections sent and not yet received, for `serve_queue_depth`.
    queued: AtomicUsize,
    /// The closing flag and the connections being served, under one lock.
    live: Mutex<Live>,
    default_deadline_ms: u64,
    /// The read timeout of every connection: a keep-alive connection
    /// silent this long is closed, so a silent client cannot pin a worker.
    idle_limit: Duration,
}

struct Live {
    closing: bool,
    /// Worker `i`'s connection while it serves one: a handle shutdown can
    /// close the read half of.
    serving: Vec<Option<TcpStream>>,
}

impl Pool {
    fn closing(&self) -> bool {
        self.live.lock().unwrap().closing
    }

    /// Record `stream` as worker `worker`'s connection; `false` once the
    /// server is closing, in which case the connection is dropped unserved.
    /// Under the same lock as [`Pool::close`], so a connection is either
    /// registered before shutdown closes the set or never served.
    fn register(&self, worker: usize, stream: &TcpStream) -> bool {
        let Ok(handle) = stream.try_clone() else {
            return false;
        };
        let mut live = self.live.lock().unwrap();
        if live.closing {
            return false;
        }
        live.serving[worker] = Some(handle);
        true
    }

    /// Enter the closing state and end every wait for a request: a worker
    /// blocked reading its connection reads end of stream.
    fn close(&self) {
        let mut live = self.live.lock().unwrap();
        live.closing = true;
        for stream in live.serving.iter().flatten() {
            let _ = stream.shutdown(Shutdown::Read);
        }
    }
}

/// A running daemon; dropping it without [`Server::shutdown`] aborts the
/// threads with the process.
pub struct Server {
    addr: SocketAddr,
    pool: Arc<Pool>,
    threads: Vec<JoinHandle<()>>,
    state: Arc<ServiceState>,
}

impl Server {
    /// Bind, spawn the acceptor + worker pool, and return immediately.
    pub fn start(opts: ServeOptions, metrics: Arc<MetricsRegistry>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        let addr = listener.local_addr()?;

        let state = Arc::new(ServiceState::new(&opts, metrics));
        let workers = opts.threads.max(1);
        let (sender, receiver) = mpsc::sync_channel(opts.queue.max(1));
        let (shed, shed_receiver) = mpsc::sync_channel(SHED_BACKLOG);
        let pool = Arc::new(Pool {
            queue: Mutex::new(receiver),
            queued: AtomicUsize::new(0),
            live: Mutex::new(Live {
                closing: false,
                serving: (0..workers).map(|_| None).collect(),
            }),
            default_deadline_ms: opts.default_deadline_ms,
            idle_limit: Duration::from_millis(match opts.idle_timeout_ms {
                0 => 10_000,
                ms => ms,
            }),
        });
        let mut threads = Vec::new();

        {
            let pool = Arc::clone(&pool);
            let state = Arc::clone(&state);
            threads.push(
                thread::Builder::new()
                    .name("serve-acceptor".into())
                    .spawn(move || accept_loop(listener, sender, shed, &pool, &state))?,
            );
        }
        {
            let pool = Arc::clone(&pool);
            threads.push(
                thread::Builder::new()
                    .name("serve-linger".into())
                    .spawn(move || linger_loop(shed_receiver, &pool))?,
            );
        }
        for i in 0..workers {
            let pool = Arc::clone(&pool);
            let state = Arc::clone(&state);
            threads.push(
                thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(i, &pool, &state))?,
            );
        }

        Ok(Server {
            addr,
            pool,
            threads,
            state,
        })
    }

    /// The actual bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (cache + metrics) — used by in-process benches
    /// and tests to inspect cache stats without a scrape.
    pub fn state(&self) -> &Arc<ServiceState> {
        &self.state
    }

    /// Stop accepting, finish the responses being written, join every
    /// thread.
    pub fn shutdown(mut self) {
        self.pool.close();
        // Wake the acceptor out of `accept`; held open until the join so
        // the acceptor is sure to see it.
        let _wake = TcpStream::connect(loopback_if_unspecified(self.addr));
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

/// `addr`, with a wildcard IP replaced by the loopback address of its
/// family, so the server can connect to itself.
fn loopback_if_unspecified(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr {
            SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
            SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
        });
    }
    addr
}

/// Returns once the server is closing, dropping the listener and, with
/// `queue` and `shed`, the last senders, so idle workers' and the
/// lingering thread's `recv` ends.
fn accept_loop(
    listener: TcpListener,
    queue: SyncSender<QueuedConn>,
    shed: SyncSender<TcpStream>,
    pool: &Pool,
    state: &ServiceState,
) {
    loop {
        let accepted = listener.accept();
        if pool.closing() {
            return;
        }
        let Ok((stream, _)) = accepted else {
            // Out of file descriptors, say: back off rather than spin.
            thread::sleep(Duration::from_millis(5));
            continue;
        };
        state.metrics.counter("serve_connections_total").add(1);
        let conn = QueuedConn {
            stream,
            accepted_at: Instant::now(),
        };
        // Counted before the send, so the receiving worker's decrement
        // never runs ahead of it.
        let depth = pool.queued.fetch_add(1, Ordering::SeqCst) + 1;
        match queue.try_send(conn) {
            Ok(()) => state.metrics.gauge("serve_queue_depth").set(depth as f64),
            Err(TrySendError::Full(mut rejected) | TrySendError::Disconnected(mut rejected)) => {
                pool.queued.fetch_sub(1, Ordering::SeqCst);
                // Shed load visibly: canned 503, close.
                state.metrics.counter("serve_rejected_total").add(1);
                let full = ApiError {
                    status: 503,
                    message: "connection queue full".into(),
                };
                write_error(&mut rejected.stream, &full);
                let _ = rejected.stream.shutdown(Shutdown::Write);
                // With the backlog full, the connection drops here and
                // closes at once.
                let _ = shed.try_send(rejected.stream);
            }
        }
    }
}

/// Read each shed connection to its end, or for [`SHED_LINGER`], before it
/// closes; a closing server closes them at once.
fn linger_loop(shed: Receiver<TcpStream>, pool: &Pool) {
    let mut sink = [0u8; 4096];
    for mut stream in shed {
        let deadline = Instant::now() + SHED_LINGER;
        while !pool.closing() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
                break;
            }
            if let Ok(0) | Err(_) = stream.read(&mut sink) {
                break;
            }
        }
    }
}

/// Serve connections until the acceptor has gone and the queue is empty.
fn worker_loop(worker: usize, pool: &Pool, state: &ServiceState) {
    loop {
        // The lock guard is a temporary of this statement, so it is
        // released before the connection is served.
        let Ok(conn) = pool.queue.lock().unwrap().recv() else {
            return;
        };
        let depth = pool.queued.fetch_sub(1, Ordering::SeqCst) - 1;
        state.metrics.gauge("serve_queue_depth").set(depth as f64);
        if pool.register(worker, &conn.stream) {
            serve_connection(conn, pool, state);
            pool.live.lock().unwrap().serving[worker] = None;
        }
    }
}

fn serve_connection(conn: QueuedConn, pool: &Pool, state: &ServiceState) {
    let QueuedConn {
        stream,
        accepted_at,
    } = conn;
    if stream.set_read_timeout(Some(pool.idle_limit)).is_err() {
        return;
    }
    let mut reader = BufReader::new(stream);
    // The first request's deadline clock starts at accept time, so time
    // spent in the bounded queue counts against it (admission control).
    // Later requests on the connection were never queued; their clock
    // starts when they are read, so client think-time never counts.
    let mut first_request = true;
    loop {
        match http::read_request(&mut reader) {
            Ok(req) => {
                let started = Instant::now();
                let request_epoch = if first_request { accepted_at } else { started };
                first_request = false;
                let (status, body, keep_alive) =
                    dispatch(&req, state, request_epoch, pool.default_deadline_ms);
                let endpoint = endpoint_label(&req.path);
                state
                    .metrics
                    .counter_labeled(
                        "serve_requests_total",
                        &[("endpoint", endpoint), ("status", status_class(status))],
                    )
                    .add(1);
                state
                    .metrics
                    .histogram_labeled("serve_request_seconds", &[("endpoint", endpoint)])
                    .observe_secs(started.elapsed().as_secs_f64());
                // A closing server answers `connection: close`: a client
                // that keeps sending could otherwise outlive the shutdown
                // of the read half.
                let keep_alive = keep_alive && !req.wants_close() && !pool.closing();
                if !http::write_response(
                    reader.get_mut(),
                    status,
                    "application/json",
                    body.as_bytes(),
                    keep_alive,
                ) || !keep_alive
                {
                    return;
                }
            }
            Err(ReadError::Closed | ReadError::TimedOut | ReadError::Io(_)) => return,
            Err(ReadError::Malformed(msg)) => {
                return write_error(reader.get_mut(), &ApiError::bad_request(msg));
            }
            Err(ReadError::TooLarge) => {
                let too_large = ApiError {
                    status: 413,
                    message: format!("body exceeds {} bytes", http::MAX_BODY_BYTES),
                };
                return write_error(reader.get_mut(), &too_large);
            }
        }
    }
}

/// Answer `err` and close.
fn write_error(stream: &mut TcpStream, err: &ApiError) {
    let body = protocol::error_body(err);
    http::write_response(
        stream,
        err.status,
        "application/json",
        body.as_bytes(),
        false,
    );
}

fn endpoint_label(path: &str) -> &'static str {
    match path {
        "/plan" => "plan",
        "/simulate" => "simulate",
        "/validate" => "validate",
        "/metrics" => "metrics",
        "/healthz" => "healthz",
        _ => "other",
    }
}

fn status_class(status: u16) -> &'static str {
    match status {
        200 => "200",
        400 => "400",
        404 => "404",
        405 => "405",
        408 => "408",
        413 => "413",
        500 => "500",
        503 => "503",
        _ => "other",
    }
}

/// Route one request; returns `(status, body, keep_alive)`.
fn dispatch(
    req: &Request,
    state: &ServiceState,
    request_epoch: Instant,
    default_deadline_ms: u64,
) -> (u16, String, bool) {
    // Admission control: a request whose deadline expired (counting queue
    // wait for a connection's first request) is shed before any work.
    let deadline_ms = req
        .header("x-deadline-ms")
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(default_deadline_ms);
    if deadline_ms > 0 && request_epoch.elapsed() > Duration::from_millis(deadline_ms) {
        let err = ApiError {
            status: 408,
            message: format!(
                "deadline of {deadline_ms} ms expired after {} ms in queue",
                request_epoch.elapsed().as_millis()
            ),
        };
        return (408, protocol::error_body(&err), true);
    }

    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| route(req, state)));
    match result {
        Ok(Ok(body)) => (200, body, true),
        Ok(Err(err)) => (err.status, protocol::error_body(&err), true),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("handler panicked");
            state.metrics.counter("serve_panics_total").add(1);
            let err = ApiError {
                status: 500,
                message: format!("internal error: {msg}"),
            };
            // Close after a panic: handler state for this connection is
            // suspect, and a fresh connection is cheap.
            (500, protocol::error_body(&err), false)
        }
    }
}

fn route(req: &Request, state: &ServiceState) -> Result<String, ApiError> {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => Ok("{\"status\":\"ok\"}".into()),
        ("GET", "/metrics") => {
            state.publish_cache_metrics();
            Ok(state.metrics.render_prometheus())
        }
        ("POST", "/plan") => protocol::handle_plan(&state.cache, &req.body).map(|(body, _)| body),
        ("POST", "/simulate") => {
            let v = protocol::handle_simulate(&state.cache, &req.body)?;
            serde_json::to_string(&v).map_err(|e| ApiError {
                status: 500,
                message: e.to_string(),
            })
        }
        ("POST", "/validate") => {
            let v = protocol::handle_validate(&req.body)?;
            serde_json::to_string(&v).map_err(|e| ApiError {
                status: 500,
                message: e.to_string(),
            })
        }
        ("GET", "/plan" | "/simulate" | "/validate") => Err(ApiError {
            status: 405,
            message: "use POST with a JSON body".into(),
        }),
        ("POST", "/healthz" | "/metrics") => Err(ApiError {
            status: 405,
            message: "use GET".into(),
        }),
        _ => Err(ApiError {
            status: 404,
            message: format!(
                "no route {} {} (endpoints: POST /plan, POST /simulate, POST /validate, \
                 GET /metrics, GET /healthz)",
                req.method, req.path
            ),
        }),
    }
}
