//! The daemon: acceptor + fixed worker pool over a bounded queue.
//!
//! Connection-level scheduling: the acceptor pushes accepted sockets
//! onto a bounded queue and a fixed pool of workers pops them, each
//! serving its connection's keep-alive request stream to completion.
//! Backpressure is explicit — when the queue is full the acceptor
//! answers `503` immediately instead of letting connections pile up
//! invisibly in the kernel backlog. Per-request deadlines
//! (`x-deadline-ms`, or the configured default) are admission control:
//! a request whose deadline passed while its connection sat in the queue
//! is answered `408` without running the DP, so a backlogged daemon
//! sheds stale work first. A panicking handler is caught per-request and
//! mapped to `500` — the daemon itself never dies on a request.
//!
//! Shutdown is graceful: the acceptor stops accepting, workers finish
//! the request in flight (they poll the shutdown flag on a short socket
//! read timeout), and `join` collects every thread.

use crate::cache::{CacheStats, ShardedLruCache};
use crate::http::{self, ReadError, Request};
use crate::protocol::{self, ApiError, PlanCache};
use pipedream_obs::MetricsRegistry;
use std::collections::VecDeque;
use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
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

/// A connection waiting for a worker, stamped with its arrival time so
/// first-request deadlines cover queue wait.
struct QueuedConn {
    stream: TcpStream,
    accepted_at: Instant,
}

/// Hand-rolled bounded MPMC queue: every server worker pops from it, and
/// the acceptor reads its depth after a push. `std`'s `sync_channel` is
/// bounded but has one receiver and reports no depth.
struct BoundedQueue {
    inner: Mutex<VecDeque<QueuedConn>>,
    not_empty: Condvar,
    capacity: usize,
}

impl BoundedQueue {
    fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Non-blocking push; returns the connection back on overflow.
    fn try_push(&self, conn: QueuedConn) -> Result<usize, QueuedConn> {
        let mut q = self.inner.lock().unwrap();
        if q.len() >= self.capacity {
            return Err(conn);
        }
        q.push_back(conn);
        let depth = q.len();
        drop(q);
        self.not_empty.notify_one();
        Ok(depth)
    }

    /// Blocking pop with a timeout (workers use the timeout to poll the
    /// shutdown flag).
    fn pop_timeout(&self, timeout: Duration) -> Option<QueuedConn> {
        let mut q = self.inner.lock().unwrap();
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(conn) = q.pop_front() {
                return Some(conn);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, res) = self.not_empty.wait_timeout(q, deadline - now).unwrap();
            q = guard;
            if res.timed_out() && q.is_empty() {
                return None;
            }
        }
    }

    fn depth(&self) -> usize {
        self.inner.lock().unwrap().len()
    }
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
        self.metrics
            .counter("serve_cache_hits_total")
            .add(now.hits - last.hits);
        self.metrics
            .counter("serve_cache_misses_total")
            .add(now.misses - last.misses);
        self.metrics
            .counter("serve_cache_evictions_total")
            .add(now.evictions - last.evictions);
        self.metrics
            .counter("serve_cache_coalesced_total")
            .add(now.coalesced - last.coalesced);
        self.metrics
            .gauge("serve_cache_entries")
            .set(self.cache.len() as f64);
        *last = now;
    }
}

/// A running daemon; dropping it without [`Server::shutdown`] aborts the
/// threads with the process.
pub struct Server {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    threads: Vec<JoinHandle<()>>,
    state: Arc<ServiceState>,
}

impl Server {
    /// Bind, spawn the acceptor + worker pool, and return immediately.
    pub fn start(opts: ServeOptions, metrics: Arc<MetricsRegistry>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let state = Arc::new(ServiceState::new(&opts, metrics));
        let queue = Arc::new(BoundedQueue::new(opts.queue));
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut threads = Vec::new();

        {
            let queue = Arc::clone(&queue);
            let shutdown = Arc::clone(&shutdown);
            let state = Arc::clone(&state);
            threads.push(
                thread::Builder::new()
                    .name("serve-acceptor".into())
                    .spawn(move || accept_loop(listener, &queue, &shutdown, &state))?,
            );
        }
        let worker_opts = WorkerOptions {
            default_deadline_ms: opts.default_deadline_ms,
            idle_limit: Duration::from_millis(if opts.idle_timeout_ms == 0 {
                10_000
            } else {
                opts.idle_timeout_ms
            }),
        };
        for i in 0..opts.threads.max(1) {
            let queue = Arc::clone(&queue);
            let shutdown = Arc::clone(&shutdown);
            let state = Arc::clone(&state);
            let worker_opts = worker_opts.clone();
            threads.push(
                thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&queue, &shutdown, &state, &worker_opts))?,
            );
        }

        Ok(Server {
            addr,
            shutdown,
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

    /// Stop accepting, drain in-flight requests, join every thread.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

fn accept_loop(
    listener: TcpListener,
    queue: &BoundedQueue,
    shutdown: &AtomicBool,
    state: &ServiceState,
) {
    while !shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                state.metrics.counter("serve_connections_total").add(1);
                let conn = QueuedConn {
                    stream,
                    accepted_at: Instant::now(),
                };
                match queue.try_push(conn) {
                    Ok(depth) => state.metrics.gauge("serve_queue_depth").set(depth as f64),
                    Err(mut rejected) => {
                        // Shed load visibly: canned 503, close.
                        state.metrics.counter("serve_rejected_total").add(1);
                        let body = protocol::error_body(&ApiError {
                            status: 503,
                            message: "connection queue full".into(),
                        });
                        http::write_response(
                            &mut rejected.stream,
                            503,
                            "application/json",
                            body.as_bytes(),
                            false,
                        );
                    }
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// How long a worker waits on a silent keep-alive connection before
/// re-checking the shutdown flag.
const READ_POLL: Duration = Duration::from_millis(100);

/// Per-worker settings threaded through from [`ServeOptions`].
#[derive(Clone)]
struct WorkerOptions {
    default_deadline_ms: u64,
    /// Close keep-alive connections idle this long, so a silent client
    /// cannot pin a worker forever.
    idle_limit: Duration,
}

fn worker_loop(
    queue: &BoundedQueue,
    shutdown: &AtomicBool,
    state: &ServiceState,
    opts: &WorkerOptions,
) {
    loop {
        match queue.pop_timeout(READ_POLL) {
            Some(conn) => {
                state
                    .metrics
                    .gauge("serve_queue_depth")
                    .set(queue.depth() as f64);
                serve_connection(conn, state, shutdown, opts);
            }
            None => {
                if shutdown.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

fn serve_connection(
    conn: QueuedConn,
    state: &ServiceState,
    shutdown: &AtomicBool,
    opts: &WorkerOptions,
) {
    let QueuedConn {
        stream,
        accepted_at,
    } = conn;
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut write_half = write_half;
    let mut reader = BufReader::new(stream);
    // The first request's deadline clock starts at accept time, so time
    // spent in the bounded queue counts against it (admission control).
    // Later requests on the connection were never queued; their clock
    // starts when they are read, so client think-time never counts.
    let mut first_request = true;
    let mut idle_since = Instant::now();
    loop {
        match http::read_request(&mut reader) {
            Ok(req) => {
                let started = Instant::now();
                let request_epoch = if first_request { accepted_at } else { started };
                first_request = false;
                let (status, body, keep_alive) =
                    dispatch(&req, state, request_epoch, opts.default_deadline_ms);
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
                let keep_alive = keep_alive && !req.wants_close();
                if !http::write_response(
                    &mut write_half,
                    status,
                    "application/json",
                    body.as_bytes(),
                    keep_alive,
                ) || !keep_alive
                {
                    return;
                }
                idle_since = Instant::now();
            }
            Err(ReadError::TimedOut) => {
                if shutdown.load(Ordering::SeqCst) || idle_since.elapsed() > opts.idle_limit {
                    return;
                }
            }
            Err(ReadError::Closed) | Err(ReadError::Io(_)) => return,
            Err(ReadError::Malformed(msg)) => {
                let body = protocol::error_body(&ApiError::bad_request(msg));
                http::write_response(
                    &mut write_half,
                    400,
                    "application/json",
                    body.as_bytes(),
                    false,
                );
                return;
            }
            Err(ReadError::TooLarge) => {
                let body = protocol::error_body(&ApiError {
                    status: 413,
                    message: format!("body exceeds {} bytes", http::MAX_BODY_BYTES),
                });
                http::write_response(
                    &mut write_half,
                    413,
                    "application/json",
                    body.as_bytes(),
                    false,
                );
                return;
            }
        }
    }
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
        ("POST", "/plan") => {
            let (v, _computed) = protocol::handle_plan(&state.cache, &req.body)?;
            serde_json::to_string(&v).map_err(|e| ApiError {
                status: 500,
                message: e.to_string(),
            })
        }
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
