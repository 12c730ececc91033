//! Planner-as-a-service: the `pipedream serve` daemon.
//!
//! PipeDream's partitioner and simulator are pure functions of
//! `(model profile, cluster spec)` — the shape of a query optimizer that
//! can serve many concurrent users. This crate wraps the planning stack
//! in a long-running daemon:
//!
//! * [`http`] — hand-rolled HTTP/1.1 framing on `std::net` (the
//!   environment is offline; no HTTP crate exists here).
//! * [`protocol`] — the JSON request/response schema and the `plan` /
//!   `simulate` / `validate` handlers, built on the *validated* planner
//!   entry points (`try_plan` and friends) so bad requests are 400s,
//!   never daemon deaths.
//! * [`cache`] — a sharded, size-bounded LRU memoizing DP results, as the
//!   JSON the `/plan` response splices in, by the canonical input
//!   fingerprint (`pipedream_core::fingerprint`), with in-flight request
//!   coalescing (N concurrent misses on one key → one DP execution).
//! * [`server`] — the acceptor + fixed worker pool over a bounded
//!   connection queue, with per-request deadlines, load shedding (503),
//!   `/metrics` (Prometheus via `pipedream-obs`) and `/healthz`, and
//!   graceful shutdown.
//! * [`client`] — a minimal blocking client for benches, tests, and the
//!   CLI.
//!
//! ```no_run
//! use pipedream_obs::MetricsRegistry;
//! use pipedream_serve::{ServeOptions, Server};
//! use std::sync::Arc;
//!
//! let server = Server::start(ServeOptions::default(), Arc::new(MetricsRegistry::new()))
//!     .expect("bind");
//! println!("serving on {}", server.addr());
//! // ... later:
//! server.shutdown();
//! ```

pub mod cache;
pub mod client;
pub mod http;
pub mod protocol;
pub mod server;

pub use cache::{CacheStats, ShardedLruCache};
pub use client::{Client, Response};
pub use protocol::{ApiError, PlanCache, PlanMode, PlanTarget};
pub use server::{ServeOptions, Server, ServiceState};
