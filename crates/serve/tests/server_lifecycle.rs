//! The daemon's connection queue and shutdown over real sockets: a full
//! queue sheds `503`, and shutdown wakes every thread it has to join
//! instead of waiting out a timeout. CI runs the first three 200 times
//! each, so a race between a connection registering and shutdown, or a
//! shed connection reset before it reads its `503`, shows.

use pipedream_obs::MetricsRegistry;
use pipedream_serve::{Client, ServeOptions, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Longer than any test here runs, so nothing ends by idling out.
const IDLE_TIMEOUT_MS: u64 = 60_000;

fn start(addr: &str, threads: usize, queue: usize) -> Server {
    Server::start(
        ServeOptions {
            addr: addr.into(),
            threads,
            queue,
            cache_capacity: 16,
            cache_shards: 2,
            default_deadline_ms: 0,
            idle_timeout_ms: IDLE_TIMEOUT_MS,
        },
        Arc::new(MetricsRegistry::new()),
    )
    .expect("bind on an ephemeral port")
}

#[test]
fn a_full_queue_sheds_503_and_counts_it() {
    let server = start("127.0.0.1:0", 1, 1);
    let addr = server.addr();

    // Pin the one worker: one exchange, then silence.
    let mut pinner = Client::connect(addr).unwrap();
    assert_eq!(pinner.get("/healthz").unwrap().status, 200);
    // Fills the one queue slot; the acceptor takes connections in order.
    let mut queued = Client::connect(addr).unwrap();

    // Sends nothing, so the 503 and the close arrive with nothing unread.
    let mut shed = TcpStream::connect(addr).unwrap();
    let mut answer = String::new();
    shed.read_to_string(&mut answer).unwrap();
    assert!(answer.starts_with("HTTP/1.1 503 "), "{answer}");
    assert!(answer.contains("connection queue full"), "{answer}");
    let rejected = server.state().metrics.counter("serve_rejected_total");
    assert_eq!(rejected.get(), 1);

    // The queued connection is served once the worker is free.
    drop(pinner);
    assert_eq!(queued.get("/healthz").unwrap().status, 200);
    assert_eq!(rejected.get(), 1);
    server.shutdown();
}

#[test]
fn a_shed_request_still_reads_its_503() {
    // A shed connection whose request the daemon never reads must get the
    // 503, not a reset: 200 clients in a row, each sending a 2 KB POST in
    // one write and reading to the end of the stream.
    let server = start("127.0.0.1:0", 1, 1);
    let addr = server.addr();
    let mut pinner = Client::connect(addr).unwrap();
    assert_eq!(pinner.get("/healthz").unwrap().status, 200);
    let _queued = Client::connect(addr).unwrap();

    let body = format!("{{\"model\":\"{}\"}}", "x".repeat(2000));
    let request = format!(
        "POST /plan HTTP/1.1\r\nhost: test\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    let shed = || {
        let mut conn = TcpStream::connect(addr).unwrap();
        let mut answer = String::new();
        conn.write_all(request.as_bytes()).is_ok()
            && conn.read_to_string(&mut answer).is_ok()
            && answer.starts_with("HTTP/1.1 503 ")
    };
    let answered = (0..200).filter(|_| shed()).count();
    assert_eq!(answered, 200, "shed connections that read their 503");
    let rejected = server.state().metrics.counter("serve_rejected_total");
    assert_eq!(rejected.get(), 200);
    drop(pinner);
    server.shutdown();
}

#[test]
fn shutdown_wakes_an_idle_keep_alive_connection() {
    let server = start("127.0.0.1:0", 2, 4);
    let addr = server.addr();

    // One worker serves a silent keep-alive connection, the other waits
    // for a connection that never comes.
    let mut idle = Client::connect(addr).unwrap();
    assert_eq!(idle.get("/healthz").unwrap().status, 200);

    let started = Instant::now();
    server.shutdown();
    let took = started.elapsed();
    assert!(
        took < Duration::from_millis(IDLE_TIMEOUT_MS / 12),
        "shutdown took {took:?} with an idle limit of {IDLE_TIMEOUT_MS} ms"
    );
    assert!(
        idle.get("/healthz").is_err(),
        "the idle connection is closed"
    );
    assert!(TcpStream::connect(addr).is_err(), "the port refuses");
}

#[test]
fn shutdown_of_a_wildcard_bind_wakes_its_acceptor() {
    // The acceptor is woken through loopback when bound to every address.
    let server = start("0.0.0.0:0", 1, 1);
    let port = server.addr().port();
    assert_eq!(
        Client::connect(("127.0.0.1", port))
            .unwrap()
            .get("/healthz")
            .unwrap()
            .status,
        200
    );
    server.shutdown();
    assert!(TcpStream::connect(("127.0.0.1", port)).is_err());
}
