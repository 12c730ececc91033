//! A request body nested past the JSON reader's limit is one more 400:
//! 10 KB of `[` — far under `http::MAX_BODY_BYTES` — used to overflow a
//! worker thread's stack in the recursive parser and abort the daemon.

use pipedream_obs::MetricsRegistry;
use pipedream_serve::{Client, ServeOptions, Server};
use std::sync::Arc;

#[test]
fn a_deeply_nested_body_is_a_400_and_the_daemon_lives() {
    let options = ServeOptions {
        addr: "127.0.0.1:0".into(),
        ..ServeOptions::default()
    };
    let server = Server::start(options, Arc::new(MetricsRegistry::new())).expect("bind");
    let mut c = Client::connect(server.addr()).unwrap();

    for body in [
        "[".repeat(10_000),
        format!(
            "{{\"model\":\"alexnet\",\"profile\":{}",
            "{\"a\":".repeat(10_000)
        ),
    ] {
        let r = c.post("/plan", &body).unwrap();
        assert_eq!(r.status, 400, "{}", r.body);
        assert!(r.body.contains("recursion limit exceeded"), "{}", r.body);
    }

    let r = c.get("/healthz").unwrap();
    assert_eq!(r.status, 200);
    let r = c
        .post("/plan", r#"{"model": "alexnet", "servers": 1}"#)
        .unwrap();
    assert_eq!(r.status, 200, "{}", r.body);
    server.shutdown();
}
