//! `serve-mixed`: the planning daemon under a key space four times its
//! cache, so hits, misses and evictions all happen.

use super::{time_median, LayerMetrics, Rep, Workload};
use crate::affinity::Pinned;
use crate::calib::Echo;
use crate::gen;
use crate::span::{Tracer, HARNESS};
use crate::stats::{median, percentile, sorted};
use pipedream_obs::MetricsRegistry;
use pipedream_serve::{CacheStats, Client, ServeOptions, Server, ShardedLruCache};
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

/// Requests of one repetition, from one closed-loop client: a planner caller
/// (CLI, autopilot) waits for its reply before it asks again. One client,
/// on the daemon's CPU (see `affinity`): with a second, which of the four
/// threads the scheduler runs next decides what a hit takes (21 or 29 µs,
/// for minutes at a time), and across CPUs the wake-up does.
const REQUESTS: usize = 4000;
const RECONNECT_EVERY: usize = 500;
/// The host's speed is read this often, between requests (see `calib`).
const ECHO_EVERY: usize = 100;
const CACHE_CAPACITY: usize = 64;

/// 256 distinct cache keys: model × preset × servers × mode × schedule.
fn keys() -> Vec<String> {
    let models = [
        "vgg16", "resnet50", "alexnet", "gnmt16", "gnmt8", "awd-lm", "s2vt", "huge-lm",
    ];
    let mut keys = Vec::new();
    for model in models {
        for preset in ["a", "b"] {
            for servers in [1, 2, 3, 4] {
                for mode in ["hierarchical", "flat"] {
                    for schedule in ["vanilla", "2bw"] {
                        keys.push(format!(
                            "{{\"model\":\"{model}\",\"preset\":\"{preset}\",\"servers\":{servers},\
                             \"mode\":\"{mode}\",\"schedule\":\"{schedule}\"}}"
                        ));
                    }
                }
            }
        }
    }
    // Popularity rank → key is a fixed scramble (the same for every
    // seed), so cheap and costly plans are spread over hot and cold ranks
    // and the cost of a miss does not depend on the seed; the seed picks
    // the order of requests.
    let order = gen::shuffled(keys.len(), &mut gen::rng(0, 0x5e12e));
    order.into_iter().map(|i| keys[i].clone()).collect()
}

/// FNV-1a of a response body with the value of `"cached"` left out.
fn body_hash(body: &str) -> u64 {
    let (head, tail) = match body.find("\"cached\":") {
        Some(at) => {
            let value = at + "\"cached\":".len();
            let end = body[value..]
                .find([',', '}'])
                .map_or(body.len(), |e| value + e);
            (&body[..value], &body[end..])
        }
        None => (body, ""),
    };
    head.bytes()
        .chain(tail.bytes())
        .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ b as u64).wrapping_mul(0x100_0000_01b3)
        })
}

#[derive(Default)]
struct ClientLog {
    hit_us: Vec<f64>,
    miss_us: Vec<f64>,
    reconnects: u64,
    /// Of every echo: the seconds it took and the slowdown it read.
    echoes: Vec<(f64, f64)>,
    /// (key rank, body hash) of every 200 response.
    bodies: Vec<(usize, u64)>,
    /// Status of every response that was not 200.
    bad: Vec<u16>,
    errors: Vec<String>,
}

fn client_loop(
    addr: SocketAddr,
    keys: &[String],
    draws: &[usize],
    echo: &mut Echo,
    t: &mut Tracer,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            log.errors.push(format!("connect: {e}"));
            return log;
        }
    };
    for (i, &rank) in draws.iter().enumerate() {
        if i % ECHO_EVERY == 0 {
            log.echoes.push(t.span(HARNESS, "echo", |_| echo.once()));
        }
        let t0 = Instant::now();
        let reply = t.span("serve", "POST /plan", |_| client.post("/plan", &keys[rank]));
        let us = t0.elapsed().as_secs_f64() * 1e6;
        match reply {
            Ok(r) if r.status == 200 => {
                if r.body.contains("\"cached\":true") {
                    log.hit_us.push(us);
                } else {
                    log.miss_us.push(us);
                }
                log.bodies.push((rank, body_hash(&r.body)));
            }
            Ok(r) => log.bad.push(r.status),
            Err(e) => log.errors.push(format!("POST /plan: {e}")),
        }
        // Reconnect now and then so accept and the connection queue stay
        // in the measured path, not only a warm keep-alive socket.
        if i % RECONNECT_EVERY == RECONNECT_EVERY - 1 && i + 1 < draws.len() {
            match t.span("serve", "reconnect", |_| Client::connect(addr)) {
                Ok(c) => {
                    client = c;
                    log.reconnects += 1;
                }
                Err(e) => log.errors.push(format!("reconnect: {e}")),
            }
        }
    }
    log
}

pub struct ServeMixed {
    server: Server,
    /// Dropped after the server has stopped.
    _pinned: Option<Pinned>,
    keys: Vec<String>,
    echo: Echo,
    /// Requests per key rank in one repetition: Zipf(1.0) in expectation.
    /// Every repetition of every seed asks for exactly these, so all do the
    /// same work apart from what the order leaves in the cache; drawing
    /// each request instead makes throughput follow how many of the few
    /// 40 ms plans a repetition happens to draw.
    mix: Vec<usize>,
    seed: u64,
    reps: u64,
    /// Body hash per key rank, from the first response seen for it.
    first_body: Vec<Option<u64>>,
    // Traced repetitions only.
    all_us: Vec<f64>,
    hits: u64,
    requests: u64,
    stats: CacheStats,
    bad_503: u64,
    bad_408: u64,
    reconnects: u64,
}

impl ServeMixed {
    pub fn new(seed: u64) -> ServeMixed {
        // Before the server starts, so that its threads inherit the CPU.
        let pinned = Pinned::to_one_cpu();
        if pinned.is_none() {
            eprintln!(
                "serve-mixed: cannot pin to one CPU; latencies will include cross-CPU wake-ups"
            );
        }
        let server = Server::start(
            ServeOptions {
                addr: "127.0.0.1:0".into(),
                threads: 2,
                queue: 64,
                cache_capacity: CACHE_CAPACITY,
                cache_shards: 8,
                default_deadline_ms: 0,
                idle_timeout_ms: 0,
            },
            Arc::new(MetricsRegistry::new()),
        )
        .expect("bind the benchmark server on a free loopback port");
        let keys = keys();
        ServeMixed {
            mix: gen::zipf_counts(keys.len(), 1.0, REQUESTS),
            first_body: vec![None; keys.len()],
            keys,
            echo: Echo::new(),
            server,
            _pinned: pinned,
            seed,
            reps: 0,
            all_us: Vec::new(),
            hits: 0,
            requests: 0,
            stats: CacheStats::default(),
            bad_503: 0,
            bad_408: 0,
            reconnects: 0,
        }
    }
}

impl Workload for ServeMixed {
    fn rep(&mut self, t: &mut Tracer) -> Rep {
        let mut rep = Rep::default();
        let addr = self.server.addr();
        let draws = gen::shuffled_multiset(&self.mix, &mut gen::rng(self.seed, self.reps));
        self.reps += 1;
        let before = self.server.state().cache.stats();

        let t0 = Instant::now();
        let log = client_loop(addr, &self.keys, &draws, &mut self.echo, t);
        let echo_secs: f64 = log.echoes.iter().map(|e| e.0).sum();
        rep.secs = t0.elapsed().as_secs_f64() - echo_secs;
        let slowdowns: Vec<f64> = log.echoes.iter().map(|e| e.1).collect();
        rep.slowdown = Some(median(&slowdowns));

        let after = self.server.state().cache.stats();
        let requests = REQUESTS as u64;
        rep.attempted = requests;
        let hits = log.hit_us.len() as u64;
        let misses = log.miss_us.len() as u64;
        for (rank, hash) in &log.bodies {
            let first = *self.first_body[*rank].get_or_insert(*hash);
            rep.check(first == *hash, || {
                format!("key {rank}: body differs between responses")
            });
        }
        rep.failures
            .extend(log.bad.iter().map(|s| format!("status {s}")));
        rep.failures.extend(log.errors);
        if t.is_on() {
            self.all_us.extend(log.hit_us.iter().chain(&log.miss_us));
            self.bad_503 += log.bad.iter().filter(|&&s| s == 503).count() as u64;
            self.bad_408 += log.bad.iter().filter(|&&s| s == 408).count() as u64;
            self.reconnects += log.reconnects;
        }
        rep.ops_us = log.hit_us;
        rep.slow_us = log.miss_us;
        // The daemon's own counters must account for every request: a
        // response says `cached: false` exactly when its request ran the DP.
        let d_hits = after.hits - before.hits;
        let d_misses = after.misses - before.misses;
        let d_coalesced = after.coalesced - before.coalesced;
        rep.check(d_hits + d_misses + d_coalesced == requests, || {
            format!("cache counted {d_hits}+{d_misses}+{d_coalesced} calls for {requests} requests")
        });
        rep.check(d_misses == misses && d_hits + d_coalesced == hits, || {
            format!("clients saw {hits} cached / {misses} computed, cache says {d_hits}+{d_coalesced} / {d_misses}")
        });
        rep.work = (hits + misses) as f64;
        if t.is_on() {
            self.hits += hits;
            self.requests += requests;
            self.stats.misses += d_misses;
            self.stats.coalesced += d_coalesced;
            self.stats.evictions += after.evictions - before.evictions;
        }
        rep
    }

    fn layer_metrics(&mut self, t: &mut Tracer, out: &mut LayerMetrics) {
        let all = sorted(&self.all_us);
        out.insert(
            "serve.hit_frac",
            self.hits as f64 / self.requests.max(1) as f64,
        );
        out.insert("serve.misses", self.stats.misses as f64);
        out.insert("serve.coalesced", self.stats.coalesced as f64);
        out.insert("serve.evictions", self.stats.evictions as f64);
        out.insert("serve.shed_503", self.bad_503 as f64);
        out.insert("serve.timeout_408", self.bad_408 as f64);
        out.insert("serve.p99_us", percentile(&all, 0.99));
        out.insert("serve.max_us", percentile(&all, 1.0));
        out.insert("serve.reconnects", self.reconnects as f64);

        // Framing alone: a request that touches neither planner nor cache.
        let addr = self.server.addr();
        let healthz_s = t.span("serve", "GET /healthz", |_| {
            let mut client = Client::connect(addr).expect("connect for /healthz");
            time_median(500, || {
                black_box(client.get("/healthz").expect("/healthz answers"));
            })
        });
        out.insert("serve.healthz_us", healthz_s * 1e6);
        // The cache alone: a resident key, called directly.
        let cache: ShardedLruCache<u64, ()> = ShardedLruCache::new(CACHE_CAPACITY, 8);
        let n = 200_000u64;
        let get_s = t.span("serve", "ShardedLruCache::get_or_compute", |_| {
            for key in 0..16 {
                cache
                    .get_or_compute(key, || Ok(key))
                    .expect("compute cannot fail");
            }
            let t0 = Instant::now();
            for i in 0..n {
                black_box(cache.get_or_compute(i % 16, || Ok(0)).expect("resident"));
            }
            t0.elapsed().as_secs_f64()
        });
        out.insert("serve.cache_get_ns", get_s * 1e9 / n as f64);
    }

    fn teardown(self: Box<Self>) {
        self.server.shutdown();
    }
}
