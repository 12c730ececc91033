//! A process-wide metrics registry with Prometheus-style text export.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`s of atomics:
//! registration takes a lock (cold path, once per metric name), but every
//! update afterwards is a single atomic op. Gauges store `f64` bit
//! patterns so rates and fractions fit naturally.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Monotonically increasing counter.
#[derive(Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increment by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Last-write-wins floating-point gauge.
#[derive(Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Set the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Raise the gauge to `v` if `v` is larger (initial value 0).
    pub fn set_max(&self, v: f64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match self.0.compare_exchange_weak(
                cur,
                v.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Histogram bucket upper bounds in seconds: 1 µs … 100 s, one decade per
/// pair of buckets, plus +Inf. Tuned for span durations.
const BUCKET_BOUNDS_S: [f64; 17] = [
    1e-6, 3e-6, 1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2, 1e-1, 3e-1, 1.0, 3.0, 10.0, 30.0,
    100.0,
];

/// Fixed-bucket histogram of durations in seconds.
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_BOUNDS_S.len()],
    count: AtomicU64,
    /// Sum of observations in nanoseconds (atomic-friendly integer).
    sum_ns: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Record a duration in seconds.
    pub fn observe_secs(&self, secs: f64) {
        for (i, &b) in BUCKET_BOUNDS_S.iter().enumerate() {
            if secs <= b {
                self.buckets[i].fetch_add(1, Ordering::Relaxed);
                break;
            }
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns
            .fetch_add((secs * 1e9).max(0.0) as u64, Ordering::Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations in seconds.
    pub fn sum_secs(&self) -> f64 {
        self.sum_ns.load(Ordering::Relaxed) as f64 * 1e-9
    }

    /// Mean observation in seconds (0 when empty).
    pub fn mean_secs(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum_secs() / n as f64
        }
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// Named registry of counters/gauges/histograms.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: Mutex<BTreeMap<String, Metric>>,
}

impl MetricsRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The name → metric map. The one panic under the lock, a kind
    /// mismatch, comes before any change, so a poisoned lock's map is whole.
    fn map(&self) -> MutexGuard<'_, BTreeMap<String, Metric>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Get or create the counter `name`. Panics if the name is already
    /// registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut m = self.map();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric '{name}' already registered with a different kind"),
        }
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut m = self.map();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric '{name}' already registered with a different kind"),
        }
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut m = self.map();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::default())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric '{name}' already registered with a different kind"),
        }
    }

    /// Full series key `name{k="v",...}`. Labels render in the given
    /// order; values are not escaped, so keep them to plain
    /// identifiers/numbers (stage indices, span-kind names).
    fn series_key(name: &str, labels: &[(&str, &str)]) -> String {
        if labels.is_empty() {
            return name.to_string();
        }
        let body: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
        format!("{name}{{{}}}", body.join(","))
    }

    /// Get or create the counter `name{labels}`. Series of the same
    /// family share one `# TYPE` line in the Prometheus dump.
    pub fn counter_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        self.counter(&Self::series_key(name, labels))
    }

    /// Get or create the gauge `name{labels}`.
    pub fn gauge_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        self.gauge(&Self::series_key(name, labels))
    }

    /// Get or create the histogram `name{labels}`. The `le` bucket label
    /// is merged into the series' label set on export.
    pub fn histogram_labeled(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Histogram> {
        self.histogram(&Self::series_key(name, labels))
    }

    /// Render every metric in the Prometheus text exposition format,
    /// names sorted, suitable for scraping or a `--metrics` dump. Labeled
    /// series registered via the `*_labeled` constructors render with
    /// their label sets and one `# TYPE` line per metric family.
    pub fn render_prometheus(&self) -> String {
        let m = self.map();
        let mut out = String::new();
        let mut typed: std::collections::HashSet<String> = std::collections::HashSet::new();
        for (key, metric) in m.iter() {
            // A key is either a bare family name or `family{label="v",..}`.
            let (family, labels) = match key.find('{') {
                Some(i) => (&key[..i], Some(&key[i + 1..key.len() - 1])),
                None => (key.as_str(), None),
            };
            let mut type_line = |out: &mut String, kind: &str| {
                if typed.insert(family.to_string()) {
                    out.push_str(&format!("# TYPE {family} {kind}\n"));
                }
            };
            match metric {
                Metric::Counter(c) => {
                    type_line(&mut out, "counter");
                    out.push_str(&format!("{key} {}\n", c.get()));
                }
                Metric::Gauge(g) => {
                    type_line(&mut out, "gauge");
                    out.push_str(&format!("{key} {}\n", g.get()));
                }
                Metric::Histogram(h) => {
                    type_line(&mut out, "histogram");
                    let bucket = |le: &str| match labels {
                        Some(body) => format!("{family}_bucket{{{body},le=\"{le}\"}}"),
                        None => format!("{family}_bucket{{le=\"{le}\"}}"),
                    };
                    let suffixed = |suffix: &str| match labels {
                        Some(body) => format!("{family}_{suffix}{{{body}}}"),
                        None => format!("{family}_{suffix}"),
                    };
                    let mut cumulative = 0u64;
                    for (i, &b) in BUCKET_BOUNDS_S.iter().enumerate() {
                        cumulative += h.buckets[i].load(Ordering::Relaxed);
                        out.push_str(&format!("{} {cumulative}\n", bucket(&b.to_string())));
                    }
                    out.push_str(&format!(
                        "{} {}\n{} {}\n{} {}\n",
                        bucket("+Inf"),
                        h.count(),
                        suffixed("sum"),
                        h.sum_secs(),
                        suffixed("count"),
                        h.count()
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_round_trip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("mb_total");
        c.add(3);
        c.inc();
        assert_eq!(reg.counter("mb_total").get(), 4);
        let g = reg.gauge("busy_frac");
        g.set(0.75);
        assert_eq!(reg.gauge("busy_frac").get(), 0.75);
        g.set_max(0.5);
        assert_eq!(g.get(), 0.75);
        g.set_max(0.9);
        assert_eq!(g.get(), 0.9);
    }

    #[test]
    fn histogram_buckets_and_mean() {
        let h = Histogram::default();
        h.observe_secs(2e-6);
        h.observe_secs(5e-3);
        h.observe_secs(0.5);
        assert_eq!(h.count(), 3);
        assert!((h.mean_secs() - (2e-6 + 5e-3 + 0.5) / 3.0).abs() < 1e-6);
    }

    #[test]
    fn prometheus_text_is_sorted_and_typed() {
        let reg = MetricsRegistry::new();
        reg.counter("z_total").inc();
        reg.gauge("a_frac").set(0.25);
        reg.histogram("op_seconds").observe_secs(1e-3);
        let text = reg.render_prometheus();
        let a = text.find("a_frac").unwrap();
        let z = text.find("z_total").unwrap();
        assert!(a < z, "names sorted:\n{text}");
        assert!(text.contains("# TYPE z_total counter"));
        assert!(text.contains("# TYPE op_seconds histogram"));
        assert!(text.contains("op_seconds_bucket{le=\"0.001\"} 1"));
        assert!(text.contains("op_seconds_count 1"));
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn labeled_series_share_one_type_line() {
        let reg = MetricsRegistry::new();
        reg.gauge_labeled("pipedream_stage_busy_frac", &[("stage", "0")])
            .set(0.5);
        reg.gauge_labeled("pipedream_stage_busy_frac", &[("stage", "1")])
            .set(0.25);
        reg.counter_labeled("events_total", &[("kind", "fwd"), ("stage", "2")])
            .add(7);
        let text = reg.render_prometheus();
        assert_eq!(
            text.matches("# TYPE pipedream_stage_busy_frac gauge")
                .count(),
            1,
            "one TYPE line per family:\n{text}"
        );
        assert!(text.contains("pipedream_stage_busy_frac{stage=\"0\"} 0.5"));
        assert!(text.contains("pipedream_stage_busy_frac{stage=\"1\"} 0.25"));
        assert!(text.contains("events_total{kind=\"fwd\",stage=\"2\"} 7"));
    }

    #[test]
    fn labeled_histogram_merges_le_into_label_set() {
        let reg = MetricsRegistry::new();
        reg.histogram_labeled("span_seconds", &[("kind", "bwd")])
            .observe_secs(1e-3);
        let text = reg.render_prometheus();
        assert!(
            text.contains("span_seconds_bucket{kind=\"bwd\",le=\"0.001\"} 1"),
            "le merged after existing labels:\n{text}"
        );
        assert!(text.contains("span_seconds_bucket{kind=\"bwd\",le=\"+Inf\"} 1"));
        assert!(text.contains("span_seconds_count{kind=\"bwd\"} 1"));
        assert!(text.contains("span_seconds_sum{kind=\"bwd\"}"));
    }

    #[test]
    fn labeled_handle_is_the_same_series_across_calls() {
        let reg = MetricsRegistry::new();
        reg.counter_labeled("c_total", &[("stage", "3")]).add(2);
        reg.counter_labeled("c_total", &[("stage", "3")]).inc();
        assert_eq!(reg.counter_labeled("c_total", &[("stage", "3")]).get(), 3);
        // A different label value is a different series.
        assert_eq!(reg.counter_labeled("c_total", &[("stage", "4")]).get(), 0);
    }
}
