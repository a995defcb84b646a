//! The metrics layer: counters, gauges, log-bucketed
//! histograms, and the named [`Registry`] they live in.
//!
//! Everything here is updatable from any thread without a lock on the
//! hot path: counters and gauges are single atomics, histograms are a
//! fixed array of per-bucket atomics (one `fetch_add` per record). The
//! registry's mutex is only taken to *look up or create* a metric by
//! name — callers are expected to resolve their metrics once and hold
//! the `Arc`.
//!
//! Values are unit-agnostic `u64`s; by convention durations are
//! recorded in **nanoseconds** and the metric name carries the unit
//! suffix (`queue_wait_ns`). Exporters convert where humans read.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Zeroed counter.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds `n` to the count.
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one to the count.
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Last-write-wins instantaneous value.
#[derive(Debug, Default)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Gauge {
    /// Gauge initialized to `0.0`.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Sets the gauge.
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }
}

/// Number of log₂ buckets: bucket `i` holds values whose bit length is
/// `i`, i.e. `[2^(i-1), 2^i)` (bucket 0 holds exactly zero). 65 buckets
/// cover the whole `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Lock-free log-bucketed histogram (power-of-two buckets).
///
/// A record is one `fetch_add` into the bucket indexed by the value's
/// bit length, plus count/sum updates — cheap enough for per-request
/// paths. The trade is resolution: a bucket spans a 2× range, so
/// percentiles are estimates (the geometric midpoint of the bucket,
/// exact for the zero bucket). For latency SLO gating that factor-of-2
/// resolution is the right price for never locking.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

/// Bucket index of `value`: its bit length.
fn bucket_of(value: u64) -> usize {
    (u64::BITS - value.leading_zeros()) as usize
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Consistent-enough copy of the current state. (Concurrent records
    /// may straddle the loads; each observation still lands exactly
    /// once in a later snapshot.)
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// Plain-data copy of a [`Histogram`], mergeable and queryable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts (see [`HISTOGRAM_BUCKETS`]).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (wrapping on overflow).
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot { buckets: [0; HISTOGRAM_BUCKETS], count: 0, sum: 0 }
    }
}

impl HistogramSnapshot {
    /// Single-observation snapshot (the unit of [`merge`]).
    ///
    /// [`merge`]: HistogramSnapshot::merge
    pub fn of(value: u64) -> Self {
        let mut s = HistogramSnapshot::default();
        s.buckets[bucket_of(value)] = 1;
        s.count = 1;
        s.sum = value;
        s
    }

    /// Combines two snapshots bucket-wise. Merging is associative and
    /// commutative with [`HistogramSnapshot::default`] as the identity,
    /// so partial histograms from many threads/shards can be combined
    /// in any order.
    #[must_use]
    pub fn merge(&self, other: &HistogramSnapshot) -> Self {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i] + other.buckets[i]),
            count: self.count + other.count,
            sum: self.sum.wrapping_add(other.sum),
        }
    }

    /// Mean observed value (`0.0` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Estimated `p`-th percentile (`p` in `[0, 100]`): the geometric
    /// midpoint of the bucket holding the nearest-rank observation.
    /// Exact for the zero bucket; within 2× otherwise. `0.0` when
    /// empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                if i == 0 {
                    return 0.0;
                }
                let lo = (1u64 << (i - 1)) as f64;
                return lo * std::f64::consts::SQRT_2;
            }
        }
        unreachable!("rank {rank} exceeds count {}", self.count)
    }
}

/// One metric handle, as stored in a [`Registry`].
#[derive(Clone, Debug)]
pub enum Metric {
    /// A [`Counter`].
    Counter(Arc<Counter>),
    /// A [`Gauge`].
    Gauge(Arc<Gauge>),
    /// A [`Histogram`].
    Histogram(Arc<Histogram>),
}

/// Snapshot value of one metric.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(f64),
    /// Histogram state (boxed: a snapshot is ~66 words, the other
    /// variants one).
    Histogram(Box<HistogramSnapshot>),
}

/// Point-in-time copy of a whole registry, ordered by metric name.
pub type MetricsSnapshot = BTreeMap<String, MetricValue>;

/// Flattens a snapshot into `(name, value)` pairs: counters and gauges
/// verbatim, histograms expanded into `.count` / `.mean` / `.p50` /
/// `.p99` — the shape the flat bench-JSON exporter and the regression
/// gate consume.
pub fn flatten(snapshot: &MetricsSnapshot) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for (name, value) in snapshot {
        match value {
            MetricValue::Counter(c) => out.push((name.clone(), *c as f64)),
            MetricValue::Gauge(g) => out.push((name.clone(), *g)),
            MetricValue::Histogram(h) => {
                out.push((format!("{name}.count"), h.count as f64));
                out.push((format!("{name}.mean"), h.mean()));
                out.push((format!("{name}.p50"), h.percentile(50.0)));
                out.push((format!("{name}.p99"), h.percentile(99.0)));
            }
        }
    }
    out
}

/// A named collection of metrics. Lookup-or-create takes the registry
/// mutex; updating a resolved metric never does.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<HashMap<String, Metric>>,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics when `name` is already registered as a different metric
    /// kind — two subsystems disagreeing about what a name *is* would
    /// corrupt every export downstream.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        match self.get_or_insert(name, || Metric::Counter(Arc::new(Counter::new()))) {
            Metric::Counter(c) => c,
            other => panic!("metric {name} is not a counter: {other:?}"),
        }
    }

    /// The gauge named `name`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics when `name` is registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        match self.get_or_insert(name, || Metric::Gauge(Arc::new(Gauge::new()))) {
            Metric::Gauge(g) => g,
            other => panic!("metric {name} is not a gauge: {other:?}"),
        }
    }

    /// The histogram named `name`, created on first use.
    ///
    /// # Panics
    ///
    /// Panics when `name` is registered as a different metric kind.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        match self.get_or_insert(name, || Metric::Histogram(Arc::new(Histogram::new()))) {
            Metric::Histogram(h) => h,
            other => panic!("metric {name} is not a histogram: {other:?}"),
        }
    }

    fn get_or_insert(&self, name: &str, make: impl FnOnce() -> Metric) -> Metric {
        let mut metrics = self.metrics.lock().expect("metrics registry poisoned");
        if let Some(m) = metrics.get(name) {
            return m.clone();
        }
        let m = make();
        metrics.insert(name.to_string(), m.clone());
        m
    }

    /// Point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let metrics = self.metrics.lock().expect("metrics registry poisoned");
        metrics
            .iter()
            .map(|(name, m)| {
                let value = match m {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                    Metric::Histogram(h) => MetricValue::Histogram(Box::new(h.snapshot())),
                };
                (name.clone(), value)
            })
            .collect()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.lock().expect("metrics registry poisoned").len()
    }

    /// Whether no metric is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let r = Registry::new();
        let c = r.counter("requests");
        c.incr();
        c.add(2);
        r.gauge("depth").set(3.5);
        assert_eq!(r.counter("requests").get(), 3, "same name resolves to the same counter");
        assert_eq!(r.gauge("depth").get(), 3.5);
        assert_eq!(r.len(), 2);
    }

    #[test]
    #[should_panic(expected = "is not a gauge")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn histogram_percentiles_bracket_the_data() {
        let h = Histogram::new();
        for v in [100u64, 200, 400, 800, 100_000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        let p50 = s.percentile(50.0);
        // The median observation is 400; the estimate must stay within
        // its bucket [256, 512).
        assert!((256.0..512.0).contains(&p50), "p50 {p50}");
        let p99 = s.percentile(99.0);
        assert!((65536.0..131072.0).contains(&p99), "p99 {p99}");
        assert_eq!(s.percentile(0.0), s.percentile(1.0), "rank clamps at the first observation");
    }

    #[test]
    fn zero_bucket_is_exact() {
        let h = Histogram::new();
        h.record(0);
        h.record(0);
        assert_eq!(h.snapshot().percentile(99.0), 0.0);
    }

    #[test]
    fn snapshot_flatten_expands_histograms() {
        let r = Registry::new();
        r.counter("a").add(7);
        r.histogram("lat_ns").record(1000);
        let flat = flatten(&r.snapshot());
        let names: Vec<&str> = flat.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a", "lat_ns.count", "lat_ns.mean", "lat_ns.p50", "lat_ns.p99"]);
        assert_eq!(flat[0].1, 7.0);
        assert_eq!(flat[2].1, 1000.0);
    }
}
