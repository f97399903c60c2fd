//! # linda-obs
//!
//! Zero-dependency observability core for the FT-Linda reproduction.
//!
//! The paper's evaluation (§6) is built on counting — messages per AGS,
//! latency per operation mix — and the reproduction needs the same
//! numbers available *from a running system*, not just from bench
//! harnesses. This crate provides the minimal instruments:
//!
//! * [`Counter`] — monotonic, lock-free.
//! * [`Gauge`] — a settable signed level (queue depths, applied seq).
//! * [`Histogram`] — fixed exponential buckets for latencies, with
//!   p50/p95/p99 estimation from the bucket counts.
//! * [`CounterFamily`] / [`GaugeFamily`] — labeled metric families
//!   (Prometheus `name{label="…"}` children), get-or-create per label
//!   set, for per-space / per-signature workload attribution.
//! * [`EventSink`] — a bounded ring of structured [`Event`]s (tracing
//!   without a tracing dependency), used e.g. for replica
//!   digest-divergence reports.
//! * [`Registry`] — a named collection of the above, rendered as a
//!   Prometheus text-exposition snapshot by [`Registry::render`].
//! * [`RegistrySnapshot`] — a mergeable point-in-time copy of a
//!   registry, used to serve one cluster-scope `/metrics` aggregate
//!   over every live member's registry.
//!
//! Everything is `std`-only (the build environment has no network access,
//! and the point of a measurement instrument is to not perturb what it
//! measures): handles are `Arc`s, hot-path updates are single atomic RMW
//! operations, and locks are touched only at registration/render time.

#![warn(missing_docs)]

mod trace;

pub use trace::{
    json_escape, now_micros, parse_spans_wire, span_json, spans_wire, wire_escape, wire_unescape,
    ParseTraceIdError, SpanLog, SpanRecord, TraceId, TraceTree,
};

use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// How a [`Gauge`] aggregates when registry snapshots are merged into a
/// cluster-scope page.
///
/// Most gauges are *levels* (queue depths, tuple counts) where the
/// cluster-wide figure is the sum over members. But a gauge that exposes
/// a piece of *configuration or process-level state* — the same value on
/// every member and every shard, like a byte threshold — must not be
/// summed: merging R registries would multiply it by R. Such gauges
/// register as [`GaugeMerge::Max`], which is idempotent over identical
/// values (and degrades to "largest configured" if members disagree).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum GaugeMerge {
    /// Levels aggregate additively across registries (the default).
    #[default]
    Sum,
    /// Shared config/process-level values take the max — identical
    /// inputs merge to themselves instead of multiplying.
    Max,
}

/// A gauge: an instantaneous signed level that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge {
    v: AtomicI64,
}

impl Gauge {
    /// Set the level.
    pub fn set(&self, v: i64) {
        self.v.store(v, Ordering::Relaxed);
    }

    /// Adjust the level by `delta`.
    pub fn add(&self, delta: i64) {
        self.v.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// Render a label set as the Prometheus `k="v",…` form (without braces),
/// escaping `\`, `"` and newlines in values. Label order is preserved, so
/// callers must use a consistent order for a family — the rendered string
/// doubles as the child's identity.
pub fn render_labels(labels: &[(&str, &str)]) -> String {
    let mut out = String::new();
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for ch in v.chars() {
            match ch {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out
}

/// A labeled family of [`Counter`]s: one metric name, one child counter
/// per label set (`name{space="0",signature="<str,int>"}`). Children are
/// get-or-create and never removed — label cardinality is bounded by the
/// program's signature/space vocabulary, which the FT-Linda compilation
/// model fixes up front (patterns are static in FT-lcc source).
#[derive(Debug, Default)]
pub struct CounterFamily {
    children: Mutex<BTreeMap<String, Arc<Counter>>>,
}

impl CounterFamily {
    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Arc<Counter>>> {
        self.children.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Get or create the child for `labels` (order-sensitive).
    pub fn with(&self, labels: &[(&str, &str)]) -> Arc<Counter> {
        let key = render_labels(labels);
        self.lock()
            .entry(key)
            .or_insert_with(|| Arc::new(Counter::default()))
            .clone()
    }

    /// `(rendered-labels, value)` for every child, sorted by label text.
    pub fn snapshot(&self) -> BTreeMap<String, u64> {
        self.lock()
            .iter()
            .map(|(k, c)| (k.clone(), c.get()))
            .collect()
    }
}

/// A labeled family of [`Gauge`]s. See [`CounterFamily`] for the child
/// identity/cardinality rules.
#[derive(Debug, Default)]
pub struct GaugeFamily {
    children: Mutex<BTreeMap<String, Arc<Gauge>>>,
}

impl GaugeFamily {
    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Arc<Gauge>>> {
        self.children.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Get or create the child for `labels` (order-sensitive).
    pub fn with(&self, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let key = render_labels(labels);
        self.lock()
            .entry(key)
            .or_insert_with(|| Arc::new(Gauge::default()))
            .clone()
    }

    /// `(rendered-labels, level)` for every child, sorted by label text.
    pub fn snapshot(&self) -> BTreeMap<String, i64> {
        self.lock()
            .iter()
            .map(|(k, g)| (k.clone(), g.get()))
            .collect()
    }
}

/// A labeled family of [`Histogram`]s: one metric name, one child
/// histogram per label set (`name_bucket{peer="2",le="…"}`), every child
/// sharing the family's bucket bounds. Used for per-link latency
/// attribution (wire RTT per peer) where a scalar histogram would blur
/// all links together. See [`CounterFamily`] for the child
/// identity/cardinality rules.
#[derive(Debug)]
pub struct HistogramFamily {
    bounds: Vec<f64>,
    children: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Default for HistogramFamily {
    fn default() -> Self {
        Self::new(DEFAULT_LATENCY_BOUNDS)
    }
}

impl HistogramFamily {
    /// A family whose children all use the given bucket upper bounds.
    pub fn new(bounds: &[f64]) -> Self {
        HistogramFamily {
            bounds: bounds.to_vec(),
            children: Mutex::new(BTreeMap::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Arc<Histogram>>> {
        self.children.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Get or create the child for `labels` (order-sensitive).
    pub fn with(&self, labels: &[(&str, &str)]) -> Arc<Histogram> {
        let key = render_labels(labels);
        self.lock()
            .entry(key)
            .or_insert_with(|| Arc::new(Histogram::new(&self.bounds)))
            .clone()
    }

    /// `(rendered-labels, snapshot)` for every child, sorted by label
    /// text.
    pub fn snapshot(&self) -> BTreeMap<String, HistogramSnapshot> {
        self.lock()
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect()
    }
}

/// Default latency bucket upper bounds in seconds: a 1-2-5 decade ladder
/// from 1µs to 10s. The final implicit bucket is `+Inf`.
pub const DEFAULT_LATENCY_BOUNDS: &[f64] = &[
    1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1,
    2.5e-1, 5e-1, 1.0, 2.5, 5.0, 10.0,
];

/// A fixed-bucket histogram (cumulative-bucket semantics at render time,
/// per-bucket counts internally). Observations are lock-free.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    /// One slot per bound, plus a final overflow (`+Inf`) slot.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observations in nanoseconds (latencies up to ~584 years fit).
    sum_nanos: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new(DEFAULT_LATENCY_BOUNDS)
    }
}

impl Histogram {
    /// A histogram with the given strictly-increasing upper bounds
    /// (seconds). An overflow bucket is appended automatically.
    pub fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_nanos: AtomicU64::new(0),
        }
    }

    /// Record one latency observation.
    pub fn observe(&self, d: Duration) {
        self.observe_seconds(d.as_secs_f64());
    }

    /// Record one observation given in seconds.
    pub fn observe_seconds(&self, s: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|b| s <= *b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_nanos
            .fetch_add((s * 1e9) as u64, Ordering::Relaxed);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Consistent copy of the current state.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count(),
            sum_seconds: self.sum_nanos.load(Ordering::Relaxed) as f64 / 1e9,
        }
    }
}

/// A point-in-time copy of a [`Histogram`], with quantile estimation.
#[derive(Debug, Clone)]
pub struct HistogramSnapshot {
    bounds: Vec<f64>,
    buckets: Vec<u64>,
    count: u64,
    sum_seconds: f64,
}

impl HistogramSnapshot {
    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations in seconds.
    pub fn sum_seconds(&self) -> f64 {
        self.sum_seconds
    }

    /// Estimate the `q`-quantile (`0.0 ..= 1.0`) in seconds by linear
    /// interpolation inside the bucket holding the target rank — the
    /// standard Prometheus `histogram_quantile` estimate. Returns `None`
    /// when the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = q.clamp(0.0, 1.0) * self.count as f64;
        let mut cumulative = 0u64;
        for (i, n) in self.buckets.iter().enumerate() {
            let prev = cumulative;
            cumulative += n;
            if (cumulative as f64) >= target && *n > 0 {
                let lower = if i == 0 { 0.0 } else { self.bounds[i - 1] };
                let upper = self
                    .bounds
                    .get(i)
                    .copied()
                    // Overflow bucket: report its lower edge rather than
                    // inventing an upper bound.
                    .unwrap_or_else(|| *self.bounds.last().unwrap_or(&0.0));
                let within = (target - prev as f64) / *n as f64;
                return Some(lower + (upper - lower) * within.clamp(0.0, 1.0));
            }
        }
        self.bounds.last().copied()
    }

    /// Mean observation in seconds (`None` when empty). Exact — computed
    /// from the running sum, not the bucket layout.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum_seconds / self.count as f64)
        }
    }

    /// Merge another snapshot into this one (cross-replica aggregation:
    /// the per-stage view "over the whole cluster" is the bucket-wise sum
    /// of every member's histogram). Returns `false` and leaves `self`
    /// unchanged when the bucket layouts differ.
    pub fn merge(&mut self, other: &HistogramSnapshot) -> bool {
        if self.bounds != other.bounds {
            return false;
        }
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_seconds += other.sum_seconds;
        true
    }

    /// Median estimate in seconds.
    pub fn p50(&self) -> Option<f64> {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate in seconds.
    pub fn p95(&self) -> Option<f64> {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate in seconds.
    pub fn p99(&self) -> Option<f64> {
        self.quantile(0.99)
    }
}

/// A structured tracing event: a kind plus key/value fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Event kind, e.g. `"digest_divergence"` or `"rejoin_failed"`.
    pub kind: String,
    /// Ordered key/value payload.
    pub fields: Vec<(String, String)>,
}

impl Event {
    /// Build an event from a kind and `(key, value)` pairs.
    pub fn new<K: Into<String>>(kind: K, fields: Vec<(String, String)>) -> Self {
        Event {
            kind: kind.into(),
            fields,
        }
    }

    /// Value of the first field named `key`, if present.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A bounded ring buffer of recent [`Event`]s plus a total-emitted
/// counter (so droppage of old events never hides *that* something
/// happened).
#[derive(Debug)]
pub struct EventSink {
    buf: Mutex<VecDeque<Event>>,
    cap: usize,
    total: AtomicU64,
    dropped: AtomicU64,
}

impl Default for EventSink {
    fn default() -> Self {
        Self::with_capacity(256)
    }
}

impl EventSink {
    /// A sink retaining at most `cap` recent events.
    pub fn with_capacity(cap: usize) -> Self {
        EventSink {
            buf: Mutex::new(VecDeque::with_capacity(cap.min(64))),
            cap: cap.max(1),
            total: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Record an event. When the ring is full the oldest retained event
    /// is evicted and counted in [`EventSink::dropped`] — overflow is
    /// never silent.
    pub fn emit(&self, ev: Event) {
        self.total.fetch_add(1, Ordering::Relaxed);
        let mut buf = self.buf.lock().unwrap_or_else(|e| e.into_inner());
        if buf.len() == self.cap {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(ev);
    }

    /// Copy of the retained events, oldest first.
    pub fn recent(&self) -> Vec<Event> {
        self.buf
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// Retained events of one kind, oldest first.
    pub fn recent_of(&self, kind: &str) -> Vec<Event> {
        self.recent()
            .into_iter()
            .filter(|e| e.kind == kind)
            .collect()
    }

    /// Total events ever emitted (including dropped ones).
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Events evicted from the ring because it was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// One fixed-interval sample in a [`TimeSeriesRing`]: a timestamp plus
/// the sampled `(series name, value)` pairs. Counters are stored as
/// their cumulative value at sample time (rate = difference between
/// consecutive points); family children sample as `name{labels}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TimePoint {
    /// Microseconds since `UNIX_EPOCH` at which the sample was taken.
    pub at_micros: u64,
    /// Ordered `(series, value)` pairs.
    pub values: Vec<(String, i64)>,
}

/// A bounded in-memory time series: fixed-interval [`TimePoint`]s of
/// selected gauges/counters, kept in a ring so soak runs and the future
/// shard rebalancer have *history*, not just instantaneous values.
///
/// Like [`EventSink`] and [`SpanLog`], the ring never blocks and never
/// grows: when full, the oldest point is evicted and counted — at the
/// default 1s cadence a 512-point ring holds ~8.5 minutes of history in
/// a few hundred KiB, and a dump always states how much older history
/// was lost.
#[derive(Debug)]
pub struct TimeSeriesRing {
    buf: Mutex<VecDeque<TimePoint>>,
    cap: usize,
    total: AtomicU64,
    dropped: AtomicU64,
}

impl Default for TimeSeriesRing {
    fn default() -> Self {
        Self::with_capacity(512)
    }
}

impl TimeSeriesRing {
    /// A ring retaining at most `cap` recent points.
    pub fn with_capacity(cap: usize) -> Self {
        TimeSeriesRing {
            buf: Mutex::new(VecDeque::with_capacity(cap.min(64))),
            cap: cap.max(1),
            total: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Record a sample stamped with the current time.
    pub fn sample(&self, values: Vec<(String, i64)>) {
        self.push(TimePoint {
            at_micros: now_micros(),
            values,
        });
    }

    /// Record a pre-stamped point (for tests or replay).
    pub fn push(&self, point: TimePoint) {
        self.total.fetch_add(1, Ordering::Relaxed);
        let mut buf = self.buf.lock().unwrap_or_else(|e| e.into_inner());
        if buf.len() == self.cap {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(point);
    }

    /// Copy of the retained points, oldest first.
    pub fn recent(&self) -> Vec<TimePoint> {
        self.buf
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// Number of retained points.
    pub fn len(&self) -> usize {
        self.buf.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether no points are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Points ever recorded (including evicted ones).
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Points evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Render the ring as one JSON object:
    /// `{"capacity":…,"total":…,"dropped":…,"points":[{"at_us":…,"values":{…}},…]}`.
    pub fn to_json(&self) -> String {
        let points = self.recent();
        let mut out = String::with_capacity(64 + points.len() * 128);
        let _ = write!(
            out,
            "{{\"capacity\":{},\"total\":{},\"dropped\":{},\"points\":[",
            self.cap,
            self.total(),
            self.dropped()
        );
        for (i, p) in points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{{\"at_us\":{},\"values\":{{", p.at_micros);
            for (j, (name, v)) in p.values.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "\"{}\":{v}", json_escape(name));
            }
            out.push_str("}}");
        }
        out.push_str("]}");
        out
    }
}

#[derive(Debug, Default)]
struct Instruments {
    counters: BTreeMap<String, (String, Arc<Counter>)>,
    gauges: BTreeMap<String, (String, Arc<Gauge>, GaugeMerge)>,
    histograms: BTreeMap<String, (String, Arc<Histogram>)>,
    counter_families: BTreeMap<String, (String, Arc<CounterFamily>)>,
    gauge_families: BTreeMap<String, (String, Arc<GaugeFamily>)>,
    histogram_families: BTreeMap<String, (String, Arc<HistogramFamily>)>,
}

/// A named collection of instruments with Prometheus text rendering.
///
/// Registration is get-or-create by name, so independent components can
/// share one registry without coordination; handles are cheap `Arc`s
/// meant to be resolved once and kept.
#[derive(Debug, Default)]
pub struct Registry {
    instruments: Mutex<Instruments>,
    events: Arc<EventSink>,
    spans: Arc<SpanLog>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Instruments> {
        self.instruments.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.lock()
            .counters
            .entry(name.to_string())
            .or_insert_with(|| (help.to_string(), Arc::new(Counter::default())))
            .1
            .clone()
    }

    /// Get or create the gauge `name` (a level; merges by summing).
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_merged(name, help, GaugeMerge::Sum)
    }

    /// Get or create gauge `name` with an explicit merge mode. Use
    /// [`GaugeMerge::Max`] for config/process-level values shared by
    /// every member and shard, so cluster aggregation doesn't multiply
    /// them. The mode only applies on first creation; a later call with
    /// the same name returns the existing instrument.
    pub fn gauge_merged(&self, name: &str, help: &str, merge: GaugeMerge) -> Arc<Gauge> {
        self.lock()
            .gauges
            .entry(name.to_string())
            .or_insert_with(|| (help.to_string(), Arc::new(Gauge::default()), merge))
            .1
            .clone()
    }

    /// Get or create the latency histogram `name` (default 1µs–10s
    /// bucket ladder).
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.lock()
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| (help.to_string(), Arc::new(Histogram::default())))
            .1
            .clone()
    }

    /// Get or create histogram `name` with explicit bucket upper bounds
    /// (for non-latency quantities like batch sizes). The bounds only
    /// apply on first creation; a later call with the same name returns
    /// the existing instrument.
    pub fn histogram_with(&self, name: &str, help: &str, bounds: &[f64]) -> Arc<Histogram> {
        self.lock()
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| (help.to_string(), Arc::new(Histogram::new(bounds))))
            .1
            .clone()
    }

    /// Get or create the labeled counter family `name`.
    pub fn counter_family(&self, name: &str, help: &str) -> Arc<CounterFamily> {
        self.lock()
            .counter_families
            .entry(name.to_string())
            .or_insert_with(|| (help.to_string(), Arc::new(CounterFamily::default())))
            .1
            .clone()
    }

    /// Get or create the labeled gauge family `name`.
    pub fn gauge_family(&self, name: &str, help: &str) -> Arc<GaugeFamily> {
        self.lock()
            .gauge_families
            .entry(name.to_string())
            .or_insert_with(|| (help.to_string(), Arc::new(GaugeFamily::default())))
            .1
            .clone()
    }

    /// Get or create the labeled histogram family `name` (default
    /// 1µs–10s latency bucket ladder for every child).
    pub fn histogram_family(&self, name: &str, help: &str) -> Arc<HistogramFamily> {
        self.lock()
            .histogram_families
            .entry(name.to_string())
            .or_insert_with(|| (help.to_string(), Arc::new(HistogramFamily::default())))
            .1
            .clone()
    }

    /// Get or create histogram family `name` with explicit bucket upper
    /// bounds for its children. The bounds only apply on first creation.
    pub fn histogram_family_with(
        &self,
        name: &str,
        help: &str,
        bounds: &[f64],
    ) -> Arc<HistogramFamily> {
        self.lock()
            .histogram_families
            .entry(name.to_string())
            .or_insert_with(|| (help.to_string(), Arc::new(HistogramFamily::new(bounds))))
            .1
            .clone()
    }

    /// The registry's structured-event sink.
    pub fn events(&self) -> &EventSink {
        &self.events
    }

    /// A shareable handle to the event sink, for components that outlive
    /// a borrow of the registry (sequencer threads, kernels).
    pub fn events_handle(&self) -> Arc<EventSink> {
        self.events.clone()
    }

    /// The registry's span log (causal traces of the AGS pipeline).
    pub fn spans(&self) -> &SpanLog {
        &self.spans
    }

    /// A shareable handle to the span log.
    pub fn spans_handle(&self) -> Arc<SpanLog> {
        self.spans.clone()
    }

    /// A mergeable point-in-time copy of every instrument, including the
    /// ring self-metrics (`ftlinda_events_total`, span-drop counters).
    pub fn snapshot(&self) -> RegistrySnapshot {
        let ins = self.lock();
        let mut snap = RegistrySnapshot::default();
        for (name, (help, c)) in &ins.counters {
            snap.counters.insert(name.clone(), (help.clone(), c.get()));
        }
        for (name, (help, g, merge)) in &ins.gauges {
            snap.gauges
                .insert(name.clone(), (help.clone(), g.get(), *merge));
        }
        for (name, (help, h)) in &ins.histograms {
            snap.histograms
                .insert(name.clone(), (help.clone(), h.snapshot()));
        }
        for (name, (help, f)) in &ins.counter_families {
            snap.counter_families
                .insert(name.clone(), (help.clone(), f.snapshot()));
        }
        for (name, (help, f)) in &ins.gauge_families {
            snap.gauge_families
                .insert(name.clone(), (help.clone(), f.snapshot()));
        }
        for (name, (help, f)) in &ins.histogram_families {
            snap.histogram_families
                .insert(name.clone(), (help.clone(), f.snapshot()));
        }
        drop(ins);
        // Self-metrics: how much of the event/span history is intact.
        // Dropping old entries keeps the rings bounded, but the drop
        // itself must be visible to a scraper.
        for (name, help, v) in [
            (
                "ftlinda_events_total",
                "structured events emitted (including dropped)",
                self.events.total(),
            ),
            (
                "ftlinda_events_dropped_total",
                "structured events evicted from the bounded ring",
                self.events.dropped(),
            ),
            (
                "ftlinda_trace_spans_total",
                "trace spans recorded (including dropped)",
                self.spans.total(),
            ),
            (
                "ftlinda_trace_spans_dropped_total",
                "trace spans evicted from the bounded ring",
                self.spans.dropped(),
            ),
        ] {
            snap.counters.insert(name.into(), (help.into(), v));
        }
        snap
    }

    /// Render every instrument in the Prometheus text exposition format
    /// (`# HELP` / `# TYPE` headers, cumulative `_bucket{le=…}` series
    /// for histograms, `name{labels}` children for families).
    pub fn render(&self) -> String {
        self.snapshot().render()
    }
}

/// A point-in-time copy of a whole [`Registry`], decoupled from the live
/// instruments so it can be merged with other members' snapshots and
/// rendered as one cluster-scope Prometheus page.
///
/// Merge rules (per metric name): counters and counter-family children
/// sum; gauges merge per their registered [`GaugeMerge`] mode — levels
/// like tuple counts and queue depths aggregate additively across
/// replicas, while config/process-level gauges shared by every member
/// take the max so aggregation never multiplies them; gauge-family
/// children sum; histograms merge bucket-wise via
/// [`HistogramSnapshot::merge`], and a bucket-layout mismatch keeps the
/// first operand's histogram untouched. Help text is taken from
/// whichever snapshot registered the name first.
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    counters: BTreeMap<String, (String, u64)>,
    gauges: BTreeMap<String, (String, i64, GaugeMerge)>,
    histograms: BTreeMap<String, (String, HistogramSnapshot)>,
    counter_families: BTreeMap<String, (String, BTreeMap<String, u64>)>,
    gauge_families: BTreeMap<String, (String, BTreeMap<String, i64>)>,
    histogram_families: BTreeMap<String, (String, BTreeMap<String, HistogramSnapshot>)>,
}

impl RegistrySnapshot {
    /// Fold `other` into `self` under the merge rules above.
    pub fn merge(&mut self, other: &RegistrySnapshot) {
        for (name, (help, v)) in &other.counters {
            let e = self
                .counters
                .entry(name.clone())
                .or_insert_with(|| (help.clone(), 0));
            e.1 += v;
        }
        for (name, (help, v, merge)) in &other.gauges {
            match self.gauges.get_mut(name) {
                // The first operand's mode wins on disagreement (modes
                // only disagree across software versions).
                Some(e) => match e.2 {
                    GaugeMerge::Sum => e.1 += v,
                    GaugeMerge::Max => e.1 = e.1.max(*v),
                },
                None => {
                    self.gauges.insert(name.clone(), (help.clone(), *v, *merge));
                }
            }
        }
        for (name, (help, h)) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some((_, mine)) => {
                    // On layout mismatch keep ours; the per-member
                    // endpoints still expose the exact series.
                    let _ = mine.merge(h);
                }
                None => {
                    self.histograms
                        .insert(name.clone(), (help.clone(), h.clone()));
                }
            }
        }
        for (name, (help, children)) in &other.counter_families {
            self.add_counter_family(name, help, children.iter().map(|(l, v)| (l.clone(), *v)));
        }
        for (name, (help, children)) in &other.gauge_families {
            self.add_gauge_family(name, help, children.iter().map(|(l, v)| (l.clone(), *v)));
        }
        for (name, (help, children)) in &other.histogram_families {
            let e = self
                .histogram_families
                .entry(name.clone())
                .or_insert_with(|| (help.clone(), BTreeMap::new()));
            for (labels, h) in children {
                match e.1.get_mut(labels) {
                    // On layout mismatch keep ours, as for scalar
                    // histograms.
                    Some(mine) => {
                        let _ = mine.merge(h);
                    }
                    None => {
                        e.1.insert(labels.clone(), h.clone());
                    }
                }
            }
        }
    }

    /// Add `children` (rendered label string, value) to counter family
    /// `name`, declaring it with `help` if absent — for values read from
    /// their owner when scraped instead of kept in a [`Registry`].
    /// Children sum, as in [`Self::merge`].
    pub fn add_counter_family(
        &mut self,
        name: &str,
        help: &str,
        children: impl IntoIterator<Item = (String, u64)>,
    ) {
        let family = self
            .counter_families
            .entry(name.to_string())
            .or_insert_with(|| (help.to_string(), BTreeMap::new()));
        for (labels, v) in children {
            *family.1.entry(labels).or_insert(0) += v;
        }
    }

    /// [`Self::add_counter_family`] for a gauge family.
    pub fn add_gauge_family(
        &mut self,
        name: &str,
        help: &str,
        children: impl IntoIterator<Item = (String, i64)>,
    ) {
        let family = self
            .gauge_families
            .entry(name.to_string())
            .or_insert_with(|| (help.to_string(), BTreeMap::new()));
        for (labels, v) in children {
            *family.1.entry(labels).or_insert(0) += v;
        }
    }

    /// Value of plain counter `name`, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).map(|(_, v)| *v)
    }

    /// Level of plain gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.get(name).map(|(_, v, _)| *v)
    }

    /// Children of counter family `name` (rendered label string →
    /// value), if present.
    pub fn counter_family(&self, name: &str) -> Option<&BTreeMap<String, u64>> {
        self.counter_families.get(name).map(|(_, c)| c)
    }

    /// Children of gauge family `name` (rendered label string → level),
    /// if present.
    pub fn gauge_family(&self, name: &str) -> Option<&BTreeMap<String, i64>> {
        self.gauge_families.get(name).map(|(_, c)| c)
    }

    /// Snapshot of scalar histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.get(name).map(|(_, h)| h)
    }

    /// Children of histogram family `name` (rendered label string →
    /// snapshot), if present.
    pub fn histogram_family(&self, name: &str) -> Option<&BTreeMap<String, HistogramSnapshot>> {
        self.histogram_families.get(name).map(|(_, c)| c)
    }

    /// The bucket-wise merge of every child of histogram family `name` —
    /// the "all links together" view of a per-peer latency family.
    /// `None` when the family is absent or empty, or when children
    /// disagree on bucket layout.
    pub fn histogram_family_merged(&self, name: &str) -> Option<HistogramSnapshot> {
        let children = self.histogram_family(name)?;
        let mut iter = children.values();
        let mut merged = iter.next()?.clone();
        for h in iter {
            if !merged.merge(h) {
                return None;
            }
        }
        Some(merged)
    }

    /// Flatten selected series into `(name, value)` pairs for
    /// [`TimeSeriesRing`] sampling: every plain counter or gauge whose
    /// name appears in `scalars` (missing names are skipped, counters
    /// saturate at `i64::MAX`), plus every child of each family named in
    /// `families`, rendered as `name{labels}`.
    pub fn series(&self, scalars: &[&str], families: &[&str]) -> Vec<(String, i64)> {
        let mut out = Vec::new();
        for name in scalars {
            if let Some(v) = self.counter(name) {
                out.push((name.to_string(), i64::try_from(v).unwrap_or(i64::MAX)));
            } else if let Some(v) = self.gauge(name) {
                out.push((name.to_string(), v));
            }
        }
        for name in families {
            if let Some(children) = self.counter_family(name) {
                for (labels, v) in children {
                    out.push((
                        format!("{name}{{{labels}}}"),
                        i64::try_from(*v).unwrap_or(i64::MAX),
                    ));
                }
            }
            if let Some(children) = self.gauge_family(name) {
                for (labels, v) in children {
                    out.push((format!("{name}{{{labels}}}"), *v));
                }
            }
        }
        out
    }

    /// Prometheus text exposition of the snapshot.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, (help, v)) in &self.counters {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, (help, children)) in &self.counter_families {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} counter");
            for (labels, v) in children {
                let _ = writeln!(out, "{name}{{{labels}}} {v}");
            }
        }
        for (name, (help, v, _)) in &self.gauges {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {v}");
        }
        for (name, (help, children)) in &self.gauge_families {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} gauge");
            for (labels, v) in children {
                let _ = writeln!(out, "{name}{{{labels}}} {v}");
            }
        }
        for (name, (help, snap)) in &self.histograms {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cumulative = 0u64;
            for (i, n) in snap.buckets.iter().enumerate() {
                cumulative += n;
                match snap.bounds.get(i) {
                    Some(b) => {
                        let _ = writeln!(out, "{name}_bucket{{le=\"{b}\"}} {cumulative}");
                    }
                    None => {
                        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                    }
                }
            }
            let _ = writeln!(out, "{name}_sum {}", snap.sum_seconds);
            let _ = writeln!(out, "{name}_count {}", snap.count);
        }
        for (name, (help, children)) in &self.histogram_families {
            let _ = writeln!(out, "# HELP {name} {help}");
            let _ = writeln!(out, "# TYPE {name} histogram");
            for (labels, snap) in children {
                let mut cumulative = 0u64;
                for (i, n) in snap.buckets.iter().enumerate() {
                    cumulative += n;
                    match snap.bounds.get(i) {
                        Some(b) => {
                            let _ =
                                writeln!(out, "{name}_bucket{{{labels},le=\"{b}\"}} {cumulative}");
                        }
                        None => {
                            let _ =
                                writeln!(out, "{name}_bucket{{{labels},le=\"+Inf\"}} {cumulative}");
                        }
                    }
                }
                let _ = writeln!(out, "{name}_sum{{{labels}}} {}", snap.sum_seconds);
                let _ = writeln!(out, "{name}_count{{{labels}}} {}", snap.count);
            }
        }
        out
    }

    /// Serialize the snapshot as the tab-separated registry wire format:
    /// the transport-agnostic federation payload served on
    /// `/metrics/snapshot`. Unlike the Prometheus text form this carries
    /// gauge merge modes and exact histogram layouts, so a remote
    /// aggregator can fold members' snapshots with [`Self::merge`]
    /// under identical rules to the in-process path.
    ///
    /// Line 1 is `ftlsnap <version>`; each further line is one record,
    /// tagged by its first field: `c` counter, `g` gauge, `h` histogram,
    /// `cf`/`gf`/`hf` family declarations, `cc`/`gc`/`hc` family
    /// children. Strings are [`wire_escape`]d; `f64` values use Rust's
    /// shortest-roundtrip `Display` form.
    pub fn to_wire(&self) -> String {
        fn f64s(v: f64) -> String {
            // `Display` prints integral floats without a dot; keep the
            // value parseable as f64 either way.
            format!("{v}")
        }
        fn hist_fields(h: &HistogramSnapshot) -> String {
            let bounds = h
                .bounds
                .iter()
                .map(|b| f64s(*b))
                .collect::<Vec<_>>()
                .join(",");
            let buckets = h
                .buckets
                .iter()
                .map(u64::to_string)
                .collect::<Vec<_>>()
                .join(",");
            format!(
                "{}\t{}\t{}\t{}",
                h.count,
                f64s(h.sum_seconds),
                bounds,
                buckets
            )
        }
        let mut out = String::with_capacity(1024);
        out.push_str("ftlsnap\t1\n");
        for (name, (help, v)) in &self.counters {
            let _ = writeln!(out, "c\t{}\t{}\t{v}", wire_escape(name), wire_escape(help));
        }
        for (name, (help, v, merge)) in &self.gauges {
            let m = match merge {
                GaugeMerge::Sum => "sum",
                GaugeMerge::Max => "max",
            };
            let _ = writeln!(
                out,
                "g\t{}\t{}\t{v}\t{m}",
                wire_escape(name),
                wire_escape(help)
            );
        }
        for (name, (help, h)) in &self.histograms {
            let _ = writeln!(
                out,
                "h\t{}\t{}\t{}",
                wire_escape(name),
                wire_escape(help),
                hist_fields(h)
            );
        }
        for (name, (help, children)) in &self.counter_families {
            let _ = writeln!(out, "cf\t{}\t{}", wire_escape(name), wire_escape(help));
            for (labels, v) in children {
                let _ = writeln!(
                    out,
                    "cc\t{}\t{}\t{v}",
                    wire_escape(name),
                    wire_escape(labels)
                );
            }
        }
        for (name, (help, children)) in &self.gauge_families {
            let _ = writeln!(out, "gf\t{}\t{}", wire_escape(name), wire_escape(help));
            for (labels, v) in children {
                let _ = writeln!(
                    out,
                    "gc\t{}\t{}\t{v}",
                    wire_escape(name),
                    wire_escape(labels)
                );
            }
        }
        for (name, (help, children)) in &self.histogram_families {
            let _ = writeln!(out, "hf\t{}\t{}", wire_escape(name), wire_escape(help));
            for (labels, h) in children {
                let _ = writeln!(
                    out,
                    "hc\t{}\t{}\t{}",
                    wire_escape(name),
                    wire_escape(labels),
                    hist_fields(h)
                );
            }
        }
        out
    }

    /// Parse the registry wire format produced by [`Self::to_wire`].
    /// Structured errors, no panics — the input crossed a process
    /// boundary.
    pub fn from_wire(text: &str) -> Result<RegistrySnapshot, String> {
        fn parse_hist(parts: &[&str], ln: usize) -> Result<HistogramSnapshot, String> {
            if parts.len() != 4 {
                return Err(format!("line {ln}: histogram needs 4 value fields"));
            }
            let count: u64 = parts[0]
                .parse()
                .map_err(|e| format!("line {ln}: bad count: {e}"))?;
            let sum_seconds: f64 = parts[1]
                .parse()
                .map_err(|e| format!("line {ln}: bad sum: {e}"))?;
            let bounds: Vec<f64> = if parts[2].is_empty() {
                Vec::new()
            } else {
                parts[2]
                    .split(',')
                    .map(|b| b.parse().map_err(|e| format!("line {ln}: bad bound: {e}")))
                    .collect::<Result<_, _>>()?
            };
            let buckets: Vec<u64> = if parts[3].is_empty() {
                Vec::new()
            } else {
                parts[3]
                    .split(',')
                    .map(|b| b.parse().map_err(|e| format!("line {ln}: bad bucket: {e}")))
                    .collect::<Result<_, _>>()?
            };
            if buckets.len() != bounds.len() + 1 {
                return Err(format!(
                    "line {ln}: {} buckets for {} bounds",
                    buckets.len(),
                    bounds.len()
                ));
            }
            Ok(HistogramSnapshot {
                bounds,
                buckets,
                count,
                sum_seconds,
            })
        }
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or("empty snapshot wire payload")?;
        let mut hp = header.split('\t');
        if hp.next() != Some("ftlsnap") {
            return Err("missing ftlsnap header".into());
        }
        if hp.next() != Some("1") {
            return Err("unsupported snapshot wire version".into());
        }
        let mut snap = RegistrySnapshot::default();
        for (i, line) in lines {
            let ln = i + 1;
            if line.is_empty() {
                continue;
            }
            let parts: Vec<&str> = line.split('\t').collect();
            let need = |n: usize| -> Result<(), String> {
                if parts.len() != n {
                    Err(format!(
                        "line {ln}: expected {n} fields, got {}",
                        parts.len()
                    ))
                } else {
                    Ok(())
                }
            };
            match parts[0] {
                "c" => {
                    need(4)?;
                    let v: u64 = parts[3]
                        .parse()
                        .map_err(|e| format!("line {ln}: bad counter: {e}"))?;
                    snap.counters
                        .insert(wire_unescape(parts[1]), (wire_unescape(parts[2]), v));
                }
                "g" => {
                    need(5)?;
                    let v: i64 = parts[3]
                        .parse()
                        .map_err(|e| format!("line {ln}: bad gauge: {e}"))?;
                    let merge = match parts[4] {
                        "sum" => GaugeMerge::Sum,
                        "max" => GaugeMerge::Max,
                        other => return Err(format!("line {ln}: unknown merge mode {other:?}")),
                    };
                    snap.gauges
                        .insert(wire_unescape(parts[1]), (wire_unescape(parts[2]), v, merge));
                }
                "h" => {
                    if parts.len() != 7 {
                        return Err(format!("line {ln}: expected 7 fields"));
                    }
                    let h = parse_hist(&parts[3..], ln)?;
                    snap.histograms
                        .insert(wire_unescape(parts[1]), (wire_unescape(parts[2]), h));
                }
                "cf" => {
                    need(3)?;
                    snap.counter_families
                        .entry(wire_unescape(parts[1]))
                        .or_insert_with(|| (wire_unescape(parts[2]), BTreeMap::new()));
                }
                "cc" => {
                    need(4)?;
                    let v: u64 = parts[3]
                        .parse()
                        .map_err(|e| format!("line {ln}: bad counter child: {e}"))?;
                    snap.counter_families
                        .entry(wire_unescape(parts[1]))
                        .or_insert_with(|| (String::new(), BTreeMap::new()))
                        .1
                        .insert(wire_unescape(parts[2]), v);
                }
                "gf" => {
                    need(3)?;
                    snap.gauge_families
                        .entry(wire_unescape(parts[1]))
                        .or_insert_with(|| (wire_unescape(parts[2]), BTreeMap::new()));
                }
                "gc" => {
                    need(4)?;
                    let v: i64 = parts[3]
                        .parse()
                        .map_err(|e| format!("line {ln}: bad gauge child: {e}"))?;
                    snap.gauge_families
                        .entry(wire_unescape(parts[1]))
                        .or_insert_with(|| (String::new(), BTreeMap::new()))
                        .1
                        .insert(wire_unescape(parts[2]), v);
                }
                "hf" => {
                    need(3)?;
                    snap.histogram_families
                        .entry(wire_unescape(parts[1]))
                        .or_insert_with(|| (wire_unescape(parts[2]), BTreeMap::new()));
                }
                "hc" => {
                    if parts.len() != 7 {
                        return Err(format!("line {ln}: expected 7 fields"));
                    }
                    let h = parse_hist(&parts[3..], ln)?;
                    snap.histogram_families
                        .entry(wire_unescape(parts[1]))
                        .or_insert_with(|| (String::new(), BTreeMap::new()))
                        .1
                        .insert(wire_unescape(parts[2]), h);
                }
                other => return Err(format!("line {ln}: unknown record tag {other:?}")),
            }
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let r = Registry::new();
        let c = r.counter("reqs_total", "requests");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name → same instrument.
        assert_eq!(r.counter("reqs_total", "requests").get(), 5);
        let g = r.gauge("depth", "queue depth");
        g.set(7);
        g.add(-2);
        assert_eq!(g.get(), 5);
    }

    #[test]
    fn histogram_observe_and_quantiles() {
        let h = Histogram::default();
        assert!(h.snapshot().quantile(0.5).is_none());
        // 100 observations spread over 1ms..100ms.
        for i in 1..=100u64 {
            h.observe(Duration::from_millis(i));
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        let p50 = s.p50().unwrap();
        let p99 = s.p99().unwrap();
        assert!(p50 > 0.02 && p50 < 0.1, "p50 {p50} should be ~50ms");
        assert!(p99 >= p50, "quantiles are monotone");
        assert!(p99 <= 0.25, "p99 {p99} bounded by bucket edge");
        assert!(s.sum_seconds() > 5.0 && s.sum_seconds() < 5.1);
    }

    #[test]
    fn histogram_overflow_bucket() {
        let h = Histogram::new(&[0.001, 0.01]);
        h.observe(Duration::from_secs(5));
        let s = h.snapshot();
        assert_eq!(s.count(), 1);
        // Overflow quantile reports the last finite bound.
        assert_eq!(s.quantile(0.99), Some(0.01));
    }

    #[test]
    fn prometheus_rendering_shape() {
        let r = Registry::new();
        r.counter("a_total", "a counter").add(3);
        r.gauge("b_depth", "a gauge").set(-2);
        let h = r.histogram("lat_seconds", "a histogram");
        h.observe(Duration::from_micros(3));
        h.observe(Duration::from_millis(3));
        let text = r.render();
        assert!(text.contains("# TYPE a_total counter"));
        assert!(text.contains("a_total 3"));
        assert!(text.contains("b_depth -2"));
        assert!(text.contains("# TYPE lat_seconds histogram"));
        assert!(text.contains("lat_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("lat_seconds_count 2"));
        // Buckets are cumulative: the 5e-6 bucket already holds the 3µs obs.
        assert!(text.contains("lat_seconds_bucket{le=\"0.000005\"} 1"));
    }

    #[test]
    fn event_sink_ring_and_total() {
        let sink = EventSink::with_capacity(2);
        for i in 0..3 {
            sink.emit(Event::new("tick", vec![("i".into(), i.to_string())]));
        }
        assert_eq!(sink.total(), 3);
        let recent = sink.recent();
        assert_eq!(recent.len(), 2, "oldest dropped");
        assert_eq!(recent[0].field("i"), Some("1"));
        assert_eq!(sink.recent_of("tick").len(), 2);
        assert_eq!(sink.recent_of("other").len(), 0);
        assert_eq!(sink.dropped(), 1, "one eviction, counted");
    }

    #[test]
    fn event_sink_overflow_is_counted_and_filtered() {
        let sink = EventSink::with_capacity(4);
        for i in 0..10 {
            let kind = if i % 2 == 0 { "even" } else { "odd" };
            sink.emit(Event::new(kind, vec![("i".into(), i.to_string())]));
        }
        assert_eq!(sink.total(), 10);
        assert_eq!(sink.dropped(), 6);
        assert_eq!(sink.recent().len(), 4);
        // recent_of filters within the retained window only.
        let evens = sink.recent_of("even");
        assert_eq!(evens.len(), 2);
        assert_eq!(evens[0].field("i"), Some("6"));
        assert_eq!(evens[1].field("i"), Some("8"));
        assert!(sink.recent_of("missing").is_empty());
    }

    #[test]
    fn registry_renders_ring_self_metrics() {
        let r = Registry::new();
        for _ in 0..3 {
            r.events().emit(Event::new("e", vec![]));
        }
        r.spans().record(TraceId::new(0, 1), "apply", 0, &[]);
        let text = r.render();
        assert!(text.contains("# TYPE ftlinda_events_total counter"));
        assert!(text.contains("ftlinda_events_total 3"));
        assert!(text.contains("ftlinda_events_dropped_total 0"));
        assert!(text.contains("ftlinda_trace_spans_total 1"));
        assert!(text.contains("ftlinda_trace_spans_dropped_total 0"));
    }

    #[test]
    fn labeled_families_render_children() {
        let r = Registry::new();
        let f = r.counter_family("ops_total", "ops by kind");
        f.with(&[("kind", "in"), ("space", "0")]).add(3);
        f.with(&[("kind", "out"), ("space", "0")]).inc();
        // Same label set → same child.
        f.with(&[("kind", "in"), ("space", "0")]).inc();
        let g = r.gauge_family("depth", "depth by sig");
        g.with(&[("signature", "<str,int>")]).set(7);
        let text = r.render();
        assert!(text.contains("# TYPE ops_total counter"));
        assert!(text.contains("ops_total{kind=\"in\",space=\"0\"} 4"));
        assert!(text.contains("ops_total{kind=\"out\",space=\"0\"} 1"));
        assert!(text.contains("depth{signature=\"<str,int>\"} 7"));
    }

    #[test]
    fn label_values_are_escaped() {
        let rendered = render_labels(&[("k", "a\"b\\c\nd")]);
        assert_eq!(rendered, "k=\"a\\\"b\\\\c\\nd\"");
    }

    #[test]
    fn snapshot_merge_sums_everything() {
        let a = Registry::new();
        let b = Registry::new();
        a.counter("applied_total", "h").add(10);
        b.counter("applied_total", "h").add(5);
        a.gauge("blocked", "h").set(2);
        b.gauge("blocked", "h").set(3);
        a.histogram("lat", "h").observe(Duration::from_millis(1));
        b.histogram("lat", "h").observe(Duration::from_millis(2));
        b.counter("only_b_total", "h").add(7);
        a.counter_family("ts_tuples", "h")
            .with(&[("signature", "<int>")])
            .add(4);
        b.counter_family("ts_tuples", "h")
            .with(&[("signature", "<int>")])
            .add(6);
        b.counter_family("ts_tuples", "h")
            .with(&[("signature", "<str>")])
            .add(1);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.counter("applied_total"), Some(15));
        assert_eq!(merged.counter("only_b_total"), Some(7));
        assert_eq!(merged.gauge("blocked"), Some(5));
        let text = merged.render();
        assert!(text.contains("lat_count 2"));
        assert!(text.contains("ts_tuples{signature=\"<int>\"} 10"));
        assert!(text.contains("ts_tuples{signature=\"<str>\"} 1"));
    }

    #[test]
    fn config_gauges_merge_without_double_counting() {
        // Regression: `/metrics/cluster` merges one registry per shard
        // per member. A config-level gauge (same value everywhere, e.g.
        // ftlinda_batch_max_bytes) must survive the merge unchanged
        // instead of being multiplied by the registry count.
        let regs: Vec<Registry> = (0..6).map(|_| Registry::new()).collect();
        for r in &regs {
            r.gauge_merged("cfg_max_bytes", "h", GaugeMerge::Max)
                .set(512);
            r.gauge("depth", "h").set(3); // a real level still sums
        }
        let mut merged = regs[0].snapshot();
        for r in &regs[1..] {
            merged.merge(&r.snapshot());
        }
        assert_eq!(merged.gauge("cfg_max_bytes"), Some(512));
        assert_eq!(merged.gauge("depth"), Some(18));
        // Max-merge also tolerates a member that hasn't set the gauge
        // yet and degrades to "largest configured" on disagreement.
        let late = Registry::new();
        late.gauge_merged("cfg_max_bytes", "h", GaugeMerge::Max)
            .set(1024);
        merged.merge(&late.snapshot());
        assert_eq!(merged.gauge("cfg_max_bytes"), Some(1024));
    }

    #[test]
    fn time_series_ring_bounds_and_json() {
        let ring = TimeSeriesRing::with_capacity(2);
        assert!(ring.is_empty());
        for i in 0..3u64 {
            ring.push(TimePoint {
                at_micros: 100 + i,
                values: vec![("ftlinda_stable_tuples".into(), i as i64)],
            });
        }
        assert_eq!(ring.total(), 3);
        assert_eq!(ring.dropped(), 1, "oldest point evicted, counted");
        let recent = ring.recent();
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].at_micros, 101, "t=100 aged out");
        let j = ring.to_json();
        assert!(j.starts_with("{\"capacity\":2,\"total\":3,\"dropped\":1,"));
        assert!(j.contains("{\"at_us\":101,\"values\":{\"ftlinda_stable_tuples\":1}}"));
        assert!(j.contains("{\"at_us\":102,\"values\":{\"ftlinda_stable_tuples\":2}}"));
        assert!(!j.contains("\"at_us\":100"));
    }

    #[test]
    fn time_series_sample_stamps_wall_clock() {
        let ring = TimeSeriesRing::default();
        assert_eq!(ring.capacity(), 512);
        let before = now_micros();
        ring.sample(vec![("g".into(), -4)]);
        let p = &ring.recent()[0];
        assert!(p.at_micros >= before);
        assert_eq!(p.values, vec![("g".to_string(), -4)]);
    }

    #[test]
    fn snapshot_series_flattens_scalars_and_families() {
        let r = Registry::new();
        r.counter("applied_total", "h").add(9);
        r.gauge("blocked", "h").set(-2);
        r.gauge_family("ftlinda_shard_tuples", "h")
            .with(&[("shard", "0")])
            .set(5);
        r.counter_family("ftlinda_xcommit_aborts_total", "h")
            .with(&[("cause", "body_failure"), ("shard", "1")])
            .add(3);
        let snap = r.snapshot();
        let series = snap.series(
            &["applied_total", "blocked", "missing"],
            &[
                "ftlinda_shard_tuples",
                "ftlinda_xcommit_aborts_total",
                "nope",
            ],
        );
        assert_eq!(
            series,
            vec![
                ("applied_total".to_string(), 9),
                ("blocked".to_string(), -2),
                ("ftlinda_shard_tuples{shard=\"0\"}".to_string(), 5),
                (
                    "ftlinda_xcommit_aborts_total{cause=\"body_failure\",shard=\"1\"}".to_string(),
                    3
                ),
            ]
        );
    }

    #[test]
    fn histogram_family_children_render_and_merge() {
        let r = Registry::new();
        let f = r.histogram_family("rtt_seconds", "wire RTT by peer");
        f.with(&[("peer", "1")]).observe(Duration::from_millis(1));
        f.with(&[("peer", "1")]).observe(Duration::from_millis(2));
        f.with(&[("peer", "2")]).observe(Duration::from_micros(10));
        let text = r.render();
        assert!(text.contains("# TYPE rtt_seconds histogram"));
        assert!(text.contains("rtt_seconds_bucket{peer=\"1\",le=\"+Inf\"} 2"));
        assert!(text.contains("rtt_seconds_count{peer=\"1\"} 2"));
        assert!(text.contains("rtt_seconds_count{peer=\"2\"} 1"));
        // Merging two registries sums children bucket-wise.
        let r2 = Registry::new();
        r2.histogram_family("rtt_seconds", "wire RTT by peer")
            .with(&[("peer", "1")])
            .observe(Duration::from_millis(5));
        let mut merged = r.snapshot();
        merged.merge(&r2.snapshot());
        let children = merged.histogram_family("rtt_seconds").unwrap();
        assert_eq!(children["peer=\"1\""].count(), 3);
        assert_eq!(children["peer=\"2\""].count(), 1);
        // The all-peers merge folds every child together.
        let all = merged.histogram_family_merged("rtt_seconds").unwrap();
        assert_eq!(all.count(), 4);
        assert!(merged.histogram_family_merged("missing").is_none());
    }

    #[test]
    fn snapshot_wire_roundtrip() {
        let r = Registry::new();
        r.counter("reqs_total", "help with\ttab").add(7);
        r.gauge("depth", "a level").set(-3);
        r.gauge_merged("cfg", "shared config", GaugeMerge::Max)
            .set(512);
        r.histogram("lat_seconds", "latency")
            .observe(Duration::from_millis(2));
        r.counter_family("ops_total", "ops")
            .with(&[("kind", "in")])
            .add(4);
        r.gauge_family("ftlinda_shard_tuples", "tuples")
            .with(&[("shard", "0")])
            .set(9);
        r.histogram_family("rtt_seconds", "rtt")
            .with(&[("peer", "1")])
            .observe(Duration::from_micros(30));
        // An empty family must survive the trip too.
        r.counter_family("empty_total", "no children yet");
        let snap = r.snapshot();
        let wire = snap.to_wire();
        let back = RegistrySnapshot::from_wire(&wire).expect("parse");
        assert_eq!(back.counter("reqs_total"), Some(7));
        assert_eq!(back.gauge("depth"), Some(-3));
        assert_eq!(back.gauge("cfg"), Some(512));
        assert_eq!(back.histogram("lat_seconds").unwrap().count(), 1);
        assert_eq!(back.counter_family("ops_total").unwrap()["kind=\"in\""], 4);
        assert!(back.counter_family("empty_total").unwrap().is_empty());
        assert_eq!(
            back.histogram_family("rtt_seconds").unwrap()["peer=\"1\""].count(),
            1
        );
        // The parsed snapshot renders the identical Prometheus page and
        // re-serializes to the identical wire form.
        assert_eq!(back.render(), snap.render());
        assert_eq!(back.to_wire(), wire);
        // Merge modes survive: folding the parsed snapshot into itself
        // sums levels but not max-merged config gauges.
        let mut folded = back.clone();
        folded.merge(&back);
        assert_eq!(folded.gauge("depth"), Some(-6));
        assert_eq!(folded.gauge("cfg"), Some(512));
        assert_eq!(folded.counter("reqs_total"), Some(14));
    }

    #[test]
    fn snapshot_wire_rejects_malformed_input() {
        assert!(RegistrySnapshot::from_wire("").is_err());
        assert!(RegistrySnapshot::from_wire("nonsense\t1\n").is_err());
        assert!(RegistrySnapshot::from_wire("ftlsnap\t9\n").is_err());
        assert!(RegistrySnapshot::from_wire("ftlsnap\t1\nc\tx\th").is_err());
        assert!(RegistrySnapshot::from_wire("ftlsnap\t1\nc\tx\th\tNaN").is_err());
        assert!(RegistrySnapshot::from_wire("ftlsnap\t1\ng\tx\th\t1\tavg").is_err());
        assert!(RegistrySnapshot::from_wire("ftlsnap\t1\nzz\tx").is_err());
        // Histogram bucket/bound arity mismatch is rejected.
        assert!(RegistrySnapshot::from_wire("ftlsnap\t1\nh\tx\th\t1\t0.5\t0.1\t1,2,3").is_err());
    }

    #[test]
    fn concurrent_observations() {
        let r = Arc::new(Registry::new());
        let h = r.histogram("h", "");
        let c = r.counter("c", "");
        let hs: Vec<_> = (0..4)
            .map(|_| {
                let (h, c) = (h.clone(), c.clone());
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        h.observe(Duration::from_micros(10));
                        c.inc();
                    }
                })
            })
            .collect();
        for t in hs {
            t.join().unwrap();
        }
        assert_eq!(c.get(), 4000);
        assert_eq!(h.count(), 4000);
    }
}
