//! Causal tracing for the AGS pipeline.
//!
//! Every submitted AGS already carries a globally unique identity on the
//! wire: the `(origin host, local sequence)` pair that Consul uses for
//! duplicate suppression. [`TraceId`] is exactly that pair, so tracing
//! adds **zero bytes** to the wire format — each pipeline stage just
//! records a timestamped [`SpanRecord`] into its member-local
//! [`SpanLog`], and a cross-replica span tree is assembled after the
//! fact by collecting records for one id from every member's log
//! ([`TraceTree::assemble`]).
//!
//! The canonical stage vocabulary (in causal order):
//!
//! | stage      | where                            | meaning                              |
//! |------------|----------------------------------|--------------------------------------|
//! | `submit`   | origin runtime                   | AGS handed to the local Consul member|
//! | `flush`    | coordinator sequencer            | left the batch / solo broadcast      |
//! | `deliver`  | every member                     | appended to the ordered log          |
//! | `apply`    | every kernel                     | executed against stable TS state     |
//! | `block`    | every kernel                     | guard not satisfiable yet            |
//! | `wake`     | every kernel                     | blocked guard fired on a later AGS   |
//! | `complete` | origin runtime                   | completion routed to the waiter      |
//!
//! Cross-shard commits get their own stage vocabulary, recorded under a
//! **transaction trace id** derived from the commit's `xid` (already on
//! the wire in every XLock/XExec/XRelease record — see
//! [`TraceId::for_xid`]). Each span carries a `shard` field, so the
//! assembled tree splits into per-shard lanes
//! ([`TraceTree::shard_lane`]):
//!
//! | stage       | where                 | meaning                                   |
//! |-------------|-----------------------|-------------------------------------------|
//! | `xbegin`    | origin runtime        | one commit attempt started                |
//! | `xlock`     | every kernel          | shard frozen for this xid                 |
//! | `lock_wait` | every kernel          | a delivery queued behind a shard lock     |
//! | `xexec`     | every kernel          | AGS body ran at the home shard            |
//! | `xrelease`  | every kernel          | shard unfrozen, buffered traffic replayed |
//! | `xabort`    | kernel or origin      | attempt rolled back (`cause` field)       |
//! | `xcommit`   | origin runtime        | the transaction fired                     |
//!
//! Timestamps are microseconds since `UNIX_EPOCH`: wall-clock, so they
//! are comparable across members of the simulated cluster (one process)
//! and merely *approximately* comparable across real machines — which is
//! all latency attribution needs.

use std::collections::VecDeque;
use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// The identity of one AGS as it flows through the pipeline: the origin
/// member's numeric host id plus the submit-order sequence the origin
/// assigned. Already carried by every `Record`/`BatchEntry` on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId {
    /// Numeric id of the submitting host.
    pub origin: u32,
    /// Origin-local submission sequence number.
    pub local: u64,
}

impl TraceId {
    /// Build a trace id from its two wire components.
    pub fn new(origin: u32, local: u64) -> Self {
        TraceId { origin, local }
    }

    /// The transaction trace id of one cross-shard commit attempt,
    /// derived from its `xid` — `(origin_host << 48) | attempt_counter`,
    /// already carried by every XLock/XExec/XRelease record, so tracing
    /// the commit adds **zero wire bytes**. Bit 63 of `local` marks the
    /// id as an xcommit trace: real broadcast local ids use per-shard
    /// bases of `shard << 48`, which never reach bit 63, so the derived
    /// ids cannot collide with ordinary AGS traces.
    pub fn for_xid(xid: u64) -> Self {
        TraceId {
            origin: (xid >> 48) as u32,
            local: (1u64 << 63) | (xid & 0x0000_ffff_ffff_ffff),
        }
    }

    /// Whether this id was derived from a cross-shard commit `xid`.
    pub fn is_xcommit(&self) -> bool {
        self.local >> 63 == 1
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.origin, self.local)
    }
}

/// Error parsing a [`TraceId`] from its `origin-local` text form.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseTraceIdError;

impl fmt::Display for ParseTraceIdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace id must look like `<origin>-<local>`, e.g. `1-42`")
    }
}

impl std::error::Error for ParseTraceIdError {}

impl FromStr for TraceId {
    type Err = ParseTraceIdError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (o, l) = s.split_once('-').ok_or(ParseTraceIdError)?;
        Ok(TraceId {
            origin: o.trim().parse().map_err(|_| ParseTraceIdError)?,
            local: l.trim().parse().map_err(|_| ParseTraceIdError)?,
        })
    }
}

/// Microseconds since `UNIX_EPOCH`, the timestamp base for spans.
pub fn now_micros() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// One timestamped stage event for one AGS on one member.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Which AGS this span belongs to.
    pub trace: TraceId,
    /// Stage name (see the module table for the canonical vocabulary).
    pub stage: String,
    /// Numeric id of the host that recorded the span.
    pub host: u32,
    /// Microseconds since `UNIX_EPOCH` at which the stage happened.
    pub at_micros: u64,
    /// Ordered key/value detail (e.g. `seq`, `batch`, `queued_us`).
    pub fields: Vec<(String, String)>,
}

impl SpanRecord {
    /// Value of the first field named `key`, if present.
    pub fn field(&self, key: &str) -> Option<&str> {
        self.fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Append this span's `ftlspans` line, without a newline, to `out`.
    fn write_wire_line(&self, out: &mut String) {
        let fields = self
            .fields
            .iter()
            .map(|(k, v)| (k.as_str(), v as &dyn fmt::Display));
        write_span_line(
            out,
            self.trace,
            &self.stage,
            self.host,
            self.at_micros,
            fields,
        );
    }
}

/// Causal rank of a stage name; used only to break timestamp ties when
/// sorting an assembled tree. Unknown stages sort last.
fn stage_rank(stage: &str) -> u8 {
    match stage {
        "submit" => 0,
        "flush" => 1,
        "deliver" => 2,
        "apply" => 3,
        "block" => 4,
        "wake" => 5,
        "complete" => 6,
        // Cross-shard commit stages, causally after the ordinary
        // pipeline: an xcommit trace never mixes with AGS stages, but
        // ranking both vocabularies keeps ties deterministic anywhere.
        "xbegin" => 7,
        "xlock" => 8,
        "lock_wait" => 9,
        "xexec" => 10,
        "xrelease" => 11,
        "xabort" => 12,
        "xcommit" => 13,
        _ => 14,
    }
}

/// A bounded ring of recent spans, one per member.
///
/// Each span is kept as its `ftlspans` wire line (see [`spans_wire`]),
/// so recording one costs a single allocation; [`SpanLog::recent`] and
/// [`SpanLog::spans_of`] decode lines back into [`SpanRecord`]s at the
/// HTTP and flight-dump edge. Like [`EventSink`](crate::EventSink) this
/// never blocks the pipeline: when full, the oldest span is dropped and
/// a counter records the loss.
#[derive(Debug)]
pub struct SpanLog {
    /// `(trace, at_micros, line)`: trace and timestamp are kept beside
    /// the line so filtering and eviction need no parsing.
    buf: Mutex<VecDeque<(TraceId, u64, Box<str>)>>,
    cap: usize,
    total: AtomicU64,
    dropped: AtomicU64,
    /// Timestamp of the newest span ever evicted: everything at or
    /// before this instant may be missing from the ring, so a trace
    /// whose spans start at or before it cannot be trusted complete.
    evicted_newest: AtomicU64,
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::with_capacity(8192)
    }
}

impl SpanLog {
    /// A log retaining at most `cap` recent spans.
    pub fn with_capacity(cap: usize) -> Self {
        SpanLog {
            buf: Mutex::new(VecDeque::with_capacity(cap.min(64))),
            cap: cap.max(1),
            total: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            evicted_newest: AtomicU64::new(0),
        }
    }

    /// Record a span, stamping it with the current time. `fields` are
    /// ordered key/value detail (e.g. `seq`, `batch`, `queued_us`).
    pub fn record(
        &self,
        trace: TraceId,
        stage: &str,
        host: u32,
        fields: &[(&str, &dyn fmt::Display)],
    ) {
        self.record_at(trace, stage, host, now_micros(), fields);
    }

    /// Record a span that happened at `at_micros` (µs since
    /// `UNIX_EPOCH`), for a stage timed before its trace id was known.
    pub fn record_at(
        &self,
        trace: TraceId,
        stage: &str,
        host: u32,
        at_micros: u64,
        fields: &[(&str, &dyn fmt::Display)],
    ) {
        // Room for the four numeric columns and a 20-digit value per
        // field, so the line is written without regrowing; `store`
        // trims the slack.
        let guess = 64 + stage.len() + fields.iter().map(|(k, _)| k.len() + 22).sum::<usize>();
        let mut line = String::with_capacity(guess);
        write_span_line(
            &mut line,
            trace,
            stage,
            host,
            at_micros,
            fields.iter().copied(),
        );
        self.store(trace, at_micros, line);
    }

    /// Record a pre-built span (for tests or replay).
    pub fn push(&self, span: SpanRecord) {
        let mut line = String::new();
        span.write_wire_line(&mut line);
        self.store(span.trace, span.at_micros, line);
    }

    fn store(&self, trace: TraceId, at_micros: u64, line: String) {
        let line = line.into_boxed_str();
        self.total.fetch_add(1, Ordering::Relaxed);
        let mut buf = self.buf.lock().unwrap_or_else(|e| e.into_inner());
        if buf.len() == self.cap {
            if let Some((_, evicted_at, _)) = buf.pop_front() {
                self.dropped.fetch_add(1, Ordering::Relaxed);
                self.evicted_newest.fetch_max(evicted_at, Ordering::Relaxed);
            }
        }
        buf.push_back((trace, at_micros, line));
    }

    /// Copies of the retained lines for which `keep` holds, oldest
    /// first, decoded outside the lock.
    fn decoded(&self, keep: impl Fn(TraceId) -> bool) -> Vec<SpanRecord> {
        let lines: Vec<Box<str>> = self
            .buf
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .filter(|(trace, _, _)| keep(*trace))
            .map(|(_, _, line)| line.clone())
            .collect();
        lines
            .iter()
            .map(|line| parse_span_line(line).expect("a line encoded by this log parses"))
            .collect()
    }

    /// Copy of the retained spans, oldest first.
    pub fn recent(&self) -> Vec<SpanRecord> {
        self.decoded(|_| true)
    }

    /// Retained spans belonging to one trace, oldest first.
    pub fn spans_of(&self, trace: TraceId) -> Vec<SpanRecord> {
        self.decoded(|t| t == trace)
    }

    /// Total spans ever recorded (including dropped ones).
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Spans evicted from the ring because it was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Timestamp (µs since `UNIX_EPOCH`) of the newest span ever evicted,
    /// or `None` when nothing was ever dropped. Spans recorded at or
    /// before this instant may be missing from the ring.
    pub fn evicted_newest_micros(&self) -> Option<u64> {
        if self.dropped() == 0 {
            None
        } else {
            Some(self.evicted_newest.load(Ordering::Relaxed))
        }
    }
}

/// A cross-replica span tree for one AGS: every member's spans for one
/// [`TraceId`], merged and causally sorted.
#[derive(Debug, Clone)]
pub struct TraceTree {
    /// The AGS this tree describes.
    pub trace: TraceId,
    /// All collected spans, sorted by `(at_micros, stage rank, host)`.
    pub spans: Vec<SpanRecord>,
    /// Whether any contributing span ring may have aged out spans of this
    /// trace (see [`TraceTree::mark_truncation`]). A truncated tree is
    /// incomplete because of ring eviction, not because the pipeline
    /// failed to run a stage.
    pub truncated: bool,
    /// Hosts whose span logs could not be collected at all — a federated
    /// assembly marks every unreachable live member here
    /// ([`TraceTree::mark_host_truncated`]), so "this member's exporter
    /// was down" is distinguishable from "the pipeline skipped a stage".
    pub truncated_hosts: Vec<u32>,
}

impl TraceTree {
    /// Merge spans collected from any number of member logs into one
    /// causally sorted tree. Spans for other traces are ignored.
    pub fn assemble<I: IntoIterator<Item = SpanRecord>>(trace: TraceId, spans: I) -> Self {
        let mut spans: Vec<SpanRecord> = spans.into_iter().filter(|s| s.trace == trace).collect();
        spans.sort_by(|a, b| {
            (a.at_micros, stage_rank(&a.stage), a.host).cmp(&(
                b.at_micros,
                stage_rank(&b.stage),
                b.host,
            ))
        });
        TraceTree {
            trace,
            spans,
            truncated: false,
            truncated_hosts: Vec::new(),
        }
    }

    /// Record that `host`'s span log could not be collected (e.g. its
    /// exporter was unreachable during a federated assembly). The tree is
    /// marked truncated and the host appears in `truncated_hosts`.
    pub fn mark_host_truncated(&mut self, host: u32) {
        self.truncated = true;
        if !self.truncated_hosts.contains(&host) {
            self.truncated_hosts.push(host);
            self.truncated_hosts.sort_unstable();
        }
    }

    /// Mark the tree truncated when any contributing [`SpanLog`]'s
    /// evictions could have eaten spans of this trace. `logs` yields each
    /// log's [`SpanLog::evicted_newest_micros`]. The tree is truncated if
    /// some log evicted spans and either (a) this tree is empty — the
    /// trace may have existed and aged out entirely — or (b) the eviction
    /// horizon reaches this tree's earliest retained span.
    pub fn mark_truncation<I: IntoIterator<Item = Option<u64>>>(&mut self, logs: I) {
        let earliest = self.spans.first().map(|s| s.at_micros);
        for horizon in logs.into_iter().flatten() {
            match earliest {
                None => {
                    self.truncated = true;
                    return;
                }
                Some(at) if horizon >= at => {
                    self.truncated = true;
                    return;
                }
                Some(_) => {}
            }
        }
    }

    /// Hosts that recorded the given stage.
    pub fn hosts_with(&self, stage: &str) -> Vec<u32> {
        let mut hosts: Vec<u32> = self
            .spans
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| s.host)
            .collect();
        hosts.sort_unstable();
        hosts.dedup();
        hosts
    }

    /// Whether `host` recorded `stage`.
    pub fn has(&self, stage: &str, host: u32) -> bool {
        self.spans
            .iter()
            .any(|s| s.stage == stage && s.host == host)
    }

    /// Whether the tree forms a complete chain: `submit` on the origin,
    /// `flush` at the (coordinator) sequencer, `deliver` + `apply` on
    /// every host in `hosts`, and — if the AGS ever blocked — a matching
    /// `wake` on each host that recorded the `block`.
    pub fn is_complete(&self, hosts: &[u32]) -> bool {
        if !self.has("submit", self.trace.origin) {
            return false;
        }
        if self.hosts_with("flush").is_empty() {
            return false;
        }
        for &h in hosts {
            if !self.has("deliver", h) || !self.has("apply", h) {
                return false;
            }
            if self.has("block", h) && !self.has("wake", h) {
                return false;
            }
        }
        true
    }

    /// First timestamp of `stage` anywhere in the tree, if recorded.
    pub fn first_at(&self, stage: &str) -> Option<u64> {
        self.spans
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| s.at_micros)
            .min()
    }

    /// Microseconds between the first occurrences of two stages, when
    /// both are present and in order. The per-stage latency attribution
    /// the experiments consume: e.g. `between("submit", "flush")` is the
    /// batch queueing delay seen by this AGS.
    pub fn between(&self, from: &str, to: &str) -> Option<u64> {
        let a = self.first_at(from)?;
        let b = self.first_at(to)?;
        b.checked_sub(a)
    }

    /// Shards that recorded any span (distinct numeric `shard` field
    /// values), ascending. Empty for ordinary single-shard AGS traces
    /// whose spans carry no `shard` field.
    pub fn shards(&self) -> Vec<u32> {
        let mut shards: Vec<u32> = self
            .spans
            .iter()
            .filter_map(|s| s.field("shard").and_then(|v| v.parse().ok()))
            .collect();
        shards.sort_unstable();
        shards.dedup();
        shards
    }

    /// The per-shard lane of a cross-shard commit trace: every span
    /// whose `shard` field equals `shard`, in tree (causal) order.
    pub fn shard_lane(&self, shard: u32) -> Vec<&SpanRecord> {
        let want = shard.to_string();
        self.spans
            .iter()
            .filter(|s| s.field("shard") == Some(want.as_str()))
            .collect()
    }

    /// First timestamp of `stage` on the `shard` lane, if recorded.
    pub fn first_at_on_shard(&self, stage: &str, shard: u32) -> Option<u64> {
        let want = shard.to_string();
        self.spans
            .iter()
            .filter(|s| s.stage == stage && s.field("shard") == Some(want.as_str()))
            .map(|s| s.at_micros)
            .min()
    }

    /// Microseconds between the first occurrences of two stages on one
    /// shard lane — per-shard latency attribution for cross-shard
    /// commits: e.g. `between_on_shard("xlock", "xrelease", s)` is how
    /// long shard `s` stayed frozen for this transaction.
    pub fn between_on_shard(&self, from: &str, to: &str, shard: u32) -> Option<u64> {
        let a = self.first_at_on_shard(from, shard)?;
        let b = self.first_at_on_shard(to, shard)?;
        b.checked_sub(a)
    }

    /// Render the tree as a JSON object (hand-rolled; the build has no
    /// serde): `{"trace":"1-7","complete_hosts":[...],"spans":[...]}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.spans.len() * 96);
        out.push_str("{\"trace\":\"");
        out.push_str(&self.trace.to_string());
        out.push_str("\",\"span_count\":");
        out.push_str(&self.spans.len().to_string());
        out.push_str(",\"truncated\":");
        out.push_str(if self.truncated { "true" } else { "false" });
        out.push_str(",\"truncated_hosts\":[");
        for (i, h) in self.truncated_hosts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&h.to_string());
        }
        out.push_str("],\"shards\":[");
        for (i, s) in self.shards().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&s.to_string());
        }
        out.push_str("],\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&span_json(s));
        }
        out.push_str("]}");
        out
    }
}

/// Render one span as a JSON object.
pub fn span_json(s: &SpanRecord) -> String {
    let mut out = String::with_capacity(96);
    out.push_str("{\"stage\":\"");
    out.push_str(&json_escape(&s.stage));
    out.push_str("\",\"host\":");
    out.push_str(&s.host.to_string());
    out.push_str(",\"trace\":\"");
    out.push_str(&s.trace.to_string());
    out.push_str("\",\"at_us\":");
    out.push_str(&s.at_micros.to_string());
    out.push_str(",\"fields\":{");
    for (i, (k, v)) in s.fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        out.push_str(&json_escape(k));
        out.push_str("\":\"");
        out.push_str(&json_escape(v));
        out.push('"');
    }
    out.push_str("}}");
    out
}

/// Escape a string for one field of the tab-separated wire formats
/// (span shipping and registry-snapshot federation): `\` → `\\`,
/// tab → `\t`, newline → `\n`, CR → `\r`.
pub fn wire_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    push_wire_escaped(&mut out, s);
    out
}

fn push_wire_escaped(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
}

/// [`fmt::Write`] adapter that [`wire_escape`]s whatever is written.
struct WireEscaped<'a>(&'a mut String);

impl fmt::Write for WireEscaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        push_wire_escaped(self.0, s);
        Ok(())
    }
}

/// Inverse of [`wire_escape`]. Unknown escapes pass the escaped
/// character through; a trailing lone `\` is dropped.
pub fn wire_unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('t') => out.push('\t'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some(c) => out.push(c),
            None => {}
        }
    }
    out
}

/// Append one span's line of the span wire format, without a newline:
/// `origin <TAB> local <TAB> stage <TAB> host <TAB> at_us
/// [<TAB> key <TAB> value]…` with every string field [`wire_escape`]d.
fn write_span_line<'a>(
    out: &mut String,
    trace: TraceId,
    stage: &str,
    host: u32,
    at_micros: u64,
    fields: impl IntoIterator<Item = (&'a str, &'a dyn fmt::Display)>,
) {
    use fmt::Write as _;
    // Writing into a `String` cannot fail.
    let _ = write!(out, "{}\t{}\t", trace.origin, trace.local);
    push_wire_escaped(out, stage);
    let _ = write!(out, "\t{host}\t{at_micros}");
    for (k, v) in fields {
        out.push('\t');
        push_wire_escaped(out, k);
        out.push('\t');
        let _ = write!(WireEscaped(out), "{v}");
    }
}

/// Serialize spans plus the owning log's eviction horizon as the
/// tab-separated span wire format — the payload a member's `/spans/<id>`
/// endpoint serves so a federated assembler can merge remote spans
/// without a JSON parser. Line 1 is the header
/// `ftlspans <version> <horizon µs | ->`; each further line is one span,
/// `origin <TAB> local <TAB> stage <TAB> host <TAB> at_us
/// [<TAB> key <TAB> value]…` with every string field [`wire_escape`]d.
pub fn spans_wire(spans: &[SpanRecord], horizon: Option<u64>) -> String {
    let mut out = String::with_capacity(32 + spans.len() * 96);
    out.push_str("ftlspans\t1\t");
    match horizon {
        Some(h) => out.push_str(&h.to_string()),
        None => out.push('-'),
    }
    out.push('\n');
    for s in spans {
        s.write_wire_line(&mut out);
        out.push('\n');
    }
    out
}

/// Parse the span wire format produced by [`spans_wire`]. Returns the
/// spans and the sending log's eviction horizon. Structured errors, no
/// panics — the input crossed a process boundary.
pub fn parse_spans_wire(text: &str) -> Result<(Vec<SpanRecord>, Option<u64>), String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty span wire payload")?;
    let mut hp = header.split('\t');
    if hp.next() != Some("ftlspans") {
        return Err("missing ftlspans header".into());
    }
    if hp.next() != Some("1") {
        return Err("unsupported span wire version".into());
    }
    let horizon = match hp.next() {
        Some("-") => None,
        Some(h) => Some(h.parse::<u64>().map_err(|e| format!("bad horizon: {e}"))?),
        None => return Err("truncated ftlspans header".into()),
    };
    let mut spans = Vec::new();
    for (ln, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        spans.push(parse_span_line(line).map_err(|e| format!("span line {}: {e}", ln + 2))?);
    }
    Ok((spans, horizon))
}

/// Parse one span line of the wire format.
fn parse_span_line(line: &str) -> Result<SpanRecord, String> {
    let parts: Vec<&str> = line.split('\t').collect();
    if parts.len() < 5 || !(parts.len() - 5).is_multiple_of(2) {
        return Err("wrong field count".into());
    }
    let parse_u64 = |s: &str, what: &str| -> Result<u64, String> {
        s.parse::<u64>().map_err(|e| format!("bad {what}: {e}"))
    };
    let origin = u32::try_from(parse_u64(parts[0], "origin")?).map_err(|_| "origin overflow")?;
    let local = parse_u64(parts[1], "local")?;
    let host = u32::try_from(parse_u64(parts[3], "host")?).map_err(|_| "host overflow")?;
    let at_micros = parse_u64(parts[4], "at_us")?;
    let fields = parts[5..]
        .chunks(2)
        .map(|kv| (wire_unescape(kv[0]), wire_unescape(kv[1])))
        .collect();
    Ok(SpanRecord {
        trace: TraceId::new(origin, local),
        stage: wire_unescape(parts[2]),
        host,
        at_micros,
        fields,
    })
}

/// Escape a string for embedding inside a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(trace: TraceId, stage: &str, host: u32, at: u64) -> SpanRecord {
        SpanRecord {
            trace,
            stage: stage.into(),
            host,
            at_micros: at,
            fields: vec![],
        }
    }

    #[test]
    fn trace_id_roundtrip() {
        let id = TraceId::new(3, 17);
        assert_eq!(id.to_string(), "3-17");
        assert_eq!("3-17".parse::<TraceId>().unwrap(), id);
        assert!("nonsense".parse::<TraceId>().is_err());
        assert!("1-".parse::<TraceId>().is_err());
        assert!("-2".parse::<TraceId>().is_err());
    }

    #[test]
    fn span_log_ring_and_drop_counter() {
        let log = SpanLog::with_capacity(2);
        let id = TraceId::new(0, 1);
        for i in 0..3 {
            log.push(span(id, "apply", i, i as u64));
        }
        assert_eq!(log.total(), 3);
        assert_eq!(log.dropped(), 1);
        let recent = log.recent();
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].host, 1, "oldest evicted");
        assert_eq!(log.spans_of(id).len(), 2);
        assert_eq!(log.spans_of(TraceId::new(9, 9)).len(), 0);
    }

    #[test]
    fn tree_assembly_sorts_and_checks_completeness() {
        let id = TraceId::new(1, 5);
        let spans = vec![
            span(id, "apply", 0, 40),
            span(id, "deliver", 0, 30),
            span(id, "submit", 1, 10),
            span(id, "flush", 0, 20),
            span(id, "deliver", 1, 30),
            span(id, "apply", 1, 40),
            // Same-timestamp tie broken by causal stage rank.
            span(TraceId::new(2, 2), "apply", 0, 1), // other trace: ignored
        ];
        let tree = TraceTree::assemble(id, spans);
        assert_eq!(tree.spans.len(), 6);
        assert_eq!(tree.spans[0].stage, "submit");
        assert!(tree.is_complete(&[0, 1]));
        assert!(!tree.is_complete(&[0, 1, 2]), "host 2 never applied");
        assert_eq!(tree.between("submit", "flush"), Some(10));
        assert_eq!(tree.between("flush", "apply"), Some(20));
        assert_eq!(tree.hosts_with("apply"), vec![0, 1]);
    }

    #[test]
    fn blocked_without_wake_is_incomplete() {
        let id = TraceId::new(0, 1);
        let mut spans = vec![
            span(id, "submit", 0, 1),
            span(id, "flush", 0, 2),
            span(id, "deliver", 0, 3),
            span(id, "apply", 0, 4),
            span(id, "block", 0, 4),
        ];
        let tree = TraceTree::assemble(id, spans.clone());
        assert!(!tree.is_complete(&[0]), "blocked but never woke");
        spans.push(span(id, "wake", 0, 9));
        assert!(TraceTree::assemble(id, spans).is_complete(&[0]));
    }

    #[test]
    fn eviction_horizon_tracks_newest_dropped_span() {
        let log = SpanLog::with_capacity(2);
        let id = TraceId::new(0, 1);
        assert_eq!(log.evicted_newest_micros(), None);
        log.push(span(id, "submit", 0, 10));
        log.push(span(id, "flush", 0, 20));
        assert_eq!(log.evicted_newest_micros(), None, "nothing evicted yet");
        log.push(span(id, "deliver", 0, 30)); // evicts the t=10 span
        assert_eq!(log.evicted_newest_micros(), Some(10));
        log.push(span(id, "apply", 0, 40)); // evicts the t=20 span
        assert_eq!(log.evicted_newest_micros(), Some(20));
    }

    #[test]
    fn truncation_marking_rules() {
        let id = TraceId::new(0, 7);
        // No evictions anywhere → not truncated.
        let mut tree = TraceTree::assemble(id, vec![span(id, "apply", 0, 100)]);
        tree.mark_truncation(vec![None, None]);
        assert!(!tree.truncated);
        // Horizon strictly before our earliest span → still intact.
        let mut tree = TraceTree::assemble(id, vec![span(id, "apply", 0, 100)]);
        tree.mark_truncation(vec![Some(99)]);
        assert!(!tree.truncated);
        // Horizon reaching our earliest span → spans may be missing.
        let mut tree = TraceTree::assemble(id, vec![span(id, "apply", 0, 100)]);
        tree.mark_truncation(vec![Some(100)]);
        assert!(tree.truncated);
        // Empty tree + any eviction → can't tell unknown from aged-out.
        let mut tree = TraceTree::assemble(id, vec![]);
        tree.mark_truncation(vec![None, Some(5)]);
        assert!(tree.truncated);
        assert!(tree.to_json().contains("\"truncated\":true"));
    }

    fn shard_span(trace: TraceId, stage: &str, host: u32, at: u64, shard: u32) -> SpanRecord {
        let mut s = span(trace, stage, host, at);
        s.fields.push(("shard".into(), shard.to_string()));
        s
    }

    #[test]
    fn xid_trace_ids_never_collide_with_broadcast_ids() {
        let xid = (7u64 << 48) | 42;
        let id = TraceId::for_xid(xid);
        assert_eq!(id.origin, 7);
        assert_eq!(id.local, (1 << 63) | 42);
        assert!(id.is_xcommit());
        // Round-trips through the text form served by /trace/<id>.
        assert_eq!(id.to_string().parse::<TraceId>().unwrap(), id);
        // Ordinary broadcast local ids (per-shard base = shard << 48,
        // shard < 2^15) never set bit 63.
        let broadcast = TraceId::new(7, (3u64 << 48) | 42);
        assert!(!broadcast.is_xcommit());
        assert_ne!(id, broadcast);
    }

    #[test]
    fn shard_lanes_split_a_cross_shard_trace() {
        let id = TraceId::for_xid(2 << 48);
        let spans = vec![
            span(id, "xbegin", 2, 5), // origin span: no shard lane
            shard_span(id, "xlock", 0, 10, 0),
            shard_span(id, "xlock", 0, 20, 1),
            shard_span(id, "xexec", 1, 30, 0),
            shard_span(id, "xrelease", 0, 40, 0),
            shard_span(id, "xrelease", 1, 55, 1),
            span(id, "xcommit", 2, 60),
        ];
        let tree = TraceTree::assemble(id, spans);
        assert_eq!(tree.shards(), vec![0, 1]);
        let lane0: Vec<&str> = tree
            .shard_lane(0)
            .iter()
            .map(|s| s.stage.as_str())
            .collect();
        assert_eq!(lane0, vec!["xlock", "xexec", "xrelease"]);
        assert_eq!(tree.shard_lane(1).len(), 2);
        assert!(tree.shard_lane(9).is_empty());
        assert_eq!(tree.first_at_on_shard("xlock", 1), Some(20));
        assert_eq!(tree.between_on_shard("xlock", "xrelease", 0), Some(30));
        assert_eq!(tree.between_on_shard("xlock", "xrelease", 1), Some(35));
        assert_eq!(tree.between_on_shard("xlock", "xexec", 1), None);
        let j = tree.to_json();
        assert!(j.contains("\"shards\":[0,1]"));
    }

    #[test]
    fn xcommit_stage_ranks_break_timestamp_ties() {
        let id = TraceId::for_xid(0);
        let spans = vec![
            shard_span(id, "xrelease", 0, 7, 0),
            shard_span(id, "xexec", 0, 7, 0),
            shard_span(id, "xlock", 0, 7, 0),
            span(id, "xbegin", 0, 7),
        ];
        let tree = TraceTree::assemble(id, spans);
        let order: Vec<&str> = tree.spans.iter().map(|s| s.stage.as_str()).collect();
        assert_eq!(order, vec!["xbegin", "xlock", "xexec", "xrelease"]);
    }

    #[test]
    fn host_truncation_is_listed_and_rendered() {
        let id = TraceId::for_xid(1 << 48);
        let mut tree = TraceTree::assemble(id, vec![span(id, "xbegin", 1, 5)]);
        assert!(!tree.truncated);
        assert!(tree.to_json().contains("\"truncated_hosts\":[]"));
        tree.mark_host_truncated(2);
        tree.mark_host_truncated(0);
        tree.mark_host_truncated(2); // idempotent
        assert!(tree.truncated);
        assert_eq!(tree.truncated_hosts, vec![0, 2]);
        assert!(tree.to_json().contains("\"truncated\":true"));
        assert!(tree.to_json().contains("\"truncated_hosts\":[0,2]"));
    }

    #[test]
    fn span_wire_roundtrip() {
        let id = TraceId::for_xid((3u64 << 48) | 9);
        let mut s1 = span(id, "xlock", 1, 100);
        s1.fields.push(("shard".into(), "0".into()));
        s1.fields
            .push(("note".into(), "tab\there\nand\\slash".into()));
        let s2 = span(id, "xcommit", 3, 200);
        let text = spans_wire(&[s1.clone(), s2.clone()], Some(42));
        let (back, horizon) = parse_spans_wire(&text).expect("parse");
        assert_eq!(horizon, Some(42));
        assert_eq!(back, vec![s1, s2]);
        // No horizon → `-` marker.
        let text = spans_wire(&[], None);
        let (back, horizon) = parse_spans_wire(&text).expect("parse empty");
        assert!(back.is_empty());
        assert_eq!(horizon, None);
    }

    /// The ring keeps wire lines, yet reads back exactly the records a
    /// ring of `SpanRecord`s held, and serves the same `/spans/<id>`
    /// bytes, escapes included.
    #[test]
    fn span_ring_reads_back_recorded_spans() {
        let log = SpanLog::with_capacity(3);
        let id = TraceId::new(1, 7);
        let note = "tab\there\nand\\slash";
        let before = now_micros();
        log.record(id, "deliver", 0, &[("seq", &12u64), ("note", &note)]);
        let after = now_micros();
        log.record_at(id, "submit", 1, 5, &[("kind", &"ags")]);
        log.record_at(TraceId::new(2, 1), "apply", 2, 6, &[]);

        let recent = log.recent();
        let at = recent[0].at_micros;
        assert!(
            (before..=after).contains(&at),
            "record stamps the current time"
        );
        let deliver = SpanRecord {
            trace: id,
            stage: "deliver".into(),
            host: 0,
            at_micros: at,
            fields: vec![("seq".into(), "12".into()), ("note".into(), note.into())],
        };
        let submit = SpanRecord {
            trace: id,
            stage: "submit".into(),
            host: 1,
            at_micros: 5,
            fields: vec![("kind".into(), "ags".into())],
        };
        let other = span(TraceId::new(2, 1), "apply", 2, 6);
        assert_eq!(recent, vec![deliver.clone(), submit.clone(), other]);
        assert_eq!(log.spans_of(id), vec![deliver.clone(), submit.clone()]);

        let body = spans_wire(&log.spans_of(id), log.evicted_newest_micros());
        assert_eq!(body, spans_wire(&[deliver, submit], None));
        assert_eq!(
            body,
            format!(
                "ftlspans\t1\t-\n\
                 1\t7\tdeliver\t0\t{at}\tseq\t12\tnote\ttab\\there\\nand\\\\slash\n\
                 1\t7\tsubmit\t1\t5\tkind\tags\n"
            )
        );

        // A fourth span evicts the oldest, and the horizon moves to it.
        log.record_at(id, "apply", 0, 9, &[]);
        assert_eq!(log.total(), 4);
        assert_eq!(log.dropped(), 1);
        assert_eq!(log.evicted_newest_micros(), Some(at));
        let body = spans_wire(&log.spans_of(id), log.evicted_newest_micros());
        assert_eq!(
            body,
            format!("ftlspans\t1\t{at}\n1\t7\tsubmit\t1\t5\tkind\tags\n1\t7\tapply\t0\t9\n")
        );
    }

    #[test]
    fn span_wire_rejects_malformed_input() {
        assert!(parse_spans_wire("").is_err());
        assert!(parse_spans_wire("nonsense\t1\t-").is_err());
        assert!(parse_spans_wire("ftlspans\t9\t-").is_err(), "bad version");
        assert!(parse_spans_wire("ftlspans\t1\tnotanum").is_err());
        // Wrong field count and non-numeric fields error, never panic.
        assert!(parse_spans_wire("ftlspans\t1\t-\n1\t2\tstage").is_err());
        assert!(parse_spans_wire("ftlspans\t1\t-\n1\t2\tstage\t0\t5\tk").is_err());
        assert!(parse_spans_wire("ftlspans\t1\t-\nx\t2\tstage\t0\t5").is_err());
    }

    #[test]
    fn wire_escape_roundtrip() {
        for s in ["plain", "with\ttab", "with\nnewline", "back\\slash", "\r"] {
            assert_eq!(wire_unescape(&wire_escape(s)), s);
            let escaped = wire_escape(s);
            assert!(!escaped.contains('\t') && !escaped.contains('\n'));
        }
    }

    #[test]
    fn json_rendering_escapes() {
        let mut s = span(TraceId::new(0, 1), "apply", 2, 7);
        s.fields.push(("note".into(), "a\"b\\c\nd".into()));
        let j = span_json(&s);
        assert!(j.contains("\"stage\":\"apply\""));
        assert!(j.contains("\"host\":2"));
        assert!(j.contains("\"at_us\":7"));
        assert!(j.contains("a\\\"b\\\\c\\nd"));
        let tree = TraceTree::assemble(TraceId::new(0, 1), vec![s]);
        let tj = tree.to_json();
        assert!(tj.starts_with("{\"trace\":\"0-1\""));
        assert!(tj.contains("\"span_count\":1"));
    }
}
