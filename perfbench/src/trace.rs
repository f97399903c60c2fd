//! Benchmark-side spans and the client's op log.
//!
//! Spans are recorded in memory by the benchmark around its own calls
//! into the program (client ops, fault events, replay calls) and written
//! out as JSON lines when the run ends. Nothing inside the program is
//! instrumented for the benchmark.

use crate::stats::OpTime;
use std::io::Write;
use std::time::Instant;

/// One span. Times are nanoseconds from the start of the timed phase (for
/// replays, from the start of the replay).
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// What was timed.
    pub name: &'static str,
    /// Identifier; spans of one op share it.
    pub id: u64,
    /// Identifier of the causing span (0: none).
    pub parent: u64,
    /// Start, ns.
    pub start: u64,
    /// End, ns.
    pub end: u64,
}

/// Length of the alternating slices of a traced run: ops issued in even
/// slices record spans, ops in odd slices do not, and the latency gap
/// between the two is the tracing overhead.
pub const TRACE_SLICE_NS: u64 = 250_000_000;

/// Everything the client observed in the timed phase.
#[derive(Debug)]
pub struct ClientLog {
    /// Start of the timed phase.
    pub t0: Instant,
    /// Whether span recording is on for this run.
    pub trace: bool,
    /// Completed ops.
    pub ops: Vec<OpTime>,
    /// Latency of every AGS call the client made, ns (an op is one AGS
    /// except in `tcp_pingpong`, where it is two).
    pub ags_ns: Vec<u64>,
    /// Ops issued.
    pub attempted: u64,
    /// Ops that returned an error or timed out.
    pub failed: u64,
    /// Recorded spans.
    pub spans: Vec<Span>,
}

impl ClientLog {
    /// An empty log whose clock started at `t0`.
    pub fn new_at(t0: Instant, trace: bool) -> ClientLog {
        ClientLog {
            t0,
            trace,
            ops: Vec::with_capacity(1 << 16),
            ags_ns: Vec::with_capacity(1 << 16),
            attempted: 0,
            failed: 0,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the start of the timed phase.
    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Whether an op issued at `start` records spans.
    pub fn traced_at(&self, start: u64) -> bool {
        self.trace && (start / TRACE_SLICE_NS).is_multiple_of(2)
    }

    /// Record a completed op issued at `start`.
    pub fn complete(&mut self, start: u64, end: u64) {
        let id = self.ops.len() as u64 + 1;
        self.ops.push(OpTime { start, end });
        if self.traced_at(start) {
            self.spans.push(Span {
                name: "op",
                id,
                parent: 0,
                start,
                end,
            });
        }
    }

    /// Record one AGS call inside the op issued at `op_start`.
    pub fn ags(&mut self, name: &'static str, op_start: u64, start: u64, end: u64) {
        self.ags_ns.push(end - start);
        if self.traced_at(op_start) {
            self.spans.push(Span {
                name,
                id: self.ops.len() as u64 + 1,
                parent: self.ops.len() as u64 + 1,
                start,
                end,
            });
        }
    }

    /// Record a failed op.
    pub fn fail(&mut self) {
        self.failed += 1;
    }
}

/// Write spans as JSON lines to `path` (parent directories created).
pub fn write_spans(path: &std::path::Path, groups: &[(String, &[Span])]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (source, spans) in groups {
        for s in *spans {
            writeln!(
                out,
                "{{\"source\":\"{source}\",\"name\":\"{}\",\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.parent, s.start, s.end
            )?;
        }
    }
    out.flush()
}
