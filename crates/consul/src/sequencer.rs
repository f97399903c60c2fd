//! Fixed-sequencer atomic multicast with coordinator failover.
//!
//! This is the workhorse total-order protocol of the reproduction (the
//! paper's Consul used Psync-based ordering; a sequencer gives the same
//! interface guarantees — total order, view changes ordered with
//! messages — with a simpler protocol whose costs are easy to account).
//!
//! Normal operation: a member submits `(local_id, payload)` to the
//! coordinator, which assigns the next global sequence number and
//! multicasts the ordered record to all members. Members deliver records
//! in contiguous sequence order.
//!
//! Failure handling (fail-silent crashes). A failure detector only
//! delivers verdicts — `CrashNotice` from the Sim oracle, heartbeat
//! silence, or a `JoinReq` carrying an incarnation nonce not yet seen
//! from that host — and every verdict runs through the same `on_crash`:
//!
//! * **Coordinator crash** — the lowest-id live member becomes
//!   coordinator-elect, queries every live member for its log suffix
//!   (`SyncQuery`/`SyncReply`), merges the collected records (per-link
//!   FIFO guarantees each member holds a contiguous prefix, so the
//!   longest is a superset), then resumes assignment and emits an ordered
//!   `Fail` record for the dead coordinator. Members resubmit their
//!   unacked broadcasts to the new coordinator; duplicate submissions are
//!   detected by `(origin, local)` and answered with a retransmission
//!   instead of a second sequence number, so delivery is exactly-once.
//! * **Member crash** — the coordinator emits an ordered `Fail` record
//!   (deduplicated per incarnation against the log); a coordinator that
//!   finishes an election sync orders one for every host it does not
//!   count live, so a `Fail` its dead predecessor never ordered is not
//!   lost.
//! * **Gaps** — a member receiving a record beyond its contiguous prefix
//!   NACKs the coordinator, which retransmits from its complete log. A
//!   lost tail of the stream leaves no later record to show the gap, so
//!   every `Ping` also carries its sender's contiguous `last_seq`: a
//!   member behind its coordinator's ping NACKs too, once per ping.
//! * **Restart** — the rejoining host broadcasts `JoinReq` (with retry);
//!   the coordinator replies with a `Snapshot` — the latest installed
//!   state checkpoint plus only the log tail past it (or the full log
//!   when checkpointing is off) — and, while the host's `Fail` stands,
//!   emits an ordered `Join` record. That record is how every other
//!   member learns the host is back.
//!
//! Checkpointing and log compaction ([`CheckpointConfig`]): the
//! coordinator periodically emits an ordered `Checkpoint` marker, so
//! every replica snapshots its state machine at the identical sequence
//! number and hands the image back via
//! [`SeqMember::install_checkpoint`], which truncates the log behind the
//! `log_base` watermark. Rejoin then costs O(state) + O(tail) instead of
//! O(history), per-member log memory is bounded by the marker interval,
//! duplicate suppression below the watermark moves from the per-record
//! `assigned` map to a compact per-origin `retired` watermark, and a
//! NACK for a compacted sequence number is answered with a full
//! snapshot instead of a retransmission.
//!
//! The protocol itself is a pure core, `State`: it performs no I/O and
//! reads no clock. Its inputs — a peer message or detector verdict, a
//! timer tick, a local submit — take the time from the caller, and its
//! sends and deliveries queue as outputs. Two callers run it under the
//! member's lock and pass the outputs on in the order they were made:
//! the member's `seq-` thread, for inbox events and timers, and
//! [`SeqMember::broadcast`], for submits. The delivery stream ends when
//! the `seq-` thread exits.

use crate::net::{Heartbeat, HostId, NetConfig, NetEvent, SimNet, WireSized};
use crate::order::{BatchEntry, CheckpointImage, Delivery, LocalId, Record, RecordBody};
use crate::stats::OrderStats;
use crate::tcp::TcpLane;
use crate::transport::SeqNet;
use bytes::Bytes;
use crossbeam::channel::RecvTimeoutError;
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Group-commit tuning for the coordinator's submit path.
///
/// The flush policy is adaptive: a submit that arrives while the
/// coordinator has been idle for at least `window` is multicast
/// immediately (zero added latency for sequential workloads), while
/// submits arriving faster than one per `window` are coalesced into a
/// single [`RecordBody::Batch`] multicast, flushed when the window
/// deadline passes or the batch reaches `max_entries`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchConfig {
    /// Coalescing window. `Duration::ZERO` disables batching entirely:
    /// every submit is multicast as a solo record, byte-for-byte the
    /// pre-batching wire protocol.
    pub window: Duration,
    /// Flush as soon as this many submits have coalesced, even if the
    /// window has not yet expired.
    pub max_entries: usize,
    /// Flush as soon as the coalesced payload bytes reach this size,
    /// even if neither the window nor `max_entries` has been hit —
    /// bounding the wire size of one ordered multicast. `0` disables
    /// the byte trigger. The active threshold is exported as the
    /// `ftlinda_batch_max_bytes` gauge.
    pub max_bytes: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            window: Duration::from_micros(100),
            max_entries: 64,
            max_bytes: 256 * 1024,
        }
    }
}

impl BatchConfig {
    /// Batching off: wire-compatible with the pre-batching protocol.
    pub fn disabled() -> Self {
        BatchConfig {
            window: Duration::ZERO,
            max_entries: 1,
            max_bytes: 0,
        }
    }

    /// Whether the coordinator coalesces at all.
    pub fn enabled(&self) -> bool {
        self.window > Duration::ZERO
    }
}

/// Checkpoint and log-compaction tuning.
///
/// With checkpointing enabled the coordinator inserts a
/// [`RecordBody::Checkpoint`] marker into the total order roughly every
/// `every` records. The application snapshots its state machine when the
/// marker is delivered and installs the image back into its member
/// ([`SeqMember::install_checkpoint`]), which truncates the ordered log
/// up to the marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointConfig {
    /// Emit a checkpoint marker after this many ordered records since
    /// the previous marker. `0` disables checkpointing entirely — the
    /// pre-checkpoint wire protocol, where joiners replay the full log.
    pub every: u64,
}

impl Default for CheckpointConfig {
    fn default() -> Self {
        CheckpointConfig { every: 512 }
    }
}

impl CheckpointConfig {
    /// Checkpointing off: wire-compatible with the pre-checkpoint
    /// protocol (no markers, full-log snapshots, unbounded log).
    pub fn disabled() -> Self {
        CheckpointConfig { every: 0 }
    }

    /// Whether the coordinator emits markers at all.
    pub fn enabled(&self) -> bool {
        self.every > 0
    }
}

/// Protocol messages of the sequencer group.
#[derive(Debug, Clone, PartialEq)]
pub enum SeqMsg {
    /// Origin → coordinator: please order this payload.
    Submit {
        /// Origin-local broadcast id.
        local: LocalId,
        /// Payload bytes.
        payload: Bytes,
    },
    /// Coordinator → members: record with its global sequence number.
    Ordered(Record),
    /// Coordinator-elect → members: send me your log after `have`.
    SyncQuery {
        /// Length of the elect's contiguous log.
        have: u64,
    },
    /// Member → coordinator-elect: the requested suffix. When the elect
    /// is behind the replier's compaction watermark (`have < log_base`),
    /// the reply carries the replier's checkpoint (plus the state that
    /// must survive compaction) and its whole retained log.
    SyncReply {
        /// State checkpoint, present only when the elect's log cannot be
        /// extended to the replier's by records alone.
        checkpoint: Option<CheckpointImage>,
        /// Per-origin highest local id among compacted `App` records
        /// (duplicate suppression below the watermark).
        retired: Vec<(HostId, LocalId)>,
        /// Hosts with a compacted `Fail` record not yet superseded by a
        /// `Join`.
        failed: Vec<HostId>,
        /// Records with `seq > have` held by the replying member.
        records: Vec<Record>,
    },
    /// Member → coordinator: my log is contiguous up to `from - 1`,
    /// retransmit from `from`.
    Nack {
        /// First missing sequence number.
        from: u64,
    },
    /// Coordinator → member: gap repair.
    Retransmit {
        /// The missing records.
        records: Vec<Record>,
    },
    /// Restarted host → all: let me back in. The incarnation nonce is
    /// drawn once per process. A member that still counts the host live
    /// and has not seen this nonce from it takes the request as a crash
    /// verdict about the host's previous incarnation; a repeated nonce is
    /// a retry, which the coordinator answers with the snapshot alone.
    JoinReq {
        /// Per-process random nonce identifying this incarnation.
        incarnation: u64,
    },
    /// Heartbeat (only in heartbeat-detection mode), carrying the RTT
    /// piggyback: each ping states when it left the sender and echoes
    /// the newest ping received from the destination, so the receiver
    /// can compute the link round-trip against its **own** clock —
    /// `rtt = now - echo_us - held_us` — with no cross-host clock
    /// comparison and zero extra messages.
    Ping {
        /// Sender's `now_micros()` at send time.
        sent_us: u64,
        /// `sent_us` of the newest ping received *from the destination*
        /// (0 when none has arrived yet — no sample).
        echo_us: u64,
        /// Microseconds the sender held that ping before echoing it
        /// (receipt → this send), subtracted out of the RTT.
        held_us: u64,
        /// The sender's contiguous `last_seq`. A member that has
        /// delivered less than its coordinator says NACKs it.
        seq: u64,
    },
    /// Coordinator → joiner (or → a member that fell behind the
    /// compaction watermark): state checkpoint plus the log tail past
    /// it. With checkpointing off, `checkpoint` is `None` and `tail` is
    /// the complete log — the classic full-replay snapshot.
    Snapshot {
        /// The coordinator's latest installed checkpoint, if any.
        checkpoint: Option<CheckpointImage>,
        /// Per-origin highest local id among compacted `App` records.
        retired: Vec<(HostId, LocalId)>,
        /// Hosts with a `Fail` record not superseded by a `Join` (the
        /// receiver cannot reconstruct this from a truncated log).
        failed: Vec<HostId>,
        /// Records past the checkpoint (the full log if none).
        tail: Vec<Record>,
        /// Coordinator's current live set.
        live: Vec<HostId>,
    },
    /// Coordinator → a host it has ordered a `Fail` record for, sent in
    /// response to any traffic from that host. The (falsely) suspected
    /// member is alive but has been removed from the recipient set: it
    /// must not resume mid-stream with a stale cursor. On receipt it
    /// drops out of the group, fails its in-flight broadcasts, and
    /// re-enters through the ordinary JoinReq → Snapshot rejoin path.
    Evicted,
}

impl WireSized for SeqMsg {
    fn wire_size(&self) -> usize {
        match self {
            SeqMsg::Submit { payload, .. } => 1 + 8 + payload.len(),
            SeqMsg::Ordered(r) => 1 + r.wire_size(),
            SeqMsg::SyncQuery { .. } => 9,
            SeqMsg::SyncReply {
                checkpoint,
                retired,
                failed,
                records,
            } => {
                1 + checkpoint.as_ref().map_or(0, CheckpointImage::wire_size)
                    + retired.len() * 12
                    + failed.len() * 4
                    + records.iter().map(Record::wire_size).sum::<usize>()
            }
            SeqMsg::Nack { .. } => 9,
            SeqMsg::Retransmit { records } => {
                1 + records.iter().map(Record::wire_size).sum::<usize>()
            }
            SeqMsg::JoinReq { .. } => 9,
            SeqMsg::Ping { .. } => 1 + 29,
            SeqMsg::Evicted => 1,
            SeqMsg::Snapshot {
                checkpoint,
                retired,
                failed,
                tail,
                live,
            } => {
                1 + checkpoint.as_ref().map_or(0, CheckpointImage::wire_size)
                    + retired.len() * 12
                    + failed.len() * 4
                    + tail.iter().map(Record::wire_size).sum::<usize>()
                    + live.len() * 4
            }
        }
    }
}

/// What [`State`] asks its caller to do. Outputs queue in the order the
/// state decided them; passing them on in that order keeps every link
/// FIFO and the delivery stream in sequence order.
enum Output {
    /// Point-to-point send.
    Send(HostId, SeqMsg),
    /// One message to each of several hosts.
    Multicast(Vec<HostId>, SeqMsg),
    /// The next entry of the member's delivery stream.
    Deliver(Delivery),
}

/// The full per-member protocol state machine, free of I/O: its inputs
/// ([`State::on_event`], [`State::on_timers`], [`State::submit`]) take
/// the time from their caller, and it queues its sends and deliveries
/// in `out` instead of performing them. Its callers hold the member's
/// lock.
struct State {
    me: HostId,
    universe: Vec<HostId>,
    live: BTreeSet<HostId>,
    coord: HostId,
    joined: bool,

    /// Outputs its caller has not taken yet.
    out: Vec<Output>,
    /// The caller's clock for the input being handled.
    now: Instant,
    stats: Arc<OrderStats>,
    /// Broadcast → total-order self-delivery latency (the "order" stage
    /// of the AGS lifecycle).
    order_hist: Arc<linda_obs::Histogram>,
    /// Submission instants of this member's own in-flight broadcasts.
    broadcast_at: HashMap<LocalId, Instant>,
    /// Causal-trace span ring ("flush" at the coordinator, "deliver" on
    /// every member), shared with the member's registry.
    spans: Arc<linda_obs::SpanLog>,
    /// Structured-event sink (coordinator failover notices).
    events: Arc<linda_obs::EventSink>,

    // Member side. The retained log holds sequences
    // `log_base + 1 ..= log_base + log.len()`; everything at or below
    // `log_base` has been compacted behind the installed checkpoint.
    log: Vec<Record>,
    log_base: u64,
    /// Latest installed state checkpoint. Invariant: when present its
    /// `seq >= log_base`, so checkpoint + retained tail always covers
    /// the full history — a snapshot can never be older than the
    /// compaction watermark.
    checkpoint: Option<CheckpointImage>,
    /// Per-origin highest local id among compacted `App` records. A
    /// submission at or below this watermark is a duplicate of a record
    /// that no longer exists solo — it is answered with a snapshot.
    retired: HashMap<HostId, LocalId>,
    ckpt_cfg: CheckpointConfig,
    buffer: BTreeMap<u64, Record>,
    pending_submits: BTreeMap<LocalId, Bytes>,
    next_local: LocalId,
    nacked_for: Option<u64>,
    /// Hosts with a `Fail` record not yet superseded by a `Join` record.
    failed_recorded: BTreeSet<HostId>,
    /// Leak accounting for `broadcast_at`: every insert and remove is
    /// counted, and the append path asserts the map size matches.
    ba_inserts: u64,
    ba_removes: u64,

    // Coordinator side.
    coord_synced: bool,
    next_seq: u64,
    assigned: HashMap<(HostId, LocalId), u64>,
    /// Seq of the last checkpoint marker this coordinator knows of.
    last_marker: u64,
    recipients: BTreeSet<HostId>,
    sync_waiting: BTreeSet<HostId>,
    sync_records: BTreeMap<u64, Record>,
    /// Best checkpoint offered by a `SyncReply` (highest seq wins),
    /// with the compaction-surviving state that rides along.
    sync_checkpoint: Option<CheckpointImage>,
    sync_retired: Vec<(HostId, LocalId)>,
    sync_failed: Vec<HostId>,
    buffered_submits: Vec<(HostId, LocalId, Bytes)>,
    buffered_nacks: Vec<(HostId, u64)>,
    pending_fails: BTreeSet<HostId>,
    pending_joins: BTreeSet<HostId>,

    // Group commit (coordinator only). Entries in `batch` already hold
    // assigned sequence numbers `batch_first .. batch_first + len`; they
    // are multicast (and only then logged) when the batch flushes, at
    // the latest at `last_flush + window`.
    batch_cfg: BatchConfig,
    batch: Vec<BatchEntry>,
    /// Enqueue instants parallel to `batch` (kept out of [`BatchEntry`],
    /// which is a wire struct) for per-entry queueing-delay spans; the
    /// first is when the batch opened.
    batch_enqueued: Vec<Instant>,
    /// Payload bytes coalesced in the open batch (size-based trigger).
    batch_bytes: usize,
    batch_first: u64,
    last_flush: Instant,
    batch_size_hist: Arc<linda_obs::Histogram>,
    batch_flush_hist: Arc<linda_obs::Histogram>,

    // Heartbeat failure detection (None = oracle notices from SimNet).
    hb: Option<Heartbeat>,
    last_heard: HashMap<HostId, Instant>,
    last_ping: Instant,
    /// Newest ping received per peer: its `sent_us` plus when it
    /// arrived, echoed back on our next heartbeat (RTT piggyback).
    ping_rx: HashMap<HostId, (u64, Instant)>,
    /// Per-peer wire round-trip latency (`ftlinda_net_rtt_seconds`),
    /// fed by the heartbeat echo path.
    rtt_hist: Arc<linda_obs::HistogramFamily>,
    // While `!joined` the member multicasts JoinReq rounds on the
    // schedule of `join_round`. This is how a restarted Sim member, a
    // TCP node started with `initially_joined = false` and an evicted
    // (falsely-suspected) member all re-enter.
    next_join_at: Instant,
    /// JoinReq rounds sent since the member last left the group.
    join_rounds: u32,
    /// Set once `join_rounds` reaches [`SeqGroup::MAX_JOIN_ATTEMPTS`]
    /// unanswered; cleared by a successful join.
    rejoin_error: Option<String>,
    rejoin_attempts: Arc<linda_obs::Counter>,

    // While a coordinator-elect is parked waiting for SyncReplies, the
    // SyncQuery is re-sent on this schedule. On a lossy transport (a TCP
    // link mid-reconnect drops sends) the one-shot query can vanish, and
    // nothing else would ever unpark the sync.
    next_sync_retry: Instant,

    // This process's incarnation nonce, carried on every JoinReq.
    incarnation: u64,

    // The newest JoinReq nonce seen from each host: a new one is a crash
    // verdict about the host's previous incarnation, a repeat a retry.
    join_nonces: HashMap<HostId, u64>,

    // True until a member that booted outside the group (a fresh
    // process rejoining a running cluster) completes its first join.
    // Its local-id counter restarts from 1, so `origin == me` records in
    // the replayed snapshot tail belong to the *previous* incarnation
    // and must not retire this incarnation's pending submissions. An
    // evicted-but-alive member keeps its counter, so there the replayed
    // records really are its own and the flag stays false.
    fresh_incarnation: bool,
}

impl State {
    /// A member of `universe` at `now`, whose instruments register in
    /// `obs`. `incarnation` is the nonce its JoinReqs carry.
    #[allow(clippy::too_many_arguments)]
    fn new(
        me: HostId,
        universe: &[HostId],
        initially_joined: bool,
        batch: BatchConfig,
        ckpt: CheckpointConfig,
        local_base: u64,
        hb: Option<Heartbeat>,
        stats: Arc<OrderStats>,
        obs: &linda_obs::Registry,
        incarnation: u64,
        now: Instant,
    ) -> State {
        let live: BTreeSet<HostId> = universe.iter().copied().collect();
        let order_hist = obs.histogram(
            "ftlinda_ags_order_seconds",
            "Broadcast to total-order self-delivery latency",
        );
        let batch_size_hist = obs.histogram_with(
            "ftlinda_batch_size",
            "Submits coalesced per ordered multicast",
            &[1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0],
        );
        let batch_flush_hist =
            obs.histogram("ftlinda_batch_flush_seconds", "Batch open-to-flush latency");
        let rtt_hist = obs.histogram_family(
            "ftlinda_net_rtt_seconds",
            "Wire round-trip latency per peer, from the heartbeat RTT piggyback",
        );
        obs.gauge_merged(
            "ftlinda_batch_max_bytes",
            "Byte threshold that force-flushes an open batch (0 = no byte trigger)",
            linda_obs::GaugeMerge::Max,
        )
        .set(if batch.enabled() {
            batch.max_bytes as i64
        } else {
            0
        });
        let rejoin_attempts = obs.counter(
            "ftlinda_rejoin_attempts_total",
            "JoinReq rounds sent while outside the group",
        );
        State {
            me,
            universe: universe.to_vec(),
            live: live.clone(),
            coord: universe[0],
            joined: initially_joined,
            out: Vec::new(),
            now,
            stats,
            order_hist,
            broadcast_at: HashMap::new(),
            spans: obs.spans_handle(),
            events: obs.events_handle(),
            log: Vec::new(),
            log_base: 0,
            checkpoint: None,
            retired: HashMap::new(),
            ckpt_cfg: ckpt,
            buffer: BTreeMap::new(),
            pending_submits: BTreeMap::new(),
            next_local: local_base + 1,
            nacked_for: None,
            failed_recorded: BTreeSet::new(),
            ba_inserts: 0,
            ba_removes: 0,
            coord_synced: initially_joined && me == universe[0],
            next_seq: 1,
            assigned: HashMap::new(),
            last_marker: 0,
            recipients: live,
            sync_waiting: BTreeSet::new(),
            sync_records: BTreeMap::new(),
            sync_checkpoint: None,
            sync_retired: Vec::new(),
            sync_failed: Vec::new(),
            buffered_submits: Vec::new(),
            buffered_nacks: Vec::new(),
            pending_fails: BTreeSet::new(),
            pending_joins: BTreeSet::new(),
            batch_cfg: batch,
            batch: Vec::new(),
            batch_enqueued: Vec::new(),
            batch_bytes: 0,
            batch_first: 0,
            // Start "long idle" so the very first submit flushes solo.
            last_flush: now.checked_sub(batch.window).unwrap_or(now),
            batch_size_hist,
            batch_flush_hist,
            hb,
            last_heard: universe.iter().map(|h| (*h, now)).collect(),
            last_ping: now,
            ping_rx: HashMap::new(),
            rtt_hist,
            next_join_at: now,
            join_rounds: 0,
            rejoin_error: None,
            rejoin_attempts,
            next_sync_retry: now,
            incarnation,
            join_nonces: HashMap::new(),
            fresh_incarnation: !initially_joined,
        }
    }

    fn send(&mut self, to: HostId, msg: SeqMsg) {
        self.out.push(Output::Send(to, msg));
    }

    fn deliver(&mut self, d: Delivery) {
        self.out.push(Output::Deliver(d));
    }

    fn is_coord(&self) -> bool {
        self.coord == self.me
    }

    /// Highest sequence number covered by this member: the compacted
    /// prefix (`log_base`) plus the retained log.
    fn last_seq(&self) -> u64 {
        self.log_base + self.log.len() as u64
    }

    /// The retained record at `seq`, if it has not been compacted away.
    fn rec_at(&self, seq: u64) -> Option<&Record> {
        seq.checked_sub(self.log_base + 1)
            .and_then(|i| self.log.get(i as usize))
    }

    /// A local broadcast: allocate its local id, keep it until it is
    /// delivered, and order it here or send it to the coordinator.
    fn submit(&mut self, payload: Bytes, now: Instant) -> LocalId {
        self.now = now;
        let local = self.next_local;
        self.next_local += 1;
        self.pending_submits.insert(local, payload.clone());
        self.broadcast_at.insert(local, now);
        self.ba_inserts += 1;
        if self.is_coord() {
            self.coord_submit(self.me, local, payload);
        } else {
            self.send(self.coord, SeqMsg::Submit { local, payload });
        }
        local
    }

    fn on_event(&mut self, ev: NetEvent<SeqMsg>, now: Instant) {
        self.now = now;
        match ev {
            NetEvent::Msg { from, msg } => {
                self.last_heard.insert(from, now);
                // A JoinReq with a nonce new from `from` proves that its
                // previous incarnation is gone (a restart can beat any
                // detector). Run that verdict through `on_crash` *first*,
                // so the Fail and any failover are ordered before the
                // join is served. A repeated nonce is only a retry.
                if let SeqMsg::JoinReq { incarnation } = msg {
                    let new = self.join_nonces.insert(from, incarnation) != Some(incarnation);
                    if new && self.joined && self.live.contains(&from) {
                        self.on_crash(from);
                    }
                }
                // An isolation-demoted coordinator (see `on_crash`) that
                // hears a universe peer again has proof its silence
                // verdict was wrong: re-admit the peer and re-run the
                // election sync instead of staying parked forever. The
                // peer's Fail stays owed (parked here too, since a
                // verdict taken before this member led parked none): its
                // previous incarnation left duplicate-suppression state
                // (`assigned`/`retired`) behind, and only an ordered
                // Fail → Join pair marks the incarnation boundary that
                // clears it. A peer that never actually restarted simply
                // rejoins through the ordinary eviction path.
                if self.hb.is_some()
                    && self.joined
                    && self.is_coord()
                    && !self.coord_synced
                    && from != self.me
                    && !self.live.contains(&from)
                    && self.universe.contains(&from)
                {
                    self.live.insert(from);
                    self.pending_fails.insert(from);
                    self.begin_sync();
                }
                self.on_msg(from, msg)
            }
            NetEvent::CrashNotice(h) => self.on_crash(h),
            NetEvent::Wake => {}
        }
    }

    fn on_msg(&mut self, from: HostId, msg: SeqMsg) {
        // Traffic from a host we have ordered a Fail record for: the
        // host is alive but evicted from the recipient set — every
        // record since its Fail has bypassed it, so letting it resume
        // mid-stream would hand it a stale cursor (and a resubmit could
        // draw a *second* sequence number once a Join record prunes the
        // duplicate-suppression state). Tell it to drop out and rejoin
        // through the snapshot path. JoinReq itself must keep flowing,
        // and sync/snapshot replies are part of recovery, so only
        // steady-state traffic triggers the eviction.
        if self.is_coord()
            && self.coord_synced
            && from != self.me
            && self.failed_recorded.contains(&from)
            && matches!(
                msg,
                SeqMsg::Submit { .. } | SeqMsg::Nack { .. } | SeqMsg::Ping { .. }
            )
        {
            self.send(from, SeqMsg::Evicted);
            return;
        }
        match msg {
            SeqMsg::Submit { local, payload } => {
                if self.is_coord() {
                    self.coord_submit(from, local, payload);
                }
                // else: drop; the origin resubmits when its detector
                // fires or when this member, as elect, queries its log.
            }
            SeqMsg::Ordered(rec) => self.accept_record(rec),
            SeqMsg::SyncQuery { have } => {
                if have < self.log_base {
                    // The elect is behind our compaction watermark: no
                    // record suffix can extend its log to ours. Reply
                    // with our checkpoint (invariant: seq >= log_base)
                    // and the whole retained log.
                    debug_assert!(self
                        .checkpoint
                        .as_ref()
                        .is_some_and(|c| c.seq >= self.log_base));
                    let reply = SeqMsg::SyncReply {
                        checkpoint: self.checkpoint.clone(),
                        retired: self.retired.iter().map(|(h, l)| (*h, *l)).collect(),
                        failed: self.failed_recorded.iter().copied().collect(),
                        records: self.log.clone(),
                    };
                    self.send(from, reply);
                } else {
                    let start = (have - self.log_base) as usize;
                    let records = self.log.get(start..).map(<[Record]>::to_vec);
                    let reply = SeqMsg::SyncReply {
                        checkpoint: None,
                        retired: Vec::new(),
                        failed: Vec::new(),
                        records: records.unwrap_or_default(),
                    };
                    self.send(from, reply);
                }
                // If we already follow the elect, our detector fired
                // before its own, and the elect dropped the resubmit we
                // sent then: it was not the coordinator yet. Re-send
                // behind the reply (links are FIFO); the elect buffers
                // submits until its sync ends. A member still following
                // the old coordinator resubmits when it notices the crash.
                if from == self.coord {
                    self.resubmit_pending(from);
                }
            }
            SeqMsg::SyncReply {
                checkpoint,
                retired,
                failed,
                records,
            } => {
                if !self.is_coord() || self.coord_synced {
                    return;
                }
                if let Some(cp) = checkpoint {
                    if self.sync_checkpoint.as_ref().is_none_or(|c| cp.seq > c.seq) {
                        self.sync_checkpoint = Some(cp);
                        self.sync_retired = retired;
                        self.sync_failed = failed;
                    }
                }
                for r in records {
                    self.sync_records.insert(r.seq, r);
                }
                self.sync_waiting.remove(&from);
                if self.sync_waiting.is_empty() {
                    self.finish_sync();
                }
            }
            SeqMsg::Nack { from: missing } => {
                if self.is_coord() && self.coord_synced {
                    self.serve_nack(from, missing);
                } else if self.is_coord() {
                    self.buffered_nacks.push((from, missing));
                }
            }
            SeqMsg::Retransmit { records } => {
                for rec in records {
                    self.accept_record(rec);
                }
            }
            SeqMsg::JoinReq { .. } => {
                if self.is_coord() && self.coord_synced {
                    self.serve_join(from);
                } else if self.is_coord() && self.joined {
                    // Park until the election sync completes. An
                    // *unjoined* would-be coordinator (a fresh incarnation
                    // of `universe[0]` that has not rejoined yet) must not
                    // park joins it can never serve — the joiner retries
                    // and the real coordinator answers.
                    self.pending_joins.insert(from);
                }
            }
            SeqMsg::Ping {
                sent_us,
                echo_us,
                held_us,
                seq,
            } => {
                // Remember this ping so our next heartbeat echoes it
                // back, and close the loop on any echo of our own: the
                // round-trip is measured entirely against our clock.
                self.ping_rx.insert(from, (sent_us, self.now));
                if echo_us != 0 {
                    let rtt_us = linda_obs::now_micros()
                        .saturating_sub(echo_us)
                        .saturating_sub(held_us);
                    self.rtt_hist
                        .with(&[("peer", &from.to_string())])
                        .observe_seconds(rtt_us as f64 / 1e6);
                }
                // Records lost at the tail of the stream leave no gap for
                // `accept_record` to see. The coordinator's ping follows
                // every record it sent us on the same FIFO link, so being
                // behind it means records were lost, not that they are on
                // their way (a peer's ping could overtake them): ask again,
                // once per ping while behind.
                if self.joined && !self.is_coord() && from == self.coord && seq > self.last_seq() {
                    let expected = self.last_seq() + 1;
                    self.nacked_for = Some(expected);
                    self.stats.record_retransmit();
                    self.send(from, SeqMsg::Nack { from: expected });
                }
            }
            SeqMsg::Snapshot {
                checkpoint,
                retired,
                failed,
                tail,
                live,
            } => {
                let joining = !self.joined;
                // A fresh incarnation's pre-join submissions must survive
                // the snapshot install: `adopt_snapshot` clears pending
                // state on a checkpoint jump, and that state is the only
                // record of what still needs resubmitting.
                let saved: Vec<(LocalId, Bytes)> = if joining && self.fresh_incarnation {
                    self.pending_submits
                        .iter()
                        .map(|(l, p)| (*l, p.clone()))
                        .collect()
                } else {
                    Vec::new()
                };
                if self.joined {
                    // To a live member a snapshot is only useful as a
                    // catch-up past the coordinator's compaction
                    // watermark (the answer to a NACK below log_base);
                    // anything else is a stale duplicate of a retried
                    // JoinReq.
                    match &checkpoint {
                        Some(cp) if cp.seq > self.last_seq() => {}
                        _ => return,
                    }
                } else {
                    self.live = live.into_iter().collect();
                    self.live.insert(self.me);
                    self.coord = from;
                    self.joined = true;
                    self.rejoin_error = None;
                }
                self.adopt_snapshot(checkpoint, retired, failed);
                for rec in tail {
                    self.accept_record(rec);
                }
                if joining {
                    // Broadcasts submitted before (or during) the join
                    // were refused by the coordinator while our Fail
                    // record stood; anything the snapshot's tail did not
                    // retire is resubmitted now that we are admitted.
                    // `coord_submit` dedups on the coordinator side.
                    for (local, payload) in saved {
                        self.pending_submits.insert(local, payload);
                    }
                    self.fresh_incarnation = false;
                    self.resubmit_pending(self.coord);
                }
            }
            SeqMsg::Evicted => self.on_evicted(from),
        }
    }

    /// The coordinator has ordered a `Fail` record for us while we were
    /// alive (a false suspicion — e.g. a long pause, or a TCP link that
    /// outlasted the heartbeat timeout before reconnecting). Step down
    /// and re-enter through the ordinary JoinReq → Snapshot path rather
    /// than resuming mid-stream with a stale cursor.
    fn on_evicted(&mut self, from: HostId) {
        if !self.joined {
            return; // already out
        }
        // Dueling-coordinator arbitration: when a healed partition
        // leaves two synced coordinators evicting each other, the
        // lower id keeps the role and the higher one steps down.
        if self.is_coord() && self.coord_synced && from.0 > self.me.0 {
            return;
        }
        self.events.emit(linda_obs::Event::new(
            "evicted",
            vec![
                ("host".into(), self.me.to_string()),
                ("by".into(), from.to_string()),
                ("last_seq".into(), self.last_seq().to_string()),
            ],
        ));
        self.stats.record_view_change();
        // In-flight broadcasts are indeterminate across the re-admission
        // (their Fail/Join bracket may or may not contain them); fail
        // their waiters via the synthesized delivery below.
        self.pending_submits.clear();
        self.ba_removes += self.broadcast_at.len() as u64;
        self.broadcast_at.clear();
        self.nacked_for = None;
        // Abandon any coordinator role we thought we held.
        self.batch.clear();
        self.batch_enqueued.clear();
        self.batch_bytes = 0;
        self.buffered_submits.clear();
        self.buffered_nacks.clear();
        self.pending_joins.clear();
        self.pending_fails.clear();
        self.assigned.clear();
        self.coord_synced = false;
        self.joined = false;
        self.coord = from;
        self.next_join_at = self.now;
        self.join_rounds = 0;
        self.deliver(Delivery::Evicted {
            seq: self.last_seq(),
        });
    }

    /// Re-send interval for SyncQuery while replies are outstanding
    /// (covers queries or replies lost to a reconnecting TCP link).
    const SYNC_RETRY: Duration = Duration::from_millis(100);

    /// (Re-)run the coordinator election sync: ask every live peer for
    /// its log suffix and wait for all replies before assigning any new
    /// sequence numbers.
    fn begin_sync(&mut self) {
        self.coord_synced = false;
        self.sync_records.clear();
        self.sync_checkpoint = None;
        self.sync_retired.clear();
        self.sync_failed.clear();
        self.sync_waiting = self
            .live
            .iter()
            .copied()
            .filter(|p| *p != self.me)
            .collect();
        let have = self.last_seq();
        for &p in &self.sync_waiting {
            self.out.push(Output::Send(p, SeqMsg::SyncQuery { have }));
        }
        self.next_sync_retry = self.now + Self::SYNC_RETRY;
        if self.sync_waiting.is_empty() {
            // Heartbeat detection is fallible: a coordinator that just
            // declared *everyone* else silent is more likely isolated
            // than the last survivor. Ordering records alone would fork
            // the log against the majority's new coordinator, so park
            // unsynced instead; hearing any peer again (see `on_event`)
            // or an `Evicted` from the real coordinator resolves it.
            // The oracle detector is exact, so there the lone survivor
            // legitimately continues.
            if self.hb.is_some() && self.universe.len() > 1 {
                self.events.emit(linda_obs::Event::new(
                    "coordinator_isolated",
                    vec![("host".into(), self.me.to_string())],
                ));
                return;
            }
            self.finish_sync();
        }
    }

    /// Core append path: deliver `rec` if it extends the contiguous log,
    /// buffer it if ahead, ignore duplicates. Batch records are exploded
    /// into their solo `App` records first, so duplicate detection, gap
    /// repair, and the log itself stay per-entry — a retransmitted batch
    /// that partially overlaps the log is deduplicated entry by entry.
    fn accept_record(&mut self, rec: Record) {
        if matches!(rec.body, RecordBody::Batch(_)) {
            for solo in rec.explode() {
                self.accept_record(solo);
            }
            return;
        }
        if rec.seq <= self.last_seq() {
            return;
        }
        if rec.seq > self.last_seq() + 1 {
            let expected = self.last_seq() + 1;
            self.buffer.insert(rec.seq, rec);
            if self.nacked_for != Some(expected) {
                self.nacked_for = Some(expected);
                self.stats.record_retransmit();
                self.send(self.coord, SeqMsg::Nack { from: expected });
            }
            return;
        }
        self.append_and_deliver(rec);
        while let Some(next) = self.buffer.remove(&(self.last_seq() + 1)) {
            self.append_and_deliver(next);
        }
        // Drop any stale out-of-order copies the drain left behind
        // (e.g. a retransmit overlapping records that arrived solo, or
        // a checkpoint jump over buffered sequences) — the buffer must
        // only ever hold records ahead of the contiguous prefix.
        let ahead = self.last_seq() + 1;
        if self
            .buffer
            .first_key_value()
            .is_some_and(|(s, _)| *s < ahead)
        {
            self.buffer = self.buffer.split_off(&ahead);
        }
        self.nacked_for = None;
    }

    fn append_and_deliver(&mut self, rec: Record) {
        debug_assert_eq!(rec.seq, self.last_seq() + 1);
        match &rec.body {
            RecordBody::Batch(_) => {
                unreachable!("batch records are exploded in accept_record")
            }
            RecordBody::App(_) => {
                if rec.origin == self.me && !self.fresh_incarnation {
                    self.pending_submits.remove(&rec.local);
                    if let Some(t0) = self.broadcast_at.remove(&rec.local) {
                        self.ba_removes += 1;
                        self.order_hist
                            .observe(self.now.saturating_duration_since(t0));
                    }
                    debug_assert_eq!(
                        self.ba_inserts,
                        self.ba_removes + self.broadcast_at.len() as u64,
                        "broadcast_at leaked: a submission was retired without \
                         removing its timestamp"
                    );
                }
                self.spans.record(
                    linda_obs::TraceId::new(rec.origin.0, rec.local),
                    "deliver",
                    self.me.0,
                    &[("seq", &rec.seq)],
                );
            }
            RecordBody::Fail(h) => {
                self.failed_recorded.insert(*h);
                // An ordered Fail satisfies any copy we parked while a
                // failover was still electing who would record it.
                self.pending_fails.remove(h);
                self.stats.record_view_change();
            }
            RecordBody::Join(h) => {
                self.failed_recorded.remove(h);
                // A parked Fail predates this re-admission: firing it
                // after the Join would evict the host we just served.
                self.pending_fails.remove(h);
                self.live.insert(*h);
                self.last_heard.insert(*h, self.now);
                // A Join starts a fresh incarnation whose local ids
                // restart from 1: duplicate-suppression state from the
                // previous incarnation must not shadow its submissions.
                let h = *h;
                self.assigned.retain(|(o, _), _| *o != h);
                self.retired.remove(&h);
                self.stats.record_view_change();
            }
            RecordBody::Checkpoint => {
                // Protocol-side no-op: the boundary only matters to the
                // application, which snapshots at this seq and installs
                // the image back (truncating the log behind it).
            }
        }
        let delivery = Delivery::from_record(&rec);
        self.log.push(rec);
        self.stats.record_delivery();
        self.deliver(delivery);
    }

    /// The earliest instant a timer of [`State::on_timers`] falls due:
    /// the group-commit deadline while a batch is open, the JoinReq
    /// retry while unjoined, the SyncQuery retry while an election waits
    /// on replies, and in heartbeat mode the next tick after `now`.
    /// `None` when no timer is pending.
    fn next_due(&self, now: Instant) -> Option<Instant> {
        let tick = self
            .hb
            .map(|hb| now + (hb.period / 2).max(Duration::from_millis(1)));
        let join = (!self.joined).then_some(self.next_join_at);
        let sync = self.sync_pending().then_some(self.next_sync_retry);
        [tick, self.batch_deadline(), join, sync]
            .into_iter()
            .flatten()
            .min()
    }

    fn batch_deadline(&self) -> Option<Instant> {
        (!self.batch.is_empty()).then(|| self.last_flush + self.batch_cfg.window)
    }

    fn sync_pending(&self) -> bool {
        self.is_coord() && !self.coord_synced && !self.sync_waiting.is_empty()
    }

    /// Run every timer that is due at `now`. Called by the member
    /// thread after each inbox event and whenever [`State::next_due`]
    /// passes.
    fn on_timers(&mut self, now: Instant) {
        self.now = now;
        if self.batch_deadline().is_some_and(|d| now >= d) {
            self.flush_batch();
            self.maybe_mark_checkpoint();
        }
        if !self.joined && now >= self.next_join_at {
            self.join_round(now);
        }
        // A coordinator-elect parked on lost sync traffic re-asks: the
        // SyncQuery (or its reply) may have been dropped by a TCP link
        // that was still mid-reconnect when the election fired.
        if self.sync_pending() && now >= self.next_sync_retry {
            self.next_sync_retry = now + Self::SYNC_RETRY;
            let have = self.last_seq();
            for &p in &self.sync_waiting {
                self.stats.record_retransmit();
                self.out.push(Output::Send(p, SeqMsg::SyncQuery { have }));
            }
        }
        // Heartbeat mode, joined members only: send periodic pings and
        // declare silent peers crashed.
        let Some(hb) = self.hb.filter(|_| self.joined) else {
            return;
        };
        if now.duration_since(self.last_ping) >= hb.period {
            self.last_ping = now;
            let seq = self.last_seq();
            // Per-peer sends rather than one multicast: each ping echoes
            // the newest ping *from that peer*, closing the RTT loop.
            for &p in self.universe.iter().filter(|p| **p != self.me) {
                let (echo_us, held_us) = self
                    .ping_rx
                    .get(&p)
                    .map(|(sent, at)| {
                        (*sent, now.saturating_duration_since(*at).as_micros() as u64)
                    })
                    .unwrap_or((0, 0));
                let ping = SeqMsg::Ping {
                    sent_us: linda_obs::now_micros(),
                    echo_us,
                    held_us,
                    seq,
                };
                self.out.push(Output::Send(p, ping));
            }
        }
        let silent: Vec<HostId> = self
            .live
            .iter()
            .copied()
            .filter(|p| {
                *p != self.me
                    && self
                        .last_heard
                        .get(p)
                        .is_none_or(|t| now.duration_since(*t) > hb.timeout)
            })
            .collect();
        for h in silent {
            self.on_crash(h);
        }
    }

    /// Multicast one JoinReq round. Rounds go out 5 ms apart, doubling
    /// to a 160 ms cap. After [`SeqGroup::MAX_JOIN_ATTEMPTS`] unanswered
    /// rounds the member reports `rejoin_error` and a `rejoin_failed`
    /// event once, then keeps retrying at the cap, so a group that
    /// comes back later still re-admits it.
    fn join_round(&mut self, now: Instant) {
        let me = self.me;
        if self.join_rounds == SeqGroup::MAX_JOIN_ATTEMPTS {
            let attempts = SeqGroup::MAX_JOIN_ATTEMPTS.to_string();
            self.rejoin_error = Some(format!(
                "{me} failed to rejoin after {attempts} JoinReq attempts (no coordinator answered)"
            ));
            self.events.emit(linda_obs::Event::new(
                "rejoin_failed",
                vec![
                    ("host".into(), me.to_string()),
                    ("attempts".into(), attempts),
                ],
            ));
        }
        self.next_join_at = now + Duration::from_millis(5 << self.join_rounds.min(5));
        self.join_rounds = self.join_rounds.saturating_add(1);
        self.rejoin_attempts.inc();
        let incarnation = self.incarnation;
        let peers: Vec<HostId> = self.universe.iter().copied().filter(|p| *p != me).collect();
        self.out
            .push(Output::Multicast(peers, SeqMsg::JoinReq { incarnation }));
    }

    /// Re-send every unacked broadcast to `to`, the (elected)
    /// coordinator. It dedups on `(origin, local)`, so a copy that was
    /// already ordered is answered with a retransmission instead.
    fn resubmit_pending(&mut self, to: HostId) {
        for (&local, payload) in &self.pending_submits {
            self.stats.record_retransmit();
            let payload = payload.clone();
            self.out
                .push(Output::Send(to, SeqMsg::Submit { local, payload }));
        }
    }

    fn on_crash(&mut self, h: HostId) {
        if !self.live.contains(&h) {
            return; // already handled (heartbeat detectors can refire)
        }
        self.live.remove(&h);
        self.recipients.remove(&h);
        if h == self.coord {
            let new_coord = match self.live.iter().next() {
                Some(c) => *c,
                None => return,
            };
            self.events.emit(linda_obs::Event::new(
                "coordinator_failover",
                vec![
                    ("failed".into(), h.to_string()),
                    ("new_coord".into(), new_coord.to_string()),
                    ("observer".into(), self.me.to_string()),
                ],
            ));
            self.coord = new_coord;
            self.nacked_for = None;
            // Every observer parks the Fail, not just the elected
            // coordinator: a failover that names an already-dead new
            // coordinator would otherwise drop the record on the floor,
            // and whoever wins the *next* election must still order it.
            // The parked entry is retired when a Fail or Join record for
            // the host is delivered (see `append_and_deliver`).
            self.pending_fails.insert(h);
            if new_coord == self.me {
                // Become coordinator-elect; sync with every live peer.
                self.begin_sync();
            } else {
                self.resubmit_pending(new_coord);
            }
        } else if self.is_coord() {
            // A synced coordinator whose detector just silenced its
            // *last* peer (heartbeat mode, non-trivial universe) is more
            // likely isolated than alone: demote instead of ordering a
            // Fail that would fork the log against the majority's new
            // coordinator. Re-promotion happens in `on_event` when a
            // peer is heard again, or via `Evicted` from the majority's
            // coordinator.
            let isolated = self.hb.is_some() && self.live.len() <= 1 && self.universe.len() > 1;
            if self.coord_synced {
                if isolated {
                    self.coord_synced = false;
                    self.pending_fails.insert(h);
                    self.events.emit(linda_obs::Event::new(
                        "coordinator_isolated",
                        vec![("host".into(), self.me.to_string())],
                    ));
                } else {
                    self.emit_fail(h);
                }
            } else {
                self.pending_fails.insert(h);
                if self.sync_waiting.remove(&h) && self.sync_waiting.is_empty() && !isolated {
                    self.finish_sync();
                }
            }
        }
    }

    fn finish_sync(&mut self) {
        // If some replier was ahead of our compaction watermark by more
        // than its own retained log, it sent a checkpoint: jump to it
        // before merging record suffixes (our in-flight submissions are
        // indeterminate across the jump; the application fails their
        // waiters when it sees the Restore).
        if let Some(cp) = self.sync_checkpoint.take() {
            let retired = std::mem::take(&mut self.sync_retired);
            let failed = std::mem::take(&mut self.sync_failed);
            if cp.seq > self.last_seq() {
                self.adopt_snapshot(Some(cp), retired, failed);
            }
        }
        let recs: Vec<Record> = self.sync_records.values().cloned().collect();
        self.sync_records.clear();
        for rec in recs {
            self.accept_record(rec);
        }
        self.next_seq = self.last_seq() + 1;
        // Rebuild duplicate suppression by folding the log *in order*:
        // a Join record is an incarnation boundary, so App records from
        // before a host's Join must not shadow the new incarnation's
        // restarted local-id sequence.
        self.assigned.clear();
        for i in 0..self.log.len() {
            match &self.log[i].body {
                RecordBody::App(_) => {
                    let r = &self.log[i];
                    self.assigned.insert((r.origin, r.local), r.seq);
                }
                RecordBody::Join(h) => {
                    let h = *h;
                    self.assigned.retain(|(o, _), _| *o != h);
                }
                _ => {}
            }
        }
        // Resume marker cadence from the last marker that survives in
        // the merged log (or the watermark itself if none did).
        self.last_marker = self
            .log
            .iter()
            .rev()
            .find(|r| matches!(r.body, RecordBody::Checkpoint))
            .map(|r| r.seq)
            .unwrap_or(0)
            .max(self.log_base);
        self.recipients = self.live.clone();
        self.coord_synced = true;

        let fails: Vec<HostId> = self.pending_fails.iter().copied().collect();
        self.pending_fails.clear();
        for h in fails {
            self.emit_fail(h);
        }
        // Failover churn can lose a Fail: only the coordinator acts on a
        // member's crash, so one that died before ordering it (or an
        // election that named an already-dead member) drops it. Sweep
        // every universe host we do not count live into a Fail record
        // (dedup'd by `failed_recorded`); its Join clears it on return.
        let absent: Vec<HostId> = self
            .universe
            .iter()
            .copied()
            .filter(|h| *h != self.me && !self.live.contains(h))
            .collect();
        for h in absent {
            self.emit_fail(h);
        }
        // Re-inject our own unacked submissions (the old coordinator may
        // have died holding them). `coord_submit` dedups anything that did
        // make it into the log.
        let me = self.me;
        let pend: Vec<(LocalId, Bytes)> = self
            .pending_submits
            .iter()
            .map(|(l, p)| (*l, p.clone()))
            .collect();
        for (local, payload) in pend {
            self.coord_submit(me, local, payload);
        }
        let subs = std::mem::take(&mut self.buffered_submits);
        for (origin, local, payload) in subs {
            self.coord_submit(origin, local, payload);
        }
        let nacks = std::mem::take(&mut self.buffered_nacks);
        for (from, missing) in nacks {
            self.serve_nack(from, missing);
        }
        let joins = std::mem::take(&mut self.pending_joins);
        for j in joins {
            self.serve_join(j);
        }
    }

    fn emit_fail(&mut self, h: HostId) {
        if self.failed_recorded.contains(&h) {
            return; // already recorded for this incarnation
        }
        // The open batch holds sequence numbers below `next_seq`; flush
        // it so the Fail record extends the multicast stream contiguously.
        self.flush_batch();
        let rec = Record {
            seq: self.next_seq,
            origin: self.me,
            local: 0,
            body: RecordBody::Fail(h),
        };
        self.next_seq += 1;
        self.distribute(rec);
    }

    fn serve_nack(&mut self, from: HostId, missing: u64) {
        if missing <= self.log_base {
            // The requested prefix is compacted away; a retransmission
            // cannot exist. Ship a full snapshot (checkpoint + tail):
            // the receiver jumps to the checkpoint and resumes from
            // there.
            self.send_snapshot(from);
            return;
        }
        // The log is contiguous from `log_base + 1`, so the suffix at
        // `missing` starts at a direct offset — no per-record scan.
        let start = (missing - 1 - self.log_base) as usize;
        if let Some(tail) = self.log.get(start..) {
            if !tail.is_empty() {
                let records = tail.to_vec();
                self.send(from, SeqMsg::Retransmit { records });
            }
        }
    }

    /// Send `to` a state snapshot: the latest installed checkpoint (if
    /// any) plus the retained log past it, along with the compaction-
    /// surviving duplicate/failure state and the live set.
    fn send_snapshot(&mut self, to: HostId) {
        // Flush before snapshotting: entries in the open batch have
        // assigned seqs but are not yet in the log, and the snapshot
        // must hand the receiver a contiguous prefix.
        self.flush_batch();
        let (checkpoint, tail) = match &self.checkpoint {
            Some(cp) => {
                // Failover invariant: an installed checkpoint is never
                // older than the compaction watermark.
                debug_assert!(cp.seq >= self.log_base);
                let start = (cp.seq - self.log_base) as usize;
                (Some(cp.clone()), self.log[start..].to_vec())
            }
            None => {
                debug_assert_eq!(self.log_base, 0, "compaction requires a checkpoint");
                (None, self.log.clone())
            }
        };
        let snap = SeqMsg::Snapshot {
            checkpoint,
            retired: self.retired.iter().map(|(h, l)| (*h, *l)).collect(),
            failed: self.failed_recorded.iter().copied().collect(),
            tail,
            live: self.live.iter().copied().collect(),
        };
        self.send(to, snap);
    }

    fn serve_join(&mut self, joiner: HostId) {
        // A synced coordinator has ordered a Fail for every host it does
        // not count live (`on_crash`, and the sweep in `finish_sync`), so
        // a joiner outside `live` always gets its Join below.
        debug_assert!(
            self.live.contains(&joiner) || self.failed_recorded.contains(&joiner),
            "{joiner} is neither live nor recorded failed"
        );
        // Flush before admitting the joiner to the recipient set, so
        // the open batch is not multicast to a host that has no
        // snapshot yet.
        self.flush_batch();
        self.live.insert(joiner);
        self.recipients.insert(joiner);
        self.send_snapshot(joiner);
        // The Join record is the incarnation boundary that clears the
        // host's Fail and its duplicate-suppression state. A retried
        // JoinReq from the incarnation already admitted finds no Fail
        // standing and only gets the snapshot again.
        if self.failed_recorded.contains(&joiner) {
            let rec = Record {
                seq: self.next_seq,
                origin: self.me,
                local: 0,
                body: RecordBody::Join(joiner),
            };
            self.next_seq += 1;
            self.distribute(rec);
        }
    }

    /// Coordinator path for a submission: assign the next sequence number
    /// (or answer a duplicate with a retransmission) and distribute,
    /// then emit a checkpoint marker if the interval has elapsed.
    fn coord_submit(&mut self, origin: HostId, local: LocalId, payload: Bytes) {
        self.coord_submit_inner(origin, local, payload);
        self.maybe_mark_checkpoint();
    }

    fn coord_submit_inner(&mut self, origin: HostId, local: LocalId, payload: Bytes) {
        if !self.coord_synced {
            self.buffered_submits.push((origin, local, payload));
            return;
        }
        if let Some(&seq) = self.assigned.get(&(origin, local)) {
            // Duplicate submission. If the record already made it into
            // the log, answer with a retransmission; if it is still
            // sitting in the open batch, the pending flush will deliver
            // it — a second sequence number must not be assigned.
            if origin != self.me {
                if let Some(rec) = self.rec_at(seq).cloned() {
                    self.stats.record_retransmit();
                    self.send(origin, SeqMsg::Retransmit { records: vec![rec] });
                } else if seq <= self.log_base {
                    // Assigned but compacted (the entry outlived a
                    // truncation only transiently): answer with a full
                    // snapshot.
                    self.stats.record_retransmit();
                    self.send_snapshot(origin);
                }
            }
            return;
        }
        if self
            .retired
            .get(&origin)
            .is_some_and(|&newest| local <= newest)
        {
            // Duplicate of a record behind the compaction watermark:
            // its `assigned` entry was pruned and the solo record no
            // longer exists. The origin is far behind — hand it the
            // checkpoint instead of a sequence number.
            if origin != self.me {
                self.stats.record_retransmit();
                self.send_snapshot(origin);
            }
            return;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.assigned.insert((origin, local), seq);
        let now = self.now;
        if self.batch.is_empty() {
            if now.duration_since(self.last_flush) >= self.batch_cfg.window {
                // Idle coordinator: flush solo immediately, so batching
                // adds zero latency to sequential workloads. With
                // batching off (a zero window) every submit lands here.
                self.last_flush = now;
                self.flush_span(origin, local, seq, 1, Duration::ZERO);
                self.distribute(Record {
                    seq,
                    origin,
                    local,
                    body: RecordBody::App(payload),
                });
                return;
            }
            // A multicast left within the last window — open a batch and
            // let further concurrent submits pile in until the deadline.
            self.batch_first = seq;
        }
        self.batch_bytes += payload.len();
        self.batch.push(BatchEntry {
            origin,
            local,
            payload,
        });
        self.batch_enqueued.push(now);
        if self.batch_full() {
            self.flush_batch();
        }
    }

    /// Whether either size trigger (entries or bytes) says the open
    /// batch must flush now rather than wait out the window.
    fn batch_full(&self) -> bool {
        self.batch.len() >= self.batch_cfg.max_entries
            || (self.batch_cfg.max_bytes > 0 && self.batch_bytes >= self.batch_cfg.max_bytes)
    }

    /// Record a coordinator "flush" span: the instant an entry left the
    /// sequencer as (part of) an ordered multicast. `queued` is the time
    /// the entry spent in the open batch — the batch queueing delay.
    fn flush_span(&self, origin: HostId, local: LocalId, seq: u64, batch: usize, queued: Duration) {
        self.spans.record(
            linda_obs::TraceId::new(origin.0, local),
            "flush",
            self.me.0,
            &[
                ("seq", &seq),
                ("batch", &batch),
                ("queued_us", &queued.as_micros()),
            ],
        );
    }

    /// Multicast the open batch (if any) as one ordered record. A batch
    /// of one collapses to a plain solo `App` record, keeping the wire
    /// format identical to unbatched operation under light load.
    fn flush_batch(&mut self) {
        if self.batch.is_empty() {
            return;
        }
        let entries = std::mem::take(&mut self.batch);
        let enqueued = std::mem::take(&mut self.batch_enqueued);
        self.batch_bytes = 0;
        let now = self.now;
        self.last_flush = now;
        if let Some(opened) = enqueued.first() {
            self.batch_flush_hist.observe(now.duration_since(*opened));
        }
        self.batch_size_hist.observe_seconds(entries.len() as f64);
        for (i, e) in entries.iter().enumerate() {
            let queued = enqueued
                .get(i)
                .map(|t| now.duration_since(*t))
                .unwrap_or(Duration::ZERO);
            self.flush_span(
                e.origin,
                e.local,
                self.batch_first + i as u64,
                entries.len(),
                queued,
            );
        }
        if entries.len() == 1 {
            let e = entries.into_iter().next().expect("len checked");
            self.distribute(Record {
                seq: self.batch_first,
                origin: e.origin,
                local: e.local,
                body: RecordBody::App(e.payload),
            });
        } else {
            self.stats.record_batch(entries.len() as u64);
            self.distribute(Record {
                seq: self.batch_first,
                origin: self.me,
                local: 0,
                body: RecordBody::Batch(entries),
            });
        }
    }

    /// Multicast an ordered record to all recipients and self-deliver.
    fn distribute(&mut self, rec: Record) {
        self.stats.record_ordered_multicast();
        let me = self.me;
        let dests: Vec<HostId> = self
            .recipients
            .iter()
            .copied()
            .filter(|h| *h != me)
            .collect();
        self.out
            .push(Output::Multicast(dests, SeqMsg::Ordered(rec.clone())));
        self.accept_record(rec);
    }

    /// Emit an ordered `Checkpoint` marker if at least `every` records
    /// have been assigned since the last one. Only between batches: a
    /// marker inside an open batch would leave a hole in the multicast
    /// stream.
    fn maybe_mark_checkpoint(&mut self) {
        if !self.ckpt_cfg.enabled() || !self.is_coord() || !self.coord_synced {
            return;
        }
        if !self.batch.is_empty() {
            return; // re-checked when the batch flushes
        }
        if self.next_seq - 1 < self.last_marker + self.ckpt_cfg.every {
            return;
        }
        let rec = Record {
            seq: self.next_seq,
            origin: self.me,
            local: 0,
            body: RecordBody::Checkpoint,
        };
        self.next_seq += 1;
        self.last_marker = rec.seq;
        self.distribute(rec);
    }

    /// Adopt snapshot state that must survive log compaction, and jump
    /// over the missing history to `checkpoint.seq` if the image is
    /// ahead of us. The jump abandons all in-flight bookkeeping — any
    /// local submission is indeterminate across the gap — and emits a
    /// synthesized [`Delivery::Restore`] so the application replaces
    /// its state with the image before the tail is applied.
    fn adopt_snapshot(
        &mut self,
        checkpoint: Option<CheckpointImage>,
        retired: Vec<(HostId, LocalId)>,
        failed: Vec<HostId>,
    ) {
        for (h, l) in retired {
            let e = self.retired.entry(h).or_insert(0);
            *e = (*e).max(l);
        }
        self.failed_recorded = failed.into_iter().collect();
        let Some(cp) = checkpoint else { return };
        if cp.seq <= self.last_seq() {
            return; // we already cover the image; the tail alone helps
        }
        self.pending_submits.clear();
        self.ba_removes += self.broadcast_at.len() as u64;
        self.broadcast_at.clear();
        self.nacked_for = None;
        self.buffer = self.buffer.split_off(&(cp.seq + 1));
        self.log.clear();
        self.log_base = cp.seq;
        self.deliver(Delivery::Restore { image: cp.clone() });
        self.checkpoint = Some(cp);
    }

    /// Install the application's state image for the checkpoint marker
    /// at `image.seq`, and truncate the log behind it. Truncated `App`
    /// records feed the `retired` watermark before they disappear, and
    /// `assigned` entries at or below the watermark are pruned —
    /// duplicates down there are answered by snapshot.
    fn install_checkpoint(&mut self, image: CheckpointImage) {
        debug_assert!(
            image.seq <= self.last_seq(),
            "cannot install a checkpoint past the delivered prefix"
        );
        if self.checkpoint.as_ref().is_some_and(|c| c.seq >= image.seq) {
            return; // stale image (duplicate install)
        }
        let cut = image.seq;
        self.checkpoint = Some(image);
        if cut <= self.log_base {
            return;
        }
        let keep_from = ((cut - self.log_base) as usize).min(self.log.len());
        for r in &self.log[..keep_from] {
            if matches!(r.body, RecordBody::App(_)) {
                let e = self.retired.entry(r.origin).or_insert(0);
                *e = (*e).max(r.local);
            }
        }
        self.log.drain(..keep_from);
        self.log_base = cut;
        self.assigned.retain(|_, s| *s > cut);
    }
}

/// Where a member's [`State`] outputs go: the transport, and the sending
/// end of the delivery stream.
struct Io {
    me: HostId,
    net: SeqNet,
    /// Taken when the member's protocol thread exits, which ends the
    /// delivery stream for the application.
    dtx: Mutex<Option<crossbeam::channel::Sender<Delivery>>>,
}

impl Io {
    /// Pass on `st`'s queued outputs in the order they were produced.
    /// Called with `st`'s lock held, so the outputs of the protocol
    /// thread and of [`SeqMember::broadcast`] never interleave.
    fn dispatch(&self, st: &mut State) {
        let dtx = self.dtx.lock();
        for out in st.out.drain(..) {
            match out {
                Output::Send(to, msg) => self.net.send(self.me, to, msg),
                Output::Multicast(to, msg) => self.net.multicast(self.me, &to, msg),
                Output::Deliver(d) => {
                    if let Some(tx) = dtx.as_ref() {
                        let _ = tx.send(d);
                    }
                }
            }
        }
    }
}

/// Handle to one member of a sequencer group. The protocol runs on a
/// dedicated thread; [`SeqMember::broadcast`] may be called from any
/// thread; ordered deliveries arrive on the channel returned by
/// [`SeqMember::deliveries`], which disconnects once the protocol
/// thread has exited.
pub struct SeqMember {
    io: Arc<Io>,
    state: Arc<Mutex<State>>,
    deliveries: crossbeam::channel::Receiver<Delivery>,
    stats: Arc<OrderStats>,
    stop: Arc<AtomicBool>,
    obs: Arc<linda_obs::Registry>,
}

/// Factory/controller for a sequencer group over a simulated network,
/// or for this process's member of a TCP-backed group (see
/// [`SeqGroup::tcp_member`]).
pub struct SeqGroup {
    net: SeqNet,
    universe: Vec<HostId>,
    stats: Arc<OrderStats>,
    batch: BatchConfig,
    ckpt: CheckpointConfig,
    local_base: u64,
}

impl SeqGroup {
    /// Create a group of `n` members, all initially live, host 0 as the
    /// initial coordinator, with the default (enabled) group-commit
    /// configuration and checkpointing off (the bare protocol; layered
    /// runtimes that install checkpoints use [`SeqGroup::new_with`]).
    pub fn new(n: u32, cfg: NetConfig) -> (SeqGroup, Vec<SeqMember>) {
        Self::new_with(n, cfg, BatchConfig::default(), CheckpointConfig::disabled())
    }

    /// Fully explicit constructor: group-commit and checkpoint tuning
    /// (`BatchConfig::disabled()` reproduces the unbatched protocol).
    pub fn new_with(
        n: u32,
        cfg: NetConfig,
        batch: BatchConfig,
        ckpt: CheckpointConfig,
    ) -> (SeqGroup, Vec<SeqMember>) {
        Self::new_with_base(n, cfg, batch, ckpt, 0)
    }

    /// Like [`SeqGroup::new_with`] but with a per-group local-id base:
    /// every member allocates submission ids from `base + 1` upward.
    /// When one runtime layers several groups (sharded tuple spaces), a
    /// distinct base per group keeps `(origin, local)` — and the trace
    /// ids derived from it — globally unique across groups.
    pub fn new_with_base(
        n: u32,
        cfg: NetConfig,
        batch: BatchConfig,
        ckpt: CheckpointConfig,
        local_base: u64,
    ) -> (SeqGroup, Vec<SeqMember>) {
        let (net, rxs) = SimNet::<SeqMsg>::new(n, cfg);
        let universe: Vec<HostId> = (0..n).map(HostId).collect();
        let stats = Arc::new(OrderStats::default());
        let members = rxs
            .into_iter()
            .enumerate()
            .map(|(i, rx)| {
                Self::spawn_member(
                    HostId(i as u32),
                    SeqNet::Sim(net.clone()),
                    &universe,
                    rx,
                    stats.clone(),
                    true,
                    batch,
                    ckpt,
                    local_base,
                )
            })
            .collect();
        (
            SeqGroup {
                net: SeqNet::Sim(net),
                universe,
                stats,
                batch,
                ckpt,
                local_base,
            },
            members,
        )
    }

    /// Spawn this process's member of a TCP-backed group: one shard
    /// lane of a [`crate::TcpMesh`], with the peer processes running
    /// their own members of the same logical group. With
    /// `initially_joined = false` the member boots outside the group
    /// and joins a running cluster through the tick-driven
    /// JoinReq → Snapshot path (heartbeat mode is always on over TCP).
    #[allow(clippy::too_many_arguments)]
    pub fn tcp_member(
        lane: TcpLane,
        universe: Vec<HostId>,
        me: HostId,
        rx: crossbeam::channel::Receiver<NetEvent<SeqMsg>>,
        batch: BatchConfig,
        ckpt: CheckpointConfig,
        local_base: u64,
        initially_joined: bool,
    ) -> (SeqGroup, SeqMember) {
        let stats = Arc::new(OrderStats::default());
        let member = Self::spawn_member(
            me,
            SeqNet::Tcp(lane.clone()),
            &universe,
            rx,
            stats.clone(),
            initially_joined,
            batch,
            ckpt,
            local_base,
        );
        (
            SeqGroup {
                net: SeqNet::Tcp(lane),
                universe,
                stats,
                batch,
                ckpt,
                local_base,
            },
            member,
        )
    }

    #[allow(clippy::too_many_arguments)]
    fn spawn_member(
        me: HostId,
        net: SeqNet,
        universe: &[HostId],
        rx: crossbeam::channel::Receiver<NetEvent<SeqMsg>>,
        stats: Arc<OrderStats>,
        initially_joined: bool,
        batch: BatchConfig,
        ckpt: CheckpointConfig,
        local_base: u64,
    ) -> SeqMember {
        let (dtx, drx) = crossbeam::channel::unbounded();
        let obs = Arc::new(linda_obs::Registry::new());
        // Drawn from the clock; two incarnations of the same host id
        // colliding would require booting twice in the same nanosecond.
        let incarnation = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(1);
        let state = Arc::new(Mutex::new(State::new(
            me,
            universe,
            initially_joined,
            batch,
            ckpt,
            local_base,
            net.heartbeats(),
            stats.clone(),
            &obs,
            incarnation,
            Instant::now(),
        )));
        let io = Arc::new(Io {
            me,
            net,
            dtx: Mutex::new(Some(dtx)),
        });
        let stop = Arc::new(AtomicBool::new(false));
        let member = SeqMember {
            io: io.clone(),
            state: state.clone(),
            deliveries: drx,
            stats,
            stop: stop.clone(),
            obs,
        };
        // The member's only protocol thread: it sleeps on the inbox until
        // the next timer falls due. Another thread that moves a timer
        // earlier (a client-thread submit that opens a batch) or stops
        // the member pushes a `NetEvent::Wake` into the inbox.
        std::thread::Builder::new()
            .name(format!("seq-{me}"))
            .spawn(move || {
                let mut due = state.lock().next_due(Instant::now());
                loop {
                    let ev = match due {
                        Some(d) => rx.recv_timeout(d.saturating_duration_since(Instant::now())),
                        None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
                    };
                    if stop.load(AtomicOrdering::Relaxed) {
                        break;
                    }
                    let mut st = state.lock();
                    let now = Instant::now();
                    match ev {
                        Ok(ev) => st.on_event(ev, now),
                        Err(RecvTimeoutError::Timeout) => {}
                        Err(RecvTimeoutError::Disconnected) => break,
                    }
                    st.on_timers(now);
                    io.dispatch(&mut st);
                    due = st.next_due(now);
                }
                io.dtx.lock().take();
            })
            .expect("spawn member");
        member
    }

    /// Crash a member (fail-silent).
    pub fn crash(&self, host: HostId) {
        self.net.crash(host);
    }

    /// Restart a crashed member: returns a fresh handle that rejoins the
    /// group and replays the ordered log (all deliveries are re-emitted
    /// to its application from sequence 1).
    ///
    /// The fresh member multicasts `JoinReq` rounds from its protocol
    /// thread, 5 ms apart doubling to 160 ms, until a coordinator
    /// answers — the same schedule an evicted member or a TCP member
    /// started outside the group uses. After
    /// [`SeqGroup::MAX_JOIN_ATTEMPTS`] unanswered rounds (e.g. every other
    /// member is down) it reports the failure through
    /// [`SeqMember::rejoin_error`] and a `rejoin_failed` event in its
    /// observability registry, and keeps retrying at the cap.
    pub fn restart(&self, host: HostId) -> SeqMember {
        let rx = self
            .net
            .restart(host)
            .expect("restart(): in-process restart is a Sim-transport facility; a TCP member rejoins by relaunching its process");
        Self::spawn_member(
            host,
            self.net.clone(),
            &self.universe,
            rx,
            self.stats.clone(),
            false,
            self.batch,
            self.ckpt,
            self.local_base,
        )
    }

    /// Unanswered JoinReq rounds after which an unjoined member reports
    /// a rejoin error (~2 s wall clock on the capped schedule).
    pub const MAX_JOIN_ATTEMPTS: u32 = 16;

    /// The simulated network (for stats and direct fault injection).
    ///
    /// # Panics
    /// On the TCP transport, which has no simulation controls; use
    /// [`SeqGroup::transport`] for the transport-agnostic surface.
    pub fn net(&self) -> &SimNet<SeqMsg> {
        self.net
            .sim()
            .expect("net(): simulation accessor called on the TCP transport")
    }

    /// The transport this group's members send through (works for both
    /// Sim and TCP; for live-host views and byte counters).
    pub fn transport(&self) -> &SeqNet {
        &self.net
    }

    /// Ordering-layer statistics.
    pub fn stats(&self) -> &OrderStats {
        &self.stats
    }

    /// Owned handle to the ordering-layer statistics, for background
    /// threads (e.g. the cluster's flight-recorder monitor) that outlive
    /// a borrow of the group.
    pub fn stats_handle(&self) -> Arc<OrderStats> {
        self.stats.clone()
    }

    /// Tear down the network router.
    pub fn shutdown(&self) {
        self.net.shutdown();
    }
}

impl SeqMember {
    /// This member's host id.
    pub fn host(&self) -> HostId {
        self.io.me
    }

    /// Submit a payload for totally-ordered delivery to every member.
    /// Returns the origin-local id; the corresponding [`Delivery::App`]
    /// (`origin == self`, same `local`) signals completion.
    pub fn broadcast(&self, payload: Bytes) -> LocalId {
        self.stats.record_broadcast();
        let mut st = self.state.lock();
        let now = Instant::now();
        let due = st.next_due(now);
        let local = st.submit(payload, now);
        self.io.dispatch(&mut st);
        let earlier = st
            .next_due(now)
            .is_some_and(|d| due.is_none_or(|was| d < was));
        drop(st);
        if earlier {
            // A timer (the deadline of the batch this submit opened) now
            // falls due before the member thread planned to wake.
            self.io.net.wake(self.io.me);
        }
        local
    }

    /// The ordered delivery stream. It disconnects once the member's
    /// protocol thread has exited: after [`SeqMember::stop`], or when a
    /// Sim restart of this host replaces the member's inbox.
    pub fn deliveries(&self) -> &crossbeam::channel::Receiver<Delivery> {
        &self.deliveries
    }

    /// Stop this member's protocol thread (teardown), which ends its
    /// delivery stream.
    pub fn stop(&self) {
        self.stop.store(true, AtomicOrdering::Relaxed);
        self.io.net.wake(self.io.me);
    }

    /// Number of records this member has delivered (or skipped past via a
    /// checkpoint restore): the highest contiguous sequence number seen.
    pub fn delivered_count(&self) -> u64 {
        self.state.lock().last_seq()
    }

    /// Snapshot of the member's *retained* log (tests/debugging): the
    /// records with sequence numbers `log_base()+1 ..= delivered_count()`.
    /// With checkpointing off this is the full log from seq 1.
    pub fn log(&self) -> Vec<Record> {
        self.state.lock().log.clone()
    }

    /// Hand a state-machine checkpoint image back to the ordering layer.
    ///
    /// The application calls this after snapshotting its state machine at
    /// a [`Delivery::Checkpoint`] boundary. The member records the image
    /// (to serve joiners and laggards in O(state) instead of O(history))
    /// and truncates its retained log up to `image.seq`, advancing
    /// [`SeqMember::log_base`].
    pub fn install_checkpoint(&self, image: CheckpointImage) {
        self.state.lock().install_checkpoint(image);
    }

    /// The compaction watermark: records with `seq <= log_base()` have
    /// been truncated from the retained log and are only reachable via
    /// the installed checkpoint.
    pub fn log_base(&self) -> u64 {
        self.state.lock().log_base
    }

    /// Sequence number of the most recently installed checkpoint image,
    /// or `None` if the application never handed one back.
    pub fn checkpoint_seq(&self) -> Option<u64> {
        self.state.lock().checkpoint.as_ref().map(|c| c.seq)
    }

    /// Number of records currently held in the retained log (memory
    /// bound under compaction; tests assert this stays flat).
    pub fn retained_log_len(&self) -> usize {
        self.state.lock().log.len()
    }

    /// Number of out-of-order records parked in the reorder buffer
    /// (tests assert it drains to zero once the stream is contiguous).
    pub fn buffered_len(&self) -> usize {
        self.state.lock().buffer.len()
    }

    /// This member's observability registry: the order-stage latency
    /// histogram (`ftlinda_ags_order_seconds`), rejoin counters, and the
    /// structured-event sink. The FT-Linda runtime layers its own
    /// instruments into the same registry.
    pub fn obs(&self) -> Arc<linda_obs::Registry> {
        self.obs.clone()
    }

    /// The error description once this member, while outside the group
    /// (restarted, started to join a running cluster, or evicted), has
    /// sent [`SeqGroup::MAX_JOIN_ATTEMPTS`] JoinReq rounds that no
    /// coordinator answered. It keeps retrying meanwhile; `None` before
    /// that point and again after a successful join.
    pub fn rejoin_error(&self) -> Option<String> {
        self.state.lock().rejoin_error.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::collections::{HashSet, VecDeque};
    use std::rc::Rc;
    use std::time::Instant;

    fn drain_until<F: FnMut(&Delivery) -> bool>(
        m: &SeqMember,
        mut done: F,
        within: Duration,
    ) -> Vec<Delivery> {
        let deadline = Instant::now() + within;
        let mut out = Vec::new();
        while Instant::now() < deadline {
            match m.deliveries().recv_timeout(Duration::from_millis(20)) {
                Ok(d) => {
                    let stop = done(&d);
                    out.push(d);
                    if stop {
                        break;
                    }
                }
                Err(_) => continue,
            }
        }
        out
    }

    fn collect_n(m: &SeqMember, n: usize, within: Duration) -> Vec<Delivery> {
        let mut count = 0;
        drain_until(
            m,
            |_| {
                count += 1;
                count >= n
            },
            within,
        )
    }

    /// Poll until both members report identical logs (condition-based
    /// replacement for "sleep and hope they've converged").
    fn assert_logs_converge(a: &SeqMember, b: &SeqMember, within: Duration) {
        let deadline = Instant::now() + within;
        loop {
            let (la, lb) = (a.log(), b.log());
            if la == lb {
                return;
            }
            if Instant::now() >= deadline {
                assert_eq!(la, lb, "logs did not converge within {within:?}");
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Poll until the physical message counter stops moving (three
    /// consecutive identical samples), then return the final snapshot.
    fn quiesced_msgs(g: &SeqGroup, within: Duration) -> u64 {
        let deadline = Instant::now() + within;
        let mut last = g.net().stats().snapshot().0;
        let mut stable = 0;
        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
            let now = g.net().stats().snapshot().0;
            if now == last {
                stable += 1;
                if stable >= 3 {
                    break;
                }
            } else {
                stable = 0;
                last = now;
            }
        }
        last
    }

    #[test]
    fn single_member_self_order() {
        let (g, ms) = SeqGroup::new(1, NetConfig::instant());
        let local = ms[0].broadcast(Bytes::from_static(b"hello"));
        let ds = collect_n(&ms[0], 1, Duration::from_secs(2));
        assert_eq!(ds.len(), 1);
        match &ds[0] {
            Delivery::App {
                seq,
                origin,
                local: l,
                payload,
            } => {
                assert_eq!(*seq, 1);
                assert_eq!(*origin, HostId(0));
                assert_eq!(*l, local);
                assert_eq!(&payload[..], b"hello");
            }
            other => panic!("unexpected {other:?}"),
        }
        g.shutdown();
    }

    #[test]
    fn three_members_same_total_order() {
        let (g, ms) = SeqGroup::new(3, NetConfig::instant());
        let per = 20;
        for i in 0..per {
            for m in &ms {
                m.broadcast(Bytes::from(format!("{}-{}", m.host(), i)));
            }
        }
        let total = per * 3;
        let logs: Vec<Vec<Delivery>> = ms
            .iter()
            .map(|m| collect_n(m, total, Duration::from_secs(5)))
            .collect();
        for log in &logs {
            assert_eq!(log.len(), total, "every member delivers everything");
        }
        assert_eq!(logs[0], logs[1]);
        assert_eq!(logs[1], logs[2]);
        for (i, d) in logs[0].iter().enumerate() {
            assert_eq!(d.seq(), (i + 1) as u64);
        }
        g.shutdown();
    }

    #[test]
    fn concurrent_broadcasters_exactly_once() {
        let (g, ms) = SeqGroup::new(3, NetConfig::lan(Duration::from_micros(100)));
        let ms = Arc::new(ms);
        let per = 50;
        let threads: Vec<_> = (0..3)
            .map(|i| {
                let ms = ms.clone();
                std::thread::spawn(move || {
                    for k in 0..per {
                        ms[i].broadcast(Bytes::from(format!("{i}:{k}")));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let total = per * 3;
        let log0 = collect_n(&ms[0], total, Duration::from_secs(10));
        assert_eq!(log0.len(), total);
        let mut seen = HashSet::new();
        for d in &log0 {
            if let Delivery::App { payload, .. } = d {
                assert!(seen.insert(payload.clone()), "duplicate delivery");
            }
        }
        assert_eq!(seen.len(), total);
        g.shutdown();
    }

    #[test]
    fn member_crash_produces_one_fail_record() {
        let (g, ms) = SeqGroup::new(3, NetConfig::instant());
        ms[0].broadcast(Bytes::from_static(b"a"));
        let _ = collect_n(&ms[0], 1, Duration::from_secs(2));
        g.crash(HostId(2));
        let ds = drain_until(
            &ms[0],
            |d| matches!(d, Delivery::Fail { host, .. } if *host == HostId(2)),
            Duration::from_secs(2),
        );
        let fails = ds
            .iter()
            .filter(|d| matches!(d, Delivery::Fail { .. }))
            .count();
        assert_eq!(fails, 1);
        let ds1 = drain_until(
            &ms[1],
            |d| matches!(d, Delivery::Fail { .. }),
            Duration::from_secs(2),
        );
        assert_eq!(
            ds.iter()
                .find(|d| matches!(d, Delivery::Fail { .. }))
                .map(Delivery::seq),
            ds1.iter()
                .find(|d| matches!(d, Delivery::Fail { .. }))
                .map(Delivery::seq)
        );
        g.shutdown();
    }

    #[test]
    fn coordinator_failover_preserves_order_and_liveness() {
        let (g, ms) = SeqGroup::new(3, NetConfig::instant());
        for i in 0..10 {
            ms[1].broadcast(Bytes::from(format!("pre{i}")));
        }
        let _ = collect_n(&ms[1], 10, Duration::from_secs(3));
        let _ = collect_n(&ms[2], 10, Duration::from_secs(3));
        g.crash(HostId(0)); // the coordinator
        let _ = drain_until(
            &ms[1],
            |d| matches!(d, Delivery::Fail { host, .. } if *host == HostId(0)),
            Duration::from_secs(3),
        );
        for i in 0..10 {
            ms[2].broadcast(Bytes::from(format!("post{i}")));
        }
        let d1 = collect_n(&ms[1], 10, Duration::from_secs(3));
        let apps1: Vec<_> = d1
            .iter()
            .filter(|d| matches!(d, Delivery::App { .. }))
            .collect();
        assert_eq!(apps1.len(), 10);
        assert_logs_converge(&ms[1], &ms[2], Duration::from_secs(3));
        g.shutdown();
    }

    #[test]
    fn inflight_submission_to_dead_coordinator_is_not_lost() {
        let cfg = NetConfig {
            latency: Duration::from_millis(5),
            detect_delay: Duration::from_millis(2),
            ..NetConfig::default()
        };
        let (g, ms) = SeqGroup::new(3, cfg);
        ms[1].broadcast(Bytes::from_static(b"risky"));
        g.crash(HostId(0));
        let ds = drain_until(
            &ms[2],
            |d| matches!(d, Delivery::App { payload, .. } if &payload[..] == b"risky"),
            Duration::from_secs(3),
        );
        assert!(
            ds.iter()
                .any(|d| matches!(d, Delivery::App { payload, .. } if &payload[..] == b"risky")),
            "submission lost after coordinator crash"
        );
        g.shutdown();
    }

    #[test]
    fn double_failover() {
        let (g, ms) = SeqGroup::new(4, NetConfig::instant());
        ms[3].broadcast(Bytes::from_static(b"a"));
        let _ = collect_n(&ms[3], 1, Duration::from_secs(2));
        g.crash(HostId(0));
        let _ = drain_until(
            &ms[3],
            |d| matches!(d, Delivery::Fail { host, .. } if *host == HostId(0)),
            Duration::from_secs(3),
        );
        g.crash(HostId(1));
        let _ = drain_until(
            &ms[3],
            |d| matches!(d, Delivery::Fail { host, .. } if *host == HostId(1)),
            Duration::from_secs(3),
        );
        ms[3].broadcast(Bytes::from_static(b"b"));
        let ds = drain_until(
            &ms[2],
            |d| matches!(d, Delivery::App { payload, .. } if &payload[..] == b"b"),
            Duration::from_secs(3),
        );
        assert!(ds
            .iter()
            .any(|d| matches!(d, Delivery::App { payload, .. } if &payload[..] == b"b")));
        assert_logs_converge(&ms[2], &ms[3], Duration::from_secs(3));
        g.shutdown();
    }

    #[test]
    fn restart_rejoins_and_replays_full_log() {
        let (g, ms) = SeqGroup::new(3, NetConfig::instant());
        for i in 0..5 {
            ms[0].broadcast(Bytes::from(format!("x{i}")));
        }
        let _ = collect_n(&ms[1], 5, Duration::from_secs(3));
        g.crash(HostId(2));
        let _ = drain_until(
            &ms[1],
            |d| matches!(d, Delivery::Fail { host, .. } if *host == HostId(2)),
            Duration::from_secs(3),
        );
        let m2 = g.restart(HostId(2));
        let ds = drain_until(
            &m2,
            |d| matches!(d, Delivery::Join { host, .. } if *host == HostId(2)),
            Duration::from_secs(5),
        );
        let apps = ds
            .iter()
            .filter(|d| matches!(d, Delivery::App { .. }))
            .count();
        assert_eq!(apps, 5, "joiner must replay all app records");
        assert!(ds
            .iter()
            .any(|d| matches!(d, Delivery::Fail { host, .. } if *host == HostId(2))));
        m2.broadcast(Bytes::from_static(b"back"));
        let ds2 = drain_until(
            &m2,
            |d| matches!(d, Delivery::App { payload, .. } if &payload[..] == b"back"),
            Duration::from_secs(3),
        );
        assert!(!ds2.is_empty());
        assert_logs_converge(&ms[0], &m2, Duration::from_secs(3));
        g.shutdown();
    }

    #[test]
    fn message_cost_is_n_messages_per_broadcast() {
        // 1 Submit + (n-1) Ordered per broadcast from a non-coordinator;
        // coordinator broadcasts cost n-1. This is the "single multicast
        // message per AGS" accounting baseline for E9.
        let (g, ms) = SeqGroup::new(4, NetConfig::instant());
        g.net().stats().reset();
        ms[1].broadcast(Bytes::from_static(b"m"));
        let _ = collect_n(&ms[1], 1, Duration::from_secs(2));
        let msgs = quiesced_msgs(&g, Duration::from_secs(2));
        assert_eq!(msgs, 4, "1 submit + 3 ordered");
        g.net().stats().reset();
        ms[0].broadcast(Bytes::from_static(b"m"));
        let _ = collect_n(&ms[0], 1, Duration::from_secs(2));
        let msgs = quiesced_msgs(&g, Duration::from_secs(2));
        assert_eq!(msgs, 3, "coordinator pays only the fan-out");
        g.shutdown();
    }

    #[test]
    fn concurrent_submits_coalesce_into_batches() {
        let batch = BatchConfig {
            window: Duration::from_millis(5),
            max_entries: 64,
            ..BatchConfig::default()
        };
        let (g, ms) =
            SeqGroup::new_with(3, NetConfig::instant(), batch, CheckpointConfig::disabled());
        let ms = Arc::new(ms);
        let per = 100;
        let threads: Vec<_> = (0..3)
            .map(|i| {
                let ms = ms.clone();
                std::thread::spawn(move || {
                    for k in 0..per {
                        ms[i].broadcast(Bytes::from(format!("{i}:{k}")));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let total = per * 3;
        let log0 = collect_n(&ms[0], total, Duration::from_secs(10));
        assert_eq!(log0.len(), total, "every submit delivered");
        let mut seen = HashSet::new();
        for (i, d) in log0.iter().enumerate() {
            assert_eq!(d.seq(), (i + 1) as u64, "contiguous total order");
            if let Delivery::App { payload, .. } = d {
                assert!(seen.insert(payload.clone()), "duplicate delivery");
            }
        }
        assert_eq!(seen.len(), total);
        assert!(
            g.stats().ordered_multicasts() < g.stats().broadcasts(),
            "group commit must amortize: {} multicasts for {} broadcasts",
            g.stats().ordered_multicasts(),
            g.stats().broadcasts()
        );
        assert!(g.stats().batches() >= 1, "at least one multi-entry batch");
        assert_logs_converge(&ms[0], &ms[1], Duration::from_secs(3));
        assert_logs_converge(&ms[1], &ms[2], Duration::from_secs(3));
        g.shutdown();
    }

    #[test]
    fn disabled_batching_matches_classic_message_cost() {
        let (g, ms) = SeqGroup::new_with(
            4,
            NetConfig::instant(),
            BatchConfig::disabled(),
            CheckpointConfig::disabled(),
        );
        g.net().stats().reset();
        ms[1].broadcast(Bytes::from_static(b"m"));
        let _ = collect_n(&ms[1], 1, Duration::from_secs(2));
        assert_eq!(quiesced_msgs(&g, Duration::from_secs(2)), 4);
        g.net().stats().reset();
        ms[0].broadcast(Bytes::from_static(b"m"));
        let _ = collect_n(&ms[0], 1, Duration::from_secs(2));
        assert_eq!(quiesced_msgs(&g, Duration::from_secs(2)), 3);
        assert_eq!(g.stats().ordered_multicasts(), g.stats().broadcasts());
        assert_eq!(g.stats().batches(), 0, "never coalesces when disabled");
        g.shutdown();
    }

    /// Liveness of the deadline flusher: rapid submits that coalesce must
    /// still deliver without any further traffic to trigger a flush.
    #[test]
    fn open_batch_flushes_on_deadline() {
        let batch = BatchConfig {
            window: Duration::from_millis(5),
            max_entries: 1024,
            ..BatchConfig::default()
        };
        let (g, ms) =
            SeqGroup::new_with(2, NetConfig::instant(), batch, CheckpointConfig::disabled());
        for i in 0..10 {
            ms[1].broadcast(Bytes::from(format!("{i}")));
        }
        let ds = collect_n(&ms[1], 10, Duration::from_secs(5));
        assert_eq!(ds.len(), 10, "deadline flush must drain the batch");
        for (i, d) in ds.iter().enumerate() {
            assert_eq!(d.seq(), (i + 1) as u64);
        }
        g.shutdown();
    }

    /// A batch opened by a broadcast on the coordinator's own host — on
    /// the client thread, not the member thread — flushes at its
    /// deadline with no other traffic, although the member thread's
    /// next heartbeat tick is seconds away.
    #[test]
    fn coordinator_host_batch_flushes_on_deadline() {
        let cfg = NetConfig {
            heartbeats: Some(crate::net::Heartbeat {
                period: Duration::from_secs(20),
                timeout: Duration::from_secs(60),
            }),
            ..NetConfig::instant()
        };
        let batch = BatchConfig {
            window: Duration::from_millis(500),
            max_entries: 1024,
            ..BatchConfig::default()
        };
        let (g, ms) = SeqGroup::new_with(2, cfg, batch, CheckpointConfig::disabled());
        // Host 0's member thread flushes `w` solo and delivers it under
        // the state lock, which it holds until it has chosen its next
        // wake-up: the heartbeat tick, 10 s away.
        ms[1].broadcast(Bytes::from_static(b"w"));
        assert_eq!(collect_n(&ms[0], 1, Duration::from_secs(5)).len(), 1);
        // Within the window of that flush: opens a batch.
        let local = ms[0].broadcast(Bytes::from_static(b"b"));
        let ds = collect_n(&ms[0], 1, Duration::from_secs(5));
        assert_eq!(ds.len(), 1, "the open batch must flush at its deadline");
        assert!(matches!(&ds[0], Delivery::App { payload, .. } if &payload[..] == b"b"));
        let spans = ms[0]
            .obs()
            .spans()
            .spans_of(linda_obs::TraceId::new(0, local));
        let flush = spans
            .iter()
            .find(|s| s.stage == "flush")
            .expect("flush span");
        assert_ne!(flush.field("queued_us"), Some("0"), "b waited in a batch");
        g.shutdown();
    }

    /// The byte-size trigger: a long window and a huge entry cap, but a
    /// small byte threshold, must still flush as soon as the coalesced
    /// payloads cross the threshold — no waiting out the window.
    #[test]
    fn open_batch_flushes_on_byte_threshold() {
        let batch = BatchConfig {
            window: Duration::from_secs(5),
            max_entries: 1024,
            max_bytes: 4 * 1024,
        };
        let (g, ms) =
            SeqGroup::new_with(2, NetConfig::instant(), batch, CheckpointConfig::disabled());
        let payload = Bytes::from(vec![7u8; 1024]);
        // First submit flushes solo (idle); the next four coalesce and
        // their 4 KiB crosses the threshold well before the 5 s window.
        let t0 = Instant::now();
        for _ in 0..5 {
            ms[1].broadcast(payload.clone());
        }
        let ds = collect_n(&ms[1], 5, Duration::from_secs(3));
        assert_eq!(ds.len(), 5, "byte trigger must flush the batch");
        assert!(
            t0.elapsed() < Duration::from_secs(4),
            "flush must not wait for the window deadline"
        );
        for (i, d) in ds.iter().enumerate() {
            assert_eq!(d.seq(), (i + 1) as u64);
        }
        g.shutdown();
    }

    /// Batching on: the coordinator records a "flush" span and every
    /// member a "deliver" span for each entry, tagged with the batch
    /// size and queueing delay.
    #[test]
    fn spans_cover_flush_and_deliver() {
        let (g, ms) = SeqGroup::new_with(
            2,
            NetConfig::instant(),
            BatchConfig {
                window: Duration::from_millis(2),
                ..BatchConfig::default()
            },
            CheckpointConfig::disabled(),
        );
        let mut locals = Vec::new();
        for i in 0..8 {
            locals.push((HostId(1), ms[1].broadcast(Bytes::from(format!("{i}")))));
        }
        let _ = collect_n(&ms[1], 8, Duration::from_secs(5));
        // Wait for member 1's deliveries to also land in member 0's log.
        assert_logs_converge(&ms[0], &ms[1], Duration::from_secs(3));
        for (origin, local) in locals {
            let id = linda_obs::TraceId::new(origin.0, local);
            let flush = ms[0].obs().spans().spans_of(id);
            let flush: Vec<_> = flush.iter().filter(|s| s.stage == "flush").collect();
            assert_eq!(flush.len(), 1, "exactly one flush span at the coordinator");
            assert!(flush[0].field("queued_us").is_some());
            assert!(flush[0].field("batch").is_some());
            for m in &ms {
                let deliver = m
                    .obs()
                    .spans()
                    .spans_of(id)
                    .into_iter()
                    .filter(|s| s.stage == "deliver")
                    .count();
                assert_eq!(deliver, 1, "one deliver span per member for {id}");
            }
        }
        g.shutdown();
    }

    /// Coordinator crash: surviving members emit a structured
    /// `coordinator_failover` event naming old and new coordinators.
    #[test]
    fn failover_emits_event() {
        let (g, ms) = SeqGroup::new(3, NetConfig::instant());
        ms[1].broadcast(Bytes::from_static(b"a"));
        let _ = collect_n(&ms[1], 1, Duration::from_secs(2));
        g.crash(HostId(0));
        let _ = drain_until(
            &ms[1],
            |d| matches!(d, Delivery::Fail { host, .. } if *host == HostId(0)),
            Duration::from_secs(3),
        );
        let evs = ms[1].obs().events().recent_of("coordinator_failover");
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].field("failed"), Some("host0"));
        assert_eq!(evs[0].field("new_coord"), Some("host1"));
        g.shutdown();
    }

    /// A view change forces the open batch out first, so the Fail record
    /// lands after the batched entries in the total order.
    #[test]
    fn view_change_flushes_open_batch_first() {
        let batch = BatchConfig {
            window: Duration::from_millis(500),
            max_entries: 1024,
            ..BatchConfig::default()
        };
        let (g, ms) =
            SeqGroup::new_with(3, NetConfig::instant(), batch, CheckpointConfig::disabled());
        ms[1].broadcast(Bytes::from_static(b"a")); // solo (idle flush)
        ms[1].broadcast(Bytes::from_static(b"b")); // opens a batch
        ms[1].broadcast(Bytes::from_static(b"c")); // joins the batch
        std::thread::sleep(Duration::from_millis(50));
        g.crash(HostId(2));
        let ds = collect_n(&ms[0], 4, Duration::from_secs(5));
        assert_eq!(ds.len(), 4);
        assert!(matches!(&ds[0], Delivery::App { payload, .. } if &payload[..] == b"a"));
        assert!(matches!(&ds[1], Delivery::App { payload, .. } if &payload[..] == b"b"));
        assert!(matches!(&ds[2], Delivery::App { payload, .. } if &payload[..] == b"c"));
        assert!(
            matches!(&ds[3], Delivery::Fail { host, seq } if *host == HostId(2) && *seq == 4),
            "Fail must follow the flushed batch, got {:?}",
            ds[3]
        );
        assert_logs_converge(&ms[0], &ms[1], Duration::from_secs(3));
        g.shutdown();
    }

    #[test]
    fn latency_network_converges() {
        let cfg = NetConfig::lan(Duration::from_micros(500));
        let (g, ms) = SeqGroup::new(3, cfg);
        for i in 0..30 {
            ms[(i % 3) as usize].broadcast(Bytes::from(format!("{i}")));
        }
        for m in ms.iter() {
            let ds = collect_n(m, 30, Duration::from_secs(10));
            assert_eq!(ds.len(), 30);
        }
        assert_eq!(ms[0].log(), ms[1].log());
        assert_eq!(ms[1].log(), ms[2].log());
        g.shutdown();
    }

    #[test]
    fn delivered_count_tracks_log() {
        let (g, ms) = SeqGroup::new(2, NetConfig::instant());
        ms[0].broadcast(Bytes::from_static(b"1"));
        let _ = collect_n(&ms[0], 1, Duration::from_secs(2));
        assert_eq!(ms[0].delivered_count(), 1);
        g.shutdown();
    }

    /// Like `drain_until`, but stands in for the application: whenever a
    /// `Checkpoint` boundary is delivered, hand a synthetic state image
    /// back to the member so compaction can run.
    fn drain_installing<F: FnMut(&Delivery) -> bool>(
        m: &SeqMember,
        mut done: F,
        within: Duration,
    ) -> Vec<Delivery> {
        let deadline = Instant::now() + within;
        let mut out = Vec::new();
        while Instant::now() < deadline {
            match m.deliveries().recv_timeout(Duration::from_millis(20)) {
                Ok(d) => {
                    if let Delivery::Checkpoint { seq } = d {
                        m.install_checkpoint(CheckpointImage {
                            seq,
                            digest: 0,
                            bytes: Bytes::from_static(b"state-image"),
                        });
                    }
                    let stop = done(&d);
                    out.push(d);
                    if stop {
                        break;
                    }
                }
                Err(_) => continue,
            }
        }
        out
    }

    fn drain_apps_installing(m: &SeqMember, apps: usize, within: Duration) -> Vec<Delivery> {
        let mut seen = 0;
        let mut ds = drain_installing(
            m,
            |d| {
                if matches!(d, Delivery::App { .. }) {
                    seen += 1;
                }
                seen >= apps
            },
            within,
        );
        // Grace drain: pick up (and install) any trailing markers.
        ds.extend(drain_installing(m, |_| false, Duration::from_millis(100)));
        ds
    }

    #[test]
    fn compaction_bounds_retained_log() {
        let ckpt = CheckpointConfig { every: 4 };
        let (g, ms) = SeqGroup::new_with(2, NetConfig::instant(), BatchConfig::disabled(), ckpt);
        let total = 40;
        for i in 0..total {
            ms[0].broadcast(Bytes::from(format!("x{i}")));
        }
        for m in &ms {
            let ds = drain_apps_installing(m, total, Duration::from_secs(5));
            assert!(
                ds.iter().any(|d| matches!(d, Delivery::Checkpoint { .. })),
                "coordinator must emit ordered checkpoint markers"
            );
            assert!(
                m.log_base() >= 40,
                "compaction watermark must advance (log_base = {})",
                m.log_base()
            );
            assert!(
                m.retained_log_len() <= 2 * ckpt.every as usize,
                "retained log must stay bounded, got {} records",
                m.retained_log_len()
            );
        }
        g.shutdown();
    }

    #[test]
    fn rejoin_ships_checkpoint_and_tail_not_history() {
        let ckpt = CheckpointConfig { every: 4 };
        let (g, ms) = SeqGroup::new_with(3, NetConfig::instant(), BatchConfig::disabled(), ckpt);
        g.crash(HostId(2));
        let _ = drain_installing(
            &ms[0],
            |d| matches!(d, Delivery::Fail { host, .. } if *host == HostId(2)),
            Duration::from_secs(3),
        );
        let total = 20;
        for i in 0..total {
            ms[0].broadcast(Bytes::from(format!("x{i}")));
        }
        let _ = drain_apps_installing(&ms[0], total, Duration::from_secs(5));
        let cp = ms[0]
            .checkpoint_seq()
            .expect("coordinator must hold a checkpoint");
        assert!(cp >= total as u64, "checkpoint must cover the history");

        let m2 = g.restart(HostId(2));
        let ds = drain_until(
            &m2,
            |d| matches!(d, Delivery::Join { host, .. } if *host == HostId(2)),
            Duration::from_secs(5),
        );
        assert!(
            matches!(&ds[0], Delivery::Restore { image } if image.seq == cp),
            "rejoin must start with the coordinator's checkpoint, got {:?}",
            ds.first()
        );
        let replayed_apps = ds
            .iter()
            .filter(|d| matches!(d, Delivery::App { .. }))
            .count();
        assert!(
            replayed_apps < total,
            "joiner must replay only the tail past the checkpoint, replayed {replayed_apps}"
        );
        assert_eq!(m2.log_base(), cp, "joiner adopts the watermark");

        // Liveness after a checkpointed rejoin.
        m2.broadcast(Bytes::from_static(b"back"));
        let ds2 = drain_until(
            &m2,
            |d| matches!(d, Delivery::App { payload, .. } if &payload[..] == b"back"),
            Duration::from_secs(3),
        );
        assert!(!ds2.is_empty());
        g.shutdown();
    }

    #[test]
    fn nack_below_watermark_answered_with_snapshot() {
        let ckpt = CheckpointConfig { every: 4 };
        let (g, ms) = SeqGroup::new_with(2, NetConfig::instant(), BatchConfig::disabled(), ckpt);
        let total = 12;
        for i in 0..total {
            ms[0].broadcast(Bytes::from(format!("x{i}")));
        }
        // Only the coordinator compacts; member 1 drains without installing.
        let _ = drain_apps_installing(&ms[0], total, Duration::from_secs(5));
        let mut seen = 0;
        let _ = drain_until(
            &ms[1],
            |d| {
                if matches!(d, Delivery::App { .. }) {
                    seen += 1;
                }
                seen >= total
            },
            Duration::from_secs(5),
        );
        let base = ms[0].log_base();
        assert!(base > 2, "coordinator must have compacted");

        // Force member 1 far behind the coordinator's watermark, as if it
        // had missed a long stretch of traffic.
        {
            let mut st = ms[1].state.lock();
            st.log.truncate(2);
            st.buffer.clear();
            st.nacked_for = None;
        }

        // The next record opens a gap whose NACK falls below the
        // coordinator's log_base; the answer must be a full snapshot.
        ms[0].broadcast(Bytes::from_static(b"extra"));
        let ds = drain_until(
            &ms[1],
            |d| matches!(d, Delivery::App { payload, .. } if &payload[..] == b"extra"),
            Duration::from_secs(5),
        );
        assert!(
            ds.iter()
                .any(|d| matches!(d, Delivery::Restore { image } if image.seq == base)),
            "laggard must catch up via checkpoint restore, got {ds:?}"
        );
        assert_eq!(ms[1].log_base(), base);
        assert_eq!(ms[1].buffered_len(), 0, "reorder buffer must drain");
        assert_eq!(ms[1].delivered_count(), ms[0].delivered_count());
        g.shutdown();
    }

    #[test]
    fn stale_buffer_entries_pruned_once_contiguous() {
        let (g, ms) = SeqGroup::new(2, NetConfig::instant());
        for i in 0..3 {
            ms[0].broadcast(Bytes::from(format!("x{i}")));
        }
        let _ = collect_n(&ms[1], 3, Duration::from_secs(3));
        // Park already-logged records in the reorder buffer, as a belated
        // retransmit that lost the race with normal delivery would.
        {
            let mut st = ms[1].state.lock();
            let stale: Vec<Record> = st.log.iter().take(2).cloned().collect();
            for r in stale {
                st.buffer.insert(r.seq, r);
            }
            assert_eq!(st.buffer.len(), 2);
        }
        ms[0].broadcast(Bytes::from_static(b"next"));
        let _ = drain_until(
            &ms[1],
            |d| matches!(d, Delivery::App { payload, .. } if &payload[..] == b"next"),
            Duration::from_secs(3),
        );
        let deadline = Instant::now() + Duration::from_secs(2);
        while ms[1].buffered_len() != 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(
            ms[1].buffered_len(),
            0,
            "stale records below the contiguous frontier must be pruned"
        );
        assert_logs_converge(&ms[0], &ms[1], Duration::from_secs(3));
        g.shutdown();
    }

    /// Records in `m`'s log whose body is `Fail(h)` and `Join(h)`.
    fn fails_and_joins(m: &SeqMember, h: HostId) -> (usize, usize) {
        m.log().iter().fold((0, 0), |(f, j), r| match r.body {
            RecordBody::Fail(x) if x == h => (f + 1, j),
            RecordBody::Join(x) if x == h => (f, j + 1),
            _ => (f, j),
        })
    }

    /// Whether `m`'s log holds an `App` record carrying `payload`.
    fn logged(m: &SeqMember, payload: &[u8]) -> bool {
        m.log()
            .iter()
            .any(|r| matches!(&r.body, RecordBody::App(p) if &p[..] == payload))
    }

    /// Poll until `done` holds, failing with `what` after `within`.
    fn wait_for(what: &str, within: Duration, mut done: impl FnMut() -> bool) {
        let deadline = Instant::now() + within;
        while !done() {
            assert!(Instant::now() < deadline, "{what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    /// A member crash followed at once by a coordinator crash: only the
    /// dead coordinator had acted on the member's crash, so the new
    /// coordinator must order that `Fail` too, next to its predecessor's.
    #[test]
    fn member_then_coordinator_crash_orders_one_fail_each() {
        let (g, ms) = SeqGroup::new(3, NetConfig::instant());
        ms[1].broadcast(Bytes::from_static(b"warm"));
        let _ = collect_n(&ms[1], 1, Duration::from_secs(2));
        g.crash(HostId(2));
        g.crash(HostId(0));
        wait_for("both failures ordered", Duration::from_secs(3), || {
            fails_and_joins(&ms[1], HostId(0)).0 > 0 && fails_and_joins(&ms[1], HostId(2)).0 > 0
        });
        // Give a duplicate the time to show up.
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(fails_and_joins(&ms[1], HostId(0)), (1, 0));
        assert_eq!(fails_and_joins(&ms[1], HostId(2)), (1, 0));
        g.shutdown();
    }

    /// Heartbeat mode on a link slower than the 5 ms JoinReq retry: the
    /// restarted member's retried JoinReqs reach the coordinator after
    /// its join was served, and must not be taken for new crashes.
    #[test]
    fn heartbeat_retried_join_orders_one_fail_and_one_join() {
        let cfg = NetConfig {
            latency: Duration::from_millis(10),
            heartbeats: Some(crate::net::Heartbeat {
                period: Duration::from_millis(5),
                timeout: Duration::from_millis(100),
            }),
            ..NetConfig::default()
        };
        let (g, ms) = SeqGroup::new(3, cfg);
        ms[0].broadcast(Bytes::from_static(b"warm"));
        wait_for("warm-up delivered", Duration::from_secs(3), || {
            ms[2].delivered_count() >= 1
        });
        g.crash(HostId(2));
        wait_for("crash detected", Duration::from_secs(3), || {
            fails_and_joins(&ms[0], HostId(2)).0 > 0
        });
        let m2 = g.restart(HostId(2));
        m2.broadcast(Bytes::from_static(b"back"));
        wait_for(
            "rejoined member's broadcast",
            Duration::from_secs(5),
            || logged(&ms[0], b"back"),
        );
        // Let every JoinReq round still on the wire arrive.
        std::thread::sleep(Duration::from_millis(200));
        assert_eq!(fails_and_joins(&ms[0], HostId(2)), (1, 1));
        assert_logs_converge(&ms[0], &m2, Duration::from_secs(3));
        g.shutdown();
    }

    /// Heartbeat mode: the coordinator and a member crash, and the member
    /// restarts before the survivor's detector fires. The survivor takes
    /// its JoinReq as a crash verdict while still following the dead
    /// coordinator, then declares that one silent, parks as an isolated
    /// coordinator and re-admits the member when its next JoinReq
    /// arrives. The member must still get a Fail and a Join: the Join
    /// is the boundary that lets its new incarnation's submits through.
    #[test]
    fn heartbeat_readmitted_member_gets_fail_and_join() {
        let cfg = NetConfig {
            latency: Duration::from_micros(100),
            heartbeats: Some(crate::net::Heartbeat {
                period: Duration::from_millis(5),
                timeout: Duration::from_millis(100),
            }),
            ..NetConfig::default()
        };
        let (g, ms) = SeqGroup::new(3, cfg);
        ms[1].broadcast(Bytes::from_static(b"old"));
        wait_for("warm-up delivered", Duration::from_secs(3), || {
            ms[2].delivered_count() >= 1
        });
        g.crash(HostId(0));
        g.crash(HostId(1));
        let m1 = g.restart(HostId(1));
        m1.broadcast(Bytes::from_static(b"new"));
        wait_for(
            "new incarnation's broadcast",
            Duration::from_secs(5),
            || logged(&ms[2], b"new"),
        );
        assert_eq!(fails_and_joins(&ms[2], HostId(0)), (1, 0));
        assert_eq!(fails_and_joins(&ms[2], HostId(1)), (1, 1));
        g.shutdown();
    }

    #[test]
    fn broadcast_timestamps_drain_at_quiescence() {
        let batch = BatchConfig {
            window: Duration::from_millis(2),
            ..BatchConfig::default()
        };
        let (g, ms) =
            SeqGroup::new_with(3, NetConfig::instant(), batch, CheckpointConfig::disabled());
        let ms = Arc::new(ms);
        let per = 50;
        let threads: Vec<_> = (0..3)
            .map(|i| {
                let ms = ms.clone();
                std::thread::spawn(move || {
                    for k in 0..per {
                        ms[i].broadcast(Bytes::from(format!("{i}:{k}")));
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        for m in ms.iter() {
            let _ = collect_n(m, per * 3, Duration::from_secs(10));
            let deadline = Instant::now() + Duration::from_secs(3);
            loop {
                let (inserts, removes, live) = {
                    let st = m.state.lock();
                    (st.ba_inserts, st.ba_removes, st.broadcast_at.len())
                };
                if inserts == removes && live == 0 {
                    break;
                }
                assert!(
                    Instant::now() < deadline,
                    "host {:?} leaked broadcast timestamps: {inserts} inserts, \
                     {removes} removes, {live} live",
                    m.host()
                );
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        g.shutdown();
    }

    /// Step harness: `n` members' [`State`]s on a virtual clock, with no
    /// threads and no sleeps. Each link is a FIFO queue, and `lose`
    /// decides per message whether its link drops it. Messages move only
    /// in [`Steps::run`], time only in [`Steps::advance`].
    struct Steps {
        now: Instant,
        members: Vec<State>,
        crashed: Vec<bool>,
        links: BTreeMap<(HostId, HostId), VecDeque<SeqMsg>>,
        delivered: Vec<Vec<Delivery>>,
        lose: Loss,
    }

    /// Whether the link `from → to` loses this message.
    type Loss = Box<dyn FnMut(HostId, HostId, &SeqMsg) -> bool>;

    impl Steps {
        /// `n` founding members with host 0 as coordinator and
        /// checkpoints off. Crashes are detected by heartbeats when `hb`
        /// is set, else by the oracle's notice (see [`Steps::crash`]).
        fn new(n: u32, hb: Option<Heartbeat>) -> Steps {
            let now = Instant::now();
            let universe: Vec<HostId> = (0..n).map(HostId).collect();
            let stats = Arc::new(OrderStats::default());
            let members = universe
                .iter()
                .map(|&h| {
                    State::new(
                        h,
                        &universe,
                        true,
                        BatchConfig::default(),
                        CheckpointConfig::disabled(),
                        0,
                        hb,
                        stats.clone(),
                        &linda_obs::Registry::new(),
                        u64::from(h.0) + 1,
                        now,
                    )
                })
                .collect();
            Steps {
                now,
                members,
                crashed: vec![false; n as usize],
                links: BTreeMap::new(),
                delivered: vec![Vec::new(); n as usize],
                lose: Box::new(|_, _, _| false),
            }
        }

        fn live(&self) -> Vec<HostId> {
            (0..self.members.len() as u32)
                .map(HostId)
                .filter(|h| !self.crashed[h.0 as usize])
                .collect()
        }

        /// Move `h`'s outputs onto the links and into its deliveries.
        fn collect(&mut self, h: HostId) {
            for out in std::mem::take(&mut self.members[h.0 as usize].out) {
                match out {
                    Output::Send(to, msg) => self.post(h, to, msg),
                    Output::Multicast(to, msg) => {
                        for t in to {
                            self.post(h, t, msg.clone());
                        }
                    }
                    Output::Deliver(d) => self.delivered[h.0 as usize].push(d),
                }
            }
        }

        fn post(&mut self, from: HostId, to: HostId, msg: SeqMsg) {
            if self.crashed[from.0 as usize]
                || self.crashed[to.0 as usize]
                || (self.lose)(from, to, &msg)
            {
                return;
            }
            self.links.entry((from, to)).or_default().push_back(msg);
        }

        /// One input for `h`, then its timers, as its member thread runs
        /// them.
        fn input(&mut self, h: HostId, ev: NetEvent<SeqMsg>) {
            let st = &mut self.members[h.0 as usize];
            st.on_event(ev, self.now);
            st.on_timers(self.now);
            self.collect(h);
        }

        fn submit(&mut self, h: HostId, payload: &'static [u8]) {
            self.members[h.0 as usize].submit(Bytes::from_static(payload), self.now);
            self.collect(h);
        }

        /// Deliver every message in flight, and those they cause.
        fn run(&mut self) {
            for _ in 0..100_000 {
                let Some(mut link) = self.links.first_entry() else {
                    return;
                };
                let (from, to) = *link.key();
                let msg = link.get_mut().pop_front().expect("no link queue is empty");
                if link.get().is_empty() {
                    link.remove();
                }
                self.input(to, NetEvent::Msg { from, msg });
            }
            panic!("messages still moving after 100000 steps");
        }

        /// Let `d` of virtual time pass: at each instant a live member's
        /// timer falls due, run every live member's timers and deliver
        /// what they send.
        fn advance(&mut self, d: Duration) {
            let end = self.now + d;
            for _ in 0..100_000 {
                self.run();
                let live = self.live();
                let next = live
                    .iter()
                    .filter_map(|h| self.members[h.0 as usize].next_due(self.now))
                    .min();
                match next {
                    Some(t) if t <= end => self.now = self.now.max(t),
                    _ => {
                        self.now = end;
                        return;
                    }
                }
                for h in live {
                    self.members[h.0 as usize].on_timers(self.now);
                    self.collect(h);
                }
            }
            panic!("timers still due after 100000 steps");
        }

        /// Crash `h` fail-silently. Under the oracle every live member
        /// gets the crash notice at once.
        fn crash(&mut self, h: HostId) {
            self.crashed[h.0 as usize] = true;
            self.links.retain(|(from, to), _| *from != h && *to != h);
            if self.members[h.0 as usize].hb.is_none() {
                for p in self.live() {
                    self.input(p, NetEvent::CrashNotice(h));
                }
            }
        }

        /// `Fail(h)` deliveries at member `m`.
        fn fails(&self, m: HostId, h: HostId) -> usize {
            self.delivered[m.0 as usize]
                .iter()
                .filter(|d| matches!(d, Delivery::Fail { host, .. } if *host == h))
                .count()
        }
    }

    /// The tail of the ordered stream, lost on the way to one member,
    /// leaves it no gap to NACK: no later record arrives. The
    /// coordinator's next ping says how far the stream goes, and the
    /// member asks for the rest.
    #[test]
    fn lost_stream_tail_is_repaired_from_the_next_ping() {
        let hb = Heartbeat {
            period: Duration::from_millis(100),
            timeout: Duration::from_secs(1),
        };
        let mut s = Steps::new(3, Some(hb));
        let mut lost = false;
        s.lose = Box::new(move |from, to, msg| {
            let hit =
                !lost && (from, to) == (HostId(0), HostId(2)) && matches!(msg, SeqMsg::Ordered(_));
            lost |= hit;
            hit
        });
        s.submit(HostId(1), b"tail");
        s.run();
        assert_eq!(s.delivered[1].len(), 1, "member 1 delivers the record");
        assert!(s.delivered[2].is_empty(), "member 2's copy is lost");
        s.advance(hb.period);
        assert_eq!(
            s.delivered[2], s.delivered[1],
            "member 2 repairs the tail within one heartbeat period"
        );
    }

    /// A coordinator-elect whose SyncQuery to one member is lost asks
    /// that member again `SYNC_RETRY` later, finishes the sync, and
    /// orders the dead coordinator's Fail exactly once.
    #[test]
    fn lost_sync_query_is_retried_and_the_fail_ordered_once() {
        let mut s = Steps::new(4, None);
        s.submit(HostId(1), b"warm");
        s.run();
        let queries = Rc::new(RefCell::new(Vec::new()));
        let sent = queries.clone();
        s.lose = Box::new(move |from, to, msg| {
            if !matches!(msg, SeqMsg::SyncQuery { .. }) {
                return false;
            }
            let mut sent = sent.borrow_mut();
            sent.push((from, to));
            sent.len() == 2 && to == HostId(3)
        });
        s.crash(HostId(0));
        s.run();
        let elect = [(HostId(1), HostId(2)), (HostId(1), HostId(3))];
        assert_eq!(*queries.borrow(), elect, "the elect queries both peers");
        let survivors = [HostId(1), HostId(2), HostId(3)];
        let fails = |s: &Steps| survivors.map(|m| s.fails(m, HostId(0)));
        assert_eq!(fails(&s), [0; 3], "the sync waits on host 3");
        s.advance(State::SYNC_RETRY - Duration::from_millis(1));
        assert_eq!(queries.borrow().len(), 2, "no retry before SYNC_RETRY");
        assert_eq!(fails(&s), [0; 3]);
        s.advance(Duration::from_millis(1));
        assert_eq!(
            queries.borrow()[2..],
            [(HostId(1), HostId(3))],
            "one retry, to host 3"
        );
        assert_eq!(fails(&s), [1; 3], "the sync finished and ordered the Fail");
        s.advance(Duration::from_secs(1));
        assert_eq!(queries.borrow().len(), 3, "the retries stop");
        assert_eq!(fails(&s), [1; 3], "exactly once");
    }
}
