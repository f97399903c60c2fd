//! The per-host tuple-space state machine.
//!
//! One [`Kernel`] runs on every host, fed the identical totally-ordered
//! [`Delivery`] stream by the Consul layer. It holds the replicas of all
//! stable tuple spaces, the deterministic blocked-AGS queue, and the
//! owner-local scratch spaces.
//!
//! Determinism contract: given the same delivery stream, every kernel
//! reaches the same stable-space state and the same blocked queue —
//! verified by the `digest()`-based convergence tests and proptests. The
//! only per-host divergence is *scratch* output (applied only where
//! `origin == self`) and client notifications (only the origin host
//! resolves its client's waiting call).

use crate::checkpoint::{
    decode_image, encode_image, BlockedImage, CheckpointError, KernelCheckpoint, KernelImage,
};
use crate::exec::{guard_keys, guard_labels, try_execute, ExecError, TryOutcome};
use crate::proto::{decode_request, Request, SigBucket};
use consul_sim::{Delivery, HostId, LocalId};
use ftlinda_ags::{shard_of, Ags, AgsOutcome, ScratchId, TsId};
use linda_space::{IndexReport, IndexedStore, LocalSpace, MatchStats, SignatureOccupancy, Store};
use linda_tuple::{tuple, Tuple};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hash::Hasher;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// This kernel's position in a sharded deployment: stable spaces are
/// partitioned by `(TsId, signature stable-hash)` across `count` replica
/// groups, and this kernel applies the stream of shard `index`. The
/// default `(0, 1)` is the unsharded configuration and changes nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// This shard's id, `0 <= index < count`.
    pub index: u32,
    /// Total number of shards.
    pub count: u32,
}

impl Default for ShardSpec {
    fn default() -> Self {
        ShardSpec { index: 0, count: 1 }
    }
}

impl ShardSpec {
    /// Whether this shard owns the `(ts, signature)` bucket.
    pub fn owns(&self, ts: TsId, sig_hash: u64) -> bool {
        shard_of(ts, sig_hash, self.count) == self.index
    }
}

/// Outcome of the home-shard leg of a cross-shard commit (`XExec`).
#[derive(Debug, Clone, PartialEq)]
pub enum XStageResult {
    /// The AGS fired. Effects on home-owned keys are committed; effects
    /// on foreign keys are in the writebacks.
    Fired(AgsOutcome),
    /// No branch guard was satisfiable. Nothing committed anywhere; the
    /// origin releases the participants unchanged and retries later
    /// (cross-shard AGSs are never queued in a blocked table).
    Blocked,
    /// The chosen branch's body failed; all state rolled back.
    Failed(ExecError),
}

/// Notification from the kernel to the local FT-Linda runtime.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelNote {
    /// An AGS submitted by *this* host completed (fired or failed).
    Completed {
        /// Global sequence at which it executed.
        seq: u64,
        /// The submitter's local id.
        local: LocalId,
        /// Execution result.
        result: Result<AgsOutcome, ExecError>,
    },
    /// A `CreateTs` submitted by this host resolved.
    TsCreated {
        /// Global sequence of the create.
        seq: u64,
        /// The submitter's local id.
        local: LocalId,
        /// The (possibly pre-existing) space id.
        id: TsId,
        /// Space name.
        name: String,
    },
    /// A failure tuple was deposited for `host` (every host is notified;
    /// monitors usually watch TS instead).
    HostFailed {
        /// Global sequence of the view change.
        seq: u64,
        /// The failed host.
        host: HostId,
    },
    /// A host rejoined.
    HostJoined {
        /// Global sequence of the view change.
        seq: u64,
        /// The joined host.
        host: HostId,
    },
    /// A delivered payload could not be decoded (corrupt message). The
    /// record is skipped identically at every replica.
    Malformed {
        /// Global sequence of the bad record.
        seq: u64,
        /// Origin of the bad record.
        origin: HostId,
    },
    /// The kernel replaced its entire state with a checkpoint image
    /// (rejoin, or catch-up after falling behind the coordinator's
    /// compaction watermark). Any local call submitted before the
    /// restore is indeterminate — the runtime fails its waiters.
    Restored {
        /// Sequence number the image captures.
        seq: u64,
    },
    /// The ordering layer evicted this member (a false failure
    /// suspicion: the coordinator ordered a `Fail` for us while we were
    /// alive). In-flight local calls are indeterminate across the
    /// re-admission — the runtime fails their waiters. State is kept;
    /// the rejoin's `Restore` or replayed tail brings it back in step.
    Evicted {
        /// The member's contiguous prefix at the moment of eviction.
        seq: u64,
    },
    /// A checkpoint image failed to decode or verify; the kernel kept
    /// its previous state. The replica is now behind and will stay so —
    /// surfaced to the operator rather than silently diverging.
    RestoreFailed {
        /// Sequence number of the rejected image.
        seq: u64,
        /// Why the restore was refused.
        error: CheckpointError,
    },
    /// An `XLock` this host submitted was applied: the shard froze and
    /// its buckets were checked out. Carries the bucket contents the
    /// origin forwards to the home shard's `XExec`.
    XCheckedOut {
        /// Global sequence of the lock on the participant shard.
        seq: u64,
        /// The submitter's local id.
        local: LocalId,
        /// Transaction id.
        xid: u64,
        /// The checked-out buckets, oldest-first per bucket.
        buckets: Vec<SigBucket>,
    },
    /// An `XExec` this host submitted was applied on the home shard.
    XStaged {
        /// Global sequence of the exec on the home shard.
        seq: u64,
        /// The submitter's local id.
        local: LocalId,
        /// Transaction id.
        xid: u64,
        /// What the execution did.
        result: XStageResult,
        /// The foreign buckets after execution, to be carried back to
        /// their participant shards via `XRelease`.
        writebacks: Vec<SigBucket>,
    },
    /// An `XRelease` this host submitted was applied: the participant
    /// shard reinstated its buckets and unfroze.
    XReleased {
        /// Global sequence of the release on the participant shard.
        seq: u64,
        /// The submitter's local id.
        local: LocalId,
        /// Transaction id.
        xid: u64,
    },
}

/// A blocked AGS waiting for some guard to become satisfiable.
#[derive(Debug, Clone)]
struct BlockedAgs {
    seq: u64,
    origin: HostId,
    local: LocalId,
    ags: Ags,
    /// The `(space, guard-signature)` keys this AGS is indexed under.
    keys: Vec<(TsId, u64)>,
    /// Wall-clock instant the AGS blocked at *this* replica (re-stamped
    /// on checkpoint restore). Observability only — never serialized,
    /// never digested, so replicas stay byte-identical on the wire.
    since: Instant,
    /// Guard rendering used as the starvation/retry metric label
    /// (see [`guard_labels`]).
    labels: String,
    /// Starvation-threshold crossings already reported, so the watchdog
    /// emits exactly one `ags_starving` event per crossing.
    starve_reported: u32,
}

/// The name of the distinguished failure tuple's head field (paper §2.3:
/// the runtime converts fail-silent crashes into fail-stop by depositing
/// a failure tuple into TS).
pub const FAILURE_TUPLE_HEAD: &str = "failure";

/// A live cross-shard hold on this (participant) shard: its buckets are
/// checked out and in flight to the home shard, so the shard is frozen —
/// deliveries are buffered, to be replayed when the `XRelease` arrives.
/// Every replica of the shard freezes at the same sequence number, so
/// the buffer contents and replay order are identical everywhere.
struct Hold {
    xid: u64,
    origin: HostId,
    /// The buckets as checked out, kept so a failure of the origin
    /// mid-protocol can abort the hold by reinstating them.
    checked_out: Vec<SigBucket>,
    /// Deliveries deferred while frozen, in arrival order, each stamped
    /// with its wall-clock arrival so lock-wait queueing is attributable
    /// at replay. Stamps are observability only — replay order and
    /// contents stay identical at every replica.
    buffer: Vec<(Delivery, Instant)>,
    /// When the freeze began at this replica (observability only, never
    /// replicated).
    since: Instant,
}

/// Observability handles resolved once at attach time so the apply path
/// pays only atomic stores (absent when no registry is attached, e.g. in
/// bare state-machine tests).
struct KernelObs {
    exec_hist: Arc<linda_obs::Histogram>,
    blocked_depth: Arc<linda_obs::Gauge>,
    stable_size: Arc<linda_obs::Gauge>,
    applied_seq: Arc<linda_obs::Gauge>,
    applied_total: Arc<linda_obs::Counter>,
    /// Causal-trace ring: "apply"/"block" per applied AGS, "wake" when a
    /// blocked guard later fires.
    spans: Arc<linda_obs::SpanLog>,
    ckpt_hist: Arc<linda_obs::Histogram>,
    ckpt_bytes: Arc<linda_obs::Gauge>,
    ckpt_seq: Arc<linda_obs::Gauge>,
    /// Structured events (the starvation watchdog emits `ags_starving`
    /// here).
    events: Arc<linda_obs::EventSink>,
    /// `ftlinda_blocked_retries_total{signature,outcome}` — every
    /// re-probe of a blocked guard: `wasted` (still blocked), `fired`,
    /// or `failed`. The `wasted` series counts guards a same-signature
    /// deposit woke that still could not fire.
    retries: Arc<linda_obs::CounterFamily>,
    starving_total: Arc<linda_obs::Counter>,
    starving_now: Arc<linda_obs::Gauge>,
    /// `ftlinda_shard_tuples{shard}` — this kernel's stable-tuple total
    /// under its shard label: the per-shard load census. A level, like
    /// `ftlinda_stable_tuples`: summing across a shard's replicas
    /// multiplies by the replication factor.
    shard_tuples: Arc<linda_obs::Gauge>,
    /// `ftlinda_shard_ags_total{shard}` — AGS executions this shard's
    /// order stream applied (single-shard applies plus cross-shard
    /// `XExec` legs).
    shard_ags: Arc<linda_obs::Counter>,
    /// `ftlinda_xcommit_aborts_total{cause,shard}` — cross-shard commit
    /// attempts rolled back on this shard, by cause (`blocked_retry`,
    /// `body_failure`, `lock_expiry`). Counted on **every** replica, so
    /// each participant host's registry shows the abort.
    xcommit_aborts: Arc<linda_obs::CounterFamily>,
    /// `ftlinda_xlock_buffered_total{shard}` — deliveries that queued
    /// behind a cross-shard lock on this shard: the lock-contention
    /// counter.
    xlock_buffered: Arc<linda_obs::CounterFamily>,
    /// `ftlinda_xlock_held_seconds` — how long this shard stayed frozen
    /// per cross-shard hold (release or abort).
    xlock_held: Arc<linda_obs::Histogram>,
}

/// A stable space's cumulative store counters, as exported by
/// [`Kernel::census_into`]. Observability only: never digested or
/// checkpointed.
#[derive(Debug, Default, Clone, Copy)]
struct StoreTotals {
    matches: MatchStats,
    index_builds: u64,
    index_demotions: u64,
}

impl StoreTotals {
    /// These totals plus `store`'s own.
    fn plus(self, store: &IndexedStore) -> StoreTotals {
        let index = store.index_report();
        StoreTotals {
            matches: self.matches.plus(&store.match_stats()),
            index_builds: self.index_builds + index.index_builds,
            index_demotions: self.index_demotions + index.index_demotions,
        }
    }
}

/// One starvation-watchdog report: a blocked AGS crossed the threshold
/// (again). Also emitted as an `ags_starving` event when a registry is
/// attached.
#[derive(Debug, Clone)]
pub struct StarvationReport {
    /// Global sequence at which the AGS blocked.
    pub seq: u64,
    /// Submitting host.
    pub origin: HostId,
    /// Submitter's local id.
    pub local: LocalId,
    /// How long the AGS has been blocked at this replica.
    pub age: Duration,
    /// Guard rendering, e.g. `ts0:<str,int>`.
    pub guards: String,
    /// Tuples currently stored under the guard's `(space, signature)`
    /// keys: tuples of the right shape that still don't satisfy the
    /// guard — the "nearest miss" count.
    pub nearest_miss: usize,
    /// How many thresholds the age has crossed so far (1 = first report).
    pub crossings: u32,
    /// Shard lane the AGS is queued on (the kernel that reported it).
    pub shard: u32,
}

/// Introspection row for one stable space.
#[derive(Debug, Clone)]
pub struct SpaceReport {
    /// Space id.
    pub id: TsId,
    /// Space name (or `ts<id>` if unnamed).
    pub name: String,
    /// Total tuples stored.
    pub tuples: usize,
    /// Per-signature occupancy with high-water marks.
    pub signatures: Vec<SignatureOccupancy>,
    /// Cumulative matching-cost totals for this space's store.
    pub match_stats: MatchStats,
    /// Derived-state inventory: live value indexes, index builds, cached
    /// misses.
    pub index: IndexReport,
}

/// Introspection row for one blocked AGS.
#[derive(Debug, Clone)]
pub struct BlockedReport {
    /// Global sequence at which the AGS blocked.
    pub seq: u64,
    /// Submitting host.
    pub origin: HostId,
    /// Submitter's local id.
    pub local: LocalId,
    /// How long the AGS has been blocked at this replica.
    pub age: Duration,
    /// Guard rendering, e.g. `ts0:<str,int>`.
    pub guards: String,
    /// Tuples currently stored under the guard's signature keys.
    pub nearest_miss: usize,
    /// Whether the starvation watchdog has reported this AGS.
    pub starving: bool,
}

/// Full kernel introspection snapshot — the `/introspect` payload.
#[derive(Debug, Clone)]
pub struct IntrospectReport {
    /// Reporting replica.
    pub host: HostId,
    /// Sequence number of the last applied record.
    pub applied: u64,
    /// Per-space rows, ascending space id.
    pub spaces: Vec<SpaceReport>,
    /// Blocked-AGS table, arrival order (oldest first).
    pub blocked: Vec<BlockedReport>,
}

/// The replicated tuple-space state machine for one host.
pub struct Kernel {
    host: HostId,
    stables: BTreeMap<TsId, IndexedStore>,
    names: BTreeMap<String, TsId>,
    next_ts: u32,
    scratches: HashMap<ScratchId, LocalSpace>,
    /// Blocked AGSs keyed by arrival id (ascending id = arrival order,
    /// preserving FIFO-fair wakeup).
    blocked: BTreeMap<u64, BlockedAgs>,
    next_blocked_id: u64,
    /// Inverted index: `(space, guard-signature-hash)` → blocked ids.
    /// A deposit can only wake guards under its own key, so retries
    /// after an AGS fires or a failure tuple lands touch matching guards
    /// instead of rescanning the whole queue.
    guard_index: HashMap<(TsId, u64), BTreeSet<u64>>,
    notes: crossbeam::channel::Sender<KernelNote>,
    applied: u64,
    /// Image produced by the last `Delivery::Checkpoint` boundary, held
    /// until the runtime hands it to the ordering layer for compaction.
    pending_checkpoint: Option<KernelCheckpoint>,
    obs: Option<KernelObs>,
    /// Per space, the totals of the stores restores replaced, so the
    /// exported counters never decrease.
    replaced_totals: HashMap<TsId, StoreTotals>,
    /// This kernel's shard position; `(0, 1)` when unsharded.
    shard: ShardSpec,
    /// Live cross-shard hold, if this shard is currently frozen.
    hold: Option<Hold>,
}

impl Kernel {
    /// Create a kernel for `host`; notifications go to `notes`.
    pub fn new(host: HostId, notes: crossbeam::channel::Sender<KernelNote>) -> Self {
        Kernel {
            host,
            stables: BTreeMap::new(),
            names: BTreeMap::new(),
            next_ts: 0,
            scratches: HashMap::new(),
            blocked: BTreeMap::new(),
            next_blocked_id: 0,
            guard_index: HashMap::new(),
            notes,
            applied: 0,
            pending_checkpoint: None,
            obs: None,
            replaced_totals: HashMap::new(),
            shard: ShardSpec::default(),
            hold: None,
        }
    }

    /// Declare this kernel's shard position. Must be set before any
    /// delivery is applied and be identical on every replica of the
    /// shard; it scopes failure-tuple deposits to owned buckets.
    pub fn set_shard(&mut self, shard: ShardSpec) {
        self.shard = shard;
    }

    /// Register an owner-local scratch space so AGS bodies can `out`/
    /// `move` into it. Only this host materializes those writes.
    pub fn register_scratch(&mut self, id: ScratchId, space: LocalSpace) {
        self.scratches.insert(id, space);
    }

    /// Attach an observability registry: each applied record is timed
    /// into `ftlinda_ags_execute_seconds`, and the blocked-queue depth,
    /// total stable-space size, and applied sequence gauges are kept
    /// current after every apply. The per-signature store census is not
    /// published here: a scrape reads it through
    /// [`Kernel::census_into`]. Call after [`Kernel::set_shard`], since
    /// the `{shard}` children are resolved here.
    pub fn attach_obs(&mut self, reg: &linda_obs::Registry) {
        self.attach_obs_with(reg, true);
    }

    /// [`Kernel::attach_obs`]. The `deep` flag once chose whether the
    /// per-signature census was flushed after every apply; that census
    /// is now read when scraped ([`Kernel::census_into`]), so the flag
    /// changes nothing. It stays for the benchmark's replay, which
    /// passes `true`.
    pub fn attach_obs_with(&mut self, reg: &linda_obs::Registry, _deep: bool) {
        let shard = self.shard.index.to_string();
        self.obs = Some(KernelObs {
            exec_hist: reg.histogram(
                "ftlinda_ags_execute_seconds",
                "Kernel execute duration per delivered record",
            ),
            blocked_depth: reg.gauge(
                "ftlinda_blocked_ags",
                "AGSs currently blocked at this replica",
            ),
            stable_size: reg.gauge(
                "ftlinda_stable_tuples",
                "Total tuples across all stable spaces at this replica",
            ),
            applied_seq: reg.gauge(
                "ftlinda_applied_seq",
                "Sequence number of the last applied record",
            ),
            applied_total: reg.counter(
                "ftlinda_applied_records_total",
                "Totally-ordered records applied by this kernel",
            ),
            spans: reg.spans_handle(),
            ckpt_hist: reg.histogram(
                "ftlinda_checkpoint_seconds",
                "Time to serialize a kernel checkpoint image",
            ),
            ckpt_bytes: reg.gauge(
                "ftlinda_checkpoint_bytes",
                "Size of the last kernel checkpoint image",
            ),
            ckpt_seq: reg.gauge(
                "ftlinda_checkpoint_seq",
                "Sequence number of the last kernel checkpoint",
            ),
            events: reg.events_handle(),
            retries: reg.counter_family(
                "ftlinda_blocked_retries_total",
                "Blocked-guard re-probes by guard signature and outcome (wasted/fired/failed)",
            ),
            starving_total: reg.counter(
                "ftlinda_ags_starving_total",
                "ags_starving events emitted by the starvation watchdog",
            ),
            starving_now: reg.gauge(
                "ftlinda_ags_starving",
                "Blocked AGSs currently past the starvation threshold",
            ),
            shard_tuples: reg
                .gauge_family(
                    "ftlinda_shard_tuples",
                    "Tuples stored at this replica, by owning shard",
                )
                .with(&[("shard", &shard)]),
            shard_ags: reg
                .counter_family(
                    "ftlinda_shard_ags_total",
                    "AGS executions applied, by shard order stream",
                )
                .with(&[("shard", &shard)]),
            xcommit_aborts: reg.counter_family(
                "ftlinda_xcommit_aborts_total",
                "Cross-shard commit attempts rolled back, by cause and shard",
            ),
            xlock_buffered: reg.counter_family(
                "ftlinda_xlock_buffered_total",
                "Deliveries deferred behind a cross-shard lock, by shard",
            ),
            xlock_held: reg.histogram(
                "ftlinda_xlock_held_seconds",
                "Time a shard stayed frozen per cross-shard hold",
            ),
        });
    }

    /// Metric label for a stable space: its name when known, else
    /// `ts<id>`.
    fn space_label(&self, id: TsId) -> String {
        self.names
            .iter()
            .find(|(_, v)| **v == id)
            .map(|(n, _)| n.clone())
            .unwrap_or_else(|| format!("ts{}", id.0))
    }

    /// Record a causal-trace span for the AGS `(origin, local)` at this
    /// replica. No-op when no registry is attached.
    fn span(
        &self,
        origin: HostId,
        local: LocalId,
        stage: &str,
        fields: &[(&str, &dyn std::fmt::Display)],
    ) {
        if let Some(obs) = &self.obs {
            obs.spans.record(
                linda_obs::TraceId::new(origin.0, local),
                stage,
                self.host.0,
                fields,
            );
        }
    }

    /// Record a span on the **transaction trace** of cross-shard commit
    /// `xid` ([`linda_obs::TraceId::for_xid`]), tagged with this kernel's
    /// shard id so the assembled tree splits into per-shard lanes. No-op
    /// when no registry is attached.
    fn xspan(&self, xid: u64, stage: &str, fields: &[(&str, &dyn std::fmt::Display)]) {
        if let Some(obs) = &self.obs {
            let mut fields = fields.to_vec();
            fields.push(("xid", &xid));
            fields.push(("shard", &self.shard.index));
            obs.spans.record(
                linda_obs::TraceId::for_xid(xid),
                stage,
                self.host.0,
                &fields,
            );
        }
    }

    /// Count one cross-shard commit abort on this shard, by cause.
    /// Unconditional (not origin-gated): every participant replica's
    /// registry shows the rollback.
    fn count_xabort(&self, cause: &str) {
        if let Some(obs) = &self.obs {
            obs.xcommit_aborts
                .with(&[("cause", cause), ("shard", &self.shard.index.to_string())])
                .inc();
        }
    }

    /// Count one AGS execution against this shard's order stream.
    fn count_shard_ags(&self) {
        if let Some(obs) = &self.obs {
            obs.shard_ags.inc();
        }
    }

    /// Apply the next totally-ordered delivery. Must be called in
    /// delivery order.
    pub fn apply(&mut self, d: &Delivery) {
        let t0 = Instant::now();
        self.apply_inner(d);
        if let Some(obs) = &self.obs {
            obs.exec_hist.observe(t0.elapsed());
            obs.applied_total.inc();
        }
        self.flush_gauges();
    }

    /// Apply a contiguous run of deliveries (e.g. an exploded batch or a
    /// replayed snapshot) in order. Equivalent to calling [`Kernel::apply`]
    /// per delivery, but the gauge updates are amortized over the run —
    /// the caller holds the kernel lock once for the whole run.
    pub fn apply_all(&mut self, ds: &[Delivery]) {
        for d in ds {
            let t0 = Instant::now();
            self.apply_inner(d);
            if let Some(obs) = &self.obs {
                obs.exec_hist.observe(t0.elapsed());
                obs.applied_total.inc();
            }
        }
        self.flush_gauges();
    }

    fn flush_gauges(&self) {
        let Some(obs) = &self.obs else { return };
        obs.blocked_depth.set(self.blocked.len() as i64);
        let stable_total = self.stables.values().map(Store::len).sum::<usize>() as i64;
        obs.stable_size.set(stable_total);
        // The per-shard census child: this kernel's whole stable-tuple
        // total under its shard label (every bucket a shard's stores
        // hold is a bucket it owns).
        obs.shard_tuples.set(stable_total);
        obs.applied_seq.set(self.applied as i64);
    }

    /// Add this kernel's store census to `snap`, read from the stores
    /// now: per space, the match counters
    /// (`ftlinda_match_{attempts,probes,hits}_total`,
    /// `ftlinda_miss_cache_hits_total`), the value-index counters and
    /// level, and per signature the occupancy and its high-water mark.
    /// Every figure is a count or a level, so merged pages stay true:
    /// probe efficiency is hits ÷ probes of the same page. Children add to what `snap`
    /// already holds, as a merge would, so every shard's kernel can feed
    /// one snapshot. Counters include the totals of stores a restore
    /// replaced, so they never decrease; a signature the restored stores
    /// do not hold is absent rather than 0.
    pub fn census_into(&self, snap: &mut linda_obs::RegistrySnapshot) {
        let mut spaces = Vec::with_capacity(self.stables.len());
        let mut occupancy = Vec::new();
        for (id, store) in &self.stables {
            let space = self.space_label(*id);
            for occ in store.signature_census() {
                let sig = occ.signature.to_string();
                let labels = linda_obs::render_labels(&[("space", &space), ("signature", &sig)]);
                occupancy.push((labels, occ.count as i64, occ.high_water as i64));
            }
            let totals = self
                .replaced_totals
                .get(id)
                .copied()
                .unwrap_or_default()
                .plus(store);
            let labels = linda_obs::render_labels(&[("space", &space)]);
            spaces.push((labels, totals, store));
        }
        // A counter child appears once its space has counted something.
        let counted = |value: fn(&StoreTotals) -> u64, shown: fn(&StoreTotals) -> bool| {
            spaces
                .iter()
                .filter(move |(_, t, _)| shown(t))
                .map(move |(labels, t, _)| (labels.clone(), value(t)))
        };
        let attempted = |t: &StoreTotals| t.matches.attempts > 0;
        snap.add_counter_family(
            "ftlinda_match_attempts_total",
            "in/rd-shaped match operations attempted, by stable space",
            counted(|t| t.matches.attempts, attempted),
        );
        snap.add_counter_family(
            "ftlinda_match_probes_total",
            "Tuples examined by match operations, by stable space",
            counted(|t| t.matches.probes, attempted),
        );
        snap.add_counter_family(
            "ftlinda_match_hits_total",
            "Match probes that matched, by stable space",
            counted(|t| t.matches.hits, attempted),
        );
        snap.add_counter_family(
            "ftlinda_miss_cache_hits_total",
            "Match attempts answered by the miss cache with zero probes, by stable space",
            counted(|t| t.matches.cache_hits, attempted),
        );
        snap.add_counter_family(
            "ftlinda_index_builds_total",
            "Lazy value-index promotions performed, by stable space",
            counted(|t| t.index_builds, |t| t.index_builds > 0),
        );
        snap.add_counter_family(
            "ftlinda_index_demotions_total",
            "Value indexes demoted for excess maintenance cost, by stable space",
            counted(|t| t.index_demotions, |t| t.index_demotions > 0),
        );
        // Live value indexes describe the current stores only.
        snap.add_gauge_family(
            "ftlinda_value_indexes",
            "Promoted value indexes currently live (beyond the head index), by stable space",
            spaces
                .iter()
                .map(|(labels, _, s)| (labels.clone(), s.index_report().value_indexes as i64)),
        );
        snap.add_gauge_family(
            "ftlinda_ts_tuples",
            "Tuples currently stored, by stable space and signature",
            occupancy.iter().map(|(labels, n, _)| (labels.clone(), *n)),
        );
        snap.add_gauge_family(
            "ftlinda_ts_tuples_high_water",
            "Most tuples ever stored at once, by stable space and signature",
            occupancy
                .iter()
                .map(|(labels, _, hw)| (labels.clone(), *hw)),
        );
    }

    fn apply_inner(&mut self, d: &Delivery) {
        if let Delivery::Restore { image } = d {
            // Handled before the `applied` bump: a refused image must
            // leave the kernel exactly where it was.
            match self.restore(image) {
                Ok(()) => self.note(KernelNote::Restored { seq: image.seq }),
                Err(error) => self.note(KernelNote::RestoreFailed {
                    seq: image.seq,
                    error,
                }),
            }
            return;
        }
        if let Delivery::Evicted { seq } = d {
            // Also before the `applied` bump: eviction is a protocol
            // event, not part of the ordered stream. The kernel's state
            // is still a valid prefix; only in-flight waiters die.
            self.note(KernelNote::Evicted { seq: *seq });
            return;
        }
        if self.hold.is_some() && self.hold_intercept(d) {
            return;
        }
        self.applied = d.seq();
        match d {
            Delivery::App {
                seq,
                origin,
                local,
                payload,
            } => match decode_request(payload) {
                Ok(Request::CreateTs { name }) => self.apply_create(*seq, *origin, *local, name),
                Ok(Request::Ags(ags)) => self.apply_ags(*seq, *origin, *local, ags),
                Ok(Request::RegisterTs { id, name }) => {
                    self.apply_register(*seq, *origin, *local, id, name)
                }
                Ok(Request::XLock { xid, keys }) => {
                    self.apply_xlock(*seq, *origin, *local, xid, keys)
                }
                Ok(Request::XExec { xid, ags, foreign }) => {
                    self.apply_xexec(*seq, *origin, *local, xid, ags, foreign)
                }
                Ok(Request::XRelease { xid, buckets }) => {
                    self.apply_xrelease(*seq, *origin, *local, xid, buckets)
                }
                Err(_) => {
                    self.span(
                        *origin,
                        *local,
                        "apply",
                        &[("seq", &seq), ("outcome", &"malformed")],
                    );
                    self.note(KernelNote::Malformed {
                        seq: *seq,
                        origin: *origin,
                    });
                }
            },
            Delivery::Fail { seq, host } => {
                // Deposit the distinguished failure tuple, then retry
                // the guards it can wake (a monitor may be blocked on
                // exactly this tuple). Under sharding only the shard
                // that owns a space's failure-signature bucket deposits
                // there, so the union across shards still shows exactly
                // one tuple per space.
                let t = tuple!(FAILURE_TUPLE_HEAD, host.0 as i64);
                let fail_sig = t.signature().stable_hash();
                let mut deposited = Vec::new();
                for (id, store) in self.stables.iter_mut() {
                    if self.shard.owns(*id, fail_sig) {
                        store.insert(t.clone());
                        deposited.push((*id, fail_sig));
                    }
                }
                self.note(KernelNote::HostFailed {
                    seq: *seq,
                    host: *host,
                });
                self.retry_blocked_matching(deposited);
            }
            Delivery::Join { seq, host } => {
                self.note(KernelNote::HostJoined {
                    seq: *seq,
                    host: *host,
                });
            }
            Delivery::Checkpoint { .. } => {
                // The boundary is ordered like any record, so every
                // replica snapshots the identical state here. The image
                // is parked for the runtime to hand to the ordering
                // layer, which truncates its log behind it.
                let t0 = Instant::now();
                let image = self.checkpoint();
                if let Some(obs) = &self.obs {
                    obs.ckpt_hist.observe(t0.elapsed());
                    obs.ckpt_bytes.set(image.bytes.len() as i64);
                    obs.ckpt_seq.set(image.seq as i64);
                }
                self.pending_checkpoint = Some(image);
            }
            Delivery::Restore { .. } | Delivery::Evicted { .. } => unreachable!("handled above"),
        }
    }

    fn apply_create(&mut self, seq: u64, origin: HostId, local: LocalId, name: String) {
        let id = match self.names.get(&name) {
            Some(&id) => id,
            None => {
                let id = TsId(self.next_ts);
                self.next_ts += 1;
                self.names.insert(name.clone(), id);
                self.stables.insert(id, IndexedStore::new());
                id
            }
        };
        self.span(
            origin,
            local,
            "apply",
            &[("seq", &seq), ("outcome", &"create")],
        );
        if origin == self.host {
            self.note(KernelNote::TsCreated {
                seq,
                local,
                id,
                name,
            });
        }
    }

    /// Install a space id assigned by shard 0 (`RegisterTs`). Idempotent.
    fn apply_register(&mut self, seq: u64, origin: HostId, local: LocalId, id: u32, name: String) {
        let tsid = TsId(id);
        self.stables.entry(tsid).or_default();
        self.names.entry(name.clone()).or_insert(tsid);
        self.next_ts = self.next_ts.max(id + 1);
        self.span(
            origin,
            local,
            "apply",
            &[("seq", &seq), ("outcome", &"register")],
        );
        if origin == self.host {
            self.note(KernelNote::TsCreated {
                seq,
                local,
                id: tsid,
                name,
            });
        }
    }

    /// While a cross-shard hold freezes this shard, route the next
    /// delivery. Returns `true` if it was consumed here (buffered,
    /// dropped, or handled by the abort path); `false` lets the normal
    /// apply path run (only the live transaction's own `XRelease`).
    fn hold_intercept(&mut self, d: &Delivery) -> bool {
        let hold = self.hold.as_ref().expect("hold present");
        match d {
            // The live transaction's own legs proceed normally: its
            // `XExec` (the origin locks every participating shard, the
            // home one included, before staging) and its `XRelease`.
            Delivery::App { payload, .. } => match decode_request(payload) {
                Ok(Request::XRelease { xid, .. }) | Ok(Request::XExec { xid, .. })
                    if xid == hold.xid =>
                {
                    return false;
                }
                _ => {}
            },
            // The origin failing mid-protocol aborts the hold: the
            // checked-out buckets are reinstated exactly as they left,
            // the deferred deliveries replay, then the failure itself
            // applies. (If the home shard had already fired the exec,
            // cross-shard atomicity is broken — see DESIGN.md §13 for
            // this documented window.)
            Delivery::Fail { host, .. } if *host == hold.origin => {
                let h = self.hold.take().expect("hold present");
                let held = h.since.elapsed();
                self.count_xabort("lock_expiry");
                self.xspan(
                    h.xid,
                    "xabort",
                    &[
                        ("cause", &"lock_expiry"),
                        ("buffered", &h.buffer.len()),
                        ("held_us", &held.as_micros()),
                    ],
                );
                if let Some(obs) = &self.obs {
                    obs.xlock_held.observe(held);
                }
                let keys = self.reinstall_buckets(h.checked_out);
                self.retry_blocked_matching(keys);
                self.replay_buffer(h.xid, h.buffer);
                self.apply_inner(d);
                return true;
            }
            // Checkpoint boundaries are DROPPED, not deferred: an image
            // captured now would silently miss the checked-out buckets.
            // Every replica of the shard drops the same markers; the log
            // is simply retained a little longer.
            Delivery::Checkpoint { .. } => return true,
            _ => {}
        }
        if let Some(obs) = &self.obs {
            obs.xlock_buffered
                .with(&[("shard", &self.shard.index.to_string())])
                .inc();
        }
        self.hold
            .as_mut()
            .expect("hold present")
            .buffer
            .push((d.clone(), Instant::now()));
        true
    }

    /// Replay deliveries deferred behind a hold, stamping a `lock_wait`
    /// span (queued time, shard, blocking xid) on each buffered AGS's
    /// own trace before it applies.
    fn replay_buffer(&mut self, xid: u64, buffer: Vec<(Delivery, Instant)>) {
        for (bd, queued_at) in &buffer {
            if let Delivery::App {
                seq, origin, local, ..
            } = bd
            {
                self.span(
                    *origin,
                    *local,
                    "lock_wait",
                    &[
                        ("seq", &seq),
                        ("queued_us", &queued_at.elapsed().as_micros()),
                        ("shard", &self.shard.index),
                        ("xid", &xid),
                    ],
                );
            }
            self.apply_inner(bd);
        }
    }

    /// Reinstall signature buckets (oldest-first per bucket) and return
    /// their keys for seeding blocked-guard retries.
    fn reinstall_buckets(&mut self, buckets: Vec<SigBucket>) -> Vec<(TsId, u64)> {
        let mut keys = Vec::with_capacity(buckets.len());
        for (ts, sig, tuples) in buckets {
            let id = TsId(ts);
            keys.push((id, sig));
            if let Some(store) = self.stables.get_mut(&id) {
                for t in tuples {
                    store.insert(t);
                }
            }
        }
        keys
    }

    /// Cross-shard leg 1 on a participant shard: check the listed
    /// buckets out of the stores and freeze until the release.
    fn apply_xlock(
        &mut self,
        seq: u64,
        origin: HostId,
        local: LocalId,
        xid: u64,
        keys: Vec<(u32, u64)>,
    ) {
        let mut buckets: Vec<SigBucket> = Vec::with_capacity(keys.len());
        for (ts, sig) in keys {
            let tuples = self
                .stables
                .get_mut(&TsId(ts))
                .map(|s| s.checkout_signature(sig))
                .unwrap_or_default();
            buckets.push((ts, sig, tuples));
        }
        self.hold = Some(Hold {
            xid,
            origin,
            checked_out: buckets.clone(),
            buffer: Vec::new(),
            since: Instant::now(),
        });
        let frozen_tuples: usize = buckets.iter().map(|(_, _, t)| t.len()).sum();
        self.xspan(
            xid,
            "xlock",
            &[
                ("seq", &seq),
                ("buckets", &buckets.len()),
                ("tuples", &frozen_tuples),
            ],
        );
        self.span(
            origin,
            local,
            "apply",
            &[("seq", &seq), ("outcome", &"xlock"), ("xid", &xid)],
        );
        if origin == self.host {
            self.note(KernelNote::XCheckedOut {
                seq,
                local,
                xid,
                buckets,
            });
        }
    }

    /// Cross-shard leg 2 on the home shard: install the foreign buckets,
    /// execute, extract the foreign buckets back out as writebacks.
    fn apply_xexec(
        &mut self,
        seq: u64,
        origin: HostId,
        local: LocalId,
        xid: u64,
        ags: Ags,
        foreign: Vec<SigBucket>,
    ) {
        let outcome_label: &str;
        // All spaces must exist here (the runtime registers every space
        // on every shard before use); refuse wholesale otherwise so no
        // foreign tuple can be stranded in a half-installed state.
        let (result, writebacks) = if foreign
            .iter()
            .any(|(ts, _, _)| !self.stables.contains_key(&TsId(*ts)))
        {
            let missing = foreign
                .iter()
                .find(|(ts, _, _)| !self.stables.contains_key(&TsId(*ts)))
                .map(|(ts, _, _)| TsId(*ts))
                .expect("checked");
            outcome_label = "xexec-failed";
            (XStageResult::Failed(ExecError::UnknownTs(missing)), foreign)
        } else {
            let foreign_keys: Vec<(TsId, u64)> = foreign
                .iter()
                .map(|(ts, sig, _)| (TsId(*ts), *sig))
                .collect();
            for (ts, _, tuples) in foreign {
                let store = self.stables.get_mut(&TsId(ts)).expect("checked");
                for t in tuples {
                    store.insert(t);
                }
            }
            let exec = try_execute(&mut self.stables, &ags, origin.0, seq);
            let writebacks: Vec<SigBucket> = foreign_keys
                .iter()
                .map(|(ts, sig)| {
                    let tuples = self
                        .stables
                        .get_mut(ts)
                        .map(|s| s.checkout_signature(*sig))
                        .unwrap_or_default();
                    (ts.0, *sig, tuples)
                })
                .collect();
            let result = match exec {
                TryOutcome::Fired {
                    outcome,
                    scratch_outs,
                    deposited,
                } => {
                    outcome_label = "xexec-fired";
                    self.commit_scratch(origin, scratch_outs);
                    // Only deposits into keys this shard owns can wake
                    // local blocked guards; foreign-key deposits ride
                    // home inside the writebacks and wake guards on
                    // their own shard at release time.
                    let owned: Vec<(TsId, u64)> = deposited
                        .into_iter()
                        .filter(|k| !foreign_keys.contains(k))
                        .collect();
                    self.retry_blocked_matching(owned);
                    XStageResult::Fired(outcome)
                }
                TryOutcome::Blocked => {
                    outcome_label = "xexec-blocked";
                    XStageResult::Blocked
                }
                TryOutcome::Failed(e) => {
                    outcome_label = "xexec-failed";
                    XStageResult::Failed(e)
                }
            };
            (result, writebacks)
        };
        self.count_shard_ags();
        match &result {
            XStageResult::Blocked => self.count_xabort("blocked_retry"),
            XStageResult::Failed(_) => self.count_xabort("body_failure"),
            XStageResult::Fired(_) => {}
        }
        self.xspan(xid, "xexec", &[("seq", &seq), ("outcome", &outcome_label)]);
        self.span(
            origin,
            local,
            "apply",
            &[("seq", &seq), ("outcome", &outcome_label), ("xid", &xid)],
        );
        if origin == self.host {
            self.note(KernelNote::XStaged {
                seq,
                local,
                xid,
                result,
                writebacks,
            });
        }
    }

    /// Cross-shard leg 3 on a participant shard: reinstall the buckets,
    /// unfreeze, replay deferred deliveries.
    fn apply_xrelease(
        &mut self,
        seq: u64,
        origin: HostId,
        local: LocalId,
        xid: u64,
        buckets: Vec<SigBucket>,
    ) {
        let matches = self.hold.as_ref().is_some_and(|h| h.xid == xid);
        if matches {
            let h = self.hold.take().expect("hold present");
            let held = h.since.elapsed();
            if let Some(obs) = &self.obs {
                obs.xlock_held.observe(held);
            }
            self.xspan(
                xid,
                "xrelease",
                &[
                    ("seq", &seq),
                    ("buffered", &h.buffer.len()),
                    ("held_us", &held.as_micros()),
                ],
            );
            let keys = self.reinstall_buckets(buckets);
            self.retry_blocked_matching(keys);
            self.replay_buffer(h.xid, h.buffer);
            // Replayed deliveries carry lower sequence numbers; the
            // release itself is the newest applied record.
            self.applied = self.applied.max(seq);
        }
        // Without a matching hold (protocol misuse or a duplicate) the
        // buckets are NOT reinstalled — doing so would duplicate tuples
        // identically at every replica, which is worse than dropping.
        self.span(
            origin,
            local,
            "apply",
            &[("seq", &seq), ("outcome", &"xrelease"), ("xid", &xid)],
        );
        if origin == self.host {
            self.note(KernelNote::XReleased { seq, local, xid });
        }
    }

    fn apply_ags(&mut self, seq: u64, origin: HostId, local: LocalId, ags: Ags) {
        self.count_shard_ags();
        match try_execute(&mut self.stables, &ags, origin.0, seq) {
            TryOutcome::Fired {
                outcome,
                scratch_outs,
                deposited,
            } => {
                self.span(
                    origin,
                    local,
                    "apply",
                    &[("seq", &seq), ("outcome", &"fired")],
                );
                self.commit_scratch(origin, scratch_outs);
                if origin == self.host {
                    self.note(KernelNote::Completed {
                        seq,
                        local,
                        result: Ok(outcome),
                    });
                }
                self.retry_blocked_matching(deposited);
            }
            TryOutcome::Blocked => {
                self.span(
                    origin,
                    local,
                    "apply",
                    &[("seq", &seq), ("outcome", &"blocked")],
                );
                self.span(origin, local, "block", &[("seq", &seq)]);
                let keys = guard_keys(&ags, origin.0, seq);
                let labels = guard_labels(&ags, origin.0, seq);
                let id = self.next_blocked_id;
                self.next_blocked_id += 1;
                for k in &keys {
                    self.guard_index.entry(*k).or_default().insert(id);
                }
                self.blocked.insert(
                    id,
                    BlockedAgs {
                        seq,
                        origin,
                        local,
                        ags,
                        keys,
                        since: Instant::now(),
                        labels,
                        starve_reported: 0,
                    },
                );
            }
            TryOutcome::Failed(e) => {
                self.span(
                    origin,
                    local,
                    "apply",
                    &[("seq", &seq), ("outcome", &"failed")],
                );
                if origin == self.host {
                    self.note(KernelNote::Completed {
                        seq,
                        local,
                        result: Err(e),
                    });
                }
            }
        }
    }

    /// Record a "wake" span: the blocked AGS `b` left the queue because a
    /// later record (the one at `self.applied`) made its guard decidable.
    fn wake_span(&self, b: &BlockedAgs, outcome: &str) {
        self.span(
            b.origin,
            b.local,
            "wake",
            &[
                ("seq", &b.seq),
                ("at_seq", &self.applied),
                ("outcome", &outcome),
            ],
        );
    }

    /// Count one re-probe of a blocked guard in
    /// `ftlinda_blocked_retries_total{signature,outcome}`.
    fn count_retry(&self, labels: &str, outcome: &str) {
        if let Some(obs) = &self.obs {
            obs.retries
                .with(&[("signature", labels), ("outcome", outcome)])
                .inc();
        }
    }

    /// Remove a blocked AGS from the queue and the guard index.
    fn unblock(&mut self, id: u64) -> BlockedAgs {
        let b = self.blocked.remove(&id).expect("blocked id present");
        for k in &b.keys {
            if let Some(set) = self.guard_index.get_mut(k) {
                set.remove(&id);
                if set.is_empty() {
                    self.guard_index.remove(k);
                }
            }
        }
        b
    }

    /// Retry only the blocked AGSs whose guard signature matches one of
    /// the just-deposited tuples, oldest first, chasing cascades through
    /// the deposits each firing produces. An `IndexedStore` matches a
    /// pattern only against equal-signature tuples, so any AGS outside
    /// these index buckets provably cannot have become satisfiable —
    /// every replica prunes identically and determinism is preserved.
    fn retry_blocked_matching(&mut self, mut seeds: Vec<(TsId, u64)>) {
        while !seeds.is_empty() {
            let mut candidates: BTreeSet<u64> = BTreeSet::new();
            for key in &seeds {
                if let Some(ids) = self.guard_index.get(key) {
                    candidates.extend(ids.iter().copied());
                }
            }
            seeds.clear();
            for id in candidates {
                if !self.blocked.contains_key(&id) {
                    continue;
                }
                let candidate = &self.blocked[&id];
                match try_execute(
                    &mut self.stables,
                    &candidate.ags,
                    candidate.origin.0,
                    candidate.seq,
                ) {
                    TryOutcome::Blocked => {
                        self.count_retry(&self.blocked[&id].labels, "wasted");
                    }
                    TryOutcome::Fired {
                        outcome,
                        scratch_outs,
                        deposited,
                    } => {
                        let b = self.unblock(id);
                        self.count_retry(&b.labels, "fired");
                        self.wake_span(&b, "fired");
                        self.commit_scratch(b.origin, scratch_outs);
                        if b.origin == self.host {
                            self.note(KernelNote::Completed {
                                seq: b.seq,
                                local: b.local,
                                result: Ok(outcome),
                            });
                        }
                        seeds.extend(deposited);
                    }
                    TryOutcome::Failed(e) => {
                        let b = self.unblock(id);
                        self.count_retry(&b.labels, "failed");
                        self.wake_span(&b, "failed");
                        if b.origin == self.host {
                            self.note(KernelNote::Completed {
                                seq: b.seq,
                                local: b.local,
                                result: Err(e),
                            });
                        }
                    }
                }
            }
        }
    }

    fn commit_scratch(&mut self, origin: HostId, outs: Vec<(ScratchId, Tuple)>) {
        if origin != self.host {
            return;
        }
        for (sid, t) in outs {
            if let Some(space) = self.scratches.get(&sid) {
                space.out(t);
            }
            // An unregistered scratch id is an owner-side programming
            // error; the stable-space effects are already committed, so
            // the write is dropped (documented in DESIGN.md).
        }
    }

    fn note(&self, n: KernelNote) {
        let _ = self.notes.send(n);
    }

    // ----- introspection -------------------------------------------------

    /// Fault-injection hook: deposit a tuple into a stable space *locally
    /// only*, bypassing the total order. This deliberately diverges this
    /// replica from its peers; it exists so the digest-divergence
    /// detector can be exercised under test. Returns `false` if the
    /// space does not exist. Never call this from application code.
    #[doc(hidden)]
    pub fn fault_inject(&mut self, ts: TsId, t: Tuple) -> bool {
        match self.stables.get_mut(&ts) {
            Some(s) => {
                s.insert(t);
                true
            }
            None => false,
        }
    }

    /// This kernel's host id.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Sequence number of the last applied delivery.
    pub fn applied_seq(&self) -> u64 {
        self.applied
    }

    /// Number of AGSs currently blocked.
    pub fn blocked_len(&self) -> usize {
        self.blocked.len()
    }

    /// Resolve a stable space by name, if created.
    pub fn lookup(&self, name: &str) -> Option<TsId> {
        self.names.get(name).copied()
    }

    /// Snapshot the contents of a stable space (insertion order).
    pub fn snapshot(&self, id: TsId) -> Option<Vec<Tuple>> {
        self.stables.get(&id).map(|s| s.snapshot())
    }

    /// Tuples in a stable space.
    pub fn stable_len(&self, id: TsId) -> Option<usize> {
        self.stables.get(&id).map(Store::len)
    }

    /// Tuples currently stored under a blocked AGS's guard keys: tuples
    /// of the right signature that still don't satisfy the guard. Keys
    /// owned by this shard read the local store; keys owned elsewhere
    /// are resolved through `peer(owner_shard, ts, sig)` — under K>1 the
    /// local store legitimately holds nothing for a foreign bucket, and
    /// counting it as zero would misreport the miss.
    fn nearest_miss_with(
        stables: &BTreeMap<TsId, IndexedStore>,
        shard: ShardSpec,
        keys: &[(TsId, u64)],
        peer: &dyn Fn(u32, TsId, u64) -> usize,
    ) -> usize {
        keys.iter()
            .map(|(ts, sig)| {
                let owner = shard_of(*ts, *sig, shard.count);
                if owner == shard.index {
                    stables.get(ts).map_or(0, |s| s.signature_len(*sig))
                } else {
                    peer(owner, *ts, *sig)
                }
            })
            .sum()
    }

    /// Tuples stored under one `(space, signature)` bucket at this
    /// replica. The runtime watchdog uses this to answer nearest-miss
    /// queries for buckets this shard owns on behalf of other lanes.
    pub fn signature_len(&self, ts: TsId, sig: u64) -> usize {
        self.stables.get(&ts).map_or(0, |s| s.signature_len(sig))
    }

    /// Guard keys of blocked AGSs that some *other* shard owns, as
    /// `(owner_shard, ts, sig)`, deduplicated. The watchdog resolves
    /// these against the owning lanes before sweeping so nearest-miss
    /// counts are attributed to the shard that actually stores the
    /// bucket. (Under the current router cross-shard AGSs are never
    /// queued, so this is normally empty — it guards the invariant
    /// rather than assuming it.)
    pub fn blocked_foreign_keys(&self) -> Vec<(u32, TsId, u64)> {
        let mut out: Vec<(u32, TsId, u64)> = self
            .blocked
            .values()
            .flat_map(|b| b.keys.iter())
            .filter_map(|(ts, sig)| {
                let owner = shard_of(*ts, *sig, self.shard.count);
                (owner != self.shard.index).then_some((owner, *ts, *sig))
            })
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Starvation watchdog pass: report every blocked AGS whose age has
    /// crossed a new multiple of `threshold` since it was last reported
    /// — exactly one report per crossing, however often the sweep runs.
    /// Each report is also emitted as an `ags_starving` event (fields:
    /// seq, origin, guards, age_ms, nearest_miss, crossings) when a
    /// registry is attached, and `ftlinda_ags_starving` tracks how many
    /// blocked AGSs are currently past the threshold.
    ///
    /// Wall-clock only — never part of the replicated state, so replicas
    /// may report at different times without diverging.
    pub fn starvation_sweep(&mut self, threshold: Duration) -> Vec<StarvationReport> {
        self.starvation_sweep_with(threshold, &|_, _, _| 0)
    }

    /// [`Kernel::starvation_sweep`] with foreign guard-key occupancy
    /// resolved through `peer(owner_shard, ts, sig)`. The runtime's
    /// watchdog collects [`Kernel::blocked_foreign_keys`] first, answers
    /// them against the owning lanes' [`Kernel::signature_len`], and
    /// passes the resolved map here — so no two kernel locks are ever
    /// held at once.
    pub fn starvation_sweep_with(
        &mut self,
        threshold: Duration,
        peer: &dyn Fn(u32, TsId, u64) -> usize,
    ) -> Vec<StarvationReport> {
        if threshold.is_zero() {
            return Vec::new();
        }
        let now = Instant::now();
        let mut out = Vec::new();
        let stables = &self.stables;
        let shard = self.shard;
        for b in self.blocked.values_mut() {
            let age = now.saturating_duration_since(b.since);
            let crossings = (age.as_nanos() / threshold.as_nanos()) as u32;
            if crossings > b.starve_reported {
                b.starve_reported = crossings;
                out.push(StarvationReport {
                    seq: b.seq,
                    origin: b.origin,
                    local: b.local,
                    age,
                    guards: b.labels.clone(),
                    nearest_miss: Self::nearest_miss_with(stables, shard, &b.keys, peer),
                    crossings,
                    shard: shard.index,
                });
            }
        }
        if let Some(obs) = &self.obs {
            for r in &out {
                obs.events.emit(linda_obs::Event::new(
                    "ags_starving",
                    vec![
                        ("seq".into(), r.seq.to_string()),
                        ("origin".into(), r.origin.0.to_string()),
                        ("local".into(), r.local.to_string()),
                        ("guards".into(), r.guards.clone()),
                        ("age_ms".into(), r.age.as_millis().to_string()),
                        ("nearest_miss".into(), r.nearest_miss.to_string()),
                        ("crossings".into(), r.crossings.to_string()),
                        ("shard".into(), r.shard.to_string()),
                    ],
                ));
                obs.starving_total.inc();
            }
            obs.starving_now.set(
                self.blocked
                    .values()
                    .filter(|b| b.starve_reported > 0)
                    .count() as i64,
            );
        }
        out
    }

    /// A point-in-time introspection snapshot: per-space signature
    /// census, matching-cost totals, and the blocked-AGS table with
    /// ages. Read-only (pure observability; the replicated state is
    /// untouched).
    pub fn introspect(&self) -> IntrospectReport {
        let now = Instant::now();
        IntrospectReport {
            host: self.host,
            applied: self.applied,
            spaces: self
                .stables
                .iter()
                .map(|(id, store)| SpaceReport {
                    id: *id,
                    name: self.space_label(*id),
                    tuples: store.len(),
                    signatures: store.signature_census(),
                    match_stats: store.match_stats(),
                    index: store.index_report(),
                })
                .collect(),
            blocked: self
                .blocked
                .values()
                .map(|b| BlockedReport {
                    seq: b.seq,
                    origin: b.origin,
                    local: b.local,
                    age: now.saturating_duration_since(b.since),
                    guards: b.labels.clone(),
                    nearest_miss: Self::nearest_miss_with(
                        &self.stables,
                        self.shard,
                        &b.keys,
                        &|_, _, _| 0,
                    ),
                    starving: b.starve_reported > 0,
                })
                .collect(),
        }
    }

    /// A deterministic digest of all stable-space contents and the
    /// blocked queue — equal digests ⇒ converged replicas. Used heavily
    /// by the replica-consistency tests and read every tick by the
    /// divergence detector: each space contributes its stores' running
    /// value ([`IndexedStore::digest`], O(signatures)), and the blocked
    /// queue is walked (O(blocked AGSs)). No tuple is hashed.
    pub fn digest(&self) -> u64 {
        Self::digest_of(&self.stables, &self.blocked)
    }

    /// Digest of one stable space ([`IndexedStore::digest`], read from
    /// the per-signature running values). It ignores the interleaving of
    /// insertions across signatures, which cross-shard checkout/reinstall
    /// permutes, and the stores' internal sequence numbers, which each
    /// shard and each restore number on its own, so the XOR over all
    /// shards of a sharded deployment equals the unsharded kernel's
    /// value — the equivalence the sharded-vs-unsharded proptests check.
    /// An absent or empty space digests to 0.
    pub fn canonical_space_digest(&self, id: TsId) -> u64 {
        self.stables.get(&id).map_or(0, IndexedStore::digest)
    }

    /// The digest computation proper, over explicit state: every space's
    /// digest under its id, then the blocked queue. Restore uses this to
    /// verify a rebuilt candidate *before* committing it.
    fn digest_of(
        stables: &BTreeMap<TsId, IndexedStore>,
        blocked: &BTreeMap<u64, BlockedAgs>,
    ) -> u64 {
        let mut h = linda_tuple::StableHasher::default();
        for (id, store) in stables {
            h.write_u64(id.0 as u64 + 0x9e37);
            h.write_u64(store.digest());
        }
        h.write_u64(0xb10c * (blocked.len() as u64 + 1));
        for b in blocked.values() {
            h.write_u64(b.seq);
        }
        h.finish()
    }

    // ----- checkpoint / restore ------------------------------------------

    /// Serialize the replicated state — every stable space, the blocked
    /// queue, the name table, and the applied sequence number — into a
    /// self-verifying image. Scratch spaces are owner-local and excluded.
    pub fn checkpoint(&self) -> KernelCheckpoint {
        let digest = self.digest();
        let img = KernelImage {
            applied: self.applied,
            digest,
            next_ts: self.next_ts,
            names: self.names.iter().map(|(n, id)| (n.clone(), id.0)).collect(),
            spaces: self
                .stables
                .iter()
                .map(|(id, s)| (id.0, s.snapshot()))
                .collect(),
            blocked: self
                .blocked
                .values()
                .map(|b| BlockedImage {
                    seq: b.seq,
                    origin: b.origin.0,
                    local: b.local,
                    ags: b.ags.clone(),
                })
                .collect(),
        };
        KernelCheckpoint {
            seq: self.applied,
            digest,
            bytes: encode_image(&img),
        }
    }

    /// Replace the replicated state with a checkpoint image. The rebuilt
    /// state is digest-verified against the digest recorded at capture
    /// time before anything is committed: on any error the kernel is
    /// untouched. Blocked-queue ids are renumbered densely; arrival
    /// order (and therefore wakeup fairness and the digest) is preserved.
    pub fn restore(&mut self, image: &KernelCheckpoint) -> Result<(), CheckpointError> {
        let img = decode_image(&image.bytes)?;
        // The wrapper's digest must agree with the one sealed inside the
        // image bytes — a mismatch means the envelope and payload were
        // separated or tampered with in transit.
        if image.digest != img.digest {
            return Err(CheckpointError::DigestMismatch {
                expected: image.digest,
                actual: img.digest,
            });
        }
        let mut stables = BTreeMap::new();
        for (id, tuples) in img.spaces {
            // Fresh stores: indexes and the miss cache are derived state
            // and deliberately absent from the image; they rebuild from
            // live traffic. The inserts renumber store seqs densely and
            // maintain the running digests the check below reads.
            let mut store = IndexedStore::new();
            for t in tuples {
                store.insert(t);
            }
            stables.insert(TsId(id), store);
        }
        let mut blocked = BTreeMap::new();
        let mut guard_index: HashMap<(TsId, u64), BTreeSet<u64>> = HashMap::new();
        for (id, b) in img.blocked.into_iter().enumerate() {
            let keys = guard_keys(&b.ags, b.origin, b.seq);
            let labels = guard_labels(&b.ags, b.origin, b.seq);
            for k in &keys {
                guard_index.entry(*k).or_default().insert(id as u64);
            }
            blocked.insert(
                id as u64,
                BlockedAgs {
                    seq: b.seq,
                    origin: HostId(b.origin),
                    local: b.local,
                    ags: b.ags,
                    keys,
                    // Block times are wall-clock and host-local, so a
                    // checkpoint cannot carry them: restored guards are
                    // re-stamped, and their starvation ages restart.
                    since: Instant::now(),
                    labels,
                    starve_reported: 0,
                },
            );
        }
        let actual = Self::digest_of(&stables, &blocked);
        if actual != img.digest {
            return Err(CheckpointError::DigestMismatch {
                expected: img.digest,
                actual,
            });
        }
        self.carry_store_totals();
        self.stables = stables;
        self.blocked = blocked;
        self.guard_index = guard_index;
        self.next_blocked_id = self.blocked.len() as u64;
        self.names = img.names.into_iter().map(|(n, id)| (n, TsId(id))).collect();
        self.next_ts = img.next_ts;
        self.applied = img.applied;
        self.pending_checkpoint = None;
        // A restore supersedes any in-flight cross-shard hold: the image
        // predates the freeze (checkpoint boundaries are dropped while
        // frozen) and replaying the log from it re-applies the lock.
        self.hold = None;
        Ok(())
    }

    /// Drop the replica state of a kernel whose delivery stream has
    /// ended: every space's tuples, the blocked queue and its guard
    /// index, the scratch spaces, a pending checkpoint and a cross-shard
    /// hold. A stopped incarnation's handle can outlive it for its
    /// metrics, and would otherwise keep a full copy of the state. Each
    /// space keeps an empty store, and the outgoing stores' totals carry
    /// into the exported counters as on [`Kernel::restore`], so those
    /// never decrease. The applied sequence number stays.
    pub fn release(&mut self) {
        self.carry_store_totals();
        for store in self.stables.values_mut() {
            *store = IndexedStore::new();
        }
        self.blocked.clear();
        self.guard_index.clear();
        self.scratches.clear();
        self.pending_checkpoint = None;
        self.hold = None;
        self.flush_gauges();
    }

    /// Add every store's totals to `replaced_totals` before the stores
    /// are replaced: fresh stores count from zero, and the exported
    /// counters must stay monotone.
    fn carry_store_totals(&mut self) {
        for (id, store) in &self.stables {
            let carried = self.replaced_totals.entry(*id).or_default();
            *carried = carried.plus(store);
        }
    }

    /// Take the image produced by the last applied checkpoint boundary,
    /// if any. The runtime calls this after `apply_all` and installs the
    /// image into the ordering layer, which compacts its log behind it.
    pub fn take_pending_checkpoint(&mut self) -> Option<KernelCheckpoint> {
        self.pending_checkpoint.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::encode_request;
    use bytes::Bytes;
    use ftlinda_ags::{MatchField as MF, Operand};
    use linda_tuple::TypeTag::*;
    use linda_tuple::Value;

    fn kernel() -> (Kernel, crossbeam::channel::Receiver<KernelNote>) {
        let (tx, rx) = crossbeam::channel::unbounded();
        (Kernel::new(HostId(0), tx), rx)
    }

    fn app(seq: u64, origin: u32, local: u64, req: &Request) -> Delivery {
        Delivery::App {
            seq,
            origin: HostId(origin),
            local,
            payload: Bytes::from(encode_request(req)),
        }
    }

    #[test]
    fn create_ts_assigns_ids_in_order_and_dedups() {
        let (mut k, rx) = kernel();
        k.apply(&app(1, 0, 1, &Request::CreateTs { name: "a".into() }));
        k.apply(&app(2, 0, 2, &Request::CreateTs { name: "b".into() }));
        k.apply(&app(3, 0, 3, &Request::CreateTs { name: "a".into() }));
        assert_eq!(k.lookup("a"), Some(TsId(0)));
        assert_eq!(k.lookup("b"), Some(TsId(1)));
        let notes: Vec<KernelNote> = rx.try_iter().collect();
        assert_eq!(notes.len(), 3);
        assert!(matches!(
            &notes[2],
            KernelNote::TsCreated { id: TsId(0), .. }
        ));
    }

    #[test]
    fn foreign_create_not_notified() {
        let (mut k, rx) = kernel();
        k.apply(&app(1, 7, 1, &Request::CreateTs { name: "x".into() }));
        assert_eq!(k.lookup("x"), Some(TsId(0)));
        assert!(rx.try_iter().next().is_none());
    }

    #[test]
    fn out_then_blocked_in_unblocks() {
        let (mut k, rx) = kernel();
        k.apply(&app(1, 0, 1, &Request::CreateTs { name: "m".into() }));
        let in_ags = Ags::in_one(TsId(0), vec![MF::actual("job"), MF::bind(Int)]).unwrap();
        k.apply(&app(2, 0, 2, &Request::Ags(in_ags)));
        assert_eq!(k.blocked_len(), 1);
        let out_ags = Ags::out_one(TsId(0), vec![Operand::cst("job"), Operand::cst(5)]);
        k.apply(&app(3, 0, 3, &Request::Ags(out_ags)));
        assert_eq!(k.blocked_len(), 0);
        let notes: Vec<KernelNote> = rx.try_iter().collect();
        let completed: Vec<_> = notes
            .iter()
            .filter_map(|n| match n {
                KernelNote::Completed { local, result, .. } => Some((*local, result.clone())),
                _ => None,
            })
            .collect();
        // local 3 (the out) completes, then local 2 (the unblocked in).
        assert_eq!(completed.len(), 2);
        assert!(completed
            .iter()
            .any(|(l, r)| *l == 2 && matches!(r, Ok(o) if o.bindings == vec![Value::Int(5)])));
    }

    #[test]
    fn blocked_queue_is_fifo_fair() {
        let (mut k, rx) = kernel();
        k.apply(&app(1, 0, 1, &Request::CreateTs { name: "m".into() }));
        // Two blocked ins on the same pattern; one out should wake the
        // OLDER one.
        let in_ags = Ags::in_one(TsId(0), vec![MF::actual("t"), MF::bind(Int)]).unwrap();
        k.apply(&app(2, 0, 2, &Request::Ags(in_ags.clone())));
        k.apply(&app(3, 0, 3, &Request::Ags(in_ags)));
        assert_eq!(k.blocked_len(), 2);
        k.apply(&app(
            4,
            0,
            4,
            &Request::Ags(Ags::out_one(
                TsId(0),
                vec![Operand::cst("t"), Operand::cst(1)],
            )),
        ));
        assert_eq!(k.blocked_len(), 1);
        let woken: Vec<u64> = rx
            .try_iter()
            .filter_map(|n| match n {
                KernelNote::Completed {
                    local,
                    result: Ok(_),
                    ..
                } if local != 4 => Some(local),
                _ => None,
            })
            .collect();
        assert_eq!(woken, vec![2], "oldest blocked AGS wins");
    }

    #[test]
    fn cascading_unblock() {
        let (mut k, _rx) = kernel();
        k.apply(&app(1, 0, 1, &Request::CreateTs { name: "m".into() }));
        // A blocked: in(a) then out(b). B blocked: in(b) then out(c).
        let a = Ags::builder()
            .guard_in(TsId(0), vec![MF::actual("a")])
            .out(TsId(0), vec![Operand::cst("b")])
            .build()
            .unwrap();
        let b = Ags::builder()
            .guard_in(TsId(0), vec![MF::actual("b")])
            .out(TsId(0), vec![Operand::cst("c")])
            .build()
            .unwrap();
        k.apply(&app(2, 0, 2, &Request::Ags(b)));
        k.apply(&app(3, 0, 3, &Request::Ags(a)));
        assert_eq!(k.blocked_len(), 2);
        // Dropping "a" fires A, whose out of "b" must cascade into B.
        k.apply(&app(
            4,
            0,
            4,
            &Request::Ags(Ags::out_one(TsId(0), vec![Operand::cst("a")])),
        ));
        assert_eq!(k.blocked_len(), 0);
        assert_eq!(k.stable_len(TsId(0)), Some(1));
        assert_eq!(k.snapshot(TsId(0)).unwrap()[0], tuple!("c"));
    }

    #[test]
    fn failure_tuple_deposited_into_every_space_and_wakes_monitors() {
        let (mut k, rx) = kernel();
        k.apply(&app(1, 0, 1, &Request::CreateTs { name: "a".into() }));
        k.apply(&app(2, 0, 2, &Request::CreateTs { name: "b".into() }));
        // A monitor blocked on the failure tuple.
        let monitor =
            Ags::in_one(TsId(0), vec![MF::actual(FAILURE_TUPLE_HEAD), MF::bind(Int)]).unwrap();
        k.apply(&app(3, 0, 3, &Request::Ags(monitor)));
        assert_eq!(k.blocked_len(), 1);
        k.apply(&Delivery::Fail {
            seq: 4,
            host: HostId(2),
        });
        assert_eq!(k.blocked_len(), 0, "monitor woken by failure tuple");
        // Space b still holds its copy.
        assert_eq!(
            k.snapshot(TsId(1)).unwrap(),
            vec![tuple!(FAILURE_TUPLE_HEAD, 2)]
        );
        let woke: Vec<KernelNote> = rx.try_iter().collect();
        assert!(woke.iter().any(|n| matches!(
            n,
            KernelNote::Completed { local: 3, result: Ok(o), .. } if o.bindings == vec![Value::Int(2)]
        )));
        assert!(woke.iter().any(|n| matches!(
            n,
            KernelNote::HostFailed {
                host: HostId(2),
                ..
            }
        )));
    }

    #[test]
    fn crash_wakes_monitor_whose_out_cascades_to_older_blocked_ags() {
        // An older AGS waits on ("work", ?int); a monitor blocked on the
        // failure tuple outs ("work", host) when it fires; an unrelated
        // guard waits on ("nothing"). The crash must fire both the
        // monitor and, through its deposit, the older AGS — without
        // re-probing the guard whose signature nothing deposited.
        let worker = Ags::in_one(TsId(0), vec![MF::actual("work"), MF::bind(Int)]).unwrap();
        let monitor = Ags::builder()
            .guard_in(TsId(0), vec![MF::actual(FAILURE_TUPLE_HEAD), MF::bind(Int)])
            .out(TsId(0), vec![Operand::cst("work"), Operand::formal(0)])
            .build()
            .unwrap();
        let unrelated = Ags::in_one(TsId(0), vec![MF::actual("nothing")]).unwrap();
        let stream = vec![
            app(1, 0, 1, &Request::CreateTs { name: "m".into() }),
            app(2, 0, 2, &Request::Ags(worker)),
            app(3, 1, 1, &Request::Ags(monitor)),
            app(4, 1, 2, &Request::Ags(unrelated)),
            Delivery::Fail {
                seq: 5,
                host: HostId(2),
            },
        ];
        let (tx0, rx0) = crossbeam::channel::unbounded();
        let (tx1, _rx1) = crossbeam::channel::unbounded();
        let mut k0 = Kernel::new(HostId(0), tx0);
        let mut k1 = Kernel::new(HostId(1), tx1);
        let reg = linda_obs::Registry::new();
        k0.attach_obs(&reg);
        for d in &stream {
            k0.apply(d);
            k1.apply(d);
        }
        for k in [&k0, &k1] {
            assert_eq!(k.blocked_len(), 1, "only the unrelated guard waits");
            assert_eq!(k.stable_len(TsId(0)), Some(0), "failure and work consumed");
        }
        assert_eq!(k0.digest(), k1.digest());
        assert!(rx0.try_iter().any(|n| matches!(
            n,
            KernelNote::Completed { local: 2, result: Ok(o), .. } if o.bindings == vec![Value::Int(2)]
        )));
        let snap = reg.snapshot();
        let retries = snap
            .counter_family("ftlinda_blocked_retries_total")
            .expect("retry family registered");
        let count = |label: &str| -> u64 {
            retries
                .iter()
                .filter(|(labels, _)| labels.contains(label))
                .map(|(_, n)| *n)
                .sum()
        };
        assert_eq!(count("outcome=\"fired\""), 2);
        assert_eq!(
            count("signature=\"ts0:<str>\""),
            0,
            "a guard under no deposited key is never re-probed"
        );
    }

    #[test]
    fn scratch_outs_applied_only_for_own_origin() {
        let (mut k, _rx) = kernel();
        let scratch = LocalSpace::new();
        k.register_scratch(ScratchId(0), scratch.clone());
        k.apply(&app(1, 0, 1, &Request::CreateTs { name: "m".into() }));
        let ags = Ags::builder()
            .guard_true()
            .out(ScratchId(0), vec![Operand::cst("mine")])
            .build()
            .unwrap();
        // Own origin → materialized.
        k.apply(&app(2, 0, 2, &Request::Ags(ags.clone())));
        assert_eq!(scratch.len(), 1);
        // Foreign origin → not materialized here.
        k.apply(&app(3, 5, 1, &Request::Ags(ags)));
        assert_eq!(scratch.len(), 1);
    }

    #[test]
    fn blocked_retry_hits_miss_cache() {
        let (mut k, rx) = kernel();
        k.apply(&app(1, 0, 1, &Request::CreateTs { name: "m".into() }));
        // A guard that can only match ("job", 0) blocks; its first probe
        // misses and seeds the antituple cache.
        let in_ags = Ags::in_one(TsId(0), vec![MF::actual("job"), MF::actual(0)]).unwrap();
        k.apply(&app(2, 0, 2, &Request::Ags(in_ags)));
        assert_eq!(k.blocked_len(), 1);
        let before = k.introspect().spaces[0].match_stats;
        // Near misses — same signature and head, wrong value — cannot
        // satisfy the cached pattern. Each deposit still triggers a
        // blocked-guard retry, which the miss cache answers with zero
        // probes.
        for i in 1..=3u64 {
            k.apply(&app(
                2 + i,
                0,
                2 + i,
                &Request::Ags(Ags::out_one(
                    TsId(0),
                    vec![Operand::cst("job"), Operand::cst(i as i64)],
                )),
            ));
        }
        assert_eq!(k.blocked_len(), 1);
        let report = k.introspect();
        let delta = report.spaces[0].match_stats.since(&before);
        assert_eq!(delta.probes, 0, "retries answered from the miss cache");
        assert_eq!(delta.cache_hits, 3);
        assert!(report.spaces[0].index.miss_cached >= 1);
        // The genuinely matching deposit invalidates the entry and fires
        // the guard.
        k.apply(&app(
            6,
            0,
            6,
            &Request::Ags(Ags::out_one(
                TsId(0),
                vec![Operand::cst("job"), Operand::cst(0)],
            )),
        ));
        assert_eq!(k.blocked_len(), 0);
        assert!(rx.try_iter().any(|n| matches!(
            n,
            KernelNote::Completed {
                local: 2,
                result: Ok(_),
                ..
            }
        )));
    }

    #[test]
    fn restore_rebuilds_stores_without_derived_state() {
        let (mut k, _rx) = kernel();
        k.apply(&app(1, 0, 1, &Request::CreateTs { name: "m".into() }));
        k.apply(&app(
            2,
            0,
            2,
            &Request::Ags(Ags::out_one(
                TsId(0),
                vec![Operand::cst("job"), Operand::cst(1)],
            )),
        ));
        // Seed the miss cache with a blocked guard.
        let in_ags = Ags::in_one(TsId(0), vec![MF::actual("job"), MF::actual(9)]).unwrap();
        k.apply(&app(3, 0, 3, &Request::Ags(in_ags)));
        assert!(k.introspect().spaces[0].index.miss_cached > 0);
        let image = k.checkpoint();
        let (mut k2, _rx2) = kernel();
        k2.apply(&Delivery::Restore { image });
        let sp = &k2.introspect().spaces[0];
        assert_eq!(
            sp.index,
            IndexReport::default(),
            "indexes and miss cache are derived, never checkpointed"
        );
        assert_eq!(sp.match_stats, MatchStats::default());
        assert_eq!(k2.digest(), k.digest(), "replicated state identical");
        assert_eq!(k2.blocked_len(), 1);
    }

    #[test]
    fn scraped_census_counters_survive_in_place_restore() {
        let (mut k, _rx) = kernel();
        let mut seq = 0;
        let mut apply = |k: &mut Kernel, req: Request| {
            seq += 1;
            k.apply(&app(seq, 0, seq, &req));
        };
        apply(&mut k, Request::CreateTs { name: "m".into() });
        for i in 0..40i64 {
            let row = vec![Operand::cst("row"), Operand::cst(i), Operand::cst(i * 10)];
            apply(&mut k, Request::Ags(Ags::out_one(TsId(0), row)));
        }
        // Withdrawing a late row probes past the promotion threshold in a
        // 40-tuple bucket, which builds a value index.
        let take = |i: i64| {
            Ags::in_one(
                TsId(0),
                vec![MF::actual("row"), MF::actual(i), MF::bind(Int)],
            )
            .unwrap()
        };
        apply(&mut k, Request::Ags(take(39)));
        let scrape = |k: &Kernel| {
            let mut snap = linda_obs::RegistrySnapshot::default();
            k.census_into(&mut snap);
            snap
        };
        let counter = |snap: &linda_obs::RegistrySnapshot, name: &str| {
            snap.counter_family(name)
                .and_then(|children| children.get("space=\"m\"").copied())
                .unwrap_or(0)
        };
        let before = scrape(&k);
        let attempts = counter(&before, "ftlinda_match_attempts_total");
        let builds = counter(&before, "ftlinda_index_builds_total");
        assert!(
            attempts >= 1 && builds >= 1,
            "{attempts} attempts, {builds} builds"
        );

        // A laggard's in-place restore swaps in fresh stores that count
        // from zero; the scraped counters must not go backwards.
        let image = k.checkpoint();
        k.apply(&Delivery::Restore { image });
        assert_eq!(k.introspect().spaces[0].match_stats, MatchStats::default());
        let restored = scrape(&k);
        assert_eq!(counter(&restored, "ftlinda_match_attempts_total"), attempts);
        assert_eq!(counter(&restored, "ftlinda_index_builds_total"), builds);
        apply(&mut k, Request::Ags(take(38)));
        let after = scrape(&k);
        assert!(counter(&after, "ftlinda_match_attempts_total") > attempts);
        assert!(counter(&after, "ftlinda_index_builds_total") >= builds);

        // Occupancy is read from the restored stores: an exact recount.
        let tuples = k.snapshot(TsId(0)).expect("space exists");
        let occupancy = after.gauge_family("ftlinda_ts_tuples").expect("declared");
        let mut recount: BTreeMap<String, i64> = BTreeMap::new();
        for t in &tuples {
            let labels = linda_obs::render_labels(&[
                ("space", "m"),
                ("signature", &t.signature().to_string()),
            ]);
            *recount.entry(labels).or_default() += 1;
        }
        assert_eq!(occupancy, &recount);
        assert_eq!(recount.values().sum::<i64>(), 38);
    }

    #[test]
    fn malformed_payload_noted_and_skipped() {
        let (mut k, rx) = kernel();
        k.apply(&Delivery::App {
            seq: 1,
            origin: HostId(4),
            local: 1,
            payload: Bytes::from_static(&[0xff, 0x00]),
        });
        assert!(matches!(
            rx.try_recv().unwrap(),
            KernelNote::Malformed {
                origin: HostId(4),
                ..
            }
        ));
        assert_eq!(k.applied_seq(), 1);
    }

    #[test]
    fn failed_ags_notifies_error() {
        let (mut k, rx) = kernel();
        k.apply(&app(1, 0, 1, &Request::CreateTs { name: "m".into() }));
        let bad = Ags::builder()
            .guard_true()
            .in_(TsId(0), vec![MF::actual("nope")])
            .build()
            .unwrap();
        k.apply(&app(2, 0, 2, &Request::Ags(bad)));
        let notes: Vec<KernelNote> = rx.try_iter().collect();
        assert!(notes.iter().any(|n| matches!(
            n,
            KernelNote::Completed {
                local: 2,
                result: Err(ExecError::BodyUnmatched { .. }),
                ..
            }
        )));
    }

    #[test]
    fn two_kernels_converge_on_same_stream() {
        let (tx1, _r1) = crossbeam::channel::unbounded();
        let (tx2, _r2) = crossbeam::channel::unbounded();
        let mut k1 = Kernel::new(HostId(0), tx1);
        let mut k2 = Kernel::new(HostId(1), tx2);
        let stream = vec![
            app(1, 0, 1, &Request::CreateTs { name: "m".into() }),
            app(
                2,
                0,
                2,
                &Request::Ags(Ags::out_one(
                    TsId(0),
                    vec![Operand::cst("count"), Operand::cst(0)],
                )),
            ),
            app(
                3,
                1,
                1,
                &Request::Ags(
                    Ags::builder()
                        .guard_in(TsId(0), vec![MF::actual("count"), MF::bind(Int)])
                        .out(
                            TsId(0),
                            vec![Operand::cst("count"), Operand::formal(0).add(1)],
                        )
                        .build()
                        .unwrap(),
                ),
            ),
            Delivery::Fail {
                seq: 4,
                host: HostId(3),
            },
            app(
                5,
                1,
                2,
                &Request::Ags(
                    Ags::in_one(TsId(0), vec![MF::actual("nothing"), MF::bind(Str)]).unwrap(),
                ),
            ),
        ];
        for d in &stream {
            k1.apply(d);
            k2.apply(d);
        }
        assert_eq!(k1.digest(), k2.digest());
        assert_eq!(k1.snapshot(TsId(0)), k2.snapshot(TsId(0)));
        assert_eq!(k1.blocked_len(), 1);
        assert_eq!(k2.blocked_len(), 1);
    }

    #[test]
    fn digest_survives_checkpoint_restore_renumbering() {
        let (mut k, _rx) = kernel();
        let mut seq = 0;
        let mut apply = |k: &mut Kernel, req: Request| {
            seq += 1;
            k.apply(&app(seq, 0, seq, &req));
        };
        apply(&mut k, Request::CreateTs { name: "m".into() });
        for i in 0..6 {
            let row = vec![Operand::cst("row"), Operand::cst(i)];
            apply(&mut k, Request::Ags(Ags::out_one(TsId(0), row)));
            apply(
                &mut k,
                Request::Ags(Ags::out_one(TsId(0), vec![Operand::cst(i)])),
            );
        }
        // Withdrawals from the middle of a bucket leave gaps in the store
        // seqs, which the restore renumbers densely.
        for i in [1, 4] {
            let take = Ags::in_one(TsId(0), vec![MF::actual("row"), MF::actual(i)]).unwrap();
            apply(&mut k, Request::Ags(take));
        }
        let image = k.checkpoint();
        let (mut k2, _rx2) = kernel();
        k2.apply(&Delivery::Restore { image });
        assert_eq!(k2.digest(), k.digest());
        assert_eq!(
            k2.canonical_space_digest(TsId(0)),
            k.canonical_space_digest(TsId(0))
        );
        // The two replicas stay equal as the restored one keeps applying.
        let update = Ags::in_one(TsId(0), vec![MF::actual("row"), MF::actual(0)]).unwrap();
        for kernel in [&mut k, &mut k2] {
            kernel.apply(&app(99, 0, 99, &Request::Ags(update.clone())));
        }
        assert_eq!(k2.digest(), k.digest());
    }

    #[test]
    fn digest_differs_on_diverged_state() {
        let (tx1, _r1) = crossbeam::channel::unbounded();
        let (tx2, _r2) = crossbeam::channel::unbounded();
        let mut k1 = Kernel::new(HostId(0), tx1);
        let mut k2 = Kernel::new(HostId(1), tx2);
        let create = app(1, 0, 1, &Request::CreateTs { name: "m".into() });
        k1.apply(&create);
        k2.apply(&create);
        k1.apply(&app(
            2,
            0,
            2,
            &Request::Ags(Ags::out_one(TsId(0), vec![Operand::cst(1)])),
        ));
        assert_ne!(k1.digest(), k2.digest());
    }

    #[test]
    fn starvation_sweep_reports_once_per_crossing() {
        let reg = linda_obs::Registry::new();
        let (mut k, _rx) = kernel();
        k.attach_obs(&reg);
        k.apply(&app(1, 0, 1, &Request::CreateTs { name: "m".into() }));
        // A near-miss tuple: right signature, wrong value.
        k.apply(&app(
            2,
            0,
            2,
            &Request::Ags(Ags::out_one(
                TsId(0),
                vec![Operand::cst("job"), Operand::cst(99)],
            )),
        ));
        // A guard that can never fire: in("job", 0) with only ("job", 99)
        // in the space.
        let never = Ags::in_one(TsId(0), vec![MF::actual("job"), MF::actual(0)]).unwrap();
        k.apply(&app(3, 0, 3, &Request::Ags(never)));
        assert_eq!(k.blocked_len(), 1);

        // Below threshold → nothing reported.
        assert!(k.starvation_sweep(Duration::from_secs(3600)).is_empty());
        assert!(k.starvation_sweep(Duration::ZERO).is_empty(), "disabled");

        std::thread::sleep(Duration::from_millis(10));
        let first = k.starvation_sweep(Duration::from_millis(5));
        assert_eq!(first.len(), 1, "one report per blocked AGS per crossing");
        let r = &first[0];
        assert_eq!(r.seq, 3);
        assert!(r.crossings >= 1);
        assert!(r.age >= Duration::from_millis(5));
        assert_eq!(r.nearest_miss, 1, "one same-signature tuple in store");
        assert!(
            r.guards.contains("ts0:"),
            "labels name the space: {}",
            r.guards
        );

        // Same crossing, swept again with a long threshold → silent.
        assert!(k.starvation_sweep(Duration::from_secs(3600)).is_empty());

        // Wait out another crossing → exactly one more report.
        std::thread::sleep(Duration::from_millis(10));
        let second = k.starvation_sweep(Duration::from_millis(5));
        assert_eq!(second.len(), 1);
        assert!(second[0].crossings > first[0].crossings);

        // Events and metrics line up with the two reports.
        assert_eq!(reg.events().recent_of("ags_starving").len(), 2);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("ftlinda_ags_starving_total"), Some(2));
        assert_eq!(snap.gauge("ftlinda_ags_starving"), Some(1));

        // Waking the starving AGS clears the gauge on the next sweep.
        k.apply(&app(
            4,
            0,
            4,
            &Request::Ags(Ags::out_one(
                TsId(0),
                vec![Operand::cst("job"), Operand::cst(0)],
            )),
        ));
        assert_eq!(k.blocked_len(), 0);
        assert!(k.starvation_sweep(Duration::from_millis(5)).is_empty());
        assert_eq!(reg.snapshot().gauge("ftlinda_ags_starving"), Some(0));
    }

    #[test]
    fn mixed_signature_wakeups_stay_fifo_fair() {
        let (mut k, rx) = kernel();
        k.apply(&app(1, 0, 1, &Request::CreateTs { name: "m".into() }));
        // Interleave blocked ins on two signatures: <str,int> and <str>.
        let sig_a = Ags::in_one(TsId(0), vec![MF::actual("a"), MF::bind(Int)]).unwrap();
        let sig_b = Ags::in_one(TsId(0), vec![MF::actual("b")]).unwrap();
        k.apply(&app(2, 0, 2, &Request::Ags(sig_a.clone())));
        k.apply(&app(3, 0, 3, &Request::Ags(sig_b.clone())));
        k.apply(&app(4, 0, 4, &Request::Ags(sig_a)));
        k.apply(&app(5, 0, 5, &Request::Ags(sig_b)));
        assert_eq!(k.blocked_len(), 4);
        // An out for signature B must wake the OLDEST B-waiter (local 3),
        // skipping the older A-waiter (local 2) that doesn't match.
        k.apply(&app(
            6,
            0,
            6,
            &Request::Ags(Ags::out_one(TsId(0), vec![Operand::cst("b")])),
        ));
        // Then an out for A wakes local 2, the overall oldest.
        k.apply(&app(
            7,
            0,
            7,
            &Request::Ags(Ags::out_one(
                TsId(0),
                vec![Operand::cst("a"), Operand::cst(1)],
            )),
        ));
        let woken: Vec<u64> = rx
            .try_iter()
            .filter_map(|n| match n {
                KernelNote::Completed {
                    local,
                    result: Ok(_),
                    ..
                } if local < 6 => Some(local),
                _ => None,
            })
            .collect();
        assert_eq!(woken, vec![3, 2], "per-signature FIFO, oldest first");
        assert_eq!(k.blocked_len(), 2);
    }

    #[test]
    fn register_ts_installs_explicit_id_idempotently() {
        let (mut k, rx) = kernel();
        k.apply(&app(
            1,
            0,
            1,
            &Request::RegisterTs {
                id: 5,
                name: "m".into(),
            },
        ));
        assert_eq!(k.lookup("m"), Some(TsId(5)));
        // Re-registering changes nothing.
        k.apply(&app(
            2,
            0,
            2,
            &Request::RegisterTs {
                id: 5,
                name: "m".into(),
            },
        ));
        assert_eq!(k.lookup("m"), Some(TsId(5)));
        // A later CreateTs allocates past the registered id.
        k.apply(&app(3, 0, 3, &Request::CreateTs { name: "n".into() }));
        assert_eq!(k.lookup("n"), Some(TsId(6)));
        let created: Vec<TsId> = rx
            .try_iter()
            .filter_map(|n| match n {
                KernelNote::TsCreated { id, .. } => Some(id),
                _ => None,
            })
            .collect();
        assert_eq!(created, vec![TsId(5), TsId(5), TsId(6)]);
    }

    /// Full cross-shard commit between a participant and a home kernel:
    /// lock checks buckets out and freezes, exec runs against the
    /// combined state, release reinstates writebacks and replays the
    /// deferred deliveries.
    #[test]
    fn cross_shard_lock_exec_release_roundtrip() {
        let (mut home, home_rx) = kernel();
        let (mut part, part_rx) = kernel();
        home.apply(&app(1, 0, 1, &Request::CreateTs { name: "m".into() }));
        part.apply(&app(
            1,
            0,
            1,
            &Request::RegisterTs {
                id: 0,
                name: "m".into(),
            },
        ));
        // The participant owns the <str,int> bucket with two tuples.
        for (i, v) in [1i64, 2].iter().enumerate() {
            part.apply(&app(
                2 + i as u64,
                0,
                2 + i as u64,
                &Request::Ags(Ags::out_one(
                    TsId(0),
                    vec![Operand::cst("x"), Operand::cst(*v)],
                )),
            ));
        }
        let sig = tuple!("x", 1).signature().stable_hash();
        // A waiter on the participant for a tuple the exec will deposit.
        let waiter = Ags::in_one(TsId(0), vec![MF::actual("sum"), MF::bind(Int)]).unwrap();
        part.apply(&app(4, 0, 4, &Request::Ags(waiter)));
        assert_eq!(part.blocked_len(), 1);

        // Leg 1: lock.
        part.apply(&app(
            5,
            0,
            5,
            &Request::XLock {
                xid: 99,
                keys: vec![(0, sig)],
            },
        ));
        let buckets = match part_rx.try_iter().last().unwrap() {
            KernelNote::XCheckedOut {
                xid: 99, buckets, ..
            } => buckets,
            other => panic!("{other:?}"),
        };
        assert_eq!(
            buckets,
            vec![(0, sig, vec![tuple!("x", 1), tuple!("x", 2)])]
        );
        assert_eq!(part.stable_len(TsId(0)), Some(0), "bucket checked out");

        // While frozen, deliveries are deferred.
        part.apply(&app(
            6,
            0,
            6,
            &Request::Ags(Ags::out_one(
                TsId(0),
                vec![Operand::cst("x"), Operand::cst(9)],
            )),
        ));
        assert_eq!(part.stable_len(TsId(0)), Some(0), "frozen: out deferred");
        // Checkpoint markers are dropped, not deferred.
        part.apply(&Delivery::Checkpoint { seq: 7 });
        assert!(part.take_pending_checkpoint().is_none());

        // Leg 2: exec at home. Guard takes the oldest foreign ("x", 1);
        // body deposits ("sum", 11) into the same foreign bucket.
        let ags = Ags::builder()
            .guard_in(TsId(0), vec![MF::actual("x"), MF::bind(Int)])
            .out(
                TsId(0),
                vec![Operand::cst("sum"), Operand::formal(0).add(10)],
            )
            .build()
            .unwrap();
        home.apply(&app(
            2,
            0,
            2,
            &Request::XExec {
                xid: 99,
                ags,
                foreign: buckets,
            },
        ));
        let (result, writebacks) = match home_rx.try_iter().last().unwrap() {
            KernelNote::XStaged {
                xid: 99,
                result,
                writebacks,
                ..
            } => (result, writebacks),
            other => panic!("{other:?}"),
        };
        match result {
            XStageResult::Fired(o) => assert_eq!(o.bindings, vec![Value::Int(1)]),
            other => panic!("{other:?}"),
        }
        assert_eq!(
            writebacks,
            vec![(0, sig, vec![tuple!("x", 2), tuple!("sum", 11)])],
            "guarded take consumed the oldest; the deposit rides back"
        );
        assert_eq!(
            home.stable_len(TsId(0)),
            Some(0),
            "nothing stranded at home"
        );

        // Leg 3: release. Buckets reinstated, waiter wakes on the
        // deposited ("sum", 11), deferred out replays after.
        part.apply(&app(
            8,
            0,
            8,
            &Request::XRelease {
                xid: 99,
                buckets: writebacks,
            },
        ));
        assert_eq!(part.blocked_len(), 0, "waiter woken by the writeback");
        assert_eq!(
            part.snapshot(TsId(0)).unwrap(),
            vec![tuple!("x", 2), tuple!("x", 9)],
            "writeback order then deferred deliveries"
        );
        let notes: Vec<KernelNote> = part_rx.try_iter().collect();
        assert!(notes
            .iter()
            .any(|n| matches!(n, KernelNote::XReleased { xid: 99, .. })));
        assert!(notes.iter().any(|n| matches!(
            n,
            KernelNote::Completed { local: 4, result: Ok(o), .. } if o.bindings == vec![Value::Int(11)]
        )));
    }

    /// The home shard is itself locked before the exec (the origin
    /// acquires every participating shard in ascending order, home
    /// included, for deadlock freedom), so its own `XExec` must pass
    /// through the freeze while foreign transactions stay deferred.
    #[test]
    fn own_xexec_passes_through_home_freeze() {
        let (mut home, rx) = kernel();
        home.apply(&app(1, 0, 1, &Request::CreateTs { name: "m".into() }));
        home.apply(&app(
            2,
            0,
            2,
            &Request::Ags(Ags::out_one(
                TsId(0),
                vec![Operand::cst("x"), Operand::cst(5)],
            )),
        ));
        let sig = tuple!("x", 1).signature().stable_hash();
        home.apply(&app(
            3,
            0,
            3,
            &Request::XLock {
                xid: 42,
                keys: vec![(0, sig)],
            },
        ));
        let buckets = match rx.try_iter().last().unwrap() {
            KernelNote::XCheckedOut { buckets, .. } => buckets,
            other => panic!("{other:?}"),
        };
        let ags = Ags::builder()
            .guard_in(TsId(0), vec![MF::actual("x"), MF::bind(Int)])
            .build()
            .unwrap();
        home.apply(&app(
            4,
            0,
            4,
            &Request::XExec {
                xid: 42,
                ags,
                foreign: buckets,
            },
        ));
        let writebacks = match rx.try_iter().last().unwrap() {
            KernelNote::XStaged {
                result: XStageResult::Fired(_),
                writebacks,
                ..
            } => writebacks,
            other => panic!("{other:?}"),
        };
        assert_eq!(
            writebacks,
            vec![(0, sig, vec![])],
            "the one tuple was taken"
        );
        home.apply(&app(
            5,
            0,
            5,
            &Request::XRelease {
                xid: 42,
                buckets: writebacks,
            },
        ));
        assert_eq!(home.stable_len(TsId(0)), Some(0));
        // Unfrozen: a plain out applies immediately again.
        home.apply(&app(
            6,
            0,
            6,
            &Request::Ags(Ags::out_one(TsId(0), vec![Operand::cst("done")])),
        ));
        assert_eq!(home.stable_len(TsId(0)), Some(1));
    }

    #[test]
    fn origin_failure_aborts_hold_and_reinstates_buckets() {
        let (mut part, _rx) = kernel();
        part.apply(&app(1, 0, 1, &Request::CreateTs { name: "m".into() }));
        part.apply(&app(
            2,
            0,
            2,
            &Request::Ags(Ags::out_one(
                TsId(0),
                vec![Operand::cst("x"), Operand::cst(1)],
            )),
        ));
        let sig = tuple!("x", 1).signature().stable_hash();
        // Lock submitted by host 7, which then fails mid-protocol.
        part.apply(&app(
            3,
            7,
            1,
            &Request::XLock {
                xid: 5,
                keys: vec![(0, sig)],
            },
        ));
        assert_eq!(part.stable_len(TsId(0)), Some(0));
        // Deferred while frozen.
        part.apply(&app(
            4,
            0,
            4,
            &Request::Ags(Ags::out_one(TsId(0), vec![Operand::cst("later")])),
        ));
        part.apply(&Delivery::Fail {
            seq: 5,
            host: HostId(7),
        });
        let snap = part.snapshot(TsId(0)).unwrap();
        assert!(
            snap.contains(&tuple!("x", 1)),
            "bucket reinstated: {snap:?}"
        );
        assert!(snap.contains(&tuple!("later")), "deferred out replayed");
        assert!(
            snap.contains(&tuple!(FAILURE_TUPLE_HEAD, 7)),
            "failure tuple deposited after the abort"
        );
        // Unfrozen again: new deliveries apply immediately.
        part.apply(&app(
            6,
            0,
            6,
            &Request::Ags(Ags::out_one(TsId(0), vec![Operand::cst("after")])),
        ));
        assert!(part.snapshot(TsId(0)).unwrap().contains(&tuple!("after")));
    }

    #[test]
    fn lock_expiry_abort_is_counted_and_traced_per_shard() {
        let (mut part, _rx) = kernel();
        part.set_shard(ShardSpec { index: 1, count: 2 });
        let reg = linda_obs::Registry::new();
        part.attach_obs_with(&reg, true);
        part.apply(&app(1, 0, 1, &Request::CreateTs { name: "m".into() }));
        part.apply(&app(
            2,
            0,
            2,
            &Request::Ags(Ags::out_one(
                TsId(0),
                vec![Operand::cst("x"), Operand::cst(1)],
            )),
        ));
        let sig = tuple!("x", 1).signature().stable_hash();
        part.apply(&app(
            3,
            7,
            1,
            &Request::XLock {
                xid: 5,
                keys: vec![(0, sig)],
            },
        ));
        // One delivery buffered behind the hold, then the origin dies.
        part.apply(&app(
            4,
            0,
            4,
            &Request::Ags(Ags::out_one(TsId(0), vec![Operand::cst("later")])),
        ));
        part.apply(&Delivery::Fail {
            seq: 5,
            host: HostId(7),
        });
        let snap = reg.snapshot();
        let aborts = snap
            .counter_family("ftlinda_xcommit_aborts_total")
            .expect("abort family registered");
        assert_eq!(
            aborts.get("cause=\"lock_expiry\",shard=\"1\""),
            Some(&1),
            "aborts: {aborts:?}"
        );
        let buffered = snap
            .counter_family("ftlinda_xlock_buffered_total")
            .expect("buffered family registered");
        assert_eq!(buffered.get("shard=\"1\""), Some(&1));
        // The transaction trace carries xlock + xabort on this shard's
        // lane, and the buffered AGS's own trace shows its lock_wait.
        let spans = reg.spans().spans_of(linda_obs::TraceId::for_xid(5));
        let tree = linda_obs::TraceTree::assemble(linda_obs::TraceId::for_xid(5), spans);
        assert_eq!(tree.shards(), vec![1]);
        assert!(tree.first_at_on_shard("xlock", 1).is_some());
        let lane = tree.shard_lane(1);
        let abort = lane
            .iter()
            .find(|s| s.stage == "xabort")
            .expect("xabort span");
        assert!(abort
            .fields
            .iter()
            .any(|(k, v)| k == "cause" && v == "lock_expiry"));
        let waiter_spans = reg.spans().spans_of(linda_obs::TraceId::new(0, 4));
        assert!(
            waiter_spans.iter().any(|s| s.stage == "lock_wait"),
            "buffered delivery stamped with its queue time: {waiter_spans:?}"
        );
    }

    #[test]
    fn sharded_fail_tuples_partition_without_overlap() {
        let mk = |index| {
            let (tx, _rx) = crossbeam::channel::unbounded();
            let mut k = Kernel::new(HostId(0), tx);
            k.set_shard(ShardSpec { index, count: 2 });
            for (seq, name) in [(1, "a"), (2, "b"), (3, "c")] {
                k.apply(&app(seq, 0, seq, &Request::CreateTs { name: name.into() }));
            }
            k
        };
        let mut k0 = mk(0);
        let mut k1 = mk(1);
        let fail = Delivery::Fail {
            seq: 4,
            host: HostId(9),
        };
        k0.apply(&fail);
        k1.apply(&fail);
        for ts in [TsId(0), TsId(1), TsId(2)] {
            let total = k0.stable_len(ts).unwrap() + k1.stable_len(ts).unwrap();
            assert_eq!(
                total, 1,
                "exactly one failure tuple per space across shards"
            );
        }
    }

    #[test]
    fn canonical_digest_is_global_order_insensitive_but_bucket_order_sensitive() {
        let (mut u, _r1) = kernel();
        let (mut a, _r2) = kernel();
        let (mut b, _r3) = kernel();
        for k in [&mut u, &mut a, &mut b] {
            k.apply(&app(1, 0, 1, &Request::CreateTs { name: "m".into() }));
        }
        let out = |v: Vec<Operand>| Request::Ags(Ags::out_one(TsId(0), v));
        // Unsharded: interleaved insertion across two signatures.
        u.apply(&app(
            2,
            0,
            2,
            &out(vec![Operand::cst("p"), Operand::cst(1)]),
        ));
        u.apply(&app(3, 0, 3, &out(vec![Operand::cst("q")])));
        u.apply(&app(
            4,
            0,
            4,
            &out(vec![Operand::cst("p"), Operand::cst(2)]),
        ));
        // Sharded: each bucket on its own kernel, different global order.
        a.apply(&app(
            2,
            0,
            2,
            &out(vec![Operand::cst("p"), Operand::cst(1)]),
        ));
        a.apply(&app(
            3,
            0,
            3,
            &out(vec![Operand::cst("p"), Operand::cst(2)]),
        ));
        b.apply(&app(2, 0, 2, &out(vec![Operand::cst("q")])));
        assert_eq!(
            u.canonical_space_digest(TsId(0)),
            a.canonical_space_digest(TsId(0)) ^ b.canonical_space_digest(TsId(0)),
            "XOR over shards equals the unsharded digest"
        );
        // Swapping the order WITHIN a bucket must change the digest.
        let (mut a2, _r4) = kernel();
        a2.apply(&app(1, 0, 1, &Request::CreateTs { name: "m".into() }));
        a2.apply(&app(
            2,
            0,
            2,
            &out(vec![Operand::cst("p"), Operand::cst(2)]),
        ));
        a2.apply(&app(
            3,
            0,
            3,
            &out(vec![Operand::cst("p"), Operand::cst(1)]),
        ));
        assert_ne!(
            a.canonical_space_digest(TsId(0)),
            a2.canonical_space_digest(TsId(0)),
            "within-bucket (withdraw) order is pinned"
        );
        // Empty and missing spaces digest to 0.
        assert_eq!(u.canonical_space_digest(TsId(9)), 0);
    }

    #[test]
    fn introspect_reports_spaces_and_blocked_table() {
        let (mut k, _rx) = kernel();
        k.apply(&app(
            1,
            0,
            1,
            &Request::CreateTs {
                name: "jobs".into(),
            },
        ));
        k.apply(&app(
            2,
            0,
            2,
            &Request::CreateTs {
                name: "acks".into(),
            },
        ));
        for (i, seq) in (0..3).zip(3..) {
            k.apply(&app(
                seq,
                0,
                seq,
                &Request::Ags(Ags::out_one(
                    TsId(0),
                    vec![Operand::cst("job"), Operand::cst(i)],
                )),
            ));
        }
        let waiter = Ags::in_one(TsId(0), vec![MF::actual("done"), MF::bind(Int)]).unwrap();
        k.apply(&app(10, 1, 1, &Request::Ags(waiter)));

        let report = k.introspect();
        assert_eq!(report.applied, 10);
        assert_eq!(report.spaces.len(), 2);
        let jobs = &report.spaces[0];
        assert_eq!(jobs.name, "jobs");
        assert_eq!(jobs.tuples, 3);
        assert_eq!(jobs.signatures.len(), 1);
        assert_eq!(jobs.signatures[0].count, 3);
        assert_eq!(jobs.signatures[0].high_water, 3);
        assert_eq!(jobs.signatures[0].signature.to_string(), "<str,int>");
        assert!(jobs.match_stats.attempts >= 1, "the blocked in probed");
        assert_eq!(report.spaces[1].tuples, 0);

        assert_eq!(report.blocked.len(), 1);
        let b = &report.blocked[0];
        assert_eq!(b.seq, 10);
        assert_eq!(b.origin, HostId(1));
        assert_eq!(b.nearest_miss, 3, "three same-signature tuples miss");
        assert!(!b.starving);
        assert!(b.guards.contains("<str,int>"), "guards: {}", b.guards);
    }
}
