//! The per-host FT-Linda runtime: the library a process links against.
//!
//! Each host runs one [`Runtime`]. It owns the host's replica kernels
//! (one per shard — a single kernel in the default unsharded
//! configuration), one apply thread per shard feeding each kernel its
//! totally-ordered delivery stream, and the completion plumbing that
//! resolves a client's blocking call when *this* host's kernel reports
//! the client's AGS as executed.
//!
//! The paper's Figure 15 architecture maps as: FT-Linda library =
//! [`Runtime`] methods; Consul = `consul_sim::SeqMember`; TS state
//! machine = `ftlinda_kernel::Kernel`.
//!
//! ## Sharded routing
//!
//! Under `ClusterBuilder::shards(K)` with K > 1, stable tuple spaces are
//! partitioned by `(TsId, signature stable-hash)` across K independent
//! sequencer groups. Every AGS is analysed statically
//! ([`ftlinda_ags::static_keys`]): the signature buckets it can touch
//! are decidable from types alone, so almost every AGS routes to exactly
//! one shard's ordering stream and pays one multicast there — K disjoint
//! total orders instead of one. The rare AGS whose buckets span shards
//! commits through a three-leg protocol (`XLock`/`XExec`/`XRelease`)
//! driven from [`Runtime::execute`]: it freezes every participating
//! shard in ascending shard-id order (deadlock freedom), stages the
//! execution on the lowest-id ("home") shard against the checked-out
//! buckets, and releases each shard with its rewritten buckets.

use crate::error::FtError;
use consul_sim::{HostId, LocalId, SeqMember};
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use ftlinda_ags::{
    imbalance_bp, shard_of, static_keys, Ags, AgsOutcome, MatchField, Operand, ScratchId, TsId,
};
use ftlinda_kernel::{
    encode_request, IntrospectReport, Kernel, KernelNote, Request, ShardSpec, SigBucket,
    XStageResult,
};
use linda_space::LocalSpace;
use linda_tuple::{PatField, Pattern, Tuple, Value};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Failure/recovery events observable by application code (in addition to
/// the failure *tuples* deposited in every stable TS).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FtEvent {
    /// A host was detected as failed (ordered with the command stream).
    HostFailed(HostId),
    /// A host rejoined.
    HostJoined(HostId),
}

type CompletionTx = Sender<Result<CompletionOk, FtError>>;

/// Observability configuration for one [`Runtime`] (set through
/// [`crate::ClusterBuilder`]).
#[derive(Debug, Clone)]
pub struct RuntimeConfig {
    /// Emit an `ags_starving` event each time a blocked AGS's age crosses
    /// a further multiple of this threshold. `None` disables the
    /// watchdog thread.
    pub starvation_after: Option<Duration>,
}

/// Successful completion payload routed back to a waiting client.
#[derive(Debug, Clone, PartialEq)]
pub enum CompletionOk {
    /// An AGS fired.
    Ags(AgsOutcome),
    /// A `CreateTs` (or `RegisterTs`) resolved.
    Ts(TsId),
    /// An `XLock` checked its buckets out (cross-shard leg 1).
    Buckets(Vec<SigBucket>),
    /// An `XExec` staged at the home shard (cross-shard leg 2).
    Staged {
        /// What the staged execution did.
        result: XStageResult,
        /// The foreign buckets, rewritten by the execution.
        writebacks: Vec<SigBucket>,
    },
    /// An `XRelease` reinstated its buckets (cross-shard leg 3).
    Released,
}

/// One shard's slice of the host: the ordering-layer member and the
/// replica kernel applying its delivery stream.
struct Lane {
    member: Arc<SeqMember>,
    kernel: Mutex<Kernel>,
}

struct Shared {
    /// Per-call completion channel and submit instant, keyed by the
    /// origin-local broadcast id. Shared across shards: per-shard
    /// `local_base` offsets keep the id spaces disjoint.
    waiting: Mutex<HashMap<LocalId, (CompletionTx, Instant)>>,
    events: Mutex<Vec<Sender<FtEvent>>>,
    lanes: Vec<Lane>,
    /// The apply threads and the watchdog, joined by
    /// [`Runtime::shutdown`].
    threads: Mutex<Vec<JoinHandle<()>>>,
    /// Dropped by [`Runtime::shutdown`] to stop the watchdog.
    stop_tx: Mutex<Option<Sender<()>>>,
    config: RuntimeConfig,
    next_scratch: AtomicU32,
    /// Cross-shard transaction ids handed out by this origin.
    next_xid: AtomicU64,
    /// Runtime-level registry (shard 0's): client histograms, runtime
    /// events. Per-shard ordering/kernel metrics live on each lane's own
    /// member registry; [`Runtime::metrics_text`] merges them.
    obs: Arc<linda_obs::Registry>,
    spans: Arc<linda_obs::SpanLog>,
    hist_submit: Arc<linda_obs::Histogram>,
    hist_notify: Arc<linda_obs::Histogram>,
    hist_total: Arc<linda_obs::Histogram>,
    completions: Arc<linda_obs::Counter>,
    /// Cross-shard commit attempts this origin re-drove after a
    /// `Blocked` stage, labeled by the home shard that refused.
    xcommit_retries: Arc<linda_obs::CounterFamily>,
}

/// Handle to the FT-Linda runtime on one host. Cloneable; clones share
/// the host's kernels and connections.
#[derive(Clone)]
pub struct Runtime {
    host: HostId,
    shared: Arc<Shared>,
}

/// Where one AGS goes.
enum RouteTo {
    /// Every bucket the AGS touches lives on this one shard: submit it
    /// to that shard's sequencer like any unsharded AGS.
    Single(usize),
    /// The buckets span shards: drive the cross-shard commit protocol
    /// over these `(ts, sig)` keys.
    Cross(Vec<(TsId, u64)>),
}

impl Runtime {
    /// Wire a runtime over one ordering member per shard (all for the
    /// same host). `members[i]` carries shard `i`'s total order; each
    /// gets its own replica kernel scoped to that shard's buckets.
    /// Spawns one apply thread per shard. (Use [`crate::Cluster`] rather
    /// than calling this directly.)
    pub fn with_members(members: Vec<SeqMember>, config: RuntimeConfig) -> Runtime {
        assert!(!members.is_empty(), "at least one shard member");
        let host = members[0].host();
        let shard_count = members.len() as u32;
        let obs0 = members[0].obs();
        let hist_submit = obs0.histogram(
            "ftlinda_ags_submit_seconds",
            "Client encode + broadcast handoff latency",
        );
        let hist_notify = obs0.histogram(
            "ftlinda_ags_notify_seconds",
            "Kernel completion to client notify latency",
        );
        let hist_total = obs0.histogram(
            "ftlinda_ags_total_seconds",
            "End-to-end AGS latency: submit to completion routed",
        );
        let completions = obs0.counter(
            "ftlinda_ags_completions_total",
            "AGS/CreateTs completions routed to local clients",
        );
        let xcommit_retries = obs0.counter_family(
            "ftlinda_xcommit_retries_total",
            "Cross-shard commits re-driven after a Blocked stage, by home shard",
        );
        let spans = obs0.spans_handle();
        let mut lanes = Vec::with_capacity(members.len());
        let mut note_rxs = Vec::with_capacity(members.len());
        for (i, member) in members.into_iter().enumerate() {
            let (note_tx, note_rx) = crossbeam::channel::unbounded::<KernelNote>();
            let mut kernel = Kernel::new(host, note_tx);
            kernel.set_shard(ShardSpec {
                index: i as u32,
                count: shard_count,
            });
            kernel.attach_obs(&member.obs());
            lanes.push(Lane {
                member: Arc::new(member),
                kernel: Mutex::new(kernel),
            });
            note_rxs.push(note_rx);
        }
        let shared = Arc::new(Shared {
            waiting: Mutex::new(HashMap::new()),
            events: Mutex::new(Vec::new()),
            lanes,
            threads: Mutex::new(Vec::new()),
            stop_tx: Mutex::new(None),
            config,
            next_scratch: AtomicU32::new(0),
            next_xid: AtomicU64::new(1),
            obs: obs0,
            spans,
            hist_submit,
            hist_notify,
            hist_total,
            completions,
            xcommit_retries,
        });
        let rt = Runtime {
            host,
            shared: shared.clone(),
        };
        let mut threads: Vec<JoinHandle<()>> = note_rxs
            .into_iter()
            .enumerate()
            .map(|(i, note_rx)| Self::spawn_apply(shared.clone(), i, note_rx))
            .collect();
        if let Some(threshold) = rt.shared.config.starvation_after.filter(|t| !t.is_zero()) {
            threads.push(rt.spawn_watchdog(threshold));
        }
        *shared.threads.lock() = threads;
        rt
    }

    /// One apply thread per shard: feed the lane's kernel its delivery
    /// stream and route the resulting kernel notes to local waiters. It
    /// blocks on the stream and exits when the stream ends, that is when
    /// the member's protocol thread has exited.
    fn spawn_apply(
        shared: Arc<Shared>,
        lane_idx: usize,
        note_rx: Receiver<KernelNote>,
    ) -> JoinHandle<()> {
        let member = shared.lanes[lane_idx].member.clone();
        let host = member.host();
        std::thread::Builder::new()
            .name(format!("ftlinda-apply-{host}-s{lane_idx}"))
            .spawn(move || loop {
                let Ok(d) = member.deliveries().recv() else {
                    // Wake all waiters with Shutdown.
                    let mut w = shared.waiting.lock();
                    for (_, (tx, _)) in w.drain() {
                        let _ = tx.send(Err(FtError::Shutdown));
                    }
                    return;
                };
                // Pipelining: a batched multicast (or a replayed
                // snapshot) lands many deliveries at once; drain them
                // and apply the whole run under one kernel lock instead
                // of re-acquiring per record.
                let mut run = vec![d];
                run.extend(member.deliveries().try_iter().take(255));
                let pending = {
                    let mut k = shared.lanes[lane_idx].kernel.lock();
                    k.apply_all(&run);
                    k.take_pending_checkpoint()
                };
                // An ordered checkpoint boundary was in the run: the
                // kernel snapshotted itself there; hand the image back to
                // the ordering layer so it can truncate its log and serve
                // joiners in O(state).
                if let Some(image) = pending {
                    shared.obs.events_handle().emit(linda_obs::Event::new(
                        "checkpoint_taken",
                        vec![
                            ("host".into(), host.to_string()),
                            ("shard".into(), lane_idx.to_string()),
                            ("seq".into(), image.seq.to_string()),
                            ("bytes".into(), image.bytes.len().to_string()),
                        ],
                    ));
                    member.install_checkpoint(image);
                }
                // Route kernel notes produced by this apply.
                for note in note_rx.try_iter() {
                    let routed_at = Instant::now();
                    let route_ok =
                        |local: LocalId, outcome: &str, payload: Result<CompletionOk, FtError>| {
                            if let Some((tx, t0)) = shared.waiting.lock().remove(&local) {
                                shared.hist_total.observe(t0.elapsed());
                                shared.completions.inc();
                                shared.spans.record(
                                    linda_obs::TraceId::new(host.0, local),
                                    "complete",
                                    host.0,
                                    &[("outcome", &outcome)],
                                );
                                let _ = tx.send(payload);
                                shared.hist_notify.observe(routed_at.elapsed());
                            }
                        };
                    match note {
                        KernelNote::Completed { local, result, .. } => {
                            let outcome = if result.is_ok() { "ok" } else { "err" };
                            route_ok(
                                local,
                                outcome,
                                result.map(CompletionOk::Ags).map_err(FtError::Exec),
                            );
                        }
                        KernelNote::TsCreated { local, id, .. } => {
                            route_ok(local, "ts_created", Ok(CompletionOk::Ts(id)));
                        }
                        KernelNote::XCheckedOut { local, buckets, .. } => {
                            route_ok(local, "xlock", Ok(CompletionOk::Buckets(buckets)));
                        }
                        KernelNote::XStaged {
                            local,
                            result,
                            writebacks,
                            ..
                        } => {
                            route_ok(
                                local,
                                "xexec",
                                Ok(CompletionOk::Staged { result, writebacks }),
                            );
                        }
                        KernelNote::XReleased { local, .. } => {
                            route_ok(local, "xrelease", Ok(CompletionOk::Released));
                        }
                        KernelNote::HostFailed { host, .. } => {
                            Self::publish(&shared, FtEvent::HostFailed(host));
                        }
                        KernelNote::HostJoined { host, .. } => {
                            Self::publish(&shared, FtEvent::HostJoined(host));
                        }
                        KernelNote::Restored { seq } => {
                            shared.obs.events_handle().emit(linda_obs::Event::new(
                                "state_restored",
                                vec![
                                    ("host".into(), host.to_string()),
                                    ("shard".into(), lane_idx.to_string()),
                                    ("seq".into(), seq.to_string()),
                                ],
                            ));
                            // The replica jumped to a checkpoint image:
                            // calls in flight across the jump are
                            // indeterminate (their records may lie inside
                            // the compacted history). Fail their waiters
                            // explicitly rather than leaving them hung.
                            let mut w = shared.waiting.lock();
                            for (_, (tx, _)) in w.drain() {
                                let _ = tx.send(Err(FtError::StateTransfer));
                            }
                        }
                        KernelNote::Evicted { seq } => {
                            shared.obs.events_handle().emit(linda_obs::Event::new(
                                "evicted",
                                vec![
                                    ("host".into(), host.to_string()),
                                    ("shard".into(), lane_idx.to_string()),
                                    ("seq".into(), seq.to_string()),
                                ],
                            ));
                            // The coordinator ordered a Fail for us while
                            // we were alive: records delivered between the
                            // Fail and our re-admission bypassed us, so
                            // in-flight calls are indeterminate. Fail
                            // their waiters rather than leaving them hung
                            // until the rejoin replays the stream.
                            let mut w = shared.waiting.lock();
                            for (_, (tx, _)) in w.drain() {
                                let _ = tx.send(Err(FtError::Evicted));
                            }
                        }
                        KernelNote::RestoreFailed { seq, ref error } => {
                            shared.obs.events_handle().emit(linda_obs::Event::new(
                                "restore_failed",
                                vec![
                                    ("host".into(), host.to_string()),
                                    ("shard".into(), lane_idx.to_string()),
                                    ("seq".into(), seq.to_string()),
                                    ("error".into(), error.to_string()),
                                ],
                            ));
                        }
                        KernelNote::Malformed { .. } => {}
                    }
                }
            })
            .expect("spawn apply thread")
    }

    /// Background starvation watchdog: periodically runs every lane
    /// kernel's sweep so blocked AGSs whose age crosses the threshold
    /// surface as `ags_starving` events without anyone polling
    /// `/introspect`.
    ///
    /// Shard-aware in three phases so no two kernel locks are ever held
    /// at once: collect each lane's foreign guard keys, resolve their
    /// occupancy against the owning lanes, then sweep each lane with the
    /// resolved map — nearest-miss counts are attributed to the shard
    /// that actually stores the bucket, not read as zero from the lane
    /// where the AGS happens to be queued.
    fn spawn_watchdog(&self, threshold: Duration) -> JoinHandle<()> {
        let shared = self.shared.clone();
        let host = self.host;
        let (stop_tx, stop) = crossbeam::channel::bounded::<()>(0);
        *shared.stop_tx.lock() = Some(stop_tx);
        // Sweep a few times per threshold so a crossing is reported
        // promptly, but never spin faster than 10ms.
        let period = (threshold / 4).clamp(Duration::from_millis(10), Duration::from_secs(1));
        std::thread::Builder::new()
            .name(format!("ftlinda-watchdog-{host}"))
            .spawn(move || {
                while let Err(RecvTimeoutError::Timeout) = stop.recv_timeout(period) {
                    Self::sweep_lanes(&shared, threshold);
                }
            })
            .expect("spawn starvation watchdog")
    }

    /// One shard-aware watchdog pass over every lane (see
    /// [`Runtime::spawn_watchdog`] for the three-phase locking rationale).
    fn sweep_lanes(shared: &Shared, threshold: Duration) -> Vec<ftlinda_kernel::StarvationReport> {
        let mut wanted: Vec<(u32, TsId, u64)> = Vec::new();
        for lane in &shared.lanes {
            wanted.extend(lane.kernel.lock().blocked_foreign_keys());
        }
        wanted.sort_unstable();
        wanted.dedup();
        let mut resolved: BTreeMap<(u32, TsId, u64), usize> = BTreeMap::new();
        for &(owner, ts, sig) in &wanted {
            if let Some(lane) = shared.lanes.get(owner as usize) {
                resolved.insert((owner, ts, sig), lane.kernel.lock().signature_len(ts, sig));
            }
        }
        let peer = |owner: u32, ts: TsId, sig: u64| -> usize {
            resolved.get(&(owner, ts, sig)).copied().unwrap_or(0)
        };
        let mut out = Vec::new();
        for lane in &shared.lanes {
            out.extend(lane.kernel.lock().starvation_sweep_with(threshold, &peer));
        }
        out
    }

    fn publish(shared: &Shared, ev: FtEvent) {
        let mut subs = shared.events.lock();
        subs.retain(|tx| tx.send(ev.clone()).is_ok());
    }

    /// This runtime's host id.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Number of shards (independent ordering streams) this runtime
    /// spans. 1 in the default unsharded configuration.
    pub fn shard_count(&self) -> usize {
        self.shared.lanes.len()
    }

    /// Subscribe to failure/recovery events.
    pub fn events(&self) -> Receiver<FtEvent> {
        let (tx, rx) = crossbeam::channel::unbounded();
        self.shared.events.lock().push(tx);
        rx
    }

    fn submit_on(
        &self,
        shard: usize,
        req: &Request,
    ) -> (Receiver<Result<CompletionOk, FtError>>, LocalId) {
        let (tx, rx) = crossbeam::channel::bounded(1);
        let t0 = Instant::now();
        let kind = match req {
            Request::CreateTs { .. } => "create",
            Request::Ags(_) => "ags",
            Request::RegisterTs { .. } => "register",
            Request::XLock { .. } => "xlock",
            Request::XExec { .. } => "xexec",
            Request::XRelease { .. } => "xrelease",
        };
        let member = &self.shared.lanes[shard].member;
        let payload = bytes::Bytes::from(encode_request(req));
        // Stamp the submit span *before* the broadcast: the local id is
        // only known afterwards, but with a fast network downstream
        // stages can record their spans before this thread resumes, and
        // the submit must still sort first in the assembled tree.
        let at0 = linda_obs::now_micros();
        // Hold the waiting lock across broadcast + insert so the apply
        // thread cannot route the completion before the waiter exists.
        let mut w = self.shared.waiting.lock();
        let local = member.broadcast(payload);
        w.insert(local, (tx, t0));
        drop(w);
        self.shared.spans.record_at(
            linda_obs::TraceId::new(self.host.0, local),
            "submit",
            self.host.0,
            at0,
            &[("kind", &kind)],
        );
        self.shared.hist_submit.observe(t0.elapsed());
        (rx, local)
    }

    fn await_ok(
        &self,
        rx: Receiver<Result<CompletionOk, FtError>>,
        timeout: Option<Duration>,
    ) -> Result<CompletionOk, FtError> {
        match timeout {
            None => rx.recv().map_err(|_| FtError::Shutdown)?,
            Some(t) => match rx.recv_timeout(t) {
                Ok(r) => r,
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => Err(FtError::Timeout),
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => Err(FtError::Shutdown),
            },
        }
    }

    /// Decide which shard(s) an AGS must be ordered on. With one shard
    /// everything is local; otherwise the static key analysis decides,
    /// and an AGS it cannot decide is rejected (such an AGS contains an
    /// operand that could never evaluate anyway).
    fn route(&self, ags: &Ags) -> Result<RouteTo, FtError> {
        let k = self.shared.lanes.len() as u32;
        if k <= 1 {
            return Ok(RouteTo::Single(0));
        }
        let Some(keys) = static_keys(ags) else {
            return Err(FtError::Unroutable);
        };
        let mut shards: Vec<u32> = keys
            .iter()
            .map(|(ts, sig)| shard_of(*ts, *sig, k))
            .collect();
        shards.sort_unstable();
        shards.dedup();
        match shards.as_slice() {
            // A pure-scratch AGS touches no stable bucket: any shard
            // works; shard 0 keeps it deterministic.
            [] => Ok(RouteTo::Single(0)),
            [s] => Ok(RouteTo::Single(*s as usize)),
            _ => Ok(RouteTo::Cross(keys)),
        }
    }

    /// Drive the three-leg cross-shard commit from this origin.
    ///
    /// Freezes every participating shard in ascending shard-id order
    /// (all origins acquire in the same order, so there is no deadlock),
    /// stages the execution on the lowest-id shard against the union of
    /// checked-out buckets, then releases each shard with its rewritten
    /// buckets. A `Blocked` stage releases everything unchanged and
    /// retries with backoff under a fresh transaction id — cross-shard
    /// AGSs are never parked in any shard's blocked table.
    fn execute_cross(
        &self,
        ags: &Ags,
        keys: Vec<(TsId, u64)>,
        deadline: Option<Instant>,
    ) -> Result<(AgsOutcome, linda_obs::TraceId), FtError> {
        let k = self.shared.lanes.len() as u32;
        let mut by_shard: BTreeMap<u32, Vec<(u32, u64)>> = BTreeMap::new();
        for (ts, sig) in &keys {
            by_shard
                .entry(shard_of(*ts, *sig, k))
                .or_default()
                .push((ts.0, *sig));
        }
        let home = *by_shard.keys().next().expect("cross-shard key set");
        let shard_list = by_shard
            .keys()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(",");
        let mut backoff = Duration::from_micros(200);
        let mut attempt: u32 = 0;
        loop {
            attempt += 1;
            let xid = (u64::from(self.host.0) << 48)
                | self.shared.next_xid.fetch_add(1, AtomicOrdering::Relaxed);
            self.xspan_origin(
                xid,
                "xbegin",
                &[
                    ("attempt", &attempt),
                    ("shards", &shard_list),
                    ("home", &home),
                ],
            );
            // Leg 1: check out every shard's buckets, ascending.
            let mut foreign: Vec<SigBucket> = Vec::new();
            for (&s, ks) in by_shard.iter() {
                let (rx, _) = self.submit_on(
                    s as usize,
                    &Request::XLock {
                        xid,
                        keys: ks.clone(),
                    },
                );
                match self.await_ok(rx, None)? {
                    CompletionOk::Buckets(b) => foreign.extend(b),
                    other => unreachable!("xlock resolved as {other:?}"),
                }
            }
            // Leg 2: stage at the home shard (its own freeze lets this
            // transaction's legs through).
            let (rx, _) = self.submit_on(
                home as usize,
                &Request::XExec {
                    xid,
                    ags: ags.clone(),
                    foreign,
                },
            );
            let (result, writebacks) = match self.await_ok(rx, None)? {
                CompletionOk::Staged { result, writebacks } => (result, writebacks),
                other => unreachable!("xexec resolved as {other:?}"),
            };
            // Leg 3: hand each shard back its own rewritten buckets.
            for &s in by_shard.keys() {
                let buckets: Vec<SigBucket> = writebacks
                    .iter()
                    .filter(|(ts, sig, _)| shard_of(TsId(*ts), *sig, k) == s)
                    .cloned()
                    .collect();
                let (rx, _) = self.submit_on(s as usize, &Request::XRelease { xid, buckets });
                match self.await_ok(rx, None)? {
                    CompletionOk::Released => {}
                    other => unreachable!("xrelease resolved as {other:?}"),
                }
            }
            match result {
                XStageResult::Fired(o) => {
                    self.xspan_origin(xid, "xcommit", &[("attempts", &attempt)]);
                    return Ok((o, linda_obs::TraceId::for_xid(xid)));
                }
                XStageResult::Failed(e) => {
                    self.xspan_origin(
                        xid,
                        "xabort",
                        &[("cause", &"body_failure"), ("attempts", &attempt)],
                    );
                    return Err(FtError::Exec(e));
                }
                XStageResult::Blocked => {
                    self.shared
                        .xcommit_retries
                        .with(&[("shard", &home.to_string())])
                        .inc();
                    if let Some(d) = deadline {
                        if Instant::now() >= d {
                            self.xspan_origin(
                                xid,
                                "xabort",
                                &[("cause", &"blocked_retry"), ("attempts", &attempt)],
                            );
                            return Err(FtError::Timeout);
                        }
                    }
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(Duration::from_millis(5));
                }
            }
        }
    }

    /// Record an origin-side span on the transaction trace of cross-shard
    /// commit `xid`. Origin spans carry no `shard` field: the per-shard
    /// lanes of the assembled tree are the participants, and the origin's
    /// xbegin/xcommit/xabort bracket them.
    fn xspan_origin(&self, xid: u64, stage: &str, fields: &[(&str, &dyn std::fmt::Display)]) {
        let mut fields = fields.to_vec();
        fields.push(("xid", &xid));
        self.shared.spans.record(
            linda_obs::TraceId::for_xid(xid),
            stage,
            self.host.0,
            &fields,
        );
    }

    // ----- stable tuple spaces -------------------------------------------

    /// Create (or look up) a stable tuple space by name. Stable spaces are
    /// replicated on every host; their contents survive any minority of
    /// crashes and are updated with one multicast per AGS.
    ///
    /// Under sharding, shard 0 assigns the id and the runtime registers
    /// it on every other shard before returning, so the `TsId` means the
    /// same space in all K orderings.
    pub fn create_stable_ts(&self, name: &str) -> Result<TsId, FtError> {
        let (rx, _) = self.submit_on(0, &Request::CreateTs { name: name.into() });
        let id = match self.await_ok(rx, None)? {
            CompletionOk::Ts(id) => id,
            other => unreachable!("create resolved as {other:?}"),
        };
        for s in 1..self.shared.lanes.len() {
            let (rx, _) = self.submit_on(
                s,
                &Request::RegisterTs {
                    id: id.0,
                    name: name.into(),
                },
            );
            match self.await_ok(rx, None)? {
                CompletionOk::Ts(_) => {}
                other => unreachable!("register resolved as {other:?}"),
            }
        }
        Ok(id)
    }

    /// Execute an AGS, blocking until it fires (or fails).
    pub fn execute(&self, ags: &Ags) -> Result<AgsOutcome, FtError> {
        self.execute_traced(ags).map(|(o, _)| o)
    }

    /// Execute an AGS and return the [`linda_obs::TraceId`] its spans
    /// were recorded under, so the caller can fetch the assembled tree
    /// from `/trace/<id>` (or [`crate::Cluster::trace`]) afterwards. For
    /// a cross-shard AGS this is the transaction trace of the attempt
    /// that actually committed (retried attempts get fresh xids).
    pub fn execute_traced(&self, ags: &Ags) -> Result<(AgsOutcome, linda_obs::TraceId), FtError> {
        match self.route(ags)? {
            RouteTo::Single(s) => {
                let (rx, local) = self.submit_on(s, &Request::Ags(ags.clone()));
                match self.await_ok(rx, None)? {
                    CompletionOk::Ags(o) => Ok((o, linda_obs::TraceId::new(self.host.0, local))),
                    other => unreachable!("AGS resolved as {other:?}"),
                }
            }
            RouteTo::Cross(keys) => self.execute_cross(ags, keys, None),
        }
    }

    /// Submit an AGS without waiting: returns a handle whose
    /// [`AgsHandle::wait`] blocks for the outcome. Useful for pipelining
    /// many independent statements (each is still one ordered multicast).
    ///
    /// A cross-shard AGS is driven by a background thread (its multi-leg
    /// protocol needs an active driver); its handle has no meaningful
    /// trace id.
    pub fn execute_async(&self, ags: &Ags) -> AgsHandle {
        match self.route(ags) {
            Ok(RouteTo::Single(s)) => {
                let (rx, local) = self.submit_on(s, &Request::Ags(ags.clone()));
                AgsHandle {
                    rx,
                    trace: linda_obs::TraceId::new(self.host.0, local),
                }
            }
            Ok(RouteTo::Cross(keys)) => {
                let (tx, rx) = crossbeam::channel::bounded(1);
                let rt = self.clone();
                let ags = ags.clone();
                std::thread::Builder::new()
                    .name(format!("ftlinda-xdriver-{}", self.host))
                    .spawn(move || {
                        let _ = tx.send(
                            rt.execute_cross(&ags, keys, None)
                                .map(|(o, _)| CompletionOk::Ags(o)),
                        );
                    })
                    .expect("spawn cross-shard driver");
                AgsHandle {
                    rx,
                    trace: linda_obs::TraceId::new(self.host.0, 0),
                }
            }
            Err(e) => {
                let (tx, rx) = crossbeam::channel::bounded(1);
                let _ = tx.send(Err(e));
                AgsHandle {
                    rx,
                    trace: linda_obs::TraceId::new(self.host.0, 0),
                }
            }
        }
    }

    /// Execute an AGS with a client-side deadline. On `Timeout` the AGS
    /// remains blocked at the replicas and may fire later (its effects
    /// then occur without a visible completion).
    pub fn execute_timeout(&self, ags: &Ags, t: Duration) -> Result<AgsOutcome, FtError> {
        match self.route(ags)? {
            RouteTo::Single(s) => {
                let (rx, _) = self.submit_on(s, &Request::Ags(ags.clone()));
                match self.await_ok(rx, Some(t))? {
                    CompletionOk::Ags(o) => Ok(o),
                    other => unreachable!("AGS resolved as {other:?}"),
                }
            }
            // The deadline bounds the Blocked-retry loop; individual
            // protocol legs complete at ordering-layer speed and are
            // never abandoned half-way (that would leave shards frozen).
            RouteTo::Cross(keys) => self
                .execute_cross(ags, keys, Some(Instant::now() + t))
                .map(|(o, _)| o),
        }
    }

    // ----- classic Linda sugar over AGSs ---------------------------------

    /// Linda `out` to a stable space: `⟨ true ⇒ out(ts, tuple) ⟩`.
    pub fn out(&self, ts: TsId, tuple: Tuple) -> Result<(), FtError> {
        let template = tuple
            .into_fields()
            .into_iter()
            .map(Operand::Const)
            .collect();
        self.execute(&Ags::out_one(ts, template)).map(|_| ())
    }

    /// Blocking Linda `in` on a stable space. Returns the full withdrawn
    /// tuple (actuals re-attached to the bound formals).
    pub fn in_(&self, ts: TsId, pattern: &Pattern) -> Result<Tuple, FtError> {
        let ags = Ags::in_one(ts, pattern_fields(pattern))?;
        let out = self.execute(&ags)?;
        Ok(rebuild_tuple(pattern, &out.bindings))
    }

    /// Blocking Linda `rd` on a stable space.
    pub fn rd(&self, ts: TsId, pattern: &Pattern) -> Result<Tuple, FtError> {
        let ags = Ags::rd_one(ts, pattern_fields(pattern))?;
        let out = self.execute(&ags)?;
        Ok(rebuild_tuple(pattern, &out.bindings))
    }

    /// Strong `inp`: a `None` is an absolute guarantee that no matching
    /// tuple existed at this point of the total order (paper §5: of other
    /// distributed Linda implementations, only PLinda offers this).
    pub fn inp(&self, ts: TsId, pattern: &Pattern) -> Result<Option<Tuple>, FtError> {
        let ags = Ags::inp_one(ts, pattern_fields(pattern))?;
        let out = self.execute(&ags)?;
        Ok((out.branch == 0).then(|| rebuild_tuple(pattern, &out.bindings)))
    }

    /// Strong `rdp` (see [`Runtime::inp`]).
    pub fn rdp(&self, ts: TsId, pattern: &Pattern) -> Result<Option<Tuple>, FtError> {
        let ags = Ags::rdp_one(ts, pattern_fields(pattern))?;
        let out = self.execute(&ags)?;
        Ok((out.branch == 0).then(|| rebuild_tuple(pattern, &out.bindings)))
    }

    // ----- scratch spaces -------------------------------------------------

    /// Create a volatile, host-local scratch tuple space. The returned
    /// [`LocalSpace`] is the direct (cheap, unreplicated) interface; the
    /// [`ScratchId`] lets AGS bodies `out`/`move` into it. Registered
    /// with every shard's kernel: whichever shard executes the AGS can
    /// deposit into it.
    pub fn create_scratch(&self) -> (ScratchId, LocalSpace) {
        let id = ScratchId(
            self.shared
                .next_scratch
                .fetch_add(1, AtomicOrdering::Relaxed),
        );
        let space = LocalSpace::new();
        for lane in &self.shared.lanes {
            lane.kernel.lock().register_scratch(id, space.clone());
        }
        (id, space)
    }

    // ----- introspection ---------------------------------------------------

    /// Deterministic digest of this host's replica state (tests). With
    /// multiple shards, the XOR of every lane kernel's digest.
    pub fn digest(&self) -> u64 {
        self.shared
            .lanes
            .iter()
            .fold(0, |acc, lane| acc ^ lane.kernel.lock().digest())
    }

    /// Order-canonical digest of one stable space across all shards:
    /// XOR of each lane's per-signature-bucket digest, read from the
    /// running values the stores maintain (O(signatures) per lane, no
    /// tuple hashed). Two deployments with different shard counts that
    /// executed equivalent histories agree on this value even though
    /// tuples of different signatures interleave differently in their
    /// stores and each numbers its inserts on its own.
    pub fn canonical_space_digest(&self, ts: TsId) -> u64 {
        self.shared.lanes.iter().fold(0, |acc, lane| {
            acc ^ lane.kernel.lock().canonical_space_digest(ts)
        })
    }

    /// Number of tuples in a stable space at this replica (summed over
    /// shards; each shard holds its own signature buckets of the space).
    pub fn stable_len(&self, ts: TsId) -> Option<usize> {
        let mut total = None;
        for lane in &self.shared.lanes {
            if let Some(n) = lane.kernel.lock().stable_len(ts) {
                *total.get_or_insert(0) += n;
            }
        }
        total
    }

    /// Snapshot a stable space at this replica. With multiple shards the
    /// buckets are concatenated in shard order: within one signature the
    /// order is the replicated insertion order; across signatures it is
    /// not meaningful (use [`Runtime::canonical_space_digest`] to
    /// compare sharded against unsharded deployments).
    pub fn snapshot(&self, ts: TsId) -> Option<Vec<Tuple>> {
        let mut out: Option<Vec<Tuple>> = None;
        for lane in &self.shared.lanes {
            if let Some(mut v) = lane.kernel.lock().snapshot(ts) {
                out.get_or_insert_with(Vec::new).append(&mut v);
            }
        }
        out
    }

    /// Number of blocked AGSs at this replica (all shards).
    pub fn blocked_len(&self) -> usize {
        self.shared
            .lanes
            .iter()
            .map(|lane| lane.kernel.lock().blocked_len())
            .sum()
    }

    /// Sequence number of the last applied record (shard 0; each shard
    /// numbers its own stream — see [`Runtime::applied_seqs`]).
    pub fn applied_seq(&self) -> u64 {
        self.shared.lanes[0].kernel.lock().applied_seq()
    }

    /// Last applied sequence number of every shard's stream.
    pub fn applied_seqs(&self) -> Vec<u64> {
        self.shared
            .lanes
            .iter()
            .map(|lane| lane.kernel.lock().applied_seq())
            .collect()
    }

    /// Block until this replica has applied at least `seq` on shard 0
    /// (e.g. a lagging or restarted host catching up to
    /// `other.applied_seq()`). Returns `false` if the deadline passes
    /// first.
    pub fn wait_applied(&self, seq: u64, timeout: Duration) -> bool {
        self.wait_applied_shard(0, seq, timeout)
    }

    /// [`Runtime::wait_applied`] against one shard's stream.
    pub fn wait_applied_shard(&self, shard: usize, seq: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        loop {
            if self.shared.lanes[shard].kernel.lock().applied_seq() >= seq {
                return true;
            }
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// Deep introspection snapshot of this replica: per-space signature
    /// census, match-cost totals, and the blocked-AGS table with ages.
    /// With multiple shards, shard 0's report (see
    /// [`Runtime::introspect_shard`]).
    pub fn introspect(&self) -> Option<IntrospectReport> {
        self.introspect_shard(0)
    }

    /// [`Runtime::introspect`] for one shard's kernel (`None` past the
    /// last shard).
    pub fn introspect_shard(&self, shard: usize) -> Option<IntrospectReport> {
        let lane = self.shared.lanes.get(shard)?;
        Some(lane.kernel.lock().introspect())
    }

    /// The `/introspect` JSON payload. Unsharded: the
    /// [`Runtime::introspect`] report plus the top-`k` hottest signatures
    /// across all spaces (by current occupancy). Sharded: a shard map —
    /// `{"host":…,"shards":K,"shard_reports":[…]}` with one full report
    /// per shard, each tagged with its shard id.
    pub fn introspect_json(&self, top_k: usize) -> Option<String> {
        let shards = self.shared.lanes.len();
        if shards == 1 {
            let r = self.introspect()?;
            return Some(report_json(&r, top_k));
        }
        let reports: Vec<IntrospectReport> = (0..shards)
            .map(|s| self.introspect_shard(s))
            .collect::<Option<Vec<_>>>()?;
        // Load census: tuples stored per shard (summed over spaces from
        // the per-signature occupancy each report already carries), and
        // the heaviest shard's excess share in integer basis points.
        let loads: Vec<u64> = reports
            .iter()
            .map(|r| r.spaces.iter().map(|sp| sp.tuples as u64).sum())
            .collect();
        let mut out = String::with_capacity(1024);
        out.push_str(&format!(
            "{{\"host\":{},\"shards\":{},\"shard_census\":{{\"tuples\":[{}],\"imbalance_bp\":{}}},\"shard_reports\":[",
            self.host.0,
            shards,
            loads
                .iter()
                .map(|l| l.to_string())
                .collect::<Vec<_>>()
                .join(","),
            imbalance_bp(&loads),
        ));
        for (s, r) in reports.iter().enumerate() {
            if s > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"shard\":{s},\"report\":"));
            let body = report_json(r, top_k);
            out.push_str(body.trim_end());
            out.push('}');
        }
        out.push_str("]}\n");
        Some(out)
    }

    /// Run one starvation-watchdog sweep now over every shard's kernel
    /// (the background thread does this periodically; tests and
    /// operators can force a pass). Shard-aware: foreign guard keys are
    /// resolved against their owning lanes first.
    pub fn starvation_sweep(&self, threshold: Duration) -> Vec<ftlinda_kernel::StarvationReport> {
        Self::sweep_lanes(&self.shared, threshold)
    }

    /// The observability configuration this runtime was built with.
    pub fn config(&self) -> &RuntimeConfig {
        &self.shared.config
    }

    /// Applied sequence number and state digest, read under one kernel
    /// lock so they describe the same replica state (used by the
    /// divergence detector: equal seq must imply equal digest). Shard
    /// 0's stream; see [`Runtime::applied_digest_shard`].
    pub fn applied_digest(&self) -> (u64, u64) {
        self.applied_digest_shard(0)
    }

    /// [`Runtime::applied_digest`] for one shard's stream. Divergence is
    /// detected per shard: each shard's replicas apply the same ordered
    /// prefix, so equal shard-seq must imply equal shard-digest.
    pub fn applied_digest_shard(&self, shard: usize) -> (u64, u64) {
        let k = self.shared.lanes[shard].kernel.lock();
        (k.applied_seq(), k.digest())
    }

    /// Sequence number of the checkpoint image this host's shard-0
    /// ordering member currently holds, or `None` before the first
    /// boundary.
    pub fn checkpoint_seq(&self) -> Option<u64> {
        self.shared.lanes[0].member.checkpoint_seq()
    }

    /// This host's shard-0 log-compaction watermark: ordered records at
    /// or below it have been truncated and are served from the
    /// checkpoint.
    pub fn log_base(&self) -> u64 {
        self.shared.lanes[0].member.log_base()
    }

    /// Number of ordered records currently retained in this host's
    /// shard-0 log (bounded under compaction).
    pub fn retained_log_len(&self) -> usize {
        self.shared.lanes[0].member.retained_log_len()
    }

    // ----- observability ----------------------------------------------------

    /// This host's shard-0 metrics/event registry (shared with that
    /// shard's sequencer member and kernel; client-side histograms live
    /// here).
    pub fn obs(&self) -> Arc<linda_obs::Registry> {
        self.shared.obs.clone()
    }

    /// Every shard's registry on this host, shard order.
    pub fn obs_all(&self) -> Vec<Arc<linda_obs::Registry>> {
        self.shared
            .lanes
            .iter()
            .map(|lane| lane.member.obs())
            .collect()
    }

    /// One merged snapshot of every shard's registry on this host, plus
    /// each shard kernel's store census, read now under its kernel lock
    /// ([`Kernel::census_into`]). Counters and families sum;
    /// config/process-level gauges merge by max so they are not
    /// multiplied by the shard count.
    pub fn metrics_snapshot(&self) -> linda_obs::RegistrySnapshot {
        let mut snap = linda_obs::RegistrySnapshot::default();
        for lane in &self.shared.lanes {
            snap.merge(&lane.member.obs().snapshot());
            lane.kernel.lock().census_into(&mut snap);
        }
        snap
    }

    /// Render this host's metrics (all shards merged) in Prometheus text
    /// exposition format.
    pub fn metrics_text(&self) -> String {
        self.metrics_snapshot().render()
    }

    /// The rejoin error of the first shard whose member, while outside
    /// the group (restarted, relaunched to join a running cluster, or
    /// evicted), has sent [`consul_sim::SeqGroup::MAX_JOIN_ATTEMPTS`]
    /// JoinReq rounds that no coordinator answered. The member keeps
    /// retrying; the error clears when it joins.
    pub fn rejoin_error(&self) -> Option<String> {
        self.shared
            .lanes
            .iter()
            .find_map(|lane| lane.member.rejoin_error())
    }

    /// Deposit a tuple directly into this replica's copy of a stable
    /// space, bypassing the total order (routed to the shard owning the
    /// tuple's signature bucket). Returns `false` if the space does not
    /// exist here. **Test hook**: this deliberately breaks replica
    /// determinism so divergence detection can be exercised.
    #[doc(hidden)]
    pub fn fault_inject_local(&self, ts: TsId, t: Tuple) -> bool {
        let shard = shard_of(
            ts,
            t.signature().stable_hash(),
            self.shared.lanes.len() as u32,
        );
        self.shared.lanes[shard as usize]
            .kernel
            .lock()
            .fault_inject(ts, t)
    }

    /// Stop this host's members, and return once its apply threads and
    /// watchdog have exited (cluster teardown, or the end of a crashed
    /// incarnation); then release each shard's replica state
    /// ([`Kernel::release`]). The handle stays readable: metrics answer
    /// with every counter as it stood, and introspection and digests
    /// answer from the emptied replica at its last applied seq.
    pub fn shutdown(&self) {
        self.shared.stop_tx.lock().take();
        for lane in &self.shared.lanes {
            lane.member.stop();
        }
        for (_, (tx, _)) in self.shared.waiting.lock().drain() {
            let _ = tx.send(Err(FtError::Shutdown));
        }
        let threads = std::mem::take(&mut *self.shared.threads.lock());
        for t in threads {
            let _ = t.join();
        }
        for lane in &self.shared.lanes {
            lane.kernel.lock().release();
        }
    }
}

/// Render one shard's introspection report as the classic `/introspect`
/// JSON object (trailing newline included).
fn report_json(r: &IntrospectReport, top_k: usize) -> String {
    let mut out = String::with_capacity(512);
    out.push_str(&format!(
        "{{\"host\":{},\"applied_seq\":{},\"spaces\":[",
        r.host.0, r.applied
    ));
    for (i, s) in r.spaces.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"id\":{},\"name\":\"{}\",\"tuples\":{},\"match\":{{\
             \"attempts\":{},\"probes\":{},\"hits\":{},\"cache_hits\":{},\
             \"efficiency_bp\":{}}},\"index\":{{\"value_indexes\":{},\
             \"index_builds\":{},\"miss_cached\":{}}},\
             \"signatures\":[",
            s.id.0,
            linda_obs::json_escape(&s.name),
            s.tuples,
            s.match_stats.attempts,
            s.match_stats.probes,
            s.match_stats.hits,
            s.match_stats.cache_hits,
            s.match_stats.efficiency_bp(),
            s.index.value_indexes,
            s.index.index_builds,
            s.index.miss_cached,
        ));
        for (j, occ) in s.signatures.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"signature\":\"{}\",\"count\":{},\"high_water\":{}}}",
                linda_obs::json_escape(&occ.signature.to_string()),
                occ.count,
                occ.high_water
            ));
        }
        out.push_str("]}");
    }
    out.push_str("],\"blocked\":[");
    for (i, b) in r.blocked.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"seq\":{},\"origin\":{},\"local\":{},\"age_ms\":{},\
             \"guards\":\"{}\",\"nearest_miss\":{},\"starving\":{}}}",
            b.seq,
            b.origin.0,
            b.local,
            b.age.as_millis(),
            linda_obs::json_escape(&b.guards),
            b.nearest_miss,
            b.starving
        ));
    }
    // Hottest signatures across all spaces, by current occupancy.
    let mut hot: Vec<(&str, &linda_space::SignatureOccupancy)> = r
        .spaces
        .iter()
        .flat_map(|s| s.signatures.iter().map(move |occ| (s.name.as_str(), occ)))
        .collect();
    hot.sort_by(|a, b| b.1.count.cmp(&a.1.count).then_with(|| a.0.cmp(b.0)));
    out.push_str("],\"hot_signatures\":[");
    for (i, (space, occ)) in hot.into_iter().take(top_k).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"space\":\"{}\",\"signature\":\"{}\",\"count\":{}}}",
            linda_obs::json_escape(space),
            linda_obs::json_escape(&occ.signature.to_string()),
            occ.count
        ));
    }
    out.push_str("]}\n");
    out
}

/// An in-flight AGS submitted with [`Runtime::execute_async`].
pub struct AgsHandle {
    rx: Receiver<Result<CompletionOk, FtError>>,
    trace: linda_obs::TraceId,
}

impl AgsHandle {
    /// The causal trace id of this AGS — the key for `/trace/<id>` on the
    /// cluster's HTTP exporters and [`crate::Cluster::trace`].
    pub fn trace_id(&self) -> linda_obs::TraceId {
        self.trace
    }
    /// Block for the outcome.
    pub fn wait(self) -> Result<AgsOutcome, FtError> {
        match self.rx.recv().map_err(|_| FtError::Shutdown)?? {
            CompletionOk::Ags(o) => Ok(o),
            other => unreachable!("AGS resolved as {other:?}"),
        }
    }

    /// Block with a deadline (see [`Runtime::execute_timeout`] caveats).
    pub fn wait_timeout(self, t: Duration) -> Result<AgsOutcome, FtError> {
        match self.rx.recv_timeout(t) {
            Ok(r) => match r? {
                CompletionOk::Ags(o) => Ok(o),
                other => unreachable!("AGS resolved as {other:?}"),
            },
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => Err(FtError::Timeout),
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => Err(FtError::Shutdown),
        }
    }

    /// Whether the outcome has arrived (non-blocking probe).
    pub fn is_ready(&self) -> bool {
        !self.rx.is_empty()
    }
}

/// Convert a plain [`Pattern`] into AGS match fields.
pub fn pattern_fields(p: &Pattern) -> Vec<MatchField> {
    p.fields()
        .iter()
        .map(|f| match f {
            PatField::Actual(v) => MatchField::Expr(Operand::Const(v.clone())),
            PatField::Formal(t) => MatchField::Bind(*t),
        })
        .collect()
}

/// Reassemble the matched tuple from a pattern and the bound formals.
pub fn rebuild_tuple(p: &Pattern, bindings: &[Value]) -> Tuple {
    let mut bi = 0;
    Tuple::new(
        p.fields()
            .iter()
            .map(|f| match f {
                PatField::Actual(v) => v.clone(),
                PatField::Formal(_) => {
                    let v = bindings[bi].clone();
                    bi += 1;
                    v
                }
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use linda_tuple::{pat, tuple, TypeTag};

    #[test]
    fn pattern_fields_roundtrip() {
        let p = pat!("job", ?int, 2.5);
        let fields = pattern_fields(&p);
        assert_eq!(fields.len(), 3);
        assert!(matches!(fields[1], MatchField::Bind(TypeTag::Int)));
    }

    #[test]
    fn rebuild_tuple_interleaves() {
        let p = pat!("job", ?int, "x", ?str);
        let t = rebuild_tuple(&p, &[Value::Int(4), Value::Str("s".into())]);
        assert_eq!(t, tuple!("job", 4, "x", "s"));
    }

    #[test]
    fn rebuild_all_actuals() {
        let p = pat!("a", 1);
        assert_eq!(rebuild_tuple(&p, &[]), tuple!("a", 1));
    }
}
