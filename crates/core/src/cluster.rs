//! Cluster assembly and fault injection.
//!
//! A [`Cluster`] is the simulated network of workstations: it owns the
//! Consul group and hands out one [`Runtime`] per host. Crashing and
//! restarting hosts goes through the cluster, mirroring how the paper's
//! evaluation kills workstations under a running application.
//!
//! A cluster that holds two or more runtimes in its process also runs a
//! *digest-divergence detector*: a background thread that periodically
//! cross-checks [`Runtime::applied_digest`] across live hosts. Replica
//! application is deterministic, so two hosts at the same applied
//! sequence number must have identical digests; a mismatch means replica
//! state has diverged (a bug, or deliberate fault injection in tests) and
//! is surfaced as a `digest_divergence` event plus a
//! `ftlinda_digest_divergence_total` counter on [`Cluster::obs`].
//!
//! Unless disabled, the cluster also runs one [`HttpExporter`] per member
//! serving `/metrics`, `/healthz`, `/events` and `/trace/<id>` (see
//! [`ClusterBuilder::http_base_port`]), and — when a flight directory is
//! configured — a monitor thread that dumps full observability state to
//! disk on `digest_divergence`, `coordinator_failover` and
//! `rejoin_failed` events ([`ClusterBuilder::flight_dir`]).

use crate::federation::{federate_metrics, federate_trace, local_spans, MemberSource};
use crate::flight::{FlightRecorder, FlightSection};
use crate::runtime::{Runtime, RuntimeConfig};
use crate::server::{events_json_lines, HttpExporter};
use consul_sim::{
    BatchConfig, CheckpointConfig, HostId, NetConfig, SeqGroup, SeqMember, SeqNet, TcpConfig,
    TcpMesh,
};
use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Which wire the cluster's ordering traffic rides on.
///
/// `Sim` (the default) is the in-process simulated network every test and
/// experiment uses: all hosts live in one process, crashes and restarts
/// are injectable, latency is configurable. `Tcp` is a real deployment:
/// this process hosts exactly **one** member, speaking length-prefixed
/// frames over persistent TCP connections to its peers (each of which
/// runs its own process — see the `ftlinda-node` binary). Failure
/// detection over TCP is always heartbeat-based; a crash is a process
/// that died, and a restart is a process relaunched with `rejoin`.
#[derive(Debug, Clone)]
pub enum Transport {
    /// All hosts in-process over [`consul_sim::SimNet`].
    Sim,
    /// One member per process over real sockets.
    Tcp(TcpClusterConfig),
}

/// TCP deployment shape: who this process is and where everyone listens.
#[derive(Debug, Clone)]
pub struct TcpClusterConfig {
    /// This process's member id (an index into `addrs`).
    pub me: u32,
    /// Every member's sequencer address, ours included (we bind it).
    pub addrs: Vec<SocketAddr>,
    /// Boot outside the group and enter through the JoinReq → Snapshot
    /// rejoin path instead of assuming founding membership. Pass this
    /// when relaunching a member into a cluster that already ordered its
    /// failure.
    pub rejoin: bool,
}

/// Builder for a [`Cluster`].
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    hosts: u32,
    shards: u32,
    transport: Transport,
    net: NetConfig,
    divergence_period: Duration,
    batch: BatchConfig,
    ckpt: CheckpointConfig,
    http: bool,
    http_base_port: u16,
    flight_dir: Option<PathBuf>,
    starvation_after: Duration,
    timeseries_interval: Duration,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        ClusterBuilder {
            hosts: 3,
            shards: 1,
            transport: Transport::Sim,
            net: NetConfig::instant(),
            divergence_period: Duration::from_millis(10),
            batch: BatchConfig::default(),
            ckpt: CheckpointConfig::default(),
            http: true,
            http_base_port: 0,
            flight_dir: None,
            starvation_after: Duration::from_secs(5),
            timeseries_interval: Duration::from_secs(1),
        }
    }
}

impl ClusterBuilder {
    /// Number of hosts (replicas). The paper's prototype used 3 Sun-3s.
    pub fn hosts(mut self, n: u32) -> Self {
        self.hosts = n;
        self
    }

    /// Partition stable tuple spaces across `k` independently-sequenced
    /// replica groups, keyed by `(space, signature stable-hash)`. Every
    /// host replicates all `k` shards, but each shard runs its own
    /// sequencer, log and checkpoint stream, so statically single-shard
    /// AGSs (the overwhelmingly common case — see
    /// [`ftlinda_ags::static_keys`]) no longer contend for one total
    /// order. Cross-shard AGSs commit through the ordered three-leg
    /// protocol described in DESIGN.md §13. `k = 1` (the default) is the
    /// classic single-order deployment, wire-identical to pre-shard
    /// builds.
    pub fn shards(mut self, k: u32) -> Self {
        self.shards = k.max(1);
        self
    }

    /// Select the transport: in-process [`Transport::Sim`] (default) or
    /// one-member-per-process [`Transport::Tcp`]. Under TCP the builder's
    /// `hosts` count is taken from the address list, failure detection is
    /// always heartbeat-based ([`ClusterBuilder::heartbeats`] tunes it),
    /// and [`ClusterBuilder::build`] can fail to bind — use
    /// [`ClusterBuilder::try_build`].
    pub fn transport(mut self, t: Transport) -> Self {
        self.transport = t;
        self
    }

    /// Simulated network configuration (latency, jitter, detection delay).
    pub fn net(mut self, cfg: NetConfig) -> Self {
        self.net = cfg;
        self
    }

    /// Use heartbeat-based failure detection instead of the simulated
    /// oracle detector: crashes are discovered from ping silence, as a
    /// real deployment would.
    pub fn heartbeats(mut self, period: Duration, timeout: Duration) -> Self {
        self.net.heartbeats = Some(consul_sim::Heartbeat { period, timeout });
        self
    }

    /// How often the divergence detector cross-checks replica digests
    /// (default 10 ms; the flight recorder polls at the same period). A
    /// tick reads each replica's running digest in O(signatures +
    /// blocked AGSs). A process holding fewer than two runtimes — every
    /// [`Transport::Tcp`] process — runs no detector.
    pub fn divergence_period(mut self, p: Duration) -> Self {
        self.divergence_period = p;
        self
    }

    /// Coalescing window for concurrent AGS submits at the coordinator
    /// (`Duration::ZERO` disables batching).
    pub fn batch_window(mut self, window: Duration) -> Self {
        self.batch.window = window;
        self
    }

    /// Disable submit batching: every AGS is ordered with its own
    /// multicast, wire-identical to the pre-batching protocol.
    pub fn no_batching(mut self) -> Self {
        self.batch = BatchConfig::disabled();
        self
    }

    /// Order a checkpoint boundary roughly every `n` records. At each
    /// boundary every replica snapshots its kernel, the ordering layer
    /// truncates its log behind the boundary, and joiners/laggards are
    /// served the image plus only the log tail past it — rejoin cost is
    /// O(live state), not O(history). `0` disables checkpointing.
    pub fn checkpoint_every(mut self, n: u64) -> Self {
        self.ckpt.every = n;
        self
    }

    /// Disable checkpointing entirely: rejoin replays the full ordered
    /// log from sequence 1, wire-identical to the pre-checkpoint
    /// protocol. Benchmarks with exact message-count assertions use this.
    pub fn no_checkpoints(mut self) -> Self {
        self.ckpt = CheckpointConfig::disabled();
        self
    }

    /// Do not start per-member HTTP exporters.
    pub fn no_http(mut self) -> Self {
        self.http = false;
        self
    }

    /// Base TCP port for the per-member HTTP exporters: host `i` serves
    /// on `127.0.0.1:(base + i)`, so `base + hosts - 1` must fit in a
    /// `u16` ([`ClusterBuilder::try_build`] rejects it otherwise). The
    /// default base of 0 gives every member an ephemeral port (resolve
    /// with [`Cluster::http_addr`]) — right for tests; a deployment picks
    /// a fixed base so scrape targets are predictable.
    pub fn http_base_port(mut self, base: u16) -> Self {
        self.http = true;
        self.http_base_port = base;
        self
    }

    /// Starvation-watchdog threshold: a blocked AGS older than this emits
    /// an `ags_starving` event (and again at every further multiple) and
    /// shows `"starving": true` in `/introspect`. Default 5 s;
    /// `Duration::ZERO` disables the watchdog.
    pub fn starvation_after(mut self, threshold: Duration) -> Self {
        self.starvation_after = threshold;
        self
    }

    /// Sampling interval of the in-memory metrics time-series ring
    /// (default 1 s). Every tick a background thread snapshots selected
    /// cluster gauges/counters — per-shard tuples, AGS totals, abort and
    /// retry counters, ordered multicasts, the load-imbalance gauge —
    /// into a bounded ring (the latest 512 snapshots) served as
    /// `/timeseries` on every member's exporter and included in
    /// flight-recorder dumps.
    pub fn timeseries_interval(mut self, interval: Duration) -> Self {
        self.timeseries_interval = interval.max(Duration::from_millis(10));
        self
    }

    /// Enable the flight recorder: on `digest_divergence`,
    /// `coordinator_failover` or `rejoin_failed` events, dump event
    /// rings, recent spans, order stats and per-member digests into
    /// `dir` (created if missing). Disabled by default.
    pub fn flight_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.flight_dir = Some(dir.into());
        self
    }

    /// Build the cluster and one runtime per host.
    ///
    /// # Panics
    ///
    /// Under [`Transport::Tcp`] building can genuinely fail (the listen
    /// address may be taken); this convenience panics on that error, and
    /// on an HTTP base port too high for the member count. Deployment
    /// binaries should call [`ClusterBuilder::try_build`].
    pub fn build(self) -> (Cluster, Vec<Runtime>) {
        self.try_build().expect("cluster transport failed to start")
    }

    /// Build the cluster, surfacing startup errors. Under
    /// [`Transport::Sim`] this returns one runtime per host; under
    /// [`Transport::Tcp`] it returns exactly one runtime — the local
    /// member's. Fails with [`std::io::ErrorKind::InvalidInput`] when a
    /// fixed HTTP base port would put the last member's exporter past
    /// port 65535, and with the transport's error when TCP cannot bind.
    pub fn try_build(self) -> std::io::Result<(Cluster, Vec<Runtime>)> {
        let members = match &self.transport {
            Transport::Sim => self.hosts,
            Transport::Tcp(tcp) => tcp.addrs.len() as u32,
        };
        if self.http && exporter_port(self.http_base_port, members.saturating_sub(1)).is_none() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!(
                    "HTTP base port {} too high for {members} members: host i serves on base + i <= {}",
                    self.http_base_port,
                    u16::MAX
                ),
            ));
        }
        let obs = Arc::new(linda_obs::Registry::new());
        let wiring = match &self.transport {
            Transport::Sim => self.sim_wiring(),
            Transport::Tcp(tcp) => self.tcp_wiring(tcp, &obs)?,
        };
        let run_cfg = RuntimeConfig {
            starvation_after: (!self.starvation_after.is_zero()).then_some(self.starvation_after),
        };
        let runtimes: Vec<Runtime> = wiring
            .members
            .into_iter()
            .map(|ms| Runtime::with_members(ms, run_cfg.clone()))
            .collect();
        let by_host: HashMap<HostId, Runtime> =
            runtimes.iter().map(|rt| (rt.host(), rt.clone())).collect();
        let flight = self.flight_dir.clone().map(|dir| {
            Arc::new(FlightRecorder::new(dir).expect("create flight recorder directory"))
        });
        let (stop_tx, stop_rx) = crossbeam::channel::bounded(1);
        let view = Arc::new(ClusterView {
            runtimes: Mutex::new(by_host),
            obs,
            net: wiring.groups[0].transport().clone(),
            peer_http: wiring.peer_http,
            timeseries: Arc::new(linda_obs::TimeSeriesRing::default()),
            tcp: wiring.mesh.is_some(),
        });
        let cluster = Cluster {
            groups: wiring.groups,
            mesh: wiring.mesh,
            view,
            stop_tx: Mutex::new(Some(stop_tx)),
            stop_rx,
            detector: Mutex::new(None),
            exporters: Mutex::new(HashMap::new()),
            flight,
            monitor: Mutex::new(None),
            sampler: Mutex::new(None),
            run_cfg,
        };
        // The divergence detector and trace/metrics aggregation only see
        // the runtimes in this process (all of them under Sim, just ours
        // under TCP).
        cluster.spawn_detector(self.divergence_period, runtimes.len());
        cluster.spawn_sampler(self.timeseries_interval);
        if self.http {
            cluster.spawn_exporters(self.http_base_port);
        }
        if cluster.flight.is_some() {
            cluster.spawn_flight_monitor(self.divergence_period);
        }
        Ok((cluster, runtimes))
    }

    /// Every host in this process, with one independent sequencer group
    /// (own simulated network, own log, own checkpoint stream) per
    /// shard. Per-shard local-id bases keep broadcast ids globally
    /// unique so one waiting table serves all K streams; per-shard seeds
    /// decorrelate jitter.
    fn sim_wiring(&self) -> Wiring {
        let mut groups: Vec<SeqGroup> = Vec::with_capacity(self.shards as usize);
        let mut members: Vec<Vec<SeqMember>> = (0..self.hosts).map(|_| Vec::new()).collect();
        for i in 0..self.shards {
            let mut net = self.net.clone();
            net.seed = net.seed.wrapping_add(u64::from(i).wrapping_mul(7919));
            let (group, ms) =
                SeqGroup::new_with_base(self.hosts, net, self.batch, self.ckpt, u64::from(i) << 48);
            groups.push(group);
            for (h, m) in ms.into_iter().enumerate() {
                members[h].push(m);
            }
        }
        Wiring {
            groups,
            members,
            mesh: None,
            peer_http: Vec::new(),
        }
    }

    /// One member of a multi-process TCP cluster: bind our listener,
    /// dial the peers, and run one sequencer member per shard lane over
    /// the mesh, all for the single local host.
    fn tcp_wiring(
        &self,
        tcp: &TcpClusterConfig,
        obs: &Arc<linda_obs::Registry>,
    ) -> std::io::Result<Wiring> {
        let mut cfg = TcpConfig::new(HostId(tcp.me), &tcp.addrs, self.shards);
        if let Some(hb) = self.net.heartbeats {
            cfg.heartbeat = hb;
        }
        let (mesh, lane_rxs) = TcpMesh::start(cfg, obs)?;
        let universe = mesh.universe();
        let me = mesh.me();
        let mut groups: Vec<SeqGroup> = Vec::with_capacity(self.shards as usize);
        let mut members: Vec<SeqMember> = Vec::with_capacity(self.shards as usize);
        for (i, rx) in lane_rxs.into_iter().enumerate() {
            let (group, member) = SeqGroup::tcp_member(
                mesh.lane(i as u32),
                universe.clone(),
                me,
                rx,
                self.batch,
                self.ckpt,
                (i as u64) << 48,
                !tcp.rejoin,
            );
            groups.push(group);
            members.push(member);
        }
        // Peer exporter addresses, derivable only under a fixed HTTP base
        // port: peer i's sequencer binds addrs[i], its exporter serves
        // the same interface at base + i. With an ephemeral base (tests)
        // the peers' ports are unknowable and federation stays local.
        let peer_http: Vec<(HostId, SocketAddr)> = if self.http && self.http_base_port != 0 {
            tcp.addrs
                .iter()
                .enumerate()
                .filter(|(i, _)| *i as u32 != tcp.me)
                .map(|(i, a)| {
                    let port = exporter_port(self.http_base_port, i as u32)
                        .expect("exporter ports checked by try_build");
                    (HostId(i as u32), SocketAddr::new(a.ip(), port))
                })
                .collect()
        } else {
            Vec::new()
        };
        Ok(Wiring {
            groups,
            members: vec![members],
            mesh: Some(mesh),
            peer_http,
        })
    }
}

/// What a transport contributes to a cluster: one ordering group per
/// shard, the per-shard members of every host in this process, and —
/// under TCP — the mesh plus the peers' exporter addresses.
struct Wiring {
    groups: Vec<SeqGroup>,
    members: Vec<Vec<SeqMember>>,
    mesh: Option<TcpMesh>,
    peer_http: Vec<(HostId, SocketAddr)>,
}

/// Member `host`'s exporter port under a fixed `base` (host `i` serves
/// on `base + i`), or `None` past port 65535. A base of 0 gives every
/// member an ephemeral port.
fn exporter_port(base: u16, host: u32) -> Option<u16> {
    if base == 0 {
        return Some(0);
    }
    u32::from(base)
        .checked_add(host)
        .and_then(|p| u16::try_from(p).ok())
}

/// A running FT-Linda cluster over the simulated network.
pub struct Cluster {
    /// One ordering group per shard; `groups[0]` exists in every
    /// configuration and carries space creation.
    groups: Vec<SeqGroup>,
    /// The TCP mesh multiplexing every shard lane, when built with
    /// [`Transport::Tcp`] (`None` under Sim). Held for shutdown and
    /// per-link socket counters.
    mesh: Option<TcpMesh>,
    /// What the background threads, the exporters and the in-process
    /// trace and metrics views read.
    view: Arc<ClusterView>,
    /// Dropped by [`Cluster::shutdown`], which disconnects `stop_rx`:
    /// the background loops wait on it between ticks and exit at once.
    stop_tx: Mutex<Option<Sender<()>>>,
    stop_rx: Receiver<()>,
    detector: Mutex<Option<JoinHandle<()>>>,
    /// One HTTP exporter per member (empty when built with `no_http`).
    exporters: Mutex<HashMap<HostId, HttpExporter>>,
    /// Flight recorder, when a dump directory was configured.
    flight: Option<Arc<FlightRecorder>>,
    monitor: Mutex<Option<JoinHandle<()>>>,
    /// Time-series sampler thread.
    sampler: Mutex<Option<JoinHandle<()>>>,
    /// Observability configuration every runtime (including restarted
    /// incarnations) is built with.
    run_cfg: RuntimeConfig,
}

impl Cluster {
    /// Start building a cluster.
    pub fn builder() -> ClusterBuilder {
        ClusterBuilder::default()
    }

    /// Convenience: `n` hosts, zero-latency network.
    pub fn new(n: u32) -> (Cluster, Vec<Runtime>) {
        Cluster::builder().hosts(n).build()
    }

    /// Start the divergence detector over the `runtimes` held in this
    /// process. With fewer than two (every TCP process) no two samples
    /// can ever share a seq, so no thread starts; the counter is still
    /// registered, so every metrics page carries the family.
    fn spawn_detector(&self, period: Duration, runtimes: usize) {
        let view = self.view.clone();
        let stop = self.stop_rx.clone();
        let shards = self.groups.len();
        let divergences = view.obs.counter(
            "ftlinda_digest_divergence_total",
            "Replica digest mismatches observed at equal applied sequence",
        );
        if runtimes < 2 {
            return;
        }
        let handle = std::thread::Builder::new()
            .name("ftlinda-divergence".into())
            .spawn(move || {
                // (shard, seq) pairs already reported, so a persistent
                // divergence is surfaced once, not every tick.
                let mut reported: HashSet<(usize, u64)> = HashSet::new();
                while ticks(&stop, period) {
                    let live = view.live();
                    // Divergence is a per-shard property: each shard's
                    // replicas apply that shard's ordered prefix, so
                    // equal (shard, seq) must imply equal digest. This
                    // never false-positives on replicas that merely lag.
                    for shard in 0..shards {
                        let samples: Vec<(HostId, u64, u64)> = {
                            let map = view.runtimes.lock();
                            map.iter()
                                .filter(|(h, _)| live.contains(h))
                                .map(|(h, rt)| {
                                    let (seq, dig) = rt.applied_digest_shard(shard);
                                    (*h, seq, dig)
                                })
                                .collect()
                        };
                        let mut by_seq: HashMap<u64, Vec<(HostId, u64)>> = HashMap::new();
                        for (h, seq, dig) in samples {
                            by_seq.entry(seq).or_default().push((h, dig));
                        }
                        for (seq, group) in by_seq {
                            if group.len() < 2 || reported.contains(&(shard, seq)) {
                                continue;
                            }
                            let first = group[0].1;
                            if group.iter().any(|(_, d)| *d != first) {
                                reported.insert((shard, seq));
                                let mut fields = vec![
                                    ("shard".to_string(), shard.to_string()),
                                    ("seq".to_string(), seq.to_string()),
                                ];
                                for (h, d) in &group {
                                    fields.push((format!("digest_h{}", h.0), format!("{d:#x}")));
                                }
                                // Event first: a reader that sees the
                                // counter move must find the event too.
                                view.obs
                                    .events()
                                    .emit(linda_obs::Event::new("digest_divergence", fields));
                                divergences.inc();
                            }
                        }
                    }
                }
            })
            .expect("spawn divergence detector");
        *self.detector.lock() = Some(handle);
    }

    /// Cluster-level observability registry: the divergence counter and
    /// `digest_divergence` events live here (per-host pipeline metrics
    /// live on each [`Runtime::obs`]).
    pub fn obs(&self) -> Arc<linda_obs::Registry> {
        self.view.obs.clone()
    }

    /// Render cluster-level metrics in Prometheus text format.
    pub fn metrics_text(&self) -> String {
        self.view.obs.render()
    }

    fn spawn_exporters(&self, base_port: u16) {
        let hosts: Vec<HostId> = {
            let mut hs: Vec<HostId> = self.view.runtimes.lock().keys().copied().collect();
            hs.sort_by_key(|h| h.0);
            hs
        };
        for host in hosts {
            let port =
                exporter_port(base_port, host.0).expect("exporter ports checked by try_build");
            let view = self.view.clone();
            match HttpExporter::spawn(port, move |path| view.route(host, path)) {
                Ok(exp) => {
                    self.exporters.lock().insert(host, exp);
                }
                Err(e) => {
                    // A busy fixed port shouldn't take the cluster down;
                    // surface it as an event instead.
                    self.view.obs.events().emit(linda_obs::Event::new(
                        "http_exporter_failed",
                        vec![
                            ("host".into(), host.0.to_string()),
                            ("port".into(), port.to_string()),
                            ("error".into(), e.to_string()),
                        ],
                    ));
                }
            }
        }
    }

    /// The HTTP exporter address of `host` (`None` when HTTP is disabled
    /// or the exporter failed to bind).
    pub fn http_addr(&self, host: HostId) -> Option<SocketAddr> {
        self.exporters.lock().get(&host).map(|e| e.addr())
    }

    /// Assemble the cluster-wide span tree for one AGS — the same view
    /// `/trace/<id>` and `/cluster/trace/<id>` serve over HTTP. Every
    /// member in this process contributes its span logs directly; under
    /// [`Transport::Tcp`] with a fixed HTTP base port, every live peer
    /// process is additionally scraped at `/spans/<id>` and its spans
    /// merged in with per-host attribution.
    /// [`linda_obs::TraceTree::truncated`] is set when any member's span
    /// ring has already evicted spans recent enough to belong to this
    /// trace, and live peers that could not be reached are listed in
    /// [`linda_obs::TraceTree::truncated_hosts`] — an incomplete tree is
    /// never silently presented as the whole story.
    pub fn trace(&self, id: linda_obs::TraceId) -> linda_obs::TraceTree {
        self.view.trace(id)
    }

    /// One Prometheus text page for the whole group: the cluster
    /// registry (divergence counter, sampled shard gauges) merged with every
    /// *live* member's registry — counters/gauges/family children sum,
    /// histograms merge bucket-wise. Under [`Transport::Tcp`] the live
    /// peers' registries are fetched over `/metrics/snapshot`, so the
    /// page has the same shape as the in-process Sim one. Served as
    /// `/metrics/cluster` on every member's exporter.
    pub fn cluster_metrics_text(&self) -> String {
        self.view.cluster_metrics().render()
    }

    /// Time-series sampler: every `interval`, refresh the cluster-level
    /// per-shard gauges (ordered multicasts per lane, tuple-load
    /// imbalance) and append one snapshot of the selected series to the
    /// bounded ring served as `/timeseries`.
    fn spawn_sampler(&self, interval: Duration) {
        let view = self.view.clone();
        // Per-shard ordered-multicast counts are sampled from the
        // sequencer groups directly: OrderStats is ONE object per group,
        // so reading it here avoids multiplying by the replica count the
        // way a per-member mirror would under snapshot merging.
        let stats: Vec<Arc<consul_sim::OrderStats>> =
            self.groups.iter().map(|g| g.stats_handle()).collect();
        let stop = self.stop_rx.clone();
        // One child per shard from the start, so a scrape that lands
        // before the first tick already lists every shard.
        let family = view.obs.gauge_family(
            "ftlinda_shard_multicasts_total",
            "Ordered multicasts issued on each shard's sequencer lane (sampled)",
        );
        let shard_multicasts: Vec<_> = (0..stats.len())
            .map(|i| family.with(&[("shard", &i.to_string())]))
            .collect();
        let imbalance = view.obs.gauge_merged(
            "ftlinda_shard_imbalance_bp",
            "Heaviest shard's excess tuple share in basis points (0 even, 10000 one shard)",
            linda_obs::GaugeMerge::Max,
        );
        let handle = std::thread::Builder::new()
            .name("ftlinda-timeseries".into())
            .spawn(move || {
                while ticks(&stop, interval) {
                    for (gauge, s) in shard_multicasts.iter().zip(&stats) {
                        gauge.set(i64::try_from(s.ordered_multicasts()).unwrap_or(i64::MAX));
                    }
                    // Local-only federation: the sampler must never pay
                    // a peer connect timeout on its 1 s tick.
                    let sources = member_sources(&view.runtimes.lock(), &[]);
                    let snap = federate_metrics(&sources, &view.live(), &view.obs);
                    // Tuple loads per shard, summed over replicas — the
                    // replication factor is uniform, so the imbalance
                    // ratio is unchanged by the sum.
                    let loads: Vec<u64> = snap
                        .gauge_family("ftlinda_shard_tuples")
                        .map(|children| children.values().map(|v| (*v).max(0) as u64).collect())
                        .unwrap_or_default();
                    imbalance.set(ftlinda_ags::imbalance_bp(&loads));
                    let mut values = snap.series(
                        &[
                            "ftlinda_ags_completions_total",
                            "ftlinda_stable_tuples",
                            "ftlinda_blocked_ags",
                            "ftlinda_ags_starving_total",
                        ],
                        &[
                            "ftlinda_shard_tuples",
                            "ftlinda_shard_ags_total",
                            "ftlinda_shard_multicasts_total",
                            "ftlinda_xcommit_aborts_total",
                            "ftlinda_xcommit_retries_total",
                            "ftlinda_xlock_buffered_total",
                        ],
                    );
                    values.push((
                        "ftlinda_shard_imbalance_bp".to_string(),
                        ftlinda_ags::imbalance_bp(&loads),
                    ));
                    view.timeseries.sample(values);
                }
            })
            .expect("spawn time-series sampler");
        *self.sampler.lock() = Some(handle);
    }

    /// The in-memory metrics time-series ring. Serialized as
    /// `/timeseries` on every member's exporter.
    pub fn timeseries(&self) -> Arc<linda_obs::TimeSeriesRing> {
        self.view.timeseries.clone()
    }

    /// The flight-recorder dump directory, when one was configured.
    pub fn flight_dir(&self) -> Option<PathBuf> {
        self.flight.as_ref().map(|f| f.dir().to_path_buf())
    }

    /// Dump full observability state to the flight directory now.
    /// Returns `None` when no flight directory was configured. The
    /// monitor thread calls this automatically on trigger events; tests
    /// and operators can force a dump.
    pub fn flight_dump(&self, reason: &str) -> Option<std::io::Result<PathBuf>> {
        let flight = self.flight.as_ref()?;
        let sections = self.view.flight_sections(self.groups[0].stats());
        Some(flight.dump(reason, &sections))
    }

    fn spawn_flight_monitor(&self, period: Duration) {
        let Some(flight) = self.flight.clone() else {
            return;
        };
        let view = self.view.clone();
        let stats = self.groups[0].stats_handle();
        let stop = self.stop_rx.clone();
        let handle = std::thread::Builder::new()
            .name("ftlinda-flight".into())
            .spawn(move || {
                // Last-seen event counts per (scope, kind); a count that
                // grows triggers a dump, a count that shrinks means the
                // source registry was replaced (host restart) and resets
                // the baseline.
                let mut seen: HashMap<(u32, &'static str), usize> = HashMap::new();
                const CLUSTER: u32 = u32::MAX;
                while ticks(&stop, period) {
                    let mut fire: Option<&'static str> = None;
                    let mut check = |key: (u32, &'static str), count: usize| {
                        let last = seen.entry(key).or_insert(0);
                        if count > *last {
                            fire = Some(key.1);
                        }
                        *last = count;
                    };
                    check(
                        (CLUSTER, "digest_divergence"),
                        view.obs.events().recent_of("digest_divergence").len(),
                    );
                    {
                        let map = view.runtimes.lock();
                        for (h, rt) in map.iter() {
                            for kind in ["coordinator_failover", "rejoin_failed"] {
                                check((h.0, kind), rt.obs().events().recent_of(kind).len());
                            }
                        }
                    }
                    if let Some(reason) = fire {
                        let _ = flight.dump(reason, &view.flight_sections(&stats));
                    }
                }
            })
            .expect("spawn flight monitor");
        *self.monitor.lock() = Some(handle);
    }

    /// Crash a host (fail-silent). Every surviving replica will deposit a
    /// `("failure", host)` tuple into each stable TS once the failure is
    /// detected and ordered.
    pub fn crash(&self, host: HostId) {
        for group in &self.groups {
            group.crash(host);
        }
    }

    /// Restart a crashed host. The fresh runtime replays the ordered log
    /// and converges to the surviving replicas' state; a `Join` record is
    /// ordered into the stream. The runtime it replaces is shut down, so
    /// none of its threads outlive it; that handle stays readable for
    /// its metrics, but its replica state is released
    /// ([`Runtime::shutdown`]).
    pub fn restart(&self, host: HostId) -> Runtime {
        // The fresh incarnation keeps the cluster's observability
        // configuration (watchdog threshold).
        let members: Vec<SeqMember> = self.groups.iter().map(|g| g.restart(host)).collect();
        let rt = Runtime::with_members(members, self.run_cfg.clone());
        let replaced = self.view.runtimes.lock().insert(host, rt.clone());
        if let Some(old) = replaced {
            old.shutdown();
        }
        rt
    }

    /// Network statistics (physical messages/bytes) — experiment E9.
    /// Summed over all shards' simulated networks; under TCP the shard
    /// lanes share one mesh, whose socket-level counters this reports.
    pub fn net_stats(&self) -> (u64, u64) {
        if let Some(mesh) = &self.mesh {
            return mesh.stats().snapshot();
        }
        self.groups.iter().fold((0, 0), |(m, b), g| {
            let (gm, gb) = g.transport().stats_snapshot();
            (m + gm, b + gb)
        })
    }

    /// Reset network statistics between measurement phases.
    pub fn reset_net_stats(&self) {
        if let Some(mesh) = &self.mesh {
            mesh.stats().reset();
            return;
        }
        for group in &self.groups {
            group.transport().reset_stats();
        }
    }

    /// Hosts currently considered live by the failure detector (the
    /// oracle under Sim, heartbeat reachability under TCP). A TCP member
    /// that has not yet connected to any peer reports only itself.
    pub fn live_hosts(&self) -> Vec<HostId> {
        self.groups[0].transport().live_hosts()
    }

    /// Number of shards (independent ordering groups) in this cluster.
    pub fn shard_count(&self) -> usize {
        self.groups.len()
    }

    /// Ordering-layer statistics (shard 0's group; see
    /// [`Cluster::order_stats_shard`]).
    pub fn order_stats(&self) -> &consul_sim::OrderStats {
        self.groups[0].stats()
    }

    /// Ordering-layer statistics of one shard's group.
    pub fn order_stats_shard(&self, shard: usize) -> &consul_sim::OrderStats {
        self.groups[shard].stats()
    }

    /// Tear everything down (idempotent).
    pub fn shutdown(&self) {
        self.stop_tx.lock().take();
        if let Some(h) = self.detector.lock().take() {
            let _ = h.join();
        }
        if let Some(h) = self.monitor.lock().take() {
            let _ = h.join();
        }
        if let Some(h) = self.sampler.lock().take() {
            let _ = h.join();
        }
        for (_, mut exp) in self.exporters.lock().drain() {
            exp.stop();
        }
        for rt in self.view.runtimes.lock().values() {
            rt.shutdown();
        }
        for group in &self.groups {
            group.shutdown();
        }
        if let Some(mesh) = &self.mesh {
            mesh.shutdown();
        }
    }
}

/// Wait one `period` for the cluster to stop: `true` when the period
/// passed, `false` as soon as [`Cluster::shutdown`] runs.
fn ticks(stop: &Receiver<()>, period: Duration) -> bool {
    matches!(stop.recv_timeout(period), Err(RecvTimeoutError::Timeout))
}

/// How many hot signatures `/introspect` lists cluster-wide.
const HOT_SIGNATURES_TOP_K: usize = 10;

/// This process's view of the cluster's members, shared by the
/// background threads, every member's HTTP exporter and the [`Cluster`]
/// methods that serve the same views in-process.
struct ClusterView {
    /// Current runtime per host, replaced on restart so every reader
    /// samples the live incarnation.
    runtimes: Mutex<HashMap<HostId, Runtime>>,
    /// Cluster-level registry: divergence counter + events.
    obs: Arc<linda_obs::Registry>,
    /// Shard 0's transport, whose live view the failure detector keeps.
    net: SeqNet,
    /// Peer members' HTTP exporter addresses — the federation targets
    /// for `/cluster/trace/<id>` and `/metrics/cluster`. Non-empty only
    /// under [`Transport::Tcp`] with a fixed
    /// [`ClusterBuilder::http_base_port`]; under Sim every member is in
    /// this process and federation needs no network.
    peer_http: Vec<(HostId, SocketAddr)>,
    /// Bounded ring of periodic metric snapshots (`/timeseries`).
    timeseries: Arc<linda_obs::TimeSeriesRing>,
    /// Built with [`Transport::Tcp`]: this process hosts one member.
    tcp: bool,
}

impl ClusterView {
    /// Hosts the transport currently counts live.
    fn live(&self) -> HashSet<HostId> {
        self.net.live_hosts().into_iter().collect()
    }

    /// The cluster-wide span tree of one AGS: every in-process member's
    /// spans plus every live peer process's `/spans/<id>`. Sources are
    /// built under the lock (cheap clones) and the network is walked
    /// without it, so a slow peer never blocks the runtimes map.
    fn trace(&self, id: linda_obs::TraceId) -> linda_obs::TraceTree {
        let sources = member_sources(&self.runtimes.lock(), &self.peer_http);
        federate_trace(&sources, &self.live(), id)
    }

    /// The cluster registry merged with every live member's snapshot.
    fn cluster_metrics(&self) -> linda_obs::RegistrySnapshot {
        let sources = member_sources(&self.runtimes.lock(), &self.peer_http);
        federate_metrics(&sources, &self.live(), &self.obs)
    }

    /// Answer one GET on member `host`'s exporter as `(status, content
    /// type, body)`. Every endpoint reads the live runtime map, not a
    /// pinned `Runtime`: the exporter models an out-of-process scrape
    /// sidecar, so it keeps answering while its member is crashed and
    /// picks up the restarted incarnation.
    fn route(&self, host: HostId, path: &str) -> (u16, &'static str, String) {
        const PROMETHEUS: &str = "text/plain; version=0.0.4";
        let rt = self.runtimes.lock().get(&host).cloned();
        match path {
            "/metrics" => {
                let text = rt.map(|rt| rt.metrics_text());
                (200, PROMETHEUS, text.unwrap_or_default())
            }
            "/metrics/cluster" => (200, PROMETHEUS, self.cluster_metrics().render()),
            // A federation leaf: it never fans out, so a peer assembling
            // its own cluster view can fetch it without recursion. Under
            // TCP this process IS the member, so the snapshot carries the
            // process-level cluster registry too (mesh link counters,
            // divergence counter); under Sim the cluster registry is
            // added once by whichever federator serves the merged page.
            "/metrics/snapshot" => {
                let mut snap = if self.tcp {
                    self.obs.snapshot()
                } else {
                    linda_obs::RegistrySnapshot::default()
                };
                if let Some(rt) = rt {
                    snap.merge(&rt.metrics_snapshot());
                }
                (200, "text/plain", snap.to_wire())
            }
            "/introspect" => match rt.and_then(|rt| rt.introspect_json(HOT_SIGNATURES_TOP_K)) {
                Some(body) => (200, "application/json", body),
                None => (404, "text/plain", "no runtime for this member".into()),
            },
            "/timeseries" => (200, "application/json", self.timeseries.to_json()),
            "/healthz" => {
                let body = member_health_json(host, &self.live(), rt.as_ref());
                (200, "application/json", body)
            }
            "/events" => {
                let events = rt.map(|rt| events_json_lines(&rt.obs().events().recent()));
                (200, "application/x-ndjson", events.unwrap_or_default())
            }
            _ => {
                let leaf = path.strip_prefix("/spans/");
                let Some(id) = leaf
                    .or_else(|| path.strip_prefix("/trace/"))
                    .or_else(|| path.strip_prefix("/cluster/trace/"))
                else {
                    return (
                        404,
                        "text/plain",
                        "not found; try /metrics /metrics/cluster /metrics/snapshot /introspect /timeseries /healthz /events /trace/<origin>-<local> /spans/<id> /cluster/trace/<id>".into(),
                    );
                };
                match id.parse::<linda_obs::TraceId>() {
                    Err(e) => (400, "text/plain", e.to_string()),
                    // The other federation leaf: this member's spans only.
                    Ok(id) if leaf.is_some() => {
                        let (spans, horizons) =
                            rt.map(|rt| local_spans(&rt, id)).unwrap_or_default();
                        let horizon = horizons.into_iter().flatten().max();
                        (200, "text/plain", linda_obs::spans_wire(&spans, horizon))
                    }
                    // `/trace/<id>` and `/cluster/trace/<id>` serve the
                    // same federated view.
                    Ok(id) => (200, "application/json", self.trace(id).to_json()),
                }
            }
        }
    }

    /// The sections of one flight-recorder dump: per-member event ring,
    /// span log and applied digest, plus cluster-level events,
    /// ordering-layer counters and the time series.
    fn flight_sections(&self, stats: &consul_sim::OrderStats) -> Vec<FlightSection> {
        let live_set = self.live();
        let runtimes = self.runtimes.lock();
        let mut hosts: Vec<HostId> = runtimes.keys().copied().collect();
        hosts.sort_by_key(|h| h.0);
        let mut sections = Vec::new();
        for h in hosts {
            let rt = &runtimes[&h];
            sections.push(FlightSection::new(
                format!("state host={}", h.0),
                member_health_json(h, &live_set, Some(rt)),
            ));
            sections.push(FlightSection::new(
                format!("events host={}", h.0),
                events_json_lines(&rt.obs().events().recent()),
            ));
            let mut spans = String::new();
            for s in rt.obs().spans().recent() {
                spans.push_str(&linda_obs::span_json(&s));
                spans.push('\n');
            }
            sections.push(FlightSection::new(format!("spans host={}", h.0), spans));
        }
        sections.push(FlightSection::new(
            "cluster events",
            events_json_lines(&self.obs.events().recent()),
        ));
        sections.push(FlightSection::new(
            "order stats",
            format!(
                "broadcasts={} delivered={} view_changes={} retransmits={} \
                 ordered_multicasts={} batches={} batch_entries={}\n",
                stats.broadcasts(),
                stats.delivered(),
                stats.view_changes(),
                stats.retransmits(),
                stats.ordered_multicasts(),
                stats.batches(),
                stats.batch_entries()
            ),
        ));
        sections.push(FlightSection::new("timeseries", self.timeseries.to_json()));
        sections
    }
}

/// Every member as a federation source: the runtimes in this process
/// directly, plus one remote source per known peer exporter (TCP with a
/// fixed HTTP base; peers already present locally are not duplicated).
fn member_sources(
    runtimes: &HashMap<HostId, Runtime>,
    peer_http: &[(HostId, SocketAddr)],
) -> Vec<MemberSource> {
    let mut out: Vec<MemberSource> = runtimes
        .values()
        .cloned()
        .map(MemberSource::Local)
        .collect();
    for (h, addr) in peer_http {
        if !runtimes.contains_key(h) {
            out.push(MemberSource::Remote {
                host: *h,
                http: *addr,
            });
        }
    }
    out.sort_by_key(|s| s.host().0);
    out
}

/// The `/healthz` JSON for one member: liveness, applied position,
/// digest, blocked-AGS count and any rejoin failure.
fn member_health_json(host: HostId, live: &HashSet<HostId>, rt: Option<&Runtime>) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{{\"host\":{},\"live\":{},\"view\":[",
        host.0,
        live.contains(&host)
    ));
    let mut view: Vec<u32> = live.iter().map(|h| h.0).collect();
    view.sort_unstable();
    for (i, h) in view.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&h.to_string());
    }
    out.push(']');
    match rt {
        Some(rt) => {
            let (seq, dig) = rt.applied_digest();
            out.push_str(&format!(
                ",\"applied_seq\":{seq},\"digest\":\"{dig:#018x}\",\"blocked\":{}",
                rt.blocked_len()
            ));
            match rt.checkpoint_seq() {
                Some(cs) => out.push_str(&format!(",\"checkpoint_seq\":{cs}")),
                None => out.push_str(",\"checkpoint_seq\":null"),
            }
            out.push_str(&format!(",\"log_base\":{}", rt.log_base()));
            match rt.rejoin_error() {
                Some(e) => out.push_str(&format!(
                    ",\"rejoin_error\":\"{}\"",
                    linda_obs::json_escape(&e)
                )),
                None => out.push_str(",\"rejoin_error\":null"),
            }
        }
        None => out.push_str(",\"applied_seq\":null"),
    }
    out.push_str("}\n");
    out
}

impl Drop for Cluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}
