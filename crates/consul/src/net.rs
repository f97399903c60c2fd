//! The simulated network of workstations.
//!
//! The paper ran on Sun-3/i386 workstations on a 10 Mb Ethernet under the
//! x-kernel. We substitute an in-process message-passing network with:
//!
//! * per-link latency (configurable base + seeded jitter), FIFO links
//! * crash injection (fail-silent: a crashed host's traffic vanishes,
//!   in both directions) and restart
//! * a delayed *perfect failure detector*: `crash()` schedules a
//!   `CrashNotice` control event to every live host after the configured
//!   detection delay, modelling the heartbeat timeout that converts
//!   fail-silent crashes into fail-stop notifications (paper §2.3)
//! * message and byte accounting for the E9 experiment
//!
//! The router runs on its own thread, draining a monotonic delay queue.
//! Per-link FIFO order is preserved even with jitter (delivery times are
//! clamped monotonically per link), which matches Ethernet + x-kernel
//! behaviour closely enough for the protocols built on top.

use crate::stats::NetStats;
use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BinaryHeap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Identifier of a simulated processor ("host" in the paper's terms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct HostId(pub u32);

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host{}", self.0)
    }
}

/// A network-level event delivered to a host's inbox.
#[derive(Debug, Clone)]
pub enum NetEvent<M> {
    /// A protocol message from a peer.
    Msg {
        /// Sending host.
        from: HostId,
        /// Payload.
        msg: M,
    },
    /// The failure detector reports `host` crashed (delivered to every
    /// live host after the detection delay).
    CrashNotice(HostId),
    /// The failure detector reports `host` (re)joined the network.
    JoinNotice(HostId),
    /// A local wake-up for the receiving host's protocol thread, pushed
    /// by another thread of the same process. It never crosses a link:
    /// it is not encoded and not counted in [`NetStats`].
    Wake,
}

/// Network configuration.
#[derive(Debug, Clone)]
pub struct NetConfig {
    /// Base one-way link latency.
    pub latency: Duration,
    /// Uniform extra jitter in `[0, jitter]`.
    pub jitter: Duration,
    /// Failure-detection delay (crash → CrashNotice at peers). Used by
    /// the built-in delayed *perfect* detector; ignored when
    /// `heartbeats` is set.
    pub detect_delay: Duration,
    /// RNG seed for jitter (simulations are reproducible per seed).
    pub seed: u64,
    /// When set, the built-in oracle detector is disabled and the
    /// protocol layer detects crashes itself from heartbeat silence
    /// (see [`Heartbeat`]). `timeout` must exceed the worst-case link
    /// latency + period or live hosts will be falsely suspected.
    pub heartbeats: Option<Heartbeat>,
    /// Optional per-host egress service-time model (NIC serialization).
    /// `None` (the default) keeps the classic infinite-bandwidth
    /// simulation: messages only pay `latency + jitter`.
    pub nic: Option<NicModel>,
}

/// Egress bandwidth model: each host owns one NIC that serializes its
/// outgoing messages. A message occupies the sender's NIC for
/// `per_msg + per_byte × size` before it enters the wire, so a burst
/// from one host queues behind itself while other hosts' NICs transmit
/// in parallel — the property that makes a single busy coordinator the
/// bottleneck on the paper's 10 Mb Ethernet, and the one the default
/// zero-cost network cannot express. Receive side is not modelled
/// (deliveries share the link latency only), matching the paper's
/// observation that the sender-side protocol stack dominated.
#[derive(Debug, Clone, Copy)]
pub struct NicModel {
    /// Fixed per-message cost (framing, protocol stack, interrupt).
    pub per_msg: Duration,
    /// Transmission time per payload byte.
    pub per_byte: Duration,
}

impl NicModel {
    /// A 10 Mb-Ethernet-era model: 10 Mb/s ≈ 0.8 µs per byte, plus
    /// ~100 µs of fixed per-packet protocol-stack overhead (the x-kernel
    /// numbers the paper's testbed reports are of this magnitude).
    pub fn ethernet_10mb() -> Self {
        NicModel {
            per_msg: Duration::from_micros(100),
            per_byte: Duration::from_nanos(800),
        }
    }

    /// NIC occupancy for one message of `bytes` payload bytes.
    pub fn service_time(&self, bytes: usize) -> Duration {
        self.per_msg + self.per_byte * (bytes as u32)
    }
}

/// Heartbeat-based failure detection parameters.
#[derive(Debug, Clone, Copy)]
pub struct Heartbeat {
    /// Interval between pings.
    pub period: Duration,
    /// Silence longer than this declares a host crashed.
    pub timeout: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig {
            latency: Duration::ZERO,
            jitter: Duration::ZERO,
            detect_delay: Duration::from_millis(1),
            seed: 0xf7_11da,
            heartbeats: None,
            nic: None,
        }
    }
}

impl NetConfig {
    /// Zero-latency configuration (fast tests).
    pub fn instant() -> Self {
        NetConfig::default()
    }

    /// A LAN-like configuration with the given one-way latency.
    pub fn lan(latency: Duration) -> Self {
        NetConfig {
            latency,
            jitter: latency / 4,
            ..NetConfig::default()
        }
    }
}

/// Sizing hook so the router can account bytes without serializing twice.
pub trait WireSized {
    /// Approximate on-the-wire size of this message in bytes.
    fn wire_size(&self) -> usize;
}

struct Scheduled<M> {
    due: Instant,
    tie: u64,
    to: HostId,
    event: NetEvent<M>,
}

impl<M> PartialEq for Scheduled<M> {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.tie == other.tie
    }
}
impl<M> Eq for Scheduled<M> {}
impl<M> PartialOrd for Scheduled<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Scheduled<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; invert for earliest-first.
        other
            .due
            .cmp(&self.due)
            .then_with(|| other.tie.cmp(&self.tie))
    }
}

struct RouterState<M> {
    queue: BinaryHeap<Scheduled<M>>,
    inboxes: HashMap<HostId, crossbeam::channel::Sender<NetEvent<M>>>,
    crashed: HashMap<HostId, bool>,
    last_delivery: HashMap<(HostId, HostId), Instant>,
    /// When each host's egress NIC finishes its current backlog (only
    /// maintained when [`NetConfig::nic`] is set).
    nic_free: HashMap<HostId, Instant>,
    rng: StdRng,
    tie: u64,
    shutdown: bool,
}

struct NetInner<M> {
    state: Mutex<RouterState<M>>,
    cond: Condvar,
    cfg: NetConfig,
    stats: NetStats,
    running: AtomicBool,
}

/// The simulated network. Clone handles freely; all clones alias one
/// network.
pub struct SimNet<M: Send + 'static> {
    inner: Arc<NetInner<M>>,
}

impl<M: Send + 'static> Clone for SimNet<M> {
    fn clone(&self) -> Self {
        SimNet {
            inner: self.inner.clone(),
        }
    }
}

impl<M: Send + WireSized + 'static> SimNet<M> {
    /// Create a network with `n` hosts (ids `0..n`), returning the network
    /// handle and each host's inbox receiver.
    pub fn new(n: u32, cfg: NetConfig) -> (Self, Vec<crossbeam::channel::Receiver<NetEvent<M>>>) {
        let mut inboxes = HashMap::new();
        let mut rxs = Vec::with_capacity(n as usize);
        for i in 0..n {
            let (tx, rx) = crossbeam::channel::unbounded();
            inboxes.insert(HostId(i), tx);
            rxs.push(rx);
        }
        let inner = Arc::new(NetInner {
            state: Mutex::new(RouterState {
                queue: BinaryHeap::new(),
                inboxes,
                crashed: HashMap::new(),
                last_delivery: HashMap::new(),
                nic_free: HashMap::new(),
                rng: StdRng::seed_from_u64(cfg.seed),
                tie: 0,
                shutdown: false,
            }),
            cond: Condvar::new(),
            cfg,
            stats: NetStats::default(),
            running: AtomicBool::new(true),
        });
        let net = SimNet { inner };
        net.spawn_router();
        (net, rxs)
    }

    fn spawn_router(&self) {
        let inner = self.inner.clone();
        std::thread::Builder::new()
            .name("simnet-router".into())
            .spawn(move || loop {
                let mut st = inner.state.lock();
                if st.shutdown {
                    return;
                }
                match st.queue.peek().map(|s| s.due) {
                    None => {
                        inner.cond.wait(&mut st);
                    }
                    Some(due) => {
                        let now = Instant::now();
                        if due <= now {
                            let item = st.queue.pop().expect("peeked");
                            // Drop everything scheduled for a crashed
                            // host, detector notices included.
                            if !st.crashed.get(&item.to).copied().unwrap_or(false) {
                                if let Some(tx) = st.inboxes.get(&item.to) {
                                    // Receiver may be gone after restart;
                                    // dropping is correct (host is dead).
                                    let _ = tx.send(item.event);
                                }
                            }
                            drop(st);
                        } else {
                            inner.cond.wait_until(&mut st, due);
                        }
                    }
                }
            })
            .expect("spawn router");
    }

    /// Occupy `from`'s egress NIC for one `bytes`-sized message and
    /// return how long past *now* the message enters the wire. Zero when
    /// no NIC model is configured.
    fn nic_delay(&self, st: &mut RouterState<M>, from: HostId, bytes: usize) -> Duration {
        let Some(nic) = self.inner.cfg.nic else {
            return Duration::ZERO;
        };
        let now = Instant::now();
        let start = st.nic_free.get(&from).copied().unwrap_or(now).max(now);
        let busy_until = start + nic.service_time(bytes);
        st.nic_free.insert(from, busy_until);
        busy_until - now
    }

    fn schedule(
        &self,
        st: &mut RouterState<M>,
        from: Option<HostId>,
        to: HostId,
        event: NetEvent<M>,
        extra: Duration,
    ) {
        let now = Instant::now();
        let jitter = if self.inner.cfg.jitter.is_zero() {
            Duration::ZERO
        } else {
            let j = self.inner.cfg.jitter.as_nanos() as u64;
            Duration::from_nanos(st.rng.gen_range(0..=j))
        };
        let mut due = now + self.inner.cfg.latency + jitter + extra;
        // Preserve per-link FIFO.
        if let Some(f) = from {
            let key = (f, to);
            if let Some(last) = st.last_delivery.get(&key) {
                if due < *last {
                    due = *last;
                }
            }
            st.last_delivery.insert(key, due);
        }
        st.tie += 1;
        let tie = st.tie;
        st.queue.push(Scheduled {
            due,
            tie,
            to,
            event,
        });
        self.inner.cond.notify_one();
    }

    /// Point-to-point send. Silently dropped if `from` is crashed (a dead
    /// host's last gasps never reach the wire) or `to` is crashed.
    pub fn send(&self, from: HostId, to: HostId, msg: M) {
        let mut st = self.inner.state.lock();
        if st.crashed.get(&from).copied().unwrap_or(false) {
            return;
        }
        let size = msg.wire_size();
        self.inner.stats.record_msg(size);
        let service = self.nic_delay(&mut st, from, size);
        self.schedule(
            &mut st,
            Some(from),
            to,
            NetEvent::Msg { from, msg },
            service,
        );
    }

    /// Best-effort multicast to a set of hosts (one accounted message per
    /// destination, like Ethernet unicast fan-out; the *logical* multicast
    /// count is tracked separately by the ordering layer).
    pub fn multicast<I: IntoIterator<Item = HostId>>(&self, from: HostId, to: I, msg: M)
    where
        M: Clone,
    {
        let mut st = self.inner.state.lock();
        if st.crashed.get(&from).copied().unwrap_or(false) {
            return;
        }
        for dest in to {
            let size = msg.wire_size();
            self.inner.stats.record_msg(size);
            // Unicast fan-out: every copy occupies the sender's NIC in
            // turn, which is exactly what makes a K=1 coordinator the
            // bandwidth bottleneck under the service model.
            let service = self.nic_delay(&mut st, from, size);
            self.schedule(
                &mut st,
                Some(from),
                dest,
                NetEvent::Msg {
                    from,
                    msg: msg.clone(),
                },
                service,
            );
        }
    }

    /// Crash a host (fail-silent). In-flight messages to it are dropped at
    /// delivery time; messages from it no longer enter the wire. After the
    /// detection delay every live host receives a
    /// [`NetEvent::CrashNotice`].
    pub fn crash(&self, host: HostId) {
        let mut st = self.inner.state.lock();
        if st.crashed.get(&host).copied().unwrap_or(false) {
            return;
        }
        st.crashed.insert(host, true);
        st.nic_free.remove(&host);
        if self.inner.cfg.heartbeats.is_some() {
            // Heartbeat mode: peers must notice the silence themselves.
            return;
        }
        let peers: Vec<HostId> = st
            .inboxes
            .keys()
            .copied()
            .filter(|h| *h != host && !st.crashed.get(h).copied().unwrap_or(false))
            .collect();
        for p in peers {
            self.schedule(
                &mut st,
                None,
                p,
                NetEvent::CrashNotice(host),
                self.inner.cfg.detect_delay,
            );
        }
    }

    /// Freeze a host: silently drop its traffic in both directions while
    /// leaving its inbox and its member thread intact. Unlike
    /// [`SimNet::crash`], no detector notice is ever scheduled — under
    /// heartbeat detection the silence looks exactly like a crash, which
    /// is the point: this models a long stall or a flapping link, i.e.
    /// the *false suspicion* case, where the "failed" member's protocol
    /// state survives and the member later resumes from it.
    pub fn freeze(&self, host: HostId) {
        let mut st = self.inner.state.lock();
        st.crashed.insert(host, true);
        st.nic_free.remove(&host);
    }

    /// Undo a [`SimNet::freeze`]: the host's traffic flows again and its
    /// member resumes from whatever state it had at the freeze — stale
    /// cursor, stale membership view and all. The ordering layer's
    /// eviction/rejoin machinery is what must clean that up.
    pub fn thaw(&self, host: HostId) {
        let mut st = self.inner.state.lock();
        st.crashed.insert(host, false);
    }

    /// Restart a crashed host: installs a fresh inbox (returned) and, after
    /// the detection delay, announces a [`NetEvent::JoinNotice`] to every
    /// live host *including the restarted one*.
    pub fn restart(&self, host: HostId) -> crossbeam::channel::Receiver<NetEvent<M>> {
        let (tx, rx) = crossbeam::channel::unbounded();
        let mut st = self.inner.state.lock();
        st.crashed.insert(host, false);
        st.nic_free.remove(&host);
        st.inboxes.insert(host, tx);
        if self.inner.cfg.heartbeats.is_some() {
            // Heartbeat mode: liveness is learned from the JoinReq/ping
            // traffic of the restarted host itself.
            return rx;
        }
        let peers: Vec<HostId> = st
            .inboxes
            .keys()
            .copied()
            .filter(|h| !st.crashed.get(h).copied().unwrap_or(false))
            .collect();
        for p in peers {
            self.schedule(
                &mut st,
                None,
                p,
                NetEvent::JoinNotice(host),
                self.inner.cfg.detect_delay,
            );
        }
        rx
    }

    /// Push a [`NetEvent::Wake`] straight into `host`'s inbox, bypassing
    /// the wire, the accounting and the crash flag (a crashed host's
    /// protocol thread still has to notice that it is being stopped).
    pub(crate) fn wake(&self, host: HostId) {
        if let Some(tx) = self.inner.state.lock().inboxes.get(&host) {
            let _ = tx.send(NetEvent::Wake);
        }
    }

    /// Whether `host` is currently crashed.
    pub fn is_crashed(&self, host: HostId) -> bool {
        self.inner
            .state
            .lock()
            .crashed
            .get(&host)
            .copied()
            .unwrap_or(false)
    }

    /// All hosts currently not crashed.
    pub fn live_hosts(&self) -> Vec<HostId> {
        let st = self.inner.state.lock();
        let mut v: Vec<HostId> = st
            .inboxes
            .keys()
            .copied()
            .filter(|h| !st.crashed.get(h).copied().unwrap_or(false))
            .collect();
        v.sort_unstable();
        v
    }

    /// The configuration this network was built with.
    pub fn config(&self) -> &NetConfig {
        &self.inner.cfg
    }

    /// Network statistics (messages, bytes).
    pub fn stats(&self) -> &NetStats {
        &self.inner.stats
    }

    /// Stop the router thread. Further sends are dropped.
    pub fn shutdown(&self) {
        self.inner.running.store(false, AtomicOrdering::SeqCst);
        self.inner.state.lock().shutdown = true;
        self.inner.cond.notify_all();
    }
}

impl<M> Drop for NetInner<M> {
    fn drop(&mut self) {
        self.state.get_mut().shutdown = true;
        self.cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[derive(Debug, Clone, PartialEq)]
    struct TestMsg(u64);

    impl WireSized for TestMsg {
        fn wire_size(&self) -> usize {
            8
        }
    }

    fn recv_msg(
        rx: &crossbeam::channel::Receiver<NetEvent<TestMsg>>,
        within: Duration,
    ) -> Option<(HostId, TestMsg)> {
        let deadline = Instant::now() + within;
        while Instant::now() < deadline {
            match rx.recv_timeout(deadline - Instant::now()) {
                Ok(NetEvent::Msg { from, msg }) => return Some((from, msg)),
                Ok(_) => continue,
                Err(_) => return None,
            }
        }
        None
    }

    #[test]
    fn point_to_point_delivery() {
        let (net, rxs) = SimNet::<TestMsg>::new(2, NetConfig::instant());
        net.send(HostId(0), HostId(1), TestMsg(7));
        assert_eq!(
            recv_msg(&rxs[1], Duration::from_secs(1)),
            Some((HostId(0), TestMsg(7)))
        );
        net.shutdown();
    }

    #[test]
    fn multicast_reaches_all() {
        let (net, rxs) = SimNet::<TestMsg>::new(3, NetConfig::instant());
        net.multicast(HostId(0), [HostId(0), HostId(1), HostId(2)], TestMsg(1));
        for rx in &rxs {
            assert!(recv_msg(rx, Duration::from_secs(1)).is_some());
        }
        net.shutdown();
    }

    #[test]
    fn fifo_per_link_with_jitter() {
        let cfg = NetConfig {
            latency: Duration::from_micros(200),
            jitter: Duration::from_micros(400),
            ..NetConfig::default()
        };
        let (net, rxs) = SimNet::<TestMsg>::new(2, cfg);
        for i in 0..50 {
            net.send(HostId(0), HostId(1), TestMsg(i));
        }
        let mut got = Vec::new();
        for _ in 0..50 {
            got.push(recv_msg(&rxs[1], Duration::from_secs(2)).unwrap().1 .0);
        }
        assert_eq!(got, (0..50).collect::<Vec<_>>(), "link must be FIFO");
        net.shutdown();
    }

    #[test]
    fn latency_is_applied() {
        let cfg = NetConfig {
            latency: Duration::from_millis(30),
            ..NetConfig::default()
        };
        let (net, rxs) = SimNet::<TestMsg>::new(2, cfg);
        let t0 = Instant::now();
        net.send(HostId(0), HostId(1), TestMsg(1));
        recv_msg(&rxs[1], Duration::from_secs(2)).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(30));
        net.shutdown();
    }

    #[test]
    fn crashed_host_receives_nothing() {
        let (net, rxs) = SimNet::<TestMsg>::new(2, NetConfig::instant());
        net.crash(HostId(1));
        net.send(HostId(0), HostId(1), TestMsg(1));
        assert_eq!(recv_msg(&rxs[1], Duration::from_millis(50)), None);
        assert!(net.is_crashed(HostId(1)));
        net.shutdown();
    }

    #[test]
    fn crashed_host_sends_nothing() {
        let (net, rxs) = SimNet::<TestMsg>::new(2, NetConfig::instant());
        net.crash(HostId(0));
        net.send(HostId(0), HostId(1), TestMsg(1));
        // Host 1 gets the crash notice but never the message.
        let deadline = Instant::now() + Duration::from_millis(100);
        let mut got_notice = false;
        while Instant::now() < deadline {
            match rxs[1].recv_timeout(Duration::from_millis(10)) {
                Ok(NetEvent::CrashNotice(h)) => {
                    assert_eq!(h, HostId(0));
                    got_notice = true;
                }
                Ok(NetEvent::Msg { .. }) => panic!("message from crashed host delivered"),
                _ => {}
            }
        }
        assert!(got_notice);
        net.shutdown();
    }

    #[test]
    fn crash_notice_reaches_all_live_hosts() {
        let (net, rxs) = SimNet::<TestMsg>::new(3, NetConfig::instant());
        net.crash(HostId(2));
        for rx in &rxs[..2] {
            let ev = rx.recv_timeout(Duration::from_secs(1)).unwrap();
            assert!(matches!(ev, NetEvent::CrashNotice(HostId(2))));
        }
        assert_eq!(net.live_hosts(), vec![HostId(0), HostId(1)]);
        net.shutdown();
    }

    #[test]
    fn restart_installs_new_inbox_and_announces() {
        let (net, rxs) = SimNet::<TestMsg>::new(2, NetConfig::instant());
        net.crash(HostId(1));
        // drain crash notice at host 0
        let _ = rxs[0].recv_timeout(Duration::from_secs(1)).unwrap();
        let rx1 = net.restart(HostId(1));
        let ev = rxs[0].recv_timeout(Duration::from_secs(1)).unwrap();
        assert!(matches!(ev, NetEvent::JoinNotice(HostId(1))));
        let ev = rx1.recv_timeout(Duration::from_secs(1)).unwrap();
        assert!(matches!(ev, NetEvent::JoinNotice(HostId(1))));
        // New inbox is live.
        net.send(HostId(0), HostId(1), TestMsg(9));
        assert_eq!(
            recv_msg(&rx1, Duration::from_secs(1)),
            Some((HostId(0), TestMsg(9)))
        );
        assert!(!net.is_crashed(HostId(1)));
        net.shutdown();
    }

    #[test]
    fn stats_count_messages_and_bytes() {
        let (net, rxs) = SimNet::<TestMsg>::new(2, NetConfig::instant());
        net.send(HostId(0), HostId(1), TestMsg(1));
        net.multicast(HostId(0), [HostId(0), HostId(1)], TestMsg(2));
        recv_msg(&rxs[1], Duration::from_secs(1)).unwrap();
        assert_eq!(net.stats().messages(), 3);
        assert_eq!(net.stats().bytes(), 24);
        net.shutdown();
    }

    #[test]
    fn nic_serializes_one_hosts_egress() {
        let cfg = NetConfig {
            nic: Some(NicModel {
                per_msg: Duration::from_millis(20),
                per_byte: Duration::ZERO,
            }),
            ..NetConfig::default()
        };
        let (net, rxs) = SimNet::<TestMsg>::new(2, cfg);
        let t0 = Instant::now();
        for i in 0..3 {
            net.send(HostId(0), HostId(1), TestMsg(i));
        }
        for _ in 0..3 {
            recv_msg(&rxs[1], Duration::from_secs(2)).unwrap();
        }
        // Three messages through one NIC: the last one waited for the
        // first two to transmit.
        assert!(t0.elapsed() >= Duration::from_millis(60));
        net.shutdown();
    }

    #[test]
    fn nic_charges_bytes() {
        let cfg = NetConfig {
            nic: Some(NicModel {
                per_msg: Duration::ZERO,
                per_byte: Duration::from_millis(5), // TestMsg is 8 bytes
            }),
            ..NetConfig::default()
        };
        let (net, rxs) = SimNet::<TestMsg>::new(2, cfg);
        let t0 = Instant::now();
        net.send(HostId(0), HostId(1), TestMsg(1));
        recv_msg(&rxs[1], Duration::from_secs(2)).unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(40));
        net.shutdown();
    }

    #[test]
    fn nics_of_different_hosts_run_in_parallel() {
        let cfg = NetConfig {
            nic: Some(NicModel {
                per_msg: Duration::from_millis(50),
                per_byte: Duration::ZERO,
            }),
            ..NetConfig::default()
        };
        let (net, rxs) = SimNet::<TestMsg>::new(3, cfg);
        let t0 = Instant::now();
        net.send(HostId(0), HostId(2), TestMsg(1));
        net.send(HostId(1), HostId(2), TestMsg(2));
        recv_msg(&rxs[2], Duration::from_secs(2)).unwrap();
        recv_msg(&rxs[2], Duration::from_secs(2)).unwrap();
        let elapsed = t0.elapsed();
        // Two different senders' NICs overlap: both messages are in by
        // ~one service time, nowhere near the serialized 100ms.
        assert!(elapsed >= Duration::from_millis(50));
        assert!(
            elapsed < Duration::from_millis(95),
            "parallel NICs took {elapsed:?}"
        );
        net.shutdown();
    }

    #[test]
    fn double_crash_is_idempotent() {
        let (net, rxs) = SimNet::<TestMsg>::new(2, NetConfig::instant());
        net.crash(HostId(1));
        net.crash(HostId(1));
        let _ = rxs[0].recv_timeout(Duration::from_secs(1)).unwrap();
        // Only one notice.
        assert!(rxs[0].recv_timeout(Duration::from_millis(50)).is_err());
        net.shutdown();
    }
}
