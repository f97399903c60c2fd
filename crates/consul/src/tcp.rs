//! Real TCP transport for the sequencer protocol.
//!
//! One [`TcpMesh`] per process carries all K shard lanes over a single
//! listener and one persistent connection per peer direction:
//!
//! - every process listens on its own address and *dials* every peer, so
//!   a pair of processes exchanges traffic over two simplex connections
//!   (my writer → your reader, your writer → my reader) — no tie-break
//!   needed and a dead connection only silences one direction;
//! - frames are length-prefixed: `[u32 BE body-len][uvarint lane][SeqMsg
//!   wire bytes]`, preceded once per connection by an 8-byte handshake
//!   (`b"FTL1"` + u32 BE sender host id);
//! - writers reconnect with exponential backoff; while a link is down,
//!   sends to that peer are *dropped*, exactly matching `SimNet`'s
//!   fail-silent crash semantics — the sequencer's NACK/rejoin machinery
//!   is what recovers, not the transport;
//! - everything read from a socket is untrusted: body length is capped
//!   before allocation, decode errors (`crate::wire`) count
//!   `ftlinda_frames_rejected_total` and drop the connection.
//!
//! Failure detection is the sequencer's heartbeat mode ([`Heartbeat`]):
//! the mesh never synthesizes `CrashNotice`/`JoinNotice` events, it only
//! delivers `NetEvent::Msg` (plus the local `NetEvent::Wake` a lane's own
//! member pushes to itself).

use crate::net::{Heartbeat, HostId, NetEvent};
use crate::sequencer::SeqMsg;
use crate::stats::NetStats;
use crate::wire::{decode_seq_msg, encode_seq_msg, MAX_FRAME_BYTES};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use linda_obs::{Counter, Event, EventSink, Gauge, Histogram, Registry};
use linda_tuple::{get_uvarint, put_uvarint};
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `TcpListener::bind` with `SO_REUSEADDR`, which std never sets: a
/// relaunched member must rebind its well-known port while the previous
/// incarnation's accepted sockets are still draining through
/// `TIME_WAIT` (a SIGKILLed process leaves them to the kernel, and they
/// hold the port for a minute otherwise). The workspace builds offline
/// with no `libc`/`socket2` crate, so this goes through minimal FFI
/// against the libc std already links; non-Unix platforms and IPv6
/// addresses fall back to the plain bind.
pub fn bind_reuse(addr: SocketAddr) -> io::Result<TcpListener> {
    #[cfg(unix)]
    if let SocketAddr::V4(v4) = addr {
        return bind_reuse_v4(v4);
    }
    TcpListener::bind(addr)
}

#[cfg(unix)]
fn bind_reuse_v4(addr: std::net::SocketAddrV4) -> io::Result<TcpListener> {
    use std::os::unix::io::FromRawFd;
    const AF_INET: i32 = 2;
    const SOCK_STREAM: i32 = 1;
    const SOCK_CLOEXEC: i32 = 0o2000000;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEADDR: i32 = 2;
    /// `struct sockaddr_in`: port and address in network byte order.
    #[repr(C)]
    struct SockaddrIn {
        family: u16,
        port: u16,
        addr: u32,
        zero: [u8; 8],
    }
    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, name: i32, val: *const u32, len: u32) -> i32;
        fn bind(fd: i32, addr: *const SockaddrIn, len: u32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
        fn close(fd: i32) -> i32;
    }
    unsafe {
        let fd = socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
        if fd < 0 {
            return Err(io::Error::last_os_error());
        }
        let fail = |fd: i32| -> io::Error {
            let e = io::Error::last_os_error();
            close(fd);
            e
        };
        let one: u32 = 1;
        if setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, 4) != 0 {
            return Err(fail(fd));
        }
        let sa = SockaddrIn {
            family: AF_INET as u16,
            port: addr.port().to_be(),
            // `octets()` is already network order; a native-endian load
            // of those bytes reproduces it in memory on any endianness.
            addr: u32::from_ne_bytes(addr.ip().octets()),
            zero: [0; 8],
        };
        if bind(fd, &sa, std::mem::size_of::<SockaddrIn>() as u32) != 0 {
            return Err(fail(fd));
        }
        if listen(fd, 128) != 0 {
            return Err(fail(fd));
        }
        Ok(TcpListener::from_raw_fd(fd))
    }
}

const MAGIC: &[u8; 4] = b"FTL1";
/// Outbound frames queued per peer before sends are dropped.
const SEND_QUEUE: usize = 8192;
/// Socket read timeout: how often blocked readers check the stop flag.
const READ_TICK: Duration = Duration::from_millis(250);

/// Configuration for one process's [`TcpMesh`].
#[derive(Debug, Clone)]
pub struct TcpConfig {
    /// This process's member id.
    pub me: HostId,
    /// Every member's sequencer address, including our own (index by
    /// id). We listen on `peers[me]` and dial all the others.
    pub peers: Vec<(HostId, SocketAddr)>,
    /// Number of shard lanes multiplexed over the mesh.
    pub lanes: u32,
    /// Heartbeat parameters the sequencer layer should run with; TCP
    /// always uses heartbeat failure detection (there is no oracle).
    pub heartbeat: Heartbeat,
    /// Largest accepted frame body; bigger prefixes drop the connection
    /// before any allocation.
    pub max_frame: usize,
    /// Initial reconnect backoff.
    pub reconnect_min: Duration,
    /// Backoff cap.
    pub reconnect_max: Duration,
}

impl TcpConfig {
    /// Config for member `me` of a localhost cluster at `addrs`.
    pub fn new(me: HostId, addrs: &[SocketAddr], lanes: u32) -> Self {
        TcpConfig {
            me,
            peers: addrs
                .iter()
                .enumerate()
                .map(|(i, a)| (HostId(i as u32), *a))
                .collect(),
            lanes,
            heartbeat: Heartbeat {
                period: Duration::from_millis(100),
                timeout: Duration::from_millis(1500),
            },
            max_frame: MAX_FRAME_BYTES,
            reconnect_min: Duration::from_millis(25),
            reconnect_max: Duration::from_secs(1),
        }
    }
}

struct PeerLink {
    tx: Sender<Arc<Vec<u8>>>,
    connected: AtomicBool,
    sent_bytes: Arc<Counter>,
    recv_bytes: Arc<Counter>,
    reconnects: Arc<Counter>,
    dropped: Arc<Counter>,
    queue_depth: Arc<Gauge>,
}

struct MeshInner {
    cfg: TcpConfig,
    stats: NetStats,
    lanes_tx: Vec<Sender<NetEvent<SeqMsg>>>,
    links: HashMap<HostId, PeerLink>,
    frames_rejected: Arc<Counter>,
    encode_hist: Arc<Histogram>,
    decode_hist: Arc<Histogram>,
    events: Arc<EventSink>,
    stop: AtomicBool,
}

impl MeshInner {
    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Relaxed)
    }

    /// Hand a decoded message to its shard lane.
    fn deliver(&self, lane: u32, from: HostId, msg: SeqMsg) {
        if let Some(tx) = self.lanes_tx.get(lane as usize) {
            let _ = tx.send(NetEvent::Msg { from, msg });
        }
    }

    /// Queue an encoded frame for `to`, dropping it (fail-silent) when
    /// the link is down or the queue is full.
    fn send_frame(&self, to: HostId, frame: Arc<Vec<u8>>) {
        let Some(link) = self.links.get(&to) else {
            return;
        };
        if !link.connected.load(Ordering::Relaxed) || link.tx.try_send(frame.clone()).is_err() {
            link.dropped.inc();
            link.queue_depth.set(link.tx.len() as i64);
            return;
        }
        link.queue_depth.set(link.tx.len() as i64);
        self.stats.record_msg(frame.len());
    }

    /// Encode `msg` as a wire frame, timing the serialization.
    fn encode_timed(&self, lane: u32, msg: &SeqMsg) -> Vec<u8> {
        let t0 = Instant::now();
        let frame = encode_frame(lane, msg);
        self.encode_hist.observe(t0.elapsed());
        frame
    }
}

/// Encode `msg` as a complete wire frame for `lane` (length prefix
/// included), ready for `write_all`.
fn encode_frame(lane: u32, msg: &SeqMsg) -> Vec<u8> {
    let mut body = Vec::with_capacity(16);
    put_uvarint(&mut body, u64::from(lane));
    body.extend_from_slice(&encode_seq_msg(msg));
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_be_bytes());
    frame.extend_from_slice(&body);
    frame
}

/// The per-process TCP endpoint: listener, per-peer writers, per-lane
/// inboxes. Clone [`TcpLane`]s out of it with [`TcpMesh::lane`].
#[derive(Clone)]
pub struct TcpMesh {
    inner: Arc<MeshInner>,
}

/// One shard lane's view of the mesh: what a `SeqMember` sends through.
#[derive(Clone)]
pub struct TcpLane {
    inner: Arc<MeshInner>,
    lane: u32,
}

impl TcpMesh {
    /// Bind the listener and spawn the accept loop plus one writer per
    /// peer. Returns the mesh and one inbox receiver per lane, in lane
    /// order.
    pub fn start(
        cfg: TcpConfig,
        obs: &Registry,
    ) -> io::Result<(TcpMesh, Vec<Receiver<NetEvent<SeqMsg>>>)> {
        let listen = cfg
            .peers
            .iter()
            .find(|(h, _)| *h == cfg.me)
            .map(|(_, a)| *a)
            .ok_or_else(|| {
                io::Error::new(io::ErrorKind::InvalidInput, "own id missing from peer list")
            })?;
        let listener = bind_reuse(listen)?;
        listener.set_nonblocking(true)?;

        let sent = obs.counter_family("ftlinda_net_sent_bytes_total", "Bytes written per TCP link");
        let recv = obs.counter_family("ftlinda_net_recv_bytes_total", "Bytes read per TCP link");
        let reconn = obs.counter_family(
            "ftlinda_net_reconnects_total",
            "Re-established outbound connections per TCP link",
        );
        let dropped = obs.counter_family(
            "ftlinda_net_dropped_sends_total",
            "Sends dropped because the link was down or its queue full",
        );
        let frames_rejected = obs.counter(
            "ftlinda_frames_rejected_total",
            "Malformed or oversized wire frames (connection dropped)",
        );
        let queue_depth = obs.gauge_family(
            "ftlinda_net_queue_depth",
            "Outbound frames queued per TCP link at the last send",
        );
        let encode_hist = obs.histogram(
            "ftlinda_frame_encode_seconds",
            "Wire frame serialization latency",
        );
        let decode_hist = obs.histogram(
            "ftlinda_frame_decode_seconds",
            "Wire frame deserialization latency",
        );
        let events = obs.events_handle();

        let mut lanes_tx = Vec::new();
        let mut lanes_rx = Vec::new();
        for _ in 0..cfg.lanes.max(1) {
            let (tx, rx) = unbounded();
            lanes_tx.push(tx);
            lanes_rx.push(rx);
        }

        let mut links = HashMap::new();
        let mut writers = Vec::new();
        for (peer, addr) in cfg.peers.iter().filter(|(h, _)| *h != cfg.me) {
            let label = peer.0.to_string();
            let labels: &[(&str, &str)] = &[("peer", &label)];
            let (tx, rx) = bounded(SEND_QUEUE);
            links.insert(
                *peer,
                PeerLink {
                    tx,
                    connected: AtomicBool::new(false),
                    sent_bytes: sent.with(labels),
                    recv_bytes: recv.with(labels),
                    reconnects: reconn.with(labels),
                    dropped: dropped.with(labels),
                    queue_depth: queue_depth.with(labels),
                },
            );
            writers.push((*peer, *addr, rx));
        }

        let inner = Arc::new(MeshInner {
            cfg,
            stats: NetStats::default(),
            lanes_tx,
            links,
            frames_rejected,
            encode_hist,
            decode_hist,
            events,
            stop: AtomicBool::new(false),
        });

        for (peer, addr, rx) in writers {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name(format!("tcp-writer-{}", peer.0))
                .spawn(move || writer_loop(&inner, peer, addr, &rx))?;
        }
        {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("tcp-accept".into())
                .spawn(move || accept_loop(&inner, &listener))?;
        }
        Ok((
            TcpMesh {
                inner: inner.clone(),
            },
            lanes_rx,
        ))
    }

    /// The sending handle for shard `lane`.
    pub fn lane(&self, lane: u32) -> TcpLane {
        TcpLane {
            inner: self.inner.clone(),
            lane,
        }
    }

    /// Stop all mesh threads and drop every link.
    pub fn shutdown(&self) {
        self.inner.stop.store(true, Ordering::Relaxed);
    }

    /// This process plus every peer with a currently-established
    /// outbound link, sorted by id. The protocol's own live set (from
    /// heartbeats and ordered Fail/Join records) is authoritative; this
    /// is the transport-level view for health endpoints.
    pub fn live_hosts(&self) -> Vec<HostId> {
        let mut out = vec![self.inner.cfg.me];
        for (h, link) in &self.inner.links {
            if link.connected.load(Ordering::Relaxed) {
                out.push(*h);
            }
        }
        out.sort();
        out
    }

    /// Message/byte counters for enqueued sends.
    pub fn stats(&self) -> &NetStats {
        &self.inner.stats
    }

    /// Heartbeat parameters the sequencer layer must run with.
    pub fn heartbeat(&self) -> Heartbeat {
        self.inner.cfg.heartbeat
    }

    /// This process's member id.
    pub fn me(&self) -> HostId {
        self.inner.cfg.me
    }

    /// Every member id in the mesh, sorted.
    pub fn universe(&self) -> Vec<HostId> {
        let mut u: Vec<HostId> = self.inner.cfg.peers.iter().map(|(h, _)| *h).collect();
        u.sort();
        u
    }
}

impl TcpLane {
    /// Send `msg` to `to` over this lane (loopback for `to == me`).
    pub fn send(&self, to: HostId, msg: SeqMsg) {
        if to == self.inner.cfg.me {
            self.inner.deliver(self.lane, to, msg);
            return;
        }
        let frame = Arc::new(self.inner.encode_timed(self.lane, &msg));
        self.inner.send_frame(to, frame);
    }

    /// Send `msg` to every host in `to`, encoding it once.
    pub fn multicast(&self, to: &[HostId], msg: SeqMsg) {
        let me = self.inner.cfg.me;
        let frame = Arc::new(self.inner.encode_timed(self.lane, &msg));
        for h in to {
            if *h == me {
                self.inner.deliver(self.lane, me, msg.clone());
            } else {
                self.inner.send_frame(*h, frame.clone());
            }
        }
    }

    /// Push a [`NetEvent::Wake`] into this lane's own inbox (never
    /// framed, never counted).
    pub(crate) fn wake(&self) {
        if let Some(tx) = self.inner.lanes_tx.get(self.lane as usize) {
            let _ = tx.send(NetEvent::Wake);
        }
    }

    /// Heartbeat parameters for this lane's sequencer.
    pub fn heartbeat(&self) -> Heartbeat {
        self.inner.cfg.heartbeat
    }

    /// Transport-level live view (see [`TcpMesh::live_hosts`]).
    pub fn live_hosts(&self) -> Vec<HostId> {
        TcpMesh {
            inner: self.inner.clone(),
        }
        .live_hosts()
    }

    /// Shared mesh send counters.
    pub fn stats(&self) -> &NetStats {
        &self.inner.stats
    }
}

/// Dial-and-pump loop for one outbound link. Owns the reconnect state
/// machine: Disconnected → (backoff) → Connected → on any write error
/// back to Disconnected with the backoff reset to `reconnect_min`.
fn writer_loop(
    inner: &Arc<MeshInner>,
    peer: HostId,
    addr: SocketAddr,
    rx: &Receiver<Arc<Vec<u8>>>,
) {
    let link = &inner.links[&peer];
    let mut backoff = inner.cfg.reconnect_min;
    let mut ever_connected = false;
    // Dials since the link was last up; reported in the `link_up` event
    // so a reconnect storm's length is visible after the fact.
    let mut dial_attempts: u64 = 0;
    while !inner.stopped() {
        dial_attempts += 1;
        let mut stream = match TcpStream::connect(addr) {
            Ok(s) => s,
            Err(_) => {
                std::thread::sleep(backoff.min(inner.cfg.reconnect_max));
                backoff = (backoff * 2).min(inner.cfg.reconnect_max);
                continue;
            }
        };
        let _ = stream.set_nodelay(true);
        let mut hello = Vec::with_capacity(8);
        hello.extend_from_slice(MAGIC);
        hello.extend_from_slice(&inner.cfg.me.0.to_be_bytes());
        if stream.write_all(&hello).is_err() {
            std::thread::sleep(backoff.min(inner.cfg.reconnect_max));
            backoff = (backoff * 2).min(inner.cfg.reconnect_max);
            continue;
        }
        if ever_connected {
            link.reconnects.inc();
        }
        ever_connected = true;
        backoff = inner.cfg.reconnect_min;
        inner.events.emit(Event::new(
            "link_up",
            vec![
                ("peer".into(), peer.0.to_string()),
                ("dial_attempts".into(), dial_attempts.to_string()),
            ],
        ));
        dial_attempts = 0;
        link.connected.store(true, Ordering::Relaxed);
        // Drain stale frames queued while we were down: they were
        // logically dropped already.
        while rx.try_recv().is_ok() {}
        loop {
            if inner.stopped() {
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
            match rx.recv_timeout(Duration::from_millis(100)) {
                Ok(frame) => {
                    if stream.write_all(&frame).is_err() {
                        break;
                    }
                    link.sent_bytes.add(frame.len() as u64);
                }
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => continue,
                Err(crossbeam::channel::RecvTimeoutError::Disconnected) => {
                    let _ = stream.shutdown(Shutdown::Both);
                    return;
                }
            }
        }
        link.connected.store(false, Ordering::Relaxed);
        inner.events.emit(Event::new(
            "link_down",
            vec![("peer".into(), peer.0.to_string())],
        ));
    }
}

fn accept_loop(inner: &Arc<MeshInner>, listener: &TcpListener) {
    while !inner.stopped() {
        match listener.accept() {
            Ok((stream, _)) => {
                let inner = inner.clone();
                let r = std::thread::Builder::new()
                    .name("tcp-reader".into())
                    .spawn(move || reader_loop(&inner, stream));
                // A spawn failure here means resource exhaustion; drop
                // the connection and keep serving (degrade, don't abort).
                drop(r);
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(100)),
        }
    }
}

fn read_exact_ticked(inner: &MeshInner, stream: &mut TcpStream, buf: &mut [u8]) -> io::Result<()> {
    let mut filled = 0;
    while filled < buf.len() {
        if inner.stopped() {
            return Err(io::Error::new(io::ErrorKind::Interrupted, "mesh stopped"));
        }
        match stream.read(&mut buf[filled..]) {
            Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
            Ok(n) => filled += n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Inbound pump for one accepted connection: validate the handshake,
/// then frame-decode until error or EOF. All input is untrusted.
fn reader_loop(inner: &Arc<MeshInner>, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(READ_TICK));
    let mut hello = [0u8; 8];
    if read_exact_ticked(inner, &mut stream, &mut hello).is_err() {
        return;
    }
    if &hello[..4] != MAGIC {
        inner.frames_rejected.inc();
        return;
    }
    let from = HostId(u32::from_be_bytes([hello[4], hello[5], hello[6], hello[7]]));
    let Some(link) = inner.links.get(&from) else {
        // Unknown sender id: not part of this cluster's universe.
        inner.frames_rejected.inc();
        return;
    };
    let mut len_buf = [0u8; 4];
    loop {
        if read_exact_ticked(inner, &mut stream, &mut len_buf).is_err() {
            return;
        }
        let len = u32::from_be_bytes(len_buf) as usize;
        // Cap BEFORE allocating: a hostile length prefix must not drive
        // a multi-gigabyte reservation.
        if len == 0 || len > inner.cfg.max_frame {
            inner.frames_rejected.inc();
            let _ = stream.shutdown(Shutdown::Both);
            return;
        }
        let mut body = vec![0u8; len];
        if read_exact_ticked(inner, &mut stream, &mut body).is_err() {
            return;
        }
        link.recv_bytes.add(4 + len as u64);
        let mut slice = body.as_slice();
        let lane = match get_uvarint(&mut slice) {
            Ok(l) if l < u64::from(inner.cfg.lanes.max(1)) => l as u32,
            _ => {
                inner.frames_rejected.inc();
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
        };
        let t0 = Instant::now();
        let decoded = decode_seq_msg(slice);
        inner.decode_hist.observe(t0.elapsed());
        match decoded {
            Ok(msg) => inner.deliver(lane, from, msg),
            Err(_) => {
                inner.frames_rejected.inc();
                let _ = stream.shutdown(Shutdown::Both);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn free_addrs(n: usize) -> Vec<SocketAddr> {
        (0..n)
            .map(|_| {
                let l = TcpListener::bind("127.0.0.1:0").unwrap();
                l.local_addr().unwrap()
            })
            .collect()
    }

    type MeshPair = (
        TcpMesh,
        Vec<Receiver<NetEvent<SeqMsg>>>,
        TcpMesh,
        Vec<Receiver<NetEvent<SeqMsg>>>,
    );

    fn start_pair() -> MeshPair {
        let addrs = free_addrs(2);
        let obs0 = Registry::default();
        let obs1 = Registry::default();
        let (m0, rx0) = TcpMesh::start(TcpConfig::new(HostId(0), &addrs, 2), &obs0).unwrap();
        let (m1, rx1) = TcpMesh::start(TcpConfig::new(HostId(1), &addrs, 2), &obs1).unwrap();
        (m0, rx0, m1, rx1)
    }

    #[test]
    fn frames_cross_processes_er_sockets() {
        let (m0, _rx0, m1, rx1) = start_pair();
        let lane = m0.lane(1);
        let msg = SeqMsg::Submit {
            local: 3,
            payload: Bytes::from_static(b"over tcp"),
        };
        // Dial-up takes a few backoff rounds; retry until delivered.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            lane.send(HostId(1), msg.clone());
            match rx1[1].recv_timeout(Duration::from_millis(100)) {
                Ok(NetEvent::Msg { from, msg: got }) => {
                    assert_eq!(from, HostId(0));
                    assert_eq!(got, msg);
                    break;
                }
                _ => assert!(std::time::Instant::now() < deadline, "frame never arrived"),
            }
        }
        m0.shutdown();
        m1.shutdown();
    }

    #[test]
    fn loopback_skips_the_socket() {
        let addrs = free_addrs(1);
        let obs = Registry::default();
        let (m, rx) = TcpMesh::start(TcpConfig::new(HostId(0), &addrs, 1), &obs).unwrap();
        let ping = SeqMsg::Ping {
            sent_us: 1,
            echo_us: 0,
            held_us: 0,
        };
        m.lane(0).send(HostId(0), ping.clone());
        match rx[0].recv_timeout(Duration::from_secs(1)).unwrap() {
            NetEvent::Msg { from, msg } => {
                assert_eq!(from, HostId(0));
                assert_eq!(msg, ping);
            }
            other => panic!("unexpected event {other:?}"),
        }
        m.shutdown();
    }

    #[test]
    fn oversized_prefix_rejected_and_counted() {
        let addrs = free_addrs(1);
        let obs = Registry::default();
        let (m, rx) = TcpMesh::start(TcpConfig::new(HostId(0), &addrs, 1), &obs).unwrap();
        // Raw socket speaking a hostile length prefix after a valid hello.
        let mut s = TcpStream::connect(addrs[0]).unwrap();
        let mut hello = Vec::new();
        hello.extend_from_slice(MAGIC);
        hello.extend_from_slice(&0u32.to_be_bytes()); // claims to be host 0... unknown link
                                                      // Host 0 is "me" on the mesh, so it has no link entry: rejected.
        s.write_all(&hello).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while obs.snapshot().counter("ftlinda_frames_rejected_total") != Some(1) {
            assert!(
                std::time::Instant::now() < deadline,
                "rejection not counted"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        assert!(rx[0].try_recv().is_err());
        m.shutdown();
    }

    #[test]
    fn malformed_frame_drops_connection_without_panic() {
        let addrs = free_addrs(2);
        let obs = Registry::default();
        let (m, rx) = TcpMesh::start(TcpConfig::new(HostId(0), &addrs, 1), &obs).unwrap();
        let mut s = TcpStream::connect(addrs[0]).unwrap();
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&1u32.to_be_bytes()); // valid peer id 1
                                                    // A frame whose body is garbage.
        buf.extend_from_slice(&3u32.to_be_bytes());
        buf.extend_from_slice(&[0x00, 0xee, 0xee]); // lane 0, bad tag
        s.write_all(&buf).unwrap();
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while obs.snapshot().counter("ftlinda_frames_rejected_total") != Some(1) {
            assert!(
                std::time::Instant::now() < deadline,
                "rejection not counted"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        // Connection was dropped: the peer observes EOF on read.
        let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
        let mut probe = [0u8; 1];
        assert_eq!(s.read(&mut probe).unwrap_or(0), 0, "server must close");
        assert!(rx[0].try_recv().is_err());
        m.shutdown();
    }
}
