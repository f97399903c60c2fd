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
//!   is what recovers, not the transport. A writer that reconnects first
//!   drains the frames queued before the link went down, and only then
//!   marks the link connected, so the drain cannot swallow a new frame;
//! - everything read from a socket is untrusted: body length is capped
//!   before allocation, decode errors (`crate::wire`) count
//!   `ftlinda_frames_rejected_total` and drop the connection;
//! - idle threads sleep: writers block on their frame queue (also while
//!   backing off), readers in `read_exact`, the acceptor in `accept`.
//!   [`TcpMesh::shutdown`] wakes each one, closes every socket the mesh
//!   owns and joins every mesh thread.
//!
//! Failure detection is the sequencer's heartbeat mode ([`Heartbeat`]):
//! the mesh never synthesizes `CrashNotice` events, it only delivers
//! `NetEvent::Msg` (plus the local `NetEvent::Wake` a lane's own member
//! pushes to itself).

use crate::net::{Heartbeat, HostId, NetEvent};
use crate::sequencer::SeqMsg;
use crate::stats::NetStats;
use crate::wire::{decode_seq_msg, encode_seq_msg, MAX_FRAME_BYTES};
use crossbeam::channel::{bounded, unbounded, Receiver, Sender};
use linda_obs::{Counter, Event, EventSink, Gauge, Histogram, Registry};
use linda_tuple::{get_uvarint, put_uvarint};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
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
/// First reconnect backoff; it doubles per failed dial up to
/// [`RECONNECT_MAX`].
const RECONNECT_MIN: Duration = Duration::from_millis(25);
/// Backoff cap, and the dial timeout: a dead peer holds a writer (and so
/// [`TcpMesh::shutdown`]) no longer than this.
const RECONNECT_MAX: Duration = Duration::from_secs(1);

/// What a writer's queue carries: a frame, or `None`, the wake-up
/// [`TcpMesh::shutdown`] sends after setting the stop flag.
type Outbound = Option<Arc<Vec<u8>>>;

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
        }
    }
}

struct PeerLink {
    tx: Sender<Outbound>,
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
    /// The bound listener address, which [`TcpMesh::shutdown`] connects
    /// to once to wake the accept thread.
    listen: SocketAddr,
    /// The `tcp-accept` thread, joined by [`TcpMesh::shutdown`].
    accept: Mutex<Option<JoinHandle<()>>>,
    /// What [`TcpMesh::shutdown`] closes and joins besides the acceptor.
    owned: Mutex<Owned>,
}

/// A handle on every open socket of the mesh (accepted streams and each
/// writer's current stream), by id, and the writer and reader threads.
#[derive(Default)]
struct Owned {
    sockets: HashMap<u64, TcpStream>,
    next: u64,
    threads: Vec<JoinHandle<()>>,
}

impl MeshInner {
    fn stopped(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Register `stream` for shutdown to close, returning its id for
    /// [`Self::disown`]. Once the mesh is stopping it closes `stream`
    /// instead and returns `None`.
    fn own(&self, stream: &TcpStream) -> Option<u64> {
        let mut owned = self.owned.lock();
        let handle = match stream.try_clone() {
            Ok(handle) if !self.stopped() => handle,
            _ => {
                let _ = stream.shutdown(Shutdown::Both);
                return None;
            }
        };
        owned.next += 1;
        let id = owned.next;
        owned.sockets.insert(id, handle);
        Some(id)
    }

    /// Drop the mesh's handle on a socket its user has finished with.
    fn disown(&self, id: u64) {
        self.owned.lock().sockets.remove(&id);
    }

    /// Keep `thread` for shutdown to join, forgetting readers that have
    /// already exited.
    fn adopt(&self, thread: JoinHandle<()>) {
        let mut owned = self.owned.lock();
        owned.threads.retain(|t| !t.is_finished());
        owned.threads.push(thread);
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
        let queued =
            link.connected.load(Ordering::Relaxed) && link.tx.try_send(Some(frame.clone())).is_ok();
        if !queued {
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
        let listen = listener.local_addr()?;

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
            listen,
            accept: Mutex::new(None),
            owned: Mutex::default(),
        });

        for (peer, addr, rx) in writers {
            let writer = {
                let inner = inner.clone();
                std::thread::Builder::new()
                    .name(format!("tcp-writer-{}", peer.0))
                    .spawn(move || writer_loop(&inner, peer, addr, &rx))?
            };
            inner.adopt(writer);
        }
        let accept = {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name("tcp-accept".into())
                .spawn(move || accept_loop(&inner, &listener))?
        };
        *inner.accept.lock() = Some(accept);
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

    /// Stop every mesh thread and close every link. Returns once the
    /// accept thread has exited and closed the listener, so the address
    /// can be bound again at once, and the writers and readers have
    /// exited too. A writer dialing a dead peer holds this up for at
    /// most the reconnect backoff cap (1 s).
    pub fn shutdown(&self) {
        let inner = &self.inner;
        inner.stop.store(true, Ordering::SeqCst);
        if let Some(h) = inner.accept.lock().take() {
            // The thread blocks in `accept`; one loopback connect wakes it
            // to see the flag. Should even that connect fail, leave the
            // thread parked rather than hang in `join`. Once it has
            // exited, no reader is spawned any more.
            let mut wake = inner.listen;
            if wake.ip().is_unspecified() {
                wake.set_ip(Ipv4Addr::LOCALHOST.into());
            }
            if TcpStream::connect_timeout(&wake, Duration::from_secs(1)).is_ok() {
                let _ = h.join();
            }
        }
        // Closing a socket ends a reader's `read_exact` and a writer's
        // `write_all`; `own` refuses sockets from here on. An idle
        // writer waits on its queue, so it gets a wake-up there.
        let threads = {
            let mut owned = inner.owned.lock();
            for (_, socket) in owned.sockets.drain() {
                let _ = socket.shutdown(Shutdown::Both);
            }
            std::mem::take(&mut owned.threads)
        };
        for link in inner.links.values() {
            let _ = link.tx.try_send(None);
        }
        for t in threads {
            let _ = t.join();
        }
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
/// back to Disconnected with the backoff reset to [`RECONNECT_MIN`].
fn writer_loop(inner: &MeshInner, peer: HostId, addr: SocketAddr, rx: &Receiver<Outbound>) {
    let link = &inner.links[&peer];
    let mut backoff = RECONNECT_MIN;
    let mut ever_connected = false;
    // Dials since the link was last up; reported in the `link_up` event
    // so a reconnect storm's length is visible after the fact.
    let mut dial_attempts: u64 = 0;
    while !inner.stopped() {
        dial_attempts += 1;
        let Some((mut stream, id)) = dial(inner, addr) else {
            wait_backoff(inner, rx, backoff);
            backoff = (backoff * 2).min(RECONNECT_MAX);
            continue;
        };
        if ever_connected {
            link.reconnects.inc();
        }
        ever_connected = true;
        backoff = RECONNECT_MIN;
        inner.events.emit(Event::new(
            "link_up",
            vec![
                ("peer".into(), peer.0.to_string()),
                ("dial_attempts".into(), dial_attempts.to_string()),
            ],
        ));
        dial_attempts = 0;
        // Drain stale frames queued while we were down: they were
        // logically dropped already. Only then accept new ones, or the
        // drain could swallow a frame queued the moment the link is up.
        while rx.try_recv().is_ok() {}
        link.connected.store(true, Ordering::Relaxed);
        // The stop check also covers a wake-up the drain swallowed.
        while !inner.stopped() {
            let Ok(Some(frame)) = rx.recv() else { break };
            if stream.write_all(&frame).is_err() {
                break;
            }
            link.sent_bytes.add(frame.len() as u64);
        }
        inner.disown(id);
        link.connected.store(false, Ordering::Relaxed);
        if !inner.stopped() {
            inner.events.emit(Event::new(
                "link_down",
                vec![("peer".into(), peer.0.to_string())],
            ));
        }
    }
}

/// Connect to `addr` (within [`RECONNECT_MAX`]) and send the handshake.
/// The stream comes back registered with the mesh, with its id.
fn dial(inner: &MeshInner, addr: SocketAddr) -> Option<(TcpStream, u64)> {
    let mut stream = TcpStream::connect_timeout(&addr, RECONNECT_MAX).ok()?;
    let _ = stream.set_nodelay(true);
    let mut hello = Vec::with_capacity(8);
    hello.extend_from_slice(MAGIC);
    hello.extend_from_slice(&inner.cfg.me.0.to_be_bytes());
    stream.write_all(&hello).ok()?;
    let id = inner.own(&stream)?;
    Some((stream, id))
}

/// Sit out a reconnect backoff on the frame queue, so shutdown's wake-up
/// ends it early. Frames arriving meanwhile were queued before the link
/// went down and are dropped, like those drained on reconnect.
fn wait_backoff(inner: &MeshInner, rx: &Receiver<Outbound>, backoff: Duration) {
    let deadline = Instant::now() + backoff;
    while !inner.stopped() {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || rx.recv_timeout(left).is_err() {
            return;
        }
    }
}

/// Blocks in `accept`, so an idle mesh's listener costs no wake-ups;
/// [`TcpMesh::shutdown`] sets the stop flag before the connect that
/// wakes it.
fn accept_loop(inner: &Arc<MeshInner>, listener: &TcpListener) {
    for stream in listener.incoming() {
        if inner.stopped() {
            return;
        }
        match stream {
            Ok(stream) => {
                let Some(id) = inner.own(&stream) else {
                    continue;
                };
                let reader = {
                    let inner = inner.clone();
                    std::thread::Builder::new()
                        .name("tcp-reader".into())
                        .spawn(move || {
                            read_frames(&inner, stream);
                            inner.disown(id);
                        })
                };
                match reader {
                    Ok(reader) => inner.adopt(reader),
                    // A spawn failure here means resource exhaustion; drop
                    // the connection and keep serving (degrade, don't
                    // abort).
                    Err(_) => inner.disown(id),
                }
            }
            // A failing accept (e.g. out of descriptors) fails again at
            // once: back off instead of spinning.
            Err(_) => std::thread::sleep(Duration::from_millis(100)),
        }
    }
}

/// Inbound pump for one accepted connection: validate the handshake,
/// then frame-decode until error or EOF (or until shutdown closes the
/// socket). All input is untrusted.
fn read_frames(inner: &MeshInner, mut stream: TcpStream) {
    let mut hello = [0u8; 8];
    if stream.read_exact(&mut hello).is_err() {
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
        if stream.read_exact(&mut len_buf).is_err() {
            return;
        }
        let len = u32::from_be_bytes(len_buf) as usize;
        // Cap BEFORE allocating: a hostile length prefix must not drive
        // a multi-gigabyte reservation.
        if len == 0 || len > MAX_FRAME_BYTES {
            inner.frames_rejected.inc();
            return;
        }
        let mut body = vec![0u8; len];
        if stream.read_exact(&mut body).is_err() {
            return;
        }
        link.recv_bytes.add(4 + len as u64);
        let mut slice = body.as_slice();
        let lane = match get_uvarint(&mut slice) {
            Ok(l) if l < u64::from(inner.cfg.lanes.max(1)) => l as u32,
            _ => {
                inner.frames_rejected.inc();
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
            seq: 0,
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
