//! The tuple-server RPC variant (paper §5.4, Figures 16/17).
//!
//! The paper's base architecture runs the FT-Linda library, Consul, and a
//! TS state machine on *every* participating host. The alternative it
//! sketches for hosts that should not carry replicas (e.g. personal
//! workstations donating idle cycles to a Piranha-style computation) is a
//! **tuple server**: the library forwards each AGS over RPC to a request
//! handler on a server host, which submits it to Consul as before and
//! returns the result. The cost is one extra round trip per AGS.
//!
//! [`TupleServer`] wraps a full [`Runtime`] and serves RPC clients;
//! [`RpcClient`] implements the same blocking call surface with the extra
//! hop (with a configurable simulated RPC latency so experiment E8 can
//! sweep it).
//!
//! This module also hosts the cluster's **HTTP exporter**
//! ([`HttpExporter`]): a std-only listener run per member that frames the
//! observability surface (`/metrics`, `/healthz`, `/events`,
//! `/trace/<id>`, …) for scrapers and humans with `curl`; the cluster
//! supplies the one router that maps each path to its body.

use crate::error::FtError;
use crate::runtime::Runtime;
use ftlinda_ags::{Ags, AgsOutcome, TsId};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

enum RpcRequest {
    CreateTs {
        name: String,
        reply: crossbeam::channel::Sender<Result<TsId, FtError>>,
    },
    Execute {
        ags: Box<Ags>,
        reply: crossbeam::channel::Sender<Result<AgsOutcome, FtError>>,
    },
}

/// A request handler running on a replica-hosting machine, serving
/// library calls forwarded from non-replica hosts.
pub struct TupleServer {
    tx: crossbeam::channel::Sender<RpcRequest>,
    alive: Arc<AtomicBool>,
    rt: Runtime,
}

impl TupleServer {
    /// Start a server backed by `rt` with `handlers` worker threads (the
    /// paper's request handler processes).
    ///
    /// Thread-spawn failure (fd/thread exhaustion) is an `Err`, not a
    /// panic: a server that cannot field requests should report that to
    /// its operator rather than take the whole replica process down. If
    /// at least one handler came up before the failure, the error still
    /// tears the partial server down (its `Drop` stops the survivors).
    pub fn start(rt: Runtime, handlers: usize) -> std::io::Result<TupleServer> {
        let (tx, rx) = crossbeam::channel::unbounded::<RpcRequest>();
        let alive = Arc::new(AtomicBool::new(true));
        let server = TupleServer { tx, alive, rt };
        for i in 0..handlers.max(1) {
            let rx = rx.clone();
            let rt = server.rt.clone();
            let alive = server.alive.clone();
            std::thread::Builder::new()
                .name(format!("tuple-server-{i}"))
                .spawn(move || {
                    while alive.load(Ordering::Relaxed) {
                        match rx.recv_timeout(Duration::from_millis(100)) {
                            Ok(RpcRequest::CreateTs { name, reply }) => {
                                let _ = reply.send(rt.create_stable_ts(&name));
                            }
                            Ok(RpcRequest::Execute { ags, reply }) => {
                                let _ = reply.send(rt.execute(&ags));
                            }
                            Err(crossbeam::channel::RecvTimeoutError::Timeout) => continue,
                            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => return,
                        }
                    }
                })?;
        }
        Ok(server)
    }

    /// Render the backing host's metrics in Prometheus text format —
    /// the natural scrape point when non-replica clients go through RPC.
    pub fn metrics_text(&self) -> String {
        self.rt.metrics_text()
    }

    /// Connect a client with the given simulated one-way RPC latency.
    pub fn client(&self, rpc_latency: Duration) -> RpcClient {
        RpcClient {
            tx: self.tx.clone(),
            latency: rpc_latency,
        }
    }

    /// Stop the handler threads.
    pub fn stop(&self) {
        self.alive.store(false, Ordering::Relaxed);
    }
}

impl Drop for TupleServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// An FT-Linda client on a host with no local replica: every operation
/// pays one RPC round trip to the tuple server in addition to the normal
/// AGS cost.
#[derive(Clone)]
pub struct RpcClient {
    tx: crossbeam::channel::Sender<RpcRequest>,
    latency: Duration,
}

impl RpcClient {
    fn hop(&self) {
        if !self.latency.is_zero() {
            std::thread::sleep(self.latency);
        }
    }

    /// Create (or look up) a stable space via the server.
    pub fn create_stable_ts(&self, name: &str) -> Result<TsId, FtError> {
        let (rtx, rrx) = crossbeam::channel::bounded(1);
        self.hop();
        self.tx
            .send(RpcRequest::CreateTs {
                name: name.into(),
                reply: rtx,
            })
            .map_err(|_| FtError::Shutdown)?;
        let r = rrx.recv().map_err(|_| FtError::Shutdown)?;
        self.hop();
        r
    }

    /// Execute an AGS via the server (blocking).
    pub fn execute(&self, ags: &Ags) -> Result<AgsOutcome, FtError> {
        let (rtx, rrx) = crossbeam::channel::bounded(1);
        self.hop();
        self.tx
            .send(RpcRequest::Execute {
                ags: Box::new(ags.clone()),
                reply: rtx,
            })
            .map_err(|_| FtError::Shutdown)?;
        let r = rrx.recv().map_err(|_| FtError::Shutdown)?;
        self.hop();
        r
    }
}

// ---------------------------------------------------------------------------
// HTTP exporter
// ---------------------------------------------------------------------------

/// A tiny std-only HTTP/1.1 listener serving one member's observability
/// surface. GET-only, `Connection: close`, loopback by default — it is a
/// scrape endpoint, not a web server. Its thread blocks in `accept`, so
/// an exporter nobody scrapes costs no CPU.
pub struct HttpExporter {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl HttpExporter {
    /// Bind `127.0.0.1:port` (`port` 0 picks an ephemeral port — the
    /// actual address is [`HttpExporter::addr`]) and answer every GET
    /// with `route(path)` — `(status, content type, body)`, computed per
    /// request so responses reflect live state — on a background thread
    /// until [`HttpExporter::stop`].
    pub fn spawn(
        port: u16,
        route: impl Fn(&str) -> (u16, &'static str, String) + Send + 'static,
    ) -> std::io::Result<HttpExporter> {
        // `bind_reuse` (SO_REUSEADDR): a relaunched node must rebind its
        // fixed scrape port while the dead incarnation's connections are
        // still in TIME_WAIT.
        let listener = consul_sim::bind_reuse(SocketAddr::from(([127, 0, 0, 1], port)))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = std::thread::Builder::new()
            .name(format!("http-exporter-{}", addr.port()))
            .spawn(move || {
                for stream in listener.incoming() {
                    // `stop` sets the flag before the connect that wakes
                    // this `accept`.
                    if stop2.load(Ordering::SeqCst) {
                        return;
                    }
                    match stream {
                        // Responses are small; serve on this thread.
                        Ok(stream) => {
                            let _ = serve_connection(stream, &route);
                        }
                        // A failing accept (e.g. out of descriptors)
                        // fails again at once: back off instead of spinning.
                        Err(_) => std::thread::sleep(Duration::from_millis(2)),
                    }
                }
            })?;
        Ok(HttpExporter {
            addr,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the listener thread and wait for it to exit.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            // The thread blocks in `accept`; one loopback connect wakes it
            // to see the flag. Should even that connect fail, leave the
            // thread parked rather than hang in `join`.
            if TcpStream::connect_timeout(&self.addr, Duration::from_secs(1)).is_ok() {
                let _ = h.join();
            }
        }
    }
}

impl Drop for HttpExporter {
    fn drop(&mut self) {
        self.stop();
    }
}

fn serve_connection(
    mut stream: TcpStream,
    route: &impl Fn(&str) -> (u16, &'static str, String),
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    // Read until the end of the request head (or 4 KiB — paths we serve
    // are short, and we never read a body).
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 4096 {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let mut parts = head.split_whitespace();
    let (method, path) = match (parts.next(), parts.next()) {
        (Some(m), Some(p)) => (m, p),
        _ => return respond(&mut stream, 400, "text/plain", "bad request"),
    };
    if method != "GET" {
        return respond(&mut stream, 405, "text/plain", "method not allowed");
    }
    let (status, content_type, body) = route(path);
    respond(&mut stream, status, content_type, &body)
}

fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// Render an [`linda_obs::Event`] ring as JSON lines (one object per
/// event, oldest first) — the `/events` payload.
pub fn events_json_lines(events: &[linda_obs::Event]) -> String {
    let mut out = String::new();
    for ev in events {
        out.push_str("{\"kind\":\"");
        out.push_str(&linda_obs::json_escape(&ev.kind));
        out.push_str("\",\"fields\":{");
        for (i, (k, v)) in ev.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&linda_obs::json_escape(k));
            out.push_str("\":\"");
            out.push_str(&linda_obs::json_escape(v));
            out.push('"');
        }
        out.push_str("}}\n");
    }
    out
}

// ---------------------------------------------------------------------------
// HTTP client
// ---------------------------------------------------------------------------

/// GET `path` from another member's exporter at `addr`, returning
/// `(status, body)`. std-only with hard connect/read/write timeouts —
/// the federation endpoints call this per live peer, so a hung member
/// must cost a bounded wait, not a stuck scrape.
pub fn http_get(addr: SocketAddr, path: &str, timeout: Duration) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    let head = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(head.as_bytes())?;
    stream.flush()?;
    // The exporter always closes after one response, so read to EOF.
    let mut raw = Vec::with_capacity(4096);
    let mut chunk = [0u8; 4096];
    let deadline = std::time::Instant::now() + timeout;
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => raw.extend_from_slice(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::TimedOut,
                    "response timed out",
                ));
            }
            Err(e) => return Err(e),
        }
        if std::time::Instant::now() > deadline {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "response timed out",
            ));
        }
    }
    let text = String::from_utf8_lossy(&raw);
    let bad = |m: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, m.to_string());
    let status: u16 = text
        .lines()
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let body = match text.find("\r\n\r\n") {
        Some(i) => text[i + 4..].to_string(),
        None => String::new(),
    };
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use ftlinda_ags::{MatchField as MF, Operand};
    use linda_tuple::TypeTag;

    #[test]
    fn rpc_client_round_trip() {
        let (cluster, rts) = Cluster::new(2);
        let server = TupleServer::start(rts[0].clone(), 2).unwrap();
        let client = server.client(Duration::ZERO);
        let ts = client.create_stable_ts("main").unwrap();
        client
            .execute(&Ags::out_one(ts, vec![Operand::cst("x"), Operand::cst(1)]))
            .unwrap();
        let o = client
            .execute(&Ags::in_one(ts, vec![MF::actual("x"), MF::bind(TypeTag::Int)]).unwrap())
            .unwrap();
        assert_eq!(o.bindings[0].as_int(), Some(1));
        cluster.shutdown();
    }

    #[test]
    fn rpc_and_direct_clients_interoperate() {
        let (cluster, rts) = Cluster::new(2);
        let server = TupleServer::start(rts[0].clone(), 1).unwrap();
        let client = server.client(Duration::ZERO);
        let ts = rts[1].create_stable_ts("shared").unwrap();
        let ts2 = client.create_stable_ts("shared").unwrap();
        assert_eq!(ts, ts2);
        client
            .execute(&Ags::out_one(ts, vec![Operand::cst("from-rpc")]))
            .unwrap();
        assert_eq!(
            rts[1].in_(ts, &linda_tuple::pat!("from-rpc")).unwrap(),
            linda_tuple::tuple!("from-rpc")
        );
        cluster.shutdown();
    }

    #[test]
    fn rpc_latency_is_paid_per_call() {
        let (cluster, rts) = Cluster::new(2);
        let server = TupleServer::start(rts[0].clone(), 1).unwrap();
        let slow = server.client(Duration::from_millis(10));
        let ts = slow.create_stable_ts("main").unwrap();
        let t0 = std::time::Instant::now();
        slow.execute(&Ags::out_one(ts, vec![Operand::cst(1)]))
            .unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(20), "two hops");
        cluster.shutdown();
    }
}
