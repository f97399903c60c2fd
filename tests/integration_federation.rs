//! Federated observability across OS processes: boot a 3-member TCP
//! cluster of `ftlinda-node` processes, run one cross-shard AGS with a
//! trace id, and assemble its complete span tree from *any* member's
//! `/cluster/trace/<id>` endpoint — per-host attribution, per-shard
//! lanes, the 2·S+1 multicast entries, all of it crossing real sockets.
//! Then the dishonest-truncation case: kill a member and prove the
//! merged tree says so (`truncated_hosts`) instead of quietly shrinking.

use std::collections::HashSet;
use std::io::{BufRead, BufReader, Read};
use std::net::{SocketAddr, TcpListener};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const NODE: &str = env!("CARGO_BIN_EXE_ftlinda-node");

/// Held for a whole test: one 3-process cluster at a time. The
/// killed-member test must read a survivor's tree before the survivors'
/// links to the victim notice the kill (their next 100 ms heartbeat);
/// on a 2-vCPU machine a second cluster booting alongside can delay that
/// first read past it.
static ONE_CLUSTER: Mutex<()> = Mutex::new(());

fn free_addrs(n: usize) -> Vec<SocketAddr> {
    (0..n)
        .map(|_| {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        })
        .collect()
}

fn peers_arg(addrs: &[SocketAddr]) -> String {
    addrs
        .iter()
        .map(|a| a.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

/// A free base port with `n` consecutive free successors — the HTTP
/// exporter of member `i` binds `base + i`, so federation needs a
/// contiguous block.
fn free_http_base(n: u16) -> u16 {
    for _ in 0..64 {
        let probe = TcpListener::bind("127.0.0.1:0").unwrap();
        let base = probe.local_addr().unwrap().port();
        if base.checked_add(n).is_none() {
            continue;
        }
        let rest: Vec<_> = (1..n)
            .map(|i| TcpListener::bind(("127.0.0.1", base + i)))
            .collect();
        if rest.iter().all(|r| r.is_ok()) {
            return base;
        }
    }
    panic!("no contiguous free port block found");
}

fn http(base: u16, member: u16) -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], base + member))
}

/// A node process that is SIGKILLed when the test ends (or panics).
struct Node(Child);

impl Node {
    fn spawn(peers: &str, id: u32, role: &str, extra: &[&str]) -> Node {
        let mut cmd = Command::new(NODE);
        cmd.args(["--id", &id.to_string(), "--peers", peers, "--role", role])
            .args(["--shards", "2"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        Node(cmd.spawn().expect("spawn ftlinda-node"))
    }

    /// Read stdout lines until one starts with `prefix`. EOF (the
    /// process died) panics with everything captured so far.
    fn expect_line(&mut self, prefix: &str) -> String {
        let stdout = self.0.stdout.take().expect("stdout piped");
        let mut seen = String::new();
        for line in BufReader::new(stdout).lines() {
            let line = line.expect("read child stdout");
            seen.push_str(&line);
            seen.push('\n');
            if line.starts_with(prefix) {
                return line;
            }
        }
        let mut err = String::new();
        if let Some(mut s) = self.0.stderr.take() {
            let _ = s.read_to_string(&mut err);
        }
        panic!("no '{prefix}' line before EOF:\nstdout:\n{seen}\nstderr:\n{err}");
    }
}

impl Drop for Node {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// The distinct `(stage, shard)` multicast entries and the set of hosts
/// attributed in a `/cluster/trace` JSON body, considering only the
/// cross-shard kernel stages.
fn lane_entries(body: &str) -> (HashSet<(String, String)>, HashSet<String>) {
    let mut entries = HashSet::new();
    let mut hosts = HashSet::new();
    for span in body.split("{\"stage\":\"").skip(1) {
        let stage = span.split('"').next().unwrap_or("").to_string();
        if !matches!(stage.as_str(), "xlock" | "xexec" | "xrelease") {
            continue;
        }
        let host = span
            .split("\"host\":")
            .nth(1)
            .and_then(|r| r.split(',').next())
            .unwrap_or("?")
            .to_string();
        let shard = span
            .split("\"shard\":\"")
            .nth(1)
            .and_then(|r| r.split('"').next())
            .unwrap_or("?")
            .to_string();
        entries.insert((stage, shard));
        hosts.insert(host);
    }
    (entries, hosts)
}

fn get_trace(addr: SocketAddr, id: &str) -> Option<String> {
    let (status, body) = ftlinda::http_get(
        addr,
        &format!("/cluster/trace/{id}"),
        Duration::from_secs(5),
    )
    .ok()?;
    (status == 200).then_some(body)
}

/// Poll `addr` until the federated tree of `id` satisfies `good`, or
/// panic with the last body after `secs`.
fn await_tree(addr: SocketAddr, id: &str, secs: u64, good: impl Fn(&str) -> bool) -> String {
    let deadline = Instant::now() + Duration::from_secs(secs);
    let mut last = String::from("(never fetched)");
    loop {
        if let Some(body) = get_trace(addr, id) {
            if good(&body) {
                return body;
            }
            last = body;
        }
        assert!(
            Instant::now() < deadline,
            "tree at {addr} never converged; last body:\n{last}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
}

/// A cross-shard trace started in one OS process is retrievable — whole
/// — from every member of the cluster: 2·S+1 distinct `(stage, shard)`
/// multicast entries (S=2: one xlock + one xrelease per shard, one
/// xexec at the home shard) with spans attributed to all three hosts.
#[test]
fn cross_shard_trace_is_whole_from_every_member() {
    let _one = ONE_CLUSTER.lock().unwrap_or_else(|e| e.into_inner());
    let addrs = free_addrs(3);
    let peers = peers_arg(&addrs);
    let base = free_http_base(3);
    let hb = ["--http-base", &base.to_string()];

    let _idle1 = Node::spawn(&peers, 1, "idle", &hb);
    let _idle2 = Node::spawn(&peers, 2, "idle", &hb);
    let mut origin = Node::spawn(&peers, 0, "xtrace", &hb);
    let line = origin.expect_line("XTRACE id=");
    let id = line.trim_start_matches("XTRACE id=").trim().to_string();

    let complete = |body: &str| {
        let (entries, hosts) = lane_entries(body);
        entries.len() == 5 && hosts.len() == 3
    };
    for member in 0..3u16 {
        let body = await_tree(http(base, member), &id, 30, complete);
        let (entries, hosts) = lane_entries(&body);
        assert_eq!(entries.len(), 5, "member {member}: {body}");
        let stages: HashSet<&str> = entries.iter().map(|(s, _)| s.as_str()).collect();
        assert_eq!(
            stages,
            ["xlock", "xexec", "xrelease"].into_iter().collect(),
            "member {member}: {body}"
        );
        assert_eq!(
            hosts,
            ["0", "1", "2"].map(String::from).into_iter().collect(),
            "member {member}: {body}"
        );
        assert!(body.contains("\"shards\":[0,1]"), "member {member}: {body}");
        assert!(
            body.contains("\"truncated\":false"),
            "member {member}: {body}"
        );
        assert!(
            body.contains("\"truncated_hosts\":[]"),
            "member {member}: {body}"
        );
    }
}

/// Kill one member mid-trace: the federated tree from a survivor still
/// carries every surviving member's spans (each replica applied all five
/// multicast entries locally, so the lanes stay whole) but names the
/// dead member in `truncated_hosts` instead of pretending nothing is
/// missing. Heartbeat timeouts are set long so the failure detector
/// cannot declare the member dead first — a *detected* failure is
/// legitimately skipped, which is the other branch.
#[test]
fn killed_member_mid_trace_marks_truncated_hosts() {
    let _one = ONE_CLUSTER.lock().unwrap_or_else(|e| e.into_inner());
    let addrs = free_addrs(3);
    let peers = peers_arg(&addrs);
    let base = free_http_base(3);
    let base_s = base.to_string();
    let extra = [
        "--http-base",
        &base_s,
        "--hb-period-ms",
        "100",
        "--hb-timeout-ms",
        "120000",
    ];

    let _idle1 = Node::spawn(&peers, 1, "idle", &extra);
    let victim = Node::spawn(&peers, 2, "idle", &extra);
    let mut origin = Node::spawn(&peers, 0, "xtrace", &extra);
    let line = origin.expect_line("XTRACE id=");
    let id = line.trim_start_matches("XTRACE id=").trim().to_string();

    // First let the full tree converge so the kill happens strictly
    // after every member holds its spans.
    await_tree(http(base, 1), &id, 30, |body| {
        let (entries, hosts) = lane_entries(body);
        entries.len() == 5 && hosts.len() == 3
    });

    drop(victim); // SIGKILL

    let truncated = |body: &str| {
        let (entries, hosts) = lane_entries(body);
        body.contains("\"truncated\":true")
            && body.contains("\"truncated_hosts\":[2]")
            && entries.len() == 5
            && hosts == ["0", "1"].map(String::from).into_iter().collect()
    };
    // Both survivors agree: still 2·S+1 lanes from their own replicas,
    // host 2's spans gone, and the hole is declared.
    for member in [0u16, 1] {
        await_tree(http(base, member), &id, 30, truncated);
    }
}
