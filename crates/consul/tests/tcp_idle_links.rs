//! Idle TCP links must cost nothing and shut down completely: a formed,
//! idle mesh's `tcp-writer-*` threads block on their frame queues and its
//! `tcp-reader` threads in `read_exact`, and `TcpMesh::shutdown` joins
//! every mesh thread, even when the peer mesh is already gone. Linux
//! only, since it reads per-thread context-switch counts from
//! `/proc/self/task`; a test binary of its own so that no other test's
//! threads share the process.
#![cfg(target_os = "linux")]

use consul_sim::{HostId, TcpConfig, TcpMesh};
use linda_obs::Registry;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

/// `(thread name, voluntary context switches)` by thread id, for every
/// thread of this process whose name starts with `tcp-`.
fn tcp_threads() -> HashMap<String, (String, u64)> {
    let mut out = HashMap::new();
    for task in std::fs::read_dir("/proc/self/task").expect("read /proc/self/task") {
        let dir = task.expect("task entry").path();
        // A thread may exit between listing and reading.
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else {
            continue;
        };
        let name = comm.trim_end().to_string();
        if !name.starts_with("tcp-") {
            continue;
        }
        let Ok(status) = std::fs::read_to_string(dir.join("status")) else {
            continue;
        };
        let switches: u64 = status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|v| v.trim().parse().ok())
            .expect("status lists voluntary_ctxt_switches");
        let tid = dir.file_name().unwrap().to_string_lossy().into_owned();
        out.insert(tid, (name, switches));
    }
    out
}

fn count(threads: &HashMap<String, (String, u64)>, prefix: &str) -> usize {
    threads
        .values()
        .filter(|(n, _)| n.starts_with(prefix))
        .count()
}

#[test]
fn idle_links_sleep_and_shutdown_joins_every_thread() {
    let addrs: Vec<SocketAddr> = (0..2)
        .map(|_| {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        })
        .collect();
    let (obs0, obs1) = (Registry::default(), Registry::default());
    let (m0, _rx0) = TcpMesh::start(TcpConfig::new(HostId(0), &addrs, 1), &obs0).unwrap();
    let (m1, _rx1) = TcpMesh::start(TcpConfig::new(HostId(1), &addrs, 1), &obs1).unwrap();
    // Formed: each writer is connected and each listener runs a reader
    // for its peer's connection. From here on nothing is sent.
    let deadline = Instant::now() + Duration::from_secs(10);
    while m0.live_hosts().len() < 2
        || m1.live_hosts().len() < 2
        || count(&tcp_threads(), "tcp-reader") < 2
    {
        assert!(Instant::now() < deadline, "mesh never formed");
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(200));
    let before = tcp_threads();
    assert_eq!(count(&before, "tcp-writer-"), 2, "one writer per mesh");
    assert_eq!(count(&before, "tcp-reader"), 2, "one reader per mesh");
    std::thread::sleep(Duration::from_secs(1));
    let after = tcp_threads();
    for (tid, (name, n0)) in &before {
        if name == "tcp-accept" {
            continue;
        }
        let (_, n1) = after.get(tid).expect("idle link threads stay up");
        assert!(n1 - n0 <= 2, "idle {name} woke {} times in 1 s", n1 - n0);
    }
    // The second shutdown finds its peer gone: its writer is redialing a
    // closed port, and must still stop at once.
    m0.shutdown();
    let t0 = Instant::now();
    m1.shutdown();
    let took = t0.elapsed();
    assert!(
        took <= Duration::from_millis(1500),
        "shutdown took {took:?}"
    );
    let left = tcp_threads();
    assert!(left.is_empty(), "threads left after shutdown: {left:?}");
}
