//! An idle mesh's listener must cost nothing: the `tcp-accept` thread
//! blocks in `accept` instead of polling, and `TcpMesh::shutdown` wakes
//! and joins it. Linux only, since it reads per-thread context-switch
//! counts from `/proc/self/task`; a test binary of its own so that no
//! other test's threads share the process.
#![cfg(target_os = "linux")]

use consul_sim::{HostId, TcpConfig, TcpMesh};
use linda_obs::Registry;
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

/// `(threads, voluntary context switches)` summed over this process's
/// threads named `tcp-accept`.
fn accept_switches() -> (usize, u64) {
    let mut threads = 0;
    let mut switches = 0;
    for task in std::fs::read_dir("/proc/self/task").expect("read /proc/self/task") {
        let dir = task.expect("task entry").path();
        // A thread may exit between listing and reading.
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else {
            continue;
        };
        if comm.trim_end() != "tcp-accept" {
            continue;
        }
        let Ok(status) = std::fs::read_to_string(dir.join("status")) else {
            continue;
        };
        let n: u64 = status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))
            .and_then(|v| v.trim().parse().ok())
            .expect("status lists voluntary_ctxt_switches");
        threads += 1;
        switches += n;
    }
    (threads, switches)
}

#[test]
fn idle_accept_thread_does_not_wake() {
    let addrs: Vec<SocketAddr> = (0..2)
        .map(|_| {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        })
        .collect();
    let (obs0, obs1) = (Registry::default(), Registry::default());
    let (m0, _rx0) = TcpMesh::start(TcpConfig::new(HostId(0), &addrs, 1), &obs0).unwrap();
    let (m1, _rx1) = TcpMesh::start(TcpConfig::new(HostId(1), &addrs, 1), &obs1).unwrap();
    // Each listener has accepted its peer's connection: the mesh is
    // formed, and from here on nothing dials.
    let deadline = Instant::now() + Duration::from_secs(10);
    while m0.live_hosts().len() < 2 || m1.live_hosts().len() < 2 {
        assert!(Instant::now() < deadline, "mesh never formed");
        std::thread::sleep(Duration::from_millis(10));
    }
    std::thread::sleep(Duration::from_millis(200));
    let (threads, before) = accept_switches();
    assert_eq!(threads, 2, "one accept thread per mesh");
    std::thread::sleep(Duration::from_secs(1));
    let (_, after) = accept_switches();
    let woke = after - before;
    assert!(woke <= 2, "idle accept threads woke {woke} times in 1 s");
    // Shutdown wakes the blocked accept and joins the thread, which
    // closes the listener: a relaunched member could bind the address at
    // once (its accepted connections may still be open, hence the
    // `SO_REUSEADDR` bind a relaunch uses).
    m0.shutdown();
    m1.shutdown();
    assert_eq!(accept_switches().0, 0, "shutdown joined the accept threads");
    consul_sim::bind_reuse(addrs[0]).expect("listener closed by shutdown");
}
