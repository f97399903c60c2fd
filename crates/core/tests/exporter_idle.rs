//! An exporter nobody scrapes must cost nothing: its thread blocks in
//! `accept` instead of polling. Linux only, since it reads per-thread
//! context-switch counts from `/proc/self/task`; it is a test binary of
//! its own so that no other cluster's threads share the process.
#![cfg(target_os = "linux")]

use ftlinda::Cluster;
use std::time::Duration;

/// `(threads, voluntary context switches)` summed over this process's
/// exporter threads. Their names are `http-exporter-<port>`, which the
/// kernel truncates to 15 bytes.
fn exporter_switches() -> (usize, u64) {
    let mut threads = 0;
    let mut switches = 0;
    for task in std::fs::read_dir("/proc/self/task").expect("read /proc/self/task") {
        let dir = task.expect("task entry").path();
        // A thread may exit between listing and reading.
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else {
            continue;
        };
        if !comm.starts_with("http-exporter") {
            continue;
        }
        let status = std::fs::read_to_string(dir.join("status")).expect("exporter status");
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
fn idle_exporters_do_not_wake() {
    let (cluster, _rts) = Cluster::new(3);
    std::thread::sleep(Duration::from_secs(1));
    let (threads, before) = exporter_switches();
    assert_eq!(threads, 3, "one exporter thread per member");
    std::thread::sleep(Duration::from_secs(1));
    let (_, after) = exporter_switches();
    let woke = after - before;
    assert!(woke <= 10, "idle exporters woke {woke} times in 1 s");
    cluster.shutdown();
}
