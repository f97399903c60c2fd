//! The divergence detector runs only where something can diverge: it
//! compares the runtimes of one process, so a TCP process (one runtime)
//! starts no `ftlinda-divergence` thread, while a default Sim cluster
//! (three runtimes) starts one. Linux only, since it reads thread names
//! from `/proc/self/task`; alone in its test binary so that no other
//! test's threads show up there.
#![cfg(target_os = "linux")]

use ftlinda::{Cluster, TcpClusterConfig, Transport};
use std::net::{SocketAddr, TcpListener};
use std::time::{Duration, Instant};

/// Threads of this process whose name starts with `prefix`. The kernel
/// keeps 15 bytes of a thread name, so `ftlinda-divergence` reads back
/// as `ftlinda-diverge`.
fn threads_named(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with(prefix))
        .count()
}

/// A new thread names itself once it runs, so wait for `want` threads
/// named like the detector, and for the time-series sampler (started
/// after the detector) to show up too.
fn expect_detector_threads(want: usize) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let (detectors, samplers) = (
            threads_named("ftlinda-diverge"),
            threads_named("ftlinda-timeser"),
        );
        if detectors == want && samplers > 0 {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{detectors} detector threads ({samplers} samplers), expected {want}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn detector_thread_only_with_two_runtimes_in_process() {
    let addrs: Vec<SocketAddr> = (0..3)
        .map(|_| {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap()
        })
        .collect();
    let (tcp, rts) = Cluster::builder()
        .transport(Transport::Tcp(TcpClusterConfig {
            me: 0,
            addrs,
            rejoin: false,
        }))
        .no_http()
        .build();
    assert_eq!(rts.len(), 1);
    // A TCP process runs no detector: still none a while after the
    // sampler started.
    expect_detector_threads(0);
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(threads_named("ftlinda-diverge"), 0);
    assert!(
        tcp.metrics_text()
            .contains("ftlinda_digest_divergence_total"),
        "the counter family is still registered"
    );
    tcp.shutdown();

    let (sim, rts) = Cluster::new(3);
    assert_eq!(rts.len(), 3);
    expect_detector_threads(1);
    sim.shutdown();
    assert_eq!(
        threads_named("ftlinda-diverge"),
        0,
        "shutdown joins the detector"
    );
}
