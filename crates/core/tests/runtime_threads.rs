//! A runtime's threads end with it. After crash/restart cycles a Sim
//! cluster runs one apply thread and one starvation watchdog per live
//! host, not one per incarnation; an idle apply thread sleeps until a
//! delivery arrives; and no thread of either kind is left once
//! `Cluster::shutdown` returns. Linux only, since it reads
//! `/proc/self/task`; alone in its test binary so that no other test's
//! threads show up there.
#![cfg(target_os = "linux")]

use ftlinda::{Cluster, HostId};
use linda_tuple::tuple;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Voluntary context switches so far of each thread of this process
/// whose name starts with `prefix`, by thread id. The kernel keeps 15
/// bytes of a thread name, so `ftlinda-watchdog-host0` reads back as
/// `ftlinda-watchdo`.
fn threads_named(prefix: &str) -> HashMap<String, u64> {
    let tasks = std::fs::read_dir("/proc/self/task").expect("list /proc/self/task");
    tasks
        .filter_map(|task| {
            let path = task.ok()?.path();
            if !std::fs::read_to_string(path.join("comm"))
                .ok()?
                .starts_with(prefix)
            {
                return None;
            }
            let status = std::fs::read_to_string(path.join("status")).ok()?;
            let switches = status
                .lines()
                .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))?
                .trim()
                .parse()
                .ok()?;
            Some((path.file_name()?.to_string_lossy().into_owned(), switches))
        })
        .collect()
}

/// A new thread names itself once it runs: wait for `want` of them.
fn expect_threads(prefix: &str, want: usize) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let n = threads_named(prefix).len();
        if n == want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{n} {prefix} threads, expected {want}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn crash_restart_cycles_leave_one_set_of_runtime_threads() {
    let (cluster, rts) = Cluster::new(3);
    let ts = rts[1].create_stable_ts("main").unwrap();
    for i in 0..5 {
        cluster.crash(HostId(0));
        let rt0 = cluster.restart(HostId(0));
        rts[1].out(ts, tuple!("cycle", i)).unwrap();
        let seq = rts[1].applied_seq();
        assert!(
            rt0.wait_applied(seq, Duration::from_secs(10)),
            "cycle {i}: the restarted host never applied seq {seq}"
        );
    }
    expect_threads("ftlinda-apply", 3);
    expect_threads("ftlinda-watchdo", 3);

    let before = threads_named("ftlinda-apply");
    std::thread::sleep(Duration::from_secs(1));
    for (tid, now) in threads_named("ftlinda-apply") {
        let woke = now - before[&tid];
        assert!(
            woke <= 2,
            "idle apply thread {tid} woke {woke} times in 1 s"
        );
    }

    cluster.shutdown();
    assert_eq!(
        threads_named("ftlinda-apply").len(),
        0,
        "apply threads left"
    );
    assert_eq!(threads_named("ftlinda-watchdo").len(), 0, "watchdogs left");
}
