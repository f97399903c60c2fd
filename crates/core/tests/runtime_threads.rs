//! A runtime's threads end with it. After crash/restart cycles a Sim
//! cluster runs one apply thread and one starvation watchdog per live
//! host, not one per incarnation; an idle apply thread sleeps until a
//! delivery arrives; and no thread of either kind is left once
//! `Cluster::shutdown` returns. The protocol threads run with 1 ns of
//! timer slack. Linux only, since it reads `/proc/self/task`; alone in
//! its test binary, and its tests take turns (`ALONE`), so that no
//! other test's threads show up there.
#![cfg(target_os = "linux")]

use ftlinda::{Cluster, HostId};
use linda_tuple::tuple;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Held for the whole of each test: one cluster's threads at a time.
static ALONE: Mutex<()> = Mutex::new(());

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

/// Timer slack in ns of each thread of this process whose name starts
/// with `prefix`, by thread id; `None` when this process may not read
/// another thread's slack (that takes `CAP_SYS_NICE`). Only a process's
/// own directory has the file, so a thread's is read as `/proc/<tid>`.
fn timer_slack_of(prefix: &str) -> Option<HashMap<String, u64>> {
    let mut slack = HashMap::new();
    for tid in threads_named(prefix).into_keys() {
        match std::fs::read_to_string(format!("/proc/{tid}/timerslack_ns")) {
            Ok(ns) => {
                slack.insert(tid, ns.trim().parse().expect("timerslack_ns"));
            }
            Err(e) if e.kind() == std::io::ErrorKind::PermissionDenied => return None,
            // The thread exited after it was listed.
            Err(_) => {}
        }
    }
    Some(slack)
}

#[test]
fn crash_restart_cycles_leave_one_set_of_runtime_threads() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
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

/// The threads whose timed sleeps are protocol deadlines (each member's
/// `seq-` thread: the group-commit window; the Sim router: link
/// latency) run with 1 ns of timer slack, so those sleeps end on time
/// rather than up to the default 50 µs late.
#[test]
fn protocol_threads_run_with_one_nanosecond_timer_slack() {
    let _alone = ALONE.lock().unwrap_or_else(|e| e.into_inner());
    let (cluster, rts) = Cluster::new(3);
    rts[1].create_stable_ts("main").unwrap();
    for (prefix, want) in [("seq-", 3), ("simnet-router", 1)] {
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let Some(slack) = timer_slack_of(prefix) else {
                eprintln!("timer slack unchecked: reading another thread's needs CAP_SYS_NICE");
                cluster.shutdown();
                return;
            };
            // A thread takes its name before its first line runs, so a
            // just-started one can still read the default for a moment.
            if slack.len() >= want && slack.values().all(|ns| *ns == 1) {
                break;
            }
            assert!(
                Instant::now() < deadline,
                "{prefix} threads' timer slack (ns) by thread id: {slack:?}"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    cluster.shutdown();
}
