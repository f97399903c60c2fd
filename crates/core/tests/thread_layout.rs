//! Thread layout of the ordering layer: each sequencer member runs on
//! exactly one protocol thread (`seq-<host>`), with no helper threads
//! for group-commit deadlines or rejoin retries — also across a crash
//! and restart. Alone in its test binary so that no other test's
//! threads show up in `/proc/self/task`.

#![cfg(target_os = "linux")]

use ftlinda::{Cluster, HostId};
use linda_tuple::tuple;
use std::time::{Duration, Instant};

/// Threads of this process whose name starts with `prefix`.
fn threads_named(prefix: &str) -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("list /proc/self/task")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|comm| comm.starts_with(prefix))
        .count()
}

/// Wait until exactly `want` sequencer threads run, asserting on every
/// sample that no other ordering-layer thread exists.
fn expect_seq_threads(want: usize) {
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        assert_eq!(
            threads_named("flush-"),
            0,
            "no group-commit flusher threads"
        );
        assert_eq!(threads_named("join-"), 0, "no rejoin threads");
        let seq = threads_named("seq-");
        if seq == want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "{seq} seq- threads, expected {want}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn one_protocol_thread_per_member_per_shard() {
    let (cluster, rts) = Cluster::builder().hosts(3).shards(2).build();
    expect_seq_threads(6);
    let ts = rts[1].create_stable_ts("main").unwrap();
    rts[1].out(ts, tuple!("x", 1)).unwrap();
    cluster.crash(HostId(2));
    let rt2 = cluster.restart(HostId(2));
    for (shard, seq) in rts[1].applied_seqs().into_iter().enumerate() {
        assert!(rt2.wait_applied_shard(shard, seq, Duration::from_secs(10)));
    }
    // The crashed incarnation's threads exit once its inboxes are
    // replaced; the fresh one rejoins on its own protocol threads.
    expect_seq_threads(6);
    cluster.shutdown();
}
