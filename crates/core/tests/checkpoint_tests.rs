//! End-to-end tests of checkpointed state transfer and log compaction:
//! a restarted host catches up from a kernel checkpoint plus the log
//! tail (O(live state)), not a full-history replay (O(records ever
//! ordered)), and every member's retained log stays bounded.

use ftlinda::{Cluster, HostId, Runtime};
use linda_tuple::{pat, tuple};
use std::time::{Duration, Instant};

/// Run `history` out/in pairs (live state stays constant), then crash,
/// restart and converge host 2, measuring the physical bytes the rejoin
/// moved and the survivors' retained-log length.
fn rejoin_cost(history: usize, every: u64) -> (u64, usize) {
    let (cluster, rts) = Cluster::builder()
        .hosts(3)
        .checkpoint_every(every)
        .no_http()
        .build();
    let ts = rts[0].create_stable_ts("main").unwrap();
    rts[0].out(ts, tuple!("keep", 1)).unwrap();
    cluster.crash(HostId(2));

    // Grow the ordered history without growing live state: every tuple
    // deposited is withdrawn again.
    for k in 0..history {
        rts[0].out(ts, tuple!("work", k as i64)).unwrap();
        rts[1].in_(ts, &pat!("work", ?int)).unwrap();
    }
    // The apply threads install checkpoints asynchronously; wait until
    // the coordinator has compacted most of the history behind it.
    let target = (2 * history as u64).saturating_sub(4 * every);
    let deadline = Instant::now() + Duration::from_secs(10);
    while rts[0].log_base() < target {
        assert!(
            Instant::now() < deadline,
            "coordinator never compacted: log_base {} < {target}",
            rts[0].log_base()
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    cluster.reset_net_stats();
    let rt2 = cluster.restart(HostId(2));
    assert!(
        rt2.wait_applied(rts[0].applied_seq(), Duration::from_secs(10)),
        "restarted host must converge"
    );
    let (_, bytes) = cluster.net_stats();

    // The restarted replica holds the live state, not the history: the
    // "keep" tuple plus the failure tuple deposited when it crashed.
    assert_eq!(rt2.stable_len(ts), Some(2), "live state transferred");
    assert_eq!(
        rt2.applied_digest().1,
        rts[0].applied_digest().1,
        "digests converge after checkpointed rejoin"
    );
    let retained = rts[0].retained_log_len();
    cluster.shutdown();
    (bytes, retained)
}

#[test]
fn rejoin_bytes_scale_with_state_not_history() {
    let every = 128;
    let (bytes_short, retained_short) = rejoin_cost(1_000, every);
    let (bytes_long, retained_long) = rejoin_cost(10_000, every);

    // 10x the history must not cost anywhere near 10x the transfer: the
    // snapshot is the (constant) live state plus a tail bounded by the
    // checkpoint interval, not the record count.
    assert!(
        bytes_long < 3 * bytes_short,
        "rejoin transfer grew with history: {bytes_short} bytes after 1k \
         records vs {bytes_long} after 10k"
    );

    // Compaction bounds every member's log memory regardless of history.
    let bound = 6 * every as usize;
    assert!(
        retained_short <= bound && retained_long <= bound,
        "retained log must stay bounded: {retained_short} / {retained_long} records"
    );
}

#[test]
fn blocked_ags_survives_checkpointed_rejoin() {
    let (cluster, rts) = Cluster::builder()
        .hosts(3)
        .checkpoint_every(16)
        .no_http()
        .build();
    let ts = rts[0].create_stable_ts("main").unwrap();

    // Park a blocked in() — it must ride the checkpoint image.
    let rt0 = rts[0].clone();
    let waiter = std::thread::spawn(move || rt0.in_(ts, &pat!("wake", ?int)).unwrap());
    let deadline = Instant::now() + Duration::from_secs(5);
    while rts[0].blocked_len() == 0 {
        assert!(Instant::now() < deadline, "in() never blocked");
        std::thread::sleep(Duration::from_millis(2));
    }

    cluster.crash(HostId(2));
    // Enough traffic to cross several checkpoint boundaries.
    for k in 0..100 {
        rts[0].out(ts, tuple!("work", k as i64)).unwrap();
        rts[1].in_(ts, &pat!("work", ?int)).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(10);
    while rts[0].checkpoint_seq().is_none() {
        assert!(Instant::now() < deadline, "no checkpoint installed");
        std::thread::sleep(Duration::from_millis(5));
    }

    let rt2 = cluster.restart(HostId(2));
    assert!(rt2.wait_applied(rts[0].applied_seq(), Duration::from_secs(10)));
    assert_eq!(
        rt2.blocked_len(),
        1,
        "blocked AGS must be present in the restored replica"
    );

    // Waking the AGS executes identically on the restored replica.
    rts[1].out(ts, tuple!("wake", 9)).unwrap();
    assert_eq!(waiter.join().unwrap(), tuple!("wake", 9));
    assert!(rt2.wait_applied(rts[0].applied_seq(), Duration::from_secs(5)));
    assert_eq!(rt2.applied_digest().1, rts[0].applied_digest().1);
    cluster.shutdown();
}

#[test]
fn checkpoint_observability_surfaces() {
    let (cluster, rts) = Cluster::builder()
        .hosts(2)
        .checkpoint_every(8)
        .no_http()
        .build();
    let ts = rts[0].create_stable_ts("main").unwrap();
    for k in 0..40 {
        rts[0].out(ts, tuple!("x", k as i64)).unwrap();
    }
    let deadline = Instant::now() + Duration::from_secs(5);
    while rts[0].checkpoint_seq().is_none() {
        assert!(Instant::now() < deadline, "no checkpoint installed");
        std::thread::sleep(Duration::from_millis(5));
    }
    let metrics = rts[0].metrics_text();
    assert!(metrics.contains("ftlinda_checkpoint_seq"), "gauge exported");
    assert!(metrics.contains("ftlinda_checkpoint_bytes"));
    assert!(metrics.contains("ftlinda_checkpoint_seconds"));
    assert!(
        rts[0]
            .obs()
            .events()
            .recent()
            .iter()
            .any(|e| e.kind == "checkpoint_taken"),
        "checkpoint_taken event emitted"
    );
    cluster.shutdown();
}

/// Regression guard for the seed behavior: with checkpoints disabled the
/// protocol is unchanged and rejoin replays the full log.
#[test]
fn no_checkpoints_replays_history() {
    let (cluster, rts) = Cluster::builder()
        .hosts(3)
        .no_checkpoints()
        .no_http()
        .build();
    let ts = rts[0].create_stable_ts("main").unwrap();
    cluster.crash(HostId(2));
    for k in 0..30 {
        rts[0].out(ts, tuple!("x", k as i64)).unwrap();
    }
    let rt2: Runtime = cluster.restart(HostId(2));
    assert!(rt2.wait_applied(rts[0].applied_seq(), Duration::from_secs(10)));
    assert_eq!(rt2.checkpoint_seq(), None);
    assert_eq!(rt2.log_base(), 0);
    // 30 deposits plus the failure tuple from this host's own crash.
    assert_eq!(rt2.stable_len(ts), Some(31));
    assert_eq!(rt2.applied_digest().1, rts[0].applied_digest().1);
    cluster.shutdown();
}
