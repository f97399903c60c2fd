//! End-to-end tests of the FT-Linda runtime over the simulated cluster.

use ftlinda::{Ags, Cluster, FtError, HostId, MatchField as MF, NetConfig, Operand, TypeTag};
use linda_tuple::{pat, tuple, Value};
use std::time::{Duration, Instant};

#[test]
fn out_on_one_host_in_on_another() {
    let (cluster, rts) = Cluster::new(3);
    let ts = rts[0].create_stable_ts("main").unwrap();
    rts[0].out(ts, tuple!("msg", 42)).unwrap();
    let got = rts[2].in_(ts, &pat!("msg", ?int)).unwrap();
    assert_eq!(got, tuple!("msg", 42));
    // Withdrawn everywhere (wait for lagging kernels to catch up to the
    // withdrawing host before asserting).
    for rt in &rts {
        assert!(rt.wait_applied(rts[2].applied_seq(), Duration::from_secs(5)));
        assert_eq!(rt.stable_len(ts), Some(0));
    }
    cluster.shutdown();
}

#[test]
fn blocking_in_wakes_on_remote_out() {
    let (cluster, rts) = Cluster::new(2);
    let ts = rts[0].create_stable_ts("main").unwrap();
    let rt1 = rts[1].clone();
    let waiter = std::thread::spawn(move || rt1.in_(ts, &pat!("later", ?int)).unwrap());
    std::thread::sleep(Duration::from_millis(50));
    rts[0].out(ts, tuple!("later", 7)).unwrap();
    assert_eq!(waiter.join().unwrap(), tuple!("later", 7));
    cluster.shutdown();
}

#[test]
fn concurrent_counter_increments_lose_nothing() {
    // The paper's motivating distributed-variable example: with atomic
    // in+out, no increment is lost regardless of interleaving.
    let (cluster, rts) = Cluster::new(3);
    let ts = rts[0].create_stable_ts("ctr").unwrap();
    rts[0].out(ts, tuple!("count", 0)).unwrap();
    let per = 25;
    let handles: Vec<_> = rts
        .iter()
        .map(|rt| {
            let rt = rt.clone();
            std::thread::spawn(move || {
                let ags = Ags::builder()
                    .guard_in(ts, vec![MF::actual("count"), MF::bind(TypeTag::Int)])
                    .out(ts, vec![Operand::cst("count"), Operand::formal(0).add(1)])
                    .build()
                    .unwrap();
                for _ in 0..per {
                    rt.execute(&ags).unwrap();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let t = rts[1].rd(ts, &pat!("count", ?int)).unwrap();
    assert_eq!(t, tuple!("count", 3 * per as i64));
    cluster.shutdown();
}

#[test]
fn strong_inp_and_rdp() {
    let (cluster, rts) = Cluster::new(2);
    let ts = rts[0].create_stable_ts("main").unwrap();
    assert_eq!(rts[1].inp(ts, &pat!("x", ?int)).unwrap(), None);
    rts[0].out(ts, tuple!("x", 1)).unwrap();
    assert_eq!(
        rts[1].rdp(ts, &pat!("x", ?int)).unwrap(),
        Some(tuple!("x", 1))
    );
    assert_eq!(
        rts[1].inp(ts, &pat!("x", ?int)).unwrap(),
        Some(tuple!("x", 1))
    );
    assert_eq!(rts[0].inp(ts, &pat!("x", ?int)).unwrap(), None);
    cluster.shutdown();
}

#[test]
fn replicas_converge_after_traffic() {
    let (cluster, rts) = Cluster::new(3);
    let ts = rts[0].create_stable_ts("main").unwrap();
    for i in 0..20 {
        rts[(i % 3) as usize].out(ts, tuple!("n", i)).unwrap();
    }
    for _ in 0..10 {
        rts[1].in_(ts, &pat!("n", ?int)).unwrap();
    }
    // Wait for all replicas to catch up to the same seq.
    let target = rts[1].applied_seq();
    for _ in 0..200 {
        if rts.iter().all(|r| r.applied_seq() >= target) {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    let d0 = rts[0].digest();
    assert_eq!(d0, rts[1].digest());
    assert_eq!(d0, rts[2].digest());
    cluster.shutdown();
}

#[test]
fn failure_tuple_appears_in_every_stable_space() {
    let (cluster, rts) = Cluster::new(3);
    let a = rts[0].create_stable_ts("a").unwrap();
    let b = rts[0].create_stable_ts("b").unwrap();
    cluster.crash(HostId(2));
    // Blocking in on the failure tuple is the paper's monitor idiom.
    let fa = rts[0].rd(a, &pat!("failure", ?int)).unwrap();
    assert_eq!(fa, tuple!("failure", 2));
    let fb = rts[1].rd(b, &pat!("failure", ?int)).unwrap();
    assert_eq!(fb, tuple!("failure", 2));
    cluster.shutdown();
}

#[test]
fn failure_event_subscription() {
    let (cluster, rts) = Cluster::new(3);
    let _ts = rts[0].create_stable_ts("main").unwrap();
    let events = rts[0].events();
    cluster.crash(HostId(1));
    let ev = events.recv_timeout(Duration::from_secs(3)).unwrap();
    assert_eq!(ev, ftlinda::FtEvent::HostFailed(HostId(1)));
    cluster.shutdown();
}

#[test]
fn crash_and_restart_rejoins_with_converged_state() {
    let (cluster, rts) = Cluster::new(3);
    let ts = rts[0].create_stable_ts("main").unwrap();
    for i in 0..10 {
        rts[0].out(ts, tuple!("k", i)).unwrap();
    }
    cluster.crash(HostId(2));
    rts[0].rd(ts, &pat!("failure", 2)).unwrap();
    rts[0].out(ts, tuple!("post-crash")).unwrap();
    let rt2 = cluster.restart(HostId(2));
    // Wait for replay to converge.
    let target = rts[0].applied_seq();
    for _ in 0..300 {
        if rt2.applied_seq() >= target {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(rt2.applied_seq() >= target, "joiner caught up");
    assert_eq!(rt2.snapshot(ts), rts[0].snapshot(ts));
    // And the restarted host can participate again.
    rt2.out(ts, tuple!("back")).unwrap();
    assert_eq!(rts[1].in_(ts, &pat!("back")).unwrap(), tuple!("back"));
    cluster.shutdown();
}

/// The runtime a restart replaces lets go of its replica state: its
/// handle lists no tuples and no blocked AGS, while its exported match
/// counters keep every count it made.
#[test]
fn restart_releases_the_replaced_runtimes_state_and_keeps_its_counters() {
    let (cluster, rts) = Cluster::new(3);
    let ts = rts[0].create_stable_ts("main").unwrap();
    for i in 0..20 {
        rts[2].out(ts, tuple!("row", i)).unwrap();
    }
    for _ in 0..5 {
        rts[2].in_(ts, &pat!("row", ?int)).unwrap();
    }
    // A guard nothing satisfies yet, blocked at every replica.
    let rt0 = rts[0].clone();
    let waiter = std::thread::spawn(move || rt0.in_(ts, &pat!("later")).unwrap());
    let deadline = Instant::now() + Duration::from_secs(5);
    while rts[2].blocked_len() == 0 {
        assert!(
            Instant::now() < deadline,
            "the guard never blocked at host 2"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let matches = |rt: &ftlinda::Runtime| {
        let snap = rt.metrics_snapshot();
        ["attempts", "probes", "hits"].map(|m| {
            snap.counter_family(&format!("ftlinda_match_{m}_total"))
                .map_or(0, |f| f.values().sum::<u64>())
        })
    };
    let before = matches(&rts[2]);
    assert!(before.iter().all(|n| *n > 0), "{before:?}");

    cluster.crash(HostId(2));
    let rt2 = cluster.restart(HostId(2));
    let old = rts[2].introspect().unwrap();
    assert!(
        old.spaces
            .iter()
            .all(|s| s.tuples == 0 && s.signatures.is_empty()),
        "{:?}",
        old.spaces
    );
    assert!(old.blocked.is_empty());
    assert_eq!(rts[2].stable_len(ts), Some(0));
    let after = matches(&rts[2]);
    assert!(
        after.iter().zip(&before).all(|(a, b)| a >= b),
        "match counters fell from {before:?} to {after:?}"
    );

    // The fresh incarnation holds the state again.
    assert!(rt2.wait_applied(rts[0].applied_seq(), Duration::from_secs(5)));
    assert!(rt2.stable_len(ts) >= Some(15));
    assert_eq!(rt2.blocked_len(), 1);
    rts[1].out(ts, tuple!("later")).unwrap();
    assert_eq!(waiter.join().unwrap(), tuple!("later"));
    cluster.shutdown();
}

#[test]
fn scratch_space_receives_ags_output() {
    let (cluster, rts) = Cluster::new(2);
    let ts = rts[0].create_stable_ts("main").unwrap();
    let (sid, scratch) = rts[1].create_scratch();
    rts[0].out(ts, tuple!("data", 5)).unwrap();
    // Host 1 atomically withdraws and drops a local copy into scratch.
    let ags = Ags::builder()
        .guard_in(ts, vec![MF::actual("data"), MF::bind(TypeTag::Int)])
        .out(sid, vec![Operand::cst("local"), Operand::formal(0)])
        .build()
        .unwrap();
    rts[1].execute(&ags).unwrap();
    assert_eq!(
        scratch.in_(&pat!("local", ?int)).unwrap(),
        tuple!("local", 5)
    );
    // Host 0's kernel did NOT materialize anything locally (scratch is
    // owner-local): its scratch table is empty (no scratch created).
    assert!(rts[0].wait_applied(rts[1].applied_seq(), Duration::from_secs(5)));
    assert_eq!(rts[0].stable_len(ts), Some(0));
    cluster.shutdown();
}

#[test]
fn execute_timeout_on_blocked_ags() {
    let (cluster, rts) = Cluster::new(2);
    let ts = rts[0].create_stable_ts("main").unwrap();
    let ags = Ags::in_one(ts, vec![MF::actual("never")]).unwrap();
    let r = rts[0].execute_timeout(&ags, Duration::from_millis(100));
    assert_eq!(r, Err(FtError::Timeout));
    assert_eq!(rts[0].blocked_len(), 1);
    cluster.shutdown();
}

#[test]
fn body_failure_reported_to_client() {
    let (cluster, rts) = Cluster::new(2);
    let ts = rts[0].create_stable_ts("main").unwrap();
    let ags = Ags::builder()
        .guard_true()
        .in_(ts, vec![MF::actual("absent")])
        .build()
        .unwrap();
    match rts[1].execute(&ags) {
        Err(FtError::Exec(e)) => assert!(e.to_string().contains("no matching")),
        other => panic!("{other:?}"),
    }
    cluster.shutdown();
}

#[test]
fn disjunction_over_cluster() {
    let (cluster, rts) = Cluster::new(2);
    let ts = rts[0].create_stable_ts("main").unwrap();
    rts[0].out(ts, tuple!("b", 2)).unwrap();
    let ags = Ags::builder()
        .guard_in(ts, vec![MF::actual("a"), MF::bind(TypeTag::Int)])
        .or()
        .guard_in(ts, vec![MF::actual("b"), MF::bind(TypeTag::Int)])
        .build()
        .unwrap();
    let out = rts[1].execute(&ags).unwrap();
    assert_eq!(out.branch, 1);
    assert_eq!(out.bindings, vec![Value::Int(2)]);
    cluster.shutdown();
}

#[test]
fn one_multicast_per_ags_regardless_of_body_size() {
    // E9's core claim at the API level: adding ops to an AGS does not add
    // messages.
    let (cluster, rts) = Cluster::new(3);
    let ts = rts[0].create_stable_ts("main").unwrap();
    std::thread::sleep(Duration::from_millis(50));

    cluster.reset_net_stats();
    rts[1].out(ts, tuple!("single")).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let (small, _) = cluster.net_stats();

    cluster.reset_net_stats();
    let mut b = Ags::builder().guard_true();
    for i in 0..10 {
        b = b.out(ts, vec![Operand::cst("multi"), Operand::cst(i as i64)]);
    }
    rts[1].execute(&b.build().unwrap()).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let (big, _) = cluster.net_stats();

    assert_eq!(small, big, "10-op AGS costs the same messages as 1-op");
    cluster.shutdown();
}

#[test]
fn latency_cluster_works() {
    let (cluster, rts) = Cluster::builder()
        .hosts(3)
        .net(NetConfig::lan(Duration::from_micros(300)))
        .build();
    let ts = rts[0].create_stable_ts("main").unwrap();
    rts[2].out(ts, tuple!("hi")).unwrap();
    assert_eq!(rts[1].in_(ts, &pat!("hi")).unwrap(), tuple!("hi"));
    cluster.shutdown();
}

#[test]
fn create_stable_ts_is_idempotent_across_hosts() {
    let (cluster, rts) = Cluster::new(3);
    let a = rts[0].create_stable_ts("shared").unwrap();
    let b = rts[1].create_stable_ts("shared").unwrap();
    let c = rts[2].create_stable_ts("other").unwrap();
    assert_eq!(a, b);
    assert_ne!(a, c);
    cluster.shutdown();
}

#[test]
fn heartbeat_detection_produces_failure_tuple() {
    // No oracle: the crash is discovered from ping silence, then ordered
    // into the stream and converted to a failure tuple like any other.
    let (cluster, rts) = Cluster::builder()
        .hosts(3)
        .heartbeats(Duration::from_millis(5), Duration::from_millis(40))
        .build();
    let ts = rts[0].create_stable_ts("main").unwrap();
    rts[0].out(ts, tuple!("seed")).unwrap();
    cluster.crash(HostId(2));
    let f = rts[0].in_(ts, &pat!("failure", ?int)).unwrap();
    assert_eq!(f, tuple!("failure", 2));
    // Traffic continues normally post-detection.
    rts[1].out(ts, tuple!("after")).unwrap();
    assert_eq!(rts[0].in_(ts, &pat!("after")).unwrap(), tuple!("after"));
    cluster.shutdown();
}

#[test]
fn execute_async_pipelines_submissions() {
    let (cluster, rts) = Cluster::new(3);
    let ts = rts[0].create_stable_ts("main").unwrap();
    // Fire 20 outs without waiting, then await them all.
    let handles: Vec<_> = (0..20i64)
        .map(|i| rts[1].execute_async(&Ags::out_one(ts, vec![Operand::cst("n"), Operand::cst(i)])))
        .collect();
    for h in handles {
        h.wait().unwrap();
    }
    assert!(rts[2].wait_applied(rts[1].applied_seq(), Duration::from_secs(5)));
    assert_eq!(rts[2].stable_len(ts), Some(20));
    // Async blocking in with ready-probe.
    let h = rts[2].execute_async(&Ags::in_one(ts, vec![MF::actual("never-there")]).unwrap());
    assert!(!h.is_ready());
    assert_eq!(
        h.wait_timeout(Duration::from_millis(50)),
        Err(FtError::Timeout)
    );
    cluster.shutdown();
}

#[test]
fn host_joined_event_on_restart() {
    let (cluster, rts) = Cluster::new(3);
    let _ts = rts[0].create_stable_ts("main").unwrap();
    let events = rts[0].events();
    cluster.crash(HostId(2));
    assert_eq!(
        events.recv_timeout(Duration::from_secs(3)).unwrap(),
        ftlinda::FtEvent::HostFailed(HostId(2))
    );
    let _rt2 = cluster.restart(HostId(2));
    assert_eq!(
        events.recv_timeout(Duration::from_secs(5)).unwrap(),
        ftlinda::FtEvent::HostJoined(HostId(2))
    );
    cluster.shutdown();
}

#[test]
fn move_between_stable_spaces_over_cluster() {
    let (cluster, rts) = Cluster::new(2);
    let a = rts[0].create_stable_ts("a").unwrap();
    let b = rts[0].create_stable_ts("b").unwrap();
    for i in 0..5 {
        rts[0].out(a, tuple!("job", i)).unwrap();
    }
    rts[0].out(a, tuple!("keep")).unwrap();
    let ags = Ags::builder()
        .guard_true()
        .move_(a, b, vec![MF::actual("job"), MF::bind(TypeTag::Int)])
        .build()
        .unwrap();
    rts[1].execute(&ags).unwrap();
    // execute() returns when host 1's kernel applies; host 0 may lag.
    assert!(rts[0].wait_applied(rts[1].applied_seq(), Duration::from_secs(5)));
    assert_eq!(rts[0].stable_len(a), Some(1));
    assert_eq!(rts[0].stable_len(b), Some(5));
    // Age order preserved across the move.
    assert_eq!(rts[1].in_(b, &pat!("job", ?int)).unwrap(), tuple!("job", 0));
    cluster.shutdown();
}

#[test]
fn try_build_rejects_http_base_port_past_u16() {
    // Host i's exporter serves on base + i: three hosts from 65534 would
    // need port 65536.
    match Cluster::builder()
        .hosts(3)
        .http_base_port(65534)
        .try_build()
    {
        Ok(_) => panic!("exporter port range overflow accepted"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput),
    }
    // Two hosts end exactly at 65535.
    let (cluster, _rts) = Cluster::builder()
        .hosts(2)
        .http_base_port(65534)
        .try_build()
        .expect("last member on port 65535 fits");
    cluster.shutdown();
}

/// Shutdown wakes the background loops instead of waiting out their
/// periods (the time-series sampler's is a full second).
#[test]
fn shutdown_returns_promptly() {
    let (cluster, _rts) = Cluster::new(3);
    std::thread::sleep(Duration::from_millis(50));
    let t0 = Instant::now();
    cluster.shutdown();
    let took = t0.elapsed();
    assert!(took < Duration::from_millis(200), "shutdown took {took:?}");
}

/// Every shard's multicast gauge is on the cluster page from the moment
/// the cluster is built, before the sampler's first tick.
#[test]
fn shard_multicast_gauges_exist_before_first_sample() {
    let (cluster, _rts) = Cluster::builder().hosts(3).shards(2).build();
    let page = cluster.cluster_metrics_text();
    for shard in 0..2 {
        let child = format!("ftlinda_shard_multicasts_total{{shard=\"{shard}\"}}");
        assert!(page.contains(&child), "{child} missing from:\n{page}");
    }
    cluster.shutdown();
}
