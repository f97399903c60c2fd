//! Randomized stress tests of the sequencer group: total-order agreement
//! and liveness under randomized crash/restart schedules.

use bytes::Bytes;
use consul_sim::{Delivery, HostId, NetConfig, SeqGroup, SeqMember};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Poll until both members report identical logs; assert on timeout.
/// Condition-based replacement for "sleep and hope they've converged".
fn assert_logs_converge(a: &SeqMember, b: &SeqMember, within: Duration) {
    let deadline = Instant::now() + within;
    loop {
        let (la, lb) = (a.log(), b.log());
        if la == lb {
            return;
        }
        if Instant::now() >= deadline {
            assert_eq!(la, lb, "logs did not converge within {within:?}");
        }
        std::thread::sleep(Duration::from_millis(2));
    }
}

fn drain_apps(m: &SeqMember, want: usize, within: Duration) -> Vec<(HostId, u64, Bytes)> {
    let deadline = Instant::now() + within;
    let mut out = Vec::new();
    while out.len() < want && Instant::now() < deadline {
        if let Ok(Delivery::App {
            origin,
            local,
            payload,
            ..
        }) = m.deliveries().recv_timeout(Duration::from_millis(20))
        {
            out.push((origin, local, payload));
        }
    }
    out
}

/// Agreement: many concurrent broadcasters with network jitter — every
/// member's app-record prefix is identical.
#[test]
fn total_order_agreement_under_jitter() {
    for seed in [1u64, 2, 3] {
        let cfg = NetConfig {
            latency: Duration::from_micros(150),
            jitter: Duration::from_micros(300),
            seed,
            ..NetConfig::default()
        };
        let (g, ms) = SeqGroup::new(4, cfg);
        let per = 30;
        std::thread::scope(|s| {
            for (i, m) in ms.iter().enumerate() {
                s.spawn(move || {
                    for k in 0..per {
                        m.broadcast(Bytes::from(format!("{i}:{k}")));
                    }
                });
            }
        });
        let want = per * 4;
        let logs: Vec<Vec<(HostId, u64, Bytes)>> = ms
            .iter()
            .map(|m| drain_apps(m, want, Duration::from_secs(10)))
            .collect();
        for (i, log) in logs.iter().enumerate() {
            assert_eq!(log.len(), want, "seed {seed} member {i} delivered all");
            assert_eq!(log, &logs[0], "seed {seed}: member {i} agrees");
        }
        g.shutdown();
    }
}

/// Liveness + safety under a randomized crash/restart schedule: the
/// surviving members keep agreeing, every survivor-submitted message is
/// delivered exactly once, and restarted members converge.
#[test]
fn random_crash_restart_schedule() {
    for seed in [11u64, 23, 47] {
        let mut rng = StdRng::seed_from_u64(seed);
        let (g, ms) = SeqGroup::new(4, NetConfig::instant());
        let mut members: Vec<Option<SeqMember>> = ms.into_iter().map(Some).collect();
        let mut alive = [true; 4];
        let mut sent: Vec<String> = Vec::new();

        for round in 0..6 {
            // Random traffic from live members (skip host 0 after it may
            // have died; any live member works).
            for _ in 0..5 {
                let i = rng.gen_range(0..4);
                if alive[i] {
                    let msg = format!("s{seed}-r{round}-{i}-{}", rng.gen::<u32>());
                    members[i]
                        .as_ref()
                        .unwrap()
                        .broadcast(Bytes::from(msg.clone()));
                    sent.push(msg);
                }
            }
            // Random fault action, keeping ≥2 alive.
            let live_count = alive.iter().filter(|a| **a).count();
            match rng.gen_range(0..3) {
                0 if live_count > 2 => {
                    let victims: Vec<usize> = (0..4).filter(|&i| alive[i]).collect();
                    let v = victims[rng.gen_range(0..victims.len())];
                    alive[v] = false;
                    g.crash(HostId(v as u32));
                }
                1 if live_count < 4 => {
                    let dead: Vec<usize> = (0..4).filter(|&i| !alive[i]).collect();
                    let v = dead[rng.gen_range(0..dead.len())];
                    alive[v] = true;
                    members[v] = Some(g.restart(HostId(v as u32)));
                }
                _ => {}
            }
            // Pacing between fault-schedule rounds (not a synchronization
            // point — convergence is verified by polling below).
            std::thread::sleep(Duration::from_millis(20));
        }
        // Compare logs of live members once they converge.
        let live: Vec<&SeqMember> = (0..4)
            .filter(|&i| alive[i])
            .map(|i| members[i].as_ref().unwrap())
            .collect();
        assert!(live.len() >= 2);
        for m in &live[1..] {
            assert_logs_converge(live[0], m, Duration::from_secs(5));
        }
        let reference = live[0].log();
        // Exactly-once for messages from members that are *still* alive
        // (a crashed member's in-flight submissions may legitimately be
        // lost with it).
        let delivered: Vec<String> = reference
            .iter()
            .filter_map(|r| match &r.body {
                consul_sim::RecordBody::App(p) => Some(String::from_utf8(p.to_vec()).unwrap()),
                _ => None,
            })
            .collect();
        let mut uniq = delivered.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), delivered.len(), "seed {seed}: no duplicates");
        g.shutdown();
    }
}

/// A member that falls behind via an induced gap catches up through the
/// NACK/retransmit path (exercised by crashing the coordinator while
/// traffic flows, with latency so records are in flight).
#[test]
fn gap_repair_after_failover() {
    let cfg = NetConfig {
        latency: Duration::from_millis(2),
        jitter: Duration::from_millis(1),
        detect_delay: Duration::from_millis(1),
        ..NetConfig::default()
    };
    let (g, ms) = SeqGroup::new(3, cfg);
    for i in 0..20 {
        ms[1].broadcast(Bytes::from(format!("a{i}")));
    }
    g.crash(HostId(0));
    for i in 0..20 {
        ms[2].broadcast(Bytes::from(format!("b{i}")));
    }
    // Everything submitted by live members must eventually deliver.
    let deadline = Instant::now() + Duration::from_secs(10);
    while Instant::now() < deadline {
        if ms[1].delivered_count() >= 41 && ms[2].delivered_count() >= 41 {
            break;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    // 40 app records + 1 fail record.
    assert!(ms[1].delivered_count() >= 41, "{}", ms[1].delivered_count());
    assert_eq!(ms[1].log(), ms[2].log());
    g.shutdown();
}

/// Batching under fire: crash the coordinator while three concurrent
/// submitters keep open batches in flight, then restart it. Every
/// survivor-submitted message must appear exactly once, in one total
/// order shared by the survivors and the rejoined host — a partially
/// acked batch must never be split, reordered, or double-applied.
#[test]
fn coordinator_crash_mid_batch_exactly_once() {
    for seed in [5u64, 17, 29] {
        let cfg = NetConfig {
            latency: Duration::from_millis(1),
            jitter: Duration::from_micros(500),
            detect_delay: Duration::from_millis(1),
            seed,
            ..NetConfig::default()
        };
        let batch = consul_sim::BatchConfig {
            window: Duration::from_millis(2),
            max_entries: 16,
            ..consul_sim::BatchConfig::default()
        };
        let (g, ms) = SeqGroup::new_with(4, cfg, batch, consul_sim::CheckpointConfig::disabled());
        let per = 25usize;
        std::thread::scope(|s| {
            for (i, m) in ms.iter().enumerate().skip(1) {
                s.spawn(move || {
                    for k in 0..per {
                        m.broadcast(Bytes::from(format!("s{seed}-h{i}-{k}")));
                        // Fast enough that submits land inside the same
                        // coalescing window.
                        std::thread::sleep(Duration::from_micros(300));
                    }
                });
            }
            // Kill the coordinator mid-stream, while batches are open
            // and ordered batch records are still in flight.
            let g = &g;
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(4));
                g.crash(HostId(0));
            });
        });
        let want = per * 3;
        // Survivors converge on a log holding every submission once.
        let deadline = Instant::now() + Duration::from_secs(10);
        while Instant::now() < deadline {
            if ms[1..].iter().all(|m| {
                m.log()
                    .iter()
                    .filter(|r| matches!(r.body, consul_sim::RecordBody::App(_)))
                    .count()
                    >= want
            }) {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        for m in &ms[2..] {
            assert_logs_converge(&ms[1], m, Duration::from_secs(5));
        }
        let delivered: Vec<String> = ms[1]
            .log()
            .iter()
            .filter_map(|r| match &r.body {
                consul_sim::RecordBody::App(p) => Some(String::from_utf8(p.to_vec()).unwrap()),
                _ => None,
            })
            .collect();
        assert_eq!(delivered.len(), want, "seed {seed}: every submit delivered");
        let mut uniq = delivered.clone();
        uniq.sort();
        uniq.dedup();
        assert_eq!(uniq.len(), want, "seed {seed}: no duplicates");
        // Per-origin FIFO survives the failover resubmission path.
        for i in 1..4 {
            let from_i: Vec<&String> = delivered
                .iter()
                .filter(|m| m.starts_with(&format!("s{seed}-h{i}-")))
                .collect();
            let expect: Vec<String> = (0..per).map(|k| format!("s{seed}-h{i}-{k}")).collect();
            assert_eq!(
                from_i.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
                expect.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
                "seed {seed}: origin {i} FIFO order"
            );
        }
        // The restarted coordinator replays the same log, batch records
        // included, and converges with the survivors.
        let m0 = g.restart(HostId(0));
        assert_logs_converge(&ms[1], &m0, Duration::from_secs(10));
        g.shutdown();
    }
}

mod heartbeat_mode {
    use super::*;
    use consul_sim::Heartbeat;

    fn hb_config() -> NetConfig {
        NetConfig {
            latency: Duration::from_micros(100),
            heartbeats: Some(Heartbeat {
                period: Duration::from_millis(5),
                timeout: Duration::from_millis(40),
            }),
            ..NetConfig::default()
        }
    }

    /// With the oracle detector disabled, a crash is discovered from
    /// heartbeat silence alone, and exactly one Fail record is ordered.
    #[test]
    fn silence_is_detected_and_ordered_once() {
        let (g, ms) = SeqGroup::new(3, hb_config());
        ms[0].broadcast(Bytes::from_static(b"warm"));
        let deadline = Instant::now() + Duration::from_secs(5);
        while ms[2].delivered_count() < 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        g.crash(HostId(2));
        // Wait for the survivors to order the failure.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let fails = ms[0]
                .log()
                .iter()
                .filter(|r| matches!(r.body, consul_sim::RecordBody::Fail(HostId(2))))
                .count();
            if fails >= 1 {
                assert_eq!(fails, 1, "exactly one Fail record");
                break;
            }
            assert!(Instant::now() < deadline, "failure never detected");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_logs_converge(&ms[0], &ms[1], Duration::from_secs(3));
        g.shutdown();
    }

    /// Coordinator crash detected by heartbeats: failover still works and
    /// post-crash traffic is ordered.
    #[test]
    fn heartbeat_coordinator_failover() {
        let (g, ms) = SeqGroup::new(3, hb_config());
        ms[1].broadcast(Bytes::from_static(b"pre"));
        let deadline = Instant::now() + Duration::from_secs(5);
        while ms[1].delivered_count() < 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        g.crash(HostId(0));
        // New coordinator (host 1) must take over after detection.
        ms[2].broadcast(Bytes::from_static(b"post"));
        let deadline = Instant::now() + Duration::from_secs(8);
        loop {
            let has_post = ms[1]
                .log()
                .iter()
                .any(|r| matches!(&r.body, consul_sim::RecordBody::App(p) if &p[..] == b"post"));
            if has_post {
                break;
            }
            assert!(Instant::now() < deadline, "post-failover message lost");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_logs_converge(&ms[1], &ms[2], Duration::from_secs(3));
        g.shutdown();
    }

    /// Restart under heartbeat mode: the joiner is re-admitted via
    /// JoinReq/Snapshot and peers learn its liveness from its traffic.
    #[test]
    fn heartbeat_restart_rejoins() {
        let (g, ms) = SeqGroup::new(3, hb_config());
        ms[0].broadcast(Bytes::from_static(b"x"));
        g.crash(HostId(2));
        // Wait for the fail record.
        let deadline = Instant::now() + Duration::from_secs(5);
        while !ms[0]
            .log()
            .iter()
            .any(|r| matches!(r.body, consul_sim::RecordBody::Fail(HostId(2))))
        {
            assert!(Instant::now() < deadline);
            std::thread::sleep(Duration::from_millis(10));
        }
        let m2 = g.restart(HostId(2));
        m2.broadcast(Bytes::from_static(b"back"));
        let deadline = Instant::now() + Duration::from_secs(8);
        while !m2
            .log()
            .iter()
            .any(|r| matches!(&r.body, consul_sim::RecordBody::App(p) if &p[..] == b"back"))
        {
            assert!(Instant::now() < deadline, "rejoined member's message lost");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_logs_converge(&ms[0], &m2, Duration::from_secs(3));
        g.shutdown();
    }

    /// A member that is falsely suspected — its links frozen, process
    /// still alive — is ordered failed; when its traffic reappears the
    /// coordinator evicts it rather than letting it resume mid-stream
    /// with a stale cursor, and it re-admits itself through the
    /// JoinReq/Snapshot path. History is never forked.
    #[test]
    fn false_suspicion_is_evicted_then_readmitted() {
        let (g, ms) = SeqGroup::new(3, hb_config());
        ms[0].broadcast(Bytes::from_static(b"warm"));
        let deadline = Instant::now() + Duration::from_secs(5);
        while ms[2].delivered_count() < 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Freeze, don't crash: the member's threads keep running but its
        // packets are dropped, so the survivors suspect it falsely.
        g.net().freeze(HostId(2));
        let deadline = Instant::now() + Duration::from_secs(5);
        while !ms[0]
            .log()
            .iter()
            .any(|r| matches!(r.body, consul_sim::RecordBody::Fail(HostId(2))))
        {
            assert!(Instant::now() < deadline, "false suspicion never ordered");
            std::thread::sleep(Duration::from_millis(10));
        }
        g.net().thaw(HostId(2));
        // The zombie's heartbeats resume; the coordinator answers with
        // an eviction and the member rejoins via snapshot.
        let deadline = Instant::now() + Duration::from_secs(8);
        while !ms[2]
            .log()
            .iter()
            .any(|r| matches!(r.body, consul_sim::RecordBody::Join(HostId(2))))
        {
            assert!(
                Instant::now() < deadline,
                "evicted member never re-admitted"
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        // Post-rejoin traffic from the once-evicted member orders normally.
        ms[2].broadcast(Bytes::from_static(b"again"));
        let deadline = Instant::now() + Duration::from_secs(8);
        while !ms[0]
            .log()
            .iter()
            .any(|r| matches!(&r.body, consul_sim::RecordBody::App(p) if &p[..] == b"again"))
        {
            assert!(Instant::now() < deadline, "post-rejoin message lost");
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_logs_converge(&ms[0], &ms[2], Duration::from_secs(3));
        g.shutdown();
    }
}
