//! End-to-end tests for sharded stable tuple spaces (`shards(K)` with
//! K > 1): basic routing, cross-shard AGS atomicity, blocked-retry,
//! crash/restart convergence, digest parity with an unsharded cluster,
//! and per-signature store overrides.
//!
//! The signature shapes used here are chosen so their shard assignments
//! under K=2 are known (`[Str, Int]` → shard 0, `[Str, Str]` → shard 1
//! for the first created space); every test asserts the assignment it
//! relies on via `shard_of`, so a change to the shard map fails loudly
//! instead of silently degrading the test to a single-shard scenario.

use ftlinda::{Ags, Cluster, HostId, MatchField, Operand, TsId};
use ftlinda_ags::shard_of;
use linda_tuple::{pat, tuple, Signature, TypeTag};
use std::time::Duration;

fn sig_hash(tags: &[TypeTag]) -> u64 {
    Signature::new(tags.to_vec()).stable_hash()
}

/// Shard owning `[Str, Int]` tuples of `ts` under `k` shards.
fn shard_str_int(ts: TsId, k: u32) -> u32 {
    shard_of(ts, sig_hash(&[TypeTag::Str, TypeTag::Int]), k)
}

/// Shard owning `[Str, Str]` tuples of `ts` under `k` shards.
fn shard_str_str(ts: TsId, k: u32) -> u32 {
    shard_of(ts, sig_hash(&[TypeTag::Str, TypeTag::Str]), k)
}

/// Poll until `rt` has applied enough deliveries that `ts` holds `want`
/// tuples. `out` only awaits ordering, not remote application, so
/// host-local counts lag under load.
fn wait_stable_len(rt: &ftlinda::Runtime, ts: TsId, want: usize) {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while rt.stable_len(ts) != Some(want) {
        assert!(
            std::time::Instant::now() < deadline,
            "stable_len stuck at {:?}, want {want}",
            rt.stable_len(ts)
        );
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Plain out/in/rd traffic across both shards, from every host.
#[test]
fn sharded_cluster_serves_basic_ops() {
    let (cluster, rts) = Cluster::builder().hosts(3).shards(2).build();
    assert_eq!(cluster.shard_count(), 2);
    assert_eq!(rts[0].shard_count(), 2);
    let ts = rts[0].create_stable_ts("main").unwrap();
    assert_ne!(shard_str_int(ts, 2), shard_str_str(ts, 2));

    for i in 0..6i64 {
        rts[(i % 3) as usize].out(ts, tuple!("n", i)).unwrap();
        rts[(i % 3) as usize]
            .out(ts, tuple!("s", format!("v{i}")))
            .unwrap();
    }
    wait_stable_len(&rts[1], ts, 12);
    // Withdraw from a different host than produced; oldest-first within
    // each signature bucket.
    assert_eq!(rts[2].in_(ts, &pat!("n", ?int)).unwrap(), tuple!("n", 0));
    assert_eq!(rts[0].in_(ts, &pat!("s", ?str)).unwrap(), tuple!("s", "v0"));
    assert_eq!(rts[1].rd(ts, &pat!("n", ?int)).unwrap(), tuple!("n", 1));
    wait_stable_len(&rts[0], ts, 10);
    cluster.shutdown();
}

/// A cross-shard AGS (guard on one shard, body out on another) fires
/// atomically: bindings are right, the source tuple is withdrawn, and
/// the produced tuple is visible on every host.
#[test]
fn cross_shard_ags_moves_tuples_atomically() {
    let (cluster, rts) = Cluster::builder().hosts(3).shards(2).build();
    let ts = rts[0].create_stable_ts("main").unwrap();
    assert_ne!(shard_str_int(ts, 2), shard_str_str(ts, 2));

    rts[0].out(ts, tuple!("x", 41)).unwrap();
    let ags = Ags::builder()
        .guard_in(
            ts,
            vec![MatchField::actual("x"), MatchField::bind(TypeTag::Int)],
        )
        .out(ts, vec![Operand::cst("y"), Operand::cst("done")])
        .build()
        .unwrap();
    let out = rts[1].execute(&ags).unwrap();
    assert_eq!(out.bindings, vec![linda_tuple::Value::Int(41)]);

    assert_eq!(rts[2].rdp(ts, &pat!("x", ?int)).unwrap(), None);
    assert_eq!(
        rts[2].rd(ts, &pat!("y", ?str)).unwrap(),
        tuple!("y", "done")
    );
    // All replicas agree after the three-leg commit.
    for rt in &rts {
        assert_eq!(rt.stable_len(ts), Some(1));
    }
    cluster.shutdown();
}

/// A cross-shard AGS whose guard cannot match yet retries until another
/// host supplies the tuple — the client-side retry loop, not a parked
/// blocked-table entry, provides the blocking semantics.
#[test]
fn cross_shard_ags_blocks_until_guard_satisfiable() {
    let (cluster, rts) = Cluster::builder().hosts(2).shards(2).build();
    let ts = rts[0].create_stable_ts("main").unwrap();

    let ags = Ags::builder()
        .guard_in(
            ts,
            vec![MatchField::actual("job"), MatchField::bind(TypeTag::Int)],
        )
        .out(ts, vec![Operand::cst("log"), Operand::cst("took-job")])
        .build()
        .unwrap();
    let handle = rts[0].execute_async(&ags);
    std::thread::sleep(Duration::from_millis(40));
    assert!(!handle.is_ready(), "guard has nothing to match yet");

    rts[1].out(ts, tuple!("job", 7)).unwrap();
    let out = handle.wait().unwrap();
    assert_eq!(out.bindings, vec![linda_tuple::Value::Int(7)]);
    assert_eq!(
        rts[1].in_(ts, &pat!("log", ?str)).unwrap(),
        tuple!("log", "took-job")
    );
    cluster.shutdown();
}

/// Contending cross-shard AGSs from two hosts, racing single-shard
/// writes: every increment lands exactly once (no lost updates, no
/// duplicates) and every side effect appears exactly once.
#[test]
fn concurrent_cross_shard_updates_are_exactly_once() {
    const PER_HOST: i64 = 8;
    let (cluster, rts) = Cluster::builder().hosts(3).shards(2).build();
    let ts = rts[0].create_stable_ts("main").unwrap();
    rts[0].out(ts, tuple!("count", 0)).unwrap();

    // in("count", ?int) spans shard(Str,Int); out("tick", …) spans
    // shard(Str,Str): every increment is a cross-shard commit.
    let incr = Ags::builder()
        .guard_in(
            ts,
            vec![MatchField::actual("count"), MatchField::bind(TypeTag::Int)],
        )
        .out(ts, vec![Operand::cst("count"), Operand::formal(0).add(1)])
        .out(ts, vec![Operand::cst("tick"), Operand::cst("t")])
        .build()
        .unwrap();

    std::thread::scope(|s| {
        for rt in &rts[1..] {
            let rt = rt.clone();
            let incr = incr.clone();
            s.spawn(move || {
                for _ in 0..PER_HOST {
                    rt.execute(&incr).unwrap();
                }
            });
        }
        // Meanwhile host 0 hammers a single-shard signature.
        for i in 0..20i64 {
            rts[0].out(ts, tuple!("noise", i)).unwrap();
        }
    });

    let total = 2 * PER_HOST;
    assert_eq!(
        rts[0].rd(ts, &pat!("count", ?int)).unwrap(),
        tuple!("count", total)
    );
    for _ in 0..total {
        assert_eq!(
            rts[0].in_(ts, &pat!("tick", ?str)).unwrap(),
            tuple!("tick", "t")
        );
    }
    assert_eq!(rts[0].rdp(ts, &pat!("tick", ?str)).unwrap(), None);
    cluster.shutdown();
}

/// The same operation sequence on a K=1 and a K=4 cluster yields the
/// same canonical per-space digest — sharding changes throughput, never
/// observable state.
#[test]
fn sharded_digest_matches_unsharded() {
    let run = |shards: u32| -> (u64, u64) {
        let (cluster, rts) = Cluster::builder().hosts(2).shards(shards).build();
        let a = rts[0].create_stable_ts("a").unwrap();
        let b = rts[0].create_stable_ts("b").unwrap();
        for i in 0..5i64 {
            rts[0].out(a, tuple!("n", i)).unwrap();
            rts[0].out(a, tuple!("s", format!("v{i}"))).unwrap();
            rts[0].out(b, tuple!("m", i, i * 2)).unwrap();
        }
        rts[0].in_(a, &pat!("n", ?int)).unwrap();
        rts[0].in_(a, &pat!("s", ?str)).unwrap();
        // One cross-shard AGS in the mix (under K>1).
        let ags = Ags::builder()
            .guard_in(
                a,
                vec![MatchField::actual("n"), MatchField::bind(TypeTag::Int)],
            )
            .out(a, vec![Operand::cst("moved"), Operand::cst("yes")])
            .build()
            .unwrap();
        rts[0].execute(&ags).unwrap();
        let d = (
            rts[0].canonical_space_digest(a),
            rts[0].canonical_space_digest(b),
        );
        cluster.shutdown();
        d
    };
    assert_eq!(run(1), run(4));
}

/// Crash + restart of a host under K=2: the failure tuple is deposited
/// exactly once per space, the restarted replica catches up on every
/// shard's log independently, and full state converges.
#[test]
fn crash_restart_converges_under_sharding() {
    let (cluster, rts) = Cluster::builder().hosts(3).shards(2).build();
    let ts = rts[0].create_stable_ts("main").unwrap();
    for i in 0..4i64 {
        rts[0].out(ts, tuple!("n", i)).unwrap();
        rts[0].out(ts, tuple!("s", format!("v{i}"))).unwrap();
    }

    cluster.crash(HostId(2));
    // Exactly one failure tuple, whichever shard owns that signature.
    let f = rts[0].in_(ts, &pat!("failure", 2)).unwrap();
    assert_eq!(f, tuple!("failure", 2));
    assert_eq!(rts[1].rdp(ts, &pat!("failure", 2)).unwrap(), None);

    // Traffic on both shards while host 2 is down.
    rts[0].out(ts, tuple!("n", 100)).unwrap();
    rts[1].out(ts, tuple!("s", "late")).unwrap();

    let revived = cluster.restart(HostId(2));
    for shard in 0..rts[0].shard_count() {
        let seq = rts[0].applied_seqs()[shard];
        assert!(
            revived.wait_applied_shard(shard, seq, Duration::from_secs(5)),
            "shard {shard}: restarted host never caught up"
        );
    }
    assert_eq!(revived.snapshot(ts), rts[0].snapshot(ts));
    assert_eq!(
        revived.canonical_space_digest(ts),
        rts[0].canonical_space_digest(ts)
    );
    cluster.shutdown();
}

/// A cross-shard AGS leaves a complete transaction trace: exactly
/// `2·S+1` ordered multicasts (one XLock and one XRelease per
/// participating shard, one XExec at the home shard), each visible as
/// its own `(stage, shard)` lane entry in the assembled tree, bracketed
/// by the origin's `xbegin`/`xcommit`.
#[test]
fn cross_shard_trace_has_2s_plus_1_multicast_spans() {
    let (cluster, rts) = Cluster::builder().hosts(3).shards(2).build();
    let ts = rts[0].create_stable_ts("main").unwrap();
    let s_int = shard_str_int(ts, 2);
    let s_str = shard_str_str(ts, 2);
    assert_ne!(s_int, s_str);
    let home = s_int.min(s_str);

    rts[0].out(ts, tuple!("x", 41)).unwrap();
    let ags = Ags::builder()
        .guard_in(
            ts,
            vec![MatchField::actual("x"), MatchField::bind(TypeTag::Int)],
        )
        .out(ts, vec![Operand::cst("y"), Operand::cst("done")])
        .build()
        .unwrap();
    rts[1].execute(&ags).unwrap();

    // The origin stamped xbegin/xcommit on the transaction trace; find
    // its id from the origin's span log (fresh xid per attempt, and this
    // commit fired on the first attempt).
    let xbegin = rts[1]
        .obs()
        .spans()
        .recent()
        .into_iter()
        .rev()
        .find(|s| s.stage == "xbegin")
        .expect("origin recorded xbegin");
    let tree = cluster.trace(xbegin.trace);
    assert!(
        tree.spans.iter().any(|s| s.stage == "xcommit"),
        "origin recorded the commit"
    );
    assert_eq!(tree.shards(), vec![0, 1], "both shards participated");

    // 2·S+1 ordered multicasts: each one is a distinct (stage, shard)
    // lane entry (every replica applies it, so raw span counts are
    // hosts× that).
    let mut multicasts: Vec<(String, u32)> = Vec::new();
    for shard in tree.shards() {
        for s in tree.shard_lane(shard) {
            if matches!(s.stage.as_str(), "xlock" | "xexec" | "xrelease")
                && !multicasts.contains(&(s.stage.clone(), shard))
            {
                multicasts.push((s.stage.clone(), shard));
            }
        }
    }
    assert_eq!(multicasts.len(), 5, "2*2+1 multicasts: {multicasts:?}");

    // Per-lane ordering: lock before release on both shards; the exec
    // sits between them on the home shard only.
    for shard in [s_int, s_str] {
        let lane = tree.shard_lane(shard);
        let idx = |stage: &str| lane.iter().position(|s| s.stage == stage);
        let lock = idx("xlock").expect("xlock on every participant");
        let release = idx("xrelease").expect("xrelease on every participant");
        assert!(lock < release, "shard {shard}: lock precedes release");
        match idx("xexec") {
            Some(exec) if shard == home => assert!(lock < exec && exec < release),
            Some(_) => panic!("xexec on a non-home shard"),
            None => assert_ne!(shard, home, "home shard must carry the exec"),
        }
    }
    cluster.shutdown();
}

/// An induced body failure (a body `in` with nothing to match) rolls the
/// cross-shard commit back and increments the `body_failure` abort
/// counter on every participant host's home-shard kernel.
#[test]
fn body_failure_rollback_counts_aborts_on_every_participant() {
    let (cluster, rts) = Cluster::builder().hosts(3).shards(2).build();
    let ts = rts[0].create_stable_ts("main").unwrap();
    let home = shard_str_int(ts, 2).min(shard_str_str(ts, 2));

    rts[0].out(ts, tuple!("x", 1)).unwrap();
    // Guard matches on shard(Str,Int); the body `in` on shard(Str,Str)
    // has nothing to take → the execution fails and rolls back.
    let bad = Ags::builder()
        .guard_in(
            ts,
            vec![MatchField::actual("x"), MatchField::bind(TypeTag::Int)],
        )
        .in_(
            ts,
            vec![MatchField::actual("absent"), MatchField::actual("s")],
        )
        .build()
        .unwrap();
    assert!(rts[1].execute(&bad).is_err(), "body failure surfaces");
    // Rollback: the guard tuple is back, nothing half-committed.
    assert_eq!(rts[2].rd(ts, &pat!("x", ?int)).unwrap(), tuple!("x", 1));

    let child = format!("cause=\"body_failure\",shard=\"{home}\"");
    for rt in &rts {
        let snap = rt.metrics_snapshot();
        let aborts = snap
            .counter_family("ftlinda_xcommit_aborts_total")
            .expect("abort family on every host");
        assert!(
            aborts.get(&child).copied().unwrap_or(0) >= 1,
            "host {:?}: {aborts:?}",
            rt.host()
        );
    }
    cluster.shutdown();
}

/// `introspect_json` under K>1 nests one report per shard plus the
/// per-shard load census with the imbalance gauge in basis points.
#[test]
fn introspect_json_includes_shard_reports() {
    let (cluster, rts) = Cluster::builder().hosts(2).shards(2).build();
    let ts = rts[0].create_stable_ts("main").unwrap();
    rts[0].out(ts, tuple!("n", 1)).unwrap();
    let json = rts[0].introspect_json(4).unwrap();
    assert!(json.contains("\"shards\":2"), "json: {json}");
    assert!(json.contains("\"shard_reports\""), "json: {json}");
    assert!(json.contains("\"shard\":0") && json.contains("\"shard\":1"));
    // One tuple on one shard: the census reads fully imbalanced.
    assert!(json.contains("\"shard_census\""), "json: {json}");
    assert!(json.contains("\"imbalance_bp\":10000"), "json: {json}");
    // K=1 keeps the legacy flat shape.
    let (c1, r1) = Cluster::builder().hosts(1).shards(1).build();
    let flat = r1[0].introspect_json(4).unwrap();
    assert!(!flat.contains("shard_reports"));
    c1.shutdown();
    cluster.shutdown();
}
