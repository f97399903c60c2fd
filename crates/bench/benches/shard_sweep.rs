//! Shard sweep — write throughput vs shard count K, the tentpole claim
//! of the sharded-stable-spaces design: signature-partitioned spaces
//! multiply single-shard write throughput beyond what one total order
//! can carry.
//!
//! The unsharded protocol bottlenecks on the sequencer coordinator: one
//! process pays the NIC fan-out for *every* ordered multicast. We model
//! that resource with the simulator's per-host NIC service-time model
//! (`NicModel::ethernet_10mb`, the paper's 10 Mb Ethernet testbed) and
//! sweep K ∈ {1, 2, 4} with group commit off (window = 0): every AGS
//! pays full fan-out, so the sweep isolates what sharding alone buys.
//! Eight submitters each hammer a *distinct* signature, chosen so the
//! signatures spread evenly across shards (2 per shard at K=4, and —
//! because `shard_of` at K=2 is the K=4 owner mod 2 — 4 per shard at
//! K=2); every AGS routes to exactly one shard and the K sequencer
//! streams proceed independently.
//!
//! The run also prices the cross-shard path: an AGS spanning S shards
//! costs 2·S + 1 ordered multicasts (S locks, 1 exec, S releases) vs 1
//! for a single-shard AGS — the reason the router keeps statically
//! single-shard AGSs on the fast path.
//!
//! Results land in `BENCH_shard_sweep.json` (`$BENCH_SHARD_SWEEP_JSON`),
//! and the per-shard multicast load of each K in
//! `BENCH_shard_balance.json` (`$BENCH_SHARD_BALANCE_JSON`); the bench
//! writes both files whole. The K=4 / K=1 speedup is asserted
//! ≥ `$SHARD_SWEEP_MIN_SPEEDUP` (default 2).

use consul_sim::{NetConfig, NicModel};
use criterion::{criterion_group, criterion_main, Criterion};
use ftlinda::{Ags, Cluster, MatchField, Operand, TsId, TypeTag};
use ftlinda_ags::shard_of;
use linda_tuple::Signature;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const HOSTS: u32 = 3;
const SUBMITTERS: usize = 8;
const PER_SUBMITTER: usize = 100;
const MAX_K: u32 = 4;

/// Eight `[Str, Int × arity]` signatures spreading evenly over `MAX_K`
/// shards (two signatures per shard), found by scanning arities. The
/// returned list is `(arity, owner shard at MAX_K)`.
fn balanced_arities(ts: TsId) -> Vec<(usize, u32)> {
    let mut per_shard = vec![0usize; MAX_K as usize];
    let mut picks = Vec::with_capacity(SUBMITTERS);
    let want = SUBMITTERS / MAX_K as usize;
    for arity in 1usize..256 {
        let mut tags = vec![TypeTag::Str];
        tags.extend(std::iter::repeat_n(TypeTag::Int, arity));
        let owner = shard_of(ts, Signature::new(tags).stable_hash(), MAX_K);
        if per_shard[owner as usize] < want {
            per_shard[owner as usize] += 1;
            picks.push((arity, owner));
            if picks.len() == SUBMITTERS {
                return picks;
            }
        }
    }
    panic!("could not balance {SUBMITTERS} signatures over {MAX_K} shards");
}

fn out_ags(ts: TsId, arity: usize, k: i64) -> Ags {
    let mut fields = vec![Operand::cst("s")];
    fields.extend((0..arity).map(|_| Operand::cst(k)));
    Ags::out_one(ts, fields)
}

struct Point {
    shards: u32,
    ags: u64,
    multicasts: u64,
    /// Ordered multicasts carried by each shard's sequencer stream.
    per_shard: Vec<u64>,
    /// Load imbalance across those streams, in basis points (0 =
    /// perfectly even, 10000 = everything on one shard).
    imbalance_bp: i64,
    ags_per_sec: f64,
}

fn sweep_cluster(shards: u32) -> (Cluster, Vec<ftlinda::Runtime>, TsId) {
    let net = NetConfig {
        nic: Some(NicModel::ethernet_10mb()),
        ..NetConfig::default()
    };
    let (cluster, rts) = Cluster::builder()
        .hosts(HOSTS)
        .shards(shards)
        .no_checkpoints()
        .no_batching()
        .net(net)
        .build();
    let ts = rts[0].create_stable_ts("main").unwrap();
    (cluster, rts, ts)
}

fn run_shards(shards: u32, arities: &[(usize, u32)]) -> Point {
    let (cluster, rts, ts) = sweep_cluster(shards);
    // Exclude setup traffic (CreateTs + RegisterTs) from the counts.
    for s in 0..cluster.shard_count() {
        cluster.order_stats_shard(s).reset();
    }
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for (i, (arity, _)) in arities.iter().enumerate() {
            let rt = &rts[i % rts.len()];
            let arity = *arity;
            s.spawn(move || {
                for k in 0..PER_SUBMITTER {
                    rt.execute(&out_ags(ts, arity, k as i64)).unwrap();
                }
            });
        }
    });
    let secs = t0.elapsed().as_secs_f64();
    let per_shard: Vec<u64> = (0..cluster.shard_count())
        .map(|s| cluster.order_stats_shard(s).ordered_multicasts())
        .collect();
    let multicasts: u64 = per_shard.iter().sum();
    let ags = (SUBMITTERS * PER_SUBMITTER) as u64;
    let point = Point {
        shards,
        ags,
        multicasts,
        imbalance_bp: ftlinda_ags::imbalance_bp(&per_shard),
        per_shard,
        ags_per_sec: ags as f64 / secs,
    };
    cluster.shutdown();
    point
}

/// Ordered multicasts for one cross-shard AGS spanning two shards:
/// 2 locks + 1 exec + 2 releases = 5 (vs 1 for a single-shard AGS).
fn cross_shard_cost() -> u64 {
    let net = NetConfig::default(); // no NIC model: measuring counts
    let (cluster, rts) = Cluster::builder()
        .hosts(HOSTS)
        .shards(2)
        .no_checkpoints()
        .no_batching()
        .net(net)
        .build();
    let ts = rts[0].create_stable_ts("main").unwrap();
    rts[0].out(ts, linda_tuple::tuple!("x", 1)).unwrap();
    let before: u64 = (0..2)
        .map(|s| cluster.order_stats_shard(s).ordered_multicasts())
        .sum();
    let ags = Ags::builder()
        .guard_in(
            ts,
            vec![MatchField::actual("x"), MatchField::bind(TypeTag::Int)],
        )
        .out(ts, vec![Operand::cst("y"), Operand::cst("done")])
        .build()
        .unwrap();
    rts[0].execute(&ags).unwrap();
    let after: u64 = (0..2)
        .map(|s| cluster.order_stats_shard(s).ordered_multicasts())
        .sum();
    cluster.shutdown();
    after - before
}

fn write_artifact(points: &[Point], speedup: f64) {
    let mut json = String::from("{\n  \"bench\": \"shard_sweep\",\n");
    let _ = writeln!(
        json,
        "  \"hosts\": {HOSTS}, \"submitters\": {SUBMITTERS}, \
         \"window_us\": 0, \"nic\": \"ethernet_10mb\",\n  \"points\": ["
    );
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"shards\": {}, \"ags\": {}, \"ordered_multicasts\": {}, \
             \"ags_per_sec\": {:.1}}}{comma}",
            p.shards, p.ags, p.multicasts, p.ags_per_sec,
        );
    }
    let _ = writeln!(json, "  ],\n  \"speedup_k4_vs_k1\": {speedup:.2}\n}}");
    linda_bench::write_artifact("BENCH_SHARD_SWEEP_JSON", "BENCH_shard_sweep.json", &json);
}

/// Per-shard load census of the sweep: how evenly each K spread the
/// ordered-multicast traffic over its sequencer streams, with the same
/// basis-point imbalance gauge the cluster exports at runtime.
fn write_balance_artifact(points: &[Point]) {
    let mut json = String::from("{\n  \"bench\": \"shard_balance\",\n  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let loads = p
            .per_shard
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(
            json,
            "    {{\"shards\": {}, \"per_shard_multicasts\": [{loads}], \
             \"imbalance_bp\": {}}}{comma}",
            p.shards, p.imbalance_bp,
        );
    }
    json.push_str("  ]\n}\n");
    linda_bench::write_artifact(
        "BENCH_SHARD_BALANCE_JSON",
        "BENCH_shard_balance.json",
        &json,
    );
}

fn bench(c: &mut Criterion) {
    // Pin the signature set once; space ids are deterministic, so the
    // first created space is the same id in every cluster below.
    let probe = {
        let (cluster, rts, ts) = sweep_cluster(1);
        let picks = balanced_arities(ts);
        cluster.shutdown();
        drop(rts);
        picks
    };

    println!(
        "\nShard sweep — {SUBMITTERS} submitters on distinct signatures, \
         {HOSTS} hosts, window off, 10 Mb-Ethernet NIC model:"
    );
    println!(
        "    {:<8} {:>8} {:>12} {:>12} {:>10} {:>12}",
        "shards", "AGSs", "multicasts", "AGS/sec", "speedup", "imbalance"
    );
    let mut points = Vec::new();
    for shards in [1u32, 2, 4] {
        let p = run_shards(shards, &probe);
        // Window off: every AGS is exactly one ordered multicast, on
        // whichever shard owns its signature.
        assert_eq!(p.multicasts, p.ags, "one ordered multicast per AGS");
        let speedup = p.ags_per_sec
            / points
                .first()
                .map_or(p.ags_per_sec, |b: &Point| b.ags_per_sec);
        println!(
            "    {:<8} {:>8} {:>12} {:>12.0} {:>9.2}x {:>9} bp",
            p.shards, p.ags, p.multicasts, p.ags_per_sec, speedup, p.imbalance_bp
        );
        points.push(p);
    }
    let speedup = points[2].ags_per_sec / points[0].ags_per_sec;
    let min_speedup: f64 = std::env::var("SHARD_SWEEP_MIN_SPEEDUP")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2.0);
    assert!(
        speedup >= min_speedup,
        "K=4 must beat K=1 by ≥{min_speedup}x on single-shard writes, got {speedup:.2}x"
    );

    let xcost = cross_shard_cost();
    println!("    cross-shard AGS spanning 2 shards: {xcost} ordered multicasts (2S+1)");
    assert_eq!(xcost, 5, "lock×2 + exec + release×2");
    println!();
    write_artifact(&points, speedup);
    write_balance_artifact(&points);

    // Criterion angle: one contended 8-submitter burst, K=1 vs K=4.
    let mut g = c.benchmark_group("shard_sweep");
    g.sample_size(10).measurement_time(Duration::from_secs(2));
    for shards in [1u32, 4] {
        let (cluster, rts, ts) = sweep_cluster(shards);
        g.bench_function(format!("burst8_k{shards}"), |b| {
            b.iter(|| {
                std::thread::scope(|s| {
                    for (i, (arity, _)) in probe.iter().enumerate() {
                        let rt = &rts[i % rts.len()];
                        let arity = *arity;
                        s.spawn(move || {
                            rt.execute(&out_ags(ts, arity, 1)).unwrap();
                        });
                    }
                });
            })
        });
        cluster.shutdown();
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
