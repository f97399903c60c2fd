//! Throughput vs. batch window — the tuning curve behind the group
//! commit in the sequencer's submit path.
//!
//! Eight concurrent submitters hammer a 4-host cluster while the
//! coordinator's coalescing window sweeps {0 (off), 100µs, 1ms}. For
//! each point we report AGS throughput and *ordered multicasts per
//! AGS*: 1.000 with batching off (the classic one-record-per-AGS
//! protocol), strictly below 1 once concurrent submits coalesce.
//!
//! Besides the printed table, the run writes the whole
//! `BENCH_msgs_per_ags.json` artifact (to `$BENCH_MSGS_PER_AGS_JSON` or
//! the working directory) so CI can archive the curve. The `shard_sweep`
//! bench writes its own file.

use criterion::{criterion_group, criterion_main, Criterion};
use ftlinda::{Ags, Cluster, Operand, TsId};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const HOSTS: u32 = 4;
const SUBMITTERS: usize = 8;
const PER_SUBMITTER: usize = 150;

struct Point {
    window_us: u64,
    ags: u64,
    multicasts: u64,
    batches: u64,
    batch_entries: u64,
    ags_per_sec: f64,
}

/// Wait until physical message counters stop moving, so trailing
/// deliveries of the previous phase don't leak into the measurement.
fn wait_net_quiesced(cluster: &Cluster) {
    let deadline = Instant::now() + Duration::from_secs(2);
    let mut last = cluster.net_stats().0;
    let mut stable = 0;
    while Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
        let now = cluster.net_stats().0;
        if now == last {
            stable += 1;
            if stable >= 3 {
                return;
            }
        } else {
            stable = 0;
            last = now;
        }
    }
}

fn run_window(window: Duration) -> Point {
    // Checkpoint markers would perturb the multicast-per-AGS accounting;
    // measure the bare protocol.
    let mut b = Cluster::builder().hosts(HOSTS).no_checkpoints();
    if window.is_zero() {
        b = b.no_batching();
    } else {
        b = b.batch_window(window);
    }
    let (cluster, rts) = b.build();
    let ts: TsId = rts[0].create_stable_ts("main").unwrap();
    wait_net_quiesced(&cluster);
    cluster.order_stats().reset();
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for i in 0..SUBMITTERS {
            let rt = &rts[i % rts.len()];
            s.spawn(move || {
                for k in 0..PER_SUBMITTER {
                    rt.execute(&Ags::out_one(
                        ts,
                        vec![Operand::cst("s"), Operand::cst(k as i64)],
                    ))
                    .unwrap();
                }
            });
        }
    });
    let secs = t0.elapsed().as_secs_f64();
    wait_net_quiesced(&cluster);
    let stats = cluster.order_stats();
    let point = Point {
        window_us: window.as_micros() as u64,
        ags: (SUBMITTERS * PER_SUBMITTER) as u64,
        multicasts: stats.ordered_multicasts(),
        batches: stats.batches(),
        batch_entries: stats.batch_entries(),
        ags_per_sec: (SUBMITTERS * PER_SUBMITTER) as f64 / secs,
    };
    cluster.shutdown();
    point
}

fn write_artifact(points: &[Point]) {
    // The window-sweep points run on an unsharded (K=1) cluster.
    let mut json = String::from("{\n  \"bench\": \"msgs_per_ags\",\n");
    let _ = writeln!(
        json,
        "  \"hosts\": {HOSTS},\n  \"submitters\": {SUBMITTERS},\n  \"points\": ["
    );
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"window_us\": {}, \"shards\": 1, \"ags\": {}, \
             \"ordered_multicasts\": {}, \
             \"batches\": {}, \"batch_entries\": {}, \"multicasts_per_ags\": {:.4}, \
             \"ags_per_sec\": {:.1}}}{comma}",
            p.window_us,
            p.ags,
            p.multicasts,
            p.batches,
            p.batch_entries,
            p.multicasts as f64 / p.ags as f64,
            p.ags_per_sec,
        );
    }
    json.push_str("  ]\n}\n");
    linda_bench::write_artifact("BENCH_MSGS_PER_AGS_JSON", "BENCH_msgs_per_ags.json", &json);
}

fn bench(c: &mut Criterion) {
    println!("\nThroughput vs batch window — {SUBMITTERS} submitters, {HOSTS} hosts:");
    println!(
        "    {:<12} {:>8} {:>12} {:>10} {:>16} {:>12}",
        "window", "AGSs", "multicasts", "batches", "multicasts/AGS", "AGS/sec"
    );
    let mut points = Vec::new();
    for window in [
        Duration::ZERO,
        Duration::from_micros(100),
        Duration::from_millis(1),
    ] {
        let p = run_window(window);
        println!(
            "    {:<12} {:>8} {:>12} {:>10} {:>16.3} {:>12.0}",
            if p.window_us == 0 {
                "off".to_string()
            } else {
                format!("{}us", p.window_us)
            },
            p.ags,
            p.multicasts,
            p.batches,
            p.multicasts as f64 / p.ags as f64,
            p.ags_per_sec,
        );
        if p.window_us == 0 {
            assert_eq!(p.multicasts, p.ags, "off: one ordered multicast per AGS");
        } else {
            assert!(
                p.multicasts < p.ags,
                "window {}us: coalescing must order fewer multicasts ({}) than AGSs ({})",
                p.window_us,
                p.multicasts,
                p.ags
            );
        }
        points.push(p);
    }
    println!();
    write_artifact(&points);

    // Criterion angle: end-to-end latency of one contended burst at each
    // window setting (dominated by the flush cadence).
    let mut g = c.benchmark_group("batch_window");
    g.sample_size(10).measurement_time(Duration::from_secs(2));
    for (label, window) in [
        ("off", Duration::ZERO),
        ("100us", Duration::from_micros(100)),
    ] {
        let mut b = Cluster::builder().hosts(HOSTS).no_checkpoints();
        if window.is_zero() {
            b = b.no_batching();
        } else {
            b = b.batch_window(window);
        }
        let (cluster, rts) = b.build();
        let ts = rts[0].create_stable_ts("bench").unwrap();
        g.bench_function(format!("burst8_{label}"), |bch| {
            bch.iter(|| {
                std::thread::scope(|s| {
                    for i in 0..SUBMITTERS {
                        let rt = &rts[i % rts.len()];
                        s.spawn(move || {
                            rt.execute(&Ags::out_one(
                                ts,
                                vec![Operand::cst("b"), Operand::cst(1i64)],
                            ))
                            .unwrap();
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
