//! HTTP-exporter smoke target for CI: boot a 3-member cluster, drive
//! enough traffic that every pipeline histogram has samples, print each
//! member's scrape address as a `MEMBER <host> <addr>` line, then keep
//! the cluster alive so an external scraper (`scripts/ci.sh` uses
//! `curl`) can hit `/metrics`, `/healthz`, `/events` and `/trace/<id>`.
//!
//! ```text
//! cargo run --example obs_http_smoke            # serve for 5 s
//! OBS_SMOKE_SECS=30 cargo run --example obs_http_smoke
//! ```
//!
//! A `TRACE <id>` line names one AGS whose span tree is complete across
//! the cluster, so the scraper can exercise `/trace/<id>` too. One
//! never-matching `in` is left parked so `/introspect` serves a
//! non-empty blocked-AGS table and the starvation watchdog (threshold
//! lowered to 1 s here) emits `ags_starving` while the cluster idles.
//!
//! The cluster runs with two shards, and one cross-shard AGS is driven
//! so `/trace/<id>` of the printed `XTRACE <id>` line shows the
//! XLock/XExec/XRelease lanes on both shards. The time-series sampler
//! ticks every 200 ms so `/timeseries` accumulates several snapshots
//! within the serving window.

use ftlinda::{Ags, Cluster, MatchField, Operand, TypeTag};
use std::time::Duration;

fn main() {
    let secs: u64 = std::env::var("OBS_SMOKE_SECS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(5);
    let (cluster, rts) = Cluster::builder()
        .hosts(3)
        .shards(2)
        .starvation_after(Duration::from_secs(1))
        .timeseries_interval(Duration::from_millis(200))
        .build();
    let ts = rts[0].create_stable_ts("main").unwrap();

    // Concurrent submits so the batch histograms (`ftlinda_batch_size`,
    // `ftlinda_batch_flush_seconds`) get real samples under the default
    // group-commit config.
    let handles: Vec<_> = (0..32i64)
        .map(|i| {
            rts[(i % 3) as usize].execute_async(&Ags::out_one(
                ts,
                vec![Operand::cst("job"), Operand::cst(i)],
            ))
        })
        .collect();
    let sample_trace = handles[0].trace_id();
    for h in handles {
        h.wait().unwrap();
    }
    for rt in &rts {
        assert!(rt.wait_applied(rts[0].applied_seq(), Duration::from_secs(5)));
    }

    // Park one guard that can never fire — ("job", -1) is never
    // deposited — so the blocked-AGS table and ags_starving events have
    // something to show. The handle is dropped, not awaited; shutdown
    // resolves it.
    let parked = rts[1].execute_async(
        &Ags::in_one(ts, vec![MatchField::actual("job"), MatchField::actual(-1)]).unwrap(),
    );
    drop(parked);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while rts.iter().any(|rt| rt.blocked_len() == 0) {
        assert!(
            std::time::Instant::now() < deadline,
            "parked guard never blocked"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // One cross-shard AGS: the guard `in` consumes a `[Str, Int]` tuple,
    // the body `out` deposits `[Str, Str]` — under two shards those
    // signatures live on different shards, so the commit runs the
    // XLock/XExec/XRelease protocol and leaves a transaction trace with
    // a span lane per shard. Its id is printed as `XTRACE`.
    rts[0].out(ts, linda_tuple::tuple!("x", 41)).unwrap();
    let cross = Ags::builder()
        .guard_in(
            ts,
            vec![MatchField::actual("x"), MatchField::bind(TypeTag::Int)],
        )
        .out(ts, vec![Operand::cst("y"), Operand::cst("done")])
        .build()
        .unwrap();
    rts[1].execute(&cross).unwrap();
    let xtrace = rts[1]
        .obs()
        .spans()
        .recent()
        .into_iter()
        .rev()
        .find(|s| s.stage == "xbegin")
        .expect("cross-shard commit recorded xbegin")
        .trace;
    // Every replica has applied both shards' streams before the
    // addresses are printed, so the counters a scrape reads are final.
    for shard in 0..2 {
        let top = rts.iter().map(|rt| rt.applied_seqs()[shard]).max();
        for rt in &rts {
            assert!(rt.wait_applied_shard(shard, top.unwrap(), Duration::from_secs(5)));
        }
    }

    for rt in &rts {
        let addr = cluster
            .http_addr(rt.host())
            .expect("exporter bound for every member");
        println!("MEMBER {} {addr}", rt.host().0);
    }
    println!("TRACE {sample_trace}");
    println!("XTRACE {xtrace}");
    println!("SERVING {secs}s");

    std::thread::sleep(Duration::from_secs(secs));
    cluster.shutdown();
    println!("DONE");
}
