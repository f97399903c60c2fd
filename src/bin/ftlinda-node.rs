//! `ftlinda-node`: one member of a multi-process FT-Linda cluster.
//!
//! Each process hosts one replica — kernel, sequencer member per shard
//! lane, HTTP exporter — and speaks the length-prefixed TCP protocol to
//! its peers (DESIGN.md §15). Booting N of these on one machine is what
//! `scripts/tcp_cluster.sh` does; killing one and relaunching it with
//! `--rejoin` exercises the snapshot rejoin path across real processes.
//!
//! ```text
//! ftlinda-node --id 0 --peers 127.0.0.1:7400,127.0.0.1:7401,127.0.0.1:7402 \
//!     --shards 2 --http-base 8400 --role pong
//! ```
//!
//! Roles:
//! - `idle` (default): boot, converge, serve the observability surface
//!   until killed (or `--run-secs`).
//! - `pong`: one atomic AGS per request — `in ("ping", ?i)` guarding
//!   `out ("pong", i)` — forever.
//! - `ping`: `--count` round trips of `out ("ping", i)` / `in ("pong", i)`,
//!   then write latency statistics to `--bench-out` and exit.
//! - `xtrace`: execute one cross-shard AGS with a trace id, print
//!   `XTRACE id=<trace>`, and keep serving HTTP so any member's
//!   `/cluster/trace/<id>` can assemble the federated tree.

use ftlinda::{
    Ags, Cluster, ClusterBuilder, FtError, HostId, MatchField as MF, Operand, Runtime,
    TcpClusterConfig, Transport, TypeTag,
};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

struct Opts {
    id: u32,
    peers: Vec<SocketAddr>,
    shards: u32,
    http_base: Option<u16>,
    role: String,
    count: u64,
    rejoin: bool,
    hb: Option<(u64, u64)>,
    bench_out: String,
    run_secs: Option<u64>,
    form_timeout: Duration,
}

fn usage() -> ! {
    eprintln!(
        "usage: ftlinda-node --id N --peers HOST:PORT,... [--shards K] [--http-base PORT]\n\
         \x20                [--role idle|ping|pong] [--count N] [--rejoin]\n\
         \x20                [--hb-period-ms M --hb-timeout-ms M] [--bench-out FILE]\n\
         \x20                [--run-secs S] [--form-timeout-secs S]"
    );
    std::process::exit(2)
}

fn parse_opts() -> Opts {
    let mut o = Opts {
        id: u32::MAX,
        peers: Vec::new(),
        shards: 1,
        http_base: None,
        role: "idle".into(),
        count: 1000,
        rejoin: false,
        hb: None,
        bench_out: "BENCH_tcp_pingpong.json".into(),
        run_secs: None,
        form_timeout: Duration::from_secs(30),
    };
    let mut hb_period: Option<u64> = None;
    let mut hb_timeout: Option<u64> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--id" => o.id = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--peers" => {
                o.peers = value(&mut i)
                    .split(',')
                    .map(|a| a.parse().unwrap_or_else(|_| usage()))
                    .collect()
            }
            "--shards" => o.shards = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--http-base" => o.http_base = Some(value(&mut i).parse().unwrap_or_else(|_| usage())),
            "--role" => o.role = value(&mut i),
            "--count" => o.count = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--rejoin" => o.rejoin = true,
            "--hb-period-ms" => hb_period = Some(value(&mut i).parse().unwrap_or_else(|_| usage())),
            "--hb-timeout-ms" => {
                hb_timeout = Some(value(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--bench-out" => o.bench_out = value(&mut i),
            "--run-secs" => o.run_secs = Some(value(&mut i).parse().unwrap_or_else(|_| usage())),
            "--form-timeout-secs" => {
                o.form_timeout =
                    Duration::from_secs(value(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("ftlinda-node: unknown flag {other}");
                usage()
            }
        }
        i += 1;
    }
    if o.id == u32::MAX || o.peers.is_empty() || o.id as usize >= o.peers.len() {
        eprintln!("ftlinda-node: --id must index into --peers");
        usage()
    }
    if !matches!(o.role.as_str(), "idle" | "ping" | "pong" | "xtrace") {
        eprintln!("ftlinda-node: unknown role {}", o.role);
        usage()
    }
    if let (Some(p), Some(t)) = (hb_period, hb_timeout) {
        o.hb = Some((p, t));
    }
    o
}

fn main() {
    let o = parse_opts();
    let mut b: ClusterBuilder = Cluster::builder()
        .shards(o.shards)
        .transport(Transport::Tcp(TcpClusterConfig {
            me: o.id,
            addrs: o.peers.clone(),
            rejoin: o.rejoin,
        }));
    if let Some((p, t)) = o.hb {
        b = b.heartbeats(Duration::from_millis(p), Duration::from_millis(t));
    }
    b = match o.http_base {
        Some(base) => b.http_base_port(base),
        None => b.no_http(),
    };
    let (cluster, mut rts) = match b.try_build() {
        Ok(x) => x,
        Err(e) => {
            eprintln!("ftlinda-node: transport failed to start: {e}");
            std::process::exit(2);
        }
    };
    let rt = rts.remove(0);
    let http = cluster.http_addr(HostId(o.id));
    println!(
        "ftlinda-node id={} seq={} http={} shards={} role={}{}",
        o.id,
        o.peers[o.id as usize],
        http.map(|a| a.to_string()).unwrap_or_else(|| "-".into()),
        o.shards,
        o.role,
        if o.rejoin { " rejoin" } else { "" },
    );

    // Wait for the mesh to form (or, rejoining, for any peer) before
    // doing work: a Submit sent while a link is still dialing is dropped
    // like any packet on a dead wire.
    let want = if o.rejoin { 2 } else { o.peers.len() };
    let t0 = Instant::now();
    while cluster.live_hosts().len() < want {
        if t0.elapsed() > o.form_timeout {
            eprintln!(
                "ftlinda-node: cluster never formed ({}/{} members seen)",
                cluster.live_hosts().len(),
                want
            );
            std::process::exit(3);
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let ts = match rt.create_stable_ts("main") {
        Ok(ts) => ts,
        Err(e) => {
            eprintln!("ftlinda-node: create_stable_ts failed: {e}");
            std::process::exit(3);
        }
    };
    println!("READY id={} members={}", o.id, cluster.live_hosts().len());

    match o.role.as_str() {
        "ping" => run_ping(&rt, ts, o.count, &o.bench_out, o.peers.len(), o.shards),
        "pong" => run_pong(&rt, ts, o.run_secs),
        "xtrace" => run_xtrace(&rt, ts, o.shards, o.run_secs),
        _ => match o.run_secs {
            Some(s) => std::thread::sleep(Duration::from_secs(s)),
            None => loop {
                std::thread::sleep(Duration::from_secs(3600));
            },
        },
    }
    cluster.shutdown();
}

/// `--role pong`: serve each ping with one atomic AGS — the guard takes
/// `("ping", ?i)`, the body deposits `("pong", i)` — until the runtime
/// shuts down. Eviction (a false suspicion while we were blocked) is
/// survivable: the AGS is simply resubmitted after the rejoin.
fn run_pong(rt: &Runtime, ts: ftlinda::TsId, run_secs: Option<u64>) {
    let serve = Ags::builder()
        .guard_in(ts, vec![MF::actual("ping"), MF::bind(TypeTag::Int)])
        .out(ts, vec![Operand::cst("pong"), Operand::formal(0)])
        .build()
        .expect("pong AGS is statically valid");
    let deadline = run_secs.map(|s| Instant::now() + Duration::from_secs(s));
    loop {
        // Only poll with a timeout when a deadline exists: every expired
        // execute_timeout leaves its AGS queued, so the untimed serve
        // loop blocks indefinitely instead of accreting one queued AGS
        // per second of idleness.
        let r = match deadline {
            Some(d) if Instant::now() > d => return,
            Some(_) => rt.execute_timeout(&serve, Duration::from_secs(1)),
            None => rt.execute(&serve),
        };
        match r {
            Ok(_) | Err(FtError::Timeout) => {}
            Err(FtError::Evicted) | Err(FtError::StateTransfer) => {}
            Err(FtError::Shutdown) => return,
            Err(e) => {
                eprintln!("ftlinda-node: pong serve failed: {e}");
                std::process::exit(4);
            }
        }
    }
}

/// `--role xtrace`: seed `("x", 41)` on one shard, then fire a
/// cross-shard AGS — guard `in ("x", ?int)` on the `[Str, Int]` shard,
/// body `out ("y", "done")` on the `[Str, Str]` shard — via
/// `execute_traced`, and announce the committing attempt's trace id so a
/// harness can fetch `/cluster/trace/<id>` from any member. The process
/// then idles (serving its exporter) for `--run-secs`.
fn run_xtrace(rt: &Runtime, ts: ftlinda::TsId, shards: u32, run_secs: Option<u64>) {
    let sig = |tags: &[TypeTag]| linda_tuple::Signature::new(tags.to_vec()).stable_hash();
    let guard_shard = ftlinda_ags::shard_of(ts, sig(&[TypeTag::Str, TypeTag::Int]), shards);
    let body_shard = ftlinda_ags::shard_of(ts, sig(&[TypeTag::Str, TypeTag::Str]), shards);
    if guard_shard == body_shard {
        eprintln!(
            "ftlinda-node: xtrace needs its two signatures on distinct shards \
             (both landed on {guard_shard} with --shards {shards})"
        );
        std::process::exit(4);
    }
    if let Err(e) = rt.execute(&Ags::out_one(
        ts,
        vec![Operand::cst("x"), Operand::cst(41i64)],
    )) {
        eprintln!("ftlinda-node: xtrace seed failed: {e}");
        std::process::exit(4);
    }
    let ags = Ags::builder()
        .guard_in(ts, vec![MF::actual("x"), MF::bind(TypeTag::Int)])
        .out(ts, vec![Operand::cst("y"), Operand::cst("done")])
        .build()
        .expect("xtrace AGS is statically valid");
    match rt.execute_traced(&ags) {
        Ok((_, id)) => println!("XTRACE id={id}"),
        Err(e) => {
            eprintln!("ftlinda-node: xtrace execute failed: {e}");
            std::process::exit(4);
        }
    }
    match run_secs {
        Some(s) => std::thread::sleep(Duration::from_secs(s)),
        None => loop {
            std::thread::sleep(Duration::from_secs(3600));
        },
    }
}

/// Whether `n` samples support percentile `q`: at least ten samples
/// beyond it, and below forty samples the median alone (any higher
/// percentile would be no tail). Unsupported ones print `null`.
fn supported(n: u64, q: f64) -> bool {
    if q <= 0.5 {
        n > 0
    } else {
        n >= 40 && n as f64 * (1.0 - q) >= 10.0 - 1e-9
    }
}

/// `--role ping`: drive `count` round trips and write the latency
/// profile as a small JSON object.
fn run_ping(rt: &Runtime, ts: ftlinda::TsId, count: u64, out: &str, hosts: usize, shards: u32) {
    let mut rtt_us: Vec<u64> = Vec::with_capacity(count as usize);
    let bench0 = Instant::now();
    for i in 0..count {
        let i = i as i64;
        let t0 = Instant::now();
        let mut sent = false;
        loop {
            // Resubmit on eviction/state transfer: the pair is
            // idempotent enough for a bench (a duplicate ping leaves a
            // stray pong tuple behind, never a wrong reply).
            if !sent {
                match rt.execute(&Ags::out_one(
                    ts,
                    vec![Operand::cst("ping"), Operand::cst(i)],
                )) {
                    Ok(_) => sent = true,
                    Err(FtError::Evicted) | Err(FtError::StateTransfer) => continue,
                    Err(e) => {
                        eprintln!("ftlinda-node: ping out failed: {e}");
                        std::process::exit(4);
                    }
                }
            }
            let take = Ags::in_one(ts, vec![MF::actual("pong"), MF::actual(i)])
                .expect("pong take is statically valid");
            match rt.execute(&take) {
                Ok(_) => break,
                Err(FtError::Evicted) | Err(FtError::StateTransfer) => continue,
                Err(e) => {
                    eprintln!("ftlinda-node: pong take failed: {e}");
                    std::process::exit(4);
                }
            }
        }
        rtt_us.push(t0.elapsed().as_micros() as u64);
    }
    let elapsed = bench0.elapsed();
    rtt_us.sort_unstable();
    let n = rtt_us.len() as u64;
    let pct = |p: f64| {
        if supported(n, p) {
            rtt_us[((rtt_us.len() - 1) as f64 * p) as usize].to_string()
        } else {
            "null".to_string()
        }
    };
    let mean = rtt_us.iter().sum::<u64>() as f64 / rtt_us.len() as f64;
    // Wire-level RTT, measured by the heartbeat timestamp piggyback
    // (`ftlinda_net_rtt_seconds`, one histogram child per peer, merged
    // here across peers and lanes). Unlike the closed-loop numbers above
    // it excludes sequencing and kernel work — pure network round trip.
    let wire = rt
        .metrics_snapshot()
        .histogram_family_merged("ftlinda_net_rtt_seconds");
    let wire_n = wire.as_ref().map_or(0, |h| h.count());
    let wire_us = |q: f64| match wire.as_ref().and_then(|h| h.quantile(q)) {
        Some(s) if supported(wire_n, q) => format!("{:.1}", s * 1e6),
        _ => "null".to_string(),
    };
    let json = format!(
        "{{\"bench\":\"tcp_pingpong\",\"transport\":\"tcp\",\"hosts\":{hosts},\
         \"shards\":{shards},\"count\":{count},\"elapsed_secs\":{:.6},\
         \"ops_per_sec\":{:.1},\"rtt_mean_us\":{mean:.1},\"rtt_p50_us\":{},\
         \"rtt_p95_us\":{},\"rtt_p99_us\":{},\"wire_rtt_samples\":{wire_n},\
         \"wire_rtt_p50_us\":{},\"wire_rtt_p95_us\":{},\"wire_rtt_p99_us\":{}}}\n",
        elapsed.as_secs_f64(),
        count as f64 / elapsed.as_secs_f64(),
        pct(0.50),
        pct(0.95),
        pct(0.99),
        wire_us(0.50),
        wire_us(0.95),
        wire_us(0.99),
    );
    if let Err(e) = std::fs::write(out, &json) {
        eprintln!("ftlinda-node: writing {out} failed: {e}");
        std::process::exit(4);
    }
    print!("{json}");
}
