//! End-to-end tests of the tuple-space observatory: `/introspect`,
//! per-signature metric families, the cluster-scope `/metrics`
//! aggregate, the starvation watchdog and trace truncation reporting —
//! all over real TCP against a live cluster.

use ftlinda::{Ags, Cluster, HostId, MatchField, Operand};
use linda_tuple::{pat, tuple};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Minimal HTTP/1.1 GET over std TCP; returns `(status, body)`.
fn http_get(addr: SocketAddr, path: &str) -> (u16, String) {
    let mut s = TcpStream::connect(addr).expect("connect exporter");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(
        s,
        "GET {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n"
    )
    .unwrap();
    let mut raw = String::new();
    s.read_to_string(&mut raw).expect("read response");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("numeric status");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_string())
        .unwrap_or_default();
    (status, body)
}

/// Value of the first sample named `name` (exact match before a space
/// or `{`) in a Prometheus text page.
fn sample(page: &str, name: &str) -> Option<f64> {
    page.lines().find_map(|l| {
        let rest = l.strip_prefix(name)?;
        let rest = rest.strip_prefix(' ')?;
        rest.parse().ok()
    })
}

#[test]
fn introspect_occupancy_matches_exact_store_recount() {
    let (cluster, rts) = Cluster::new(3);
    let jobs = rts[0].create_stable_ts("jobs").unwrap();
    let acks = rts[0].create_stable_ts("acks").unwrap();
    // Two signatures in "jobs", one in "acks".
    for i in 0..5i64 {
        rts[(i % 3) as usize].out(jobs, tuple!("job", i)).unwrap();
    }
    rts[1].out(jobs, tuple!("flag", true)).unwrap();
    rts[2].out(acks, tuple!("ack", 1, 2.5)).unwrap();
    // Withdraw one job so occupancy (4) diverges from high-water (5).
    rts[0].in_(jobs, &pat!("job", ?int)).unwrap();
    let top = rts.iter().map(|rt| rt.applied_seq()).max().unwrap();
    for rt in &rts {
        assert!(rt.wait_applied(top, Duration::from_secs(5)));
    }

    for rt in &rts {
        // Exact recount of this replica's stores, grouped by signature.
        for (ts, name) in [(jobs, "jobs"), (acks, "acks")] {
            let mut recount: BTreeMap<String, usize> = BTreeMap::new();
            for t in rt.snapshot(ts).unwrap() {
                *recount.entry(t.signature().to_string()).or_default() += 1;
            }
            let report = rt.introspect().expect("introspection on by default");
            let space = report
                .spaces
                .iter()
                .find(|s| s.name == name)
                .expect("space present in report");
            let census: BTreeMap<String, usize> = space
                .signatures
                .iter()
                .filter(|o| o.count > 0)
                .map(|o| (o.signature.to_string(), o.count))
                .collect();
            assert_eq!(
                census,
                recount,
                "census == recount for {name} on h{}",
                rt.host()
            );
        }

        let addr = cluster.http_addr(rt.host()).unwrap();
        let (code, body) = http_get(addr, "/introspect");
        assert_eq!(code, 200);
        // 4 jobs + 1 flag left in "jobs"; high-water remembers the 5th job.
        assert!(body.contains("\"name\":\"jobs\",\"tuples\":5"), "{body}");
        assert!(
            body.contains("{\"signature\":\"<str,int>\",\"count\":4,\"high_water\":5}"),
            "{body}"
        );
        assert!(
            body.contains("{\"signature\":\"<str,bool>\",\"count\":1,\"high_water\":1}"),
            "{body}"
        );
        assert!(body.contains("\"name\":\"acks\",\"tuples\":1"), "{body}");
        assert!(body.contains("\"signature\":\"<str,int,float>\""), "{body}");
        // Hot signatures lead with the busiest one.
        assert!(
            body.contains(
                "\"hot_signatures\":[{\"space\":\"jobs\",\"signature\":\"<str,int>\",\"count\":4}"
            ),
            "{body}"
        );
        // Matching cost is accounted: the in_ above probed and hit.
        assert!(body.contains("\"attempts\":"), "{body}");

        // The same numbers render as labeled metric families.
        let (code, metrics) = http_get(addr, "/metrics");
        assert_eq!(code, 200);
        assert!(
            metrics.contains("ftlinda_ts_tuples{space=\"jobs\",signature=\"<str,int>\"} 4"),
            "{metrics}"
        );
        assert!(
            metrics
                .contains("ftlinda_ts_tuples_high_water{space=\"jobs\",signature=\"<str,int>\"} 5"),
            "{metrics}"
        );
        assert!(
            metrics.contains("ftlinda_match_probes_total{space=\"jobs\"}"),
            "{metrics}"
        );
        assert!(
            metrics.contains("ftlinda_match_probe_efficiency_bp{space=\"jobs\"}"),
            "{metrics}"
        );
    }
    cluster.shutdown();
}

#[test]
fn cluster_scope_metrics_merge_all_live_members() {
    let (cluster, rts) = Cluster::new(3);
    let ts = rts[0].create_stable_ts("main").unwrap();
    for i in 0..6i64 {
        rts[(i % 3) as usize].out(ts, tuple!("n", i)).unwrap();
    }
    let top = rts.iter().map(|rt| rt.applied_seq()).max().unwrap();
    for rt in &rts {
        assert!(rt.wait_applied(top, Duration::from_secs(5)));
    }

    // Expected sum over member registries (completions are origin-local,
    // so the sum covers all 7 calls exactly once).
    let expected: u64 = rts
        .iter()
        .map(|rt| {
            rt.obs()
                .snapshot()
                .counter("ftlinda_ags_completions_total")
                .unwrap_or(0)
        })
        .sum();
    assert_eq!(expected, 7, "6 outs + 1 create");

    let aggregate = cluster.cluster_metrics_text();
    assert_eq!(
        sample(&aggregate, "ftlinda_ags_completions_total"),
        Some(expected as f64),
        "{aggregate}"
    );
    // Cluster-registry metrics and per-member families share the page.
    assert!(
        aggregate.contains("ftlinda_digest_divergence_total"),
        "{aggregate}"
    );
    // Occupancy gauges sum across the 3 replicas: 6 tuples each.
    assert!(
        aggregate.contains("ftlinda_ts_tuples{space=\"main\",signature=\"<str,int>\"} 18"),
        "{aggregate}"
    );

    // Every member serves the identical aggregate route.
    for rt in &rts {
        let addr = cluster.http_addr(rt.host()).unwrap();
        let (code, body) = http_get(addr, "/metrics/cluster");
        assert_eq!(code, 200);
        assert_eq!(
            sample(&body, "ftlinda_ags_completions_total"),
            Some(expected as f64)
        );
    }

    // A crashed member drops out of the aggregate.
    cluster.crash(HostId(2));
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let page = cluster.cluster_metrics_text();
        let v = sample(
            &page,
            "ftlinda_ts_tuples{space=\"main\",signature=\"<str,int>\"}",
        );
        if v == Some(12.0) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "crashed member still aggregated: {v:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    cluster.shutdown();
}

#[test]
fn starving_guard_fires_watchdog_and_shows_in_blocked_table() {
    let (cluster, rts) = Cluster::builder()
        .hosts(3)
        .starvation_after(Duration::from_millis(40))
        .build();
    let ts = rts[0].create_stable_ts("main").unwrap();
    // A near-miss tuple: same signature as the guard, wrong value.
    rts[0].out(ts, tuple!("job", 999)).unwrap();
    // A guard that cannot fire until we deposit ("job", 1).
    let starved = Ags::in_one(ts, vec![MatchField::actual("job"), MatchField::actual(1)]).unwrap();
    let handle = rts[1].execute_async(&starved);

    // The watchdog emits ags_starving on every member (each replica
    // blocks the same AGS) once the threshold passes.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let fired = rts
            .iter()
            .all(|rt| !rt.obs().events().recent_of("ags_starving").is_empty());
        if fired {
            break;
        }
        assert!(Instant::now() < deadline, "watchdog never fired");
        std::thread::sleep(Duration::from_millis(10));
    }
    let ev = &rts[0].obs().events().recent_of("ags_starving")[0];
    let field = |k: &str| {
        ev.fields
            .iter()
            .find(|(n, _)| n == k)
            .map(|(_, v)| v.clone())
            .unwrap_or_default()
    };
    assert!(
        field("guards").contains("<str,int>"),
        "guard signature in event"
    );
    assert_eq!(field("nearest_miss"), "1", "the 999 tuple is the near miss");
    assert!(field("age_ms").parse::<u64>().unwrap() >= 40);

    // The blocked table shows it as starving, with its age and miss count.
    let addr = cluster.http_addr(rts[0].host()).unwrap();
    let (code, body) = http_get(addr, "/introspect");
    assert_eq!(code, 200);
    assert!(body.contains("\"starving\":true"), "{body}");
    assert!(body.contains("\"nearest_miss\":1"), "{body}");
    let (_, metrics) = http_get(addr, "/metrics");
    assert!(
        sample(&metrics, "ftlinda_ags_starving").unwrap_or(0.0) >= 1.0,
        "{metrics}"
    );

    // Satisfying the guard ends the starvation; retry accounting shows
    // the wasted wakeups that preceded it.
    rts[2].out(ts, tuple!("job", 1)).unwrap();
    handle.wait().unwrap();
    // The wait returns once host 1 applied the wake-up; host 0 may lag.
    assert!(rts[0].wait_applied(rts[1].applied_seq(), Duration::from_secs(5)));
    let snap = rts[0].obs().snapshot();
    let retries = snap
        .counter_family("ftlinda_blocked_retries_total")
        .expect("retry family registered");
    assert!(
        retries
            .iter()
            .any(|(labels, n)| labels.contains("outcome=\"fired\"") && *n >= 1),
        "fired retry counted: {retries:?}"
    );
    cluster.shutdown();
}

#[test]
fn trace_reports_truncation_once_spans_age_out() {
    let (cluster, rts) = Cluster::new(3);
    let ts = rts[0].create_stable_ts("main").unwrap();
    let handle = rts[0].execute_async(&Ags::out_one(
        ts,
        vec![Operand::cst("t"), Operand::cst(1i64)],
    ));
    let id = handle.trace_id();
    handle.wait().unwrap();
    for rt in &rts {
        assert!(rt.wait_applied(rts[0].applied_seq(), Duration::from_secs(5)));
    }
    let all_hosts: Vec<u32> = rts.iter().map(|rt| rt.host().0).collect();
    let tree = cluster.trace(id);
    assert!(tree.is_complete(&all_hosts));
    assert!(!tree.truncated, "nothing evicted yet");
    assert!(tree.to_json().contains("\"truncated\":false"));

    // Age the origin's ring out from under the trace: its spans are the
    // oldest, so flooding the log evicts them first.
    let spans = rts[0].obs().spans_handle();
    for i in 0..9000u64 {
        spans.push(ftlinda::obs::SpanRecord {
            trace: ftlinda::obs::TraceId::new(0, u64::MAX - 1),
            stage: "noise".into(),
            host: 0,
            at_micros: ftlinda::obs::now_micros() + i,
            fields: vec![],
        });
    }
    let tree = cluster.trace(id);
    assert!(
        tree.truncated,
        "evicted spans newer than the trace must mark it truncated"
    );
    assert!(tree.to_json().contains("\"truncated\":true"));
    cluster.shutdown();
}

#[test]
fn restart_keeps_observatory_configuration() {
    let (cluster, rts) = Cluster::builder()
        .hosts(3)
        .starvation_after(Duration::from_millis(30))
        .build();
    let ts = rts[0].create_stable_ts("main").unwrap();
    rts[0].out(ts, tuple!("keep", 7)).unwrap();
    cluster.crash(HostId(2));
    // Consume the crash's failure tuple first, so the restarted replica's
    // store holds exactly the one tuple whichever side of its rejoin the
    // failure was ordered on.
    rts[0].in_(ts, &pat!("failure", 2)).unwrap();
    let rt2 = cluster.restart(HostId(2));
    assert!(rt2.wait_applied(rts[0].applied_seq(), Duration::from_secs(5)));
    // The fresh incarnation carries the same observability config...
    assert_eq!(
        rt2.config().starvation_after,
        Some(Duration::from_millis(30))
    );
    // ...and its rebuilt census matches its restored store.
    let report = rt2.introspect().unwrap();
    let main = report.spaces.iter().find(|s| s.name == "main").unwrap();
    assert_eq!(main.tuples, 1);
    assert_eq!(main.signatures[0].count, 1);
    assert_eq!(main.signatures[0].signature.to_string(), "<str,int>");
    cluster.shutdown();
}
