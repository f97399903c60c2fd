//! `ftlinda-top`: the out-of-process cluster aggregator.
//!
//! Scrapes every member's HTTP exporter — `/metrics/snapshot` (the
//! `ftlsnap` wire format, merge modes and histogram layouts intact) and
//! `/timeseries` — and renders one merged Prometheus page with exactly
//! the shape of the in-process `/metrics/cluster`, without being a
//! member itself. Alongside the page it appends one `BENCH_*`-style
//! JSON snapshot per tick, so a run leaves a machine-readable record of
//! cluster health over time.
//!
//! ```text
//! ftlinda-top --targets 127.0.0.1:8400,127.0.0.1:8401,127.0.0.1:8402 \
//!     --interval-ms 1000 --ticks 10 --page-out cluster.prom \
//!     --json-out BENCH_cluster_top.json
//! ```
//!
//! Unreachable members are never papered over: each tick's JSON lists
//! `reachable`/`unreachable` target arrays, and the merged page carries
//! one `ftlinda_top_scrape_up{target="..."}` gauge child per target.

use ftlinda::{http_get, obs, FEDERATION_TIMEOUT};
use std::net::SocketAddr;
use std::time::Duration;

struct Opts {
    targets: Vec<SocketAddr>,
    interval: Duration,
    ticks: u64,
    page_out: Option<String>,
    json_out: Option<String>,
    quiet: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: ftlinda-top --targets HOST:PORT,... [--interval-ms M] [--ticks N]\n\
         \x20                [--page-out FILE] [--json-out FILE] [--quiet]\n\
         \n\
         Scrape each target's /metrics/snapshot + /timeseries every interval,\n\
         write the merged Prometheus page and one JSON status line per tick.\n\
         --ticks 0 runs until killed."
    );
    std::process::exit(2)
}

fn parse_opts() -> Opts {
    let mut o = Opts {
        targets: Vec::new(),
        interval: Duration::from_millis(1000),
        ticks: 1,
        page_out: None,
        json_out: None,
        quiet: false,
    };
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize| -> String {
        *i += 1;
        args.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < args.len() {
        match args[i].as_str() {
            "--targets" => {
                o.targets = value(&mut i)
                    .split(',')
                    .map(|a| a.parse().unwrap_or_else(|_| usage()))
                    .collect()
            }
            "--interval-ms" => {
                o.interval =
                    Duration::from_millis(value(&mut i).parse().unwrap_or_else(|_| usage()))
            }
            "--ticks" => o.ticks = value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--page-out" => o.page_out = Some(value(&mut i)),
            "--json-out" => o.json_out = Some(value(&mut i)),
            "--quiet" => o.quiet = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("ftlinda-top: unknown flag {other}");
                usage()
            }
        }
        i += 1;
    }
    if o.targets.is_empty() {
        eprintln!("ftlinda-top: --targets is required");
        usage()
    }
    o
}

/// One scrape round's result: the merged snapshot plus who answered.
struct Scrape {
    merged: obs::RegistrySnapshot,
    reachable: Vec<SocketAddr>,
    unreachable: Vec<SocketAddr>,
    /// Timeseries sample counts per reachable target.
    series: Vec<(SocketAddr, u64)>,
}

/// One scrape round: fetch every target's snapshot, merge, and report
/// who answered.
fn scrape(targets: &[SocketAddr]) -> Scrape {
    // The aggregator's own registry seeds the merge: per-target `up`
    // gauges plus scrape-error counters, so the merged page itself says
    // which members it covers.
    let own = obs::Registry::new();
    let up = own.gauge_family(
        "ftlinda_top_scrape_up",
        "1 if the member's /metrics/snapshot answered this aggregator tick",
    );
    let mut reachable = Vec::new();
    let mut unreachable = Vec::new();
    let mut fetched: Vec<obs::RegistrySnapshot> = Vec::new();
    let mut series_counts: Vec<(SocketAddr, u64)> = Vec::new();
    for t in targets {
        let label = t.to_string();
        let child = up.with(&[("target", &label)]);
        let snap = http_get(*t, "/metrics/snapshot", FEDERATION_TIMEOUT)
            .ok()
            .filter(|(status, _)| *status == 200)
            .and_then(|(_, body)| obs::RegistrySnapshot::from_wire(&body).ok());
        match snap {
            Some(s) => {
                child.set(1);
                reachable.push(*t);
                fetched.push(s);
                // Count the ring's samples (one `at_us` stamp each)
                // rather than storing the whole ring.
                if let Ok((200, body)) = http_get(*t, "/timeseries", FEDERATION_TIMEOUT) {
                    let n = body.matches("\"at_us\"").count() as u64;
                    series_counts.push((*t, n));
                }
            }
            None => {
                child.set(0);
                unreachable.push(*t);
            }
        }
    }
    let mut merged = own.snapshot();
    for s in &fetched {
        merged.merge(s);
    }
    Scrape {
        merged,
        reachable,
        unreachable,
        series: series_counts,
    }
}

fn json_addr_list(addrs: &[SocketAddr]) -> String {
    let items: Vec<String> = addrs.iter().map(|a| format!("\"{a}\"")).collect();
    format!("[{}]", items.join(","))
}

fn main() {
    let o = parse_opts();
    let mut tick: u64 = 0;
    let mut json_lines = String::new();
    loop {
        tick += 1;
        let Scrape {
            merged,
            reachable,
            unreachable,
            series,
        } = scrape(&o.targets);
        let page = merged.render();
        if let Some(path) = &o.page_out {
            if let Err(e) = std::fs::write(path, &page) {
                eprintln!("ftlinda-top: writing {path} failed: {e}");
                std::process::exit(4);
            }
        }
        let completions = merged.counter("ftlinda_ags_completions_total").unwrap_or(0);
        let tuples = merged.gauge("ftlinda_stable_tuples").unwrap_or(0);
        let blocked = merged.gauge("ftlinda_blocked_ags").unwrap_or(0);
        let series_json: Vec<String> = series
            .iter()
            .map(|(a, n)| format!("{{\"target\":\"{a}\",\"samples\":{n}}}"))
            .collect();
        let line = format!(
            "{{\"bench\":\"cluster_top\",\"tick\":{tick},\"targets\":{},\
             \"reachable\":{},\"unreachable\":{},\
             \"ags_completions_total\":{completions},\"stable_tuples\":{tuples},\
             \"blocked_ags\":{blocked},\"timeseries\":[{}]}}\n",
            o.targets.len(),
            json_addr_list(&reachable),
            json_addr_list(&unreachable),
            series_json.join(","),
        );
        json_lines.push_str(&line);
        if let Some(path) = &o.json_out {
            if let Err(e) = std::fs::write(path, &json_lines) {
                eprintln!("ftlinda-top: writing {path} failed: {e}");
                std::process::exit(4);
            }
        }
        if !o.quiet {
            print!("{line}");
        }
        if o.ticks != 0 && tick >= o.ticks {
            break;
        }
        std::thread::sleep(o.interval);
    }
    // The final page doubles as the run's artifact when --page-out was
    // not given: print it once so a piped invocation captures it.
    if o.page_out.is_none() && !o.quiet {
        print!("{}", scrape(&o.targets).merged.render());
    }
}
