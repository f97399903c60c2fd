//! `perfbench`: the FT-Linda benchmark.
//!
//! ```text
//! perfbench --workload <counter|tcp_pingpong|failover> --seed N --seconds S --trace <0|1>
//! ```
//!
//! One run is four rounds. Each round sets up a fresh cluster (timed as
//! set-up), drives it for a quarter of `S` seconds from one client
//! thread, checks the program's outputs and tears the cluster down. The
//! run prints every metric with its unit, taken over the rounds'
//! windows (set-up time and peak memory: medians over rounds). The last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. An untraced run reports the
//! end-to-end metrics; a traced run reports the per-layer ones, measured
//! from outside the program (per-thread `/proc` accounting, the program's
//! own counters, and isolated replays of the workload's inputs), and
//! writes its spans to `perfbench/traces/`.

mod ctr;
mod gen;
mod harness;
mod procfs;
mod replay;
mod report;
mod sim;
mod stats;
mod tcp;
mod trace;

use harness::{Args, Outcome};
use std::path::PathBuf;

/// Published figures the workloads can be set beside, each labelled with
/// whether it ran in one process or across a network.
const REFERENCES: [&str; 2] = [
    "in-process: espace (Erlang) pingpong, 5.2k-14.5k pairs/s",
    "distributed: FT-Linda on Consul, ~4 ms to order one AGS over 10 Mb Ethernet",
];

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload <counter|tcp_pingpong|failover> --seed N --seconds S --trace <0|1>"
    );
    std::process::exit(2)
}

fn parse_args(argv: &[String]) -> Args {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10,
        trace: false,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => args.seconds = value.parse().unwrap_or_else(|_| usage()),
            "--trace" => args.trace = value == "1",
            _ => usage(),
        }
    }
    if args.seconds == 0 {
        usage();
    }
    args
}

fn run(args: &Args) -> Result<Outcome, String> {
    match args.workload.as_str() {
        "counter" => sim::run(sim::Kind::Counter, args),
        "failover" => sim::run(sim::Kind::Failover, args),
        "tcp_pingpong" => tcp::run(args),
        _ => usage(),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("member") {
        std::process::exit(tcp::member_main(&argv[1..]));
    }
    let args = parse_args(&argv);
    let outcome = match run(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            std::process::exit(1);
        }
    };
    let metrics = if args.trace {
        write_spans(&args, &outcome);
        report::per_layer(&outcome)
    } else {
        match report::end_to_end(&outcome, &args) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("perfbench: {e}");
                std::process::exit(1);
            }
        }
    };
    let metrics: Vec<(&str, f64, &str)> = metrics
        .into_iter()
        .map(|(n, v)| (n, v, report::unit_of(n)))
        .collect();
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for (n, v, u) in &metrics {
        println!("  {n:<36} {v:>14.3} {u}");
    }
    for r in REFERENCES {
        println!("  reference ({r})");
    }
    let check = outcome.check();
    if let Err(e) = &check {
        println!("  WRONG RESULT: {e}");
    }
    println!(
        "{}",
        report::result_json(
            check.is_ok(),
            outcome.attempted().max(1),
            outcome.failed(),
            &metrics
        )
    );
    if check.is_err() {
        std::process::exit(1);
    }
}

/// Write the run's spans as JSON lines under `perfbench/traces/`.
fn write_spans(args: &Args, o: &Outcome) {
    let path = PathBuf::from("perfbench/traces")
        .join(format!("{}-seed{}.jsonl", args.workload, args.seed));
    let mut groups: Vec<(String, &[trace::Span])> = Vec::new();
    for (i, r) in o.rounds.iter().enumerate() {
        groups.push((format!("client.round{i}"), &r.log.spans));
        if let Some(t) = &r.trace {
            groups.push((format!("fault.round{i}"), &t.spans));
        }
    }
    if let Some(r) = &o.replay {
        groups.push(("replay".into(), &r.spans));
    }
    if let Err(e) = trace::write_spans(&path, &groups) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
}
