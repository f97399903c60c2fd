//! Metric names and units, their computation from a run's outcome, and
//! the result line.

use crate::ctr::CtrDelta;
use crate::gen::FAULT_PERIOD_NS;
use crate::harness::{Args, Outcome};
use crate::procfs::GroupTotals;
use crate::stats::{mean, median, per_op, percentile, summarize, windows};
use crate::trace::TRACE_SLICE_NS;
use std::collections::BTreeMap;

/// End-to-end metrics (untraced runs): name and unit.
pub const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "ops/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics (traced runs): name and unit. Every traced run
/// reports all of them; a layer a workload never enters reads 0.
pub const PER_LAYER: [(&str, &str); 56] = [
    ("process.cpu_us_per_op", "us/op"),
    ("process.unattributed_cpu_us_per_op", "us/op"),
    ("client.cpu_us_per_op", "us/op"),
    ("client.latency_p999_us", "us"),
    ("client.error_rate", "ratio"),
    ("core.apply.cpu_us_per_op", "us/op"),
    ("core.apply.wait_us_per_op", "us/op"),
    ("core.services.cpu_us_per_op", "us/op"),
    ("core.services.wait_us_per_op", "us/op"),
    ("other.cpu_us_per_op", "us/op"),
    ("core.submit_us", "us"),
    ("core.notify_us", "us"),
    ("core.total_us", "us"),
    ("core.unattributed_us", "us"),
    ("consul.sequencer.cpu_us_per_op", "us/op"),
    ("consul.sequencer.wait_us_per_op", "us/op"),
    ("consul.order_us", "us"),
    ("consul.batch_wait_us", "us"),
    ("consul.multicasts_per_op", "count/op"),
    ("consul.batch_size", "count"),
    ("consul.net_msgs_per_op", "count/op"),
    ("consul.net_bytes_per_op", "B/op"),
    ("consul.simnet.cpu_us_per_op", "us/op"),
    ("consul.tcp.cpu_us_per_op", "us/op"),
    ("consul.tcp.wait_us_per_op", "us/op"),
    ("consul.tcp.writer_wakeups_per_op", "count/op"),
    ("consul.tcp.reader_wakeups_per_op", "count/op"),
    ("consul.tcp.reconnects", "count"),
    ("consul.sequencer.order_us", "us"),
    ("consul.tcp.order_us", "us"),
    ("consul.wire.encode_ns", "ns"),
    ("consul.wire.decode_ns", "ns"),
    ("consul.view_changes", "count"),
    ("consul.retransmits", "count"),
    ("consul.rejoin_bytes", "B"),
    ("kernel.proto.encode_ns", "ns"),
    ("kernel.proto.decode_ns", "ns"),
    ("kernel.proto.bytes", "B"),
    ("kernel.apply_ns", "ns"),
    ("kernel.apply_obs_ns", "ns"),
    ("obs.apply_overhead_ns", "ns"),
    ("kernel.checkpoint_ms", "ms"),
    ("kernel.checkpoint_bytes", "B"),
    ("kernel.restore_ms", "ms"),
    ("kernel.digest_ms", "ms"),
    ("kernel.execute_us", "us"),
    ("kernel.checkpoints_per_kop", "count/kop"),
    ("kernel.checkpoint_insitu_ms", "ms"),
    ("kernel.blocked_wakeups_per_op", "count/op"),
    ("space.indexed.op_ns", "ns"),
    ("space.adaptive.op_ns", "ns"),
    ("space.probes_per_attempt", "count"),
    ("space.cache_hits_per_op", "count/op"),
    ("failover.outage_ms", "ms"),
    ("failover.rejoin_ms", "ms"),
    ("bench.trace_overhead_pct", "%"),
];

/// Replicas of every workload's cluster.
const REPLICAS: f64 = 3.0;

/// End-to-end window length of `workload`. A `failover` window is one
/// fault period, aligned with the schedule, so each holds one crash, its
/// outage and one rejoin: a slower failover or rejoin slows every window,
/// and so the figure.
fn window_ns(workload: &str) -> u64 {
    if workload == "failover" {
        FAULT_PERIOD_NS
    } else {
        500_000_000
    }
}

fn median_of(v: impl Iterator<Item = f64>) -> f64 {
    median(&v.collect::<Vec<_>>()).unwrap_or(0.0)
}

/// The end-to-end metrics of an untraced run, by name: the better end of
/// the windows of every round (see [`summarize`]), and medians over the
/// rounds for memory and set-up.
pub fn end_to_end(o: &Outcome, args: &Args) -> Result<Vec<(&'static str, f64)>, String> {
    let mut all = Vec::new();
    for (i, r) in o.rounds.iter().enumerate() {
        let ws = windows(&r.log.ops, window_ns(&args.workload), args.round_ns());
        let rates: Vec<String> = ws
            .iter()
            .map(|w| format!("{:.0}/{:.0}", w.rate, w.p99_us))
            .collect();
        eprintln!("round {i} ops/s and p99 us per window: {}", rates.join(" "));
        all.extend(ws);
    }
    let w = summarize(&all).ok_or("no op completed in the timed phase")?;
    Ok(vec![
        ("ops_per_s", w.ops_per_s),
        ("latency_p50_us", w.p50_us),
        ("latency_p99_us", w.p99_us),
        (
            "peak_rss_mb",
            median_of(o.rounds.iter().map(|r| r.peak_rss_kb as f64 / 1024.0)),
        ),
        ("setup_s", median_of(o.rounds.iter().map(|r| r.setup_s))),
    ])
}

/// The per-layer metrics of a traced run, by name, pooled over rounds.
pub fn per_layer(o: &Outcome) -> Vec<(&'static str, f64)> {
    let ops: u64 = o.rounds.iter().map(|r| r.log.ops.len() as u64).sum();
    let mut groups: BTreeMap<&str, GroupTotals> = BTreeMap::new();
    let (mut writer, mut reader) = (GroupTotals::default(), GroupTotals::default());
    let mut c = CtrDelta::default();
    let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut process_cpu = 0;
    for t in o.rounds.iter().filter_map(|r| r.trace.as_ref()) {
        for (name, g) in &t.groups {
            groups.entry(name).or_default().merge(g);
        }
        process_cpu += t.process_cpu_ns;
        writer.merge(&t.tcp_writer);
        reader.merge(&t.tcp_reader);
        c.add(&t.ctr);
        for (name, v) in &t.samples {
            samples.entry(name).or_default().extend(v);
        }
    }
    let g = |name: &str| groups.get(name).copied().unwrap_or_default();
    let us = |ns: u64| per_op(ns as f64 / 1e3, ops);
    let threads_cpu: u64 = groups.values().map(|v| v.cpu_ns).sum();
    let mut lat: Vec<u64> = o
        .rounds
        .iter()
        .flat_map(|r| r.log.ops.iter().map(|op| op.latency()))
        .collect();
    lat.sort_unstable();
    let ags: Vec<f64> = o
        .rounds
        .iter()
        .flat_map(|r| r.log.ags_ns.iter().map(|n| *n as f64 / 1e3))
        .collect();
    let submit = c.client.submit.mean(1e6);
    let order = c.client.order.mean(1e6);
    let notify = c.client.notify.mean(1e6);
    let execute = c.all.execute.mean(1e6);
    let mut m = vec![
        ("process.cpu_us_per_op", us(process_cpu)),
        // What the thread groups miss of the process total: CPU threads
        // used after their last reading before exiting, and tick rounding.
        (
            "process.unattributed_cpu_us_per_op",
            per_op((process_cpu as f64 - threads_cpu as f64) / 1e3, ops),
        ),
        ("client.cpu_us_per_op", us(g("client").cpu_ns)),
        (
            "client.latency_p999_us",
            percentile(&lat, 0.999).unwrap_or(0) as f64 / 1e3,
        ),
        (
            "client.error_rate",
            per_op(o.failed() as f64, o.attempted()),
        ),
        ("core.apply.cpu_us_per_op", us(g("core.apply").cpu_ns)),
        ("core.apply.wait_us_per_op", us(g("core.apply").wait_ns)),
        ("core.services.cpu_us_per_op", us(g("core.services").cpu_ns)),
        (
            "core.services.wait_us_per_op",
            us(g("core.services").wait_ns),
        ),
        ("other.cpu_us_per_op", us(g("other").cpu_ns)),
        ("core.submit_us", submit),
        ("core.notify_us", notify),
        ("core.total_us", c.client.total.mean(1e6)),
        (
            "core.unattributed_us",
            mean(&ags) - submit - order - execute - notify,
        ),
        (
            "consul.sequencer.cpu_us_per_op",
            us(g("consul.sequencer").cpu_ns),
        ),
        (
            "consul.sequencer.wait_us_per_op",
            us(g("consul.sequencer").wait_ns),
        ),
        ("consul.order_us", order),
        ("consul.batch_wait_us", c.all.batch_flush.mean(1e6)),
        (
            "consul.multicasts_per_op",
            per_op(c.order.multicasts as f64, ops),
        ),
        ("consul.batch_size", c.all.batch_size.mean(1.0)),
        ("consul.net_msgs_per_op", per_op(c.net.0 as f64, ops)),
        ("consul.net_bytes_per_op", per_op(c.net.1 as f64, ops)),
        ("consul.simnet.cpu_us_per_op", us(g("consul.simnet").cpu_ns)),
        ("consul.tcp.cpu_us_per_op", us(g("consul.tcp").cpu_ns)),
        ("consul.tcp.wait_us_per_op", us(g("consul.tcp").wait_ns)),
        (
            "consul.tcp.writer_wakeups_per_op",
            per_op(writer.wakeups as f64, ops),
        ),
        (
            "consul.tcp.reader_wakeups_per_op",
            per_op(reader.wakeups as f64, ops),
        ),
        ("consul.tcp.reconnects", c.all.reconnects as f64),
        ("consul.view_changes", c.order.view_changes as f64),
        ("consul.retransmits", c.order.retransmits as f64),
        ("kernel.execute_us", execute),
        (
            "kernel.checkpoints_per_kop",
            per_op(c.all.checkpoint.count as f64 * 1000.0 / REPLICAS, ops),
        ),
        ("kernel.checkpoint_insitu_ms", c.all.checkpoint.mean(1e3)),
        (
            "kernel.blocked_wakeups_per_op",
            per_op(c.all.wakeups as f64 / REPLICAS, ops),
        ),
        ("space.probes_per_attempt", c.matching.probes_per_attempt()),
        (
            "space.cache_hits_per_op",
            per_op(c.matching.cache_hits as f64, ops),
        ),
        ("bench.trace_overhead_pct", trace_overhead_pct(o)),
    ];
    m.extend(o.replay.iter().flat_map(|r| r.metrics.iter().copied()));
    m.extend(samples.iter().map(|(n, v)| (*n, median(v).unwrap_or(0.0))));
    // Layers this workload never enters read 0, so every traced run
    // reports the full set.
    PER_LAYER
        .iter()
        .map(|(name, _)| {
            let v = m.iter().find(|(n, _)| n == name).map_or(0.0, |(_, v)| *v);
            (*name, v)
        })
        .collect()
}

/// Median latency of ops issued in span-recording slices over that of ops
/// issued in the alternate slices, as a percentage change.
fn trace_overhead_pct(o: &Outcome) -> f64 {
    let mut on = Vec::new();
    let mut off = Vec::new();
    for op in o.rounds.iter().flat_map(|r| r.log.ops.iter()) {
        if (op.start / TRACE_SLICE_NS).is_multiple_of(2) {
            on.push(op.latency());
        } else {
            off.push(op.latency());
        }
    }
    on.sort_unstable();
    off.sort_unstable();
    match (percentile(&on, 0.5), percentile(&off, 0.5)) {
        (Some(a), Some(b)) if b > 0 => (a as f64 / b as f64 - 1.0) * 100.0,
        _ => 0.0,
    }
}

/// The result line: one JSON object, every value with all its digits.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Unit of a metric by name.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::OpTime;

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_json(true, 10, 0, &[("ops_per_s", 1234.5, "ops/s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"ops_per_s\": {\"value\": 1234.5, \"unit\": \"ops/s\"}}}"
        );
        assert!(result_json(true, 1, 0, &[("x", 3.0, "s")]).contains("\"value\": 3.0"));
    }

    /// Sequential 200 µs ops through the `failover` schedule of
    /// `phase_ns`: the op in flight at each crash completes `outage_ns`
    /// after it, and ops take twice as long for `rejoin_ns` after each
    /// restart.
    fn failover_ops(phase_ns: u64, outage_ns: u64, rejoin_ns: u64) -> Vec<OpTime> {
        let plan = crate::gen::fault_schedule(1, 0, phase_ns);
        let mut ops = Vec::new();
        let mut t = 0;
        while t < phase_ns {
            let mut end = t + 200_000;
            if plan
                .iter()
                .any(|f| (f.restart_at..f.restart_at + rejoin_ns).contains(&t))
            {
                end += 200_000;
            }
            if let Some(f) = plan.iter().find(|f| (t..end).contains(&f.crash_at)) {
                end = end.max(f.crash_at + outage_ns);
            }
            ops.push(OpTime { start: t, end });
            t = end;
        }
        ops
    }

    #[test]
    fn failover_figures_see_a_slower_outage_or_rejoin() {
        let phase = 5 * FAULT_PERIOD_NS;
        let rate = |ops: Vec<OpTime>| {
            summarize(&windows(&ops, window_ns("failover"), phase))
                .unwrap()
                .ops_per_s
        };
        let base = rate(failover_ops(phase, 1_000_000, 20_000_000));
        let slow_outage = rate(failover_ops(phase, 50_000_000, 20_000_000));
        let slow_rejoin = rate(failover_ops(phase, 1_000_000, 200_000_000));
        assert!(slow_outage < 0.97 * base, "{slow_outage} vs {base}");
        assert!(slow_rejoin < 0.97 * base, "{slow_rejoin} vs {base}");
    }

    #[test]
    fn benchmark_manifest_lists_every_metric_with_its_unit() {
        let manifest = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(manifest.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "metric names are unique");
    }
}
