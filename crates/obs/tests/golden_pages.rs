//! Byte-for-byte golden check of the registry's two output forms: the
//! Prometheus page ([`Registry::render`]) and the `ftlsnap` wire
//! payload ([`RegistrySnapshot::to_wire`]) that federation, `ftlinda-top`
//! and the benchmark parse. Every instrument kind appears: plain and
//! labeled counters, `Sum` and `Max` gauges, default-bound, custom-bound
//! and labeled histograms, empty families, help text with a tab and a
//! backslash, an escaped label value and the ring self-metrics. A merge
//! that also folds in scrape-time families, and a `from_wire` round trip,
//! are checked the same way.
//!
//! The expected text lives in `tests/golden/`; a change to either format
//! must show up as a diff there.

use std::time::Duration;

use linda_obs::{GaugeMerge, Registry, RegistrySnapshot, TraceId};

/// A registry holding every kind, with names chosen so that sorting by
/// kind, by plain-before-labeled and by name all show in the output.
fn registry_a() -> Registry {
    let r = Registry::new();
    r.counter("b_requests_total", "requests served").add(7);
    r.counter("c_weird_total", "help with\ta tab and a \\ backslash")
        .add(1);
    let ops = r.counter_family("a_ops_total", "ops by kind and space");
    ops.with(&[("kind", "in"), ("space", "0")]).add(4);
    ops.with(&[("kind", "out"), ("space", "0")]).inc();
    ops.with(&[("kind", "rd"), ("space", "quote\"back\\slash\nnl")])
        .add(2);
    r.counter_family("d_empty_total", "a family with no children yet");
    r.gauge("depth", "queue depth").set(-3);
    r.gauge_merged("cfg_max_bytes", "shared config", GaugeMerge::Max)
        .set(512);
    r.gauge_family("a_level", "level by shard")
        .with(&[("shard", "1")])
        .set(9);
    r.gauge_family("z_empty_level", "an empty gauge family");
    let lat = r.histogram("lat_seconds", "latency, default bounds");
    lat.observe(Duration::from_micros(3));
    lat.observe(Duration::from_millis(3));
    lat.observe(Duration::from_secs(20));
    r.histogram_with(
        "batch_size",
        "batch sizes, custom bounds",
        &[1.0, 4.0, 16.0],
    )
    .observe_seconds(3.0);
    let rtt = r.histogram_family("rtt_seconds", "rtt by peer");
    rtt.with(&[("peer", "1")])
        .observe(Duration::from_micros(250));
    rtt.with(&[("peer", "2")]).observe(Duration::from_millis(1));
    for i in 0..3 {
        r.events().emit(linda_obs::Event::new(
            "tick",
            vec![("i".into(), i.to_string())],
        ));
    }
    r.spans().record(TraceId::new(0, 1), "apply", 0, &[]);
    r
}

/// Overlaps `registry_a` on most names (with different values and one
/// different help text) and adds names of its own.
fn registry_b() -> Registry {
    let r = Registry::new();
    r.counter("b_requests_total", "other help is ignored by merge")
        .add(5);
    r.counter("only_b_total", "only in b").add(11);
    r.counter_family("a_ops_total", "ops by kind and space")
        .with(&[("kind", "in"), ("space", "0")])
        .add(6);
    r.counter_family("d_empty_total", "a family with no children yet")
        .with(&[("space", "1")])
        .inc();
    r.gauge("depth", "queue depth").set(10);
    r.gauge_merged("cfg_max_bytes", "shared config", GaugeMerge::Max)
        .set(1024);
    r.gauge_family("a_level", "level by shard")
        .with(&[("shard", "2")])
        .set(4);
    r.histogram("lat_seconds", "latency, default bounds")
        .observe(Duration::from_micros(40));
    // Same name, other bucket layout: the merge keeps the first operand's.
    r.histogram_with("batch_size", "batch sizes, custom bounds", &[2.0, 8.0])
        .observe_seconds(1.0);
    r.histogram_family("rtt_seconds", "rtt by peer")
        .with(&[("peer", "1")])
        .observe(Duration::from_micros(500));
    r
}

fn golden(name: &str) -> String {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn assert_golden(name: &str, actual: &str) {
    let expected = golden(name);
    if actual != expected {
        for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
            if a != e {
                panic!(
                    "{name}: first difference at line {}:\n  got      {a:?}\n  expected {e:?}",
                    i + 1
                );
            }
        }
        panic!(
            "{name}: {} lines, expected {}",
            actual.lines().count(),
            expected.lines().count()
        );
    }
}

#[test]
fn pages_and_wire_are_byte_identical_to_golden() {
    let (a, b) = (registry_a(), registry_b());
    assert_golden("a.prom", &a.render());
    assert_golden("a.ftlsnap", &a.snapshot().to_wire());
    assert_golden("b.prom", &b.render());
    assert_golden("b.ftlsnap", &b.snapshot().to_wire());
}

#[test]
fn merge_with_scrape_time_families_is_byte_identical_to_golden() {
    let mut merged = registry_a().snapshot();
    merged.add_counter_family(
        "census_total",
        "read when scraped",
        [("space=\"main\"".to_string(), 3)],
    );
    merged.add_gauge_family(
        "a_level",
        "level by shard",
        [("shard=\"1\"".to_string(), 2)],
    );
    let mut other = registry_b().snapshot();
    other.add_counter_family(
        "census_total",
        "read when scraped",
        [
            ("space=\"main\"".to_string(), 4),
            ("space=\"jobs\"".to_string(), 1),
        ],
    );
    other.add_gauge_family(
        "census_level",
        "a level read when scraped",
        [("space=\"main\"".to_string(), 8)],
    );
    merged.merge(&other);
    assert_golden("merged.prom", &merged.render());
    assert_golden("merged.ftlsnap", &merged.to_wire());
}

#[test]
fn wire_round_trip_renders_the_golden_page() {
    let wire = golden("a.ftlsnap");
    let back = RegistrySnapshot::from_wire(&wire).expect("golden wire parses");
    assert_golden("a.prom", &back.render());
    let merged = RegistrySnapshot::from_wire(&golden("merged.ftlsnap")).expect("parses");
    assert_golden("merged.prom", &merged.render());
    assert_golden("merged.ftlsnap", &merged.to_wire());
}
