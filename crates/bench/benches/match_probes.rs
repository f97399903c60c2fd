//! Probes-per-attempt: the price of a tuple lookup as the space grows.
//!
//! The paper's implementation chapter argues that hash-based tuple
//! matching keeps `in`/`rd` cost roughly independent of tuple-space
//! size, while a naive linear store degrades with every resident tuple.
//! The match-probe counters added to both stores let us measure that
//! directly: for 10 / 1 000 / 100 000 resident tuples spread over 64
//! distinct head values, we count how many tuples each store *examines*
//! per `rd` across four cases:
//!
//! - `hit` — head-constant pattern with a formal payload; the head index
//!   resolves it in O(1).
//! - `second_hit` — both fields constant and present; exercises probing
//!   within one head bucket (and the value index once promoted).
//! - `miss` — both fields constant, payload absent, a *different* absent
//!   payload every iteration. Defeats the miss cache on purpose so the
//!   cost shown is the value index's: after one expensive scan promotes
//!   the bucket, each fresh miss is a hash lookup that finds no
//!   candidates at all.
//! - `repeated_miss` — the *same* absent payload every iteration; the
//!   antituple cache answers after the first scan, so the amortized
//!   probe count must stay ≤ 1.
//!
//! Besides the printed table, the run writes a `BENCH_match_probes.json`
//! artifact (to `$BENCH_MATCH_PROBES_JSON` or the working directory).
//! The probe budgets asserted below double as the CI regression gate
//! (`cargo bench -p linda-bench --bench match_probes -- --test`).

use criterion::{criterion_group, criterion_main, Criterion};
use linda_space::{IndexedStore, LinearStore, Store};
use linda_tuple::{pat, tuple, Pattern};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

const SIZES: [usize; 3] = [10, 1_000, 100_000];
const HEADS: usize = 64;

/// CI budget: amortized probes per attempt for the indexed store's
/// repeated miss — the miss cache must answer all but the seeding scan.
const BUDGET_REPEATED_MISS_PROBES: f64 = 1.0;
/// CI budget: probes per attempt for a fresh indexed miss at 100 k
/// tuples once the value index has been promoted.
const BUDGET_INDEXED_MISS_100K_PROBES: f64 = 8.0;
/// CI budget: ns per op for a fresh indexed miss at 100 k tuples.
const BUDGET_INDEXED_MISS_100K_NS: f64 = 10_000.0;

struct Point {
    store: &'static str,
    tuples: usize,
    case: &'static str,
    attempts: u64,
    probes: u64,
    cache_hits: u64,
    ns_per_op: f64,
}

impl Point {
    fn probes_per_attempt(&self) -> f64 {
        self.probes as f64 / self.attempts.max(1) as f64
    }
}

fn fill(store: &mut dyn Store, n: usize) {
    for i in 0..n {
        store.insert(tuple!(format!("key{}", i % HEADS), i as i64));
    }
}

/// Repeat `rd`, cycling through `pats`, and return the
/// (attempts, probes, cache_hits, ns/op) deltas.
fn measure(store: &dyn Store, pats: &[Pattern], iters: usize) -> (u64, u64, u64, f64) {
    let before = store.match_stats();
    let t0 = Instant::now();
    for i in 0..iters {
        std::hint::black_box(store.read(std::hint::black_box(&pats[i % pats.len()])));
    }
    let ns = t0.elapsed().as_nanos() as f64 / iters as f64;
    let d = store.match_stats().since(&before);
    (d.attempts, d.probes, d.cache_hits, ns)
}

fn run_store(store: &mut dyn Store, name: &'static str, n: usize, out: &mut Vec<Point>) {
    fill(store, n);
    // Keep total probe work bounded as n grows.
    let iters = (1_000_000 / n.max(1)).clamp(20, 10_000);
    // Hit: formal payload; head "key9" exists for every size.
    let hit = vec![pat!("key9", ?int)];
    // Second-field hit: ("key9", 9) is resident (and the oldest in its
    // head bucket) for every size.
    let second_hit = vec![pat!("key9", 9)];
    // Fresh miss every iteration: distinct absent payloads, so the miss
    // cache never answers and the value index does the work.
    let miss: Vec<Pattern> = (0..iters).map(|i| pat!("key9", -(1 + i as i64))).collect();
    // Same absent payload every iteration: the miss cache's home turf.
    let repeated_miss = vec![pat!("key9", -1)];
    let cases: [(&'static str, &[Pattern]); 4] = [
        ("hit", &hit),
        ("second_hit", &second_hit),
        ("miss", &miss),
        ("repeated_miss", &repeated_miss),
    ];
    for (case, pats) in cases {
        // One unmeasured attempt: lets the expensive first scan promote
        // the value index / seed the miss cache, so the measured figures
        // show steady-state cost. (Uses a payload the measured loop
        // never reuses, so the "miss" case stays uncached.)
        let warm = pat!("key9", -1_000_000);
        std::hint::black_box(store.read(std::hint::black_box(&warm)));
        std::hint::black_box(store.read(std::hint::black_box(&pats[0])));
        let (attempts, probes, cache_hits, ns) = measure(store, pats, iters);
        out.push(Point {
            store: name,
            tuples: n,
            case,
            attempts,
            probes,
            cache_hits,
            ns_per_op: ns,
        });
    }
    store.clear();
}

fn write_artifact(points: &[Point]) {
    let mut json = String::from("{\n  \"bench\": \"match_probes\",\n");
    let _ = writeln!(json, "  \"heads\": {HEADS},\n  \"points\": [");
    for (i, p) in points.iter().enumerate() {
        let comma = if i + 1 < points.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{\"store\": \"{}\", \"tuples\": {}, \"case\": \"{}\", \
             \"attempts\": {}, \"probes\": {}, \"cache_hits\": {}, \
             \"probes_per_attempt\": {:.3}, \"ns_per_op\": {:.1}}}{comma}",
            p.store,
            p.tuples,
            p.case,
            p.attempts,
            p.probes,
            p.cache_hits,
            p.probes_per_attempt(),
            p.ns_per_op,
        );
    }
    json.push_str("  ]\n}\n");
    linda_bench::write_artifact("BENCH_MATCH_PROBES_JSON", "BENCH_match_probes.json", &json);
}

fn bench(c: &mut Criterion) {
    println!("\nProbes per attempt — {HEADS} head values, four lookup cases:");
    println!(
        "    {:<9} {:>8} {:>14} {:>10} {:>16} {:>11} {:>12}",
        "store", "tuples", "case", "attempts", "probes/attempt", "cache_hits", "ns/op"
    );
    let mut points = Vec::new();
    for n in SIZES {
        run_store(&mut IndexedStore::new(), "indexed", n, &mut points);
        run_store(&mut LinearStore::new(), "linear", n, &mut points);
    }
    for p in &points {
        println!(
            "    {:<9} {:>8} {:>14} {:>10} {:>16.3} {:>11} {:>12.1}",
            p.store,
            p.tuples,
            p.case,
            p.attempts,
            p.probes_per_attempt(),
            p.cache_hits,
            p.ns_per_op,
        );
    }
    println!();
    // The claims under test: the indexed store's probe count stays flat
    // (head bucket, then value index once promoted) while the linear
    // store degrades with the resident-tuple count; repeated misses
    // amortize to zero probes through the antituple cache.
    for n in SIZES {
        let point = |store: &str, case: &str| {
            points
                .iter()
                .find(|p| p.store == store && p.tuples == n && p.case == case)
                .unwrap()
        };
        let probes = |store: &str, case: &str| point(store, case).probes_per_attempt();
        assert!(
            probes("indexed", "hit") <= 2.0,
            "indexed hit at {n} tuples should probe O(1) (head index)"
        );
        assert!(
            probes("indexed", "second_hit") <= 2.0,
            "indexed second-field hit at {n} tuples should probe O(1)"
        );
        assert!(
            probes("indexed", "miss") <= (n / HEADS) as f64 + 1.0,
            "indexed miss at {n} tuples is bounded by one head bucket"
        );
        assert!(
            probes("indexed", "repeated_miss") <= BUDGET_REPEATED_MISS_PROBES,
            "indexed repeated miss at {n} tuples must be answered by the \
             miss cache (≤ {BUDGET_REPEATED_MISS_PROBES} probes/attempt amortized)"
        );
        assert!(
            point("indexed", "repeated_miss").cache_hits
                >= point("indexed", "repeated_miss").attempts,
            "every measured repeated miss should be a cache hit"
        );
        assert!(
            probes("linear", "miss") >= n as f64,
            "linear miss must scan the whole store"
        );
        if n >= 1_000 {
            assert!(
                probes("indexed", "miss") < probes("linear", "miss"),
                "index must beat linear scan at {n} tuples"
            );
        }
        if n >= 100_000 {
            assert!(
                probes("indexed", "miss") <= BUDGET_INDEXED_MISS_100K_PROBES,
                "value index must keep fresh 100k-tuple misses O(1): got \
                 {:.3} probes/attempt",
                probes("indexed", "miss")
            );
            assert!(
                point("indexed", "miss").ns_per_op <= BUDGET_INDEXED_MISS_100K_NS,
                "fresh 100k-tuple indexed miss budget is {BUDGET_INDEXED_MISS_100K_NS} ns/op: got {:.1}",
                point("indexed", "miss").ns_per_op
            );
        }
    }
    write_artifact(&points);

    // Criterion angle: one rd against 1k resident tuples per store.
    let mut g = c.benchmark_group("match_probes");
    g.sample_size(20).measurement_time(Duration::from_secs(2));
    let mut indexed = IndexedStore::new();
    fill(&mut indexed, 1_000);
    let mut linear = LinearStore::new();
    fill(&mut linear, 1_000);
    let miss = pat!("key9", -1);
    g.bench_function("indexed_repeated_miss_1k", |b| {
        b.iter(|| std::hint::black_box(indexed.read(std::hint::black_box(&miss))))
    });
    g.bench_function("linear_miss_1k", |b| {
        b.iter(|| std::hint::black_box(linear.read(std::hint::black_box(&miss))))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
