#!/usr/bin/env bash
# Full local CI: exactly what .github/workflows/ci.yml runs.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings"
# Broken or private intra-doc links (e.g. to a deleted item) fail here.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

echo "==> cargo build --release"
cargo build --release

echo "==> examples (each must finish within 60 s)"
# Runs every example but obs_http_smoke (obs_smoke.sh drives that one);
# six of them assert their own results.
cargo build --release --examples
for ex in bag_of_tasks barrier_failures distributed_variable divide_conquer \
          lcc_compile linda_run observability quickstart; do
    echo "--> example $ex"
    timeout 60 "./target/release/examples/$ex"
done

echo "==> cargo test"
cargo test -q --workspace

echo "==> restart-at-once tests, 20 runs each"
# A host restarted the moment it crashed was once cut off from the group
# in about 1 run of 50, unseen for several changes. These two binaries
# restart a host at once; repeating them gives a rare cut-off a chance
# to show.
for _ in $(seq 20); do
    cargo test -q -p ftlinda --test thread_layout --test restart_at_once
done

echo "==> benchmark build + self-tests (perfbench is its own workspace)"
# perfbench/ builds the program from ../crates by path but is not a
# member of this workspace, so the step above never compiles it; this
# catches a change to a public item the benchmark calls.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> benchmark set-up paths (tcp_pingpong seeds 1-3, failover)"
# Short runs of the benchmark itself: perfbench exits non-zero on a
# wrong result, and the timeout turns a hang in a round's set-up (as
# tcp_pingpong seed 622 once hung, its third member missing the first
# ordered records) into a failed step. The failover run covers 4
# crash/restart cycles.
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
for seed in 1 2 3; do
    timeout 180 cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
        --workload tcp_pingpong --seed "$seed" --seconds 2 --trace 0
done
timeout 180 cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload failover --seed 1 --seconds 4 --trace 0

echo "==> bench smoke (assertions only, no measurement)"
# batch_window sweeps the group-commit window {off, 100us, 1ms} and
# writes the multicasts-per-AGS / throughput curve as a JSON artifact.
BENCH_MSGS_PER_AGS_JSON="${BENCH_MSGS_PER_AGS_JSON:-$PWD/BENCH_msgs_per_ags.json}" \
    cargo bench -p linda-bench --bench batch_window -- --test
cargo bench -p linda-bench --bench msgs_per_ags -- --test
# shard_sweep runs K in {1,2,4} single-shard write traffic under the
# 10 Mb-Ethernet NIC model (group commit off) and fails if K=4 does not
# beat K=1 by at least SHARD_SWEEP_MIN_SPEEDUP (default 2x); it also
# asserts the 2S+1 cross-shard multicast price, writes the sweep to the
# shard-sweep artifact, and writes the per-shard multicast-load census
# (with the basis-point imbalance gauge) to the shard-balance artifact.
BENCH_SHARD_SWEEP_JSON="${BENCH_SHARD_SWEEP_JSON:-$PWD/BENCH_shard_sweep.json}" \
BENCH_SHARD_BALANCE_JSON="${BENCH_SHARD_BALANCE_JSON:-$PWD/BENCH_shard_balance.json}" \
SHARD_SWEEP_MIN_SPEEDUP="${SHARD_SWEEP_MIN_SPEEDUP:-2}" \
    cargo bench -p linda-bench --bench shard_sweep -- --test
# match_probes compares probes-per-attempt for the indexed vs linear
# store across hit / second-field hit / fresh miss / repeated miss and
# writes the observatory's match-cost artifact. The bench asserts the
# checked-in probe budgets (indexed repeated miss ≤ 1 probe/attempt
# amortized via the antituple cache; fresh 100k-tuple indexed miss ≤ 8
# probes and ≤ 10 µs via the value index), so a matching-engine
# regression fails this step.
BENCH_MATCH_PROBES_JSON="${BENCH_MATCH_PROBES_JSON:-$PWD/BENCH_match_probes.json}" \
    cargo bench -p linda-bench --bench match_probes -- --test

echo "==> HTTP exporter smoke (3-member 2-shard cluster, curl every member)"
./scripts/obs_smoke.sh

echo "==> long-history rejoin smoke (O(state) checkpoint transfer)"
# Crashes a host, orders 1k then 10k records of history with constant
# live state, restarts it, and asserts the rejoin transfer bytes do not
# grow with history (release build: the 10k run is the slow part).
cargo test --release -q -p ftlinda --test checkpoint_tests \
    rejoin_bytes_scale_with_state_not_history -- --exact

echo "==> TCP transport smoke (3 processes, aggregator, federated trace, kill -9 + rejoin)"
# Boots a 3-process 2-shard cluster over real localhost sockets via the
# launcher, curls every member's /healthz and per-link net counters,
# runs the ftlinda-top aggregator against all three exporters (merged
# page must carry shard-labeled families and every host's wire RTT),
# assembles a federated cross-shard trace from a non-origin member,
# SIGKILLs one member, relaunches it with --rejoin as the pingpong
# driver, and requires the BENCH_tcp_pingpong.json and
# BENCH_cluster_top.json artifacts the run writes.
BENCH_TCP_PINGPONG_JSON="${BENCH_TCP_PINGPONG_JSON:-$PWD/BENCH_tcp_pingpong.json}" \
BENCH_CLUSTER_TOP_JSON="${BENCH_CLUSTER_TOP_JSON:-$PWD/BENCH_cluster_top.json}" \
    ./scripts/tcp_smoke.sh

echo "CI green."
