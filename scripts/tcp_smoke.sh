#!/usr/bin/env bash
# TCP transport smoke test: boot a 3-process, 2-shard cluster on
# localhost via the launcher, scrape every member's HTTP surface, run
# the ftlinda-top aggregator against all three exporters (its merged
# page must carry shard-labeled families with every member reporting
# in, and its last tick must count samples in every member's time-series
# ring), then SIGKILL one member and relaunch it with --rejoin as the
# pingpong driver — the cluster must survive the kill, re-admit the new
# incarnation, and the driver must write the pingpong bench artifact
# ($BENCH_TCP_PINGPONG_JSON, default ./BENCH_tcp_pingpong.json). The
# aggregator's JSON snapshot lands at $BENCH_CLUSTER_TOP_JSON (default
# ./BENCH_cluster_top.json).
set -euo pipefail
cd "$(dirname "$0")/.."

HOSTS=3
SHARDS=2
SEQ_BASE="${TCP_SMOKE_SEQ_BASE:-7460}"
HTTP_BASE="${TCP_SMOKE_HTTP_BASE:-8460}"
COUNT="${TCP_SMOKE_COUNT:-500}"
LOG_DIR="${TMPDIR:-/tmp}/ftlinda-tcp-smoke"
BENCH_OUT="${BENCH_TCP_PINGPONG_JSON:-$PWD/BENCH_tcp_pingpong.json}"
TOP_OUT="${BENCH_CLUSTER_TOP_JSON:-$PWD/BENCH_cluster_top.json}"

BIN=""
for candidate in target/release/ftlinda-node target/debug/ftlinda-node; do
  [ -x "$candidate" ] && BIN="$candidate" && break
done
if [ -z "$BIN" ]; then
  echo "tcp_smoke.sh: build ftlinda-node first (cargo build [--release])" >&2
  exit 2
fi
TOP="$(dirname "$BIN")/ftlinda-top"
if [ ! -x "$TOP" ]; then
  echo "tcp_smoke.sh: build ftlinda-top first (cargo build [--release])" >&2
  exit 2
fi

rm -rf "$LOG_DIR"
mkdir -p "$LOG_DIR"
rm -f "$BENCH_OUT" "$TOP_OUT"

./scripts/tcp_cluster.sh -n "$HOSTS" -k "$SHARDS" -p "$SEQ_BASE" \
  -H "$HTTP_BASE" -b "$BIN" -l "$LOG_DIR" >"$LOG_DIR/launcher.log" 2>&1 &
LAUNCHER=$!
cleanup() {
  kill "$LAUNCHER" 2>/dev/null || true
  wait "$LAUNCHER" 2>/dev/null || true
}
trap cleanup EXIT INT TERM

dump_logs() {
  for f in "$LOG_DIR"/launcher.log "$LOG_DIR"/node*.log; do
    echo "--- $f"
    cat "$f" 2>/dev/null || true
  done
}

# 1. Cluster formation: the launcher prints READY once every member has
#    converged on the full view.
for _ in $(seq 1 200); do
  grep -q '^READY' "$LOG_DIR/launcher.log" 2>/dev/null && break
  if ! kill -0 "$LAUNCHER" 2>/dev/null; then
    echo "tcp_smoke.sh: launcher exited early"; dump_logs; exit 1
  fi
  sleep 0.2
done
grep -q '^READY' "$LOG_DIR/launcher.log" || {
  echo "tcp_smoke.sh: cluster never formed"; dump_logs; exit 1
}

# 2. Every member serves the HTTP surface with a full live view and the
#    per-link transport counters.
FAIL=0
for ((i = 0; i < HOSTS; i++)); do
  addr="127.0.0.1:$((HTTP_BASE + i))"
  echo "--- member $i @ $addr"
  HEALTH="$(curl -sfS "http://$addr/healthz")" || { echo "  /healthz unreachable"; FAIL=1; continue; }
  echo "  $HEALTH"
  echo "$HEALTH" | grep -q '"live":true' || { echo "  member $i not live"; FAIL=1; }
  echo "$HEALTH" | grep -q '"view":\[0,1,2\]' || { echo "  member $i incomplete view"; FAIL=1; }
  curl -sfS "http://$addr/metrics" >/dev/null || { echo "  /metrics unreachable"; FAIL=1; }
  # The per-link transport counters live on the process-wide cluster
  # registry, merged into /metrics/cluster.
  METRICS="$(curl -sfS "http://$addr/metrics/cluster")" || { echo "  /metrics/cluster unreachable"; FAIL=1; continue; }
  for name in ftlinda_net_sent_bytes_total ftlinda_net_recv_bytes_total \
              ftlinda_net_reconnects_total ftlinda_frames_rejected_total; do
    echo "$METRICS" | grep -q "^$name" || { echo "  member $i missing $name"; FAIL=1; }
  done
done
[ "$FAIL" -eq 0 ] || { dump_logs; exit 1; }

# 3. Cluster aggregator: ftlinda-top scrapes every member's
#    /metrics/snapshot over the wire format and renders one merged page.
#    It must carry the shard-labeled kernel families for both shards,
#    report every target as scraped (scrape_up 1, nothing unreachable),
#    and count every member's /timeseries samples. The members' samplers
#    tick once a second, so first wait (bounded) for each ring's first
#    point.
for ((i = 0; i < HOSTS; i++)); do
  for _ in $(seq 1 50); do
    curl -sfS "http://127.0.0.1:$((HTTP_BASE + i))/timeseries" 2>/dev/null \
      | grep -q '"points":\[{' && break
    sleep 0.1
  done
done
TARGETS="127.0.0.1:$HTTP_BASE,127.0.0.1:$((HTTP_BASE + 1)),127.0.0.1:$((HTTP_BASE + 2))"
TOP_PAGE="$LOG_DIR/cluster_top.prom"
if ! "$TOP" --targets "$TARGETS" --ticks 2 --interval-ms 300 \
    --page-out "$TOP_PAGE" --json-out "$TOP_OUT" >"$LOG_DIR/top.log" 2>&1; then
  echo "tcp_smoke.sh: ftlinda-top failed"; cat "$LOG_DIR/top.log"; dump_logs; exit 1
fi
for shard in 0 1; do
  grep -q "ftlinda_shard_tuples{shard=\"$shard\"}" "$TOP_PAGE" || {
    echo "tcp_smoke.sh: merged page missing shard $shard census:"; cat "$TOP_PAGE"; exit 1
  }
done
# Wire telemetry federates too: every member measures heartbeat RTT to
# its peers, so the merged page names all three hosts as peers.
for ((i = 0; i < HOSTS; i++)); do
  grep -q "ftlinda_net_rtt_seconds_count{peer=\"host$i\"}" "$TOP_PAGE" || {
    echo "tcp_smoke.sh: merged page missing host $i wire RTT:"; cat "$TOP_PAGE"; exit 1
  }
done
for ((i = 0; i < HOSTS; i++)); do
  grep -q "ftlinda_top_scrape_up{target=\"127.0.0.1:$((HTTP_BASE + i))\"} 1" "$TOP_PAGE" || {
    echo "tcp_smoke.sh: member $i not scraped by aggregator:"; cat "$TOP_PAGE"; exit 1
  }
done
grep -q '"unreachable":\[\]' "$TOP_OUT" || {
  echo "tcp_smoke.sh: aggregator JSON reports unreachable members:"; cat "$TOP_OUT"; exit 1
}
grep -q '"bench":"cluster_top"' "$TOP_OUT" || {
  echo "tcp_smoke.sh: malformed aggregator JSON:"; cat "$TOP_OUT"; exit 1
}
LAST_TICK="$(tail -n 1 "$TOP_OUT")"
for ((i = 0; i < HOSTS; i++)); do
  echo "$LAST_TICK" | grep -Eq "\"target\":\"127.0.0.1:$((HTTP_BASE + i))\",\"samples\":[1-9]" || {
    echo "tcp_smoke.sh: aggregator's last tick counts no time-series samples for member $i:"
    echo "$LAST_TICK"; exit 1
  }
done
echo "cluster_top snapshot: $(tail -n 1 "$TOP_OUT")"

# 4. Federated cross-shard trace: SIGKILL the idle member 2 and bring
#    it back as the xtrace role — one cross-shard AGS executed with a
#    trace id. Member 0 (which did NOT originate the trace) must then
#    assemble the complete tree over the wire: both shard lanes, all
#    three stages, spans attributed to every host, nothing truncated.
PEERS="127.0.0.1:$SEQ_BASE,127.0.0.1:$((SEQ_BASE + 1)),127.0.0.1:$((SEQ_BASE + 2))"
VICTIM="$(cat "$LOG_DIR/node2.pid")"
kill -9 "$VICTIM" 2>/dev/null || true
sleep 0.3
"$BIN" --id 2 --peers "$PEERS" --shards "$SHARDS" \
  --http-base "$HTTP_BASE" --role xtrace --rejoin --run-secs 60 \
  >"$LOG_DIR/node2-xtrace.log" 2>&1 &
XTRACE_PID=$!
disown "$XTRACE_PID" 2>/dev/null || true
TRACE_ID=""
for _ in $(seq 1 150); do
  TRACE_ID="$(sed -n 's/^XTRACE id=//p' "$LOG_DIR/node2-xtrace.log" | head -n 1)"
  [ -n "$TRACE_ID" ] && break
  if ! kill -0 "$XTRACE_PID" 2>/dev/null; then
    echo "tcp_smoke.sh: xtrace member died early"; cat "$LOG_DIR/node2-xtrace.log"; dump_logs; exit 1
  fi
  sleep 0.2
done
[ -n "$TRACE_ID" ] || { echo "tcp_smoke.sh: no XTRACE line"; cat "$LOG_DIR/node2-xtrace.log"; dump_logs; exit 1; }
TREE=""
TREE_OK=0
for _ in $(seq 1 100); do
  TREE="$(curl -sfS "http://127.0.0.1:$HTTP_BASE/cluster/trace/$TRACE_ID" 2>/dev/null || true)"
  if echo "$TREE" | grep -q '"truncated":false' \
    && echo "$TREE" | grep -q '"shards":\[0,1\]' \
    && echo "$TREE" | grep -q '"stage":"xlock"' \
    && echo "$TREE" | grep -q '"stage":"xexec"' \
    && echo "$TREE" | grep -q '"stage":"xrelease"' \
    && echo "$TREE" | grep -q '"host":0' \
    && echo "$TREE" | grep -q '"host":1' \
    && echo "$TREE" | grep -q '"host":2'; then
    TREE_OK=1; break
  fi
  sleep 0.2
done
[ "$TREE_OK" -eq 1 ] || {
  echo "tcp_smoke.sh: federated trace never completed; last tree:"; echo "$TREE"; dump_logs; exit 1
}
echo "federated trace $TRACE_ID complete from member 0 (non-origin)"
kill -9 "$XTRACE_PID" 2>/dev/null || true
wait "$XTRACE_PID" 2>/dev/null || true
sleep 0.3

# 5. Rejoin-as-driver: member 2 (its xtrace incarnation just SIGKILLed
#    above) comes back a third time as the pingpong driver with
#    --rejoin. It must re-form a view with the survivors, drive COUNT
#    round trips against member 0's pong service across real sockets,
#    and write the bench artifact — now including the wire-level RTT
#    percentiles from the heartbeat piggyback histograms.
if ! "$BIN" --id 2 --peers "$PEERS" --shards "$SHARDS" \
    --http-base "$HTTP_BASE" --role ping --rejoin \
    --count "$COUNT" --bench-out "$BENCH_OUT" \
    >"$LOG_DIR/node2-rejoin.log" 2>&1; then
  echo "tcp_smoke.sh: relaunched ping driver failed"
  cat "$LOG_DIR/node2-rejoin.log"; dump_logs; exit 1
fi

[ -s "$BENCH_OUT" ] || { echo "tcp_smoke.sh: no bench artifact at $BENCH_OUT"; dump_logs; exit 1; }
grep -q '"bench":"tcp_pingpong"' "$BENCH_OUT" || { echo "tcp_smoke.sh: malformed bench JSON:"; cat "$BENCH_OUT"; exit 1; }
grep -q "\"count\":$COUNT" "$BENCH_OUT" || { echo "tcp_smoke.sh: wrong count in bench JSON:"; cat "$BENCH_OUT"; exit 1; }
grep -q '"wire_rtt_p99_us"' "$BENCH_OUT" || { echo "tcp_smoke.sh: bench JSON missing wire RTT percentiles:"; cat "$BENCH_OUT"; exit 1; }
echo "tcp_pingpong bench: $(cat "$BENCH_OUT")"
echo "TCP smoke OK: 3-process cluster formed, scraped, aggregated, traced, survived kill -9 + rejoin"
