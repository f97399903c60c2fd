#!/usr/bin/env bash
# Observability smoke test: boot a 3-member cluster via the
# obs_http_smoke example, then scrape every member's HTTP exporter with
# curl and assert the surfaces a monitoring stack depends on:
#   /metrics  — Prometheus text incl. the batch histograms and the
#               per-signature occupancy / match-probe families; for the
#               `main` space, match hits never exceed match probes
#   /metrics/cluster — merged registries of every live member; its
#               `main` match hits equal the sum over the member pages
#   /healthz  — live member with an applied sequence number
#   /introspect — signature census + blocked-AGS table as JSON
#   /trace/<id> — a complete cross-replica span tree; for the XTRACE id,
#               the cross-shard commit lanes (xlock/xexec/xrelease on
#               both shards of the 2-shard smoke cluster)
#   /timeseries — the bounded metrics ring with ≥ 2 snapshots
set -euo pipefail
cd "$(dirname "$0")/.."

OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT

OBS_SMOKE_SECS="${OBS_SMOKE_SECS:-20}" \
    cargo run --quiet --release --example obs_http_smoke >"$OUT" &
SMOKE_PID=$!

# Wait for the example to print member addresses + both trace ids.
for _ in $(seq 1 120); do
    if grep -q '^XTRACE ' "$OUT" 2>/dev/null; then break; fi
    if ! kill -0 "$SMOKE_PID" 2>/dev/null; then
        echo "obs_http_smoke exited early:"; cat "$OUT"; exit 1
    fi
    sleep 0.5
done
grep -q '^XTRACE ' "$OUT" || { echo "exporter never came up:"; cat "$OUT"; exit 1; }

TRACE_ID="$(awk '/^TRACE /{print $2}' "$OUT")"
XTRACE_ID="$(awk '/^XTRACE /{print $2}' "$OUT")"
FAIL=0

# Value of sample $1 (exact name and labels) in the page on stdin, or
# nothing when the page lacks it.
sample() { awk -v k="$1" 'index($0, k " ") == 1 { print $2; exit }'; }
HITS_KEY='ftlinda_match_hits_total{space="main"}'
PROBES_KEY='ftlinda_match_probes_total{space="main"}'
# Fails unless the page on stdin has integer hits and probes for `main`
# with hits <= probes; prints the hits.
match_hits() {
    local page hits probes
    page="$(cat)"
    hits="$(sample "$HITS_KEY" <<<"$page")"
    probes="$(sample "$PROBES_KEY" <<<"$page")"
    [[ "$hits" =~ ^[0-9]+$ && "$probes" =~ ^[0-9]+$ ]] || return 1
    [ "$hits" -le "$probes" ] || return 1
    echo "$hits"
}
MEMBER_HITS=0
CLUSTER_HITS=()
while read -r _ host addr; do
    echo "--- member $host @ $addr"
    METRICS="$(curl -sfS "http://$addr/metrics")"
    for name in ftlinda_batch_size_bucket ftlinda_batch_flush_seconds_bucket \
                ftlinda_ags_total_seconds_bucket ftlinda_batch_max_bytes \
                ftlinda_events_dropped_total; do
        if ! grep -q "$name" <<<"$METRICS"; then
            echo "    MISSING $name in /metrics of member $host"; FAIL=1
        fi
    done
    # Labeled observatory families: occupancy gauge children carry
    # space+signature labels, probe counters carry the space label.
    for pat in 'ftlinda_ts_tuples{space="main",signature="<str,int>"}' \
               'ftlinda_match_probes_total{space="main"}' \
               'ftlinda_match_hits_total{space="main"}'; do
        if ! grep -qF "$pat" <<<"$METRICS"; then
            echo "    MISSING $pat in /metrics of member $host"; FAIL=1
        fi
    done
    if HITS="$(match_hits <<<"$METRICS")"; then
        MEMBER_HITS=$((MEMBER_HITS + HITS))
    else
        echo "    member $host /metrics: bad or missing $HITS_KEY <= $PROBES_KEY"; FAIL=1
    fi
    CLUSTER="$(curl -sfS "http://$addr/metrics/cluster")"
    if HITS="$(match_hits <<<"$CLUSTER")"; then
        CLUSTER_HITS+=("$HITS")
    else
        echo "    member $host /metrics/cluster: bad or missing $HITS_KEY <= $PROBES_KEY"; FAIL=1
    fi
    for pat in 'ftlinda_ts_tuples{space="main",signature="<str,int>"}' \
               'ftlinda_ags_completions_total' 'ftlinda_applied_seq' \
               'ftlinda_shard_tuples{shard=' 'ftlinda_shard_ags_total{shard=' \
               'ftlinda_shard_multicasts_total{shard=' 'ftlinda_shard_imbalance_bp'; do
        if ! grep -qF "$pat" <<<"$CLUSTER"; then
            echo "    MISSING $pat in /metrics/cluster of member $host"; FAIL=1
        fi
    done
    INTROSPECT="$(curl -sfS "http://$addr/introspect")"
    for pat in '"signatures":[{' '"hot_signatures"' '"blocked":[{' \
               '"guards":' '"nearest_miss":' '"match":{' \
               '"efficiency_bp":' '"cache_hits":' '"index":{'; do
        if ! grep -qF "$pat" <<<"$INTROSPECT"; then
            echo "    MISSING $pat in /introspect of member $host"; FAIL=1
        fi
    done
    HEALTH="$(curl -sfS "http://$addr/healthz")"
    grep -q '"live":true' <<<"$HEALTH" || { echo "    member $host not live: $HEALTH"; FAIL=1; }
    grep -q '"applied_seq":' <<<"$HEALTH" || { echo "    member $host no applied_seq: $HEALTH"; FAIL=1; }
    TRACE="$(curl -sfS "http://$addr/trace/$TRACE_ID")"
    for stage in '"submit"' '"deliver"' '"apply"'; do
        grep -q "$stage" <<<"$TRACE" || { echo "    member $host trace missing $stage: $TRACE"; FAIL=1; }
    done
    # Cross-shard commit trace: both shard lanes present, and every
    # multicast stage of the 2S+1 protocol recorded.
    XTRACE="$(curl -sfS "http://$addr/trace/$XTRACE_ID")"
    grep -qF '"shards":[0,1]' <<<"$XTRACE" \
        || { echo "    member $host xtrace missing shard lanes: $XTRACE"; FAIL=1; }
    for stage in '"xbegin"' '"xlock"' '"xexec"' '"xrelease"' '"xcommit"'; do
        grep -q "$stage" <<<"$XTRACE" || { echo "    member $host xtrace missing $stage"; FAIL=1; }
    done
    # Time-series ring: at least two snapshots by scrape time (200 ms
    # sampling interval in the smoke example).
    TS="$(curl -sfS "http://$addr/timeseries")"
    grep -qF '"points":[' <<<"$TS" || { echo "    member $host bad /timeseries: $TS"; FAIL=1; }
    NPOINTS="$(grep -o '"at_us"' <<<"$TS" | wc -l)"
    if [ "$NPOINTS" -lt 2 ]; then
        echo "    member $host /timeseries has $NPOINTS snapshots, want >= 2"; FAIL=1
    fi
    echo "    metrics/cluster-metrics/introspect/healthz/trace/xtrace/timeseries OK"
done < <(grep '^MEMBER ' "$OUT")

# The workload has finished on every replica before the addresses are
# printed, so the counters are final: each cluster page's hits must be
# the sum of the member pages', and that sum must not be 0.
echo "--- match hits: member pages sum to $MEMBER_HITS, cluster pages read ${CLUSTER_HITS[*]:-none}"
if [ "$MEMBER_HITS" -eq 0 ]; then
    echo "    no match hits counted on any member page"; FAIL=1
fi
for hits in "${CLUSTER_HITS[@]}"; do
    if [ "$hits" -ne "$MEMBER_HITS" ]; then
        echo "    /metrics/cluster hits $hits != $MEMBER_HITS over the member pages"; FAIL=1
    fi
done

wait "$SMOKE_PID"
[ "$FAIL" -eq 0 ] || { echo "HTTP exporter smoke FAILED"; exit 1; }
echo "HTTP exporter smoke OK."
