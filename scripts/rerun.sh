#!/usr/bin/env bash
# Run `cargo test <args>` N times and keep the full output of every
# failing run, so that a rare failure leaves its message behind.
#
#   scripts/rerun.sh N <cargo test args>
#   scripts/rerun.sh 200 -q -p consul-sim --test stress_tests
#
# A failing run's output is kept as target/rerun/<start time>-run<i>.log
# and its failing tests and panic lines are echoed to stderr; a passing
# run's output is discarded. Prints how many runs failed and exits 1 if
# any did (2 on bad usage).
set -uo pipefail
if [ $# -lt 2 ] || ! [[ "$1" =~ ^[1-9][0-9]*$ ]]; then
    echo "usage: $0 N <cargo test args>" >&2
    exit 2
fi
n=$1
shift
cd "$(dirname "$0")/.."
dir=target/rerun
mkdir -p "$dir"
stamp=$(date +%Y%m%d-%H%M%S)
failed=0
for i in $(seq "$n"); do
    log="$dir/$stamp-run$i.log"
    if cargo test "$@" >"$log" 2>&1; then
        rm -f "$log"
    else
        failed=$((failed + 1))
        echo "run $i of $n failed, output kept in $log" >&2
        grep -E "^test .* FAILED$|panicked at|^error" "$log" | head -5 >&2
    fi
done
echo "$failed of $n runs failed: cargo test $*"
[ "$failed" -eq 0 ]
