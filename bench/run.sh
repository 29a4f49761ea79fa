#!/usr/bin/env bash
# The one command: build the benchmark offline, run every workload in its
# own process, print every metric by name with unit and sample count, and
# write results.json.
#
#   bench/run.sh [--seed N] [--sets K] [--trace] [--smoke] [--out DIR]
#
#   --seed N   seed of the seeded workloads (pa_k8, chaos_w2); default 20150701
#   --sets K   repeat the whole set of runs K times (default 1); the report
#              gives each metric's median over sets and its quartile spread
#   --trace    also run each workload traced: per-layer metrics and
#              DIR/trace_<workload>.json
#   --smoke    one pass, shortened horizons, a few seconds in all (for CI)
#   --out DIR  where run files, logs, traces and results.json go; default a
#              fresh directory under ${TMPDIR:-/tmp}, outside the repo tree
#
# Exits 0 when every check passed, 1 when an operation failed a check or
# the API allowlist is violated, 2 on a usage or build error.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
seed=20150701
sets=1
trace=0
smoke=()
out=""

usage() {
    sed -n '2,18p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2
    exit 2
}

while [ $# -gt 0 ]; do
    case "$1" in
        --seed) [ $# -ge 2 ] || usage; seed="$2"; shift 2 ;;
        --sets) [ $# -ge 2 ] || usage; sets="$2"; shift 2 ;;
        --out) [ $# -ge 2 ] || usage; out="$2"; shift 2 ;;
        --trace) trace=1; shift ;;
        --smoke) smoke=(--smoke); shift ;;
        *) usage ;;
    esac
done
case "$seed$sets" in *[!0-9]*) usage ;; esac
[ "$sets" -ge 1 ] || usage
[ -n "$out" ] || out="$(mktemp -d "${TMPDIR:-/tmp}/f2bench.XXXXXX")"
mkdir -p "$out"

# API allowlist: the benchmark may not name anything ROADMAP items 2/3 are
# going to delete, so that those items stay free to delete it.
banned='SchedulerKind|AnyScheduler|CalendarQueue|EventQueue|SpfEngineKind|FullSpf|IncrementalSpf|replace_origin|\.scheduler\(|\.spf_engine\('
if grep -rnE "$banned" "$here/src"; then
    echo "run.sh: bench/src names an API slated for removal (see bench/README.md)" >&2
    exit 1
fi

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" || exit 2
bin="${CARGO_TARGET_DIR:-$here/target}/release/f2bench"

# Measuring time per run: the one BENCHMARK.json fixes.
seconds="$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$here/../BENCHMARK.json" 2>/dev/null | head -n 1)"
seconds="${seconds:-20}"

status=0
for set in $(seq 1 "$sets"); do
    for workload in recovery_k8 flap_k16 pa_k8 chaos_w2; do
        for traced in $(seq 0 "$trace"); do
            echo "run.sh: set $set/$sets $workload trace=$traced" >&2
            "$bin" --workload "$workload" --seed "$seed" --seconds "$seconds" \
                --trace "$traced" --set "$set" --out "$out" ${smoke[@]+"${smoke[@]}"} \
                > "$out/log_${workload}_set${set}_trace${traced}.txt" || status=1
        done
    done
done

"$bin" report "$out" || status=1
exit "$status"
