#!/bin/sh
# End-to-end observability gate (runs in ctest tier-1 as `check_obs`):
#
#   1. Run an instrumented bench (bench_ablation_nearlinear --fast) with
#      every sink enabled: --trace, --metrics, --progress, --records.
#   2. Validate the trace JSON and the JSONL records with the obs_validate
#      CLI (same validators as the unit tests). Any validation failure or
#      missing/empty output file is fatal.
#   3. Warn-only overhead smoke: re-run without any obs flag and compare
#      wall time. The disabled path is one null-pointer branch per hook,
#      so a large gap here means an accidental always-on cost. Timing on
#      shared CI boxes is noisy, so this only prints a warning; the
#      authoritative overhead numbers live in EXPERIMENTS.md.
#
# No Python, no jq: the validators are the repo's own C++.
#
# Usage: check_obs.sh BENCH_BINARY OBS_VALIDATE_BINARY
set -eu

if [ "$#" -ne 2 ]; then
    echo "usage: $0 BENCH_BINARY OBS_VALIDATE_BINARY" >&2
    exit 2
fi
BENCH="$1"
VALIDATE="$2"

TMPDIR_OBS="$(mktemp -d "${TMPDIR:-/tmp}/rpmis_check_obs.XXXXXX")"
trap 'rm -rf "$TMPDIR_OBS"' EXIT INT TERM

TRACE="$TMPDIR_OBS/trace.json"
METRICS="$TMPDIR_OBS/metrics.txt"
RECORDS="$TMPDIR_OBS/records.jsonl"

# Portable millisecond clock: EPOCHREALTIME where the shell has it, else
# date +%s%N (GNU coreutils, present on the CI image).
now_ms() {
    date +%s%N | sed -e 's/......$//'
}

echo "== instrumented run =="
T0="$(now_ms)"
"$BENCH" --fast --trace="$TRACE" --metrics="$METRICS" \
    --progress=1024 --records="$RECORDS"
T1="$(now_ms)"
INSTRUMENTED_MS=$((T1 - T0))

for f in "$TRACE" "$METRICS" "$RECORDS"; do
    if [ ! -s "$f" ]; then
        echo "check_obs: FAIL: expected output file is missing or empty: $f" >&2
        exit 1
    fi
done

echo "== validate =="
"$VALIDATE" trace "$TRACE"
"$VALIDATE" records "$RECORDS"

# The records must carry the reproducibility envelope the validator
# checks plus progress samples from the forced --progress run.
if ! grep -q '"samples":\[{' "$RECORDS"; then
    echo "check_obs: FAIL: no progress samples in $RECORDS despite --progress" >&2
    exit 1
fi

echo "== disabled-path smoke (warn-only) =="
T0="$(now_ms)"
"$BENCH" --fast > /dev/null
T1="$(now_ms)"
PLAIN_MS=$((T1 - T0))

echo "instrumented: ${INSTRUMENTED_MS}ms, plain: ${PLAIN_MS}ms"
if [ "$PLAIN_MS" -gt 0 ] && \
   [ $((INSTRUMENTED_MS * 100)) -gt $((PLAIN_MS * 125)) ]; then
    echo "check_obs: WARNING: instrumented run >25% slower than plain;" \
         "fine on a noisy box, investigate if it reproduces" >&2
fi

echo "check_obs: OK"
