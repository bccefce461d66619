#!/bin/sh
# decoder_throughput's JSON `metrics` section counts one untimed
# decode per trial per decoder, so it must not depend on the timing-
# calibrated rep count: two --smoke runs of one build must write the
# same section byte for byte.
#
# Usage: test_metrics_repro.sh <path-to-decoder_throughput>
set -eu

bench="$1"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

"$bench" --smoke --out="$tmp/a.json"
"$bench" --smoke --out="$tmp/b.json"
sed -n '/"metrics":/,$p' "$tmp/a.json" > "$tmp/a.metrics"
sed -n '/"metrics":/,$p' "$tmp/b.json" > "$tmp/b.metrics"
if [ ! -s "$tmp/a.metrics" ]; then
    echo "FAIL: no metrics section in $tmp/a.json"
    exit 1
fi
if ! diff "$tmp/a.metrics" "$tmp/b.metrics"; then
    echo "FAIL: two --smoke runs wrote different metrics sections"
    exit 1
fi
echo "ok: metrics sections of two --smoke runs match"
