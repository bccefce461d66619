#!/bin/sh
# Identical seeds must give byte-identical reports: run one quest
# subcommand twice with the same arguments and compare the output.
# For `replay`, a short two-qubit trace is generated first and passed
# as --trace.
#
# Usage: test_deterministic.sh <path-to-quest-binary> <subcommand> [args...]

quest="$1"
shift
dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT

if [ "$1" = replay ]; then
    "$quest" trace-gen --out "$dir/t.qtrace" --instructions 200 \
        --qubits 2 >/dev/null || exit 1
    set -- "$@" --trace "$dir/t.qtrace"
fi
for run in a b; do
    "$quest" "$@" >"$dir/$run.out" || exit 1
done

if [ ! -s "$dir/a.out" ]; then
    echo "FAIL: quest $* printed nothing"
    exit 1
fi
if ! cmp -s "$dir/a.out" "$dir/b.out"; then
    echo "FAIL: two runs of quest $* differ"
    diff "$dir/a.out" "$dir/b.out"
    exit 1
fi
echo "ok: quest $* is deterministic"
