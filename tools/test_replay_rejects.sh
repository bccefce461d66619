#!/bin/sh
# `quest replay` must refuse a run it cannot carry out with exit 1 and
# a diagnostic, never a panic:
#   - a default `trace-gen` trace (16 logical qubits) replayed on the
#     default 4 MCEs targets qubits no tile holds: the diagnostic names
#     --mces;
#   - --verify-on-load at a distance whose tile misses its syndrome
#     deadline fails the pre-flight before the system is built, and
#     --metrics-out still records verify.preflight_rejections = 1.
#
# Usage: test_replay_rejects.sh <path-to-quest-binary>

# Absolute, since the runs below start in the scratch directory.
quest=$(cd "$(dirname "$1")" && pwd)/$(basename "$1")
dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT
status=0

# expect_reject TEXT ARGS...: run `quest ARGS...` in $dir and require
# exit 1, TEXT on exactly one stderr line and no panic.
expect_reject() {
    text="$1"
    shift
    err=$(cd "$dir" && "$quest" "$@" 2>&1 >/dev/null)
    rc=$?
    if [ "$rc" -ne 1 ]; then
        echo "FAIL: quest $* exited $rc, expected 1"
        status=1
    elif printf '%s\n' "$err" | grep -q "panic:"; then
        echo "FAIL: quest $* panicked:"
        printf '%s\n' "$err"
        status=1
    elif ! printf '%s\n' "$err" | grep -q -e "$text"; then
        echo "FAIL: quest $*: no '$text' in:"
        printf '%s\n' "$err"
        status=1
    elif [ "$(printf '%s\n' "$err" | grep -c -e "$text")" -ne 1 ]; then
        echo "FAIL: quest $*: '$text' printed more than once:"
        printf '%s\n' "$err"
        status=1
    else
        echo "ok: quest $*"
    fi
}

(cd "$dir" && "$quest" trace-gen >/dev/null) || exit 1
expect_reject "--mces 4 does not place" replay

"$quest" trace-gen --out "$dir/t4.qtrace" --instructions 32 --qubits 4 \
    >/dev/null || exit 1
expect_reject "mce0: pre-flight verification failed" \
    replay --trace t4.qtrace --verify-on-load --distance 15 --rounds 4 \
    --metrics-out m.json

# The failed run still writes what it counted: the rejection itself.
if ! grep -q -E '"verify\.preflight_rejections": 1,?$' "$dir/m.json" \
        2>/dev/null; then
    echo "FAIL: no verify.preflight_rejections = 1 in --metrics-out:"
    cat "$dir/m.json" 2>/dev/null || echo "(no file written)"
    status=1
else
    echo "ok: pre-flight rejection counted in --metrics-out"
fi

exit $status
