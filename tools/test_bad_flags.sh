#!/bin/sh
# Bad numeric flags must stop the CLI with exit status 1 and an
# `error: --<flag> ...` diagnostic before any work runs. Checking both
# the status and the message rules out a crash or a run with a
# silently wrong value, which a bare WILL_FAIL test would accept.
#
# Usage: test_bad_flags.sh <path-to-quest-binary>

quest="$1"
status=0

# expect_error FLAG ARGS...: run `quest ARGS...` and require exit 1
# plus an `error: FLAG ...` line on stderr.
expect_error() {
    flag="$1"
    shift
    err=$("$quest" "$@" 2>&1 >/dev/null)
    rc=$?
    if [ "$rc" -ne 1 ]; then
        echo "FAIL: quest $* exited $rc, expected 1"
        status=1
    elif ! printf '%s\n' "$err" | grep -q -e "^error: $flag "; then
        echo "FAIL: quest $*: no 'error: $flag' diagnostic in:"
        printf '%s\n' "$err"
        status=1
    else
        echo "ok: quest $*"
    fi
}

expect_error --distance simulate --distance abc
expect_error --error-rate simulate --error-rate 2
expect_error --distance simulate --distance 4
expect_error --trials simulate --trials -5
expect_error --mces replay --mces 0
expect_error --qubits trace-gen --qubits 1 --out /dev/null

exit $status
