#!/bin/sh
# Bad flags must stop a gate bench with exit status 1 and an
# `error: --<flag> ...` diagnostic before any work runs. Checking both
# the status and the message rules out a crash, an abort on an
# uncaught exception, or a run with a silently wrapped value.
#
# Usage: test_bad_flags.sh <directory-holding-the-bench-binaries>

dir="$1"
status=0

# expect_error FLAG BENCH ARGS...: run `BENCH ARGS...` and require
# exit 1 plus an `error: FLAG ...` line on stderr.
expect_error() {
    flag="$1"
    bench="$2"
    shift 2
    err=$("$dir/$bench" "$@" 2>&1 >/dev/null)
    rc=$?
    if [ "$rc" -ne 1 ]; then
        echo "FAIL: $bench $* exited $rc, expected 1"
        status=1
    elif ! printf '%s\n' "$err" | grep -q -e "^error: $flag "; then
        echo "FAIL: $bench $*: no 'error: $flag' diagnostic in:"
        printf '%s\n' "$err"
        status=1
    else
        echo "ok: $bench $*"
    fi
}

expect_error --trials stream_lag --trials=abc
expect_error --threads decoder_throughput --threads=-1 --smoke
expect_error --check-scaling decoder_throughput --check-scaling=nan
expect_error --min-window-ms decoder_throughput --min-window-ms=
expect_error --threads kernel_speed --threads=4x
expect_error --smoke kernel_speed --smoke=1
expect_error --rounds ablation_schedule --rounds
expect_error --bogus ablation_schedule --bogus

exit $status
