#!/bin/sh
# Bad numeric flags and flags a subcommand does not know must stop the
# CLI with exit status 1 and one `error: --<flag> ...` diagnostic before
# any work runs. Checking both
# the status and the message rules out a crash or a run with a
# silently wrong value, which a bare WILL_FAIL test would accept.
#
# Usage: test_bad_flags.sh <path-to-quest-binary> [<address-space-KiB>]
#
# With the second argument, the cases that set `vlimit` run under
# `ulimit -v` of that size, so a refusal that first allocates the
# run's state dies with std::bad_alloc instead of printing its error.
# Sanitizer builds reserve far more address space and pass none.

quest="$1"
limit="$2"
vlimit=
status=0

# run_quest ARGS...: the binary, under `ulimit -v $vlimit` when set.
run_quest() {
    if [ -n "$vlimit" ]; then
        (ulimit -v "$vlimit" && exec "$quest" "$@")
    else
        "$quest" "$@"
    fi
}

# expect_error FLAG ARGS...: run `quest ARGS...` and require exit 1
# plus an `error: FLAG ...` line on stderr whose message appears on
# no other line.
expect_error() {
    flag="$1"
    shift
    err=$(run_quest "$@" 2>&1 >/dev/null)
    rc=$?
    msg=$(printf '%s\n' "$err" | sed -n "s/^error: //p" | head -n 1)
    if [ "$rc" -ne 1 ]; then
        echo "FAIL: quest $* exited $rc, expected 1"
        status=1
    elif printf '%s\n' "$err" | grep -q -e "^panic:"; then
        echo "FAIL: quest $*: a library assert fired:"
        printf '%s\n' "$err"
        status=1
    elif ! printf '%s\n' "$err" | grep -q -e "^error: $flag "; then
        echo "FAIL: quest $*: no 'error: $flag' diagnostic in:"
        printf '%s\n' "$err"
        status=1
    elif [ "$(printf '%s\n' "$err" | grep -c -F -e "$msg")" -ne 1 ]; then
        echo "FAIL: quest $*: diagnostic printed more than once:"
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
# Replay flags of the removed classical fault model (DESIGN.md §8) are
# refused, not silently ignored.
expect_error --fault-rate replay --fault-rate 0.01
expect_error --fault-seed replay --fault-seed 7
expect_error --faults-report replay --faults-report
expect_error --qubits trace-gen --qubits 1 --out /dev/null
expect_error --trails simulate --trails 50
expect_error --distnace simulate --distnace 7
expect_error --stream-windw simulate --stream-windw 6
expect_error --stream-stride simulate --stream-stride 3
expect_error --stream-stride simulate --stream-window 2 --stream-stride 5
expect_error --bank-bits verify --bank-bits 0
expect_error --shor estimate --shor 0
# Distance selection and distillation need 0 < p < the surface-code
# threshold; a rate outside it is refused before any estimate runs.
for p in 0 0.01 0.05 1; do
    expect_error --error-rate estimate --error-rate "$p"
done
expect_error --error-rate estimate --workload BWT --tech ProjectedF \
    --error-rate 0.5
# Below one unit-cell program no memory configuration holds it.
for bits in 1 256 1024; do
    expect_error --capacity microcode --capacity "$bits"
done
# A --timing run the scheduler model cannot finish within its cycle
# cap is refused before any of it is simulated.
expect_error --rounds verify --timing --rounds 1000000000
expect_error --rounds verify --timing --rounds 3000000 --protocol Steane \
    --design FIFO
# Below the cycle cap, a run whose per-uop state outgrows the timing
# model's budget is refused too, before it allocates any of it.
vlimit="$limit"
expect_error --rounds verify --timing --rounds 1020408 --protocol Steane \
    --design FIFO
expect_error --rounds verify --timing --rounds 40000 --tiles 2
vlimit=

exit $status
