#!/bin/sh
# A seeded fault replay must be deterministic: two runs with the same
# --fault-seed print byte-identical reports, and the report covers the
# injected fault kinds. A zero fault rate must leave the run fault-free.
#
# Usage: test_replay_faults.sh <path-to-quest-binary>

quest="$1"
dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT

"$quest" trace-gen --out "$dir/t.qtrace" --instructions 200 --qubits 2 \
    >/dev/null || exit 1
for run in a b; do
    "$quest" replay --trace "$dir/t.qtrace" --mces 2 --rounds 64 \
        --fault-rate 0.01 --fault-seed 7 --faults-report \
        >"$dir/$run.out" || exit 1
done

if ! cmp -s "$dir/a.out" "$dir/b.out"; then
    echo "FAIL: two seeded fault replays differ"
    diff "$dir/a.out" "$dir/b.out"
    exit 1
fi
# --fault-rate 0 is the fault-free run: the same report, byte for byte,
# as leaving the flag out.
"$quest" replay --trace "$dir/t.qtrace" --mces 2 --rounds 64 \
    --faults-report >"$dir/plain.out" || exit 1
"$quest" replay --trace "$dir/t.qtrace" --mces 2 --rounds 64 \
    --fault-rate 0 --faults-report >"$dir/zero.out" || exit 1
if ! cmp -s "$dir/plain.out" "$dir/zero.out"; then
    echo "FAIL: --fault-rate 0 changes the report"
    diff "$dir/plain.out" "$dir/zero.out"
    exit 1
fi
for counter in faults.seu_injected faults.hangs_injected \
               faults.network_lost faults.decoder_overruns; do
    if ! grep -q "^$counter " "$dir/a.out"; then
        echo "FAIL: no $counter line in the fault report"
        cat "$dir/a.out"
        exit 1
    fi
done
echo "ok: seeded fault replay is deterministic; rate 0 is fault-free"
