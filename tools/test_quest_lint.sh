#!/bin/sh
# Regression test for the det-unordered-iteration,
# det-simd-dispatch and det-metric-local-static determinism rules.
#
# The known std::unordered_* hot spot was audited
# (LogicalInstructionCache::_index, point-access only): this script
# pins the audit. It checks that (1) the audited files stay clean,
# (2) a result-affecting module that iterates an unordered_map trips
# the rule, and (3) an explicit quest-lint allow() suppression still
# works.
#
# The corrupted fixture is staged in a throwaway repo skeleton
# (tools/quest_lint derives the repo root from its own location, and
# the rule only applies under result-affecting module paths such as
# src/core/), so the real tree is never touched.
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"

if ! command -v python3 >/dev/null 2>&1; then
    echo "python3 unavailable; skipping quest_lint regression"
    exit 0
fi

# 1. The audited point-access user must stay clean.
python3 "$root/tools/quest_lint" \
    "$root/src/core/icache.hpp" "$root/src/core/icache.cpp"

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/tools" "$tmp/src/core"
cp "$root/tools/quest_lint" "$tmp/tools/quest_lint"

# 2. Iterating an unordered_map in src/core must trip the rule.
cat > "$tmp/src/core/bad_iteration.cpp" <<'EOF'
#include <unordered_map>

int
sum()
{
    std::unordered_map<int, int> counts;
    int total = 0;
    for (const auto &kv : counts)
        total += kv.second;
    return total;
}
EOF
if python3 "$tmp/tools/quest_lint" "$tmp/src/core/bad_iteration.cpp" \
    > "$tmp/out.txt" 2>&1; then
    echo "FAIL: linter accepted unordered iteration in src/core" >&2
    cat "$tmp/out.txt" >&2
    exit 1
fi
grep -q "det-unordered-iteration" "$tmp/out.txt"

# 3. The same iteration under an explicit allow() is accepted.
cat > "$tmp/src/core/bad_iteration.cpp" <<'EOF'
#include <unordered_map>

int
sum()
{
    std::unordered_map<int, int> counts;
    int total = 0;
    // quest-lint: allow(det-unordered-iteration)
    for (const auto &kv : counts)
        total += kv.second;
    return total;
}
EOF
python3 "$tmp/tools/quest_lint" "$tmp/src/core/bad_iteration.cpp"

# 4. Intrinsics or CPUID probes anywhere must trip
#    det-simd-dispatch; no path is exempt, src/sim included.
mkdir -p "$tmp/src/quantum" "$tmp/src/sim"
for fixture in src/quantum/bad_simd.cpp src/sim/simd.hpp; do
    cat > "$tmp/$fixture" <<'EOF'
#include <immintrin.h>

bool
fast()
{
    return __builtin_cpu_supports("avx2") > 0;
}
EOF
    if python3 "$tmp/tools/quest_lint" "$tmp/$fixture" \
        > "$tmp/out.txt" 2>&1; then
        echo "FAIL: linter accepted raw intrinsics in $fixture" >&2
        cat "$tmp/out.txt" >&2
        exit 1
    fi
    grep -q "det-simd-dispatch" "$tmp/out.txt"
done

# 5. The same code under an explicit allow() is accepted.
cat > "$tmp/src/quantum/bad_simd.cpp" <<'EOF'
// quest-lint: allow(det-simd-dispatch)
#include <immintrin.h>

bool
fast()
{
    // quest-lint: allow(det-simd-dispatch)
    return __builtin_cpu_supports("avx2") > 0;
}
EOF
python3 "$tmp/tools/quest_lint" "$tmp/src/quantum/bad_simd.cpp"

# 6. A function-local static bound to the metrics registry must
#    trip det-metric-local-static (the registry-lifetime hazard the
#    bound-at-construction members in DynamicScheduler/Mce exist
#    to avoid), including when the initializer wraps lines.
cat > "$tmp/src/core/bad_metric.cpp" <<'EOF'
#include "sim/metrics.hpp"

void
bump()
{
    static auto &calls =
        quest::sim::metrics::Registry::global().counter(
            "core.bump.calls", "calls into bump()");
    ++calls;
}
EOF
if python3 "$tmp/tools/quest_lint" "$tmp/src/core/bad_metric.cpp" \
    > "$tmp/out.txt" 2>&1; then
    echo "FAIL: linter accepted a static metrics-registry ref" >&2
    cat "$tmp/out.txt" >&2
    exit 1
fi
grep -q "det-metric-local-static" "$tmp/out.txt"

# 7. The same binding under an explicit allow() is accepted, and a
#    non-static registry use never fires the rule.
cat > "$tmp/src/core/bad_metric.cpp" <<'EOF'
#include "sim/metrics.hpp"

void
bump()
{
    // quest-lint: allow(det-metric-local-static)
    static auto &calls =
        quest::sim::metrics::Registry::global().counter(
            "core.bump.calls", "calls into bump()");
    ++calls;
}

void
bumpFresh()
{
    auto &calls = quest::sim::metrics::Registry::global().counter(
        "core.bump.fresh", "per-call registry lookup is fine");
    ++calls;
}
EOF
python3 "$tmp/tools/quest_lint" "$tmp/src/core/bad_metric.cpp"

echo "quest_lint det-unordered-iteration + det-simd-dispatch +" \
     "det-metric-local-static: OK"
