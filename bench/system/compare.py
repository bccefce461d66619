#!/usr/bin/env python3
"""Compare two system_throughput results against the benchmark's bounds.

Usage:

    python3 bench/system/compare.py OLD.json NEW.json [--benchmark PATH]

OLD.json and NEW.json are written by `system_throughput --out=PATH`.
For every (workload, seed) present in both and every end-to-end metric
listed in BENCHMARK.json (default: the one at the root of this source
tree), prints both medians with their quartiles and the change in the
metric's "worse" direction as a share of the old median, next to the
metric's bound. A pair is

  - unresolved  when either side's quartile spread, (p75 - p25) as a
                share of its median, exceeds the bound: the runs are too
                noisy to call it either way;
  - REGRESSION  otherwise, when the new median is worse than the old by
                more than the bound;
  - ok          otherwise.

The logical failure rate of a Monte-Carlo workload cannot carry a
BENCHMARK.json bound: it exists on one workload only. It is compared
here instead. For one seed it is exact, so the two runs differ only
when the code changed. A rise of more than two binomial standard errors
of the difference (pooled rate, each side's episode length in shots)
is a REGRESSION.

Exits 1 when any pair is a regression, 0 otherwise. Python stdlib only.
"""

import argparse
import json
import math
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(HERE)),
                                 "BENCHMARK.json")
LER = "logical_failure_rate"
LER_SIGMAS = 2.0


def load_runs(path):
    """Map (workload, seed) -> metrics dict of one result file."""
    with open(path) as f:
        data = json.load(f)
    return {(r["workload"], r["seed"]): r for r in data["runs"]}


def spread(stat):
    median = stat["median"]
    if not median:
        return 0.0
    return abs(stat["p75"] - stat["p25"]) / abs(median)


def ler_rise(old, new):
    """(rise, 2-SE limit) of the logical failure rate, or None where
    there is none (round workloads report it as 0)."""
    if LER not in old["metrics"] or LER not in new["metrics"]:
        return None
    n1, n2 = old["episode_length"], new["episode_length"]
    p1, p2 = old["metrics"][LER]["median"], new["metrics"][LER]["median"]
    if not (p1 or p2):
        return None
    pooled = (p1 * n1 + p2 * n2) / (n1 + n2)
    se = math.sqrt(pooled * (1 - pooled) * (1 / n1 + 1 / n2))
    return p2 - p1, LER_SIGMAS * se


def main():
    parser = argparse.ArgumentParser(
        description="Compare two system_throughput JSON results.")
    parser.add_argument("old")
    parser.add_argument("new")
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK,
                        help="BENCHMARK.json holding the bounds")
    args = parser.parse_args()

    with open(args.benchmark) as f:
        metrics = json.load(f)["end_to_end"]
    old_runs = load_runs(args.old)
    new_runs = load_runs(args.new)
    common = sorted(set(old_runs) & set(new_runs))
    if not common:
        print("compare.py: no (workload, seed) in both files",
              file=sys.stderr)
        return 1

    regressions = 0
    print("%-14s %4s %-18s %28s %28s %9s %6s  %s"
          % ("workload", "seed", "metric", "old median [p25, p75]",
             "new median [p25, p75]", "worse by", "bound", "status"))
    for key in common:
        old, new = old_runs[key], new_runs[key]
        for spec in metrics:
            name, bound = spec["name"], spec["bound"]
            if name not in old["metrics"] or name not in new["metrics"]:
                continue
            a, b = old["metrics"][name], new["metrics"][name]
            if a["median"] is None or b["median"] is None:
                continue
            worse = b["median"] - a["median"]
            if spec["better"] == "higher":
                worse = -worse
            share = worse / abs(a["median"]) if a["median"] else 0.0
            if spread(a) > bound or spread(b) > bound:
                status = "unresolved"
            elif share > bound:
                status = "REGRESSION"
                regressions += 1
            else:
                status = "ok"
            print("%-14s %4d %-18s %28s %28s %+8.2f%% %5.1f%%  %s"
                  % (key[0], key[1], name,
                     "%.5g [%.5g, %.5g]" % (a["median"], a["p25"],
                                            a["p75"]),
                     "%.5g [%.5g, %.5g]" % (b["median"], b["p25"],
                                            b["p75"]),
                     100 * share, 100 * bound, status))
        ler = ler_rise(old, new)
        if ler is not None:
            rise, limit = ler
            status = "ok"
            if rise > limit:
                status = "REGRESSION"
                regressions += 1
            print("%-14s %4d %-18s %28.5g %28.5g %+9.5f %6.4f  %s"
                  % (key[0], key[1], LER,
                     old["metrics"][LER]["median"],
                     new["metrics"][LER]["median"], rise, limit, status))
        if not (old["correct"] and new["correct"]):
            print("%-14s %4d correctness: old %s, new %s"
                  % (key[0], key[1], old["correct"], new["correct"]))
            if not new["correct"]:
                regressions += 1
    if regressions:
        print("compare.py: %d regression(s)" % regressions)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
