#!/usr/bin/env python3
"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the result documents `run.py --results DIR` writes, one
per workload and seed (untraced runs only are compared).  Runs of the two
sides are paired by seed.  For every workload and end-to-end metric of
BENCHMARK.json this prints both medians with their quartiles, the pairs the
change won, and a verdict:

  regression  the change's median is worse than the parent's by more than the
              metric's bound, or every change run is worse than every parent
              run while the parent's spread exceeds the bound
  unresolved  the parent's spread (quartile distance over median) exceeds
              the bound, and not every change run is better than every
              parent run
  gain        the change won at least nine tenths of the pairs and the
              medians differ by more than the parent's quartile distance;
              withheld when more operations failed than at the parent
  unchanged   anything else

Exits 1 when a pairing regressed or a change run was incorrect.
"""

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory):
    """{workload: {seed: result document}} of the untraced runs."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(directory, name)) as f:
            doc = json.load(f)
        if doc.get("trace") == 0:
            runs.setdefault(doc["workload"], {})[doc["seed"]] = doc["result"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(metric, parent, change, more_failures):
    """parent/change: {seed: value}."""
    lower = metric["better"] == "lower"
    bound = metric["bound"]

    def better(a, b):
        return a < b if lower else a > b

    p, c = list(parent.values()), list(change.values())
    pm, cm = statistics.median(p), statistics.median(c)
    pq1, pq3 = quartiles(p)
    spread = (pq3 - pq1) / pm if pm else float("inf")
    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for s in seeds if better(change[s], parent[s]))
    worse = ((cm - pm) if lower else (pm - cm)) / pm if pm else 0.0
    all_better = all(better(x, y) for x in c for y in p)
    all_worse = all(better(y, x) for x in c for y in p)

    if spread > bound and not all_better:
        label = "regression" if all_worse else "unresolved"
    elif worse > bound:
        label = "regression"
    elif (seeds and wins >= 0.9 * len(seeds) and better(cm, pm)
          and abs(cm - pm) > pq3 - pq1):
        label = "unchanged (gain withheld: more failures)" if more_failures \
            else "gain"
    else:
        label = "unchanged"
    return {"parent": (pm, pq1, pq3, len(p)), "change": (cm, *quartiles(c),
            len(c)), "delta": (cm - pm) / pm if pm else 0.0, "wins": wins,
            "pairs": len(seeds), "spread": spread, "verdict": label}


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    bad = False
    for workload in [w["name"] for w in spec["workloads"]]:
        if workload not in parent or workload not in change:
            print(f"{workload}: results missing on at least one side")
            continue
        p_runs, c_runs = parent[workload], change[workload]
        p_failed = sum(r["failed"] for r in p_runs.values())
        c_failed = sum(r["failed"] for r in c_runs.values())
        incorrect = [s for s, r in c_runs.items() if not r["correct"]]
        print(f"{workload}: parent {len(p_runs)} runs, {p_failed} failed of "
              f"{sum(r['attempted'] for r in p_runs.values())}; change "
              f"{len(c_runs)} runs, {c_failed} failed of "
              f"{sum(r['attempted'] for r in c_runs.values())}")
        if incorrect:
            print(f"  INCORRECT change runs, seeds {sorted(incorrect)}")
            bad = True
        for metric in spec["end_to_end"]:
            name = metric["name"]
            pv = {s: r["metrics"][name]["value"] for s, r in p_runs.items()
                  if name in r["metrics"]}
            cv = {s: r["metrics"][name]["value"] for s, r in c_runs.items()
                  if name in r["metrics"]}
            if not pv or not cv:
                print(f"  {name}: missing")
                continue
            v = verdict(metric, pv, cv, c_failed > p_failed)
            pm, pq1, pq3, pn = v["parent"]
            cm, cq1, cq3, cn = v["change"]
            print(f"  {name:18s} parent {pm:.6g} [{pq1:.6g}..{pq3:.6g}] n={pn}"
                  f"  change {cm:.6g} [{cq1:.6g}..{cq3:.6g}] n={cn}"
                  f"  {v['delta']:+.1%}  wins {v['wins']}/{v['pairs']}"
                  f"  spread {v['spread']:.1%} bound {metric['bound']:.0%}"
                  f"  {v['verdict']}")
            bad = bad or v["verdict"] == "regression"
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
