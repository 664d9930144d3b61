#!/usr/bin/env python3
"""Compares two sets of perfbench results, and refuses to mix hosts.

    python3 perfbench/compare.py BASE HEAD

BASE and HEAD are result files written by perfbench/run.py
(<build>/results/<workload>-seed<N>-trace<T>.json) or directories of them,
typically one set per commit, each run over several seeds. Results are
grouped by (workload, trace). For every metric the median of each side, the
change and each side's interquartile spread over its median are printed;
an end-to-end metric that got worse by more than its BENCHMARK.json bound
is marked WORSE, one that got worse within the bound is marked "worse"
(a slowdown is reported as a slowdown), and a change smaller than the
base's own spread is marked unresolved. Seeds run on both sides have their
simulated-output digests compared: a simulator-speed change keeps them all.

Exits 2 without comparing when the results come from different hosts
(nproc, CPU model, compiler or build type), 1 when any end-to-end metric
is WORSE, and 0 otherwise.
"""
import json
import statistics
import sys
from pathlib import Path

HOST_KEYS = ("nproc", "cpu_model", "compiler", "build_type")


def load(arg):
    p = Path(arg)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    return [json.loads(f.read_text()) for f in files]


def spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / abs(med) if med else 0.0


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = load(argv[1]), load(argv[2])
    if not base or not head:
        print("compare: no results found", file=sys.stderr)
        return 2
    hosts = {json.dumps({k: r["host"].get(k) for k in HOST_KEYS}, sort_keys=True)
             for r in base + head}
    if len(hosts) != 1:
        print("compare: refusing to compare results from different hosts:", file=sys.stderr)
        for h in sorted(hosts):
            print("  " + h, file=sys.stderr)
        return 2
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    print("host " + hosts.pop())
    worse = 0
    groups = sorted({(r["workload"], r["trace"]) for r in base} &
                    {(r["workload"], r["trace"]) for r in head})
    for workload, trace in groups:
        b = [r for r in base if (r["workload"], r["trace"]) == (workload, trace)]
        h = [r for r in head if (r["workload"], r["trace"]) == (workload, trace)]
        print(f"\n{workload} trace={trace}: base n={len(b)}, head n={len(h)}")
        # Simulated outputs: a pure simulator-speed change keeps every digest.
        base_digest = {r["seed"]: r["digest"] for r in b}
        paired = [(r["seed"], base_digest[r["seed"]] == r["digest"]) for r in h
                  if r["seed"] in base_digest]
        changed = sorted(seed for seed, same in paired if not same)
        print(f"  digests: {len(paired) - len(changed)}/{len(paired)} seeds identical"
              + (f", CHANGED for seeds {changed}" if changed else ""))
        for name, m in declared.items():
            bv = [r["metrics"][name] for r in b if name in r["metrics"]]
            hv = [r["metrics"][name] for r in h if name in r["metrics"]]
            if not bv or not hv:
                continue
            bm, hm = statistics.median(bv), statistics.median(hv)
            change = (hm - bm) / abs(bm) if bm else 0.0
            got_worse = change > 0 if m["better"] == "lower" else change < 0
            verdict = ""
            if change == 0:
                verdict = "same"
            elif abs(change) <= spread(bv):
                verdict = "unresolved"
            elif got_worse and "bound" in m and abs(change) > m["bound"]:
                verdict = "WORSE"
                worse += 1
            elif got_worse:
                verdict = "worse"
            print(f"  {name:32s} {bm:14.6g} -> {hm:14.6g} {m['unit']:8s} {100 * change:+8.2f}%"
                  f"  spread {100 * spread(bv):5.1f}%/{100 * spread(hv):5.1f}%  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
