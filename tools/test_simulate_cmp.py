#!/usr/bin/env python3
"""simulate's machine-wide outputs on a CMP.

Runs `simulate` on multi-core machines and checks what it reports for the
whole machine rather than for core 0:

  trace:  `mix=1 cores=2 sample=500 trace_json=F sample_out=S` passes
          validate_trace.py with the shared backend's llc_mshr_occupancy
          counter track required and a gap-free series, and names one
          process per core (pids 0 and 1) plus the shared backend (pid 2);
  busy:   the "second level: ... busy X/Y cycles (Z%)" line of
          `mix=2 threads=16 cores=4 scheme=rrob` divides the second-level
          busy cycles, summed over the cores, by cores x cycles, so Z never
          exceeds 100.

Registered with ctest as `simulate_cmp_py`:

    test_simulate_cmp.py path/to/simulate
"""

import json
import os
import re
import subprocess
import sys
import tempfile

VALIDATOR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "validate_trace.py")
SHORT = ["insts=4000", "warmup=1000"]

failures = []


def simulate(tool, args):
    proc = subprocess.run([tool] + args + SHORT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"FAIL: simulate {' '.join(args)} exited {proc.returncode}")
    return proc.stdout


def check_trace(tool, tmp):
    trace = os.path.join(tmp, "cmp.json")
    series = os.path.join(tmp, "cmp.jsonl")
    simulate(tool, ["mix=1", "cores=2", "sample=500", "trace_json=" + trace,
                    "sample_out=" + series])
    proc = subprocess.run([sys.executable, VALIDATOR, "--trace", trace, "--require-counter",
                           "llc_mshr_occupancy", "--series", series, "--interval", "500"],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        failures.append(f"validate_trace.py exited {proc.returncode}: {proc.stderr.strip()}")
    with open(trace, encoding="utf-8") as f:
        events = json.load(f)["traceEvents"]
    processes = {e["pid"]: e["args"]["name"] for e in events
                 if e.get("ph") == "M" and e.get("name") == "process_name"}
    want = {0: "core0", 1: "core1", 2: "shared backend"}
    if processes != want:
        failures.append(f"trace processes {processes}, wanted {want}")
    print(f"  trace: processes {sorted(processes.values())}")


def check_busy(tool):
    out = simulate(tool, ["mix=2", "threads=16", "cores=4", "scheme=rrob"])
    cycles = re.search(r"^cycles\s+(\d+)", out, re.M)
    busy = re.search(r"busy (\d+)/(\d+) cycles \(([\d.]+)%\)", out)
    if not cycles or not busy:
        failures.append("no cycles or second-level busy line in simulate's output")
        return
    print(f"  busy: {busy.group(0)} over {cycles.group(1)} machine cycles")
    if int(busy.group(2)) != 4 * int(cycles.group(1)):
        failures.append(f"busy denominator {busy.group(2)} != 4 cores x {cycles.group(1)}")
    if float(busy.group(3)) > 100.0:
        failures.append(f"second level busy {busy.group(3)}% of the cores' cycles")


def main():
    if len(sys.argv) != 2:
        print("usage: test_simulate_cmp.py path/to/simulate", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        check_trace(sys.argv[1], tmp)
    check_busy(sys.argv[1])
    if failures:
        print("FAIL: " + "; ".join(failures))
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
