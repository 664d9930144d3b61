#!/usr/bin/env python3
"""`tlrob-campaign all` gives every preset the records of its own run.

Runs `tlrob-campaign all` once, then each preset on its own at the same
settings, splits the combined JSON lines by their "campaign" field and
compares each slice with the standalone file through diff_records.py with no
--ignore: the cell memo that serves a cell shared by several presets must
not change a byte. Also checks that the slices come in preset_names() order
and that the combined run did reuse cells.
Registered with ctest as `campaign_all_py`:

    test_campaign_all.py path/to/tlrob-campaign
"""

import os
import subprocess
import sys
import tempfile

DIFFER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "diff_records.py")
SETTINGS = ["--insts", "2000", "--warmup", "1000", "--jobs", "2", "--no-render"]


def campaign(tool, args, cwd):
    proc = subprocess.run([tool] + args + SETTINGS, capture_output=True, text=True,
                          cwd=cwd, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"FAIL: tlrob-campaign {' '.join(args)} exited {proc.returncode}")
    return proc.stderr


def main():
    if len(sys.argv) != 2:
        print("usage: test_campaign_all.py path/to/tlrob-campaign", file=sys.stderr)
        return 2
    tool = os.path.abspath(sys.argv[1])
    listing = subprocess.run([tool, "--list"], capture_output=True, text=True, check=True)
    presets = [line.split()[0] for line in listing.stdout.splitlines()[1:] if line.strip()]

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        summary = campaign(tool, ["all", "--json", "all.jsonl"], tmp)
        slices = {}
        order = []
        with open(os.path.join(tmp, "all.jsonl"), encoding="utf-8") as f:
            for line in f:
                # "campaign" is the second key of every record line.
                name = line.split('"campaign":"', 1)[1].split('"', 1)[0]
                if name not in slices:
                    order.append(name)
                    slices[name] = []
                slices[name].append(line)
        if order != presets:
            failures.append(f"slice order {order} != preset order {presets}")
        # The presets share cells (every figure's Baseline_32 column), so
        # the one-process run must have served some from the memo.
        reused = sum(int(line.split(" reused")[0].rsplit(" ", 1)[1])
                     for line in summary.splitlines() if " reused" in line)
        print(f"  all: {sum(map(len, slices.values()))} records, {reused} reused")
        if reused == 0:
            failures.append("`all` reused no cell")
        for preset in presets:
            alone = os.path.join(tmp, preset + ".jsonl")
            campaign(tool, [preset, "--json", alone], tmp)
            part = os.path.join(tmp, preset + ".slice.jsonl")
            with open(part, "w", encoding="utf-8") as f:
                f.writelines(slices.get(preset, []))
            diff = subprocess.run([sys.executable, DIFFER, alone, part],
                                  capture_output=True, text=True)
            status = "ok" if diff.returncode == 0 else f"FAIL (diff exit {diff.returncode})"
            print(f"  {preset:24s} {len(slices.get(preset, [])):4d} records  {status}")
            if diff.returncode != 0:
                failures.append(preset)
                sys.stderr.write(diff.stdout[-2000:] + diff.stderr[-2000:])
    if failures:
        print(f"FAIL: {', '.join(failures)}")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
