#!/usr/bin/env python3
"""Exit-code contract tests for diff_records.py.

Runs the differ as a subprocess over small synthetic record files and asserts
the documented contract: 0 = identical up to the ignored keys, 1 = a field,
counter or record count differs, 2 = usage/format error — and that format
errors produce a one-line diagnostic, never a Python traceback. Registered
with ctest as `diff_records_py`.
"""

import copy
import json
import os
import subprocess
import sys
import tempfile

DIFFER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "diff_records.py")

RECORD = {
    "job": 0,
    "campaign": "fig2",
    "config": "R-ROB16",
    "mix": "Mix 1",
    "seed": 12345,
    "cycles": 4873,
    "ft": 0.5379689717795364,
    "committed": [468, 504],
    "dod_true": {"n": 3, "sum": 9, "buckets": [0, 3]},
    "counters": {"core.fast_forwarded_cycles": 5762, "rob.rejected_high_dod": 12},
}


def variant(**changes):
    rec = copy.deepcopy(RECORD)
    for key, value in changes.items():
        if key in rec["counters"]:
            rec["counters"][key] = value
        else:
            rec[key] = value
    return rec


def write(tmp, name, content):
    path = os.path.join(tmp, name)
    with open(path, "w") as f:
        if isinstance(content, str):
            f.write(content)
        else:
            f.write("".join(json.dumps(r) + "\n" for r in content))
    return path


def run(a, b, *extra):
    return subprocess.run([sys.executable, DIFFER, a, b, *extra], capture_output=True, text=True)


failures = []


def check(label, proc, want_code, want_stdout=()):
    ok = proc.returncode == want_code and "Traceback" not in proc.stderr
    for needle in want_stdout:
        if needle not in proc.stdout:
            ok = False
    status = "ok" if ok else f"FAIL (exit {proc.returncode}, wanted {want_code})"
    print(f"  {label:44s} {status}")
    if not ok:
        failures.append(label)
        sys.stderr.write(proc.stderr)
        sys.stderr.write(proc.stdout)


def main():
    with tempfile.TemporaryDirectory() as tmp:
        second = variant(job=1, mix="Mix 2")
        base = write(tmp, "base.jsonl", [RECORD, second])
        same = write(tmp, "same.jsonl", [RECORD, second])
        ff_moved = write(
            tmp, "ff.jsonl", [variant(**{"core.fast_forwarded_cycles": 17}), second]
        )
        counter_moved = write(
            tmp,
            "counter.jsonl",
            [RECORD, variant(job=1, mix="Mix 2", **{"rob.rejected_high_dod": 13})],
        )
        field_moved = write(tmp, "field.jsonl", [variant(cycles=4874), second])
        nested_moved = write(
            tmp, "nested.jsonl", [variant(dod_true={"n": 3, "sum": 9, "buckets": [1, 2]}), second]
        )
        counter_gone = copy.deepcopy(RECORD)
        del counter_gone["counters"]["rob.rejected_high_dod"]
        missing_counter = write(tmp, "gone.jsonl", [counter_gone, second])
        int_vs_float = write(tmp, "float.jsonl", [variant(cycles=4873.0), second])
        shorter = write(tmp, "short.jsonl", [RECORD])
        blank_lines = write(
            tmp, "blank.jsonl", json.dumps(RECORD) + "\n\n" + json.dumps(second) + "\n"
        )
        not_json = write(tmp, "garbage.jsonl", json.dumps(RECORD) + "\n{not json\n")
        not_object = write(tmp, "list.jsonl", "[1, 2]\n")
        bad_counters = write(tmp, "badcounters.jsonl", [variant(counters=[1, 2])])
        missing = os.path.join(tmp, "does_not_exist.jsonl")

        print("diff_records.py exit-code contract:")
        check("identical files -> 0", run(base, same), 0,
              want_stdout=["2 record pair(s)", "identical"])
        check("blank lines skipped -> 0", run(base, blank_lines), 0)
        check("ignored counter differs -> 0",
              run(base, ff_moved, "--ignore", "core.fast_forwarded_cycles"), 0)
        check("unignored counter differs -> 1", run(base, ff_moved), 1,
              want_stdout=["record 0 (fig2 / R-ROB16 / Mix 1): "
                           "core.fast_forwarded_cycles: 5762 != 17"])
        check("other counter still compared -> 1",
              run(base, counter_moved, "--ignore", "core.fast_forwarded_cycles"), 1,
              want_stdout=["rob.rejected_high_dod: 12 != 13"])
        check("top-level field differs -> 1", run(base, field_moved), 1,
              want_stdout=["cycles"])
        check("ignored top-level field -> 0", run(base, field_moved, "--ignore", "cycles"), 0)
        check("repeated --ignore -> 0",
              run(base, field_moved, "--ignore", "job", "--ignore", "cycles"), 0)
        check("nested field differs -> 1", run(base, nested_moved), 1,
              want_stdout=["dod_true"])
        check("counter missing on one side -> 1", run(base, missing_counter), 1,
              want_stdout=["<missing>"])
        check("int vs float differs -> 1", run(base, int_vs_float), 1)
        check("record count differs -> 1", run(base, shorter), 1,
              want_stdout=["record count: 2 != 1"])
        check("malformed JSON line -> 2", run(base, not_json), 2)
        check("non-object record -> 2", run(not_object, base), 2)
        check("non-object counters -> 2", run(base, bad_counters), 2)
        check("missing file -> 2", run(missing, base), 2)
        check("unknown option -> 2", run(base, same, "--bogus"), 2)

    if failures:
        print(f"FAIL: {len(failures)} case(s): {', '.join(failures)}")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
