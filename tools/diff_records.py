#!/usr/bin/env python3
"""Diff two campaign record files (JSONL) field by field.

Usage:
    python3 tools/diff_records.py A.jsonl B.jsonl [--ignore KEY ...]

Records are paired by position (campaign output is in job order at any
--jobs). Every top-level field is compared exactly; the "counters" object is
compared counter by counter, so a counter name such as
core.fast_forwarded_cycles can be ignored on its own. --ignore takes
top-level field names and counter names, and may be repeated.

Each difference prints one line naming the record and the key. A final line
summarises the comparison.

Exit status: 0 = identical (up to the ignored keys), 1 = some record, field
or counter differs (or the record counts differ), 2 = usage or format error
(missing file, a line that is not a JSON object, a "counters" field that is
not an object).
"""

import argparse
import json
import sys
from typing import Any, Dict, List, NoReturn

MISSING = object()


def usage_error(msg: str) -> NoReturn:
    """Exit 2 (usage/format error) with a one-line diagnostic, no traceback."""
    print(msg, file=sys.stderr)
    sys.exit(2)


def load(path: str) -> List[Dict[str, Any]]:
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().splitlines()
    except (OSError, UnicodeDecodeError) as e:
        usage_error(f"{path}: cannot read: {e}")
    records = []
    for n, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            usage_error(f"{path}:{n}: not JSON: {e.msg}")
        if not isinstance(rec, dict):
            usage_error(f"{path}:{n}: record is not a JSON object")
        if not isinstance(rec.get("counters", {}), dict):
            usage_error(f"{path}:{n}: \"counters\" is not an object")
        records.append(rec)
    return records


def flatten(rec: Dict[str, Any]) -> Dict[str, Any]:
    """Top-level fields plus one entry per counter, keyed by counter name."""
    flat = {k: v for k, v in rec.items() if k != "counters"}
    for name, value in rec.get("counters", {}).items():
        flat[name] = value
    return flat


def label(rec: Dict[str, Any], index: int) -> str:
    parts = [str(rec[k]) for k in ("campaign", "config", "mix") if k in rec]
    return f"record {index}" + (f" ({' / '.join(parts)})" if parts else "")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("a", help="first JSONL record file")
    ap.add_argument("b", help="second JSONL record file")
    ap.add_argument("--ignore", nargs="+", action="extend", default=[], metavar="KEY",
                    help="top-level field or counter name to leave out of the comparison")
    args = ap.parse_args()

    a, b = load(args.a), load(args.b)
    ignored = set(args.ignore)
    differences = 0
    if len(a) != len(b):
        print(f"record count: {len(a)} != {len(b)}")
        differences += 1
    for i, (ra, rb) in enumerate(zip(a, b)):
        fa, fb = flatten(ra), flatten(rb)
        for key in sorted(set(fa) | set(fb)):
            if key in ignored:
                continue
            va, vb = fa.get(key, MISSING), fb.get(key, MISSING)
            if va == vb and type(va) is type(vb):
                continue
            shown_a = "<missing>" if va is MISSING else json.dumps(va)
            shown_b = "<missing>" if vb is MISSING else json.dumps(vb)
            print(f"{label(ra, i)}: {key}: {shown_a} != {shown_b}")
            differences += 1
    compared = min(len(a), len(b))
    verdict = "identical" if differences == 0 else f"{differences} difference(s)"
    note = f" (ignoring {', '.join(sorted(ignored))})" if ignored else ""
    print(f"{compared} record pair(s) compared: {verdict}{note}")
    return 0 if differences == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
