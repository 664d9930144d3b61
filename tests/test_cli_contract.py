#!/usr/bin/env python3
"""Exit-code contract of every tool's command line.

Runs each tool binary named on the command line over a table of malformed
invocations (unknown key, malformed number, out-of-range u32, repeated key,
bad enum, bad mix, surplus argument) and asserts: exit code 2, a stderr
message naming the key or value, and nothing on stdout, so no run began.
`--help` must exit 0 with the usage on stdout. The environment defaults
($TLROB_SAMPLE, $TLROB_PROFILE, $TLROB_AUDIT_ABORT) are held to the same
rules. Registered with ctest as
`cli_contract_py`:

    test_cli_contract.py path/to/simulate path/to/tlrob-campaign ...
"""

import os
import subprocess
import sys
import tempfile

failures = []


def check(tool, args, want_code, needles, want_stdout=None, env=None, want_stderr=None,
          unwanted=()):
    proc = subprocess.run([tool] + args, capture_output=True, text=True, timeout=60,
                          env=None if env is None else {**os.environ, **env})
    name = os.path.basename(tool)
    problems = []
    if proc.returncode != want_code:
        problems.append(f"exit {proc.returncode}, wanted {want_code}")
    stream = proc.stderr if want_code == 2 else proc.stdout
    for needle in needles:
        if needle not in stream:
            problems.append(f"output lacks {needle!r}")
    if want_code == 2 and proc.stdout:
        problems.append("stdout is not empty")
    if want_stdout is not None and want_stdout not in proc.stdout:
        problems.append(f"stdout lacks {want_stdout!r}")
    if want_stderr is not None and want_stderr not in proc.stderr:
        problems.append(f"stderr lacks {want_stderr!r}")
    for needle in unwanted:
        if needle in proc.stdout or needle in proc.stderr:
            problems.append(f"output has {needle!r}")
    env_text = "".join(f"{k}={v} " for k, v in (env or {}).items())
    label = f"{env_text}{name} {' '.join(args)}"
    print(f"  {label[:60]:60s} {'ok' if not problems else 'FAIL: ' + '; '.join(problems)}")
    if problems:
        failures.append(label)
        sys.stderr.write(proc.stderr[-2000:])


def rows(name, tmp):
    out = os.path.join(tmp, "never_written.trace")
    records = os.path.join(tmp, "never_written.jsonl")
    help_row = (["--help"], 0, ["usage: " + name])
    table = {
        "simulate": [
            (["force_cmp=1"], 2, ["force_cmp="]),
            (["insts=abc"], 2, ["--insts", "'abc'"]),
            (["mem_lat=1e3"], 2, ["--mem-lat", "'1e3'"]),
            (["threads=4294967300"], 2, ["--threads", "4294967300"]),
            (["insts=5", "--insts", "6"], 2, ["--insts"]),
            (["scheme=bogus"], 2, ["bogus"]),
            (["mix=99"], 2, ["99"]),
            (["stats=maybe"], 2, ["--stats", "'maybe'"]),
            (["trace=abc"], 2, ["--trace", "'abc'"]),
            (["trace=50:10"], 2, ["--trace", "'50:10'"]),
            (["sample=abc"], 2, ["--sample", "'abc'"]),
            (["threads=4294967296"], 2, ["--threads", "4294967296"]),
            (["policy=bogus"], 2, ["bogus"]),
            (["cores=0"], 2, ["--cores", "'0'"]),
            (["llc=8x"], 2, ["--llc", "'8x'"]),
            (["notabench"], 2, ["notabench"]),
            (["-h"], 0, ["usage: simulate"]),
        ],
        "tlrob-campaign": [
            (["fig1", "--sed", "7"], 2, ["sed="]),
            (["--jobs", "x"], 2, ["--jobs", "'x'"]),
            (["--jobs", "4294967297"], 2, ["--jobs", "4294967297"]),
            (["--insts", "-5"], 2, ["--insts", "'-5'"]),
            (["fig1", "--seed", "5", "--seed", "7"], 2, ["--seed"]),
            (["--schemes", "bogus"], 2, ["bogus"]),
            (["--mixes", "99"], 2, ["99"]),
            (["--mixes", "1x"], 2, ["--mixes", "'1x'"]),
            (["--thresholds", "abc"], 2, ["--thresholds", "'abc'"]),
            (["--mixes="], 2, ["--mixes", "''"]),
            (["--workload", "tracegen:art@10x"], 2, ["'10x'"]),
            (["--resume=maybe"], 2, ["--resume", "'maybe'"]),
            (["fig1", "--resume", "--insts", "1000", "--warmup", "500"], 2,
             ["--resume", "--manifest"]),
            (["fig1", "fig2"], 2, ["'fig2'"]),
            (["fig2,fig4", "--csv", "-"], 2, ["--csv", "'fig2,fig4'"]),
            (["fig2,fig4", "--sample-dir", tmp], 2, ["--sample-dir", "'fig2,fig4'"]),
            # cmp_mix's 2-core columns cannot split one workload: exit 2
            # before fig1 runs a cell or writes a record.
            (["fig1,cmp_mix", "--workload", "tracegen:art@1000", "--insts", "1000",
              "--warmup", "500", "--json", records], 2, ["cores=2"]),
            (["fig2,fig99"], 2, ["'fig99'"]),
            (["fig2,fig2"], 2, ["'fig2'", "twice"]),
        ],
        "tlrob-mktrace": [
            (["--bogus", "1"], 2, ["bogus="]),
            (["--profile", "art", "--records", "10x", "--out", out], 2, ["--records", "'10x'"]),
            (["--records", "5", "--records", "6"], 2, ["--records"]),
            (["--profile", "nosuch", "--records", "10", "--out", out], 2, ["nosuch"]),
            (["extra"], 2, ["'extra'"]),
        ],
        "tlrob-golden": [
            (["--bogus"], 2, ["bogus="]),
            (["--preset", "fig99"], 2, ["--preset", "fig99"]),
            (["--dir", "a", "--dir", "b"], 2, ["--dir"]),
            (["extra"], 2, ["'extra'"]),
        ],
        "tlrob-lint": [
            (["--bogus"], 2, ["bogus="]),
            (["-p", "a", "-p", "b"], 2, ["-p"]),
        ],
        "campaign_sweep": [
            (["jobs=x"], 2, ["--jobs", "'x'"]),
            (["jobs=4294967296"], 2, ["--jobs"]),
        ],
    }
    return table[name] + [help_row]


def main():
    tools = sys.argv[1:]
    if not tools:
        print("usage: test_cli_contract.py TOOL...", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        print("command-line exit-code contract:")
        for tool in tools:
            for args, code, needles in rows(os.path.basename(tool), tmp):
                check(tool, args, code, needles)
            for never in ("never_written.trace", "never_written.jsonl"):
                if os.path.exists(os.path.join(tmp, never)):
                    failures.append(f"{tool} wrote {never} despite a malformed option")
        # The space form reaches simulate: `--insts 2000` is a run length,
        # not a benchmark named 2000.
        for tool in tools:
            if os.path.basename(tool) == "simulate":
                check(tool, ["--insts", "2000", "--warmup", "500"], 0, [],
                      want_stdout="2000 insts after 500 warmup")
        # The environment defaults are as strict as the command line: a
        # malformed value exits 2 naming the variable and value, never a
        # different interval or a switch read as on.
        short = ["insts=2000", "warmup=500"]
        env_rows = {
            "simulate": [
                (short, {"TLROB_SAMPLE": "5e2"}, ["$TLROB_SAMPLE", "'5e2'"]),
                (short, {"TLROB_SAMPLE": "abc"}, ["$TLROB_SAMPLE", "'abc'"]),
                (short, {"TLROB_PROFILE": "maybe"}, ["$TLROB_PROFILE", "'maybe'"]),
                (short, {"TLROB_AUDIT_ABORT": "maybe"}, ["$TLROB_AUDIT_ABORT", "'maybe'"]),
            ],
            "tlrob-campaign": [
                (["fig1", "--insts", "1000"], {"TLROB_SAMPLE": "5e2"}, ["$TLROB_SAMPLE"]),
                (["fig1", "--insts", "1000"], {"TLROB_AUDIT_ABORT": "2"},
                 ["$TLROB_AUDIT_ABORT", "'2'"]),
            ],
        }
        for tool in tools:
            for args, env, needles in env_rows.get(os.path.basename(tool), []):
                check(tool, args, 2, needles, env=env)
            if os.path.basename(tool) == "simulate":
                # `off` is a boolean spelling: no profiler table.
                check(tool, short, 0, [], want_stdout="2000 insts after 500 warmup",
                      env={"TLROB_PROFILE": "off"}, unwanted=["ns/cycle"])
                check(tool, short, 0, [], env={"TLROB_PROFILE": "on"}, want_stderr="ns/cycle")
    if failures:
        print(f"FAIL: {len(failures)} case(s): {', '.join(failures)}")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
