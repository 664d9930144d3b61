#!/usr/bin/env python3
"""tlrob benchmark: builds tlrob_perfbench, runs one workload, prints its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root (or anywhere: paths resolve from this file).
The benchmark binary (perfbench/src) is built from source into $CARGO_TARGET_DIR
(default .bench_build) on first use; build output goes to stderr.

--trace 0 repeats untraced passes of the workload, each in a fresh process,
for about S seconds and reports the medians of the end-to-end metrics.
--trace 1 runs the probes once, then alternates untraced and traced passes,
and reports the per-layer metrics plus the tracing overhead. Every pass's
simulated outputs are checked: every cell must finish ok, every record must
carry the requested seed, and all passes of one run must print the same
digest. The last line of stdout is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The full result, with the host stamp, is also written to
<build>/results/<workload>-seed<N>-trace<T>.json for perfbench/compare.py.
"""
import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_evidence", "cmp_backend", "compute_trace")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Configures (once) and builds tlrob_perfbench; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"tlrob sources not found under {ROOT / 'src'}")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, cwd=ROOT)
    subprocess.run(["cmake", "--build", str(out), "-j", str(os.cpu_count() or 1),
                    "--target", "tlrob_perfbench"],
                   check=True, stdout=sys.stderr, cwd=ROOT)
    return out / "tlrob_perfbench"


def child_env():
    # $TLROB_AUDIT / $TLROB_SAMPLE / $TLROB_PROFILE change every
    # MachineConfig's defaults; the benchmark measures the defaults.
    return {k: v for k, v in os.environ.items() if not k.startswith("TLROB_")}


def run_pass(binary, mode, workload, seed, scale, extra=()):
    cmd = [str(binary), "--mode", mode, "--workload", workload, "--seed", str(seed),
           "--scale", repr(scale), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT,
                          timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources (the checkout the
    benchmark runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in (ROOT / "src", HERE):
        for p in sorted(top.rglob("*")):
            if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return "none"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, timeout=10)
        return proc.stdout.strip() if proc.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def host_stamp(sample_pass):
    return {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
            "compiler": sample_pass.get("compiler", "unknown"),
            "build_type": sample_pass.get("build_type", "unknown"),
            "git_commit": git_commit(), "source_digest": source_digest()}


def median_values(passes):
    keys = sorted({k for p in passes for k in p["values"]})
    return {k: statistics.median(p["values"][k] for p in passes if k in p["values"])
            for k in keys}


def check_passes(passes):
    """(attempted, failed, problems) over the workload passes: failed cells,
    records stamped with another seed, and passes whose digest differs from
    the first pass's all count as failed operations."""
    attempted = failed = 0
    problems = []
    reference = passes[0]["digest"]
    for i, p in enumerate(passes):
        attempted += p["cells"]
        bad = p["failed"] + p["seed_mismatch"]
        if p["digest"] != reference:
            problems.append(f"pass {i} ({p['mode']}) digest {p['digest']} != {reference}")
            bad = p["cells"]
        if p["failed"]:
            problems.append(f"pass {i}: {p['failed']} failed cell(s)")
        if p["seed_mismatch"]:
            problems.append(f"pass {i}: {p['seed_mismatch']} record(s) with another seed")
        failed += min(bad, p["cells"])
    return attempted, failed, problems


def measure(binary, workload, seed, seconds, trace, scale=1.0, inject=()):
    """Runs the schedule for one benchmark invocation; returns the result."""
    t0 = time.monotonic()
    runs, traced, probes = [], [], None
    inject_at = 1  # injections go into the second pass: the first is the reference

    def one(mode, into, extra=()):
        if len(runs) + len(traced) == inject_at:
            extra = (*extra, *inject)
        p = run_pass(binary, mode, workload, seed, scale, extra)
        into.append(p)
        return p

    if not trace:
        while True:
            one("run", runs)
            per_pass = (time.monotonic() - t0) / len(runs)
            if len(runs) >= 3 and time.monotonic() - t0 + per_pass > seconds:
                break
    else:
        spans = build_dir() / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        probes = run_pass(binary, "probes", workload, seed, scale,
                          ("--spans", str(spans / f"{workload}-seed{seed}-probes.jsonl")))
        t_pairs = time.monotonic()
        while True:
            one("run", runs)
            one("traced", traced,
                ("--spans", str(spans / f"{workload}-seed{seed}-traced.jsonl")))
            per_pair = (time.monotonic() - t_pairs) / len(runs)
            if len(runs) >= 2 and time.monotonic() - t0 + per_pair > seconds:
                break

    attempted, failed, problems = check_passes(runs + traced)
    if probes is not None and not probes["ok"]:
        problems.append("probe: engines or profiler changed a simulated result")
        failed += 1
    med = median_values(runs)
    if not trace:
        metrics = {k: med[k] for k in ("wall_s", "cpu_s", "sim_kips", "setup_s", "peak_rss_mb",
                                       "ft_ratio", "paper_gap_pp")}
        metrics["cell_ok_ratio"] = 1.0 - failed / attempted
    else:
        metrics = median_values(traced)
        metrics.update(probes["values"])
        metrics["bench.trace_overhead_pct"] = 100.0 * (metrics["wall_s"] / med["wall_s"] - 1.0)
    return {
        "workload": workload, "seed": seed, "trace": int(trace), "seconds": seconds,
        "scale": scale, "passes": len(runs) + len(traced), "elapsed_s": time.monotonic() - t0,
        "host": host_stamp(runs[0]), "digest": runs[0]["digest"],
        "correct": failed == 0 and not problems, "attempted": attempted, "failed": failed,
        "problems": problems, "metrics": metrics,
        "samples": {"run": [p["values"] for p in runs], "traced": [p["values"] for p in traced]},
    }


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def report(result, spec, save=True):
    """Human-readable table on stdout, then the contract's JSON line; with
    `save`, also the full result file for compare.py."""
    trace = result["trace"]
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    print(f"# {result['workload']} seed={result['seed']} trace={trace} "
          f"passes={result['passes']} digest={result['digest']} "
          f"elapsed={result['elapsed_s']:.1f}s")
    print("# host " + json.dumps(result["host"], sort_keys=True))
    for problem in result["problems"]:
        print(f"# FAILED: {problem}")
    metrics = {}
    for m in declared:
        value = result["metrics"][m["name"]]
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']:34s} {value:>16.6g} {m['unit']}")
    if trace:
        # Self time of each span layer (span time minus child spans), from
        # the traced passes (runner.*, trace.*) and the probes.
        for key in sorted(k for k in result["metrics"] if k.endswith(".self_s")):
            layer = key[len("span."):-len(".self_s")]
            count = result["metrics"].get(f"span.{layer}.count", 0)
            print(f"# span {layer:34s} count={count:<8g} self={result['metrics'][key]:.6g} s")
    if save:
        out = build_dir() / "results"
        out.mkdir(parents=True, exist_ok=True)
        (out / f"{result['workload']}-seed{result['seed']}-trace{trace}.json").write_text(
            json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}), flush=True)


def printed_metrics(result, spec):
    """report()'s stdout, parsed back: (last JSON line, problems)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        report(result, spec, save=False)
    last = json.loads(buf.getvalue().strip().splitlines()[-1])
    declared = spec["per_layer"] if result["trace"] else spec["end_to_end"]
    problems = []
    if sorted(last) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(last)}")
    for m in declared:
        got = last["metrics"].get(m["name"])
        if (not isinstance(got, dict) or got.get("unit") != m["unit"]
                or not isinstance(got.get("value"), (int, float))):
            problems.append(f"{m['name']} printed as {got!r}, want a number in {m['unit']}")
    return last, problems


def self_test(binary):
    """Tiny runs of every workload in both modes, plus injected faults."""
    spec = load_spec()
    errors = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            r = measure(binary, workload, 7, 0, trace, scale=0.05)
            last, problems = printed_metrics(r, spec)
            errors += [f"{workload} trace={trace}: {p}" for p in problems]
            if not last["correct"]:
                errors.append(f"{workload} trace={trace}: clean run not correct: {r['problems']}")
            log(f"self-test: {workload} trace={trace}: {len(last['metrics'])} metrics, "
                f"correct={last['correct']}, {len(problems)} problem(s)")
    for flag in ("--inject-digest", "--inject-failed-cell"):
        r = measure(binary, "compute_trace", 7, 0, 0, scale=0.05, inject=(flag,))
        last, _ = printed_metrics(r, spec)
        if last["correct"] or last["failed"] == 0:
            errors.append(f"{flag}: not reported as a failure (failed={last['failed']})")
        log(f"self-test: {flag}: correct={last['correct']} failed={last['failed']} "
            f"{r['problems']}")
    for e in errors:
        log(f"self-test FAILED: {e}")
    log("self-test " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    try:
        binary = build()
        if args.self_test:
            return self_test(binary)
        if args.workload is None or args.seed is None:
            ap.error("--workload and --seed are required")
        result = measure(binary, args.workload, args.seed, args.seconds, args.trace)
        report(result, load_spec())
        return 0
    except (RuntimeError, OSError, subprocess.SubprocessError, KeyError, ValueError) as e:
        log(f"perfbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
