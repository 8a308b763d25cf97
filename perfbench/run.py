"""Benchmark of the pitmanyor CLI and its experiment harness.

    python3 perfbench/run.py --workload cli_tall --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --out results.jsonl

Run from the root of a checkout.  Each request is a fresh
`python -m pitmanyor.cli ...` process on the checkout's `src`, sent one at a
time (a closed loop with one client): a CLI user pays interpreter start,
imports and cold caches on every call.  A pass sends the workload's requests
once; passes repeat until `--seconds` is spent, and each metric is the median
over passes.  Outputs are checked after each pass, outside the timed region.

With `--trace 0` the last line carries the end-to-end metrics.  With
`--trace 1` every untraced pass is followed by a traced pass, in which each
request runs under perfbench/shim.py, and the last line carries the
per-layer metrics.  `--out FILE` appends the full record of the run (all
metrics, per-request latencies, environment) as one JSON line, which
perfbench/compare.py reads.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

import numpy
import scipy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import layers, workloads  # noqa: E402
from perfbench.workloads import TIMED_REQUESTS, Outcome  # noqa: E402

SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SHIM = ROOT / "perfbench" / "shim.py"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SETUPS = 5  # setup_s is the median of this many set-ups
REQUEST_TIMEOUT_S = 150


class SetupError(RuntimeError):
    pass


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def spawn(argv, stdout_path, stderr_path):
    """Run argv to completion; return (seconds, peak RSS in MiB, exit code).
    The child is killed after REQUEST_TIMEOUT_S."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=_env(),
                                cwd=ROOT)
        timer = threading.Timer(REQUEST_TIMEOUT_S,
                                lambda: os.kill(proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no request running
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, usage.ru_maxrss / 1024.0, proc.returncode


def setup(workload, seed, work):
    """Generate the inputs and send one untimed warm-up `--version`
    request (bytecode, page cache).  Returns (seconds, input paths)."""
    start = time.perf_counter()
    # Every file a run writes is new: rewriting a truncated file makes some
    # file systems flush it on close, which shows as noise in the timings.
    shutil.rmtree(work, ignore_errors=True)
    paths = workloads.generate_inputs(workload, seed, work)
    _, _, code = spawn([sys.executable, "-m", "pitmanyor.cli", "--version"],
                       work / "version.out", work / "version.err")
    seconds = time.perf_counter() - start
    if code != 0:
        raise SetupError("`python -m pitmanyor.cli --version` failed: "
                         + (work / "version.err").read_text().strip())
    return seconds, paths


def run_pass(reqs, work, traced):
    """Send every request once; return the pass record and the directory
    holding each request's stdout, stderr and spans."""
    tmp = work / "pass"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    runs = []
    start = time.perf_counter()
    for i, req in enumerate(reqs):
        prefix = tmp / f"req{i}"
        argv = ([sys.executable, str(SHIM), f"{prefix}.spans.json", str(i)]
                if traced else [sys.executable, "-m", "pitmanyor.cli"])
        runs.append(spawn(argv + req.argv, f"{prefix}.out", f"{prefix}.err"))
    total = time.perf_counter() - start
    record = {"total_s": total, "latency": {}, "rss_mib": {}, "failed": [],
              "problems": []}
    for i, (req, (seconds, rss, code)) in enumerate(zip(reqs, runs)):
        prefix = tmp / f"req{i}"
        outcome = Outcome(code, Path(f"{prefix}.out").read_text(),
                          Path(f"{prefix}.err").read_text())
        record["latency"][req.name] = seconds
        record["rss_mib"][req.name] = rss
        if req.failed(outcome):
            tail = outcome.stderr.strip().splitlines()[-1:] or [""]
            record["failed"].append(f"{req.name}: exit {code}: {tail[0]}")
        else:
            record["problems"] += req.check(outcome)
        for p in req.outputs:
            Path(p).unlink(missing_ok=True)
    return record, tmp


def environment(seed, inputs):
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "machine": platform.machine(), "commit": commit, "seed": seed,
            "inputs": inputs}


def run_workload(workload, seed, seconds, trace):
    work = WORK / workload
    setups = []
    for _ in range(SETUPS):
        secs, paths = setup(workload, seed, work)
        setups.append(secs)
    inputs = workloads.describe_inputs(workload, paths)
    reqs = workloads.requests(workload, seed, paths, work)

    plain, traced = [], []
    start = time.perf_counter()
    while True:
        record, _ = run_pass(reqs, work, traced=False)
        plain.append(record)
        if trace:
            record, tmp = run_pass(reqs, work, traced=True)
            record["layers"] = layers.PassTrace(
                sorted(tmp.glob("*.spans.json"))).metrics()
            traced.append(record)
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(plain)
        if elapsed + per_round > seconds:
            break
    passes = plain + traced
    result = {
        "workload": workload, "trace": int(trace),
        "environment": environment(seed, inputs),
        "attempted": len(reqs) * len(passes),
        "failed": sum(len(p["failed"]) for p in passes),
        "failures": sorted({f for p in passes for f in p["failed"]}),
        "problems": sorted({q for p in passes for q in p["problems"]}),
        "passes": len(plain), "setups_s": setups,
    }
    result["correct"] = not result["problems"]
    result["requests"] = {
        r.name: {"latency_s": median(p["latency"][r.name] for p in plain),
                 "peak_rss_mib": median(p["rss_mib"][r.name] for p in plain)}
        for r in reqs}
    e2e = {
        "setup_s": (median(setups), "s"),
        "total_s": (median(p["total_s"] for p in plain), "s"),
        "peak_rss_mib": (median(max(p["rss_mib"].values()) for p in plain),
                         "MiB"),
        "failed_ratio": (median(len(p["failed"]) / len(reqs)
                                for p in plain), "1"),
    }
    for name, r in result["requests"].items():
        if name in TIMED_REQUESTS:
            e2e[f"{name}_s"] = (r["latency_s"], "s")
    result["end_to_end"] = {k: {"value": v, "unit": u}
                            for k, (v, u) in e2e.items()}
    if trace:
        per_layer = {n: (median(t["layers"][n][0] for t in traced), u)
                     for n, (_, u) in traced[0]["layers"].items()}
        wall = median(t["total_s"] for t in traced)
        per_layer["trace.wall_s"] = (wall, "s")
        per_layer["trace.overhead_s"] = (wall - e2e["total_s"][0], "s")
        result["per_layer"] = {k: {"value": v, "unit": u}
                               for k, (v, u) in per_layer.items()}
    shutil.rmtree(work, ignore_errors=True)
    return result


def _contract_metrics(result, trace):
    """The metrics BENCHMARK.json names for this mode, in its order."""
    key = "per_layer" if trace else "end_to_end"
    table = result[key]
    return {m["name"]: table[m["name"]] for m in BENCHMARK[key]}


def print_report(result):
    env = result["environment"]
    print(f"== {result['workload']} (trace {result['trace']}): "
          f"{result['passes']} passes, {result['attempted']} requests, "
          f"{result['failed']} failed")
    print("environment: " + json.dumps(env, sort_keys=True))
    for key in ("end_to_end", "per_layer"):
        for name, m in result.get(key, {}).items():
            print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}")
    for f in result["failures"]:
        print(f"  failed request: {f}")
    for q in result["problems"]:
        print(f"  WRONG OUTPUT: {q}")


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Benchmark of the pitmanyor CLI and experiment harness")
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float,
                    default=BENCHMARK["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append the full record as a JSON line")
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through spawn() so the running request is killed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "pitmanyor" / "cli.py").is_file():
        print(f"error: no pitmanyor sources under {SRC}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" \
        else (args.workload,)
    results = []
    try:
        for name in names:
            results.append(run_workload(name, args.seed, args.seconds,
                                        args.trace))
            print_report(results[-1])
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "a") as fh:
            for r in results:
                fh.write(json.dumps(r, sort_keys=True) + "\n")
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else r["workload"] + "."
        metrics.update({prefix + k: v for k, v in
                        _contract_metrics(r, args.trace).items()})
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
