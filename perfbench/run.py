"""ncagm benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  It times the public ``ncagm`` CLI on one
workload (see README.md in this directory), checks every output against
reference constants and prints, as the last line of standard output, one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones
(wall_s, setup_s, peak_rss_mb); with ``--trace 1`` they are the per-layer
ones from the span recorder.  A full record of the run, with the
environment, every pass and (when traced) every span, is written to
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")
SETUP_PROBES = 10
RUN_LIMIT_S = 170.0
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, HERE)
from workloads import SEED_EFFECT, WORKLOADS  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_commit():
    """Commit of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the package sources, to tell commits apart without git."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "ncagm")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def child_env():
    env = dict(os.environ)
    env.pop("NCAGM_THREADS", None)
    threads = str(min(2, nproc()))
    for var in BLAS_THREAD_VARS:
        env[var] = threads
    return env


def run_worker(args, env, deadline, extra):
    """Start worker.py, wait for it, return (start monotonic, stdout)."""
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)] + extra
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the {RUN_LIMIT_S:.0f} s limit") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr.strip()}")
    return start, proc.stdout


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summary(values):
    q1, q3 = quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "count": len(values)}


def main(argv=None):
    parser = argparse.ArgumentParser(description="ncagm benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    began = time.monotonic()
    deadline = began + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "ncagm", "cli.py")):
        raise BenchError(f"no ncagm sources under {os.path.join(ROOT, 'src')}")
    os.makedirs(RESULTS, exist_ok=True)
    env = child_env()
    # metric names and units as BENCHMARK.json declares them
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)

    setup = []
    for _ in range(SETUP_PROBES):
        start, out = run_worker(args, env, deadline, ["--probe"])
        setup.append(json.loads(out.strip().splitlines()[-1])["ready"] - start)

    stamp = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}"
    worker_file = os.path.join(RESULTS, stamp + ".worker.json")
    try:
        start, _ = run_worker(args, env, deadline, ["--result", worker_file])
        with open(worker_file) as fh:
            worker = json.load(fh)
    finally:
        if os.path.exists(worker_file):
            os.remove(worker_file)
    setup.append(worker["ready"] - start)

    walls = [p["wall_s"] for p in worker["passes"] if not p["traced"]]
    attempted, failed = worker["attempted"], worker["failed"]
    correct = attempted >= 1 and failed == 0 and not worker["order_dependent"]
    if args.trace:
        values, declared = worker["layer"], spec["per_layer"]
    else:
        values = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setup),
                  "peak_rss_mb": worker["peak_rss_mb"]}
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in values}

    env_record = {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": worker["env"]["numpy"],
        "blas": worker["env"]["blas"],
        "blas_threads": worker["env"]["blas_threads"],
        "blas_thread_vars": {var: env[var] for var in BLAS_THREAD_VARS},
        "NCAGM_THREADS": env.get("NCAGM_THREADS"),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }
    checked = worker["passes"] + ([worker["recheck"]] if worker["recheck"] else [])
    failures = [f for p in checked for f in p["failures"]]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_effect": SEED_EFFECT[args.workload],
        "trace": args.trace,
        "seconds": args.seconds,
        "loop": "closed loop, one client, one process",
        "env": env_record,
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted if attempted else None,
        "failures": failures,
        "order_dependent": worker["order_dependent"],
        "wall_s": summary(walls),
        "setup_s": summary(setup),
        "setup_samples": setup,
        "peak_rss_mb": worker["peak_rss_mb"],
        "passes": worker["passes"],
        "recheck": worker["recheck"],
        "metrics": metrics,
    }
    if args.trace:
        record.update(missing_layers=worker["missing"], count_spread=worker["count_spread"],
                      spans=worker["spans"])
    with open(os.path.join(RESULTS, stamp + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)

    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    for name in worker.get("missing", []):
        print(f"missing layer boundary: {name}", file=sys.stderr)
    for name, (lo, hi) in worker.get("count_spread", {}).items():
        print(f"count {name} did not repeat: {lo}..{hi}", file=sys.stderr)
    print(f"{args.workload}: {len(worker['passes'])} passes, fail_frac {failed}/{attempted}",
          file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(1)
