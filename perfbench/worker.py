"""Runs one workload in its own process, through ``ncagm.cli.main(argv)``.

Started by ``run.py``; not meant to be run by hand.  With ``--probe`` it
only imports ncagm from the checkout's ``src``, builds the first argv list
and reports the moment it was ready, which ``run.py`` turns into a set-up
sample.  Otherwise it runs closed-loop passes over the workload for
``--seconds`` seconds, stopping before a pass that would end past them.
It makes at least one pass; a traced run alternates untraced and traced
passes and makes at least one of each.  Every output is checked against
the references in ``workloads.py``, and the findings go to ``--result``
as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import io
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time

import workloads
from spans import EXACT_COUNTS, SpanRecorder, layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def import_ncagm():
    sys.path.insert(0, SRC)
    import ncagm.cli

    if not os.path.abspath(ncagm.__file__).startswith(SRC + os.sep):
        raise ImportError(f"ncagm imported from {ncagm.__file__}, not from {SRC}")
    return ncagm


def blas_record():
    import numpy

    record = {"numpy": numpy.__version__}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        record["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        record["blas"] = None
    threads = None
    libdir = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    record["blas_threads"] = threads
    return record


def run_pass(cli, calls):
    """Invoke the CLI once per call; returns (wall seconds, [(code, stdout)])."""
    outcomes = []
    start = time.perf_counter()
    for call in calls:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                code = cli.main(list(call.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # noqa: BLE001 - counted as a failed operation
                code = f"exception {exc!r}"
        outcomes.append((code, buf.getvalue()))
    return time.perf_counter() - start, outcomes


def median_metrics(per_pass):
    """Median of each metric over the traced passes, plus the min and max of
    every exact count that did not repeat."""
    names = sorted(set().union(*per_pass))
    medians = {name: statistics.median(p[name] for p in per_pass if name in p) for name in names}
    spread = {}
    for name in EXACT_COUNTS:
        values = [p[name] for p in per_pass if name in p]
        if values and min(values) != max(values):
            spread[name] = [min(values), max(values)]
    return medians, spread


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--result")
    args = parser.parse_args()

    ncagm = import_ncagm()
    workdir = os.path.join(HERE, "results", f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    rng = random.Random(args.seed)
    calls = workloads.invocations(args.workload, rng, workdir)
    ready = time.monotonic()
    if args.probe:
        shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"ready": ready}))
        return 0

    recorder = SpanRecorder() if args.trace else None
    passes, traced_metrics, span_dump = [], [], []
    digests = {}
    counts = {"attempted": 0, "failed": 0}
    recheck = None

    def check_pass(calls, outcomes, record):
        for call, (code, stdout) in zip(calls, outcomes):
            ops, failures, digest = workloads.check(call, code, stdout)
            counts["attempted"] += ops
            counts["failed"] += min(ops, len(failures))
            record["failures"] += failures
            if digest is not None:
                digests.setdefault(call.key, set()).add(digest)

    begin = time.perf_counter()
    try:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            if traced:
                recorder.install()
            try:
                wall, outcomes = run_pass(ncagm.cli, calls)
            finally:
                if traced:
                    recorder.uninstall()
            record = {"wall_s": wall, "traced": traced,
                      "order": [call.key for call in calls], "failures": []}
            check_pass(calls, outcomes, record)
            if traced:
                spans = recorder.take()
                traced_metrics.append(layer_metrics(spans, recorder.missing))
                origin = spans[0].start if spans else 0.0
                span_dump.append([span.to_json(origin) for span in spans])
            passes.append(record)
            # stop before a pass that would end past --seconds
            mean_pass = statistics.mean(p["wall_s"] for p in passes)
            enough = time.perf_counter() - begin + mean_pass > args.seconds
            if enough and (not args.trace or len(passes) >= 2):
                break
            calls = workloads.invocations(args.workload, rng, workdir)
        # untimed: the exact certificates again in the reverse order of the
        # last pass, so a run of one pass still compares two orders
        exact = [call for call in reversed(calls) if call.kind == "sos-m2"]
        if exact:
            _, outcomes = run_pass(ncagm.cli, exact)
            recheck = {"order": [call.key for call in exact], "failures": []}
            check_pass(exact, outcomes, recheck)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    order_dependent = sorted(k for k, seen in digests.items() if len(seen) > 1)
    result = {
        "ready": ready,
        "passes": passes,
        "recheck": recheck,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "order_dependent": order_dependent,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": blas_record(),
    }
    if args.trace:
        layer, spread = median_metrics(traced_metrics)
        untraced = [p["wall_s"] for p in passes if not p["traced"]]
        traced_walls = [p["wall_s"] for p in passes if p["traced"]]
        overhead = statistics.median(traced_walls) - statistics.median(untraced)
        layer["trace.overhead_s"] = overhead
        layer["trace.overhead_frac"] = overhead / statistics.median(untraced)
        result.update(layer=layer, count_spread=spread, missing=recorder.missing,
                      spans=span_dump)
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
