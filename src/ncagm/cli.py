"""Command-line front end: compile -> solve -> certify pipelines.

``table`` splits its rows into (n, d) groups, d = m // 2: the rows of one
group share every constraint, so each group is one build, its retargets
and one ``solve_many`` (``_table_group``).  The groups are independent,
and on Linux they run in W = min(groups, usable CPUs) forked worker
processes, the CPUs being ``os.sched_getaffinity(0)``.  The group indices
go heaviest first, in (d, n) descending order, into one task pipe, and
each idle worker reads the next one; a worker sends each group's pickled
records back over its own pipe and ends with ``os._exit``.  The parent
runs no group itself and prints the records in row order.  A group whose
worker ends before sending it becomes ERROR rows naming the worker's wait
status.  With W = 1, or off Linux (fork after a numpy built on Accelerate
is unsafe on macOS), the same ``_table_group`` calls run in-process.

Exit codes: 0 success/verified, 1 no certificate exists for the requested
target, 2 usage error, 3 solver non-optimal, 4 invalid certificate,
5 instance violation found.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import sys
from itertools import groupby

from . import certify as certify_mod
from .compiler import assemble_sdp, retargeting, symmetry_reduce
from .sdp import (SolverOptions, extract_farkas, farkas_from_dual, optimal_dual, solve,
                  solve_many)
from .sdpa import write_sdpa

EXIT_OK = 0
EXIT_NO_CERTIFICATE = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_INVALID_CERTIFICATE = 4
EXIT_VIOLATION = 5

DEFAULT_ROWS = [(m, n) for n in range(1, 5) for m in range(1, n + 1)]
HEAVY_ROWS = [(2, 5), (3, 5), (4, 5), (5, 5)]


def _sign(args):
    return 1 if args.sign == "plus" else -1


def _build_problem(m, n, sign, args):
    """The SDP for (m, n, sign), symmetry-reduced unless --symmetry off."""
    problem = assemble_sdp(m, n, sign)
    if args.symmetry == "on":
        problem, _ = symmetry_reduce(problem)
    return problem


def _write_json(path, payload):
    with open(path, "w") as fh:
        fh.write(json.dumps(payload, indent=2))


def _error_row(m, n, error):
    bound = certify_mod.distinct_product_bound(m, n)
    return {"m": m, "n": n, "bound": bound, "error": error, "verdict": "ERROR"}


def _table_row(m, n, sol1, sol2, args):
    """The record of row (m, n) from the solutions of its two lambda
    problems."""
    # a verdict slack at solver accuracy would misflag rows where lambda_1
    # sits exactly on the bound, so widen it past the 1e-8 duality gap
    verdict_tol = max(args.tol, 1e-4)
    if sol1.status != "optimal" or sol2.status != "optimal":
        return _error_row(m, n, f"solver status {sol1.status}/{sol2.status}")
    lam1, lam2 = sol1.objective_primal, sol2.objective_primal
    bound = certify_mod.distinct_product_bound(m, n)
    verdict = "VIOLATION" if max(lam1, lam2) > bound + verdict_tol else "ok"
    return {"m": m, "n": n, "bound": bound, "lambda1": lam1, "lambda2": lam2,
            "verdict": verdict}


def _table_group(ms, n, args):
    """Records of the rows (m, n) for m in ``ms``, which share n and the
    degree bound d = m // 2 and so every constraint: the first problem is
    built once and retargeted to each row, and the lambda problems of all
    rows are solved in one lockstep batch."""
    try:
        to_target = retargeting(_build_problem(ms[0], n, -1, args))
        sols = iter(solve_many([to_target(m, sign) for m in ms for sign in (-1, +1)],
                               SolverOptions(tolerance=args.tol)))
    except Exception as exc:  # noqa: BLE001 - reported in the group's rows
        return [_error_row(m, n, str(exc)) for m in ms]
    return [_table_row(m, n, next(sols), next(sols), args) for m in ms]


_WORD = 4  # bytes of a group index in the task and result pipes


def _worker_ended(status):
    """A worker's wait status in words."""
    if os.WIFSIGNALED(status):
        return f"worker killed by signal {os.WTERMSIG(status)}"
    return f"worker exited with status {os.WEXITSTATUS(status)}"


def _serve(groups, args, tasks, out):
    """Worker loop: run the groups whose indices ``tasks`` yields, until
    its end.  Each index goes to ``out`` when its group is taken, so that a
    worker that dies names the group it held, and the group's pickled
    records follow, after their size, when it is done."""
    with open(out, "wb") as fh:
        while task := os.read(tasks, _WORD):
            fh.write(task)
            fh.flush()
            ms, n = groups[int.from_bytes(task, "little")]
            body = pickle.dumps(_table_group(ms, n, args))
            fh.write(len(body).to_bytes(8, "little") + body)
            fh.flush()


def _receive(fd):
    """({index: records} of the groups a worker sent, the index of the
    group it took and did not send, or None), read from ``fd`` to its end."""
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    data = b"".join(chunks)
    sent, at = {}, 0
    while at + _WORD <= len(data):
        index = int.from_bytes(data[at:at + _WORD], "little")
        body = at + _WORD + 8
        end = body + int.from_bytes(data[at + _WORD:body], "little")
        if end > len(data):
            return sent, index
        sent[index] = pickle.loads(data[body:end])
        at = end
    return sent, None


def _forked_groups(groups, args, workers):
    """Records of each (ms, n) group, run in ``workers`` forked processes."""
    order = sorted(range(len(groups)), reverse=True,
                   key=lambda k: (groups[k][0][0] // 2, groups[k][1]))
    records, errors = {}, {}
    children = {}  # pid -> read end of its result pipe, until reaped
    tasks, feed = os.pipe()
    try:
        # all indices go in before any worker reads, so that a worker sees
        # the pipe's end only when every group is taken
        with open(feed, "wb") as fh:
            fh.write(b"".join(k.to_bytes(_WORD, "little") for k in order))
        for _ in range(workers):
            read, write = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    for fd in (read, *children.values()):
                        os.close(fd)
                    _serve(groups, args, tasks, write)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            children[pid] = read
        for pid in list(children):
            sent, held = _receive(children[pid])
            status = os.waitpid(pid, 0)[1]
            os.close(children.pop(pid))
            records.update(sent)
            if held is not None:
                errors[held] = f"{_worker_ended(status)} before sending this group"
    except BaseException:
        import signal  # only here: `import ncagm.cli` does not load it

        for pid in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        raise
    finally:
        for fd in (tasks, *children.values()):
            os.close(fd)
    for k, (ms, n) in enumerate(groups):
        if k not in records:
            error = errors.get(k, "every worker ended before taking this group")
            records[k] = [_error_row(m, n, error) for m in ms]
    return [records[k] for k in range(len(groups))]


def _group_records(groups, args):
    """Records of each (ms, n) group, in forked workers when more than one
    CPU is usable on Linux, else in-process."""
    workers = 1
    if sys.platform == "linux":
        workers = min(len(groups), len(os.sched_getaffinity(0)))
    if workers < 2:
        return [_table_group(ms, n, args) for ms, n in groups]
    return _forked_groups(groups, args, workers)


def cmd_table(args):
    """Solve both lambda problems per row of the grid and print the table."""
    rows = DEFAULT_ROWS + (HEAVY_ROWS if args.heavy else [])
    groups = [([m for m, _ in group], n)
              for (n, _), group in groupby(rows, key=lambda row: (row[1], row[0] // 2))]
    records = [r for group in _group_records(groups, args) for r in group]
    text = format_table(records, args.format)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_SOLVER if any(r["verdict"] == "ERROR" for r in records) else EXIT_OK


def format_table(records, output_format):
    if output_format == "csv":
        lines = ["m,n,lambda1,lambda2,bound,verdict"]
        for r in records:
            lines.append(
                f"{r['m']},{r['n']},{r.get('lambda1', float('nan')):.4f},"
                f"{r.get('lambda2', float('nan')):.4f},{r['bound']:.4f},{r['verdict']}"
            )
        return "\n".join(lines) + "\n"
    if output_format == "json":
        out = []
        for r in records:
            item = {"m": r["m"], "n": r["n"], "bound": f"{r['bound']:.4f}",
                    "verdict": r["verdict"]}
            if "lambda1" in r:
                item["lambda1"] = f"{r['lambda1']:.4f}"
                item["lambda2"] = f"{r['lambda2']:.4f}"
            if "error" in r:
                item["error"] = r["error"]
            out.append(item)
        return json.dumps(out, indent=2, sort_keys=True) + "\n"
    header = f"{'m':>3} {'n':>3} {'lambda1':>10} {'lambda2':>10} {'bound':>10}  verdict"
    lines = [header, "-" * len(header)]
    for r in records:
        if "lambda1" in r:
            lines.append(
                f"{r['m']:>3} {r['n']:>3} {r['lambda1']:>10.4f} "
                f"{r['lambda2']:>10.4f} {r['bound']:>10.4f}  {r['verdict']}"
            )
        else:
            lines.append(
                f"{r['m']:>3} {r['n']:>3} {'-':>10} {'-':>10} "
                f"{r['bound']:>10.4f}  {r['verdict']} ({r.get('error', '')})"
            )
    return "\n".join(lines) + "\n"


def solution_to_json(problem, sol):
    blocks = []
    for block in sol.primal_blocks:
        dim = block.shape[0]
        tri = [repr(float(block[i, j])) for i in range(dim) for j in range(i + 1)]
        blocks.append(tri)
    return {
        "m": problem.meta.get("m"),
        "n": problem.meta.get("n"),
        "sign": problem.meta.get("sign"),
        "reduced": bool(problem.meta.get("reduced", False)),
        "lambda": repr(float(sol.objective_primal)),
        "gap": repr(float(sol.gap)),
        "status": sol.status,
        "blocks": blocks,
        "dual": [repr(float(v)) for v in sol.dual],
    }


def cmd_build_solve(args):
    problem = _build_problem(args.m, args.n, _sign(args), args)
    base = args.out or f"ncagm_m{args.m}_n{args.n}_{args.sign}"
    dat_path = base + ".dat-s"
    write_sdpa(problem, dat_path)
    if args.export_only:
        print(f"wrote {dat_path}")
        return EXIT_OK
    sol = solve(problem, SolverOptions(tolerance=args.tol))
    _write_json(base + ".json", solution_to_json(problem, sol))
    print(f"lambda = {sol.objective_primal:.4f}  gap = {sol.gap:.2e}  "
          f"status = {sol.status}")
    print(f"wrote {dat_path} and {base}.json")
    return EXIT_OK if sol.status == "optimal" else EXIT_SOLVER


def _farkas_certificate(problem, args):
    """Certificate on the full problem.  With symmetry on, the dual comes
    from the reduced solve and is lifted to the full rows."""
    options = SolverOptions(tolerance=args.tol)
    if args.symmetry == "off":
        return extract_farkas(problem, args.lambda_target, options=options)
    reduced, orbits = symmetry_reduce(problem)
    dual = orbits.lift_dual(optimal_dual(reduced, options))
    return farkas_from_dual(problem, args.lambda_target, dual)


def cmd_certify_farkas(args):
    problem = assemble_sdp(args.m, args.n, _sign(args))
    try:
        cert = _farkas_certificate(problem, args)
    except Exception as exc:  # noqa: BLE001
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    if cert is None:
        print(f"no certificate: lambda = {args.lambda_target} is feasible "
              "(at or above the optimum)")
        return EXIT_NO_CERTIFICATE
    try:
        margin = certify_mod.farkas_check(problem, cert, tolerance=1e-6)
    except certify_mod.CertificateError as exc:
        print(f"invalid certificate: {exc}", file=sys.stderr)
        return EXIT_INVALID_CERTIFICATE
    report = certify_mod.farkas_to_json(cert)
    report["recomputed_margin"] = repr(float(margin))
    if args.out:
        _write_json(args.out, report)
    print(f"Farkas certificate: margin = {margin:.4f} > 0, "
          f"psd_defect = {cert.psd_defect:.3e}; lambda = {args.lambda_target} "
          "is infeasible")
    return EXIT_OK if margin > 0 else EXIT_INVALID_CERTIFICATE


def cmd_certify_sos_m2(args):
    cert = certify_mod.build_m2_certificate(args.n)
    verified = certify_mod.verify_sos(cert)
    report = certify_mod.sos_certificate_to_json(cert)
    report["verified"] = verified
    if args.out:
        _write_json(args.out, report)
    if verified:
        print(f"exact identity verified, lambda = {cert.lam} "
              f"(= {args.n}*{args.n - 1}/4)")
        return EXIT_OK
    print("certificate FAILED exact verification", file=sys.stderr)
    return EXIT_INVALID_CERTIFICATE


def cmd_certify_instance(args):
    try:
        matrices, m = certify_mod.load_instance(args.input)
        report = certify_mod.eval_instance(matrices, m, tolerance=args.tol)
    except (OSError, ValueError, TypeError) as exc:
        # an unreadable or malformed instance is bad input, not a verdict
        print(f"ncagm: error: invalid instance {args.input}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    payload = {
        "n": report.n,
        "m": report.m,
        "inputs_psd": report.inputs_psd,
        "sum_bounded": report.sum_bounded,
        "min_eig": repr(report.min_eig),
        "max_eig": repr(report.max_eig),
        "bound": repr(report.bound),
        "improved_bounds": {k: repr(v) for k, v in report.improved_bounds.items()},
        "violations": report.violations,
    }
    if args.out:
        _write_json(args.out, payload)
    print(f"min_eig = {report.min_eig:.6f}  max_eig = {report.max_eig:.6f}  "
          f"bound = {report.bound:.4f}")
    if not report.feasible:
        print("instance violates the feasibility assumptions", file=sys.stderr)
        return EXIT_VIOLATION
    if report.violations:
        print("violated: " + ", ".join(report.violations), file=sys.stderr)
        return EXIT_VIOLATION
    print("all applicable bounds hold")
    return EXIT_OK


def _add_sign(parser):
    parser.add_argument("--sign", choices=["plus", "minus"], default="plus")


def _add_tol_out(parser):
    parser.add_argument("--tol", type=float, default=1e-8)
    parser.add_argument("--out")


def _add_solver_options(parser):
    parser.add_argument("--symmetry", choices=["on", "off"], default="on")
    _add_tol_out(parser)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ncagm",
        description="Distinct-product matrix inequality toolkit: "
                    "compile, solve, and certify.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_table = sub.add_parser("table", help="solve both SDPs for a grid of (m, n)")
    p_table.add_argument("--heavy", action="store_true",
                         help="include the n = 5 rows")
    p_table.add_argument("--format", choices=["text", "csv", "json"], default="text")
    _add_solver_options(p_table)
    p_table.set_defaults(run=cmd_table)

    p_solve = sub.add_parser("solve", help="assemble, export, and solve one SDP")
    p_solve.add_argument("--m", type=int, required=True)
    p_solve.add_argument("--n", type=int, required=True)
    _add_sign(p_solve)
    p_solve.add_argument("--export-only", action="store_true")
    _add_solver_options(p_solve)
    p_solve.set_defaults(run=cmd_build_solve)

    p_cert = sub.add_parser("certify", help="produce or check certificates")
    cert_sub = p_cert.add_subparsers(dest="subcommand", required=True)

    p_far = cert_sub.add_parser("farkas", help="refute a pinned lambda value")
    p_far.add_argument("--m", type=int, required=True)
    p_far.add_argument("--n", type=int, required=True)
    p_far.add_argument("--lambda", dest="lambda_target", type=float, required=True)
    _add_sign(p_far)
    _add_solver_options(p_far)
    p_far.set_defaults(run=cmd_certify_farkas)

    p_sos = cert_sub.add_parser("sos-m2", help="exact certificate for the "
                                               "improved m=2 lower bound")
    p_sos.add_argument("--n", type=int, required=True)
    p_sos.add_argument("--out")
    p_sos.set_defaults(run=cmd_certify_sos_m2)

    p_inst = cert_sub.add_parser("check-instance",
                                 help="evaluate an explicit matrix tuple")
    p_inst.add_argument("input", help="instance JSON file")
    _add_tol_out(p_inst)
    p_inst.set_defaults(run=cmd_certify_instance)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)

    if "tol" in args and not 0 < args.tol < math.inf:  # also rejects nan
        parser.error("--tol must be positive and finite")
    # a relative tolerance of 1 or more accepts the solver's starting point
    if "tol" in args and args.tol >= 1:
        parser.error(f"--tol must be less than 1 (got {args.tol:g})")
    if "lambda_target" in args and not math.isfinite(args.lambda_target):
        parser.error("--lambda must be finite")
    if "m" in args and args.m < 1:
        parser.error(f"--m must be at least 1 (got m={args.m})")
    # every command that takes --m also takes --n
    if "m" in args and args.m > args.n:
        parser.error(f"--m must not exceed --n (got m={args.m}, n={args.n})")
    if args.run is cmd_certify_sos_m2 and args.n < 2:
        parser.error(f"--n must be at least 2 (got n={args.n})")
    return args.run(args)


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
