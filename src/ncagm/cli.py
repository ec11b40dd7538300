"""Command-line front end: compile -> solve -> certify pipelines.

``table`` splits its rows into (n, d) groups, d = m // 2: the rows of one
group share every constraint, so each group is one build, its retargets
and one ``solve_many`` (``_table_group``).  The groups are independent,
and on Linux the symmetry-reduced ones run in W = min(groups, usable CPUs)
forked worker processes, the CPUs being ``os.sched_getaffinity(0)``.  The
group indices go heaviest first, in (d, n) descending order, into one task
pipe, and each idle worker reads the next one.  On its own pipe a worker
pickles a group's index when it takes the group, then the group's records
when it is done, and it ends with ``os._exit``.  The parent runs no group
itself and prints the records in row order.  A group whose worker ends
before sending it becomes ERROR rows naming the worker's wait status.  With W = 1, off Linux (fork after a numpy built on
Accelerate is unsafe on macOS) or under ``--symmetry off``, the same
``_table_group`` calls run in-process: the unreduced groups are
BLAS-bound, and two of them at once slow each other down.

Exit codes: 0 success/verified, 1 no certificate exists for the requested
target, 2 usage error (an --out file that cannot be written among them),
3 solver non-optimal, 4 invalid certificate, 5 instance violation found.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import pickle
import sys
from itertools import groupby

from . import certify as certify_mod
from .compiler import assemble_sdp, retargeting, symmetry_reduce
from .sdp import SolverOptions, farkas_from_dual, optimal_dual, solve, solve_many
from .sdpa import render_sdpa

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


class _WriteError(Exception):
    """An --out file that cannot be written; ``main`` reports it."""


def _write_out(path, text):
    """Write ``text`` to the --out file ``path``, turning an OSError into a
    _WriteError that names the path."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _WriteError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _write_json(path, payload):
    _write_out(path, _json_text(payload))


_encode_str = json.encoder.encode_basestring_ascii


def _json_text(value, newline="\n"):
    """``json.dumps(value, indent=2)`` of a value whose line breaks are
    ``newline``, a newline and the indent of its level.  With ``indent``
    set, the json module encodes item by item in Python; here the
    containers are walked, a list of strings is one ``str.join``, and every
    other leaf and every key that is not a string goes through
    ``json.dumps``."""
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + "  "
        try:
            joined = "".join(value)
        except TypeError:  # an item that is not a string
            items = ("," + inner).join([_json_text(v, inner) for v in value])
        else:
            # the encoder escapes character by character, so it leaves the
            # concatenation as it is only if it leaves every item so
            if _encode_str(joined) == '"' + joined + '"':
                items = '"' + ('",' + inner + '"').join(value) + '"'
            else:
                items = ("," + inner).join(map(_encode_str, value))
        return "[" + inner + items + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + "  "
        items = []
        for key, v in value.items():
            if not isinstance(key, str):
                if key is not None and not isinstance(key, (int, float)):
                    raise TypeError("keys must be str, int, float, bool or None, "
                                    f"not {type(key).__name__}")
                key = json.dumps(key)
            items.append(_encode_str(key) + ": " + _json_text(v, inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, str):
        return _encode_str(value)
    return json.dumps(value)


def _error_row(m, n, error):
    bound = certify_mod.distinct_product_bound(m, n)
    return {"m": m, "n": n, "bound": bound, "error": error, "verdict": "ERROR"}


def _table_row(m, n, sol1, sol2, args):
    """The record of row (m, n) from the solutions of its two lambda
    problems.  A row is a VIOLATION when a dual objective, a lower bound
    on its lambda, exceeds the bound by more than the slack, relative to
    1 + |pobj| + |dobj| as in the solver's stopping test; the slack is
    widened past the solver's accuracy, so that a lambda_1 sitting exactly
    on the bound is not misflagged."""
    if sol1.status != "optimal" or sol2.status != "optimal":
        return _error_row(m, n, f"solver status {sol1.status}/{sol2.status}")
    bound = certify_mod.distinct_product_bound(m, n)
    slack = max(args.tol, 1e-4)
    violated = any(s.objective_dual > bound + slack * (1 + abs(s.objective_primal)
                                                       + abs(s.objective_dual))
                   for s in (sol1, sol2))
    return {"m": m, "n": n, "bound": bound, "lambda1": sol1.objective_primal,
            "lambda2": sol2.objective_primal, "verdict": "VIOLATION" if violated else "ok"}


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


_WORD = 4  # bytes of a group index in the task pipe


def _worker_ended(status):
    """A worker's wait status in words."""
    if os.WIFSIGNALED(status):
        return f"worker killed by signal {os.WTERMSIG(status)}"
    return f"worker exited with status {os.WEXITSTATUS(status)}"


def _serve(groups, args, tasks, out):
    """Worker loop: run the groups whose indices ``tasks`` yields, until
    its end.  Each index is pickled to ``out`` when its group is taken, so
    that a worker that dies names the group it held, and the group's
    records follow when it is done."""
    with open(out, "wb") as fh:
        while task := os.read(tasks, _WORD):
            index = int.from_bytes(task, "little")
            pickle.dump(index, fh)
            fh.flush()
            ms, n, _ = groups[index]
            pickle.dump(_table_group(ms, n, args), fh)
            fh.flush()


def _receive(fd):
    """({index: records} of the groups a worker sent, the index of the
    group it took and did not send, or None), read from ``fd`` to its end.
    A stream cut at any byte ends in EOFError or UnpicklingError."""
    sent, held = {}, None
    with open(fd, "rb", closefd=False) as fh:
        try:
            while True:
                held = pickle.load(fh)
                sent[held] = pickle.load(fh)
                held = None
        except (EOFError, pickle.UnpicklingError):
            return sent, held


def _forked_groups(groups, args, workers):
    """Records of each (ms, n, d) group, run in ``workers`` forked processes."""
    order = sorted(range(len(groups)), reverse=True,
                   key=lambda k: (groups[k][2], groups[k][1]))
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
            try:
                pid = os.fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
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
    for k, (ms, n, _) in enumerate(groups):
        if k not in records:
            error = errors.get(k, "every worker ended before taking this group")
            records[k] = [_error_row(m, n, error) for m in ms]
    return [records[k] for k in range(len(groups))]


def _group_records(groups, args):
    """Records of each (ms, n, d) group, in forked workers when the problems
    are symmetry-reduced and more than one CPU is usable on Linux, else
    in-process."""
    workers = 1
    if sys.platform == "linux" and args.symmetry == "on":
        workers = min(len(groups), len(os.sched_getaffinity(0)))
    if workers < 2:
        return [_table_group(ms, n, args) for ms, n, _ in groups]
    return _forked_groups(groups, args, workers)


def cmd_table(args):
    """Solve both lambda problems per row of the grid and print the table."""
    rows = DEFAULT_ROWS + (HEAVY_ROWS if args.heavy else [])
    groups = [([m for m, _ in group], n, d)
              for (n, d), group in groupby(rows, key=lambda row: (row[1], row[0] // 2))]
    records = [r for group in _group_records(groups, args) for r in group]
    text = format_table(records, args.format)
    if args.out:
        _write_out(args.out, text)
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
            # keys in sorted order, the order of the table's JSON bytes
            item = {"bound": f"{r['bound']:.4f}"}
            if "error" in r:
                item["error"] = r["error"]
            if "lambda1" in r:
                item["lambda1"] = f"{r['lambda1']:.4f}"
                item["lambda2"] = f"{r['lambda2']:.4f}"
            item.update(m=r["m"], n=r["n"], verdict=r["verdict"])
            out.append(item)
        return _json_text(out) + "\n"
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
    _write_out(dat_path, render_sdpa(problem))
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
        dual = optimal_dual(problem, options)
    else:
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


_parser = functools.cache(build_parser)  # built on main's first call


def main(argv=None):
    parser = _parser()
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
    try:
        return args.run(args)
    except _WriteError as exc:
        print(f"ncagm: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
