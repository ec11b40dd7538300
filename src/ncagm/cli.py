"""Command-line front end: compile -> solve -> certify pipelines.

Exit codes: 0 success/verified, 1 no certificate exists for the requested
target, 2 usage error, 3 solver non-optimal, 4 invalid certificate,
5 instance violation found.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass

from . import certify as certify_mod
from .compiler import assemble_sdp, symmetry_reduce
from .sdp import SolverOptions, extract_farkas, farkas_from_dual, optimal_dual, solve
from .sdpa import write_sdpa

EXIT_OK = 0
EXIT_NO_CERTIFICATE = 1
EXIT_USAGE = 2
EXIT_SOLVER = 3
EXIT_INVALID_CERTIFICATE = 4
EXIT_VIOLATION = 5

DEFAULT_ROWS = [(m, n) for n in range(1, 5) for m in range(1, n + 1)]
HEAVY_ROWS = [(2, 5), (3, 5), (4, 5), (5, 5)]


@dataclass
class RunConfig:
    symmetry: bool = True
    tolerance: float = 1e-8
    output_format: str = "text"
    out: str | None = None
    heavy: bool = False
    sign: int = 1
    m: int | None = None
    n: int | None = None
    lambda_target: float | None = None
    export_only: bool = False
    input: str | None = None


def _solver_options(config):
    return SolverOptions(tolerance=config.tolerance)


def _solve_lambda(m, n, sign, config):
    problem = assemble_sdp(m, n, sign)
    if config.symmetry:
        problem, _ = symmetry_reduce(problem)
    return solve(problem, _solver_options(config))


def _bound(m, n):
    return float(math.factorial(n) // math.factorial(n - m))


def cmd_table(rows, config):
    """Solve both lambda problems per row; returns (rows, had_failure)."""
    # a verdict slack at solver accuracy would misflag rows where lambda_1
    # sits exactly on the bound, so widen it past the 1e-8 duality gap
    verdict_tol = max(config.tolerance, 1e-4)

    def solve_row(pair):
        m, n = pair
        bound = _bound(m, n)
        record = {"m": m, "n": n, "bound": bound}
        try:
            sol1 = _solve_lambda(m, n, -1, config)
            sol2 = _solve_lambda(m, n, +1, config)
        except Exception as exc:  # noqa: BLE001 - reported in the row
            record["error"] = str(exc)
            record["verdict"] = "ERROR"
            return record
        if sol1.status != "optimal" or sol2.status != "optimal":
            record["error"] = f"solver status {sol1.status}/{sol2.status}"
            record["verdict"] = "ERROR"
            return record
        lam1, lam2 = sol1.objective_primal, sol2.objective_primal
        record["lambda1"] = lam1
        record["lambda2"] = lam2
        record["verdict"] = "VIOLATION" if max(lam1, lam2) > bound + verdict_tol else "ok"
        return record

    records = [solve_row(pair) for pair in rows]
    return records, any(r["verdict"] == "ERROR" for r in records)


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


def _emit(text, config):
    if config.out:
        with open(config.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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


def cmd_build_solve(config):
    m, n, sign = config.m, config.n, config.sign
    problem = assemble_sdp(m, n, sign)
    if config.symmetry:
        problem, _ = symmetry_reduce(problem)
    base = config.out or f"ncagm_m{m}_n{n}_{'plus' if sign > 0 else 'minus'}"
    dat_path = base + ".dat-s"
    write_sdpa(problem, dat_path)
    if config.export_only:
        print(f"wrote {dat_path}")
        return EXIT_OK
    sol = solve(problem, _solver_options(config))
    with open(base + ".json", "w") as fh:
        json.dump(solution_to_json(problem, sol), fh, indent=2)
    print(f"lambda = {sol.objective_primal:.4f}  gap = {sol.gap:.2e}  "
          f"status = {sol.status}")
    print(f"wrote {dat_path} and {base}.json")
    return EXIT_OK if sol.status == "optimal" else EXIT_SOLVER


def _farkas_certificate(problem, config):
    """Certificate on the full problem.  With symmetry on, the dual comes
    from the reduced solve and is lifted to the full rows."""
    options = _solver_options(config)
    if not config.symmetry:
        return extract_farkas(problem, config.lambda_target, options=options)
    reduced, orbits = symmetry_reduce(problem)
    dual = orbits.lift_dual(optimal_dual(reduced, options))
    return farkas_from_dual(problem, config.lambda_target, dual)


def cmd_certify_farkas(config):
    problem = assemble_sdp(config.m, config.n, config.sign)
    try:
        cert = _farkas_certificate(problem, config)
    except Exception as exc:  # noqa: BLE001
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    if cert is None:
        print(f"no certificate: lambda = {config.lambda_target} is feasible "
              "(at or above the optimum)")
        return EXIT_NO_CERTIFICATE
    try:
        margin = certify_mod.farkas_check(problem, cert, tolerance=1e-6)
    except certify_mod.CertificateError as exc:
        print(f"invalid certificate: {exc}", file=sys.stderr)
        return EXIT_INVALID_CERTIFICATE
    report = certify_mod.farkas_to_json(cert)
    report["recomputed_margin"] = repr(float(margin))
    if config.out:
        with open(config.out, "w") as fh:
            json.dump(report, fh, indent=2)
    print(f"Farkas certificate: margin = {margin:.4f} > 0, "
          f"psd_defect = {cert.psd_defect:.3e}; lambda = {config.lambda_target} "
          "is infeasible")
    return EXIT_OK if margin > 0 else EXIT_INVALID_CERTIFICATE


def cmd_certify_sos_m2(config):
    cert = certify_mod.build_m2_certificate(config.n)
    verified = certify_mod.verify_sos(cert)
    report = certify_mod.sos_certificate_to_json(cert)
    report["verified"] = verified
    if config.out:
        with open(config.out, "w") as fh:
            json.dump(report, fh, indent=2)
    if verified:
        print(f"exact identity verified, lambda = {cert.lam} "
              f"(= {config.n}*{config.n - 1}/4)")
        return EXIT_OK
    print("certificate FAILED exact verification", file=sys.stderr)
    return EXIT_INVALID_CERTIFICATE


def cmd_certify_instance(config):
    matrices, m = certify_mod.load_instance(config.input)
    report = certify_mod.eval_instance(matrices, m, tolerance=config.tolerance)
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
    if config.out:
        with open(config.out, "w") as fh:
            json.dump(payload, fh, indent=2)
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


def _add_solver_options(parser):
    parser.add_argument("--symmetry", choices=["on", "off"], default="on")
    parser.add_argument("--tol", type=float, default=1e-8)
    parser.add_argument("--out", default=None)


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

    p_solve = sub.add_parser("solve", help="assemble, export, and solve one SDP")
    p_solve.add_argument("--m", type=int, required=True)
    p_solve.add_argument("--n", type=int, required=True)
    p_solve.add_argument("--sign", choices=["plus", "minus"], default="plus")
    p_solve.add_argument("--export-only", action="store_true")
    _add_solver_options(p_solve)

    p_cert = sub.add_parser("certify", help="produce or check certificates")
    cert_sub = p_cert.add_subparsers(dest="subcommand", required=True)

    p_far = cert_sub.add_parser("farkas", help="refute a pinned lambda value")
    p_far.add_argument("--m", type=int, required=True)
    p_far.add_argument("--n", type=int, required=True)
    p_far.add_argument("--lambda", dest="lambda_target", type=float, required=True)
    p_far.add_argument("--sign", choices=["plus", "minus"], default="plus")
    _add_solver_options(p_far)

    p_sos = cert_sub.add_parser("sos-m2", help="exact certificate for the "
                                               "improved m=2 lower bound")
    p_sos.add_argument("--n", type=int, required=True)
    p_sos.add_argument("--out", default=None)

    p_inst = cert_sub.add_parser("check-instance",
                                 help="evaluate an explicit matrix tuple")
    p_inst.add_argument("input", help="instance JSON file")
    p_inst.add_argument("--tol", type=float, default=1e-8)
    p_inst.add_argument("--out", default=None)

    return parser


def _config_from(args):
    config = RunConfig(
        symmetry=(getattr(args, "symmetry", "on") == "on"),
        tolerance=getattr(args, "tol", 1e-8),
        output_format=getattr(args, "format", "text"),
        out=getattr(args, "out", None),
        heavy=getattr(args, "heavy", False),
        m=getattr(args, "m", None),
        n=getattr(args, "n", None),
        lambda_target=getattr(args, "lambda_target", None),
        export_only=getattr(args, "export_only", False),
        input=getattr(args, "input", None),
    )
    sign_text = getattr(args, "sign", "plus")
    config.sign = 1 if sign_text == "plus" else -1
    return config


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    config = _config_from(args)

    if not 0 < config.tolerance < math.inf:  # also rejects nan
        parser.error("--tol must be positive and finite")
    if config.lambda_target is not None and not math.isfinite(config.lambda_target):
        parser.error("--lambda must be finite")
    if config.m is not None and config.m < 1:
        parser.error(f"--m must be at least 1 (got m={config.m})")
    if config.m is not None and config.n is not None and config.m > config.n:
        parser.error(f"--m must not exceed --n (got m={config.m}, n={config.n})")
    if getattr(args, "subcommand", None) == "sos-m2" and config.n < 2:
        parser.error(f"--n must be at least 2 (got n={config.n})")

    if args.command == "table":
        rows = list(DEFAULT_ROWS)
        if config.heavy:
            rows += HEAVY_ROWS
        records, failed = cmd_table(rows, config)
        _emit(format_table(records, config.output_format), config)
        return EXIT_SOLVER if failed else EXIT_OK
    if args.command == "solve":
        return cmd_build_solve(config)
    if args.command == "certify":
        if args.subcommand == "farkas":
            return cmd_certify_farkas(config)
        if args.subcommand == "sos-m2":
            return cmd_certify_sos_m2(config)
        return cmd_certify_instance(config)
    return EXIT_USAGE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
