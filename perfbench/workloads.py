"""Workload definitions and reference checks.

Every reference value below comes from the paper's table of optimal
constants (as pinned by the acceptance gate), from the closed forms
lambda1 = n!/(n-m)! and lambda2(2, n) = n(n-1)/4, or from the m = n = 5
refutation 144.6488 > 120.  None is computed by the code under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from fractions import Fraction

# lambda2 for m <= n <= 4, checked to 1e-3 absolute
TABLE_LAMBDA2 = {
    (1, 1): 0.0, (1, 2): 0.0, (1, 3): 0.0, (1, 4): 0.0,
    (2, 2): 0.5, (2, 3): 1.5, (2, 4): 3.0,
    (3, 3): 3.4113, (3, 4): 8.5367,
    (4, 4): 22.4746,
}
# lambda2 for n = 5, checked to 1e-2 relative; (2, 5) is n(n-1)/4
HEAVY_LAMBDA2 = {(2, 5): 5.0, (3, 5): 17.3611, (4, 5): 80.2349, (5, 5): 144.6488}
LAMBDA2_5_5_RANGE = (144.5, 144.8)
REFUTE_MARGIN = 144.6488 - 120.0
REFUTE_MARGIN_TOL = 1e-3
M2_SIZES = range(2, 21)

SEED_EFFECT = {
    "table-heavy": "none: one `table --heavy` invocation, which fixes its own row order",
    "certify": "permutes the order of the `certify farkas` invocation and the 19 "
               "`certify sos-m2 --n k` invocations in every pass",
}
WORKLOADS = tuple(SEED_EFFECT)


class Invocation:
    """One CLI call: ``kind`` selects its check, ``key`` names its result."""

    def __init__(self, kind, key, argv, out=None):
        self.kind = kind
        self.key = key
        self.argv = argv
        self.out = out


def invocations(workload, rng, workdir):
    """The argv lists of one pass, in the order the seeded ``random.Random``
    ``rng`` gives."""
    if workload == "table-heavy":
        return [Invocation("table", "table", ["table", "--heavy", "--format", "json"])]
    if workload == "certify":
        out = os.path.join(workdir, "farkas-5-5.json")
        calls = [Invocation("farkas", "farkas", ["certify", "farkas", "--m", "5", "--n", "5",
                                                 "--lambda", "120", "--out", out], out)]
        for k in M2_SIZES:
            out = os.path.join(workdir, f"sos-m2-n{k}.json")
            calls.append(Invocation("sos-m2", f"sos-m2 n={k}",
                                    ["certify", "sos-m2", "--n", str(k), "--out", out], out))
        rng.shuffle(calls)
        return calls
    raise ValueError(f"unknown workload {workload!r}")


def _check_table_row(m, n, lam2_ref, row):
    """Return None when the row matches the references, else a reason."""
    if row is None:
        return "row missing"
    if "error" in row:
        return f"row error: {row['error']}"
    lam1_ref = math.factorial(n) / math.factorial(n - m)
    lam1, lam2 = float(row["lambda1"]), float(row["lambda2"])
    if n <= 4:
        if abs(lam1 - lam1_ref) > 1e-3 or abs(lam2 - lam2_ref) > 1e-3:
            return f"values {lam1}/{lam2} off references {lam1_ref}/{lam2_ref} by > 1e-3"
    else:
        if abs(lam1 - lam1_ref) / lam1_ref > 1e-2 or abs(lam2 - lam2_ref) / lam2_ref > 1e-2:
            return f"values {lam1}/{lam2} off references {lam1_ref}/{lam2_ref} by > 1e-2 rel"
    if (m, n) == (5, 5):
        lo, hi = LAMBDA2_5_5_RANGE
        if not lo <= lam2 <= hi:
            return f"lambda2(5,5) = {lam2} outside [{lo}, {hi}]"
    expected_verdict = "VIOLATION" if (m, n) == (5, 5) else "ok"
    if row.get("verdict") != expected_verdict:
        return f"verdict {row.get('verdict')!r}, expected {expected_verdict!r}"
    return None


def _check_table(code, stdout):
    expected = {**TABLE_LAMBDA2, **HEAVY_LAMBDA2}
    if code != 0:
        return len(expected), [f"table exit code {code}"], None
    try:
        rows = {(int(r["m"]), int(r["n"])): r for r in json.loads(stdout)}
    except (ValueError, KeyError, TypeError) as exc:
        return len(expected), [f"table output unreadable: {exc}"], None
    failures = []
    for (m, n), lam2_ref in sorted(expected.items()):
        reason = _check_table_row(m, n, lam2_ref, rows.get((m, n)))
        if reason:
            failures.append(f"({m},{n}): {reason}")
    extra = sorted(set(rows) - set(expected))
    if extra:
        failures.append(f"unexpected rows {extra}")
    return len(expected), failures, None


def _check_farkas(report):
    try:
        margin = float(report["recomputed_margin"])
    except (KeyError, ValueError) as exc:
        return [f"farkas: no recomputed margin: {exc}"]
    if margin <= 0 or abs(margin - REFUTE_MARGIN) > REFUTE_MARGIN_TOL:
        return [f"farkas: margin {margin} not within {REFUTE_MARGIN_TOL} of {REFUTE_MARGIN:.4f}"]
    return []


def _check_sos_m2(report, k):
    failures = []
    if report.get("verified") is not True:
        failures.append(f"sos-m2 n={k}: verified is {report.get('verified')!r}")
    if (report.get("m"), report.get("n")) != (2, k):
        failures.append(f"sos-m2 n={k}: certificate for (m, n) = "
                        f"({report.get('m')}, {report.get('n')})")
    try:
        lam = Fraction(report.get("lambda"))
    except (TypeError, ValueError):
        lam = None
    if lam != Fraction(k * (k - 1), 4):
        failures.append(f"sos-m2 n={k}: lambda {report.get('lambda')!r}, expected {k * (k - 1)}/4")
    return failures


def check(call, code, stdout):
    """Check one invocation against the references.

    Returns (attempted, failures, digest): the number of operations the call
    stands for (table rows, or 1), a list of failure reasons, and, for the
    exact m = 2 certificates, a digest of the output file used to compare
    results across invocation orders (float outputs are checked against
    tolerances instead).
    """
    if call.kind == "table":
        return _check_table(code, stdout)
    if code != 0:
        return 1, [f"{call.key}: exit code {code}"], None
    try:
        with open(call.out) as fh:
            text = fh.read()
        report = json.loads(text)
    except (OSError, ValueError) as exc:
        return 1, [f"{call.key}: output file unreadable: {exc}"], None
    if call.kind == "farkas":
        return 1, _check_farkas(report), None
    k = int(call.argv[call.argv.index("--n") + 1])
    return 1, _check_sos_m2(report, k), hashlib.sha256(text.encode()).hexdigest()
