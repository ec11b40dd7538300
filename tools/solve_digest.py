"""Print one sha256 over a fixed set of solves, certificates, data
matrices and certificate files, so that two source trees can be shown to
compute the same bits.

Run it from each tree and compare the two lines it prints:

    python tools/solve_digest.py

It imports ncagm from the ``src`` directory of the tree it is in.  The cases,
with the default solver options:

- a lone solve of the symmetry-reduced problem of every m <= n <= 5, both
  signs, and of the unreduced problem of every m <= n <= 4, both signs;
- the ten (n, d) groups of ``ncagm table --heavy``, each built once and
  solved with one ``solve_many`` of the right-hand sides that
  ``retargeting`` gives for its rows, and the exit code and stdout of
  ``ncagm table --heavy`` in the text, csv and json formats;
- the margin and PSD defect of the lifted (5,5,+1) dual at lambda = 120;
- ``extract_farkas`` on the unreduced (2,2,+1) problem at lambda = 0.4;
- the bytes of ``dense_matrix(k)`` for every k of the full and the
  reduced (5,5,+1) problem;
- the exit code, stdout and ``--out`` file of ``ncagm certify sos-m2`` for
  n = 2..20 (each file holds the certificate and its ``verify_sos``
  verdict) and of ``ncagm certify farkas --m 5 --n 5 --lambda 120``: the
  outputs of the benchmark's ``certify`` workload;
- each of those sos-m2 files reloaded with ``sos_certificate_from_json``:
  the ``verify_sos`` verdict and ``sos_certificate_to_json`` of the
  reloaded certificate, whose Gram blocks are built from "p/q" strings;
- the exit code, stdout and both files (``.dat-s`` and ``.json``) of
  ``ncagm solve --m 2 --n 3 --out BASE`` (its stdout names the files, with
  their temporary directory spelled DIR), and the exit code, stdout and
  ``--out`` file of ``ncagm certify check-instance`` on the sharp 2 x 2
  pair diag(3/2, 0), [[1/6, sqrt(2)/3], [sqrt(2)/3, 4/3]] at m = 2, so
  that every kind of file the CLI writes is covered.

Each solve adds its status, iteration count, the repr of both objectives
and of the gap, its fallbacks, and the bytes of its dual and primal blocks.
The digest depends on the BLAS thread count only where the solver's results
do; compare trees at the same ``OPENBLAS_NUM_THREADS``.
"""

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from itertools import groupby

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from ncagm import (assemble_sdp, extract_farkas, retargeting, solve,  # noqa: E402
                   solve_many, symmetry_reduce)
from ncagm.certify import (sos_certificate_from_json,  # noqa: E402
                           sos_certificate_to_json, verify_sos)
from ncagm.cli import DEFAULT_ROWS, HEAVY_ROWS, main as cli_main  # noqa: E402
from ncagm.sdp import farkas_from_dual, optimal_dual  # noqa: E402


def add_solution(digest, sol):
    digest.update(repr((sol.status, sol.iterations, sol.objective_primal, sol.objective_dual,
                        sol.gap, sol.fallbacks)).encode())
    digest.update(sol.dual.tobytes())
    for block in sol.primal_blocks:
        digest.update(block.tobytes())


def add_certificate(digest, cert):
    digest.update(repr((cert.lambda_target, cert.y0, cert.margin, cert.psd_defect)).encode())
    digest.update(cert.y.tobytes())


def add_run(digest, argv, directory=None):
    """Run ``ncagm argv`` and add its exit code and stdout, where the
    temporary ``directory``, if given, is spelled DIR."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli_main(argv)
    text = stdout.getvalue()
    if directory is not None:
        text = text.replace(directory, "DIR")
    digest.update(repr((code, text)).encode())


def add_files(digest, *paths):
    for path in paths:
        with open(path, "rb") as fh:
            digest.update(fh.read())


def add_command(digest, argv, directory):
    """Run ``ncagm argv --out FILE``, add its exit code, stdout and file,
    and return the file's path."""
    path = os.path.join(directory, "out.json")
    add_run(digest, [*argv, "--out", path])
    add_files(digest, path)
    return path


def add_reloaded(digest, path):
    """Reload the sos-m2 certificate file ``path`` and add the verdict and
    the JSON of the reloaded certificate."""
    with open(path) as fh:
        cert = sos_certificate_from_json(json.load(fh))
    digest.update(repr(verify_sos(cert)).encode())
    digest.update(json.dumps(sos_certificate_to_json(cert), indent=2).encode())


def main():
    digest = hashlib.sha256()
    for n in range(1, 6):
        for m in range(1, n + 1):
            for sign in (1, -1):
                full = assemble_sdp(m, n, sign)
                add_solution(digest, solve(symmetry_reduce(full)[0]))
                if n <= 4:
                    add_solution(digest, solve(full))
    rows = DEFAULT_ROWS + HEAVY_ROWS
    for (n, _), group in groupby(rows, key=lambda row: (row[1], row[0] // 2)):
        ms = [m for m, _ in group]
        problem = symmetry_reduce(assemble_sdp(ms[0], n, -1))[0]
        to_target = retargeting(problem)
        for sol in solve_many(problem, [to_target(m, sign) for m in ms for sign in (-1, +1)]):
            add_solution(digest, sol)
    for output_format in ("text", "csv", "json"):
        add_run(digest, ["table", "--heavy", "--format", output_format])
    full = assemble_sdp(5, 5, 1)
    reduced, orbits = symmetry_reduce(full)
    add_certificate(digest, farkas_from_dual(full, 120.0,
                                             orbits.lift_dual(optimal_dual(reduced))))
    add_certificate(digest, extract_farkas(assemble_sdp(2, 2, 1), 0.4))
    for problem in (full, reduced):
        for k in range(problem.num_constraints + 1):
            for block in problem.dense_matrix(k):
                digest.update(block.tobytes())
    with tempfile.TemporaryDirectory() as directory:
        for n in range(2, 21):
            path = add_command(digest, ["certify", "sos-m2", "--n", str(n)], directory)
            add_reloaded(digest, path)
        add_command(digest, ["certify", "farkas", "--m", "5", "--n", "5", "--lambda", "120"],
                    directory)
        base = os.path.join(directory, "solve")
        add_run(digest, ["solve", "--m", "2", "--n", "3", "--out", base], directory)
        add_files(digest, base + ".dat-s", base + ".json")
        instance = os.path.join(directory, "instance.json")
        off = math.sqrt(2) / 3
        with open(instance, "w") as fh:
            json.dump({"n": 2, "m": 2,
                       "matrices": [[1.5, 0.0, 0.0, 0.0], [1 / 6, off, off, 4 / 3]]}, fh)
        add_command(digest, ["certify", "check-instance", instance], directory)
    print(digest.hexdigest())


if __name__ == "__main__":
    main()
