"""SDPA sparse format (".dat-s") export and import.

Layout: optional comment lines (leading '"' or '*'), number of constraints,
number of blocks, block dimension list, right-hand-side line, then one line
"matno blkno i j value" per nonzero with 1-based indices and i <= j; matno 0
is the objective.  Problem metadata (m, n, sign, d, ...) is carried in a
"*META" comment so that import_sdpa(render_sdpa(p)) keeps it field by field.
"""

from __future__ import annotations

import io
import math

from .sdp import SdpProblem

_SEPARATORS = str.maketrans({c: " " for c in ",{}()"})


class SdpaParseError(ValueError):
    def __init__(self, message, line_number):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


def _fmt(value):
    return repr(float(value))


def render_sdpa(problem):
    """The SDPA text for a problem, deterministically ordered."""
    out = io.StringIO()
    meta_items = sorted(
        (k, v) for k, v in problem.meta.items() if isinstance(v, (int, bool))
    )
    if meta_items:
        out.write("*META " + " ".join(f"{k}={int(v)}" for k, v in meta_items) + "\n")
    out.write(f"{problem.num_constraints}\n")
    out.write(f"{problem.num_blocks}\n")
    out.write(" ".join(str(d) for d in problem.block_dims) + "\n")
    out.write(" ".join(_fmt(v) for v in problem.rhs) + "\n")
    for matno, blk, i, j, v in problem.entries.tolist():
        out.write(f"{matno} {blk + 1} {i + 1} {j + 1} {_fmt(v)}\n")
    return out.getvalue()


def _parse_meta(line):
    meta = {}
    for token in line[len("*META"):].split():
        key, _, value = token.partition("=")
        meta[key] = int(value)
    if "reduced" in meta:
        meta["reduced"] = bool(meta["reduced"])
    return meta


def import_sdpa(source):
    """Parse SDPA sparse content from a stream, bytes, or string."""
    if hasattr(source, "read"):
        raw = source.read()
    else:
        raw = source
    if isinstance(raw, bytes):
        raw = raw.decode("ascii")

    meta = {}
    numbered = []
    for lineno, line in enumerate(raw.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("*") or stripped.startswith('"'):
            if stripped.startswith("*META"):
                try:
                    meta = _parse_meta(stripped)
                except ValueError:
                    raise SdpaParseError("malformed *META comment", lineno) from None
            continue
        numbered.append((lineno, stripped))

    if len(numbered) < 4:
        raise SdpaParseError("truncated header", numbered[-1][0] if numbered else 1)

    def parse_int(text, lineno, what):
        try:
            return int(text)
        except ValueError:
            raise SdpaParseError(f"non-numeric {what}: {text!r}", lineno) from None

    def parse_float(text, lineno, what):
        try:
            value = float(text)
        except ValueError:
            raise SdpaParseError(f"non-numeric {what}: {text!r}", lineno) from None
        if not math.isfinite(value):
            raise SdpaParseError(f"non-finite {what}: {text!r}", lineno)
        return value

    def parse_count(index, what):
        lineno, text = numbered[index]
        tokens = text.translate(_SEPARATORS).split()
        if not tokens:
            raise SdpaParseError(f"missing {what}", lineno)
        return parse_int(tokens[0], lineno, what)

    num_constraints = parse_count(0, "constraint count")
    num_blocks = parse_count(1, "block count")

    lineno, text = numbered[2]
    tokens = text.translate(_SEPARATORS).split()
    if len(tokens) != num_blocks:
        raise SdpaParseError(
            f"expected {num_blocks} block dimensions, found {len(tokens)}", lineno
        )
    # a negated entry denotes a diagonal block of that size
    signed_dims = [parse_int(t, lineno, "block dimension") for t in tokens]
    block_dims = tuple(map(abs, signed_dims))
    if 0 in block_dims:
        raise SdpaParseError("block dimension 0", lineno)

    lineno, text = numbered[3]
    tokens = text.translate(_SEPARATORS).split()
    if len(tokens) != num_constraints:
        raise SdpaParseError(
            f"expected {num_constraints} right-hand-side values, found {len(tokens)}",
            lineno,
        )
    rhs = [parse_float(t, lineno, "right-hand side") for t in tokens]

    objective = {}
    constraints = [dict() for _ in range(num_constraints)]
    for lineno, text in numbered[4:]:
        tokens = text.split()
        if len(tokens) != 5:
            raise SdpaParseError(f"expected 5 tokens, found {len(tokens)}", lineno)
        matno = parse_int(tokens[0], lineno, "matrix number")
        blkno = parse_int(tokens[1], lineno, "block number")
        i = parse_int(tokens[2], lineno, "row index")
        j = parse_int(tokens[3], lineno, "column index")
        value = parse_float(tokens[4], lineno, "value")
        if not 0 <= matno <= num_constraints:
            raise SdpaParseError(f"matrix number {matno} out of range", lineno)
        if not 1 <= blkno <= num_blocks:
            raise SdpaParseError(f"block number {blkno} out of range", lineno)
        dim = block_dims[blkno - 1]
        if not 1 <= i <= j <= dim:
            raise SdpaParseError(
                f"entry ({i},{j}) invalid for block of dimension {dim} "
                "(upper triangle required)",
                lineno,
            )
        if i != j and signed_dims[blkno - 1] < 0:
            raise SdpaParseError(f"off-diagonal entry ({i},{j}) in diagonal block {blkno}",
                                 lineno)
        target = objective if matno == 0 else constraints[matno - 1]
        key = (blkno - 1, i - 1, j - 1)
        if key in target:
            raise SdpaParseError(f"repeated entry {matno} {blkno} {i} {j}", lineno)
        target[key] = value

    return SdpProblem(block_dims, constraints, rhs, objective, meta)
