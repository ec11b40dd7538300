"""Exact rational certificate verification and numeric instance checks.

Sum-of-squares certificates are checked with no tolerances at all.  Each
Gram block is held only as integer rows over one denominator, and the
checks read that form.  PSD-ness of the Gram blocks is decided by
fraction-free (Bareiss) elimination of the integer rows, once per orbit of
blocks: S_n permutes the blocks Y_1..Y_n, so a block that equals Y_1 under
the basis permutation of a letter transposition takes Y_1's verdict.  The
expansion identity is compared word by word in integers over one common
denominator.  Farkas certificates and explicit matrix instances are
rechecked in floating point; a Farkas certificate's PSD bound is decided
by Cholesky on blocks scattered here, not by the solver module's
PSD-defect routine that measured it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain

import numpy as np

from .ncpoly import distinct_product_sum, monomial_basis, word_count


class CertificateError(ValueError):
    """A certificate that fails its own validity assertions."""


class RationalMatrix:
    """Dense symmetric matrix of arbitrary-precision rationals, held in
    integer form only: ``numerators``, a list of integer rows, over one
    positive ``denominator``, the LCM of the reduced entries'
    denominators, so that entry (i, j) is numerators[i][j] / denominator.
    The exact checks and the JSON writer read that form; ``entries``,
    indexing and ``to_float`` are views of it.
    """

    __slots__ = ("dim", "numerators", "denominator")

    def __init__(self, rows):
        rows = [list(row) for row in rows]
        # each distinct value is read once, then scaled to the LCM denominator
        values = {v: Fraction(v) for v in set(chain.from_iterable(rows))}
        denominator = math.lcm(*{v.denominator for v in values.values()})
        scaled = {k: v.numerator * (denominator // v.denominator) for k, v in values.items()}
        self._hold([list(map(scaled.__getitem__, row)) for row in rows], denominator)

    @classmethod
    def from_integers(cls, numerators, denominator):
        """The matrix numerators / denominator, from square, symmetric
        integer rows over a positive integer denominator in lowest terms:
        the gcd of the denominator and all numerators must be 1, so that
        the denominator is the LCM of the reduced entries' denominators."""
        numerators = [list(row) for row in numerators]
        if not set(map(type, chain.from_iterable(numerators))) <= {int}:
            raise ValueError("numerators must be integers")
        if type(denominator) is not int or denominator <= 0:
            raise ValueError(f"denominator must be a positive integer, got {denominator!r}")
        if math.gcd(denominator, *chain.from_iterable(numerators)) != 1:
            raise ValueError(f"denominator {denominator} is not in lowest terms "
                             "with the numerators")
        mat = cls.__new__(cls)
        mat._hold(numerators, denominator)
        return mat

    def _hold(self, numerators, denominator):
        """Take the integer form; raise ValueError unless its rows are square
        and symmetric."""
        dim = len(numerators)
        for row in numerators:
            if len(row) != dim:
                raise ValueError("matrix must be square")
        if [list(col) for col in zip(*numerators)] != numerators:
            for i in range(dim):
                for j in range(i + 1, dim):
                    if numerators[i][j] != numerators[j][i]:
                        raise ValueError(f"matrix not symmetric at ({i},{j})")
        self.dim = dim
        self.numerators = numerators
        self.denominator = denominator

    @property
    def entries(self):
        """The entries as a new list of ``Fraction`` rows."""
        den = self.denominator
        return [[Fraction(v, den) for v in row] for row in self.numerators]

    @classmethod
    def identity(cls, dim):
        return cls.from_integers([[int(i == j) for j in range(dim)] for i in range(dim)], 1)

    def __getitem__(self, key):
        i, j = key
        return Fraction(self.numerators[i][j], self.denominator)

    def to_float(self):
        # integer true division is correctly rounded, as float(Fraction) is
        den = self.denominator
        return np.array([[v / den for v in row] for row in self.numerators])

    def __eq__(self, other):
        return (isinstance(other, RationalMatrix) and self.denominator == other.denominator
                and self.numerators == other.numerators)

    def __repr__(self):
        return f"RationalMatrix({self.entries!r})"


def psd_check_exact(mat):
    """Exact PSD decision by fraction-free (Bareiss) symmetric elimination.

    The matrix's integer form, its entries times the common denominator,
    is eliminated in integers with the greedy max-diagonal pivot,
    a_ij <- (pivot * a_ij - a_ip * a_pj) // prev_pivot, where the division
    is exact.  By Sylvester's identity each intermediate entry is the
    rational Schur complement times the previous pivot, which is positive,
    so the pivot order and every sign are those of rational LDL^T.  A zero
    maximal pivot forces the entire remaining principal block to vanish for
    the matrix to be PSD.
    """
    a = [row[:] for row in mat.numerators]
    prev = 1
    while a:
        p = max(range(len(a)), key=lambda i: a[i][i])
        pivot = a[p][p]
        if pivot < 0:
            return False
        if pivot == 0:
            return not any(any(row) for row in a)
        row_p = a.pop(p)
        del row_p[p]
        rest = []
        for row in a:
            f = row.pop(p)
            rest.append([(pivot * x - f * y) // prev for x, y in zip(row, row_p)])
        a = rest
        prev = pivot
    return True


@dataclass
class SosCertificate:
    """A rational lambda plus n+1 PSD Gram blocks proving
    lambda + sign*target = sum_i tr(beta l_i beta^T Y_i) exactly."""

    m: int
    n: int
    sign: int
    lam: Fraction
    gram_blocks: list

    @property
    def degree_bound(self):
        return self.m // 2


def _gram_basis(n, d, gram_blocks):
    """The basis of words of degree <= d over n letters; raises ValueError
    unless ``gram_blocks`` holds exactly n+1 blocks of the basis size."""
    if len(gram_blocks) != n + 1:
        raise ValueError(f"expected {n + 1} Gram blocks, got {len(gram_blocks)}")
    # the sizes are checked before the basis, which grows as n**d, is built
    size = word_count(n, d)
    for i, block in enumerate(gram_blocks, start=1):
        if block.dim != size:
            raise ValueError(f"Gram block {i} has dimension {block.dim}, expected {size}")
    return monomial_basis(n, d)


def expand_gram(n, d, gram_blocks):
    """Integer form of sum_i sum_{a,b} Y_i[a,b] * rev(beta_a) l_i beta_b.

    Returns (coeffs, denom): the entries are scaled to integers by one
    common denominator denom, the LCM over all blocks, and coeffs maps each
    word to its integer coefficient, so the expansion is coeffs[w] / denom
    (a word may map to 0 where terms cancel).  With l_i = X_i for i <= n
    and l_{n+1} = n - X_1 - ... - X_n, the word rev(beta_a) i beta_b gets
    Y_i[a,b] - Y_{n+1}[a,b] and rev(beta_a) beta_b gets n * Y_{n+1}[a,b].
    """
    words = _gram_basis(n, d, gram_blocks).words
    denom = math.lcm(*(block.denominator for block in gram_blocks))

    def integer_rows(block):
        scale = denom // block.denominator
        if scale == 1:
            return block.numerators
        return [[scale * v for v in row] for row in block.numerators]

    acc = {}
    get = acc.get
    last = integer_rows(gram_blocks[n])
    for wa, row in zip(words, last):
        ra = wa[::-1]
        for wb, t in zip(words, row):
            if t:
                w = ra + wb
                acc[w] = get(w, 0) + n * t
    for i, block in enumerate(gram_blocks[:n], start=1):
        for wa, row, row_last in zip(words, integer_rows(block), last):
            head = wa[::-1] + (i,)
            for wb, s, t in zip(words, row, row_last):
                if s != t:
                    w = head + wb
                    acc[w] = get(w, 0) + s - t
    return acc, denom


def _gram_blocks_psd(basis, gram_blocks):
    """True iff every Gram block is exactly PSD, with one Bareiss run per
    orbit of blocks.

    Swapping letters 1 and i maps rev(beta_a) X_1 beta_b to the word of
    block i, so in a symmetric certificate block i is block 1 with its
    basis permuted by that transposition.  A block equal to that
    permutation congruence P Y_1 P^T, compared as integer rows over the
    same denominator, takes Y_1's verdict, since congruence by a
    permutation preserves PSD-ness; any other block, and block n+1, is
    eliminated on its own.
    """
    n = basis.n
    first = gram_blocks[0]
    if not psd_check_exact(first):
        return False
    rows = first.numerators
    for i, block in enumerate(gram_blocks[1:n], start=2):
        swap = list(range(n + 1))
        swap[1], swap[i] = i, 1
        perm = [basis.index(map(swap.__getitem__, w)) for w in basis.words]
        image = [[row[b] for b in perm] for row in map(rows.__getitem__, perm)]
        copy = block.denominator == first.denominator and block.numerators == image
        if not copy and not psd_check_exact(block):
            return False
    return psd_check_exact(gram_blocks[n])


def verify_sos(cert):
    """True iff every Gram block is exactly PSD and the expansion identity
    holds word by word, compared in integers over one common denominator."""
    n, m = cert.n, cert.m
    if cert.sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {cert.sign}")
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    basis = _gram_basis(n, cert.degree_bound, cert.gram_blocks)
    if not _gram_blocks_psd(basis, cert.gram_blocks):
        return False
    coeffs, denom = expand_gram(n, basis.d, cert.gram_blocks)
    target = {w: cert.sign * c for w, c in distinct_product_sum(m, n).terms.items()}
    target[()] = Fraction(cert.lam)
    for word, c in target.items():
        if coeffs.pop(word, 0) * c.denominator != c.numerator * denom:
            return False
    return not any(coeffs.values())


def build_m2_certificate(n):
    """Closed-form rational certificate for the improved m=2 lower bound,
    lambda = n(n-1)/4.  The eleven entry values, as integers over 4n^2,
    populate the n+1 Gram blocks over the basis (1, X_1, ..., X_n); each
    block is built from its integer rows, over 4n^2 divided by the gcd of
    its values.  Correctness is not assumed here but established by
    verify_sos."""
    if n < 2:
        raise ValueError("need n >= 2")
    # a = 5(n-1)/4, b = -3(n-1)/(2n), c = (3-n)/(2n), d = f = z = 2(n-1)/n^2,
    # e = g = w = (n-2)/n^2, x = (n-1)/4 and y = -(n-1)/(2n), times 4n^2
    den = 4 * n * n
    a, b, c = 5 * (n - 1) * n * n, -6 * (n - 1) * n, 2 * (3 - n) * n
    d_ = f = z = 8 * (n - 1)
    e = g = w = 4 * (n - 2)
    x, y = (n - 1) * n * n, -2 * (n - 1) * n

    q = n + 1
    blocks = []
    k = math.gcd(den, a, b, c, d_, e)
    a, b, c, d_, e, f, g = (v // k for v in (a, b, c, d_, e, f, g))
    for i in range(1, q):
        top = [a] + [c] * n
        top[i] = b
        rows = [top]
        for j in range(1, q):
            row = [top[j]] + ([e] * n if j == i else [g] * n)
            row[i] = e
            row[j] = d_ if j == i else f
            rows.append(row)
        blocks.append(RationalMatrix.from_integers(rows, den // k))
    k = math.gcd(den, x, y, z, w)
    x, y, z, w = (v // k for v in (x, y, z, w))
    rows = [[x] + [y] * n]
    for j in range(1, q):
        row = [y] + [w] * n
        row[j] = z
        rows.append(row)
    blocks.append(RationalMatrix.from_integers(rows, den // k))

    return SosCertificate(m=2, n=n, sign=1, lam=Fraction(n * (n - 1), 4), gram_blocks=blocks)


# ---------------------------------------------------------------------------
# Farkas re-checking
# ---------------------------------------------------------------------------


def farkas_check(problem, cert, tolerance=1e-6):
    """Recompute a Farkas certificate's PSD defect and margin from the
    problem data.

    S = y0*C0 + sum y_i C_i is scattered into dense blocks here, with one
    bincount over the problem's entry record, and each block must pass
    tolerance*scale*I - S >= 0 by Cholesky: the check shares no code with
    ``psd_defect_of``, which measured the defect when the certificate was
    made.  Raises CertificateError when a block fails that bound; a
    nonpositive margin is reported via the return value, not an error.
    """
    y = np.asarray(cert.y, dtype=float)
    if y.shape != (problem.num_constraints,):
        raise ValueError(
            f"certificate indexes {y.shape[0]} constraints, "
            f"problem has {problem.num_constraints}"
        )
    e = problem.entries
    max_entry = float(np.abs(e.value).max(initial=0.0))
    scale = (abs(cert.y0) + float(np.abs(y).sum())) * max_entry
    dims = np.array(problem.block_dims)
    start = np.concatenate([[0], np.cumsum(dims * dims)])
    # the upper triangle of each block, row-major from start[block]
    upper = np.bincount(start[e.block] + e.i * dims[e.block] + e.j,
                        weights=np.concatenate([[cert.y0], y])[e.matrix] * e.value,
                        minlength=start[-1])
    blocks = []
    for lo, d in zip(start, dims):
        u = upper[lo:lo + d * d].reshape(d, d)
        blocks.append(u + np.triu(u, 1).T)
    # scale is 0 only when every term of S is 0, which meets a bound of 0
    if scale > 0 and not all(_below(block, tolerance * scale) for block in blocks):
        defect = max(float(np.linalg.eigvalsh(block).max()) for block in blocks)
        raise CertificateError(
            f"PSD defect {defect:.3e} exceeds {tolerance:.1e} * scale ({scale:.3e})"
        )
    return float(cert.lambda_target * cert.y0 + np.asarray(problem.rhs) @ y)


def _below(block, bound):
    """Whether bound*I - block is positive definite, by Cholesky."""
    gap = -block
    gap.flat[::len(gap) + 1] += bound
    try:
        np.linalg.cholesky(gap)
    except np.linalg.LinAlgError:
        return False
    return True


# ---------------------------------------------------------------------------
# Numeric instance evaluation
# ---------------------------------------------------------------------------


@dataclass
class InstanceReport:
    n: int
    m: int
    inputs_psd: bool
    sum_bounded: bool
    min_eig: float
    max_eig: float
    bound: float
    improved_bounds: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)

    @property
    def feasible(self):
        return self.inputs_psd and self.sum_bounded


def distinct_product_bound(m, n):
    """The conjectured Loewner bound n!/(n-m)!: the number of distinct
    index tuples in the degree-m product sum."""
    return float(math.factorial(n) // math.factorial(n - m))


def eval_instance(matrices, m, tolerance=1e-9):
    """Evaluate the distinct-product sum on an explicit matrix tuple and
    compare its spectrum against the conjectured and proven bounds."""
    n = len(matrices)
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    mats = [np.asarray(a, dtype=float) for a in matrices]
    dim = mats[0].shape[0]
    if dim == 0:
        raise ValueError("matrices must have at least one entry")
    for a in mats:
        if a.shape != (dim, dim):
            raise ValueError("matrices must be square and of equal dimension")
        # nan and inf pass the symmetry test below and eigvalsh reads only
        # one triangle, so they would otherwise reach the verdict
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite")
        if np.abs(a - a.T).max() > tolerance:
            raise ValueError("matrices must be symmetric")

    inputs_psd = all(float(np.linalg.eigvalsh(a).min()) >= -tolerance for a in mats)
    total = sum(mats)
    sum_bounded = float(np.linalg.eigvalsh(total).max()) <= n + tolerance

    value = distinct_product_sum(m, n).evaluate(mats)
    # the evaluated sum is symmetric in exact arithmetic; shed round-off skew
    value = 0.5 * (value + value.T)
    eigs = np.linalg.eigvalsh(value)
    min_eig, max_eig = float(eigs.min()), float(eigs.max())
    bound = distinct_product_bound(m, n)

    improved = {}
    violations = []
    if max_eig > bound + tolerance:
        violations.append("upper Loewner bound")
    if min_eig < -bound - tolerance:
        violations.append("lower Loewner bound")
    if m == 2:
        improved["improved m=2 lower bound"] = n * (n - 1) / 4.0
        if min_eig < -improved["improved m=2 lower bound"] - tolerance:
            violations.append("improved m=2 lower bound")
    if m == 3 and n >= 3:
        # expectation-form constant n/(4(n-2)) rescaled to the plain sum
        improved["improved m=3 lower bound (expectation-form constant)"] = (
            n / (4.0 * (n - 2)) * bound
        )
        if min_eig < -improved["improved m=3 lower bound (expectation-form constant)"] - tolerance:
            violations.append("improved m=3 lower bound (expectation-form constant)")

    return InstanceReport(
        n=n,
        m=m,
        inputs_psd=inputs_psd,
        sum_bounded=sum_bounded,
        min_eig=min_eig,
        max_eig=max_eig,
        bound=bound,
        improved_bounds=improved,
        violations=violations,
    )


# ---------------------------------------------------------------------------
# JSON serialization (rationals as "p/q" strings, floats as decimal strings)
# ---------------------------------------------------------------------------


def _frac_str(value):
    if not isinstance(value, Fraction):
        value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def _block_strs(block):
    """The block's entries as "p/q" strings, each distinct value formatted
    once from the integer form."""
    den = block.denominator
    text = {}
    for v in set(chain.from_iterable(block.numerators)):
        k = math.gcd(v, den)
        text[v] = f"{v // k}/{den // k}"
    return [list(map(text.__getitem__, row)) for row in block.numerators]


def sos_certificate_to_json(cert):
    return {
        "m": cert.m,
        "n": cert.n,
        "sign": cert.sign,
        "lambda": _frac_str(cert.lam),
        "blocks": [_block_strs(block) for block in cert.gram_blocks],
    }


def _int_field(data, key):
    """data[key] as an int; int() would truncate 2.7 to 2 and accept true."""
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f'"{key}" must be an integer, got {value!r}')
    return value


def _rational_field(value, name):
    """value if it is a JSON integer or string; Fraction() would read true
    as 1 and 0.1 as the binary64 value 3602879701896397/2**55."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f'{name} must be an integer or a "p/q" string, got {value!r}')
    return value


def sos_certificate_from_json(data):
    if not isinstance(data, dict) or not {"m", "n", "sign", "lambda", "blocks"} <= data.keys():
        raise ValueError('certificate must be a JSON object with keys "m", "n", "sign", '
                         '"lambda" and "blocks"')
    m, n, sign = (_int_field(data, key) for key in ("m", "n", "sign"))
    try:
        lam = Fraction(_rational_field(data["lambda"], '"lambda"'))
    except ZeroDivisionError:
        raise ValueError('"lambda" has a zero denominator') from None
    blocks = data["blocks"]
    # iterating a string would read its characters as rows or entries
    if type(blocks) is not list:
        raise ValueError(f'"blocks" must be a list, got {blocks!r}')
    gram_blocks = []
    for i, block in enumerate(blocks):
        if type(block) is not list:
            raise ValueError(f'"blocks"[{i}] must be a list, got {block!r}')
        for a, row in enumerate(block):
            if type(row) is not list:
                raise ValueError(f'"blocks"[{i}][{a}] must be a list, got {row!r}')
        if not set(map(type, chain.from_iterable(block))) <= {int, str}:
            # name the first offender
            for a, row in enumerate(block):
                for b, value in enumerate(row):
                    _rational_field(value, f'"blocks"[{i}][{a}][{b}]')
        try:
            gram_blocks.append(RationalMatrix(block))
        except ZeroDivisionError:
            raise ValueError(f'"blocks"[{i}] has an entry with a zero denominator') from None
    return SosCertificate(m=m, n=n, sign=sign, lam=lam, gram_blocks=gram_blocks)


def farkas_to_json(cert):
    return {
        "m": cert.meta.get("m"),
        "n": cert.meta.get("n"),
        "sign": cert.meta.get("sign"),
        "lambda": repr(float(cert.lambda_target)),
        "y0": repr(float(cert.y0)),
        "dual": list(map(repr, np.asarray(cert.y, dtype=float).tolist())),
        "margin": repr(float(cert.margin)),
        "psd_defect": repr(float(cert.psd_defect)),
    }


def load_instance(source):
    """Instance file: {"n": ..., "m": ..., "matrices": [[row-major], ...]}."""
    if isinstance(source, dict):
        data = source
    else:
        with open(source) as fh:
            data = json.load(fh)
    if not isinstance(data, dict) or not {"n", "m", "matrices"} <= data.keys():
        raise ValueError('instance must be a JSON object with keys "n", "m" and "matrices"')
    n = _int_field(data, "n")
    m = _int_field(data, "m")
    if not isinstance(data["matrices"], list):
        raise ValueError('"matrices" must be a list')
    matrices = []
    for k, flat in enumerate(data["matrices"]):
        # float() would read "1" and true as numbers, and a string as digits
        if not isinstance(flat, list) or any(
                isinstance(v, bool) or not isinstance(v, (int, float)) for v in flat):
            raise ValueError(f'"matrices"[{k}] must be a list of numbers')
        flat = [float(v) for v in flat]
        dim = math.isqrt(len(flat))
        if dim * dim != len(flat):
            raise ValueError("matrix entry count is not a perfect square")
        matrices.append(np.array(flat).reshape(dim, dim))
    if len(matrices) != n:
        raise ValueError(f"expected {n} matrices, found {len(matrices)}")
    return matrices, m
