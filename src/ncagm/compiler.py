"""Compiles the distinct-product inequality into Gram-matrix SDPs.

The target polynomial is lambda + sign * sum over distinct index tuples of
X_{j1}...X_{jm}.  With linear constraints l_i = X_i (i <= n) and
l_{n+1} = n - X_1 - ... - X_n, matching coefficients of

    lambda + sign*target  =  sum_i  sum_{a,b}  rev(beta_a) l_i beta_b * Y_i[a,b]

word by word yields one linear constraint per word of degree <= 2d+1, with
d = m // 2 and beta the monomial basis of degree <= d.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .ncpoly import NCPolynomial, Permutation, distinct_product_sum
from .sdp import SdpProblem


class InvarianceError(ValueError):
    """The problem data is not invariant under the symmetric-group action."""


def words_up_to(n, d):
    """All words of degree <= d over 1..n in graded-lex order (unit first)."""
    out = []
    for k in range(d + 1):
        out.extend(product(range(1, n + 1), repeat=k))
    return out


@dataclass(frozen=True)
class MonomialBasis:
    """The ordered tuple of all words of degree <= d over n letters."""

    n: int
    d: int
    words: tuple

    @cached_property
    def _index(self):
        return {w: k for k, w in enumerate(self.words)}

    @property
    def size(self):
        return len(self.words)

    def index(self, word):
        return self._index[tuple(word)]


def monomial_basis(n, d):
    if n < 1:
        raise ValueError("alphabet size must be at least 1")
    if d < 0:
        raise ValueError("degree bound must be nonnegative")
    return MonomialBasis(n, d, tuple(words_up_to(n, d)))


def localizing_entry(basis, i, a, b):
    """The polynomial rev(beta_a) * l_i * beta_b (degree <= 2d+1).

    i is the 1-based constraint index (l_i = X_i for i <= n, and
    l_{n+1} = n - X_1 - ... - X_n); a and b are 0-based basis indices.
    Satisfies entry(a, b) = transpose(entry(b, a)).
    """
    n = basis.n
    if not 1 <= i <= n + 1:
        raise ValueError(f"constraint index {i} outside 1..{n + 1}")
    if not (0 <= a < basis.size and 0 <= b < basis.size):
        raise ValueError("basis index out of range")
    ra = basis.words[a][::-1]
    wb = basis.words[b]
    if i <= n:
        return NCPolynomial.from_word(n, ra + (i,) + wb)
    terms = {ra + wb: n}
    for j in range(1, n + 1):
        w = ra + (j,) + wb
        terms[w] = terms.get(w, 0) - 1
    return NCPolynomial(n, terms)


def _coefficient_rows(n, d, basis):
    """Full-coordinate constraint coefficients: for each word w of degree
    <= 2d+1, the map (block i, a, b) -> coefficient of w in
    rev(beta_a) l_i beta_b.  Returns (words, rows)."""
    words = words_up_to(n, 2 * d + 1)
    windex = {w: k for k, w in enumerate(words)}
    rows = [dict() for _ in words]

    def bump(word, coord, value):
        row = rows[windex[word]]
        row[coord] = row.get(coord, 0) + value

    for a, wa in enumerate(basis.words):
        ra = wa[::-1]
        for b, wb in enumerate(basis.words):
            for i in range(1, n + 1):
                bump(ra + (i,) + wb, (i, a, b), 1)
            bump(ra + wb, (n + 1, a, b), n)
            for j in range(1, n + 1):
                bump(ra + (j,) + wb, (n + 1, a, b), -1)
    return words, rows


def _fold(full_row, unit_word, lam_coeff):
    """Standard-form data matrix for one word: C = [unit]*E00 - Loc, stored
    as upper-triangle entries in the SDPA both-mirror-entries convention."""
    entry = {}
    if lam_coeff:
        entry[(0, 0, 0)] = float(lam_coeff)
    for (blk, a, b), c in full_row.items():
        key = (blk, a, b) if a <= b else (blk, b, a)
        entry[key] = entry.get(key, 0.0) - float(c) * (1.0 if a == b else 0.5)
    return {k: v for k, v in entry.items() if v != 0.0}


def assemble_sdp(m, n, sign):
    """Standard-form SDP for the lambda problem (sign -1: lambda_1 problem,
    sign +1: lambda_2 problem), with d = m // 2."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")
    d = m // 2
    basis = monomial_basis(n, d)
    words, rows = _coefficient_rows(n, d, basis)
    target = distinct_product_sum(m, n)

    constraints = []
    rhs = []
    for w, row in zip(words, rows):
        constraints.append(_fold(row, w, 1.0 if w == () else 0.0))
        rhs.append(-float(sign) * float(target.coefficient(w)))

    block_dims = (1,) + (basis.size,) * (n + 1)
    meta = {"m": m, "n": n, "sign": sign, "d": d}
    return SdpProblem(block_dims, constraints, rhs, {(0, 0, 0): 1.0}, meta)


# ---------------------------------------------------------------------------
# Symmetry reduction under the simultaneous S_n action
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymmetryOrbits:
    """Orbits of Gram-entry coordinates (block i, row a, col b) under the
    simultaneous letter/block permutation action, folded by matrix symmetry.

    word_orbit[k] is the word orbit of full constraint row k, which is also
    the index of that orbit's row in the reduced problem.
    """

    orbit_id: dict
    representatives: tuple
    word_orbit: tuple

    @property
    def num_free_variables(self):
        return len(self.representatives)

    def lift_dual(self, y_reduced):
        """Full-problem dual from a reduced one: each word row gets its
        orbit's multiplier divided by the orbit size; tie rows drop out.

        The lifted slack is the group average of the reduced one, so it is
        PSD whenever that is, and b'y is unchanged (tie rows have rhs 0).
        """
        orbit = np.asarray(self.word_orbit, dtype=np.intp)
        sizes = np.bincount(orbit)
        return np.asarray(y_reduced, dtype=float)[orbit] / sizes[orbit]


def _generators(n):
    gens = []
    if n >= 2:
        gens.append(Permutation.transposition(n, 1, 2))
        gens.append(Permutation.cycle(n))
    return gens


def _basis_index_perm(basis, sigma):
    return [
        basis.index(tuple(sigma(l) for l in w)) for w in basis.words
    ]


def _check_invariance(problem, words, basis, sigma):
    """Verify constraint data maps onto itself under one generator."""
    n = basis.n
    windex = {w: k for k, w in enumerate(words)}
    bperm = _basis_index_perm(basis, sigma)

    def map_coord(blk, a, b):
        nblk = sigma(blk) if 1 <= blk <= n else blk
        na, nb = bperm[a], bperm[b]
        return (nblk, na, nb) if na <= nb else (nblk, nb, na)

    for k, w in enumerate(words):
        wk = windex[tuple(sigma(l) for l in w)]
        mapped = {}
        for (blk, a, b), v in problem.constraints[k].items():
            if blk == 0:
                mapped[(0, a, b)] = mapped.get((0, a, b), 0.0) + v
                continue
            key = map_coord(blk, a, b)
            mapped[key] = mapped.get(key, 0.0) + v
        other = problem.constraints[wk]
        if problem.rhs[k] != problem.rhs[wk]:
            raise InvarianceError(f"right-hand side not invariant at word {w}")
        if set(mapped) != set(other) or any(
            abs(mapped[key] - other[key]) > 1e-12 for key in mapped
        ):
            raise InvarianceError(f"constraint data not invariant at word {w}")


def _coordinate_orbits(n, q, basis):
    """BFS orbits of (block, a, b), block in 1..n+1, with (a,b) ~ (b,a)."""
    gens = [(g, _basis_index_perm(basis, g)) for g in _generators(n)]
    orbit_id = {}
    representatives = []
    members = []
    for blk in range(1, n + 2):
        for a in range(q):
            for b in range(a, q):
                start = (blk, a, b)
                if start in orbit_id:
                    continue
                oid = len(representatives)
                queue = [start]
                orbit_id[start] = oid
                orbit = [start]
                while queue:
                    cblk, ca, cb = queue.pop()
                    nbrs = []
                    for g, bperm in gens:
                        nblk = g(cblk) if cblk <= n else cblk
                        na, nb = bperm[ca], bperm[cb]
                        nbrs.append((nblk, na, nb) if na <= nb else (nblk, nb, na))
                    for nbr in nbrs:
                        if nbr not in orbit_id:
                            orbit_id[nbr] = oid
                            orbit.append(nbr)
                            queue.append(nbr)
                representatives.append(min(orbit))
                members.append(sorted(orbit))
    return orbit_id, representatives, members


def _word_orbit_reps(words, n):
    """One word per orbit under relabeling and reversal, and the orbit index
    of every word in ``words``.  Reversal is merged in because the folded
    constraint rows of a word and its reversal are the same linear
    functional on symmetric Gram blocks."""
    gens = _generators(n)
    orbit_of = {}
    reps = []
    for w in words:
        if w in orbit_of:
            continue
        oid = len(reps)
        reps.append(w)
        queue = [w]
        orbit_of[w] = oid
        while queue:
            cur = queue.pop()
            for nxt in [tuple(g(l) for l in cur) for g in gens] + [cur[::-1]]:
                if nxt not in orbit_of:
                    orbit_of[nxt] = oid
                    queue.append(nxt)
    return reps, tuple(orbit_of[w] for w in words)


def symmetry_reduce(problem):
    """Equivalent SDP restricted to the S_n-invariant subspace.

    The matrix variable shrinks to blocks (lambda, Y_1, Y_{n+1}); blocks
    2..n are permutation-similar copies of Y_1 in any invariant solution.
    Word constraints are kept once per word orbit with coefficients
    aggregated onto orbit representatives; stabilizer ties within the two
    retained blocks become explicit equality constraints.  The optimal
    value is unchanged.
    """
    meta = problem.meta
    if meta.get("reduced"):
        raise ValueError("problem is already symmetry-reduced")
    for key in ("m", "n", "d"):
        if key not in meta:
            raise ValueError("symmetry_reduce needs a problem from assemble_sdp")
    n, d = meta["n"], meta["d"]
    basis = monomial_basis(n, d)
    q = basis.size
    words = words_up_to(n, 2 * d + 1)
    windex = {w: k for k, w in enumerate(words)}

    for sigma in _generators(n):
        _check_invariance(problem, words, basis, sigma)

    orbit_id, reps, members = _coordinate_orbits(n, q, basis)
    word_reps, word_orbit = _word_orbit_reps(words, n)
    orbits = SymmetryOrbits(orbit_id=orbit_id, representatives=tuple(reps),
                            word_orbit=word_orbit)

    # reduced blocks: 0 -> lambda, 1 -> Y_1, 2 -> Y_{n+1}
    def reduced_coord(blk, a, b):
        rblk = 1 if blk <= n else 2
        return (rblk, a, b) if a <= b else (rblk, b, a)

    constraints = []
    rhs = []
    for w in word_reps:
        k = windex[w]
        acc = {}
        lam = 0.0
        for (blk, a, b), v in problem.constraints[k].items():
            if blk == 0:
                lam += v
                continue
            # folded value v stands for both mirror entries: total full-
            # coordinate weight is v (diag) or 2v (off-diag), all landing
            # on the same orbit.
            oid = orbit_id[(blk, a, b)]
            acc[oid] = acc.get(oid, 0.0) + (v if a == b else 2.0 * v)
        entry = {}
        if lam:
            entry[(0, 0, 0)] = lam
        for oid, c in acc.items():
            rblk, ra, rb = reps[oid][0], reps[oid][1], reps[oid][2]
            key = reduced_coord(rblk, ra, rb)
            entry[key] = entry.get(key, 0.0) + (c if ra == rb else 0.5 * c)
        constraints.append({k2: v2 for k2, v2 in entry.items() if v2 != 0.0})
        rhs.append(problem.rhs[k])

    num_ties = 0
    for oid, orbit in enumerate(members):
        rep = reps[oid]
        in_rep_block = [c for c in orbit if c[0] == rep[0]]
        for coord in in_rep_block:
            if coord == rep:
                continue
            rkey = reduced_coord(*rep)
            ckey = reduced_coord(*coord)
            entry = {}
            entry[ckey] = 1.0 if ckey[1] == ckey[2] else 0.5
            entry[rkey] = entry.get(rkey, 0.0) - (1.0 if rkey[1] == rkey[2] else 0.5)
            constraints.append(entry)
            rhs.append(0.0)
            num_ties += 1

    red_meta = dict(meta)
    red_meta.update(reduced=True, free_variables=len(reps), tie_constraints=num_ties)
    reduced = SdpProblem((1, q, q), constraints, rhs, {(0, 0, 0): 1.0}, red_meta)
    return reduced, orbits
