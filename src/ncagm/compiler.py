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
    the index of that orbit's row in the reduced problem.  components[j] is
    (i, basis) for reduced block j + 1: the full Gram block i (1 or n+1)
    that it comes from and the (q, m, d) array of orthonormal columns
    q_{s,t}.  The reduced block is B = sum_t basis[:, :, t]^T Y_i basis[:, :, t],
    and Y_i = sum_t basis[:, :, t] (B / d) basis[:, :, t]^T.
    """

    orbit_id: dict
    representatives: tuple
    word_orbit: tuple
    components: tuple

    @property
    def num_free_variables(self):
        return len(self.representatives)

    def lift_dual(self, y_reduced):
        """Full-problem dual from a reduced one: each word row gets its
        orbit's multiplier divided by the orbit size.

        In the isotypic basis the lifted slack of Y_{n+1} is (+) Z_i (x) I_d
        over the reduced slack blocks Z_i of its components, and that of
        each letter block is 1/n times the same form over its own, so the
        lifted slack is PSD whenever the reduced one is.  b'y is unchanged.
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


# seed of the generic elements that split the commutant; fixed so that the
# reduced problem, its SDPA export and its solution are reproducible
_GENERIC_SEED = 2004


def _orbit_matrices(members, oids, block, q):
    """Stack of the invariant symmetric 0/1 matrices E_o of one Gram block:
    for each orbit in ``oids``, its entries in that block, both mirrors."""
    e = np.zeros((len(oids), q, q))
    for k, oid in enumerate(oids):
        for blk, a, b in members[oid]:
            if blk == block:
                e[k, a, b] = e[k, b, a] = 1.0
    return e


def _eigh(sym):
    """Ascending eigenvalues and orthonormal eigenvectors of a symmetric
    matrix, from the SVD of the positive definite shift sym + c*I.  On a
    2-vCPU host with OpenBLAS 0.3.31 on two threads, numpy's eigh took
    15 ms on 31 x 31 (sizes 26 to about 60 are affected) and svd 0.4 ms."""
    c = 1.0 + float(np.abs(sym).sum(axis=1).max())
    u, s, _ = np.linalg.svd(sym + c * np.eye(len(sym)))
    return s[::-1] - c, u[:, ::-1]


def _isotypic_bases(e):
    """Orthonormal bases that split the matrix *-algebra generated by the
    symmetric matrices ``e`` into its isotypic components.

    One generic element A of the algebra has one eigenspace per (component,
    multiplicity index), all of that component's dimension d.  A second
    generic element B couples each eigenspace to those of its own component
    and to no others, and its compressions between them are nonzero
    multiples of isometries.  Taking the polar factor of each compression to
    a component's first eigenspace aligns the bases, so that every element
    X of the algebra satisfies  Q^T X Q = (+) X_i (x) I_{d_i}.  Returns one
    (q, m, d) array per component, largest multiplicity m first.
    """
    rng = np.random.default_rng(_GENERIC_SEED)
    a = np.tensordot(rng.standard_normal(len(e)), e, axes=1)
    b = np.tensordot(rng.standard_normal(len(e)), e, axes=1)
    w, v = _eigh(a)
    cuts = np.flatnonzero(np.diff(w) > 1e-8 * max(1.0, float(np.abs(w).max()))) + 1
    spaces = np.split(v, cuts, axis=1)
    tol = 1e-8 * max(1.0, float(np.abs(b).max()))
    bases = []
    while spaces:
        root, rest, aligned = spaces[0], [], []
        for space in spaces:
            coupling = space.T @ b @ root
            if np.abs(coupling).max() <= tol:
                rest.append(space)
                continue
            if space.shape != root.shape:
                raise ArithmeticError("coupled eigenspaces differ in dimension")
            u, _, vt = np.linalg.svd(coupling)
            aligned.append(space @ (u @ vt))
        bases.append(np.stack(aligned, axis=1))
        spaces = rest
    return sorted(bases, key=lambda basis: -basis.shape[1])


def _split_orbit_matrices(e, bases):
    """Per component, the m x m blocks F_o with Q^T E_o Q = (+) F_o (x) I_d.

    Raises ArithmeticError unless Q is orthonormal, every E_o maps to that
    form to 1e-9, and the components' sum of m(m+1)/2 equals the number of
    E_o, so that the blocks cover the whole invariant subspace."""
    q = e.shape[1]
    qmat = np.concatenate([basis.reshape(q, -1) for basis in bases], axis=1)
    if qmat.shape != (q, q) or np.abs(qmat.T @ qmat - np.eye(q)).max() > 1e-9:
        raise ArithmeticError("isotypic basis is not orthonormal")
    t = qmat.T @ e @ qmat
    blocks = []
    expected = np.zeros_like(t)
    pos = 0
    for basis in bases:
        _, m, d = basis.shape
        sl = slice(pos, pos + m * d)
        f = np.einsum("kstrt->ksr", t[:, sl, sl].reshape(-1, m, d, m, d)) / d
        expected[:, sl, sl] = np.kron(f, np.eye(d))
        blocks.append(f)
        pos += m * d
    if np.abs(t - expected).max() > 1e-9:
        raise ArithmeticError("orbit matrices are not block diagonal in the isotypic basis")
    if sum(basis.shape[1] * (basis.shape[1] + 1) // 2 for basis in bases) != len(e):
        raise ArithmeticError("isotypic blocks do not span the invariant subspace")
    return blocks


def symmetry_reduce(problem):
    """Equivalent SDP over the isotypic blocks of the S_n-invariant Gram
    matrices.

    In an invariant solution Y_2..Y_n are permutation-similar copies of
    Y_1, which is invariant under the stabilizer of letter 1, and Y_{n+1}
    is invariant under S_n.  Each of the two is a combination of its
    coordinate-orbit matrices E_o; an orthonormal change of basis brings it
    to (+) B_i (x) I_{d_i} (Gatermann-Parrilo; found numerically as in
    Murota-Kanno-Kojima-Kojima), and the reduced variables are lambda and
    the blocks d_i B_i.  One constraint row is kept per word orbit, in
    orbit order, with the row's weight on each coordinate orbit projected
    onto every block.  The optimal value is unchanged.
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

    # weight[r, o]: total coefficient of word-orbit row r on coordinate
    # orbit o, both mirror entries counted, so that the row reads
    # sum_o weight[r, o] * y_o on an invariant Y with value y_o on orbit o
    weight = np.zeros((len(word_reps), len(reps)))
    lam = np.zeros(len(word_reps))
    for r, w in enumerate(word_reps):
        for (blk, a, b), v in problem.constraints[windex[w]].items():
            if blk == 0:
                lam[r] += v
            else:
                weight[r, orbit_id[(blk, a, b)]] += v if a == b else 2.0 * v

    # reduced block j + 1 holds B = sum_t Q_t^T Y Q_t over the d aligned
    # copies Q_t of its component, so that <E_o, Y> = <F_o, B> with no
    # factor d; rows of d*F_o instead left the reduced optima up to ten
    # times less accurate
    components = []
    row_blocks = []
    for block in (1, n + 1):
        oids = [oid for oid, rep in enumerate(reps) if rep[0] == block]
        e = _orbit_matrices(members, oids, block, q)
        bases = _isotypic_bases(e)
        # on an invariant Y, y_o = <E_o, Y> / <E_o, E_o>
        per_orbit = weight[:, oids] / np.einsum("kab,kab->k", e, e)
        for bas, f in zip(bases, _split_orbit_matrices(e, bases)):
            components.append((block, bas))
            row_blocks.append(np.tensordot(per_orbit, f, axes=1))

    # entries that the projection leaves at rounding level are zeros
    tiny = 1e-12 * max(1.0, max(float(np.abs(c).max()) for c in row_blocks))
    constraints = [{(0, 0, 0): float(v)} if v else {} for v in lam]
    for j, c in enumerate(row_blocks, start=1):
        iu, ju = np.triu_indices(c.shape[1])
        vals = c[:, iu, ju]
        for r, t in zip(*np.nonzero(np.abs(vals) > tiny)):
            constraints[r][(j, int(iu[t]), int(ju[t]))] = float(vals[r, t])
    rhs = [problem.rhs[windex[w]] for w in word_reps]

    orbits = SymmetryOrbits(orbit_id=orbit_id, representatives=tuple(reps),
                            word_orbit=word_orbit, components=tuple(components))
    red_meta = dict(meta)
    red_meta.update(reduced=True, free_variables=len(reps))
    block_dims = (1,) + tuple(bas.shape[1] for _, bas in components)
    reduced = SdpProblem(block_dims, constraints, rhs, {(0, 0, 0): 1.0}, red_meta)
    return reduced, orbits
