"""Compiles the distinct-product inequality into Gram-matrix SDPs.

The target polynomial is lambda + sign * sum over distinct index tuples of
X_{j1}...X_{jm}.  With linear constraints l_i = X_i (i <= n) and
l_{n+1} = n - X_1 - ... - X_n, matching coefficients of

    lambda + sign*target  =  sum_i  sum_{a,b}  rev(beta_a) l_i beta_b * Y_i[a,b]

word by word yields one linear constraint per word of degree <= 2d+1, with
d = m // 2 and beta the monomial basis of degree <= d.
"""

from __future__ import annotations

from copy import copy
from dataclasses import dataclass
from itertools import combinations, permutations, product, zip_longest

import numpy as np

from .ncpoly import NCPolynomial, distinct_product_sum, word_at, word_count
from .sdp import SdpProblem


class InvarianceError(ValueError):
    """The problem data is not invariant under the symmetric-group action."""


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


def _check_target(m, n, sign):
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if not 1 <= m <= n:
        raise ValueError(f"need 1 <= m <= n, got m={m}, n={n}")


def _target_rhs(m, n, sign, count):
    """Right-hand side of the (m, n, sign) problem over the ``count`` words
    of ncpoly.words_up_to(n, k) for some k >= m: minus sign times each
    word's coefficient in the distinct-product sum.  A word's index there
    is the number whose bijective base-n digits (1..n, first most
    significant) are its letters, so that the word u v has index
    index(u) * n**len(v) + index(v)."""
    rhs = [-float(sign) * 0.0] * count
    for word, coeff in distinct_product_sum(m, n).terms.items():
        index = 0
        for letter in word:
            index = index * n + letter
        rhs[index] = -float(sign) * float(coeff)
    return rhs


def assemble_sdp(m, n, sign):
    """Standard-form SDP for the lambda problem (sign -1: lambda_1 problem,
    sign +1: lambda_2 problem), with d = m // 2.

    Row k is the word of index k (see _target_rhs), and its data matrix is
    [unit word] E_00 minus the coefficients of the word in the
    rev(beta_a) l_i beta_b, folded onto a <= b.  Basis index a is the
    index of beta_a, so rev(beta_a) i beta_b has index
    (rev(a) * n + i) * n**|beta_b| + b: block i has 1 there and block n+1
    has -1, and block n+1 has n on rev(beta_a) beta_b.
    """
    _check_target(m, n, sign)
    d = m // 2
    q = word_count(n, d)
    count = word_count(n, 2 * d + 1)
    rev = _word_perms(n, d, [])[-1]
    power = np.repeat(n ** np.arange(d + 1), n ** np.arange(d + 1))  # n**|beta_b|
    a, b = np.divmod(np.arange(q * q), q)
    half = np.where(a == b, 1.0, 0.5)
    letter = np.arange(1, n + 1)[:, None]
    with_letter = ((rev[a] * n + letter) * power[b] + b).ravel()
    # the lambda entry of the unit word, then letter blocks, then block n+1
    row = np.concatenate([[0], with_letter, with_letter, rev[a] * power[b] + b])
    blk = np.concatenate([[0], np.repeat(letter, q * q), np.full((n + 1) * q * q, n + 1)])
    i, j = (np.append(0, np.tile(x, 2 * n + 1)) for x in (np.minimum(a, b), np.maximum(a, b)))
    val = np.concatenate([[1.0], np.tile(-half, n), np.tile(half, n), -n * half])
    shape = (count, n + 2, q, q)
    # (a, b) and (b, a) fall on one key when the word is a palindrome
    key, slot = np.unique(np.ravel_multi_index((row, blk, i, j), shape), return_inverse=True)
    val = np.bincount(slot, weights=val)
    nonzero = val != 0.0
    row, blk, i, j = np.unravel_index(key[nonzero], shape)
    block_dims = (1,) + (q,) * (n + 1)
    meta = {"m": m, "n": n, "sign": sign, "d": d}
    # the objective, matrix 0, selects lambda: 1 at (0, 0) of block 0
    return SdpProblem.from_entries(block_dims, *(np.append(0, x) for x in (row + 1, blk, i, j)),
                                   np.append(1.0, val[nonzero]),
                                   _target_rhs(m, n, sign, count), meta)


# ---------------------------------------------------------------------------
# Symmetry reduction under the simultaneous S_n action
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SymmetryOrbits:
    """Orbits of Gram-entry coordinates (block i, row a, col b) under the
    simultaneous letter/block permutation action, folded by matrix symmetry.

    representatives[o] is the smallest coordinate of orbit o, with a <= b.
    word_orbit[k] is the word orbit of full constraint row k, which is also
    the index of that orbit's row in the reduced problem.  components[j] is
    (i, U) for reduced block j + 1: the full Gram block i (1 or n+1) that it
    comes from and the integer Young-symmetrizer basis U, one column per
    copy of its shape, so that the reduced block is B = U^T Y_i U.
    """

    representatives: tuple
    word_orbit: tuple
    components: tuple

    @property
    def num_free_variables(self):
        return len(self.representatives)

    def lift_dual(self, y_reduced):
        """Full-problem dual from a reduced one: each word row gets its
        orbit's multiplier divided by the orbit size.

        The lifted slack S is invariant.  For every invariant Y >= 0 it
        satisfies <S, Y> = <Z, B> >= 0, with Z the reduced slack and B the
        reduced blocks of Y, and averaging over the group extends this to
        every Y >= 0, so S is PSD whenever Z is.  b'y is unchanged.
        """
        orbit = np.asarray(self.word_orbit, dtype=np.intp)
        sizes = np.bincount(orbit)
        return np.asarray(y_reduced, dtype=float)[orbit] / sizes[orbit]


def _generator_images(n):
    """The generators of S_n, the transposition (1 2) and the n-cycle
    1 -> 2 -> ... -> n -> 1, as 0-based image arrays."""
    if n < 2:
        return []
    return [_image(n, (1, 2), (2, 1)), np.roll(np.arange(n), -1)]


def _word_perms(n, degree, sigmas):
    """Index permutations of ncpoly.words_up_to(n, degree): one per letter
    permutation in ``sigmas`` (0-based image arrays), then reversal.  A
    word of degree k sits at offset_k plus its base-n digits (letter - 1),
    first letter most significant."""
    perms = [[] for _ in range(len(sigmas) + 1)]
    offset = 0
    for k in range(degree + 1):
        place = n ** np.arange(k - 1, -1, -1)
        digits = np.arange(n ** k)[:, None] // place % n
        for perm, sigma in zip(perms, sigmas):
            perm.append(offset + sigma[digits] @ place)
        perms[-1].append(offset + digits[:, ::-1] @ place)
        offset += n ** k
    return [np.concatenate(perm) for perm in perms]


def _coordinate_perms(n, q, sigmas, bperms):
    """Index permutations of the flat (n+1, q, q) grid of Gram coordinates
    (block i, a, b) at (i-1)*q*q + a*q + b: one per generator, with letter
    block i going to sigma(i) and Y_{n+1} fixed, then the transpose."""
    blk, a, b = np.indices((n + 1, q, q))
    perms = []
    for sigma, bperm in zip(sigmas, bperms):
        image = np.append(sigma, n)[blk]
        perms.append(((image * q + bperm[a]) * q + bperm[b]).ravel())
    perms.append(((blk * q + b) * q + a).ravel())
    return perms


def _orbit_labels(perms, size):
    """Orbit index of each of 0..size-1 under the group generated by the
    index permutations ``perms``.  Orbits are numbered by their smallest
    member, which is also the order in which a scan of 0..size-1 first
    meets them.  Returns (labels, smallest member of each orbit)."""
    labels = np.arange(size)
    while True:
        new = labels
        for perm in perms:
            new = np.minimum(new, new[perm])
        new = new[new]
        if np.array_equal(new, labels):
            break
        labels = new
    reps, labels = np.unique(labels, return_inverse=True)
    return labels, reps


def _check_invariance(rhs, r, coord, v, wperms, cperms, tperm, n):
    """Verify that row k of the constraint data maps onto row wperm[k]
    under each generator, given as a word permutation and a Gram-coordinate
    permutation.  The entries are flat arrays of row r, folded coordinate
    ``coord`` (the lambda entry at len(tperm), which every generator
    fixes) and value v.  Keyed by (k, coordinate) and sorted, the two sides
    must have exactly equal keys, values (all multiples of 1/2) and
    right-hand sides; the error names the first word k that fails."""
    lam = len(tperm)
    fold = np.append(tperm, lam)
    for wperm, cperm in zip(wperms, cperms):
        image = np.append(cperm, lam)[coord]
        mapped = r * (lam + 1) + np.minimum(image, fold[image])
        target = np.argsort(wperm)[r] * (lam + 1) + coord
        i, j = np.argsort(mapped), np.argsort(target)
        bad = (mapped[i] != target[j]) | (v[i] != v[j])
        # rows before the first failing one line up in both sorted arrays
        _check_generator(rhs, wperm, n, np.minimum(mapped[i], target[j])[bad] // (lam + 1))


def _check_generator(rhs, wperm, n, data_faults=()):
    """Raise InvarianceError at the first word k that fails under one
    generator: k is in ``data_faults`` (its constraint row does not map
    onto row wperm[k]) or its right-hand side differs from wperm[k]'s."""
    rhs = np.asarray(rhs)
    bad = np.concatenate([np.asarray(data_faults, dtype=np.intp),
                          np.flatnonzero(rhs != rhs[wperm])])
    if len(bad):
        k = int(bad.min())
        what = "right-hand side" if rhs[k] != rhs[wperm[k]] else "constraint data"
        raise InvarianceError(f"{what} not invariant at word {word_at(n, k)}")


def _partitions(k, most):
    """Partitions of k into parts of at most ``most``, in decreasing
    lexicographic order."""
    if k == 0:
        yield ()
    for first in range(min(k, most), 0, -1):
        for rest in _partitions(k - first, first):
            yield (first,) + rest


def _image(n, src, dst):
    """0-based image array of the permutation of 1..n that maps the letters
    ``src`` to ``dst`` and fixes the others."""
    image = np.arange(n)
    image[np.array(src, dtype=int) - 1] = np.array(dst, dtype=int) - 1
    return image


def _independent_columns(mat):
    """Indices of the columns of the integer matrix ``mat`` that are not
    combinations of earlier ones.  Decided exactly by fraction-free
    elimination, which raises ArithmeticError before an entry reaches 2**31,
    so that no product overflows int64."""
    reduced, keep = [], []
    for k, v in enumerate(np.asarray(mat, dtype=np.int64).T):
        for pivot, row in reduced:
            if v[pivot]:
                v = v * row[pivot] - v[pivot] * row
                v //= max(1, int(np.gcd.reduce(v)))
                if np.abs(v).max() >= 1 << 31:
                    raise ArithmeticError("integer elimination outgrew int64")
        nonzero = np.flatnonzero(v)
        if len(nonzero):
            reduced.append((nonzero[0], v))
            keep.append(k)
    return keep


def _young_bases(n, d, letters):
    """Integer bases U_lambda of the images of the Young symmetrizers
    b_T a_T on the words of degree <= d, for the symmetric group on
    ``letters`` (1-based; the other letters are fixed).

    One basis per shape lambda with at most d boxes below the first row (no
    other shape occurs), in decreasing lexicographic order; T holds the
    letters row by row.  The images of the row group's orbit sums under
    b_T = sum_c sgn(c) c over the column group span the symmetrizer's
    image, and U_lambda keeps the first independent ones.  An invariant Y
    is PSD iff every U^T Y U is.
    """
    q = word_count(n, d)
    k = len(letters)
    bases = []
    for shape in (s for s in _partitions(k, k) if k - sum(s[:1]) <= d):
        rows = [letters[sum(shape[:i]):sum(shape[:i + 1])] for i in range(len(shape))]
        # a transposition and a cycle generate the symmetric group of a row
        gens = [_image(n, cyc, np.roll(cyc, -1)) for row in rows if len(row) > 1
                for cyc in (row[:2], row)]
        labels, _ = _orbit_labels(_word_perms(n, d, gens)[:-1], q)
        columns = [tuple(filter(None, col)) for col in zip_longest(*rows)]
        group = [_image(n, sum(columns, ()), sum(choice, ()))
                 for choice in product(*map(permutations, columns))]
        images = np.zeros((q, labels.max() + 1), dtype=np.int64)
        for image, perm in zip(group, _word_perms(n, d, group)):
            sign = (-1) ** sum(x > y for x, y in combinations(image, 2))
            images[np.arange(q), labels[perm]] += sign
        keep = _independent_columns(images)
        if keep:
            bases.append(images[:, keep])
    return bases


def symmetry_reduce(problem):
    """Equivalent SDP over the isotypic blocks of the S_n-invariant Gram
    matrices.

    In an invariant solution Y_2..Y_n are permutation-similar copies of
    Y_1, which is invariant under the stabilizer of letter 1, and Y_{n+1}
    is invariant under S_n.  Each of the two is sum_o y_o E_o over its
    coordinate-orbit matrices E_o.  Its reduced blocks are
    B_lambda = U_lambda^T Y U_lambda over the integer Young-symmetrizer
    bases U_lambda of its group (Gatermann-Parrilo), and Y is PSD iff every
    B_lambda is.  The map L from the orbit values y_o to the blocks'
    upper-triangle entries is square and nonsingular, and is checked to be
    so exactly.  One constraint row is kept per word orbit, in orbit order;
    its weights on the y_o become weights on the block entries through L.
    The optimal value is unchanged.
    """
    meta = problem.meta
    if meta.get("reduced"):
        raise ValueError("problem is already symmetry-reduced")
    for key in ("m", "n", "d"):
        if key not in meta:
            raise ValueError("symmetry_reduce needs a problem from assemble_sdp")
    n, d = meta["n"], meta["d"]
    q = word_count(n, d)
    sigmas = _generator_images(n)
    # generators then reversal, which is merged in because the folded rows
    # of a word and its reversal are the same linear functional on
    # symmetric Gram blocks; the basis is the prefix of the words
    wperms = _word_perms(n, 2 * d + 1, sigmas)
    # generators then transpose
    cperms = _coordinate_perms(n, q, sigmas, [perm[:q] for perm in wperms[:-1]])
    size = len(cperms[-1])

    e = problem.entries[problem.entries.matrix > 0]
    row, blk, a, b, val = e.matrix - 1, e.block, e.i, e.j, e.value
    coord = np.where(blk == 0, size, ((blk - 1) * q + a) * q + b)
    _check_invariance(problem.rhs, row, coord, val, wperms[:-1], cperms[:-1], cperms[-1], n)

    coord_orbit, reps = _orbit_labels(cperms, size)
    word_orbit, word_reps = _orbit_labels(wperms, word_count(n, 2 * d + 1))

    # weight[r, o]: total coefficient of word-orbit row r on coordinate
    # orbit o, both mirror entries counted, so that the row reads
    # sum_o weight[r, o] * y_o on an invariant Y with value y_o on orbit o
    on_rep = word_reps[word_orbit[row]] == row
    gram = on_rep & (blk > 0)
    weight = np.bincount(
        word_orbit[row[gram]] * len(reps) + coord_orbit[coord[gram]],
        weights=np.where(a[gram] == b[gram], val[gram], 2.0 * val[gram]),
        minlength=len(word_reps) * len(reps),
    ).reshape(len(word_reps), len(reps))
    scalar = on_rep & (blk == 0)
    lam = np.bincount(word_orbit[row[scalar]], weights=val[scalar], minlength=len(word_reps))

    components = []
    coefs = []
    grid = coord_orbit.reshape(n + 1, q, q)
    for block, letters in ((1, range(2, n + 1)), (n + 1, range(1, n + 1))):
        oids = np.flatnonzero(reps // (q * q) == block - 1)
        loc = np.searchsorted(oids, grid[block - 1])
        # lmap maps the orbit values y_o of an invariant Y to the entries beta
        # of its blocks U^T Y U: column o holds the upper triangles of U^T E_o U
        lmap = []
        for u in _young_bases(n, d, letters):
            eu = np.zeros((len(oids), q, u.shape[1]), dtype=np.int64)  # E_o U
            np.add.at(eu, (loc, np.arange(q)[:, None]), u)
            iu, ju = np.triu_indices(u.shape[1])
            lmap.extend(np.einsum("ai,oaj->oij", u, eu)[:, iu, ju].T)
            components.append((block, u))
        if len(lmap) != len(oids) or len(_independent_columns(lmap)) < len(oids):
            raise ArithmeticError("Young blocks do not span the invariant Gram block")
        # row r reads weight[r] . y = weight[r] . lmap^-1 beta
        coefs.append(np.linalg.solve(np.array(lmap, dtype=float).T, weight[:, oids].T).T)
    coef = np.concatenate(coefs, axis=1)

    # the block and upper-triangle entry of each column of coef
    tri = [np.triu_indices(u.shape[1]) for _, u in components]
    col_blk = np.repeat(np.arange(1, len(tri) + 1), [len(iu) for iu, _ in tri])
    col_i, col_j = (np.concatenate(x) for x in zip(*tri))
    # entries that the solve leaves at rounding level are zeros
    tiny = 1e-12 * max(1.0, float(np.abs(coef).max()))
    # an off-diagonal entry is stored once for both mirrors
    coef *= np.where(col_i == col_j, 1.0, 0.5)
    r, col = np.nonzero(np.abs(coef) > tiny)
    scalar = np.flatnonzero(lam)
    rhs = [problem.rhs[k] for k in word_reps]

    representatives = tuple((int(c) // (q * q) + 1, int(c) // q % q, int(c) % q) for c in reps)
    orbits = SymmetryOrbits(representatives=representatives,
                            word_orbit=tuple(word_orbit.tolist()), components=tuple(components))
    red_meta = dict(meta)
    red_meta.update(reduced=True, free_variables=len(reps))
    block_dims = (1,) + tuple(bas.shape[1] for _, bas in components)
    # lambda's coefficients, the block entries, then the objective
    zero = np.zeros_like(scalar)
    reduced = SdpProblem.from_entries(
        block_dims, np.concatenate([scalar + 1, r + 1, [0]]),
        *(np.concatenate([zero, x[col], [0]]) for x in (col_blk, col_i, col_j)),
        np.concatenate([lam[scalar], coef[r, col], [1.0]]), rhs, red_meta)
    return reduced, orbits


def retargeting(problem):
    """A function (m, sign) -> the (m, n, sign) problem with the same n and
    degree bound d as ``problem``, which comes from assemble_sdp or
    symmetry_reduce.

    The target polynomial enters only the right-hand side, so the
    constraint rows, objective and block dimensions are shared with
    ``problem``.  The right-hand side is computed over every word as in
    assemble_sdp and checked for S_n invariance; a reduced problem keeps
    the entry of each word-orbit representative, as symmetry_reduce does.
    The word permutations under S_n and the word-orbit representatives
    depend only on n and d, so they are computed once here for every
    target."""
    meta = problem.meta
    if "d" not in meta:
        raise ValueError("retarget needs a problem from assemble_sdp or symmetry_reduce")
    n, d = meta["n"], meta["d"]
    count = word_count(n, 2 * d + 1)
    wperms = _word_perms(n, 2 * d + 1, _generator_images(n))
    word_reps = _orbit_labels(wperms, count)[1] if meta.get("reduced") else None

    def to_target(m, sign):
        _check_target(m, n, sign)
        if m // 2 != d:
            raise ValueError(f"m={m} needs degree bound {m // 2}, the problem has d={d}")
        rhs = _target_rhs(m, n, sign, count)
        for wperm in wperms[:-1]:
            _check_generator(rhs, wperm, n)
        if word_reps is not None:
            rhs = [rhs[k] for k in word_reps]
        # the constraint data was checked when ``problem`` was built, and
        # the new right-hand side is finite and of the same length
        out = copy(problem)
        out.rhs, out.meta = rhs, {**meta, "m": m, "sign": sign}
        return out

    return to_target
