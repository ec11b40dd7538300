"""Block-diagonal standard-form SDP model and an embedded interior-point solver.

The primal problem is

    minimize    tr(C0 Y)
    subject to  tr(Ci Y) = b_i,  i = 1..M
                Y = diag(Y_1, ..., Y_K) >= 0  (PSD)

with symmetric data matrices stored sparsely as upper-triangle entries
(block, row, col, value), row <= col, each value standing for both mirror
entries (the SDPA sparse convention).  A problem's data is ``entries``,
one read-only record array in the SDPA entry layout, validated and sorted
once when the problem is built; every reader (the solver, the symmetry
reduction, the PSD defect, the Farkas check and the SDPA writer) reads
that record.  ``SdpProblem.from_entries`` builds a problem from the
record's columns, and the constructor from one {(block, row, col): value}
dict per constraint row and one for the objective.  The ``constraints``
and ``objective`` properties rebuild such dicts from the record as views.

The solver is a primal-dual path-following method with a Mehrotra-style
predictor-corrector and the HKM search direction.  Each block keeps its
constraint data as one dense matrix in svec coordinates (the symmetric
vectorization with sqrt(2) off-diagonal weights, so that inner products are
preserved), restricted to the constraint rows that touch the block.  The
Schur complement is assembled block by block as A_k (Y_k (x) Z_k^-1) A_k^T,
with (x) the symmetric Kronecker product, on those rows only.  It is
factored by Cholesky once per iteration, and the factor is inverted once
so that every direction solve is two matrix-vector products.  Every
triangular factor, of a block or of the Schur complement, is inverted by
one routine: one LAPACK inverse up to 64 rows, in-place 2x2 blocking above.

Each problem's K blocks are held as one (K, D, D) stack, each block padded
with zeros to the largest block size D.  The padding stays exactly zero:
the Cholesky factors of [Y + P; Z + P], with P the identity on the
padding, are diag(L, I), and the padding adds only zero eigenvalues to the
step-length problems.  So each Cholesky factorization, inverse,
step-length eigenvalue problem and matrix product runs as one batched
numpy call per iteration, whatever the block sizes; the reduced problems
have many small blocks, where the fixed cost of a call outweighs its
arithmetic.

The same holds across problems.  ``solve_many`` takes problems that share
one entry record, such as the retargeted copies of one problem, which
differ only in the right-hand side, and runs them through the loop in
lockstep.  Every iterate, direction and factor has one leading problem
axis, (B, K, D, D), and every vector is (B, M); the objective C0 and the
padding P are one (K, D, D) stack that broadcasts over that axis.  The
constraint data and its row deduplication are built once for the batch.
Each problem's arithmetic is the arithmetic of its lone solve, bit for
bit: every batched call works on each problem by itself (LAPACK per
matrix, one BLAS dot or matrix-vector product per problem), and each
problem keeps its own stopping tests, best iterate, stall count, Schur
shift and refinement steps.  A problem that stops, or whose factorization
fails, leaves the batch.  ``solve`` is ``solve_many`` of one problem.
Batches are split so that their Schur complements stay within
_SCHUR_BYTES together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np


class SdpError(ValueError):
    pass


class SdpProblem:
    """Block dimensions, right-hand side, meta and ``entries``: the problem
    data as one read-only record array with fields matrix (0: the
    objective, k + 1: constraint row k), block, i and j (i <= j) and value,
    sorted by (matrix, block, i, j).  ``from_entries`` builds a problem from
    the record's five columns; the constructor takes one
    {(block, i, j): value} dict per constraint row and one for the
    objective, and flattens them into those columns, rows first."""

    def __init__(self, block_dims, constraints, rhs, objective, meta=None):
        if len(constraints) != len(rhs):
            raise SdpError("constraint/right-hand-side length mismatch")
        data = [*constraints, objective]
        counts = np.fromiter(map(len, data), dtype=np.intp, count=len(data))
        keys = np.fromiter(chain.from_iterable(chain.from_iterable(data)), dtype=np.intp)
        if len(keys) != 3 * counts.sum():
            raise SdpError("entry keys must be (block, i, j) triples")
        values = np.fromiter(chain.from_iterable(e.values() for e in data), dtype=float,
                             count=counts.sum())
        matrix = np.repeat((np.arange(len(data)) + 1) % len(data), counts)
        self._set(block_dims, matrix, *keys.reshape(-1, 3).T, values, rhs, meta)

    @classmethod
    def from_entries(cls, block_dims, matrix, block, i, j, value, rhs, meta=None):
        """The problem whose data matrix ``matrix[t]`` holds ``value[t]`` at
        (i[t], j[t]) and its mirror in block ``block[t]``, for each t, with
        right-hand side ``rhs``.  Raises SdpError on an index out of range,
        a non-finite value or a repeated (matrix, block, i, j)."""
        problem = cls.__new__(cls)
        problem._set(block_dims, matrix, block, i, j, value, rhs, meta)
        return problem

    def _set(self, block_dims, matrix, blk, i, j, values, rhs, meta):
        self.block_dims = tuple(int(d) for d in block_dims)
        self.rhs = rhs
        self.meta = {} if meta is None else meta
        if not self.block_dims:
            raise SdpError("a problem needs at least one block")
        if any(d < 1 for d in self.block_dims):
            raise SdpError("block dimensions must be positive")
        if not np.isfinite(np.asarray(rhs, dtype=float)).all():
            raise SdpError("right-hand side values must be finite")
        matrix, blk, i, j = (np.asarray(x, dtype=np.intp) for x in (matrix, blk, i, j))
        values = np.asarray(values, dtype=float)
        if not len(matrix) == len(blk) == len(i) == len(j) == len(values):
            raise SdpError("entry arrays must have equal lengths")
        dims = np.array(self.block_dims)
        bad_block = (blk < 0) | (blk >= len(dims))
        dim = dims[np.where(bad_block, 0, blk)]
        bad = np.flatnonzero((matrix < 0) | (matrix > len(rhs)) | bad_block | (i < 0) | (i > j)
                             | (j >= dim))
        if len(bad):
            t = bad[0]  # the first in array order
            if not 0 <= matrix[t] <= len(rhs):
                raise SdpError(f"matrix index {matrix[t]} out of range")
            if bad_block[t]:
                raise SdpError(f"block index {blk[t]} out of range")
            raise SdpError(f"entry ({i[t]},{j[t]}) out of range for block of dim {dim[t]}")
        del bad_block, dim
        if not np.isfinite(values).all():
            raise SdpError("constraint and objective values must be finite")
        # one int64 key sorts more than ten times faster than np.lexsort,
        # and overflows only on problems far larger than the solver's
        # padded (K, D, D) stack
        span = max(self.block_dims)
        if (len(rhs) + 1) * len(dims) * span * span >= 2 ** 63:
            raise SdpError("problem too large to index its entries in int64")
        key = matrix * len(dims) + blk
        key *= span
        key += i
        key *= span
        key += j
        order = np.argsort(key, kind="stable")
        key = key[order]
        repeat = np.flatnonzero(key[1:] == key[:-1])
        del key
        if len(repeat):
            t = order[repeat[0]]  # the first in (matrix, block, i, j) order
            raise SdpError(f"entry ({i[t]},{j[t]}) of block {blk[t]} repeated in matrix "
                           f"{matrix[t]}")
        # field by field, so that one reordered copy exists at a time: the
        # record of the unreduced n = 5 problems sets the table's peak memory
        self.entries = np.recarray(len(order), formats=[np.intp] * 4 + [float],
                                   names="matrix,block,i,j,value")
        for name, x in zip(self.entries.dtype.names, (matrix, blk, i, j, values)):
            self.entries[name] = x[order]
        self.entries.flags.writeable = False

    def _dicts(self, lo, hi):
        """Data matrices lo..hi-1 as {(block, i, j): value} dicts."""
        cut = np.searchsorted(self.entries.matrix, [lo, hi])
        out = [{} for _ in range(lo, hi)]
        for k, blk, i, j, v in self.entries[cut[0]:cut[1]].tolist():
            out[k - lo][blk, i, j] = v
        return out

    @property
    def constraints(self):
        """One {(block, i, j): value} dict per constraint row, rebuilt from
        ``entries`` on each access."""
        return self._dicts(1, len(self.rhs) + 1)

    @property
    def objective(self):
        """The objective as a {(block, i, j): value} dict, rebuilt from
        ``entries`` on each access."""
        return self._dicts(0, 1)[0]

    @property
    def num_constraints(self):
        return len(self.rhs)

    @property
    def num_blocks(self):
        return len(self.block_dims)

    @property
    def total_dim(self):
        return sum(self.block_dims)

    @property
    def scalar_variable_count(self):
        """Number of scalar unknowns across all blocks (sum of squared dims)."""
        return sum(d * d for d in self.block_dims)

    def dense_matrix(self, matrix):
        """Data matrix number ``matrix`` (0: the objective, k + 1:
        constraint row k) as dense per-block arrays."""
        lo, hi = np.searchsorted(self.entries.matrix, [matrix, matrix + 1])
        return self._dense(slice(lo, hi), 1.0)

    def _dense(self, at, coef):
        """Dense per-block arrays of the sum of coef * value at (i, j) and
        its mirror over the entries ``entries[at]``, added by one bincount
        in record order from +0.0, so that a zero coef changes no bit.
        ``certify.farkas_check`` scatters its slack on its own, so that it
        shares no code with the defect it re-checks."""
        e = self.entries[at]
        weight = coef * e.value
        dims = np.array(self.block_dims)
        start = np.concatenate([[0], np.cumsum(dims * dims)])
        base, dim = start[e.block], dims[e.block]
        off = e.i != e.j
        cells = np.concatenate([base + e.i * dim + e.j, (base + e.j * dim + e.i)[off]])
        flat = np.bincount(cells, np.concatenate([weight, weight[off]]), minlength=start[-1])
        return [flat[lo:hi].reshape(d, d) for lo, hi, d in zip(start, start[1:], dims)]


@dataclass
class SolverOptions:
    tolerance: float = 1e-8
    max_iterations: int = 200
    verbose: bool = False


@dataclass(eq=False)
class Solution:
    primal_blocks: list
    dual: np.ndarray
    objective_primal: float
    objective_dual: float
    gap: float
    status: str
    iterations: int
    # (name, detail) per fallback that fired: ("schur_shift", largest shift
    # relative to the trace scale), ("best_iterate", whether it upgraded
    # the status to "optimal")
    fallbacks: tuple = ()


def _dedup_rows(problem):
    """Collapse byte-identical constraint rows (word-indexed rows repeat for
    a word and its reversal) and drop empty rows, which read 0 = rhs.
    Returns (kept indices, source), where source[k] is the kept row that row
    k repeats (k itself when it is kept) and -1 for an empty row."""
    e = problem.entries
    # a row's key is the bytes of its slice of the record; adding 0.0 turns
    # -0.0 into 0.0, so that equal keys mean equal values
    flat = np.column_stack([e.block, e.i, e.j, (e.value + 0.0).view(np.int64)])
    data, width = flat.tobytes(), flat.strides[0]
    cuts = np.searchsorted(e.matrix, np.arange(1, problem.num_constraints + 2)).tolist()
    seen = {}
    keep = []
    source = np.full(problem.num_constraints, -1)
    for k, (lo, hi) in enumerate(zip(cuts, cuts[1:])):
        if lo == hi:
            continue
        source[k] = seen.setdefault(data[lo * width:hi * width], k)
        if source[k] == k:
            keep.append(k)
    return keep, source


def _contradictions(rhs, source):
    """Per row of ``rhs`` (one problem each), whether a dropped row
    contradicts it: an empty row with a nonzero rhs, or a repeated row whose
    rhs differs from that of the row it repeats."""
    return np.where(source < 0, rhs != 0, rhs != rhs[:, source]).any(axis=1)


def _kron_grids(iu, ju, stride):
    """Flat positions, in a matrix of row stride ``stride``, of the index
    pairs that the symmetric Kronecker product of two blocks reads in svec
    coordinates (iu, ju), e.g. ij[p, q] = iu[p] * stride + ju[q]: (ij, ii,
    jj) in Y and (ji, jj, ii) in Z^-1, the terms paired in that order; then
    the products of the svec half-weights."""
    half = np.where(iu == ju, 0.5, 0.5 * np.sqrt(2.0))
    at_y = np.array([iu, iu, ju])[:, :, None] * stride + np.array([ju, iu, ju])[:, None, :]
    at_z = np.array([ju, ju, iu])[:, :, None] * stride + np.array([iu, ju, iu])[:, None, :]
    return at_y, at_z, np.multiply.outer(half, half)


class _SvecConstraints:
    """The constraint operator A(X) = (tr(C_i X))_i over the kept rows.

    Block matrices travel as one (K, D, D) stack per problem: block k sits
    in the leading d_k x d_k corner of slice k, and the rest of the slice,
    its padding, is zero.  ``pad`` is the identity on each slice's padding.
    B problems travel as a (B, K, D, D) array and their vectors as a (B, M)
    array: ``a_of`` maps the one to the other and ``at_of`` back, each
    problem on its own.
    svec(X) = scale * X[iu, ju] over the upper triangle of a D x D slice,
    so that svec(X) . svec(W) = <X, W> for symmetric X and W; the svec of
    block k is its part with ju < d_k, which lists the upper triangle of a
    d_k x d_k block row by row.  Block k keeps ``a[k]``, the svec of C_i on
    the block for the constraint rows ``rows[k]`` that touch it; all other
    rows are zero on it and are left out.  A block's products with its
    ``a`` and its Kronecker product run at its own size, so they do not
    depend on the padding.
    """

    def __init__(self, problem, keep):
        # each matrix's position in ``keep``: -1 for the objective and for
        # rows left out
        pos = np.full(problem.num_constraints + 1, -1)
        pos[np.asarray(keep, dtype=np.intp) + 1] = np.arange(len(keep))
        e = problem.entries[pos[problem.entries.matrix] >= 0]
        r, blks, i, j, v = pos[e.matrix], e.block, e.i, e.j, e.value
        self.dims = problem.block_dims
        d = self.dim = max(self.dims)
        self.m = len(keep)
        dims = np.array(self.dims)
        sizes = dims * (dims + 1) // 2
        self.pad = np.zeros((len(dims), d, d))
        self.pad[:, range(d), range(d)] = np.arange(d) >= dims[:, None]
        # the rows touching each block, block after block, and the place of
        # each entry's row among them
        touched, at_row = np.unique(blks * self.m + r, return_inverse=True)
        cuts = np.searchsorted(touched, np.arange(len(dims) + 1) * self.m)
        self._rows = touched - np.repeat(np.arange(len(dims)) * self.m, np.diff(cuts))
        self.rows = np.split(self._rows, cuts[1:-1])
        self._row_cuts = cuts.tolist()
        # each entry's svec coordinate in its block, and its flat position
        # in the blocks' ``a`` laid end to end
        col = i * dims[blks] - i * (i - 1) // 2 + (j - i)
        starts = np.cumsum(np.concatenate([[0], np.diff(cuts) * sizes]))
        flat = np.zeros(starts[-1])
        flat[starts[blks] + (at_row - cuts[blks]) * sizes[blks] + col] = np.where(
            i == j, v, np.sqrt(2.0) * v)
        # each block's own array, as BLAS reads it
        self.a = [flat[lo:hi].reshape(-1, size).copy()
                  for lo, hi, size in zip(starts, starts[1:], sizes.tolist())]
        # the svec coordinates of every block, block after block, as their
        # flat positions in a (K * D * D) stack, upper and mirrored, and the
        # weights that make svec(X) . svec(W) = <X, W>
        iu, ju = np.triu_indices(d)
        blk, c = np.nonzero(ju < dims[:, None])
        self._svec_at = (blk * d + iu[c]) * d + ju[c]
        self._mirror_at = (blk * d + ju[c]) * d + iu[c]
        self._scale = np.where(iu[c] == ju[c], 1.0, np.sqrt(2.0))
        self._svec_cuts = np.cumsum(np.concatenate([[0], sizes])).tolist()
        self._kron = {dim: _kron_grids(iu[ju < dim], ju[ju < dim], d) for dim in set(self.dims)}
        self._works = {}
        # index grids of each block's rows in the Schur complement; a flat
        # index array would hold sum(len(rows)^2) integers for the solve
        self._schur_ix = [(slice(None), rows[:, None], rows) for rows in self.rows]

    def stack(self, blocks):
        """Per-block matrices as one padded (K, D, D) stack."""
        out = np.zeros_like(self.pad)
        for x, blk in zip(out, blocks):
            x[:len(blk), :len(blk)] = blk
        return out

    def unstack(self, mats):
        """The blocks of a padded stack, in block order."""
        return [x[:d, :d].copy() for x, d in zip(mats, self.dims)]

    def _work(self, count):
        """Work arrays of ``count`` problems for ``a_of`` and ``at_of``, with
        the views of them that each block reads and writes, made once per
        count: svec coordinates and products by ``a``, then y on each
        block's rows and products by ``a`` transposed."""
        if count not in self._works:
            vecs, parts = np.empty((count, len(self._scale))), np.empty((count, len(self._rows)))
            coefs, half = np.empty((count, len(self._rows))), np.empty((count, len(self._scale)))
            cuts = list(zip(self._svec_cuts, self._svec_cuts[1:], self._row_cuts,
                            self._row_cuts[1:]))
            self._works[count] = (
                vecs, parts, [(a, vecs[:, lo:hi, None], parts[:, r_lo:r_hi, None])
                              for a, (lo, hi, r_lo, r_hi) in zip(self.a, cuts)],
                # each block's rows, offset by m per problem
                (self._rows + self.m * np.arange(count)[:, None]).ravel(),
                coefs, half, [(a, coefs[:, None, r_lo:r_hi], half[:, None, lo:hi])
                              for a, (lo, hi, r_lo, r_hi) in zip(self.a, cuts)])
        return self._works[count]

    def a_of(self, mats):
        """A(X) of each stack in the (B, K, D, D) array ``mats``: a (B, M)
        array."""
        flat = mats.reshape(len(mats), -1)
        vecs, parts, blocks, bins = self._work(len(flat))[:4]
        # the positions are in range; "clip" spares the copy that the
        # default mode makes of ``out``
        np.take(flat, self._svec_at, axis=1, out=vecs, mode="clip")
        vecs *= self._scale
        for a, vec, part in blocks:
            np.matmul(a, vec, out=part)
        # each row's terms are summed in block order, as for one problem
        return np.bincount(bins, weights=parts.ravel(),
                           minlength=len(flat) * self.m).reshape(len(flat), self.m)

    def at_of(self, y):
        """A^T(y) of each row of the (B, M) array ``y``: a (B, K, D, D)
        array."""
        coefs, half, blocks = self._work(len(y))[4:]
        np.take(y, self._rows, axis=1, out=coefs, mode="clip")
        for a, coef, part in blocks:
            np.matmul(coef, a, out=part)
        values = half / self._scale
        out = np.zeros((len(y), self.pad.size))
        out[:, self._svec_at] = values
        out[:, self._mirror_at] = values
        return out.reshape((len(y),) + self.pad.shape)

    def max_row_norm(self):
        """Largest Frobenius norm of one constraint matrix on one block."""
        return max(float(np.linalg.norm(a, axis=1).max(initial=0.0)) for a in self.a)

    def schur_parts(self, ys, z_invs):
        """Per block k, rows ``rows[k]`` of each problem's Schur complement,
        S_ij = tr(C_i Y C_j Z^-1), as A (Y (x) Z^-1) A^T with the symmetric
        Kronecker product in svec coordinates, built one block at a time."""
        # (K, B, D * D), so that each block's slices are contiguous
        flat_ys, flat_zs = (np.ascontiguousarray(x.reshape(*x.shape[:2], -1).swapaxes(0, 1))
                            for x in (ys, z_invs))
        for a, dim, y, z in zip(self.a, self.dims, flat_ys, flat_zs):
            at_y, at_z, half_outer = self._kron[dim]
            # Y_ij Z_ji, Y_ii Z_jj and Y_jj Z_ii; the products and the
            # symmetrization run in place, which holds one fewer matrix of
            # each size on the unreduced problems
            terms = y.take(at_y, axis=1)
            terms *= z.take(at_z, axis=1)
            kron = terms[:, 1] + terms[:, 2] + terms[:, 0] + _t(terms[:, 0])
            del terms
            kron *= half_outer
            part = (a @ kron) @ a.T
            del kron
            part += _t(part)
            part *= 0.5
            yield part

    def schur(self, ys, z_invs):
        """Each problem's S_ij = tr(C_i Y C_j Z^-1), each block adding onto
        the rows it touches: a (B, M, M) array."""
        s = np.zeros((len(ys), self.m, self.m))
        for ix, part in zip(self._schur_ix, self.schur_parts(ys, z_invs)):
            s[ix] += part
        return s


_TRI_LEAF = 64


def _tril_inverse(lower):
    """Overwrites each nonsingular lower-triangular matrix of a (..., n, n)
    stack with its inverse, and returns the stack.  Up to _TRI_LEAF rows
    that is one LAPACK inverse.  Above, recursive 2x2 blocking puts nearly
    all the work in matrix products and overwrites each lower left block
    once both diagonal blocks are inverted, so that no second matrix of the
    size of the Schur complement is held."""
    n = lower.shape[-1]
    if n <= _TRI_LEAF:
        # LU pivots on some factors and leaves rounding noise above the
        # diagonal
        lower[...] = np.tril(np.linalg.inv(lower))
        return lower
    mid = n // 2
    inv11 = _tril_inverse(lower[..., :mid, :mid])
    inv22 = _tril_inverse(lower[..., mid:, mid:])
    lower[..., mid:, :mid] = -inv22 @ (lower[..., mid:, :mid] @ inv11)
    return lower


def _t(mats):
    """Transpose of each matrix in a stack (or of one matrix)."""
    return mats.swapaxes(-1, -2)


def _sym(mats):
    return 0.5 * (mats + _t(mats))


def _dots(xs, ws):
    """For each problem p, the inner product of xs[p] with ws[p], or with
    all of ws when ws lacks the problem axis, as a list of floats: one
    np.vdot each, as for a single problem."""
    if ws.ndim < xs.ndim:
        return [float(np.vdot(ws, x)) for x in xs]
    return [float(np.vdot(x, w)) for x, w in zip(xs, ws)]


def _scaled(values, stacks):
    """Each problem's (K, D, D) stack times its entry of the (B,) array
    ``values``."""
    return values[:, None, None, None] * stacks


def _add_to_diagonal(mat, value):
    """mat + value * I, without building the identity."""
    out = mat.copy()
    out.flat[::mat.shape[0] + 1] += value
    return out


# fraction of the largest feasible step taken, keeping iterates interior
_STEP_SCALE = 0.98


def _max_steps(deltas, chol_invs):
    """For each of B problems, the largest alpha_p and alpha_d keeping
    Y + alpha_p dY and Z + alpha_d dZ PSD, per Cholesky scaling: a (2, B)
    array.  ``deltas`` stacks [dY; dZ] and ``chol_invs`` the inverse
    factors [L(Y)^-1; L(Z)^-1] of the same blocks, each a (2B, K, D, D)
    array.  Padding, zero in every delta, gives zero eigenvalues, which set
    no bound."""
    w = chol_invs @ deltas @ _t(chol_invs)
    lam = np.linalg.eigvalsh(_sym(w)).min(axis=-1).reshape(2, len(w) // 2, -1)
    bound = lam < -1e-14
    return np.where(bound, -1.0 / np.where(bound, lam, -1.0), np.inf).min(axis=-1)


def _shifted_cholesky(s):
    """Cholesky factor of one Schur complement, with the smallest diagonal
    shift in the escalating sequence 0, 1e-14, 1e-12, ... (relative to the
    trace scale) that lets it factor, and that relative shift.  The Schur
    complement of PD iterates is PSD, so a shift of 100 times its mean
    diagonal factors any finite one; when even that fails, the
    LinAlgError propagates."""
    scale = max(float(np.trace(s)) / max(s.shape[0], 1), 1e-300)
    shift = 0.0
    while True:
        try:
            return np.linalg.cholesky(_add_to_diagonal(s, shift) if shift else s), shift / scale
        except np.linalg.LinAlgError:
            shift = 1e-14 * scale if shift == 0.0 else 100.0 * shift
            if shift > 1e2 * scale:
                raise


class _SchurFactor:
    """Cholesky factorization of a (B, M, M) stack of Schur complements.
    When plain Cholesky fails near the optimum, a small diagonal shift is
    added to that problem's complement (escalating until the factorization
    succeeds); iterative refinement against the unshifted matrix then
    recovers the accuracy lost to the shift.  The factors are inverted once,
    so each solve is two matrix-vector products.

    ``shift`` holds each problem's shift relative to its trace scale (0.0
    for none)."""

    def __init__(self, s):
        self.s = s
        try:
            chol = np.linalg.cholesky(s)
            self.shift = [0.0] * len(s)
        except np.linalg.LinAlgError:
            # escalate on each problem by itself
            chol, self.shift = map(list, zip(*map(_shifted_cholesky, s)))
            chol = np.stack(chol)
        self.chol_inv = _tril_inverse(chol)

    def solve(self, rhs):
        """S^-1 rhs for each row of the (B, M) array ``rhs``."""
        # refinement keeps the computed direction accurate once the Schur
        # complement turns ill-conditioned near the optimum, which would
        # otherwise erode primal feasibility; a problem stops refining when
        # its residual stalls (a nan residual counts as improving), and the
        # others refine on
        s, chol_inv, chol_inv_t = self.s, self.chol_inv, _t(self.chol_inv)
        rhs = rhs[..., None]
        x = chol_inv_t @ (chol_inv @ rhs)
        r = rhs - s @ x
        best, best_res = x, np.sqrt(_dots(r, r))
        on = np.ones(len(x), dtype=bool)  # the problems still refining
        for _ in range(4):
            x = x + chol_inv_t @ (chol_inv @ r)
            r = rhs - s @ x
            res = np.sqrt(_dots(r, r))
            on &= ~(res >= best_res)
            if not on.any():
                break
            best = np.where(on[:, None, None], x, best)
            best_res = np.where(on, res, best_res)
        return best[..., 0]


def _factorize(cons, ys, zs):
    """For the (B, K, D, D) iterates Y and Z of B problems: the inverse
    Cholesky factors [L(Y)^-1; L(Z)^-1], Z^-1 and the Schur factorization
    of each problem; raises LinAlgError when any problem's fails."""
    # the padded factors are diag(L, I), exactly
    chols = np.linalg.cholesky(np.concatenate([ys, zs]) + cons.pad)
    # a copy: the Z^-1 solve below reads the factors
    chol_invs = _tril_inverse(chols.copy())
    # Z^-1 by a second solve: the product L^-T L^-1 rounds differently and
    # sends the near-degenerate (4,4,+1) solve to its best iterate
    z_invs = _sym(np.linalg.solve(_t(chols[len(ys):]), chol_invs[len(ys):])) - cons.pad
    return chol_invs, z_invs, _SchurFactor(cons.schur(ys, z_invs))


def _factorizes(cons, ys, zs):
    """Whether the iterates factor, as _factorize does it."""
    try:
        _factorize(cons, ys, zs)
    except np.linalg.LinAlgError:
        return False
    return True


class _Run:
    """One problem's course through the lockstep loop: its stopping tests,
    best iterate, stall count, Schur shifts and the iterate it stops at."""

    def __init__(self):
        self.status = "max_iterations"
        self.iterations = 0
        self.best = None  # (merit, ys, y, pobj, dobj, gap)
        self.best_it = 0
        self.stall = 0
        self.max_shift = 0.0
        self.last = None  # (ys, y, pobj, dobj, gap)

    def goes_on(self, it, ys, y, pobj, dobj, gap, pres, dres, opts):
        """Record iteration ``it`` and apply the stopping tests; False when
        the problem stops here."""
        self.iterations = it
        # ys and y are rebound each step, never changed in place
        self.last = (ys, y, pobj, dobj, gap)
        rel_gap = gap / (1.0 + abs(pobj) + abs(dobj))
        if opts.verbose:
            print(f"  iter {it:3d}  pobj {pobj:+.8e}  dobj {dobj:+.8e} "
                  f"gap {rel_gap:.2e}  pres {pres:.2e}  dres {dres:.2e}")
        # on a dual feasible iterate pobj - dobj = <Y, Z> + y'(A(Y) - b), so
        # a primal residual near the tolerance can still leave the
        # objectives apart when y is large; an optimal or best iterate must
        # have both close
        obj_gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        merit = max(abs(rel_gap), pres, dres, obj_gap)
        if np.isfinite(merit) and (self.best is None or merit < self.best[0]):
            self.best = (merit, ys, y, pobj, dobj, gap)
            self.best_it = it
            self.stall = 0
        else:
            self.stall += 1
        # the starting iterate is never reported as optimal, however loose
        # the tolerance: at least one step must have been taken
        if it and merit <= opts.tolerance:
            self.status = "optimal"
        elif self.stall >= 6:
            # residuals stopped improving; the best iterate seen is as good
            # as this run will get
            self.status = "numerical_failure"
        elif not np.isfinite(pobj) or not np.isfinite(dobj) or not np.isfinite(gap):
            self.status = "numerical_failure"
        elif dobj > 1e12 and dres <= 1e-6:
            self.status = "infeasible"  # dual unbounded above
        elif pobj < -1e12 and pres <= 1e-6:
            self.status = "unbounded"
        else:
            return True
        return False

    def solution(self, cons, keep, num_constraints, opts):
        ys, y, pobj, dobj, gap = self.last
        fallbacks = []
        if self.max_shift:
            fallbacks.append(("schur_shift", self.max_shift))
        if self.status in ("numerical_failure", "max_iterations") and self.best is not None:
            # fall back to the most accurate iterate seen; accept it as
            # optimal when it sits within a small factor of the requested
            # tolerance and is not the starting iterate
            merit, ys, y, pobj, dobj, gap = self.best
            if self.best_it and merit <= 100.0 * opts.tolerance:
                self.status = "optimal"
            fallbacks.append(("best_iterate", self.status == "optimal"))
        dual_full = np.zeros(num_constraints)
        dual_full[keep] = y
        rel_gap = gap / (1.0 + abs(pobj) + abs(dobj)) if np.isfinite(gap) else np.nan
        return Solution(cons.unstack(ys), dual_full, pobj, dobj, rel_gap, self.status,
                        self.iterations + 1, tuple(fallbacks))


# bytes of Schur complements that one lockstep batch may hold: the
# unreduced n = 5 problems (2046 rows, 33 MB each) run one at a time
_SCHUR_BYTES = 1 << 24


def solve(problem, options=None):
    """Solve a standard-form block SDP; never raises on numerical trouble,
    reporting it in Solution.status instead."""
    return solve_many([problem], options)[0]


def solve_many(problems, options=None):
    """Solve problems that share one entry record, such as the retargeted
    copies of one problem, which differ only in the right-hand side.  They
    run through the interior-point loop in lockstep, each problem on its own
    slice of every array, and each gets the Solution that ``solve`` gives it
    alone, bit for bit.  A problem leaves the batch when it stops."""
    opts = options or SolverOptions()
    if opts.max_iterations < 1:
        raise ValueError(f"max_iterations must be at least 1, got {opts.max_iterations}")
    # a nan or nonpositive tolerance never meets the stopping test
    if not 0 < opts.tolerance < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {opts.tolerance}")
    problems = list(problems)
    if not problems:
        return []
    first = problems[0]
    if any(p.entries is not first.entries or p.block_dims != first.block_dims
           or len(p.rhs) != len(first.rhs) for p in problems):
        raise ValueError("solve_many needs problems that share one entry record")

    keep, source = _dedup_rows(first)
    rhs = np.array([p.rhs for p in problems], dtype=float).reshape(len(problems), -1)
    contradiction = _contradictions(rhs, source)
    out = [Solution([np.zeros((d, d)) for d in first.block_dims],
                    np.zeros(first.num_constraints), np.nan, np.nan, np.nan, "infeasible", 0)
           if bad else None for bad in contradiction.tolist()]
    live = np.flatnonzero(~contradiction)
    if not len(live):
        return out
    cons = _SvecConstraints(first, keep)
    c0 = cons.stack(first.dense_matrix(0))
    norm_c = cons.max_row_norm()
    width = max(1, _SCHUR_BYTES // (8 * max(cons.m, 1) ** 2))
    for lo in range(0, len(live), width):
        chunk = live[lo:lo + width]
        runs = _lockstep(cons, c0, norm_c, rhs[chunk][:, keep], opts)
        for k, run in zip(chunk.tolist(), runs):
            out[k] = run.solution(cons, keep, first.num_constraints, opts)
    return out


def _lockstep(cons, c0, norm_c, b, opts):
    """The interior-point loop on the problems whose kept right-hand sides
    are the rows of ``b``; returns one finished _Run per problem."""
    nu = sum(cons.dims)
    runs = [_Run() for _ in b]
    live = runs  # the run of each problem still in the batch
    norm_b = np.sqrt(_dots(b, b))
    norm_c0 = max(norm_c, float(np.linalg.norm(c0)))
    alpha0 = 1.0 + np.abs(b).max(axis=1, initial=0.0) + norm_c0
    ys = _scaled(alpha0, np.eye(cons.dim) - cons.pad)
    zs = ys.copy()
    y = np.zeros(b.shape)

    def keep_only(going):
        nonlocal live, b, norm_b, ys, zs, y, rd, gap
        live = [live[p] for p in going]
        b, norm_b, ys, zs, y, rd, gap = (x[going] for x in (b, norm_b, ys, zs, y, rd, gap))

    for it in range(opts.max_iterations):
        pobj = _dots(ys, c0)
        dobj = _dots(b, y)
        rp = b - cons.a_of(ys)
        rd = c0 - cons.at_of(y) - zs
        gap = np.array(_dots(ys, zs))
        # the scalars of each problem's tests are Python floats, as for one
        # problem, so that an inf or a nan in one of them warns of nothing
        going = [p for p, (run, po, do, g, rp2, rd2, nb) in enumerate(zip(
                     live, pobj, dobj, gap.tolist(), _dots(rp, rp), _dots(rd, rd),
                     norm_b.tolist()))
                 if run.goes_on(it, ys[p], y[p], po, do, g, math.sqrt(rp2) / (1.0 + nb),
                                math.sqrt(rd2) / (1.0 + norm_c), opts)]
        if len(going) < len(live):
            keep_only(going)
            if not going:
                break

        try:
            chol_invs, z_invs, factor = _factorize(cons, ys, zs)
        except np.linalg.LinAlgError:
            # end only the problems whose own factorization fails; a lone
            # problem is the one that failed
            going = [p for p in range(len(live)) if len(live) > 1 and _factorizes(
                cons, ys[p:p + 1], zs[p:p + 1])]
            for p in set(range(len(live))) - set(going):
                live[p].status = "numerical_failure"
            keep_only(going)
            if not going:
                break
            chol_invs, z_invs, factor = _factorize(cons, ys, zs)
        for run, shift in zip(live, factor.shift):
            run.max_shift = max(run.max_shift, shift)

        hyrz = _sym(ys @ rd @ z_invs)
        a_hyrz, a_z_invs = np.split(cons.a_of(np.concatenate([hyrz, z_invs])), 2)

        # predictor (affine scaling)
        dy_a = factor.solve(b + a_hyrz)
        dz_a = rd - cons.at_of(dy_a)
        dy_blocks_a = -ys - _sym(ys @ dz_a @ z_invs)
        ap, ad = np.minimum(1.0, _max_steps(np.concatenate([dy_blocks_a, dz_a]), chol_invs))
        gap_aff = _dots(ys + _scaled(ap, dy_blocks_a), zs + _scaled(ad, dz_a))
        # sigma, clipped to [1e-10, 1], times mu
        sigma_mu = np.array([
            min(max((max(g_aff, 0.0) / g) ** 3 if g > 0 else 0.1, 1e-10), 1.0) * (g / nu)
            for g_aff, g in zip(gap_aff, gap.tolist())])

        # corrector
        corr = _sym(dy_blocks_a @ dz_a @ z_invs)
        rhs_c = b - sigma_mu[:, None] * a_z_invs + a_hyrz + cons.a_of(corr)
        dy = factor.solve(rhs_c)
        dz = rd - cons.at_of(dy)
        dy_blocks = _scaled(sigma_mu, z_invs) - ys - _sym(ys @ dz @ z_invs) - corr
        ap, ad = np.minimum(1.0, _STEP_SCALE * _max_steps(np.concatenate([dy_blocks, dz]),
                                                          chol_invs))

        ys = _sym(ys + _scaled(ap, dy_blocks))
        zs = _sym(zs + _scaled(ad, dz))
        y = y + ad[:, None] * dy
        # the Schur complements live for one iteration
        del factor
    else:
        # out of iterations: the problems still in the batch end at the
        # last step taken
        for run, ys_p, y_p in zip(live, ys, y):
            run.last = (ys_p, y_p) + run.last[2:]
    return runs


@dataclass
class FarkasCertificate:
    """Dual improving ray proving a pinned objective value infeasible.

    The vector (y0, y) satisfies y0*C0 + sum_i y_i*C_i <= 0 (up to the
    reported PSD defect) and lambda_target*y0 + b'y = margin > 0.
    """

    lambda_target: float
    y0: float
    y: np.ndarray
    margin: float
    psd_defect: float
    meta: dict = field(default_factory=dict)


def psd_defect_of(problem, y0, y):
    """Largest eigenvalue of y0*C0 + sum y_i*C_i over all blocks."""
    coef = np.concatenate([[y0], y])[problem.entries.matrix]
    blocks = problem._dense(slice(None), coef)
    return max(float(np.linalg.eigvalsh(blk).max()) for blk in blocks)


_MIN_MARGIN = 1e-6  # a ray whose margin is at most this proves nothing


def farkas_from_dual(problem, lambda_target, dual):
    """The ray (y0, y) = (-1, dual) on ``problem``, with margin
    b'dual - lambda_target and its PSD defect measured on ``problem``.
    Returns None when the margin is at most _MIN_MARGIN."""
    margin = float(np.asarray(problem.rhs) @ dual) - lambda_target
    if margin <= _MIN_MARGIN:
        return None
    return FarkasCertificate(
        lambda_target=float(lambda_target),
        y0=-1.0,
        y=dual,
        margin=margin,
        psd_defect=psd_defect_of(problem, -1.0, dual),
        meta=dict(problem.meta),
    )


def optimal_dual(problem, options=None):
    """Dual optimum y* of the lambda-problem; raises SdpError unless the
    solve ends optimal."""
    sol = solve(problem, options)
    if sol.status != "optimal":
        raise SdpError(f"solver did not reach optimality: status={sol.status}")
    return sol.dual


def extract_farkas(problem, lambda_target, options=None):
    """Farkas certificate that pinning tr(C0 Y) = lambda_target is infeasible.

    Solves the lambda-problem once; the dual optimum y* gives the ray
    (y0, y) = (-1, y*) with margin = lambda* - lambda_target.  Returns None
    when lambda_target is feasible (no valid ray exists).
    """
    return farkas_from_dual(problem, lambda_target, optimal_dual(problem, options))
