"""Block-diagonal standard-form SDP model and an embedded interior-point solver.

The primal problem is

    minimize    tr(C0 Y)
    subject to  tr(Ci Y) = b_i,  i = 1..M
                Y = diag(Y_1, ..., Y_K) >= 0  (PSD)

with symmetric data matrices stored sparsely as upper-triangle coordinate
maps {(block, row, col): value}, row <= col, each value standing for both
mirror entries (the SDPA sparse convention).  A problem holds one such
dict per constraint row and one for the objective.  Its construction walks
them once, to validate them and to flatten them into ``entries``, one
read-only record array in the SDPA entry layout; every later reader (the
solver, the symmetry reduction, the PSD defect, the Farkas check and the
SDPA writer) reads that record, not the dicts.

The solver is a primal-dual path-following method with a Mehrotra-style
predictor-corrector and the HKM search direction.  Each block keeps its
constraint data as one dense matrix in svec coordinates (the symmetric
vectorization with sqrt(2) off-diagonal weights, so that inner products are
preserved), restricted to the constraint rows that touch the block.  The
Schur complement is assembled block by block as A_k (Y_k (x) Z_k^-1) A_k^T,
with (x) the symmetric Kronecker product, on those rows only.  It is
factored by Cholesky once per iteration, and the factor is inverted once
so that every direction solve is two matrix-vector products.

The iterates Y and Z and every per-block intermediate are held as one
(K, D, D) stack, each block padded with zeros to the largest block size D.
The padding stays exactly zero: the Cholesky factors of [Y + P; Z + P],
with P the identity on the padding, are diag(L, I), and the padding adds
only zero eigenvalues to the step-length problems.  So each Cholesky
factorization, inverse, step-length eigenvalue problem and matrix product
runs as one batched numpy call per iteration, whatever the block sizes;
the reduced problems have many small blocks, where the fixed cost of a
call outweighs its arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np


class SdpError(ValueError):
    pass


@dataclass
class SdpProblem:
    block_dims: tuple
    constraints: list  # one {(block, i, j): value} per constraint, i <= j
    rhs: list
    objective: dict
    meta: dict = field(default_factory=dict)
    # read-only record array, fields matrix (0: the objective, k + 1: row k),
    # block, i, j and value, sorted by (matrix, block, i, j); built from
    # constraints and objective at construction, which are not read again
    entries: np.recarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.block_dims = tuple(int(d) for d in self.block_dims)
        if not self.block_dims:
            raise SdpError("a problem needs at least one block")
        if any(d < 1 for d in self.block_dims):
            raise SdpError("block dimensions must be positive")
        if len(self.constraints) != len(self.rhs):
            raise SdpError("constraint/right-hand-side length mismatch")
        if not np.isfinite(np.asarray(self.rhs, dtype=float)).all():
            raise SdpError("right-hand side values must be finite")
        data = [*self.constraints, self.objective]
        counts = np.fromiter(map(len, data), dtype=np.intp, count=len(data))
        keys = np.fromiter(chain.from_iterable(chain.from_iterable(data)), dtype=np.intp)
        if len(keys) != 3 * counts.sum():
            raise SdpError("entry keys must be (block, i, j) triples")
        blk, i, j = keys.reshape(-1, 3).T
        dims = np.array(self.block_dims)
        bad_block = (blk < 0) | (blk >= len(dims))
        dim = dims[np.where(bad_block, 0, blk)]
        bad = np.flatnonzero(bad_block | (i < 0) | (i > j) | (j >= dim))
        if len(bad):
            t = bad[0]  # the first in walk order
            if bad_block[t]:
                raise SdpError(f"block index {blk[t]} out of range")
            raise SdpError(f"entry ({i[t]},{j[t]}) out of range for block of dim {dim[t]}")
        values = np.fromiter(chain.from_iterable(e.values() for e in data), dtype=float,
                             count=len(blk))
        if not np.isfinite(values).all():
            raise SdpError("constraint and objective values must be finite")
        # the objective, walked last, is matrix 0; one int64 key sorts more
        # than ten times faster than np.lexsort, and overflows only on
        # problems far larger than the solver's padded (K, D, D) stack
        matrix = np.repeat((np.arange(len(data)) + 1) % len(data), counts)
        span = max(self.block_dims)
        if len(data) * len(dims) * span * span >= 2 ** 63:
            raise SdpError("problem too large to index its entries in int64")
        order = np.argsort(((matrix * len(dims) + blk) * span + i) * span + j, kind="stable")
        self.entries = np.rec.fromarrays([x[order] for x in (matrix, blk, i, j, values)],
                                         names="matrix,block,i,j,value")
        self.entries.flags.writeable = False

    @property
    def num_constraints(self):
        return len(self.constraints)

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
        blocks = [np.zeros((d, d)) for d in self.block_dims]
        lo, hi = np.searchsorted(self.entries.matrix, [matrix, matrix + 1])
        for _, blk, i, j, v in self.entries[lo:hi].tolist():
            blocks[blk][i, j] = v
            blocks[blk][j, i] = v
        return blocks


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
    Returns (kept indices, contradiction flag)."""
    e = problem.entries
    # a row's key is the bytes of its slice of the record; adding 0.0 turns
    # -0.0 into 0.0, so that equal keys mean equal values
    flat = np.column_stack([e.block, e.i, e.j, (e.value + 0.0).view(np.int64)])
    data, width = flat.tobytes(), flat.strides[0]
    cuts = np.searchsorted(e.matrix, np.arange(1, problem.num_constraints + 2)).tolist()
    seen = {}
    keep = []
    contradiction = False
    for k, (lo, hi, r) in enumerate(zip(cuts, cuts[1:], problem.rhs)):
        if lo == hi:
            contradiction |= r != 0
            continue
        key = data[lo * width:hi * width]
        if key in seen:
            if problem.rhs[seen[key]] != r:
                contradiction = True
            continue
        seen[key] = k
        keep.append(k)
    return keep, contradiction


def _kron_grids(dim, stride):
    """Flat positions, in a matrix of row stride ``stride``, of the index
    pairs that the symmetric Kronecker product of dim x dim blocks reads
    in svec coordinates, e.g. ij[p, q] = iu[p] * stride + ju[q]; then the
    products of the svec half-weights."""
    iu, ju = np.triu_indices(dim)
    half = np.where(iu == ju, 0.5, 0.5 * np.sqrt(2.0))
    return (np.add.outer(iu * stride, ju), np.add.outer(ju * stride, iu),
            np.add.outer(iu * stride, iu), np.add.outer(ju * stride, ju),
            np.multiply.outer(half, half))


class _SvecConstraints:
    """The constraint operator A(X) = (tr(C_i X))_i over the kept rows.

    Block matrices travel as one (K, D, D) stack: block k sits in the
    leading d_k x d_k corner of slice k, and the rest of the slice, its
    padding, is zero.  ``pad`` is the identity on each slice's padding.
    svec(X) = scale * X[iu, ju] over the upper triangle of a D x D slice,
    so that svec(X) . svec(W) = <X, W> for symmetric X and W; the svec of
    block k is its part ``cols[k]``, those positions with ju < d_k.  Block
    k keeps ``a[k]``, the svec of C_i on the block for the constraint rows
    ``rows[k]`` that touch it; all other rows are zero on it and are left
    out.  A block's products with its ``a`` and its Kronecker product run
    at its own size, so they do not depend on the padding.
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
        self.pad = np.zeros((len(self.dims), d, d))
        self.iu, self.ju = np.triu_indices(d)
        self.scale = np.where(self.iu == self.ju, 1.0, np.sqrt(2.0))
        self.rows, self.a, self.cols = [], [], []
        for blk, dim in enumerate(self.dims):
            self.pad[blk, range(dim, d), range(dim, d)] = 1.0
            self.cols.append(np.flatnonzero(self.ju < dim))
            on = blks == blk
            bi, bj = i[on], j[on]
            # rows touching the block, and each entry's row among them
            block_rows, lr = np.unique(r[on], return_inverse=True)
            a = np.zeros((len(block_rows), dim * (dim + 1) // 2))
            a[lr, bi * dim - bi * (bi - 1) // 2 + (bj - bi)] = np.where(
                bi == bj, v[on], np.sqrt(2.0) * v[on])
            self.rows.append(block_rows)
            self.a.append(a)
        self._kron = {dim: _kron_grids(dim, d) for dim in set(self.dims)}
        self._rows = np.concatenate(self.rows)
        # index grids of each block's rows in the Schur complement; a flat
        # index array would hold sum(len(rows)^2) integers for the solve
        self._schur_ix = [np.ix_(rows, rows) for rows in self.rows]

    def stack(self, blocks):
        """Per-block matrices as one padded (K, D, D) stack."""
        out = np.zeros_like(self.pad)
        for x, blk in zip(out, blocks):
            x[:len(blk), :len(blk)] = blk
        return out

    def unstack(self, mats):
        """The blocks of a padded stack, in block order."""
        return [x[:d, :d].copy() for x, d in zip(mats, self.dims)]

    def smat(self, vecs):
        out = np.empty((len(vecs), self.dim, self.dim))
        half = vecs / self.scale
        out[:, self.iu, self.ju] = half
        out[:, self.ju, self.iu] = half
        return out

    def a_of(self, mats):
        vecs = self.scale * mats[:, self.iu, self.ju]
        parts = [a @ v[c] for a, v, c in zip(self.a, vecs, self.cols)]
        return np.bincount(self._rows, weights=np.concatenate(parts), minlength=self.m)

    def at_of(self, y):
        vecs = np.zeros((len(self.dims), len(self.iu)))
        for vec, rows, a, c in zip(vecs, self.rows, self.a, self.cols):
            vec[c] = y[rows] @ a
        return self.smat(vecs)

    def max_row_norm(self):
        """Largest Frobenius norm of one constraint matrix on one block."""
        return max(float(np.linalg.norm(a, axis=1).max(initial=0.0)) for a in self.a)

    def schur_parts(self, ys, z_invs):
        """Per block k, rows ``rows[k]`` of the Schur complement,
        S_ij = tr(C_i Y C_j Z^-1), as A (Y (x) Z^-1) A^T with the symmetric
        Kronecker product in svec coordinates, built one block at a time."""
        flat_ys, flat_zs = ys.reshape(len(ys), -1), z_invs.reshape(len(z_invs), -1)
        for a, dim, y, z in zip(self.a, self.dims, flat_ys, flat_zs):
            ij, ji, ii, jj, half_outer = self._kron[dim]
            cross = y[ij] * z[ji]
            kron = y[ii] * z[jj] + y[jj] * z[ii] + cross + cross.T
            kron *= half_outer
            yield _sym((a @ kron) @ a.T)

    def schur(self, ys, z_invs):
        """S_ij = tr(C_i Y C_j Z^-1), each block adding onto the rows it
        touches."""
        s = np.zeros((self.m, self.m))
        for ix, part in zip(self._schur_ix, self.schur_parts(ys, z_invs)):
            s[ix] += part
        return s


_TRI_LEAF = 64


def _tril_inverse(lower):
    """Inverse of a nonsingular lower-triangular matrix, by recursive 2x2
    blocking so that nearly all the work is matrix products."""
    out = np.zeros_like(lower)
    _tril_invert_into(lower, out)
    return out


def _tril_invert_into(lower, out):
    n = lower.shape[0]
    if n <= _TRI_LEAF:
        # forward substitution, one row of the inverse at a time
        for i in range(n):
            out[i, i] = 1.0 / lower[i, i]
            out[i, :i] = -(lower[i, :i] @ out[:i, :i]) * out[i, i]
        return
    h = n // 2
    _tril_invert_into(lower[:h, :h], out[:h, :h])
    _tril_invert_into(lower[h:, h:], out[h:, h:])
    out[h:, :h] = -out[h:, h:] @ (lower[h:, :h] @ out[:h, :h])


def _t(mats):
    """Transpose of each matrix in a stack (or of one matrix)."""
    return mats.swapaxes(-1, -2)


def _sym(mats):
    return 0.5 * (mats + _t(mats))


def _add_to_diagonal(mat, value):
    """mat + value * I, without building the identity."""
    out = mat.copy()
    out.flat[::mat.shape[0] + 1] += value
    return out


# fraction of the largest feasible step taken, keeping iterates interior
_STEP_SCALE = 0.98


def _max_steps(deltas, chol_invs):
    """Largest alpha_p and alpha_d keeping Y + alpha_p dY and Z + alpha_d dZ
    PSD, per Cholesky scaling.  ``deltas`` stacks [dY; dZ] and ``chol_invs``
    the inverse factors [L(Y)^-1; L(Z)^-1] of the same blocks.  Padding,
    zero in every delta, gives zero eigenvalues, which set no bound."""
    w = chol_invs @ deltas @ _t(chol_invs)
    steps = []
    for lam in np.linalg.eigvalsh(_sym(w)).min(axis=-1).reshape(2, -1):
        lam = lam[lam < -1e-14]
        steps.append(float((-1.0 / lam).min()) if lam.size else np.inf)
    return steps


class _SchurFactor:
    """Cholesky factorization of the Schur complement.  When plain Cholesky
    fails near the optimum, a small diagonal shift is added (escalating until
    the factorization succeeds); iterative refinement against the unshifted
    matrix then recovers the accuracy lost to the shift.  The factor is
    inverted once, so each solve is two matrix-vector products.

    ``shift`` is the diagonal shift that was needed, relative to the trace
    scale (0.0 for none).  The Schur complement of PD iterates is PSD, so a
    shift of 100 times its mean diagonal factors any finite one; when even
    that fails, the LinAlgError propagates."""

    def __init__(self, s):
        self.s = s
        scale = max(float(np.trace(s)) / max(s.shape[0], 1), 1e-300)
        shift = 0.0
        while True:
            try:
                chol = np.linalg.cholesky(_add_to_diagonal(s, shift) if shift else s)
                break
            except np.linalg.LinAlgError:
                shift = 1e-14 * scale if shift == 0.0 else 100.0 * shift
                if shift > 1e2 * scale:
                    raise
        self.shift = shift / scale
        self.chol_inv = _tril_inverse(chol)

    def _solve_once(self, rhs):
        return self.chol_inv.T @ (self.chol_inv @ rhs)

    def solve(self, rhs):
        # refinement keeps the computed direction accurate once the Schur
        # complement turns ill-conditioned near the optimum, which would
        # otherwise erode primal feasibility; stop if the residual stalls
        x = self._solve_once(rhs)
        best = x
        best_res = float(np.linalg.norm(rhs - self.s @ x))
        for _ in range(4):
            x = x + self._solve_once(rhs - self.s @ x)
            res = float(np.linalg.norm(rhs - self.s @ x))
            if res >= best_res:
                break
            best, best_res = x, res
        return best


def solve(problem, options=None):
    """Solve a standard-form block SDP; never raises on numerical trouble,
    reporting it in Solution.status instead."""
    opts = options or SolverOptions()
    if opts.max_iterations < 1:
        raise ValueError(f"max_iterations must be at least 1, got {opts.max_iterations}")
    # a nan or nonpositive tolerance never meets the stopping test
    if not 0 < opts.tolerance < math.inf:
        raise ValueError(f"tolerance must be positive and finite, got {opts.tolerance}")
    dims = problem.block_dims
    nu = sum(dims)

    keep, contradiction = _dedup_rows(problem)
    if contradiction:
        return Solution([np.zeros((d, d)) for d in dims], np.zeros(problem.num_constraints),
                        np.nan, np.nan, np.nan, "infeasible", 0)

    m = len(keep)
    b = np.array([problem.rhs[k] for k in keep], dtype=float)
    cons = _SvecConstraints(problem, keep)
    a_of, at_of, pad = cons.a_of, cons.at_of, cons.pad
    c0 = cons.stack(problem.dense_matrix(0))
    norm_c = cons.max_row_norm()
    alpha0 = 1.0 + (float(np.abs(b).max()) if m else 0.0) + max(norm_c, float(np.linalg.norm(c0)))

    ys = alpha0 * (np.eye(cons.dim) - pad)
    zs = ys.copy()
    pads = np.concatenate([pad, pad])
    eye = np.broadcast_to(np.eye(cons.dim), pads.shape)
    y = np.zeros(m)

    status = "max_iterations"
    iterations = 0
    pobj = dobj = gap = np.nan
    best = None  # (merit, ys, zs, y, pobj, dobj, gap)
    best_it = 0
    stall = 0
    max_shift = 0.0

    for it in range(opts.max_iterations):
        iterations = it
        pobj = float(np.vdot(c0, ys))
        dobj = float(b @ y)
        rp = b - a_of(ys)
        rd = c0 - at_of(y) - zs
        gap = float(np.vdot(ys, zs))

        rel_gap = gap / (1.0 + abs(pobj) + abs(dobj))
        pres = float(np.linalg.norm(rp)) / (1.0 + float(np.linalg.norm(b)))
        dres = math.sqrt(float(np.vdot(rd, rd))) / (1.0 + norm_c)
        if opts.verbose:
            print(f"  iter {it:3d}  pobj {pobj:+.8e}  dobj {dobj:+.8e} "
                  f"gap {rel_gap:.2e}  pres {pres:.2e}  dres {dres:.2e}")
        # on a dual feasible iterate pobj - dobj = <Y, Z> + y'(A(Y) - b), so
        # a primal residual near the tolerance can still leave the
        # objectives apart when y is large; the best iterate must have both
        # close
        obj_gap = abs(pobj - dobj) / (1.0 + abs(pobj) + abs(dobj))
        merit = max(abs(rel_gap), pres, dres, obj_gap)
        if np.isfinite(merit) and (best is None or merit < best[0]):
            # ys, zs and y are rebound each step, never changed in place
            best = (merit, ys, zs, y, pobj, dobj, gap)
            best_it = it
            stall = 0
        else:
            stall += 1
        # the starting iterate is never reported as optimal, however loose
        # the tolerance: at least one step must have been taken
        if it and rel_gap <= opts.tolerance and pres <= opts.tolerance and dres <= opts.tolerance:
            status = "optimal"
            break
        if stall >= 6:
            # residuals stopped improving; the best iterate seen is as good
            # as this run will get
            status = "numerical_failure"
            break
        if not np.isfinite(pobj) or not np.isfinite(dobj) or not np.isfinite(gap):
            status = "numerical_failure"
            break
        if dobj > 1e12 and dres <= 1e-6:
            status = "infeasible"  # dual unbounded above
            break
        if pobj < -1e12 and pres <= 1e-6:
            status = "unbounded"
            break

        try:
            # the padded factors are diag(L, I), exactly
            chols = np.linalg.cholesky(np.concatenate([ys, zs]) + pads)
            # [L(Y)^-1; L(Z)^-1]; numpy 1.x reads a (d, d) right-hand side
            # against a stack as a stack of vectors, so the identity is
            # broadcast explicitly
            chol_invs = np.linalg.solve(chols, eye)
            # Z^-1 by a second solve: the product L^-T L^-1 rounds differently
            # and sends the near-degenerate (4,4,+1) solve to its best iterate
            z_invs = _sym(np.linalg.solve(_t(chols[len(ys):]), chol_invs[len(ys):])) - pad
            factor = _SchurFactor(cons.schur(ys, z_invs))
        except np.linalg.LinAlgError:
            status = "numerical_failure"
            break
        max_shift = max(max_shift, factor.shift)

        mu = gap / nu
        hyrz = _sym(ys @ rd @ z_invs)
        a_hyrz = a_of(hyrz)

        # predictor (affine scaling)
        dy_a = factor.solve(b + a_hyrz)
        dz_a = rd - at_of(dy_a)
        dy_blocks_a = -ys - _sym(ys @ dz_a @ z_invs)
        ap, ad = _max_steps(np.concatenate([dy_blocks_a, dz_a]), chol_invs)
        ap, ad = min(1.0, ap), min(1.0, ad)
        gap_aff = float(np.vdot(ys + ap * dy_blocks_a, zs + ad * dz_a))
        sigma = (max(gap_aff, 0.0) / gap) ** 3 if gap > 0 else 0.1
        sigma = float(np.clip(sigma, 1e-10, 1.0))

        # corrector
        corr = _sym(dy_blocks_a @ dz_a @ z_invs)
        rhs_c = b - sigma * mu * a_of(z_invs) + a_hyrz + a_of(corr)
        dy = factor.solve(rhs_c)
        dz = rd - at_of(dy)
        dy_blocks = sigma * mu * z_invs - ys - _sym(ys @ dz @ z_invs) - corr
        ap, ad = _max_steps(np.concatenate([dy_blocks, dz]), chol_invs)
        ap, ad = min(1.0, _STEP_SCALE * ap), min(1.0, _STEP_SCALE * ad)

        ys = _sym(ys + ap * dy_blocks)
        zs = _sym(zs + ad * dz)
        y = y + ad * dy
        # the Schur complement and its inverse factor live for one iteration
        del factor

    fallbacks = []
    if max_shift:
        fallbacks.append(("schur_shift", max_shift))
    if status in ("numerical_failure", "max_iterations") and best is not None:
        # fall back to the most accurate iterate seen; accept it as optimal
        # when it sits within a small factor of the requested tolerance and
        # is not the starting iterate
        merit, ys, zs, y, pobj, dobj, gap = best
        if best_it and merit <= 100.0 * opts.tolerance:
            status = "optimal"
        fallbacks.append(("best_iterate", status == "optimal"))

    dual_full = np.zeros(problem.num_constraints)
    dual_full[keep] = y
    rel_gap = gap / (1.0 + abs(pobj) + abs(dobj)) if np.isfinite(gap) else np.nan
    return Solution(cons.unstack(ys), dual_full, pobj, dobj, rel_gap, status, iterations + 1,
                    tuple(fallbacks))


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
    blocks = [y0 * blk for blk in problem.dense_matrix(0)]
    e = problem.entries
    # y_k times each entry of row k, added in row order; the objective and
    # rows with y_k = 0 add nothing
    coef = np.concatenate([[0.0], y])[e.matrix]
    on = coef != 0.0
    for k, x in enumerate(blocks):
        at = on & (e.block == k)
        i, j, add = e.i[at], e.j[at], coef[at] * e.value[at]
        off = i != j
        np.add.at(x, (np.concatenate([i, j[off]]), np.concatenate([j, i[off]])),
                  np.concatenate([add, add[off]]))
    return max(float(np.linalg.eigvalsh(blk).max()) for blk in blocks)


def farkas_from_dual(problem, lambda_target, dual, margin_threshold=1e-6):
    """The ray (y0, y) = (-1, dual) on ``problem``, with margin
    b'dual - lambda_target and its PSD defect measured on ``problem``.
    Returns None when the margin is at most margin_threshold."""
    margin = float(np.asarray(problem.rhs) @ dual) - lambda_target
    if margin <= margin_threshold:
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


def extract_farkas(problem, lambda_target, options=None, margin_threshold=1e-6):
    """Farkas certificate that pinning tr(C0 Y) = lambda_target is infeasible.

    Solves the lambda-problem once; the dual optimum y* gives the ray
    (y0, y) = (-1, y*) with margin = lambda* - lambda_target.  Returns None
    when lambda_target is feasible (no valid ray exists).
    """
    return farkas_from_dual(problem, lambda_target, optimal_dual(problem, options),
                            margin_threshold)
