"""Block-diagonal standard-form SDP model and an embedded interior-point solver.

The primal problem is

    minimize    tr(C0 Y)
    subject to  tr(Ci Y) = b_i,  i = 1..M
                Y = diag(Y_1, ..., Y_K) >= 0  (PSD)

with symmetric data matrices stored sparsely as upper-triangle coordinate
maps {(block, row, col): value}, row <= col, each value standing for both
mirror entries (the SDPA sparse convention).

The solver is a primal-dual path-following method with a Mehrotra-style
predictor-corrector and the HKM search direction.  Each block keeps its
constraint data as one dense matrix in svec coordinates (the symmetric
vectorization with sqrt(2) off-diagonal weights, so that inner products are
preserved), restricted to the constraint rows that touch the block.  The
Schur complement is assembled block by block as A_k (Y_k (x) Z_k^-1) A_k^T,
with (x) the symmetric Kronecker product, on those rows only.  It is
factored by Cholesky once per iteration, and the factor is inverted once
so that every direction solve is two matrix-vector products.

Blocks of equal size are grouped once per solve, and the iterates Y and Z
and every per-block intermediate are held as one (c, d, d) stack per group.
Each Cholesky factorization, inverse, step-length eigenvalue problem and
matrix product then runs as one batched numpy call per group; the reduced
problems have many small blocks, where the fixed cost of a call outweighs
its arithmetic.  Batching leaves each LAPACK call and each product acting
on the same matrix, but floating-point addition is not associative, so
every sum over blocks (objectives, gap, residual norm, and the rows of A(X)
and of the Schur complement that several blocks share) is still taken in
the problem's block order.  The iterates thus match a block-by-block
computation bit for bit.
"""

from __future__ import annotations

import warnings
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

    def __post_init__(self):
        self.block_dims = tuple(int(d) for d in self.block_dims)
        if any(d < 1 for d in self.block_dims):
            raise SdpError("block dimensions must be positive")
        if len(self.constraints) != len(self.rhs):
            raise SdpError("constraint/right-hand-side length mismatch")
        for entries in list(self.constraints) + [self.objective]:
            for (blk, i, j) in entries:
                if not 0 <= blk < len(self.block_dims):
                    raise SdpError(f"block index {blk} out of range")
                dim = self.block_dims[blk]
                if not 0 <= i <= j < dim:
                    raise SdpError(f"entry ({i},{j}) out of range for block of dim {dim}")

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

    def constraint_arrays(self, rows=None):
        """The entries of the constraint rows ``rows`` (default: all, in
        order) as flat arrays (r, block, i, j, value), where r is the
        position of the entry's row within ``rows``."""
        rows = range(self.num_constraints) if rows is None else rows
        data = [self.constraints[k] for k in rows]
        count = sum(len(entries) for entries in data)
        keys = np.fromiter(chain.from_iterable(chain.from_iterable(data)),
                           dtype=np.intp, count=3 * count).reshape(count, 3)
        values = np.fromiter(chain.from_iterable(e.values() for e in data),
                             dtype=float, count=count)
        r = np.repeat(np.arange(len(data)), [len(entries) for entries in data])
        return r, keys[:, 0], keys[:, 1], keys[:, 2], values

    def dense_matrix(self, entries):
        """Expand one sparse symmetric data matrix into dense per-block arrays."""
        blocks = [np.zeros((d, d)) for d in self.block_dims]
        for (blk, i, j), v in entries.items():
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
    # relative to the trace scale), ("schur_eig", iterations that used it),
    # ("best_iterate", whether it upgraded the status to "optimal")
    fallbacks: tuple = ()


def _dedup_rows(problem):
    """Collapse byte-identical constraint rows (word-indexed rows repeat for
    a word and its reversal).  Returns (kept indices, contradiction flag)."""
    seen = {}
    keep = []
    contradiction = False
    for k, (entries, r) in enumerate(zip(problem.constraints, problem.rhs)):
        key = tuple(sorted(entries.items()))
        if key in seen:
            if problem.rhs[seen[key]] != r:
                contradiction = True
            continue
        seen[key] = k
        keep.append(k)
    return keep, contradiction


def _dim_groups(dims):
    """Block indices grouped by dimension: each group in block order, the
    groups in order of first appearance."""
    groups = {}
    for k, d in enumerate(dims):
        groups.setdefault(d, []).append(k)
    return list(groups.values())


class _SvecGroup:
    """Constraint data of the PSD blocks of one dimension in svec coordinates.

    svec(X) = scale * X[iu, ju] over the upper triangle, so that
    svec(X) . svec(W) = <X, W> for symmetric X and W.  Member k is block
    ``blocks[k]``; ``a[k]`` holds svec(C_i) for the constraint rows
    ``rows[k]`` that touch it, and all other rows are zero on it and are
    left out.  Matrices come and go as one (c, d, d) stack over the c
    members.
    """

    def __init__(self, dim, blocks, rows, a):
        self.dim = dim
        self.blocks = blocks
        self.rows = rows
        self.a = a
        self.iu, self.ju = np.triu_indices(dim)
        self.scale = np.where(self.iu == self.ju, 1.0, np.sqrt(2.0))
        half = 0.5 * self.scale
        self.half_outer = np.multiply.outer(half, half)
        # flat d*d positions of the index pairs the symmetric Kronecker
        # product reads, e.g. _ij[p, q] = iu[p] * d + ju[q]
        iu_rows, ju_rows = self.iu * dim, self.ju * dim
        self._ij = np.add.outer(iu_rows, self.ju)
        self._ji = np.add.outer(ju_rows, self.iu)
        self._ii = np.add.outer(iu_rows, self.iu)
        self._jj = np.add.outer(ju_rows, self.ju)

    def svec(self, mats):
        return self.scale * mats[:, self.iu, self.ju]

    def smat(self, vecs):
        out = np.empty((len(vecs), self.dim, self.dim))
        half = vecs / self.scale
        out[:, self.iu, self.ju] = half
        out[:, self.ju, self.iu] = half
        return out

    def schur_parts(self, y, z_inv):
        """Per member, rows ``rows[k]`` of the Schur complement,
        S_ij = tr(C_i Y C_j Z^-1), as A (Y (x) Z^-1) A^T with the symmetric
        Kronecker product in svec coordinates."""
        yf = y.reshape(len(y), -1)
        zf = z_inv.reshape(len(z_inv), -1)
        cross = yf[:, self._ij] * zf[:, self._ji]
        kron = (yf[:, self._ii] * zf[:, self._jj]
                + yf[:, self._jj] * zf[:, self._ii] + cross + _t(cross))
        kron *= self.half_outer
        return [_sym((a @ k) @ a.T) for a, k in zip(self.a, kron)]


class _SvecConstraints:
    """The constraint operator A(X) = (tr(C_i X))_i over the kept rows,
    stored as one _SvecGroup per block dimension.  Block matrices travel as
    one stack per group (``stack``/``unstack``); every sum over blocks runs
    in block order."""

    def __init__(self, problem, keep):
        r, blks, i, j, v = problem.constraint_arrays(keep)
        dims = problem.block_dims
        self.m = len(keep)
        self.groups = []
        for members in _dim_groups(dims):
            d = dims[members[0]]
            rows, mats = [], []
            for blk in members:
                on = blks == blk
                bi, bj = i[on], j[on]
                # rows touching the block, and each entry's row among them
                block_rows, lr = np.unique(r[on], return_inverse=True)
                a = np.zeros((len(block_rows), d * (d + 1) // 2))
                a[lr, bi * d - bi * (bi - 1) // 2 + (bj - bi)] = np.where(
                    bi == bj, v[on], np.sqrt(2.0) * v[on])
                rows.append(block_rows)
                mats.append(a)
            self.groups.append(_SvecGroup(d, members, rows, mats))
        # position of each block among the members listed group by group
        self._pos = np.argsort(np.concatenate([g.blocks for g in self.groups]))
        rows_by_block = self.unstack([g.rows for g in self.groups])
        self._rows = np.concatenate(rows_by_block)
        # index grids of each block's rows in the Schur complement; a flat
        # index array would hold sum(len(rows)^2) integers for the solve
        self._schur_ix = [np.ix_(rows, rows) for rows in rows_by_block]

    def stack(self, blocks):
        """Per-block matrices as one (c, d, d) stack per group."""
        return [np.stack([blocks[k] for k in g.blocks]) for g in self.groups]

    def unstack(self, per_group):
        """Per-member items, given group by group (a stack or a list per
        group), in block order."""
        flat = list(chain.from_iterable(per_group))
        return [flat[p] for p in self._pos]

    def block_sums(self, stacks):
        """Sum of the entries of each block, in block order."""
        sums = np.concatenate([x.reshape(len(x), -1).sum(axis=1) for x in stacks])
        return sums[self._pos]

    def a_of(self, mats):
        parts = self.unstack(
            [a @ v for a, v in zip(g.a, g.svec(x))] for g, x in zip(self.groups, mats))
        # bincount adds the parts in block order, as a loop of += would
        return np.bincount(self._rows, weights=np.concatenate(parts), minlength=self.m)

    def at_of(self, y):
        return [g.smat(np.array([y[rows] @ a for rows, a in zip(g.rows, g.a)]))
                for g in self.groups]

    def max_row_norm(self):
        """Largest Frobenius norm of one constraint matrix on one block."""
        return max(float(np.linalg.norm(a, axis=1).max(initial=0.0))
                   for g in self.groups for a in g.a)

    def schur(self, ys, z_invs):
        """S_ij = tr(C_i Y C_j Z^-1), each block adding onto the rows it
        touches, in block order."""
        parts = self.unstack(
            g.schur_parts(y, z) for g, y, z in zip(self.groups, ys, z_invs))
        s = np.zeros((self.m, self.m))
        for ix, part in zip(self._schur_ix, parts):
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


def _max_steps(deltas, chols):
    """Largest alpha_p and alpha_d keeping Y + alpha_p dY and Z + alpha_d dZ
    PSD, per Cholesky scaling.  Per group, ``deltas`` stacks [dY; dZ] and
    ``chols`` the factors [L(Y); L(Z)] of the same members."""
    lams = []
    for dx, chol in zip(deltas, chols):
        w = _t(np.linalg.solve(chol, _t(np.linalg.solve(chol, dx))))
        lams.append(np.linalg.eigvalsh(_sym(w)).min(axis=-1).reshape(2, -1))
    steps = []
    for lam in np.concatenate(lams, axis=1):
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
    scale (0.0 for none); ``eig`` is set when even the largest shift failed
    and the solves fall back to an eigendecomposition."""

    def __init__(self, s):
        self.s = s
        self.shift = 0.0
        self.chol_inv = None
        self.eig = None
        scale = max(float(np.trace(s)) / max(s.shape[0], 1), 1e-300)
        shift = 0.0
        while True:
            try:
                chol = np.linalg.cholesky(_add_to_diagonal(s, shift) if shift else s)
                break
            except np.linalg.LinAlgError:
                shift = 1e-14 * scale if shift == 0.0 else 100.0 * shift
                if shift > 1e2 * scale:
                    warnings.warn(
                        "Schur complement could not be stabilized",
                        RuntimeWarning,
                        stacklevel=3,
                    )
                    w, v = np.linalg.eigh(s)
                    thresh = 1e-12 * max(w.max(), 1e-300)
                    self.eig = (
                        v, np.where(w > thresh, 1.0 / np.maximum(w, thresh), 0.0)
                    )
                    return
        self.shift = shift / scale
        self.chol_inv = _tril_inverse(chol)

    def _solve_once(self, rhs):
        if self.chol_inv is not None:
            return self.chol_inv.T @ (self.chol_inv @ rhs)
        v, winv = self.eig
        return v @ (winv * (v.T @ rhs))

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
    dims = problem.block_dims
    nu = sum(dims)

    keep, contradiction = _dedup_rows(problem)
    if contradiction:
        return Solution([np.zeros((d, d)) for d in dims], np.zeros(problem.num_constraints),
                        np.nan, np.nan, np.nan, "infeasible", 0)

    m = len(keep)
    b = np.array([problem.rhs[k] for k in keep], dtype=float)
    cons = _SvecConstraints(problem, keep)
    a_of, at_of, block_sums = cons.a_of, cons.at_of, cons.block_sums
    c0_blocks = problem.dense_matrix(problem.objective)
    norm_c = cons.max_row_norm()
    alpha0 = 1.0 + (float(np.abs(b).max()) if m else 0.0) + max(
        norm_c, float(np.linalg.norm(np.concatenate([blk.ravel() for blk in c0_blocks])))
    )

    # one (c, d, d) stack per group of same-size blocks
    c0 = cons.stack(c0_blocks)
    ys = [alpha0 * np.broadcast_to(np.eye(c.shape[-1]), c.shape) for c in c0]
    zs = [x.copy() for x in ys]
    y = np.zeros(m)

    status = "max_iterations"
    iterations = 0
    pobj = dobj = gap = np.nan
    best = None  # (merit, ys, zs, y, pobj, dobj, gap)
    best_it = 0
    stall = 0
    max_shift = 0.0
    eig_iterations = 0

    for it in range(opts.max_iterations):
        iterations = it
        pobj = sum(block_sums([c * x for c, x in zip(c0, ys)]).tolist())
        dobj = float(b @ y)
        rp = b - a_of(ys)
        rd = [c - t - z for c, t, z in zip(c0, at_of(y), zs)]
        gap = sum(block_sums([x * z for x, z in zip(ys, zs)]).tolist())

        rel_gap = gap / (1.0 + abs(pobj) + abs(dobj))
        pres = float(np.linalg.norm(rp)) / (1.0 + float(np.linalg.norm(b)))
        dres = float(np.sqrt(sum(block_sums([r ** 2 for r in rd])))) / (1.0 + norm_c)
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
            best = (merit, [x.copy() for x in ys], [z.copy() for z in zs],
                    y.copy(), pobj, dobj, gap)
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
            # per group, the factors of [Y; Z]
            chols = [np.linalg.cholesky(np.concatenate([x, z])) for x, z in zip(ys, zs)]
        except np.linalg.LinAlgError:
            status = "numerical_failure"
            break
        z_invs = []
        for chol in chols:
            z_chol = chol[len(chol) // 2:]
            # numpy 1.x reads a (d, d) right-hand side against a stack as
            # a stack of vectors, so the identity is broadcast explicitly
            eye = np.broadcast_to(np.eye(z_chol.shape[-1]), z_chol.shape)
            z_invs.append(_sym(np.linalg.solve(_t(z_chol), np.linalg.solve(z_chol, eye))))

        factor = _SchurFactor(cons.schur(ys, z_invs))
        max_shift = max(max_shift, factor.shift)
        eig_iterations += factor.eig is not None

        mu = gap / nu
        hyrz = [_sym(x @ r @ zi) for x, r, zi in zip(ys, rd, z_invs)]
        a_hyrz = a_of(hyrz)

        # predictor (affine scaling)
        dy_a = factor.solve(b + a_hyrz)
        dz_a = [r - t for r, t in zip(rd, at_of(dy_a))]
        dy_blocks_a = [-x - _sym(x @ dz @ zi) for x, dz, zi in zip(ys, dz_a, z_invs)]
        ap, ad = _max_steps([np.concatenate(d) for d in zip(dy_blocks_a, dz_a)], chols)
        ap, ad = min(1.0, ap), min(1.0, ad)
        gap_aff = sum(block_sums(
            [(x + ap * dx) * (z + ad * dz) for x, dx, z, dz in zip(ys, dy_blocks_a, zs, dz_a)]
        ).tolist())
        sigma = (max(gap_aff, 0.0) / gap) ** 3 if gap > 0 else 0.1
        sigma = float(np.clip(sigma, 1e-10, 1.0))

        # corrector
        corr = [_sym(dx @ dz @ zi) for dx, dz, zi in zip(dy_blocks_a, dz_a, z_invs)]
        rhs_c = b - sigma * mu * a_of(z_invs) + a_hyrz + a_of(corr)
        dy = factor.solve(rhs_c)
        dz = [r - t for r, t in zip(rd, at_of(dy))]
        dy_blocks = [
            sigma * mu * zi - x - _sym(x @ d @ zi) - c
            for zi, x, d, c in zip(z_invs, ys, dz, corr)
        ]
        ap, ad = _max_steps([np.concatenate(d) for d in zip(dy_blocks, dz)], chols)
        ap, ad = min(1.0, _STEP_SCALE * ap), min(1.0, _STEP_SCALE * ad)

        ys = [_sym(x + ap * d) for x, d in zip(ys, dy_blocks)]
        zs = [_sym(z + ad * d) for z, d in zip(zs, dz)]
        y = y + ad * dy
        # the Schur complement and its inverse factor live for one iteration
        del factor

    fallbacks = []
    if max_shift:
        fallbacks.append(("schur_shift", max_shift))
    if eig_iterations:
        fallbacks.append(("schur_eig", eig_iterations))
    if status in ("numerical_failure", "max_iterations") and best is not None:
        # fall back to the most accurate iterate seen; accept it as optimal
        # when it sits within a small factor of the requested tolerance and
        # is not the starting iterate
        merit, ys, zs, y, pobj, dobj, gap = best
        if best_it and merit <= 100.0 * opts.tolerance:
            status = "optimal"
        fallbacks.append(("best_iterate", status == "optimal"))

    dual_full = np.zeros(problem.num_constraints)
    for pos, k in enumerate(keep):
        dual_full[k] = y[pos]
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
    blocks = [y0 * blk for blk in problem.dense_matrix(problem.objective)]
    for k, entries in enumerate(problem.constraints):
        yk = y[k]
        if yk == 0.0:
            continue
        for (blk, i, j), v in entries.items():
            blocks[blk][i, j] += yk * v
            if i != j:
                blocks[blk][j, i] += yk * v
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
