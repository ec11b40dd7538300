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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

_STATUSES = ("optimal", "infeasible", "unbounded", "max_iterations", "numerical_failure")


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
    step_scale: float = 0.98
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


class _SvecBlock:
    """Constraint data of one PSD block in svec coordinates.

    svec(X) = scale * X[iu, ju] over the upper triangle, so that
    svec(X) . svec(W) = <X, W> for symmetric X and W.  ``a`` holds
    svec(C_i) for the constraint rows ``rows`` that touch the block; all
    other rows are zero on it and are left out.
    """

    def __init__(self, dim, rows, a):
        self.dim = dim
        self.iu, self.ju = np.triu_indices(dim)
        self.scale = np.where(self.iu == self.ju, 1.0, np.sqrt(2.0))
        self.rows = rows
        self.a = a

    def svec(self, mat):
        return self.scale * mat[self.iu, self.ju]

    def smat(self, vec):
        out = np.empty((self.dim, self.dim))
        half = vec / self.scale
        out[self.iu, self.ju] = half
        out[self.ju, self.iu] = half
        return out

    def schur(self, y, z_inv):
        """Rows ``rows`` of the Schur complement, S_ij = tr(C_i Y C_j Z^-1),
        as A (Y (x) Z^-1) A^T with the symmetric Kronecker product in svec
        coordinates."""
        iu, ju = self.iu, self.ju
        cross = y[np.ix_(iu, ju)] * z_inv[np.ix_(ju, iu)]
        kron = (y[np.ix_(iu, iu)] * z_inv[np.ix_(ju, ju)]
                + y[np.ix_(ju, ju)] * z_inv[np.ix_(iu, iu)] + cross + cross.T)
        half = 0.5 * self.scale
        kron *= np.multiply.outer(half, half)
        return _sym((self.a @ kron) @ self.a.T)


class _SvecConstraints:
    """The constraint operator A(X) = (tr(C_i X))_i over the kept rows,
    stored as one _SvecBlock per PSD block."""

    def __init__(self, problem, keep):
        dims = problem.block_dims
        local = [{} for _ in dims]  # kept row -> row index within the block
        coords = [([], [], []) for _ in dims]  # (local row, svec index, value)
        for row, k in enumerate(keep):
            for (blk, i, j), v in problem.constraints[k].items():
                rows_k = local[blk]
                lr, col, val = coords[blk]
                lr.append(rows_k.setdefault(row, len(rows_k)))
                col.append(i * dims[blk] - i * (i - 1) // 2 + (j - i))
                val.append(v if i == j else np.sqrt(2.0) * v)
        self.m = len(keep)
        self.blocks = []
        for d, rows_k, (lr, col, val) in zip(dims, local, coords):
            a = np.zeros((len(rows_k), d * (d + 1) // 2))
            a[lr, col] = val
            rows = np.fromiter(rows_k, dtype=np.intp, count=len(rows_k))
            self.blocks.append(_SvecBlock(d, rows, a))

    def a_of(self, mats):
        out = np.zeros(self.m)
        for blk, x in zip(self.blocks, mats):
            out[blk.rows] += blk.a @ blk.svec(x)
        return out

    def at_of(self, y):
        return [blk.smat(y[blk.rows] @ blk.a) for blk in self.blocks]

    def max_row_norm(self):
        """Largest Frobenius norm of one constraint matrix on one block."""
        return max(float(np.linalg.norm(blk.a, axis=1).max(initial=0.0))
                   for blk in self.blocks)

    def schur(self, ys, z_invs):
        """S_ij = tr(C_i Y C_j Z^-1), each block adding onto the rows it
        touches."""
        s = np.zeros((self.m, self.m))
        for blk, yk, zk in zip(self.blocks, ys, z_invs):
            s[np.ix_(blk.rows, blk.rows)] += blk.schur(yk, zk)
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


def _sym(mat):
    return 0.5 * (mat + mat.T)


def _add_to_diagonal(mat, value):
    """mat + value * I, without building the identity."""
    out = mat.copy()
    out.flat[::mat.shape[0] + 1] += value
    return out


def _max_step(blocks, deltas, chols):
    """Largest alpha with X + alpha*dX staying PSD, per Cholesky scaling."""
    alpha = np.inf
    for x_chol, dx in zip(chols, deltas):
        w = np.linalg.solve(x_chol, np.linalg.solve(x_chol, dx).T).T
        lam = np.linalg.eigvalsh(_sym(w)).min()
        if lam < -1e-14:
            alpha = min(alpha, -1.0 / lam)
    return alpha


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
    dims = problem.block_dims
    nblocks = len(dims)
    nu = sum(dims)

    keep, contradiction = _dedup_rows(problem)
    if contradiction:
        return Solution([np.zeros((d, d)) for d in dims], np.zeros(problem.num_constraints),
                        np.nan, np.nan, np.nan, "infeasible", 0)

    m = len(keep)
    b = np.array([problem.rhs[k] for k in keep], dtype=float)
    cons = _SvecConstraints(problem, keep)
    a_of, at_of = cons.a_of, cons.at_of
    c0 = problem.dense_matrix(problem.objective)
    norm_c = cons.max_row_norm()
    alpha0 = 1.0 + (float(np.abs(b).max()) if m else 0.0) + max(
        norm_c, float(np.linalg.norm(np.concatenate([blk.ravel() for blk in c0])))
    )

    ys = [alpha0 * np.eye(d) for d in dims]
    zs = [alpha0 * np.eye(d) for d in dims]
    y = np.zeros(m)

    status = "max_iterations"
    iterations = 0
    pobj = dobj = gap = np.nan
    best = None  # (merit, ys, zs, y, pobj, dobj, gap)
    stall = 0
    max_shift = 0.0
    eig_iterations = 0

    for it in range(opts.max_iterations):
        iterations = it
        pobj = sum(float((c0[k] * ys[k]).sum()) for k in range(nblocks))
        dobj = float(b @ y)
        rp = b - a_of(ys)
        aty = at_of(y)
        rd = [c0[k] - aty[k] - zs[k] for k in range(nblocks)]
        gap = sum(float((ys[k] * zs[k]).sum()) for k in range(nblocks))

        rel_gap = gap / (1.0 + abs(pobj) + abs(dobj))
        pres = float(np.linalg.norm(rp)) / (1.0 + float(np.linalg.norm(b)))
        dres = float(np.sqrt(sum((blk ** 2).sum() for blk in rd))) / (1.0 + norm_c)
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
            stall = 0
        else:
            stall += 1
        if rel_gap <= opts.tolerance and pres <= opts.tolerance and dres <= opts.tolerance:
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
            z_chols = [np.linalg.cholesky(z) for z in zs]
            y_chols = [np.linalg.cholesky(x) for x in ys]
        except np.linalg.LinAlgError:
            status = "numerical_failure"
            break
        z_invs = []
        for k in range(nblocks):
            eye = np.eye(dims[k])
            z_invs.append(_sym(np.linalg.solve(z_chols[k].T, np.linalg.solve(z_chols[k], eye))))

        factor = _SchurFactor(cons.schur(ys, z_invs))
        max_shift = max(max_shift, factor.shift)
        eig_iterations += factor.eig is not None

        mu = gap / nu
        hyrz = []
        for k in range(nblocks):
            t = ys[k] @ rd[k] @ z_invs[k]
            hyrz.append(_sym(t))

        # predictor (affine scaling)
        rhs_aff = b + a_of(hyrz)
        dy_a = factor.solve(rhs_aff)
        atdy = at_of(dy_a)
        dz_a = [rd[k] - atdy[k] for k in range(nblocks)]
        dy_blocks_a = [-ys[k] - _sym(ys[k] @ dz_a[k] @ z_invs[k]) for k in range(nblocks)]
        ap = min(1.0, _max_step(ys, dy_blocks_a, y_chols))
        ad = min(1.0, _max_step(zs, dz_a, z_chols))
        gap_aff = sum(
            float(((ys[k] + ap * dy_blocks_a[k]) * (zs[k] + ad * dz_a[k])).sum())
            for k in range(nblocks)
        )
        sigma = (max(gap_aff, 0.0) / gap) ** 3 if gap > 0 else 0.1
        sigma = float(np.clip(sigma, 1e-10, 1.0))

        # corrector
        corr = [_sym(dy_blocks_a[k] @ dz_a[k] @ z_invs[k]) for k in range(nblocks)]
        rhs_c = b - sigma * mu * a_of(z_invs) + a_of(hyrz) + a_of(corr)
        dy = factor.solve(rhs_c)
        atdy = at_of(dy)
        dz = [rd[k] - atdy[k] for k in range(nblocks)]
        dy_blocks = [
            sigma * mu * z_invs[k] - ys[k] - _sym(ys[k] @ dz[k] @ z_invs[k]) - corr[k]
            for k in range(nblocks)
        ]
        ap = min(1.0, opts.step_scale * _max_step(ys, dy_blocks, y_chols))
        ad = min(1.0, opts.step_scale * _max_step(zs, dz, z_chols))

        for k in range(nblocks):
            ys[k] = _sym(ys[k] + ap * dy_blocks[k])
            zs[k] = _sym(zs[k] + ad * dz[k])
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
        # when it sits within a small factor of the requested tolerance
        merit, ys, zs, y, pobj, dobj, gap = best
        if merit <= 100.0 * opts.tolerance:
            status = "optimal"
        fallbacks.append(("best_iterate", status == "optimal"))

    dual_full = np.zeros(problem.num_constraints)
    for pos, k in enumerate(keep):
        dual_full[k] = y[pos]
    rel_gap = gap / (1.0 + abs(pobj) + abs(dobj)) if np.isfinite(gap) else np.nan
    return Solution(ys, dual_full, pobj, dobj, rel_gap, status, iterations + 1,
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
