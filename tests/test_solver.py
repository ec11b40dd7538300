"""Interior-point solver: brute-force LP oracle on random diagonal SDPs,
known optimal values of the assembled problems, status handling, and the
stacked equal-size-block path against per-block references."""

import itertools
import random

import numpy as np
import pytest

from ncagm import (
    SdpProblem,
    SolverOptions,
    assemble_sdp,
    extract_farkas,
    solve,
    symmetry_reduce,
)
from ncagm.certify import farkas_check
from ncagm.sdp import (
    _TRI_LEAF,
    _dedup_rows,
    _dim_groups,
    _max_steps,
    _SchurFactor,
    _SvecConstraints,
    _sym,
    _tril_inverse,
)

N_CASES = 1000


def random_lp(rng):
    """A bounded feasible LP min c.x s.t. Ax=b, x>=0 disguised as a diagonal
    SDP, plus its brute-force vertex-enumeration optimum."""
    k = rng.randint(2, 6)
    ncons = rng.randint(1, min(3, k - 1))
    while True:
        a = np.array(
            [[rng.randint(-3, 3) for _ in range(k)] for _ in range(ncons)], float
        )
        if np.linalg.matrix_rank(a) == ncons:
            break
    x0 = np.array([rng.uniform(0.0, 3.0) for _ in range(k)])
    b = a @ x0
    c = np.array([rng.uniform(0.1, 4.0) for _ in range(k)])

    best = None
    for cols in itertools.combinations(range(k), ncons):
        sub = a[:, cols]
        if abs(np.linalg.det(sub)) < 1e-8:
            continue
        xb = np.linalg.solve(sub, b)
        if xb.min() < -1e-9:
            continue
        value = float(c[list(cols)] @ xb)
        if best is None or value < best:
            best = value

    dims = (1,) * k
    constraints = [
        {(col, 0, 0): a[row, col] for col in range(k) if a[row, col] != 0.0}
        for row in range(ncons)
    ]
    objective = {(col, 0, 0): c[col] for col in range(k)}
    problem = SdpProblem(dims, constraints, list(b), objective)
    return problem, best


class TestLpOracle:
    def test_matches_brute_force(self):
        rng = random.Random(7)
        checked = 0
        for _ in range(N_CASES):
            problem, best = random_lp(rng)
            assert best is not None  # feasible by construction
            sol = solve(problem)
            assert sol.status == "optimal", f"status {sol.status}"
            assert sol.objective_primal == pytest.approx(best, abs=1e-6)
            checked += 1
        assert checked == N_CASES

    def test_weak_duality_at_optimum(self):
        rng = random.Random(8)
        for _ in range(100):
            problem, _ = random_lp(rng)
            sol = solve(problem)
            assert sol.status == "optimal"
            assert sol.objective_dual <= sol.objective_primal + 1e-7 * (
                1.0 + abs(sol.objective_primal)
            )
            for blk in sol.primal_blocks:
                assert np.linalg.eigvalsh(blk).min() >= -1e-7


class TestKnownValues:
    @pytest.mark.parametrize(
        "m,n,sign,expected",
        [
            (2, 2, 1, 0.5),
            (2, 3, 1, 1.5),
            (2, 4, 1, 3.0),
            (3, 3, 1, 3.4113),
            (3, 4, 1, 8.5367),
            (4, 4, 1, 22.4746),
            (2, 2, -1, 2.0),
            (3, 4, -1, 24.0),
            (1, 3, -1, 3.0),
            (1, 3, 1, 0.0),
        ],
    )
    def test_lambda_values(self, m, n, sign, expected):
        reduced, _ = symmetry_reduce(assemble_sdp(m, n, sign))
        sol = solve(reduced)
        assert sol.status == "optimal"
        assert sol.objective_primal == pytest.approx(expected, abs=1e-3)

    def test_unreduced_small(self):
        sol = solve(assemble_sdp(2, 2, 1))
        assert sol.status == "optimal"
        assert sol.objective_primal == pytest.approx(0.5, abs=1e-3)


class TestStatuses:
    def test_contradictory_duplicate_rows(self):
        problem = SdpProblem(
            (1,),
            [{(0, 0, 0): 1.0}, {(0, 0, 0): 1.0}],
            [1.0, 2.0],
            {(0, 0, 0): 1.0},
        )
        assert solve(problem).status == "infeasible"

    def test_infeasible_scaled_rows(self):
        # x = 1 and 2x = 4 cannot both hold
        problem = SdpProblem(
            (1,),
            [{(0, 0, 0): 1.0}, {(0, 0, 0): 2.0}],
            [1.0, 4.0],
            {(0, 0, 0): 1.0},
        )
        assert solve(problem).status != "optimal"

    def test_unbounded_objective(self):
        # min -x with x unconstrained above
        problem = SdpProblem(
            (1, 1),
            [{(1, 0, 0): 1.0}],
            [1.0],
            {(0, 0, 0): -1.0},
        )
        sol = solve(problem)
        assert sol.status != "optimal"

    def test_pinned_scalar(self):
        problem = SdpProblem((1,), [{(0, 0, 0): 1.0}], [3.0], {(0, 0, 0): 1.0})
        sol = solve(problem)
        assert sol.status == "optimal"
        assert sol.objective_primal == pytest.approx(3.0, abs=1e-6)

    def test_max_iterations_reported(self):
        problem = assemble_sdp(2, 3, 1)
        sol = solve(problem, SolverOptions(max_iterations=2))
        assert sol.status in ("max_iterations", "optimal")
        assert sol.iterations <= 3

    def test_starting_iterate_never_optimal(self):
        # the starting iterate's relative gap is below this tolerance, so
        # stopping there would report alpha0 * I as the optimum
        sol = solve(assemble_sdp(1, 1, 1), SolverOptions(tolerance=1000.0))
        assert sol.status == "optimal"
        assert sol.iterations >= 2
        # nor through the best-iterate fallback when no later iterate is seen
        sol = solve(assemble_sdp(1, 1, 1), SolverOptions(tolerance=1000.0, max_iterations=1))
        assert sol.status == "max_iterations"
        assert sol.fallbacks == (("best_iterate", False),)

    @pytest.mark.parametrize("count", [0, -1])
    def test_max_iterations_below_one_rejected(self, count):
        with pytest.raises(ValueError, match="max_iterations must be at least 1"):
            solve(assemble_sdp(1, 1, 1), SolverOptions(max_iterations=count))


class TestFarkas:
    def test_infeasible_target_2_2(self):
        problem = assemble_sdp(2, 2, 1)
        cert = extract_farkas(problem, 0.4)
        assert cert is not None
        assert cert.margin > 0
        margin = farkas_check(problem, cert)
        assert margin > 0

    def test_feasible_target_gives_none(self):
        problem = assemble_sdp(2, 2, 1)
        assert extract_farkas(problem, 2.0) is None

    def test_margin_tracks_distance(self):
        problem = assemble_sdp(2, 2, 1)
        cert = extract_farkas(problem, 0.0)
        # margin = lambda* - target = 0.5
        assert cert.margin == pytest.approx(0.5, abs=1e-4)


def random_pd(rng, dim):
    g = rng.standard_normal((dim, dim))
    return g @ g.T + dim * np.eye(dim)


def svec_problem(reduced, m, n, sign):
    problem = assemble_sdp(m, n, sign)
    if reduced:
        problem, _ = symmetry_reduce(problem)
    keep, _ = _dedup_rows(problem)
    return problem, keep, _SvecConstraints(problem, keep)


class TestSvecCore:
    @pytest.mark.parametrize("reduced,m,n", [(True, 4, 4), (False, 3, 3)])
    def test_schur_blocks_match_dense_reference(self, reduced, m, n):
        problem, keep, cons = svec_problem(reduced, m, n, 1)
        rng = np.random.default_rng(3)
        ys = [random_pd(rng, d) for d in problem.block_dims]
        z_invs = [np.linalg.inv(random_pd(rng, d)) for d in problem.block_dims]
        y_stacks, z_stacks = cons.stack(ys), cons.stack(z_invs)
        for group, y_stack, z_stack in zip(cons.groups, y_stacks, z_stacks):
            parts = group.schur_parts(y_stack, z_stack)
            for k, rows, got in zip(group.blocks, group.rows, parts):
                dense = [problem.dense_matrix(problem.constraints[row])[k] for row in keep]
                # rows left out of the block are zero on it
                left_out = np.setdiff1d(np.arange(len(keep)), rows)
                assert all(not dense[row].any() for row in left_out)
                stack = np.array([dense[row] for row in rows])
                # S_ij = tr(C_i Y C_j Z^-1), one dense product per row pair
                flat = stack.reshape(len(stack), -1)
                ref = flat @ (ys[k] @ stack @ z_invs[k]).reshape(len(stack), -1).T
                assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)
        s = cons.schur(y_stacks, z_stacks)
        assert s.shape == (len(keep), len(keep))
        assert np.array_equal(s, s.T)

    @pytest.mark.parametrize("reduced,m,n", [(True, 4, 4), (False, 3, 3)])
    def test_a_and_at_are_adjoint(self, reduced, m, n):
        problem, keep, cons = svec_problem(reduced, m, n, -1)
        rng = np.random.default_rng(4)
        xs = []
        for d in problem.block_dims:
            g = rng.standard_normal((d, d))
            xs.append(g + g.T)
        y = rng.standard_normal(len(keep))
        ax = cons.a_of(cons.stack(xs))
        aty = cons.unstack(cons.at_of(y))
        lhs = float(ax @ y)
        rhs = sum(float((x * w).sum()) for x, w in zip(xs, aty))
        assert lhs == pytest.approx(rhs, rel=1e-12)
        for mat, d in zip(aty, problem.block_dims):
            assert mat.shape == (d, d)
            assert np.array_equal(mat, mat.T)
        # A(X)_i = tr(C_i X) against the dense data
        for pos, row in enumerate(keep):
            dense = problem.dense_matrix(problem.constraints[row])
            ref = sum(float((c * x).sum()) for c, x in zip(dense, xs))
            assert ax[pos] == pytest.approx(ref, rel=1e-12, abs=1e-12)

    def test_sums_over_blocks_run_in_block_order(self):
        # reduced (5,5,+1) interleaves sizes: blocks (1, 8, 6, 1, 1, 4, 4, 1, 1)
        problem, keep, cons = svec_problem(True, 5, 5, 1)
        assert [len(g.blocks) for g in cons.groups] == [5, 1, 1, 2]
        rng = np.random.default_rng(6)
        xs = [random_pd(rng, d) for d in problem.block_dims]
        z_invs = [np.linalg.inv(random_pd(rng, d)) for d in problem.block_dims]
        x_stacks, z_stacks = cons.stack(xs), cons.stack(z_invs)
        assert np.array_equal(cons.block_sums(x_stacks), [x.sum() for x in xs])
        # the per-block loop the stacked operator replaced, bit for bit
        ax = np.zeros(len(keep))
        s = np.zeros((len(keep), len(keep)))
        member = {}
        for g, x, z in zip(cons.groups, x_stacks, z_stacks):
            for pos, (k, part, v) in enumerate(zip(g.blocks, g.schur_parts(x, z), g.svec(x))):
                member[k] = (g.rows[pos], g.a[pos] @ v, part)
        for k in range(len(xs)):
            rows, a_part, s_part = member[k]
            ax[rows] += a_part
            s[np.ix_(rows, rows)] += s_part
        assert np.array_equal(cons.a_of(x_stacks), ax)
        assert np.array_equal(cons.schur(x_stacks, z_stacks), s)

    @pytest.mark.parametrize("dim", [_TRI_LEAF + 1, 3 * _TRI_LEAF + 7])
    def test_triangular_inverse(self, dim):
        assert dim % 2 == 1 and dim > _TRI_LEAF
        lower = np.linalg.cholesky(random_pd(np.random.default_rng(dim), dim))
        inv = _tril_inverse(lower)
        assert np.abs(inv @ lower - np.eye(dim)).max() <= 1e-12
        assert not np.triu(inv, 1).any()


def _max_step(deltas, chols):
    """Reference: the per-block step length, largest alpha with
    X + alpha*dX staying PSD, per Cholesky scaling."""
    alpha = np.inf
    for x_chol, dx in zip(chols, deltas):
        w = np.linalg.solve(x_chol, np.linalg.solve(x_chol, dx).T).T
        lam = np.linalg.eigvalsh(_sym(w)).min()
        if lam < -1e-14:
            alpha = min(alpha, -1.0 / lam)
    return alpha


def random_sym(rng, dim):
    g = rng.standard_normal((dim, dim))
    return g + g.T


class TestStackedSteps:
    DIMS = (1, 3, 1, 2, 3, 1)

    def stacked(self, mats):
        return [np.stack([mats[k] for k in g]) for g in _dim_groups(self.DIMS)]

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_block_reference(self, seed):
        rng = np.random.default_rng(seed)
        y_chols = [np.linalg.cholesky(random_pd(rng, d)) for d in self.DIMS]
        z_chols = [np.linalg.cholesky(random_pd(rng, d)) for d in self.DIMS]
        dys = [random_sym(rng, d) for d in self.DIMS]
        dzs = [random_sym(rng, d) for d in self.DIMS]
        # a PSD direction sets no bound on its block
        dys[seed % len(self.DIMS)] = random_pd(rng, self.DIMS[seed % len(self.DIMS)])
        if seed == 0:
            dzs = [random_pd(rng, d) for d in self.DIMS]
        chols = [np.concatenate(p) for p in zip(self.stacked(y_chols), self.stacked(z_chols))]
        deltas = [np.concatenate(p) for p in zip(self.stacked(dys), self.stacked(dzs))]
        expected = [_max_step(dys, y_chols), _max_step(dzs, z_chols)]
        assert _max_steps(deltas, chols) == expected
        assert (expected[1] == np.inf) == (seed == 0)

    def test_groups_in_order_of_first_appearance(self):
        assert _dim_groups(self.DIMS) == [[0, 2, 5], [1, 4], [3]]


class TestInterleavedBlocks:
    """Equal-size blocks that are not adjacent, with different rows each."""

    DIMS = (2, 1, 3, 1, 2)

    @pytest.fixture(scope="class")
    def data(self):
        rng = np.random.default_rng(5)
        rows = []
        for _ in range(6):
            touched = rng.choice(len(self.DIMS), size=rng.integers(1, 4), replace=False)
            rows.append({int(k): random_sym(rng, self.DIMS[k]) for k in touched})
        x0 = [random_pd(rng, d) for d in self.DIMS]
        rhs = [sum(float((c * x0[k]).sum()) for k, c in row.items()) for row in rows]
        # a positive definite objective keeps the problem bounded
        objective = dict(enumerate(random_pd(rng, d) for d in self.DIMS))
        return rows, rhs, objective

    def problem(self, data, order):
        """Block order[p] of the data becomes block p of the problem."""
        rows, rhs, objective = data
        where = {k: p for p, k in enumerate(order)}

        def sparse(mats):
            return {(where[k], i, j): float(mat[i, j])
                    for k, mat in mats.items()
                    for i in range(len(mat)) for j in range(i, len(mat))}

        dims = tuple(self.DIMS[k] for k in order)
        return SdpProblem(dims, [sparse(row) for row in rows], rhs, sparse(objective))

    def test_primal_blocks_in_block_order(self, data):
        problem = self.problem(data, range(len(self.DIMS)))
        sol = solve(problem)
        assert sol.status == "optimal"
        assert [blk.shape for blk in sol.primal_blocks] == [(d, d) for d in problem.block_dims]
        for entries, b in zip(problem.constraints, problem.rhs):
            dense = problem.dense_matrix(entries)
            value = sum(float((c * x).sum()) for c, x in zip(dense, sol.primal_blocks))
            assert value == pytest.approx(b, abs=1e-7)

    def test_block_order_does_not_change_objective(self, data):
        base = solve(self.problem(data, range(len(self.DIMS))))
        permuted = solve(self.problem(data, (4, 2, 0, 3, 1)))
        assert permuted.status == "optimal"
        assert permuted.objective_primal == pytest.approx(base.objective_primal, abs=1e-9)


class TestFallbacks:
    def test_indefinite_schur_uses_eigen_fallback(self):
        s = np.diag([1.0, 2.0, -1000.0])
        with pytest.warns(RuntimeWarning, match="could not be stabilized"):
            factor = _SchurFactor(s)
        assert factor.eig is not None
        assert factor.chol_inv is None
        # the negative eigenvalue is dropped from the pseudo-inverse
        assert factor.solve(np.array([1.0, 2.0, 3.0])) == pytest.approx([1.0, 1.0, 0.0])

    def test_dependent_rows_report_schur_shift(self):
        # x = 1 and 2x = 2: consistent, but the Schur complement is singular
        problem = SdpProblem(
            (1,),
            [{(0, 0, 0): 1.0}, {(0, 0, 0): 2.0}],
            [1.0, 2.0],
            {(0, 0, 0): 1.0},
        )
        sol = solve(problem)
        assert sol.status == "optimal"
        assert sol.objective_primal == pytest.approx(1.0, abs=1e-6)
        names = dict(sol.fallbacks)
        assert 0.0 < names["schur_shift"] <= 1e2

    def test_best_iterate_upgrade_reported(self):
        reduced, _ = symmetry_reduce(assemble_sdp(2, 3, 1))
        full = solve(reduced)
        assert full.status == "optimal"
        assert "best_iterate" not in dict(full.fallbacks)
        # one iteration short of convergence the best iterate is within
        # 100x the tolerance and is accepted as optimal
        sol = solve(reduced, SolverOptions(max_iterations=full.iterations - 1))
        assert sol.status == "optimal"
        assert ("best_iterate", True) in sol.fallbacks
        scale = 1.0 + abs(sol.objective_primal) + abs(sol.objective_dual)
        assert abs(sol.objective_primal - sol.objective_dual) <= 1e-6 * scale
        early = solve(reduced, SolverOptions(max_iterations=2))
        assert early.status == "max_iterations"
        assert ("best_iterate", False) in early.fallbacks
