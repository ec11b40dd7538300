"""Interior-point solver: brute-force LP oracle on random diagonal SDPs,
known optimal values of the assembled problems, and status handling."""

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
    _SchurFactor,
    _SvecConstraints,
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
        ys, z_invs = [], []
        for k, blk in enumerate(cons.blocks):
            dense = [problem.dense_matrix(problem.constraints[row])[k] for row in keep]
            # rows left out of the block are zero on it
            left_out = np.setdiff1d(np.arange(len(keep)), blk.rows)
            assert all(not dense[row].any() for row in left_out)
            stack = np.array([dense[row] for row in blk.rows])
            y = random_pd(rng, blk.dim)
            z_inv = np.linalg.inv(random_pd(rng, blk.dim))
            ys.append(y)
            z_invs.append(z_inv)
            # S_ij = tr(C_i Y C_j Z^-1), one dense product per row pair
            flat = stack.reshape(len(stack), -1)
            ref = flat @ (y @ stack @ z_inv).reshape(len(stack), -1).T
            got = blk.schur(y, z_inv)
            assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)
        s = cons.schur(ys, z_invs)
        assert s.shape == (len(keep), len(keep))
        assert np.array_equal(s, s.T)

    @pytest.mark.parametrize("reduced,m,n", [(True, 4, 4), (False, 3, 3)])
    def test_a_and_at_are_adjoint(self, reduced, m, n):
        problem, keep, cons = svec_problem(reduced, m, n, -1)
        rng = np.random.default_rng(4)
        xs = []
        for blk in cons.blocks:
            g = rng.standard_normal((blk.dim, blk.dim))
            xs.append(g + g.T)
        y = rng.standard_normal(len(keep))
        ax = cons.a_of(xs)
        aty = cons.at_of(y)
        lhs = float(ax @ y)
        rhs = sum(float((x * w).sum()) for x, w in zip(xs, aty))
        assert lhs == pytest.approx(rhs, rel=1e-12)
        for mat in aty:
            assert np.array_equal(mat, mat.T)
        # A(X)_i = tr(C_i X) against the dense data
        for pos, row in enumerate(keep):
            dense = problem.dense_matrix(problem.constraints[row])
            ref = sum(float((c * x).sum()) for c, x in zip(dense, xs))
            assert ax[pos] == pytest.approx(ref, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("dim", [_TRI_LEAF + 1, 3 * _TRI_LEAF + 7])
    def test_triangular_inverse(self, dim):
        assert dim % 2 == 1 and dim > _TRI_LEAF
        lower = np.linalg.cholesky(random_pd(np.random.default_rng(dim), dim))
        inv = _tril_inverse(lower)
        assert np.abs(inv @ lower - np.eye(dim)).max() <= 1e-12
        assert not np.triu(inv, 1).any()


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
