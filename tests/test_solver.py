"""Interior-point solver: brute-force LP oracle on random diagonal SDPs,
known optimal values of the assembled problems, status handling, the
padded block stack against per-block references, and lockstep batches
against lone solves."""

import itertools
import math
import random
import re

import numpy as np
import pytest

from ncagm import (
    SdpProblem,
    SolverOptions,
    assemble_sdp,
    extract_farkas,
    localizing_entry,
    monomial_basis,
    retargeting,
    solve,
    solve_many,
    symmetry_reduce,
)
from ncagm import sdp
from ncagm.certify import farkas_check
from ncagm.ncpoly import words_up_to
from ncagm.sdp import (
    _TRI_LEAF,
    SdpError,
    _dedup_rows,
    _max_steps,
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


def walk_arrays(constraints, objective):
    """The (matrix, block, i, j, value) arrays of one dict per constraint row
    and one for the objective, rows first, each dict in its own order."""
    walk = [(k, *key, v) for k, entries in enumerate([*constraints, objective], start=1)
            for key, v in entries.items()]
    matrix, blk, i, j, value = zip(*walk)
    return [k % (len(constraints) + 1) for k in matrix], blk, i, j, value


def dense(problem, entries):
    """Per-block dense arrays of one {(block, i, j): value} data matrix, read
    from the dict rather than the problem's flat record."""
    blocks = [np.zeros((d, d)) for d in problem.block_dims]
    for (blk, i, j), v in entries.items():
        blocks[blk][i, j] = blocks[blk][j, i] = v
    return blocks


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

    def test_empty_row_with_zero_rhs_dropped(self):
        # 0 = 0 says nothing; kept, it would be a zero row of the Schur
        # complement and make the diagonal shift fire
        problem = SdpProblem((1,), [{}, {(0, 0, 0): 1.0}], [0.0, 2.0], {(0, 0, 0): 1.0})
        sol = solve(problem)
        assert sol.status == "optimal"
        assert sol.fallbacks == ()
        assert sol.objective_primal == pytest.approx(2.0, abs=1e-6)
        assert sol.dual[0] == 0.0
        sol = solve(SdpProblem((1,), [{}], [0.0], {(0, 0, 0): 1.0}))
        assert sol.status == "optimal"
        assert sol.fallbacks == ()
        assert sol.objective_primal == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("rhs", [1.0, -0.5])
    def test_empty_row_with_nonzero_rhs_infeasible(self, rhs):
        problem = SdpProblem((1,), [{(0, 0, 0): 1.0}, {}], [1.0, rhs], {(0, 0, 0): 1.0})
        sol = solve(problem)
        assert sol.status == "infeasible"
        assert sol.iterations == 0

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

    @pytest.mark.parametrize("tolerance", [0.0, -1e-8, float("nan"), float("inf"), float("-inf")])
    def test_tolerance_not_positive_finite_rejected(self, tolerance):
        # such a tolerance never meets the stopping test, and would end as
        # numerical_failure instead of a usage error
        with pytest.raises(ValueError, match="tolerance must be positive and finite"):
            solve(assemble_sdp(1, 1, 1), SolverOptions(tolerance=tolerance))


class TestProblemChecks:
    def test_no_blocks_rejected(self):
        with pytest.raises(SdpError, match="at least one block"):
            SdpProblem((), [], [], {})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rhs_rejected(self, value):
        with pytest.raises(SdpError, match="right-hand side values must be finite"):
            SdpProblem((1,), [{(0, 0, 0): 1.0}], [value], {(0, 0, 0): 1.0})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_entry_rejected(self, value):
        with pytest.raises(SdpError, match="values must be finite"):
            SdpProblem((1, 2), [{(0, 0, 0): 1.0}, {(1, 0, 1): value}], [1.0, 0.0], {})
        with pytest.raises(SdpError, match="values must be finite"):
            SdpProblem((1, 2), [{(0, 0, 0): 1.0}], [1.0], {(1, 1, 1): value})

    def test_large_finite_values_accepted(self):
        problem = SdpProblem((1,), [{(0, 0, 0): 1e308}, {(0, 0, 0): 1e308}], [1e308, 1e308],
                             {(0, 0, 0): 1e308})
        assert problem.num_constraints == 2


class TestEntryRecord:
    """The flat record of the problem data, which every reader uses."""

    def test_lists_exactly_the_dict_entries(self):
        problem = SdpProblem((2, 1), [{(1, 0, 0): 4.0, (0, 0, 1): -1.5}, {}, {(0, 1, 1): 2}],
                             [1.0, 0.0, 3.0], {(1, 0, 0): -0.5, (0, 0, 0): 1.0})
        # (matrix, block, i, j, value), the objective as matrix 0, sorted
        assert problem.entries.tolist() == [
            (0, 0, 0, 0, 1.0), (0, 1, 0, 0, -0.5),
            (1, 0, 0, 1, -1.5), (1, 1, 0, 0, 4.0),
            (3, 0, 1, 1, 2.0),
        ]

    @pytest.mark.parametrize("m,n,sign", [(3, 3, 1), (3, 3, -1), (2, 4, 1)])
    def test_rows_match_localizing_entries(self, m, n, sign):
        # row w holds lambda on the unit word and minus the coefficient of w
        # in rev(beta_a) l_i beta_b on Y_i[a, b], folded onto a <= b, each
        # off-diagonal value standing for both mirrors
        problem = assemble_sdp(m, n, sign)
        basis = monomial_basis(n, m // 2)
        index = {w: k for k, w in enumerate(words_up_to(n, 2 * basis.d + 1))}
        expected = [{} for _ in index]
        expected[0][0, 0, 0] = 1.0
        for blk in range(1, n + 2):
            for a, b in itertools.product(range(basis.size), repeat=2):
                for word, c in localizing_entry(basis, blk, a, b).terms.items():
                    key = (blk, min(a, b), max(a, b))
                    row = expected[index[word]]
                    row[key] = row.get(key, 0.0) - c * (1.0 if a == b else 0.5)
        expected = [{key: v for key, v in row.items() if v} for row in expected]
        assert problem.objective == {(0, 0, 0): 1.0}
        assert problem.constraints == expected
        assert problem.entries.tolist() == [(0, 0, 0, 0, 1.0)] + sorted(
            (k + 1, *key, v) for k, row in enumerate(expected) for key, v in row.items())
        for k, entries in enumerate([{(0, 0, 0): 1.0}, *expected]):
            for got, ref in zip(problem.dense_matrix(k), dense(problem, entries)):
                assert np.array_equal(got, ref)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_dict_constructor_rebuilds_record(self, n):
        # every full and reduced problem with m <= n, both signs: the views
        # carry the whole record
        for m, sign in itertools.product(range(1, n + 1), (1, -1)):
            full = assemble_sdp(m, n, sign)
            for p in (full, symmetry_reduce(full)[0]):
                back = SdpProblem(p.block_dims, p.constraints, p.rhs, p.objective, p.meta)
                assert back.entries.tobytes() == p.entries.tobytes()

    def test_views_equal_input_dicts(self):
        constraints = [{(1, 0, 1): -0.0, (0, 0, 0): 2}, {}, {(1, 1, 1): 0.0, (1, 0, 0): -1.5}]
        objective = {(1, 0, 0): -0.0}
        problem = SdpProblem((1, 2), constraints, [1.0, 0.0, 2.0], objective)

        def signed(entries):
            return {key: (v, math.copysign(1.0, v)) for key, v in entries.items()}

        assert list(map(signed, problem.constraints)) == list(map(signed, constraints))
        assert signed(problem.objective) == signed(objective)

    @pytest.mark.parametrize("reduced", [False, True], ids=["full", "reduced"])
    @pytest.mark.parametrize("m,n", [(3, 3), (4, 5), (5, 5)])
    def test_readers_match_dict_references(self, m, n, reduced):
        problem = assemble_sdp(m, n, 1)
        if reduced:
            problem = symmetry_reduce(problem)[0]
        # row dedup keyed by the dicts themselves
        rows = problem.constraints
        seen, keep = set(), []
        for k, entries in enumerate(rows):
            key = tuple(sorted(entries.items()))
            if key not in seen:
                seen.add(key)
                keep.append(k)
        kept, source = _dedup_rows(problem)
        assert kept == keep
        # every row points at the kept row with its dict, and repeats agree
        # on the rhs
        for k, entries in enumerate(rows):
            assert source[k] in keep and rows[source[k]] == entries
            assert problem.rhs[source[k]] == problem.rhs[k]
        # each data matrix, zero signs included
        for k, entries in enumerate([problem.objective, *rows]):
            for got, ref in zip(problem.dense_matrix(k), dense(problem, entries)):
                assert got.tobytes() == ref.tobytes()
        # y0*C0 + sum y_k C_k accumulated entry by entry in row order, with
        # some y_k = 0; the record's sum adds in the same order
        y = np.random.default_rng(5).standard_normal(problem.num_constraints)
        y[::3] = 0.0
        blocks = [-1.0 * blk for blk in dense(problem, problem.objective)]
        for yk, entries in zip(y, rows):
            if yk != 0.0:
                for (blk, i, j), v in entries.items():
                    blocks[blk][i, j] += yk * v
                    if i != j:
                        blocks[blk][j, i] += yk * v
        ref = max(float(np.linalg.eigvalsh(blk).max()) for blk in blocks)
        assert sdp.psd_defect_of(problem, -1.0, y) == ref

    def test_entry_key_overflow_rejected(self):
        with pytest.raises(SdpError, match="too large"):
            SdpProblem((2 ** 31,), [{(0, 0, 0): 1.0}], [1.0], {})

    def test_writing_raises(self):
        entries = assemble_sdp(2, 2, 1).entries
        with pytest.raises(ValueError):
            entries.value[0] = 2.0
        with pytest.raises(ValueError):
            entries[0] = (0, 0, 0, 0, 2.0)

    @pytest.mark.parametrize("constraints,objective,message", [
        ([{(0, 0, 0): 1.0}, {(2, 0, 0): 1.0}], {}, r"^block index 2 out of range$"),
        ([{}], {(-1, 0, 0): 1.0}, r"^block index -1 out of range$"),
        ([{(1, 0, 2): 1.0}], {}, r"^entry \(0,2\) out of range for block of dim 2$"),
        ([{(0, -1, 0): 1.0}], {}, r"^entry \(-1,0\) out of range for block of dim 1$"),
        # the first bad entry in walk order, constraint rows before the
        # objective, is the one reported
        ([{(1, 1, 0): 1.0}], {(3, 0, 0): 1.0}, r"^entry \(1,0\) out of range for block of dim 2$"),
        ([{(0, 0): 1.0}], {}, r"^entry keys must be \(block, i, j\) triples$"),
    ])
    def test_bad_keys_rejected(self, constraints, objective, message):
        rhs = [0.0] * len(constraints)
        with pytest.raises(SdpError, match=message):
            SdpProblem((1, 2), constraints, rhs, objective)
        if "triples" not in message:
            with pytest.raises(SdpError, match=message):
                SdpProblem.from_entries((1, 2), *walk_arrays(constraints, objective), rhs)

    @pytest.mark.parametrize("dims,arrays,message", [
        # index ranges shared with the dict constructor are in
        # test_bad_keys_rejected
        ((1, 2), ([2], [0], [0], [0], [1.0]), r"^matrix index 2 out of range$"),
        ((1, 2), ([-1], [0], [0], [0], [1.0]), r"^matrix index -1 out of range$"),
        ((1, 2), ([1], [1], [0], [1], [math.nan]), r"values must be finite$"),
        ((1, 2), ([0, 1], [0, 1], [0, 0], [0, 1], [1.0, -math.inf]), r"values must be finite$"),
        ((2 ** 31,), ([1], [0], [0], [0], [1.0]), r"^problem too large"),
        ((1, 2), ([1, 0], [0, 0], [0, 0], [0], [1.0, 1.0]), r"^entry arrays must have equal"),
        # the first repeat in (matrix, block, i, j) order is the one reported
        ((1, 2), ([1, 1, 0, 1, 0], [1, 0, 0, 1, 0], [0, 0, 0, 0, 0], [1, 0, 0, 1, 0],
                  [1.0, 2.0, 1.0, 1.0, 1.0]),
         r"^entry \(0,0\) of block 0 repeated in matrix 0$"),
        ((1, 2), ([1, 1, 1], [1, 0, 1], [0, 0, 0], [1, 0, 1], [1.0, 2.0, -1.0]),
         r"^entry \(0,1\) of block 1 repeated in matrix 1$"),
    ])
    def test_bad_arrays_rejected(self, dims, arrays, message):
        with pytest.raises(SdpError, match=message):
            SdpProblem.from_entries(dims, *arrays, [0.0])

    def test_rows_equal_up_to_signed_zero_deduplicated(self):
        problem = SdpProblem((1, 1), [{(0, 0, 0): 1.0, (1, 0, 0): 0.0},
                                      {(0, 0, 0): 1.0, (1, 0, 0): -0.0}],
                             [1.0, 1.0], {(0, 0, 0): 1.0})
        kept, source = _dedup_rows(problem)
        assert kept == [0]
        assert source.tolist() == [0, 0]
        assert solve(problem).status == "optimal"


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
    """The constraint operator on a batch of problems, each checked against
    its own dense reference."""

    # reduced (5,5) interleaves sizes: blocks (1, 8, 6, 1, 1, 4, 4, 1, 1)
    @pytest.mark.parametrize("reduced,m,n", [(True, 4, 4), (False, 3, 3), (True, 5, 5)])
    def test_schur_blocks_match_dense_reference(self, reduced, m, n):
        problem, keep, cons = svec_problem(reduced, m, n, 1)
        rng = np.random.default_rng(3)
        # two problems: their iterates differ, the constraints are shared
        ys = [[random_pd(rng, d) for d in problem.block_dims] for _ in range(2)]
        z_invs = [[np.linalg.inv(random_pd(rng, d)) for d in problem.block_dims]
                  for _ in range(2)]
        y_stack = np.stack([cons.stack(blocks) for blocks in ys])
        z_stack = np.stack([cons.stack(blocks) for blocks in z_invs])
        full = np.zeros((2, len(keep), len(keep)))
        parts = list(cons.schur_parts(y_stack, z_stack))
        assert len(parts) == len(problem.block_dims)
        data = problem.constraints
        for k, (rows, got) in enumerate(zip(cons.rows, parts)):
            on_block = [dense(problem, data[row])[k] for row in keep]
            # rows left out of the block are zero on it
            left_out = np.setdiff1d(np.arange(len(keep)), rows)
            assert all(not on_block[row].any() for row in left_out)
            stack = np.array([on_block[row] for row in rows])
            assert got.shape == (2, len(rows), len(rows))
            for p in range(2):
                # S_ij = tr(C_i Y C_j Z^-1), one dense product per row pair
                flat = stack.reshape(len(stack), -1)
                ref = flat @ (ys[p][k] @ stack @ z_invs[p][k]).reshape(len(stack), -1).T
                assert np.linalg.norm(got[p] - ref) <= 1e-10 * np.linalg.norm(ref)
                full[p][np.ix_(rows, rows)] += ref
        s = cons.schur(y_stack, z_stack)
        assert s.shape == (2, len(keep), len(keep))
        for p in range(2):
            assert np.array_equal(s[p], s[p].T)
            # every block's part lands on its own rows of the assembled matrix
            assert np.linalg.norm(s[p] - full[p]) <= 1e-10 * np.linalg.norm(full[p])
            # and each problem's complement is the one it gets alone
            alone = cons.schur(cons.stack(ys[p])[None], cons.stack(z_invs[p])[None])
            assert np.array_equal(s[p], alone[0])

    # reduced (5,5) interleaves sizes: blocks (1, 8, 6, 1, 1, 4, 4, 1, 1)
    @pytest.mark.parametrize("reduced,m,n", [(True, 4, 4), (False, 3, 3), (True, 5, 5)])
    def test_a_and_at_are_adjoint(self, reduced, m, n):
        problem, keep, cons = svec_problem(reduced, m, n, -1)
        rng = np.random.default_rng(4)
        xs = [[random_sym(rng, d) for d in problem.block_dims] for _ in range(2)]
        y = rng.standard_normal((2, len(keep)))
        x_stack = np.stack([cons.stack(blocks) for blocks in xs])
        ax = cons.a_of(x_stack)
        aty_stack = cons.at_of(y)
        data = problem.constraints
        assert ax.shape == (2, len(keep))
        assert aty_stack.shape == x_stack.shape
        for p, aty_p in enumerate(aty_stack):
            # A^T(y) is zero on the padding
            assert np.array_equal(aty_p, cons.stack(cons.unstack(aty_p)))
            aty = cons.unstack(aty_p)
            lhs = float(ax[p] @ y[p])
            rhs = sum(float((x * w).sum()) for x, w in zip(xs[p], aty))
            assert lhs == pytest.approx(rhs, rel=1e-12)
            for mat, d in zip(aty, problem.block_dims):
                assert mat.shape == (d, d)
                assert np.array_equal(mat, mat.T)
            # A(X)_i = tr(C_i X) against the dense data
            for pos, row in enumerate(keep):
                ref = sum(float((c * x).sum())
                          for c, x in zip(dense(problem, data[row]), xs[p]))
                assert ax[p, pos] == pytest.approx(ref, rel=1e-12, abs=1e-12)
            # each problem's images are the ones it gets alone
            assert np.array_equal(ax[p], cons.a_of(cons.stack(xs[p])[None])[0])
            assert np.array_equal(aty_p, cons.at_of(y[p:p + 1])[0])

    # 51 rows, the reduced (5,5) Schur complement, is a single leaf; with
    # ``pivot`` the first column below the diagonal exceeds the diagonal
    # entry, so LU pivots and leaves rounding noise above the diagonal
    @pytest.mark.parametrize("dim,pivot", [
        pytest.param(dim, pivot, id=f"{dim}-pivot" if pivot else str(dim))
        for dim, pivot in [(51, False), (51, True), (_TRI_LEAF + 1, False),
                           (3 * _TRI_LEAF + 7, False)]])
    def test_triangular_inverse(self, dim, pivot):
        assert dim % 2 == 1
        rng = np.random.default_rng(dim)
        lower = np.linalg.cholesky(np.array([random_pd(rng, dim) for _ in range(2)]))
        if pivot:
            lower[:, 1:, 0] = 4.0 * lower[:, :1, 0]
        inv = _tril_inverse(lower.copy())
        for p in range(2):
            assert np.abs(inv[p] @ lower[p] - np.eye(dim)).max() <= 1e-12
            assert not np.triu(inv[p], 1).any()
            assert np.array_equal(inv[p], _tril_inverse(lower[p:p + 1].copy())[0])


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


def padded(dims):
    """The constraint operator of a problem with blocks ``dims`` and no
    rows, for its padded stack layout."""
    return _SvecConstraints(SdpProblem(dims, [], [], {}), [])


class TestStackedSteps:
    DIMS = (1, 3, 1, 2, 3, 1)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_per_block_reference(self, seed):
        rng = np.random.default_rng(seed)
        cons = padded(self.DIMS)
        # a batch of two problems; a PSD direction sets no bound on its block
        problems = []
        for p in range(2):
            y_chols = [np.linalg.cholesky(random_pd(rng, d)) for d in self.DIMS]
            z_chols = [np.linalg.cholesky(random_pd(rng, d)) for d in self.DIMS]
            dys = [random_sym(rng, d) for d in self.DIMS]
            dzs = [random_sym(rng, d) for d in self.DIMS]
            k = (seed + p) % len(self.DIMS)
            dys[k] = random_pd(rng, self.DIMS[k])
            if seed == 0 and p == 0:
                dzs = [random_pd(rng, d) for d in self.DIMS]
            problems.append((y_chols, z_chols, dys, dzs))
        # [Y; Z] of the batch: the Y stack of every problem, then the Z stacks
        chols = np.stack([cons.stack(pr[i]) for i in (0, 1) for pr in problems]) + cons.pad
        deltas = np.stack([cons.stack(pr[i]) for i in (2, 3) for pr in problems])
        steps = _max_steps(deltas, np.linalg.inv(chols))
        assert steps.shape == (2, 2)
        for p, (y_chols, z_chols, dys, dzs) in enumerate(problems):
            expected = [_max_step(dys, y_chols), _max_step(dzs, z_chols)]
            assert list(steps[:, p]) == pytest.approx(expected, rel=1e-10)
            assert (expected[1] == np.inf) == (seed == 0 and p == 0)

    def test_padded_factors_are_exact(self):
        # Cholesky of Y + P is diag(L, I), and its inverse diag(L^-1, I),
        # to the last bit on the padding, for every problem of a batch
        cons = padded(self.DIMS)
        rng = np.random.default_rng(9)
        blocks = [[random_pd(rng, d) for d in self.DIMS] for _ in range(2)]
        chol = np.linalg.cholesky(np.stack([cons.stack(b) for b in blocks]) + cons.pad)
        inv = np.linalg.inv(chol)
        for p in range(2):
            for mat in (chol, inv):
                assert np.array_equal(mat[p] - cons.stack(cons.unstack(mat[p])), cons.pad)
            for k, d in enumerate(self.DIMS):
                assert np.allclose(chol[p, k, :d, :d], np.linalg.cholesky(blocks[p][k]),
                                   rtol=1e-13)


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
            value = sum(float((c * x).sum())
                        for c, x in zip(dense(problem, entries), sol.primal_blocks))
            assert value == pytest.approx(b, abs=1e-7)

    def test_padding_stays_zero(self, data, monkeypatch):
        """Every iterate and both directions of every problem in a batch are
        exactly zero off their blocks' corners of the padded stack, at every
        iteration."""
        problem = self.problem(data, range(len(self.DIMS)))
        # a second problem with the same constraints and another feasible rhs
        rng = np.random.default_rng(6)
        x1 = [random_pd(rng, d) for d in self.DIMS]
        sibling = [sum(float((c * x).sum()) for c, x in zip(dense(problem, row), x1))
                   for row in problem.constraints]
        cons = padded(problem.block_dims)
        off = cons.stack([np.ones((d, d)) for d in self.DIMS]) == 0
        seen = {"dots": 0, "steps": 0}
        dots, max_steps = sdp._dots, sdp._max_steps

        def padding(stacks):
            return stacks[:, off]

        def checked_dots(xs, ws):
            # pobj, the gap, the dual residual and the affine gap: C0, Y, Z,
            # their residuals and trial iterates, each problem's own stack
            if xs.shape[1:] == off.shape:
                assert not padding(xs).any()
                assert not (padding(ws) if ws.ndim == xs.ndim else ws[off]).any()
                seen["dots"] += 1
            return dots(xs, ws)

        def checked_steps(deltas, chol_invs):
            # [dY; dZ] of every problem, predictor and corrector
            assert not padding(deltas).any()
            seen["steps"] += 1
            return max_steps(deltas, chol_invs)

        monkeypatch.setattr(sdp, "_dots", checked_dots)
        monkeypatch.setattr(sdp, "_max_steps", checked_steps)
        sols = solve_many(problem, [problem.rhs, sibling])
        assert [sol.status for sol in sols] == ["optimal", "optimal"]
        longest = max(sol.iterations for sol in sols)
        assert seen["steps"] == 2 * (longest - 1)
        assert seen["dots"] >= 3 * (longest - 1)

    def test_block_order_does_not_change_objective(self, data):
        base = solve(self.problem(data, range(len(self.DIMS))))
        permuted = solve(self.problem(data, (4, 2, 0, 3, 1)))
        assert permuted.status == "optimal"
        assert permuted.objective_primal == pytest.approx(base.objective_primal, abs=1e-9)


class TestFallbacks:
    def test_unfactorable_schur_ends_numerical_failure(self, monkeypatch):
        reduced, _ = symmetry_reduce(assemble_sdp(2, 3, 1))
        # the block stacks are D x D; the Schur complements, batched or one
        # at a time, are m x m
        rows = len(_dedup_rows(reduced)[0])
        assert rows != max(reduced.block_dims)
        cholesky = np.linalg.cholesky

        def failing(mat):
            if np.shape(mat)[-1] == rows:
                raise np.linalg.LinAlgError("Matrix is not positive definite")
            return cholesky(mat)

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        sol = solve(reduced)
        assert sol.status == "numerical_failure"
        assert sol.iterations == 1
        # the starting iterate is the only one, and it is not accepted
        assert sol.fallbacks == (("best_iterate", False),)

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


class TestStoppingTest:
    def test_optimal_needs_the_objective_gap(self):
        opts = SolverOptions()
        run = sdp._Run()
        ys, y = np.zeros((1, 1, 1)), np.zeros(1)
        # relative gap 3e-10, pres and dres 1e-9, all within the tolerance;
        # the objectives 1e-7 apart, 3.3e-8 relative to their size, are not
        assert run.goes_on(1, ys, y, 1.0, 1.0 - 1e-7, 1e-9, 1e-9, 1e-9, opts)
        assert run.status == "max_iterations"
        # the same residuals with the objectives 1e-8 apart are optimal
        assert not run.goes_on(2, ys, y, 1.0, 1.0 - 1e-8, 1e-9, 1e-9, 1e-9, opts)
        assert run.status == "optimal"


def assert_same_solution(got, ref):
    """Bit for bit: objectives, gap, status, counts, fallbacks and both
    iterates."""
    assert (repr(got.objective_primal), repr(got.objective_dual), repr(got.gap)) == (
        repr(ref.objective_primal), repr(ref.objective_dual), repr(ref.gap))
    assert (got.status, got.iterations, got.fallbacks) == (ref.status, ref.iterations,
                                                           ref.fallbacks)
    assert got.dual.tobytes() == ref.dual.tobytes()
    assert [blk.tobytes() for blk in got.primal_blocks] == [
        blk.tobytes() for blk in ref.primal_blocks]


def table_groups(heavy_rows):
    """The (n, d) groups of `table --heavy`: each group's reduced problem,
    its targets (m, n, sign), both signs per row, and their right-hand
    sides, retargeted from that problem."""
    from itertools import groupby

    from ncagm.cli import DEFAULT_ROWS
    for (n, _), rows in groupby(DEFAULT_ROWS + heavy_rows, key=lambda row: (row[1], row[0] // 2)):
        ms = [m for m, _ in rows]
        problem = symmetry_reduce(assemble_sdp(ms[0], n, -1))[0]
        to_target = retargeting(problem)
        targets = [(m, n, sign) for m in ms for sign in (-1, 1)]
        yield problem, targets, [to_target(m, sign) for m, _, sign in targets]


def with_rhs(problem, rhs):
    """A problem of its own: ``problem``'s data with right-hand side
    ``rhs``."""
    e = problem.entries
    return SdpProblem.from_entries(problem.block_dims, e.matrix, e.block, e.i, e.j, e.value,
                                   rhs, dict(problem.meta))


def with_duplicate_row(problem):
    """``problem``'s data with its first row repeated, and the repeat's
    rhs appended."""
    rows = problem.constraints
    return SdpProblem(problem.block_dims, rows + rows[:1], list(problem.rhs) + [problem.rhs[0]],
                      problem.objective, dict(problem.meta))


class TestBatchedSolve:
    """solve_many runs one problem's right-hand sides in lockstep; each
    must end exactly as a lone solve with that right-hand side."""

    def test_table_groups_match_lone_solves(self):
        from ncagm.cli import HEAVY_ROWS
        groups = list(table_groups(HEAVY_ROWS))
        assert len(groups) == 10 and sum(len(rhs) for _, _, rhs in groups) == 28
        for problem, _, rhs in groups:
            for got, b in zip(solve_many(problem, rhs), rhs):
                assert_same_solution(got, solve(with_rhs(problem, b)))

    def test_table_trace_pinned(self):
        # (m, n) -> iterations of the sign -1 and +1 solves of `table
        # --heavy`, batched as the table runs them; all end optimal on the
        # main test, and only the three in ``shifted`` fire the Schur shift
        # (no best iterate anywhere)
        from ncagm.cli import HEAVY_ROWS
        iterations = {
            (1, 1): (8, 8), (1, 2): (8, 8), (2, 2): (11, 9), (1, 3): (8, 8), (2, 3): (10, 10),
            (3, 3): (10, 12), (1, 4): (8, 8), (2, 4): (9, 13), (3, 4): (11, 15),
            (4, 4): (14, 22), (2, 5): (9, 13), (3, 5): (10, 15), (4, 5): (15, 18),
            (5, 5): (14, 15)}
        shifted = {(4, 4, 1), (4, 5, 1), (5, 5, 1)}
        trace = {}
        for problem, targets, rhs in table_groups(HEAVY_ROWS):
            for (m, n, sign), sol in zip(targets, solve_many(problem, rhs)):
                trace[m, n, sign] = (sol.status, sol.iterations,
                                     tuple(name for name, _ in sol.fallbacks))
        assert trace == {
            (m, n, sign): ("optimal", its[sign > 0],
                           ("schur_shift",) if (m, n, sign) in shifted else ())
            for (m, n), its in iterations.items() for sign in (-1, 1)}
        assert sum(its for _, its, _ in trace.values()) == 319

    @pytest.mark.parametrize("n", [2, 3])
    def test_unreduced_pairs_match_lone_solves(self, n):
        full = assemble_sdp(2, n, 1)
        to_target = retargeting(full)
        rhs = [to_target(m, sign) for m in range(2, n + 1) for sign in (-1, 1)]
        for got, b in zip(solve_many(full, rhs), rhs):
            assert_same_solution(got, solve(with_rhs(full, b)))

    def test_mixed_batch_keeps_each_outcome(self):
        reduced, _ = symmetry_reduce(assemble_sdp(4, 4, -1))
        to_target = retargeting(reduced)
        lam1, lam2 = to_target(4, -1), to_target(4, 1)
        # the repeated row contradicts its original in the second
        # right-hand side
        base = with_duplicate_row(reduced)
        batch = [lam1 + [lam1[0]], lam1 + [lam1[0] + 1.0], lam2 + [lam2[0]]]
        sols = solve_many(base, batch)
        assert sols[1].status == "infeasible" and sols[1].iterations == 0
        assert [sol.status for sol in (sols[0], sols[2])] == ["optimal", "optimal"]
        assert sols[0].iterations != sols[2].iterations
        # the Schur shift fires in lambda_2's run only
        assert "schur_shift" not in dict(sols[0].fallbacks)
        assert "schur_shift" in dict(sols[2].fallbacks)
        for got, b in zip(sols, batch):
            assert_same_solution(got, solve(with_rhs(base, b)))
        # the repeat changes nothing: the same run as without it, with a 0 dual
        for got, b in ((sols[0], lam1), (sols[2], lam2)):
            alone = solve(with_rhs(reduced, b))
            assert got.dual[-1] == 0.0
            assert got.dual[:-1].tobytes() == alone.dual.tobytes()
            assert (got.objective_primal, got.iterations, got.fallbacks) == (
                alone.objective_primal, alone.iterations, alone.fallbacks)

    def test_right_hand_sides_are_checked(self):
        problem = assemble_sdp(2, 2, 1)
        assert problem.num_constraints == 15
        for row in (problem.rhs[:-1], problem.rhs + [0.0], []):
            with pytest.raises(ValueError, match=r"^each right-hand side needs 15 values$"):
                solve_many(problem, [problem.rhs, row])
        for value in (math.nan, math.inf, -math.inf):
            row = list(problem.rhs)
            row[3] = value
            with pytest.raises(SdpError, match=r"^right-hand side values must be finite$"):
                solve_many(problem, [problem.rhs, row])
        assert solve_many(problem, []) == []

    def test_verbose_output_of_a_lone_solve(self, capsys):
        problem = SdpProblem((1, 2), [{(0, 0, 0): 1.0, (1, 0, 1): 1.0}, {(1, 1, 1): 1.0}],
                             [2.0, 1.0], {(0, 0, 0): 1.0, (1, 0, 0): 1.0})
        sol = solve(problem, SolverOptions(verbose=True))
        lines = capsys.readouterr().out.splitlines()
        # one line per iteration, in the format of a lone solve
        number = r"[+-]\d\.\d{8}e[+-]\d\d"
        short = r"-?\d\.\d\de[+-]\d\d"
        pattern = (rf"  iter +(\d+)  pobj {number}  dobj {number} gap {short}  "
                   rf"pres {short}  dres {short}")
        assert [int(re.fullmatch(pattern, line).group(1)) for line in lines] == list(
            range(sol.iterations))
        assert lines[0] == ("  iter   0  pobj +8.82842712e+00  dobj +0.00000000e+00 "
                            "gap 5.95e+00  pres 1.29e+00  dres 2.71e+00")
        # a batch prints each problem's lines as it does alone
        sibling = [3.0, 1.0]
        solve(with_rhs(problem, sibling), SolverOptions(verbose=True))
        alone = lines + capsys.readouterr().out.splitlines()
        solve_many(problem, [problem.rhs, sibling], SolverOptions(verbose=True))
        assert sorted(capsys.readouterr().out.splitlines()) == sorted(alone)


class TestFailureIsolation:
    """A failure in one right-hand side of a batch ends its run only."""

    @pytest.fixture
    def batch(self):
        reduced, _ = symmetry_reduce(assemble_sdp(2, 3, 1))
        # the second right-hand side's primal iterates are a million times
        # larger
        return reduced, [1e6 * v for v in reduced.rhs]

    def patched_cholesky(self, monkeypatch, last_dim, limit):
        """np.linalg.cholesky, failing on any stack of last dimension
        ``last_dim`` that holds an entry above ``limit``; returns the
        largest entry it saw in such a stack."""
        cholesky = np.linalg.cholesky
        seen = [0.0]

        def failing(mat):
            if np.shape(mat)[-1] == last_dim:
                largest = float(np.abs(mat).max())
                seen[0] = max(seen[0], largest)
                if largest > limit:
                    raise np.linalg.LinAlgError("Matrix is not positive definite")
            return cholesky(mat)

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        return seen

    def test_iterate_factorization(self, batch, monkeypatch):
        reduced, scaled = batch
        alone = solve(reduced)
        self.patched_cholesky(monkeypatch, max(reduced.block_dims), 1e5)
        got, failed = solve_many(reduced, [reduced.rhs, scaled])
        assert_same_solution(got, alone)
        # the scaled problem's starting iterate is already too large
        assert failed.status == "numerical_failure"
        assert failed.iterations == 1
        assert failed.fallbacks == (("best_iterate", False),)

    def test_schur_factorization(self, batch, monkeypatch):
        reduced, scaled = batch
        rows = len(_dedup_rows(reduced)[0])
        # the largest Schur complement entry of the problem's own run
        largest = self.patched_cholesky(monkeypatch, rows, np.inf)
        alone = solve(reduced)
        self.patched_cholesky(monkeypatch, rows, 10.0 * largest[0])
        got, failed = solve_many(reduced, [reduced.rhs, scaled])
        assert_same_solution(got, alone)
        # the Schur complements start equal, A A^T; the scaled problem's
        # grows with its primal iterate, and then fails at any shift
        assert failed.status == "numerical_failure"
        assert 1 < failed.iterations < alone.iterations
        assert dict(failed.fallbacks)["best_iterate"] is False

    def test_non_finite_objective(self, batch):
        reduced, _ = batch
        alone = solve(reduced)
        huge = [1e300 * v for v in reduced.rhs]
        failed, got = solve_many(reduced, [huge, reduced.rhs])
        assert_same_solution(got, alone)
        # <Y, Z> overflows at the starting iterate
        assert failed.status == "numerical_failure"
        assert failed.iterations == 1
        assert not np.isfinite(failed.gap)
        assert failed.fallbacks == ()
