"""SDP assembly: monomial bases, localizing data, structural counts,
coefficient-matching completeness against a symbolic re-expansion, and
retargeting a built problem to another (m, sign) of the same n and d."""

import random

import numpy as np
import pytest

from ncagm import (
    InvarianceError,
    NCPolynomial,
    SdpProblem,
    assemble_sdp,
    distinct_product_sum,
    localizing_entry,
    monomial_basis,
    poly_transpose,
    retargeting,
    symmetry_reduce,
)
from ncagm.ncpoly import words_up_to


class TestMonomialBasis:
    def test_size_5_2(self):
        assert monomial_basis(5, 2).size == 31

    def test_basis_3_1(self):
        basis = monomial_basis(3, 1)
        assert basis.words == ((), (1,), (2,), (3,))
        assert basis.size == 4

    def test_basis_1_3(self):
        basis = monomial_basis(1, 3)
        assert basis.words == ((), (1,), (1, 1), (1, 1, 1))

    def test_size_formula(self):
        for n in range(1, 5):
            for d in range(0, 4):
                assert monomial_basis(n, d).size == sum(n**i for i in range(d + 1))

    def test_ordering_and_uniqueness(self):
        basis = monomial_basis(3, 2)
        assert basis.words[0] == ()
        assert len(set(basis.words)) == basis.size
        keyed = sorted(basis.words, key=lambda w: (len(w), w))
        assert list(basis.words) == keyed

    def test_index_roundtrip(self):
        basis = monomial_basis(2, 2)
        for k, w in enumerate(basis.words):
            assert basis.index(w) == k

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            monomial_basis(0, 1)
        with pytest.raises(ValueError):
            monomial_basis(2, -1)


class TestLocalizingEntry:
    def test_unit_sandwich_letter(self):
        basis = monomial_basis(2, 0)
        assert localizing_entry(basis, 1, 0, 0) == NCPolynomial.letter(2, 1)

    def test_triple_product(self):
        basis = monomial_basis(2, 1)
        a = basis.index((2,))
        assert localizing_entry(basis, 1, a, a) == NCPolynomial.from_word(2, (2, 1, 2))

    def test_constant_sandwich(self):
        basis = monomial_basis(2, 1)
        expected = NCPolynomial(2, {(): 2, (1,): -1, (2,): -1})
        assert localizing_entry(basis, 3, 0, 0) == expected

    def test_transpose_symmetry(self):
        basis = monomial_basis(2, 1)
        for i in range(1, 4):
            for a in range(basis.size):
                for b in range(basis.size):
                    lhs = localizing_entry(basis, i, a, b)
                    rhs = poly_transpose(localizing_entry(basis, i, b, a))
                    assert lhs == rhs

    def test_degree_bound(self):
        basis = monomial_basis(3, 2)
        rng = random.Random(11)
        for _ in range(100):
            i = rng.randint(1, 4)
            a = rng.randrange(basis.size)
            b = rng.randrange(basis.size)
            assert localizing_entry(basis, i, a, b).degree() <= 5

    def test_index_errors(self):
        basis = monomial_basis(2, 1)
        with pytest.raises(ValueError):
            localizing_entry(basis, 0, 0, 0)
        with pytest.raises(ValueError):
            localizing_entry(basis, 4, 0, 0)
        with pytest.raises(ValueError):
            localizing_entry(basis, 1, 0, basis.size)


class TestAssembleSdp:
    def test_structural_counts_5_5(self):
        prob = assemble_sdp(5, 5, 1)
        assert prob.num_constraints == 3906
        assert prob.block_dims == (1, 31, 31, 31, 31, 31, 31)
        assert prob.scalar_variable_count == 31 * 31 * 6 + 1
        assert prob.total_dim == 187

    def test_structural_counts_1_3(self):
        prob = assemble_sdp(1, 3, 1)
        assert prob.meta["d"] == 0
        assert prob.block_dims == (1, 1, 1, 1, 1)
        assert prob.num_constraints == 4  # words of degree <= 1 over 3 letters

    def test_structural_counts_2_2(self):
        prob = assemble_sdp(2, 2, 1)
        assert prob.block_dims == (1, 3, 3, 3)
        assert prob.num_constraints == 15  # 1 + 2 + 4 + 8

    def test_constraint_count_formula(self):
        for n in range(1, 5):
            for m in range(1, n + 1):
                d = m // 2
                prob = assemble_sdp(m, n, 1)
                assert prob.num_constraints == sum(n**i for i in range(2 * d + 2))
                assert len(prob.block_dims) == n + 2

    def test_objective_selects_lambda(self):
        prob = assemble_sdp(2, 3, 1)
        assert prob.objective == {(0, 0, 0): 1.0}

    def test_unit_word_constraint(self):
        # the unit-word row carries lambda with coefficient 1 and rhs 0
        prob = assemble_sdp(2, 3, 1)
        unit_row = prob.constraints[0]
        assert unit_row[(0, 0, 0)] == 1.0
        assert prob.rhs[0] == 0.0

    def test_sign_flips_rhs(self):
        plus = assemble_sdp(2, 3, 1)
        minus = assemble_sdp(2, 3, -1)
        assert plus.constraints == minus.constraints
        assert [a + b for a, b in zip(plus.rhs, minus.rhs)] == [0.0] * len(plus.rhs)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            assemble_sdp(3, 2, 1)
        with pytest.raises(ValueError):
            assemble_sdp(2, 3, 0)

    def test_deterministic(self):
        a = assemble_sdp(3, 3, 1)
        b = assemble_sdp(3, 3, 1)
        assert a.constraints == b.constraints
        assert a.rhs == b.rhs
        assert a.block_dims == b.block_dims


def expand_with_gram(n, d, lam, gram_blocks):
    """lam*1 + sum_i sum_ab Y_i[a,b] * rev(beta_a) l_i beta_b, symbolically."""
    basis = monomial_basis(n, d)
    q = basis.size
    total = NCPolynomial.one(n, lam)
    for i, block in enumerate(gram_blocks, start=1):
        for a in range(q):
            for b in range(q):
                if block[a][b]:
                    total = total + block[a][b] * localizing_entry(basis, i, a, b)
    return total


class TestCoefficientMatching:
    """The constraint rows are exactly the word-by-word coefficient match of
    lambda + sign*target with the Gram expansion."""

    @pytest.mark.parametrize("m,n,sign", [(2, 2, 1), (2, 3, 1), (3, 3, -1), (2, 2, -1),
                                          (4, 4, 1)])
    def test_random_gram_consistency(self, m, n, sign):
        rng = random.Random(1000 * m + 10 * n + sign)
        prob = assemble_sdp(m, n, sign)
        d = m // 2
        q = monomial_basis(n, d).size
        words = words_up_to(n, 2 * d + 1)
        rows = prob.constraints
        # a d = 2 sample expands 31^2 Gram entries per block symbolically
        for _ in range(10 if d == 1 else 2):
            lam = rng.randint(-3, 3)
            blocks = []
            for _ in range(n + 1):
                raw = [[rng.randint(-2, 2) for _ in range(q)] for _ in range(q)]
                blocks.append(
                    [[raw[a][b] + raw[b][a] for b in range(q)] for a in range(q)]
                )
            expansion = expand_with_gram(n, d, lam, blocks)

            # evaluate each folded constraint row on (lam, blocks): the row
            # for word w must equal coeff of w in lam + sign*target minus
            # coeff of w in the Gram expansion... i.e. tr(C_w Y) = rhs_w
            # exactly when the identity holds coefficient-wise
            target = distinct_product_sum(m, n)
            for w, row, rhs in zip(words, rows, prob.rhs):
                acc = 0.0
                for (blk, i, j), v in row.items():
                    if blk == 0:
                        acc += v * lam
                    else:
                        acc += v * blocks[blk - 1][i][j]
                        if i != j:
                            acc += v * blocks[blk - 1][j][i]
                # the row contributes lam once and the expansion already
                # contains lam*1, so the unit word carries it twice:
                # tr(C_w Y) - rhs_w = 2*lam*[w=unit] + sign*coeff_w(target)
                #                     - coeff_w(expansion)
                diff = (
                    (2 * lam if w == () else 0)
                    + sign * target.coefficient(w)
                    - expansion.coefficient(w)
                )
                assert acc - rhs == pytest.approx(diff, abs=1e-9)

    def test_every_word_has_a_row(self):
        for m, n in [(2, 2), (2, 3), (3, 3)]:
            prob = assemble_sdp(m, n, 1)
            d = m // 2
            assert prob.num_constraints == len(words_up_to(n, 2 * d + 1))


# every (n, d) with n <= 5, and the m of that group in table order
GROUPS = [(n, d, [m for m in range(1, n + 1) if m // 2 == d])
          for n in range(1, 6) for d in range(n // 2 + 1)]


def rhs_bytes(rhs):
    """The bytes of a right-hand side as floats, so that 0.0 and -0.0
    differ."""
    return np.asarray(rhs, dtype=float).tobytes()


class TestRetarget:
    @pytest.mark.parametrize("n,d,ms", GROUPS, ids=[f"n{n}-d{d}" for n, d, _ in GROUPS])
    def test_sdpa_bytes_match_direct_build(self, n, d, ms):
        # the group's first problem, as the table builds it; each target is
        # its data with the right-hand side of the direct build
        full = assemble_sdp(ms[0], n, -1)
        reduced, _ = symmetry_reduce(full)
        for m in ms:
            for sign in (1, -1):
                direct = assemble_sdp(m, n, sign)
                for built, want in ((full, direct), (reduced, symmetry_reduce(direct)[0])):
                    got = retargeting(built)(m, sign)
                    assert type(got) is list
                    assert rhs_bytes(got) == rhs_bytes(want.rhs)
                    assert built.entries.tobytes() == want.entries.tobytes()
                    assert built.block_dims == want.block_dims

    def test_targets_share_word_work(self, monkeypatch):
        # the words, their permutations and orbits are computed once per
        # problem, not once per target
        reduced, _ = symmetry_reduce(assemble_sdp(4, 5, -1))
        targets = [(4, -1), (4, 1), (5, -1), (5, 1)]
        expected = [rhs_bytes(retargeting(reduced)(m, sign)) for m, sign in targets]
        to_target = retargeting(reduced)

        def fail(*args):
            raise AssertionError("(n, d) work repeated for a target")

        for name in ("word_count", "_word_perms", "_orbit_labels"):
            monkeypatch.setattr(f"ncagm.compiler.{name}", fail)
        assert [rhs_bytes(to_target(m, sign)) for m, sign in targets] == expected

    @pytest.mark.parametrize("m,sign", [(4, 1), (1, 1), (3, 1), (2, 0), (2, 2)])
    def test_bad_target_rejected(self, m, sign):
        # (2, 2) has d = 1: m = 4 and m = 1 need another d, m = 3 exceeds n
        problem = assemble_sdp(2, 2, 1)
        for prob in (problem, symmetry_reduce(problem)[0]):
            with pytest.raises(ValueError):
                retargeting(prob)(m, sign)

    def test_plain_problem_rejected(self):
        toy = SdpProblem((1,), [{(0, 0, 0): 1.0}], [3.0], {(0, 0, 0): 1.0})
        with pytest.raises(ValueError, match="assemble_sdp or symmetry_reduce"):
            retargeting(toy)(1, 1)

    def test_asymmetric_target_detected(self, monkeypatch):
        full = assemble_sdp(2, 3, 1)
        reduced, _ = symmetry_reduce(full)
        # X_1 X_2 alone is moved by the transposition (1 2)
        monkeypatch.setattr("ncagm.compiler.distinct_product_sum",
                            lambda m, n: NCPolynomial(n, {(1, 2): 1}))
        for prob in (full, reduced):
            with pytest.raises(InvarianceError,
                               match=r"^right-hand side not invariant at word \(1, 2\)$"):
                retargeting(prob)(3, -1)
