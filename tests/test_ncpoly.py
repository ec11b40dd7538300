"""Free-algebra arithmetic: ring laws, transpose, permutation action,
distinct-index product sums, the scalar (1x1) bound by sampling, and the
layering that keeps the exact checker apart from the compiler."""

import ast
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import ncagm
from ncagm import (
    NCPolynomial,
    Permutation,
    apply_permutation,
    distinct_product_sum,
    poly_mul,
    poly_transpose,
)
from ncagm.ncpoly import word_at, word_count, word_key, words_up_to

N_CASES = 1000


def random_poly(rng, n, max_deg=3, max_terms=4, rational=False):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        deg = rng.randint(0, max_deg)
        word = tuple(rng.randint(1, n) for _ in range(deg))
        if rational:
            coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 7))
        else:
            coeff = rng.randint(-5, 5)
        terms[word] = terms.get(word, 0) + coeff
    return NCPolynomial(n, terms)


def random_permutation(rng, n):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return Permutation(images)


class TestBasics:
    def test_noncommutativity(self):
        n = 2
        x1 = NCPolynomial.letter(n, 1)
        x2 = NCPolynomial.letter(n, 2)
        assert x1 * x2 == NCPolynomial.from_word(n, (1, 2))
        assert x2 * x1 == NCPolynomial.from_word(n, (2, 1))
        assert x1 * x2 != x2 * x1

    def test_unit_algebra(self):
        n = 1
        one = NCPolynomial.one(n)
        x = NCPolynomial.letter(n, 1)
        assert (one + x) * (one - x) == one - x * x

    def test_square_of_sum(self):
        # (X1 + X2)^2 = X1^2 + X1X2 + X2X1 + X2^2
        n = 2
        s = NCPolynomial.letter(n, 1) + NCPolynomial.letter(n, 2)
        expected = NCPolynomial(n, {(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 1})
        assert s * s == expected

    def test_zero_coefficients_never_stored(self):
        p = NCPolynomial(3, {(1,): 2, (2,): 0})
        assert (2,) not in p.terms
        assert (p - p).terms == {}

    def test_construction_combines_and_keeps_coefficients(self):
        # duplicate words combine, and a sum that reaches zero is dropped
        p = NCPolynomial(2, [((1,), 2), ((1,), Fraction(1, 2)), ((2,), 3), ([2], -3)])
        assert p.terms == {(1,): Fraction(5, 2)}
        # a word given once keeps its coefficient's value and type
        for coeff in (Fraction(2, 3), 7, 0.25):
            (stored,) = NCPolynomial(2, {(1, 2): coeff}).terms.values()
            assert stored == coeff and type(stored) is type(coeff)
        with pytest.raises(ValueError):
            NCPolynomial(2, [((1,), 1), ((3,), 1)])

    def test_degree_and_coefficient(self):
        p = NCPolynomial(2, {(): 3, (1, 2, 1): -1})
        assert p.degree() == 3
        assert p.coefficient(()) == 3
        assert p.coefficient((1, 2, 1)) == -1
        assert p.coefficient((2,)) == 0
        assert NCPolynomial.zero(2).degree() == -1

    def test_bad_letters_rejected(self):
        with pytest.raises(ValueError):
            NCPolynomial(2, {(3,): 1})
        with pytest.raises(ValueError):
            NCPolynomial(2, {(0,): 1})
        with pytest.raises(ValueError):
            NCPolynomial(0)

    def test_str_rendering(self):
        p = NCPolynomial(3, {(1, 2): 2, (3,): -1})
        assert str(p) == "-X3 + 2*X1*X2"
        assert str(NCPolynomial.zero(2)) == "0"
        assert str(NCPolynomial.one(2)) == "1"


class TestTranspose:
    def test_word_reversal(self):
        p = NCPolynomial.from_word(3, (1, 2, 3))
        assert poly_transpose(p) == NCPolynomial.from_word(3, (3, 2, 1))

    def test_unit_fixed(self):
        assert poly_transpose(NCPolynomial.one(2)) == NCPolynomial.one(2)

    def test_palindromic_sum_symmetric(self):
        p = NCPolynomial(2, {(1, 2): 1, (2, 1): 1})
        assert p.is_symmetric()

    def test_involution_randomized(self):
        rng = random.Random(101)
        for _ in range(N_CASES):
            n = rng.randint(1, 4)
            f = random_poly(rng, n)
            assert poly_transpose(poly_transpose(f)) == f

    def test_antihomomorphism_randomized(self):
        # (fg)^T = g^T f^T
        rng = random.Random(202)
        for _ in range(N_CASES):
            n = rng.randint(1, 4)
            f = random_poly(rng, n)
            g = random_poly(rng, n)
            assert poly_transpose(poly_mul(f, g)) == poly_mul(
                poly_transpose(g), poly_transpose(f)
            )


class TestRingLaws:
    def test_associativity_randomized(self):
        rng = random.Random(303)
        for _ in range(N_CASES):
            n = rng.randint(1, 3)
            f = random_poly(rng, n, max_deg=2, max_terms=3)
            g = random_poly(rng, n, max_deg=2, max_terms=3)
            h = random_poly(rng, n, max_deg=2, max_terms=3)
            assert (f * g) * h == f * (g * h)
            assert (f + g) + h == f + (g + h)
            assert f * (g + h) == f * g + f * h

    def test_rational_coefficients(self):
        rng = random.Random(404)
        for _ in range(200):
            n = rng.randint(1, 3)
            f = random_poly(rng, n, rational=True)
            g = random_poly(rng, n, rational=True)
            prod = f * g
            assert all(isinstance(c, (int, Fraction)) for c in prod.terms.values())
            assert poly_transpose(prod) == poly_transpose(g) * poly_transpose(f)


class TestPermutationAction:
    def test_identity_acts_trivially(self):
        rng = random.Random(505)
        for _ in range(100):
            n = rng.randint(1, 4)
            f = random_poly(rng, n)
            assert apply_permutation(f, Permutation.identity(n)) == f

    def test_swap_fixes_symmetric_target(self):
        target = distinct_product_sum(2, 2)
        swap = Permutation.transposition(2, 1, 2)
        assert apply_permutation(target, swap) == target

    def test_cycle_fixes_distinct_sum(self):
        target = distinct_product_sum(3, 3)
        assert apply_permutation(target, Permutation.cycle(3)) == target

    def test_composition_randomized(self):
        rng = random.Random(606)
        for _ in range(N_CASES):
            n = rng.randint(2, 4)
            f = random_poly(rng, n)
            sigma = random_permutation(rng, n)
            tau = random_permutation(rng, n)
            lhs = apply_permutation(apply_permutation(f, sigma), tau)
            rhs = apply_permutation(f, tau.compose(sigma))
            assert lhs == rhs

    def test_homomorphism(self):
        rng = random.Random(707)
        for _ in range(200):
            n = rng.randint(2, 4)
            f = random_poly(rng, n)
            g = random_poly(rng, n)
            sigma = random_permutation(rng, n)
            assert apply_permutation(f * g, sigma) == apply_permutation(
                f, sigma
            ) * apply_permutation(g, sigma)

    def test_bad_permutation_rejected(self):
        with pytest.raises(ValueError):
            Permutation((1, 1))
        with pytest.raises(ValueError):
            Permutation((2, 3))


class TestDistinctProductSum:
    def test_m2_n2(self):
        assert distinct_product_sum(2, 2) == NCPolynomial(2, {(1, 2): 1, (2, 1): 1})

    def test_m1_n5(self):
        expected = NCPolynomial(5, {(i,): 1 for i in range(1, 6)})
        assert distinct_product_sum(1, 5) == expected

    def test_m5_n5_term_count(self):
        assert len(distinct_product_sum(5, 5).terms) == 120

    def test_term_counts_and_structure(self):
        for n in range(1, 6):
            for m in range(1, n + 1):
                p = distinct_product_sum(m, n)
                count = math.factorial(n) // math.factorial(n - m)
                assert len(p.terms) == count
                assert all(len(w) == m for w in p.terms)
                assert all(len(set(w)) == m for w in p.terms)
                assert all(c == 1 for c in p.terms.values())
                assert p.is_symmetric()
                assert apply_permutation(p, Permutation.cycle(n)) == p

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            distinct_product_sum(0, 3)
        with pytest.raises(ValueError):
            distinct_product_sum(4, 3)


class TestEvaluation:
    def test_identity_inputs(self):
        for n in range(1, 5):
            for m in range(1, n + 1):
                value = distinct_product_sum(m, n).evaluate([np.eye(2)] * n)
                bound = math.factorial(n) // math.factorial(n - m)
                assert np.allclose(value, bound * np.eye(2))

    def test_scalar_maclaurin_direction(self):
        # on commuting 1x1 inputs a_i >= 0 with sum <= n the distinct sum
        # stays below n!/(n-m)!
        rng = random.Random(808)
        for _ in range(N_CASES):
            n = rng.randint(2, 5)
            m = rng.randint(1, n)
            raw = [rng.random() for _ in range(n)]
            scale = n * rng.random() / max(sum(raw), 1e-12)
            a = [v * scale for v in raw]
            value = distinct_product_sum(m, n).evaluate(
                [np.array([[v]]) for v in a]
            )[0, 0]
            bound = math.factorial(n) // math.factorial(n - m)
            assert value <= bound + 1e-9

    def test_evaluation_matches_direct_product(self):
        rng = np.random.default_rng(909)
        a = rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3))
        p = NCPolynomial(2, {(1, 2): 2, (2,): -1, (): 0.5})
        expected = 2 * a @ b - b + 0.5 * np.eye(3)
        assert np.allclose(p.evaluate([a, b]), expected)


class TestWords:
    def test_count_and_index_match_the_list(self):
        for n in range(1, 5):
            for d in range(4):
                words = words_up_to(n, d)
                assert words == sorted(words, key=word_key)
                assert word_count(n, d) == len(words)
                assert [word_at(n, k) for k in range(len(words))] == words


def imported_modules(name):
    """(module, at module level) for each import in ncagm's module ``name``,
    relative imports resolved against the package."""
    tree = ast.parse((Path(ncagm.__file__).parent / f"{name}.py").read_text())
    top = {id(node) for node in tree.body}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules = [f"ncagm.{node.module}"]
        elif isinstance(node, ast.ImportFrom):
            modules = [f"ncagm.{alias.name}" for alias in node.names]
        else:
            continue
        found.extend((module, id(node) in top) for module in modules)
    return found


class TestLayering:
    def test_certify_imports_only_ncpoly(self):
        # the exact checker shares no code with the compiler or the solver
        ours = {m for m, _ in imported_modules("certify") if m.split(".")[0] == "ncagm"}
        assert ours <= {"ncagm.ncpoly"}

    def test_ncpoly_stands_alone(self):
        found = imported_modules("ncpoly")
        assert not [m for m, _ in found if m.split(".")[0] == "ncagm"]
        # numpy only inside NCPolynomial.evaluate
        assert [top for m, top in found if m.split(".")[0] == "numpy"] == [False]
