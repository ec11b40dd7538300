"""Symmetry reduction: orbit structure, free-variable counts, invariance
checking, and agreement of reduced and unreduced optima."""

from itertools import permutations, product
from math import factorial

import numpy as np
import pytest

from ncagm import (
    InvarianceError,
    Permutation,
    assemble_sdp,
    extract_farkas,
    farkas_check,
    monomial_basis,
    solve,
    symmetry_reduce,
)
from ncagm import compiler
from ncagm.compiler import (
    _coordinate_perms,
    _generator_images,
    _orbit_labels,
    _word_perms,
    _young_bases,
)
from ncagm.ncpoly import words_up_to
from ncagm.sdp import farkas_from_dual
from ncagm.sdpa import render_sdpa


def reference_orbits(n, d):
    """Word and Gram-coordinate orbits by brute force: every permutation of
    1..n is applied directly to word tuples and to (block, a, b) tuples.

    Returns (word orbit per word of degree <= 2d+1, coordinate orbit per
    (block, a, b) over the full q x q grid of blocks 1..n+1, smallest
    upper-triangle member per coordinate orbit); orbits are numbered in
    the order a scan of the words, or of the upper-triangle coordinates,
    first meets them."""
    basis = [w for k in range(d + 1) for w in product(range(1, n + 1), repeat=k)]
    words = [w for k in range(2 * d + 2) for w in product(range(1, n + 1), repeat=k)]
    index = {w: k for k, w in enumerate(basis)}
    q = len(basis)
    group = list(permutations(range(1, n + 1)))

    word_orbit = {}
    for w in words:
        if w not in word_orbit:
            oid = len(set(word_orbit.values()))
            for p in group:
                image = tuple(p[l - 1] for l in w)
                word_orbit[image] = word_orbit[image[::-1]] = oid

    def image(p, blk, a, b):
        pa = index[tuple(p[l - 1] for l in basis[a])]
        pb = index[tuple(p[l - 1] for l in basis[b])]
        return (p[blk - 1] if blk <= n else blk, min(pa, pb), max(pa, pb))

    coord_orbit = {}
    reps = []
    for blk in range(1, n + 2):
        for a in range(q):
            for b in range(a, q):
                if (blk, a, b) not in coord_orbit:
                    members = {image(p, blk, a, b) for p in group}
                    for member in members:
                        coord_orbit[member] = len(reps)
                    reps.append(min(members))
    for blk, a, b in list(coord_orbit):
        coord_orbit[(blk, b, a)] = coord_orbit[(blk, a, b)]
    return [word_orbit[w] for w in words], coord_orbit, reps


def generators(n):
    """The transposition (1 2) and the n-cycle, the generators of S_n that
    the reduction uses, as Permutation objects."""
    return [Permutation.transposition(n, 1, 2), Permutation.cycle(n)] if n >= 2 else []


REFERENCE_CASES = [(1, 1), (2, 2), (1, 3), (2, 3), (2, 4), (4, 4)]


class TestOrbits:
    def test_11_free_variables_at_2_3(self):
        _, orbits = symmetry_reduce(assemble_sdp(2, 3, 1))
        assert orbits.num_free_variables == 11

    @pytest.mark.parametrize("m,n", REFERENCE_CASES)
    def test_orbits_match_brute_force(self, m, n):
        d = m // 2
        word_orbit, coord_orbit, reps = reference_orbits(n, d)
        _, orbits = symmetry_reduce(assemble_sdp(m, n, 1))
        assert orbits.word_orbit == tuple(word_orbit)
        assert orbits.representatives == tuple(reps)

        # the orbit routine on the Gram coordinates, over the whole grid
        q = monomial_basis(n, d).size
        sigmas = _generator_images(n)
        assert [s.tolist() for s in sigmas] == [[x - 1 for x in g.images] for g in generators(n)]
        bperms = [perm[:q] for perm in _word_perms(n, d, sigmas)[:-1]]
        labels, _ = _orbit_labels(_coordinate_perms(n, q, sigmas, bperms), (n + 1) * q * q)
        grid = labels.reshape(n + 1, q, q)
        assert all(grid[blk - 1, a, b] == oid for (blk, a, b), oid in coord_orbit.items())
        assert len(coord_orbit) == grid.size

    def test_n1_reduction_is_noop_per_entry(self):
        # trivial group: every distinct coordinate is its own orbit
        prob = assemble_sdp(1, 1, 1)
        reduced, orbits = symmetry_reduce(prob)
        basis = monomial_basis(1, 0)
        q = basis.size
        expected = sum(
            q * (q + 1) // 2 for _ in range(2)
        )  # blocks 1 and n+1 = 2, each q x q upper triangle
        assert orbits.num_free_variables == expected


class TestReducedProblem:
    def test_block_structure(self):
        # one row per word orbit; the letter block Y_1 and Y_{n+1} split
        # into isotypic blocks whose free entries are exactly the orbits
        reduced, orbits = symmetry_reduce(assemble_sdp(5, 5, 1))
        assert reduced.num_constraints == 51
        assert reduced.meta["reduced"] is True
        sizes = {1: [], 6: []}
        for block, basis in orbits.components:
            sizes[block].append(basis.shape[1])
        assert sorted(sizes[1]) == [1, 1, 6, 8]
        assert sorted(sizes[6]) == [1, 1, 4, 4]
        assert reduced.block_dims[1:] == tuple(sizes[1] + sizes[6])
        free = sum(m * (m + 1) // 2 for m in reduced.block_dims[1:])
        assert free == orbits.num_free_variables == 81
        assert reduced.scalar_variable_count == 137

    def test_double_reduction_rejected(self):
        reduced, _ = symmetry_reduce(assemble_sdp(2, 3, 1))
        with pytest.raises(ValueError):
            symmetry_reduce(reduced)

    @pytest.mark.parametrize("tamper",
                             ["rhs", "value", "value_ulp", "extra_entry", "moved_entry"])
    def test_non_invariant_input_detected(self, tamper):
        # breaking one letter-word row destroys the S_n invariance
        prob = assemble_sdp(2, 3, 1)
        k = 1  # row of word (1,), moved by both generators
        constraints = [dict(row) for row in prob.constraints]
        rhs = list(prob.rhs)
        row = constraints[k]
        if tamper == "rhs":
            rhs[k] += 1.0
        elif tamper == "value":
            key = next(iter(row))
            row[key] += 1e-6
        elif tamper == "value_ulp":
            key = next(iter(row))
            row[key] = np.nextafter(row[key], np.inf)
        elif tamper == "extra_entry":
            q = prob.block_dims[1]
            key = next((1, a, b) for a in range(q) for b in range(a, q)
                       if (1, a, b) not in row)
            row[key] = 1.0
        else:
            # the row's last entry moves one column right, so the sorted
            # values still line up and only the keys differ
            blk, a, b = max(row)
            row[(blk, a, b + 1)] = row.pop((blk, a, b))
        tampered = type(prob)(prob.block_dims, constraints, rhs, prob.objective, prob.meta)
        with pytest.raises(InvarianceError, match=r"at word \(1,\)$"):
            symmetry_reduce(tampered)

    def test_plain_problem_rejected(self):
        from ncagm import SdpProblem

        toy = SdpProblem((1,), [{(0, 0, 0): 1.0}], [3.0], {(0, 0, 0): 1.0})
        with pytest.raises(ValueError):
            symmetry_reduce(toy)


def shapes(k, d):
    """Partitions of k with at most d boxes below the first row, in
    decreasing lexicographic order, by brute force."""
    parts = {tuple(sorted(c, reverse=True)) for r in range(k + 1)
             for c in product(range(1, k + 1), repeat=r) if sum(c) == k}
    return sorted((p for p in parts if k - sum(p[:1]) <= d), reverse=True)


def specht_dimension(shape):
    """f^shape, the dimension of the Specht module, by the hook-length
    formula."""
    hooks = 1
    for i, part in enumerate(shape):
        for j in range(part):
            leg = sum(1 for below in shape[i + 1:] if below > j)
            hooks *= (part - j - 1) + leg + 1
    return factorial(sum(shape)) // hooks


def negative_count(mat):
    eigs = np.linalg.eigvalsh(mat)
    return int((eigs < -1e-9 * max(1.0, np.abs(eigs).max())).sum())


class TestIsotypicDecomposition:
    @pytest.mark.parametrize("n,d", [(n, d) for n in range(1, 6) for d in range(3)])
    def test_inertia_matches_blocks(self, n, d):
        # an invariant Y has as many negative eigenvalues as the blocks
        # U^T Y U counted f^lambda times each: every shape occurs at n <= 5
        _, coord_orbit, reps = reference_orbits(n, d)
        q = len(monomial_basis(n, d).words)
        rng = np.random.default_rng(10 * n + d)
        values = rng.standard_normal(len(reps))
        for block, letters in ((1, range(2, n + 1)), (n + 1, range(1, n + 1))):
            y = np.array([[values[coord_orbit[(block, a, b)]] for b in range(q)]
                          for a in range(q)])
            bases = _young_bases(n, d, list(letters))
            expected = shapes(len(letters), d)
            assert len(bases) == len(expected)
            assert all(np.issubdtype(u.dtype, np.integer) for u in bases)
            dims = [specht_dimension(shape) for shape in expected]
            assert sum(f * u.shape[1] for f, u in zip(dims, bases)) == q
            assert negative_count(y) == sum(
                f * negative_count(u.T @ y @ u) for f, u in zip(dims, bases))

    @pytest.mark.parametrize("tamper", ["drop", "repeat"])
    def test_wrong_bases_rejected(self, monkeypatch, tamper):
        # a missing shape leaves the orbit-to-block map non-square, and a
        # basis with a repeated column leaves it singular
        real = compiler._young_bases

        def young_bases(n, d, letters):
            bases = real(n, d, letters)
            if tamper == "drop":
                return bases[:-1]
            return [bases[0][:, [0] * bases[0].shape[1]]] + bases[1:]

        monkeypatch.setattr(compiler, "_young_bases", young_bases)
        with pytest.raises(ArithmeticError, match="do not span"):
            symmetry_reduce(assemble_sdp(2, 3, 1))

    def test_export_is_reproducible(self):
        first = render_sdpa(symmetry_reduce(assemble_sdp(4, 4, 1))[0])
        second = render_sdpa(symmetry_reduce(assemble_sdp(4, 4, 1))[0])
        assert first == second


class TestOptimumPreserved:
    @pytest.mark.parametrize(
        "m,n,sign",
        [(m, n, sign) for n in range(1, 5) for m in range(1, n + 1) for sign in (1, -1)]
        + [(5, 5, 1)],
    )
    def test_reduced_matches_unreduced(self, m, n, sign):
        prob = assemble_sdp(m, n, sign)
        reduced, _ = symmetry_reduce(prob)
        full = solve(prob)
        red = solve(reduced)
        assert full.status == "optimal"
        assert red.status == "optimal"
        assert abs(full.objective_primal - red.objective_primal) <= 1e-6


class TestLiftDual:
    @pytest.mark.parametrize("sign", [1, -1])
    @pytest.mark.parametrize(
        "m,n", [(m, n) for n in range(1, 5) for m in range(1, n + 1)]
    )
    def test_lifted_certificate_matches_unreduced(self, m, n, sign):
        prob = assemble_sdp(m, n, sign)
        reduced, orbits = symmetry_reduce(prob)
        red = solve(reduced)
        assert red.status == "optimal"
        optimum = red.objective_primal
        target = optimum - 0.25 - 0.1 * abs(optimum)

        y_full = orbits.lift_dual(red.dual)
        assert y_full.shape == (prob.num_constraints,)
        rhs_red = float(np.asarray(reduced.rhs) @ red.dual)
        assert float(np.asarray(prob.rhs) @ y_full) == pytest.approx(rhs_red, abs=1e-12)

        lifted = farkas_from_dual(prob, target, y_full)
        reference = extract_farkas(prob, target)
        assert lifted is not None and reference is not None
        margin = farkas_check(prob, lifted)  # raises if the full defect is too big
        assert margin > 0
        assert margin == pytest.approx(farkas_check(prob, reference), abs=1e-6)

    @pytest.mark.parametrize("m,n", [(1, 3), (3, 3), (2, 4), (4, 4)])
    def test_lift_constant_on_word_orbits(self, m, n):
        prob = assemble_sdp(m, n, 1)
        reduced, orbits = symmetry_reduce(prob)
        rng = np.random.default_rng(m * 10 + n)
        y_full = orbits.lift_dual(rng.standard_normal(reduced.num_constraints))
        words = words_up_to(n, 2 * (m // 2) + 1)
        windex = {w: k for k, w in enumerate(words)}
        for k, w in enumerate(words):
            images = [tuple(g(l) for l in w) for g in generators(n)] + [w[::-1]]
            for image in images:
                assert y_full[windex[image]] == y_full[k]

    def test_multiplier_split_over_orbit_rows(self):
        # each orbit's multiplier is split evenly over its member rows
        prob = assemble_sdp(2, 3, 1)
        reduced, orbits = symmetry_reduce(prob)
        y_red = np.arange(1.0, reduced.num_constraints + 1.0)
        y_full = orbits.lift_dual(y_red)
        per_orbit = np.bincount(orbits.word_orbit, weights=y_full)
        num_orbits = max(orbits.word_orbit) + 1
        assert np.allclose(per_orbit, y_red[:num_orbits], rtol=0, atol=1e-12)
        assert num_orbits == reduced.num_constraints
