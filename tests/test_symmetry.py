"""Symmetry reduction: orbit structure, free-variable counts, invariance
checking, and agreement of reduced and unreduced optima."""

import numpy as np
import pytest

from ncagm import (
    InvarianceError,
    assemble_sdp,
    extract_farkas,
    farkas_check,
    monomial_basis,
    solve,
    symmetry_reduce,
)
from ncagm.compiler import _coordinate_orbits, _generators, words_up_to
from ncagm.sdp import farkas_from_dual


class TestOrbits:
    def test_11_free_variables_at_2_3(self):
        _, orbits = symmetry_reduce(assemble_sdp(2, 3, 1))
        assert orbits.num_free_variables == 11

    def test_orbit_map_is_partition(self):
        for n, d in [(2, 1), (3, 1), (4, 1)]:
            basis = monomial_basis(n, d)
            q = basis.size
            orbit_id, reps, members = _coordinate_orbits(n, q, basis)
            # every upper-triangle coordinate is covered exactly once
            coords = {
                (blk, a, b)
                for blk in range(1, n + 2)
                for a in range(q)
                for b in range(a, q)
            }
            assert set(orbit_id) >= coords
            covered = [c for orbit in members for c in orbit]
            assert len(covered) == len(set(covered))
            assert set(covered) == set(orbit_id)
            # representatives are members of their own orbit
            for oid, rep in enumerate(reps):
                assert orbit_id[rep] == oid

    def test_orbits_closed_under_generators(self):
        n, d = 3, 1
        basis = monomial_basis(n, d)
        q = basis.size
        orbit_id, _, _ = _coordinate_orbits(n, q, basis)
        bperms = [
            [basis.index(tuple(g(l) for l in w)) for w in basis.words]
            for g in _generators(n)
        ]
        for (blk, a, b), oid in orbit_id.items():
            for g, bperm in zip(_generators(n), bperms):
                nblk = g(blk) if blk <= n else blk
                na, nb = bperm[a], bperm[b]
                key = (nblk, na, nb) if na <= nb else (nblk, nb, na)
                assert orbit_id[key] == oid

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
        prob = assemble_sdp(2, 4, 1)
        reduced, _ = symmetry_reduce(prob)
        q = monomial_basis(4, 1).size
        assert reduced.block_dims == (1, q, q)
        assert reduced.meta["reduced"] is True

    def test_double_reduction_rejected(self):
        reduced, _ = symmetry_reduce(assemble_sdp(2, 3, 1))
        with pytest.raises(ValueError):
            symmetry_reduce(reduced)

    def test_non_invariant_input_detected(self):
        prob = assemble_sdp(2, 3, 1)
        # breaking one letter-word row destroys the S_n invariance
        bad_rhs = list(prob.rhs)
        k = 1  # row of word (1,)
        bad_rhs[k] = bad_rhs[k] + 1.0
        tampered = type(prob)(
            prob.block_dims, prob.constraints, bad_rhs, prob.objective, prob.meta
        )
        with pytest.raises(InvarianceError):
            symmetry_reduce(tampered)

    def test_plain_problem_rejected(self):
        from ncagm import SdpProblem

        toy = SdpProblem((1,), [{(0, 0, 0): 1.0}], [3.0], {(0, 0, 0): 1.0})
        with pytest.raises(ValueError):
            symmetry_reduce(toy)


class TestOptimumPreserved:
    @pytest.mark.parametrize(
        "m,n,sign",
        [
            (2, 2, 1),
            (2, 2, -1),
            (2, 3, 1),
            (2, 3, -1),
            (3, 3, 1),
            (3, 3, -1),
            (2, 4, 1),
            (1, 3, -1),
        ],
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
            images = [tuple(g(l) for l in w) for g in _generators(n)] + [w[::-1]]
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
        assert num_orbits + reduced.meta["tie_constraints"] == reduced.num_constraints
