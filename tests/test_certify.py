"""Exact rational certification: PSD decisions, sum-of-squares identities,
Farkas re-checking, and numeric instance evaluation."""

import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest

from ncagm import (
    CertificateError,
    NCPolynomial,
    RationalMatrix,
    assemble_sdp,
    build_m2_certificate,
    distinct_product_sum,
    eval_instance,
    extract_farkas,
    farkas_check,
    psd_check_exact,
    verify_sos,
)
from ncagm.certify import (
    SosCertificate,
    expand_gram,
    load_instance,
    sos_certificate_from_json,
    sos_certificate_to_json,
)
from ncagm.sdp import FarkasCertificate, SdpProblem
from test_compiler import expand_with_gram

N_CASES = 1000


def ldlt_psd_reference(mat):
    """Reference PSD decision: rational LDL^T with greedy diagonal pivoting.

    A zero maximal pivot forces the entire remaining principal block to
    vanish for the matrix to be PSD.
    """
    a = [row[:] for row in mat.entries]
    active = list(range(mat.dim))
    while active:
        p = max(active, key=lambda i: a[i][i])
        pivot = a[p][p]
        if pivot < 0:
            return False
        if pivot == 0:
            return all(a[i][j] == 0 for i in active for j in active)
        active.remove(p)
        for i in active:
            if a[i][p] == 0:
                continue
            factor = a[i][p] / pivot
            for j in active:
                a[i][j] -= factor * a[p][j]
    return True


def gram_product(g):
    """G G^T for a rational matrix G given as a list of rows."""
    return RationalMatrix(
        [[sum(x * y for x, y in zip(gi, gj)) for gj in g] for gi in g]
    )


def random_rational_symmetric(rng, dim, lo=-5, hi=5):
    raw = [
        [Fraction(rng.randint(lo * 6, hi * 6), rng.randint(1, 6)) for _ in range(dim)]
        for _ in range(dim)
    ]
    sym = [[raw[i][j] + raw[j][i] for j in range(dim)] for i in range(dim)]
    return RationalMatrix(sym)


class TestRationalMatrix:
    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            RationalMatrix([[1, 2], [3, 4]])
        with pytest.raises(ValueError):
            RationalMatrix([[1, 2, 3], [2, 1, 0]])

    def test_asymmetry_names_first_pair(self):
        rows = [[1, 0, 2, 0], [0, 1, 0, 3], [9, 0, 1, 0], [0, 8, 0, 1]]
        with pytest.raises(ValueError, match=r"not symmetric at \(0,2\)"):
            RationalMatrix(rows)
        rows[2][0] = 2
        with pytest.raises(ValueError, match=r"not symmetric at \(1,3\)"):
            RationalMatrix(rows)

    def test_entries_are_fractions(self):
        third = Fraction(1, 3)
        mat = RationalMatrix([[third, "1/2"], [Fraction(2, 4), 7]])
        # a Fraction entry is kept as it is, not copied
        assert mat[0, 0] is third
        assert mat.entries == [[third, Fraction(1, 2)], [Fraction(1, 2), Fraction(7)]]
        assert all(type(v) is Fraction for row in mat.entries for v in row)

    def test_identity(self):
        eye = RationalMatrix.identity(3)
        assert eye[0, 0] == 1 and eye[0, 1] == 0
        assert np.allclose(eye.to_float(), np.eye(3))


class TestPsdCheckExact:
    def test_identity_true(self):
        for dim in (1, 2, 5):
            assert psd_check_exact(RationalMatrix.identity(dim))

    def test_displayed_gram_block_true(self):
        y1 = RationalMatrix(
            [
                [Fraction(5, 4), Fraction(-3, 4), Fraction(1, 4)],
                [Fraction(-3, 4), Fraction(1, 2), 0],
                [Fraction(1, 4), 0, Fraction(1, 2)],
            ]
        )
        assert psd_check_exact(y1)
        assert y1 == build_m2_certificate(2).gram_blocks[0]

    def test_indefinite_false(self):
        assert not psd_check_exact(RationalMatrix([[1, 2], [2, 1]]))

    def test_zero_pivot_handling(self):
        # PSD with an exactly zero diagonal entry forces that row to vanish
        assert psd_check_exact(RationalMatrix([[0, 0], [0, 1]]))
        assert not psd_check_exact(RationalMatrix([[0, 1], [1, 1]]))

    def test_agrees_with_float_eigenvalues(self):
        rng = random.Random(31)
        agreements = 0
        for _ in range(N_CASES):
            dim = rng.randint(1, 4)
            mat = random_rational_symmetric(rng, dim)
            exact = psd_check_exact(mat)
            min_eig = float(np.linalg.eigvalsh(mat.to_float()).min())
            if abs(min_eig) < 1e-10:
                continue  # float check inconclusive near zero
            assert exact == (min_eig > 0), f"{mat!r}: exact {exact}, eig {min_eig}"
            agreements += 1
        assert agreements > N_CASES // 2

    def test_gram_psd_matrices_pass(self):
        rng = random.Random(32)
        for _ in range(200):
            dim = rng.randint(1, 4)
            g = [
                [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)]
                for _ in range(dim)
            ]
            prod = [
                [sum(g[i][k] * g[j][k] for k in range(dim)) for j in range(dim)]
                for i in range(dim)
            ]
            assert psd_check_exact(RationalMatrix(prod))


class TestPsdAgainstReference:
    """The fraction-free decision agrees with rational LDL^T."""

    def test_random_symmetric(self):
        rng = random.Random(33)
        outcomes = set()
        for _ in range(600):
            dim = rng.randint(1, 12)
            mat = random_rational_symmetric(rng, dim)
            if rng.random() < 0.5:
                # shift toward the PSD boundary so both answers occur
                shift = Fraction(rng.randint(0, 40 * dim), rng.randint(1, 4))
                mat = RationalMatrix(
                    [[v + (shift if i == j else 0) for j, v in enumerate(row)]
                     for i, row in enumerate(mat.entries)]
                )
            outcome = psd_check_exact(mat)
            assert outcome == ldlt_psd_reference(mat), repr(mat)
            outcomes.add(outcome)
        assert outcomes == {True, False}

    def test_rank_deficient_gram_products(self):
        rng = random.Random(34)
        outcomes = set()
        for _ in range(300):
            dim = rng.randint(2, 10)
            rank = rng.randint(0, dim - 1)
            g = [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(rank)]
                 for _ in range(dim)]
            mat = gram_product(g)
            assert psd_check_exact(mat) and ldlt_psd_reference(mat)
            # one off-diagonal pair changed: often indefinite, and at rank 0
            # the zero-pivot branch sees a remaining block that does not vanish
            i, j = rng.sample(range(dim), 2)
            rows = [row[:] for row in mat.entries]
            delta = Fraction(rng.choice([-1, 1]), rng.randint(1, 5))
            rows[i][j] += delta
            rows[j][i] += delta
            bad = RationalMatrix(rows)
            outcome = psd_check_exact(bad)
            assert outcome == ldlt_psd_reference(bad), repr(bad)
            outcomes.add(outcome)
        assert outcomes == {True, False}

    def test_mixed_denominators(self):
        rng = random.Random(35)
        denominators = (1, 2, 3, 7, 8, 9, 25, 2**20, 3**11)
        results = set()
        for _ in range(300):
            dim = rng.randint(1, 8)
            g = [[Fraction(rng.randint(-9, 9), rng.choice(denominators))
                  for _ in range(dim)] for _ in range(dim)]
            rows = [row[:] for row in gram_product(g).entries]
            k = rng.randrange(dim)
            rows[k][k] -= Fraction(rng.randint(0, 5), rng.choice(denominators))
            mat = RationalMatrix(rows)
            exact = psd_check_exact(mat)
            assert exact == ldlt_psd_reference(mat), repr(mat)
            results.add(exact)
        assert results == {True, False}

    @pytest.mark.parametrize("extra,expected", [(None, True), (0, True), (1, False)])
    def test_31x31_gram_with_2_pow_40_denominators(self, extra, expected):
        # M = L L^T with L lower triangular and entries k / 2^20, so M has
        # denominators 2^40; the Schur complement of M's last diagonal entry
        # is L[-1][-1]^2.  Lowering that entry by it (extra = 0) leaves a
        # singular PSD matrix, and lowering it by 2^-40 more makes it
        # indefinite.
        rng = random.Random(36)
        dim, unit = 31, Fraction(1, 2**20)
        low = [[rng.randint(-2**20, 2**20) * unit if j < i
                else rng.randint(1, 2**20) * unit if j == i else Fraction(0)
                for j in range(dim)] for i in range(dim)]
        rows = [row[:] for row in gram_product(low).entries]
        if extra is not None:
            rows[-1][-1] -= low[-1][-1] ** 2 + extra * unit**2
        # move the lowered index into the middle of the pivot order
        perm = list(range(dim - 1))
        perm.insert(13, dim - 1)
        mat = RationalMatrix([[rows[i][j] for j in perm] for i in perm])
        assert max(v.denominator for row in mat.entries for v in row) == 2**40
        assert psd_check_exact(mat) is expected
        assert ldlt_psd_reference(mat) is expected


class TestExpandGram:
    """The common-denominator expansion equals the term-by-term rational sum."""

    @staticmethod
    def _expand(n, d, blocks):
        """expand_gram's (coeffs, denom) as the rational polynomial it encodes."""
        coeffs, denom = expand_gram(n, d, [RationalMatrix(b) for b in blocks])
        assert all(type(v) is int for v in coeffs.values())
        return NCPolynomial(n, {w: Fraction(v, denom) for w, v in coeffs.items()})

    @staticmethod
    def _mixed(rng, value):
        """value as an int, a "p/q" string or a Fraction, chosen at random."""
        kind = rng.randrange(3)
        if kind == 0 and value.denominator == 1:
            return int(value)
        if kind == 1:
            return f"{value.numerator}/{value.denominator}"
        return value

    @pytest.mark.parametrize("n,d", [(2, 1), (3, 1), (2, 2), (3, 2), (4, 1)])
    def test_matches_term_by_term_sum(self, n, d):
        rng = random.Random(100 * n + d)
        q = sum(n**k for k in range(d + 1))
        zero_block = rng.randrange(n + 1)
        blocks = []
        for i in range(n + 1):
            den = 1 if i == zero_block else 2 + 3 * i
            raw = [[Fraction(rng.randint(-9, 9), den) for _ in range(q)] for _ in range(q)]
            sym = [[0 if i == zero_block else raw[a][b] + raw[b][a] for b in range(q)]
                   for a in range(q)]
            blocks.append(sym)
        # the same values, entered as ints, strings and Fractions
        mixed = [[[self._mixed(rng, Fraction(v)) for v in row] for row in b] for b in blocks]
        for a in range(q):
            for b in range(a):
                for block in mixed:
                    block[a][b] = block[b][a]
        expansion = self._expand(n, d, mixed)
        assert expansion == expand_with_gram(n, d, 0, blocks)

        # one off-diagonal pair changed breaks the identity
        i = (zero_block + 1) % (n + 1)
        blocks[i][0][1] += Fraction(1, 3)
        blocks[i][1][0] += Fraction(1, 3)
        assert expansion != expand_with_gram(n, d, 0, blocks)
        assert self._expand(n, d, blocks) == expand_with_gram(n, d, 0, blocks)

    def test_too_many_blocks_rejected(self):
        with pytest.raises(ValueError, match="at most 3 Gram blocks"):
            expand_gram(2, 1, [RationalMatrix.identity(3)] * 4)


class TestSosCertificates:
    def test_m2_family_exact(self):
        # n = 2..20 is the range the certify benchmark certifies
        for n in range(2, 21):
            cert = build_m2_certificate(n)
            assert cert.lam == Fraction(n * (n - 1), 4)
            assert verify_sos(cert)
            back = sos_certificate_from_json(sos_certificate_to_json(cert))
            assert verify_sos(back)

    def test_n2_matches_displayed_values(self):
        cert = build_m2_certificate(2)
        y1 = cert.gram_blocks[0]
        assert y1[0, 0] == Fraction(5, 4)
        assert y1[0, 1] == Fraction(-3, 4)
        assert y1[0, 2] == Fraction(1, 4)
        assert cert.lam == Fraction(1, 2)

    def test_n4_first_row(self):
        y1 = build_m2_certificate(4).gram_blocks[0]
        expected = [
            Fraction(15, 4),
            Fraction(-9, 8),
            Fraction(-1, 8),
            Fraction(-1, 8),
            Fraction(-1, 8),
        ]
        assert [y1[0, j] for j in range(5)] == expected

    def test_n7_lambda(self):
        cert = build_m2_certificate(7)
        assert cert.lam == Fraction(21, 2)
        assert verify_sos(cert)

    def test_tampered_lambda_fails(self):
        cert = build_m2_certificate(3)
        bad = SosCertificate(
            m=cert.m, n=cert.n, sign=cert.sign,
            lam=Fraction(1, 4), gram_blocks=cert.gram_blocks,
        )
        assert not verify_sos(bad)

    def test_tampered_block_fails(self):
        cert = build_m2_certificate(3)
        entries = [row[:] for row in cert.gram_blocks[0].entries]
        entries[1][2] += 1
        entries[2][1] += 1
        blocks = [RationalMatrix(entries)] + cert.gram_blocks[1:]
        bad = SosCertificate(m=2, n=3, sign=1, lam=cert.lam, gram_blocks=blocks)
        assert not verify_sos(bad)

    def test_wrong_block_count_rejected(self):
        cert = build_m2_certificate(3)
        bad = SosCertificate(
            m=2, n=3, sign=1, lam=cert.lam, gram_blocks=cert.gram_blocks[:-1]
        )
        with pytest.raises(ValueError):
            verify_sos(bad)

    @pytest.mark.parametrize("m,n,sign", [(2, 3, 0), (2, 3, 2), (0, 3, 1), (4, 3, -1)])
    def test_malformed_header_rejected(self, m, n, sign):
        # all-zero blocks with lambda 0 would otherwise certify 0 = 0 * target
        zero = [["0/1"] * 4 for _ in range(4)]
        data = {"m": m, "n": n, "sign": sign, "lambda": "0/1",
                "blocks": [zero] * (n + 1)}
        with pytest.raises(ValueError):
            verify_sos(sos_certificate_from_json(data))

    @pytest.mark.parametrize("key,value", [("m", 2.9), ("n", 3.5), ("sign", 1.0),
                                           ("sign", True), ("m", "2")])
    def test_non_integer_header_rejected(self, key, value):
        # int() would truncate m = 2.9 to 2 and verify the m = 2 certificate
        data = sos_certificate_to_json(build_m2_certificate(3))
        data[key] = value
        with pytest.raises(ValueError, match=f'"{key}" must be an integer'):
            sos_certificate_from_json(data)

    def test_zero_size_blocks_rejected(self):
        data = {"m": 2, "n": 3, "sign": 1, "lambda": "0/1", "blocks": [[]] * 4}
        with pytest.raises(ValueError, match="dimension 0"):
            verify_sos(sos_certificate_from_json(data))

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            build_m2_certificate(1)

    @pytest.mark.parametrize("path,value", [
        ((0, 1, 2), True), ((3, 0, 0), 0.1), ((1, 2, 2), 2.0), ((2, 0, 3), None),
        ("lambda", 1.5), ("lambda", True), ("lambda", [1, 2]),
    ])
    def test_inexact_json_value_rejected(self, path, value):
        # Fraction() reads true as 1 and 0.1 as 3602879701896397/36028797018963968,
        # and fails on null or a list with a TypeError
        data = sos_certificate_to_json(build_m2_certificate(3))
        if path == "lambda":
            data["lambda"] = value
            name = '"lambda"'
        else:
            i, a, b = path
            data["blocks"][i][a][b] = value
            name = f'"blocks"[{i}][{a}][{b}]'
        with pytest.raises(ValueError, match=re.escape(name) + " must be an integer"):
            sos_certificate_from_json(data)

    def test_json_round_trip(self):
        cert = build_m2_certificate(4)
        back = sos_certificate_from_json(sos_certificate_to_json(cert))
        assert back.lam == cert.lam
        assert back.gram_blocks == cert.gram_blocks
        assert verify_sos(back)


def _transposed(block, n, i):
    """block with its basis (1, X_1, ..., X_n) permuted by swapping 1 and i."""
    perm = list(range(n + 1))
    perm[1], perm[i] = i, 1
    return RationalMatrix([[block[a, b] for b in perm] for a in perm])


class TestOrbitCheck:
    """verify_sos runs one Bareiss elimination per orbit of Gram blocks."""

    @staticmethod
    def counted(monkeypatch):
        """Record the verdict of every psd_check_exact call verify_sos makes."""
        import ncagm.certify as certify_module

        verdicts = []
        check = certify_module.psd_check_exact

        def counting(mat):
            verdicts.append(check(mat))
            return verdicts[-1]

        monkeypatch.setattr(certify_module, "psd_check_exact", counting)
        return verdicts

    def test_copies_of_non_psd_block_fail(self):
        n = 4
        cert = build_m2_certificate(n)
        rows = [row[:] for row in cert.gram_blocks[0].entries]
        rows[1][1] = Fraction(-1)
        first = RationalMatrix(rows)
        assert not psd_check_exact(first)
        blocks = [first] + [_transposed(first, n, i) for i in range(2, n + 1)]
        bad = SosCertificate(m=2, n=n, sign=1, lam=cert.lam,
                             gram_blocks=blocks + cert.gram_blocks[n:])
        assert not verify_sos(bad)

    def test_non_copy_block_is_eliminated(self, monkeypatch):
        # moving delta between Y_2[0,3] and Y_3[2,0] (and their mirrors)
        # keeps every word's coefficient, so only the PSD check can fail
        n, delta = 4, Fraction(100)
        cert = build_m2_certificate(n)
        y2 = [row[:] for row in cert.gram_blocks[1].entries]
        y3 = [row[:] for row in cert.gram_blocks[2].entries]
        y2[0][3] += delta
        y2[3][0] += delta
        y3[2][0] -= delta
        y3[0][2] -= delta
        blocks = list(cert.gram_blocks)
        blocks[1:3] = [RationalMatrix(y2), RationalMatrix(y3)]
        assert expand_gram(n, 1, blocks) == expand_gram(n, 1, cert.gram_blocks)
        bad = SosCertificate(m=2, n=n, sign=1, lam=cert.lam, gram_blocks=blocks)
        verdicts = self.counted(monkeypatch)
        assert not verify_sos(bad)
        assert verdicts == [True, False]

    def test_two_eliminations_for_m2_family(self, monkeypatch):
        verdicts = self.counted(monkeypatch)
        for n in range(2, 21):
            verdicts.clear()
            assert verify_sos(build_m2_certificate(n))
            assert verdicts == [True, True]

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_one_elimination_per_block_without_copies(self, n, monkeypatch):
        rng = random.Random(n)
        blocks = [gram_product([[rng.randint(-3, 3) for _ in range(n + 1)]
                                for _ in range(n + 1)]) for _ in range(n + 1)]
        cert = SosCertificate(m=2, n=n, sign=1, lam=Fraction(n * (n - 1), 4),
                              gram_blocks=blocks)
        verdicts = self.counted(monkeypatch)
        verify_sos(cert)
        assert verdicts == [True] * (n + 1)

    def test_round_trip_shares_no_entries(self, monkeypatch):
        verdicts = self.counted(monkeypatch)
        for n in (3, 8):
            back = sos_certificate_from_json(sos_certificate_to_json(build_m2_certificate(n)))
            entries = [v for block in back.gram_blocks for row in block.entries for v in row]
            assert len({id(v) for v in entries}) == len(entries)
            verdicts.clear()
            assert verify_sos(back)
            assert verdicts == [True, True]


class TestFarkasCheck:
    def test_round_trip_2_2(self):
        problem = assemble_sdp(2, 2, 1)
        cert = extract_farkas(problem, 0.4)
        margin = farkas_check(problem, cert)
        assert margin > 0
        assert margin == pytest.approx(cert.margin, abs=1e-9)

    def test_zero_vector_not_a_certificate(self):
        problem = assemble_sdp(2, 2, 1)
        cert = FarkasCertificate(
            lambda_target=0.4,
            y0=0.0,
            y=np.zeros(problem.num_constraints),
            margin=0.0,
            psd_defect=0.0,
        )
        margin = farkas_check(problem, cert)
        assert margin == 0.0

    def test_sign_flip_invalidates(self):
        problem = assemble_sdp(2, 2, 1)
        cert = extract_farkas(problem, 0.4)
        y = cert.y.copy()
        k = int(np.abs(y).argmax())
        y[k] = -y[k]
        flipped = FarkasCertificate(
            lambda_target=cert.lambda_target,
            y0=cert.y0,
            y=y,
            margin=cert.margin,
            psd_defect=cert.psd_defect,
        )
        try:
            margin = farkas_check(problem, flipped)
            assert margin <= 0
        except CertificateError:
            pass  # the PSD-defect assertion tripping is equally acceptable

    def test_empty_objective(self):
        problem = SdpProblem((1,), [{(0, 0, 0): 1.0}], [1.0], {})
        cert = FarkasCertificate(0.0, 0.0, np.array([-1.0]), -1.0, -1.0)
        assert farkas_check(problem, cert) == -1.0
        bad = FarkasCertificate(0.0, 0.0, np.array([1.0]), 1.0, 1.0)
        with pytest.raises(CertificateError):
            farkas_check(problem, bad)

    def test_wrong_length_rejected(self):
        problem = assemble_sdp(2, 2, 1)
        cert = FarkasCertificate(0.4, -1.0, np.zeros(3), 0.0, 0.0)
        with pytest.raises(ValueError):
            farkas_check(problem, cert)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_bound_decided_on_either_side(self, seed):
        """A defect 1e-7 (relative) above tolerance*scale is rejected and one
        1e-7 below is accepted; S is rebuilt here from ``dense_matrix``."""
        rng = np.random.default_rng(seed)
        dims = (3, 1, 4)
        rows = []
        for _ in range(4):
            rows.append({(b, i, j): float(rng.normal()) for b, d in enumerate(dims)
                         for i in range(d) for j in range(i, d) if rng.random() < 0.7})
        objective = {(2, 0, 3): 1.5, (0, 1, 1): -0.5}
        problem = SdpProblem(dims, rows, [1.0, -2.0, 0.5, 3.0], objective)
        cert = FarkasCertificate(1.0, -1.0, rng.normal(size=4), 0.0, 0.0)
        blocks = [cert.y0 * blk for blk in problem.dense_matrix(0)]
        for k, yk in enumerate(cert.y):
            for blk, add in zip(blocks, problem.dense_matrix(k + 1)):
                blk += yk * add
        defect = max(np.linalg.eigvalsh(blk).max() for blk in blocks)
        scale = (1.0 + np.abs(cert.y).sum()) * max(abs(v) for v in problem.entries.value)
        assert defect > 0.1 * scale
        margin = float(cert.lambda_target * cert.y0 + np.asarray(problem.rhs) @ cert.y)
        assert farkas_check(problem, cert, tolerance=defect / scale * (1 + 1e-7)) == margin
        with pytest.raises(CertificateError, match=r"^PSD defect (\S+) exceeds") as err:
            farkas_check(problem, cert, tolerance=defect / scale * (1 - 1e-7))
        assert float(err.value.args[0].split()[2]) == pytest.approx(defect, rel=1e-3)


class TestEvalInstance:
    def test_identity_tuple_tight(self):
        for n in range(2, 5):
            for m in range(1, n + 1):
                report = eval_instance([np.eye(3)] * n, m)
                bound = math.factorial(n) // math.factorial(n - m)
                assert report.feasible
                assert report.max_eig == pytest.approx(bound, abs=1e-12)
                assert not report.violations

    def test_sharp_pair(self):
        a1 = np.diag([1.5, 0.0])
        a2 = np.array([[1 / 6, np.sqrt(2) / 3], [np.sqrt(2) / 3, 4 / 3]])
        report = eval_instance([a1, a2], 2)
        assert report.feasible
        assert report.min_eig == pytest.approx(-0.5, abs=1e-9)
        assert not report.violations
        assert report.improved_bounds["improved m=2 lower bound"] == 0.5

    def test_random_psd_tuples_no_violations(self):
        rng = np.random.default_rng(77)
        for _ in range(100):
            n = 4
            m = int(rng.integers(2, 4))
            mats = []
            for _ in range(n):
                g = rng.standard_normal((3, 3))
                mats.append(g @ g.T)
            total = sum(mats)
            scale = n / max(float(np.linalg.eigvalsh(total).max()), 1e-12)
            mats = [scale * a for a in mats]
            report = eval_instance(mats, m)
            assert report.feasible
            assert not report.violations

    def test_scalar_reduction(self):
        rng = random.Random(78)
        for _ in range(N_CASES):
            n = rng.randint(2, 5)
            m = rng.randint(1, n)
            raw = [rng.random() for _ in range(n)]
            scale = n * rng.random() / max(sum(raw), 1e-12)
            mats = [np.array([[v * scale]]) for v in raw]
            report = eval_instance(mats, m)
            assert report.feasible
            assert not report.violations

    def test_infeasible_inputs_flagged(self):
        report = eval_instance([np.diag([-1.0, 0.0]), np.eye(2)], 2)
        assert not report.inputs_psd
        assert not report.feasible
        report = eval_instance([3 * np.eye(2), 3 * np.eye(2)], 2)
        assert not report.sum_bounded

    def test_dimension_errors(self):
        with pytest.raises(ValueError):
            eval_instance([np.eye(2), np.eye(3)], 2)
        with pytest.raises(ValueError):
            eval_instance([np.eye(2)], 2)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("index", [(0, 1), (1, 0), (1, 1)],
                             ids=["upper", "lower", "diagonal"])
    def test_non_finite_entries_rejected(self, value, index):
        a = np.eye(2)
        a[index] = value
        with pytest.raises(ValueError, match="finite"):
            eval_instance([np.eye(2), a], 2)

    def test_zero_size_rejected(self):
        with pytest.raises(ValueError, match="at least one entry"):
            eval_instance([np.zeros((0, 0)), np.zeros((0, 0))], 2)

    @pytest.mark.parametrize("key,value", [("n", 2.7), ("m", 1.5), ("n", True), ("m", None)])
    def test_load_instance_non_integer_rejected(self, key, value):
        payload = {"n": 2, "m": 2, "matrices": [[1, 0, 0, 1], [1, 0, 0, 1]]}
        payload[key] = value
        with pytest.raises(ValueError, match=f'"{key}" must be an integer'):
            load_instance(payload)

    @pytest.mark.parametrize("matrix", ["1", [True], [1, "0", 0, 1], [1, None, 0, 1], {"0": 1}, 1.0],
                             ids=["string", "bool", "string-entry", "null-entry", "object", "number"])
    def test_load_instance_non_number_matrix_rejected(self, matrix):
        # float() would read "1" as a digit, true as 1.0 and "0" as 0.0
        payload = {"n": 2, "m": 2, "matrices": [[1, 0, 0, 1], matrix]}
        with pytest.raises(ValueError, match=r'"matrices"\[1\] must be a list of numbers'):
            load_instance(payload)

    def test_load_instance(self, tmp_path):
        import json

        path = tmp_path / "inst.json"
        payload = {"n": 2, "m": 2, "matrices": [[1, 0, 0, 1], [1, 0, 0, 1]]}
        path.write_text(json.dumps(payload))
        matrices, m = load_instance(str(path))
        assert m == 2
        assert np.allclose(matrices[0], np.eye(2))


class TestSpectralNormProperty:
    def test_anticommutator_bounds(self):
        # ||AB + BA|| <= ||A^2 + B^2|| holds for all symmetric pairs;
        # 2||AB + BA|| <= ||(A+B)^2|| needs PSD inputs (scalar pair (1, -1)
        # already breaks it for indefinite matrices)
        rng = np.random.default_rng(79)
        for _ in range(N_CASES):
            dim = int(rng.integers(1, 5))
            a = rng.standard_normal((dim, dim))
            b = rng.standard_normal((dim, dim))
            a = 0.5 * (a + a.T)
            b = 0.5 * (b + b.T)
            lhs = np.linalg.norm(a @ b + b @ a, 2)
            assert lhs <= np.linalg.norm(a @ a + b @ b, 2) + 1e-9
            a_psd = a @ a.T
            b_psd = b @ b.T
            lhs = np.linalg.norm(a_psd @ b_psd + b_psd @ a_psd, 2)
            s = a_psd + b_psd
            assert 2 * lhs <= np.linalg.norm(s @ s, 2) + 1e-9


class TestSosDominatesNumerics:
    def test_certified_bound_holds_on_samples(self):
        # a verified certificate for sign=+1 proves -lam*I <= distinct sum
        # on every feasible tuple
        rng = np.random.default_rng(80)
        for n in (2, 3):
            cert = build_m2_certificate(n)
            assert verify_sos(cert)
            lam = float(cert.lam)
            for _ in range(50):
                mats = []
                for _ in range(n):
                    g = rng.standard_normal((3, 3))
                    mats.append(g @ g.T)
                total = sum(mats)
                scale = n / max(float(np.linalg.eigvalsh(total).max()), 1e-12)
                mats = [scale * a for a in mats]
                value = distinct_product_sum(2, n).evaluate(mats)
                value = 0.5 * (value + value.T)
                assert float(np.linalg.eigvalsh(value).min()) >= -lam - 1e-8 * max(
                    lam, 1.0
                )
