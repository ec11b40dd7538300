"""SDPA sparse format I/O: round-trip identity, comment handling, and
malformed-input diagnostics with line numbers."""

import io
import random

import pytest

from ncagm import (
    SdpProblem,
    SdpaParseError,
    assemble_sdp,
    export_sdpa,
    import_sdpa,
    read_sdpa,
    symmetry_reduce,
    write_sdpa,
)
from ncagm.sdpa import render_sdpa

N_CASES = 1000


def random_problem(rng):
    nblocks = rng.randint(1, 3)
    dims = tuple(rng.randint(1, 3) for _ in range(nblocks))
    ncons = rng.randint(1, 4)

    def random_entries():
        entries = {}
        for _ in range(rng.randint(0, 5)):
            blk = rng.randrange(nblocks)
            i = rng.randrange(dims[blk])
            j = rng.randrange(i, dims[blk])
            entries[(blk, i, j)] = round(rng.uniform(-5, 5), 6)
        return entries

    constraints = [random_entries() for _ in range(ncons)]
    rhs = [round(rng.uniform(-5, 5), 6) for _ in range(ncons)]
    objective = random_entries() or {(0, 0, 0): 1.0}
    meta = {"m": rng.randint(1, 3), "n": rng.randint(1, 3), "sign": 1}
    return SdpProblem(dims, constraints, rhs, objective, meta)


class TestRoundTrip:
    def test_randomized_round_trip(self):
        rng = random.Random(42)
        for _ in range(N_CASES):
            prob = random_problem(rng)
            back = import_sdpa(render_sdpa(prob))
            assert back.block_dims == prob.block_dims
            assert back.constraints == prob.constraints
            assert back.rhs == prob.rhs
            assert back.objective == prob.objective

    @pytest.mark.parametrize("m,n,sign", [(2, 2, 1), (2, 3, -1), (3, 3, 1)])
    def test_assembled_round_trip(self, m, n, sign):
        prob = assemble_sdp(m, n, sign)
        back = import_sdpa(render_sdpa(prob))
        assert back.block_dims == prob.block_dims
        assert back.constraints == prob.constraints
        assert back.rhs == prob.rhs
        assert back.objective == prob.objective
        assert back.meta == prob.meta

    def test_reduced_meta_round_trip(self):
        reduced, _ = symmetry_reduce(assemble_sdp(2, 3, 1))
        back = import_sdpa(render_sdpa(reduced))
        assert back.meta == reduced.meta
        assert back.meta["reduced"] is True

    def test_file_round_trip(self, tmp_path):
        prob = assemble_sdp(2, 2, 1)
        path = tmp_path / "prob.dat-s"
        write_sdpa(prob, str(path))
        back = read_sdpa(str(path))
        assert back.constraints == prob.constraints

    def test_binary_stream(self):
        prob = assemble_sdp(2, 2, 1)
        buf = io.BytesIO()
        export_sdpa(prob, buf)
        back = import_sdpa(buf.getvalue())
        assert back.constraints == prob.constraints

    def test_deterministic_export(self):
        a = render_sdpa(assemble_sdp(3, 3, 1))
        b = render_sdpa(assemble_sdp(3, 3, 1))
        assert a == b

    def test_header_shape_5_5(self):
        text = render_sdpa(assemble_sdp(5, 5, 1))
        lines = [l for l in text.splitlines() if not l.startswith("*")]
        assert lines[0] == "3906"
        assert lines[1] == "7"
        assert lines[2].split() == ["1", "31", "31", "31", "31", "31", "31"]

    def test_header_shape_1_2(self):
        text = render_sdpa(assemble_sdp(1, 2, 1))
        lines = [l for l in text.splitlines() if not l.startswith("*")]
        assert lines[0] == "3"
        assert lines[1] == "4"
        assert lines[2].split() == ["1", "1", "1", "1"]


class TestParsing:
    def test_toy_problem(self):
        text = "1\n1\n1\n3.0\n0 1 1 1 1.0\n1 1 1 1 1.0\n"
        prob = import_sdpa(text)
        assert prob.block_dims == (1,)
        assert prob.rhs == [3.0]
        assert prob.objective == {(0, 0, 0): 1.0}
        assert prob.constraints == [{(0, 0, 0): 1.0}]

    def test_comments_tolerated(self):
        text = '"generated by hand\n* another comment\n1\n1\n1\n3.0\n1 1 1 1 1.0\n'
        prob = import_sdpa(text)
        assert prob.rhs == [3.0]

    def test_brace_separators(self):
        text = "1\n2\n{1, 2}\n{3.0}\n1 2 1 2 1.0\n"
        prob = import_sdpa(text)
        assert prob.block_dims == (1, 2)
        assert prob.constraints == [{(1, 0, 1): 1.0}]

    def test_negated_diagonal_block(self):
        text = "1\n2\n1 -2\n3.0\n1 2 1 1 1.0\n"
        prob = import_sdpa(text)
        assert prob.block_dims == (1, 2)

    def test_lower_triangle_rejected(self):
        text = "1\n1\n2\n3.0\n1 1 2 1 1.0\n"
        with pytest.raises(SdpaParseError) as err:
            import_sdpa(text)
        assert err.value.line_number == 5

    def test_bad_block_number(self):
        text = "1\n1\n2\n3.0\n1 2 1 1 1.0\n"
        with pytest.raises(SdpaParseError):
            import_sdpa(text)

    def test_bad_matrix_number(self):
        text = "1\n1\n2\n3.0\n2 1 1 1 1.0\n"
        with pytest.raises(SdpaParseError):
            import_sdpa(text)

    def test_non_numeric_token(self):
        text = "1\n1\n2\n3.0\n1 1 1 1 abc\n"
        with pytest.raises(SdpaParseError) as err:
            import_sdpa(text)
        assert "abc" in str(err.value)

    def test_truncated_header(self):
        with pytest.raises(SdpaParseError):
            import_sdpa("1\n1\n")

    def test_wrong_rhs_count(self):
        text = "2\n1\n2\n3.0\n1 1 1 1 1.0\n"
        with pytest.raises(SdpaParseError) as err:
            import_sdpa(text)
        assert err.value.line_number == 4

    def test_wrong_block_dim_count(self):
        text = "1\n2\n2\n3.0\n1 1 1 1 1.0\n"
        with pytest.raises(SdpaParseError):
            import_sdpa(text)

    def test_entry_out_of_block_range(self):
        text = "1\n1\n2\n3.0\n1 1 1 3 1.0\n"
        with pytest.raises(SdpaParseError):
            import_sdpa(text)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_rhs_rejected(self, token):
        text = f"1\n1\n2\n{token}\n1 1 1 1 1.0\n"
        with pytest.raises(SdpaParseError, match="non-finite right-hand side") as err:
            import_sdpa(text)
        assert err.value.line_number == 4

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_entry_rejected(self, token):
        text = f"1\n1\n2\n3.0\n0 1 1 1 1.0\n1 1 2 2 {token}\n"
        with pytest.raises(SdpaParseError, match="non-finite value") as err:
            import_sdpa(text)
        assert err.value.line_number == 6
