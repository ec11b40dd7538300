"""SDPA sparse format I/O: round-trip identity, comment handling, and
malformed-input diagnostics with line numbers."""

import hashlib
import io
import random

import pytest

from ncagm import (
    SdpProblem,
    SdpaParseError,
    assemble_sdp,
    import_sdpa,
    symmetry_reduce,
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
        path.write_text(render_sdpa(prob))
        with open(path) as fh:
            back = import_sdpa(fh)
        assert back.constraints == prob.constraints

    def test_binary_stream(self):
        prob = assemble_sdp(2, 2, 1)
        buf = io.BytesIO(render_sdpa(prob).encode("ascii"))
        back = import_sdpa(buf)
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


# sha256 of render_sdpa(assemble_sdp(m, n, sign)), as written by the
# earlier assembly that walked word tuples; reduced exports are not pinned,
# since they pass through a LAPACK solve
FULL_EXPORT_SHA256 = {
    (1, 1, +1): "0a02b2cf21a3419bb33471c28e7ac98f6b7ada57aa867b3fa2abf58f2077bb1b",
    (1, 1, -1): "dec08bc3fd05c7fac6377a5dfaf89ddd30e7652711e680b954c281aaa4567ef3",
    (1, 2, +1): "496983aa8bcd16b297b5ab166e7e73d4807889917659b3c9c0bd9f4a0a36876c",
    (1, 2, -1): "264fa801e05469faf5edcffaf4bf579fc7ff1d09f111ce0380f94c09796a0969",
    (2, 2, +1): "6b12d98974151d254ba474cc6addb615cd6ea51621b145048b624d2fc8810c23",
    (2, 2, -1): "f11a3cfb68dece17359053247b3722986f1665a9b42cfd4f930018b600d3dfd0",
    (1, 3, +1): "c7f409f110aa32cab1b1d2af0ed7dfa4c9cda0bf087658744cec7440b56ffc41",
    (1, 3, -1): "a4488bb49d4cb02b996515008efd81e12918f3d079c0040a32239942a9648b2a",
    (2, 3, +1): "a73b15c470c80941e4428facb0879ef2af4cbab890613249856048345eb1134d",
    (2, 3, -1): "64c5845aef4dff21abecd1fce4f4dbfa432cc50ebbdcbe2fde13097b2fd9044d",
    (3, 3, +1): "527e185fbf4d428e367c9ebfb1b71d428212673c56c9f70d761e4157819318e2",
    (3, 3, -1): "9c2e99e3e3bf9237608c8194a152b650f039546cc8a10bfb9dd2dc4ceb411a75",
    (1, 4, +1): "92330ea67a28e69a06f1fd18d50bab9dffa488cbc515e304f306b1e4f63b52ea",
    (1, 4, -1): "ead7c257e0a816278714c3b45a5ce825a18f293440627cede63b48017eb33a80",
    (2, 4, +1): "64ab7d8a685a91312d5daa040dd7db0b7480e8825b27bbf1838c5034aef77347",
    (2, 4, -1): "359c5303fe7c5825d6332363ce740052a3d152372f7842aaa0a69694ea5bb1a8",
    (3, 4, +1): "b1d6d917a63be93b8cf3a2c039a44b61af7cb647ad958ce71df90af90dfcb7b9",
    (3, 4, -1): "457d46c064d8a41f0aa76c2ad7daf2738beccbd85b07837f11777cdea3b762f8",
    (4, 4, +1): "f2a642bad7434afe32f524a821343ba30cdfbdb2091541eba61ed233b0db197b",
    (4, 4, -1): "49f3859c864de278899b3cf5307adfc3ce701c4ef05e8a0029efe90aa611efa0",
    (1, 5, +1): "d14da064f3c3a0b105b58510f0373e36dd628cea95cf401622c08de7f247e703",
    (1, 5, -1): "8fad676167db199ec36db4669409531e5b0c5438b312a98fc6cc720efd659063",
    (2, 5, +1): "06b2041946827bb532accc548e25bea82222f7ce9ceefe0a411f2077f6bf271a",
    (2, 5, -1): "fe305fadbd4be91c4ea6361d7f4435735e3309be15ca59d8cd6f5b6c90ea42fd",
    (3, 5, +1): "68ed826425b21253a184be24f586fe2b53d5a88cfdbb5b22266bd9da66832317",
    (3, 5, -1): "604df794b2f21f9f95286cb321f2cdc3ecfd1936a029836b80e67e859929b19e",
    (4, 5, +1): "414e59ac064b50608f7321cfec01f50095048f74ebfd6987cdd4c6391f0654c0",
    (4, 5, -1): "a0fd218945fb2b132fada8a5055e6ac761567e938975df5cdd33f2dbb26da0b9",
    (5, 5, +1): "aeb60c43d93ca7756765adfef8926cb424e2f809f742fb8dc27a193abcdd5856",
    (5, 5, -1): "2e2cc0cc219c03e8068f569197d9ddbbe7b5a81e1c7899726634ededba4d3888",
}


@pytest.mark.parametrize("m,n,sign", sorted(FULL_EXPORT_SHA256))
def test_full_export_pinned(m, n, sign):
    text = render_sdpa(assemble_sdp(m, n, sign))
    assert hashlib.sha256(text.encode()).hexdigest() == FULL_EXPORT_SHA256[(m, n, sign)]


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

    def test_off_diagonal_entry_in_diagonal_block_rejected(self):
        text = "1\n1\n-2\n3.0\n1 1 1 2 1.0\n"
        with pytest.raises(SdpaParseError, match="off-diagonal entry") as err:
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

    @pytest.mark.parametrize("text,line,what", [
        ("{}\n1\n1\n1.0\n", 1, "missing constraint count"),
        ("1\n()\n1\n1.0\n", 2, "missing block count"),
        ("1\n1\n0\n1.0\n", 3, "block dimension 0"),
    ])
    def test_empty_header_field(self, text, line, what):
        with pytest.raises(SdpaParseError, match=what) as err:
            import_sdpa(text)
        assert err.value.line_number == line

    @pytest.mark.parametrize("text,line", [
        ("1\n1\n2\n1.0\n0 1 1 1 1.0\n1 1 1 1 1.0\n1 1 1 1 5.0\n", 7),
        ("1\n1\n2\n1.0\n0 1 1 2 1.0\n* note\n0 1 1 2 1.0\n1 1 1 1 1.0\n", 7),
    ])
    def test_repeated_entry_rejected(self, text, line):
        # a repeat would silently replace the earlier value
        with pytest.raises(SdpaParseError, match="repeated entry") as err:
            import_sdpa(text)
        assert err.value.line_number == line

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
