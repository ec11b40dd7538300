"""Command-line interface: exit codes, output formats, and artifacts."""

import argparse
import hashlib
import json
import math
import os
import pickle
import re
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ncagm.cli
from ncagm import SdpProblem, assemble_sdp, import_sdpa, symmetry_reduce
from ncagm.cli import (
    EXIT_INVALID_CERTIFICATE,
    EXIT_NO_CERTIFICATE,
    EXIT_OK,
    EXIT_SOLVER,
    EXIT_USAGE,
    EXIT_VIOLATION,
    build_parser,
    main,
)
from ncagm.sdpa import render_sdpa


# sha256 of the stdout of `ncagm table --heavy --format json`
TABLE_HEAVY_JSON_SHA256 = "6fc3e700e7622eeb331346b2181610a795a613065c5f5ad6c04c18eee9246beb"


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_small_grid_csv(self, capsys, monkeypatch, tmp_path):
        out = tmp_path / "table.csv"
        code, stdout, _ = run(
            ["table", "--format", "csv", "--out", str(out)], capsys
        )
        assert code == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "m,n,lambda1,lambda2,bound,verdict"
        rows = {tuple(map(int, l.split(",")[:2])): l.split(",") for l in lines[1:]}
        assert len(rows) == 10  # m <= n <= 4
        assert rows[(2, 2)][3] == "0.5000"
        assert rows[(3, 3)][3] == "3.4113"
        assert rows[(4, 4)][3] == "22.4746"
        assert rows[(3, 4)][2] == "24.0000"
        assert all(l.endswith("ok") for l in lines[1:])

    def test_table_deterministic(self, capsys, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert run(["table", "--format", "csv", "--out", str(a)], capsys)[0] == 0
        assert run(["table", "--format", "csv", "--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_json_format(self, capsys):
        code, stdout, _ = run(["table", "--format", "json"], capsys)
        assert code == EXIT_OK
        records = json.loads(stdout)
        assert len(records) == 10
        by_key = {(r["m"], r["n"]): r for r in records}
        assert by_key[(1, 3)]["lambda1"] == "3.0000"
        assert by_key[(1, 3)]["lambda2"] == "0.0000"
        assert by_key[(1, 3)]["verdict"] == "ok"
        # the same bytes as the json module's sorted, indented encoding
        records = [{"m": 2, "n": 3, "bound": 6.0, "lambda1": 1.5, "lambda2": -0.75,
                    "verdict": "ok"},
                   ncagm.cli._error_row(3, 3, "bad \"x\" \\ y\n\u2264 z")]
        reference = [{"m": 2, "n": 3, "bound": "6.0000", "lambda1": "1.5000",
                      "lambda2": "-0.7500", "verdict": "ok"},
                     {"m": 3, "n": 3, "bound": "6.0000", "verdict": "ERROR",
                      "error": "bad \"x\" \\ y\n\u2264 z"}]
        assert ncagm.cli.format_table(records, "json") == (
            json.dumps(reference, indent=2, sort_keys=True) + "\n")

    def test_heavy_json_bytes_pinned(self, capsys):
        code, stdout, _ = run(["table", "--heavy", "--format", "json"], capsys)
        assert code == EXIT_OK
        assert hashlib.sha256(stdout.encode()).hexdigest() == TABLE_HEAVY_JSON_SHA256

    def test_one_build_per_n_and_degree(self, fan_out, capsys, monkeypatch, tmp_path):
        # counted through a file, since the calls are made in the workers
        log = tmp_path / "calls"
        names = ("assemble_sdp", "symmetry_reduce", "retargeting")
        for name in names:
            original = getattr(ncagm.cli, name)

            def counted(*args, _name=name, _original=original):
                fd = os.open(log, os.O_WRONLY | os.O_APPEND | os.O_CREAT)
                try:
                    os.write(fd, f"{_name}\n".encode())
                finally:
                    os.close(fd)
                return _original(*args)

            monkeypatch.setattr(ncagm.cli, name, counted)

        def calls():
            lines = log.read_text().split()
            return {name: lines.count(name) for name in names}

        assert run(["table", "--format", "csv"], capsys)[0] == EXIT_OK
        assert calls() == {"assemble_sdp": 8, "symmetry_reduce": 8, "retargeting": 8}
        # the ten (n, d) of --heavy, and nothing kept from one run to the next
        for total in (18, 28):
            assert run(["table", "--heavy", "--format", "csv"], capsys)[0] == EXIT_OK
            assert calls() == {"assemble_sdp": total, "symmetry_reduce": total,
                               "retargeting": total}

    def test_failed_build_fails_its_group_only(self, capsys, monkeypatch):
        original = ncagm.cli.symmetry_reduce

        def failing(problem):
            if (problem.meta["n"], problem.meta["d"]) == (3, 1):
                raise RuntimeError("reduction failed")
            return original(problem)

        monkeypatch.setattr(ncagm.cli, "symmetry_reduce", failing)
        code, stdout, _ = run(["table", "--format", "json"], capsys)
        assert code == EXIT_SOLVER
        records = json.loads(stdout)
        by_key = {(r["m"], r["n"]): r for r in records}
        assert len(records) == len(by_key) == 10
        for key, record in by_key.items():
            if key in ((2, 3), (3, 3)):
                assert record["verdict"] == "ERROR"
                assert record["error"] == "reduction failed"
                assert "lambda1" not in record
            else:
                assert record["verdict"] == "ok"
        assert by_key[(1, 3)]["lambda1"] == "3.0000"

    def test_heavy_json_bytes_pinned_in_process(self, capsys, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        code, stdout, _ = run(["table", "--heavy", "--format", "json"], capsys)
        assert code == EXIT_OK
        assert hashlib.sha256(stdout.encode()).hexdigest() == TABLE_HEAVY_JSON_SHA256

    @pytest.mark.parametrize("tol", ["1e-3", "1e-4"])
    def test_loose_tol_flags_only_the_refuted_row(self, tol, capsys):
        # at a loose tolerance lambda_1 of a tight row ends above its bound
        # by more than 1e-4 (24.0148 at (3,4) and --tol 1e-3), while the
        # dual objective, a lower bound on lambda_1, stays below it
        code, stdout, _ = run(["table", "--heavy", "--tol", tol, "--format", "json"], capsys)
        assert code == EXIT_OK
        verdicts = {(r["m"], r["n"]): r["verdict"] for r in json.loads(stdout)}
        assert len(verdicts) == 14
        assert {key for key, verdict in verdicts.items() if verdict != "ok"} == {(5, 5)}
        assert verdicts[(5, 5)] == "VIOLATION"

    @pytest.mark.parametrize("output_format", ["text", "csv"])
    def test_workers_print_the_in_process_table(self, output_format, capsys, monkeypatch):
        argv = ["table", "--format", output_format]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        in_process = run(argv, capsys)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert run(argv, capsys) == in_process

    def test_nonpositive_tol_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["table", "--tol", "0"])
        assert err.value.code == EXIT_USAGE
        assert "--tol must be positive" in capsys.readouterr().err


@pytest.fixture
def fan_out(monkeypatch):
    """Two usable CPUs, whatever the host has, so that `table` forks two
    workers."""
    if sys.platform != "linux":
        pytest.skip("table forks workers on Linux only")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestWorkers:
    def test_no_child_left(self, fan_out, capsys):
        assert run(["table", "--heavy"], capsys)[0] == EXIT_OK
        assert_no_child_left()

    @pytest.mark.parametrize("death, error", [
        ("exit", "worker exited with status 7 before sending this group"),
        ("kill", "worker killed by signal 9 before sending this group"),
    ], ids=["exit", "kill"])
    def test_dying_worker_fails_its_group_only(self, death, error, fan_out, capsys,
                                                monkeypatch):
        parent = os.getpid()
        original = ncagm.cli._table_group

        def dying(ms, n, args):
            if (ms, n) == ([4], 4) and os.getpid() != parent:
                if death == "exit":
                    os._exit(7)
                os.kill(os.getpid(), signal.SIGKILL)
            return original(ms, n, args)

        expected = {(r["m"], r["n"]): r
                    for r in json.loads(run(["table", "--heavy", "--format", "json"],
                                            capsys)[1])}
        monkeypatch.setattr(ncagm.cli, "_table_group", dying)
        code, stdout, _ = run(["table", "--heavy", "--format", "json"], capsys)
        assert code == EXIT_SOLVER
        records = {(r["m"], r["n"]): r for r in json.loads(stdout)}
        assert records.keys() == expected.keys()
        for key, record in records.items():
            if key == (4, 4):
                assert record == {"m": 4, "n": 4, "bound": "24.0000", "verdict": "ERROR",
                                  "error": error}
            else:
                assert record == expected[key]
        assert_no_child_left()

    def test_interrupt_kills_and_reaps_workers(self, fan_out, monkeypatch):
        parent = os.getpid()

        def stalled(ms, n, args):
            if os.getpid() != parent:
                time.sleep(5)

        def interrupted(fd):
            raise KeyboardInterrupt

        monkeypatch.setattr(ncagm.cli, "_table_group", stalled)
        monkeypatch.setattr(ncagm.cli, "_receive", interrupted)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            main(["table", "--heavy"])
        # killed, not waited for
        assert time.monotonic() - start < 4
        assert_no_child_left()

    def test_unreduced_table_runs_in_process(self, fan_out, capsys, monkeypatch):
        forks = []
        fork = os.fork

        def counted():
            forks.append(os.getpid())
            return fork()

        def stub(ms, n, args):
            return [ncagm.cli._error_row(m, n, "stub") for m in ms]

        monkeypatch.setattr(ncagm.cli, "_table_group", stub)
        monkeypatch.setattr(os, "fork", counted)
        in_process = run(["table", "--symmetry", "off", "--format", "json"], capsys)
        assert forks == []
        # the reduced table forks its two workers
        assert run(["table", "--format", "json"], capsys) == in_process
        assert len(forks) == 2
        assert_no_child_left()

    @pytest.mark.parametrize("fails", [1, 2])
    def test_failed_fork_closes_its_pipe(self, fails, fan_out, monkeypatch):
        # fork ``fails`` raises; the workers forked before it are killed
        forks = []
        fork = os.fork

        def failing():
            forks.append(os.getpid())
            if len(forks) == fails:
                raise OSError(11, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(ncagm.cli, "_table_group", lambda ms, n, args: time.sleep(5))
        monkeypatch.setattr(os, "fork", failing)
        before = sorted(os.listdir("/proc/self/fd"))
        with pytest.raises(OSError, match="Resource temporarily unavailable"):
            main(["table"])
        assert len(forks) == fails
        assert sorted(os.listdir("/proc/self/fd")) == before
        assert_no_child_left()

    def test_truncated_message_names_its_group(self):
        # the second group's stream cut at every byte: the group is held
        # once its index pickle is complete
        records = [{"m": 1, "n": 1, "lambda1": 1.5, "verdict": "ok"}]
        index = pickle.dumps(5)
        second = index + pickle.dumps(records)
        for cut in range(len(second)):
            read, write = os.pipe()
            os.write(write, pickle.dumps(3) + pickle.dumps(records) + second[:cut])
            os.close(write)
            try:
                held = 5 if cut >= len(index) else None
                assert ncagm.cli._receive(read) == ({3: records}, held)
            finally:
                os.close(read)


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["table", "--tol", "nan"], "--tol must be positive and finite"),
            (["table", "--tol", "inf"], "--tol must be positive and finite"),
            # a tolerance of 1 or more would accept the starting iterate
            (["table", "--tol", "1000"], "--tol must be less than 1"),
            (["certify", "check-instance", "x.json", "--tol", "1"],
             "--tol must be less than 1"),
            (["certify", "farkas", "--m", "2", "--n", "2", "--lambda", "nan"],
             "--lambda must be finite"),
            (["solve", "--m", "0", "--n", "2"], "--m must be at least 1"),
            (["certify", "sos-m2", "--n", "1"], "--n must be at least 2"),
            # options a subcommand does not read are not accepted
            (["certify", "sos-m2", "--n", "3", "--symmetry", "off"],
             "unrecognized arguments"),
        ],
        ids=["tol-nan", "tol-inf", "tol-1000", "check-instance-tol-1", "lambda-nan", "m-0",
             "sos-m2-n-1", "sos-m2-symmetry"],
    )
    def test_bad_input_exits_2(self, argv, message, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == EXIT_USAGE
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv,suffix", [
        (["table"], ""),
        (["solve", "--m", "2", "--n", "2"], ".dat-s"),
        (["certify", "farkas", "--m", "2", "--n", "2", "--lambda", "0.4"], ""),
        (["certify", "sos-m2", "--n", "3"], ""),
        (["certify", "check-instance", "INSTANCE"], ""),
    ], ids=["table", "solve", "farkas", "sos-m2", "check-instance"])
    def test_unwritable_out_exits_2(self, argv, suffix, capsys, tmp_path):
        # an --out path in a directory that does not exist
        instance = tmp_path / "instance.json"
        instance.write_text(json.dumps({"n": 1, "m": 1, "matrices": [[1.0]]}))
        out = str(tmp_path / "missing" / "out")
        argv = [str(instance) if a == "INSTANCE" else a for a in argv]
        code, stdout, err = run(argv + ["--out", out], capsys)
        assert code == EXIT_USAGE
        assert err == f"ncagm: error: cannot write {out}{suffix}: No such file or directory\n"
        assert "verified" not in stdout and "wrote" not in stdout


class TestSolve:
    def test_solve_2_3_plus(self, capsys, tmp_path):
        base = str(tmp_path / "run")
        code, stdout, _ = run(
            ["solve", "--m", "2", "--n", "3", "--sign", "plus", "--out", base],
            capsys,
        )
        assert code == EXIT_OK
        assert "lambda = 1.5000" in stdout
        data = json.loads((tmp_path / "run.json").read_text())
        assert data["status"] == "optimal"
        assert float(data["lambda"]) == pytest.approx(1.5, abs=1e-3)
        assert (tmp_path / "run.dat-s").exists()

    def test_export_only(self, capsys, tmp_path):
        base = str(tmp_path / "export")
        code, stdout, _ = run(
            ["solve", "--m", "2", "--n", "3", "--export-only", "--out", base],
            capsys,
        )
        assert code == EXIT_OK
        assert (tmp_path / "export.dat-s").exists()
        assert not (tmp_path / "export.json").exists()

    def test_usage_error_m_exceeds_n(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--m", "5", "--n", "4"])
        assert err.value.code == EXIT_USAGE
        capsys.readouterr()

    def test_exported_file_reimports(self, capsys, tmp_path):
        base = str(tmp_path / "x")
        run(["solve", "--m", "2", "--n", "2", "--export-only", "--out", base], capsys)
        with open(base + ".dat-s") as fh:
            prob = import_sdpa(fh)
        assert prob.meta["m"] == 2
        assert prob.meta["reduced"] is True

    def test_symmetry_off(self, capsys, tmp_path):
        base = str(tmp_path / "full")
        code, stdout, _ = run(
            ["solve", "--m", "2", "--n", "2", "--symmetry", "off", "--out", base],
            capsys,
        )
        assert code == EXIT_OK
        with open(base + ".dat-s") as fh:
            prob = import_sdpa(fh)
        assert prob.block_dims == (1, 3, 3, 3)


class TestCertifyFarkas:
    def test_2_2_lambda_04(self, capsys):
        code, stdout, _ = run(
            ["certify", "farkas", "--m", "2", "--n", "2", "--lambda", "0.4"],
            capsys,
        )
        assert code == EXIT_OK
        assert "margin" in stdout
        assert "infeasible" in stdout

    def test_feasible_target(self, capsys):
        code, stdout, _ = run(
            ["certify", "farkas", "--m", "2", "--n", "2", "--lambda", "2.0"],
            capsys,
        )
        assert code == EXIT_NO_CERTIFICATE
        assert "no certificate" in stdout

    def test_report_artifact(self, capsys, tmp_path):
        out = tmp_path / "farkas.json"
        code, _, _ = run(
            [
                "certify", "farkas", "--m", "2", "--n", "2",
                "--lambda", "0.4", "--out", str(out),
            ],
            capsys,
        )
        assert code == EXIT_OK
        report = json.loads(out.read_text())
        assert float(report["margin"]) > 0
        assert float(report["recomputed_margin"]) > 0
        assert len(report["dual"]) == 15

    def test_symmetry_on_and_off_agree(self, capsys, tmp_path):
        from ncagm import assemble_sdp

        reports = {}
        for mode in ("on", "off"):
            out = tmp_path / f"farkas-{mode}.json"
            code, _, _ = run(
                [
                    "certify", "farkas", "--m", "3", "--n", "3", "--lambda", "3.0",
                    "--symmetry", mode, "--out", str(out),
                ],
                capsys,
            )
            assert code == EXIT_OK
            reports[mode] = json.loads(out.read_text())
        rows = assemble_sdp(3, 3, 1).num_constraints
        assert len(reports["on"]["dual"]) == rows
        assert len(reports["off"]["dual"]) == rows
        assert float(reports["on"]["recomputed_margin"]) == pytest.approx(
            float(reports["off"]["recomputed_margin"]), abs=1e-6
        )


# sha256 of the `certify sos-m2 --n k --out FILE` artifact, k = 2..20; an
# exact-path change that alters a single byte of a certificate fails here
SOS_M2_SHA256 = {
    2: "d8324d293b5c9a6a42e8264162e6596f5bec9fad0e4e32b29575c6243bfbaab8",
    3: "1b1a7a2ebb6d7d62e97ff3f13a63d1e1b98ab9e0aedc448a81a2a21cadd0b823",
    4: "4886e50f5e81837f9a1f3b1a7b01de1404ad2b3fba8902fd913a2fda8ea4bfce",
    5: "104c7cd81b4c6675ea5edf9f95b6def32b527b2d03919de0efc1907e3d0f0684",
    6: "34d62616fb1d0a41e0f3ce81c31769c0d177738bb94f50cf91bdd920eada025a",
    7: "6f706edcaa2299da5396fe8fa886806da679be2cc0e4d433bca9d51f03808283",
    8: "1b32a436156900509fef237471e3cbe4891a5dc082aaa28f7451302665c2b3b2",
    9: "e4c8978cd4fde92e91c52ae34f9f33a595147b356824b32c6f82367202eaaf2d",
    10: "054a263544ae56836022951bd85e61c6acf0195f895e0fc3e50381133a410ee7",
    11: "2d673137f9ce14274c6c8219ed252076b9c5f77ec992eb4991efa8265c55ad65",
    12: "ae7fe679292d0d9ef5cbf2cb4e259c87904614287ad7da5d4d4dd958338c6c6d",
    13: "b77a2de847e02f549e4e1e75e17fbcd2c63750953f180f06fe73bad2f8494ed5",
    14: "53c8d0fbef9427f673dde5dbbb0c13d6c0b5f0928b5d33a60fff2f8a85b0f6cf",
    15: "572c6e404fffa15d54b6893bd17f36f62c7c0090f93115b985eaffd4ab8f964d",
    16: "5c4d2057ca827138d755feb58a0975491491f196c7f6b4b160564be730891f69",
    17: "52719db94465149f0a83b4ec075c0781a38cc85e036432c18d3eb9f0520c4da5",
    18: "dc5b1c891ca272064cce68c6423a137a4edb4ea8dbd5b6dcf3e0e2305353211d",
    19: "95ce925aa532b3413c0cad6857073078faa0b16c996976f1fb3f85be5079d67d",
    20: "508535c90b0e62cddc8c7e3b48c0842d6b9eb8db679d6aed6afdf85f1b3db6bf",
}


class TestCertifySosM2:
    @pytest.mark.parametrize("n", sorted(SOS_M2_SHA256))
    def test_artifact_bytes_pinned(self, n, capsys, tmp_path):
        out = tmp_path / "sos.json"
        code, _, _ = run(["certify", "sos-m2", "--n", str(n), "--out", str(out)], capsys)
        assert code == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == SOS_M2_SHA256[n]

    def test_n4(self, capsys):
        code, stdout, _ = run(["certify", "sos-m2", "--n", "4"], capsys)
        assert code == EXIT_OK
        assert "exact identity verified" in stdout
        assert "lambda = 3" in stdout

    def test_artifact_reverifies(self, capsys, tmp_path):
        out = tmp_path / "sos.json"
        code, _, _ = run(
            ["certify", "sos-m2", "--n", "3", "--out", str(out)], capsys
        )
        assert code == EXIT_OK
        from ncagm import verify_sos
        from ncagm.certify import sos_certificate_from_json

        report = json.loads(out.read_text())
        assert report["verified"] is True
        assert verify_sos(sos_certificate_from_json(report))


class TestWriteJson:
    """Every --out file equals json.dumps(payload, indent=2)."""

    @staticmethod
    def recorded(monkeypatch):
        """Route _write_json through a recorder of (path, payload) pairs."""
        written = []
        write = ncagm.cli._write_json

        def record(path, payload):
            written.append((path, payload))
            write(path, payload)

        monkeypatch.setattr(ncagm.cli, "_write_json", record)
        return written

    @staticmethod
    def assert_same_bytes(written):
        assert written
        for path, payload in written:
            assert Path(path).read_text() == json.dumps(payload, indent=2)

    def test_sos_m2(self, capsys, monkeypatch, tmp_path):
        written = self.recorded(monkeypatch)
        for n in range(2, 21):
            out = tmp_path / f"sos-{n}.json"
            assert run(["certify", "sos-m2", "--n", str(n), "--out", str(out)], capsys)[0] == EXIT_OK
        assert len(written) == 19
        self.assert_same_bytes(written)

    def test_farkas_and_solve(self, capsys, monkeypatch, tmp_path):
        written = self.recorded(monkeypatch)
        out = tmp_path / "farkas.json"
        argv = ["certify", "farkas", "--m", "2", "--n", "2", "--lambda", "0.4", "--out", str(out)]
        assert run(argv, capsys)[0] == EXIT_OK
        base = tmp_path / "solve"
        assert run(["solve", "--m", "2", "--n", "3", "--out", str(base)], capsys)[0] == EXIT_OK
        assert len(written) == 2
        self.assert_same_bytes(written)

    def test_check_instance(self, capsys, monkeypatch, tmp_path):
        written = self.recorded(monkeypatch)
        path = tmp_path / "instance.json"
        path.write_text(json.dumps({"n": 2, "m": 1, "matrices": [[1, 0, 0, 0], [0, 0, 0, 1]]}))
        out = tmp_path / "report.json"
        code, _, _ = run(["certify", "check-instance", str(path), "--out", str(out)], capsys)
        assert code == EXIT_OK
        (_, payload), = written
        assert payload["violations"] == [] and payload["improved_bounds"] == {}
        self.assert_same_bytes(written)
        # the same shape with non-ASCII text, nested empties, other scalars
        # and long lists
        payload.update({"violations": ["upper Loewner bound \u2264 n\u00b7m"],
                        "r\u00e9sum\u00e9": {"a": [[], {}, [1, 2.5, None, True]]},
                        "dual": [repr(k / 7) for k in range(600)],
                        "counts": [[k, -k / 3] for k in range(300)] + list(range(300))})
        # non-string keys, empties at depth 3, mixed lists and escapes
        payload.update({"keys": {7: "int", 2.5: "float", True: "bool", None: "none"},
                        "deep": {"b": {"c": {"list": [], "dict": {}}}},
                        "mixed": ["a", 1, "b", 2.5, None, "c"],
                        "escaped": "\"\\\n\u2264", "\"\\\n\u2264": ["\"\\\n\u2264"]})
        # the leaves and keys that json.dumps writes in its own spelling;
        # -0.0 and False are equal keys, so they sit in different objects
        payload.update({"leaves": [math.nan, math.inf, -math.inf, -0.0, 1e300, 10**30],
                        "zero": {-0.0: -0.0},
                        "more keys": {math.nan: 1, math.inf: 2, 10**20: 3, False: 4}})
        ncagm.cli._write_json(str(out), payload)
        self.assert_same_bytes([(out, payload)])


class TestCheckInstance:
    def write_instance(self, tmp_path, matrices, m):
        flat = [list(np.asarray(a, float).ravel()) for a in matrices]
        path = tmp_path / "instance.json"
        path.write_text(
            json.dumps({"n": len(matrices), "m": m, "matrices": flat})
        )
        return str(path)

    def test_sharp_pair(self, capsys, tmp_path):
        a1 = np.diag([1.5, 0.0])
        a2 = np.array([[1 / 6, np.sqrt(2) / 3], [np.sqrt(2) / 3, 4 / 3]])
        path = self.write_instance(tmp_path, [a1, a2], 2)
        code, stdout, _ = run(["certify", "check-instance", path], capsys)
        assert code == EXIT_OK
        assert "-0.500000" in stdout
        assert "all applicable bounds hold" in stdout

    def test_infeasible_instance(self, capsys, tmp_path):
        path = self.write_instance(tmp_path, [3 * np.eye(2), 3 * np.eye(2)], 2)
        code, _, stderr = run(["certify", "check-instance", path], capsys)
        assert code == EXIT_VIOLATION
        assert "feasibility" in stderr

    @pytest.mark.parametrize(
        "text,message",
        [
            # json reads the NaN and Infinity literals as floats
            ('{"n":2,"m":2,"matrices":[[1,0,0,1],[1,NaN,0,1]]}', "must be finite"),
            ('{"n":2,"m":2,"matrices":[[1,0,0,1],[1,0,0,Infinity]]}', "must be finite"),
            ('{"n":2,"m":3,"matrices":[[1,0,0,1],[1,0,0,1]]}', "need 1 <= m <= n"),
            ('{"n":2,"m":2,"matrices":[[1,0,0],[1,0,0,1]]}', "not a perfect square"),
            ('{"n":2,"m":2,"matrices":[[1],[1,0,0,1]]}', "equal dimension"),
            ('{"n":2,"m":2,"matrices":[[1,1,0,1],[1,0,0,1]]}', "must be symmetric"),
            ('{"n":2,"m":2,"matrices":[[1,0,0,1],[1,0,0,1]]', "Expecting"),
            ('{"n":2,"matrices":[[1,0,0,1],[1,0,0,1]]}', '"n", "m" and "matrices"'),
            (None, "No such file"),
            ('{"n":2.7,"m":2,"matrices":[[1,0,0,1],[1,0,0,1]]}', '"n" must be an integer'),
            ('{"n":2,"m":2.9,"matrices":[[1,0,0,1],[1,0,0,1]]}', '"m" must be an integer'),
            ('{"n":1,"m":true,"matrices":[[1]]}', '"m" must be an integer'),
            ('{"n":2,"m":2,"matrices":[[],[]]}', "at least one entry"),
            ('{"n":2,"m":2,"matrices":["1",[true]]}', '"matrices"[0] must be a list of numbers'),
            ('{"n":2,"m":2,"matrices":[[1,0,0,1],[true]]}', '"matrices"[1] must be a list'),
            ('{"n":2,"m":2,"matrices":[[1,0,0,1],[1,"nan",0,1]]}', '"matrices"[1] must be a list'),
            ('{"n":2,"m":2,"matrices":"ab"}', '"matrices" must be a list'),
        ],
        ids=["nan", "inf", "m-exceeds-n", "entry-count", "unequal-dims", "asymmetric",
             "invalid-json", "missing-key", "missing-file", "float-n", "float-m", "bool-m",
             "zero-size", "string-matrix", "bool-entry", "string-entry", "string-matrices"],
    )
    def test_bad_instance_exits_2(self, text, message, capsys, tmp_path):
        path = tmp_path / "instance.json"
        if text is not None:
            path.write_text(text)
        code, stdout, stderr = run(["certify", "check-instance", str(path)], capsys)
        assert code == EXIT_USAGE
        assert stdout == ""
        assert "invalid instance" in stderr
        assert message in stderr


def _readme_commands():
    """Every `ncagm ...` line of README's sh code blocks, as argv lists."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", text, flags=re.S | re.M):
        for line in block.splitlines():
            if line.startswith("ncagm "):
                commands.append(shlex.split(line)[1:])
    return commands


class TestSingleRepresentation:
    """Library paths read the problem data from its entry record only; the
    dict views rebuild it for callers that hand-build or inspect problems."""

    @pytest.mark.parametrize("symmetry", ["on", "off"])
    def test_no_dict_view_read(self, symmetry, capsys, monkeypatch, tmp_path):
        read = []

        def fail(problem):
            read.append(problem)
            raise AssertionError("a dict view of the problem data was read")

        for name in ("constraints", "objective"):
            monkeypatch.setattr(SdpProblem, name, property(fail))
        for argv in (["table"], ["solve", "--m", "3", "--n", "3", "--out", str(tmp_path / "run")],
                     ["certify", "farkas", "--m", "3", "--n", "3", "--lambda", "2"]):
            assert run(argv + ["--symmetry", symmetry], capsys)[0] == EXIT_OK
        problem = assemble_sdp(3, 3, 1)
        if symmetry == "on":
            problem, _ = symmetry_reduce(problem)
        render_sdpa(problem)
        assert not read


class TestParser:
    def test_main_builds_one_parser(self, capsys, monkeypatch):
        parsers = []
        parse_args = argparse.ArgumentParser.parse_args

        def recorded(parser, *args, **kwargs):
            parsers.append(parser)
            return parse_args(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", recorded)
        for _ in range(2):
            assert run(["certify", "sos-m2", "--n", "2"], capsys)[0] == EXIT_OK
        assert len(parsers) == 2 and parsers[0] is parsers[1]


class TestReadmeCommands:
    """README's command lines parse with the current parser (not run)."""

    def test_readme_has_commands(self):
        assert len(_readme_commands()) >= 5

    @pytest.mark.parametrize("argv", _readme_commands(), ids=" ".join)
    def test_parses(self, argv):
        args = build_parser().parse_args(argv)
        assert callable(args.run)


class TestDependencies:
    def test_solve_imports_only_stdlib_and_numpy(self, tmp_path):
        """numpy is the only declared dependency: a CLI solve imports no
        other top-level module outside the standard library."""
        code = (
            "import json, sys\n"
            "before = set(sys.modules)\n"
            "import ncagm.cli\n"
            "code = ncagm.cli.main(['solve', '--m', '2', '--n', '2'])\n"
            "new = {name.split('.')[0] for name in set(sys.modules) - before}\n"
            "print(json.dumps([code, sorted(new - set(sys.stdlib_module_names))]))\n"
        )
        src = str(Path(ncagm.cli.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": path}, check=True)
        code, outside = json.loads(done.stdout.splitlines()[-1])
        assert code == EXIT_OK
        assert set(outside) <= {"ncagm", "numpy"}
        assert "ncagm" in outside

    def test_import_starts_no_process_machinery(self, tmp_path):
        """`table` forks with os alone, and loads signal only on its failure
        path, so importing the CLI costs no process or pool module."""
        code = (
            "import json, sys\n"
            "import ncagm.cli\n"
            "names = ['multiprocessing', 'concurrent.futures', 'subprocess', 'signal']\n"
            "print(json.dumps([name for name in names if name in sys.modules]))\n"
        )
        src = str(Path(ncagm.cli.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": path}, check=True)
        assert json.loads(done.stdout.splitlines()[-1]) == []
