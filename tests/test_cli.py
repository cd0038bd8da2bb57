import dataclasses
import json
import os
import subprocess
import sys
from importlib import resources
from itertools import product
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracles
import report_digests
from hdbsm import cli, report
from hdbsm.classifier import CoincidenceTable
from hdbsm.cli import main, parse_state_file
from hdbsm.core import LOGIC_TOL, InvariantError, State
from hdbsm.decomposition import DecompositionTable, hyperentangled_state
from hdbsm.states import REFERENCE_CONVENTION, BellIndex

SCHEMA = json.loads(resources.files("hdbsm.data").joinpath("report.schema.json").read_text())


def skip_off_pinned_platform() -> None:
    header, _ = report_digests.read()
    if header["float_platform"] != report_digests.float_platform_digest():
        pytest.skip("this BLAS rounds differently from the one the pins were recorded with")


def skip_off_pinned_python() -> None:
    header, _ = report_digests.read()
    if header["python"] != report_digests.python_version():
        pytest.skip("argparse lays out its help and errors differently on this Python")


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    return code, report



def patch_decoding(monkeypatch, edit):
    """Make the CLI's decoding tables pass through ``edit(bell_i, bell_j)`` first."""
    original = cli.cl.build_decoding_table

    def doctored(d, convention):
        bell_i, bell_j = oracles.bell_arrays(original(d, convention))
        edit(bell_i, bell_j)
        unreached = bell_i == cli.cl.UNREACHABLE
        return cli.cl.DecodingTable(d, np.where(unreached, cli.cl.UNREACHABLE, bell_i * d + bell_j))

    monkeypatch.setattr(cli.cl, "build_decoding_table", doctored)


@pytest.fixture(scope="module")
def grid_runs(tmp_path_factory):
    """Each run of the report_digests.py grid: argv, result now, pinned result, and its kind.

    The kind says what the run's bytes depend on: "portable" lines print alike
    on every machine, "argparse" runs (ended by argparse) depend on the Python
    version, and "kernel" runs on the BLAS kernel.
    """
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps --help to the terminal width
        monkeypatch.chdir(tmp_path_factory.mktemp("digests"))
        rerun = report_digests.results()
    _, pinned = report_digests.read()
    assert len(pinned) == len(rerun), "the grid and report_digests.txt differ in length"
    return [
        (argv, got, want, "portable" if portable else "argparse" if by_argparse else "kernel")
        for (argv, got, by_argparse), (want, portable) in zip(rerun, pinned)
    ]


def check_pinned_run(grid_runs, argv, nth=0):
    """Assert that the ``nth`` grid run of ``argv`` prints what report_digests.txt pins."""
    runs = [(index, *run[1:]) for index, run in enumerate(grid_runs) if run[0] == argv]
    index, got, want, kind = runs[nth]
    if kind == "kernel":
        skip_off_pinned_platform()
    assert got == want, f"run {index} ({' '.join(argv)})"


# The bounds that cli owns, first in the file so that pytest -x reaches them early.


@pytest.mark.parametrize("name", ["REPORT_TOL", "ROW_THRESHOLD"])
def test_documented_value(name):
    assert getattr(cli, name) == {"REPORT_TOL": 1e-9, "ROW_THRESHOLD": 1e-12}[name]


def test_side_of_report_tol_is_unobservable():
    # Each check compares a distance |x - c| with the bound (magnitudes_uniform the
    # largest one), where c is 1 or 1/d >= 1/6 and x lies within the bound of c.
    # Every double >= 2**-3 is a multiple of 2**-55, and so is x - c, which is
    # exact; the bound is not. So no input meets the bound exactly, and `<=` and
    # `<` decide alike.
    assert (cli.REPORT_TOL * 2**55) % 1 != 0


def test_rows_are_strictly_above_their_threshold():
    probs = np.zeros(16)
    probs[[3, 9]] = cli.ROW_THRESHOLD, np.nextafter(cli.ROW_THRESHOLD, 1.0)
    fields, rows = cli._coincidence_rows(CoincidenceTable(2, probs.reshape((2,) * 4)), None)
    assert rows == [{"k": 1, "m": 0, "k_prime": 0, "m_prime": 1, "probability": probs[9]}]


class TestReportDigests:
    """Every run of the report_digests.py grid prints what report_digests.txt pins."""

    @staticmethod
    def changed(grid_runs, kind):
        return [
            f"run {index} ({' '.join(argv)}): pinned {want}, now {got}"
            for index, (argv, got, want, run_kind) in enumerate(grid_runs)
            if run_kind == kind and got != want
        ]

    def test_portable_runs(self, grid_runs):
        assert self.changed(grid_runs, "portable") == []

    def test_argparse_runs(self, grid_runs):
        skip_off_pinned_python()
        assert self.changed(grid_runs, "argparse") == []

    def test_kernel_pinned_runs(self, grid_runs):
        skip_off_pinned_platform()
        assert self.changed(grid_runs, "kernel") == []


class TestReportConfig:
    # (argv, d, bell_sign, decomp_sign, selection, seed, shots, format). The
    # classify state file is written as "state.txt" for d = 4.
    CASES = [
        (["decompose", "-d", "2", "-i", "1", "-j", "1"], 2, 1, 1, "default", None, None, "json"),
        (["decompose", "-d", "3", "-i", "1", "-j", "2", "--format", "csv"],
         3, -1, 1, "auto", None, None, "csv"),
        (["verify", "-d", "4", "--convention=+-"], 4, 1, -1, "explicit", None, None, "json"),
        (["verify", "-d", "5", "--convention", "auto"], 5, -1, 1, "auto", None, None, "json"),
        (["simulate", "-d", "2", "-i", "0", "-j", "1"], 2, 1, 1, "default", 0, 0, "json"),
        # The two labels whose signs equal a default are still explicit.
        (["decompose", "-d", "2", "-i", "0", "-j", "1", "--convention=++"],
         2, 1, 1, "explicit", None, None, "json"),
        (["simulate", "-d", "3", "-i", "2", "-j", "1", "--convention=-+", "--format", "csv"],
         3, -1, 1, "explicit", 0, 0, "csv"),
        (["simulate", "-d", "5", "-i", "2", "-j", "3", "--shots", "777", "--seed", "12345",
          "--convention=--", "--format", "csv"], 5, -1, -1, "explicit", 12345, 777, "csv"),
        (["simulate", "-d", "6", "-i", "5", "-j", "0", "--shots", "3", "--seed", str(2**64 - 1),
          "--convention", "reference"], 6, -1, 1, "explicit", 2**64 - 1, 3, "json"),
        (["classify", "state.txt", "--noise", "0.3", "--convention", "literal", "--format", "csv"],
         4, 1, 1, "explicit", None, None, "csv"),
        (["classify", "state.txt"], 4, -1, 1, "auto", None, None, "json"),
    ]

    @pytest.mark.parametrize("case", CASES, ids=lambda case: " ".join(case[0]))
    def test_whole_config_block(self, tmp_path, capsys, monkeypatch, case):
        argv, d, bell_sign, decomp_sign, selection, seed, shots, fmt = case
        monkeypatch.chdir(tmp_path)
        state = hyperentangled_state(4, 1, 2, REFERENCE_CONVENTION)
        (tmp_path / "state.txt").write_text(oracles.state_file_text(state), encoding="utf-8")
        reports, build_report = [], cli.build_report

        def spy(*args):
            reports.append(build_report(*args))
            return reports[-1]

        monkeypatch.setattr(cli, "build_report", spy)
        assert main(argv) == 0
        out = capsys.readouterr().out
        (report,) = reports
        assert report["config"] == {
            "d": d,
            "convention": {
                "bell_sign": bell_sign, "decomp_sign": decomp_sign, "selection": selection,
            },
            "seed": seed,
            "shots": shots,
            "format": fmt,
        }
        if fmt == "json":
            assert json.loads(out)["config"] == report["config"]
        else:
            assert f"# d={d}\n" in out
            assert (f"# seed={seed}\n" in out) == (seed is not None)
            assert (f"# shots={shots}\n" in out) == (shots is not None)


class TestDecomposeCommand:
    def test_d3_origin(self, capsys):
        code, report = run_json(capsys, ["decompose", "-d", "3", "-i", "0", "-j", "0"])
        assert code == 0
        assert report["passed"] is True
        entries = report["payload"]["entries"]
        assert len(entries) == 9
        assert all(abs(e["magnitude"] - 1 / 3) < 1e-9 for e in entries)

    def test_d2_matches_two_dimensional_law(self, capsys):
        code, report = run_json(capsys, ["decompose", "-d", "2", "-i", "1", "-j", "1"])
        assert code == 0
        entries = report["payload"]["entries"]
        assert len(entries) == 4
        for e in entries:
            assert e["k_prime"] == (e["k"] + 1) % 2
            assert e["m_prime"] == (e["m"] + 1) % 2

    def test_invalid_dimension_exits_2_without_output(self, tmp_path):
        out = tmp_path / "report.json"
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "-d", "9", "-i", "0", "-j", "0", "-o", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_out_of_range_index_exits_2(self, capsys):
        assert main(["decompose", "-d", "3", "-i", "3", "-j", "0"]) == 2
        assert "out of range" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["decompose", "simulate"])
    def test_shift_index_equal_to_d_exits_2(self, capsys, command):
        assert main([command, "-d", "3", "-i", "0", "-j", "3"]) == 2
        assert capsys.readouterr() == ("", "error: bell indices (0, 3) out of range for d=3\n")

    def test_csv_format(self, capsys):
        code = main(["decompose", "-d", "3", "-i", "1", "-j", "0", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        meta = [ln for ln in lines if ln.startswith("#")]
        assert "# command=decompose" in meta
        header = next(ln for ln in lines if not ln.startswith("#"))
        assert header == "k,m,k_prime,m_prime,re,im,magnitude,phase_r"
        assert len(lines) - len(meta) - 1 == 9

    def test_explicit_convention(self, capsys):
        code, report = run_json(
            capsys, ["decompose", "-d", "3", "-i", "1", "-j", "0", "--convention", "literal"]
        )
        assert code == 0
        conv = report["config"]["convention"]
        assert (conv["bell_sign"], conv["decomp_sign"]) == (1, 1)
        assert conv["selection"] == "explicit"
        # literal convention: k' = (i - k) mod 3
        for e in report["payload"]["entries"]:
            assert e["k_prime"] == (1 - e["k"]) % 3

    # Bell (1, d - 1) under the default convention.
    @pytest.mark.parametrize("d, fmt", product(range(2, 7), report_digests.FORMATS))
    def test_report_bytes_pinned(self, grid_runs, d, fmt):
        argv = ["decompose", "-d", str(d), "-i", "1", "-j", str(d - 1), "--format", fmt]
        check_pinned_run(grid_runs, argv)


class TestVerifyCommand:
    def test_d3_report(self, capsys):
        code, report = run_json(capsys, ["verify", "-d", "3"])
        assert code == 0
        assert report["passed"] is True
        payload = report["payload"]
        assert payload["matching_conventions"] == ["-+", "+-"]
        assert payload["preferred_convention"] == "-+"
        assert payload["index_laws"]["++"] == {"s": 2, "t": 1, "m_law_holds": True}
        assert payload["index_laws"]["-+"] == {"s": 2, "t": 2, "m_law_holds": True}
        # audits under the literal and the preferred conventions
        assert [a["convention"] for a in payload["audits"]] == ["++", "-+"]
        literal_audit = payload["audits"][0]
        assert literal_audit["total_mismatches"] == 56
        row01 = next(
            r for r in literal_audit["rows"] if r["bell"] == {"i": 0, "j": 1}
        )
        assert [2, 1, 0, 0] in row01["duplicates"]

    def test_d5_laws_without_audits(self, capsys):
        code, report = run_json(capsys, ["verify", "-d", "5"])
        assert code == 0
        payload = report["payload"]
        assert payload["index_laws"]["-+"] == {"s": 4, "t": 4, "m_law_holds": True}
        assert payload["audits"] == []

    def test_d2_reference_law_confirmed(self, capsys):
        code, report = run_json(capsys, ["verify", "-d", "2"])
        assert code == 0
        checks = {c["name"]: c["passed"] for c in report["checks"]}
        assert checks["reference_law"] is True
        assert report["payload"]["index_laws"]["++"] == {"s": 1, "t": 1, "m_law_holds": True}

    def test_csv_rejected(self, capsys):
        assert main(["verify", "-d", "3", "--format", "csv"]) == 2

    @pytest.mark.parametrize("label", [None, "auto", "++"])
    def test_csv_rejected_before_any_search(self, capsys, monkeypatch, label):
        calls = []
        monkeypatch.setattr(cli.dec, "find_convention", lambda d: calls.append(d))
        argv = ["verify", "-d", "6", "--format", "csv"]
        assert main(argv + ([f"--convention={label}"] if label else [])) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: verify reports are structured; only --format json is supported\n"
        )
        assert calls == []

    @pytest.mark.parametrize("label", [None, "auto", "++"])
    def test_one_convention_search_serves_the_report(self, capsys, monkeypatch, label):
        calls = {"fit_index_law": 0, "find_convention": 0}
        for name in calls:
            original = getattr(cli.dec, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(cli.dec, name, counted)
        argv = ["verify", "-d", "6"] + ([f"--convention={label}"] if label else [])
        assert main(argv) == 0
        assert calls == {"fit_index_law": 4, "find_convention": 1}

    def test_reference_law_fails_when_the_search_misses_the_reference_convention(
        self, capsys, monkeypatch
    ):
        original = cli.dec.find_convention

        def without_reference(d):
            search = original(d)
            others = tuple(c for c in search.matching if c != REFERENCE_CONVENTION)
            return cli.dec.ConventionSearch(search.laws, others)

        monkeypatch.setattr(cli.dec, "find_convention", without_reference)
        code, report = run_json(capsys, ["verify", "-d", "3"])
        assert code == 1
        checks = {c["name"]: c for c in report["checks"]}
        assert [name for name, c in checks.items() if not c["passed"]] == ["reference_law"]
        assert checks["reference_law"]["detail"] == "s = t = 2 under convention(s) +-"
        assert report["payload"]["matching_conventions"] == ["+-"]

    @staticmethod
    def decoding_partition(capsys) -> dict:
        assert main(["verify", "-d", "3"]) == 1
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert [name for name, c in checks.items() if not c["passed"]] == ["decoding_partition"]
        return checks["decoding_partition"]["detail"]

    def test_uneven_class_sizes_fail(self, capsys, monkeypatch):
        def move(bell_i, bell_j):
            bell_j[0, 0, 0, 0] = (bell_j[0, 0, 0, 0] + 1) % 3

        patch_decoding(monkeypatch, move)
        assert self.decoding_partition(capsys) == "unexpected class sizes [8, 9, 10]"

    def test_unreached_pair_fails(self, capsys, monkeypatch):
        def drop(bell_i, bell_j):
            bell_i[1, 2, 0, 1] = bell_j[1, 2, 0, 1] = cli.cl.UNREACHABLE

        patch_decoding(monkeypatch, drop)
        assert self.decoding_partition(capsys) == "unexpected class sizes [8, 9]"

    def test_partition_disagreeing_with_law_fails(self, capsys, monkeypatch):
        def swap(bell_i, bell_j):
            for arr in (bell_i, bell_j):
                arr[0, 0, 0, 0], arr[2, 2, 1, 0] = arr[2, 2, 1, 0], arr[0, 0, 0, 0]

        patch_decoding(monkeypatch, swap)
        assert self.decoding_partition(capsys) == (
            "decoding from supports disagrees with decoding from the law"
        )

    def test_collision_fails(self, capsys, monkeypatch):
        message = "outcome pair (0, 0, 0, 0) claimed by both (0, 0) and (1, 0)"

        def collide(d, convention):
            raise cli.cl.CollisionError(message)

        monkeypatch.setattr(cli.cl, "build_decoding_table", collide)
        assert self.decoding_partition(capsys) == message

    def test_law_without_an_inverse_fails(self, capsys, monkeypatch):
        # t = 2 has no inverse mod 4, so no decoding table can be built from the law.
        original = cli.dec.find_convention

        def with_t_2(d):
            search = original(d)
            laws = {c: dataclasses.replace(law, t=2) for c, law in search.laws.items()}
            return cli.dec.ConventionSearch(laws, search.matching)

        monkeypatch.setattr(cli.dec, "find_convention", with_t_2)
        assert main(["verify", "-d", "4"]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        checks = {c["name"]: c for c in json.loads(out)["checks"]}
        assert [name for name, c in checks.items() if not c["passed"]] == ["decoding_partition"]
        assert checks["decoding_partition"]["detail"] == "t = 2 has no inverse modulo d = 4"

    def test_phase_law_published(self, capsys):
        code, report = run_json(capsys, ["verify", "-d", "3"])
        phase = report["payload"]["phase_law"]
        assert phase["closed_form"] == [2, 0, 0]
        assert len(phase["entries"]) == 81

    @pytest.mark.parametrize("d, label", product(range(2, 7), report_digests.SIGN_LABELS))
    def test_report_bytes_pinned(self, grid_runs, d, label):
        argv = ["verify", "-d", str(d)] + ([f"--convention={label}"] if label else [])
        check_pinned_run(grid_runs, argv)


class TestSimulateCommand:
    # Bell (d - 1, d - 1) under the default convention, keyed "d shots seed format".
    @pytest.mark.parametrize("key", [
        f"{d} {shots} {seed} {fmt}"
        for d in range(2, 7)
        for shots in report_digests.SHOTS
        for seed in report_digests.SEEDS
        for fmt in report_digests.FORMATS
    ])
    def test_report_bytes_pinned(self, grid_runs, key):
        d, shots, seed, fmt = key.split()
        bell = ["-i", str(int(d) - 1), "-j", str(int(d) - 1)]
        tail = ["--shots", shots, "--seed", seed, "--format", fmt]
        check_pinned_run(grid_runs, ["simulate", "-d", d, *bell, *tail])

    def test_classification_and_determinism(self, tmp_path):
        args = ["simulate", "-d", "3", "-i", "2", "-j", "1", "--shots", "9000", "--seed", "7"]
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(args + ["-o", str(first)]) == 0
        assert main(args + ["-o", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        report = json.loads(first.read_text())
        jsonschema.validate(report, SCHEMA)
        assert report["payload"]["classification"]["argmax"] == {"i": 2, "j": 1}
        assert all(c["passed"] for c in report["checks"])

    def test_theory_only(self, capsys):
        code, report = run_json(capsys, ["simulate", "-d", "3", "-i", "0", "-j", "0"])
        assert code == 0
        rows = report["payload"]["table"]
        assert len(rows) == 9
        assert all(abs(r["probability"] - 1 / 9) < 1e-9 for r in rows)
        assert all("count" not in r for r in rows)

    def test_d4_reference_bell(self, capsys):
        code, report = run_json(
            capsys, ["simulate", "-d", "4", "-i", "2", "-j", "3", "--shots", "400"]
        )
        assert code == 0
        assert report["payload"]["classification"]["argmax"] == {"i": 2, "j": 3}
        checks = {c["name"]: c["passed"] for c in report["checks"]}
        assert checks["outcomes_decode_to_input"] is True

    def test_csv_with_counts(self, capsys):
        code = main(
            ["simulate", "-d", "2", "-i", "0", "-j", "1", "--shots", "100",
             "--seed", "1", "--format", "csv"]
        )
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        header = next(ln for ln in lines if not ln.startswith("#"))
        assert header == "k,m,k_prime,m_prime,probability,count"

    def test_equivalence_failure_exits_1(self, capsys, monkeypatch):
        from hdbsm.optics import ExperimentResult
        from hdbsm.states import BellIndex

        def broken_run(d, i, j, shots, seed, convention):
            probs = np.full((d,) * 4, 1 / d**4)
            return ExperimentResult(BellIndex(i, j), CoincidenceTable(d, probs), None, 0.5)

        monkeypatch.setattr(cli.optics, "run_experiment", broken_run)
        assert main(["simulate", "-d", "3", "-i", "0", "-j", "0"]) == 1

    def test_analyser_phase_error_exits_1(self, capsys, monkeypatch):
        # One transform phase off by 1e-6 rad moves the analyser operator
        # |exp(1e-6j) - 1| / sqrt(3) away from conj(S), whatever the input.
        original = cli.optics.fourier_matrix

        def skewed(d, sign=1):
            transform = original(d, sign)
            transform[1, 2] *= np.exp(1e-6j)
            return transform

        monkeypatch.setattr(cli.optics, "fourier_matrix", skewed)
        cli.optics._bsa_layout.cache_clear()
        try:
            code, report = run_json(capsys, ["simulate", "-d", "3", "-i", "0", "-j", "0"])
        finally:
            cli.optics._bsa_layout.cache_clear()
        assert code == 1
        assert report["checks"][0] == {
            "name": "pipeline_equivalence",
            "passed": False,
            "detail": "max |optics - abstract| = 5.774e-07 (tolerance 1e-9)",
        }

    def test_outcome_outside_input_class_exits_1(self, capsys, monkeypatch):
        # Pair (0, 0, 0, 0) of Bell (0, 0) and pair (0, 0, 0, 1) of a j = 1
        # class trade classes, so the table stays a partition.
        def swap(bell_i, bell_j):
            for arr in (bell_i, bell_j):
                arr[0, 0, 0, 0], arr[0, 0, 0, 1] = arr[0, 0, 0, 1], arr[0, 0, 0, 0]

        patch_decoding(monkeypatch, swap)
        argv = ["simulate", "-d", "3", "-i", "0", "-j", "0", "--shots", "777"]
        assert main(argv) == 1
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert checks["classification_correct"]["passed"] is True
        assert checks["outcomes_decode_to_input"] == {
            "name": "outcomes_decode_to_input",
            "passed": False,
            "detail": "777 outcomes over 9 pairs",
        }

    def test_wrong_argmax_without_tie_exits_1(self, capsys, monkeypatch):
        original = cli.cl.classify_table

        def misread(table, decoding):
            return dataclasses.replace(original(table, decoding), bell=BellIndex(0, 0))

        monkeypatch.setattr(cli.cl, "classify_table", misread)
        assert main(["simulate", "-d", "3", "-i", "1", "-j", "2"]) == 1
        checks = {c["name"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
        assert checks["classification_correct"] == {
            "name": "classification_correct",
            "passed": False,
            "detail": "argmax class (0, 0)",
        }

    def test_negative_shots_rejected(self, capsys):
        assert main(["simulate", "-d", "3", "-i", "0", "-j", "0", "--shots", "-1"]) == 2

    def test_oversized_seed_rejected(self, capsys):
        assert main(
            ["simulate", "-d", "3", "-i", "0", "-j", "0", "--seed", str(2**64)]
        ) == 2


class TestClassifyCommand:
    def write_state(self, tmp_path, d, i, j):
        state = hyperentangled_state(d, i, j, REFERENCE_CONVENTION)
        path = tmp_path / "state.txt"
        path.write_text(oracles.state_file_text(state))
        return path

    def test_roundtrip_classification(self, tmp_path, capsys):
        path = self.write_state(tmp_path, 3, 1, 1)
        code, report = run_json(capsys, ["classify", str(path)])
        assert code == 0
        result = report["payload"]["classification"]
        assert result["argmax"] == {"i": 1, "j": 1}
        assert abs(result["confidence"] - 1.0) < 1e-9
        assert result["tie"] is False

    def test_full_noise_gives_uniform_tie(self, tmp_path, capsys):
        path = self.write_state(tmp_path, 3, 0, 2)
        code, report = run_json(capsys, ["classify", str(path), "--noise", "1.0"])
        assert code == 0
        result = report["payload"]["classification"]
        assert result["tie"] is True
        assert abs(result["confidence"] - 1 / 9) < 1e-9
        assert len(result["tied_with"]) == 9

    def test_noise_confidence_formula(self, tmp_path, capsys):
        path = self.write_state(tmp_path, 3, 2, 0)
        code, report = run_json(capsys, ["classify", str(path), "--noise", "0.5"])
        assert code == 0
        result = report["payload"]["classification"]
        assert result["argmax"] == {"i": 2, "j": 0}
        assert abs(result["confidence"] - (0.5 + 0.5 / 9)) < 1e-9

    def test_unnormalized_state_exits_2_with_deficit(self, tmp_path, capsys):
        state = hyperentangled_state(2, 0, 0, REFERENCE_CONVENTION)
        text = oracles.state_file_text(state)
        lines = text.splitlines()
        lines[1] = "0.9 0.0"  # corrupt one amplitude
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n")
        assert main(["classify", str(path)]) == 2
        err = capsys.readouterr().err
        assert "not normalized" in err and "deviates" in err

    def test_malformed_header_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("hello\n")
        assert main(["classify", str(path)]) == 2

    def test_wrong_line_count_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("d=2\n1.0 0.0\n")
        assert main(["classify", str(path)]) == 2

    def test_non_utf8_state_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "state.txt"
        path.write_bytes(b"d=2\n\xff\xfe 0\n")
        assert main(["classify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read state file: ")
        assert len(err.splitlines()) == 1

    def test_csv_masses(self, tmp_path, capsys):
        path = self.write_state(tmp_path, 2, 1, 0)
        assert main(["classify", str(path), "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        header = next(ln for ln in lines if not ln.startswith("#"))
        assert header == "i,j,mass"


    def test_utf8_bom_state_file_accepted(self, tmp_path, capsys):
        state = hyperentangled_state(3, 1, 2, REFERENCE_CONVENTION)
        path = tmp_path / "state.txt"
        path.write_bytes(b"\xef\xbb\xbf" + oracles.state_file_text(state).encode())
        code, report = run_json(capsys, ["classify", str(path)])
        assert code == 0
        assert report["payload"]["classification"]["argmax"] == {"i": 1, "j": 2}

    @pytest.mark.parametrize("noise", [0.0, 0.3])
    def test_total_is_checked_against_the_squared_norm(self, tmp_path, capsys, noise):
        # Seven-digit amplitudes leave the norm 6.0e-8 off 1: inside the file
        # format's 1e-6, but the total probability is then 1.2e-7 off 1.
        state = hyperentangled_state(3, 1, 2, REFERENCE_CONVENTION)
        path = tmp_path / "state.txt"
        path.write_text("d=3\n" + "".join(f"{a.real:.7f} {a.imag:.7f}\n" for a in state.amps))
        squared_norm = parse_state_file(path.read_text()).norm() ** 2
        assert abs(squared_norm - 1.0) > 1e-7
        code, report = run_json(capsys, ["classify", str(path), "--noise", str(noise)])
        assert code == 0
        [total] = report["checks"]
        assert total["name"] == "probabilities_total" and total["passed"]
        assert abs(float(total["detail"].split()[-1]) - 1.0) > 1e-9
        assert report["payload"]["classification"]["argmax"] == {"i": 1, "j": 2}

    # The grid rewrites state.txt as hyperentangled (1, d - 1) for each d in
    # turn, so this argv recurs once per d, in order.
    @pytest.mark.parametrize("d, fmt", product(range(2, 7), report_digests.FORMATS))
    def test_report_bytes_pinned(self, grid_runs, d, fmt):
        argv = ["classify", "state.txt", "--noise", "0.3", "--format", fmt]
        check_pinned_run(grid_runs, argv, nth=d - 2)


class TestExitCodeContract:
    """Each command: 0 success, 1 invariant failure, 2 usage error."""

    def test_decompose_invariant_failure_exits_1(self, capsys, monkeypatch):
        from hdbsm.states import BellIndex

        def broken_decompose(d, i, j, convention):
            # one coefficient missing: the support-size check must fail
            return oracles.hand_built_table(d, BellIndex(i, j), {(0, 0, 0, 0): 1 / d})

        monkeypatch.setattr(cli.dec, "decompose", broken_decompose)
        assert main(["decompose", "-d", "2", "-i", "0", "-j", "0"]) == 1

    def test_verify_structural_failure_exits_1(self, capsys, monkeypatch):
        from hdbsm.decomposition import NoMatchingConventionError

        def no_match(d):
            raise NoMatchingConventionError("forced")

        monkeypatch.setattr(cli.dec, "find_convention", no_match)
        assert main(["verify", "-d", "3", "--convention", "reference"]) == 1
        assert capsys.readouterr() == ("", "invariant failure: forced\n")

    @pytest.mark.parametrize(
        "d, fit, error",
        [(3, "fit_phase_law", "PhaseNotRootOfUnityError"), (2, "fit_index_law", "NoAffineLawError")],
    )
    def test_verify_failed_fit_exits_1_without_report(self, capsys, monkeypatch, d, fit, error):
        def fail(tables):
            raise getattr(cli.dec, error)("forced")

        monkeypatch.setattr(cli.dec, fit, fail)
        assert main(["verify", "-d", str(d)]) == 1
        assert capsys.readouterr() == ("", "invariant failure: forced\n")

    def test_any_invariant_error_exits_1_with_one_line(self, capsys, monkeypatch):
        # main names no subclass, so one it has never seen ends the same way.
        class Doctored(InvariantError):
            pass

        def fail(d, i, j, convention):
            raise Doctored("forced")

        monkeypatch.setattr(cli.dec, "decompose", fail)
        assert main(["decompose", "-d", "3", "-i", "0", "-j", "0"]) == 1
        assert capsys.readouterr() == ("", "invariant failure: forced\n")

    def test_classify_invariant_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        state = hyperentangled_state(2, 0, 0, REFERENCE_CONVENTION)
        path = tmp_path / "state.txt"
        path.write_text(oracles.state_file_text(state))

        def lossy_probabilities(state, convention):
            d = state.radices[0]
            return CoincidenceTable(d, np.full((d,) * 4, 0.5 / d**4))

        monkeypatch.setattr(cli.cl, "coincidence_probabilities", lossy_probabilities)
        assert main(["classify", str(path)]) == 1

    # argparse rejects the dimension before any command runs, so nothing
    # raises past main: it exits 2 with its one-line error.
    @pytest.mark.parametrize("d", ["1", "7"])
    @pytest.mark.parametrize("command", ["verify", "decompose", "simulate"])
    def test_dimension_outside_choices_is_usage_error(self, capsys, command, d):
        bell = [] if command == "verify" else ["-i", "0", "-j", "0"]
        with pytest.raises(SystemExit) as exc:
            main([command, "-d", d, *bell])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith(
            f"hdbsm {command}: error: argument -d: invalid choice: "
        )

    def test_success_is_0_and_usage_is_2(self, capsys):
        assert main(["verify", "-d", "2"]) == 0
        capsys.readouterr()
        assert main(["verify", "-d", "3", "--format", "csv"]) == 2

    @pytest.mark.parametrize("label", [None, "auto"])
    @pytest.mark.parametrize("d", [3, 5])
    @pytest.mark.parametrize("command", ["decompose", "classify", "simulate"])
    def test_auto_runs_no_convention_search(
        self, tmp_path, capsys, monkeypatch, command, d, label
    ):
        # auto at d >= 3 is -+ itself, so a search that would fail is never reached.
        if command == "classify":
            state = hyperentangled_state(d, 1, 2, REFERENCE_CONVENTION)
            path = tmp_path / "state.txt"
            path.write_text(oracles.state_file_text(state))
            argv = ["classify", str(path)]
        else:
            argv = [command, "-d", str(d), "-i", "1", "-j", "2"]
        argv += ["--shots", "20", "--seed", "7"] if command == "simulate" else []
        argv += [f"--convention={label}"] if label else []

        def no_match(d):
            raise cli.dec.NoMatchingConventionError("forced")

        with monkeypatch.context() as patched:
            patched.setattr(cli.dec, "find_convention", no_match)
            assert main(argv) == 0
            without_search = capsys.readouterr()
        assert main(argv) == 0
        assert without_search == capsys.readouterr()


class TestDocumentedBounds:
    """Each documented bound: an input at half of it passes, one at twice it fails.

    Every case moves one observed quantity off its exact value by ``factor``
    times the bound's name and leaves the other checks of the report passing.
    The report text still prints each bound as the literal the docs give.
    """

    FACTORS = [(0.5, 0), (2.0, 1)]

    @staticmethod
    def checks(capsys, argv):
        code, report = run_json(capsys, argv)
        return code, {c["name"]: (c["passed"], c["detail"]) for c in report["checks"]}

    @staticmethod
    def patch_coeffs(monkeypatch, edit):
        """Make the CLI's decomposition tables carry ``edit(coeffs)`` as coefficients."""
        original = cli.dec.decompose

        def doctored(d, i, j, convention):
            table = original(d, i, j, convention)
            coeffs = edit(table.coeffs.copy())
            return DecompositionTable(d, table.bell, table.flat_support, coeffs)

        monkeypatch.setattr(cli.dec, "decompose", doctored)

    @pytest.mark.parametrize("factor, exit_code", FACTORS)
    def test_decompose_magnitudes_uniform(self, capsys, monkeypatch, factor, exit_code):
        delta = factor * cli.REPORT_TOL

        def spread(coeffs):
            # |c| = 1/3, so these move two magnitudes by +delta and -delta and the
            # squared weight by 2 * delta**2 only.
            coeffs[0] *= 1 + 3 * delta
            coeffs[1] *= 1 - 3 * delta
            return coeffs

        self.patch_coeffs(monkeypatch, spread)
        code, checks = self.checks(capsys, ["decompose", "-d", "3", "-i", "1", "-j", "2"])
        assert code == exit_code
        assert checks["magnitudes_uniform"] == (
            exit_code == 0, "all coefficient magnitudes within 1e-9 of 1/3"
        )
        assert checks["total_weight"] == (True, "squared weight 1.000000000000")

    @pytest.mark.parametrize("factor, exit_code", FACTORS)
    def test_decompose_total_weight(self, capsys, monkeypatch, factor, exit_code):
        excess = factor * cli.REPORT_TOL
        self.patch_coeffs(monkeypatch, lambda coeffs: coeffs * (1 + excess) ** 0.5)
        code, checks = self.checks(capsys, ["decompose", "-d", "3", "-i", "1", "-j", "2"])
        assert code == exit_code
        assert checks["total_weight"] == (exit_code == 0, f"squared weight {1 + excess:.12f}")
        assert checks["magnitudes_uniform"][0] is True

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    def test_decompose_support_threshold(self, capsys, monkeypatch, factor):
        # Bell amplitude n = 0 scaled by 1 + eps adds eps / d**2 to every pair with
        # m' = m + j, so the 18 outside the support sit at factor * LOGIC_TOL. The
        # scaling also adds 2 * eps / d to the squared weight.
        d = 3
        eps = factor * d**2 * LOGIC_TOL
        original = cli.dec.bell_state

        def tilted(d, i, j, convention):
            amps = original(d, i, j, convention).reshaped().copy()
            amps[0] *= 1 + eps
            return State((d, d), amps)

        monkeypatch.setattr(cli.dec, "bell_state", tilted)
        cli.dec._decompose_row.cache_clear()
        try:
            size = cli.dec.decompose(d, 1, 2, REFERENCE_CONVENTION).coeffs.size
            code = main(["decompose", "-d", "3", "-i", "1", "-j", "2", "--convention", "reference"])
        finally:
            cli.dec._decompose_row.cache_clear()
        out, err = capsys.readouterr()
        assert code == 1
        if factor < 1:
            assert size == 9
            checks = {c["name"]: (c["passed"], c["detail"]) for c in json.loads(out)["checks"]}
            assert checks["support_size"] == (True, "9 of 9 expected nonzero coefficients")
            assert checks["total_weight"] == (False, "squared weight 1.000000003000")
        else:
            # The support size is checked before the phases of the 18 new,
            # rounding-sized coefficients, so the failure names it.
            assert size == 27
            assert out == ""
            assert err == (
                "invariant failure: decomposition of bell (1, 2) has 27 nonzero "
                "coefficients, expected 9\n"
            )

    @pytest.mark.parametrize("factor, exit_code", FACTORS)
    def test_simulate_probabilities_total(self, capsys, monkeypatch, factor, exit_code):
        excess = factor * cli.REPORT_TOL
        original = cli.optics.run_experiment

        def inflated(*args):
            result = original(*args)
            probs = result.probabilities.probs * (1 + excess)
            return dataclasses.replace(result, probabilities=cli.cl.CoincidenceTable(3, probs))

        monkeypatch.setattr(cli.optics, "run_experiment", inflated)
        code, checks = self.checks(capsys, ["simulate", "-d", "3", "-i", "1", "-j", "2"])
        assert code == exit_code
        assert checks["probabilities_total"] == (
            exit_code == 0, f"total probability {1 + excess:.12f}"
        )

    # The gap must lie strictly below its bound, so a gap at the bound fails.
    @pytest.mark.parametrize("factor, exit_code", [(0.5, 0), (1.0, 1), (2.0, 1)])
    def test_simulate_pipeline_equivalence(self, capsys, monkeypatch, factor, exit_code):
        gap = factor * cli.optics.EQUIVALENCE_TOL
        original = cli.optics.run_experiment

        def drifted(*args):
            return dataclasses.replace(original(*args), equivalence_gap=gap)

        monkeypatch.setattr(cli.optics, "run_experiment", drifted)
        code, checks = self.checks(capsys, ["simulate", "-d", "3", "-i", "1", "-j", "2"])
        assert code == exit_code
        assert checks["pipeline_equivalence"] == (
            exit_code == 0, f"max |optics - abstract| = {gap:.3e} (tolerance 1e-9)"
        )
        assert checks["probabilities_total"][0] is True

    def test_simulate_pipeline_equivalence_is_strictly_below_its_bound(self, capsys, monkeypatch):
        at = cli.optics.EQUIVALENCE_TOL
        original = cli.optics.run_experiment
        verdicts = []
        for gap in (at, np.nextafter(at, 0.0)):
            monkeypatch.setattr(
                cli.optics, "run_experiment",
                lambda *args, gap=gap: dataclasses.replace(original(*args), equivalence_gap=gap),
            )
            code, checks = self.checks(capsys, ["simulate", "-d", "2", "-i", "0", "-j", "0"])
            verdicts.append((code, checks["pipeline_equivalence"][0]))
        assert verdicts == [(1, False), (0, True)]

    @pytest.mark.parametrize("factor, exit_code", FACTORS)
    def test_classify_probabilities_total(
        self, tmp_path, capsys, monkeypatch, factor, exit_code
    ):
        excess = factor * cli.REPORT_TOL
        path = tmp_path / "state.txt"
        path.write_text(
            oracles.state_file_text(hyperentangled_state(3, 1, 2, REFERENCE_CONVENTION))
        )
        original = cli.cl.coincidence_probabilities

        def inflated(state, convention):
            return cli.cl.CoincidenceTable(3, original(state, convention).probs * (1 + excess))

        monkeypatch.setattr(cli.cl, "coincidence_probabilities", inflated)
        code, checks = self.checks(capsys, ["classify", str(path)])
        assert code == exit_code
        assert checks["probabilities_total"] == (
            exit_code == 0, f"total probability {1 + excess:.12f}"
        )

    @pytest.mark.parametrize("factor, exit_code", [(0.5, 0), (2.0, 2)])
    def test_state_file_norm(self, tmp_path, capsys, factor, exit_code):
        excess = factor * cli.cl.NORM_TOL
        state = hyperentangled_state(3, 1, 2, REFERENCE_CONVENTION)
        path = tmp_path / "state.txt"
        path.write_text(oracles.state_file_text(State(state.radices, state.amps * (1 + excess))))
        assert main(["classify", str(path)]) == exit_code
        out, err = capsys.readouterr()
        if exit_code == 0:
            assert json.loads(out)["passed"] is True and err == ""
        else:
            assert (out, err) == (
                "",
                "error: state is not normalized: norm 1.000002000 deviates from 1 "
                "by 2.000e-06 (tolerance 1e-6)\n",
            )


def test_every_check_is_decided_by_report_check(tmp_path, capsys, monkeypatch):
    path = tmp_path / "state.txt"
    path.write_text(oracles.state_file_text(hyperentangled_state(3, 1, 2, REFERENCE_CONVENTION)))
    decided = []

    def recorded(name, observed, side, bound, detail):
        decided.append(name)
        return report.check(name, observed, side, bound, detail)

    monkeypatch.setattr(cli, "check", recorded)
    for argv in (
        ["decompose", "-d", "3", "-i", "1", "-j", "2"],
        ["verify", "-d", "2"],
        ["verify", "-d", "3"],
        ["simulate", "-d", "3", "-i", "1", "-j", "2", "--shots", "10"],
        ["classify", str(path), "--noise", "0.3"],
    ):
        decided.clear()
        code, document = run_json(capsys, argv)
        assert code == 0
        assert sorted(c["name"] for c in document["checks"]) == sorted(decided), argv


class TestStateFileFormat:
    def test_roundtrip(self):
        state = hyperentangled_state(3, 2, 1, REFERENCE_CONVENTION)
        parsed = parse_state_file(oracles.state_file_text(state))
        assert parsed.radices == state.radices
        np.testing.assert_allclose(parsed.amps, state.amps, atol=0)

    def test_comments_and_blank_lines_ignored(self):
        state = hyperentangled_state(2, 0, 0, REFERENCE_CONVENTION)
        text = oracles.state_file_text(state)
        text = "# a comment\n\n" + text
        parsed = parse_state_file(text)
        np.testing.assert_allclose(parsed.amps, state.amps, atol=0)

    def test_unsupported_dimension(self):
        with pytest.raises(cli.UsageError):
            parse_state_file("d=7\n" + "0 0\n" * 7**4)

    def test_dimension_below_range(self):
        with pytest.raises(cli.UsageError, match=r"supported range \(2\.\.6\)"):
            parse_state_file("d=1\n0 0\n")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_amplitude_exits_2(self, tmp_path, capsys, value):
        path = tmp_path / "state.txt"
        path.write_text("d=2\n" + f"{value} 0\n" + "0 0\n" * 15)
        assert main(["classify", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite amplitude on line 2")
        assert len(err.splitlines()) == 1

    # 1e200 squared overflows the norm's sum of squares to inf
    HUGE_STATE = "d=2\n1e200 0\n" + "0 0\n" * 15
    HUGE_NORM_ERROR = (
        "error: state is not normalized: norm inf deviates from 1 by inf (tolerance 1e-6)\n"
    )

    def test_huge_finite_amplitude_exits_2(self, tmp_path, capsys):
        path = tmp_path / "state.txt"
        path.write_text(self.HUGE_STATE)
        assert main(["classify", str(path)]) == 2
        assert capsys.readouterr().err == self.HUGE_NORM_ERROR

    def test_huge_finite_amplitude_one_line_from_shell(self, tmp_path):
        # a fresh interpreter prints warnings instead of raising them
        path = tmp_path / "state.txt"
        path.write_text(self.HUGE_STATE)
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        env.pop("PYTHONWARNINGS", None)
        done = subprocess.run(
            [sys.executable, "-m", "hdbsm", "classify", str(path)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert (done.returncode, done.stdout, done.stderr) == (2, "", self.HUGE_NORM_ERROR)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("0 0 0", "amplitude line 6 must be 're im'"),
            ("x 0", "bad amplitude on line 6"),
            ("nan 0", "non-finite amplitude on line 6"),
        ],
    )
    def test_error_cites_line_in_file(self, line, message):
        # one comment line and one blank line come before the bad line 6
        body = ["1 0", "0 0", line] + ["0 0"] * 13
        with pytest.raises(cli.UsageError, match=message):
            parse_state_file("# a comment\nd=2\n\n" + "\n".join(body) + "\n")


_TOKENS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(
        ["nan", "inf", "-inf", "1e999", "1e200", "0", "0.25", "1_0", "#", "d=2", "x"]
    ),
    st.text(max_size=6),
)
_LINES = st.one_of(
    st.lists(_TOKENS, min_size=0, max_size=3).map(" ".join),
    st.sampled_from(["", "   ", "# comment", "0 0", "0.25 0", "1 0"]),
)


@st.composite
def _state_files(draw):
    d = draw(st.integers(1, 7))
    header = draw(st.sampled_from([f"d={d}", f"d= {d}", "d=", "d=x", f"D={d}", "", f"d={d}.0"]))
    if draw(st.booleans()):
        # the right line count for d, so the body reaches the norm check and beyond
        body = ["1 0"] + ["0 0"] * (d**4 - 1) if 2 <= d <= 6 else []
        for _ in range(draw(st.integers(0, 3))):
            if body:
                body[draw(st.integers(0, len(body) - 1))] = draw(_LINES)
    else:
        body = draw(st.lists(_LINES, max_size=20))
    data = "\n".join([header] + body).encode()
    if draw(st.booleans()):
        data = b"\xef\xbb\xbf" + data
    if draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=4)) + data[at:]
    return data


class TestStateFileFuzz:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=_state_files())
    def test_classify_exits_0_1_or_2(self, tmp_path, capsys, data):
        path = tmp_path / "state.txt"
        path.write_bytes(data)
        assert main(["classify", str(path)]) in (0, 1, 2)
        capsys.readouterr()


class TestConventionResolution:
    def test_auto_at_d2_is_usage_error(self, tmp_path, capsys):
        state = hyperentangled_state(2, 0, 0, REFERENCE_CONVENTION)
        path = tmp_path / "state.txt"
        path.write_text(oracles.state_file_text(state))
        assert main(["classify", str(path), "--convention", "auto"]) == 2
        assert "d=2" in capsys.readouterr().err

    def test_d2_default_is_literal(self, capsys):
        code, report = run_json(capsys, ["decompose", "-d", "2", "-i", "0", "-j", "0"])
        conv = report["config"]["convention"]
        assert (conv["bell_sign"], conv["decomp_sign"]) == (1, 1)
        assert conv["selection"] == "default"

    def test_d3_default_is_auto_reference(self, capsys):
        code, report = run_json(capsys, ["decompose", "-d", "3", "-i", "0", "-j", "0"])
        conv = report["config"]["convention"]
        assert (conv["bell_sign"], conv["decomp_sign"]) == (-1, 1)
        assert conv["selection"] == "auto"

    def test_sign_pair_label(self, capsys):
        code, report = run_json(
            capsys, ["decompose", "-d", "3", "-i", "0", "-j", "0", "--convention=+-"]
        )
        conv = report["config"]["convention"]
        assert (conv["bell_sign"], conv["decomp_sign"]) == (1, -1)

    @pytest.mark.parametrize(
        "argv",
        [["decompose", "-d", "3", "-i", "0", "-j", "0"], ["verify", "-d", "4"]],
        ids=["decompose", "verify"],
    )
    def test_double_minus_label(self, capsys, argv):
        # The argparse of Python 3.10 to 3.12.1 strips the value of --convention=--.
        code, report = run_json(capsys, argv + ["--convention=--"])
        assert code == 0
        conv = report["config"]["convention"]
        assert (conv["bell_sign"], conv["decomp_sign"]) == (-1, -1)
        assert conv["selection"] == "explicit"


class TestParser:
    def test_built_once_and_carries_nothing_between_calls(self):
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        argv = ["simulate", "-d", "3", "-i", "0", "-j", "0"]
        assert parser.parse_args(argv + ["--shots", "5", "--convention=-+"]).shots == 5
        again = parser.parse_args(argv)
        assert (again.shots, again.seed, again.convention) == (0, 0, None)


class TestOutputHandling:
    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HDBSM_OUTPUT_DIR", str(tmp_path))
        assert main(["verify", "-d", "2", "-o", "sub/report.json"]) == 0
        target = tmp_path / "sub" / "report.json"
        assert target.exists()
        jsonschema.validate(json.loads(target.read_text()), SCHEMA)

    def test_empty_env_var_writes_relative_to_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HDBSM_OUTPUT_DIR", "")
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "-d", "2", "-o", "sub/report.json"]) == 0
        jsonschema.validate(json.loads((tmp_path / "sub" / "report.json").read_text()), SCHEMA)

    def test_output_naming_a_directory_exits_2(self, tmp_path, capsys):
        assert main(["verify", "-d", "3", "-o", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write report: ")
        assert len(captured.err.splitlines()) == 1

    def test_output_below_a_regular_file_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "file.txt"
        blocker.write_text("")
        assert main(["verify", "-d", "3", "-o", str(blocker / "report.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write report: ")
        assert len(err.splitlines()) == 1
        assert blocker.read_text() == ""

    def test_absolute_path_ignores_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HDBSM_OUTPUT_DIR", str(tmp_path / "ignored"))
        target = tmp_path / "direct.json"
        assert main(["verify", "-d", "2", "-o", str(target)]) == 0
        assert target.exists()
