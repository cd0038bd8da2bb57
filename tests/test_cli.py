import dataclasses
import hashlib
import json
from functools import lru_cache
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import oracles
from hdbsm import cli
from hdbsm.cli import format_state_file, main, parse_state_file
from hdbsm.core import LOGIC_TOL, State
from hdbsm.decomposition import DecompositionTable, hyperentangled_state
from hdbsm.report import schema_text
from hdbsm.states import REFERENCE_CONVENTION

SCHEMA = json.loads(schema_text())

# SHA-256 of simulate reports rendered before the sampler binned raw PCG64
# words, for (i, j) = (d - 1, d - 1) under the default convention, keyed
# "d shots seed format".
SIMULATE_PINS = json.loads(
    Path(__file__).with_name("simulate_report_sha256.json").read_text(encoding="utf-8")
)


@lru_cache(maxsize=None)
def float_platform_digest() -> str:
    """Digest of complex exp and matmul results that differ between BLAS kernels.

    Simulate reports print BLAS-rounded probabilities, whose last digit
    differs between OpenBLAS kernels (Haswell, Zen, SkylakeX, ...), so report
    bytes can only be pinned for the kernel they were recorded with.
    """
    h = hashlib.sha256()
    for n in (4, 9, 16, 25, 36):
        grid = np.outer(np.arange(n), np.arange(n) + 1)
        a = np.exp(2j * np.pi * (grid % 13) / 13) / np.sqrt(n)
        b = np.exp(1j * np.sqrt(grid + 1.0))
        h.update(np.abs(a @ b @ a.T).tobytes())
    return h.hexdigest()



def skip_off_pinned_platform() -> None:
    if float_platform_digest() != SIMULATE_PINS["float_platform"]:
        pytest.skip("this BLAS rounds differently from the one the pins were recorded with")

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
        table = original(d, convention)
        bell_i, bell_j = table.bell_i.copy(), table.bell_j.copy()
        edit(bell_i, bell_j)
        return cli.cl.DecodingTable(d, convention, bell_i, bell_j)

    monkeypatch.setattr(cli.cl, "build_decoding_table", doctored)

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


    # SHA-256 of decompose reports for Bell (1, d - 1) under the default
    # convention, keyed (d, format), recorded on the BLAS kernel of the
    # simulate pins.
    REPORT_SHA256 = {
        (2, "json"): "f568e3efbe6e791434b17c018d58457115abb56494a82b79079a0e6ecb732c4f",
        (2, "csv"): "e6cc46829de26b7d5848d476c67e953c6af12b78260a13330220f0e56c139879",
        (3, "json"): "44082f83a81be980557e33a182cd5389f275842318e49c71a324e68fd844eb16",
        (3, "csv"): "aef184679d2da14b9e9d851ac0a1666282bb55a7e9fae4744f0cabeb932a21e1",
        (4, "json"): "a75f42c345369ff9676bb4f8b035ed26d98689478d2e78e759013643371bcdb0",
        (4, "csv"): "1a69ac3dce32767bdf12a61873fc2d9d347ffeb805af6b89ce089403ed58ec68",
        (5, "json"): "6b62793d4f8e1b62a00a88aafd087a9e23c2e9d7925df327966aa39ad3f61385",
        (5, "csv"): "bd8e8c95ce788522a02b65a3cbd6a49d46c4ba6c19735b87bca3635774094355",
        (6, "json"): "327f9da641fa2dbbbbb4f9fbe4346680bdbfad8f95c18562f8cce31f704b7ed6",
        (6, "csv"): "332c0ef8ba2c56f6626374356368429a524577cfc10d44d41abef7efa4b8ee08",
    }

    @pytest.mark.parametrize("d, fmt", sorted(REPORT_SHA256))
    def test_report_bytes_pinned(self, capsys, d, fmt):
        skip_off_pinned_platform()
        argv = ["decompose", "-d", str(d), "-i", "1", "-j", str(d - 1), "--format", fmt]
        assert main(argv) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == self.REPORT_SHA256[(d, fmt)]

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

    # SHA-256 of the verify reports rendered before decompose projected whole
    # Bell rows; verify reports hold no floats, so the bytes are platform-free.
    REPORT_SHA256 = {
        (2, None): "abeb72cde2f8be41b94f48f4a29cbfd77a1a1b47df989c4e246f0476fd667f85",
        (2, "++"): "4f3a2046c9cc05977d8f4d626065456934b53df931dc393a02458708cb788cde",
        (2, "+-"): "67cbd39786009c26f69a985b87d09585001c730b1daacd4724cf35e827a80c40",
        (2, "-+"): "bd5c7f5dbf4dcdebc2bef5a674a97550be407129e55a19fded558b3ddc55cb0c",
        (2, "--"): "efc01b297f1452626add55aeddf22ee8ac0bada8e6d06740668ae02d342e7e7b",
        (3, None): "f44c8094c1474388f219ad00d25c97f61de90fc2982439ee0268fa4ffc6f8e44",
        (3, "++"): "d1a1a8f1fbcd0db4618ca871de7cb8786820e3347b7fa9c5be730258a3592a59",
        (3, "+-"): "d3c99670f1ba43d0ca89edb6d96963ae6cfe850fc4cf057f33c92dcac9f87008",
        (3, "-+"): "ae7eb1aac3d3f02525050577876cb7d1724573430fd74faa50b886a2d33bce34",
        (3, "--"): "48bb59de9f4eac62c48ecda100fdb4d798df27c922c208cf37795e4cdce90b23",
        (4, None): "0478f506176d8103abdd471a14d237cc69725543962d146b31a40c9c6d56eeb6",
        (4, "++"): "09d9cc09579f55412c9feef6a36488c23dbef32601fc8a7c93da4be9f350bf66",
        (4, "+-"): "891fbdfe83fb9f07bb7e46c86a3143220ccf38eb9b52e5729af168e537782c29",
        (4, "-+"): "4bb72fd91ea41795c6a509c3500de21945573572f933b51389edd5278d493efb",
        (4, "--"): "34ec4cc47d6db41e070236ff939dd8449293f506b0df0ad468cb5f53366c0da4",
        (5, None): "a9d4662215846663b9bf8dcc90f91e96152441013a29be474eebe35cf0e97897",
        (5, "++"): "8d323f7047ad17fb844d64d5ce90ddb05bc815ec5b44daa99e1d1fe9e6a2cff1",
        (5, "+-"): "00da3d62ef11b153eca1ab6c9d91226ea6f6b43fe4b2e5c5d95e9131968adc39",
        (5, "-+"): "7d3caaa3bdcdfcce0c83ba62f5652f741d2d0ef03ef3fef5d67f96eb634aa5b0",
        (5, "--"): "67d128d217185811e94929db9bc01670d6b809e25830edfee833a30e86f1e92e",
        (6, None): "7ca04b7ef4207137e378a69eea597d55185025ee1777dd9c0c0368060d7a9e6c",
        (6, "++"): "be03eaef10778880d82ce155c582a7c1a65e81ad944999ecb64c4dcf71fb384e",
        (6, "+-"): "6b6634e068bd7d31c481b50193db93a939917173187c416d1591cfffef8b4f06",
        (6, "-+"): "e4e62fbdf4f998248d6100803914069760427614d429a8dc6440422b779c8316",
        (6, "--"): "53b70dc4ccf203812e3b8bd8735fed46b08212084a9cef2bfc89b164c4ad50af",
    }

    @pytest.mark.parametrize("d, label", sorted(REPORT_SHA256, key=str))
    def test_report_bytes_pinned(self, capsys, d, label):
        argv = ["verify", "-d", str(d)] + ([f"--convention={label}"] if label else [])
        assert main(argv) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == self.REPORT_SHA256[(d, label)]

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

    def test_phase_law_published(self, capsys):
        code, report = run_json(capsys, ["verify", "-d", "3"])
        phase = report["payload"]["phase_law"]
        assert phase["closed_form"] == [2, 0, 0]
        assert len(phase["entries"]) == 81


class TestSimulateCommand:
    @pytest.mark.parametrize("key", sorted(SIMULATE_PINS["reports"]))
    def test_report_bytes_pinned(self, capsys, key):
        skip_off_pinned_platform()
        d, shots, seed, fmt = key.split()
        bell = str(int(d) - 1)
        argv = ["simulate", "-d", d, "-i", bell, "-j", bell]
        assert main(argv + ["--shots", shots, "--seed", seed, "--format", fmt]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == SIMULATE_PINS["reports"][key]

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
        from hdbsm.classifier import CoincidenceTable
        from hdbsm.optics import ExperimentResult
        from hdbsm.states import BellIndex

        def broken_run(d, i, j, shots, seed, convention):
            probs = np.full((d,) * 4, 1 / d**4)
            return ExperimentResult(
                d, BellIndex(i, j), convention, CoincidenceTable(d, probs), None, 0.5
            )

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
        cli.optics.bsa_layout.cache_clear()
        try:
            code, report = run_json(capsys, ["simulate", "-d", "3", "-i", "0", "-j", "0"])
        finally:
            cli.optics.bsa_layout.cache_clear()
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
        path.write_text(format_state_file(state))
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
        text = format_state_file(state).replace("d=2", "d=2", 1)
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
        path.write_bytes(b"\xef\xbb\xbf" + format_state_file(state).encode())
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

    # SHA-256 of classify reports of the hyperentangled state (1, d - 1), built
    # under the reference convention, at noise 0.3 under the default
    # convention, keyed (d, format), recorded on the BLAS kernel of the
    # simulate pins. The report echoes the state file path "state.txt".
    REPORT_SHA256 = {
        (2, "json"): "33f2ec296758f0ba72067a6f546037af8571b51648f00103f5bfac13a99ceece",
        (2, "csv"): "bbf4b192f665a7080adad694e7ace8f045233c256ac4866aaf81ca87d09d7366",
        (3, "json"): "34a7b30374c43b185edbe20e091501161e9d730797e201a1ec8baf01129cd7da",
        (3, "csv"): "bc95df1c27051845f6fad74aaeb97505b54a2029c2ae010d83e17c0e22a5d647",
        (4, "json"): "462e86c075fdd19993899ff2ea1f888131716f6873685f886335b2d2821a559d",
        (4, "csv"): "a4ec24d8320abbfde804d2fd13e080de10dd9692c66733b744b7b3f52f558c7b",
        (5, "json"): "1c3efb0cb96c595a1f60293601a291a75106a580b81a0199222179a19f1ea5d4",
        (5, "csv"): "e4a2a26ba55333450c4c1aa837fc2c22ecf2640c680b52e7b6c3c3ec62b6692c",
        (6, "json"): "ba939cc0569958614fd1afe8e68f988c5898564ee914a2458a61804d0a24ad75",
        (6, "csv"): "a454cef5f75b39eb8dcca17385d73a7d7f2344d2b4c194708c031292fd58cdff",
    }

    @pytest.mark.parametrize("d, fmt", sorted(REPORT_SHA256))
    def test_report_bytes_pinned(self, tmp_path, capsys, monkeypatch, d, fmt):
        skip_off_pinned_platform()
        monkeypatch.chdir(tmp_path)
        state = hyperentangled_state(d, 1, d - 1, REFERENCE_CONVENTION)
        Path("state.txt").write_text(format_state_file(state))
        assert main(["classify", "state.txt", "--noise", "0.3", "--format", fmt]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == self.REPORT_SHA256[(d, fmt)]

class TestExitCodeContract:
    """Each command: 0 success, 1 invariant failure, 2 usage error."""

    def test_decompose_invariant_failure_exits_1(self, capsys, monkeypatch):
        from hdbsm.states import BellIndex

        def broken_decompose(d, i, j, convention):
            # one coefficient missing: the support-size check must fail
            return oracles.hand_built_table(
                d, BellIndex(i, j), convention, {(0, 0, 0, 0): 1 / d}
            )

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

    def test_classify_invariant_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        from hdbsm.classifier import CoincidenceTable

        state = hyperentangled_state(2, 0, 0, REFERENCE_CONVENTION)
        path = tmp_path / "state.txt"
        path.write_text(format_state_file(state))

        def lossy_probabilities(state, convention):
            d = state.radices[0]
            return CoincidenceTable(d, np.full((d,) * 4, 0.5 / d**4))

        monkeypatch.setattr(cli.cl, "coincidence_probabilities", lossy_probabilities)
        assert main(["classify", str(path)]) == 1

    def test_success_is_0_and_usage_is_2(self, capsys):
        assert main(["verify", "-d", "2"]) == 0
        capsys.readouterr()
        assert main(["verify", "-d", "3", "--format", "csv"]) == 2

    def test_structural_error_during_auto_resolution_exits_1(self, capsys, monkeypatch):
        from hdbsm.decomposition import NoMatchingConventionError

        def no_match(d):
            raise NoMatchingConventionError("forced")

        monkeypatch.setattr(cli.dec, "find_convention", no_match)
        assert main(["decompose", "-d", "3", "-i", "0", "-j", "0"]) == 1
        assert "invariant failure" in capsys.readouterr().err


class TestDocumentedBounds:
    """Each documented bound: an input at half of it passes, one at twice it fails.

    Every case moves one observed quantity off its exact value by ``factor``
    times the bound and leaves the other checks of the report passing.
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
            return DecompositionTable(d, table.bell, convention, table.flat_support, coeffs)

        monkeypatch.setattr(cli.dec, "decompose", doctored)

    @pytest.mark.parametrize("factor, exit_code", FACTORS)
    def test_decompose_magnitudes_uniform(self, capsys, monkeypatch, factor, exit_code):
        delta = factor * 1e-9

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
        excess = factor * 1e-9
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
        excess = factor * 1e-9
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

    @pytest.mark.parametrize("factor, exit_code", FACTORS)
    def test_simulate_pipeline_equivalence(self, capsys, monkeypatch, factor, exit_code):
        gap = factor * 1e-9
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

    @pytest.mark.parametrize("factor, exit_code", FACTORS)
    def test_classify_probabilities_total(
        self, tmp_path, capsys, monkeypatch, factor, exit_code
    ):
        excess = factor * 1e-9
        path = tmp_path / "state.txt"
        path.write_text(format_state_file(hyperentangled_state(3, 1, 2, REFERENCE_CONVENTION)))
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
        excess = factor * 1e-6
        state = hyperentangled_state(3, 1, 2, REFERENCE_CONVENTION)
        path = tmp_path / "state.txt"
        path.write_text(format_state_file(State(state.radices, state.amps * (1 + excess))))
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


class TestStateFileFormat:
    def test_roundtrip(self):
        state = hyperentangled_state(3, 2, 1, REFERENCE_CONVENTION)
        parsed = parse_state_file(format_state_file(state))
        assert parsed.radices == state.radices
        np.testing.assert_allclose(parsed.amps, state.amps, atol=0)

    def test_comments_and_blank_lines_ignored(self):
        state = hyperentangled_state(2, 0, 0, REFERENCE_CONVENTION)
        text = format_state_file(state)
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
    st.sampled_from(["nan", "inf", "-inf", "1e999", "0", "0.25", "1_0", "#", "d=2", "x"]),
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
        path.write_text(format_state_file(state))
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


class TestOutputHandling:
    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HDBSM_OUTPUT_DIR", str(tmp_path))
        assert main(["verify", "-d", "2", "-o", "sub/report.json"]) == 0
        target = tmp_path / "sub" / "report.json"
        assert target.exists()
        jsonschema.validate(json.loads(target.read_text()), SCHEMA)

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
