"""The report renderers' exact text, and where write_report writes it."""

import pytest

from hdbsm.report import build_report, check, render_csv, render_json, write_report


def simulate_report(seed, shots) -> dict:
    config = {
        "d": 3,
        "convention": {"bell_sign": -1, "decomp_sign": 1, "selection": "default"},
        "seed": seed,
        "shots": shots,
        "format": "csv",
    }
    return build_report("simulate", config, {}, [check("total_weight", 0.0, "<=", 1e-9, "ok")])


# observed below, at and above the bound 1.0
SIDES = {"<=": (True, True, False), "<": (True, False, False), "==": (False, True, False)}


@pytest.mark.parametrize("side", list(SIDES))
def test_check_decides_each_side_at_the_bound(side):
    passed = [check("c", observed, side, 1.0, "d")["passed"] for observed in (0.5, 1.0, 2.0)]
    assert passed == list(SIDES[side])


def test_check_returns_name_verdict_and_detail():
    assert check("outcomes", {4}, "==", {4}, "9 pairs") == {
        "name": "outcomes", "passed": True, "detail": "9 pairs"
    }


def test_an_unknown_side_raises():
    with pytest.raises(KeyError):
        check("c", 1.0, ">", 0.0, "d")


def test_render_json_indents_two_spaces_sorts_keys_and_ends_with_a_newline():
    report = build_report("verify", {"d": 2}, {"b": [1], "a": 0.5}, [])
    assert render_json(report) == (
        "{\n"
        '  "checks": [],\n'
        '  "command": "verify",\n'
        '  "config": {\n'
        '    "d": 2\n'
        "  },\n"
        '  "passed": true,\n'
        '  "payload": {\n'
        '    "a": 0.5,\n'
        '    "b": [\n'
        "      1\n"
        "    ]\n"
        "  },\n"
        '  "schema_version": "1"\n'
        "}\n"
    )


@pytest.mark.parametrize(
    "seed, shots, meta",
    [
        (7, 100, "# seed=7\n# shots=100\n"),
        (0, 0, "# seed=0\n# shots=0\n"),  # a zero is written; only None is skipped
        (None, None, ""),
    ],
    ids=["set", "zero", "none"],
)
def test_render_csv_writes_meta_lines_then_header_and_rows(seed, shots, meta):
    rows = [{"k": 0, "p": 0.1, "s": "a"}, {"k": 1, "p": 1 / 3, "s": "b"}]
    assert render_csv(simulate_report(seed, shots), "-+", ["k", "p"], rows) == (
        "# schema_version=1\n# command=simulate\n# d=3\n# convention=-+\n"
        + meta
        + "# passed=true\nk,p\n0,0.1\n1,0.3333333333333333\n"
    )


def test_write_report_prints_to_stdout_without_an_output(capsys, monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    write_report("report text\n", None)
    assert capsys.readouterr().out == "report text\n"
    assert list(tmp_path.iterdir()) == []
