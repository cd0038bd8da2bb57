"""Static checks of the gate's entries, its allow-list and its verdicts, run with tier-1.

No mutant runs this file, which is no module's own test file: each check here
reads the text a mutant changes.
"""

import pytest

import mutation_gate
from mutation_gate import Allowed, Mutant, stale, stale_lines, verdict


def test_every_gate_entry_is_current():
    assert stale() == []


def test_stale_names_a_missing_old_text_and_a_module_without_a_test_file(monkeypatch):
    # __main__.py has no tests/test___main__.py, so the gate would have no file to run.
    missing = Mutant("src/hdbsm/core.py", "no such text", "", "absent")
    untested = Mutant("src/hdbsm/__main__.py", "sys.exit(main())", "main()", "exit dropped")
    monkeypatch.setattr(mutation_gate, "MUTANTS", (missing, untested))
    assert stale() == [
        "src/hdbsm/core.py: old text occurs 0 times: 'no such text'",
        "src/hdbsm/__main__.py: no tests/test___main__.py runs: exit dropped",
    ]


def test_stale_names_an_entry_whose_change_does_not_compile(monkeypatch):
    # The gate would find it only when its run ends in a collection error.
    unclosed = Mutant("src/hdbsm/report.py", 'SCHEMA_VERSION = "1"', 'SCHEMA_VERSION = "1', "cut")
    monkeypatch.setattr(mutation_gate, "MUTANTS", (unclosed,))
    [line] = stale()
    assert line.startswith("src/hdbsm/report.py: does not compile (") and line.endswith("): cut")


def test_stale_names_an_entry_that_repeats_a_mechanical_mutant(monkeypatch):
    # The gate runs the mechanical twin anyway, so the entry would only run it twice.
    side = '"<=": lambda o, b: o <= b'
    repeat = Mutant("src/hdbsm/report.py", side, '"<=": lambda o, b: o < b', "<= decided as <")
    monkeypatch.setattr(mutation_gate, "MUTANTS", (repeat,))
    text = (mutation_gate.ROOT / repeat.path).read_text(encoding="utf-8")
    line = next(n for n, source in enumerate(text.splitlines(), start=1) if side in source)
    assert stale() == [
        f"src/hdbsm/report.py:{line}: repeats the mechanical mutant <= -> <: <= decided as <"
    ]


@pytest.mark.parametrize(
    ("code", "handwritten", "mechanical"),
    [
        (0, "SURVIVED", "SURVIVED"),
        (1, "killed", "killed"),
        # A hand-written entry whose change breaks collection is itself broken.
        (2, "NO VERDICT", "killed"),
        (3, "NO VERDICT", "killed"),
        (4, "NO VERDICT", "NO VERDICT"),
        (None, "NO VERDICT", "NO VERDICT"),  # timed out
    ],
)
def test_verdict_of_each_exit_code(code, handwritten, mechanical):
    assert verdict(code, mechanical=False) == handwritten
    assert verdict(code, mechanical=True) == mechanical


def test_every_allowed_line_is_current():
    assert stale_lines() == []


def test_stale_lines_names_an_edited_line_and_a_missing_module(monkeypatch):
    # The line of bell_state and aux_state occurs twice, and one entry explains both.
    twice = "return State((d, d), amps.reshape(-1) / np.sqrt(d))"
    current = Allowed("states.py", twice, "1 -> 2", "kept")
    edited = Allowed("cli.py", "d = state.radices[1]", "1 -> 2", "edited")
    missing = Allowed("gone.py", "d = state.radices[0]", "0 -> 1", "deleted")
    monkeypatch.setattr(mutation_gate, "ALLOWED", (current, edited, missing))
    assert stale_lines() == [
        "cli.py: no such line: d = state.radices[1]",
        "gone.py: no such line: d = state.radices[0]",
    ]
