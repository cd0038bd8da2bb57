"""Static checks of the gate's entries and the sweep's allow-list, run with tier-1.

No mutant runs this file, which is no module's own test file: each check here
reads the text a mutant changes.
"""

import mutation_gate
import mutation_sweep
from mutation_gate import Mutant, stale
from mutation_sweep import Allowed, stale_lines


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


def test_every_allowed_line_is_current():
    assert stale_lines() == []


def test_stale_lines_names_an_edited_line_and_a_missing_module(monkeypatch):
    # The line of bell_state and aux_state occurs twice, and one entry explains both.
    twice = "return State((d, d), amps.reshape(-1) / np.sqrt(d))"
    current = Allowed("states.py", twice, "1 -> 2", "kept")
    edited = Allowed("cli.py", "d = state.radices[1]", "1 -> 2", "edited")
    missing = Allowed("gone.py", "d = state.radices[0]", "0 -> 1", "deleted")
    monkeypatch.setattr(mutation_sweep, "ALLOWED", (current, edited, missing))
    assert stale_lines() == [
        "cli.py: no such line: d = state.radices[1]",
        "gone.py: no such line: d = state.radices[0]",
    ]
