"""The mutation gate's static checks, run with tier-1 so that a stale entry fails at once."""

import mutation_gate
from mutation_gate import Mutant, stale


def test_every_gate_entry_is_current():
    assert stale() == []


def test_stale_names_a_missing_old_text_and_a_module_without_a_test_file(monkeypatch):
    # report.py has no tests/test_report.py, so the gate would have no file to run.
    missing = Mutant("src/hdbsm/core.py", "no such text", "", "absent")
    untested = Mutant("src/hdbsm/report.py", "def check(", "def checked(", "renamed")
    monkeypatch.setattr(mutation_gate, "MUTANTS", (missing, untested))
    assert stale() == [
        "src/hdbsm/core.py: old text occurs 0 times: 'no such text'",
        "src/hdbsm/report.py: no tests/test_report.py runs: renamed",
    ]
