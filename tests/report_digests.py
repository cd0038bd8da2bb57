"""Digests of the command line's output over a fixed grid, to diff two checkouts.

Prints one line per in-process ``hdbsm.cli.main`` run: the argv, the exit
code, the SHA-256 of stdout and the stderr text. The grid covers d = 2..6
with no ``--convention`` flag and with each of its seven values: ``verify``,
``decompose`` for every (i, j), ``simulate`` with 3000 and with 0 shots, and
``classify`` at noise 0.3 of a seeded state file, each in json and csv. Then
every ``--help``, a malformed state file and ``--convention=bogus``. State
files are written to a temporary working directory and named relative to
it, because the classify report echoes the path it was given.

Usage, from the root of each checkout:

    PYTHONPATH=src python tests/report_digests.py > digests.txt

Identical output means identical reports, exit codes and error messages over
the grid. The file name does not match ``test_*.py``, so pytest does not
collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import tempfile

import numpy as np

from hdbsm.cli import format_state_file, main
from hdbsm.core import State

LABELS = (None, "auto", "literal", "reference", "++", "+-", "-+", "--")


def run(argv: list[str]) -> None:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's --help and usage errors
            code = exc.code
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    print(" ".join(argv), code, digest, repr(err.getvalue()))


def grid() -> None:
    for d in range(2, 7):
        rng = np.random.default_rng(d)
        amps = rng.normal(size=d**4) + 1j * rng.normal(size=d**4)
        with open(f"state{d}.txt", "w", encoding="utf-8") as fh:
            fh.write(format_state_file(State((d,) * 4, amps / np.linalg.norm(amps))))
        for label in LABELS:
            flag = [] if label is None else [f"--convention={label}"]
            run(["verify", "-d", str(d), *flag])
            for fmt in ("json", "csv"):
                tail = [*flag, "--format", fmt]
                for i in range(d):
                    for j in range(d):
                        run(["decompose", "-d", str(d), "-i", str(i), "-j", str(j), *tail])
                for shots in ("3000", "0"):
                    bell = ["-i", "1", "-j", str(d - 1)]
                    run(["simulate", "-d", str(d), *bell, "--shots", shots, "--seed", "7", *tail])
                run(["classify", f"state{d}.txt", "--noise", "0.3", *tail])
    for command in ([], ["decompose"], ["verify"], ["simulate"], ["classify"]):
        run([*command, "--help"])
    with open("malformed.txt", "w", encoding="utf-8") as fh:
        fh.write("d=3\n1 0\n")
    run(["classify", "malformed.txt"])
    run(["verify", "-d", "3", "--convention=bogus"])


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"  # argparse wraps --help to the terminal width
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="hdbsm-digests-") as tmp:
        os.chdir(tmp)
        try:
            grid()
        finally:
            os.chdir(home)
