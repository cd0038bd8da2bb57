"""The command line's output over a fixed grid, one digest line per run.

The grid covers d = 2..6: ``verify`` with no ``--convention`` flag and with
each of its seven values, then with no flag and with each of the four sign
labels ``decompose`` of Bell (0, 0), (1, d - 1) and (d - 1, d - 1),
``simulate`` of Bell (1, d - 1) with 3000 and with 0 shots, and ``classify``
at noise 0.3 of a seeded state file, each in json and csv. (``auto``,
``literal`` and ``reference`` print what no flag, ``++`` and ``-+`` print
there; ``verify`` keeps them all because it checks how labels resolve.)
Under the default convention it adds ``simulate`` of Bell (d - 1, d - 1) at
shot counts around the sampler's 2^14-word chunk and at 10^6, for the seeds
0 and 2^64 - 1, and ``classify`` at noise 0.3 of the hyperentangled state
(1, d - 1) built under the reference convention. Then every ``--help``, a
malformed state file and ``--convention=bogus``. State files are written to
the working directory and named relative to it, because the classify report
echoes the path it was given.

``report_digests.txt`` holds two header lines, the Python version and the
float digest of the recording machine, then one line per run: the grid index,
the exit code, the first 16 hex digits of the SHA-256 of stdout, the repr of
stderr and a portable flag. The flag is 1 when the run printed the same under
the default OpenBLAS kernel, ``OPENBLAS_CORETYPE=Haswell``,
``OPENBLAS_CORETYPE=Prescott`` and numpy's CPU dispatch capped by
``NPY_DISABLE_CPU_FEATURES``, and argparse did not end it (its help and error
text change between Python versions). ``test_cli.TestReportDigests`` reruns
the grid in process. It checks the portable lines on every machine, the runs
that argparse ended where the Python version matches, and the other lines
where the float digest matches.

To re-record, from the root of the checkout:

    PYTHONPATH=src python tests/report_digests.py > tests/report_digests.txt

The grid then runs once per recording environment, each in a child process.
Every re-record needs a CHANGES.md line saying why the bytes changed. The
file name does not match ``test_*.py``, so pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import subprocess
import sys
import tempfile
from collections.abc import Iterator
from functools import lru_cache
from pathlib import Path

import numpy as np

import oracles
from hdbsm.cli import main
from hdbsm.core import State
from hdbsm.decomposition import hyperentangled_state
from hdbsm.states import REFERENCE_CONVENTION

DIGEST_FILE = Path(__file__).with_name("report_digests.txt")
LABELS = (None, "auto", "literal", "reference", "++", "+-", "-+", "--")
SIGN_LABELS = (None, "++", "+-", "-+", "--")
FORMATS = ("json", "csv")
SHOTS = ("1", "16383", "16384", "16385", "32769", "1000000")
SEEDS = ("0", "18446744073709551615")
RECORDING_ENVS = (  # what each recording run adds to the environment
    {},
    {"OPENBLAS_CORETYPE": "Haswell"},
    {"OPENBLAS_CORETYPE": "Prescott"},
    {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"},
)
CHILD = (  # run as python -c CHILD <directory of this file>
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import report_digests; report_digests.print_runs()"
)


@lru_cache(maxsize=None)
def float_platform_digest() -> str:
    """Digest of complex exp and matmul results that differ between BLAS kernels.

    Reports print BLAS-rounded probabilities and coefficients, whose last
    digit differs between OpenBLAS kernels (Haswell, Zen, SkylakeX, ...), so
    most report bytes can only be pinned for the kernel they were recorded with.
    """
    h = hashlib.sha256()
    for n in (4, 9, 16, 25, 36):
        grid = np.outer(np.arange(n), np.arange(n) + 1)
        a = np.exp(2j * np.pi * (grid % 13) / 13) / np.sqrt(n)
        b = np.exp(1j * np.sqrt(grid + 1.0))
        h.update(np.abs(a @ b @ a.T).tobytes())
    return h.hexdigest()


def python_version() -> str:
    return "%d.%d" % sys.version_info[:2]


def write_state(path: str, state: State) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(oracles.state_file_text(state))


def grid() -> Iterator[list[str]]:
    """Yield each run's argv, writing the state files it reads first."""
    for d in range(2, 7):
        rng = np.random.default_rng(d)
        amps = rng.normal(size=d**4) + 1j * rng.normal(size=d**4)
        write_state(f"state{d}.txt", State((d,) * 4, amps / np.linalg.norm(amps)))
        bells = dict.fromkeys([(0, 0), (1, d - 1), (d - 1, d - 1)])  # two at d = 2
        for label in LABELS:
            yield ["verify", "-d", str(d), *([] if label is None else [f"--convention={label}"])]
        for label in SIGN_LABELS:
            flag = [] if label is None else [f"--convention={label}"]
            for fmt in FORMATS:
                tail = [*flag, "--format", fmt]
                for i, j in bells:
                    yield ["decompose", "-d", str(d), "-i", str(i), "-j", str(j), *tail]
                for shots in ("3000", "0"):
                    bell = ["-i", "1", "-j", str(d - 1)]
                    yield ["simulate", "-d", str(d), *bell, "--shots", shots, "--seed", "7", *tail]
                yield ["classify", f"state{d}.txt", "--noise", "0.3", *tail]
        write_state("state.txt", hyperentangled_state(d, 1, d - 1, REFERENCE_CONVENTION))
        for fmt in FORMATS:
            bell = ["-i", str(d - 1), "-j", str(d - 1)]
            for shots in SHOTS:
                for seed in SEEDS:
                    tail = ["--shots", shots, "--seed", seed, "--format", fmt]
                    yield ["simulate", "-d", str(d), *bell, *tail]
            yield ["classify", "state.txt", "--noise", "0.3", "--format", fmt]
    for command in ([], ["decompose"], ["verify"], ["simulate"], ["classify"]):
        yield [*command, "--help"]
    with open("malformed.txt", "w", encoding="utf-8") as fh:
        fh.write("d=3\n1 0\n")
    yield ["classify", "malformed.txt"]
    yield ["verify", "-d", "3", "--convention=bogus"]


def run(argv: list[str]) -> tuple[str, bool]:
    """Run ``main(argv)`` in process: its digest result, and whether argparse ended it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, by_argparse = main(argv), False
        except SystemExit as exc:  # argparse's --help and usage errors
            code, by_argparse = exc.code, True
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()[:16]
    return f"{code} {digest} {err.getvalue()!r}", by_argparse


def results() -> list[tuple[list[str], str, bool]]:
    """Run the grid in the working directory: argv, result and argparse flag per run."""
    return [(argv, *run(argv)) for argv in grid()]


def read() -> tuple[dict[str, str], list[tuple[str, bool]]]:
    """The digest file's header values, and each run's pinned result and portable flag."""
    header, pinned = {}, []
    for line in DIGEST_FILE.read_text(encoding="utf-8").splitlines():
        if line.startswith("# "):
            key, value = line[2:].split(" ", 1)
            header[key] = value
            continue
        index, rest = line.split(" ", 1)
        assert int(index) == len(pinned), f"line {line!r} is out of order"
        result, portable = rest.rsplit(" ", 1)
        pinned.append((result, portable == "1"))
    return header, pinned


def print_runs() -> None:
    """Print this process's float digest, then each run's argparse flag and result."""
    print(float_platform_digest())
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="hdbsm-digests-") as tmp:
        os.chdir(tmp)
        try:
            for _, result, by_argparse in results():
                print(int(by_argparse), result)
        finally:
            os.chdir(home)


def record() -> None:
    """Print the digest file: the grid in each recording environment, a child process each."""
    outputs = []
    unset = ("OPENBLAS_CORETYPE", "NPY_DISABLE_CPU_FEATURES")
    base = {key: value for key, value in os.environ.items() if key not in unset}
    for extra in RECORDING_ENVS:
        env = {**base, "COLUMNS": "80", **extra}  # argparse wraps --help to the terminal width
        argv = [sys.executable, "-c", CHILD, str(DIGEST_FILE.parent)]
        child = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True, check=True)
        outputs.append(child.stdout.splitlines())
    print(f"# python {python_version()}")
    print(f"# float_platform {outputs[0][0]}")
    for index, lines in enumerate(zip(*(output[1:] for output in outputs))):
        by_argparse, result = lines[0].split(" ", 1)
        portable = by_argparse == "0" and len(set(lines)) == 1
        print(index, result, int(portable))


if __name__ == "__main__":
    record()
