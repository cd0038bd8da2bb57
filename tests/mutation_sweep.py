"""Mechanical mutation sweep: every small operator change must fail its module's tests.

The sweep parses each module ``src/hdbsm/*.py`` and makes one mutant per
node of these kinds:

- a comparison flipped: ``<`` and ``<=``, ``>`` and ``>=``, ``==`` and
  ``!=``, ``in`` and ``not in``, ``is`` and ``is not`` swap;
- a binary ``+`` and ``-`` swap;
- ``and`` and ``or`` swap, at every place of one boolean operation;
- a ``not`` dropped;
- an int constant plus one (a negative literal is a minus sign and a constant,
  so -1 becomes -2).

Each change is spliced into the original text at the position of its AST
node, so the rest of the file keeps every byte: re-rendering it with
``ast.unparse`` would change the text that ``tests/test_bounds.py`` reads.
Every mutant runs once, in a fresh copy made by ``mutation_gate.run_tests``,
two at a time, against the mutated module's own test file ``tests/test_<m>.py``
alone, as the gate's mutants do (``mutation_gate.own_tests``). The unmutated
copy must first pass each of those files alone
(``mutation_gate.unmutated_passes``); a module with mutants and no test file
fails that run with pytest's exit 4, and the sweep exits 1. Unlike the gate's
hand-written mutants, a mechanical one can break the package at import, for
example ``LITERAL_CONVENTION = PhaseConvention(2, 1)``, whose sign check raises
while ``states`` loads. So pytest's exit codes 2 (collection failed) and 3
(internal error) kill a mutant here as 1 does; only exit 0 is a survivor, and a
timeout has no verdict.

A mutant that survives is explained when ``ALLOWED`` names its file, its
stripped source line and its change, with one line of reason. The sweep
prints each unexplained survivor's file, line, change and source line, and
each allowed entry that matches no survivor, and exits 1 when there is
either. Tier-1 checks that each entry's line still occurs (``stale_lines``).
The sweep is slow (several hundred mutants), so neither CI nor pytest runs
it, and the file name does not match ``test_*.py``.

Usage, from any directory:

    python tests/mutation_sweep.py
"""

from __future__ import annotations

import ast
import re
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

from mutation_gate import ROOT, WORKERS, Mutant, own_tests, run_tests, unmutated_passes

PACKAGE = ROOT / "src" / "hdbsm"
KILLED = (1, 2, 3)  # pytest exit codes: tests failed, collection failed, internal error
FLIPPED = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
           "in": "not in", "not in": "in", "is": "is not", "is not": "is"}
COMPARISON = re.compile(r"<=|>=|==|!=|<|>|not\s+in\b|in\b|is\s+not\b|is\b")
ARITHMETIC = re.compile(r"[+-]")
BOOLEAN = re.compile(r"(and|or)\b")
NOT = re.compile(r"not\b\s*")


class Allowed(NamedTuple):
    path: str  # relative to src/hdbsm
    line: str  # the stripped source line
    change: str
    reason: str


RESHAPE = "reshape(-2) infers the one free axis as reshape(-1) does"
NO_SIDE = "the bound promises no side: no distance a check compares lands on it (README)"

ALLOWED = (
    # Equivalent mutants: no input can tell them from the code.
    Allowed("classifier.py", "UNREACHABLE = -1", "1 -> 2",
            "the sentinel is read by name, and -2 lies outside 0..d*d - 1 as -1 does"),
    Allowed("classifier.py", "_CELL_BITS = 12", "12 -> 13",
            "finer cells only move draws between counting and searching; no outcome changes"),
    Allowed("classifier.py", "_CHUNK = 1 << 14", "1 -> 2",
            "the chunks continue one stream, so their size changes no count"),
    Allowed("classifier.py", "_CHUNK = 1 << 14", "14 -> 15",
            "the chunks continue one stream, so their size changes no count"),
    Allowed("classifier.py", "flat = table.probs.reshape(-1)", "1 -> 2", RESHAPE),
    Allowed("classifier.py", "classes = self.classes.reshape(-1)", "1 -> 2", RESHAPE),
    Allowed("classifier.py", "sums = table.probs.reshape(-1)[decoding.class_order]"
            ".reshape(d * d, d * d).sum(axis=1)", "1 -> 2", RESHAPE),
    Allowed("classifier.py", "return CoincidenceTable(state.radices[0], np.abs(coeffs) ** 2)",
            "0 -> 1", "pair_coefficients has checked that all four radices are equal"),
    Allowed("classifier.py", "if filled + chosen.size > size:", "> -> >=",
            "an early flush searches the same words, and their order changes no outcome"),
    Allowed("cli.py", "probs = table.probs.reshape(-1)", "1 -> 2", RESHAPE),
    Allowed("cli.py", "counts = record.counts.reshape(-1)", "1 -> 2", RESHAPE),
    Allowed("cli.py", "d = state.radices[0]", "0 -> 1",
            "parse_state_file builds only (d, d, d, d) states"),
    Allowed("core.py", "amps = np.ascontiguousarray(self.amps, dtype=np.complex128)"
            ".reshape(-1).copy()", "1 -> 2", RESHAPE),
    Allowed("core.py", "return State(u.radices + v.radices, np.multiply.outer(u.amps, v.amps)"
            ".reshape(-1))", "1 -> 2", RESHAPE),
    Allowed("core.py", "amps = np.ascontiguousarray(state.reshaped().transpose(order))"
            ".reshape(-1)", "1 -> 2", RESHAPE),
    Allowed("decomposition.py", "return (basis @ stack.reshape(-1, d * d, d * d) @ basis.T)"
            ".reshape(stack.shape)", "1 -> 2", RESHAPE),
    Allowed("decomposition.py", "residual = (residual + math.pi) % (2 * math.pi) - math.pi",
            "+ -> -", "-pi and +pi are equal modulo 2*pi; the roundings differ far below LOGIC_TOL"),
    Allowed("decomposition.py", 'order = np.argsort(bell * d**4 + flat, kind="stable")',
            "4 -> 5", "every multiplier of at least d**4 sorts by Bell index, then pair index"),
    Allowed("states.py", "return State((d, d), amps.reshape(-1) / np.sqrt(d))", "1 -> 2",
            f"{RESHAPE} (bell_state and aux_state)"),
    # Strict sides flipped at the bounds that README lists with no side.
    Allowed("classifier.py", "if abs(norm - 1.0) > NORM_TOL:", "> -> >=", NO_SIDE),
)


class Sweep(NamedTuple):
    """One mutant: the gate's Mutant, whose old text is the whole file, and where it sits."""

    mutant: Mutant
    line: int
    change: str
    source: str
    at: int  # index into the file's text of the first splice


def mutants(path) -> list[Sweep]:
    """Every mutant of one module, in source order."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))

    def offset(lineno: int, col: int) -> int:
        """Index into ``text`` of an AST position, whose column counts UTF-8 bytes."""
        return starts[lineno - 1] + len(lines[lineno - 1].encode()[:col].decode())

    def start(node) -> int:
        return offset(node.lineno, node.col_offset)

    def end(node) -> int:
        return offset(node.end_lineno, node.end_col_offset)

    def between(left, right, pattern) -> re.Match:
        """The operator between two operands: the first token that is not a bracket or space."""
        at, stop = end(left), start(right)
        while at < stop:
            if text[at] in " \t\r\n\\()":
                at += 1
            elif text[at] == "#":
                at = text.index("\n", at)
            else:
                break
        found = pattern.match(text, at, stop)
        if found is None:
            raise ValueError(f"{path.name}:{left.end_lineno}: no operator in {text[at:stop]!r}")
        return found

    found = []

    def add(splices: list[tuple[int, int, str]], change: str) -> None:
        new = text
        for first, last, replacement in sorted(splices, reverse=True):
            new = new[:first] + replacement + new[last:]
        compile(new, str(path), "exec")
        at = min(splices)[0]
        lineno = text.count("\n", 0, at) + 1
        source = lines[lineno - 1].strip()
        mutant = Mutant(f"src/hdbsm/{path.name}", text, new, f"{change}: {source}")
        found.append(Sweep(mutant, lineno, change, source, at))

    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            for left, right in zip(operands, operands[1:]):
                op = between(left, right, COMPARISON)
                old = " ".join(op.group().split())
                add([(op.start(), op.end(), FLIPPED[old])], f"{old} -> {FLIPPED[old]}")
        elif isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
            op = between(node.left, node.right, ARITHMETIC)
            new = "-" if op.group() == "+" else "+"
            add([(op.start(), op.end(), new)], f"{op.group()} -> {new}")
        elif isinstance(node, ast.BoolOp):
            old, new = ("and", "or") if isinstance(node.op, ast.And) else ("or", "and")
            ops = [between(a, b, BOOLEAN) for a, b in zip(node.values, node.values[1:])]
            add([(op.start(), op.end(), new) for op in ops], f"{old} -> {new}")
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            op = NOT.match(text, start(node))
            add([(op.start(), op.end(), "")], "not dropped")
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            add([(start(node), end(node), str(node.value + 1))],
                f"{node.value} -> {node.value + 1}")
    # A change made more than once on one line is told apart by its place on the line.
    found.sort(key=lambda sweep: sweep.at)
    seen: dict[tuple[int, str], int] = {}
    for n, sweep in enumerate(found):
        count = seen[sweep.line, sweep.change] = seen.get((sweep.line, sweep.change), 0) + 1
        if count > 1:
            found[n] = sweep._replace(change=f"{sweep.change} (#{count})")
    return found


def stale_lines() -> list[str]:
    """One message per ALLOWED entry whose line occurs nowhere in its module, once stripped."""
    found = []
    for entry in ALLOWED:
        module = PACKAGE / entry.path
        text = module.read_text(encoding="utf-8") if module.is_file() else ""
        if entry.line not in {line.strip() for line in text.splitlines()}:
            found.append(f"{entry.path}: no such line: {entry.line}")
    return found


def allowed(sweep: Sweep) -> Allowed | None:
    name = sweep.mutant.path.removeprefix("src/hdbsm/")
    return next(
        (entry for entry in ALLOWED
         if (entry.path, entry.line, entry.change) == (name, sweep.source, sweep.change)),
        None,
    )


def main() -> int:
    paths = sorted(PACKAGE.glob("*.py"))
    swept = [sweep for path in paths for sweep in mutants(path)]
    print(f"{len(swept)} mutants in {len(paths)} modules")

    survivors, unexplained, errors = [], 0, 0
    with ThreadPoolExecutor(max_workers=WORKERS) as pool:
        owns = sorted({own_tests(sweep.mutant) for sweep in swept})
        if not unmutated_passes(pool, owns):
            return 1
        results = pool.map(
            lambda sweep: run_tests(sweep.mutant, own_tests(sweep.mutant))[0], swept
        )
        for sweep, code in zip(swept, results):
            where = f"{sweep.mutant.path}:{sweep.line}: {sweep.change}: {sweep.source}"
            if code in KILLED:
                continue
            if code != 0:
                print(f"NO VERDICT (exit {code}) {where}")
                errors += 1
                continue
            survivors.append(sweep)
            if allowed(sweep) is None:
                print(f"SURVIVED {where}")
                unexplained += 1

    used = {allowed(sweep) for sweep in survivors}
    stale = [entry for entry in ALLOWED if entry not in used]
    for entry in stale:
        print(f"stale allow-list entry: {entry.path}: {entry.change}: {entry.line}")
    print(
        f"{len(swept) - len(survivors) - errors} of {len(swept)} mutants killed, "
        f"{len(survivors) - unexplained} survivors allowed, {unexplained} unexplained, "
        f"{errors} without verdict, {len(stale)} stale allow-list entries"
    )
    return 1 if unexplained or errors or stale else 0


if __name__ == "__main__":
    began = time.perf_counter()
    code = main()
    print(f"sweep wall time {time.perf_counter() - began:.1f} s")
    sys.exit(code)
