"""Audit of the transcribed reference decomposition tables.

The package ships verbatim transcriptions of the published decomposition
listings (81 pairs at d=3, 16 pairs at d=4), misprints included. The audit
diffs every printed pair against the decomposition computed from first
principles under a chosen phase convention. Each printed pair is matched to
the computed pair with the same Bob index (k, m), so every printed
occurrence lands in exactly one of ``matches`` or ``mismatches``.

Misprint diagnostics are reported, never corrected: full pairs printed more
than once (``duplicates``), repeated Bob or Alice indices within a row, and
computed pairs that were never printed (``missing``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .core import as_index
from .states import BellIndex, PhaseConvention
from .decomposition import decompose_all

Tuple4 = tuple[int, int, int, int]

TRANSCRIPTIONS = {  # d: (data file, the source an audit names); verify audits these d
    3: ("reference_decomposition_d3.txt", "reference decomposition table, d=3"),
    4: ("reference_decomposition_d4_i2_j3.txt",
        "reference decomposition listing, d=4, bell (2, 3)"),
}


def load_reference_table(d: int) -> dict[BellIndex, list[Tuple4]]:
    """Printed pairs per Bell index, in printed order, duplicates preserved.

    Raises:
        ValueError: d is not an integer, or no transcription is shipped for it.
    """
    d = as_index(d, "dimension")
    if d not in TRANSCRIPTIONS:
        raise ValueError(
            f"no reference transcription for d={d}; available: {sorted(TRANSCRIPTIONS)}"
        )
    text = resources.files("hdbsm.data").joinpath(TRANSCRIPTIONS[d][0]).read_text()
    rows: dict[BellIndex, list[Tuple4]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            bell_part, pair_part = line.split(":")
            i, j = (int(x) for x in bell_part.split())
            k, m, kp, mp = (int(x) for x in pair_part.split())
        except ValueError as exc:
            raise ValueError(f"bad transcription line {lineno}: {line!r}") from exc
        rows.setdefault(BellIndex(i, j), []).append((k, m, kp, mp))
    return rows


@dataclass(frozen=True)
class RowAudit:
    """Diff of one printed row against the computed decomposition."""

    bell: BellIndex
    printed: tuple[Tuple4, ...]
    matches: tuple[Tuple4, ...]
    mismatches: tuple[tuple[Tuple4, Tuple4], ...]  # (printed, computed for same (k, m))
    duplicates: tuple[Tuple4, ...]
    missing: tuple[Tuple4, ...]  # computed pairs never printed
    repeated_bob: tuple[tuple[int, int], ...]
    repeated_alice: tuple[tuple[int, int], ...]

    @property
    def clean(self) -> bool:
        return not (self.mismatches or self.duplicates or self.missing)


@dataclass(frozen=True)
class TableAudit:
    """Diff of a whole transcribed table against computed decompositions."""

    source: str
    convention: PhaseConvention
    rows: tuple[RowAudit, ...]

    @property
    def total_matches(self) -> int:
        return sum(len(r.matches) for r in self.rows)

    @property
    def total_mismatches(self) -> int:
        return sum(len(r.mismatches) for r in self.rows)

    @property
    def clean(self) -> bool:
        return all(r.clean for r in self.rows)


def _audit_row(
    bell: BellIndex, printed: list[Tuple4], computed: frozenset[Tuple4]
) -> RowAudit:
    computed_of_bob = {(k, m): (k, m, kp, mp) for (k, m, kp, mp) in computed}
    matches = []
    mismatches = []
    for pair in printed:
        k, m = pair[0], pair[1]
        expected = computed_of_bob.get((k, m))
        if expected == pair:
            matches.append(pair)
        else:
            mismatches.append((pair, expected))
    bob_counts = Counter((k, m) for k, m, _, _ in printed)
    alice_counts = Counter((kp, mp) for _, _, kp, mp in printed)
    return RowAudit(
        bell=bell,
        printed=tuple(printed),
        matches=tuple(matches),
        mismatches=tuple(mismatches),
        duplicates=tuple(p for p, count in Counter(printed).items() if count > 1),
        missing=tuple(sorted(computed.difference(printed))),
        repeated_bob=tuple(sorted(b for b, c in bob_counts.items() if c > 1)),
        repeated_alice=tuple(sorted(a for a, c in alice_counts.items() if c > 1)),
    )


def audit_reference_table(d: int, convention: PhaseConvention) -> TableAudit:
    """Diff the shipped transcription for dimension d against computed supports.

    Args:
        d: 3 or 4, the dimensions with shipped transcriptions.
        convention: phase convention used for the computed decompositions.
    """
    d = as_index(d, "dimension")
    printed_rows = load_reference_table(d)
    tables = decompose_all(d, convention)
    rows = []
    for bell in sorted(printed_rows):
        digits = np.unravel_index(tables[bell].flat_support, (d,) * 4)
        computed = frozenset(zip(*(digit.tolist() for digit in digits)))
        rows.append(_audit_row(bell, printed_rows[bell], computed))
    return TableAudit(TRANSCRIPTIONS[d][1], convention, tuple(rows))
