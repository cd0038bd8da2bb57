from types import SimpleNamespace

import numpy as np
import pytest

from hdbsm import audit as audit_mod
from hdbsm.audit import audit_reference_table, load_reference_table
from hdbsm.states import BellIndex, LITERAL_CONVENTION, REFERENCE_CONVENTION


class TestTranscriptions:
    def test_d3_shape(self):
        rows = load_reference_table(3)
        assert len(rows) == 9
        assert all(len(pairs) == 9 for pairs in rows.values())

    def test_d4_shape(self):
        rows = load_reference_table(4)
        assert list(rows) == [BellIndex(2, 3)]
        assert len(rows[BellIndex(2, 3)]) == 16

    def test_unknown_dimension(self):
        with pytest.raises(ValueError):
            load_reference_table(5)

    @pytest.mark.parametrize("d", [3.0, np.float64(4.0), "3"])
    def test_non_integer_dimension_rejected(self, d):
        with pytest.raises(ValueError, match="dimension must be an integer"):
            load_reference_table(d)

    def test_bad_line_names_its_line_number(self, monkeypatch, tmp_path):
        text = "# comment\n\n0 0 : 0 0 0 0\n0 0 : 1 0 2\n"
        (tmp_path / "reference_decomposition_d3.txt").write_text(text)
        monkeypatch.setattr(audit_mod, "resources", SimpleNamespace(files=lambda package: tmp_path))
        with pytest.raises(ValueError) as info:
            load_reference_table(3)
        assert str(info.value) == "bad transcription line 4: '0 0 : 1 0 2'"

    def test_known_misprints_preserved(self):
        rows = load_reference_table(3)
        row_01 = rows[BellIndex(0, 1)]
        assert row_01.count((2, 1, 0, 0)) == 2
        row_22 = rows[BellIndex(2, 2)]
        assert (1, 2, 2, 1) in row_22 and (2, 2, 2, 1) in row_22


def audited_row(audit, i, j):
    return {row.bell: row for row in audit.rows}[BellIndex(i, j)]


@pytest.fixture(scope="module")
def reference_audit():
    return audit_reference_table(3, REFERENCE_CONVENTION)


@pytest.fixture(scope="module")
def literal_audit():
    return audit_reference_table(3, LITERAL_CONVENTION)


class TestAuditUnderReferenceConvention:
    @pytest.fixture
    def audit(self, reference_audit):
        return reference_audit

    def test_totals(self, audit):
        assert audit.total_matches == 78
        assert audit.total_mismatches == 3
        assert not audit.clean

    def test_origin_row_clean(self, audit):
        row = audited_row(audit, 0, 0)
        assert len(row.matches) == 9
        assert row.clean

    def test_duplicated_print_in_row_01(self, audit):
        row = audited_row(audit, 0, 1)
        assert row.duplicates == ((2, 1, 0, 0),)
        assert len(row.matches) == 7
        # both printed occurrences of the duplicate disagree with the
        # computed pair for Bob index (2, 1)
        assert row.mismatches == (
            ((2, 1, 0, 0), (2, 1, 1, 2)),
            ((2, 1, 0, 0), (2, 1, 1, 2)),
        )
        assert set(row.missing) == {(0, 2, 0, 0), (2, 2, 1, 0)}
        assert (2, 1) in row.repeated_bob

    def test_repeated_alice_factor_in_row_22(self, audit):
        row = audited_row(audit, 2, 2)
        assert len(row.matches) == 8
        assert row.mismatches == (((1, 2, 2, 1), (1, 2, 0, 1)),)
        assert row.missing == ((1, 2, 0, 1),)
        assert row.repeated_alice == ((2, 1),)
        assert row.duplicates == ()

    def test_every_printed_pair_covered_exactly_once(self, audit):
        for row in audit.rows:
            assert len(row.matches) + len(row.mismatches) == len(row.printed)

    def test_global_duplicates_listing(self, audit):
        duplicates = tuple((r.bell, t) for r in audit.rows for t in r.duplicates)
        assert duplicates == ((BellIndex(0, 1), (2, 1, 0, 0)),)


class TestAuditUnderLiteralConvention:
    @pytest.fixture
    def audit(self, literal_audit):
        return literal_audit

    def test_totals(self, audit):
        # rows with i = 0 follow the same law under both conventions, so only
        # the transcription misprints reduce their matches; rows with i != 0
        # disagree everywhere
        assert audit.total_matches == 25
        assert audit.total_mismatches == 56

    def test_origin_row_agrees_with_both_conventions(self, audit):
        assert audited_row(audit, 0, 0).clean

    def test_duplicate_still_reported(self, audit):
        assert audited_row(audit, 0, 1).duplicates == ((2, 1, 0, 0),)

    def test_nonzero_phase_rows_all_mismatch(self, audit):
        for i in (1, 2):
            for j in range(3):
                assert len(audited_row(audit, i, j).mismatches) == 9


# The computed support of Bell (0, 0) at d = 3, printed without a misprint.
ORIGIN_ROW = [
    (0, 0, 0, 0), (1, 0, 2, 0), (2, 0, 1, 0),
    (0, 1, 0, 1), (1, 1, 2, 1), (2, 1, 1, 1),
    (0, 2, 0, 2), (1, 2, 2, 2), (2, 2, 1, 2),
]


class TestSingleDefectRows:
    """The d = 3 origin row printed with one defect, audited under the reference convention."""

    @pytest.mark.parametrize(
        "printed, mismatches, duplicates, missing, repeated_bob, repeated_alice",
        [
            (ORIGIN_ROW + [(0, 0, 1, 0)], (((0, 0, 1, 0), (0, 0, 0, 0)),), (), (), ((0, 0),),
             ((1, 0),)),
            (ORIGIN_ROW + [(1, 1, 2, 1)], (), ((1, 1, 2, 1),), (), ((1, 1),), ((2, 1),)),
            (ORIGIN_ROW[:-1], (), (), ((2, 2, 1, 2),), (), ()),
        ],
        ids=["mismatch", "duplicate", "missing"],
    )
    def test_one_defect_makes_the_row_unclean(
        self, monkeypatch, printed, mismatches, duplicates, missing, repeated_bob, repeated_alice
    ):
        monkeypatch.setattr(audit_mod, "load_reference_table", lambda d: {BellIndex(0, 0): printed})
        table_audit = audit_reference_table(3, REFERENCE_CONVENTION)
        row = audited_row(table_audit, 0, 0)
        assert row.mismatches == mismatches
        assert row.duplicates == duplicates
        assert row.missing == missing
        assert row.repeated_bob == repeated_bob
        assert row.repeated_alice == repeated_alice
        assert not row.clean
        assert not table_audit.clean


class TestAuditD4:
    def test_internally_consistent(self):
        audit = audit_reference_table(4, REFERENCE_CONVENTION)
        assert audit.total_matches == 16
        assert audit.total_mismatches == 0
        assert audit.clean

    def test_listing_matches_reference_law_exactly(self):
        from hdbsm.decomposition import reference_index_law

        law = reference_index_law(4)
        rows = load_reference_table(4)
        for (k, m, kp, mp) in rows[BellIndex(2, 3)]:
            assert kp == (law.s * k + law.t * 2) % 4
            assert mp == (m + 3) % 4
