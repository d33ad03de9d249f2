import errno
import os
import re

import pytest

from siteval import (
    RespondentClass,
    ValidationError,
    ingest_survey,
    load_config,
    read_decision_matrix,
)
from siteval.config import read_weight_file

CLASSES = (RespondentClass("expert", 0.8), RespondentClass("end_user", 0.2))

HEADER = "indicator,respondent,class,score,confidence\n"


def _write(tmp_path, body, name="survey.csv"):
    p = tmp_path / name
    p.write_text(HEADER + body, encoding="utf-8")
    return p


class TestIngestSurvey:
    def test_row_parses_to_typed_response(self, tmp_path):
        path = _write(tmp_path, "C3,r07,expert,4,5\n")
        survey = ingest_survey(path, CLASSES)
        (resp,) = survey.responses
        assert resp.indicator == "C3"
        assert resp.respondent == "r07"
        assert resp.respondent_class == "expert"
        assert resp.score == 4
        assert resp.confidence == 5

    def test_confidence_is_optional(self, tmp_path):
        path = _write(tmp_path, "C3,r07,expert,4,\nC3,r08,end_user,3,\n")
        survey = ingest_survey(path, CLASSES)
        assert all(r.confidence is None for r in survey.responses)

    def test_four_column_header_accepted(self, tmp_path):
        p = tmp_path / "short.csv"
        p.write_text("indicator,respondent,class,score\nC1,r01,expert,5\n")
        survey = ingest_survey(p, CLASSES)
        assert survey.responses[0].score == 5

    def test_score_out_of_range_reports_line(self, tmp_path):
        path = _write(tmp_path, "C3,r07,expert,4,5\nC3,r08,expert,6,5\n")
        with pytest.raises(ValidationError, match="line 3: score out of range 1-5"):
            ingest_survey(path, CLASSES)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("C3,r07,expert, x ,5\n", "score must be an integer, got 'x'"),
            ("C3,r07,expert,4, y \n", "confidence must be an integer, got 'y'"),
        ],
    )
    def test_integer_errors_quote_the_stripped_token(self, tmp_path, body, message):
        path = _write(tmp_path, body)
        with pytest.raises(ValidationError) as info:
            ingest_survey(path, CLASSES)
        assert str(info.value) == f"survey {path}: line 2: {message}"

    def test_duplicate_response_rejected(self, tmp_path):
        path = _write(tmp_path, "C3,r07,expert,4,5\nC3,r07,expert,5,5\n")
        with pytest.raises(ValidationError, match="duplicate response"):
            ingest_survey(path, CLASSES)

    def test_unknown_class_reports_line(self, tmp_path):
        path = _write(tmp_path, "C3,r07,visitor,4,5\n")
        with pytest.raises(ValidationError, match="line 2: unknown class label 'visitor'"):
            ingest_survey(path, CLASSES)

    def test_malformed_row_reports_line(self, tmp_path):
        path = _write(tmp_path, "C3,r07\n")
        with pytest.raises(ValidationError, match="line 2"):
            ingest_survey(path, CLASSES)

    def test_bad_header_rejected(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValidationError, match="header"):
            ingest_survey(p, CLASSES)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ValidationError, match="not found"):
            ingest_survey(tmp_path / "nope.csv", CLASSES)

    def test_errors_name_the_survey_file(self, tmp_path):
        path = _write(tmp_path, "C3,r07,alien,4,5\n", name="bad.csv")
        with pytest.raises(ValidationError) as info:
            ingest_survey(path, CLASSES)
        assert str(info.value) == f"survey {path}: line 2: unknown class label 'alien'"
        missing = tmp_path / "nope.csv"
        with pytest.raises(ValidationError, match=f"^survey {re.escape(str(missing))}: file not found$"):
            ingest_survey(missing, CLASSES)

    def test_line_numbers_count_file_lines(self, tmp_path):
        # The second record's quoted respondent id spans file lines 2 and 3.
        path = _write(tmp_path, 'C3,"r07\nlate",expert,4,5\nC3,r08,alien,4,5\n')
        with pytest.raises(ValidationError) as info:
            ingest_survey(path, CLASSES)
        assert str(info.value) == f"survey {path}: line 4: unknown class label 'alien'"

    def test_fixture_round_parses(self, fixture_dir):
        survey = ingest_survey(fixture_dir / "survey_round2.csv", CLASSES)
        assert len(survey.responses) == 30
        assert {r.indicator for r in survey.responses} == {"C1", "C2", "C3"}

    def test_utf8_bom_is_skipped(self, tmp_path):
        # Excel's "CSV UTF-8" export starts the file with a byte-order mark.
        body = "C3,r07,expert,4,5\nC3,r08,end_user,3,\n"
        marked = tmp_path / "bom.csv"
        marked.write_text("\ufeff" + HEADER + body, encoding="utf-8")
        assert ingest_survey(marked, CLASSES) == ingest_survey(_write(tmp_path, body), CLASSES)
        marked.write_text("\ufeff" + HEADER + body + "C3,r09,alien,4,5\n", encoding="utf-8")
        with pytest.raises(ValidationError) as info:
            ingest_survey(marked, CLASSES)
        assert str(info.value) == f"survey {marked}: line 4: unknown class label 'alien'"


class TestReadDecisionMatrix:
    def test_fixture_parses(self, fixture_dir):
        m = read_decision_matrix(fixture_dir / "decision_small.csv")
        assert m.alternatives == ("S1", "S2", "S3")
        assert m.indicators == ("X1", "X2")
        assert tuple(m.values[0]) == (2.0, 1.0)

    def test_negative_entry_rejected(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("alternative,X1\nS1,-1\nS2,2\n")
        with pytest.raises(ValidationError, match="negative"):
            read_decision_matrix(p)

    @pytest.mark.parametrize("token", ["inf", "nan", "-inf"])
    def test_non_finite_entry_rejected(self, tmp_path, token):
        p = tmp_path / "m.csv"
        p.write_text(f"alternative,X1,X2\nS1,1,{token}\nS2,2,3\n")
        with pytest.raises(ValidationError, match=r"\(S1, X2\): non-finite value"):
            read_decision_matrix(p)

    def test_non_numeric_cell_reports_position(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("alternative,X1\nS1,abc\nS2,2\n")
        with pytest.raises(ValidationError, match="line 2, column 'X1'"):
            read_decision_matrix(p)

    def test_errors_name_the_matrix_file(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("alternative,X1\nS1,abc\nS2,2\n")
        with pytest.raises(ValidationError) as info:
            read_decision_matrix(p)
        assert str(info.value) == f"decision matrix {p}: line 2, column 'X1': not a number: 'abc'"

    def test_line_numbers_count_file_lines(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text('alternative,X1\nA,1\n"B\nb",2\nC,x\n')
        with pytest.raises(ValidationError) as info:
            read_decision_matrix(p)
        assert str(info.value) == f"decision matrix {p}: line 5, column 'X1': not a number: 'x'"

    def test_utf8_bom_is_skipped(self, tmp_path, fixture_dir):
        plain = fixture_dir / "decision_small.csv"
        p = tmp_path / "m.csv"
        p.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        m, expected = read_decision_matrix(p), read_decision_matrix(plain)
        assert (m.alternatives, m.indicators) == (expected.alternatives, expected.indicators)
        assert m.values.tolist() == expected.values.tolist()
        p.write_text("\ufeffalternative,X1\nS1,1\nS2,x\n", encoding="utf-8")
        with pytest.raises(ValidationError) as info:
            read_decision_matrix(p)
        assert str(info.value) == f"decision matrix {p}: line 3, column 'X1': not a number: 'x'"

    @pytest.mark.parametrize(
        "text, message",
        [
            (
                "alternative,X1,X1\nA,1,2\nB,3,4\n",
                "decision matrix: duplicate indicator id 'X1'",
            ),
            (
                "alternative,X1,X2\nA,1,2\nA,3,4\n",
                "decision matrix: duplicate alternative id 'A'",
            ),
        ],
        ids=["indicator", "alternative"],
    )
    def test_repeated_id_is_named(self, tmp_path, text, message):
        p = tmp_path / "m.csv"
        p.write_text(text)
        with pytest.raises(ValidationError) as info:
            read_decision_matrix(p)
        assert str(info.value) == f"decision matrix {p}: {message}"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("alternative,X1,\nA,1,2\nB,3,4\n", "line 1: column 3: empty indicator id"),
            ("alternative, ,X2\nA,1,2\nB,3,4\n", "line 1: column 2: empty indicator id"),
            ("alternative,X1,X2\nA,1,2\n\n ,3,4\n", "line 4: empty alternative id"),
        ],
        ids=["indicator", "blank-indicator", "alternative"],
    )
    def test_empty_id_is_named(self, tmp_path, text, message):
        p = tmp_path / "m.csv"
        p.write_text(text)
        with pytest.raises(ValidationError) as info:
            read_decision_matrix(p)
        assert str(info.value) == f"decision matrix {p}: {message}"

    def test_header_must_start_with_alternative(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("station,X1\nS1,1\n")
        with pytest.raises(ValidationError, match="alternative"):
            read_decision_matrix(p)


# Each file reader, with its "not found" and its "cannot read" message for a path p.
READERS = [
    (load_config, "config file not found: {p}", "config file {p}: cannot read: {reason}"),
    (read_weight_file, "weight file not found: {p}", "weight file {p}: cannot read: {reason}"),
    (
        lambda p: ingest_survey(p, CLASSES),
        "survey {p}: file not found",
        "survey {p}: cannot read: {reason}",
    ),
    (
        read_decision_matrix,
        "decision matrix {p}: file not found",
        "decision matrix {p}: cannot read: {reason}",
    ),
]
READER_IDS = ["config", "weights", "survey", "decision-matrix"]


class TestReaderPaths:
    """A path that names no file, or names a directory, keeps each reader's message."""

    @pytest.mark.parametrize("read, missing, _", READERS, ids=READER_IDS)
    def test_missing_file(self, tmp_path, read, missing, _):
        p = tmp_path / "nope"
        with pytest.raises(ValidationError) as info:
            read(p)
        assert str(info.value) == missing.format(p=p)

    @pytest.mark.parametrize("read, missing, _", READERS, ids=READER_IDS)
    def test_path_below_a_file(self, tmp_path, read, missing, _):
        (tmp_path / "file").write_text("{}")
        p = tmp_path / "file" / "nope"
        with pytest.raises(ValidationError) as info:
            read(p)
        assert str(info.value) == missing.format(p=p)

    @pytest.mark.parametrize("read, _, unreadable", READERS, ids=READER_IDS)
    def test_directory(self, tmp_path, read, _, unreadable):
        with pytest.raises(ValidationError) as info:
            read(tmp_path)
        assert str(info.value) == unreadable.format(p=tmp_path, reason=os.strerror(errno.EISDIR))
