import re

import pytest

from siteval import (
    RespondentClass,
    ValidationError,
    ingest_survey,
    read_decision_matrix,
)

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

    def test_header_must_start_with_alternative(self, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("station,X1\nS1,1\n")
        with pytest.raises(ValidationError, match="alternative"):
            read_decision_matrix(p)
