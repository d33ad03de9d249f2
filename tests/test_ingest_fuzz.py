"""Fuzz of the two CSV readers with random CSV text written to a file.

A survey file must end in finite screening statistics or a `ValidationError`
from the reader (`survey <path>: ...`) or the screening stage (`screen: ...`).
A decision-matrix file must end in finite entropy weights that sum to 1, a
reader error (`decision matrix <path>: ...`) or an entropy error about a
named column or the whole matrix.
"""
import dataclasses
import math
from pathlib import Path

import pytest

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from siteval import (
    Response,
    ValidationError,
    entropy_weights,
    ingest_survey,
    read_decision_matrix,
)
from siteval.core import SUM_TOL
from siteval.ingest import SURVEY_HEADER, _parse_survey
from siteval.pipeline import load_config, screen_stage

CONFIG = load_config(Path(__file__).parent / "fixtures" / "campus_bikeshare.json")
FUZZ = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

# Cells that trouble a reader: blanks, quoted cells with line breaks or commas,
# non-finite and huge numbers, negatives and stray separators.
AWKWARD = ["", " ", "nan", "inf", "-inf", "1e308", "-1", "-0", '"1\n2"', '"3,4"', ",", "x"]
awkward = st.sampled_from(AWKWARD) | st.text(alphabet='0123456789.-e,"\n x', max_size=6)


@st.composite
def _csv(draw, header, row, key):
    """CSV text of `header` and up to 12 rows with distinct `key`s, then up to
    three edits: a cell replaced, inserted or deleted, or a blank line added."""
    table = [header] + draw(st.lists(row, max_size=12, unique_by=key))
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(table) - 1))
        cells = table[i] = list(table[i])
        k = draw(st.integers(0, len(cells)))
        edit = draw(st.sampled_from(["replace", "insert", "delete", "blank line"]))
        if edit == "blank line":
            table.insert(i, [])
        elif edit == "insert" or k == len(cells):
            cells.insert(k, draw(awkward))
        elif edit == "replace":
            cells[k] = draw(awkward)
        else:
            del cells[k]
    return "\n".join(",".join(cells) for cells in table) + "\n"


def survey_texts():
    row = st.tuples(
        st.sampled_from(["C1", "C2", "C99"]),
        st.sampled_from(["e1", "e2", "e3", "u1", "u2"]),
        st.sampled_from(["expert", "end_user"]),
        st.sampled_from(["1", "3", "4", "5"]),
        st.sampled_from(["", "1", "5"]),
    )
    return _csv(list(SURVEY_HEADER), row, key=lambda r: r[:2])


def matrix_texts():
    row = st.tuples(
        st.sampled_from([f"S{k}" for k in range(12)]),
        *[st.sampled_from(["0", "1", "2.5", "7", "100", "1e308", "1e-320"])] * 3,
    )
    return _csv(["alternative", "X1", "X2", "X3"], row, key=lambda r: r[0])


@given(survey_texts())
@example("indicator,respondent,class,score\nC1,e1,expert,5\n")
@example('indicator,respondent,class,score\nC1,"e\n1",expert,5\nC1,e2,end_user,nan\n')
@FUZZ
def test_survey_reader_gives_finite_stats_or_a_named_error(tmp_path, text):
    path = tmp_path / "survey.csv"
    path.write_text(text, encoding="utf-8")
    try:
        section = screen_stage(CONFIG, ingest_survey(path, CONFIG.classes))
    except ValidationError as exc:
        assert str(exc).startswith((f"survey {path}: ", "screen: "))
        return
    for s in section.stats:
        figures = [s.mean, s.std_dev, s.cv, s.full_mark_rate]
        assert all(math.isfinite(v) for v in figures + [s.gcr or 0.0])


@given(matrix_texts())
@example("alternative,X1,X2\nS1,1e308,1\nS2,1e308,2\n")
@example("alternative,X1,X2\nS1,1,1\nS2,1,1\n")
@FUZZ
def test_matrix_reader_gives_weights_summing_to_one_or_a_named_error(tmp_path, text):
    path = tmp_path / "matrix.csv"
    path.write_text(text, encoding="utf-8")
    try:
        matrix = read_decision_matrix(path)
    except ValidationError as exc:
        assert str(exc).startswith(f"decision matrix {path}: ")
        return
    try:
        weights = entropy_weights(matrix)
    except ValidationError as exc:
        assert str(exc).startswith(
            ("degenerate indicator column ", "indicator column ", "no information content")
        )
        return
    values = weights.values(matrix.indicators)
    assert all(math.isfinite(w) for w in values)
    assert abs(sum(values) - 1.0) <= SUM_TOL


ids = st.text(st.characters(blacklist_categories=["Cs"]), min_size=1, max_size=4).filter(
    lambda t: t == t.strip()
)
padding = st.sampled_from(["", " ", "\t", " \n "])
records = st.tuples(
    ids,
    ids,
    st.sampled_from(["expert", "end_user"]),
    st.integers(1, 5),
    st.none() | st.integers(1, 5),
    st.lists(padding, min_size=10, max_size=10),
)


@given(st.lists(records, max_size=8, unique_by=lambda r: r[:2]), st.booleans())
@settings(max_examples=200, deadline=None)
def test_parsed_records_equal_responses_built_normally(drawn, four_columns):
    """The reader builds each `Response` without `__init__`; it must be the same record."""
    header = list(SURVEY_HEADER[:4] if four_columns else SURVEY_HEADER)
    rows = [(1, header)]
    expected = []
    for line_no, (ind, resp, cls, score, conf, pad) in enumerate(drawn, start=2):
        if four_columns:
            conf = None
        cells = [ind, resp, cls, str(score), "" if conf is None else str(conf)]
        rows.append((line_no, [pad[2 * k] + c + pad[2 * k + 1] for k, c in enumerate(cells)]))
        if four_columns:
            rows[-1][1].pop()
        expected.append(
            Response(respondent=resp, respondent_class=cls, indicator=ind, score=score,
                     confidence=conf)
        )
    parsed = _parse_survey(rows, CONFIG.classes, 1).responses
    assert len(parsed) == len(expected)
    for got, want in zip(parsed, expected):
        assert got == want
        assert hash(got) == hash(want)
        assert repr(got) == repr(want)
        assert list(vars(got).items()) == list(vars(want).items())
        with pytest.raises(dataclasses.FrozenInstanceError):
            got.score = 1  # type: ignore[misc]
