"""File ingestion: survey response CSV and decision-matrix CSV.

Survey files carry one response per line with the header
`indicator,respondent,class,score,confidence`; the confidence column is
optional. Decision matrices carry one alternative per line with `alternative`
as the first header field and indicator ids as the remaining ones. Every
error names the file it came from: `survey <path>: line N: ...` or
`decision matrix <path>: line N: ...`.
"""
from __future__ import annotations

import csv
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Sequence

from .core import ValidationError
from .delphi import RespondentClass, Response, SurveyRound
from .entropy import DecisionMatrix

SURVEY_HEADER = ("indicator", "respondent", "class", "score", "confidence")


@contextmanager
def _naming(what: str, path: str | Path) -> Iterator[None]:
    """Prefix validation errors with the kind of file and its path."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"{what} {path}: {exc}") from exc


def _read_rows(path: str | Path) -> list[list[str]]:
    p = Path(path)
    if not p.exists():
        raise ValidationError("file not found")
    with p.open(newline="", encoding="utf-8") as fh:
        rows = [row for row in csv.reader(fh)]
    if not rows:
        raise ValidationError("empty file")
    return rows


def _parse_int(token: str, what: str, line_no: int) -> int:
    try:
        return int(token.strip())
    except ValueError:
        raise ValidationError(f"line {line_no}: {what} must be an integer, got {token!r}") from None


def ingest_survey(
    path: str | Path,
    classes: Sequence[RespondentClass],
    round_index: int = 1,
) -> SurveyRound:
    """Parse a survey CSV into a typed round, validating every field.

    Errors carry the path, the 1-based line number and the offending column
    so a bad row in a large file can be found immediately.
    """
    with _naming("survey", path):
        return _parse_survey(_read_rows(path), classes, round_index)


def _parse_survey(
    rows: list[list[str]], classes: Sequence[RespondentClass], round_index: int
) -> SurveyRound:
    header = [h.strip().lower() for h in rows[0]]
    if tuple(header) not in (SURVEY_HEADER, SURVEY_HEADER[:4]):
        raise ValidationError(
            f"line 1: expected header {','.join(SURVEY_HEADER)} (confidence optional), "
            f"got {','.join(header)}"
        )
    known = {c.label for c in classes}

    responses: list[Response] = []
    for line_no, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) not in (4, 5):
            raise ValidationError(
                f"line {line_no}: expected 4 or 5 columns, got {len(row)}"
            )
        indicator, respondent, cls, score_tok = (cell.strip() for cell in row[:4])
        if not indicator or not respondent:
            raise ValidationError(f"line {line_no}: empty indicator or respondent id")
        if cls not in known:
            raise ValidationError(f"line {line_no}: unknown class label {cls!r}")
        score = _parse_int(score_tok, "score", line_no)
        if not 1 <= score <= 5:
            raise ValidationError(f"line {line_no}: score out of range 1-5, got {score}")
        confidence: int | None = None
        if len(row) == 5 and row[4].strip():
            confidence = _parse_int(row[4], "confidence", line_no)
            if not 1 <= confidence <= 5:
                raise ValidationError(
                    f"line {line_no}: confidence out of range 1-5, got {confidence}"
                )
        responses.append(
            Response(
                respondent=respondent,
                respondent_class=cls,
                indicator=indicator,
                score=score,
                confidence=confidence,
            )
        )
    return SurveyRound(round_index=round_index, responses=tuple(responses))


def read_decision_matrix(path: str | Path) -> DecisionMatrix:
    """Parse a decision-matrix CSV into typed non-negative observations."""
    with _naming("decision matrix", path):
        return _parse_decision_matrix(_read_rows(path))


def _parse_decision_matrix(rows: list[list[str]]) -> DecisionMatrix:
    header = [h.strip() for h in rows[0]]
    if not header or header[0].lower() != "alternative" or len(header) < 2:
        raise ValidationError(
            "line 1: expected header starting with 'alternative' followed by indicator ids"
        )
    indicators = tuple(header[1:])

    alternatives: list[str] = []
    values: list[tuple[float, ...]] = []
    for line_no, row in enumerate(rows[1:], start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        if len(row) != len(header):
            raise ValidationError(
                f"line {line_no}: expected {len(header)} columns, got {len(row)}"
            )
        alternatives.append(row[0].strip())
        parsed: list[float] = []
        for ind, cell in zip(indicators, row[1:]):
            try:
                parsed.append(float(cell))
            except ValueError:
                raise ValidationError(
                    f"line {line_no}, column {ind!r}: not a number: {cell!r}"
                ) from None
        values.append(tuple(parsed))
    return DecisionMatrix(
        alternatives=tuple(alternatives), indicators=indicators, values=tuple(values)
    )
