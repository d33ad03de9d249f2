"""File ingestion: survey response CSV and decision-matrix CSV.

Survey files carry one response per line with the header
`indicator,respondent,class,score,confidence`; the confidence column is
optional, and without it in the header a row has exactly four cells.
Decision matrices carry one alternative per line with `alternative` as the
first header field and indicator ids as the remaining ones. Every
error names the file it came from: `survey <path>: line N: ...` or
`decision matrix <path>: line N: ...`, where N is the file line the record
starts on.
"""
from __future__ import annotations

import csv
from pathlib import Path
from typing import Sequence

from .core import ValidationError, error_prefix, gc_paused
from .delphi import SCORE_MAX, SCORE_MIN, RespondentClass, Response, SurveyRound
from .entropy import DecisionMatrix

SURVEY_HEADER = ("indicator", "respondent", "class", "score", "confidence")
# The score and confidence tokens a survey holds; any other token takes `_scale_point`.
_SCALE = {str(s): s for s in range(SCORE_MIN, SCORE_MAX + 1)}


def _read_rows(path: str | Path) -> list[tuple[int, list[str]]]:
    """Every non-blank CSV record with the file line it starts on (a quoted cell
    may span lines)."""
    rows = []
    try:
        with Path(path).open(newline="", encoding="utf-8-sig") as fh:  # Excel writes a BOM
            reader = csv.reader(fh)
            start = 1
            for row in reader:
                if "".join(row).strip():  # some cell is not blank
                    rows.append((start, row))
                start = reader.line_num + 1
    except (FileNotFoundError, NotADirectoryError):
        raise ValidationError("file not found") from None
    except OSError as exc:
        raise ValidationError(f"cannot read: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"not UTF-8 text: {exc.reason}") from exc
    if not rows:
        raise ValidationError("empty file")
    return rows


def _scale_point(token: str, what: str, line_no: int) -> int:
    """`token`, stripped, as an int on the score scale, or an error that quotes it."""
    token = token.strip()
    try:
        value = int(token)
    except ValueError:
        raise ValidationError(f"line {line_no}: {what} must be an integer, got {token!r}") from None
    if not SCORE_MIN <= value <= SCORE_MAX:
        raise ValidationError(
            f"line {line_no}: {what} out of range {SCORE_MIN}-{SCORE_MAX}, got {value}"
        )
    return value


def ingest_survey(
    path: str | Path,
    classes: Sequence[RespondentClass],
    round_index: int = 1,
) -> SurveyRound:
    """Parse a survey CSV into a typed round, validating every field.

    Errors carry the path, the 1-based line number and the offending column
    so a bad row in a large file can be found immediately.
    """
    with error_prefix(f"survey {path}"), gc_paused():
        return _parse_survey(_read_rows(path), classes, round_index)


def _parse_survey(
    rows: list[tuple[int, list[str]]], classes: Sequence[RespondentClass], round_index: int
) -> SurveyRound:
    header = [h.strip().lower() for h in rows[0][1]]
    if tuple(header) not in (SURVEY_HEADER, SURVEY_HEADER[:4]):
        raise ValidationError(
            f"line {rows[0][0]}: expected header {','.join(SURVEY_HEADER)} (confidence optional), "
            f"got {','.join(header)}"
        )
    known = {c.label for c in classes}
    widths = (4, 5) if len(header) == 5 else (4,)  # without the column, no confidence cell

    # Each record is checked here, then built without the dataclass `__init__`
    # and `__post_init__`, whose checks the ones below repeat; so is the round.
    new_response = Response.__new__
    responses: list[Response] = []
    first_line: dict[tuple[str, str], int] = {}
    for line_no, row in rows[1:]:
        n = len(row)
        if n not in widths:
            raise ValidationError(
                f"line {line_no}: expected {' or '.join(map(str, widths))} columns, got {n}"
            )
        indicator = row[0].strip()
        respondent = row[1].strip()
        if not indicator or not respondent:
            raise ValidationError(f"line {line_no}: empty indicator or respondent id")
        cls = row[2].strip()
        if cls not in known:
            raise ValidationError(f"line {line_no}: unknown class label {cls!r}")
        score = _SCALE.get(row[3]) or _scale_point(row[3], "score", line_no)
        confidence: int | None = None
        if n == 5:
            confidence = _SCALE.get(row[4])
            if confidence is None and row[4].strip():
                confidence = _scale_point(row[4], "confidence", line_no)
        if (first := first_line.setdefault((respondent, indicator), line_no)) != line_no:
            raise ValidationError(
                f"line {line_no}: duplicate response for respondent {respondent!r} "
                f"on indicator {indicator!r} (first on line {first})"
            )
        response = new_response(Response)
        response.__dict__.update(
            respondent=respondent,
            respondent_class=cls,
            indicator=indicator,
            score=score,
            confidence=confidence,
        )
        responses.append(response)
    if round_index < 1:
        raise ValidationError("round_index must be a positive integer")
    survey = SurveyRound.__new__(SurveyRound)
    survey.__dict__.update(round_index=round_index, responses=tuple(responses))
    return survey


def read_decision_matrix(path: str | Path) -> DecisionMatrix:
    """Parse a decision-matrix CSV into typed non-negative observations."""
    with error_prefix(f"decision matrix {path}"), gc_paused():
        return _parse_decision_matrix(_read_rows(path))


def _parse_decision_matrix(rows: list[tuple[int, list[str]]]) -> DecisionMatrix:
    header = [h.strip() for h in rows[0][1]]
    if header[0].lower() != "alternative" or len(header) < 2:
        raise ValidationError(
            f"line {rows[0][0]}: expected header starting with 'alternative' "
            "followed by indicator ids"
        )
    indicators = tuple(header[1:])
    if "" in indicators:
        raise ValidationError(
            f"line {rows[0][0]}: column {indicators.index('') + 2}: empty indicator id"
        )

    alternatives: list[str] = []
    values: list[tuple[float, ...]] = []
    for line_no, row in rows[1:]:
        if len(row) != len(header):
            raise ValidationError(
                f"line {line_no}: expected {len(header)} columns, got {len(row)}"
            )
        alternative = row[0].strip()
        if not alternative:
            raise ValidationError(f"line {line_no}: empty alternative id")
        alternatives.append(alternative)
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
