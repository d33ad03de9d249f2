"""Survey round statistics and indicator screening.

A panel of respondents (planning experts and end users, with different scoring
weights) rates candidate indicators on a 1-5 scale over consultation rounds.
Per indicator this module computes the mean, sample standard deviation,
coefficient of variation, class-weighted full-mark rate and group confidence
rating, then applies threshold screening to keep the indicators the panel
agrees matter.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import ValidationError, check_real, first_repeat, float_sum

SCORE_MIN = 1
SCORE_MAX = 5

# A "full mark" is a score of 4 or 5.
FULL_MARK_MIN = 4


@dataclass(frozen=True)
class RespondentClass:
    """A respondent category and its scoring weight for the full-mark rate."""

    label: str
    score_weight: float

    def __post_init__(self) -> None:
        check_real(self.score_weight, f"class {self.label!r}: score_weight")
        if not 0.0 < self.score_weight <= 1.0:
            raise ValidationError(
                f"class {self.label!r}: score_weight must be in (0, 1], got {self.score_weight}"
            )


@dataclass(frozen=True)
class Response:
    respondent: str
    respondent_class: str
    indicator: str
    score: int
    confidence: int | None = None

    def __post_init__(self) -> None:
        if not SCORE_MIN <= self.score <= SCORE_MAX:
            raise ValidationError(
                f"response ({self.respondent!r}, {self.indicator!r}): "
                f"score out of range {SCORE_MIN}-{SCORE_MAX}"
            )
        if self.confidence is not None and not SCORE_MIN <= self.confidence <= SCORE_MAX:
            raise ValidationError(
                f"response ({self.respondent!r}, {self.indicator!r}): "
                f"confidence out of range {SCORE_MIN}-{SCORE_MAX}"
            )


@dataclass(frozen=True)
class SurveyRound:
    """One consultation round: at most one response per (respondent, indicator)."""

    round_index: int
    responses: tuple[Response, ...]

    def __post_init__(self) -> None:
        if self.round_index < 1:
            raise ValidationError("round_index must be a positive integer")
        object.__setattr__(self, "responses", tuple(self.responses))
        seen: set[tuple[str, str]] = set()
        for r in self.responses:
            key = (r.respondent, r.indicator)
            if key in seen:
                raise ValidationError(
                    f"duplicate response for respondent {r.respondent!r} "
                    f"on indicator {r.indicator!r}"
                )
            seen.add(key)


@dataclass(frozen=True)
class IndicatorStats:
    """Round statistics for one indicator."""

    indicator: str
    mean: float
    std_dev: float
    cv: float
    full_mark_rate: float
    respondent_count: int
    gcr: float | None = None

    def __post_init__(self) -> None:
        if not SCORE_MIN <= self.mean <= SCORE_MAX:
            raise ValidationError(
                f"stats {self.indicator!r}: mean {self.mean} outside [{SCORE_MIN}, {SCORE_MAX}]"
            )
        if self.std_dev < 0 or self.cv < 0:
            raise ValidationError(f"stats {self.indicator!r}: negative dispersion")
        if abs(self.cv - self.std_dev / self.mean) > 1e-12:
            raise ValidationError(
                f"stats {self.indicator!r}: cv must equal std_dev / mean"
            )
        if not 0.0 <= self.full_mark_rate <= 1.0:
            raise ValidationError(
                f"stats {self.indicator!r}: full_mark_rate outside [0, 1]"
            )


@dataclass(frozen=True)
class ScreeningCriteria:
    """Thresholds for keeping an indicator. Comparisons are strict."""

    min_mean: float = 3.5
    min_full_mark_rate: float = 0.5
    max_cv: float = 0.25
    min_gcr: float | None = 3.0
    overrides: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        for name in ("min_mean", "min_full_mark_rate", "max_cv", "min_gcr"):
            value = getattr(self, name)
            if name == "min_gcr" and value is None:
                continue
            check_real(value, f"screening threshold {name}")
            if not math.isfinite(value):
                raise ValidationError(f"screening threshold {name} must be finite")
        # frozenset("C1") is {'C', '1'}, so a lone str or bytes is no collection of ids.
        ids = self.overrides
        if not isinstance(ids, (str, bytes)) and isinstance(ids, Iterable):
            ids = tuple(ids)
            if all(isinstance(i, str) for i in ids):
                object.__setattr__(self, "overrides", frozenset(ids))
                return
        raise ValidationError(
            f"screening overrides: expected a collection of ids, got {self.overrides!r}"
        )


@dataclass(frozen=True)
class ScreeningDecision:
    indicator: str
    status: str  # selected | rejected | overridden
    failed: tuple[str, ...] = ()


@dataclass(frozen=True)
class ScreeningResult:
    selected: tuple[ScreeningDecision, ...]
    rejected: tuple[ScreeningDecision, ...]
    overridden: tuple[ScreeningDecision, ...]


def round_statistics(
    survey_round: SurveyRound, classes: Sequence[RespondentClass]
) -> list[IndicatorStats]:
    """Per-indicator statistics for one round, in first-appearance order.

    The mean and the sample standard deviation (n - 1 divisor) are unweighted
    over all respondents. The full-mark rate weights both counts by class,
    sum_k w_k * full_k / sum_k w_k * n_k over the classes in first-appearance
    order, so it is the plain share of full marks when all weights are equal.
    The group confidence rating is the unweighted mean of the reported
    confidence scores, or None when nobody reported one.
    """
    weight_of = {c.label: c.score_weight for c in classes}
    by_indicator: dict[str, list[Response]] = {}
    for r in survey_round.responses:
        if r.respondent_class not in weight_of:
            raise ValidationError(
                f"response ({r.respondent!r}, {r.indicator!r}): "
                f"unknown class label {r.respondent_class!r}"
            )
        by_indicator.setdefault(r.indicator, []).append(r)

    out: list[IndicatorStats] = []
    for ind, responses in by_indicator.items():
        d = len(responses)
        if d < 2:
            raise ValidationError(f"insufficient responses for indicator {ind!r}")
        scores = [r.score for r in responses]
        mean = sum(scores) / d
        var = float_sum((s - mean) ** 2 for s in scores) / (d - 1)
        std = math.sqrt(var)
        cv = std / mean

        if len(weight_of) < len(classes):  # checked where the first rate is taken
            raise ValidationError(
                f"duplicate respondent class {first_repeat(c.label for c in classes)!r}"
            )
        maxed: dict[str, int] = {}
        totals: dict[str, int] = {}
        for r in responses:
            totals[r.respondent_class] = totals.get(r.respondent_class, 0) + 1
            if r.score >= FULL_MARK_MIN:
                maxed[r.respondent_class] = maxed.get(r.respondent_class, 0) + 1
        numer = denom = 0.0
        for label, total in totals.items():
            numer += weight_of[label] * maxed.get(label, 0)
            denom += weight_of[label] * total
        rate = numer / denom  # > 0: d >= 2 and every score_weight is > 0

        confidences = [r.confidence for r in responses if r.confidence is not None]
        gcr = sum(confidences) / len(confidences) if confidences else None

        out.append(
            IndicatorStats(
                indicator=ind,
                mean=mean,
                std_dev=std,
                cv=cv,
                full_mark_rate=rate,
                respondent_count=d,
                gcr=gcr,
            )
        )
    return out


def _failed_conditions(stats: IndicatorStats, criteria: ScreeningCriteria) -> tuple[str, ...]:
    failed: list[str] = []
    if not stats.mean > criteria.min_mean:
        failed.append(f"mean ≤ {criteria.min_mean:g}")
    if not stats.full_mark_rate > criteria.min_full_mark_rate:
        failed.append(f"full_mark_rate ≤ {criteria.min_full_mark_rate:g}")
    if not stats.cv < criteria.max_cv:
        failed.append(f"cv ≥ {criteria.max_cv:g}")
    if criteria.min_gcr is not None and stats.gcr is not None:
        if not stats.gcr > criteria.min_gcr:
            failed.append(f"gcr ≤ {criteria.min_gcr:g}")
    return tuple(failed)


def screen(
    stats: Sequence[IndicatorStats], criteria: ScreeningCriteria
) -> ScreeningResult:
    """Partition indicators into selected / rejected / overridden.

    An indicator is selected when it strictly clears every threshold. An
    override keeps an indicator that failed, recording which conditions it
    failed; an override on an indicator that passes strictly is a no-op.
    """
    if not stats:
        raise ValidationError("no indicator statistics to screen")
    selected: list[ScreeningDecision] = []
    rejected: list[ScreeningDecision] = []
    overridden: list[ScreeningDecision] = []
    for s in stats:
        failed = _failed_conditions(s, criteria)
        if not failed:
            selected.append(ScreeningDecision(s.indicator, "selected"))
        elif s.indicator in criteria.overrides:
            overridden.append(ScreeningDecision(s.indicator, "overridden", failed))
        else:
            rejected.append(ScreeningDecision(s.indicator, "rejected", failed))
    return ScreeningResult(tuple(selected), tuple(rejected), tuple(overridden))
