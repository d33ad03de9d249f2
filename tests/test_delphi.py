import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siteval import (
    IndicatorStats,
    RespondentClass,
    Response,
    ScreeningCriteria,
    SurveyRound,
    ValidationError,
    round_statistics,
    screen,
)

EXPERT = RespondentClass("expert", 0.8)
END_USER = RespondentClass("end_user", 0.2)
CLASSES = (EXPERT, END_USER)
RESIDENT = RespondentClass("resident", 0.35)


def _weighted_full_mark_rate(responses, weights):
    """Reference rate: sum_k w_k * full_k / sum_k w_k * n_k, over the classes in
    the order they first appear, a full mark being a score of 4 or 5."""
    full: dict[str, int] = {}
    count: dict[str, int] = {}
    for label, score in responses:
        count[label] = count.get(label, 0) + 1
        full[label] = full.get(label, 0) + (score >= 4)
    numer = denom = 0.0
    for label in count:
        numer += weights[label] * full[label]
        denom += weights[label] * count[label]
    return numer / denom


def _round(scores_by_class: dict[str, list[int]], indicator="C1", confidences=None):
    responses = []
    i = 0
    for label, scores in scores_by_class.items():
        for s in scores:
            conf = confidences[i] if confidences else None
            responses.append(Response(f"r{i:02d}", label, indicator, s, conf))
            i += 1
    return SurveyRound(round_index=2, responses=tuple(responses))


def _rate(scores_by_class, classes=CLASSES):
    (stats,) = round_statistics(_round(scores_by_class), classes)
    return stats.full_mark_rate


def _stats(indicator, mean, cv, rate, gcr=4.0, count=10):
    return IndicatorStats(
        indicator=indicator,
        mean=mean,
        std_dev=mean * cv,
        cv=cv,
        full_mark_rate=rate,
        respondent_count=count,
        gcr=gcr,
    )


def _ids(decisions):
    return tuple(d.indicator for d in decisions)


class TestRoundStatistics:
    def test_ten_scores_mean_std_cv(self):
        # (5,5,4,4,4,4,4,4,3,3): squared deviations sum to 4, divisor 9.
        rnd = _round({"expert": [5, 5, 4, 4, 4], "end_user": [4, 4, 4, 3, 3]})
        (stats,) = round_statistics(rnd, CLASSES)
        assert stats.mean == pytest.approx(4.0, abs=1e-12)
        assert stats.std_dev == pytest.approx(math.sqrt(4 / 9), abs=1e-12)
        assert stats.std_dev == pytest.approx(0.6667, abs=1e-4)
        assert stats.cv == pytest.approx(0.1667, abs=1e-4)
        assert stats.respondent_count == 10

    def test_variance_adds_left_to_right(self):
        # The bundled survey's C2 scores, in file order. The exact (or compensated,
        # as the builtin `sum` adds from Python 3.12) sum of the squared deviations
        # gives 0.5163977794943222; the golden reports hold ...223.
        rnd = _round({"expert": [4, 4, 3, 3, 3], "end_user": [4, 4, 4, 4, 3]})
        (stats,) = round_statistics(rnd, CLASSES)
        assert stats.std_dev == 0.5163977794943223

    def test_constant_sample(self):
        rnd = _round({"expert": [4, 4], "end_user": [4, 4]})
        (stats,) = round_statistics(rnd, CLASSES)
        assert stats.mean == 4.0
        assert stats.std_dev == 0.0
        assert stats.cv == 0.0

    def test_insufficient_responses_names_indicator(self):
        rnd = SurveyRound(1, (Response("r0", "expert", "C7", 4),))
        with pytest.raises(ValidationError, match="insufficient responses.*C7"):
            round_statistics(rnd, CLASSES)

    def test_unknown_class_rejected(self):
        rnd = SurveyRound(
            1,
            (
                Response("r0", "visitor", "C1", 4),
                Response("r1", "visitor", "C1", 4),
            ),
        )
        with pytest.raises(ValidationError, match="unknown class"):
            round_statistics(rnd, CLASSES)

    def test_gcr_is_mean_of_confidences(self):
        rnd = _round(
            {"expert": [5, 4], "end_user": [4, 3]}, confidences=[5, 4, 4, 3]
        )
        (stats,) = round_statistics(rnd, CLASSES)
        assert stats.gcr == pytest.approx(4.0, abs=1e-12)

    def test_gcr_absent_without_confidences(self):
        rnd = _round({"expert": [5, 4], "end_user": [4, 3]})
        (stats,) = round_statistics(rnd, CLASSES)
        assert stats.gcr is None

    def test_full_mark_rate_uses_class_weights(self):
        # Experts 5/5 scored >= 4, users 0/5: (0.8*5 + 0) / (0.8*5 + 0.2*5) = 0.8.
        rnd = _round({"expert": [5, 5, 4, 4, 4], "end_user": [3, 3, 3, 3, 3]})
        (stats,) = round_statistics(rnd, CLASSES)
        assert stats.full_mark_rate == pytest.approx(0.80, abs=1e-12)

    def test_duplicate_class_raises_where_the_first_rate_is_taken(self):
        twice = (EXPERT, END_USER, RespondentClass("expert", 0.5))
        assert round_statistics(SurveyRound(1, ()), twice) == []
        with pytest.raises(ValidationError, match="^insufficient responses for indicator 'C7'$"):
            round_statistics(SurveyRound(1, (Response("r0", "expert", "C7", 4),)), twice)
        with pytest.raises(ValidationError, match="unknown class label 'visitor'$"):
            round_statistics(SurveyRound(1, (Response("r0", "visitor", "C7", 4),)), twice)
        with pytest.raises(ValidationError, match="^duplicate respondent class 'expert'$"):
            round_statistics(_round({"expert": [5, 4], "end_user": [4]}), twice)

    @given(
        st.lists(
            st.lists(
                st.tuples(st.sampled_from(("expert", "end_user", "resident")), st.integers(1, 5)),
                min_size=2,
                max_size=12,
            ),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_each_rate_equals_weighted_full_mark_rate(self, per_indicator):
        # Three classes, interleaved: with three terms the order of the sums shows.
        classes = (EXPERT, END_USER, RESIDENT)
        responses = [
            Response(f"r{i:02d}", label, f"C{k}", score)
            for k, rows in enumerate(per_indicator)
            for i, (label, score) in enumerate(rows)
        ]
        stats = round_statistics(SurveyRound(1, tuple(responses)), classes)
        assert [s.indicator for s in stats] == [f"C{k}" for k in range(len(per_indicator))]
        weights = {c.label: c.score_weight for c in classes}
        for s, rows in zip(stats, per_indicator):
            assert repr(s.full_mark_rate) == repr(_weighted_full_mark_rate(rows, weights))


class TestWeightedFullMarkRate:
    def test_experts_only_scoring_high(self):
        # (0.8*4 + 0) / (0.8*5 + 0.2*5) = 0.64.
        rate = _rate({"expert": [5, 5, 4, 4, 3], "end_user": [3, 3, 3, 3, 3]})
        assert rate == pytest.approx(0.64, abs=1e-12)

    def test_uniform_weights_reduce_to_plain_ratio(self):
        classes = (RespondentClass("a", 0.5), RespondentClass("b", 0.5))
        rate = _rate({"a": [4, 4, 5, 3, 1], "b": [5, 4, 3, 2, 1]}, classes)
        assert rate == pytest.approx(0.5, abs=1e-12)

    def test_all_experts_max(self):
        rate = _rate({"expert": [5, 5, 5, 5, 5], "end_user": [1, 2, 3, 3, 3]})
        assert rate == pytest.approx(0.80, abs=1e-12)

    @given(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=40)
    def test_monotone_in_max_scorers(self, base, users):
        def rate(experts):
            return _rate(
                {
                    "expert": [4] * experts + [3] * (5 - experts),
                    "end_user": [5] * users + [2] * (5 - users),
                }
            )

        assert rate(base + 1) >= rate(base)


class TestScreen:
    def test_passing_indicator_selected(self):
        result = screen([_stats("C1", 4.5, 0.149, 0.64)], ScreeningCriteria())
        assert _ids(result.selected) == ("C1",)
        assert result.selected[0].failed == ()

    def test_low_full_mark_rate_rejected_with_reason(self):
        result = screen([_stats("X1", 3.6, 0.184, 0.32)], ScreeningCriteria())
        assert _ids(result.rejected) == ("X1",)
        assert result.rejected[0].failed == ("full_mark_rate ≤ 0.5",)

    def test_override_keeps_failing_indicator_with_reasons(self):
        criteria = ScreeningCriteria(overrides=frozenset({"C4"}))
        result = screen([_stats("C4", 3.4, 0.270, 0.80)], criteria)
        assert _ids(result.overridden) == ("C4",)
        assert set(result.overridden[0].failed) == {"mean ≤ 3.5", "cv ≥ 0.25"}

    def test_override_on_passing_indicator_is_noop(self):
        criteria = ScreeningCriteria(overrides=frozenset({"C1"}))
        result = screen([_stats("C1", 4.5, 0.149, 0.64)], criteria)
        assert _ids(result.selected) == ("C1",)
        assert result.overridden == ()

    def test_gcr_threshold_is_strict(self):
        result = screen([_stats("C1", 4.5, 0.1, 0.8, gcr=3.0)], ScreeningCriteria())
        assert _ids(result.rejected) == ("C1",)
        assert result.rejected[0].failed == ("gcr ≤ 3",)

    def test_gcr_skipped_when_absent(self):
        result = screen([_stats("C1", 4.5, 0.1, 0.8, gcr=None)], ScreeningCriteria())
        assert _ids(result.selected) == ("C1",)

    def test_empty_stats_rejected(self):
        with pytest.raises(ValidationError):
            screen([], ScreeningCriteria())

    @pytest.mark.parametrize(
        "overrides",
        ["C1", b"C1", None, 5, [1, 2], ("C1", b"C2")],
        ids=["str", "bytes", "none", "int", "int-ids", "bytes-id"],
    )
    def test_overrides_given_as_one_string_rejected(self, overrides):
        # frozenset("C1") would be {'C', '1'}, which keeps no indicator C1; an
        # id that is not a str could never equal an indicator id.
        with pytest.raises(ValidationError) as info:
            ScreeningCriteria(overrides=overrides)
        assert str(info.value) == (
            f"screening overrides: expected a collection of ids, got {overrides!r}"
        )

    @given(st.permutations(range(6)))
    @settings(max_examples=30)
    def test_order_independent_partition(self, order):
        pool = [
            _stats("A", 4.5, 0.10, 0.9),
            _stats("B", 3.0, 0.10, 0.9),
            _stats("C", 4.0, 0.30, 0.9),
            _stats("D", 4.0, 0.10, 0.4),
            _stats("E", 4.2, 0.20, 0.7),
            _stats("F", 3.6, 0.24, 0.52),
        ]
        criteria = ScreeningCriteria(overrides=frozenset({"C"}))
        base = screen(pool, criteria)
        shuffled = screen([pool[i] for i in order], criteria)
        assert set(_ids(base.selected)) == set(_ids(shuffled.selected))
        assert set(_ids(base.rejected)) == set(_ids(shuffled.rejected))
        assert set(_ids(base.overridden)) == set(_ids(shuffled.overridden))


class TestSurveyRoundInvariants:
    def test_duplicate_response_rejected(self):
        with pytest.raises(ValidationError, match="duplicate response"):
            SurveyRound(
                1,
                (
                    Response("r0", "expert", "C1", 4),
                    Response("r0", "expert", "C1", 5),
                ),
            )

    def test_score_out_of_range_rejected(self):
        with pytest.raises(ValidationError, match="score out of range"):
            Response("r0", "expert", "C1", 6)

    def test_confidence_out_of_range_rejected(self):
        with pytest.raises(ValidationError) as info:
            Response("r0", "expert", "C1", 4, confidence=6)
        assert str(info.value) == "response ('r0', 'C1'): confidence out of range 1-5"

    def test_round_index_must_be_positive(self):
        with pytest.raises(ValidationError, match="^round_index must be a positive integer$"):
            SurveyRound(0, ())

    @pytest.mark.parametrize(
        "mean, std_dev, rate, message",
        [
            (6.0, 0.6, 0.5, "mean 6.0 outside [1, 5]"),
            (4.0, -0.4, 0.5, "negative dispersion"),
            (4.0, 0.4, 1.5, "full_mark_rate outside [0, 1]"),
        ],
    )
    def test_stats_out_of_range_rejected(self, mean, std_dev, rate, message):
        with pytest.raises(ValidationError) as info:
            IndicatorStats("C1", mean, std_dev, 0.1, rate, 10)
        assert str(info.value) == f"stats 'C1': {message}"

    @pytest.mark.parametrize("weight", [True, np.True_, "0.5", None, [0.5]])
    def test_class_weight_that_is_not_a_number_rejected(self, weight):
        with pytest.raises(ValidationError) as info:
            RespondentClass("x", weight)
        assert str(info.value) == f"class 'x': score_weight is not a number: {weight!r}"

    @pytest.mark.parametrize(
        "name, value",
        [("min_mean", True), ("min_gcr", np.True_), ("min_mean", "x"), ("max_cv", None),
         ("min_full_mark_rate", False)],
    )
    def test_threshold_that_is_not_a_number_rejected(self, name, value):
        with pytest.raises(ValidationError) as info:
            ScreeningCriteria(**{name: value})
        assert str(info.value) == f"screening threshold {name} is not a number: {value!r}"

    def test_real_numbers_of_any_type_accepted(self):
        assert RespondentClass("x", 1).score_weight == 1
        assert RespondentClass("x", np.float64(0.25)).score_weight == 0.25
        assert ScreeningCriteria(min_mean=np.int64(3), min_gcr=None).min_mean == 3

    def test_cv_consistency_enforced(self):
        with pytest.raises(ValidationError, match="cv must equal"):
            IndicatorStats("C1", 4.0, 0.5, 0.2, 0.5, 10)
