import math

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
    weighted_full_mark_rate,
)

EXPERT = RespondentClass("expert", 0.8)
END_USER = RespondentClass("end_user", 0.2)
CLASSES = (EXPERT, END_USER)


def _round(scores_by_class: dict[str, list[int]], indicator="C1", confidences=None):
    responses = []
    i = 0
    for label, scores in scores_by_class.items():
        for s in scores:
            conf = confidences[i] if confidences else None
            responses.append(Response(f"r{i:02d}", label, indicator, s, conf))
            i += 1
    return SurveyRound(round_index=2, responses=tuple(responses))


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
            st.tuples(
                st.lists(st.integers(1, 5), max_size=6), st.lists(st.integers(1, 5), max_size=6)
            ).filter(lambda t: len(t[0]) + len(t[1]) >= 2),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_each_rate_equals_weighted_full_mark_rate(self, per_indicator):
        responses = []
        for k, (experts, users) in enumerate(per_indicator):
            rnd = _round({"expert": experts, "end_user": users}, indicator=f"C{k}")
            responses.extend(rnd.responses)
        stats = round_statistics(SurveyRound(1, tuple(responses)), CLASSES)
        assert [s.indicator for s in stats] == [f"C{k}" for k in range(len(per_indicator))]
        for s, (experts, users) in zip(stats, per_indicator):
            by_class = {"expert": experts, "end_user": users}
            totals = {k: len(c) for k, c in by_class.items() if c}
            maxed = {k: sum(v >= 4 for v in c) for k, c in by_class.items()}
            maxed = {k: m for k, m in maxed.items() if m}
            assert s.full_mark_rate == weighted_full_mark_rate(maxed, totals, CLASSES)


class TestWeightedFullMarkRate:
    def test_experts_only_scoring_high(self):
        rate = weighted_full_mark_rate(
            {"expert": 4, "end_user": 0}, {"expert": 5, "end_user": 5}, CLASSES
        )
        assert rate == pytest.approx(0.64, abs=1e-12)

    def test_uniform_weights_reduce_to_plain_ratio(self):
        classes = (RespondentClass("a", 0.5), RespondentClass("b", 0.5))
        rate = weighted_full_mark_rate({"a": 3, "b": 2}, {"a": 5, "b": 5}, classes)
        assert rate == pytest.approx(0.5, abs=1e-12)

    def test_all_experts_max(self):
        rate = weighted_full_mark_rate(
            {"expert": 5, "end_user": 0}, {"expert": 5, "end_user": 5}, CLASSES
        )
        assert rate == pytest.approx(0.80, abs=1e-12)

    def test_no_respondents(self):
        with pytest.raises(ValidationError, match="no respondents"):
            weighted_full_mark_rate({}, {}, CLASSES)

    def test_max_exceeding_total_rejected(self):
        with pytest.raises(ValidationError, match="exceeds total"):
            weighted_full_mark_rate({"expert": 6}, {"expert": 5}, CLASSES)

    def test_unknown_class_rejected(self):
        with pytest.raises(ValidationError, match="unknown respondent class"):
            weighted_full_mark_rate({"visitor": 1}, {"visitor": 2}, CLASSES)

    def test_duplicate_class_labels_rejected(self):
        twice = (RespondentClass("expert", 0.8), RespondentClass("expert", 0.2))
        with pytest.raises(ValidationError, match="duplicate respondent class"):
            weighted_full_mark_rate({"expert": 1}, {"expert": 2}, twice)

    @given(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=40)
    def test_monotone_in_max_scorers(self, base, users):
        lo = weighted_full_mark_rate(
            {"expert": base, "end_user": users}, {"expert": 5, "end_user": 5}, CLASSES
        )
        hi = weighted_full_mark_rate(
            {"expert": base + 1, "end_user": users}, {"expert": 5, "end_user": 5}, CLASSES
        )
        assert hi >= lo


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

    def test_cv_consistency_enforced(self):
        with pytest.raises(ValidationError, match="cv must equal"):
            IndicatorStats("C1", 4.0, 0.5, 0.2, 0.5, 10)
