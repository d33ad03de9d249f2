import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siteval import (
    Criterion,
    FuzzyVector,
    GradeScale,
    Indicator,
    IndicatorHierarchy,
    MembershipMatrix,
    ValidationError,
    WeightVector,
    first_level,
    second_level,
    verdict,
)
from siteval.fuzzy import MIN_MAX, TIE_TOL, WEIGHTED_AVERAGE, compose, verdicts

SCALE = GradeScale(("Excellent", "Good", "Poor"))


def _single_criterion(children, rows, weights):
    h = IndicatorHierarchy(
        goal_name="g",
        criteria=(Criterion("B", "B", tuple(children)),),
        indicators=tuple(Indicator(c, c) for c in children),
    )
    r = MembershipMatrix(
        {c: dict(zip(SCALE.labels, row)) for c, row in zip(children, rows)}
    )
    w = {"B": WeightVector(dict(zip(children, weights)))}
    return h, w, r


class TestFirstLevel:
    def test_two_indicator_exact(self):
        h, w, r = _single_criterion(
            ["C10", "C11"], [(0.2, 0.4, 0.4), (0.1, 0.6, 0.3)], (0.25, 0.75)
        )
        out = first_level(h, w, r)["B"]
        assert out["Excellent"] == pytest.approx(0.125, abs=1e-12)
        assert out["Good"] == pytest.approx(0.55, abs=1e-12)
        assert out["Poor"] == pytest.approx(0.325, abs=1e-12)

    def test_six_indicator_branch(self):
        rows = [
            (0.0, 0.5, 0.5),
            (0.0, 0.4, 0.6),
            (0.1, 0.3, 0.6),
            (0.4, 0.4, 0.2),
            (0.4, 0.4, 0.2),
            (0.0, 0.2, 0.8),
        ]
        weights = (0.065, 0.107, 0.227, 0.147, 0.227, 0.227)
        h, w, r = _single_criterion([f"C{i}" for i in range(4, 10)], rows, weights)
        out = first_level(h, w, r)["B"]
        assert out["Excellent"] == pytest.approx(0.1723, abs=0.002)
        assert out["Good"] == pytest.approx(0.3384, abs=0.002)
        assert out["Poor"] == pytest.approx(0.4893, abs=0.002)

    def test_single_indicator_identity(self):
        h, w, r = _single_criterion(["C1"], [(0.2, 0.5, 0.3)], (1.0,))
        out = first_level(h, w, r)["B"]
        assert out.as_dict() == pytest.approx(
            {"Excellent": 0.2, "Good": 0.5, "Poor": 0.3}, abs=1e-15
        )

    def test_missing_membership_row_names_indicator(self):
        h = IndicatorHierarchy(
            goal_name="g",
            criteria=(Criterion("B", "B", ("C1", "C2")),),
            indicators=(Indicator("C1", "C1"), Indicator("C2", "C2")),
        )
        r = MembershipMatrix({"C1": {"Good": 0.5, "Poor": 0.5}})
        w = {"B": WeightVector({"C1": 0.5, "C2": 0.5})}
        with pytest.raises(ValidationError, match="C2"):
            first_level(h, w, r)

    def test_weight_coverage_mismatch(self):
        h, w, r = _single_criterion(["C1", "C2"], [(0.5, 0.5, 0.0), (0.5, 0.5, 0.0)], (0.5, 0.5))
        bad = {"B": WeightVector({"C1": 1.0})}
        with pytest.raises(ValidationError, match="C2"):
            first_level(h, bad, r)

    def test_min_max_operator(self):
        h, w, r = _single_criterion(
            ["C10", "C11"], [(0.2, 0.4, 0.4), (0.1, 0.6, 0.3)], (0.25, 0.75)
        )
        out = first_level(h, w, r, operator=MIN_MAX)["B"]
        assert out["Excellent"] == pytest.approx(0.2, abs=1e-12)
        assert out["Good"] == pytest.approx(0.6, abs=1e-12)
        assert out["Poor"] == pytest.approx(0.3, abs=1e-12)


FIRST = {
    "B1": FuzzyVector({"Excellent": 0.1563, "Good": 0.5157, "Poor": 0.328}),
    "B2": FuzzyVector({"Excellent": 0.1723, "Good": 0.3384, "Poor": 0.4893}),
    "B3": FuzzyVector({"Excellent": 0.125, "Good": 0.55, "Poor": 0.325}),
    "B4": FuzzyVector({"Excellent": 0.3326, "Good": 0.5866, "Poor": 0.0808}),
}


class TestSecondLevel:
    def test_four_branch_composition(self):
        w = WeightVector({"B1": 0.348, "B2": 0.405, "B3": 0.082, "B4": 0.166})
        out = second_level(w, FIRST)
        assert out["Excellent"] == pytest.approx(0.1896, abs=0.002)
        assert out["Good"] == pytest.approx(0.459, abs=0.002)
        assert out["Poor"] == pytest.approx(0.3524, abs=0.002)

    def test_uniform_weights_over_identical_rows(self):
        row = FuzzyVector({"Excellent": 0.2, "Good": 0.5, "Poor": 0.3})
        w = WeightVector({"B1": 0.25, "B2": 0.25, "B3": 0.25, "B4": 0.25})
        out = second_level(w, {k: row for k in w.ids})
        assert out.as_dict() == pytest.approx(row.as_dict(), abs=1e-15)

    def test_degenerate_weight_projects_single_row(self):
        w = WeightVector({"B1": 1.0, "B2": 0.0, "B3": 0.0, "B4": 0.0})
        out = second_level(w, FIRST)
        assert out.as_dict() == pytest.approx(FIRST["B1"].as_dict(), abs=1e-15)

    def test_coverage_mismatch(self):
        w = WeightVector({"B1": 0.5, "B9": 0.5})
        with pytest.raises(ValidationError, match="B9"):
            second_level(w, FIRST)


class TestVerdict:
    def test_majority_grade_wins(self):
        v = verdict(
            FuzzyVector({"Excellent": 0.1896, "Good": 0.458, "Poor": 0.3524}), SCALE
        )
        assert v.grade == "Good"
        assert v.membership == pytest.approx(0.458, abs=1e-12)
        assert not v.tied

    def test_tie_goes_to_better_grade(self):
        v = verdict(FuzzyVector({"Excellent": 0.4, "Good": 0.4, "Poor": 0.2}), SCALE)
        assert v.grade == "Excellent"
        assert v.tied

    def test_unanimous_poor(self):
        v = verdict(FuzzyVector({"Excellent": 0.0, "Good": 0.0, "Poor": 1.0}), SCALE)
        assert v.grade == "Poor"
        assert v.membership == 1.0

    def test_unknown_grade_rejected(self):
        with pytest.raises(ValidationError, match="unknown grade"):
            verdict(FuzzyVector({"Great": 1.0}), SCALE)


def _row_strategy():
    return st.tuples(
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=1),
        st.floats(min_value=0, max_value=1),
    ).map(lambda t: tuple(v / (sum(t) or 1) for v in t)).filter(lambda t: sum(t) > 0.99)


class TestFuzzyProperties:
    @given(
        st.lists(_row_strategy(), min_size=2, max_size=5),
        st.lists(st.floats(min_value=0.05, max_value=1), min_size=5, max_size=5),
    )
    @settings(max_examples=50, deadline=None)
    def test_row_stochastic_inputs_give_unit_sum(self, rows, raw_weights):
        children = [f"C{i}" for i in range(len(rows))]
        weights = WeightVector(
            dict(zip(children, raw_weights[: len(rows)]))
        ).normalize()
        h, _, r = _single_criterion(children, rows, [weights[c] for c in children])
        out = first_level(h, {"B": weights}, r)["B"]
        assert out.total() == pytest.approx(1.0, abs=1e-9)
        assert all(0 <= out[g] <= 1 for g in out.grades)

    @given(st.floats(min_value=0.05, max_value=20))
    @settings(max_examples=50)
    def test_verdict_invariant_under_weight_scaling(self, factor):
        raw = {"B1": 0.8, "B2": 0.3, "B3": 0.5, "B4": 0.1}
        base = second_level(WeightVector(raw).normalize(), FIRST)
        scaled = second_level(
            WeightVector({k: v * factor for k, v in raw.items()}).normalize(), FIRST
        )
        assert verdict(base, SCALE).grade == verdict(scaled, SCALE).grade

    def test_linear_in_each_criterion_vector(self):
        w = WeightVector({"B1": 0.6, "B2": 0.4})
        va = FuzzyVector({"Excellent": 0.2, "Good": 0.5, "Poor": 0.3})
        vb = FuzzyVector({"Excellent": 0.4, "Good": 0.4, "Poor": 0.2})
        fixed = FuzzyVector({"Excellent": 0.1, "Good": 0.6, "Poor": 0.3})
        mix = FuzzyVector(
            {g: 0.5 * va[g] + 0.5 * vb[g] for g in va.grades}
        )
        out_mix = second_level(w, {"B1": mix, "B2": fixed})
        out_a = second_level(w, {"B1": va, "B2": fixed})
        out_b = second_level(w, {"B1": vb, "B2": fixed})
        for g in va.grades:
            assert out_mix[g] == pytest.approx(0.5 * out_a[g] + 0.5 * out_b[g], abs=1e-12)

    def test_two_level_composition_matches_flat_average(self):
        # One criterion holding every indicator reduces to a single weighted average.
        children = ["C1", "C2", "C3"]
        rows = [(0.2, 0.5, 0.3), (0.1, 0.6, 0.3), (0.4, 0.4, 0.2)]
        rel = (0.5, 0.3, 0.2)
        h, w, r = _single_criterion(children, rows, rel)
        first = first_level(h, w, r)
        out = second_level(WeightVector({"B": 1.0}), first)
        for gi, g in enumerate(SCALE.labels):
            flat = sum(rel[i] * rows[i][gi] for i in range(3))
            assert out[g] == pytest.approx(flat, abs=1e-12)


def _scalar_compose(weights, rows, operator):
    """Reference: the left-to-right scalar composition of one weight vector."""
    if operator == WEIGHTED_AVERAGE:
        return [sum(w * row[g] for w, row in zip(weights, rows)) for g in range(len(rows[0]))]
    return [max(min(w, row[g]) for w, row in zip(weights, rows)) for g in range(len(rows[0]))]


# -0.0 passes every range check, so signed zeros must come out as the scalar code gives them.
_unit = st.floats(min_value=0, max_value=1) | st.just(-0.0)


class TestComposeKernel:
    @given(
        st.integers(min_value=1, max_value=6).flatmap(
            lambda n: st.tuples(
                st.lists(st.lists(_unit, min_size=n, max_size=n), min_size=1, max_size=5),
                st.lists(st.lists(_unit, min_size=3, max_size=3), min_size=n, max_size=n),
                st.lists(st.lists(_unit, min_size=3, max_size=3), min_size=n, max_size=n),
            )
        ),
        st.sampled_from([WEIGHTED_AVERAGE, MIN_MAX]),
    )
    @settings(max_examples=80, deadline=None)
    def test_batch_rows_equal_scalar_reference(self, case, operator):
        weights, rows, other_rows = case
        shared = compose(np.array(weights), np.array(rows), operator)
        # repr tells -0.0 from 0.0, which == does not
        assert repr(shared.tolist()) == repr([_scalar_compose(w, rows, operator) for w in weights])
        # (A, n, G) rows: batch entry k composes weights[k] with its own rows.
        per_row = [rows if k % 2 else other_rows for k in range(len(weights))]
        batched = compose(np.array(weights), np.array(per_row), operator)
        assert repr(batched.tolist()) == repr(
            [_scalar_compose(w, r, operator) for w, r in zip(weights, per_row)]
        )

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValidationError, match="unknown fuzzy operator"):
            compose(np.ones((1, 2)), np.ones((2, 3)), "mean")


def _reference_verdict(values, grades, labels):
    """The documented rule in plain Python: contenders within TIE_TOL of the peak, in
    scale order; the first wins, and more than one means tied."""
    by_grade = dict(zip(grades, values))
    peak = max(values)
    contenders = [g for g in labels if g in by_grade and by_grade[g] >= peak - TIE_TOL]
    return labels.index(contenders[0]), by_grade[contenders[0]], len(contenders) > 1


# Offsets below a row's first value: exact ties, gaps just inside and just
# outside TIE_TOL, and clear gaps.
_OFFSETS = (0.0, 0.5 * TIE_TOL, TIE_TOL, 1.01 * TIE_TOL, 2 * TIE_TOL, 0.1)


@st.composite
def _verdict_cases(draw):
    labels = tuple(f"L{k}" for k in range(draw(st.integers(2, 6))))
    # Membership grades: a subset of the scale, in an order of their own.
    grades = draw(st.permutations(labels))[: draw(st.integers(1, len(labels)))]
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        lead = draw(st.floats(0, 1))
        rows.append(
            [lead]
            + [
                draw(st.floats(0, 1) | st.sampled_from(_OFFSETS).map(lambda d: lead - d))
                for _ in grades[1:]
            ]
        )
    return GradeScale(labels), grades, rows


class TestBatchedVerdict:
    @given(_verdict_cases())
    @settings(max_examples=200, deadline=None)
    def test_every_row_matches_the_reference_rule(self, case):
        scale, grades, rows = case
        winner, membership, tied = verdicts(np.array(rows), grades, scale)
        got = list(zip(winner.tolist(), membership.tolist(), tied.tolist()))
        assert got == [_reference_verdict(r, grades, scale.labels) for r in rows]

    def test_tie_tolerance_boundary(self):
        # Poor sits exactly TIE_TOL below the peak (a contender), Good just beyond it.
        peak = 0.5
        rows = np.array([[peak - 1.01 * TIE_TOL, peak - TIE_TOL, peak]])
        winner, membership, tied = verdicts(rows, ("Good", "Poor", "Excellent"), SCALE)
        assert (winner.tolist(), membership.tolist(), tied.tolist()) == ([0], [peak], [True])
        winner, membership, tied = verdicts(rows[:, [0, 2]], ("Good", "Excellent"), SCALE)
        assert (winner.tolist(), tied.tolist()) == ([0], [False])

    def test_unknown_or_no_grades_rejected(self):
        with pytest.raises(ValidationError, match="unknown grade 'Great'"):
            verdicts(np.ones((2, 2)), ("Good", "Great"), SCALE)
        with pytest.raises(ValidationError, match="empty fuzzy vector"):
            verdicts(np.ones((2, 0)), (), SCALE)
