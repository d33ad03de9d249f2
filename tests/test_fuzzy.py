import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siteval import FuzzyVector, GradeScale, ValidationError, verdict
from siteval.core import float_sum
from siteval.fuzzy import (
    MEMBERSHIP_LO,
    MIN_MAX,
    TIE_TOL,
    WEIGHTED_AVERAGE,
    Verdict,
    first_level,
    second_level,
    verdicts,
)

SCALE = GradeScale(("Excellent", "Good", "Poor"))


def _first(weights, rows, operator=WEIGHTED_AVERAGE):
    """One criterion's first-level vector (G,): weights (n,) with membership rows (n, G)."""
    w = np.array(weights, dtype=np.float64)[:, None]
    out = first_level(w, np.array(rows, dtype=np.float64)[..., None], operator, (1,) * len(w))
    assert out.shape == (1, len(rows[0]), 1)
    return out[0, :, 0]


def _second(weights, vectors, operator=WEIGHTED_AVERAGE):
    """The second-level vector (G,): criterion weights (C,) with first-level vectors (C, G)."""
    w = np.array(weights, dtype=np.float64)[:, None]
    return second_level(w, np.array(vectors, dtype=np.float64)[..., None], operator)[:, 0]


class TestFirstLevel:
    def test_two_indicator_exact(self):
        out = _first((0.25, 0.75), [(0.2, 0.4, 0.4), (0.1, 0.6, 0.3)])
        assert out.tolist() == pytest.approx([0.125, 0.55, 0.325], abs=1e-12)

    def test_six_indicator_branch(self):
        rows = [
            (0.0, 0.5, 0.5),
            (0.0, 0.4, 0.6),
            (0.1, 0.3, 0.6),
            (0.4, 0.4, 0.2),
            (0.4, 0.4, 0.2),
            (0.0, 0.2, 0.8),
        ]
        out = _first((0.065, 0.107, 0.227, 0.147, 0.227, 0.227), rows)
        assert out.tolist() == pytest.approx([0.1723, 0.3384, 0.4893], abs=0.002)

    def test_single_indicator_identity(self):
        assert _first((1.0,), [(0.2, 0.5, 0.3)]).tolist() == [0.2, 0.5, 0.3]

    def test_min_max_operator(self):
        out = _first((0.25, 0.75), [(0.2, 0.4, 0.4), (0.1, 0.6, 0.3)], MIN_MAX)
        assert out.tolist() == pytest.approx([0.2, 0.6, 0.3], abs=1e-12)


# The paper's published first-level vectors of B1..B4, grades in SCALE order.
FIRST = [
    (0.1563, 0.5157, 0.328),
    (0.1723, 0.3384, 0.4893),
    (0.125, 0.55, 0.325),
    (0.3326, 0.5866, 0.0808),
]


class TestSecondLevel:
    def test_four_branch_composition(self):
        out = _second((0.348, 0.405, 0.082, 0.166), FIRST)
        assert out.tolist() == pytest.approx([0.1896, 0.459, 0.3524], abs=0.002)

    def test_uniform_weights_over_identical_rows(self):
        row = (0.2, 0.5, 0.3)
        out = _second((0.25,) * 4, [row] * 4)
        assert out.tolist() == pytest.approx(list(row), abs=1e-15)

    def test_degenerate_weight_projects_single_row(self):
        assert _second((1.0, 0.0, 0.0, 0.0), FIRST).tolist() == list(FIRST[0])


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


def _summing_to_one(weights):
    total = sum(weights)
    return [v / total for v in weights]


class TestFuzzyProperties:
    @given(
        st.lists(_row_strategy(), min_size=2, max_size=5),
        st.lists(st.floats(min_value=0.05, max_value=1), min_size=5, max_size=5),
    )
    # Weights that sum to 1.0000000000000002 give Excellent = 1.0000000000000002.
    @example(rows=[(1.0, 0.0, 0.0)] * 3, raw_weights=[0.05, 0.2, 0.05, 0.05, 0.05])
    @settings(max_examples=50, deadline=None)
    def test_row_stochastic_inputs_give_unit_sum(self, rows, raw_weights):
        out = _first(_summing_to_one(raw_weights[: len(rows)]), rows)
        assert float_sum(out.tolist()) == pytest.approx(1.0, abs=1e-9)
        assert all(-1e-9 <= v <= 1 + 1e-9 for v in out.tolist())

    @given(st.floats(min_value=0.05, max_value=20))
    @settings(max_examples=50)
    def test_verdict_invariant_under_weight_scaling(self, factor):
        raw = [0.8, 0.3, 0.5, 0.1]
        # Column 0 composes the base weights, column 1 the scaled ones.
        w = np.array([_summing_to_one(raw), _summing_to_one([v * factor for v in raw])]).T
        out = second_level(w, np.array(FIRST)[..., None], WEIGHTED_AVERAGE)
        winner, _, _ = verdicts(out)
        assert winner[0] == winner[1]

    def test_linear_in_each_criterion_vector(self):
        w = (0.6, 0.4)
        va, vb, fixed = (0.2, 0.5, 0.3), (0.4, 0.4, 0.2), (0.1, 0.6, 0.3)
        mix = [0.5 * a + 0.5 * b for a, b in zip(va, vb)]
        out_mix = _second(w, [mix, fixed])
        out_a = _second(w, [va, fixed])
        out_b = _second(w, [vb, fixed])
        assert out_mix.tolist() == pytest.approx((0.5 * out_a + 0.5 * out_b).tolist(), abs=1e-12)

    def test_two_level_composition_matches_flat_average(self):
        # One criterion holding every indicator reduces to a single weighted average.
        rows = [(0.2, 0.5, 0.3), (0.1, 0.6, 0.3), (0.4, 0.4, 0.2)]
        rel = (0.5, 0.3, 0.2)
        w = np.array(rel)[:, None]
        first = first_level(w, np.array(rows)[..., None], WEIGHTED_AVERAGE, (1, 1, 1))
        out = second_level(np.ones((1, 1)), first, WEIGHTED_AVERAGE)[:, 0]
        flat = [sum(rel[i] * rows[i][g] for i in range(3)) for g in range(3)]
        assert out.tolist() == pytest.approx(flat, abs=1e-12)


def _scalar_compose(weights, rows, operator):
    """Reference: the left-to-right scalar composition of one weight vector."""
    if operator == WEIGHTED_AVERAGE:
        return [float_sum(w * row[g] for w, row in zip(weights, rows)) for g in range(len(rows[0]))]
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
        w = np.array(weights).T  # (n, A): batch column k is weights[k]
        # (n, G, 1) rows: every column composes with the same rows.
        shared = second_level(w, np.array(rows)[..., None], operator)
        # repr tells -0.0 from 0.0, which == does not
        assert repr(shared.T.tolist()) == repr(
            [_scalar_compose(v, rows, operator) for v in weights]
        )
        # Level one over a single criterion, one row per slot, gives the same floats.
        one = first_level(w, np.array(rows)[..., None], operator, (1,) * len(rows))
        assert repr(one[0].tolist()) == repr(shared.tolist())
        # (n, G, A) rows: batch column k composes weights[k] with its own rows.
        per_column = [rows if k % 2 else other_rows for k in range(len(weights))]
        batched = second_level(w, np.stack(per_column, axis=-1), operator)
        assert repr(batched.T.tolist()) == repr(
            [_scalar_compose(v, r, operator) for v, r in zip(weights, per_column)]
        )
        # Two criteria in the slot layout: term j holds row j of each, so the
        # (2n, A) weights and (2n, G, 1) rows interleave them, with sizes (2,) * n.
        by_criterion = first_level(
            np.stack([w, w[::-1]], axis=1).reshape(2 * len(w), -1),
            np.stack([rows, other_rows], axis=1).reshape(2 * len(rows), -1)[..., None],
            operator,
            (2,) * len(rows),
        )
        assert repr(by_criterion.transpose(0, 2, 1).tolist()) == repr(
            [
                [_scalar_compose(v, rows, operator) for v in weights],
                [_scalar_compose(v[::-1], other_rows, operator) for v in weights],
            ]
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_signed_zero_ties_match_scalar_reference(self, n):
        # Every n-term weight vector and every n-term one-grade row set over
        # {0.0, -0.0, -1.0}: each min meets equal zeros of either sign, and from
        # n = 2 on so does each max. -1.0 lies below every membership, so a
        # later term's signed zero can win the max, which pins the rule for
        # every term, not only the first. numpy's minimum and maximum return
        # their second operand on a tie, so swapping either one's operands in
        # any term fails here.
        vectors = [list(v) for v in itertools.product((0.0, -0.0, -1.0), repeat=n)]
        row_sets = [[[z] for z in v] for v in vectors]
        w = np.array(vectors).T  # (n, A)
        for rows in row_sets:  # (n, G, 1) rows shared by every column
            shared = second_level(w, np.array(rows)[..., None], MIN_MAX)
            assert repr(shared.T.tolist()) == repr(
                [_scalar_compose(v, rows, MIN_MAX) for v in vectors]
            )
        # (n, G, A) rows: one column per (weights, rows) pair.
        pairs = list(itertools.product(vectors, row_sets))
        batched = second_level(
            np.array([v for v, _ in pairs]).T,
            np.stack([np.array(r) for _, r in pairs], axis=-1),
            MIN_MAX,
        )
        assert repr(batched.T.tolist()) == repr(
            [_scalar_compose(v, r, MIN_MAX) for v, r in pairs]
        )

    def test_unknown_operator_rejected(self):
        with pytest.raises(ValidationError, match="unknown fuzzy operator 'mean'"):
            first_level(np.ones((2, 1)), np.ones((2, 3, 1)), "mean", (1, 1))
        with pytest.raises(ValidationError, match="unknown fuzzy operator 'mean'"):
            second_level(np.ones((2, 1)), np.ones((2, 3, 1)), "mean")
        with pytest.raises(ValidationError, match="nothing to compose: no weights"):
            second_level(np.ones((0, 1)), np.ones((0, 3, 1)), WEIGHTED_AVERAGE)


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
def _verdict_cases(draw, floor=-np.inf):
    """Rows whose entries are never below `floor`. With a lead near 0, the
    offsets 0.5 * TIE_TOL and TIE_TOL put the tie boundary across zero, and
    -0.0 may stand beside 0.0."""
    labels = tuple(f"L{k}" for k in range(draw(st.integers(2, 6))))
    # Membership grades: a subset of the scale, in an order of their own.
    grades = draw(st.permutations(labels))[: draw(st.integers(1, len(labels)))]
    rows = []
    for _ in range(draw(st.integers(1, 8))):
        lead = draw(st.floats(0, 1) | st.just(-0.0))
        offsets = st.sampled_from([d for d in _OFFSETS if lead - d >= floor])
        rows.append(
            [lead]
            + [
                draw(st.floats(0, 1) | st.just(-0.0) | offsets.map(lambda d: lead - d))
                for _ in grades[1:]
            ]
        )
    return GradeScale(labels), grades, rows


def _case(labels, grades, *rows):
    return GradeScale(labels), grades, [list(r) for r in rows]


# One grade and one vector; contenders within TIE_TOL whose first in scale
# order is not the peak; and signed zeros, whose sign the winner keeps.
_EDGE_CASES = (
    _case(("L0", "L1"), ("L1",), (0.3,)),
    _case(("L0", "L1", "L2"), ("L2", "L0", "L1"), (0.4, 0.4 - 0.5 * TIE_TOL, 0.2)),
    _case(("L0", "L1"), ("L1", "L0"), (0.0, -0.0), (-0.0, 0.0), (-0.0, -0.0)),
)


class TestBatchedVerdict:
    # FuzzyVector admits rounding strays down to MEMBERSHIP_LO, so those stay in.
    @given(_verdict_cases(floor=MEMBERSHIP_LO))
    @settings(max_examples=200, deadline=None)
    @example(_EDGE_CASES[0])
    @example(_EDGE_CASES[1])
    @example(_EDGE_CASES[2])
    def test_every_row_matches_the_reference_rule(self, case):
        scale, grades, rows = case
        got = [verdict(FuzzyVector(dict(zip(grades, r))), scale) for r in rows]
        # repr tells -0.0 from 0.0, which == does not
        assert repr([(scale.labels.index(v.grade), v.membership, v.tied) for v in got]) == repr(
            [_reference_verdict(r, grades, scale.labels) for r in rows]
        )

    @given(_verdict_cases())
    @settings(max_examples=200, deadline=None)
    @example(_EDGE_CASES[0])
    @example(_EDGE_CASES[1])
    @example(_EDGE_CASES[2])
    def test_kernel_reads_scale_ordered_columns_in_either_layout(self, case):
        scale, grades, rows = case
        in_scale_order = sorted(grades, key=scale.labels.index)
        # (G, A): a row per grade, in scale order, and a column per vector.
        columns = np.array(rows)[:, [grades.index(g) for g in in_scale_order]].T
        expected = [_reference_verdict(r, grades, scale.labels) for r in rows]
        for layout in (np.ascontiguousarray(columns), np.asfortranarray(columns)):
            winner, membership, tied = verdicts(layout)
            got = zip(winner.tolist(), membership.tolist(), tied.tolist())
            assert repr([(scale.labels.index(in_scale_order[k]), m, t) for k, m, t in got]) == repr(
                expected
            )

    def test_tie_tolerance_boundary(self):
        # Rows in SCALE order: Poor sits exactly TIE_TOL below the peak (a
        # contender), Good just beyond it.
        peak = 0.5
        column = np.array([[peak], [peak - 1.01 * TIE_TOL], [peak - TIE_TOL]])
        winner, membership, tied = verdicts(column)
        assert (winner.tolist(), membership.tolist(), tied.tolist()) == ([0], [peak], [True])
        winner, membership, tied = verdicts(column[:2])
        assert (winner.tolist(), tied.tolist()) == ([0], [False])
        # `verdict` puts a vector given in another order into scale order first.
        b = FuzzyVector({"Good": column[1, 0], "Poor": column[2, 0], "Excellent": peak})
        assert verdict(b, SCALE) == Verdict("Excellent", peak, True)
        # The same boundary across zero, with rounding strays FuzzyVector admits.
        winner, membership, tied = verdicts(np.array([[-1.01 * TIE_TOL], [0.0], [-TIE_TOL]]))
        assert (winner.tolist(), membership.tolist(), tied.tolist()) == ([1], [0.0], [True])
        b = FuzzyVector({"Poor": -TIE_TOL, "Good": 0.0, "Excellent": -0.5 * TIE_TOL})
        assert verdict(b, SCALE) == Verdict("Excellent", -0.5 * TIE_TOL, True)

    def test_unknown_or_no_grades_rejected(self):
        with pytest.raises(ValidationError, match="unknown grade 'Great'"):
            verdict(FuzzyVector({"Good": 1.0, "Great": 1.0}), SCALE)
        with pytest.raises(ValidationError, match="empty fuzzy vector"):
            verdict(FuzzyVector({}), SCALE)
