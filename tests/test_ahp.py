from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siteval import (
    Criterion,
    Indicator,
    IndicatorHierarchy,
    JudgmentMatrix,
    ValidationError,
    WeightVector,
    derive_weights,
    parse_ratio,
    ri_lookup,
    run_pipeline,
    synthesize_global,
)
from siteval import ahp

GOAL_ROWS = [
    ["1", "3", "3", "3"],
    ["1/3", "1", "3", "3"],
    ["1/3", "1/3", "1", "1"],
    ["1/3", "1/3", "1", "1"],
]
B1_ROWS = [
    ["1", "3", "3"],
    ["1/3", "1", "1/2"],
    ["1/3", "2", "1"],
]

# Saaty scale values, used to draw random reciprocal matrices.
SCALE_VALUES = [1 / k for k in range(9, 1, -1)] + [float(k) for k in range(1, 10)]


def goal_matrix() -> JudgmentMatrix:
    return JudgmentMatrix.from_rows("goal", ["B1", "B2", "B3", "B4"], GOAL_ROWS)


def consistent_matrix(node: str, weights: dict[str, float]) -> JudgmentMatrix:
    labels = list(weights)
    rows = [[weights[i] / weights[j] for j in labels] for i in labels]
    return JudgmentMatrix(node=node, labels=tuple(labels), entries=tuple(map(tuple, rows)))


class TestParseRatio:
    def test_fraction_string_is_exact(self):
        assert parse_ratio("1/3") == float(Fraction(1, 3))
        assert parse_ratio("1/3") * parse_ratio("3") == pytest.approx(1.0, abs=1e-15)

    def test_numbers_pass_through(self):
        assert parse_ratio(3) == 3.0
        assert parse_ratio(0.5) == 0.5

    def test_garbage_rejected(self):
        for bad in ("three", "1/0", "", None, True):
            with pytest.raises(ValidationError):
                parse_ratio(bad)


class TestJudgmentMatrixValidation:
    def test_non_reciprocal_names_cell(self):
        rows = [[1, 2], [0.6, 1]]
        with pytest.raises(ValidationError, match=r"reciprocity.*\(a, b\)"):
            JudgmentMatrix.from_rows("node", ["a", "b"], rows)

    def test_out_of_scale_names_cell(self):
        rows = [[1, 12, "1/12"], ["1/12", 1, 1], [12, 1, 1]]
        with pytest.raises(ValidationError, match="scale"):
            JudgmentMatrix.from_rows("node", ["a", "b", "c"], rows)

    def test_bad_diagonal_rejected(self):
        rows = [[2, 1], [1, 1]]
        with pytest.raises(ValidationError, match="diagonal"):
            JudgmentMatrix.from_rows("node", ["a", "b"], rows)

    def test_fraction_entries_survive_reciprocity_check(self):
        m = JudgmentMatrix.from_rows("B2", list("abcdef"), [
            ["1", "1/2", "1/3", "1/3", "1/3", "1/3"],
            ["2", "1", "1/2", "1/2", "1/2", "1/2"],
            ["3", "2", "1", "2", "1", "1"],
            ["3", "2", "1/2", "1", "1/2", "1/2"],
            ["3", "2", "1", "2", "1", "1"],
            ["3", "2", "1", "2", "1", "1"],
        ])
        assert m.order == 6


class TestDeriveWeights:
    def test_goal_layer_weights_and_cr(self):
        weights, report = derive_weights(goal_matrix())
        expected = {"B1": 0.487, "B2": 0.276, "B3": 0.118, "B4": 0.118}
        for node, value in expected.items():
            assert weights[node] == pytest.approx(value, abs=0.005)
        assert report.cr == pytest.approx(0.0592, abs=0.003)
        assert report.consistent

    def test_power_iteration_that_does_not_converge_raises(self, monkeypatch):
        monkeypatch.setattr(ahp, "POWER_MAX_ITER", 1)
        with pytest.raises(
            ValidationError,
            match="^matrix 'goal': power iteration did not converge within 1 iterations",
        ):
            derive_weights(goal_matrix())

    def test_non_convergence_names_stage_and_node(self, monkeypatch, campus_config):
        monkeypatch.setattr(ahp, "POWER_MAX_ITER", 1)
        with pytest.raises(ValidationError, match="^ahp: matrix 'goal': power iteration"):
            run_pipeline(campus_config)

    def test_three_by_three_sublayer(self):
        m = JudgmentMatrix.from_rows("B1", ["C1", "C2", "C3"], B1_ROWS)
        weights, report = derive_weights(m)
        assert weights["C1"] == pytest.approx(0.594, abs=0.005)
        assert weights["C2"] == pytest.approx(0.157, abs=0.005)
        assert weights["C3"] == pytest.approx(0.249, abs=0.005)
        assert report.cr < 0.1

    def test_two_by_two_closed_form(self):
        m = JudgmentMatrix.from_rows("node", ["a", "b"], [["1", "3"], ["1/3", "1"]])
        weights, report = derive_weights(m)
        assert weights["a"] == pytest.approx(0.75, abs=1e-12)
        assert weights["b"] == pytest.approx(0.25, abs=1e-12)
        assert report.lambda_max == pytest.approx(2.0, abs=1e-12)
        assert report.ci == 0.0
        assert report.cr == 0.0

    def test_consistent_matrix_recovers_generating_weights(self):
        m = consistent_matrix("node", {"a": 0.5, "b": 0.3, "c": 0.2})
        weights, report = derive_weights(m)
        assert weights["a"] == pytest.approx(0.5, abs=1e-9)
        assert weights["b"] == pytest.approx(0.3, abs=1e-9)
        assert weights["c"] == pytest.approx(0.2, abs=1e-9)
        assert report.cr == pytest.approx(0.0, abs=1e-9)

    def test_order_above_nine_needs_override(self):
        labels = [f"x{i}" for i in range(10)]
        m = consistent_matrix("big", {k: 1.0 for k in labels})
        with pytest.raises(ValidationError, match="RI undefined for order > 9"):
            derive_weights(m)
        weights, report = derive_weights(m, ri_overrides={10: 1.49})
        assert report.cr == pytest.approx(0.0, abs=1e-9)
        assert weights["x0"] == pytest.approx(0.1, abs=1e-9)


class TestRiLookup:
    def test_published_values(self):
        expected = [0.0, 0.0, 0.58, 0.90, 1.12, 1.24, 1.32, 1.41, 1.45]
        assert [ri_lookup(n) for n in range(1, 10)] == expected

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            ri_lookup(10)
        with pytest.raises(ValidationError):
            ri_lookup(0)

    def test_override_table(self):
        assert ri_lookup(10, overrides={10: 1.49}) == 1.49


class TestSynthesizeGlobal:
    def _hierarchy(self):
        return IndicatorHierarchy(
            goal_name="goal",
            criteria=(
                Criterion("B1", "B1", ("C1", "C2")),
                Criterion("B4", "B4", ("C13", "C14")),
            ),
            indicators=(
                Indicator("C1", "C1"),
                Indicator("C2", "C2"),
                Indicator("C13", "C13"),
                Indicator("C14", "C14"),
            ),
        )

    def test_products(self):
        h = self._hierarchy()
        out = synthesize_global(
            h,
            WeightVector({"B1": 0.487, "B4": 0.513}),
            {
                "B1": WeightVector({"C1": 0.594, "C2": 0.406}),
                "B4": WeightVector({"C13": 0.472, "C14": 0.528}),
            },
        )
        assert out["C1"] == pytest.approx(0.289, abs=0.001)
        assert out.total() == pytest.approx(1.0, abs=1e-9)

    def test_single_criterion_passthrough(self):
        h = IndicatorHierarchy(
            goal_name="g",
            criteria=(Criterion("B1", "B1", ("C1", "C2")),),
            indicators=(Indicator("C1", "C1"), Indicator("C2", "C2")),
        )
        rel = WeightVector({"C1": 0.7, "C2": 0.3})
        out = synthesize_global(h, WeightVector({"B1": 1.0}), {"B1": rel})
        assert out.as_dict() == pytest.approx(rel.as_dict())

    def test_low_priority_branch_product(self):
        # 0.118 * 0.528 = 0.0623.
        assert 0.118 * 0.528 == pytest.approx(0.0623, abs=0.0005)
        h = self._hierarchy()
        out = synthesize_global(
            h,
            WeightVector({"B1": 0.882, "B4": 0.118}),
            {
                "B1": WeightVector({"C1": 0.5, "C2": 0.5}),
                "B4": WeightVector({"C13": 0.472, "C14": 0.528}),
            },
        )
        assert out["C14"] == pytest.approx(0.0623, abs=0.0005)

    def test_coverage_mismatch_listed(self):
        h = self._hierarchy()
        with pytest.raises(ValidationError, match="B4"):
            synthesize_global(
                h,
                WeightVector({"B1": 1.0}),
                {"B1": WeightVector({"C1": 0.5, "C2": 0.5})},
            )
        with pytest.raises(ValidationError, match="C2"):
            synthesize_global(
                h,
                WeightVector({"B1": 0.5, "B4": 0.5}),
                {
                    "B1": WeightVector({"C1": 1.0}),
                    "B4": WeightVector({"C13": 0.5, "C14": 0.5}),
                },
            )


@st.composite
def reciprocal_matrices(draw):
    n = draw(st.integers(min_value=3, max_value=7))
    entries = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            v = draw(st.sampled_from(SCALE_VALUES))
            entries[i][j] = v
            entries[j][i] = 1.0 / v
    labels = tuple(f"n{i}" for i in range(n))
    return JudgmentMatrix(
        node="random", labels=labels, entries=tuple(map(tuple, entries.tolist()))
    )


@st.composite
def generating_weights(draw):
    n = draw(st.integers(min_value=3, max_value=7))
    # Components in [0.2, 1.0] keep every ratio within the 1/9..9 scale.
    values = [draw(st.floats(min_value=0.2, max_value=1.0)) for _ in range(n)]
    total = sum(values)
    return {f"n{i}": v / total for i, v in enumerate(values)}


class TestAhpProperties:
    @given(reciprocal_matrices())
    @settings(max_examples=60, deadline=None)
    def test_lambda_max_at_least_order(self, matrix):
        _, report = derive_weights(matrix, ri_overrides={n: 1.49 for n in range(3, 8)})
        assert report.lambda_max >= matrix.order - 1e-9

    @given(generating_weights())
    @settings(max_examples=60, deadline=None)
    def test_consistent_matrices_recover_weights(self, weights):
        m = consistent_matrix("gen", weights)
        derived, report = derive_weights(m)
        for k, v in weights.items():
            assert derived[k] == pytest.approx(v, abs=1e-6)
        assert report.cr == pytest.approx(0.0, abs=1e-6)

    @given(generating_weights())
    # Two generators that differ in the last bit tie after normalisation, so
    # argmax and argmin may each pick a different one of the tied ids.
    @example({"n0": 0.39999999999999997, "n1": 0.4, "n2": 0.2})
    @settings(max_examples=40, deadline=None)
    def test_transpose_flips_ranking(self, weights):
        m = consistent_matrix("gen", weights)
        transposed = JudgmentMatrix(
            node="genT",
            labels=m.labels,
            entries=tuple(map(tuple, m.to_array().T.tolist())),
        )
        w_fwd, _ = derive_weights(m)
        w_rev, _ = derive_weights(transposed)
        ids = m.labels
        argmax_fwd = max(ids, key=lambda k: w_fwd[k])
        argmin_rev = min(ids, key=lambda k: w_rev[k])
        # The top id forward holds the lowest weight in reverse; on a tie that
        # weight is shared, so compare weights rather than ids.
        assert w_rev[argmax_fwd] == pytest.approx(w_rev[argmin_rev], rel=1e-9)

    @given(generating_weights(), st.floats(min_value=0.1, max_value=10))
    @settings(max_examples=40, deadline=None)
    def test_scaling_generators_changes_nothing(self, weights, factor):
        base, _ = derive_weights(consistent_matrix("a", weights))
        scaled, _ = derive_weights(
            consistent_matrix("b", {k: v * factor for k, v in weights.items()})
        )
        for k in weights:
            assert scaled[k] == pytest.approx(base[k], abs=1e-9)

    def test_reciprocity_tolerance_is_tight(self):
        rows = [[1.0, 2.0], [0.5 + 1e-6, 1.0]]
        with pytest.raises(ValidationError, match="reciprocity"):
            JudgmentMatrix(node="x", labels=("a", "b"), entries=tuple(map(tuple, rows)))

    def test_partition_preserved_by_synthesis(self):
        h = IndicatorHierarchy(
            goal_name="g",
            criteria=(
                Criterion("B1", "B1", ("C1", "C2", "C3")),
                Criterion("B2", "B2", ("C4", "C5")),
            ),
            indicators=tuple(Indicator(f"C{i}", f"C{i}") for i in range(1, 6)),
        )
        crit = WeightVector({"B1": 0.6, "B2": 0.4})
        rel = {
            "B1": WeightVector({"C1": 0.5, "C2": 0.3, "C3": 0.2}),
            "B2": WeightVector({"C4": 0.75, "C5": 0.25}),
        }
        out = synthesize_global(h, crit, rel)
        assert out["C1"] + out["C2"] + out["C3"] == pytest.approx(0.6, abs=1e-9)
        assert out["C4"] + out["C5"] == pytest.approx(0.4, abs=1e-9)
