import dataclasses
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
    return JudgmentMatrix("goal", ["B1", "B2", "B3", "B4"], GOAL_ROWS)


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
        for huge in (10**400, "1" + "0" * 400):
            with pytest.raises(ValidationError, match="too large for a float"):
                parse_ratio(huge)


SAATY = [Fraction(k) for k in range(1, 10)] + [Fraction(1, k) for k in range(2, 10)]


def _spellings(f: Fraction) -> list[object]:
    """Ways a config may write `f`: its token, padded, unreduced, as a decimal, as a number."""
    tok = str(f)
    out = [tok, f" {tok} ", f"\t{tok}", f"{2 * f.numerator}/{2 * f.denominator}", float(f)]
    if Fraction(str(float(f))) == f:
        out.append(str(float(f)))
    if f.denominator == 1:
        out.append(f.numerator)
    return out


@st.composite
def mixed_rows(draw):
    """A reciprocal matrix of Saaty values, each cell spelled in a random way."""
    n = draw(st.integers(1, 6))
    rows: list[list[object]] = [[None] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = draw(st.sampled_from(_spellings(Fraction(1))))
        for j in range(i + 1, n):
            f = draw(st.sampled_from(SAATY))
            rows[i][j] = draw(st.sampled_from(_spellings(f)))
            rows[j][i] = draw(st.sampled_from(_spellings(1 / f)))
    return rows


class TestSaatyTokens:
    def test_table_holds_the_17_tokens(self):
        assert ahp.SAATY_TOKENS == {str(f): float(f) for f in SAATY}
        assert len(ahp.SAATY_TOKENS) == 17

    @pytest.mark.parametrize("tok", [str(f) for f in SAATY])
    def test_token_with_and_without_whitespace(self, tok):
        for text in (tok, f" {tok}", f"{tok}\t", f"\n {tok} "):
            assert parse_ratio(text) == float(Fraction(tok))

    @given(mixed_rows())
    @example([["1", " 3", "2/6", "0.5"], ["1/3", 1, 2.0, "1/9"], [3, "1/2", "1.0", "4/2"], ["2", " 9 ", 0.5, 1.0]])
    def test_constructor_matches_fraction_oracle(self, rows):
        def exact(v):
            return float(Fraction(v.strip()) if isinstance(v, str) else v)

        labels = [f"x{i}" for i in range(len(rows))]
        m = JudgmentMatrix("node", labels, rows)
        assert m.entries == tuple(tuple(exact(v) for v in row) for row in rows)
        assert m.raw == tuple(tuple(str(v) for v in row) for row in rows)


# Cells for fuzzing the JudgmentMatrix constructor: good Saaty values in several
# spellings, and values that fail parsing, the sign check, the scale or the diagonal.
CELL_POOL = [
    "1", "2", "1/2", "3", "1/3", "9", "1/9", 1, 2.0, 0.5, 3, " 1/3",
    "0", "-1", 0, -2.0, 12, "1/12", "x", "1/0", "", None, True, float("nan"), 0.4, 2.5,
]


def _two_pass_error(node, labels, rows):
    """The first error of the matrix validation that walked every cell twice."""
    n = len(labels)
    if len(rows) != n or any(len(row) != n for row in rows):
        return f"matrix {node!r}: not square of order {n}"
    entries = []
    for i in range(n):
        entries.append([])
        for j in range(n):
            try:
                entries[i].append(parse_ratio(rows[i][j]))
            except ValidationError as exc:
                return f"matrix {node!r}: entry ({labels[i]}, {labels[j]}): {exc}"
    if n == 0:
        return f"matrix {node!r}: empty"
    if len(set(labels)) != n:
        return f"matrix {node!r}: duplicate labels"
    for i in range(n):
        for j in range(n):
            a = entries[i][j]
            if a <= 0:
                return (
                    f"matrix {node!r}: entry ({labels[i]}, {labels[j]}) "
                    f"must be positive, got {a}"
                )
            if not ahp.SCALE_MIN - 1e-12 <= a <= ahp.SCALE_MAX + 1e-12:
                return (
                    f"matrix {node!r}: entry ({labels[i]}, {labels[j]}) = {a:g} "
                    f"outside the 1/9..9 scale"
                )
        if abs(entries[i][i] - 1.0) > ahp.RECIPROCITY_TOL:
            return f"matrix {node!r}: diagonal ({labels[i]}, {labels[i]}) must be 1"
    for i in range(n):
        for j in range(i + 1, n):
            if abs(entries[i][j] * entries[j][i] - 1.0) > ahp.RECIPROCITY_TOL:
                return f"matrix {node!r}: reciprocity violated at ({labels[i]}, {labels[j]})"
    return None


@st.composite
def candidate_matrices(draw):
    """Labels (maybe repeated) and rows (maybe ragged) of pool cells, mostly reciprocal."""
    n = draw(st.integers(0, 5))
    labels = [draw(st.sampled_from("abcdef")) for _ in range(n)]
    rows = [["1"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            f = draw(st.sampled_from(SAATY))
            rows[i][j], rows[j][i] = str(f), str(1 / f)
    for _ in range(draw(st.integers(0, 3))):
        if n:
            rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(
                st.sampled_from(CELL_POOL)
            )
    if n and draw(st.integers(0, 9)) == 0:
        rows[draw(st.integers(0, n - 1))].append("1")
    return labels, rows


class TestJudgmentMatrixValidation:
    @given(candidate_matrices())
    @example((["a", "b", "c", "d"], [["1", "2", "3", "4"], ["1/2", "1", "1", "1"],
                                     ["1/3", "1/2", "1", "1"], ["1", "1", "1", "1"]]))
    @example((["a", "b"], [["1", "x"], ["12", "1"]]))
    @example((["a", "a"], [["1", "12"], ["1/12", "1"]]))
    @example((["a", "b"], [[1, True], [1.0, 1]]))
    @example((["a", "b", "c"], [[1.0, 2, 0.25], [0.5, 1.0, 1.0], [4, 1, 1.0]]))
    @settings(max_examples=300, deadline=None)
    def test_one_walk_reports_the_two_pass_first_error(self, case):
        labels, rows = case
        expected = _two_pass_error("node", labels, rows)
        try:
            m = JudgmentMatrix("node", labels, rows)
        except ValidationError as exc:
            assert str(exc) == expected
        else:
            assert expected is None
            assert m.labels == tuple(labels)
            assert m.entries == tuple(tuple(parse_ratio(v) for v in row) for row in rows)
            assert m.raw == tuple(tuple(str(v) for v in row) for row in rows)
            assert JudgmentMatrix("node", m.labels, m.entries).entries == m.entries

    @given(candidate_matrices())
    @settings(max_examples=100, deadline=None)
    def test_constructor_reports_the_same_first_error(self, case):
        labels, rows = case
        try:
            entries = [[parse_ratio(v) for v in row] for row in rows]
        except ValidationError:
            return
        if len(rows) != len(labels) or any(len(row) != len(labels) for row in rows):
            return
        expected = _two_pass_error("node", labels, rows)
        try:
            JudgmentMatrix(node="node", labels=tuple(labels), entries=entries)
        except ValidationError as exc:
            assert str(exc) == expected
        else:
            assert expected is None

    def test_constructor_parses_each_cell_once(self, monkeypatch):
        calls = []

        def counting(value):
            calls.append(value)
            return parse_ratio(value)

        monkeypatch.setattr(ahp, "parse_ratio", counting)
        goal_matrix()
        assert calls == [v for row in GOAL_ROWS for v in row]

    def test_raw_is_derived_not_given(self):
        assert [f.name for f in dataclasses.fields(JudgmentMatrix) if f.init] == [
            "node", "labels", "entries",
        ]
        with pytest.raises(TypeError, match="raw"):
            JudgmentMatrix("node", ["a"], [["1"]], raw=(("2",),))

    def test_raw_is_each_cell_as_text(self):
        m = JudgmentMatrix("node", ("a", "b"), ((1, " 3"), ("1/3", 1.0)))
        assert m.raw == (("1", " 3"), ("1/3", "1.0"))
        assert m.entries == ((1.0, 3.0), (1 / 3, 1.0))

    def test_non_reciprocal_names_cell(self):
        rows = [[1, 2], [0.6, 1]]
        with pytest.raises(ValidationError, match=r"reciprocity.*\(a, b\)"):
            JudgmentMatrix("node", ["a", "b"], rows)

    def test_out_of_scale_names_cell(self):
        rows = [[1, 12, "1/12"], ["1/12", 1, 1], [12, 1, 1]]
        with pytest.raises(ValidationError, match="scale"):
            JudgmentMatrix("node", ["a", "b", "c"], rows)

    def test_bad_diagonal_rejected(self):
        rows = [[2, 1], [1, 1]]
        with pytest.raises(ValidationError, match="diagonal"):
            JudgmentMatrix("node", ["a", "b"], rows)

    def test_fraction_entries_survive_reciprocity_check(self):
        m = JudgmentMatrix("B2", list("abcdef"), [
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
        m = JudgmentMatrix("B1", ["C1", "C2", "C3"], B1_ROWS)
        weights, report = derive_weights(m)
        assert weights["C1"] == pytest.approx(0.594, abs=0.005)
        assert weights["C2"] == pytest.approx(0.157, abs=0.005)
        assert weights["C3"] == pytest.approx(0.249, abs=0.005)
        assert report.cr < 0.1

    def test_two_by_two_closed_form(self):
        m = JudgmentMatrix("node", ["a", "b"], [["1", "3"], ["1/3", "1"]])
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

    def test_order_above_nine_fails_first_and_names_matrix(self, monkeypatch):
        labels = [f"x{i}" for i in range(10)]
        m = consistent_matrix("big", {k: 1.0 for k in labels})

        def never(a):
            raise AssertionError("power iteration ran on a matrix of order 10")

        monkeypatch.setattr(ahp, "_principal_eigenvector", never)
        with pytest.raises(ValidationError) as info:
            derive_weights(m)
        assert str(info.value) == "matrix 'big': RI undefined for order > 9"


class TestRiLookup:
    def test_published_values(self):
        expected = [0.0, 0.0, 0.58, 0.90, 1.12, 1.24, 1.32, 1.41, 1.45]
        assert [ri_lookup(n) for n in range(1, 10)] == expected

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            ri_lookup(10)
        with pytest.raises(ValidationError):
            ri_lookup(0)


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


def _reference_power_iteration(a: np.ndarray) -> np.ndarray:
    """Power iteration as written before its step was trimmed; the oracle for the new step."""
    n = a.shape[0]
    w = np.full(n, 1.0 / n)
    for _ in range(ahp.POWER_MAX_ITER):
        nxt = a @ w
        nxt /= nxt.sum()
        if abs(nxt - w).max() < ahp.POWER_TOL:
            return nxt
        w = nxt
    raise AssertionError("the reference did not converge")


def _reciprocal_token(tok: str) -> str:
    return tok[2:] if tok.startswith("1/") else ("1" if tok == "1" else f"1/{tok}")


@st.composite
def jittered_matrices(draw):
    """Positive reciprocal matrices of orders 1-9: Saaty tokens beside jittered
    ratios of a random weight vector, each clipped to 1/9..9."""
    n = draw(st.integers(min_value=1, max_value=9))
    weights = [draw(st.floats(min_value=0.05, max_value=1.0)) for _ in range(n)]
    rows: list[list[object]] = [["1"] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                tok = draw(st.sampled_from(sorted(ahp.SAATY_TOKENS)))
                rows[i][j], rows[j][i] = tok, _reciprocal_token(tok)
            else:
                r = weights[i] / weights[j] * draw(st.floats(min_value=0.5, max_value=2.0))
                r = min(max(r, 1 / 9), 9.0)
                rows[i][j], rows[j][i] = r, 1.0 / r
    return JudgmentMatrix("m", [f"x{i}" for i in range(n)], rows)


class TestPowerIterationOracle:
    @given(jittered_matrices())
    @example(goal_matrix())
    @example(JudgmentMatrix("one", ["a"], [["1"]]))
    @settings(max_examples=300, deadline=None)
    def test_same_bits_as_the_reference_loop(self, m):
        a = m.to_array()
        n = m.order
        w = _reference_power_iteration(a)
        lambda_max = float(np.mean((a @ w) / w))
        ci = (lambda_max - n) / (n - 1) if n >= 2 else 0.0
        cr = 0.0 if n <= 2 else ci / ri_lookup(n)

        weights, report = derive_weights(m)
        assert np.array(weights.values()).tobytes() == w.tobytes()
        got = (report.lambda_max, report.ci, report.cr)
        assert [x.hex() for x in got] == [x.hex() for x in (lambda_max, ci, cr)]

    def test_nan_entries_never_converge(self):
        a = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(ValidationError, match="did not converge"):
            ahp._principal_eigenvector(a)


class TestAhpProperties:
    @given(reciprocal_matrices())
    @settings(max_examples=60, deadline=None)
    def test_lambda_max_at_least_order(self, matrix):
        _, report = derive_weights(matrix)
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
