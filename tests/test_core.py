import math
import re
import struct
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siteval import (
    Criterion,
    DecisionMatrix,
    GradeScale,
    Indicator,
    IndicatorHierarchy,
    MembershipMatrix,
    ValidationError,
    WeightVector,
    validate_hierarchy,
    verdict,
)
from siteval.core import error_prefix, float_sum, parse_float
from siteval.fuzzy import FuzzyVector

GOOD_POOR = GradeScale(("Good", "Poor"))
THREE_GRADES = GradeScale(("Excellent", "Good", "Poor"))


def _hierarchy(criteria_children: dict[str, list[str]]) -> IndicatorHierarchy:
    return IndicatorHierarchy(
        goal_name="goal",
        criteria=tuple(
            Criterion(cid, cid, tuple(Indicator(i, i) for i in kids))
            for cid, kids in criteria_children.items()
        ),
    )


class TestGradeScale:
    def test_order_is_preserved(self):
        scale = GradeScale(["Excellent", "Good", "Poor"])
        assert scale.labels == ("Excellent", "Good", "Poor")

    def test_requires_two_grades(self):
        with pytest.raises(ValidationError):
            GradeScale(("Only",))

    def test_rejects_duplicates(self):
        with pytest.raises(ValidationError):
            GradeScale(("Good", "Good", "Poor"))

    def test_unknown_grade(self):
        # A grade is read against the scale in the vector's own order, so the
        # first grade outside the scale is the one named.
        scale = GradeScale(("Good", "Poor"))
        cases = (
            ({"Good": 0.5, "Great": 0.3, "Awful": 0.2}, "Great"),
            ({"Awful": 0.2, "Poor": 0.5, "Great": 0.3}, "Awful"),
        )
        for b, first in cases:
            with pytest.raises(ValidationError, match=f"^unknown grade '{first}'$"):
                verdict(FuzzyVector(b), scale)


class TestValidateHierarchy:
    def test_four_criteria_fourteen_indicators_ok(self):
        h = _hierarchy(
            {
                "B1": ["C1", "C2", "C3"],
                "B2": ["C4", "C5", "C6", "C7", "C8", "C9"],
                "B3": ["C10", "C11"],
                "B4": ["C12", "C13", "C14"],
            }
        )
        assert validate_hierarchy(h) == []
        assert len(h.indicator_ids()) == 14

    def test_duplicate_membership_flagged(self):
        h = _hierarchy({"B1": ["C1", "C2"], "B2": ["C2"]})
        assert validate_hierarchy(h) == ["indicators: duplicate ids ['C2']"]

    def test_empty_criteria_flagged(self):
        h = IndicatorHierarchy(goal_name="g", criteria=())
        violations = validate_hierarchy(h)
        assert any("empty criteria list" in v for v in violations)

    def test_duplicate_criterion_and_empty_children_flagged(self):
        h = IndicatorHierarchy(
            goal_name="g",
            criteria=(
                Criterion("B1", "B1", (Indicator("C1", "C1"),)),
                Criterion("B1", "B1", ()),
            ),
        )
        assert validate_hierarchy(h) == [
            "criterion 'B1': duplicate criterion id",
            "criterion 'B1': empty children list",
        ]

    def test_criterion_children_are_its_indicator_ids(self):
        c = Criterion("B1", "B1", [Indicator("C2", "C2"), Indicator("C1", "C1", "quantitative")])
        assert c.indicators == (Indicator("C2", "C2"), Indicator("C1", "C1", "quantitative"))
        assert c.children == ("C2", "C1")

    def test_ok_implies_every_indicator_resolves_once(self):
        h = _hierarchy({"B1": ["C1", "C2"], "B2": ["C3"]})
        assert validate_hierarchy(h) == []
        for ind in h.indicator_ids():
            assert [c.id for c in h.criteria if ind in c.children] in (["B1"], ["B2"])


class TestMembershipMatrix:
    def test_entry_out_of_range_rejected(self):
        with pytest.raises(ValidationError, match="outside"):
            MembershipMatrix({"C1": {"Good": 1.2, "Poor": 0.0}}, GOOD_POOR)

    def test_row_sum_above_one_rejected(self):
        with pytest.raises(ValidationError, match="exceeds 1"):
            MembershipMatrix({"C1": {"Good": 0.7, "Poor": 0.5}}, GOOD_POOR)

    def test_mismatched_grade_sets_rejected(self):
        with pytest.raises(
            ValidationError, match=r"^membership row 'C2': missing grades \['Poor'\]$"
        ):
            MembershipMatrix(
                {"C1": {"Good": 0.5, "Poor": 0.5}, "C2": {"Good": 0.5, "Bad": 0.5}}, GOOD_POOR
            )

    def test_row_sum_deviation_flagged(self):
        m = MembershipMatrix(
            {
                "C1": {"Excellent": 0.1, "Good": 0.45, "Poor": 0.4},
                "C2": {"Excellent": 0.3, "Good": 0.6, "Poor": 0.1},
            },
            THREE_GRADES,
        )
        assert list(m.row_sums) == ["C1", "C2"]
        assert m.row_sums["C1"] - 1.0 == pytest.approx(-0.05, abs=1e-12)
        assert m.row_sums["C2"] == 1.0

    @pytest.mark.parametrize("row", [(0.1, 0.45, 0.4), (0.1, 0.4, 0.45), (0.05, 0.45, 0.45)])
    def test_row_sum_does_not_depend_on_cell_order(self, row):
        # Each row is 19/20 exactly; added in grade order, the first gives
        # 0.9500000000000001 and the other two 0.95.
        m = MembershipMatrix({"C1": dict(zip(THREE_GRADES.labels, row))}, THREE_GRADES)
        assert m.row_sums == {"C1": math.fsum(row)}
        assert math.fsum(row) == 0.9500000000000001

    def test_to_array_reads_rows_in_the_given_order(self):
        m = MembershipMatrix(
            {"C1": {"Good": 0.5, "Poor": 0.5}, "C2": {"Poor": 0.75, "Good": 0.25}}, GOOD_POOR
        )
        a = m.to_array(["C2", "C1"])
        assert a.dtype == np.float64
        assert a.tolist() == [[0.25, 0.75], [0.5, 0.5]]
        with pytest.raises(ValidationError, match="^missing membership row for indicator 'C9'$"):
            m.to_array(["C1", "C9"])


class TestFloatSum:
    def test_adds_left_to_right_without_compensation(self):
        # Compensated summation (the builtin `sum` from Python 3.12) and `fsum` give 1.0.
        assert float_sum([0.1] * 10) == 0.9999999999999999
        assert math.fsum([0.1] * 10) == 1.0

    def test_starts_from_positive_zero(self):
        assert float_sum([]) == 0.0
        assert math.copysign(1.0, float_sum([-0.0])) == 1.0
        assert math.copysign(1.0, float_sum([-0.0, -0.0])) == 1.0

    @given(st.lists(st.floats(allow_nan=False)))
    def test_matches_a_plain_loop(self, values):
        total = 0.0
        for v in values:
            total = total + v
        assert struct.pack("<d", float_sum(values)) == struct.pack("<d", total)
        assert struct.pack("<d", float_sum(iter(values))) == struct.pack("<d", total)

    def test_vector_totals_use_it(self):
        tenths = {f"k{i}": 0.1 for i in range(10)}
        assert WeightVector(tenths).total() == 0.9999999999999999
        assert FuzzyVector(tenths).total() == 0.9999999999999999


class TestIdsAreStr:
    """Every type that keys data by id takes `str` ids as given and rejects any other.

    So `1` and `"1"` are never merged into one id.
    """

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: WeightVector({"1": 0.25, 1: 0.5}), "weight id must be a str, got 1"),
            (lambda: FuzzyVector({"1": 0.25, 1: 0.5}), "grade must be a str, got 1"),
            (
                lambda: MembershipMatrix(
                    {"1": {"Good": 0.25, "Poor": 0.5}, 1: {"Good": 0.5, "Poor": 0.5}}, GOOD_POOR
                ),
                "membership row id must be a str, got 1",
            ),
            (lambda: GradeScale(("Good", 1)), "grade label must be a str, got 1"),
            (
                lambda: DecisionMatrix(("x", "y"), (1, 2), [[1.0, 2.0], [3.0, 4.0]]),
                "decision matrix: indicator id must be a str, got 1",
            ),
            (
                lambda: DecisionMatrix((b"x", "y"), ("a", "b"), [[1.0, 2.0], [3.0, 4.0]]),
                "decision matrix: alternative id must be a str, got b'x'",
            ),
            (lambda: WeightVector({"a": 0.5, None: 0.5}), "weight id must be a str, got None"),
        ],
        ids=[
            "weight-vector", "fuzzy-vector", "membership-matrix", "grade-scale",
            "decision-matrix-indicator", "decision-matrix-alternative", "weight-vector-none",
        ],
    )
    def test_non_str_id_rejected(self, build, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            build()

    def test_str_subclass_ids_accepted(self):
        # A numpy string is a `str`, so it is an id as it is.
        assert WeightVector({np.str_("a"): 0.5}).ids == ("a",)


# Weight values of every kind a caller may pass: exact floats (NaN, infinities
# and -0.0 too), numpy floats, ints, bools and text.
weight_values = (
    st.floats()
    | st.floats().map(np.float64)
    | st.integers(-(10**400), 10**400)
    | st.sampled_from([-0.0, 0.0, 5e-324, True, "x", None])
)


def _outcome(weights):
    try:
        wv = WeightVector(weights)
    except ValidationError as exc:
        return str(exc)
    assert all(type(v) is float for v in wv.weights.values())
    # Bit patterns, so -0.0 and 0.0 differ.
    return [(k, struct.pack("<d", v)) for k, v in wv.weights.items()]


class TestWeightVectorPaths:
    @settings(max_examples=300)
    @given(st.dictionaries(st.text(max_size=3), weight_values, max_size=5))
    @example({"a": -0.0, "b": np.float64(0.5), "c": 2})
    @example({"a": 0.5, "b": float("nan")})
    def test_one_pass_and_per_entry_agree(self, weights):
        # An exact dict takes the one-pass check; a read-only view of it, the per-entry path.
        assert _outcome(weights) == _outcome(MappingProxyType(weights))

    def test_result_does_not_share_the_callers_dict(self):
        weights = {"a": 0.5}
        wv = WeightVector(weights)
        weights["a"] = 0.75
        assert wv["a"] == 0.5

    def test_membership_and_iteration_raise_type_error(self):
        # Only `[k]` reads a vector; `in` and iteration would otherwise fall back
        # to `__getitem__(0)` and raise KeyError: 0.
        wv = WeightVector({"a": 0.5})
        with pytest.raises(TypeError, match="not iterable"):
            "a" in wv
        with pytest.raises(TypeError, match="not iterable"):
            list(wv)
        assert "a" in wv.weights and list(wv.ids) == ["a"]

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            WeightVector({"a": -0.1, "b": 1.1})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(ValidationError, match="non-finite weight for 'b'"):
            WeightVector({"a": 0.5, "b": bad})


class TestFloatConversion:
    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda v: WeightVector({"a": v}), r"^weight for 'a': "),
            (
                lambda v: MembershipMatrix({"C1": {"Poor": 0.0, "Good": v}}, GOOD_POOR),
                r"^membership row 'C1', grade 'Good': ",
            ),
            (lambda v: FuzzyVector({"Good": v}), r"^membership for grade 'Good': "),
        ],
    )
    def test_unconvertible_value_names_key(self, build, message):
        with pytest.raises(ValidationError, match=message + "number too large for a float"):
            build(10**400)
        with pytest.raises(ValidationError, match=message + "not a number: 'x'"):
            build("x")
        with pytest.raises(ValidationError, match=message + "not a number: None"):
            build(None)
        with pytest.raises(ValidationError, match=message + "not a number: True"):
            build(True)

    @pytest.mark.parametrize("flag", [np.True_, np.False_])
    @pytest.mark.parametrize(
        "build, where",
        [
            (lambda v, cfg: parse_float(v, "cell {}", "A1"), "cell A1"),
            (lambda v, cfg: WeightVector({"a": v}), "weight for 'a'"),
            (
                lambda v, cfg: MembershipMatrix({"C1": {"Poor": 0.0, "Good": v}}, GOOD_POOR),
                "membership row 'C1', grade 'Good'",
            ),
            (lambda v, cfg: FuzzyVector({"Good": v}), "membership for grade 'Good'"),
            (lambda v, cfg: cfg.with_overrides(alpha=v), "config: alpha"),
        ],
        ids=["parse_float", "WeightVector", "MembershipMatrix", "FuzzyVector", "with_overrides"],
    )
    def test_numpy_bool_is_not_a_number(self, build, where, flag, campus_config):
        # float(np.True_) is 1.0, so a numpy bool would otherwise read as a number.
        with pytest.raises(ValidationError) as exc:
            build(flag, campus_config)
        assert str(exc.value) == f"{where}: not a number: {flag!r}"


class TestErrorPrefix:
    def test_prefixes_and_chains_the_original(self):
        original = ValidationError("bad cell")
        with pytest.raises(ValidationError) as info:
            with error_prefix("entropy"):
                raise original
        assert str(info.value) == "entropy: bad cell"
        assert info.value.__cause__ is original
        assert info.value.__context__ is original
        assert info.value.__suppress_context__

    def test_nested_prefixes_read_outside_in(self):
        with pytest.raises(ValidationError, match="^config: decision matrix: x$"):
            with error_prefix("config"), error_prefix("decision matrix"):
                raise ValidationError("x")

    def test_other_errors_pass_unchanged(self):
        original = KeyError("k")
        with pytest.raises(KeyError) as info:
            with error_prefix("config"):
                raise original
        assert info.value is original
        assert info.value.__cause__ is None and info.value.__context__ is None

    def test_block_without_error_runs_through(self):
        ran = []
        with error_prefix("config") as entered:
            ran.append(1)
        assert ran == [1] and entered is None
