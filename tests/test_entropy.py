import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from siteval import (
    DecisionMatrix,
    ValidationError,
    column_shares,
    entropy_weights,
    information_entropy,
)


def _matrix(columns: dict[str, list[float]]) -> DecisionMatrix:
    indicators = tuple(columns)
    n = len(next(iter(columns.values())))
    values = tuple(
        tuple(columns[ind][i] for ind in indicators) for i in range(n)
    )
    return DecisionMatrix(
        alternatives=tuple(f"S{i+1}" for i in range(n)),
        indicators=indicators,
        values=values,
    )


class TestColumnShares:
    def test_direct_ratio(self):
        p = column_shares(_matrix({"X": [2, 1, 1]}))
        assert p[:, 0] == pytest.approx([0.5, 0.25, 0.25], abs=1e-15)

    def test_uniform_column(self):
        p = column_shares(_matrix({"X": [3.7, 3.7, 3.7]}))
        assert p[:, 0] == pytest.approx([1 / 3] * 3, abs=1e-15)

    def test_single_mass_column(self):
        p = column_shares(_matrix({"X": [0, 1, 0]}))
        assert p[:, 0] == pytest.approx([0.0, 1.0, 0.0], abs=0)

    def test_zero_column_named(self):
        with pytest.raises(ValidationError, match="degenerate indicator column 'X2'"):
            column_shares(_matrix({"X1": [1, 1], "X2": [0, 0]}))

    def test_overflowing_column_sum_named_without_numpy_warning(self):
        # pytest turns any warning into an error, so a numpy overflow warning fails here.
        message = "^indicator column 'X1': sum too large for a float$"
        with pytest.raises(ValidationError, match=message):
            column_shares(_matrix({"X1": [1e308, 1e308], "X2": [1, 2]}))

    def test_columns_sum_to_one(self):
        m = _matrix({"X1": [1, 2, 3], "X2": [5, 0.5, 1]})
        p = column_shares(m)
        assert p.sum(axis=0) == pytest.approx([1.0, 1.0], abs=1e-12)


class TestInformationEntropy:
    def test_uniform_is_maximal(self):
        assert information_entropy([1 / 3] * 3, 3) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_is_zero(self):
        assert information_entropy([0, 1, 0], 3) == pytest.approx(0.0, abs=0)

    def test_hand_computed_value(self):
        # -(0.5 ln 0.5 + 2 * 0.25 ln 0.25) / ln 3
        assert information_entropy([0.5, 0.25, 0.25], 3) == pytest.approx(0.9464, abs=1e-4)

    def test_shares_must_sum_to_one(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            information_entropy([0.5, 0.3], 2)

    def test_negative_share_rejected(self):
        with pytest.raises(ValidationError, match="non-negative"):
            information_entropy([-0.1, 1.1], 2)


class TestEntropyWeights:
    def test_informative_column_takes_all(self):
        w = entropy_weights(_matrix({"X1": [2, 1, 1], "X2": [1, 1, 1]}))
        assert w["X1"] == pytest.approx(1.0, abs=1e-9)
        assert w["X2"] == pytest.approx(0.0, abs=1e-9)

    def test_identical_columns_split_evenly(self):
        w = entropy_weights(_matrix({"X1": [3, 1, 2], "X2": [3, 1, 2]}))
        assert w["X1"] == pytest.approx(0.5, abs=1e-12)
        assert w["X2"] == pytest.approx(0.5, abs=1e-12)

    def test_all_uniform_has_no_information(self):
        with pytest.raises(ValidationError, match="no information content"):
            entropy_weights(_matrix({"X1": [1, 1, 1], "X2": [2, 2, 2]}))

    def test_negative_data_rejected_at_ingestion(self):
        with pytest.raises(ValidationError, match="negative"):
            _matrix({"X1": [1, -2, 3]})

    def test_single_row_rejected(self):
        with pytest.raises(ValidationError, match="at least 2"):
            DecisionMatrix(("S1",), ("X1",), ((1.0,),))


class TestDecisionMatrixContract:
    def test_values_are_read_only_float64(self):
        m = _matrix({"X1": [1, 2], "X2": [3, 4]})
        assert m.values.dtype == np.float64 and m.values.shape == (2, 2)
        with pytest.raises(ValueError):
            m.values[0, 0] = 9.0

    def test_caller_array_is_copied(self):
        raw = np.array([[1.0, 2.0], [3.0, 4.0]])
        m = DecisionMatrix(("S1", "S2"), ("X1", "X2"), raw)
        raw[0, 0] = 9.0
        assert m.values[0, 0] == 1.0
        assert raw.flags.writeable

    def test_equality_compares_ids_and_values(self):
        a = _matrix({"X1": [1, 2], "X2": [3, 4]})
        assert a == _matrix({"X1": [1.0, 2.0], "X2": [3.0, 4.0]})
        assert a != _matrix({"X1": [1, 2], "X2": [3, 5]})
        assert a != _matrix({"X1": [1, 2], "Y2": [3, 4]})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_value_names_cell(self, bad):
        with pytest.raises(ValidationError, match=r"\(S2, X2\): non-finite value"):
            _matrix({"X1": [1, 2, 3], "X2": [1, bad, 3]})

    def test_null_cell_is_not_a_number(self):
        # float64 reads None as NaN; the error words it as parse_float does.
        with pytest.raises(
            ValidationError, match=r"^decision matrix \(S2, X2\): not a number: None$"
        ):
            _matrix({"X1": [1, 2, 3], "X2": [1, None, 3]})

    def test_first_offending_cell_in_row_major_order(self):
        with pytest.raises(ValidationError, match=r"\(S2, X1\): negative value -1"):
            _matrix({"X1": [1, -1, 2], "X2": [1, 2, -3]})

    def test_ragged_row_is_shape_mismatch(self):
        with pytest.raises(ValidationError, match="shape mismatch: expected 2x2"):
            DecisionMatrix(("S1", "S2"), ("X1", "X2"), ((1.0, 2.0), (3.0,)))

    def test_missing_row_is_shape_mismatch(self):
        with pytest.raises(ValidationError, match="shape mismatch: expected 3x1"):
            DecisionMatrix(("S1", "S2", "S3"), ("X1",), ((1.0,), (2.0,)))

    def test_non_numeric_cell_is_not_a_number(self):
        with pytest.raises(ValidationError, match=r"\(S2, X1\): not a number: 'abc'"):
            DecisionMatrix(("S1", "S2"), ("X1", "X2"), ((1.0, 2.0), ("abc", 4.0)))

    @pytest.mark.parametrize("flag", [True, False, np.True_])
    def test_bool_cell_is_not_a_number(self, flag):
        with pytest.raises(
            ValidationError,
            match=rf"^decision matrix \(S2, X1\): not a number: {re.escape(repr(flag))}$",
        ):
            DecisionMatrix(("S1", "S2"), ("X1", "X2"), ((1.0, 0.0), (flag, 4.0)))

    def test_int_beyond_float_range_names_cell(self):
        with pytest.raises(ValidationError, match=r"\(S1, X2\): number too large for a float"):
            DecisionMatrix(("S1", "S2"), ("X1", "X2"), ((1, 10**400), (3, 4)))


columns_strategy = st.lists(
    st.lists(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False, allow_subnormal=False),
        min_size=3,
        max_size=3,
    ),
    min_size=2,
    max_size=5,
).filter(
    lambda cols: all(sum(c) > 0 for c in cols)
    and any(len(set(c)) > 1 for c in cols)
)


class TestEntropyProperties:
    @given(columns_strategy)
    @settings(max_examples=50, deadline=None)
    def test_weights_sum_to_one_and_are_nonnegative(self, cols):
        m = _matrix({f"X{i}": c for i, c in enumerate(cols)})
        w = entropy_weights(m)
        assert w.total() == pytest.approx(1.0, abs=1e-12)
        assert all(w[k] >= 0 for k in w.ids)

    @given(columns_strategy)
    @settings(max_examples=50, deadline=None)
    def test_entropy_bounds(self, cols):
        m = _matrix({f"X{i}": c for i, c in enumerate(cols)})
        p = column_shares(m)
        n = len(m.alternatives)
        for j, ind in enumerate(m.indicators):
            e = information_entropy(p[:, j], n)
            assert -1e-12 <= e <= 1.0 + 1e-12
            col = [row[j] for row in m.values]
            if len(set(col)) == 1:
                assert e == pytest.approx(1.0, abs=1e-9)

    @given(columns_strategy, st.floats(min_value=0.01, max_value=100))
    @settings(max_examples=50, deadline=None)
    def test_column_scale_invariance(self, cols, factor):
        # A column scaled below the normal float range underflows to zeros and
        # is rightly rejected as degenerate, so the property does not apply.
        assume(sum(v * factor for v in cols[0]) >= sys.float_info.min)
        base = entropy_weights(_matrix({f"X{i}": c for i, c in enumerate(cols)}))
        scaled_cols = {f"X{i}": c for i, c in enumerate(cols)}
        scaled_cols["X0"] = [v * factor for v in scaled_cols["X0"]]
        scaled = entropy_weights(_matrix(scaled_cols))
        for k in base.ids:
            assert scaled[k] == pytest.approx(base[k], abs=1e-9)

    @given(columns_strategy, st.permutations(range(3)))
    @settings(max_examples=50, deadline=None)
    def test_row_permutation_invariance(self, cols, perm):
        m = _matrix({f"X{i}": c for i, c in enumerate(cols)})
        permuted = DecisionMatrix(
            alternatives=tuple(m.alternatives[i] for i in perm),
            indicators=m.indicators,
            values=tuple(m.values[i] for i in perm),
        )
        base = entropy_weights(m)
        shuffled = entropy_weights(permuted)
        for k in base.ids:
            assert shuffled[k] == pytest.approx(base[k], abs=1e-12)

    @given(columns_strategy)
    @settings(max_examples=50, deadline=None)
    def test_column_permutation_permutes_weights(self, cols):
        named = {f"X{i}": c for i, c in enumerate(cols)}
        base = entropy_weights(_matrix(named))
        reversed_cols = dict(reversed(list(named.items())))
        flipped = entropy_weights(_matrix(reversed_cols))
        for k in base.ids:
            assert flipped[k] == pytest.approx(base[k], abs=1e-12)
