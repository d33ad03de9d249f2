import math
import re
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from siteval import (
    DecisionMatrix,
    ValidationError,
    WeightVector,
    entropy_weights,
    information_entropy,
)
from siteval import entropy
from siteval.core import float_sum


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
    """`entropy_weights` divides each column by its sum, so it names the first
    column whose sum is zero or too large for a float."""

    def test_zero_column_named(self):
        with pytest.raises(ValidationError, match="degenerate indicator column 'X2'"):
            entropy_weights(_matrix({"X1": [1, 2], "X2": [0, 0]}))

    def test_overflowing_column_sum_named_without_numpy_warning(self):
        # pytest turns any warning into an error, so a numpy overflow warning fails here.
        message = "^indicator column 'X1': sum too large for a float$"
        with pytest.raises(ValidationError, match=message):
            entropy_weights(_matrix({"X1": [1e308, 1e308], "X2": [1, 2]}))


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

    def test_bools_in_binary_matrix_name_the_first_in_row_order(self):
        # Every cell reads 0.0 or 1.0, so every row is a suspect.
        values = [[1.0, 0.0, 1.0], [0.0, 1.0, False], [True, 0.0, 1.0]]
        with pytest.raises(ValidationError) as exc:
            DecisionMatrix(("S1", "S2", "S3"), ("X1", "X2", "X3"), values)
        assert str(exc.value) == "decision matrix (S2, X3): not a number: False"
        with pytest.raises(ValidationError) as exc:
            DecisionMatrix(("S1", "S2"), ("X1", "X2"), np.array([[0, 1], [1, 0]], dtype=bool))
        assert str(exc.value) == f"decision matrix (S1, X1): not a number: {np.False_!r}"
        binary = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert DecisionMatrix(("S1", "S2"), ("X1", "X2"), binary).values.tolist() == [
            [0.0, 1.0], [1.0, 0.0]
        ]

    @pytest.mark.parametrize(
        "alts, inds, message",
        [
            (("S1", ""), ("X1",), "decision matrix: empty alternative id at index 1"),
            (("S1", "S2"), ("", "X2"), "decision matrix: empty indicator id at index 0"),
            (("S1", " "), ("X1",), "decision matrix: empty alternative id at index 1"),
            (("S1", "S2"), ("X1", "\t"), "decision matrix: empty indicator id at index 1"),
            (("S1", "S2"), ("\u3000", "X2"), "decision matrix: empty indicator id at index 0"),
        ],
        ids=["alternative", "indicator", "space-alternative", "tab-indicator", "wide-space"],
    )
    def test_empty_id_is_named(self, alts, inds, message):
        with pytest.raises(ValidationError) as exc:
            DecisionMatrix(alts, inds, ((1.0,) * len(inds),) * 2)
        assert str(exc.value) == message

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
        p = m.values / m.values.sum(axis=0)
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


def _reference_weights(m: DecisionMatrix) -> dict[str, float]:
    """The column-at-a-time algorithm, inlined: one strided 1-D entropy per column."""
    x = m.values
    with np.errstate(over="ignore"):
        sums = x.sum(axis=0)
    for ind, s in zip(m.indicators, sums):
        if s <= 0:
            raise ValidationError(f"degenerate indicator column {ind!r}: sum is zero")
        if s == np.inf:
            raise ValidationError(f"indicator column {ind!r}: sum too large for a float")
    p = x / sums
    n = len(m.alternatives)
    entropies = []
    for j in range(len(m.indicators)):
        col = p[:, j]
        if np.any(col < 0):
            raise ValidationError("shares must be non-negative")
        if abs(col.sum() - 1.0) > 1e-9:
            raise ValidationError(f"shares must sum to 1, got {col.sum()}")
        nz = col[col > 0]
        entropies.append(float(-(nz * np.log(nz)).sum() / np.log(n)))
    divergences = [max(0.0, 1.0 - e) for e in entropies]
    total = float_sum(divergences)
    if total <= 1e-12:
        raise ValidationError("no information content: all indicator columns are uniform")
    return {ind: d / total for ind, d in zip(m.indicators, divergences)}


def _outcome(f):
    try:
        return repr(f())
    except ValidationError as exc:
        return f"ValidationError: {exc}"


@st.composite
def _observations(draw):
    """A seeded random (n, I) matrix: n spans numpy's 8-wide and 128-wide sum blocks."""
    n = draw(st.integers(min_value=2, max_value=600))
    cols = draw(st.integers(min_value=1, max_value=40))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kind = draw(st.sampled_from(["real", "int", "lognormal"]))
    scale = draw(st.sampled_from([1.0, 1e-300, 1e5, 1e306]))
    if kind == "real":
        x = rng.random((n, cols)) * scale
    elif kind == "int":
        x = rng.integers(0, 4, (n, cols)).astype(float)
    else:
        e = np.exp(rng.normal(0.0, 1.0, (n, cols)) * rng.uniform(0.1, 1.2, cols))
        x = scale * (e / e.max())  # at most `scale`, so no cell overflows
    x[rng.random((n, cols)) < draw(st.sampled_from([0.0, 0.02, 0.3, 0.9]))] = 0.0
    for j in draw(st.lists(st.integers(0, cols - 1), max_size=2)):
        x[:, j] = draw(st.sampled_from([0.0, 0.1, 3.0]))  # a zero or a constant column
    return x


class TestBlockedEntropyWeights:
    @given(_observations(), st.sampled_from([1, 100, entropy._BLOCK_CELLS]))
    @settings(max_examples=120, deadline=None)
    def test_equals_per_column_reference(self, x, block_cells):
        n, cols = x.shape
        m = DecisionMatrix(
            tuple(f"S{i}" for i in range(n)), tuple(f"X{j}" for j in range(cols)), x
        )
        expected = _outcome(lambda: WeightVector(_reference_weights(m)).as_dict())
        with mock.patch.object(entropy, "_BLOCK_CELLS", block_cells):
            # repr tells every bit apart, and -0.0 from 0.0
            assert _outcome(lambda: entropy_weights(m).as_dict()) == expected

    @pytest.mark.parametrize(
        "columns, message",
        [
            ({"X1": [1, 2], "X2": [0, 0], "X3": [1e308, 1e308]},
             "degenerate indicator column 'X2': sum is zero"),
            ({"X1": [1, 2], "X2": [1e308, 1e308], "X3": [0, 0]},
             "indicator column 'X2': sum too large for a float"),
            ({"X1": [1, 1], "X2": [2.5, 2.5]},
             "no information content: all indicator columns are uniform"),
        ],
    )
    def test_column_errors_in_column_order(self, columns, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            entropy_weights(_matrix(columns))

    @pytest.mark.parametrize(
        "cell, message",
        [
            (-1, "negative value -1.0"),
            (math.nan, "non-finite value nan"),
            (math.inf, "non-finite value inf"),
            (-math.inf, "non-finite value -inf"),
            (True, "not a number: True"),
        ],
    )
    def test_bad_cell_messages(self, cell, message):
        with pytest.raises(
            ValidationError, match=f"^{re.escape(f'decision matrix (S3, X2): {message}')}$"
        ):
            _matrix({"X1": [1, 2, 3], "X2": [1, 2, cell]})

    def test_size_zero_matrix(self):
        m = DecisionMatrix(("S1", "S2"), (), ((), ()))
        assert m.values.shape == (2, 0)
        with pytest.raises(ValidationError, match="^no information content"):
            entropy_weights(m)


_CELLS = st.one_of(
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
    st.just(-0.0),
    st.floats(min_value=0.0, max_value=sys.float_info.min, exclude_max=True),  # subnormals
    st.integers(min_value=0, max_value=2**53),
    st.integers(min_value=2**53 + 1, max_value=2**1000),
    st.floats(min_value=0.0, allow_nan=False, allow_infinity=False).map(np.float64),
    st.sampled_from([True, False, np.True_, np.False_]),
)


@st.composite
def _nested_rows(draw):
    """A list or tuple of list or tuple rows of non-negative number cells."""
    rows = draw(st.integers(min_value=2, max_value=6))
    cols = draw(st.integers(min_value=1, max_value=5))
    outer = draw(st.sampled_from([list, tuple]))
    return outer(
        draw(st.sampled_from([list, tuple]))(draw(st.lists(_CELLS, min_size=cols, max_size=cols)))
        for _ in range(rows)
    )


def _gen_rows():
    yield (1.0, 2.0)
    yield (3.0, 4.0)


class _Row(list):
    pass


class TestPackedRows:
    """List and tuple rows are packed row by row; the result is `np.array`'s, bit for bit."""

    @given(_nested_rows())
    @settings(max_examples=300, deadline=None)
    def test_values_equal_numpy_conversion(self, values):
        alts = tuple(f"S{i}" for i in range(len(values)))
        inds = tuple(f"X{j}" for j in range(len(values[0])))
        flags = [
            (i, j, cell)
            for i, row in enumerate(values)
            for j, cell in enumerate(row)
            if isinstance(cell, (bool, np.bool_))
        ]
        if flags:
            i, j, cell = flags[0]
            with pytest.raises(ValidationError) as exc:
                DecisionMatrix(alts, inds, values)
            assert str(exc.value) == f"decision matrix (S{i}, X{j}): not a number: {cell!r}"
        else:
            m = DecisionMatrix(alts, inds, values)
            # Byte equality tells -0.0 from 0.0 and every rounding of a large int.
            assert m.values.tobytes() == np.array(values, dtype=np.float64).tobytes()
        packed = entropy._packed(values, len(alts), len(inds))
        assert packed.tobytes() == np.array(values, dtype=np.float64).tobytes()

    # Each outcome was recorded before the packer existed, when every input
    # went through `np.array`; an input the packer declines must still give it.
    @pytest.mark.parametrize(
        "make, expected",
        [
            (lambda: np.array([[1.0, 2.5], [3.0, 4.0]]), [[1.0, 2.5], [3.0, 4.0]]),
            (lambda: np.array([[1, 2], [3, 4]]), [[1.0, 2.0], [3.0, 4.0]]),
            (lambda: ("12", "34"), "decision matrix shape mismatch: expected 2x2"),
            (lambda: (b"12", b"34"), "decision matrix shape mismatch: expected 2x2"),
            (lambda: ({1.0, 2.0}, {3.0, 4.0}), "decision matrix shape mismatch: expected 2x2"),
            (
                lambda: ((x for x in (1.0, 2.0)), (x for x in (3.0, 4.0))),
                "decision matrix shape mismatch: expected 2x2",
            ),
            (_gen_rows, "decision matrix shape mismatch: expected 2x2"),
            (lambda: (_Row([1.0, 2.0]), _Row([3.0, 4.0])), [[1.0, 2.0], [3.0, 4.0]]),
            (lambda: (("1.5", 2.0), (3.0, 4.0)), [[1.5, 2.0], [3.0, 4.0]]),
            (lambda: ((b"1.5", 2.0), (3.0, 4.0)), [[1.5, 2.0], [3.0, 4.0]]),
            (
                lambda: ((1.0, 2.0), ("abc", 4.0)),
                "decision matrix (S2, X1): not a number: 'abc'",
            ),
            # A bad cell in a declined row is named before a negative in a packed one.
            (
                lambda: ((-1.0, 2.0), ("abc", 4.0)),
                "decision matrix (S2, X1): not a number: 'abc'",
            ),
            (lambda: ((1.0, 2.0), (None, 4.0)), "decision matrix (S2, X1): not a number: None"),
            (lambda: ((1.0, 2.0), (3.0,)), "decision matrix shape mismatch: expected 2x2"),
            (lambda: ((1.0, 2.0), (3.0, 4.0, 5.0)), "decision matrix shape mismatch: expected 2x2"),
            (lambda: ((1.0, 2.0),), "decision matrix shape mismatch: expected 2x2"),
            (
                lambda: ((1.0, 2.0), (3.0, 4.0), (5.0, 6.0)),
                "decision matrix shape mismatch: expected 2x2",
            ),
            (
                lambda: ((1, 10**400), (3, 4)),
                "decision matrix (S1, X2): number too large for a float",
            ),
            (
                lambda: ((np.array([1.5]), 2.0), (3.0, 4.0)),
                "decision matrix (S1, X1): not a number: array([1.5])",
            ),
            (lambda: (([1.5], 2.0), (3.0, 4.0)), "decision matrix (S1, X1): not a number: [1.5]"),
        ],
        ids=[
            "ndarray", "int-ndarray", "str-rows", "bytes-rows", "set-rows", "generator-rows",
            "generator-of-rows", "list-subclass-rows", "str-number-cell", "bytes-cell",
            "str-cell", "str-cell-after-negative", "none-cell", "short-row", "long-row",
            "missing-row", "extra-row", "int-too-large", "array-cell", "list-cell",
        ],
    )
    def test_declined_input_keeps_its_outcome(self, make, expected):
        assert entropy._packed(make(), 2, 2) is None
        if isinstance(expected, str):
            with pytest.raises(ValidationError) as exc:
                DecisionMatrix(("S1", "S2"), ("X1", "X2"), make())
            assert str(exc.value) == expected
        else:
            values = DecisionMatrix(("S1", "S2"), ("X1", "X2"), make()).values
            assert values.dtype == np.float64 and values.tolist() == expected


class TestEntropyAlongLastAxis:
    @given(_observations())
    @settings(max_examples=40, deadline=None)
    def test_each_row_equals_its_one_dimensional_entropy(self, x):
        with np.errstate(over="ignore"):
            sums = x.sum(axis=0)
        keep = (sums > 0) & (sums < np.inf)
        assume(keep.any())
        rows = (x[:, keep] / sums[keep]).T.copy()
        n = x.shape[0]
        out = information_entropy(rows, n)
        assert out.shape == (rows.shape[0],)
        assert repr(out.tolist()) == repr([information_entropy(r, n) for r in rows])
        stacked = information_entropy(np.stack([rows, rows[::-1]]), n)
        assert repr(stacked.tolist()) == repr([out.tolist(), out[::-1].tolist()])

    def test_one_dimensional_input_gives_a_float(self):
        assert type(information_entropy([0.5, 0.5], 2)) is float
        assert type(information_entropy(np.array([0.5, 0.5]), 2)) is float

    def test_first_bad_row_raises(self):
        good = [0.5, 0.5]
        with pytest.raises(ValidationError, match=r"^shares must sum to 1, got 0\.8$"):
            information_entropy([good, [0.4, 0.4], [-0.5, 1.5]], 2)
        with pytest.raises(ValidationError, match="^shares must be non-negative$"):
            information_entropy([good, [-0.5, 1.5], [0.4, 0.4]], 2)

    def test_two_observations_needed(self):
        with pytest.raises(ValidationError, match="at least 2 observations"):
            information_entropy([[1.0], [1.0]], 1)
