import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siteval import ValidationError, WeightVector, fuse

# Printed criterion-level weight vectors used by the bundled fixture.
SUBJ_CRIT = {"B1": 0.487, "B2": 0.276, "B3": 0.118, "B4": 0.118}
OBJ_CRIT = {"B1": 0.2081, "B2": 0.533, "B3": 0.0457, "B4": 0.2132}


def blend(subj, obj, alpha):
    """The row of `fuse` at one alpha, keyed by id."""
    (row,) = fuse(subj, obj, [alpha])
    return dict(zip(subj.ids, row.tolist()))


class TestFuse:
    def test_midpoint_on_single_indicator(self):
        out = blend(
            WeightVector({"C1": 0.289, "C2": 0.711}),
            WeightVector({"C1": 0.0460, "C2": 0.954}),
            0.5,
        )
        assert out["C1"] == pytest.approx(0.1675, abs=1e-12)

    def test_alpha_one_returns_subjective(self):
        subj = WeightVector({"a": 0.6, "b": 0.4})
        obj = WeightVector({"a": 0.2, "b": 0.8})
        out = blend(subj, obj, 1.0)
        assert out == pytest.approx(subj.as_dict(), abs=1e-15)

    def test_alpha_zero_returns_objective(self):
        subj = WeightVector({"a": 0.6, "b": 0.4})
        obj = WeightVector({"a": 0.2, "b": 0.8})
        out = blend(subj, obj, 0.0)
        assert out == pytest.approx(obj.as_dict(), abs=1e-15)

    def test_heavy_objective_indicator(self):
        out = blend(
            WeightVector({"C4": 0.018, "C5": 0.982}),
            WeightVector({"C4": 0.3449, "C5": 0.6551}),
            0.5,
        )
        assert out["C4"] == pytest.approx(0.18145, abs=1e-12)

    def test_criterion_level_fusion(self):
        # Printed weights carry rounding, so scale them to sum 1 before blending.
        subj, obj = (
            WeightVector({k: v / sum(w.values()) for k, v in w.items()})
            for w in (SUBJ_CRIT, OBJ_CRIT)
        )
        out = blend(subj, obj, 0.5)
        assert out["B1"] == pytest.approx(0.348, abs=0.001)
        assert out["B2"] == pytest.approx(0.405, abs=0.001)
        assert out["B3"] == pytest.approx(0.082, abs=0.001)
        assert out["B4"] == pytest.approx(0.166, abs=0.001)

    def test_id_mismatch_lists_difference(self):
        with pytest.raises(ValidationError) as err:
            fuse(WeightVector({"a": 1.0}), WeightVector({"b": 1.0}), [0.5])
        assert "'a'" in str(err.value) and "'b'" in str(err.value)

    def test_unnormalized_input_rejected(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            fuse(
                WeightVector({"a": 0.9, "b": 0.3}),
                WeightVector({"a": 0.5, "b": 0.5}),
                [0.5],
            )

    def test_alpha_out_of_range(self):
        subj = WeightVector({"a": 0.6, "b": 0.4})
        obj = WeightVector({"a": 0.2, "b": 0.8})
        for alphas, bad in (([1.5], "1.5"), ([-0.1], "-0.1"), ([0.2, np.nan, 2.0], "nan")):
            with pytest.raises(ValidationError, match=rf"alpha must be in \[0, 1\], got {bad}$"):
                fuse(subj, obj, alphas)

    @pytest.mark.parametrize(
        "alphas, shown",
        [([True], "True"), ([0.5, False], "False"), ([b"1"], "b'1'"), (["0.5"], "'0.5'"),
         ([None], "None"), (np.array([True]), repr(np.True_))],
    )
    def test_alpha_not_a_number(self, alphas, shown):
        subj = WeightVector({"a": 0.6, "b": 0.4})
        obj = WeightVector({"a": 0.2, "b": 0.8})
        with pytest.raises(ValidationError) as err:
            fuse(subj, obj, alphas)
        assert str(err.value) == f"alpha is not a number: {shown}"


@st.composite
def weight_pairs(draw):
    n = draw(st.integers(min_value=2, max_value=6))
    ids = [f"k{i}" for i in range(n)]

    def vec():
        vals = [draw(st.floats(min_value=0.01, max_value=1.0)) for _ in ids]
        total = sum(vals)
        return WeightVector({k: v / total for k, v in zip(ids, vals)})

    return vec(), vec()


class TestFusionProperties:
    @given(weight_pairs(), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60)
    def test_convexity(self, pair, alpha):
        subj, obj = pair
        out = blend(subj, obj, alpha)
        for k in subj.ids:
            lo, hi = min(subj[k], obj[k]), max(subj[k], obj[k])
            assert lo - 1e-12 <= out[k] <= hi + 1e-12

    @given(weight_pairs())
    @settings(max_examples=60)
    def test_midpoint_is_mean_of_endpoints(self, pair):
        subj, obj = pair
        mid = blend(subj, obj, 0.5)
        for k in subj.ids:
            assert mid[k] == pytest.approx((subj[k] + obj[k]) / 2, abs=1e-15)

    @given(weight_pairs(), st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=60)
    def test_sum_preserved(self, pair, alpha):
        subj, obj = pair
        out = blend(subj, obj, alpha)
        expected = alpha * subj.total() + (1 - alpha) * obj.total()
        assert sum(out.values()) == pytest.approx(expected, abs=1e-12)

    @given(
        weight_pairs(),
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6),
    )
    @settings(max_examples=60)
    def test_grid_rows_equal_scalar_blend(self, pair, alphas):
        subj, obj = pair
        grid = fuse(subj, obj, np.array(alphas))
        assert grid.shape == (len(alphas), len(subj.ids))
        for row, a in zip(grid.tolist(), alphas):
            assert row == [a * subj[k] + (1.0 - a) * obj[k] for k in subj.ids]
            assert list(blend(subj, obj, a).values()) == row
