"""The indent-2 JSON writer against the stdlib, and the cycles a report leaves."""
import gc
import json
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from siteval import run_pipeline
from siteval.pipeline import emit_report
from siteval.report import json_text

# Text that `ensure_ascii` escapes: non-ASCII, control characters, quotes,
# backslashes, a line separator and a lone surrogate.
AWKWARD = ["", "é", "城市", "\x00", "\x1f", "\x7f", '"', "\\", "\u2028", "\ud800", "😀"]
texts = st.text() | st.sampled_from(AWKWARD) | st.lists(st.sampled_from(AWKWARD)).map("".join)
numbers = (
    st.integers()
    | st.integers(min_value=2**64, max_value=2**200)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, 5e-324, 1e16, math.nan, math.inf, -math.inf, -(2**70)])
)
scalars = st.none() | st.booleans() | numbers | texts
trees = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(texts, children, max_size=4)
    ),
    max_leaves=30,
)


@settings(max_examples=300)
@given(trees)
@example({})
@example([])
@example(())
@example({"a": {}, "b": [[], {}], "c": ({"": None},)})
@example(  # a screening section: ints, None, empty lists and bools among floats
    {
        "stats": [
            {"indicator": "C1", "mean": 4.2, "cv": 0.0, "gcr": None, "respondent_count": 10},
            {"indicator": "C2", "mean": 3.0, "cv": -0.0, "gcr": 4.5, "respondent_count": 0},
        ],
        "selected": [{"indicator": "C1", "failed": []}],
        "rejected": [{"indicator": "C2", "failed": ["mean", "cv"]}],
        "overridden": [],
        "verdict": {"grade": "Good", "membership": 0.5, "tied": False, "flag": True},
    }
)
def test_matches_json_dumps(obj):
    assert json_text(obj) == json.dumps(obj, indent=2)


def test_emit_report_leaves_no_cycles(campus_config):
    report = run_pipeline(campus_config)
    gc.collect()
    gc.disable()
    try:
        emit_report(report, "json")
        assert gc.collect() == 0
    finally:
        gc.enable()
