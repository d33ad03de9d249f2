"""The indent-2 JSON writer against the stdlib, and the cycles a report leaves."""
import gc
import json
import math
from collections import OrderedDict

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siteval import run_pipeline
from siteval.pipeline import emit_report
from siteval.report import _FLAT, json_text

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


class Count(int):
    def __repr__(self) -> str:
        return f"Count({int(self)})"


def nested_list(depth: int) -> list:
    """A flat list of two floats inside `depth` one-item lists."""
    obj: list = [0.25, -1e300]
    for _ in range(depth):
        obj = [obj]
    return obj


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
@example({"a": np.float64(0.1), "b": 2.5})  # a float subclass: the walker, not the C encoder
@example([1.5, Count(7), "x"])  # an int subclass whose own repr json.dumps does not use
@example({"a": 0.5, "b": OrderedDict([("x", 1.0), ("y", [2, {"z": None}])])})
@example({"a": OrderedDict(), "b": [OrderedDict([("k", [])])]})
@example(OrderedDict([("a", [1.0])]))
@example(nested_list(len(_FLAT) + 2))  # a flat list deeper than any cached encoder
@example({1: [[1]]})  # keys that json.dumps converts to str, in a dict the walker lays out
@example({None: {"a": [1]}, True: [2]})
@example({"a": {2.5: [{}], "b": [1]}})
@example(  # every kind of leaf in a dict the walker lays out, as the nested list makes it
    {"l": [[1]], "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "-0": -0.0, "big": 2**70,
     "e": "é", "none": None, "t": True, "f": False, "d": {}, "tup": ()}
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
