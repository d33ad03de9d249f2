"""Fuzz of `ProjectConfig.from_dict`: the fixture with one key path mutated.

Every mutation must end in one of two ways: a `ValidationError` whose message
starts with the pipeline stage that raised it, or reports (with and without
the bundled survey) whose numbers are all finite.
"""
import copy
import json
import math
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from siteval import ProjectConfig, ValidationError, ingest_survey, run_pipeline

FIXTURES = Path(__file__).parent / "fixtures"
FIXTURE = json.loads((FIXTURES / "campus_bikeshare.json").read_text())
SURVEY = ingest_survey(
    FIXTURES / "survey_round2.csv", ProjectConfig.from_dict(FIXTURE).classes
)
STAGES = ("config", "screen", "ahp", "entropy", "fuse", "fuzzy")

DELETE = "<delete>"
HUGE = 10**310  # a JSON int no float can hold
REPLACEMENTS = (DELETE, None, "x", "", [], [1, "x"], {}, {"k": 1}, math.nan, HUGE)


def _key_paths(node, prefix=()):
    """Every key path below `node`, parents before children."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _key_paths(child, prefix + (key,))


PATHS = tuple(_key_paths(FIXTURE))


def _mutated(path, value):
    data = copy.deepcopy(FIXTURE)
    parent = data
    for key in path[:-1]:
        parent = parent[key]
    if value == DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return data


def _numbers(node):
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for child in node:
            yield from _numbers(child)
    elif isinstance(node, float):
        yield node


@given(st.sampled_from(PATHS), st.sampled_from(REPLACEMENTS))
@example(("alpha",), HUGE)
@example(("membership", "C1", "Good"), HUGE)
@example(("screening", "min_mean"), HUGE)
@example(("judgment_matrices", "goal", 0, 1), HUGE)
@example(("judgment_matrices", "goal", 0, 1), "1" + "0" * 400)
@example(("screening", "overrides", 0), "x")
@settings(max_examples=300, deadline=None)
def test_one_mutation_gives_a_finite_report_or_a_stage_error(path, value):
    try:
        cfg = ProjectConfig.from_dict(_mutated(path, value))
        reports = [run_pipeline(cfg), run_pipeline(cfg, survey=SURVEY)]
    except ValidationError as exc:
        assert str(exc).split(":", 1)[0] in STAGES, str(exc)
        return
    for report in reports:
        numbers = list(_numbers(report.to_json_dict()))
        assert numbers and all(math.isfinite(x) for x in numbers), path
