"""The file readers pause the cyclic collector while they parse.

The pause is safe only because the readers build no reference cycles, so these
tests pin that premise, and that the caller's collector setting survives every
exit from a reader.
"""
import gc

import pytest

from siteval import (
    RespondentClass,
    ValidationError,
    ingest_survey,
    load_config,
    read_decision_matrix,
)
from siteval.config import read_weight_file

CLASSES = (RespondentClass("expert", 0.8), RespondentClass("end_user", 0.2))

READERS = {
    "config": load_config,
    "survey": lambda path: ingest_survey(path, CLASSES),
    "matrix": read_decision_matrix,
    "weights": read_weight_file,
}

FIXTURES = [
    ("config", "campus_bikeshare.json"),
    ("config", "campus_decision.json"),  # an inline decision_matrix
    ("survey", "survey_round2.csv"),
    ("matrix", "decision_blocks.csv"),
    ("weights", "weights_objective.json"),
]

BAD_FILES = [
    ("config", "bad.json", '{"goal": '),
    ("config", "bad.json", '{"goal": "x"}'),
    ("weights", "bad.json", "[1"),
    ("weights", "bad.json", '{"C1": "heavy"}'),
    ("survey", "bad.csv", "indicator,respondent,class,score\nC3,r07,alien,4\n"),
    ("matrix", "bad.csv", "alternative,X1\nS1,abc\n"),
]


@pytest.fixture(params=[True, False], ids=["gc-on", "gc-off"])
def caller_gc(request):
    """The caller's collector setting, restored to on after the test."""
    if request.param:
        gc.enable()
    else:
        gc.disable()
    yield request.param
    gc.enable()


@pytest.mark.parametrize("reader, name", FIXTURES)
def test_reader_restores_the_callers_setting(fixture_dir, caller_gc, reader, name):
    READERS[reader](fixture_dir / name)
    assert gc.isenabled() is caller_gc


@pytest.mark.parametrize("reader, name, text", BAD_FILES)
def test_failing_reader_restores_the_callers_setting(tmp_path, caller_gc, reader, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValidationError):
        READERS[reader](path)
    assert gc.isenabled() is caller_gc


@pytest.mark.parametrize("reader, name", FIXTURES)
def test_reader_builds_no_cycles(fixture_dir, reader, name):
    # The result is dropped at once, so a cycle anywhere in it or in the
    # reader's temporaries would be found here.
    gc.collect()
    gc.disable()
    try:
        READERS[reader](fixture_dir / name)
        assert gc.collect() == 0
    finally:
        gc.enable()
