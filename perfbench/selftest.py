"""Tests of the benchmark's own checks: clean outputs pass, corrupted ones fail.

    python3 -m pytest perfbench/selftest.py

Each corruption is aimed at one check and asserts that a failure carrying that
check's id is reported. The file is not named test_*.py, so the repository's
own test run does not collect it.
"""
from __future__ import annotations

import copy
import json
import math
import pickle
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import checks  # noqa: E402
import gen  # noqa: E402
import siteval  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402

FIXTURES = ROOT / "tests" / "fixtures"


@pytest.fixture(scope="module")
def fixture_run():
    config, survey = FIXTURES / "campus_bikeshare.json", FIXTURES / "survey_round2.csv"
    case = checks.Case(config)
    text, md = worker.make_op(siteval, "fixture-evaluate", config, survey)()
    return case, checks.Survey(survey, case), text, md


@pytest.fixture(scope="module")
def synthetic_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("gen")
    gen.generate(7, out)
    config, survey = out / "config.json", out / "survey.csv"
    case = checks.Case(config)
    text, _ = worker.make_op(siteval, "synthetic-evaluate", config, survey)()
    return case, checks.Survey(survey, case), json.loads(text), out


@pytest.fixture(scope="module")
def sweep_run():
    config = FIXTURES / "campus_bikeshare.json"
    wa, mm = worker.make_op(siteval, "fixture-sweep", config, None)()
    case = checks.Case(config)
    return case, worker.sweep_rows(wa, case.grades), worker.sweep_rows(mm, case.grades)


def test_clean_outputs_pass(fixture_run, synthetic_run, sweep_run):
    case, survey, text, md = fixture_run
    report = json.loads(text)
    assert checks.check_report(report, case, survey) == []
    assert checks.check_markdown(md, report) == []
    s_case, s_survey, s_report, _ = synthetic_run
    assert checks.check_report(s_report, s_case, s_survey) == []
    w_case, wa, mm = sweep_run
    assert checks.check_sweep(wa, worker.GRID, w_case, "weighted-average", "paper") == []
    assert checks.check_sweep(mm, worker.GRID, w_case, "min-max", "fused-both") == []


def _bump(d: dict, key: str, by: float) -> None:
    d[key] += by


REPORT_CORRUPTIONS = {
    "ahp.weights": lambda r: _bump(r["weights"]["criterion"]["subjective"], "B1", 1e-7),
    "ahp.consistency": lambda r: _bump(r["consistency"]["B2"], "cr", 1e-7),
    "fusion.weights": lambda r: _bump(r["weights"]["indicator"]["comprehensive"], "C4", 1e-7),
    "fuzzy.first_level": lambda r: _bump(r["first_level"]["B3"], "Good", 1e-7),
    "fuzzy.second_level": lambda r: _bump(r["second_level"], "Poor", 1e-7),
    "fuzzy.verdict": lambda r: r["verdict"].update(grade="Poor"),
    "report.finite": lambda r: r["first_level"]["B1"].update(Good=math.nan),
    "report.sum": lambda r: r["weights"]["indicator"]["relative"]["B4"].update(
        {k: v * 1.01 for k, v in r["weights"]["indicator"]["relative"]["B4"].items()}),
    "report.hash": lambda r: r["provenance"].update(config_sha256="0" * 63),
    "report.provenance": lambda r: r["provenance"].update(weights_policy="fused-both"),
    "delphi.stats": lambda r: _bump(r["screening"]["stats"][0], "mean", 1e-9),
    "delphi.screen": lambda r: r["screening"]["selected"].append(r["screening"]["rejected"].pop()),
}


@pytest.mark.parametrize("check_id", sorted(REPORT_CORRUPTIONS))
def test_report_corruption_is_rejected(fixture_run, check_id):
    case, survey, text, _ = fixture_run
    report = json.loads(text)
    REPORT_CORRUPTIONS[check_id](report)
    failures = checks.check_report(report, case, survey)
    assert any(f.startswith(check_id) for f in failures), failures


def test_consistency_flag_is_checked(fixture_run):
    case, survey, text, _ = fixture_run
    report = json.loads(text)
    report["consistency"]["goal"]["consistent"] = False
    assert any(f.startswith("ahp.consistency") for f in checks.check_report(report, case, survey))


def test_entropy_corruption_is_rejected(synthetic_run):
    case, survey, report, _ = synthetic_run
    report = copy.deepcopy(report)
    objective = report["weights"]["indicator"]["objective"]
    objective["C1"] += 1e-8
    objective["C2"] -= 1e-8  # keeps the sum at 1, so only the oracle can tell
    failures = checks.check_report(report, case, survey)
    assert [f for f in failures if f.startswith("entropy.weights")], failures


def test_markdown_and_bytes_corruption_is_rejected(fixture_run, tmp_path):
    case, survey, text, md = fixture_run
    report = json.loads(text)
    assert checks.check_markdown(md.replace("## Verdict", "## Nothing").replace(
        f"| {report['verdict']['grade']} |", "| ? |"), report)
    with open(tmp_path / "oracle.pickle", "wb") as fh:
        pickle.dump((case, survey), fh)
    check = worker.make_check("fixture-evaluate", tmp_path / "oracle.pickle")
    assert check((text, md)) == []
    assert check((text.replace("\n", "\r\n", 1), md)) == [
        "report.bytes: JSON differs from the first op on equal input"]


def test_hash_properties_are_checked():
    a, b = "a" * 64, "b" * 64
    assert checks.check_hash(a, a, b) == []
    assert checks.check_hash(a, b, b)[0].startswith("report.hash")
    assert checks.check_hash(a, a, a)[0].startswith("report.hash")


def _set(rows: list, i: int, g: int, value: float) -> None:
    rows[i][1][g] = value


# (name, check id expected to fire, corruption, operators it applies to)
SWEEP_CORRUPTIONS = [
    ("row-missing", "sweep.rows", lambda rows: rows.pop(500), ("weighted-average", "min-max")),
    ("rows-reversed", "sweep.rows", lambda rows: rows.reverse(), ("weighted-average", "min-max")),
    ("not-affine", "sweep.affine", lambda rows: _set(rows, 500, 0, rows[500][1][0] + 1e-11),
     ("weighted-average",)),
    ("vector-off", "fuzzy.second_level", lambda rows: _set(rows, 10, 1, rows[10][1][1] + 1e-7),
     ("weighted-average", "min-max")),
    ("wrong-grade", "fuzzy.verdict",
     lambda rows: rows.__setitem__(3, rows[3][:2] + ("Poor",) + rows[3][3:]),
     ("weighted-average", "min-max")),
    ("infinite", "report.finite", lambda rows: _set(rows, 7, 2, math.inf),
     ("weighted-average", "min-max")),
]


@pytest.mark.parametrize("name,check_id,corrupt,operator", [
    pytest.param(name, check_id, corrupt, op, id=f"{name}-{op}")
    for name, check_id, corrupt, ops in SWEEP_CORRUPTIONS for op in ops
])
def test_sweep_corruption_is_rejected(sweep_run, name, check_id, corrupt, operator):
    case, wa, mm = sweep_run
    rows = copy.deepcopy(wa if operator == "weighted-average" else mm)
    corrupt(rows)
    policy = "paper" if operator == "weighted-average" else "fused-both"
    failures = checks.check_sweep(rows, worker.GRID, case, operator, policy)
    assert any(f.startswith(check_id) for f in failures), failures


def test_generator_is_seeded_and_consistent(synthetic_run, tmp_path):
    case, _, _, out = synthetic_run
    assert all(c["cr"] < checks.CR_LIMIT for c in case.consistency.values())
    assert len(case.indicators) == 81 and case.entropy_cells == 2000 * 81
    gen.generate(7, tmp_path)
    for name in ("config.json", "survey.csv"):
        assert (tmp_path / name).read_bytes() == (out / name).read_bytes()


def test_tracer_records_nested_spans_and_restores(monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + (("pipeline", "no_such_stage"),))
    originals = (siteval.run_pipeline, siteval.pipeline.derive_weights,
                 vars(siteval.ProjectConfig)["from_dict"])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        cfg = siteval.load_config(FIXTURES / "campus_bikeshare.json")
        siteval.run_pipeline(cfg)
    finally:
        tracer.uninstall()
    assert tracer.missing == ["pipeline.no_such_stage"]
    assert (siteval.run_pipeline, siteval.pipeline.derive_weights,
            vars(siteval.ProjectConfig)["from_dict"]) == originals
    totals = tracing.per_op(tracer.spans, 0, tracer.mark())
    assert totals["ahp.derive_weights_calls"] == 5
    assert totals["pipeline.validate_calls"] == 2
    assert totals["pipeline.config_hash_calls"] == 1
    names = {s[0]: i for i, s in enumerate(tracer.spans)}
    parent_of_hash = tracer.spans[names["pipeline.config_hash"]][3]
    assert tracer.spans[parent_of_hash][0] == "pipeline.run_pipeline"
    assert 0 < totals["pipeline.run_pipeline_self_ms"] < totals["pipeline.run_pipeline_ms"]
