import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path

import siteval
from siteval.report import TOOL_VERSION

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "siteval"
# Run-time imports among these modules go left to right only.
LAYERS = ("config", "report", "pipeline", "cli")


def test_star_import_binds_every_public_name():
    # A name in __all__ that the package no longer defines makes this raise.
    namespace: dict = {}
    exec("from siteval import *", namespace)
    assert set(siteval.__all__) <= set(namespace)


def test_public_names_are_pinned():
    # Adding or removing a public name is an API change: edit this list with it.
    assert list(siteval.__all__) == [
        "AlphaSweep", "ConsistencyReport", "Criterion", "DecisionMatrix",
        "EvaluationReport", "FuzzyVector", "GradeScale", "Indicator",
        "IndicatorHierarchy", "IndicatorStats", "JudgmentMatrix", "MembershipMatrix",
        "ProjectConfig", "ReportWarning", "RespondentClass", "Response",
        "ScreeningCriteria", "ScreeningResult", "SurveyRound", "SweepRow",
        "ValidationError", "Verdict", "WeightVector", "derive_weights",
        "emit_report", "entropy_weights", "fuse", "information_entropy",
        "ingest_survey", "load_config", "parse_ratio", "read_decision_matrix",
        "ri_lookup", "round_statistics", "run_pipeline", "screen", "sweep_alpha",
        "synthesize_global", "validate_hierarchy", "verdict",
    ]


def test_one_version_string():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    declared = re.search(r'^version = "([^"]+)"$', pyproject, re.MULTILINE)
    assert declared is not None
    assert declared.group(1) == TOOL_VERSION == siteval.__version__


def test_import_does_not_load_package_metadata():
    code = "import siteval, sys; assert 'importlib.metadata' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT / "src")


def test_readme_python_examples_run(monkeypatch):
    # The blocks build on each other, so they share one namespace and run in order.
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, re.MULTILINE | re.DOTALL)
    assert len(blocks) == 4
    monkeypatch.chdir(ROOT)
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def test_benchmark_tracer_finds_every_target(monkeypatch, fixture_dir):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    tracer = importlib.import_module("tracing").Tracer()
    tracer.install()
    try:
        cfg = siteval.load_config(fixture_dir / "campus_bikeshare.json")
        siteval.emit_report(siteval.run_pipeline(cfg), "json")
        siteval.sweep_alpha(cfg, [0.0, 0.5, 1.0])
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    names = [span[0] for span in tracer.spans]
    assert names.count("fuzzy.verdict") == 1  # run_pipeline's verdict
    # The first run keeps the `paper` first level; each run composes the second.
    assert names.count("fuzzy.first_level") == 1
    assert names.count("fuzzy.second_level") == 2
    assert "pipeline.sweep_alpha.weighted-average" in names


def _imports(tree: ast.Module):
    """(siteval module, names taken from it) of every import outside `if TYPE_CHECKING:`."""
    stack: list[ast.AST] = [tree]
    while stack:
        node = stack.pop()
        test = getattr(node, "test", None)
        if isinstance(node, ast.If) and "TYPE_CHECKING" in (
            getattr(test, "id", None), getattr(test, "attr", None)
        ):
            stack.extend(node.orelse)
            continue
        stack.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("siteval."):
                    yield alias.name.removeprefix("siteval."), []
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "siteval" and not module.startswith("siteval."):
                    continue
                module = module.removeprefix("siteval").removeprefix(".")
            names = [alias.name for alias in node.names]
            if module:
                yield module, names
            else:  # `from . import x`: x is a module or a name of the package
                for name in names:
                    yield name, [name]


def test_modules_import_no_private_names_and_respect_the_layers():
    problems = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for source, names in _imports(ast.parse(path.read_text(encoding="utf-8"))):
            problems += [f"{module}: imports {source}.{n}" for n in names if n.startswith("_")]
            if module in LAYERS and source in LAYERS:
                if LAYERS.index(source) > LAYERS.index(module):
                    problems.append(f"{module}: imports {source} at run time")
    assert problems == []
