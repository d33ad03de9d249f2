import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from siteval import ProjectConfig, ValidationError, emit_report, load_config, run_pipeline
from siteval.cli import MIN_SWEEP_STEP, _parse_grid, main


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEvaluate:
    def test_json_output(self, capsys, fixture_dir):
        code, out, _ = _run(
            capsys, ["evaluate", "--config", str(fixture_dir / "campus_bikeshare.json")]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"]["grade"] == "Good"
        assert payload["schema_version"] == 2

    def test_markdown_output(self, capsys, fixture_dir):
        code, out, _ = _run(
            capsys,
            [
                "evaluate",
                "--config",
                str(fixture_dir / "campus_bikeshare.json"),
                "--format",
                "md",
            ],
        )
        assert code == 0
        assert "B3 | 0.1250 | 0.5500 | 0.3250" in out

    def test_alpha_override_reaches_subjective_endpoint(self, capsys, fixture_dir):
        code, out, _ = _run(
            capsys,
            [
                "evaluate",
                "--config",
                str(fixture_dir / "campus_bikeshare.json"),
                "--alpha",
                "1",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        weights = payload["weights"]["indicator"]
        assert weights["comprehensive"] == pytest.approx(weights["subjective"])

    def test_json_is_emit_report_plus_newline(self, capsys, fixture_dir):
        config = fixture_dir / "campus_bikeshare.json"
        code, out, _ = _run(capsys, ["evaluate", "--config", str(config)])
        assert code == 0
        assert out == emit_report(run_pipeline(load_config(config)), "json") + "\n"

    def test_survey_flag_adds_screening(self, capsys, fixture_dir):
        code, out, _ = _run(
            capsys,
            [
                "evaluate",
                "--config",
                str(fixture_dir / "campus_bikeshare.json"),
                "--survey",
                str(fixture_dir / "survey_round2.csv"),
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["screening"] is not None
        assert {s["indicator"] for s in payload["screening"]["stats"]} == {"C1", "C2", "C3"}

    def test_output_file(self, capsys, fixture_dir, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = _run(
            capsys,
            [
                "evaluate",
                "--config",
                str(fixture_dir / "campus_bikeshare.json"),
                "--output",
                str(target),
            ],
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["verdict"]["grade"] == "Good"

    def test_deterministic_output(self, capsys, fixture_dir):
        argv = ["evaluate", "--config", str(fixture_dir / "campus_bikeshare.json")]
        _, first, _ = _run(capsys, argv)
        _, second, _ = _run(capsys, argv)
        assert first == second

    def test_missing_config_exits_one(self, capsys, tmp_path):
        code, _, err = _run(capsys, ["evaluate", "--config", str(tmp_path / "none.json")])
        assert code == 1
        assert "error:" in err

    def test_malformed_config_shape_exits_one(self, capsys, fixture_dir, tmp_path):
        huge = 10**400  # parses as a JSON int, but no float can hold it

        def drop_criterion_id(d):
            del d["criteria"][0]["id"]

        def huge_judgment(d):
            d["judgment_matrices"]["goal"][0][1] = huge

        def huge_decision_cell(d):
            ids = list(d.pop("objective_weights"))
            d["decision_matrix"] = {
                "alternatives": ["S1", "S2"],
                "indicators": ids,
                "values": [[1] * len(ids), [huge] + [1] * (len(ids) - 1)],
            }

        cases = [
            (drop_criterion_id, "config: criteria[0]: missing key 'id'"),
            (lambda d: d.update(alpha=huge), "config: alpha: number too large for a float"),
            (
                lambda d: d["membership"]["C1"].update(Good=huge),
                "config: membership.C1.Good: number too large for a float",
            ),
            (
                lambda d: d["screening"].update(min_mean=huge),
                "config: screening.min_mean: number too large for a float",
            ),
            (
                huge_judgment,
                "config: matrix 'goal': entry (B1, B2): comparison entry too large for a float",
            ),
            (
                huge_decision_cell,
                "config: decision matrix (S2, C1): number too large for a float",
            ),
            # JSON true is a bool, not the number 1.
            (lambda d: d.update(alpha=True), "config: alpha: not a number: True"),
            (
                lambda d: d["membership"]["C1"].update(Good=True),
                "config: membership.C1.Good: not a number: True",
            ),
            (
                lambda d: d["screening"].update(min_mean=True),
                "config: screening.min_mean: not a number: True",
            ),
            (
                lambda d: d["objective_weights"].update(C1=True),
                "config: objective_weights.C1: not a number: True",
            ),
        ]
        for corrupt, message in cases:
            data = json.loads((fixture_dir / "campus_bikeshare.json").read_text())
            corrupt(data)
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(data))
            code, out, err = _run(capsys, ["evaluate", "--config", str(path)])
            assert code == 1
            assert out == ""
            assert message in err
            assert "Traceback" not in err

    def test_bad_format_is_usage_error(self, fixture_dir):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "evaluate",
                    "--config",
                    str(fixture_dir / "campus_bikeshare.json"),
                    "--format",
                    "xml",
                ]
            )
        assert exc.value.code == 2

    def test_unknown_subcommand_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2


class TestScreen:
    def test_screen_partition(self, capsys, fixture_dir):
        code, out, _ = _run(
            capsys,
            [
                "screen",
                "--survey",
                str(fixture_dir / "survey_round2.csv"),
                "--config",
                str(fixture_dir / "campus_bikeshare.json"),
            ],
        )
        assert code == 0
        payload = json.loads(out)
        selected = {d["indicator"] for d in payload["selected"]}
        rejected = {d["indicator"] for d in payload["rejected"]}
        assert "C1" in selected
        assert "C2" in rejected
        by_id = {s["indicator"]: s for s in payload["stats"]}
        assert by_id["C1"]["mean"] == pytest.approx(4.0)
        assert by_id["C1"]["full_mark_rate"] == pytest.approx(0.92)

    def test_override_flag_moves_indicator(self, capsys, fixture_dir):
        code, out, _ = _run(
            capsys,
            [
                "screen",
                "--survey",
                str(fixture_dir / "survey_round2.csv"),
                "--config",
                str(fixture_dir / "campus_bikeshare.json"),
                "--override",
                "C2,C3",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        overridden = {d["indicator"] for d in payload["overridden"]}
        assert {"C2", "C3"} <= overridden
        for d in payload["overridden"]:
            assert d["failed"]

    def test_unknown_override_id_exits_one(self, capsys, fixture_dir):
        code, out, err = _run(
            capsys,
            [
                "screen",
                "--survey",
                str(fixture_dir / "survey_round2.csv"),
                "--config",
                str(fixture_dir / "campus_bikeshare.json"),
                "--override",
                "C2,ZZ",
            ],
        )
        assert code == 1
        assert out == ""
        assert err == "error: screen: unknown override ids: ['ZZ']\n"

    def test_markdown_format(self, capsys, fixture_dir):
        code, out, _ = _run(
            capsys,
            [
                "screen",
                "--survey",
                str(fixture_dir / "survey_round2.csv"),
                "--config",
                str(fixture_dir / "campus_bikeshare.json"),
                "--format",
                "md",
            ],
        )
        assert code == 0
        assert "| C1 |" in out


class TestAhpCommand:
    def test_nodes_and_global_weights(self, capsys, fixture_dir):
        code, out, _ = _run(
            capsys, ["ahp", "--config", str(fixture_dir / "campus_bikeshare.json")]
        )
        assert code == 0
        payload = json.loads(out)
        goal = payload["nodes"]["goal"]
        assert goal["weights"]["B1"] == pytest.approx(0.487, abs=0.005)
        assert goal["consistency"]["cr"] == pytest.approx(0.0592, abs=0.003)
        assert payload["global_subjective"]["C1"] == pytest.approx(0.289, abs=0.001)

    def _inconsistent_config(self, fixture_dir, tmp_path):
        data = json.loads((fixture_dir / "campus_bikeshare.json").read_text())
        data["judgment_matrices"]["goal"] = [
            ["1", "9", "1/9", "1"],
            ["1/9", "1", "9", "1"],
            ["9", "1/9", "1", "1"],
            ["1", "1", "1", "1"],
        ]
        path = tmp_path / "inconsistent.json"
        path.write_text(json.dumps(data))
        return path, ProjectConfig.from_dict(data)

    def test_inconsistent_goal_matrix_exits_one(self, capsys, fixture_dir, tmp_path):
        path, _ = self._inconsistent_config(fixture_dir, tmp_path)
        code, out, err = _run(capsys, ["ahp", "--config", str(path)])
        assert code == 1
        assert out == ""
        assert err.startswith(
            "error: ahp: judgment matrix 'goal' failed the consistency check"
        )

    def test_allow_inconsistent_matches_pipeline(self, capsys, fixture_dir, tmp_path):
        path, cfg = self._inconsistent_config(fixture_dir, tmp_path)
        code, out, _ = _run(capsys, ["ahp", "--config", str(path), "--allow-inconsistent"])
        assert code == 0
        payload = json.loads(out)
        assert not payload["nodes"]["goal"]["consistency"]["consistent"]
        report = run_pipeline(cfg, allow_inconsistent=True)
        assert payload["global_subjective"] == report.indicator_subjective.as_dict()

    def test_allow_inconsistent_prints_warnings_to_stderr(self, capsys, fixture_dir, tmp_path):
        path, cfg = self._inconsistent_config(fixture_dir, tmp_path)
        expected = [
            f"warning: {w.code}: {w.message}"
            for w in run_pipeline(cfg, allow_inconsistent=True).warnings
            if w.code == "inconsistent-judgment-matrix"
        ]
        assert len(expected) == 1 and "'goal'" in expected[0]
        for fmt in ("json", "md"):
            code, out, err = _run(
                capsys,
                ["ahp", "--config", str(path), "--allow-inconsistent", "--format", fmt],
            )
            assert code == 0 and out
            assert err.splitlines() == expected

    def test_consistent_config_prints_no_warnings(self, capsys, fixture_dir):
        code, _, err = _run(
            capsys,
            ["ahp", "--config", str(fixture_dir / "campus_bikeshare.json"), "--allow-inconsistent"],
        )
        assert code == 0 and err == ""


class TestEntropyCommand:
    def test_weights_from_matrix(self, capsys, fixture_dir):
        code, out, _ = _run(
            capsys, ["entropy", "--matrix", str(fixture_dir / "decision_small.csv")]
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["weights"]["X1"] == pytest.approx(1.0, abs=1e-9)
        assert payload["weights"]["X2"] == pytest.approx(0.0, abs=1e-9)

    def test_infinite_cell_exits_one(self, capsys, tmp_path):
        p = tmp_path / "m.csv"
        p.write_text("alternative,X1,X2\nS1,2,1\nS2,1,inf\nS3,1,1\n")
        code, out, err = _run(capsys, ["entropy", "--matrix", str(p)])
        assert code == 1
        assert out == ""
        assert "(S2, X2): non-finite value inf" in err

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("S1,2,0\nS2,1,0\nS3,1,0\n", "degenerate indicator column 'X2': sum is zero"),
            ("S1,1e308,1\nS2,1e308,2\nS3,1,1\n", "indicator column 'X1': sum too large for a float"),
        ],
    )
    def test_entropy_errors_name_the_stage(self, capsys, tmp_path, rows, message):
        p = tmp_path / "m.csv"
        p.write_text("alternative,X1,X2\n" + rows)
        code, out, err = _run(capsys, ["entropy", "--matrix", str(p)])
        assert (code, out) == (1, "")
        assert err == f"error: entropy: {message}\n"


class TestFuseCommand:
    def test_fuse_files(self, capsys, tmp_path):
        subj = tmp_path / "subj.json"
        obj = tmp_path / "obj.json"
        subj.write_text(json.dumps({"a": 0.6, "b": 0.4}))
        obj.write_text(json.dumps({"a": 0.2, "b": 0.8}))
        code, out, _ = _run(
            capsys,
            ["fuse", "--subjective", str(subj), "--objective", str(obj), "--alpha", "0.5"],
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["fused"]["a"] == pytest.approx(0.4)
        assert payload["fused"]["b"] == pytest.approx(0.6)

    def test_alpha_out_of_range_exits_one(self, capsys, tmp_path):
        subj = tmp_path / "subj.json"
        obj = tmp_path / "obj.json"
        subj.write_text(json.dumps({"a": 0.6, "b": 0.4}))
        obj.write_text(json.dumps({"a": 0.2, "b": 0.8}))
        code, out, err = _run(
            capsys,
            ["fuse", "--subjective", str(subj), "--objective", str(obj), "--alpha", "1.5"],
        )
        assert code == 1
        assert out == ""
        assert err == "error: fuse: alpha must be in [0, 1], got 1.5\n"

    def test_mismatched_ids_exit_one(self, capsys, tmp_path):
        subj = tmp_path / "subj.json"
        obj = tmp_path / "obj.json"
        subj.write_text(json.dumps({"a": 1.0}))
        obj.write_text(json.dumps({"b": 1.0}))
        code, _, err = _run(
            capsys, ["fuse", "--subjective", str(subj), "--objective", str(obj)]
        )
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize(
        "content, message",
        [
            ('{"C1": "x"}', "C1: not a number: 'x'"),
            ('{"C1": [1]}', "C1: not a number: [1]"),
            ('["C1"]', "expected an object, got list"),
            ("{", "invalid JSON"),
            pytest.param(
                '{"C1": 1' + "0" * 400 + "}",
                "C1: number too large for a float",
                id="int-400-digits",
            ),
            pytest.param(  # above the interpreter's int-to-str digit limit
                '{"C1": 1' + "0" * 5000 + "}",
                "invalid JSON: Exceeds the limit",
                id="int-5000-digits",
            ),
        ],
    )
    def test_malformed_weight_file_exits_one(self, capsys, tmp_path, content, message):
        subj = tmp_path / "subj.json"
        obj = tmp_path / "obj.json"
        subj.write_text(content)
        obj.write_text(json.dumps({"C1": 1.0}))
        code, out, err = _run(
            capsys, ["fuse", "--subjective", str(subj), "--objective", str(obj)]
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: weight file {subj}")
        assert message in err
        assert "Traceback" not in err


class TestSweepCommand:
    def test_grid_rows_sorted(self, capsys, fixture_dir):
        code, out, _ = _run(
            capsys,
            [
                "sweep-alpha",
                "--config",
                str(fixture_dir / "campus_bikeshare.json"),
                "--grid",
                "1,0,0.5",
            ],
        )
        assert code == 0
        payload = json.loads(out)
        assert [r["alpha"] for r in payload["rows"]] == [0.0, 0.5, 1.0]
        assert all(r["verdict"]["grade"] == "Good" for r in payload["rows"])

    def test_default_step_grid(self, capsys, fixture_dir):
        code, out, _ = _run(
            capsys,
            ["sweep-alpha", "--config", str(fixture_dir / "campus_bikeshare.json")],
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 11
        assert payload["rows"][0]["alpha"] == 0.0
        assert payload["rows"][-1]["alpha"] == 1.0

    @pytest.mark.parametrize("step", ["0", "-0.1", "1.5", "nan"])
    def test_step_outside_unit_interval_exits_one(self, capsys, fixture_dir, step):
        code, out, err = _run(
            capsys,
            ["sweep-alpha", "--config", str(fixture_dir / "campus_bikeshare.json"),
             "--step", step],
        )
        assert code == 1
        assert out == ""
        assert err == f"error: sweep step must be in (0, 1], got {float(step)}\n"

    def test_step_finer_than_the_minimum_raises_before_building(self):
        with pytest.raises(ValidationError) as info:
            _parse_grid(argparse.Namespace(grid=None, step=9.9e-7))
        assert str(info.value) == "sweep step must be at least 1e-06, got 9.9e-07"

    def test_minimum_step_gives_a_million_and_one_distinct_points(self):
        grid = _parse_grid(argparse.Namespace(grid=None, step=MIN_SWEEP_STEP))
        assert len(set(grid)) == len(grid) == 1_000_001
        assert grid[0] == 0.0 and grid[-1] == 1.0

    @pytest.mark.parametrize("grid", ["", ","])
    def test_empty_grid_exits_one(self, capsys, fixture_dir, grid):
        code, out, err = _run(
            capsys,
            ["sweep-alpha", "--config", str(fixture_dir / "campus_bikeshare.json"), "--grid", grid],
        )
        assert code == 1
        assert out == ""
        assert err == "error: sweep grid is empty\n"

    def test_markdown_table(self, capsys, fixture_dir):
        code, out, _ = _run(
            capsys,
            [
                "sweep-alpha",
                "--config",
                str(fixture_dir / "campus_bikeshare.json"),
                "--grid",
                "0,1",
                "--format",
                "md",
            ],
        )
        assert code == 0
        assert "| Alpha |" in out

    def test_closed_stdout_exits_one_silently(self, fixture_dir):
        # 1001 rows are far more than a pipe buffer holds, so a write must fail.
        paths = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
        config = str(fixture_dir / "campus_bikeshare.json")
        proc = subprocess.Popen(
            [sys.executable, "-m", "siteval.cli", "sweep-alpha", "--config", config, "--step",
             "0.001"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert err == b""  # no traceback, no message


class TestFileErrors:
    """A file that cannot be read or written is an `error:` line and exit 1, not a traceback."""

    def _assert_names(self, capsys, argv, path, message):
        code, out, err = _run(capsys, argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert f"{path}: {message}" in err

    def test_config_is_a_directory(self, capsys, tmp_path):
        argv = ["evaluate", "--config", str(tmp_path)]
        self._assert_names(capsys, argv, f"config file {tmp_path}", "cannot read")

    def test_matrix_is_a_directory(self, capsys, tmp_path):
        argv = ["entropy", "--matrix", str(tmp_path)]
        self._assert_names(capsys, argv, f"decision matrix {tmp_path}", "cannot read")

    def test_csv_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "m.csv"
        path.write_bytes(b"alternative,X1\nS1,\xff\n")
        argv = ["entropy", "--matrix", str(path)]
        self._assert_names(capsys, argv, f"decision matrix {path}", "not UTF-8 text")

    def test_output_in_missing_directory(self, capsys, fixture_dir, tmp_path):
        target = tmp_path / "missing" / "x.json"
        config = str(fixture_dir / "campus_bikeshare.json")
        argv = ["evaluate", "--config", config, "--output", str(target)]
        self._assert_names(capsys, argv, f"output file {target}", "cannot write")


CONFIG = ["--config", "campus_bikeshare.json"]
WEIGHT_FILES = ["--subjective", "weights_subjective.json", "--objective", "weights_objective.json"]


class TestGoldenOutputs:
    """Fixture outputs of the stage commands, byte for byte."""

    @pytest.mark.parametrize(
        "argv, golden",
        [
            (["ahp", *CONFIG], "ahp"),
            (["sweep-alpha", *CONFIG, "--step", "0.05"], "sweep_alpha"),
            (["screen", *CONFIG, "--survey", "survey_round2.csv"], "screen"),
            (
                ["screen", *CONFIG, "--survey", "survey_round2.csv", "--override", "C2,C3"],
                "screen_override",
            ),
            (["entropy", "--matrix", "decision_small.csv"], "entropy"),
            (["fuse", *WEIGHT_FILES, "--alpha", "0.3"], "fuse"),
            (
                [
                    "sweep-alpha", *CONFIG, "--operator", "min-max",
                    "--weights-policy", "fused-both", "--step", "0.01",
                ],
                "sweep_alpha_minmax_fused",
            ),
            (
                [
                    "sweep-alpha", *CONFIG, "--operator", "min-max",
                    "--weights-policy", "paper", "--step", "0.01",
                ],
                "sweep_alpha_minmax",
            ),
            (
                ["sweep-alpha", *CONFIG, "--weights-policy", "fused-both", "--step", "0.01"],
                "sweep_alpha_fused",
            ),
            (["entropy", "--matrix", "decision_blocks.csv"], "entropy_blocks"),
        ],
    )
    @pytest.mark.parametrize("fmt", ["json", "md"])
    def test_matches_golden(self, capsys, fixture_dir, argv, golden, fmt):
        argv = [str(fixture_dir / a) if a.endswith((".csv", ".json")) else a for a in argv]
        code, out, _ = _run(capsys, argv + ["--format", fmt])
        assert code == 0
        assert out == (fixture_dir / "golden" / f"{golden}.{fmt}").read_text(encoding="utf-8")

    @pytest.mark.parametrize("fmt", ["json", "md"])
    def test_min_max_evaluate_matches_golden(self, capsys, fixture_dir, fmt):
        argv = ["evaluate", "--config", str(fixture_dir / "campus_bikeshare.json")]
        code, out, _ = _run(capsys, argv + ["--operator", "min-max", "--format", fmt])
        assert code == 0
        # The evaluate goldens hold emit_report's text, without the newline print adds.
        golden = fixture_dir / "golden" / f"evaluate_minmax.{fmt}"
        assert out == golden.read_text(encoding="utf-8") + "\n"

    @pytest.mark.parametrize("fmt", ["json", "md"])
    def test_fused_both_evaluate_matches_golden(self, capsys, fixture_dir, fmt):
        argv = ["evaluate", "--config", str(fixture_dir / "campus_bikeshare.json")]
        code, out, _ = _run(capsys, argv + ["--weights-policy", "fused-both", "--format", fmt])
        assert code == 0
        golden = fixture_dir / "golden" / f"evaluate_fused.{fmt}"
        assert out == golden.read_text(encoding="utf-8") + "\n"

    @pytest.mark.parametrize("fmt", ["json", "md"])
    def test_min_max_evaluate_at_alpha_005_matches_golden(self, capsys, fixture_dir, fmt):
        # The Excellent side of the fixture's min-max verdict flip (alpha 0.068 to 0.069).
        argv = ["evaluate", "--config", str(fixture_dir / "campus_bikeshare.json")]
        code, out, _ = _run(
            capsys, argv + ["--operator", "min-max", "--alpha", "0.05", "--format", fmt]
        )
        assert code == 0
        golden = fixture_dir / "golden" / f"evaluate_minmax_a005.{fmt}"
        assert out == golden.read_text(encoding="utf-8") + "\n"
