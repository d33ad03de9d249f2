import json

import pytest

from siteval.cli import main


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
        data = json.loads((fixture_dir / "campus_bikeshare.json").read_text())
        del data["criteria"][0]["id"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = _run(capsys, ["evaluate", "--config", str(path)])
        assert code == 1
        assert out == ""
        assert "config: criteria[0]: missing key 'id'" in err
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
