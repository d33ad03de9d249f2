import copy
import json
import re
from dataclasses import replace

import pytest

from siteval import (
    MembershipMatrix,
    ProjectConfig,
    ValidationError,
    emit_report,
    ingest_survey,
    run_pipeline,
    sweep_alpha,
)
from siteval.pipeline import render_markdown, sweep_to_json_dict


def _variant(config_dict, **edits):
    data = copy.deepcopy(config_dict)
    data.update(edits)
    return data


def _with_decision_matrix(config_dict, values=None):
    """The fixture with its objective weights swapped for a 4-row decision matrix."""
    data = copy.deepcopy(config_dict)
    ids = list(data.pop("objective_weights"))
    if values is None:
        values = [[(r + 1) * (i % 5 + 1) + r * r for i in range(len(ids))] for r in range(4)]
    data["decision_matrix"] = {
        "alternatives": ["S1", "S2", "S3", "S4"],
        "indicators": ids,
        "values": values,
    }
    return data


class TestRunPipeline:
    def test_fixture_reaches_good_verdict(self, campus_config):
        report = run_pipeline(campus_config)
        assert report.verdict.grade == "Good"
        assert not report.verdict.tied
        assert report.second_level["Excellent"] == pytest.approx(0.19, abs=0.01)
        assert report.second_level["Good"] == pytest.approx(0.45, abs=0.01)
        assert report.second_level["Poor"] == pytest.approx(0.35, abs=0.01)

    def test_fixture_records_membership_anomaly_warnings(self, campus_config):
        report = run_pipeline(campus_config)
        codes = {w.code for w in report.warnings}
        assert "membership-row-sum" in codes
        assert "fuzzy-vector-sum" in codes
        assert any("'C1'" in w.message for w in report.warnings)
        assert any("'B1'" in w.message for w in report.warnings)

    def test_alpha_one_keeps_subjective_weights(self, campus_config):
        report = run_pipeline(campus_config.with_overrides(alpha=1.0))
        for ind in report.indicator_subjective.ids:
            assert report.indicator_comprehensive[ind] == pytest.approx(
                report.indicator_subjective[ind], abs=1e-12
            )
        for crit in report.criterion_subjective.ids:
            assert report.criterion_comprehensive[crit] == pytest.approx(
                report.criterion_subjective[crit], abs=1e-12
            )

    def test_alpha_zero_keeps_objective_weights(self, campus_config):
        report = run_pipeline(campus_config.with_overrides(alpha=0.0))
        for ind in report.indicator_objective.ids:
            assert report.indicator_comprehensive[ind] == pytest.approx(
                report.indicator_objective[ind], abs=1e-12
            )

    def test_criterion_objective_weights_sum_children(self, campus_config):
        report = run_pipeline(campus_config)
        assert report.criterion_objective["B1"] == pytest.approx(0.2081, abs=1e-9)
        assert report.criterion_objective["B2"] == pytest.approx(0.533, abs=1e-9)
        assert report.criterion_objective["B3"] == pytest.approx(0.0457, abs=1e-9)
        assert report.criterion_objective["B4"] == pytest.approx(0.2132, abs=1e-9)

    def test_non_reciprocal_matrix_fails_fast(self, campus_config_dict):
        data = copy.deepcopy(campus_config_dict)
        data["judgment_matrices"]["B3"] = [["1", "2"], ["1", "1"]]
        with pytest.raises(ValidationError) as err:
            ProjectConfig.from_dict(data)
        message = str(err.value)
        assert "B3" in message and "C10" in message and "C11" in message

    def test_inconsistent_matrix_is_hard_error_by_default(self, campus_config_dict):
        data = copy.deepcopy(campus_config_dict)
        data["judgment_matrices"]["B4"] = [
            ["1", "9", "1/9"],
            ["1/9", "1", "9"],
            ["9", "1/9", "1"],
        ]
        cfg = ProjectConfig.from_dict(data)
        with pytest.raises(ValidationError, match="ahp.*B4.*consistency"):
            run_pipeline(cfg)

    def test_inconsistent_matrix_downgraded_when_allowed(self, campus_config_dict):
        data = copy.deepcopy(campus_config_dict)
        data["judgment_matrices"]["B4"] = [
            ["1", "9", "1/9"],
            ["1/9", "1", "9"],
            ["9", "1/9", "1"],
        ]
        cfg = ProjectConfig.from_dict(data)
        report = run_pipeline(cfg, allow_inconsistent=True)
        assert any(w.code == "inconsistent-judgment-matrix" for w in report.warnings)
        assert not report.consistency["B4"].consistent

    def test_survey_screening_included_when_provided(self, campus_config, fixture_dir):
        survey = ingest_survey(fixture_dir / "survey_round2.csv", campus_config.classes)
        report = run_pipeline(campus_config, survey=survey)
        assert report.screening is not None
        stats_by_id = {s.indicator: s for s in report.screening.stats}
        assert stats_by_id["C1"].mean == pytest.approx(4.0, abs=1e-12)
        assert "C1" in report.screening.result.selected_ids()
        assert "C2" in report.screening.result.rejected_ids()

    def test_screening_omitted_without_survey(self, campus_config):
        assert run_pipeline(campus_config).screening is None

    def test_fused_both_policy_changes_first_level(self, campus_config):
        base = run_pipeline(campus_config)
        fused = run_pipeline(campus_config.with_overrides(weights_policy="fused-both"))
        assert fused.first_level["B1"]["Good"] != pytest.approx(
            base.first_level["B1"]["Good"], abs=1e-6
        )
        assert fused.verdict.grade == "Good"

    def test_min_max_operator_runs_clean(self, campus_config):
        report = run_pipeline(campus_config.with_overrides(operator="min-max"))
        assert report.verdict.grade in ("Excellent", "Good", "Poor")
        assert not any(w.code == "fuzzy-vector-sum" for w in report.warnings)

    def test_decision_matrix_source_for_objective_weights(self, campus_config_dict):
        data = copy.deepcopy(campus_config_dict)
        ids = list(data["objective_weights"])
        del data["objective_weights"]
        # Two alternatives with distinct spreads per indicator column.
        data["decision_matrix"] = {
            "alternatives": ["S1", "S2", "S3"],
            "indicators": ids,
            "values": [
                [i + 1.0 for i in range(len(ids))],
                [2.0 * (i + 1) for i in range(len(ids))],
                [1.0 for _ in ids],
            ],
        }
        cfg = ProjectConfig.from_dict(data)
        report = run_pipeline(cfg)
        assert report.indicator_objective.total() == pytest.approx(1.0, abs=1e-9)
        assert report.verdict.grade in ("Excellent", "Good", "Poor")

    def test_config_requires_exactly_one_objective_source(self, campus_config_dict):
        data = copy.deepcopy(campus_config_dict)
        data["decision_matrix"] = {
            "alternatives": ["S1", "S2"],
            "indicators": list(data["objective_weights"]),
            "values": [[1.0] * 14, [2.0] * 14],
        }
        with pytest.raises(ValidationError, match="exactly one"):
            ProjectConfig.from_dict(data)
        del data["decision_matrix"]
        del data["objective_weights"]
        with pytest.raises(ValidationError, match="exactly one"):
            ProjectConfig.from_dict(data)

    def test_unknown_config_key_rejected(self, campus_config_dict):
        with pytest.raises(ValidationError, match="unknown config keys"):
            ProjectConfig.from_dict(_variant(campus_config_dict, typo_key=1))

    def test_duplicate_respondent_classes_rejected(self, campus_config_dict):
        classes = [
            {"label": "expert", "score_weight": 0.8},
            {"label": "expert", "score_weight": 0.2},
        ]
        with pytest.raises(ValidationError, match="duplicate respondent class"):
            ProjectConfig.from_dict(
                _variant(campus_config_dict, respondent_classes=classes)
            )

    def test_nan_observation_rejected_at_config(self, campus_config_dict):
        data = _with_decision_matrix(campus_config_dict)
        data["decision_matrix"]["values"][2][0] = float("nan")
        with pytest.raises(ValidationError, match=r"^config: .*\(S3, C1\): non-finite value nan"):
            ProjectConfig.from_dict(data)

    def test_nan_objective_weight_rejected_at_config(self, campus_config_dict):
        data = copy.deepcopy(campus_config_dict)
        data["objective_weights"]["C4"] = float("nan")
        with pytest.raises(ValidationError, match="^config: non-finite weight for 'C4'"):
            ProjectConfig.from_dict(data)

    def test_construction_cross_validates(self, campus_config):
        membership = MembershipMatrix(
            {i: campus_config.membership.row(i) for i in list(campus_config.membership.rows)[1:]}
        )
        with pytest.raises(ValidationError, match="membership rows do not match"):
            replace(campus_config, membership=membership)

    def test_membership_deviation_above_band_is_error(self, campus_config_dict):
        data = copy.deepcopy(campus_config_dict)
        data["membership"]["C1"] = {"Excellent": 0.1, "Good": 0.3, "Poor": 0.4}
        cfg = ProjectConfig.from_dict(data)
        with pytest.raises(ValidationError, match="config.*C1"):
            run_pipeline(cfg)


class TestDeterminism:
    def test_repeated_runs_emit_identical_json(self, campus_config_dict):
        def one_pass():
            cfg = ProjectConfig.from_dict(copy.deepcopy(campus_config_dict))
            return emit_report(run_pipeline(cfg), "json")

        assert one_pass() == one_pass()

    def test_config_hash_stable(self, campus_config_dict):
        a = ProjectConfig.from_dict(copy.deepcopy(campus_config_dict)).config_hash()
        b = ProjectConfig.from_dict(copy.deepcopy(campus_config_dict)).config_hash()
        assert a == b and len(a) == 64


class TestSweepAlpha:
    def test_rows_sorted_and_endpoint_behaviour(self, campus_config):
        rows = sweep_alpha(campus_config, [1.0, 0.0, 0.5])
        assert [r.alpha for r in rows] == [0.0, 0.5, 1.0]
        mid = run_pipeline(campus_config)
        assert rows[1].second_level.as_dict() == pytest.approx(
            mid.second_level.as_dict(), abs=1e-15
        )

    def test_duplicate_grid_values_repeat_rows(self, campus_config):
        rows = sweep_alpha(campus_config, [0.5, 0.5])
        assert len(rows) == 2
        assert rows[0].second_level.as_dict() == rows[1].second_level.as_dict()

    def test_verdict_stable_across_full_grid(self, campus_config):
        grid = [round(0.1 * k, 10) for k in range(11)]
        rows = sweep_alpha(campus_config, grid)
        assert [r.verdict.grade for r in rows] == ["Good"] * 11

    def test_grid_values_validated(self, campus_config):
        with pytest.raises(ValidationError, match="out of"):
            sweep_alpha(campus_config, [0.5, 1.5])
        with pytest.raises(ValidationError, match="empty"):
            sweep_alpha(campus_config, [])

    def test_sweep_reproducible(self, campus_config):
        grid = [round(0.1 * k, 10) for k in range(11)]
        first = sweep_to_json_dict(sweep_alpha(campus_config, grid))
        second = sweep_to_json_dict(sweep_alpha(campus_config, grid))
        assert json.dumps(first) == json.dumps(second)


class TestEmitReport:
    def test_json_schema_and_verdict(self, campus_config):
        payload = json.loads(emit_report(run_pipeline(campus_config), "json"))
        assert payload["schema_version"] == 2
        assert payload["verdict"]["grade"] == "Good"
        assert payload["verdict"]["membership"] == pytest.approx(0.448, abs=0.002)
        assert payload["provenance"]["alpha"] == 0.5
        assert isinstance(payload["warnings"], list)

    def test_clean_config_has_empty_warning_list(self, campus_config_dict):
        data = copy.deepcopy(campus_config_dict)
        data["membership"]["C1"] = {"Excellent": 0.1, "Good": 0.5, "Poor": 0.4}
        cfg = ProjectConfig.from_dict(data)
        payload = json.loads(emit_report(run_pipeline(cfg), "json"))
        assert payload["warnings"] == []

    def test_markdown_contains_first_level_row(self, campus_config):
        text = emit_report(run_pipeline(campus_config), "markdown")
        assert "B3 | 0.1250 | 0.5500 | 0.3250" in text
        assert "| Good |" in text

    def test_unknown_format_rejected(self, campus_config):
        report = run_pipeline(campus_config)
        with pytest.raises(ValidationError, match="unknown report format"):
            emit_report(report, "yaml")

    def test_markdown_numbers_are_projection_of_json(self, campus_config, fixture_dir):
        survey = ingest_survey(fixture_dir / "survey_round2.csv", campus_config.classes)
        report = run_pipeline(campus_config, survey=survey)
        md = render_markdown(report)
        payload = json.loads(emit_report(report, "json"))

        json_numbers: set[str] = set()

        def collect(node):
            if isinstance(node, bool):
                return
            if isinstance(node, (int, float)):
                json_numbers.add(f"{float(node):.4f}")
            elif isinstance(node, dict):
                for v in node.values():
                    collect(v)
            elif isinstance(node, list):
                for v in node:
                    collect(v)

        collect(payload)

        numeric_cell = re.compile(r"^-?\d+(\.\d+)?$")
        checked = 0
        for line in md.splitlines():
            if not line.startswith("|"):
                continue
            for cell in (c.strip() for c in line.strip("|").split("|")):
                if numeric_cell.match(cell):
                    assert f"{float(cell):.4f}" in json_numbers, cell
                    checked += 1
        assert checked > 50


class TestConfigRoundTrip:
    def test_round_trip_preserves_structure_and_fractions(self, campus_config):
        emitted = campus_config.to_dict()
        reparsed = ProjectConfig.from_dict(emitted)
        assert reparsed.to_dict() == emitted
        assert emitted["judgment_matrices"]["goal"][1][0] == "1/3"
        assert set(reparsed.hierarchy.indicator_ids()) == set(
            campus_config.hierarchy.indicator_ids()
        )
        for node, m in campus_config.matrices.items():
            assert reparsed.matrices[node].entries == m.entries

    def test_round_trip_hash_identical(self, campus_config):
        reparsed = ProjectConfig.from_dict(campus_config.to_dict())
        assert reparsed.config_hash() == campus_config.config_hash()

    def test_decision_matrix_round_trip(self, campus_config_dict):
        cfg = ProjectConfig.from_dict(_with_decision_matrix(campus_config_dict))
        emitted = cfg.to_dict()
        assert isinstance(emitted["decision_matrix"]["values"][0][0], float)
        reparsed = ProjectConfig.from_dict(json.loads(json.dumps(emitted)))
        assert reparsed == cfg
        assert reparsed.to_dict() == emitted


class TestConfigHash:
    def test_fixture_digest_pinned(self, campus_config):
        assert campus_config.config_hash() == (
            "7b4bd418f1d1b6c25a9963fdbf92b1a3a5916723aa6d3a17a3689f018518307e"
        )

    def test_decision_matrix_digest_stable_across_reparse_and_int_values(
        self, campus_config_dict
    ):
        data = _with_decision_matrix(campus_config_dict)
        as_ints = ProjectConfig.from_dict(data)
        assert isinstance(data["decision_matrix"]["values"][0][0], int)
        as_floats = copy.deepcopy(data)
        as_floats["decision_matrix"]["values"] = [
            [float(v) for v in row] for row in data["decision_matrix"]["values"]
        ]
        digest = as_ints.config_hash()
        assert ProjectConfig.from_dict(as_floats).config_hash() == digest
        assert ProjectConfig.from_dict(as_ints.to_dict()).config_hash() == digest

    def test_one_cell_change_changes_digest(self, campus_config_dict):
        data = _with_decision_matrix(campus_config_dict)
        digest = ProjectConfig.from_dict(data).config_hash()
        data["decision_matrix"]["values"][3][13] += 1e-9
        assert ProjectConfig.from_dict(data).config_hash() != digest

    def test_decision_matrix_values_read_only(self, campus_config_dict):
        cfg = ProjectConfig.from_dict(_with_decision_matrix(campus_config_dict))
        with pytest.raises(ValueError):
            cfg.decision_matrix.values[0, 0] = 0.0
