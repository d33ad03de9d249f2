import copy
import hashlib
import json
import math
import random
import re
import sys
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from siteval import (
    AlphaSweep,
    DecisionMatrix,
    FuzzyVector,
    GradeScale,
    Indicator,
    JudgmentMatrix,
    MembershipMatrix,
    ProjectConfig,
    RespondentClass,
    ScreeningCriteria,
    ValidationError,
    emit_report,
    fuse,
    ingest_survey,
    load_config,
    run_pipeline,
    sweep_alpha,
)
from siteval import ahp, config, core, pipeline
from siteval.core import float_sum
from siteval.fusion import blend
from siteval.report import json_text, render_markdown, sweep_rows, sweep_to_json_dict

from strategies import configs


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


def _inline_values(data, values):
    """Edit `data` in place: its objective weights become a 4-row decision matrix of `values`."""
    swapped = _with_decision_matrix(data, values)
    data.clear()
    data.update(swapped)


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
        for ind in report.ahp.indicator.ids:
            assert report.indicator_comprehensive[ind] == pytest.approx(
                report.ahp.indicator[ind], abs=1e-12
            )
        for crit in report.ahp.criterion.ids:
            assert report.criterion_comprehensive[crit] == pytest.approx(
                report.ahp.criterion[crit], abs=1e-12
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
        assert not report.ahp.consistency["B4"].consistent

    def test_order_above_nine_names_stage_and_matrix(self, campus_config_dict):
        data = copy.deepcopy(campus_config_dict)
        b2 = data["criteria"][1]["indicators"]
        extra = [f"X{k}" for k in range(10 - len(b2))]
        b2 += [{"id": i, "name": i, "kind": "qualitative"} for i in extra]
        for i in extra:
            data["membership"][i] = dict(data["membership"]["C4"])
            data["objective_weights"][i] = 0.0
        data["judgment_matrices"]["B2"] = [["1"] * 10 for _ in range(10)]
        cfg = ProjectConfig.from_dict(data)
        with pytest.raises(ValidationError) as err:
            run_pipeline(cfg)
        assert str(err.value) == "ahp: matrix 'B2': RI undefined for order > 9"

    def test_only_fused_both_blends_indicator_weights_over_the_grid(
        self, campus_config, monkeypatch
    ):
        calls = []

        def counting_blend(subjective, objective, alphas):
            calls.append((len(subjective), len(alphas)))
            return blend(subjective, objective, alphas)

        monkeypatch.setattr(pipeline, "blend", counting_blend)
        criteria, indicators = (
            len(campus_config.hierarchy.criterion_ids()),
            len(campus_config.hierarchy.indicator_ids()),
        )
        grid = [0.0, 0.5, 1.0]
        sweep_alpha(campus_config, grid)
        assert calls == [(criteria, 3)]
        calls.clear()
        sweep_alpha(campus_config.with_overrides(weights_policy="fused-both"), grid)
        assert calls == [(criteria, 3), (indicators, 3)]
        calls.clear()
        report = run_pipeline(campus_config)  # the report's indicator blend, at one alpha
        assert calls == [(criteria, 1), (indicators, 1)]
        expected = fuse(report.ahp.indicator, report.indicator_objective, [0.5])[0]
        assert report.indicator_comprehensive.values() == expected.tolist()

    @pytest.mark.parametrize("policy", ["paper", "fused-both"])
    def test_fusion_checks_raise_on_every_run(self, campus_config_dict, policy):
        # The checks run once per config, when its weights are built; a raise keeps
        # nothing, so a later run raises the same error.
        data = copy.deepcopy(campus_config_dict)
        data["objective_weights"] = {i: 0.9 * w for i, w in data["objective_weights"].items()}
        cfg = ProjectConfig.from_dict({**data, "weights_policy": policy})
        for run in (run_pipeline, lambda c: sweep_alpha(c, [0.0, 1.0]), run_pipeline):
            with pytest.raises(ValidationError) as err:
                run(cfg)
            assert str(err.value) == (
                "fuse: objective weights must sum to 1, got 0.9000000000000001"
            )

    def test_survey_screening_included_when_provided(self, campus_config, fixture_dir):
        survey = ingest_survey(fixture_dir / "survey_round2.csv", campus_config.classes)
        report = run_pipeline(campus_config, survey=survey)
        assert report.screening is not None
        stats_by_id = {s.indicator: s for s in report.screening.stats}
        assert stats_by_id["C1"].mean == pytest.approx(4.0, abs=1e-12)
        assert "C1" in {d.indicator for d in report.screening.result.selected}
        assert "C2" in {d.indicator for d in report.screening.result.rejected}

    def test_screening_rejections_still_in_hierarchy_are_warned(
        self, campus_config, fixture_dir
    ):
        survey = ingest_survey(fixture_dir / "survey_round2.csv", campus_config.classes)
        report = run_pipeline(campus_config, survey=survey)
        flagged = [w for w in report.warnings if w.code == "screening-rejected-in-hierarchy"]
        assert [re.search(r"'(\w+)'", w.message).group(1) for w in flagged] == ["C2", "C3"]
        # The warning reports the rejection; it does not change any weight.
        plain = run_pipeline(campus_config)
        assert report.indicator_comprehensive == plain.indicator_comprehensive
        assert report.indicator_comprehensive["C2"] > 0
        assert not any(
            w.code == "screening-rejected-in-hierarchy" for w in plain.warnings
        )

    def test_unknown_override_id_rejected(self, campus_config_dict, fixture_dir):
        data = copy.deepcopy(campus_config_dict)
        data["screening"]["overrides"] = ["ZZ"]
        cfg = ProjectConfig.from_dict(data)
        survey = ingest_survey(fixture_dir / "survey_round2.csv", cfg.classes)
        with pytest.raises(ValidationError) as err:
            run_pipeline(cfg, survey=survey)
        assert str(err.value) == "screen: unknown override ids: ['ZZ']"
        assert run_pipeline(cfg).verdict.grade == "Good"  # checked only where screening runs

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

    def test_empty_respondent_classes_rejected(self, campus_config_dict):
        with pytest.raises(ValidationError) as info:
            ProjectConfig.from_dict(_variant(campus_config_dict, respondent_classes=[]))
        assert str(info.value) == "config: respondent_classes: expected at least one class"

    def test_constructed_configs_check_their_classes_too(self, campus_config):
        with pytest.raises(ValidationError) as info:
            replace(campus_config, classes=())
        assert str(info.value) == "respondent_classes: expected at least one class"
        twice = (RespondentClass("expert", 0.8), RespondentClass("expert", 0.2))
        with pytest.raises(ValidationError) as info:
            replace(campus_config, classes=twice)
        assert str(info.value) == "duplicate respondent class labels: ['expert', 'expert']"

    def test_constructed_configs_check_their_matrices_too(self, campus_config):
        extra = {**campus_config.matrices, "B9": JudgmentMatrix("B9", ("x",), ((1,),))}
        with pytest.raises(ValidationError) as info:
            replace(campus_config, matrices=extra)
        assert str(info.value) == "judgment matrices for unknown nodes: ['B9']"
        goal = campus_config.matrices["goal"]
        reversed_goal = JudgmentMatrix("goal", goal.labels[::-1], goal.entries)
        with pytest.raises(ValidationError) as info:
            replace(campus_config, matrices={**campus_config.matrices, "goal": reversed_goal})
        assert str(info.value) == (
            "goal matrix labels ['B4', 'B3', 'B2', 'B1'] do not match criteria "
            "['B1', 'B2', 'B3', 'B4']"
        )
        b1 = campus_config.matrices["B1"]
        reversed_b1 = JudgmentMatrix("B1", b1.labels[::-1], b1.entries)
        with pytest.raises(ValidationError) as info:
            replace(campus_config, matrices={**campus_config.matrices, "B1": reversed_b1})
        assert str(info.value) == (
            "matrix 'B1' labels ['C3', 'C2', 'C1'] do not match indicators ['C1', 'C2', 'C3']"
        )

    def test_absent_respondent_classes_take_the_defaults(self, campus_config_dict):
        data = _variant(campus_config_dict)
        del data["respondent_classes"]
        cfg = ProjectConfig.from_dict(data)
        assert cfg.classes == config.DEFAULT_CLASSES
        assert cfg.to_dict()["respondent_classes"] == [
            {"label": "expert", "score_weight": 0.8},
            {"label": "end_user", "score_weight": 0.2},
        ]

    def test_nan_observation_rejected_at_config(self, campus_config_dict):
        data = _with_decision_matrix(campus_config_dict)
        data["decision_matrix"]["values"][2][0] = float("nan")
        with pytest.raises(ValidationError, match=r"^config: .*\(S3, C1\): non-finite value nan"):
            ProjectConfig.from_dict(data)

    def test_bool_observation_rejected_at_config(self, campus_config_dict):
        data = _with_decision_matrix(campus_config_dict)
        data["decision_matrix"]["values"][0][0] = True
        with pytest.raises(
            ValidationError, match=r"^config: decision matrix \(S1, C1\): not a number: True$"
        ):
            ProjectConfig.from_dict(data)

    def test_nan_objective_weight_rejected_at_config(self, campus_config_dict):
        data = copy.deepcopy(campus_config_dict)
        data["objective_weights"]["C4"] = float("nan")
        with pytest.raises(ValidationError, match="^config: non-finite weight for 'C4'"):
            ProjectConfig.from_dict(data)

    def test_construction_cross_validates(self, campus_config):
        membership = MembershipMatrix(
            {i: dict(campus_config.membership.rows[i]) for i in list(campus_config.membership.rows)[1:]}
        )
        with pytest.raises(ValidationError, match="membership rows do not match"):
            replace(campus_config, membership=membership)

    @pytest.mark.parametrize(
        "grades",
        [
            ("Poor", "Good", "Excellent"),  # the scale's grades, reversed
            ("Good", "Excellent", "Poor"),
            ("Excellent", "Good"),  # a subset
            ("Excellent", "Good", "Fair"),  # a grade the scale lacks
        ],
    )
    def test_membership_grades_must_be_the_scale_in_its_order(self, campus_config, grades):
        rows = campus_config.membership.rows
        membership = MembershipMatrix(
            {i: {g: row.get(g, 0.0) for g in grades} for i, row in rows.items()}
        )
        with pytest.raises(ValidationError) as info:
            replace(campus_config, membership=membership)
        assert str(info.value) == (
            f"membership grades {list(grades)} do not match "
            "scale ['Excellent', 'Good', 'Poor']"
        )

    def test_membership_deviation_above_band_is_error(self, campus_config_dict):
        data = copy.deepcopy(campus_config_dict)
        data["membership"]["C1"] = {"Excellent": 0.1, "Good": 0.3, "Poor": 0.4}
        cfg = ProjectConfig.from_dict(data)
        with pytest.raises(ValidationError, match="config.*C1"):
            run_pipeline(cfg)

    def test_weights_within_fusion_tolerance_reach_a_verdict(self, campus_config_dict):
        # Fusion accepts weights summing to 1 within SUM_TOL, so the fuzzy
        # vectors built from them may exceed 1 by as much and must be accepted.
        data = copy.deepcopy(campus_config_dict)
        for ind in data["membership"]:
            data["membership"][ind] = {"Excellent": 1, "Good": 0, "Poor": 0}
        total = sum(data["objective_weights"].values())
        data["objective_weights"] = {
            k: v * (1 + 9e-7) / total for k, v in data["objective_weights"].items()
        }
        data["alpha"] = 0
        report = run_pipeline(ProjectConfig.from_dict(data))
        assert report.verdict.grade == "Excellent"
        assert report.second_level["Excellent"] > 1.0


def _membership_variant(config_dict, rows):
    data = copy.deepcopy(config_dict)
    for ind, row in rows.items():
        data["membership"][ind] = dict(zip(data["grades"], row))
    return ProjectConfig.from_dict(data)


def _messages(report, code):
    return [w.message for w in report.warnings if w.code == code]


class TestToleranceBounds:
    """Each bound of the membership and vector-sum checks, from just inside and just outside.

    The figures are literals, not read from the bounds, so a moved bound fails here.
    """

    @pytest.mark.parametrize("row", [(0.1, 0.45, 0.4), (0.1, 0.4, 0.45), (0.05, 0.45, 0.45)])
    def test_row_check_ignores_cell_order(self, campus_config_dict, row):
        report = run_pipeline(_membership_variant(campus_config_dict, {"C1": row}))
        assert _messages(report, "membership-row-sum") == [
            "membership row 'C1' sums to 0.9500, expected 1"
        ]

    def test_membership_shortfall_just_inside_warns(self, campus_config_dict):
        cfg = _membership_variant(campus_config_dict, {"C4": (0.0, 0.5, 0.4501)})
        assert _messages(run_pipeline(cfg), "membership-row-sum")[-1] == (
            "membership row 'C4' sums to 0.9501, expected 1"
        )

    def test_membership_shortfall_just_outside_raises(self, campus_config_dict):
        cfg = _membership_variant(campus_config_dict, {"C4": (0.0, 0.5, 0.4499)})
        with pytest.raises(ValidationError) as info:
            run_pipeline(cfg)
        assert str(info.value) == (
            "config: membership row 'C4' sums to 0.9499; deviation exceeds 0.05"
        )

    @pytest.mark.parametrize("shortfall, warned", [(0.9e-6, False), (1.1e-6, True)])
    def test_vector_sum_warning_bound(self, campus_config_dict, shortfall, warned):
        # Every row falls short of 1 by the same amount, so every vector does too.
        rows = {ind: (0.2, 0.5, 0.3 - shortfall) for ind in campus_config_dict["membership"]}
        report = run_pipeline(_membership_variant(campus_config_dict, rows))
        assert report.operator == "weighted-average"
        assert bool(_messages(report, "fuzzy-vector-sum")) is warned
        if warned:  # four first-level vectors and the second-level one
            assert len(_messages(report, "fuzzy-vector-sum")) == 5


class TestMalformedConfig:
    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["criteria"][0].pop("id"), "criteria[0]: missing key 'id'"),
            (
                lambda d: d["criteria"][1]["indicators"][2].pop("id"),
                "criteria[1].indicators[2]: missing key 'id'",
            ),
            (lambda d: d.update(criteria=5), "criteria: expected a list, got int"),
            (lambda d: d["criteria"].append("B5"), "criteria[4]: expected an object, got str"),
            (lambda d: d.update(grades=3), "grades: expected a list, got int"),
            (lambda d: d.update(membership=[1, 2]), "membership: expected an object, got list"),
            (lambda d: d["membership"].update(C1=0.5), "membership.C1: expected an object"),
            (lambda d: d["membership"]["C1"].update(Good="x"), "membership.C1.Good: not a number"),
            (
                lambda d: d["judgment_matrices"].update(goal=5),
                "judgment_matrices.goal: expected a list",
            ),
            (
                lambda d: d["judgment_matrices"]["goal"].pop(),
                "matrix 'goal': not square of order 4",
            ),
            (lambda d: d.update(alpha="half"), "alpha: not a number: 'half'"),
            (lambda d: d.update(screening=[]), "screening: expected an object, got list"),
            (
                lambda d: d.update(respondent_classes=[{"label": "expert"}]),
                "respondent_classes[0]: missing key 'score_weight'",
            ),
            (
                lambda d: d.update(operator="mean"),
                "unknown operator 'mean'; expected one of ('weighted-average', 'min-max')",
            ),
            (
                lambda d: d["judgment_matrices"].pop("B1"),
                "missing judgment matrices for nodes: ['B1']",
            ),
            (lambda d: d.update(membership={}), "membership matrix has no rows"),
            (
                lambda d: d["respondent_classes"][0].update(score_weight=0),
                "class 'expert': score_weight must be in (0, 1], got 0.0",
            ),
            (
                lambda d: d["screening"].update(min_mean=math.inf),
                "screening threshold min_mean must be finite",
            ),
            (
                lambda d: d["screening"].update(min_gcr=math.nan),
                "screening threshold min_gcr must be finite",
            ),
            (
                lambda d: _inline_values(d, 5),
                "decision matrix shape mismatch: expected 4x14",
            ),
            (
                lambda d: d.update(weights_policy="both"),
                "unknown weights_policy 'both'; expected one of ('paper', 'fused-both')",
            ),
            (
                lambda d: d["membership"]["C1"].update(Fair=0.0),
                "membership row 'C1': unknown grades ['Fair']",
            ),
        ],
    )
    def test_shape_errors_name_the_key_path(self, campus_config_dict, edit, message):
        data = copy.deepcopy(campus_config_dict)
        edit(data)
        with pytest.raises(ValidationError, match="^config: " + re.escape(message)):
            ProjectConfig.from_dict(data)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda d: d["screening"].update(max_CV=0.01), "screening"),
            (lambda d: d["criteria"][1].update(max_CV=0.01), "criteria[1]"),
            (
                lambda d: d["criteria"][0]["indicators"][2].update(max_CV=0.01),
                "criteria[0].indicators[2]",
            ),
            (lambda d: d["respondent_classes"][1].update(max_CV=0.01), "respondent_classes[1]"),
            (lambda d: d["decision_matrix"].update(max_CV=0.01), "decision_matrix"),
        ],
        ids=["screening", "criterion", "indicator", "respondent_class", "decision_matrix"],
    )
    def test_unknown_nested_key_rejected(self, campus_config_dict, edit, message):
        data = _with_decision_matrix(campus_config_dict)
        ProjectConfig.from_dict(data)
        edit(data)
        expected = re.escape(f"config: {message}: unknown keys ['max_CV']")
        with pytest.raises(ValidationError, match=f"^{expected}$"):
            ProjectConfig.from_dict(data)

    def test_duplicate_indicator_id_is_one_violation(self, campus_config_dict):
        data = copy.deepcopy(campus_config_dict)
        data["criteria"][1]["indicators"][0]["id"] = "C1"
        with pytest.raises(ValidationError) as exc:
            ProjectConfig.from_dict(data)
        assert str(exc.value) == "config: invalid hierarchy: indicators: duplicate ids ['C1']"

    @pytest.mark.parametrize(
        "what, k, repeated", [("alternatives", 1, "S1"), ("indicators", 3, "C2")]
    )
    def test_repeated_decision_matrix_id_is_named(self, campus_config_dict, what, k, repeated):
        data = _with_decision_matrix(campus_config_dict)
        data["decision_matrix"][what][k] = repeated
        with pytest.raises(ValidationError) as exc:
            ProjectConfig.from_dict(data)
        assert str(exc.value) == f"config: decision matrix: duplicate {what[:-1]} id {repeated!r}"

    @pytest.mark.parametrize("what, k", [("alternatives", 1), ("indicators", 3)])
    def test_empty_decision_matrix_id_is_named(self, campus_config_dict, what, k):
        data = _with_decision_matrix(campus_config_dict)
        data["decision_matrix"][what][k] = ""
        with pytest.raises(ValidationError) as exc:
            ProjectConfig.from_dict(data)
        assert str(exc.value) == f"config: decision matrix: empty {what[:-1]} id at index {k}"

    def test_blank_decision_matrix_id_is_named(self, campus_config_dict):
        data = _with_decision_matrix(campus_config_dict)
        data["decision_matrix"]["alternatives"][1] = " "
        with pytest.raises(ValidationError) as exc:
            ProjectConfig.from_dict(data)
        assert str(exc.value) == "config: decision matrix: empty alternative id at index 1"

    def test_repeated_grade_label_is_named(self, campus_config_dict):
        data = _variant(campus_config_dict, grades=["Excellent", "Good", "Good"])
        with pytest.raises(ValidationError) as exc:
            ProjectConfig.from_dict(data)
        assert str(exc.value) == "config: duplicate grade label 'Good'"

    @pytest.mark.parametrize(
        "path",
        [
            ("screening", "min_mean"),
            ("screening", "min_full_mark_rate"),
            ("screening", "max_cv"),
            ("screening", "min_gcr"),
            ("screening", "overrides"),
            ("criteria", 0, "indicators", 0, "kind"),
            ("alpha",),
            ("operator",),
            ("weights_policy",),
        ],
    )
    def test_omitted_key_takes_the_dataclass_default(self, campus_config_dict, path):
        data = copy.deepcopy(campus_config_dict)
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        del parent[path[-1]]
        cfg = ProjectConfig.from_dict(data)
        owner, cls = {
            "screening": (cfg.screening, ScreeningCriteria),
            "criteria": (cfg.hierarchy.criteria[0].indicators[0], Indicator),
        }.get(path[0], (cfg, ProjectConfig))
        default = next(f.default for f in fields(cls) if f.name == path[-1])
        assert getattr(owner, path[-1]) == default

    def test_top_level_must_be_an_object(self):
        with pytest.raises(ValidationError, match="^config: expected an object, got list"):
            ProjectConfig.from_dict([1, 2])

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda d: (d["criteria"][0].pop("id"), d["criteria"].__setitem__(1, "B2")),
                "criteria[1]: expected an object, got str",
            ),
            (
                lambda d: (
                    d["criteria"][0]["indicators"][0].pop("id"),
                    d["criteria"][0]["indicators"][2].update(x=1),
                ),
                "criteria[0].indicators[2]: unknown keys ['x']",
            ),
            (
                lambda d: (
                    d["criteria"][0]["indicators"][0].update(kind="x"),
                    d["criteria"][1]["indicators"][0].update(x=1),
                ),
                "indicator 'C1': kind must be 'qualitative' or 'quantitative'",
            ),
            (
                lambda d: (
                    d["membership"]["C1"].pop("Good"), d["membership"]["C1"].update(Fair=0.1)
                ),
                "membership row 'C1': missing grades ['Good']",
            ),
            (
                lambda d: (
                    d["membership"]["C1"].update(Good="x"), d["membership"]["C2"].pop("Good")
                ),
                "membership.C1.Good: not a number: 'x'",
            ),
            (
                lambda d: (
                    d["judgment_matrices"]["goal"][0].pop(),
                    d["judgment_matrices"]["goal"].__setitem__(1, 5),
                ),
                "judgment_matrices.goal[1]: expected a list, got int",
            ),
            (
                lambda d: (
                    d["judgment_matrices"]["goal"].__setitem__(1, 5),
                    d["judgment_matrices"].update(B9=[[1]]),
                ),
                "judgment_matrices.goal[1]: expected a list, got int",
            ),
        ],
        ids=[
            "criterion-type-before-field",
            "indicator-keys-before-field",
            "indicator-kind-before-next-criterion",
            "missing-before-unknown-grade",
            "cell-before-next-row",
            "row-type-before-shape",
            "rows-before-later-node",
        ],
    )
    def test_first_of_two_faults_is_reported(self, campus_config_dict, edit, message):
        # Each config holds two faults; the one named is the one found first.
        data = copy.deepcopy(campus_config_dict)
        edit(data)
        with pytest.raises(ValidationError) as exc:
            ProjectConfig.from_dict(data)
        assert str(exc.value) == f"config: {message}"


class TestDeterminism:
    def test_repeated_runs_emit_identical_json(self, campus_config_dict):
        def one_pass():
            cfg = ProjectConfig.from_dict(copy.deepcopy(campus_config_dict))
            return emit_report(run_pipeline(cfg), "json")

        assert one_pass() == one_pass()

    def test_runs_on_one_config_emit_identical_json(self, campus_config):
        first = emit_report(run_pipeline(campus_config), "json")
        assert emit_report(run_pipeline(campus_config), "json") == first

    def test_config_hash_stable(self, campus_config_dict):
        a = ProjectConfig.from_dict(copy.deepcopy(campus_config_dict)).config_hash()
        b = ProjectConfig.from_dict(copy.deepcopy(campus_config_dict)).config_hash()
        assert a == b and len(a) == 64


INCONSISTENT_GOAL = [
    ["1", "9", "1/9", "9"],
    ["1/9", "1", "9", "1/9"],
    ["9", "1/9", "1", "9"],
    ["1/9", "9", "1/9", "1"],
]
INCONSISTENT_GOAL_ERROR = (
    "ahp: judgment matrix 'goal' failed the consistency check "
    "(CR = 3.6118 >= 0.1); revise the comparisons"
)


def _with_unknown_override(config_dict):
    data = copy.deepcopy(config_dict)
    data["screening"]["overrides"] = ["C4", "ZZ"]
    return data


def _with_zero_first_column(config_dict):
    """The config with its objective weights swapped for a 2-row matrix that entropy rejects."""
    data = copy.deepcopy(config_dict)
    ids = list(data.pop("objective_weights"))
    data["decision_matrix"] = {
        "alternatives": ["S1", "S2"],
        "indicators": ids,
        "values": [[0.0] + [float(k) for k in range(1, len(ids))] for _ in range(2)],
    }
    return data


class TestKeptStages:
    """A config runs its alpha-free stages once and keeps them; errors are not kept."""

    GRID = [k / 20 for k in range(21)]

    def test_alpha_free_stages_run_once_per_config_object(self, monkeypatch, campus_config_dict):
        calls = {"ahp_stage": 0, "entropy_weights": 0, "to_array": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(pipeline, "ahp_stage", counted("ahp_stage", pipeline.ahp_stage))
        monkeypatch.setattr(
            pipeline, "entropy_weights", counted("entropy_weights", pipeline.entropy_weights)
        )
        monkeypatch.setattr(
            MembershipMatrix, "to_array", counted("to_array", MembershipMatrix.to_array)
        )
        cfg = ProjectConfig.from_dict(_with_decision_matrix(campus_config_dict))
        for _ in range(3):
            sweep_alpha(cfg, self.GRID)
        run_pipeline(cfg)
        assert calls == {"ahp_stage": 1, "entropy_weights": 1, "to_array": 1}
        other = cfg.with_overrides(alpha=0.3)
        sweep_alpha(other, self.GRID)
        run_pipeline(other)
        assert calls == {"ahp_stage": 2, "entropy_weights": 2, "to_array": 2}

    def test_changing_a_report_changes_no_later_report(self, campus_config):
        report = run_pipeline(campus_config)
        expected = emit_report(report, "json")
        vectors = [
            report.ahp.criterion,
            report.criterion_objective,
            report.criterion_comprehensive,
            report.ahp.indicator,
            report.indicator_objective,
            report.indicator_comprehensive,
            *report.ahp.relative.values(),
        ]
        for w in vectors:
            for k in w.weights:
                with pytest.raises(TypeError):
                    w.weights[k] = 0.25
            with pytest.raises(TypeError):
                w.weights["extra"] = 0.5
        for mapping in (report.ahp.relative, report.ahp.consistency):
            with pytest.raises(AttributeError):
                mapping.clear()
        again = run_pipeline(campus_config)
        assert again.ahp is report.ahp  # the kept section, not a copy
        assert emit_report(again, "json") == expected

    @pytest.mark.parametrize("operator", ["weighted-average", "min-max"])
    @pytest.mark.parametrize("policy", ["paper", "fused-both"])
    def test_sweep_unchanged_by_a_run_between(self, campus_config, operator, policy):
        cfg = campus_config.with_overrides(operator=operator, weights_policy=policy)
        columns = ("alphas", "second_level", "verdict_grade", "verdict_membership", "verdict_tied")
        before = sweep_alpha(cfg, self.GRID)
        run_pipeline(cfg)
        after = sweep_alpha(cfg, self.GRID)
        for name in columns:
            assert repr(getattr(after, name).tolist()) == repr(getattr(before, name).tolist())

    def test_screening_fault_comes_before_entropy_fault(self, campus_config_dict, fixture_dir):
        cfg = ProjectConfig.from_dict(
            _with_zero_first_column(_with_unknown_override(campus_config_dict))
        )
        survey = ingest_survey(fixture_dir / "survey_round2.csv", cfg.classes)
        screen_error = "screen: unknown override ids: ['ZZ']"
        entropy_error = "entropy: degenerate indicator column 'C1': sum is zero"
        for with_survey, message in [(True, screen_error), (False, entropy_error)] * 2:
            with pytest.raises(ValidationError) as err:
                run_pipeline(cfg, survey if with_survey else None)
            assert str(err.value) == message

    @pytest.mark.parametrize("reverse", [False, True])
    def test_inconsistent_goal_raises_in_stage_order(self, campus_config_dict, fixture_dir, reverse):
        data = _with_unknown_override(campus_config_dict)
        data["judgment_matrices"]["goal"] = INCONSISTENT_GOAL
        cfg = ProjectConfig.from_dict(data)
        survey = ingest_survey(fixture_dir / "survey_round2.csv", cfg.classes)
        steps = [
            (True, None, None),
            (False, survey, "screen: unknown override ids: ['ZZ']"),
            (False, None, INCONSISTENT_GOAL_ERROR),
        ]
        for allow, rows, message in reversed(steps) if reverse else steps:
            if message is None:
                report = run_pipeline(cfg, rows, allow_inconsistent=allow)
                assert not report.ahp.consistency["goal"].consistent
                continue
            with pytest.raises(ValidationError) as err:
                run_pipeline(cfg, rows, allow_inconsistent=allow)
            assert str(err.value) == message

    @pytest.mark.parametrize("allow_first", [False, True])
    def test_inconsistent_matrix_comes_before_an_entropy_fault(
        self, campus_config_dict, allow_first
    ):
        data = _with_zero_first_column(campus_config_dict)
        data["judgment_matrices"]["goal"] = INCONSISTENT_GOAL
        cfg = ProjectConfig.from_dict(data)
        expected = {
            False: INCONSISTENT_GOAL_ERROR,
            True: "entropy: degenerate indicator column 'C1': sum is zero",
        }
        for allow in (allow_first, not allow_first):
            with pytest.raises(ValidationError) as err:
                run_pipeline(cfg, allow_inconsistent=allow)
            assert str(err.value) == expected[allow]

    @pytest.mark.parametrize("allow_first", [False, True])
    def test_inconsistent_matrix_comes_before_a_later_matrix_fault(
        self, campus_config_dict, allow_first
    ):
        data = copy.deepcopy(campus_config_dict)
        data["judgment_matrices"]["goal"] = INCONSISTENT_GOAL
        b2 = data["criteria"][1]["indicators"]
        extra = [f"X{k}" for k in range(10 - len(b2))]
        b2 += [{"id": i, "name": i, "kind": "qualitative"} for i in extra]
        for i in extra:
            data["membership"][i] = dict(data["membership"]["C4"])
            data["objective_weights"][i] = 0.0
        data["judgment_matrices"]["B2"] = [["1"] * 10 for _ in range(10)]
        cfg = ProjectConfig.from_dict(data)
        expected = {
            False: INCONSISTENT_GOAL_ERROR,
            True: "ahp: matrix 'B2': RI undefined for order > 9",
        }
        for allow in (allow_first, not allow_first):
            with pytest.raises(ValidationError) as err:
                sweep_alpha(cfg, self.GRID, allow_inconsistent=allow)
            assert str(err.value) == expected[allow]

    def test_warnings_list_membership_then_screening_then_ahp(
        self, campus_config_dict, fixture_dir
    ):
        data = copy.deepcopy(campus_config_dict)
        data["judgment_matrices"]["goal"] = INCONSISTENT_GOAL
        cfg = ProjectConfig.from_dict(data)
        survey = ingest_survey(fixture_dir / "survey_round2.csv", cfg.classes)
        expected = [
            "membership-row-sum",
            "screening-rejected-in-hierarchy",
            "screening-rejected-in-hierarchy",
            "inconsistent-judgment-matrix",
        ]
        for _ in range(2):  # the first run builds the kept record, the second reads it
            report = run_pipeline(cfg, survey, allow_inconsistent=True)
            codes = [w.code for w in report.warnings if w.code != "fuzzy-vector-sum"]
            assert codes == expected

    def test_screening_fault_comes_before_membership_fault(self, campus_config_dict, fixture_dir):
        data = _with_unknown_override(campus_config_dict)
        data["membership"]["C1"]["Good"] -= 0.2  # the row's largest cell; it sums to 0.75
        cfg = ProjectConfig.from_dict(data)
        survey = ingest_survey(fixture_dir / "survey_round2.csv", cfg.classes)
        screen_error = "screen: unknown override ids: ['ZZ']"
        membership_error = "config: membership row 'C1' sums to 0.7500; deviation exceeds 0.05"
        for with_survey, message in [(True, screen_error), (False, membership_error)] * 2:
            with pytest.raises(ValidationError) as err:
                run_pipeline(cfg, survey if with_survey else None)
            assert str(err.value) == message


# Every mapping a config, an AHP section or a report holds: (owner, path, its mappings).
READ_ONLY_MAPPINGS = [
    ("config", "matrices", lambda cfg: [cfg.matrices]),
    ("config", "membership.rows", lambda cfg: [cfg.membership.rows]),
    ("config", "membership.rows[i]", lambda cfg: list(cfg.membership.rows.values())),
    ("config", "objective_weights.weights", lambda cfg: [cfg.objective_weights.weights]),
    ("ahp", "relative", lambda ahp: [ahp.relative]),
    ("ahp", "relative[c].weights", lambda ahp: [w.weights for w in ahp.relative.values()]),
    ("ahp", "consistency", lambda ahp: [ahp.consistency]),
    ("report", "ahp.consistency", lambda r: [r.ahp.consistency]),
    ("report", "ahp.relative", lambda r: [r.ahp.relative]),
    ("report", "ahp.relative[c].weights", lambda r: [w.weights for w in r.ahp.relative.values()]),
    ("report", "ahp.criterion.weights", lambda r: [r.ahp.criterion.weights]),
    ("report", "ahp.indicator.weights", lambda r: [r.ahp.indicator.weights]),
    *(
        ("report", f"{name}.weights", lambda r, name=name: [getattr(r, name).weights])
        for name in (
            "criterion_objective",
            "criterion_comprehensive",
            "indicator_objective",
            "indicator_comprehensive",
        )
    ),
    ("report", "first_level", lambda r: [r.first_level]),
    (
        "report",
        "first_level[c].memberships",
        lambda r: [v.memberships for v in r.first_level.values()],
    ),
    ("report", "second_level.memberships", lambda r: [r.second_level.memberships]),
]


class TestReadOnlyMappings:
    @pytest.mark.parametrize(
        "owner, mappings",
        [(owner, get) for owner, _, get in READ_ONLY_MAPPINGS],
        ids=[f"{owner}.{path}" for owner, path, _ in READ_ONLY_MAPPINGS],
    )
    def test_a_write_raises(self, campus_config_dict, owner, mappings):
        cfg = ProjectConfig.from_dict(campus_config_dict)
        build = {
            "config": lambda: cfg,
            "ahp": lambda: pipeline.ahp_stage(cfg, allow_inconsistent=False),
            "report": lambda: run_pipeline(cfg),
        }[owner]
        fresh = mappings(build())  # a config before its first run, or the first result
        run_pipeline(cfg)
        later = mappings(build())  # the config after a run, or a result of its kept record
        for mapping in fresh + later:
            key = next(iter(mapping))
            value = mapping[key]
            with pytest.raises(TypeError):
                mapping[key] = value
            with pytest.raises(TypeError):
                mapping["new"] = value
            with pytest.raises(TypeError):
                del mapping[key]
            with pytest.raises(AttributeError):
                mapping.clear()
            with pytest.raises(AttributeError):
                mapping.pop(key)
            assert mapping[key] is value

    def test_swapping_two_weights_after_a_run_raises_at_the_swap(self, campus_config):
        report = run_pipeline(campus_config)
        weights = campus_config.objective_weights.weights
        a, b = list(weights)[:2]
        with pytest.raises(TypeError):
            weights[a], weights[b] = weights[b], weights[a]
        again = run_pipeline(campus_config)
        reparsed = run_pipeline(ProjectConfig.from_dict(campus_config.to_dict()))
        assert again.config_sha256 == reparsed.config_sha256 == report.config_sha256
        assert emit_report(again, "json") == emit_report(reparsed, "json")


def _scalar_second_levels(cfg, alphas):
    """Fusion and both fuzzy levels in plain Python, one alpha and one scalar at a time.

    Only the alpha-free inputs (AHP and objective weights) come from the pipeline;
    every sum and max of mins runs left to right, as the scalar formulas read.
    """
    report = run_pipeline(cfg)
    crit_s, crit_o = report.ahp.criterion, report.criterion_objective
    ind_s, ind_o = report.ahp.indicator, report.indicator_objective
    rows, grades = cfg.membership.rows, cfg.membership.grades

    def compose(weights, vectors):
        if cfg.operator == "weighted-average":
            return [float_sum(w * v[g] for w, v in zip(weights, vectors)) for g in grades]
        return [max(min(w, v[g]) for w, v in zip(weights, vectors)) for g in grades]

    out = []
    for a in alphas:
        first = []
        for c in cfg.hierarchy.criteria:
            if cfg.weights_policy == "fused-both":
                fused = [a * ind_s[i] + (1.0 - a) * ind_o[i] for i in c.children]
                total = float_sum(fused)
                weights = [w / total for w in fused]
            else:
                weights = [report.ahp.relative[c.id][i] for i in c.children]
            first.append(dict(zip(grades, compose(weights, [rows[i] for i in c.children]))))
        criterion = [a * crit_s[c.id] + (1.0 - a) * crit_o[c.id] for c in cfg.hierarchy.criteria]
        out.append(compose(criterion, first))
    return out


class TestSweepAlpha:
    def test_rows_sorted_and_endpoint_behaviour(self, campus_config):
        rows = list(sweep_alpha(campus_config, [1.0, 0.0, 0.5]))
        assert [r.alpha for r in rows] == [0.0, 0.5, 1.0]
        mid = run_pipeline(campus_config)
        assert rows[1].second_level.as_dict() == mid.second_level.as_dict()

    def test_power_iteration_runs_once_per_loaded_matrix(self, monkeypatch, campus_config_dict):
        """Each config object iterates its five matrices once, and so does each copy of it."""
        calls = []
        inner = ahp._principal_eigenvector
        monkeypatch.setattr(ahp, "_principal_eigenvector", lambda a: calls.append(1) or inner(a))
        base = ProjectConfig.from_dict(campus_config_dict)
        grid = [0.0, 0.5, 1.0]
        copies = [
            base.with_overrides(operator="weighted-average"),
            base.with_overrides(operator="min-max", weights_policy="fused-both"),
        ]
        for k, cfg in enumerate([base, *copies], 1):
            for _ in range(2):
                sweep_alpha(cfg, grid)
            run_pipeline(cfg)
            assert len(calls) == 5 * k
        again = sweep_alpha(ProjectConfig.from_dict(campus_config_dict), grid)
        assert len(calls) == 20
        assert sweep_to_json_dict(again) == sweep_to_json_dict(sweep_alpha(copies[0], grid))

    def test_duplicate_grid_values_repeat_rows(self, campus_config):
        sweep = sweep_alpha(campus_config, [0.5, 0.5])
        rows = list(sweep)
        assert len(sweep) == len(rows) == 2
        assert rows[0].second_level.as_dict() == rows[1].second_level.as_dict()

    def test_verdict_stable_across_full_grid(self, campus_config):
        grid = [round(0.1 * k, 10) for k in range(11)]
        rows = sweep_alpha(campus_config, grid)
        assert [r.verdict.grade for r in rows] == ["Good"] * 11

    def test_numpy_grid_accepted(self, campus_config):
        rows = sweep_alpha(campus_config, np.linspace(1.0, 0.0, 5))
        assert [r.alpha for r in rows] == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert all(type(r.alpha) is float for r in rows)

    def test_grid_values_validated(self, campus_config):
        with pytest.raises(ValidationError, match=r"must be in \[0, 1\], got 1\.5$"):
            sweep_alpha(campus_config, [0.5, 1.5])
        with pytest.raises(ValidationError, match="empty"):
            sweep_alpha(campus_config, [])

    @pytest.mark.parametrize(
        "grid, shown",
        [
            (["a"], "'a'"),
            ([None], "None"),
            ([True, 0.5], "True"),
            ([0.5, 0.25, False], "False"),
            ([0.5, "0.5"], "'0.5'"),
            ([0.5, np.True_], repr(np.True_)),
            (np.array([False, True]), repr(np.False_)),
            ([[0.5], 0.25], "[0.5]"),
            ([0.5, 1.5, "a"], "'a'"),
        ],
    )
    def test_grid_value_that_is_not_a_number(self, campus_config, grid, shown):
        with pytest.raises(ValidationError) as info:
            sweep_alpha(campus_config, grid)
        assert str(info.value) == f"sweep grid value is not a number: {shown}"

    @pytest.mark.parametrize(
        "grid, message",
        [
            ([], "sweep grid is empty"),
            ((), "sweep grid is empty"),
            (iter([]), "sweep grid is empty"),
            (np.array([]), "sweep grid is empty"),
            ([0.5, 1.5, -0.25], "sweep grid value must be in [0, 1], got 1.5"),
            ([2, 0.5], "sweep grid value must be in [0, 1], got 2"),
            (np.array([0.5, 1.5]), "sweep grid value must be in [0, 1], got 1.5"),
            ([0.5, float("nan")], "sweep grid value must be in [0, 1], got nan"),
            ([10**400, 0.5], f"sweep grid value must be in [0, 1], got {10**400}"),
            ([-(10**400), -1.0], f"sweep grid value must be in [0, 1], got {-(10**400)}"),
        ],
    )
    def test_grid_errors_keep_their_text(self, campus_config, grid, message):
        with pytest.raises(ValidationError) as info:
            sweep_alpha(campus_config, grid)
        assert str(info.value) == message

    @pytest.mark.parametrize("alpha, shown", [(1.5, "1.5"), (-0.25, "-0.25"), (math.nan, "nan")])
    def test_every_alpha_check_writes_one_text(self, campus_config, alpha, shown):
        """A config, `fuse` and a sweep word a bad alpha alike, but for noun and prefix."""
        paths = (
            ("config: ", "alpha", lambda: campus_config.with_overrides(alpha=alpha)),
            ("", "alpha", lambda: fuse(*[campus_config.objective_weights] * 2, [alpha])),
            ("", "sweep grid value", lambda: sweep_alpha(campus_config, [0.5, alpha])),
        )
        for prefix, noun, call in paths:
            with pytest.raises(ValidationError) as info:
                call()
            assert str(info.value) == f"{prefix}{noun} must be in [0, 1], got {shown}"

    def test_signed_zeros_keep_the_order_sorted_gives(self, campus_config):
        for grid, signs in (([0.0, -0.0], [1.0, -1.0]), ([-0.0, 0.0], [-1.0, 1.0])):
            assert [math.copysign(1.0, a) for a in sorted(grid)] == signs
            sweep = sweep_alpha(campus_config, grid)
            assert [math.copysign(1.0, a) for a in sweep.alphas.tolist()] == signs
            assert [math.copysign(1.0, row.alpha) for row in sweep] == signs

    @given(
        st.lists(
            st.one_of(st.floats(min_value=0.0, max_value=1.0), st.sampled_from([0, 1, -0.0])),
            min_size=1,
            max_size=8,
        )
    )
    @example([1, 0])
    @settings(max_examples=40, deadline=None)
    def test_every_container_sweeps_like_the_sorted_list(self, campus_config_dict, values):
        cfg = ProjectConfig.from_dict(campus_config_dict)
        before = np.array(sorted(values), dtype=np.float64)  # the grid as `sorted` orders it
        expected = sweep_alpha(cfg, [float(v) for v in values])
        assert expected.alphas.tobytes() == before.tobytes()
        grids = [tuple(values), (v for v in values), np.array(values, dtype=np.float64)]
        if all(type(v) is int for v in values):
            grids.append(np.array(values))
        for grid in grids:
            sweep = sweep_alpha(cfg, grid)
            assert sweep.alphas.tobytes() == before.tobytes()
            assert sweep.second_level.tobytes() == expected.second_level.tobytes()
            assert sweep_to_json_dict(sweep) == sweep_to_json_dict(expected)
            assert all(type(row.alpha) is float for row in sweep)

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_rows_equal_run_pipeline_at_each_alpha(self, campus_config_dict, grid):
        base = ProjectConfig.from_dict(campus_config_dict)
        for operator in ("weighted-average", "min-max"):
            for policy in ("paper", "fused-both"):
                cfg = base.with_overrides(operator=operator, weights_policy=policy)
                rows = sweep_alpha(cfg, grid)
                assert [r.alpha for r in rows] == sorted(grid)
                for row in rows:
                    report = run_pipeline(cfg.with_overrides(alpha=row.alpha))
                    assert row.second_level.as_dict() == report.second_level.as_dict()
                    assert row.verdict == report.verdict

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8))
    @settings(max_examples=25, deadline=None)
    def test_second_level_equals_scalar_oracle(self, campus_config_dict, grid):
        # Independent of `_evaluate`'s array layout: the oracle never touches numpy.
        base = ProjectConfig.from_dict(campus_config_dict)
        for operator in ("weighted-average", "min-max"):
            for policy in ("paper", "fused-both"):
                cfg = base.with_overrides(operator=operator, weights_policy=policy)
                sweep = sweep_alpha(cfg, grid)
                # repr tells -0.0 from 0.0, which == does not
                assert repr(sweep.second_level.tolist()) == repr(
                    _scalar_second_levels(cfg, sorted(grid))
                )

    def test_fused_both_sweep_through_zero_rejects_degenerate_criterion(
        self, campus_config_dict
    ):
        # B1's indicators carry no objective weight, so at alpha = 0 their fused
        # weights are all zero and cannot be normalised within B1.
        data = copy.deepcopy(campus_config_dict)
        weights = data["objective_weights"]
        for ind in ("C1", "C2", "C3"):
            weights[ind] = 0.0
        rest = sum(weights.values())
        data["objective_weights"] = {k: v / rest for k, v in weights.items()}
        cfg = ProjectConfig.from_dict(data).with_overrides(weights_policy="fused-both")
        assert len(sweep_alpha(cfg, [0.25, 0.5, 1.0])) == 3
        with pytest.raises(ValidationError, match="^fuzzy: degenerate weight vector"):
            sweep_alpha(cfg, [1.0, 0.5, 0.0])
        with pytest.raises(ValidationError, match="^fuzzy: degenerate weight vector"):
            run_pipeline(cfg.with_overrides(alpha=0.0))

    def test_row_api(self, campus_config):
        sweep = sweep_alpha(campus_config, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert isinstance(sweep, AlphaSweep) and len(sweep) == 5
        rows = list(sweep)
        assert [r.alpha for r in rows] == sweep.alphas.tolist() == [0.0, 0.25, 0.5, 0.75, 1.0]
        assert [r.second_level.as_dict() for r in rows] == [
            dict(zip(sweep.grades, v)) for v in sweep.second_level.tolist()
        ]
        assert [r.verdict.grade for r in rows] == sweep.verdict_grade.tolist()
        assert [r.verdict.membership for r in rows] == sweep.verdict_membership.tolist()
        assert [r.verdict.tied for r in rows] == sweep.verdict_tied.tolist()
        assert list(sweep_rows(sweep)) == [
            (r.alpha, [r.second_level[g] for g in sweep.grades], r.verdict.grade,
             r.verdict.membership, r.verdict.tied)
            for r in rows
        ]

    def test_columns_read_only(self, campus_config):
        sweep = sweep_alpha(campus_config, [0.0, 1.0])
        for column in (sweep.alphas, sweep.second_level, sweep.verdict_membership):
            with pytest.raises(ValueError):
                column[0] = 0.5

    def test_columns_c_contiguous_and_read_only(self, campus_config):
        scale = campus_config.scale
        cfg = campus_config.with_overrides(operator="min-max", weights_policy="fused-both")
        f_ordered = np.asfortranarray([[0.2, 0.5, 0.3], [0.1, 0.6, 0.3]])
        built = AlphaSweep([0.0, 1.0], f_ordered, scale)
        assert built.grades == scale.labels
        one_row = np.array([[0.2, 0.5, 0.3]])  # C and F ordered at once
        AlphaSweep([0.0], one_row, scale)
        assert one_row.flags.writeable  # the sweep froze a copy, not the caller's array
        for sweep in (sweep_alpha(cfg, [0.0, 0.3, 1.0]), built):
            for name in (
                "alphas", "second_level", "verdict_grade", "verdict_membership", "verdict_tied"
            ):
                column = getattr(sweep, name)
                assert column.flags.c_contiguous, name
                assert not column.flags.writeable, name

    @pytest.mark.parametrize("bad", [1.5, -0.1, float("nan")])
    def test_out_of_range_vector_rejected_like_fuzzy_vector(self, bad):
        scale = GradeScale(("Excellent", "Good", "Poor"))
        vectors = [[0.2, 0.5, 0.3], [0.1, bad, 0.2], [bad, 0.0, 0.0]]
        with pytest.raises(ValidationError) as expected:
            FuzzyVector(dict(zip(scale.labels, vectors[1])))
        with pytest.raises(ValidationError, match="^fuzzy: ") as info:
            AlphaSweep([0.0, 0.5, 1.0], vectors, scale)
        assert str(info.value) == f"fuzzy: {expected.value}"

    def test_column_shapes_must_agree(self):
        scale = GradeScale(("Excellent", "Good", "Poor"))
        with pytest.raises(ValidationError, match="sweep shape mismatch"):
            AlphaSweep([0.0, 1.0], [[0.2, 0.5, 0.3]], scale)
        with pytest.raises(ValidationError, match="sweep shape mismatch"):
            AlphaSweep([0.0], [[0.2, 0.5]], scale)

    def test_sweep_reproducible(self, campus_config):
        grid = [round(0.1 * k, 10) for k in range(11)]
        first = sweep_to_json_dict(sweep_alpha(campus_config, grid))
        second = sweep_to_json_dict(sweep_alpha(campus_config, grid))
        assert json.dumps(first) == json.dumps(second)


def _padded_compose(weights, rows, operator):
    """The padded kernel: weights (..., n, A) with rows (..., n, G, A or 1), term by term."""
    acc = 0.0 if operator == "weighted-average" else None
    for j in range(weights.shape[-2]):
        w, r = weights[..., j, None, :], rows[..., j, :, :]
        if operator == "weighted-average":
            acc = acc + w * r
        else:
            low = np.minimum(r, w)
            acc = low if acc is None else np.maximum(low, acc)
    return acc


def _padded_levels(cfg, alphas):
    """Both fuzzy levels over `alphas` with criterion c's j-th indicator in slot (c, j)
    and zero weight and membership in the unused slots, as arrays (C, G, A or 1), (G, A)."""
    report = run_pipeline(cfg)
    criteria, grades = cfg.hierarchy.criteria, cfg.scale.labels
    shape = (len(criteria), max(len(c.children) for c in criteria))
    subjective, objective, relative = np.zeros(shape), np.zeros(shape), np.zeros(shape)
    membership = np.zeros(shape + (len(grades), 1))
    for c, crit in enumerate(criteria):
        for j, i in enumerate(crit.children):
            subjective[c, j] = report.ahp.indicator[i]
            objective[c, j] = report.indicator_objective[i]
            relative[c, j] = report.ahp.relative[crit.id][i]
            membership[c, j, :, 0] = [cfg.membership.rows[i][g] for g in grades]
    if cfg.weights_policy == "fused-both":
        w = (1.0 - alphas) * objective[..., None] + subjective[..., None] * alphas
        total = 0.0
        for j in range(shape[1]):
            total = total + w[:, j]
        w = w / total[:, None]
    else:
        w = relative[..., None]
    first = _padded_compose(w, membership, cfg.operator)
    crit_s = np.array(report.ahp.criterion.values())[:, None]
    crit_o = np.array(report.criterion_objective.values())[:, None]
    criterion = (1.0 - alphas) * crit_o + crit_s * alphas
    return first, _padded_compose(criterion, first, cfg.operator)


class TestSlotLayout:
    """Level one in the size-sorted slot layout against the padded layout it replaced."""

    GRID = np.array([0.0, 0.3, 0.5, 1.0])

    @given(configs())
    @settings(max_examples=40, deadline=None)
    def test_levels_equal_the_padded_layout_bit_for_bit(self, base):
        for operator in ("weighted-average", "min-max"):
            for policy in ("paper", "fused-both"):
                cfg = base.with_overrides(operator=operator, weights_policy=policy)
                run = pipeline._evaluate(cfg, None, False, self.GRID)
                first, second = _padded_levels(cfg, self.GRID)
                assert run.first.shape == first.shape
                assert run.first.tobytes() == first.tobytes()
                assert run.second.tobytes() == second.tobytes()
                sweep = sweep_alpha(cfg, self.GRID)
                assert sweep.second_level.tobytes() == second.T.tobytes()
                for row in sweep:
                    report = run_pipeline(cfg.with_overrides(alpha=row.alpha))
                    # repr tells -0.0 from 0.0, which == does not
                    assert repr(row.second_level) == repr(report.second_level)
                    assert row.verdict == report.verdict


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


class TestGoldenReports:
    """The fixture's reports, byte for byte, as captured before the batched tail."""

    @pytest.mark.parametrize("fmt, suffix", [("json", "json"), ("markdown", "md")])
    def test_evaluate_matches_golden(self, campus_config, fixture_dir, fmt, suffix):
        golden = (fixture_dir / "golden" / f"evaluate.{suffix}").read_text(encoding="utf-8")
        assert emit_report(run_pipeline(campus_config), fmt) == golden

    def test_survey_evaluate_matches_golden_plus_screening_warnings(
        self, campus_config, fixture_dir
    ):
        golden = fixture_dir / "golden"
        survey = ingest_survey(fixture_dir / "survey_round2.csv", campus_config.classes)
        report = run_pipeline(campus_config, survey=survey)
        code = "screening-rejected-in-hierarchy"

        text = emit_report(report, "json")
        assert text == (golden / "evaluate_survey.json").read_text(encoding="utf-8")
        assert sum(w["code"] == code for w in json.loads(text)["warnings"]) == 2

        md = emit_report(report, "markdown")
        assert md == (golden / "evaluate_survey.md").read_text(encoding="utf-8")
        assert sum(line.startswith(f"- {code}: ") for line in md.split("\n")) == 2


class TestBenchmarkGrid:
    """The fixture's sweep JSON on the benchmark's 1001-point grid, pinned by sha256.

    The CI goldens sweep at steps 0.05 and 0.01 only; these cover the grid
    `perfbench` runs, under every operator and weights policy.
    """

    DIGESTS = {
        ("weighted-average", "paper"):
            "ff067e96a66b7e6a597c8d970c39810c85a0d196b75f45c7135da9dbd4608d6a",
        ("weighted-average", "fused-both"):
            "b142d48cda647ba0afea8e282132eb240de1e68feb6db6f73de70b4f39ccaf3d",
        ("min-max", "paper"):
            "ea1cd4878120ec1564512e7d1f43e26be2e6c388935e7a2e984471fd09c76608",
        ("min-max", "fused-both"):
            "ea1c5b1140ef75b8c7ea88e4191a33d58ee102a2af04e9ea55e07726c7010785",
    }

    @pytest.mark.parametrize("operator, policy", sorted(DIGESTS))
    def test_sweep_json_matches_pinned_digest(self, campus_config, operator, policy):
        cfg = campus_config.with_overrides(operator=operator, weights_policy=policy)
        text = json_text(sweep_to_json_dict(sweep_alpha(cfg, [i / 1000 for i in range(1001)])))
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == self.DIGESTS[operator, policy]


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

    def test_shuffled_criteria_and_indicators_round_trip(self, campus_config_dict):
        data = copy.deepcopy(campus_config_dict)
        rng = random.Random(1)
        rng.shuffle(data["criteria"])
        for c in data["criteria"]:
            rng.shuffle(c["indicators"])
        assert data["criteria"] != campus_config_dict["criteria"]
        cfg = ProjectConfig.from_dict(data)
        assert cfg.to_dict()["criteria"] == data["criteria"]
        assert ProjectConfig.from_dict(cfg.to_dict()).config_hash() == cfg.config_hash()

    @given(configs())
    @settings(max_examples=40, deadline=None)
    def test_round_trip_gives_the_same_hash_and_report_bytes(self, cfg):
        again = ProjectConfig.from_dict(cfg.to_dict())
        assert again.config_hash() == cfg.config_hash()
        for operator in ("weighted-average", "min-max"):
            for policy in ("paper", "fused-both"):
                before, after = (
                    run_pipeline(c.with_overrides(operator=operator, weights_policy=policy))
                    for c in (cfg, again)
                )
                for format in ("json", "markdown"):
                    assert emit_report(after, format) == emit_report(before, format)

    def test_decision_matrix_round_trip(self, campus_config_dict):
        cfg = ProjectConfig.from_dict(_with_decision_matrix(campus_config_dict))
        emitted = cfg.to_dict()
        assert isinstance(emitted["decision_matrix"]["values"][0][0], float)
        reparsed = ProjectConfig.from_dict(json.loads(json.dumps(emitted)))
        assert reparsed == cfg
        assert reparsed.to_dict() == emitted


class TestConfigNumbers:
    def test_each_number_is_parsed_once(self, monkeypatch, fixture_dir):
        calls = []
        parse_float = core.parse_float

        def counting(value, where, *args):
            calls.append(where)
            return parse_float(value, where, *args)

        for name, module in list(sys.modules.items()):
            if name.startswith("siteval.") and getattr(module, "parse_float", None) is parse_float:
                monkeypatch.setattr(module, "parse_float", counting)
        load_config(fixture_dir / "campus_bikeshare.json")
        # 42 membership cells, 14 objective weights, 4 screening thresholds,
        # 2 class weights and alpha.
        assert len(calls) == 63

    def test_alpha_override_is_parsed(self, campus_config):
        assert campus_config.with_overrides(alpha="0.25").alpha == 0.25
        with pytest.raises(ValidationError, match=r"^config: alpha: not a number: True$"):
            campus_config.with_overrides(alpha=True)


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

    def test_fortran_ordered_matrix_hashes_as_c_ordered(self, campus_config_dict):
        # The digest reads the array's buffer, so a column-major one must be
        # hashed in C order, as its row-major twin is.
        cfg = ProjectConfig.from_dict(_with_decision_matrix(campus_config_dict))
        m = cfg.decision_matrix
        fortran = replace(
            cfg,
            decision_matrix=DecisionMatrix(
                m.alternatives, m.indicators, np.asfortranarray(m.values)
            ),
        )
        assert fortran.decision_matrix.values.flags.f_contiguous
        assert fortran.config_hash() == cfg.config_hash()

    def test_one_cell_change_changes_digest(self, campus_config_dict):
        data = _with_decision_matrix(campus_config_dict)
        digest = ProjectConfig.from_dict(data).config_hash()
        data["decision_matrix"]["values"][3][13] += 1e-9
        assert ProjectConfig.from_dict(data).config_hash() != digest

    def test_digest_computed_once_per_config_object(self, monkeypatch, campus_config):
        calls = []
        encode = ProjectConfig._dict_without_values
        monkeypatch.setattr(
            ProjectConfig, "_dict_without_values", lambda cfg: calls.append(1) or encode(cfg)
        )
        digests = {run_pipeline(campus_config).config_sha256 for _ in range(3)}
        assert len(calls) == 1
        other = campus_config.with_overrides(alpha=0.3)
        other_digests = {run_pipeline(other).config_sha256 for _ in range(3)}
        assert len(calls) == 2
        monkeypatch.undo()
        assert digests == {ProjectConfig.from_dict(campus_config.to_dict()).config_hash()}
        assert other_digests == {ProjectConfig.from_dict(other.to_dict()).config_hash()}
        assert digests != other_digests

    def test_decision_matrix_values_read_only(self, campus_config_dict):
        cfg = ProjectConfig.from_dict(_with_decision_matrix(campus_config_dict))
        with pytest.raises(ValueError):
            cfg.decision_matrix.values[0, 0] = 0.0
