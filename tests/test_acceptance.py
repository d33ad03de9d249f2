"""Acceptance gate: every release criterion at its stated tolerance.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line per
criterion.
"""
import copy
import json
from contextlib import contextmanager

import numpy as np
import pytest

from siteval import (
    FuzzyVector,
    GradeScale,
    IndicatorStats,
    JudgmentMatrix,
    ProjectConfig,
    ScreeningCriteria,
    ValidationError,
    WeightVector,
    derive_weights,
    emit_report,
    fuse,
    run_pipeline,
    screen,
    sweep_alpha,
    synthesize_global,
    verdict,
)
from siteval.entropy import DecisionMatrix, entropy_weights
from siteval.fuzzy import WEIGHTED_AVERAGE, second_level
from siteval.report import sweep_to_json_dict


@contextmanager
def criterion(number: int, summary: str):
    try:
        yield
    except Exception:
        print(f"[criterion {number:2d}] FAIL - {summary}")
        raise
    print(f"[criterion {number:2d}] PASS - {summary}")


MATRICES = {
    "goal": (
        ["B1", "B2", "B3", "B4"],
        [
            ["1", "3", "3", "3"],
            ["1/3", "1", "3", "3"],
            ["1/3", "1/3", "1", "1"],
            ["1/3", "1/3", "1", "1"],
        ],
    ),
    "B1": (
        ["C1", "C2", "C3"],
        [["1", "3", "3"], ["1/3", "1", "1/2"], ["1/3", "2", "1"]],
    ),
    "B2": (
        ["C4", "C5", "C6", "C7", "C8", "C9"],
        [
            ["1", "1/2", "1/3", "1/3", "1/3", "1/3"],
            ["2", "1", "1/2", "1/2", "1/2", "1/2"],
            ["3", "2", "1", "2", "1", "1"],
            ["3", "2", "1/2", "1", "1/2", "1/2"],
            ["3", "2", "1", "2", "1", "1"],
            ["3", "2", "1", "2", "1", "1"],
        ],
    ),
    "B3": (["C10", "C11"], [["1", "1/3"], ["3", "1"]]),
    "B4": (
        ["C12", "C13", "C14"],
        [["1", "1/3", "1/3"], ["3", "1", "1/2"], ["3", "2", "1"]],
    ),
}

SUBJECTIVE_GLOBAL = {
    "C1": 0.289, "C2": 0.076, "C3": 0.121,
    "C4": 0.018, "C5": 0.030, "C6": 0.063,
    "C7": 0.041, "C8": 0.063, "C9": 0.063,
    "C10": 0.030, "C11": 0.089,
    "C12": 0.017, "C13": 0.040, "C14": 0.062,
}
OBJECTIVE_GLOBAL = {
    "C1": 0.0460, "C2": 0.1313, "C3": 0.0308,
    "C4": 0.3449, "C5": 0.0190, "C6": 0.0441,
    "C7": 0.0443, "C8": 0.0398, "C9": 0.0409,
    "C10": 0.0138, "C11": 0.0319,
    "C12": 0.1563, "C13": 0.0360, "C14": 0.0209,
}
COMPREHENSIVE_GLOBAL = {
    "C1": 0.1675, "C2": 0.10365, "C3": 0.0759,
    "C4": 0.18145, "C5": 0.0245, "C6": 0.05355,
    "C7": 0.04265, "C8": 0.0514, "C9": 0.05195,
    "C10": 0.0219, "C11": 0.06045,
    "C12": 0.08665, "C13": 0.038, "C14": 0.04145,
}

# Published round-2 panel statistics: (indicator, mean, cv, full-mark rate, gcr).
ROUND2_STATS = [
    # user characteristics
    ("avg_arrival_time", 3.600, 0.184, 0.320, 4.556),
    ("walking_distance", 4.500, 0.149, 0.640, 4.444),
    ("time_urgency", 4.000, 0.158, 0.640, 4.333),
    ("search_time", 4.200, 0.143, 0.640, 4.667),
    ("return_time", 3.700, 0.211, 0.160, 3.889),
    # implementation conditions
    ("pedestrian_flow", 3.700, 0.272, 0.320, 4.111),
    ("business_benefits", 3.400, 0.270, 0.800, 3.778),
    ("environmental_benefits", 2.400, 0.382, 0.000, 4.000),
    ("traffic_impact", 3.200, 0.306, 0.160, 4.000),
    # use characteristics
    ("land_area", 3.200, 0.415, 0.480, 4.111),
    ("turnover_rate", 3.300, 0.194, 0.320, 4.000),
    ("usage_rate", 3.900, 0.179, 0.640, 4.222),
    ("coverage", 2.900, 0.286, 0.160, 4.444),
    ("max_parking_capacity", 2.800, 0.267, 0.160, 4.333),
    ("max_bicycle_demand", 4.200, 0.143, 0.800, 4.000),
    ("min_service_distance", 3.800, 0.197, 0.640, 4.333),
    ("service_radius", 3.800, 0.158, 0.640, 4.222),
    ("entrance_distance", 2.400, 0.333, 0.160, 4.444),
    ("average_usage", 2.900, 0.286, 0.000, 4.111),
    ("mobile_network_quality", 4.000, 0.274, 0.800, 4.556),
    # management level
    ("national_policy", 3.300, 0.385, 0.320, 4.556),
    ("enterprise_management", 3.300, 0.273, 0.320, 4.111),
    ("campus_facilities", 4.100, 0.171, 0.480, 4.556),
    # environmental sustainability
    ("landscape_integration", 2.700, 0.333, 0.000, 4.111),
    ("parking_compatibility", 3.700, 0.173, 0.640, 4.000),
    ("parking_order", 3.800, 0.158, 0.640, 3.889),
    # social sustainability
    ("enterprise_env_culture", 3.700, 0.173, 0.640, 4.333),
    ("campus_env_propaganda", 3.200, 0.306, 0.320, 4.000),
    ("env_education", 3.700, 0.173, 0.640, 4.222),
    ("user_env_concept", 4.100, 0.131, 0.640, 3.778),
]

EXPECTED_STRICT_SELECTION = {
    "walking_distance", "time_urgency", "search_time",
    "usage_rate", "max_bicycle_demand", "min_service_distance", "service_radius",
    "parking_compatibility", "parking_order",
    "enterprise_env_culture", "env_education", "user_env_concept",
}
SCREEN_OVERRIDES = {"business_benefits", "mobile_network_quality"}


def _matrix(node: str) -> JudgmentMatrix:
    labels, rows = MATRICES[node]
    return JudgmentMatrix(node, labels, rows)


def _ids(decisions) -> set[str]:
    return {d.indicator for d in decisions}


def _assert_vector(weights, expected: dict[str, float], tol: float) -> None:
    for key, value in expected.items():
        assert weights[key] == pytest.approx(value, abs=tol), key


def test_criterion_1_target_layer_weights_and_cr():
    with criterion(1, "target-layer weights ±0.005 and CR ±0.003"):
        weights, report = derive_weights(_matrix("goal"))
        _assert_vector(weights, {"B1": 0.487, "B2": 0.276, "B3": 0.118, "B4": 0.118}, 0.005)
        assert report.cr == pytest.approx(0.0592, abs=0.003)


def test_criterion_2_sublayer_weights_and_consistency():
    with criterion(2, "all four sub-layer weight vectors at tolerance, CR < 0.1"):
        expected = {
            "B1": ({"C1": 0.594, "C2": 0.157, "C3": 0.249}, 0.005),
            "B2": (
                {"C4": 0.065, "C5": 0.107, "C6": 0.227, "C7": 0.147, "C8": 0.227, "C9": 0.227},
                0.01,
            ),
            "B3": ({"C10": 0.25, "C11": 0.75}, 1e-6),
            "B4": ({"C12": 0.140, "C13": 0.333, "C14": 0.528}, 0.005),
        }
        for node, (target, tol) in expected.items():
            weights, report = derive_weights(_matrix(node))
            _assert_vector(weights, target, tol)
            assert report.cr < 0.1, node


def test_criterion_3_global_subjective_weights(campus_config):
    with criterion(3, "global subjective weights match the published column ±0.001"):
        derived = {node: derive_weights(_matrix(node))[0] for node in MATRICES}
        global_weights = synthesize_global(
            campus_config.hierarchy,
            derived["goal"],
            {c.id: derived[c.id] for c in campus_config.hierarchy.criteria},
        )
        _assert_vector(global_weights, SUBJECTIVE_GLOBAL, 0.001)


def _summing_to_one(weights: dict[str, float]) -> WeightVector:
    total = sum(weights.values())
    return WeightVector({k: v / total for k, v in weights.items()})


def test_criterion_4_weight_fusion():
    with criterion(4, "comprehensive weights ±0.0005 and criterion fusion ±0.001"):
        # Published inputs carry rounding (sums 1.002 / 0.999), so scale them to sum 1 first.
        subjective = _summing_to_one(SUBJECTIVE_GLOBAL)
        (fused,) = fuse(subjective, _summing_to_one(OBJECTIVE_GLOBAL), [0.5])
        _assert_vector(dict(zip(subjective.ids, fused)), COMPREHENSIVE_GLOBAL, 0.0005)

        crit_subjective = _summing_to_one({"B1": 0.487, "B2": 0.276, "B3": 0.118, "B4": 0.118})
        (crit,) = fuse(
            crit_subjective,
            _summing_to_one({"B1": 0.2081, "B2": 0.533, "B3": 0.0457, "B4": 0.2132}),
            [0.5],
        )
        _assert_vector(
            dict(zip(crit_subjective.ids, crit)),
            {"B1": 0.348, "B2": 0.405, "B3": 0.082, "B4": 0.166},
            0.001,
        )


def test_criterion_5_first_level_vectors(campus_config):
    with criterion(5, "first-level vectors at tolerance, B1 anomaly flagged"):
        report = run_pipeline(campus_config)
        first = report.first_level

        assert first["B2"]["Excellent"] == pytest.approx(0.1723, abs=0.002)
        assert first["B2"]["Good"] == pytest.approx(0.3384, abs=0.002)
        assert first["B2"]["Poor"] == pytest.approx(0.4893, abs=0.002)

        assert first["B3"]["Excellent"] == pytest.approx(0.125, abs=1e-9)
        assert first["B3"]["Good"] == pytest.approx(0.55, abs=1e-9)
        assert first["B3"]["Poor"] == pytest.approx(0.325, abs=1e-9)

        assert first["B4"]["Excellent"] == pytest.approx(0.3326, abs=0.002)
        assert first["B4"]["Good"] == pytest.approx(0.5866, abs=0.002)
        assert first["B4"]["Poor"] == pytest.approx(0.0808, abs=0.002)

        # B1: the computed Good entry, not the published complement fill 0.5157.
        assert first["B1"]["Excellent"] == pytest.approx(0.1563, abs=0.002)
        assert first["B1"]["Poor"] == pytest.approx(0.328, abs=0.002)
        assert first["B1"]["Good"] == pytest.approx(0.4857, abs=0.002)
        assert first["B1"]["Good"] != pytest.approx(0.5157, abs=0.002)
        assert any(
            w.code == "fuzzy-vector-sum" and "'B1'" in w.message for w in report.warnings
        )


def test_criterion_6_second_level_and_verdict(campus_config):
    with criterion(6, "second-level vector at tolerance and verdict Good"):
        # Published first-level matrix of B1..B4, grades Excellent, Good, Poor,
        # including the complement-filled B1 row.
        published_first = np.array(
            [
                [0.1563, 0.5157, 0.328],
                [0.1723, 0.3384, 0.4893],
                [0.125, 0.55, 0.325],
                [0.3326, 0.5866, 0.0808],
            ]
        )
        weights = np.array([0.348, 0.405, 0.082, 0.166])
        composed = second_level(weights[:, None], published_first[..., None], WEIGHTED_AVERAGE)
        out = FuzzyVector(dict(zip(("Excellent", "Good", "Poor"), composed[:, 0].tolist())))
        assert out["Excellent"] == pytest.approx(0.1896, abs=0.002)
        assert out["Good"] == pytest.approx(0.458, abs=0.002)
        assert out["Good"] == pytest.approx(0.459, abs=0.002)
        assert out["Poor"] == pytest.approx(0.3524, abs=0.002)
        scale = GradeScale(("Excellent", "Good", "Poor"))
        assert verdict(out, scale).grade == "Good"

        # Fully recomputed pipeline (computed B1 row) agrees on the verdict.
        report = run_pipeline(campus_config)
        assert report.verdict.grade == "Good"


def test_criterion_7_delphi_screening():
    with criterion(7, "strict screening keeps 12, overrides complete the 14"):
        stats = [
            IndicatorStats(ind, mean, mean * cv, cv, rate, 10, gcr)
            for ind, mean, cv, rate, gcr in ROUND2_STATS
        ]
        strict = screen(stats, ScreeningCriteria())
        assert _ids(strict.selected) == EXPECTED_STRICT_SELECTION
        assert len(strict.selected) == 12
        assert len(strict.rejected) == 18

        with_overrides = screen(
            stats, ScreeningCriteria(overrides=frozenset(SCREEN_OVERRIDES))
        )
        kept = _ids(with_overrides.selected) | _ids(with_overrides.overridden)
        assert kept == EXPECTED_STRICT_SELECTION | SCREEN_OVERRIDES
        assert len(kept) == 14
        assert _ids(with_overrides.overridden) == SCREEN_OVERRIDES
        # No rejected indicator clears every threshold.
        for decision in with_overrides.rejected:
            assert decision.failed


def test_criterion_8_entropy_property_suite():
    with criterion(8, "entropy weighting properties and hand-computed example"):
        def matrix(columns: dict[str, list[float]]) -> DecisionMatrix:
            inds = tuple(columns)
            n = len(next(iter(columns.values())))
            return DecisionMatrix(
                alternatives=tuple(f"S{i}" for i in range(n)),
                indicators=inds,
                values=tuple(tuple(columns[c][i] for c in inds) for i in range(n)),
            )

        hand = entropy_weights(matrix({"X1": [2, 1, 1], "X2": [1, 1, 1]}))
        assert hand["X1"] == pytest.approx(1.0, abs=1e-9)
        assert hand["X2"] == pytest.approx(0.0, abs=1e-9)

        rng = np.random.RandomState(7)
        for _ in range(25):
            n_rows = rng.randint(3, 7)
            cols = {
                f"X{j}": list(rng.uniform(0.1, 10.0, size=n_rows))
                for j in range(rng.randint(2, 6))
            }
            cols["U"] = [3.7] * n_rows  # uniform column gets zero share
            w = entropy_weights(matrix(cols))
            assert w.total() == pytest.approx(1.0, abs=1e-12)
            assert w["U"] == pytest.approx(0.0, abs=1e-12)
            assert all(w[k] >= 0 for k in w.ids)

            scaled = dict(cols)
            scaled["X0"] = [v * 37.5 for v in scaled["X0"]]
            w_scaled = entropy_weights(matrix(scaled))
            for k in w.ids:
                assert w_scaled[k] == pytest.approx(w[k], abs=1e-9)

            twin = dict(cols)
            twin["T1"] = list(cols["X0"])
            twin["T2"] = list(cols["X0"])
            w_twin = entropy_weights(matrix(twin))
            assert w_twin["T1"] == pytest.approx(w_twin["T2"], abs=1e-12)


def test_criterion_9_ahp_property_suite():
    with criterion(9, "200 random reciprocal matrices and consistent recovery"):
        rng = np.random.RandomState(42)
        scale_values = np.array([1 / k for k in range(9, 1, -1)] + list(range(1, 10)), dtype=float)

        for trial in range(200):
            n = 3 + trial % 5  # orders 3..7
            a = np.ones((n, n))
            for i in range(n):
                for j in range(i + 1, n):
                    v = scale_values[rng.randint(len(scale_values))]
                    a[i, j] = v
                    a[j, i] = 1.0 / v
            m = JudgmentMatrix(
                node="r", labels=tuple(f"n{i}" for i in range(n)),
                entries=tuple(map(tuple, a.tolist())),
            )
            _, report = derive_weights(m)
            assert report.lambda_max >= n - 1e-9

        for trial in range(200):
            n = 3 + trial % 5
            raw = rng.uniform(0.2, 1.0, size=n)
            target = raw / raw.sum()
            labels = tuple(f"n{i}" for i in range(n))
            entries = tuple(
                tuple(float(target[i] / target[j]) for j in range(n)) for i in range(n)
            )
            m = JudgmentMatrix(node="c", labels=labels, entries=entries)
            weights, report = derive_weights(m)
            for i, label in enumerate(labels):
                assert weights[label] == pytest.approx(target[i], abs=1e-6)
            assert report.cr == pytest.approx(0.0, abs=1e-6)


def test_criterion_10_pipeline_determinism(campus_config_dict):
    with criterion(10, "byte-identical reruns and a reproducible ordered sweep"):
        def evaluate_once() -> str:
            cfg = ProjectConfig.from_dict(copy.deepcopy(campus_config_dict))
            return emit_report(run_pipeline(cfg), "json")

        assert evaluate_once() == evaluate_once()

        cfg = ProjectConfig.from_dict(copy.deepcopy(campus_config_dict))
        grid = [round(0.1 * k, 10) for k in range(11)]
        rows_a = sweep_alpha(cfg, grid)
        rows_b = sweep_alpha(cfg, grid)
        alphas = [r.alpha for r in rows_a]
        assert alphas == sorted(alphas) == grid
        assert json.dumps(sweep_to_json_dict(rows_a)) == json.dumps(
            sweep_to_json_dict(rows_b)
        )
