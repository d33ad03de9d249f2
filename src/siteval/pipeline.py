"""Config-driven orchestration of the full evaluation pipeline.

A project config bundles the hierarchy, grade scale, judgment matrices,
membership matrix and the objective-weight source. `run_pipeline` chains the
stages (optional survey screening, eigenvector weighting with consistency
checks, entropy or adopted objective weights, convex fusion, two-level fuzzy
composition, verdict) into a single report; `sweep_alpha` reuses the fixed
stages and re-runs only the alpha-dependent tail. Runs are pure functions of
their inputs, so identical configs produce identical reports.
"""
from __future__ import annotations

import hashlib
import importlib.metadata
import json
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Iterator, Mapping, Sequence

from .ahp import ConsistencyReport, JudgmentMatrix, derive_weights, synthesize_global
from .core import (
    Criterion,
    GradeScale,
    Indicator,
    IndicatorHierarchy,
    MembershipMatrix,
    ValidationError,
    WeightVector,
    validate_hierarchy,
)
from .delphi import (
    IndicatorStats,
    RespondentClass,
    ScreeningCriteria,
    ScreeningResult,
    SurveyRound,
    round_statistics,
    screen,
)
from .entropy import DecisionMatrix, entropy_weights
from .fusion import FusionConfig, fuse
from .fuzzy import OPERATORS, WEIGHTED_AVERAGE, FuzzyVector, Verdict, first_level, second_level, verdict

try:
    TOOL_VERSION = importlib.metadata.version("siteval")
except importlib.metadata.PackageNotFoundError:  # running from a source tree
    TOOL_VERSION = "0.1.0"

SCHEMA_VERSION = 2

POLICY_PAPER = "paper"
POLICY_FUSED_BOTH = "fused-both"
POLICIES = (POLICY_PAPER, POLICY_FUSED_BOTH)

# Membership rows may drift from sum 1 by this much before the run aborts;
# smaller deviations above the flagging tolerance become warnings.
MEMBERSHIP_ERROR_TOL = 0.05
VECTOR_SUM_WARN_TOL = 1e-6

DEFAULT_CLASSES = (
    RespondentClass("expert", 0.8),
    RespondentClass("end_user", 0.2),
)

_CONFIG_KEYS = {
    "goal",
    "grades",
    "criteria",
    "respondent_classes",
    "screening",
    "judgment_matrices",
    "membership",
    "objective_weights",
    "decision_matrix",
    "alpha",
    "operator",
    "weights_policy",
}


@contextmanager
def _stage(name: str) -> Iterator[None]:
    """Prefix validation errors with the pipeline stage that raised them."""
    try:
        yield
    except ValidationError as exc:
        raise ValidationError(f"{name}: {exc}") from exc


@dataclass(frozen=True)
class ReportWarning:
    code: str
    message: str


@dataclass(frozen=True)
class ProjectConfig:
    """Everything one evaluation run needs, parsed and cross-validated."""

    hierarchy: IndicatorHierarchy
    scale: GradeScale
    classes: tuple[RespondentClass, ...]
    screening: ScreeningCriteria
    matrices: Mapping[str, JudgmentMatrix]
    membership: MembershipMatrix
    objective_weights: WeightVector | None
    decision_matrix: DecisionMatrix | None
    alpha: float = 0.5
    operator: str = WEIGHTED_AVERAGE
    weights_policy: str = POLICY_PAPER

    def __post_init__(self) -> None:
        object.__setattr__(self, "classes", tuple(self.classes))
        object.__setattr__(self, "matrices", dict(self.matrices))
        if (self.objective_weights is None) == (self.decision_matrix is None):
            raise ValidationError(
                "config must provide exactly one of objective_weights and decision_matrix"
            )
        if not 0.0 <= self.alpha <= 1.0:
            raise ValidationError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.operator not in OPERATORS:
            raise ValidationError(
                f"unknown operator {self.operator!r}; expected one of {OPERATORS}"
            )
        if self.weights_policy not in POLICIES:
            raise ValidationError(
                f"unknown weights_policy {self.weights_policy!r}; expected one of {POLICIES}"
            )
        self.validate()

    def validate(self) -> None:
        """Cross-check all referenced ids against the hierarchy."""
        violations = validate_hierarchy(self.hierarchy)
        if violations:
            raise ValidationError("invalid hierarchy: " + "; ".join(violations))

        node_ids = ("goal",) + self.hierarchy.criterion_ids()
        missing = [n for n in node_ids if n not in self.matrices]
        if missing:
            raise ValidationError(f"missing judgment matrices for nodes: {missing}")
        extra = sorted(set(self.matrices) - set(node_ids))
        if extra:
            raise ValidationError(f"judgment matrices for unknown nodes: {extra}")

        goal = self.matrices["goal"]
        if tuple(goal.labels) != self.hierarchy.criterion_ids():
            raise ValidationError(
                f"goal matrix labels {list(goal.labels)} do not match criteria "
                f"{list(self.hierarchy.criterion_ids())}"
            )
        for crit in self.hierarchy.criteria:
            m = self.matrices[crit.id]
            if tuple(m.labels) != tuple(crit.children):
                raise ValidationError(
                    f"matrix {crit.id!r} labels {list(m.labels)} do not match "
                    f"indicators {list(crit.children)}"
                )

        indicator_ids = set(self.hierarchy.indicator_ids())
        mem_ids = set(self.membership.indicator_ids)
        if mem_ids != indicator_ids:
            raise ValidationError(
                f"membership rows do not match indicators: {sorted(mem_ids ^ indicator_ids)}"
            )
        if set(self.membership.grades) != set(self.scale.labels):
            raise ValidationError(
                f"membership grades {sorted(self.membership.grades)} do not match "
                f"scale {list(self.scale.labels)}"
            )
        if self.objective_weights is not None:
            if set(self.objective_weights.ids) != indicator_ids:
                raise ValidationError(
                    "objective weights do not match indicators: "
                    f"{sorted(set(self.objective_weights.ids) ^ indicator_ids)}"
                )
        if self.decision_matrix is not None:
            if set(self.decision_matrix.indicators) != indicator_ids:
                raise ValidationError(
                    "decision matrix columns do not match indicators: "
                    f"{sorted(set(self.decision_matrix.indicators) ^ indicator_ids)}"
                )

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ProjectConfig":
        with _stage("config"):
            return cls._parse(data)

    @classmethod
    def _parse(cls, data: Mapping[str, object]) -> "ProjectConfig":
        unknown = sorted(set(data) - _CONFIG_KEYS)
        if unknown:
            raise ValidationError(f"unknown config keys: {unknown}")
        for key in ("goal", "grades", "criteria", "judgment_matrices", "membership"):
            if key not in data:
                raise ValidationError(f"missing config key {key!r}")

        scale = GradeScale(tuple(str(g) for g in data["grades"]))

        criteria: list[Criterion] = []
        indicators: list[Indicator] = []
        for entry in data["criteria"]:
            kids = entry.get("indicators", [])
            child_ids = []
            for ind in kids:
                indicators.append(
                    Indicator(
                        id=str(ind["id"]),
                        name=str(ind.get("name", ind["id"])),
                        kind=str(ind.get("kind", "qualitative")),
                    )
                )
                child_ids.append(str(ind["id"]))
            criteria.append(
                Criterion(
                    id=str(entry["id"]),
                    name=str(entry.get("name", entry["id"])),
                    children=tuple(child_ids),
                )
            )
        hierarchy = IndicatorHierarchy(
            goal_name=str(data["goal"]),
            criteria=tuple(criteria),
            indicators=tuple(indicators),
        )

        classes = tuple(
            RespondentClass(str(c["label"]), float(c["score_weight"]))
            for c in data.get("respondent_classes", [])
        ) or DEFAULT_CLASSES
        labels = [c.label for c in classes]
        if len(set(labels)) != len(labels):
            raise ValidationError(f"duplicate respondent class labels: {sorted(labels)}")

        sc = data.get("screening", {})
        screening = ScreeningCriteria(
            min_mean=float(sc.get("min_mean", 3.5)),
            min_full_mark_rate=float(sc.get("min_full_mark_rate", 0.5)),
            max_cv=float(sc.get("max_cv", 0.25)),
            min_gcr=None if sc.get("min_gcr", 3.0) is None else float(sc.get("min_gcr", 3.0)),
            overrides=frozenset(str(i) for i in sc.get("overrides", [])),
        )

        matrices: dict[str, JudgmentMatrix] = {}
        for node, rows in dict(data["judgment_matrices"]).items():
            node = str(node)
            if node == "goal":
                labels = hierarchy.criterion_ids()
            else:
                match = [c for c in hierarchy.criteria if c.id == node]
                if not match:
                    raise ValidationError(f"judgment matrix for unknown node {node!r}")
                labels = match[0].children
            if len(rows) != len(labels):
                raise ValidationError(
                    f"matrix {node!r}: expected order {len(labels)}, got {len(rows)}"
                )
            matrices[node] = JudgmentMatrix.from_rows(node, labels, rows)

        membership_rows: dict[str, dict[str, float]] = {}
        for ind, row in dict(data["membership"]).items():
            missing_grades = [g for g in scale.labels if g not in row]
            if missing_grades:
                raise ValidationError(
                    f"membership row {ind!r}: missing grades {missing_grades}"
                )
            extra_grades = sorted(set(row) - set(scale.labels))
            if extra_grades:
                raise ValidationError(
                    f"membership row {ind!r}: unknown grades {extra_grades}"
                )
            membership_rows[str(ind)] = {g: float(row[g]) for g in scale.labels}
        membership = MembershipMatrix(membership_rows)

        objective = None
        if "objective_weights" in data:
            objective = WeightVector(
                {str(k): float(v) for k, v in dict(data["objective_weights"]).items()}
            )
        decision = None
        if "decision_matrix" in data:
            dm = data["decision_matrix"]
            decision = DecisionMatrix(
                alternatives=tuple(str(a) for a in dm["alternatives"]),
                indicators=tuple(str(i) for i in dm["indicators"]),
                values=dm["values"],
            )

        return cls(
            hierarchy=hierarchy,
            scale=scale,
            classes=classes,
            screening=screening,
            matrices=matrices,
            membership=membership,
            objective_weights=objective,
            decision_matrix=decision,
            alpha=float(data.get("alpha", 0.5)),
            operator=str(data.get("operator", WEIGHTED_AVERAGE)),
            weights_policy=str(data.get("weights_policy", POLICY_PAPER)),
        )

    def to_dict(self) -> dict[str, object]:
        """JSON-ready dict that parses back to an equivalent config.

        Judgment-matrix entries are emitted from their raw tokens, so
        fractional inputs like "1/3" round-trip exactly.
        """
        out = self._dict_without_values()
        if self.decision_matrix is not None:
            out["decision_matrix"]["values"] = self.decision_matrix.values.tolist()
        return out

    def config_hash(self) -> str:
        """SHA-256 of the config in a canonical encoding.

        The digest covers the canonical JSON of `to_dict()`, with the decision
        matrix's values replaced by their shape and dtype, followed by the
        matrix's C-order little-endian float64 bytes.
        """
        out = self._dict_without_values()
        matrix = None
        if self.decision_matrix is not None:
            matrix = self.decision_matrix.values
            out["decision_matrix"]["values"] = {"shape": list(matrix.shape), "dtype": "<f8"}
        canonical = json.dumps(out, sort_keys=True, separators=(",", ":"))
        digest = hashlib.sha256(canonical.encode("utf-8"))
        if matrix is not None:
            digest.update(matrix.astype("<f8", copy=False).tobytes(order="C"))
        return digest.hexdigest()

    def _dict_without_values(self) -> dict[str, Any]:
        """`to_dict()` minus the decision matrix's values, which its callers encode."""
        out: dict[str, Any] = {
            "goal": self.hierarchy.goal_name,
            "grades": list(self.scale.labels),
            "criteria": [
                {
                    "id": c.id,
                    "name": c.name,
                    "indicators": [
                        {"id": i.id, "name": i.name, "kind": i.kind}
                        for i in self.hierarchy.indicators
                        if i.id in c.children
                    ],
                }
                for c in self.hierarchy.criteria
            ],
            "respondent_classes": [
                {"label": c.label, "score_weight": c.score_weight} for c in self.classes
            ],
            "screening": {
                "min_mean": self.screening.min_mean,
                "min_full_mark_rate": self.screening.min_full_mark_rate,
                "max_cv": self.screening.max_cv,
                "min_gcr": self.screening.min_gcr,
                "overrides": sorted(self.screening.overrides),
            },
            "judgment_matrices": {
                node: [list(row) for row in m.raw] for node, m in self.matrices.items()
            },
            "membership": {
                ind: dict(self.membership.row(ind))
                for ind in self.membership.indicator_ids
            },
            "alpha": self.alpha,
            "operator": self.operator,
            "weights_policy": self.weights_policy,
        }
        if self.objective_weights is not None:
            out["objective_weights"] = self.objective_weights.as_dict()
        if self.decision_matrix is not None:
            out["decision_matrix"] = {
                "alternatives": list(self.decision_matrix.alternatives),
                "indicators": list(self.decision_matrix.indicators),
            }
        return out

    def with_overrides(
        self,
        alpha: float | None = None,
        operator: str | None = None,
        weights_policy: str | None = None,
    ) -> "ProjectConfig":
        changes = {"alpha": alpha, "operator": operator, "weights_policy": weights_policy}
        return replace(self, **{k: v for k, v in changes.items() if v is not None})


def load_config(path: str | Path) -> ProjectConfig:
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"config file not found: {p}")
    try:
        data = json.loads(p.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationError(f"config {p}: invalid JSON: {exc}") from exc
    return ProjectConfig.from_dict(data)


@dataclass(frozen=True)
class ScreeningSection:
    stats: tuple[IndicatorStats, ...]
    result: ScreeningResult


@dataclass(frozen=True)
class EvaluationReport:
    """Structured output of one pipeline run."""

    goal: str
    grades: tuple[str, ...]
    screening: ScreeningSection | None
    consistency: Mapping[str, ConsistencyReport]
    relative_weights: Mapping[str, WeightVector]
    criterion_subjective: WeightVector
    criterion_objective: WeightVector
    criterion_comprehensive: WeightVector
    indicator_subjective: WeightVector
    indicator_objective: WeightVector
    indicator_comprehensive: WeightVector
    first_level: Mapping[str, FuzzyVector]
    second_level: FuzzyVector
    verdict: Verdict
    warnings: tuple[ReportWarning, ...]
    alpha: float
    operator: str
    weights_policy: str
    config_sha256: str

    def to_json_dict(self) -> dict[str, object]:
        screening = None
        if self.screening is not None:
            screening = {
                "stats": [
                    {
                        "indicator": s.indicator,
                        "mean": s.mean,
                        "std_dev": s.std_dev,
                        "cv": s.cv,
                        "full_mark_rate": s.full_mark_rate,
                        "gcr": s.gcr,
                        "respondent_count": s.respondent_count,
                    }
                    for s in self.screening.stats
                ],
                "selected": [
                    {"indicator": d.indicator, "failed": list(d.failed)}
                    for d in self.screening.result.selected
                ],
                "rejected": [
                    {"indicator": d.indicator, "failed": list(d.failed)}
                    for d in self.screening.result.rejected
                ],
                "overridden": [
                    {"indicator": d.indicator, "failed": list(d.failed)}
                    for d in self.screening.result.overridden
                ],
            }
        return {
            "schema_version": SCHEMA_VERSION,
            "goal": self.goal,
            "grades": list(self.grades),
            "screening": screening,
            "consistency": {
                node: {
                    "lambda_max": rep.lambda_max,
                    "ci": rep.ci,
                    "ri": rep.ri,
                    "cr": rep.cr,
                    "consistent": rep.consistent,
                }
                for node, rep in self.consistency.items()
            },
            "weights": {
                "criterion": {
                    "subjective": self.criterion_subjective.as_dict(),
                    "objective": self.criterion_objective.as_dict(),
                    "comprehensive": self.criterion_comprehensive.as_dict(),
                },
                "indicator": {
                    "relative": {
                        crit: wv.as_dict() for crit, wv in self.relative_weights.items()
                    },
                    "subjective": self.indicator_subjective.as_dict(),
                    "objective": self.indicator_objective.as_dict(),
                    "comprehensive": self.indicator_comprehensive.as_dict(),
                },
            },
            "first_level": {crit: fv.as_dict() for crit, fv in self.first_level.items()},
            "second_level": self.second_level.as_dict(),
            "verdict": {
                "grade": self.verdict.grade,
                "membership": self.verdict.membership,
                "tied": self.verdict.tied,
            },
            "warnings": [{"code": w.code, "message": w.message} for w in self.warnings],
            "provenance": {
                "tool_version": TOOL_VERSION,
                "config_sha256": self.config_sha256,
                "alpha": self.alpha,
                "operator": self.operator,
                "weights_policy": self.weights_policy,
            },
        }


@dataclass(frozen=True)
class SweepRow:
    alpha: float
    second_level: FuzzyVector
    verdict: Verdict


@dataclass(frozen=True)
class _Prepared:
    """Alpha-independent stage outputs, computed once per config."""

    warnings: tuple[ReportWarning, ...]
    screening: ScreeningSection | None
    consistency: dict[str, ConsistencyReport]
    relative: dict[str, WeightVector]
    criterion_subjective: WeightVector
    indicator_subjective: WeightVector
    criterion_objective: WeightVector
    indicator_objective: WeightVector


def _prepare(
    cfg: ProjectConfig,
    survey: SurveyRound | None,
    allow_inconsistent: bool,
) -> _Prepared:
    warnings: list[ReportWarning] = []

    with _stage("config"):
        for ind, dev in cfg.membership.row_sum_deviations().items():
            total = 1.0 + dev
            if abs(dev) > MEMBERSHIP_ERROR_TOL:
                raise ValidationError(
                    f"membership row {ind!r} sums to {total:.4f}; "
                    f"deviation exceeds {MEMBERSHIP_ERROR_TOL}"
                )
            warnings.append(
                ReportWarning(
                    "membership-row-sum",
                    f"membership row {ind!r} sums to {total:.4f}, expected 1",
                )
            )

    screening_section = None
    if survey is not None:
        with _stage("screen"):
            stats = round_statistics(survey, cfg.classes)
            result = screen(stats, cfg.screening)
            screening_section = ScreeningSection(tuple(stats), result)

    consistency: dict[str, ConsistencyReport] = {}
    relative: dict[str, WeightVector] = {}
    with _stage("ahp"):
        node_order = ["goal"] + list(cfg.hierarchy.criterion_ids())
        derived: dict[str, WeightVector] = {}
        for node in node_order:
            w, rep = derive_weights(cfg.matrices[node])
            consistency[node] = rep
            derived[node] = w
            if not rep.consistent:
                msg = (
                    f"judgment matrix {node!r} failed the consistency check "
                    f"(CR = {rep.cr:.4f} >= 0.1); revise the comparisons"
                )
                if not allow_inconsistent:
                    raise ValidationError(msg)
                warnings.append(ReportWarning("inconsistent-judgment-matrix", msg))
        criterion_subjective = derived["goal"]
        relative = {c.id: derived[c.id] for c in cfg.hierarchy.criteria}
        indicator_subjective = synthesize_global(
            cfg.hierarchy, criterion_subjective, relative
        )

    with _stage("entropy"):
        if cfg.decision_matrix is not None:
            indicator_objective = entropy_weights(cfg.decision_matrix)
            # Reorder to hierarchy order for stable reporting.
            indicator_objective = WeightVector(
                {i: indicator_objective[i] for i in cfg.hierarchy.indicator_ids()}
            )
        else:
            assert cfg.objective_weights is not None
            indicator_objective = WeightVector(
                {i: cfg.objective_weights[i] for i in cfg.hierarchy.indicator_ids()}
            )
        criterion_objective = WeightVector(
            {
                c.id: sum(indicator_objective[i] for i in c.children)
                for c in cfg.hierarchy.criteria
            }
        )

    return _Prepared(
        warnings=tuple(warnings),
        screening=screening_section,
        consistency=consistency,
        relative=relative,
        criterion_subjective=criterion_subjective,
        indicator_subjective=indicator_subjective,
        criterion_objective=criterion_objective,
        indicator_objective=indicator_objective,
    )


def _evaluate_tail(
    cfg: ProjectConfig, prep: _Prepared, alpha: float
) -> tuple[WeightVector, WeightVector, dict[str, FuzzyVector], FuzzyVector, Verdict, list[ReportWarning]]:
    warnings: list[ReportWarning] = []

    with _stage("fuse"):
        fusion = FusionConfig(alpha)
        criterion_comprehensive = fuse(
            prep.criterion_subjective, prep.criterion_objective, fusion
        )
        indicator_comprehensive = fuse(
            prep.indicator_subjective, prep.indicator_objective, fusion
        )

    with _stage("fuzzy"):
        if cfg.weights_policy == POLICY_FUSED_BOTH:
            level_one_weights = {
                c.id: WeightVector(
                    {i: indicator_comprehensive[i] for i in c.children}
                ).normalize()
                for c in cfg.hierarchy.criteria
            }
        else:
            level_one_weights = prep.relative
        first = first_level(
            cfg.hierarchy, level_one_weights, cfg.membership, operator=cfg.operator
        )
        if cfg.operator == WEIGHTED_AVERAGE:
            for crit_id, vec in first.items():
                dev = vec.total() - 1.0
                if abs(dev) > VECTOR_SUM_WARN_TOL:
                    warnings.append(
                        ReportWarning(
                            "fuzzy-vector-sum",
                            f"first-level vector for {crit_id!r} sums to "
                            f"{vec.total():.4f}, expected 1",
                        )
                    )
        second = second_level(criterion_comprehensive, first, operator=cfg.operator)
        if cfg.operator == WEIGHTED_AVERAGE:
            dev = second.total() - 1.0
            if abs(dev) > VECTOR_SUM_WARN_TOL:
                warnings.append(
                    ReportWarning(
                        "fuzzy-vector-sum",
                        f"second-level vector sums to {second.total():.4f}, expected 1",
                    )
                )
        final = verdict(second, cfg.scale)

    return (
        criterion_comprehensive,
        indicator_comprehensive,
        first,
        second,
        final,
        warnings,
    )


def run_pipeline(
    cfg: ProjectConfig,
    survey: SurveyRound | None = None,
    allow_inconsistent: bool = False,
) -> EvaluationReport:
    """Run every stage on one config and collect the full report."""
    prep = _prepare(cfg, survey, allow_inconsistent)
    (
        criterion_comprehensive,
        indicator_comprehensive,
        first,
        second,
        final,
        tail_warnings,
    ) = _evaluate_tail(cfg, prep, cfg.alpha)
    return EvaluationReport(
        goal=cfg.hierarchy.goal_name,
        grades=cfg.scale.labels,
        screening=prep.screening,
        consistency=prep.consistency,
        relative_weights=prep.relative,
        criterion_subjective=prep.criterion_subjective,
        criterion_objective=prep.criterion_objective,
        criterion_comprehensive=criterion_comprehensive,
        indicator_subjective=prep.indicator_subjective,
        indicator_objective=prep.indicator_objective,
        indicator_comprehensive=indicator_comprehensive,
        first_level=first,
        second_level=second,
        verdict=final,
        warnings=prep.warnings + tuple(tail_warnings),
        alpha=cfg.alpha,
        operator=cfg.operator,
        weights_policy=cfg.weights_policy,
        config_sha256=cfg.config_hash(),
    )


def sweep_alpha(
    cfg: ProjectConfig,
    grid: Sequence[float],
    survey: SurveyRound | None = None,
    allow_inconsistent: bool = False,
) -> list[SweepRow]:
    """Evaluate the alpha-dependent tail at every grid value, sorted by alpha.

    Screening, the eigenvector weights and the objective weights are computed
    once and shared across the sweep.
    """
    if not grid:
        raise ValidationError("sweep grid is empty")
    for a in grid:
        if not 0.0 <= a <= 1.0:
            raise ValidationError(f"sweep grid value out of [0, 1]: {a}")
    prep = _prepare(cfg, survey, allow_inconsistent)
    rows: list[SweepRow] = []
    for a in sorted(grid):
        _, _, _, second, final, _ = _evaluate_tail(cfg, prep, a)
        rows.append(SweepRow(alpha=float(a), second_level=second, verdict=final))
    return rows


def sweep_to_json_dict(rows: Sequence[SweepRow]) -> dict[str, object]:
    return {
        "schema_version": SCHEMA_VERSION,
        "rows": [
            {
                "alpha": r.alpha,
                "second_level": r.second_level.as_dict(),
                "verdict": {
                    "grade": r.verdict.grade,
                    "membership": r.verdict.membership,
                    "tied": r.verdict.tied,
                },
            }
            for r in rows
        ],
    }


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (int, float)):
        return f"{value:.4f}" if isinstance(value, float) else str(value)
    if value is None:
        return "-"
    return str(value)


def _md_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> list[str]:
    lines = ["| " + " | ".join(headers) + " |"]
    lines.append("|" + "|".join("---" for _ in headers) + "|")
    for row in rows:
        lines.append("| " + " | ".join(_fmt(v) for v in row) + " |")
    return lines


def render_markdown(report: EvaluationReport) -> str:
    """Markdown projection of the report: every figure also exists in the JSON."""
    grades = list(report.grades)
    lines: list[str] = [f"# Evaluation report: {report.goal}", ""]

    lines.append("## Verdict")
    lines += _md_table(
        ["Grade", "Membership", "Tied"],
        [[report.verdict.grade, report.verdict.membership, report.verdict.tied]],
    )
    lines.append("")

    lines.append("## Run parameters")
    lines += _md_table(
        ["Alpha", "Operator", "Weights policy"],
        [[report.alpha, report.operator, report.weights_policy]],
    )
    lines.append("")

    lines.append("## Consistency")
    lines += _md_table(
        ["Node", "lambda_max", "CI", "RI", "CR", "CR < 0.1"],
        [
            [node, rep.lambda_max, rep.ci, rep.ri, rep.cr, rep.consistent]
            for node, rep in report.consistency.items()
        ],
    )
    lines.append("")

    lines.append("## Criterion weights")
    lines += _md_table(
        ["Criterion", "Subjective", "Objective", "Comprehensive"],
        [
            [
                cid,
                report.criterion_subjective[cid],
                report.criterion_objective[cid],
                report.criterion_comprehensive[cid],
            ]
            for cid in report.criterion_subjective.ids
        ],
    )
    lines.append("")

    lines.append("## Indicator weights")
    rows = []
    for crit_id, rel in report.relative_weights.items():
        for ind in rel.ids:
            rows.append(
                [
                    ind,
                    crit_id,
                    rel[ind],
                    report.indicator_subjective[ind],
                    report.indicator_objective[ind],
                    report.indicator_comprehensive[ind],
                ]
            )
    lines += _md_table(
        ["Indicator", "Criterion", "Relative", "Subjective", "Objective", "Comprehensive"],
        rows,
    )
    lines.append("")

    lines.append("## First-level evaluation")
    lines += _md_table(
        ["Criterion"] + grades,
        [[cid] + [vec[g] for g in grades] for cid, vec in report.first_level.items()],
    )
    lines.append("")

    lines.append("## Second-level evaluation")
    lines += _md_table(grades, [[report.second_level[g] for g in grades]])
    lines.append("")

    if report.screening is not None:
        lines.append("## Screening")
        status_of: dict[str, tuple[str, tuple[str, ...]]] = {}
        for d in (
            report.screening.result.selected
            + report.screening.result.rejected
            + report.screening.result.overridden
        ):
            status_of[d.indicator] = (d.status, d.failed)
        lines += _md_table(
            ["Indicator", "Mean", "Std dev", "CV", "Full-mark rate", "GCR", "Count", "Status", "Failed"],
            [
                [
                    s.indicator,
                    s.mean,
                    s.std_dev,
                    s.cv,
                    s.full_mark_rate,
                    s.gcr,
                    s.respondent_count,
                    status_of[s.indicator][0],
                    ", ".join(status_of[s.indicator][1]) or "-",
                ]
                for s in report.screening.stats
            ],
        )
        lines.append("")

    lines.append("## Warnings")
    if report.warnings:
        for w in report.warnings:
            lines.append(f"- {w.code}: {w.message}")
    else:
        lines.append("None.")
    lines.append("")
    return "\n".join(lines)


def render_sweep_markdown(rows: Sequence[SweepRow]) -> str:
    grades = list(rows[0].second_level.grades)
    lines = ["# Alpha sweep", ""]
    lines += _md_table(
        ["Alpha"] + grades + ["Verdict", "Membership"],
        [
            [r.alpha] + [r.second_level[g] for g in grades] + [r.verdict.grade, r.verdict.membership]
            for r in rows
        ],
    )
    lines.append("")
    return "\n".join(lines)


def emit_report(report: EvaluationReport, format: str) -> str:
    """Render a report as 'json' (full precision) or 'markdown' (4 decimals)."""
    if format == "json":
        return json.dumps(report.to_json_dict(), indent=2)
    if format in ("markdown", "md"):
        return render_markdown(report)
    raise ValidationError(f"unknown report format {format!r}; expected json or markdown")
