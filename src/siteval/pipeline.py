"""Config-driven orchestration of the full evaluation pipeline.

A project config bundles the hierarchy, grade scale, judgment matrices,
membership matrix and the objective-weight source. `run_pipeline` chains the
stages (optional survey screening, eigenvector weighting with consistency
checks, entropy or adopted objective weights, convex fusion, two-level fuzzy
composition, verdict) into a single report; `sweep_alpha` reuses the fixed
stages, evaluates the alpha-dependent tail and the verdict once over its whole
grid, and keeps the result columnar (`AlphaSweep`) until it is serialised. The
screening and AHP stages (`screen_stage`, `ahp_stage`) and the serialisers of
their results are shared with the CLI's single-stage commands. Runs are pure
functions of their inputs, so identical configs produce identical reports, and
a sweep row equals the report at the same alpha bit for bit.
"""
from __future__ import annotations

import hashlib
import importlib.metadata
import json
from contextlib import contextmanager
from dataclasses import InitVar, asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Iterator, Mapping, NamedTuple, Sequence

import numpy as np

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
from .fusion import fuse
from .fuzzy import (
    OPERATORS,
    WEIGHTED_AVERAGE,
    FuzzyVector,
    Verdict,
    check_vectors,
    compose,
    verdicts,
)

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


def _path(parts: tuple[object, ...]) -> str:
    """Key path for an error message: ("criteria", 0, "id") -> "criteria[0].id"."""
    out = ""
    for part in parts:
        out += f"[{part}]" if isinstance(part, int) else f".{part}" if out else str(part)
    return out


def _list(value: object, *path: object) -> Sequence[Any]:
    if not isinstance(value, (list, tuple)):
        raise ValidationError(f"{_path(path)}: expected a list, got {type(value).__name__}")
    return value


def _object(value: object, *path: object) -> Mapping[str, Any]:
    if not isinstance(value, (dict, Mapping)):  # dict first: the Mapping check is slow
        raise ValidationError(f"{_path(path)}: expected an object, got {type(value).__name__}")
    return value


def _field(entry: object, key: str, *path: object) -> Any:
    entry = _object(entry, *path)
    if key not in entry:
        raise ValidationError(f"{_path(path)}: missing key {key!r}")
    return entry[key]


def _number(value: object, *path: object) -> float:
    try:
        return float(value)  # type: ignore[arg-type]
    except (TypeError, ValueError):
        raise ValidationError(f"{_path(path)}: not a number: {value!r}") from None
    except OverflowError:
        raise ValidationError(f"{_path(path)}: number too large for a float") from None


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
        if not isinstance(data, (dict, Mapping)):
            raise ValidationError(f"expected an object, got {type(data).__name__}")
        unknown = sorted(set(data) - _CONFIG_KEYS)
        if unknown:
            raise ValidationError(f"unknown config keys: {unknown}")
        for key in ("goal", "grades", "criteria", "judgment_matrices", "membership"):
            if key not in data:
                raise ValidationError(f"missing config key {key!r}")

        scale = GradeScale(tuple(str(g) for g in _list(data["grades"], "grades")))

        criteria: list[Criterion] = []
        indicators: list[Indicator] = []
        for k, entry in enumerate(_list(data["criteria"], "criteria")):
            crit_id = _field(entry, "id", "criteria", k)
            child_ids = []
            kids = _list(entry.get("indicators", []), "criteria", k, "indicators")
            for m, ind in enumerate(kids):
                ind_id = _field(ind, "id", "criteria", k, "indicators", m)
                indicators.append(
                    Indicator(
                        id=str(ind_id),
                        name=str(ind.get("name", ind_id)),
                        kind=str(ind.get("kind", "qualitative")),
                    )
                )
                child_ids.append(str(ind_id))
            criteria.append(
                Criterion(
                    id=str(crit_id),
                    name=str(entry.get("name", crit_id)),
                    children=tuple(child_ids),
                )
            )
        hierarchy = IndicatorHierarchy(
            goal_name=str(data["goal"]),
            criteria=tuple(criteria),
            indicators=tuple(indicators),
        )

        classes = tuple(
            RespondentClass(
                str(_field(c, "label", "respondent_classes", k)),
                _number(
                    _field(c, "score_weight", "respondent_classes", k),
                    "respondent_classes", k, "score_weight",
                ),
            )
            for k, c in enumerate(_list(data.get("respondent_classes", []), "respondent_classes"))
        ) or DEFAULT_CLASSES
        labels = [c.label for c in classes]
        if len(set(labels)) != len(labels):
            raise ValidationError(f"duplicate respondent class labels: {sorted(labels)}")

        sc = _object(data.get("screening", {}), "screening")
        min_gcr = sc.get("min_gcr", 3.0)
        screening = ScreeningCriteria(
            min_mean=_number(sc.get("min_mean", 3.5), "screening", "min_mean"),
            min_full_mark_rate=_number(
                sc.get("min_full_mark_rate", 0.5), "screening", "min_full_mark_rate"
            ),
            max_cv=_number(sc.get("max_cv", 0.25), "screening", "max_cv"),
            min_gcr=None if min_gcr is None else _number(min_gcr, "screening", "min_gcr"),
            overrides=frozenset(
                str(i) for i in _list(sc.get("overrides", []), "screening", "overrides")
            ),
        )

        matrices: dict[str, JudgmentMatrix] = {}
        for node, rows in _object(data["judgment_matrices"], "judgment_matrices").items():
            node = str(node)
            if node == "goal":
                labels = hierarchy.criterion_ids()
            else:
                match = [c for c in hierarchy.criteria if c.id == node]
                if not match:
                    raise ValidationError(f"judgment matrix for unknown node {node!r}")
                labels = match[0].children
            rows = [
                _list(row, "judgment_matrices", node, k)
                for k, row in enumerate(_list(rows, "judgment_matrices", node))
            ]
            if len(rows) != len(labels):
                raise ValidationError(
                    f"matrix {node!r}: expected order {len(labels)}, got {len(rows)}"
                )
            matrices[node] = JudgmentMatrix.from_rows(node, labels, rows)

        membership_rows: dict[str, dict[str, float]] = {}
        for ind, row in _object(data["membership"], "membership").items():
            row = _object(row, "membership", ind)
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
            membership_rows[str(ind)] = {
                g: _number(row[g], "membership", ind, g) for g in scale.labels
            }
        membership = MembershipMatrix(membership_rows)

        objective = None
        if "objective_weights" in data:
            ow = _object(data["objective_weights"], "objective_weights")
            objective = WeightVector(
                {str(k): _number(v, "objective_weights", k) for k, v in ow.items()}
            )
        decision = None
        if "decision_matrix" in data:
            dm = data["decision_matrix"]
            ids = {
                key: tuple(
                    str(x)
                    for x in _list(_field(dm, key, "decision_matrix"), "decision_matrix", key)
                )
                for key in ("alternatives", "indicators")
            }
            decision = DecisionMatrix(**ids, values=_field(dm, "values", "decision_matrix"))

        return cls(
            hierarchy=hierarchy,
            scale=scale,
            classes=classes,
            screening=screening,
            matrices=matrices,
            membership=membership,
            objective_weights=objective,
            decision_matrix=decision,
            alpha=_number(data.get("alpha", 0.5), "alpha"),
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


def _read_json(path: str | Path, what: str) -> Any:
    """Parsed JSON of a file; a missing file or invalid JSON raises a ValidationError."""
    p = Path(path)
    if not p.exists():
        raise ValidationError(f"{what} not found: {p}")
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except ValueError as exc:  # also the int-digit limit, which JSONDecodeError misses
        raise ValidationError(f"{what} {p}: invalid JSON: {exc}") from exc


def load_config(path: str | Path) -> ProjectConfig:
    return ProjectConfig.from_dict(_read_json(path, "config file"))


@dataclass(frozen=True)
class ScreeningSection:
    stats: tuple[IndicatorStats, ...]
    result: ScreeningResult


@dataclass(frozen=True)
class AhpSection:
    """Eigenvector weights of every judgment matrix, goal first, and their synthesis."""

    criterion: WeightVector  # the goal matrix's weights over the criteria
    relative: Mapping[str, WeightVector]  # each criterion's weights over its indicators
    indicator: WeightVector  # global subjective indicator weights
    consistency: Mapping[str, ConsistencyReport]
    warnings: tuple[ReportWarning, ...]


def screen_stage(cfg: ProjectConfig, survey: SurveyRound) -> ScreeningSection:
    """Round statistics of a survey and their screening under the config's criteria.

    An override id that is neither a hierarchy indicator nor a surveyed one raises.
    """
    with _stage("screen"):
        stats = round_statistics(survey, cfg.classes)
        known = set(cfg.hierarchy.indicator_ids()).union(s.indicator for s in stats)
        unknown = sorted(cfg.screening.overrides - known)
        if unknown:
            raise ValidationError(f"unknown override ids: {unknown}")
        return ScreeningSection(tuple(stats), screen(stats, cfg.screening))


def ahp_stage(cfg: ProjectConfig, allow_inconsistent: bool) -> AhpSection:
    """Weights and consistency reports of the goal and criterion matrices.

    A matrix with CR >= 0.1 raises, or with `allow_inconsistent` adds a warning.
    """
    weights: dict[str, WeightVector] = {}
    consistency: dict[str, ConsistencyReport] = {}
    warnings: list[ReportWarning] = []
    with _stage("ahp"):
        for node in ("goal",) + cfg.hierarchy.criterion_ids():
            weights[node], rep = derive_weights(cfg.matrices[node])
            consistency[node] = rep
            if not rep.consistent:
                msg = (
                    f"judgment matrix {node!r} failed the consistency check "
                    f"(CR = {rep.cr:.4f} >= 0.1); revise the comparisons"
                )
                if not allow_inconsistent:
                    raise ValidationError(msg)
                warnings.append(ReportWarning("inconsistent-judgment-matrix", msg))
        relative = {c.id: weights[c.id] for c in cfg.hierarchy.criteria}
        indicator = synthesize_global(cfg.hierarchy, weights["goal"], relative)
    return AhpSection(weights["goal"], relative, indicator, consistency, tuple(warnings))


def screening_to_json_dict(section: ScreeningSection) -> dict[str, object]:
    out: dict[str, object] = {
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
            for s in section.stats
        ]
    }
    for key in ("selected", "rejected", "overridden"):
        out[key] = [
            {"indicator": d.indicator, "failed": list(d.failed)}
            for d in getattr(section.result, key)
        ]
    return out


def verdict_to_json_dict(grade: str, membership: float, tied: bool) -> dict[str, object]:
    return {"grade": grade, "membership": membership, "tied": tied}


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
        return {
            "schema_version": SCHEMA_VERSION,
            "goal": self.goal,
            "grades": list(self.grades),
            "screening": (
                None if self.screening is None else screening_to_json_dict(self.screening)
            ),
            "consistency": {node: asdict(rep) for node, rep in self.consistency.items()},
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
            "verdict": verdict_to_json_dict(
                self.verdict.grade, self.verdict.membership, self.verdict.tied
            ),
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


@dataclass(frozen=True, eq=False)
class AlphaSweep:
    """Second-level vectors and verdicts over an alpha grid, one read-only column each.

    Built from the grades, the alphas (A,) and the second-level vectors (A, G)
    in grade order; the constructor copies both arrays, applies FuzzyVector's
    range check to every vector (a failure raises a `fuzzy:` error naming the
    first offending row) and derives the verdict columns with `verdicts`.
    `len`, indexing and iteration give `SweepRow`s, each built on access.
    """

    grades: tuple[str, ...]
    alphas: np.ndarray  # (A,) float64
    second_level: np.ndarray  # (A, G) float64, grades in `grades` order
    scale: InitVar[GradeScale]
    verdict_grade: np.ndarray = field(init=False)  # (A,) str objects
    verdict_membership: np.ndarray = field(init=False)  # (A,) float64
    verdict_tied: np.ndarray = field(init=False)  # (A,) bool

    def __post_init__(self, scale: GradeScale) -> None:
        grades = tuple(self.grades)
        alphas = np.array(self.alphas, dtype=np.float64)
        second = np.array(self.second_level, dtype=np.float64)
        if alphas.ndim != 1 or second.shape != (len(alphas), len(grades)):
            raise ValidationError(
                f"sweep shape mismatch: alphas {alphas.shape}, second level "
                f"{second.shape}, {len(grades)} grades"
            )
        with _stage("fuzzy"):
            check_vectors(second, grades)
            winner, membership, tied = verdicts(second, grades, scale)
        object.__setattr__(self, "grades", grades)
        for name, column in (
            ("alphas", alphas),
            ("second_level", second),
            ("verdict_grade", np.array(scale.labels, dtype=object)[winner]),
            ("verdict_membership", membership),
            ("verdict_tied", tied),
        ):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.alphas)

    def __getitem__(self, k: int) -> SweepRow:
        # `item` takes integer k only, counts negative k from the end and raises
        # IndexError past either end, as a list does.
        return self._row(
            self.alphas.item(k),
            self.second_level[k].tolist(),
            self.verdict_grade.item(k),
            self.verdict_membership.item(k),
            self.verdict_tied.item(k),
        )

    def __iter__(self) -> Iterator[SweepRow]:
        for row in zip(*self._columns()):
            yield self._row(*row)

    def _columns(self) -> tuple[list[Any], ...]:
        """(alpha, second-level values, grade, membership, tied) as Python lists."""
        return (
            self.alphas.tolist(),
            self.second_level.tolist(),
            self.verdict_grade.tolist(),
            self.verdict_membership.tolist(),
            self.verdict_tied.tolist(),
        )

    def _row(
        self, alpha: float, values: list[float], grade: str, membership: float, tied: bool
    ) -> SweepRow:
        return SweepRow(
            alpha=alpha,
            second_level=FuzzyVector(dict(zip(self.grades, values))),
            verdict=Verdict(grade=grade, membership=membership, tied=tied),
        )


@dataclass(frozen=True)
class _Prepared:
    """Alpha-independent stage outputs, computed once per config."""

    warnings: tuple[ReportWarning, ...]
    screening: ScreeningSection | None
    ahp: AhpSection
    criterion_objective: WeightVector
    indicator_objective: WeightVector
    # Criterion c's j-th indicator sits in slot (c, j); slots past a criterion's
    # last indicator are unused and hold zero weight and zero membership.
    slots: np.ndarray  # (C, n) bool: slot holds an indicator
    relative_slots: np.ndarray  # (C, n) within-criterion subjective weights
    membership: np.ndarray  # (C, n, G) membership rows, grades in membership order


class _Tail(NamedTuple):
    """Alpha-dependent stage outputs over a grid of A alphas, in hierarchy order."""

    criterion: np.ndarray  # (A, C) comprehensive criterion weights
    indicator: np.ndarray  # (A, I) comprehensive indicator weights
    first: np.ndarray  # (A, C, G) first-level vectors; (1, C, G) if they ignore alpha
    second: np.ndarray  # (A, G) second-level vectors


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
        sizes = [len(c.children) for c in cfg.hierarchy.criteria]
        slots = np.arange(max(sizes)) < np.array(sizes)[:, None]
        membership = np.zeros(slots.shape + (len(cfg.membership.grades),))
        membership[slots] = cfg.membership.to_array(cfg.hierarchy.indicator_ids())

    screening = None
    if survey is not None:
        screening = screen_stage(cfg, survey)
        in_hierarchy = set(cfg.hierarchy.indicator_ids())
        for d in screening.result.rejected:
            if d.indicator in in_hierarchy:
                warnings.append(
                    ReportWarning(
                        "screening-rejected-in-hierarchy",
                        f"indicator {d.indicator!r} was rejected by screening "
                        f"but is still in the hierarchy and keeps its weight",
                    )
                )

    ahp = ahp_stage(cfg, allow_inconsistent)
    warnings += ahp.warnings
    relative_slots = np.zeros(slots.shape)
    relative_slots[slots] = [
        w for c in cfg.hierarchy.criteria for w in ahp.relative[c.id].values(c.children)
    ]

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
        screening=screening,
        ahp=ahp,
        criterion_objective=criterion_objective,
        indicator_objective=indicator_objective,
        slots=slots,
        relative_slots=relative_slots,
        membership=membership,
    )


def _evaluate_tail(cfg: ProjectConfig, prep: _Prepared, alphas: np.ndarray) -> _Tail:
    """Fusion and both fuzzy levels at every alpha of a 1-D array, in one pass."""
    with _stage("fuse"):
        criterion = fuse(prep.ahp.criterion, prep.criterion_objective, alphas)
        indicator = fuse(prep.ahp.indicator, prep.indicator_objective, alphas)

    with _stage("fuzzy"):
        if cfg.weights_policy == POLICY_FUSED_BOTH:
            w = np.zeros((len(alphas),) + prep.slots.shape)
            w[:, prep.slots] = indicator
            total = 0.0
            for j in range(w.shape[-1]):
                total = total + w[..., j]
            if np.any(total <= 0):
                raise ValidationError("degenerate weight vector: all entries zero")
            w /= total[..., None]
        else:
            w = prep.relative_slots[None]  # the paper policy's level-one weights ignore alpha
        # Unused slots add 0.0 to a sum that is never -0.0, and offer 0.0 to a
        # max over non-negative values, so every composed value stays bit-exact.
        first = compose(w, prep.membership, cfg.operator)
        second = compose(criterion, first, cfg.operator)

    return _Tail(criterion=criterion, indicator=indicator, first=first, second=second)


def run_pipeline(
    cfg: ProjectConfig,
    survey: SurveyRound | None = None,
    allow_inconsistent: bool = False,
) -> EvaluationReport:
    """Run every stage on one config and collect the full report."""
    prep = _prepare(cfg, survey, allow_inconsistent)
    tail = _evaluate_tail(cfg, prep, np.array([cfg.alpha], dtype=np.float64))
    grades = cfg.membership.grades
    warnings = list(prep.warnings)
    with _stage("fuzzy"):
        first = {
            c.id: FuzzyVector(dict(zip(grades, vec.tolist())))
            for c, vec in zip(cfg.hierarchy.criteria, tail.first[0])
        }
        second = FuzzyVector(dict(zip(grades, tail.second[0].tolist())))
        if cfg.operator == WEIGHTED_AVERAGE:
            for crit_id, vec in first.items():
                if abs(vec.total() - 1.0) > VECTOR_SUM_WARN_TOL:
                    warnings.append(
                        ReportWarning(
                            "fuzzy-vector-sum",
                            f"first-level vector for {crit_id!r} sums to "
                            f"{vec.total():.4f}, expected 1",
                        )
                    )
            if abs(second.total() - 1.0) > VECTOR_SUM_WARN_TOL:
                warnings.append(
                    ReportWarning(
                        "fuzzy-vector-sum",
                        f"second-level vector sums to {second.total():.4f}, expected 1",
                    )
                )
        winner, membership, tied = verdicts(tail.second, grades, cfg.scale)
        final = Verdict(
            grade=cfg.scale.labels[winner[0]],
            membership=float(membership[0]),
            tied=bool(tied[0]),
        )
    return EvaluationReport(
        goal=cfg.hierarchy.goal_name,
        grades=cfg.scale.labels,
        screening=prep.screening,
        consistency=prep.ahp.consistency,
        relative_weights=prep.ahp.relative,
        criterion_subjective=prep.ahp.criterion,
        criterion_objective=prep.criterion_objective,
        criterion_comprehensive=WeightVector(
            dict(zip(prep.ahp.criterion.ids, tail.criterion[0].tolist()))
        ),
        indicator_subjective=prep.ahp.indicator,
        indicator_objective=prep.indicator_objective,
        indicator_comprehensive=WeightVector(
            dict(zip(prep.ahp.indicator.ids, tail.indicator[0].tolist()))
        ),
        first_level=first,
        second_level=second,
        verdict=final,
        warnings=tuple(warnings),
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
) -> AlphaSweep:
    """Evaluate the alpha-dependent tail over the whole grid, sorted by alpha.

    Screening, the eigenvector weights and the objective weights are computed
    once; the tail and the verdict run once, batched over the grid. Each row's
    second-level vector and verdict equal those of `run_pipeline` at that alpha
    exactly.
    """
    alphas = sorted(grid)
    if not alphas:
        raise ValidationError("sweep grid is empty")
    for a in alphas:
        if not 0.0 <= a <= 1.0:
            raise ValidationError(f"sweep grid value out of [0, 1]: {a}")
    prep = _prepare(cfg, survey, allow_inconsistent)
    alphas_arr = np.array(alphas, dtype=np.float64)
    second_level = _evaluate_tail(cfg, prep, alphas_arr).second
    return AlphaSweep(cfg.membership.grades, alphas_arr, second_level, cfg.scale)


def sweep_to_json_dict(sweep: AlphaSweep) -> dict[str, object]:
    grades = sweep.grades
    return {
        "schema_version": SCHEMA_VERSION,
        "rows": [
            {
                "alpha": alpha,
                "second_level": dict(zip(grades, values)),
                "verdict": verdict_to_json_dict(grade, membership, tied),
            }
            for alpha, values, grade, membership, tied in zip(*sweep._columns())
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


def screening_table(section: ScreeningSection) -> list[str]:
    """Markdown table lines: one row per indicator with its statistics and decision."""
    decisions = section.result.selected + section.result.rejected + section.result.overridden
    status_of = {d.indicator: (d.status, d.failed) for d in decisions}
    return _md_table(
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
            for s in section.stats
        ],
    )


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
        lines += screening_table(report.screening)
        lines.append("")

    lines.append("## Warnings")
    if report.warnings:
        for w in report.warnings:
            lines.append(f"- {w.code}: {w.message}")
    else:
        lines.append("None.")
    lines.append("")
    return "\n".join(lines)


def render_sweep_markdown(sweep: AlphaSweep) -> str:
    lines = ["# Alpha sweep", ""]
    lines += _md_table(
        ["Alpha", *sweep.grades, "Verdict", "Membership"],
        [
            [alpha, *values, grade, membership]
            for alpha, values, grade, membership, _ in zip(*sweep._columns())
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
