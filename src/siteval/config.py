"""Project config: parsing, cross-validation, canonical encoding and hashing.

A project config bundles the hierarchy, grade scale, respondent classes,
screening thresholds, judgment matrices, membership matrix and the
objective-weight source. `ProjectConfig.from_dict` parses a JSON-shaped
mapping and names the key path of every malformed value, with the `config:`
prefix; constructing a `ProjectConfig` cross-checks every id against the
hierarchy, so every config that exists is consistent.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from functools import cache
from pathlib import Path
from types import MappingProxyType
from typing import Any, Mapping, Sequence

from .ahp import JudgmentMatrix
from .core import (
    Criterion,
    GradeScale,
    Indicator,
    IndicatorHierarchy,
    MembershipMatrix,
    ValidationError,
    WeightVector,
    check_same_ids,
    error_prefix,
    first_repeat,
    gc_paused,
    parse_float,
    validate_hierarchy,
)
from .delphi import RespondentClass, ScreeningCriteria
from .entropy import DecisionMatrix
from .fuzzy import OPERATORS, WEIGHTED_AVERAGE

POLICY_PAPER = "paper"
POLICY_FUSED_BOTH = "fused-both"
POLICIES = (POLICY_PAPER, POLICY_FUSED_BOTH)

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


def _list(value: object, where: str, *args: object) -> Sequence[Any]:
    if not isinstance(value, (list, tuple)):
        raise ValidationError(
            f"{where.format(*args)}: expected a list, got {type(value).__name__}"
        )
    return value


def as_object(value: object, where: str, *args: object) -> Mapping[str, Any]:
    """`value` if it is a mapping, else a ValidationError at `where.format(*args)`."""
    if not isinstance(value, (dict, Mapping)):  # dict first: the Mapping check is slow
        raise ValidationError(
            f"{where.format(*args)}: expected an object, got {type(value).__name__}"
        )
    return value


@cache
def _keys(cls: type) -> frozenset[str]:
    """The constructor arguments of dataclass `cls`: the keys its config object may hold."""
    return frozenset(f.name for f in fields(cls) if f.init)


def _object(value: object, cls: type, where: str, *args: object) -> Mapping[str, Any]:
    """`value` as a mapping holding only keys that `cls`'s constructor takes."""
    value = as_object(value, where, *args)
    if not value.keys() <= _keys(cls):
        unknown = sorted(value.keys() - _keys(cls), key=str)
        raise ValidationError(f"{where.format(*args)}: unknown keys {unknown}")
    return value


def _objects(value: object, cls: type, where: str, *args: object) -> Sequence[Mapping[str, Any]]:
    """`value` as a list of mappings, all checked as `_object` checks them at `where[k]`."""
    items, keys = _list(value, where, *args), _keys(cls)
    for k, v in enumerate(items):
        if type(v) is not dict or not v.keys() <= keys:
            _object(v, cls, where + "[{}]", *args, k)
    return items


def _field(entry: Mapping[str, Any], key: str, where: str, *args: object) -> Any:
    if key not in entry:
        raise ValidationError(f"{where.format(*args)}: missing key {key!r}")
    return entry[key]


def _given(entry: Mapping[str, Any], *keys: str) -> dict[str, Any]:
    """The values `entry` gives for `keys`; a key it omits keeps its dataclass default."""
    return {k: entry[k] for k in keys if k in entry}


@dataclass(frozen=True)
class ProjectConfig:
    """Everything one evaluation run needs, parsed and cross-validated.

    `scale.labels` is a run's one grade order; `membership` must list its grades in it.

    A config and its parts are values: every mapping they hold is read-only.
    A config keeps what it derives on first use: its `config_hash` and one
    record of the stages that do not depend on alpha (see `pipeline`).
    `with_overrides` and `dataclasses.replace` copies keep nothing of the
    original's runs: a copy's first run derives its AHP weights again.
    """

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
    # Filled by `pipeline` on first use: the record of the stages that ignore alpha.
    _kept: Any = field(default=None, init=False, repr=False, compare=False)
    _sha256: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "classes", tuple(self.classes))
        object.__setattr__(self, "matrices", MappingProxyType(dict(self.matrices)))
        object.__setattr__(self, "alpha", parse_float(self.alpha, "alpha"))
        if not self.classes:
            raise ValidationError("respondent_classes: expected at least one class")
        labels = [c.label for c in self.classes]
        if len(set(labels)) != len(labels):
            raise ValidationError(f"duplicate respondent class labels: {sorted(labels)}")
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

        indicator_ids = self.hierarchy.indicator_ids()
        check_same_ids(
            self.membership.indicator_ids, indicator_ids,
            "membership rows do not match indicators",
        )
        if self.membership.grades != self.scale.labels:
            raise ValidationError(
                f"membership grades {list(self.membership.grades)} do not match "
                f"scale {list(self.scale.labels)}"
            )
        if self.objective_weights is not None:
            check_same_ids(
                self.objective_weights.ids, indicator_ids,
                "objective weights do not match indicators",
            )
        if self.decision_matrix is not None:
            check_same_ids(
                self.decision_matrix.indicators, indicator_ids,
                "decision matrix columns do not match indicators",
            )

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ProjectConfig":
        with error_prefix("config"):
            return cls._parse(data)

    @classmethod
    def _parse(cls, data: Mapping[str, object]) -> "ProjectConfig":
        if not isinstance(data, (dict, Mapping)):
            raise ValidationError(f"expected an object, got {type(data).__name__}")
        if not data.keys() <= _CONFIG_KEYS:
            unknown = sorted(data.keys() - _CONFIG_KEYS, key=str)
            raise ValidationError(f"unknown config keys: {unknown}")
        for key in ("goal", "grades", "criteria", "judgment_matrices", "membership"):
            if key not in data:
                raise ValidationError(f"missing config key {key!r}")

        scale = GradeScale(tuple(str(g) for g in _list(data["grades"], "grades")))

        criteria: list[Criterion] = []
        for k, entry in enumerate(_objects(data["criteria"], Criterion, "criteria")):
            crit_id = _field(entry, "id", "criteria[{}]", k)
            indicators = []
            kids = entry.get("indicators", [])
            for m, ind in enumerate(_objects(kids, Indicator, "criteria[{}].indicators", k)):
                if "id" not in ind:
                    raise ValidationError(f"criteria[{k}].indicators[{m}]: missing key 'id'")
                ind_id, name = str(ind["id"]), str(ind.get("name", ind["id"]))
                indicators.append(
                    Indicator(ind_id, name, ind["kind"]) if "kind" in ind
                    else Indicator(ind_id, name)
                )
            criteria.append(
                Criterion(str(crit_id), str(entry.get("name", crit_id)), tuple(indicators))
            )
        hierarchy = IndicatorHierarchy(str(data["goal"]), tuple(criteria))

        classes = DEFAULT_CLASSES
        if "respondent_classes" in data:
            classes = tuple(
                RespondentClass(
                    str(_field(c, "label", "respondent_classes[{}]", k)),
                    parse_float(
                        _field(c, "score_weight", "respondent_classes[{}]", k),
                        "respondent_classes[{}].score_weight", k,
                    ),
                )
                for k, c in enumerate(
                    _objects(data["respondent_classes"], RespondentClass, "respondent_classes")
                )
            )

        sc = _object(data.get("screening", {}), ScreeningCriteria, "screening")
        thresholds = {
            k: None if k == "min_gcr" and v is None else parse_float(v, "screening.{}", k)
            for k, v in sc.items() if k != "overrides"
        }
        if "overrides" in sc:
            thresholds["overrides"] = frozenset(
                str(i) for i in _list(sc["overrides"], "screening.overrides")
            )
        screening = ScreeningCriteria(**thresholds)

        # Each node's labels; the goal's, then the first criterion of an id.
        labels_of = {"goal": hierarchy.criterion_ids()}
        for c in hierarchy.criteria:
            labels_of.setdefault(c.id, c.children)
        matrices: dict[str, JudgmentMatrix] = {}
        for node, rows in as_object(data["judgment_matrices"], "judgment_matrices").items():
            node = str(node)
            if node not in labels_of:
                raise ValidationError(f"judgment matrix for unknown node {node!r}")
            rows = _list(rows, "judgment_matrices.{}", node)
            for k, row in enumerate(rows):
                if type(row) is not list:
                    _list(row, "judgment_matrices.{}[{}]", node, k)
            matrices[node] = JudgmentMatrix(node, labels_of[node], rows)

        grades, grade_set = scale.labels, set(scale.labels)
        membership_rows: dict[str, dict[str, float]] = {}
        for ind, row in as_object(data["membership"], "membership").items():
            if type(row) is not dict:
                row = as_object(row, "membership.{}", ind)
            if row.keys() != grade_set:  # one compare; the lists are built only to name the fault
                missing = [g for g in grades if g not in row]
                if missing:
                    raise ValidationError(f"membership row {ind!r}: missing grades {missing}")
                unknown = sorted(set(row) - grade_set)
                raise ValidationError(f"membership row {ind!r}: unknown grades {unknown}")
            membership_rows[str(ind)] = {
                g: parse_float(row[g], "membership.{}.{}", ind, g) for g in grades
            }
        membership = MembershipMatrix(membership_rows)

        objective = None
        if "objective_weights" in data:
            ow = as_object(data["objective_weights"], "objective_weights")
            objective = WeightVector(
                {str(k): parse_float(v, "objective_weights.{}", k) for k, v in ow.items()}
            )
        decision = None
        if "decision_matrix" in data:
            dm = _object(data["decision_matrix"], DecisionMatrix, "decision_matrix")
            ids = {
                key: tuple(
                    str(x)
                    for x in _list(
                        _field(dm, key, "decision_matrix"), "decision_matrix.{}", key
                    )
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
            **_given(data, "alpha", "operator", "weights_policy"),
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
        matrix's C-order little-endian float64 bytes. Computed once per config.
        """
        if self._sha256 is not None:
            return self._sha256
        out = self._dict_without_values()
        matrix = None
        if self.decision_matrix is not None:
            matrix = self.decision_matrix.values
            out["decision_matrix"]["values"] = {"shape": list(matrix.shape), "dtype": "<f8"}
        # `out` is a fresh tree of new containers, so there is no cycle to look for.
        canonical = json.dumps(out, sort_keys=True, separators=(",", ":"), check_circular=False)
        digest = hashlib.sha256(canonical.encode("utf-8"))
        if matrix is not None:
            # The array's own buffer, not a `tobytes` copy: `astype` copies only an
            # array that is not C-ordered little-endian float64.
            digest.update(matrix.astype("<f8", order="C", copy=False))
        sha256 = digest.hexdigest()
        object.__setattr__(self, "_sha256", sha256)
        return sha256

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
                        for i in c.indicators
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
            "membership": {ind: row.copy() for ind, row in self.membership.rows.items()},
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


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A JSON object as a dict; a repeated key raises, where `json` would keep its last value."""
    if len(out := dict(pairs)) < len(pairs):
        raise ValueError(f"duplicate key {first_repeat(k for k, _ in pairs)!r}")
    return out


def read_json(path: str | Path, what: str) -> Any:
    """Parsed JSON of a file; a missing, unreadable or invalid file raises a ValidationError."""
    p = Path(path)
    try:
        # "utf-8-sig" skips a leading byte-order mark, as the CSV readers do.
        return json.loads(p.read_text(encoding="utf-8-sig"), object_pairs_hook=_unique_keys)
    except (FileNotFoundError, NotADirectoryError):
        raise ValidationError(f"{what} not found: {p}") from None
    except OSError as exc:
        raise ValidationError(f"{what} {p}: cannot read: {exc.strerror}") from exc
    except ValueError as exc:  # also bad UTF-8, the int-digit limit and a repeated key
        raise ValidationError(f"{what} {p}: invalid JSON: {exc}") from exc


def read_weight_file(path: str | Path) -> WeightVector:
    """A JSON file holding one object of id -> weight."""
    with gc_paused():
        data = as_object(read_json(path, "weight file"), "weight file {}", path)
        return WeightVector(
            {str(k): parse_float(v, "weight file {}: {}", path, k) for k, v in data.items()}
        )
