"""Result types and their serialisers: JSON-ready dicts and Markdown.

The stage results (`ScreeningSection`, `AhpSection`), the `EvaluationReport`
that holds them whole and the columnar `AlphaSweep` are frozen records; every
figure in the Markdown renderings also exists in the JSON. Every serialiser and
renderer lives here, one per result, shared by the report and the CLI's
single-stage commands. `sweep_rows` is the one reader of `AlphaSweep`'s
columns: it yields plain tuples, so the sweep serialisers build no row objects.
"""
from __future__ import annotations

import json
from dataclasses import InitVar, dataclass, field
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .ahp import ConsistencyReport
from .core import GradeScale, ValidationError, WeightVector, error_prefix
from .delphi import IndicatorStats, ScreeningResult
from .fuzzy import FuzzyVector, Verdict, check_vectors, verdicts

TOOL_VERSION = "0.1.0"  # also `siteval.__version__`; equals pyproject.toml's version

SCHEMA_VERSION = 2


@dataclass(frozen=True)
class ReportWarning:
    code: str
    message: str


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


def consistency_to_json_dict(rep: ConsistencyReport) -> dict[str, object]:
    return {
        "lambda_max": rep.lambda_max,
        "ci": rep.ci,
        "ri": rep.ri,
        "cr": rep.cr,
        "consistent": rep.consistent,
    }


def ahp_to_json_dict(ahp: AhpSection) -> dict[str, object]:
    return {
        "nodes": {
            node: {
                "weights": w.as_dict(),
                "consistency": consistency_to_json_dict(ahp.consistency[node]),
            }
            for node, w in {"goal": ahp.criterion, **ahp.relative}.items()
        },
        "global_subjective": ahp.indicator.as_dict(),
    }


def verdict_to_json_dict(grade: str, membership: float, tied: bool) -> dict[str, object]:
    return {"grade": grade, "membership": membership, "tied": tied}


@dataclass(frozen=True)
class EvaluationReport:
    """One run's output; `ahp` is the config's kept section, its warnings also in `warnings`."""

    goal: str
    grades: tuple[str, ...]
    screening: ScreeningSection | None
    ahp: AhpSection
    criterion_objective: WeightVector
    criterion_comprehensive: WeightVector
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
            "consistency": {
                node: consistency_to_json_dict(rep) for node, rep in self.ahp.consistency.items()
            },
            "weights": {
                "criterion": {
                    "subjective": self.ahp.criterion.as_dict(),
                    "objective": self.criterion_objective.as_dict(),
                    "comprehensive": self.criterion_comprehensive.as_dict(),
                },
                "indicator": {
                    "relative": {
                        crit: wv.as_dict() for crit, wv in self.ahp.relative.items()
                    },
                    "subjective": self.ahp.indicator.as_dict(),
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

    Built from the alphas (A,), the second-level vectors (A, G) in scale order
    and the scale, which gives `grades`; the constructor copies both arrays,
    applies FuzzyVector's range check to every vector (a failure raises a
    `fuzzy:` error naming the first offending row) and derives the verdict
    columns with `verdicts`. Iteration gives `SweepRow`s, read by `sweep_rows`.
    """

    grades: tuple[str, ...] = field(init=False)  # the scale's labels
    alphas: np.ndarray  # (A,) float64
    second_level: np.ndarray  # (A, G) float64, grades in scale order
    scale: InitVar[GradeScale]
    verdict_grade: np.ndarray = field(init=False)  # (A,) str objects
    verdict_membership: np.ndarray = field(init=False)  # (A,) float64
    verdict_tied: np.ndarray = field(init=False)  # (A,) bool

    def __post_init__(self, scale: GradeScale) -> None:
        grades = scale.labels
        alphas = np.array(self.alphas, dtype=np.float64)
        second = np.asarray(self.second_level, dtype=np.float64)
        if alphas.ndim != 1 or second.shape != (len(alphas), len(grades)):
            raise ValidationError(
                f"sweep shape mismatch: alphas {alphas.shape}, second level "
                f"{second.shape}, {len(grades)} grades"
            )
        with error_prefix("fuzzy"):
            check_vectors(second, grades)
            winner, membership, tied = verdicts(second.T)  # the sweep's own (G, A) rows
        object.__setattr__(self, "grades", grades)
        for name, column in (
            ("alphas", alphas),
            ("second_level", np.array(second, order="C")),  # a copy, in row order
            ("verdict_grade", np.array(grades, dtype=object).take(winner)),
            ("verdict_membership", membership),
            ("verdict_tied", tied),
        ):
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __len__(self) -> int:
        return len(self.alphas)

    def __iter__(self) -> Iterator[SweepRow]:
        for alpha, values, grade, membership, tied in sweep_rows(self):
            yield SweepRow(
                alpha=alpha,
                second_level=FuzzyVector(dict(zip(self.grades, values))),
                verdict=Verdict(grade=grade, membership=membership, tied=tied),
            )


def sweep_rows(sweep: AlphaSweep) -> Iterator[tuple[float, list[float], str, float, bool]]:
    """Each row as (alpha, second-level values in grade order, grade, membership, tied)."""
    # Whole columns to lists first: per-row `item` calls are slower.
    return zip(
        sweep.alphas.tolist(),
        sweep.second_level.tolist(),
        sweep.verdict_grade.tolist(),
        sweep.verdict_membership.tolist(),
        sweep.verdict_tied.tolist(),
    )


def sweep_to_json_dict(sweep: AlphaSweep) -> dict[str, object]:
    return {
        "schema_version": SCHEMA_VERSION,
        "rows": [
            {
                "alpha": alpha,
                "second_level": dict(zip(sweep.grades, values)),
                "verdict": verdict_to_json_dict(grade, membership, tied),
            }
            for alpha, values, grade, membership, tied in sweep_rows(sweep)
        ],
    }


def json_text(obj: object) -> str:
    """`obj` as `json.dumps` writes it with indent 2, without the stdlib's pure-Python encoder.

    The stdlib's C encoder writes every flat container (an exact `dict`, `list`
    or `tuple` whose values are all exact str, int, float, bool or None or
    empty exact containers) and every such leaf; the walker writes only the
    layout of the other exact containers. Only other types, such as a dict
    subclass or a float subclass, and a dict with a key that is not a str reach
    `json.dumps`.
    """
    cls = type(obj)
    if (cls is dict or cls is list or cls is tuple) and obj:
        out: list[str] = []
        _write_json(obj, "\n", out)
        return "".join(out)
    return json.dumps(obj, indent=2)


_SCALARS = frozenset({str, int, float, bool, type(None)})
_CONTAINERS = frozenset({dict, list, tuple})
# The C encoder of a flat container at each depth: "," and the next depth's
# indent between items, no cycle check (a flat container holds no container
# but empty ones) and NaN and inf as `json.dumps` writes them. Its `default`
# is never called: it is given only JSON values. A leaf holds no separator, so
# `_FLAT[0]` writes a leaf at any depth. A flat container deeper than the table
# is laid out by the walker.
_FLAT = tuple(
    c_make_encoder(None, None, encode_basestring_ascii, None, ": ", ",\n" + "  " * (depth + 1),
                   False, False, True)
    for depth in range(8)
)


def _is_flat(values: Iterable[object]) -> bool:
    """Whether every value is an exact str, int, float, bool or None or an empty exact container."""
    if _SCALARS.issuperset(map(type, values)):
        return True
    for value in values:  # a loop stops at the first miss, where `any` needs a generator
        cls = type(value)
        if cls in _CONTAINERS:
            if value:
                return False
        elif cls not in _SCALARS:
            return False
    return True


def _write_json(obj: dict | list | tuple, newline: str, out: list[str]) -> None:
    # Not a closure: one that calls itself is a reference cycle holding `out` until gen-2 gc.
    # `obj` is a non-empty exact container.
    values: Iterable[object] = obj.values() if type(obj) is dict else obj
    depth = len(newline) // 2  # `newline` is "\n" and two spaces per level
    if depth < len(_FLAT) and _is_flat(values):
        text = "".join(_FLAT[depth](obj, 0))  # "{" or "[", the items, "}" or "]"
        out += text[0], newline, "  ", text[1:-1], newline, text[-1]
        return
    inner = newline + "  "
    comma = "," + inner
    if type(obj) is dict:
        try:
            heads = [comma + encode_basestring_ascii(key) + ": " for key in obj]
        except TypeError:  # a key that is not a str: json.dumps converts it or raises
            out.append(json.dumps(obj, indent=2).replace("\n", newline))
            return
        heads[0] = "{" + heads[0][1:]
        close = newline + "}"
    else:
        heads = [comma] * len(obj)
        heads[0] = "[" + inner
        close = newline + "]"
    leaf = _FLAT[0]
    for head, value in zip(heads, values):
        cls = type(value)
        if cls in _CONTAINERS and value:
            out.append(head)
            _write_json(value, inner, out)
        elif cls in _SCALARS or cls in _CONTAINERS:  # a container here is empty
            out.append(head + leaf(value, 0)[0])
        else:
            # indent 2, each line moved to this depth; JSON text escapes every "\n" in a str
            out.append(head + json.dumps(value, indent=2).replace("\n", inner))
    out.append(close)


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.4f}"
    return "-" if value is None else str(value)


def md_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> list[str]:
    """Markdown table lines; floats get 4 decimals and bools read yes/no."""
    lines = ["| " + " | ".join(headers) + " |"]
    lines.append("|" + "|".join("---" for _ in headers) + "|")
    for row in rows:
        cells = [
            f"{v:.4f}" if type(v) is float else v if type(v) is str else _fmt(v) for v in row
        ]
        lines.append("| " + " | ".join(cells) + " |")
    return lines


def markdown_page(title: str, body: Sequence[str]) -> str:
    """A Markdown document: the `# title` heading, a blank line, then `body`."""
    return "\n".join([f"# {title}", "", *body])


def weights_table(weights: WeightVector) -> list[str]:
    """Markdown table lines: one row per id with its weight."""
    return md_table(["Id", "Weight"], [[k, weights[k]] for k in weights.ids])


def screening_table(section: ScreeningSection) -> list[str]:
    """Markdown table lines: one row per indicator with its statistics and decision."""
    decisions = section.result.selected + section.result.rejected + section.result.overridden
    status_of = {d.indicator: (d.status, d.failed) for d in decisions}
    return md_table(
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
    sections = {
        "Verdict": md_table(
            ["Grade", "Membership", "Tied"],
            [[report.verdict.grade, report.verdict.membership, report.verdict.tied]],
        ),
        "Run parameters": md_table(
            ["Alpha", "Operator", "Weights policy"],
            [[report.alpha, report.operator, report.weights_policy]],
        ),
        "Consistency": md_table(
            ["Node", "lambda_max", "CI", "RI", "CR", "CR < 0.1"],
            [
                [node, rep.lambda_max, rep.ci, rep.ri, rep.cr, rep.consistent]
                for node, rep in report.ahp.consistency.items()
            ],
        ),
        "Criterion weights": md_table(
            ["Criterion", "Subjective", "Objective", "Comprehensive"],
            [
                [cid, w, report.criterion_objective[cid], report.criterion_comprehensive[cid]]
                for cid, w in report.ahp.criterion.weights.items()
            ],
        ),
        "Indicator weights": md_table(
            ["Indicator", "Criterion", "Relative", "Subjective", "Objective", "Comprehensive"],
            [
                [
                    ind,
                    crit_id,
                    rel[ind],
                    report.ahp.indicator[ind],
                    report.indicator_objective[ind],
                    report.indicator_comprehensive[ind],
                ]
                for crit_id, rel in report.ahp.relative.items()
                for ind in rel.ids
            ],
        ),
        "First-level evaluation": md_table(
            ["Criterion"] + grades,
            [[cid] + [vec[g] for g in grades] for cid, vec in report.first_level.items()],
        ),
        "Second-level evaluation": md_table(grades, [[report.second_level[g] for g in grades]]),
    }
    if report.screening is not None:
        sections["Screening"] = screening_table(report.screening)
    sections["Warnings"] = [f"- {w.code}: {w.message}" for w in report.warnings] or ["None."]
    lines: list[str] = []
    for title, body in sections.items():
        lines += [f"## {title}", *body, ""]
    return markdown_page(f"Evaluation report: {report.goal}", lines)


def render_ahp_markdown(ahp: AhpSection) -> str:
    """Each matrix's weights and consistency figures, goal first, then the global weights."""
    lines = []
    for node, w in {"goal": ahp.criterion, **ahp.relative}.items():
        rep = ahp.consistency[node]
        lines += [
            f"## {node}",
            *weights_table(w),
            "",
            f"lambda_max {rep.lambda_max:.4f}, CI {rep.ci:.4f}, "
            f"RI {rep.ri:.4f}, CR {rep.cr:.4f}",
            "",
        ]
    lines += ["## Global indicator weights", *weights_table(ahp.indicator)]
    return markdown_page("Subjective weights", lines)


def render_sweep_markdown(sweep: AlphaSweep) -> str:
    table = md_table(
        ["Alpha", *sweep.grades, "Verdict", "Membership"],
        [
            [alpha, *values, grade, membership]
            for alpha, values, grade, membership, _ in sweep_rows(sweep)
        ],
    )
    return markdown_page("Alpha sweep", [*table, ""])
