"""The evaluation stages and the four entry points that chain them.

`load_config` reads a project config (see `config`). One private pass runs
every stage in order: the membership checks, optional survey screening
(`screen_stage`), eigenvector weights with consistency checks (`ahp_stage`),
entropy or adopted objective weights, then convex fusion and two-level fuzzy
composition batched over a 1-D array of alphas. `run_pipeline` runs it at the
config's alpha and adds the max-membership verdict; `sweep_alpha` runs it over
a whole grid, takes the verdicts in one batch and keeps the result columnar
(`AlphaSweep`; `report.sweep_rows` reads its rows). `emit_report` renders a
report (see `report`). Every stage prefixes its errors with its name
(`ahp: ...`). Runs are pure functions of their inputs, so identical configs
produce identical reports, and a sweep row equals the report at the same alpha
bit for bit.

The stages that do not depend on alpha run on a config's first run only. The
config keeps their results in two parts: the membership layout, built before
screening (`_layout`: unpadded slots, criteria in size order), and the weights,
built after it (`_weights`: the AHP section with inconsistency as warnings, the
objective weights, checked for fusion, and under `paper` the first-level
vectors). A later run does only screening, the `allow_inconsistent` check, the
blends and composition. A build that raises keeps nothing, and the first run
raises what the stage order gives: screening before AHP, an inconsistent matrix
before a later matrix's, the entropy stage's or fusion's fault. A config keeps
its `config_hash` too, and reports hold the kept weights themselves: every
mapping a config or a report holds is read-only.
"""
from __future__ import annotations

import numbers
from itertools import accumulate
from dataclasses import InitVar, dataclass, field
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .ahp import ConsistencyReport, derive_weights, synthesize_global
from .config import POLICY_FUSED_BOTH, ProjectConfig, read_json
from .core import GradeScale, ValidationError, WeightVector, error_prefix
from .delphi import SurveyRound, round_statistics, screen
from .entropy import entropy_weights
from .fusion import blend, check_pair
from .fuzzy import (
    WEIGHTED_AVERAGE,
    FuzzyVector,
    Verdict,
    check_vectors,
    compose,
    verdict,
    verdicts,
)
from .report import (
    AhpSection,
    EvaluationReport,
    ReportWarning,
    ScreeningSection,
    json_text,
    render_markdown,
    sweep_rows,
)

# A membership row may fall short of sum 1 by this much before the run aborts;
# a smaller shortfall above the flagging tolerance becomes a warning. Only
# shortfalls reach this band: MembershipMatrix rejects sums above 1 + 1e-9.
MEMBERSHIP_ERROR_TOL = 0.05
VECTOR_SUM_WARN_TOL = 1e-6


def load_config(path: str | Path) -> ProjectConfig:
    return ProjectConfig.from_dict(read_json(path, "config file"))


def screen_stage(cfg: ProjectConfig, survey: SurveyRound) -> ScreeningSection:
    """Round statistics of a survey and their screening under the config's criteria.

    An override id that is neither a hierarchy indicator nor a surveyed one raises.
    """
    with error_prefix("screen"):
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
    with error_prefix("ahp"):
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
        relative = MappingProxyType({c.id: weights[c.id] for c in cfg.hierarchy.criteria})
        indicator = synthesize_global(cfg.hierarchy, weights["goal"], relative)
    return AhpSection(
        weights["goal"], relative, indicator, MappingProxyType(consistency), tuple(warnings)
    )


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
        # The verdict kernel reads F order, which the sweep's (G, A).T view has already.
        second = np.asfortranarray(self.second_level, dtype=np.float64)
        if alphas.ndim != 1 or second.shape != (len(alphas), len(grades)):
            raise ValidationError(
                f"sweep shape mismatch: alphas {alphas.shape}, second level "
                f"{second.shape}, {len(grades)} grades"
            )
        with error_prefix("fuzzy"):
            check_vectors(second, grades)
            winner, membership, tied = verdicts(second)
        object.__setattr__(self, "grades", grades)
        for name, column in (
            ("alphas", alphas),
            ("second_level", np.array(second, order="C")),  # a copy, in row order
            ("verdict_grade", np.array(grades, dtype=object)[winner]),
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


class _Layout(NamedTuple):
    """A config's membership rows, checked once and laid out slot by slot, unpadded.

    With the criteria in size order (most indicators first, ties in hierarchy order),
    slot j holds the j-th indicator of each criterion that has one, in contiguous rows.
    """

    warnings: tuple[ReportWarning, ...]  # rows whose sum strays from 1 within tolerance
    indicators: tuple[str, ...]  # the indicator ids in row order
    slots: tuple[slice, ...]  # the rows of each slot
    sizes: tuple[int, ...]  # the number of rows of each slot
    membership: np.ndarray  # (I, G, 1) in row order, read-only
    back: np.ndarray | slice  # size order to hierarchy order; slice(None) when they agree


class _Weights(NamedTuple):
    """A config's weights that do not depend on alpha, built once after screening."""

    ahp: AhpSection  # every inconsistent judgment matrix is one of its warnings
    criterion_objective: WeightVector
    indicator_objective: WeightVector
    criterion: np.ndarray  # (2, C): subjective, objective; hierarchy order; read-only
    indicator: np.ndarray  # (2, I): subjective, objective; row order; read-only
    first: np.ndarray | None  # (C, G, 1) first-level vectors under `paper`, read-only


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _layout(cfg: ProjectConfig) -> _Layout:
    """The config's membership layout, built and kept on first use; a raise keeps nothing."""
    if cfg._layout is not None:
        return cfg._layout
    warnings: list[ReportWarning] = []
    with error_prefix("config"):
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
        ids = [c.children for c in cfg.hierarchy.criteria]
        order = sorted(range(len(ids)), key=lambda c: -len(ids[c]))  # stable
        slots = [[ids[c][j] for c in order if j < len(ids[c])] for j in range(len(ids[order[0]]))]
        indicators = tuple(i for slot in slots for i in slot)
        sizes = tuple(map(len, slots))
        stops = list(accumulate(sizes))
        membership = _read_only(cfg.membership.to_array(indicators)[..., None])
    inverse = sorted(range(len(order)), key=order.__getitem__)
    back = slice(None) if inverse == sorted(inverse) else np.array(inverse)
    layout = _Layout(tuple(warnings), indicators, tuple(map(slice, [0] + stops, stops)), sizes,
                     membership, back)
    object.__setattr__(cfg, "_layout", layout)
    return layout


def _weights(cfg: ProjectConfig, layout: _Layout, allow_inconsistent: bool) -> _Weights:
    """The config's alpha-free weights, built and kept on first use; a raise keeps nothing.

    The AHP section kept holds every inconsistent matrix as a warning: a build
    that does not allow one raises at the first, as `ahp_stage` does, and one
    that succeeds found none. Fusion's checks run here, once per config.
    """
    if cfg._weights is not None:
        return cfg._weights
    ahp = ahp_stage(cfg, allow_inconsistent)

    with error_prefix("entropy"):
        dm = cfg.decision_matrix
        source = cfg.objective_weights if dm is None else entropy_weights(dm)
        assert source is not None  # a ProjectConfig holds exactly one of the two
        # Reorder to hierarchy order for stable reporting.
        indicator_objective = WeightVector({i: source[i] for i in cfg.hierarchy.indicator_ids()})
        criterion_objective = WeightVector(
            {
                c.id: sum(indicator_objective[i] for i in c.children)
                for c in cfg.hierarchy.criteria
            }
        )

    with error_prefix("fuse"):
        check_pair(ahp.criterion, criterion_objective)
        check_pair(ahp.indicator, indicator_objective)
    rows, first = layout.indicators, None
    if cfg.weights_policy != POLICY_FUSED_BOTH:
        # The paper's level-one weights are the relative ones, which ignore alpha.
        relative = {i: w for v in ahp.relative.values() for i, w in v.weights.items()}
        w = np.array([relative[i] for i in rows])[:, None]
        first = _read_only(compose(w, layout.membership, cfg.operator, layout.sizes)[layout.back])
    weights = _Weights(
        ahp, criterion_objective, indicator_objective,
        _read_only(np.array([ahp.criterion.values(), criterion_objective.values()])),
        _read_only(np.array([ahp.indicator.values(rows), indicator_objective.values(rows)])),
        first,
    )
    object.__setattr__(cfg, "_weights", weights)
    return weights


class _Run(NamedTuple):
    """One run's output over a 1-D array of A alphas, in hierarchy order."""

    warnings: list[ReportWarning]
    screening: ScreeningSection | None
    kept: _Weights  # the config's own record, read-only
    criterion: np.ndarray  # (C, A) comprehensive criterion weights
    first: np.ndarray  # (C, G, A) first-level vectors; (C, G, 1) if they ignore alpha
    second: np.ndarray  # (G, A) second-level vectors


def _evaluate(
    cfg: ProjectConfig,
    survey: SurveyRound | None,
    allow_inconsistent: bool,
    alphas: np.ndarray,
) -> _Run:
    """Every stage in order; fusion and both fuzzy levels batched over `alphas`.

    The alpha-free stages run on the config's first run only (`_layout`, `_weights`).
    """
    layout = _layout(cfg)
    warnings = list(layout.warnings)

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

    kept = _weights(cfg, layout, allow_inconsistent)
    if kept.ahp.warnings and not allow_inconsistent:  # kept by a run that allowed them
        with error_prefix("ahp"):
            raise ValidationError(kept.ahp.warnings[0].message)
    warnings += kept.ahp.warnings

    # Weights and vectors keep alpha last, so each step runs over the contiguous grid.
    criterion = blend(*kept.criterion, alphas)
    first = kept.first
    with error_prefix("fuzzy"):
        if first is None:  # only fused-both blends the indicator weights
            w = blend(*kept.indicator, alphas)
            total = w[layout.slots[0]] + 0.0  # each total adds left to right from 0.0, as sum()
            for rows, k in zip(layout.slots[1:], layout.sizes[1:]):
                total[:k] += w[rows]
            if np.any(total <= 0):
                raise ValidationError("degenerate weight vector: all entries zero")
            for rows, k in zip(layout.slots, layout.sizes):
                w[rows] /= total[:k]
            first = compose(w, layout.membership, cfg.operator, layout.sizes)[layout.back]
        second = compose(criterion, first, cfg.operator)

    return _Run(warnings, screening, kept, criterion, first, second)


def run_pipeline(
    cfg: ProjectConfig,
    survey: SurveyRound | None = None,
    allow_inconsistent: bool = False,
) -> EvaluationReport:
    """Run every stage on one config and collect the full report.

    The report holds the config's kept weights and consistency reports, read-only.
    """
    run = _evaluate(cfg, survey, allow_inconsistent, np.array([cfg.alpha], dtype=np.float64))
    ahp = run.kept.ahp
    blended = blend(*run.kept.indicator, np.array([cfg.alpha]))[:, 0].tolist()
    indicator = dict(zip(_layout(cfg).indicators, blended))  # in row order
    grades = cfg.scale.labels
    with error_prefix("fuzzy"):
        first = {
            c.id: FuzzyVector(dict(zip(grades, vec.tolist())))
            for c, vec in zip(cfg.hierarchy.criteria, run.first[..., 0])
        }
        second = FuzzyVector(dict(zip(grades, run.second[:, 0].tolist())))
        if cfg.operator == WEIGHTED_AVERAGE:
            named = [(f"first-level vector for {c!r}", vec) for c, vec in first.items()]
            for what, vec in named + [("second-level vector", second)]:
                if abs(vec.total() - 1.0) > VECTOR_SUM_WARN_TOL:
                    run.warnings.append(
                        ReportWarning(
                            "fuzzy-vector-sum", f"{what} sums to {vec.total():.4f}, expected 1"
                        )
                    )
        final = verdict(second, cfg.scale)
    return EvaluationReport(
        goal=cfg.hierarchy.goal_name,
        grades=cfg.scale.labels,
        screening=run.screening,
        consistency=ahp.consistency,
        relative_weights=ahp.relative,
        criterion_subjective=ahp.criterion,
        criterion_objective=run.kept.criterion_objective,
        criterion_comprehensive=WeightVector(
            dict(zip(ahp.criterion.ids, run.criterion[:, 0].tolist()))
        ),
        indicator_subjective=ahp.indicator,
        indicator_objective=run.kept.indicator_objective,
        indicator_comprehensive=WeightVector({i: indicator[i] for i in ahp.indicator.ids}),
        first_level=MappingProxyType(first),
        second_level=second,
        verdict=final,
        warnings=tuple(run.warnings),
        alpha=cfg.alpha,
        operator=cfg.operator,
        weights_policy=cfg.weights_policy,
        config_sha256=cfg.config_hash(),
    )


def _grid_floats(grid: Iterable[object]) -> tuple[np.ndarray, Sequence[object]]:
    """The grid as a float64 array in input order, and the values it was read from.

    The first value that is a str, None, a bool or anything else that is not a
    real number raises.
    """
    values = grid if isinstance(grid, (list, tuple, np.ndarray)) else list(grid)
    try:
        inferred = np.array(values)
        numeric = inferred.ndim == 1 and inferred.dtype.kind in "fiu"
    except ValueError:  # ragged, so some value is a sequence
        numeric = False
    # A bool beside numbers also infers a numeric dtype, as 0 or 1, so then
    # only the values equal to 0 or 1 need their type checked.
    suspects = (
        [values[k] for k in np.flatnonzero((inferred == 0) | (inferred == 1)).tolist()]
        if numeric else values
    )
    for v in suspects:
        if isinstance(v, (bool, np.bool_)) or not isinstance(v, numbers.Real):
            raise ValidationError(f"sweep grid value is not a number: {v!r}")
    if numeric:
        return inferred.astype(np.float64), values
    try:
        return np.array(values, dtype=np.float64), values
    except OverflowError:  # an int too large for a float lies out of range
        bad = next(v for v in sorted(values) if not 0.0 <= v <= 1.0)  # type: ignore
        raise ValidationError(f"sweep grid value out of [0, 1]: {bad}") from None


def sweep_alpha(
    cfg: ProjectConfig, grid: Iterable[float], allow_inconsistent: bool = False
) -> AlphaSweep:
    """Second-level vectors and verdicts over the whole grid, sorted by alpha.

    Every stage but screening runs once, with fusion, both fuzzy levels and
    the verdict batched over the grid; the stages that ignore alpha run on
    the config's first run only. Each row's second-level vector and
    verdict equal those of `run_pipeline` at that alpha exactly; grades are in
    the order of `cfg.scale`, as everywhere in a run.

    The grid may be any iterable of real numbers, or a 1-D numeric numpy
    array. An empty grid, a value that is a str, None or bool, and a value
    outside [0, 1] each raise a ValidationError.
    """
    unsorted, values = _grid_floats(grid)
    if not unsorted.size:
        raise ValidationError("sweep grid is empty")
    # Stable, like `sorted`: equal values (0.0 and -0.0) keep their order; NaN sorts last.
    alphas = np.sort(unsorted, kind="stable")
    if not (alphas[0] >= 0.0 and alphas[-1] <= 1.0):
        first_bad = np.flatnonzero(~((alphas >= 0.0) & (alphas <= 1.0)))[0]
        value = values[np.argsort(unsorted, kind="stable")[first_bad]]
        raise ValidationError(f"sweep grid value out of [0, 1]: {value}")
    second_level = _evaluate(cfg, None, allow_inconsistent, alphas).second.T
    return AlphaSweep(alphas, second_level, cfg.scale)


def emit_report(report: EvaluationReport, format: str) -> str:
    """Render a report as 'json' (full precision) or 'markdown' (4 decimals)."""
    if format == "json":
        return json_text(report.to_json_dict())
    if format in ("markdown", "md"):
        return render_markdown(report)
    raise ValidationError(f"unknown report format {format!r}; expected json or markdown")
