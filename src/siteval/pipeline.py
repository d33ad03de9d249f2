"""The evaluation stages and the four entry points that chain them.

`load_config` reads a project config (see `config`). One private pass runs
every stage in order: optional survey screening (`screen_stage`), the
membership checks, eigenvector weights with consistency checks (`ahp_stage`),
entropy or adopted objective weights, then convex fusion and two-level fuzzy
composition batched over a 1-D array of alphas. `run_pipeline` runs it at the
config's alpha and adds the max-membership verdict; `sweep_alpha` runs it over
a whole grid, takes the verdicts in one batch and keeps the result columnar
(`report.AlphaSweep`). `emit_report` renders a report (see `report`). Every
stage prefixes its errors with its name (`ahp: ...`). Runs are pure functions
of their inputs, so identical configs produce identical reports, and a sweep
row equals the report at the same alpha bit for bit.

The stages that do not depend on alpha run on a config's first run only, after
screening, and the config keeps their results in one record (`_kept`): the
membership rows, checked and laid out in unpadded slots with the criteria in
size order; the AHP section with inconsistency as warnings; the objective
weights, checked for fusion; and under `paper` the first-level vectors. A later
run does only screening, the `allow_inconsistent` check, the blends and
composition. A build that raises keeps nothing, and the first run raises what
the stage order gives: screening before a membership row's fault, that before
AHP, and an inconsistent matrix before a later matrix's, the entropy stage's or
fusion's fault. A config keeps its `config_hash` too, and a report holds the
kept AHP section itself: every mapping a config or a report holds is read-only.
"""
from __future__ import annotations

from itertools import accumulate
from pathlib import Path
from types import MappingProxyType
from typing import Iterable, NamedTuple

import numpy as np

from .ahp import ConsistencyReport, derive_weights, synthesize_global
from .config import POLICY_FUSED_BOTH, ProjectConfig, read_json
from .core import ValidationError, WeightVector, error_prefix, float_sum, gc_paused
from .delphi import SurveyRound, round_statistics, screen
from .entropy import entropy_weights
from .fusion import alpha_floats, blend, check_pair
from .fuzzy import WEIGHTED_AVERAGE, FuzzyVector, first_level, second_level, verdict
from .report import (
    AhpSection,
    AlphaSweep,
    EvaluationReport,
    ReportWarning,
    ScreeningSection,
    json_text,
    render_markdown,
)

# A membership row whose sum misses 1 by more than ROW_SUM_FLAG_TOL becomes a
# warning, and by more than MEMBERSHIP_ERROR_TOL aborts the run. Only shortfalls
# reach the error band: MembershipMatrix rejects sums above 1 + 1e-9.
ROW_SUM_FLAG_TOL = 1e-6
MEMBERSHIP_ERROR_TOL = 0.05
VECTOR_SUM_WARN_TOL = 1e-6


def load_config(path: str | Path) -> ProjectConfig:
    with gc_paused():
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


class _Kept(NamedTuple):
    """A config's alpha-free state, built once by its first run after screening.

    The membership rows are laid out slot by slot, unpadded: with the criteria in
    size order (most indicators first, ties in hierarchy order), slot j holds the
    j-th indicator of each criterion that has one, in contiguous rows.
    """

    warnings: tuple[ReportWarning, ...]  # rows whose sum strays from 1 within tolerance
    indicators: tuple[str, ...]  # the indicator ids in row order
    slots: tuple[slice, ...]  # the rows of each slot
    sizes: tuple[int, ...]  # the number of rows of each slot
    row_vector: np.ndarray  # (I,) the size-order index of the vector each row's term updates
    membership: np.ndarray  # (I, G, 1) in row order, read-only
    back: np.ndarray | slice  # size order to hierarchy order; slice(None) when they agree
    ahp: AhpSection  # every inconsistent judgment matrix is one of its warnings
    criterion_objective: WeightVector
    indicator_objective: WeightVector
    criterion: np.ndarray  # (2, C): subjective, objective; hierarchy order; read-only
    indicator: np.ndarray  # (2, I): subjective, objective; row order; read-only
    first: np.ndarray | None  # (C, G, 1) first-level vectors under `paper`, read-only


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _kept(cfg: ProjectConfig, allow_inconsistent: bool) -> _Kept:
    """The config's alpha-free state, built and kept on first use; a raise keeps nothing.

    The stages run in order: the membership row checks and layout, `ahp_stage`,
    the objective weights and fusion's checks. The AHP section kept holds every
    inconsistent matrix as a warning: a build that does not allow one raises at
    the first, as `ahp_stage` does, and one that succeeds found none.
    """
    if cfg._kept is not None:
        return cfg._kept
    warnings: list[ReportWarning] = []
    with error_prefix("config"):
        for ind, total in cfg.membership.row_sums.items():
            dev = abs(total - 1.0)
            if dev <= ROW_SUM_FLAG_TOL:
                continue
            if dev > MEMBERSHIP_ERROR_TOL:
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
        rows = tuple(i for slot in slots for i in slot)
        sizes = tuple(map(len, slots))
        stops = list(accumulate(sizes))
        membership = _read_only(cfg.membership.to_array(rows)[..., None])
    back = slice(None) if order == sorted(order) else np.argsort(order)  # the inverse of order

    ahp = ahp_stage(cfg, allow_inconsistent)

    with error_prefix("entropy"):
        dm = cfg.decision_matrix
        source = cfg.objective_weights if dm is None else entropy_weights(dm)
        assert source is not None  # a ProjectConfig holds exactly one of the two
        # Reorder to hierarchy order for stable reporting.
        indicator_objective = WeightVector({i: source[i] for i in cfg.hierarchy.indicator_ids()})
        criterion_objective = WeightVector(
            {
                c.id: float_sum(indicator_objective[i] for i in c.children)
                for c in cfg.hierarchy.criteria
            }
        )

    with error_prefix("fuse"):
        check_pair(ahp.criterion, criterion_objective)
        check_pair(ahp.indicator, indicator_objective)
    first = None
    if cfg.weights_policy != POLICY_FUSED_BOTH:
        # The paper's level-one weights are the relative ones, which ignore alpha.
        relative = {i: w for v in ahp.relative.values() for i, w in v.weights.items()}
        w = np.array([relative[i] for i in rows])[:, None]
        first = _read_only(first_level(w, membership, cfg.operator, sizes)[back])
    kept = _Kept(
        tuple(warnings), rows, tuple(map(slice, [0] + stops, stops)), sizes,
        _read_only(np.array([j for k in sizes for j in range(k)])), membership, back,
        ahp, criterion_objective, indicator_objective,
        _read_only(np.array([ahp.criterion.values(), criterion_objective.values()])),
        _read_only(np.array([ahp.indicator.values(rows), indicator_objective.values(rows)])),
        first,
    )
    object.__setattr__(cfg, "_kept", kept)
    return kept


class _Run(NamedTuple):
    """One run's output over a 1-D array of A alphas, in hierarchy order."""

    warnings: list[ReportWarning]
    screening: ScreeningSection | None
    kept: _Kept  # the config's own record, read-only
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

    The alpha-free stages run on the config's first run only (`_kept`).
    """
    rejected: list[ReportWarning] = []
    screening = None
    if survey is not None:
        screening = screen_stage(cfg, survey)
        in_hierarchy = set(cfg.hierarchy.indicator_ids())
        for d in screening.result.rejected:
            if d.indicator in in_hierarchy:
                rejected.append(
                    ReportWarning(
                        "screening-rejected-in-hierarchy",
                        f"indicator {d.indicator!r} was rejected by screening "
                        f"but is still in the hierarchy and keeps its weight",
                    )
                )

    kept = _kept(cfg, allow_inconsistent)
    if kept.ahp.warnings and not allow_inconsistent:  # kept by a run that allowed them
        with error_prefix("ahp"):
            raise ValidationError(kept.ahp.warnings[0].message)
    warnings = [*kept.warnings, *rejected, *kept.ahp.warnings]

    # Weights and vectors keep alpha last, so each step runs over the contiguous grid.
    criterion = blend(*kept.criterion, alphas)
    first = kept.first
    with error_prefix("fuzzy"):
        if first is None:  # only fused-both blends the indicator weights
            w = blend(*kept.indicator, alphas)
            total = w[kept.slots[0]] + 0.0  # each adds left to right from 0.0, as float_sum
            for rows, k in zip(kept.slots[1:], kept.sizes[1:]):
                total[:k] += w[rows]
            if total.min() <= 0:  # a NaN total passes, as NaN <= 0 is false
                raise ValidationError("degenerate weight vector: all entries zero")
            w /= total.take(kept.row_vector, axis=0)
            first = first_level(w, kept.membership, cfg.operator, kept.sizes)[kept.back]
        second = second_level(criterion, first, cfg.operator)

    return _Run(warnings, screening, kept, criterion, first, second)


def run_pipeline(
    cfg: ProjectConfig,
    survey: SurveyRound | None = None,
    allow_inconsistent: bool = False,
) -> EvaluationReport:
    """Run every stage on one config and collect the full report.

    The report holds the config's kept AHP section itself, read-only.
    """
    run = _evaluate(cfg, survey, allow_inconsistent, np.array([cfg.alpha], dtype=np.float64))
    ahp = run.kept.ahp
    blended = blend(*run.kept.indicator, np.array([cfg.alpha]))[:, 0].tolist()
    indicator = dict(zip(run.kept.indicators, blended))  # in row order
    grades = cfg.membership.scale.labels
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
        final = verdict(second, cfg.membership.scale)
    return EvaluationReport(
        goal=cfg.hierarchy.goal_name,
        grades=grades,
        screening=run.screening,
        ahp=ahp,
        criterion_objective=run.kept.criterion_objective,
        criterion_comprehensive=WeightVector(
            dict(zip(ahp.criterion.ids, run.criterion[:, 0].tolist()))
        ),
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


def sweep_alpha(
    cfg: ProjectConfig, grid: Iterable[float], allow_inconsistent: bool = False
) -> AlphaSweep:
    """Second-level vectors and verdicts over the whole grid, sorted by alpha.

    Every stage but screening runs once, with fusion, both fuzzy levels and
    the verdict batched over the grid; the stages that ignore alpha run on
    the config's first run only. Each row's second-level vector and
    verdict equal those of `run_pipeline` at that alpha exactly; grades are in
    the order of `cfg.membership.scale`, as everywhere in a run.

    The grid may be any iterable of real numbers, or a 1-D numeric numpy
    array. An empty grid raises a ValidationError, and so does a value that
    `alpha_floats` rejects: a str, None or bool, or a value outside [0, 1]
    (the first in input order).
    """
    # Stable, like `sorted`: equal values (0.0 and -0.0) keep their order.
    alphas = np.sort(alpha_floats(grid, "sweep grid value"), kind="stable")
    if not alphas.size:
        raise ValidationError("sweep grid is empty")
    second = _evaluate(cfg, None, allow_inconsistent, alphas).second.T
    return AlphaSweep(alphas, second, cfg.membership.scale)


def emit_report(report: EvaluationReport, format: str) -> str:
    """Render a report as 'json' (full precision) or 'markdown' (4 decimals)."""
    if format == "json":
        return json_text(report.to_json_dict())
    if format in ("markdown", "md"):
        return render_markdown(report)
    raise ValidationError(f"unknown report format {format!r}; expected json or markdown")
