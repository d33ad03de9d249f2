"""Multi-criteria site evaluation.

Pipeline stages: expert/user survey screening, subjective weights from
pairwise-comparison matrices with consistency checks, objective weights from
information entropy, convex weight fusion, and two-level fuzzy comprehensive
evaluation producing a graded verdict.
"""
from .ahp import (
    ConsistencyReport,
    JudgmentMatrix,
    derive_weights,
    parse_ratio,
    ri_lookup,
    synthesize_global,
)
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
    Response,
    ScreeningCriteria,
    ScreeningResult,
    SurveyRound,
    round_statistics,
    screen,
    weighted_full_mark_rate,
)
from .entropy import DecisionMatrix, column_shares, entropy_weights, information_entropy
from .fusion import fuse
from .fuzzy import FuzzyVector, Verdict, first_level, second_level, verdict
from .ingest import ingest_survey, read_decision_matrix
from .pipeline import (
    AlphaSweep,
    EvaluationReport,
    ProjectConfig,
    ReportWarning,
    SweepRow,
    emit_report,
    load_config,
    run_pipeline,
    sweep_alpha,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaSweep",
    "ConsistencyReport",
    "Criterion",
    "DecisionMatrix",
    "EvaluationReport",
    "FuzzyVector",
    "GradeScale",
    "Indicator",
    "IndicatorHierarchy",
    "IndicatorStats",
    "JudgmentMatrix",
    "MembershipMatrix",
    "ProjectConfig",
    "ReportWarning",
    "RespondentClass",
    "Response",
    "ScreeningCriteria",
    "ScreeningResult",
    "SurveyRound",
    "SweepRow",
    "ValidationError",
    "Verdict",
    "WeightVector",
    "column_shares",
    "derive_weights",
    "emit_report",
    "entropy_weights",
    "first_level",
    "fuse",
    "information_entropy",
    "ingest_survey",
    "load_config",
    "parse_ratio",
    "read_decision_matrix",
    "ri_lookup",
    "round_statistics",
    "run_pipeline",
    "screen",
    "second_level",
    "sweep_alpha",
    "synthesize_global",
    "validate_hierarchy",
    "verdict",
    "weighted_full_mark_rate",
]
