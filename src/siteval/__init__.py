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
from .config import ProjectConfig
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
)
from .entropy import DecisionMatrix, entropy_weights, information_entropy
from .fusion import fuse
from .fuzzy import FuzzyVector, Verdict, verdict
from .ingest import ingest_survey, read_decision_matrix
from .pipeline import emit_report, load_config, run_pipeline, sweep_alpha
from .report import TOOL_VERSION as __version__
from .report import AlphaSweep, EvaluationReport, ReportWarning, SweepRow

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
    "derive_weights",
    "emit_report",
    "entropy_weights",
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
    "sweep_alpha",
    "synthesize_global",
    "validate_hierarchy",
    "verdict",
]
