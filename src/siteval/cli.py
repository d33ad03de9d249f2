"""Command-line interface.

Subcommands cover the individual stages (screen, ahp, entropy, fuse) and the
orchestrated runs (evaluate, sweep-alpha). Exit codes: 0 on success, 1 when
input data fails validation, 2 on usage errors.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path
from typing import Sequence

from .core import ValidationError, WeightVector
from .entropy import entropy_weights
from .fusion import fuse
from .ingest import ingest_survey, read_decision_matrix
from .pipeline import (
    SCHEMA_VERSION,
    OPERATORS,
    POLICIES,
    _md_table,
    _number,
    _object,
    _read_json,
    ahp_stage,
    emit_report,
    load_config,
    render_sweep_markdown,
    run_pipeline,
    screen_stage,
    screening_table,
    screening_to_json_dict,
    sweep_alpha,
    sweep_to_json_dict,
)


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)


def _weights_table(weights: WeightVector) -> str:
    return "\n".join(_md_table(["Id", "Weight"], [[k, weights[k]] for k in weights.ids]))


def _load_weight_file(path: str) -> WeightVector:
    data = _object(_read_json(path, "weight file"), f"weight file {path}")
    return WeightVector({str(k): _number(v, f"weight file {path}: {k}") for k, v in data.items()})


def _cmd_screen(args: argparse.Namespace) -> int:
    cfg = load_config(args.config)
    if args.override:
        extra = {tok.strip() for tok in args.override.split(",") if tok.strip()}
        cfg = replace(
            cfg, screening=replace(cfg.screening, overrides=cfg.screening.overrides | extra)
        )
    survey = ingest_survey(args.survey, cfg.classes, round_index=args.round)
    section = screen_stage(cfg, survey)
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "round_index": survey.round_index,
            **screening_to_json_dict(section),
        }
        _emit(json.dumps(payload, indent=2), args.output)
    else:
        _emit("\n".join(["# Screening", ""] + screening_table(section)), args.output)
    return 0


def _cmd_ahp(args: argparse.Namespace) -> int:
    ahp = ahp_stage(load_config(args.config), args.allow_inconsistent)
    for w in ahp.warnings:  # stderr, so the report on stdout stays the same
        print(f"warning: {w.code}: {w.message}", file=sys.stderr)
    nodes = {"goal": ahp.criterion, **ahp.relative}
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "nodes": {
                node: {"weights": w.as_dict(), "consistency": asdict(ahp.consistency[node])}
                for node, w in nodes.items()
            },
            "global_subjective": ahp.indicator.as_dict(),
        }
        _emit(json.dumps(payload, indent=2), args.output)
    else:
        lines = ["# Subjective weights", ""]
        for node, w in nodes.items():
            rep = ahp.consistency[node]
            lines += [
                f"## {node}",
                _weights_table(w),
                "",
                f"lambda_max {rep.lambda_max:.4f}, CI {rep.ci:.4f}, "
                f"RI {rep.ri:.4f}, CR {rep.cr:.4f}",
                "",
            ]
        lines.append("## Global indicator weights")
        lines.append(_weights_table(ahp.indicator))
        _emit("\n".join(lines), args.output)
    return 0


def _cmd_entropy(args: argparse.Namespace) -> int:
    matrix = read_decision_matrix(args.matrix)
    weights = entropy_weights(matrix)
    if args.format == "json":
        payload = {"schema_version": SCHEMA_VERSION, "weights": weights.as_dict()}
        _emit(json.dumps(payload, indent=2), args.output)
    else:
        _emit("# Entropy weights\n\n" + _weights_table(weights), args.output)
    return 0


def _cmd_fuse(args: argparse.Namespace) -> int:
    subjective = _load_weight_file(args.subjective)
    objective = _load_weight_file(args.objective)
    fused = WeightVector(
        dict(zip(subjective.ids, fuse(subjective, objective, [args.alpha])[0].tolist()))
    )
    if args.format == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "alpha": args.alpha,
            "fused": fused.as_dict(),
        }
        _emit(json.dumps(payload, indent=2), args.output)
    else:
        _emit(f"# Fused weights (alpha = {args.alpha:g})\n\n" + _weights_table(fused), args.output)
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = load_config(args.config).with_overrides(
        alpha=args.alpha, operator=args.operator, weights_policy=args.weights_policy
    )
    survey = None
    if args.survey:
        survey = ingest_survey(args.survey, cfg.classes)
    report = run_pipeline(cfg, survey=survey, allow_inconsistent=args.allow_inconsistent)
    _emit(emit_report(report, args.format), args.output)
    return 0


def _parse_grid(args: argparse.Namespace) -> list[float]:
    if args.grid:
        try:
            return [float(tok) for tok in args.grid.split(",") if tok.strip()]
        except ValueError:
            raise ValidationError(f"invalid sweep grid {args.grid!r}") from None
    step = args.step
    if not 0.0 < step <= 1.0:
        raise ValidationError(f"sweep step must be in (0, 1], got {step}")
    values = []
    k = 0
    while True:
        v = round(k * step, 10)
        if v > 1.0 + 1e-9:
            break
        values.append(min(v, 1.0))
        k += 1
    return values


def _cmd_sweep(args: argparse.Namespace) -> int:
    cfg = load_config(args.config).with_overrides(
        operator=args.operator, weights_policy=args.weights_policy
    )
    grid = _parse_grid(args)
    rows = sweep_alpha(cfg, grid, allow_inconsistent=args.allow_inconsistent)
    if args.format == "json":
        _emit(json.dumps(sweep_to_json_dict(rows), indent=2), args.output)
    else:
        _emit(render_sweep_markdown(rows), args.output)
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=["json", "md"], default="json", help="output format")
    sub.add_argument("--output", help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siteval",
        description="Site-evaluation pipeline: survey screening, AHP and entropy "
        "weighting, weight fusion, fuzzy comprehensive grading.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_screen = subs.add_parser("screen", help="survey round statistics and indicator screening")
    p_screen.add_argument("--survey", required=True, help="survey CSV file")
    p_screen.add_argument("--config", required=True, help="project config JSON")
    p_screen.add_argument("--round", type=int, default=1, help="round index of the survey file")
    p_screen.add_argument(
        "--override", help="comma-separated indicator ids to force-keep despite failures"
    )
    _add_common(p_screen)
    p_screen.set_defaults(func=_cmd_screen)

    p_ahp = subs.add_parser("ahp", help="judgment-matrix weights and consistency checks")
    p_ahp.add_argument("--config", required=True, help="project config JSON")
    p_ahp.add_argument(
        "--allow-inconsistent",
        action="store_true",
        help="report matrices with CR >= 0.1 instead of failing",
    )
    _add_common(p_ahp)
    p_ahp.set_defaults(func=_cmd_ahp)

    p_entropy = subs.add_parser("entropy", help="entropy weights from a decision-matrix CSV")
    p_entropy.add_argument("--matrix", required=True, help="decision matrix CSV file")
    _add_common(p_entropy)
    p_entropy.set_defaults(func=_cmd_entropy)

    p_fuse = subs.add_parser("fuse", help="blend subjective and objective weight files")
    p_fuse.add_argument("--subjective", required=True, help="JSON file of id -> weight")
    p_fuse.add_argument("--objective", required=True, help="JSON file of id -> weight")
    p_fuse.add_argument("--alpha", type=float, default=0.5, help="blend parameter in [0, 1]")
    _add_common(p_fuse)
    p_fuse.set_defaults(func=_cmd_fuse)

    p_eval = subs.add_parser("evaluate", help="run the full pipeline from a config")
    p_eval.add_argument("--config", required=True, help="project config JSON")
    p_eval.add_argument("--survey", help="optional survey CSV for the screening stage")
    p_eval.add_argument("--alpha", type=float, help="override the config alpha")
    p_eval.add_argument(
        "--operator",
        choices=list(OPERATORS),
        help="fuzzy composition operator (min-max is the max-min composition)",
    )
    p_eval.add_argument(
        "--weights-policy",
        choices=list(POLICIES),
        help="paper: relative weights at level one, fused at level two; "
        "fused-both: fused weights at both levels",
    )
    p_eval.add_argument(
        "--allow-inconsistent",
        action="store_true",
        help="downgrade CR >= 0.1 from an error to a warning",
    )
    _add_common(p_eval)
    p_eval.set_defaults(func=_cmd_evaluate)

    p_sweep = subs.add_parser("sweep-alpha", help="verdict sensitivity across alpha values")
    p_sweep.add_argument("--config", required=True, help="project config JSON")
    p_sweep.add_argument("--grid", help="comma-separated alpha values, e.g. 0,0.5,1")
    p_sweep.add_argument(
        "--step", type=float, default=0.1, help="grid step when --grid is not given"
    )
    p_sweep.add_argument(
        "--operator",
        choices=list(OPERATORS),
        help="fuzzy composition operator (min-max is the max-min composition)",
    )
    p_sweep.add_argument(
        "--weights-policy", choices=list(POLICIES), help="weight-level policy"
    )
    p_sweep.add_argument("--allow-inconsistent", action="store_true")
    _add_common(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
