"""Command-line interface: parses arguments and dispatches, nothing else.

Subcommands cover the individual stages (screen, ahp, entropy, fuse) and the
orchestrated runs (evaluate, sweep-alpha). Each command returns a JSON payload
and a Markdown renderer built by `report`; `main` stamps `schema_version`,
picks the format and writes to stdout or `--output`. Exit codes: 0 on
success, 1 when input data fails validation, a file cannot be read or
written, or the reader closes stdout early (silently), 2 on usage errors.
"""
from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from .config import POLICIES, read_weight_file
from .core import ValidationError, WeightVector, error_prefix
from .entropy import entropy_weights
from .fusion import fuse
from .fuzzy import OPERATORS
from .ingest import ingest_survey, read_decision_matrix
from .pipeline import ahp_stage, load_config, run_pipeline, screen_stage, sweep_alpha
from .report import (
    SCHEMA_VERSION,
    ahp_to_json_dict,
    json_text,
    markdown_page,
    render_ahp_markdown,
    render_markdown,
    render_sweep_markdown,
    screening_table,
    screening_to_json_dict,
    sweep_to_json_dict,
    weights_table,
)

# The finest `--step`, 1,000,001 points. A finer one builds a huge grid (below
# 5e-11 its rounding even repeats alphas), so it is refused before building.
MIN_SWEEP_STEP = 1e-6

# A command's result: its JSON payload and a renderer of its Markdown.
Result = tuple[Mapping[str, object], Callable[[], str]]


def _cmd_screen(args: argparse.Namespace) -> Result:
    cfg = load_config(args.config)
    if args.override:
        extra = {tok.strip() for tok in args.override.split(",") if tok.strip()}
        cfg = replace(
            cfg, screening=replace(cfg.screening, overrides=cfg.screening.overrides | extra)
        )
    survey = ingest_survey(args.survey, cfg.classes, round_index=args.round)
    section = screen_stage(cfg, survey)
    payload = {"round_index": survey.round_index, **screening_to_json_dict(section)}
    return payload, lambda: markdown_page("Screening", screening_table(section))


def _cmd_ahp(args: argparse.Namespace) -> Result:
    ahp = ahp_stage(load_config(args.config), args.allow_inconsistent)
    for w in ahp.warnings:  # stderr, so the report on stdout stays the same
        print(f"warning: {w.code}: {w.message}", file=sys.stderr)
    return ahp_to_json_dict(ahp), lambda: render_ahp_markdown(ahp)


def _cmd_entropy(args: argparse.Namespace) -> Result:
    matrix = read_decision_matrix(args.matrix)
    with error_prefix("entropy"):
        weights = entropy_weights(matrix)
    return {"weights": weights.as_dict()}, lambda: markdown_page(
        "Entropy weights", weights_table(weights)
    )


def _cmd_fuse(args: argparse.Namespace) -> Result:
    subjective = read_weight_file(args.subjective)
    objective = read_weight_file(args.objective)
    with error_prefix("fuse"):
        fused = WeightVector(
            dict(zip(subjective.ids, fuse(subjective, objective, [args.alpha])[0].tolist()))
        )
    return {"alpha": args.alpha, "fused": fused.as_dict()}, lambda: markdown_page(
        f"Fused weights (alpha = {args.alpha:g})", weights_table(fused)
    )


def _cmd_evaluate(args: argparse.Namespace) -> Result:
    cfg = load_config(args.config).with_overrides(
        alpha=args.alpha, operator=args.operator, weights_policy=args.weights_policy
    )
    survey = None
    if args.survey:
        survey = ingest_survey(args.survey, cfg.classes)
    report = run_pipeline(cfg, survey=survey, allow_inconsistent=args.allow_inconsistent)
    return report.to_json_dict(), lambda: render_markdown(report)


def _parse_grid(args: argparse.Namespace) -> list[float]:
    if args.grid is not None:
        try:
            return [float(tok) for tok in args.grid.split(",") if tok.strip()]
        except ValueError:
            raise ValidationError(f"invalid sweep grid {args.grid!r}") from None
    step = args.step
    if not 0.0 < step <= 1.0:
        raise ValidationError(f"sweep step must be in (0, 1], got {step}")
    if step < MIN_SWEEP_STEP:
        raise ValidationError(f"sweep step must be at least {MIN_SWEEP_STEP:g}, got {step}")
    values = []
    k = 0
    while True:
        v = round(k * step, 10)
        if v > 1.0 + 1e-9:
            break
        values.append(min(v, 1.0))
        k += 1
    return values


def _cmd_sweep(args: argparse.Namespace) -> Result:
    cfg = load_config(args.config).with_overrides(
        operator=args.operator, weights_policy=args.weights_policy
    )
    grid = _parse_grid(args)
    rows = sweep_alpha(cfg, grid, allow_inconsistent=args.allow_inconsistent)
    return sweep_to_json_dict(rows), lambda: render_sweep_markdown(rows)


# Options that more than one command takes, each defined once.
_SHARED_OPTIONS: dict[str, dict[str, Any]] = {
    "--config": {"required": True, "help": "project config JSON"},
    "--operator": {
        "choices": list(OPERATORS),
        "help": "fuzzy composition operator (min-max is the max-min composition)",
    },
    "--weights-policy": {
        "choices": list(POLICIES),
        "help": "paper: relative weights at level one, fused at level two; "
        "fused-both: fused weights at both levels",
    },
    "--allow-inconsistent": {
        "action": "store_true",
        "help": "downgrade CR >= 0.1 from an error to a warning",
    },
    "--format": {"choices": ["json", "md"], "default": "json", "help": "output format"},
    "--output": {"help": "write output to this file instead of stdout"},
}


def _add_shared(sub: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        sub.add_argument(name, **_SHARED_OPTIONS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="siteval",
        description="Site-evaluation pipeline: survey screening, AHP and entropy "
        "weighting, weight fusion, fuzzy comprehensive grading.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("screen", help="survey round statistics and indicator screening")
    p.add_argument("--survey", required=True, help="survey CSV file")
    _add_shared(p, "--config")
    p.add_argument("--round", type=int, default=1, help="round index of the survey file")
    p.add_argument(
        "--override", help="comma-separated indicator ids to force-keep despite failures"
    )
    p.set_defaults(func=_cmd_screen)

    p = subs.add_parser("ahp", help="judgment-matrix weights and consistency checks")
    _add_shared(p, "--config", "--allow-inconsistent")
    p.set_defaults(func=_cmd_ahp)

    p = subs.add_parser("entropy", help="entropy weights from a decision-matrix CSV")
    p.add_argument("--matrix", required=True, help="decision matrix CSV file")
    p.set_defaults(func=_cmd_entropy)

    p = subs.add_parser("fuse", help="blend subjective and objective weight files")
    p.add_argument("--subjective", required=True, help="JSON file of id -> weight")
    p.add_argument("--objective", required=True, help="JSON file of id -> weight")
    p.add_argument("--alpha", type=float, default=0.5, help="blend parameter in [0, 1]")
    p.set_defaults(func=_cmd_fuse)

    p = subs.add_parser("evaluate", help="run the full pipeline from a config")
    _add_shared(p, "--config")
    p.add_argument("--survey", help="optional survey CSV for the screening stage")
    p.add_argument("--alpha", type=float, help="override the config alpha")
    _add_shared(p, "--operator", "--weights-policy", "--allow-inconsistent")
    p.set_defaults(func=_cmd_evaluate)

    p = subs.add_parser("sweep-alpha", help="verdict sensitivity across alpha values")
    _add_shared(p, "--config")
    p.add_argument("--grid", help="comma-separated alpha values, e.g. 0,0.5,1")
    p.add_argument("--step", type=float, default=0.1, help="grid step when --grid is not given")
    _add_shared(p, "--operator", "--weights-policy", "--allow-inconsistent")
    p.set_defaults(func=_cmd_sweep)

    for sub in subs.choices.values():
        _add_shared(sub, "--format", "--output")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command and write its output; the only place that writes a result."""
    args = build_parser().parse_args(argv)
    try:
        payload, render = args.func(args)
        if args.format == "json":
            # The report and sweep payloads carry the stamp already; it stays first.
            text = json_text({"schema_version": SCHEMA_VERSION, **payload})
        else:
            text = render()
        if args.output:
            try:
                Path(args.output).write_text(text + "\n", encoding="utf-8")
            except OSError as exc:
                raise ValidationError(
                    f"output file {args.output}: cannot write: {exc.strerror}"
                ) from exc
        else:
            try:
                print(text)
                sys.stdout.flush()
            except BrokenPipeError:
                # The reader closed stdout early. Point it at devnull so the
                # interpreter's flush at exit does not raise again.
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                return 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
