"""siteval benchmark: one workload per call, outside-in through the public API.

    python3 perfbench/run.py --workload fixture-evaluate --seed 1 --seconds 30 --trace 0

Run from anywhere; paths are taken relative to this file's checkout. With
`--trace 0` the last stdout line is a JSON object with the end-to-end
metrics, with `--trace 1` the per-layer metrics of a traced run. See
perfbench/README.md for the workloads, metrics and reference figures.
"""
from __future__ import annotations

import argparse
import json
import os
import pickle
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import gen
import hostspeed

START = time.monotonic()
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "tests" / "fixtures"
OUT = ROOT / "perfbench" / "_out"

# Percentile reported as op_tail_ms. For the two slow ops (75-140 samples a
# run) p85 keeps at least ten samples beyond it. fixture-evaluate has ~5500
# samples, but its p95 and above spread 11-20% across runs from ms-long
# bursts of host noise, so it reports p90 (README, "Metrics").
TAIL_PCT = {"fixture-evaluate": 90.0, "synthetic-evaluate": 85.0, "fixture-sweep": 85.0}
SETUP_RUNS = 6  # setup-only interpreters per run; the measuring one makes seven samples
SETUP_PROBES = 20
DEADLINE_S = 170  # the whole run, children included, ends within this or fails

E2E_UNITS = {"op_p50_ms": "ms", "op_tail_ms": "ms", "ops_per_s": "1/s",
             "peak_rss_mib": "MiB", "setup_s": "s"}

LAYER_TIMES = (
    "pipeline.config_hash", "pipeline.load_config", "pipeline.from_dict", "pipeline.validate",
    "ahp.derive_weights", "ahp.synthesize_global", "entropy.entropy_weights", "fusion.fuse",
    "fuzzy.first_level", "fuzzy.second_level", "fuzzy.verdict",
    "pipeline.sweep_alpha.weighted-average", "pipeline.sweep_alpha.min-max",
    "pipeline.emit_report", "ingest.ingest_survey", "delphi.round_statistics", "delphi.screen",
)
LAYER_CALLS = ("pipeline.config_hash", "pipeline.validate", "ahp.derive_weights",
               "fusion.fuse", "fuzzy.first_level")
# (metric, span it is read from, unit)
LAYER_METRICS = (
    [(f"{n}_ms", n, "ms") for n in LAYER_TIMES]
    + [(f"{n}_calls", n, "count") for n in LAYER_CALLS]
    + [("pipeline.run_pipeline_self_ms", "pipeline.run_pipeline", "ms")]
)


def run_worker(mode: str, workload: str, config: Path, survey: Path, oracle: Path,
           seconds: int, extra: tuple[str, ...] = ()) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--mode", mode,
           "--workload", workload, "--config", str(config), "--survey", str(survey),
           "--oracle", str(oracle), "--src", str(SRC), "--seconds", str(seconds), *extra]
    left = DEADLINE_S - (time.monotonic() - START)
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=max(1, left))
    except subprocess.TimeoutExpired:
        sys.exit(f"run: {mode} worker for {workload} did not finish within {DEADLINE_S} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit(f"run: {mode} worker for {workload} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    ap = argparse.ArgumentParser(description="siteval benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(TAIL_PCT))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "siteval" / "__init__.py").is_file():
        sys.exit(f"run: no siteval source at {SRC / 'siteval'}")
    work = OUT / args.workload
    work.mkdir(parents=True, exist_ok=True)
    if args.workload == "synthetic-evaluate":
        gen.generate(args.seed, work)
        config, survey = work / "config.json", work / "survey.csv"
    else:
        config, survey = FIXTURES / "campus_bikeshare.json", FIXTURES / "survey_round2.csv"
    if not (config.is_file() and survey.is_file()):
        sys.exit(f"run: inputs {config} or {survey} are missing")

    case = checks.Case(config)
    survey_oracle = checks.Survey(survey, case)
    oracle = work / "oracle.pickle"
    with open(oracle, "wb") as fh:
        pickle.dump((case, survey_oracle), fh)
    run = (args.workload, config, survey, oracle, args.seconds)

    if args.trace:
        res = run_worker("trace", *run, extra=("--spans", str(work / "spans.csv.gz")))
        layer = res["layer"]
        evaluate = args.workload.endswith("-evaluate")
        # A target the tracer could not find is reported missing, never as zero.
        missing = res["missing"]
        if missing:
            print(f"run: traced targets not found: {', '.join(missing)}", file=sys.stderr)
        metrics = {
            name: (layer.get(name, 0.0), unit) for name, span, unit in LAYER_METRICS
            if not any(span == m or span.startswith(m + ".") for m in missing)
        }
        metrics.update({
            "untraced.op_p50_ms": (layer["untraced.op_p50_ms"], "ms"),
            "traced.op_p50_ms": (layer["traced.op_p50_ms"], "ms"),
            "trace.overhead_pct": (layer["trace.overhead_pct"], "%"),
            "entropy.cells": (case.entropy_cells if evaluate else 0, "count"),
            "ingest.responses": (survey_oracle.responses if evaluate else 0, "count"),
            "pipeline.report_bytes": (res.get("report_bytes", 0), "bytes"),
        })
    else:
        # Each worker's set-up is scaled by probes taken here just before it
        # starts: a fresh interpreter's first kernel runs are too cold to judge by.
        probe = hostspeed.Probe()
        setups: list[tuple[float, float]] = []

        def timed_worker(mode: str, *extra: str) -> dict:
            for _ in range(SETUP_PROBES):
                probe.sample(force=True)
            factor = hostspeed.REFERENCE_S / statistics.median(probe.took[-SETUP_PROBES:])
            res = run_worker(mode, *run, extra=extra)
            setups.append((res["setup_s"] * factor, res["setup_s"]))
            return res

        for _ in range(SETUP_RUNS):
            timed_worker("setup")
        res = timed_worker("measure", "--tail-pct", str(TAIL_PCT[args.workload]))
        res["setup_s"] = statistics.median(scaled for scaled, _ in setups)
        raw_setup = statistics.median(raw for _, raw in setups)
        print(f"raw wall: op_p50_ms={res['raw_op_p50_ms']:.4f} setup_s={raw_setup:.4f} "
              f"probe kernel_ms={res['kernel_ms']:.4f}")
        metrics = {k: (res[k], unit) for k, unit in E2E_UNITS.items()}

    for line in res["failures"]:
        print(f"run: failure: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
