"""One workload in a fresh interpreter: set up, warm up, then a timed closed loop.

Started by run.py, never by hand. The clock for `setup_s` starts before
`import siteval` (numpy included) and stops after the load and one warm-up op.
Every op's output is checked against the oracles pickled by run.py, outside
the timed region. Op times are scaled to the reference host speed of
`hostspeed.py`, and the raw wall figures are reported beside them; run.py
scales `setup_s` with probes of its own. `--mode setup` stops after the
warm-up op; `--mode trace` alternates untraced and traced blocks and reports
per-layer figures.
"""
from __future__ import annotations

import argparse
import json
import math
import pickle
import resource
import statistics
import sys
import time
from pathlib import Path

import hostspeed

GRID = [i / 1000 for i in range(1001)]
TRACE_BLOCK_S = 1.0


def make_op(siteval, workload: str, config: Path, survey: Path):
    """The op of a workload. The sweep loads its config here, as part of set-up."""
    if workload.endswith("-evaluate"):
        def op():
            cfg = siteval.load_config(config)
            rows = siteval.ingest_survey(survey, cfg.classes)
            report = siteval.run_pipeline(cfg, rows)
            return siteval.emit_report(report, "json"), siteval.emit_report(report, "markdown")

        return op

    base = siteval.load_config(config)
    wa = base.with_overrides(operator="weighted-average", weights_policy="paper")
    mm = base.with_overrides(operator="min-max", weights_policy="fused-both")

    def op():
        return siteval.sweep_alpha(wa, GRID), siteval.sweep_alpha(mm, GRID)

    return op


def sweep_rows(rows, grades: list[str]) -> list[tuple[float, list[float], str, float, bool]]:
    """`sweep_alpha` rows as plain (alpha, second_level, grade, membership, tied)."""
    return [(r.alpha, [r.second_level[g] for g in grades], r.verdict.grade,
             r.verdict.membership, r.verdict.tied) for r in rows]


def make_check(workload: str, oracle_path: Path):
    """A function that checks one op's output and returns its failures."""
    import checks

    with open(oracle_path, "rb") as fh:
        case, survey = pickle.load(fh)
    reference: list[str] = []

    if workload.endswith("-evaluate"):
        def check(out) -> list[str]:
            text, md = out
            if not reference:
                reference.append(text)
            elif text != reference[0]:
                return ["report.bytes: JSON differs from the first op on equal input"]
            report = json.loads(text)
            return checks.check_report(report, case, survey) + checks.check_markdown(md, report)

        return check

    def check(out) -> list[str]:
        wa, mm = (sweep_rows(rows, case.grades) for rows in out)
        return (checks.check_sweep(wa, GRID, case, "weighted-average", "paper")
                + checks.check_sweep(mm, GRID, case, "min-max", "fused-both"))

    return check


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100 * len(sorted_values)) - 1)]


def run_block(op, check, seconds: float, probe, times: list[tuple[float, float]],
              failures: list[str], tracer=None, ops: list[tuple[int, int]] | None = None) -> None:
    """Closed loop for `seconds` wall seconds, at least one op.

    Appends (midpoint, wall seconds) per op; the probe and the check run
    between ops, outside the timed region.
    """
    clock = time.perf_counter
    end = clock() + seconds
    while True:
        probe.sample()
        lo = tracer.mark() if tracer else 0
        t0 = clock()
        try:
            out = op()
        except Exception as exc:  # a failed op is counted, and the loop goes on
            out = None
            failures.append(f"op raised {type(exc).__name__}: {exc}")
        t1 = clock()
        times.append(((t0 + t1) / 2, t1 - t0))
        if tracer:
            ops.append((lo, tracer.mark()))
        if out is not None:
            problems = check(out)
            if problems:
                failures.append("; ".join(problems[:3]))
        if clock() >= end:
            probe.sample(force=True)
            return


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--config", type=Path, required=True)
    ap.add_argument("--survey", type=Path, required=True)
    ap.add_argument("--oracle", type=Path, required=True)
    ap.add_argument("--src", type=Path, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--tail-pct", type=float)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()

    t0 = time.perf_counter()
    import siteval

    op = make_op(siteval, args.workload, args.config, args.survey)
    first = op()
    setup_s = time.perf_counter() - t0
    if not Path(siteval.__file__).resolve().is_relative_to(args.src.resolve()):
        sys.exit(f"worker: imported siteval from {siteval.__file__}, not from {args.src}")
    result: dict[str, object] = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return

    probe = hostspeed.Probe()
    check = make_check(args.workload, args.oracle)
    warm_failures = [f"warm-up op: {p}" for p in check(first)]
    failures: list[str] = []
    times: list[tuple[float, float]] = []
    if args.workload.endswith("-evaluate"):
        result["report_bytes"] = sum(len(text.encode("utf-8")) for text in first)

    if args.mode == "measure":
        run_block(op, check, args.seconds, probe, times, failures)
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        scaled = sorted(wall * probe.factor(t) for t, wall in times)
        beyond = len(scaled) - math.ceil(args.tail_pct / 100 * len(scaled))
        if beyond < 10:
            print(f"worker: only {beyond} samples beyond p{args.tail_pct:g}", file=sys.stderr)
        result.update(
            op_p50_ms=statistics.median(scaled) * 1e3,
            op_tail_ms=nearest_rank(scaled, args.tail_pct) * 1e3,
            ops_per_s=len(scaled) / sum(scaled),
            peak_rss_mib=peak_kib / 1024,
            raw_op_p50_ms=statistics.median(wall for _, wall in times) * 1e3,
            kernel_ms=probe.median_s() * 1e3,
        )
    else:
        import tracing

        tracer = tracing.Tracer()
        plain: list[tuple[float, float]] = []
        traced: list[tuple[float, float]] = []
        ops: list[tuple[int, int]] = []
        missing: set[str] = set()
        end = time.perf_counter() + args.seconds
        while time.perf_counter() < end:
            run_block(op, check, TRACE_BLOCK_S, probe, plain, failures)
            tracer.install()
            missing.update(tracer.missing)
            try:
                run_block(op, check, TRACE_BLOCK_S, probe, traced, failures, tracer, ops)
            finally:
                tracer.uninstall()
        times = plain + traced
        per_op = []
        for (t, _), (lo, hi) in zip(traced, ops):
            f = probe.factor(t)
            per_op.append({k: v * f if k.endswith("_ms") else v
                           for k, v in tracing.per_op(tracer.spans, lo, hi).items()})
        names = sorted({k for d in per_op for k in d})
        layer = {k: statistics.median(d.get(k, 0.0) for d in per_op) for k in names}
        for name, part in (("untraced", plain), ("traced", traced)):
            layer[f"{name}.op_p50_ms"] = statistics.median(
                wall * probe.factor(t) for t, wall in part) * 1e3
        layer["trace.overhead_pct"] = 100 * (
            layer["traced.op_p50_ms"] / layer["untraced.op_p50_ms"] - 1)
        result.update(layer=layer, missing=sorted(missing), traced_ops=len(ops),
                      kernel_ms=probe.median_s() * 1e3)
        if args.spans:
            tracer.write(args.spans, ops)

    # One-time hash properties, after timing so they touch neither the clock nor peak RSS.
    import checks

    data = json.loads(args.config.read_text(encoding="utf-8"))
    h0 = json.loads(first[0])["provenance"]["config_sha256"] if args.workload.endswith(
        "-evaluate") else siteval.load_config(args.config).config_hash()
    h1 = siteval.ProjectConfig.from_dict(data).config_hash()
    row = data["membership"][next(iter(data["membership"]))]
    grade = max(row, key=row.get)
    row[grade] = row[grade] / 2
    h2 = siteval.ProjectConfig.from_dict(data).config_hash()
    hash_failures = checks.check_hash(h0, h1, h2)

    # A faulty warm-up output or hash property makes every op's output suspect.
    result.update(attempted=len(times),
                  failed=len(times) if warm_failures or hash_failures else len(failures),
                  correct=not (warm_failures or hash_failures or failures),
                  failures=(warm_failures + hash_failures + failures)[:10])
    print(json.dumps(result))


if __name__ == "__main__":
    main()
