"""Span tracing from outside the program, for the traced benchmark run.

`Tracer.install()` replaces each function in TARGETS on every loaded
`siteval.*` module that binds it, and wraps the listed `ProjectConfig`
methods on the class. Each call records a span (name, start, end, parent)
in memory; `uninstall()` puts the originals back. A target that cannot be
found is listed in `missing` instead of being measured as zero, so a later
move of a function out of its module shows up in the traced run.
"""
from __future__ import annotations

import functools
import gzip
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute) pairs; "Class.method" names a method on a class in that module.
TARGETS = (
    ("pipeline", "load_config"),
    ("pipeline", "ProjectConfig.from_dict"),
    ("pipeline", "ProjectConfig.validate"),
    ("pipeline", "ProjectConfig.config_hash"),
    ("pipeline", "run_pipeline"),
    ("pipeline", "emit_report"),
    ("pipeline", "sweep_alpha"),
    ("ahp", "derive_weights"),
    ("ahp", "synthesize_global"),
    ("entropy", "entropy_weights"),
    ("fusion", "fuse"),
    ("fuzzy", "first_level"),
    ("fuzzy", "second_level"),
    ("fuzzy", "verdict"),
    ("ingest", "ingest_survey"),
    ("delphi", "round_statistics"),
    ("delphi", "screen"),
)


class Tracer:
    """Wrappers for TARGETS that record spans; single-threaded, like the benchmark."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, int, int] | None] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        by_operator = name == "pipeline.sweep_alpha"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = f"{name}.{args[0].operator}" if by_operator else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx] = (label, t0, clock(), parent)
                stack.pop()

        return traced

    def install(self) -> None:
        self.missing = []
        modules = [m for k, m in list(sys.modules.items())
                   if k == "siteval" or k.startswith("siteval.")]
        for module, attr in TARGETS:
            name = f"{module}.{attr.rsplit('.', 1)[-1]}"
            home = sys.modules.get(f"siteval.{module}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name, None)
                raw = vars(cls).get(meth) if isinstance(cls, type) else None
                if raw is None:
                    self.missing.append(name)
                    continue
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._restore.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            fn = getattr(home, attr, None)
            if not callable(fn):
                self.missing.append(name)
                continue
            new = self._wrap(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._restore.append((mod, key, fn))
                        setattr(mod, key, new)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def mark(self) -> int:
        return len(self.spans)

    def write(self, path: Path, ops: list[tuple[int, int]]) -> None:
        """Gzipped CSV, one line per span: op, span and parent index, name, start and end in ns."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("op,span,parent,name,start_ns,end_ns\n")
            for op, (lo, hi) in enumerate(ops):
                for idx in range(lo, hi):
                    name, t0, t1, parent = self.spans[idx]
                    fh.write(f"{op},{idx},{parent},{name},{t0},{t1}\n")


def per_op(spans: list, lo: int, hi: int) -> dict[str, float]:
    """Per-name totals for the spans of one op: `<name>_ms`, `<name>_calls`, `<name>_self_ms`.

    Self time is a span's duration minus the time its direct children cover;
    calls are single-threaded, so children never overlap one another.
    """
    child_ns: dict[int, int] = defaultdict(int)
    for idx in range(lo, hi):
        _, t0, t1, parent = spans[idx]
        if parent >= lo:
            child_ns[parent] += t1 - t0
    out: dict[str, float] = defaultdict(float)
    for idx in range(lo, hi):
        name, t0, t1, _ = spans[idx]
        out[f"{name}_ms"] += (t1 - t0) / 1e6
        out[f"{name}_self_ms"] += (t1 - t0 - child_ns[idx]) / 1e6
        out[f"{name}_calls"] += 1
    return out
