"""Independent oracles and output checks for the benchmark.

Nothing here imports siteval. Expected values are computed from the raw
input files with numpy, `fractions` and `statistics`, and each check returns
a list of failures, every one prefixed with the id of the check that failed
(`ahp.weights`, `entropy.weights`, `fuzzy.second_level`, ...). An empty list
means the output passed.
"""
from __future__ import annotations

import csv
import json
import math
import statistics
from fractions import Fraction
from pathlib import Path

import numpy as np

# Saaty's average random index by matrix order.
RANDOM_INDEX = {1: 0.0, 2: 0.0, 3: 0.58, 4: 0.90, 5: 1.12, 6: 1.24, 7: 1.32, 8: 1.41, 9: 1.45}
CR_LIMIT = 0.10
DEFAULT_CLASSES = {"expert": 0.8, "end_user": 0.2}
FULL_MARK_MIN = 4
TIE_TOL = 1e-12

# Power iteration stops at a step below 1e-10, so its weights sit within
# 1e-8 of the eigenvector; everything composed from them inherits that.
EIG_TOL = 1e-8
ENTROPY_TOL = 1e-9
SUM_TOL = 1e-9
AFFINE_TOL = 1e-12
STATS_TOL = 1e-12


def ratio(token: object) -> float:
    """A judgment-matrix entry as written in a config: a number or 'p/q'."""
    return float(Fraction(str(token).strip()))


def eig_oracle(a: np.ndarray) -> tuple[np.ndarray, float, float, float]:
    """Principal eigenvector (sum 1), lambda_max, CI and CR via `numpy.linalg.eig`."""
    vals, vecs = np.linalg.eig(a)
    k = int(np.argmax(vals.real))
    w = np.abs(vecs[:, k].real)
    w = w / w.sum()
    lam = float(vals[k].real)
    n = a.shape[0]
    ci = (lam - n) / (n - 1) if n >= 2 else 0.0
    cr = 0.0 if n <= 2 else ci / RANDOM_INDEX[n]
    return w, lam, ci, cr


def entropy_oracle(x: np.ndarray) -> np.ndarray:
    """Closed-form entropy weights of the columns of a non-negative matrix."""
    p = x / x.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(p > 0, p * np.log(p), 0.0)
    e = -plogp.sum(axis=0) / math.log(x.shape[0])
    d = 1.0 - e
    return d / d.sum()


def compose(weights: np.ndarray, rows: np.ndarray, operator: str) -> np.ndarray:
    """Fuzzy composition for a batch of alphas.

    weights has shape (alphas, n), rows (n, grades) or (alphas, n, grades);
    the result has shape (alphas, grades).
    """
    if rows.ndim == 2:
        rows = rows[None, :, :]
    if operator == "weighted-average":
        return (weights[:, :, None] * rows).sum(axis=1)
    if operator == "min-max":
        return np.minimum(weights[:, :, None], rows).max(axis=1)
    raise ValueError(f"unknown operator {operator!r}")


def verdict_of(vector: list[float], grades: list[str]) -> tuple[str, float, bool]:
    """Max-membership grade; grades within TIE_TOL of the peak tie, best grade wins."""
    peak = max(vector)
    contenders = [g for g, v in zip(grades, vector) if v >= peak - TIE_TOL]
    winner = contenders[0]
    return winner, vector[grades.index(winner)], len(contenders) > 1


class Case:
    """A project config read straight from its JSON file, with its oracle weights."""

    def __init__(self, config_path: Path):
        data = json.loads(Path(config_path).read_text(encoding="utf-8"))
        self.grades = [str(g) for g in data["grades"]]
        self.criteria = [
            (str(c["id"]), [str(i["id"]) for i in c["indicators"]]) for c in data["criteria"]
        ]
        self.indicators = [i for _, kids in self.criteria for i in kids]
        self.alpha = float(data.get("alpha", 0.5))
        self.operator = str(data.get("operator", "weighted-average"))
        self.policy = str(data.get("weights_policy", "paper"))
        self.membership = np.array(
            [[float(data["membership"][i][g]) for g in self.grades] for i in self.indicators]
        )
        self.classes = {
            str(c["label"]): float(c["score_weight"])
            for c in data.get("respondent_classes", [])
        } or dict(DEFAULT_CLASSES)
        sc = data.get("screening", {})
        self.screening = {
            "min_mean": float(sc.get("min_mean", 3.5)),
            "min_full_mark_rate": float(sc.get("min_full_mark_rate", 0.5)),
            "max_cv": float(sc.get("max_cv", 0.25)),
            "min_gcr": sc.get("min_gcr", 3.0),
            "overrides": set(sc.get("overrides", [])),
        }

        self.consistency = {}
        eig = {}
        for node, rows in data["judgment_matrices"].items():
            a = np.array([[ratio(v) for v in row] for row in rows])
            w, lam, ci, cr = eig_oracle(a)
            eig[node] = w
            self.consistency[node] = {"lambda_max": lam, "ci": ci, "cr": cr}
        self.criterion_subjective = eig["goal"]
        self.relative = {cid: eig[cid] for cid, _ in self.criteria}
        self.indicator_subjective = np.concatenate([
            self.criterion_subjective[k] * self.relative[cid]
            for k, (cid, _) in enumerate(self.criteria)
        ])
        if "decision_matrix" in data:
            dm = data["decision_matrix"]
            x = np.array(dm["values"], dtype=float)
            by_id = dict(zip(dm["indicators"], entropy_oracle(x)))
            self.entropy_cells = int(x.size)
        else:
            by_id = {str(k): float(v) for k, v in data["objective_weights"].items()}
            self.entropy_cells = 0
        self.indicator_objective = np.array([by_id[i] for i in self.indicators])
        self.criterion_objective = np.array(
            [sum(by_id[i] for i in kids) for _, kids in self.criteria]
        )

    def evaluate(self, alphas: list[float], operator: str, policy: str) -> dict[str, np.ndarray]:
        """Fused weights, first- and second-level vectors at each alpha."""
        a = np.asarray(alphas, dtype=float)[:, None]
        crit = a * self.criterion_subjective + (1 - a) * self.criterion_objective
        ind = a * self.indicator_subjective + (1 - a) * self.indicator_objective
        first = []
        start = 0
        for cid, kids in self.criteria:
            stop = start + len(kids)
            if policy == "fused-both":
                w = ind[:, start:stop]
                w = w / w.sum(axis=1, keepdims=True)
            else:
                w = np.broadcast_to(self.relative[cid], (len(a), len(kids)))
            first.append(compose(w, self.membership[start:stop], operator))
            start = stop
        first_arr = np.stack(first, axis=1)  # (alphas, criteria, grades)
        second = compose(crit, first_arr, operator)
        return {"criterion": crit, "indicator": ind, "first": first_arr, "second": second}


class Survey:
    """Survey statistics recomputed from the CSV with the `statistics` module."""

    def __init__(self, csv_path: Path, case: Case):
        by_ind: dict[str, list[dict[str, str]]] = {}
        with open(csv_path, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                by_ind.setdefault(row["indicator"].strip(), []).append(row)
        self.responses = sum(len(rows) for rows in by_ind.values())
        self.screening = case.screening
        self.stats = {}
        for ind, rows in by_ind.items():
            scores = [int(r["score"]) for r in rows]
            mean = statistics.mean(scores)
            sd = statistics.stdev(scores)
            num = sum(case.classes[r["class"]] for r in rows if int(r["score"]) >= FULL_MARK_MIN)
            den = sum(case.classes[r["class"]] for r in rows)
            conf = [int(r["confidence"]) for r in rows if r.get("confidence", "").strip()]
            self.stats[ind] = {
                "mean": mean, "std_dev": sd, "cv": sd / mean, "full_mark_rate": num / den,
                "gcr": statistics.mean(conf) if conf else None, "respondent_count": len(rows),
            }

    def status(self, ind: str, s: dict) -> str:
        """Screening outcome of one indicator's stats; every threshold is strict."""
        sc = self.screening
        passed = (
            s["mean"] > sc["min_mean"] and s["full_mark_rate"] > sc["min_full_mark_rate"]
            and s["cv"] < sc["max_cv"]
            and (sc["min_gcr"] is None or s["gcr"] is None or s["gcr"] > sc["min_gcr"])
        )
        return "selected" if passed else "overridden" if ind in sc["overrides"] else "rejected"


def _close(tag: str, got: object, want: object, tol: float, out: list[str]) -> None:
    g = np.asarray(got, dtype=float)
    w = np.asarray(want, dtype=float)
    if g.shape != w.shape:
        out.append(f"{tag}: shape {g.shape} != {w.shape}")
        return
    err = float(np.max(np.abs(g - w))) if g.size else 0.0
    if not err <= tol:
        out.append(f"{tag}: max deviation {err:.3e} > {tol:g}")


def _numbers(obj: object):
    if isinstance(obj, bool):
        return
    if isinstance(obj, (int, float)):
        yield obj
    elif isinstance(obj, dict):
        for v in obj.values():
            yield from _numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            yield from _numbers(v)


def check_report(report: dict, case: Case, survey: Survey | None) -> list[str]:
    """Check one evaluation report (the parsed JSON) against the oracles."""
    out: list[str] = []
    if any(not math.isfinite(x) for x in _numbers(report)):
        out.append("report.finite: non-finite number in report")
    grades = case.grades
    crit_ids = [cid for cid, _ in case.criteria]
    wts = report["weights"]

    vectors = {
        "criterion.subjective": wts["criterion"]["subjective"],
        "criterion.objective": wts["criterion"]["objective"],
        "criterion.comprehensive": wts["criterion"]["comprehensive"],
        "indicator.subjective": wts["indicator"]["subjective"],
        "indicator.objective": wts["indicator"]["objective"],
        "indicator.comprehensive": wts["indicator"]["comprehensive"],
    }
    vectors.update({f"relative.{c}": v for c, v in wts["indicator"]["relative"].items()})
    for name, vec in vectors.items():
        if not abs(sum(vec.values()) - 1.0) <= SUM_TOL:
            out.append(f"report.sum: {name} sums to {sum(vec.values())!r}")

    for node, want in case.consistency.items():
        got = report["consistency"][node]
        for key in ("lambda_max", "ci", "cr"):
            _close(f"ahp.consistency {node}.{key}", got[key], want[key], EIG_TOL, out)
        if got["consistent"] != (want["cr"] < CR_LIMIT):
            out.append(f"ahp.consistency {node}: consistent flag {got['consistent']}")

    def vec(d: dict, ids: list[str]) -> list[float]:
        return [d[i] for i in ids] if list(d) == ids else [math.nan] * len(ids)

    _close("ahp.weights criterion", vec(wts["criterion"]["subjective"], crit_ids),
           case.criterion_subjective, EIG_TOL, out)
    for cid, kids in case.criteria:
        _close(f"ahp.weights {cid}", vec(wts["indicator"]["relative"][cid], kids),
               case.relative[cid], EIG_TOL, out)
    _close("ahp.weights global", vec(wts["indicator"]["subjective"], case.indicators),
           case.indicator_subjective, EIG_TOL, out)
    _close("entropy.weights", vec(wts["indicator"]["objective"], case.indicators),
           case.indicator_objective, ENTROPY_TOL, out)
    _close("entropy.weights criterion", vec(wts["criterion"]["objective"], crit_ids),
           case.criterion_objective, ENTROPY_TOL, out)

    prov = report["provenance"]
    if (prov["alpha"], prov["operator"], prov["weights_policy"]) != (
            case.alpha, case.operator, case.policy):
        out.append(f"report.provenance: run parameters {prov} differ from the config")
    exp = case.evaluate([case.alpha], case.operator, case.policy)
    _close("fusion.weights criterion", vec(wts["criterion"]["comprehensive"], crit_ids),
           exp["criterion"][0], EIG_TOL, out)
    _close("fusion.weights indicator", vec(wts["indicator"]["comprehensive"], case.indicators),
           exp["indicator"][0], EIG_TOL, out)
    _close("fuzzy.first_level", [vec(report["first_level"][c], grades) for c in crit_ids],
           exp["first"][0], EIG_TOL, out)
    second = vec(report["second_level"], grades)
    _close("fuzzy.second_level", second, exp["second"][0], EIG_TOL, out)
    if all(math.isfinite(v) for v in second):
        grade, membership, tied = verdict_of(second, grades)
        v = report["verdict"]
        if (v["grade"], v["membership"], v["tied"]) != (grade, membership, tied):
            out.append(f"fuzzy.verdict: {v} != {(grade, membership, tied)}")

    sha = prov["config_sha256"]
    if not (isinstance(sha, str) and len(sha) == 64 and all(c in "0123456789abcdef" for c in sha)):
        out.append(f"report.hash: config_sha256 {sha!r} is not a SHA-256 hex digest")

    if survey is not None:
        out += check_screening(report["screening"], survey)
    return out


def check_screening(section: dict | None, survey: Survey) -> list[str]:
    out: list[str] = []
    if section is None:
        return ["delphi.stats: report has no screening section"]
    got = {s["indicator"]: s for s in section["stats"]}
    if set(got) != set(survey.stats):
        return [f"delphi.stats: indicators {sorted(set(got) ^ set(survey.stats))} differ"]
    for ind, want in survey.stats.items():
        for key, value in want.items():
            g = got[ind][key]
            if value is None or key == "respondent_count":
                if g != value:
                    out.append(f"delphi.stats {ind}.{key}: {g!r} != {value!r}")
            elif not (isinstance(g, (int, float)) and abs(g - value) <= STATS_TOL):
                out.append(f"delphi.stats {ind}.{key}: {g!r} != {value!r}")
    # The rule is applied to the reported stats, checked above to 1e-12: a
    # rate that sits on a threshold may fall either side of it in float.
    status = {d["indicator"]: kind for kind in ("selected", "rejected", "overridden")
              for d in section[kind]}
    diff = sorted(i for i, s in got.items() if status.get(i) != survey.status(i, s))
    if diff or len(status) != len(got):
        out.append(f"delphi.screen: partition differs on {diff}")
    return out


def check_markdown(md: str, report: dict) -> list[str]:
    head = f"# Evaluation report: {report['goal']}"
    if not md.startswith(head) or f"| {report['verdict']['grade']} |" not in md:
        return ["report.markdown: heading or verdict row missing"]
    return []


def check_sweep(rows: list[tuple[float, list[float], str, float, bool]], grid: list[float],
                case: Case, operator: str, policy: str) -> list[str]:
    """Check one `sweep_alpha` result, given as (alpha, second_level, grade, membership, tied)."""
    out: list[str] = []
    alphas = [r[0] for r in rows]
    if len(rows) != len(grid) or alphas != sorted(grid):
        return [f"sweep.rows: {len(rows)} rows, alphas sorted={alphas == sorted(alphas)}"]
    b = np.array([r[1] for r in rows], dtype=float)
    if not np.all(np.isfinite(b)):
        return ["report.finite: non-finite second-level value in sweep"]
    exp = case.evaluate(alphas, operator, policy)
    _close(f"fuzzy.second_level sweep {operator}", b, exp["second"], EIG_TOL, out)
    if operator == "weighted-average":
        a = np.array(alphas)[:, None]
        lo, hi = alphas.index(0.0), alphas.index(1.0)
        _close("sweep.affine", b, a * b[hi] + (1 - a) * b[lo], AFFINE_TOL, out)
    bad = [r[0] for r in rows if (r[2], r[3], r[4]) != verdict_of(list(r[1]), case.grades)]
    if bad:
        out.append(f"fuzzy.verdict: sweep verdict wrong at alpha {bad[:3]}")
    return out


def check_hash(original: str, reparsed: str, one_cell_changed: str) -> list[str]:
    out: list[str] = []
    if reparsed != original:
        out.append("report.hash: equal configs hash differently")
    if one_cell_changed == original:
        out.append("report.hash: config_sha256 unchanged after a cell changed")
    return out
