"""Seeded inputs for the synthetic-evaluate workload.

    python3 perfbench/gen.py --seed 1 --out perfbench/_out/gen-1

writes `config.json` (9 criteria x 9 indicators, 4 grades, `fused-both`
policy, a 2000-row decision matrix inline) and `survey.csv` (10 respondents
rating every indicator). The same seed writes the same bytes.

Each judgment matrix comes from a seeded weight vector: every ratio w_i / w_j
is jittered, rounded to Saaty's 1-9 scale and written as '3' or '1/3'. A
matrix is redrawn until its consistency ratio, from `numpy.linalg.eig`, is
below 0.1, so power iteration sees realistic inconsistency rather than a
rank-one matrix.
"""
from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from checks import CR_LIMIT, eig_oracle, ratio

N_CRITERIA = 9
N_PER_CRITERION = 9
GRADES = ("Excellent", "Good", "Fair", "Poor")
ROWS = 2000
RESPONDENTS = (("e01", "expert"), ("e02", "expert"), ("e03", "expert"), ("e04", "expert"),
               ("e05", "expert"), ("e06", "expert"), ("u01", "end_user"), ("u02", "end_user"),
               ("u03", "end_user"), ("u04", "end_user"))
JITTER_SIGMA = 0.35  # log-normal noise on each ratio before rounding
MAX_DRAWS = 1000


def saaty_token(r: float) -> str:
    """Nearest entry of the 1-9 scale to a positive ratio, as written in a config."""
    if r >= 1.0:
        return str(int(min(9, max(1, round(r)))))
    k = int(min(9, max(1, round(1.0 / r))))
    return "1" if k == 1 else f"1/{k}"


def reciprocal_token(tok: str) -> str:
    if tok == "1":
        return "1"
    return tok[2:] if tok.startswith("1/") else f"1/{tok}"


def judgment_matrix(rng: np.random.Generator, n: int) -> tuple[list[list[str]], float]:
    """A reciprocal n x n matrix on the 1-9 scale with CR < 0.1, and its CR."""
    for _ in range(MAX_DRAWS):
        w = rng.uniform(1.0, 6.0, n)
        rows = [["1"] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                tok = saaty_token(w[i] / w[j] * float(np.exp(rng.normal(0.0, JITTER_SIGMA))))
                rows[i][j] = tok
                rows[j][i] = reciprocal_token(tok)
        cr = eig_oracle(np.array([[ratio(v) for v in row] for row in rows]))[3]
        if cr < CR_LIMIT:
            return rows, cr
    raise RuntimeError(f"no consistent order-{n} matrix in {MAX_DRAWS} draws")


def generate(seed: int, out: Path) -> dict[str, object]:
    """Write config.json and survey.csv under `out`; return a summary of the inputs."""
    rng = np.random.default_rng(seed)
    out.mkdir(parents=True, exist_ok=True)
    crit_ids = [f"B{c + 1}" for c in range(N_CRITERIA)]
    kids = {
        cid: [f"C{c * N_PER_CRITERION + k + 1}" for k in range(N_PER_CRITERION)]
        for c, cid in enumerate(crit_ids)
    }
    indicators = [i for cid in crit_ids for i in kids[cid]]

    matrices, crs = {}, {}
    for node, n in [("goal", N_CRITERIA)] + [(cid, N_PER_CRITERION) for cid in crit_ids]:
        matrices[node], crs[node] = judgment_matrix(rng, n)

    membership = {}
    for ind in indicators:
        counts = rng.multinomial(20, rng.dirichlet(np.ones(len(GRADES))))
        membership[ind] = {g: int(k) / 20 for g, k in zip(GRADES, counts)}

    sigma = rng.uniform(0.1, 1.2, len(indicators))
    scale = rng.uniform(1.0, 100.0, len(indicators))
    values = scale * np.exp(rng.normal(0.0, 1.0, (ROWS, len(indicators))) * sigma)
    values = [[float(f"{v:.6g}") for v in row] for row in values]

    config = {
        "goal": f"Synthetic site evaluation (seed {seed})",
        "grades": list(GRADES),
        "criteria": [
            {"id": cid, "name": f"Criterion {cid}",
             "indicators": [{"id": i, "name": f"Indicator {i}", "kind": "quantitative"}
                            for i in kids[cid]]}
            for cid in crit_ids
        ],
        "respondent_classes": [{"label": "expert", "score_weight": 0.8},
                               {"label": "end_user", "score_weight": 0.2}],
        "screening": {"min_mean": 3.5, "min_full_mark_rate": 0.5, "max_cv": 0.25,
                      "min_gcr": 3.0, "overrides": []},
        "judgment_matrices": matrices,
        "membership": membership,
        "decision_matrix": {
            "alternatives": [f"A{r + 1:04d}" for r in range(ROWS)],
            "indicators": indicators,
            "values": values,
        },
        "alpha": 0.5,
        "operator": "weighted-average",
        "weights_policy": "fused-both",
    }
    (out / "config.json").write_text(json.dumps(config), encoding="utf-8")

    lines = ["indicator,respondent,class,score,confidence"]
    centre = rng.uniform(2.5, 4.8, len(indicators))
    for ind, c in zip(indicators, centre):
        scores = np.clip(np.rint(rng.normal(c, 0.7, len(RESPONDENTS))), 1, 5).astype(int)
        confidence = rng.integers(2, 6, len(RESPONDENTS))
        for (resp, cls), s, conf in zip(RESPONDENTS, scores, confidence):
            lines.append(f"{ind},{resp},{cls},{s},{conf}")
    (out / "survey.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"seed": seed, "indicators": len(indicators), "rows": ROWS,
            "responses": len(lines) - 1, "max_cr": max(crs.values())}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    print(json.dumps(generate(args.seed, args.out)))


if __name__ == "__main__":
    main()
