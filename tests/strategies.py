"""Hypothesis strategies shared by the test modules."""
from hypothesis import strategies as st

from siteval import ProjectConfig


def _saaty(exponent):
    return str(2**exponent) if exponent >= 0 else f"1/{2**-exponent}"


@st.composite
def configs(draw):
    """Configs of 2-9 criteria with 1-9 indicators each, sizes in any order (ascending
    too), 2-5 grades, membership rows on the simplex with -0.0 cells and consistent
    judgment matrices whose ratios are powers of two."""
    sizes = draw(st.lists(st.integers(1, 9), min_size=2, max_size=9))
    grades = [f"G{g}" for g in range(draw(st.integers(2, 5)))]
    cell = st.sampled_from([0.0, -0.0]) | st.floats(0.01, 1.0)

    def matrix(n):
        e = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        return [[_saaty(e[a] - e[b]) for b in range(n)] for a in range(n)]

    criteria, matrices, membership, objective = [], {"goal": matrix(len(sizes))}, {}, {}
    for c, n in enumerate(sizes):
        ids = [f"C{c}_{k}" for k in range(n)]
        criteria.append({"id": f"B{c}", "name": f"B{c}", "indicators": [
            {"id": i, "name": i, "kind": "qualitative"} for i in ids]})
        matrices[f"B{c}"] = matrix(n)
        for i in ids:
            row = draw(st.lists(cell, min_size=len(grades), max_size=len(grades)))
            total = sum(row) or 1.0
            row = [x / total for x in row] if any(row) else [1.0] + row[1:]
            membership[i] = dict(zip(grades, row))  # x / total keeps the sign of a zero
            objective[i] = draw(st.floats(0.01, 1.0))
    total = sum(objective.values())
    return ProjectConfig.from_dict({
        "goal": "g", "grades": grades, "criteria": criteria, "judgment_matrices": matrices,
        "membership": membership, "objective_weights": {i: w / total for i, w in objective.items()},
    })
