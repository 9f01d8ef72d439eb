"""First-match routing of rows to sub-predictors.

Every composite predictor in this package is an ordered list of
(group, predictor) rules plus a default: a row goes to the first rule whose
group contains it, and rows no rule contains go to the default. A rule
gives its group as the indices of the rows it contains.
"""

from __future__ import annotations

import numpy as np

from ..data import Dataset


class RoutingError(ValueError):
    """An example matched no rule and there is no default to fall back on."""


def route(ds: Dataset, rules, default, method: str) -> np.ndarray:
    """Apply ``method`` ("scores" or "predict") of the first matching rule.

    ``rules`` yields (row indices, predictor) pairs and may be lazy: it is
    read only until every row is routed. ``default`` of None raises
    RoutingError for rows outside every rule. Each distinct predictor is
    evaluated at most once, on the whole dataset.
    """
    out = np.empty(ds.n, dtype=np.float64 if method == "scores" else np.int64)
    free = np.ones(ds.n, dtype=bool)
    left = ds.n
    values: dict[int, np.ndarray] = {}

    def fill(predictor, rows):
        key = id(predictor)
        if key not in values:
            values[key] = getattr(predictor, method)(ds)
        out[rows] = values[key][rows]

    for rows, predictor in rules:
        if not left:
            break  # every row is routed; later rules cannot match any
        rows = rows[free[rows]]
        if len(rows):
            fill(predictor, rows)
            free[rows] = False
            left -= len(rows)
    if left:
        rows = np.flatnonzero(free)
        if default is None:
            attrs = {a: ds.value(a, int(rows[0])) for a in ds.schema.group_attributes}
            raise RoutingError(f"example outside every group: {attrs}")
        fill(default, rows)
    return out
