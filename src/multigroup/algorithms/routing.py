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
    RoutingError for rows outside every rule.

    Predictors must be row-wise: a predictor's output for a row depends
    only on that row. Each distinct predictor is then scored once, on
    exactly the rows routed to it (``ds.take(rows)``), so no full-length
    output is ever built for a predictor that answers only part of ``ds``.
    """
    out = np.empty(ds.n, dtype=np.float64 if method == "scores" else np.int64)
    free = np.ones(ds.n, dtype=bool)
    left = ds.n
    routed: dict[int, tuple[object, list[np.ndarray]]] = {}

    def claim(predictor, rows):
        routed.setdefault(id(predictor), (predictor, []))[1].append(rows)

    for rows, predictor in rules:
        if not left:
            break  # every row is routed; later rules cannot match any
        rows = rows[free[rows]]
        if len(rows):
            claim(predictor, rows)
            free[rows] = False
            left -= len(rows)
    if left:
        rows = np.flatnonzero(free)
        if default is None:
            attrs = {a: ds.value(a, int(rows[0])) for a in ds.schema.group_attributes}
            raise RoutingError(f"example outside every group: {attrs}")
        claim(default, rows)
    for predictor, parts in routed.values():
        rows = parts[0] if len(parts) == 1 else np.concatenate(parts)
        out[rows] = getattr(predictor, method)(ds.take(rows))
    return out
