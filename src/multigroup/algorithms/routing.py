"""First-match routing of rows to sub-predictors.

Every composite predictor in this package is an ordered list of
(group, predictor) rules over the nodes of one GroupTree, plus a default: a
row goes to the first rule whose group contains it, and rows no rule
contains go to the default. A rule gives its group as the indices of the
rows it contains.
"""

from __future__ import annotations

import numpy as np

from ..data import Dataset


def route(ds: Dataset, rules, default, method: str) -> np.ndarray:
    """Apply ``method`` ("scores" or "predict") of the first matching rule.

    ``rules`` yields (row indices, predictor) pairs and may be lazy: it is
    read only until every row is routed. ``default`` answers the rows
    outside every rule.

    Predictors must be row-wise: a predictor's output for a row depends
    only on that row. Each distinct predictor is then scored once, on
    exactly the rows routed to it (``ds.take(rows)``), so no full-length
    output is ever built for a predictor that answers only part of ``ds``.
    Such a subset shares its parent's base, so a predictor that encodes
    features reads its rows of the base's one encoding; the rule rows come
    from the tree's row index of ``ds``, built once per dataset.
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
        claim(default, np.flatnonzero(free))
    for predictor, parts in routed.values():
        rows = parts[0] if len(parts) == 1 else np.concatenate(parts)
        out[rows] = getattr(predictor, method)(ds.take(rows))
    return out
