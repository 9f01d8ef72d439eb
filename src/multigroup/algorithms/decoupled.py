"""Per-leaf independent fits routed by leaf membership.

Each observed leaf of the hierarchy gets its own restricted fit; empty
leaves fall back to the global fit. Works as intended when the leaves
partition the input space; examples landing outside every leaf are handled
by the configured fallback.
"""

from __future__ import annotations

import numpy as np

from ..data import Dataset
from ..groups import GroupTree, membership_vector
from ..learners import LearnerSpec, PredictorCache
from .routing import route


class PartitionPredictor:
    def __init__(self, leaves, per_leaf: dict, fallback, learner_spec: LearnerSpec):
        self.leaves = list(leaves)
        self.per_leaf = per_leaf  # leaf id -> predictor
        self.fallback = fallback  # predictor or None (meaning: raise on uncovered rows)
        self.learner_spec = learner_spec

    def _rules(self, ds: Dataset):
        return ((np.flatnonzero(membership_vector(leaf, ds)), self.per_leaf[leaf.id])
                for leaf in self.leaves)

    def scores(self, ds: Dataset) -> np.ndarray:
        return route(ds, self._rules(ds), self.fallback, "scores")

    def predict(self, ds: Dataset) -> np.ndarray:
        return route(ds, self._rules(ds), self.fallback, "predict")


def decoupled(
    train: Dataset,
    tree: GroupTree,
    spec: LearnerSpec,
    fallback: str = "root",
    cache: PredictorCache | None = None,
) -> PartitionPredictor:
    """Fit one predictor per observed leaf; empty leaves use the global fit.

    fallback: "root" routes examples outside every leaf to the global fit;
    "error" raises at evaluation time instead.
    """
    if fallback not in ("root", "error"):
        raise ValueError(f"unknown fallback {fallback!r}")
    leaves = tree.leaves()
    if cache is None:
        cache = PredictorCache(train)
    root_pred = cache.erm(spec)
    rows = tree.rows(train)
    per_leaf = {}
    for leaf in leaves:
        if len(rows[tree.index(leaf.id)]):
            per_leaf[leaf.id] = cache.group_erm(spec, leaf)
        else:
            per_leaf[leaf.id] = root_pred
    return PartitionPredictor(
        leaves, per_leaf, root_pred if fallback == "root" else None, spec
    )
