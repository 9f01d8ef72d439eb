"""Per-leaf independent fits routed by leaf membership.

Each observed leaf of the hierarchy gets its own restricted fit; empty
leaves fall back to the global fit. Works as intended when the leaves
partition the input space; examples landing outside every leaf also go to
the global fit.
"""

from __future__ import annotations

import numpy as np

from ..data import Dataset
from ..groups import GroupTree
from ..learners import LearnerSpec, PredictorCache
from .routing import route


class PartitionPredictor:
    """Routes each row to the fit of the tree leaf that contains it."""

    def __init__(self, tree: GroupTree, per_leaf: dict, fallback, learner_spec: LearnerSpec):
        self.tree = tree
        self.leaves = tree.leaves()
        self.per_leaf = per_leaf  # leaf id -> predictor
        self.fallback = fallback  # the global fit, for rows outside every leaf
        self.learner_spec = learner_spec

    def _rules(self, ds: Dataset):
        rows = self.tree.rows(ds)
        return ((rows[self.tree.index(leaf.id)], self.per_leaf[leaf.id])
                for leaf in self.leaves)

    def scores(self, ds: Dataset) -> np.ndarray:
        return route(ds, self._rules(ds), self.fallback, "scores")

    def predict(self, ds: Dataset) -> np.ndarray:
        return route(ds, self._rules(ds), self.fallback, "predict")


def decoupled(
    train: Dataset,
    tree: GroupTree,
    spec: LearnerSpec,
    cache: PredictorCache | None = None,
) -> PartitionPredictor:
    """Fit one predictor per observed leaf; empty leaves, and examples
    outside every leaf, use the global fit."""
    if cache is None:
        cache = PredictorCache(train)
    root_pred = cache.erm(spec)
    rows = tree.rows(train)
    per_leaf = {}
    for leaf in tree.leaves():
        if len(rows[tree.index(leaf.id)]):
            per_leaf[leaf.id] = cache.group_erm(spec, leaf)
        else:
            per_leaf[leaf.id] = root_pred
    return PartitionPredictor(tree, per_leaf, root_pred, spec)
