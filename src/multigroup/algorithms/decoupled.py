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
        self.per_leaf = per_leaf  # observed leaf id -> predictor
        self.fallback = fallback  # the global fit, for rows of no observed leaf
        self.learner_spec = learner_spec

    def _rules(self, ds: Dataset):
        rows = self.tree.row_index(ds)
        return ((rows[self.tree.index(leaf.id)], self.per_leaf[leaf.id])
                for leaf in self.leaves if leaf.id in self.per_leaf)

    def scores(self, ds: Dataset) -> np.ndarray:
        return route(ds, self._rules(ds), self.fallback, "scores")

    def predict(self, ds: Dataset) -> np.ndarray:
        return route(ds, self._rules(ds), self.fallback, "predict")


def decoupled(cache: PredictorCache, tree: GroupTree, spec: LearnerSpec) -> PartitionPredictor:
    """Fit one predictor per observed leaf of the cache's training set;
    empty leaves, and examples outside every leaf, use the global fit."""
    root_pred = cache.erm(spec)
    rows = tree.row_index(cache.ds)
    per_leaf = {leaf.id: cache.group_erm(spec, tree, leaf)
                for leaf in tree.leaves() if len(rows[tree.index(leaf.id)])}
    return PartitionPredictor(tree, per_leaf, root_pred, spec)
