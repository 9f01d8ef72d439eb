"""Bounded per-example losses, and their mean on each group of a hierarchy."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset
from .groups import GroupTree

LOG_CLIP_CAP = math.log(1e3)
_P_FLOOR = 1e-12


@dataclass(frozen=True)
class Loss:
    """Per-example loss with range [0, 1].

    zero_one compares hard labels; clipped_logistic rescales the log loss of
    the predictor's score by LOG_CLIP_CAP and caps it at 1 so it stays bounded.
    """

    kind: str

    def __post_init__(self):
        if self.kind not in ("zero_one", "clipped_logistic"):
            raise ValueError(f"unknown loss kind {self.kind!r}")

    def per_example(self, predictor, ds: Dataset) -> np.ndarray:
        y = ds.labels()
        if self.kind == "zero_one":
            return (predictor.predict(ds) != y).astype(np.float64)
        p = np.clip(predictor.scores(ds), _P_FLOOR, 1.0 - _P_FLOOR)
        ll = -(y * np.log(p) + (1 - y) * np.log(1.0 - p))
        return np.minimum(1.0, ll / LOG_CLIP_CAP)


ZERO_ONE = Loss("zero_one")
CLIPPED_LOGISTIC = Loss("clipped_logistic")


def loss_from_name(name: str) -> Loss:
    if name == "zero_one":
        return ZERO_ONE
    if name == "clipped_logistic":
        return CLIPPED_LOGISTIC
    raise ValueError(f"unknown loss {name!r}")


def mean(values: np.ndarray) -> float:
    """The mean of a non-empty array: the bits of ``values.mean()``, faster."""
    return float(values.sum() / len(values))


def group_risks(fitted, ds: Dataset, tree: GroupTree, loss: Loss) -> dict[str, float | None]:
    """Mean loss on each group's rows of ds, as ``tree.row_index(ds)`` gives them.

    ``fitted`` is one predictor scored once on all of ds, or a dict of
    per-group fits (group_erm), each scored on its own group's rows only.
    A group with no rows, or without a fit, gets None.
    """
    shared = None if isinstance(fitted, dict) else loss.per_example(fitted, ds)
    out = {}
    for r, g in zip(tree.row_index(ds), tree.nodes):
        if not len(r) or (shared is None and g.id not in fitted):
            out[g.id] = None
        elif shared is not None:
            out[g.id] = mean(shared[r])
        else:
            out[g.id] = mean(loss.per_example(fitted[g.id], ds.take(r)))
    return out
