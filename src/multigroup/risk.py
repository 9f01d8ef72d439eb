"""Bounded per-example losses."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset

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
