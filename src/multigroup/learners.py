"""Base learners: constant, logistic regression, entropy decision trees,
and bagged trees, all trained from scratch on encoded feature matrices.

Every fitted predictor exposes ``scores(ds) -> [0, 1]`` and
``predict(ds) -> {0, 1}``; thresholding scores at 0.5 (ties predict 1)
reproduces the labels. Fitting is deterministic given the spec.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import CATEGORICAL, NUMERIC, AttributeSchema, Dataset
from .groups import Group, membership_vector

_SEED_MASK = (1 << 64) - 1


class EmptyGroupError(ValueError):
    """Raised when asked to fit on a group with no training examples."""


@dataclass(frozen=True)
class LearnerSpec:
    """Hypothesis-class choice plus hyperparameters.

    kind: "constant" | "logistic" | "tree" | "bagged_trees".
    """

    kind: str
    max_depth: int = 2
    learning_rate: float = 0.1
    iterations: int = 2000
    tolerance: float = 1e-9
    n_trees: int = 25
    feature_fraction: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("constant", "logistic", "tree", "bagged_trees"):
            raise ValueError(f"unknown learner kind {self.kind!r}")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.n_trees < 1:
            raise ValueError("need at least one tree")
        if not 0.0 < self.feature_fraction <= 1.0:
            raise ValueError("feature_fraction must be in (0, 1]")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.tolerance < 0:
            raise ValueError("tolerance must be >= 0")

    def label(self) -> str:
        if self.kind == "tree":
            return f"tree_depth{self.max_depth}"
        if self.kind == "bagged_trees":
            return f"bagged{self.n_trees}_depth{self.max_depth}"
        return self.kind

    def to_json(self) -> dict:
        doc = {"kind": self.kind}
        if self.kind in ("tree", "bagged_trees"):
            doc["max_depth"] = self.max_depth
        if self.kind == "logistic":
            doc["learning_rate"] = self.learning_rate
            doc["iterations"] = self.iterations
            doc["tolerance"] = self.tolerance
        if self.kind == "bagged_trees":
            doc["n_trees"] = self.n_trees
            doc["feature_fraction"] = self.feature_fraction
        if self.seed:
            doc["seed"] = self.seed
        return doc

    @staticmethod
    def from_json(doc) -> "LearnerSpec":
        allowed = {
            "kind", "max_depth", "learning_rate", "iterations", "tolerance",
            "n_trees", "feature_fraction", "seed",
        }
        unknown = set(doc) - allowed
        if unknown:
            raise ValueError(f"unknown learner keys: {sorted(unknown)}")
        doc = dict(doc)
        for key in ("max_depth", "iterations", "n_trees", "seed"):
            if key in doc:
                doc[key] = int(doc[key])
        return LearnerSpec(**doc)


class FeatureEncoder:
    """Schema-derived design matrix: one-hot categoricals plus raw numerics.

    The encoding depends only on the schema, so train and test splits that
    share a schema encode consistently.
    """

    def __init__(self, schema: AttributeSchema, include_group_attributes: bool = True):
        self.schema = schema
        self.include_group_attributes = include_group_attributes
        self.feature_names: list[str] = []
        self._plan: list[tuple[str, str, int]] = []  # (column, kind, category index)
        excluded = set() if include_group_attributes else set(schema.group_attributes)
        for col in schema.columns:
            if col.name == schema.label_column or col.name in excluded:
                continue
            if col.kind == CATEGORICAL:
                for k, cat in enumerate(schema.categories.get(col.name, ())):
                    self._plan.append((col.name, CATEGORICAL, k))
                    self.feature_names.append(f"{col.name}={cat}")
            elif col.kind == NUMERIC:
                self._plan.append((col.name, NUMERIC, -1))
                self.feature_names.append(col.name)

    @property
    def width(self) -> int:
        return len(self._plan)

    def transform(self, ds: Dataset) -> np.ndarray:
        X = np.empty((ds.n, self.width), dtype=np.float64)
        for j, (name, kind, k) in enumerate(self._plan):
            if kind == CATEGORICAL:
                X[:, j] = ds.codes(name) == k
            else:
                X[:, j] = ds.numeric(name)
        return X


def _labels_from_scores(scores: np.ndarray) -> np.ndarray:
    return (scores >= 0.5).astype(np.int64)


class ConstantPredictor:
    """Predicts the training majority label everywhere; score = label mean."""

    kind = "constant"

    def __init__(self, score_value: float, provenance: str = ""):
        self.score_value = float(score_value)
        self.provenance = provenance

    def scores(self, ds: Dataset) -> np.ndarray:
        return np.full(ds.n, self.score_value)

    def predict(self, ds: Dataset) -> np.ndarray:
        return _labels_from_scores(self.scores(ds))

    def to_json(self) -> dict:
        return {"type": "constant", "score": self.score_value, "provenance": self.provenance}


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def logistic_loss(weights: np.ndarray, intercept: float, X: np.ndarray, y: np.ndarray) -> float:
    """Mean logistic loss, computed via logaddexp for stability."""
    z = X @ weights + intercept
    signs = 2.0 * y - 1.0
    return float(np.mean(np.logaddexp(0.0, -signs * z)))

def logistic_gradient(
    weights: np.ndarray, intercept: float, X: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, float]:
    z = X @ weights + intercept
    resid = sigmoid(z) - y
    return X.T @ resid / len(y), float(np.mean(resid))


class LogisticPredictor:
    """Linear model on standardized features, fit by full-batch gradient descent."""

    kind = "logistic"

    def __init__(self, weights, intercept, mean, scale, encoder: FeatureEncoder, provenance=""):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.intercept = float(intercept)
        self.mean = np.asarray(mean, dtype=np.float64)
        self.scale = np.asarray(scale, dtype=np.float64)
        self.encoder = encoder
        self.provenance = provenance

    def scores(self, ds: Dataset) -> np.ndarray:
        X = (self.encoder.transform(ds) - self.mean) / self.scale
        return sigmoid(X @ self.weights + self.intercept)

    def predict(self, ds: Dataset) -> np.ndarray:
        return _labels_from_scores(self.scores(ds))

    def to_json(self) -> dict:
        return {
            "type": "logistic",
            "weights": self.weights.tolist(),
            "intercept": self.intercept,
            "mean": self.mean.tolist(),
            "scale": self.scale.tolist(),
            "provenance": self.provenance,
        }


def _fit_logistic(X: np.ndarray, y: np.ndarray, spec: LearnerSpec):
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale[scale == 0.0] = 1.0
    Xs = (X - mean) / scale
    w = np.zeros(X.shape[1])
    b = 0.0
    for _ in range(spec.iterations):
        gw, gb = logistic_gradient(w, b, Xs, y)
        gnorm = float(np.sqrt(np.dot(gw, gw) + gb * gb))
        if gnorm < spec.tolerance:
            break
        w -= spec.learning_rate * gw
        b -= spec.learning_rate * gb
    return w, b, mean, scale


# ---------------------------------------------------------------------------
# Entropy decision trees
# ---------------------------------------------------------------------------

_MIN_GAIN = 1e-12  # floating-point guard: splits must strictly reduce entropy


def _entropy(p: np.ndarray) -> np.ndarray:
    p = np.clip(p, 0.0, 1.0)
    q = 1.0 - p
    out = np.zeros_like(p)
    nz = p > 0
    out[nz] -= p[nz] * np.log(p[nz])
    nz = q > 0
    out[nz] -= q[nz] * np.log(q[nz])
    return out


def _best_split(X: np.ndarray, y: np.ndarray):
    """Best (feature, threshold) by entropy reduction.

    Features are scanned in index order and thresholds in ascending order,
    so ties resolve to the lowest feature index and lowest threshold.
    """
    n = len(y)
    parent = float(_entropy(np.array([y.mean()]))[0])
    best = None  # (gain, feature, threshold)
    for j in range(X.shape[1]):
        col = X[:, j]
        order = np.argsort(col, kind="stable")
        cs = col[order]
        ys = y[order]
        boundary = np.flatnonzero(cs[:-1] < cs[1:])
        if boundary.size == 0:
            continue
        cum_pos = np.cumsum(ys)
        n_left = boundary + 1
        pos_left = cum_pos[boundary]
        n_right = n - n_left
        pos_right = cum_pos[-1] - pos_left
        h_left = _entropy(pos_left / n_left)
        h_right = _entropy(pos_right / n_right)
        gains = parent - (n_left * h_left + n_right * h_right) / n
        k = int(np.argmax(gains))  # first maximum = lowest threshold
        gain = float(gains[k])
        if best is None or gain > best[0]:
            lo, hi = cs[boundary[k]], cs[boundary[k] + 1]
            thr = lo + (hi - lo) / 2.0
            if thr >= hi:  # midpoint rounded up onto the right value
                thr = lo
            best = (gain, j, float(thr))
    if best is None or best[0] <= _MIN_GAIN:
        return None
    return best[1], best[2]


def _grow_tree(X: np.ndarray, y: np.ndarray, depth: int, max_depth: int) -> dict:
    score = float(y.mean())
    if depth >= max_depth or score in (0.0, 1.0) or len(y) < 2:
        return {"score": score}
    found = _best_split(X, y)
    if found is None:
        return {"score": score}
    j, thr = found
    left = X[:, j] <= thr
    return {
        "feature": j,
        "threshold": thr,
        "left": _grow_tree(X[left], y[left], depth + 1, max_depth),
        "right": _grow_tree(X[~left], y[~left], depth + 1, max_depth),
    }


def _tree_scores(node: dict, X: np.ndarray) -> np.ndarray:
    out = np.empty(len(X))
    stack = [(node, np.arange(len(X)))]
    while stack:
        current, idx = stack.pop()
        if "feature" not in current:
            out[idx] = current["score"]
            continue
        mask = X[idx, current["feature"]] <= current["threshold"]
        stack.append((current["left"], idx[mask]))
        stack.append((current["right"], idx[~mask]))
    return out


def _tree_depth(node: dict) -> int:
    if "feature" not in node:
        return 0
    return 1 + max(_tree_depth(node["left"]), _tree_depth(node["right"]))


class DecisionTreePredictor:
    """Depth-bounded binary tree grown by greedy entropy reduction."""

    kind = "tree"

    def __init__(self, root: dict, encoder: FeatureEncoder, provenance: str = ""):
        self.root = root
        self.encoder = encoder
        self.provenance = provenance

    def depth(self) -> int:
        return _tree_depth(self.root)

    def scores(self, ds: Dataset) -> np.ndarray:
        return _tree_scores(self.root, self.encoder.transform(ds))

    def predict(self, ds: Dataset) -> np.ndarray:
        return _labels_from_scores(self.scores(ds))

    def to_json(self) -> dict:
        return {"type": "tree", "root": self.root, "provenance": self.provenance}


class BaggedTreesPredictor:
    """Majority vote over trees fit on bootstrap resamples with feature subsets."""

    kind = "bagged_trees"

    def __init__(self, trees, feature_subsets, encoder: FeatureEncoder, provenance=""):
        self.trees = trees
        self.feature_subsets = [np.asarray(s, dtype=np.int64) for s in feature_subsets]
        self.encoder = encoder
        self.provenance = provenance

    def scores(self, ds: Dataset) -> np.ndarray:
        X = self.encoder.transform(ds)
        votes = np.zeros(ds.n)
        for root, subset in zip(self.trees, self.feature_subsets):
            votes += _tree_scores(root, X[:, subset]) >= 0.5
        return votes / len(self.trees)

    def predict(self, ds: Dataset) -> np.ndarray:
        return _labels_from_scores(self.scores(ds))

    def to_json(self) -> dict:
        return {
            "type": "bagged_trees",
            "trees": self.trees,
            "feature_subsets": [s.tolist() for s in self.feature_subsets],
            "provenance": self.provenance,
        }


def _fit_bagged(X: np.ndarray, y: np.ndarray, spec: LearnerSpec):
    n, d = X.shape
    k = max(1, int(round(spec.feature_fraction * d)))
    trees = []
    subsets = []
    for t in range(spec.n_trees):
        rng = np.random.default_rng([spec.seed & _SEED_MASK, t])
        rows = rng.integers(0, n, size=n)
        subset = np.sort(rng.choice(d, size=k, replace=False))
        trees.append(_grow_tree(X[rows][:, subset], y[rows], 0, spec.max_depth))
        subsets.append(subset)
    return trees, subsets


def fit(
    spec: LearnerSpec,
    ds: Dataset,
    mask: np.ndarray,
    encoder: FeatureEncoder | None = None,
    tag: str = "",
):
    """Fit one predictor on the masked rows of ds."""
    mask = np.asarray(mask, dtype=bool)
    count = int(mask.sum())
    if count == 0:
        raise EmptyGroupError("empty training group")
    if encoder is None:
        encoder = FeatureEncoder(ds.schema)
    y = ds.labels()[mask].astype(np.float64)
    provenance = f"{spec.label()}@{tag}" if tag else spec.label()

    if spec.kind == "constant" or y.min() == y.max():
        # one-class data degenerates to a constant for every learner kind
        return ConstantPredictor(float(y.mean()), provenance)

    X = encoder.transform(ds)[mask]
    if spec.kind == "logistic":
        w, b, mean, scale = _fit_logistic(X, y, spec)
        return LogisticPredictor(w, b, mean, scale, encoder, provenance)
    if spec.kind == "tree":
        return DecisionTreePredictor(_grow_tree(X, y, 0, spec.max_depth), encoder, provenance)
    trees, subsets = _fit_bagged(X, y, spec)
    return BaggedTreesPredictor(trees, subsets, encoder, provenance)


def erm(spec: LearnerSpec, ds: Dataset, encoder: FeatureEncoder | None = None):
    return fit(spec, ds, np.ones(ds.n, dtype=bool), encoder, tag="ALL")


def group_erm(spec: LearnerSpec, ds: Dataset, g: Group, encoder: FeatureEncoder | None = None):
    mask = membership_vector(g, ds)
    if not mask.any():
        raise EmptyGroupError(f"empty group: {g.id}")
    return fit(spec, ds, mask, encoder, tag=g.id)


class PredictorCache:
    """One fitted predictor per (learner spec, group) on a fixed training set.

    Shared by the different training procedures so they compare against the
    same group-restricted fits. Single-threaded: ``evaluate --jobs`` runs
    trials in separate processes, each with its own cache.
    """

    def __init__(self, ds: Dataset, encoder: FeatureEncoder | None = None):
        self.ds = ds
        self.encoder = encoder if encoder is not None else FeatureEncoder(ds.schema)
        self._store: dict[tuple, object] = {}

    def group_erm(self, spec: LearnerSpec, g: Group):
        key = (spec, g.id)
        found = self._store.get(key)
        if found is None:
            found = self._store[key] = group_erm(spec, self.ds, g, self.encoder)
        return found

    def erm(self, spec: LearnerSpec):
        return self.group_erm(spec, Group("ALL", ()))


# ---------------------------------------------------------------------------
# Predictor (de)serialization
# ---------------------------------------------------------------------------

def predictor_to_json(predictor) -> dict:
    return predictor.to_json()


def predictor_from_json(doc: dict, encoder: FeatureEncoder):
    ptype = doc["type"]
    if ptype == "constant":
        return ConstantPredictor(doc["score"], doc.get("provenance", ""))
    if ptype == "logistic":
        return LogisticPredictor(
            doc["weights"], doc["intercept"], doc["mean"], doc["scale"],
            encoder, doc.get("provenance", ""),
        )
    if ptype == "tree":
        return DecisionTreePredictor(doc["root"], encoder, doc.get("provenance", ""))
    if ptype == "bagged_trees":
        return BaggedTreesPredictor(
            doc["trees"], doc["feature_subsets"], encoder, doc.get("provenance", ""),
        )
    raise ValueError(f"unknown predictor type {ptype!r}")
