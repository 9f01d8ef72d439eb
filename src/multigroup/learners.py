"""Base learners: constant, logistic regression, entropy decision trees,
and bagged trees, all trained from scratch on encoded feature matrices.

Every fitted predictor exposes ``scores(ds) -> [0, 1]`` and
``predict(ds) -> {0, 1}``; thresholding scores at 0.5 (ties predict 1)
reproduces the labels. Fitting is deterministic given the spec.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .data import CATEGORICAL, NUMERIC, AttributeSchema, Dataset, check_keys, json_int
from .groups import Group, membership_vector

_SEED_MASK = (1 << 64) - 1


class EmptyGroupError(ValueError):
    """Raised when asked to fit on a group with no training examples."""


@dataclass(frozen=True)
class LearnerSpec:
    """Hypothesis-class choice plus hyperparameters.

    kind: "constant" | "logistic" | "tree" | "bagged_trees".
    solver: how a logistic fit is found, "newton" (Newton/IRLS) or "gd"
    (full-batch gradient descent, the only solver before the field existed;
    see ``modelio.stored_learner``).
    """

    kind: str
    max_depth: int = 2
    learning_rate: float = 0.1
    iterations: int = 2000
    tolerance: float = 1e-9
    n_trees: int = 25
    feature_fraction: float = 0.5
    seed: int = 0
    solver: str = "newton"

    def __post_init__(self):
        if self.kind not in ("constant", "logistic", "tree", "bagged_trees"):
            raise ValueError(f"unknown learner kind {self.kind!r}")
        if self.solver not in ("newton", "gd"):
            raise ValueError(f"unknown logistic solver {self.solver!r}")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.n_trees < 1:
            raise ValueError("need at least one tree")
        if not 0.0 < self.feature_fraction <= 1.0:
            raise ValueError("feature_fraction must be in (0, 1]")
        if not 0 < self.learning_rate < np.inf:  # written so that NaN fails
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if not 0 <= self.tolerance < np.inf:
            raise ValueError(f"tolerance must be finite and >= 0, got {self.tolerance}")

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
            doc["solver"] = self.solver
        if self.kind == "bagged_trees":
            doc["n_trees"] = self.n_trees
            doc["feature_fraction"] = self.feature_fraction
        if self.seed:
            doc["seed"] = self.seed
        return doc

    @staticmethod
    def from_json(doc) -> "LearnerSpec":
        check_keys(doc, {f.name for f in fields(LearnerSpec)}, "learner")
        doc = dict(doc)
        for key in ("max_depth", "iterations", "n_trees", "seed"):
            if key in doc:
                doc[key] = json_int(doc[key], key)
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
    """1 / (1 + exp(-z)) without overflow: exp is only taken of -|z|."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


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
    """Linear model on standardized features, fit by Newton/IRLS or
    full-batch gradient descent (``LearnerSpec.solver``)."""

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


_RIDGE = 1e-8  # keeps the Newton system solvable on constant columns and separable data
_MAX_HALVINGS = 60
_BLOCK = 4096  # rows per Hessian block, so its weighted copy stays small


def _gradient_descent(Xs: np.ndarray, y: np.ndarray, spec: LearnerSpec):
    w = np.zeros(Xs.shape[1])
    b = 0.0
    for _ in range(spec.iterations):
        gw, gb = logistic_gradient(w, b, Xs, y)
        gnorm = float(np.sqrt(np.dot(gw, gw) + gb * gb))
        if gnorm < spec.tolerance:
            break
        w -= spec.learning_rate * gw
        b -= spec.learning_rate * gb
    return w, b


def _newton(X: np.ndarray, mean: np.ndarray, scale: np.ndarray, y: np.ndarray,
            spec: LearnerSpec):
    """Newton/IRLS on the mean log-loss of the standardized design, built in
    place with the intercept as a last column of 1s.

    Each step solves (H + ridge*I) step = gradient and halves the step until
    the loss does not increase. Stops when the gradient norm is below
    ``spec.tolerance``, when no halving lowers the loss, or after
    ``spec.iterations`` steps.
    """
    n, d = X.shape
    A = np.ones((n, d + 1))
    np.subtract(X, mean, out=A[:, :d])
    A[:, :d] /= scale
    theta = np.zeros(d + 1)
    loss = logistic_loss(theta, 0.0, A, y)
    for _ in range(spec.iterations):
        p = sigmoid(A @ theta)
        grad = A.T @ (p - y) / n
        if float(np.sqrt(np.dot(grad, grad))) < spec.tolerance:
            break
        weight = p * (1.0 - p) / n
        hessian = _RIDGE * np.eye(d + 1)
        for lo in range(0, n, _BLOCK):
            block = A[lo:lo + _BLOCK]
            hessian += (block.T * weight[lo:lo + _BLOCK]) @ block
        step = np.linalg.solve(hessian, grad)
        for _ in range(_MAX_HALVINGS):
            trial = theta - step
            trial_loss = logistic_loss(trial, 0.0, A, y)
            if trial_loss <= loss:
                break
            step = step / 2.0
        if not trial_loss < loss:
            break
        theta, loss = trial, trial_loss
    return theta[:d], float(theta[d])


def _fit_logistic(X: np.ndarray, y: np.ndarray, spec: LearnerSpec):
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale[scale == 0.0] = 1.0
    if spec.solver == "newton":
        w, b = _newton(X, mean, scale, y, spec)
    else:
        w, b = _gradient_descent((X - mean) / scale, y, spec)
    return w, b, mean, scale


# ---------------------------------------------------------------------------
# Entropy decision trees
# ---------------------------------------------------------------------------

_MIN_GAIN = 1e-12  # floating-point guard: splits must strictly reduce entropy
_SPLIT_BLOCK = 1 << 14  # sorted values per block of features in the split search
_SCORE_BLOCK = 1 << 14  # (tree, row) pairs per block when a forest scores rows


def _block_rows(k: int, m: int) -> int:
    """Rows of a (k, m) level array per block, at most _SPLIT_BLOCK values
    unless one row alone is longer."""
    return min(k, max(1, _SPLIT_BLOCK // m))


def _pass_trees(n: int) -> int:
    """Trees a bagged fit grows together in one pass when each tree's
    bootstrap sample has n rows: as many as lay side by side in
    _SPLIT_BLOCK sample positions, and at least one. A pass's arrays are
    then no wider than one tree's on max(n, _SPLIT_BLOCK) rows."""
    return max(1, _SPLIT_BLOCK // n)


def _entropy(p: np.ndarray) -> np.ndarray:
    """Binary entropy in nats, 0 at p = 0 and p = 1 (0 log 0 taken as 0)."""
    p = np.clip(p, 0.0, 1.0)
    q = 1.0 - p
    log_p = np.log(np.where(p > 0, p, 1.0))
    log_q = np.log(np.where(q > 0, q, 1.0))
    return (0.0 - p * log_p) - q * log_q  # 0.0 - x keeps a zero term at +0.0


def _presort(XT: np.ndarray) -> np.ndarray:
    """Order of each row of XT (one feature per row), ascending.

    Ties may come in any order: a split reads class counts only at the
    boundaries between distinct values, and those do not depend on it.
    """
    order = np.empty(XT.shape, dtype=np.int32 if XT.shape[1] < 2**31 else np.intp)
    for j, column in enumerate(XT):
        order[j] = np.argsort(column)
    return order


def _best_splits(X, y, order, starts, sizes, pos):
    """Best (feature, threshold) of each node of one forest level, by
    entropy reduction.

    The level's nodes are contiguous segments of order's columns (start,
    size, positives), and row c of a segment lists its sample ids sorted by
    feature c, which is X[c]; ids index the columns of X and y. The
    candidate thresholds are the boundaries between distinct sorted values
    inside a node. Features are scanned in index order and thresholds in
    ascending order, so ties resolve to the lowest feature index and lowest
    threshold. Rows of order are scored a block at a time, as many per
    block as keep it within _SPLIT_BLOCK values, and read X with 1-D take
    on flat indices.

    Returns per node: the gain (-inf if no feature has two distinct
    values), the feature, the last position left of the cut, the threshold
    (the midpoint of the values either side of the cut) and the positives
    left of it.
    """
    k, m = order.shape
    count = len(starts)
    step = _block_rows(k, m)
    # Per position of a block's rows laid end to end: its node, the count
    # left of a cut after it, and whether a cut after it is inside its node.
    node_of = np.tile(np.repeat(np.arange(count), sizes), step)
    n_left_at = np.tile(np.arange(1, m + 1) - np.repeat(starts, sizes), step)
    inside = np.tile(n_left_at[:m] < np.repeat(sizes, sizes), step)[:-1]
    row_at = np.arange(k)[:, None] * X.shape[1]  # flat index of X[c, 0]
    parent = _entropy(pos / sizes)
    gain = np.full(count, -np.inf)
    feature, at = np.zeros(count, dtype=np.intp), np.zeros(count, dtype=np.intp)
    lo, hi, pos_left = np.zeros(count), np.zeros(count), np.zeros(count)
    cum = np.zeros(step * m + 1)  # cum[f] = positives before flat position f
    for c0 in range(0, k, step):
        ids = order[c0:c0 + step]
        width = ids.size
        values = X.take(ids + row_at[c0:c0 + step]).ravel()
        np.cumsum(y.take(ids), out=cum[1:width + 1])  # rows end to end
        f = np.flatnonzero((values[:-1] < values[1:]) & inside[:width - 1])
        if f.size == 0:
            continue
        s = node_of[f]
        n = sizes[s]
        n_left = n_left_at[f]
        p_left = cum[f + 1] - cum[f + 1 - n_left]
        n_right = n - n_left
        p_right = pos[s] - p_left
        gains = parent[s] - (n_left * _entropy(p_left / n_left)
                             + n_right * _entropy(p_right / n_right)) / n
        top = np.full(count, -np.inf)
        np.maximum.at(top, s, gains)
        hit = np.flatnonzero(gains == top[s])
        won, first = np.unique(s[hit], return_index=True)  # each node's first maximum
        k_won = hit[first]
        better = top[won] > gain[won]
        won, k_won = won[better], k_won[better]
        gain[won] = top[won]
        f = f[k_won]
        feature[won] = c0 + f // m
        at[won] = f % m
        lo[won] = values[f]
        hi[won] = values[f + 1]
        pos_left[won] = p_left[k_won]
    threshold = lo + (hi - lo) / 2.0
    rounded_up = threshold >= hi  # midpoint rounded up onto the right value
    threshold[rounded_up] = lo[rounded_up]
    return gain, feature, at, threshold, pos_left


def _grow_tree(X: np.ndarray, y: np.ndarray, order: np.ndarray, sizes,
               max_depth: int) -> list[dict]:
    """Grow a forest of depth-bounded trees by greedy entropy reduction, all
    its trees a level at a time; returns their roots.

    order holds the trees' samples side by side, one segment of the given
    size per tree, as (features, samples) ids of the columns of X and y:
    row c of a segment is sorted by feature c, which is X[c], and a
    bootstrap sample repeats ids. A node is a segment and its cuts lie
    inside it, so trees never mix. A split keeps each side's ids in the
    order they had, so no node sorts: the nodes of the next level are
    again sorted segments of one array. A node is a leaf at max_depth, when
    its labels agree, or when no split gains more than _MIN_GAIN.
    """
    k, m = order.shape
    sizes = np.asarray(sizes)
    pos = np.add.reduceat(y.take(order[0]), np.cumsum(sizes) - sizes)
    roots = [{} for _ in sizes]
    nodes = roots
    for depth in range(max_depth):
        starts = np.cumsum(sizes) - sizes
        gain, feature, at, threshold, pos_left = _best_splits(
            X, y, order, starts, sizes, pos)
        side = np.zeros(len(y), dtype=np.int8)  # 1, 2: goes to a left, right node to split
        grow = ([], [])
        for s, node in enumerate(nodes):
            if not gain[s] > _MIN_GAIN:
                node["score"] = float(pos[s] / sizes[s])
                continue
            start, cut, end = int(starts[s]), int(at[s]) + 1, int(starts[s] + sizes[s])
            node["feature"] = int(feature[s])
            node["threshold"] = float(threshold[s])
            sides = ((cut - start, float(pos_left[s]), start, cut),
                     (end - cut, float(pos[s] - pos_left[s]), cut, end))
            for b, (size, p, first, last) in enumerate(sides):
                child = node["left" if b == 0 else "right"] = {}
                if depth + 1 < max_depth and 0.0 < p < size:
                    side[order[feature[s], first:last]] = b + 1
                    grow[b].append((child, size, p))
                else:
                    child["score"] = p / size
        children = grow[0] + grow[1]
        if not children:
            break
        nodes = [child for child, _, _ in children]
        sizes = np.array([size for _, size, _ in children])
        pos = np.array([p for _, _, p in children])
        left = sum(size for _, size, _ in grow[0])
        parted = np.empty((k, sizes.sum()), dtype=order.dtype)
        step = _block_rows(k, m)
        for c0 in range(0, k, step):
            block = order[c0:c0 + step]
            to = side.take(block).ravel()
            parted[c0:c0 + step, :left] = np.compress(to == 1, block).reshape(len(block), -1)
            parted[c0:c0 + step, left:] = np.compress(to == 2, block).reshape(len(block), -1)
        order, m = parted, parted.shape[1]
    return roots


class _FlatTree(NamedTuple):
    """Tree dicts as one node table, one entry per node: each tree's nodes
    in breadth-first order after the previous tree's, so scoring takes one
    vectorised step per level for all trees at once."""

    feature: np.ndarray  # column of X a split reads; 0 at a leaf
    threshold: np.ndarray
    child: np.ndarray  # node i's left child at 2i + 1, right at 2i; a leaf's is itself
    value: np.ndarray  # leaf score
    roots: np.ndarray  # each tree's root node
    depth: int  # of the deepest tree


def _out_of_range(values: np.ndarray, bound: int):
    """The first of values outside range(bound), or None."""
    bad = values[(values < 0) | (values >= bound)]
    return int(bad[0]) if bad.size else None


def _flatten(root: dict, columns=None) -> _FlatTree:
    """One tree as a forest of one. columns maps the tree's feature indices
    to columns of X; a split on a feature outside columns raises
    ValueError."""
    nodes, depths = [root], [0]
    feature, threshold, child, value = [], [], [], []
    for i, node in enumerate(nodes):
        if "feature" in node:
            feature.append(json_int(node["feature"], "feature"))
            threshold.append(float(node["threshold"]))
            child += [len(nodes) + 1, len(nodes)]
            value.append(0.0)
            nodes += [node["left"], node["right"]]
            depths += [depths[i] + 1] * 2
        else:
            feature.append(0)
            threshold.append(0.0)
            child += [i, i]
            value.append(float(node["score"]))
    feature, child = np.array(feature, dtype=np.intp), np.array(child, dtype=np.intp)
    if columns is not None:
        columns = np.asarray(columns, dtype=np.intp)
        split = child[1::2] != np.arange(len(nodes))
        bad = _out_of_range(feature[split], len(columns))
        if bad is not None:
            raise ValueError(f"a tree splits on feature {bad}, outside its {len(columns)} features")
        feature[split] = columns[feature[split]]
    return _FlatTree(feature, np.array(threshold), child, np.array(value),
                     np.zeros(1, dtype=np.intp), max(depths))


def _forest(trees: list[_FlatTree]) -> _FlatTree:
    """The trees as one node table, each tree's node ids shifted past the
    nodes of the trees before it."""
    shift = np.cumsum([0] + [len(tree.value) for tree in trees[:-1]])
    return _FlatTree(
        np.concatenate([tree.feature for tree in trees]),
        np.concatenate([tree.threshold for tree in trees]),
        np.concatenate([tree.child + s for tree, s in zip(trees, shift)]),
        np.concatenate([tree.value for tree in trees]),
        np.concatenate([tree.roots + s for tree, s in zip(trees, shift)]),
        max(tree.depth for tree in trees))


def _flat_scores(forest: _FlatTree, X: np.ndarray) -> np.ndarray:
    """Per row of X, the sum over the forest's trees, in tree order, of the
    value of the leaf the row reaches.

    Rows are scored in blocks of at most _SCORE_BLOCK (tree, row) pairs,
    and at least one row. In a block every tree steps one level at a time,
    reading the block's features with 1-D take on flat indices; a value
    that is not <= the threshold (NaN included) goes right.
    """
    n, d = X.shape
    out = np.empty(n)
    step = max(1, _SCORE_BLOCK // len(forest.roots))
    for lo in range(0, n, step):
        rows = min(step, n - lo)
        block = X[lo:lo + rows].ravel()  # X[lo + r, f] at r * d + f
        row_at = np.arange(rows) * d
        node = forest.roots[:, None]  # (trees, 1) until the first step
        for _ in range(forest.depth):
            go_left = block.take(row_at + forest.feature.take(node)) <= forest.threshold.take(node)
            node = forest.child.take(2 * node + go_left)
        out[lo:lo + rows] = forest.value.take(node).sum(axis=0)
    return out


class DecisionTreePredictor:
    """Depth-bounded binary tree grown by greedy entropy reduction."""

    kind = "tree"

    def __init__(self, root: dict, encoder: FeatureEncoder, provenance: str = ""):
        self.root = root
        self.encoder = encoder
        self.provenance = provenance
        self._flat = _flatten(root, np.arange(encoder.width))

    def depth(self) -> int:
        return self._flat.depth

    def scores(self, ds: Dataset) -> np.ndarray:
        return _flat_scores(self._flat, self.encoder.transform(ds))

    def predict(self, ds: Dataset) -> np.ndarray:
        return _labels_from_scores(self.scores(ds))

    def to_json(self) -> dict:
        return {"type": "tree", "root": self.root, "provenance": self.provenance}


class BaggedTreesPredictor:
    """Majority vote over trees fit on bootstrap resamples with feature subsets."""

    kind = "bagged_trees"

    def __init__(self, trees, feature_subsets, encoder: FeatureEncoder, provenance=""):
        if len(trees) != len(feature_subsets):
            raise ValueError(f"{len(trees)} trees but {len(feature_subsets)} feature subsets")
        if not trees:
            raise ValueError("a bag needs at least one tree")
        self.trees = trees
        self.feature_subsets = [np.asarray(s, dtype=np.int64) for s in feature_subsets]
        self.encoder = encoder
        self.provenance = provenance
        for subset in self.feature_subsets:
            bad = _out_of_range(subset, encoder.width)
            if bad is not None:
                raise ValueError(f"feature subset index {bad} is outside the "
                                 f"{encoder.width} encoded features")
        forest = _forest([_flatten(root, subset)
                          for root, subset in zip(trees, self.feature_subsets)])
        self._flat = forest._replace(value=(forest.value >= 0.5) * 1.0)  # a leaf's vote

    def scores(self, ds: Dataset) -> np.ndarray:
        return _flat_scores(self._flat, self.encoder.transform(ds)) / len(self.trees)

    def predict(self, ds: Dataset) -> np.ndarray:
        return _labels_from_scores(self.scores(ds))

    def to_json(self) -> dict:
        return {
            "type": "bagged_trees",
            "trees": self.trees,
            "feature_subsets": [s.tolist() for s in self.feature_subsets],
            "provenance": self.provenance,
        }


def _fit_bagged(XT: np.ndarray, y: np.ndarray, spec: LearnerSpec):
    """Trees on bootstrap samples of XT's columns and feature subsets, drawn
    per tree from default_rng([seed, tree index]), grown _pass_trees(n) at a
    time as one forest.

    A pass lays its trees side by side: tree t's bootstrap ids are shifted
    by t * n, row c of the pass's features holds each tree's c-th lowest
    feature of its subset, and the labels repeat once per tree.
    """
    d, n = XT.shape
    k = max(1, int(round(spec.feature_fraction * d)))
    order = _presort(XT)
    trees, subsets = [], []
    per_pass = _pass_trees(n)
    for t0 in range(0, spec.n_trees, per_pass):
        count = min(per_pass, spec.n_trees - t0)
        copies = np.empty((count, n), dtype=np.intp)
        for t in range(count):
            rng = np.random.default_rng([spec.seed & _SEED_MASK, t0 + t])
            copies[t] = np.bincount(rng.integers(0, n, size=n), minlength=n)
            subsets.append(np.sort(rng.choice(d, size=k, replace=False)))
        columns = np.array(subsets[t0:]).T  # (k, count)
        shift = (np.arange(count) * n)[:, None]
        sample = np.empty((k, count * n), dtype=order.dtype)
        for c in range(k):
            ids = order[columns[c]] + shift
            sample[c] = np.repeat(ids.ravel(), copies.take(ids).ravel())  # as often as drawn
        X = XT[columns].reshape(k, count * n)
        trees += _grow_tree(X, np.tile(y, count), sample, np.full(count, n), spec.max_depth)
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

    X = encoder.transform(ds.take(mask))
    if spec.kind == "logistic":
        w, b, mean, scale = _fit_logistic(X, y, spec)
        return LogisticPredictor(w, b, mean, scale, encoder, provenance)
    XT = np.ascontiguousarray(X.T)  # trees read one feature at a time
    del X  # one copy of the features while the trees grow
    finite = np.isfinite(XT).all(axis=1)
    if not finite.all():
        name = encoder.feature_names[int(np.argmin(finite))]
        raise ValueError(f"feature {name!r} has a non-finite value; trees split finite values only")
    if spec.kind == "tree":
        [root] = _grow_tree(XT, y, _presort(XT), [len(y)], spec.max_depth)
        return DecisionTreePredictor(root, encoder, provenance)
    trees, subsets = _fit_bagged(XT, y, spec)
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
