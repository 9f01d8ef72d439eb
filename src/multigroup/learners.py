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

from .data import _SEED_MASK, CATEGORICAL, NUMERIC, AttributeSchema, Dataset, check_keys, \
    json_float, json_int
from .groups import Group, GroupTree


class EmptyGroupError(ValueError):
    """Raised when asked to fit on a group with no training examples."""


@dataclass(frozen=True)
class LearnerSpec:
    """Hypothesis-class choice plus hyperparameters.

    kind: "constant" | "logistic" | "tree" | "bagged_trees".
    solver: how a logistic fit is found. "newton_margin" (the default) is
    Newton/IRLS that also stops once every training row is on its label's
    side by ``_SEPARATED_MARGIN``; "newton" is the same loop without that
    stop, the default before it existed; "gd" is full-batch gradient
    descent, the only solver before the field existed (see
    ``modelio.stored_learner``).
    """

    kind: str
    max_depth: int = 2
    learning_rate: float = 0.1
    iterations: int = 2000
    tolerance: float = 1e-9
    n_trees: int = 25
    feature_fraction: float = 0.5
    seed: int = 0
    solver: str = "newton_margin"

    def __post_init__(self):
        if self.kind not in ("constant", "logistic", "tree", "bagged_trees"):
            raise ValueError(f"unknown learner kind {self.kind!r}")
        if self.solver not in ("newton_margin", "newton", "gd"):
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
        for key in ("learning_rate", "tolerance", "feature_fraction"):
            if key in doc:
                doc[key] = json_float(doc[key], key)
        return LearnerSpec(**doc)


class FeatureEncoder:
    """Schema-derived design matrix: one-hot categoricals plus raw numerics.

    The encoding depends only on the schema, so train and test splits that
    share a schema encode consistently. ``encode`` transforms a dataset's
    base once per plan and hands each subset its rows of the result.
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
        # transform's output depends on the plan and the data alone
        self._memo_key = ("encoded", tuple(self._plan))

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

    def encode(self, ds: Dataset) -> np.ndarray:
        """transform(ds), bit for bit, read from the one transform of ds's
        base that every encoder with the same plan shares. Do not modify
        the result: for a base it is the shared matrix itself."""
        return ds.from_base(self._memo_key, self._transform_once)

    def _transform_once(self, base: Dataset) -> np.ndarray:
        X = self.transform(base)
        X.flags.writeable = False
        return X


class _Predictor:
    """A fitted learner: each class has its own ``scores``, and a score of at
    least 0.5 predicts 1 (a tie predicts 1)."""

    def predict(self, ds: Dataset) -> np.ndarray:
        return (self.scores(ds) >= 0.5).astype(np.int64)


class ConstantPredictor(_Predictor):
    """Predicts the training majority label everywhere; score = label mean."""

    kind = "constant"

    def __init__(self, score_value: float, provenance: str = ""):
        self.score_value = float(score_value)
        self.provenance = provenance
        if not 0.0 <= self.score_value <= 1.0:
            raise ValueError(f"a constant score must be in [0, 1], got {self.score_value!r}")

    def scores(self, ds: Dataset) -> np.ndarray:
        return np.full(ds.n, self.score_value)

    def to_json(self) -> dict:
        return {"type": "constant", "score": self.score_value, "provenance": self.provenance}


def sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) without overflow: exp is only taken of -|z|."""
    e = np.exp(-np.abs(z))
    denominator = 1.0 + e
    return np.where(z >= 0, 1.0 / denominator, e / denominator)


def _mean_log_loss(z: np.ndarray, flips: np.ndarray) -> float:
    """Mean logistic loss of margins z, where flips = 1 - 2y is -1 at a
    positive label and 1 at a negative one."""
    return float(np.mean(np.logaddexp(0.0, flips * z)))


def logistic_loss(weights: np.ndarray, intercept: float, X: np.ndarray, y: np.ndarray) -> float:
    """Mean logistic loss, computed via logaddexp for stability."""
    return _mean_log_loss(X @ weights + intercept, 1.0 - 2.0 * y)

def logistic_gradient(
    weights: np.ndarray, intercept: float, X: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, float]:
    z = X @ weights + intercept
    resid = sigmoid(z) - y
    return X.T @ resid / len(y), float(np.mean(resid))


class LogisticPredictor(_Predictor):
    """Linear model on standardized features, fit by Newton/IRLS or
    full-batch gradient descent (``LearnerSpec.solver``).

    It scores raw encoded rows with the standardization folded into the
    weights, ``x @ (weights / scale) + intercept - mean @ (weights / scale)``,
    which agrees with the standardized margin up to rounding.
    """

    kind = "logistic"

    def __init__(self, weights, intercept, mean, scale, encoder: FeatureEncoder, provenance=""):
        self.weights = np.asarray(weights, dtype=np.float64)
        self.intercept = float(intercept)
        self.mean = np.asarray(mean, dtype=np.float64)
        self.scale = np.asarray(scale, dtype=np.float64)
        self.encoder = encoder
        self.provenance = provenance
        for name in ("weights", "mean", "scale"):
            values = getattr(self, name)
            if values.shape != (encoder.width,) or not np.isfinite(values).all():
                raise ValueError(f"logistic {name} must be {encoder.width} finite numbers")
        if not (self.scale > 0.0).all():
            raise ValueError("logistic scale must be > 0")
        if not np.isfinite(self.intercept):
            raise ValueError(f"logistic intercept must be finite, got {self.intercept!r}")
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            self._folded = self.weights / self.scale
            self._offset = float(self.intercept - self.mean @ self._folded)
        if not (np.isfinite(self._folded).all() and np.isfinite(self._offset)):
            raise ValueError(f"logistic fit {provenance!r}: weights / scale or "
                             "intercept - mean @ (weights / scale) is not finite")

    def scores(self, ds: Dataset) -> np.ndarray:
        return sigmoid(self.encoder.encode(ds) @ self._folded + self._offset)

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
# On separable rows the log-loss has no minimizer, so Newton pushes the
# weights out until the gradient stop or the step cap ends it (the full
# 1000 steps on some census groups of 15-54 rows). "newton_margin" stops
# once every row's margin is >= 5 on its label's side: each row is then
# predicted right, with a loss of at most log(1 + e^-5) < 0.0068, and only
# separable rows get there.
_SEPARATED_MARGIN = 5.0
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
    ``spec.iterations`` steps; under ``"newton_margin"`` also before a step
    whose every row has margin >= ``_SEPARATED_MARGIN`` on its label's side.
    So a fit that stops there after k solves is the ``"newton"`` fit with
    ``iterations=k``.
    """
    separated = -_SEPARATED_MARGIN if spec.solver == "newton_margin" else -np.inf
    n, d = X.shape
    A = np.ones((n, d + 1))
    np.subtract(X, mean, out=A[:, :d])
    A[:, :d] /= scale
    flips = 1.0 - 2.0 * y
    ridge = _RIDGE * np.eye(d + 1)
    theta = np.zeros(d + 1)
    z = np.zeros(n)  # A @ theta, the margins of theta; an accepted trial's are kept
    loss = _mean_log_loss(z, flips)
    for _ in range(spec.iterations):
        if (flips * z).max() <= separated:  # flips * z is -margin on the label's side
            break
        p = sigmoid(z)
        grad = A.T @ (p - y) / n
        if float(np.sqrt(np.dot(grad, grad))) < spec.tolerance:
            break
        weight = p * (1.0 - p) / n
        hessian = ridge.copy()
        for lo in range(0, n, _BLOCK):
            block = A[lo:lo + _BLOCK]
            hessian += (block.T * weight[lo:lo + _BLOCK]) @ block
        step = np.linalg.solve(hessian, grad)
        for _ in range(_MAX_HALVINGS):
            trial = theta - step
            trial_z = A @ trial
            trial_loss = _mean_log_loss(trial_z, flips)
            if trial_loss <= loss:
                break
            step = step / 2.0
        if not trial_loss < loss:
            break
        theta, z, loss = trial, trial_z, trial_loss
    return theta[:d], float(theta[d])


def _fit_logistic(X: np.ndarray, y: np.ndarray, spec: LearnerSpec):
    mean = X.mean(axis=0)
    scale = X.std(axis=0)
    scale[scale == 0.0] = 1.0
    if spec.solver == "gd":
        w, b = _gradient_descent((X - mean) / scale, y, spec)
    else:
        w, b = _newton(X, mean, scale, y, spec)
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


_TINY = np.nextafter(0.0, 1.0)  # the least positive float: p = 0 alone is raised to it

# The heaviest node, in bootstrap weight N, whose split search skips cuts
# inside runs of same-label samples (_best_splits). Moving mass of one label
# across a cut changes the children's weighted entropy E by a concave
# function whose second derivative is at most -1/N^2 in a mixed node, so a
# cut between two such samples, each of weight >= 1, has E at least 1/(2N^2)
# above the better of the cuts at its run's ends: a gain lower by at least
# 1/(2N^3) >= 2^-43 here. _cut_gains computes a gain to within 20 units of
# 2^-53: one rounding of p moves the entropy by at most ln(N) < 10 of them,
# and numpy's log, the products, sums and the division add under 10 more
# (random cuts of up to 2^14 samples measured under 9 in all). Two computed
# gains are then ordered as the exact ones whenever these differ by 2^-47,
# a sixteenth of the gap, so no skipped cut is, or ties, the first maximum.
# In a one-class node every gain is 0, and a node's first cut is never
# skipped.
_CONCAVE_WEIGHT = 1 << 14


def _entropy_in_range(p: np.ndarray) -> np.ndarray:
    """Binary entropy in nats of p in [0, 1], in two new buffers.

    0 log 0 is read as 0 * log(_TINY), a zero of either sign, and
    subtracting it from 0.0 gives +0.0, so p = 0 and p = 1 give +0.0.
    """
    q = 1.0 - p
    q_log_q = np.maximum(q, _TINY)
    np.log(q_log_q, out=q_log_q)
    q_log_q *= q
    out = np.maximum(p, _TINY, out=q)
    np.log(out, out=out)
    out *= p
    np.subtract(0.0, out, out=out)  # 0.0 - x keeps a zero term at +0.0
    out -= q_log_q
    return out


def _presort(XT: np.ndarray, rows=None) -> np.ndarray:
    """Order of each row of XT (one feature per row), or of the given rows
    of it, ascending.

    Ties may come in any order: a split reads class counts only at the
    boundaries between distinct values, and those do not depend on it.
    """
    rows = range(len(XT)) if rows is None else rows
    order = np.empty((len(rows), XT.shape[1]), dtype=np.int32 if XT.shape[1] < 2**31 else np.intp)
    for j, row in enumerate(rows):
        order[j] = np.argsort(XT[row])
    return order


def _best_splits(X, wy, order, starts, lengths, sizes, pos):
    """Best (feature, threshold) of each node of one forest level, by
    entropy reduction.

    The level's nodes are contiguous segments of order's columns (start,
    length), and row c of a segment lists its sample ids sorted by feature
    c, which is X[c]; ids index the columns of X and wy. wy holds each id's
    weight, how often a bootstrap drew it, as its real part and its
    weighted label as its imaginary part, so one cumulative sum counts
    both. A node's size and positives are its weights and weighted labels
    in total. Both are integers, so every count below is exact and equals
    the count of a sample that repeats each id as often as drawn.
    The candidate thresholds are the boundaries between distinct sorted
    values inside a node. Features are scanned in index order and
    thresholds in ascending order, so ties resolve to the lowest feature
    index and lowest threshold. In a node of weight at most _CONCAVE_WEIGHT
    a cut is not scored when the cuts either side of it are candidates too
    and the two samples between them have the same label: it scores below
    one of those (Fayyad and Irani 1992), so the first maximum is the same
    as over every candidate. Rows of order are scored a block at a time,
    as many per block as keep it within _SPLIT_BLOCK values, and read X
    with 1-D take on flat indices.

    Returns per node: the gain (-inf if no feature has two distinct
    values), the feature, the last position left of the cut, the threshold
    (the midpoint of the values either side of the cut), and the size and
    positives left of it.
    """
    k, m = order.shape
    count = len(starts)
    sizes, pos = np.asarray(sizes, dtype=np.float64), np.asarray(pos, dtype=np.float64)
    step = _block_rows(k, m)
    # Per position of a block's rows laid end to end: its node, the ids
    # left of a cut after it, whether a cut after it is inside its node,
    # and whether its node may skip cuts inside runs.
    node_of = np.tile(np.repeat(np.arange(count), lengths), step)
    ids_left_at = np.tile(np.arange(1, m + 1) - np.repeat(starts, lengths), step)
    inside = np.tile(ids_left_at[:m] < np.repeat(lengths, lengths), step)[:-1]
    light = np.tile(np.repeat(sizes <= _CONCAVE_WEIGHT, lengths), step)
    row_at = np.arange(k)[:, None] * X.shape[1]  # flat index of X[c, 0]
    parent = _entropy_in_range(pos / sizes)
    gain = np.full(count, -np.inf)
    feature, at = np.zeros(count, dtype=np.intp), np.zeros(count, dtype=np.intp)
    lo, hi = np.zeros(count), np.zeros(count)
    size_left, pos_left = np.zeros(count), np.zeros(count)
    cum = np.zeros(step * m + 1, dtype=np.complex128)  # cum[f] = wy before flat position f
    cum_w, cum_yw = cum.real, cum.imag
    for c0 in range(0, k, step):
        ids = order[c0:c0 + step]
        rows, width = len(ids), ids.size
        values = X.take(ids + row_at[c0:c0 + step]).ravel()
        drawn = wy.take(ids).ravel()
        np.cumsum(drawn, out=cum[1:width + 1])  # rows end to end
        cut = (values[:-1] < values[1:]) & inside[:width - 1]
        if width > 3:  # cut f + 1 is inside a run when cuts f and f + 2 are candidates
            label = drawn.imag > 0
            inner = cut[:-2] & cut[2:]
            inner &= label[1:-2] == label[2:-1]
            inner &= light[1:width - 2]
            cut[1:-1] &= ~inner
        f = np.flatnonzero(cut)
        if f.size == 0:
            continue
        s = node_of[f]
        gains = _cut_gains(*_left_of(f, ids_left_at, cum_w, cum_yw), s, sizes, pos, parent)
        # The cuts run by row, then by node: the best gain of each (row,
        # node) segment of them, then of each node, and the first cut that
        # reaches it, in the first segment that does.
        seg_lo = np.searchsorted(f, (np.arange(rows)[:, None] * m + starts).ravel())
        cut_in = seg_lo < np.append(seg_lo[1:], f.size)
        seg_top = np.full(rows * count, -np.inf)
        seg_top[cut_in] = np.maximum.reduceat(gains, seg_lo[cut_in])
        seg_top = seg_top.reshape(rows, count)
        top = seg_top.max(axis=0)
        won = np.flatnonzero(top > gain)
        if won.size == 0:
            continue
        hit = np.flatnonzero(gains == top[s])
        first_row = np.argmax(seg_top[:, won] == top[won], axis=0)
        k_won = hit[np.searchsorted(hit, seg_lo[first_row * count + won])]
        gain[won] = top[won]
        f = f[k_won]
        feature[won] = c0 + f // m
        at[won] = f % m
        lo[won] = values[f]
        hi[won] = values[f + 1]
        size_left[won], pos_left[won] = _left_of(f, ids_left_at, cum_w, cum_yw)
    threshold = lo + (hi - lo) / 2.0
    rounded_up = threshold >= hi  # midpoint rounded up onto the right value
    threshold[rounded_up] = lo[rounded_up]
    return gain, feature, at, threshold, size_left, pos_left


def _left_of(f, ids_left_at, cum_w, cum_yw):
    """The weight and the weighted positives left of a cut after each flat
    position f, from the start of f's segment."""
    after = f + 1
    first = after - ids_left_at[f]  # flat position where f's segment starts
    n_left = cum_w[after]
    n_left -= cum_w[first]
    p_left = cum_yw[after]
    p_left -= cum_yw[first]
    return n_left, p_left


def _cut_gains(n_left, p_left, s, sizes, pos, parent):
    """The entropy reduction of cuts in nodes s with the given size and
    positives left of them, computed in place in a few buffers: the
    level's largest arrays, so the fewer the better."""
    n_right = sizes[s]
    n_right -= n_left
    p_right = pos[s]
    p_right -= p_left
    p_left /= n_left  # the fractions of positives
    p_right /= n_right
    gains = _entropy_in_range(p_left)
    gains *= n_left
    h_right = _entropy_in_range(p_right)
    h_right *= n_right
    gains += h_right
    gains /= sizes[s]
    return np.subtract(parent[s], gains, out=gains)


def _grow_tree(X: np.ndarray, y: np.ndarray, w: np.ndarray, order: np.ndarray, lengths,
               max_depth: int) -> list[dict]:
    """Grow a forest of depth-bounded trees by greedy entropy reduction, all
    its trees a level at a time; returns their roots.

    order holds the trees' samples side by side, one segment of the given
    length per tree, as (features, samples) ids of the columns of X, y and
    w: row c of a segment is sorted by feature c, which is X[c]. An id
    appears once in a segment and stands for w[id] > 0 copies of its row,
    its bootstrap count. A node is a segment and its cuts lie inside it, so
    trees never mix. A split keeps each side's ids in the order they had,
    so no node sorts: the nodes of the next level are again sorted segments
    of one array. A node is a leaf at max_depth, when its labels agree, or
    when no split gains more than _MIN_GAIN. order has at least one row.
    """
    k, m = order.shape
    lengths = np.asarray(lengths)
    wy = w + 1j * (y * w)
    starts = np.cumsum(lengths) - lengths
    total = np.add.reduceat(wy.take(order[0]), starts)
    sizes, pos = total.real, total.imag
    roots = [{} for _ in lengths]
    nodes = roots
    for depth in range(max_depth):
        gain, feature, at, threshold, size_left, pos_left = _best_splits(
            X, wy, order, starts, lengths, sizes, pos)
        side = np.zeros(len(y), dtype=np.int8)  # 1, 2: goes to a left, right node to split
        grow = ([], [])
        for s, node in enumerate(nodes):
            if not gain[s] > _MIN_GAIN:
                node["score"] = float(pos[s] / sizes[s])
                continue
            start, cut, end = int(starts[s]), int(at[s]) + 1, int(starts[s] + lengths[s])
            node["feature"] = int(feature[s])
            node["threshold"] = float(threshold[s])
            sides = ((cut - start, float(size_left[s]), float(pos_left[s]), start, cut),
                     (end - cut, float(sizes[s] - size_left[s]), float(pos[s] - pos_left[s]),
                      cut, end))
            for b, (length, size, p, first, last) in enumerate(sides):
                child = node["left" if b == 0 else "right"] = {}
                if depth + 1 < max_depth and 0.0 < p < size:
                    side[order[feature[s], first:last]] = b + 1
                    grow[b].append((child, length, size, p))
                else:
                    child["score"] = p / size
        children = grow[0] + grow[1]
        if not children:
            break
        nodes = [child for child, _, _, _ in children]
        lengths = np.array([length for _, length, _, _ in children])
        sizes = np.array([size for _, _, size, _ in children])
        pos = np.array([p for _, _, _, p in children])
        starts = np.cumsum(lengths) - lengths
        left = sum(length for _, length, _, _ in grow[0])
        parted = np.empty((k, lengths.sum()), dtype=order.dtype)
        step = _block_rows(k, m)
        for c0 in range(0, k, step):
            block = order[c0:c0 + step]
            to = side.take(block).ravel()
            parted[c0:c0 + step, :left] = np.compress(to == 1, block).reshape(len(block), -1)
            parted[c0:c0 + step, left:] = np.compress(to == 2, block).reshape(len(block), -1)
        del block  # a view that would keep this level's order alive through the next
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


def _flat_forest(roots, subsets) -> _FlatTree:
    """The trees as one node table, built in one pass over their nodes.
    subsets[t] maps tree t's feature indices to columns of X.

    A split's feature must be an integer and its threshold and a leaf's
    score numbers; a tree that breaks this raises as it is read. Then, in
    each tree, a threshold that is not finite, a leaf score outside [0, 1]
    and a split on a feature outside its subset raise ValueError, in that
    order, the first faulty tree's fault first, before a later tree's
    unreadable field.
    """
    first, depth = [], 0
    feature, threshold, child, value = [], [], [], []
    unreadable = None
    for root in roots:
        first.append(len(value))
        level, below = [root], 0
        ids = len(value) + 1  # the ids handed out so far, in breadth-first order
        try:
            while level:
                deeper = []
                for node in level:
                    if "feature" in node:
                        feature.append(json_int(node["feature"], "feature", int64=True))
                        threshold.append(float(json_float(node["threshold"], "threshold")))
                        child += (ids + 1, ids)
                        ids += 2
                        value.append(0.0)
                        deeper += (node["left"], node["right"])
                    else:
                        i = len(value)
                        feature.append(0)
                        threshold.append(0.0)
                        child += (i, i)
                        value.append(float(json_float(node["score"], "score")))
                level, below = deeper, below + bool(deeper)
        except (KeyError, TypeError, ValueError) as exc:
            unreadable, count = exc, first.pop()  # check the trees read in full first
            break
        depth = max(depth, below)
    else:
        count = len(value)
    feature = np.array(feature[:count], dtype=np.intp)
    threshold = np.array(threshold[:count])
    child = np.array(child[:2 * count], dtype=np.intp)
    value = np.array(value[:count])
    first = np.array(first, dtype=np.intp)
    tree_of = np.searchsorted(first, np.arange(count), side="right") - 1
    widths = np.array([len(subset) for subset in subsets[:len(first)]], dtype=np.intp)
    split = child[1::2] != np.arange(count)
    bad_threshold = ~np.isfinite(threshold)
    bad_value = ~((0.0 <= value) & (value <= 1.0))
    bad_feature = split & ((feature < 0) | (feature >= widths[tree_of]))
    faulty = bad_threshold | bad_value | bad_feature
    if faulty.any():
        t = tree_of[np.argmax(faulty)]
        in_tree = tree_of == t
        if (bad := bad_threshold & in_tree).any():
            raise ValueError(f"a tree splits at threshold {threshold[bad][0]}, which is not finite")
        if (bad := bad_value & in_tree).any():
            raise ValueError(f"a tree leaf score must be in [0, 1], got {value[bad][0]}")
        bad = feature[bad_feature & in_tree][0]
        raise ValueError(f"a tree splits on feature {bad}, outside its {widths[t]} features")
    if unreadable is not None:
        raise unreadable
    feature[split] = np.concatenate(subsets).astype(np.intp)[
        (np.cumsum(widths) - widths)[tree_of[split]] + feature[split]]
    return _FlatTree(feature, threshold, child, value, first, depth)


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


class DecisionTreePredictor(_Predictor):
    """Depth-bounded binary tree grown by greedy entropy reduction."""

    kind = "tree"

    def __init__(self, root: dict, encoder: FeatureEncoder, provenance: str = ""):
        self.root = root
        self.encoder = encoder
        self.provenance = provenance
        self._flat = _flat_forest([root], [np.arange(encoder.width)])

    def depth(self) -> int:
        return self._flat.depth

    def scores(self, ds: Dataset) -> np.ndarray:
        return _flat_scores(self._flat, self.encoder.encode(ds))

    def to_json(self) -> dict:
        return {"type": "tree", "root": self.root, "provenance": self.provenance}


class BaggedTreesPredictor(_Predictor):
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
        forest = _flat_forest(trees, self.feature_subsets)
        self._flat = forest._replace(value=(forest.value >= 0.5) * 1.0)  # a leaf's vote

    def scores(self, ds: Dataset) -> np.ndarray:
        return _flat_scores(self._flat, self.encoder.encode(ds)) / len(self.trees)

    def to_json(self) -> dict:
        return {
            "type": "bagged_trees",
            "trees": self.trees,
            "feature_subsets": [s.tolist() for s in self.feature_subsets],
            "provenance": self.provenance,
        }


def _varying(XT: np.ndarray):
    """The rows of XT that are not constant, the one kind of feature a tree
    can cut, as (their indices in XT, their presort). The presort has one
    row, np.arange, when no row varies."""
    features = np.flatnonzero(XT.max(axis=1) > XT.min(axis=1))
    if not len(features):
        return features, np.arange(XT.shape[1])[None, :]
    return features, _presort(XT, features)


def _grow_pass(XT, features, order, y, copies, rows, max_depth: int) -> list[dict]:
    """Trees grown side by side as one forest (_grow_tree): tree t draws
    row i of y copies[t, i] times and searches XT's rows features[rows[:,
    t]], which order presorts, so a split's feature is an index into
    rows[:, t]. An entry len(features) of rows is a row of zeros, which has
    no cut; it pads a tree with fewer features to search than the others.

    The forest's ids number the drawn (tree, row) pairs, tree by tree and
    in row order within a tree, so its arrays hold drawn rows only. Row c
    of the sample holds each tree's ids sorted by its c-th feature.
    """
    count, n = copies.shape
    drawn = copies.ravel() > 0
    pairs = np.flatnonzero(drawn)  # id -> t * n + i
    lengths = np.count_nonzero(copies, axis=1)
    ends = np.cumsum(lengths)
    pad = rows == len(features)
    X = np.zeros((len(rows), len(pairs)))
    for c, t in zip(*np.nonzero(~pad)):
        lo, hi = ends[t] - lengths[t], ends[t]
        XT[features[rows[c, t]]].take(pairs[lo:hi] - t * n, out=X[c, lo:hi])
    slot = np.cumsum(drawn) - 1  # (t * n + i) -> id
    shift = (np.arange(count) * n)[:, None]
    sample = np.empty(X.shape, dtype=order.dtype)
    for c, row in enumerate(np.where(pad, 0, rows)):  # any order suits a row of zeros
        ids = (order[row] + shift).ravel()
        sample[c] = slot.take(ids[drawn.take(ids)])
    return _grow_tree(X, y.take(pairs % n), copies.take(pairs).astype(np.float64), sample,
                      lengths, max_depth)


def _relabel(node: dict, names) -> dict:
    """node, with the feature f of each split in its tree read as names[f]."""
    if "feature" in node:
        node["feature"] = int(names[node["feature"]])
        _relabel(node["left"], names)
        _relabel(node["right"], names)
    return node


def _fit_tree(XT: np.ndarray, y: np.ndarray, max_depth: int) -> dict:
    """One tree that splits on the row indices of XT: a forest of one
    (_grow_pass) that draws each column once and searches the rows that vary."""
    features, order = _varying(XT)
    rows = np.arange(max(1, len(features)))[:, None]
    [root] = _grow_pass(XT, features, order, y, np.ones((1, len(y)), dtype=np.intp), rows,
                        max_depth)
    return _relabel(root, features)


def _fit_bagged(XT: np.ndarray, y: np.ndarray, spec: LearnerSpec):
    """Trees on bootstrap samples of XT's columns and feature subsets, drawn
    per tree from default_rng([seed, tree index]), grown _pass_trees(n) at a
    time as one forest (_grow_pass).

    A tree searches only the features of its subset that vary on XT, in
    subset order, and its splits are then relabelled with their positions
    in the subset.
    """
    d, n = XT.shape
    k = min(d, max(1, int(round(spec.feature_fraction * d))))  # 0 only without features
    features, order = _varying(XT)
    row_of = np.full(d, len(features))  # each feature's index in features; a constant one's pads
    row_of[features] = np.arange(len(features))
    trees, subsets = [], []
    per_pass = _pass_trees(n)
    for t0 in range(0, spec.n_trees, per_pass):
        count = min(per_pass, spec.n_trees - t0)
        copies = np.empty((count, n), dtype=np.intp)
        for t in range(count):
            rng = np.random.default_rng([spec.seed & _SEED_MASK, t0 + t])
            copies[t] = np.bincount(rng.integers(0, n, size=n), minlength=n)
            subsets.append(np.sort(rng.choice(d, size=k, replace=False)))
        # row_of rises with the feature, so sorting keeps the varying in subset order;
        # a tree without features searches one row of zeros, and grows a leaf
        rows = np.full((max(k, 1), count), len(features))
        rows[:k] = np.sort(row_of[np.array(subsets[t0:])], axis=1).T
        rows = rows[:max(1, int((rows < len(features)).sum(axis=0).max()))]
        roots = _grow_pass(XT, features, order, y, copies, rows, spec.max_depth)
        trees += [_relabel(root, np.flatnonzero(row_of[subset] < len(features)))
                  for root, subset in zip(roots, subsets[t0:])]
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

    X = encoder.encode(ds.take(mask))
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
        return DecisionTreePredictor(_fit_tree(XT, y, spec.max_depth), encoder, provenance)
    trees, subsets = _fit_bagged(XT, y, spec)
    return BaggedTreesPredictor(trees, subsets, encoder, provenance)


_ROOT_ONLY = GroupTree(())  # the hierarchy of one group, every row


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

    def group_erm(self, spec: LearnerSpec, tree: GroupTree, g: Group):
        """The fit of spec on the rows of g, a node of tree, as
        ``tree.row_index`` gives them; EmptyGroupError if g has none."""
        key = (spec, g.id)
        found = self._store.get(key)
        if found is None:
            rows = tree.row_index(self.ds)[tree.index(g.id)]
            if not len(rows):
                raise EmptyGroupError(f"empty group: {g.id}")
            found = self._store[key] = fit(spec, self.ds.take(rows), np.ones(len(rows), dtype=bool),
                                           self.encoder, tag=g.id)
        return found

    def erm(self, spec: LearnerSpec):
        """The global fit, on every row: the same fit as any tree root's."""
        return self.group_erm(spec, _ROOT_ONLY, _ROOT_ONLY.root)

    def group_fits(self, spec: LearnerSpec, tree: GroupTree) -> dict:
        """The fit of spec on each node of tree that has rows, by node id;
        a node without rows has no fit."""
        rows = tree.row_index(self.ds)
        return {g.id: self.group_erm(spec, tree, g) for g, r in zip(tree.nodes, rows) if len(r)}


# ---------------------------------------------------------------------------
# Predictor (de)serialization
# ---------------------------------------------------------------------------

_PREDICTOR_KEYS = {
    "constant": {"score"},
    "logistic": {"weights", "intercept", "mean", "scale"},
    "tree": {"root"},
    "bagged_trees": {"trees", "feature_subsets"},
}


def predictor_from_json(doc: dict, encoder: FeatureEncoder):
    """The predictor a ``to_json`` document describes. A key that no
    predictor of its type writes, or a parameter that is not a JSON number
    (an integer for a feature index), raises ValueError naming it."""
    ptype = doc["type"]
    if ptype not in tuple(_PREDICTOR_KEYS):  # compares, so a list reads as unknown too
        raise ValueError(f"unknown predictor type {ptype!r}")
    check_keys(doc, _PREDICTOR_KEYS[ptype] | {"type", "provenance"}, "predictor")
    provenance = doc.get("provenance", "")
    if ptype == "constant":
        return ConstantPredictor(json_float(doc["score"], "score"), provenance)
    if ptype == "logistic":
        numbers = {key: [json_float(v, key) for v in doc[key]]
                   for key in ("weights", "mean", "scale")}
        return LogisticPredictor(numbers["weights"], json_float(doc["intercept"], "intercept"),
                                 numbers["mean"], numbers["scale"], encoder, provenance)
    if ptype == "tree":
        return DecisionTreePredictor(doc["root"], encoder, provenance)
    subsets = [[json_int(v, "feature_subsets", int64=True) for v in subset]
               for subset in doc["feature_subsets"]]
    return BaggedTreesPredictor(doc["trees"], subsets, encoder, provenance)
