"""Base learners: constant, logistic regression, entropy decision trees,
and bagged trees, all trained from scratch on encoded feature matrices.

Every fitted predictor exposes ``scores(ds) -> [0, 1]`` and
``predict(ds) -> {0, 1}``; thresholding scores at 0.5 (ties predict 1)
reproduces the labels. Fitting is deterministic given the spec.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import _SEED_MASK, CATEGORICAL, NUMERIC, AttributeSchema, Dataset, check_keys, \
    json_float, json_int, read_spec
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

    json_name = "learner"
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
        doc = {"kind": self.kind, **{name: getattr(self, name) for name in _WRITTEN[self.kind]}}
        if self.seed:
            doc["seed"] = self.seed
        return doc

    @staticmethod
    def from_json(doc) -> "LearnerSpec":
        return read_spec(LearnerSpec, doc)


# The fields a learner of each kind is written with, besides its kind and a
# nonzero seed
_WRITTEN = {"constant": (), "tree": ("max_depth",),
            "logistic": ("learning_rate", "iterations", "tolerance", "solver"),
            "bagged_trees": ("max_depth", "n_trees", "feature_fraction")}


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
_SPLIT_BLOCK = 1 << 14  # positions per _best_splits call in the split search
_SCORE_BLOCK = 1 << 14  # (tree, row) pairs per block when a forest scores rows


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


def _presort(XT: np.ndarray, rows) -> np.ndarray:
    """Order of each of the given rows of XT (one feature per row),
    ascending.

    Ties may come in any order: a split reads class counts only at the
    boundaries between distinct values, and those do not depend on it.
    """
    order = np.empty((len(rows), XT.shape[1]), dtype=np.int32 if XT.shape[1] < 2**31 else np.intp)
    for j, row in enumerate(rows):
        order[j] = np.argsort(XT[row])
    return order


def _best_splits(values, wy, ids, starts, lengths, sizes, pos):
    """Best cut of each node in one row of positions, by entropy reduction.

    The nodes are contiguous segments of ids (start, length), each listing
    positions of values and wy in ascending order of value. wy holds each
    position's weight, how often a bootstrap drew its sample, as its real
    part and its weighted label as its imaginary part, so one cumulative
    sum counts both. A node's size and positives are its weights and
    weighted labels in total. Both are integers, so every count below is
    exact and equals the count of a sample that repeats each position as
    often as drawn.
    The candidate thresholds are the boundaries between distinct sorted
    values inside a node, scanned in ascending order, so ties resolve to
    the lowest threshold. In a node of weight at most _CONCAVE_WEIGHT a cut
    is not scored when the cuts either side of it are candidates too and
    the two samples between them have the same label: it scores below one
    of those (Fayyad and Irani 1992), so the first maximum is the same as
    over every candidate.

    Returns per node: the gain (-inf if the node holds one value), the
    threshold (the midpoint of the values either side of the cut), and the
    size and positives left of it.
    """
    count = len(starts)
    node_of = np.repeat(np.arange(count), lengths)
    inside = np.ones(len(ids), dtype=bool)  # whether a cut after a position is inside its node
    inside[starts + lengths - 1] = False
    light = sizes <= _CONCAVE_WEIGHT  # whether a node may skip cuts inside runs (None: all may)
    light = None if light.all() else np.repeat(light, lengths)
    values = values.take(ids)
    drawn = wy.take(ids)
    cum = np.zeros(len(ids) + 1, dtype=np.complex128)  # cum[f] = wy before position f
    np.cumsum(drawn, out=cum[1:])
    f = _cuts(values, drawn.imag > 0, inside, light)
    del drawn  # the largest buffer, which the gains below do not read
    s = node_of.take(f)
    first = starts.take(s)  # the position where f's node starts
    gains = _cut_gains(*_between(first, f + 1, cum), s, sizes, pos, _entropy_in_range(pos / sizes))
    # The cuts run by node: the best gain of each node that has one, and
    # the first cut that reaches it.
    seg_lo = np.searchsorted(f, starts)
    won = np.flatnonzero(seg_lo < np.append(seg_lo[1:], f.size))
    gain = np.full(count, -np.inf)
    gain[won] = np.maximum.reduceat(gains, seg_lo[won])
    hit = np.flatnonzero(gains == gain.take(s))
    k_won = hit[np.searchsorted(hit, seg_lo[won])]
    f = f[k_won]
    threshold, size_left, pos_left = np.zeros(count), np.zeros(count), np.zeros(count)
    threshold[won] = _midpoints(values[f], values[f + 1])
    size_left[won], pos_left[won] = _between(first[k_won], f + 1, cum)
    return gain, threshold, size_left, pos_left


def _cuts(values, label, inside, light):
    """The positions f of candidate cuts, between f and f + 1: where the
    values rise inside a node, less those inside a run of one label (cut
    f + 1 when cuts f and f + 2 are candidates and the two samples between
    them share a label) in nodes that may skip them."""
    cut = values[:-1] < values[1:]
    cut &= inside[:-1]
    if len(values) > 3:
        inner = cut[:-2] & cut[2:]
        inner &= label[1:-2] == label[2:-1]
        if light is not None:
            inner &= light[1:-2]
        cut[1:-1] &= ~inner
    return np.flatnonzero(cut)


def _between(first, after, cum):
    """The weight and the weighted positives from position first up
    to after, read from cum, their cumulative sums as one complex array."""
    sums = cum.take(after)
    sums -= cum.take(first)
    return sums.real.copy(), sums.imag.copy()


def _cut_gains(n_left, p_left, s, sizes, pos, parent):
    """The entropy reduction of cuts in nodes s with the given size and
    positives left of them, computed in place in a few buffers: the
    level's largest arrays, so the fewer the better."""
    size = sizes.take(s)
    n_right = size - n_left
    p_right = pos.take(s)
    p_right -= p_left
    p_left /= n_left  # the fractions of positives
    p_right /= n_right
    gains = _entropy_in_range(p_left)
    gains *= n_left
    h_right = _entropy_in_range(p_right)
    h_right *= n_right
    gains += h_right
    gains /= size
    return np.subtract(parent.take(s), gains, out=gains)


class _Sorted(NamedTuple):
    """The features a forest searches by sorting, one slot per (tree,
    feature), in tree order and, within a tree, in feature order."""

    tree: np.ndarray
    feature: np.ndarray  # the slot's index among its tree's features, which a split records
    row: np.ndarray  # the slot's row of the value source
    ids: np.ndarray  # each slot's tree's ids in the order of the slot's values, slots end to end
    values: np.ndarray  # those values, in that order


class _Counted(NamedTuple):
    """The features a forest searches by counting, those that take two
    values, one pair per (tree, feature), and the ids of each pair's tree
    that hold the rarer of its two values."""

    tree: np.ndarray
    feature: np.ndarray
    row: np.ndarray
    lo: np.ndarray  # the lower value
    hi: np.ndarray  # the higher value
    rare_lo: np.ndarray  # whether the rarer value is the lower one
    ids: np.ndarray  # the ids holding the rarer value, pair after pair
    id_feature: np.ndarray  # each of those ids' pair's feature


def _midpoints(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The thresholds of cuts between values lo < hi: their midpoints, or
    lo where the midpoint rounds up onto hi."""
    threshold = lo + (hi - lo) / 2.0
    rounded_up = threshold >= hi
    threshold[rounded_up] = lo[rounded_up]
    return threshold


def _search(values, wy, order, lengths, sizes, pos):
    """_best_splits over segments laid end to end in one row of positions:
    segment i holds lengths[i] positions of order (None: every position,
    in order), which index values and wy, sorted by value, in a node of
    the given size and positives. Each call takes as many whole segments
    as fit in _SPLIT_BLOCK positions, and at least one. Returns per segment
    the gain, the threshold, and the size and positives left of the cut."""
    ends = np.cumsum(lengths)
    gain, threshold, size_left, pos_left = (np.empty(len(lengths)) for _ in range(4))
    i, a = 0, 0
    while i < len(lengths):
        j = max(i + 1, int(np.searchsorted(ends, a + _SPLIT_BLOCK, side="right")))
        b = int(ends[j - 1])
        chunk = np.arange(a, b) if order is None else order[a:b]
        gain[i:j], threshold[i:j], size_left[i:j], pos_left[i:j] = _best_splits(
            values, wy, chunk, ends[i:j] - lengths[i:j] - a, lengths[i:j], sizes[i:j], pos[i:j])
        i, a = j, b
    return gain, threshold, size_left, pos_left


def _pair_cuts(counted: _Counted, pair_at, key, ids, w, yw, node_tree, sizes, pos, parent):
    """The one cut of each pair in each node of its tree that holds both
    the pair's values: its gain, threshold, size and positives left, node,
    feature and row. ids hold the rarer values of the level's nodes, and
    key is each one's node times the width of pair_at, the pair of each
    (tree, feature) or -1, plus its pair's feature. The weight and weighted
    positives of the rarer value in a node are exact integer sums, so the
    lower value's are too."""
    width = pair_at.shape[1]
    n_rare = np.bincount(key, w.take(ids), len(sizes) * width)
    p_rare = np.bincount(key, yw.take(ids), len(sizes) * width)
    size = np.repeat(sizes, width)
    both = np.flatnonzero((0 < n_rare) & (n_rare < size))
    node, feature = np.divmod(both, width)
    pair = pair_at.take(node_tree.take(node) * width + feature)
    n_rare, p_rare, size = n_rare.take(both), p_rare.take(both), size.take(both)
    rare_lo = counted.rare_lo.take(pair)
    n_left = np.where(rare_lo, n_rare, size - n_rare)
    p_left = np.where(rare_lo, p_rare, pos.take(node) - p_rare)
    gain = _cut_gains(n_left, p_left.copy(), node, sizes, pos, parent)
    threshold = _midpoints(counted.lo.take(pair), counted.hi.take(pair))
    return gain, threshold, n_left, p_left, node, feature, counted.row.take(pair)


def _parted(order, ids, side, lengths):
    """The positions of order (None: every position of ids, in order) whose
    id has side 1, then those whose id has side 2, each in the order they
    had; lengths counts each."""
    out = np.empty(sum(lengths), dtype=np.intp)
    put = [0, lengths[0]]
    for a in range(0, len(ids) if order is None else len(order), _SPLIT_BLOCK):
        if order is None:
            chunk = np.arange(a, min(a + _SPLIT_BLOCK, len(ids)))
            to = side.take(ids[a:a + _SPLIT_BLOCK])
        else:
            chunk = order[a:a + _SPLIT_BLOCK]
            to = side.take(ids.take(chunk))
        for b in (0, 1):
            goes = to == b + 1
            done = put[b] + np.count_nonzero(goes)
            np.compress(goes, chunk, out=out[put[b]:done])
            put[b] = done
    return out


def _grow_forest(src, col, y, w, lengths, sort: _Sorted, counted: _Counted,
                 max_depth: int) -> list[dict]:
    """Grow a forest of depth-bounded trees by greedy entropy reduction, all
    its trees a level at a time; returns their roots.

    The forest's ids number its samples, tree t's the lengths[t] after
    tree t - 1's: id i stands for w[i] > 0 copies, its bootstrap count, of
    a row with label y[i] whose features are column col[i] of src. A tree
    searches the features of its slots in sort and of its pairs in
    counted, and feature f of tree t is the row of src its slot or pair
    names. At a level, each node has one segment of positions per slot of
    its tree, listing its ids in the order of the slot's values; the
    segments lie end to end, a node's in slot order, and level 0's
    positions are sort's. A split sends the ids whose value is at most its
    threshold left, and each side keeps its positions in the order they
    had, so no node sorts. A pair's one cut in a node that holds both its
    values is scored from the counts of its lower value (_pair_cuts). A
    node takes its first best cut, by feature, then threshold. A node is a
    leaf at max_depth, when its labels agree, or when no split gains more
    than _MIN_GAIN.
    """
    lengths = np.asarray(lengths, dtype=np.intp)
    trees = len(lengths)
    wy, yw = w + 1j * (y * w), y * w
    total = np.add.reduceat(wy, np.cumsum(lengths) - lengths)
    sizes, pos = total.real.copy(), total.imag.copy()
    slots_of = np.bincount(sort.tree, minlength=trees)
    first_slot = np.cumsum(slots_of) - slots_of
    wy_sorted = wy.take(sort.ids)
    order = None  # the level's positions; level 0 holds each once, in order
    live = np.arange(len(y))  # the ids in a node of the level, and their nodes
    live_node = node_at = np.repeat(np.arange(trees), lengths)  # node_at: -1 once an id leaves
    node_tree, node_len = np.arange(trees), lengths
    width = int(counted.feature.max()) + 1 if len(counted.feature) else 0
    pair_at = np.full((trees, width), -1)
    pair_at[counted.tree, counted.feature] = np.arange(len(counted.tree))
    ids, feature_of = counted.ids, counted.id_feature
    roots = [{} for _ in range(trees)]
    nodes = roots
    for depth in range(max_depth):
        count = len(nodes)
        parent = _entropy_in_range(pos / sizes)
        per_node = slots_of.take(node_tree)
        seg_node = np.repeat(np.arange(count), per_node)
        seg_slot = np.arange(len(seg_node)) + np.repeat(
            first_slot.take(node_tree) - (np.cumsum(per_node) - per_node), per_node)
        found = [(*_search(sort.values, wy_sorted, order, node_len.take(seg_node),
                           sizes.take(seg_node), pos.take(seg_node)),
                  seg_node, sort.feature.take(seg_slot), sort.row.take(seg_slot))]
        if len(ids):
            at_node = node_at.take(ids)
            if at_node.min() < 0:
                ids, feature_of, at_node = (np.compress(at_node >= 0, a)
                                            for a in (ids, feature_of, at_node))
            found.append(_pair_cuts(counted, pair_at, at_node * width + feature_of, ids, w, yw,
                                    node_tree, sizes, pos, parent))
        gain, threshold, size_left, pos_left, node, feature, row = (
            np.concatenate(field) for field in zip(*found))
        pick = np.lexsort((feature, -gain, node))  # by node, the best first, then lowest feature
        first = np.ones(len(pick), dtype=bool)
        first[1:] = node.take(pick[1:]) != node.take(pick[:-1])
        won = pick[first]
        best = np.full(count, -np.inf)
        best[node.take(won)] = gain.take(won)
        at = np.zeros(count, dtype=np.intp)  # each node's winning cut
        at[node.take(won)] = won
        child = np.full(2 * count, -1, dtype=np.intp)  # node s's left child at 2s, right at 2s + 1
        grow = ([], [])
        for s, tree_node in enumerate(nodes):
            if not best[s] > _MIN_GAIN:
                tree_node["score"] = float(pos[s] / sizes[s])
                continue
            c = at[s]
            tree_node["feature"] = int(feature[c])
            tree_node["threshold"] = float(threshold[c])
            sides = ((float(size_left[c]), float(pos_left[c])),
                     (float(sizes[s] - size_left[c]), float(pos[s] - pos_left[c])))
            for b, (size, p) in enumerate(sides):
                kid = tree_node["left" if b == 0 else "right"] = {}
                if depth + 1 < max_depth and 0.0 < p < size:
                    grow[b].append((2 * s + b, kid, size, p))
                else:
                    kid["score"] = p / size
        children = grow[0] + grow[1]
        if not children:
            break
        slot = np.array([i for i, _, _, _ in children])
        child[slot] = np.arange(len(children))
        cut = at.take(live_node)
        right = src.take(row.take(cut) * src.shape[1] + col.take(live)) > threshold.take(cut)
        node_at = np.full(len(y), -1)
        node_at[live] = live_node = child.take(2 * live_node + right)
        stays = live_node >= 0
        live, live_node = np.compress(stays, live), np.compress(stays, live_node)
        side = np.zeros(len(y), dtype=np.int8)  # 1, 2: in a left, right node of the next level
        side[live] = 1 + (live_node >= len(grow[0]))
        nodes = [kid for _, kid, _, _ in children]
        node_tree = node_tree.take(slot // 2)
        node_len = np.bincount(live_node, minlength=len(nodes))
        sizes = np.array([size for _, _, size, _ in children])
        pos = np.array([p for _, _, _, p in children])
        span = node_len * slots_of.take(node_tree)
        order = _parted(order, sort.ids, side, (int(span[:len(grow[0])].sum()),
                                                int(span[len(grow[0]):].sum())))
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


class _Features(NamedTuple):
    """The rows of XT that a tree can cut, those that vary on the fit's
    rows, in XT's order. One that takes three or more values is presorted;
    one that takes two is counted, from the rows that hold its rarer
    value (the lower one on a tie)."""

    rows: np.ndarray  # their indices in XT
    sorted: np.ndarray  # per feature, its row of order, or -1 if it takes two values
    order: np.ndarray  # the presort of those with three or more values
    lo: np.ndarray  # per feature, its least value
    hi: np.ndarray  # and its greatest
    rare_lo: np.ndarray  # per feature, whether its rarer value is its least
    rare: np.ndarray  # the rows holding a two-valued feature's rarer value, feature after feature
    rare_start: np.ndarray  # per feature, where its rows start in rare
    rare_len: np.ndarray  # and how many they are; 0 for a presorted feature


def _varying(XT: np.ndarray) -> _Features:
    """The features of XT that a tree can cut (_Features)."""
    lo, hi = XT.min(axis=1), XT.max(axis=1)
    at_lo, at_hi = XT == lo[:, None], XT == hi[:, None]
    rows = np.flatnonzero(hi > lo)
    n_lo = np.count_nonzero(at_lo, axis=1).take(rows)
    two = n_lo + np.count_nonzero(at_hi, axis=1).take(rows) == XT.shape[1]
    rare_lo = 2 * n_lo <= XT.shape[1]
    sorted_rows = rows[~two]
    rank = np.full(len(rows), -1)
    rank[~two] = np.arange(len(sorted_rows))
    row_dtype = np.int32 if XT.shape[1] < 2**31 else np.intp
    rare = [np.flatnonzero(at_lo[r] if low else at_hi[r]).astype(row_dtype)
            for r, low in zip(rows[two], rare_lo[two])]
    rare_len = np.zeros(len(rows), dtype=np.intp)
    rare_len[two] = [len(r) for r in rare]
    return _Features(rows, rank, _presort(XT, sorted_rows), lo.take(rows), hi.take(rows), rare_lo,
                     np.concatenate([np.zeros(0, dtype=row_dtype), *rare]),
                     np.cumsum(rare_len) - rare_len, rare_len)


def _grow_pass(XT, features: _Features, y, copies, searched, max_depth: int) -> list[dict]:
    """Trees grown side by side as one forest (_grow_forest): tree t draws
    row i of y copies[t, i] times and searches the features
    searched[t], indices into features, so a split's feature is an index
    into searched[t].

    The forest's ids number the drawn (tree, row) pairs, tree by tree and
    in row order within a tree, so its arrays hold drawn rows only. A slot
    lists its tree's ids in its feature's presort order; a pair, its
    tree's ids that hold its feature's rarer value.
    """
    count, n = copies.shape
    drawn = copies.ravel() > 0
    pairs = np.flatnonzero(drawn)  # id -> t * n + i
    lengths = np.count_nonzero(copies, axis=1)
    id_of = np.cumsum(drawn) - 1  # (t * n + i) -> id
    tree = np.repeat(np.arange(count), [len(s) for s in searched])
    feature = np.concatenate([np.arange(len(s)) for s in searched])
    which = np.concatenate(searched).astype(np.intp)
    rank = features.sorted.take(which)
    presorted = rank >= 0
    t, f, v = tree[presorted], feature[presorted], which[presorted]
    at = features.order.take(rank[presorted], axis=0) + (t * n)[:, None]
    at = np.compress(drawn.take(at).ravel(), at)  # each slot's tree's drawn pairs, in value order
    row = features.rows.take(v)
    values = XT.take(at + np.repeat(row * n - t * n, lengths.take(t)))
    sort = _Sorted(t, f, row, id_of.take(at), values)
    t, f, v = tree[~presorted], feature[~presorted], which[~presorted]
    size = features.rare_len.take(v)
    at = features.rare.take(np.arange(size.sum()) + np.repeat(
        features.rare_start.take(v) - (np.cumsum(size) - size), size)) + np.repeat(t * n, size)
    kept = drawn.take(at)
    counted = _Counted(t, f, features.rows.take(v), features.lo.take(v), features.hi.take(v),
                       features.rare_lo.take(v), id_of.take(np.compress(kept, at)),
                       np.compress(kept, np.repeat(f, size)))
    col, w = pairs % n, copies.take(pairs).astype(np.float64)
    del drawn, pairs, id_of, at, kept  # this pass's scratch, before the forest grows
    return _grow_forest(XT, col, y.take(col), w, lengths, sort, counted, max_depth)


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
    features = _varying(XT)
    [root] = _grow_pass(XT, features, y, np.ones((1, len(y)), dtype=np.intp),
                        [np.arange(len(features.rows))], max_depth)
    return _relabel(root, features.rows)


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
    features = _varying(XT)
    index = np.full(d, -1)  # each feature's index in features; -1 for a constant one
    index[features.rows] = np.arange(len(features.rows))
    trees, subsets = [], []
    per_pass = _pass_trees(n)
    for t0 in range(0, spec.n_trees, per_pass):
        count = min(per_pass, spec.n_trees - t0)
        copies = np.empty((count, n), dtype=np.intp)
        for t in range(count):
            rng = np.random.default_rng([spec.seed & _SEED_MASK, t0 + t])
            copies[t] = np.bincount(rng.integers(0, n, size=n), minlength=n)
            subsets.append(np.sort(rng.choice(d, size=k, replace=False)))
        searched = [index[subset][index[subset] >= 0] for subset in subsets[t0:]]
        roots = _grow_pass(XT, features, y, copies, searched, spec.max_depth)
        trees += [_relabel(root, np.flatnonzero(index[subset] >= 0))
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
