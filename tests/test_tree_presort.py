"""Presorted, level-by-level tree growth and scoring against the per-node
references.

The package sorts each feature once per fit and grows the trees of a bag a
pass at a time, several side by side as one forest, each level of all of
them at once (``learners._grow_forest``); it scores a bag as one flattened
forest, a level of every tree per step (``learners._flat_scores``). The
references below are the earlier per-node, per-tree versions:
``reference_grow_tree`` sorts every feature of every node again, and
``reference_tree_scores`` walks one tree node by node. A split reads only
class counts at boundaries between distinct values, which are exact
integers whatever the tie order, so the trees must be byte-identical; a
score is a copied leaf value or a count of votes, so scores must be
bit-identical.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from multigroup.config import parse_run_config
from multigroup.data import make_synthetic, schema_to_json
from multigroup.groups import membership_vector
from multigroup.learners import (
    _MIN_GAIN,
    _SCORE_BLOCK,
    _SEED_MASK,
    _SPLIT_BLOCK,
    BaggedTreesPredictor,
    FeatureEncoder,
    LearnerSpec,
    _fit_bagged,
    _flat_scores,
    _pass_trees,
    _presort,
    PredictorCache,
)

from oracles import entropy, flatten as _flatten, forest as _forest, grow_every_row

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench"


def reference_best_split(X, y):
    """Per-node split search: sorts the node's features a block at a time."""
    n, d = X.shape
    parent = float(entropy(np.array([y.mean()]))[0])
    step = max(1, _SPLIT_BLOCK // n)
    best = None  # (gain, feature, threshold)
    for start in range(0, d, step):
        block = X[:, start:start + step]
        order = np.argsort(block, axis=0, kind="stable")
        cs = np.take_along_axis(block, order, axis=0)
        cum_pos = np.cumsum(y[order], axis=0)
        feature, at = np.nonzero((cs[:-1] < cs[1:]).T)  # by feature, then threshold
        if at.size == 0:
            continue
        n_left = at + 1
        pos_left = cum_pos[at, feature]
        n_right = n - n_left
        pos_right = cum_pos[-1, feature] - pos_left
        h_left = entropy(pos_left / n_left)
        h_right = entropy(pos_right / n_right)
        gains = parent - (n_left * h_left + n_right * h_right) / n
        k = int(np.argmax(gains))  # first maximum
        gain = float(gains[k])
        if best is None or gain > best[0]:
            j = int(feature[k])
            lo, hi = cs[at[k], j], cs[at[k] + 1, j]
            thr = lo + (hi - lo) / 2.0
            if thr >= hi:  # midpoint rounded up onto the right value
                thr = lo
            best = (gain, start + j, float(thr))
    if best is None or best[0] <= _MIN_GAIN:
        return None
    return best[1], best[2]


def reference_grow_tree(X, y, depth, max_depth):
    score = float(y.mean())
    if depth >= max_depth or score in (0.0, 1.0) or len(y) < 2:
        return {"score": score}
    found = reference_best_split(X, y)
    if found is None:
        return {"score": score}
    j, thr = found
    left = X[:, j] <= thr
    return {
        "feature": j,
        "threshold": thr,
        "left": reference_grow_tree(X[left], y[left], depth + 1, max_depth),
        "right": reference_grow_tree(X[~left], y[~left], depth + 1, max_depth),
    }


def reference_fit_bagged(X, y, spec):
    n, d = X.shape
    k = max(1, int(round(spec.feature_fraction * d)))
    trees = []
    subsets = []
    for t in range(spec.n_trees):
        rng = np.random.default_rng([spec.seed & _SEED_MASK, t])
        rows = rng.integers(0, n, size=n)
        subset = np.sort(rng.choice(d, size=k, replace=False))
        trees.append(reference_grow_tree(X[rows][:, subset], y[rows], 0, spec.max_depth))
        subsets.append(subset)
    return trees, subsets


def reference_tree_scores(node, X):
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


def bagged_json(trees, subsets):
    return json.dumps({"trees": trees, "feature_subsets": [s.tolist() for s in subsets]})


def random_features(rng, n, d):
    """Normal, one-hot, coarse, duplicated and constant columns."""
    X = rng.normal(size=(n, d))
    for j in range(d):
        kind = rng.integers(0, 5)
        if kind == 1:
            X[:, j] = rng.integers(0, 2, size=n)
        elif kind == 2:
            X[:, j] = np.round(X[:, j] * rng.integers(1, 4))
        elif kind == 3:
            X[:, j] = X[:, int(rng.integers(0, d))]
        elif kind == 4:
            X[:, j] = 0.5
    return X


def random_labels(rng, n, trial):
    if trial % 25 == 0:
        return np.full(n, float(trial % 2))  # one class
    return (rng.random(n) < rng.uniform(0.05, 0.95)).astype(np.float64)


def test_trees_match_per_node_reference():
    """420 random fits, single trees and bagged, byte for byte: bootstrap
    repeats, ties in every column kind, one to about 9,000 rows, depth 1
    to 5. The large fits split their features over several blocks."""
    rng = np.random.default_rng(20)
    splits = 0
    for trial in range(420):
        n = int(rng.integers(1, 9000)) if trial % 30 == 7 else int(rng.integers(1, 400))
        d = int(rng.integers(1, 9))
        X = random_features(rng, n, d)
        y = random_labels(rng, n, trial)
        max_depth = int(rng.integers(1, 6))
        XT = np.ascontiguousarray(X.T)
        if trial % 3 == 0:
            want = reference_grow_tree(X, y, 0, max_depth)
            [got] = grow_every_row(XT, y, np.ones(n), _presort(XT), [n], max_depth)
            assert json.dumps(got) == json.dumps(want), trial
            splits += "feature" in want
        else:
            spec = LearnerSpec("bagged_trees", max_depth=max_depth,
                               n_trees=int(rng.integers(1, 7)),
                               feature_fraction=float(rng.uniform(0.05, 1.0)),
                               seed=int(rng.integers(0, 2**63)))
            want = bagged_json(*reference_fit_bagged(X, y, spec))
            assert bagged_json(*_fit_bagged(XT, y, spec)) == want, trial
            splits += '"feature"' in want
    assert splits > 200


@pytest.mark.parametrize("seed, block", [(1, None), (2, None), (1, 1024)],
                         ids=["1", "2", "1-block1024"])
def test_census_bagged_group_fits_match_reference(monkeypatch, seed, block):
    """The 46 group fits of the census_bagged benchmark workload hash the
    same as the per-node reference's; also with the split search's blocks
    at 1024 positions, where a large fit's level spans many _best_splits
    calls and a bag of its 10 trees on more than 102 rows takes several
    passes."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import workloads
    from multigroup import learners

    if block is not None:
        monkeypatch.setattr(learners, "_SPLIT_BLOCK", block)

    w = workloads.WORKLOADS["census_bagged"]
    ds = make_synthetic(w.spec(), seed)
    cfg = parse_run_config(w.run_config("data.csv", schema_to_json(ds.schema), seed))
    tree = cfg.hierarchy(ds.schema)
    spec = LearnerSpec.from_json(w.learner)
    encoder = FeatureEncoder(ds.schema)
    cache = PredictorCache(ds, encoder)
    got, want = hashlib.sha256(), hashlib.sha256()
    for g in tree.nodes:
        fitted = cache.group_erm(spec, tree, g)
        got.update(json.dumps(fitted.to_json()).encode())
        mask = membership_vector(g, ds)
        y = ds.labels()[mask].astype(np.float64)
        if y.min() == y.max():
            doc = {"type": "constant", "score": float(y.mean())}
        else:
            trees, subsets = reference_fit_bagged(encoder.transform(ds.take(mask)), y, spec)
            doc = {"type": "bagged_trees", "trees": trees,
                   "feature_subsets": [s.tolist() for s in subsets]}
        doc["provenance"] = f"{spec.label()}@{g.id}"
        want.update(json.dumps(doc).encode())
    assert len(tree.nodes) == 46
    assert got.hexdigest() == want.hexdigest()


def test_flat_scores_match_per_node_reference():
    """Level-by-level scoring equals the node-by-node walk on fitted trees,
    a stump read from JSON with an integer threshold, and a lone leaf; rows
    include values equal to a threshold, NaN and infinities."""
    rng = np.random.default_rng(21)
    trees = [({"score": 0.25}, None),
             ({"feature": 1, "threshold": 0, "left": {"score": 1.0},
               "right": {"score": 0.0}}, None)]
    for trial in range(40):
        n, d = int(rng.integers(20, 300)), int(rng.integers(2, 8))
        X = random_features(rng, n, d)
        y = random_labels(rng, n, trial + 1)
        spec = LearnerSpec("bagged_trees", max_depth=int(rng.integers(1, 6)), n_trees=3,
                           seed=trial)
        roots, subsets = _fit_bagged(np.ascontiguousarray(X.T), y, spec)
        trees += [(root, subset) for root, subset in zip(roots, subsets)]
    checked = 0
    for root, subset in trees:
        d = 8 if subset is None else int(subset.max()) + 1
        X = np.round(rng.normal(size=(500, d)), 1)
        X[rng.random(X.shape) < 0.02] = np.nan
        X[rng.random(X.shape) < 0.02] = np.inf
        X[rng.random(X.shape) < 0.02] = -np.inf
        want = reference_tree_scores(root, X if subset is None else X[:, subset])
        got = _flat_scores(_flatten(root, subset), X)
        assert np.array_equal(got, want)
        checked += "feature" in root
    assert checked > 50


def tree_depth(node):
    if "feature" not in node:
        return 0
    return 1 + max(tree_depth(node["left"]), tree_depth(node["right"]))


@pytest.mark.parametrize("n, n_trees, max_depth", [
    (_SPLIT_BLOCK // 3, 25, 3), (_SPLIT_BLOCK // 3 + 7, 8, 4),
    (_SPLIT_BLOCK // 3 - 5, 7, 2), (_SPLIT_BLOCK // 2 + 1, 3, 3),
])
def test_bags_spanning_several_passes_match_reference(n, n_trees, max_depth):
    """Bags with more trees than one pass holds: every pass, the last one
    part full, grows the same trees as the one-tree-at-a-time reference."""
    assert n_trees > _pass_trees(n)
    rng = np.random.default_rng(n)
    X = random_features(rng, n, 6)
    X[:, 0] = rng.normal(size=n)  # at least one column with many distinct values
    y = (X[:, 0] + rng.normal(size=n) > 0).astype(np.float64)
    spec = LearnerSpec("bagged_trees", max_depth=max_depth, n_trees=n_trees,
                       feature_fraction=0.5, seed=n)
    got = _fit_bagged(np.ascontiguousarray(X.T), y, spec)
    assert bagged_json(*got) == bagged_json(*reference_fit_bagged(X, y, spec))
    assert sum(tree_depth(root) == max_depth for root in got[0]) > n_trees // 2


def test_pass_with_trees_of_different_depths_matches_reference():
    """Small bags grow in one pass; within it some trees stop at the root or
    after a level or two while others reach max_depth."""
    rng = np.random.default_rng(22)
    mixed = 0
    for trial in range(60):
        n = int(rng.integers(8, 60))
        X = random_features(rng, n, 4)
        X[:, 0] = rng.normal(size=n)
        y = (X[:, 0] > 0).astype(np.float64)
        flip = rng.random(n) < 0.08  # a few noisy rows, drawn by some bootstraps only
        y[flip] = 1.0 - y[flip]
        spec = LearnerSpec("bagged_trees", max_depth=5, n_trees=9,
                           feature_fraction=float(rng.uniform(0.3, 1.0)), seed=trial)
        assert _pass_trees(n) >= spec.n_trees
        got = _fit_bagged(np.ascontiguousarray(X.T), y, spec)
        assert bagged_json(*got) == bagged_json(*reference_fit_bagged(X, y, spec)), trial
        mixed += len({tree_depth(root) for root in got[0]}) >= 3
    assert mixed > 10


def test_one_class_bootstrap_beside_splitting_trees():
    """A bootstrap sample that draws no positive row makes a one-leaf tree;
    the trees of its pass that do draw one still split, as in the
    reference."""
    rng = np.random.default_rng(23)
    seen = 0
    for trial in range(40):
        n = int(rng.integers(6, 14))
        X = rng.normal(size=(n, 3))
        y = np.zeros(n)
        y[int(rng.integers(0, n))] = 1.0  # one positive row
        spec = LearnerSpec("bagged_trees", max_depth=3, n_trees=12, seed=trial)
        got = _fit_bagged(np.ascontiguousarray(X.T), y, spec)
        assert bagged_json(*got) == bagged_json(*reference_fit_bagged(X, y, spec)), trial
        leaves = [root for root in got[0] if "feature" not in root]
        seen += any(root == {"score": 0.0} for root in leaves) and len(leaves) < len(got[0])
    assert seen > 10


class _IdentityEncoder:
    """Stands in for a FeatureEncoder over an already encoded matrix."""

    def __init__(self, width):
        self.width = width

    def encode(self, X):
        return X


def scoring_forest(rng):
    """Roots and subsets of 8 features: fitted depth-5 trees, fitted stumps
    and leaves, a one-leaf tree and a JSON stump with an integer threshold."""
    d = 8
    trees = [({"score": 0.25}, np.array([2, 5])),
             ({"feature": 1, "threshold": 0, "left": {"score": 1.0},
               "right": {"score": 0.0}}, np.array([0, 3, 7]))]
    for trial, depth in enumerate((5, 1, 5, 3)):
        n = int(rng.integers(50, 400))
        X = random_features(rng, n, d)
        X[:, 1] = rng.normal(size=n)
        y = random_labels(rng, n, trial + 1)
        spec = LearnerSpec("bagged_trees", max_depth=depth, n_trees=3, seed=trial)
        roots, subsets = _fit_bagged(np.ascontiguousarray(X.T), y, spec)
        trees += list(zip(roots, subsets))
    order = rng.permutation(len(trees))
    return [trees[i] for i in order], d


@pytest.mark.parametrize("rows", [0, 1, 37, 3 * (_SCORE_BLOCK // 14) + 5])
def test_forest_scores_match_per_tree_reference(rows):
    """A bag scored as one forest equals the per-tree walk: leaf values
    summed in tree order, and the bag's votes, bit for bit, on rows with
    values at thresholds, NaN and infinities, including row counts that
    span several score blocks and no rows at all."""
    rng = np.random.default_rng(24 + rows)
    trees, d = scoring_forest(rng)
    assert len(trees) == 14
    depths = {tree_depth(root) for root, _ in trees}
    assert 0 in depths and 5 in depths
    X = np.round(rng.normal(size=(rows, d)), 1)
    for value in (np.nan, np.inf, -np.inf):
        X[rng.random(X.shape) < 0.03] = value
    walks = [reference_tree_scores(root, X[:, subset]) for root, subset in trees]
    leaf_sum, votes = np.zeros(rows), np.zeros(rows)
    for walk in walks:
        leaf_sum += walk
        votes += walk >= 0.5
    forest = _forest([_flatten(root, subset) for root, subset in trees])
    assert np.array_equal(_flat_scores(forest, X), leaf_sum)
    roots, subsets = zip(*trees)
    bag = BaggedTreesPredictor(list(roots), list(subsets), _IdentityEncoder(d))
    assert np.array_equal(bag.scores(X), votes / len(trees))
