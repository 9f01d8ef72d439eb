"""The split search that skips cuts inside same-label runs, and the bag's
node table built in one pass, against the references they replaced.

``learners._best_splits`` does not score a cut whose neighbouring cuts are
both candidates when the two samples between them share a label, in nodes
of weight at most ``_CONCAVE_WEIGHT``; ``oracles.every_cut_best_splits``
scores every candidate. Such a cut never is, or ties, the first maximum, so
every array the search returns, and every tree, must be identical.
``learners._flat_forest`` builds a bag's node table in one pass;
``oracles.forest`` joins the per-tree tables of ``oracles.flatten``.
"""

import contextlib
import copy
import hashlib
import json
import math
import pathlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from multigroup import learners
from multigroup.config import parse_run_config
from multigroup.data import make_synthetic, schema_to_json
from multigroup.learners import (
    _CONCAVE_WEIGHT,
    FeatureEncoder,
    LearnerSpec,
    PredictorCache,
    _best_splits,
    _cut_gains,
    _fit_bagged,
    _fit_tree,
    _flat_forest,
    _presort,
)

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench"


def every_cut():
    """Grow trees with the split search that scores every candidate cut."""
    return mock.patch.object(learners, "_best_splits", oracles.every_cut_best_splits)


@st.composite
def columns(draw, n):
    """n values of one feature: small integers with ties, one-hot, constant
    or all distinct."""
    kind = draw(st.sampled_from(["integer", "one_hot", "constant", "distinct"]))
    if kind == "integer":
        return draw(st.lists(st.integers(0, draw(st.integers(1, 6))), min_size=n, max_size=n))
    if kind == "one_hot":
        return draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    if kind == "constant":
        return [draw(st.integers(-3, 3))] * n
    return draw(st.permutations(range(n)))


@st.composite
def labels(draw, n):
    kind = draw(st.sampled_from(["mixed", "mixed", "zeros", "ones"]))
    if kind == "mixed":
        return draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return [int(kind == "ones")] * n


@st.composite
def levels(draw):
    """One forest level: (X, wy, order, starts, lengths, sizes, pos) of
    1-5 nodes of 1-30 ids, bootstrap weights 1-5, and nodes of one class."""
    lengths = np.array(draw(st.lists(st.integers(1, 30), min_size=1, max_size=5)))
    n = int(lengths.sum())
    X = np.array([draw(columns(n)) for _ in range(draw(st.integers(1, 4)))], dtype=np.float64)
    y = np.concatenate([draw(labels(int(length))) for length in lengths]).astype(np.float64)
    w = np.array(draw(st.lists(st.integers(1, 5), min_size=n, max_size=n)), dtype=np.float64)
    starts = np.cumsum(lengths) - lengths
    order = np.concatenate([_presort(X[:, a:a + b]) + a for a, b in zip(starts, lengths)],
                           axis=1)
    return (X, w + 1j * (y * w), order, starts, lengths, np.add.reduceat(w, starts),
            np.add.reduceat(y * w, starts))


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None)
@given(levels(), st.sampled_from([4, 32, 1 << 14]))
def test_split_search_matches_every_cut(level, block):
    """Gains, thresholds and left counts, bit for bit, in each row of the
    level; and over its rows, with features too, those of the rectangular
    reference scoring the rows one or several to a block."""
    X, wy, order, *nodes = level
    for c in range(len(X)):
        assert_same_arrays(_best_splits(X[c], wy, order[c], *nodes),
                           oracles.every_cut_best_splits(X[c], wy, order[c], *nodes))
    with mock.patch.object(learners, "_SPLIT_BLOCK", block):
        gain, feature, _, *rest = oracles.rectangular_best_splits(*level)
    assert_same_arrays(oracles.row_by_row(_best_splits, *level), (gain, feature, *rest))


@st.composite
def fits(draw):
    """A design of 1-60 rows and 1-5 features, its labels and a bag spec
    whose trees all grow in one pass."""
    n = draw(st.integers(1, 60))
    X = np.array([draw(columns(n)) for _ in range(draw(st.integers(1, 5)))], dtype=np.float64)
    y = np.array(draw(labels(n)), dtype=np.float64)
    spec = LearnerSpec("bagged_trees", max_depth=draw(st.integers(1, 4)),
                       n_trees=draw(st.integers(1, 8)),
                       feature_fraction=draw(st.floats(0.2, 1.0)),
                       seed=draw(st.integers(0, 2**32)))
    return X, y, spec


def tree_bytes(fitted) -> str:
    trees, subsets = fitted if isinstance(fitted, tuple) else ([fitted], [])
    return json.dumps({"trees": trees, "feature_subsets": [s.tolist() for s in subsets]})


@settings(max_examples=150, deadline=None)
@given(fits())
def test_trees_match_every_cut(fit):
    """A bag of several trees and a single tree grow byte-identical to the
    trees of the search over every cut."""
    X, y, spec = fit
    got = [_fit_bagged(X, y, spec), _fit_tree(X, y, spec.max_depth)]
    with every_cut():
        want = [_fit_bagged(X, y, spec), _fit_tree(X, y, spec.max_depth)]
    assert [tree_bytes(f) for f in got] == [tree_bytes(f) for f in want]


def counting(calls: list):
    """_cut_gains, appending the number of cuts it scores to calls."""
    def cut_gains(n_left, *args):
        calls.append(len(n_left))
        return _cut_gains(n_left, *args)
    return cut_gains


def test_a_node_above_the_weight_bound_scores_every_cut(monkeypatch):
    """One feature of distinct values and one negative label among more
    than _CONCAVE_WEIGHT rows: the root scores all its cuts, and the level
    and the tree equal the search over every cut."""
    n = _CONCAVE_WEIGHT + 37
    rng = np.random.default_rng(80)
    X = rng.permutation(n).astype(np.float64)[None, :]
    y = np.ones(n)
    y[int(rng.integers(n))] = 0.0
    w = np.ones(n)
    level = (X[0], w + 1j * y, _presort(X)[0], np.array([0]), np.array([n]),
             np.array([float(n)]), np.array([y.sum()]))
    calls = []
    monkeypatch.setattr(learners, "_cut_gains", counting(calls))
    assert_same_arrays(_best_splits(*level), oracles.every_cut_best_splits(*level))
    assert calls == [n - 1]
    got = oracles.grow_every_row(X, y, w, _presort(X), [n], 3)
    with every_cut():
        want = oracles.grow_every_row(X, y, w, _presort(X), [n], 3)
    assert json.dumps(got) == json.dumps(want)
    assert "feature" in got[0]


def census_fits(seed):
    """The census_bagged benchmark workload's data, hierarchy and learner."""
    import workloads

    w = workloads.WORKLOADS["census_bagged"]
    ds = make_synthetic(w.spec(), seed)
    cfg = parse_run_config(w.run_config("data.csv", schema_to_json(ds.schema), seed))
    return ds, cfg.hierarchy(ds.schema), LearnerSpec.from_json(w.learner)


def test_census_fits_score_at_most_55_percent_of_the_cuts(monkeypatch):
    """Over the 46 census_bagged group fits (seed 1, every row), the split
    search scores at most 55% of the cuts the search over every cut
    scores, and the fits hash the same."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    ds, tree, spec = census_fits(1)
    counts, digests = [], []
    for reference in (False, True):
        calls = []
        monkeypatch.setattr(learners, "_cut_gains", counting(calls))
        monkeypatch.setattr(oracles, "_cut_gains", counting(calls))
        digest = hashlib.sha256()
        with every_cut() if reference else contextlib.nullcontext():
            for fitted in PredictorCache(ds, FeatureEncoder(ds.schema)).group_fits(
                    spec, tree).values():
                digest.update(json.dumps(fitted.to_json()).encode())
        counts.append(sum(calls))
        digests.append(digest.hexdigest())
    assert len(tree.nodes) == 46
    assert digests[0] == digests[1]
    assert counts[0] <= 0.55 * counts[1], counts


# A bag's node table in one pass

A = {"feature": 0, "threshold": 0.5, "left": {"score": 0.0},
     "right": {"feature": 1, "threshold": 2.0, "left": {"score": 1.0}, "right": {"score": 0.25}}}
B = {"feature": 1, "threshold": -1, "left": {"score": 0.75}, "right": {"score": 0.5}}
C = {"score": 0.5}
SUBSETS = [np.array([0, 2]), np.array([1, 3]), np.array([2])]


def assert_same_table(got, want):
    assert_same_arrays(got[:-1], want[:-1])
    assert got.depth == want.depth


def reference_table(roots, subsets):
    return oracles.forest([oracles.flatten(root, subset) for root, subset in zip(roots, subsets)])


def test_forest_matches_per_tree_tables():
    """Fitted bags, hand-written trees with an integer threshold, one-leaf
    trees and single trees give the reference's node table."""
    rng = np.random.default_rng(81)
    assert_same_table(_flat_forest([A, B, C], SUBSETS), reference_table([A, B, C], SUBSETS))
    assert_same_table(_flat_forest([C], [np.arange(3)]), oracles.flatten(C, np.arange(3)))
    for trial in range(30):
        n, d = int(rng.integers(2, 200)), int(rng.integers(1, 7))
        X = np.round(rng.normal(size=(d, n)), 1)
        y = (X[0] + rng.normal(size=n) > 0).astype(np.float64)
        spec = LearnerSpec("bagged_trees", max_depth=int(rng.integers(1, 5)),
                           n_trees=int(rng.integers(1, 12)), seed=trial)
        roots, subsets = _fit_bagged(X, y, spec)
        assert_same_table(_flat_forest(roots, subsets), reference_table(roots, subsets))
        root = _fit_tree(X, y, spec.max_depth)
        assert_same_table(_flat_forest([root], [np.arange(d)]),
                          oracles.flatten(root, np.arange(d)))


def _set(path, value):
    """An edit of the forest [A, B, C] that sets the field at path."""
    def edit(trees):
        node = trees
        for key in path[:-1]:
            node = node[key]
        if value is _DELETE:
            del node[path[-1]]
        else:
            node[path[-1]] = value
    return edit


_DELETE = object()


@pytest.mark.parametrize("edits", [
    [_set([0, "threshold"], math.nan)],
    [_set([1, "threshold"], -math.inf)],
    [_set([0, "right", "right", "score"], 1.5)],
    [_set([1, "left", "score"], math.nan)],
    [_set([0, "feature"], 2)],
    [_set([1, "feature"], -1)],
    [_set([0, "right", "feature"], 2.5)],
    [_set([1, "feature"], math.inf)],
    [_set([0, "right", "left"], _DELETE)],
    [_set([2, "score"], _DELETE)],
    [_set([1, "left"], [0.5])],
    # more than one fault: the first tree's, and in a tree thresholds,
    # then scores, then features
    [_set([1, "left", "score"], 2.0), _set([2, "score"], _DELETE)],
    [_set([0, "feature"], 9), _set([0, "right", "threshold"], math.inf)],
    [_set([0, "right", "left"], _DELETE), _set([1, "threshold"], math.nan)],
    [_set([1, "feature"], 7), _set([1, "right", "score"], -0.5)],
    [_set([0, "left", "score"], -1.0), _set([1, "threshold"], math.nan)],
])
def test_forest_raises_the_per_tree_tables_first_error(edits):
    trees = copy.deepcopy([A, B, C])
    for edit in edits:
        edit(trees)
    with pytest.raises((KeyError, TypeError, ValueError)) as want:
        reference_table(trees, SUBSETS)
    with pytest.raises(want.type) as got:
        _flat_forest(trees, SUBSETS)
    assert str(got.value) == str(want.value)
