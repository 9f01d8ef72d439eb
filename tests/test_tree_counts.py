"""Tree growth on distinct bootstrap rows with counts against the
repeat-based growth it replaced.

The package keeps each bootstrap sample as the rows it drew, once each,
weighted by how often it drew them, and searches only the features that
vary on the fit's rows (``learners._fit_bagged``, ``learners._fit_tree``).
``oracles.fit_bagged`` and ``oracles.grow_tree`` repeat every drawn row as
often as drawn and search every feature. Counts are exact integers either
way, so the trees must be byte-identical.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

import oracles
from multigroup.config import parse_run_config
from multigroup.data import make_synthetic, schema_to_json
from multigroup.learners import (
    _SEED_MASK,
    _SPLIT_BLOCK,
    FeatureEncoder,
    LearnerSpec,
    PredictorCache,
    _best_splits,
    _fit_bagged,
    _fit_tree,
    _pass_trees,
    _presort,
)

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench"


def bag_bytes(trees, subsets) -> str:
    return json.dumps({"trees": trees, "feature_subsets": [s.tolist() for s in subsets]})


def assert_fits_match(X, y, max_depth, seed, n_trees=6, feature_fraction=0.5):
    """The single tree and the bag of X's rows match the oracles byte for
    byte; returns how many of the bag's trees split."""
    XT = np.ascontiguousarray(X.T)
    [want] = oracles.grow_tree(XT, y, _presort(XT), [len(y)], max_depth)
    assert json.dumps(_fit_tree(XT, y, max_depth)) == json.dumps(want)
    spec = LearnerSpec("bagged_trees", max_depth=max_depth, n_trees=n_trees,
                       feature_fraction=feature_fraction, seed=seed)
    got = _fit_bagged(XT, y, spec)
    assert bag_bytes(*got) == bag_bytes(*oracles.fit_bagged(XT, y, spec))
    return sum("feature" in root for root in got[0])


def one_hot(rng, n, levels):
    """One-hot columns of categorical variables with the given level counts;
    a level no row takes leaves a constant column of zeros."""
    columns = []
    for count in levels:
        codes = rng.integers(0, count, size=n)
        columns += [codes == k for k in range(count)]
    return np.column_stack(columns).astype(np.float64)


@pytest.mark.parametrize("max_depth", [1, 2, 3, 4])
def test_integer_features_with_mixed_label_ties(max_depth):
    """Few distinct integer values per feature: every value holds rows of
    both labels, and many cuts tie on gain."""
    rng = np.random.default_rng(30 + max_depth)
    splits = 0
    for trial in range(30):
        n, d = int(rng.integers(2, 300)), int(rng.integers(1, 7))
        X = rng.integers(0, int(rng.integers(2, 5)), size=(n, d)).astype(np.float64)
        X[:, rng.random(d) < 0.3] = X[:, :1]  # duplicated columns tie exactly
        y = (rng.random(n) < rng.uniform(0.2, 0.8)).astype(np.float64)
        splits += assert_fits_match(X, y, max_depth, seed=trial)
    assert splits > 30


@pytest.mark.parametrize("max_depth", [1, 2, 3, 4])
def test_constant_columns(max_depth):
    """Some columns constant on every row, in every position of the
    subsets, and designs whose every column is constant."""
    rng = np.random.default_rng(40 + max_depth)
    splits = 0
    for trial in range(30):
        n, d = int(rng.integers(2, 200)), int(rng.integers(2, 10))
        X = np.round(rng.normal(size=(n, d)), 1)
        constant = rng.random(d) < (1.0 if trial % 5 == 0 else 0.5)
        X[:, constant] = rng.normal(size=int(constant.sum()))
        y = (X[:, 0] + rng.normal(size=n) > 0).astype(np.float64)
        if constant.all():
            y[:2] = (0.0, 1.0)
        got = assert_fits_match(X, y, max_depth, seed=trial,
                                feature_fraction=float(rng.uniform(0.1, 1.0)))
        assert got == 0 or not constant.all()
        splits += got
    assert splits > 20


@pytest.mark.parametrize("max_depth", [1, 2, 3, 4])
def test_one_hot_only_designs(max_depth):
    """Every column 0/1, as the encoder writes categorical attributes, with
    unused levels, and labels that depend on one level."""
    rng = np.random.default_rng(50 + max_depth)
    splits = 0
    for trial in range(30):
        n = int(rng.integers(2, 400))
        X = one_hot(rng, n, rng.integers(1, 6, size=int(rng.integers(1, 4))))
        y = ((X[:, -1] + (rng.random(n) < 0.3)) % 2).astype(np.float64)
        splits += assert_fits_match(X, y, max_depth, seed=trial)
    assert splits > 30


@pytest.mark.parametrize("n, n_trees", [(_SPLIT_BLOCK // 3, 7), (_SPLIT_BLOCK // 2 + 1, 3)])
def test_bags_spanning_several_passes(n, n_trees):
    """Bags with more trees than a pass holds, with constant columns, so
    each pass has trees of different numbers of searched features."""
    assert n_trees > _pass_trees(n)
    rng = np.random.default_rng(n)
    X = np.round(rng.normal(size=(n, 8)), 1)
    X[:, [1, 4, 5]] = 2.0
    X[:, 6] = rng.integers(0, 2, size=n)
    y = (X[:, 0] + X[:, 6] + rng.normal(size=n) > 0.5).astype(np.float64)
    XT = np.ascontiguousarray(X.T)
    for max_depth in (1, 4):
        spec = LearnerSpec("bagged_trees", max_depth=max_depth, n_trees=n_trees,
                           feature_fraction=0.5, seed=n + max_depth)
        got = _fit_bagged(XT, y, spec)
        assert bag_bytes(*got) == bag_bytes(*oracles.fit_bagged(XT, y, spec))
        assert all("feature" in root for root in got[0])


@pytest.mark.parametrize("max_depth", [1, 2, 3, 4])
def test_one_row_and_one_class_bootstraps(max_depth):
    """One row (every bootstrap draws it n times), and one positive row
    among a few, which some bootstraps miss: their trees are leaves."""
    rng = np.random.default_rng(60 + max_depth)
    assert assert_fits_match(rng.normal(size=(1, 3)), np.ones(1), max_depth, seed=1) == 0
    one_class = 0
    for trial in range(20):
        n = int(rng.integers(2, 12))
        X = np.round(rng.normal(size=(n, 3)), 1)
        y = np.zeros(n)
        y[int(rng.integers(0, n))] = 1.0
        splits = assert_fits_match(X, y, max_depth, seed=trial, n_trees=10)
        one_class += 0 < splits < 10
    assert one_class > 5


def test_weighted_level_matches_repeated_level():
    """One level searched on distinct ids with counts, a feature at a time,
    gives the gains, bit for bit, features, thresholds and left counts of
    the same level with each id repeated as often as counted."""
    rng = np.random.default_rng(70)
    for trial in range(200):
        d = int(rng.integers(1, 6))
        lengths = rng.integers(1, 40, size=int(rng.integers(1, 5)))
        X = rng.integers(0, 5, size=(d, int(lengths.sum()))).astype(np.float64)
        y = (rng.random(lengths.sum()) < 0.5).astype(np.float64)
        w = rng.integers(1, 4, size=lengths.sum()).astype(np.float64)
        starts = np.cumsum(lengths) - lengths
        order = np.concatenate([_presort(X[:, a:a + b]) + a for a, b in zip(starts, lengths)],
                               axis=1)
        sizes = np.add.reduceat(w, starts)
        pos = np.add.reduceat(y * w, starts)
        got = oracles.row_by_row(_best_splits, X, w + 1j * y * w, order, starts, lengths,
                                 sizes, pos)
        copies = w.astype(np.intp)
        repeated = np.stack([np.repeat(row, copies.take(row)) for row in order])
        repeated_starts = (np.cumsum(sizes) - sizes).astype(np.intp)
        want = oracles.best_splits(X, y, repeated, repeated_starts, sizes.astype(np.intp), pos)
        gain, feature, threshold, size_left, pos_left = got
        assert np.array_equal(gain, want[0]), trial
        split = gain > -np.inf
        assert np.array_equal(feature[split], want[1][split]), trial
        assert np.array_equal(threshold[split], want[3][split]), trial
        assert np.array_equal(pos_left[split], want[4][split]), trial
        assert np.array_equal(size_left[split], (want[2] + 1 - repeated_starts)[split]), trial
        for s in np.flatnonzero(split):  # the cut's threshold agrees with its count
            ids = order[feature[s], starts[s]:starts[s] + lengths[s]]
            assert w[ids][X[feature[s], ids] <= threshold[s]].sum() == size_left[s], trial


@pytest.mark.parametrize("n_trees", [1, 5])
def test_bag_of_a_design_without_features_is_one_leaf_per_tree(n_trees):
    """With no encoded feature (group attributes left out, every other
    column a group attribute) each tree is one leaf with an empty feature
    subset, scoring its bootstrap sample's label mean."""
    n = 9
    y = np.array([1, 0, 0, 1, 1, 0, 1, 1, 0], dtype=np.float64)
    spec = LearnerSpec("bagged_trees", max_depth=3, n_trees=n_trees, seed=4)
    trees, subsets = _fit_bagged(np.zeros((0, n)), y, spec)
    want = []
    for t in range(n_trees):
        rng = np.random.default_rng([spec.seed & _SEED_MASK, t])
        want.append({"score": float(np.bincount(rng.integers(0, n, size=n), minlength=n) @ y / n)})
    assert trees == want
    assert [s.tolist() for s in subsets] == [[]] * n_trees


@pytest.mark.parametrize("seed", [1, 2])
def test_census_tree_group_fits_match_reference(monkeypatch, seed):
    """The 46 group fits of a depth-3 single tree on the census_bagged
    benchmark workload's data hash the same as ``oracles.grow_tree``'s."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import workloads

    w = workloads.WORKLOADS["census_bagged"]
    ds = make_synthetic(w.spec(), seed)
    cfg = parse_run_config(w.run_config("data.csv", schema_to_json(ds.schema), seed))
    tree = cfg.hierarchy(ds.schema)
    spec = LearnerSpec.from_json({"kind": "tree", "max_depth": 3})
    encoder = FeatureEncoder(ds.schema)
    cache = PredictorCache(ds, encoder)
    got, want = hashlib.sha256(), hashlib.sha256()
    splits = 0
    for g, rows in zip(tree.nodes, tree.row_index(ds)):
        fitted = cache.group_erm(spec, tree, g)
        got.update(json.dumps(fitted.to_json()).encode())
        y = ds.labels()[rows].astype(np.float64)
        if y.min() == y.max():
            doc = {"type": "constant", "score": float(y.mean())}
        else:
            XT = np.ascontiguousarray(encoder.encode(ds.take(rows)).T)
            [root] = oracles.grow_tree(XT, y, _presort(XT), [len(y)], spec.max_depth)
            doc = {"type": "tree", "root": root}
            splits += "feature" in root
        doc["provenance"] = f"{spec.label()}@{g.id}"
        want.update(json.dumps(doc).encode())
    assert len(tree.nodes) == 46 and splits > 30
    assert got.hexdigest() == want.hexdigest()


def test_census_bagged_level_zero_searches_no_padding_and_no_two_valued_rows(monkeypatch):
    """Over the 46 census_bagged group fits (seed 1), the split search at
    level 0 reads exactly each tree's distinct drawn rows once per feature
    of its subset that takes three or more values on the fit's rows: no
    position pads a tree with fewer such features, and a feature with two
    values is counted, not sorted."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import workloads
    from multigroup import learners

    w = workloads.WORKLOADS["census_bagged"]
    ds = make_synthetic(w.spec(), 1)
    cfg = parse_run_config(w.run_config("data.csv", schema_to_json(ds.schema), 1))
    tree = cfg.hierarchy(ds.schema)
    spec = LearnerSpec.from_json(w.learner)
    encoder = FeatureEncoder(ds.schema)
    levels = []  # per forest, per level, the positions the kernel searched

    def wrap(name, action):
        real = getattr(learners, name)

        def traced(*args):
            action(args)
            return real(*args)
        monkeypatch.setattr(learners, name, traced)

    wrap("_grow_forest", lambda args: levels.append([]))
    wrap("_search", lambda args: levels[-1].append(0))
    wrap("_best_splits", lambda args: levels[-1].__setitem__(-1, levels[-1][-1] + args[2].size))
    PredictorCache(ds, encoder).group_fits(spec, tree)
    searched = sum(forest[0] for forest in levels if forest)

    want = fits = 0
    for rows in tree.row_index(ds):
        y = ds.labels()[rows]
        if not len(rows) or y.min() == y.max():
            continue
        fits += 1
        XT = encoder.encode(ds.take(rows)).T
        d, n = XT.shape
        wide = np.array([len(np.unique(row)) >= 3 for row in XT])
        k = max(1, int(round(spec.feature_fraction * d)))
        for t in range(spec.n_trees):
            rng = np.random.default_rng([spec.seed & _SEED_MASK, t])
            drawn = np.count_nonzero(np.bincount(rng.integers(0, n, size=n), minlength=n))
            subset = rng.choice(d, size=k, replace=False)
            want += drawn * int(wide[subset].sum())
    assert len(tree.nodes) == 46 and fits > 40
    assert searched == want
