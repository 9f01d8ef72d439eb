import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multigroup.data import make_synthetic
from multigroup.groups import Group, GroupTree, build_hierarchy, membership_vector
from multigroup.learners import (
    ConstantPredictor,
    DecisionTreePredictor,
    EmptyGroupError,
    FeatureEncoder,
    LearnerSpec,
    _MIN_GAIN,
    _best_splits,
    _presort,
    PredictorCache,
    fit,
    logistic_gradient,
    predictor_from_json,
    sigmoid,
)

from oracles import dataset_from_values, entropy, erm, logistic_loss, row_by_row
from synthcases import opposite_separators_spec, two_leaf_constants


def numeric_dataset(X, y):
    from multigroup.data import AttributeSchema, Column

    d = X.shape[1]
    schema = AttributeSchema(
        columns=tuple([Column(f"x{j}", "numeric") for j in range(d)]
                      + [Column("label", "binary-label")]),
        label_column="label",
    )
    values = {f"x{j}": X[:, j] for j in range(d)}
    values["label"] = y
    return dataset_from_values(schema, values)


def all_rows(ds):
    return np.ones(ds.n, dtype=bool)


def test_constant_majority():
    ds = numeric_dataset(np.zeros((3, 1)), np.array([1, 1, 0]))
    predictor = fit(LearnerSpec("constant"), ds, all_rows(ds))
    assert predictor.predict(ds).tolist() == [1, 1, 1]
    assert predictor.score_value == pytest.approx(2 / 3)


def test_constant_is_empirical_minimizer():
    rng = np.random.default_rng(0)
    for _ in range(20):
        y = rng.integers(0, 2, size=rng.integers(1, 40))
        ds = numeric_dataset(np.zeros((len(y), 1)), y)
        predictor = fit(LearnerSpec("constant"), ds, all_rows(ds))
        risk = float((predictor.predict(ds) != y).mean())
        assert risk <= float((np.zeros(len(y)) != y).mean())
        assert risk <= float((np.ones(len(y)) != y).mean())


def test_logistic_separable_margin():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(200, 2))
    w = np.array([2.0, -1.0])
    margin = 0.5
    scores = X @ w
    X = X[np.abs(scores) > margin]
    X = X[:200]
    y = (X @ w > 0).astype(np.int64)
    ds = numeric_dataset(X, y)
    predictor = fit(LearnerSpec("logistic", iterations=800), ds, all_rows(ds))
    assert (predictor.predict(ds) == y).all()


def test_logistic_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(60, 4))
    y = rng.integers(0, 2, size=60).astype(np.float64)
    h = 1e-6
    worst = 0.0
    for _ in range(10):
        w = rng.normal(size=4)
        b = float(rng.normal())
        gw, gb = logistic_gradient(w, b, X, y)
        num = np.empty(5)
        for j in range(4):
            e = np.zeros(4)
            e[j] = h
            num[j] = (logistic_loss(w + e, b, X, y) - logistic_loss(w - e, b, X, y)) / (2 * h)
        num[4] = (logistic_loss(w, b + h, X, y) - logistic_loss(w, b - h, X, y)) / (2 * h)
        analytic = np.append(gw, gb)
        rel = np.abs(analytic - num) / np.maximum(np.abs(num), 1e-8)
        worst = max(worst, float(rel.max()))
    assert worst < 1e-5


def masked_sigmoid(z):
    """Reference: the two-branch sigmoid with boolean fancy indexing."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_bit_identical_to_masked_reference():
    rng = np.random.default_rng(21)
    edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 745.0, -745.0, 746.0, -746.0,
                      1e-300, -1e-300, 36.0, -36.0, 710.0, -710.0])
    for z in (edges, rng.normal(size=1000), rng.normal(scale=50.0, size=1000),
              rng.uniform(-800.0, 800.0, size=1000), np.empty(0)):
        assert_sigmoid_matches_masked_reference(z)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                max_size=40))
def test_sigmoid_bit_identical_to_masked_reference_on_any_floats(values):
    assert_sigmoid_matches_masked_reference(np.array(values, dtype=np.float64))


def assert_sigmoid_matches_masked_reference(z):
    got, want = sigmoid(z), masked_sigmoid(z)
    assert np.array_equal(got, want, equal_nan=True)
    numbers = ~np.isnan(want)  # a NaN's sign bit carries no value
    assert np.array_equal(np.signbit(got[numbers]), np.signbit(want[numbers]))


def standardized_fit(X, y, spec):
    """The fitted logistic predictor and its standardized training design."""
    predictor = fit(spec, numeric_dataset(X, y), np.ones(len(y), dtype=bool))
    return predictor, (X - predictor.mean) / predictor.scale


def count_solves(monkeypatch):
    calls = []
    solve = np.linalg.solve

    def counted(a, b):
        calls.append(1)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    return calls


def test_newton_reaches_gradient_descent_optimum():
    rng = np.random.default_rng(17)
    for _ in range(5):
        n, d = int(rng.integers(40, 200)), int(rng.integers(1, 5))
        X = rng.normal(size=(n, d)) * rng.uniform(0.1, 10.0, size=d) + rng.normal(size=d)
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(X @ rng.normal(size=d))))).astype(np.int64)
        y[:2] = [0, 1]
        newton, Xs = standardized_fit(X, y, LearnerSpec("logistic"))
        gd, _ = standardized_fit(X, y, LearnerSpec("logistic", solver="gd", iterations=20000))
        loss = logistic_loss(newton.weights, newton.intercept, Xs, y)
        assert loss <= logistic_loss(gd.weights, gd.intercept, Xs, y) + 1e-12
        gw, gb = logistic_gradient(newton.weights, newton.intercept, Xs, y)
        assert np.sqrt(gw @ gw + gb * gb) < LearnerSpec("logistic").tolerance


def test_newton_separable_data_stops_with_finite_weights(monkeypatch):
    rng = np.random.default_rng(8)
    X = rng.normal(size=(120, 2))
    X = X[np.abs(X @ np.array([1.0, -2.0])) > 0.3]
    y = (X @ np.array([1.0, -2.0]) > 0).astype(np.int64)
    solves = count_solves(monkeypatch)
    spec = LearnerSpec("logistic", solver="newton")
    predictor, _ = standardized_fit(X, y, spec)
    assert np.isfinite(predictor.weights).all() and np.isfinite(predictor.intercept)
    assert (predictor.predict(numeric_dataset(X, y)) == y).all()
    assert 0 < len(solves) < spec.iterations


def test_newton_constant_column_and_two_row_group():
    rng = np.random.default_rng(4)
    X = np.column_stack([rng.normal(size=50), np.full(50, 3.0)])
    y = (X[:, 0] + rng.normal(scale=0.5, size=50) > 0).astype(np.int64)
    spec = LearnerSpec("logistic", solver="newton")
    predictor, _ = standardized_fit(X, y, spec)
    assert np.isfinite(predictor.weights).all()
    assert predictor.weights[1] == 0.0  # the constant column standardizes to 0
    ds = numeric_dataset(X, y)
    mask = np.zeros(50, dtype=bool)
    mask[[np.argmax(y), np.argmin(y)]] = True
    pair = fit(spec, ds, mask)
    assert np.isfinite(pair.weights).all() and np.isfinite(pair.intercept)
    assert (pair.predict(ds)[mask] == y[mask]).all()


def test_solver_is_recorded_and_validated():
    assert LearnerSpec("logistic").solver == "newton_margin"
    assert LearnerSpec("logistic").to_json()["solver"] == "newton_margin"
    for solver in ("newton_margin", "newton", "gd"):
        spec = LearnerSpec("logistic", solver=solver)
        assert LearnerSpec.from_json(spec.to_json()) == spec
    assert "solver" not in LearnerSpec("tree").to_json()
    with pytest.raises(ValueError, match="unknown logistic solver 'lbfgs'"):
        LearnerSpec("logistic", solver="lbfgs")


def test_depth1_tree_threshold_rule():
    x = np.array([[0.5], [1.0], [2.0], [3.5], [4.0], [6.0]])
    y = (x[:, 0] > 3).astype(np.int64)
    ds = numeric_dataset(x, y)
    predictor = fit(LearnerSpec("tree", max_depth=1), ds, all_rows(ds))
    assert (predictor.predict(ds) == y).all()
    assert predictor.depth() <= 1


def brute_force_best_stump_error(X, y):
    """Oracle: try every single split with optimal leaf labels."""
    n = len(y)
    best = min(y.mean(), 1 - y.mean())  # no-split constant
    for j in range(X.shape[1]):
        values = np.unique(X[:, j])
        for lo, hi in zip(values[:-1], values[1:]):
            thr = (lo + hi) / 2
            left = X[:, j] <= thr
            err = 0.0
            for side in (left, ~left):
                if side.any():
                    p = y[side].mean()
                    err += side.sum() * min(p, 1 - p)
            best = min(best, err / n)
    return best


def test_depth1_tree_on_xor_is_half():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]] * 25)
    y = np.logical_xor(X[:, 0] > 0.5, X[:, 1] > 0.5).astype(np.int64)
    assert brute_force_best_stump_error(X, y) == 0.5
    ds = numeric_dataset(X, y)
    predictor = fit(LearnerSpec("tree", max_depth=1), ds, all_rows(ds))
    assert float((predictor.predict(ds) != y).mean()) == 0.5


def test_tree_respects_max_depth():
    rng = np.random.default_rng(5)
    for trial in range(100):
        depth = int(rng.integers(1, 5))
        n = int(rng.integers(8, 60))
        X = rng.normal(size=(n, 3))
        y = rng.integers(0, 2, size=n)
        ds = numeric_dataset(X, y)
        predictor = fit(LearnerSpec("tree", max_depth=depth), ds, all_rows(ds))
        if isinstance(predictor, DecisionTreePredictor):
            assert predictor.depth() <= depth


def test_tree_pure_node_stops():
    ds = numeric_dataset(np.arange(10.0).reshape(-1, 1), np.ones(10, dtype=np.int64))
    predictor = fit(LearnerSpec("tree", max_depth=8), ds, all_rows(ds))
    assert isinstance(predictor, ConstantPredictor)  # one-class shortcut


def test_one_class_mask_gives_constant_for_every_kind():
    ds = numeric_dataset(np.random.default_rng(1).normal(size=(10, 2)),
                         np.zeros(10, dtype=np.int64))
    for kind in ("constant", "logistic", "tree", "bagged_trees"):
        predictor = fit(LearnerSpec(kind), ds, all_rows(ds))
        assert isinstance(predictor, ConstantPredictor)
        assert predictor.predict(ds).tolist() == [0] * 10


def test_empty_mask_raises():
    ds = two_leaf_constants()
    with pytest.raises(EmptyGroupError, match="empty training group"):
        fit(LearnerSpec("constant"), ds, np.zeros(ds.n, dtype=bool))


def test_group_erm_on_root_equals_erm():
    ds = make_synthetic(opposite_separators_spec(100, noise=0.1), seed=2)
    spec = LearnerSpec("logistic", iterations=300)
    a = erm(spec, ds)
    tree = GroupTree([])
    b = PredictorCache(ds).group_erm(spec, tree, tree.root)
    assert np.array_equal(a.predict(ds), b.predict(ds))


def test_group_erm_single_example_constant():
    ds = two_leaf_constants()
    g = Group.from_conjuncts([("grp", "b")])
    for kind in ("constant", "logistic", "tree", "bagged_trees"):
        predictor = PredictorCache(ds).group_erm(LearnerSpec(kind), GroupTree([g]), g)
        mask = membership_vector(g, ds)
        assert predictor.predict(ds)[mask].tolist() == [0]


def test_fit_determinism():
    ds = make_synthetic(opposite_separators_spec(150, noise=0.2), seed=9)
    for kind in ("constant", "logistic", "tree", "bagged_trees"):
        spec = LearnerSpec(kind, iterations=200, n_trees=5)
        a = fit(spec, ds, all_rows(ds))
        b = fit(spec, ds, all_rows(ds))
        assert np.array_equal(a.predict(ds), b.predict(ds))
        assert np.array_equal(a.scores(ds), b.scores(ds))


def test_scores_threshold_reproduces_labels():
    ds = make_synthetic(opposite_separators_spec(120, noise=0.1), seed=13)
    for kind in ("constant", "logistic", "tree", "bagged_trees"):
        predictor = fit(LearnerSpec(kind, iterations=150, n_trees=7), ds, all_rows(ds))
        assert np.array_equal(predictor.predict(ds),
                              (predictor.scores(ds) >= 0.5).astype(np.int64))


def test_encoder_group_attribute_flag():
    ds = two_leaf_constants()
    with_attrs = FeatureEncoder(ds.schema, include_group_attributes=True)
    without = FeatureEncoder(ds.schema, include_group_attributes=False)
    assert with_attrs.width == without.width + 2  # grp one-hot has 2 categories
    assert without.feature_names == ["x0"]


def test_predictor_cache_shares_fits():
    ds = two_leaf_constants()
    cache = PredictorCache(ds)
    spec = LearnerSpec("constant")
    g = Group.from_conjuncts([("grp", "a")])
    tree = GroupTree([g])
    assert cache.group_erm(spec, tree, g) is cache.group_erm(spec, tree, g)
    assert cache.group_erm(spec, tree, tree.root) is cache.erm(spec)
    assert cache.erm(spec) is cache.erm(spec)


def test_predictor_json_round_trip():
    ds = make_synthetic(opposite_separators_spec(80, noise=0.1), seed=4)
    encoder = FeatureEncoder(ds.schema)
    for kind in ("constant", "logistic", "tree", "bagged_trees"):
        predictor = fit(LearnerSpec(kind, iterations=100, n_trees=4), ds, all_rows(ds), encoder)
        doc = predictor.to_json()
        rebuilt = predictor_from_json(doc, encoder)
        assert np.array_equal(predictor.predict(ds), rebuilt.predict(ds))
        assert np.allclose(predictor.scores(ds), rebuilt.scores(ds))


def test_per_leaf_logistic_beats_global_on_planted_data():
    ds = make_synthetic(opposite_separators_spec(2000), seed=17)
    spec = LearnerSpec("logistic", iterations=500)
    cache = PredictorCache(ds)
    tree = build_hierarchy(ds.schema, ["grp"])
    global_fit = cache.erm(spec)
    for cat in ("a", "b"):
        g = Group.from_conjuncts([("grp", cat)])
        mask = membership_vector(g, ds)
        y = ds.labels()[mask]
        local = cache.group_erm(spec, tree, g)
        assert float((local.predict(ds)[mask] != y).mean()) < \
            float((global_fit.predict(ds)[mask] != y).mean())


def test_tree_becomes_leaf_when_no_split_helps():
    # constant features admit no split; labels stay mixed
    X = np.zeros((20, 2))
    y = np.array([0, 1] * 10)
    ds = numeric_dataset(X, y)
    predictor = fit(LearnerSpec("tree", max_depth=8), ds, all_rows(ds))
    assert predictor.depth() == 0
    assert predictor.scores(ds)[0] == pytest.approx(0.5)


def masked_entropy(p):
    """Reference: binary entropy with 0 log 0 skipped by boolean masks."""
    p = np.clip(p, 0.0, 1.0)
    q = 1.0 - p
    out = np.zeros_like(p)
    nz = p > 0
    out[nz] -= p[nz] * np.log(p[nz])
    nz = q > 0
    out[nz] -= q[nz] * np.log(q[nz])
    return out


def loop_best_split(X, y):
    """Reference split search: one feature at a time, in index order, keeping
    a later feature only if its gain is strictly larger."""
    n = len(y)
    parent = float(masked_entropy(np.array([y.mean()]))[0])
    best = None
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
        gains = parent - (n_left * masked_entropy(pos_left / n_left)
                          + n_right * masked_entropy(pos_right / n_right)) / n
        k = int(np.argmax(gains))
        gain = float(gains[k])
        if best is None or gain > best[0]:
            lo, hi = cs[boundary[k]], cs[boundary[k] + 1]
            thr = lo + (hi - lo) / 2.0
            if thr >= hi:
                thr = lo
            best = (gain, j, float(thr))
    if best is None or best[0] <= _MIN_GAIN:
        return None
    return best[1], best[2]


def test_entropy_bit_identical_to_masked_reference():
    rng = np.random.default_rng(4)
    for p in (np.array([0.0, 1.0, 0.5, 1e-300, 1.0 - 1e-16, -0.1, 1.1]),
              rng.random(1000), np.arange(0, 65) / 64, np.empty(0)):
        got, want = entropy(p), masked_entropy(p)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def level_best_splits(nodes):
    """_best_splits on each feature of the (X, y) nodes laid side by side as
    one tree level; each node's (feature, threshold) of the first feature
    with the greatest gain, or None where it is not split."""
    XT = np.concatenate([X for X, _ in nodes]).T.copy()
    y = np.concatenate([y for _, y in nodes])
    sizes = np.array([len(y) for _, y in nodes])
    starts = np.cumsum(sizes) - sizes
    order = np.concatenate([_presort(X.T.copy(), range(X.shape[1])) + start
                            for (X, _), start in zip(nodes, starts)], axis=1)
    pos = np.array([y.sum() for _, y in nodes])
    gain, feature, threshold, _, _ = row_by_row(
        _best_splits, XT, np.ones(len(y)) + 1j * y, order, starts, sizes, sizes, pos)
    return [(int(f), float(t)) if g > _MIN_GAIN else None
            for g, f, t in zip(gain, feature, threshold)]


def test_best_split_matches_loop_reference():
    """The level search picks the same (feature, threshold) as the
    feature-by-feature scan, ties included: one-hot, duplicated, constant
    and coarse columns give many equal gains. The nodes are searched one to
    four at a time as the segments of one level, one feature per search,
    and some levels hold a few thousand rows."""
    rng = np.random.default_rng(9)
    checked = 0
    level = []  # the nodes with four features, searched a few at a time below
    for trial in range(300):
        n = int(rng.integers(1, 60)) if trial % 15 else int(rng.integers(3000, 9000))
        d = int(rng.integers(1, 7)) if trial % 4 else 4
        X = rng.normal(size=(n, d))
        for j in range(d):
            kind = rng.integers(0, 4)
            if kind == 1:
                X[:, j] = rng.integers(0, 2, size=n)  # one-hot
            elif kind == 2:
                X[:, j] = np.round(X[:, j])  # few distinct values
            elif kind == 3:
                X[:, j] = X[:, int(rng.integers(0, d))]  # duplicate column
        if trial % 10 == 0:
            X[:, 0] = 1.0  # constant column
        y = rng.integers(0, 2, size=n).astype(np.float64)
        want = loop_best_split(X, y)
        checked += want is not None
        if d == 4:
            level.append(((X, y), want))
        else:
            assert level_best_splits([(X, y)]) == [want]
    start, size = 0, 1
    while start < len(level):
        nodes, wants = zip(*level[start:start + size])
        assert level_best_splits(list(nodes)) == list(wants)
        start, size = start + size, size % 4 + 1
    assert len(level) > 80
    assert checked > 100


@pytest.mark.parametrize("kind", ["tree", "bagged_trees"])
def test_tree_fit_rejects_non_finite_features(kind):
    X = np.array([[0.0, 1.0], [1.0, np.inf], [2.0, 0.5], [3.0, 2.0]])
    ds = numeric_dataset(X, np.array([0, 1, 0, 1]))
    with pytest.raises(ValueError, match="feature 'x1' has a non-finite value"):
        fit(LearnerSpec(kind), ds, all_rows(ds))
