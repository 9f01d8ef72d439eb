"""Folded logistic scoring and the Newton solver against the standardized
references in oracles.py.

A logistic fit scores raw encoded rows as ``x @ f + (intercept - mean @ f)``
with ``f = weights / scale``; the reference standardizes a copy of the rows
first, ``((x - mean) / scale) @ weights + intercept``. Both margins are
sums of d + 1 terms that each carry at most d + 3 roundings, so each lies
within gamma(d + 3) * S of the exact margin (Higham's bound, u = eps / 2),
with S = |x / scale| @ |weights| + |mean / scale| @ |weights| + |intercept|
per row. They differ by at most (d + 3) * eps * S; the tests allow
(d + 4) * eps * S for gamma's second-order terms. sigmoid's slope is at most
1/4 and each sigmoid rounds by less than 2 eps, so scores differ by at most
a quarter of that plus 4 eps, and labels agree wherever the reference's
|margin| exceeds the bound by 1e-15, where sigmoid is off 0.5 by more than
its rounding.

``learners._newton`` reuses each accepted step's margins and builds its
ridge once; ``oracles.newton`` recomputes both every step. Every fit must
be byte-identical, with the same number of linear solves.
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multigroup import learners
from multigroup.data import AttributeSchema, Column, make_synthetic
from multigroup.groups import build_hierarchy
from multigroup.learners import LearnerSpec, LogisticPredictor, PredictorCache, fit

from oracles import dataset_from_values, newton, standardized_margins, standardized_scores
from test_learners import count_solves, numeric_dataset

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench"
EPS = np.finfo(np.float64).eps
SPEC = LearnerSpec("logistic")


def fit_both(fitter):
    """fitter() run with the package's Newton and with the reference's, each
    with its count of linear solves."""
    out = []
    for solver in (None, newton):
        with pytest.MonkeyPatch.context() as mp:
            if solver is not None:
                mp.setattr(learners, "_newton", solver)
            calls = count_solves(mp)
            out.append((fitter(), len(calls)))
    return out


def assert_same_fit(fitter):
    (got, got_solves), (want, want_solves) = fit_both(fitter)
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())
    assert got_solves == want_solves
    return got


def margin_bound(predictor, ds) -> np.ndarray:
    """Per row, the largest gap the bound in the module docstring allows
    between the folded and the standardized margin."""
    X = predictor.encoder.encode(ds)
    w = np.abs(predictor.weights)
    s = np.abs(X / predictor.scale) @ w + np.abs(predictor.mean / predictor.scale) @ w \
        + abs(predictor.intercept)
    return (X.shape[1] + 4) * EPS * s


def assert_scores_within_bound(predictor, ds):
    got, want = predictor.scores(ds), standardized_scores(predictor, ds)
    bound = margin_bound(predictor, ds)
    assert (np.abs(got - want) <= bound / 4 + 4 * EPS).all()
    clear = np.abs(standardized_margins(predictor, ds)) > bound + 1e-15
    assert np.array_equal(predictor.predict(ds)[clear], (want >= 0.5)[clear])


def mixed_dataset(rng, n: int, kinds: list[str]):
    """n rows of one-hot and numeric columns, numerics centred up to 1e6
    times their spread, with labels from a planted linear rule."""
    columns, values = [], {}
    margin = np.zeros(n)
    for j, kind in enumerate(kinds):
        name = f"c{j}"
        if kind == "categorical":
            k = int(rng.integers(2, 5))
            codes = rng.integers(0, k, size=n)
            values[name] = [f"v{c}" for c in codes]
            margin += rng.normal(size=k)[codes]
        else:
            spread = 10.0 ** rng.uniform(-3, 3)
            centre = spread * rng.choice([0.0, rng.uniform(-1e6, 1e6), 10.0 ** rng.uniform(0, 6)])
            z = rng.normal(size=n)
            values[name] = centre + spread * z
            margin += rng.normal() * z
        columns.append(Column(name, kind))
    y = (margin + rng.normal(scale=rng.choice([0.0, 0.5, 2.0]), size=n) > 0).astype(np.int64)
    y[:2] = [0, 1]  # both classes, so the fit is logistic
    values["label"] = y
    schema = AttributeSchema(columns=tuple(columns) + (Column("label", "binary-label"),),
                             label_column="label")
    return dataset_from_values(schema, values)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 300),
       kinds=st.lists(st.sampled_from(["categorical", "numeric"]), min_size=1, max_size=6))
def test_newton_fits_and_folded_scores_match_the_standardized_reference(seed, n, kinds):
    ds = mixed_dataset(np.random.default_rng(seed), n, kinds)
    predictor = assert_same_fit(lambda: fit(SPEC, ds, np.ones(ds.n, dtype=bool)))
    assert isinstance(predictor, LogisticPredictor)
    assert_scores_within_bound(predictor, ds)


def test_separable_fit_matches_reference():
    """The data of test_newton_separable_data_stops_with_finite_weights."""
    rng = np.random.default_rng(8)
    X = rng.normal(size=(120, 2))
    X = X[np.abs(X @ np.array([1.0, -2.0])) > 0.3]
    y = (X @ np.array([1.0, -2.0]) > 0).astype(np.int64)
    ds = numeric_dataset(X, y)
    predictor = assert_same_fit(lambda: fit(SPEC, ds, np.ones(ds.n, dtype=bool)))
    assert_scores_within_bound(predictor, ds)


def test_constant_column_and_two_row_group_fits_match_reference():
    rng = np.random.default_rng(4)
    X = np.column_stack([rng.normal(size=50), np.full(50, 3.0)])
    y = (X[:, 0] + rng.normal(scale=0.5, size=50) > 0).astype(np.int64)
    ds = numeric_dataset(X, y)
    pair = np.zeros(50, dtype=bool)
    pair[[np.argmax(y), np.argmin(y)]] = True
    for mask in (np.ones(50, dtype=bool), pair):
        predictor = assert_same_fit(lambda: fit(SPEC, ds, mask))
        assert_scores_within_bound(predictor, ds)


@pytest.mark.parametrize("seed", [1, 2])
def test_census_logistic_group_fits_match_reference(monkeypatch, seed):
    """The 46 group fits of the census_logistic benchmark workload hash the
    same as the reference Newton's, with as many solves, and score every row
    within the bound. Fits of small separable groups, with weights in the
    hundreds, move a score by up to 1.1e-14 here: their margins are small
    differences of large terms."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import workloads

    w = workloads.WORKLOADS["census_logistic"]
    ds = make_synthetic(w.spec(), seed)
    tree = build_hierarchy(ds.schema, list(w.attributes))
    spec = LearnerSpec.from_json(w.learner)

    def group_fits():
        return PredictorCache(ds).group_fits(spec, tree)

    (got, got_solves), (want, want_solves) = fit_both(group_fits)
    assert len(got) == len(tree.nodes) == 46
    digest = [hashlib.sha256(json.dumps([f.to_json() for f in fits.values()]).encode()).hexdigest()
              for fits in (got, want)]
    assert digest[0] == digest[1]
    assert got_solves == want_solves
    for predictor in got.values():
        assert_scores_within_bound(predictor, ds)


@pytest.mark.parametrize("scale", [1e-320, 5e-324])
def test_a_fit_whose_weights_cannot_be_folded_is_refused(scale):
    ds = numeric_dataset(np.array([[0.0], [1.0]]), np.array([0, 1]))
    encoder = learners.FeatureEncoder(ds.schema)
    with pytest.raises(ValueError, match=r"logistic fit 'logistic@g': weights / scale or "
                                         r"intercept - mean @ \(weights / scale\) is not finite"):
        LogisticPredictor([1.0], 0.0, [0.0], [scale], encoder, "logistic@g")
    with pytest.raises(ValueError, match="not finite"):  # the offset alone overflows
        LogisticPredictor([1e300], 0.0, [1e300], [1.0], encoder, "logistic@g")
