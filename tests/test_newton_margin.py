"""The "newton_margin" rule: Newton/IRLS that stops once every training row
is on its label's side by ``learners._SEPARATED_MARGIN``.

Its fit is always an iterate of the "newton" loop: a fit that made k solves,
fewer than the "newton" fit made, is the "newton" fit with ``iterations=k``,
and any other fit is the "newton" fit itself. On separable rows, where the
log-loss has no minimizer, it stops within ``SEPARATED_SOLVES`` solves and
still predicts every training label.
"""

import json
import pathlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multigroup.data import SplitSpec, make_synthetic, split
from multigroup.groups import build_hierarchy
from multigroup.learners import LearnerSpec, LogisticPredictor, fit

from test_learners import count_solves, numeric_dataset
from test_logistic_fold import mixed_dataset

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench"
SEPARATED_SOLVES = 30  # the most any case below takes is 23 (census seed 7)


def solved(monkeypatch, fitter):
    """fitter() and the number of linear solves it made."""
    with monkeypatch.context() as mp:
        calls = count_solves(mp)
        return fitter(), len(calls)


def assert_newton_iterate(monkeypatch, fit_with, spec=LearnerSpec("logistic")):
    """fit_with(spec) under "newton_margin" is the "newton" fit cut at its
    number of solves; returns the margin fit and both solve counts."""
    newton = replace(spec, solver="newton")
    got, k = solved(monkeypatch, lambda: fit_with(replace(spec, solver="newton_margin")))
    want, n = solved(monkeypatch, lambda: fit_with(newton))
    assert k <= n
    if k < n:
        want = fit_with(replace(newton, iterations=k))
    assert json.dumps(got.to_json()) == json.dumps(want.to_json())
    return got, k, n


def census(monkeypatch, seed: int, rows: str):
    """The census_logistic workload's data at seed (every row, or the
    trial-0 training split that evaluate fits) and its hierarchy."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import workloads

    w = workloads.WORKLOADS["census_logistic"]
    ds = make_synthetic(w.spec(), seed)
    tree = build_hierarchy(ds.schema, list(w.attributes))
    if rows == "split":
        ds, _ = split(ds, SplitSpec(workloads.TEST_FRACTION, seed, 0))
    spec = LearnerSpec.from_json(w.learner)
    return ds, tree, spec


def census_fits(monkeypatch, seed: int, rows: str):
    """Per census group with rows: its "newton_margin" fit, its rows, and
    the solves of its "newton_margin" and its "newton" fit."""
    ds, tree, spec = census(monkeypatch, seed, rows)
    out = []
    for g, index in zip(tree.nodes, tree.row_index(ds)):
        if not len(index):
            continue
        group = ds.take(index)
        got, k, n = assert_newton_iterate(
            monkeypatch, lambda s: fit(s, group, np.ones(group.n, dtype=bool), tag=g.id), spec)
        out.append((got, group, k, n))
    return out, spec


@pytest.mark.parametrize("rows", ["full", "split"])
@pytest.mark.parametrize("seed", [1, 2])
def test_census_margin_fits_are_newton_iterates(monkeypatch, seed, rows):
    fits, _ = census_fits(monkeypatch, seed, rows)
    assert len(fits) == 46
    assert any(k < n for _, _, k, n in fits)  # the rule fires on some group


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 300),
       kinds=st.lists(st.sampled_from(["categorical", "numeric"]), min_size=1, max_size=6))
def test_margin_fits_of_mixed_data_are_newton_iterates(seed, n, kinds):
    ds = mixed_dataset(np.random.default_rng(seed), n, kinds)
    with pytest.MonkeyPatch.context() as mp:
        assert_newton_iterate(mp, lambda spec: fit(spec, ds, np.ones(ds.n, dtype=bool)))


def assert_stops_separated(got, ds, k: int, n: int):
    assert isinstance(got, LogisticPredictor)
    assert k < n and k <= SEPARATED_SOLVES
    assert (got.predict(ds) == ds.labels()).all()


def separable_rows():
    """The data of test_newton_separable_data_stops_with_finite_weights and
    test_separable_fit_matches_reference."""
    rng = np.random.default_rng(8)
    X = rng.normal(size=(120, 2))
    X = X[np.abs(X @ np.array([1.0, -2.0])) > 0.3]
    y = (X @ np.array([1.0, -2.0]) > 0).astype(np.int64)
    return numeric_dataset(X, y)


def two_row_group():
    """The two-row group of test_newton_constant_column_and_two_row_group."""
    rng = np.random.default_rng(4)
    X = np.column_stack([rng.normal(size=50), np.full(50, 3.0)])
    y = (X[:, 0] + rng.normal(scale=0.5, size=50) > 0).astype(np.int64)
    pair = [int(np.argmax(y)), int(np.argmin(y))]
    return numeric_dataset(X[pair], y[pair])


@pytest.mark.parametrize("make", [separable_rows, two_row_group])
def test_separable_fit_stops_early_and_predicts_its_labels(monkeypatch, make):
    ds = make()
    got, k, n = assert_newton_iterate(
        monkeypatch, lambda spec: fit(spec, ds, np.ones(ds.n, dtype=bool)))
    assert_stops_separated(got, ds, k, n)
    assert np.isfinite(got.weights).all() and np.isfinite(got.intercept)


@pytest.mark.parametrize("seed", [3, 7, 9])
def test_census_separable_fits_stop_early(monkeypatch, seed):
    """Each of these trial-0 splits has a group the "newton" rule fits for
    the full step cap; every fit the margin rule stops stops early."""
    fits, spec = census_fits(monkeypatch, seed, "split")
    assert max(n for _, _, _, n in fits) == spec.iterations
    stopped = [(got, ds, k, n) for got, ds, k, n in fits if k < n]
    assert stopped
    for got, ds, k, n in stopped:
        assert_stops_separated(got, ds, k, n)
