"""Row-only scoring against the full-rows reference.

The package scores each predictor only on the rows it answers for: ``route``
scores each distinct predictor once on ``ds.take(rows)``, and the
breadth-first pass and ``excess_risk_report`` score a group's fit on that
group's rows. The references below are the earlier full-rows versions: they
score every predictor on all of ``ds`` and then index the rows they keep.
Constant, tree and bagged predictors score each row on its own, so their
outputs must be bit-identical. A logistic score is ``sigmoid(X @ f + b)``
with the standardization folded into f and b, and the matrix-vector
product may round a row's dot product differently in a block of another
size. Over 8.3M row scores (each logistic group fit, iterations=50, on
every group's rows of the train and test splits of the hierarchies of
seeds 0-5) the largest move measured was 5.6e-16, about 2.5 ulp at 1.0;
the standardized form, measured the same way, moved up to 1.3e-15. So
logistic outputs are held to LOGISTIC_ATOL.
"""

import importlib

import numpy as np
import pytest

from multigroup.algorithms import TraceStep, decoupled, excess_risk_report, mgl_tree, prepend
from multigroup.bounds import EpsilonSpec, epsilon, uc_width
from multigroup.data import SplitSpec, make_synthetic, split
from multigroup.groups import GroupTree, build_hierarchy
from multigroup.learners import LearnerSpec, PredictorCache
from multigroup.risk import CLIPPED_LOGISTIC, ZERO_ONE

from synthcases import random_hierarchical_spec

LOGISTIC_ATOL = 1e-15

LEARNERS = {
    "constant": LearnerSpec("constant"),
    "logistic": LearnerSpec("logistic", iterations=50),
    "tree": LearnerSpec("tree", max_depth=2),
    "bagged": LearnerSpec("bagged_trees", max_depth=2, n_trees=4, seed=3),
}
EPS = EpsilonSpec("scaled", scale=0.2)


def full_rows_route(ds, rules, default):
    """Reference router: each distinct predictor is scored once on the
    whole dataset and the routed rows are read from that full array."""
    out = np.empty(ds.n)
    free = np.ones(ds.n, dtype=bool)
    left = ds.n
    values = {}

    def fill(predictor, rows):
        key = id(predictor)
        if key not in values:
            values[key] = predictor.scores(ds)
        out[rows] = values[key][rows]

    for rows, predictor in rules:
        if not left:
            break
        rows = rows[free[rows]]
        if len(rows):
            fill(predictor, rows)
            free[rows] = False
            left -= len(rows)
    if left:
        fill(default, np.flatnonzero(free))
    return out


@pytest.fixture
def full_rows(monkeypatch):
    """Within the test, every routed predictor uses the reference router."""
    def use():
        for name in ("group_tree", "prepend", "decoupled"):
            module = importlib.import_module(f"multigroup.algorithms.{name}")
            monkeypatch.setattr(module, "route", full_rows_route)
    return use


def full_rows_trace(train, tree, spec, eps, loss, cache):
    """Reference breadth-first pass: every candidate scored on all rows."""
    eps = eps.with_context(group_count=len(tree), n_total=train.n)
    rows = tree.rows(train)
    row_loss = loss.per_example(cache.erm(spec), train).copy()
    trace = []
    for i, g in enumerate(tree.nodes[1:], start=1):
        r = rows[i]
        n_g = len(r)
        if n_g == 0:
            trace.append(TraceStep(g.id, 0, None, None, epsilon(eps, 0), None,
                                   "inherited_empty"))
            continue
        candidate_loss = loss.per_example(cache.group_erm(spec, tree, g), train)
        parent_risk = float(row_loss[r].sum() / n_g)
        candidate_risk = float(candidate_loss[r].sum() / n_g)
        margin = epsilon(eps, n_g)
        err = parent_risk - candidate_risk - margin
        trace.append(TraceStep(g.id, n_g, parent_risk, candidate_risk, margin, err,
                               "updated" if err >= 0 else "inherited"))
        if err >= 0:
            row_loss[r] = candidate_loss[r]
    return trace


def full_rows_excess(predictor, train, cache):
    """Reference excess_risk_report rows: group fits scored on all rows."""
    tree = predictor.tree
    eps = predictor.eps_spec.with_context(group_count=len(tree), n_total=train.n)
    tree_losses = predictor.loss.per_example(predictor, train)
    out = []
    for g, r in zip(tree.nodes, tree.rows(train)):
        n_g = len(r)
        if n_g == 0:
            continue
        benchmark = cache.group_erm(predictor.learner_spec, tree, g)
        bench_risk = float(predictor.loss.per_example(benchmark, train)[r].sum() / n_g)
        tree_risk = float(tree_losses[r].sum() / n_g)
        margin = epsilon(eps, n_g)
        out.append({
            "group_id": g.id,
            "n_g": n_g,
            "tree_risk": tree_risk,
            "benchmark_risk": bench_risk,
            "epsilon": margin,
            "uc_width": uc_width(eps, n_g) if eps.kind in ("finite_h", "vc") else None,
            "excess": tree_risk - bench_risk - margin,
        })
    return out


def _fixture(seed):
    rng = np.random.default_rng(seed)
    spec = random_hierarchical_spec(rng)
    ds = make_synthetic(spec, seed=seed)
    train, test = split(ds, SplitSpec(test_fraction=0.3, seed=seed))
    return train, test, build_hierarchy(ds.schema, list(spec.attributes))


def _assert_same(kind, got, want):
    if kind == "logistic" and got.dtype == np.float64:
        np.testing.assert_allclose(got, want, rtol=0, atol=LOGISTIC_ATOL)
    else:
        assert np.array_equal(got, want)


def _assert_same_steps(kind, got, want):
    if kind != "logistic":
        assert got == want
        return
    assert [(s.group_id, s.n_g, s.decision) for s in got] == \
        [(s.group_id, s.n_g, s.decision) for s in want]
    for field in ("parent_risk", "candidate_risk", "epsilon", "err"):
        a = np.array([getattr(s, field) for s in got], dtype=np.float64)
        b = np.array([getattr(s, field) for s in want], dtype=np.float64)
        np.testing.assert_allclose(a, b, rtol=0, atol=LOGISTIC_ATOL)


@pytest.mark.parametrize("kind", list(LEARNERS))
@pytest.mark.parametrize("seed", [5, 17])
def test_routed_predictors_match_full_rows_reference(kind, seed, full_rows):
    train, test, tree = _fixture(seed)
    spec = LEARNERS[kind]
    cache = PredictorCache(train)
    # a pruned hierarchy leaves some rows outside every leaf, so the
    # partition's fallback answers part of the data too
    pruned = GroupTree(tree.nodes[:-1])
    predictors = [
        mgl_tree(cache, tree, spec, EPS, ZERO_ONE),
        prepend(cache, tree, spec, EPS, ZERO_ONE),
        decoupled(cache, tree, spec),
        decoupled(cache, pruned, spec),
    ]
    cases = [(p, ds, method) for p in predictors for ds in (train, test)
             for method in ("scores", "predict")]
    got = [getattr(p, method)(ds) for p, ds, method in cases]
    got_loss = [CLIPPED_LOGISTIC.per_example(p, ds) for p, ds, _ in cases[::2]]
    full_rows()
    for (p, ds, method), value in zip(cases, got):
        _assert_same(kind, value, getattr(p, method)(ds))
    for (p, ds, _), value in zip(cases[::2], got_loss):
        _assert_same(kind, value, CLIPPED_LOGISTIC.per_example(p, ds))


@pytest.mark.parametrize("kind", list(LEARNERS))
@pytest.mark.parametrize("loss", [ZERO_ONE, CLIPPED_LOGISTIC], ids=lambda l: l.kind)
def test_mgl_tree_trace_and_excess_rows_match_full_rows_reference(kind, loss, full_rows):
    train, _, tree = _fixture(11)
    spec = LEARNERS[kind]
    cache = PredictorCache(train)
    predictor = mgl_tree(cache, tree, spec, EPS, loss)
    rows, _ = excess_risk_report(predictor, cache, predictor.trace)
    _assert_same_steps(kind, predictor.trace,
                       full_rows_trace(train, tree, spec, EPS, loss, cache))
    full_rows()
    want = full_rows_excess(predictor, train, cache)
    if kind != "logistic":
        assert rows == want
        return
    assert [(r["group_id"], r["n_g"]) for r in rows] == [(r["group_id"], r["n_g"]) for r in want]
    for field in ("tree_risk", "benchmark_risk", "epsilon", "excess"):
        np.testing.assert_allclose([r[field] for r in rows], [r[field] for r in want],
                                   rtol=0, atol=LOGISTIC_ATOL)
