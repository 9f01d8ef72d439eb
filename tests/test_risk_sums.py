"""Per-node loss sums against the per-group row gathers they replace.

The audit replay reads each checked node's risk from the pass's running
loss sums, and prepend reads every group's risk from loss sums by atom.
Each is held here to the gathering reference in ``tests/oracles.py``:
bit for bit under zero-one, whose losses sum to integers, and with the same
verdicts and lists, values within 1e-12 relative, under clipped logistic.
"""

import dataclasses
import itertools
import pathlib
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multigroup.algorithms import DecisionList, PrependCapExceeded, excess_risk_report, \
    mgl_tree, monotonicity_audit, prepend, termination_scan
from multigroup.algorithms.group_tree import _Pass
from multigroup.algorithms.prepend import _CandidatePool
from multigroup.bounds import EpsilonSpec
from multigroup.data import LeafRule, SplitSpec, SyntheticLeaf, SyntheticSpec, make_synthetic, \
    split
from multigroup.groups import build_hierarchy
from multigroup.learners import ConstantPredictor, FeatureEncoder, LearnerSpec, PredictorCache
from multigroup.modelio import save_list_model
from multigroup.risk import CLIPPED_LOGISTIC, ZERO_ONE

import oracles
from synthcases import inverted_leaf_spec, random_hierarchical_spec

ROOT = pathlib.Path(__file__).resolve().parent.parent
CONSTANT = LearnerSpec("constant")
LEARNERS = {"constant": CONSTANT, "tree": LearnerSpec("tree", max_depth=2)}
LOSSES = {"zero_one": ZERO_ONE, "clipped_logistic": CLIPPED_LOGISTIC}
ATOL = 1e-12


@st.composite
def hierarchies(draw):
    """A small product hierarchy of 1-3 attributes with 1-3 categories
    each, leaves of 0-12 rows (at least one row in all), constant or
    linear leaf rules, and label noise or none."""
    attrs = {f"a{i}": tuple(f"c{j}" for j in range(draw(st.integers(1, 3))))
             for i in range(draw(st.integers(1, 3)))}
    leaves = []
    for combo in itertools.product(*attrs.values()):
        if draw(st.booleans()):
            rule = LeafRule("constant", label=draw(st.integers(0, 1)))
        else:
            rule = LeafRule("linear", weights=(draw(st.floats(-2, 2)), 1.0),
                            bias=draw(st.floats(-1, 1)))
        leaves.append(SyntheticLeaf(dict(zip(attrs, combo)), rule, draw(st.integers(0, 12))))
    if not any(leaf.count for leaf in leaves):
        leaves[0] = dataclasses.replace(leaves[0], count=1)
    spec = SyntheticSpec(attributes=attrs, leaves=tuple(leaves), feature_dim=2,
                         noise=draw(st.sampled_from([0.0, 0.2])))
    ds = make_synthetic(spec, seed=draw(st.integers(0, 2**16)))
    return ds, build_hierarchy(ds.schema, list(attrs))


epsilons = st.sampled_from([EpsilonSpec("constant", value=0.0),
                            EpsilonSpec("constant", value=0.05),
                            EpsilonSpec("scaled", scale=0.5)])


def assert_close(got, want):
    """Risks and violation values, which lie in [-1, 1] for finite margins,
    agree to 1e-12 of that range: a difference of nearly equal sums keeps
    the absolute error of its terms, not a relative one."""
    np.testing.assert_allclose(got, want, rtol=0, atol=ATOL)


# ---------------------------------------------------------------------------
# the audit replay
# ---------------------------------------------------------------------------

class SkewedCache(PredictorCache):
    """Answers one group with a constant fit of score ``score``, whatever
    its rows hold."""

    def __init__(self, ds, group_id, score):
        super().__init__(ds)
        self.bad = group_id, ConstantPredictor(score)

    def group_erm(self, spec, tree, g):
        return self.bad[1] if g.id == self.bad[0] else super().group_erm(spec, tree, g)


@pytest.mark.parametrize("loss", list(LOSSES))
def test_forced_worse_update_breaks_the_ancestors_margins(loss):
    """Every row is labelled 1, so each node's own fit ties its parent's and
    updates, except the last leaf, whose fit scores 0. Forcing that leaf to
    update raises the risk of its parent and of the root above their own
    fits': the audit names both, not only the leaf's decision."""
    spec = SyntheticSpec(
        attributes={"a1": ("p", "q"), "a2": ("u", "v")},
        leaves=tuple(SyntheticLeaf({"a1": c1, "a2": c2}, LeafRule("constant", label=1), 4)
                     for c1 in ("p", "q") for c2 in ("u", "v")),
        feature_dim=1,
    )
    ds = make_synthetic(spec, seed=0)
    tree = build_hierarchy(ds.schema, ["a1", "a2"])
    cache = SkewedCache(ds, "a1=q&a2=v", 0.0)
    eps = EpsilonSpec("constant", value=0.0)
    trace = list(mgl_tree(cache, tree, CONSTANT, eps, LOSSES[loss]).trace)
    assert [t.decision for t in trace] == ["updated"] * 5 + ["inherited"]
    trace[-1] = dataclasses.replace(trace[-1], decision="updated")
    verdict = monotonicity_audit(trace, cache, tree, CONSTANT, eps, LOSSES[loss])
    assert [(step, group, kind) for step, group, kind, _ in verdict.violations] == [
        (6, "a1=q&a2=v", "rule"), (6, "a1=q", "margin"), (6, "ALL", "margin")]
    assert verdict.violations == oracles.monotonicity_audit(
        trace, cache, tree, CONSTANT, eps, LOSSES[loss]).violations


@settings(max_examples=60, deadline=None)
@given(hierarchies(), st.sampled_from(list(LEARNERS)), st.sampled_from(list(LOSSES)), epsilons,
       st.data())
def test_audit_matches_the_gathering_replay(case, learner, loss, eps, data):
    """Any trace, with any recorded decisions flipped, gets the verdict of
    the replay that gathers every checked node's rows."""
    ds, tree = case
    spec, loss = LEARNERS[learner], LOSSES[loss]
    cache = PredictorCache(ds)
    trace = list(mgl_tree(cache, tree, spec, eps, loss).trace)
    flips = data.draw(st.lists(st.booleans(), min_size=len(trace), max_size=len(trace)))
    trace = [dataclasses.replace(t, decision={"updated": "inherited"}.get(t.decision, "updated"))
             if flip and t.n_g else t for t, flip in zip(trace, flips)]
    got = monotonicity_audit(trace, cache, tree, spec, eps, loss)
    want = oracles.monotonicity_audit(trace, cache, tree, spec, eps, loss)
    if loss is ZERO_ONE:
        assert got == want
    else:  # the details print risks, which may differ by rounding
        assert [v[:3] for v in got.violations] == [v[:3] for v in want.violations]
    assert got.replay.fits == want.replay.fits and got.replay.decision == want.replay.decision


@settings(max_examples=60, deadline=None)
@given(hierarchies(), st.sampled_from(list(LEARNERS)), st.sampled_from(list(LOSSES)),
       st.data())
def test_running_sums_equal_fresh_gathers(case, learner, loss, data):
    """After every visit, each visited observed node's running sum is its
    rows' gathered loss sum: bit for bit under zero-one, and as a risk
    within 1e-12 under clipped logistic (an ancestor's sum that falls from
    0.1 to 1e-13 keeps the rounding of 0.1)."""
    ds, tree = case
    loss = LOSSES[loss]
    tree_pass = _Pass(PredictorCache(ds), tree, LEARNERS[learner],
                      EpsilonSpec("constant", value=0.0), loss)
    for i in range(1, len(tree)):
        follow = data.draw(st.booleans())
        tree_pass.visit(i, lambda _: follow)
        rows = [r for r in tree_pass.rows[:i + 1] if len(r)]
        sums = [s for s, r in zip(tree_pass.sums, tree_pass.rows[:i + 1]) if len(r)]
        gathers = [tree_pass.row_loss[r].sum() for r in rows]
        if loss is ZERO_ONE:
            assert sums == gathers
        else:
            sizes = [len(r) for r in rows]
            assert_close(np.divide(sums, sizes), np.divide(gathers, sizes))


@pytest.mark.parametrize("learner", ["constant", "tree", "logistic"])
@pytest.mark.parametrize("loss", list(LOSSES))
def test_excess_report_from_the_pass_risks_is_bit_identical(learner, loss):
    """The candidate risks of the fit, and those of its audit replay, give
    the excess rows that scoring every group fit again gives."""
    spec = {**LEARNERS, "logistic": LearnerSpec("logistic", iterations=50)}[learner]
    loss = LOSSES[loss]
    rng = np.random.default_rng(41)
    for _ in range(2):
        synth = random_hierarchical_spec(rng)
        ds = make_synthetic(synth, seed=int(rng.integers(1 << 30)))
        tree = build_hierarchy(ds.schema, list(synth.attributes))
        eps = EpsilonSpec("scaled", scale=0.5)
        predictor = mgl_tree(PredictorCache(ds), tree, spec, eps, loss)
        bench = {t.group_id: t.candidate_risk for t in predictor.trace if t.n_g}
        want = oracles.excess_risk_report(predictor, PredictorCache(ds))
        assert excess_risk_report(predictor, PredictorCache(ds), predictor.trace) == want
        cache = PredictorCache(ds)
        verdict = monotonicity_audit(predictor.trace, cache, tree, spec, eps, loss)
        replayed = {t.group_id: t.candidate_risk for t in verdict.replay.trace if t.n_g}
        assert verdict.ok and replayed == bench
        assert excess_risk_report(predictor, cache, verdict.replay.trace) == want


REPORT_LEARNERS = {**LEARNERS, "logistic": LearnerSpec("logistic", iterations=50),
                   "bagged_trees": LearnerSpec("bagged_trees", n_trees=3, max_depth=2)}


@settings(max_examples=40, deadline=None)
@given(hierarchies(), st.sampled_from(list(REPORT_LEARNERS)), st.sampled_from(list(LOSSES)),
       epsilons)
def test_excess_report_equals_its_oracle(case, learner, loss, eps):
    """The report read from the fit's own trace, and the one read from its
    audit replay's steps, equal the oracle's, which scores every group fit
    again, bit for bit."""
    ds, tree = case
    spec, loss = REPORT_LEARNERS[learner], LOSSES[loss]
    predictor = mgl_tree(PredictorCache(ds), tree, spec, eps, loss)
    want = oracles.excess_risk_report(predictor, PredictorCache(ds))
    assert excess_risk_report(predictor, PredictorCache(ds), predictor.trace) == want
    cache = PredictorCache(ds)
    verdict = monotonicity_audit(predictor.trace, cache, tree, spec, eps, loss)
    assert excess_risk_report(predictor, cache, verdict.replay.trace) == want


# ---------------------------------------------------------------------------
# prepend on the atom partition
# ---------------------------------------------------------------------------

def list_model_text(dlist, cache) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "model.json"
        save_list_model(path, dlist, cache)
        return path.read_text()


def prepend_or_partial(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except PrependCapExceeded as exc:
        return exc.partial


def assert_same_prepend(cache, tree, spec, eps, loss, cap=None):
    """prepend and termination_scan against the gathering pool: the same
    list and model file, and the same stopping-test output on the list and
    on the list without its front half."""
    got = prepend_or_partial(prepend, cache, tree, spec, eps, loss, cap=cap)
    want = prepend_or_partial(oracles.prepend, cache, tree, spec, eps, loss, cap=cap)
    assert [(e.group.id, e.source_id) for e in got.entries] == \
        [(e.group.id, e.source_id) for e in want.entries]
    assert list_model_text(got, cache) == list_model_text(want, cache)
    for cut in (0, len(got) // 2):
        dlist = DecisionList(tree, got.entries[cut:], got.default, spec, got.eps_spec, loss)
        scan, reference = termination_scan(dlist, cache), oracles.termination_scan(dlist, cache)
        if loss is ZERO_ONE:
            assert scan == reference
        else:
            assert [s[:2] for s in scan] == [r[:2] for r in reference]
            assert_close([s[2] for s in scan], [r[2] for r in reference])
    return got


@settings(max_examples=60, deadline=None)
@given(hierarchies(), st.sampled_from(list(LEARNERS)), epsilons, st.integers(1, 12))
def test_prepend_matches_the_gathering_pool(case, learner, eps, cap):
    ds, tree = case
    assert_same_prepend(PredictorCache(ds), tree, LEARNERS[learner], eps, ZERO_ONE, cap)


@settings(max_examples=60, deadline=None)
@given(hierarchies(), st.sampled_from(list(LEARNERS)), epsilons)
def test_prepend_pool_values_match_the_gathering_pool_under_clipped_logistic(case, learner,
                                                                             eps):
    """Sums by atom add in another order than a gather, so two pairs whose
    values tie exactly in real arithmetic (two nested groups whose rows all
    have equal losses) may be ordered differently by rounding, and so may
    the lists. Every candidate risk and every value of the returned list
    stays within 1e-12 of the gathering pool's, and the list certifies
    itself."""
    ds, tree = case
    spec, cache = LEARNERS[learner], PredictorCache(ds)
    dlist = prepend(cache, tree, spec, eps, CLIPPED_LOGISTIC)
    assert termination_scan(dlist, cache) == []
    pool = _CandidatePool(cache, tree, spec, dlist.eps_spec, CLIPPED_LOGISTIC)
    reference = oracles.CandidatePool(cache, tree, spec, dlist.eps_spec, CLIPPED_LOGISTIC)
    assert_close(pool.risks, reference.risks)
    row_loss = CLIPPED_LOGISTIC.per_example(dlist, ds)
    assert_close(pool.values(pool.by_atom(row_loss)), reference.scan(row_loss)[0])


def test_prepend_matches_the_gathering_pool_under_clipped_logistic():
    """The data of the clipped-logistic cases in test_algorithms.py: the
    three random hierarchies with a depth-2 tree learner, and the inverted
    leaf with the logistic learner, at the scaled margin and at zero."""
    rng = np.random.default_rng(31)
    cases = []
    for _ in range(3):
        spec = random_hierarchical_spec(rng)
        ds = make_synthetic(spec, seed=int(rng.integers(1 << 30)))
        cases.append((ds, list(spec.attributes), LearnerSpec("tree", max_depth=2)))
    spec = inverted_leaf_spec(n_per_leaf=60, noise=0.1)
    cases.append((make_synthetic(spec, seed=23), list(spec.attributes),
                  LearnerSpec("logistic", iterations=200)))
    for ds, attributes, learner in cases:
        tree = build_hierarchy(ds.schema, attributes)
        cache = PredictorCache(ds)
        for eps in (EpsilonSpec("scaled", scale=1.0), EpsilonSpec("constant", value=0.0)):
            dlist = assert_same_prepend(cache, tree, learner, eps, CLIPPED_LOGISTIC)
            assert termination_scan(dlist, cache) == []


@pytest.fixture(scope="module")
def deep_split():
    """The trial-0 training split of the benchmark's deep_constant
    workload at seed 1: 24,997 rows, 766 nodes, 727 of them observed."""
    sys.path.insert(0, str(ROOT / "bench"))
    try:
        from workloads import TEST_FRACTION, WORKLOADS
    finally:
        sys.path.remove(str(ROOT / "bench"))
    workload = WORKLOADS["deep_constant"]
    ds = make_synthetic(workload.spec(), 1)
    train, _ = split(ds, SplitSpec(TEST_FRACTION, 1, 0))
    tree = build_hierarchy(ds.schema, list(workload.attributes))
    cache = PredictorCache(train, FeatureEncoder(ds.schema, True))
    cache.group_fits(CONSTANT, tree)
    return cache, tree


def test_prepend_matches_the_gathering_pool_on_the_deep_workload(deep_split):
    cache, tree = deep_split
    dlist = assert_same_prepend(cache, tree, CONSTANT, EpsilonSpec("scaled", scale=1.0),
                                ZERO_ONE)
    assert len(dlist) == 180


def test_prepend_pool_memory_is_bounded_on_the_deep_workload(deep_split):
    """The gathering pool keeps 727 loss vectors of 24,997 rows, a 159 MiB
    peak; sums by atom keep two matrices of about 4 MiB."""
    cache, tree = deep_split
    eps = EpsilonSpec("scaled", scale=1.0)
    tracemalloc.start()
    try:
        dlist = prepend(cache, tree, CONSTANT, eps, ZERO_ONE)
        prepend_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        termination_scan(dlist, cache)
        scan_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert prepend_peak < 30 * 2**20 and scan_peak < 30 * 2**20, (prepend_peak, scan_peak)
