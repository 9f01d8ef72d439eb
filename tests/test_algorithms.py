import dataclasses
import math

import numpy as np
import pytest

from multigroup.algorithms import (
    DecisionList,
    DecisionListEntry,
    GroupTreePredictor,
    PartitionPredictor,
    PrependCapExceeded,
    decoupled,
    excess_risk_report,
    mgl_tree,
    monotonicity_audit,
    prepend,
    termination_scan,
)
from multigroup.bounds import EpsilonSpec, epsilon as eps_value
from multigroup.data import LeafRule, SyntheticLeaf, SyntheticSpec, make_synthetic
from multigroup.groups import Group, GroupTree, build_hierarchy, membership_vector
from multigroup.learners import LearnerSpec, PredictorCache
from multigroup.risk import ZERO_ONE, loss_from_name

import oracles
from oracles import contains_row, deepest_containing, erm, group_risk
from synthcases import (
    FixedPredictor,
    inverted_leaf_spec,
    opposite_separators_spec,
    random_hierarchical_spec,
    two_leaf_constants,
)

CONSTANT = LearnerSpec("constant")


def const_eps(value):
    return EpsilonSpec("constant", value=value)


def two_leaf_setup():
    ds = two_leaf_constants()
    tree = build_hierarchy(ds.schema, ["grp"])
    return ds, tree


def test_mgl_tree_hand_simulation_eps_zero():
    ds, tree = two_leaf_setup()
    predictor = mgl_tree(PredictorCache(ds), tree, CONSTANT, const_eps(0.0), ZERO_ONE)
    decisions = {t.group_id: t.decision for t in predictor.trace}
    assert decisions == {"grp=a": "updated", "grp=b": "updated"}
    mask_a = membership_vector(Group.from_conjuncts([("grp", "a")]), ds)
    preds = predictor.predict(ds)
    assert preds[mask_a].tolist() == [1, 1, 1]
    assert preds[~mask_a].tolist() == [0]
    assert group_risk(predictor, ds, Group("ALL", ()), ZERO_ONE).value == 0.0
    # recorded arithmetic for leaf b: parent risk 1, own fit risk 0
    step_b = next(t for t in predictor.trace if t.group_id == "grp=b")
    assert (step_b.parent_risk, step_b.candidate_risk, step_b.err) == (1.0, 0.0, 1.0)


def test_mgl_tree_hand_simulation_eps_two():
    ds, tree = two_leaf_setup()
    predictor = mgl_tree(PredictorCache(ds), tree, CONSTANT, const_eps(2.0), ZERO_ONE)
    decisions = {t.group_id: t.decision for t in predictor.trace}
    assert decisions == {"grp=a": "inherited", "grp=b": "inherited"}
    assert predictor.predict(ds).tolist() == [1, 1, 1, 1]
    g_b = Group.from_conjuncts([("grp", "b")])
    cache = PredictorCache(ds)
    own = cache.group_erm(CONSTANT, tree, g_b)
    assert group_risk(predictor, ds, g_b, ZERO_ONE).value == 1.0
    assert group_risk(predictor, ds, g_b, ZERO_ONE).value <= \
        group_risk(own, ds, g_b, ZERO_ONE).value + 2.0


def test_mgl_tree_infinite_margin_equals_global_fit():
    spec = inverted_leaf_spec(n_per_leaf=125, noise=0.1)
    ds = make_synthetic(spec, seed=3)
    tree = build_hierarchy(ds.schema, list(spec.attributes))
    predictor = mgl_tree(PredictorCache(ds), tree, CONSTANT, const_eps(math.inf), ZERO_ONE)
    assert all(t.decision.startswith("inherited") for t in predictor.trace)
    probes = make_synthetic(dataclasses.replace(spec, leaves=tuple(
        dataclasses.replace(leaf, count=max(1, 1000 // len(spec.leaves)))
        for leaf in spec.leaves)), seed=99)
    global_fit = erm(CONSTANT, ds)
    assert np.array_equal(predictor.predict(probes), global_fit.predict(probes))


def test_mgl_tree_zero_margin_equals_decoupled_on_train():
    spec = inverted_leaf_spec(n_per_leaf=40, noise=0.2)
    ds = make_synthetic(spec, seed=5)
    tree = build_hierarchy(ds.schema, list(spec.attributes))
    cache = PredictorCache(ds)
    tree_fit = mgl_tree(cache, tree, CONSTANT, const_eps(0.0), ZERO_ONE)
    part_fit = decoupled(cache, tree, CONSTANT)
    assert np.array_equal(tree_fit.predict(ds), part_fit.predict(ds))


def test_mgl_tree_margin_guarantee_random_smoke():
    rng = np.random.default_rng(77)
    for _ in range(5):
        spec = random_hierarchical_spec(rng)
        ds = make_synthetic(spec, seed=int(rng.integers(1 << 30)))
        tree = build_hierarchy(ds.schema, list(spec.attributes))
        cache = PredictorCache(ds)
        for eps in (const_eps(0.0), const_eps(0.1), const_eps(math.inf)):
            predictor = mgl_tree(cache, tree, CONSTANT, eps, ZERO_ONE)
            _, violations = oracles.excess_risk_report(predictor, cache)
            assert violations == []


def test_mgl_tree_trace_records_every_nonroot_node():
    ds, tree = two_leaf_setup()
    predictor = mgl_tree(PredictorCache(ds), tree, CONSTANT, const_eps(0.5), ZERO_ONE)
    assert [t.group_id for t in predictor.trace] == [g.id for g in tree.nodes if not g.is_root]


def test_mgl_tree_empty_nodes_inherit_silently():
    spec = inverted_leaf_spec(n_per_leaf=10, noise=0.0)
    empty_leaf = dataclasses.replace(spec.leaves[0], count=0)
    ds = make_synthetic(dataclasses.replace(
        spec, leaves=(empty_leaf,) + spec.leaves[1:]), seed=1)
    tree = build_hierarchy(ds.schema, list(spec.attributes))
    predictor = mgl_tree(PredictorCache(ds), tree, CONSTANT, const_eps(0.0), ZERO_ONE)
    empties = [t for t in predictor.trace if t.decision == "inherited_empty"]
    assert len(empties) == 1 and empties[0].n_g == 0
    _, violations = oracles.excess_risk_report(predictor, PredictorCache(ds))
    assert violations == []


def test_mgl_tree_rejects_bad_inputs():
    ds, tree = two_leaf_setup()
    with pytest.raises(ValueError, match="empty training"):
        mgl_tree(PredictorCache(ds.take([])), tree, CONSTANT, const_eps(0.0), ZERO_ONE)
    spec = inverted_leaf_spec(n_per_leaf=4, noise=0.0)
    rich = make_synthetic(spec, seed=0)
    with pytest.raises(ValueError, match="invalid hierarchy"):
        crossing = GroupTree([
            Group("ALL", ()),
            Group.from_conjuncts([("a1", "p")]),
            Group.from_conjuncts([("a2", "u")]),
        ])
        mgl_tree(PredictorCache(rich), crossing, CONSTANT, const_eps(0.0), ZERO_ONE)


def test_mgl_tree_determinism():
    spec = inverted_leaf_spec(n_per_leaf=60, noise=0.15)
    ds = make_synthetic(spec, seed=8)
    tree = build_hierarchy(ds.schema, list(spec.attributes))
    learner = LearnerSpec("tree", max_depth=2)
    eps = EpsilonSpec("scaled", scale=1.0)
    a = mgl_tree(PredictorCache(ds), tree, learner, eps, ZERO_ONE)
    b = mgl_tree(PredictorCache(ds), tree, learner, eps, ZERO_ONE)
    assert [t.to_json() for t in a.trace] == [t.to_json() for t in b.trace]
    assert np.array_equal(a.predict(ds), b.predict(ds))


@pytest.mark.parametrize("loss", ["zero_one", "clipped_logistic"])
def test_mgl_tree_risks_match_mask_reference(loss):
    """Each trace step's risks, recomputed over membership masks, are bit-equal."""
    loss = loss_from_name(loss)
    learner = LearnerSpec("tree", max_depth=2)
    rng = np.random.default_rng(31)
    for _ in range(3):
        spec = random_hierarchical_spec(rng)
        ds = make_synthetic(spec, seed=int(rng.integers(1 << 30)))
        tree = build_hierarchy(ds.schema, list(spec.attributes))
        cache = PredictorCache(ds)
        predictor = mgl_tree(cache, tree, learner, EpsilonSpec("scaled", scale=1.0), loss)
        for step in predictor.trace:
            g = tree.node(step.group_id)
            mask = membership_vector(g, ds)
            assert step.n_g == mask.sum()
            if not step.n_g:
                assert step.parent_risk is None and step.candidate_risk is None
                continue
            parent_pred = predictor.fits[predictor.source[tree.parent(g.id).id]]
            candidate = cache.group_erm(learner, tree, g)
            assert step.parent_risk == float(
                loss.per_example(parent_pred, ds)[mask].sum() / step.n_g)
            assert step.candidate_risk == float(
                loss.per_example(candidate, ds)[mask].sum() / step.n_g)


# ---------------------------------------------------------------------------
# prepend
# ---------------------------------------------------------------------------

def test_prepend_hand_simulation():
    ds, tree = two_leaf_setup()
    cache = PredictorCache(ds)
    g_b = Group.from_conjuncts([("grp", "b")])
    global_fit = cache.erm(CONSTANT)
    own_b = cache.group_erm(CONSTANT, tree, g_b)
    violation = group_risk(global_fit, ds, g_b, ZERO_ONE).value \
        - group_risk(own_b, ds, g_b, ZERO_ONE).value - 0.25
    assert violation == 0.75

    dlist = prepend(cache, tree, CONSTANT, const_eps(0.25), ZERO_ONE)
    assert [(e.group.id, e.source_id) for e in dlist.entries] == [("grp=b", "grp=b")]
    assert dlist.predict(ds).tolist() == [1, 1, 1, 0]
    assert termination_scan(dlist, cache) == []


def test_prepend_infinite_margin_returns_bare_default():
    ds, tree = two_leaf_setup()
    dlist = prepend(PredictorCache(ds), tree, CONSTANT, const_eps(math.inf), ZERO_ONE)
    assert len(dlist) == 0
    assert np.array_equal(dlist.predict(ds), erm(CONSTANT, ds).predict(ds))


def test_prepend_zero_margin_hits_cap_with_partial_payload():
    # leaves b and c each violate the global majority, so a zero margin
    # needs two rounds; a cap of 1 is hit with one rule in the list
    ds = make_synthetic(SyntheticSpec(
        attributes={"grp": ("a", "b", "c")},
        leaves=(
            SyntheticLeaf({"grp": "a"}, LeafRule("constant", label=1), 5),
            SyntheticLeaf({"grp": "b"}, LeafRule("constant", label=0), 2),
            SyntheticLeaf({"grp": "c"}, LeafRule("constant", label=0), 2),
        ),
        feature_dim=1,
    ), seed=0)
    tree = build_hierarchy(ds.schema, ["grp"])
    with pytest.raises(PrependCapExceeded, match="cap=1") as excinfo:
        prepend(PredictorCache(ds), tree, CONSTANT, const_eps(0.0), ZERO_ONE, cap=1)
    assert isinstance(excinfo.value.partial, DecisionList)
    assert len(excinfo.value.partial) == 1
    assert len(prepend(PredictorCache(ds), tree, CONSTANT, const_eps(0.0), ZERO_ONE, cap=2)) == 2


def test_prepend_zero_margin_terminates():
    """A pair whose violation value is exactly 0 is not prepended again."""
    ds, tree = two_leaf_setup()
    dlist = prepend(PredictorCache(ds), tree, CONSTANT, const_eps(0.0), ZERO_ONE, cap=1)
    assert [(e.group.id, e.source_id) for e in dlist.entries] == [("grp=b", "grp=b")]
    assert termination_scan(dlist, PredictorCache(ds)) == []


def test_prepend_termination_scan_random_fixtures():
    rng = np.random.default_rng(10)
    for _ in range(5):
        spec = random_hierarchical_spec(rng)
        ds = make_synthetic(spec, seed=int(rng.integers(1 << 30)))
        tree = build_hierarchy(ds.schema, list(spec.attributes))
        cache = PredictorCache(ds)
        eps = EpsilonSpec("scaled", scale=3.0)
        dlist = prepend(cache, tree, CONSTANT, eps, ZERO_ONE)
        assert termination_scan(dlist, cache) == []


def _routed_fixture(kind, ds, rng):
    """A routed predictor over random per-row stubs, plus its per-row oracle:
    row -> the stub that should answer it."""
    def stub():
        return FixedPredictor(rng.integers(0, 2, size=ds.n), rows_of=ds)

    default = stub()
    tree = build_hierarchy(ds.schema, ["a1", "a2", "a3"])
    if kind == "decision_list":
        # a1=q sits after one of its descendants, which takes part of its
        # rows, and before another, which it shadows; a1=p&a2=v&a3=t rows
        # match no entry and go to the default
        ids = ["a1=q&a2=u", "a1=q", "a1=q&a2=v&a3=t", "a1=p&a2=v&a3=s", "a1=p&a2=u"]
        entries = [DecisionListEntry(tree.node(gid), stub(), gid) for gid in ids]
        dlist = DecisionList(tree, entries, default, CONSTANT, const_eps(0.0), ZERO_ONE)

        def oracle(row):
            return next((e.predictor for e in entries if contains_row(e.group, row)), default)
        return dlist, oracle
    if kind == "group_tree":
        # pruned so that some rows stop at the root (its default), some at
        # depth 1 and some at depth 2
        tree = GroupTree([g for g in tree.nodes if not g.id.startswith(("a1=q", "a1=p&a2=v"))
                          and g.id != "a1=p&a2=u&a3=s"])
        fits = {g.id: stub() for g in tree.nodes}
        source = {g.id: g.id for g in tree.nodes}
        decision = {g.id: "root" if g.is_root else "updated" for g in tree.nodes}
        predictor = GroupTreePredictor(tree, fits, source, decision, [], CONSTANT,
                                       const_eps(0.0), ZERO_ONE)
        return predictor, lambda row: fits[deepest_containing(tree, row).id]
    tree = GroupTree([g for g in tree.nodes if g.id != "a1=p&a2=u&a3=t"])
    leaves = tree.leaves()
    per_leaf = {leaf.id: stub() for leaf in leaves}
    predictor = PartitionPredictor(tree, per_leaf, default, CONSTANT)

    def oracle(row):
        return next((per_leaf[leaf.id] for leaf in leaves if contains_row(leaf, row)), default)
    return predictor, oracle


@pytest.mark.parametrize("kind", ["decision_list", "group_tree", "partition"])
def test_decision_list_scan_semantics_brute_force(kind):
    rng = np.random.default_rng(14)
    spec = inverted_leaf_spec(n_per_leaf=125, noise=0.3)
    ds = make_synthetic(spec, seed=2)
    assert ds.n == 1000
    predictor, oracle = _routed_fixture(kind, ds, rng)
    expected = [oracle(oracles.row(ds, i)) for i in range(ds.n)]
    got = predictor.predict(ds)
    for i, p in enumerate(expected):
        assert got[i] == p.predict(ds)[i]


def loop_scan(row_loss, train, groups, candidates, eps):
    """Reference: every (observed group, candidate) violation value, one pair
    at a time in group-then-candidate order; candidates carry their losses."""
    out = []
    for g in groups:
        mask = membership_vector(g, train)
        n_g = int(mask.sum())
        if n_g == 0:
            continue
        list_risk = row_loss[mask].sum() / n_g
        margin = eps_value(eps, n_g)
        for source_id, losses in candidates:
            out.append((g, source_id, losses, list_risk - losses[mask].sum() / n_g - margin))
    return out


def test_prepend_scan_matches_loop_reference():
    rng = np.random.default_rng(12)
    for scale in (0.0, 0.5, 3.0):
        spec = random_hierarchical_spec(rng)
        ds = make_synthetic(spec, seed=int(rng.integers(1 << 30)))
        tree = build_hierarchy(ds.schema, list(spec.attributes))
        cache = PredictorCache(ds)
        eps = EpsilonSpec("scaled", scale=scale)
        ctx = eps.with_context(group_count=len(tree), n_total=ds.n)
        observed = sorted((g for g in tree.nodes if not g.is_root
                           and membership_vector(g, ds).any()), key=lambda g: g.id)
        fits = [("ALL", cache.erm(CONSTANT))] + \
            [(g.id, cache.group_erm(CONSTANT, tree, g)) for g in observed]
        candidates = [(source, ZERO_ONE.per_example(fit, ds)) for source, fit in fits]
        cap = 2 * len(tree)
        row_loss = candidates[0][1].copy()
        expected = []
        for _ in range(cap):
            best = None
            for pair in loop_scan(row_loss, ds, tree.nodes, candidates, ctx):
                if best is None or pair[3] > best[3]:  # the first maximum wins ties
                    best = pair
            if best[3] <= 0:
                break
            expected.insert(0, (best[0].id, best[1]))
            mask = membership_vector(best[0], ds)
            row_loss[mask] = best[2][mask]
        try:
            dlist = prepend(cache, tree, CONSTANT, eps, ZERO_ONE, cap=cap)
        except PrependCapExceeded as exc:
            dlist = exc.partial
        assert [(e.group.id, e.source_id) for e in dlist.entries] == expected
        outstanding = [(g.id, source, float(value)) for g, source, _, value in loop_scan(
            ZERO_ONE.per_example(dlist, ds), ds, tree.nodes, candidates, ctx) if value > 0]
        assert termination_scan(dlist, cache) == outstanding


def test_prepend_determinism():
    spec = inverted_leaf_spec(n_per_leaf=50, noise=0.1)
    ds = make_synthetic(spec, seed=6)
    tree = build_hierarchy(ds.schema, list(spec.attributes))
    eps = EpsilonSpec("scaled", scale=2.0)
    a = prepend(PredictorCache(ds), tree, CONSTANT, eps, ZERO_ONE)
    b = prepend(PredictorCache(ds), tree, CONSTANT, eps, ZERO_ONE)
    assert [(e.group.id, e.source_id) for e in a.entries] == \
        [(e.group.id, e.source_id) for e in b.entries]
    assert np.array_equal(a.predict(ds), b.predict(ds))


# ---------------------------------------------------------------------------
# decoupled
# ---------------------------------------------------------------------------

class MustNotScore:
    """A fallback stub that fails the test if any row is routed to it."""

    def scores(self, ds):
        raise AssertionError(f"fallback scored on {ds.n} rows")

    predict = scores


def test_decoupled_full_product_never_needs_fallback():
    spec = inverted_leaf_spec(n_per_leaf=20, noise=0.0)
    ds = make_synthetic(spec, seed=4)
    tree = build_hierarchy(ds.schema, list(spec.attributes))
    fitted = decoupled(PredictorCache(ds), tree, CONSTANT)
    predictor = PartitionPredictor(tree, fitted.per_leaf, MustNotScore(), CONSTANT)
    assert np.array_equal(predictor.predict(ds), fitted.predict(ds))


def test_decoupled_single_leaf_equals_erm():
    ds, _ = two_leaf_setup()
    tree = GroupTree([Group("ALL", ())])
    predictor = decoupled(PredictorCache(ds), tree, CONSTANT)
    assert np.array_equal(predictor.predict(ds), erm(CONSTANT, ds).predict(ds))


def test_decoupled_uncovered_rows_use_fallback():
    ds, full = two_leaf_setup()
    pruned = GroupTree([g for g in full.nodes if g.id != "grp=b"])
    routed = decoupled(PredictorCache(ds), pruned, CONSTANT)
    assert np.array_equal(
        routed.predict(ds)[membership_vector(Group.from_conjuncts([("grp", "b")]), ds)],
        erm(CONSTANT, ds).predict(ds)[3:],
    )


def test_decoupled_empty_leaf_has_no_fit_and_reaches_fallback():
    ds, tree = two_leaf_setup()
    in_a = membership_vector(Group.from_conjuncts([("grp", "a")]), ds)
    cache = PredictorCache(ds.take(np.flatnonzero(in_a)))
    routed = decoupled(cache, tree, CONSTANT)
    assert list(routed.per_leaf) == ["grp=a"]
    assert np.array_equal(routed.predict(ds)[~in_a], cache.erm(CONSTANT).predict(ds)[~in_a])


def test_decoupled_improves_each_leaf_on_planted_data():
    ds = make_synthetic(opposite_separators_spec(2000, noise=0.0), seed=31)
    tree = build_hierarchy(ds.schema, ["grp"])
    spec = LearnerSpec("logistic", iterations=500)
    cache = PredictorCache(ds)
    part = decoupled(cache, tree, spec)
    global_fit = cache.erm(spec)
    for cat in ("a", "b"):
        mask = membership_vector(Group.from_conjuncts([("grp", cat)]), ds)
        y = ds.labels()[mask]
        assert float((part.predict(ds)[mask] != y).mean()) < \
            float((global_fit.predict(ds)[mask] != y).mean())


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def test_audit_clean_on_fresh_runs():
    rng = np.random.default_rng(20)
    for _ in range(3):
        spec = random_hierarchical_spec(rng)
        ds = make_synthetic(spec, seed=int(rng.integers(1 << 30)))
        tree = build_hierarchy(ds.schema, list(spec.attributes))
        cache = PredictorCache(ds)
        for eps in (const_eps(0.0), EpsilonSpec("scaled", scale=2.0)):
            predictor = mgl_tree(cache, tree, CONSTANT, eps, ZERO_ONE)
            verdict = monotonicity_audit(
                predictor.trace, cache, tree, CONSTANT, eps, ZERO_ONE)
            assert verdict.ok, verdict.describe()
            # following a clean trace rebuilds the fitted tree itself
            assert verdict.replay.decision == predictor.decision
            assert verdict.replay.fits == predictor.fits
            assert verdict.replay.source == predictor.source
            assert verdict.replay.trace == predictor.trace


def test_audit_flags_tampered_trace():
    spec = inverted_leaf_spec(n_per_leaf=50, noise=0.1)
    ds = make_synthetic(spec, seed=12)
    tree = build_hierarchy(ds.schema, list(spec.attributes))
    predictor = mgl_tree(PredictorCache(ds), tree, CONSTANT, const_eps(0.3), ZERO_ONE)
    trace = list(predictor.trace)
    flip_at = next(i for i, t in enumerate(trace) if t.decision == "inherited")
    trace[flip_at] = dataclasses.replace(trace[flip_at], decision="updated")
    verdict = monotonicity_audit(trace, PredictorCache(ds), tree, CONSTANT, const_eps(0.3),
                                 ZERO_ONE)
    assert not verdict.ok
    assert any(kind == "rule" and group == trace[flip_at].group_id
               for _, group, kind, _ in verdict.violations)


def test_audit_margin_checks_inherited_node_after_last_update():
    """A node forced to inherit after the last update still has its risk
    checked against its margin, at its own visit."""
    spec = inverted_leaf_spec(n_per_leaf=40, noise=0.3)
    ds = make_synthetic(spec, seed=2)
    tree = build_hierarchy(ds.schema, list(spec.attributes))
    cache = PredictorCache(ds)
    predictor = mgl_tree(cache, tree, CONSTANT, const_eps(0.0), ZERO_ONE)
    trace = list(predictor.trace)
    last = max(i for i, t in enumerate(trace) if t.decision == "updated")
    assert last == len(trace) - 1
    assert trace[last].group_id == "a1=q&a2=v&a3=t" and trace[last].err == pytest.approx(0.45)
    trace[last] = dataclasses.replace(trace[last], decision="inherited")
    verdict = monotonicity_audit(trace, cache, tree, CONSTANT, const_eps(0.0), ZERO_ONE)
    assert [(step, group, kind) for step, group, kind, _ in verdict.violations] == [
        (last + 1, "a1=q&a2=v&a3=t", "rule"),
        (last + 1, "a1=q&a2=v&a3=t", "margin"),
    ]


@pytest.mark.parametrize("seed", range(4))
def test_audit_reports_each_margin_violation_once(seed):
    """Forcing a leaf with a positive err to inherit breaks its margin once:
    later updates elsewhere do not change its risk, so it is not reported
    again."""
    spec = random_hierarchical_spec(np.random.default_rng(seed))
    ds = make_synthetic(spec, seed=seed)
    tree = build_hierarchy(ds.schema, list(spec.attributes))
    cache = PredictorCache(ds)
    predictor = mgl_tree(cache, tree, CONSTANT, const_eps(0.0), ZERO_ONE)
    trace = list(predictor.trace)
    parents = {tree.parent(g.id).id for g in tree.nodes[1:]}
    forced = next(i for i, t in enumerate(trace)
                  if t.err is not None and t.err > 0 and t.group_id not in parents)
    assert any(t.decision == "updated" for t in trace[forced + 1:])
    trace[forced] = dataclasses.replace(trace[forced], decision="inherited")
    verdict = monotonicity_audit(trace, cache, tree, CONSTANT, const_eps(0.0), ZERO_ONE)
    assert [(step, group, kind) for step, group, kind, _ in verdict.violations] == [
        (forced + 1, trace[forced].group_id, "rule"),
        (forced + 1, trace[forced].group_id, "margin"),
    ]


def test_audit_rejects_mismatched_trace():
    ds, tree = two_leaf_setup()
    predictor = mgl_tree(PredictorCache(ds), tree, CONSTANT, const_eps(0.0), ZERO_ONE)
    with pytest.raises(ValueError, match="breadth-first"):
        monotonicity_audit(predictor.trace[:1], PredictorCache(ds), tree, CONSTANT,
                           const_eps(0.0), ZERO_ONE)


def test_working_predictors_share_identity_when_inherited():
    ds, tree = two_leaf_setup()
    predictor = mgl_tree(PredictorCache(ds), tree, CONSTANT, const_eps(math.inf), ZERO_ONE)
    assert predictor.fits == {"ALL": predictor.fits["ALL"]}
    assert predictor.source == {"ALL": "ALL", "grp=a": "ALL", "grp=b": "ALL"}


class CountingFit:
    """Wraps a fit and records the row count of every call to it."""

    def __init__(self, fit, calls):
        self.fit, self.calls = fit, calls

    def scores(self, ds):
        self.calls.append((self, ds.n))
        return self.fit.scores(ds)


@pytest.mark.parametrize("seed", range(4))
def test_fitted_tree_holds_one_fit_per_owning_node(seed):
    """The fitted tree keeps the fits of the root and the updated nodes and
    nothing else, every node's source is its nearest owning node, and one
    routed predict scores only those fits, each at most once."""
    spec = random_hierarchical_spec(np.random.default_rng(seed))
    ds = make_synthetic(spec, seed=seed)
    tree = build_hierarchy(ds.schema, list(spec.attributes))
    predictor = mgl_tree(PredictorCache(ds), tree, CONSTANT, const_eps(0.02), ZERO_ONE)
    updated = [t.group_id for t in predictor.trace if t.decision == "updated"]
    assert updated and len(updated) < len(predictor.trace)
    assert sorted(predictor.fits) == sorted([tree.root.id] + updated)
    for g in tree.nodes:
        owner = g.id if g.id in predictor.fits else predictor.source[tree.parent(g.id).id]
        assert predictor.source[g.id] == owner

    calls = []
    counted = GroupTreePredictor(
        tree, {gid: CountingFit(fit, calls) for gid, fit in predictor.fits.items()},
        predictor.source, predictor.decision, predictor.trace, CONSTANT, const_eps(0.02),
        ZERO_ONE)
    assert len(list(counted._rules(ds))) == len(updated)
    assert np.array_equal(counted.predict(ds), predictor.predict(ds))
    called = [fit for fit, _ in calls]
    assert len(set(map(id, called))) == len(called)
    assert all(any(fit is f for f in counted.fits.values()) for fit in called)
    assert sum(n for _, n in calls) == ds.n


def test_excess_report_carries_uc_width_for_closed_form_margins():
    ds, tree = two_leaf_setup()
    eps = EpsilonSpec("finite_h", delta=0.05, h_size=4)
    predictor = mgl_tree(PredictorCache(ds), tree, CONSTANT, eps, ZERO_ONE)
    rows, _ = excess_risk_report(predictor, PredictorCache(ds), predictor.trace)
    for row in rows:
        assert row["uc_width"] is not None
        assert row["epsilon"] == 2.0 * row["uc_width"]
    fitted = mgl_tree(PredictorCache(ds), tree, CONSTANT, const_eps(0.1), ZERO_ONE)
    rows_const, _ = excess_risk_report(fitted, PredictorCache(ds), fitted.trace)
    assert all(r["uc_width"] is None for r in rows_const)


def test_mgl_tree_with_clipped_logistic_training_loss():
    from multigroup.risk import CLIPPED_LOGISTIC

    spec = inverted_leaf_spec(n_per_leaf=60, noise=0.1)
    ds = make_synthetic(spec, seed=23)
    tree = build_hierarchy(ds.schema, list(spec.attributes))
    cache = PredictorCache(ds)
    learner = LearnerSpec("logistic", iterations=200)
    predictor = mgl_tree(cache, tree, learner, EpsilonSpec("scaled", scale=1.0),
                         CLIPPED_LOGISTIC)
    assert predictor.loss is CLIPPED_LOGISTIC
    _, violations = oracles.excess_risk_report(predictor, cache)
    assert violations == []
    verdict = monotonicity_audit(predictor.trace, cache, tree, learner,
                                 EpsilonSpec("scaled", scale=1.0),
                                 CLIPPED_LOGISTIC)
    assert verdict.ok, verdict.describe()


def test_mgl_tree_with_bagged_trees_learner():
    spec = inverted_leaf_spec(n_per_leaf=40, noise=0.1)
    ds = make_synthetic(spec, seed=29)
    tree = build_hierarchy(ds.schema, list(spec.attributes))
    learner = LearnerSpec("bagged_trees", n_trees=5, max_depth=2)
    predictor = mgl_tree(PredictorCache(ds), tree, learner, EpsilonSpec("scaled", scale=2.0),
                         ZERO_ONE)
    _, violations = oracles.excess_risk_report(predictor, PredictorCache(ds))
    assert violations == []
    again = mgl_tree(PredictorCache(ds), tree, learner, EpsilonSpec("scaled", scale=2.0),
                     ZERO_ONE)
    assert np.array_equal(predictor.predict(ds), again.predict(ds))
