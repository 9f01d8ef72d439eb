import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multigroup.groups import Group
from multigroup.risk import CLIPPED_LOGISTIC, LOG_CLIP_CAP, ZERO_ONE, loss_from_name

from oracles import IndexGroup, RiskValue, dataset_from_values, decompose_check, empirical_risk, \
    group_risk
from synthcases import FixedPredictor, two_leaf_constants


def label_dataset(y):
    from multigroup.data import AttributeSchema, Column

    schema = AttributeSchema(
        columns=(Column("x0", "numeric"), Column("label", "binary-label")),
        label_column="label",
    )
    return dataset_from_values(schema, {"x0": np.zeros(len(y)), "label": y})


def test_perfect_predictor_zero_risk():
    ds = label_dataset([1, 0, 1])
    f = FixedPredictor([1, 0, 1])
    assert empirical_risk(f, ds, ZERO_ONE).value == 0.0


def test_constant_one_risk():
    ds = label_dataset([1, 0, 0, 1])
    f = FixedPredictor([1, 1, 1, 1])
    assert empirical_risk(f, ds, ZERO_ONE).value == 0.5


def test_empirical_risk_matches_loop_oracle():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(1, 300))
        y = rng.integers(0, 2, size=n)
        ds = label_dataset(y)
        f = FixedPredictor(rng.integers(0, 2, size=n), rng.random(n))
        for loss in (ZERO_ONE, CLIPPED_LOGISTIC):
            per = loss.per_example(f, ds)
            total = 0.0
            for i in range(n):
                total += per[i]
            assert abs(empirical_risk(f, ds, loss).value - total / n) < 1e-12


def test_group_risk_on_root_equals_empirical():
    ds = two_leaf_constants()
    f = FixedPredictor([1, 1, 1, 1])
    assert group_risk(f, ds, Group("ALL", ()), ZERO_ONE).value == \
        empirical_risk(f, ds, ZERO_ONE).value


def test_group_risk_empty_group_absent():
    ds = two_leaf_constants()
    value = group_risk(FixedPredictor([1] * 4), ds, IndexGroup("none", frozenset()), ZERO_ONE)
    assert value.absent and value.value is None and value.support == 0


def test_group_risk_matches_masked_loop():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(2, 200))
        y = rng.integers(0, 2, size=n)
        ds = label_dataset(y)
        f = FixedPredictor(rng.integers(0, 2, size=n), rng.random(n))
        rows = frozenset(int(i) for i in rng.choice(n, size=rng.integers(1, n), replace=False))
        g = IndexGroup("rand", rows)
        for loss in (ZERO_ONE, CLIPPED_LOGISTIC):
            per = loss.per_example(f, ds)
            expect = sum(per[i] for i in sorted(rows)) / len(rows)
            assert abs(group_risk(f, ds, g, loss).value - expect) < 1e-12


def test_group_risk_row_order_invariant():
    rng = np.random.default_rng(5)
    y = rng.integers(0, 2, size=40)
    preds = rng.integers(0, 2, size=40)
    ds = label_dataset(y)
    g = IndexGroup("front", frozenset(range(15)))
    base = group_risk(FixedPredictor(preds), ds, g, ZERO_ONE).value
    perm = rng.permutation(40)
    ds2 = label_dataset(y[perm])
    g2 = IndexGroup("front", frozenset(int(np.flatnonzero(perm == i)[0]) for i in range(15)))
    assert group_risk(FixedPredictor(preds[perm]), ds2, g2, ZERO_ONE).value == pytest.approx(
        base, abs=1e-15)


def test_zero_one_group_risk_is_one_minus_accuracy():
    rng = np.random.default_rng(11)
    y = rng.integers(0, 2, size=64)
    preds = rng.integers(0, 2, size=64)
    ds = label_dataset(y)
    risk = group_risk(FixedPredictor(preds), ds, Group("ALL", ()), ZERO_ONE).value
    accuracy = float((preds == y).mean())
    assert risk == 1.0 - accuracy


def test_decompose_hand_example():
    ds = label_dataset([0, 0, 0, 0])
    f = FixedPredictor([0, 1, 1, 1])  # losses 0,1,1,1
    g1 = IndexGroup("g1", frozenset({0, 1}))
    g2 = IndexGroup("g2", frozenset({2, 3}))
    union = IndexGroup("u", frozenset(range(4)))
    assert group_risk(f, ds, union, ZERO_ONE).value == 0.75
    assert group_risk(f, ds, g1, ZERO_ONE).value == 0.5
    assert group_risk(f, ds, g2, ZERO_ONE).value == 1.0
    assert decompose_check(f, ds, [g1, g2], ZERO_ONE) == 0.0


def test_decompose_single_part_zero():
    ds = two_leaf_constants()
    f = FixedPredictor([1, 0, 1, 0])
    assert decompose_check(f, ds, [Group.from_conjuncts([("grp", "a")])], ZERO_ONE) == 0.0


def test_decompose_random_instances():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 400))
        y = rng.integers(0, 2, size=n)
        ds = label_dataset(y)
        f = FixedPredictor(rng.integers(0, 2, size=n), rng.random(n))
        k = int(rng.integers(1, 6))
        assignment = rng.integers(0, k + 1, size=n)  # 0 = left out of every part
        parts = [IndexGroup(f"p{j}", frozenset(np.flatnonzero(assignment == j).tolist()))
                 for j in range(1, k + 1)]
        parts = [p for p in parts if p.rows]
        if not parts:
            continue
        loss = CLIPPED_LOGISTIC if rng.random() < 0.5 else ZERO_ONE
        worst = max(worst, decompose_check(f, ds, parts, loss))
    assert worst < 1e-12


def test_decompose_rejects_overlap():
    ds = two_leaf_constants()
    f = FixedPredictor([1, 1, 1, 1])
    g1 = IndexGroup("g1", frozenset({0, 1}))
    g2 = IndexGroup("g2", frozenset({1, 2}))
    with pytest.raises(ValueError, match=r"overlap.*g1.*g2"):
        decompose_check(f, ds, [g1, g2], ZERO_ONE)


def test_loss_range_bounded():
    rng = np.random.default_rng(3)
    y = rng.integers(0, 2, size=200)
    ds = label_dataset(y)
    f = FixedPredictor(rng.integers(0, 2, size=200), rng.random(200) * 1.0)
    for loss in (ZERO_ONE, CLIPPED_LOGISTIC):
        per = loss.per_example(f, ds)
        assert (per >= 0.0).all() and (per <= 1.0).all()
    # extreme scores still stay within [0, 1] after clipping
    f_extreme = FixedPredictor(np.zeros(200, dtype=int), np.zeros(200))
    per = CLIPPED_LOGISTIC.per_example(f_extreme, ds)
    assert (per <= 1.0).all()


def test_clip_cap_default():
    assert LOG_CLIP_CAP == pytest.approx(math.log(1e3))


def test_risk_value_invariant():
    with pytest.raises(ValueError):
        RiskValue(None, 3)
    with pytest.raises(ValueError):
        RiskValue(0.5, 0)
    assert RiskValue(None, 0).absent


def test_loss_from_name():
    assert loss_from_name("zero_one") is ZERO_ONE
    with pytest.raises(ValueError):
        loss_from_name("hinge")


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=2, max_size=50), st.data())
def test_decompose_property(labels, data):
    ds = label_dataset(labels)
    n = len(labels)
    preds = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    cut = data.draw(st.integers(1, n - 1))
    g1 = IndexGroup("g1", frozenset(range(cut)))
    g2 = IndexGroup("g2", frozenset(range(cut, n)))
    assert decompose_check(FixedPredictor(preds), ds, [g1, g2], ZERO_ONE) < 1e-12


def test_true_mass_decomposition_monte_carlo():
    """Sampling analogue of the union identity with the planted masses.

    Weighting per-part risks by the true leaf probabilities (instead of the
    observed counts) recovers the union risk up to sampling error.
    """
    rng = np.random.default_rng(42)
    p = np.array([0.5, 0.3, 0.2])
    n = 200_000
    counts = rng.multinomial(n, p)
    bounds = np.concatenate([[0], np.cumsum(counts)])
    y = np.zeros(n, dtype=np.int64)
    ds = label_dataset(y)
    # per-leaf error rates differ so the identity is not vacuous
    rates = (0.4, 0.1, 0.25)
    preds = np.zeros(n, dtype=np.int64)
    parts = []
    for k in range(3):
        lo, hi = bounds[k], bounds[k + 1]
        wrong = rng.random(hi - lo) < rates[k]
        preds[lo:hi] = wrong.astype(np.int64)  # label 0, predicting 1 is an error
        parts.append(IndexGroup(f"leaf{k}", frozenset(range(lo, hi))))
    f = FixedPredictor(preds)
    lhs = empirical_risk(f, ds, ZERO_ONE).value
    rhs = sum(p[k] * group_risk(f, ds, parts[k], ZERO_ONE).value for k in range(3))
    assert abs(lhs - rhs) < 0.01
