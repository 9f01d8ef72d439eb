"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criterion 10 needs a census-style CSV export supplied via the
MULTIGROUP_CENSUS_CSV environment variable and is skipped otherwise.
"""

import dataclasses
import math
import os
import time

import numpy as np
import pytest

from multigroup.algorithms import (
    decoupled,
    mgl_tree,
    monotonicity_audit,
    prepend,
    termination_scan,
)
from multigroup.bounds import EpsilonSpec, epsilon, uc_width
from multigroup.data import (
    AttributeSchema,
    Bin,
    Column,
    SplitSpec,
    load_csv,
    make_synthetic,
    split,
)
from multigroup.groups import Group, build_hierarchy, membership_vector
from multigroup.learners import (
    DecisionTreePredictor,
    LearnerSpec,
    PredictorCache,
    fit,
    logistic_gradient,
)
from multigroup.risk import ZERO_ONE

from oracles import IndexGroup, decompose_check, excess_risk_report, logistic_loss
from synthcases import (
    FixedPredictor,
    INVERTED_LEAF_ID,
    inverted_leaf_spec,
    opposite_separators_spec,
    random_hierarchical_spec,
)

SUITE_SEED = 20240501
N_SUITE_DATASETS = 100


def _suite_epsilons(tree_size: int):
    return [
        EpsilonSpec("finite_h", delta=0.05, h_size=tree_size + 1),
        EpsilonSpec("constant", value=0.0),
        EpsilonSpec("constant", value=0.1),
        EpsilonSpec("constant", value=math.inf),
    ]


def _run_margin_suite(learner: LearnerSpec):
    """Fit the tree learner on the random-dataset suite under four margins.

    Returns (runs, total violations, elapsed seconds). Each run record keeps
    what the monotone-replay criterion needs.
    """
    rng = np.random.default_rng(SUITE_SEED)
    runs = []
    violations = 0
    started = time.monotonic()
    for index in range(N_SUITE_DATASETS):
        spec = random_hierarchical_spec(rng)
        ds = make_synthetic(spec, seed=int(rng.integers(1 << 30)))
        tree = build_hierarchy(ds.schema, list(spec.attributes))
        cache = PredictorCache(ds)
        for eps in _suite_epsilons(len(tree)):
            predictor = mgl_tree(cache, tree, learner, eps, ZERO_ONE)
            _, bad = excess_risk_report(predictor, cache)
            violations += len(bad)
            runs.append((ds, tree, cache, eps, predictor))
    return runs, violations, time.monotonic() - started


@pytest.fixture(scope="module")
def constant_suite():
    return _run_margin_suite(LearnerSpec("constant"))


@pytest.fixture(scope="module")
def tree_suite():
    return _run_margin_suite(LearnerSpec("tree", max_depth=2))


def test_criterion_1_margin_guarantee(constant_suite, tree_suite):
    runs_c, violations_c, elapsed_c = constant_suite
    runs_t, violations_t, elapsed_t = tree_suite
    assert len(runs_c) == len(runs_t) == 4 * N_SUITE_DATASETS
    assert violations_c == 0, f"{violations_c} margin violations with constant learners"
    assert violations_t == 0, f"{violations_t} margin violations with depth-2 trees"
    assert elapsed_c < 120, f"constant-learner suite took {elapsed_c:.1f}s"
    assert elapsed_t < 600, f"depth-2 tree suite took {elapsed_t:.1f}s"
    print(f"\nPASS criterion 1: 0 violations over {len(runs_c) + len(runs_t)} runs "
          f"(constants {elapsed_c:.1f}s, trees {elapsed_t:.1f}s)")


def test_criterion_2_monotone_replay(constant_suite, tree_suite):
    checked = 0
    for runs, learner in ((constant_suite[0], LearnerSpec("constant")),
                          (tree_suite[0], LearnerSpec("tree", max_depth=2))):
        for ds, tree, cache, eps, predictor in runs:
            verdict = monotonicity_audit(
                predictor.trace, cache, tree, learner, eps, ZERO_ONE)
            assert verdict.ok, verdict.describe()
            checked += 1
    print(f"\nPASS criterion 2: monotone replay clean on {checked} runs")


def test_criterion_3_degeneracy_equivalences():
    rng = np.random.default_rng(SUITE_SEED + 1)
    constant = LearnerSpec("constant")
    inf_mismatches = 0
    zero_mismatches = 0
    for _ in range(10):
        spec = random_hierarchical_spec(rng)
        # force every leaf to be observed so the zero-margin equivalence applies
        spec = dataclasses.replace(spec, leaves=tuple(
            dataclasses.replace(leaf, count=leaf.count + 1) for leaf in spec.leaves))
        ds = make_synthetic(spec, seed=int(rng.integers(1 << 30)))
        tree = build_hierarchy(ds.schema, list(spec.attributes))
        cache = PredictorCache(ds)

        probes_spec = dataclasses.replace(spec, leaves=tuple(
            dataclasses.replace(leaf, count=max(1, 1000 // len(spec.leaves)))
            for leaf in spec.leaves))
        probes = make_synthetic(probes_spec, seed=int(rng.integers(1 << 30)))

        inert = mgl_tree(cache, tree, constant,
                         EpsilonSpec("constant", value=math.inf), ZERO_ONE)
        global_fit = cache.erm(constant)
        inf_mismatches += int((inert.predict(probes) != global_fit.predict(probes)).sum())

        eager = mgl_tree(cache, tree, constant,
                         EpsilonSpec("constant", value=0.0), ZERO_ONE)
        part = decoupled(cache, tree, constant)
        zero_mismatches += int((eager.predict(ds) != part.predict(ds)).sum())
    assert inf_mismatches == 0
    assert zero_mismatches == 0
    print("\nPASS criterion 3: infinite margin == global fit, "
          "zero margin == per-leaf fits (0 mismatches)")


def test_criterion_4_risk_decomposition():
    from multigroup.risk import CLIPPED_LOGISTIC
    from oracles import dataset_from_values

    schema = AttributeSchema(
        columns=(Column("x0", "numeric"), Column("label", "binary-label")),
        label_column="label",
    )
    rng = np.random.default_rng(SUITE_SEED + 2)
    worst = 0.0
    count = 0
    while count < 100:
        n = int(rng.integers(4, 500))
        ds = dataset_from_values(schema, {
            "x0": np.zeros(n), "label": rng.integers(0, 2, size=n)})
        f = FixedPredictor(rng.integers(0, 2, size=n), rng.random(n))
        assignment = rng.integers(0, int(rng.integers(2, 7)), size=n)
        parts = [IndexGroup(f"p{j}", frozenset(np.flatnonzero(assignment == j).tolist()))
                 for j in range(assignment.max() + 1)]
        parts = [p for p in parts if p.rows]
        if not parts:
            continue
        loss = CLIPPED_LOGISTIC if rng.random() < 0.5 else ZERO_ONE
        worst = max(worst, decompose_check(f, ds, parts, loss))
        count += 1
    assert worst < 1e-12
    print(f"\nPASS criterion 4: decomposition residual < 1e-12 over 100 instances "
          f"(worst {worst:.2e})")


def test_criterion_5_bounds_arithmetic():
    rng = np.random.default_rng(SUITE_SEED + 3)
    for _ in range(50):
        spec = EpsilonSpec(
            "finite_h",
            delta=float(rng.uniform(0.001, 0.999)),
            h_size=int(rng.integers(1, 100_000)),
            group_count=int(rng.integers(1, 10_000)),
        )
        n_g = int(rng.integers(1, 10**8))
        assert epsilon(spec, n_g) == 2.0 * uc_width(spec, n_g)
        assert abs(epsilon(spec, 4 * n_g) - epsilon(spec, n_g) / 2.0) < 1e-12
    worked = EpsilonSpec("finite_h", delta=0.05, h_size=4, group_count=2)
    independent = 18.0 * math.sqrt((2.0 * math.log(8) + math.log(160)) / 1000.0)
    assert abs(epsilon(worked, 1000) - independent) < 1e-9
    print("\nPASS criterion 5: margin = 2x width, exact halving, worked value matches")


def test_criterion_6_opposite_separators():
    started = time.monotonic()
    spec = opposite_separators_spec(2000, noise=0.05)
    ds = make_synthetic(spec, seed=SUITE_SEED)
    tree = build_hierarchy(ds.schema, ["grp"])
    learner = LearnerSpec("logistic", iterations=400)
    eps = EpsilonSpec("constant", value=0.05)
    sums = {"erm": {}, "decoupled": {}, "mgl_tree": {}}
    trials = 10
    for trial in range(trials):
        train, test = split(ds, SplitSpec(0.2, seed=SUITE_SEED, trial_index=trial))
        cache = PredictorCache(train)
        fits = {
            "erm": cache.erm(learner),
            "decoupled": decoupled(cache, tree, learner),
            "mgl_tree": mgl_tree(cache, tree, learner, eps, ZERO_ONE),
        }
        for name, predictor in fits.items():
            wrong = (predictor.predict(test) != test.labels()).astype(float)
            for cat in ("a", "b"):
                mask = membership_vector(Group.from_conjuncts([("grp", cat)]), test)
                sums[name].setdefault(cat, []).append(float(wrong[mask].mean()))
    elapsed = time.monotonic() - started
    for cat in ("a", "b"):
        erm_mean = np.mean(sums["erm"][cat])
        for name in ("decoupled", "mgl_tree"):
            gap = erm_mean - np.mean(sums[name][cat])
            assert gap >= 0.10, f"{name} beat erm by only {gap:.3f} on leaf {cat}"
    assert elapsed < 60, f"took {elapsed:.1f}s"
    print(f"\nPASS criterion 6: per-leaf gap over the global fit >= 0.10 "
          f"for both methods ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def inverted_leaf_protocol():
    """Ten-trial protocol on the planted inverted-leaf hierarchy."""
    spec = inverted_leaf_spec(n_per_leaf=400, noise=0.1)
    ds = make_synthetic(spec, seed=SUITE_SEED + 4)
    tree = build_hierarchy(ds.schema, list(spec.attributes))
    learner = LearnerSpec("constant")
    eps = EpsilonSpec("scaled", scale=3.0)
    target = Group.from_conjuncts([("a1", "q"), ("a2", "v"), ("a3", "t")])
    assert target.id == INVERTED_LEAF_ID
    errors = {m: [] for m in ("erm", "group_erm", "prepend", "mgl_tree")}
    scans = []
    for trial in range(10):
        train, test = split(ds, SplitSpec(0.2, seed=SUITE_SEED, trial_index=trial))
        cache = PredictorCache(train)
        mask = membership_vector(target, test)
        y = test.labels()[mask]

        def err(predictor):
            return float((predictor.predict(test)[mask] != y).mean())

        errors["erm"].append(err(cache.erm(learner)))
        errors["group_erm"].append(err(cache.group_erm(learner, tree, target)))
        dlist = prepend(cache, tree, learner, eps, ZERO_ONE)
        errors["prepend"].append(err(dlist))
        errors["mgl_tree"].append(err(
            mgl_tree(cache, tree, learner, eps, ZERO_ONE)))
        scans.append((len(dlist), 4 * len(tree), termination_scan(dlist, cache)))
    return errors, scans


def test_criterion_7_inverted_subgroup(inverted_leaf_protocol):
    errors, _ = inverted_leaf_protocol
    means = {m: float(np.mean(v)) for m, v in errors.items()}
    budget = min(means["erm"], means["group_erm"]) + 0.02
    assert means["mgl_tree"] <= budget, means
    assert means["mgl_tree"] <= means["prepend"] + 0.02, means
    print(f"\nPASS criterion 7: inverted-subgroup mean errors {means}")


def test_criterion_8_prepend_contract(inverted_leaf_protocol):
    _, scans = inverted_leaf_protocol
    for length, cap, violations in scans:
        assert violations == []
        assert length < cap
    print(f"\nPASS criterion 8: all {len(scans)} lists pass the stopping scan, "
          f"max length {max(s[0] for s in scans)} under cap")


def test_criterion_9_learner_sanity():
    rng = np.random.default_rng(SUITE_SEED + 5)
    X = rng.normal(size=(80, 5))
    y = rng.integers(0, 2, size=80).astype(np.float64)
    h = 1e-6
    worst = 0.0
    for _ in range(10):
        w = rng.normal(size=5)
        b = float(rng.normal())
        gw, gb = logistic_gradient(w, b, X, y)
        numeric = np.empty(6)
        for j in range(5):
            e = np.zeros(5)
            e[j] = h
            numeric[j] = (logistic_loss(w + e, b, X, y)
                          - logistic_loss(w - e, b, X, y)) / (2 * h)
        numeric[5] = (logistic_loss(w, b + h, X, y)
                      - logistic_loss(w, b - h, X, y)) / (2 * h)
        analytic = np.append(gw, gb)
        rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-8)
        worst = max(worst, float(rel.max()))
    assert worst < 1e-5

    from oracles import dataset_from_values

    schema = AttributeSchema(
        columns=(Column("x0", "numeric"), Column("x1", "numeric"),
                 Column("x2", "numeric"), Column("label", "binary-label")),
        label_column="label",
    )
    for _ in range(100):
        depth = int(rng.integers(1, 5))
        n = int(rng.integers(8, 80))
        Xt = rng.normal(size=(n, 3))
        ds = dataset_from_values(schema, {
            "x0": Xt[:, 0], "x1": Xt[:, 1], "x2": Xt[:, 2],
            "label": rng.integers(0, 2, size=n)})
        predictor = fit(LearnerSpec("tree", max_depth=depth), ds, np.ones(n, dtype=bool))
        if isinstance(predictor, DecisionTreePredictor):
            assert predictor.depth() <= depth
    print(f"\nPASS criterion 9: gradient check (worst rel err {worst:.2e}), "
          f"depth bound respected on 100 fits")


CENSUS_ENV = "MULTIGROUP_CENSUS_CSV"


@pytest.mark.skipif(CENSUS_ENV not in os.environ,
                    reason=f"set {CENSUS_ENV} to a CA-employment-style CSV export")
def test_criterion_10_real_data_smoke():
    started = time.monotonic()
    schema = AttributeSchema(
        columns=(
            Column("race", "categorical"),
            Column("sex", "categorical"),
            Column("age", "categorical"),
            Column("label", "binary-label"),
        ),
        label_column="label",
        group_attributes=("race", "sex", "age"),
        categories={"race": ("R1", "R2", "R3+", "R6+", "R7", "R8"),
                    "sex": ("M", "F"), "age": ("Ya", "Ma", "Oa")},
        bins={"age": (Bin("Ya", 35), Bin("Ma", 60), Bin("Oa"))},
    )
    ds = load_csv(os.environ[CENSUS_ENV], schema)
    assert ds.n == 376035
    r1 = membership_vector(Group.from_conjuncts([("race", "R1")]), ds)
    assert int(r1.sum()) == 231232
    tree = build_hierarchy(ds.schema, ["race", "sex", "age"])
    assert len(tree) - 1 == 54

    from multigroup.evaluation import ExperimentConfig, run_experiment

    cfg = ExperimentConfig(
        schema=ds.schema,
        attribute_order=("race", "sex", "age"),
        learners=(LearnerSpec("tree", max_depth=2),),
        epsilon=EpsilonSpec("scaled", scale=1.0),
        trials=10,
        seed=0,
    )
    report = run_experiment(cfg, dataset=ds)
    rows = report.aggregate_rows()
    assert len(rows) == 5 * 55  # five methods, 55 hierarchy nodes
    mgl = [v for (m, _, _), v in report.trace_summaries.items() if m == "mgl_tree"]
    assert len(mgl) == 10
    assert all(s["train_margin_violations"] == 0 for s in mgl)
    elapsed = time.monotonic() - started
    assert elapsed < 1800
    print(f"\nPASS criterion 10: census-scale pipeline, 10 trials, "
          f"all methods, in {elapsed:.0f}s")
