import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multigroup.bounds import EpsilonSpec
from multigroup.config import Split
from multigroup.data import SplitSpec, make_synthetic, split
from multigroup.evaluation import EvalReport, ExperimentConfig, _mean_stderr, run_experiment
from multigroup.groups import Group, build_hierarchy, membership_vector
from multigroup.learners import LearnerSpec

from oracles import compare, mean_stderr
from synthcases import (
    INVERTED_LEAF_ID,
    inverted_leaf_spec,
    opposite_separators_spec,
)

CONSTANT = LearnerSpec("constant")


def fixture_config(spec, methods, trials=1, epsilon=None, learners=(CONSTANT,), seed=0):
    ds = make_synthetic(spec, seed=7)
    cfg = ExperimentConfig(
        schema=ds.schema,
        attribute_order=tuple(spec.attributes),
        learners=tuple(learners),
        epsilon=epsilon or EpsilonSpec("constant", value=0.05),
        split=Split(trials=trials, seed=seed),
        methods=tuple(methods),
    )
    return cfg, ds


def test_single_method_single_trial_shape_and_values():
    spec = opposite_separators_spec(20, noise=0.2)
    cfg, ds = fixture_config(spec, ["erm"], trials=1)
    report = run_experiment(cfg, dataset=ds)
    rows = report.aggregate_rows()
    assert len(rows) == 3  # |G| rows for the single (method, learner)
    assert {r["group_id"] for r in rows} == {"ALL", "grp=a", "grp=b"}

    # oracle recompute from the same deterministic split
    train, test = split(ds, SplitSpec(cfg.split.test_fraction, cfg.split.seed, 0))
    majority = int(train.labels().mean() >= 0.5)
    errors = (np.full(test.n, majority) != test.labels()).astype(float)
    for row in rows:
        mask = membership_vector(
            Group("ALL", ()) if row["group_id"] == "ALL" else
            Group.from_conjuncts([tuple(row["group_id"].split("="))]), test)
        expected = float(errors[mask].mean()) if mask.any() else None
        assert row["mean_error"] == expected
        assert row["trials_present"] == (1 if mask.any() else 0)


def test_report_is_deterministic():
    spec = opposite_separators_spec(40, noise=0.1)
    cfg, ds = fixture_config(spec, ["erm", "mgl_tree", "prepend", "decoupled"], trials=3)
    a = run_experiment(cfg, dataset=ds)
    b = run_experiment(cfg, dataset=ds)
    assert a.to_csv_text() == b.to_csv_text()
    assert a.to_json_text() == b.to_json_text()


def test_parallel_trials_match_serial():
    spec = opposite_separators_spec(40, noise=0.1)
    cfg, ds = fixture_config(spec, ["erm", "mgl_tree"], trials=4)
    serial = run_experiment(cfg, dataset=ds, jobs=1)
    parallel = run_experiment(cfg, dataset=ds, jobs=2)
    assert serial.to_csv_text() == parallel.to_csv_text()


def test_aggregates_match_raw_means():
    spec = inverted_leaf_spec(n_per_leaf=40, noise=0.1)
    cfg, ds = fixture_config(spec, ["erm", "group_erm"], trials=5)
    report = run_experiment(cfg, dataset=ds)
    for row in report.aggregate_rows():
        series = report.raw[(row["method"], row["learner"])][row["group_id"]]
        values = [v for v in series if v is not None]
        if values:
            assert abs(row["mean_error"] - sum(values) / len(values)) < 1e-12
        else:
            assert row["mean_error"] is None
        assert row["trials_present"] == len(values)


def test_report_groups_match_hierarchy():
    spec = inverted_leaf_spec(n_per_leaf=25, noise=0.0)
    cfg, ds = fixture_config(spec, ["erm"], trials=2)
    report = run_experiment(cfg, dataset=ds)
    tree = build_hierarchy(ds.schema, cfg.attribute_order)
    assert report.group_ids == [g.id for g in tree.nodes]


def test_sparse_group_missing_trials():
    spec = opposite_separators_spec(30, noise=0.0)
    # leaf b carries a single example: some test splits will miss it
    sparse = dataclasses.replace(
        spec, leaves=(spec.leaves[0], dataclasses.replace(spec.leaves[1], count=1)))
    cfg, ds = fixture_config(sparse, ["erm"], trials=10)
    report = run_experiment(cfg, dataset=ds)
    row = next(r for r in report.aggregate_rows() if r["group_id"] == "grp=b")
    assert 0 < row["trials_present"] < 10
    series = report.raw[("erm", "constant")]["grp=b"]
    assert sum(1 for v in series if v is not None) == row["trials_present"]


def test_mgl_tree_beats_erm_on_planted_fixture():
    spec = inverted_leaf_spec(n_per_leaf=200, noise=0.0)
    cfg, ds = fixture_config(
        spec, ["erm", "mgl_tree"], trials=3, epsilon=EpsilonSpec("scaled", scale=3.0))
    report = run_experiment(cfg, dataset=ds)
    for gid in report.group_ids:
        erm_err = report.mean_error("erm", "constant", gid)
        mgl_err = report.mean_error("mgl_tree", "constant", gid)
        assert mgl_err <= erm_err + 1e-12


def test_trace_summaries_record_clean_margins():
    spec = inverted_leaf_spec(n_per_leaf=50, noise=0.1)
    cfg, ds = fixture_config(
        spec, ["mgl_tree", "prepend"], trials=2, epsilon=EpsilonSpec("scaled", scale=2.0))
    report = run_experiment(cfg, dataset=ds)
    mgl = [v for (m, _, _), v in report.trace_summaries.items() if m == "mgl_tree"]
    assert len(mgl) == 2
    assert all(s["train_margin_violations"] == 0 for s in mgl)
    prep = [v for (m, _, _), v in report.trace_summaries.items() if m == "prepend"]
    assert all(s["list_length"] >= 0 for s in prep)


def test_compare_self_is_zero():
    spec = opposite_separators_spec(30, noise=0.1)
    cfg, ds = fixture_config(spec, ["erm", "decoupled"], trials=3)
    report = run_experiment(cfg, dataset=ds)
    rows = compare(report, "erm", "erm")
    assert len(rows) == 3
    assert set(rows[0]) == {"group_id", "depth", "error_a", "error_b", "delta", "delta_stderr"}
    for row in rows:
        assert row["delta"] == 0.0


def test_compare_minority_leaf_improvement():
    spec = inverted_leaf_spec(n_per_leaf=150, noise=0.0)
    cfg, ds = fixture_config(
        spec, ["erm", "mgl_tree"], trials=4, epsilon=EpsilonSpec("scaled", scale=3.0))
    report = run_experiment(cfg, dataset=ds)
    rows = compare(report, "mgl_tree", "erm")
    by_id = {r["group_id"]: r for r in rows}
    assert by_id[INVERTED_LEAF_ID]["delta"] < 0
    assert rows == sorted(rows, key=lambda r: (r["delta"] is None, r["delta"], r["group_id"]))


def test_unknown_method_rejected():
    spec = opposite_separators_spec(10)
    with pytest.raises(ValueError, match="methods"):
        fixture_config(spec, ["erm", "boosting"])


def test_compare_unknown_method_rejected():
    spec = opposite_separators_spec(20, noise=0.1)
    cfg, ds = fixture_config(spec, ["erm"], trials=1)
    report = run_experiment(cfg, dataset=ds)
    with pytest.raises(ValueError, match="not in report"):
        compare(report, "erm", "mgl_tree")


def test_worst_group_summary():
    spec = opposite_separators_spec(50, noise=0.1)
    cfg, ds = fixture_config(spec, ["erm"], trials=2)
    report = run_experiment(cfg, dataset=ds)
    worst = report.worst_group_errors()[("erm", "constant")]
    means = [report.mean_error("erm", "constant", gid) for gid in report.group_ids]
    assert worst == max(m for m in means if m is not None)


def test_compare_two_leaf_minority():
    from multigroup.data import LeafRule, SyntheticLeaf, SyntheticSpec

    spec = SyntheticSpec(
        attributes={"grp": ("a", "b")},
        leaves=(
            SyntheticLeaf({"grp": "a"}, LeafRule("constant", label=1), 30),
            SyntheticLeaf({"grp": "b"}, LeafRule("constant", label=0), 10),
        ),
        feature_dim=1,
    )
    cfg, ds = fixture_config(spec, ["erm", "mgl_tree"], trials=5,
                             epsilon=EpsilonSpec("constant", value=0.05))
    report = run_experiment(cfg, dataset=ds)
    rows = {r["group_id"]: r for r in compare(report, "mgl_tree", "erm")}
    assert rows["grp=b"]["delta"] < 0


def test_method_failure_names_method_and_trial():
    spec = opposite_separators_spec(30, noise=0.1)
    # both leaves' own stumps beat the global one, so prepend needs two
    # rounds and a cap of 1 fails
    cfg, ds = fixture_config(
        spec, ["prepend"], trials=2, epsilon=EpsilonSpec("constant", value=0.0),
        learners=(LearnerSpec("tree", max_depth=1),))
    with pytest.raises(RuntimeError, match=r"method 'prepend'.*trial 0.*cap=1"):
        run_experiment(dataclasses.replace(cfg, prepend_cap=1), dataset=ds)


def test_group_attributes_can_be_excluded_from_features():
    spec = opposite_separators_spec(200, noise=0.05)
    base, ds = fixture_config(spec, ["erm", "mgl_tree"], trials=2,
                              learners=(LearnerSpec("logistic", iterations=200),))
    included = run_experiment(base, dataset=ds)
    excluded = run_experiment(dataclasses.replace(base, include_group_attributes=False),
                              dataset=ds)
    assert excluded.config["include_group_attributes"] is False
    # both runs complete with the full group set; per-group errors may differ
    assert included.group_ids == excluded.group_ids


@pytest.mark.parametrize("values", [[], [0.25], [-0.0], [0.0, 1.0 / 3.0], [0.1] * 9])
def test_mean_stderr_matches_numpy(values):
    assert _mean_stderr(values) == mean_stderr(values)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_report_statistics_match_numpy_oracle(data):
    """Every figure the report derives from per-trial errors is bit-equal
    to numpy's, for 1-12 trials with groups missing from some of them."""
    trials = data.draw(st.integers(1, 12))
    error = st.one_of(st.none(), st.floats(0.0, 1.0), st.integers(0, 40).map(lambda i: i / 41))
    group_ids = ["ALL", "g=a", "g=b"]
    methods, learners = ["erm", "mgl_tree"], ["constant"]
    raw = {(m, l): {gid: data.draw(st.lists(error, min_size=trials, max_size=trials))
                    for gid in group_ids}
           for m in methods for l in learners}
    n_test = {gid: data.draw(st.lists(st.integers(0, 10**6), min_size=trials, max_size=trials))
              for gid in group_ids}
    report = EvalReport(config={}, group_ids=group_ids, group_depths=dict.fromkeys(group_ids, 0),
                        methods=methods, learners=learners, trials=trials, raw=raw,
                        n_test=n_test)
    worst = report.worst_group_errors()
    for row in report.aggregate_rows():
        series = raw[(row["method"], row["learner"])][row["group_id"]]
        present = [v for v in series if v is not None]
        mean, stderr = mean_stderr(present)
        assert (row["mean_error"], row["stderr"]) == (mean, stderr)
        assert row["trials_present"] == len(present)
        assert row["mean_n_g"] == float(np.mean(n_test[row["group_id"]]))
        assert report.mean_error(row["method"], row["learner"], row["group_id"]) == mean
    for (m, l), value in worst.items():
        means = [mean_stderr([v for v in raw[(m, l)][gid] if v is not None])[0]
                 for gid in group_ids]
        means = [x for x in means if x is not None]
        assert value == (max(means) if means else None)
