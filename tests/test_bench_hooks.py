"""The benchmark's tracer wraps package functions by name; a rename that
would break ``bench/run.py --trace 1`` must fail here instead. The traced
ops also guard the per-op derivations: each op encodes its data once per
encoder plan, builds each hierarchy's row index once per dataset, and never
builds a full-length membership mask."""

import collections
import pathlib

from multigroup.cli import main
from multigroup.groups import GroupTree
from multigroup.learners import FeatureEncoder

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "bench"


def demo_ops(tmp_path) -> dict[str, list[str]]:
    """argv per op: a one-trial train, audit and evaluate of the demo config."""
    config = str(ROOT / "fixtures" / "run.json")
    data = str(ROOT / "demo" / "data.csv")
    overrides = ["--set", f"dataset={data}", "--set", "split.trials=1"]
    models = tmp_path / "models"
    return {
        "train": ["train", "--config", config, "--out", str(models), *overrides],
        "audit": ["audit", "--model", str(models / "mgl_tree.logistic.model.json"),
                  "--data", data],
        "evaluate": ["evaluate", "--config", config, "--out", str(tmp_path / "report"),
                     "--jobs", "1", *overrides],
    }


def tracing_module(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracing

    return tracing


def run_traced(tracing, tracer, ops) -> None:
    """Run ops under the tracer, setting ``tracer.op`` to each op's name."""
    try:
        tracing.install(tracer)
        for op, argv in ops.items():
            tracer.op = op
            assert main(argv) == 0, op
            tracer.release()
    finally:
        tracer.restore()


def test_tracer_installs_and_restores(monkeypatch):
    tracing = tracing_module(monkeypatch)
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)  # raises TraceError if an alias escapes
    finally:
        tracer.restore()  # raises TraceError if a wrapper is left behind


def test_traced_train_audit_evaluate(monkeypatch, tmp_path):
    """One small train, audit and evaluate under the tracer: the hooks read
    the arguments of the functions they wrap, so a signature they no longer
    match makes an op fail or a count go wrong here."""
    ops = demo_ops(tmp_path)
    tracing = tracing_module(monkeypatch)
    tracer = tracing.Tracer()
    run_traced(tracing, tracer, ops)

    layers = tracer.layers()
    fits = sum(row["calls"] for name, row in layers.items() if name.startswith("learners.fit."))
    assert fits > 0
    assert fits == tracer.counts["learners.cache.misses"]
    for op in ops:
        assert tracer.calls("learners.scores.", op=op) > 0, op
    assert tracer.counts["learners.scores.logistic.rows"] > 0
    assert tracer.counts["risk.per_example.rows"] > 0


def test_each_op_encodes_once_per_plan_and_builds_no_masks(monkeypatch, tmp_path):
    """Audit rebuilds its predictors with encoders of their own, and the
    refit cache holds another: all share one plan, so one transform."""
    tracing = tracing_module(monkeypatch)
    tracer = tracing.Tracer()
    plans = []
    transform = FeatureEncoder.transform

    def recording(encoder, ds):
        plans.append((tracer.op, tuple(encoder._plan)))
        return transform(encoder, ds)

    monkeypatch.setattr(FeatureEncoder, "transform", recording)
    ops = demo_ops(tmp_path)
    run_traced(tracing, tracer, ops)

    for name in ops:
        assert tracer.calls("groups.membership_vector", op=name) == 0, name
        per_plan = collections.Counter(plan for o, plan in plans if o == name)
        assert per_plan and max(per_plan.values()) == 1, (name, per_plan)
        assert tracer.calls("learners.transform", op=name) == sum(per_plan.values()), name


def test_each_op_builds_a_row_index_once_per_tree_and_dataset(monkeypatch, tmp_path):
    calls = []
    rows = GroupTree.rows
    op = [None]

    def counting(tree, ds):
        calls.append((op[0], tree, ds))  # holding them keeps their ids unique
        return rows(tree, ds)

    monkeypatch.setattr(GroupTree, "rows", counting)
    for name, argv in demo_ops(tmp_path).items():
        op[0] = name
        assert main(argv) == 0, name
        keys = [(id(tree), id(ds)) for o, tree, ds in calls if o == name]
        assert keys and len(keys) == len(set(keys)), name


def test_audit_spans_come_from_the_method_table(monkeypatch, tmp_path):
    """The audit reaches each kind's reader and checks through the method
    table; an entry that bound a function at import time, instead of
    calling it through its module's global, would escape the tracer and
    leave its span out here."""
    ops = demo_ops(tmp_path)
    assert main(ops["train"]) == 0
    audit = ops["audit"]
    prepend = [*audit[:2], audit[2].replace("mgl_tree.", "prepend."), *audit[3:]]
    tracing = tracing_module(monkeypatch)
    tracer = tracing.Tracer()
    run_traced(tracing, tracer, {"mgl_tree": audit, "prepend": prepend})

    spans = collections.Counter((s[4], s[0]) for s in tracer.spans)
    for op, names in {
        "mgl_tree": ("modelio.rebuild", "algorithms.monotonicity_audit",
                     "algorithms.excess_risk_report"),
        "prepend": ("modelio.rebuild", "algorithms.termination_scan"),
    }.items():
        assert all(spans[op, name] == 1 for name in names), (op, spans)
