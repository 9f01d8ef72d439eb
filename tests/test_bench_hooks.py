"""The benchmark's tracer wraps package functions by name; a rename that
would break ``bench/run.py --trace 1`` must fail here instead."""

import pathlib

from multigroup.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "bench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracing

    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)  # raises TraceError if an alias escapes
    finally:
        tracer.restore()  # raises TraceError if a wrapper is left behind


def test_traced_train_audit_evaluate(monkeypatch, tmp_path):
    """One small train, audit and evaluate under the tracer: the hooks read
    the arguments of the functions they wrap, so a signature they no longer
    match makes an op fail or a count go wrong here."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracing

    config = str(ROOT / "fixtures" / "run.json")
    data = str(ROOT / "demo" / "data.csv")
    overrides = ["--set", f"dataset={data}", "--set", "split.trials=1"]
    models = tmp_path / "models"
    ops = {
        "train": ["train", "--config", config, "--out", str(models), *overrides],
        "audit": ["audit", "--model", str(models / "mgl_tree.logistic.model.json"),
                  "--data", data],
        "evaluate": ["evaluate", "--config", config, "--out", str(tmp_path / "report"),
                     "--jobs", "1", *overrides],
    }
    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)
        for op, argv in ops.items():
            tracer.op = op
            assert main(argv) == 0, op
            tracer.release()
    finally:
        tracer.restore()

    layers = tracer.layers()
    fits = sum(row["calls"] for name, row in layers.items() if name.startswith("learners.fit."))
    assert fits > 0
    assert fits == tracer.counts["learners.cache.misses"]
    for op in ops:
        assert tracer.calls("learners.scores.", op=op) > 0, op
    assert tracer.counts["learners.scores.logistic.rows"] > 0
    assert tracer.counts["risk.per_example.rows"] > 0
