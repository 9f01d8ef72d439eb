"""The benchmark's tracer wraps package functions by name; a rename that
would break ``bench/run.py --trace 1`` must fail here instead."""

import pathlib

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_restores(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    import tracing

    tracer = tracing.Tracer()
    try:
        tracing.install(tracer)  # raises TraceError if an alias escapes
    finally:
        tracer.restore()  # raises TraceError if a wrapper is left behind
