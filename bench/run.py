"""Benchmark for the multigroup package.

Run from the repository root:

    python3 bench/run.py --workload census_logistic --seed 1 --seconds 40 --trace 0

It synthesises the workload's dataset from the seed, then runs
``multigroup train``, ``audit`` (of the mgl_tree model) and ``evaluate``
(one trial, ``--jobs 1``) in this process through ``multigroup.cli.main``,
checks every op's output, and prints one JSON result as its last line.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the ops
once untraced and once under the span tracer and reports per-layer metrics.
See README.md in this directory for the metrics and the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 3
WORST_GROUP_MIN_TEST_ROWS = 100
OPS = ("train", "audit", "evaluate")
_NONFINITE = re.compile(r"\b(?:Infinity|NaN)\b")
# Median SpeedProbe time on an idle 2-core Xeon VM at 2.1 GHz, numpy 2.4.
REF_SECONDS = 0.026


def _per_layer_names():
    names = []
    for layer in ("fit", "scores"):
        for kind in ("logistic", "bagged_trees", "constant"):
            names += [f"learners.{layer}.{kind}.{f}" for f in ("calls", "rows", "self_s")]
    names += [
        "learners.transform.calls", "learners.transform.rows", "learners.transform.s",
        "learners.transform.unique_ratio", "learners.scores.unique_ratio",
        "learners.cache.lookups", "learners.cache.hit_ratio",
        "risk.per_example.calls", "risk.per_example.rows", "risk.per_example.self_s",
        "risk.per_example.unique_ratio",
        "groups.masks.calls", "groups.masks.bytes", "groups.masks.s",
        "groups.route.calls", "groups.route.s",
        "groups.membership_vector.calls", "groups.membership_vector.self_s",
        "groups.validate_hierarchical.calls", "groups.validate_hierarchical.s",
        "algorithms.mgl_tree.s", "algorithms.mgl_tree.self_s",
        "algorithms.mgl_tree.updated", "algorithms.mgl_tree.inherited",
        "algorithms.mgl_tree.empty",
        "algorithms.excess_risk_report.self_s", "algorithms.monotonicity_audit.self_s",
        "algorithms.decoupled.s", "algorithms.routed_predict.self_s",
        "algorithms.prepend.self_s",
        "data.load_csv.s", "data.load_csv.rows", "data.split.s",
        "modelio.save.s", "modelio.save.bytes", "modelio.rebuild.s",
        "modelio.fingerprint.s", "modelio.nonfinite_literals",
        "evaluation.trial.self_s", "cli.evaluate.self_s", "cli.train.self_s",
        "cli.audit.self_s",
    ]
    names += [f"trace.overhead.{op}" for op in OPS]
    return names


PER_LAYER = _per_layer_names()


def per_layer_unit(name: str) -> str:
    field = name.rsplit(".", 1)[1]
    if field in ("s", "self_s"):
        return "s"
    if field in ("rows", "bytes"):
        return field
    if field.endswith("_ratio") or name.startswith("trace.overhead."):
        return "ratio"
    return "count"


class SpeedProbe:
    """A fixed mix of small numpy steps and pure-Python dict work, timed.

    Shared cloud machines drift in speed by tens of percent over minutes,
    for every process alike: on a 2-core Xeon VM the same op ran 65% slower
    six minutes later. Each timed step is bracketed by two probes and its
    wall time is rescaled by REF_SECONDS over their mean, which reports it
    at a fixed machine speed. In back-to-back runs this cut the spread of
    per-run medians from 16% to 4.5%. The probe calls nothing in
    multigroup, so no change to the package moves it.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.X = rng.standard_normal((2000, 18))
        self.y = (rng.random(2000) < 0.5).astype(np.float64)
        self.rows = rng.integers(0, 2000, 500)
        self.samples = []
        self.last = self.measure()

    def measure(self) -> float:
        import numpy as np

        X, y = self.X, self.y
        start = time.perf_counter()
        w = np.zeros(X.shape[1])
        for _ in range(600):
            p = 0.5 * (1.0 + np.tanh((X @ w) / 2.0))
            w -= 0.1 * (X.T @ (p - y)) / len(y)
            w[3] -= 1e-3 * (X[self.rows, 3] <= 0.1).mean()
        acc = {}
        for i in range(60000):
            acc[i % 101] = acc.get(i % 101, 0) + i
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def time(self, fn) -> tuple[float, float]:
        """Run fn, which returns its wall seconds; return those and the
        seconds rescaled to the reference speed."""
        before = self.last
        wall = fn()
        self.last = self.measure()
        return wall, wall * 2.0 * REF_SECONDS / (before + self.last)


class OpFailed(RuntimeError):
    """An op exited non-zero or its output failed a check."""


def _run_cli(argv):
    from multigroup.cli import main

    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise OpFailed(f"multigroup {argv[0]} exited {code}: {err.getvalue().strip()}")
    return elapsed, out.getvalue()


class Bench:
    def __init__(self, workload, seed: int, workdir: Path):
        from multigroup.learners import LearnerSpec

        self.w = workload
        self.seed = seed
        self.data = workdir / "data.csv"
        self.config = workdir / "run.json"
        self.models = workdir / "models"
        self.report = workdir / "report"
        self.label = LearnerSpec.from_json(workload.learner).label()
        self.rows = 0
        self.digest = None
        self.errors = {}
        self.attempted = 0
        self.failed = 0
        self.probe = SpeedProbe()
        self.wall: dict[str, list[float]] = {}
        self.scaled: dict[str, list[float]] = {}

    def timed(self, name: str, fn) -> float:
        """Run a timed step; keep its wall and rescaled seconds under name."""
        wall, scaled = self.probe.time(fn)
        self.wall.setdefault(name, []).append(wall)
        self.scaled.setdefault(name, []).append(scaled)
        return scaled

    # -- set-up ------------------------------------------------------------

    def setup(self) -> float:
        from multigroup.data import make_synthetic, schema_to_json, write_csv

        start = time.perf_counter()
        ds = make_synthetic(self.w.spec(), self.seed)
        write_csv(ds, self.data)
        schema = schema_to_json(ds.schema)
        with open(str(self.data) + ".schema.json", "w", encoding="utf-8") as fh:
            json.dump(schema, fh, indent=2, sort_keys=True)
        with open(self.config, "w", encoding="utf-8") as fh:
            json.dump(self.w.run_config(str(self.data), schema, self.seed), fh,
                      indent=2, sort_keys=True)
        self.rows = ds.n
        return time.perf_counter() - start

    # -- ops and their checks ----------------------------------------------

    def train(self) -> float:
        shutil.rmtree(self.models, ignore_errors=True)
        elapsed, _ = _run_cli(["train", "--config", str(self.config),
                               "--out", str(self.models)])
        expected = [f"{m}.{self.label}.model.json"
                    for m in self.w.methods if m != "group_erm"]
        expected.append(f"mgl_tree.{self.label}.trace.jsonl")
        missing = [name for name in expected if not (self.models / name).is_file()]
        if missing:
            raise OpFailed(f"train wrote no {missing}")
        return elapsed

    def audit(self) -> float:
        model = self.models / f"mgl_tree.{self.label}.model.json"
        elapsed, out = _run_cli(["audit", "--model", str(model), "--data", str(self.data)])
        if out.strip().splitlines()[-1:] != ["AUDIT CLEAN"]:
            raise OpFailed(f"audit did not come out clean: {out[-500:]}")
        return elapsed

    def evaluate(self) -> float:
        shutil.rmtree(self.report, ignore_errors=True)
        elapsed, _ = _run_cli(["evaluate", "--config", str(self.config),
                               "--out", str(self.report), "--jobs", "1"])
        with open(self.report / "report.json", encoding="utf-8") as fh:
            doc = json.load(fh)
        raw = {(r["method"], r["learner"]): r["errors"] for r in doc["raw"]}
        missing = [m for m in self.w.methods if (m, self.label) not in raw]
        if missing:
            raise OpFailed(f"report.json lacks rows for {missing}")
        summary = next(s for s in doc["trace_summaries"]
                       if s["method"] == "mgl_tree" and s["learner"] == self.label)
        if summary["train_margin_violations"] != 0:
            raise OpFailed(f"mgl_tree margin violations: {summary['train_margin_violations']}")
        if summary["updated"] == 0 or summary["inherited"] == 0:
            raise OpFailed(f"mgl_tree did not both update and inherit: {summary}")
        if 0 in self.w.leaf_sizes and summary["empty"] == 0:
            raise OpFailed("no empty group reached mgl_tree")

        digest = hashlib.sha256(json.dumps(doc["raw"], sort_keys=True).encode()).hexdigest()
        if self.digest is not None and digest != self.digest:
            raise OpFailed("per-group errors differ between runs of the same seed")
        self.digest = digest
        n_test = {g["id"]: g["n_test"][0] for g in doc["groups"]}
        errors = {gid: e[0] for gid, e in raw[("mgl_tree", self.label)].items()
                  if e[0] is not None}
        self.errors = {
            "mgl_tree_mean_group_err": statistics.fmean(errors.values()),
            "mgl_tree_worst_group_err": max(
                e for gid, e in errors.items() if n_test[gid] >= WORST_GROUP_MIN_TEST_ROWS),
        }
        return elapsed

    def cycle(self, tracer=None) -> dict[str, float | None]:
        """Run train, audit and evaluate once; returns rescaled seconds per
        op, None for a failed op."""
        times = {}
        for op in OPS:
            self.attempted += 1
            if tracer is not None:
                tracer.op = op
            try:
                times[op] = self.timed(f"{op}_s", getattr(self, op))
            except Exception as exc:  # every failure is counted and reported
                self.failed += 1
                times[op] = None
                print(f"op {op} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            if tracer is not None:
                tracer.release()
                tracer.add("modelio.nonfinite_literals", self.nonfinite_literals(op))
        return times

    def nonfinite_literals(self, op: str) -> int:
        """Non-standard Infinity/NaN tokens in the files the op wrote."""
        where = {"train": self.models, "evaluate": self.report}.get(op)
        if where is None or not where.is_dir():
            return 0
        return sum(len(_NONFINITE.findall(p.read_text(encoding="utf-8")))
                   for p in where.iterdir() if p.suffix in (".json", ".jsonl"))


def run_untraced(bench: Bench, seconds: float) -> dict:
    """Cycles of set-up, train, audit and evaluate for about ``seconds``.

    A cycle starts only if it should end in time, so a run never overshoots
    by a whole cycle. Set-ups are spread over the run, so their median sees
    the same machine state as the ops.
    """
    cycles = 0
    started = time.perf_counter()
    while True:
        bench.attempted += 1
        bench.timed("setup_s", bench.setup)
        bench.cycle()
        cycles += 1
        elapsed = time.perf_counter() - started
        if elapsed * (cycles + 1) / cycles > seconds:
            break
    while len(bench.scaled["setup_s"]) < SETUP_REPEATS:
        bench.attempted += 1
        bench.timed("setup_s", bench.setup)
    metrics = {name: (statistics.median(bench.scaled[name]), "s")
               for name in ["setup_s"] + [f"{op}_s" for op in OPS] if name in bench.scaled}
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    for name, value in bench.errors.items():
        metrics[name] = (value, "ratio")
    metrics["ok_ops"] = ((bench.attempted - bench.failed) / bench.attempted, "ratio")
    return metrics


def run_traced(bench: Bench, workload_name: str) -> dict:
    import tracing

    bench.attempted += 1
    bench.setup()
    plain = bench.cycle()
    tracer = tracing.Tracer()
    problems = []
    try:
        tracing.install(tracer)
        traced = bench.cycle(tracer)
    except tracing.TraceError as exc:
        problems.append(str(exc))
        traced = dict.fromkeys(OPS)
    finally:
        try:
            tracer.restore()
        except tracing.TraceError as exc:
            problems.append(str(exc))
    tracer.write_spans(str(ROOT / ".bench_out" / f"spans-{workload_name}-{bench.seed}.jsonl"))

    layers = tracer.layers()
    counts = tracer.counts
    fits = sum(r["calls"] for n, r in layers.items() if n.startswith("learners.fit."))
    misses = counts["learners.cache.misses"]
    if fits != misses:
        problems.append(f"{fits} fits but {misses} cache misses")
    eval_fits = tracer.calls("learners.fit.", op="evaluate")
    if eval_fits > bench.w.node_count:
        problems.append(f"{eval_fits} fits in one evaluate trial, "
                        f"more than the {bench.w.node_count} groups")
    if bench.w.learner["kind"] == "constant" and "learners.transform" in layers:
        problems.append("the constant learner encoded features")
    for problem in problems:
        bench.failed += 1
        print(f"trace check failed: {problem}", file=sys.stderr)

    def family_calls(prefix):
        return sum(r["calls"] for n, r in layers.items()
                   if n == prefix or n.startswith(prefix + "."))

    metrics = {}
    for name in PER_LAYER:
        base, field = name.rsplit(".", 1)
        if base == "trace.overhead":
            value = (traced[field] / plain[field] - 1.0
                     if traced[field] and plain[field] else 0.0)
        elif field == "unique_ratio":
            calls = family_calls(base)
            value = counts[base + ".distinct"] / calls if calls else 1.0
        elif field == "hit_ratio":
            lookups = counts["learners.cache.lookups"]
            value = 1.0 - misses / lookups if lookups else 1.0
        elif field in ("calls", "s", "self_s"):
            value = layers.get(base, {}).get(field, 0)
        else:
            value = counts.get(name, 0)
        metrics[name] = (value, per_layer_unit(name))
    return metrics


def _environment(bench: Bench, args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "rows": bench.rows,
        "nodes": bench.w.node_count,
        "leaves": len(bench.w.leaf_sizes),
        "learner": bench.label,
        "error_digest": bench.digest,
        "wall_s": bench.wall,
        "rescaled_s": bench.scaled,
        "probe_s": bench.probe.samples,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "multigroup" / "cli.py").is_file():
        print(f"error: package source not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One BLAS thread: every layer then runs on the calling thread, and the
    # timings do not depend on how many cores other processes leave free.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    bench = Bench(workload, args.seed, workdir)
    try:
        if args.trace:
            metrics = run_traced(bench, args.workload)
        else:
            metrics = run_untraced(bench, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    correct = bench.failed == 0 and all(v is not None for v, _ in metrics.values())
    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value!s:>24} {unit}")
    print(json.dumps({"env": _environment(bench, args)}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
