"""In-memory span tracer that wraps the public functions of ``multigroup``.

Nothing in the package knows about it. ``Tracer.install`` replaces each
traced function with a wrapper under every name that refers to it (modules
bind functions with ``from .x import y``, so one function can live under
several module attributes) and ``Tracer.restore`` puts every original back.

A span records (name, start, end, parent span, op id). Self time is a
span's duration minus the time covered by its child spans; inclusive time
counts only the outermost span of a name, so nesting a name inside itself
is not counted twice.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

_MARK = "__bench_original__"


class TraceError(RuntimeError):
    """The wrappers did not cover, or did not release, every alias."""


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.counts: dict[str, int] = defaultdict(int)
        self.op: str | None = None
        self._stack: list[int] = []
        self._child: list[float] = []
        self._open: dict[str, int] = defaultdict(int)
        self._inclusive: dict[str, float] = defaultdict(float)
        self._distinct: dict[str, set] = defaultdict(set)
        self._alive: list = []  # keeps keyed objects alive so their ids stay unique
        self._patched: list[tuple[object, str, object]] = []
        self._originals: list = []

    # -- recording ---------------------------------------------------------

    def add(self, key: str, value: int = 1) -> None:
        self.counts[key] += value

    def distinct(self, key: str, ident: tuple, *keep) -> None:
        self._distinct[key].add(ident)
        self._alive.extend(keep)

    def release(self) -> None:
        """Forget object identities kept for distinct counts (end of an op)."""
        for key, seen in self._distinct.items():
            self.counts[key + ".distinct"] += len(seen)
        self._distinct.clear()
        self._alive.clear()

    def _wrapper(self, fn, name, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            state = before(*args, **kwargs) if before is not None else None
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            record = [label, 0.0, 0.0, parent, tracer.op]
            tracer.spans.append(record)
            tracer._child.append(0.0)
            tracer._stack.append(index)
            tracer._open[label] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._open[label] -= 1
                record[1], record[2] = start, end
                if parent >= 0:
                    tracer._child[parent] += end - start
                if not tracer._open[label]:
                    tracer._inclusive[label] += end - start
            if after is not None:
                after(result, state, *args, **kwargs)
            return result

        setattr(traced, _MARK, fn)
        return traced

    # -- patching ----------------------------------------------------------

    def wrap_function(self, module, attr, name, before=None, after=None) -> None:
        """Wrap a module-level function under every multigroup alias."""
        original = getattr(module, attr)
        wrapper = self._wrapper(original, name, before, after)
        self._originals.append(original)
        for mod in _package_modules():
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def wrap_method(self, cls, attr, name, before=None, after=None) -> None:
        original = cls.__dict__[attr]
        self._patched.append((cls, attr, original))
        setattr(cls, attr, self._wrapper(original, name, before, after))

    def check_installed(self) -> None:
        for mod in _package_modules():
            for key, value in vars(mod).items():
                if any(value is fn for fn in self._originals):
                    raise TraceError(f"{mod.__name__}.{key} escaped the tracer")

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        for mod in _package_modules():
            holders = [mod] + [v for v in vars(mod).values() if isinstance(v, type)]
            for holder in holders:
                for key, value in vars(holder).items():
                    if hasattr(value, _MARK):
                        raise TraceError(f"{holder.__name__}.{key} is still wrapped")

    # -- results -----------------------------------------------------------

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds."""
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _, _), child in zip(self.spans, self._child):
            row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - child
        for name, row in out.items():
            row["s"] = self._inclusive[name]
        return out

    def calls(self, prefix: str, op: str | None = None) -> int:
        return sum(1 for s in self.spans
                   if s[0].startswith(prefix) and (op is None or s[4] == op))

    def write_spans(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _package_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "multigroup" or n.startswith("multigroup."))]


def install(tracer: Tracer) -> None:
    """Wrap each layer of the package: data, groups, learners, risk,
    algorithms, evaluation, modelio and cli."""
    from multigroup import algorithms, cli, data, evaluation, groups, learners, modelio, risk

    t = tracer

    t.wrap_function(data, "load_csv", "data.load_csv",
                    after=lambda r, _s, *a, **k: t.add("data.load_csv.rows", r.n))
    t.wrap_function(data, "split", "data.split")

    t.wrap_function(groups, "membership_vector", "groups.membership_vector")
    t.wrap_function(groups, "validate_hierarchical", "groups.validate_hierarchical")
    t.wrap_method(groups.GroupTree, "masks", "groups.masks",
                  after=lambda r, _s, *a, **k: t.add("groups.masks.bytes", r.nbytes))
    t.wrap_method(groups.GroupTree, "route", "groups.route")

    def fit_rows(_result, _state, spec, ds, mask, *a, **k):
        t.add(f"learners.fit.{spec.kind}.rows", int(mask.sum()))

    t.wrap_function(learners, "fit", lambda spec, *a, **k: f"learners.fit.{spec.kind}",
                    after=fit_rows)

    def store_size(cache, *a, **k):
        return len(cache._store)

    def cache_lookup(_result, size_before, cache, *a, **k):
        t.add("learners.cache.lookups")
        t.add("learners.cache.misses", int(len(cache._store) > size_before))

    t.wrap_method(learners.PredictorCache, "group_erm", "learners.cache.group_erm",
                  before=store_size, after=cache_lookup)

    def encoded(_result, _state, encoder, ds):
        t.add("learners.transform.rows", ds.n)
        t.distinct("learners.transform", (tuple(encoder.feature_names), id(ds)), ds)

    t.wrap_method(learners.FeatureEncoder, "transform", "learners.transform", after=encoded)

    def scored(kind):
        def after(_result, _state, predictor, ds):
            t.add(f"learners.scores.{kind}.rows", ds.n)
            t.distinct("learners.scores", (id(predictor), id(ds)), predictor, ds)
        return after

    for cls in (learners.ConstantPredictor, learners.LogisticPredictor,
                learners.DecisionTreePredictor, learners.BaggedTreesPredictor):
        t.wrap_method(cls, "scores", f"learners.scores.{cls.kind}", after=scored(cls.kind))

    def per_example(_result, _state, loss, predictor, ds):
        t.add("risk.per_example.rows", ds.n)
        t.distinct("risk.per_example", (loss.kind, id(predictor), id(ds)), predictor, ds)

    t.wrap_method(risk.Loss, "per_example", "risk.per_example", after=per_example)

    def decisions(result, _state, *a, **k):
        for step in result.trace:
            t.add({"updated": "algorithms.mgl_tree.updated",
                   "inherited": "algorithms.mgl_tree.inherited",
                   "inherited_empty": "algorithms.mgl_tree.empty"}[step.decision])

    t.wrap_function(algorithms, "mgl_tree", "algorithms.mgl_tree", after=decisions)
    for fn in ("excess_risk_report", "monotonicity_audit", "decoupled", "prepend",
               "termination_scan"):
        t.wrap_function(algorithms, fn, f"algorithms.{fn}")
    for cls in (algorithms.GroupTreePredictor, algorithms.DecisionList,
                algorithms.PartitionPredictor):
        for method in ("scores", "predict"):
            t.wrap_method(cls, method, "algorithms.routed_predict")

    t.wrap_function(evaluation, "run_experiment", "evaluation.run_experiment")
    t.wrap_function(evaluation, "_trial_errors", "evaluation.trial")

    def saved(_result, _state, path, *a, **k):
        t.add("modelio.save.bytes", os.path.getsize(path))

    for fn in ("save_tree_model", "save_list_model", "save_partition_model", "save_plain_model"):
        t.wrap_function(modelio, fn, "modelio.save", after=saved)
    for fn in ("rebuild_tree_predictor", "rebuild_decision_list"):
        t.wrap_function(modelio, fn, "modelio.rebuild")
    t.wrap_function(modelio, "dataset_fingerprint", "modelio.fingerprint")

    for op in ("train", "evaluate", "audit"):
        t.wrap_function(cli, f"cmd_{op}", f"cli.{op}")

    t.check_installed()
