"""Experiment harness: repeated trials, per-group test error, aggregation.

Each trial draws a fresh train/test split, fits every configured method on
the train side, and measures misclassification restricted to every group of
the hierarchy on the test side. Test-side risks always use zero-one loss;
the configured loss only drives the training-time update decisions. Groups
with no test examples in a trial contribute nothing for that trial.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import ExperimentConfig
from .data import Dataset, SplitSpec, json_text, split
from .groups import GroupTree
from .learners import FeatureEncoder, PredictorCache
from .methods import METHODS, method_failure
from .risk import ZERO_ONE, group_risks


def _mean_stderr(values) -> tuple[float | None, float | None]:
    """Mean of ``values`` and its standard error (sample std / sqrt(k)).

    ``(None, None)`` for no values; the standard error of one value is 0.0.
    One value is its own mean in any order of summation, so that common
    case (a one-trial run) skips numpy's per-call overhead.
    """
    k = len(values)
    if not k:
        return None, None
    if k == 1:
        return float(values[0]), 0.0
    return float(np.mean(values)), float(np.std(values, ddof=1) / np.sqrt(k))


def _trial_errors(cfg: ExperimentConfig, ds: Dataset, tree: GroupTree, trial: int):
    """Fit every (learner, method) on one split; returns per-group test errors."""
    train, test = split(ds, SplitSpec(cfg.test_fraction, cfg.seed, trial))
    encoder = FeatureEncoder(ds.schema, cfg.include_group_attributes)
    cache = PredictorCache(train, encoder)
    n_test = {g.id: len(r) for g, r in zip(tree.nodes, tree.row_index(test))}

    errors: dict[tuple[str, str], dict[str, float | None]] = {}
    summaries: dict[tuple[str, str], dict] = {}
    for ls in cfg.learners:
        label = ls.label()
        for name in cfg.methods:
            method = METHODS[name]
            with method_failure(name, label, trial):
                fitted = method.fit(cache, tree, ls, cfg)
                errors[(name, label)] = group_risks(fitted, test, tree, ZERO_ONE)
                if method.summary is not None:
                    summaries[(name, label)] = method.summary(fitted, cache)
    return trial, n_test, errors, summaries


@dataclass
class EvalReport:
    config: dict
    group_ids: list[str]
    group_depths: dict[str, int]
    methods: list[str]
    learners: list[str]
    trials: int
    raw: dict  # (method, learner) -> group_id -> [error or None per trial]
    n_test: dict  # group_id -> [count per trial]
    trace_summaries: dict = field(default_factory=dict)

    @cached_property
    def _stats(self) -> dict[tuple[str, str, str], tuple]:
        """(method, learner, group id) -> (mean error, its standard error,
        trials present), computed once for every reader."""
        out = {}
        for (method, learner), series in self.raw.items():
            for gid, errors in series.items():
                values = [v for v in errors if v is not None]
                out[(method, learner, gid)] = (*_mean_stderr(values), len(values))
        return out

    def aggregate_rows(self) -> list[dict]:
        # the counts are integers, so any order of summation is exact
        mean_n = {gid: sum(counts) / len(counts) for gid, counts in self.n_test.items()}
        rows = []
        for method in self.methods:
            for learner in self.learners:
                for gid in self.group_ids:
                    mean, stderr, present = self._stats[(method, learner, gid)]
                    rows.append({
                        "method": method,
                        "learner": learner,
                        "group_id": gid,
                        "depth": self.group_depths[gid],
                        "mean_error": mean,
                        "stderr": stderr,
                        "mean_n_g": mean_n[gid],
                        "trials_present": present,
                    })
        return rows

    def to_csv_text(self) -> str:
        out = io.StringIO()
        cols = ["method", "learner", "group_id", "depth", "mean_error", "stderr",
                "mean_n_g", "trials_present"]
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(cols)
        writer.writerows([row[c] for c in cols] for row in self.aggregate_rows())
        return out.getvalue()

    def to_json_text(self) -> str:
        doc = {
            "config": self.config,
            "groups": [
                {"id": gid, "depth": self.group_depths[gid], "n_test": self.n_test[gid]}
                for gid in self.group_ids
            ],
            "raw": [
                {
                    "method": method,
                    "learner": learner,
                    "errors": {gid: self.raw[(method, learner)][gid] for gid in self.group_ids},
                }
                for method in self.methods
                for learner in self.learners
            ],
            "trace_summaries": [
                {"method": m, "learner": l, "trial": t, **summary}
                for (m, l, t), summary in sorted(self.trace_summaries.items())
            ],
        }
        return json_text(doc)

    def mean_error(self, method: str, learner: str, group_id: str) -> float | None:
        return self._stats[(method, learner, group_id)][0]

    def compare(self, method_a: str, method_b: str, learner: str | None = None) -> list[dict]:
        """Per-group deltas (a minus b), sorted by delta ascending."""
        for m in (method_a, method_b):
            if m not in self.methods:
                raise ValueError(f"method {m!r} not in report")
        learner = learner if learner is not None else self.learners[0]
        rows = []
        for gid in self.group_ids:
            series_a = self.raw[(method_a, learner)][gid]
            series_b = self.raw[(method_b, learner)][gid]
            paired = [(a, b) for a, b in zip(series_a, series_b)
                      if a is not None and b is not None]
            delta, stderr = _mean_stderr([a - b for a, b in paired])
            rows.append({
                "group_id": gid,
                "depth": self.group_depths[gid],
                "error_a": _mean_stderr([a for a, _ in paired])[0],
                "error_b": _mean_stderr([b for _, b in paired])[0],
                "delta": delta,
                "delta_stderr": stderr,
            })
        rows.sort(key=lambda r: (r["delta"] is None, r["delta"], r["group_id"]))
        return rows

    def worst_group_errors(self) -> dict[tuple[str, str], float | None]:
        out = {}
        for method in self.methods:
            for learner in self.learners:
                means = [self.mean_error(method, learner, gid) for gid in self.group_ids]
                means = [m for m in means if m is not None]
                out[(method, learner)] = max(means) if means else None
        return out


def run_experiment(cfg: ExperimentConfig, dataset: Dataset, jobs: int = 1) -> EvalReport:
    tree = cfg.hierarchy(dataset.schema)

    workers = min(jobs, cfg.trials)
    if workers > 1:
        # imported here: multiprocessing costs every other run memory and time
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(
                _trial_errors,
                [cfg] * cfg.trials, [dataset] * cfg.trials, [tree] * cfg.trials,
                range(cfg.trials),
            ))
    else:
        outcomes = [_trial_errors(cfg, dataset, tree, t) for t in range(cfg.trials)]
    outcomes.sort(key=lambda item: item[0])

    learner_labels = [ls.label() for ls in cfg.learners]
    raw = {
        (method, label): {g.id: [errors[(method, label)][g.id] for _, _, errors, _ in outcomes]
                          for g in tree.nodes}
        for method in cfg.methods
        for label in learner_labels
    }
    n_test = {g.id: [counts[g.id] for _, counts, _, _ in outcomes] for g in tree.nodes}
    trace_summaries = {(method, label, trial): summary
                       for trial, _, _, summaries in outcomes
                       for (method, label), summary in summaries.items()}

    return EvalReport(
        config=cfg.echo(),
        group_ids=[g.id for g in tree.nodes],
        group_depths={g.id: tree.depth(g.id) for g in tree.nodes},
        methods=list(cfg.methods),
        learners=learner_labels,
        trials=cfg.trials,
        raw=raw,
        n_test=n_test,
        trace_summaries=trace_summaries,
    )
