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
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .config import ExperimentConfig
from .data import Dataset, SplitSpec, load_csv, split
from .groups import GroupTree
from .learners import FeatureEncoder, PredictorCache
from .methods import METHODS, group_risks, method_failure
from .risk import ZERO_ONE


def _mean_stderr(values) -> tuple[float | None, float | None]:
    """Mean of ``values`` and its standard error (sample std / sqrt(k)).

    ``(None, None)`` for no values; the standard error of one value is 0.0.
    """
    k = len(values)
    if not k:
        return None, None
    return float(np.mean(values)), float(np.std(values, ddof=1) / np.sqrt(k)) if k >= 2 else 0.0


def _trial_errors(cfg: ExperimentConfig, ds: Dataset, tree: GroupTree, trial: int):
    """Fit every (learner, method) on one split; returns per-group test errors."""
    train, test = split(ds, SplitSpec(cfg.test_fraction, cfg.seed, trial))
    encoder = FeatureEncoder(ds.schema, cfg.include_group_attributes)
    cache = PredictorCache(train, encoder)
    test_rows = tree.rows(test)
    n_test = {g.id: len(r) for g, r in zip(tree.nodes, test_rows)}

    errors: dict[tuple[str, str], dict[str, float | None]] = {}
    summaries: dict[tuple[str, str], dict] = {}
    for ls in cfg.learners:
        label = ls.label()
        for name in cfg.methods:
            method = METHODS[name]
            with method_failure(name, label, trial):
                fitted = method.fit(train, tree, ls, cfg, cache)
                errors[(name, label)] = group_risks(fitted, test, tree, test_rows, ZERO_ONE)
                if method.summary is not None:
                    summaries[(name, label)] = method.summary(fitted, train, cache)
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

    def aggregate_rows(self) -> list[dict]:
        rows = []
        for method in self.methods:
            for learner in self.learners:
                series = self.raw[(method, learner)]
                for gid in self.group_ids:
                    values = [v for v in series[gid] if v is not None]
                    mean, stderr = _mean_stderr(values)
                    rows.append({
                        "method": method,
                        "learner": learner,
                        "group_id": gid,
                        "depth": self.group_depths[gid],
                        "mean_error": mean,
                        "stderr": stderr,
                        "mean_n_g": float(np.mean(self.n_test[gid])),
                        "trials_present": len(values),
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
        return json.dumps(doc, indent=2, sort_keys=True)

    def mean_error(self, method: str, learner: str, group_id: str) -> float | None:
        return _mean_stderr([v for v in self.raw[(method, learner)][group_id] if v is not None])[0]

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


def run_experiment(cfg: ExperimentConfig, dataset: Dataset | None = None,
                   jobs: int = 1) -> EvalReport:
    if dataset is None:
        if cfg.dataset_path is None:
            raise ValueError("config has no dataset path and no dataset was supplied")
        dataset = load_csv(cfg.dataset_path, cfg.schema)
    tree = cfg.hierarchy(dataset.schema)

    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
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
