"""Run configuration: one frozen ExperimentConfig pins a whole reproducible run.

It is built either directly in code or from a JSON run-config file with
optional ``--set dotted.key=value`` overrides; both paths share one
validation, and every config error is a ConfigError.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, fields
from typing import Mapping

from .bounds import EpsilonSpec
from .data import ConfigError, read_spec, schema_from_json
from .groups import GroupTree, build_hierarchy, hierarchy_from_json
from .learners import LearnerSpec
from .methods import METHODS
from .risk import loss_from_name


@dataclass(frozen=True)
class ExperimentConfig:
    schema: object
    attribute_order: tuple[str, ...]
    learners: tuple[LearnerSpec, ...]
    epsilon: EpsilonSpec
    loss: str = "zero_one"
    trials: int = 10
    test_fraction: float = 0.2
    seed: int = 0
    methods: tuple[str, ...] = tuple(METHODS)
    include_group_attributes: bool = True
    prepend_cap: int | None = None
    dataset_path: str | None = None
    hierarchy_nodes: tuple | None = None  # explicit conjunct lists; overrides attribute_order
    output_dir: str | None = None

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not 0.0 < self.test_fraction < 1.0:  # also rejects NaN and inf
            raise ConfigError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ConfigError(f"unknown methods: {sorted(unknown)}")
        try:
            loss_from_name(self.loss)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.prepend_cap is not None and self.prepend_cap < 1:
            raise ConfigError(f"prepend_cap must be null or an integer >= 1, "
                              f"got {self.prepend_cap!r}")

    def hierarchy(self, schema) -> GroupTree:
        if self.hierarchy_nodes is not None:
            return hierarchy_from_json({"nodes": self.hierarchy_nodes})
        return build_hierarchy(schema, self.attribute_order)

    def echo(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("schema", "output_dir")}
        return {**doc, "learners": [ls.to_json() for ls in self.learners],
                "epsilon": self.epsilon.to_json(),
                "prepend_candidates": "group_restricted_fits_plus_global"}


def _parse_override_value(raw: str):
    try:
        return json.loads(raw)
    except json.JSONDecodeError:
        return raw


def apply_overrides(doc: dict, overrides: list[str]) -> dict:
    """Apply ``--set dotted.path=value`` pairs onto the raw config dict."""
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override must look like key=value, got {item!r}")
        path, raw = item.split("=", 1)
        keys = path.split(".")
        target = doc
        for key in keys[:-1]:
            target = target.setdefault(key, {})
            if not isinstance(target, dict):
                raise ConfigError(f"cannot override through non-object key {key!r}")
        target[keys[-1]] = _parse_override_value(raw)
    return doc


@dataclass(frozen=True)
class _Split:
    """A run-config's ``split`` block."""

    json_name = "split"
    test_fraction: float = ExperimentConfig.test_fraction
    seed: int = ExperimentConfig.seed
    trials: int = ExperimentConfig.trials


@dataclass(frozen=True)
class _RunConfig:
    """A run-config file as ``read_spec`` reads it; the defaults are
    ExperimentConfig's."""

    json_name = "config"
    schema: Mapping[str, object]
    learners: tuple[LearnerSpec, ...]
    epsilon: EpsilonSpec
    attribute_order: tuple[str, ...] | None = None
    hierarchy_nodes: tuple[tuple[tuple[str, ...], ...], ...] | None = None
    dataset: str | None = None
    loss: str = ExperimentConfig.loss
    split: _Split = _Split()
    methods: tuple[str, ...] = ExperimentConfig.methods
    include_group_attributes: bool = ExperimentConfig.include_group_attributes
    prepend_cap: int | None = None
    output_dir: str | None = None

    def __post_init__(self):
        if self.attribute_order is None and self.hierarchy_nodes is None:
            raise ConfigError("config needs attribute_order or hierarchy_nodes")
        if not self.learners:
            raise ConfigError("config needs at least one learner")
        for pair in itertools.chain.from_iterable(self.hierarchy_nodes or ()):
            if len(pair) != 2:
                raise ConfigError(f"hierarchy_nodes must hold [attribute, category] pairs, "
                                  f"got {list(pair)!r}")


def parse_run_config(doc: dict) -> ExperimentConfig:
    try:
        run = dict(vars(read_spec(_RunConfig, doc)))
        split, run["dataset_path"] = run.pop("split"), run.pop("dataset")
        run["schema"] = schema_from_json(run["schema"])
        run["attribute_order"] = run["attribute_order"] or ()
        return ExperimentConfig(**run, trials=split.trials, test_fraction=split.test_fraction,
                                seed=split.seed)
    except ConfigError:
        raise
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(str(exc)) from exc


def load_run_config(path, overrides: list[str] | None = None) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"config root must be an object: {path}")
    if overrides:
        doc = apply_overrides(doc, overrides)
    return parse_run_config(doc)
