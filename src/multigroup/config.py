"""Run configuration: one frozen ExperimentConfig pins a whole reproducible run.

It is built either directly in code or from a JSON run-config file with
optional ``--set dotted.key=value`` overrides, which ``read_spec`` reads
into the same class; both paths share one validation, and every config
error is a ConfigError.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from typing import Annotated

from .bounds import EpsilonSpec
from .data import AttributeSchema, ConfigError, read_spec, schema_from_json
from .groups import Conjuncts, Group, GroupTree, build_hierarchy
from .learners import LearnerSpec
from .methods import METHODS
from .risk import loss_from_name


@dataclass(frozen=True)
class Split:
    """A run-config's ``split`` block: ``trials`` train/test splits, each
    holding out ``test_fraction`` of the rows, drawn from ``seed``."""

    json_name = "split"
    test_fraction: float = 0.2
    seed: int = 0
    trials: int = 10

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if not 0.0 < self.test_fraction < 1.0:  # also rejects NaN and inf
            raise ConfigError(f"test_fraction must be in (0, 1), got {self.test_fraction}")


@dataclass(frozen=True)
class ExperimentConfig:
    """A run-config; each field is its JSON key."""

    json_name = "config"
    schema: Annotated[AttributeSchema, schema_from_json]
    learners: tuple[LearnerSpec, ...]
    epsilon: EpsilonSpec
    attribute_order: tuple[str, ...] | None = None
    hierarchy_nodes: tuple[Conjuncts, ...] | None = None  # overrides attribute_order
    dataset: str | None = None
    loss: str = "zero_one"
    split: Split = Split()
    methods: tuple[str, ...] = tuple(METHODS)
    include_group_attributes: bool = True
    prepend_cap: int | None = None
    output_dir: str | None = None

    def __post_init__(self):
        if self.attribute_order is None and self.hierarchy_nodes is None:
            raise ConfigError("config needs attribute_order or hierarchy_nodes")
        if not self.learners:
            raise ConfigError("config needs at least one learner")
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
            return GroupTree(map(Group.from_conjuncts, self.hierarchy_nodes))
        return build_hierarchy(schema, self.attribute_order)

    def echo(self) -> dict:
        """report.json's ``config`` block, laid out as it always was: the
        dataset as ``dataset_path`` and the split's fields at the top."""
        doc = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name not in ("schema", "output_dir", "dataset", "split")}
        return {**doc, **asdict(self.split), "dataset_path": self.dataset,
                "attribute_order": self.attribute_order or (),
                "learners": [ls.to_json() for ls in self.learners],
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


def parse_run_config(doc: dict) -> ExperimentConfig:
    try:
        return read_spec(ExperimentConfig, doc)
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
