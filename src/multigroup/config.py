"""Run configuration: one frozen ExperimentConfig pins a whole reproducible run.

It is built either directly in code or from a JSON run-config file with
optional ``--set dotted.key=value`` overrides; both paths share one
validation, and every config error is a ConfigError.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .bounds import EpsilonSpec
from .data import check_keys, json_int, schema_from_json
from .groups import GroupTree, build_hierarchy, hierarchy_from_json
from .learners import LearnerSpec
from .methods import METHODS
from .risk import loss_from_name


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


_TOP_KEYS = {
    "dataset", "schema", "attribute_order", "hierarchy_nodes", "learners",
    "epsilon", "loss", "split", "methods", "include_group_attributes",
    "prepend_cap", "output_dir",
}


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
        if not isinstance(self.include_group_attributes, bool):
            raise ConfigError("include_group_attributes must be true or false, "
                              f"got {self.include_group_attributes!r}")
        cap = self.prepend_cap
        if cap is not None and (isinstance(cap, bool) or not isinstance(cap, int) or cap < 1):
            raise ConfigError(f"prepend_cap must be null or an integer >= 1, got {cap!r}")

    def hierarchy(self, schema) -> GroupTree:
        if self.hierarchy_nodes is not None:
            return hierarchy_from_json({"nodes": self.hierarchy_nodes})
        return build_hierarchy(schema, self.attribute_order)

    def echo(self) -> dict:
        return {
            "attribute_order": list(self.attribute_order),
            "learners": [ls.to_json() for ls in self.learners],
            "epsilon": self.epsilon.to_json(),
            "loss": self.loss,
            "trials": self.trials,
            "test_fraction": self.test_fraction,
            "seed": self.seed,
            "methods": list(self.methods),
            "include_group_attributes": self.include_group_attributes,
            "prepend_cap": self.prepend_cap,
            "dataset_path": self.dataset_path,
            "hierarchy_nodes": [list(map(list, c)) for c in self.hierarchy_nodes]
            if self.hierarchy_nodes is not None else None,
            "prepend_candidates": "group_restricted_fits_plus_global",
        }


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
    check_keys(doc, _TOP_KEYS, "config", ConfigError)
    for required in ("schema", "learners", "epsilon"):
        if required not in doc:
            raise ConfigError(f"config missing required key {required!r}")
    if "attribute_order" not in doc and "hierarchy_nodes" not in doc:
        raise ConfigError("config needs attribute_order or hierarchy_nodes")
    split_doc = doc.get("split", {})
    check_keys(split_doc, {"test_fraction", "seed", "trials"}, "split", ConfigError)

    nodes = doc.get("hierarchy_nodes")
    try:
        learners = tuple(LearnerSpec.from_json(entry) for entry in doc["learners"])
        if not learners:
            raise ConfigError("config needs at least one learner")
        return ExperimentConfig(
            schema=schema_from_json(doc["schema"]),
            attribute_order=tuple(doc.get("attribute_order", ())),
            learners=learners,
            epsilon=EpsilonSpec.from_json(doc["epsilon"]),
            loss=doc.get("loss", "zero_one"),
            trials=json_int(split_doc.get("trials", 10), "trials"),
            test_fraction=float(split_doc.get("test_fraction", 0.2)),
            seed=json_int(split_doc.get("seed", 0), "seed"),
            methods=tuple(doc.get("methods", METHODS)),
            include_group_attributes=doc.get("include_group_attributes", True),
            prepend_cap=doc.get("prepend_cap"),
            dataset_path=doc.get("dataset"),
            hierarchy_nodes=None if nodes is None
            else tuple(tuple(tuple(c) for c in conj) for conj in nodes),
            output_dir=doc.get("output_dir"),
        )
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
