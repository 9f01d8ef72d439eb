"""Synthetic hierarchies for the benchmark.

Each workload is a planted-rule dataset built with ``make_synthetic`` plus
the run-config that drives ``multigroup`` on it. Leaf sizes are skewed the
way census cells are, from a few rows to about a thousand, so mgl_tree
both updates and inherits.

The workload fixes the problem: the leaf sizes, their placement and the
planted rules come from a constant structure seed. The run seed draws the
rows (features and label noise) and the train/test split. Runs with
different seeds are then draws from one problem, so their spread measures
the program and the sampling, not how hard a randomly drawn problem is.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from multigroup.data import LeafRule, SyntheticLeaf, SyntheticSpec


STRUCTURE_SEED = 20240201
# Half the rows are held out: the per-group test errors are the noisiest
# metric, and a large test side steadies them at a given data size.
TEST_FRACTION = 0.5


@dataclass(frozen=True)
class Workload:
    name: str
    attributes: dict            # attribute -> category names, in hierarchy order
    leaf_sizes: tuple[int, ...]  # rows per leaf, leaves in attribute-product order
    feature_dim: int
    noise: float
    rules: str                  # "linear" (per-leaf separators) or "constant" (per-leaf labels)
    learner: dict
    methods: tuple[str, ...]    # run by both train and evaluate

    @property
    def node_count(self) -> int:
        count, width = 1, 1
        for cats in self.attributes.values():
            width *= len(cats)
            count += width
        return count

    def spec(self) -> SyntheticSpec:
        """The planted problem; ``make_synthetic(spec, seed)`` draws the rows."""
        rng = np.random.default_rng(STRUCTURE_SEED)
        combos = list(itertools.product(*self.attributes.values()))
        if self.rules == "linear":
            rules = _linear_rules(rng, combos, self.feature_dim)
        else:
            rules = _constant_rules(rng, combos)
        leaves = tuple(
            SyntheticLeaf(dict(zip(self.attributes, combo)), rule, int(size))
            for combo, rule, size in zip(combos, rules, self.leaf_sizes)
        )
        return SyntheticSpec(
            attributes={a: tuple(c) for a, c in self.attributes.items()},
            leaves=leaves,
            feature_dim=self.feature_dim,
            noise=self.noise,
        )

    def run_config(self, dataset: str, schema: dict, seed: int) -> dict:
        return {
            "dataset": dataset,
            "schema": schema,
            "attribute_order": list(self.attributes),
            "learners": [self.learner],
            "epsilon": {"kind": "scaled", "scale": 1.0},
            "loss": "zero_one",
            "split": {"test_fraction": TEST_FRACTION, "seed": seed, "trials": 1},
            "methods": list(self.methods),
        }


def _linear_rules(rng, combos, dim):
    """Each top-level group plants one separator; half its leaves keep it."""
    base = {}
    rules = []
    for combo in combos:
        top = combo[0]
        if top not in base:
            base[top] = rng.standard_normal(dim)
        w = base[top] if rng.random() < 0.5 else rng.standard_normal(dim)
        rules.append(LeafRule("linear", weights=tuple(float(x) for x in w),
                              bias=float(0.2 * rng.standard_normal())))
    return rules


def _constant_rules(rng, combos):
    """The label flips with probability 0.2 at every level below the root."""
    flips = {}
    rules = []
    for combo in combos:
        label = 1
        for depth in range(1, len(combo) + 1):
            prefix = combo[:depth]
            if prefix not in flips:
                flips[prefix] = bool(rng.random() < 0.2)
            label ^= flips[prefix]
        rules.append(LeafRule("constant", label=int(label)))
    return rules


def _geometric_sizes(count: int, lo: float, hi: float, total: int, empty: int = 0):
    """count sizes from lo to hi on a log scale, rescaled to sum to total and
    shuffled; ``empty`` of the slots hold zero rows."""
    raw = np.geomspace(lo, hi, count - empty)
    sizes = np.maximum(1, np.round(raw * total / raw.sum())).astype(int)
    sizes = np.concatenate([np.zeros(empty, dtype=int), sizes])
    return tuple(int(s) for s in np.random.default_rng(STRUCTURE_SEED).permutation(sizes))


def _census_sizes():
    """Each race x sex cell has one large age bracket (1000-1200 rows) and two
    small ones (30-160 rows).

    The worst-group metric counts groups with at least 100 test rows. With
    this profile every such group has hundreds of test rows, so the worst
    group error is not decided by a group sitting at the cut-off, while the
    small leaves still exercise the inherit path of mgl_tree.
    """
    rng = np.random.default_rng(STRUCTURE_SEED)
    big = rng.permutation(np.round(np.geomspace(1000, 1200, 10)).astype(int))
    small = rng.permutation(np.round(np.geomspace(30, 160, 20)).astype(int))
    small = iter(small)
    sizes = []
    for cell in range(10):
        large = int(rng.integers(3))
        sizes += [int(big[cell]) if age == large else int(next(small)) for age in range(3)]
    return tuple(sizes)


CENSUS_ATTRIBUTES = {
    "race": ("r1", "r2", "r3", "r4", "r5"),
    "sex": ("f", "m"),
    "age": ("young", "mid", "old"),
}
ALL_METHODS = ("erm", "group_erm", "prepend", "mgl_tree", "decoupled")
DEEP_METHODS = ("erm", "group_erm", "mgl_tree", "decoupled")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="census_logistic",
            attributes=CENSUS_ATTRIBUTES,
            leaf_sizes=_census_sizes(),
            feature_dim=8,
            noise=0.1,
            rules="linear",
            # 1000 gradient steps instead of the default 2000 halve the op
            # time, so a run repeats its ops 4-5 times instead of twice;
            # fitting still takes about 80% of evaluate.
            learner={"kind": "logistic", "iterations": 1000},
            methods=ALL_METHODS,
        ),
        Workload(
            name="census_bagged",
            attributes=CENSUS_ATTRIBUTES,
            leaf_sizes=_census_sizes(),
            feature_dim=8,
            noise=0.1,
            rules="linear",
            learner={"kind": "bagged_trees", "n_trees": 10, "max_depth": 3},
            methods=ALL_METHODS,
        ),
        Workload(
            name="deep_constant",
            attributes={
                **CENSUS_ATTRIBUTES,
                "edu": ("e1", "e2", "e3", "e4"),
                "region": ("g1", "g2", "g3", "g4", "g5"),
            },
            leaf_sizes=_geometric_sizes(600, 3, 600, 50000, empty=30),
            feature_dim=2,
            noise=0.1,
            rules="constant",
            learner={"kind": "constant"},
            methods=DEEP_METHODS,
        ),
    )
}
