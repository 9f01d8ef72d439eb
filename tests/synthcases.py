"""Shared synthetic fixtures used across the test suite."""

import numpy as np

from multigroup.data import (
    NUMERIC,
    Dataset,
    LeafRule,
    SyntheticLeaf,
    SyntheticSpec,
    make_synthetic,
)


def two_leaf_constants() -> Dataset:
    """Leaf a: 3 points labelled 1; leaf b: 1 point labelled 0."""
    spec = SyntheticSpec(
        attributes={"grp": ("a", "b")},
        leaves=(
            SyntheticLeaf({"grp": "a"}, LeafRule("constant", label=1), 3),
            SyntheticLeaf({"grp": "b"}, LeafRule("constant", label=0), 1),
        ),
        feature_dim=1,
    )
    return make_synthetic(spec, seed=0)


def opposite_separators_spec(n_per_leaf: int, noise: float = 0.0) -> SyntheticSpec:
    """Two leaves whose planted linear rules have opposite signs."""
    w = (1.0, -0.7)
    return SyntheticSpec(
        attributes={"grp": ("a", "b")},
        leaves=(
            SyntheticLeaf({"grp": "a"}, LeafRule("linear", weights=w), n_per_leaf),
            SyntheticLeaf({"grp": "b"}, LeafRule("linear", weights=tuple(-x for x in w)), n_per_leaf),
        ),
        feature_dim=2,
        noise=noise,
    )


def inverted_leaf_spec(n_per_leaf: int = 400, noise: float = 0.1) -> SyntheticSpec:
    """Three binary attributes; exactly one depth-3 leaf has the inverted rule."""
    attrs = {"a1": ("p", "q"), "a2": ("u", "v"), "a3": ("s", "t")}
    leaves = []
    for c1 in attrs["a1"]:
        for c2 in attrs["a2"]:
            for c3 in attrs["a3"]:
                inverted = (c1, c2, c3) == ("q", "v", "t")
                leaves.append(SyntheticLeaf(
                    {"a1": c1, "a2": c2, "a3": c3},
                    LeafRule("constant", label=0 if inverted else 1),
                    n_per_leaf,
                ))
    return SyntheticSpec(attributes=attrs, leaves=tuple(leaves), feature_dim=2, noise=noise)


INVERTED_LEAF_ID = "a1=q&a2=v&a3=t"


def random_hierarchical_spec(rng: np.random.Generator) -> SyntheticSpec:
    """Random planted hierarchy: 2-4 attributes, 2-4 categories, 200-5000 rows."""
    n_attrs = int(rng.integers(2, 5))
    attrs = {}
    for a in range(n_attrs):
        k = int(rng.integers(2, 5))
        attrs[f"a{a}"] = tuple(f"c{j}" for j in range(k))
    total = int(rng.integers(200, 5001))
    combos = [()]
    for cats in attrs.values():
        combos = [c + (cat,) for c in combos for cat in cats]
    weights = rng.dirichlet(np.ones(len(combos)))
    counts = rng.multinomial(total, weights)
    feature_dim = 2
    leaves = []
    for combo, count in zip(combos, counts):
        if rng.random() < 0.5:
            rule = LeafRule("constant", label=int(rng.integers(0, 2)))
        else:
            w = tuple(float(x) for x in rng.normal(size=feature_dim))
            if not any(w):
                w = (1.0, 1.0)
            rule = LeafRule("linear", weights=w, bias=float(rng.normal() * 0.2))
        leaves.append(SyntheticLeaf(dict(zip(attrs, combo)), rule, int(count)))
    return SyntheticSpec(
        attributes=attrs,
        leaves=tuple(leaves),
        feature_dim=feature_dim,
        noise=float(rng.uniform(0.0, 0.3)),
    )


class FixedPredictor:
    """Test stub with preset per-row outputs.

    Given ``rows_of``, the dataset whose rows the outputs belong to, the stub
    answers by row content like a real predictor: a row is looked up by its
    numeric feature values, which must be distinct (they are in
    make_synthetic data), so any subset of those rows gets its own outputs.
    Without it the outputs are positional and only a dataset of exactly
    len(labels) rows can be answered.
    """

    kind = "fixed"
    provenance = "fixed"

    def __init__(self, labels, scores=None, rows_of=None):
        self._labels = np.asarray(labels, dtype=np.int64)
        self._scores = np.asarray(
            scores if scores is not None else self._labels, dtype=np.float64
        )
        self._index = None
        if rows_of is not None:
            keys = _row_keys(rows_of)
            self._index = {key: i for i, key in enumerate(keys)}
            if len(self._index) != len(keys) or len(keys) != len(self._labels):
                raise ValueError("rows_of needs one output per row and distinct features")

    def _rows(self, ds):
        if self._index is None:
            if ds.n != len(self._labels):
                raise ValueError(f"positional stub of {len(self._labels)} rows "
                                 f"asked about {ds.n}")
            return slice(None)
        return np.array([self._index[key] for key in _row_keys(ds)], dtype=np.int64)

    def predict(self, ds):
        return self._labels[self._rows(ds)]

    def scores(self, ds):
        return self._scores[self._rows(ds)]


def _row_keys(ds):
    names = [c.name for c in ds.schema.columns if c.kind == NUMERIC]
    features = np.column_stack([ds.numeric(name) for name in names])
    return [row.tobytes() for row in features]
