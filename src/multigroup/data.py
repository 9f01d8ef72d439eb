"""Tabular datasets with attribute schemas.

A Dataset is a column store: categorical columns hold integer codes into a
per-column category tuple, numeric columns hold float64, and the label
column holds 0/1 integers. Datasets are immutable after construction and
safe to share across concurrent workers.
"""

from __future__ import annotations

import csv
import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

CATEGORICAL = "categorical"
NUMERIC = "numeric"
LABEL = "binary-label"
_KINDS = (CATEGORICAL, NUMERIC, LABEL)

_SEED_MASK = (1 << 64) - 1


class SchemaError(ValueError):
    """Schema definition error or schema/data mismatch."""


class DataError(ValueError):
    """Malformed data file or value."""


def check_keys(doc: Mapping, allowed: set, what: str, error=ValueError) -> None:
    """Raise ``error("unknown <what> keys: [...]")`` if ``doc`` has a key outside ``allowed``."""
    unknown = set(doc) - allowed
    if unknown:
        raise error(f"unknown {what} keys: {sorted(unknown)}")


def json_int(value, key: str) -> int:
    """An integer field read from JSON: an integral number such as ``3``,
    ``3.0`` or ``1e3``. Anything else (``2.7``, ``true``, ``"3"``, an
    infinity) raises ValueError naming ``key``."""
    if isinstance(value, float) and math.isinf(value):
        raise ValueError(f"{key} must be finite, got {value!r}")
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def float_to_json(x: float | None):
    """JSON has no infinities: write them as the strings "inf" and "-inf"."""
    return "inf" if x == math.inf else "-inf" if x == -math.inf else x


def float_from_json(x):
    """Inverse of float_to_json; older files hold the Infinity literal, which
    json.load already reads as a float."""
    return float(x) if x in ("inf", "-inf") else x


@dataclass(frozen=True)
class Bin:
    """Right-open numeric interval; ``upper=None`` means unbounded above.

    An ordered list of bins maps a raw numeric value to the first bin whose
    upper edge exceeds it, e.g. uppers (35, 60, None) give the ranges
    ``<35``, ``[35, 60)`` and ``>=60``.
    """

    name: str
    upper: float | None = None


@dataclass(frozen=True)
class Column:
    name: str
    kind: str

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise SchemaError(f"unknown column kind {self.kind!r} for {self.name!r}")


@dataclass(frozen=True)
class AttributeSchema:
    """Column layout plus the attributes used to induce group hierarchies.

    ``categories`` may be left empty for categorical columns; loaders fill it
    with the distinct values observed. Numeric source columns used for
    grouping must be declared categorical with ``bins``; the loader
    discretizes them so every group attribute stays categorical.
    """

    columns: tuple[Column, ...]
    label_column: str
    group_attributes: tuple[str, ...] = ()
    categories: Mapping[str, tuple[str, ...]] = field(default_factory=dict)
    bins: Mapping[str, tuple[Bin, ...]] = field(default_factory=dict)

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            dup = sorted({n for n in names if names.count(n) > 1})
            raise SchemaError(f"duplicate column names: {dup}")
        by_name = {c.name: c for c in self.columns}
        label = by_name.get(self.label_column)
        if label is None:
            raise SchemaError(f"label column {self.label_column!r} not in schema")
        if label.kind != LABEL:
            raise SchemaError(f"label column {self.label_column!r} must have kind {LABEL!r}")
        if sum(1 for c in self.columns if c.kind == LABEL) != 1:
            raise SchemaError("schema must declare exactly one binary-label column")
        for attr in self.group_attributes:
            col = by_name.get(attr)
            if col is None:
                raise SchemaError(f"group attribute {attr!r} not in schema")
            if col.kind != CATEGORICAL:
                raise SchemaError(f"group attribute {attr!r} must be categorical")
        for name, cats in self.categories.items():
            if name not in by_name or by_name[name].kind != CATEGORICAL:
                raise SchemaError(f"categories declared for non-categorical column {name!r}")
            if len(set(cats)) != len(cats):
                raise SchemaError(f"duplicate categories for column {name!r}")
        for name, bins in self.bins.items():
            if name not in by_name or by_name[name].kind != CATEGORICAL:
                raise SchemaError(f"bins declared for non-categorical column {name!r}")
            if not bins:
                raise SchemaError(f"empty bin list for column {name!r}")
            uppers = [b.upper for b in bins]
            if uppers[-1] is not None or any(u is None for u in uppers[:-1]):
                raise SchemaError(f"bins for {name!r} must end with one unbounded bin")
            finite = [u for u in uppers if u is not None]
            if not all(math.isfinite(u) for u in finite):
                raise SchemaError(f"bin edges for {name!r} must be finite; leave the last one out")
            if sorted(finite) != finite:
                raise SchemaError(f"bin edges for {name!r} must be increasing")

    def column(self, name: str) -> Column:
        for c in self.columns:
            if c.name == name:
                return c
        raise SchemaError(f"unknown column {name!r}")

    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    def categorical_columns(self) -> list[str]:
        return [c.name for c in self.columns if c.kind == CATEGORICAL]

    def with_categories(self, categories: Mapping[str, tuple[str, ...]]) -> "AttributeSchema":
        merged = dict(self.categories)
        merged.update({k: tuple(v) for k, v in categories.items()})
        return replace(self, categories=merged)


def schema_from_json(doc: Mapping) -> AttributeSchema:
    """Parse the schema JSON document (fields: columns, label, group_attributes, bins)."""
    check_keys(doc, {"columns", "label", "group_attributes", "bins"}, "schema", SchemaError)
    columns = []
    categories = {}
    for entry in doc.get("columns", []):
        check_keys(entry, {"name", "kind", "categories"}, "column", SchemaError)
        columns.append(Column(entry["name"], entry["kind"]))
        if "categories" in entry:
            categories[entry["name"]] = tuple(entry["categories"])
    bins = {}
    for name, blist in (doc.get("bins") or {}).items():
        bins[name] = tuple(Bin(b["name"], b.get("upper")) for b in blist)
        categories.setdefault(name, tuple(b.name for b in bins[name]))
    return AttributeSchema(
        columns=tuple(columns),
        label_column=doc["label"],
        group_attributes=tuple(doc.get("group_attributes", ())),
        categories=categories,
        bins=bins,
    )


def schema_to_json(schema: AttributeSchema) -> dict:
    columns = []
    for c in schema.columns:
        entry = {"name": c.name, "kind": c.kind}
        if c.name in schema.categories:
            entry["categories"] = list(schema.categories[c.name])
        columns.append(entry)
    doc = {
        "columns": columns,
        "label": schema.label_column,
        "group_attributes": list(schema.group_attributes),
    }
    if schema.bins:
        doc["bins"] = {
            name: [{"name": b.name} if b.upper is None else {"name": b.name, "upper": b.upper} for b in bins]
            for name, bins in schema.bins.items()
        }
    return doc


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable column store conforming to an AttributeSchema."""

    schema: AttributeSchema
    columns: Mapping[str, np.ndarray]

    def __post_init__(self):
        lengths = set()
        for col in self.schema.columns:
            arr = self.columns.get(col.name)
            if arr is None:
                raise SchemaError(f"dataset missing column {col.name!r}")
            lengths.add(len(arr))
        if len(lengths) > 1:
            raise DataError(f"ragged columns: lengths {sorted(lengths)}")
        labels = self.columns[self.schema.label_column]
        if len(labels) and not ((labels == 0) | (labels == 1)).all():
            raise DataError("labels must be exactly 0 or 1")
        for name in self.schema.categorical_columns():
            cats = self.schema.categories.get(name, ())
            codes = self.columns[name]
            if len(codes) and (codes.min() < 0 or codes.max() >= len(cats)):
                raise DataError(f"category code out of range in column {name!r}")

    @property
    def n(self) -> int:
        return len(self.columns[self.schema.label_column])

    def labels(self) -> np.ndarray:
        return self.columns[self.schema.label_column]

    def codes(self, name: str) -> np.ndarray:
        if self.schema.column(name).kind != CATEGORICAL:
            raise SchemaError(f"column {name!r} is not categorical")
        return self.columns[name]

    def numeric(self, name: str) -> np.ndarray:
        if self.schema.column(name).kind != NUMERIC:
            raise SchemaError(f"column {name!r} is not numeric")
        return self.columns[name]

    def value(self, name: str, i: int):
        col = self.schema.column(name)
        raw = self.columns[name][i]
        if col.kind == CATEGORICAL:
            return self.schema.categories[name][int(raw)]
        if col.kind == LABEL:
            return int(raw)
        return float(raw)

    def row(self, i: int) -> dict:
        return {c.name: self.value(c.name, i) for c in self.schema.columns}

    def take(self, indices) -> "Dataset":
        idx = np.asarray(indices)
        if idx.dtype != bool:
            idx = idx.astype(np.int64)
        return Dataset(self.schema, {name: arr[idx] for name, arr in self.columns.items()})

    def equals(self, other: "Dataset") -> bool:
        if self.schema.column_names() != other.schema.column_names():
            return False
        if self.schema.categories != other.schema.categories:
            return False
        for name in self.schema.column_names():
            if not np.array_equal(self.columns[name], other.columns[name]):
                return False
        return True


def dataset_from_values(schema: AttributeSchema, values: Mapping[str, Sequence]) -> Dataset:
    """Build a Dataset from per-column python values, encoding categoricals.

    Categorical columns without declared categories get the sorted distinct
    values observed; the returned dataset carries the completed schema.
    """
    inferred = {}
    for name in schema.categorical_columns():
        if name not in schema.categories or not schema.categories[name]:
            inferred[name] = tuple(sorted({str(v) for v in values[name]}))
    if inferred:
        schema = schema.with_categories(inferred)

    columns = {}
    for col in schema.columns:
        raw = values[col.name]
        if col.kind == CATEGORICAL:
            cats = schema.categories[col.name]
            index = {c: i for i, c in enumerate(cats)}
            try:
                columns[col.name] = np.fromiter(
                    (index[str(v)] for v in raw), dtype=np.int32, count=len(raw)
                )
            except KeyError as exc:
                raise DataError(
                    f"value {exc.args[0]!r} not among declared categories of column {col.name!r}"
                ) from None
        elif col.kind == LABEL:
            arr = np.asarray(raw, dtype=np.float64)
            if arr.size and not np.isin(arr, (0.0, 1.0)).all():
                bad = int(np.flatnonzero(~np.isin(arr, (0.0, 1.0)))[0])
                raise DataError(f"label must be 0 or 1 at data row {bad + 1}")
            columns[col.name] = arr.astype(np.int64)
        else:
            columns[col.name] = np.asarray(raw, dtype=np.float64)
    return Dataset(schema, columns)


def _bin_value(value: float, bins: tuple[Bin, ...], column: str, rownum: int) -> str:
    if math.isnan(value):
        raise DataError(f"cannot bin NaN in column {column!r} at data row {rownum}")
    for b in bins:
        if b.upper is None or value < b.upper:
            return b.name
    raise DataError(f"value {value} outside bins of column {column!r} at data row {rownum}")


def load_csv(path, schema: AttributeSchema) -> Dataset:
    """Load a comma-separated, header-first, UTF-8 file against a schema.

    Columns may appear in any order; extra columns are ignored. Categorical
    columns with declared bins are parsed as numbers and discretized.
    Numeric cells must be finite: nan and inf are rejected.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"empty file: {path}") from None
        positions = {}
        for col in schema.columns:
            if col.name not in header:
                raise SchemaError(f"missing column {col.name!r} in {path}")
            positions[col.name] = header.index(col.name)

        width_needed = max(positions.values()) + 1
        raw: dict[str, list] = {c.name: [] for c in schema.columns}
        blank = []
        for rownum, record in enumerate(reader, start=1):
            if not record:
                blank.append(rownum)
                continue
            if len(record) < width_needed:
                raise DataError(
                    f"data row {rownum} has {len(record)} fields, expected {width_needed}"
                )
            for col in schema.columns:
                cell = record[positions[col.name]]
                if col.kind == CATEGORICAL:
                    if col.name in schema.bins:
                        try:
                            num = float(cell)
                        except ValueError:
                            raise DataError(
                                f"non-numeric value {cell!r} in binned column {col.name!r}"
                                f" at data row {rownum}"
                            ) from None
                        raw[col.name].append(_bin_value(num, schema.bins[col.name], col.name, rownum))
                    else:
                        raw[col.name].append(cell)
                elif col.kind == LABEL:
                    try:
                        val = float(cell)
                    except ValueError:
                        val = -1.0
                    if val not in (0.0, 1.0):
                        raise DataError(f"label must be 0 or 1 at data row {rownum}, got {cell!r}")
                    raw[col.name].append(val)
                else:
                    try:
                        raw[col.name].append(float(cell))
                    except ValueError:
                        raise DataError(
                            f"non-numeric value {cell!r} in column {col.name!r} at data row {rownum}"
                        ) from None
    if not raw[schema.label_column]:
        raise DataError(f"no data rows in {path}")
    ds = dataset_from_values(schema, raw)
    for col in schema.columns:
        if col.kind != NUMERIC:
            continue
        values = ds.numeric(col.name)
        if np.isfinite(values.min()) and np.isfinite(values.max()):  # min and max keep a NaN
            continue
        i = int(np.flatnonzero(~np.isfinite(values))[0])
        rownum = i + 1
        for b in blank:  # empty records count as data rows but hold no values
            if b > rownum:
                break
            rownum += 1
        raise DataError(f"non-finite value {values[i]} in column {col.name!r} at data row {rownum}")
    return ds


def write_csv(ds: Dataset, path) -> None:
    """Write in the same dialect load_csv reads; round-trips exactly."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        names = ds.schema.column_names()
        writer.writerow(names)
        cols = []
        for name in names:
            kind = ds.schema.column(name).kind
            arr = ds.columns[name]
            if kind == CATEGORICAL:
                cats = ds.schema.categories[name]
                cols.append([cats[int(v)] for v in arr])
            elif kind == LABEL:
                cols.append([str(int(v)) for v in arr])
            else:
                cols.append([repr(float(v)) for v in arr])
        for i in range(ds.n):
            writer.writerow([c[i] for c in cols])


@dataclass(frozen=True)
class SplitSpec:
    """Deterministic train/test split keyed by (seed, trial_index)."""

    test_fraction: float = 0.2
    seed: int = 0
    trial_index: int = 0

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if self.trial_index < 0:
            raise ValueError("trial_index must be >= 0")


def split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Partition into (train, test) with |test| = round(test_fraction * n)."""
    if ds.n < 2:
        raise DataError("need at least 2 rows to split")
    n_test = int(round(spec.test_fraction * ds.n))
    if n_test == 0 or n_test == ds.n:
        raise DataError(
            f"test_fraction {spec.test_fraction} leaves an empty side for n={ds.n}"
        )
    rng = np.random.default_rng([spec.seed & _SEED_MASK, spec.trial_index])
    perm = rng.permutation(ds.n)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    return ds.take(train_idx), ds.take(test_idx)


# ---------------------------------------------------------------------------
# Synthetic data with planted per-leaf label rules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LeafRule:
    """Per-leaf labelling rule: a constant label or a linear separator.

    Linear rules label 1 where ``weights . x + bias > 0``.
    """

    kind: str  # "constant" | "linear"
    label: int | None = None
    weights: tuple[float, ...] | None = None
    bias: float = 0.0

    def __post_init__(self):
        if self.kind == "constant":
            if self.label not in (0, 1):
                raise ValueError("constant rule needs label 0 or 1")
        elif self.kind == "linear":
            if not self.weights:
                raise ValueError("linear rule needs weights")
        else:
            raise ValueError(f"unknown rule kind {self.kind!r}")
        for name, values in (("bias", (self.bias,)), ("weights", self.weights or ())):
            for v in values:
                if isinstance(v, bool) or not isinstance(v, numbers.Real) or not math.isfinite(v):
                    raise ValueError(f"rule {name} must hold finite numbers, got {v!r}")

    def apply(self, features: np.ndarray) -> np.ndarray:
        if self.kind == "constant":
            return np.full(len(features), self.label, dtype=np.int64)
        w = np.asarray(self.weights, dtype=np.float64)
        return (features @ w + self.bias > 0).astype(np.int64)


@dataclass(frozen=True)
class SyntheticLeaf:
    attributes: Mapping[str, str]  # one category per group attribute
    rule: LeafRule
    count: int


@dataclass(frozen=True)
class SyntheticSpec:
    """Planted-model description for make_synthetic.

    ``attributes`` maps each group attribute to its category tuple; every
    leaf assigns one category per attribute. Features are iid standard
    normal, labels follow the leaf rule and flip with probability ``noise``.
    """

    attributes: Mapping[str, tuple[str, ...]]
    leaves: tuple[SyntheticLeaf, ...]
    feature_dim: int = 2
    noise: float = 0.0

    def __post_init__(self):
        if not self.leaves:
            raise ValueError("synthetic spec needs at least one leaf")
        if not 0.0 <= self.noise < 0.5:
            raise ValueError(f"noise rate must be in [0, 0.5), got {self.noise}")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be >= 1")
        named = [(a, c) for a, cats in self.attributes.items() for c in cats]
        named += [(a, c) for leaf in self.leaves for a, c in leaf.attributes.items()]
        for attr, cat in named:
            if not isinstance(cat, str):
                raise TypeError(f"categories of {attr!r} must be strings, got {cat!r}")
        attr_names = set(self.attributes)
        for leaf in self.leaves:
            if set(leaf.attributes) != attr_names:
                raise ValueError(
                    f"leaf must assign every attribute in {sorted(attr_names)}"
                )
            for attr, cat in leaf.attributes.items():
                if cat not in self.attributes[attr]:
                    raise ValueError(f"unknown category {cat!r} for attribute {attr!r}")
            if leaf.count < 0:
                raise ValueError("leaf count must be >= 0")
            if leaf.rule.kind == "linear" and len(leaf.rule.weights) != self.feature_dim:
                raise ValueError("linear rule weight length must equal feature_dim")

    def schema(self) -> AttributeSchema:
        columns = [Column(a, CATEGORICAL) for a in self.attributes]
        columns += [Column(f"x{j}", NUMERIC) for j in range(self.feature_dim)]
        columns.append(Column("label", LABEL))
        return AttributeSchema(
            columns=tuple(columns),
            label_column="label",
            group_attributes=tuple(self.attributes),
            categories={a: tuple(c) for a, c in self.attributes.items()},
        )


def make_synthetic(spec: SyntheticSpec, seed: int) -> Dataset:
    """Sample a dataset whose per-leaf Bayes rule is the planted rule."""
    rng = np.random.default_rng(seed & _SEED_MASK)
    schema = spec.schema()
    attr_values: dict[str, list] = {a: [] for a in spec.attributes}
    feats = []
    labels = []
    for leaf in spec.leaves:
        features = rng.standard_normal((leaf.count, spec.feature_dim))
        y = leaf.rule.apply(features)
        if spec.noise > 0 and leaf.count:
            flips = rng.random(leaf.count) < spec.noise
            y = np.where(flips, 1 - y, y)
        feats.append(features)
        labels.append(y)
        for attr, cat in leaf.attributes.items():
            attr_values[attr].extend([cat] * leaf.count)
    all_feats = np.concatenate(feats) if feats else np.zeros((0, spec.feature_dim))
    values: dict[str, Sequence] = dict(attr_values)
    for j in range(spec.feature_dim):
        values[f"x{j}"] = all_feats[:, j]
    values["label"] = np.concatenate(labels)
    return dataset_from_values(schema, values)


def synthetic_spec_from_json(doc: Mapping) -> SyntheticSpec:
    check_keys(doc, {"attributes", "leaves", "feature_dim", "noise"}, "synthetic spec")
    leaves = []
    for entry in doc["leaves"]:
        rule = entry["rule"]
        leaves.append(
            SyntheticLeaf(
                attributes=dict(entry["attributes"]),
                rule=LeafRule(
                    kind=rule["kind"],
                    label=rule.get("label"),
                    weights=tuple(rule["weights"]) if "weights" in rule else None,
                    bias=rule.get("bias", 0.0),
                ),
                count=json_int(entry["count"], "count"),
            )
        )
    return SyntheticSpec(
        attributes={a: tuple(c) for a, c in doc["attributes"].items()},
        leaves=tuple(leaves),
        feature_dim=json_int(doc.get("feature_dim", 2), "feature_dim"),
        noise=float(doc.get("noise", 0.0)),
    )
