"""Reference implementations that the tests check the package against.

Each one computes its result the plain way: one boolean mask per group, a
root-to-leaf descent per row, one fit on every row, a CSV parsed cell by
cell. The package computes the same results faster or from less code, and
the tests hold it to these.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from multigroup.data import CATEGORICAL, LABEL, NUMERIC, AttributeSchema, Bin, DataError, \
    Dataset, SchemaError
from multigroup.groups import Group, GroupTree, membership_vector
from multigroup.learners import FeatureEncoder, LearnerSpec, fit
from multigroup.risk import Loss


@dataclass(frozen=True)
class IndexGroup:
    """A group given by explicit row indices instead of a conjunction."""

    id: str
    rows: frozenset[int]


def membership(g, ds: Dataset) -> np.ndarray:
    """membership_vector, extended to index groups."""
    if not isinstance(g, IndexGroup):
        return membership_vector(g, ds)
    mask = np.zeros(ds.n, dtype=bool)
    if g.rows:
        idx = np.fromiter(g.rows, dtype=np.int64)
        if idx.min() < 0 or idx.max() >= ds.n:
            raise ValueError(f"row index out of range in group {g.id!r}")
        mask[idx] = True
    return mask


def value(ds: Dataset, name: str, i: int):
    """Row i's value of column name, decoded: a category name, a 0/1 label
    or a float."""
    col = ds.schema.column(name)
    raw = ds.columns[name][i]
    if col.kind == CATEGORICAL:
        return ds.schema.categories[name][int(raw)]
    if col.kind == LABEL:
        return int(raw)
    return float(raw)


def row(ds: Dataset, i: int) -> dict:
    """Row i as a dict of decoded values, one per column."""
    return {c.name: value(ds, c.name, i) for c in ds.schema.columns}


def contains_row(g: Group, row: Mapping[str, object]) -> bool:
    return all(row.get(attr) == cat for attr, cat in g.conjuncts)


def deepest_containing(tree: GroupTree, row: Mapping[str, object]) -> Group:
    """Descend from the root, moving to a child whenever it contains the row."""
    current = tree.root
    while True:
        advanced = False
        for child in tree.children(current.id):
            if contains_row(child, row):
                current = child
                advanced = True
                break
        if not advanced:
            return current


def mean_stderr(values) -> tuple[float | None, float | None]:
    """Mean of ``values`` and its standard error (sample std / sqrt(k)),
    by numpy. ``(None, None)`` for no values; 0.0 error for one value."""
    k = len(values)
    if not k:
        return None, None
    return float(np.mean(values)), float(np.std(values, ddof=1) / np.sqrt(k)) if k >= 2 else 0.0


def erm(spec: LearnerSpec, ds: Dataset, encoder: FeatureEncoder | None = None):
    """The global fit, on every row of ds."""
    return fit(spec, ds, np.ones(ds.n, dtype=bool), encoder, tag="ALL")


@dataclass(frozen=True)
class RiskValue:
    """Mean loss over a support of rows; value is None iff the support is empty."""

    value: float | None
    support: int

    def __post_init__(self):
        if (self.value is None) != (self.support == 0):
            raise ValueError("value must be None exactly when support is 0")

    @property
    def absent(self) -> bool:
        return self.support == 0


def masked_mean(losses: np.ndarray, mask: np.ndarray) -> RiskValue:
    count = int(mask.sum())
    if count == 0:
        return RiskValue(None, 0)
    # np.sum uses pairwise accumulation for float64, which covers the
    # summation-accuracy requirement at large n.
    return RiskValue(float(losses[mask].sum() / count), count)


def empirical_risk(f, ds: Dataset, loss: Loss) -> RiskValue:
    if ds.n < 1:
        raise ValueError("empirical risk needs at least one row")
    losses = loss.per_example(f, ds)
    return RiskValue(float(losses.sum() / ds.n), ds.n)


def group_risk(f, ds: Dataset, g, loss: Loss) -> RiskValue:
    if ds.n < 1:
        raise ValueError("group risk needs at least one row")
    return masked_mean(loss.per_example(f, ds), membership(g, ds))


def decompose_check(f, ds: Dataset, parts, loss: Loss) -> float:
    """Residual of the disjoint-union risk identity.

    For pairwise-disjoint parts, the risk on their union equals the
    support-weighted mean of the per-part risks; the return value is the
    absolute difference between the two sides and should be ~0.
    """
    part_list = list(parts)
    if not part_list:
        raise ValueError("need at least one part")
    masks = [membership(g, ds) for g in part_list]
    for i in range(len(part_list)):
        for j in range(i + 1, len(part_list)):
            if (masks[i] & masks[j]).any():
                raise ValueError(
                    f"parts overlap: ({part_list[i].id}, {part_list[j].id})"
                )
    union = np.zeros(ds.n, dtype=bool)
    for m in masks:
        union |= m
    n_union = int(union.sum())
    if n_union == 0:
        raise ValueError("union of parts is empty")
    losses = loss.per_example(f, ds)
    lhs = masked_mean(losses, union).value
    rhs = 0.0
    for m in masks:
        part = masked_mean(losses, m)
        if not part.absent:
            rhs += (part.support / n_union) * part.value
    return abs(lhs - rhs)


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


def _undecodable(path, schema, exc):
    """The DataError for a file that is not UTF-8: it names the record that
    holds the first bad byte, or the first record csv cannot read before
    it, counting the header as record 1. The header and the records before
    that one are checked first, row by row, and their first error wins."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as first:
        text, exc = raw[: first.start].decode("utf-8"), first
    reader = csv.reader(io.StringIO(text + "_", newline=""))
    record = 0
    while True:
        try:
            next(reader)
        except StopIteration:
            break
        except csv.Error as unread:
            record, exc = record + 1, unread
            break
        record += 1
    if record > 1:
        _read_rows(itertools.islice(csv.reader(io.StringIO(text + "_", newline="")), record - 1),
                   path, schema)
    where = "the header" if record == 1 else f"data row {record - 1}"
    return DataError(f"cannot read {where} of {path}: {exc}")


def _records(reader, path):
    """The reader's records; a record it cannot read is a DataError naming
    its data row."""
    rownum = 1
    while True:
        try:
            record = next(reader)
        except StopIteration:
            return
        except csv.Error as exc:
            raise DataError(f"cannot read data row {rownum} of {path}: {exc}") from exc
        yield record
        rownum += 1


def _read_rows(reader, path, schema: AttributeSchema):
    """The header check and the row-by-row read: each column's raw values
    and the numbers of the empty records."""
    try:
        header = next(reader)
    except StopIteration:
        raise DataError(f"empty file: {path}") from None
    except csv.Error as exc:
        raise DataError(f"cannot read the header of {path}: {exc}") from exc
    positions = {}
    for col in schema.columns:
        if col.name not in header:
            raise SchemaError(f"missing column {col.name!r} in {path}")
        positions[col.name] = header.index(col.name)

    width_needed = max(positions.values()) + 1
    raw: dict[str, list] = {c.name: [] for c in schema.columns}
    blank = []
    for rownum, record in enumerate(_records(reader, path), start=1):
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
    return raw, blank


def load_csv(path, schema: AttributeSchema) -> Dataset:
    """Load a comma-separated, header-first, UTF-8 file against a schema.

    Columns may appear in any order; extra columns are ignored. Categorical
    columns with declared bins are parsed as numbers and discretized.
    Numeric cells must be finite: nan and inf are rejected.
    """
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            raw, blank = _read_rows(csv.reader(fh), path, schema)
    except UnicodeDecodeError as exc:
        raise _undecodable(path, schema, exc) from exc
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
