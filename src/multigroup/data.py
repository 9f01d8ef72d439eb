"""Tabular datasets with attribute schemas.

A Dataset is a column store: categorical columns hold integer codes into a
per-column category tuple, numeric columns hold float64, and the label
column holds 0/1 integers. Datasets are immutable after construction and
safe to share across concurrent workers.
"""

from __future__ import annotations

import collections.abc
import csv
import functools
import io
import itertools
import json
import math
import types
from dataclasses import MISSING, dataclass, field, fields, is_dataclass, replace
from operator import itemgetter
from typing import Annotated, Iterator, Mapping, Union, get_args, get_origin, get_type_hints

import numpy as np

CATEGORICAL = "categorical"
NUMERIC = "numeric"
LABEL = "binary-label"
_KINDS = (CATEGORICAL, NUMERIC, LABEL)

_SEED_MASK = (1 << 64) - 1
_INT64 = 1 << 63


class SchemaError(ValueError):
    """Schema definition error or schema/data mismatch."""


class DataError(ValueError):
    """Malformed data file or value."""


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration or synthetic spec, or a
    JSON field of the wrong type in any spec. ``config`` re-exports it; it
    lives here so that ``read_spec`` and the number readers can raise it."""


def check_keys(doc: Mapping, allowed: set, what: str, error=ValueError) -> None:
    """Raise ``error("unknown <what> keys: [...]")`` if ``doc`` has a key outside ``allowed``."""
    unknown = set(doc) - allowed
    if unknown:
        raise error(f"unknown {what} keys: {sorted(unknown)}")


def json_int(value, key: str, int64: bool = False) -> int:
    """An integer field read from JSON: an integral number such as ``3``,
    ``3.0`` or ``1e3``. Anything else (``2.7``, ``true``, ``"3"``, an
    infinity), or with ``int64`` a value outside [-2^63, 2^63), raises
    ConfigError naming ``key``."""
    if type(value) is not int:  # the common case skips this
        if isinstance(value, float) and math.isinf(value):
            raise ConfigError(f"{key} must be finite, got {value!r}")
        if isinstance(value, float) and value.is_integer():
            value = int(value)
        elif isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{key} must be an integer, got {value!r}")
    if int64 and not -_INT64 <= value < _INT64:
        raise ConfigError(f"{key} must be an integer that fits in 64 bits, got {_digits(value)}")
    return value


def json_float(value, key: str):
    """A real-valued field read from JSON: a number such as ``0.5``, ``1``
    or ``1e-9``, returned as given. Anything else (``true``, ``"0.5"``,
    ``[1]``, an integer too large for a float) raises ConfigError naming
    ``key``; range checks are the caller's."""
    if type(value) is float:  # the common case, first
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    if isinstance(value, int):
        try:
            float(value)
        except OverflowError:
            raise ConfigError(f"{key} must be a number a float can hold, "
                             f"got {_digits(value)}") from None
    return value


def _digits(value: int) -> str:
    """An integer as written, or its length when it is too long to show."""
    text = str(value)
    return text if len(text) <= 24 else f"an integer of {len(text.lstrip('-'))} digits"


def float_to_json(x: float | None):
    """JSON has no infinities: write them as the strings "inf" and "-inf"."""
    return "inf" if x == math.inf else "-inf" if x == -math.inf else x


def json_text(doc) -> str:
    """``doc`` as one line of compact, key-sorted, strict JSON, newline
    included: the one layout of every model file, report and trace line the
    package writes, so that one document always has the same bytes. A NaN
    or an infinity raises ValueError naming the key path of the first one,
    such as ``nodes[2].predictor.score``; write infinities with
    ``float_to_json``."""
    try:
        return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"
    except ValueError as exc:
        found = _non_finite(doc, "")
        if found is None:
            raise
        path, value = found
        raise ValueError(f"{path or 'the document'} is {value!r}, which JSON cannot hold") from exc


def _non_finite(doc, path: str):
    """(key path, value) of the first NaN or infinity in doc, in the order
    json_text writes it, or None."""
    if isinstance(doc, float):
        return None if math.isfinite(doc) else (path, doc)
    if isinstance(doc, dict):
        items = [(f"{path}.{k}" if path else str(k), v) for k, v in sorted(doc.items())]
    elif isinstance(doc, (list, tuple)):
        items = [(f"{path}[{i}]", v) for i, v in enumerate(doc)]
    else:
        return None
    for key, value in items:
        found = _non_finite(value, key)
        if found is not None:
            return found
    return None


def float_from_json(x):
    """Inverse of float_to_json; older files hold the Infinity literal, which
    json.load already reads as a float."""
    return float(x) if x in ("inf", "-inf") else x


# A float field whose writer writes infinities as "inf" and "-inf"
# (float_to_json): read_spec accepts those strings there and nowhere else,
# and null where the field cannot be None, as older files hold for inf.
InfFloat = Annotated[float, lambda value, key: math.inf if value is None
                     else json_float(float_from_json(value), key)]


def read_spec(cls, doc, key: str | None = None):
    """The frozen dataclass ``cls`` built from the JSON object ``doc``, each
    field read as its annotation says: ``int`` and ``float`` through
    ``json_int`` and ``json_float``, ``str``, ``bool``, ``object`` (any
    value, as is), ``Annotated[X, read]`` by ``read(value, key)`` (such as
    ``InfFloat``, also from "inf"/"-inf"), ``X | None``, a nested spec
    class, ``tuple[X, ...]`` and ``Mapping[str, X]`` of these, and
    ``tuple[str, str]`` (a list of exactly two strings). A field
    with a default may be left out. An unknown or missing key, or a value
    of another JSON type, raises ConfigError naming the field's key
    (``cls.json_name`` names the object itself); ``cls.__post_init__``
    makes the range and cross-field checks."""
    readers, required, _ = _spec_plan(cls)
    if not isinstance(doc, dict):
        raise ConfigError(f"{key or cls.json_name} must be an object, got {doc!r}")
    if not readers.keys() >= doc.keys() >= required:
        check_keys(doc, readers.keys(), cls.json_name, ConfigError)
        raise ConfigError(f"{cls.json_name} missing required key "
                          f"{min(required - doc.keys())!r}")
    return cls(**{name: readers[name](value, name) for name, value in doc.items()})


def spec_to_json(spec) -> dict:
    """The JSON object ``read_spec`` reads back as ``spec``: each field
    without a default, and each other whose value is not its default; an
    ``InfFloat`` field goes through ``float_to_json``."""
    doc, infinite = {}, _spec_plan(type(spec))[2]
    for f in fields(spec):
        value = getattr(spec, f.name)
        if f.default is MISSING or value != f.default:
            doc[f.name] = float_to_json(value) if f.name in infinite else value
    return doc


@functools.cache
def _spec_plan(cls):
    """The reader of each field of ``cls``, the fields without a default,
    and the ``InfFloat`` fields: resolved once per class."""
    hints = get_type_hints(cls, include_extras=True)
    return ({f.name: _typed(hints[f.name]) for f in fields(cls)},
            frozenset(f.name for f in fields(cls) if f.default is MISSING),
            frozenset(name for name, tp in hints.items() if InfFloat in (tp, *get_args(tp))))


def read_json(tp, value, key: str):
    """``value`` read as a spec field annotated ``tp`` and keyed ``key``
    (see ``read_spec``): for a list or a field outside a spec class."""
    return _typed(tp)(value, key)


def _pair(value, key: str) -> tuple[str, str]:
    """A ``tuple[str, str]`` field, read in one step: a hierarchy holds
    thousands of [attribute, category] pairs."""
    if isinstance(value, list) and len(value) == 2 and type(value[0]) is type(value[1]) is str:
        return value[0], value[1]
    raise ConfigError(f"{key} must be a list of 2 strings, got {value!r}")


# The readers of numbers, which check the JSON type themselves, of a pair
# of strings, and of a field that holds any JSON value as is
_DIRECT = {int: json_int, float: json_float, tuple[str, str]: _pair,
           object: lambda value, key: value}


@functools.cache
def _typed(tp, nullable: bool = False):
    """read(value, key) for a field annotated ``tp``; see ``read_spec``."""
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, types.UnionType):
        [inner] = [a for a in args if a is not type(None)]
        return _typed(inner, nullable=True)
    if tp in _DIRECT or origin is Annotated:
        direct = _DIRECT[tp] if tp in _DIRECT else tp.__metadata__[0]
        return direct if not nullable else \
            lambda value, key: None if value is None else direct(value, key)
    if tp is str or tp is bool:
        json_type, want, convert = tp, "a string" if tp is str else "true or false", None
    elif is_dataclass(tp):
        json_type, want = dict, "an object"
        convert = functools.partial(read_spec, tp)
    elif origin is collections.abc.Mapping:
        json_type, want, item = dict, "an object", _typed(args[1])
        convert = lambda value, key: {k: item(v, key) for k, v in value.items()}
    elif origin is tuple and args[1:] == (Ellipsis,):
        json_type, want, item = list, f"a list of {_plural(args[0])}", _typed(args[0])
        convert = lambda value, key: tuple(map(item, value, itertools.repeat(key)))
    else:
        raise TypeError(f"read_spec cannot read a field annotated {tp!r}")
    want += " or null" if nullable else ""

    def read(value, key):
        if isinstance(value, json_type):
            return value if convert is None else convert(value, key)
        if value is None and nullable:
            return None
        raise ConfigError(f"{key} must be {want}, got {value!r}")
    return read


def _plural(tp) -> str:
    """What a list of values annotated ``tp`` holds, as in "a list of ..."."""
    if get_origin(tp) is tuple:
        return "lists"
    return {int: "integers", float: "numbers", str: "strings"}.get(tp, "objects")


@dataclass(frozen=True)
class Bin:
    """Right-open numeric interval; ``upper=None`` means unbounded above.

    An ordered list of bins maps a raw numeric value to the first bin whose
    upper edge exceeds it, e.g. uppers (35, 60, None) give the ranges
    ``<35``, ``[35, 60)`` and ``>=60``.
    """

    json_name = "bin"
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


@dataclass(frozen=True)
class _ColumnDoc:
    """A column of a schema document; categories may be left out."""

    json_name = "column"
    name: str
    kind: str
    categories: tuple[str, ...] | None = None


@dataclass(frozen=True)
class _SchemaDoc:
    """A schema document, as schema_to_json writes it."""

    json_name = "schema"
    label: str
    columns: tuple[_ColumnDoc, ...] = ()
    group_attributes: tuple[str, ...] = ()
    bins: Mapping[str, tuple[Bin, ...]] | None = None


def schema_from_json(doc, key: str = "schema") -> AttributeSchema:
    """The schema a schema document holds (columns, label, group_attributes,
    bins), read by ``read_spec``; a binned column without categories of its
    own takes its bins' names."""
    spec = read_spec(_SchemaDoc, doc, key)
    bins = spec.bins or {}
    categories = {c.name: c.categories for c in spec.columns if c.categories is not None}
    for name, blist in bins.items():
        categories.setdefault(name, tuple(b.name for b in blist))
    return AttributeSchema(tuple(Column(c.name, c.kind) for c in spec.columns), spec.label,
                           spec.group_attributes, categories, bins)


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
    """Immutable column store conforming to an AttributeSchema.

    A dataset made by ``take`` remembers the dataset it was taken from (its
    base) and the base rows it holds, so that a row-wise derivation such as
    an encoded feature matrix is computed once on the base and sliced for
    every subset (``from_base``). Its columns are those base rows of the
    base's columns, each copied on its first read (``_TakenColumns``).
    """

    schema: AttributeSchema
    columns: Mapping[str, np.ndarray]
    _base: "Dataset | None" = field(default=None, init=False, repr=False)
    _rows: np.ndarray | None = field(default=None, init=False, repr=False)
    _memo: dict = field(default_factory=dict, init=False, repr=False)

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
        if self._rows is not None:
            return len(self._rows)
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

    def take(self, indices) -> "Dataset":
        """The rows at ``indices`` (positions or a boolean mask), in that order.

        A subset of a valid dataset is valid, so construction's checks are
        not run again. The subset shares this dataset's base, and no column
        is copied until it is read.
        """
        if self._base is None:
            base, positions = self, self.memo(_positions, _positions)
        else:
            base, positions = self._base, self._rows
        idx = np.asarray(indices)
        if idx.dtype != bool:
            idx = idx.astype(np.int64, copy=False)
        rows = positions[idx]  # a copy, whose shape and range numpy checks
        sub = object.__new__(Dataset)  # without __init__, whose checks this skips
        sub.__dict__.update(
            schema=self.schema,
            columns=_TakenColumns(base.columns, rows),
            _base=base,
            _rows=rows,
            _memo={},
        )
        return sub

    def memo(self, key, compute):
        """``compute(self)``, computed on the first call with ``key`` and kept
        with this dataset. A key must name a function of the data alone, so
        the kept value never goes stale; callers must not modify it."""
        if key not in self._memo:
            self._memo[key] = compute(self)
        return self._memo[key]

    def from_base(self, key, compute) -> np.ndarray:
        """This dataset's rows of ``compute(base)``, for a ``compute`` that
        returns one row per row of its argument, each depending on that row
        alone. The base's result is memoised under ``key``, so each base
        computes it once for all its subsets."""
        if self._base is None:
            return self.memo(key, compute)
        return self._base.memo(key, compute)[self._rows]


def _positions(ds: Dataset) -> np.ndarray:
    """0, 1, ..., n - 1: a base's rows, which ``take`` indexes."""
    positions = np.arange(ds.n)
    positions.flags.writeable = False
    return positions


class _TakenColumns(Mapping):
    """The columns of a subset: each base column at the subset's base rows,
    indexed on its first read and kept. Most subsets are scored or have
    their loss taken, which reads the labels at most, so the other columns
    are never copied."""

    def __init__(self, base: Mapping[str, np.ndarray], rows: np.ndarray):
        self._base = base
        self._rows = rows
        self._taken: dict[str, np.ndarray] = {}

    def __getitem__(self, name: str) -> np.ndarray:
        arr = self._taken.get(name)
        if arr is None:
            arr = self._taken[name] = self._base[name][self._rows]
        return arr

    def __contains__(self, name) -> bool:
        return name in self._base

    def __iter__(self) -> Iterator[str]:
        return iter(self._base)

    def __len__(self) -> int:
        return len(self._base)


# Records parsed per block. Larger blocks were slower and held more memory.
_BLOCK_ROWS = 1000


def load_csv(path, schema: AttributeSchema) -> Dataset:
    """Load a comma-separated, header-first, UTF-8 file against a schema.

    Columns may appear in any order; extra columns are ignored. A leading
    byte-order mark is skipped. Categorical columns with declared bins are
    parsed as numbers and discretized. Numeric cells must be finite: nan
    and inf are rejected. Categorical columns without declared categories
    get the sorted distinct values observed; the returned dataset carries
    the completed schema.

    Records are read in blocks and converted a column at a time. A bad
    file raises the error a row-by-row read meets first: no header or a
    missing column, then the first short, unreadable or unparsable row,
    then no data rows, then the first undeclared category (in column
    order), then the first non-finite number. Each of these is a
    DataError, but a missing column is a SchemaError.
    """
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            parts, index, blank = _read_records(csv.reader(fh), path, schema)
    except UnicodeDecodeError as exc:
        raise _undecodable(path, schema, exc) from exc
    if not parts[schema.label_column]:
        raise DataError(f"no data rows in {path}")

    columns = {}
    for name, arrays in parts.items():
        columns[name] = np.concatenate(arrays)
        arrays.clear()  # so that only one column is held twice at a time
    inferred = {}
    for name in schema.categorical_columns():
        declared = schema.categories.get(name, ())
        seen = list(index[name])
        if not declared:
            inferred[name] = tuple(sorted(seen))
            rank = {c: i for i, c in enumerate(inferred[name])}
            columns[name] = np.array([rank[c] for c in seen], dtype=np.int32)[columns[name]]
        elif len(seen) > len(declared):
            first = columns[name][np.flatnonzero(columns[name] >= len(declared))[0]]
            raise DataError(
                f"value {seen[first]!r} not among declared categories of column {name!r}"
            )
    ds = Dataset(schema.with_categories(inferred) if inferred else schema, columns)
    for col in schema.columns:
        if col.kind != NUMERIC:
            continue
        values = ds.numeric(col.name)
        if np.isfinite(values.min()) and np.isfinite(values.max()):  # min and max keep a NaN
            continue
        i = int(np.flatnonzero(~np.isfinite(values))[0])
        rownum = i + 1
        for b in blank:
            if b > rownum:
                break
            rownum += 1
        raise DataError(f"non-finite value {values[i]} in column {col.name!r} at data row {rownum}")
    return ds


def _read_records(records, path, schema: AttributeSchema):
    """Check the header, then read the data records in blocks: each
    column's arrays, one per block, the categories seen in each categorical
    column, with their provisional codes in order of first sight, and the
    numbers of the empty records. A byte that is not UTF-8 is not handled
    here: its UnicodeDecodeError passes through."""
    try:
        header = next(records)
    except StopIteration:
        raise DataError(f"empty file: {path}") from None
    except csv.Error as exc:
        raise _unreadable(path, exc, 0) from exc
    positions = {}
    for col in schema.columns:
        if col.name not in header:
            raise SchemaError(f"missing column {col.name!r} in {path}")
        positions[col.name] = header.index(col.name)
    index = {name: {c: i for i, c in enumerate(schema.categories.get(name, ()))}
             for name in schema.categorical_columns()}
    parts, blank = _read_blocks(records, path, schema, positions, index)
    return parts, index, blank


def _read_blocks(reader, path, schema: AttributeSchema, positions: Mapping[str, int],
                 index: Mapping[str, dict]) -> tuple[dict[str, list], list[int]]:
    """Each column's arrays, one per block of records, and the numbers of
    the empty records, which count as data rows but hold no values.

    A record the reader cannot read, such as one over csv's field size
    limit, is a DataError naming its data row (see ``_unreadable``)."""
    width = max(positions.values()) + 1
    parts: dict[str, list] = {c.name: [] for c in schema.columns}
    blank = []
    start = 1  # data row number of the block's first record
    while True:
        block = []
        unread = None
        try:
            block.extend(itertools.islice(reader, _BLOCK_ROWS))
        except csv.Error as exc:  # raised after the rows before it
            unread = exc
        if not block and unread is None:
            return parts, blank
        empty = [] if all(block) else [start + i for i, r in enumerate(block) if not r]
        blank += empty
        if len(empty) < len(block):
            try:
                _convert_block([r for r in block if r] if empty else block, start,
                               schema, positions, width, index, parts)
            except ValueError:
                # again a record at a time, into throwaway parts: the first bad
                # record raises the DataError that names its row
                for rownum, record in enumerate(block, start=start):
                    if record:
                        _convert_block([record], rownum, schema, positions, width, index,
                                       {name: [] for name in parts})
                raise
        if unread is not None:
            raise _unreadable(path, unread, start + len(block)) from unread
        start += len(block)


def _unreadable(path, exc: Exception, row: int) -> DataError:
    """A DataError naming the data row (0 for the header) that could not be read."""
    where = "the header" if row == 0 else f"data row {row}"
    return DataError(f"cannot read {where} of {path}: {exc}")


def _undecodable(path, schema: AttributeSchema, exc: UnicodeDecodeError) -> DataError:
    """The error a row-by-row read meets in a file holding a byte that is
    not UTF-8. The text layer decodes ahead of the reader, so the rows just
    before the file's first such byte may not have been read when it
    failed. They are read here, from the text before that byte: its header
    and the rows it holds in full are checked as in any load, and their
    first error (or a csv error in that text) comes first. Otherwise the
    DataError names the row holding the byte and gives the byte's offset.
    That row is the last record csv reads from the text before the byte
    plus one character, so that a record the byte cuts short still counts."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as first:
        text, exc = raw[: first.start].decode("utf-8"), first
    text = text.removeprefix("\ufeff") + "_"  # as the utf-8-sig reader sees it
    row = -1
    try:
        for row, _ in enumerate(csv.reader(io.StringIO(text, newline=""))):
            pass
    except csv.Error as unread:
        row, exc = row + 1, unread
    if row > 0:  # the header and the rows before the byte's or csv error's row
        _read_records(itertools.islice(csv.reader(io.StringIO(text, newline="")), row),
                      path, schema)
    return _unreadable(path, exc, row)


def _convert_block(rows: list, start: int, schema: AttributeSchema,
                   positions: Mapping[str, int], width: int, index: Mapping[str, dict],
                   parts: Mapping[str, list]) -> None:
    """Append the column arrays of ``rows`` to ``parts``; new categories get
    the next free codes. A short row, a cell that does not parse, a label
    other than 0/1 or a NaN to bin raises. For one record, which is data row
    ``start``, that is the DataError naming the row and its first bad cell
    in schema column order; for more, a ValueError naming neither."""
    n = len(rows)

    def bad(message: str, name: str = ""):
        if n > 1:
            raise ValueError("bad record in block")
        record = rows[0]
        raise DataError(message.format(row=start, fields=len(record), width=width, col=name,
                                       cell=record[positions[name]] if name else None))

    if min(map(len, rows)) < width:
        bad("data row {row} has {fields} fields, expected {width}")
    for col in schema.columns:
        cells = map(itemgetter(positions[col.name]), rows)
        bins = schema.bins.get(col.name)
        if col.kind == CATEGORICAL and bins is None:
            parts[col.name].append(_encode(list(cells), index[col.name]))
            continue
        try:
            values = np.fromiter(map(float, cells), dtype=np.float64, count=n)
        except ValueError:
            values = None
        if col.kind == LABEL:
            if values is None or not ((values == 0.0) | (values == 1.0)).all():
                bad("label must be 0 or 1 at data row {row}, got {cell!r}", col.name)
            parts[col.name].append(values.astype(np.int64))
        elif bins is not None:
            if values is None:
                bad("non-numeric value {cell!r} in binned column {col!r} at data row {row}",
                    col.name)
            if np.isnan(values).any():
                bad("cannot bin NaN in column {col!r} at data row {row}", col.name)
            edges = np.array([b.upper for b in bins[:-1]], dtype=np.float64)
            names = tuple(str(b.name) for b in bins)
            which = np.searchsorted(edges, values, side="right").tolist()
            parts[col.name].append(_encode(list(map(names.__getitem__, which)), index[col.name]))
        elif values is None:
            bad("non-numeric value {cell!r} in column {col!r} at data row {row}", col.name)
        else:
            parts[col.name].append(values)


def _encode(cells: list, index: dict) -> np.ndarray:
    """Codes of ``cells`` in ``index``, giving each value not yet in it the
    next free code."""
    try:
        return np.fromiter(map(index.__getitem__, cells), dtype=np.int32, count=len(cells))
    except KeyError:
        for cell in cells:
            index.setdefault(cell, len(index))
        return np.fromiter(map(index.__getitem__, cells), dtype=np.int32, count=len(cells))


# Rows converted and written per block by write_csv. Larger blocks held more
# memory and were no faster.
_WRITE_ROWS = 1024


def write_csv(ds: Dataset, path) -> None:
    """Write in the same dialect load_csv reads; round-trips exactly.

    The bytes are those ``csv.writer`` writes row by row. Each category is
    quoted once, and the columns are converted, joined and written one
    block of rows at a time, so memory stays flat in the row count."""
    # (values, the text of one value) per column: a category's or label's
    # text is looked up, and float.__repr__ spells repr's text faster than
    # the builtin repr
    columns = []
    for col in ds.schema.columns:
        arr = ds.columns[col.name]
        if col.kind == CATEGORICAL:
            fields = list(map(_csv_field, ds.schema.categories[col.name]))
            columns.append((arr, fields.__getitem__))
        elif col.kind == LABEL:
            columns.append((arr.astype(np.int64, copy=False), ("0", "1").__getitem__))
        else:
            columns.append((arr.astype(np.float64, copy=False), float.__repr__))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        # csv.writer writes the header: it quotes a lone empty field, which
        # only a row of one field can hold. A data row of one field holds a
        # label, which is never empty.
        csv.writer(fh).writerow(ds.schema.column_names())
        for lo in range(0, ds.n, _WRITE_ROWS):
            cells = [map(text, arr[lo:lo + _WRITE_ROWS].tolist()) for arr, text in columns]
            fh.write("\r\n".join(map(",".join, zip(*cells))) + "\r\n")


def _csv_field(text: str) -> str:
    """``text`` as csv.writer writes it among other fields of a row."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[:-3]  # without the empty field and "\r\n"


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

    json_name = "rule"
    kind: str  # "constant" | "linear"
    label: int | None = None
    weights: tuple[float, ...] | None = None
    bias: float = 0.0

    def __post_init__(self):
        if self.kind == "constant":
            if self.label not in (0, 1):
                raise ValueError(f"label must be the integer 0 or 1, got {self.label!r}")
        elif self.kind == "linear":
            if not self.weights:
                raise ValueError("linear rule needs weights")
        else:
            raise ValueError(f"unknown rule kind {self.kind!r}")
        for name, values in (("bias", (self.bias,)), ("weights", self.weights or ())):
            for v in values:
                if not math.isfinite(v):
                    raise ValueError(f"rule {name} must hold finite numbers, got {v!r}")

    def apply(self, features: np.ndarray) -> np.ndarray:
        if self.kind == "constant":
            return np.full(len(features), self.label, dtype=np.int64)
        w = np.asarray(self.weights, dtype=np.float64)
        return (features @ w + self.bias > 0).astype(np.int64)


@dataclass(frozen=True)
class SyntheticLeaf:
    json_name = "leaf"
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

    json_name = "synthetic spec"
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
    all_feats = np.concatenate(feats)
    counts = [leaf.count for leaf in spec.leaves]
    columns = {
        a: np.repeat(np.array([cats.index(leaf.attributes[a]) for leaf in spec.leaves],
                              dtype=np.int32), counts)
        for a, cats in spec.attributes.items()
    }
    for j in range(spec.feature_dim):
        columns[f"x{j}"] = all_feats[:, j]
    columns["label"] = np.concatenate(labels)
    return Dataset(spec.schema(), columns)
