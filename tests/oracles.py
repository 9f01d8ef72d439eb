"""Reference implementations that the tests check the package against.

Each one computes its result the plain way: one boolean mask per group, a
root-to-leaf descent per row, one fit on every row, a CSV parsed cell by
cell and written row by row, one leaf's group codes at a time, a logistic
score of standardized rows, a Newton step that recomputes every product,
a group's risk under a changing predictor gathered from all of the group's
rows, a split search that scores every cut, a bag's node table built one
tree at a time, an excess report that scores every group fit again. The
package computes the same results faster or from less code, and the tests
hold it to these.
"""

from __future__ import annotations

import csv
import io
import itertools
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from multigroup import learners
from multigroup.algorithms import AuditVerdict, DecisionList, DecisionListEntry, \
    GroupTreePredictor, PrependCapExceeded, TraceStep
from multigroup.algorithms.group_tree import TOL, _Pass
from multigroup.bounds import EpsilonSpec, epsilon, uc_width
from multigroup.data import _SEED_MASK, CATEGORICAL, LABEL, NUMERIC, AttributeSchema, Bin, \
    DataError, Dataset, SchemaError, SyntheticSpec, json_int
from multigroup.evaluation import _mean_stderr
from multigroup.groups import Group, GroupTree, membership_vector
from multigroup.learners import _BLOCK, _MAX_HALVINGS, _MIN_GAIN, _RIDGE, _SEED_MASK, \
    _SEPARATED_MARGIN, FeatureEncoder, LearnerSpec, PredictorCache, _Counted, _cut_gains, \
    _cuts, _between, _entropy_in_range, _FlatTree, _grow_forest, _mean_log_loss, _midpoints, \
    _out_of_range, _pass_trees, _presort, _Sorted, fit, sigmoid
from multigroup.risk import Loss, group_risks, mean


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


def dataset_equals(ds: Dataset, other: Dataset) -> bool:
    if ds.schema.column_names() != other.schema.column_names():
        return False
    if ds.schema.categories != other.schema.categories:
        return False
    for name in ds.schema.column_names():
        if not np.array_equal(ds.columns[name], other.columns[name]):
            return False
    return True


def children(tree: GroupTree, group_id: str) -> tuple[Group, ...]:
    return tuple(tree._by_id[k] for k in tree._children[group_id])


def contains_row(g: Group, row: Mapping[str, object]) -> bool:
    return all(row.get(attr) == cat for attr, cat in g.conjuncts)


def deepest_containing(tree: GroupTree, row: Mapping[str, object]) -> Group:
    """Descend from the root, moving to a child whenever it contains the row."""
    current = tree.root
    while True:
        advanced = False
        for child in children(tree, current.id):
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


def compare(report, method_a: str, method_b: str, learner: str | None = None) -> list[dict]:
    """Per-group deltas of ``report``'s mean errors (a minus b), sorted by
    delta ascending: the former ``EvalReport.compare``."""
    for m in (method_a, method_b):
        if m not in report.methods:
            raise ValueError(f"method {m!r} not in report")
    learner = learner if learner is not None else report.learners[0]
    rows = []
    for gid in report.group_ids:
        series_a = report.raw[(method_a, learner)][gid]
        series_b = report.raw[(method_b, learner)][gid]
        paired = [(a, b) for a, b in zip(series_a, series_b)
                  if a is not None and b is not None]
        delta, stderr = _mean_stderr([a - b for a, b in paired])
        rows.append({
            "group_id": gid,
            "depth": report.group_depths[gid],
            "error_a": _mean_stderr([a for a, _ in paired])[0],
            "error_b": _mean_stderr([b for _, b in paired])[0],
            "delta": delta,
            "delta_stderr": stderr,
        })
    rows.sort(key=lambda r: (r["delta"] is None, r["delta"], r["group_id"]))
    return rows


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


def write_csv(ds: Dataset, path) -> None:
    """Write in the same dialect load_csv reads; round-trips exactly."""
    names = ds.schema.column_names()
    cells = []
    for name in names:
        kind = ds.schema.column(name).kind
        arr = ds.columns[name]
        if kind == CATEGORICAL:
            cells.append(map(ds.schema.categories[name].__getitem__, arr.tolist()))
        elif kind == LABEL:
            cells.append(map(str, arr.astype(np.int64, copy=False).tolist()))
        else:
            cells.append(map(repr, arr.astype(np.float64, copy=False).tolist()))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows(zip(*cells))


def make_synthetic(spec: SyntheticSpec, seed: int) -> Dataset:
    """Sample a dataset whose per-leaf Bayes rule is the planted rule."""
    rng = np.random.default_rng(seed & _SEED_MASK)
    codes: dict[str, list] = {a: [] for a in spec.attributes}
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
            codes[attr].append(np.full(leaf.count, spec.attributes[attr].index(cat), dtype=np.int32))
    all_feats = np.concatenate(feats)
    columns = {a: np.concatenate(c) for a, c in codes.items()}
    for j in range(spec.feature_dim):
        columns[f"x{j}"] = all_feats[:, j]
    columns["label"] = np.concatenate(labels)
    return Dataset(spec.schema(), columns)


# Tree growth on bootstrap samples that repeat each drawn id as often as
# drawn, searching every feature of a tree's subset, constant or not.

def _block_rows(k: int, m: int) -> int:
    """Rows of a (k, m) level array per block, at most learners._SPLIT_BLOCK
    values unless one row alone is longer."""
    return min(k, max(1, learners._SPLIT_BLOCK // m))


def entropy(p: np.ndarray) -> np.ndarray:
    """Binary entropy in nats, 0 at p = 0 and p = 1 (0 log 0 taken as 0)."""
    return _entropy_in_range(np.clip(p, 0.0, 1.0))


def best_splits(X, y, order, starts, sizes, pos):
    """Best (feature, threshold) of each node of one forest level, by
    entropy reduction.

    The level's nodes are contiguous segments of order's columns (start,
    size, positives), and row c of a segment lists its sample ids sorted by
    feature c, which is X[c]; ids index the columns of X and y. The
    candidate thresholds are the boundaries between distinct sorted values
    inside a node. Features are scanned in index order and thresholds in
    ascending order, so ties resolve to the lowest feature index and lowest
    threshold. Rows of order are scored a block at a time, as many per
    block as keep it within _SPLIT_BLOCK values, and read X with 1-D take
    on flat indices.

    Returns per node: the gain (-inf if no feature has two distinct
    values), the feature, the last position left of the cut, the threshold
    (the midpoint of the values either side of the cut) and the positives
    left of it.
    """
    k, m = order.shape
    count = len(starts)
    step = _block_rows(k, m)
    # Per position of a block's rows laid end to end: its node, the count
    # left of a cut after it, and whether a cut after it is inside its node.
    node_of = np.tile(np.repeat(np.arange(count), sizes), step)
    n_left_at = np.tile(np.arange(1, m + 1) - np.repeat(starts, sizes), step)
    inside = np.tile(n_left_at[:m] < np.repeat(sizes, sizes), step)[:-1]
    row_at = np.arange(k)[:, None] * X.shape[1]  # flat index of X[c, 0]
    parent = entropy(pos / sizes)
    gain = np.full(count, -np.inf)
    feature, at = np.zeros(count, dtype=np.intp), np.zeros(count, dtype=np.intp)
    lo, hi, pos_left = np.zeros(count), np.zeros(count), np.zeros(count)
    cum = np.zeros(step * m + 1)  # cum[f] = positives before flat position f
    for c0 in range(0, k, step):
        ids = order[c0:c0 + step]
        width = ids.size
        values = X.take(ids + row_at[c0:c0 + step]).ravel()
        np.cumsum(y.take(ids), out=cum[1:width + 1])  # rows end to end
        f = np.flatnonzero((values[:-1] < values[1:]) & inside[:width - 1])
        if f.size == 0:
            continue
        s = node_of[f]
        n = sizes[s]
        n_left = n_left_at[f]
        p_left = cum[f + 1] - cum[f + 1 - n_left]
        n_right = n - n_left
        p_right = pos[s] - p_left
        gains = parent[s] - (n_left * entropy(p_left / n_left)
                             + n_right * entropy(p_right / n_right)) / n
        top = np.full(count, -np.inf)
        np.maximum.at(top, s, gains)
        hit = np.flatnonzero(gains == top[s])
        won, first = np.unique(s[hit], return_index=True)  # each node's first maximum
        k_won = hit[first]
        better = top[won] > gain[won]
        won, k_won = won[better], k_won[better]
        gain[won] = top[won]
        f = f[k_won]
        feature[won] = c0 + f // m
        at[won] = f % m
        lo[won] = values[f]
        hi[won] = values[f + 1]
        pos_left[won] = p_left[k_won]
    threshold = lo + (hi - lo) / 2.0
    rounded_up = threshold >= hi  # midpoint rounded up onto the right value
    threshold[rounded_up] = lo[rounded_up]
    return gain, feature, at, threshold, pos_left


def grow_tree(X: np.ndarray, y: np.ndarray, order: np.ndarray, sizes,
               max_depth: int) -> list[dict]:
    """Grow a forest of depth-bounded trees by greedy entropy reduction, all
    its trees a level at a time; returns their roots.

    order holds the trees' samples side by side, one segment of the given
    size per tree, as (features, samples) ids of the columns of X and y:
    row c of a segment is sorted by feature c, which is X[c], and a
    bootstrap sample repeats ids. A node is a segment and its cuts lie
    inside it, so trees never mix. A split keeps each side's ids in the
    order they had, so no node sorts: the nodes of the next level are
    again sorted segments of one array. A node is a leaf at max_depth, when
    its labels agree, or when no split gains more than _MIN_GAIN.
    """
    k, m = order.shape
    sizes = np.asarray(sizes)
    pos = np.add.reduceat(y.take(order[0]), np.cumsum(sizes) - sizes)
    roots = [{} for _ in sizes]
    nodes = roots
    for depth in range(max_depth):
        starts = np.cumsum(sizes) - sizes
        gain, feature, at, threshold, pos_left = best_splits(
            X, y, order, starts, sizes, pos)
        side = np.zeros(len(y), dtype=np.int8)  # 1, 2: goes to a left, right node to split
        grow = ([], [])
        for s, node in enumerate(nodes):
            if not gain[s] > _MIN_GAIN:
                node["score"] = float(pos[s] / sizes[s])
                continue
            start, cut, end = int(starts[s]), int(at[s]) + 1, int(starts[s] + sizes[s])
            node["feature"] = int(feature[s])
            node["threshold"] = float(threshold[s])
            sides = ((cut - start, float(pos_left[s]), start, cut),
                     (end - cut, float(pos[s] - pos_left[s]), cut, end))
            for b, (size, p, first, last) in enumerate(sides):
                child = node["left" if b == 0 else "right"] = {}
                if depth + 1 < max_depth and 0.0 < p < size:
                    side[order[feature[s], first:last]] = b + 1
                    grow[b].append((child, size, p))
                else:
                    child["score"] = p / size
        children = grow[0] + grow[1]
        if not children:
            break
        nodes = [child for child, _, _ in children]
        sizes = np.array([size for _, size, _ in children])
        pos = np.array([p for _, _, p in children])
        left = sum(size for _, size, _ in grow[0])
        parted = np.empty((k, sizes.sum()), dtype=order.dtype)
        step = _block_rows(k, m)
        for c0 in range(0, k, step):
            block = order[c0:c0 + step]
            to = side.take(block).ravel()
            parted[c0:c0 + step, :left] = np.compress(to == 1, block).reshape(len(block), -1)
            parted[c0:c0 + step, left:] = np.compress(to == 2, block).reshape(len(block), -1)
        order, m = parted, parted.shape[1]
    return roots


def fit_bagged(XT: np.ndarray, y: np.ndarray, spec: LearnerSpec):
    """Trees on bootstrap samples of XT's columns and feature subsets, drawn
    per tree from default_rng([seed, tree index]), grown _pass_trees(n) at a
    time as one forest.

    A pass lays its trees side by side: tree t's bootstrap ids are shifted
    by t * n, row c of the pass's features holds each tree's c-th lowest
    feature of its subset, and the labels repeat once per tree.
    """
    d, n = XT.shape
    k = max(1, int(round(spec.feature_fraction * d)))
    order = _presort(XT, range(len(XT)))
    trees, subsets = [], []
    per_pass = _pass_trees(n)
    for t0 in range(0, spec.n_trees, per_pass):
        count = min(per_pass, spec.n_trees - t0)
        copies = np.empty((count, n), dtype=np.intp)
        for t in range(count):
            rng = np.random.default_rng([spec.seed & _SEED_MASK, t0 + t])
            copies[t] = np.bincount(rng.integers(0, n, size=n), minlength=n)
            subsets.append(np.sort(rng.choice(d, size=k, replace=False)))
        columns = np.array(subsets[t0:]).T  # (k, count)
        shift = (np.arange(count) * n)[:, None]
        sample = np.empty((k, count * n), dtype=order.dtype)
        for c in range(k):
            ids = order[columns[c]] + shift
            sample[c] = np.repeat(ids.ravel(), copies.take(ids).ravel())  # as often as drawn
        X = XT[columns].reshape(k, count * n)
        trees += grow_tree(X, np.tile(y, count), sample, np.full(count, n), spec.max_depth)
    return trees, subsets


# Split searches over a rectangular level, a row of positions per feature:
# learners._best_splits's former form, the search that scores every cut,
# the one-row search run row by row, and learners._grow_forest on trees that
# sort every row of X.

def rectangular_best_splits(X, wy, order, starts, lengths, sizes, pos):
    """Best (feature, threshold) of each node of one forest level, by
    entropy reduction, skipping the cuts learners._best_splits skips.

    The level's nodes are contiguous segments of order's columns (start,
    length), and row c of a segment lists its sample ids sorted by feature
    c, which is X[c]; ids index the columns of X and wy, and wy, sizes and
    pos are as learners._best_splits takes them. Features are scanned in
    index order and thresholds in ascending order, so ties resolve to the
    lowest feature index and lowest threshold. Rows of order are scored a
    block at a time, as many per block as keep it within _SPLIT_BLOCK
    values, and read X with 1-D take on flat indices.

    Returns per node: the gain (-inf if no feature has two distinct
    values), the feature, the last position left of the cut, the threshold
    (the midpoint of the values either side of the cut), and the size and
    positives left of it.
    """
    k, m = order.shape
    count = len(starts)
    sizes, pos = np.asarray(sizes, dtype=np.float64), np.asarray(pos, dtype=np.float64)
    step = _block_rows(k, m)
    # Per position of a block's rows laid end to end: its node, whether a
    # cut after it is inside its node, and whether its node may skip cuts
    # inside runs.
    node_of = np.tile(np.repeat(np.arange(count), lengths), step)
    inside = np.ones(m, dtype=bool)
    inside[starts + lengths - 1] = False
    inside = np.tile(inside, step)
    light = np.tile(np.repeat(sizes <= learners._CONCAVE_WEIGHT, lengths), step)
    row_at = np.arange(k)[:, None] * X.shape[1]  # flat index of X[c, 0]
    parent = _entropy_in_range(pos / sizes)
    gain = np.full(count, -np.inf)
    feature, at = np.zeros(count, dtype=np.intp), np.zeros(count, dtype=np.intp)
    lo, hi = np.zeros(count), np.zeros(count)
    size_left, pos_left = np.zeros(count), np.zeros(count)
    cum = np.zeros(step * m + 1, dtype=np.complex128)  # cum[f] = wy before flat position f
    for c0 in range(0, k, step):
        ids = order[c0:c0 + step]
        rows, width = len(ids), ids.size
        values = X.take(ids + row_at[c0:c0 + step]).ravel()
        drawn = wy.take(ids).ravel()
        np.cumsum(drawn, out=cum[1:width + 1])  # rows end to end
        f = _cuts(values, drawn.imag > 0, inside[:width], light[:width])
        if f.size == 0:
            continue
        s = node_of.take(f)
        first = starts.take(s) + f - f % m  # the flat position where f's segment starts
        gains = _cut_gains(*_between(first, f + 1, cum), s, sizes, pos, parent)
        # The cuts run by row, then by node: the best gain of each (row,
        # node) segment of them, then of each node, and the first cut that
        # reaches it, in the first segment that does.
        seg_lo = np.searchsorted(f, (np.arange(rows)[:, None] * m + starts).ravel())
        cut_in = seg_lo < np.append(seg_lo[1:], f.size)
        seg_top = np.full(rows * count, -np.inf)
        seg_top[cut_in] = np.maximum.reduceat(gains, seg_lo[cut_in])
        seg_top = seg_top.reshape(rows, count)
        top = seg_top.max(axis=0)
        won = np.flatnonzero(top > gain)
        if won.size == 0:
            continue
        hit = np.flatnonzero(gains == top.take(s))
        first_row = np.argmax(seg_top[:, won] == top[won], axis=0)
        k_won = hit[np.searchsorted(hit, seg_lo[first_row * count + won])]
        gain[won] = top[won]
        f = f[k_won]
        feature[won] = c0 + f // m
        at[won] = f % m
        lo[won] = values[f]
        hi[won] = values[f + 1]
        size_left[won], pos_left[won] = _between(first[k_won], f + 1, cum)
    return gain, feature, at, _midpoints(lo, hi), size_left, pos_left


def _left_of(f, ids_left_at, cum_w, cum_yw):
    """The weight and the weighted positives left of a cut after each
    position f, from the start of f's segment, given how many ids lie from
    there up to each position."""
    after = f + 1
    first = after - ids_left_at[f]  # position where f's segment starts
    n_left = cum_w[after]
    n_left -= cum_w[first]
    p_left = cum_yw[after]
    p_left -= cum_yw[first]
    return n_left, p_left


def every_cut_best_splits(values, wy, ids, starts, lengths, sizes, pos):
    """learners._best_splits, scoring every candidate cut: each boundary
    between distinct sorted values inside a node. Returns per node the gain
    (-inf if the node holds one value), the threshold of its first best
    cut, and the size and positives left of it."""
    count = len(starts)
    node_of = np.repeat(np.arange(count), lengths)
    ids_left_at = np.arange(1, len(ids) + 1) - np.repeat(starts, lengths)
    values = values.take(ids)
    cum = np.zeros(len(ids) + 1, dtype=np.complex128)  # cum[f] = wy before position f
    np.cumsum(wy.take(ids), out=cum[1:])
    f = np.flatnonzero((values[:-1] < values[1:])
                       & (ids_left_at < np.repeat(lengths, lengths))[:-1])
    s = node_of[f]
    gains = _cut_gains(*_left_of(f, ids_left_at, cum.real, cum.imag), s, sizes, pos,
                       _entropy_in_range(pos / sizes))
    gain = np.full(count, -np.inf)
    np.maximum.at(gain, s, gains)
    hit = np.flatnonzero(gains == gain[s])
    won, first = np.unique(s[hit], return_index=True)  # each node's first maximum
    f = f[hit[first]]
    lo, hi = np.zeros(count), np.zeros(count)
    size_left, pos_left = np.zeros(count), np.zeros(count)
    lo[won], hi[won] = values[f], values[f + 1]
    size_left[won], pos_left[won] = _left_of(f, ids_left_at, cum.real, cum.imag)
    threshold = lo + (hi - lo) / 2.0
    rounded_up = threshold >= hi  # midpoint rounded up onto the right value
    threshold[rounded_up] = lo[rounded_up]
    return gain, threshold, size_left, pos_left


def row_by_row(best_splits, X, wy, order, starts, lengths, sizes, pos):
    """A one-row split search (learners._best_splits's form) on each row of
    a rectangular level, as rectangular_best_splits takes it. Returns per
    node the gain, the feature, the threshold, and the size and positives
    left of the cut of the first row whose gain is greatest."""
    gain = np.full(len(starts), -np.inf)
    feature = np.zeros(len(starts), dtype=np.intp)
    threshold, size_left, pos_left = (np.zeros(len(starts)) for _ in range(3))
    for c in range(len(order)):
        found = best_splits(X[c], wy, order[c], starts, lengths, sizes, pos)
        won = found[0] > gain
        feature[won] = c
        for best, new in zip((gain, threshold, size_left, pos_left), found):
            best[won] = new[won]
    return gain, feature, threshold, size_left, pos_left


_NO_PAIRS = _Counted(*[np.zeros(0, dtype=np.intp)] * 8)


def grow_every_row(X: np.ndarray, y: np.ndarray, w: np.ndarray, order: np.ndarray, lengths,
                   max_depth: int) -> list[dict]:
    """learners._grow_forest on a forest whose trees all sort every row of
    X, constant rows included, and count none.

    order holds the trees' samples side by side, one segment of the given
    length per tree, as (features, samples) ids of the columns of X, y and
    w: row c of a segment is sorted by feature c, which is X[c]. An id
    appears once in a segment and stands for w[id] > 0 copies of its row,
    its bootstrap count. order has at least one row.
    """
    k = len(order)
    lengths = np.asarray(lengths, dtype=np.intp)
    ends = np.cumsum(lengths)
    ids = np.concatenate([order[:, end - length:end].ravel() for end, length in zip(ends, lengths)])
    tree = np.repeat(np.arange(len(lengths)), k)
    feature = np.tile(np.arange(k), len(lengths))
    values = X.take(ids + np.repeat(feature * X.shape[1], lengths.take(tree)))
    return _grow_forest(X, np.arange(X.shape[1]), y, w, lengths,
                        _Sorted(tree, feature, feature, ids, values), _NO_PAIRS, max_depth)


# A bag's node table built one tree at a time and then joined.

def flatten(root: dict, columns=None) -> _FlatTree:
    """One tree as a forest of one. columns maps the tree's feature indices
    to columns of X; a split on a feature outside columns, a threshold that
    is not finite or a leaf score outside [0, 1] raises ValueError."""
    nodes, depths = [root], [0]
    feature, threshold, child, value = [], [], [], []
    for i, node in enumerate(nodes):
        if "feature" in node:
            feature.append(json_int(node["feature"], "feature"))
            threshold.append(float(node["threshold"]))
            child += [len(nodes) + 1, len(nodes)]
            value.append(0.0)
            nodes += [node["left"], node["right"]]
            depths += [depths[i] + 1] * 2
        else:
            feature.append(0)
            threshold.append(0.0)
            child += [i, i]
            value.append(float(node["score"]))
    bad = next((t for t in threshold if not np.isfinite(t)), None)
    if bad is not None:
        raise ValueError(f"a tree splits at threshold {bad}, which is not finite")
    bad = next((v for v in value if not 0.0 <= v <= 1.0), None)
    if bad is not None:
        raise ValueError(f"a tree leaf score must be in [0, 1], got {bad}")
    feature, child = np.array(feature, dtype=np.intp), np.array(child, dtype=np.intp)
    if columns is not None:
        columns = np.asarray(columns, dtype=np.intp)
        split = child[1::2] != np.arange(len(nodes))
        bad = _out_of_range(feature[split], len(columns))
        if bad is not None:
            raise ValueError(f"a tree splits on feature {bad}, outside its {len(columns)} features")
        feature[split] = columns[feature[split]]
    return _FlatTree(feature, np.array(threshold), child, np.array(value),
                     np.zeros(1, dtype=np.intp), max(depths))


def forest(trees: list[_FlatTree]) -> _FlatTree:
    """The trees as one node table, each tree's node ids shifted past the
    nodes of the trees before it."""
    shift = np.cumsum([0] + [len(tree.value) for tree in trees[:-1]])
    return _FlatTree(
        np.concatenate([tree.feature for tree in trees]),
        np.concatenate([tree.threshold for tree in trees]),
        np.concatenate([tree.child + s for tree, s in zip(trees, shift)]),
        np.concatenate([tree.value for tree in trees]),
        np.concatenate([tree.roots + s for tree, s in zip(trees, shift)]),
        max(tree.depth for tree in trees))


# Logistic fits the standardized way: every score standardizes a copy of its
# rows, and every Newton step computes its margins and its ridge again.

def logistic_loss(weights: np.ndarray, intercept: float, X: np.ndarray, y: np.ndarray) -> float:
    """Mean logistic loss, computed via logaddexp for stability."""
    return _mean_log_loss(X @ weights + intercept, 1.0 - 2.0 * y)


def standardized_margins(predictor, ds: Dataset) -> np.ndarray:
    """A logistic fit's margins ((x - mean) / scale) @ weights + intercept."""
    X = (predictor.encoder.encode(ds) - predictor.mean) / predictor.scale
    return X @ predictor.weights + predictor.intercept


def standardized_scores(predictor, ds: Dataset) -> np.ndarray:
    return sigmoid(standardized_margins(predictor, ds))


def newton(X: np.ndarray, mean: np.ndarray, scale: np.ndarray, y: np.ndarray,
           spec: LearnerSpec):
    """Newton/IRLS on the mean log-loss of the standardized design, built in
    place with the intercept as a last column of 1s.

    Each step solves (H + ridge*I) step = gradient and halves the step until
    the loss does not increase. Stops when the gradient norm is below
    ``spec.tolerance``, when no halving lowers the loss, or after
    ``spec.iterations`` steps; under ``"newton_margin"`` also before a step
    where every row's margin on its label's side is >= _SEPARATED_MARGIN.
    """
    n, d = X.shape
    A = np.ones((n, d + 1))
    np.subtract(X, mean, out=A[:, :d])
    A[:, :d] /= scale
    theta = np.zeros(d + 1)
    loss = logistic_loss(theta, 0.0, A, y)
    for _ in range(spec.iterations):
        margins = A @ theta
        if spec.solver == "newton_margin" and \
                np.where(y == 1, margins, -margins).min() >= _SEPARATED_MARGIN:
            break
        p = sigmoid(margins)
        grad = A.T @ (p - y) / n
        if float(np.sqrt(np.dot(grad, grad))) < spec.tolerance:
            break
        weight = p * (1.0 - p) / n
        hessian = _RIDGE * np.eye(d + 1)
        for lo in range(0, n, _BLOCK):
            block = A[lo:lo + _BLOCK]
            hessian += (block.T * weight[lo:lo + _BLOCK]) @ block
        step = np.linalg.solve(hessian, grad)
        for _ in range(_MAX_HALVINGS):
            trial = theta - step
            trial_loss = logistic_loss(trial, 0.0, A, y)
            if trial_loss <= loss:
                break
            step = step / 2.0
        if not trial_loss < loss:
            break
        theta, loss = trial, trial_loss
    return theta[:d], float(theta[d])


# The prepend scan and the audit replay over row gathers: every candidate
# keeps its full-length loss vector, and a group's risk under the list or
# the tree is read from a gather of all of the group's rows.

class CandidatePool:
    """Observed groups, the candidate fits, and each candidate's risk per group."""

    def __init__(self, cache: PredictorCache, tree: GroupTree, spec: LearnerSpec,
                 eps: EpsilonSpec, loss: Loss):
        train = cache.ds
        observed = [(g, r) for g, r in zip(tree.nodes, tree.row_index(train)) if len(r)]
        self.groups = [g for g, _ in observed]
        self.rows = [r for _, r in observed]
        self.margins = np.array([epsilon(eps, len(r)) for r in self.rows])
        self.candidates: list[tuple[str, object]] = [("ALL", cache.erm(spec))]
        for g in sorted(self.groups, key=lambda g: g.id):
            if not g.is_root:
                self.candidates.append((g.id, cache.group_erm(spec, tree, g)))
        self.losses = [loss.per_example(p, train) for _, p in self.candidates]
        self.risks = np.array(
            [[mean(losses[r]) for losses in self.losses] for r in self.rows],
        ).reshape(len(self.groups), len(self.candidates))

    def scan(self, row_loss: np.ndarray):
        """Every (group, candidate) violation value under the per-row losses
        ``row_loss``, and the index of the first maximum (None if no group
        is observed)."""
        list_risk = np.array([mean(row_loss[r]) for r in self.rows])
        values = list_risk[:, None] - self.risks - self.margins[:, None]
        if not values.size:
            return values, None
        return values, np.unravel_index(int(np.argmax(values)), values.shape)


def prepend(cache: PredictorCache, tree: GroupTree, spec: LearnerSpec, eps: EpsilonSpec,
            loss: Loss, cap: int | None = None) -> DecisionList:
    """multigroup's prepend, each round scanning the full values matrix."""
    if cap is None:
        cap = 4 * len(tree)
    eps = eps.with_context(group_count=len(tree), n_total=cache.ds.n)
    pool = CandidatePool(cache, tree, spec, eps, loss)
    entries: list[DecisionListEntry] = []
    current = DecisionList(tree, entries, pool.candidates[0][1], spec, eps, loss)
    row_loss = pool.losses[0].copy()
    for rounds in range(cap + 1):
        values, best = pool.scan(row_loss)
        if best is None or values[best] <= 0:
            return current
        if rounds == cap:
            raise PrependCapExceeded(cap, current)
        gi, ci = best
        source_id, predictor = pool.candidates[ci]
        entries.insert(0, DecisionListEntry(pool.groups[gi], predictor, source_id))
        r = pool.rows[gi]
        row_loss[r] = pool.losses[ci][r]


def termination_scan(dlist: DecisionList, cache: PredictorCache) -> list[tuple[str, str, float]]:
    tree = dlist.tree
    eps = dlist.eps_spec.with_context(group_count=len(tree), n_total=cache.ds.n)
    row_loss = dlist.loss.per_example(dlist, cache.ds)
    pool = CandidatePool(cache, tree, dlist.learner_spec, eps, dlist.loss)
    values, _ = pool.scan(row_loss)
    return [(pool.groups[gi].id, pool.candidates[ci][0], float(values[gi, ci]))
            for gi, ci in zip(*np.nonzero(values > 0))]


def monotonicity_audit(trace: list[TraceStep], cache: PredictorCache, tree: GroupTree,
                       spec: LearnerSpec, eps: EpsilonSpec, loss: Loss) -> AuditVerdict:
    """multigroup's audit replay, gathering every checked node's rows from
    the pass's per-row losses after each step."""
    expected_ids = [g.id for g in tree.nodes if not g.is_root]
    if [t.group_id for t in trace] != expected_ids:
        raise ValueError("trace does not match the tree's breadth-first order")
    tree_pass = _Pass(cache, tree, spec, eps, loss)

    def risk(j):
        return mean(tree_pass.row_loss[tree_pass.rows[j]])

    violations = []
    bench = {0: (risk(0), epsilon(tree_pass.eps, len(tree_pass.rows[0])))}
    for step, recorded in enumerate(trace, start=1):
        followed_update = recorded.decision == "updated"
        replayed = tree_pass.visit(step, lambda _: followed_update)
        g = tree.nodes[step]
        if replayed.n_g != recorded.n_g:
            violations.append(
                (step, g.id, "rule", f"recorded n_g={recorded.n_g}, data has {replayed.n_g}"))
        err = replayed.err
        if recorded.decision != replayed.decision:
            violations.append((step, g.id, "rule", f"decision {recorded.decision!r}, the rule "
                                                   f"gives {replayed.decision!r} (err={err})"))
        if replayed.n_g == 0:
            continue
        if recorded.err is not None and abs(recorded.err - err) > TOL:
            violations.append(
                (step, g.id, "rule", f"recorded err={recorded.err}, replay err={err}"))
        bench[step] = (replayed.candidate_risk, replayed.epsilon)
        for h in tree.ancestors(g.id) if followed_update else [g]:
            j = tree.index(h.id)
            r, (bench_risk, margin) = risk(j), bench[j]
            if r > bench_risk + margin + TOL:
                violations.append((step, h.id, "margin",
                                   f"risk {r} exceeds {bench_risk} + {margin}"))
    return AuditVerdict(ok=not violations, violations=tuple(violations),
                        replay=tree_pass.predictor(list(trace)))


def excess_risk_report(predictor: GroupTreePredictor,
                       cache: PredictorCache) -> tuple[list[dict], list[dict]]:
    """multigroup's excess report, with every observed group's fit scored
    again on its rows instead of read from a pass's trace steps."""
    train = cache.ds
    tree, loss, spec = predictor.tree, predictor.loss, predictor.learner_spec
    eps = predictor.eps_spec.with_context(group_count=len(tree), n_total=train.n)
    tree_risks = group_risks(predictor, train, tree, loss)
    fits = cache.group_fits(spec, tree)
    bench_risks = group_risks(fits, train, tree, loss)
    rows = []
    violations = []
    for g, r in zip(tree.nodes, tree.row_index(train)):
        n_g = len(r)
        if n_g == 0:
            continue
        tree_risk, bench_risk = tree_risks[g.id], bench_risks[g.id]
        margin = epsilon(eps, n_g)
        excess = tree_risk - bench_risk - margin
        row = {
            "group_id": g.id,
            "n_g": n_g,
            "tree_risk": tree_risk,
            "benchmark_risk": bench_risk,
            "epsilon": margin,
            "uc_width": uc_width(eps, n_g) if eps.kind in ("finite_h", "vc") else None,
            "excess": excess,
        }
        rows.append(row)
        if excess > TOL:
            violations.append(row)
    return rows, violations
