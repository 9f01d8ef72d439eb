import csv
import io
import pathlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multigroup import data
from multigroup.data import (
    AttributeSchema,
    Bin,
    Column,
    ConfigError,
    DataError,
    Dataset,
    LeafRule,
    SchemaError,
    SplitSpec,
    SyntheticLeaf,
    SyntheticSpec,
    json_int,
    load_csv,
    make_synthetic,
    schema_from_json,
    split,
    write_csv,
)
from multigroup.algorithms import mgl_tree
from multigroup.bounds import EpsilonSpec
from multigroup.groups import Group, build_hierarchy, membership_vector
from multigroup.learners import FeatureEncoder, LearnerSpec, PredictorCache
from multigroup.risk import ZERO_ONE, group_risks

import oracles
from synthcases import inverted_leaf_spec, opposite_separators_spec, two_leaf_constants


def small_schema():
    return AttributeSchema(
        columns=(
            Column("race", "categorical"),
            Column("sex", "categorical"),
            Column("label", "binary-label"),
        ),
        label_column="label",
        group_attributes=("race", "sex"),
    )


def test_load_csv_four_rows(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("race,sex,label\nR1,M,1\nR1,F,0\nR2,M,1\nR2,F,0\n")
    ds = load_csv(p, small_schema())
    assert ds.n == 4
    assert ds.schema.categories["race"] == ("R1", "R2")
    assert list(ds.labels()) == [1, 0, 1, 0]


def test_load_csv_missing_column(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("race,sex\nR1,M\n")
    with pytest.raises(SchemaError, match="label"):
        load_csv(p, small_schema())


def test_load_csv_bad_label_names_row(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("race,sex,label\nR1,M,1\nR1,F,2\n")
    with pytest.raises(DataError, match="row 2"):
        load_csv(p, small_schema())


def test_load_csv_empty_file(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("")
    with pytest.raises(DataError):
        load_csv(p, small_schema())
    p.write_text("race,sex,label\n")
    with pytest.raises(DataError, match="no data rows"):
        load_csv(p, small_schema())


def test_load_csv_extra_columns_ignored(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("junk,race,sex,label\nz,R1,M,1\nz,R1,F,0\n")
    assert load_csv(p, small_schema()).n == 2


def test_load_csv_bins(tmp_path):
    schema = AttributeSchema(
        columns=(Column("age", "categorical"), Column("label", "binary-label")),
        label_column="label",
        group_attributes=("age",),
        categories={"age": ("Ya", "Ma", "Oa")},
        bins={"age": (Bin("Ya", 35), Bin("Ma", 60), Bin("Oa"))},
    )
    p = tmp_path / "d.csv"
    p.write_text("age,label\n34.9,1\n35,0\n59.9,1\n60,0\n99,1\n")
    ds = load_csv(p, schema)
    got = [oracles.value(ds, "age", i) for i in range(ds.n)]
    assert got == ["Ya", "Ma", "Ma", "Oa", "Oa"]


def test_csv_round_trip(tmp_path):
    ds = two_leaf_constants()
    p = tmp_path / "rt.csv"
    write_csv(ds, p)
    again = load_csv(p, ds.schema)
    assert oracles.dataset_equals(again, ds)
    # and a second cycle through the loader-inferred schema
    p2 = tmp_path / "rt2.csv"
    write_csv(again, p2)
    assert oracles.dataset_equals(load_csv(p2, again.schema), again)


def test_schema_from_json_rejects_unknown_keys():
    with pytest.raises(ConfigError, match=r"unknown schema keys: \['extra'\]"):
        schema_from_json({"columns": [], "label": "y", "extra": 1})


def test_split_sizes_and_partition():
    ds = make_synthetic(opposite_separators_spec(5), seed=3)
    train, test = split(ds, SplitSpec(0.2, seed=1, trial_index=0))
    assert test.n == 2 and train.n == 8
    merged = sorted(
        [tuple(oracles.row(train, i).items()) for i in range(train.n)]
        + [tuple(oracles.row(test, i).items()) for i in range(test.n)]
    )
    original = sorted(tuple(oracles.row(ds, i).items()) for i in range(ds.n))
    assert merged == original


def test_split_deterministic():
    ds = make_synthetic(opposite_separators_spec(50), seed=3)
    a = split(ds, SplitSpec(0.2, seed=9, trial_index=4))
    b = split(ds, SplitSpec(0.2, seed=9, trial_index=4))
    assert oracles.dataset_equals(a[0], b[0]) and oracles.dataset_equals(a[1], b[1])


def test_split_trials_distinct():
    ds = make_synthetic(opposite_separators_spec(500), seed=3)
    assert ds.n == 1000
    seen = set()
    for trial in range(10):
        _, test = split(ds, SplitSpec(0.2, seed=7, trial_index=trial))
        assert test.n == 200
        key = tuple(np.round(test.numeric("x0"), 12))
        seen.add(key)
    assert len(seen) == 10


def test_split_empty_side_rejected():
    ds = make_synthetic(opposite_separators_spec(2), seed=0)
    with pytest.raises(DataError):
        split(ds, SplitSpec(0.05, seed=0, trial_index=0))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32), trial=st.integers(0, 50))
def test_split_partition_property(seed, trial):
    ds = make_synthetic(opposite_separators_spec(30), seed=5)
    train, test = split(ds, SplitSpec(0.25, seed=seed, trial_index=trial))
    assert train.n + test.n == ds.n
    assert test.n == round(0.25 * ds.n)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_take_equals_a_validated_copy_and_slices_the_base_encoding(data):
    """take skips construction's checks and reads its features from the
    base's one encoding; both must match a freshly built, checked copy, also
    for a take of a take and for a boolean mask."""
    ds = make_synthetic(opposite_separators_spec(20, noise=0.2), seed=11)
    rows = st.lists(st.integers(0, ds.n - 1), max_size=ds.n)
    outer = np.array(data.draw(rows), dtype=np.int64)
    first = ds.take(outer)
    inner = data.draw(st.one_of(
        st.lists(st.integers(0, max(first.n - 1, 0)), max_size=first.n if first.n else 0),
        st.lists(st.booleans(), min_size=first.n, max_size=first.n)))
    inner = np.array(inner, dtype=bool if inner and isinstance(inner[0], bool) else np.int64)
    for encoder in (FeatureEncoder(ds.schema), FeatureEncoder(ds.schema, False)):
        for sub, cols in ((first, {c: col[outer] for c, col in ds.columns.items()}),
                          (first.take(inner),
                           {c: col[outer][inner] for c, col in ds.columns.items()})):
            fresh = Dataset(ds.schema, cols)
            assert oracles.dataset_equals(sub, fresh)
            got, want = encoder.encode(sub), encoder.transform(fresh)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class _ReadLog(dict):
    """A column dict that logs the name of every column read from it."""

    def __init__(self, columns):
        super().__init__(columns)
        self.read = set()

    def __getitem__(self, name):
        self.read.add(name)
        return super().__getitem__(name)


def _selections(n):
    rng = np.random.default_rng(5)
    mask = rng.random(n) < 0.4
    return {
        "mask": mask,
        "sorted": np.flatnonzero(mask),
        "unsorted": rng.permutation(n)[: n // 3],
        "repeated": rng.integers(0, n, 2 * n),
        "empty": np.array([], dtype=np.int64),
        "empty_list": [],
        "all_false": np.zeros(n, dtype=bool),
    }


@pytest.mark.parametrize("kind", list(_selections(1)))
@pytest.mark.parametrize("nested", [False, True], ids=["take", "take_of_take"])
def test_take_reads_each_column_as_an_eager_copy_would(kind, nested):
    """A subset's columns, row count and encoding equal the eager copy
    ``{name: arr[idx]}``, whatever the selection; a take of a take indexes
    the base at the composed rows. Each column is indexed once, when first
    read."""
    ds = make_synthetic(opposite_separators_spec(40, noise=0.2), seed=3)
    outer = np.random.default_rng(1).permutation(ds.n)[:50] if nested else None
    parent = ds.take(outer) if nested else ds
    want_parent = {c: a[outer] for c, a in ds.columns.items()} if nested else ds.columns
    idx = _selections(parent.n)[kind]
    sub = parent.take(idx)
    sel = np.asarray(idx) if len(idx) else np.array([], dtype=np.int64)
    want = {c: a[sel] for c, a in want_parent.items()}
    assert sub.n == len(want["label"])
    assert sorted(sub.columns) == sorted(want) and len(sub.columns) == len(want)
    for name, arr in want.items():
        got = sub.columns[name]
        assert got.dtype == arr.dtype and np.array_equal(got, arr), name
        assert sub.columns[name] is got  # kept after the first read
    encoder = FeatureEncoder(ds.schema)
    fresh = Dataset(ds.schema, want)
    assert encoder.encode(sub).tobytes() == encoder.transform(fresh).tobytes()
    assert oracles.dataset_equals(sub, fresh)


def test_take_checks_its_selection_when_taken():
    """A mask of the wrong length or a position out of range raises at
    ``take``, not at the first read of a column."""
    ds = make_synthetic(opposite_separators_spec(5), seed=3)
    sub = ds.take([0, 2, 4])
    for parent in (ds, sub):
        for bad in (np.ones(parent.n + 1, dtype=bool), [parent.n], [-parent.n - 1]):
            with pytest.raises(IndexError):
                parent.take(bad)
    assert sub.take([-1]).columns["x0"].tolist() == ds.columns["x0"][[4]].tolist()


def test_scoring_a_constant_predictor_over_subsets_reads_only_labels():
    """Routing a constant-learner predictor over a subset, and its
    per-example loss and per-group risks there, copy no feature or group
    column: the scores need only the row count, and the loss the labels."""
    ds = make_synthetic(inverted_leaf_spec(n_per_leaf=30, noise=0.1), seed=2)
    log = _ReadLog(ds.columns)
    base = Dataset(ds.schema, log)
    tree = build_hierarchy(ds.schema, ("a1", "a2", "a3"))
    predictor = mgl_tree(PredictorCache(base), tree, LearnerSpec("constant"),
                         EpsilonSpec("constant", value=0.0), ZERO_ONE)
    rows = np.random.default_rng(4).permutation(base.n)[:150]
    sub = base.take(rows)
    tree.row_index(sub)  # routing reads the group columns once per dataset
    log.read.clear()
    scores = predictor.scores(sub)
    loss = ZERO_ONE.per_example(predictor, sub)
    risks = group_risks(predictor, sub, tree, ZERO_ONE)
    assert log.read == {"label"}
    fresh = Dataset(ds.schema, {c: a[rows] for c, a in ds.columns.items()})
    assert scores.tobytes() == predictor.scores(fresh).tobytes()
    assert loss.tobytes() == ZERO_ONE.per_example(predictor, fresh).tobytes()
    assert risks == group_risks(predictor, fresh, tree, ZERO_ONE)


def test_make_synthetic_noise_free_matches_rule():
    ds = two_leaf_constants()
    mask_a = membership_vector(Group.from_conjuncts([("grp", "a")]), ds)
    assert ds.labels()[mask_a].tolist() == [1, 1, 1]
    assert ds.labels()[~mask_a].tolist() == [0]


def test_make_synthetic_noise_frequency():
    spec = opposite_separators_spec(10000, noise=0.1)
    ds = make_synthetic(spec, seed=11)
    X = np.column_stack([ds.numeric("x0"), ds.numeric("x1")])
    flips = 0
    for leaf in spec.leaves:
        g = Group.from_conjuncts(sorted(leaf.attributes.items()))
        mask = membership_vector(g, ds)
        planted = leaf.rule.apply(X[mask])
        flips += int((ds.labels()[mask] != planted).sum())
    assert abs(flips / ds.n - 0.1) < 0.01


def test_make_synthetic_rejects_bad_specs():
    with pytest.raises(ValueError, match="noise"):
        opposite_separators_spec(10, noise=0.5)
    with pytest.raises(ValueError, match="leaf"):
        SyntheticSpec(attributes={"g": ("a",)}, leaves=(), feature_dim=1)
    with pytest.raises(ValueError, match="label"):
        LeafRule("constant", label=7)


def test_opposite_separators_favor_per_leaf_fits():
    """Global linear fit fails where per-leaf linear fits succeed."""
    ds = make_synthetic(opposite_separators_spec(2000), seed=21)
    spec = LearnerSpec("logistic", iterations=800)
    cache = PredictorCache(ds)
    tree = build_hierarchy(ds.schema, ["grp"])
    global_fit = cache.erm(spec)
    for cat in ("a", "b"):
        g = Group.from_conjuncts([("grp", cat)])
        mask = membership_vector(g, ds)
        local_fit = cache.group_erm(spec, tree, g)
        y = ds.labels()[mask]
        global_err = float((global_fit.predict(ds)[mask] != y).mean())
        local_err = float((local_fit.predict(ds)[mask] != y).mean())
        assert global_err > 0.25
        assert local_err < 0.05


def test_make_synthetic_zero_noise_matches_planted_rule_exactly():
    spec = opposite_separators_spec(500, noise=0.0)
    ds = make_synthetic(spec, seed=19)
    X = np.column_stack([ds.numeric("x0"), ds.numeric("x1")])
    for leaf in spec.leaves:
        g = Group.from_conjuncts(sorted(leaf.attributes.items()))
        mask = membership_vector(g, ds)
        assert np.array_equal(ds.labels()[mask], leaf.rule.apply(X[mask]))


def test_load_csv_short_row_names_row(tmp_path):
    p = tmp_path / "d.csv"
    p.write_text("race,sex,label\nR1,M,1\nR1,F\n")
    with pytest.raises(DataError, match="row 2"):
        load_csv(p, small_schema())


@pytest.mark.parametrize("text, row", [
    ("R1,0.5,1\nR1,nan,0\n", 2), ("R1,-inf,1\n", 1), ("\nR1,0.5,1\n\n\nR2,inf,0\n", 5),
], ids=["nan", "minus_inf", "after_blank_lines"])
def test_load_csv_non_finite_numeric_names_row(tmp_path, text, row):
    schema = AttributeSchema(
        columns=(Column("race", "categorical"), Column("x", "numeric"),
                 Column("label", "binary-label")),
        label_column="label",
        group_attributes=("race",),
    )
    p = tmp_path / "d.csv"
    p.write_text("race,x,label\n" + text)
    with pytest.raises(DataError, match=f"non-finite value .* in column 'x' at data row {row}$"):
        load_csv(p, schema)


@pytest.mark.parametrize("labels", [[0, 2], [0.5, 1.0], [1.0, np.nan], [-1, 0]],
                         ids=["two", "half", "nan", "minus_one"])
def test_dataset_rejects_labels_other_than_zero_and_one(labels):
    ds = two_leaf_constants()
    columns = {name: arr[:2] for name, arr in ds.columns.items()}
    columns["label"] = np.asarray(labels)
    with pytest.raises(DataError, match="exactly 0 or 1"):
        Dataset(ds.schema, columns)
    for good in ([0, 1], [1.0, 0.0], [True, False]):
        columns["label"] = np.asarray(good)
        assert Dataset(ds.schema, columns).n == 2


@pytest.mark.parametrize("value", [3, 3.0, 1e3, -2.0])
def test_json_int_accepts_integral_numbers(value):
    got = json_int(value, "count")
    assert got == value and type(got) is int


# ---------------------------------------------------------------------------
# The block-wise loader against the row-by-row oracle
# ---------------------------------------------------------------------------

_EDGE_BINS = (Bin("lo", 0.0), Bin("mid", 1.5), Bin("hi"))
# cells a column of each kind usually holds, and cells any column may hold
_USUAL = {
    "g": ["a", "b", "c", "x,y"],
    "h": ["-1", "0", "-0", "1.5", "1e3", "inf", "-inf"],
    "x": ["0.25", "-3", "1e-3", " 2", "7_0"],
    "y": ["0", "1", "1.0", " 1", "-0", "0e0"],
}
_ODD = ["", "2", "abc", 'q"t', "two\nlines", "1\r\n2", "a", "0.5"]
_NON_FINITE = ["nan", "NaN", "inf", "-inf", "1e400"]


@st.composite
def csv_cases(draw):
    """A schema and CSV text: quoted cells with commas, quotes and line
    breaks, either line end, blank lines, short rows, extra and reordered
    columns, binned columns, odd labels, declared and inferred categories
    and non-finite numbers."""
    binned = draw(st.booleans())
    categories = {}
    if draw(st.booleans()):
        categories["g"] = draw(st.sampled_from([("a", "b"), ("b", "a", "c", "x,y")]))
    if binned:
        h_cats = draw(st.sampled_from([None, ("lo", "mid", "hi"), ("hi", "lo")]))
        if h_cats:
            categories["h"] = h_cats
    elif draw(st.booleans()):
        categories["h"] = ("0", "-1")
    schema = AttributeSchema(
        columns=(Column("g", "categorical"), Column("h", "categorical"),
                 Column("x", "numeric"), Column("y", "binary-label")),
        label_column="y",
        categories=categories,
        bins={"h": _EDGE_BINS} if binned else {},
    )
    header = draw(st.permutations(["g", "h", "x", "y", "junk"]))
    if draw(st.integers(0, 19)) == 0:
        header = header[:-1]  # may drop a needed column
    cell = {}
    for name in header:  # some columns also hold odd or non-finite cells
        usual = st.sampled_from(_USUAL.get(name, ["z"]))
        odd = st.one_of(usual, st.sampled_from(_ODD))
        non_finite = st.one_of(usual, st.sampled_from(_NON_FINITE))
        modes = [usual, non_finite, non_finite, odd] if name == "x" else \
            [usual, usual, usual, odd, non_finite]
        cell[name] = draw(st.sampled_from(modes))
    record = st.tuples(*(cell[name] for name in header)).map(list)

    def shaped(kind, cells):
        # mostly full records, some short ones, some blank lines, and some
        # records bad in every column, whose first bad cell is in schema order
        return {0: cells[:-1], 1: [], 2: ["abc"] * len(cells)}.get(kind, cells)

    row = st.tuples(st.integers(0, 11), record).map(lambda kr: shaped(*kr))
    rows = draw(st.lists(row, min_size=int(draw(st.integers(0, 9)) > 0), max_size=14))
    rows = [[]] * draw(st.integers(0, 2)) + rows  # blank lines shift every later row number
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n"])))
    writer.writerow(header)
    writer.writerows(rows)
    return schema, buf.getvalue()


def _load_outcome(load, path, schema):
    try:
        return load(path, schema), None
    except (DataError, SchemaError) as exc:
        return None, (type(exc), str(exc))


def _assert_same_load(path, schema):
    got, got_error = _load_outcome(load_csv, path, schema)
    want, want_error = _load_outcome(oracles.load_csv, path, schema)
    assert got_error == want_error
    if want is not None:
        assert oracles.dataset_equals(got, want) and got.schema == want.schema
        assert all(got.columns[c].dtype == want.columns[c].dtype for c in want.columns)


@settings(max_examples=300, deadline=None)
@given(case=csv_cases(), block_rows=st.integers(1, 4))
def test_load_csv_matches_row_by_row_oracle(tmp_path_factory, case, block_rows):
    """Every file loads to the oracle's dataset and schema, or raises the
    oracle's error; small blocks put blank lines, short rows and errors on
    both sides of block boundaries."""
    schema, text = case
    path = tmp_path_factory.getbasetemp() / "oracle_case.csv"
    path.write_text(text, encoding="utf-8", newline="")
    with mock.patch.object(data, "_BLOCK_ROWS", block_rows):
        _assert_same_load(path, schema)


def test_later_parse_error_wins_over_earlier_category_error(tmp_path):
    """An undeclared category in the first block and a bad number three
    blocks later: reading row by row meets the bad number first, because
    categories are checked after every row is read."""
    schema = AttributeSchema(
        columns=(Column("g", "categorical"), Column("x", "numeric"),
                 Column("y", "binary-label")),
        label_column="y",
        categories={"g": ("a", "b")},
    )
    rows = [["a", "0.5", "1"]] * 3500
    rows[7] = ["zz", "0.5", "1"]
    p = tmp_path / "d.csv"
    for bad_row, message in ((3204, "non-numeric value 'oops' in column 'x' at data row 3205"),
                             (None, "value 'zz' not among declared categories of column 'g'")):
        body = [list(r) for r in rows]
        if bad_row is not None:
            body[bad_row][1] = "oops"
        text = io.StringIO()
        csv.writer(text, lineterminator="\n").writerows([["g", "x", "y"], *body, [], []])
        p.write_text(text.getvalue())
        with pytest.raises(DataError) as exc:
            load_csv(p, schema)
        assert str(exc.value) == message
        _assert_same_load(p, schema)


@pytest.mark.parametrize("label", ["2", "1"], ids=["bad_label_first", "reader_error"])
def test_reader_error_comes_after_the_rows_before_it(tmp_path, label):
    """csv's own errors, such as a field over its size limit, are raised
    where a row-by-row read meets them, after a bad row earlier in the same
    block, as a DataError naming the file and the data row."""
    p = tmp_path / "d.csv"
    p.write_text(f"race,sex,label\nR1,M,1\nR1,F,{label}\nR2,{'M' * 200_000},1\nR2,F,0\n")
    _assert_same_load(p, small_schema())
    with pytest.raises(DataError) as exc:
        load_csv(p, small_schema())
    assert str(exc.value) == ("label must be 0 or 1 at data row 2, got '2'" if label == "2" else
                              f"cannot read data row 3 of {p}: field larger than field limit "
                              "(131072)")


_HEADER = b"race,sex,label\n"
_BAD = b"\xff\xfeR2,F,0\n"
CODEC = "'utf-8' codec can't decode byte 0xff in position {offset}:"


@pytest.mark.parametrize("head, error, message", [
    (b"", DataError, "cannot read the header of {p}: " + CODEC),
    (_HEADER + b"R1,M,1\n", DataError, "cannot read data row 2 of {p}: " + CODEC),
    (_HEADER + b"R1,M,1\n" * 3000, DataError, "cannot read data row 3001 of {p}: " + CODEC),
    (_HEADER + b"R1,M,1\n" * 2500 + b'"R1\nR2",', DataError,
     "cannot read data row 2501 of {p}: " + CODEC),
    (_HEADER + b"R1,M,1\n" * 2500 + b"R1,M," + b"1" * 200_000 + b"\n", DataError,
     "cannot read data row 2501 of {p}: field larger than field limit"),
    (_HEADER + b"R1,M,1\n" * 2998 + b"R1,M\nR1,M,1\n", DataError,
     "data row 2999 has 2 fields, expected 3"),
    (b"race,label\nR1,1\n", SchemaError, "missing column 'sex' in {p}"),
], ids=["header", "second_row", "data_row", "quoted_field", "csv_error_first",
        "short_row_first", "missing_column_first"])
def test_undecodable_byte_is_a_data_error(tmp_path, head, error, message):
    """A byte that is not UTF-8 (here the UTF-16 byte-order mark ff fe) is a
    DataError naming the file, the header or data row that holds it, and the
    byte's offset in the file. Text is decoded ahead of the reader in
    chunks, so the row being read when the decoder met the byte can be an
    earlier one, or the header of a short file. Every error a row-by-row
    read meets before the byte comes first: a record csv cannot read, a
    short row in the chunk that failed to decode, or a header that lacks a
    schema column (a SchemaError)."""
    p = tmp_path / "d.csv"
    p.write_bytes(head + _BAD)
    _assert_same_load(p, small_schema())
    with pytest.raises(error) as exc:
        load_csv(p, small_schema())
    assert type(exc.value) is error
    assert str(exc.value).startswith(message.format(p=p, offset=len(head)))


def test_load_csv_peak_memory_is_at_most_half_the_oracles(tmp_path):
    """Reading in blocks holds no whole-file lists of cells."""
    ds = make_synthetic(opposite_separators_spec(6500, noise=0.1), seed=4)
    assert ds.n >= 12000
    p = tmp_path / "d.csv"
    write_csv(ds, p)
    peaks = []
    for load in (load_csv, oracles.load_csv):
        tracemalloc.start()
        try:
            assert oracles.dataset_equals(load(p, ds.schema), ds)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 0.5 * peaks[1], peaks



# Texts that csv quotes, or that a hand-made quoting would get wrong.
AWKWARD_TEXTS = ("plain", "a,b", 'say "hi"', "cr\rhere", "nl\nhere", "\r\n", " lead",
                 "naïve ✓ 中", "", '"', ",")
FINITE_CELLS = (-0.0, 5e-324, 2.2250738585072014e-309, 1e308, -1e308, 0.1, 1.0, -123.25)
NON_FINITE_CELLS = (float("nan"), float("inf"), float("-inf"))


def awkward_dataset(n: int, numbers=FINITE_CELLS) -> Dataset:
    """n rows whose names, categories and numbers csv has to quote or spell out."""
    schema = AttributeSchema(
        columns=(Column('grp, "x"', "categorical"), Column(" x\r\n", "numeric"),
                 Column("", "categorical"), Column("naïve", "binary-label")),
        label_column="naïve",
        group_attributes=('grp, "x"', ""),
        categories={'grp, "x"': AWKWARD_TEXTS, "": ("", "b")},
    )
    rows = np.arange(n)
    return Dataset(schema, {
        'grp, "x"': (rows % len(AWKWARD_TEXTS)).astype(np.int32),
        " x\r\n": np.array(numbers, dtype=np.float64)[rows % len(numbers)],
        "": (rows % 2 == 0).astype(np.int32),
        "naïve": (rows // 3 % 2).astype(np.int64),
    })


def label_only_dataset(name: str, n: int) -> Dataset:
    schema = AttributeSchema(columns=(Column(name, "binary-label"),), label_column=name)
    return Dataset(schema, {name: (np.arange(n) % 3 == 0).astype(np.int64)})


def assert_writes_oracle_bytes(ds: Dataset, tmp_path) -> None:
    write_csv(ds, tmp_path / "got.csv")
    oracles.write_csv(ds, tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    numbers = [ds.columns[c.name] for c in ds.schema.columns if c.kind == "numeric"]
    if ds.n and all(np.isfinite(x).all() for x in numbers):  # what load_csv reads back
        again = load_csv(tmp_path / "got.csv", ds.schema)
        assert oracles.dataset_equals(again, ds) and again.schema == ds.schema


@pytest.mark.parametrize("n", [0, 1, 1023, 1024, 1025, 2048, 2049])
@pytest.mark.parametrize("numbers", [FINITE_CELLS, FINITE_CELLS + NON_FINITE_CELLS],
                         ids=["finite", "non_finite"])
def test_write_csv_matches_row_by_row_oracle(tmp_path, n, numbers):
    assert_writes_oracle_bytes(awkward_dataset(n, numbers), tmp_path)


@pytest.mark.parametrize("name", ["label", "", '"', "a,b", "nl\nhere"])
@pytest.mark.parametrize("n", [0, 1, 1025])
def test_write_csv_matches_oracle_on_a_label_only_schema(tmp_path, name, n):
    assert_writes_oracle_bytes(label_only_dataset(name, n), tmp_path)


def test_write_csv_of_a_subset_matches_oracle(tmp_path):
    ds = awkward_dataset(3000)
    assert_writes_oracle_bytes(ds.take(np.arange(2999, 0, -2)), tmp_path)


@settings(max_examples=60, deadline=None)
@given(cats=st.lists(st.text(max_size=6), min_size=1, max_size=5, unique=True),
       numbers=st.lists(st.floats(), min_size=1, max_size=9),
       n=st.integers(0, 40))
def test_write_csv_matches_oracle_on_drawn_text_and_numbers(tmp_path_factory, cats, numbers,
                                                           n):
    schema = AttributeSchema(
        columns=(Column("g", "categorical"), Column("x", "numeric"),
                 Column("label", "binary-label")),
        label_column="label", group_attributes=("g",), categories={"g": tuple(cats)},
    )
    rows = np.arange(n)
    ds = Dataset(schema, {"g": (rows % len(cats)).astype(np.int32),
                          "x": np.array(numbers)[rows % len(numbers)],
                          "label": rows % 2})
    assert_writes_oracle_bytes(ds, tmp_path_factory.mktemp("csv"))


def test_write_csv_peak_memory_is_flat_in_the_row_count(tmp_path, monkeypatch):
    """Blocks of rows are converted and written in turn: no whole-column
    lists of cells are held, as the row-by-row oracle holds them."""
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).parents[1] / "bench"))
    import workloads

    ds = make_synthetic(workloads.WORKLOADS["deep_constant"].spec(), 1)
    assert ds.n == 49994
    tracemalloc.start()
    try:
        write_csv(ds, tmp_path / "d.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20, peak


def synthetic_leaf_spec(draw_counts, n_attributes: int, rng) -> SyntheticSpec:
    attributes = {f"a{k}": tuple(f"c{k}{j}" for j in range(3)) for k in range(n_attributes)}
    leaves = []
    for i, count in enumerate(draw_counts):
        rule = LeafRule("constant", label=i % 2) if i % 3 else \
            LeafRule("linear", weights=(1.0, -0.5), bias=0.25)
        # the leaf's attributes in reverse order, so that the column order
        # cannot come from the leaves
        chosen = {a: cats[int(rng.integers(len(cats)))]
                  for a, cats in reversed(attributes.items())}
        leaves.append(SyntheticLeaf(chosen, rule, count))
    return SyntheticSpec(attributes=attributes, leaves=tuple(leaves), feature_dim=2,
                         noise=0.2)


@pytest.mark.parametrize("counts", [[5], [0], [0, 7, 0, 3], [4, 0, 0], [1] * 30,
                                    [200, 0, 13, 1, 0, 64]])
@pytest.mark.parametrize("n_attributes", [1, 2, 3])
@pytest.mark.parametrize("seed", [0, 1, 2 ** 64 + 5])
def test_make_synthetic_matches_per_leaf_oracle(counts, n_attributes, seed):
    spec = synthetic_leaf_spec(counts, n_attributes, np.random.default_rng(len(counts)))
    got, want = make_synthetic(spec, seed), oracles.make_synthetic(spec, seed)
    assert got.schema == want.schema
    assert list(got.columns) == list(want.columns)
    for name in want.columns:
        assert got.columns[name].dtype == want.columns[name].dtype, name
        assert got.columns[name].tobytes() == want.columns[name].tobytes(), name
