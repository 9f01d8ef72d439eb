import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multigroup.data import (
    AttributeSchema,
    Bin,
    Column,
    DataError,
    Dataset,
    LeafRule,
    SchemaError,
    SplitSpec,
    SyntheticSpec,
    json_int,
    load_csv,
    make_synthetic,
    schema_from_json,
    split,
    write_csv,
)
from multigroup.groups import Group, membership_vector
from multigroup.learners import LearnerSpec, PredictorCache

from synthcases import opposite_separators_spec, two_leaf_constants


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
    got = [ds.value("age", i) for i in range(ds.n)]
    assert got == ["Ya", "Ma", "Ma", "Oa", "Oa"]


def test_csv_round_trip(tmp_path):
    ds = two_leaf_constants()
    p = tmp_path / "rt.csv"
    write_csv(ds, p)
    again = load_csv(p, ds.schema)
    assert again.equals(ds)
    # and a second cycle through the loader-inferred schema
    p2 = tmp_path / "rt2.csv"
    write_csv(again, p2)
    assert load_csv(p2, again.schema).equals(again)


def test_schema_from_json_rejects_unknown_keys():
    with pytest.raises(SchemaError, match="unknown"):
        schema_from_json({"columns": [], "label": "y", "extra": 1})


def test_split_sizes_and_partition():
    ds = make_synthetic(opposite_separators_spec(5), seed=3)
    train, test = split(ds, SplitSpec(0.2, seed=1, trial_index=0))
    assert test.n == 2 and train.n == 8
    merged = sorted(
        [tuple(train.row(i).items()) for i in range(train.n)]
        + [tuple(test.row(i).items()) for i in range(test.n)]
    )
    original = sorted(tuple(ds.row(i).items()) for i in range(ds.n))
    assert merged == original


def test_split_deterministic():
    ds = make_synthetic(opposite_separators_spec(50), seed=3)
    a = split(ds, SplitSpec(0.2, seed=9, trial_index=4))
    b = split(ds, SplitSpec(0.2, seed=9, trial_index=4))
    assert a[0].equals(b[0]) and a[1].equals(b[1])


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
    global_fit = cache.erm(spec)
    for cat in ("a", "b"):
        g = Group.from_conjuncts([("grp", cat)])
        mask = membership_vector(g, ds)
        local_fit = cache.group_erm(spec, g)
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
