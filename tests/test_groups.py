import itertools

import numpy as np
import pytest

from multigroup.data import AttributeSchema, Column, SchemaError
from multigroup.groups import (
    Group,
    GroupTree,
    HierarchyError,
    ROOT_ID,
    build_hierarchy,
    hierarchy_from_json,
    hierarchy_to_json,
    membership_vector,
    validate_hierarchical,
)

import oracles
from oracles import children, contains_row, dataset_from_values, deepest_containing
from synthcases import two_leaf_constants


def census_like_schema(edu=False):
    race = tuple(f"R{i}" for i in range(1, 7))
    cols = [Column("race", "categorical"), Column("sex", "categorical")]
    cats = {"race": race, "sex": ("M", "F")}
    if edu:
        cols.append(Column("edu", "categorical"))
        cats["edu"] = ("HS-", "HS", "COL", "COL+")
    else:
        cols.append(Column("age", "categorical"))
        cats["age"] = ("Ya", "Ma", "Oa")
    cols.append(Column("label", "binary-label"))
    return AttributeSchema(
        columns=tuple(cols),
        label_column="label",
        group_attributes=tuple(c.name for c in cols[:-1]),
        categories=cats,
    )


def product_dataset(schema):
    """Every category combination once; exhaustive witness set for pair checks."""
    attrs = [c.name for c in schema.columns if c.kind == "categorical"]
    combos = list(itertools.product(*(schema.categories[a] for a in attrs)))
    values = {a: [c[i] for c in combos] for i, a in enumerate(attrs)}
    values["label"] = [0] * len(combos)
    return dataset_from_values(schema, values)


def test_hierarchy_node_counts_race_sex_age():
    tree = build_hierarchy(census_like_schema(), ["race", "sex", "age"])
    assert len(tree) - 1 == 54  # 6 + 12 + 36
    by_depth = {}
    for g in tree.nodes:
        by_depth.setdefault(tree.depth(g.id), []).append(g)
    assert [len(by_depth[d]) for d in (1, 2, 3)] == [6, 12, 36]


def test_hierarchy_node_counts_race_sex_edu():
    tree = build_hierarchy(census_like_schema(edu=True), ["race", "sex", "edu"])
    assert len(tree) - 1 == 66  # 6 + 12 + 48


def test_single_category_attribute():
    schema = AttributeSchema(
        columns=(Column("g", "categorical"), Column("label", "binary-label")),
        label_column="label",
        group_attributes=("g",),
        categories={"g": ("only",)},
    )
    tree = build_hierarchy(schema, ["g"])
    assert [g.id for g in tree.nodes] == ["ALL", "g=only"]


def test_build_hierarchy_unknown_attribute():
    with pytest.raises(Exception, match="unknown column"):
        build_hierarchy(census_like_schema(), ["race", "nope"])


def test_validate_nested_groups_valid():
    groups = [
        Group("ALL", ()),
        Group.from_conjuncts([("grp", "a")]),
        Group.from_conjuncts([("grp", "b")]),
    ]
    assert validate_hierarchical(groups).valid


def test_validate_crossing_predicates_invalid():
    groups = [Group.from_conjuncts([("race", "R1")]), Group.from_conjuncts([("sex", "F")])]
    verdict = validate_hierarchical(groups)
    assert not verdict.valid
    assert verdict.violations[0][:2] == ("race=R1", "sex=F")


def test_validate_product_hierarchy_exhaustive_oracle():
    """Pairwise disjoint-or-nested, witnessed on the full category product."""
    schema = census_like_schema()
    tree = build_hierarchy(schema, ["race", "sex", "age"])
    assert validate_hierarchical(tree.nodes).valid
    ds = product_dataset(schema)
    masks = {g.id: membership_vector(g, ds) for g in tree.nodes}
    for a, b in itertools.combinations(tree.nodes, 2):
        ma, mb = masks[a.id], masks[b.id]
        ok = not (ma & mb).any() or (ma <= mb).all() or (mb <= ma).all()
        assert ok, (a.id, b.id)


def test_membership_vector_basics():
    ds = two_leaf_constants()
    assert membership_vector(Group("ALL", ()), ds).all()
    mask = membership_vector(Group.from_conjuncts([("grp", "b")]), ds)
    assert mask.sum() == 1
    with pytest.raises(Exception, match="unknown column"):
        membership_vector(Group.from_conjuncts([("zzz", "a")]), ds)


def test_deepest_containing_full_tree_hits_leaves():
    schema = census_like_schema()
    tree = build_hierarchy(schema, ["race", "sex", "age"])
    leaves = {g.id for g in tree.leaves()}
    ds = product_dataset(schema)
    for i in range(ds.n):
        assert deepest_containing(tree, oracles.row(ds, i)).id in leaves


def test_deepest_containing_pruned_tree_stops_at_parent():
    schema = census_like_schema()
    full = build_hierarchy(schema, ["race", "sex"])
    kept = [g for g in full.nodes if g.id != "race=R2&sex=M"]
    tree = GroupTree(kept)
    row = {"race": "R2", "sex": "M", "age": "Ya", "label": 0}
    assert deepest_containing(tree, row).id == "race=R2"


def test_deepest_containing_matches_linear_scan():
    rng = np.random.default_rng(4)
    schema = census_like_schema()
    for tree in random_pruned_trees(rng, 20):
        for _ in range(50):
            row = {
                "race": rng.choice(schema.categories["race"]),
                "sex": rng.choice(schema.categories["sex"]),
                "age": rng.choice(schema.categories["age"]),
            }
            got = deepest_containing(tree, row)
            containing = [g for g in tree.nodes if contains_row(g, row)]
            best = max(containing, key=lambda g: tree.depth(g.id))
            assert sum(1 for g in containing
                       if tree.depth(g.id) == tree.depth(best.id)) == 1
            assert got.id == best.id


def test_route_matches_descent():
    schema = census_like_schema()
    tree = build_hierarchy(schema, ["race", "sex"])
    ds = product_dataset(schema)
    assign = tree.route(ds)
    for i in range(ds.n):
        assert tree.nodes[assign[i]].id == deepest_containing(tree, oracles.row(ds, i)).id


def test_bfs_order_parents_first_and_sorted():
    tree = build_hierarchy(census_like_schema(), ["race", "sex", "age"])
    for g in tree.nodes:
        if not g.is_root:
            assert tree.index(tree.parent(g.id).id) < tree.index(g.id)
    again = build_hierarchy(census_like_schema(), ["race", "sex", "age"])
    assert [g.id for g in tree.nodes] == [g.id for g in again.nodes]
    for g in tree.nodes:
        kids = [k.id for k in children(tree, g.id)]
        assert kids == sorted(kids)


def test_same_depth_masks_partition_parent():
    schema = census_like_schema()
    tree = build_hierarchy(schema, ["race", "sex", "age"])
    ds = product_dataset(schema)
    for g in tree.nodes:
        kids = children(tree, g.id)
        if not kids:
            continue
        parent_mask = membership_vector(g, ds)
        union = np.zeros(ds.n, dtype=bool)
        for a, b in itertools.combinations(kids, 2):
            assert not (membership_vector(a, ds) & membership_vector(b, ds)).any()
        for k in kids:
            union |= membership_vector(k, ds)
        assert np.array_equal(union, parent_mask)


def random_pruned_trees(rng, count):
    """Random subtrees of the race x sex x age product hierarchy."""
    full = build_hierarchy(census_like_schema(), ["race", "sex", "age"])
    for _ in range(count):
        keep = [g for g in full.nodes
                if g.is_root or rng.random() < 0.7]
        # keep only nodes whose ancestors survived, so parent links exist
        ids = {g.id for g in keep}
        yield GroupTree([g for g in keep
                         if all(anc.id in ids for anc in full.ancestors(g.id))])


def random_census_dataset(rng, n):
    schema = census_like_schema()
    values = {a: list(rng.choice(schema.categories[a], size=n)) for a in ("race", "sex", "age")}
    values["label"] = [0] * n
    return dataset_from_values(schema, values)


def test_rows_match_mask_oracle():
    ds = two_leaf_constants()
    tree = build_hierarchy(ds.schema, ["grp"])
    counts = {g.id: len(r) for g, r in zip(tree.nodes, tree.rows(ds))}
    assert counts["ALL"] == ds.n
    assert counts["grp=a"] + counts["grp=b"] == ds.n
    assert counts["grp=b"] == 1

    rng = np.random.default_rng(11)
    for tree in random_pruned_trees(rng, 20):
        for n in (0, 1, 300):
            ds = random_census_dataset(rng, n)
            rows, masks = tree.rows(ds), tree.masks(ds)
            assert len(rows) == len(masks) == len(tree)
            losses = rng.random(n)
            for r, mask in zip(rows, masks):
                assert r.dtype == np.flatnonzero(mask).dtype
                assert np.array_equal(r, np.flatnonzero(mask))
                # the same rows in the same order give the same bits
                assert losses[r].sum() == losses[mask].sum()
            routed = np.zeros(n, dtype=np.int64)
            for i, mask in enumerate(masks):
                routed[mask] = i
            assert np.array_equal(tree.route(ds), routed)


@pytest.mark.parametrize("bad", [("sex", "R1"), ("label", "1"), ("nope", "x")])
@pytest.mark.parametrize("n", [0, 5])
def test_rows_schema_error_matches_membership_vector(bad, n):
    ds = random_census_dataset(np.random.default_rng(2), n)
    tree = GroupTree([Group("ALL", ()), Group.from_conjuncts([("race", "R1")]),
                      Group.from_conjuncts([("race", "R1"), bad]),
                      Group.from_conjuncts([("race", "R1"), bad, ("age", "Ya")])])
    with pytest.raises(SchemaError) as from_masks:
        tree.masks(ds)
    with pytest.raises(SchemaError) as from_rows:
        tree.rows(ds)
    assert str(from_rows.value) == str(from_masks.value)


def test_group_tree_rejects_orphans_and_duplicates():
    with pytest.raises(ValueError, match="no parent"):
        GroupTree([Group("ALL", ()), Group.from_conjuncts([("a", "x"), ("b", "y")])])
    with pytest.raises(ValueError, match="duplicate"):
        GroupTree([Group("ALL", ()), Group("dup", (("a", "x"),)), Group("dup", (("a", "y"),))])


def test_hierarchy_json_round_trip():
    schema = census_like_schema()
    tree = build_hierarchy(schema, ["race", "sex"])
    doc = hierarchy_to_json(tree)
    rebuilt = hierarchy_from_json(doc)
    assert [g.id for g in rebuilt.nodes] == [g.id for g in tree.nodes]


def test_validate_flags_identical_predicates():
    groups = [Group("first", (("a", "x"),)), Group("second", (("a", "x"),))]
    verdict = validate_hierarchical(groups)
    assert not verdict.valid
    assert verdict.violations[0][2] == "identical predicates"


def random_node_list(rng):
    """Root plus 1-7 nodes, each one conjunct beyond an earlier node on an
    attribute that node does not test; duplicates and crossings happen."""
    categories = {"a": ("1", "2", "3"), "b": ("1", "2"), "c": ("1", "2"), "d": ("1", "2")}
    nodes = [Group(ROOT_ID, ())]
    for _ in range(int(rng.integers(1, 8))):
        base = nodes[int(rng.integers(len(nodes)))]
        free = [a for a in categories if a not in dict(base.conjuncts)]
        if not free:
            continue
        attr = free[int(rng.integers(len(free)))]
        cat = categories[attr][int(rng.integers(len(categories[attr])))]
        nodes.append(Group.from_conjuncts(base.conjuncts + ((attr, cat),)))
    return nodes


def test_group_tree_agrees_with_pairwise_oracle():
    rng = np.random.default_rng(5)
    outcomes = {True: 0, False: 0}
    for _ in range(10_000):
        nodes = random_node_list(rng)
        verdict = validate_hierarchical(nodes)
        try:
            GroupTree(nodes)
            built = True
        except HierarchyError as exc:
            built = False
            a, b, reason = exc.violation
            assert {(a, b, reason), (b, a, reason)} & set(verdict.violations)
        except ValueError:  # duplicate, identical or ambiguously-parented groups
            built = False
        assert built == verdict.valid, [g.id for g in nodes]
        outcomes[built] += 1
    assert min(outcomes.values()) > 2_000, outcomes


@pytest.mark.parametrize("conjuncts, message", [
    ([[("a1", "p")], [("a2", "u")]], "(a1=p, a2=u): overlap without containment"),
    ([[("a", "1")], [("a", "1"), ("c", "1")], [("a", "1"), ("b", "2")],
      [("a", "1"), ("b", "1")], [("a", "1"), ("c", "2")]],
     "(a=1&b=1, a=1&c=1): overlap without containment"),
    ([[("a", "1")], [("a", "1"), ("a", "2")]], "(a=1, a=1&a=2): child re-tests 'a'"),
], ids=["crossing_siblings", "first_crossing_pair", "attribute_tested_twice"])
def test_group_tree_rejects_non_hierarchy(conjuncts, message):
    nodes = [Group(ROOT_ID, ())] + [Group.from_conjuncts(c) for c in conjuncts]
    with pytest.raises(HierarchyError) as raised:
        GroupTree(nodes)
    assert isinstance(raised.value, ValueError)
    assert str(raised.value) == f"invalid hierarchy: {message}"
