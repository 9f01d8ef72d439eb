"""Group predicates and hierarchies over categorical attributes.

A Group is a conjunction of (attribute, category) equality tests; the empty
conjunction is the whole input space. A GroupTree arranges groups so that
every child refines its parent by exactly one conjunct, which makes routing
an example to its deepest containing node a root-to-leaf descent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .data import CATEGORICAL, AttributeSchema, Dataset, SchemaError

ROOT_ID = "ALL"


def conjuncts_to_id(conjuncts: Sequence[tuple[str, str]]) -> str:
    if not conjuncts:
        return ROOT_ID
    return "&".join(f"{attr}={cat}" for attr, cat in conjuncts)


@dataclass(frozen=True)
class Group:
    """Conjunction of attribute=category tests; empty conjunction = everything."""

    id: str
    conjuncts: tuple[tuple[str, str], ...] = ()

    @staticmethod
    def from_conjuncts(conjuncts: Sequence[tuple[str, str]]) -> "Group":
        conj = tuple((str(a), str(c)) for a, c in conjuncts)
        return Group(conjuncts_to_id(conj), conj)

    @property
    def is_root(self) -> bool:
        return not self.conjuncts


def _conjunct_code(g: Group, attr: str, cat: str, ds: Dataset) -> int:
    """Category code that g's conjunct attr=cat tests; SchemaError if invalid."""
    if ds.schema.column(attr).kind != CATEGORICAL:
        raise SchemaError(f"group {g.id!r} tests non-categorical attribute {attr!r}")
    cats = ds.schema.categories.get(attr, ())
    if cat not in cats:
        raise SchemaError(f"group {g.id!r} tests unknown category {cat!r} of {attr!r}")
    return cats.index(cat)


def membership_vector(g: Group, ds: Dataset) -> np.ndarray:
    """Boolean mask of length ds.n; mask[i] is True iff row i is in g."""
    mask = np.ones(ds.n, dtype=bool)
    for attr, cat in g.conjuncts:
        code = _conjunct_code(g, attr, cat, ds)
        mask &= ds.codes(attr) == code
    return mask


class HierarchyError(ValueError):
    """A pair of groups that keeps a GroupTree from being a hierarchy."""

    def __init__(self, a: str, b: str, reason: str):
        super().__init__(f"invalid hierarchy: ({a}, {b}): {reason}")
        self.violation = (a, b, reason)


class GroupTree:
    """Rooted tree of groups; each child extends its parent by one conjunct.

    Construction wires parent links and a deterministic breadth-first order
    (siblings sorted by id), and raises HierarchyError unless all children
    of a node refine one attribute that the node does not test. Siblings are
    then disjoint, so any two nodes are disjoint or nested.
    """

    def __init__(self, nodes: Iterable[Group]):
        node_list = list(nodes)
        ids = [g.id for g in node_list]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise ValueError(f"duplicate group ids: {dup}")
        if not any(g.is_root for g in node_list):
            node_list.insert(0, Group(ROOT_ID, ()))
        by_set = {frozenset(g.conjuncts): g for g in node_list}
        if len(by_set) != len(node_list):
            raise ValueError("two groups share the same conjunct set")

        self._parent: dict[str, str] = {}
        self._added: dict[str, tuple[str, str]] = {}  # the conjunct a child adds
        children: dict[str, list[str]] = {g.id: [] for g in node_list}
        for g in node_list:
            if g.is_root:
                continue
            conj = frozenset(g.conjuncts)
            candidates = []
            for drop in conj:
                parent = by_set.get(conj - {drop})
                if parent is not None:
                    candidates.append((parent, drop))
            if not candidates:
                raise ValueError(
                    f"group {g.id!r} has no parent extending it by one conjunct"
                )
            if len(candidates) > 1:
                names = sorted(p.id for p, _ in candidates)
                raise ValueError(f"group {g.id!r} has ambiguous parents {names}")
            parent, self._added[g.id] = candidates[0]
            self._parent[g.id] = parent.id
            children[parent.id].append(g.id)

        by_id = {g.id: g for g in node_list}
        self._children = {pid: tuple(sorted(kids)) for pid, kids in children.items()}
        root = next(g for g in node_list if g.is_root)

        # every parent has one conjunct fewer than its child, so all nodes
        # are reached; the list grows while it is read, breadth-first
        order: list[Group] = [root]
        for node in order:
            kids = self._children[node.id]
            for kid in kids:
                attr = self._added[kid][0]
                if attr in dict(node.conjuncts):
                    raise HierarchyError(node.id, kid, f"child re-tests {attr!r}")
                if attr != self._added[kids[0]][0]:
                    raise HierarchyError(kids[0], kid, "overlap without containment")
                order.append(by_id[kid])

        self.root = root
        self.nodes: tuple[Group, ...] = tuple(order)  # breadth-first order
        self._by_id = by_id
        self._index = {g.id: i for i, g in enumerate(order)}

    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, group_id: str) -> Group:
        return self._by_id[group_id]

    def parent(self, group_id: str) -> Group | None:
        pid = self._parent.get(group_id)
        return self._by_id[pid] if pid is not None else None

    def depth(self, group_id: str) -> int:
        """Each child adds one conjunct its parent lacks, so depth is their count."""
        return len(frozenset(self._by_id[group_id].conjuncts))

    def index(self, group_id: str) -> int:
        return self._index[group_id]

    def leaves(self) -> tuple[Group, ...]:
        return tuple(g for g in self.nodes if not self._children[g.id])

    def ancestors(self, group_id: str) -> list[Group]:
        """Path from the node's parent up to the root."""
        out = []
        current = self._parent.get(group_id)
        while current is not None:
            out.append(self._by_id[current])
            current = self._parent.get(current)
        return out

    def masks(self, ds: Dataset) -> np.ndarray:
        """Stacked membership masks, one row per node in breadth-first order."""
        out = np.empty((len(self.nodes), ds.n), dtype=bool)
        for i, g in enumerate(self.nodes):
            out[i] = membership_vector(g, ds)
        return out

    def rows(self, ds: Dataset) -> list[np.ndarray]:
        """Row indices of each node, ascending, in breadth-first order.

        A child's rows are its parent's rows filtered by the one conjunct it
        adds, so rows(ds)[i] equals np.flatnonzero(masks(ds)[i]).
        """
        out = [np.arange(ds.n)]
        for g in self.nodes[1:]:
            attr, cat = self._added[g.id]
            code = _conjunct_code(g, attr, cat, ds)
            parent_rows = out[self._index[self._parent[g.id]]]
            out.append(parent_rows[ds.codes(attr)[parent_rows] == code])
        return out

    def row_index(self, ds: Dataset) -> list[np.ndarray]:
        """rows(ds), computed once per dataset and kept with it, so every
        fit, score and risk on ds reads one index. Read only."""
        return ds.memo(self, self._frozen_rows)

    def _frozen_rows(self, ds: Dataset) -> list[np.ndarray]:
        out = self.rows(ds)
        for r in out:
            r.flags.writeable = False
        return out

    def route(self, ds: Dataset) -> np.ndarray:
        """Index (into bfs order) of the deepest containing node per row."""
        assign = np.zeros(ds.n, dtype=np.int64)
        for i, rows in enumerate(self.rows(ds)):
            assign[rows] = i
        return assign


def build_hierarchy(schema: AttributeSchema, attribute_order: Sequence[str]) -> GroupTree:
    """Full product hierarchy: depth-k nodes are all conjunctions of the
    first k attributes' categories, in the given order."""
    if not attribute_order:
        raise ValueError("attribute_order must name at least one attribute")
    for attr in attribute_order:
        col = schema.column(attr)  # raises SchemaError if unknown
        if col.kind != CATEGORICAL:
            raise SchemaError(f"attribute {attr!r} is not categorical")
        if not schema.categories.get(attr):
            raise SchemaError(f"attribute {attr!r} has no categories")
    nodes = [Group(ROOT_ID, ())]
    frontier: list[tuple[tuple[str, str], ...]] = [()]
    for attr in attribute_order:
        next_frontier = []
        for prefix in frontier:
            for cat in schema.categories[attr]:
                conj = prefix + ((attr, cat),)
                nodes.append(Group.from_conjuncts(conj))
                next_frontier.append(conj)
        frontier = next_frontier
    return GroupTree(nodes)


@dataclass(frozen=True)
class HierarchyVerdict:
    valid: bool
    violations: tuple[tuple[str, str, str], ...] = ()

    def describe(self) -> str:
        if self.valid:
            return "VALID"
        lines = ["INVALID"]
        for a, b, reason in self.violations:
            lines.append(f"  ({a}, {b}): {reason}")
        return "\n".join(lines)


def _violation(a: Group, b: Group) -> str | None:
    """Why two conjunctions are neither disjoint nor nested over the full
    category product space, or None if they are."""
    sa, sb = dict(a.conjuncts), dict(b.conjuncts)
    if any(sa[attr] != sb[attr] for attr in sa.keys() & sb.keys()):
        return None  # disjoint
    if sa == sb:
        return "identical predicates"
    if sa.items() <= sb.items() or sb.items() <= sa.items():
        return None  # nested
    return "overlap without containment"


def validate_hierarchical(groups: Iterable[Group]) -> HierarchyVerdict:
    """Check that every pair of groups is disjoint or nested, comparing the
    conjunctions symbolically over the category product space."""
    group_list = list(groups)
    if not group_list:
        raise ValueError("no groups to validate")
    violations = []
    for i, a in enumerate(group_list):
        for b in group_list[i + 1:]:
            reason = _violation(a, b)
            if reason is not None:
                violations.append((a.id, b.id, reason))
    return HierarchyVerdict(valid=not violations, violations=tuple(violations))


def hierarchy_to_json(tree: GroupTree) -> dict:
    return {"nodes": [[list(c) for c in g.conjuncts] for g in tree.nodes]}


def hierarchy_from_json(doc: Mapping) -> GroupTree:
    """Inverse of hierarchy_to_json: {"nodes": [[[attr, cat], ...], ...]}."""
    return GroupTree(Group.from_conjuncts([(a, c) for a, c in conj]) for conj in doc["nodes"])
