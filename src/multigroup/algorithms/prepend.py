"""Decision-list learner that repeatedly prepends a violating pair.

Each round scans (group, candidate) pairs for the largest value of
list_risk(g) - candidate_risk(g) - margin(g); while that value is
positive the pair is prepended, so the front of the list holds the most
recently added rule. A value of exactly 0 is no violation: once a group's
own fit heads the list, that same pair scores 0 and must not be prepended
again. Candidates are the group-restricted fits of the tree's groups
plus the global fit; the full benchmark class is implicit in the learners,
so the scan cannot enumerate it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..bounds import EpsilonSpec, epsilon
from ..data import Dataset
from ..groups import Group, GroupTree
from ..learners import LearnerSpec, PredictorCache, _Predictor
from ..risk import Loss
from .routing import route


@dataclass(frozen=True)
class DecisionListEntry:
    group: Group  # a node of the list's tree
    predictor: object
    source_id: str  # group whose restricted fit the predictor is ("ALL" for the global fit)


class DecisionList:
    """Front-to-back first-match evaluation over the nodes of ``tree``, with
    a default at the end."""

    def __init__(self, tree: GroupTree, entries: list[DecisionListEntry], default,
                 learner_spec: LearnerSpec, eps_spec: EpsilonSpec, loss: Loss):
        self.tree = tree
        self.entries = entries
        self.default = default
        self.learner_spec = learner_spec
        self.eps_spec = eps_spec
        self.loss = loss

    def __len__(self) -> int:
        return len(self.entries)

    def _rules(self, ds: Dataset):
        rows = self.tree.row_index(ds)
        return ((rows[self.tree.index(e.group.id)], e.predictor) for e in self.entries)

    def scores(self, ds: Dataset) -> np.ndarray:
        return route(ds, self._rules(ds), self.default)

    predict = _Predictor.predict  # in the class's own namespace, where bench/tracing.py wraps it


class PrependCapExceeded(RuntimeError):
    """The round cap was hit while violations remained; carries the partial list."""

    def __init__(self, cap: int, partial: DecisionList):
        super().__init__(f"prepend did not terminate within cap={cap}")
        self.partial = partial


class _CandidatePool:
    """Observed groups, the candidate fits, and each candidate's loss sum
    on every atom and risk on every observed group.

    An atom holds the rows whose deepest containing node is the same, so
    atoms are indexed by node and a group's rows are the atoms of its
    subtree. Candidates are the global fit followed by the observed
    non-root groups' restricted fits in id order; none of their risks
    changes across rounds. Each candidate is scored once on every row and
    kept only as its loss sums by atom.
    """

    def __init__(self, cache: PredictorCache, tree: GroupTree, spec: LearnerSpec,
                 eps: EpsilonSpec, loss: Loss):
        train = cache.ds
        rows = tree.row_index(train)
        self.atom = np.zeros(train.n, dtype=np.intp)  # each row's deepest containing node
        for i, r in enumerate(rows[1:], start=1):
            self.atom[r] = i
        parent = np.array([tree.index(tree.parent(g.id).id) for g in tree.nodes[1:]], dtype=np.intp)
        depth = np.array([tree.depth(g.id) for g in tree.nodes[1:]])
        # breadth-first order keeps each depth's nodes, and each run of
        # siblings, contiguous: per depth, deepest first, the depth's first
        # and end node, where its sibling runs start, and their parents
        self.levels = []
        for d in np.unique(depth)[::-1]:
            lo, hi = np.searchsorted(depth, [d, d + 1])
            level = parent[lo:hi]
            starts = np.flatnonzero(np.r_[True, level[1:] != level[:-1]])
            self.levels.append((lo + 1, hi + 1, starts, level[starts]))
        self.subtree = [[i] for i in range(len(tree))]  # each node and its descendants
        for i, g in enumerate(tree.nodes):
            for h in tree.ancestors(g.id):
                self.subtree[tree.index(h.id)].append(i)

        self.observed = [i for i, r in enumerate(rows) if len(r)]
        self.groups = [tree.nodes[i] for i in self.observed]
        self.sizes = np.array([len(rows[i]) for i in self.observed], dtype=np.int64)
        self.margins = np.array([epsilon(eps, n) for n in self.sizes.tolist()])
        self.candidates: list[tuple[str, object]] = [("ALL", cache.erm(spec))]
        for g in sorted(self.groups, key=lambda g: g.id):
            if not g.is_root:
                self.candidates.append((g.id, cache.group_erm(spec, tree, g)))
        self.atom_sums = np.empty((len(self.candidates), len(tree)))
        self.risks = np.empty((len(self.groups), len(self.candidates)))
        for c, (_, predictor) in enumerate(self.candidates):
            self.atom_sums[c] = self.by_atom(loss.per_example(predictor, train))
            self.risks[:, c] = self.group_risks(self.atom_sums[c])
        self.min_risks = self.risks.min(axis=1)

    def by_atom(self, row_loss: np.ndarray) -> np.ndarray:
        """Per-row losses on the training set, summed by atom."""
        return np.bincount(self.atom, weights=row_loss, minlength=len(self.subtree))

    def group_risks(self, atom_sums: np.ndarray) -> np.ndarray:
        """Each observed group's risk, from loss sums by atom added up the
        tree one depth at a time. Equal atom sums on a group's subtree give
        that group equal bits, whatever the other atoms hold."""
        out = atom_sums.copy()
        for lo, hi, starts, parents in self.levels:
            out[parents] += np.add.reduceat(out[lo:hi], starts)
        return out[self.observed] / self.sizes

    def values(self, list_atoms: np.ndarray) -> np.ndarray:
        """Violation value list_risk - cand_risk - margin of every (group,
        candidate) pair, for a list with loss sums ``list_atoms`` by atom."""
        list_risk = self.group_risks(list_atoms)
        return list_risk[:, None] - self.risks - self.margins[:, None]

    def scan(self, list_atoms: np.ndarray):
        """The first maximum of ``values(list_atoms)`` in row-major order, as
        (value, (group, candidate) index), or (None, None) if no group is
        observed. Rounding is monotone, so a group's largest value is at its
        smallest candidate risk: a round reads each group once and then the
        candidates of one group."""
        if not self.groups:
            return None, None
        list_risk = self.group_risks(list_atoms)
        top = (list_risk - self.min_risks) - self.margins
        gi = int(np.argmax(top))
        row = (list_risk[gi] - self.risks[gi]) - self.margins[gi]
        return top[gi], (gi, int(np.argmax(row == top[gi])))


def prepend(
    cache: PredictorCache,
    tree: GroupTree,
    spec: LearnerSpec,
    eps: EpsilonSpec,
    loss: Loss,
    cap: int | None = None,
) -> DecisionList:
    """Build the decision list on the cache's training set.

    Unobserved groups of the tree are skipped. The default cap is 4x the
    number of groups.
    """
    if cap is None:
        cap = 4 * len(tree)
    if cap < 1:
        raise ValueError("cap must be >= 1")
    eps = eps.with_context(group_count=len(tree), n_total=cache.ds.n)
    pool = _CandidatePool(cache, tree, spec, eps, loss)
    entries: list[DecisionListEntry] = []
    current = DecisionList(tree, entries, pool.candidates[0][1], spec, eps, loss)
    list_atoms = pool.atom_sums[0].copy()  # the list's loss sum on each atom

    for rounds in range(cap + 1):
        value, best = pool.scan(list_atoms)
        if best is None or value <= 0:
            return current
        if rounds == cap:  # a violation is still outstanding
            raise PrependCapExceeded(cap, current)
        gi, ci = best
        source_id, predictor = pool.candidates[ci]
        entries.insert(0, DecisionListEntry(pool.groups[gi], predictor, source_id))
        # the new entry answers every atom of its group
        atoms = pool.subtree[pool.observed[gi]]
        list_atoms[atoms] = pool.atom_sums[ci, atoms]


def termination_scan(dlist: DecisionList, cache: PredictorCache) -> list[tuple[str, str, float]]:
    """Post-hoc check of the stopping condition on the cache's training set.

    Re-scans every (observed group of the list's tree, candidate) pair
    against the returned list and reports those whose violation value is
    still > 0; an empty result certifies termination.
    """
    tree = dlist.tree
    eps = dlist.eps_spec.with_context(group_count=len(tree), n_total=cache.ds.n)
    pool = _CandidatePool(cache, tree, dlist.learner_spec, eps, dlist.loss)
    values = pool.values(pool.by_atom(dlist.loss.per_example(dlist, cache.ds)))
    return [(pool.groups[gi].id, pool.candidates[ci][0], float(values[gi, ci]))
            for gi, ci in zip(*np.nonzero(values > 0))]
