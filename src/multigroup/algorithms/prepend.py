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
from ..risk import Loss, mean
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
    """Observed groups, the candidate fits, and each candidate's risk per group.

    Candidates are the global fit followed by the observed non-root groups'
    restricted fits in id order; none of their risks changes across rounds.
    """

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
        """Violation value list_risk - cand_risk - margin of every (group,
        candidate) pair under the per-row losses ``row_loss``, plus the
        (group, candidate) index of the first maximum, or None if no group
        is observed."""
        list_risk = np.array([mean(row_loss[r]) for r in self.rows])
        values = list_risk[:, None] - self.risks - self.margins[:, None]
        if not values.size:
            return values, None
        return values, np.unravel_index(int(np.argmax(values)), values.shape)


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
    row_loss = pool.losses[0].copy()

    for rounds in range(cap + 1):
        values, best = pool.scan(row_loss)
        if best is None or values[best] <= 0:
            return current
        if rounds == cap:  # a violation is still outstanding
            raise PrependCapExceeded(cap, current)
        gi, ci = best
        source_id, predictor = pool.candidates[ci]
        entries.insert(0, DecisionListEntry(pool.groups[gi], predictor, source_id))
        r = pool.rows[gi]
        row_loss[r] = pool.losses[ci][r]


def termination_scan(dlist: DecisionList, cache: PredictorCache) -> list[tuple[str, str, float]]:
    """Post-hoc check of the stopping condition on the cache's training set.

    Re-scans every (observed group of the list's tree, candidate) pair
    against the returned list and reports those whose violation value is
    still > 0; an empty result certifies termination.
    """
    tree = dlist.tree
    eps = dlist.eps_spec.with_context(group_count=len(tree), n_total=cache.ds.n)
    row_loss = dlist.loss.per_example(dlist, cache.ds)
    pool = _CandidatePool(cache, tree, dlist.learner_spec, eps, dlist.loss)
    values, _ = pool.scan(row_loss)
    return [(pool.groups[gi].id, pool.candidates[ci][0], float(values[gi, ci]))
            for gi, ci in zip(*np.nonzero(values > 0))]
