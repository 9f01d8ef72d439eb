"""Breadth-first group-tree learner.

Walks the group hierarchy top-down and gives each node a working predictor:
either the group-restricted fit for that node, when it beats the parent's
working predictor on the node's rows by at least the node's margin, or the
parent's working predictor otherwise. The fitted tree keeps each fit once,
on the node that took it, and answers an example with the fit of the
deepest containing node that took one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..bounds import EpsilonSpec, epsilon, uc_width
from ..data import Dataset, InfFloat, spec_to_json
from ..groups import GroupTree
from ..learners import LearnerSpec, PredictorCache, _Predictor
from ..risk import Loss, group_risks
from .routing import route

# Slack for float noise when a replayed or recomputed risk is compared with
# a recorded one or with a margin.
TOL = 1e-9


# a step's numbers, err (which the update rule reads) first
_REAL_FIELDS = ("err", "parent_risk", "candidate_risk", "epsilon")


@dataclass(frozen=True)
class TraceStep:
    """One breadth-first visit: the risks compared and the decision taken."""

    json_name = "trace step"
    group_id: str
    n_g: int
    parent_risk: float | None
    candidate_risk: float | None
    epsilon: InfFloat
    err: InfFloat | None
    decision: str  # "updated" | "inherited" | "inherited_empty"

    def __post_init__(self):
        for key in _REAL_FIELDS:
            value = getattr(self, key)
            if value != value:  # the writer never writes a NaN
                raise ValueError(f"{key} must not be NaN")

    to_json = spec_to_json


class GroupTreePredictor:
    """Hierarchy nodes annotated with the fits that answer them.

    ``fits`` maps the root and each node that took its own group-restricted
    fit to that fit, and holds nothing else. ``source`` maps every node to
    the id of the node whose fit answers the rows routed to it: the node
    itself, or the nearest ancestor that owns a fit.
    """

    def __init__(self, tree: GroupTree, fits: dict, source: dict[str, str], decision: dict,
                 trace: list[TraceStep], learner_spec: LearnerSpec, eps_spec: EpsilonSpec,
                 loss: Loss):
        self.tree = tree
        self.fits = fits
        self.source = source
        self.decision = decision
        self.trace = trace
        self.learner_spec = learner_spec
        self.eps_spec = eps_spec
        self.loss = loss

    def _rules(self, ds: Dataset):
        # the non-root nodes that own a fit, deepest first: the first that
        # contains a row is the nearest owning ancestor of the row's deepest
        # node; the root, which contains every row, is the default
        rows = self.tree.row_index(ds)
        return reversed([(rows[i], self.fits[g.id]) for i, g in enumerate(self.tree.nodes)
                         if i and g.id in self.fits])

    def scores(self, ds: Dataset) -> np.ndarray:
        return route(ds, self._rules(ds), self.fits[self.tree.root.id])

    predict = _Predictor.predict  # in the class's own namespace, where bench/tracing.py wraps it


class _Pass:
    """The breadth-first pass: visit each node once, parents before children.

    ``row_loss`` holds the per-row loss of the tree decided so far. Siblings
    are disjoint (GroupTree rejects any other tree), so a node's rows lie in
    no visited node deeper than its parent, and before node i is visited
    ``row_loss[rows[i]]`` are exactly the losses of the fit that answers
    the parent on them, in the same order.

    ``sums[i]`` is the tree's loss sum on the rows of visited observed node
    i: summed from the rows the visit gathers, then moved by each update
    below i. Zero-one losses sum to integers, so these equal a fresh
    gather's sum bit for bit; other losses may differ from it by rounding.
    """

    def __init__(self, cache: PredictorCache, tree: GroupTree, spec: LearnerSpec,
                 eps: EpsilonSpec, loss: Loss):
        self.cache, self.train, self.tree, self.spec, self.loss = cache, cache.ds, tree, spec, loss
        self.eps = eps.with_context(group_count=len(tree), n_total=cache.ds.n)
        self.rows = tree.row_index(cache.ds)
        root_pred = cache.erm(spec)
        self.row_loss = loss.per_example(root_pred, cache.ds).copy()
        self.sums = [self.row_loss.sum()] + [None] * (len(tree) - 1)
        self.fits = {tree.root.id: root_pred}
        self.source = {tree.root.id: tree.root.id}
        self.decision = {tree.root.id: "root"}

    def risk(self, i: int) -> float:
        """The current tree's risk on visited observed node i."""
        return float(self.sums[i] / len(self.rows[i]))

    def visit(self, i: int, follow) -> TraceStep:
        """Compare node i's restricted fit with the fit that answers its parent.

        Returns the step with the update rule's decision. Node i takes the
        fit only when ``follow(step)`` is true; an unobserved node always
        inherits, without asking.
        """
        g = self.tree.nodes[i]
        self.source[g.id] = self.source[self.tree.parent(g.id).id]
        r = self.rows[i]
        n_g = len(r)
        if n_g == 0:
            self.decision[g.id] = "inherited_empty"
            return TraceStep(g.id, 0, None, None, epsilon(self.eps, 0), None, "inherited_empty")
        candidate = self.cache.group_erm(self.spec, self.tree, g)
        candidate_loss = self.loss.per_example(candidate, self.train.take(r))
        parent_sum, candidate_sum = self.row_loss[r].sum(), candidate_loss.sum()
        parent_risk, candidate_risk = float(parent_sum / n_g), float(candidate_sum / n_g)
        margin = epsilon(self.eps, n_g)
        err = parent_risk - candidate_risk - margin
        step = TraceStep(g.id, n_g, parent_risk, candidate_risk, margin, err,
                         "updated" if err >= 0 else "inherited")
        followed = follow(step)
        self.sums[i] = parent_sum
        if followed:
            self.fits[g.id] = candidate
            self.source[g.id] = g.id
            self.row_loss[r] = candidate_loss
            self.sums[i] = candidate_sum
            for h in self.tree.ancestors(g.id):
                self.sums[self.tree.index(h.id)] += candidate_sum - parent_sum
        self.decision[g.id] = "updated" if followed else "inherited"
        return step

    def predictor(self, trace: list[TraceStep]) -> GroupTreePredictor:
        return GroupTreePredictor(self.tree, self.fits, self.source, self.decision, trace,
                                  self.spec, self.eps, self.loss)


def mgl_tree(
    cache: PredictorCache,
    tree: GroupTree,
    spec: LearnerSpec,
    eps: EpsilonSpec,
    loss: Loss,
) -> GroupTreePredictor:
    """Fit the group-tree predictor on the cache's training set.

    Comparisons are raw floating-point; a node updates exactly when
    parent_risk - candidate_risk - margin >= 0. Unobserved nodes inherit
    silently and are recorded in the trace.
    """
    if cache.ds.n == 0:
        raise ValueError("empty training set")
    tree_pass = _Pass(cache, tree, spec, eps, loss)
    trace = [tree_pass.visit(i, lambda step: step.decision == "updated")
             for i in range(1, len(tree))]
    return tree_pass.predictor(trace)


def excess_risk_report(
    predictor: GroupTreePredictor,
    cache: PredictorCache,
    steps: list[TraceStep],
) -> tuple[list[dict], list[dict]]:
    """Per-group excess of the fitted tree over the group-restricted fits
    on the cache's training set.

    Returns (rows, violations): one row per group with n_g >= 1 comparing
    the tree's training risk against the group fit's risk plus the margin;
    rows whose excess exceeds TOL are also returned as violations.
    Each observed non-root node's group-fit risk is its candidate risk in
    ``steps``, the trace steps of a pass on this training set (the fit's
    own trace, or an audit replay's); only the root's fit is scored here.
    """
    train = cache.ds
    tree, loss, spec = predictor.tree, predictor.loss, predictor.learner_spec
    eps = predictor.eps_spec.with_context(group_count=len(tree), n_total=train.n)
    tree_risks = group_risks(predictor, train, tree, loss)
    bench_risks = group_risks({tree.root.id: cache.group_erm(spec, tree, tree.root)},
                              train, tree, loss)
    bench_risks.update((t.group_id, t.candidate_risk) for t in steps if t.n_g)
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


@dataclass(frozen=True)
class AuditVerdict:
    ok: bool
    violations: tuple[tuple[int, str, str, str], ...] = ()  # (step, group, kind, detail)
    # the tree rebuilt from the data by following the recorded decisions,
    # with the replayed steps, each with the rule's decision, as its trace
    replay: GroupTreePredictor | None = field(default=None, compare=False)

    def describe(self) -> str:
        """One line per violation, or CLEAN."""
        return "\n".join(f"  step {step} group {group}: {kind}: {detail}"
                         for step, group, kind, detail in self.violations) or "CLEAN"


def monotonicity_audit(
    trace: list[TraceStep],
    cache: PredictorCache,
    tree: GroupTree,
    spec: LearnerSpec,
    eps: EpsilonSpec,
    loss: Loss,
) -> AuditVerdict:
    """Replay the breadth-first pass on the cache's training set, step by
    step, following the trace.

    Checks two things: (a) each recorded decision agrees with the update
    rule recomputed from the data, and its recorded err, risks and margin
    with the replay's within TOL, and (b) every observed group's risk under
    the tree sits within that group's margin of its group-restricted fit
    whenever that risk changes. An inherited node is checked at its visit:
    its risk is its parent's working predictor's. An update changes only
    rows inside the updated node, so afterwards only its ancestors' risks
    are checked again; the node's own risk is its fit's, which is within any
    margin >= 0, and so is the root's before the first update. Those risks
    come from the pass's running loss sums, so an update costs one step per
    ancestor, not a gather of the ancestors' rows. The verdict's ``replay``
    carries the replayed steps as its trace.
    """
    expected_ids = [g.id for g in tree.nodes if not g.is_root]
    if [t.group_id for t in trace] != expected_ids:
        raise ValueError("trace does not match the tree's breadth-first order")
    tree_pass = _Pass(cache, tree, spec, eps, loss)

    violations: list[tuple[int, str, str, str]] = []
    steps: list[TraceStep] = []
    # per visited observed node index: its group-restricted fit's risk and
    # margin; before the first visit the tree is the root fit
    bench = {0: (tree_pass.risk(0), epsilon(tree_pass.eps, len(tree_pass.rows[0])))}

    for step, recorded in enumerate(trace, start=1):
        followed_update = recorded.decision == "updated"
        replayed = tree_pass.visit(step, lambda _: followed_update)
        steps.append(replayed)
        g = tree.nodes[step]
        if replayed.n_g != recorded.n_g:
            violations.append(
                (step, g.id, "rule", f"recorded n_g={recorded.n_g}, data has {replayed.n_g}")
            )
        err = replayed.err
        if recorded.decision != replayed.decision:
            violations.append((step, g.id, "rule", f"decision {recorded.decision!r}, the rule "
                                                   f"gives {replayed.decision!r} (err={err})"))
        if replayed.n_g == 0:
            continue
        # the step's recorded numbers: one violation, for the first that the
        # replay does not give
        for key in _REAL_FIELDS:
            kept, again = getattr(recorded, key), getattr(replayed, key)
            # equal infinities give nan here, which compares False as intended
            if kept is not None and abs(kept - again) > TOL:
                violations.append(
                    (step, g.id, "rule", f"recorded {key}={kept}, replay {key}={again}"))
                break

        bench[step] = (replayed.candidate_risk, replayed.epsilon)
        for h in tree.ancestors(g.id) if followed_update else [g]:
            j = tree.index(h.id)
            risk, (bench_risk, margin) = tree_pass.risk(j), bench[j]
            if risk > bench_risk + margin + TOL:
                violations.append((step, h.id, "margin",
                                   f"risk {risk} exceeds {bench_risk} + {margin}"))

    return AuditVerdict(ok=not violations, violations=tuple(violations),
                        replay=tree_pass.predictor(steps))
