"""Breadth-first group-tree learner.

Walks the group hierarchy top-down and gives each node a working predictor:
either the group-restricted fit for that node, when it beats the parent's
working predictor on the node's rows by at least the node's margin, or the
parent's working predictor otherwise. Evaluation routes an example to the
deepest containing node and applies that node's working predictor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..bounds import EpsilonSpec, epsilon, uc_width
from ..data import Dataset, float_from_json, float_to_json
from ..groups import GroupTree
from ..learners import LearnerSpec, PredictorCache
from ..risk import Loss
from .routing import route


@dataclass(frozen=True)
class TraceStep:
    """One breadth-first visit: the risks compared and the decision taken."""

    group_id: str
    n_g: int
    parent_risk: float | None
    candidate_risk: float | None
    epsilon: float
    err: float | None
    decision: str  # "updated" | "inherited" | "inherited_empty"

    def to_json(self) -> dict:
        return {
            "group_id": self.group_id,
            "n_g": self.n_g,
            "parent_risk": self.parent_risk,
            "candidate_risk": self.candidate_risk,
            "epsilon": float_to_json(self.epsilon),
            "err": float_to_json(self.err),
            "decision": self.decision,
        }

    @staticmethod
    def from_json(doc) -> "TraceStep":
        return TraceStep(
            group_id=doc["group_id"],
            n_g=doc["n_g"],
            parent_risk=doc["parent_risk"],
            candidate_risk=doc["candidate_risk"],
            epsilon=float_from_json(doc["epsilon"]) if doc["epsilon"] is not None else math.inf,
            err=float_from_json(doc["err"]),
            decision=doc["decision"],
        )


class GroupTreePredictor:
    """Hierarchy nodes annotated with working predictors.

    ``working`` maps node id to the predictor applied to rows routed there;
    inherited nodes share their parent's predictor object. ``source`` maps
    each node to the id of the group whose restricted fit it ends up using.
    """

    def __init__(self, tree: GroupTree, working: dict, decision: dict, trace: list[TraceStep],
                 learner_spec: LearnerSpec, eps_spec: EpsilonSpec, loss: Loss):
        self.tree = tree
        self.working = working
        self.decision = decision
        self.trace = trace
        self.learner_spec = learner_spec
        self.eps_spec = eps_spec
        self.loss = loss

    def source(self) -> dict[str, str]:
        out: dict[str, str] = {}
        for g in self.tree.nodes:  # parents precede children
            if g.is_root or self.decision[g.id] == "updated":
                out[g.id] = g.id
            else:
                out[g.id] = out[self.tree.parent(g.id).id]
        return out

    def _rules(self, ds: Dataset):
        # deepest first, so the first containing node is the deepest one; the
        # root, which contains every row, is the default
        pairs = zip(self.tree.rows(ds)[1:], (self.working[g.id] for g in self.tree.nodes[1:]))
        return reversed(list(pairs))

    def scores(self, ds: Dataset) -> np.ndarray:
        return route(ds, self._rules(ds), self.working[self.tree.root.id], "scores")

    def predict(self, ds: Dataset) -> np.ndarray:
        return route(ds, self._rules(ds), self.working[self.tree.root.id], "predict")


class _Pass:
    """The breadth-first pass: visit each node once, parents before children.

    ``row_loss`` holds the per-row loss of the tree decided so far. Siblings
    are disjoint (GroupTree rejects any other tree), so a node's rows lie in
    no visited node deeper than its parent, and before node i is visited
    ``row_loss[rows[i]]`` are exactly the losses of the parent's working
    predictor on them, in the same order.
    """

    def __init__(self, train: Dataset, tree: GroupTree, spec: LearnerSpec, eps: EpsilonSpec,
                 loss: Loss, cache: PredictorCache | None):
        self.train, self.tree, self.spec, self.loss = train, tree, spec, loss
        self.eps = eps.with_context(group_count=len(tree), n_total=train.n)
        self.cache = cache if cache is not None else PredictorCache(train)
        self.rows = tree.rows(train)
        root_pred = self.cache.erm(spec)
        self.row_loss = loss.per_example(root_pred, train).copy()
        self.working = {tree.root.id: root_pred}
        self.decision = {tree.root.id: "root"}

    def risk(self, i: int) -> float:
        """The current tree's risk on node i (which must be observed)."""
        r = self.rows[i]
        return float(self.row_loss[r].sum() / len(r))

    def visit(self, i: int, follow) -> TraceStep:
        """Compare node i's restricted fit with its parent's working predictor.

        Returns the step with the update rule's decision. Node i takes the
        fit only when ``follow(step)`` is true; an unobserved node always
        inherits, without asking.
        """
        g = self.tree.nodes[i]
        self.working[g.id] = self.working[self.tree.parent(g.id).id]
        r = self.rows[i]
        n_g = len(r)
        if n_g == 0:
            self.decision[g.id] = "inherited_empty"
            return TraceStep(g.id, 0, None, None, epsilon(self.eps, 0), None, "inherited_empty")
        candidate = self.cache.group_erm(self.spec, g)
        candidate_loss = self.loss.per_example(candidate, self.train.take(r))
        parent_risk = self.risk(i)
        candidate_risk = float(candidate_loss.sum() / n_g)
        margin = epsilon(self.eps, n_g)
        err = parent_risk - candidate_risk - margin
        step = TraceStep(g.id, n_g, parent_risk, candidate_risk, margin, err,
                         "updated" if err >= 0 else "inherited")
        followed = follow(step)
        if followed:
            self.working[g.id] = candidate
            self.row_loss[r] = candidate_loss
        self.decision[g.id] = "updated" if followed else "inherited"
        return step

    def predictor(self, trace: list[TraceStep]) -> GroupTreePredictor:
        return GroupTreePredictor(self.tree, self.working, self.decision, trace,
                                  self.spec, self.eps, self.loss)


def mgl_tree(
    train: Dataset,
    tree: GroupTree,
    spec: LearnerSpec,
    eps: EpsilonSpec,
    loss: Loss,
    cache: PredictorCache | None = None,
) -> GroupTreePredictor:
    """Fit the group-tree predictor on the training set.

    Comparisons are raw floating-point; a node updates exactly when
    parent_risk - candidate_risk - margin >= 0. Unobserved nodes inherit
    silently and are recorded in the trace.
    """
    if train.n == 0:
        raise ValueError("empty training set")
    tree_pass = _Pass(train, tree, spec, eps, loss, cache)
    trace = [tree_pass.visit(i, lambda step: step.decision == "updated")
             for i in range(1, len(tree))]
    return tree_pass.predictor(trace)


def excess_risk_report(
    predictor: GroupTreePredictor,
    train: Dataset,
    cache: PredictorCache | None = None,
    tol: float = 1e-9,
) -> tuple[list[dict], list[dict]]:
    """Per-group excess of the fitted tree over the group-restricted fits.

    Returns (rows, violations): one row per group with n_g >= 1 comparing
    the tree's training risk against the group fit's risk plus the margin;
    rows whose excess exceeds tol are also returned as violations.
    """
    if cache is None:
        cache = PredictorCache(train)
    tree = predictor.tree
    eps = predictor.eps_spec.with_context(group_count=len(tree), n_total=train.n)
    tree_losses = predictor.loss.per_example(predictor, train)
    rows = []
    violations = []
    for g, r in zip(tree.nodes, tree.rows(train)):
        n_g = len(r)
        if n_g == 0:
            continue
        benchmark = cache.group_erm(predictor.learner_spec, g)
        bench_risk = float(predictor.loss.per_example(benchmark, train.take(r)).sum() / n_g)
        tree_risk = float(tree_losses[r].sum() / n_g)
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
        if excess > tol:
            violations.append(row)
    return rows, violations


@dataclass(frozen=True)
class AuditVerdict:
    ok: bool
    violations: tuple[tuple[int, str, str, str], ...] = ()  # (step, group, kind, detail)
    # the tree rebuilt from the data by following the recorded decisions
    replay: GroupTreePredictor | None = field(default=None, compare=False)

    def describe(self) -> str:
        if self.ok:
            return "CLEAN"
        lines = [f"{len(self.violations)} violation(s)"]
        for step, group, kind, detail in self.violations:
            lines.append(f"  step {step} group {group}: {kind}: {detail}")
        return "\n".join(lines)


def monotonicity_audit(
    trace: list[TraceStep],
    train: Dataset,
    tree: GroupTree,
    spec: LearnerSpec,
    eps: EpsilonSpec,
    loss: Loss,
    cache: PredictorCache | None = None,
    tol: float = 1e-9,
) -> AuditVerdict:
    """Replay the breadth-first pass step by step, following the trace.

    Checks two things: (a) each recorded decision agrees with the update
    rule recomputed from the data, and (b) after every update the tree's
    risk on every already-visited observed group still sits within that
    group's margin of its group-restricted fit. An update only changes rows
    inside the updated node, so risks of visited groups disjoint from it
    are carried over unchanged rather than recomputed.
    """
    expected_ids = [g.id for g in tree.nodes if not g.is_root]
    if [t.group_id for t in trace] != expected_ids:
        raise ValueError("trace does not match the tree's breadth-first order")
    tree_pass = _Pass(train, tree, spec, eps, loss, cache)

    violations: list[tuple[int, str, str, str]] = []
    # per visited observed node index: its group-restricted fit's risk and margin,
    # and the current tree's risk on it
    bench: dict[int, tuple[float, float]] = {}
    current_risk: dict[int, float] = {}

    n_root = len(tree_pass.rows[0])
    if n_root > 0:
        # before the first visit the tree is the root fit, so its risk is
        # also the root's group-restricted benchmark
        current_risk[0] = tree_pass.risk(0)
        bench[0] = (current_risk[0], epsilon(tree_pass.eps, n_root))
        if current_risk[0] > bench[0][0] + bench[0][1] + tol:
            violations.append((0, tree.root.id, "margin", "root exceeds its margin"))

    for step, recorded in enumerate(trace, start=1):
        followed_update = recorded.decision == "updated"
        replayed = tree_pass.visit(step, lambda _: followed_update)
        g = tree.nodes[step]
        if replayed.n_g != recorded.n_g:
            violations.append(
                (step, g.id, "rule", f"recorded n_g={recorded.n_g}, data has {replayed.n_g}")
            )
        if replayed.n_g == 0:
            if recorded.decision != "inherited_empty":
                violations.append(
                    (step, g.id, "rule", f"empty group recorded as {recorded.decision!r}")
                )
            continue
        err = replayed.err
        # equal infinities give nan here, which compares False as intended
        if recorded.err is not None and abs(recorded.err - err) > tol:
            violations.append(
                (step, g.id, "rule", f"recorded err={recorded.err}, replay err={err}")
            )
        if recorded.decision not in ("updated", "inherited"):
            violations.append((step, g.id, "rule", f"bad decision {recorded.decision!r}"))
        elif recorded.decision != replayed.decision:
            violations.append(
                (step, g.id, "rule",
                 f"decision {recorded.decision!r} disagrees with err={err}")
            )

        bench[step] = (replayed.candidate_risk, replayed.epsilon)
        if followed_update:
            # only the updated node and its ancestors see changed rows
            current_risk[step] = tree_pass.risk(step)
            for anc in tree.ancestors(g.id):
                j = tree.index(anc.id)
                if j in current_risk:
                    current_risk[j] = tree_pass.risk(j)
            for j, risk in current_risk.items():
                bench_risk, margin = bench[j]
                if risk > bench_risk + margin + tol:
                    violations.append((step, tree.nodes[j].id, "margin",
                                       f"risk {risk} exceeds {bench_risk} + {margin}"))
        else:
            current_risk[step] = replayed.parent_risk

    return AuditVerdict(ok=not violations, violations=tuple(violations),
                        replay=tree_pass.predictor(list(trace)))
