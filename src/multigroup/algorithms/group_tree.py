"""Breadth-first group-tree learner.

Walks the group hierarchy top-down and gives each node a working predictor:
either the group-restricted fit for that node, when it beats the parent's
working predictor on the node's rows by at least the node's margin, or the
parent's working predictor otherwise. Evaluation routes an example to the
deepest containing node and applies that node's working predictor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..bounds import EpsilonSpec, epsilon, uc_width
from ..data import Dataset
from ..groups import GroupTree, validate_hierarchical
from ..learners import LearnerSpec, PredictorCache
from ..risk import Loss
from .routing import route


def _strict_json(x: float | None):
    """JSON has no infinities: write them as the strings "inf" and "-inf"."""
    return ("inf" if x > 0 else "-inf") if x is not None and math.isinf(x) else x


def _from_json(x):
    """Inverse of _strict_json; older files hold the Infinity literal, which
    json.load already reads as a float."""
    return float(x) if x in ("inf", "-inf") else x


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
            "epsilon": _strict_json(self.epsilon),
            "err": _strict_json(self.err),
            "decision": self.decision,
        }

    @staticmethod
    def from_json(doc) -> "TraceStep":
        return TraceStep(
            group_id=doc["group_id"],
            n_g=doc["n_g"],
            parent_risk=doc["parent_risk"],
            candidate_risk=doc["candidate_risk"],
            epsilon=_from_json(doc["epsilon"]) if doc["epsilon"] is not None else math.inf,
            err=_from_json(doc["err"]),
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

    def _rules(self):
        # deepest first, so the first containing node is the deepest one
        return [(g, self.working[g.id]) for g in reversed(self.tree.nodes)]

    def scores(self, ds: Dataset) -> np.ndarray:
        return route(ds, self._rules(), None, "scores")

    def predict(self, ds: Dataset) -> np.ndarray:
        return route(ds, self._rules(), None, "predict")


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
    verdict = validate_hierarchical(tree.nodes, None)
    if not verdict.valid:
        raise ValueError(f"invalid hierarchy: {verdict.violations[0]}")
    eps = eps.with_context(group_count=len(tree), n_total=train.n)
    if cache is None:
        cache = PredictorCache(train)

    rows = tree.rows(train)
    loss_vectors: dict[int, np.ndarray] = {}

    def losses_of(pred) -> np.ndarray:
        key = id(pred)
        if key not in loss_vectors:
            loss_vectors[key] = loss.per_example(pred, train)
        return loss_vectors[key]

    root_pred = cache.erm(spec)
    working = {tree.root.id: root_pred}
    decision = {tree.root.id: "root"}
    trace: list[TraceStep] = []

    for i, g in enumerate(tree.nodes):
        if g.is_root:
            continue
        parent = tree.parent(g.id)
        parent_pred = working[parent.id]
        r = rows[i]
        n_g = len(r)
        if n_g == 0:
            working[g.id] = parent_pred
            decision[g.id] = "inherited_empty"
            trace.append(TraceStep(g.id, 0, None, None, epsilon(eps, 0), None, "inherited_empty"))
            continue
        candidate = cache.group_erm(spec, g)
        parent_risk = float(losses_of(parent_pred)[r].sum() / n_g)
        candidate_risk = float(losses_of(candidate)[r].sum() / n_g)
        margin = epsilon(eps, n_g)
        err = parent_risk - candidate_risk - margin
        if err >= 0:
            working[g.id] = candidate
            decision[g.id] = "updated"
            trace.append(TraceStep(g.id, n_g, parent_risk, candidate_risk, margin, err, "updated"))
        else:
            working[g.id] = parent_pred
            decision[g.id] = "inherited"
            trace.append(TraceStep(g.id, n_g, parent_risk, candidate_risk, margin, err, "inherited"))

    return GroupTreePredictor(tree, working, decision, trace, spec, eps, loss)


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
        bench_risk = float(predictor.loss.per_example(benchmark, train)[r].sum() / n_g)
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
    """Replay the breadth-first pass step by step.

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
    if cache is None:
        cache = PredictorCache(train)
    eps = eps.with_context(group_count=len(tree), n_total=train.n)

    rows_of = {g.id: r for g, r in zip(tree.nodes, tree.rows(train))}
    n_of = {gid: len(r) for gid, r in rows_of.items()}

    root_pred = cache.erm(spec)
    row_loss = loss.per_example(root_pred, train).copy()
    working = {tree.root.id: root_pred}

    def risk_on(group_id: str) -> float:
        return float(row_loss[rows_of[group_id]].sum() / n_of[group_id])

    bench_risk: dict[str, float] = {}
    margin: dict[str, float] = {}

    def bench(group_id: str) -> float:
        if group_id not in bench_risk:
            candidate = cache.group_erm(spec, tree.node(group_id))
            bench_risk[group_id] = float(
                loss.per_example(candidate, train)[rows_of[group_id]].sum() / n_of[group_id]
            )
            margin[group_id] = epsilon(eps, n_of[group_id])
        return bench_risk[group_id]

    violations: list[tuple[int, str, str, str]] = []
    visited: list[str] = []
    current_risk: dict[str, float] = {}
    if n_of[tree.root.id] > 0:
        visited.append(tree.root.id)
        current_risk[tree.root.id] = risk_on(tree.root.id)
        if current_risk[tree.root.id] > bench(tree.root.id) + margin[tree.root.id] + tol:
            violations.append((0, tree.root.id, "margin", "root exceeds its margin"))

    for step, recorded in enumerate(trace, start=1):
        g = tree.node(recorded.group_id)
        parent = tree.parent(g.id)
        n_g = n_of[g.id]
        if n_g != recorded.n_g:
            violations.append(
                (step, g.id, "rule", f"recorded n_g={recorded.n_g}, data has {n_g}")
            )
        if n_g == 0:
            working[g.id] = working[parent.id]
            if recorded.decision != "inherited_empty":
                violations.append(
                    (step, g.id, "rule", f"empty group recorded as {recorded.decision!r}")
                )
            continue
        parent_risk = risk_on(g.id)  # pre-update tree behaves as the parent on g
        candidate_risk = bench(g.id)
        err = parent_risk - candidate_risk - margin[g.id]
        should_update = err >= 0
        # equal infinities give nan here, which compares False as intended
        if recorded.err is not None and abs(recorded.err - err) > tol:
            violations.append(
                (step, g.id, "rule", f"recorded err={recorded.err}, replay err={err}")
            )
        if recorded.decision not in ("updated", "inherited"):
            violations.append((step, g.id, "rule", f"bad decision {recorded.decision!r}"))
        elif (recorded.decision == "updated") != should_update:
            violations.append(
                (step, g.id, "rule",
                 f"decision {recorded.decision!r} disagrees with err={err}")
            )

        followed_update = recorded.decision == "updated"
        if followed_update:
            candidate = cache.group_erm(spec, g)
            working[g.id] = candidate
            r = rows_of[g.id]
            row_loss[r] = loss.per_example(candidate, train)[r]
            # only the updated node and its ancestors see changed rows
            current_risk[g.id] = risk_on(g.id)
            for anc in tree.ancestors(g.id):
                if anc.id in current_risk:
                    current_risk[anc.id] = risk_on(anc.id)
        else:
            working[g.id] = working[parent.id]
            current_risk[g.id] = parent_risk
        visited.append(g.id)

        if followed_update:
            for gid in visited:
                if current_risk[gid] > bench(gid) + margin[gid] + tol:
                    violations.append(
                        (step, gid, "margin",
                         f"risk {current_risk[gid]} exceeds "
                         f"{bench(gid)} + {margin[gid]}")
                    )

    return AuditVerdict(ok=not violations, violations=tuple(violations))
