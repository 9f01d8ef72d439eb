"""The training procedures, as one table over the shared pool of group fits.

Every procedure draws on the same group-restricted fits (a PredictorCache)
and differs only in which fits it picks and how it routes rows to them. A
table entry says how to fit the procedure, how to save the result as a
model file, what per-trial summary ``evaluate`` records, and how ``audit``
reads the file back and checks it; adding a procedure means adding one
entry. ``train`` and ``evaluate`` run entries through ``method_failure``
and measure them with ``group_risks``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from .algorithms import PrependCapExceeded, decoupled, excess_risk_report, mgl_tree, \
    monotonicity_audit, prepend, termination_scan
from .groups import ROOT_ID, GroupTree
from .learners import predictor_from_json
from .modelio import reading_model, rebuild_decision_list, rebuild_tree_predictor, \
    save_list_model, save_partition_model, save_plain_model, save_tree_model
from .risk import group_risks, loss_from_name  # group_risks also stays importable from here


class MethodError(RuntimeError):
    """A procedure failed; the message names the method, learner and trial."""


@dataclass(frozen=True)
class Method:
    # (cache, tree, spec, cfg) -> predictor, or {group id: fit} for group_erm;
    # the cache holds the training set and its encoder
    fit: Callable
    # (path, fitted, cache, spec) -> None; None writes no model file
    save: Callable | None = None
    # (fitted, cache) -> per-trial summary dict for evaluate
    summary: Callable | None = None
    # (doc, header) -> the predictor a model file stores, and (header,
    # predictor, cache) -> one line per problem on the cache's training set;
    # both None for a kind that audit does not check
    rebuild: Callable | None = None
    audit: Callable | None = None


def _tree_summary(predictor, cache) -> dict:
    decisions = [t.decision for t in predictor.trace]
    _, violations = excess_risk_report(predictor, cache, predictor.trace)
    return {
        "updated": decisions.count("updated"),
        "inherited": decisions.count("inherited"),
        "empty": decisions.count("inherited_empty"),
        "train_margin_violations": len(violations),
    }


def _refit_problems(fits, tree: GroupTree, spec, cache):
    """One line per stored (where, source id, fit) whose source, a node of
    ``tree``, has no training rows, or whose fit is not the cache's fit of it."""
    rows = tree.row_index(cache.ds)
    for where, source, fit in fits:
        i = tree.index(source)
        if not len(rows[i]):
            yield f"{where}: source {source} has no training rows"
        elif fit.to_json() != cache.group_erm(spec, tree, tree.nodes[i]).to_json():
            yield f"{where}: stored fit differs from the refit of source {source}"


def _tree_audit(header, predictor, cache):
    """Replay the trace, then compare the stored nodes and fits with the
    replay's, and certify the stored tree's margin on every observed group."""
    tree, spec = predictor.tree, predictor.learner_spec
    with reading_model():  # a trace out of breadth-first order exits 2
        verdict = monotonicity_audit(predictor.trace, cache, tree, spec, predictor.eps_spec,
                                     predictor.loss)
    if not verdict.ok:
        yield from verdict.describe().splitlines()
    replay = verdict.replay
    for g in tree.nodes:
        for key in ("decision", "source"):
            stored, replayed = getattr(predictor, key)[g.id], getattr(replay, key)[g.id]
            if stored != replayed:
                yield f"node {g.id}: stored {key} {stored!r}, replay {replayed!r}"
        if g.id in predictor.fits:
            yield from _refit_problems([(f"node {g.id}", g.id, predictor.fits[g.id])], tree,
                                       spec, cache)
    mismatches = int((predictor.predict(cache.ds) != replay.predict(cache.ds)).sum())
    if mismatches:
        yield f"stored predictor disagrees with replay on {mismatches} training rows"
    _, violations = excess_risk_report(predictor, cache, replay.trace)
    for row in violations:
        yield f"margin violation on {row['group_id']}: excess {row['excess']}"


def _list_audit(header, dlist, cache):
    """The stopping test on the training set, then each stored fit's refit."""
    for gid, source, value in termination_scan(dlist, cache):
        yield f"stopping-test violation: group {gid} candidate {source} value {value}"
    fits = [("default", dlist.tree.root.id, dlist.default)]
    fits += [(f"entry {i} (group {e.group.id})", e.source_id, e.predictor)
             for i, e in enumerate(dlist.entries)]
    yield from _refit_problems(fits, dlist.tree, dlist.learner_spec, cache)


# Entries call the algorithms, readers and savers through this module's
# globals, so that anything wrapping those names (such as a tracer) sees
# every call.
METHODS: dict[str, Method] = {
    "erm": Method(
        fit=lambda cache, tree, spec, cfg: cache.erm(spec),
        save=lambda path, p, cache, spec: save_plain_model(path, p, cache, spec),
        rebuild=lambda doc, header: predictor_from_json(doc["predictor"], header.encoder),
        # an erm file stores no hierarchy: its one fit is the root's of one group
        audit=lambda header, p, cache: _refit_problems(
            [("global fit", ROOT_ID, p)], GroupTree(()), header.learner, cache),
    ),
    "group_erm": Method(fit=lambda cache, tree, spec, cfg: cache.group_fits(spec, tree)),
    "prepend": Method(
        fit=lambda cache, tree, spec, cfg: prepend(
            cache, tree, spec, cfg.epsilon, loss_from_name(cfg.loss), cap=cfg.prepend_cap),
        save=lambda path, p, cache, spec: save_list_model(path, p, cache),
        summary=lambda p, cache: {"list_length": len(p)},
        rebuild=lambda doc, header: rebuild_decision_list(doc, header),
        audit=_list_audit,
    ),
    "mgl_tree": Method(
        fit=lambda cache, tree, spec, cfg: mgl_tree(
            cache, tree, spec, cfg.epsilon, loss_from_name(cfg.loss)),
        save=lambda path, p, cache, spec: save_tree_model(path, p, cache),
        summary=_tree_summary,
        rebuild=lambda doc, header: rebuild_tree_predictor(doc, header),
        audit=_tree_audit,
    ),
    "decoupled": Method(
        fit=lambda cache, tree, spec, cfg: decoupled(cache, tree, spec),
        save=lambda path, p, cache, spec: save_partition_model(path, p, cache),
    ),
}


@contextmanager
def method_failure(method: str, label: str, trial: int | None = None):
    """Re-raise a domain failure inside the block as a MethodError naming the method."""
    try:
        yield
    except (ValueError, PrependCapExceeded) as exc:
        where = "" if trial is None else f" in trial {trial}"
        raise MethodError(f"method {method!r} (learner {label}) failed{where}: {exc}") from exc

