"""The training procedures, as one table over the shared pool of group fits.

Every procedure draws on the same group-restricted fits (a PredictorCache)
and differs only in which fits it picks and how it routes rows to them. A
table entry says how to fit the procedure, how to save the result as a
model file, and what per-trial summary ``evaluate`` records for it; adding
a procedure means adding one entry. ``train`` and ``evaluate`` both run
entries through ``method_failure`` and measure them with ``group_risks``.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from .algorithms import PrependCapExceeded, decoupled, excess_risk_report, mgl_tree, prepend
from .learners import EmptyGroupError
from .modelio import save_list_model, save_partition_model, save_plain_model, save_tree_model
from .risk import loss_from_name


class MethodError(RuntimeError):
    """A procedure failed; the message names the method, learner and trial."""


@dataclass(frozen=True)
class Method:
    # (train, tree, spec, cfg, cache) -> predictor, or {group id: fit} for group_erm
    fit: Callable
    # (path, fitted, train, tree, spec, cfg) -> None; None writes no model file
    save: Callable | None = None
    # (fitted, train, cache) -> per-trial summary dict for evaluate
    summary: Callable | None = None


def _fit_group_erm(train, tree, spec, cfg, cache) -> dict:
    fits = {}
    for g in tree.nodes:
        try:
            fits[g.id] = cache.group_erm(spec, g)
        except EmptyGroupError:
            pass  # unobserved on train: no fit, so no risk either
    return fits


def _save_tree(path, predictor, train, tree, spec, cfg) -> None:
    save_tree_model(path, predictor, train, cfg.include_group_attributes)
    trace_path = path[: -len(".model.json")] + ".trace.jsonl"
    with open(trace_path, "w", encoding="utf-8") as fh:
        for step in predictor.trace:
            fh.write(json.dumps(step.to_json(), sort_keys=True) + "\n")


def _tree_summary(predictor, train, cache) -> dict:
    decisions = [t.decision for t in predictor.trace]
    _, violations = excess_risk_report(predictor, train, cache=cache)
    return {
        "updated": decisions.count("updated"),
        "inherited": decisions.count("inherited"),
        "empty": decisions.count("inherited_empty"),
        "train_margin_violations": len(violations),
    }


# Entries call the algorithms and savers through this module's globals, so
# that anything wrapping those names (such as a tracer) sees every call.
METHODS: dict[str, Method] = {
    "erm": Method(
        fit=lambda train, tree, spec, cfg, cache: cache.erm(spec),
        save=lambda path, p, train, tree, spec, cfg: save_plain_model(
            path, p, train, spec, cfg.include_group_attributes),
    ),
    "group_erm": Method(fit=_fit_group_erm),
    "prepend": Method(
        fit=lambda train, tree, spec, cfg, cache: prepend(
            train, tree, spec, cfg.epsilon, loss_from_name(cfg.loss),
            cap=cfg.prepend_cap, cache=cache),
        save=lambda path, p, train, tree, spec, cfg: save_list_model(
            path, p, train, cfg.include_group_attributes),
        summary=lambda p, train, cache: {"list_length": len(p)},
    ),
    "mgl_tree": Method(
        fit=lambda train, tree, spec, cfg, cache: mgl_tree(
            train, tree, spec, cfg.epsilon, loss_from_name(cfg.loss), cache=cache),
        save=_save_tree,
        summary=_tree_summary,
    ),
    "decoupled": Method(
        fit=lambda train, tree, spec, cfg, cache: decoupled(train, tree, spec, cache=cache),
        save=lambda path, p, train, tree, spec, cfg: save_partition_model(
            path, p, train, cfg.include_group_attributes),
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


def group_risks(fitted, ds, tree, rows, loss) -> dict[str, float | None]:
    """Mean loss on each group's rows of ds (``rows`` from ``tree.rows(ds)``).

    ``fitted`` is one predictor scored once on all of ds, or a dict of
    per-group fits (group_erm), each scored on its own group's rows only.
    A group with no rows, or without a fit, gets None.
    """
    shared = None if isinstance(fitted, dict) else loss.per_example(fitted, ds)
    out = {}
    for r, g in zip(rows, tree.nodes):
        if not len(r) or (shared is None and g.id not in fitted):
            out[g.id] = None
        elif shared is not None:
            out[g.id] = float(shared[r].mean())
        else:
            out[g.id] = float(loss.per_example(fitted[g.id], ds.take(r)).mean())
    return out
