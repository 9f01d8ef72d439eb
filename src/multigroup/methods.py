"""The training procedures, as one table over the shared pool of group fits.

Every procedure draws on the same group-restricted fits (a PredictorCache)
and differs only in which fits it picks and how it routes rows to them. A
table entry says how to fit the procedure, how to save the result as a
model file, and what per-trial summary ``evaluate`` records for it; adding
a procedure means adding one entry. ``train`` and ``evaluate`` both run
entries through ``method_failure`` and measure them with ``group_risks``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

from .algorithms import PrependCapExceeded, decoupled, excess_risk_report, mgl_tree, prepend
from .modelio import save_list_model, save_partition_model, save_plain_model, save_tree_model
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


def _tree_summary(predictor, cache) -> dict:
    decisions = [t.decision for t in predictor.trace]
    # the pass scored every observed node's group fit on this training set
    bench = {t.group_id: t.candidate_risk for t in predictor.trace if t.n_g}
    _, violations = excess_risk_report(predictor, cache, bench)
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
        fit=lambda cache, tree, spec, cfg: cache.erm(spec),
        save=lambda path, p, cache, spec: save_plain_model(path, p, cache, spec),
    ),
    "group_erm": Method(fit=lambda cache, tree, spec, cfg: cache.group_fits(spec, tree)),
    "prepend": Method(
        fit=lambda cache, tree, spec, cfg: prepend(
            cache, tree, spec, cfg.epsilon, loss_from_name(cfg.loss), cap=cfg.prepend_cap),
        save=lambda path, p, cache, spec: save_list_model(path, p, cache),
        summary=lambda p, cache: {"list_length": len(p)},
    ),
    "mgl_tree": Method(
        fit=lambda cache, tree, spec, cfg: mgl_tree(
            cache, tree, spec, cfg.epsilon, loss_from_name(cfg.loss)),
        save=lambda path, p, cache, spec: save_tree_model(path, p, cache),
        summary=_tree_summary,
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

