"""Error-margin functions of the per-group sample count.

Two closed-form shapes (finite hypothesis class and VC dimension), plus a
user constant and a bare c/sqrt(n_g) profile. All logarithms are natural.
The margin for an unobserved group (n_g = 0) is +inf, so an update gated on
it can never fire. Values are not clamped to [0, 1]; at practical sample
sizes the closed-form margins often exceed 1, making updates vacuous,
which is why experiment configs usually pick the scaled profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

from .data import check_keys, float_from_json, float_to_json, json_float, json_int

KINDS = ("finite_h", "vc", "constant", "scaled")


@dataclass(frozen=True)
class EpsilonSpec:
    """Margin profile.

    finite_h: scale * 18 * sqrt((2 ln(|G||H|) + ln(8/delta)) / n_g)
    vc:       scale * 18 * sqrt(2 d ln(16 |G| n / delta) / n_g)
    constant: the given value (may be inf)
    scaled:   scale / sqrt(n_g)

    group_count and n_total may be left unset in configs; the experiment
    harness fills them from the hierarchy and the training split.
    """

    kind: str
    delta: float = 0.05
    h_size: int | None = None
    vc_dim: int | None = None
    group_count: int | None = None
    n_total: int | None = None
    scale: float = 1.0
    value: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown epsilon kind {self.kind!r}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if not 0 <= self.scale < math.inf:  # also rejects NaN
            raise ValueError(f"scale must be finite and >= 0, got {self.scale}")
        for name in ("h_size", "vc_dim", "group_count", "n_total"):
            v = getattr(self, name)
            if v is not None and v < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.kind == "constant":
            if self.value is None or not self.value >= 0:
                raise ValueError("constant kind needs a value >= 0")

    def with_context(self, group_count: int | None = None, n_total: int | None = None):
        """Fill unset context fields; explicit values in the spec win."""
        updates = {}
        if self.group_count is None and group_count is not None:
            updates["group_count"] = group_count
        if self.n_total is None and n_total is not None:
            updates["n_total"] = n_total
        return replace(self, **updates) if updates else self

    def to_json(self) -> dict:
        doc = {"kind": self.kind}
        for name in ("delta", "h_size", "vc_dim", "group_count", "n_total", "value"):
            v = getattr(self, name)
            if v is not None and not (name == "delta" and v == 0.05):
                doc[name] = float_to_json(v)  # value may be inf
        if self.scale != 1.0:
            doc["scale"] = self.scale
        return doc

    @staticmethod
    def from_json(doc) -> "EpsilonSpec":
        check_keys(doc, {f.name for f in fields(EpsilonSpec)}, "epsilon")
        doc = dict(doc, value=float_from_json(doc.get("value")))
        for key in ("h_size", "vc_dim", "group_count", "n_total"):
            if doc.get(key) is not None:
                doc[key] = json_int(doc[key], key)
        for key in ("delta", "scale", "value"):
            if doc.get(key) is not None:
                doc[key] = json_float(doc[key], key)
        return EpsilonSpec(**doc)


def _require(spec: EpsilonSpec, *names: str) -> None:
    missing = [n for n in names if getattr(spec, n) is None]
    if missing:
        raise ValueError(f"epsilon kind {spec.kind!r} needs {missing}")


def _bracket(spec: EpsilonSpec) -> float:
    """The log term under the square root, per kind."""
    if spec.kind == "finite_h":
        _require(spec, "h_size", "group_count")
        return 2.0 * math.log(spec.group_count * spec.h_size) + math.log(8.0 / spec.delta)
    _require(spec, "vc_dim", "group_count", "n_total")
    return 2.0 * spec.vc_dim * math.log(16.0 * spec.group_count * spec.n_total / spec.delta)


def epsilon(spec: EpsilonSpec, n_g: int) -> float:
    """Margin for a group observed n_g times; +inf when n_g = 0."""
    if n_g < 0:
        raise ValueError("n_g must be >= 0")
    if n_g == 0:
        return math.inf
    if spec.kind == "constant":
        return spec.value
    if spec.kind == "scaled":
        return spec.scale / math.sqrt(n_g)
    return spec.scale * 18.0 * math.sqrt(_bracket(spec) / n_g)


def uc_width(spec: EpsilonSpec, n_g: int) -> float:
    """High-probability width of |true - empirical| group-conditional risk.

    Same shapes as epsilon with leading constant 9; for the finite_h kind,
    epsilon(spec, n) == 2 * uc_width(spec, n) identically. The vc width uses
    a different log term: 9 * sqrt((2 d ln(2|G|n) + ln(8/delta)) / n_g).
    """
    if spec.kind not in ("finite_h", "vc"):
        raise ValueError(f"uc_width is defined for finite_h and vc, not {spec.kind!r}")
    if n_g < 0:
        raise ValueError("n_g must be >= 0")
    if n_g == 0:
        return math.inf
    if spec.kind == "finite_h":
        bracket = _bracket(spec)
    else:
        _require(spec, "vc_dim", "group_count", "n_total")
        bracket = (
            2.0 * spec.vc_dim * math.log(2.0 * spec.group_count * spec.n_total)
            + math.log(8.0 / spec.delta)
        )
    return spec.scale * 9.0 * math.sqrt(bracket / n_g)
