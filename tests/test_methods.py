"""methods.group_risks, which gives every train-table and report.json error,
against the per-group mask oracle."""

import dataclasses

import numpy as np
import pytest

from multigroup.algorithms import decoupled
from multigroup.data import make_synthetic
from multigroup.groups import build_hierarchy
from multigroup.learners import EmptyGroupError, LearnerSpec, PredictorCache
from multigroup.methods import group_risks
from multigroup.risk import CLIPPED_LOGISTIC, ZERO_ONE

from oracles import group_risk
from synthcases import random_hierarchical_spec


def _agrees(got, want, loss):
    """Exact for zero-one losses, whose sums are small integers; to 1e-12
    for clipped logistic, where the order of the sums may differ."""
    if want.absent:
        return got is None
    if loss is ZERO_ONE:
        return got == want.value
    return got is not None and abs(got - want.value) <= 1e-12


@pytest.mark.parametrize("kind", ["constant", "logistic"])
def test_group_risks_match_mask_oracle(kind):
    rng = np.random.default_rng(61)
    spec = LearnerSpec(kind)
    seen = {"empty": 0, "unfit": 0, "scored": 0}
    for _ in range(3):
        planted = random_hierarchical_spec(rng)
        # empty some leaves, so some groups of every depth may have no rows
        planted = dataclasses.replace(planted, leaves=tuple(
            dataclasses.replace(leaf, count=0) if i and rng.random() < 0.3 else leaf
            for i, leaf in enumerate(planted.leaves)))
        ds = make_synthetic(planted, seed=int(rng.integers(1 << 30)))
        tree = build_hierarchy(ds.schema, list(planted.attributes))
        rows = tree.rows(ds)
        cache = PredictorCache(ds)

        fits = {}
        for g in tree.nodes:
            try:
                fits[g.id] = cache.group_erm(spec, tree, g)
            except EmptyGroupError:
                pass
        # some observed groups have no fit in the dict form
        fits = {gid: f for gid, f in fits.items() if gid == "ALL" or rng.random() < 0.7}
        shared = [cache.erm(spec), decoupled(cache, tree, spec)]

        for loss in (ZERO_ONE, CLIPPED_LOGISTIC):
            for fitted in shared:
                got = group_risks(fitted, ds, tree, loss)
                assert list(got) == [g.id for g in tree.nodes]
                for g in tree.nodes:
                    assert _agrees(got[g.id], group_risk(fitted, ds, g, loss), loss), g.id
            got = group_risks(fits, ds, tree, loss)
            assert list(got) == [g.id for g in tree.nodes]
            for g, r in zip(tree.nodes, rows):
                if g.id not in fits:
                    assert got[g.id] is None, g.id
                    seen["empty" if not len(r) else "unfit"] += 1
                else:
                    assert _agrees(got[g.id], group_risk(fits[g.id], ds, g, loss), loss), g.id
                    seen["scored"] += 1
    assert min(seen.values()) > 0, seen
