"""Model files: JSON serialization of trained predictors for audit and reuse.

Every model file embeds the schema, the hierarchy, the learner and margin
specs, and a fingerprint of the training data, so a model can be re-checked
later against the exact dataset that produced it.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager

from .algorithms import (
    DecisionList,
    DecisionListEntry,
    GroupTreePredictor,
    PartitionPredictor,
    TraceStep,
)
from .bounds import EpsilonSpec
from .data import DataError, Dataset, json_text, schema_from_json, schema_to_json
from .groups import hierarchy_from_json, hierarchy_to_json
from .learners import FeatureEncoder, LearnerSpec, PredictorCache, predictor_from_json
from .risk import loss_from_name


class ModelError(ValueError):
    """A model file that cannot be rebuilt, or that does not fit the data it
    is checked against."""


@contextmanager
def reading_model():
    """Re-raise a failure to read a model document inside the block as a
    ModelError: a missing key or a wrong-typed field as ``malformed model
    file: KeyError('decision')``, any other ValueError with its own text. A
    DataError, which only the data file can raise, passes through."""
    try:
        yield
    except (DataError, ModelError):
        raise
    except (KeyError, TypeError, AttributeError) as exc:
        raise ModelError(f"malformed model file: {exc!r}") from exc
    except ValueError as exc:
        raise ModelError(str(exc)) from exc


def dataset_fingerprint(ds: Dataset) -> str:
    """SHA-256 of the dataset's size and columns, hashed once per dataset."""
    return ds.memo(_sha256, _sha256)


def _sha256(ds: Dataset) -> str:
    digest = hashlib.sha256()
    digest.update(str(ds.n).encode())
    for name in ds.schema.column_names():
        digest.update(name.encode())
        arr = ds.columns[name]
        digest.update(str(arr.dtype).encode())
        digest.update(arr.tobytes())
    return digest.hexdigest()


def _dump(doc: dict, path) -> None:
    """Write ``doc`` as ``json_text``; a document that cannot be encoded
    raises ValueError naming the file before the file is opened, so it
    leaves no file."""
    try:
        text = json_text(doc)
    except ValueError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def stored_learner(doc: dict) -> LearnerSpec:
    """The learner spec of a model file. Logistic models written before
    ``LearnerSpec.solver`` existed were fit by gradient descent, so a stored
    logistic learner without a solver reads as ``"gd"``."""
    learner = dict(doc["learner"])
    if learner.get("kind") == "logistic":
        learner.setdefault("solver", "gd")
    return LearnerSpec.from_json(learner)


def _common_header(model_kind: str, cache: PredictorCache, spec: LearnerSpec) -> dict:
    train = cache.ds
    return {
        "model": model_kind,
        "learner": spec.to_json(),
        "schema": schema_to_json(train.schema),
        "include_group_attributes": cache.encoder.include_group_attributes,
        "n_train": train.n,
        "dataset_fingerprint": dataset_fingerprint(train),
    }


def save_tree_model(path, predictor: GroupTreePredictor, cache: PredictorCache) -> None:
    tree = predictor.tree
    source = predictor.source()
    nodes = []
    for g in tree.nodes:  # the steps that decided them are stored once, in "trace"
        entry = {
            "id": g.id,
            "depth": tree.depth(g.id),
            "decision": predictor.decision[g.id],
            "source": source[g.id],
        }
        if source[g.id] == g.id:  # only nodes that own a fit carry parameters
            entry["predictor"] = predictor.working[g.id].to_json()
        nodes.append(entry)
    doc = _common_header("mgl_tree", cache, predictor.learner_spec)
    doc.update({
        "hierarchy": hierarchy_to_json(tree),
        "epsilon": predictor.eps_spec.to_json(),
        "loss": predictor.loss.kind,
        "nodes": nodes,
        "trace": [t.to_json() for t in predictor.trace],
    })
    _dump(doc, path)


def rebuild_tree_predictor(doc: dict) -> GroupTreePredictor:
    """Reconstruct the predictor stored in a tree model file. Callers check
    the file's ``n_train`` and ``dataset_fingerprint`` against the data
    before trusting it."""
    schema = schema_from_json(doc["schema"])
    tree = hierarchy_from_json(doc["hierarchy"])
    encoder = FeatureEncoder(schema, doc.get("include_group_attributes", True))
    spec = stored_learner(doc)
    eps = EpsilonSpec.from_json(doc["epsilon"])
    loss = loss_from_name(doc["loss"])

    owned: dict[str, object] = {}
    source: dict[str, str] = {}
    decision: dict[str, str] = {}
    for entry in doc["nodes"]:
        source[entry["id"]] = entry["source"]
        decision[entry["id"]] = entry["decision"]
        if "predictor" in entry:
            owned[entry["id"]] = predictor_from_json(entry["predictor"], encoder)
    working = {}
    for g in tree.nodes:
        src = source[g.id]
        if src not in owned:
            raise ValueError(f"model file lacks the predictor for source {src!r}")
        working[g.id] = owned[src]
    trace = [TraceStep.from_json(t) for t in doc["trace"]]
    return GroupTreePredictor(tree, working, decision, trace, spec, eps, loss)


def save_list_model(path, dlist: DecisionList, cache: PredictorCache) -> None:
    doc = _common_header("prepend", cache, dlist.learner_spec)
    doc.update({
        "hierarchy": hierarchy_to_json(dlist.tree),
        "epsilon": dlist.eps_spec.to_json(),
        "loss": dlist.loss.kind,
        "default": dlist.default.to_json(),
        "entries": [
            {
                "group": {"id": e.group.id, "conjuncts": [list(c) for c in e.group.conjuncts]},
                "source": e.source_id,
                "predictor": e.predictor.to_json(),
            }
            for e in dlist.entries
        ],
    })
    _dump(doc, path)


def rebuild_decision_list(doc: dict) -> DecisionList:
    """Reconstruct the list stored in a prepend model file. Each entry must
    name a node of the stored hierarchy and repeat that node's conjuncts."""
    schema = schema_from_json(doc["schema"])
    tree = hierarchy_from_json(doc["hierarchy"])
    encoder = FeatureEncoder(schema, doc.get("include_group_attributes", True))
    spec = stored_learner(doc)
    eps = EpsilonSpec.from_json(doc["epsilon"])
    loss = loss_from_name(doc["loss"])
    entries = []
    for e in doc["entries"]:
        gid = e["group"]["id"]
        try:
            group = tree.node(gid)
        except KeyError:
            raise ValueError(f"entry group {gid!r} is not in the model's hierarchy") from None
        if tuple(map(tuple, e["group"]["conjuncts"])) != group.conjuncts:
            raise ValueError(f"entry group {gid!r} stores other conjuncts than its node")
        entries.append(DecisionListEntry(group, predictor_from_json(e["predictor"], encoder),
                                         e["source"]))
    default = predictor_from_json(doc["default"], encoder)
    return DecisionList(tree, entries, default, spec, eps, loss)


def save_partition_model(path, predictor: PartitionPredictor, cache: PredictorCache) -> None:
    doc = _common_header("decoupled", cache, predictor.learner_spec)
    doc.update({
        "fallback": "root",
        "leaves": [
            {
                "id": leaf.id,
                "conjuncts": [list(c) for c in leaf.conjuncts],
                "predictor": predictor.per_leaf[leaf.id].to_json(),
            }
            for leaf in predictor.leaves
        ],
        "root_predictor": predictor.fallback.to_json(),
    })
    _dump(doc, path)


def save_plain_model(path, predictor, cache: PredictorCache, spec: LearnerSpec) -> None:
    doc = _common_header("erm", cache, spec)
    doc["predictor"] = predictor.to_json()
    _dump(doc, path)
