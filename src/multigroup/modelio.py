"""Model files: JSON serialization of trained predictors for audit and reuse.

Every model file embeds the schema, the hierarchy, the learner and margin
specs, and a fingerprint of the training data, so a model can be re-checked
later against the exact dataset that produced it.
"""

from __future__ import annotations

import hashlib
from collections import namedtuple
from contextlib import contextmanager
from dataclasses import dataclass

from .algorithms import (
    DecisionList,
    DecisionListEntry,
    GroupTreePredictor,
    PartitionPredictor,
    TraceStep,
)
from .bounds import EpsilonSpec
from .data import DataError, Dataset, check_keys, json_int, json_text, read_json, read_spec, \
    schema_from_json, schema_to_json
from .groups import Group, hierarchy_from_json, hierarchy_to_json
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
    logistic learner without a solver reads as ``"gd"``. A stored solver is
    read as written: a ``"newton"`` file refits without the margin stop of
    ``"newton_margin"``, the default for new fits."""
    learner = doc["learner"]
    if isinstance(learner, dict) and learner.get("kind") == "logistic":
        learner = {"solver": "gd", **learner}
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


# What an auditable model file stores besides its predictor: see stored_header.
ModelHeader = namedtuple("ModelHeader", "schema tree encoder learner epsilon loss")
# The top-level keys of each auditable kind's model file, and of an
# mgl_tree file's nodes; files written before the trace was stored once
# also copy its fields onto each node (_TRACE_COPIES).
_HEADER_KEYS = {"model", "learner", "schema", "include_group_attributes", "n_train",
                "dataset_fingerprint"}
_MODEL_KEYS = {
    "mgl_tree": _HEADER_KEYS | {"hierarchy", "epsilon", "loss", "nodes", "trace"},
    "prepend": _HEADER_KEYS | {"hierarchy", "epsilon", "loss", "default", "entries"},
    "erm": _HEADER_KEYS | {"predictor"},
}
_TRACE_COPIES = ("candidate_risk", "epsilon", "err", "n_g", "parent_risk")
_NODE_KEYS = {"id", "depth", "decision", "source", "predictor", *_TRACE_COPIES}


def stored_header(doc: dict) -> ModelHeader:
    """The header of an mgl_tree, prepend or erm model file. An erm file
    stores no hierarchy, epsilon or loss; they read as None. A file without
    ``include_group_attributes`` was written when the encoder always kept
    the group attributes; any value but a JSON boolean raises ValueError,
    as does a key that no file of its kind holds."""
    check_keys(doc, _MODEL_KEYS[doc["model"]], "model")
    schema = schema_from_json(doc["schema"])
    tree = None if doc["model"] == "erm" else hierarchy_from_json(doc["hierarchy"])
    flag = read_json(bool, doc.get("include_group_attributes", True), "include_group_attributes")
    encoder = FeatureEncoder(schema, flag)
    if tree is None:
        return ModelHeader(schema, None, encoder, stored_learner(doc), None, None)
    return ModelHeader(schema, tree, encoder, stored_learner(doc),
                       read_spec(EpsilonSpec, doc["epsilon"]), loss_from_name(doc["loss"]))


def save_tree_model(path, predictor: GroupTreePredictor, cache: PredictorCache) -> None:
    """Write the model file, and its trace as JSON lines at the same path
    with ``.model.json`` replaced by ``.trace.jsonl``."""
    tree = predictor.tree
    nodes = []
    for g in tree.nodes:  # the steps that decided them are stored once, in "trace"
        entry = {
            "id": g.id,
            "depth": tree.depth(g.id),
            "decision": predictor.decision[g.id],
            "source": predictor.source[g.id],
        }
        if g.id in predictor.fits:  # only nodes that own a fit carry parameters
            entry["predictor"] = predictor.fits[g.id].to_json()
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
    with open(str(path).removesuffix(".model.json") + ".trace.jsonl", "w",
              encoding="utf-8") as fh:
        fh.write("".join(json_text(step) for step in doc["trace"]))


def rebuild_tree_predictor(doc: dict, header: ModelHeader) -> GroupTreePredictor:
    """Reconstruct the predictor stored in a tree model file whose header is
    ``header``. Its ``nodes`` must list the stored hierarchy's nodes once
    each, in breadth-first order and with their depths, as the writer
    writes them. The nodes that are their own source hold their fits; a
    predictor stored on any other node must be a copy of its source's, as
    files written before fits were stored once hold, and a trace field
    copied onto a node must be its trace step's. Callers check the file's
    ``n_train`` and ``dataset_fingerprint`` against the data before
    trusting it."""
    tree = header.tree
    if [entry["id"] for entry in doc["nodes"]] != [g.id for g in tree.nodes]:
        raise ValueError("nodes do not list the hierarchy's nodes in breadth-first order")
    trace = [read_spec(TraceStep, t) for t in doc["trace"]]
    steps = {t["group_id"]: t for t in doc["trace"]}
    fits, source, decision, stored = {}, {}, {}, {}
    for entry in doc["nodes"]:
        check_keys(entry, _NODE_KEYS, "node")
        gid = entry["id"]
        for key in _TRACE_COPIES:
            if key in entry and entry[key] != steps.get(gid, {}).get(key):
                raise ValueError(f"node {gid!r} records {key}={entry[key]!r}, its trace "
                                 f"step {key}={steps.get(gid, {}).get(key)!r}")
        if json_int(entry["depth"], "depth") != tree.depth(gid):
            raise ValueError(f"node {gid!r} records depth {entry['depth']}, "
                             f"the hierarchy gives {tree.depth(gid)}")
        source[gid] = read_json(str, entry["source"], "source")
        decision[gid] = entry["decision"]
        if "predictor" in entry:
            stored[gid] = entry["predictor"]
            if source[gid] == gid:
                fits[gid] = predictor_from_json(entry["predictor"], header.encoder)
    for owner in (tree.root.id, *(source[g.id] for g in tree.nodes)):
        if owner not in fits:
            raise ValueError(f"model file lacks the predictor for source {owner!r}")
    for gid, fit_doc in stored.items():
        if fit_doc != stored.get(source[gid]):
            raise ValueError(f"node {gid!r} stores a predictor that differs from its source "
                             f"{source[gid]!r}'s")
    return GroupTreePredictor(tree, fits, source, decision, trace, header.learner,
                              header.epsilon, header.loss)


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


@dataclass(frozen=True)
class _StoredEntry:
    """An entry of a prepend model file's list, as save_list_model writes it."""

    json_name = "entry"
    group: Group
    source: str
    predictor: object


def rebuild_decision_list(doc: dict, header: ModelHeader) -> DecisionList:
    """Reconstruct the list stored in a prepend model file whose header is
    ``header``. Each entry's group and source must name nodes of the stored
    hierarchy, whose root is "ALL", and its group must repeat that node's
    conjuncts."""
    tree, encoder = header.tree, header.encoder

    def node(role, gid):
        try:
            return tree.node(gid)
        except KeyError:
            raise ValueError(f"entry {role} {gid!r} is not in the model's hierarchy") from None

    entries = []
    for e in read_json(tuple[_StoredEntry, ...], doc["entries"], "entries"):
        group = node("group", e.group.id)
        node("source", e.source)
        if e.group != group:
            raise ValueError(f"entry group {group.id!r} stores other conjuncts than its node")
        entries.append(DecisionListEntry(group, predictor_from_json(e.predictor, encoder),
                                         e.source))
    default = predictor_from_json(doc["default"], encoder)
    return DecisionList(tree, entries, default, header.learner, header.epsilon, header.loss)


def save_partition_model(path, predictor: PartitionPredictor, cache: PredictorCache) -> None:
    doc = _common_header("decoupled", cache, predictor.learner_spec)
    doc.update({
        "fallback": "root",
        "leaves": [
            {
                "id": leaf.id,
                "conjuncts": [list(c) for c in leaf.conjuncts],
                "predictor": predictor.per_leaf.get(leaf.id, predictor.fallback).to_json(),
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
