"""Every field of every JSON spec the package reads refuses a value of
another JSON type with exit 2 and a message naming the field, and writes
nothing: the run-config (its top level, a learner, the epsilon, the split
block, and the schema with its columns and bins), a model file's trace
step, learner, epsilon and hierarchy, and the synth spec (its top level, a
leaf and a rule). Each field lists the JSON types its writer writes."""

import json
import pathlib

import pytest

from multigroup.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent

RUN_CONFIG = {
    "dataset": "string null", "schema": "object", "attribute_order": "list null",
    "hierarchy_nodes": "list null", "learners": "list", "epsilon": "object", "loss": "string",
    "split": "object", "methods": "list", "include_group_attributes": "bool",
    "prepend_cap": "int null", "output_dir": "string null",
}
LEARNER = {
    "kind": "string", "max_depth": "int", "learning_rate": "number", "iterations": "int",
    "tolerance": "number", "n_trees": "int", "feature_fraction": "number", "seed": "int",
    "solver": "string",
}
EPSILON = {
    "kind": "string", "delta": "number", "h_size": "int null", "vc_dim": "int null",
    "group_count": "int null", "n_total": "int null", "scale": "number", "value": "number null",
}
SPLIT = {"test_fraction": "number", "seed": "int", "trials": "int"}
SCHEMA = {"columns": "list", "label": "string", "group_attributes": "list", "bins": "object null"}
COLUMN = {"name": "string", "kind": "string", "categories": "list null"}
BIN = {"name": "string", "upper": "number null"}
HIERARCHY = {"nodes": "list"}
# a null epsilon reads as inf, as older files hold
TRACE_STEP = {
    "group_id": "string", "n_g": "int", "parent_risk": "number null",
    "candidate_risk": "number null", "epsilon": "number null", "err": "number null",
    "decision": "string",
}
SYNTH = {"attributes": "object", "leaves": "list", "feature_dim": "int", "noise": "number"}
LEAF = {"attributes": "object", "rule": "object", "count": "int"}
RULE = {"kind": "string", "label": "int null", "weights": "list null", "bias": "number"}

# One value of each JSON type; "number" is a fraction, so that it is of
# another type than an integer field holds too.
VALUES = {"bool": True, "string": "x", "number": 0.5, "list": [1], "object": {"a": 1},
          "null": None}


def wrong_values(types: str) -> list:
    held = set(types.split())
    if "number" in held:
        held.add("int")
    return [value for kind, value in VALUES.items() if kind not in held]


def cases(document: str, table: dict) -> list:
    return [pytest.param(document, key, types, id=f"{document}.{key}")
            for key, types in table.items()]


# fixtures/run.json's schema columns, and bins for its categorical column
COLUMNS = json.loads((ROOT / "fixtures/run.json").read_text())["schema"]["columns"]
BINS = [{"name": "lo", "upper": 0.5}, {"name": "hi"}]


def run_config_setting(document: str, key: str, value) -> str:
    literal = json.dumps(value)
    if document == "config":
        return f"{key}={literal}"
    if document == "learner":
        return f"learners=[{json.dumps({'kind': 'logistic', key: value})}]"
    if document == "column":
        return f"schema.columns={json.dumps([{**COLUMNS[0], key: value}, *COLUMNS[1:]])}"
    if document == "bin":
        return f"schema.bins={json.dumps({'grp': [{**BINS[0], key: value}, BINS[1]]})}"
    return f"{document}.{key}={literal}"


@pytest.mark.parametrize("document, key, types", [
    *cases("config", RUN_CONFIG), *cases("learner", LEARNER), *cases("epsilon", EPSILON),
    *cases("split", SPLIT), *cases("schema", SCHEMA), *cases("column", COLUMN),
    *cases("bin", BIN),
])
def test_run_config_field_of_another_type_exits_2(tmp_path, monkeypatch, capsys, document,
                                                  key, types):
    monkeypatch.chdir(ROOT)
    out = tmp_path / "out"
    for value in wrong_values(types):
        setting = run_config_setting(document, key, value)
        assert main(["train", "--config", "fixtures/run.json", "--out", str(out),
                     "--set", setting]) == 2, setting
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err, (setting, err)
        assert not out.exists()


@pytest.mark.parametrize("document, key, types", cases("trace step", TRACE_STEP))
def test_trace_step_field_of_another_type_exits_2(tmp_path, capsys, document, key, types):
    doc = json.loads((ROOT / "demo/models/mgl_tree.logistic.model.json").read_text())
    model = tmp_path / "model.json"
    for value in wrong_values(types):
        doc["trace"][0][key] = value
        model.write_text(json.dumps(doc))
        assert main(["audit", "--model", str(model), "--data",
                     str(ROOT / "demo/data.csv")]) == 2, value
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and key in err, (value, err)


@pytest.mark.parametrize("model", ["mgl_tree", "prepend"])
@pytest.mark.parametrize("document, key, types", cases("hierarchy", HIERARCHY))
def test_hierarchy_field_of_another_type_exits_2(tmp_path, capsys, model, document, key, types):
    doc = json.loads((ROOT / f"demo/models/{model}.logistic.model.json").read_text())
    path = tmp_path / "model.json"
    for value in wrong_values(types):
        doc["hierarchy"][key] = value
        path.write_text(json.dumps(doc))
        assert main(["audit", "--model", str(path), "--data",
                     str(ROOT / "demo/data.csv")]) == 2, value
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and key in err, (value, err)


@pytest.mark.parametrize("document, key, types", [
    *cases("synth", SYNTH), *cases("leaf", LEAF), *cases("rule", RULE),
])
def test_synth_spec_field_of_another_type_exits_2(tmp_path, capsys, document, key, types):
    spec = tmp_path / "synth.json"
    out = tmp_path / "synth.csv"
    for value in wrong_values(types):
        doc = json.loads((ROOT / "fixtures/synth.json").read_text())
        leaf = doc["leaves"][0]
        {"synth": doc, "leaf": leaf, "rule": leaf["rule"]}[document][key] = value
        spec.write_text(json.dumps(doc))
        assert main(["synth", "--spec", str(spec), "--out", str(out)]) == 2, value
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err, (value, err)
        assert not out.exists()


@pytest.mark.parametrize("key", ["learner", "epsilon"])
def test_stored_learner_or_epsilon_of_another_type_exits_2(tmp_path, capsys, key):
    doc = json.loads((ROOT / "demo/models/mgl_tree.logistic.model.json").read_text())
    model = tmp_path / "model.json"
    for value in wrong_values("object"):
        doc[key] = value
        model.write_text(json.dumps(doc))
        assert main(["audit", "--model", str(model), "--data",
                     str(ROOT / "demo/data.csv")]) == 2, value
        out, err = capsys.readouterr()
        assert (out, err) == ("", f"error: {key} must be an object, got {value!r}\n")
