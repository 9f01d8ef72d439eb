import concurrent.futures
import csv
import json
import math
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from multigroup import cli, learners
from multigroup.algorithms import monotonicity_audit
from multigroup.cli import main
from multigroup.data import (LeafRule, SyntheticLeaf, SyntheticSpec, json_text, load_csv,
                            make_synthetic, schema_from_json, schema_to_json, write_csv)
from multigroup.learners import PredictorCache
from multigroup.modelio import rebuild_tree_predictor, stored_header, stored_learner

import oracles
from synthcases import inverted_leaf_spec, two_leaf_constants

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _reject(literal):
    raise ValueError(f"non-standard JSON literal {literal}")


def _json_files(top):
    return {p: p.read_bytes() for p in top.rglob("*")
            if p.suffix in (".json", ".jsonl") and p.is_file()}


@pytest.fixture(autouse=True)
def cli_writes_strict_json(tmp_path, monkeypatch):
    """Every .json or .jsonl file a command writes parses as strict JSON.

    The tests call ``main``; this swaps it for a wrapper that parses each
    such file under tmp_path that the command created or changed. Inputs the
    tests write themselves (such as a deliberately broken config) are not
    checked.
    """
    def checked_main(argv):
        before = _json_files(tmp_path)
        code = cli.main(argv)
        for path, data in _json_files(tmp_path).items():
            if before.get(path) != data:
                text = data.decode()
                for doc in (text.splitlines() if path.suffix == ".jsonl" else [text]):
                    json.loads(doc, parse_constant=_reject)
        return code

    monkeypatch.setitem(globals(), "main", checked_main)


def write_fixture(tmp_path, spec=None, seed=7):
    ds = make_synthetic(spec, seed) if spec is not None else two_leaf_constants()
    csv_path = tmp_path / "data.csv"
    write_csv(ds, csv_path)
    return ds, csv_path


def base_config(ds, csv_path, **extra):
    doc = {
        "dataset": str(csv_path),
        "schema": schema_to_json(ds.schema),
        "attribute_order": list(ds.schema.group_attributes),
        "learners": [{"kind": "constant"}],
        "epsilon": {"kind": "constant", "value": 0.0},
        "split": {"test_fraction": 0.2, "seed": 3, "trials": 2},
    }
    doc.update(extra)
    return doc


def dumps_1e400(doc):
    """json.dumps, writing each string "1e400" as the bare number 1e400: strict
    JSON that json.load reads as inf, which json.dumps itself cannot emit."""
    return json.dumps(doc).replace('"1e400"', "1e400")


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return path


def test_validate_hierarchy_ok(tmp_path, capsys):
    ds, csv_path = write_fixture(tmp_path)
    cfg = write_config(tmp_path, base_config(ds, csv_path))
    assert main(["validate-hierarchy", "--config", str(cfg)]) == 0
    assert "VALID" in capsys.readouterr().out


def test_validate_hierarchy_crossing_predicates(tmp_path, capsys):
    spec = inverted_leaf_spec(n_per_leaf=5, noise=0.0)
    ds, csv_path = write_fixture(tmp_path, spec)
    doc = base_config(ds, csv_path)
    del doc["attribute_order"]
    doc["hierarchy_nodes"] = [[], [["a1", "p"]], [["a2", "u"]]]
    cfg = write_config(tmp_path, doc)
    assert main(["validate-hierarchy", "--config", str(cfg)]) == 1
    out = capsys.readouterr().out
    assert "INVALID" in out and "a1=p" in out and "a2=u" in out


@pytest.mark.parametrize("nodes, message", [
    ([[], [["grp", "a"]], [["grp", "zzz"]]],
     "group 'grp=zzz' tests unknown category 'zzz' of 'grp'"),
    ([[], [["x0", "a"]]], "group 'x0=a' tests non-categorical attribute 'x0'"),
], ids=["unknown_category", "numeric_attribute"])
@pytest.mark.parametrize("command", [
    ["validate-hierarchy"], ["train", "--out", "out"], ["evaluate", "--out", "out"],
], ids=["validate", "train", "evaluate"])
def test_bad_hierarchy_conjunct_is_reported(tmp_path, monkeypatch, capsys, nodes, message,
                                            command):
    """A conjunct that does not fit the data's columns is a SchemaError:
    exit 2 from every command."""
    ds, csv_path = write_fixture(tmp_path)
    doc = base_config(ds, csv_path)
    del doc["attribute_order"]
    doc["hierarchy_nodes"] = nodes
    cfg = write_config(tmp_path, doc)
    monkeypatch.chdir(tmp_path)
    assert main([command[0], "--config", str(cfg), *command[1:]]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


CROSSING = "(a1=p, a2=u): overlap without containment"


@pytest.mark.parametrize("methods", [None, ["erm", "group_erm", "prepend"]],
                         ids=["all_methods", "no_tree_methods"])
@pytest.mark.parametrize("command", ["validate-hierarchy", "train", "evaluate"])
def test_crossing_hierarchy_is_refused_before_fitting(tmp_path, capsys, command, methods):
    ds, csv_path = write_fixture(tmp_path, inverted_leaf_spec(n_per_leaf=5, noise=0.0))
    doc = base_config(ds, csv_path, epsilon={"kind": "constant", "value": 0.05})
    del doc["attribute_order"]
    doc["hierarchy_nodes"] = [[], [["a1", "p"]], [["a1", "q"]], [["a2", "u"]]]
    if methods is not None:
        doc["methods"] = methods
    cfg = write_config(tmp_path, doc)
    out_dir = tmp_path / "out"
    argv = [command, "--config", str(cfg)]
    if command != "validate-hierarchy":
        argv += ["--out", str(out_dir)]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    if command == "validate-hierarchy":
        assert (out, err) == (f"INVALID\n  {CROSSING}\n", "")
    else:
        assert err == f"error: invalid hierarchy: {CROSSING}\n"
        assert not out_dir.exists() or not any(out_dir.iterdir())


def test_validate_hierarchy_malformed_json(tmp_path):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["validate-hierarchy", "--config", str(bad)]) == 2


@pytest.mark.parametrize("extra", [
    {"surprise": True}, {"prepend_cap": 0}, {"prepend_cap": "abc"}, {"prepend_cap": True},
    {"prepend_cap": 1.5}, {"epsilon": {"kind": "constant", "value": float("nan")}},
    {"epsilon": {"kind": "scaled", "scale": float("nan")}},
    {"learners": [{"kind": "logistic", "solver": "lbfgs"}]},
    {"learners": [{"kind": "logistic", "tolerance": float("nan")}]},
    {"learners": [{"kind": "logistic", "solver": "gd", "learning_rate": float("nan")}]},
    {"learners": [{"kind": "tree", "max_depth": float("inf")}]},
    {"learners": [{"kind": "bagged_trees", "n_trees": float("-inf")}]},
    {"learners": [{"kind": "tree", "max_depth": float("nan")}]},
    {"epsilon": {"kind": "scaled", "scale": float("inf")}},
    {"learners": [{"kind": "logistic", "tolerance": float("inf")}]},
    {"learners": [{"kind": "logistic", "solver": "gd", "learning_rate": float("inf")}]},
    {"split": {"test_fraction": 0.2, "seed": 3, "trials": float("inf")}},
    {"split": {"test_fraction": 0.2, "seed": float("inf"), "trials": 2}},
    {"epsilon": {"kind": "vc", "vc_dim": float("inf")}},
    {"split": {"test_fraction": float("inf"), "seed": 3, "trials": 2}},
    {"schema": {"columns": [{"name": "grp", "kind": "categorical"},
                            {"name": "x0", "kind": "numeric"},
                            {"name": "label", "kind": "binary-label"}],
                "label": "label", "group_attributes": ["grp"],
                "bins": {"grp": [{"name": "a", "upper": float("inf")}, {"name": "b"}]}}},
    {"include_group_attributes": "false"}, {"include_group_attributes": 0},
    {"include_group_attributes": None},
    {"schema": {"columns": [{"name": "grp", "kind": "categorical", "categories": [1, 2]},
                            {"name": "x0", "kind": "numeric"},
                            {"name": "label", "kind": "binary-label"}],
                "label": "label", "group_attributes": ["grp"]}},
    {"schema": {"columns": [{"name": "grp", "kind": "categorical"},
                            {"name": "x0", "kind": "numeric"},
                            {"name": "label", "kind": "binary-label"}],
                "label": "label", "group_attributes": ["grp"],
                "bins": {"grp": [{"name": 1, "upper": 0.5}, {"name": "b"}]}}},
], ids=["unknown_key", "cap_zero", "cap_string", "cap_bool", "cap_float", "nan_value",
        "nan_scale", "unknown_solver", "nan_tolerance", "nan_learning_rate",
        "infinite_depth", "infinite_trees", "nan_depth", "infinite_scale",
        "infinite_tolerance", "infinite_learning_rate", "infinite_trials", "infinite_seed",
        "infinite_vc_dim", "infinite_test_fraction", "infinite_bin_edge",
        "groups_flag_string", "groups_flag_number", "groups_flag_null",
        "number_categories", "number_bin_name"])
def test_config_rejects_bad_input(tmp_path, extra):
    ds, csv_path = write_fixture(tmp_path)
    doc = base_config(ds, csv_path)
    doc.update(extra)
    cfg = write_config(tmp_path, doc)
    assert main(["validate-hierarchy", "--config", str(cfg)]) == 2
    out = str(tmp_path / "out")
    assert main(["train", "--config", str(cfg), "--out", out]) == 2
    assert main(["evaluate", "--config", str(cfg), "--out", out]) == 2


def test_group_attributes_flag_is_a_json_boolean(tmp_path, capsys):
    """--set include_group_attributes="false" passes the string "false",
    which must be refused, not read as true."""
    ds, csv_path = write_fixture(tmp_path)
    cfg = write_config(tmp_path, base_config(ds, csv_path))
    argv = ["validate-hierarchy", "--config", str(cfg), "--set"]
    assert main(argv + ['include_group_attributes="false"']) == 2
    assert capsys.readouterr().err == \
        "error: include_group_attributes must be true or false, got 'false'\n"
    assert main(argv + ["include_group_attributes=false"]) == 0


@pytest.mark.parametrize("key, setting", [
    ("trials", "split.trials=Infinity"),
    ("seed", "split.seed=-Infinity"),
    ("vc_dim", 'epsilon={"kind":"vc","vc_dim":1e400}'),
])
@pytest.mark.parametrize("command", ["validate-hierarchy", "train", "evaluate"])
def test_infinite_integer_field_is_reported(tmp_path, capsys, key, setting, command):
    """An infinite integer field exits 2 with a message naming it, not an
    OverflowError traceback."""
    ds, csv_path = write_fixture(tmp_path)
    cfg = write_config(tmp_path, base_config(ds, csv_path))
    argv = [command, "--config", str(cfg), "--set", setting]
    if command != "validate-hierarchy":
        argv += ["--out", str(tmp_path / "out")]
    assert main(argv) == 2
    sign = "-" if "-Inf" in setting else ""
    assert capsys.readouterr().err == f"error: {key} must be finite, got {sign}inf\n"


# Each real-valued field, as a --set override that puts {} in it
REAL_FIELDS = {
    "learning_rate": 'learners=[{{"kind":"logistic","solver":"gd","learning_rate":{}}}]',
    "tolerance": 'learners=[{{"kind":"logistic","tolerance":{}}}]',
    "feature_fraction": 'learners=[{{"kind":"bagged_trees","feature_fraction":{}}}]',
    "delta": 'epsilon={{"kind":"vc","vc_dim":2,"delta":{}}}',
    "scale": 'epsilon={{"kind":"scaled","scale":{}}}',
    "value": 'epsilon={{"kind":"constant","value":{}}}',
    "test_fraction": "split.test_fraction={}",
}


@pytest.mark.parametrize("literal, shown", [("true", "True"), ('"2"', "'2'"), ("[1]", "[1]")],
                         ids=["bool", "string", "list"])
@pytest.mark.parametrize("key", list(REAL_FIELDS))
def test_real_valued_field_must_be_a_json_number(tmp_path, capsys, key, literal, shown):
    """A boolean, a string or a list in a real-valued field exits 2 with a
    message naming the field; before, true read as 1.0 and "2" as 2.0."""
    ds, csv_path = write_fixture(tmp_path)
    cfg = write_config(tmp_path, base_config(ds, csv_path))
    argv = ["--config", str(cfg), "--set", REAL_FIELDS[key].format(literal)]
    assert main(["validate-hierarchy"] + argv) == 2
    assert capsys.readouterr().err == f"error: {key} must be a number, got {shown}\n"
    assert main(["train", "--out", str(tmp_path / "out")] + argv) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, literal", [("learning_rate", "1"), ("tolerance", "0"),
                                          ("feature_fraction", "1"), ("scale", "2"),
                                          ("value", "1")])
def test_real_valued_field_accepts_an_integer(tmp_path, key, literal):
    ds, csv_path = write_fixture(tmp_path)
    cfg = write_config(tmp_path, base_config(ds, csv_path))
    assert main(["validate-hierarchy", "--config", str(cfg), "--set",
                 REAL_FIELDS[key].format(literal)]) == 0


def test_audit_refuses_a_stored_learner_with_a_boolean_tolerance(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    doc = json.loads((ROOT / "demo" / "models" / "mgl_tree.logistic.model.json").read_text())
    doc["learner"]["tolerance"] = True
    model_path = tmp_path / "model.json"
    model_path.write_text(json.dumps(doc))
    assert main(["audit", "--model", str(model_path), "--data", "demo/data.csv"]) == 2
    assert capsys.readouterr().err == "error: tolerance must be a number, got True\n"


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_evaluate_jobs_must_be_at_least_one(tmp_path, capsys, jobs):
    ds, csv_path = write_fixture(tmp_path)
    cfg = write_config(tmp_path, base_config(ds, csv_path))
    out = tmp_path / "out"
    assert main(["evaluate", "--config", str(cfg), "--out", str(out), "--jobs", jobs]) == 2
    assert capsys.readouterr().err == f"error: --jobs must be >= 1, got {jobs}\n"
    assert not out.exists()


def test_importing_the_cli_leaves_multiprocessing_unloaded():
    code = "import sys, multigroup.cli; print('multiprocessing' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert done.stdout == "False\n"


def test_evaluate_with_more_jobs_than_trials_builds_no_pool(tmp_path, monkeypatch):
    """One trial runs inline whatever --jobs says, and writes the report
    that --jobs 1 writes."""
    ds, csv_path = write_fixture(tmp_path)
    doc = base_config(ds, csv_path)
    doc["split"]["trials"] = 1
    cfg = write_config(tmp_path, doc)
    assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "one"),
                 "--jobs", "1"]) == 0

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was built")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "four"),
                 "--jobs", "4"]) == 0
    for name in ("report.csv", "report.json"):
        assert (tmp_path / "four" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


def test_synth_emits_loadable_csv(tmp_path):
    spec_doc = {
        "attributes": {"grp": ["a", "b"]},
        "feature_dim": 2,
        "noise": 0.1,
        "leaves": [
            {"attributes": {"grp": "a"}, "count": 30,
             "rule": {"kind": "linear", "weights": [1.0, -1.0]}},
            {"attributes": {"grp": "b"}, "count": 20,
             "rule": {"kind": "constant", "label": 0}},
        ],
    }
    spec_path = tmp_path / "synth.json"
    spec_path.write_text(json.dumps(spec_doc))
    out_csv = tmp_path / "synth.csv"
    assert main(["synth", "--spec", str(spec_path), "--seed", "5",
                 "--out", str(out_csv)]) == 0
    assert out_csv.exists()
    schema_doc = json.loads((tmp_path / "synth.csv.schema.json").read_text())
    ds = load_csv(out_csv, schema_from_json(schema_doc))
    assert ds.n == 50


@pytest.mark.parametrize("target", ["out", "schema-out"])
def test_synth_unwritable_output_exits_2(tmp_path, capsys, target):
    """A missing output directory is an I/O failure: exit 2, no traceback."""
    paths = {"out": str(tmp_path / "x.csv"), "schema-out": str(tmp_path / "x.schema.json")}
    paths[target] = str(tmp_path / "missing" / "x")
    argv = ["synth", "--spec", str(ROOT / "fixtures" / "synth.json")]
    assert main(argv + [f"--{k}={v}" for k, v in paths.items()]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "No such file or directory" in err
    assert err.count("\n") == 1


@pytest.mark.parametrize("key", ["feature_dim", "count"])
def test_synth_rejects_infinite_integer(tmp_path, capsys, key):
    leaf = {"attributes": {"grp": "a"}, "count": 3, "rule": {"kind": "constant", "label": 1}}
    spec_doc = {"attributes": {"grp": ["a"]}, "leaves": [leaf]}
    (spec_doc if key == "feature_dim" else leaf)[key] = "1e400"
    spec_path = tmp_path / "synth.json"
    spec_path.write_text(dumps_1e400(spec_doc))
    out_csv = tmp_path / "synth.csv"
    assert main(["synth", "--spec", str(spec_path), "--out", str(out_csv)]) == 1
    assert capsys.readouterr().err == f"error: {key} must be finite, got inf\n"
    assert not out_csv.exists()


@pytest.mark.parametrize("value", [2.7, True, "3"], ids=["fraction", "bool", "string"])
@pytest.mark.parametrize("field, code", [
    ("count", 1), ("feature_dim", 1), ("trials", 2), ("seed", 2), ("max_depth", 2),
    ("vc_dim", 2), ("feature", 2),
])
def test_integer_field_refuses_non_integers(tmp_path, monkeypatch, capsys, field, code, value):
    """An integer field holding a fraction, a boolean or a string is refused
    with a message naming it, not truncated or coerced: synth fields exit 1,
    config fields 2, and a stored tree's split feature makes audit exit 2."""
    monkeypatch.chdir(ROOT)
    if field in ("count", "feature_dim"):
        leaf = {"attributes": {"grp": "a"}, "count": 3, "rule": {"kind": "constant", "label": 1}}
        doc = {"attributes": {"grp": ["a"]}, "leaves": [leaf]}
        (doc if field == "feature_dim" else leaf)[field] = value
        argv = ["synth", "--spec", "{path}", "--out", str(tmp_path / "synth.csv")]
    elif field == "feature":
        doc = json.loads(
            (ROOT / "fixtures/golden_bagged/mgl_tree.bagged5_depth3.model.json").read_text())
        doc["nodes"][0]["predictor"]["trees"][0]["feature"] = value
        argv = ["audit", "--model", "{path}", "--data", "demo/data.csv"]
    else:
        ds, csv_path = write_fixture(tmp_path)
        doc = base_config(ds, csv_path)
        if field == "max_depth":
            doc["learners"] = [{"kind": "tree", "max_depth": value}]
        elif field == "vc_dim":
            doc["epsilon"] = {"kind": "vc", "vc_dim": value}
        else:
            doc["split"][field] = value
        argv = ["validate-hierarchy", "--config", "{path}"]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    assert main([str(path) if a == "{path}" else a for a in argv]) == code
    assert capsys.readouterr().err == f"error: {field} must be an integer, got {value!r}\n"
    assert not (tmp_path / "synth.csv").exists()


@pytest.mark.parametrize("attributes, leaf_value", [
    ([1, 2], 1), (["a", None], "a"), (["a"], 1),
], ids=["number_categories", "null_category", "number_leaf_value"])
def test_synth_rejects_non_string_categories(tmp_path, capsys, attributes, leaf_value):
    """Category names and leaf values must be JSON strings; anything else is
    a malformed spec (exit 2), refused before any CSV is written."""
    leaf = {"attributes": {"grp": leaf_value}, "count": 3,
            "rule": {"kind": "constant", "label": 1}}
    spec_path = tmp_path / "synth.json"
    spec_path.write_text(json.dumps({"attributes": {"grp": attributes}, "leaves": [leaf]}))
    out_csv = tmp_path / "synth.csv"
    assert main(["synth", "--spec", str(spec_path), "--out", str(out_csv)]) == 2
    bad = next(v for v in attributes + [leaf_value] if not isinstance(v, str))
    assert capsys.readouterr().err == ("error: malformed synthetic spec: TypeError(\"categories "
                                       f"of 'grp' must be strings, got {bad!r}\")\n")
    assert not out_csv.exists()


@pytest.mark.parametrize("value", ["0.3", True, [0.1]], ids=["string", "bool", "list"])
def test_synth_noise_must_be_a_json_number(tmp_path, capsys, value):
    doc = json.loads((ROOT / "fixtures" / "synth.json").read_text())
    doc["noise"] = value
    spec_path = tmp_path / "synth.json"
    spec_path.write_text(json.dumps(doc))
    out_csv = tmp_path / "synth.csv"
    assert main(["synth", "--spec", str(spec_path), "--out", str(out_csv)]) == 1
    assert capsys.readouterr().err == f"error: noise must be a number, got {value!r}\n"
    assert not out_csv.exists()


@pytest.mark.parametrize("label", [True, 1.0, "1", 2], ids=["bool", "float", "string", "two"])
def test_synth_constant_label_must_be_the_integer_0_or_1(tmp_path, capsys, label):
    leaf = {"attributes": {"grp": "a"}, "count": 3, "rule": {"kind": "constant", "label": label}}
    spec_path = tmp_path / "synth.json"
    spec_path.write_text(json.dumps({"attributes": {"grp": ["a"]}, "leaves": [leaf]}))
    out_csv = tmp_path / "synth.csv"
    assert main(["synth", "--spec", str(spec_path), "--out", str(out_csv)]) == 1
    assert capsys.readouterr().err == f"error: label must be the integer 0 or 1, got {label!r}\n"
    assert not out_csv.exists()


def linear_synth_spec(**rule):
    leaf = {"attributes": {"grp": "a"}, "count": 6,
            "rule": {"kind": "linear", "weights": [1.0, -1.0], **rule}}
    return {"attributes": {"grp": ["a"]}, "feature_dim": 2, "leaves": [leaf]}


@pytest.mark.parametrize("rule, message", [
    ({"bias": float("nan")}, "rule bias must hold finite numbers, got nan"),
    ({"bias": "1e400"}, "rule bias must hold finite numbers, got inf"),
    ({"bias": "0.5"}, "rule bias must hold finite numbers, got '0.5'"),
    ({"bias": True}, "rule bias must hold finite numbers, got True"),
    ({"weights": "ab"}, "rule weights must hold finite numbers, got 'a'"),
    ({"weights": [1.0, float("nan")]}, "rule weights must hold finite numbers, got nan"),
    ({"weights": [1.0, None]}, "rule weights must hold finite numbers, got None"),
], ids=["nan_bias", "infinite_bias", "string_bias", "bool_bias", "string_weights",
        "nan_weight", "null_weight"])
def test_synth_rejects_bad_rule_numbers(tmp_path, capsys, rule, message):
    """A rule whose bias or weights are not finite numbers fails the spec,
    before any row is drawn or written."""
    spec_path = tmp_path / "synth.json"
    spec_path.write_text(dumps_1e400(linear_synth_spec(**rule)))
    out_csv = tmp_path / "synth.csv"
    assert main(["synth", "--spec", str(spec_path), "--out", str(out_csv)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out_csv.exists()


@pytest.mark.parametrize("change", [
    {"leaves": 5}, {"leaves": ["leaf"]}, {"attributes": 5}, {"attributes": {"grp": 5}},
    {"leaves": [{"attributes": {"grp": "a"}, "count": 6,
                 "rule": {"kind": "linear", "weights": 5}}]},
    {"leaves": [{"attributes": {"grp": "a"}, "count": 6}]},
], ids=["leaves_number", "leaf_string", "attributes_number", "categories_number",
        "weights_number", "rule_missing"])
def test_synth_rejects_wrong_typed_spec(tmp_path, capsys, change):
    """A field of the wrong JSON type, or a missing one, exits 2 without a
    traceback, as the other malformed input files do."""
    spec_path = tmp_path / "synth.json"
    spec_path.write_text(json.dumps({**linear_synth_spec(), **change}))
    out_csv = tmp_path / "synth.csv"
    assert main(["synth", "--spec", str(spec_path), "--out", str(out_csv)]) == 2
    assert capsys.readouterr().err.startswith("error: malformed synthetic spec: ")
    assert not out_csv.exists()


def test_train_marks_updates_with_zero_margin(tmp_path):
    ds, csv_path = write_fixture(tmp_path)
    out_dir = tmp_path / "out"
    cfg = write_config(tmp_path, base_config(
        ds, csv_path, methods=["mgl_tree"], epsilon={"kind": "constant", "value": 0.0}))
    assert main(["train", "--config", str(cfg), "--out", str(out_dir)]) == 0
    model = json.loads((out_dir / "mgl_tree.constant.model.json").read_text())
    decisions = {n["id"]: n["decision"] for n in model["nodes"]}
    assert decisions == {"ALL": "root", "grp=a": "updated", "grp=b": "updated"}


def test_train_is_idempotent(tmp_path):
    ds, csv_path = write_fixture(tmp_path)
    out_dir = tmp_path / "out"
    cfg = write_config(tmp_path, base_config(
        ds, csv_path, methods=["erm", "mgl_tree", "prepend", "decoupled", "group_erm"],
        epsilon={"kind": "constant", "value": 0.25}))
    assert main(["train", "--config", str(cfg), "--out", str(out_dir)]) == 0
    first = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert set(first) == {
        "erm.constant.model.json", "mgl_tree.constant.model.json",
        "mgl_tree.constant.trace.jsonl", "prepend.constant.model.json",
        "decoupled.constant.model.json",
    }
    assert main(["train", "--config", str(cfg), "--out", str(out_dir)]) == 0
    second = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    assert first == second


def test_train_infinite_margin_inherits_everything(tmp_path, capsys):
    ds, csv_path = write_fixture(tmp_path)
    out_dir = tmp_path / "out"
    cfg = write_config(tmp_path, base_config(
        ds, csv_path, methods=["mgl_tree"], epsilon={"kind": "constant", "value": "inf"}))
    assert main(["train", "--config", str(cfg), "--out", str(out_dir)]) == 0
    model_path = out_dir / "mgl_tree.constant.model.json"
    model = json.loads(model_path.read_text())
    non_root = [n["decision"] for n in model["nodes"] if n["id"] != "ALL"]
    assert all(d == "inherited" for d in non_root)
    assert model["trace"][0]["epsilon"] == "inf" and model["trace"][0]["err"] == "-inf"
    assert main(["audit", "--model", str(model_path), "--data", str(csv_path)]) == 0
    assert "AUDIT CLEAN" in capsys.readouterr().out

    # model files written before infinities became strings hold the literal
    literal = {"inf": float("inf"), "-inf": float("-inf")}
    for entry in model["nodes"] + model["trace"]:
        for key in ("epsilon", "err"):
            if key in entry:
                entry[key] = literal.get(entry[key], entry[key])
    model_path.write_text(json.dumps(model))
    assert "-Infinity" in model_path.read_text()
    assert main(["audit", "--model", str(model_path), "--data", str(csv_path)]) == 0
    assert "AUDIT CLEAN" in capsys.readouterr().out


def test_evaluate_infinite_margin_echo_is_strict_json(tmp_path):
    ds, csv_path = write_fixture(tmp_path)
    out_dir = tmp_path / "report"
    inf_margin = {"kind": "constant", "value": "inf"}
    cfg = write_config(tmp_path, base_config(
        ds, csv_path, methods=["erm", "mgl_tree", "prepend"], epsilon=inf_margin))
    assert main(["evaluate", "--config", str(cfg), "--out", str(out_dir)]) == 0
    report_doc = json.loads((out_dir / "report.json").read_text(), parse_constant=_reject)
    assert report_doc["config"]["epsilon"] == inf_margin


def _flip(decision):
    return {"updated": "inherited", "inherited": "updated"}[decision]


def _tamper(doc, case):
    """Edit one part of an mgl_tree model file in place."""
    step = doc["trace"][0]
    node = next(n for n in doc["nodes"] if n["id"] == "grp=b")
    if case == "trace_decision":
        step["decision"] = _flip(step["decision"])
    elif case == "trace_err":
        step["err"] += 0.5
    elif case == "trace_n_g":
        step["n_g"] += 1
    elif case == "trace_truncated":
        doc["trace"] = doc["trace"][:-1]
    elif case == "trace_reordered":
        doc["trace"] = doc["trace"][::-1]
    elif case == "node_source":  # the leaf's fit swapped for the global one
        node["source"] = "ALL"
        node.pop("predictor")
    elif case == "predictor_params":  # every stored fit now predicts the other label
        for entry in doc["nodes"]:
            params = entry.get("predictor")
            if params is None:
                continue
            if params["type"] == "constant":
                params["score"] = 1.0 - params["score"]
            else:
                params["weights"] = [-w for w in params["weights"]]
                params["intercept"] = -params["intercept"]
    elif case == "node_decision":
        node["decision"] = _flip(node["decision"])
    else:
        assert case == "clean"


@pytest.mark.parametrize("learner", ["constant", "logistic"])
@pytest.mark.parametrize("case, code", [
    ("clean", 0), ("trace_decision", 1), ("trace_err", 1), ("trace_n_g", 1),
    ("trace_truncated", 2), ("trace_reordered", 2), ("node_source", 1),
    ("predictor_params", 1), ("node_decision", 1),
])
def test_audit_tamper_matrix(tmp_path, capsys, learner, case, code):
    ds, csv_path = write_fixture(tmp_path)
    out_dir = tmp_path / "out"
    cfg = write_config(tmp_path, base_config(
        ds, csv_path, methods=["mgl_tree"], learners=[{"kind": learner}],
        epsilon={"kind": "constant", "value": 0.0}))
    assert main(["train", "--config", str(cfg), "--out", str(out_dir)]) == 0
    model_path = out_dir / f"mgl_tree.{learner}.model.json"
    doc = json.loads(model_path.read_text())
    # a zero margin updates both leaves, so grp=b owns a fit to tamper with
    assert [n["decision"] for n in doc["nodes"]] == ["root", "updated", "updated"]
    _tamper(doc, case)
    model_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["audit", "--model", str(model_path), "--data", str(csv_path)]) == code
    out, err = capsys.readouterr()
    if code == 2:
        assert err == "error: trace does not match the tree's breadth-first order\n"
    else:
        assert ("AUDIT CLEAN" if code == 0 else "AUDIT FAILED") in out


def _break_model(doc, case):
    """Edit a model file over the hierarchy ALL, a1=p, a1=q so that it cannot be rebuilt."""
    if case == "not_an_object":
        return [doc]
    if case == "kind_a_list":
        doc["model"] = [doc["model"]]
    elif case == "group_attributes_a_string":
        doc["include_group_attributes"] = "no"
    elif case == "trace_without_decision":
        del doc["trace"][0]["decision"]
    elif case == "nodes_missing_a_node":
        doc["nodes"].pop()
    elif case == "orphan_node":
        doc["hierarchy"]["nodes"].append([["a1", "p"], ["a2", "zz"], ["a3", "s"]])
    elif case == "crossing_hierarchy":
        doc["hierarchy"]["nodes"].append([["a2", "u"]])
    elif case == "infinite_group_count":
        doc["epsilon"]["group_count"] = "1e400"
    elif case == "no_hierarchy":
        del doc["hierarchy"]
    elif case in ("entry_outside_hierarchy", "entry_other_conjuncts"):
        gid, conjuncts = ("a1=zz", [["a1", "zz"]]) if case == "entry_outside_hierarchy" \
            else ("a1=p", [["a1", "q"]])
        doc["entries"].append({"group": {"id": gid, "conjuncts": conjuncts},
                               "source": "ALL", "predictor": doc["default"]})
    elif case == "nan_margin":
        doc["epsilon"]["value"] = float("nan")
    else:
        assert case == "as_written"
    return doc


@pytest.mark.parametrize("model, case, message", [
    ("mgl_tree", "trace_without_decision", "malformed model file: KeyError('decision')"),
    ("mgl_tree", "nodes_missing_a_node", "malformed model file: KeyError('a1=q')"),
    ("prepend", "orphan_node",
     "group 'a1=p&a2=zz&a3=s' has no parent extending it by one conjunct"),
    ("mgl_tree", "crossing_hierarchy", f"invalid hierarchy: {CROSSING}"),
    ("prepend", "crossing_hierarchy", f"invalid hierarchy: {CROSSING}"),
    ("mgl_tree", "nan_margin", "constant kind needs a value >= 0"),
    ("mgl_tree", "not_an_object", "model kind None is not auditable"),
    ("mgl_tree", "kind_a_list", "model kind ['mgl_tree'] is not auditable"),
    ("erm", "group_attributes_a_string",
     "include_group_attributes must be true or false, got 'no'"),
    ("decoupled", "as_written", "model kind 'decoupled' is not auditable"),
    ("mgl_tree", "group_attributes_a_string",
     "include_group_attributes must be true or false, got 'no'"),
    ("prepend", "group_attributes_a_string",
     "include_group_attributes must be true or false, got 'no'"),
    ("mgl_tree", "infinite_group_count", "group_count must be finite, got inf"),
    ("prepend", "infinite_group_count", "group_count must be finite, got inf"),
    ("prepend", "no_hierarchy", "malformed model file: KeyError('hierarchy')"),
    ("prepend", "entry_outside_hierarchy", "entry group 'a1=zz' is not in the model's hierarchy"),
    ("prepend", "entry_other_conjuncts", "entry group 'a1=p' stores other conjuncts than its node"),
])
def test_audit_rejects_malformed_model(tmp_path, capsys, model, case, message):
    ds, csv_path = write_fixture(tmp_path, inverted_leaf_spec(n_per_leaf=5, noise=0.0))
    out_dir = tmp_path / "out"
    doc = base_config(ds, csv_path, methods=[model],
                      epsilon={"kind": "constant", "value": 0.05})
    del doc["attribute_order"]
    doc["hierarchy_nodes"] = [[], [["a1", "p"]], [["a1", "q"]]]
    cfg = write_config(tmp_path, doc)
    assert main(["train", "--config", str(cfg), "--out", str(out_dir)]) == 0
    model_path = out_dir / f"{model}.constant.model.json"
    doc = _break_model(json.loads(model_path.read_text()), case)
    model_path.write_text(dumps_1e400(doc))
    capsys.readouterr()
    assert main(["audit", "--model", str(model_path), "--data", str(csv_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def _break_tree_model(predictor, case):
    """Edit the tree or bagged-trees predictor of a model's root node."""
    if case == "subset_dropped":
        predictor["feature_subsets"].pop()
    elif case == "no_trees":
        predictor["trees"], predictor["feature_subsets"] = [], []
    elif case == "subset_index_999":
        predictor["feature_subsets"][0][0] = 999
    elif case == "bagged_split_feature_50":
        predictor["trees"][0]["feature"] = 50
    elif case == "tree_split_feature_50":
        predictor["root"]["feature"] = 50
    elif case == "tree_split_feature_infinite":
        predictor["root"]["feature"] = "1e400"
    elif case == "tree_nan_threshold":
        predictor["root"]["threshold"] = math.nan
    elif case == "tree_nan_leaf_score":
        predictor["root"]["left"]["left"]["score"] = math.nan
    elif case == "subset_entries_fraction_and_string":
        predictor["feature_subsets"][0] = [1.7, "3"]
    elif case == "bagged_threshold_a_string":
        split = predictor["trees"][0]["right"]
        split["threshold"] = str(split["threshold"])
    else:
        assert case == "tree_split_feature_negative"
        predictor["root"]["feature"] = -1


@pytest.mark.parametrize("learner, case, message", [
    ("bagged", "subset_dropped", "5 trees but 4 feature subsets"),
    ("bagged", "no_trees", "a bag needs at least one tree"),
    ("bagged", "subset_index_999", "feature subset index 999 is outside the 4 encoded features"),
    ("bagged", "bagged_split_feature_50", "a tree splits on feature 50, outside its 2 features"),
    ("tree", "tree_split_feature_50", "a tree splits on feature 50, outside its 4 features"),
    ("tree", "tree_split_feature_negative", "a tree splits on feature -1, outside its 4 features"),
    ("tree", "tree_split_feature_infinite", "feature must be finite, got inf"),
    ("tree", "tree_nan_threshold", "a tree splits at threshold nan, which is not finite"),
    ("tree", "tree_nan_leaf_score", "a tree leaf score must be in [0, 1], got nan"),
    ("bagged", "subset_entries_fraction_and_string", "feature_subsets must be an integer, got 1.7"),
    ("bagged", "bagged_threshold_a_string", "threshold must be a number, got '1.985005055364894'"),
])
def test_audit_rejects_malformed_tree_model(tmp_path, monkeypatch, capsys, learner, case,
                                            message):
    """A tree or bag whose splits or feature subsets do not fit the encoded
    features, or are not JSON numbers, is refused when the model is
    rebuilt, before any scoring."""
    monkeypatch.chdir(ROOT)
    if learner == "bagged":
        model_path = ROOT / "fixtures" / "golden_bagged" / "mgl_tree.bagged5_depth3.model.json"
    else:
        assert main(["train", "--config", "fixtures/run.json", "--set",
                     'learners=[{"kind":"tree","max_depth":2}]', "--set",
                     'methods=["mgl_tree"]', "--out", str(tmp_path)]) == 0
        model_path = tmp_path / "mgl_tree.tree_depth2.model.json"
    doc = json.loads(model_path.read_text())
    assert main(["audit", "--model", str(model_path), "--data", "demo/data.csv"]) == 0
    _break_tree_model(doc["nodes"][0]["predictor"], case)
    broken = tmp_path / "broken.model.json"
    broken.write_text(dumps_1e400(doc))
    capsys.readouterr()
    assert main(["audit", "--model", str(broken), "--data", "demo/data.csv"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def _break_fit(doc, case):
    """Give one stored fit of a demo model a parameter no fit can have, or
    one a fit never writes; the tree cases are in _break_tree_model."""
    nodes = {n["id"]: n for n in doc.get("nodes", ())}
    if case == "weight_dropped":
        nodes["grp=a"]["predictor"]["weights"].pop()
    elif case == "nan_weights":
        nodes["ALL"]["predictor"]["weights"] = [math.nan] * 4
    elif case == "nan_intercept":
        nodes["ALL"]["predictor"]["intercept"] = math.nan
    elif case == "zero_scale":
        nodes["grp=b"]["predictor"]["scale"][2] = 0.0
    elif case == "nan_default_weights":
        doc["default"]["weights"] = [math.nan] * 4
    elif case == "subnormal_scale":  # weights / scale overflows
        nodes["ALL"]["predictor"]["scale"][0] = 1e-320
    elif case == "weight_a_string":  # the string of the stored number
        weights = nodes["ALL"]["predictor"]["weights"]
        weights[0] = str(weights[0])
    elif case == "intercept_a_string":
        predictor = nodes["ALL"]["predictor"]
        predictor["intercept"] = str(predictor["intercept"])
    elif case == "unknown_key":
        nodes["ALL"]["predictor"]["bogus"] = 1
    else:
        assert case == "constant_score_7.5"
        nodes["ALL"]["predictor"] = {"type": "constant", "score": 7.5}


@pytest.mark.parametrize("model, case, message", [
    ("mgl_tree.logistic", "weight_dropped", "logistic weights must be 4 finite numbers"),
    ("mgl_tree.logistic", "nan_weights", "logistic weights must be 4 finite numbers"),
    ("mgl_tree.logistic", "nan_intercept", "logistic intercept must be finite, got nan"),
    ("mgl_tree.logistic", "zero_scale", "logistic scale must be > 0"),
    ("prepend.logistic", "nan_default_weights", "logistic weights must be 4 finite numbers"),
    ("mgl_tree.logistic", "subnormal_scale", "logistic fit 'logistic@ALL': weights / scale or "
     "intercept - mean @ (weights / scale) is not finite"),
    ("mgl_tree.logistic", "constant_score_7.5", "a constant score must be in [0, 1], got 7.5"),
    ("mgl_tree.logistic", "weight_a_string", "weights must be a number, got '0.03251287996104201'"),
    ("mgl_tree.logistic", "intercept_a_string",
     "intercept must be a number, got '0.08415332436325353'"),
    ("mgl_tree.logistic", "unknown_key", "unknown predictor keys: ['bogus']"),
])
def test_audit_rejects_impossible_fit_parameters(tmp_path, monkeypatch, capsys, model, case,
                                                 message):
    """A stored fit with a parameter that no fit can have is refused when
    the model is rebuilt, even when the fit answers no training row. So is
    one a fit never writes, such as a number written as a string, or an
    extra key, though it would score as its refit does."""
    monkeypatch.chdir(ROOT)
    doc = json.loads((ROOT / "demo" / "models" / f"{model}.model.json").read_text())
    _break_fit(doc, case)
    broken = tmp_path / "broken.model.json"
    broken.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["audit", "--model", str(broken), "--data", "demo/data.csv"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("field, message", [
    ("weights", "a number a float can hold"),
    ("threshold", "a number a float can hold"),
    ("feature_subsets", "an integer that fits in 64 bits"),
    ("feature", "an integer that fits in 64 bits"),
    ("learning_rate", "a number a float can hold"),
    ("scale", "a number a float can hold"),
    ("tolerance", "a number a float can hold"),
])
def test_integer_too_large_for_a_float_exits_2(tmp_path, monkeypatch, capsys, field, message):
    """A JSON integer of 401 digits, in a stored fit or in a run-config
    field, exits 2 naming the field, not with an OverflowError traceback,
    and is not written back into a model file."""
    monkeypatch.chdir(ROOT)
    huge = 10 ** 400
    out = tmp_path / "out"
    if field in REAL_FIELDS:
        ds, csv_path = write_fixture(tmp_path)
        cfg = write_config(tmp_path, base_config(ds, csv_path))
        argv = ["train", "--config", str(cfg), "--out", str(out),
                "--set", REAL_FIELDS[field].format(huge)]
    else:
        model = "demo/models/mgl_tree.logistic" if field == "weights" \
            else "fixtures/golden_bagged/mgl_tree.bagged5_depth3"
        doc = json.loads((ROOT / f"{model}.model.json").read_text())
        predictor = doc["nodes"][0]["predictor"]
        if field == "weights":
            predictor["weights"][0] = huge
        elif field == "feature_subsets":
            predictor["feature_subsets"][0][0] = huge
        else:  # the split at the root of the bag's first tree
            predictor["trees"][0][field] = huge
        broken = tmp_path / "broken.model.json"
        broken.write_text(json.dumps(doc))
        argv = ["audit", "--model", str(broken), "--data", "demo/data.csv"]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == \
        f"error: {field} must be {message}, got an integer of 401 digits\n"
    assert not out.exists()


# grp=a has 6 rows labelled 1, grp=b 4 labelled 0, and grp=c none
EMPTY_C = SyntheticSpec(
    attributes={"grp": ("a", "b", "c")},
    leaves=(SyntheticLeaf({"grp": "a"}, LeafRule("constant", label=1), 6),
            SyntheticLeaf({"grp": "b"}, LeafRule("constant", label=0), 4)),
    feature_dim=1,
)


@pytest.mark.parametrize("group, decision, rule", [
    ("grp=c", "updated", "'inherited_empty' (err=None)"),  # an empty node
    ("grp=b", "inherited_empty", "'updated' (err=1.0)"),
    ("grp=b", "root", "'updated' (err=1.0)"),
    ("grp=b", "split", "'updated' (err=1.0)"),
    ("grp=b", "inherited", "'updated' (err=1.0)"),  # the decision flipped
])
def test_audit_flags_a_wrong_trace_decision_once(tmp_path, capsys, group, decision, rule):
    """A recorded decision the update rule does not give is one rule
    violation at its step, whatever the decision is, and fails the audit."""
    ds, csv_path = write_fixture(tmp_path, EMPTY_C)
    out_dir = tmp_path / "out"
    cfg = write_config(tmp_path, base_config(ds, csv_path, methods=["mgl_tree"]))
    assert main(["train", "--config", str(cfg), "--out", str(out_dir)]) == 0
    model_path = out_dir / "mgl_tree.constant.model.json"
    doc = json.loads(model_path.read_text())
    assert [t["decision"] for t in doc["trace"]] == ["updated", "updated", "inherited_empty"]
    step = next(i for i, t in enumerate(doc["trace"], start=1) if t["group_id"] == group)
    doc["trace"][step - 1]["decision"] = decision
    model_path.write_text(json.dumps(doc))

    header = stored_header(doc)
    predictor = rebuild_tree_predictor(doc, header)
    cache = PredictorCache(load_csv(csv_path, header.schema), header.encoder)
    verdict = monotonicity_audit(predictor.trace, cache, header.tree, header.learner,
                                 header.epsilon, header.loss)
    assert [v for v in verdict.violations if v[2] == "rule"] == [
        (step, group, "rule", f"decision {decision!r}, the rule gives {rule}")]
    capsys.readouterr()
    assert main(["audit", "--model", str(model_path), "--data", str(csv_path)]) == 1
    assert "AUDIT FAILED" in capsys.readouterr().out


def _tamper_fit(doc, case):
    """Give a demo or golden model a well-formed stored fit that is not its
    refit, or a prepend entry a source outside the hierarchy."""
    if case == "root_weights_negated":  # both leaves own fits, so ALL answers no training row
        fit = doc["nodes"][0]["predictor"]
        fit["weights"] = [-w for w in fit["weights"]]
        fit["intercept"] = -fit["intercept"]
    elif case == "root_leaf_score_moved":  # within [0, 1] and on the same side of 0.5
        leaf = doc["nodes"][0]["predictor"]["trees"][0]
        while "score" not in leaf:
            leaf = leaf["left"]
        assert leaf["score"] != 0.5
        leaf["score"] = (leaf["score"] + 0.5) / 2.0
    elif case == "entry_predictors_swapped":
        first, second = doc["entries"]
        first["predictor"], second["predictor"] = second["predictor"], first["predictor"]
    elif case == "default_an_entry_fit":  # the entries answer every training row
        doc["default"] = doc["entries"][0]["predictor"]
    elif case == "erm_weight_changed":
        doc["predictor"]["weights"][0] += 0.25
    else:
        assert case == "unknown_source"
        doc["entries"][0]["source"] = "grp=zz"


@pytest.mark.parametrize("model, case, code, line", [
    ("demo/models/mgl_tree.logistic", "root_weights_negated", 1,
     "node ALL: stored fit differs from its refit"),
    ("fixtures/golden_bagged/mgl_tree.bagged5_depth3", "root_leaf_score_moved", 1,
     "node ALL: stored fit differs from its refit"),
    ("demo/models/prepend.logistic", "entry_predictors_swapped", 1,
     "entry 0 (group grp=b): stored fit differs from the refit of source grp=b"),
    ("demo/models/prepend.logistic", "default_an_entry_fit", 1,
     "default: stored fit differs from the refit of source ALL"),
    ("demo/models/prepend.logistic", "unknown_source", 2,
     "error: entry source 'grp=zz' is not in the model's hierarchy"),
    ("demo/models/erm.logistic", "erm_weight_changed", 1,
     "stored fit differs from its refit on the training data"),
])
def test_audit_compares_each_stored_fit_with_its_refit(tmp_path, monkeypatch, capsys, model,
                                                       case, code, line):
    """A stored fit must equal the fit the audit makes again, including a
    fit that answers no training row, and a prepend source must name a node."""
    monkeypatch.chdir(ROOT)
    doc = json.loads((ROOT / f"{model}.model.json").read_text())
    _tamper_fit(doc, case)
    tampered = tmp_path / "tampered.model.json"
    tampered.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["audit", "--model", str(tampered), "--data", "demo/data.csv"]) == code
    out, err = capsys.readouterr()
    assert line in (out if code == 1 else err).splitlines()


def test_audit_reports_a_prepend_source_without_training_rows(tmp_path, capsys):
    """An entry whose source is a node with no training rows has no refit:
    one audit problem, not a traceback."""
    ds, csv_path = write_fixture(tmp_path, EMPTY_C)
    out_dir = tmp_path / "out"
    cfg = write_config(tmp_path, base_config(ds, csv_path, methods=["prepend"]))
    assert main(["train", "--config", str(cfg), "--out", str(out_dir)]) == 0
    model_path = out_dir / "prepend.constant.model.json"
    doc = json.loads(model_path.read_text())
    assert main(["audit", "--model", str(model_path), "--data", str(csv_path)]) == 0
    doc["entries"][0]["source"] = "grp=c"
    model_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["audit", "--model", str(model_path), "--data", str(csv_path)]) == 1
    group = doc["entries"][0]["group"]["id"]
    assert capsys.readouterr().out.splitlines() == [
        f"entry 0 (group {group}): source grp=c has no training rows",
        "AUDIT FAILED: 1 problem(s)",
    ]


@pytest.mark.parametrize("copy, code, err", [
    (False, 2, "error: node 'grp=c' stores a predictor that differs from its source 'ALL''s\n"),
    (True, 0, ""),
])
def test_audit_checks_a_predictor_stored_on_a_node_with_another_source(tmp_path, capsys, copy,
                                                                       code, err):
    """The writer stores a fit only on the node that owns it. A predictor
    on another node must be a copy of its source's, as older files hold;
    any other is refused, not dropped unchecked."""
    ds, csv_path = write_fixture(tmp_path, EMPTY_C)
    out_dir = tmp_path / "out"
    cfg = write_config(tmp_path, base_config(ds, csv_path, methods=["mgl_tree"]))
    assert main(["train", "--config", str(cfg), "--out", str(out_dir)]) == 0
    model_path = out_dir / "mgl_tree.constant.model.json"
    doc = json.loads(model_path.read_text())
    root, node = doc["nodes"][0], doc["nodes"][-1]
    assert (node["id"], node["source"], "predictor" in node) == ("grp=c", "ALL", False)
    node["predictor"] = dict(root["predictor"]) if copy else {"type": "constant", "score": 0.123}
    model_path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["audit", "--model", str(model_path), "--data", str(csv_path)]) == code
    out, got_err = capsys.readouterr()
    assert got_err == err
    assert out == ("AUDIT CLEAN\n" if code == 0 else "")


@pytest.mark.parametrize("model", ["demo/models/erm.logistic", "demo/models/erm.tree_depth2",
                                   "fixtures/golden_bagged/erm.bagged5_depth3"])
def test_erm_model_audits_clean(monkeypatch, capsys, model):
    """An erm file stores one fit on the whole training set and no
    hierarchy; its audit checks the data and refits that fit."""
    monkeypatch.chdir(ROOT)
    capsys.readouterr()
    assert main(["audit", "--model", f"{model}.model.json", "--data", "demo/data.csv"]) == 0
    assert capsys.readouterr().out == "AUDIT CLEAN\n"


def test_train_empty_dataset_exits_one(tmp_path):
    ds, csv_path = write_fixture(tmp_path)
    csv_path.write_text("grp,x0,label\n")
    cfg = write_config(tmp_path, base_config(ds, csv_path, methods=["erm"]))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1


def test_evaluate_writes_reports(tmp_path, capsys):
    spec = inverted_leaf_spec(n_per_leaf=100, noise=0.0)
    ds, csv_path = write_fixture(tmp_path, spec)
    out_dir = tmp_path / "report"
    cfg = write_config(tmp_path, base_config(
        ds, csv_path,
        methods=["erm", "mgl_tree"],
        epsilon={"kind": "scaled", "scale": 3.0},
        split={"test_fraction": 0.2, "seed": 1, "trials": 10},
    ))
    assert main(["evaluate", "--config", str(cfg), "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "worst-group" in out
    lines = (out_dir / "report.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, raw.split(","))) for raw in lines[1:]]
    assert len(rows) == 2 * 15  # 2 methods x (1 root + 2 + 4 + 8 nodes)
    assert all(r["trials_present"] == "10" for r in rows)

    by_method = {}
    for r in rows:
        by_method.setdefault(r["method"], []).append(float(r["mean_error"]))
    assert max(by_method["mgl_tree"]) <= max(by_method["erm"]) + 1e-9

    report_doc = json.loads((out_dir / "report.json").read_text())
    assert report_doc["config"]["epsilon"] == {"kind": "scaled", "scale": 3.0}


def test_report_csv_round_trips_group_ids_with_commas(tmp_path):
    """report.csv is standard CSV: a group id holding a comma or a quote is
    quoted, so every row reads back as its eight fields."""
    spec = SyntheticSpec(
        attributes={"grp": ("a,b", 'say "c"')},
        leaves=(SyntheticLeaf({"grp": "a,b"}, LeafRule("constant", label=1), 6),
                SyntheticLeaf({"grp": 'say "c"'}, LeafRule("constant", label=0), 6)),
        feature_dim=1,
    )
    ds, csv_path = write_fixture(tmp_path, spec)
    out_dir = tmp_path / "report"
    cfg = write_config(tmp_path, base_config(ds, csv_path, methods=["erm"]))
    assert main(["evaluate", "--config", str(cfg), "--out", str(out_dir)]) == 0
    with open(out_dir / "report.csv", newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    assert len(header) == 8 and all(len(row) == 8 for row in rows)
    assert [row[header.index("group_id")] for row in rows] == ["ALL", "grp=a,b", 'grp=say "c"']


def test_evaluate_missing_dataset_exits_two(tmp_path):
    """A dataset that cannot be opened is an I/O failure, as it is for train."""
    ds, csv_path = write_fixture(tmp_path)
    cfg = write_config(tmp_path, base_config(ds, tmp_path / "gone.csv", methods=["erm"]))
    assert main(["evaluate", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 2


def test_audit_clean_model(tmp_path):
    ds, csv_path = write_fixture(tmp_path)
    out_dir = tmp_path / "out"
    cfg = write_config(tmp_path, base_config(
        ds, csv_path, methods=["mgl_tree", "prepend"],
        epsilon={"kind": "constant", "value": 0.25}))
    assert main(["train", "--config", str(cfg), "--out", str(out_dir)]) == 0
    assert main(["audit", "--model", str(out_dir / "mgl_tree.constant.model.json"),
                 "--data", str(csv_path)]) == 0
    assert main(["audit", "--model", str(out_dir / "prepend.constant.model.json"),
                 "--data", str(csv_path)]) == 0


def test_audit_flags_corrupted_model(tmp_path, capsys):
    ds, csv_path = write_fixture(tmp_path)
    out_dir = tmp_path / "out"
    cfg = write_config(tmp_path, base_config(
        ds, csv_path, methods=["mgl_tree"], epsilon={"kind": "constant", "value": 0.0}))
    assert main(["train", "--config", str(cfg), "--out", str(out_dir)]) == 0
    model_path = out_dir / "mgl_tree.constant.model.json"
    doc = json.loads(model_path.read_text())
    for node in doc["nodes"]:
        if node["id"] == "grp=b":
            node["source"] = "ALL"  # swap the leaf's predictor for the global one
            node.pop("predictor", None)
    model_path.write_text(json.dumps(doc))
    assert main(["audit", "--model", str(model_path), "--data", str(csv_path)]) == 1
    assert "AUDIT FAILED" in capsys.readouterr().out


def test_audit_wrong_dataset_exits_two(tmp_path):
    from synthcases import opposite_separators_spec

    ds, csv_path = write_fixture(tmp_path)
    out_dir = tmp_path / "out"
    cfg = write_config(tmp_path, base_config(
        ds, csv_path, methods=["mgl_tree"], epsilon={"kind": "constant", "value": 0.0}))
    assert main(["train", "--config", str(cfg), "--out", str(out_dir)]) == 0
    wrong = tmp_path / "wrong.csv"
    write_csv(make_synthetic(opposite_separators_spec(3), seed=9), wrong)
    assert main(["audit", "--model", str(out_dir / "mgl_tree.constant.model.json"),
                 "--data", str(wrong)]) == 2


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_non_finite_feature_is_a_data_error(tmp_path, capsys, cell):
    """A non-finite numeric cell stops every command at load, naming the
    column and the data row; a data error exits 1, as an empty file does."""
    lines = (ROOT / "demo" / "data.csv").read_text().splitlines()
    assert lines[0].split(",")[1] == "x0"
    fields = lines[2].split(",")
    fields[1] = cell
    lines[2] = ",".join(fields)
    data = tmp_path / "data.csv"
    data.write_text("\n".join(lines) + "\n")
    message = f"error: non-finite value {float(cell)} in column 'x0' at data row 2\n"
    config = str(ROOT / "fixtures" / "run.json")
    out = tmp_path / "out"
    capsys.readouterr()
    assert main(["train", "--config", config, "--set", f"dataset={data}",
                 "--out", str(out)]) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()
    assert main(["evaluate", "--config", config, "--set", f"dataset={data}",
                 "--out", str(out), "--jobs", "1"]) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()
    model = ROOT / "fixtures" / "golden_bagged" / "mgl_tree.bagged5_depth3.model.json"
    assert main(["audit", "--model", str(model), "--data", str(data)]) == 1
    assert capsys.readouterr().err == message


# exit code of each planted fault: 1 when the data fails once read, 2 when
# an input cannot be opened or parsed
FAULT_CODES = {"long_cell": 1, "utf16_bytes": 1, "nan_cell": 1, "missing_dataset": 2,
               "dataset_is_a_directory": 2, "non_utf8_json": 2, "out_is_a_file": 2,
               "unknown_spec_key": 2}
DATA_FAULTS = ["long_cell", "utf16_bytes", "nan_cell", "missing_dataset",
               "dataset_is_a_directory"]
DATA_COMMANDS = ["validate-hierarchy", "train", "evaluate", "audit"]


def _faulty_argv(tmp_path, command, fault):
    """argv of command on the demo inputs, with one fault planted."""
    data = ROOT / "demo" / "data.csv"
    config = ROOT / "fixtures" / "run.json"
    model = ROOT / "fixtures" / "golden_bagged" / "mgl_tree.bagged5_depth3.model.json"
    out = tmp_path / "out"
    text = data.read_text()
    if fault in ("long_cell", "nan_cell"):
        lines = text.splitlines()
        fields = lines[2].split(",")
        fields[1] = "1" * 200_000 if fault == "long_cell" else "nan"
        lines[2] = ",".join(fields)
        data = tmp_path / "data.csv"
        data.write_text("\n".join(lines) + "\n")
    elif fault == "utf16_bytes":
        data = tmp_path / "data.csv"
        data.write_bytes(b"\xff\xfe" + text.encode())
    elif fault == "missing_dataset":
        data = tmp_path / "gone.csv"
    elif fault == "dataset_is_a_directory":
        data = tmp_path / "data.csv"
        data.mkdir()
    elif fault == "non_utf8_json":
        source = {"audit": model, "synth": ROOT / "fixtures" / "synth.json"}.get(command, config)
        config = model = tmp_path / "input.json"
        config.write_bytes(b"\xff\xfe" + source.read_bytes())
    elif fault == "unknown_spec_key":
        config = tmp_path / "input.json"
        config.write_text(json.dumps(
            {**json.loads((ROOT / "fixtures" / "synth.json").read_text()), "zzz": 1}))
    else:
        assert fault == "out_is_a_file"
        out.write_text("a file\n")
    if command == "audit":
        return ["audit", "--model", str(model), "--data", str(data)]
    if command == "synth":
        return ["synth", "--spec", str(config), "--out", str(tmp_path / "synth.csv")]
    argv = [command, "--config", str(config), "--set", f"dataset={data}",
            "--set", "split.trials=1", "--set", 'learners=[{"kind": "constant"}]']
    return argv if command == "validate-hierarchy" else argv + ["--out", str(out)]


@pytest.mark.parametrize("command, fault", [
    *[(c, f) for f in DATA_FAULTS for c in DATA_COMMANDS],
    *[(c, "non_utf8_json") for c in DATA_COMMANDS + ["synth"]],
    ("train", "out_is_a_file"), ("evaluate", "out_is_a_file"),
    ("synth", "unknown_spec_key"),
])
def test_fault_matrix_exits_with_one_error_line(tmp_path, monkeypatch, capsys, command, fault):
    """Every command meets each input fault with its exit code from
    ``cli.main`` and exactly one ``error:`` line, never a traceback, and
    before any trial runs or any output is written."""
    def no_trials(*args, **kwargs):
        raise AssertionError("evaluate ran its trials")

    monkeypatch.setattr(cli, "run_experiment", no_trials)
    argv = _faulty_argv(tmp_path, command, fault)
    capsys.readouterr()
    code = main(argv)  # an exception escaping main fails the test here
    out, err = capsys.readouterr()
    assert code == FAULT_CODES[fault]
    assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
    assert "VALID" not in out and "AUDIT" not in out
    written = tmp_path / ("synth.csv" if command == "synth" else "out")
    if fault == "out_is_a_file":
        assert written.read_text() == "a file\n"
    else:
        assert not written.exists()


def test_csv_with_byte_order_mark_trains(tmp_path):
    """A CSV saved with a UTF-8 byte-order mark, as spreadsheet programs
    save it, loads to the same dataset as the plain file: a model trained
    on it audits clean against the plain file's fingerprint."""
    plain = ROOT / "demo" / "data.csv"
    bom = tmp_path / "data.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    config = ROOT / "fixtures" / "run.json"
    out = tmp_path / "models"
    assert main(["train", "--config", str(config), "--set", f"dataset={bom}",
                 "--set", 'learners=[{"kind": "constant"}]', "--out", str(out)]) == 0
    schema = schema_from_json(json.loads(config.read_text())["schema"])
    assert oracles.dataset_equals(load_csv(bom, schema), load_csv(plain, schema))
    assert main(["audit", "--model", str(out / "mgl_tree.constant.model.json"),
                 "--data", str(plain)]) == 0


def test_set_overrides_apply(tmp_path):
    ds, csv_path = write_fixture(tmp_path)
    out_dir = tmp_path / "out"
    cfg = write_config(tmp_path, base_config(
        ds, csv_path, methods=["mgl_tree"], epsilon={"kind": "constant", "value": 0.0}))
    assert main(["train", "--config", str(cfg), "--out", str(out_dir),
                 "--set", "epsilon.value=2.0"]) == 0
    model = json.loads((out_dir / "mgl_tree.constant.model.json").read_text())
    non_root = [n["decision"] for n in model["nodes"] if n["id"] != "ALL"]
    assert all(d == "inherited" for d in non_root)


def test_evaluate_with_explicit_hierarchy_nodes(tmp_path):
    spec = inverted_leaf_spec(n_per_leaf=40, noise=0.0)
    ds, csv_path = write_fixture(tmp_path, spec)
    out_dir = tmp_path / "report"
    doc = base_config(ds, csv_path, methods=["erm", "mgl_tree"],
                      epsilon={"kind": "scaled", "scale": 2.0})
    del doc["attribute_order"]
    # pruned, non-product hierarchy: root, one level-1 node, one refinement
    doc["hierarchy_nodes"] = [[], [["a1", "q"]], [["a1", "q"], ["a2", "v"]]]
    cfg = write_config(tmp_path, doc)
    assert main(["evaluate", "--config", str(cfg), "--out", str(out_dir)]) == 0
    lines = (out_dir / "report.csv").read_text().strip().splitlines()
    group_ids = {line.split(",")[2] for line in lines[1:]}
    assert group_ids == {"ALL", "a1=q", "a1=q&a2=v"}


def test_shipped_fixtures_quickstart(tmp_path):
    import pathlib

    root = pathlib.Path(__file__).resolve().parent.parent
    data = tmp_path / "data.csv"
    assert main(["synth", "--spec", str(root / "fixtures" / "synth.json"),
                 "--seed", "7", "--out", str(data)]) == 0
    overrides = ["--set", f"dataset={data}", "--set", "split.trials=2",
                 "--set", 'learners=[{"kind": "constant"}]']
    assert main(["validate-hierarchy", "--config", str(root / "fixtures" / "run.json"),
                 *overrides]) == 0
    assert main(["train", "--config", str(root / "fixtures" / "run.json"),
                 "--out", str(tmp_path / "models"), *overrides]) == 0
    assert main(["evaluate", "--config", str(root / "fixtures" / "run.json"),
                 "--out", str(tmp_path / "report"), *overrides]) == 0
    assert main(["audit", "--model", str(tmp_path / "models" / "mgl_tree.constant.model.json"),
                 "--data", str(data)]) == 0


@pytest.mark.parametrize("command", [
    ["train"], ["evaluate", "--jobs", "1"], ["evaluate", "--jobs", "2"],
], ids=["train", "evaluate_jobs1", "evaluate_jobs2"])
def test_failed_method_exits_one_with_its_name(tmp_path, capsys, command):
    data = tmp_path / "data.csv"
    assert main(["synth", "--spec", str(ROOT / "fixtures" / "synth.json"),
                 "--seed", "7", "--out", str(data)]) == 0
    # with a zero margin both groups' own stumps beat the global one, so
    # prepend needs two rounds and cap=1 is exceeded
    overrides = ["--set", f"dataset={data}", "--set", "split.trials=2", "--set", "prepend_cap=1",
                 "--set", 'learners=[{"kind": "tree", "max_depth": 1}]',
                 "--set", 'epsilon={"kind": "constant", "value": 0.0}']
    capsys.readouterr()
    assert main([command[0], "--config", str(ROOT / "fixtures" / "run.json"),
                 "--out", str(tmp_path / "out"), *command[1:], *overrides]) == 1
    where = "" if command[0] == "train" else " in trial 0"
    assert capsys.readouterr().err == (
        f"error: method 'prepend' (learner tree_depth1) failed{where}: "
        "prepend did not terminate within cap=1\n")


def test_prepend_zero_margin_trains_evaluates_and_audits(tmp_path):
    """A (group, candidate) pair whose violation value is exactly 0 is not a
    violation, so prepend terminates at a zero margin."""
    data = tmp_path / "data.csv"
    assert main(["synth", "--spec", str(ROOT / "fixtures" / "synth.json"),
                 "--seed", "7", "--out", str(data)]) == 0
    config = str(ROOT / "fixtures" / "run.json")
    overrides = ["--set", f"dataset={data}", "--set", "split.trials=2",
                 "--set", 'methods=["prepend"]', "--set", 'learners=[{"kind": "constant"}]',
                 "--set", 'epsilon={"kind": "constant", "value": 0}']
    models = tmp_path / "models"
    assert main(["train", "--config", config, "--out", str(models), *overrides]) == 0
    assert main(["evaluate", "--config", config, "--out", str(tmp_path / "report"),
                 *overrides]) == 0
    assert main(["audit", "--model", str(models / "prepend.constant.model.json"),
                 "--data", str(data)]) == 0


def test_legacy_gradient_descent_model_audits_clean(tmp_path, capsys):
    """A logistic model file written before ``solver`` existed was fit by
    gradient descent: it reads as ``"gd"`` and its replay reproduces it."""
    legacy = ROOT / "fixtures" / "legacy_gd" / "mgl_tree.logistic.model.json"
    doc = json.loads(legacy.read_text())
    assert "solver" not in doc["learner"]
    assert stored_learner(doc).solver == "gd"
    capsys.readouterr()
    assert main(["audit", "--model", str(legacy), "--data", str(ROOT / "demo" / "data.csv")]) == 0
    assert capsys.readouterr().out == "AUDIT CLEAN\n"


def test_new_logistic_model_records_newton(tmp_path, capsys):
    ds, csv_path = write_fixture(tmp_path, inverted_leaf_spec(n_per_leaf=20, noise=0.1))
    cfg = write_config(tmp_path, base_config(ds, csv_path, methods=["mgl_tree"],
                                             learners=[{"kind": "logistic", "solver": "newton"}]))
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0
    model = out / "mgl_tree.logistic.model.json"
    doc = json.loads(model.read_text())
    assert doc["learner"]["solver"] == "newton"
    assert stored_learner(doc).solver == "newton"
    capsys.readouterr()
    assert main(["audit", "--model", str(model), "--data", str(csv_path)]) == 0
    assert capsys.readouterr().out == "AUDIT CLEAN\n"


@pytest.mark.parametrize("model, solver", [
    ("fixtures/newton/mgl_tree.logistic", "newton"),
    ("fixtures/newton/prepend.logistic", "newton"),
    ("fixtures/newton/erm.logistic", "newton"),
    ("fixtures/legacy_gd/mgl_tree.logistic", "gd"),
])
def test_model_files_of_every_solver_audit_clean(capsys, model, solver):
    """fixtures/newton holds demo/models' auditable logistic files as they
    were trained when "newton" was the default; each file refits with the
    rule it records."""
    path = ROOT / f"{model}.model.json"
    assert stored_learner(json.loads(path.read_text())).solver == solver
    capsys.readouterr()
    assert main(["audit", "--model", str(path), "--data", str(ROOT / "demo" / "data.csv")]) == 0
    assert capsys.readouterr().out == "AUDIT CLEAN\n"


def _separable_erm_model(tmp_path):
    """An erm logistic file trained with the default solver on two groups
    that share one planted separator, without noise: separable rows."""
    w = (1.0, -0.7)
    spec = SyntheticSpec(
        attributes={"grp": ("a", "b")},
        leaves=tuple(SyntheticLeaf({"grp": c}, LeafRule("linear", weights=w), 20) for c in "ab"),
        feature_dim=2)
    ds, csv_path = write_fixture(tmp_path, spec)
    cfg = write_config(tmp_path, base_config(ds, csv_path, methods=["erm"],
                                             learners=[{"kind": "logistic"}]))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    return tmp_path / "out" / "erm.logistic.model.json", csv_path


@pytest.mark.parametrize("edit, code, out", [
    (None, 0, "AUDIT CLEAN\n"),
    ("weight", 1, "stored fit differs from its refit on the training data\n"
                  "AUDIT FAILED: 1 problem(s)\n"),
    ("newton", 1, "stored fit differs from its refit on the training data\n"
                  "AUDIT FAILED: 1 problem(s)\n"),
    ("lbfgs", 2, ""),
])
def test_margin_rule_is_recorded_and_enforced(tmp_path, capsys, edit, code, out):
    """A "newton_margin" fit of separable rows stops before the "newton"
    fit would, so its file audits clean only under the rule it records."""
    model, csv_path = _separable_erm_model(tmp_path)
    doc = json.loads(model.read_text())
    assert doc["learner"]["solver"] == "newton_margin"
    if edit == "weight":
        doc["predictor"]["weights"][2] *= 1.5
    elif edit is not None:
        doc["learner"]["solver"] = edit
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["audit", "--model", str(model), "--data", str(csv_path)]) == code
    assert capsys.readouterr() == (out, "error: unknown logistic solver 'lbfgs'\n" if code == 2
                                   else "")


def test_readme_commands_regenerate_demo(tmp_path, monkeypatch):
    """demo/ is the golden output of the README commands (report.json echoes
    the relative dataset path, so they run from a copy of the repo root)."""
    shutil.copytree(ROOT / "fixtures", tmp_path / "fixtures")
    (tmp_path / "demo").mkdir()
    monkeypatch.chdir(tmp_path)
    assert main(["synth", "--spec", "fixtures/synth.json", "--seed", "7",
                 "--out", "demo/data.csv"]) == 0
    assert main(["train", "--config", "fixtures/run.json", "--out", "demo/models"]) == 0
    assert main(["evaluate", "--config", "fixtures/run.json", "--out", "demo/report",
                 "--jobs", "1"]) == 0

    def files(top):
        return sorted(str(p.relative_to(top)) for p in top.rglob("*") if p.is_file())

    golden = ROOT / "demo"
    assert files(tmp_path / "demo") == files(golden)
    for name in files(golden):
        assert (tmp_path / "demo" / name).read_bytes() == (golden / name).read_bytes(), name


def test_evaluate_in_two_processes_reproduces_demo_report(tmp_path, monkeypatch):
    """The README runs evaluate with --jobs 2: trials fitted in worker
    processes give demo/report byte for byte."""
    shutil.copytree(ROOT / "fixtures", tmp_path / "fixtures")
    (tmp_path / "demo").mkdir()
    shutil.copy(ROOT / "demo" / "data.csv", tmp_path / "demo" / "data.csv")
    monkeypatch.chdir(tmp_path)
    assert main(["evaluate", "--config", "fixtures/run.json", "--out", "demo/report",
                 "--jobs", "2"]) == 0
    for name in ("report.csv", "report.json"):
        golden = ROOT / "demo" / "report" / name
        assert (tmp_path / "demo" / "report" / name).read_bytes() == golden.read_bytes(), name


def test_written_json_files_are_canonical():
    """Every model file, trace and report in demo/ and fixtures/golden_bagged/
    is one json_text document per line: re-encoding what each line parses to
    gives back its bytes. The schema that synth writes is left out: it is
    indented for people to read and edit."""
    tops = (ROOT / "demo", ROOT / "fixtures" / "golden_bagged")
    paths = [p for top in tops for p in sorted(top.rglob("*"))
             if p.suffix in (".json", ".jsonl") and not p.name.endswith(".schema.json")]
    assert len(paths) == 16
    for path in paths:
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        if path.suffix == ".json":
            assert len(lines) == 1, path
        for line in lines:
            assert line == json_text(json.loads(line)), path


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_json_text_refuses_non_finite_numbers(value):
    with pytest.raises(ValueError, match=rf"^score\[1\] is {value!r}, "):
        json_text({"score": [0.5, value]})
    doc = {"b": [{"x": value}], "a": {"z": 1.0, "y": value}}  # written in key order
    with pytest.raises(ValueError, match=rf"^a\.y is {value!r}, "):
        json_text(doc)
    with pytest.raises(ValueError, match=rf"^the document is {value!r}, "):
        json_text(value)


def test_non_finite_model_value_exits_one_and_leaves_no_model_file(tmp_path, monkeypatch,
                                                                   capsys):
    """A model document holding a NaN is refused before its file is opened,
    with a message that names the file and the NaN's key path."""
    ds, csv_path = write_fixture(tmp_path)
    cfg = write_config(tmp_path, base_config(ds, csv_path, methods=["mgl_tree"]))
    to_json = learners.ConstantPredictor.to_json

    def nan_for_one_group(self):
        doc = to_json(self)
        if self.provenance.endswith("@grp=b"):
            doc["score"] = float("nan")
        return doc

    monkeypatch.setattr(learners.ConstantPredictor, "to_json", nan_for_one_group)
    out_dir = tmp_path / "out"
    capsys.readouterr()
    assert main(["train", "--config", str(cfg), "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    model = out_dir / "mgl_tree.constant.model.json"
    assert err == (f"error: method 'mgl_tree' (learner constant) failed: cannot write {model}: "
                   "nodes[2].predictor.score is nan, which JSON cannot hold\n")
    assert list(out_dir.iterdir()) == []


def test_bagged_trees_train_matches_golden(tmp_path, monkeypatch, capsys):
    """fixtures/golden_bagged is the train output of fixtures/run.json with
    5 bagged depth-3 trees on demo/data.csv; retraining reproduces its bytes
    and every auditable model in it audits clean."""
    golden = ROOT / "fixtures" / "golden_bagged"
    monkeypatch.chdir(ROOT)
    assert main(["train", "--config", "fixtures/run.json", "--set",
                 'learners=[{"kind":"bagged_trees","n_trees":5,"max_depth":3}]',
                 "--out", str(tmp_path)]) == 0
    names = sorted(p.name for p in golden.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (golden / name).read_bytes(), name
    audited = [name for name in names if name.startswith(("mgl_tree.", "prepend."))
               and name.endswith(".model.json")]
    assert len(audited) == 2
    for name in audited:
        capsys.readouterr()
        assert main(["audit", "--model", str(golden / name), "--data", "demo/data.csv"]) == 0
        assert capsys.readouterr().out == "AUDIT CLEAN\n"


def test_bagged_trees_without_encoded_features_train_and_audit(tmp_path, capsys):
    """With group attributes left out of the features and no other column
    but the label, each bagged tree is one leaf: train writes the models
    and audit finds them clean."""
    csv_path = tmp_path / "data.csv"
    labels = {"a": [1, 0, 0, 0, 1, 0, 0, 0], "b": [1, 1, 0, 1, 1, 1, 1, 0]}
    csv_path.write_text("grp,label\n" + "".join(f"{g},{y}\n" for g, ys in labels.items()
                                                for y in ys * 3))
    doc = {
        "dataset": str(csv_path),
        "schema": {"columns": [{"name": "grp", "kind": "categorical"},
                               {"name": "label", "kind": "binary-label"}],
                   "label": "label", "group_attributes": ["grp"]},
        "attribute_order": ["grp"],
        "include_group_attributes": False,
        "learners": [{"kind": "bagged_trees", "n_trees": 3, "max_depth": 2}],
        "epsilon": {"kind": "scaled", "scale": 1.0},
        "methods": ["mgl_tree"],
    }
    out_dir = tmp_path / "out"
    assert main(["train", "--config", str(write_config(tmp_path, doc)),
                 "--out", str(out_dir)]) == 0
    model = out_dir / "mgl_tree.bagged3_depth2.model.json"
    leaves = json.loads(model.read_text())["nodes"][0]["predictor"]
    assert leaves["feature_subsets"] == [[], [], []]
    assert all(set(tree) == {"score"} for tree in leaves["trees"])
    capsys.readouterr()
    assert main(["audit", "--model", str(model), "--data", str(csv_path)]) == 0
    assert capsys.readouterr().out == "AUDIT CLEAN\n"


def test_each_op_trains_and_audits_in_one_training_context(tmp_path, monkeypatch, capsys):
    """train, audit and a one-trial evaluate each build exactly one
    PredictorCache. With group attributes left out of the features, every
    mgl_tree and prepend model records that, and audits clean: the audit
    compares against fits made without them, as training did."""
    count_caches = [0]
    init = learners.PredictorCache.__init__

    def counted(self, *args, **kwargs):
        count_caches[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(learners.PredictorCache, "__init__", counted)
    monkeypatch.chdir(ROOT)
    models = tmp_path / "models"
    flag_off = ["--set", "include_group_attributes=false"]
    assert main(["train", "--config", "fixtures/run.json", *flag_off,
                 "--out", str(models)]) == 0
    assert count_caches[0] == 1
    audited = sorted(p for p in models.glob("*.model.json")
                     if p.name.startswith(("mgl_tree.", "prepend.")))
    assert [p.name for p in audited] == [
        "mgl_tree.logistic.model.json", "mgl_tree.tree_depth2.model.json",
        "prepend.logistic.model.json", "prepend.tree_depth2.model.json"]
    for path in audited:
        assert json.loads(path.read_text())["include_group_attributes"] is False
        count_caches[0] = 0
        capsys.readouterr()
        assert main(["audit", "--model", str(path), "--data", "demo/data.csv"]) == 0
        assert capsys.readouterr().out == "AUDIT CLEAN\n", path.name
        assert count_caches[0] == 1
    count_caches[0] = 0
    assert main(["evaluate", "--config", "fixtures/run.json", *flag_off,
                 "--set", "split.trials=1", "--out", str(tmp_path / "report")]) == 0
    assert count_caches[0] == 1
