"""Command-line front-end.

Subcommands: validate-hierarchy, train, evaluate, audit, synth. Every
command is driven by a JSON run-config (``--config``) with optional
``--set dotted.key=value`` overrides, and is deterministic under a fixed
config. Commands raise; ``main`` turns each error into one ``error: ...``
line and its exit code, in one place (``_INPUT_ERRORS``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algorithms import excess_risk_report, monotonicity_audit, termination_scan
from .config import ConfigError, load_run_config
from .data import SchemaError, load_csv, make_synthetic, schema_to_json, \
    synthetic_spec_from_json, write_csv
from .evaluation import run_experiment
from .groups import HierarchyError, HierarchyVerdict
from .learners import FeatureEncoder, PredictorCache
from .methods import METHODS, MethodError, method_failure
from .modelio import ModelError, dataset_fingerprint, reading_model, rebuild_decision_list, \
    rebuild_tree_predictor, stored_header
from .risk import group_risks, loss_from_name

# Exit 2: an input file or document cannot be opened or parsed, or does not
# fit the data's columns. Every other ValueError, and a MethodError, exits 1:
# the inputs were read, and the data, the hierarchy or a method failed on
# them. A UnicodeDecodeError here comes from a JSON input; load_csv raises
# its own as a DataError.
_INPUT_ERRORS = (ConfigError, SchemaError, ModelError, OSError, json.JSONDecodeError,
                 UnicodeDecodeError)


def cmd_validate_hierarchy(args) -> int:
    cfg = load_run_config(args.config, args.set)
    ds = load_csv(cfg.dataset_path, cfg.schema) if cfg.dataset_path else None
    try:
        tree = cfg.hierarchy(ds.schema if ds is not None else cfg.schema)
    except HierarchyError as exc:
        print(HierarchyVerdict(False, (exc.violation,)).describe())
        return 1
    if ds is not None:
        tree.rows(ds)  # a conjunct on an unknown category is a SchemaError
    print("VALID")
    return 0


def _print_train_table(tree, risks_by_method, counts):
    methods = sorted(risks_by_method)
    header = f"{'group':<40}{'n_g':>8}" + "".join(f"{m:>14}" for m in methods)
    print(header)
    for g in tree.nodes:
        cells = ""
        for m in methods:
            value = risks_by_method[m].get(g.id)
            cells += f"{'-':>14}" if value is None else f"{value:>14.4f}"
        print(f"{g.id:<40}{counts[g.id]:>8}" + cells)


def _run_inputs(args, command: str):
    """The run-config, its dataset and the output directory, which is
    created once both have been read."""
    cfg = load_run_config(args.config, args.set)
    if not cfg.dataset_path:
        raise ConfigError(f"{command} needs a dataset path in the config")
    out_dir = args.out or cfg.output_dir
    if not out_dir:
        raise ConfigError(f"{command} needs an output directory (--out or output_dir)")
    ds = load_csv(cfg.dataset_path, cfg.schema)
    os.makedirs(out_dir, exist_ok=True)
    return cfg, ds, out_dir


def cmd_train(args) -> int:
    cfg, train, out_dir = _run_inputs(args, "train")
    tree = cfg.hierarchy(train.schema)
    loss = loss_from_name(cfg.loss)
    encoder = FeatureEncoder(train.schema, cfg.include_group_attributes)
    cache = PredictorCache(train, encoder)
    counts = {g.id: len(r) for g, r in zip(tree.nodes, tree.row_index(train))}

    for ls in cfg.learners:
        label = ls.label()
        risks_by_method = {}
        for name in cfg.methods:
            method = METHODS[name]
            with method_failure(name, label):
                fitted = method.fit(cache, tree, ls, cfg)
                if method.save is not None:
                    path = os.path.join(out_dir, f"{name}.{label}.model.json")
                    method.save(path, fitted, cache, ls)
                risks_by_method[name] = group_risks(fitted, train, tree, loss)

        print(f"== learner {label}: per-group training risk ({cfg.loss})")
        _print_train_table(tree, risks_by_method, counts)
    return 0


def cmd_evaluate(args) -> int:
    cfg, ds, out_dir = _run_inputs(args, "evaluate")
    report = run_experiment(cfg, ds, jobs=args.jobs)
    # both texts first: a report that cannot be encoded leaves neither file
    texts = {"report.csv": report.to_csv_text(), "report.json": report.to_json_text()}
    for name, text in texts.items():
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    print("worst-group mean test error:")
    for (method, learner), value in sorted(report.worst_group_errors().items()):
        shown = "-" if value is None else f"{value:.4f}"
        print(f"  {method:<12}{learner:<20}{shown}")
    return 0


def cmd_audit(args) -> int:
    with open(args.model, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    kind = doc.get("model") if isinstance(doc, dict) else None
    rebuilds = {"mgl_tree": rebuild_tree_predictor, "prepend": rebuild_decision_list}
    rebuild = rebuilds.get(kind) if isinstance(kind, str) else None
    if rebuild is None:
        raise ModelError(f"model kind {kind!r} is not auditable")
    with reading_model():
        header = stored_header(doc)
        predictor = rebuild(doc, header)
        train = load_csv(args.data, header.schema)
        if train.n != doc["n_train"] or dataset_fingerprint(train) != doc["dataset_fingerprint"]:
            raise ModelError("dataset does not match the model's training data")
        cache = PredictorCache(train, header.encoder)
        # raises if the trace does not list the stored tree's nodes in order
        verdict = None if kind == "prepend" else monotonicity_audit(
            predictor.trace, cache, predictor.tree, predictor.learner_spec,
            predictor.eps_spec, predictor.loss)

    problems = 0
    if verdict is None:
        for gid, source, value in termination_scan(predictor, cache):
            print(f"stopping-test violation: group {gid} candidate {source} value {value}")
            problems += 1
        # termination_scan fitted every source with training rows, so these
        # refits are cache hits
        tree, spec = predictor.tree, predictor.learner_spec
        rows = tree.row_index(train)
        stored = [("default", "ALL", predictor.default)]
        stored += [(f"entry {i} (group {e.group.id})", e.source_id, e.predictor)
                   for i, e in enumerate(predictor.entries)]
        for name, source, fit in stored:
            if not len(rows[tree.index(source)]):
                print(f"{name}: source {source} has no training rows")
                problems += 1
                continue
            refit = cache.erm(spec) if source == "ALL" else \
                cache.group_erm(spec, tree, tree.node(source))
            if fit.to_json() != refit.to_json():
                print(f"{name}: stored fit differs from the refit of source {source}")
                problems += 1
    else:
        if not verdict.ok:
            print(verdict.describe())
            problems += len(verdict.violations)
        replay = verdict.replay
        for entry in doc["nodes"]:
            gid = entry["id"]
            for key, replayed in (("decision", replay.decision.get(gid)),
                                  ("source", replay.source.get(gid))):
                if entry[key] != replayed:
                    print(f"node {gid}: stored {key} {entry[key]!r}, replay {replayed!r}")
                    problems += 1
            stored, refit = predictor.fits.get(gid), replay.fits.get(gid)
            if stored is not None and refit is not None and stored.to_json() != refit.to_json():
                print(f"node {gid}: stored fit differs from its refit")
                problems += 1
        mismatches = int((predictor.predict(train) != replay.predict(train)).sum())
        if mismatches:
            print(f"stored predictor disagrees with replay on {mismatches} training rows")
            problems += 1
        _, violations = excess_risk_report(predictor, cache)
        for row in violations:
            print(f"margin violation on {row['group_id']}: excess {row['excess']}")
            problems += 1

    if problems:
        print(f"AUDIT FAILED: {problems} problem(s)")
        return 1
    print("AUDIT CLEAN")
    return 0


def cmd_synth(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        spec = synthetic_spec_from_json(doc)
    except (KeyError, TypeError, AttributeError) as exc:  # a missing or wrong-typed field
        raise ConfigError(f"malformed synthetic spec: {exc!r}") from exc
    ds = make_synthetic(spec, args.seed)
    write_csv(ds, args.out)
    with open(args.schema_out or args.out + ".schema.json", "w", encoding="utf-8") as fh:
        json.dump(schema_to_json(ds.schema), fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {ds.n} rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multigroup",
        description="Train and evaluate group-aware predictors over hierarchical groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate-hierarchy", help="check the configured hierarchy")
    p.add_argument("--config", required=True)
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.set_defaults(func=cmd_validate_hierarchy)

    p = sub.add_parser("train", help="fit all configured methods on the full dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="run the trial protocol and write reports")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("audit", help="re-check a trained model against its data")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("synth", help="emit a synthetic fixture CSV")
    p.add_argument("--spec", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--schema-out", default=None)
    p.set_defaults(func=cmd_synth)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MethodError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, _INPUT_ERRORS) else 1


if __name__ == "__main__":
    sys.exit(main())
