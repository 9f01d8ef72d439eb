"""Command-line front-end.

Subcommands: validate-hierarchy, train, evaluate, audit, synth. Every
command is driven by a JSON run-config (``--config``) with optional
``--set dotted.key=value`` overrides, and is deterministic under a fixed
config. Exit codes: 0 success, 1 domain failure, 2 usage or I/O failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .algorithms import excess_risk_report, monotonicity_audit, termination_scan
from .config import ConfigError, load_run_config
from .data import DataError, SchemaError, load_csv, make_synthetic, schema_from_json, \
    schema_to_json, synthetic_spec_from_json, write_csv
from .evaluation import run_experiment
from .groups import HierarchyError, HierarchyVerdict
from .learners import FeatureEncoder, PredictorCache
from .methods import METHODS, MethodError, group_risks, method_failure
from .modelio import dataset_fingerprint, rebuild_decision_list, rebuild_tree_predictor
from .risk import loss_from_name


def cmd_validate_hierarchy(args) -> int:
    try:
        cfg = load_run_config(args.config, args.set)
        ds = None
        if cfg.dataset_path:
            ds = load_csv(cfg.dataset_path, cfg.schema)
        tree = cfg.hierarchy(ds.schema if ds is not None else cfg.schema)
        if ds is not None:
            tree.rows(ds)  # a conjunct on an unknown category is a SchemaError
    except HierarchyError as exc:
        print(HierarchyVerdict(False, (exc.violation,)).describe())
        return 1
    except (ConfigError, SchemaError, DataError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
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


def cmd_train(args) -> int:
    try:
        cfg = load_run_config(args.config, args.set)
        if not cfg.dataset_path:
            raise ConfigError("train needs a dataset path in the config")
        out_dir = args.out or cfg.output_dir
        if not out_dir:
            raise ConfigError("train needs an output directory (--out or output_dir)")
        train = load_csv(cfg.dataset_path, cfg.schema)
    except (ConfigError, SchemaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    os.makedirs(out_dir, exist_ok=True)
    try:
        tree = cfg.hierarchy(train.schema)
        loss = loss_from_name(cfg.loss)
        encoder = FeatureEncoder(train.schema, cfg.include_group_attributes)
        cache = PredictorCache(train, encoder)
        rows = tree.rows(train)
        counts = {g.id: len(r) for g, r in zip(tree.nodes, rows)}

        for ls in cfg.learners:
            label = ls.label()
            risks_by_method = {}
            for name in cfg.methods:
                method = METHODS[name]
                with method_failure(name, label):
                    fitted = method.fit(train, tree, ls, cfg, cache)
                    if method.save is not None:
                        path = os.path.join(out_dir, f"{name}.{label}.model.json")
                        method.save(path, fitted, train, tree, ls, cfg)
                    risks_by_method[name] = group_risks(fitted, train, tree, rows, loss)

            print(f"== learner {label}: per-group training risk ({cfg.loss})")
            _print_train_table(tree, risks_by_method, counts)
    except (MethodError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_evaluate(args) -> int:
    try:
        cfg = load_run_config(args.config, args.set)
        if not cfg.dataset_path:
            raise ConfigError("evaluate needs a dataset path in the config")
        out_dir = args.out or cfg.output_dir
        if not out_dir:
            raise ConfigError("evaluate needs an output directory (--out or output_dir)")
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_experiment(cfg, jobs=args.jobs)
    except (FileNotFoundError, MethodError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.csv"), "w", encoding="utf-8") as fh:
        fh.write(report.to_csv_text())
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        fh.write(report.to_json_text())
    print("worst-group mean test error:")
    for (method, learner), value in sorted(report.worst_group_errors().items()):
        shown = "-" if value is None else f"{value:.4f}"
        print(f"  {method:<12}{learner:<20}{shown}")
    return 0


def cmd_audit(args) -> int:
    try:
        with open(args.model, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    kind = doc.get("model") if isinstance(doc, dict) else None
    rebuild = {"mgl_tree": rebuild_tree_predictor, "prepend": rebuild_decision_list}.get(kind)
    if rebuild is None:
        print(f"error: model kind {kind!r} is not auditable", file=sys.stderr)
        return 2
    try:
        predictor = rebuild(doc)
        train = load_csv(args.data, schema_from_json(doc["schema"]))
        if train.n != doc["n_train"] or dataset_fingerprint(train) != doc["dataset_fingerprint"]:
            raise ValueError("dataset does not match the model's training data")
    except (SchemaError, DataError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KeyError, TypeError) as exc:
        print(f"error: malformed model file: {exc!r}", file=sys.stderr)
        return 2

    cache = PredictorCache(train, FeatureEncoder(
        train.schema, doc.get("include_group_attributes", True)))
    problems = 0
    if kind == "mgl_tree":
        try:
            verdict = monotonicity_audit(predictor.trace, train, predictor.tree,
                                         predictor.learner_spec, predictor.eps_spec,
                                         predictor.loss, cache=cache)
        except ValueError as exc:  # a trace that does not fit the stored tree
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if not verdict.ok:
            print(verdict.describe())
            problems += len(verdict.violations)
        replay = verdict.replay
        replay_source = replay.source()
        for entry in doc["nodes"]:
            gid = entry["id"]
            for key, replayed in (("decision", replay.decision.get(gid)),
                                  ("source", replay_source.get(gid))):
                if entry[key] != replayed:
                    print(f"node {gid}: stored {key} {entry[key]!r}, replay {replayed!r}")
                    problems += 1
        mismatches = int((predictor.predict(train) != replay.predict(train)).sum())
        if mismatches:
            print(f"stored predictor disagrees with replay on {mismatches} training rows")
            problems += 1
        _, violations = excess_risk_report(predictor, train, cache=cache)
        for row in violations:
            print(f"margin violation on {row['group_id']}: excess {row['excess']}")
            problems += 1
    else:
        for gid, source, value in termination_scan(predictor, train, cache=cache):
            print(f"stopping-test violation: group {gid} candidate {source} value {value}")
            problems += 1

    if problems:
        print(f"AUDIT FAILED: {problems} problem(s)")
        return 1
    print("AUDIT CLEAN")
    return 0


def cmd_synth(args) -> int:
    try:
        with open(args.spec, "r", encoding="utf-8") as fh:
            spec = synthetic_spec_from_json(json.load(fh))
        ds = make_synthetic(spec, args.seed)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (KeyError, TypeError, AttributeError) as exc:  # a missing or wrong-typed field
        print(f"error: malformed synthetic spec: {exc!r}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    write_csv(ds, args.out)
    schema_path = args.schema_out or args.out + ".schema.json"
    with open(schema_path, "w", encoding="utf-8") as fh:
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
