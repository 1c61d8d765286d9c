"""Command-line front end.

Subcommands mirror the pipeline stages: simulate, impute, discover,
effects, chronology, baseline, compare, falsify, and pipeline.  Exit code
0 means success, 1 a validation problem (a usage error, a value out of
range, unreadable or inconsistent inputs), 2 a failure inside a pipeline
stage.  A DAG file read with a data file is read onto the data's columns,
in their order, as the pipeline reads its reference models.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .bayesnet import fit_cpts, read_dag, write_dag
from .causal import REFUTATION_MODES, CausalRelationTable, effects_for_dag
from .chronology import (
    CORRECTIONS,
    build_chronology,
    compare_models,
    deterministic_chronology,
    falsify,
    scores_to_csv,
    strong_causal_relations,
)
from .dataset import load_reads, missingness_profile, save_reads
from .discovery import LEARNER_NAMES, default_lambda_grid, get_learner, stability_select
from .imputation import INITIAL_FILLS, em_impute
from .pipeline import PipelineConfig, ScenarioSpec, StageFailure, _canonical_json, run_pipeline, simulate

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalchron",
        description="Causal chronology reconstruction for binary event matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, help: str) -> argparse.ArgumentParser:
        # an option left out is absent from the namespace, so the library default applies
        return sub.add_parser(name, help=help, argument_default=argparse.SUPPRESS)

    p = command("simulate", "sample a synthetic scenario with block missingness")
    p.add_argument("--preset", required=True, help="chain[-d], fork, collider, diamond, random-d-p, ndhb-like, ndhd-like")
    p.add_argument("--n", dest="n_rows", type=int, help="number of rows (preset default otherwise)")
    p.add_argument("--rate", dest="missing_rate", type=float, help="per-row block missingness rate")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="output directory (data.csv + truth.json)")

    p = command("impute", "EM imputation with a structure learner")
    p.add_argument("--data", required=True)
    p.add_argument("--method", dest="initial_method", choices=list(INITIAL_FILLS))
    p.add_argument("--learner", choices=list(LEARNER_NAMES), default="hc")
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iter", type=int)
    p.add_argument("--ess", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="output directory")

    p = command("discover", "learn a DAG from complete data")
    p.add_argument("--data", required=True)
    p.add_argument("--algo", choices=list(LEARNER_NAMES), required=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--lambda", dest="lambda1", type=float)
    p.add_argument("--lambda-grid", dest="lambda_grid", help="a:b:k for k log-spaced points in [a, b]")
    p.add_argument("--omega", type=float)
    p.add_argument("--resamples", dest="n_resamples", type=int)
    p.add_argument("--standardize", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output directory")

    p = command("effects", "estimate per-edge causal effects")
    p.add_argument("--dag", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--refute", dest="refutations", choices=list(REFUTATION_MODES))
    p.add_argument("--ess", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="output directory")

    p = command("chronology", "build the timeline tree from a relation table")
    p.add_argument("--relations", required=True, help="effects JSON file")
    p.add_argument("--dag", required=True)
    p.add_argument("--out", required=True, help="output directory")

    p = command("baseline", "deterministic frequency-based chronology")
    p.add_argument("--data", required=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--correction", choices=list(CORRECTIONS))
    p.add_argument("--out", required=True, help="output directory")

    p = command("compare", "score models on the data (BIC, log-likelihood)")
    p.add_argument("--data", required=True)
    p.add_argument("--model", action="append", required=True, metavar="NAME=DAGFILE")
    p.add_argument("--ess", type=float)
    p.add_argument("--out", default=None, help="write scores.csv here (stdout otherwise)")

    p = command("falsify", "permutation falsification of a DAG against data")
    p.add_argument("--dag", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--perms", dest="n_perm", type=int)
    p.add_argument("--alpha-ci", type=float)
    p.add_argument("--alpha-f", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default=None, help="write verdict JSON here (stdout otherwise)")

    p = command("pipeline", "run every stage end to end")
    p.add_argument("--config", required=True, help="pipeline config JSON")
    p.add_argument("--out", dest="output_dir", help="override the output directory")
    p.add_argument("--seed", type=int, help="override the master seed")
    p.add_argument("--jobs", type=int, help="accepted for old scripts; has no effect")

    return parser


def _given(args: argparse.Namespace, *names: str) -> dict:
    """The options among ``names`` that the command line set."""
    return {name: getattr(args, name) for name in names if hasattr(args, name)}


def _parse_lambda_grid(text: str) -> tuple[float, ...]:
    try:
        a, b, k = text.split(":")
        return default_lambda_grid(float(a), float(b), int(k))
    except ValueError as exc:
        raise ValueError(f"bad lambda grid {text!r}; expected a:b:k") from exc


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = ScenarioSpec(args.preset, **_given(args, "n_rows", "missing_rate", "seed"))
    matrix, truth = simulate(spec)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_reads(matrix, out / "data.csv")
    (out / "truth.json").write_text(_canonical_json(truth), encoding="utf-8")
    print(f"wrote {out / 'data.csv'} ({matrix.n_rows} rows, {matrix.n_cols} events)")
    return 0


def _cmd_impute(args: argparse.Namespace) -> int:
    matrix = load_reads(args.data)
    tuning = _given(args, "initial_method", "tol", "max_iter", "ess", "seed")
    result = em_impute(matrix, get_learner(args.learner), **tuning)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_reads(result.completed, out / "data.imputed.csv")
    (out / "imputation.json").write_text(result.report_json(), encoding="utf-8")
    (out / "missingness.json").write_text(missingness_profile(matrix).to_json(), encoding="utf-8")
    print(f"converged={result.converged} after {result.iterations} iteration(s)")
    return 0


def _cmd_discover(args: argparse.Namespace) -> int:
    params = _given(args, "alpha", "lambda1", "lambda_grid", "omega", "n_resamples", "standardize")
    if "lambda_grid" in params:
        params["lambda_grid"] = _parse_lambda_grid(params["lambda_grid"])
    learner = get_learner(args.algo, **params)  # rejects a flag the chosen learner does not take
    matrix = load_reads(args.data)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.algo == "notears-stability":
        report = stability_select(matrix, seed=args.seed, **params)
        dag = report.dag
        (out / "stability.json").write_text(_canonical_json(report.to_json_doc()), encoding="utf-8")
    else:
        dag = learner(matrix, args.seed)
    write_dag(dag, out / f"dag.{args.algo}.edges")
    (out / f"dag.{args.algo}.dot").write_text(dag.to_dot(name=args.algo), encoding="utf-8")
    print(f"{args.algo}: {len(dag.edges)} edge(s)")
    return 0


def _cmd_effects(args: argparse.Namespace) -> int:
    matrix = load_reads(args.data)
    dag = read_dag(args.dag, matrix.columns)
    bn = fit_cpts(dag, matrix, **_given(args, "ess"))
    table = effects_for_dag(bn, matrix, **_given(args, "refutations", "seed", "ess"))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "effects.csv").write_text(table.to_csv(), encoding="utf-8")
    (out / "effects.json").write_text(table.to_json(), encoding="utf-8")
    print(f"{len(table.rows)} relation(s), {len(table.validated_rows())} validated")
    return 0


def _cmd_chronology(args: argparse.Namespace) -> int:
    table = CausalRelationTable.from_json(Path(args.relations).read_text(encoding="utf-8"))
    dag = read_dag(args.dag)
    strong = strong_causal_relations(table)
    tree = build_chronology(dag, strong)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "chronology.edges").write_text(tree.to_edge_list(), encoding="utf-8")
    (out / "chronology.dot").write_text(tree.to_dot(), encoding="utf-8")
    print(f"{len(tree.edges)} tree edge(s), {len(tree.isolated)} isolated node(s)")
    return 0


def _cmd_baseline(args: argparse.Namespace) -> int:
    matrix = load_reads(args.data)
    baseline = deterministic_chronology(matrix, **_given(args, "alpha", "correction"))
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "baseline.json").write_text(baseline.to_json(), encoding="utf-8")
    (out / "baseline.edges").write_text(baseline.dag.to_edge_list(), encoding="utf-8")
    (out / "baseline.dot").write_text(baseline.dag.to_dot(name="baseline"), encoding="utf-8")
    for warning in baseline.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(f"{len(baseline.dag.edges)} edge(s), {len(baseline.groups)} simultaneity group(s)")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    matrix = load_reads(args.data)
    models = []
    for item in args.model:
        name, _, path = item.partition("=")
        if not name or not path:
            raise ValueError(f"bad --model {item!r}; expected NAME=DAGFILE")
        models.append((name, read_dag(path, matrix.columns)))
    scores = compare_models(models, matrix, **_given(args, "ess"))
    text = scores_to_csv(scores)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_falsify(args: argparse.Namespace) -> int:
    matrix = load_reads(args.data)
    dag = read_dag(args.dag, matrix.columns)
    verdict = falsify(dag, matrix, **_given(args, "n_perm", "alpha_ci", "alpha_f", "seed"))
    text = verdict.to_json()
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    overrides = _given(args, "output_dir", "seed", "jobs")
    doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
    cfg = dataclasses.replace(PipelineConfig.from_doc(doc), **overrides)
    report = run_pipeline(cfg)
    print(f"pipeline complete: {len(report['models'])} model(s) in {cfg.output_dir}")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "impute": _cmd_impute,
    "discover": _cmd_discover,
    "effects": _cmd_effects,
    "chronology": _cmd_chronology,
    "baseline": _cmd_baseline,
    "compare": _cmd_compare,
    "falsify": _cmd_falsify,
    "pipeline": _cmd_pipeline,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help and 2 on a usage error
        return 1 if exc.code else 0
    try:
        return _COMMANDS[args.command](args)
    except StageFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
