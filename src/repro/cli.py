"""Command-line front end for the fair-ranking designer.

The CLI mirrors the interactive loop the paper envisions: load (or generate) a
dataset, state a proportionality constraint, propose weights, and get back
either a confirmation or the closest fair alternative.

Examples
--------
Check a weight vector on a synthetic COMPAS-like dataset::

    repro-fair-ranking suggest --dataset compas --n 500 --d 3 \\
        --n-cells 256 --max-hyperplanes 50 \\
        --attribute race --group African-American --k 0.3 --max-share 0.6 \\
        --weights 0.5,0.3,0.2

Run one of the paper's experiments::

    repro-fair-ranking experiment fig16
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.core.engine import ApproxConfig, TwoDConfig
from repro.core.explain import explain_repair, format_explanation
from repro.core.system import FairRankingDesigner
from repro.data.dataset import Dataset
from repro.data.synthetic import (
    COMPAS_SCORING_ATTRIBUTES,
    make_compas_like,
    make_dot_like,
)
from repro.experiments import (
    experiment_fig16_validation,
    experiment_fig17_2d_preprocessing,
    experiment_online_2d,
    experiment_online_md,
    experiment_sampling_dot,
    experiment_sec62_layouts,
    format_sweep,
    generate_figures,
)
from repro.exceptions import ConfigurationError, IndexIntegrityError, ReproError
from repro.fairness.auditing import audit_function, format_audit
from repro.fairness.proportional import ProportionalOracle
from repro.ranking.scoring import LinearScoringFunction

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-fair-ranking",
        description="Design fair linear ranking schemes (Asudeh et al., SIGMOD 2019).",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    suggest = subparsers.add_parser("suggest", help="check weights and suggest a fair alternative")
    suggest.add_argument("--dataset", choices=["compas", "dot"], default="compas")
    suggest.add_argument("--csv", help="load the dataset from a CSV instead of generating it")
    suggest.add_argument("--n", type=int, default=500, help="synthetic dataset size")
    suggest.add_argument("--d", type=int, default=3, help="number of scoring attributes")
    suggest.add_argument("--seed", type=int, default=0)
    suggest.add_argument("--attribute", required=True, help="type attribute of the constraint")
    suggest.add_argument("--group", required=True, help="protected group value")
    suggest.add_argument("--k", type=float, default=0.3, help="top-k (count or fraction)")
    suggest.add_argument("--max-share", type=float, help="maximum share of the group in the top-k")
    suggest.add_argument("--min-share", type=float, help="minimum share of the group in the top-k")
    suggest.add_argument("--n-cells", type=int, default=1024)
    suggest.add_argument("--max-hyperplanes", type=int, default=None)
    suggest.add_argument(
        "--weights", help="comma-separated non-negative weights, e.g. 0.5,0.3,0.2"
    )
    suggest.add_argument(
        "--weights-file",
        help="file with one comma-separated weight vector per line, "
        "answered as one batch via suggest_many",
    )
    suggest.add_argument(
        "--save-index",
        metavar="PATH",
        help="persist the preprocessed engine (config + index + sample) to PATH",
    )
    suggest.add_argument(
        "--load-index",
        metavar="PATH",
        help="answer from an engine file written by --save-index instead of preprocessing",
    )
    suggest.add_argument(
        "--explain",
        action="store_true",
        help="also explain what the suggested repair changes about the top-k",
    )
    suggest.add_argument(
        "--record-workload",
        metavar="PATH",
        help="serve through the instrumented engine and write every answered "
        "query to PATH as a replayable repro.obs.workload/v1 JSONL log",
    )
    suggest.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for preprocessing and --weights-file batches "
        "(answers are bit-identical to --workers 1)",
    )

    experiment = subparsers.add_parser("experiment", help="run one of the paper's experiments")
    experiment.add_argument(
        "name",
        choices=["fig16", "fig17", "layouts", "online2d", "onlinemd", "sampling"],
        help="experiment identifier (one of the paper's §6 experiments)",
    )

    audit = subparsers.add_parser(
        "audit", help="compute every fairness measure for a weight vector on a dataset"
    )
    audit.add_argument("--dataset", choices=["compas", "dot"], default="compas")
    audit.add_argument("--csv", help="load the dataset from a CSV instead of generating it")
    audit.add_argument("--n", type=int, default=500, help="synthetic dataset size")
    audit.add_argument("--d", type=int, default=3, help="number of scoring attributes")
    audit.add_argument("--seed", type=int, default=0)
    audit.add_argument("--attribute", required=True, help="type attribute to audit")
    audit.add_argument("--group", required=True, help="protected group value")
    audit.add_argument("--k", type=float, default=0.3, help="top-k (count or fraction)")
    audit.add_argument(
        "--weights", required=True, help="comma-separated non-negative weights, e.g. 0.5,0.3,0.2"
    )

    maintain = subparsers.add_parser(
        "maintain",
        help="apply inserts/updates/deletes to a persisted engine's dataset "
        "and maintain its index through the engine seam",
    )
    maintain.add_argument(
        "--load-index",
        required=True,
        metavar="PATH",
        help="engine file written by 'suggest --save-index'",
    )
    maintain.add_argument("--attribute", required=True, help="type attribute of the constraint")
    maintain.add_argument("--group", required=True, help="protected group value")
    maintain.add_argument("--k", type=float, default=0.3, help="top-k (count or fraction)")
    maintain.add_argument("--max-share", type=float, help="maximum share of the group in the top-k")
    maintain.add_argument("--min-share", type=float, help="minimum share of the group in the top-k")
    maintain.add_argument(
        "--insert",
        action="append",
        default=[],
        metavar="ROW",
        help="scoring row to append, e.g. '0.5,0.3,0.2' or "
        "'0.5,0.3,0.2;race=African-American' when the dataset has type "
        "attributes (repeatable)",
    )
    maintain.add_argument(
        "--update",
        action="append",
        default=[],
        metavar="INDEX:ROW",
        help="replace one item's scoring row, e.g. '7:0.5,0.3,0.2' (repeatable)",
    )
    maintain.add_argument(
        "--delete",
        metavar="INDICES",
        help="comma-separated item indices to remove, e.g. '3,7'",
    )
    maintain.add_argument(
        "--save-index",
        metavar="PATH",
        help="persist the maintained engine to PATH (defaults to not saving)",
    )

    figures = subparsers.add_parser(
        "figures", help="regenerate figure data files (CSV + ASCII chart) at reduced scale"
    )
    figures.add_argument("--output", default="figures", help="output directory")
    figures.add_argument(
        "--names",
        help="comma-separated figure names (default: all); see repro.experiments.FIGURE_GENERATORS",
    )
    return parser


def _load_dataset(args: argparse.Namespace) -> Dataset:
    if args.csv:
        return Dataset.from_csv(args.csv)
    if args.dataset == "compas":
        dataset = make_compas_like(n=args.n, seed=args.seed)
        return dataset.project(list(COMPAS_SCORING_ATTRIBUTES[: args.d]))
    return make_dot_like(n=args.n, seed=args.seed)


def _format_result(result, prefix: str = "") -> None:
    if result.satisfactory:
        print(f"{prefix}The proposed weights already satisfy the fairness constraint.")
    else:
        suggested = ", ".join(f"{value:.4f}" for value in result.function.weights)
        print(f"{prefix}The proposed weights violate the fairness constraint.")
        print(f"{prefix}Closest satisfactory weights: [{suggested}]")
        print(
            f"{prefix}Angular distance: {result.angular_distance:.4f} rad "
            f"(cosine similarity {result.cosine_similarity():.4f})"
        )


def _constraint_oracle(args: argparse.Namespace) -> ProportionalOracle | None:
    """The FM1 oracle the constraint flags describe, or ``None`` after printing why not."""
    if args.max_share is None and args.min_share is None:
        print("error: provide --max-share and/or --min-share", file=sys.stderr)
        return None
    return ProportionalOracle(
        args.attribute,
        args.group,
        k=args.k if args.k < 1 else int(args.k),
        min_fraction=args.min_share,
        max_fraction=args.max_share,
    )


def _load_engine_file(path: str, oracle: ProportionalOracle) -> FairRankingDesigner | None:
    """Load a ``--load-index`` engine file, or return ``None`` after printing why not.

    Every load failure — missing file, corruption, a file in another format —
    becomes one actionable line on stderr (the caller exits 2), never a
    traceback.
    """
    try:
        return FairRankingDesigner.load(path, oracle)
    except IndexIntegrityError as error:
        message = str(error)
    except FileNotFoundError:
        message = (
            f"engine file {path!r} does not exist; create one with 'suggest --save-index'"
        )
    except IsADirectoryError:
        message = f"{path!r} is a directory, not an engine file"
    except ReproError as error:
        message = f"cannot load {path!r}: {error}"
    print(f"error: {message}", file=sys.stderr)
    return None


def _run_suggest(args: argparse.Namespace) -> int:
    oracle = _constraint_oracle(args)
    if oracle is None:
        return 2
    if args.weights is None and args.weights_file is None:
        print("error: provide --weights and/or --weights-file", file=sys.stderr)
        return 2
    if args.workers < 1:
        print(f"error: --workers must be >= 1, got {args.workers}", file=sys.stderr)
        return 2
    if args.workers > 1 and args.record_workload:
        # The workload recorder is an in-process tape; queries answered in
        # worker processes would never reach it. Refuse rather than silently
        # record a partial workload.
        print(
            "error: --record-workload serves in-process; drop it or use --workers 1",
            file=sys.stderr,
        )
        return 2
    if args.load_index:
        # Serve from a persisted engine: no dataset load, no preprocessing.
        designer = _load_engine_file(args.load_index, oracle)
        if designer is None:
            return 2
        if args.record_workload:
            # Re-wrap the loaded engine: instrumented engines are not
            # persistable, so recording is always layered on after loading.
            from repro.obs.instrument import InstrumentedEngine

            designer = FairRankingDesigner._from_engine(
                InstrumentedEngine.from_engine(designer.engine, record_workload=True)
            )
        dataset = designer.dataset
    else:
        dataset = _load_dataset(args)
        if dataset.n_attributes == 2:
            config = TwoDConfig(preprocess_workers=args.workers)
        else:
            config = ApproxConfig(
                n_cells=args.n_cells,
                max_hyperplanes=args.max_hyperplanes,
                preprocess_workers=args.workers,
            )
        if args.record_workload:
            from repro.obs.instrument import InstrumentedConfig

            config = InstrumentedConfig(inner=config, record_workload=True)
        designer = FairRankingDesigner(dataset, oracle, config).preprocess()
    if args.save_index:
        if args.record_workload:
            # The instrumented wrapper itself is not persistable; persist the
            # inner engine, which answers bit-identically.
            from repro.io.index_store import save_engine

            save_engine(designer.engine.inner, args.save_index)
        else:
            designer.save(args.save_index)
        print(f"engine saved to {args.save_index}")
    if args.weights is not None:
        weights = [float(value) for value in args.weights.split(",")]
        result = designer.suggest(weights)
        _format_result(result)
        if getattr(args, "explain", False):
            print()
            print(format_explanation(explain_repair(dataset, result, k=oracle.k)))
    if args.weights_file is not None:
        with open(args.weights_file, "r", encoding="utf-8") as handle:
            lines = [line.strip() for line in handle]
        batch = [
            [float(value) for value in line.split(",")] for line in lines if line
        ]
        if not batch:
            print("error: the weights file contains no weight vectors", file=sys.stderr)
            return 2
        if args.workers > 1:
            # Shard the batch across worker processes; single queries and
            # everything else still run in-process on the original engine.
            from repro.parallel.pool import PoolEngine

            with PoolEngine.from_engine(designer.engine, n_workers=args.workers) as pool:
                results = FairRankingDesigner._from_engine(pool).suggest_many(batch)
        else:
            results = designer.suggest_many(batch)
        for weights, result in zip(batch, results):
            formatted = ", ".join(f"{value:g}" for value in weights)
            if result.satisfactory:
                print(f"[{formatted}] -> already fair")
            else:
                suggested = ", ".join(f"{value:.4f}" for value in result.function.weights)
                print(
                    f"[{formatted}] -> [{suggested}] "
                    f"(distance {result.angular_distance:.4f} rad)"
                )
            if getattr(args, "explain", False):
                print(format_explanation(explain_repair(dataset, result, k=oracle.k)))
                print()
    if args.record_workload:
        workload = designer.engine.workload
        path = workload.save(args.record_workload)
        print(f"workload recorded to {path} ({workload.n_queries} queries)")
    return 0


def _parse_insert(spec: str) -> tuple[tuple[float, ...], dict]:
    """Parse one ``--insert`` value into (scores, {type attribute: value})."""
    parts = spec.split(";")
    row = tuple(float(value) for value in parts[0].split(","))
    types: dict = {}
    for assignment in parts[1:]:
        if "=" not in assignment:
            raise ConfigurationError(
                f"type assignment {assignment!r} must look like attribute=value"
            )
        key, _, value = assignment.partition("=")
        types[key.strip()] = value.strip()
    return row, types


def _parse_delta(args: argparse.Namespace):
    """Build a DatasetDelta from the maintain subcommand's arguments."""
    from repro.core.maintenance import DatasetDelta

    inserts = []
    per_item_types: list[dict] = []
    for spec in args.insert:
        row, types = _parse_insert(spec)
        inserts.append(row)
        per_item_types.append(types)
    attributes = sorted({key for types in per_item_types for key in types})
    insert_types = {
        attribute: tuple(types.get(attribute) for types in per_item_types)
        for attribute in attributes
    }
    updates = []
    for spec in args.update:
        index_text, _, row_text = spec.partition(":")
        updates.append(
            (int(index_text), tuple(float(value) for value in row_text.split(",")))
        )
    deletes = (
        tuple(int(value) for value in args.delete.split(",")) if args.delete else ()
    )
    return DatasetDelta(
        inserts=tuple(inserts),
        insert_types=insert_types,
        deletes=deletes,
        updates=tuple(updates),
    )


def _run_maintain(args: argparse.Namespace) -> int:
    oracle = _constraint_oracle(args)
    if oracle is None:
        return 2
    try:
        delta = _parse_delta(args)
    except ValueError as error:
        print(f"error: malformed delta argument: {error}", file=sys.stderr)
        return 2
    designer = _load_engine_file(args.load_index, oracle)
    if designer is None:
        return 2
    try:
        report = designer.apply_delta(delta)
    except ReproError as error:
        print(f"error: cannot apply the delta: {error}", file=sys.stderr)
        return 2
    for key, value in report.as_dict().items():
        print(f"{key}: {value}")
    if args.save_index:
        try:
            designer.save(args.save_index)
        except ReproError as error:
            print(f"error: cannot save the engine: {error}", file=sys.stderr)
            return 2
        print(f"engine saved to {args.save_index}")
    return 0


def _run_experiment(name: str) -> int:
    if name == "fig16":
        result = experiment_fig16_validation()
        print(f"queries: {result.n_queries}, already satisfactory: {result.n_already_satisfactory}")
        for threshold, count in result.cumulative_counts().items():
            print(f"  suggestions with distance < {threshold}: {count}")
        print(f"  max suggestion distance: {result.max_distance:.4f}")
    elif name == "fig17":
        print(format_sweep(experiment_fig17_2d_preprocessing()))
    elif name == "layouts":
        for layout in experiment_sec62_layouts():
            print(
                f"{layout.name}: regions={layout.n_regions}, "
                f"satisfactory angle={layout.total_satisfactory_angle:.3f}, "
                f"max repair={layout.max_repair_distance:.3f}"
            )
    elif name == "online2d":
        timing = experiment_online_2d(n_items=2000)
        print(
            f"2DONLINE: {timing.mean_query_seconds * 1e6:.1f} us/query vs "
            f"{timing.mean_ordering_seconds * 1e3:.2f} ms to sort (x{timing.speedup:.0f})"
        )
    elif name == "onlinemd":
        for timing in experiment_online_md(n_items=300):
            print(
                f"{timing.label}: {timing.mean_query_seconds * 1e6:.1f} us/query vs "
                f"{timing.mean_ordering_seconds * 1e3:.2f} ms to sort (x{timing.speedup:.0f})"
            )
    elif name == "sampling":
        result = experiment_sampling_dot(full_size=50_000)
        print(
            f"sample={result.sample_size} of {result.full_size}; preprocessing "
            f"{result.preprocess_seconds:.1f}s; {result.n_satisfactory_on_full}/"
            f"{result.n_functions_checked} assigned functions satisfactory on the full data"
        )
    return 0


def _run_audit(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args)
    weights = [float(value) for value in args.weights.split(",")]
    k = args.k if args.k < 1 else int(args.k)
    function = LinearScoringFunction(tuple(weights))
    audit = audit_function(dataset, function, args.attribute, args.group, k=k)
    print(format_audit(audit, title=f"fairness audit of weights [{args.weights}]"))
    return 0


def _run_figures(args: argparse.Namespace) -> int:
    names = [name.strip() for name in args.names.split(",")] if args.names else None
    written = generate_figures(args.output, names=names)
    for name, (csv_path, txt_path) in written.items():
        print(f"{name}: {csv_path} {txt_path}")
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "suggest":
        return _run_suggest(args)
    if args.command == "audit":
        return _run_audit(args)
    if args.command == "maintain":
        return _run_maintain(args)
    if args.command == "figures":
        return _run_figures(args)
    return _run_experiment(args.name)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
