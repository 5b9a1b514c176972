"""Command-line interface for the reproduction.

Subcommands::

    python -m repro.cli mine <graph.json>        # mine + print a-stars
    python -m repro.cli mine <graph.json> --json # machine-readable run
    python -m repro.cli stats <graph.json>       # Table II style stats
    python -m repro.cli datasets                 # list dataset analogues
    python -m repro.cli generate <name> out.json # write an analogue
    python -m repro.cli alarms                   # Fig. 8 style comparison
    python -m repro.cli lint                     # invariant linter (repro.analysis)
    python -m repro.cli version                  # print the package version

Every subcommand goes through the typed public API: mining options are
collected into a :class:`repro.config.CSPMConfig` and run through the
default :class:`repro.pipeline.MiningPipeline` — the identical code
path the ``CSPM`` facade drives for library consumers — with the
observability session (``--trace``/``--metrics``/``--progress``,
:mod:`repro.obs`) exported after the run.
Graphs are exchanged in the JSON format of :mod:`repro.graphs.io`.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro import __version__
from repro.config import (
    ENCODERS,
    MASK_BACKENDS,
    METHODS,
    SEARCHES,
    UPDATE_SCOPES,
    CSPMConfig,
)
from repro.datasets import available_datasets, load_dataset
from repro.errors import ReproError
from repro.graphs.io import load_json, save_json
from repro.graphs.stats import graph_stats


def _add_mine(subparsers) -> None:
    parser = subparsers.add_parser("mine", help="mine a-stars from a graph")
    parser.add_argument("graph", help="path to a graph JSON file")
    parser.add_argument("--method", choices=METHODS, default="partial")
    parser.add_argument(
        "--encoder",
        choices=ENCODERS,
        default="singleton",
        help="coreset encoder (Section IV-F)",
    )
    parser.add_argument(
        "--scope",
        choices=UPDATE_SCOPES,
        default="lazy",
        help="partial-update scope (Algorithm 4): 'lazy' mines "
        "CSPM-Basic's exact model, 'related' is the paper's cheaper "
        "rdict heuristic",
    )
    parser.add_argument(
        "--top",
        type=int,
        default=None,
        help="patterns to keep (0 = keep all; default: 20 for text "
        "output, all for --json)",
    )
    parser.add_argument(
        "--min-leafset", type=int, default=1, help="minimum leafset size"
    )
    parser.add_argument(
        "--mask-backend",
        choices=MASK_BACKENDS,
        default="auto",
        help="position-mask representation (repro.core.masks): 'auto' "
        "picks bigint below the chunking threshold and sparse chunked "
        "bitmaps at paper scale; every backend mines the identical "
        "model",
    )
    parser.add_argument(
        "--search",
        choices=SEARCHES,
        default="serial",
        help="greedy-search execution (repro.core.search_shard): "
        "'serial' runs the single-process queue loop, 'sharded' mines "
        "the connected components of the coreset-overlap graph in "
        "worker processes and stitches a bit-identical result; applies "
        "to --method partial without an iteration cap",
    )
    parser.add_argument(
        "--search-workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for --search sharded "
        "(default: one per usable CPU)",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="record nested observability spans for every pipeline "
        "stage and worker pool (repro.obs) and write them to FILE as "
        "Chrome trace-event JSON — NDJSON when FILE ends with "
        "'.ndjson' — loadable in Perfetto or chrome://tracing; "
        "recording never changes the mined result",
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="FILE",
        help="write the run's metric snapshot (named counters, gauges "
        "and histograms, repro.obs) to FILE as JSON",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print throttled progress heartbeats for long phases to "
        "stderr",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the full serialised result (config, a-stars, trace, "
        "DL accounting) as JSON instead of text",
    )


def _add_version(subparsers) -> None:
    subparsers.add_parser(
        "version", help="print the package version and exit"
    )


def _add_stats(subparsers) -> None:
    parser = subparsers.add_parser("stats", help="print graph statistics")
    parser.add_argument("graph", help="path to a graph JSON file")


def _add_datasets(subparsers) -> None:
    subparsers.add_parser("datasets", help="list dataset analogues")


def _add_generate(subparsers) -> None:
    parser = subparsers.add_parser("generate", help="write a dataset analogue")
    parser.add_argument("name", help="dataset name (see `datasets`)")
    parser.add_argument("output", help="output JSON path")
    parser.add_argument("--scale", type=float, default=None)
    parser.add_argument("--seed", type=int, default=0)


def _add_alarms(subparsers) -> None:
    parser = subparsers.add_parser(
        "alarms", help="run the alarm-correlation comparison (Fig. 8)"
    )
    parser.add_argument("--devices", type=int, default=80)
    parser.add_argument("--windows", type=int, default=150)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--method",
        choices=METHODS,
        default="partial",
        help="CSPM search variant used for rule extraction",
    )


def _add_lint(subparsers) -> None:
    parser = subparsers.add_parser(
        "lint",
        help="run the project invariant linter (repro.analysis)",
        description="Static analysis over the repro source tree for the "
        "project's correctness contracts that no structural fix or tier-1 "
        "test already guarantees: determinism (DET*), mask-backend purity "
        "(MSK*), one owner of worker processes (SUP001) and picklable "
        "worker payloads (FRK002), config/CLI drift (CFG001), exception "
        "handling (RES002), observability (OBS*) and the collector "
        "(GC001); --list-rules names each rule.  Exit code 1 on any "
        "finding, 2 on an unreadable or unparsable path or an unknown "
        "rule id.  See docs/INVARIANTS.md.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the installed "
        "repro package)",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable report (the CI artifact) "
        "instead of text",
    )
    parser.add_argument(
        "--rule",
        action="append",
        dest="rules",
        default=None,
        metavar="ID",
        help="run only this rule id (repeatable; default: all)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CSPM: representative attribute-stars via MDL (ICDE 2022)",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_mine(subparsers)
    _add_version(subparsers)
    _add_stats(subparsers)
    _add_datasets(subparsers)
    _add_generate(subparsers)
    _add_alarms(subparsers)
    _add_lint(subparsers)
    return parser


def _mine_config(args) -> CSPMConfig:
    """The CSPMConfig described by the ``mine`` arguments.

    In ``--json`` mode the ``--top``/``--min-leafset`` post-filters go
    into the config (and hence into the serialised result); in text
    mode they only trim the printout, so the summary reports the true
    mined counts — matching how the miner behaves without a CLI.
    """
    post_filters = {}
    if args.json:
        post_filters = {
            "top_k": args.top if args.top and args.top > 0 else None,
            "min_leafset": max(1, args.min_leafset),
        }
    return CSPMConfig(
        method=args.method,
        coreset_encoder=args.encoder,
        partial_update_scope=args.scope,
        mask_backend=args.mask_backend,
        search=args.search,
        search_workers=args.search_workers,
        trace=args.trace is not None,
        metrics=args.metrics is not None,
        progress=args.progress,
        **post_filters,
    )


def _export_observability(args, obs) -> None:
    """Write the run's trace/metrics files, confirming on stderr.

    stdout stays reserved for the mined result (``--json`` pipelines
    depend on it), so the file confirmations go to stderr like the
    progress heartbeats.
    """
    if obs is None:
        return
    if args.trace:
        obs.tracer.write(args.trace)
        print(f"wrote trace to {args.trace}", file=sys.stderr)
    if args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as handle:
            json.dump(obs.metrics.snapshot(), handle, indent=2)
            handle.write("\n")
        print(f"wrote metrics to {args.metrics}", file=sys.stderr)


def _command_mine(args) -> int:
    from repro.pipeline import MiningPipeline

    graph = load_json(args.graph)
    config = _mine_config(args)
    # Run through the pipeline context (not the CSPM facade) so the
    # observation session — spans, metrics, progress — stays reachable
    # after the run; the mined result is identical either way.
    context = MiningPipeline.default(config).run_context(graph)
    result = context.result
    _export_observability(args, context.obs)
    if args.json:
        print(result.to_json(indent=2))
        return 0
    print(result.summary())
    top = args.top if args.top is not None else 20
    stars = result.filter(min_leafset_size=max(1, args.min_leafset))
    if top > 0:
        stars = stars[:top]
    for star in stars:
        print(f"  {star}")
    return 0


def _command_version(_args) -> int:
    print(__version__)
    return 0


def _command_stats(args) -> int:
    graph = load_json(args.graph)
    print(graph_stats(graph).as_row())
    return 0


def _command_datasets(_args) -> int:
    for name in available_datasets():
        print(name)
    return 0


def _command_generate(args) -> int:
    graph = load_dataset(args.name, scale=args.scale, seed=args.seed)
    save_json(graph, args.output)
    print(f"wrote {graph} to {args.output}")
    return 0


def _command_alarms(args) -> int:
    from repro.alarms import (
        acor_rank_pairs,
        coverage_curve,
        cspm_rank_pairs,
        default_rule_library,
        simulate_alarms,
    )

    library = default_rule_library(seed=0)
    simulation = simulate_alarms(
        library,
        num_devices=args.devices,
        num_windows=args.windows,
        causes_per_window=2.5,
        derivative_flap_rate=2.0,
        cascade_probability=0.4,
        window_split_probability=0.5,
        seed=args.seed,
    )
    top_ks = [50, 100, 250, 500, 1000, 2000]
    truth = library.pair_rules()
    config = CSPMConfig(method=args.method)
    cspm_curve = coverage_curve(
        cspm_rank_pairs(simulation, config=config), truth, top_ks
    )
    acor_curve = coverage_curve(acor_rank_pairs(simulation), truth, top_ks)
    print("top-K :" + "".join(f"{k:>7}" for k in top_ks))
    print("CSPM  :" + "".join(f"{v:>7.2f}" for v in cspm_curve))
    print("ACOR  :" + "".join(f"{v:>7.2f}" for v in acor_curve))
    return 0


def _command_lint(args) -> int:
    from repro.analysis import lint_paths, resolve_rules

    if args.list_rules:
        for rule in resolve_rules(None):
            print(f"{rule.id}  [{rule.severity}]  {rule.title}")
        return 0
    report = lint_paths(paths=args.paths or None, rule_ids=args.rules)
    print(report.render_json() if args.json else report.render_text())
    return 0 if report.clean else 1


_COMMANDS = {
    "mine": _command_mine,
    "version": _command_version,
    "stats": _command_stats,
    "datasets": _command_datasets,
    "generate": _command_generate,
    "alarms": _command_alarms,
    "lint": _command_lint,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Dispatch a subcommand, converting failures to one-line exits.

    Library errors (:class:`~repro.errors.ReproError`, which covers
    ``GraphError``/``MiningError``/``ConfigError``) and Ctrl-C both
    exit non-zero with a single stderr line instead of a traceback —
    the CLI is the process boundary, so this is where a stack dump
    stops being diagnostics and starts being noise.
    """
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
