#!/usr/bin/env python
"""The counter gate: the paper's scaling counters, measured and bounded.

Usage (from the repo root)::

    python benchmarks/perf_suite.py --quick --check benchmarks/perf_bounds.json

The harness reproduces the *shape* of the paper's scaling measurements
(Fig. 5: gain computations touched per step; Table III: runtime of the
search variants) on deterministic workloads, and writes one run of the
code it was run from to ``--out`` (default: ``BENCH_cspm.json`` at the
repo root).  Each member graph is encoded and built once by the
pipeline's own ``EncodeCoresets`` and ``BuildInvertedDB`` stages; each
measured case then runs the ``Search`` stage on a copy of that
database under a ``CSPMConfig`` of its own, so a case mines what
``repro mine`` would with the same flags.

Workloads
---------
``sparse-scaling``
    Planted communities with *disjoint* value pools: the co-occurrence
    structure is sparse, like the paper's large real graphs, where
    ``|SL|`` is large but only neighbourhood-correlated values ever
    co-occur.  The series scales the number of communities, which
    scales ``|SL|`` (and the quadratic scan) while per-pair work stays
    flat.  The full suite also runs CSPM-Basic here, the paper's loop
    that scores every pair on every iteration.
``dblp`` / ``dblp-trend`` / ``usflight``
    The Table II analogues: small, dense value universes.  When almost
    every value pair co-occurs, overlap-driven seeding must not cost
    more than the scan it replaces.
``pokec-sparse`` / ``pokec-xl``
    The sparse family at paper scale: 20k–200k vertices, and 800k and
    1.6M (the source paper's pokec size, full suite only).
    Whole-graph bigint masks are infeasible here (the recorded
    ``bigint_mask_bytes_estimate`` reads gigabytes), so these always
    run on chunked masks, whatever ``--mask-backend`` asks for.

Every run records the trace counters (``initial_candidate_gains``,
``total_gain_computations``, ``peak_queue_size``,
``refreshes_skipped``, ``dirty_revalidations``, ``iterations``,
``final_dl_bits``) and the mask backend and peak mask bytes it ran
with.  Counters are determined by the graph, not the machine, and are
identical under every mask backend, search path and observability
setting, so ``--check`` gates them against the bounds file on any host.
Wall-clock is recorded for people and never asserted.  The bounds file
is decoded strictly before anything is measured (:func:`load_bounds`).

Output document (schema v11, abridged)::

    {"schema_version": 11, "suite": "cspm-perf", "quick": bool, "seed": 0,
     "mask_backend": "auto", "search": "serial", "search_workers": null,
     "metrics": bool,
     "workloads": [
       {"workload": "sparse-scaling",
        "series": [
          {"label": "communities=16",
           "num_vertices": int, "num_leafsets": int, "possible_pairs": int,
           "num_components": int,             # coreset-overlap components
           "largest_component_frac": float,
           "mask_backend": "bigint",          # resolved for this graph
           "bigint_mask_bytes_estimate": int, # whole-graph-int reference
           "construction_seconds": float,     # BuildInvertedDB wall-clock
           "runs": {
             "partial/overlap": {
               "search_seconds": float,       # the Search stage's wall-clock
               "initial_candidate_gains": int, "total_gain_computations": int,
               "peak_queue_size": int, "refreshes_skipped": int,
               "dirty_revalidations": int, "iterations": int,
               "final_dl_bits": float,
               "mask_backend": "bigint", "mask_peak_bytes": int,
               "update_scope": "lazy", "search": "serial",  # partial runs
               "search_workers": int,         # sharded runs
               "degraded_tasks": [int],       # runs that opened a pool
               "metrics": {...}},             # with --metrics
             "basic/overlap": {...}},         # sparse-scaling, full suite
           "seeding_gain_reduction": float,   # possible_pairs / seeding gains
           "mask_memory_reduction": float}]}]}  # estimate / peak mask bytes, or 0
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import operator
import os
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.config import MASK_BACKENDS, SEARCHES, CSPMConfig
from repro.core.search_shard import connected_components
from repro.datasets import load_dataset
from repro.datasets.synthetic import pokec_sparse_graph, sparse_scaling_graph
from repro.errors import ConfigError, ReproError
from repro.graphs.attributed_graph import AttributedGraph
from repro.obs import MetricsRegistry, Observation, activate, current
from repro.pipeline import BuildInvertedDB, EncodeCoresets, PipelineContext, Search

REPO_ROOT = Path(__file__).resolve().parents[1]

SCHEMA_VERSION = 11

#: Family -> (quick sizes, full sizes): community counts (25 vertices
#: each) for the synthetic families, the generator scale for the
#: dataset analogues.  pokec-sparse's quick member is in both flavours,
#: so its bounds apply to either document; pokec-xl runs for about 20
#: minutes and has no quick member.
SIZES = {
    "sparse-scaling": ((16, 32, 48), (16, 32, 48, 64)),
    "dblp": ((0.5,), (1.0,)),
    "dblp-trend": ((0.5,), (1.0,)),
    "usflight": ((0.5,), (1.0,)),
    "pokec-sparse": ((800,), (800, 2000, 8000)),
    "pokec-xl": ((), (32000, 64000)),
}
WORKLOAD_NAMES = tuple(SIZES)

#: Bound key -> the type of its value.  A ``max_``/``min_`` key bounds
#: the field named by the rest of the key from above/below, and a
#: ``require_`` key pins it; the field is read from the overlap run,
#: or from its series entry when the run has no such field.
BOUND_TYPES = {
    "max_initial_candidate_gains": int,
    "max_total_gain_computations": int,
    "max_dirty_revalidations": int,
    "min_refreshes_skipped": int,
    "min_seeding_gain_reduction": float,
    "min_mask_memory_reduction": float,
    "require_mask_backend": str,
}

#: Bound prefix -> (the comparison by which a measurement breaks the
#: bound, its symbol in the failure message).
BREAKS = {
    "max": (operator.gt, ">"),
    "min": (operator.lt, "<"),
    "require": (operator.ne, "!="),
}

#: What a run can resolve to; ``auto`` is a request, never a result.
RESOLVED_BACKENDS = tuple(name for name in MASK_BACKENDS if name != "auto")


def label_of(workload: str, size: float) -> str:
    if workload in ("dblp", "dblp-trend", "usflight"):
        return f"scale={size}"
    return f"communities={size}"


def graph_of(workload: str, size: float, seed: int) -> AttributedGraph:
    if workload == "sparse-scaling":
        return sparse_scaling_graph(size, seed=seed)
    if workload.startswith("pokec"):
        return pokec_sparse_graph(size, seed=seed)
    return load_dataset(workload, scale=size, seed=seed)


# ----------------------------------------------------------------------
# Measuring
# ----------------------------------------------------------------------


def run_case(
    built: PipelineContext,
    config: CSPMConfig,
    initial_mask_bytes: int,
    metrics: bool = False,
) -> Dict[str, Any]:
    """One ``Search`` stage run on a fresh copy of the built database.

    With ``metrics`` the case records into a registry of its own, under
    the session's tracer and progress, so counts never bleed across
    cases.
    """
    context = dataclasses.replace(
        built, config=config, inverted_db=built.inverted_db.copy(), extras={}
    )
    parent = current()
    registry = MetricsRegistry() if metrics else None
    obs = Observation(parent.tracer, registry, parent.progress) if metrics else parent
    with activate(obs):
        Search().run(context)
    trace = context.trace
    db = context.inverted_db
    run: Dict[str, Any] = {
        "search_seconds": round(context.extras["search_seconds"], 6),
        "initial_candidate_gains": trace.initial_candidate_gains,
        "total_gain_computations": trace.total_gain_computations,
        "peak_queue_size": trace.peak_queue_size,
        "refreshes_skipped": trace.refreshes_skipped,
        "dirty_revalidations": trace.dirty_revalidations,
        "iterations": trace.num_iterations,
        "final_dl_bits": trace.final_dl_bits,
        "mask_backend": db.mask_backend.name,
        # The larger of two samples, after construction and at
        # convergence.  A merge can briefly split a row in three, so an
        # interior maximum may exceed both; the reduction floor in the
        # bounds file leaves an order of magnitude for that.
        "mask_peak_bytes": max(initial_mask_bytes, db.mask_memory_bytes()),
    }
    if config.method == "partial":
        run["update_scope"] = config.partial_update_scope
        run["search"] = config.search
        if config.search == "sharded":
            run["search_workers"] = config.search_workers
    report = context.extras.get("runtime", {}).get("search")
    if report is not None:
        run["degraded_tasks"] = report["degraded_tasks"]
    if registry is not None:
        run["metrics"] = registry.snapshot()
    return run


def measure_size(
    graph: AttributedGraph,
    label: str,
    config: CSPMConfig,
    basic: bool = False,
    metrics: bool = False,
) -> Dict[str, Any]:
    """Build ``graph`` once, then run CSPM-Partial (and Basic) on it."""
    built = PipelineContext(graph=graph, config=config)
    EncodeCoresets().run(built)
    BuildInvertedDB().run(built)
    # The database holds its own rows; Search never reads the coresets'
    # vertex sets, so let them go before the cases run.
    built.coreset_positions = None
    db0 = built.inverted_db
    cases = {"partial/overlap": config}
    if basic:
        cases["basic/overlap"] = config.replace(method="basic")
    initial_mask_bytes = db0.mask_memory_bytes()
    runs = {
        name: run_case(built, case, initial_mask_bytes, metrics)
        for name, case in cases.items()
    }
    # The components of the coreset-overlap graph bound how much the
    # sharded search can run in parallel.
    components = connected_components(db0)
    largest = max(map(len, components), default=0)
    leafsets = db0.num_leafsets
    possible_pairs = leafsets * (leafsets - 1) // 2
    partial = runs["partial/overlap"]
    estimate = db0.bigint_mask_bytes_estimate()
    peak = partial["mask_peak_bytes"]
    return {
        "label": label,
        "num_vertices": graph.num_vertices,
        "num_leafsets": leafsets,
        "possible_pairs": possible_pairs,
        "num_components": len(components),
        "largest_component_frac": round(largest / leafsets if leafsets else 0.0, 6),
        "mask_backend": db0.mask_backend.name,
        "bigint_mask_bytes_estimate": estimate,
        "construction_seconds": round(built.extras["construction_seconds"], 6),
        "runs": runs,
        # CSPM-Basic's full scan seeds every possible pair.
        "seeding_gain_reduction": round(
            possible_pairs / max(1, partial["initial_candidate_gains"]), 3
        ),
        # Unrounded, so the bound reads the exact ratio.
        "mask_memory_reduction": estimate / peak if peak else 0.0,
    }


def run_suite(
    quick: bool = False,
    seed: int = 0,
    only: Optional[Sequence[str]] = None,
    config: CSPMConfig = CSPMConfig(),
    metrics: bool = False,
) -> Dict[str, Any]:
    """Measure the families (those in ``only``, if given) into a document.

    ``config`` carries the suite-level mask backend and search path.
    Spans and progress are session-scoped: activate an
    :class:`repro.obs.Observation` around this call and every stage
    and worker pool records into it.
    """
    workloads = []
    for name, (quick_sizes, full_sizes) in SIZES.items():
        if only and name not in only:
            continue
        sizes = quick_sizes if quick else full_sizes
        if not sizes:
            print(f"{name}: full-suite only, skipped under --quick")
        family_config = (
            config.replace(mask_backend="chunked")
            if name.startswith("pokec")
            else config
        )
        series = []
        for size in sizes:
            label = label_of(name, size)
            print(f"{name}: {label} ...")
            series.append(
                measure_size(
                    graph_of(name, size, seed),
                    label,
                    family_config,
                    # Basic takes seconds to tens of seconds per member,
                    # and no bound reads its runs.
                    basic=name == "sparse-scaling" and not quick,
                    metrics=metrics,
                )
            )
        if series:
            workloads.append({"workload": name, "series": series})
    return {
        "schema_version": SCHEMA_VERSION,
        "suite": "cspm-perf",
        "quick": quick,
        "seed": seed,
        "mask_backend": config.mask_backend,
        "search": config.search,
        "search_workers": config.search_workers,
        "metrics": metrics,
        "workloads": workloads,
    }


def summarize(document: Dict[str, Any]) -> str:
    """A human-readable table of the partial runs."""
    header = (
        f"{'workload':<16}{'size':<18}{'|SL|':>7}{'pairs':>11}"
        f"{'seed red.':>10}{'search s':>10}{'build s':>9}{'peak Q':>8}"
        f"{'skipped':>9}{'dirty':>7}{'mask':>9}{'mask MB':>9}{'vs bigint':>10}"
    )
    lines = [header, "-" * len(header)]
    for workload in document["workloads"]:
        for entry in workload["series"]:
            run = entry["runs"]["partial/overlap"]
            lines.append(
                f"{workload['workload']:<16}{entry['label']:<18}"
                f"{entry['num_leafsets']:>7}{entry['possible_pairs']:>11}"
                f"{entry['seeding_gain_reduction']:>10.2f}"
                f"{run['search_seconds']:>10.3f}"
                f"{entry['construction_seconds']:>9.3f}"
                f"{run['peak_queue_size']:>8}{run['refreshes_skipped']:>9}"
                f"{run['dirty_revalidations']:>7}{run['mask_backend']:>9}"
                f"{run['mask_peak_bytes'] / 1e6:>9.2f}"
                f"{entry['mask_memory_reduction']:>9.1f}x"
            )
    return "\n".join(lines)


def collect_metrics(document: Dict[str, Any]) -> Dict[str, Any]:
    """The ``--metrics FILE`` document: the runs' snapshots keyed
    ``workload/label/case``, read from the BENCH document so the two
    never disagree."""
    return {
        f"{workload['workload']}/{entry['label']}/{case}": run["metrics"]
        for workload in document["workloads"]
        for entry in workload["series"]
        for case, run in entry["runs"].items()
        if "metrics" in run
    }


# ----------------------------------------------------------------------
# Bounds
# ----------------------------------------------------------------------


def _members(node: Any, path: str):
    """``(key, value, path)`` of an object's members; ``__`` keys are
    free-form comments and skipped."""
    if not isinstance(node, dict):
        raise ConfigError(
            f"{path} must be an object, got {type(node).__name__}"
        )
    for key, value in node.items():
        if not key.startswith("__"):
            yield key, value, f"{path}[{json.dumps(key)}]"


def _check_bound(key: str, value: Any, path: str) -> None:
    kind = BOUND_TYPES[key]
    if kind is str:
        if not (isinstance(value, str) and value in RESOLVED_BACKENDS):
            raise ConfigError(
                f"{path} must be one of {list(RESOLVED_BACKENDS)}, got {value!r}"
            )
        return
    # Exact types: bool is an int subclass, and a JSON ``true`` is no
    # bound.  An int passes where a float is expected.
    if type(value) is float:
        valid = kind is float and math.isfinite(value) and value >= 0
    else:
        valid = type(value) is int and value >= 0
    if not valid:
        noun = "int" if kind is int else "number"
        raise ConfigError(
            f"{path} must be a finite, non-negative {noun}, got {value!r}"
        )


def decode_bounds(document: Any) -> Dict[str, Dict[str, Dict[str, Any]]]:
    """Validate a decoded bounds document: workload -> label -> bounds.

    Every workload, label and bound key must be known and every bound
    of its type, else :class:`~repro.errors.ConfigError` names the JSON
    path of the first offender.  ``__``-prefixed keys are comments.
    """
    bounds: Dict[str, Dict[str, Dict[str, Any]]] = {}
    for workload, per_label, path in _members(document, "$"):
        if workload not in SIZES:
            raise ConfigError(
                f"{path}: unknown workload; known: {list(WORKLOAD_NAMES)}"
            )
        sizes = sorted(set().union(*SIZES[workload]))
        labels = [label_of(workload, size) for size in sizes]
        decoded = bounds[workload] = {}
        for label, constraints, label_path in _members(per_label, path):
            if label not in labels:
                raise ConfigError(f"{label_path}: unknown label; known: {labels}")
            decoded[label] = {}
            for key, value, key_path in _members(constraints, label_path):
                if key not in BOUND_TYPES:
                    raise ConfigError(
                        f"{key_path}: unknown bound; known: {sorted(BOUND_TYPES)}"
                    )
                _check_bound(key, value, key_path)
                decoded[label][key] = value
    return bounds


def load_bounds(path: str) -> Dict[str, Dict[str, Dict[str, Any]]]:
    """Read and :func:`decode_bounds` a UTF-8 JSON bounds file."""
    try:
        with open(path, encoding="utf-8") as handle:
            document = json.load(handle)
    except (OSError, ValueError) as exc:  # ValueError: bad UTF-8 or JSON
        raise ConfigError(f"cannot read bounds file {path}: {exc}") from None
    try:
        return decode_bounds(document)
    except ConfigError as exc:
        raise ConfigError(f"bounds file {path}: {exc}") from None


def check_bounds(
    document: Dict[str, Any], bounds: Dict[str, Dict[str, Dict[str, Any]]]
) -> List[str]:
    """The decoded ``bounds`` the document breaks, one message each."""
    failures: List[str] = []
    by_name = {w["workload"]: w for w in document["workloads"]}
    for name, per_label in bounds.items():
        if name not in by_name:
            failures.append(f"workload {name!r} missing from document")
            continue
        by_label = {entry["label"]: entry for entry in by_name[name]["series"]}
        for label, constraints in per_label.items():
            entry = by_label.get(label)
            if entry is None:
                failures.append(f"{name}: series {label!r} missing from document")
                continue
            run = entry["runs"]["partial/overlap"]
            for key, bound in constraints.items():
                kind, field = key.split("_", 1)
                value = run[field] if field in run else entry[field]
                breaks, symbol = BREAKS[kind]
                if breaks(value, bound):
                    failures.append(
                        f"{name}/{label}: {field} {value!r} {symbol} bound {bound!r}"
                    )
    return failures


# ----------------------------------------------------------------------
# Command line
# ----------------------------------------------------------------------


def write_document(document: Dict[str, Any], path: str) -> None:
    """Write-then-rename, so a failed write leaves an existing document
    as it was and no ``.tmp`` file behind."""
    temporary = f"{path}.tmp"
    try:
        with open(temporary, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=2)
            handle.write("\n")
        os.replace(temporary, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(temporary)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perf_suite.py",
        description="Measure the CSPM scaling counters into BENCH_cspm.json "
        "and check them against a bounds file.",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="the smaller sizes CI runs",
    )
    parser.add_argument(
        "--out",
        default=str(REPO_ROOT / "BENCH_cspm.json"),
        help="output path (default: BENCH_cspm.json at the repo root)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workload",
        action="append",
        dest="workloads",
        choices=WORKLOAD_NAMES,
        metavar="NAME",
        help=f"measure only this family (repeatable): {', '.join(WORKLOAD_NAMES)}",
    )
    parser.add_argument(
        "--mask-backend",
        choices=MASK_BACKENDS,
        default="auto",
        help="mask representation (the pokec families always run chunked)",
    )
    parser.add_argument("--search", choices=SEARCHES, default="serial")
    parser.add_argument(
        "--search-workers",
        type=int,
        default=None,
        metavar="N",
        help="worker processes for --search sharded (default: one per CPU)",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="write every stage's spans, worker lanes included, to FILE "
        "as a Chrome trace (NDJSON when FILE ends in '.ndjson')",
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        help="give each run a metrics registry, fold its snapshot into "
        "the run entry and collect them into FILE",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print throttled progress heartbeats to stderr",
    )
    parser.add_argument(
        "--check",
        metavar="BOUNDS_JSON",
        help="check the counters against this bounds file; exit 1 if "
        "one is broken",
    )
    return parser


def execute(args: argparse.Namespace) -> int:
    # A bad flag or bounds file fails here, before anything is measured.
    config = CSPMConfig(
        mask_backend=args.mask_backend,
        search=args.search,
        search_workers=args.search_workers,
    )
    bounds = load_bounds(args.check) if args.check else None
    outputs = {"--out": args.out, "--trace": args.trace, "--metrics": args.metrics}
    for flag, path in outputs.items():
        if path is not None and not Path(path).resolve().parent.is_dir():
            raise ConfigError(f"{flag} {path}: no such directory")
    obs = Observation.create(trace=args.trace is not None, progress=args.progress)
    with activate(obs):
        document = run_suite(
            quick=args.quick,
            seed=args.seed,
            only=args.workloads,
            config=config,
            metrics=args.metrics is not None,
        )
    if args.trace:
        obs.tracer.write(args.trace)
        print(f"wrote trace to {args.trace}", file=sys.stderr)
    if args.metrics:
        write_document(collect_metrics(document), args.metrics)
        print(f"wrote metrics to {args.metrics}", file=sys.stderr)
    write_document(document, args.out)
    print(f"\nwrote {args.out}")
    print(summarize(document))
    if bounds is None:
        return 0
    if args.workloads:
        # Gate only the families this run measured.
        bounds = {name: c for name, c in bounds.items() if name in args.workloads}
    failures = check_bounds(document, bounds)
    if failures:
        print("\nPERF REGRESSION:", file=sys.stderr)
        for failure in failures:
            print(f"  {failure}", file=sys.stderr)
        return 1
    print(f"\ncounter bounds OK ({args.check})")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the harness; a ``ReproError`` exits 2 with one ``error:`` line."""
    args = build_parser().parse_args(argv)
    try:
        return execute(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
