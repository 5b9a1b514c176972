"""End-to-end benchmark of ``repro mine``: file-to-JSON latency per workload.

Run from the repository root::

    python3 perfbench/run.py --workload sparse-serial --seed 0 --seconds 28 --trace 0

One client runs a closed loop: each operation starts after the
previous one returned (see :mod:`workloads` for what one operation
is).  Before the loop, the inputs are generated from ``--seed`` and
written to ``.bench_out/`` (set-up, timed on its own), and one
untimed warm-up operation gives the reference output that every
later operation must reproduce.  For ``--seed 0`` the reference must
also match the digest recorded in ``digests.json``.

``--trace 0`` reports the end-to-end metrics: ``mine_s`` and
``cpu_s`` (medians per operation; CPU includes reaped worker
processes), ``peak_rss_mb`` (the largest worker's peak is printed
beside it) and ``setup_s`` (median of set-ups repeated between
operations).  ``error_rate`` is printed, and is ``failed / attempted``
of the result line.  Every time is rescaled to a nominal host speed
with the calibration kernel of :mod:`hostspeed`; the raw medians and
the kernel's own median are printed beside them.

``--trace 1`` times untraced operations for half the window, then
traced ones (``CSPMConfig(trace=True, metrics=True)`` plus the
wrappers of :mod:`layers`) for the other half.  It reports the
per-layer metrics (raw times), ``obs.overhead_frac`` (traced over
untraced rescaled median, minus one: the cost of the spans, the
metrics and the wrappers together), how much of an operation the
per-stage sums cover, the kernel's median ``host.kernel_s``, and
writes a Chrome trace of the last traced operation to ``.bench_out/``.

Human-readable lines come first; the last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
``--smoke`` runs tiny inputs (for the self-tests in
``test_perfbench.py``).
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from hostspeed import NOMINAL_KERNEL_S, HostSpeed

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"
DIGESTS = HERE / "digests.json"

#: Share of the measured window spent repeating the set-up, so that
#: ``setup_s`` is a median over the same stretch of time as ``mine_s``.
SETUP_SHARE = 0.1

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Every metric BENCHMARK.json declares, with its unit.
END_TO_END = {entry["name"]: entry["unit"] for entry in SPEC["end_to_end"]}
PER_LAYER = {entry["name"]: entry["unit"] for entry in SPEC["per_layer"]}


def _say(message: str) -> None:
    print(message, flush=True)


def cpu_seconds() -> float:
    """User+system CPU of this process and every reaped child."""
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def peak_rss_mb(who: int) -> float:
    """Peak resident set size (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


@dataclasses.dataclass
class Tally:
    """Operation counts and the reference outcome of one run."""

    attempted: int = 0
    failed: int = 0
    reference: Any = None

    def fail(self, message: str) -> None:
        self.failed += 1
        print(f"check failed: {message}", file=sys.stderr, flush=True)


class Bench:
    """One workload's inputs plus the operation and check that run on them."""

    def __init__(self, workloads: Any, name: str, seed: int, smoke: bool) -> None:
        self.workloads = workloads
        self.workload = workloads.WORKLOADS[name]
        self.seed = seed
        self.smoke = smoke
        self.graphs: List[Any] = []
        self.path = OUT_DIR / f"{name}.graph.json"

    def setup(self) -> float:
        """Generate the inputs and write the input file; returns seconds."""
        from repro.graphs.io import save_json
        from repro.obs import clock

        OUT_DIR.mkdir(exist_ok=True)
        start = clock.perf_counter()
        self.graphs = self.workload.make_graphs(self.seed, self.smoke)
        if not self.workload.batch:
            save_json(self.graphs[0], self.path)
        return clock.perf_counter() - start

    def operate(self, config: Any) -> Any:
        """One user-level operation; returns its raw output."""
        if self.workload.batch:
            return self.workloads.mine_batch(self.graphs, config, self.workload.batch_jobs)
        return self.workloads.mine_file(self.path, config)

    def outcome(self, raw: Any) -> Any:
        if self.workload.batch:
            return self.workloads.check_batch(raw, len(self.graphs))
        context, text, _stamps = raw
        return self.workloads.check_single(text, context.result.final_dl_bits)


@dataclasses.dataclass
class Samples:
    """Per-operation raw times and their host-speed factors."""

    walls: List[float] = dataclasses.field(default_factory=list)
    cpus: List[float] = dataclasses.field(default_factory=list)
    factors: List[float] = dataclasses.field(default_factory=list)

    def wall_s(self) -> float:
        """Median rescaled wall seconds."""
        return statistics.median(w * f for w, f in zip(self.walls, self.factors))

    def cpu_s(self) -> float:
        """Median rescaled CPU seconds."""
        return statistics.median(c * f for c, f in zip(self.cpus, self.factors))


def closed_loop(
    bench: Bench,
    tally: Tally,
    host: HostSpeed,
    seconds: float,
    operate: Callable[[], Any],
    compare: Callable[[Any], Any],
    on_result: Optional[Callable[[Any, float], None]] = None,
    before: Optional[Callable[[], None]] = None,
) -> Samples:
    """Run ``operate`` back to back for ``seconds``; check each output.

    Only the operation itself is timed; the previous operation's
    garbage is collected before the clock starts, so each operation
    begins from the same heap.  The calibration kernel runs right after
    it.  ``compare`` maps an outcome to what must equal the
    reference's.  ``before`` runs untimed ahead of each operation.
    Returns the samples of the operations that passed their check.
    """
    from repro.obs import clock

    samples = Samples()
    deadline = clock.perf_counter() + seconds
    while True:
        raw = None
        if before is not None:
            before()
        gc.collect()
        tally.attempted += 1
        cpu_start = cpu_seconds()
        start = clock.perf_counter()
        try:
            raw = operate()
            wall = clock.perf_counter() - start
            cpu = cpu_seconds() - cpu_start
            factor = host.factor()
            outcome = bench.outcome(raw)
        except Exception:  # the loop must keep measuring; report and count
            tally.fail(traceback.format_exc())
        else:
            if tally.reference is None:
                tally.reference = outcome
            if compare(outcome) != compare(tally.reference):
                tally.fail(f"output differs from the first operation: {outcome}")
            else:
                samples.walls.append(wall)
                samples.cpus.append(cpu)
                samples.factors.append(factor)
                if on_result is not None:
                    on_result(raw, wall)
        if clock.perf_counter() >= deadline:
            return samples


def warm_up(bench: Bench, tally: Tally, check_recorded: bool) -> None:
    """The untimed first operation: the run's reference output."""
    tally.attempted += 1
    try:
        outcome = bench.outcome(bench.operate(bench.workload.config))
    except Exception:  # a failed warm-up is a failed operation
        tally.fail(traceback.format_exc())
        return
    tally.reference = outcome
    if check_recorded:
        recorded = json.loads(DIGESTS.read_text()).get(bench.workload.name)
        if outcome.digest != recorded:
            tally.fail(
                f"digest {outcome.digest} != recorded {recorded} for seed {bench.seed}"
            )


def check_serial_twin(bench: Bench, tally: Tally) -> None:
    """Outside the timed window: a sharded result must equal serial."""
    if tally.reference is None:
        return
    config = bench.workloads.serial_twin(bench.workload.config)
    tally.attempted += 1
    try:
        serial = bench.outcome(bench.operate(config))
    except Exception:  # counted as a failed check
        tally.fail(traceback.format_exc())
        return
    if serial.payload != tally.reference.payload:
        tally.fail("sharded result differs from the serial mine of the same graph")


def environment(bench: Bench, host: HostSpeed) -> Dict[str, Any]:
    """What later readers need to tell drift from a change."""
    import numpy

    from repro.core.masks import resolve_backend

    config = bench.workload.config
    backends = sorted(
        {
            resolve_backend(config.mask_backend, num_bits_hint=graph.num_vertices).name
            for graph in bench.graphs
        }
    )
    return {
        "workload": bench.workload.name,
        "seed": bench.seed,
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED", "unset"),
        "mask_backend": ",".join(backends),
        "graphs": len(bench.graphs),
        "vertices": sum(graph.num_vertices for graph in bench.graphs),
        "kernel_s": host.median_kernel_s(),
    }


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def run_end_to_end(
    bench: Bench, host: HostSpeed, seconds: float, check_recorded: bool
) -> Tuple[Tally, Dict]:
    from repro.obs import clock

    raw_setups = [bench.setup()]
    setups = [raw_setups[0] * host.factor()]
    tally = Tally()
    warm_up(bench, tally, check_recorded)
    config = bench.workload.config
    started = clock.perf_counter()

    def repeat_setup() -> None:
        if sum(raw_setups) < SETUP_SHARE * (clock.perf_counter() - started):
            raw_setups.append(bench.setup())
            setups.append(raw_setups[-1] * host.factor())

    samples = closed_loop(
        bench,
        tally,
        host,
        seconds,
        lambda: bench.operate(config),
        lambda o: o.digest,
        before=repeat_setup,
    )
    # Read before the serial-twin check, which is not the operation.
    rss = peak_rss_mb(resource.RUSAGE_SELF)
    worker_rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
    if config.search == "sharded":
        check_serial_twin(bench, tally)
    error_rate = tally.failed / tally.attempted
    values = {"peak_rss_mb": rss, "setup_s": statistics.median(setups)}
    walls = samples.walls
    if walls:
        values.update(mine_s=samples.wall_s(), cpu_s=samples.cpu_s())
    metrics = {
        name: metric(values[name], unit)
        for name, unit in END_TO_END.items()
        if name in values
    }
    name = bench.workload.name
    if walls:
        _say(f"{name}: mine_s {values['mine_s']:.4f} s at nominal host speed, "
             f"raw {statistics.median(walls):.4f} s "
             f"(median of {len(walls)}; min {min(walls):.4f}, max {max(walls):.4f})")
        _say(f"{name}: cpu_s {values['cpu_s']:.4f} s at nominal host speed, "
             f"raw {statistics.median(samples.cpus):.4f} s (median of {len(walls)})")
    _say(f"{name}: peak_rss_mb {rss:.1f} MB (largest worker {worker_rss:.1f} MB)")
    _say(f"{name}: setup_s {values['setup_s']:.4f} s at nominal host speed, "
         f"raw {statistics.median(raw_setups):.4f} s (median of {len(setups)})")
    _say(f"{name}: error_rate {error_rate:g} ({tally.failed}/{tally.attempted})")
    _say(f"{name}: calibration kernel median {host.median_kernel_s() * 1e3:.2f} ms "
         f"(nominal {NOMINAL_KERNEL_S * 1e3:.2f} ms, {len(host.samples)} samples)")
    _say(f"{name}: raw samples " + json.dumps(
        {"mine_s": [round(v, 4) for v in walls], "setup_s": [round(v, 4) for v in raw_setups]}
    ))
    return tally, metrics


def run_traced(
    bench: Bench, host: HostSpeed, seconds: float, check_recorded: bool
) -> Tuple[Tally, Dict]:
    import layers
    from repro.core.masks import resolve_backend

    bench.setup()
    tally = Tally()
    warm_up(bench, tally, check_recorded)
    config = bench.workload.config
    untraced = closed_loop(
        bench, tally, host, seconds / 2, lambda: bench.operate(config), lambda o: o.digest
    )
    traced_config = dataclasses.replace(config, trace=True, metrics=True)
    backend = type(
        resolve_backend(config.mask_backend, num_bits_hint=bench.graphs[0].num_vertices)
    )
    records: List[Dict[str, float]] = []
    last: List[Any] = []
    with layers.Probe(backend) as probe:

        def operate() -> Any:
            probe.reset()
            return bench.operate(traced_config)

        def on_result(raw: Any, wall: float) -> None:
            if bench.workload.batch:
                record = layers.batch_layers(probe, raw, wall, bench.workload.batch_jobs)
            else:
                context, text, stamps = raw
                record = layers.single_layers(probe, context, stamps, text, wall)
            records.append(record)
            last[:] = [raw]

        traced = closed_loop(
            bench, tally, host, seconds / 2, operate, lambda o: o.payload, on_result
        )
    worker_rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
    if last:
        validate(bench, tally, last[0])
    metrics: Dict[str, Any] = {}
    if records and untraced.walls:
        values = layers.median_record(records)
        values["runtime.worker_peak_rss_mb"] = worker_rss
        values["obs.overhead_frac"] = traced.wall_s() / untraced.wall_s() - 1.0
        values["host.kernel_s"] = host.median_kernel_s()
        for name, unit in PER_LAYER.items():
            metrics[name] = metric(values.get(name, 0.0), unit)
        stage_note = "fit_many run seconds" if bench.workload.batch else "mine_s"
        _say(f"{bench.workload.name}: untraced mine_s {untraced.wall_s():.4f} s "
             f"(median of {len(untraced.walls)}), traced {traced.wall_s():.4f} s "
             f"(median of {len(traced.walls)}), both at nominal host speed; "
             f"per-stage sums cover {values['stages.coverage']:.1%} of raw {stage_note}")
        for name, entry in metrics.items():
            _say(f"  {name} {entry['value']:.6g} {entry['unit']}")
    return tally, metrics


def validate(bench: Bench, tally: Tally, raw: Any) -> None:
    """Outside the timed window: database invariants and the trace file."""
    if bench.workload.batch:
        pairs = [(run.result, graph) for run, graph in zip(raw.runs, bench.graphs)]
        obs = raw.obs
    else:
        context = raw[0]
        pairs = [(context.result, bench.graphs[0])]
        obs = context.obs
    tally.attempted += 1
    try:
        for result, graph in pairs:
            result.inverted_db.validate(graph)
    except Exception:  # counted as a failed check
        tally.fail(traceback.format_exc())
    path = OUT_DIR / f"{bench.workload.name}.trace.json"
    obs.tracer.write(str(path))
    _say(f"{bench.workload.name}: Chrome trace written to {path.relative_to(ROOT)}")


def record_digest(name: str, tally: Tally) -> None:
    if tally.failed or tally.reference is None:
        print("error: not recording the digest of a failed run", file=sys.stderr)
        return
    digests = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    digests[name] = tally.reference.digest
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    _say(f"{name}: recorded digest {tally.reference.digest}")


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs")
    parser.add_argument(
        "--record",
        action="store_true",
        help="store this run's reference digest in digests.json (seed 0 only)",
    )
    return parser.parse_args(argv)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"have {sorted(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    bench = Bench(workloads, args.workload, args.seed, args.smoke)
    check_recorded = (
        args.seed == workloads.DEFAULT_SEED and not args.smoke and not args.record
    )
    if args.record and (args.seed != workloads.DEFAULT_SEED or args.smoke):
        print("error: --record needs the default seed at full size", file=sys.stderr)
        return 2
    runner = run_traced if args.trace else run_end_to_end
    host = HostSpeed(bench.workload.processes)
    tally, metrics = runner(bench, host, args.seconds, check_recorded)
    _say("env: " + json.dumps(environment(bench, host), sort_keys=True))
    if args.record:
        record_digest(bench.workload.name, tally)
    expected = PER_LAYER if args.trace else END_TO_END
    missing = [name for name in expected if name not in metrics]
    if missing:
        print(f"error: no measurement for {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
