"""Fig. 5 — gain update ratio per iteration, CSPM-Basic vs -Partial.

For each dataset the per-iteration update ratio (gains computed /
possible pairs) is recorded by the run trace.  CSPM-Basic recomputes
everything (ratio 1.0 throughout); CSPM-Partial touches only the
affected neighbourhood, so its curve sits far below — the effect the
paper plots in Fig. 5.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import bench_scale
from repro.config import CSPMConfig
from repro.core.miner import CSPM
from repro.datasets import load_dataset

DATASETS = [
    ("DBLP", "dblp", 1.0),
    ("DBLP-Trend", "dblp-trend", 1.0),
    ("USFlight", "usflight", 1.0),
    ("Pokec", "pokec", None),
]


def _series_text(ratios, points=10):
    if not ratios:
        return "(no merges)"
    step = max(1, len(ratios) // points)
    sampled = ratios[::step][:points]
    return " ".join(f"{r:.3f}" for r in sampled)


@pytest.fixture(scope="module")
def traces():
    scale = bench_scale()
    collected = {}
    for label, name, base_scale in DATASETS:
        effective = None if base_scale is None else base_scale * scale
        graph = load_dataset(name, scale=effective, seed=0)
        partial = CSPM(config=CSPMConfig(method="partial")).fit(graph).trace
        # Basic's ratio is 1.0 by construction; run it only on the
        # smaller graphs to keep the suite fast (Pokec mirrors the
        # paper's timeout).
        basic = None
        if label != "Pokec":
            basic = CSPM(config=CSPMConfig(method="basic")).fit(graph).trace
        collected[label] = (basic, partial)
    return collected


def test_fig5_update_ratio(traces, report_writer, benchmark):
    benchmark.pedantic(
        lambda: {k: v[1].update_ratios() for k, v in traces.items()},
        rounds=1,
        iterations=1,
    )
    lines = ["Fig. 5 analogue: gain update ratio per iteration"]
    for label, (basic, partial) in traces.items():
        ratios = partial.update_ratios()
        mean_ratio = sum(ratios) / len(ratios) if ratios else 0.0
        lines.append(f"\n{label} ({partial.num_iterations} iterations)")
        lines.append(f"  CSPM-Partial mean ratio: {mean_ratio:.4f}")
        lines.append(f"  CSPM-Partial sampled   : {_series_text(ratios)}")
        if basic is not None:
            basic_ratios = basic.update_ratios()
            basic_mean = sum(basic_ratios) / len(basic_ratios)
            lines.append(f"  CSPM-Basic   mean ratio: {basic_mean:.4f}")
            # The paper's observation: Partial's curve sits below
            # Basic's, which re-scores every pair on every iteration.
            assert all(ratio == 1.0 for ratio in basic_ratios)
            assert mean_ratio < basic_mean
        assert all(0.0 <= r <= 1.0 for r in ratios)
    report_writer("fig5_update_ratio", "\n".join(lines))


def test_fig5_total_gain_computations(traces, report_writer, benchmark):
    benchmark.pedantic(
        lambda: [v[1].total_gain_computations for v in traces.values()],
        rounds=1,
        iterations=1,
    )
    lines = ["Fig. 5 companion: total gain computations"]
    for label, (basic, partial) in traces.items():
        line = f"{label:<12} partial={partial.total_gain_computations:>12,}"
        if basic is not None:
            line += f"  basic={basic.total_gain_computations:>12,}"
            assert (
                partial.total_gain_computations < basic.total_gain_computations
            )
        lines.append(line)
    report_writer("fig5_gain_computations", "\n".join(lines))
