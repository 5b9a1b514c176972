"""Ablations of the design choices DESIGN.md calls out.

1. Model-cost term in the gain (Section IV-E): with the term the model
   keeps fewer/cheaper patterns; without it data cost compresses at
   least as far but the code tables grow.
2. Partial update scope: ``lazy`` matches Basic's model exactly;
   the paper's ``related`` heuristic computes fewer gains but may stop
   earlier (higher final DL).
3. Coreset encoder: multi-value coresets (SLIM, Section IV-F) versus
   singletons.
"""

from __future__ import annotations

import time

import pytest

from benchmarks.conftest import bench_scale
from repro.config import CSPMConfig
from repro.core.miner import CSPM
from repro.datasets import load_dataset


@pytest.fixture(scope="module")
def dblp_graph():
    return load_dataset("dblp", scale=1.0 * bench_scale(), seed=0)


def test_ablation_model_cost(dblp_graph, report_writer, benchmark):
    with_cost = benchmark.pedantic(
        lambda: CSPM(config=CSPMConfig(include_model_cost=True)).fit(dblp_graph),
        rounds=1,
        iterations=1,
    )
    without_cost = CSPM(config=CSPMConfig(include_model_cost=False)).fit(dblp_graph)
    lines = [
        "Ablation: Section IV-E model-cost term in the candidate gain",
        f"{'variant':<16}{'total DL':>12}{'data DL':>12}{'model DL':>12}"
        f"{'merges':>9}",
    ]
    for label, result in (("with", with_cost), ("without", without_cost)):
        lines.append(
            f"{label:<16}{result.final_dl.total_bits:>12.1f}"
            f"{result.final_dl.data_bits:>12.1f}"
            f"{result.final_dl.model_bits:>12.1f}"
            f"{result.trace.num_iterations:>9}"
        )
    report_writer("ablation_model_cost", "\n".join(lines))
    # Ignoring the model cost merges at least as aggressively and
    # pushes the data cost at least as low...
    assert (
        without_cost.trace.num_iterations >= with_cost.trace.num_iterations
    )
    assert (
        without_cost.final_dl.data_leaf_bits
        <= with_cost.final_dl.data_leaf_bits + 1e-6
    )
    # ...but pays for it in code-table (model) bits.
    assert without_cost.final_dl.model_bits >= with_cost.final_dl.model_bits


def test_ablation_update_scope(dblp_graph, report_writer, benchmark):
    basic = benchmark.pedantic(
        lambda: CSPM(config=CSPMConfig(method="basic")).fit(dblp_graph), rounds=1, iterations=1
    )
    lazy = CSPM(config=CSPMConfig(method="partial", partial_update_scope="lazy")).fit(
        dblp_graph
    )
    related = CSPM(config=CSPMConfig(method="partial", partial_update_scope="related")).fit(
        dblp_graph
    )
    lines = [
        "Ablation: CSPM-Partial update scope (vs CSPM-Basic reference)",
        f"{'variant':<14}{'final DL':>12}{'merges':>9}{'gain evals':>12}",
    ]
    for label, result in (
        ("basic", basic),
        ("lazy", lazy),
        ("related", related),
    ):
        lines.append(
            f"{label:<14}{result.final_dl.total_bits:>12.1f}"
            f"{result.trace.num_iterations:>9}"
            f"{result.trace.total_gain_computations:>12,}"
        )
    report_writer("ablation_update_scope", "\n".join(lines))
    # Lazy partial == basic, with fewer gain computations.
    assert lazy.final_dl.total_bits == basic.final_dl.total_bits
    assert (
        lazy.trace.total_gain_computations
        < basic.trace.total_gain_computations
    )
    # The rdict heuristic computes fewer gains still, at some DL cost.
    assert (
        related.trace.total_gain_computations
        <= lazy.trace.total_gain_computations
    )
    assert related.final_dl.total_bits >= basic.final_dl.total_bits - 1e-6


def test_ablation_coreset_encoder(report_writer, benchmark):
    graph = load_dataset("usflight", scale=1.0, seed=0)
    benchmark.pedantic(
        lambda: CSPM(config=CSPMConfig(coreset_encoder="slim")).fit(graph), rounds=1, iterations=1
    )
    lines = [
        "Ablation: coreset encoder (Section IV-F step 1)",
        f"{'encoder':<12}{'coresets':>10}{'multi-value':>12}{'DL ratio':>10}"
        f"{'seconds':>9}",
    ]
    for encoder in ("singleton", "slim"):
        start = time.perf_counter()
        result = CSPM(config=CSPMConfig(coreset_encoder=encoder)).fit(graph)
        seconds = time.perf_counter() - start
        coresets = {star.coreset for star in result.astars}
        multi = sum(1 for c in coresets if len(c) > 1)
        lines.append(
            f"{encoder:<12}{len(coresets):>10}{multi:>12}"
            f"{result.compression_ratio:>10.3f}{seconds:>9.2f}"
        )
        if encoder == "singleton":
            assert multi == 0
    report_writer("ablation_coreset_encoder", "\n".join(lines))
