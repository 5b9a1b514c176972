"""Self-tests of the benchmark.  Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
import run
import workloads
from repro.graphs.io import to_json_dict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _result(name: str, trace: int) -> dict:
    done = _bench("--workload", name, "--seed", "3", "--seconds", "0.5",
                  "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    make = workloads.WORKLOADS[name].make_graphs
    first = [to_json_dict(graph) for graph in make(5, True)]
    again = [to_json_dict(graph) for graph in make(5, True)]
    other = [to_json_dict(graph) for graph in make(6, True)]
    assert first == again
    assert first != other


def test_tenant_union_keeps_tenants_disjoint():
    graph = workloads.tenant_union_graph(1, tenants=3, communities=2)
    tenant_of = {
        vertex: {value.split("c")[0] for value in graph.attributes_of(vertex)}
        for vertex in graph.vertices()
    }
    assert sorted(graph.vertices()) == list(range(graph.num_vertices))
    assert all(len(tenants) == 1 for tenants in tenant_of.values())
    assert all(tenant_of[u] == tenant_of[v] for u, v in graph.edges())


def test_metric_names_are_well_formed_and_workloads_declared():
    for name in [*run.END_TO_END, *run.PER_LAYER]:
        assert NAME.fullmatch(name), name
    assert {entry["name"] for entry in run.SPEC["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_emits_every_end_to_end_metric(name):
    result = _result(name, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == set(run.END_TO_END)
    for entry in result["metrics"].values():
        assert entry["value"] > 0


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_traced_run_emits_every_per_layer_metric(name):
    result = _result(name, trace=1)
    assert result["correct"] and result["failed"] == 0
    metrics = {key: entry["value"] for key, entry in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER)
    assert metrics["search.merges"] > 0
    if not workloads.WORKLOADS[name].batch:
        assert metrics["stages.coverage"] >= 0.95
    if name == "fragmented-sharded":
        assert metrics["shard.components"] == 4
        assert metrics["shard.worker_s"] > 0


def test_host_speed_rescales_by_the_kernel_samples_either_side():
    assert hostspeed.kernel() == hostspeed.kernel()
    host = hostspeed.HostSpeed()
    factor = host.factor()
    assert len(host.samples) == 2
    assert factor == pytest.approx(
        (hostspeed.NOMINAL_KERNEL_S * 2 / sum(host.samples)) ** hostspeed.SENSITIVITY
    )


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "sparse-serial", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
