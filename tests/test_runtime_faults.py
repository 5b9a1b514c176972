"""The supervised runtime's resilience guarantee, exercised end to end.

Every multiprocess path in this repo is pinned bit-exact to its serial
twin, so the strongest possible claim is testable and tested here:
whatever a worker does — crash (``os._exit``), hang past the deadline,
fail the result pickle, or return a corrupt payload — the supervised
run still produces the serial-identical result, because the supervisor
re-runs each failed task in-process.  Faults come from deterministic
:class:`~repro.runtime.faults.FaultPlan` schedules set through
``REPRO_FAULT_PLAN``, so every chaos scenario here reproduces exactly.

Covered per site (search components, batch runs): each fault kind,
re-run in-process and ``==`` the serial run; the search site also on
the chunked mask backend, and with one crash counted once however many
unfinished tasks it fails; both sites with ``fork`` hidden from the
supervisor (spawned workers, shared state through the pool
initializer).  Hangs run under a patched ``DEFAULT_WORKER_TIMEOUT``.
"""

import io
import json
import multiprocessing
import os
import tempfile
import threading
import time

import pytest

from repro.config import CSPMConfig
from repro.core.code_table import CoreCodeTable, StandardCodeTable
from repro.core.cspm_partial import run_partial
from repro.core.inverted_db import InvertedDatabase
from repro.core.masks import get_backend
from repro.core.search_shard import run_sharded
from repro.errors import ConfigError
from repro.graphs.attributed_graph import AttributedGraph
from repro.graphs.builders import paper_running_example
from repro.graphs.generators import PlantedAStar, planted_astar_graph
from repro.obs import Observation, activate, current
from repro.runtime import (
    ENV_VAR,
    FaultEvent,
    FaultPlan,
    SiteReport,
    environment_plan,
    run_supervised,
    shared_state,
    supervisor,
)

#: A hang long enough to trip the short test deadline below, short
#: enough that a worker the supervisor somehow failed to terminate
#: exits the test run on its own.
HANG = 15.0

#: The deadline patched in for hang tests: generous against slow CI
#: workers, small against HANG.
SHORT_TIMEOUT = 2.0

KINDS = ["crash", "hang", "pickle", "corrupt"]

#: Bytes that are not UTF-8 (an executable's header).
NOT_UTF8 = b"\x7fELF\x02\x01\x01\x00\xff\xfe{}"


def _double(job):
    """Module-level worker for the supervisor unit tests (each task
    pickles it by qualified name)."""
    return job * 2


def _scaled(job):
    """``job`` times the shared state, and the shared state itself
    after a nested in-process call with another shared value."""
    factor = shared_state()
    inner, _ = run_supervised(
        "search", [job], _double, workers=1, expect_type=int, shared="inner"
    )
    return job * factor, inner[0], shared_state()


def _shared_after_a_pause(job):
    """The shared state, read after giving other threads a turn."""
    time.sleep(job)
    return shared_state()


def _session_flags(job):
    """Which recorders the task's session has live; one span."""
    obs = current()
    with obs.span("task", job=job):
        return obs.tracer.enabled, obs.metrics.enabled, obs.progress.enabled


def workers_left_running(before, grace=5.0):
    """Child processes started since ``before`` that are still running
    after ``grace`` seconds (a broken pool's manager thread reaps its
    workers concurrently, so a dead worker may take a moment to go)."""
    deadline = time.monotonic() + grace
    while True:
        extra = set(multiprocessing.active_children()) - before
        if not extra or time.monotonic() > deadline:
            return extra
        time.sleep(0.01)


def plan_json(site, kind="crash", index=0):
    return json.dumps(
        {
            "events": [
                {"site": site, "index": index, "kind": kind, "hang_seconds": HANG}
            ]
        }
    )


@pytest.fixture()
def inject(monkeypatch):
    """``inject(site, kind)`` sets a one-event plan in the environment;
    a hang also shortens the supervisor's deadline."""

    def set_plan(site, kind="crash", index=0):
        monkeypatch.setenv(ENV_VAR, plan_json(site, kind, index))
        if kind == "hang":
            monkeypatch.setattr(supervisor, "DEFAULT_WORKER_TIMEOUT", SHORT_TIMEOUT)

    return set_plan


def multi_component_graph(seed, parts=3):
    """Disjoint planted graphs -> a multi-component overlap graph."""
    graph = AttributedGraph()
    for part in range(parts):
        sub, _ = planted_astar_graph(
            40,
            90,
            [PlantedAStar(f"p{part}", (f"q{part}", f"r{part}"), strength=0.9)],
            noise_values=(f"n{part}a", f"n{part}b"),
            noise_rate=0.25,
            seed=seed * 7 + part,
        )
        offset = part * 10_000
        for vertex in sub.vertices():
            graph.add_vertex(vertex + offset)
            graph.set_attributes(vertex + offset, sub.attributes_of(vertex))
        for left, right in sub.edges():
            graph.add_edge(left + offset, right + offset)
    return graph


def search_setup(graph, mask_backend=None):
    backend = get_backend(mask_backend) if mask_backend else None
    return (
        InvertedDatabase.from_graph(graph, mask_backend=backend),
        StandardCodeTable.from_graph(graph),
        CoreCodeTable.singletons_from_graph(graph),
    )


# ----------------------------------------------------------------------
# FaultPlan / FaultEvent semantics
# ----------------------------------------------------------------------


def hang_plan(seconds: str) -> str:
    """The JSON text of a one-hang plan whose ``hang_seconds`` is the
    JSON literal ``seconds``."""
    return (
        '{"events": [{"site": "search", "index": 0, "kind": "hang", '
        f'"hang_seconds": {seconds}}}]}}'
    )


def load_from_file(text):
    """The plan of ``REPRO_FAULT_PLAN`` naming a file holding ``text``."""
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "plan.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        return environment_plan({ENV_VAR: path})


#: The ways a plan's JSON text reaches a run.
PLAN_LOADERS = [
    FaultPlan.from_json,
    lambda text: environment_plan({ENV_VAR: text}),
    load_from_file,
]
PLAN_LOADER_IDS = ["from-json", "environment", "environment-file"]


class TestFaultPlan:
    def test_event_validation(self):
        with pytest.raises(ConfigError, match="site"):
            FaultEvent(site="disk", index=0, kind="crash")
        with pytest.raises(ConfigError, match="site"):
            FaultEvent(site="construction", index=0, kind="crash")
        with pytest.raises(ConfigError, match="kind"):
            FaultEvent(site="search", index=0, kind="gamma-ray")
        with pytest.raises(ConfigError, match="index"):
            FaultEvent(site="search", index=-1, kind="crash")
        with pytest.raises(ConfigError, match="hang_seconds"):
            FaultEvent(site="search", index=0, kind="hang", hang_seconds=0)

    @pytest.mark.parametrize("load", PLAN_LOADERS, ids=PLAN_LOADER_IDS)
    def test_retired_construction_site_rejected(self, load):
        # A chaos recipe naming the deleted partitioned-build site must
        # fail loudly, not inject nothing.
        text = json.dumps(
            {"events": [{"site": "construction", "index": 0, "kind": "crash"}]}
        )
        with pytest.raises(ConfigError, match="site"):
            load(text)

    @pytest.mark.parametrize(
        "document, field",
        [
            ({"events": True}, "events"),
            ({"events": 3}, "events"),
            ({"events": None}, "events"),
            ({"events": "bogus"}, "events"),
            ({"events": {"site": "search"}}, "events"),
            ({"events": [], "seed": "x"}, "seed"),
            ({"events": [], "seed": [1]}, "seed"),
            ({"events": [], "seed": 1.5}, "seed"),
            ({"events": [], "seed": True}, "seed"),
            # Retired fields: a plan's seed, an event's retry budget.
            ({"events": [], "seed": 7}, "seed"),
            (
                {"events": [{"site": "batch", "index": 0, "kind": "crash", "times": 3}]},
                "times",
            ),
            # Python's json parses NaN, Infinity, 1e400 (as inf) and true.
            (hang_plan("NaN"), "hang_seconds"),
            (hang_plan("Infinity"), "hang_seconds"),
            (hang_plan("1e400"), "hang_seconds"),
            (hang_plan("true"), "hang_seconds"),
        ],
    )
    @pytest.mark.parametrize("load", PLAN_LOADERS, ids=PLAN_LOADER_IDS)
    def test_malformed_plan_shapes_rejected(self, load, document, field):
        # Every loader goes through FaultPlan.from_dict, so a bad shape
        # surfaces as a ConfigError naming the field, never a TypeError.
        # A string row is the plan's JSON text itself.
        text = document if isinstance(document, str) else json.dumps(document)
        with pytest.raises(ConfigError, match=field):
            load(text)

    def test_fault_for_matches_site_and_index(self):
        plan = FaultPlan.from_json(plan_json("search", index=2))
        assert plan.fault_for("search", 2) == FaultEvent(
            site="search", index=2, kind="crash", hang_seconds=HANG
        )
        assert plan.fault_for("search", 1) is None  # other index
        assert plan.fault_for("batch", 2) is None  # other site

    def test_first_matching_event_wins(self):
        plan = FaultPlan(
            events=(
                FaultEvent(site="batch", index=0, kind="crash"),
                FaultEvent(site="batch", index=0, kind="hang"),
            )
        )
        assert plan.fault_for("batch", 0).kind == "crash"

    def test_environment_activation(self, tmp_path):
        expected = FaultPlan.from_json(plan_json("batch"))
        assert environment_plan({}) is None
        assert environment_plan({ENV_VAR: "  "}) is None
        assert environment_plan({ENV_VAR: plan_json("batch")}) == expected
        assert load_from_file(plan_json("batch")) == expected
        with pytest.raises(ConfigError, match="cannot read fault plan file"):
            environment_plan({ENV_VAR: str(tmp_path / "missing.json")})

    def test_non_utf8_plan_file_is_a_config_error(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_bytes(NOT_UTF8)
        with pytest.raises(ConfigError, match="plan.json"):
            environment_plan({ENV_VAR: str(path)})


# ----------------------------------------------------------------------
# Supervisor unit behaviour (tiny jobs, real pools)
# ----------------------------------------------------------------------


class TestSupervisor:
    def test_no_faults_preserves_order(self):
        results, report = run_supervised(
            "batch", [1, 2, 3], _double, workers=2, expect_type=int
        )
        assert results == [2, 4, 6]
        assert isinstance(report, SiteReport)
        assert report.tasks == 3
        assert report.degraded_tasks == [] and report.failures == []

    @pytest.mark.parametrize("workers, jobs", [(1, [1, 2]), (2, [1]), (4, [])])
    def test_one_worker_or_one_job_runs_in_process(self, inject, workers, jobs):
        # No pool opens, so a planned crash never fires.
        inject("batch", "crash")
        results, report = run_supervised(
            "batch", jobs, _double, workers=workers, expect_type=int
        )
        assert results == [job * 2 for job in jobs]
        assert report is None

    @pytest.mark.parametrize("workers", [1, 2])
    def test_shared_state_reaches_every_task_and_nests(self, workers):
        results, _ = run_supervised(
            "batch", [1, 2, 3], _scaled, workers=workers, expect_type=tuple, shared=10
        )
        # Each task sees the batch's value again after its nested call.
        assert results == [(10, 2, 10), (20, 4, 10), (30, 6, 10)]
        assert shared_state() is None

    def test_shared_state_is_per_thread(self):
        # Concurrent in-process calls from several threads each read
        # their own state, however their tasks interleave.
        seen = {}

        def call(value):
            seen[value], _ = run_supervised(
                "batch", [0.001] * 20, _shared_after_a_pause,
                workers=1, expect_type=object, shared=value,
            )

        threads = [threading.Thread(target=call, args=(value,)) for value in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert seen == {value: [value] * 20 for value in range(6)}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_task_session_is_a_span_buffer_only(self, workers):
        # Whatever the caller records, a task records spans only, into
        # its own buffer, adopted as lane site[index].
        obs = Observation.create(
            trace=True, metrics=True, progress=True, stream=io.StringIO()
        )
        with activate(obs):
            results, _ = run_supervised(
                "batch", [0, 1], _session_flags, workers=workers, expect_type=tuple
            )
        assert results == [(True, False, False)] * 2
        lanes = {lane: spans for _pid, lane, spans in obs.tracer.adopted}
        assert sorted(lanes) == ["batch[0]", "batch[1]"]
        for index in (0, 1):
            (span,) = lanes[f"batch[{index}]"]
            assert span[0] == "task" and json.loads(span[4]) == {"job": index}
        pool_spans = ["supervisor.pool"] if workers > 1 else []
        assert [record[0] for record in obs.tracer.spans] == pool_spans
        results, _ = run_supervised(
            "batch", [0, 1], _session_flags, workers=workers, expect_type=tuple
        )
        assert results == [(False, False, False)] * 2

    @pytest.mark.parametrize("kind", KINDS)
    def test_failed_task_reruns_in_process(self, inject, kind):
        inject("batch", kind)
        before = set(multiprocessing.active_children())
        results, report = run_supervised(
            "batch", [7, 8], _double, workers=2, expect_type=int
        )
        # No worker outlives the call, a hung one included.
        assert not workers_left_running(before)
        assert results == [14, 16]
        assert report.degraded_tasks[0] == 0
        assert report.failures[0] == f"batch[0]: injected {kind}"
        if kind == "hang":
            assert "timed out after 2s" in report.failures[1]
        if kind in ("pickle", "corrupt"):
            assert report.degraded_tasks == [0]

    def test_crash_charges_every_unfinished_task(self, inject):
        # The worker running task 0 dies.  The pool cannot say which
        # task killed it, so every task that had not finished by then
        # is charged with the crash, and each one charged is re-run
        # in-process, in order.
        inject("batch", "crash")
        results, report = run_supervised(
            "batch", [1, 2, 3, 4], _double, workers=2, expect_type=int
        )
        assert results == [2, 4, 6, 8]
        charged = [
            int(line[len("batch["):line.index("]")])
            for line in report.failures
            if line.endswith(("worker process died", "pool broken by worker crash"))
        ]
        assert charged[0] == 0
        assert report.failures[1] == "batch[0]: worker process died"
        assert report.degraded_tasks == charged


# ----------------------------------------------------------------------
# Search site: components killed, stitched trace identical
# ----------------------------------------------------------------------


def assert_search_bit_exact(mask_backend=None, seed=6, parts=3):
    graph = multi_component_graph(seed, parts)
    db_serial, standard, core = search_setup(graph, mask_backend)
    trace_serial = run_partial(db_serial, standard, core, update_scope="lazy")
    db_sharded, _, _ = search_setup(graph, mask_backend)
    sharded = run_sharded(db_sharded, standard, core, update_scope="lazy", workers=2)
    assert sharded.trace.to_dict() == trace_serial.to_dict()
    assert db_sharded.snapshot() == db_serial.snapshot()
    return sharded.report


class TestSearchSite:
    @pytest.mark.parametrize("kind", KINDS)
    def test_failed_component_reruns_bit_exact(self, inject, kind):
        inject("search", kind)
        report = assert_search_bit_exact()
        assert 0 in report.degraded_tasks
        assert f"search[0]: injected {kind}" in report.failures

    def test_crashed_component_reruns_bit_exact_on_chunked_masks(self, inject):
        inject("search", "crash")
        report = assert_search_bit_exact(mask_backend="chunked")
        assert 0 in report.degraded_tasks

    def test_one_crash_is_counted_once(self, inject):
        # Every unfinished future of the broken pool re-raises the one
        # crash: it is counted and named once, the rest are charged to
        # the broken pool, and the re-run is still == the serial run.
        inject("search", "crash")
        obs = Observation.create(metrics=True)
        with activate(obs):
            report = assert_search_bit_exact(parts=4)
        counters = obs.metrics.snapshot()["counters"]
        assert counters["runtime.worker_crashes{site=search}"] == 1
        died = [line for line in report.failures if "worker process died" in line]
        assert died == ["search[0]: worker process died"]
        assert 0 in report.degraded_tasks
        assert all(
            line.endswith(("pool broken by worker crash", "injected crash"))
            for line in report.failures
            if line not in died
        )


# ----------------------------------------------------------------------
# Batch site: runs killed, per-run results identical
# ----------------------------------------------------------------------


def batch_graphs():
    graphs = [paper_running_example()]
    for seed in (1, 2):
        graph, _ = planted_astar_graph(
            40,
            90,
            [PlantedAStar("core", ("l1", "l2"), strength=0.9)],
            noise_values=("n1", "n2"),
            noise_rate=0.2,
            seed=seed,
        )
        graphs.append(graph)
    return graphs


def assert_batch_bit_exact():
    """``fit_many`` over a process pool == the serial batch; returns
    the pool's report."""
    from repro import fit_many

    graphs = batch_graphs()
    serial = fit_many(graphs, CSPMConfig(top_k=15))
    supervised = fit_many(graphs, CSPMConfig(top_k=15), n_jobs=2, executor="process")
    for left, right in zip(serial, supervised):
        assert left.result.astars == right.result.astars
        assert left.result.trace.to_dict() == right.result.trace.to_dict()
        assert left.result.final_dl.total_bits == right.result.final_dl.total_bits
    return supervised.report


class TestBatchSite:
    @pytest.mark.parametrize("kind", KINDS)
    def test_failed_run_reruns_bit_exact(self, inject, kind):
        inject("batch", kind)
        assert 0 in assert_batch_bit_exact().degraded_tasks

    def test_mining_exception_is_isolated_not_rerun(self):
        """A deterministic per-run exception becomes an error record in
        place — it must not be re-run in-process or kill the batch."""
        from repro import fit_many

        graphs = batch_graphs()
        graphs[1] = AttributedGraph()  # empty graph: the pipeline raises
        batch = fit_many(graphs, CSPMConfig(), n_jobs=2, executor="process")
        assert len(batch) == len(graphs)
        assert batch[0].ok and batch[2].ok
        failed = batch[1]
        assert not failed.ok and failed.result is None
        assert failed.error and failed.traceback
        assert batch.errors == [failed]
        assert "FAILED" in batch.summary()
        # The supervisor saw clean pool executions: nothing re-run.
        assert batch.report is not None
        assert batch.report.degraded_tasks == [] and batch.report.failures == []
        document = failed.to_dict()
        assert document["error"] == failed.error


# ----------------------------------------------------------------------
# Both sites on a platform without fork
# ----------------------------------------------------------------------


@pytest.fixture()
def spawn_only(monkeypatch):
    """Hide ``fork`` from the supervisor: workers are spawned, and the
    pool initializer installs the shared state in each of them."""
    monkeypatch.setattr(
        multiprocessing, "get_all_start_methods", lambda: ["spawn", "forkserver"]
    )


class TestSpawnedWorkers:
    def test_batch_matches_serial(self, spawn_only):
        assert assert_batch_bit_exact().degraded_tasks == []

    @pytest.mark.parametrize("site", ["search", "batch"])
    def test_crash_reruns_in_process(self, spawn_only, inject, site):
        inject(site, "crash")
        report = assert_search_bit_exact() if site == "search" else assert_batch_bit_exact()
        assert report.degraded_tasks[0] == 0
        assert f"{site}[0]: worker process died" in report.failures


# ----------------------------------------------------------------------
# End-to-end: pipeline + CLI telemetry under injected faults
# ----------------------------------------------------------------------


class TestEndToEnd:
    def test_fit_with_faults_matches_serial_and_reports(self, inject):
        from repro import CSPM

        graph = multi_component_graph(5)
        serial = CSPM(partial_update_scope="lazy").fit(graph)
        inject("search", "crash")
        supervised = CSPM(
            partial_update_scope="lazy", search="sharded", search_workers=2
        ).fit(graph)
        assert supervised.astars == serial.astars
        assert supervised.trace.to_dict() == serial.trace.to_dict()
        assert supervised.final_dl == serial.final_dl
        assert serial.runtime is None
        assert set(supervised.runtime) == {"search"}
        report = supervised.runtime["search"]
        assert 0 in report["degraded_tasks"]
        assert "search[0]: injected crash" in report["failures"]

    def test_mine_json_is_unchanged_by_a_rerun(self, tmp_path, capsys, inject):
        # The re-run shows in the metrics, never in the document.
        from repro.cli import main
        from repro.graphs.io import save_json

        path = tmp_path / "graph.json"
        save_json(multi_component_graph(4), path)

        def mine(metrics):
            argv = ["mine", str(path), "--json", "--search", "sharded",
                    "--search-workers", "2", "--metrics", str(metrics)]
            assert main(argv) == 0
            return capsys.readouterr().out, json.loads(metrics.read_text())["counters"]

        clean, clean_counters = mine(tmp_path / "clean.json")
        inject("search", "crash")
        faulted, counters = mine(tmp_path / "faulted.json")
        assert faulted == clean
        assert "runtime.degraded_tasks{site=search}" not in clean_counters
        assert counters["runtime.degraded_tasks{site=search}"] >= 1
        # The config echo carries no plan: a plan is not a run setting.
        expected = CSPMConfig(search="sharded", search_workers=2, metrics=True)
        assert json.loads(faulted)["config"] == expected.to_dict()

    @pytest.mark.parametrize(
        "plan, named",
        [
            ('{"events": "bogus"}', "events"),
            ('{"events": true}', "events"),
            (NOT_UTF8, "plan.json"),
        ],
        ids=["bogus-events", "true-events", "non-utf8-file"],
    )
    def test_cli_exits_2_on_a_bad_plan(self, tmp_path, capsys, monkeypatch, plan, named):
        # The plan is read when a pool opens, so the run must shard a
        # multi-component graph over two workers.
        from repro.cli import main
        from repro.graphs.io import save_json

        if isinstance(plan, bytes):
            plan_file = tmp_path / "plan.json"
            plan_file.write_bytes(plan)
            plan = str(plan_file)
        monkeypatch.setenv(ENV_VAR, plan)
        path = tmp_path / "graph.json"
        save_json(multi_component_graph(4, parts=4), path)
        argv = ["mine", str(path), "--search", "sharded", "--search-workers", "2"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert named in err
