"""The supervised runtime's resilience guarantee, exercised end to end.

Every multiprocess path in this repo is pinned bit-exact to its serial
twin, so the strongest possible claim is testable and tested here:
whatever a worker does — crash (``os._exit``), hang past the timeout,
fail the result pickle, or return a corrupt payload — the supervised
run still produces the serial-identical result, via retry on a fresh
pool or in-process degradation.  Faults come from deterministic
:class:`~repro.runtime.faults.FaultPlan` schedules, so every chaos
scenario here reproduces exactly.

Covered per site (search components, batch runs): retry-then-succeed,
degrade-to-serial past the retry budget, and
``on_worker_failure="raise"``; the search site additionally runs across
mask backends.
"""

import json

import pytest

from repro.config import CSPMConfig
from repro.core.code_table import CoreCodeTable, StandardCodeTable
from repro.core.cspm_partial import run_partial
from repro.core.inverted_db import InvertedDatabase
from repro.core.masks import get_backend
from repro.core.search_shard import run_sharded
from repro.errors import ConfigError, WorkerFailure
from repro.graphs.attributed_graph import AttributedGraph
from repro.graphs.builders import paper_running_example
from repro.graphs.generators import PlantedAStar, planted_astar_graph
from repro.runtime import (
    ENV_VAR,
    CorruptResult,
    FaultEvent,
    FaultPlan,
    RuntimePolicy,
    SiteReport,
    backoff_seconds,
    environment_plan,
    resolve_plan,
    run_supervised,
)

#: A hang long enough to trip the short test timeouts below, short
#: enough that a worker the supervisor somehow failed to terminate
#: exits the test run on its own.
HANG = 15.0

#: Timeout used by the hang tests: generous against slow CI workers,
#: small against HANG.
SHORT_TIMEOUT = 2.0


def _no_sleep(_seconds: float) -> None:
    """Injected clock for tests: skip real backoff delays."""


def quiet_policy(**kwargs) -> RuntimePolicy:
    kwargs.setdefault("sleep", _no_sleep)
    return RuntimePolicy(**kwargs)


def _double(job):
    """Module-level worker for the supervisor unit tests (FRK001)."""
    return job * 2


def crash_plan(site, index=0, times=1, kind="crash"):
    return FaultPlan(
        events=(
            FaultEvent(
                site=site, index=index, kind=kind, times=times,
                hang_seconds=HANG,
            ),
        )
    )


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

#: The three ways a plan's JSON text reaches a run.
def hang_plan(seconds: str) -> str:
    """The JSON text of a one-hang plan whose ``hang_seconds`` is the
    JSON literal ``seconds``."""
    return (
        '{"events": [{"site": "search", "index": 0, "kind": "hang", '
        f'"hang_seconds": {seconds}}}]}}'
    )


PLAN_LOADERS = [
    FaultPlan.from_json,
    lambda text: CSPMConfig(fault_plan=text),
    lambda text: environment_plan({ENV_VAR: text}),
]
PLAN_LOADER_IDS = ["from-json", "config-field", "environment"]


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
        with pytest.raises(ConfigError, match="times"):
            FaultEvent(site="search", index=0, kind="crash", times=0)
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

    def test_seed_accepts_none_and_ints(self):
        assert FaultPlan.from_dict({"events": [], "seed": None}).seed is None
        plan = FaultPlan.from_dict({"events": [], "seed": 7})
        assert plan.seed == 7
        hash(CSPMConfig(fault_plan=plan))

    def test_times_budget_gates_attempts(self):
        plan = crash_plan("search", index=2, times=2)
        assert plan.fault_for("search", 2, 0) is not None
        assert plan.fault_for("search", 2, 1) is not None
        assert plan.fault_for("search", 2, 2) is None  # budget spent
        assert plan.fault_for("search", 1, 0) is None  # other index
        assert plan.fault_for("batch", 2, 0) is None  # other site

    def test_first_matching_event_wins(self):
        plan = FaultPlan(
            events=(
                FaultEvent(site="batch", index=0, kind="crash"),
                FaultEvent(site="batch", index=0, kind="hang"),
            )
        )
        assert plan.fault_for("batch", 0, 0).kind == "crash"

    def test_seeded_is_deterministic(self):
        assert FaultPlan.seeded(3) == FaultPlan.seeded(3)
        assert FaultPlan.seeded(3) != FaultPlan.seeded(4)
        assert not FaultPlan.seeded(3, rate=0.0)
        full = FaultPlan.seeded(3, rate=1.0, max_index=4)
        assert len(full.events) == 4 * 2  # every (site, index) pair

    def test_round_trip_and_unknown_fields(self):
        plan = crash_plan("search", times=3)
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan
        with pytest.raises(ConfigError, match="unknown fault plan"):
            FaultPlan.from_dict({"events": [], "surprise": 1})
        with pytest.raises(ConfigError, match="unknown fault event"):
            FaultPlan.from_dict(
                {"events": [{"site": "batch", "index": 0, "kind": "crash",
                             "extra": True}]}
            )

    def test_coerce_spellings(self, tmp_path):
        plan = crash_plan("batch")
        assert FaultPlan.coerce(None) is None
        assert FaultPlan.coerce(plan) is plan
        assert FaultPlan.coerce(plan.to_dict()) == plan
        assert FaultPlan.coerce(plan.to_json()) == plan
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert FaultPlan.coerce(str(path)) == plan
        with pytest.raises(ConfigError, match="cannot read fault plan"):
            FaultPlan.coerce(str(tmp_path / "missing.json"))
        with pytest.raises(ConfigError):
            FaultPlan.coerce(42)

    def test_environment_activation_and_precedence(self):
        plan = crash_plan("search")
        assert environment_plan({}) is None
        assert environment_plan({ENV_VAR: plan.to_json()}) == plan
        config_plan = crash_plan("batch")
        assert resolve_plan(config_plan, {ENV_VAR: plan.to_json()}) == config_plan
        assert resolve_plan(None, {ENV_VAR: plan.to_json()}) == plan

    def test_config_coerces_and_env_reaches_policy(self, monkeypatch):
        plan = crash_plan("search")
        config = CSPMConfig(fault_plan=plan.to_dict())
        assert config.fault_plan == plan
        monkeypatch.setenv(ENV_VAR, crash_plan("batch").to_json())
        assert RuntimePolicy.from_config(CSPMConfig()).fault_plan == crash_plan(
            "batch"
        )
        # The config's plan wins over the environment's.
        assert RuntimePolicy.from_config(config).fault_plan == plan


# ----------------------------------------------------------------------
# Supervisor unit behaviour (tiny jobs, real pools)
# ----------------------------------------------------------------------


class TestSupervisor:
    def test_no_faults_preserves_order(self):
        results, report = run_supervised(
            "batch", [1, 2, 3], _double, quiet_policy(), max_workers=2
        )
        assert results == [2, 4, 6]
        assert isinstance(report, SiteReport)
        assert (report.tasks, report.rounds) == (3, 1)
        assert report.retries == 0 and report.degraded_tasks == []

    @pytest.mark.parametrize("kind", ["crash", "pickle", "corrupt"])
    def test_retry_then_succeed(self, kind):
        policy = quiet_policy(fault_plan=crash_plan("batch", times=1, kind=kind))
        results, report = run_supervised(
            "batch", [7], _double, policy, max_workers=1, expect_type=int
        )
        assert results == [14]
        assert report.retries == 1
        assert report.degraded_tasks == []
        assert any("injected " + kind in line for line in report.failures)

    def test_hang_times_out_then_succeeds(self):
        policy = quiet_policy(
            fault_plan=crash_plan("batch", times=1, kind="hang"),
            worker_timeout=SHORT_TIMEOUT,
        )
        results, report = run_supervised(
            "batch", [7], _double, policy, max_workers=1
        )
        assert results == [14]
        assert report.retries == 1
        assert any("timed out" in line for line in report.failures)

    def test_exhausted_task_degrades_in_process(self):
        policy = quiet_policy(
            fault_plan=crash_plan("batch", times=10), max_task_retries=1
        )
        results, report = run_supervised(
            "batch", [7], _double, policy, max_workers=1
        )
        assert results == [14]
        assert report.degraded_tasks == [0]
        assert report.retries == 1  # one re-submission, then exhausted

    def test_raise_policy_raises_worker_failure(self):
        policy = quiet_policy(
            fault_plan=crash_plan("batch", times=10),
            max_task_retries=0,
            on_worker_failure="raise",
        )
        with pytest.raises(WorkerFailure) as excinfo:
            run_supervised("batch", [7], _double, policy, max_workers=1)
        failure = excinfo.value
        assert failure.site == "batch"
        assert failure.task_index == 0
        assert failure.attempts == 1

    def test_crash_only_disturbs_its_round(self):
        # Index 1 crashes twice then succeeds; every result is exact
        # and in order regardless of which other tasks shared the
        # broken pools.
        policy = quiet_policy(fault_plan=crash_plan("batch", index=1, times=2))
        results, report = run_supervised(
            "batch", [1, 2, 3, 4], _double, policy, max_workers=2
        )
        assert results == [2, 4, 6, 8]
        assert report.retries >= 2
        assert report.rounds >= 3

    def test_backoff_is_deterministic_and_bounded(self):
        values = [
            backoff_seconds("search", index, attempt)
            for index in range(4)
            for attempt in range(6)
        ]
        assert values == [
            backoff_seconds("search", index, attempt)
            for index in range(4)
            for attempt in range(6)
        ]
        assert all(0.0 < value <= 2.0 for value in values)

    def test_sleep_clock_is_injected(self):
        delays = []
        policy = quiet_policy(
            fault_plan=crash_plan("batch", times=1), sleep=delays.append
        )
        run_supervised("batch", [7], _double, policy, max_workers=1)
        assert delays == [backoff_seconds("batch", 0, 1)]


# ----------------------------------------------------------------------
# Search site: components killed, stitched trace identical
# ----------------------------------------------------------------------


def assert_search_bit_exact(policy, mask_backend=None, seed=6):
    graph = multi_component_graph(seed)
    db_serial, standard, core = search_setup(graph, mask_backend)
    trace_serial = run_partial(db_serial, standard, core, update_scope="lazy")
    db_sharded, _, _ = search_setup(graph, mask_backend)
    sharded = run_sharded(
        db_sharded,
        standard,
        core,
        update_scope="lazy",
        workers=2,
        policy=policy,
    )
    assert sharded.trace.to_dict() == trace_serial.to_dict()
    assert db_sharded.snapshot() == db_serial.snapshot()
    return sharded.report


class TestSearchSite:
    @pytest.mark.parametrize("mask_backend", [None, "chunked"])
    def test_killed_component_retries_bit_exact(self, mask_backend):
        report = assert_search_bit_exact(
            quiet_policy(fault_plan=crash_plan("search", times=1)),
            mask_backend=mask_backend,
        )
        assert report is not None and report.retries >= 1

    def test_hung_component_times_out_bit_exact(self):
        report = assert_search_bit_exact(
            quiet_policy(
                fault_plan=crash_plan("search", times=1, kind="hang"),
                worker_timeout=SHORT_TIMEOUT,
            )
        )
        assert any("timed out" in line for line in report.failures)

    @pytest.mark.parametrize("mask_backend", [None, "chunked"])
    def test_exhausted_component_degrades_bit_exact(self, mask_backend):
        report = assert_search_bit_exact(
            quiet_policy(
                fault_plan=crash_plan("search", times=10), max_task_retries=1
            ),
            mask_backend=mask_backend,
        )
        assert 0 in report.degraded_tasks

    def test_raise_policy(self):
        graph = multi_component_graph(6)
        db, standard, core = search_setup(graph)
        with pytest.raises(WorkerFailure) as excinfo:
            run_sharded(
                db,
                standard,
                core,
                workers=2,
                policy=quiet_policy(
                    fault_plan=crash_plan("search", times=10),
                    max_task_retries=0,
                    on_worker_failure="raise",
                ),
            )
        assert excinfo.value.site == "search"


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


def assert_batch_bit_exact(fault_config):
    from repro import fit_many

    graphs = batch_graphs()
    serial = fit_many(graphs, CSPMConfig(top_k=15))
    supervised = fit_many(
        graphs, fault_config, n_jobs=2, executor="process"
    )
    for left, right in zip(serial, supervised):
        assert left.result.astars == right.result.astars
        assert left.result.trace.to_dict() == right.result.trace.to_dict()
        assert (
            left.result.final_dl.total_bits == right.result.final_dl.total_bits
        )
    return supervised.report


class TestBatchSite:
    def test_killed_run_retries_bit_exact(self):
        report = assert_batch_bit_exact(
            CSPMConfig(top_k=15, fault_plan=crash_plan("batch", times=1))
        )
        assert report is not None and report.retries >= 1

    def test_exhausted_run_degrades_bit_exact(self):
        report = assert_batch_bit_exact(
            CSPMConfig(
                top_k=15,
                fault_plan=crash_plan("batch", times=10),
                max_task_retries=1,
            )
        )
        assert 0 in report.degraded_tasks

    def test_raise_policy(self):
        from repro import fit_many

        with pytest.raises(WorkerFailure) as excinfo:
            fit_many(
                batch_graphs(),
                CSPMConfig(
                    fault_plan=crash_plan("batch", times=10),
                    max_task_retries=0,
                    on_worker_failure="raise",
                ),
                n_jobs=2,
                executor="process",
            )
        assert excinfo.value.site == "batch"

    def test_mining_exception_is_isolated_not_retried(self):
        """A deterministic per-run exception becomes an error record in
        place — it must not burn pool retries or kill the batch."""
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
        # The supervisor saw clean pool executions: no retries burned.
        assert batch.report is not None and batch.report.retries == 0
        document = failed.to_dict()
        assert document["error"] == failed.error


# ----------------------------------------------------------------------
# End-to-end: pipeline + CLI telemetry under injected faults
# ----------------------------------------------------------------------


class TestEndToEnd:
    def test_fit_with_faults_matches_serial_and_reports(self):
        from repro import CSPM

        graph = multi_component_graph(5)
        serial = CSPM(partial_update_scope="lazy").fit(graph)
        plan = crash_plan("search", times=1)
        supervised = CSPM(
            partial_update_scope="lazy",
            search="sharded",
            search_workers=2,
            fault_plan=plan,
        ).fit(graph)
        assert supervised.astars == serial.astars
        assert supervised.trace.to_dict() == serial.trace.to_dict()
        assert supervised.final_dl == serial.final_dl
        assert serial.runtime is None
        runtime = supervised.runtime
        assert runtime["search"]["retries"] >= 1
        assert runtime["fault_plan"] == plan.to_dict()

    def test_mine_json_surfaces_runtime_telemetry(self, tmp_path, capsys):
        from repro.cli import main
        from repro.graphs.io import save_json

        path = tmp_path / "graph.json"
        save_json(multi_component_graph(4), path)
        plan = crash_plan("search", times=1)
        assert (
            main(
                [
                    "mine",
                    str(path),
                    "--json",
                    "--search",
                    "sharded",
                    "--search-workers",
                    "2",
                    "--fault-plan",
                    plan.to_json(),
                ]
            )
            == 0
        )
        document = json.loads(capsys.readouterr().out)
        assert document["runtime"]["search"]["retries"] >= 1
        assert document["runtime"]["fault_plan"] == plan.to_dict()
        assert document["config"]["fault_plan"] == plan.to_dict()

    @pytest.mark.parametrize("plan", ['{"events": "bogus"}', '{"events": true}'])
    def test_cli_exits_nonzero_on_repro_error(self, tmp_path, capsys, plan):
        from repro.cli import main
        from repro.graphs.io import save_json

        path = tmp_path / "graph.json"
        save_json(paper_running_example(), path)
        code = main(["mine", str(path), "--fault-plan", plan])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "events" in err
