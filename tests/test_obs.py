"""The observability layer (``repro.obs``) and its zero-cost contract.

Two families of guarantees are pinned here:

* the recorders themselves — span nesting/adoption/alignment on an
  injected clock, the metrics registry's deterministic snapshot, the
  throttled progress emitter, and the activation-stack session — all
  driven by fake clocks so nothing depends on real time;
* the *non-interference* contract: with observability off nothing is
  recorded and ``mine --json`` stays byte-identical to the golden
  file, and with tracing on the merge sequence and every DL float are
  ``==`` to the untraced run — serially and at both supervised pool
  sites under crash fault plans.
"""

import json

import pytest

from repro.batch import fit_many
from repro.cli import main as cli_main
from repro.config import CSPMConfig
from repro.core.instrumentation import RunTrace
from repro.core.miner import CSPM
from repro.graphs.attributed_graph import AttributedGraph
from repro.graphs.builders import paper_running_example
from repro.graphs.generators import PlantedAStar, planted_astar_graph
from repro.graphs.io import save_json
from repro.obs import (
    NULL_METRICS,
    NULL_OBS,
    NULL_PROGRESS,
    NULL_TRACER,
    MetricsRegistry,
    Observation,
    ProgressEmitter,
    SpanTracer,
    activate,
    current,
    emit_run_trace,
)
from repro.pipeline import MiningPipeline
from repro.runtime import ENV_VAR


class FakeClock:
    """A scriptable clock: every call advances by ``step`` seconds."""

    def __init__(self, start=100.0, step=1.0):
        self.now = start
        self.step = step

    def __call__(self):
        stamp = self.now
        self.now += self.step
        return stamp

    def advance(self, seconds):
        self.now += seconds


def crash_plan(site):
    """The JSON text of a plan that crashes task 0 of ``site``."""
    return json.dumps({"events": [{"site": site, "index": 0, "kind": "crash"}]})


def two_component_graph():
    """Two planted graphs with disjoint vocabularies, side by side."""
    edges, attributes = [], {}
    for part in (0, 1):
        sub, _ = planted_astar_graph(
            30,
            70,
            [PlantedAStar(f"p{part}", (f"q{part}", f"r{part}"), strength=0.9)],
            noise_values=(f"n{part}",),
            noise_rate=0.2,
            seed=part,
        )
        offset = part * 1000
        edges += [(u + offset, v + offset) for u, v in sub.edges()]
        attributes.update(
            (vertex + offset, sub.attributes_of(vertex))
            for vertex in sub.vertices()
        )
    return AttributedGraph.from_edges(edges, attributes)


def planted(seed=7):
    graph, _ = planted_astar_graph(
        60,
        140,
        [
            PlantedAStar("core-a", ("l1", "l2"), strength=0.9),
            PlantedAStar("core-b", ("m1", "m2"), strength=0.85),
        ],
        noise_values=("n1", "n2"),
        noise_rate=0.2,
        seed=seed,
    )
    return graph


def run_signature(result):
    """The bit-exactness currency: merge sequence + every DL float."""
    return (
        [trace.merged_pair for trace in result.trace.iterations],
        [trace.total_dl_bits for trace in result.trace.iterations],
        result.trace.final_dl_bits,
        result.final_dl.total_bits,
        result.astars,
    )


# ----------------------------------------------------------------------
# SpanTracer
# ----------------------------------------------------------------------


class TestSpanTracer:
    def test_nesting_depth_and_close_order(self):
        tracer = SpanTracer(clock_fn=FakeClock())
        with tracer.span("outer", stage=1):
            with tracer.span("inner"):
                pass
        # Spans buffer at close time: inner first, depth below outer's.
        assert [record[0] for record in tracer.spans] == ["inner", "outer"]
        inner, outer = tracer.spans
        assert inner[3] == 1 and outer[3] == 0
        assert outer[1] < inner[1] < inner[2] < outer[2]
        assert json.loads(outer[4]) == {"stage": 1}

    def test_span_closes_when_body_raises(self):
        tracer = SpanTracer(clock_fn=FakeClock())
        with pytest.raises(ValueError):
            with tracer.span("doomed"):
                raise ValueError("boom")
        assert [record[0] for record in tracer.spans] == ["doomed"]

    def test_instant_records_at_current_depth(self):
        tracer = SpanTracer(clock_fn=FakeClock())
        with tracer.span("round"):
            tracer.instant("retry", site="search")
        name, _ts, depth, attrs = tracer.events[0]
        assert name == "retry" and depth == 1
        assert json.loads(attrs) == {"site": "search"}

    def test_adopt_aligns_worker_clock_preserving_durations(self):
        parent = SpanTracer(clock_fn=FakeClock(start=1000.0))
        worker = SpanTracer(clock_fn=FakeClock(start=5.0))
        with worker.span("work"):
            pass
        shipped = worker.export_spans()
        parent.adopt(shipped, pid=4242, lane="search[0]", align_end=1010.0)
        (pid, lane, spans) = parent.adopted[0]
        assert (pid, lane) == (4242, "search[0]")
        name, start, end, _depth, _attrs = spans[0]
        assert name == "work"
        # Latest worker end maps onto the harvest stamp; the span's
        # relative duration is untouched.
        assert end == 1010.0
        assert end - start == shipped[0][2] - shipped[0][1]

    def test_adopt_without_alignment_keeps_stamps(self):
        parent = SpanTracer(clock_fn=FakeClock())
        parent.adopt(
            [("work", 3.0, 4.0, 0, "")], pid=parent.pid, lane="inproc",
            align_end=None,
        )
        assert parent.adopted[0][2] == [("work", 3.0, 4.0, 0, "")]

    def test_adopt_empty_buffer_is_a_noop(self):
        parent = SpanTracer(clock_fn=FakeClock())
        parent.adopt(None, pid=1, lane="x")
        parent.adopt([], pid=1, lane="x")
        assert parent.adopted == []

    def test_chrome_trace_lanes_and_events(self):
        tracer = SpanTracer(clock_fn=FakeClock())
        with tracer.span("mine.search"):
            tracer.instant("supervisor.retry")
        tracer.adopt(
            [("search.component", 0.0, 1.0, 0, "")], pid=777, lane="search[0]",
            align_end=tracer.now(),
        )
        document = tracer.chrome_trace()
        events = document["traceEvents"]
        metadata = [event for event in events if event["ph"] == "M"]
        names = [event["args"]["name"] for event in metadata]
        assert names == [f"main (pid {tracer.pid})", "search[0] (pid 777)"]
        complete = {
            event["name"]: event for event in events if event["ph"] == "X"
        }
        assert complete["mine.search"]["tid"] == 0
        assert complete["search.component"]["tid"] == 1
        assert complete["search.component"]["args"]["pid"] == 777
        instants = [event for event in events if event["ph"] == "i"]
        assert [event["name"] for event in instants] == ["supervisor.retry"]
        # Timestamps are micro-seconds relative to the earliest stamp.
        assert all(event["ts"] >= 0 for event in events if "ts" in event)

    def test_ndjson_lines_are_start_ordered_json(self):
        tracer = SpanTracer(clock_fn=FakeClock())
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        rows = [json.loads(line) for line in tracer.ndjson_lines()]
        assert [row["name"] for row in rows] == ["outer", "inner"]
        assert all(row["lane"] == "main" for row in rows)

    def test_write_formats_by_extension(self, tmp_path):
        tracer = SpanTracer(clock_fn=FakeClock())
        with tracer.span("mine.search"):
            pass
        chrome = tmp_path / "trace.json"
        ndjson = tmp_path / "trace.ndjson"
        tracer.write(str(chrome))
        tracer.write(str(ndjson))
        assert "traceEvents" in json.loads(chrome.read_text())
        lines = ndjson.read_text().splitlines()
        assert [json.loads(line)["name"] for line in lines] == ["mine.search"]

    def test_null_tracer_records_nothing(self):
        with NULL_TRACER.span("mine.search", anything=1):
            NULL_TRACER.instant("supervisor.retry")
        NULL_TRACER.adopt([("x", 0.0, 1.0, 0, "")], pid=1, lane="l")
        assert NULL_TRACER.spans == [] and NULL_TRACER.events == []
        assert NULL_TRACER.adopted == [] and NULL_TRACER.export_spans() == []
        assert not NULL_TRACER.enabled


# ----------------------------------------------------------------------
# MetricsRegistry
# ----------------------------------------------------------------------


class TestMetrics:
    def test_counter_gauge_histogram_with_labels(self):
        metrics = MetricsRegistry()
        metrics.counter("runtime.retries").inc(site="search")
        metrics.counter("runtime.retries").inc(2, site="search")
        metrics.counter("runtime.retries").inc(site="batch")
        metrics.gauge("search.peak_queue_size").set_max(10)
        metrics.gauge("search.peak_queue_size").set_max(4)
        metrics.gauge("build.mask_memory_bytes").set(512)
        for value in (1.0, 3.0, 2.0):
            metrics.histogram("batch.run_seconds").observe(value)
        snapshot = metrics.snapshot()
        assert snapshot["counters"] == {
            "runtime.retries{site=batch}": 1,
            "runtime.retries{site=search}": 3,
        }
        assert snapshot["gauges"] == {
            "build.mask_memory_bytes": 512,
            "search.peak_queue_size": 10,
        }
        assert snapshot["histograms"]["batch.run_seconds"] == {
            "count": 3,
            "total": 6.0,
            "min": 1.0,
            "max": 3.0,
            "mean": 2.0,
        }

    def test_snapshot_is_deterministically_ordered(self):
        metrics = MetricsRegistry()
        metrics.counter("zeta").inc()
        metrics.counter("alpha").inc()
        metrics.counter("alpha").inc(b=1)
        metrics.counter("alpha").inc(a=1)
        assert list(metrics.snapshot()["counters"]) == [
            "alpha",
            "alpha{a=1}",
            "alpha{b=1}",
            "zeta",
        ]
        # Label keys inside one series key are sorted too.
        metrics.counter("multi").inc(site="x", phase="y")
        assert "multi{phase=y,site=x}" in metrics.snapshot()["counters"]

    def test_null_metrics_shared_noop_instruments(self):
        instrument = NULL_METRICS.counter("anything")
        assert instrument is NULL_METRICS.gauge("other")
        instrument.inc()
        instrument.set(3)
        instrument.set_max(3)
        instrument.observe(3)
        assert NULL_METRICS.snapshot() == {}
        assert not NULL_METRICS.enabled

    def test_emit_run_trace_re_emits_perf_counters(self):
        trace = RunTrace(algorithm="partial")
        trace.initial_candidate_gains = 5
        trace.refreshes_skipped = 2
        trace.dirty_revalidations = 1
        trace.peak_queue_size = 9
        metrics = MetricsRegistry()
        emit_run_trace(metrics, trace)
        counters = metrics.snapshot()["counters"]
        assert counters["search.gains_computed"] == 5
        assert counters["search.initial_candidate_gains"] == 5
        assert counters["search.refreshes_skipped"] == 2
        assert counters["search.dirty_revalidations"] == 1
        gauges = metrics.snapshot()["gauges"]
        assert gauges["search.peak_queue_size"] == 9
        assert gauges["search.merges"] == 0

    def test_emit_run_trace_skips_disabled_or_missing(self):
        emit_run_trace(NULL_METRICS, RunTrace(algorithm="partial"))
        metrics = MetricsRegistry()
        emit_run_trace(metrics, None)
        assert metrics.snapshot()["counters"] == {}


# ----------------------------------------------------------------------
# ProgressEmitter
# ----------------------------------------------------------------------


class FakeStream:
    def __init__(self):
        self.lines = []

    def write(self, text):
        self.lines.append(text)

    def flush(self):
        pass


class TestProgress:
    def test_heartbeat_throttles_per_phase(self):
        clock = FakeClock(start=0.0, step=0.0)
        stream = FakeStream()
        emitter = ProgressEmitter(
            stream=stream, min_interval=0.5, clock_fn=clock
        )
        emitter.heartbeat("search", merges=1)
        emitter.heartbeat("search", merges=2)  # within the interval
        emitter.heartbeat("build", rows=7)  # other phase: independent
        clock.advance(0.6)
        emitter.heartbeat("search", merges=3)
        assert stream.lines == [
            "[repro] search: merges=1\n",
            "[repro] build: rows=7\n",
            "[repro] search: merges=3\n",
        ]

    def test_note_bypasses_throttle(self):
        stream = FakeStream()
        emitter = ProgressEmitter(
            stream=stream, clock_fn=FakeClock(step=0.0)
        )
        emitter.note("runtime", site="search", degraded=1)
        emitter.note("runtime", site="search", degraded=2)
        assert stream.lines == [
            "[repro] runtime: site=search degraded=1\n",
            "[repro] runtime: site=search degraded=2\n",
        ]

    def test_null_progress_is_silent(self):
        NULL_PROGRESS.heartbeat("search", merges=1)
        NULL_PROGRESS.note("search")
        assert not NULL_PROGRESS.enabled


# ----------------------------------------------------------------------
# Observation session + activation stack
# ----------------------------------------------------------------------


class TestSession:
    def test_default_is_null(self):
        assert current() is NULL_OBS
        assert not NULL_OBS.enabled
        with NULL_OBS.span("mine.search"):
            NULL_OBS.instant("supervisor.retry")

    def test_activation_stack_nests_and_restores(self):
        outer = Observation.create(metrics=True)
        inner = Observation.create(trace=True)
        with activate(outer):
            assert current() is outer
            with activate(inner):
                assert current() is inner
            assert current() is outer
        assert current() is NULL_OBS

    def test_stack_pops_on_exception(self):
        obs = Observation.create(trace=True)
        with pytest.raises(RuntimeError):
            with activate(obs):
                raise RuntimeError("boom")
        assert current() is NULL_OBS

    def test_create_all_off_returns_the_null_singleton(self):
        assert Observation.create() is NULL_OBS

    def test_create_selects_components(self):
        obs = Observation.create(trace=True, metrics=True)
        assert obs.tracer.enabled and obs.metrics.enabled
        assert not obs.progress.enabled
        assert obs.enabled
        assert repr(obs) == "Observation(trace+metrics)"

    def test_from_config_duck_typed(self):
        assert Observation.from_config(object()) is NULL_OBS
        obs = Observation.from_config(CSPMConfig(progress=True))
        assert obs.progress.enabled and not obs.tracer.enabled



# ----------------------------------------------------------------------
# Pipeline spans end to end
# ----------------------------------------------------------------------


STAGE_SPANS = ["mine.encode", "mine.build", "mine.search", "mine.rank"]


class TestPipelineSpans:
    def test_serial_run_records_the_stage_taxonomy(self):
        config = CSPMConfig(trace=True, metrics=True)
        context = MiningPipeline.default(config).run_context(
            paper_running_example()
        )
        tracer = context.obs.tracer
        names = [record[0] for record in tracer.spans]
        for name in STAGE_SPANS + ["build.plan", "build.rows"]:
            assert name in names
        # Construction phases nest inside the build stage span.
        by_name = {record[0]: record for record in tracer.spans}
        assert by_name["build.plan"][3] > by_name["mine.build"][3]
        assert by_name["build.rows"][3] > by_name["mine.build"][3]
        document = tracer.chrome_trace()
        assert {event["ph"] for event in document["traceEvents"]} <= {
            "M",
            "X",
            "i",
        }
        counters = context.obs.metrics.snapshot()["counters"]
        assert "search.gains_computed" in counters
        assert context.obs.metrics.snapshot()["gauges"][
            "encode.num_coresets"
        ] > 0

    def test_build_spans_carry_the_documented_attributes(self):
        # docs/OBSERVABILITY.md: one build path, so no build-path
        # attribute; only build.rows counts its coresets.
        config = CSPMConfig(trace=True)
        context = MiningPipeline.default(config).run_context(
            paper_running_example()
        )
        attrs = {
            record[0]: json.loads(record[4] or "{}")
            for record in context.obs.tracer.spans
        }
        assert attrs["mine.build"] == attrs["build.plan"] == {}
        assert set(attrs["build.rows"]) == {"coresets"}
        assert attrs["build.rows"]["coresets"] > 0

    def test_supervised_run_adopts_worker_lanes_and_degrade_instants(
        self, monkeypatch
    ):
        # Two components, so the sharded search runs a real pool.
        graph = two_component_graph()
        config = CSPMConfig(trace=True, search="sharded", search_workers=2)
        monkeypatch.setenv(ENV_VAR, crash_plan("search"))
        context = MiningPipeline.default(config).run_context(graph)
        tracer = context.obs.tracer
        lanes = [lane for _pid, lane, _spans in tracer.adopted]
        assert any(lane.startswith("search[") for lane in lanes)
        for _pid, _lane, spans in tracer.adopted:
            assert all(
                record[0] == "search.component" for record in spans
            )
        assert "supervisor.degrade" in [
            record[0] for record in tracer.events
        ]
        assert "supervisor.pool" in [
            record[0] for record in tracer.spans
        ]


# ----------------------------------------------------------------------
# Non-interference: traced == untraced, at every pool site
# ----------------------------------------------------------------------


class TestTracedBitExactness:
    def test_serial_traced_run_is_bit_exact(self):
        graph = planted()
        reference = CSPM().fit(graph)
        traced = CSPM(
            config=CSPMConfig(trace=True, metrics=True, progress=True)
        ).fit(graph)
        # progress writes to stderr; the signature must still match.
        assert run_signature(traced) == run_signature(reference)

    def test_sharded_search_traced_under_crash(self, monkeypatch):
        graph = planted(seed=13)
        reference = CSPM().fit(graph)
        monkeypatch.setenv(ENV_VAR, crash_plan("search"))
        traced = CSPM(
            config=CSPMConfig(
                trace=True,
                metrics=True,
                search="sharded",
                search_workers=2,
            )
        ).fit(graph)
        assert run_signature(traced) == run_signature(reference)

    def test_fit_many_process_traced_under_crash(self, monkeypatch):
        graphs = [paper_running_example(), planted(seed=17)]
        serial = fit_many(graphs, CSPMConfig())
        monkeypatch.setenv(ENV_VAR, crash_plan("batch"))
        traced = fit_many(
            graphs,
            CSPMConfig(trace=True, metrics=True),
            n_jobs=2,
            executor="process",
        )
        for left, right in zip(serial, traced):
            assert run_signature(right.result) == run_signature(left.result)
        obs = traced.obs
        assert obs is not None and obs.tracer.enabled
        # Every successful run's spans came home into a batch lane.
        lanes = [lane for _pid, lane, _spans in obs.tracer.adopted]
        assert len(lanes) == len(graphs)
        assert all(lane.startswith("batch[") for lane in lanes)
        histograms = obs.metrics.snapshot()["histograms"]
        assert histograms["batch.run_seconds"]["count"] == len(graphs)


# ----------------------------------------------------------------------
# Batch lanes: every run is a lane, under any executor
# ----------------------------------------------------------------------


class TestBatchLanes:
    @pytest.mark.parametrize("executor, n_jobs", [("process", 2), ("serial", 1)])
    def test_active_session_adopts_one_lane_per_run(self, executor, n_jobs):
        graphs = [paper_running_example(), planted(seed=3), planted(seed=4)]
        obs = Observation.create(trace=True)
        with activate(obs):
            batch = fit_many(graphs, CSPMConfig(), n_jobs=n_jobs, executor=executor)
        assert batch.obs is obs
        lanes = {lane: spans for _pid, lane, spans in obs.tracer.adopted}
        assert sorted(lanes) == ["batch[0]", "batch[1]", "batch[2]"]
        for run in batch:
            spans = lanes[f"batch[{run.index}]"]
            names = [record[0] for record in spans]
            assert all(names.count(name) == 1 for name in STAGE_SPANS)
            # The lane holds this run's spans: its build counted this
            # run's coresets.
            (rows,) = [record for record in spans if record[0] == "build.rows"]
            assert json.loads(rows[4])["coresets"] == len(run.result.core_table)
        assert not any(record[0].startswith("mine.") for record in obs.tracer.spans)


# ----------------------------------------------------------------------
# Batch timing symmetry + CLI surfaces
# ----------------------------------------------------------------------


class TestBatchTiming:
    def test_failed_run_still_records_wall_clock(self):
        graphs = [paper_running_example(), AttributedGraph()]
        batch = fit_many(graphs, CSPMConfig(metrics=True))
        assert batch[0].ok and not batch[1].ok
        assert batch[1].seconds >= 0.0
        assert batch.total_seconds == pytest.approx(
            sum(run.seconds for run in batch)
        )
        histograms = batch.obs.metrics.snapshot()["histograms"]
        # The failed run's duration is observed too.
        assert histograms["batch.run_seconds"]["count"] == len(graphs)
        counters = batch.obs.metrics.snapshot()["counters"]
        assert counters["batch.runs"] == len(graphs)
        assert counters["batch.run_failures"] == 1


class TestCLI:
    @pytest.fixture()
    def paper_graph_file(self, tmp_path):
        path = tmp_path / "paper.json"
        save_json(paper_running_example(), path)
        return str(path)

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as excinfo:
            cli_main(["--version"])
        assert excinfo.value.code == 0
        assert __version__ in capsys.readouterr().out

    def test_version_subcommand(self, capsys):
        from repro import __version__

        assert cli_main(["version"]) == 0
        assert capsys.readouterr().out.strip() == __version__

    def test_traced_mine_json_is_byte_identical(
        self, paper_graph_file, tmp_path, capsys
    ):
        assert cli_main(["mine", paper_graph_file, "--json"]) == 0
        untraced = capsys.readouterr().out
        trace_file = tmp_path / "trace.json"
        metrics_file = tmp_path / "metrics.json"
        assert (
            cli_main(
                [
                    "mine",
                    paper_graph_file,
                    "--json",
                    "--trace",
                    str(trace_file),
                    "--metrics",
                    str(metrics_file),
                    "--progress",
                ]
            )
            == 0
        )
        captured = capsys.readouterr()
        # The config echo legitimately records the enabled knobs; every
        # mining payload byte (astars, trace, DL floats) is identical.
        reference = json.loads(untraced)
        traced = json.loads(captured.out)
        for knob in ("trace", "metrics", "progress"):
            assert traced["config"].pop(knob) is True
            assert knob not in reference["config"]
        assert traced == reference
        assert "wrote trace to" in captured.err
        document = json.loads(trace_file.read_text())
        names = {event["name"] for event in document["traceEvents"]}
        assert set(STAGE_SPANS) <= names
        snapshot = json.loads(metrics_file.read_text())
        assert "search.gains_computed" in snapshot["counters"]
