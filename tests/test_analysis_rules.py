"""Per-rule fixtures for the invariant linter (``repro.analysis``).

Every rule family gets a true positive (the shape the rule exists to
catch), a true negative (the compliant spelling) and a
noqa-suppression check; a self-check pins that the shipped tree lints
clean; and two tests mutate real sources -- ``core/mdl.py`` back to
the unsorted iteration the linter was built to prevent, ``batch.py``
to a pool import of its own -- and assert the rule fires on each.
"""

import json
from pathlib import Path

import pytest

from repro.analysis import (
    RULE_REGISTRY,
    default_lint_root,
    lint_paths,
    lint_sources,
)
from repro.cli import main as cli_main
from repro.errors import ReproError


def rules_of(report):
    return sorted({finding.rule for finding in report.findings})


def lint_one(path, source, rule_ids=None):
    return lint_sources([(path, source)], rule_ids=rule_ids)


# ----------------------------------------------------------------------
# DET: determinism
# ----------------------------------------------------------------------

DET001_LOOP_TP = """
def data_bits(rows):
    total = 0.0
    for key, frequency in rows.items():
        total += frequency * 1.5
    return total
"""

DET001_LOOP_TN = """
def data_bits(rows):
    total = 0.0
    for key, frequency in sorted(rows.items()):
        total += frequency * 1.5
    return total
"""

DET001_SUM_TP = """
def total_bits(lengths):
    return sum(length * 2.0 for length in lengths.values())
"""

DET001_SERIALIZER_TP = """
class Result:
    def to_dict(self):
        return {"stars": [repr(star) for star in self.stars_by_id.values()]}
"""

DET001_SERIALIZER_TN = """
class Result:
    def to_dict(self):
        return {"stars": [repr(s) for s in sorted(self.stars_by_id.values())]}
"""


class TestDET001:
    def test_unsorted_loop_accumulation_in_sensitive_module(self):
        report = lint_one("core/mdl.py", DET001_LOOP_TP, ["DET001"])
        assert rules_of(report) == ["DET001"]

    def test_sorted_loop_is_clean(self):
        assert lint_one("core/mdl.py", DET001_LOOP_TN, ["DET001"]).clean

    def test_sum_over_unsorted_view(self):
        report = lint_one("core/code_table.py", DET001_SUM_TP, ["DET001"])
        assert rules_of(report) == ["DET001"]

    def test_sensitive_scope_is_path_gated(self):
        # The same accumulation outside the hash-sensitive modules is
        # not DET001's business (to_dict/to_json are checked anywhere).
        assert lint_one("perf/suite.py", DET001_LOOP_TP, ["DET001"]).clean

    def test_serializer_flagged_in_any_module(self):
        report = lint_one("anywhere.py", DET001_SERIALIZER_TP, ["DET001"])
        assert rules_of(report) == ["DET001"]
        assert lint_one("anywhere.py", DET001_SERIALIZER_TN, ["DET001"]).clean

    def test_noqa_suppresses_on_the_finding_line(self):
        suppressed = DET001_LOOP_TP.replace(
            "for key, frequency in rows.items():",
            "for key, frequency in rows.items():  # repro: noqa[DET001]",
        )
        assert lint_one("core/mdl.py", suppressed, ["DET001"]).clean

    def test_bare_noqa_suppresses_every_rule(self):
        suppressed = DET001_LOOP_TP.replace(
            "for key, frequency in rows.items():",
            "for key, frequency in rows.items():  # repro: noqa",
        )
        assert lint_one("core/mdl.py", suppressed).clean

    def test_noqa_for_other_rule_does_not_suppress(self):
        other = DET001_LOOP_TP.replace(
            "for key, frequency in rows.items():",
            "for key, frequency in rows.items():  # repro: noqa[DET002]",
        )
        report = lint_one("core/mdl.py", other, ["DET001"])
        assert rules_of(report) == ["DET001"]


class TestDET002:
    def test_hash_key_flagged(self):
        report = lint_one(
            "util.py", "order = sorted(values, key=hash)\n", ["DET002"]
        )
        assert rules_of(report) == ["DET002"]

    def test_id_inside_lambda_key_flagged(self):
        report = lint_one(
            "util.py",
            "values.sort(key=lambda item: (id(item), item))\n",
            ["DET002"],
        )
        assert rules_of(report) == ["DET002"]

    def test_value_derived_key_is_clean(self):
        assert lint_one(
            "util.py", "order = sorted(values, key=repr)\n", ["DET002"]
        ).clean


class TestDET003:
    def test_global_rng_in_core_flagged(self):
        report = lint_one(
            "core/search.py",
            "import random\n\ndef jitter():\n    return random.random()\n",
            ["DET003"],
        )
        assert rules_of(report) == ["DET003"]

    def test_seeded_rng_is_clean(self):
        assert lint_one(
            "core/search.py",
            "import random\n\nrng = random.Random(42)\n",
            ["DET003"],
        ).clean

    def test_outside_core_is_not_in_scope(self):
        assert lint_one(
            "perf/suite.py",
            "import random\n\ndef jitter():\n    return random.random()\n",
            ["DET003"],
        ).clean


# ----------------------------------------------------------------------
# MSK: mask-backend protocol conformance and purity
# ----------------------------------------------------------------------

MASK_BASE = """
class MaskBackend:
    def empty(self):
        raise NotImplementedError

    def make(self, bits):
        raise NotImplementedError

    def or_(self, a, b):
        raise NotImplementedError

    def make_runs(self, bits, starts, counts):
        return [self.make(bits[s : s + c]) for s, c in zip(starts, counts)]
"""

MSK_COMPLETE = """
class GoodBackend(MaskBackend):
    def empty(self):
        return 0

    def make(self, bits):
        value = 0
        for bit in bits:
            value |= 1 << bit
        return value

    def or_(self, a, b):
        return a | b
"""

MSK_MISSING = """
class PartialBackend(MaskBackend):
    def empty(self):
        return 0

    def make(self, bits):
        return 0
"""

MSK_ARITY = """
class WrongArity(MaskBackend):
    def empty(self):
        return 0

    def make(self, bits):
        return 0

    def or_(self, a):
        return a
"""

MSK_MUTATES = """
class MutatingBackend(MaskBackend):
    def empty(self):
        return set()

    def make(self, bits):
        bits.sort()
        return set(bits)

    def or_(self, a, b):
        a.update(b)
        return a
"""

MSK_AUGASSIGN = """
class AugBackend(MaskBackend):
    def empty(self):
        return 0

    def make(self, bits):
        return 0

    def or_(self, a, b):
        a |= b
        return a
"""


def lint_backend(source, rule_ids):
    return lint_sources(
        [("core/masks/base.py", MASK_BASE), ("core/masks/impl.py", source)],
        rule_ids=rule_ids,
    )


class TestMSK001:
    def test_complete_backend_is_clean(self):
        assert lint_backend(MSK_COMPLETE, ["MSK001"]).clean

    def test_missing_required_method_flagged(self):
        report = lint_backend(MSK_MISSING, ["MSK001"])
        assert rules_of(report) == ["MSK001"]
        assert "or_()" in report.findings[0].message

    def test_arity_mismatch_flagged(self):
        report = lint_backend(MSK_ARITY, ["MSK001"])
        assert rules_of(report) == ["MSK001"]
        assert "positional parameters" in report.findings[0].message

    def test_optional_override_not_required(self):
        # make_runs has a default body in the base -> not required.
        report = lint_backend(MSK_COMPLETE, ["MSK001"])
        assert not any(
            "make_runs" in finding.message for finding in report.findings
        )


class TestMSK002:
    def test_mutating_pure_op_flagged(self):
        report = lint_backend(MSK_MUTATES, ["MSK002"])
        assert rules_of(report) == ["MSK002"]
        # make is a construction op: its bits.sort() is allowed, so
        # the only finding is or_'s a.update(b).
        assert len(report.findings) == 1
        assert "or_()" in report.findings[0].message

    def test_inplace_operator_on_argument_flagged(self):
        report = lint_backend(MSK_AUGASSIGN, ["MSK002"])
        assert rules_of(report) == ["MSK002"]
        assert "in-place operator" in report.findings[0].message

    def test_pure_backend_is_clean(self):
        assert lint_backend(MSK_COMPLETE, ["MSK002"]).clean


# ----------------------------------------------------------------------
# SUP, FRK: process ownership and pickle safety
# ----------------------------------------------------------------------

FRK_PAYLOAD_BAD = """
from dataclasses import dataclass
from typing import Callable, List

@dataclass
class WorkerResult:
    rows: List[int]
    callback: Callable
"""

FRK_PAYLOAD_GOOD = """
from dataclasses import dataclass
from typing import List, Tuple

@dataclass
class WorkerResult:
    rows: List[Tuple[int, Value, Mask, int]]
    core_freq: List[Tuple[int, int]]
"""


SUP001_TP = [
    "import multiprocessing\n",
    "from concurrent.futures import ProcessPoolExecutor\n",
    "import multiprocessing.pool as workers\n",
    "import os, concurrent.futures as cf\n",
    "def run(jobs):\n    from multiprocessing import Pool\n    return Pool\n",
]

SUP001_TN = """
import multiprocessing_helpers
from .concurrent import pool
from repro.runtime.supervisor import run_supervised
"""


class TestSUP001:
    @pytest.mark.parametrize("source", SUP001_TP)
    def test_process_import_flagged_outside_the_supervisor(self, source):
        report = lint_one("core/search_shard.py", source, ["SUP001"])
        assert rules_of(report) == ["SUP001"]
        assert len(report.findings) == 1
        assert "run_supervised" in report.findings[0].message

    @pytest.mark.parametrize("source", SUP001_TP)
    def test_supervisor_module_is_exempt(self, source):
        assert lint_one("runtime/supervisor.py", source, ["SUP001"]).clean
        assert lint_one(
            "src/repro/runtime/supervisor.py", source, ["SUP001"]
        ).clean

    def test_other_modules_and_relative_imports_are_clean(self):
        assert lint_one("batch.py", SUP001_TN, ["SUP001"]).clean

    def test_noqa_suppresses(self):
        suppressed = "import multiprocessing  # repro: noqa[SUP001]\n"
        assert lint_one("batch.py", suppressed, ["SUP001"]).clean


class TestFRK002:
    def test_non_allowlisted_payload_type_flagged(self):
        report = lint_one("core/search_shard.py", FRK_PAYLOAD_BAD, ["FRK002"])
        assert rules_of(report) == ["FRK002"]
        assert "Callable" in report.findings[0].message

    def test_allowlisted_payload_is_clean(self):
        assert lint_one(
            "core/search_shard.py", FRK_PAYLOAD_GOOD, ["FRK002"]
        ).clean

    def test_scoped_to_worker_modules(self):
        assert lint_one("core/other.py", FRK_PAYLOAD_BAD, ["FRK002"]).clean


# ----------------------------------------------------------------------
# CFG: config/CLI drift
# ----------------------------------------------------------------------

CFG_CONFIG = """
from dataclasses import dataclass

@dataclass(frozen=True)
class CSPMConfig:
    method: str = "partial"
    shiny_knob: int = 3
"""

CFG_CLI_WIRED = """
def _add_mine(subparsers):
    parser = subparsers.add_parser("mine")
    parser.add_argument("--method")
    parser.add_argument("--shiny-knob", type=int)
"""

CFG_CLI_MISSING = """
def _add_mine(subparsers):
    parser = subparsers.add_parser("mine")
    parser.add_argument("--method")
"""

class TestCFG001:
    def test_unwired_field_flagged(self):
        report = lint_sources(
            [("config.py", CFG_CONFIG), ("cli.py", CFG_CLI_MISSING)],
            rule_ids=["CFG001"],
        )
        assert rules_of(report) == ["CFG001"]
        assert "shiny_knob" in report.findings[0].message

    def test_wired_field_is_clean(self):
        assert lint_sources(
            [("config.py", CFG_CONFIG), ("cli.py", CFG_CLI_WIRED)],
            rule_ids=["CFG001"],
        ).clean

    def test_gated_on_flag_function_in_view(self):
        # Linting the config file alone must not report every field.
        assert lint_one("config.py", CFG_CONFIG, ["CFG001"]).clean


# ----------------------------------------------------------------------
# RES: resilience (supervised runtime)
# ----------------------------------------------------------------------

RES002_BARE_TP = """
def swallow(job):
    try:
        job()
    except:
        pass
"""

RES002_BASE_TP = """
def swallow(job):
    try:
        job()
    except BaseException:
        return None
"""

RES002_RERAISE_TN = """
def cleanup_then_reraise(job, pool):
    try:
        job()
    except BaseException:
        pool.terminate()
        raise
"""

RES002_EXCEPTION_TN = """
def tolerate(job):
    try:
        job()
    except Exception:
        return None
"""


class TestRES002:
    def test_bare_except_flagged(self):
        report = lint_one("batch.py", RES002_BARE_TP, ["RES002"])
        assert rules_of(report) == ["RES002"]
        assert "bare except:" in report.findings[0].message

    def test_base_exception_flagged_anywhere(self):
        report = lint_one("perf/suite.py", RES002_BASE_TP, ["RES002"])
        assert rules_of(report) == ["RES002"]
        assert "except BaseException" in report.findings[0].message

    def test_cleanup_then_reraise_is_clean(self):
        assert lint_one("batch.py", RES002_RERAISE_TN, ["RES002"]).clean

    def test_catching_exception_is_clean(self):
        assert lint_one("batch.py", RES002_EXCEPTION_TN, ["RES002"]).clean

    def test_noqa_suppresses_the_supervisor_boundary(self):
        suppressed = RES002_BASE_TP.replace(
            "except BaseException:",
            "except BaseException:  # repro: noqa[RES002]",
        )
        assert lint_one("batch.py", suppressed, ["RES002"]).clean


# ----------------------------------------------------------------------
# OBS: observability (literal names, clock seam)
# ----------------------------------------------------------------------

OBS001_TP = """
def instrument(obs, phase):
    with obs.span("mine." + phase):
        obs.metrics.counter(phase).inc()
"""

OBS001_TN = """
def instrument(obs, site):
    with obs.span("mine.search", site=site):
        obs.metrics.counter("runtime.retries").inc(site=site)
        obs.progress.heartbeat("search", merges=3)
"""

OBS001_UNRELATED_TN = """
def melody(piano):
    piano.note(61)
    return piano.span(2, 9)
"""

OBS002_TP = """
import time

def stamp():
    return time.perf_counter()
"""

OBS002_FROM_TP = """
from time import perf_counter
"""

OBS002_TN = """
from repro.obs import clock

def stamp():
    return clock.perf_counter()
"""


GC001_TP = """
import gc

def mine(pipeline, graph):
    gc.disable()
    try:
        return pipeline.run(graph)
    finally:
        gc.collect()
        gc.enable()
"""

GC001_ALIAS_TP = """
import gc as collector
from gc import freeze, unfreeze as thaw

def settle():
    freeze()
    thaw()
    collector.set_threshold(10_000)
"""

GC001_TN = """
import gc

from repro.core.collector import paused_collector

def mine(pipeline, graph, pool):
    before = (gc.isenabled(), gc.get_count(), gc.get_freeze_count())
    with paused_collector():
        result = pipeline.run(graph)
    pool.collect()
    return result, before, gc.get_threshold(), len(gc.callbacks)
"""


class TestOBS001:
    def test_computed_names_flagged(self):
        report = lint_one("core/search.py", OBS001_TP, ["OBS001"])
        assert rules_of(report) == ["OBS001"]
        assert len(report.findings) == 2
        assert "string literal" in report.findings[0].message

    def test_literal_names_with_label_kwargs_are_clean(self):
        assert lint_one("core/search.py", OBS001_TN, ["OBS001"]).clean

    def test_unrelated_apis_sharing_method_names_are_flagged(self):
        # Non-string first arguments to .span()/.note() are flagged even
        # on foreign objects -- the rule is name-based on purpose, and
        # the tree has no such APIs; noqa is the escape hatch.
        report = lint_one("synth.py", OBS001_UNRELATED_TN, ["OBS001"])
        assert rules_of(report) == ["OBS001"]
        assert len(report.findings) == 2

    def test_obs_package_delegation_is_exempt(self):
        assert lint_one("obs/session.py", OBS001_TP, ["OBS001"]).clean

    def test_noqa_suppresses(self):
        suppressed = OBS001_TP.replace(
            'obs.metrics.counter(phase).inc()',
            'obs.metrics.counter(phase).inc()  # repro: noqa[OBS001]',
        ).replace(
            'with obs.span("mine." + phase):',
            'with obs.span("mine." + phase):  # repro: noqa[OBS001]',
        )
        assert lint_one("core/search.py", suppressed, ["OBS001"]).clean


class TestOBS002:
    def test_import_time_flagged(self):
        report = lint_one("perf/suite.py", OBS002_TP, ["OBS002"])
        assert rules_of(report) == ["OBS002"]
        assert "clock" in report.findings[0].message

    def test_from_time_import_flagged(self):
        report = lint_one("batch.py", OBS002_FROM_TP, ["OBS002"])
        assert rules_of(report) == ["OBS002"]

    def test_clock_seam_import_is_clean(self):
        assert lint_one("runtime/supervisor.py", OBS002_TN, ["OBS002"]).clean

    def test_obs_clock_module_is_exempt(self):
        assert lint_one("obs/clock.py", OBS002_TP, ["OBS002"]).clean

    @pytest.mark.parametrize(
        "source",
        [
            "import time\n\ndef stamp():\n    return time.time()\n",
            "import time as t\n\ndef stamp():\n    return t.time()\n",
            "from time import monotonic\n\ndef stamp():\n    return monotonic()\n",
        ],
    )
    def test_wall_clock_in_core_is_caught_under_any_spelling(self, source):
        # DET003 checks randomness only: the import is what a clock
        # read in core/ cannot do without.
        report = lint_one("core/gain.py", source, ["DET003", "OBS002"])
        assert rules_of(report) == ["OBS002"]


class TestGC001:
    def test_state_changes_flagged(self):
        report = lint_one("pipeline.py", GC001_TP, ["GC001"])
        assert rules_of(report) == ["GC001"]
        assert [finding.line for finding in report.findings] == [5, 9, 10]
        assert "paused_collector" in report.findings[0].message

    def test_aliases_and_from_imports_flagged(self):
        report = lint_one("core/search_shard.py", GC001_ALIAS_TP, ["GC001"])
        assert len(report.findings) == 3
        messages = [finding.message for finding in report.findings]
        assert any("gc.freeze()" in message for message in messages)
        assert any("gc.unfreeze()" in message for message in messages)
        assert any("gc.set_threshold()" in message for message in messages)

    def test_read_only_queries_and_the_pause_are_clean(self):
        assert lint_one("batch.py", GC001_TN, ["GC001"]).clean

    def test_collector_module_is_exempt(self):
        assert lint_one("core/collector.py", GC001_TP, ["GC001"]).clean
        assert lint_one("src/repro/core/collector.py", GC001_TP, ["GC001"]).clean

    def test_noqa_suppresses(self):
        suppressed = GC001_TP.replace(
            "gc.disable()", "gc.disable()  # repro: noqa[GC001]"
        )
        report = lint_one("pipeline.py", suppressed, ["GC001"])
        assert [finding.line for finding in report.findings] == [9, 10]


# ----------------------------------------------------------------------
# The shipped tree, and the regression the linter exists to prevent
# ----------------------------------------------------------------------


class TestShippedTree:
    def test_repro_lint_is_clean_on_the_shipped_tree(self):
        report = lint_paths()
        assert report.clean, report.render_text()
        assert report.modules > 50

    def test_every_registered_rule_has_title_and_docs(self):
        assert set(RULE_REGISTRY) == {
            "DET001",
            "DET002",
            "DET003",
            "MSK001",
            "MSK002",
            "SUP001",
            "FRK002",
            "CFG001",
            "RES002",
            "OBS001",
            "OBS002",
            "GC001",
        }
        for rule in RULE_REGISTRY.values():
            assert rule.title
            assert "INVARIANTS.md" in (type(rule).__doc__ or "")

    def test_mutated_mdl_unsorted_iteration_is_caught(self):
        """Reverting conditional_entropy to unsorted db.row_items()
        iteration -- the true positive this PR fixed -- must fail
        DET001."""
        import repro.core.mdl as mdl_module

        source = Path(mdl_module.__file__).read_text()
        target = "for core, _leaf, l_ij in canonical_rows(db):"
        assert target in source
        mutated = source.replace(
            target, "for core, _leaf, l_ij in db.row_items():"
        )
        assert lint_one("core/mdl.py", source, ["DET001"]).clean
        report = lint_one("core/mdl.py", mutated, ["DET001"])
        assert rules_of(report) == ["DET001"]

    @pytest.mark.parametrize("subpackage", ["core", "obs", "runtime"])
    def test_one_subpackage_keeps_its_path_scoped_exemptions(self, subpackage):
        # core/collector.py (GC001), the obs package (OBS001/OBS002) and
        # runtime/supervisor.py (SUP001) are exempt by path, so linting
        # one directory must keep its name in the display paths.
        report = lint_paths([str(default_lint_root() / subpackage)])
        assert report.clean, report.render_text()
        assert report.modules > 1

    def test_pool_import_in_batch_is_caught(self):
        """A second pool path -- ``fit_many`` importing an executor of
        its own -- must fail SUP001."""
        import repro.batch as batch_module

        source = Path(batch_module.__file__).read_text()
        mutated = "import concurrent.futures\n" + source
        assert lint_one("batch.py", source, ["SUP001"]).clean
        report = lint_one("batch.py", mutated, ["SUP001"])
        assert rules_of(report) == ["SUP001"]


# ----------------------------------------------------------------------
# CLI integration
# ----------------------------------------------------------------------


class TestLintCLI:
    def test_violating_file_exits_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "util.py"
        bad.write_text("order = sorted(values, key=hash)\n")
        assert cli_main(["lint", str(bad)]) == 1
        assert "DET002" in capsys.readouterr().out

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        good = tmp_path / "util.py"
        good.write_text("order = sorted(values, key=repr)\n")
        assert cli_main(["lint", str(good)]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_json_report_shape(self, tmp_path, capsys):
        bad = tmp_path / "util.py"
        bad.write_text("order = sorted(values, key=hash)\n")
        assert cli_main(["lint", "--json", str(bad)]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["version"] == 2
        assert set(document) == {"version", "clean", "modules", "rules", "findings"}
        assert document["clean"] is False
        assert document["findings"][0]["rule"] == "DET002"
        assert document["rules"]["DET002"]["count"] == 1

    def test_rule_filter(self, tmp_path, capsys):
        bad = tmp_path / "util.py"
        bad.write_text("order = sorted(values, key=hash)\n")
        assert cli_main(["lint", "--rule", "DET001", str(bad)]) == 0
        capsys.readouterr()

    def test_list_rules(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == list(RULE_REGISTRY)
        assert len(lines) == 12

    def test_shipped_tree_via_cli(self, capsys):
        assert cli_main(["lint"]) == 0
        assert capsys.readouterr().out.startswith("0 findings in ")

    @pytest.mark.parametrize("flag", ["--baseline", "--write-baseline"])
    def test_baseline_flags_are_gone(self, tmp_path, capsys, flag):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["lint", flag, str(tmp_path / "baseline.json")])
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def lint_error(argv, capsys):
    """Run ``repro lint``; assert it exits 2 with one ``error:`` line."""
    assert cli_main(["lint", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    return captured.err


class TestLintInputErrors:
    """The linter's own inputs exit 2, apart from findings' exit 1."""

    def test_unknown_rule_id(self, tmp_path, capsys):
        good = tmp_path / "util.py"
        good.write_text("x = 1\n")
        err = lint_error(["--rule", "FRK001", str(good)], capsys)
        assert "unknown rule ids ['FRK001']" in err

    def test_missing_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.py"
        err = lint_error([str(missing)], capsys)
        assert err.startswith(f"error: cannot read {missing}:")

    def test_non_utf8_file(self, tmp_path, capsys):
        bad = tmp_path / "latin.py"
        bad.write_bytes(b'name = "caf\xe9"\n')
        err = lint_error([str(bad)], capsys)
        assert err.startswith(f"error: cannot read {bad}:")
        assert "utf-8" in err

    def test_file_that_does_not_parse(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("x = 1\ndef f(:\n    pass\n")
        err = lint_error([str(tmp_path)], capsys)
        expected = f"error: cannot parse {tmp_path.name}/broken.py, line 2:"
        assert err.startswith(expected)

    def test_library_raises_repro_error(self):
        with pytest.raises(ReproError, match="unknown rule ids"):
            lint_sources([("util.py", "x = 1\n")], rule_ids=["NOPE"])
        with pytest.raises(ReproError, match="cannot parse util.py, line 1"):
            lint_sources([("util.py", "def f(:\n")])
