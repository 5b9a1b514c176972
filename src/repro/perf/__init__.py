"""Performance measurement: the ``BENCH_cspm.json`` perf trajectory.

:mod:`repro.perf.suite` runs the Fig. 5 / Table III style synthetic
workloads across sizes and records wall-clock plus the counter
series (``initial_candidate_gains``, ``gains_computed``,
``peak_queue_size``, and the lazy-refresh counters
``refreshes_skipped``/``dirty_revalidations``) that make regressions
assertable without flaky wall-clock thresholds.

Entry points: ``repro bench`` (CLI) and ``benchmarks/perf_suite.py``
(standalone script; what CI's perf-smoke job runs).  Both accept
``--workload <name>`` to re-measure a single family into an existing
``BENCH_cspm.json`` (other entries are preserved) and ``--output`` as
an alias of ``--out``.
"""

from repro.perf.suite import check_bounds, merge_into, run_suite

__all__ = ["check_bounds", "merge_into", "run_suite"]
