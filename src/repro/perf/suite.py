"""A re-export for ``perfbench/workloads.py``, which imports these three
names from here.  They live in :mod:`repro.datasets.synthetic`; the
counter-gate harness is ``benchmarks/perf_suite.py``.  This package goes
once that import points at :mod:`repro.datasets.synthetic`.
"""

from repro.datasets.synthetic import (
    SPARSE_COMMUNITY_SIZE,
    SPARSE_POOL_SIZE,
    pokec_sparse_graph,
)

__all__ = ["SPARSE_COMMUNITY_SIZE", "SPARSE_POOL_SIZE", "pokec_sparse_graph"]
