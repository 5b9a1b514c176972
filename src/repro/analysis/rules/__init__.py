"""The shipped rule families.

Importing this package registers every rule with
:data:`repro.analysis.core.RULE_REGISTRY`:

========  ===========================================================
family    rules
========  ===========================================================
DET       determinism: DET001 unsorted accumulation/serialisation,
          DET002 hash()/id() ordering, DET003 unseeded RNG in core/
MSK       mask backends: MSK001 protocol surface/arity, MSK002 pure-op
          mutation
SUP, FRK  processes: SUP001 multiprocessing/concurrent imported
          outside runtime/supervisor.py, FRK002 worker payload types
CFG       config drift: CFG001 field/flag wiring
RES       resilience: RES002 bare/BaseException handlers outside the
          supervisor
OBS       observability: OBS001 non-literal span/metric names, OBS002
          import time outside the repro.obs clock seam
GC        collector ownership: GC001 gc state changed outside
          core/collector.py
========  ===========================================================

The contracts behind the families are written up in
``docs/INVARIANTS.md``; each rule's docstring is the per-rule detail.
"""

from repro.analysis.rules import (  # noqa: F401  (imported for registration)
    collector,
    config_drift,
    determinism,
    fork_safety,
    mask_purity,
    observability,
    resilience,
)
