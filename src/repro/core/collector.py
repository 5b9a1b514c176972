"""The one owner of CPython's cyclic garbage collector state.

A mining run makes no cyclic garbage: every structure it builds (rows,
masks, queues, traces, results) is freed by reference counting or
outlives the run, and ``gc.collect()`` after a run with the collector
off finds nothing (``tests/test_collector.py`` pins this on every
execution path).  Left on, the collector still ran about 100 times
in one run of the ``sparse-serial`` benchmark graph and freed nothing.
:func:`paused_collector` switches it off for one run.

Re-enabling alone would only defer that work: the objects the run left
behind sit in the young generations with an allocation count far past
the threshold, so the first collection after the run walks all of
them, and promoting them towards the oldest generation soon triggers a
full collection.  On exit the pause therefore files every tracked
object in the oldest generation with ``gc.freeze()`` then
``gc.unfreeze()`` (documented to put the frozen objects back into the
oldest generation; both steps relink list heads, so the pair is O(1)).
``gc.freeze()`` also resets the young allocation count, so no backlog
is left either.

The pause is process-wide (see docs/INVARIANTS.md): other threads run
without the collector while it lasts, and the move to the oldest
generation takes every young object, not only the run's own.  Lint
rule GC001 keeps this module the only code in the package that
changes the collector's state.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

#: Objects the interpreter itself keeps in the permanent generation,
#: counted when this module is imported: none up to CPython 3.11,
#: while 3.12 moves the immortal tuples of its static types there at
#: every full collection (375 of them).  Frozen objects beyond these
#: are a caller's.
_INTERPRETER_FROZEN = gc.get_freeze_count()


@contextmanager
def paused_collector() -> Iterator[None]:
    """Run the ``with`` body with the cyclic collector disabled.

    Does nothing when the collector is already off (the caller's
    state, generation counts included, is left as it is), so nested
    pauses and forked workers of a paused parent are no-ops.
    Otherwise, on exit, normal or raising, it moves every young object
    to the oldest generation and re-enables the collector.  The move
    is skipped while the caller holds frozen objects (more than the
    interpreter's own, :data:`_INTERPRETER_FROZEN`), since
    ``gc.unfreeze()`` would release them too.  It never runs a
    collection.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        if gc.get_freeze_count() <= _INTERPRETER_FROZEN:
            gc.freeze()
            gc.unfreeze()
        gc.enable()


__all__ = ["paused_collector"]
