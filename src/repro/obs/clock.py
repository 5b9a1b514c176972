"""The injected-clock seam: the only sanctioned ``time`` import.

Every wall-clock read and sleep in ``repro`` goes through this module
so that (a) the linter can verify that no other code consults the
clock directly (OBS002 flags every other ``time`` import in the
package — see docs/INVARIANTS.md, family 6), and (b) tests can
monkeypatch one seam to drive timers, span clocks and sleeps
deterministically.

The names are rebound module attributes, not wrappers: calling through
``clock.perf_counter()`` costs one attribute lookup over ``import
time`` and keeps monkeypatching trivial (``monkeypatch.setattr(clock,
"perf_counter", fake)``).
"""

from __future__ import annotations

import time as _time

#: Monotonic high-resolution timer; feeds span start/end stamps and
#: every ``*_seconds`` measurement.
perf_counter = _time.perf_counter

#: Monotonic coarse timer (kept for completeness; prefer
#: :func:`perf_counter`).
monotonic = _time.monotonic

#: Blocking sleep; the fault injector's hang routes through here.
sleep = _time.sleep

__all__ = ["perf_counter", "monotonic", "sleep"]
