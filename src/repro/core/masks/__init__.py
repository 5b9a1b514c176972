"""Pluggable position-mask backends for the inverted database.

See :mod:`repro.core.masks.base` for the backend protocol and the
bit-exactness contract.  Two backends ship:

========  ==========================================  =================
name      representation                              best for
========  ==========================================  =================
bigint    one Python int per mask                     small graphs
chunked   dict of non-empty fixed-width int chunks    paper-scale sparse
========  ==========================================  =================

Both build masks in bulk from one flat bit column of ascending runs
(:meth:`MaskBackend.make_runs`): bigint packs every run at once with
numpy, chunked groups each run's bits by chunk.

Selection is by name through :func:`get_backend` /
:func:`resolve_backend`; ``"auto"`` picks ``bigint`` below
:data:`AUTO_CHUNKED_MIN_BITS` vertices and ``chunked`` at or above it,
which keeps every existing small-graph workload on the zero-regression
default while paper-scale graphs get sparse masks without any
configuration.
"""

from __future__ import annotations

from typing import Optional

# MASK_BACKENDS lives in repro.config (the knob registry, imported
# here so there is exactly one copy); config imports only repro.errors,
# so this direction is cycle-free, while the reverse would recurse
# through repro.core's package __init__.
from repro.config import MASK_BACKENDS
from repro.core.masks.base import MaskBackend, bigint_mask_bytes
from repro.core.masks.bigint import BigintMaskBackend
from repro.core.masks.chunked import ChunkedMaskBackend
from repro.errors import MiningError

#: ``auto`` switches from bigint to chunked masks at this vertex count:
#: below it a whole-graph int is a few machine words and unbeatable;
#: above it per-union O(|V|) memory starts to dominate (measured in the
#: perf suite's pokec-sparse family).
AUTO_CHUNKED_MIN_BITS = 65536


def get_backend(name: str) -> MaskBackend:
    """Instantiate the backend registered under ``name`` (not "auto")."""
    if name == "bigint":
        return BigintMaskBackend()
    if name == "chunked":
        return ChunkedMaskBackend()
    concrete = [backend for backend in MASK_BACKENDS if backend != "auto"]
    raise MiningError(
        f"unknown mask backend {name!r}; available: {concrete} "
        "(or 'auto' via resolve_backend)"
    )


def resolve_backend(
    name: str = "auto", num_bits_hint: Optional[int] = None
) -> MaskBackend:
    """Resolve a config-level backend name (including ``"auto"``).

    ``num_bits_hint`` is the expected vertex-order width (``|V|`` of
    the graph about to be indexed); ``auto`` uses it to pick bigint for
    small graphs and chunked for paper-scale ones.
    """
    if name == "auto":
        if num_bits_hint is not None and num_bits_hint >= AUTO_CHUNKED_MIN_BITS:
            return ChunkedMaskBackend()
        return BigintMaskBackend()
    return get_backend(name)


__all__ = [
    "AUTO_CHUNKED_MIN_BITS",
    "MASK_BACKENDS",
    "MaskBackend",
    "BigintMaskBackend",
    "ChunkedMaskBackend",
    "bigint_mask_bytes",
    "get_backend",
    "resolve_backend",
]
