"""A small named registry over the dataset generators."""

from __future__ import annotations

import math
from typing import Callable, Dict, List

from repro.datasets import synthetic
from repro.errors import DatasetError
from repro.graphs.attributed_graph import AttributedGraph

_GENERATORS: Dict[str, Callable[..., AttributedGraph]] = {
    "dblp": synthetic.dblp_like,
    "dblp-trend": synthetic.dblp_trend_like,
    "usflight": synthetic.usflight_like,
    "pokec": synthetic.pokec_like,
    "cora": synthetic.cora_like,
    "citeseer": synthetic.citeseer_like,
}


def available_datasets() -> List[str]:
    """Names accepted by :func:`load_dataset`."""
    return sorted(_GENERATORS)


def load_dataset(name: str, scale: float = None, seed: int = 0) -> AttributedGraph:
    """Generate the named dataset analogue.

    ``scale`` defaults to each generator's own default (1.0 for the
    laptop-scale graphs, a small fraction for Pokec); anything but a
    finite number above 0 raises :class:`~repro.errors.DatasetError`.
    """
    try:
        generator = _GENERATORS[name]
    except KeyError:
        raise DatasetError(
            f"unknown dataset {name!r}; available: {available_datasets()}"
        ) from None
    if scale is None:
        return generator(seed=seed)
    if not (
        isinstance(scale, (int, float))
        and not isinstance(scale, bool)
        and math.isfinite(scale)
        and scale > 0
    ):
        raise DatasetError(f"scale must be a finite number above 0, got {scale!r}")
    return generator(scale=scale, seed=seed)
