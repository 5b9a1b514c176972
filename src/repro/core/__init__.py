"""CSPM core: inverted database, MDL accounting, and the two search
procedures (CSPM-Basic, Algorithm 1-2; CSPM-Partial, Algorithm 3-4).

The public entry point is :class:`repro.core.miner.CSPM`; the other
modules expose the machinery for tests, ablations and instrumentation.
"""

from repro.core.astar import AStar
from repro.core.candidates import LeafsetInterner
from repro.core.code_table import CoreCodeTable, StandardCodeTable
from repro.core.inverted_db import InvertedDatabase, MergeOutcome
from repro.core.masks import MaskBackend, get_backend, resolve_backend
from repro.core.mdl import (
    DescriptionLength,
    conditional_entropy,
    description_length,
)
from repro.core.miner import CSPM, CSPMResult
from repro.core.pairgen import overlap_pairs
from repro.core.scoring import AStarScorer

__all__ = [
    "AStar",
    "AStarScorer",
    "CSPM",
    "CSPMResult",
    "CoreCodeTable",
    "DescriptionLength",
    "InvertedDatabase",
    "LeafsetInterner",
    "MaskBackend",
    "MergeOutcome",
    "StandardCodeTable",
    "conditional_entropy",
    "description_length",
    "get_backend",
    "overlap_pairs",
    "resolve_backend",
]
