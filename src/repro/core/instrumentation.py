"""Run instrumentation: per-iteration traces behind Fig. 5.

Both search variants record one :class:`IterationTrace` per merge.
The *gain update ratio* of an iteration is the number of gain values
computed (added or refreshed) divided by the number of possible leafset
pairs at that point — exactly the quantity plotted in the paper's
Fig. 5.

On top of the serialised trace, :class:`RunTrace` carries process-local
perf counters (``peak_queue_size``, ``refreshes_skipped``,
``dirty_revalidations``) and the incremental DL component sums read by
the perf harness (``repro.perf.suite``) and the pipeline.  They are
deliberately *not* part of the serialised schema: the ``mine --json``
golden file pins schema v1 byte-for-byte, and the counters describe the
run's machinery, not its mined output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Hashable, List, Mapping, Optional, Tuple

from repro.errors import MiningError


#: The types a decoded count or number takes, checked by exact type
#: (:func:`check_field_types`), so a JSON ``true`` is neither.
COUNT = (int,)
NUMBER = (int, float)
_ITERATION_FIELDS = {
    "iteration": COUNT,
    "gains_computed": COUNT,
    "possible_pairs": COUNT,
    "num_leafsets": COUNT,
    "gain": NUMBER,
    "total_dl_bits": NUMBER,
}
_RUN_FIELDS = {
    "algorithm": (str,),
    "initial_dl_bits": NUMBER,
    "final_dl_bits": NUMBER,
    "initial_candidate_gains": COUNT,
}


def check_field_types(document: Mapping[str, Any], fields, path: str) -> None:
    """Raise a :class:`MiningError` naming ``path.key`` for the first
    field of ``document`` whose type is not one of ``fields[key]``."""
    for key, kinds in fields.items():
        if key in document and type(document[key]) not in kinds:
            names = " or ".join(kind.__name__ for kind in kinds)
            raise MiningError(
                f"{path}.{key} must be {names}, got {document[key]!r}"
            )


def merged_pair_record(
    leaf_x: FrozenSet[Hashable], leaf_y: FrozenSet[Hashable]
) -> Tuple[Tuple, Tuple]:
    """The serialisable ``merged_pair`` entry for a trace iteration.

    Each leafset becomes a sorted tuple of value reprs and the pair is
    itself repr-sorted, so the recorded orientation is stable across
    processes and independent of the in-memory (interned-id) pair
    order — exactly the representation the golden file pins.
    """
    key_x = tuple(sorted(map(repr, leaf_x)))
    key_y = tuple(sorted(map(repr, leaf_y)))
    return (key_x, key_y) if key_x <= key_y else (key_y, key_x)


@dataclass(frozen=True)
class IterationTrace:
    """What one search iteration did."""

    iteration: int
    gains_computed: int
    possible_pairs: int
    num_leafsets: int
    merged_pair: Optional[Tuple[Tuple, Tuple]]
    gain: float
    total_dl_bits: float

    @property
    def update_ratio(self) -> float:
        """Fraction of possible pair gains touched this iteration."""
        if self.possible_pairs <= 0:
            return 0.0
        return min(1.0, self.gains_computed / self.possible_pairs)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable representation (tuples become lists)."""
        merged = self.merged_pair
        return {
            "iteration": self.iteration,
            "gains_computed": self.gains_computed,
            "possible_pairs": self.possible_pairs,
            "num_leafsets": self.num_leafsets,
            "merged_pair": None if merged is None else [list(merged[0]), list(merged[1])],
            "gain": self.gain,
            "total_dl_bits": self.total_dl_bits,
        }

    @classmethod
    def from_dict(
        cls, document: Mapping[str, Any], path: str = "iteration"
    ) -> "IterationTrace":
        """Rebuild an iteration trace from :meth:`to_dict` output.

        A document that is not an object, a wrongly typed field (counts
        are ints, ``gain`` and ``total_dl_bits`` numbers, never bools) or
        a ``merged_pair`` that is neither null nor a pair of arrays
        raises :class:`~repro.errors.MiningError` naming ``path``.
        """
        if not isinstance(document, Mapping):
            raise MiningError(
                f"{path} must be an object, got {type(document).__name__}"
            )
        check_field_types(document, _ITERATION_FIELDS, path)
        merged = document.get("merged_pair")
        if merged is not None and not (
            type(merged) is list
            and len(merged) == 2
            and all(type(side) is list for side in merged)
        ):
            raise MiningError(
                f"{path}.merged_pair must be null or a pair of arrays, "
                f"got {merged!r}"
            )
        return cls(
            iteration=document["iteration"],
            gains_computed=document["gains_computed"],
            possible_pairs=document["possible_pairs"],
            num_leafsets=document["num_leafsets"],
            merged_pair=None
            if merged is None
            else (tuple(merged[0]), tuple(merged[1])),
            gain=document["gain"],
            total_dl_bits=document["total_dl_bits"],
        )


@dataclass
class RunTrace:
    """The full trace of one CSPM run."""

    algorithm: str
    initial_dl_bits: float = 0.0
    final_dl_bits: float = 0.0
    initial_candidate_gains: int = 0
    iterations: List[IterationTrace] = field(default_factory=list)
    # Process-local perf counters (not serialised; see module docstring).
    peak_queue_size: int = 0
    # Lazy-refresh counters (zero for every other update scope):
    # ``refreshes_skipped`` counts gain evaluations avoided — clean
    # queue-head pops merged from their stored breakdown plus post-merge
    # refreshes proven unnecessary by the union-mask tests;
    # ``dirty_revalidations`` counts queue-head pops that had to
    # recompute because a common coreset was merged since validation.
    refreshes_skipped: int = 0
    dirty_revalidations: int = 0
    # Incremental DL component sums (bits saved per component over all
    # accepted merges), from which the pipeline derives the final
    # description length without a full recompute pass.
    data_leaf_gain_bits: float = 0.0
    model_gain_bits: float = 0.0
    data_core_gain_bits: float = 0.0

    def record_merge_components(self, breakdown) -> None:
        """Accumulate a merged pair's :class:`~repro.core.gain.GainBreakdown`."""
        self.data_leaf_gain_bits += breakdown.data_leaf_gain
        self.model_gain_bits += breakdown.model_gain
        self.data_core_gain_bits += breakdown.data_core_gain

    @property
    def num_iterations(self) -> int:
        return len(self.iterations)

    @property
    def total_gain_computations(self) -> int:
        return self.initial_candidate_gains + sum(
            trace.gains_computed for trace in self.iterations
        )

    def update_ratios(self) -> List[float]:
        """Per-iteration update ratios — the Fig. 5 series."""
        return [trace.update_ratio for trace in self.iterations]

    @property
    def compression_ratio(self) -> float:
        """Final / initial total DL (< 1 when compression succeeded)."""
        if self.initial_dl_bits <= 0:
            return 1.0
        return self.final_dl_bits / self.initial_dl_bits

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable representation of the full trace."""
        return {
            "algorithm": self.algorithm,
            "initial_dl_bits": self.initial_dl_bits,
            "final_dl_bits": self.final_dl_bits,
            "initial_candidate_gains": self.initial_candidate_gains,
            "iterations": [trace.to_dict() for trace in self.iterations],
        }

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "RunTrace":
        """Rebuild a run trace from :meth:`to_dict` output.

        ``iterations`` must be an array of iteration objects; a
        malformed one, or a wrongly typed field, raises
        :class:`~repro.errors.MiningError` naming its path in the result
        document, e.g. ``trace.iterations[0].gains_computed``.
        """
        if not isinstance(document, Mapping):
            raise MiningError(
                f"trace must be an object, got {type(document).__name__}"
            )
        check_field_types(document, _RUN_FIELDS, "trace")
        iterations = document.get("iterations", [])
        if type(iterations) is not list:
            raise MiningError(
                f"trace.iterations must be an array, "
                f"got {type(iterations).__name__}"
            )
        return cls(
            algorithm=document["algorithm"],
            initial_dl_bits=document.get("initial_dl_bits", 0.0),
            final_dl_bits=document.get("final_dl_bits", 0.0),
            initial_candidate_gains=document.get("initial_candidate_gains", 0),
            iterations=[
                IterationTrace.from_dict(entry, f"trace.iterations[{index}]")
                for index, entry in enumerate(iterations)
            ],
        )
