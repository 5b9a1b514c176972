"""Code tables: the standard code table ST and the coreset table CTc.

Following Krimp's framework (paper, Section III and IV-C):

* the **standard code table** ``ST`` assigns every attribute value an
  optimal Shannon code from its global frequency in the mapping
  function, ``L(v) = -log2 P(v)`` (Eq. 5).  ST prices the *content* of
  patterns stored in the model;
* the **coreset code table** ``CTc`` assigns each coreset a code from
  its usage.  For singleton coresets CTc coincides with ST (paper,
  Section IV-C); a multi-value coreset encoder supplies its own usages.

The leafset table ``CTL`` is not materialised separately: its rows are
exactly the live rows of the inverted database and their conditional
code lengths ``-log2(fL / fc)`` (Eq. 6) are derived on demand by
:mod:`repro.core.mdl`.
"""

from __future__ import annotations

import math
from typing import Any, Dict, FrozenSet, Hashable, Iterable, Mapping, Optional

from repro.errors import EncodingError
from repro.graphs.attributed_graph import AttributedGraph

Value = Hashable
CoreKey = FrozenSet[Value]


def _repr_index(lengths: Mapping[Value, float]) -> Dict[Value, str]:
    """``repr`` of every value of a code table: :meth:`set_cost`'s sort key."""
    return {value: repr(value) for value in lengths}


class StandardCodeTable:
    """Optimal per-value Shannon codes from global value frequencies."""

    def __init__(self, frequencies: Mapping[Value, int]) -> None:
        self._lengths: Dict[Value, float] = {}
        # Integer sum: exact in any order.
        total = sum(frequencies.values())  # repro: noqa[DET001]
        if total <= 0:
            raise EncodingError("cannot build a code table from empty data")
        for value, count in frequencies.items():
            if count <= 0:
                raise EncodingError(f"non-positive frequency for {value!r}")
            self._lengths[value] = -math.log2(count / total)
        self._total = total
        self._reprs = _repr_index(self._lengths)

    @classmethod
    def from_graph(
        cls,
        graph: AttributedGraph,
        frequencies: Optional[Mapping[Value, int]] = None,
    ) -> "StandardCodeTable":
        """ST over the graph's vertex->value mapping function.

        ``frequencies`` are the graph's value frequencies when the
        caller has counted them already (the encode stage takes them
        from ``value_positions``); otherwise they are counted here.
        """
        if frequencies is None:
            frequencies = graph.value_frequencies()
        if not frequencies:
            raise EncodingError("graph has no attribute values")
        return cls(frequencies)

    @property
    def total_occurrences(self) -> int:
        return self._total

    def __contains__(self, value: Value) -> bool:
        return value in self._lengths

    def __len__(self) -> int:
        return len(self._lengths)

    def code_length(self, value: Value) -> float:
        """``L(v) = -log2 P(v)`` in bits (Eq. 5)."""
        try:
            return self._lengths[value]
        except KeyError:
            raise EncodingError(f"value {value!r} is not in the code table") from None

    def set_cost(self, values: Iterable[Value]) -> float:
        """Cost in bits of materialising ``values`` in a code table.

        Terms are summed in ``sorted(values, key=repr)`` order: float
        addition is order-sensitive and set iteration order varies with
        the hash seed, so this keeps every derived description length
        (including the incremental gain bookkeeping) identical across
        processes.  The reprs are computed once per table value, not
        per call.
        """
        try:
            ordered = sorted(values, key=self._reprs.__getitem__)
        except KeyError as missing:
            raise EncodingError(
                f"value {missing.args[0]!r} is not in the code table"
            ) from None
        lengths = self._lengths
        return sum([lengths[value] for value in ordered])

    def lengths(self) -> Dict[Value, float]:
        """A copy of the value -> code length mapping."""
        return dict(self._lengths)

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable representation.

        Code lengths are stored as ``[value, bits]`` pairs (sorted by
        value repr for determinism) because JSON object keys must be
        strings while attribute values may be e.g. ints.
        """
        return {
            "total_occurrences": self._total,
            "lengths": [
                [value, bits]
                for value, bits in sorted(
                    self._lengths.items(), key=lambda item: repr(item[0])
                )
            ],
        }

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "StandardCodeTable":
        """Rebuild a table from :meth:`to_dict` output, bit-exactly."""
        table = cls.__new__(cls)
        table._lengths = {value: bits for value, bits in document["lengths"]}
        table._total = document["total_occurrences"]
        table._reprs = _repr_index(table._lengths)
        return table


class CoreCodeTable:
    """Coreset codes ``Code_c`` from coreset usage (Eq. 5 applied to Sc).

    ``usage`` counts how often each coreset occurs in the graph: for a
    singleton coreset this is the mapping-table frequency of its value;
    for multi-value coresets it is the cover usage reported by the
    itemset encoder (Section IV-F, step 1).
    """

    def __init__(self, usage: Mapping[CoreKey, int]) -> None:
        if not usage:
            raise EncodingError("coreset usage must be non-empty")
        self._usage: Dict[CoreKey, int] = {}
        total = 0
        # Integer accumulation: exact in any order.
        for coreset, count in usage.items():  # repro: noqa[DET001]
            if count <= 0:
                raise EncodingError(f"non-positive usage for coreset {set(coreset)}")
            key = frozenset(coreset)
            self._usage[key] = self._usage.get(key, 0) + count
            total += count
        self._total = total
        self._lengths = {
            coreset: -math.log2(count / total)
            for coreset, count in self._usage.items()
        }

    @classmethod
    def singletons_from_graph(
        cls,
        graph: AttributedGraph,
        frequencies: Optional[Mapping[Value, int]] = None,
    ) -> "CoreCodeTable":
        """The singleton-coreset table: CTc == ST (paper, Section IV-C).

        ``frequencies`` as for :meth:`StandardCodeTable.from_graph`.
        """
        if frequencies is None:
            frequencies = graph.value_frequencies()
        return cls(
            {frozenset([value]): count for value, count in frequencies.items()}
        )

    @property
    def total_usage(self) -> int:
        return self._total

    def __contains__(self, coreset: CoreKey) -> bool:
        return frozenset(coreset) in self._lengths

    def __len__(self) -> int:
        return len(self._lengths)

    def coresets(self) -> Iterable[CoreKey]:
        return self._lengths.keys()

    def usage(self, coreset: CoreKey) -> int:
        try:
            return self._usage[frozenset(coreset)]
        except KeyError:
            raise EncodingError(f"unknown coreset {set(coreset)}") from None

    def code_length(self, coreset: CoreKey) -> float:
        """``L(Code_c(Sc))`` in bits."""
        try:
            return self._lengths[frozenset(coreset)]
        except KeyError:
            raise EncodingError(f"unknown coreset {set(coreset)}") from None

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable representation.

        Usages are stored as ``[sorted_values, count]`` pairs; code
        lengths are recomputed exactly on :meth:`from_dict` since they
        are a pure function of the usage counts.
        """
        entries = sorted(
            self._usage.items(),
            key=lambda item: sorted(map(repr, item[0])),
        )
        return {
            "usage": [
                [sorted(coreset, key=repr), count] for coreset, count in entries
            ]
        }

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "CoreCodeTable":
        """Rebuild a table from :meth:`to_dict` output."""
        return cls(
            {frozenset(values): count for values, count in document["usage"]}
        )
