"""The attribute-star (a-star) pattern type.

An a-star ``S = (Sc, SL)`` (paper, Section IV-A) consists of a *coreset*
``Sc`` of attribute values expected on a core vertex, and a *leafset*
``SL`` of values expected to appear on (any of) its direct neighbours.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Hashable, Iterable, List, Mapping, Tuple

from repro.graphs.attributed_graph import AttributedGraph

Value = Hashable


def _sorted_values(values: Iterable[Value]) -> Tuple[Value, ...]:
    """A set's values in canonical (``repr``) order."""
    return tuple(sorted(values, key=repr))


def _value_key(value: Value) -> Tuple:
    if isinstance(value, str):
        return (1, value)
    if isinstance(value, (int, float)):
        return (0, value)
    return (2, type(value).__name__, repr(value))


def tie_key(values: Iterable[Value]) -> Tuple[Tuple, ...]:
    """The tie order of a set, given its values in canonical order.

    Compares element-wise by (class, value): numbers (``int``,
    ``float``, ``bool``) before strings before any other type, which is
    ordered by (type name, ``repr``).  On number-only or string-only
    sets this is the order of the value tuples themselves; unlike that
    order it is total, so mixed int/str values compare too.  Ranking
    breaks code-length ties with it (:meth:`AStar.sort_key` and
    :func:`repro.core.mdl.rank_rows`).
    """
    return tuple(map(_value_key, values))


@dataclass(frozen=True)
class AStar:
    """An attribute-star with its MDL bookkeeping.

    Attributes
    ----------
    coreset / leafset:
        The core values ``Sc`` and leaf values ``SL``.
    frequency:
        ``fL`` — the number of core positions covered by this pattern in
        the final inverted database.
    coreset_frequency:
        ``fc`` — the total frequency of the coreset across the inverted
        database at termination.
    code_length:
        ``L(Code_c) + L(Code_L)`` in bits (Eq. 4).  Shorter codes mean
        more informative patterns; results are ranked ascending.
    """

    coreset: FrozenSet[Value]
    leafset: FrozenSet[Value]
    frequency: int = 0
    coreset_frequency: int = 0
    code_length: float = field(default=0.0, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "coreset", frozenset(self.coreset))
        object.__setattr__(self, "leafset", frozenset(self.leafset))

    @classmethod
    def _of_row(
        cls,
        coreset: FrozenSet[Value],
        leafset: FrozenSet[Value],
        frequency: int,
        coreset_frequency: int,
        code_length: float,
    ) -> "AStar":
        """An a-star of a database row, whose keys are frozensets
        already: the fields are set without ``__post_init__``."""
        star = cls.__new__(cls)
        set_ = object.__setattr__
        set_(star, "coreset", coreset)
        set_(star, "leafset", leafset)
        set_(star, "frequency", frequency)
        set_(star, "coreset_frequency", coreset_frequency)
        set_(star, "code_length", code_length)
        return star

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------

    def matches_at(self, graph: AttributedGraph, vertex) -> bool:
        """Whether this a-star matches the star rooted at ``vertex``.

        Following the paper's matching definition: every core value must
        appear on the core vertex, and every leaf value on at least one
        of its neighbours.
        """
        if not self.coreset <= graph.attributes_of(vertex):
            return False
        remaining = set(self.leafset)
        for neighbour in graph.neighbors(vertex):
            remaining -= graph.attributes_of(neighbour)
            if not remaining:
                return True
        return not remaining

    def occurrences(self, graph: AttributedGraph) -> FrozenSet:
        """All vertices whose star this a-star matches."""
        return frozenset(
            vertex for vertex in graph.vertices() if self.matches_at(graph, vertex)
        )

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable representation (sets as sorted lists)."""
        return astar_entries([self])[0]

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "AStar":
        """Rebuild an a-star from :meth:`to_dict` output."""
        return cls(
            coreset=frozenset(document["coreset"]),
            leafset=frozenset(document["leafset"]),
            frequency=document.get("frequency", 0),
            coreset_frequency=document.get("coreset_frequency", 0),
            code_length=document.get("code_length", 0.0),
        )

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------

    @property
    def confidence(self) -> float:
        """``fL / fc`` — the conditional usage ratio behind Eq. 6."""
        if self.coreset_frequency <= 0:
            return 0.0
        return self.frequency / self.coreset_frequency

    def __str__(self) -> str:
        core = "{" + ", ".join(map(str, _sorted_values(self.coreset))) + "}"
        leaf = "{" + ", ".join(map(str, _sorted_values(self.leafset))) + "}"
        return (
            f"({core} -> {leaf})  fL={self.frequency} fc={self.coreset_frequency} "
            f"L={self.code_length:.3f} bits"
        )

    def sort_key(self) -> Tuple:
        """Deterministic total ordering: code length, then the
        :func:`tie_key` of the coreset and of the leafset."""
        return (
            self.code_length,
            tie_key(_sorted_values(self.coreset)),
            tie_key(_sorted_values(self.leafset)),
        )


def astar_entries(astars: Iterable[AStar]) -> List[Dict[str, Any]]:
    """``[star.to_dict() for star in astars]``, one value list per set.

    Entries of a-stars that share a coreset or leafset share its value
    list, so a document of thousands of a-stars over a few hundred
    distinct sets sorts each set once.
    """
    listed: Dict[FrozenSet[Value], List[Value]] = {}
    entries = []
    for star in astars:
        coreset = listed.get(star.coreset)
        if coreset is None:
            coreset = listed[star.coreset] = list(_sorted_values(star.coreset))
        leafset = listed.get(star.leafset)
        if leafset is None:
            leafset = listed[star.leafset] = list(_sorted_values(star.leafset))
        entries.append(
            {
                "coreset": coreset,
                "leafset": leafset,
                "frequency": star.frequency,
                "coreset_frequency": star.coreset_frequency,
                "code_length": star.code_length,
            }
        )
    return entries
