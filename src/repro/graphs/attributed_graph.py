"""The attributed graph data structure.

An attributed graph ``G = (A, lambda, V, E)`` (paper, Section III) is an
undirected graph without self-loops whose vertices are mapped to sets of
nominal attribute values by the function ``lambda``.  This module keeps
the representation deliberately simple and explicit: adjacency sets plus
a vertex -> frozenset-of-values mapping, which is exactly the "adjacency
list + mapping function" decomposition that CSPM consumes.
"""

from __future__ import annotations

from collections import Counter
from typing import (
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import GraphError

Vertex = Hashable
Value = Hashable


class AttributedGraph:
    """An undirected, self-loop-free graph with nominal vertex attributes.

    Vertices and attribute values may be any hashable objects (vertex
    ids are typically ints, values typically short strings such as
    ``"ICDM"`` or ``"rap"``).

    The class exposes both mutation (``add_vertex`` / ``add_edge`` /
    ``set_attributes``) and bulk construction (:meth:`from_edges`,
    :meth:`from_adjacency`, :meth:`from_networkx`).
    """

    def __init__(self) -> None:
        self._adjacency: Dict[Vertex, Set[Vertex]] = {}
        self._attributes: Dict[Vertex, FrozenSet[Value]] = {}
        self._num_edges = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Sequence[Vertex]],
        attributes: Optional[Mapping[Vertex, Iterable[Value]]] = None,
        vertices: Iterable[Vertex] = (),
    ) -> "AttributedGraph":
        """Build a graph from an edge list and a vertex->values mapping.

        The bulk-construction path (graph files load through it too):
        one validating pass fills the adjacency sets.  The vertex order
        is what ``add_vertex``/``add_edge`` calls in input order would
        give — ``vertices`` first, then each edge's endpoints at their
        first appearance; duplicate and reversed edges count once.
        Vertices mentioned only in ``attributes`` are added as isolated
        vertices after them; vertices without an entry there get an
        empty attribute set.

        Raises :class:`~repro.errors.GraphError` naming the entry for an
        unhashable id in ``vertices``, and naming the edge by its index
        for an edge that is not a two-item list or tuple, holds an
        unhashable id or is a self-loop.
        """
        graph = cls()
        graph._fill(vertices, edges)
        if attributes is not None:
            for vertex, values in attributes.items():
                if vertex not in graph._adjacency:
                    graph.add_vertex(vertex)
                graph.set_attributes(vertex, values)
        return graph

    @classmethod
    def from_adjacency(
        cls,
        adjacency: Mapping[Vertex, Iterable[Vertex]],
        attributes: Optional[Mapping[Vertex, Iterable[Value]]] = None,
    ) -> "AttributedGraph":
        """Build a graph from a vertex adjacency list (paper, Sec. III)."""
        graph = cls()
        for vertex, neighbours in adjacency.items():
            graph.add_vertex(vertex)
            for other in neighbours:
                graph.add_edge(vertex, other)
        if attributes is not None:
            for vertex, values in attributes.items():
                if vertex not in graph._adjacency:
                    graph.add_vertex(vertex)
                graph.set_attributes(vertex, values)
        return graph

    @classmethod
    def from_networkx(cls, nx_graph, attribute_key: str = "values") -> "AttributedGraph":
        """Convert a ``networkx`` graph whose nodes carry value iterables.

        Parameters
        ----------
        nx_graph:
            An undirected ``networkx.Graph``.
        attribute_key:
            Node-data key holding the iterable of attribute values.
        """
        graph = cls()
        for node, data in nx_graph.nodes(data=True):
            graph.add_vertex(node)
            graph.set_attributes(node, data.get(attribute_key, ()))
        for u, v in nx_graph.edges():
            if u != v:
                graph.add_edge(u, v)
        return graph

    def _fill(
        self, vertices: Iterable[Vertex], edges: Iterable[Sequence[Vertex]]
    ) -> None:
        """:meth:`from_edges`' pass over an empty graph: no per-edge
        method calls, and ``_attributes`` filled once at the end in the
        adjacency's key order (the order ``add_vertex`` keeps both in)."""
        adjacency = self._adjacency
        for index, vertex in enumerate(vertices):
            try:
                if vertex not in adjacency:
                    adjacency[vertex] = set()
            except TypeError:
                raise GraphError(
                    f"'vertices' entry {index} is not a hashable vertex id: "
                    f"{vertex!r}"
                ) from None
        near = adjacency.get
        num_edges = 0
        for index, edge in enumerate(edges):
            if (type(edge) is not list and type(edge) is not tuple) or len(edge) != 2:
                raise GraphError(f"edge {index} is not a [u, v] pair: {edge!r}")
            u, v = edge
            if u == v:
                raise GraphError(
                    f"edge {index} is a self-loop: self-loops are not allowed "
                    f"(vertex {u!r})"
                )
            try:
                near_u = near(u)
                near_v = near(v)
            except TypeError:
                raise GraphError(
                    f"edge {index} has an unhashable vertex id: {edge!r}"
                ) from None
            if near_u is None:
                near_u = adjacency[u] = set()
            if near_v is None:
                near_v = adjacency[v] = set()
            if v not in near_u:
                near_u.add(v)
                near_v.add(u)
                num_edges += 1
        self._attributes = dict.fromkeys(adjacency, frozenset())
        self._num_edges = num_edges

    def to_networkx(self, attribute_key: str = "values"):
        """Export to ``networkx.Graph`` with values stored per node."""
        import networkx as nx

        nx_graph = nx.Graph()
        for vertex in self._adjacency:
            nx_graph.add_node(vertex, **{attribute_key: set(self._attributes[vertex])})
        nx_graph.add_edges_from(self.edges())
        return nx_graph

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add_vertex(self, vertex: Vertex) -> None:
        """Add ``vertex`` with no neighbours and no attributes (idempotent)."""
        if vertex not in self._adjacency:
            self._adjacency[vertex] = set()
            self._attributes[vertex] = frozenset()

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Add the undirected edge ``{u, v}``, creating endpoints as needed.

        Raises
        ------
        GraphError
            If ``u == v`` (the paper's input graphs have no self-loops).
        """
        if u == v:
            raise GraphError(f"self-loops are not allowed (vertex {u!r})")
        self.add_vertex(u)
        self.add_vertex(v)
        if v not in self._adjacency[u]:
            self._adjacency[u].add(v)
            self._adjacency[v].add(u)
            self._num_edges += 1

    def set_attributes(self, vertex: Vertex, values: Iterable[Value]) -> None:
        """Replace the attribute value set of ``vertex``."""
        if vertex not in self._adjacency:
            raise GraphError(f"unknown vertex {vertex!r}")
        self._attributes[vertex] = frozenset(values)

    def add_attribute(self, vertex: Vertex, value: Value) -> None:
        """Add a single attribute value to ``vertex``."""
        if vertex not in self._adjacency:
            raise GraphError(f"unknown vertex {vertex!r}")
        self._attributes[vertex] = self._attributes[vertex] | {value}

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self._adjacency)

    @property
    def num_edges(self) -> int:
        return self._num_edges

    def __len__(self) -> int:
        return len(self._adjacency)

    def __contains__(self, vertex: Vertex) -> bool:
        return vertex in self._adjacency

    def __iter__(self) -> Iterator[Vertex]:
        return iter(self._adjacency)

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over all vertices."""
        return iter(self._adjacency)

    def edges(self) -> Iterator[Tuple[Vertex, Vertex]]:
        """Iterate over each undirected edge exactly once."""
        seen: Set[Vertex] = set()
        for u, neighbours in self._adjacency.items():
            for v in neighbours:
                if v not in seen:
                    yield (u, v)
            seen.add(u)

    def neighbors(self, vertex: Vertex) -> FrozenSet[Vertex]:
        """The set of vertices adjacent to ``vertex``."""
        try:
            return frozenset(self._adjacency[vertex])
        except KeyError:
            raise GraphError(f"unknown vertex {vertex!r}") from None

    def degree(self, vertex: Vertex) -> int:
        try:
            return len(self._adjacency[vertex])
        except KeyError:
            raise GraphError(f"unknown vertex {vertex!r}") from None

    def attributes_of(self, vertex: Vertex) -> FrozenSet[Value]:
        """The attribute value set ``lambda(vertex)``."""
        try:
            return self._attributes[vertex]
        except KeyError:
            raise GraphError(f"unknown vertex {vertex!r}") from None

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return u in self._adjacency and v in self._adjacency[u]

    def neighbor_values(self, vertex: Vertex) -> FrozenSet[Value]:
        """Union of attribute values over the neighbours of ``vertex``.

        This is exactly the leaf-value universe of the star rooted at
        ``vertex``.
        """
        values: Set[Value] = set()
        for other in self._adjacency[vertex]:
            values |= self._attributes[other]
        return frozenset(values)

    # ------------------------------------------------------------------
    # Aggregates used by the miner
    # ------------------------------------------------------------------

    def attribute_values(self) -> FrozenSet[Value]:
        """The universe ``A`` of attribute values present in the graph."""
        values: Set[Value] = set()
        for vertex_values in self._attributes.values():
            values |= vertex_values
        return frozenset(values)

    def value_positions(self) -> Dict[Value, FrozenSet[Vertex]]:
        """The *mapping table* (Fig. 2a): value -> vertices carrying it."""
        positions: Dict[Value, Set[Vertex]] = {}
        for vertex, values in self._attributes.items():
            for value in values:
                positions.setdefault(value, set()).add(vertex)
        return {value: frozenset(verts) for value, verts in positions.items()}

    def value_frequencies(self) -> Counter:
        """Occurrence count of each value over vertices (Eq. 5 input)."""
        counts: Counter = Counter()
        for values in self._attributes.values():
            counts.update(values)
        return counts

    def total_value_occurrences(self) -> int:
        """Total number of (vertex, value) pairs in the mapping function."""
        return sum(len(values) for values in self._attributes.values())

    def is_connected(self) -> bool:
        """Whether the graph is connected (ignoring an empty graph)."""
        if not self._adjacency:
            return True
        start = next(iter(self._adjacency))
        seen = {start}
        stack = [start]
        while stack:
            current = stack.pop()
            for other in self._adjacency[current]:
                if other not in seen:
                    seen.add(other)
                    stack.append(other)
        return len(seen) == len(self._adjacency)

    def subgraph(self, vertices: Iterable[Vertex]) -> "AttributedGraph":
        """The induced subgraph on ``vertices`` (attributes preserved)."""
        keep = set(vertices)
        unknown = keep - set(self._adjacency)
        if unknown:
            raise GraphError(f"unknown vertices {sorted(map(repr, unknown))}")
        graph = AttributedGraph()
        for vertex in keep:
            graph.add_vertex(vertex)
            graph.set_attributes(vertex, self._attributes[vertex])
        for u in keep:
            for v in self._adjacency[u] & keep:
                if u != v:
                    graph.add_edge(u, v)
        return graph

    def copy(self) -> "AttributedGraph":
        """A deep-enough copy (attribute sets are immutable and shared)."""
        graph = AttributedGraph()
        graph._adjacency = {v: set(ns) for v, ns in self._adjacency.items()}
        graph._attributes = dict(self._attributes)
        graph._num_edges = self._num_edges
        return graph

    def __repr__(self) -> str:
        return (
            f"AttributedGraph(|V|={self.num_vertices}, |E|={self.num_edges}, "
            f"|A|={len(self.attribute_values())})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AttributedGraph):
            return NotImplemented
        return (
            self._adjacency == other._adjacency
            and self._attributes == other._attributes
        )
