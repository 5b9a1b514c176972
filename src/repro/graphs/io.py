"""Serialisation of attributed graphs.

Two formats are supported:

* JSON — explicit ``{"edges": [...], "attributes": {...}}`` documents,
  round-trip safe for string/int vertex ids and string values, loaded
  through :meth:`AttributedGraph.from_edges`' one validating pass.
* An adjacency text format — one ``vertex | neighbours | values`` line
  per vertex, convenient for eyeballing small graphs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.core.collector import paused_collector
from repro.errors import GraphError
from repro.graphs.attributed_graph import AttributedGraph

PathLike = Union[str, Path]


def to_json_dict(graph: AttributedGraph) -> dict:
    """A JSON-serialisable dict representation of ``graph``."""
    return {
        "vertices": sorted(graph.vertices(), key=repr),
        "edges": sorted(
            ([min(u, v, key=repr), max(u, v, key=repr)] for u, v in graph.edges()),
            key=repr,
        ),
        "attributes": {
            str(vertex): sorted(graph.attributes_of(vertex), key=repr)
            for vertex in graph.vertices()
        },
    }


def from_json_dict(document: dict, int_vertices: bool = True) -> AttributedGraph:
    """Rebuild a graph from :func:`to_json_dict` output.

    JSON object keys are strings; a key of the ``attributes`` mapping
    names the vertex it spells when that vertex already exists (listed
    in ``vertices`` or used by an edge).  Otherwise, when
    ``int_vertices`` is true, the key is parsed back to an int when
    possible.

    ``vertices`` and ``edges`` go through
    :meth:`AttributedGraph.from_edges` in one validating pass (no
    per-edge method calls), so the vertex order is ``vertices`` first,
    then edge endpoints at their first appearance, then attribute keys
    naming new vertices.

    Raises :class:`~repro.errors.GraphError` naming the bad field for
    a document that is not an object, a ``vertices``/``edges`` that is
    not an array, an ``attributes`` that is not an object, an
    unhashable id in ``vertices``, an edge (by its index) that is not a
    ``[u, v]`` pair of vertex ids or is a self-loop, or an attribute
    entry that is not an array of values.  Each check is O(1) per
    entry.
    """

    def parse(key: str):
        if int_vertices and key not in graph:
            try:
                return int(key)
            except (TypeError, ValueError):
                return key
        return key

    if type(document) is not dict:
        raise GraphError(
            "a graph document must be a JSON object, "
            f"got {type(document).__name__}"
        )
    vertices = document.get("vertices", [])
    edges = document.get("edges", [])
    attributes = document.get("attributes", {})
    for name, value, kind, noun in (
        ("vertices", vertices, list, "an array"),
        ("edges", edges, list, "an array"),
        ("attributes", attributes, dict, "an object"),
    ):
        if type(value) is not kind:
            raise GraphError(
                f"{name!r} must be {noun}, got {type(value).__name__}"
            )
    graph = AttributedGraph.from_edges(edges, vertices=vertices)
    for key, values in attributes.items():
        if type(values) is not list:
            raise GraphError(
                f"attributes of vertex {key!r} must be an array of values, "
                f"got {type(values).__name__}"
            )
        vertex = parse(key)
        if vertex not in graph:
            graph.add_vertex(vertex)
        try:
            graph.set_attributes(vertex, values)
        except TypeError:
            raise GraphError(
                f"attributes of vertex {key!r} hold an unhashable value"
            ) from None
    return graph


def save_json(graph: AttributedGraph, path: PathLike) -> None:
    """Write ``graph`` to ``path`` as a JSON document.

    A file that cannot be written raises
    :class:`~repro.errors.GraphError` naming it.
    """
    text = json.dumps(to_json_dict(graph), indent=2)
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise GraphError(f"cannot save graph to {path}: {exc}") from exc


def load_json(path: PathLike, int_vertices: bool = True) -> AttributedGraph:
    """Load a graph previously written by :func:`save_json`.

    The file is read as UTF-8 whatever the locale; a file that cannot
    be read or decoded raises :class:`~repro.errors.GraphError` naming
    it.  Loading makes no cyclic garbage, so it runs with the collector
    paused, like a mining run.
    """
    with paused_collector():
        try:
            document = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise GraphError(f"cannot load graph from {path}: {exc}") from exc
        return from_json_dict(document, int_vertices=int_vertices)


def to_adjacency_text(graph: AttributedGraph) -> str:
    """Human-readable ``vertex | neighbours | values`` listing."""
    lines = []
    for vertex in sorted(graph.vertices(), key=repr):
        neighbours = ",".join(str(n) for n in sorted(graph.neighbors(vertex), key=repr))
        values = ",".join(str(v) for v in sorted(graph.attributes_of(vertex), key=repr))
        lines.append(f"{vertex} | {neighbours} | {values}")
    return "\n".join(lines)
