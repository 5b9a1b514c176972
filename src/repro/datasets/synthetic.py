"""Generators for the six benchmark-dataset analogues and the sparse
community families the perf harnesses scale.

All generators share :func:`community_attributed_graph`: a planted-
partition topology (dense within communities, sparse across) where each
community draws attribute values from its own pool plus global noise.
This is the homophily structure that makes the paper's datasets
minable: attribute values of connected vertices are strongly
correlated within communities, which is exactly what a-stars capture.
"""

from __future__ import annotations

import random
from typing import Dict, List, Sequence, Set, Tuple

from repro.errors import DatasetError
from repro.graphs.attributed_graph import AttributedGraph


def community_attributed_graph(
    community_sizes: Sequence[int],
    community_pools: Sequence[Sequence[str]],
    values_per_vertex: Tuple[int, int] = (2, 4),
    intra_degree: float = 3.0,
    inter_degree: float = 0.5,
    global_values: Sequence[str] = (),
    global_rate: float = 0.05,
    seed: int = 0,
) -> AttributedGraph:
    """A planted-partition graph with community-correlated attributes.

    Parameters
    ----------
    community_sizes / community_pools:
        One entry per community: its vertex count and its attribute
        value pool.
    values_per_vertex:
        Inclusive (low, high) range of pool values drawn per vertex.
    intra_degree / inter_degree:
        Expected number of within- and across-community edges added
        per vertex.
    global_values / global_rate:
        Noise values sprinkled on any vertex with the given rate.
    """
    if len(community_sizes) != len(community_pools):
        raise DatasetError("one attribute pool per community is required")
    if any(size < 1 for size in community_sizes):
        raise DatasetError("community sizes must be positive")
    rng = random.Random(seed)
    memberships: List[int] = []
    for community, size in enumerate(community_sizes):
        memberships.extend([community] * size)
    num_vertices = len(memberships)
    by_community: Dict[int, List[int]] = {}
    for vertex, community in enumerate(memberships):
        by_community.setdefault(community, []).append(vertex)

    edges: Set[Tuple[int, int]] = set()

    def add_edge(u: int, v: int) -> None:
        if u != v:
            edges.add((min(u, v), max(u, v)))

    # Spanning chain per community keeps each community connected.
    for members in by_community.values():
        shuffled = members[:]
        rng.shuffle(shuffled)
        for i in range(1, len(shuffled)):
            add_edge(shuffled[i - 1], shuffled[i])
    # Random intra-community edges.
    for members in by_community.values():
        if len(members) < 2:
            continue
        target = int(intra_degree * len(members) / 2)
        for _ in range(target):
            add_edge(rng.choice(members), rng.choice(members))
    # Sparse inter-community edges (also connect communities in a ring).
    communities = sorted(by_community)
    for i, community in enumerate(communities):
        other = by_community[communities[(i + 1) % len(communities)]]
        if other is not by_community[community]:
            add_edge(rng.choice(by_community[community]), rng.choice(other))
    target = int(inter_degree * num_vertices / 2)
    for _ in range(target):
        u = rng.randrange(num_vertices)
        v = rng.randrange(num_vertices)
        if memberships[u] != memberships[v]:
            add_edge(u, v)

    attributes: Dict[int, Set[str]] = {}
    low, high = values_per_vertex
    for vertex, community in enumerate(memberships):
        pool = list(community_pools[community])
        take = min(rng.randint(low, high), len(pool))
        values = set(rng.sample(pool, take)) if take else set()
        for value in global_values:
            if rng.random() < global_rate:
                values.add(value)
        if not values and pool:
            values.add(rng.choice(pool))
        attributes[vertex] = values

    return AttributedGraph.from_edges(sorted(edges), attributes)


def _scaled(count: int, scale: float, minimum: int = 1) -> int:
    return max(minimum, int(round(count * scale)))


# ----------------------------------------------------------------------
# Citation networks (DBLP family, Cora, Citeseer)
# ----------------------------------------------------------------------

_RESEARCH_AREAS: Dict[str, List[str]] = {
    "data-mining": ["ICDM", "EDBT", "PODS", "KDD", "SDM", "DMKD", "PAKDD"],
    "databases": ["ICDE", "VLDB", "SIGMOD", "CIKM", "TODS"],
    "machine-learning": ["ICML", "NIPS", "AAAI", "IJCAI", "COLT"],
    "networks": ["INFOCOM", "SIGCOMM", "ICNP", "IMC"],
    "theory": ["STOC", "FOCS", "SODA", "ICALP"],
}


def dblp_like(scale: float = 1.0, seed: int = 0) -> AttributedGraph:
    """A co-authorship network with venue attributes (Table II: DBLP).

    Paper statistics: 2,723 nodes, 3,464 edges, |Sc^M| = 127 — a sparse
    graph whose attribute values are the venues a researcher published
    in, clustered by research area.
    """
    areas = list(_RESEARCH_AREAS.values())
    sizes = [_scaled(n, scale) for n in (700, 600, 600, 450, 373)]
    return community_attributed_graph(
        community_sizes=sizes,
        community_pools=areas,
        values_per_vertex=(1, 3),
        intra_degree=2.1,
        inter_degree=0.4,
        global_values=["CORR", "ARXIV"],
        global_rate=0.03,
        seed=seed,
    )


def dblp_trend_like(scale: float = 1.0, seed: int = 0) -> AttributedGraph:
    """DBLP with publication-trend attributes (Table II: DBLP-Trend).

    Every venue value is suffixed with a trend marker (+ increase,
    - decrease, = stable since the previous year), tripling the value
    universe like the paper's variant (|Sc^M| 127 -> 271).
    """
    trends = ["+", "-", "="]
    pools = [
        [f"{venue}{trend}" for venue in venues for trend in trends]
        for venues in _RESEARCH_AREAS.values()
    ]
    sizes = [_scaled(n, scale) for n in (700, 600, 600, 450, 373)]
    return community_attributed_graph(
        community_sizes=sizes,
        community_pools=pools,
        values_per_vertex=(1, 3),
        intra_degree=2.1,
        inter_degree=0.4,
        global_values=["CORR+", "CORR-"],
        global_rate=0.03,
        seed=seed,
    )


def _topic_vocabulary(topic: str, stems: Sequence[str], size: int) -> List[str]:
    """A ``size``-word vocabulary: real stems plus derived variants.

    The real datasets have hundreds of bag-of-words attribute values
    per topic; padding each topic's stem list with derived variants
    reproduces that vocabulary breadth (which is what makes the
    completion task of Table IV genuinely hard).
    """
    words = list(stems)
    suffixes = ["-model", "-method", "-based", "-analysis", "-task",
                "-graph", "-net", "-set", "-rate", "-rule"]
    index = 0
    while len(words) < size:
        stem = stems[index % len(stems)]
        suffix = suffixes[(index // len(stems)) % len(suffixes)]
        words.append(f"{stem}{suffix}")
        index += 1
    return words[:size]


_TOPIC_STEMS = {
    "neural": ["backprop", "perceptron", "gradient", "activation", "layers"],
    "genetic": ["mutation", "crossover", "fitness", "population", "selection"],
    "probabilistic": ["bayes", "prior", "posterior", "likelihood", "inference"],
    "reinforcement": ["reward", "policy", "qlearning", "agent", "environment"],
    "rules": ["induction", "decision", "tree", "pruning", "splitting"],
    "theory": ["bounds", "pac", "complexity", "sample", "dimension"],
    "case-based": ["retrieval", "similarity", "memory", "adaptation", "reuse"],
}

_TOPIC_WORDS = {
    topic: _topic_vocabulary(topic, stems, 40)
    for topic, stems in _TOPIC_STEMS.items()
}


def cora_like(scale: float = 1.0, seed: int = 0) -> AttributedGraph:
    """A Cora-style citation network with topic-keyword attributes.

    Seven topical communities; each paper carries 3-6 keywords drawn
    mostly from its topic's vocabulary — the categorical analogue of
    Cora's bag-of-words features used in Table IV.
    """
    pools = list(_TOPIC_WORDS.values())
    sizes = [_scaled(n, scale) for n in (420, 400, 380, 360, 340, 400, 408)]
    return community_attributed_graph(
        community_sizes=sizes,
        community_pools=pools,
        values_per_vertex=(4, 9),
        intra_degree=3.2,
        inter_degree=0.5,
        global_values=["dataset", "evaluation", "survey"],
        global_rate=0.08,
        seed=seed,
    )


def citeseer_like(scale: float = 1.0, seed: int = 0) -> AttributedGraph:
    """A Citeseer-style citation network (six sparser communities)."""
    topics = dict(list(_TOPIC_STEMS.items())[:6])
    pools = [
        _topic_vocabulary(topic, stems, 35) + [f"{topic}-app"]
        for topic, stems in topics.items()
    ]
    sizes = [_scaled(n, scale) for n in (560, 550, 540, 560, 550, 552)]
    return community_attributed_graph(
        community_sizes=sizes,
        community_pools=pools,
        values_per_vertex=(3, 7),
        intra_degree=2.2,
        inter_degree=0.35,
        global_values=["citation", "benchmark"],
        global_rate=0.06,
        seed=seed,
    )


# ----------------------------------------------------------------------
# USFlight
# ----------------------------------------------------------------------


def usflight_like(scale: float = 1.0, seed: int = 0) -> AttributedGraph:
    """A flight network with traffic-trend attributes (Table II).

    280 airports, 4,030 routes.  Attributes encode per-airport trends
    (NbDepart+/-, DelayArriv+/-, NbCancel+/-); hub airports losing
    departures push departures (and fewer delays) onto connected
    airports — the correlation behind the Section VI-B(2) example
    a-star ({NbDepart-}, {NbDepart+, DelayArriv-}).
    """
    rng = random.Random(seed)
    num_airports = _scaled(280, scale, minimum=10)
    num_routes = _scaled(4030, scale * scale if scale < 1 else scale, minimum=30)
    hubs = max(3, num_airports // 20)

    edges: Set[Tuple[int, int]] = set()
    # Hub-and-spoke backbone.
    for airport in range(hubs, num_airports):
        hub = rng.randrange(hubs)
        edges.add((hub, airport))
    for i in range(hubs):
        for j in range(i + 1, hubs):
            edges.add((i, j))
    while len(edges) < min(num_routes, num_airports * (num_airports - 1) // 2):
        u = rng.randrange(num_airports)
        v = rng.randrange(num_airports)
        if u != v:
            edges.add((min(u, v), max(u, v)))

    adjacency: Dict[int, Set[int]] = {v: set() for v in range(num_airports)}
    for u, v in edges:
        adjacency[u].add(v)
        adjacency[v].add(u)

    attributes: Dict[int, Set[str]] = {v: set() for v in range(num_airports)}
    # Plant the trend coupling: airports that lose departures are
    # neighboured by airports gaining departures with fewer delays.
    losing = set(rng.sample(range(num_airports), max(1, num_airports // 5)))
    for airport in losing:
        attributes[airport].add("NbDepart-")
        for neighbour in adjacency[airport]:
            if rng.random() < 0.75:
                attributes[neighbour].add("NbDepart+")
            if rng.random() < 0.6:
                attributes[neighbour].add("DelayArriv-")
    trend_values = [
        "NbDepart+", "NbDepart-", "DelayArriv+", "DelayArriv-",
        "NbCancel+", "NbCancel-", "NbArriv+", "NbArriv-",
    ]
    for airport in range(num_airports):
        for value in trend_values:
            if rng.random() < 0.07:
                attributes[airport].add(value)
        if not attributes[airport]:
            attributes[airport].add(rng.choice(trend_values))

    return AttributedGraph.from_edges(sorted(edges), attributes)


# ----------------------------------------------------------------------
# Pokec
# ----------------------------------------------------------------------

_MUSIC_TASTES: Dict[str, List[str]] = {
    "young": ["rap", "rock", "metal", "pop", "sladaky", "hiphop", "punk"],
    "older": ["disko", "oldies", "folk", "country", "dychovka"],
    "club": ["house", "techno", "trance", "dnb", "electro"],
    "alternative": ["indie", "ska", "reggae", "jazz", "blues"],
}


def pokec_like(scale: float = 0.001, seed: int = 0) -> AttributedGraph:
    """A Pokec-style social network with music-taste attributes.

    The real Pokec slice has 1.63M nodes and 30.6M edges — far beyond a
    laptop-friendly benchmark, so the default ``scale`` shrinks it to
    ~1.6k nodes while preserving the taste homophily (the Section
    VI-B(3) patterns: rap with rock/metal/pop/sladaky, disko with
    oldies).  Pass ``scale=1.0`` to generate the paper-sized graph.
    """
    sizes = [
        _scaled(n, scale * 1_632_803 / 1000, minimum=20)
        for n in (350, 250, 220, 180)
    ]
    pools = list(_MUSIC_TASTES.values())
    return community_attributed_graph(
        community_sizes=sizes,
        community_pools=pools,
        values_per_vertex=(2, 5),
        intra_degree=12.0,
        inter_degree=1.5,
        global_values=["slovak", "czech"],
        global_rate=0.1,
        seed=seed,
    )


# The sparse community family: disjoint 6-value pools, 25 vertices per
# community, light cross-community wiring.  Scaling the community count
# scales |SL| linearly and the full pair scan quadratically while the
# overlap neighbourhood per leafset stays constant.
SPARSE_POOL_SIZE = 6
SPARSE_COMMUNITY_SIZE = 25


def sparse_scaling_graph(num_communities: int, seed: int = 0) -> AttributedGraph:
    """The ``sparse-scaling`` family member with ``num_communities``."""
    pools = [
        [f"c{community}v{value}" for value in range(SPARSE_POOL_SIZE)]
        for community in range(num_communities)
    ]
    return community_attributed_graph(
        community_sizes=[SPARSE_COMMUNITY_SIZE] * num_communities,
        community_pools=pools,
        values_per_vertex=(2, 3),
        intra_degree=2.5,
        inter_degree=0.1,
        seed=seed,
    )


def pokec_sparse_graph(num_communities: int, seed: int = 0) -> AttributedGraph:
    """A ``pokec-sparse`` family member (same structure, paper scale).

    Cross-community wiring is kept lighter than ``sparse-scaling``'s so
    the workload stays dominated by within-community co-occurrence, the
    regime where sparse chunked masks pay off most clearly.
    """
    pools = [
        [f"c{community}v{value}" for value in range(SPARSE_POOL_SIZE)]
        for community in range(num_communities)
    ]
    return community_attributed_graph(
        community_sizes=[SPARSE_COMMUNITY_SIZE] * num_communities,
        community_pools=pools,
        values_per_vertex=(2, 3),
        intra_degree=2.5,
        inter_degree=0.05,
        seed=seed,
    )
