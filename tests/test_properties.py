"""Property-based tests (hypothesis) of the core invariants.

Random attributed graphs are generated from a compact strategy, and
the DESIGN.md invariants are checked on them: cover uniqueness and
losslessness of the inverted database through arbitrary merge
sequences, DL monotonicity, Eq. 7/8 identity, and Partial's
equivalence with CSPM-Basic, the naive Algorithm 1-2 oracle.
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import naive_search, outcome, pair_gain

from repro.core.candidates import leafset_sort_key
from repro.core.code_table import CoreCodeTable, StandardCodeTable
from repro.core.cspm_partial import run_partial
from repro.core.inverted_db import InvertedDatabase
from repro.core.mdl import (
    conditional_entropy,
    data_leaf_bits,
    description_length,
)
from repro.core.miner import CSPM
from repro.graphs.attributed_graph import AttributedGraph

VALUES = ["a", "b", "c", "d", "e"]


@st.composite
def attributed_graphs(draw, max_vertices=10):
    """Small connected-ish attributed graphs with 1-3 values/vertex."""
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    graph = AttributedGraph()
    for vertex in range(n):
        graph.add_vertex(vertex)
        size = draw(st.integers(min_value=1, max_value=3))
        values = draw(
            st.sets(st.sampled_from(VALUES), min_size=size, max_size=size)
        )
        graph.set_attributes(vertex, values)
    # A spanning chain plus random extra edges.
    for vertex in range(1, n):
        graph.add_edge(vertex - 1, vertex)
    extra = draw(st.integers(min_value=0, max_value=n))
    for _ in range(extra):
        u = draw(st.integers(min_value=0, max_value=n - 1))
        v = draw(st.integers(min_value=0, max_value=n - 1))
        if u != v:
            graph.add_edge(u, v)
    return graph


common = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@given(graph=attributed_graphs())
@common
def test_initial_database_is_lossless(graph):
    db = InvertedDatabase.from_graph(graph)
    db.validate(graph)


@given(graph=attributed_graphs(), data=st.data())
@common
def test_merges_preserve_losslessness(graph, data):
    """Any sequence of (even non-improving) merges keeps the cover a
    lossless partition of the neighbourhood relation."""
    db = InvertedDatabase.from_graph(graph)
    for _ in range(3):
        leafsets = sorted(db.leafsets(), key=leafset_sort_key)
        if len(leafsets) < 2:
            break
        i = data.draw(st.integers(min_value=0, max_value=len(leafsets) - 1))
        j = data.draw(st.integers(min_value=0, max_value=len(leafsets) - 1))
        if i == j:
            continue
        db.merge(leafsets[i], leafsets[j])
        db.validate(graph)


@given(graph=attributed_graphs())
@common
def test_entropy_identity_holds(graph):
    """Eq. 8: L(I|M) == s * H(Y|X) on arbitrary databases."""
    db = InvertedDatabase.from_graph(graph)
    s = db.total_frequency()
    assert math.isclose(
        data_leaf_bits(db), s * conditional_entropy(db), rel_tol=1e-9, abs_tol=1e-9
    )


@given(graph=attributed_graphs(), data=st.data())
@common
def test_gain_matches_reference_dl_delta(graph, data):
    """Eq. 9-15 incremental gain == from-scratch DL difference."""
    standard = StandardCodeTable.from_graph(graph)
    core = CoreCodeTable.singletons_from_graph(graph)
    db = InvertedDatabase.from_graph(graph)
    leafsets = sorted(db.leafsets(), key=leafset_sort_key)
    if len(leafsets) < 2:
        return
    i = data.draw(st.integers(min_value=0, max_value=len(leafsets) - 2))
    j = data.draw(st.integers(min_value=i + 1, max_value=len(leafsets) - 1))
    breakdown = pair_gain(db, leafsets[i], leafsets[j], standard, core)
    before = description_length(db, standard, core)
    db.merge(leafsets[i], leafsets[j])
    after = description_length(db, standard, core)
    assert math.isclose(
        breakdown.total,
        before.total_bits - after.total_bits,
        rel_tol=1e-9,
        abs_tol=1e-9,
    )


@given(graph=attributed_graphs())
@common
def test_search_dl_monotone_and_consistent(graph):
    """Every accepted merge lowers the DL; the tracked DL matches a
    final from-scratch recomputation."""
    standard = StandardCodeTable.from_graph(graph)
    core = CoreCodeTable.singletons_from_graph(graph)
    db = InvertedDatabase.from_graph(graph)
    trace = run_partial(db, standard, core)
    dls = [trace.initial_dl_bits] + [t.total_dl_bits for t in trace.iterations]
    assert all(b < a + 1e-9 for a, b in zip(dls, dls[1:]))
    reference = description_length(db, standard, core).total_bits
    assert math.isclose(trace.final_dl_bits, reference, rel_tol=1e-9, abs_tol=1e-6)
    db.validate(graph)


@given(graph=attributed_graphs(max_vertices=8))
@common
def test_basic_equals_partial(graph):
    """The partial search reproduces Basic, the naive oracle, exactly."""
    standard = StandardCodeTable.from_graph(graph)
    core = CoreCodeTable.singletons_from_graph(graph)
    db_oracle = InvertedDatabase.from_graph(graph)
    expected = outcome(naive_search(db_oracle, standard, core), db_oracle)
    db_partial = InvertedDatabase.from_graph(graph)
    trace_partial = run_partial(db_partial, standard, core)
    assert outcome(trace_partial, db_partial) == expected


@given(graph=attributed_graphs(max_vertices=8))
@common
def test_mined_astars_have_valid_codes(graph):
    result = CSPM().fit(graph)
    for star in result.astars:
        assert star.code_length >= 0.0
        assert 0 < star.frequency <= star.coreset_frequency
        # Matching semantics: the pattern occurs at least as often as
        # it is used in the cover.
        assert star.frequency <= len(star.occurrences(graph))
