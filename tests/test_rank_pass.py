"""The canonical row pass behind rank, final DL and serialisation.

``repro.core.mdl.rank_rows`` walks the live rows once, in the order
``canonical_order`` builds from per-set keys, and yields the ranked
a-stars together with the final description length.  These tests pin
it to the references it replaced:

* the order equals the per-row-key global sort (``oracles.sorted_rows``);
* ``final_dl`` equals ``description_length`` summed over that order,
  and every a-star's code length equals ``astar_code_length``, with
  ``==``;
* the ranking equals a sort by :meth:`AStar.sort_key`, whose tie key
  is total over mixed int/str values and equals the old value-tuple
  order wherever that order was defined;
* the serialised a-star entries equal the per-a-star ``to_dict``.
"""

import random

import pytest
from oracles import sorted_rows

from repro import CSPM, CSPMConfig
from repro.core.astar import AStar, tie_key
from repro.core.mdl import (
    astar_code_length,
    canonical_rows,
    description_length,
)
from repro.graphs.attributed_graph import AttributedGraph

STRINGS = ["a", "a b", "b", "c", "10", "9", "q", "z"]
INTEGERS = [-3, 0, 7, 9, 10, 100, 11]
MIXED = [7, 10, -3, 2.5, "q", "z", "a b", "a", "7"]


def random_value_graph(seed, pool, num_vertices=36, num_edges=80):
    """A random graph whose vertices carry 1-3 values drawn from ``pool``."""
    rng = random.Random(seed)
    edges = set()
    while len(edges) < num_edges:
        u, v = rng.sample(range(num_vertices), 2)
        edges.add((min(u, v), max(u, v)))
    attributes = {
        vertex: rng.sample(pool, rng.randint(1, 3))
        for vertex in range(num_vertices)
    }
    return AttributedGraph.from_edges(sorted(edges), attributes)


CASES = [
    pytest.param(MIXED, CSPMConfig(), id="mixed"),
    pytest.param(STRINGS, CSPMConfig(coreset_encoder="slim"), id="slim"),
    pytest.param(MIXED, CSPMConfig(coreset_encoder="slim"), id="mixed-slim"),
    pytest.param(STRINGS, CSPMConfig(top_k=7, min_leafset=2), id="filters"),
    pytest.param(INTEGERS, CSPMConfig(method="basic"), id="basic"),
]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("pool, config", CASES)
class TestRankPassMatchesReferences:
    @pytest.fixture()
    def result(self, pool, config, seed):
        return CSPM(config=config).fit(random_value_graph(seed, pool))

    def test_canonical_order_is_the_global_row_sort(self, result):
        db = result.inverted_db
        assert canonical_rows(db) == sorted_rows(db)

    def test_final_dl_equals_reference_over_oracle_order(self, result):
        db = result.inverted_db
        assert result.final_dl == description_length(
            db, result.standard_table, result.core_table, rows=sorted_rows(db)
        )

    def test_code_lengths_equal_reference(self, result):
        db = result.inverted_db
        for star in result.astars:
            assert star.code_length == astar_code_length(
                db, result.core_table, star.coreset, star.leafset
            )
            assert star.frequency == db.row_frequency(star.coreset, star.leafset)
            assert star.coreset_frequency == db.coreset_frequency(star.coreset)

    def test_ranking_is_sort_key_order_of_every_row(self, result, config):
        db = result.inverted_db
        every = sorted(
            (
                AStar(
                    core,
                    leaf,
                    frequency,
                    db.coreset_frequency(core),
                    astar_code_length(db, result.core_table, core, leaf),
                )
                for core, leaf, frequency in db.row_items()
            ),
            key=AStar.sort_key,
        )
        every = [s for s in every if len(s.leafset) >= config.min_leafset]
        if config.top_k is not None:
            every = every[: config.top_k]
        assert result.astars == every
        assert [s.code_length for s in result.astars] == [
            s.code_length for s in every
        ]

    def test_serialised_entries_equal_per_astar_dicts(self, result):
        assert result.to_dict()["astars"] == [a.to_dict() for a in result.astars]


def old_sort_key(star):
    """The order before the total tie key: value tuples compared as-is."""
    return (
        star.code_length,
        tuple(sorted(star.coreset, key=repr)),
        tuple(sorted(star.leafset, key=repr)),
    )


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("pool", [STRINGS, INTEGERS], ids=["str", "int"])
def test_tie_order_equals_old_order_on_single_type_graphs(pool, seed):
    result = CSPM().fit(random_value_graph(seed, pool))
    assert result.astars == sorted(result.astars, key=old_sort_key)
    assert result.astars == sorted(result.astars, key=AStar.sort_key)


class TestTieKey:
    def test_numbers_before_strings_before_other_types(self):
        values = ["a", None, 2.5, "10", 3, True, (1,)]
        ordered = sorted(values, key=lambda value: tie_key([value]))
        assert ordered == [True, 2.5, 3, "10", "a", None, (1,)]

    def test_same_type_compares_by_value_not_repr(self):
        assert tie_key([9]) < tie_key([10])
        assert tie_key(["a"]) < tie_key(["a b"])

    def test_shorter_prefix_first(self):
        assert tie_key(["a"]) < tie_key(["a", "b"])

    def test_mixed_sort_keys_compare(self):
        short = AStar({7}, {"q"}, code_length=1.0)
        long = AStar({"q"}, {7}, code_length=1.0)
        assert short.sort_key() < long.sort_key()
