"""The exact float contract of ``GainEngine.gain`` over row maps.

``oracle_gain`` below is the scalar kernel written the plain way: the
common coresets in the order of the leafset with fewer coresets (the
lower interned id's on a tie, in its row map's insertion order), row
lookups through ``rows_of``, ``xlog2x`` terms, leaf costs summed in
``sorted(values, key=repr)`` order and the accumulators updated in a
fixed order (model: new row, then x total, then y total).  The engine
walks the same row maps with cached pointers and a lookup table, and
must return the *same bits* — ``mine --json`` serialises these floats.
"""

import random

import pytest

from repro.core.code_table import CoreCodeTable, StandardCodeTable
from repro.core.gain import ZERO_GAIN, GainBreakdown, GainEngine
from repro.core.inverted_db import InvertedDatabase
from repro.core.masks import get_backend
from repro.core.mdl import xlog2x
from repro.graphs.generators import PlantedAStar, planted_astar_graph


def random_graph(seed):
    graph, _ = planted_astar_graph(
        60,
        150,
        [
            PlantedAStar("p", ("q", "r"), strength=0.9),
            PlantedAStar("s", ("t", "u"), strength=0.8),
        ],
        noise_values=("n1", "n2", "n3", "n4"),
        noise_rate=0.3,
        seed=seed,
    )
    return graph


def set_cost(standard, leaf):
    return sum(standard.code_length(value) for value in sorted(leaf, key=repr))


def oracle_gain(db, leaf_x, leaf_y, standard, core_table):
    interner = db.interner
    if interner.intern(leaf_x) > interner.intern(leaf_y):
        leaf_x, leaf_y = leaf_y, leaf_x
    rows_x = db.rows_of(leaf_x)
    rows_y = db.rows_of(leaf_y)
    if not rows_x or not rows_y:
        return ZERO_GAIN
    walk, probe = (rows_x, rows_y) if len(rows_x) <= len(rows_y) else (rows_y, rows_x)
    common = [core for core in walk if core in probe]
    backend = db.mask_backend
    new_leaf = leaf_x | leaf_y
    p1 = 0.0
    p2 = 0.0
    model_gain = 0.0
    data_core_gain = 0.0
    for core in common:
        mask_x, xe = rows_x[core]
        mask_y, ye = rows_y[core]
        xye = backend.and_count(mask_x, mask_y)
        if not xye:
            continue
        fe = db.coreset_frequency(core)
        p1 += xlog2x(fe) - xlog2x(fe - xye)
        p2 += xlog2x(xe) + xlog2x(ye) - (
            xlog2x(xe - xye) + xlog2x(ye - xye) + xlog2x(xye)
        )
        pointer = core_table.code_length(core)
        if core not in db.rows_of(new_leaf):
            model_gain -= set_cost(standard, new_leaf) + pointer
        if xye == xe:
            model_gain += set_cost(standard, leaf_x) + pointer
        if xye == ye:
            model_gain += set_cost(standard, leaf_y) + pointer
        data_core_gain += xye * pointer
    if p1 == 0.0 and p2 == 0.0 and model_gain == 0.0 and data_core_gain == 0.0:
        return ZERO_GAIN
    return GainBreakdown(p1 - p2, model_gain, data_core_gain)


def bits(breakdown):
    """The breakdown's floats as exact hex strings (``0.0 != -0.0`` here)."""
    return tuple(
        value.hex()
        for value in (
            breakdown.data_leaf_gain,
            breakdown.model_gain,
            breakdown.data_core_gain,
        )
    )


def overlapping_pairs(db):
    backend = db.mask_backend
    leafsets = db.interner.order(db.leafsets())
    for i, leaf_a in enumerate(leafsets):
        union_a = db.leaf_union_mask(leaf_a)
        for leaf_b in leafsets[i + 1 :]:
            if backend.union_overlaps(union_a, db.leaf_union_mask(leaf_b)):
                yield leaf_a, leaf_b


def mergeable_pairs(db):
    """Pairs whose merge moves at least one position."""
    backend = db.mask_backend
    return [
        (leaf_a, leaf_b)
        for leaf_a, leaf_b in overlapping_pairs(db)
        if any(
            backend.and_count(db.row_mask(core, leaf_a), db.row_mask(core, leaf_b))
            for core in db.common_coresets(leaf_a, leaf_b)
        )
    ]


def shuffle_coreset_orders(db, rng):
    """Give every leafset's row map its own coreset order.

    Built databases list each leafset's coresets in one global order,
    and small searches rarely break it, so walking either map of a pair
    would sum the terms in the same order.  Merges and description
    lengths do not depend on this order; only the gain's summation does.
    """
    for leaf, rows in list(db._leaf_rows.items()):
        items = list(rows.items())
        rng.shuffle(items)
        db._leaf_rows[leaf] = dict(items)


def check_merge_prefixes(seed, backend, shuffle=True, merges=6):
    """Compare engine and oracle on every overlapping pair, merge by merge.

    One engine serves the whole prefix, as in a search, so pointers
    cached before a merge are exercised after it.  Returns the number
    of non-zero breakdowns compared.
    """
    graph = random_graph(seed)
    db = InvertedDatabase.from_graph(graph, mask_backend=get_backend(backend))
    standard = StandardCodeTable.from_graph(graph)
    core_table = CoreCodeTable.singletons_from_graph(graph)
    engine = GainEngine(db, standard, core_table)
    rng = random.Random(seed)
    if shuffle:
        shuffle_coreset_orders(db, rng)
    nonzero = 0
    for _step in range(merges + 1):
        for leaf_a, leaf_b in overlapping_pairs(db):
            fast = engine.gain(leaf_a, leaf_b)
            assert bits(fast) == bits(
                oracle_gain(db, leaf_a, leaf_b, standard, core_table)
            ), (leaf_a, leaf_b)
            assert bits(engine.gain(leaf_b, leaf_a)) == bits(fast)
            nonzero += fast != ZERO_GAIN
        candidates = mergeable_pairs(db)
        if not candidates:
            break
        db.merge(*rng.choice(candidates))
    return nonzero


@pytest.mark.parametrize("shuffle", [False, True])
@pytest.mark.parametrize("backend", ["bigint", "chunked"])
@pytest.mark.parametrize("seed", range(4))
def test_gain_equals_scalar_oracle_bit_for_bit(seed, backend, shuffle):
    assert check_merge_prefixes(seed, backend, shuffle) > 0


def test_over_cap_fallback_is_bit_exact(monkeypatch):
    """Terms whose ``fe`` passes the table cap use ``xlog2x`` directly."""
    monkeypatch.setattr(GainEngine, "_XLOGX_CAP", 3)
    built = []
    original = GainEngine._xlogx_upto

    def spy(self, bound):
        built.append(bound)
        return original(self, bound)

    monkeypatch.setattr(GainEngine, "_xlogx_upto", spy)
    for seed in range(2):
        assert check_merge_prefixes(seed, "bigint") > 0
    assert any(bound > 3 for bound in built), "no term went past the cap"
