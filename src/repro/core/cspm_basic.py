"""CSPM-Basic: the paper's greedy search, verbatim (Algorithm 1 + 2).

Each iteration evaluates the gain of *every* leafset pair of the
current database, merges the first pair, in interned-id order, with
the strictly greatest gain above :data:`~repro.core.gain.GAIN_EPS`,
and repeats until no pair compresses the database further.  Its
per-iteration cost is one gain computation per pair, which is what
Table III and Fig. 5 measure CSPM-Partial against: every iteration's
update ratio is exactly 1.0.

This loop is also the oracle every other exact search is pinned to:
``tests/oracles.py`` re-exports it, and CSPM-Partial's lazy scope and
the sharded search must reproduce its merge sequence, gains and
description-length floats with ``==``.  It shares only the gain engine
and the database with them.
"""

from __future__ import annotations

from typing import Optional

from repro.core.candidates import enumerate_pairs
from repro.core.code_table import CoreCodeTable, StandardCodeTable
from repro.core.gain import GAIN_EPS, GainEngine
from repro.core.instrumentation import IterationTrace, RunTrace, merged_pair_record
from repro.core.inverted_db import InvertedDatabase
from repro.core.mdl import description_length


def run_basic(
    db: InvertedDatabase,
    standard_table: StandardCodeTable,
    core_table: CoreCodeTable,
    include_model_cost: bool = True,
    max_iterations: Optional[int] = None,
    initial_dl_bits: Optional[float] = None,
) -> RunTrace:
    """Run CSPM-Basic to convergence, mutating ``db`` in place.

    ``initial_dl_bits`` may carry an already-computed starting
    description length to skip the from-scratch pass over the fresh
    database.  Returns the :class:`RunTrace` with one entry per
    accepted merge.
    """
    trace = RunTrace(algorithm="cspm-basic")
    if initial_dl_bits is None:
        initial_dl_bits = description_length(db, standard_table, core_table).total_bits
    dl = initial_dl_bits
    trace.initial_dl_bits = dl
    engine = GainEngine(db, standard_table, core_table)
    iteration = 0
    while max_iterations is None or iteration < max_iterations:
        n = db.num_leafsets
        possible = n * (n - 1) // 2
        gains_computed = 0
        best_pair, best_gain, best_breakdown = None, GAIN_EPS, None
        for leaf_x, leaf_y in enumerate_pairs(db.leafsets(), db.interner):
            breakdown = engine.gain(leaf_x, leaf_y)
            gains_computed += 1
            gain = breakdown.net(include_model_cost)
            if gain > best_gain:
                best_pair, best_gain, best_breakdown = (leaf_x, leaf_y), gain, breakdown
        if iteration == 0:
            trace.initial_candidate_gains = gains_computed
        if best_pair is None:
            break
        db.merge(*best_pair)
        dl -= best_breakdown.total
        trace.record_merge_components(best_breakdown)
        iteration += 1
        trace.iterations.append(
            IterationTrace(
                iteration=iteration,
                gains_computed=gains_computed,
                possible_pairs=possible,
                num_leafsets=n,
                merged_pair=merged_pair_record(*best_pair),
                gain=best_gain,
                total_dl_bits=dl,
            )
        )
    trace.final_dl_bits = dl
    return trace
