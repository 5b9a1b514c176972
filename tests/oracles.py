"""The naive reference search every exact production search is pinned to.

:func:`naive_search` is CSPM-Basic as Algorithms 1-2 of the paper state
it: each iteration evaluates every leafset pair of the current database
and merges the first pair, in interned-id order, with the strictly
greatest gain above ``GAIN_EPS``.  It shares only the gain engine and
the database with production, so a search whose :func:`outcome` equals
the oracle's reproduces the greedy merge sequence and every
description-length float exactly.
"""

from repro.core.candidates import enumerate_pairs
from repro.core.cspm_basic import GAIN_EPS
from repro.core.gain import GainEngine
from repro.core.instrumentation import IterationTrace, RunTrace, merged_pair_record
from repro.core.mdl import description_length


def naive_search(db, standard_table, core_table, include_model_cost=True):
    """Run the naive Algorithm 1-2 search to convergence, mutating ``db``."""
    trace = RunTrace(algorithm="cspm-basic")
    dl = description_length(db, standard_table, core_table).total_bits
    trace.initial_dl_bits = dl
    engine = GainEngine(db, standard_table, core_table)
    iteration = 0
    while True:
        n = db.num_leafsets
        possible = n * (n - 1) // 2
        gains_computed = 0
        best_pair, best_gain, best_breakdown = None, GAIN_EPS, None
        for leaf_x, leaf_y in enumerate_pairs(db.leafsets(), interner=db.interner):
            breakdown = engine.gain(leaf_x, leaf_y)
            gains_computed += 1
            gain = breakdown.net(include_model_cost)
            if gain > best_gain:
                best_pair, best_gain, best_breakdown = (leaf_x, leaf_y), gain, breakdown
        if iteration == 0:
            trace.initial_candidate_gains = gains_computed
        if best_pair is None:
            break
        merge = db.merge(*best_pair)
        engine.drop_views(merge.removed_leafsets)
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


def outcome(trace, db):
    """What every exact search must reproduce with ``==``: each merge
    with its gain and running DL, the final DL, the incremental
    component sums, and the final database."""
    return {
        "merges": [(s.merged_pair, s.gain, s.total_dl_bits) for s in trace.iterations],
        "final_dl_bits": trace.final_dl_bits,
        "component_sums": (
            trace.data_leaf_gain_bits,
            trace.model_gain_bits,
            trace.data_core_gain_bits,
        ),
        "snapshot": db.snapshot(),
    }
