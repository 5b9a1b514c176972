"""The result type of a CSPM run, with JSON-safe serialisation.

:class:`CSPMResult` carries everything a consumer needs after mining:
the ranked a-stars, the run trace (Fig. 5 instrumentation), the
initial/final description lengths, and the code tables.  All of that —
*everything but the raw* :class:`~repro.core.inverted_db.InvertedDatabase`
— round-trips through :meth:`CSPMResult.to_dict` /
:meth:`CSPMResult.from_dict`, so results can be shipped over the wire,
cached on disk, or returned by a service layer.  A deserialised result
has ``inverted_db=None``; ranking, filtering, scoring and reporting all
keep working, only the mutable search state is gone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterator, List, Mapping, Optional

from repro.config import CSPMConfig
from repro.core.astar import AStar, astar_entries
from repro.core.code_table import CoreCodeTable, StandardCodeTable
from repro.core.collector import paused_collector
from repro.core.instrumentation import COUNT, NUMBER, RunTrace, check_field_types
from repro.core.inverted_db import InvertedDatabase
from repro.core.mdl import DescriptionLength
from repro.errors import MiningError

Value = Hashable

SCHEMA_VERSION = 1

#: Top-level keys every result document must carry (``config`` is
#: optional).
SECTIONS = (
    "astars",
    "trace",
    "initial_dl",
    "final_dl",
    "standard_table",
    "core_table",
)


#: The numeric fields of an ``astars`` entry and the types each takes.
_ASTAR_NUMBERS = {
    "frequency": COUNT,
    "coreset_frequency": COUNT,
    "code_length": NUMBER,
}


def _astar_entry(index: int, entry: Any) -> AStar:
    """One ``astars`` entry, or a :class:`MiningError` naming it."""
    if (
        isinstance(entry, Mapping)
        and type(entry.get("coreset")) is list
        and type(entry.get("leafset")) is list
    ):
        check_field_types(entry, _ASTAR_NUMBERS, f"astars[{index}]")
        try:
            return AStar.from_dict(entry)
        except TypeError:  # an unhashable value
            pass
    raise MiningError(f"astars[{index}] is not an a-star entry: {entry!r}")


def _section(document: Mapping[str, Any], key: str, decode) -> Any:
    """``decode(document[key])``, or a :class:`MiningError` naming ``key``."""
    try:
        return decode(document[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise MiningError(
            f"result document section {key!r} is malformed: {exc!r}"
        ) from None


@dataclass
class CSPMResult:
    """Output of a CSPM run.

    ``astars`` is ordered by ascending code length — the paper's output
    ordering, where shorter codes mean more informative patterns.

    ``inverted_db`` is the live search state; it is ``None`` on results
    rebuilt via :meth:`from_dict` (it is deliberately not serialised).
    ``config`` records the :class:`~repro.config.CSPMConfig` that
    produced the run, when known.

    ``final_dl`` is the end-of-run breakdown summed in canonical order
    by the pipeline's rank pass (:func:`repro.core.mdl.rank_rows`);
    :attr:`final_dl_bits` is the search's incremental total.
    """

    astars: List[AStar]
    trace: RunTrace
    initial_dl: DescriptionLength
    final_dl: DescriptionLength
    standard_table: StandardCodeTable
    core_table: CoreCodeTable
    inverted_db: Optional[InvertedDatabase] = field(default=None, repr=False)
    config: Optional[CSPMConfig] = None
    #: Supervised-runtime failure telemetry (each site's report:
    #: degraded-task list, failure lines, seconds), populated only when
    #: a supervised pool actually ran.  It holds wall-clock time, so it
    #: is not part of the result document.
    runtime: Optional[Dict[str, Any]] = None

    @property
    def final_dl_bits(self) -> float:
        """End-of-run total DL, tracked incrementally by the search.

        Equal to ``final_dl.total_bits`` up to float accumulation order.
        """
        return self.trace.final_dl_bits

    def __len__(self) -> int:
        return len(self.astars)

    def __iter__(self) -> Iterator[AStar]:
        return iter(self.astars)

    def __repr__(self) -> str:
        return (
            f"<CSPMResult: {len(self.astars)} a-stars, "
            f"{self.trace.num_iterations} merges, "
            f"DL {self.initial_dl.total_bits:.1f} -> "
            f"{self.final_dl_bits:.1f} bits "
            f"(ratio {self.compression_ratio:.3f})>"
        )

    def top(self, k: int) -> List[AStar]:
        """The ``k`` best-ranked (shortest-code) a-stars."""
        return self.astars[:k]

    def filter(
        self,
        min_leafset_size: int = 1,
        min_frequency: int = 1,
        core_value: Optional[Any] = None,
    ) -> List[AStar]:
        """A filtered view, preserving rank order.

        ``core_value`` semantics:

        * a single (hashable) value keeps a-stars whose coreset
          *contains* that value — membership, not equality, so a
          multi-value coreset ``{a, b}`` matches ``core_value="a"``;
        * a ``set``, ``frozenset`` or ``list`` of values keeps a-stars
          whose coreset contains *all* of them (subset match).
        """
        core_required: Optional[frozenset] = None
        if core_value is not None:
            if isinstance(core_value, (set, frozenset, list)):
                core_required = frozenset(core_value)
            else:
                core_required = frozenset([core_value])
        selected = []
        for star in self.astars:
            if len(star.leafset) < min_leafset_size:
                continue
            if star.frequency < min_frequency:
                continue
            if core_required is not None and not core_required <= star.coreset:
                continue
            selected.append(star)
        return selected

    @property
    def compression_ratio(self) -> float:
        """Final over initial total description length (incremental)."""
        initial = self.initial_dl.total_bits
        if initial <= 0:
            return 1.0
        return self.final_dl_bits / initial

    def summary(self) -> str:
        """A short human-readable report of the run."""
        lines = [
            f"CSPM ({self.trace.algorithm}): {len(self.astars)} a-stars, "
            f"{self.trace.num_iterations} merges",
            f"  DL: {self.initial_dl.total_bits:.1f} -> "
            f"{self.final_dl_bits:.1f} bits "
            f"(ratio {self.compression_ratio:.3f})",
            f"  gain computations: {self.trace.total_gain_computations}",
        ]
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serialisable representation of the run.

        Contains the ranked a-stars, trace, DL accounting, both code
        tables, and the producing config — everything except the raw
        inverted database.  Attribute values must be JSON-compatible
        (strings, numbers) for :meth:`to_json` to succeed.
        """
        return {
            "schema_version": SCHEMA_VERSION,
            "config": None if self.config is None else self.config.to_dict(),
            "astars": astar_entries(self.astars),
            "trace": self.trace.to_dict(),
            "initial_dl": self.initial_dl.to_dict(),
            "final_dl": self.final_dl.to_dict(),
            "standard_table": self.standard_table.to_dict(),
            "core_table": self.core_table.to_dict(),
        }

    @classmethod
    def from_dict(cls, document: Mapping[str, Any]) -> "CSPMResult":
        """Rebuild a result from :meth:`to_dict` output.

        The returned result has ``inverted_db=None`` and
        ``runtime=None``; the ``runtime`` key that documents written
        before version 1.19.0 carry is ignored.  A document of
        another ``schema_version``, one missing a section of
        :data:`SECTIONS`, or one holding a malformed section raises
        :class:`~repro.errors.MiningError` naming the key; a config
        echo that is not a valid config raises
        :class:`~repro.errors.ConfigError`.
        """
        if not isinstance(document, Mapping):
            raise MiningError(
                f"result document must be an object, "
                f"got {type(document).__name__}"
            )
        version = document.get("schema_version")
        if type(version) is not int or version != SCHEMA_VERSION:
            raise MiningError(
                f"result document schema_version must be {SCHEMA_VERSION}, "
                f"got {version!r}"
            )
        missing = [key for key in SECTIONS if key not in document]
        if missing:
            raise MiningError(f"result document lacks section(s) {missing}")
        astars = document["astars"]
        if type(astars) is not list:
            raise MiningError(
                f"result document astars must be an array, "
                f"got {type(astars).__name__}"
            )
        config = document.get("config")
        return cls(
            astars=[_astar_entry(i, entry) for i, entry in enumerate(astars)],
            trace=_section(document, "trace", RunTrace.from_dict),
            initial_dl=_section(document, "initial_dl", DescriptionLength.from_dict),
            final_dl=_section(document, "final_dl", DescriptionLength.from_dict),
            standard_table=_section(
                document, "standard_table", StandardCodeTable.from_dict
            ),
            core_table=_section(document, "core_table", CoreCodeTable.from_dict),
            inverted_db=None,
            config=None
            if config is None
            else _section(document, "config", CSPMConfig.from_dict),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        """:meth:`to_dict` rendered as a JSON document.

        Serialising makes no cyclic garbage, so it runs with the
        collector paused, like a mining run.  (With ``indent`` set, the
        ``json`` module's pure-Python encoder leaves a fixed handful of
        closure cycles per call; the next full collection frees them.)
        """
        with paused_collector():
            return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "CSPMResult":
        """Rebuild a result from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))
