"""Exception hierarchy for the :mod:`repro` package.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single type at an API boundary.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Raised when an attributed graph is malformed or misused.

    Examples: adding a self-loop, querying a vertex that does not
    exist, or building a graph from inconsistent inputs.
    """


class MiningError(ReproError):
    """Raised when a pattern mining procedure receives invalid input."""


class ConfigError(MiningError):
    """Raised when a :class:`repro.config.CSPMConfig` is invalid.

    Subclasses :class:`MiningError` so legacy callers that guarded
    ``CSPM(...)`` construction with ``except MiningError`` keep working.
    """


class EncodingError(ReproError):
    """Raised when a code table cannot encode the requested object."""


class DatasetError(ReproError):
    """Raised when a dataset generator receives invalid parameters."""


class ModelError(ReproError):
    """Raised by the neural substrate for invalid shapes or states."""
