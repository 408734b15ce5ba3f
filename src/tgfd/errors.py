"""Exception types shared across the engine."""


class TgfdError(Exception):
    """Base class for all engine errors."""


class UnknownVertex(TgfdError):
    """A change or query referenced a vertex id absent from the fixed vertex set."""


class DeleteMissingEdge(TgfdError):
    """An edge deletion referenced an edge that does not exist at apply time."""


class GraphFormatError(TgfdError):
    """A snapshot or change file could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class TgfdSyntaxError(TgfdError):
    """A rule definition could not be parsed."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class UnknownVariable(TgfdError):
    """A literal or edge referenced a variable not declared in the pattern."""


class InvalidDelta(TgfdError):
    """A time interval violates 0 <= p <= q."""


class EmptyConsequent(TgfdError):
    """A rule with an empty consequent is vacuous and rejected at parse time."""


class DuplicateRule(TgfdError):
    """Two rules carry one name once split into normal form; every engine
    keys its per-rule state by name."""


class ArityMismatch(TgfdError):
    """An axiom was instantiated with the wrong number of premises."""


class JobOutOfBounds(TgfdError):
    """A job's estimated size lies outside the given (t_l, t_u) bounds."""

    def __init__(self, job_name, size, bounds):
        super().__init__(
            f"job {job_name} size {size:.6g} outside bounds [{bounds[0]:.6g}, {bounds[1]:.6g}]"
        )
        self.job_name = job_name
        self.size = size
        self.bounds = bounds


class ReportKeyOverflow(TgfdError):
    """A rule profiled more matches than the entry-id fields of its
    violation keys can number."""


# Errors callers may already catch as ValueError: each derives from both.


class InvalidOption(TgfdError, ValueError):
    """An engine option lies outside its domain: a worker or fragment count,
    an error rate, a generator size or profile, an axiom or a mode name."""


class InvalidPattern(TgfdError, ValueError):
    """A pattern is empty, disconnected, or declares a variable twice."""


class InvalidLedger(TgfdError, ValueError):
    """An injection ledger lacks a key or holds a malformed row."""


class InvalidGraph(TgfdError, ValueError):
    """A temporal graph's snapshots or change sets break the timestamp order
    1..T, a query names a timestamp outside it, or a match index is given
    an entry older than the last of its X class."""
