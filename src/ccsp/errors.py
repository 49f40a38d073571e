"""Exception types shared across the package."""


class CcspError(Exception):
    """Base class for all package-specific errors."""


class InvalidArgumentError(CcspError, ValueError):
    """An operation was called with arguments violating its preconditions."""


class SynthesisFailureError(CcspError):
    """The joint operation-table search exhausted without a witness.

    Signals either a labeling bug or an input language for which no
    uniform conservative tables exist.
    """


class InternalInvariantError(CcspError):
    """A runtime invariant that should be unreachable was violated.

    Raised loudly instead of searching around the problem; indicates a bug
    upstream (CLI exit code 4).
    """


class OracleBudgetError(CcspError):
    """The brute-force oracle refused: enumeration exceeds the budget."""
