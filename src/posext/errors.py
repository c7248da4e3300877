"""Exception hierarchy shared across the package.

Three families matter to callers (and to the CLI exit codes): malformed
input, mathematically infeasible requests, and size limits on brute-force
fallbacks.
"""


class InputError(Exception):
    """Input is malformed or violates a structural invariant."""


class IndexOutOfRange(InputError):
    pass


class DomainMismatch(InputError):
    pass


class DimensionMismatch(InputError):
    pass


class NotLatinSquare(InputError):
    pass


class NotAssociative(InputError):
    pass


class NoIdentity(InputError):
    pass


class NoInverse(InputError):
    pass


class NotDecreasing(InputError):
    pass


class EmptyIntervalWithReversedEndpoints(InputError):
    pass


class InfeasibleError(Exception):
    """The requested object does not exist for this input."""


class NotChordal(InfeasibleError):
    pass


class NotPartiallyPositive(InfeasibleError):
    pass


class NotPositiveDefinite(InfeasibleError):
    pass


class NotChordalSubset(InfeasibleError):
    pass


class NotPSD(InfeasibleError):
    pass


class NotSupported(InfeasibleError):
    pass


class TooLarge(Exception):
    """A brute-force fallback was requested beyond its size cap."""
