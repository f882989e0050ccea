"""Error taxonomy shared by the library and the CLI.

Exit-code mapping used by the CLI: ParameterError (and subclasses) -> 2,
ResourceLimitError -> 3, InconsistencyError -> 4; an OSError from writing
the output is also 2.
"""


class ParameterError(ValueError):
    """Unsupported or inconsistent input parameters (precondition violations)."""


class InadmissibleWeightError(ParameterError):
    """q lies outside the window where nonvanishing is possible.

    Outside 0 <= q <= n+1 - (n+b)/d every K_{p,q} vanishes: the coefficient
    space in the reduced complex is zero in those degrees.
    """


class ACMSpecError(ParameterError):
    """A structural problem in an ACM ring description (file or in-memory)."""


class ResourceLimitError(RuntimeError):
    """A computation would exceed the configured size budget."""


class InconsistencyError(RuntimeError):
    """Two independently computed values that must agree do not.

    Raised e.g. when a closed-form endpoint disagrees with the counting form
    where both are asserted, or when an assembled differential pair fails
    the chain condition. Always a bug, never a user error.
    """
