"""Exception types shared across the package."""

from __future__ import annotations


class CasError(Exception):
    """Base class for all errors raised by this package."""


class NonPrimeError(CasError):
    """The requested characteristic is not a prime in [2, 2^31)."""


class ParseError(CasError):
    """Syntax error in a polynomial or a ring-spec file, with position info."""

    def __init__(self, message: str, line: int = 1, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.message = message


class NonHomogeneousError(CasError):
    """A computation that needs a graded ring met an inhomogeneous ideal."""


class ResourceLimitError(CasError):
    """A step/degree budget was exhausted before the computation finished."""


class InfiniteLengthError(CasError):
    """A module required to have finite length does not."""


class UnsupportedDimensionError(CasError):
    """The classifier only handles Krull dimension 0 and 1."""


class NoNzdFoundError(CasError):
    """No non-zero-divisor was found in the searched space."""


class NotCohenMacaulayError(CasError):
    """An operation requiring a Cohen-Macaulay ring was applied to one that is not."""


class PipelineInvariantError(CasError):
    """A theorem-backed cross-check failed; indicates a bug, not an input issue."""
