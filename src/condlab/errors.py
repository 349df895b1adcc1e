"""Exception types shared across the package, and how a refusal names a count."""

import math

# Python's default limit on the decimal digits of an int it prints
PRINTABLE_DIGITS = 4300
_PRINTABLE = 10 ** PRINTABLE_DIGITS


def name_count(count: int | None, log10: float = 0.0) -> str:
    """A count as a refusal names it: ``= N`` where Python prints N, else
    ``>= 10^k``. ``log10`` bounds log10 of the count from below when
    ``count`` is None because it was not computed."""
    if count is not None:
        if count < _PRINTABLE:
            return f"= {count}"
        log10 = math.log10(count)
    return f">= 10^{math.floor(log10)}"


class CondlabError(Exception):
    """Base class for all errors raised by this package."""


class DegreeMismatchError(CondlabError):
    """Operands belong to binary fields of different degrees."""


class UnsupportedDegreeError(CondlabError):
    """Field degree outside the supported range 1..64."""


class ShapeError(CondlabError):
    """A word vector or box does not match the expected (n, w) shape."""


class BudgetError(CondlabError):
    """A search or enumeration was refused because it exceeds its budget.

    ``refused`` carries the exact count that was refused, when it is known
    and printable (:func:`name_count` names the others by their size).
    """

    def __init__(self, message: str, refused: int | None = None):
        super().__init__(message)
        self.refused = refused if refused is not None and refused < _PRINTABLE else None


class NotAPermutationError(CondlabError):
    """A mapping required to be bijective is not; ``witness`` holds a
    colliding input pair when one is known."""

    def __init__(self, message: str, witness: tuple[int, int] | None = None):
        super().__init__(message)
        self.witness = witness


class RangeError(CondlabError):
    """A numeric argument lies outside its documented range."""


class TableFormatError(CondlabError):
    """A table or box file failed to parse; ``line`` is 1-based."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
