"""Exception hierarchy shared across the library.

Everything derives from :class:`SeqInvestError` (itself a ``ValueError``)
so callers can catch library failures with a single except clause while
still distinguishing the semantic cases below.
"""

import operator


class SeqInvestError(ValueError):
    """Base class for all library-specific errors."""


class DomainError(SeqInvestError):
    """An evaluation was requested outside a function's validated domain."""


class DivergenceError(SeqInvestError):
    """A series functional diverges (tail success probability reaches 1)."""


class UnboundedRatioError(SeqInvestError):
    """No investment below the domain cap attains the requested return."""


class BracketError(SeqInvestError):
    """A root or maximum could not be bracketed inside the search domain."""


class InfeasibleError(SeqInvestError):
    """The requested profile violates the support feasibility bounds."""


class RuleConstructionError(SeqInvestError):
    """A reward rule failed balance or non-negativity validation."""


class TailShapeError(SeqInvestError):
    """A rule's columns never stabilize against a profile's constant tail."""


class ChainCapError(SeqInvestError):
    """A simulated chain exceeded the configured safety cap."""


def _index(name: str, value: int) -> int:
    # an integer field or argument: anything ``operator.index`` accepts
    # (int, bool, a numpy integer), as a Python int; a float such as 1000.7
    # would otherwise be truncated, used as an exponent, or reach numpy or
    # ``range`` as a bare TypeError
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


def _real(name: str, value: float) -> float:
    # a real argument: anything ``float()`` accepts (int, bool, a numpy
    # scalar, a Fraction), as a Python float of the same bits, but not text,
    # which ``float()`` would parse ("0.05" is not a number): text goes to
    # ``float()`` as None, which it rejects as it rejects any non-number
    text = isinstance(value, (str, bytes, bytearray, memoryview))
    try:
        return float(None if text else value)
    except (TypeError, ValueError):
        raise DomainError(f"{name} must be a real number, got {value!r}") from None


def _check_count(name: str, value: int, least: int) -> int:
    # an integer (``_index``) of at least ``least``
    index = _index(name, value)
    if index < least:
        raise DomainError(f"{name} must be >= {least}, got {value}")
    return index
