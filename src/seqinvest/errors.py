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


def _check_count(name: str, value: int, least: int) -> None:
    # an integer field or argument: anything ``operator.index`` accepts
    # (int, bool, a numpy integer) and at least ``least``; a float such as
    # 1000.7 would otherwise be rounded or reach numpy or ``range`` as a
    # bare TypeError
    try:
        operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise DomainError(f"{name} must be >= {least}, got {value}")
