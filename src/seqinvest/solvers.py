"""The library's one scalar solver: a bracketing root finder.

Every scalar solve goes through :func:`bisect`, which first grows its
bracket when the caller gives a ``limit``.  An optimum is the root of a
derivative that changes sign once on a bracket known before the call;
bracketing is robust even next to the steep-at-zero boundary of the
success rate.

A NaN from ``f`` raises :class:`DomainError`: every comparison with it
is false, so read as a sign it would silently steer the bracket.  An
infinite value keeps its sign meaning.  The NaN tests sit in the branch
a NaN falls into, not in front of every evaluation.
"""

from __future__ import annotations

from typing import Callable

from .errors import BracketError, DomainError

_MAX_DOUBLINGS = 200
_MAX_HALVINGS = 200


def _nan_error(x: float) -> DomainError:
    return DomainError(f"f({x!r}) is NaN")


def bisect(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    limit: float | None = None,
    xtol: float = 1e-12,
) -> float:
    """Root of ``f`` on a sign-changing interval, to absolute ``xtol``.

    With ``limit`` set, ``hi`` first doubles, capped at ``limit``, and
    ``lo`` follows to each same-sign ``hi`` until ``f`` changes sign.
    Raises :class:`BracketError` without a sign change (by ``limit`` or
    within 200 doublings) and :class:`DomainError` if ``f`` returns NaN.
    At most 200 halvings follow, so even ``xtol=0`` terminates.
    """
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if limit is not None:
        steps = 0
        while flo * fhi > 0.0:
            if hi >= limit or steps >= _MAX_DOUBLINGS:
                raise BracketError(
                    f"no sign change on [{lo:g}, {hi:g}] up to limit {limit:g}"
                )
            lo, flo = hi, fhi
            hi = min(hi * 2.0, limit)
            fhi = f(hi)
            steps += 1
    if fhi == 0.0:
        return hi
    if not flo * fhi <= 0.0:
        if flo != flo or fhi != fhi:
            raise _nan_error(lo if flo != flo else hi)
        raise BracketError(f"f({lo:g}) and f({hi:g}) have the same sign")
    for _ in range(_MAX_HALVINGS):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if flo * fmid < 0.0:
            hi = mid
        elif fmid == 0.0:
            return mid
        elif fmid == fmid:
            lo, flo = mid, fmid
        else:
            raise _nan_error(mid)
        if hi - lo <= xtol:
            break
    return 0.5 * (lo + hi)
