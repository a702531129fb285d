"""Bracketing scalar solvers: one root finder and golden-section search.

Every scalar solve in the library goes through these derivative-free
routines: :func:`bisect` finds every root, growing its bracket first
when the caller gives a ``limit``, and :func:`golden_max` every maximum.
The functions being solved are monotone crossings or single-peaked
maxima, for which bracketing is robust even next to the steep-at-zero
boundary of the success rate.

A NaN from ``f`` raises :class:`DomainError`: every comparison with it
is false, so read as a sign it would silently steer the bracket.  An
infinite value keeps its sign meaning.  The NaN tests sit in the branch
a NaN falls into, not in front of every evaluation.
"""

from __future__ import annotations

from typing import Callable

from .errors import BracketError, DomainError

_INV_PHI = 0.6180339887498949  # (sqrt(5) - 1) / 2
_INV_PHI2 = 0.3819660112501051  # (3 - sqrt(5)) / 2
_MAX_DOUBLINGS = 200


def _nan_error(x: float) -> DomainError:
    return DomainError(f"f({x!r}) is NaN")


def bisect(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    limit: float | None = None,
    xtol: float = 1e-12,
    max_iter: int = 200,
) -> float:
    """Root of ``f`` on a sign-changing interval, to absolute ``xtol``.

    With ``limit`` set, ``hi`` first doubles, capped at ``limit``, until
    ``f`` changes sign on ``[lo, hi]``.  Raises :class:`BracketError`
    without a sign change (by ``limit`` or within 200 doublings) and
    :class:`DomainError` if ``f`` returns NaN.
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
            hi = min(hi * 2.0, limit)
            fhi = f(hi)
            steps += 1
    if fhi == 0.0:
        return hi
    if not flo * fhi <= 0.0:
        if flo != flo or fhi != fhi:
            raise _nan_error(lo if flo != flo else hi)
        raise BracketError(f"f({lo:g}) and f({hi:g}) have the same sign")
    for _ in range(max_iter):
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


def golden_max(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    xtol: float = 1e-10,
) -> tuple[float, float, float]:
    """Maximizer of a single-peaked ``f`` on ``[lo, hi]``.

    Returns ``(x, f(x), bracket_width)``; only valid when ``f`` rises then
    falls at most once on the interval.  Raises :class:`DomainError` if
    ``f`` returns NaN.
    """
    a, b = lo, hi
    c = a + _INV_PHI2 * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = f(c)
    fd = f(d)
    while b - a > xtol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = a + _INV_PHI2 * (b - a)
            fc = f(c)
        elif fc <= fd:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
        else:
            raise _nan_error(c if fc != fc else d)
    x = 0.5 * (a + b)
    fx = f(x)
    if fx != fx:
        raise _nan_error(x)
    return x, fx, b - a
