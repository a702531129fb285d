"""The library's one scalar solver: a bracketing root finder.

Every scalar solve goes through :func:`bisect`: bracket growth toward a
``limit``, then ITP steps (Oliveira & Takahashi, ACM TOMS 47(1), 2021),
which keep a sign change in the bracket and take at most one step more
than bisection, but converge superlinearly on smooth functions.

A NaN from ``f`` raises :class:`DomainError`: read as a sign it would
silently steer the bracket.  An infinite value keeps its sign meaning.
"""

from __future__ import annotations

from typing import Callable

from .errors import BracketError, DomainError

_MAX_STEPS = 200  # bracket moves, and then ITP steps
_XTOL = 1e-12  # bisect's default stop: bracket width relative to its larger end


def _nan_error(x: float) -> DomainError:
    return DomainError(f"f({x!r}) is NaN")


def _sign(v: float) -> int:
    # not the sign of a product, which underflows to 0 for tiny values
    return (v > 0.0) - (v < 0.0)


def bisect(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    limit: float | None = None,
    xtol: float = _XTOL,
) -> float:
    """Root of ``f`` on a sign-changing interval, to ``xtol`` relative to the bracket.

    With ``limit`` set, ``hi`` first doubles toward it (halves, if it is
    below ``hi``), and ``lo`` follows to each same-sign ``hi``; without a
    sign change by ``limit`` or within 200 moves, :class:`BracketError`.
    Up to 200 ITP steps follow, until ``hi - lo <= xtol * max(|lo|, |hi|)``,
    so even ``xtol=0`` terminates, and a root near 0 keeps its relative
    accuracy.
    """
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if limit is not None:
        steps = 0
        while _sign(flo) * _sign(fhi) > 0:
            if hi == limit or steps >= _MAX_STEPS:
                raise BracketError(
                    f"no sign change on [{lo:g}, {hi:g}] up to limit {limit:g}"
                )
            lo, flo = hi, fhi
            hi = min(hi * 2.0, limit) if limit > hi else max(hi * 0.5, limit)
            fhi = f(hi)
            steps += 1
    if fhi == 0.0:
        return hi
    if _sign(flo) * _sign(fhi) >= 0:  # no sign change, or a NaN
        if flo != flo or fhi != fhi:
            raise _nan_error(lo if flo != flo else hi)
        raise BracketError(f"f({lo:g}) and f({hi:g}) have the same sign")
    if lo > hi:
        lo, flo, hi, fhi = hi, fhi, lo, flo
    budget = hi - lo  # bound on the bracket a step leaves: bisection's one step earlier
    kappa = 0.2 / budget  # truncation kappa * width^2, kappa_2 = 2 and n_0 = 1 in the paper
    for _ in range(_MAX_STEPS):
        width = hi - lo
        if width <= xtol * (hi if hi + lo > 0.0 else -lo):  # xtol * max(|lo|, |hi|)
            break
        mid = 0.5 * (lo + hi)
        # regula falsi, truncated toward mid and kept within reach of it
        off = mid - (lo * fhi - hi * flo) / (fhi - flo)
        trunc = kappa * width * width
        reach = budget - 0.5 * width
        if off > trunc:
            x = mid - min(off - trunc, reach)
        elif off < -trunc:
            x = mid + min(-off - trunc, reach)
        else:  # within the truncation of mid, or a NaN interpolation
            x = mid
        if not lo < x < hi:  # interpolation rounded out of the bracket
            x = mid
        fx = f(x)
        if fx == 0.0:
            return x
        if fx != fx:
            raise _nan_error(x)
        if (fx < 0.0) == (flo < 0.0):
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
        budget *= 0.5
    return 0.5 * (lo + hi)
