"""Success-rate primitives for sequential investment processes.

A success rate maps an agent's investment ``x >= 0`` to the probability
``p(x)`` that the agent extends the process by one step.  The library
assumes throughout that ``p`` is increasing, differentiable, concave,
steep at zero (``p'(x) -> inf`` as ``x -> 0+``), and capped strictly
below 1.  Two derived quantities drive every first-order condition:

* ``incentive_prize(x) = p(x) / p'(x)`` -- the gross prize at which a
  risk-neutral agent finds investing exactly ``x`` optimal; assumed
  convex, with the limit convention that it vanishes at zero.
* ``required_return(x) = incentive_prize(x) / p(x) = 1 / p'(x)`` -- the
  net expected continuation return that makes ``x`` a best response;
  strictly increasing because ``p`` is concave.

Built-in families:

* ``sqrt_ratio``: ``p(x) = sqrt(x) / (1 + sqrt(x))``, with closed forms
  ``incentive_prize(x) = 2 x (1 + sqrt(x))`` and slope ``2 + 3 sqrt(x)``.
  Its supremum is 1, so the cap parameter is 0 and any bound that needs
  ``1 / cap`` is unavailable for this family.
* ``scaled_sqrt_ratio``: ``p(x) = (1 - eps) sqrt(x) / (1 + sqrt(x))``
  with cap ``eps in (0, 1)``.  The prize and its slope coincide with
  ``sqrt_ratio`` (the scale cancels in ``p / p'``).  One builder makes
  both families: ``sqrt_ratio`` is the scale ``1 - eps`` at ``eps = 0``,
  and a scale of exactly 1 changes no bit of ``p``, ``p'`` or the inverse.
* custom rates (:func:`custom_rate`): user-supplied ``p`` and ``p'``;
  the prize is derived and its slope falls back to a central finite
  difference.  They have no configuration form: callers pass the object
  itself, and :func:`rate_from_config` builds only the built-in families.

Both built-in families also invert the required return in closed form:
``required_return(x) = 2 s (1 + s)^2 / (1 - eps)`` with ``s = sqrt(x)``,
so the investment for a return ``t`` is the square of the one real root
of ``s (1 + s)^2 = t (1 - eps) / 2`` (Cardano, then one Newton step).
Custom rates invert by the bracketing solver.  Like the closed-form
prize, the inverse is trusted in place of ``p'``, so it must stay
consistent with ``_p_prime``.

The evaluators (``probability``, ``marginal``, ``incentive_prize``,
``incentive_prize_slope`` and ``required_return``) take an investment in
``[0, domain_cap]``, or ``(0, domain_cap]`` for the slope.  A Python
``float`` in that range, ``-0.0`` included, is used as is after one inline
comparison.  Any other real number (an ``int``, a ``bool``, a numpy
scalar) is converted with ``float()`` first, so the closures always see a
float and give the same bits as on ``float(x)``.  NaN, an infinity, a
negative value, a value past the cap, and zero for the slope raise
:class:`DomainError` with a message naming the rate.

Rates are immutable after construction and safe to share across workers.
Validation (:func:`validate`) is advisory and plain Python on a grid of
floats, so it needs no numpy: solvers accept unvalidated rates, and a rate
that violates the assumptions is reported, not rejected.

A record is a frozen dataclass only where construction validates its
input, as :class:`SuccessRate` checks its domain cap; computed results
(:class:`CheckResult`, :class:`ValidationReport`) are ``typing.NamedTuple``
classes, which unpack and index like tuples and are copied with ``._replace``.
A :class:`CheckResult` is one assumption's name, verdict, and worst grid
point with its value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple

from .errors import DomainError

DEFAULT_DOMAIN_CAP = 1e6
_TOL_CONVEX = 1e-8  # validate: rounding allowance on the prize's second differences
_TOL_LIMIT = 1e-6  # validate: largest prize at the smallest grid point


def _sqrt_prize(x: float) -> float:
    return 2.0 * x * (1.0 + math.sqrt(x))


def _sqrt_prize_slope(x: float) -> float:
    return 2.0 + 3.0 * math.sqrt(x)


def _sqrt_investment(k: float) -> float:
    """``x = s^2`` where ``s (1 + s)^2 = k``, for ``k > 0``.

    With ``u = 1 + s`` this is the cubic ``u^3 - u^2 - k = 0``, whose one
    real root Cardano gives as ``1/3 + a + 1 / (9 a)``.  That form cancels
    for small ``k``, where ``s = k`` is already a close start instead;
    one Newton step then brings either start to rounding level.
    """
    if k < 1e-8:
        s = k
    else:
        root_disc = math.sqrt(k) * math.sqrt(1.0 / 27.0 + 0.25 * k)
        a = (1.0 / 27.0 + 0.5 * k + root_disc) ** (1.0 / 3.0)
        s = a + 1.0 / (9.0 * a) - 2.0 / 3.0
    s -= (s * (1.0 + s) ** 2 - k) / ((1.0 + s) * (1.0 + 3.0 * s))
    return s * s


@dataclass(frozen=True)
class SuccessRate:
    """An investment-to-success-probability map with its derived quantities.

    ``epsilon`` is the cap parameter: ``p(x) <= 1 - epsilon`` everywhere.
    ``domain_cap`` is the largest investment the numeric evaluators are
    validated on; evaluations beyond it raise :class:`DomainError`, since
    no quantity the solvers produce requires larger arguments.  It must be
    finite and positive, or construction raises :class:`DomainError`.
    """

    name: str
    epsilon: float
    domain_cap: float
    _p: Callable[[float], float] = field(repr=False)
    _p_prime: Callable[[float], float] = field(repr=False)
    _prize: Callable[[float], float] | None = field(default=None, repr=False)
    _prize_slope: Callable[[float], float] | None = field(default=None, repr=False)
    _return_inverse: Callable[[float], float] | None = field(default=None, repr=False)
    # set once by ``max_return``; a field, so that attribute reads on the
    # rate stay as fast as before it is set (a ``cached_property`` would
    # materialise the instance ``__dict__`` and slow every ``self._p`` read)
    _max_return: float | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.domain_cap) and self.domain_cap > 0.0):
            raise DomainError(
                f"{self.name}: domain_cap must be finite and positive, got {self.domain_cap!r}"
            )

    @property
    def max_return(self) -> float:
        """``required_return(domain_cap)``: the largest return an investment attains."""
        if self._max_return is None:
            object.__setattr__(self, "_max_return", self.required_return(self.domain_cap))
        return self._max_return

    def _check(self, x: float, *, positive: bool = False) -> float:
        # the evaluators accept a float in the domain inline and call this
        # only for anything else: it converts an int, a bool or a numpy
        # scalar, and is the one place that words a domain error
        x = float(x)
        # one comparison accepts every valid investment (NaN fails it, and
        # the cap is finite); the branches below only word the error
        if 0.0 < x <= self.domain_cap or (x == 0.0 and not positive):
            return x
        if not math.isfinite(x):
            raise DomainError(f"{self.name}: investment must be finite, got {x!r}")
        if x < 0.0:
            raise DomainError(f"{self.name}: investment must be >= 0, got {x!r}")
        if x == 0.0:
            raise DomainError(f"{self.name}: investment must be > 0 here")
        raise DomainError(
            f"{self.name}: investment {x:g} exceeds domain cap {self.domain_cap:g}"
        )

    def probability(self, x: float) -> float:
        """Success probability ``p(x)``."""
        if x.__class__ is not float or not 0.0 <= x <= self.domain_cap:
            x = self._check(x)
        return self._p(x)

    def marginal(self, x: float) -> float:
        """Marginal success probability ``p'(x)``; may be ``inf`` at zero."""
        if x.__class__ is not float or not 0.0 <= x <= self.domain_cap:
            x = self._check(x)
        return self._p_prime(x)

    def incentive_prize(self, x: float) -> float:
        """Gross prize ``p(x) / p'(x)`` making ``x`` an optimal investment."""
        if x.__class__ is not float or not 0.0 <= x <= self.domain_cap:
            x = self._check(x)
        if self._prize is not None:
            return self._prize(x)
        if x == 0.0:
            return 0.0
        return self._p(x) / self._p_prime(x)

    def incentive_prize_slope(self, x: float) -> float:
        """Derivative of :meth:`incentive_prize`.

        Closed form for the built-in families.  For custom rates a
        central finite difference with step ``h = min(max(1e-6, 1e-6 * x),
        x / 2)``; where ``x + h`` would pass ``domain_cap`` (at the cap and
        within ``h`` of it) the backward difference over ``[x - h, x]``,
        so every ``x`` in ``(0, domain_cap]`` has a slope.  Requires
        ``x > 0``.
        """
        if x.__class__ is not float or not 0.0 < x <= self.domain_cap:
            x = self._check(x, positive=True)
        if self._prize_slope is not None:
            return self._prize_slope(x)
        h = max(1e-6, 1e-6 * x)
        h = min(h, 0.5 * x)
        if x + h <= self.domain_cap:
            return (self.incentive_prize(x + h) - self.incentive_prize(x - h)) / (2.0 * h)
        return (self.incentive_prize(x) - self.incentive_prize(x - h)) / h

    def required_return(self, x: float) -> float:
        """Return ratio ``incentive_prize(x) / p(x) = 1 / p'(x)``.

        The limit convention at zero gives 0 (the rate is steep at zero).
        Strictly increasing, which makes it invertible; see
        :func:`seqinvest.equilibrium.investment_for_return`.
        """
        if x.__class__ is not float or not 0.0 <= x <= self.domain_cap:
            x = self._check(x)
        if x == 0.0:
            return 0.0
        d = self._p_prime(x)
        if d <= 0.0:
            return math.inf
        return 1.0 / d


def _sqrt_family(name: str, epsilon: float, domain_cap: float) -> SuccessRate:
    # both built-in families: the unit form scaled by 1 - epsilon, which
    # at epsilon 0 multiplies by exactly 1 and so changes no bit
    scale = 1.0 - epsilon

    def p(x: float) -> float:
        s = math.sqrt(x)
        return scale * (s / (1.0 + s))

    def p_prime(x: float) -> float:
        if x == 0.0:
            return math.inf
        s = math.sqrt(x)
        return scale * (1.0 / (2.0 * s * (1.0 + s) ** 2))

    def return_inverse(t: float) -> float:
        return _sqrt_investment(0.5 * scale * t)

    return SuccessRate(
        name, epsilon, domain_cap, p, p_prime, _sqrt_prize, _sqrt_prize_slope, return_inverse
    )


def sqrt_ratio(domain_cap: float = DEFAULT_DOMAIN_CAP) -> SuccessRate:
    """The reference family ``p(x) = sqrt(x) / (1 + sqrt(x))`` (cap 0)."""
    return _sqrt_family("sqrt_ratio", 0.0, domain_cap)


def scaled_sqrt_ratio(
    epsilon: float, domain_cap: float = DEFAULT_DOMAIN_CAP
) -> SuccessRate:
    """``p(x) = (1 - epsilon) sqrt(x) / (1 + sqrt(x))`` with cap ``epsilon``."""
    if not 0.0 < epsilon < 1.0:
        raise DomainError(f"epsilon must be in (0, 1), got {epsilon!r}")
    return _sqrt_family(f"scaled_sqrt_ratio(eps={epsilon:g})", epsilon, domain_cap)


def custom_rate(
    name: str,
    p: Callable[[float], float],
    p_prime: Callable[[float], float],
    *,
    epsilon: float = 0.0,
    domain_cap: float = DEFAULT_DOMAIN_CAP,
) -> SuccessRate:
    """Wrap user-supplied ``p`` and ``p'`` evaluators.

    The prize and its slope are derived, so the caller's contract stays
    minimal; run :func:`validate` to diagnose assumption violations.
    """
    if not 0.0 <= epsilon < 1.0:
        raise DomainError(f"epsilon must be in [0, 1), got {epsilon!r}")
    return SuccessRate(name, epsilon, domain_cap, p, p_prime)


def rate_from_config(
    family: str, epsilon: float = 0.0, *, domain_cap: float = DEFAULT_DOMAIN_CAP
) -> SuccessRate:
    """Build a built-in rate from its configuration fields.

    ``family`` is ``sqrt_ratio`` (cap 0, so ``epsilon`` must be 0) or
    ``scaled_sqrt_ratio``; a custom rate has no configuration form, so
    pass the :func:`custom_rate` object.
    """
    if family == "sqrt_ratio":
        if epsilon != 0.0:  # NaN included
            raise DomainError(f"sqrt_ratio has cap 0 and takes no epsilon, got {epsilon!r}")
        return sqrt_ratio(domain_cap)
    if family == "scaled_sqrt_ratio":
        return scaled_sqrt_ratio(epsilon, domain_cap)
    raise DomainError(f"unknown rate family {family!r}")


class CheckResult(NamedTuple):
    name: str
    passed: bool
    worst_x: float | None = None
    worst_value: float | None = None


class ValidationReport(NamedTuple):
    """Per-assumption grid checks for a rate; failures are data, not errors."""

    rate: str
    checks: tuple[CheckResult, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            extra = ""
            if not c.passed and c.worst_x is not None:
                value = "n/a" if c.worst_value is None else f"{c.worst_value:.6g}"
                extra = f"  worst at x={c.worst_x:.6g} ({value})"
            out.append(f"{status}  {c.name}{extra}")
        return out


def _safe_eval(fn: Callable[[float], float], x: float) -> float:
    try:
        return float(fn(x))
    except Exception:
        return math.nan


def _diff(xs: list[float]) -> list[float]:
    return [b - a for a, b in zip(xs, xs[1:])]


def _first(flags: Iterable[bool]) -> int | None:
    return next((i for i, flag in enumerate(flags) if flag), None)


def validate(sr: SuccessRate, points: int = 512) -> ValidationReport:
    """Check the modelling assumptions on a logarithmic grid.

    The grid is ``points`` floats from ``1e-9`` to ``domain_cap``, spaced
    as by ``numpy.geomspace`` but computed in plain Python.  Checks:
    ``p(0) = 0``; ``p`` evaluable, strictly increasing and concave (divided
    differences strictly decreasing); prize above investment (``p/p' > x``
    for ``x > 0``); prize convex (second divided differences at least
    ``-_TOL_CONVEX``); prize vanishing at zero (value at the smallest grid
    point at most ``_TOL_LIMIT``).  Raises :class:`DomainError` only when
    there is no grid of 3 distinct points; pathological rates are reported,
    never raised, so they can be diagnosed.
    """
    if points < 3 or not sr.domain_cap > 1e-9:
        raise DomainError(f"validate: points {points} < 3 or domain_cap {sr.domain_cap!r} <= 1e-9")
    step = (math.log10(sr.domain_cap) + 9.0) / (points - 1)
    grid = [1e-9, *(10.0 ** (i * step - 9.0) for i in range(1, points - 1)), float(sr.domain_cap)]
    widths = _diff(grid)
    if 0.0 in widths:  # a cap within rounding of 1e-9 repeats grid points
        raise DomainError(f"domain_cap {sr.domain_cap!r} is too close to 1e-9 for {points} points")
    pv = [_safe_eval(sr.probability, x) for x in grid]
    gv = [_safe_eval(sr.incentive_prize, x) for x in grid]
    checks: list[CheckResult] = []

    try:
        p0 = sr.probability(0.0)
        checks.append(CheckResult("starts_at_zero", bool(abs(p0) <= 1e-12), 0.0, p0))
    except Exception:  # pragma: no cover - defensive
        checks.append(CheckResult("starts_at_zero", False, 0.0, None))

    j = _first(math.isnan(v) for v in pv)
    if j is None:
        checks.append(CheckResult("evaluable", True))
    else:
        checks.append(CheckResult("evaluable", False, grid[j], None))

    def grid_check(name: str, values: list[float], ok: Callable[[float], bool],
                   source: list[float], *, highest: bool = False, shift: int = 0) -> CheckResult:
        # ``values[j]`` belongs to grid point ``j + shift``; ``ok`` is a
        # threshold, so every value passes iff the worst one (the highest or
        # the lowest) does.  NaN values fail: when they are the only
        # failures, the check is blamed on the first grid point where
        # ``source`` (the evaluations the values derive from) is not finite;
        # otherwise the worst finite value fails and is reported.
        kept = [j for j, v in enumerate(values) if not math.isnan(v)]
        j = (max if highest else min)(kept, key=values.__getitem__, default=None)
        if len(kept) < len(values) and (j is None or ok(values[j])):
            bad = _first(not math.isfinite(v) for v in source)
            if bad is None:
                bad = _first(math.isnan(v) for v in values) + shift
            return CheckResult(name, False, grid[bad], math.nan)
        return CheckResult(name, ok(values[j]), grid[j + shift], values[j])

    diffs = _diff(pv)
    dslopes = _diff([d / w for d, w in zip(diffs, widths)])
    margin = [g - x for g, x in zip(gv, grid)]
    curv = _diff([d / w for d, w in zip(_diff(gv), widths)])
    checks += [
        grid_check("increasing", diffs, lambda v: v > 0.0, pv),
        grid_check("concave", dslopes, lambda v: v < 0.0, pv, highest=True, shift=1),
        grid_check("prize_exceeds_investment", margin, lambda v: v > 0.0, gv),
        grid_check("prize_convex", curv, lambda v: v >= -_TOL_CONVEX, gv, shift=1),
    ]

    ok = math.isfinite(gv[0]) and abs(gv[0]) <= _TOL_LIMIT
    checks.append(CheckResult("prize_vanishes_at_zero", ok, grid[0], gv[0]))

    return ValidationReport(sr.name, tuple(checks))
