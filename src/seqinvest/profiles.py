"""Constant-tail investment profiles and the process functionals.

A profile assigns a non-negative investment to every agent along the
chain.  The library represents only profiles that are eventually
constant: a finite prefix followed by one tail value repeated forever.
Every profile the solvers produce or compare against has this shape, and
it is exactly the shape under which the expected-value series below have
closed geometric tails.  Profiles whose expected investment diverges
(which requires a non-constant infinite tail) are therefore excluded at
the representation level.

With ``reach(j)`` the probability that agent ``j`` is reached (all
predecessors succeeded), the functionals are

* ``expected_value``      ``V = sum_j reach(j)``          (value created,
  counting the initiator's unit),
* ``expected_investment`` ``I = sum_j reach(j) * x_j``    (every reached
  agent invests, including the one who fails),
* ``expected_welfare``    ``W = V - I``,
* ``incentive_cost``      ``G = sum_j reach(j) * prize(x_j)`` (aggregate
  gross prize needed to make the profile a best response everywhere).

``flatten_tail`` replaces everything from position ``k`` on with the
constant that preserves ``V``; with ``p`` concave and the prize convex
this never increases ``I`` or ``G``, which is what makes constant-tail
profiles the right search space for the optimal programs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DivergenceError, DomainError, InfeasibleError
from .rates import SuccessRate
from .solvers import bisect

_FLATTEN_XTOL = 1e-12
_FLATTEN_VTOL = 1e-10


def _check_entry(v: float, what: str) -> float:
    v = float(v)
    if not math.isfinite(v) or v < 0.0:
        raise DomainError(f"{what} must be finite and >= 0, got {v!r}")
    return v


@dataclass(frozen=True)
class ConstantTailProfile:
    """Investments ``(x_0, ..., x_{m-1}, c, c, ...)`` in canonical form.

    Canonical means the last prefix entry differs from the tail (equal
    entries are absorbed into it), so the all-equal profile has an empty
    prefix.  Instances are immutable and safe to share.
    """

    prefix: tuple[float, ...] = ()
    tail: float = 0.0

    def __post_init__(self) -> None:
        prefix = tuple(_check_entry(v, "profile entry") for v in self.prefix)
        tail = _check_entry(self.tail, "profile tail")
        while prefix and prefix[-1] == tail:
            prefix = prefix[:-1]
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "tail", tail)

    @property
    def prefix_len(self) -> int:
        return len(self.prefix)

    def at(self, j: int) -> float:
        """Investment of agent ``j``."""
        if j < 0:
            raise DomainError(f"agent index must be >= 0, got {j}")
        return self.prefix[j] if j < len(self.prefix) else self.tail

    def describe(self) -> str:
        inner = ", ".join(f"{v:g}" for v in self.prefix)
        return f"({inner}{', ' if inner else ''}{self.tail:g}, {self.tail:g}, ...)"


def constant_profile(c: float) -> ConstantTailProfile:
    return ConstantTailProfile((), c)


def near_constant_profile(x0: float, c: float) -> ConstantTailProfile:
    return ConstantTailProfile((x0,), c)


@dataclass(frozen=True)
class FunctionalValues:
    """The four process functionals; ``welfare = value - investment``."""

    value: float
    investment: float
    welfare: float
    incentive_cost: float


def reach_probability(sr: SuccessRate, x: ConstantTailProfile, j: int) -> float:
    """Probability that agent ``j`` is reached: product of p over agents < j."""
    if j < 0:
        raise DomainError(f"agent index must be >= 0, got {j}")
    out = 1.0
    m = min(j, x.prefix_len)
    for i in range(m):
        out *= sr.probability(x.prefix[i])
        if out == 0.0:
            return 0.0
    if j > m:
        out *= sr.probability(x.tail) ** (j - m)
    return out


def _reach_series(
    sr: SuccessRate, x: ConstantTailProfile, start: int, stop: int, term, stops: bool = False
) -> tuple[float, float, float]:
    """The one reach-weighted loop: ``(explicit sum, reach at stop, p_tail)``.

    Sums ``reach * term(j)`` over agents ``start <= j < stop``, ``reach``
    being the chance that agents ``start .. j - 1`` all succeed; ``stops``
    weights each term by ``1 - p(x_j)``, as ``reach * (1 - p) * term``.
    Callers add their own closure over the constant tail.
    """
    pc = sr.probability(x.tail)
    if pc >= 1.0:
        raise DivergenceError(f"tail success probability {pc:g} >= 1; series diverges")
    total = 0.0
    reach = 1.0
    for j in range(start, stop):
        pj = sr.probability(x.at(j))
        total += (reach * (1.0 - pj) if stops else reach) * term(j)
        reach *= pj
        if reach == 0.0:
            break
    return total, reach, pc


def _series(sr: SuccessRate, x: ConstantTailProfile, term) -> float:
    # sum_j reach(j) * term(x_j), with the geometric closure over the tail
    total, reach, pc = _reach_series(sr, x, 0, x.prefix_len, lambda j: term(x.at(j)))
    return total + reach * term(x.tail) / (1.0 - pc)


def expected_value(sr: SuccessRate, x: ConstantTailProfile) -> float:
    return _series(sr, x, lambda _: 1.0)


def expected_investment(sr: SuccessRate, x: ConstantTailProfile) -> float:
    return _series(sr, x, lambda v: v)


def expected_welfare(sr: SuccessRate, x: ConstantTailProfile) -> float:
    return expected_value(sr, x) - expected_investment(sr, x)


def incentive_cost(sr: SuccessRate, x: ConstantTailProfile) -> float:
    return _series(sr, x, sr.incentive_prize)


def functionals(sr: SuccessRate, x: ConstantTailProfile) -> FunctionalValues:
    value = expected_value(sr, x)
    investment = expected_investment(sr, x)
    return FunctionalValues(
        value=value,
        investment=investment,
        welfare=value - investment,
        incentive_cost=incentive_cost(sr, x),
    )


def flatten_tail(sr: SuccessRate, x: ConstantTailProfile, k: int) -> ConstantTailProfile:
    """Constant-from-``k`` profile with the same expected value.

    Keeps ``x_0 .. x_{k-1}`` and replaces everything after with the
    unique tail value matching ``expected_value``; the match is found by
    bisection on the tail (the expected value is strictly increasing in
    it whenever position ``k`` is reachable).
    """
    if k < 0 or k > x.prefix_len:
        raise DomainError(
            f"flatten position must be in [0, {x.prefix_len}], got {k}"
        )
    if k == x.prefix_len:
        return x
    target = expected_value(sr, x)
    head = tuple(x.prefix[:k])
    if reach_probability(sr, x, k) <= 1e-300:
        return ConstantTailProfile(head, 0.0)

    def gap(c: float) -> float:
        return expected_value(sr, ConstantTailProfile(head, c)) - target

    if gap(0.0) >= 0.0:
        flat = ConstantTailProfile(head, 0.0)
    else:
        c = bisect(gap, 0.0, 1.0, limit=sr.domain_cap, xtol=_FLATTEN_XTOL)
        flat = ConstantTailProfile(head, c)
    if abs(expected_value(sr, flat) - target) > _FLATTEN_VTOL * max(1.0, target):
        raise InfeasibleError("flattening failed to match the expected value")
    return flat
