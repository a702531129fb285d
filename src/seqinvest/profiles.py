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
* ``expected_welfare``    ``W = V - I = sum_j reach(j) * (1 - x_j)``,
* ``incentive_cost``      ``G = sum_j reach(j) * prize(x_j)`` (aggregate
  gross prize needed to make the profile a best response everywhere).

Each functional, and each continuation reward of :mod:`seqinvest.rules`,
is a walk of one series kernel that takes the values of the agents it
visits, their success probabilities and their terms, and reads no rate
and calls nothing; its callers read ``p`` once per agent they walk and
hand over the terms they already hold, or map them lazily.

``flatten_tail`` replaces everything from position ``k`` on with the
constant ``c`` that preserves ``V``, the root of ``1 / (1 - p(c)) =
V(x_k, x_{k+1}, ...)``; with ``p`` concave and the prize convex this
never increases ``I`` or ``G``, which is what makes constant-tail
profiles the right search space for the optimal programs.

:class:`ConstantTailProfile` is a frozen dataclass because construction
checks and canonicalises its entries; :class:`FunctionalValues`, a
computed result, is a ``typing.NamedTuple``: it unpacks and indexes like a
tuple and is copied with ``._replace``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .errors import DivergenceError, DomainError, InfeasibleError, _check_count, _index, _real
from .rates import SuccessRate

_FLATTEN_VTOL = 1e-10


def _check_entry(v: float, what: str) -> float:
    # a float skips the conversion on one class test, as this runs per
    # entry of every profile built; any other real converts, text does not
    v = v if v.__class__ is float else _real(what, v)
    if not 0.0 <= v < math.inf:  # NaN included
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
        # entries equal to the tail are cut in one slice, not one by one
        n = len(prefix)
        while n and prefix[n - 1] == tail:
            n -= 1
        object.__setattr__(self, "prefix", prefix[:n])
        object.__setattr__(self, "tail", tail)

    @property
    def prefix_len(self) -> int:
        return len(self.prefix)

    def at(self, j: int) -> float:
        """Investment of agent ``j``, an integer of at least 0."""
        # called by hand, not once per series term (the series take the
        # stored investments), so every index goes through the integer rule
        j = _check_count("agent index", j, 0)
        return self.prefix[j] if j < len(self.prefix) else self.tail

    def describe(self) -> str:
        inner = ", ".join(f"{v:g}" for v in self.prefix)
        return f"({inner}{', ' if inner else ''}{self.tail:g}, {self.tail:g}, ...)"


def constant_profile(c: float) -> ConstantTailProfile:
    return ConstantTailProfile((), c)


def near_constant_profile(x0: float, c: float) -> ConstantTailProfile:
    return ConstantTailProfile((x0,), c)


class FunctionalValues(NamedTuple):
    """The four process functionals; ``welfare = value - investment``,
    which can differ from :func:`expected_welfare`'s one-pass sum in its
    last digits (by up to 9.2e-13 relative on 20,000 random profiles), and
    is then mostly the farther of the two from the exact value."""

    value: float
    investment: float
    incentive_cost: float

    @property
    def welfare(self) -> float:
        return self.value - self.investment


def _divergence(pc: float) -> DivergenceError:
    # a constant tail's series closes only for p(c) = pc below 1
    return DivergenceError(f"tail success probability {pc:g} >= 1; series diverges")


def _walk(sr: SuccessRate, x: ConstantTailProfile, start: int, stop: int) -> tuple[list[float], float]:
    # the tail's p, read first, and the prefix's from agent start up to
    # stop, the probs of one _reach_series walk from agent start: the list
    # ends where the walk's reach hits 0, so no rate is evaluated past an
    # unreachable agent
    pc = sr.probability(x.tail)
    probs: list[float] = []
    reach = 1.0
    for v in x.prefix[start:stop]:
        pj = sr.probability(v)
        probs.append(pj)
        reach *= pj
        if reach == 0.0:
            break
    return probs, pc


def _reach_series(
    probs: list[float], n: int, pc: float, terms: Iterable[float], last: float,
    stops: bool = False, slope: float = 0.0,
) -> float:
    """The one reach-weighted series, with the one closure over the constant tail.

    Walks agents ``0, 1, ...`` of its own and reads no rate: ``probs[j]``
    is ``p`` of agent ``j < n``, a prefix agent, and ``pc`` that of every
    later one; a list too short for the prefix fails on its index.  Sums
    ``reach * terms[j]``, ``reach`` being the chance that agents ``0 .. j -
    1`` all succeed, or with ``stops`` ``reach * (1 - p_j) * terms[j]``,
    taking ``terms`` (any iterable) one per agent until the reach is 0.
    After them the profile is at its tail and the term is ``last``, or with
    ``stops`` affine, ``last + slope * t`` ``t`` agents on; that rest closes
    as ``reach * last / (1 - p_c)``, or ``reach * (last + slope * p_c / (1 -
    p_c))``.
    """
    if pc >= 1.0:
        raise _divergence(pc)
    total = 0.0
    reach = 1.0
    for j, term in enumerate(terms):
        pj = probs[j] if j < n else pc
        total += (reach * (1.0 - pj) if stops else reach) * term
        reach *= pj
        if reach == 0.0:
            break
    if stops:
        return total + reach * (last + slope * pc / (1.0 - pc))
    return total + reach * last / (1.0 - pc)


def _profile_series(sr: SuccessRate, x: ConstantTailProfile, term) -> float:
    # a series over the whole profile from agent 0, one read of p per
    # agent, with term mapped lazily over the investments
    m = len(x.prefix)
    probs, pc = _walk(sr, x, 0, m)
    return _reach_series(probs, m, pc, map(term, x.prefix), term(x.tail))


def expected_value(sr: SuccessRate, x: ConstantTailProfile) -> float:
    return _profile_series(sr, x, lambda _: 1.0)


def expected_investment(sr: SuccessRate, x: ConstantTailProfile) -> float:
    return _profile_series(sr, x, float)


def expected_welfare(sr: SuccessRate, x: ConstantTailProfile) -> float:
    # V - I in one pass over the profile
    return _profile_series(sr, x, lambda v: 1.0 - v)


def incentive_cost(sr: SuccessRate, x: ConstantTailProfile) -> float:
    return _profile_series(sr, x, sr.incentive_prize)


def functionals(sr: SuccessRate, x: ConstantTailProfile) -> FunctionalValues:
    # the three series from one read of the profile's p; each sums the
    # terms its own function sums, in the same order
    m = len(x.prefix)
    probs, pc = _walk(sr, x, 0, m)
    prize = sr.incentive_prize
    return FunctionalValues(
        value=_reach_series(probs, m, pc, [1.0] * m, 1.0),
        investment=_reach_series(probs, m, pc, x.prefix, x.tail),
        incentive_cost=_reach_series(probs, m, pc, map(prize, x.prefix), prize(x.tail)),
    )


def flatten_tail(sr: SuccessRate, x: ConstantTailProfile, k: int) -> ConstantTailProfile:
    """Constant-from-``k`` profile with the same expected value.

    Keeps ``x_0 .. x_{k-1}``; from ``k`` on a constant tail ``c`` is worth
    ``reach_k / (1 - p(c))``, so the tail solves ``1 / (1 - p(c)) = V(x_k,
    x_{k+1}, ...)``, the suffix's :func:`expected_value`, by a bracketed solve
    (the left side is strictly increasing in ``c``); behind an agent whose
    ``p`` is 0 the tail is 0.  ``k`` is an integer in ``[0, prefix_len]``,
    or :class:`DomainError` is raised.
    """
    k = _index("flatten position", k)
    if k < 0 or k > x.prefix_len:
        raise DomainError(f"flatten position must be in [0, {x.prefix_len}], got {k}")
    if k == x.prefix_len:
        return x
    # imported here, its only use, so that loading profiles (as every rule
    # does) leaves the solver layer unloaded
    from .solvers import bisect

    head = x.prefix[:k]
    # past an agent who surely fails nothing adds value, and no rate is
    # evaluated; a reach that is only tiny, or underflows, keeps the suffix
    if not all(map(sr.probability, head)):
        return ConstantTailProfile(head, 0.0)
    suffix = expected_value(sr, ConstantTailProfile(x.prefix[k:], x.tail))

    def gap(c: float) -> float:
        pc = sr.probability(c)
        if pc >= 1.0:
            raise _divergence(pc)
        return 1.0 / (1.0 - pc) - suffix

    c = 0.0 if gap(0.0) >= 0.0 else bisect(gap, 0.0, min(1.0, sr.domain_cap), limit=sr.domain_cap)
    # the value match, in units of the suffix's value
    if abs(gap(c)) > _FLATTEN_VTOL * suffix:
        raise InfeasibleError("flattening failed to match the expected value")
    return ConstantTailProfile(head, c)
