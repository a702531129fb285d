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
is a walk of one series kernel that takes the success probabilities of
the agents it visits and reads no rate; its callers read ``p`` once per
agent they walk.

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
from typing import NamedTuple

from .errors import DivergenceError, DomainError, InfeasibleError, _check_count, _index, _real
from .rates import SuccessRate

_FLATTEN_XTOL = 1e-12
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
        while prefix and prefix[-1] == tail:
            prefix = prefix[:-1]
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "tail", tail)

    @property
    def prefix_len(self) -> int:
        return len(self.prefix)

    def at(self, j: int) -> float:
        """Investment of agent ``j``, an integer of at least 0."""
        # a non-negative int passes on one inline test, since this runs once
        # per term of every series; anything else goes through the integer rule
        if j.__class__ is not int or j < 0:
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
    """The four process functionals; ``welfare = value - investment``."""

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
    # stop, for one single walk of _reach_series: the list ends where the
    # walk's reach hits 0, so no rate is evaluated past an unreachable agent
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
    probs: list[float], pc: float, prefix_len: int, start: int, stop: int, term,
    stops: bool = False, slope: float = 0.0,
) -> float:
    """The one reach-weighted series, with the one closure over the constant tail.

    Reads no rate: ``probs[j - start]`` is ``p`` of prefix agent ``j <
    prefix_len`` and ``pc`` that of the tail, every agent from ``prefix_len``
    on; a list that stops before the walk does fails on its index.  Single
    walks read them through ``_walk``, ``functionals`` once for its three
    series, ``verify_equilibrium`` once for all the agents it checks.

    Sums ``reach * term(j)`` over agents ``j >= start``, ``reach`` being
    the chance that agents ``start .. j - 1`` all succeed; ``stops``
    weights each term by ``1 - p(x_j)``, as ``reach * (1 - p) * term``.
    Agents before ``stop`` are summed one by one, until the reach is 0.
    From ``stop`` on the profile is at its tail and ``term`` is constant,
    or with ``stops`` affine, ``term(stop) + slope * (j - stop)``; that
    rest closes as ``reach * term(stop) / (1 - p_c)``, or with ``stops`` as
    ``reach * (term(stop) + slope * p_c / (1 - p_c))``.
    """
    if pc >= 1.0:
        raise _divergence(pc)
    total = 0.0
    reach = 1.0
    for j in range(start, stop):
        pj = probs[j - start] if j < prefix_len else pc
        total += (reach * (1.0 - pj) if stops else reach) * term(j)
        reach *= pj
        if reach == 0.0:
            break
    if stops:
        return total + reach * (term(stop) + slope * pc / (1.0 - pc))
    return total + reach * term(stop) / (1.0 - pc)


def _profile_series(sr: SuccessRate, x: ConstantTailProfile, term) -> float:
    # a series over the whole profile from agent 0, one read of p per agent
    m = len(x.prefix)
    probs, pc = _walk(sr, x, 0, m)
    return _reach_series(probs, pc, m, 0, m, term)


def expected_value(sr: SuccessRate, x: ConstantTailProfile) -> float:
    return _profile_series(sr, x, lambda _: 1.0)


def expected_investment(sr: SuccessRate, x: ConstantTailProfile) -> float:
    return _profile_series(sr, x, x.at)


def expected_welfare(sr: SuccessRate, x: ConstantTailProfile) -> float:
    # V - I in one pass over the profile
    return _profile_series(sr, x, lambda j: 1.0 - x.at(j))


def incentive_cost(sr: SuccessRate, x: ConstantTailProfile) -> float:
    return _profile_series(sr, x, lambda j: sr.incentive_prize(x.at(j)))


def functionals(sr: SuccessRate, x: ConstantTailProfile) -> FunctionalValues:
    # the three series from one read of the profile's p; each sums the
    # terms its own function sums, in the same order
    m = len(x.prefix)
    probs, pc = _walk(sr, x, 0, m)
    value = _reach_series(probs, pc, m, 0, m, lambda _: 1.0)
    investment = _reach_series(probs, pc, m, 0, m, x.at)
    return FunctionalValues(
        value=value,
        investment=investment,
        incentive_cost=_reach_series(probs, pc, m, 0, m, lambda j: sr.incentive_prize(x.at(j))),
    )


def flatten_tail(sr: SuccessRate, x: ConstantTailProfile, k: int) -> ConstantTailProfile:
    """Constant-from-``k`` profile with the same expected value.

    Keeps ``x_0 .. x_{k-1}``; from ``k`` on a constant tail ``c`` is worth
    ``reach_k / (1 - p(c))``, so the tail solves ``1 / (1 - p(c)) = V(x_k,
    x_{k+1}, ...)``, the suffix's value walked once, by a bracketed solve
    (the left side is strictly increasing in ``c``).  ``k`` is an integer
    in ``[0, prefix_len]``, or :class:`DomainError` is raised.
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
    # the chance that position k is reached; no rate is evaluated past an
    # unreachable agent, where the suffix's walk only checks the tail
    reach = 1.0
    for v in head:
        reach *= sr.probability(v)
        if reach == 0.0:
            break
    stop = x.prefix_len if reach else k
    probs, pc = _walk(sr, x, k, stop)
    suffix = _reach_series(probs, pc, x.prefix_len, k, stop, lambda _: 1.0)
    if reach <= 1e-300:
        return ConstantTailProfile(head, 0.0)

    def gap(c: float) -> float:
        pc = sr.probability(c)
        if pc >= 1.0:
            raise _divergence(pc)
        return 1.0 / (1.0 - pc) - suffix

    c = 0.0 if gap(0.0) >= 0.0 else bisect(gap, 0.0, min(1.0, sr.domain_cap),
                                           limit=sr.domain_cap, xtol=_FLATTEN_XTOL)
    # the value match, in units of the suffix's value
    if abs(gap(c)) > _FLATTEN_VTOL * suffix:
        raise InfeasibleError("flattening failed to match the expected value")
    return ConstantTailProfile(head, c)
