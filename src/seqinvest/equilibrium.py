"""Best responses, equilibrium verification, bounds, and rule synthesis.

An agent reached by the chain weighs the stay-put payment ``f(i, i)``
against the continuation reward ``R_i`` earned on success.  The first-
order condition is

    ``R_i - f(i, i) = required_return(x_i)``        (interior optimum)

with the corner ``x_i = 0`` optimal whenever ``R_i <= f(i, i)``.  Since
``required_return`` is strictly increasing, a best response is the
inverse image of the net return, which is what
:func:`investment_for_return` computes: in closed form for the built-in
rate families, by bracketing for custom rates.

A rule *supports* a profile when every agent's investment is a best
response; :func:`verify_equilibrium` checks the condition for every
prefix agent plus one representative tail agent.  That is legitimate
because past ``max(prefix length, rule.stationary_from)`` every agent
faces a shifted copy of the same column against the same constant tail,
so every later agent's check is bit-identical to the representative's.
It reads each checked agent's column once, for the stay-put payment
``f(i, i)``, the continuation reward and the self-financed checks alike,
and checks the tolerance once per call.  It reads ``p`` and the required
return of each profile entry from one band read (``SuccessRate._band_at``),
once for all agents: the tail's once for every checked tail agent.  Its
records, computed and not checked, are packed from their fields.

The self-financed variant caps each agent's investment by their own
stay-put payment (``x_i <= f(i, i) <= f(i, j)``): the money an agent can
sink must have been set aside for them no matter how the chain ends.
The corner ``x_i = f(i, i)`` with excess return is then also an optimum.

:func:`near_constant_feasibility` and :func:`synthesize_rule` implement
the support characterization for near-constant profiles
``(x0, c, c, ...)`` with per-agent floor ``gamma``: the profile is
supportable if and only if

    ``max(r(c) + gamma - 2, 0) <= r(x0) <= (1 - gamma - prize(c)) / (1 - p(c))``

where ``r`` is the required-return ratio.  The synthesizer builds the
two endpoint rules attaining the bounds and mixes them with the weight
that lands the initiator's net return exactly on ``r(x0)``.  Both edges
and the tail's required return, which the endpoint rules read, come from
one evaluation of ``p(c)``, ``r(c)`` and ``prize(c)`` in ``_band``, the
one place either edge is formed, for every caller; each endpoint's net
return to the initiator is read against that same ``p(c)``, so synthesis
evaluates ``p`` at the tail once.  The two
bounds, and the constant-profile condition ``p(c) >= prize(c)``, are
checked with one slack, ``_SUPPORT_TOL``; a return within it of an
endpoint gets the endpoint rule itself.

Every result this module returns (:class:`AgentCheck`,
:class:`EquilibriumReport`, :class:`BoundSchedule`,
:class:`DynamicsResult`, :class:`ConstantSupport`,
:class:`NearConstantFeasibility`) is a ``typing.NamedTuple``: computed, not
validated, so it unpacks and indexes like a tuple and is copied with
``._replace``.  A record holds no value it can read from another:
``supported``, ``sweeps``, ``converged`` and ``feasible`` are properties
of the fields that decide them, and :class:`BoundSchedule` is its rate
alone, whose cap each bound reads.
"""

from __future__ import annotations

import enum
import math
import sys
from typing import NamedTuple

from .errors import (
    DomainError,
    InfeasibleError,
    TailShapeError,
    UnboundedRatioError,
    _check_count,
    _real,
)
from .profiles import ConstantTailProfile
from .rates import SuccessRate
from .rules import (
    Column,
    Mixture,
    StationaryColumnRule,
    _agent_reward,
    _column_reward,
    _column_series,
    _payoff,
    fixed_fraction_floor,
    flat_continuation,
    next_step_bonus,
    next_step_bonus_zero_initiator,
)

TOL_EQ = 1e-8
_SUPPORT_TOL = 1e-9  # slack on the support bounds of constant and near-constant profiles


class Mode(enum.Enum):
    UNCONSTRAINED = "unconstrained"
    SELF_FINANCED = "self_financed"


# Compared against in the per-point and per-agent loops: reading a member
# through the Enum class costs about 230 to 250 ns on Python 3.10 and 3.11 (a
# metaclass lookup), against about 15 ns for a module global.
_SELF_FINANCED = Mode.SELF_FINANCED
_UNCONSTRAINED = Mode.UNCONSTRAINED


def _as_mode(mode: Mode | str) -> Mode:
    # once on entry to each public function that takes a mode: a member
    # passes by identity, a value string converts, anything else is named;
    # unconverted, "self_financed" is not _SELF_FINANCED, so it would run
    # the unconstrained checks
    if mode is _UNCONSTRAINED or mode is _SELF_FINANCED:
        return mode
    try:
        return Mode(mode)
    except ValueError:
        raise DomainError(
            f"mode must be a Mode or one of {[m.value for m in Mode]}, got {mode!r}"
        ) from None


def investment_for_return(sr: SuccessRate, t: float) -> float:
    """The investment whose required return equals ``t`` (0 for ``t <= 0``).

    Uses the rate's closed-form inverse when it has one (the built-in
    families), clipped to the domain cap against rounding; otherwise
    bracket-doubles from ``[0, 1]`` and solves to the solver's default
    ``xtol`` (``1e-12``) relative to the bracket, so a tiny target keeps
    its relative accuracy.  Raises :class:`UnboundedRatioError` when ``t``
    exceeds the ratio at the rate's domain cap.
    """
    # one comparison accepts every attainable float target, and reads
    # max_return only for a positive one, from its field once it is set;
    # the branches below convert any other number and sort out the rest,
    # where a NaN or infinite max_return bounds nothing
    m = sr._max_return
    if t.__class__ is not float or not 0.0 < t <= (sr.max_return if m is None else m) < math.inf:
        t = _real("target return", t)
        if not math.isfinite(t):
            raise DomainError(f"target return must be finite, got {t!r}")
        if t <= 0.0:
            return 0.0
        if t > sr.max_return:
            raise UnboundedRatioError(
                f"no investment below {sr.domain_cap:g} attains return {t:g}"
            )
    inverse = sr._return_inverse
    if inverse is not None:
        return inverse(t)

    # the solver layer loads on the first custom-rate inversion, so that a
    # command that inverts only built-in rates never loads it; read from
    # sys.modules after that, as an import statement here would cost about
    # 1 us per inversion
    solvers = sys.modules.get("seqinvest.solvers")
    if solvers is None:
        from . import solvers

    def gap(x: float) -> float:
        return sr.required_return(x) - t

    return solvers.bisect(gap, 0.0, min(1.0, sr.domain_cap), limit=sr.domain_cap)


def best_response(sr: SuccessRate, rule: StationaryColumnRule, x: ConstantTailProfile, i: int) -> float:
    """Agent ``i``'s unconstrained optimal investment against the others' profile."""
    col = rule.column(i)
    return investment_for_return(sr, _column_reward(sr, x, col) - col.entries[0])


def _max_residual(residuals: list[float]) -> float:
    # 0 for none, NaN if any is NaN: max() alone keeps whichever of a NaN
    # and a number comes first
    if any(r != r for r in residuals):
        return math.nan
    return max(residuals, default=0.0)


class AgentCheck(NamedTuple):
    agent: int
    investment: float
    net_return: float
    residual: float
    payoff: float
    corner: str = ""  # "", "zero", "budget"


class EquilibriumReport(NamedTuple):
    """Outcome of a support check: per-agent residuals and payoffs."""

    mode: Mode
    tol: float
    checks: tuple[AgentCheck, ...]
    failures: tuple[str, ...] = ()

    @property
    def supported(self) -> bool:
        return not self.failures

    @property
    def verdict(self) -> str:
        return "Supported" if self.supported else "NotSupported"

    @property
    def max_residual(self) -> float:
        return _max_residual([c.residual for c in self.checks])


def _check_tol(tol: float) -> float:
    # the tolerance as a float, a float costing one class test, as this runs
    # per verification; every residual comparison against a NaN tolerance
    # is false, which would pass any profile
    if tol.__class__ is not float:
        tol = _real("tolerance", tol)
    if not 0.0 <= tol < math.inf:
        raise DomainError(f"tolerance must be finite and >= 0, got {tol!r}")
    return tol


def _column_floor_gap(col: Column) -> float:
    """min_j f(i, j) - f(i, i) over the structural column; negative means
    some continuation entry pays less than the stay-put payment."""
    lowest = min(col.entries[1:]) if len(col.entries) > 1 else math.inf
    lowest = min(lowest, col.tail)
    if col.slope < 0.0:
        return -math.inf
    return lowest - col.entries[0]


def check_agent(
    sr: SuccessRate,
    rule: StationaryColumnRule,
    x: ConstantTailProfile,
    i: int,
    mode: Mode | str = Mode.UNCONSTRAINED,
    tol: float = TOL_EQ,
) -> AgentCheck:
    """Best-response residual of a single agent at the profile.

    Interior agents must satisfy the first-order condition; an investment
    of exactly 0 is at the zero corner, the best response to any
    non-positive net return, so its residual is the net return floored at
    0; in self-financed mode an investment at the budget ``f(i, i)`` may
    leave excess return.
    ``mode`` is a :class:`Mode` or its value string.  Raises
    :class:`DomainError` for any other mode and for a non-finite or
    negative ``tol``.
    """
    mode = _as_mode(mode)
    tol = _check_tol(tol)
    xi = x.at(i)
    col = rule.column(i)
    pi, reward = _agent_reward(sr, x, col)
    return _check_column(xi, pi, sr.required_return(xi), col, reward, mode, tol)


def _check_column(
    xi: float, pi: float, ratio: float, col: Column, reward: float, mode: Mode, tol: float
) -> AgentCheck:
    # check_agent for the agent whose column is ``col``, investing ``xi``
    # with success probability ``pi`` and required return ``ratio``, given
    # its continuation reward; the one column gives both the stay-put
    # payment and the reward
    i = col.start
    fii = col.entries[0]
    t = reward - fii
    payoff = _payoff(pi, xi, fii, reward)
    # each record packed with all its fields, as it is computed, not checked
    if xi == 0.0:
        # investment_for_return's answer to every non-positive return
        return tuple.__new__(AgentCheck, (i, xi, t, abs(max(t, 0.0) - ratio), payoff, "zero"))
    residual = abs(t - ratio)
    if mode is _SELF_FINANCED and residual > tol and abs(xi - fii) <= tol and t >= ratio - tol:
        return tuple.__new__(AgentCheck, (i, xi, t, 0.0, payoff, "budget"))
    return tuple.__new__(AgentCheck, (i, xi, t, residual, payoff, ""))


def verify_equilibrium(
    sr: SuccessRate,
    rule: StationaryColumnRule,
    x: ConstantTailProfile,
    mode: Mode | str = Mode.UNCONSTRAINED,
    tol: float = TOL_EQ,
) -> EquilibriumReport:
    """Does the rule support the profile?

    Checks agents ``0 .. max(prefix_len, rule.stationary_from)``: every
    agent with an individual column or prefix investment, plus one
    representative tail agent, whose check every later agent repeats bit
    for bit (module docstring).  In self-financed mode additionally
    enforces the budget ``x_i <= f(i,i)`` and the structural condition
    ``f(i, i) <= f(i, j)``.  A NaN residual, budget overrun or floor gap
    fails its test.  ``mode`` is a :class:`Mode` or its value string, and
    the report holds the :class:`Mode`.  Raises :class:`DomainError` for
    any other mode and for a non-finite or negative ``tol``, each checked
    once for all agents; each agent's column is read once, and each
    profile entry's ``p`` and required return once for all agents (module
    docstring).
    """
    mode = _as_mode(mode)
    tol = _check_tol(tol)
    stationary = rule.stationary_from
    if stationary is None:
        raise TailShapeError(
            f"{rule.label}: columns never stabilize; no constant-tail "
            "profile can be verified against this rule"
        )
    m = len(x.prefix)
    first_tail = max(m, stationary)
    # p and the required return of the tail and of every prefix agent, one
    # band read each for all checked agents: agent i's walk takes the list
    # past i, its payoff and its check its own entry
    band = sr._band_at
    pc, rc, _ = band(x.tail)
    probs, ratios = [], []
    for v in x.prefix:
        pv, rv, _ = band(v)
        probs.append(pv)
        ratios.append(rv)
    checks = []
    failures: list[str] = []
    for i in range(first_tail + 1):
        col = rule.column(i)
        xi, pi, ri = (x.prefix[i], probs[i], ratios[i]) if i < m else (x.tail, pc, rc)
        chk = _check_column(xi, pi, ri, col, _column_series(col, m, probs[i + 1:], pc), mode, tol)
        checks.append(chk)
        # each test is written so that a NaN fails it
        if not chk.residual <= tol:
            failures.append(f"agent {i}: best-response residual {chk.residual:.3g}")
        if mode is _SELF_FINANCED:
            over = chk.investment - col.entries[0]
            if not over <= tol:
                failures.append(
                    f"agent {i}: investment exceeds stay-put budget by {over:.3g}"
                )
            gap = _column_floor_gap(col)
            if not gap >= -tol:
                failures.append(
                    f"agent {i}: some continuation entry is below the "
                    f"stay-put payment (gap {gap:.3g})"
                )
    return tuple.__new__(EquilibriumReport, (mode, tol, tuple(checks), tuple(failures)))


class BoundSchedule(NamedTuple):
    """Per-agent caps on equilibrium investments for a capped rate.

    With ``epsilon`` the rate's own cap, so ``p <= 1 - epsilon``,
    ``bound(i)`` solves ``required_return(B_i) = i + 1 + 1 / epsilon``:
    no equilibrium investment of agent ``i`` can exceed it, because the
    continuation reward is at most the value already created (``i + 1``)
    plus everything the future can add (below ``1 / epsilon``).  The
    bounds are finite but increase without limit in ``i``, an integer of
    at least 0.
    """

    rate: SuccessRate

    def bound(self, i: int) -> float:
        i = _check_count("agent index", i, 0)
        _check_capped(self.rate)  # a schedule can be built directly
        return investment_for_return(self.rate, i + 1.0 + 1.0 / self.rate.epsilon)


def _check_capped(sr: SuccessRate) -> None:
    if not sr.epsilon > 0.0:
        raise DomainError(
            "bounds need a positive cap parameter; this rate's success "
            "probability is not bounded away from 1"
        )


def investment_bounds(sr: SuccessRate) -> BoundSchedule:
    """Bound schedule at the rate's own cap, which must be positive.

    A cap of zero (the unscaled square-root family) leaves the bound
    undefined and is rejected, here and by each ``bound`` of a schedule
    built directly.
    """
    _check_capped(sr)
    return BoundSchedule(sr)


class DynamicsResult(NamedTuple):
    """Outcome of best-response dynamics; ``sweeps`` counts the passes (1 or 2)."""

    profile: ConstantTailProfile
    max_change: float
    residuals: tuple[tuple[int, float], ...]
    history: tuple[tuple[float, ...], ...]

    @property
    def converged(self) -> bool:
        # the last pass moved no investment: it confirmed what it started from
        return self.max_change == 0.0

    @property
    def sweeps(self) -> int:
        # len(history), kept while the benchmark's tracer reads it
        return len(self.history)

    @property
    def max_residual(self) -> float:
        return _max_residual([r for _, r in self.residuals])


def best_response_dynamics(
    sr: SuccessRate,
    rule: StationaryColumnRule,
    horizon: int,
    init: ConstantTailProfile | None = None,
) -> DynamicsResult:
    """Backward induction over agents ``horizon-1 .. 0``, then a confirming pass.

    Agents at or beyond the horizon are frozen at the initial profile's
    values.  Agent ``i``'s continuation reward reads only its successors
    and the frozen tail, so one backward pass is exact and a second
    confirms it: a pass that moves no investment at all
    (``max_change == 0``) ends the run.  Only a confirming pass that
    moves leaves the result non-converged, which is reported, never
    raised.  The residuals cover exactly the swept agents.  ``horizon``
    must be an integer (anything ``operator.index`` accepts) of at least 1,
    or :class:`DomainError` is raised.
    """
    _check_count("horizon", horizon, 1)
    init = init if init is not None else ConstantTailProfile((), 0.0)
    values = [init.at(i) for i in range(horizon)]
    # agents past the horizon keep their initial values, then the tail
    frozen = init.prefix[horizon:]
    tail = init.tail
    history: list[tuple[float, ...]] = []
    for _ in range(2):
        max_change = 0.0
        for i in reversed(range(horizon)):
            current = ConstantTailProfile(tuple(values) + frozen, tail)
            response = best_response(sr, rule, current, i)
            max_change = max(max_change, abs(response - values[i]))
            values[i] = response
        history.append(tuple(values))
        if max_change == 0.0:
            break
    final = ConstantTailProfile(tuple(values) + frozen, tail)
    residuals = tuple(
        (i, check_agent(sr, rule, final, i).residual) for i in range(horizon)
    )
    return DynamicsResult(
        profile=final,
        max_change=max_change,
        residuals=residuals,
        history=tuple(history),
    )


class ConstantSupport(NamedTuple):
    """Support verdict for a constant profile, with witness or gap."""

    investment: float
    gap: float  # prize(c) - p(c); positive means unsupportable
    witness: StationaryColumnRule | None

    @property
    def supported(self) -> bool:
        return self.witness is not None

    @property
    def verdict(self) -> str:
        return "Supported" if self.supported else "NotSupported"


def constant_support_check(sr: SuccessRate, c: float) -> ConstantSupport:
    """A constant profile is supportable iff ``p(c) >= prize(c)``, up to
    ``_SUPPORT_TOL``.

    The witness sets the fraction to 1 and the floor to
    ``1 - prize(c)/p(c)``, which makes every agent's net return exactly
    the required one; at the boundary the witness degenerates to the
    equal split.
    """
    prob, ratio, prize = sr._band_at(c)  # ratio: prize / p, 0 at 0
    gap = prize - prob
    if gap > _SUPPORT_TOL:
        return ConstantSupport(c, gap, None)
    witness = fixed_fraction_floor(1.0, max(0.0, 1.0 - ratio))
    return ConstantSupport(c, gap, witness)


class NearConstantFeasibility(NamedTuple):
    """Both support bounds for ``(x0, c, c, ...)`` with floor ``gamma``.

    ``lower`` is reported unclamped (it may be negative, in which case
    the binding lower bound is 0); ``ratio`` is the initiator's required
    return.  Feasible iff ``max(lower, 0) <= ratio <= upper``, each side
    allowed ``_SUPPORT_TOL``.
    """

    x0: float
    c: float
    gamma: float
    ratio: float
    lower: float
    upper: float

    @property
    def feasible(self) -> bool:
        ratio = self.ratio
        return max(self.lower, 0.0) <= ratio + _SUPPORT_TOL and ratio <= self.upper + _SUPPORT_TOL

    @property
    def verdict(self) -> str:
        return "Feasible" if self.feasible else "Infeasible"


def _floor(mode: Mode, c: float) -> float:
    # the per-agent floor a mode puts on the band of a constant-c tail:
    # self-financed, each stay-put payment covers the tail investment
    return c if mode is _SELF_FINANCED else 0.0


def _band_headroom(gamma: float, prize: float) -> float:
    # what a constant tail's prize and the floor gamma leave of the unit
    # row: the band's upper edge times 1 - p(c), so with its sign
    return 1.0 - gamma - prize


def _band_upper_slope(sr: SuccessRate, c: float, mode: Mode, pc: float, prize: float, dpc: float) -> float:
    # d/dc of the upper edge at floor _floor(mode, c) times (1 - pc)^2, so
    # with the slope's sign, given p(c), prize(c) and p'(c); the floor is
    # linear in c, its slope its value at 1
    head = (-_floor(mode, 1.0) - sr.incentive_prize_slope(c)) * (1.0 - pc)
    return head + _band_headroom(_floor(mode, c), prize) * dpc


def _band(sr: SuccessRate, c: float, gamma: float) -> tuple[float, float, float, float, float]:
    # p(c), the tail's required return, prize(c) and the band's unclamped
    # lower and upper edges at floor gamma, from one evaluation of the rate
    # at c: the one place either edge is formed.  The upper edge, the
    # largest initiator return against the tail, is the headroom over
    # 1 - p(c), written out, as this runs per grid point
    if not 0.0 <= gamma < math.inf:
        # a self-financed floor is the tail itself, and a bad tail is the
        # caller's investment, not a floor they passed: the tail is named first
        sr.required_return(c)
        raise DomainError(f"floor must be finite and >= 0, got {gamma!r}")
    # a built-in family's closed form takes an in-domain float tail as is,
    # as _band_at would after the same test; any other tail goes through
    # _band_at, which converts it or words its error
    band = sr._band
    if band is None or c.__class__ is not float or not 0.0 <= c <= sr.domain_cap:
        band = sr._band_at
    pc, ratio, prize = band(c)
    return pc, ratio, prize, ratio + gamma - 2.0, (1.0 - gamma - prize) / (1.0 - pc)


def near_constant_bounds(
    sr: SuccessRate, c: float, gamma: float = 0.0
) -> tuple[float, float]:
    """Unclamped lower and upper required-return bounds for the initiator."""
    gamma = gamma if gamma.__class__ is float else _real("floor", gamma)
    return _band(sr, c, gamma)[3:]


def _feasibility(
    sr: SuccessRate, x0: float, c: float, gamma: float
) -> tuple[NearConstantFeasibility, float, float]:
    # near_constant_feasibility with the tail's p and required return,
    # which synthesis takes from the same evaluation of the band; a float
    # floor costs one class test (region_sweep calls _band with its own)
    gamma = gamma if gamma.__class__ is float else _real("floor", gamma)
    pc, tail_ratio, _, lower, upper = _band(sr, c, gamma)
    ratio = sr.required_return(x0)
    return NearConstantFeasibility(x0, c, gamma, ratio, lower, upper), pc, tail_ratio


def near_constant_feasibility(
    sr: SuccessRate, x0: float, c: float, gamma: float = 0.0
) -> NearConstantFeasibility:
    """Both bounds, with the initiator's return allowed ``_SUPPORT_TOL``
    outside them."""
    return _feasibility(sr, x0, c, gamma)[0]


def _upper_endpoint_rule(tail_ratio: float, gamma: float, upper: float) -> StationaryColumnRule:
    # the rule paying the initiator the upper support bound against a
    # constant tail of required return ``tail_ratio`` with floor gamma,
    # given the caller's upper edge ``upper``, so no rate is evaluated: a
    # fixed fraction with floor while the tail's required return plus the
    # floor stays below 1, the next-step bonus beyond
    if tail_ratio + gamma <= 1.0:
        return fixed_fraction_floor(tail_ratio + gamma, gamma)
    return next_step_bonus(tail_ratio - upper, gamma)


def _endpoint_rules(
    tail_ratio: float, gamma: float, upper: float
) -> tuple[StationaryColumnRule, StationaryColumnRule]:
    # the upper endpoint rule and the one paying the initiator the lower
    # support bound: a flat continuation, or the zero-initiator bonus
    high = _upper_endpoint_rule(tail_ratio, gamma, upper)
    if tail_ratio + gamma <= 1.0:
        return high, flat_continuation(tail_ratio + gamma, gamma)
    return high, next_step_bonus_zero_initiator(tail_ratio - upper, gamma)


def synthesize_rule(sr: SuccessRate, x0: float, c: float, gamma: float = 0.0) -> StationaryColumnRule:
    """A rule supporting ``(x0, c, c, ...)`` with floors ``f(i,i) >= gamma``.

    Builds the endpoint rules for the feasibility interval -- the pair
    depends on whether the tail's required return plus the floor stays
    below 1 -- and mixes them with the weight that places the initiator's
    net return exactly at ``required_return(x0)``.  Tail agents face the
    same net return under both endpoints, so any mixture keeps them at
    ``c``.  A target within ``_SUPPORT_TOL`` of an endpoint's return, the
    slack feasibility allows, gets that endpoint rule itself.  Raises
    :class:`InfeasibleError` outside the feasible band.
    """
    feas, pc, tail_ratio = _feasibility(sr, x0, c, gamma)
    if not feas.feasible:
        raise InfeasibleError(
            f"(x0={x0:g}, c={c:g}, gamma={gamma:g}) is not supportable: "
            f"initiator return {feas.ratio:.6g} outside "
            f"[{max(feas.lower, 0.0):.6g}, {feas.upper:.6g}]"
        )
    high, low = _endpoint_rules(tail_ratio, gamma, feas.upper)
    # each endpoint's net return to the initiator against the constant
    # tail, whose p the band read
    col = high.column(0)
    v_high = _column_series(col, 0, [], pc) - col.entries[0]
    col = low.column(0)
    v_low = _column_series(col, 0, [], pc) - col.entries[0]
    target = feas.ratio
    if target >= v_high - _SUPPORT_TOL:
        return high
    if target <= v_low + _SUPPORT_TOL:
        return low
    return Mixture((target - v_low) / (v_high - v_low), high, low)
