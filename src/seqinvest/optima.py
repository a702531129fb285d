"""The four scalar optimum programs and the feasibility-region sweep.

All four optima reduce to one-dimensional solves over constant or
near-constant profiles, because flattening a profile's tail preserves
the expected value while lowering both the expected investment and the
incentive cost:

* *first best*: the constant investment maximizing welfare with no
  support constraint; the maximizer satisfies
  ``(1 - c) / (1 - p(c)) = required_return(c)``.  It is never
  supportable (the prize strictly exceeds the probability there).
* *socially optimal*: the welfare-maximizing supportable profile; the
  constant level where prize and probability meet, one inversion of the
  required return, supported by the equal split: one instance, built at
  import, supports every social optimum.
* *initiator optimal*: the supportable profile maximizing the
  initiator's payoff; near-constant, with the tail maximizing
  ``(1 - prize(c)) / (1 - p(c))`` and the initiator saturating the upper
  support bound.  Supported by the fixed-fraction rule at the tail's
  required return.
* *self-financed optimal*: welfare maximization when investments are
  capped by the stay-put payments; near-constant with the constraint
  ``required_return(x0) = (1 - c - prize(c)) / (1 - p(c))`` active.
  Supported by a fixed-fraction-with-floor rule whose floor equals the
  tail investment.

The support band's edges are formed in one place,
``seqinvest.equilibrium._band``, which the optima, the region sweep and
``near_constant_bounds`` read, from one evaluation of the rate per
tail; the upper edge's slope and the floor per :class:`Mode` live next
to it.  Each program reads the rate at a point once: ``p``, ``r`` and the
prize in one ``SuccessRate._band_at`` call, ``p'`` (which ``1 / r`` can miss
in the last bit) and the prize's slope in one call each.  The grid scan,
:func:`region_sweep`, takes a point in two closure calls on a built-in
family: ``_band`` calls the family's band closure on an in-domain float
tail, and each edge that passes
:func:`~seqinvest.equilibrium.investment_for_return`'s own test (``0 < t
<= max_return < inf``, ``max_return`` read once per scan) goes to the
family's inverse closure, which is what that function would call.  Every
other edge, and every edge of a custom rate, goes through
``investment_for_return``, so its conversions and errors stay in one
place.  The initiator and self-financed searches and the region curves end
at one boundary, :func:`tail_limit`: the largest tail at which the prize
plus the floor reaches 1.

Every solve is one bracketed root solve (:func:`seqinvest.solvers.bisect`):
of a monotone crossing, or of the derivative of a maximized function on
a bracket fixed before the call, whose lower end may halve toward 0
when the peak lies below it.
The exception is inverting the required return, which the built-in rate
families do in closed form (see
:func:`seqinvest.equilibrium.investment_for_return`).  The maximized
functions are single-peaked, which is established by the same curvature
argument for all of them (``(1 - h) / (1 - p)`` with ``h`` convex rises
then falls at most once), so the derivative changes sign once between
the zero tail and :func:`tail_limit`.  The self-financed reduced
objective rises up to the peak ``c_u`` of the band's upper edge at floor
``c`` and falls past the first best ``c_fb``, and between them its slope
has the sign of a strictly falling function minus a strictly rising one
(:func:`self_financed_optimal` gives the argument, for the floor ``gamma
= c``), so it too is one solve, on ``[c_u, min(c_fb, c_max)]``.

The results, :class:`OptimumResult` and :class:`RegionRow`, are
``typing.NamedTuple`` classes: they unpack and index like tuples and are
copied with ``._replace``.  Neither repeats a value it holds: an
optimum's mode is its ``report.mode``, and a region row's diagonal is its
``c``.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .equilibrium import (
    EquilibriumReport,
    Mode,
    _as_mode,
    _band,
    _band_headroom,
    _band_upper_slope,
    _floor,
    _max_residual,
    _upper_endpoint_rule,
    investment_for_return,
    near_constant_bounds,
    verify_equilibrium,
)
from .errors import BracketError, DomainError, InfeasibleError, _real
from .profiles import (
    ConstantTailProfile,
    constant_profile,
    expected_welfare,
    near_constant_profile,
)
from .rates import SuccessRate
from .rules import StationaryColumnRule, equal_split, fixed_fraction
from .solvers import bisect

_EDGE = 1e-12
# the one rule every social optimum returns: the equal split has no
# parameters and a rule is immutable, so one checked instance serves all
_EQUAL_SPLIT = equal_split()


class OptimumResult(NamedTuple):
    """A solved program: profile, supporting rule, and solve diagnostics."""

    name: str
    profile: ConstantTailProfile
    rule: StationaryColumnRule
    objective: float
    residuals: tuple[tuple[str, float], ...]
    report: EquilibriumReport

    @property
    def max_residual(self) -> float:
        return _max_residual([r for _, r in self.residuals])


def _verified(
    name: str, sr: SuccessRate, profile: ConstantTailProfile, rule: StationaryColumnRule,
    objective: float, residuals: tuple[tuple[str, float], ...], mode: Mode = Mode.UNCONSTRAINED,
) -> OptimumResult:
    # every supported optimum: its rule verified at its profile, then packed
    report = verify_equilibrium(sr, rule, profile, mode=mode)
    return OptimumResult(name, profile, rule, objective, residuals, report)


def _solve_below_cap(program: str, sr: SuccessRate, f, lo: float, **kwargs) -> float:
    # a root of f, positive at lo, from [lo, min(1, cap)]: a bracket with no
    # sign change below the rate's domain cap has its answer above it, or,
    # when f is already at most 0 at lo, below lo; f(lo) is read again on
    # this error path only
    try:
        return bisect(f, lo, min(1.0, sr.domain_cap), **kwargs)
    except BracketError as exc:
        if f(lo) <= 0.0:
            raise BracketError(f"{program}: rate {sr.name} has no solution above "
                               f"the lower end {lo:g} of its bracket") from exc
        raise BracketError(f"{program}: rate {sr.name} has no solution below "
                           f"its domain cap {sr.domain_cap:g}") from exc


def first_best_investment(sr: SuccessRate) -> float:
    """Constant investment maximizing welfare, support ignored.

    Unique root of ``(1 - c) / (1 - p(c)) = required_return(c)`` in
    ``(0, 1)``; the difference starts positive (welfare 1, return 0) and
    ends negative at 1; a domain cap below the root raises
    :class:`BracketError` naming the rate and its cap.
    """

    def gap(c: float) -> float:
        pc, ratio, _ = sr._band_at(c)
        return (1.0 - c) / (1.0 - pc) - ratio

    return _solve_below_cap("first_best_investment", sr, gap, 0.0)


def socially_optimal(sr: SuccessRate) -> OptimumResult:
    """Welfare-maximizing supportable profile: constant at prize = probability.

    Welfare over constants rises through the whole supportable band
    ``[0, c_star]`` (the first best lies beyond it), so the boundary
    point is the optimum, and the equal split supports it: every result
    holds the same instance, since the rule has no parameters and is
    immutable (:func:`~seqinvest.rules.equal_split` itself still builds a
    new one per call).  For ``p > 0`` the prize ``p / p'`` equals ``p``
    exactly where ``p' = 1``, so ``c_star`` is one inversion of the
    required return, at 1; no other solve is needed.
    """
    c_star = investment_for_return(sr, 1.0)
    pc, _, prize = sr._band_at(c_star)
    residual = prize - pc
    # without p' = 1 anywhere the inversion ends at the low end of its
    # bracket, where the prize p / p' still exceeds p
    if not residual <= 1e-9 * pc:
        raise BracketError(
            "prize >= probability arbitrarily close to zero; the rate "
            "violates the steep-at-zero assumption"
        )
    profile = constant_profile(c_star)
    residuals = (("prize_minus_probability", abs(residual)),)
    return _verified(
        "socially_optimal", sr, profile, _EQUAL_SPLIT, expected_welfare(sr, profile), residuals
    )


def tail_limit(sr: SuccessRate, mode: Mode | str = Mode.UNCONSTRAINED) -> float:
    """Largest tail with a non-negative upper support bound, to ``1e-15``.

    Where the prize plus the mode's floor (``c`` when self-financed, else
    0) reaches 1; the floor is the only self-financed constraint applied.
    ``mode`` is a :class:`Mode` or its value string; any other value raises
    :class:`DomainError`; a domain cap below the limit raises
    :class:`BracketError` naming the rate and its cap, and a limit below
    the solve's lower end ``1e-12`` one naming that end.
    """
    mode = _as_mode(mode)
    return _solve_below_cap(
        "tail_limit", sr, lambda c: _band_headroom(_floor(mode, c), sr.incentive_prize(c)), _EDGE,
        limit=sr.domain_cap, xtol=1e-15,
    )


def _upper_edge_slope(sr: SuccessRate, mode: Mode, c: float) -> float:
    # the slope of the band's upper edge at floor _floor(mode, c), up to a
    # positive factor, from one read of the rate at c
    pc, _, prize = sr._band_at(c)
    return _band_upper_slope(sr, c, mode, pc, prize, sr.marginal(c))


def _upper_edge_peak(sr: SuccessRate, mode: Mode, d: float) -> float:
    # the tail at which the band's upper edge at the mode's floor peaks on
    # [0, d], d the mode's tail_limit: the edge's slope is positive next to
    # 0 and negative at d, and the lower end halves toward 0 until it changes sign
    return bisect(lambda c: _upper_edge_slope(sr, mode, c), d, 0.5 * d, limit=0.0, xtol=1e-14)


def initiator_optimal(sr: SuccessRate) -> OptimumResult:
    """Profile maximizing the initiator's payoff among supportable ones.

    The tail maximizes the band's upper edge at floor 0,
    ``q(c) = (1 - prize(c)) / (1 - p(c))``, on ``[0, d]`` with
    ``prize(d) = 1`` (single-peaked there); the stationarity condition is

        ``p'(c) (1 - prize(c)) = prize'(c) (1 - p(c))``

    whose left side minus its right has the sign of ``q'``: positive
    next to 0 and negative at ``d``, so one solve on ``[d / 2, d]``, whose
    lower end halves toward 0 until the sign changes, finds the peak
    however close to 0 it lies (like ``(1 - eps)^2`` for a cap ``eps``).
    The initiator then saturates the upper support bound
    ``required_return(x0) = q(c)``, and the fixed-fraction rule at the
    tail's required return supports the profile.
    """
    mode = Mode.UNCONSTRAINED
    c_circ = _upper_edge_peak(sr, mode, tail_limit(sr))
    # the band at c_circ and floor 0, once for the initiator's return and the rule
    _, r_circ, _, _, q_circ = _band(sr, c_circ, 0.0)
    x0_circ = investment_for_return(sr, q_circ)
    # the rate at x0_circ, once for the objective and the residual
    _, r_x0, prize_x0 = sr._band_at(x0_circ)
    profile = near_constant_profile(x0_circ, c_circ)
    rule = fixed_fraction(r_circ)
    objective = 1.0 + prize_x0 - x0_circ
    residuals = (
        ("tail_stationarity", abs(_upper_edge_slope(sr, mode, c_circ))),
        ("initiator_bound_active", abs(r_x0 - q_circ)),
    )
    return _verified("initiator_optimal", sr, profile, rule, objective, residuals)


def self_financed_optimal(sr: SuccessRate) -> OptimumResult:
    """Welfare-maximizing self-financed profile.

    For each tail ``c`` the binding constraint pins the initiator at
    ``required_return(x0) = u(c) = (1 - c - prize(c)) / (1 - p(c))`` (welfare
    is non-decreasing in ``x0`` up to that point), leaving the reduced
    objective ``W(c) = 1 - x0 + p(x0) A(c)``, ``A(c) = (1 - c) / (1 - p(c))``
    the welfare of a constant tail.  One root solve of its chain-rule slope
    on ``[c_u, min(c_fb, c_max - 1e-12)]`` finds the argmax: ``c_u`` the
    peak of ``u``, solved as the initiator optimum's tail is, ``c_fb`` the
    first best and ``c_max`` the self-financed :func:`tail_limit` (at
    ``c_max`` itself ``x0 = 0``, where the prize's slope is undefined).

    The slope changes sign exactly once there.  With ``h`` the prize,
    ``B = h(c) / (1 - p(c))`` and ``u = A - B``, ``p'(x0) = 1 / u`` gives
    ``W' = B u' / (u r'(x0)) + p(x0) A'``: positive below ``c_u`` and
    negative past ``c_fb``.  On ``I = (c_u, min(c_fb, c_max))``, where ``A' > 0``, ``W'``
    times ``u r'(x0) / A' > 0`` is ``L - Q``:

    * ``L = h(x0) r'(x0) = u (h'(x0) - 1)`` (``r' = (h' - 1) / p``) strictly
      falls: ``u > 0`` falls, ``x0`` with it, and ``h'(x0) - 1 > 0`` does
      not rise, ``h`` being convex;
    * ``Q = -B u' / A' = B (B' / A' - 1)`` strictly rises: ``B > 0`` rises,
      and ``B' / A' = N / D >= 1`` (``u' <= 0``) rises, with ``N = h' (1 -
      p) + h p'``, ``D = (1 - c) p' - (1 - p) > 0`` and ``N' D - N D' = (1
      - p) [h'' D - p'' (h + (1 - c) h')] > 0`` for ``p`` strictly concave.

    ``W'`` is ``p(x0) A' > 0`` at ``c_u``, ``B u' / (u r'(x0)) < 0`` at
    ``c_fb``, and negative near ``c_max``, where ``L`` goes to 0 with ``u``
    and ``Q`` stays positive, so ``L - Q`` has one root.  The argument
    takes the band at the self-financed floor ``gamma = c``; a change to
    that band must recheck it.

    The initiator then sits on the upper support bound, so the supporting
    rule is the synthesizer's upper endpoint with floor ``c``: fraction
    ``required_return(c) + c`` with floor ``c`` while that fraction is at
    most 1, the next-step bonus beyond.  Only that rule is built, and it is
    verified in self-financed mode.
    """
    mode = Mode.SELF_FINANCED
    c_max = tail_limit(sr, mode)
    if c_max <= _EDGE:
        raise InfeasibleError("the self-financed feasible set is empty for this rate")

    def slope(c: float) -> float:
        # chain rule through the active constraint; exact up to the
        # tolerance of the inner inversion
        pc, _, prize, _, upper = _band(sr, c, c)
        x0 = investment_for_return(sr, upper)
        px0, _, prize_x0 = sr._band_at(x0)
        dpc, dpx0 = sr.marginal(c), sr.marginal(x0)
        dx0 = _band_upper_slope(sr, c, mode, pc, prize, dpc) / (1.0 - pc) ** 2
        # over d/dx0 of required_return, (prize' p - prize p') / p^2 at x0
        dx0 /= (sr.incentive_prize_slope(x0) * px0 - prize_x0 * dpx0) / (px0 * px0)
        dwelfare_dc = (-(1.0 - pc) + (1.0 - c) * dpc) / (1.0 - pc) ** 2
        dwelfare_dx0 = -1.0 + dpx0 * (1.0 - c) / (1.0 - pc)
        return dx0 * dwelfare_dx0 + px0 * dwelfare_dc

    end = min(first_best_investment(sr), c_max - _EDGE)
    c_s = bisect(slope, _upper_edge_peak(sr, mode, c_max), end, xtol=1e-13)
    # the band at c_s and floor c_s, once for the initiator, the residual and the rule
    _, r_s, _, _, upper_s = _band(sr, c_s, c_s)
    x0_s = investment_for_return(sr, upper_s)
    profile = near_constant_profile(x0_s, c_s)
    rule = _upper_endpoint_rule(r_s, c_s, upper_s)
    residuals = (
        ("budget_constraint_active", abs(sr.required_return(x0_s) - upper_s)),
        ("reduced_objective_slope", abs(slope(c_s))),
    )
    return _verified(
        "self_financed_optimal", sr, profile, rule, expected_welfare(sr, profile), residuals, mode
    )


class RegionRow(NamedTuple):
    """One grid point of the near-constant support region boundary.

    ``lower``/``upper`` are the initiator investments attaining the two
    support bounds, ``None`` when the tail is altogether infeasible
    (upper bound negative).  The curves are emitted even where they
    cross, matching how the region boundary is usually plotted.  The
    diagonal ``x0 = c``, which a plot draws with them, is ``c`` itself.
    """

    c: float
    lower: float | None
    upper: float | None


def region_sweep(
    sr: SuccessRate, c_values, mode: Mode | str = Mode.UNCONSTRAINED
) -> list[RegionRow]:
    """Support-region boundary over a tail grid.

    Floor 0 in unconstrained mode and floor ``c`` in self-financed mode;
    the self-financed curves always sit weakly inside the unconstrained
    ones because the floor tightens both bounds.  ``c_values`` is any
    iterable of real numbers, a numpy grid included, which is converted
    once with its ``tolist()``; any other value that is not a float is
    converted with ``float()``, and text (``"0.05"``, ``b"0.1"``) raises
    :class:`DomainError`.  So the bounds are float arithmetic, not numpy
    scalar arithmetic, and every row holds Python floats.  ``mode`` is a
    :class:`Mode` or its value string, converted once; any other value
    raises :class:`DomainError`.

    Each point reads the band once, and on a built-in family inverts each
    positive edge the domain cap attains by the family's inverse closure
    directly (module docstring); any other edge goes through
    :func:`~seqinvest.equilibrium.investment_for_return`, so a NaN edge
    raises its :class:`DomainError` and an edge past the cap's return its
    :class:`UnboundedRatioError`.
    """
    mode = _as_mode(mode)
    # the floor is linear in the tail: its value at 1 times c
    floor = _floor(mode, 1.0)
    if isinstance(c_values, (str, bytes, bytearray)):
        # iterated, bytes would give their character codes as tails
        raise DomainError(f"{sr.name}: tails must be real numbers, got {c_values!r}")
    tolist = getattr(c_values, "tolist", None)
    # the largest edge passed to a built-in family's inverse closure
    # directly, read once: an edge ``t`` with ``0 < t <=`` this limit passes
    # investment_for_return's own test (a float with ``0 < t <= max_return
    # < inf``; the band's edges are floats for a built-in family), so the
    # closure gives its answer bit for bit.  0 for a custom rate and for an
    # unbounded max_return, so that every edge of theirs goes through
    # investment_for_return
    inverse = sr._return_inverse
    top = 0.0 if inverse is None else sr.max_return
    if not top < math.inf:
        top = 0.0
    rows: list[RegionRow] = []
    for c in c_values if tolist is None else tolist():
        if c.__class__ is not float:
            c = _real(f"{sr.name}: investment", c)
        # the band as near_constant_bounds gives it, less that call and
        # its repacking, which this per-point loop would pay every time
        _, _, _, lower, upper = _band(sr, c, floor * c)
        if upper < 0.0:
            rows.append(tuple.__new__(RegionRow, (c, None, None)))
            continue
        # a bound at or below 0 is the zero investment itself; a NaN bound,
        # or one past the cap's return, fails the direct test and reaches
        # investment_for_return, which rejects it
        if lower <= 0.0:
            x_lower = 0.0
        elif lower <= top:
            x_lower = inverse(lower)
        else:
            x_lower = investment_for_return(sr, lower)
        x_upper = inverse(upper) if 0.0 < upper <= top else investment_for_return(sr, upper)
        # the row without the NamedTuple's Python-level __new__
        rows.append(tuple.__new__(RegionRow, (c, x_lower, x_upper)))
    return rows


def region_curve_intersection(sr: SuccessRate) -> float:
    """Tail level where the unconstrained support band closes.

    Solves ``lower(c) = upper(c)``, equivalently
    ``required_return(c) = 3 - 2 p(c)``; beyond it no near-constant
    profile with that tail is supportable.
    """

    def gap(c: float) -> float:
        lower, upper = near_constant_bounds(sr, c, 0.0)
        return lower - upper

    d = tail_limit(sr)
    hi = d * (1.0 - 1e-9)
    if gap(hi) <= 0.0:
        raise BracketError("support band does not close below the prize-1 level")
    return bisect(gap, 0.0, hi)
