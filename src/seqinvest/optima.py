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
  required return, supported by the equal split.
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
in the last bit) and the prize's slope in one call each.  The grid scans,
:func:`region_sweep` and the self-financed optimum's welfare scan, take a
point in two closure calls on a built-in family: ``_band`` calls the
family's band closure on an in-domain float tail, and each edge that passes
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
objective is not shown to be single-peaked, so a grid scan picks the cell
pair around its best point, and the slope's root is solved there.  The
scan reads only the grid points where that best point can lie: the
objective rises up to the peak of the band's upper edge at floor ``c``,
which is solved as the initiator optimum's tail is, and falls past the
first best.

The results, :class:`OptimumResult` and :class:`RegionRow`, are
``typing.NamedTuple`` classes: they unpack and index like tuples and are
copied with ``._replace``.  Neither repeats a value it holds: an
optimum's mode is its ``report.mode``, and a region row's diagonal is its
``c``.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
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

_GRID_POINTS = 256
_EDGE = 1e-12


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


def _inverse_limit(sr: SuccessRate) -> float:
    # the largest target the grid scans pass to a built-in family's inverse
    # closure directly, read once per scan: a target ``t`` with ``0 < t <=``
    # this limit passes investment_for_return's own test (a float with ``0 <
    # t <= max_return < inf``; the band's edges are floats for a built-in
    # family), so the closure gives its answer bit for bit.  0 for a custom
    # rate and for an unbounded max_return, so that every target of theirs,
    # and every other target, goes through investment_for_return
    if sr._return_inverse is None:
        return 0.0
    top = sr.max_return
    return top if top < math.inf else 0.0


def first_best_investment(sr: SuccessRate) -> float:
    """Constant investment maximizing welfare, support ignored.

    Unique root of ``(1 - c) / (1 - p(c)) = required_return(c)`` in
    ``(0, 1)``; the difference starts positive (welfare 1, return 0) and
    ends negative at 1.
    """

    def gap(c: float) -> float:
        pc, ratio, _ = sr._band_at(c)
        return (1.0 - c) / (1.0 - pc) - ratio

    return bisect(gap, 0.0, 1.0)


def socially_optimal(sr: SuccessRate) -> OptimumResult:
    """Welfare-maximizing supportable profile: constant at prize = probability.

    Welfare over constants rises through the whole supportable band
    ``[0, c_star]`` (the first best lies beyond it), so the boundary
    point is the optimum, and the equal split supports it.  For ``p > 0``
    the prize ``p / p'`` equals ``p`` exactly where ``p' = 1``, so
    ``c_star`` is one inversion of the required return, at 1; no other
    solve is needed.
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
        "socially_optimal", sr, profile, equal_split(), expected_welfare(sr, profile), residuals
    )


def tail_limit(sr: SuccessRate, mode: Mode | str = Mode.UNCONSTRAINED) -> float:
    """Largest tail with a non-negative upper support bound, to ``1e-15``.

    Where the prize plus the mode's floor (``c`` when self-financed, else
    0) reaches 1; the floor is the only self-financed constraint applied.
    ``mode`` is a :class:`Mode` or its value string; any other value raises
    :class:`DomainError`.
    """
    mode = _as_mode(mode)
    return bisect(lambda c: _band_headroom(_floor(mode, c), sr.incentive_prize(c)), _EDGE, 1.0,
                  limit=sr.domain_cap, xtol=1e-15)


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
    ``required_return(x0) = (1 - c - prize(c)) / (1 - p(c))`` (welfare is
    non-decreasing in ``x0`` up to that point), leaving a reduced
    one-dimensional objective.  It is not shown to be unimodal, so the
    best point of a 256-point grid on ``(0, c_max)`` (``c_max`` the
    self-financed :func:`tail_limit`) picks two grid cells, and one root
    solve of the chain-rule slope there finds the argmax.  Only the grid
    points from the last at or below ``c_u`` to the first at or above
    ``min(c_fb, c_max)`` are evaluated, and their best is the best of all
    256.  With ``A(c) = (1 - c) / (1 - p(c))`` the welfare of a constant
    tail, the objective ``1 - x0 + p(x0) A(c)`` has slope
    ``prize(c) / (1 - c - prize(c)) x0' + p(x0) A'``.  ``x0'`` has the sign
    of the upper edge's slope, which is single-peaked at ``c_u``, and ``A``
    peaks at ``c_fb > c_u``.  So the objective rises strictly up to ``c_u``
    and falls strictly past ``c_fb``, and each point left out is below a
    point that is read.  ``c_u`` is solved as the initiator optimum's tail
    is; the bound needs no shape between ``c_u`` and ``c_fb``.

    The scan inverts each point's upper edge through a built-in family's
    inverse closure when it passes ``investment_for_return``'s range test,
    and through that function otherwise (module docstring).

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

    inverse, top = sr._return_inverse, _inverse_limit(sr)

    def welfare_gain(c: float) -> float:
        # reduced welfare minus 1, which would round away the gain at caps
        # near 1, with the initiator on the band's upper edge at floor c
        pc, _, _, _, upper = _band(sr, c, c)
        x0 = inverse(upper) if 0.0 < upper <= top else investment_for_return(sr, upper)
        return sr.probability(x0) * (1.0 - c) / (1.0 - pc) - x0

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

    step = c_max / (_GRID_POINTS + 1)
    grid = [step * (j + 1) for j in range(_GRID_POINTS)]
    # the gain rises strictly up to the upper edge's peak c_u and falls
    # strictly past the first best (see above), so the scan runs from the
    # last point at or below c_u to the first at or above min(c_fb, c_max)
    first = max(bisect_right(grid, _upper_edge_peak(sr, mode, c_max)) - 1, 0)
    last = min(bisect_left(grid, min(first_best_investment(sr), c_max)), len(grid) - 1)
    values = [welfare_gain(c) for c in grid[first:last + 1]]
    best = first + max(range(len(values)), key=values.__getitem__)
    glo = grid[best - 1] if best > 0 else grid[0]
    ghi = grid[best + 1] if best + 1 < len(grid) else c_max - _EDGE
    # a peak in the first cell may lie arbitrarily close to 0: the lower
    # end then halves toward 0 until the slope changes sign
    c_s = bisect(slope, ghi, glo, limit=None if best > 0 else 0.0, xtol=1e-13)
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
    inverse, top = sr._return_inverse, _inverse_limit(sr)
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
