"""Recompute the ORACLE constants of ``conftest.py`` at 50 digits.

Each constant is solved from its defining equation with mpmath, written
from the formulas of the square-root family and sharing no code with
``seqinvest``.  Run from the repository root::

    PYTHONPATH=src python tests/oracle.py

to print every constant beside its frozen value and their relative
difference; ``tests/test_oracle.py`` makes the same comparison.  The
rate-only constants, the four optimum programs (the self-financed one
included), both tail limits and the band's crossing are solved from their
first-order conditions by :func:`optima`, at any cap.  The functionals of
the three-tier equilibrium (``ex5_*``), of its flattenings and of the
constant profiles at ``c_star`` and 0.2588 are series over the frozen
``ex5_x0 .. ex5_x2`` and ``c_star``; a flattened tail ``c`` from position
``k`` on solves ``1 / (1 - p(c)) = V(x_k, x_{k+1}, ...)``.
:func:`band_edges` and :func:`investment_for` give the support band's
edges and the investments attaining them at any cap, tail and floor, for
the property tests of ``test_oracle.py``, as :func:`optima` gives the
optima.  The payoffs at ``c_star`` follow from the equal split's
definition: the initiator receives 1 if their own step fails and 2
otherwise, every later agent 0 and 1, so an agent investing ``c`` earns
``1 + p(c) - c`` as the initiator and ``p(c) - c`` in the tail.  The
three-tier equilibrium itself (``ex5_x0 .. ex5_x2``) and its payoffs are
solved from the rule's rows by :func:`three_tier`.  Every constant but
the cap ``eps_half_sqrt2``, an input, is recomputed here.
"""

from __future__ import annotations

import mpmath as mp

DIGITS = 50


class Rate:
    """``p(x) = (1 - eps) sqrt(x) / (1 + sqrt(x))`` in 50-digit arithmetic."""

    def __init__(self, eps=0):
        self.eps = mp.mpf(eps)
        self.scale = 1 - self.eps

    def p(self, x):
        s = mp.sqrt(x)
        return self.scale * s / (1 + s)

    def p_prime(self, x):
        s = mp.sqrt(x)
        return self.scale / (2 * s * (1 + s) ** 2)

    def prize(self, x):
        return self.p(x) / self.p_prime(x)

    def required_return(self, x):
        return 1 / self.p_prime(x)

    def prize_prime(self, x):
        # the prize is 2 x (1 + sqrt(x)) for every cap
        return 2 + 3 * mp.sqrt(x)

    def return_prime(self, x):
        # d/dx of 2 s (1 + s)^2 / (1 - eps) with s = sqrt(x)
        s = mp.sqrt(x)
        return (1 + s) * (1 + 3 * s) / (self.scale * s)


def root(f, lo, hi):
    """The sign change of ``f`` in ``[lo, hi]``, to working precision."""
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    if f(lo) * f(hi) > 0:
        raise ValueError("no sign change in the bracket")
    return mp.findroot(f, (lo, hi), solver="anderson")


def series(r: Rate, prefix, tail, term):
    """``sum_j reach(j) * term(x_j)`` over ``(*prefix, tail, tail, ...)``,
    the tail's terms summed as a geometric series."""
    total, reach = mp.mpf(0), mp.mpf(1)
    for x in prefix:
        total += reach * term(x)
        reach *= r.p(x)
    return total + reach * term(tail) / (1 - r.p(tail))


def root_below(f, hi):
    """The sign change of ``f`` below ``hi``: the lower end starts at
    ``hi / 4`` and falls by factors of 1000 until ``f`` changes sign, so it
    reaches roots far below any fixed end (they shrink like ``(1 - eps)^2``
    as the cap ``eps`` nears 1)."""
    hi = mp.mpf(hi)
    lo = hi / 4
    while f(lo) * f(hi) > 0:
        lo /= 1000
        if lo < mp.mpf(10) ** -300:
            raise ValueError("no sign change above 1e-300")
    return root(f, lo, hi)


def flat_tail(r: Rate, value):
    """The constant tail ``c`` worth ``value`` from its own position on."""
    return root(lambda c: 1 / (1 - r.p(c)) - value, "1e-9", 1)


def one(_):
    return mp.mpf(1)


def band_edges(eps, c, gamma):
    """The support band at tail ``c`` with floor ``gamma`` on ``Rate(eps)``:
    ``(lower, upper, lower_scale, upper_scale)``.

    The unclamped lower edge is ``r(c) + gamma - 2`` and the upper edge
    ``(1 - gamma - prize(c)) / (1 - p(c))``; each scale is the sum of its
    summands' magnitudes, ``r(c) + gamma + 2`` and ``(1 + gamma + prize(c))
    / (1 - p(c))``, against which a float edge's rounding is measured.
    """
    with mp.workdps(DIGITS):
        r, c, gamma = Rate(eps), mp.mpf(c), mp.mpf(gamma)
        ratio, prize, q = r.required_return(c), r.prize(c), 1 - r.p(c)
        return (ratio + gamma - 2, (1 - gamma - prize) / q,
                ratio + gamma + 2, (1 + gamma + prize) / q)


def investment_for(eps, t):
    """The investment whose required return on ``Rate(eps)`` is ``t > 0``.

    ``r(x) = 2 s (1 + s)^2 / (1 - eps)`` with ``s = sqrt(x)``, so ``s`` is
    the one real root of ``s (1 + s)^2 = k``, ``k = t (1 - eps) / 2``,
    which lies in ``(0, min(k, k^(1/3))]``; Newton's method from that
    bound falls to it monotonically.
    """
    with mp.workdps(DIGITS + 10):
        k = mp.mpf(t) * (1 - mp.mpf(eps)) / 2
        s = min(k, mp.cbrt(k))
        for _ in range(200):
            step = (s * (1 + s) ** 2 - k) / ((1 + s) * (1 + 3 * s))
            s -= step
            if abs(step) <= s * mp.mpf(10) ** -(DIGITS + 5):
                break
        else:
            raise ArithmeticError("Newton's method did not converge")
    with mp.workdps(DIGITS):
        return +(s * s)


def first_best(r: Rate):
    return root_below(lambda c: (1 - c) / (1 - r.p(c)) - r.required_return(c), 1)


def optima(eps) -> dict[str, mp.mpf]:
    """The four programs, both tail limits and the band's crossing on
    ``Rate(eps)``, each from its defining equation.

    With ``u(c) = (1 - c - prize(c)) / (1 - p(c))`` the band's upper edge
    at floor ``c``, ``q(c)`` the same at floor 0, and ``A(c) = (1 - c) /
    (1 - p(c))`` the welfare of a constant tail:

    * the first best ``c_fb`` solves ``A(c) = r(c)``, and ``c_star`` is
      ``r = 1`` inverted;
    * the tail limits solve ``prize(d) = 1`` and ``c + prize(c) = 1``;
    * the initiator's tail ``c_circ`` solves ``q'(c) = 0``, written
      ``p'(c) (1 - prize(c)) = prize'(c) (1 - p(c))``, and ``r(x0_circ) =
      q(c_circ)``;
    * the self-financed tail ``c_s`` maximizes ``W(c) = 1 - x0 + p(x0)
      A(c)`` with ``r(x0) = u(c)``: ``W'(c) = x0' (p'(x0) A(c) - 1) + p(x0)
      A'(c)`` with ``x0' = u'(c) / r'(x0)``.  ``W'`` is positive at the
      peak ``c_u`` of ``u`` (``x0' = 0`` there, and ``A`` still rises) and
      negative at ``c_fb`` (``A' = 0``, ``u`` falls, and ``p'(x0) A = A /
      u > 1``), and ``W'`` changes sign only once between them (the proof
      in ``seqinvest.optima.self_financed_optimal``), so ``c_s`` is the
      only root on ``(c_u, c_fb)``, solved there; ``c_fb`` lies below ``c
      + prize(c) = 1`` for every cap of this family;
    * the band closes at ``c_cross``, where ``r(c) - 2 = q(c)``.
    """
    with mp.workdps(DIGITS):
        r = Rate(eps)

        def welfare(c):  # A(c)
            return (1 - c) / (1 - r.p(c))

        def welfare_prime(c):
            q = 1 - r.p(c)
            return (-q + (1 - c) * r.p_prime(c)) / q ** 2

        def upper(c, gamma):
            return (1 - gamma - r.prize(c)) / (1 - r.p(c))

        def upper_prime(c):  # u'(c) times (1 - p(c))^2
            return (-1 - r.prize_prime(c)) * (1 - r.p(c)) + (1 - c - r.prize(c)) * r.p_prime(c)

        def self_financed_slope(c):  # W'(c)
            x0 = investment_for(eps, upper(c, c))
            dx0 = upper_prime(c) / (1 - r.p(c)) ** 2 / r.return_prime(x0)
            return dx0 * (r.p_prime(x0) * welfare(c) - 1) + r.p(x0) * welfare_prime(c)

        c_fb = first_best(r)
        d = root(lambda c: r.prize(c) - 1, "0.01", 1)
        c_max_sf = root(lambda c: c + r.prize(c) - 1, "0.01", 1)
        if not c_fb < c_max_sf:
            raise ArithmeticError("the first best lies past the self-financed limit")
        c_circ = root_below(
            lambda c: r.p_prime(c) * (1 - r.prize(c)) - r.prize_prime(c) * (1 - r.p(c)), d
        )
        c_u = root_below(upper_prime, c_fb)
        c_s = root(self_financed_slope, c_u, c_fb)
        x0_s = investment_for(eps, upper(c_s, c_s))
        return {
            "c_fb": c_fb,
            "c_star": investment_for(eps, 1),
            "prize_one_level": d,
            "c_max_sf": c_max_sf,
            "c_circ": c_circ,
            "x0_circ": investment_for(eps, upper(c_circ, 0)),
            "c_u": c_u,
            "c_s": c_s,
            "x0_s": x0_s,
            "welfare_s": 1 - x0_s + r.p(x0_s) * welfare(c_s),
            "alpha_s": r.required_return(c_s) + c_s,
            "c_cross": root_below(lambda c: r.required_return(c) - 2 - upper(c, 0), d),
        }


def three_tier(r: Rate) -> dict[str, mp.mpf]:
    """The three-tier rule's equilibrium and its payoffs, from its rows.

    Rows ``[1], [2, 0], [0, 3, 0], [0, 2, 2, 0], [0, 2, 1, 2, 0], ...``:
    the initiator receives 1 if their own step fails, 2 if agent 1's does
    and 0 later; agent 1 receives 0, 3 and then 2; every later agent 0, 2
    if the next step fails and 1 later.  Each agent's return on success
    is its continuation reward less its stay-put payment, so the tail
    ``c`` solves ``r(c) = 2 (1 - p(c)) + p(c) = 2 - p(c)``, agent 1's
    ``r(x1) = 3 (1 - p(c)) + 2 p(c) = 3 - p(c)`` and the initiator's
    ``r(x0) = 2 (1 - p(x1)) - 1``; each payoff is the stay-put payment on
    failure plus the continuation reward on success, less the investment.
    """
    c = root(lambda x: r.required_return(x) - (2 - r.p(x)), "1e-6", 1)
    pc = r.p(c)
    x1 = investment_for(1 - r.scale, 3 - pc)
    p1 = r.p(x1)
    x0 = investment_for(1 - r.scale, 2 * (1 - p1) - 1)
    p0 = r.p(x0)
    return {
        "ex5_x2": c,
        "ex5_x1": x1,
        "ex5_x0": x0,
        "ex5_payoff0": (1 - p0) + 2 * p0 * (1 - p1) - x0,
        "ex5_payoff1": p1 * (3 - pc) - x1,
        "ex5_payoff2": pc * (2 - pc) - c,
    }


def constants() -> dict[str, mp.mpf]:
    with mp.workdps(DIGITS):
        # the frozen scaled-family constants use the exact cap sqrt(2)/2; at
        # its float, 0.7071067811865476, they move by about 3e-16 relative
        sr, scaled = Rate(), Rate(mp.sqrt(2) / 2)
        solved = optima(0)
        c_fb, x0_circ = solved["c_fb"], solved["x0_circ"]
        p_01777 = sr.p(mp.mpf(0.1777))
        # the three-tier equilibrium and the constants built on it, from
        # their frozen values
        from conftest import ORACLE

        x0, x1, x2, c_star = (
            mp.mpf(v) for v in (ORACLE.ex5_x0, ORACLE.ex5_x1, ORACLE.ex5_x2, ORACLE.c_star)
        )
        ex5_value = series(sr, (x0, x1), x2, one)
        ex5_invest = series(sr, (x0, x1), x2, lambda x: x)
        # flattened from agent 1 on, and from agent 0
        c_bar = flat_tail(sr, series(sr, (x1,), x2, one))
        c_2588 = mp.mpf(0.2588)
        return {
            "c_star": solved["c_star"],
            "c_fb": c_fb,
            "welfare_fb": (1 - c_fb) / (1 - sr.p(c_fb)),
            "prize_one_level": solved["prize_one_level"],
            "c_max_sf": solved["c_max_sf"],
            "c_fb_scaled": first_best(scaled),
            "bound0_scaled": root(
                lambda x: scaled.required_return(x) - (1 + 1 / scaled.eps), "1e-6", 10
            ),
            "bound5_scaled": root(
                lambda x: scaled.required_return(x) - (6 + 1 / scaled.eps), "1e-6", 10
            ),
            "p_01777": p_01777,
            "ratio_00131": sr.required_return(mp.mpf(0.0131)),
            "fixed_point_t": root(lambda x: sr.required_return(x) - (2 - p_01777), "1e-6", 1),
            "c_circ": solved["c_circ"],
            "x0_circ": x0_circ,
            "payoff0_circ": 1 + sr.prize(x0_circ) - x0_circ,
            "alpha_circ": sr.required_return(solved["c_circ"]),
            "ex5_value": ex5_value,
            "ex5_invest": ex5_invest,
            "ex5_welfare": ex5_value - ex5_invest,
            "ex5_cost": series(sr, (x0, x1), x2, sr.prize),
            "reach2_ex5": sr.p(x0) * sr.p(x1),
            "ex5_ratio_x0": sr.required_return(x0),
            "ex5_cbar": c_bar,
            "ex5_ctilde": flat_tail(sr, ex5_value),
            "ex5_cost_flat": series(sr, (x0,), c_bar, sr.prize),
            "ex5_invest_flat": series(sr, (x0,), c_bar, lambda x: x),
            # the near-constant support band at the flattened tail, floor 0
            "ex5_lower_at_cbar": sr.required_return(c_bar) - 2,
            "ex5_upper_at_cbar": (1 - sr.prize(c_bar)) / (1 - sr.p(c_bar)),
            "value_const_2588": series(sr, (), c_2588, one),
            "cost_const_2588": series(sr, (), c_2588, sr.prize),
            "value_c_star": series(sr, (), c_star, one),
            "invest_c_star": series(sr, (), c_star, lambda x: x),
            "welfare_c_star": series(sr, (), c_star, lambda x: 1 - x),
            # the equal split's rewards, 1 or 2 to the initiator and 0 or 1
            # to a later agent, on failure or success of their own step
            "payoff0_c_star": 1 + sr.p(c_star) - c_star,
            "payoff_tail_c_star": sr.p(c_star) - c_star,
            "c_cross": solved["c_cross"],
            # the self-financed optimum
            **{name: solved[name] for name in ("c_s", "x0_s", "welfare_s", "alpha_s")},
            **three_tier(sr),
        }


def main() -> None:
    from conftest import ORACLE

    for name, value in constants().items():
        frozen = getattr(ORACLE, name)
        with mp.workdps(DIGITS):
            rel = abs(mp.mpf(frozen) - value) / abs(value)
        print(f"{name:16s} {mp.nstr(value, 20):>24s}  frozen {frozen!r:24s} rel {mp.nstr(rel, 3)}")


if __name__ == "__main__":
    main()
