"""The benchmark's workloads: seeded inputs, the tasks run on them, and checks.

A task is one public library call (or one CLI invocation); its check
returns ``None`` when the output is right and a message otherwise.  The
library sees only the generated values, never the seed.  Tasks of one
cycle share a dict, through which later tasks read earlier outputs (a
synthesized rule is verified by the next task) and checks report the
largest error against the oracle.

Inputs the library is known to get wrong stay in the mix: their tasks
are marked with the defect and fail until the library is fixed.
"""

from __future__ import annotations

import contextlib
import io
import math
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from reference import (close, feasible_target, functionals, p, prize, ratio, ratio_inverse,
                       support_bounds)

CHECK_TOL = 1e-9  # library against oracle or closed form
RESIDUAL_TOL = 1e-8  # the library's own equilibrium tolerance
SWEEP_POINTS = 256
SE_LIMIT = 4.0


@dataclass
class Task:
    name: str
    run: Callable[[dict], object]
    check: Callable[[object, dict], str | None]
    known_defect: str = ""


@dataclass
class Context:
    """What every workload builder needs besides its seed."""

    root: Path
    si: object  # the seqinvest package
    ref: object  # reference values from tests/conftest.py
    python: str
    env: dict


def _near(what: str, got: float, want: float, tol: float = CHECK_TOL) -> str | None:
    return None if close(got, want, tol) else f"{what}={got!r}, want {want!r}"


def _optimum(ctx: dict, what: str, got: float, want: float) -> str | None:
    """An optimum against the ORACLE; the largest error is reported per cycle."""
    ctx["oracle_err"] = max(ctx.get("oracle_err", 0.0), abs(got - want))
    return _near(what, got, want)


def _first(*messages: str | None) -> str | None:
    return next((m for m in messages if m), None)


def _supported(report, want: bool = True) -> str | None:
    if report.supported != want:
        return f"verdict {report.verdict}: {'; '.join(report.failures[:2])}"
    if want and report.max_residual > RESIDUAL_TOL:
        return f"residual {report.max_residual:.3g}"
    return None


# -- design ---------------------------------------------------------------

def _sqrt_custom(si):
    """``sqrt_ratio``'s formula as a custom rate: derived prize, FD slope."""

    def p_(x: float) -> float:
        s = math.sqrt(x)
        return s / (1.0 + s)

    def p_prime(x: float) -> float:
        if x == 0.0:
            return math.inf
        s = math.sqrt(x)
        return 1.0 / (2.0 * s * (1.0 + s) ** 2)

    return si.custom_rate("sqrt_custom", p_, p_prime)


def _inverse_ok(eps: float, x: float, t: float) -> bool:
    """``x`` inverts the required return at ``t`` to the library's 1e-12 bracket."""
    return abs(x - ratio_inverse(eps, t)) <= 2e-12 + CHECK_TOL * x


def _sweep_check(eps: float, grid, self_financed: bool):
    def check(rows, ctx) -> str | None:
        if len(rows) != len(grid):
            return f"{len(rows)} rows for {len(grid)} points"
        for row, c in zip(rows, grid):
            gamma = c if self_financed else 0.0
            lower, upper = support_bounds(eps, c, gamma)
            if upper < 0.0:
                if row.upper is not None:
                    return f"c={c:g}: infeasible tail reported a curve"
                continue
            if not (_inverse_ok(eps, row.lower, max(lower, 0.0))
                    and _inverse_ok(eps, row.upper, upper)):
                return f"c={c:g}: curve misses the support bound"
        return None

    return check


def _unsupportable_constant(rng, eps: float) -> float:
    """A seeded constant investment whose prize clearly exceeds its probability."""
    while True:
        c = rng.uniform(0.05, 0.3)
        if prize(c) - p(eps, c) > 1e-3:
            return c


def build_design(cx: Context, rng) -> list[Task]:
    """Optimum programs, region curves and rule synthesis over a rate family.

    Per rate: 6 sub-millisecond tasks, 2 optima of about 3 ms, 3 syntheses
    and 3 tasks above 9 ms (the sweeps and the self-financed optimum), so
    the median task is an optimum and the 90th percentile falls inside the
    slowest group rather than on an edge between groups.
    """
    si, ref = cx.si, cx.ref
    # two cap strata: the sweeps' cost grows with eps, so narrow strata keep
    # the work of a cycle nearly the same from seed to seed
    eps_a, eps_b = rng.uniform(0.2, 0.3), rng.uniform(0.6, 0.7)
    family = [("sqrt", 0.0, si.sqrt_ratio()), ("custom", 0.0, _sqrt_custom(si)),
              (f"eps={eps_a:.3f}", eps_a, si.scaled_sqrt_ratio(eps_a)),
              (f"eps={eps_b:.3f}", eps_b, si.scaled_sqrt_ratio(eps_b))]
    grid = np.linspace(0.25 / (SWEEP_POINTS + 1), 0.25, SWEEP_POINTS, endpoint=False)
    tasks: list[Task] = []
    for label, eps, sr in family:
        oracle = eps == 0.0  # ORACLE values are for the unscaled family

        def first_best(c, ctx, eps=eps, oracle=oracle):
            if oracle:
                return _optimum(ctx, "c_fb", c, ref.c_fb)
            gap = (1.0 - c) / (1.0 - p(eps, c)) - ratio(eps, c)
            return None if abs(gap) <= CHECK_TOL else f"first-order gap {gap:.3g}"

        def social(res, ctx, eps=eps, oracle=oracle):
            c = res.profile.tail
            if oracle:
                return _first(_supported(res.report), _optimum(ctx, "c_star", c, ref.c_star))
            gap = prize(c) - p(eps, c)
            return _first(_supported(res.report),
                          None if abs(gap) <= CHECK_TOL else f"prize-probability gap {gap:.3g}")

        def initiator(res, ctx, oracle=oracle):
            if not oracle:
                return _supported(res.report)
            return _first(_supported(res.report),
                          _optimum(ctx, "c_circ", res.profile.tail, ref.c_circ),
                          _optimum(ctx, "x0_circ", res.profile.prefix[0], ref.x0_circ))

        def self_financed(res, ctx, oracle=oracle):
            if not oracle:
                return _supported(res.report)
            return _first(_supported(res.report),
                          _optimum(ctx, "c_s", res.profile.tail, ref.c_s),
                          _optimum(ctx, "x0_s", res.profile.prefix[0], ref.x0_s),
                          _optimum(ctx, "welfare_s", res.objective, ref.welfare_s))

        def crossing(c, ctx, eps=eps, oracle=oracle):
            if oracle:
                return _optimum(ctx, "c_cross", c, ref.c_cross)
            gap = ratio(eps, c) - (3.0 - 2.0 * p(eps, c))
            return None if abs(gap) <= 1e-6 else f"crossing identity gap {gap:.3g}"

        free = si.Mode.UNCONSTRAINED
        tight = si.Mode.SELF_FINANCED
        c_high = _unsupportable_constant(rng, eps)
        tasks += [
            Task(f"first_best[{label}]", lambda ctx, sr=sr: si.first_best_investment(sr), first_best),
            Task(f"constant_support_check[{label}]",
                 lambda ctx, sr=sr, c=c_high: si.constant_support_check(sr, c),
                 lambda res, ctx: "supported above c*" if res.supported else None),
            Task(f"socially_optimal[{label}]", lambda ctx, sr=sr: si.socially_optimal(sr), social),
            Task(f"initiator_optimal[{label}]", lambda ctx, sr=sr: si.initiator_optimal(sr), initiator),
            Task(f"self_financed_optimal[{label}]",
                 lambda ctx, sr=sr: si.self_financed_optimal(sr), self_financed),
            Task(f"region_curve_intersection[{label}]",
                 lambda ctx, sr=sr: si.region_curve_intersection(sr), crossing),
            Task(f"region_sweep[{label},unconstrained]",
                 lambda ctx, sr=sr: si.region_sweep(sr, grid, free), _sweep_check(eps, grid, False)),
            Task(f"region_sweep[{label},self_financed]",
                 lambda ctx, sr=sr: si.region_sweep(sr, grid, tight), _sweep_check(eps, grid, True)),
        ]
        for j in range(3):
            x0, c, gamma = feasible_target(rng, eps, 0.05)
            key = f"{label}/{j}"

            def synth(ctx, sr=sr, x0=x0, c=c, gamma=gamma, key=key):
                rule = si.synthesize_rule(sr, x0, c, gamma)
                ctx[key] = rule
                return rule

            def verify(ctx, sr=sr, x0=x0, c=c, key=key):
                return si.verify_equilibrium(sr, ctx[key], si.ConstantTailProfile((x0,), c))

            tasks += [
                Task(f"synthesize_rule[{label},{j}]", synth,
                     lambda rule, ctx: None if isinstance(rule, si.RewardRule) else "no rule"),
                Task(f"verify_equilibrium[{label},synth{j}]", verify,
                     lambda report, ctx: _supported(report)),
            ]
    return tasks


# -- play -------------------------------------------------------------------

def build_play(cx: Context, rng) -> list[Task]:
    """Dynamics, verification and payoff functionals over a rule catalogue.

    The mix is 20 evaluations of a few microseconds, 7 verifications of
    about 40 us, 9 slower verifications and flattenings, 4 horizon-8 and
    8 horizon-40 dynamics runs: the median task is one of the 40 us
    verifications and the 90th percentile a horizon-40 run, each well
    inside its group rather than on an edge between groups.
    """
    si, ref = cx.si, cx.ref
    sr = si.sqrt_ratio()
    capped = si.scaled_sqrt_ratio(rng.uniform(0.6, 0.8))
    x0_t, c_t, gamma_t = feasible_target(rng, 0.0, 0.05)
    mixture = si.synthesize_rule(sr, x0_t, c_t, gamma_t)
    if not isinstance(mixture, si.Mixture):
        raise RuntimeError(f"target ({x0_t}, {c_t}, {gamma_t}) did not give a mixture")
    q = p(0.0, ref.c_star)

    def transfer(beta):
        # a balanced transfer between agents 0 and 1 of the equal split
        return si.Perturbed(
            si.equal_split(),
            entries=(((0, 2), -beta * q), ((1, 2), beta * q)),
            column_tails=((0, (3, beta * (1.0 - q))), (1, (3, -beta * (1.0 - q)))),
        )

    jackpot = si.jackpot()
    bounds = [si.investment_bounds(capped).bound(i) for i in range(40)]
    free, tight = si.Mode.UNCONSTRAINED, si.Mode.SELF_FINANCED
    c_star = si.ConstantTailProfile((), ref.c_star)
    circ = si.ConstantTailProfile((ref.x0_circ,), ref.c_circ)
    sf = si.ConstantTailProfile((ref.x0_s,), ref.c_s)
    ex5 = si.ConstantTailProfile((ref.ex5_x0, ref.ex5_x1), ref.ex5_x2)
    target = si.ConstantTailProfile((x0_t,), c_t)
    rules = {
        "equal_split": si.equal_split(),
        "fixed_fraction": si.fixed_fraction(ref.alpha_circ),
        "fraction_floor": si.fixed_fraction_floor(ref.alpha_s, ref.c_s),
        "three_tier": ref.three_tier_rule(),
        "mixture": mixture,
        **{f"transfer{j}": transfer(rng.uniform(0.1, 1.0) * (-1) ** j) for j in range(3)},
    }
    supported = [("equal_split", c_star, free), ("fixed_fraction", circ, free),
                 ("fraction_floor", sf, tight), ("three_tier", ex5, free), ("mixture", target, free),
                 ("transfer0", c_star, free), ("transfer1", c_star, free), ("transfer2", c_star, free)]
    profiles = {name: x for name, x, _ in supported}

    def fixed_point(want, tol=CHECK_TOL):
        def check(res, ctx):
            if not res.converged or res.max_residual > RESIDUAL_TOL:
                return f"converged={res.converged} residual={res.max_residual:.3g}"
            return _first(*(_near(f"x{i}", res.profile.at(i), w, tol) for i, w in enumerate(want)))
        return check

    def within_bounds(res, ctx):
        if not res.converged or res.max_residual > RESIDUAL_TOL:
            return f"converged={res.converged} residual={res.max_residual:.3g}"
        for step in res.history:
            if any(x > bounds[i] + CHECK_TOL for i, x in enumerate(step)):
                return "an iterate exceeds the investment bound"
        return None

    ex5_point = (ref.ex5_x0, ref.ex5_x1, ref.ex5_x2)
    short = 5e-4  # agents frozen at zero past horizon 8 pull the early ones off
    dynamics = [
        ("three_tier", 8, sr, fixed_point(ex5_point, short)),
        ("jackpot", 8, capped, within_bounds),
        ("mixture", 8, sr, fixed_point((x0_t,), short)),
        ("equal_split", 8, sr, fixed_point((ref.c_star,) * 3, short)),
        ("three_tier", 40, sr, fixed_point(ex5_point)),
        ("jackpot", 40, capped, within_bounds),
        ("mixture", 40, sr, fixed_point((x0_t,))),
        ("equal_split", 40, sr, fixed_point((ref.c_star,) * 3)),
        ("fixed_fraction", 40, sr, fixed_point((ref.x0_circ, ref.c_circ))),
        ("fraction_floor", 40, sr, fixed_point((ref.x0_s, ref.c_s))),
        ("transfer0", 40, sr, fixed_point((ref.c_star,) * 3)),
        ("transfer1", 40, sr, fixed_point((ref.c_star,) * 3)),
    ]
    tasks = [Task(f"dynamics[{name},{h}]",
                  lambda ctx, rate=rate, r=rules.get(name, jackpot), h=h: si.best_response_dynamics(rate, r, h),
                  check)
             for name, h, rate, check in dynamics]

    tasks += [Task(f"verify[{name},{mode.value}]",
                   lambda ctx, r=rules[name], x=x, m=mode: si.verify_equilibrium(sr, r, x, m),
                   lambda rep, ctx: _supported(rep))
              for name, x, mode in supported]
    # negative controls: no stay-put budget, and the unsupportable first best
    tasks += [Task(f"verify[{name},{label}]",
                   lambda ctx, r=rules[name], x=x, m=mode: si.verify_equilibrium(sr, r, x, m),
                   lambda rep, ctx: _supported(rep, want=False))
              for name, label, x, mode in [
                  ("equal_split", "self_financed", c_star, tight),
                  ("three_tier", "self_financed", ex5, tight),
                  ("equal_split", "c_fb", si.ConstantTailProfile((), ref.c_fb), free)]]

    def flat_value(x):
        want = functionals(0.0, x.prefix, x.tail)["value"]
        return lambda flat, ctx: (None if close(functionals(0.0, flat.prefix, flat.tail)["value"], want, 1e-10)
                                  else "flattening changed the expected value")

    tasks += [
        Task("flatten_tail[three_tier,1]", lambda ctx: si.flatten_tail(sr, ex5, 1),
             lambda x, ctx: _near("ex5_cbar", x.tail, ref.ex5_cbar)),
        Task("flatten_tail[three_tier,0]", lambda ctx: si.flatten_tail(sr, ex5, 0),
             lambda x, ctx: _near("ex5_ctilde", x.tail, ref.ex5_ctilde)),
        Task("flatten_tail[mixture,0]", lambda ctx: si.flatten_tail(sr, target, 0), flat_value(target)),
        Task("flatten_tail[fixed_fraction,0]", lambda ctx: si.flatten_tail(sr, circ, 0), flat_value(circ)),
        Task("flatten_tail[fraction_floor,0]", lambda ctx: si.flatten_tail(sr, sf, 0), flat_value(sf)),
    ]

    oracle_functionals = {
        "equal_split": {"value": ref.value_c_star, "investment": ref.invest_c_star,
                        "welfare": ref.welfare_c_star},
        "three_tier": {"value": ref.ex5_value, "investment": ref.ex5_invest,
                       "welfare": ref.ex5_welfare, "incentive_cost": ref.ex5_cost},
        "fraction_floor": {"welfare": ref.welfare_s},
        "c_fb": {"welfare": ref.welfare_fb},
    }
    profiles["c_fb"] = si.ConstantTailProfile((), ref.c_fb)
    for name in ("equal_split", "three_tier", "fraction_floor", "mixture", "fixed_fraction", "c_fb"):
        x = profiles[name]
        want = functionals(0.0, x.prefix, x.tail)
        oracle = oracle_functionals.get(name, {})

        def fcheck(got, ctx, want=want, oracle=oracle):
            for field, value in want.items():
                if not close(getattr(got, field), value, 1e-10):
                    return f"{field}={getattr(got, field)!r}, closed form {value!r}"
            return _first(*(_near(f, getattr(got, f), v) for f, v in oracle.items()))

        tasks.append(Task(f"functionals[{name}]", lambda ctx, x=x: si.functionals(sr, x), fcheck))

    for name in ("equal_split", "fixed_fraction", "fraction_floor", "three_tier", "mixture",
                 "transfer0", "transfer1", "transfer2"):
        x = profiles[name]
        value = functionals(0.0, x.prefix, x.tail)["value"]
        tasks.append(Task(
            f"implied_value[{name}]",
            lambda ctx, r=rules[name], x=x: si.implied_value(sr, r, x),
            lambda v, ctx, value=value: None if abs(v - value) <= RESIDUAL_TOL
            else f"implied {v!r} != value {value!r}"))

    payoffs = [("equal_split", 0, ref.payoff0_c_star), ("equal_split", 1, ref.payoff_tail_c_star),
               ("three_tier", 0, ref.ex5_payoff0), ("three_tier", 1, ref.ex5_payoff1),
               ("three_tier", 2, ref.ex5_payoff2), ("fixed_fraction", 0, ref.payoff0_circ)]
    tasks += [Task(f"expected_payoff[{name},{i}]",
                   lambda ctx, r=rules[name], x=profiles[name], i=i: si.expected_payoff(sr, r, x, i),
                   lambda v, ctx, want=want, i=i: _near(f"payoff{i}", v, want))
              for name, i, want in payoffs]
    return tasks


# -- montecarlo ---------------------------------------------------------------

def build_montecarlo(cx: Context, rng) -> list[Task]:
    """Monte Carlo summaries checked against the closed forms.

    Episode counts put the per-step draw array (8 bytes an episode) inside
    a 2 MiB per-core L2 (200k) and beyond a 105 MiB L3 (16M).  The mix is
    3 summaries of 200k episodes, 6 of 1M (two of them in 2 shards), the
    capped long chain, then 2 of 16M and 2 long chains (tail 1e5, mean
    length 316) at 80k, which take about as long as each other: the median
    task is a 1M summary and the 90th percentile a long chain, each inside
    its group rather than on an edge between groups.
    """
    si, ref = cx.si, cx.ref
    sr = si.sqrt_ratio()
    equal = si.equal_split()
    fixed = si.fixed_fraction(ref.alpha_circ)
    floor = si.fixed_fraction_floor(ref.alpha_s, ref.c_s)
    c_star, circ, sf = ((), ref.c_star), ((ref.x0_circ,), ref.c_circ), ((ref.x0_s,), ref.c_s)
    long = ((), 1e5)
    cases = [
        ("equal_split@c*,200k", equal, c_star, 200_000, 1, 10_000, ""),
        ("fixed_fraction@circ,200k", fixed, circ, 200_000, 1, 10_000, ""),
        ("fraction_floor@s,200k", floor, sf, 200_000, 1, 10_000, ""),
        ("equal_split@c*,1M", equal, c_star, 1_000_000, 1, 10_000, ""),
        ("fixed_fraction@circ,1M", fixed, circ, 1_000_000, 1, 10_000, ""),
        ("fraction_floor@s,1M", floor, sf, 1_000_000, 1, 10_000, ""),
        ("three_tier@ex5,1M", ref.three_tier_rule(), ((ref.ex5_x0, ref.ex5_x1), ref.ex5_x2),
         1_000_000, 1, 10_000, ""),
        ("three_tier@ex5,1M,shards=2", ref.three_tier_rule(),
         ((ref.ex5_x0, ref.ex5_x1), ref.ex5_x2), 1_000_000, 2, 10_000, ""),
        ("fraction_floor@s,1M,shards=2", floor, sf, 1_000_000, 2, 10_000, ""),
        ("equal_split@c*,16M", equal, c_star, 16_000_000, 1, 10_000, ""),
        ("fixed_fraction@circ,16M", fixed, circ, 16_000_000, 1, 10_000, ""),
        ("equal_split@tail=1e5,80k", equal, long, 80_000, 1, 10_000, ""),
        ("fixed_fraction@tail=1e5,80k", fixed, long, 80_000, 1, 10_000, ""),
        ("equal_split@tail=1e5,100k,cap=50", equal, long, 100_000, 1, 50,
         "simulate discards chains past max_chain_length and reports a biased mean"),
    ]
    tasks: list[Task] = []
    for name, rule, shape, episodes, shards, cap, defect in cases:
        x = si.ConstantTailProfile(*shape)
        config = si.SimulationConfig(episodes=episodes, seed=int(rng.integers(2**32)),
                                     max_chain_length=cap, shards=shards)
        truth = {
            "total_value": si.expected_value(sr, x),
            "total_investment": si.expected_investment(sr, x),
            "welfare": si.expected_welfare(sr, x),
        }
        payoff_truth = [si.expected_payoff(sr, rule, x, i) for i in range(3)]
        first: list = []

        def check(summary, ctx, truth=truth, payoff_truth=payoff_truth, first=first):
            if summary.discarded:
                return f"{summary.discarded} episodes discarded"
            for field, want in truth.items():
                stat = getattr(summary, field)
                if abs(stat.mean - want) > SE_LIMIT * stat.se:
                    return f"{field} {stat.mean!r} is {abs(stat.mean - want) / stat.se:.1f} SE off"
            for stat, want in zip(summary.payoffs, payoff_truth):
                if abs(stat.mean - want) > SE_LIMIT * stat.se:
                    return f"payoff_{stat.agent} is {abs(stat.mean - want) / stat.se:.1f} SE off"
            if not first:
                first.append(summary)
            elif summary != first[0]:
                return "rerun with the same seed differs"
            return None

        tasks.append(Task(f"summarize[{name}]",
                          lambda ctx, x=x, r=rule, cfg=config: si.summarize(sr, x, r, cfg),
                          check, defect))
    return tasks


# -- cli ----------------------------------------------------------------------

def _rows(out: str) -> dict[str, list[str]]:
    return {parts[0]: parts[1:] for parts in (line.split() for line in out.splitlines()) if parts}


def _cli_ok(check):
    def wrapped(result, ctx):
        code, out, err = result
        if code != 0:
            return f"exit {code}: {(err.strip().splitlines() or [''])[-1]}"
        return check(out, ctx)
    return wrapped


def _usage_error(result, ctx) -> str | None:
    code, _, err = result
    if code == 2 and "error:" in err and "Traceback" not in err:
        return None
    return f"exit {code}, want 2 with an error line"


def cli_cases(cx: Context, rng, missing_dir: str) -> list[tuple[str, list[str], Callable, str]]:
    """The README command mix plus the known malformed-input defects."""
    ref = cx.ref
    x0, c, gamma = feasible_target(rng, 0.0, 0.05)
    sim_seed = int(rng.integers(2**31))
    v_truth = functionals(0.0, (), 0.0883)["value"]
    capped_truth = p(0.0, 1e5) / (1.0 - p(0.0, 1e5))

    def optima(out, ctx):
        rows = _rows(out)
        if out.count("verified=yes") != 3:
            return "not every optimum verified"
        want = {"c_fb": ref.c_fb, "c_socially_optimal": ref.c_star,
                "x0_initiator_optimal": ref.x0_circ, "c_initiator_optimal": ref.c_circ,
                "x0_self_financed_optimal": ref.x0_s, "c_self_financed_optimal": ref.c_s}
        return _first(*(_optimum(ctx, k, float(rows[k][0]), v) for k, v in want.items()))

    def verdict(key, word):
        return lambda out, ctx: None if _rows(out).get(key, [""])[0] == word else f"{key} is not {word}"

    def region(out, ctx):
        lines = out.strip().splitlines()
        if lines[0] != "c,diagonal,lower,upper" or len(lines) != SWEEP_POINTS + 1:
            return "unexpected csv shape"
        for line in lines[1:]:
            cc, _, lo, hi = (float(v) for v in line.split(","))
            lower, upper = support_bounds(0.0, cc, cc)
            if not (_inverse_ok(0.0, lo, max(lower, 0.0)) and _inverse_ok(0.0, hi, upper)):
                return f"c={cc:g}: curve misses the support bound"
        return None

    def simulate(out, ctx):
        rows = _rows(out)
        value, se = float(rows["total_value"][0]), float(rows["total_value"][1][3:])
        if rows["discarded"][0] != "0":
            return "episodes discarded"
        return None if abs(value - v_truth) <= SE_LIMIT * se else f"total_value {value} off by > 4 SE"

    def jackpot_rows(out, ctx):
        got = [[float(v) for v in line.split("\t")] for line in out.strip().splitlines()]
        want = [[1.0]] + [[2.0, 0.0]] + [[1.0] + [0.0] * (k - 2) + [float(k), 0.0] for k in range(2, 8)]
        return None if got == want else "jackpot rows differ"

    def capped(result, ctx):
        code, out, _ = result
        if code != 0:
            return None  # failing loudly is acceptable
        rows = _rows(out)
        mean, se = float(rows["terminal_index"][0]), float(rows["terminal_index"][1][3:])
        if rows["discarded"][0] != "0" or abs(mean - capped_truth) > SE_LIMIT * se:
            return f"exit 0 with {rows['discarded'][0]} discarded, mean {mean} (true {capped_truth:.1f})"
        return None

    defect = "malformed input leaks a traceback with exit 1"
    return [
        ("optima", ["optima"], _cli_ok(optima), ""),
        ("verify", ["verify", "--rule", "kind=equal_split", "--profile", "tail=0.0883",
                    "--tol-eq", "1e-4"], _cli_ok(verdict("verdict", "Supported")), ""),
        ("verify_self_financed",
         ["verify", "--rule", "kind=fixed_fraction_floor,alpha=0.9377,gamma=0.0723",
          "--profile", "prefix=[0.0816],tail=0.0723", "--self-financed", "--tol-eq", "1e-3"],
         _cli_ok(verdict("verdict", "Supported")), ""),
        ("synthesize", ["synthesize", "--x0", repr(x0), "--c", repr(c), "--gamma", repr(gamma)],
         _cli_ok(verdict("verified", "Supported")), ""),
        ("dynamics", ["dynamics", "--rule", "kind=jackpot", "--rate", "scaled_sqrt_ratio",
                      "--epsilon", "0.7071", "--horizon", "12"], _cli_ok(verdict("converged", "yes")), ""),
        ("region", ["region", "--mode", "self_financed", "--points", str(SWEEP_POINTS),
                    "--format", "csv"], _cli_ok(region), ""),
        ("simulate", ["simulate", "--rule", "kind=equal_split", "--profile", "tail=0.0883",
                      "--episodes", "1000000", "--seed", str(sim_seed)], _cli_ok(simulate), ""),
        ("rule_print", ["rule", "print", "--rule", "kind=jackpot", "--rows", "8"],
         _cli_ok(jackpot_rows), ""),
        ("bad_alpha", ["verify", "--rule", "kind=fixed_fraction,alpha=abc", "--profile", "tail=0.0883"],
         _usage_error, defect),
        ("bad_tail", ["verify", "--rule", "kind=equal_split", "--profile", "tail=zz"],
         _usage_error, defect),
        ("bad_output", ["optima", "--output", f"{missing_dir}/x"], _usage_error, defect),
        ("capped_chain", ["simulate", "--rule", "kind=equal_split", "--profile", "tail=1e5",
                          "--max-chain-length", "50", "--episodes", "1000", "--seed", str(sim_seed)],
         capped, "simulate discards chains past max_chain_length and exits 0 with a biased mean"),
    ]


def build_cli(cx: Context, rng, in_process: bool = False) -> list[Task]:
    """One CLI invocation per task: a fresh interpreter, or ``main`` in-process."""
    missing = cx.root / ".perfbench-missing"
    if missing.exists():
        raise RuntimeError(f"{missing} must not exist: the bad_output case needs a missing directory")
    tasks = []
    for name, argv, check, defect in cli_cases(cx, rng, str(missing)):
        run = _in_process(cx, argv) if in_process else _spawn(cx, argv)
        tasks.append(Task(f"cli[{name}]", run, check, defect))
    return tasks


def _spawn(cx: Context, argv: list[str]):
    cmd = [cx.python, "-m", "seqinvest.cli", *argv]

    def run(ctx):
        proc = subprocess.run(cmd, cwd=cx.root, env=cx.env, capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    return run


def _in_process(cx: Context, argv: list[str]):
    def run(ctx):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cx.si.cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # the interpreter would exit 1 with a traceback
                print(f"Traceback (most recent call last):\n{exc!r}", file=err)
                code = 1
        return code, out.getvalue(), err.getvalue()

    return run


BUILDERS = {
    "design": build_design,
    "play": build_play,
    "montecarlo": build_montecarlo,
    "cli": build_cli,
}
