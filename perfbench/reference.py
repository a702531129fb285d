"""Reference values for the output checks.

The ORACLE constants and the three-tier rule are read from
``tests/conftest.py`` (parsed, not imported, so pytest stays out of the
measured set-up); the numbers are never copied here.  The closed forms
below are written out independently of the library, for the square-root
family ``p(x) = (1 - eps) sqrt(x) / (1 + sqrt(x))`` that every workload
uses, so a check never runs library code.
"""

from __future__ import annotations

import ast
import math
import operator
from pathlib import Path
from types import SimpleNamespace

_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv}


def _number(node: ast.expr) -> float:
    if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
        return float(node.value)
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        return -_number(node.operand)
    if isinstance(node, ast.BinOp) and type(node.op) in _BINOPS:
        return _BINOPS[type(node.op)](_number(node.left), _number(node.right))
    raise ValueError(f"not a numeric constant: {ast.dump(node)}")


def load(root: Path, rules_module) -> SimpleNamespace:
    """ORACLE values and ``three_tier_rule`` from the test suite's conftest."""
    tree = ast.parse((root / "tests" / "conftest.py").read_text(), "conftest.py")
    values: dict[str, float] = {}
    three_tier = None
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "ORACLE":
            for stmt in node.body:
                if isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name):
                    values[stmt.targets[0].id] = _number(stmt.value)
        elif isinstance(node, ast.FunctionDef) and node.name == "three_tier_rule":
            three_tier = node
    if not values or three_tier is None:
        raise ValueError("tests/conftest.py lacks ORACLE or three_tier_rule")
    namespace = {"Column": rules_module.Column,
                 "StationaryColumnRule": rules_module.StationaryColumnRule}
    module = ast.Module(body=[three_tier], type_ignores=[])
    exec(compile(module, "conftest.py", "exec"), namespace)
    return SimpleNamespace(**values, three_tier_rule=namespace["three_tier_rule"])


# -- closed forms of the square-root family ------------------------------

def p(eps: float, x: float) -> float:
    s = math.sqrt(x)
    return (1.0 - eps) * s / (1.0 + s)


def prize(x: float) -> float:
    return 2.0 * x * (1.0 + math.sqrt(x))


def ratio(eps: float, x: float) -> float:
    """Required return ``1 / p'(x)``."""
    s = math.sqrt(x)
    return 2.0 * s * (1.0 + s) ** 2 / (1.0 - eps)


def ratio_inverse(eps: float, t: float) -> float:
    """The ``x`` with ``ratio(eps, x) = t``, by bisection on ``sqrt(x)``."""
    if t <= 0.0:
        return 0.0
    goal = t * (1.0 - eps) / 2.0
    lo, hi = 0.0, 1.0
    while hi * (1.0 + hi) ** 2 < goal:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * (1.0 + mid) ** 2 < goal:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-16 * hi:
            break
    return (0.5 * (lo + hi)) ** 2


def support_bounds(eps: float, c: float, gamma: float) -> tuple[float, float]:
    """Unclamped lower and upper initiator return bounds for ``(x0, c, c, ...)``."""
    return (ratio(eps, c) + gamma - 2.0,
            (1.0 - prize(c) - gamma) / (1.0 - p(eps, c)))


def series(eps: float, prefix, tail: float, term) -> float:
    """``sum_j reach(j) * term(x_j)`` with the geometric tail closed."""
    total, reach = 0.0, 1.0
    for x in prefix:
        total += reach * term(x)
        reach *= p(eps, x)
    return total + reach * term(tail) / (1.0 - p(eps, tail))


def functionals(eps: float, prefix, tail: float) -> dict[str, float]:
    value = series(eps, prefix, tail, lambda _: 1.0)
    investment = series(eps, prefix, tail, lambda x: x)
    return {"value": value, "investment": investment, "welfare": value - investment,
            "incentive_cost": series(eps, prefix, tail, prize)}


def feasible_target(rng, eps: float, gamma_max: float) -> tuple[float, float, float]:
    """A seeded ``(x0, c, gamma)`` strictly inside the near-constant support band.

    The initiator's return sits between 20% and 80% of the band, so the
    synthesized rule is a proper mixture of the two endpoint rules.
    """
    while True:
        c = math.exp(rng.uniform(math.log(1e-4), math.log(0.2)))
        gamma = rng.uniform(0.0, gamma_max)
        lower, upper = support_bounds(eps, c, gamma)
        lower = max(lower, 0.0)
        if upper - lower > 0.05 * max(upper, 1e-12):
            t = lower + rng.uniform(0.2, 0.8) * (upper - lower)
            return ratio_inverse(eps, t), c, gamma


def close(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))
