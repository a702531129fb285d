"""Balanced reward rules and the payoff functionals they induce.

A rule assigns ``f(i, k) >= 0`` to agent ``i`` when agent ``k`` is the
first to fail; the row for termination at ``k`` distributes exactly the
realized value ``k + 1`` over agents ``0..k``.  In matrix form column
``i`` is the payoff stream agent ``i`` faces, row ``k`` the realized
split.  For the canonical equal split, for example::

    1
    2  0
    2  1  0
    2  1  1  0
    ...

Rules are represented structurally rather than as raw matrices: each
column is a finite list of leading entries followed by a tail that is
constant or affine in the row index, and beyond finitely many leading
columns every column is a shifted copy of one repeating pattern.  This
is what makes balance on infinitely many rows checkable and the
continuation-reward series summable in closed form.  Every rule used by
the solvers fits, including finite perturbations and convex mixtures of
other rules.

Construction validates balance and non-negativity exactly on a leading
block of rows and structurally beyond it.  For a stationary rule the
block ends at row ``K + 1`` with ``K = max(leading tail starts,
len(leading) + len(repeating entries))``: from row ``K`` on every column
is in tail form, so each row sum is affine in the row index, and two
exact rows ``K`` and ``K + 1`` pin it to ``k + 1`` on all later rows.
Non-negative tail values and slopes then keep every later entry
non-negative.  Violations raise :class:`RuleConstructionError` with the
offending row.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Mapping

from .errors import DomainError, RuleConstructionError
from .profiles import ConstantTailProfile, _reach_series, incentive_cost
from .rates import SuccessRate


@dataclass(frozen=True)
class Column:
    """Payoff stream of one agent: explicit entries, then an affine tail.

    ``entries[t]`` is the reward when the chain ends ``t`` steps after
    the agent's own turn (``t = 0`` is the agent's own failure).  From
    offset ``len(entries)`` on, the reward is ``tail + slope * extra``.
    """

    start: int
    entries: tuple[float, ...]
    tail: float
    slope: float = 0.0

    def __post_init__(self) -> None:
        if not self.entries:
            raise RuleConstructionError("a column needs at least its diagonal entry")

    @property
    def tail_start(self) -> int:
        """First row index at which the affine tail applies."""
        return self.start + len(self.entries)

    def value(self, k: int) -> float:
        t = k - self.start
        if t < 0:
            raise DomainError(f"row {k} precedes column start {self.start}")
        if t < len(self.entries):
            return self.entries[t]
        return self.tail + self.slope * (t - len(self.entries))


def _combine_columns(w: float, a: Column, b: Column) -> Column:
    if a.start != b.start:
        raise RuleConstructionError("cannot combine columns of different agents")
    n = max(len(a.entries), len(b.entries))
    start = a.start
    entries = tuple(
        w * a.value(start + t) + (1.0 - w) * b.value(start + t) for t in range(n)
    )
    tail = w * a.value(start + n) + (1.0 - w) * b.value(start + n)
    slope = w * a.slope + (1.0 - w) * b.slope
    return Column(start, entries, tail, slope)


class RewardRule(abc.ABC):
    """Interface shared by every rule family; subclasses carry a ``label``."""

    @abc.abstractmethod
    def column(self, i: int) -> Column:
        """Payoff stream of agent ``i``."""

    @property
    @abc.abstractmethod
    def stationary_from(self) -> int | None:
        """Column index from which all columns are shifted copies of one
        pattern, or ``None`` when they never stabilize (jackpot-style)."""

    @property
    @abc.abstractmethod
    def diagonal_stationary_from(self) -> int:
        """Index from which the stay-put payments ``f(i, i)`` are constant."""

    def value(self, i: int, k: int) -> float:
        """Matrix entry ``f(i, k)``; requires ``0 <= i <= k``."""
        if i < 0 or k < i:
            raise DomainError(f"need 0 <= i <= k, got ({i}, {k})")
        return self.column(i).value(k)

    def diagonal(self, i: int) -> float:
        return self.column(i).entries[0]

    def row(self, k: int) -> list[float]:
        return [self.value(i, k) for i in range(k + 1)]

    def describe(self) -> str:
        return self.label

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.label}>"


def validate_rule(rule: RewardRule, rows: int, tol: float = 1e-9) -> None:
    """Exact balance and non-negativity on rows ``0..rows``.

    Also rejects negative tail values and slopes.  Callers pass a bound
    past which balance is structural: a :class:`StationaryColumnRule`
    passes ``K + 1`` with ``K = max(leading tail starts, len(leading) +
    len(repeating entries))``, since from row ``K`` on each row sum is
    affine in ``k`` and rows ``K`` and ``K + 1`` pin it to ``k + 1``; a
    :class:`Perturbed` rule passes one past the last tail start of its
    columns up to the last one it touches, beyond which its rows are base
    rows plus tail deltas that cancel.
    """
    cols = [rule.column(i) for i in range(rows + 1)]
    for k in range(rows + 1):
        row = [col.value(k) for col in cols[: k + 1]]
        low = min(row)
        if low < -tol:
            raise RuleConstructionError(
                f"{rule.label}: negative entry {low:g} in row {k}"
            )
        imbalance = sum(row) - (k + 1)
        if not abs(imbalance) <= tol:  # also rejects a NaN entry anywhere in the row
            raise RuleConstructionError(
                f"{rule.label}: row {k} sums to {k + 1 + imbalance:g}, "
                f"expected {k + 1}"
            )
    for i, col in enumerate(cols):
        if col.slope < -tol or col.tail < -tol:
            raise RuleConstructionError(
                f"{rule.label}: column {i} tail eventually negative"
            )


@dataclass(frozen=True, eq=False)
class StationaryColumnRule(RewardRule):
    """Finitely many explicit leading columns plus one repeating pattern.

    Columns ``i >= len(leading)`` all equal the repeating pattern shifted
    to start at their own diagonal.  All the named families below are
    instances; the class is also the escape hatch for one-off rules whose
    columns eventually become constant.
    """

    label: str
    leading: tuple[Column, ...]
    repeating_entries: tuple[float, ...]
    repeating_tail: float

    def __post_init__(self) -> None:
        for i, col in enumerate(self.leading):
            if col.start != i:
                raise RuleConstructionError(
                    f"leading column {i} declares start {col.start}"
                )
        if not self.repeating_entries:
            raise RuleConstructionError("repeating pattern needs a diagonal entry")
        k = max(
            max((c.tail_start for c in self.leading), default=0),
            len(self.leading) + len(self.repeating_entries),
        )
        validate_rule(self, k + 1)

    def column(self, i: int) -> Column:
        if i < len(self.leading):
            return self.leading[i]
        return Column(i, self.repeating_entries, self.repeating_tail, 0.0)

    @property
    def stationary_from(self) -> int | None:
        return len(self.leading)

    @property
    def diagonal_stationary_from(self) -> int:
        return max(len(self.leading), 1)


@dataclass(frozen=True, eq=False)
class JackpotRule(RewardRule):
    """Growing prize to the last successful agent.

    Row ``k >= 2`` pays 1 to the initiator, ``k`` to agent ``k - 1`` and
    nothing to anyone else, so columns never become copies of each other
    and no constant-tail profile can be verified against this rule; it is
    still usable in best-response dynamics, where only finitely many
    agents are evaluated.
    """

    label: str = "jackpot"

    def column(self, i: int) -> Column:
        if i < 0:
            raise DomainError(f"column index must be >= 0, got {i}")
        if i == 0:
            return Column(0, (1.0, 2.0), 1.0)
        return Column(i, (0.0, float(i + 1)), 0.0)

    @property
    def stationary_from(self) -> int | None:
        return None

    @property
    def diagonal_stationary_from(self) -> int:
        return 1


@dataclass(frozen=True, eq=False)
class Mixture(RewardRule):
    """Convex combination ``weight * left + (1 - weight) * right``.

    Balance is preserved automatically; mixing is how intermediate
    near-constant profiles are supported from two endpoint rules.
    """

    weight: float
    left: RewardRule
    right: RewardRule
    label: str = field(default="", repr=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.weight <= 1.0:
            raise RuleConstructionError(
                f"mixture weight must be in [0, 1], got {self.weight!r}"
            )
        if not self.label:
            object.__setattr__(
                self,
                "label",
                f"mix({self.weight:.6g}*{self.left.label} + "
                f"{1.0 - self.weight:.6g}*{self.right.label})",
            )

    def column(self, i: int) -> Column:
        return _combine_columns(self.weight, self.left.column(i), self.right.column(i))

    @property
    def stationary_from(self) -> int | None:
        a = self.left.stationary_from
        b = self.right.stationary_from
        if a is None or b is None:
            return None
        return max(a, b)

    @property
    def diagonal_stationary_from(self) -> int:
        return max(
            self.left.diagonal_stationary_from, self.right.diagonal_stationary_from
        )


@dataclass(frozen=True, eq=False)
class Perturbed(RewardRule):
    """A base rule plus per-column adjustments on finitely many columns.

    ``entries`` maps ``(i, k)`` to an additive change; ``column_tails``
    maps a column to ``(k_from, delta)`` meaning every entry of column
    ``i`` from row ``k_from`` on shifts by ``delta``.  Row sums must be
    unchanged: explicit entries must cancel within each row and the tail
    deltas must cancel across columns, otherwise construction fails with
    the offending row.
    """

    base: RewardRule
    entries: tuple[tuple[tuple[int, int], float], ...] = ()
    column_tails: tuple[tuple[int, tuple[int, float]], ...] = ()
    label: str = field(default="", repr=False)

    def __post_init__(self) -> None:
        entries = tuple(((int(i), int(k)), float(v)) for (i, k), v in self.entries)
        tails = tuple(
            (int(i), (int(k0), float(v))) for i, (k0, v) in self.column_tails
        )
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "column_tails", tails)
        for (i, k), _ in entries:
            if i < 0 or k < i:
                raise RuleConstructionError(f"delta entry at invalid cell ({i}, {k})")
        for i, (k0, _) in tails:
            if i < 0 or k0 <= i:
                raise RuleConstructionError(
                    f"column {i} tail delta must start after the diagonal"
                )
        tail_sum = sum(v for _, (_, v) in tails)
        if abs(tail_sum) > 1e-9:
            raise RuleConstructionError(
                f"column tail deltas sum to {tail_sum:g}; rows beyond the "
                "explicit block would be unbalanced"
            )
        if not self.label:
            object.__setattr__(self, "label", f"perturbed({self.base.label})")
        object.__setattr__(self, "_columns", self._touched_columns())
        cols = range(self._max_touched + 1)
        validate_rule(self, max((self.column(i).tail_start for i in cols), default=0) + 1)

    def _touched_columns(self) -> dict[int, Column]:
        """Each column with a delta, built once: base entries plus deltas."""
        deltas: dict[int, list[tuple[int, float]]] = {}
        for (i, k), v in self.entries:
            deltas.setdefault(i, []).append((k, v))
        tails: dict[int, tuple[int, float]] = {}
        for i, t in self.column_tails:
            tails.setdefault(i, t)  # a column's first tail delta applies
            deltas.setdefault(i, [])
        columns = {}
        for i, column_deltas in deltas.items():
            base = self.base.column(i)
            tail = tails.get(i)
            far = max(
                base.tail_start,
                max((k for k, _ in column_deltas), default=0) + 1,
                tail[0] + 1 if tail else 0,
            )
            n = far - i
            values = [base.value(i + t) for t in range(n)]
            for k, v in column_deltas:
                values[k - i] += v
            tail_delta = 0.0
            if tail is not None:
                k0, v = tail
                tail_delta = v
                for t in range(k0 - i, n):
                    values[t] += v
            columns[i] = Column(i, tuple(values), base.value(i + n) + tail_delta, base.slope)
        return columns

    def column(self, i: int) -> Column:
        col = self._columns.get(i)
        return self.base.column(i) if col is None else col

    @property
    def _max_touched(self) -> int:
        return max(self._columns, default=-1)

    @property
    def stationary_from(self) -> int | None:
        s = self.base.stationary_from
        if s is None:
            return None
        return max(s, self._max_touched + 1)

    @property
    def diagonal_stationary_from(self) -> int:
        return max(self.base.diagonal_stationary_from, self._max_touched + 1)


def equal_split() -> StationaryColumnRule:
    """1 per step to every successful agent, nothing to the failing one."""
    return StationaryColumnRule(
        "equal_split",
        leading=(Column(0, (1.0,), 2.0),),
        repeating_entries=(0.0,),
        repeating_tail=1.0,
    )


def fixed_fraction(alpha: float) -> StationaryColumnRule:
    """Successful non-initiators earn ``alpha`` per step; residual to the
    initiator, whose stream grows linearly when ``alpha < 1``."""
    if not 0.0 <= alpha <= 1.0:
        raise RuleConstructionError(f"alpha must be in [0, 1], got {alpha!r}")
    return StationaryColumnRule(
        f"fixed_fraction(alpha={alpha:.6g})",
        leading=(Column(0, (1.0,), 2.0, slope=1.0 - alpha),),
        repeating_entries=(0.0,),
        repeating_tail=alpha,
    )


def fixed_fraction_floor(alpha: float, gamma: float) -> StationaryColumnRule:
    """Fixed fraction plus a floor: every non-initiator keeps ``gamma``
    even when failing, with the fraction ``alpha`` once successful."""
    if not 0.0 <= alpha <= 1.0:
        raise RuleConstructionError(f"alpha must be in [0, 1], got {alpha!r}")
    if not 0.0 <= gamma <= 2.0:
        raise RuleConstructionError(f"gamma must be in [0, 2], got {gamma!r}")
    return StationaryColumnRule(
        f"fixed_fraction_floor(alpha={alpha:.6g}, gamma={gamma:.6g})",
        leading=(Column(0, (1.0, 2.0 - gamma), 3.0 - alpha - gamma, slope=1.0 - alpha),),
        repeating_entries=(gamma, alpha),
        repeating_tail=alpha,
    )


def jackpot() -> JackpotRule:
    return JackpotRule()


def flat_continuation(alpha: float, gamma: float) -> StationaryColumnRule:
    """Every agent's continuation reward is flat in the termination row.

    The initiator's net return is ``alpha - 1 - gamma`` (non-positive for
    the parameters used here), so zero initiator investment is a best
    response; used as the low endpoint when synthesizing supporting
    rules.
    """
    return StationaryColumnRule(
        f"flat_continuation(alpha={alpha:.6g}, gamma={gamma:.6g})",
        leading=(
            Column(0, (1.0,), alpha - gamma),
            Column(1, (2.0 - alpha + gamma,), 2.0),
        ),
        repeating_entries=(1.0 - alpha + gamma,),
        repeating_tail=1.0,
    )


def next_step_bonus(beta: float, gamma: float) -> StationaryColumnRule:
    """A one-step bonus ``beta`` on top of the equal-split stream.

    An agent earns ``1 + beta`` if the chain ends right after their own
    success and 1 per step otherwise, with floor ``gamma``; the high
    endpoint when the tail requires returns above 1.
    """
    return StationaryColumnRule(
        f"next_step_bonus(beta={beta:.6g}, gamma={gamma:.6g})",
        leading=(Column(0, (1.0, 2.0 - gamma), 2.0 - beta - gamma),),
        repeating_entries=(gamma, 1.0 + beta),
        repeating_tail=1.0,
    )


def next_step_bonus_zero_initiator(beta: float, gamma: float) -> StationaryColumnRule:
    """Next-step-bonus variant that strips the initiator's continuation.

    The initiator's net return is ``beta (1 - p) - 1``; the low endpoint
    when the tail requires returns above 1.
    """
    return StationaryColumnRule(
        f"next_step_bonus_zero_initiator(beta={beta:.6g}, gamma={gamma:.6g})",
        leading=(
            Column(0, (1.0, beta), 0.0),
            Column(1, (2.0 - beta, 3.0 - gamma), 3.0 - beta - gamma),
        ),
        repeating_entries=(gamma, 1.0 + beta),
        repeating_tail=1.0,
    )


def continuation_reward(
    sr: SuccessRate, rule: RewardRule, x: ConstantTailProfile, i: int
) -> float:
    """Expected reward to agent ``i`` conditional on their own success.

    Sums ``reach * (1 - p(x_k)) * f(i, k)`` over termination rows
    ``k > i``; the sum is explicit until both the column and the profile
    are in tail form and closes geometrically afterwards (an affine
    column tail against tail probability ``q`` contributes
    ``base + slope * q / (1 - q)``).
    """
    if i < 0:
        raise DomainError(f"agent index must be >= 0, got {i}")
    col = rule.column(i)
    k_stable = max(col.tail_start, x.prefix_len, i + 1)
    total, reach, pc = _reach_series(sr, x, i + 1, k_stable, col.value, stops=True)
    return total + reach * (col.value(k_stable) + col.slope * pc / (1.0 - pc))


def expected_payoff(
    sr: SuccessRate, rule: RewardRule, x: ConstantTailProfile, i: int
) -> float:
    """Expected payoff of agent ``i``: stay-put payment if failing, the
    continuation reward if succeeding, minus the sunk investment."""
    xi = x.at(i)
    return _payoff(sr, xi, rule.value(i, i), continuation_reward(sr, rule, x, i))


def _payoff(sr: SuccessRate, xi: float, fii: float, reward: float) -> float:
    # stay-put payment fii on failure, continuation reward on success
    pi = sr.probability(xi)
    return (1.0 - pi) * fii + pi * reward - xi


def implied_value(sr: SuccessRate, rule: RewardRule, x: ConstantTailProfile) -> float:
    """Stay-put payments plus incentive cost, reach-weighted.

    At any supported profile this equals ``expected_value`` (the rule's
    floors and incentives together account for exactly the value
    created); away from equilibrium the two can differ either way.
    """
    j0 = max(rule.diagonal_stationary_from, x.prefix_len, 1)
    total, reach, pc = _reach_series(sr, x, 0, j0, rule.diagonal)
    return total + reach * rule.diagonal(j0) / (1.0 - pc) + incentive_cost(sr, x)


def rule_from_config(kind: str, params: Mapping[str, float] | None = None) -> RewardRule:
    """Build a rule from its configuration fields (``kind`` + parameters)."""
    params = dict(params or {})

    def need(*names: str) -> list[float]:
        missing = [n for n in names if n not in params]
        if missing:
            raise DomainError(f"rule kind {kind!r} needs parameter(s) {missing}")
        return [float(params[n]) for n in names]

    if kind == "equal_split":
        return equal_split()
    if kind == "fixed_fraction":
        (alpha,) = need("alpha")
        return fixed_fraction(alpha)
    if kind == "fixed_fraction_floor":
        alpha, gamma = need("alpha", "gamma")
        return fixed_fraction_floor(alpha, gamma)
    if kind == "jackpot":
        return jackpot()
    if kind == "flat_continuation":
        alpha, gamma = need("alpha", "gamma")
        return flat_continuation(alpha, gamma)
    if kind == "next_step_bonus":
        beta, gamma = need("beta", "gamma")
        return next_step_bonus(beta, gamma)
    if kind == "next_step_bonus_zero_initiator":
        beta, gamma = need("beta", "gamma")
        return next_step_bonus_zero_initiator(beta, gamma)
    raise DomainError(f"unknown rule kind {kind!r}")
