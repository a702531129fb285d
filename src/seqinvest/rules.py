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

Every rule is one class, :class:`StationaryColumnRule` (the package
also binds it as ``RewardRule``, a second name kept only while the
benchmark reads it): finitely many explicit
leading columns, each a list of entries followed by a tail that is
constant or affine in the row index, then one repeating pattern shifted
to start at each later column's diagonal.  A pattern entry may drift, growing
linearly in the column index (jackpot pays agent ``i`` the amount
``i + 1`` one step after its turn: entry 1, drift 1).  :class:`Mixture`
and :class:`Perturbed` build this form once, at construction, and keep
nothing else, so there is one ``column``.  :class:`Perturbed` goes
through the class constructor and its one balance bound; :class:`Mixture`
alone skips the bound, since a mix of balanced rules is balanced and
checking it would slow every rule synthesis by about a quarter.
The form makes balance on infinitely many rows checkable and the
continuation-reward series summable in closed form.

Construction checks balance and non-negativity exactly on rows
``0..K + 1`` with ``K = max(leading tail starts, len(leading) +
len(pattern))``.  From row ``K`` on, every leading column is in its
affine tail and every later column is in its constant tail or at a
pattern entry affine in its column index, hence in ``k``; so each row
sum is affine in ``k`` and rows ``K`` and ``K + 1`` pin it to ``k + 1``
on all later rows.  Non-negative tails, slopes and drifts keep every
later entry non-negative, and the diagonal may not drift, so stay-put
payments are constant from the first pattern column on.  Violations
raise :class:`RuleConstructionError` with the offending row.

A :class:`Column` is an immutable record of four fields ``(start,
entries, tail, slope)`` built on a ``typing.NamedTuple``, so it costs what
a tuple costs: ``column(i)`` builds one per call for every pattern agent.
Its constructor keeps one check, that the column has its diagonal entry.
The rule classes stay frozen dataclasses, since construction checks balance.

Column and row indices are integers, anything ``operator.index`` accepts,
or :class:`DomainError` is raised naming the index; a Python ``int`` passes
on one inline test, since ``column`` runs once per agent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple

from .errors import DomainError, RuleConstructionError, _check_count, _index
from .profiles import ConstantTailProfile, _reach_series, incentive_cost
from .rates import SuccessRate

_BALANCE_TOL = 1e-9  # rounding allowed on each row sum and entry sign


class _ColumnFields(NamedTuple):
    start: int
    entries: tuple[float, ...]
    tail: float
    slope: float = 0.0


class Column(_ColumnFields):
    """Payoff stream of one agent: explicit entries, then an affine tail.

    ``entries[t]`` is the reward when the chain ends ``t`` steps after
    the agent's own turn (``t = 0`` is the agent's own failure).  From
    offset ``len(entries)`` on, the reward is ``tail + slope * extra``.
    """

    __slots__ = ()

    def __new__(
        cls, start: int, entries: tuple[float, ...], tail: float, slope: float = 0.0
    ) -> Column:
        if not entries:
            raise RuleConstructionError("a column needs at least its diagonal entry")
        return tuple.__new__(cls, (start, entries, tail, slope))

    @classmethod
    def _make(cls, iterable) -> Column:
        # ``_replace`` builds through ``_make``, so copies keep the check
        return cls(*iterable)

    @property
    def tail_start(self) -> int:
        """First row index at which the affine tail applies."""
        return self.start + len(self.entries)

    def value(self, k: int) -> float:
        if k.__class__ is not int:
            k = _index("row index", k)
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


def validate_rule(rule: StationaryColumnRule, rows: int) -> None:
    """Exact balance and non-negativity on rows ``0..rows``, to ``_BALANCE_TOL``.

    Also rejects negative tail values and slopes.  Construction passes
    ``K + 1``, past which balance is structural (module docstring).
    """
    cols = [rule.column(i) for i in range(rows + 1)]
    for k in range(rows + 1):
        row = [col.value(k) for col in cols[: k + 1]]
        low = min(row)
        if low < -_BALANCE_TOL:
            raise RuleConstructionError(
                f"{rule.label}: negative entry {low:g} in row {k}"
            )
        imbalance = sum(row) - (k + 1)
        if not abs(imbalance) <= _BALANCE_TOL:  # also rejects a NaN entry anywhere in the row
            raise RuleConstructionError(
                f"{rule.label}: row {k} sums to {k + 1 + imbalance:g}, "
                f"expected {k + 1}"
            )
    for i, col in enumerate(cols):
        if col.slope < -_BALANCE_TOL or col.tail < -_BALANCE_TOL:
            raise RuleConstructionError(
                f"{rule.label}: column {i} tail eventually negative"
            )


@dataclass(frozen=True, eq=False)
class StationaryColumnRule:
    """Finitely many explicit leading columns plus one repeating pattern.

    Column ``i >= len(leading)`` starts at its own diagonal; its entry
    ``t`` is ``repeating_entries[t] + repeating_drift[t] * i`` and every
    later entry is ``repeating_tail``.  An empty ``repeating_drift`` (the
    case for every rule but jackpot) means no drift, and an all-zero one
    is stored empty.  The named families below are instances; the class
    is also the escape hatch for one-off rules.
    """

    label: str
    leading: tuple[Column, ...]
    repeating_entries: tuple[float, ...]
    repeating_tail: float
    repeating_drift: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        for i, col in enumerate(self.leading):
            if col.start != i:
                raise RuleConstructionError(
                    f"leading column {i} declares start {col.start}"
                )
        if not self.repeating_entries:
            raise RuleConstructionError("repeating pattern needs a diagonal entry")
        drift = self.repeating_drift
        if drift:
            if len(drift) != len(self.repeating_entries):
                raise RuleConstructionError(f"{self.label}: one drift per pattern entry")
            if drift[0] != 0.0:
                raise RuleConstructionError(f"{self.label}: the diagonal entry cannot drift")
            if not all(d >= 0.0 for d in drift):
                raise RuleConstructionError(f"{self.label}: negative drift")
            if not any(drift):
                object.__setattr__(self, "repeating_drift", ())
        k = max(
            max((c.tail_start for c in self.leading), default=0),
            len(self.leading) + len(self.repeating_entries),
        )
        validate_rule(self, k + 1)

    def column(self, i: int) -> Column:
        if i.__class__ is not int or i < 0:
            i = _check_count("column index", i, 0)
        if i < len(self.leading):
            return self.leading[i]
        entries = self.repeating_entries
        if self.repeating_drift:
            entries = tuple([e + d * i for e, d in zip(entries, self.repeating_drift)])
        return Column(i, entries, self.repeating_tail, 0.0)

    @property
    def stationary_from(self) -> int | None:
        """Column index from which all columns are shifted copies of one
        pattern, or ``None`` when they never stabilize (jackpot-style)."""
        # a drifting pattern never repeats exactly
        return None if self.repeating_drift else len(self.leading)

    def value(self, i: int, k: int) -> float:
        """Matrix entry ``f(i, k)``; requires integers ``0 <= i <= k``."""
        if i.__class__ is not int or k.__class__ is not int:
            i, k = _index("column index", i), _index("row index", k)
        if i < 0 or k < i:
            raise DomainError(f"need 0 <= i <= k, got ({i}, {k})")
        return self.column(i).value(k)

    def row(self, k: int) -> list[float]:
        k = _check_count("row index", k, 0)
        return [self.value(i, k) for i in range(k + 1)]


class Mixture(StationaryColumnRule):
    """Convex combination ``weight * left + (1 - weight) * right``.

    Mixing is how intermediate near-constant profiles are supported from
    two endpoint rules.  Leading columns, pattern and drift are combined
    once; a convex combination of balanced rules is balanced, so no row
    is checked again.
    """

    def __init__(
        self,
        weight: float,
        left: StationaryColumnRule,
        right: StationaryColumnRule,
    ) -> None:
        if not 0.0 <= weight <= 1.0:
            raise RuleConstructionError(f"mixture weight must be in [0, 1], got {weight!r}")
        n = max(len(left.leading), len(right.leading))
        m = max(len(left.repeating_entries), len(right.repeating_entries))
        leading = tuple(_combine_columns(weight, left.column(i), right.column(i)) for i in range(n))
        v = 1.0 - weight

        def mix(a, b, a_fill, b_fill):
            # past a part's own pattern entries: its tail, and no drift
            a, b = a + (a_fill,) * (m - len(a)), b + (b_fill,) * (m - len(b))
            return tuple([weight * x + v * y for x, y in zip(a, b)])

        drift = mix(left.repeating_drift, right.repeating_drift, 0.0, 0.0)
        # the form goes on the frozen instance directly, not through the
        # dataclass __init__, whose balance check a mix of balanced rules skips
        vars(self).update(
            label=f"mix({weight:.6g}*{left.label} + {v:.6g}*{right.label})",
            leading=leading,
            repeating_entries=mix(
                left.repeating_entries, right.repeating_entries,
                left.repeating_tail, right.repeating_tail,
            ),
            repeating_tail=weight * left.repeating_tail + v * right.repeating_tail,
            repeating_drift=drift if any(drift) else (),
        )


def _perturb_column(
    col: Column, cells: list[tuple[int, float]], shifts: list[tuple[int, float]]
) -> Column:
    """``col`` plus ``v`` at each row ``k`` of ``cells`` and plus ``v`` on
    every row from ``k0`` on for each ``(k0, v)`` of ``shifts``."""
    i = col.start
    n = max([col.tail_start] + [k + 1 for k, _ in cells] + [k0 + 1 for k0, _ in shifts]) - i
    values = [col.value(i + t) for t in range(n)]
    for k, v in cells:
        values[k - i] += v
    tail = col.value(i + n)
    for k0, v in shifts:
        for t in range(k0 - i, n):
            values[t] += v
        tail += v
    return Column(i, tuple(values), tail, col.slope)


class Perturbed(StationaryColumnRule):
    """A base rule plus per-column adjustments on finitely many columns.

    ``entries`` maps ``(i, k)`` to an additive change; ``column_tails``
    maps a column to ``(k_from, delta)`` meaning every entry of column
    ``i`` from row ``k_from`` on shifts by ``delta``.  Every listed change
    applies, so changes at the same place add up.  Row sums must be
    unchanged: explicit entries must cancel within each row and the tail
    deltas across columns, otherwise the balance bound fails with the
    offending row.  The touched columns become explicit leading columns;
    the base's pattern carries on past them.  Every index is an integer
    (anything ``operator.index`` accepts), or :class:`DomainError` is
    raised naming it.
    """

    def __init__(
        self,
        base: StationaryColumnRule,
        entries: tuple[tuple[tuple[int, int], float], ...] = (),
        column_tails: tuple[tuple[int, tuple[int, float]], ...] = (),
    ) -> None:
        entries = tuple(
            ((_index("entries column", i), _index("entries row", k)), float(v))
            for (i, k), v in entries
        )
        tails = tuple(
            (_index("column_tails column", i), (_index("column_tails start", k0), float(v)))
            for i, (k0, v) in column_tails
        )
        cells: dict[int, list[tuple[int, float]]] = {}
        shifts: dict[int, list[tuple[int, float]]] = {}
        for (i, k), v in entries:
            if i < 0 or k < i:
                raise RuleConstructionError(f"delta entry at invalid cell ({i}, {k})")
            cells.setdefault(i, []).append((k, v))
        for i, (k0, v) in tails:
            if i < 0 or k0 <= i:
                raise RuleConstructionError(
                    f"column {i} tail delta must start after the diagonal"
                )
            shifts.setdefault(i, []).append((k0, v))
        touched = cells.keys() | shifts.keys()
        n = max(len(base.leading), max(touched, default=-1) + 1)
        leading = [base.column(i) for i in range(n)]
        for i in touched:
            leading[i] = _perturb_column(leading[i], cells.get(i, []), shifts.get(i, []))
        super().__init__(
            label=f"perturbed({base.label})",
            leading=tuple(leading),
            repeating_entries=base.repeating_entries,
            repeating_tail=base.repeating_tail,
            repeating_drift=base.repeating_drift,
        )


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


def jackpot() -> StationaryColumnRule:
    """Growing prize to the last successful agent.

    Row ``k >= 2`` pays 1 to the initiator, ``k`` to agent ``k - 1`` and
    nothing to anyone else: column ``i >= 1`` is ``(0, i + 1)`` then 0,
    pattern entries ``(0, 1)`` with drift ``(0, 1)``.  The columns never
    become copies of each other, so no constant-tail profile can be
    verified against this rule; it is still usable in best-response
    dynamics, where only finitely many agents are evaluated.
    """
    return StationaryColumnRule(
        "jackpot",
        leading=(Column(0, (1.0, 2.0), 1.0),),
        repeating_entries=(0.0, 1.0),
        repeating_tail=0.0,
        repeating_drift=(0.0, 1.0),
    )


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
    sr: SuccessRate, rule: StationaryColumnRule, x: ConstantTailProfile, i: int
) -> float:
    """Expected reward to agent ``i`` conditional on their own success.

    Sums ``reach * (1 - p(x_k)) * f(i, k)`` over termination rows
    ``k > i``; the sum is explicit until both the column and the profile
    are in tail form and closes geometrically afterwards.
    """
    return _column_reward(sr, x, rule.column(i))


def _column_reward(sr: SuccessRate, x: ConstantTailProfile, col: Column) -> float:
    # continuation reward of the agent whose column is ``col``; the terms
    # are ``col.value`` read from locals, because reading a tuple record's
    # field by name costs more than reading a local, once per explicit row
    start, entries, tail, slope = col
    n = len(entries)

    def term(k: int) -> float:
        t = k - start
        return entries[t] if t < n else tail + slope * (t - n)

    k_stable = max(start + n, x.prefix_len, start + 1)
    return _reach_series(sr, x, start + 1, k_stable, term, stops=True, slope=slope)


def expected_payoff(
    sr: SuccessRate, rule: StationaryColumnRule, x: ConstantTailProfile, i: int
) -> float:
    """Expected payoff of agent ``i``: stay-put payment if failing, the
    continuation reward if succeeding, minus the sunk investment."""
    xi = x.at(i)
    col = rule.column(i)
    return _payoff(sr, xi, col.entries[0], _column_reward(sr, x, col))


def _payoff(sr: SuccessRate, xi: float, fii: float, reward: float) -> float:
    # stay-put payment fii on failure, continuation reward on success
    pi = sr.probability(xi)
    return (1.0 - pi) * fii + pi * reward - xi


def implied_value(sr: SuccessRate, rule: StationaryColumnRule, x: ConstantTailProfile) -> float:
    """Stay-put payments plus incentive cost, reach-weighted.

    At any supported profile this equals ``expected_value`` (the rule's
    floors and incentives together account for exactly the value
    created); away from equilibrium the two can differ either way.  The
    stay-put payments are constant from the first pattern column on.
    """
    j0 = max(len(rule.leading), x.prefix_len, 1)
    stay_put = _reach_series(sr, x, 0, j0, lambda j: rule.column(j).entries[0])
    return stay_put + incentive_cost(sr, x)


_RULE_KINDS = {
    "equal_split": (equal_split, ()),
    "fixed_fraction": (fixed_fraction, ("alpha",)),
    "fixed_fraction_floor": (fixed_fraction_floor, ("alpha", "gamma")),
    "jackpot": (jackpot, ()),
    "flat_continuation": (flat_continuation, ("alpha", "gamma")),
    "next_step_bonus": (next_step_bonus, ("beta", "gamma")),
    "next_step_bonus_zero_initiator": (next_step_bonus_zero_initiator, ("beta", "gamma")),
}


def rule_from_config(kind: str, params: Mapping[str, float] | None = None) -> StationaryColumnRule:
    """Build a named rule from its ``kind`` and exactly that family's parameters."""
    if kind not in _RULE_KINDS:
        raise DomainError(f"unknown rule kind {kind!r}")
    factory, names = _RULE_KINDS[kind]
    params = params or {}
    if set(params) != set(names):
        raise DomainError(
            f"rule kind {kind!r} takes parameter(s) {list(names)}, got {sorted(params)}"
        )
    return factory(*(float(params[n]) for n in names))
