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
benchmark reads it): finitely many explicit leading columns, each a list
of entries followed by a tail that is constant or affine in the row
index, then one repeating pattern shifted to start at each later
column's diagonal, where an entry may drift, growing linearly in the
column index (jackpot).  :class:`Mixture` and :class:`Perturbed` build
this form once, at construction, and keep nothing else.
:class:`Perturbed` goes through the class constructor and its one balance
bound; :class:`Mixture` alone skips the bound, since a mix of balanced
rules is balanced and checking it would slow every rule synthesis by
about a sixth.  The form makes balance on infinitely many rows checkable
and the continuation-reward series summable in closed form.

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

A :class:`Column` is an immutable ``typing.NamedTuple`` record ``(start,
entries, tail, slope)`` whose constructor checks that ``start`` is an
integer and the diagonal entry exists.  ``column(i)`` returns a leading
column as stored; for a pattern agent it packs the column from the
rule's fields, which construction checked (a non-empty pattern, a drift
of its shape), without checking them again, as :class:`Mixture` packs
each mixed column from two checked ones.  The balance check,
``value`` and ``row`` build none: they read each cell from these fields or
the ``repeating_*`` ones, the balance check each column once.  Indices are integers, anything
``operator.index`` accepts, or :class:`DomainError` names the index.  The
rule classes stay frozen dataclasses, since construction checks balance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, NamedTuple

from .errors import DomainError, RuleConstructionError, _check_count, _index, _real
from .profiles import ConstantTailProfile, _reach_series, _walk
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
        if start.__class__ is not int:
            start = _index("column start", start)
        if entries.__class__ is not tuple:  # a copy, so later edits of a list cannot reach it
            entries = tuple(entries)
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


def _cells(col: tuple, stop: int) -> list[float]:
    # rows ``start..stop - 1`` of the column with fields ``(start, entries,
    # tail, slope)``, each as ``Column.value`` computes it
    start, entries, tail, slope = col
    cells = list(entries[: stop - start])
    for t in range(stop - start - len(entries)):
        cells.append(tail + slope * t)
    return cells


def _combine_columns(w: float, v: float, a: Column, b: Column) -> Column:
    # ``w * a + v * b`` (``v = 1 - w``) on each row where either column is
    # explicit and on the first tail row; both columns start at ``a.start``.
    # Packed, not re-checked: both are checked columns with that integer
    # start, and the cells before the tail row hold at least the diagonal
    start = a.start
    stop = start + max(len(a.entries), len(b.entries)) + 1
    cells = [w * x + v * y for x, y in zip(_cells(a, stop), _cells(b, stop))]
    return tuple.__new__(Column, (start, tuple(cells[:-1]), cells[-1], w * a.slope + v * b.slope))


def validate_rule(rule: StationaryColumnRule, rows: int) -> None:
    """Exact balance and non-negativity on rows ``0..rows``, to ``_BALANCE_TOL``, and
    non-negative tails and slopes.  Construction passes ``K + 1`` (module docstring)."""
    stop = rows + 1
    lead = rule.leading[:stop]
    entries, drift, tail = rule.repeating_entries, rule.repeating_drift, rule.repeating_tail
    # every column's cells on rows 0..rows, read once from its fields and
    # zero above its diagonal; a pattern column's tail is ``tail + 0.0``,
    # as ``Column.value`` reads it with its zero slope
    cols = [[0] * i + _cells(col, stop) for i, col in enumerate(lead)]
    pattern = [0] * stop + [*entries, *[tail + 0.0] * stop]  # slid by i for column i
    for i in range(len(lead), stop):
        if drift:
            pattern[stop : stop + len(entries)] = [e + d * i for e, d in zip(entries, drift)]
        cols.append(pattern[stop - i : 2 * stop - i])
    # then row by row, the first bad row raising, a negative entry before a
    # wrong sum; the zeros come after the row's own entries, so ``min``
    # (NaN first included) and ``sum`` give what they give on the row alone
    for k, row in enumerate(zip(*cols)):
        low = min(row)
        if low < -_BALANCE_TOL:
            raise RuleConstructionError(f"{rule.label}: negative entry {low:g} in row {k}")
        imbalance = sum(row) - (k + 1)
        if not abs(imbalance) <= _BALANCE_TOL:  # also rejects a NaN entry anywhere in the row
            raise RuleConstructionError(
                f"{rule.label}: row {k} sums to {k + 1 + imbalance:g}, expected {k + 1}"
            )
    # the pattern columns share one tail and no slope: the first stands for all
    for i, (_, _, tail, slope) in enumerate((*lead, (0, (), tail, 0.0))[:stop]):
        if slope < -_BALANCE_TOL or tail < -_BALANCE_TOL:
            raise RuleConstructionError(f"{rule.label}: column {i} tail eventually negative")


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
        # tuples, copied from anything else, so that later edits of a list
        # given here cannot unbalance the checked rule; a tuple costs one
        # class test, as synthesis builds two or three rules per call
        if self.leading.__class__ is not tuple:
            object.__setattr__(self, "leading", tuple(self.leading))
        if self.repeating_entries.__class__ is not tuple:
            object.__setattr__(self, "repeating_entries", tuple(self.repeating_entries))
        if self.repeating_drift.__class__ is not tuple:
            object.__setattr__(self, "repeating_drift", tuple(self.repeating_drift))
        k = len(self.leading) + len(self.repeating_entries)  # K, module docstring
        for i, col in enumerate(self.leading):
            if col.start != i:
                raise RuleConstructionError(f"leading column {i} declares start {col.start}")
            k = max(k, i + len(col.entries))  # the column's tail start
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
        validate_rule(self, k + 1)

    def column(self, i: int) -> Column:
        if i.__class__ is not int or i < 0:
            i = _check_count("column index", i, 0)
        if i < len(self.leading):
            return self.leading[i]
        entries = self.repeating_entries
        if self.repeating_drift:
            entries = tuple([e + d * i for e, d in zip(entries, self.repeating_drift)])
        # construction checked the pattern (non-empty, drift of its shape)
        # and i is checked above, so the column is packed, not re-checked
        return tuple.__new__(Column, (i, entries, self.repeating_tail, 0.0))

    @property
    def stationary_from(self) -> int | None:
        """Column index from which all columns are shifted copies of one
        pattern, or ``None`` when they never stabilize (jackpot-style)."""
        # a drifting pattern never repeats exactly
        return None if self.repeating_drift else len(self.leading)

    def value(self, i: int, k: int) -> float:
        """Matrix entry ``f(i, k)``, as ``column(i).value(k)`` but built from
        the fields, with no Column; requires integers ``0 <= i <= k``."""
        if i.__class__ is not int or k.__class__ is not int:
            i, k = _index("column index", i), _index("row index", k)
        if i < 0 or k < i:
            raise DomainError(f"need 0 <= i <= k, got ({i}, {k})")
        if i < len(self.leading):
            return self.leading[i].value(k)
        t, entries = k - i, self.repeating_entries
        if t >= len(entries):
            return self.repeating_tail + 0.0  # its column's zero slope: -0.0 reads 0.0
        return entries[t] + self.repeating_drift[t] * i if self.repeating_drift else entries[t]

    def row(self, k: int) -> list[float]:
        k = _check_count("row index", k, 0)
        return [self.value(i, k) for i in range(k + 1)]


class Mixture(StationaryColumnRule):
    """Convex combination ``weight * left + (1 - weight) * right``, entry
    by entry: how intermediate near-constant profiles are supported from
    two endpoint rules.  A mix of balanced rules is balanced, so no row is
    checked again."""

    def __init__(
        self, weight: float, left: StationaryColumnRule, right: StationaryColumnRule
    ) -> None:
        # a float costs one class test, as synthesis mixes on every call
        weight = weight if weight.__class__ is float else _real("mixture weight", weight)
        if not 0.0 <= weight <= 1.0:
            raise RuleConstructionError(f"mixture weight must be in [0, 1], got {weight!r}")
        v = 1.0 - weight
        m = max(len(left.repeating_entries), len(right.repeating_entries))
        n = max(len(left.leading), len(right.leading))
        leading = [_combine_columns(weight, v, left.column(i), right.column(i)) for i in range(n)]

        def mix(a, b, a_fill, b_fill):
            # past a part's own pattern entries: its tail, and no drift
            a, b = a + (a_fill,) * (m - len(a)), b + (b_fill,) * (m - len(b))
            return tuple([weight * x + v * y for x, y in zip(a, b)])

        drifts = left.repeating_drift, right.repeating_drift
        drift = mix(*drifts, 0.0, 0.0) if any(drifts) else ()
        # the form goes on the frozen instance directly, not through the
        # dataclass __init__, whose balance check a mix of balanced rules skips
        vars(self).update(
            label=f"mix({weight:.6g}*{left.label} + {v:.6g}*{right.label})",
            leading=tuple(leading),
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
    *values, tail = _cells(col, i + n + 1)
    for k, v in cells:
        values[k - i] += v
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
            ((_index("entries column", i), _index("entries row", k)), _real("entries delta", v))
            for (i, k), v in entries
        )
        tails = tuple(
            (_index("column_tails column", i),
             (_index("column_tails start", k0), _real("column_tails delta", v)))
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
    # each factory converts a parameter that is not a float, so text fails
    # naming it; a float costs one class test, as synthesis builds its
    # endpoint rules with these factories on every call
    alpha = alpha if alpha.__class__ is float else _real("alpha", alpha)
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
    alpha = alpha if alpha.__class__ is float else _real("alpha", alpha)
    gamma = gamma if gamma.__class__ is float else _real("gamma", gamma)
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
    alpha = alpha if alpha.__class__ is float else _real("alpha", alpha)
    gamma = gamma if gamma.__class__ is float else _real("gamma", gamma)
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
    beta = beta if beta.__class__ is float else _real("beta", beta)
    gamma = gamma if gamma.__class__ is float else _real("gamma", gamma)
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
    beta = beta if beta.__class__ is float else _real("beta", beta)
    gamma = gamma if gamma.__class__ is float else _real("gamma", gamma)
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
    # continuation reward of the agent whose column is ``col``, reading p
    # once for each agent its walk reaches: the prefix past the agent's own
    m = len(x.prefix)
    probs, pc = _walk(sr, x, col.start + 1, m)
    return _column_series(col, m, probs, pc)


def _column_series(col: Column, prefix_len: int, probs: list[float], pc: float) -> float:
    # _column_reward against a profile of ``prefix_len`` prefix agents, from
    # the success probabilities of those past the column's own agent
    # (``probs``, from agent ``col.start + 1`` on) and of the tail.  The
    # terms are the rows past the diagonal, then the affine rows up to the
    # prefix's end; the row there, ``t`` past the entries (``tail + slope *
    # 0`` when the prefix ends inside them), closes the series.  Each row is
    # computed as ``Column.value`` computes it, so a -0.0 tail reads 0.0
    start, entries, tail, slope = col
    extra = prefix_len - start - len(entries)  # affine rows inside the prefix
    rows = [*entries[1:]]
    t = 0
    while t < extra:
        rows.append(tail + slope * t)
        t += 1
    return _reach_series(probs, prefix_len - start - 1, pc, rows, tail + slope * t, True, slope)


def expected_payoff(
    sr: SuccessRate, rule: StationaryColumnRule, x: ConstantTailProfile, i: int
) -> float:
    """Expected payoff of agent ``i``: stay-put payment if failing, the
    continuation reward if succeeding, minus the sunk investment."""
    xi = x.at(i)
    col = rule.column(i)
    pi, reward = _agent_reward(sr, x, col)
    return _payoff(pi, xi, col.entries[0], reward)


def _agent_reward(sr: SuccessRate, x: ConstantTailProfile, col: Column) -> tuple[float, float]:
    # the success probability of the column's agent and its continuation
    # reward, one read of p per agent: a tail agent's p is the tail's
    m = len(x.prefix)
    probs, pc = _walk(sr, x, col.start + 1, m)
    pi = sr.probability(x.prefix[col.start]) if col.start < m else pc
    return pi, _column_series(col, m, probs, pc)


def _payoff(pi: float, xi: float, fii: float, reward: float) -> float:
    # success probability pi: stay-put payment fii on failure, continuation
    # reward on success
    return (1.0 - pi) * fii + pi * reward - xi


def implied_value(sr: SuccessRate, rule: StationaryColumnRule, x: ConstantTailProfile) -> float:
    """Stay-put payments plus incentive cost, reach-weighted, in one walk.

    At any supported profile this equals ``expected_value`` (the rule's
    floors and incentives together account for exactly the value
    created); away from equilibrium the two can differ either way.  Both
    terms are constant from the first pattern column past the prefix on.
    """
    m = len(x.prefix)
    j0 = max(len(rule.leading), m, 1)
    probs, pc = _walk(sr, x, 0, m)
    # the investments of agents 0 .. j0 - 1 and their prizes, mapped lazily
    # so that no prize is read past an unreachable agent
    xs = x.prefix + (x.tail,) * (j0 - m)
    terms = map(lambda j, v: rule.value(j, j) + sr.incentive_prize(v), range(j0), xs)
    return _reach_series(probs, m, pc, terms, rule.value(j0, j0) + sr.incentive_prize(x.tail))


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
    """Build a named rule from its ``kind`` and exactly that family's parameters.

    Each parameter is a real number; text is refused, not parsed, with a
    :class:`DomainError` that names the parameter.
    """
    if kind not in _RULE_KINDS:
        raise DomainError(f"unknown rule kind {kind!r}")
    factory, names = _RULE_KINDS[kind]
    params = params or {}
    if set(params) != set(names):
        raise DomainError(
            f"rule kind {kind!r} takes parameter(s) {list(names)}, got {sorted(params)}"
        )
    return factory(*(_real(f"rule parameter {n}", params[n]) for n in names))
