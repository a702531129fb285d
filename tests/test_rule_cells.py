"""Rule construction, mixing and matrix reads against a cell-by-cell reference.

The reference here reads a rule's definition one cell at a time and
shares no code with ``seqinvest.rules``: ``ref_cell`` is ``f(i, k)`` of a
form ``(leading, entries, tail, drift)``, each leading column a plain
``(start, entries, tail, slope)`` tuple, and ``ref_verdict`` says what
construction must say about a form, row by row as the module docstring
specifies it: the form checks, then rows ``0..K + 1`` in order (in a row
a negative entry before a wrong sum), then every column's tail and slope.

On random forms (free ones, and named rules with one change: a cell, a
tail, a slope or a pattern entry moved, a drift added, a balanced move
that drives an entry negative, NaN) construction must accept exactly the
forms the reference accepts and otherwise raise the reference's message.
A mixture's columns and pattern must equal ``w * a + (1 - w) * b`` of its
parts' reference cells bit for bit, and ``row`` and ``value`` must equal
the reference cells of a rule's own form bit for bit on rows up to 60.
"""

import math

import pytest
from hypothesis import example, given, settings, strategies as st

from seqinvest import (
    Mixture,
    Perturbed,
    RuleConstructionError,
    equal_split,
    fixed_fraction,
    fixed_fraction_floor,
    flat_continuation,
    investment_for_return,
    jackpot,
    near_constant_bounds,
    next_step_bonus,
    next_step_bonus_zero_initiator,
    sqrt_ratio,
    synthesize_rule,
)
from seqinvest.rules import Column, StationaryColumnRule
from conftest import three_tier_rule

TOL = 1e-9
ROWS = 60
NAN = float("nan")
CHECK = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def ref_cell(form, i, k):
    """``f(i, k)``: a leading column's entry, then its affine tail; a
    pattern column's entry ``e + d * i``, then its tail with a zero slope
    (so ``-0.0`` reads ``0.0``, as any affine tail ``tail + 0.0 * t``)."""
    leading, entries, tail, drift = form
    t = k - i
    if i < len(leading):
        _, col_entries, col_tail, slope = leading[i]
        n = len(col_entries)
        return col_entries[t] if t < n else col_tail + slope * (t - n)
    if t < len(entries):
        return entries[t] + drift[t] * i if drift else entries[t]
    return tail + 0.0 * (t - len(entries))


def ref_verdict(label, form):
    """``None`` if construction must accept ``form``, else its message."""
    leading, entries, tail, drift = form
    for i, col in enumerate(leading):
        if col[0] != i:
            return f"leading column {i} declares start {col[0]}"
    if not entries:
        return "repeating pattern needs a diagonal entry"
    if drift:
        if len(drift) != len(entries):
            return f"{label}: one drift per pattern entry"
        if drift[0] != 0.0:
            return f"{label}: the diagonal entry cannot drift"
        if not all(d >= 0.0 for d in drift):
            return f"{label}: negative drift"
    last = max([len(leading) + len(entries)] + [i + len(c[1]) for i, c in enumerate(leading)]) + 1
    for k in range(last + 1):
        row = [ref_cell(form, i, k) for i in range(k + 1)]
        low = min(row)
        if low < -TOL:
            return f"{label}: negative entry {low:g} in row {k}"
        off = sum(row) - (k + 1)
        if not abs(off) <= TOL:
            return f"{label}: row {k} sums to {k + 1 + off:g}, expected {k + 1}"
    for i in range(last + 1):
        col_tail, slope = leading[i][2:] if i < len(leading) else (tail, 0.0)
        if slope < -TOL or col_tail < -TOL:
            return f"{label}: column {i} tail eventually negative"
    return None


def form_of(rule):
    """A rule's fields as a plain form."""
    leading = tuple((c.start, tuple(c.entries), c.tail, c.slope) for c in rule.leading)
    return leading, rule.repeating_entries, rule.repeating_tail, rule.repeating_drift


def build(label, form):
    leading, entries, tail, drift = form
    return StationaryColumnRule(label, tuple(Column(*c) for c in leading), entries, tail, drift)


def verdict(label, form):
    try:
        build(label, form)
    except RuleConstructionError as exc:
        return str(exc)
    return None


def bits(values):
    # float.hex tells -0.0 from 0.0 and every other pair of distinct floats
    return [float(v).hex() for v in values]


unit = st.floats(0.0, 1.0)
named_rules = st.one_of(
    st.just(equal_split()),
    st.just(three_tier_rule()),
    st.just(jackpot()),
    st.builds(fixed_fraction, unit),
    st.builds(fixed_fraction_floor, unit, st.floats(0.0, 2.0)),
    st.tuples(unit, unit).map(lambda ag: flat_continuation(ag[0], ag[0] * ag[1])),
    st.builds(next_step_bonus, unit, unit),
    st.builds(next_step_bonus_zero_initiator, unit, unit),
)
# exact values, values within and just past the tolerance, signed zeros, NaN
deltas = st.one_of(
    st.sampled_from([0.0, -0.0, 1e-10, -1e-10, 1e-8, -1e-8, 0.5, -0.5, -2.0, NAN]),
    st.floats(-3.0, 3.0),
)
cells = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.0, -1e-10, -0.5, NAN]), st.floats(-1.0, 3.0))


@st.composite
def free_forms(draw):
    """Any form: mostly unbalanced from row 0 or 1 on, some with a wrong
    start, an empty pattern or a malformed drift."""
    leading = []
    for i in range(draw(st.integers(0, 3))):
        start = i + draw(st.sampled_from([0] * 9 + [1]))
        entries = tuple(draw(st.lists(cells, min_size=1, max_size=4)))
        leading.append((start, entries, draw(cells), draw(st.one_of(st.just(0.0), cells))))
    entries = tuple(draw(st.lists(cells, min_size=draw(st.sampled_from([0] + [1] * 9)), max_size=3)))
    drift = tuple(draw(st.lists(st.one_of(st.just(0.0), cells), max_size=len(entries) + 1)))
    return tuple(leading), entries, draw(cells), drift


@st.composite
def changed_forms(draw):
    """A named rule's form with at most one change, or equal split with
    slope ``s`` moved from column 0 to column 1 (balanced on every row)."""
    leading, entries, tail, drift = form_of(draw(named_rules))
    if draw(st.integers(0, 7)) == 0:
        s = draw(deltas)
        return ((0, (1.0,), 2.0, -s), (1, (0.0,), 1.0 + s, s)), (0.0,), 1.0, ()
    leading, entries = [list(c) for c in leading], list(entries)
    kind = draw(st.sampled_from(
        ["none", "entry", "tail", "slope", "pattern", "pattern_tail", "drift", "move"]
    ))
    delta = draw(deltas)
    i = draw(st.integers(0, len(leading) - 1))
    col = leading[i]
    if kind == "entry":
        t = draw(st.integers(0, len(col[1]) - 1))
        col[1] = col[1][:t] + (col[1][t] + delta,) + col[1][t + 1:]
    elif kind in ("tail", "slope"):
        col[2 if kind == "tail" else 3] += delta
    elif kind == "pattern":
        t = draw(st.integers(0, len(entries) - 1))
        entries[t] += delta
    elif kind == "pattern_tail":
        tail += delta
    elif kind == "drift":
        drift = (draw(st.sampled_from([0.0, 0.0, 0.5])),) + tuple(
            draw(st.lists(deltas, min_size=len(entries) - 1, max_size=len(entries) - 1))
        )
    elif kind == "move":
        # a balanced move within one row between two explicit leading
        # entries, enough to drive one of them negative
        pairs = [
            (a, s, b, k - b)
            for a in range(len(leading)) for s in range(len(leading[a][1]))
            for b in range(len(leading)) for k in [a + s]
            if b != a and 0 <= k - b < len(leading[b][1])
        ]
        if pairs:
            a, s, b, u = draw(st.sampled_from(pairs))
            amount = leading[a][1][s] + abs(delta)
            leading[a][1] = leading[a][1][:s] + (leading[a][1][s] - amount,) + leading[a][1][s + 1:]
            leading[b][1] = leading[b][1][:u] + (leading[b][1][u] + amount,) + leading[b][1][u + 1:]
    return tuple(tuple(c) for c in leading), tuple(entries), tail, drift


def accepted_form(form):
    return ref_verdict("r", form) is None


class TestConstructionAgreesWithCells:
    @CHECK
    @given(st.one_of(free_forms(), changed_forms()))
    # rows balance through K + 1, but column 0 falls by 0.5 a row
    @example((((0, (1.0,), 2.0, -0.5), (1, (0.0,), 1.5, 0.5)), (0.0,), 1.0, ()))
    # NaN first in row 1, then a negative entry: the NaN row sum is the error
    @example((((0, (1.0, NAN), 2.0, 0.0), (1, (-1.0,), 1.0, 0.0)), (0.0,), 1.0, ()))
    # a negative entry first in row 1, then NaN: the negative entry is
    @example((((0, (1.0, -1.0), 2.0, 0.0), (1, (NAN,), 1.0, 0.0)), (0.0,), 1.0, ()))
    # a -0.0 pattern tail that still balances
    @example((((0, (1.0, 2.0), 1.0, 0.0),), (0.0, 1.0), -0.0, (0.0, 1.0)))
    def test_same_verdict_and_message(self, form):
        assert verdict("r", form) == ref_verdict("r", form)

    @CHECK
    @given(changed_forms().filter(accepted_form))
    def test_accepted_forms_stay_balanced(self, form):
        # K + 1 pins every later row sum: rows up to 60 are balanced, up to
        # the rounding the affine tails let grow (1e-9 a row)
        for k in range(ROWS + 1):
            row = [ref_cell(form, i, k) for i in range(k + 1)]
            assert min(row) >= -1e-6
            assert abs(sum(row) - (k + 1)) <= 1e-6


class TestMixtureCells:
    @CHECK
    @given(unit, named_rules, named_rules)
    @example(0.5, equal_split(), jackpot())
    @example(0.0, jackpot(), fixed_fraction(0.3))
    def test_columns_and_pattern_are_the_cell_mix(self, w, left, right):
        rule = Mixture(w, left, right)
        a, b = form_of(left), form_of(right)
        v = 1.0 - w
        assert len(rule.leading) == max(len(a[0]), len(b[0]))
        for i, col in enumerate(rule.leading):
            n = len(col.entries)
            want = [w * ref_cell(a, i, i + t) + v * ref_cell(b, i, i + t) for t in range(n + 1)]
            assert bits(col.entries + (col.tail,)) == bits(want)
            slopes = [f[0][i][3] if i < len(f[0]) else 0.0 for f in (a, b)]
            assert bits([col.slope]) == bits([w * slopes[0] + v * slopes[1]])

        def pattern(form, m):
            # past a part's own pattern entries: its tail, and no drift
            _, entries, tail, drift = form
            return entries + (tail,) * (m - len(entries)), drift + (0.0,) * (m - len(drift))

        m = max(len(a[1]), len(b[1]))
        (ea, da), (eb, db) = pattern(a, m), pattern(b, m)
        assert bits(rule.repeating_entries) == bits([w * x + v * y for x, y in zip(ea, eb)])
        assert bits([rule.repeating_tail]) == bits([w * a[2] + v * b[2]])
        drift = [w * x + v * y for x, y in zip(da, db)]
        assert bits(rule.repeating_drift) == bits(drift if any(drift) else [])


def synthesized(c, gamma):
    """``synthesize_rule`` half way across the support band: a mixture."""
    sr = sqrt_ratio()
    lower, upper = near_constant_bounds(sr, c, gamma)
    x0 = investment_for_return(sr, 0.5 * (max(lower, 0.0) + upper))
    return synthesize_rule(sr, x0, c, gamma)


# both endpoint pairs: next-step bonus (0.12, 0.2) and fraction floor (0.05, 0.02)
SYNTHESIZED = [synthesized(c, gamma) for c, gamma in ((0.12, 0.0), (0.2, 0.05), (0.05, 0.1), (0.02, 0.0))]
READ_RULES = st.one_of(
    named_rules,
    st.sampled_from(SYNTHESIZED),
    st.builds(Mixture, unit, named_rules, named_rules),
    st.just(Perturbed(equal_split(), entries=(((0, 2), -0.25), ((1, 2), 0.25)),
                      column_tails=((0, (3, 0.5)), (1, (3, -0.5))))),
    st.just(Perturbed(jackpot(), entries=(((4, 5), -0.5), ((0, 5), 0.5)))),
)


class TestReads:
    def test_synthesized_rules_are_mixtures(self):
        assert all(isinstance(rule, Mixture) for rule in SYNTHESIZED)

    @settings(CHECK, max_examples=60)
    @given(READ_RULES)
    def test_row_and_value_are_the_reference_cells(self, rule):
        form = form_of(rule)
        for k in range(ROWS + 1):
            want = bits(ref_cell(form, i, k) for i in range(k + 1))
            assert bits(rule.row(k)) == want
            assert bits(rule.value(i, k) for i in range(k + 1)) == want

    @pytest.mark.parametrize("tail", [-0.0, 0.0])
    def test_a_signed_zero_tail_reads_as_its_column_does(self, tail):
        rule = StationaryColumnRule("z", (Column(0, (1.0, 2.0), 1.0),), (0.0, 1.0), tail, (0.0, 1.0))
        for k in range(8):
            assert bits(rule.row(k)) == bits(rule.column(i).value(k) for i in range(k + 1))
            assert not any(math.copysign(1.0, v) < 0 for v in rule.row(k))
