"""The record contract: computed results are NamedTuples, as are a rule's
``Column`` and ``SimulationConfig``, whose constructors validate.

Every result the library computes is a ``typing.NamedTuple``: immutable,
equal and hash-equal when its fields are, with the ``Name(field=value, ...)``
repr the frozen dataclasses it replaced printed.  ``Column`` and
``SimulationConfig`` are validated tuple records: their constructors, and
so their ``_replace``, check the fields.  The other types whose
construction validates or canonicalises stay frozen dataclasses.
"""

import dataclasses
import math

import pytest

from seqinvest import (
    AgentCheck,
    Column,
    ConstantTailProfile,
    DomainError,
    EquilibriumReport,
    Mixture,
    Mode,
    Perturbed,
    RuleConstructionError,
    SimulationConfig,
    StationaryColumnRule,
    Stat,
    SuccessRate,
    best_response_dynamics,
    check_agent,
    constant_profile,
    constant_support_check,
    custom_rate,
    equal_split,
    fixed_fraction,
    fixed_fraction_floor,
    flat_continuation,
    functionals,
    investment_bounds,
    investment_for_return,
    jackpot,
    near_constant_feasibility,
    next_step_bonus,
    next_step_bonus_zero_initiator,
    region_sweep,
    scaled_sqrt_ratio,
    socially_optimal,
    sqrt_ratio,
    summarize,
    validate,
    verify_equilibrium,
)

# field names in order, and the defaults, of every computed record
FIELDS = {
    "CheckResult": (
        ("name", "passed", "worst_x", "worst_value"),
        {"worst_x": None, "worst_value": None},
    ),
    "ValidationReport": (("rate", "checks"), {}),
    "FunctionalValues": (("value", "investment", "incentive_cost"), {}),
    "AgentCheck": (
        ("agent", "investment", "net_return", "residual", "payoff", "corner"),
        {"corner": ""},
    ),
    "EquilibriumReport": (("mode", "tol", "checks", "failures"), {"failures": ()}),
    "BoundSchedule": (("rate",), {}),
    "DynamicsResult": (("profile", "max_change", "residuals", "history"), {}),
    "ConstantSupport": (("investment", "gap", "witness"), {}),
    "NearConstantFeasibility": (("x0", "c", "gamma", "ratio", "lower", "upper"), {}),
    "OptimumResult": (("name", "profile", "rule", "objective", "residuals", "report"), {}),
    "RegionRow": (("c", "lower", "upper"), {}),
    "Stat": (("mean", "se"), {}),
    "PayoffStat": (("agent", "reached", "mean", "se"), {}),
    "SimulationSummary": (
        (
            "discarded", "terminal_index", "total_investment", "welfare", "payoffs",
            "histogram",
        ),
        {},
    ),
}


@pytest.fixture(scope="module")
def records():
    sr = sqrt_ratio()
    x = ConstantTailProfile((0.3, 0.01), 0.05)
    report = verify_equilibrium(sr, equal_split(), constant_profile(0.0883))
    summary = summarize(
        sr, constant_profile(0.0883), equal_split(),
        SimulationConfig(episodes=2_000, seed=5, payoff_horizon=2),
    )
    out = {
        "CheckResult": validate(sr).checks[0],
        "ValidationReport": validate(sr),
        "FunctionalValues": functionals(sr, x),
        "AgentCheck": report.checks[0],
        "EquilibriumReport": report,
        "BoundSchedule": investment_bounds(scaled_sqrt_ratio(0.7071)),
        "DynamicsResult": best_response_dynamics(sr, equal_split(), 4),
        "ConstantSupport": constant_support_check(sr, 0.05),
        "NearConstantFeasibility": near_constant_feasibility(sr, 0.06, 0.05),
        "OptimumResult": socially_optimal(sr),
        "RegionRow": region_sweep(sr, [0.05])[0],
        "Stat": summary.welfare,
        "PayoffStat": summary.payoffs[0],
        "SimulationSummary": summary,
    }
    assert set(out) == set(FIELDS)
    return out


@pytest.mark.parametrize("name", FIELDS)
class TestComputedRecords:
    def test_named_tuple_with_the_same_fields(self, records, name):
        rec = records[name]
        fields, defaults = FIELDS[name]
        assert type(rec).__name__ == name
        assert isinstance(rec, tuple)
        assert rec._fields == fields
        assert rec._field_defaults == defaults
        assert not dataclasses.is_dataclass(rec)

    def test_fields_cannot_be_assigned(self, records, name):
        rec = records[name]
        for field in rec._fields:
            with pytest.raises(AttributeError):
                setattr(rec, field, getattr(rec, field))
        with pytest.raises(AttributeError):
            rec.extra = 1

    def test_equal_records_compare_and_hash_equal(self, records, name):
        rec = records[name]
        a, b = type(rec)(*rec), type(rec)(**rec._asdict())
        assert a == b == rec
        assert hash(a) == hash(b) == hash(rec)
        assert rec._replace() == rec

    def test_repr_is_the_dataclass_format(self, records, name):
        rec = records[name]
        inner = ", ".join(f"{f}={getattr(rec, f)!r}" for f in rec._fields)
        assert repr(rec) == f"{name}({inner})"


# every value a record reads from its fields, not stores
DERIVED = {
    "FunctionalValues": ("welfare",),
    "EquilibriumReport": ("supported",),
    "DynamicsResult": ("sweeps", "converged"),
    "ConstantSupport": ("supported",),
    "NearConstantFeasibility": ("feasible",),
    "SimulationSummary": ("episodes", "total_value"),
}


@pytest.mark.parametrize("name, attr", [(n, a) for n, attrs in DERIVED.items() for a in attrs])
class TestDerivedValues:
    def test_not_a_field(self, records, name, attr):
        rec = records[name]
        assert attr not in rec._fields
        with pytest.raises(ValueError, match="unexpected field names"):
            rec._replace(**{attr: getattr(rec, attr)})
        with pytest.raises(AttributeError):
            setattr(rec, attr, getattr(rec, attr))


class TestDerivedValuesFollowTheirFields:
    def test_welfare(self, records):
        f = records["FunctionalValues"]
        assert f.welfare == f.value - f.investment
        assert f._replace(value=3.0, investment=0.5).welfare == 2.5

    def test_report_supported(self):
        report = verify_equilibrium(sqrt_ratio(), equal_split(), constant_profile(0.0883), tol=1e-4)
        assert report.supported is True and report.verdict == "Supported"
        failed = report._replace(failures=("agent 0: x",))
        assert failed.supported is False and failed.verdict == "NotSupported"
        assert failed._replace(failures=()).supported is True

    def test_sweeps(self, records):
        result = records["DynamicsResult"]
        assert result.sweeps == len(result.history) == 2
        assert result._replace(history=result.history[:1]).sweeps == 1

    def test_converged(self, records):
        result = records["DynamicsResult"]
        assert result.converged is True and result.max_change == 0.0
        assert result._replace(max_change=1e-3).converged is False

    def test_feasible(self, records):
        feas = records["NearConstantFeasibility"]
        assert feas.feasible is True and feas.verdict == "Feasible"
        assert feas._replace(ratio=feas.upper + 1.0).verdict == "Infeasible"
        assert feas._replace(ratio=-1.0).feasible is False

    def test_constant_support(self, records):
        res = records["ConstantSupport"]
        assert res.supported is True and res.verdict == "Supported"
        none = res._replace(witness=None)
        assert none.supported is False and none.verdict == "NotSupported"

    def test_summary(self, records):
        summary = records["SimulationSummary"]
        assert summary.episodes == 2_000 and type(summary.episodes) is int
        terminal = summary.terminal_index
        assert summary.total_value == Stat(terminal.mean + 1.0, terminal.se)
        copy = summary._replace(histogram=(1, 2), terminal_index=Stat(0.5, 0.25))
        assert copy.episodes == 3 and copy.total_value == Stat(1.5, 0.25)


def test_pinned_reprs():
    check = AgentCheck(0, 0.5, 1.0, 0.0, 0.25)
    assert repr(check) == (
        "AgentCheck(agent=0, investment=0.5, net_return=1.0, residual=0.0, payoff=0.25, corner='')"
    )
    assert repr(Stat(1.5, 0.0)) == "Stat(mean=1.5, se=0.0)"


def test_replace_copies_with_changes():
    check = AgentCheck(3, 0.5, 1.0, 0.0, 0.25, corner="zero")
    assert check._replace(agent=4) == AgentCheck(4, 0.5, 1.0, 0.0, 0.25, corner="zero")
    agent, investment, *_ = check
    assert (agent, investment, check[-1]) == (3, 0.5, "zero")


class TestColumn:
    def test_needs_a_diagonal_entry(self):
        with pytest.raises(RuleConstructionError, match="diagonal entry"):
            Column(0, (), 2.0)
        with pytest.raises(RuleConstructionError, match="diagonal entry"):
            Column(start=1, entries=(), tail=1.0, slope=0.5)
        with pytest.raises(RuleConstructionError, match="diagonal entry"):
            equal_split().column(3)._replace(entries=())

    @pytest.mark.parametrize("rule", [equal_split(), fixed_fraction_floor(0.9, 0.07), jackpot()],
                             ids=lambda r: r.label)
    def test_rule_columns_cannot_be_mutated(self, rule):
        for i in range(4):  # leading columns and pattern columns alike
            col = rule.column(i)
            for field in ("start", "entries", "tail", "slope"):
                with pytest.raises(AttributeError):
                    setattr(col, field, 0)
            with pytest.raises(AttributeError):
                col.extra = 1
            assert rule.column(i) == col
            assert hash(rule.column(i)) == hash(col)

    def test_record_behaviour(self):
        col = equal_split().column(3)
        assert col == Column(3, (0.0,), 1.0) == Column(3, (0.0,), 1.0, 0.0)
        assert repr(col) == "Column(start=3, entries=(0.0,), tail=1.0, slope=0.0)"
        assert col._fields == ("start", "entries", "tail", "slope")
        assert (col.tail_start, col.value(3), col.value(9)) == (4, 0.0, 1.0)
        start, entries, tail, slope = col
        assert (start, entries, tail, slope) == (3, (0.0,), 1.0, 0.0)


class TestSimulationConfig:
    def test_fields_and_defaults(self):
        defaults = {"episodes": 1_000_000, "seed": 0, "max_chain_length": 10_000, "shards": 1,
                    "payoff_horizon": 8}
        assert SimulationConfig._fields == tuple(defaults)
        assert SimulationConfig._field_defaults == defaults
        # the constructor's own defaults are the same
        assert SimulationConfig()._asdict() == defaults
        assert not dataclasses.is_dataclass(SimulationConfig)

    def test_repr_is_the_dataclass_format(self):
        config = SimulationConfig(episodes=2_000, seed=5, payoff_horizon=2)
        assert repr(config) == (
            "SimulationConfig(episodes=2000, seed=5, max_chain_length=10000, shards=1, "
            "payoff_horizon=2)"
        )

    def test_fields_cannot_be_assigned(self):
        config = SimulationConfig(episodes=10)
        for field in config._fields:
            with pytest.raises(AttributeError):
                setattr(config, field, 1)
        with pytest.raises(AttributeError):
            config.extra = 1

    @pytest.mark.parametrize("change, message", [
        ({"episodes": 0}, "episodes must be >= 1, got 0"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"shards": 2.0}, "shards must be an integer, got 2.0"),
        ({"payoff_horizon": -1}, "payoff_horizon must be >= 0, got -1"),
    ])
    def test_replace_and_make_validate(self, change, message):
        config = SimulationConfig(episodes=10, seed=3)
        with pytest.raises(DomainError, match=f"^{message}$"):
            config._replace(**change)
        with pytest.raises(DomainError, match=f"^{message}$"):
            SimulationConfig._make({**config._asdict(), **change}.values())
        copy = config._replace(seed=4)
        assert type(copy) is SimulationConfig and copy == SimulationConfig(episodes=10, seed=4)

    def test_equals_a_plain_tuple(self):
        # chosen with the record form: a config equals, and hashes like, the
        # tuple of its values, as every NamedTuple does
        config = SimulationConfig(episodes=10, seed=3)
        assert config == (10, 3, 10_000, 1, 8)
        assert hash(config) == hash((10, 3, 10_000, 1, 8))
        assert config == SimulationConfig(10, 3) and config != SimulationConfig(10, 4)


def test_validated_types_stay_dataclasses():
    # construction checks or canonicalises these
    for cls in (SuccessRate, ConstantTailProfile, StationaryColumnRule):
        assert dataclasses.is_dataclass(cls)


def _with_residuals(name, rec, residuals):
    # the record with its residuals replaced by ``residuals``, in order
    if name == "EquilibriumReport":
        return rec._replace(checks=tuple(rec.checks[0]._replace(residual=r) for r in residuals))
    if name == "OptimumResult":
        return rec._replace(residuals=tuple((f"r{j}", r) for j, r in enumerate(residuals)))
    return rec._replace(residuals=tuple(enumerate(residuals)))


@pytest.mark.parametrize("name", ["EquilibriumReport", "OptimumResult", "DynamicsResult"])
class TestMaxResidual:
    @pytest.mark.parametrize("residuals", [(0.1, math.nan), (math.nan, 0.1), (0.0, math.nan, 0.3)])
    def test_any_nan_residual_reads_nan(self, records, name, residuals):
        # max() alone keeps whichever of a NaN and a number comes first
        assert math.isnan(_with_residuals(name, records[name], residuals).max_residual)

    def test_finite_residuals_give_their_maximum(self, records, name):
        rec = records[name]
        assert _with_residuals(name, rec, (0.1, 0.3, 0.2)).max_residual == 0.3
        assert _with_residuals(name, rec, ()).max_residual == 0.0


def _transfer(beta):
    # a balanced transfer between agents 0 and 1 of the equal split
    return Perturbed(
        equal_split(),
        entries=(((0, 2), -beta * 0.25), ((1, 2), beta * 0.25)),
        column_tails=((0, (3, beta * 0.75)), (1, (3, -beta * 0.75))),
    )


PACKED_RULES = [
    equal_split(),
    fixed_fraction(0.6),
    fixed_fraction_floor(0.9, 0.07),
    jackpot(),  # a drifting pattern
    flat_continuation(0.6, 0.1),
    next_step_bonus(0.5, 0.1),
    next_step_bonus_zero_initiator(0.5, 0.1),
    Mixture(0.3, next_step_bonus(0.5, 0.1), next_step_bonus_zero_initiator(0.5, 0.1)),
    Mixture(0.4, jackpot(), equal_split()),
    _transfer(0.5),
]


class TestPackedColumns:
    """``column(i)`` packs a pattern agent's column from fields the rule's
    construction checked; it equals the column the checked constructor
    builds from the same cells."""

    @staticmethod
    def checked(rule, i):
        if i < len(rule.leading):
            return Column(*rule.leading[i])
        n = len(rule.repeating_entries)
        entries = tuple(rule.value(i, k) for k in range(i, i + n))
        return Column(i, entries, rule.repeating_tail, 0.0)

    @pytest.mark.parametrize("rule", PACKED_RULES, ids=lambda r: r.label)
    def test_equals_the_checked_column(self, rule):
        for i in range(len(rule.leading) + 6):
            col, want = rule.column(i), self.checked(rule, i)
            assert type(col) is Column and type(col.entries) is tuple
            assert repr(col) == repr(want)
            assert col == want and hash(col) == hash(want)
            assert rule.column(i) == col  # a fresh column each call, equal
            with pytest.raises(RuleConstructionError, match="diagonal entry"):
                col._replace(entries=())
            with pytest.raises(DomainError, match="column start"):
                col._replace(start=i + 0.5)

    @pytest.mark.parametrize("rule", PACKED_RULES, ids=lambda r: r.label)
    @pytest.mark.parametrize("i, message", [
        (2.5, "column index must be an integer, got 2.5"),
        (-1, "column index must be >= 0, got -1"),
        ("3", "column index must be an integer, got '3'"),
    ])
    def test_bad_index_named(self, rule, i, message):
        with pytest.raises(DomainError, match=f"^{message}$"):
            rule.column(i)


def _nan_rate():
    # p is NaN above 0.4, so every residual at c = 0.5 is NaN; custom_rate
    # refuses the NaN where it enters, so the rate is built from unchecked closures
    sr = sqrt_ratio()
    return SuccessRate("nan_above", 0.0, sr.domain_cap,
                       lambda x: math.nan if x > 0.4 else sr.probability(x), sr.marginal)


def _packed_cases():
    sr = sqrt_ratio()
    custom = custom_rate("custom_sqrt", sr.probability, sr.marginal)
    gamma = 0.02
    budget = ConstantTailProfile((investment_for_return(sr, 1.0 - gamma),), gamma)
    ex5 = ConstantTailProfile((0.06, 0.03), 0.0883)
    return {
        "equal_split": (sr, equal_split(), constant_profile(0.0883)),
        "custom_three_agents": (custom, _transfer(0.5), ex5),
        "zero_corner": (sr, fixed_fraction_floor(1.0, 1.0), constant_profile(0.0)),
        "budget_corner": (sr, fixed_fraction_floor(1.0, gamma), budget),
        "mixture": (sr, PACKED_RULES[7], ex5),
        "nan_residual": (_nan_rate(), equal_split(), constant_profile(0.5)),
    }


PACKED_CASES = _packed_cases()


class TestPackedRecords:
    """``verify_equilibrium`` packs its records from their fields: each
    check is the ``AgentCheck`` that ``check_agent`` gives, and the report
    the ``EquilibriumReport`` its constructor builds.  ``repr`` compares
    field for field and bit for bit, a NaN residual included."""

    @pytest.mark.parametrize("mode", list(Mode))
    @pytest.mark.parametrize("name", PACKED_CASES)
    def test_checks_equal_check_agent(self, name, mode):
        sr, rule, x = PACKED_CASES[name]
        report = verify_equilibrium(sr, rule, x, mode)
        assert [c.agent for c in report.checks] == list(range(len(report.checks)))
        for chk in report.checks:
            want = check_agent(sr, rule, x, chk.agent, mode)
            assert type(chk) is AgentCheck and type(want) is AgentCheck
            assert repr(chk) == repr(want)
        built = EquilibriumReport(
            mode=report.mode, tol=report.tol, checks=report.checks, failures=report.failures
        )
        assert type(report) is EquilibriumReport
        assert type(report.checks) is tuple and type(report.failures) is tuple
        assert repr(report) == repr(built)

    def test_cases_reach_every_corner(self):
        # the cases above cover both corners and a NaN residual
        corners = {
            name: {c.corner for c in verify_equilibrium(*case, Mode.SELF_FINANCED).checks}
            for name, case in PACKED_CASES.items()
        }
        assert corners["zero_corner"] == {"zero"}
        assert "budget" in corners["budget_corner"]
        sr, rule, x = PACKED_CASES["nan_residual"]
        assert all(math.isnan(c.residual) for c in verify_equilibrium(sr, rule, x).checks)
