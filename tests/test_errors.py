"""Every public call refuses a non-number with ``DomainError``.

``errors.py`` promises that one ``except SeqInvestError`` catches every
library failure, so an argument that is not a real number (text, ``None``)
is refused naming the argument, never passed on to fail as a bare
``TypeError`` or ``ValueError``, nor parsed as text.
"""

import re

import numpy as np
import pytest

from seqinvest import (
    DomainError,
    Mixture,
    Perturbed,
    check_agent,
    constant_profile,
    custom_rate,
    equal_split,
    fixed_fraction,
    fixed_fraction_floor,
    flat_continuation,
    near_constant_bounds,
    near_constant_feasibility,
    next_step_bonus,
    next_step_bonus_zero_initiator,
    scaled_sqrt_ratio,
    sqrt_ratio,
    synthesize_rule,
    verify_equilibrium,
)

SR = sqrt_ratio()

# each call with the non-number ``v`` in one argument, and the name the error gives it
CALLS = {
    "sqrt_ratio domain_cap": (lambda v: sqrt_ratio(domain_cap=v), "sqrt_ratio: domain_cap"),
    "scaled_sqrt_ratio epsilon": (lambda v: scaled_sqrt_ratio(v), "epsilon"),
    "custom_rate epsilon": (lambda v: custom_rate("c", SR.probability, SR.marginal, epsilon=v),
                            "epsilon"),
    "fixed_fraction alpha": (lambda v: fixed_fraction(v), "alpha"),
    "fixed_fraction_floor gamma": (lambda v: fixed_fraction_floor(0.5, v), "gamma"),
    "Mixture weight": (lambda v: Mixture(v, equal_split(), fixed_fraction(0.5)), "mixture weight"),
    "flat_continuation alpha": (lambda v: flat_continuation(v, 0.1), "alpha"),
    "next_step_bonus beta": (lambda v: next_step_bonus(v, 0.1), "beta"),
    "next_step_bonus_zero_initiator beta": (lambda v: next_step_bonus_zero_initiator(v, 0.1),
                                            "beta"),
    "near_constant_bounds gamma": (lambda v: near_constant_bounds(SR, 0.05, v), "floor"),
    "near_constant_feasibility gamma": (lambda v: near_constant_feasibility(SR, 0.06, 0.05, v),
                                        "floor"),
    "synthesize_rule gamma": (lambda v: synthesize_rule(SR, 0.06, 0.05, v), "floor"),
    "verify_equilibrium tol": (lambda v: verify_equilibrium(
        SR, equal_split(), constant_profile(0.05), tol=v), "tolerance"),
    "check_agent tol": (lambda v: check_agent(
        SR, equal_split(), constant_profile(0.05), 0, tol=v), "tolerance"),
    # "0.5" used to be parsed as 0.5
    "Perturbed entries": (lambda v: Perturbed(equal_split(), entries=(((0, 2), v),)),
                          "entries delta"),
    "Perturbed column_tails": (lambda v: Perturbed(equal_split(), column_tails=((0, (3, v)),)),
                               "column_tails delta"),
}


# "abc" used to reach ``float()`` in Perturbed, a bare ValueError
@pytest.mark.parametrize("value", ["0.5", None, "abc"], ids=repr)
@pytest.mark.parametrize("call", CALLS)
def test_non_number_is_a_domain_error(call, value):
    fn, name = CALLS[call]
    with pytest.raises(DomainError, match=f"^{re.escape(name)} must be a real number, got {value!r}$"):
        fn(value)



@pytest.mark.parametrize("factory", [
    lambda v: fixed_fraction(v), lambda v: fixed_fraction_floor(v, v), lambda v: flat_continuation(v, v),
    lambda v: next_step_bonus(v, v), lambda v: next_step_bonus_zero_initiator(v, v),
    lambda v: Mixture(v, equal_split(), fixed_fraction(0.5)),
])
@pytest.mark.parametrize("value", [1, np.float64(0.25), np.int64(0)], ids=repr)
def test_any_real_number_builds_the_rule_of_its_float(factory, value):
    rule, same = factory(value), factory(float(value))
    assert rule.label == same.label
    assert [rule.row(k) for k in range(6)] == [same.row(k) for k in range(6)]
