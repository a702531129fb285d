"""The answer ledger: the ``repr`` of the library's public answers, one a line.

The golden transcripts print 10 significant digits, so they cannot see a
change in the last bit of an answer; this ledger can.  Each line is one
call on a fixed input: the four optima, ``first_best_investment``,
``region_curve_intersection``, both ``tail_limit``\\ s, ``region_sweep``
rows in both modes, ``near_constant_feasibility``, ``synthesize_rule``
labels, ``investment_for_return`` and ``best_response_dynamics``, each on
``sqrt_ratio``, ``scaled_sqrt_ratio`` at 0.3, 0.7071 and 0.99, and a custom
sqrt rate.  A call that raises records the error's class and message.
Simulation is left out: its bits depend on the numpy build.

The script needs only the standard library and ``seqinvest``.  It
rewrites ``tests/golden/ledger/answers.txt``, which
``tests/test_ledger.py`` compares line by line; a change that moves an
answer on purpose rewrites it with ``PYTHONPATH=src python
tests/ledger.py`` and lists each changed line in CHANGES.md.
"""

import sys
from pathlib import Path

import seqinvest as si

LEDGER = Path(__file__).parent / "golden" / "ledger" / "answers.txt"

# tails across each band and past its end, and inputs that raise
TAILS = [
    0.001, 0.02, 0.05, 0.0883, 0.12, 0.2, 0.25, 0.3, 0.35, 1.5, -0.1, float("nan"), float("inf"),
]
TARGETS = [-1.0, 0.0, 1e-9, 0.25, 1.0, 2.5, 40.0, 1e6, float("nan"), float("inf")]
# (x0, c, gamma): inside, on and outside the band, and bad floors
POINTS = [
    (0.06, 0.12, 0.0), (0.0131, 0.2588, 0.0), (0.0816, 0.0723, 0.0723), (0.05, 0.05, 0.01),
    (0.2, 0.01, 0.0), (0.01, 0.15, 0.05), (0.06, 0.12, -0.1), (0.06, 0.12, float("inf")),
    (-0.01, 0.12, 0.0),
]
RULES = [
    ("equal_split", si.equal_split), ("jackpot", si.jackpot),
    ("fixed_fraction(0.9)", lambda: si.fixed_fraction(0.9)),
]


def rates():
    sqrt = si.sqrt_ratio()
    return [
        sqrt, si.scaled_sqrt_ratio(0.3), si.scaled_sqrt_ratio(0.7071),
        si.scaled_sqrt_ratio(0.99), si.custom_rate("custom_sqrt", sqrt.probability, sqrt.marginal),
    ]


def _entry(call: str, fn) -> str:
    try:
        answer = repr(fn())
    except si.SeqInvestError as e:
        answer = f"raises {type(e).__name__}: {e}"
    return f"{call} -> {answer}"


def _calls(sr):
    # (what, thunk) pairs for one rate, in ledger order
    for solve in (si.first_best_investment, si.socially_optimal, si.initiator_optimal,
                  si.self_financed_optimal, si.region_curve_intersection):
        yield f"{solve.__name__}()", lambda solve=solve: solve(sr)
    for mode in si.Mode:
        yield f"tail_limit({mode.value})", lambda mode=mode: si.tail_limit(sr, mode)
        for c in TAILS:
            yield f"region_sweep([{c!r}], {mode.value})", \
                lambda c=c, mode=mode: si.region_sweep(sr, [c], mode)
    for t in TARGETS:
        yield f"investment_for_return({t!r})", lambda t=t: si.investment_for_return(sr, t)
    for x0, c, gamma in POINTS:
        args = f"{x0!r}, {c!r}, {gamma!r}"
        yield f"near_constant_feasibility({args})", \
            lambda x0=x0, c=c, gamma=gamma: si.near_constant_feasibility(sr, x0, c, gamma)
        yield f"synthesize_rule({args}).label", \
            lambda x0=x0, c=c, gamma=gamma: si.synthesize_rule(sr, x0, c, gamma).label
    for name, rule in RULES:
        yield f"best_response_dynamics({name}, 6)", \
            lambda rule=rule: si.best_response_dynamics(sr, rule(), 6)


def ledger() -> str:
    """The ledger's text: one line per call, each prefixed by its rate."""
    return "".join(
        _entry(f"{sr.name}: {call}", fn) + "\n" for sr in rates() for call, fn in _calls(sr)
    )


if __name__ == "__main__":
    LEDGER.parent.mkdir(parents=True, exist_ok=True)
    LEDGER.write_text(ledger())
    sys.exit(0)
