"""The package namespace: bound on first use, with the same names and objects as eager imports."""

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import seqinvest
from mutate_tolerances import CONSTANTS, EXEMPT, float_constants

ROOT = Path(__file__).resolve().parents[1]

LIBRARY_MODULES = ("equilibrium", "errors", "optima", "profiles", "rates", "rules", "simulate",
                   "solvers")

EXPORTS = (
    "AgentCheck", "BoundSchedule", "BracketError", "ChainCapError", "Column", "ConstantSupport",
    "ConstantTailProfile", "DivergenceError", "DomainError", "DynamicsResult",
    "EquilibriumReport", "FunctionalValues", "InfeasibleError", "Mixture", "Mode",
    "NearConstantFeasibility", "OptimumResult", "PayoffStat", "Perturbed", "RegionRow",
    "RewardRule", "RuleConstructionError", "SeqInvestError", "SimulationConfig",
    "SimulationSummary", "Stat", "StationaryColumnRule", "SuccessRate", "TailShapeError",
    "UnboundedRatioError", "ValidationReport", "best_response", "best_response_dynamics",
    "check_agent", "constant_profile", "constant_support_check", "continuation_reward",
    "custom_rate", "equal_split", "equilibrium", "errors", "expected_investment",
    "expected_payoff", "expected_value", "expected_welfare", "first_best_investment",
    "fixed_fraction", "fixed_fraction_floor", "flat_continuation", "flatten_tail",
    "functionals", "implied_value", "incentive_cost", "initiator_optimal", "investment_bounds",
    "investment_for_return", "jackpot", "near_constant_bounds", "near_constant_feasibility",
    "near_constant_profile", "next_step_bonus", "next_step_bonus_zero_initiator", "optima",
    "profiles", "rate_from_config", "rates", "region_curve_intersection",
    "region_sweep", "rule_from_config", "rules", "scaled_sqrt_ratio", "self_financed_optimal",
    "simulate", "socially_optimal", "solvers", "sqrt_ratio", "summarize", "synthesize_rule",
    "tail_limit", "terminal_histogram", "validate", "verify_equilibrium",
)

# Imports the package in a fresh process, probes an unknown name, touches one
# export, and prints what was loaded and bound at each step as JSON.
_RUNNER = """
import inspect, json, sys
import seqinvest

def loaded():
    return sorted(name for name in sys.modules if name.startswith("seqinvest."))

report = {"after_import": loaded()}
try:
    seqinvest.no_such_name
    report["unknown"] = "bound"
except AttributeError as exc:
    report["unknown"] = str(exc)
report["after_unknown"] = loaded()
seqinvest.Mode
report["after_first_use"] = loaded()
report["all"] = seqinvest.__all__
report["not_bound"] = [name for name in seqinvest.__all__ if name not in vars(seqinvest)]
# RewardRule is the package's second name for StationaryColumnRule
home = {"RewardRule": "StationaryColumnRule"}
report["not_identical"] = [
    name for name in seqinvest.__all__
    if not inspect.ismodule(vars(seqinvest)[name])
    and vars(seqinvest)[name]
    is not vars(sys.modules[vars(seqinvest)[name].__module__])[home.get(name, name)]
]
report["modules"] = {
    name: vars(seqinvest)[name] is sys.modules["seqinvest." + name]
    for name in seqinvest.__all__ if inspect.ismodule(vars(seqinvest)[name])
}
star = {}
exec("from seqinvest import *", star)
report["star"] = sorted(name for name in star if name != "__builtins__")
print(json.dumps(report))
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    src = str(Path(seqinvest.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, check=True, timeout=120)


def test_namespace_contract():
    report = json.loads(_python("-c", _RUNNER).stdout)
    assert report["after_import"] == []
    assert report["unknown"] == "module 'seqinvest' has no attribute 'no_such_name'"
    assert report["after_unknown"] == []
    assert report["after_first_use"] == sorted(f"seqinvest.{m}" for m in LIBRARY_MODULES)
    assert report["all"] == list(EXPORTS)
    assert report["not_bound"] == []
    assert report["not_identical"] == []
    assert report["modules"] == dict.fromkeys(LIBRARY_MODULES, True)
    assert report["star"] == list(EXPORTS)


def test_reward_rule_is_the_rule_class():
    assert seqinvest.RewardRule is seqinvest.StationaryColumnRule
    assert "RewardRule" not in vars(seqinvest.rules)


def test_no_module_binds_its_own_object_twice():
    # a class or function bound under two public names of its own module
    # would be wrapped twice by perfbench's tracer, doubling its counters
    for module in LIBRARY_MODULES:
        mod = getattr(seqinvest, module)
        names: dict[int, str] = {}
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isclass(obj) or inspect.isfunction(obj):
                other = names.setdefault(id(obj), name)
                assert other == name, f"{mod.__name__} binds {other} as {name} too"


def _reads(path: Path) -> set[str]:
    """The names a file loads, the attributes it reads and the modules it imports from."""
    reads = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module:
            reads.add(node.module.rpartition(".")[2])
    return reads


def test_every_export_has_a_caller():
    # the library, the demos and the benchmark are the callers; a name that
    # only the tests read is surface without a use
    library = [p for p in (ROOT / "src" / "seqinvest").glob("*.py") if p.name != "__init__.py"]
    demos, bench = list((ROOT / "demos").glob("*.py")), list((ROOT / "perfbench").glob("*.py"))
    assert library and demos and bench
    read = set().union(*map(_reads, library + demos + bench))
    assert [name for name in seqinvest.__all__ if name not in read] == []


def test_every_float_constant_is_in_the_mutation_table():
    # each module-level float literal is a tolerance, to be moved 10-fold
    # each way by tests/mutate_tolerances.py, or the one named domain
    found = {
        (path.stem, name)
        for path in (ROOT / "src" / "seqinvest").glob("*.py")
        for name in float_constants(path.read_text())
        if name not in EXEMPT
    }
    assert found == set(CONSTANTS)


def test_every_exemption_is_a_float_constant():
    # an exemption outlives no constant: each names a module-level float
    # literal of the library
    names = {
        name for path in (ROOT / "src" / "seqinvest").glob("*.py")
        for name in float_constants(path.read_text())
    }
    assert set(EXEMPT) <= names


def _inline_small_floats(path: Path) -> list[str]:
    # every float literal with 0 < |v| < 1e-3 outside a module-level assignment
    tree = ast.parse(path.read_text(), filename=str(path))
    named = {
        id(node) for stmt in tree.body if isinstance(stmt, (ast.Assign, ast.AnnAssign))
        for node in ast.walk(stmt)
    }
    return [
        f"{path.name}:{node.lineno} {node.value!r}" for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and type(node.value) is float
        and 0.0 < abs(node.value) < 1e-3 and id(node) not in named
    ]


def test_no_tolerance_written_inline():
    # a tolerance-sized literal inside a function escapes the mutation
    # table; as a module constant it is listed there or exempt
    library = sorted((ROOT / "src" / "seqinvest").glob("*.py"))
    assert [hit for path in library for hit in _inline_small_floats(path)] == []


def test_dir_lists_every_export():
    assert set(EXPORTS) <= set(dir(seqinvest))
    assert "__version__" in dir(seqinvest)


def test_version_flag():
    assert _python("-m", "seqinvest.cli", "--version").stdout == "seqinvest 0.1.0\n"
