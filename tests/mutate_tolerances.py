"""Move each tolerance constant of the library 10-fold each way, and run tier-1.

Run from the repository root, by hand or in CI; the script itself needs
the standard library alone:

    python tests/mutate_tolerances.py [NAME ...]

For each constant in ``CONSTANTS`` (or only the ones named) and each
factor in ``FACTORS``, the working tree is copied to a temporary directory
without ``.git``, the constant's float literal in the copy's
``src/seqinvest/<module>.py`` is multiplied by the factor, and
``python -m pytest -x -q`` runs in the copy, whose tests import and run the
copy's ``src``; then the tests of the constant's own case, as
``CONSTANTS`` names them, run alone.  One row is printed per move: the
constant, the factor, and for each run its first failing test or
``passes``.

Every constant, made 10-fold looser, must fail a test of the case it
decides: an input whose verdict, chosen rule or value changes, not only a
work-count pin, the answer ledger or a transcript.  The script exits 1
when a 10-fold move leaves its constant's case without a failing test
(passing, or selecting no test), 2 for a name not listed, else 0; the
0.1-fold moves are reported, not judged.  ``tests/test_package.py``
checks that every module-level name bound to a float literal in the
library is listed here, ``DEFAULT_DOMAIN_CAP`` (a domain, not a tolerance)
apart.  This file is not collected by tier-1.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (module, name): the test files, and the ``-k`` expression within them,
# of the case the constant decides
CONSTANTS = {
    ("equilibrium", "TOL_EQ"): ("tests/test_equilibrium.py", "just_off_c_star"),
    ("equilibrium", "_SUPPORT_TOL"): (
        "tests/test_equilibrium.py",
        "gap_against_the_slack or past_the_upper_edge or slack_of_the_upper_edge",
    ),
    ("optima", "_EDGE"): ("tests/test_optima.py", "near_the_bracket_start"),
    ("profiles", "_FLATTEN_VTOL"): ("tests/test_profiles.py", "mismatch_against_the_slack"),
    ("rates", "_TOL_CONVEX"): ("tests/test_rates.py", "prize_convex_allows_rounding"),
    ("rates", "_TOL_LIMIT"): ("tests/test_rates.py", "prize_at_zero_allows_rounding"),
    ("rates", "_SLOPE_STEP"): ("tests/test_twins.py", "prize_slope"),
    ("rules", "_BALANCE_TOL"): ("tests/test_rule_cells.py tests/test_equilibrium.py",
                                "same_verdict_and_message or falling_column_tail_fails"),
}
LOOSER = 10.0  # the move each constant's case must fail
FACTORS = (LOOSER, 0.1)
EXEMPT = ("DEFAULT_DOMAIN_CAP",)


def float_constants(source: str) -> dict[str, ast.Constant]:
    """Every module-level name bound to a float literal, with the literal's node."""
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if isinstance(value, ast.UnaryOp) and isinstance(value.op, (ast.USub, ast.UAdd)):
            value = value.operand
        if isinstance(value, ast.Constant) and type(value.value) is float:
            for target in targets:
                if isinstance(target, ast.Name):
                    found[target.id] = value
    return found


def _mutated(source: str, name: str, factor: float) -> str:
    node = float_constants(source)[name]
    lines = source.splitlines(keepends=True)
    line = lines[node.lineno - 1]
    lines[node.lineno - 1] = (
        line[:node.col_offset] + repr(node.value * factor) + line[node.end_col_offset:]
    )
    return "".join(lines)


def _pytest(copy: Path, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *args],
        cwd=copy, env=env, capture_output=True, text=True,
    )


def _first_failure(proc: subprocess.CompletedProcess) -> str | None:
    # the first failing test's id, or None when no test failed
    for line in proc.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return None


def _outcome(proc: subprocess.CompletedProcess) -> str:
    first = _first_failure(proc)
    if first is not None:
        return first
    return "passes" if proc.returncode == 0 else f"exit {proc.returncode}"


def move(module: str, name: str, factor: float) -> tuple[str, str, bool]:
    """The outcome of tier-1 and of the case's tests, with one constant moved,
    and whether a test of the case failed."""
    files, expr = CONSTANTS[module, name]
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.egg-info"))
        path = copy / "src" / "seqinvest" / f"{module}.py"
        path.write_text(_mutated(path.read_text(), name, factor))
        first = _outcome(_pytest(copy, "-x"))
        case = _pytest(copy, *files.split(), "-k", expr)
        return first, _outcome(case), _first_failure(case) is not None


def main(names: list[str]) -> int:
    unknown = set(names) - {name for _, name in CONSTANTS}
    if unknown:
        print(f"not a listed constant: {sorted(unknown)}", file=sys.stderr)
        return 2
    print("| constant | factor | first tier-1 failure | first failure of its case |")
    print("| --- | --- | --- | --- |")
    survivors = []
    for module, name in CONSTANTS:
        if names and name not in names:
            continue
        for factor in FACTORS:
            first, case, killed = move(module, name, factor)
            print(f"| `{module}.{name}` | x{factor:g} | `{first}` | `{case}` |", flush=True)
            if factor == LOOSER and not killed:
                survivors.append(f"{module}.{name}")
    if survivors:
        print(f"no test of its own case fails with x{LOOSER:g}: {', '.join(survivors)}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
