"""Every demo runs to completion as a script; demos 01 to 06 match ``tests/golden/demos``.

Each ``<demo>.txt`` is a transcript of one demo run, in the format and
under the rules of ``tests/test_cli_golden.py`` and ``tests/pinning.py``:
the command line, its stdout, and its ``[exit N]``; every printed value
has at most 10 significant digits, and a residual at or below 1e-12 is
the one token ``<=1e-12``.  Demo 07 prints Monte Carlo output, which depends on numpy's
``Generator`` stream (NEP 19), so it is pinned only by its own
``bit-identical: True`` check.

An intended change of output is rewritten with
``PYTHONPATH=src python tests/test_demos.py`` and listed in CHANGES.md.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from pinning import pinned

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
UNPINNED = {"07_monte_carlo"}
GOLDEN_DIR = Path(__file__).parent / "golden" / "demos"
NUMBER = re.compile(r"\d[.\d]*")


def run(demo: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


def transcript(demo: Path, result: subprocess.CompletedProcess) -> str:
    return pinned(f"python demos/{demo.name}", result.stdout, result.returncode)


def significant_digits(number: str) -> int:
    # of a decimal fraction; an integer here is a count or an index
    return len(number.replace(".", "").lstrip("0")) if "." in number else 0


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo):
    result = run(demo)
    assert result.returncode == 0, result.stderr
    if demo.stem in UNPINNED:
        assert "bit-identical: True" in result.stdout
        return
    text = transcript(demo, result)
    assert text == (GOLDEN_DIR / f"{demo.stem}.txt").read_text()
    assert max(map(significant_digits, NUMBER.findall(text))) <= 10


def test_every_golden_file_is_checked():
    pinned_demos = sorted(d.stem for d in DEMOS if d.stem not in UNPINNED)
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.txt")) == pinned_demos


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for demo in DEMOS:
        if demo.stem not in UNPINNED:
            result = run(demo)
            if result.returncode != 0:
                sys.exit(f"{demo.name} failed:\n{result.stderr}")
            (GOLDEN_DIR / f"{demo.stem}.txt").write_text(transcript(demo, result))
    sys.exit(0)
