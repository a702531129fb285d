"""CLI stdout and exit codes pinned byte for byte to ``tests/golden``.

Each ``<name>.txt`` is a transcript of one command: the ``$ seqinvest ...``
line, its stdout, and its ``[exit N]``.  The commands are the README's,
except ``simulate`` (numpy does not promise the same ``Generator`` stream
across versions, NEP 19), and two negative verdicts.  Every format has at
most 10 significant digits (``region`` is a table, not csv), so a last-ulp
difference between hosts' libm cannot flip a byte of a value.  A
residual at or below 1e-12 is rounding noise and prints as the one token
``<=1e-12`` (``tests/pinning.py``, which ``tests/test_demos.py`` and
``.github/scripts/cli-without-numpy.sh`` use too).

An intended change of output is rewritten with
``PYTHONPATH=src python tests/test_cli_golden.py`` and listed in CHANGES.md.
"""

import contextlib
import io
import shlex
import sys
from pathlib import Path

import pytest

from pinning import pinned
from seqinvest.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

GOLDEN = {
    "optima": "optima",
    "verify": "verify --rule kind=equal_split --profile tail=0.0883 --tol-eq 1e-4",
    "verify_self_financed": (
        "verify --rule kind=fixed_fraction_floor,alpha=0.9377,gamma=0.0723"
        " --profile prefix=[0.0816],tail=0.0723 --self-financed --tol-eq 1e-3"
    ),
    "verify_not_supported": "verify --rule kind=equal_split --profile tail=0.1111",
    "synthesize": "synthesize --x0 0.06 --c 0.12 --gamma 0",
    "synthesize_infeasible": "synthesize --x0 0.0131 --c 0.2588",
    "dynamics": "dynamics --rule kind=jackpot --rate scaled_sqrt_ratio --epsilon 0.7071 --horizon 12",
    "region": "region --mode self_financed --points 16",
    "rule_print": "rule print --rule kind=jackpot --rows 8",
}


def transcript(command: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(shlex.split(command))
    return pinned(f"seqinvest {command}", out.getvalue(), code)


@pytest.mark.parametrize("name", GOLDEN)
def test_stdout_and_exit_code_match_golden(name):
    assert transcript(GOLDEN[name]) == (GOLDEN_DIR / f"{name}.txt").read_text()


def test_every_golden_file_is_checked():
    assert sorted(p.stem for p in GOLDEN_DIR.glob("*.txt")) == sorted(GOLDEN)


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, command in GOLDEN.items():
        (GOLDEN_DIR / f"{name}.txt").write_text(transcript(command))
    sys.exit(0)
