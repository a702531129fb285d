"""Rounding noise in a transcript, written as one token.

A residual at or below 1e-12 is rounding noise, whose every digit can
flip between interpreters and hosts, so the CLI and demo transcripts
under ``tests/golden`` print it as the one token ``<=1e-12``: in a
``residual=`` or ``max_residual=`` field and in a ``max_residual`` table
row alike, and in the demos' ``max residual`` notes and ``<name>: ``
residual lines.  The module needs only the standard library, so an
environment with nothing installed pins stdout the same way::

    python -m seqinvest.cli dynamics ... | python tests/pinning.py
"""

import re
import sys

RESIDUAL = re.compile(
    r"\b(residual=|max_residual=|max_residual +|max residual |[a-z]+(?:_[a-z]+)+: )([-+.0-9eE]+)"
)


def _noise_token(match: re.Match) -> str:
    return match[1] + "<=1e-12" if abs(float(match[2])) <= 1e-12 else match[0]


def pinned(command: str, stdout: str, code: int) -> str:
    """The transcript of one command: its line, its stdout with rounding
    noise as one token, and its exit code."""
    return f"$ {command}\n{RESIDUAL.sub(_noise_token, stdout)}[exit {code}]\n"


if __name__ == "__main__":  # stdin to stdout, the noise as one token
    sys.stdout.write(RESIDUAL.sub(_noise_token, sys.stdin.read()))
