#!/usr/bin/env bash
# Runs the CLI from src/ in a virtual environment with nothing installed, so
# without numpy: every command but simulate must work there.
# Usage, from the repository root: .github/scripts/cli-without-numpy.sh [python]
set -euo pipefail
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
"${1:-python}" -m venv --without-pip "$work/bare"
cli() { PYTHONPATH=src "$work/bare/bin/python" -m seqinvest.cli "$@"; }
# a golden transcript without its command and exit lines: the stdout
golden_stdout() { sed '1d;$d' "tests/golden/$1.txt"; }

cli optima
# stdout itself, byte for byte, not only the exit code
cli rule print --rule kind=jackpot --rows 8 | diff - <(golden_stdout rule_print)
# best responses and verification, through dynamics and synthesis
cli dynamics --rule kind=jackpot --rate scaled_sqrt_ratio --epsilon 0.7071 --horizon 12
cli synthesize --x0 0.06 --c 0.12
# the band's upper edge at the self-financed floor
cli region --mode self_financed --points 16 | diff - <(golden_stdout region)
# a reader that stops early is no error: exit 0 and nothing on stderr
cli rule print --rule kind=equal_split --rows 400 2> "$work/pipe.err" | head -1
test ! -s "$work/pipe.err"
printf '[rule]\nkind = equal_split\n[profile]\nprefix = []\ntail = 0.0883\n' > "$work/good.cfg"
cli verify --config "$work/good.cfg" --tol-eq 1e-4
# a comma inside a config value is part of the value, not a second key: exit 2
printf '[rule]\nkind = equal_split\n[profile]\ntail = 0.0883, prefix=[0.5]\n' > "$work/smuggled.cfg"
code=0
cli verify --config "$work/smuggled.cfg" || code=$?
test "$code" -eq 2
