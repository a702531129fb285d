#!/usr/bin/env bash
# Runs the library and the CLI from src/ in a virtual environment with
# nothing installed, so without numpy: the first access to an export must
# import every library module and bind every exported name without loading
# numpy, every command but simulate must work there, each transcript in
# tests/golden must match whole, exit line included, the answer ledger
# (tests/ledger.py) must match tests/golden/ledger/answers.txt bit for bit,
# and simulate must fail as a usage error (exit 2, an `error:` line, no
# traceback).
# `rule print` must also start without loading the equilibrium layer or the
# solvers, and `verify` without loading the solvers, as read from
# `python -X importtime` on stderr.
# Usage, from the repository root: .github/scripts/cli-without-numpy.sh [python]
set -euo pipefail
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
"${1:-python}" -m venv --without-pip "$work/bare"
cli() { PYTHONPATH=src "$work/bare/bin/python" -m seqinvest.cli "$@"; }
# a golden transcript without its command and exit lines: the stdout
golden_stdout() { sed '1d;$d' "tests/golden/$1.txt"; }
# stdout with a residual's rounding noise as one token, as the transcripts pin it
pinned() { "$work/bare/bin/python" tests/pinning.py; }

# the library: the first access binds every export and imports all eight
# modules, simulate included, and still no numpy; then one solve, whose
# value is checked to the last digit
library='
import sys
import seqinvest
tail = seqinvest.socially_optimal(seqinvest.sqrt_ratio()).profile.tail
if [name for name in seqinvest.__all__ if name not in vars(seqinvest)]:
    sys.exit("an export is not bound")
modules = "equilibrium errors optima profiles rates rules simulate solvers".split()
if [m for m in modules if "seqinvest." + m not in sys.modules]:
    sys.exit("a library module is not loaded")
if "numpy" in sys.modules:
    sys.exit("numpy is loaded")
print(tail)
'
PYTHONPATH=src "$work/bare/bin/python" -c "$library" > "$work/library.out"
test "$(cat "$work/library.out")" = 0.0883019903521997

# every CLI transcript in tests/golden, whole and byte for byte: its command
# line, its stdout with a residual's rounding noise as one token (sum() of
# floats is compensated from Python 3.12 on, and rule construction sums each
# row with it), and its exit line. The commands quote nothing, so the words
# after `$ seqinvest` split on blanks
for golden in tests/golden/*.txt; do
  read -r -a args < <(head -n 1 "$golden" | sed 's/^\$ seqinvest //')
  code=0
  cli "${args[@]}" > "$work/stdout" || code=$?
  {
    printf '$ seqinvest %s\n' "${args[*]}"
    pinned < "$work/stdout"
    printf '[exit %d]\n' "$code"
  } | diff - "$golden"
done
# the answer ledger, every line byte for byte: the repr of each answer, so
# its last bit, on this interpreter and without numpy. Written to stdout, so
# the committed file is compared, never rewritten
PYTHONPATH=src:tests "$work/bare/bin/python" -c 'import sys, ledger; sys.stdout.write(ledger.ledger())' |
  diff - tests/golden/ledger/answers.txt
# the modules rule print imports: the rules layer, and not equilibrium or solvers
PYTHONPATH=src "$work/bare/bin/python" -X importtime -m seqinvest.cli \
  rule print --rule kind=jackpot --rows 8 > /dev/null 2> "$work/rule_print.imports"
grep -Eq '\| +seqinvest\.rules$' "$work/rule_print.imports"
if grep -E '\| +seqinvest\.(equilibrium|solvers)$' "$work/rule_print.imports"; then exit 1; fi
# the modules verify imports: the equilibrium layer, and not the solvers,
# since the built-in rates invert the required return in closed form
PYTHONPATH=src "$work/bare/bin/python" -X importtime -m seqinvest.cli \
  verify --rule kind=equal_split --profile tail=0.0883 --tol-eq 1e-4 > /dev/null 2> "$work/verify.imports"
grep -Eq '\| +seqinvest\.equilibrium$' "$work/verify.imports"
if grep -E '\| +seqinvest\.solvers$' "$work/verify.imports"; then exit 1; fi
# demos 02 to 05 need no numpy: flattening, rules, equilibria, synthesis and
# the optima, byte for byte against their transcripts, noise as one token
for demo in 02_process_functionals 03_reward_rules 04_equilibria 05_optimal_programs; do
  PYTHONPATH=src "$work/bare/bin/python" "demos/$demo.py" | pinned | diff - <(golden_stdout "demos/$demo")
done
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
# simulate, the one command that needs numpy, names it and exits 2
code=0
cli simulate --rule kind=equal_split --profile tail=0.0883 --episodes 10 2> "$work/simulate.err" || code=$?
test "$code" -eq 2
grep -q '^error: simulate needs numpy' "$work/simulate.err"
if grep -q Traceback "$work/simulate.err"; then exit 1; fi
