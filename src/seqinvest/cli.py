"""Command-line interface.

Commands: ``optima``, ``verify``, ``synthesize``, ``dynamics``,
``region``, ``simulate``, ``rule print``.  Exit status 0 on success or a
Supported verdict, 1 on a negative verdict (NotSupported, infeasible,
non-converged, failed internal verification), 2 on usage or
configuration errors.

Values can come from a config file (flat key-value with sections, e.g.
``[rate] family = sqrt_ratio``) with command-line flags taking
precedence.  A ``--rule`` or ``--profile`` flag is split into fields at
its top-level commas; a config section is used as read, so a comma in a
config value belongs to the value.  Handlers return rows and an exit
status, and ``main`` alone writes them, so a failed command writes no
output file.  Output is aligned text by default; ``--format csv|tsv``
emits machine-readable rows whose floats round-trip exactly.

Each command loads only its own modules: the handlers import the layers
they call.  ``verify``, ``synthesize`` and ``dynamics`` import the
equilibrium layer, ``optima`` and ``region`` the optimum programs (which
load it and the solvers too), ``simulate`` the simulation engine, and only
``--config`` loads configparser.  No command builds a custom rate, the one
kind the equilibrium layer inverts with the solvers.  The parser needs none
of them, so ``rule print`` and ``simulate`` load neither layer.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
from typing import Iterable, Sequence

from . import __version__
from .errors import DomainError, SeqInvestError
from .profiles import ConstantTailProfile
from .rates import SuccessRate, rate_from_config, validate
from .rules import StationaryColumnRule, rule_from_config

_RATE_KEYS = {"family", "epsilon", "domain_cap"}
_PROFILE_KEYS = {"prefix", "tail"}

Rows = list[tuple[object, ...]]


class UsageError(SeqInvestError):
    pass


def _fmt(value: float, machine: bool) -> str:
    if machine:
        return repr(float(value))
    return f"{value:.10g}"


def _emit(rows: Iterable[Sequence[object]], fmt: str, out) -> None:
    machine = fmt in ("csv", "tsv")
    sep = {"csv": ",", "tsv": "\t"}.get(fmt, "  ")
    rendered = [
        [_fmt(v, machine) if isinstance(v, float) else str(v) for v in row]
        for row in rows
    ]
    if machine:
        for row in rendered:
            print(sep.join(row), file=out)
        return
    widths: dict[int, int] = {}
    for row in rendered:
        for j, cell in enumerate(row):
            widths[j] = max(widths.get(j, 0), len(cell))
    for row in rendered:
        print(
            "  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)).rstrip(),
            file=out,
        )


def _number(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise UsageError(f"{what} must be a number, got {text.strip()!r}") from None


def _parse_kv(text: str, what: str) -> dict[str, str]:
    out: dict[str, str] = {}
    depth = 0
    part = ""
    parts = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(part)
            part = ""
        else:
            part += ch
    if part:
        parts.append(part)
    for item in parts:
        if "=" not in item:
            raise UsageError(f"malformed {what} item {item.strip()!r}; expected key=value")
        key, value = (side.strip() for side in item.split("=", 1))
        if key in out:
            raise UsageError(f"repeated {what} key {key!r}")
        out[key] = value
    return out


def _parse_profile(fields: dict[str, str]) -> ConstantTailProfile:
    unknown = set(fields) - _PROFILE_KEYS
    if unknown:
        raise UsageError(f"unknown profile key {sorted(unknown)[0]!r}")
    if "tail" not in fields:
        raise UsageError("profile needs a tail value (tail=...)")
    prefix: tuple[float, ...] = ()
    raw = fields.get("prefix", "[]").strip()
    if not (raw.startswith("[") and raw.endswith("]")):
        raise UsageError("profile prefix must look like prefix=[a, b, ...]")
    inner = raw[1:-1].strip()
    if inner:
        prefix = tuple(_number(v, "profile prefix entry") for v in inner.split(","))
    return ConstantTailProfile(prefix, _number(fields["tail"], "profile tail"))


def _parse_rule(fields: dict[str, str]) -> StationaryColumnRule:
    if "kind" not in fields:
        raise UsageError("rule needs a kind (kind=...)")
    params = {k: _number(v, f"rule parameter {k}") for k, v in fields.items() if k != "kind"}
    return rule_from_config(fields["kind"], params)


Config = dict[str, dict[str, str]]


def _load_config(path: str | None) -> Config:
    """Each section of the file at ``path`` as a dict (``[DEFAULT]`` merged in)."""
    if not path:
        return {}
    import configparser

    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
        sections = {section: dict(parser.items(section)) for section in parser.sections()}
    except configparser.Error as exc:  # a repeated key or section, a line without one, a bad %
        raise UsageError(f"malformed config file: {' '.join(str(exc).split())}") from None
    if not read:
        raise UsageError(f"cannot read config file {path!r}")
    return sections


def _resolve_rate(args, cfg: Config) -> SuccessRate:
    section = cfg.get("rate", {})
    unknown = set(section) - _RATE_KEYS
    if unknown:
        raise UsageError(f"unknown config key {sorted(unknown)[0]!r} in [rate]")
    family = args.rate or section.get("family", "sqrt_ratio").strip('"')
    epsilon = args.epsilon if args.epsilon is not None else _number(section.get("epsilon", "0"), "epsilon")
    cap = _number(section.get("domain_cap", "1e6"), "domain_cap")
    rate = rate_from_config(family, epsilon, domain_cap=cap)
    if not args.no_validate:
        try:
            report = validate(rate, points=128)
        except DomainError as exc:  # no grid to check on: advisory, so the command goes on
            print(f"# rate {rate.name}: validation skipped: {exc}", file=sys.stderr)
            return rate
        if report.passed:
            print(
                f"# rate {rate.name}: validation passed ({len(report.checks)} checks)",
                file=sys.stderr,
            )
        else:
            for line in report.lines():
                print(f"# rate {rate.name}: {line}", file=sys.stderr)
    return rate


def _fields(args, cfg: Config, name: str) -> dict[str, str]:
    """Fields of ``--<name>`` (``rule`` or ``profile``), else of the ``[<name>]`` section."""
    text = getattr(args, name, None)
    if text:
        return _parse_kv(text, name)
    if name in cfg:
        return cfg[name]
    raise UsageError(f"no {name} given (use --{name} or a [{name}] section)")


@contextlib.contextmanager
def _output(path: str | None):
    """Stdout for ``None`` or ``-``, else the file at ``path``, closed on exit."""
    if path is None or path == "-":
        yield sys.stdout
        return
    try:
        out = open(path, "w")
    except OSError as exc:
        raise UsageError(f"cannot write output file {path!r}: {exc.strerror}") from None
    with out:
        yield out


def _cmd_optima(args, cfg) -> tuple[Rows, int]:
    from .optima import (
        first_best_investment,
        initiator_optimal,
        self_financed_optimal,
        socially_optimal,
    )

    sr = _resolve_rate(args, cfg)
    rows: Rows = [("quantity", "value", "detail")]
    rows.append(("c_fb", first_best_investment(sr), "first-best constant"))
    failures = 0
    for result in (socially_optimal(sr), initiator_optimal(sr), self_financed_optimal(sr)):
        ok = result.report.supported
        failures += 0 if ok else 1
        if result.profile.prefix:
            rows.append((f"x0_{result.name}", float(result.profile.prefix[0]), result.rule.label))
        rows.append(
            (
                f"c_{result.name}",
                float(result.profile.tail),
                f"objective={_fmt(result.objective, False)}"
                f" residual={result.max_residual:.3g}"
                f" verified={'yes' if ok else 'NO'}",
            )
        )
    return rows, 1 if failures else 0


def _cmd_verify(args, cfg) -> tuple[Rows, int]:
    from .equilibrium import TOL_EQ, Mode, verify_equilibrium

    sr = _resolve_rate(args, cfg)
    rule = _parse_rule(_fields(args, cfg, "rule"))
    profile = _parse_profile(_fields(args, cfg, "profile"))
    mode = Mode.SELF_FINANCED if args.self_financed else Mode.UNCONSTRAINED
    tol = TOL_EQ if args.tol_eq is None else args.tol_eq
    report = verify_equilibrium(sr, rule, profile, mode=mode, tol=tol)
    rows: Rows = [
        ("verdict", report.verdict, ""),
        ("mode", mode.value, ""),
        ("profile", profile.describe(), ""),
        ("max_residual", report.max_residual, ""),
    ]
    for chk in report.checks:
        rows.append(
            (
                f"agent_{chk.agent}",
                chk.residual,
                f"investment={_fmt(chk.investment, False)}"
                f" payoff={_fmt(chk.payoff, False)}"
                + (f" corner={chk.corner}" if chk.corner else ""),
            )
        )
    rows.extend(("failure", failure, "") for failure in report.failures)
    return rows, 0 if report.supported else 1


def _cmd_synthesize(args, cfg) -> tuple[Rows, int]:
    from .equilibrium import Mode, near_constant_feasibility, synthesize_rule, verify_equilibrium

    sr = _resolve_rate(args, cfg)
    feas = near_constant_feasibility(sr, args.x0, args.c, args.gamma)
    rows: Rows = [
        ("verdict", feas.verdict, ""),
        ("initiator_return", feas.ratio, ""),
        ("lower_bound", feas.lower, "binding at max(lower, 0)"),
        ("upper_bound", feas.upper, ""),
    ]
    if not feas.feasible:
        return rows, 1
    rule = synthesize_rule(sr, args.x0, args.c, args.gamma)
    profile = ConstantTailProfile((args.x0,), args.c)
    mode = Mode.SELF_FINANCED if args.self_financed else Mode.UNCONSTRAINED
    report = verify_equilibrium(sr, rule, profile, mode=mode)
    rows.append(("rule", rule.label, ""))
    rows.append(("verified", report.verdict, f"max_residual={report.max_residual:.3g}"))
    return rows, 0 if report.supported else 1


def _cmd_dynamics(args, cfg) -> tuple[Rows, int]:
    from .equilibrium import best_response_dynamics

    sr = _resolve_rate(args, cfg)
    rule = _parse_rule(_fields(args, cfg, "rule"))
    init = _parse_profile(_parse_kv(args.init, "profile")) if args.init else None
    result = best_response_dynamics(sr, rule, args.horizon, init)
    rows: Rows = [
        ("converged", "yes" if result.converged else "no", f"sweeps={len(result.history)}"),
        ("max_change", result.max_change, ""),
        ("max_residual", result.max_residual, "over swept agents"),
    ]
    rows.extend((f"x_{i}", float(result.profile.at(i)), "") for i in range(args.horizon))
    return rows, 0 if result.converged else 1


def _cmd_region(args, cfg) -> tuple[Rows, int]:
    if args.points < 1:
        raise UsageError(f"--points must be >= 1, got {args.points}")
    if args.c_max is not None and not 0.0 < args.c_max < math.inf:
        raise UsageError(f"--c-max must be finite and > 0, got {args.c_max!r}")
    from .optima import region_sweep, tail_limit

    sr = _resolve_rate(args, cfg)
    # both take the mode's value string and convert it
    c_max = tail_limit(sr, args.mode) if args.c_max is None else args.c_max
    step = c_max / (args.points + 1)
    grid = [step * (j + 1) for j in range(args.points)]
    rows: Rows = [("c", "diagonal", "lower", "upper")]
    for row in region_sweep(sr, grid, args.mode):
        bounds = ("" if v is None else v for v in (row.lower, row.upper))
        rows.append((row.c, row.c, *bounds))  # the diagonal x0 = c
    return rows, 0


def _cmd_simulate(args, cfg) -> tuple[Rows, int]:
    from .simulate import SimulationConfig, summarize

    # the one command that needs numpy: without it, an error line and
    # exit 2, not a traceback and the exit status of a negative verdict
    try:
        import numpy  # noqa: F401
    except ImportError as exc:
        raise UsageError(f"simulate needs numpy: {exc}") from None
    sr = _resolve_rate(args, cfg)
    rule = _parse_rule(_fields(args, cfg, "rule"))
    profile = _parse_profile(_fields(args, cfg, "profile"))
    config = SimulationConfig(
        episodes=args.episodes,
        seed=args.seed,
        max_chain_length=args.max_chain_length,
        shards=args.shards,
        payoff_horizon=args.payoff_horizon,
    )
    summary = summarize(sr, profile, rule, config)
    rows: Rows = [
        ("episodes", str(summary.episodes), ""),
        ("discarded", str(summary.discarded), ""),
        ("terminal_index", summary.terminal_index.mean, f"se={summary.terminal_index.se:.3g}"),
        ("total_value", summary.total_value.mean, f"se={summary.total_value.se:.3g}"),
        ("total_investment", summary.total_investment.mean, f"se={summary.total_investment.se:.3g}"),
        ("welfare", summary.welfare.mean, f"se={summary.welfare.se:.3g}"),
    ]
    rows.extend(
        (f"payoff_{pay.agent}", pay.mean, f"se={pay.se:.3g} reached={pay.reached}")
        for pay in summary.payoffs
    )
    if args.histogram:
        rows.extend((f"chain_length_{k}", str(n), "") for k, n in enumerate(summary.histogram))
    return rows, 0


def _cmd_rule_print(args, cfg) -> tuple[Rows, int]:
    if args.rows < 1:
        raise UsageError(f"--rows must be >= 1, got {args.rows}")
    rule = _parse_rule(_fields(args, cfg, "rule"))
    if args.format == "table":  # rows grow by one entry each: tab-separated, not aligned
        args.format = "tsv"
    return [tuple(float(v) for v in rule.row(k)) for k in range(args.rows)], 0


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", default=None, help="config file (flags override it)")
    p.add_argument("--format", choices=["table", "csv", "tsv"], default="table")
    p.add_argument("--output", default=None, help="output path (default stdout)")


# every command that resolves a rate: the output flags plus the rate flags
def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rate", choices=["sqrt_ratio", "scaled_sqrt_ratio"], default=None,
                   help="success-rate family (default sqrt_ratio)")
    p.add_argument("--epsilon", type=float, default=None, help="cap parameter")
    _add_output(p)
    p.add_argument("--no-validate", action="store_true",
                   help="skip the advisory rate validation printout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqinvest",
        description="equilibria and optimal reward rules for sequential investment chains",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optima", help="solve and verify the four optimum programs")
    _add_common(p)
    p.set_defaults(handler=_cmd_optima)

    p = sub.add_parser("verify", help="check whether a rule supports a profile")
    _add_common(p)
    p.add_argument("--rule", help='e.g. "kind=equal_split" or "kind=fixed_fraction,alpha=0.4"')
    p.add_argument("--profile", help='e.g. "prefix=[0.0995],tail=0.0264"')
    p.add_argument("--self-financed", action="store_true")
    # None stands for equilibrium.TOL_EQ, read by the handler: the parser
    # of every command would otherwise load the equilibrium layer
    p.add_argument("--tol-eq", type=float, default=None, dest="tol_eq",
                   help="best-response residual tolerance")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("synthesize", help="build a rule supporting (x0, c, c, ...)")
    _add_common(p)
    p.add_argument("--x0", type=float, required=True)
    p.add_argument("--c", type=float, required=True, help="tail investment")
    p.add_argument("--gamma", type=float, default=0.0, help="per-agent floor")
    p.add_argument("--self-financed", action="store_true")
    p.set_defaults(handler=_cmd_synthesize)

    p = sub.add_parser("dynamics", help="truncated best-response dynamics")
    _add_common(p)
    p.add_argument("--rule", required=False)
    p.add_argument("--horizon", type=int, default=8)
    p.add_argument("--init", default=None, help="initial profile (default all zeros)")
    p.set_defaults(handler=_cmd_dynamics)

    p = sub.add_parser("region", help="near-constant support-region boundary curves")
    _add_common(p)
    # the values of equilibrium.Mode, written out for the same reason
    p.add_argument("--mode", choices=["unconstrained", "self_financed"], default="unconstrained")
    p.add_argument("--points", type=int, default=256)
    p.add_argument("--c-max", type=float, default=None, dest="c_max")
    p.set_defaults(handler=_cmd_region)

    p = sub.add_parser("simulate", help="seeded Monte Carlo of the chain")
    _add_common(p)
    p.add_argument("--rule", required=False)
    p.add_argument("--profile", required=False)
    p.add_argument("--episodes", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shards", type=int, default=1)
    p.add_argument("--max-chain-length", type=int, default=10_000, dest="max_chain_length",
                   help="thinning steps before the exact geometric closure")
    p.add_argument("--payoff-horizon", type=int, default=8, dest="payoff_horizon")
    p.add_argument("--histogram", action="store_true")
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("rule", help="inspect reward rules")
    rule_sub = p.add_subparsers(dest="rule_command", required=True)
    q = rule_sub.add_parser("print", help="emit the first K rows of a rule")
    _add_output(q)
    q.add_argument("--rule", required=False)
    q.add_argument("--rows", type=int, default=8)
    q.set_defaults(handler=_cmd_rule_print)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rows, code = args.handler(args, _load_config(args.config))
        with _output(args.output) as out:
            try:
                _emit(rows, args.format, out)
                out.flush()
            except BrokenPipeError:
                # the reader stopped early (``| head``): a complete run all
                # the same, and with stdout on devnull the flush at exit
                # cannot raise again
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return code
    except SeqInvestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
