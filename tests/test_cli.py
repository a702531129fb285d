"""Exit statuses, output formats, and config handling of the CLI."""

import argparse
import io
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import seqinvest
from seqinvest import BracketError, Mode, equilibrium, region_sweep, tail_limit
from seqinvest.cli import _emit, build_parser, main
from seqinvest.equilibrium import TOL_EQ


def run(capsys, *argv):
    # ``rule print`` resolves no rate, so it has no ``--no-validate`` flag
    quiet = [] if argv[:2] == ("rule", "print") else ["--no-validate"]
    code = main([*argv, *quiet])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOptima:
    def test_reports_and_verifies(self, capsys, oracle):
        code, out, _ = run(capsys, "optima")
        assert code == 0
        assert "c_socially_optimal" in out
        assert "verified=yes" in out
        line = next(l for l in out.splitlines() if l.startswith("c_socially_optimal"))
        assert float(line.split()[1]) == pytest.approx(oracle.c_star, abs=1e-6)

    def test_scaled_rate(self, capsys):
        code, out, _ = run(capsys, "optima", "--rate", "scaled_sqrt_ratio", "--epsilon", "0.5")
        assert code == 0
        assert out.count("verified=yes") == 3


class TestVerify:
    def test_supported_exit_zero(self, capsys, oracle):
        code, out, _ = run(
            capsys,
            "verify",
            "--rule", "kind=equal_split",
            "--profile", f"tail={oracle.c_star}",
        )
        assert code == 0
        assert "Supported" in out

    def test_unsupported_exit_one(self, capsys, oracle):
        code, out, _ = run(
            capsys,
            "verify",
            "--rule", "kind=equal_split",
            "--profile", f"tail={oracle.c_fb}",
        )
        assert code == 1
        assert "NotSupported" in out

    def test_self_financed_flag(self, capsys, oracle):
        alpha = 0.93771538144173721
        code, _, _ = run(
            capsys,
            "verify",
            "--rule", f"kind=fixed_fraction_floor,alpha={alpha},gamma={oracle.c_s}",
            "--profile", f"prefix=[{oracle.x0_s}],tail={oracle.c_s}",
            "--self-financed",
        )
        assert code == 0

    def test_tolerance_flag_loosens_verdict(self, capsys):
        args = ("verify", "--rule", "kind=equal_split", "--profile", "tail=0.0883")
        strict, _, _ = run(capsys, *args)
        loose, _, _ = run(capsys, *args, "--tol-eq", "1e-4")
        assert strict == 1  # a hand-rounded profile misses 1e-8
        assert loose == 0

    def test_malformed_profile_exit_two(self, capsys):
        code, _, err = run(capsys, "verify", "--rule", "kind=equal_split", "--profile", "oops")
        assert code == 2
        assert "error:" in err

    def test_unknown_rule_kind_exit_two(self, capsys):
        code, _, err = run(capsys, "verify", "--rule", "kind=mystery", "--profile", "tail=0.1")
        assert code == 2
        assert "mystery" in err


class TestSynthesize:
    def test_infeasible_prints_bounds_and_exits_one(self, capsys, oracle):
        code, out, _ = run(
            capsys,
            "synthesize",
            "--x0", str(oracle.ex5_x0),
            "--c", str(oracle.ex5_cbar),
        )
        assert code == 1
        assert "Infeasible" in out
        assert "lower_bound" in out and "upper_bound" in out

    def test_feasible_builds_verified_rule(self, capsys, oracle):
        code, out, _ = run(
            capsys,
            "synthesize",
            "--x0", str(oracle.c_star),
            "--c", str(oracle.c_star),
        )
        assert code == 0
        assert "Supported" in out


class TestDynamics:
    def test_equal_split_row_values(self, capsys, oracle):
        code, out, _ = run(
            capsys, "dynamics", "--rule", "kind=equal_split", "--horizon", "3"
        )
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("x_2"))
        assert float(line.split()[1]) == pytest.approx(oracle.c_star, abs=1e-8)

    def test_moving_confirmation_exits_one(self, capsys, monkeypatch, drifting):
        # the confirming pass moves: a negative verdict, not an error
        monkeypatch.setattr("seqinvest.cli._resolve_rate", lambda args, cfg: drifting)
        code, out, _ = run(
            capsys, "dynamics", "--rule", "kind=fixed_fraction,alpha=0.4", "--horizon", "3"
        )
        assert code == 1
        assert out.splitlines()[0].split() == ["converged", "no", "sweeps=2"]

    def test_initial_profile_flag(self, capsys, oracle):
        code, out, _ = run(
            capsys, "dynamics", "--rule", "kind=equal_split", "--horizon", "3",
            "--init", "prefix=[0.2],tail=0.1",
        )
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("x_0"))
        assert float(line.split()[1]) == pytest.approx(oracle.c_star, abs=1e-8)

    def test_init_past_horizon_stays_frozen(self, capsys):
        code, out, _ = run(
            capsys, "dynamics", "--rule", "kind=fixed_fraction,alpha=0.4", "--horizon", "1",
            "--init", "prefix=[0.01,0.3,0.4],tail=0.05",
        )
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("x_0"))
        # best response to the successors (0.3, 0.4, 0.05, ...), not to the tail
        assert float(line.split()[1]) == pytest.approx(0.1272200199, abs=1e-9)


class TestMachineFormats:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(
        values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4),
        fmt=st.sampled_from(["csv", "tsv"]),
    )
    @example(values=[-0.0, 5e-324, -2.225073858507201e-308, 1.7976931348623157e308], fmt="csv")
    def test_floats_parse_back_to_the_same_bits(self, values, fmt):
        out = io.StringIO()
        _emit([("name", *values)], fmt, out)
        name, *cells = out.getvalue().rstrip("\n").split({"csv": ",", "tsv": "\t"}[fmt])
        assert name == "name"
        bits = [struct.pack("<d", v) for v in values]
        assert [struct.pack("<d", float(cell)) for cell in cells] == bits
        # the shortest repr, not merely a round-tripping one
        assert all(repr(float(cell)) == cell for cell in cells)


class TestRegion:
    def test_csv_round_trips_bit_exactly(self, capsys, sr):
        code, out, _ = run(capsys, "region", "--points", "16", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "c,diagonal,lower,upper"
        step = tail_limit(sr, Mode.UNCONSTRAINED) / 17
        want = region_sweep(sr, [step * (j + 1) for j in range(16)])
        assert len(lines) == 1 + len(want)
        for line, row in zip(lines[1:], want):
            for cell in line.split(","):
                if cell:
                    assert repr(float(cell)) == cell
            cells = [float(cell) if cell else None for cell in line.split(",")]
            assert cells == [row.c, row.c, row.lower, row.upper]  # the diagonal x0 = c

    def test_bad_points_exit_two(self, capsys):
        code, _, err = run(capsys, "region", "--points", "0")
        assert code == 2
        assert "points" in err

    def test_self_financed_mode(self, capsys):
        code, out, _ = run(
            capsys, "region", "--mode", "self_financed", "--points", "8", "--format", "tsv"
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 9

    def test_default_grid_ends_at_the_tail_limit(self, capsys, oracle):
        # the grid is c_max / 17 * j for j = 1..16, with c_max = 1/4 to 1e-15
        code, out, _ = run(
            capsys, "region", "--mode", "self_financed", "--points", "16", "--format", "csv"
        )
        assert code == 0
        first = float(out.splitlines()[1].split(",")[0])
        assert first == pytest.approx(oracle.c_max_sf / 17, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("c_max", ["nan", "inf", "0", "-1"])
    def test_bad_c_max_exit_two(self, capsys, c_max):
        code, out, err = run(capsys, "region", "--c-max", c_max)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --c-max must be finite and > 0")


class TestSimulate:
    def test_deterministic_output(self, capsys, oracle):
        args = (
            "simulate",
            "--rule", "kind=equal_split",
            "--profile", f"tail={oracle.c_star}",
            "--episodes", "20000",
            "--seed", "4",
        )
        code_a, out_a, _ = run(capsys, *args)
        code_b, out_b, _ = run(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_capped_chains_closed_without_discards(self, capsys):
        # p(1e5) ~ 0.9968: most chains outlive 50 thinning steps
        code, out, _ = run(
            capsys,
            "simulate",
            "--rule", "kind=equal_split",
            "--profile", "tail=1e5",
            "--max-chain-length", "50",
            "--episodes", "1000",
            "--seed", "3",
        )
        assert code == 0
        rows = {line.split()[0]: line.split()[1:] for line in out.splitlines() if line.strip()}
        assert rows["discarded"] == ["0"]
        assert rows["episodes"] == ["1000"]

    def test_histogram_flag(self, capsys, oracle):
        code, out, _ = run(
            capsys,
            "simulate",
            "--rule", "kind=equal_split",
            "--profile", f"tail={oracle.c_star}",
            "--episodes", "5000",
            "--seed", "4",
            "--histogram",
        )
        assert code == 0
        assert "chain_length_0" in out


class TestRulePrint:
    def test_jackpot_rows(self, capsys):
        code, out, _ = run(capsys, "rule", "print", "--rule", "kind=jackpot", "--rows", "4")
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()]
        assert rows[3] == ["1.0", "0.0", "3.0", "0.0"]

    @pytest.mark.parametrize("rows", ["0", "-1"])
    def test_bad_rows_exit_two(self, capsys, rows):
        code, out, err = run(capsys, "rule", "print", "--rule", "kind=jackpot", "--rows", rows)
        assert code == 2
        assert out == ""
        assert err.startswith("error: --rows must be >= 1")


class TestConfigFile:
    def test_sections_supply_defaults(self, capsys, tmp_path, oracle):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "[rate]\nfamily = sqrt_ratio\nepsilon = 0\n"
            f"[profile]\nprefix = []\ntail = {oracle.c_star}\n"
            "[rule]\nkind = equal_split\n"
        )
        code, out, _ = run(capsys, "verify", "--config", str(cfg))
        assert code == 0
        assert "Supported" in out

    def test_flags_override_config(self, capsys, tmp_path, oracle):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[profile]\nprefix = []\ntail = {oracle.c_fb}\n")
        code, _, _ = run(
            capsys,
            "verify",
            "--config", str(cfg),
            "--rule", "kind=equal_split",
            "--profile", f"tail={oracle.c_star}",
        )
        assert code == 0  # flag profile (supported) wins over config (not)

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[rate]\nfamily = sqrt_ratio\ncolour = blue\n")
        code, _, err = run(capsys, "optima", "--config", str(cfg))
        assert code == 2
        assert "colour" in err

    def test_missing_file_rejected(self, capsys):
        code, _, err = run(capsys, "optima", "--config", "/nonexistent/path.cfg")
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("text, message", [
        ("[profile]\ntail = 0.0883, prefix=[0.5]\n[rule]\nkind = equal_split\n",
         "error: profile tail must be a number, got '0.0883, prefix=[0.5]'"),
        ("[rule]\nkind = fixed_fraction, alpha=0.3\n[profile]\ntail = 0.0883\n",
         "error: unknown rule kind 'fixed_fraction, alpha=0.3'"),
        ("[profile]\ntail = 0.0883\ncolour = blue\n[rule]\nkind = equal_split\n",
         "error: unknown profile key 'colour'"),
    ])
    def test_sections_read_as_fields(self, capsys, tmp_path, text, message):
        # a section used to be joined into "k=v, k=v" text and split again,
        # so a comma in a value smuggled in a second key
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code, out, err = run(capsys, "verify", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith(message)

    def test_default_section_and_interpolation(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[DEFAULT]\nkind = jackpot\n[rule]\n")
        code, out, _ = run(capsys, "rule", "print", "--config", str(cfg), "--rows", "2")
        assert (code, out) == (0, "1.0\n2.0\t0.0\n")
        cfg.write_text("[rule]\nkind = equal%%split\n")
        code, out, err = run(capsys, "rule", "print", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith("error: unknown rule kind 'equal%split'")

    def test_bad_interpolation_is_a_usage_error(self, capsys, tmp_path):
        # used to escape as a traceback (exit 1) from the section a command
        # read, and to pass unnoticed in any other section
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[rate]\nfamily = sqrt%ratio\n[rule]\nkind = jackpot\n")
        for argv in (["optima"], ["rule", "print"]):
            code, out, err = run(capsys, *argv, "--config", str(cfg))
            assert (code, out) == (2, "")
            assert err.startswith("error: malformed config file: '%' must be followed by")


class TestMalformedInput:
    """Malformed numbers and unwritable output are usage errors: exit 2, no traceback."""

    def assert_usage_error(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert err.startswith("error:")
        assert out == ""

    def test_non_numeric_rule_parameter(self, capsys):
        self.assert_usage_error(
            capsys, "verify", "--rule", "kind=fixed_fraction,alpha=abc", "--profile", "tail=0.1"
        )

    def test_nan_rule_parameter(self, capsys):
        self.assert_usage_error(
            capsys, "verify", "--rule", "kind=next_step_bonus,beta=nan,gamma=0.1", "--profile", "tail=0.1"
        )

    def test_non_numeric_profile_tail(self, capsys):
        self.assert_usage_error(
            capsys, "verify", "--rule", "kind=equal_split", "--profile", "tail=zz"
        )

    def test_non_numeric_profile_prefix_entry(self, capsys):
        self.assert_usage_error(
            capsys, "verify", "--rule", "kind=equal_split", "--profile", "prefix=[0.1, x],tail=0.1"
        )

    def test_non_numeric_config_epsilon(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[rate]\nepsilon = half\n")
        self.assert_usage_error(capsys, "optima", "--config", str(cfg))

    def test_non_numeric_config_domain_cap(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[rate]\ndomain_cap = big\n")
        self.assert_usage_error(capsys, "optima", "--config", str(cfg))

    def test_nan_tolerance(self, capsys):
        # a NaN tolerance used to pass every residual check: verdict Supported
        self.assert_usage_error(
            capsys, "verify", "--rule", "kind=equal_split", "--profile", "tail=0.01", "--tol-eq", "nan"
        )

    def test_unknown_rule_parameter(self, capsys):
        # used to verify the plain equal split: exit 0, Supported
        self.assert_usage_error(
            capsys, "verify", "--rule", "kind=equal_split,alpha=0.3,bogus=7",
            "--profile", "tail=0.0883", "--tol-eq", "1e-4",
        )

    @pytest.mark.parametrize("rule, profile", [
        ("kind=equal_split", "tail=0.0883,prefix=[0.1],prefix=[0.2]"),
        ("kind=equal_split", "tail=0.0883,tail=0.1"),
        ("kind=jackpot,kind=equal_split", "tail=0.0883"),
    ])
    def test_repeated_key(self, capsys, rule, profile):
        # the last of two repeated keys used to win
        self.assert_usage_error(capsys, "verify", "--rule", rule, "--profile", profile)

    @pytest.mark.parametrize("text", [
        "[rate]\nfamily = sqrt_ratio\nfamily = scaled_sqrt_ratio\n",
        "[rule]\nkind = equal_split\n[rule]\nkind = jackpot\n",
        "family = sqrt_ratio\n",
    ])
    def test_malformed_config_file(self, capsys, tmp_path, text):
        # configparser's own errors used to escape as a traceback, exit 1
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code, out, err = run(capsys, "optima", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith("error: malformed config file") and err.count("\n") == 1

    @pytest.mark.parametrize("epsilon", ["0.5", "nan", "1", "-0.5"])
    def test_epsilon_with_sqrt_ratio(self, capsys, tmp_path, epsilon):
        # sqrt_ratio has cap 0; an epsilon given with it used to be dropped,
        # printing the uncapped optima with exit 0
        self.assert_usage_error(capsys, "optima", "--epsilon", epsilon)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[rate]\nepsilon = {epsilon}\n")
        self.assert_usage_error(capsys, "region", "--points", "4", "--config", str(cfg))

    @pytest.mark.parametrize("cap", ["inf", "-inf", "nan"])
    def test_non_finite_domain_cap(self, capsys, tmp_path, cap):
        # an infinite cap used to pass into validation's grid and every inversion
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"[rate]\ndomain_cap = {cap}\n")
        self.assert_usage_error(capsys, "optima", "--config", str(cfg))

    def test_custom_rate_family_in_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[rate]\nfamily = custom\n")
        code, out, err = run(capsys, "optima", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err.startswith("error: unknown rate family 'custom'")

    @pytest.mark.parametrize("flags", [
        ["--rate", "scaled_sqrt_ratio"], ["--epsilon", "0.5"], ["--no-validate"],
    ])
    def test_rule_print_takes_no_rate_flags(self, capsys, flags):
        # rule print resolves no rate; the flags used to be accepted and ignored
        with pytest.raises(SystemExit) as exc:
            main(["rule", "print", "--rule", "kind=jackpot", *flags])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_dynamics_takes_no_sweep_budget(self, capsys):
        # dynamics runs backward induction and one confirming pass; there
        # is no pass budget to set
        with pytest.raises(SystemExit) as exc:
            main(["dynamics", "--rule", "kind=equal_split", "--sweeps", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["dynamics", "--rule", "kind=equal_split", "--horizon", "0"],
        ["dynamics", "--rule", "kind=equal_split", "--horizon", "-1"],
        ["synthesize", "--x0", "0.06", "--c", "0.12", "--gamma", "nan"],
        ["synthesize", "--x0", "0.06", "--c", "0.12", "--gamma", "inf"],
        ["simulate", "--rule", "kind=equal_split", "--profile", "tail=0.0883",
         "--episodes", "10", "--seed", "-1"],
    ])
    def test_out_of_range_argument(self, capsys, argv):
        # each is a usage error; the gamma and seed cases used to give a
        # negative verdict (exit 1), or numpy's ValueError
        self.assert_usage_error(capsys, *argv)

    def test_unwritable_output(self, capsys, tmp_path):
        self.assert_usage_error(capsys, "optima", "--output", str(tmp_path / "missing" / "x"))

    def test_failed_command_writes_no_file(self, capsys, tmp_path, monkeypatch):
        def fail(sr):
            raise BracketError("no sign change")

        monkeypatch.setattr("seqinvest.optima.socially_optimal", fail)
        path = tmp_path / "rows.txt"
        self.assert_usage_error(capsys, "optima", "--output", str(path))
        assert not path.exists()

    def test_negative_verdict_still_writes_its_rows(self, capsys, tmp_path):
        path = tmp_path / "rows.txt"
        code, out, _ = run(
            capsys, "verify", "--rule", "kind=equal_split", "--profile", "tail=0.1111",
            "--output", str(path),
        )
        assert (code, out) == (1, "")
        assert path.read_text().startswith("verdict       NotSupported\n")

    def test_output_file_receives_the_table(self, capsys, tmp_path):
        path = tmp_path / "rows.tsv"
        code, out, _ = run(
            capsys, "rule", "print", "--rule", "kind=jackpot", "--rows", "3", "--output", str(path)
        )
        assert code == 0
        assert out == ""
        assert path.read_text() == "1.0\n2.0\t0.0\n1.0\t2.0\t0.0\n"


class TestValidationPrintout:
    def test_advisory_line_on_stderr(self, capsys):
        code = main(["optima"])
        captured = capsys.readouterr()
        assert code == 0
        assert "validation passed" in captured.err


README_COMMANDS = {
    "optima": ["optima"],
    "verify": ["verify", "--rule", "kind=equal_split", "--profile", "tail=0.0883",
               "--tol-eq", "1e-4"],
    "verify_self_financed": [
        "verify", "--rule", "kind=fixed_fraction_floor,alpha=0.9377,gamma=0.0723",
        "--profile", "prefix=[0.0816],tail=0.0723", "--self-financed", "--tol-eq", "1e-3",
    ],
    "synthesize": ["synthesize", "--x0", "0.06", "--c", "0.12", "--gamma", "0"],
    "dynamics": ["dynamics", "--rule", "kind=jackpot", "--rate", "scaled_sqrt_ratio",
                 "--epsilon", "0.7071", "--horizon", "12"],
    "region": ["region", "--mode", "self_financed", "--points", "256", "--format", "csv"],
    "rule_print": ["rule", "print", "--rule", "kind=jackpot", "--rows", "8"],
}


SIMULATE = ["simulate", "--rule", "kind=equal_split", "--profile", "tail=0.0883",
            "--episodes", "10", "--no-validate"]

# Runs each argv of ``sys.argv[1]`` through ``main`` in a process where any
# ``import numpy`` fails, and prints the exit codes and stdouts as JSON.
_BLOCKED_RUNNER = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from seqinvest.cli import main
results = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except ImportError:
            code = "ImportError"
    results.append([code, out.getvalue()])
print(json.dumps(results))
"""


def _env() -> dict[str, str]:
    # the environment of a fresh process that imports this checkout
    src = str(Path(seqinvest.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def _python(*args: str) -> str:
    return subprocess.run([sys.executable, *args], env=_env(), capture_output=True,
                          text=True, check=True, timeout=120).stdout


@pytest.fixture(scope="module")
def numpy_blocked_runs():
    argvs = [*README_COMMANDS.values(), SIMULATE]
    runs = json.loads(_python("-c", _BLOCKED_RUNNER, json.dumps(argvs)))
    return dict(zip([*README_COMMANDS, "simulate"], map(tuple, runs)))


class TestNumpyFreeStartup:
    """Only ``simulate`` needs numpy; every other command runs without it."""

    def test_import_leaves_numpy_unloaded(self):
        out = _python("-c", "import sys, seqinvest.cli; print(*(name in sys.modules for name in "
                      "('numpy', 'seqinvest.simulate', 'seqinvest.optima')))")
        # the handlers that need them import simulate and optima
        assert out.split() == ["False", "False", "False"]

    @pytest.mark.parametrize("name", README_COMMANDS)
    def test_commands_run_with_numpy_blocked(self, capsys, numpy_blocked_runs, name):
        code = main(README_COMMANDS[name])
        assert numpy_blocked_runs[name] == (code, capsys.readouterr().out)
        assert code in (0, 1) and numpy_blocked_runs[name][1]

    def test_simulate_still_needs_numpy(self, numpy_blocked_runs):
        # the control for the test above: the block does reach the engine
        assert numpy_blocked_runs["simulate"] == (2, "")

    def test_simulate_without_numpy_is_a_usage_error(self, monkeypatch, capsys):
        # it used to end in a ModuleNotFoundError traceback and exit 1, the
        # status of a negative verdict
        monkeypatch.setitem(sys.modules, "numpy", None)
        assert main(SIMULATE) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: simulate needs numpy: ") and err.count("\n") == 1


# Runs the argv ``sys.argv[1]`` through ``main`` in a fresh process and prints
# its exit code and the loaded ``seqinvest`` submodules and configparser.
_IMPORTS_RUNNER = """
import contextlib, io, json, sys
from seqinvest.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
loaded = [name.removeprefix("seqinvest.") for name in sys.modules
          if name.startswith("seqinvest.") or name == "configparser"]
print(json.dumps([code, sorted(loaded)]))
"""

_HEAVY = {"optima", "simulate", "configparser"}


class TestImportsPerCommand:
    """Each command loads the library modules it uses and no others."""

    @staticmethod
    def loaded(argv: list[str]) -> set[str]:
        code, modules = json.loads(_python("-c", _IMPORTS_RUNNER, json.dumps(argv)))
        assert code in (0, 1)
        return set(modules)

    @pytest.mark.parametrize("name", ["verify", "verify_self_financed", "synthesize", "dynamics"])
    def test_light_commands(self, name):
        loaded = self.loaded(README_COMMANDS[name])
        assert {"cli", "equilibrium", "rules", "rates"} <= loaded
        assert not loaded & _HEAVY

    @pytest.mark.parametrize("name", ["optima", "region"])
    def test_optimum_commands_skip_the_simulation(self, name):
        loaded = self.loaded(README_COMMANDS[name])
        assert loaded & _HEAVY == {"optima"}
        assert "equilibrium" in loaded

    def test_simulate_skips_the_optima(self):
        assert self.loaded(SIMULATE) & _HEAVY == {"simulate"}

    @pytest.mark.parametrize("argv", [README_COMMANDS["rule_print"], SIMULATE],
                             ids=["rule_print", "simulate"])
    def test_rule_print_and_simulate_skip_equilibrium_and_solvers(self, argv):
        loaded = self.loaded(argv)
        assert {"cli", "rules", "profiles", "rates"} <= loaded
        assert not loaded & {"equilibrium", "solvers", "optima"}

    def test_parser_literals_match_the_equilibrium_layer(self, capsys, monkeypatch):
        # the parser spells out the mode values and leaves the tolerance to
        # the handler, which would otherwise load the equilibrium layer
        parser = build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        mode = next(a for a in commands.choices["region"]._actions if a.dest == "mode")
        assert mode.choices == [m.value for m in Mode]
        assert Mode(mode.default) is Mode.UNCONSTRAINED
        assert parser.parse_args(["verify"]).tol_eq is None
        tols = []
        real = equilibrium.verify_equilibrium
        monkeypatch.setattr(equilibrium, "verify_equilibrium",
                            lambda *a, tol, **kw: tols.append(tol) or real(*a, tol=tol, **kw))
        argv = ["verify", "--rule", "kind=equal_split", "--profile", "tail=0.0883"]
        # 0.0883 rounds c* = 0.088302: outside TOL_EQ, inside 1e-4
        assert [run(capsys, *argv)[0], run(capsys, *argv, "--tol-eq", "1e-4")[0]] == [1, 0]
        assert tols == [TOL_EQ, 1e-4]

    def test_config_file_loads_configparser(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("[rule]\nkind = jackpot\n")
        assert self.loaded(["rule", "print", "--config", str(cfg)]) & _HEAVY == {"configparser"}


class TestClosedPipe:
    def test_reader_stopping_early_is_no_error(self):
        # ``| head -1``: the 320 kB of rows overflow the pipe, so a write
        # hits the closed read end; still exit 0, and nothing on stderr
        proc = subprocess.Popen(
            [sys.executable, "-m", "seqinvest.cli", "rule", "print",
             "--rule", "kind=equal_split", "--rows", "400"],
            env=_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        assert proc.stdout.readline().startswith("1.0")
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert "Traceback" not in err and err == ""
