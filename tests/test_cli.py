"""Exit statuses, output formats, and config handling of the CLI."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import seqinvest
from seqinvest import BracketError
from seqinvest.cli import main


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

    def test_nonconvergence_exit_one(self, capsys):
        code, out, _ = run(
            capsys,
            "dynamics",
            "--rule", "kind=jackpot",
            "--rate", "scaled_sqrt_ratio",
            "--epsilon", "0.7071067811865476",
            "--horizon", "8",
            "--sweeps", "1",
        )
        assert code == 1
        assert "converged     no" in out or "no" in out.splitlines()[0]

    def test_initial_profile_flag(self, capsys, oracle):
        code, out, _ = run(
            capsys, "dynamics", "--rule", "kind=equal_split", "--horizon", "3",
            "--init", "prefix=[0.2],tail=0.1",
        )
        assert code == 0
        line = next(l for l in out.splitlines() if l.startswith("x_0"))
        assert float(line.split()[1]) == pytest.approx(oracle.c_star, abs=1e-8)


class TestRegion:
    def test_csv_round_trips_bit_exactly(self, capsys):
        code, out, _ = run(capsys, "region", "--points", "16", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "c,diagonal,lower,upper"
        for line in lines[1:]:
            for cell in line.split(","):
                if cell:
                    assert repr(float(cell)) == cell

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

    @pytest.mark.parametrize("argv", [
        ["dynamics", "--rule", "kind=equal_split", "--sweeps", "0"],
        ["dynamics", "--rule", "kind=equal_split", "--sweeps", "-1"],
        ["synthesize", "--x0", "0.06", "--c", "0.12", "--gamma", "nan"],
        ["synthesize", "--x0", "0.06", "--c", "0.12", "--gamma", "inf"],
        ["simulate", "--rule", "kind=equal_split", "--profile", "tail=0.0883",
         "--episodes", "10", "--seed", "-1"],
    ])
    def test_out_of_range_argument(self, capsys, argv):
        # each used to give a negative verdict (exit 1), or numpy's ValueError
        self.assert_usage_error(capsys, *argv)

    def test_unwritable_output(self, capsys, tmp_path):
        self.assert_usage_error(capsys, "optima", "--output", str(tmp_path / "missing" / "x"))

    def test_failed_command_writes_no_file(self, capsys, tmp_path, monkeypatch):
        def fail(sr):
            raise BracketError("no sign change")

        monkeypatch.setattr("seqinvest.cli.socially_optimal", fail)
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


def _python(*args: str) -> str:
    src = str(Path(seqinvest.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, check=True, timeout=120).stdout


@pytest.fixture(scope="module")
def numpy_blocked_runs():
    argvs = [*README_COMMANDS.values(), SIMULATE]
    runs = json.loads(_python("-c", _BLOCKED_RUNNER, json.dumps(argvs)))
    return dict(zip([*README_COMMANDS, "simulate"], map(tuple, runs)))


class TestNumpyFreeStartup:
    """Only ``simulate`` needs numpy; every other command runs without it."""

    def test_import_leaves_numpy_unloaded(self):
        out = _python("-c", "import sys, seqinvest.cli; "
                      "print('numpy' in sys.modules, 'seqinvest.simulate' in sys.modules)")
        # the simulate module itself is still imported, only numpy is deferred
        assert out.split() == ["False", "True"]

    @pytest.mark.parametrize("name", README_COMMANDS)
    def test_commands_run_with_numpy_blocked(self, capsys, numpy_blocked_runs, name):
        code = main(README_COMMANDS[name])
        assert numpy_blocked_runs[name] == (code, capsys.readouterr().out)
        assert code in (0, 1) and numpy_blocked_runs[name][1]

    def test_simulate_still_needs_numpy(self, numpy_blocked_runs):
        # the control for the test above: the block does reach the engine
        assert numpy_blocked_runs["simulate"] == ("ImportError", "")
