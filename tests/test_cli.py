import contextlib
import ctypes
import io
import json
import os
import platform
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from effectgeom import RiskTable, cli, coords, eta

from .conftest import RISK_BOXES, random_tables

CLI = [sys.executable, "-m", "effectgeom"]


def run(*args, **kwargs):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, **kwargs)


class TestExitCodes:
    def test_usage_error_is_2(self):
        assert run("measures", "--p00", ".5").returncode == 2
        assert run("volume", "--no-such-flag").returncode == 2
        assert run("nonsense").returncode == 2

    def test_domain_error_is_3(self):
        p = run("measures", "--p00", "1.0", "--p01", ".5", "--p10", ".5", "--p11", ".5")
        assert p.returncode == 3
        assert "p00" in p.stderr

    def test_out_of_domain_conversion_is_3(self):
        p = run(
            "convert", "--from-system", "poisson", "--to-system", "prob",
            "--beta0", "-1.3093333199837622", "--beta1", "0.5328045304847658",
            "--alpha0", "1.0986122886681098", "--alpha1", "0",
        )
        assert p.returncode == 3
        assert "p11" in p.stderr and ">= 1" in p.stderr

    def test_missing_convert_flags_is_2(self):
        p = run("convert", "--from-system", "rr_op", "--to-system", "prob", "--alpha0", "0")
        assert p.returncode == 2
        assert "--alpha1" in p.stderr

    def test_convert_flags_of_another_system_are_2(self):
        # they used to be dropped silently
        out = _run_in_process(["convert", "--from-system", "prob", "--to-system", "rr_op",
                               *_TABLE, "--alpha0", "5", "--e1", "3"])
        assert out == {"code": 2, "stdout": "",
                       "stderr": "error: system 'prob' does not take flags: --alpha0, --e1\n"}

    @pytest.mark.parametrize("cells", [["--n00", "50"], ["--n01", "5", "--n11", "7"]])
    def test_power_n_with_a_cell_size_is_2(self, cells):
        # --n used to win silently over the per-cell sizes
        out = _run_in_process(["power", *_TABLE, "--n", "10", *cells, "--reps", "10"])
        named = ", ".join(cells[::2])
        assert out == {"code": 2, "stdout": "",
                       "stderr": f"error: --n sets every cell and clashes with {named}\n"}

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--system", "rr_eta", "--target", "or", "--seed", "5"], "--system, --target, --seed"),
            (["--n-samples", "10"], "--n-samples"),
            (["--seed", "0"], "--seed"),  # a default value given is still given
            (["--bounds", "0:1,0:1,0:1"], "--bounds"),
        ],
    )
    def test_volume_config_with_a_prior_flag_is_2(self, tmp_path, flags, named):
        # the file used to win silently over the flags
        (tmp_path / "run.cfg").write_text(_GOLDEN_CONFIG)
        out = _run_in_process(["volume", "--config", str(tmp_path / "run.cfg"), *flags])
        assert out == {"code": 2, "stdout": "", "stderr":
                       f"error: --config sets the prior and targets and clashes with {named}\n"}

    def test_volume_empty_bounds_is_2(self):
        # an empty --bounds used to run the default box
        out = _run_in_process(["volume", "--target", "rr", "--n-samples", "10", "--bounds", ""])
        assert out == {"code": 2, "stdout": "",
                       "stderr": "error: --bounds: bound '' is not of the form low:high\n"}

    def test_success_is_0(self):
        assert run("feasible", "--p00", ".5", "--p10", ".5", "--p01", ".5", "--measure", "rr").returncode == 0

    def test_interrupt_is_130_with_one_line(self, monkeypatch):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cmd_measures", interrupted)
        assert _run_in_process(["measures", *_TABLE]) == {
            "code": 130, "stdout": "", "stderr": "interrupted\n"}


_TABLE = ["--p00", ".2", "--p01", ".5", "--p10", ".4", "--p11", ".7"]


class TestErrorContract:
    """User input exits 2 (usage or configuration) or 3 (domain), never 4."""

    @pytest.mark.parametrize(
        "argv, env, code",
        [
            (["volume", "--target", "rr", "--n-samples", "10", "--workers", "0"], {}, 3),
            # under the suite's RuntimeWarning filter an unchecked overflowing
            # box width would exit 4
            (["volume", "--system", "rr_op", "--target", "rr", "--n-samples", "10",
              "--bounds=-1e308:1e308,0:1,0:1"], {"PYTHONWARNINGS": "error::RuntimeWarning"}, 3),
            (["power", *_TABLE, "--n", "10", "--reps", "10", "--seed", "-1"], {}, 3),
            (["power", *_TABLE, "--n", "10", "--reps", "10", "--alpha", "1e-300"], {}, 3),
            (["power", *_TABLE, "--n", "100000000000000000000", "--reps", "10"], {}, 3),
            (["volume", "--config", "{tmp}/missing.cfg"], {}, 2),
            (["volume", "--config", "{tmp}"], {}, 2),
            (["volume", "--config", "{tmp}/latin1.cfg"], {}, 2),
            # counts above mc.MAX_COUNT are refused before any chunk is laid out
            (["volume", "--target", "rr", "--n-samples", "100000000000000000000"], {}, 3),
            (["power", *_TABLE, "--n", "10", "--reps", "100000000000000000000"], {}, 3),
            # a setting or target given twice is refused, not overridden or run twice
            (["volume", "--config", "{tmp}/seed_twice.cfg"], {}, 2),
            (["volume", "--config", "{tmp}/target_twice.cfg"], {}, 2),
            (["volume", "--target", "rr", "--target", "rr", "--n-samples", "10"], {}, 2),
        ],
    )
    def test_exit_codes(self, tmp_path, argv, env, code):
        (tmp_path / "latin1.cfg").write_bytes(b"system = prob\n# caf\xe9\n")
        (tmp_path / "seed_twice.cfg").write_text(
            "system = prob\nseed = 1\nseed = 2\nn_samples = 10\n[target rr]\n")
        (tmp_path / "target_twice.cfg").write_text(
            "system = prob\nseed = 1\nn_samples = 10\n[target rr]\n[target RR]\n")
        argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
        p = run(*argv, env={**os.environ, **env})
        assert p.returncode == code, p.stderr
        assert p.stderr.startswith("error: ")

    @pytest.mark.parametrize(
        "head, flag, value",
        [
            # argparse alone reads an exponent-notation value as a flag
            (["convert", "--from-system", "rr_eta", "--to-system", "prob", "--alpha1", "0",
              "--e0", "0.2", "--e1", "0.1"], "--alpha0", "-1e-3"),
            (["volume", "--system", "rr_eta", "--target", "rr", "--n-samples", "100"],
             "--bounds", "-1.5:0,-1:1,-1:1"),
        ],
        ids=["convert", "volume"],
    )
    def test_value_starting_with_minus_joins_its_flag(self, head, flag, value):
        # a value that starts with "-" and a digit or "." reads as --flag=value
        out = _run_in_process([*head, flag, value])
        assert out["code"] == 0, out["stderr"]
        assert out == _run_in_process([*head, f"{flag}={value}"])

    @pytest.mark.parametrize("value", ["-inf", "-nan"])
    def test_non_numeric_value_starting_with_minus_stays_a_flag(self, value):
        argv = ["convert", "--from-system", "rr_eta", "--to-system", "prob", "--alpha0", value,
                "--alpha1", "0", "--e0", "0.2", "--e1", "0.1"]
        with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)
        assert exc.value.code == 2

    def test_rr_eta_keeps_both_roots_just_above_the_floor(self):
        # at relative risk 1e7 each stratum's level is 1e-6 above the floor;
        # the stratum's two roots differ by under 1e-9 in p00 and both count
        out = _run_in_process([
            "convert", "--from-system", "rr_eta", "--to-system", "prob",
            "--alpha0", "16.11809565095832", "--alpha1", "0",
            "--e0", "2.858483749309706", "--e1", "0", "--format", "plain",
        ])
        assert out["code"] == 0, out["stderr"]
        lines = out["stdout"].splitlines()
        assert lines[0] == "rr_eta -> prob: 4 solution(s)" and len(lines) == 5

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_fuzzed_argv_never_exits_4(self, data):
        command = data.draw(st.sampled_from(sorted(_VALID)))
        argv = [command, *_VALID[command]]  # later flags override these
        for flag in data.draw(st.lists(st.sampled_from(_COMMAND_FLAGS[command]), max_size=4)):
            argv += [flag, data.draw(st.sampled_from(_FLAGS[flag]))]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse: usage errors and --help
                code = exc.code
        assert code in (0, 2, 3), (argv, err.getvalue())


# The argv fuzz starts from a valid call of each command and adds flags drawn
# from these values.  Sample counts stay small so that every accepted run is
# quick, and worker counts stay at most 1 so that no pool starts.
_VALID = {
    "measures": _TABLE,
    "feasible": ["--p00", ".2", "--p10", ".4", "--p01", ".5", "--measure", "rr"],
    "volume": ["--target", "rr", "--n-samples", "5"],
    "power": [*_TABLE, "--n", "5", "--reps", "5"],
    "convert": ["--from-system", "rr_eta", "--to-system", "prob",
                "--alpha0", "0", "--alpha1", "0", "--e0", "0", "--e1", "0"],
}
_TABLE_FLAGS = ("--p00", "--p01", "--p10", "--p11", "--format")
_COMMAND_FLAGS = {
    "measures": _TABLE_FLAGS,
    "feasible": (*_TABLE_FLAGS, "--measure"),
    "volume": ("--config", "--system", "--target", "--n-samples", "--seed", "--bounds",
               "--workers", "--format"),
    "power": (*_TABLE_FLAGS, "--n", "--n00", "--n01", "--n10", "--n11", "--alpha", "--reps",
              "--seed", "--workers"),
    "convert": (*_TABLE_FLAGS, "--from-system", "--to-system", "--beta0", "--beta1",
                "--alpha0", "--alpha1", "--gamma0", "--gamma1", "--b0", "--b1", "--a0",
                "--a1", "--e0", "--e1"),
}
_COUNTS = ("-3", "0", "1", "5", "x", "2.5", "")
_REALS = ("-1", "0", "1e-300", "0.3", "0.999999999999999", "1", "1.5",
          "nan", "inf", "-inf", "1e308", "-1e308", "x")
_SYSTEMS = ("prob", "poisson", "rr_op", "logistic", "rr_eta", "bogus")
_FLAGS = {
    **{f"--{f}": _REALS for f in ("p00", "p01", "p10", "p11", "alpha", "beta0", "beta1",
                                 "alpha0", "alpha1", "gamma0", "gamma1", "b0", "b1",
                                 "a0", "a1", "e0", "e1")},
    **{f"--{f}": (*_COUNTS, "100000000000000000000") for f in ("n", "n00", "n01", "n10", "n11")},
    "--n-samples": _COUNTS,
    "--reps": _COUNTS,
    "--seed": ("-1", "0", "7", "18446744073709551616", "x"),
    "--workers": ("-1", "0", "1", "x"),
    "--system": _SYSTEMS,
    "--from-system": _SYSTEMS,
    "--to-system": _SYSTEMS,
    "--target": ("rd", "rr", "or", "hazard"),
    "--measure": ("rd", "rr", "or", "hazard"),
    "--format": ("plain", "csv", "json", "xml"),
    "--bounds": ("-1.5:0,-1:1,-1:1", "0:1,0:1,0:1", "700:800,0:1,0:1", "1:0,0:1,0:1",
                 "nan:1,0:1,0:1", "0:1", "a:b,c:d,e:f", "-1e308:1e308,0:1,0:1", ""),
    "--config": ("no-such-dir/run.cfg", "."),
}


class TestGoldenOutputs:
    def test_measures_plain(self):
        p = run("measures", "--p00", ".27", "--p01", ".81", "--p10", ".46", "--p11", ".99")
        assert p.returncode == 0
        assert p.stdout == (
            "rd(0) = 0.54\n"
            "rr(0) = 3\n"
            "or(0) = 11.5263\n"
            "op(0) = 1.57678\n"
            "eta(0) = 2.92538\n"
            "rd(1) = 0.53\n"
            "rr(1) = 2.15217\n"
            "or(1) = 116.217\n"
            "op(1) = 84.3333\n"
            "eta(1) = 5.16429\n"
            "interaction.rd = -0.01\n"
            "interaction.log_rr = -0.332134\n"
            "interaction.log_or = 2.31083\n"
            "interaction.log_eta = 0.568343\n"
        )

    def test_measures_undefined_log_eta_is_null(self):
        # eta(0) = 0 at (0.5, 0.25); json used to print NaN, which is not JSON
        argv = ["measures", "--p00", ".5", "--p01", ".25", "--p10", ".4", "--p11", ".6"]
        out = {fmt: _run_in_process([*argv, "--format", fmt])["stdout"]
               for fmt in ("plain", "csv", "json")}
        assert _strict_json(out["json"])["interactions"]["log_eta"] is None
        assert out["csv"].endswith("\ninteraction_log_eta,,\n")
        assert out["plain"].endswith("\ninteraction.log_eta = nan\n")

    @pytest.mark.parametrize("box", sorted(RISK_BOXES))
    def test_measures_interactions_are_the_coordinate_shifts(self, box):
        # bit for bit: the one log RR and log OR of `coords`; log_eta is null
        # exactly where a stratum's eta is 0, at (0.5, 0.25) or (0.75, 0.625)
        tables = random_tables(np.random.default_rng(2029), 100, *RISK_BOXES[box])
        tables += [RiskTable(.5, .25, .4, .6), RiskTable(.4, .6, .75, .625),
                   RiskTable(.5, .25, .75, .625)]
        for t in tables:
            argv = ["measures", "--p00", repr(t.p00), "--p01", repr(t.p01),
                    "--p10", repr(t.p10), "--p11", repr(t.p11), "--format", "json"]
            got = _strict_json(_run_in_process(argv)["stdout"])["interactions"]
            assert got["log_rr"].hex() == coords.to_poisson(t).alpha1.hex(), t
            assert got["log_or"].hex() == coords.to_logistic(t).a1.hex(), t
            if 0.0 in (eta(t.stratum(0)), eta(t.stratum(1))):
                assert got["log_eta"] is None, t
            else:
                assert got["log_eta"].hex() == coords.to_rr_eta(t).e1.hex(), t

    def test_measures_constant_table_zero_interactions(self):
        p = run("measures", "--p00", ".5", "--p01", ".5", "--p10", ".5", "--p11", ".5")
        lines = p.stdout.splitlines()
        for name in ("rd", "log_rr", "log_or", "log_eta"):
            assert f"interaction.{name} = 0" in lines

    def test_feasible_plain(self):
        p = run("feasible", "--p00", ".27", "--p10", ".46", "--p01", ".82", "--measure", "rd")
        assert p.stdout == (
            "rd-homogeneity for (p00=0.27, p10=0.46, p01=0.82): "
            "infeasible (candidate 1.01)\n"
        )
        p = run("feasible", "--p00", ".27", "--p10", ".46", "--p01", ".80", "--measure", "rd")
        assert p.stdout.endswith("feasible, p11 = 0.99\n")
        p = run("feasible", "--p00", ".27", "--p10", ".46", "--p01", ".81", "--measure", "or")
        assert p.stdout.endswith("feasible, p11 = 0.907568\n")

    def test_volume_csv(self):
        p = run(
            "volume", "--system", "prob", "--target", "rd", "--target", "rr",
            "--target", "or", "--n-samples", "50000", "--seed", "42", "--format", "csv",
        )
        assert p.stdout == (
            "system,target,n_samples,seed,probability,std_error,n_compatible,analytic\n"
            "prob,rd,50000,42,0.66668,0.0021081640239791585,33334,0.6666666666666666\n"
            "prob,rr,50000,42,0.74998,0.0019365433101276098,37499,0.75\n"
            "prob,or,50000,42,1.0,0.0,50000,1.0\n"
        )

    def test_volume_bounds_value_may_start_with_minus(self):
        args = ["volume", "--system", "rr_eta", "--target", "rr", "--n-samples", "1000",
                "--format", "csv"]
        spaced = run(*args, "--bounds", "-1.5:0,-1:1,-1:1")
        joined = run(*args, "--bounds=-1.5:0,-1:1,-1:1")
        assert spaced.returncode == joined.returncode == 0
        assert spaced.stdout == joined.stdout
        assert spaced.stdout.splitlines()[1].split(",")[6] == "1000"  # negative log RR box

    def test_volume_rr_op_outside_the_guard(self):
        # rr_op is compatible with probability 1 only on boxes whose risks stay
        # inside the 1e-12 guard; at alpha0 in [700, 800] every p0 is below it
        p = run("volume", "--system", "rr_op", "--target", "rr", "--n-samples", "1000",
                "--bounds", "700:800,0:1,0:1")
        assert p.stdout == "rr_op/rr: probability = 0 +- 0  [0/1000 compatible, seed 0]\n"

    def test_power_csv(self):
        p = run(
            "power", "--p00", ".5", "--p01", ".5", "--p10", ".5", "--p11", ".5",
            "--n", "100", "--reps", "2000", "--seed", "5", "--format", "csv",
        )
        assert p.stdout == (
            "scale,n_pattern,alpha,reps,rejection_rate,std_error,degenerate_count\n"
            "identity,100/100/100/100,0.05,2000,0.048,0.0047799581588126895,0\n"
            "log,100/100/100/100,0.05,2000,0.0485,0.004803527349771208,0\n"
            "logit,100/100/100/100,0.05,2000,0.0485,0.004803527349771208,0\n"
        )

    def test_convert_json(self):
        p = run(
            "convert", "--from-system", "rr_op", "--to-system", "prob",
            "--alpha0", "0", "--alpha1", "0", "--gamma0", "0", "--gamma1", "0",
            "--format", "json",
        )
        payload = json.loads(p.stdout)
        assert payload == {
            "from": "rr_op",
            "to": "prob",
            "count": 1,
            "solutions": [{"p00": 0.5, "p01": 0.5, "p10": 0.5, "p11": 0.5}],
        }


_GOLDEN_CONFIG = (
    "system = prob\nseed = 3\nn_samples = 70000\nbounds = 0:0.5, 0:1, 0:1\n"
    "[target rd]\n[target rr]\n"
)

#: case -> argv without ``--format``.  Every case runs in every format.
_GOLDEN_CASES = {
    "measures": ["measures", "--p00", ".27", "--p01", ".81", "--p10", ".46", "--p11", ".99"],
    "feasible_rd_infeasible": ["feasible", "--p00", ".27", "--p10", ".46", "--p01", ".82",
                               "--measure", "rd"],
    "feasible_or": ["feasible", "--p00", ".27", "--p10", ".46", "--p01", ".81",
                    "--measure", "or"],
    "volume_cube": ["volume", "--target", "rd", "--target", "rr", "--target", "or",
                    "--n-samples", "50000", "--seed", "42"],
    "volume_rr_eta_chunks": ["volume", "--system", "rr_eta", "--target", "rr", "--target", "or",
                             "--n-samples", "150000", "--seed", "7"],
    "volume_config": ["volume", "--config", "{cfg}"],
    "power": ["power", "--p00", ".5", "--p01", ".5", "--p10", ".5", "--p11", ".5",
              "--n", "100", "--reps", "2000", "--seed", "5"],
    "power_chunks": ["power", *_TABLE, "--n00", "30", "--n01", "50", "--n10", "40",
                     "--n11", "60", "--reps", "150000", "--seed", "11"],
    "convert_rr_eta_4": ["convert", "--from-system", "rr_eta", "--to-system", "prob",
                         "--alpha0", "-0.5", "--alpha1", "0", "--e0", "0.2", "--e1", "0.1"],
    "convert_rr_eta_0": ["convert", "--from-system", "rr_eta", "--to-system", "prob",
                         "--alpha0", "0.5", "--alpha1", "0", "--e0", "0.01", "--e1", "0"],
    # the forward maps take every log and log odds ratio by `math.log`; `b`
    # reads numpy's logit, which agrees at both SIMD levels on this table
    "convert_prob_rr_op": ["convert", "--from-system", "prob", "--to-system", "rr_op",
                           "--p00", ".27", "--p01", ".81", "--p10", ".46", "--p11", ".99"],
    "convert_prob_logistic": ["convert", "--from-system", "prob", "--to-system", "logistic",
                              "--p00", ".27", "--p01", ".81", "--p10", ".46", "--p11", ".99"],
    "convert_prob_poisson": ["convert", "--from-system", "prob", "--to-system", "poisson",
                             "--p00", ".27", "--p01", ".81", "--p10", ".46", "--p11", ".99"],
    "convert_out_of_domain": ["convert", "--from-system", "poisson", "--to-system", "prob",
                              "--beta0", "-0.5", "--beta1", "0", "--alpha0", "0.7",
                              "--alpha1", "0"],
    "convert_missing_flags": ["convert", "--from-system", "rr_op", "--to-system", "prob",
                              "--alpha0", "0"],
}


class TestGoldenMatrix:
    """Exact stdout, stderr and exit code of every command in every format.

    The expected values in ``golden_cli.json`` were captured from the CLI as
    it stood before its three per-format writers were merged into one
    renderer.  A change that means to move a byte edits the entry and says
    why.  The ``volume`` and ``power`` cases also run at ``--workers 2``,
    which takes the multi-chunk cases through the thread pool; the bytes
    must not change.
    """

    GOLDEN = json.loads((Path(__file__).parent / "golden_cli.json").read_text())

    def check(self, tmp_path, case, fmt, *extra):
        (tmp_path / "run.cfg").write_text(_GOLDEN_CONFIG)
        argv = [a.replace("{cfg}", str(tmp_path / "run.cfg")) for a in _GOLDEN_CASES[case]]
        assert _run_in_process([*argv, *extra, "--format", fmt]) == self.GOLDEN[f"{case}/{fmt}"]

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    @pytest.mark.parametrize("case", sorted(_GOLDEN_CASES))
    def test_bytes(self, tmp_path, case, fmt):
        self.check(tmp_path, case, fmt)

    @pytest.mark.parametrize("fmt", ["plain", "csv", "json"])
    @pytest.mark.parametrize(
        "case", sorted(c for c in _GOLDEN_CASES if c.startswith(("volume", "power")))
    )
    def test_bytes_at_two_workers(self, tmp_path, case, fmt):
        self.check(tmp_path, case, fmt, "--workers", "2")

    def test_json_goldens_are_strict_json(self):
        for case in _GOLDEN_CASES:
            golden = self.GOLDEN[f"{case}/json"]
            if golden["code"] == 0:
                _strict_json(golden["stdout"])


def _strict_json(text):
    """``text`` parsed as JSON; NaN and Infinity, which JSON lacks, raise."""
    def reject(name):
        raise ValueError(f"{name} is not JSON")
    return json.loads(text, parse_constant=reject)


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _readme_commands():
    """[argv, the stdout its ``# ->`` line shows or None] per command in the README's sh blocks."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("effectgeom "):
                commands.append([shlex.split(line)[1:], None])
            elif line.startswith("# -> "):
                commands[-1][1] = line.removeprefix("# -> ") + "\n"
    return commands


def test_readme_commands_run():
    commands = _readme_commands()
    assert [argv[0] for argv, _ in commands] == [
        "measures", "feasible", "volume", "volume", "power", "convert"]
    for argv, shown in commands:
        out = _run_in_process(argv)
        assert out["code"] == 0, (argv, out["stderr"])
        assert shown is None or out["stdout"] == shown, argv
    assert any(shown for _, shown in commands)


class TestConvertRoundTrip:
    @pytest.mark.parametrize("system", coords.SYSTEMS)
    def test_prob_to_system_and_back(self, system):
        def convert(src, dst, values):
            flags = [x for k, v in values.items() for x in (f"--{k}", repr(v))]
            out = _run_in_process(
                ["convert", "--from-system", src, "--to-system", dst, *flags, "--format", "json"]
            )
            assert out["code"] == 0, out["stderr"]
            return json.loads(out["stdout"])["solutions"]

        target = {"p00": 0.27, "p01": 0.81, "p10": 0.46, "p11": 0.99}
        (point,) = convert("prob", system, target)
        assert any(
            all(abs(sol[k] - v) < 1e-8 for k, v in target.items())
            for sol in convert(system, "prob", point)
        )

    def test_rr_eta_solution_count_reported(self):
        # negative log RR: two stratum solutions each, 4 tables
        p = run(
            "convert", "--from-system", "rr_eta", "--to-system", "prob",
            "--alpha0", "-0.5", "--alpha1", "0", "--e0", "0.2", "--e1", "0.1",
        )
        assert p.stdout.splitlines()[0] == "rr_eta -> prob: 4 solution(s)"


class TestConfigFile:
    def test_valid_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# cube prior\n"
            "system = prob\n"
            "seed = 42\n"
            "n_samples = 50000\n"
            "bounds = 0:1, 0:1, 0:1\n"
            "\n"
            "[target rr]\n"
            "[target or]\n"
        )
        p = run("volume", "--config", str(cfg), "--format", "csv")
        assert p.returncode == 0
        lines = p.stdout.splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("prob,rr,50000,42,")
        assert lines[2].startswith("prob,or,50000,42,")

    def test_config_matches_inline_flags(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("system = rr_op\nseed = 9\nn_samples = 20000\n[target rr]\n")
        via_config = run("volume", "--config", str(cfg), "--format", "csv")
        inline = run(
            "volume", "--system", "rr_op", "--target", "rr",
            "--n-samples", "20000", "--seed", "9", "--format", "csv",
        )
        assert via_config.stdout == inline.stdout

    @pytest.mark.parametrize(
        "body, lineno",
        [
            ("system = prob\nseed = x\nn_samples = 10\n[target rr]\n", 2),
            ("system = prob\nseed = 1\nwhat is this\n[target rr]\n", 3),
            ("system = prob\nseed = 1\nn_samples = 10\n[target hazard]\n", 4),
            ("system = prob\nseed = 1\nn_samples = 10\nbounds = 0:1, 0:1\n[target rr]\n", 4),
            ("system = bogus\nseed = 1\nn_samples = 10\n[target rr]\n", 1),
            # a repeated key or target names the line of its second occurrence
            ("system = prob\nseed = 1\nseed = 2\nn_samples = 10\n[target rr]\n", 3),
            ("system = prob\nseed = 1\nn_samples = 10\n[target rr]\n[target or]\n"
             "[target rr]\n", 6),
        ],
    )
    def test_parse_errors_cite_line_numbers(self, tmp_path, body, lineno):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(body)
        p = run("volume", "--config", str(cfg))
        assert p.returncode == 2
        assert f"line {lineno}" in p.stderr

    def test_system_name_is_read_in_any_case_like_a_target(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("system = RR_eta\nseed = 9\nn_samples = 2000\n[target RR]\n")
        via_config = run("volume", "--config", str(cfg), "--format", "csv")
        inline = run("volume", "--system", "rr_eta", "--target", "rr",
                     "--n-samples", "2000", "--seed", "9", "--format", "csv")
        assert via_config.returncode == 0 and via_config.stdout == inline.stdout

    def test_missing_target_section(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("system = prob\nseed = 1\nn_samples = 10\n")
        p = run("volume", "--config", str(cfg))
        assert p.returncode == 2
        assert "target" in p.stderr


class TestDeterminism:
    def test_volume_output_identical_across_workers(self):
        args = [
            "volume", "--system", "rr_eta", "--target", "rr", "--target", "or",
            "--n-samples", "150000", "--seed", "7", "--format", "csv",
        ]
        one = run(*args, "--workers", "1")
        three = run(*args, "--workers", "3")
        assert one.stdout == three.stdout
        assert one.returncode == three.returncode == 0

    def test_power_output_identical_across_workers(self):
        args = [
            "power", "--p00", ".2", "--p01", ".5", "--p10", ".4", "--p11", ".7",
            "--n", "250", "--reps", "150000", "--seed", "11", "--format", "json",
        ]
        one = run(*args, "--workers", "1")
        two = run(*args, "--workers", "2")
        assert one.stdout == two.stdout

    def test_one_process_prints_what_fresh_processes_print(self):
        # the parser is built once per process; nothing one call parses may reach the next
        queries = [
            ["volume", "--target", "rd", "--target", "rr", "--n-samples", "2000", "--format", "csv"],
            ["volume", "--target", "or", "--n-samples", "2000", "--seed", "3", "--format", "json"],
            ["volume", "--target", "rr", "--n-samples", "2000"],
        ]
        for argv in queries:
            fresh = run(*argv)
            assert _run_in_process(argv) == {
                "code": fresh.returncode, "stdout": fresh.stdout, "stderr": fresh.stderr}


# a second run of the same query, counted from inside the process
_FAULTS_SCRIPT = """
import contextlib, io, resource, sys
from effectgeom import cli

argv = sys.argv[1:]
def run():
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
run()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


class TestBlockMemory:
    """`cli.main` has glibc keep freed block arrays, which no output depends on."""

    @pytest.mark.skipif(
        platform.libc_ver()[0] != "glibc" or not hasattr(ctypes.CDLL(None), "mallopt"),
        reason="the thresholds are glibc's",
    )
    def test_repeated_query_takes_few_page_faults(self):
        # the 32 row blocks of this query (16 per target) refault 5100-6200
        # pages when glibc unmaps or trims each block's arrays, and about 16
        # when the heap keeps them
        pytest.importorskip("resource")
        argv = ["volume", "--system", "rr_op", "--target", "rr", "--target", "or",
                "--n-samples", "262144", "--workers", "1"]
        done = subprocess.run([sys.executable, "-c", _FAULTS_SCRIPT, *argv],
                              capture_output=True, text=True, check=True)
        assert int(done.stdout) <= 500

    def test_c_library_without_mallopt(self, monkeypatch):
        opened = []

        def no_mallopt(name):
            opened.append(name)
            return object()

        cli._keep_freed_memory.cache_clear()
        monkeypatch.setattr(ctypes, "CDLL", no_mallopt)
        try:
            got = _run_in_process([*_GOLDEN_CASES["volume_cube"], "--format", "json"])
        finally:
            cli._keep_freed_memory.cache_clear()
        assert opened == [None]
        assert got == TestGoldenMatrix.GOLDEN["volume_cube/json"]
