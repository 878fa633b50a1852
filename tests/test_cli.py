"""End-to-end CLI checks driven through subprocesses.

Each test shells out to ``python -m ssdual`` so the argument parsing, exit
codes, and serialization are exercised exactly as a user would hit them.
"""

from __future__ import annotations

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ssdual import hypoexp_law
from ssdual.cli import main
from ssdual.config import _TRACE_BLOCK, MAX_HORIZON
from ssdual.families import random_birth_death_kernel, random_initial_law, random_skipfree_kernel

from conftest import (
    BD3_MATRIX,
    CT21_MATRIX,
    ERG3_MATRIX,
    GEN3_MATRIX,
    stiff_birth_death_generator,
)

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_cli(*args, stdin=None, env=None):
    cmd = [sys.executable, "-m", "ssdual", *args]
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run(
        cmd, input=stdin, capture_output=True, text=True, env=full_env
    )


def parse_csv(text):
    return list(csv.reader(io.StringIO(text)))


class TestValidate:
    def test_bd3_prose(self, chain_file):
        r = run_cli("validate", chain_file(BD3_MATRIX))
        assert r.returncode == 0
        assert "skip-free birth-death" in r.stdout
        assert "absorbing target" in r.stdout

    def test_erg3_prose(self, chain_file):
        r = run_cli("validate", chain_file(ERG3_MATRIX))
        assert r.returncode == 0
        assert "ergodic" in r.stdout

    def test_echo_round_trips(self, chain_file):
        path = chain_file(BD3_MATRIX)
        first = run_cli("validate", path, "--echo")
        assert first.returncode == 0
        second = run_cli("validate", "-", "--echo", stdin=first.stdout)
        assert second.returncode == 0
        assert second.stdout == first.stdout

    def test_inaccessible_target_exits_2(self, chain_file):
        r = run_cli("validate", chain_file(np.eye(3)))
        assert r.returncode == 2
        assert "error:" in r.stderr

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        r = run_cli("validate", str(bad))
        assert r.returncode == 2

    def test_unknown_key_exits_2(self, chain_file):
        r = run_cli("validate", chain_file(BD3_MATRIX, typo=1))
        assert r.returncode == 2
        assert "typo" in r.stderr

    def test_boolean_target_exits_2(self, chain_file):
        # JSON true is a Python int; it must not pass for state 1
        r = run_cli("validate", chain_file(BD3_MATRIX, target=True))
        assert r.returncode == 2
        assert "target must be a state index" in r.stderr

    def test_string_labels_exit_2(self, chain_file):
        r = run_cli("validate", chain_file(BD3_MATRIX, labels="abc"))
        assert r.returncode == 2
        assert "labels must be 3 strings" in r.stderr

    def test_target_relabeling(self, chain_file):
        # same chain with the absorbing state listed first
        permuted = [[1.0, 0.0, 0.0], [0.25, 0.5, 0.25], [0.5, 0.0, 0.5]]
        path = chain_file(permuted, target=0, labels=["sink", "mid", "start"])
        r = run_cli("validate", path)
        assert r.returncode == 0
        summary = json.loads(run_cli("spectrum", path).stdout)
        assert summary["state_order"] == [1, 2, 0]
        assert summary["labels"] == ["mid", "start", "sink"]


class TestSpectrum:
    def test_json_eigenvalues(self, chain_file):
        r = run_cli("spectrum", chain_file(BD3_MATRIX))
        assert r.returncode == 0
        out = json.loads(r.stdout)
        vals = [re for re, im in out["eigenvalues"]]
        lo, hi = (2.0 - np.sqrt(2.0)) / 4.0, (2.0 + np.sqrt(2.0)) / 4.0
        assert vals == pytest.approx([lo, hi, 1.0], abs=1e-12)
        assert out["method"] == "tridiagonal"

    def test_csv_shape(self, chain_file):
        r = run_cli("spectrum", chain_file(BD3_MATRIX), "--format", "csv")
        rows = parse_csv(r.stdout)
        assert rows[0] == ["index", "real", "imag"]
        assert len(rows) == 4

    def test_continuous_reports_rates(self, chain_file):
        r = run_cli("spectrum", chain_file(CT21_MATRIX, mode="continuous"))
        out = json.loads(r.stdout)
        assert sorted(out["exponential_rates"]) == pytest.approx([1.0, 2.0], abs=1e-12)


class TestDual:
    def test_intertwining_residuals(self, chain_file):
        r = run_cli("dual", chain_file(GEN3_MATRIX))
        out = json.loads(r.stdout)
        assert out["intertwining"]["passed"] is True
        assert out["intertwining"]["residual"] <= 1e-12
        for key in ("2", "3"):
            assert out["intertwining"]["power_residuals"][key] <= 1e-12

    def test_gen3_mixture_weights(self, chain_file):
        r = run_cli("dual", chain_file(GEN3_MATRIX))
        out = json.loads(r.stdout)
        w = out["mixture_weights"]
        assert w["stochastic"] is True
        assert w["weights"] == pytest.approx([0.0, 1 / 3, 2 / 3, 0.0], abs=1e-12)
        mod = out["modified_dual"]
        assert mod["absorbing_start"] == 2
        assert mod["stochastic"] is True
        assert mod["kernel"][1] == pytest.approx([0.0, 0.75, 0.25], abs=1e-14)

    def test_ergodic_has_no_modified_dual(self, chain_file):
        r = run_cli("dual", chain_file(ERG3_MATRIX))
        out = json.loads(r.stdout)
        assert "modified_dual" not in out
        assert out["mixture_weights"]["stochastic"] is True


class TestAbsorption:
    def test_bd3_oracle_fields(self, chain_file):
        r = run_cli("absorption", chain_file(BD3_MATRIX), "--oracle")
        assert r.returncode == 0
        out = json.loads(r.stdout)
        assert out["law"]["kind"] == "geometric_convolution"
        assert out["law"]["mean"] == pytest.approx(8.0, abs=1e-12)
        assert out["oracle_max_deviation"] <= 1e-10
        assert out["absorbing_start"] == 2

    def test_gen3_weights(self, chain_file):
        r = run_cli("absorption", chain_file(GEN3_MATRIX))
        out = json.loads(r.stdout)
        assert out["law"]["kind"] == "mixture"
        assert out["law"]["weights"] == pytest.approx([0, 1 / 3, 2 / 3], abs=1e-12)

    def test_csv_series(self, chain_file):
        r = run_cli("absorption", chain_file(BD3_MATRIX), "--oracle", "--format", "csv")
        rows = parse_csv(r.stdout)
        assert rows[0] == ["t", "exact_cdf", "oracle_cdf", "empirical_cdf", "separation"]
        body = rows[1:]
        t2 = next(row for row in body if row[0] == "2")
        assert float(t2[1]) == pytest.approx(0.125, abs=1e-14)
        assert float(t2[2]) == pytest.approx(0.125, abs=1e-14)
        assert t2[3] == "" and t2[4] == ""

    def test_tight_tol_exits_5(self, chain_file):
        r = run_cli(
            "absorption", chain_file(BD3_MATRIX), "--oracle", "--tol", "1e-300"
        )
        assert r.returncode == 5

    def test_continuous_closed_form(self, chain_file):
        r = run_cli("absorption", chain_file(CT21_MATRIX, mode="continuous"), "--oracle")
        out = json.loads(r.stdout)
        assert out["law"]["kind"] == "hypoexponential"
        assert sorted(out["law"]["exponential_rates"]) == pytest.approx(
            [1.0, 2.0], abs=1e-12
        )
        assert out["oracle_max_deviation"] <= 1e-8

    def test_continuous_grid_top_is_rounded_up(self, chain_file, ct21):
        # a quantile deep in the tail moves with the last bit of F; its
        # rounded-up top does not
        r = run_cli("absorption", chain_file(CT21_MATRIX, mode="continuous"), "--format", "csv")
        top = float(parse_csv(r.stdout)[-1][0])
        assert float(f"{top:.3g}") == top
        assert hypoexp_law(ct21).cdf(top) >= 1.0 - 1e-6

    def test_zero_superdiagonal_exits_3(self, chain_file):
        m = [[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]]
        r = run_cli("absorption", chain_file(m))
        assert r.returncode == 3
        assert "p(i, i+1) > 0" in r.stderr

    def test_ergodic_chain_exits_3(self, chain_file):
        r = run_cli("absorption", chain_file(ERG3_MATRIX))
        assert r.returncode == 3

    def test_stiff_generator_exits_3(self, chain_file):
        # the Poisson series at the mean would have 2.2e10 terms
        r = run_cli("absorption", chain_file(stiff_birth_death_generator(8, -4.0, 2.0),
                                              mode="continuous"))
        assert r.returncode == 3
        assert "Poisson series" in r.stderr and "Traceback" not in r.stderr

    def test_numerical_breakdown_exits_6(self, chain_file):
        # target reachable, slowest mode within 1e-13 of the unit eigenvalue
        m = random_skipfree_kernel(np.random.default_rng(0), 60)
        r = run_cli("absorption", chain_file(m))
        assert r.returncode == 6
        assert "below double precision" in r.stderr and "Traceback" not in r.stderr

    def test_link_that_misses_one_exits_6(self, chain_file):
        # the float64 link's target column ends 2.7e-9 from 1
        m = random_skipfree_kernel(np.random.default_rng(1), 25)
        m0 = random_initial_law(np.random.default_rng(1), 25)
        r = run_cli("absorption", chain_file(m, initial=m0.tolist()))
        assert r.returncode == 6
        assert "does not reach 1" in r.stderr and "Traceback" not in r.stderr


class TestSst:
    def test_erg3_values(self, chain_file):
        r = run_cli("sst", chain_file(ERG3_MATRIX), "--oracle")
        assert r.returncode == 0
        out = json.loads(r.stdout)
        assert out["certification"] == "structural"
        assert out["separation_max_deviation"] <= 1e-12
        assert out["law"]["mean"] == pytest.approx(3.0, abs=1e-12)

    def test_csv_separation_complements_cdf(self, chain_file):
        r = run_cli("sst", chain_file(ERG3_MATRIX), "--oracle", "--format", "csv")
        rows = parse_csv(r.stdout)
        assert rows[0] == ["t", "exact_cdf", "oracle_cdf", "empirical_cdf", "separation"]
        for row in rows[1:]:
            assert float(row[1]) + float(row[4]) == pytest.approx(1.0, abs=1e-12)

    def test_non_monotone_exits_4(self, chain_file):
        # starting mass at the far end makes the ratio profile non-monotone
        r = run_cli("sst", chain_file(ERG3_MATRIX, initial=[0.0, 0.0, 1.0]))
        assert r.returncode == 4

    def test_continuous_rejected(self, chain_file):
        r = run_cli("sst", chain_file(CT21_MATRIX, mode="continuous"))
        assert r.returncode == 2


class TestSimulateAndVerify:
    def test_verify_passes(self, chain_file):
        r = run_cli(
            "verify", chain_file(BD3_MATRIX), "--samples", "2000", "--seed", "11"
        )
        assert r.returncode == 0
        out = json.loads(r.stdout)
        assert out["report"]["passed"] is True
        assert out["report"]["samples"] == 2000

    def test_initial_law_infers_general_mode(self, chain_file):
        path = chain_file(BD3_MATRIX, initial=[0.5, 0.5, 0.0])
        r = run_cli("verify", path, "--samples", "2000", "--seed", "12")
        assert r.returncode == 0
        assert json.loads(r.stdout)["report"]["mode"] == "general"

    def test_same_seed_byte_identical(self, chain_file):
        path = chain_file(GEN3_MATRIX)
        args = ("verify", path, "--samples", "1500", "--seed", "9")
        a, b = run_cli(*args), run_cli(*args)
        assert a.stdout == b.stdout
        sim = run_cli("simulate", path, "--samples", "1500", "--seed", "9")
        ver = json.loads(a.stdout)["report"]
        simrep = json.loads(sim.stdout)["report"]
        assert simrep == ver

    def test_env_seed_matches_flag(self, chain_file):
        path = chain_file(BD3_MATRIX)
        via_flag = run_cli("verify", path, "--samples", "1000", "--seed", "7")
        via_env = run_cli(
            "verify", path, "--samples", "1000", env={"SSD_SEED": "7"}
        )
        assert via_flag.stdout == via_env.stdout

    def test_jobs_do_not_change_report(self, chain_file):
        # two blocks of traces, so --jobs 2 runs them in the process pool
        path = chain_file(BD3_MATRIX)
        samples = str(_TRACE_BLOCK + 1200)
        one = run_cli("verify", path, "--samples", samples, "--seed", "4")
        two = run_cli("verify", path, "--samples", samples, "--seed", "4", "--jobs", "2")
        assert one.returncode == two.returncode == 0
        assert one.stdout == two.stdout

    def test_failed_gate_exits_5_simulate_does_not(self, chain_file):
        path = chain_file(BD3_MATRIX)
        # the horizon cut guarantees truncated paths, which the report flags
        common = ("--samples", "2000", "--seed", "1", "--horizon", "4")
        ver = run_cli("verify", path, *common)
        assert ver.returncode == 5
        assert "FAILED" in ver.stderr
        sim = run_cli("simulate", path, *common)
        assert sim.returncode == 0
        assert json.loads(sim.stdout)["report"]["passed"] is False

    def test_insufficient_samples_exits_3(self, chain_file):
        r = run_cli("verify", chain_file(BD3_MATRIX), "--samples", "5")
        assert r.returncode == 3

    def test_continuous_verify(self, chain_file):
        r = run_cli(
            "verify",
            chain_file(CT21_MATRIX, mode="continuous"),
            "--samples", "2000",
            "--seed", "5",
        )
        assert r.returncode == 0
        assert json.loads(r.stdout)["report"]["mode"] == "continuous"


@pytest.mark.parametrize("command, matrix, mode, t_max", [
    ("absorption", BD3_MATRIX, "discrete", "-5"),
    ("absorption", CT21_MATRIX, "continuous", "-5"),
    ("sst", ERG3_MATRIX, "discrete", "-5"),
    ("absorption", BD3_MATRIX, "discrete", "inf"),
    ("sst", ERG3_MATRIX, "discrete", "nan"),
], ids=["absorption-bd3", "absorption-ct21", "sst-erg3", "absorption-bd3-inf", "sst-erg3-nan"])
def test_series_horizon_must_be_a_nonnegative_time(chain_file, command, matrix, mode, t_max):
    r = run_cli(command, chain_file(matrix, mode=mode), "--t-max", t_max)
    assert r.returncode == 2
    assert "--t-max must be a finite nonnegative number" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("argv, code", [
    (["verify", "--samples", "2000", "--horizon", "-1"], 2),
    (["simulate", "--samples", "2000", "--horizon", "0"], 2),
    (["absorption", "--t-max", str(4 * MAX_HORIZON)], 3),
], ids=["verify-horizon", "simulate-horizon", "absorption-t-max"])
def test_out_of_range_horizons(chain_file, capsys, argv, code):
    # a horizon below 1 is invalid input, and a discrete series past
    # MAX_HORIZON steps is refused before its CDF is grown to reach it
    command, *rest = argv
    assert main([command, chain_file(BD3_MATRIX), *rest]) == code
    assert "horizon" in capsys.readouterr().err


def test_overflowing_link_exits_6(chain_file, capsys):
    # the link's recurrence overflows at row 682; its target column once held
    # NaN and infinities and gave a numeric_cdf law with a NaN mean (exit 0)
    n = 700
    path = chain_file(random_birth_death_kernel(np.random.default_rng(0), n, lazy=True),
                      initial=random_initial_law(np.random.default_rng(1), n).tolist())
    assert main(["absorption", path]) == 6
    assert "link row 682 is not finite" in capsys.readouterr().err


class TestOutput:
    def test_out_writes_both_formats(self, chain_file, tmp_path):
        base = str(tmp_path / "result")
        r = run_cli("absorption", chain_file(BD3_MATRIX), "--out", base)
        assert r.returncode == 0
        summary = json.loads((tmp_path / "result.json").read_text())
        assert summary["law"]["kind"] == "geometric_convolution"
        rows = parse_csv((tmp_path / "result.csv").read_text())
        assert rows[0][0] == "t"

    def test_stdin_dash(self, chain_file):
        text = json.dumps({"mode": "discrete", "matrix": BD3_MATRIX})
        r = run_cli("absorption", "-", stdin=text)
        assert r.returncode == 0
        assert json.loads(r.stdout)["law"]["mean"] == pytest.approx(8.0)


class TestScripts:
    """The scripts run on the public API, so they run here too."""

    @pytest.mark.parametrize("script, args", [
        ("bd3_walkthrough.py", []),
        ("random_sweep.py", ["--count", "5"]),
        ("cdf_probe.py", ["--sizes", "3", "70", "--horizon", "130", "--repeat", "1"]),
    ])
    def test_script_exits_0(self, script, args):
        r = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                           capture_output=True, text=True)
        assert r.returncode == 0, r.stderr
