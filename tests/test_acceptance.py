"""Acceptance gate: one test per shipped guarantee, at the stated tolerance.

Each test sweeps its randomized family with fixed seeds, records a PASS/FAIL
line (echoed in the terminal summary), and asserts.  Tolerances here are the
contract; loosening one is a behavior change, not a test fix.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from ssdual import (
    DiscreteAbsorptionLaw,
    RateGenerator,
    TransitionKernel,
    ZeroSuperdiagonal,
    absorption_law,
    build_dual,
    build_link,
    build_modified_dual,
    check_intertwining,
    check_monotone_reversal,
    ctmc_cdf_oracle,
    eigenvalues,
    hypoexp_law,
    mean_absorption_oracle,
    mixture_weights,
    power_cdf_oracle,
    separation,
    sst_law,
    stationary_law,
    verify,
)
from ssdual.families import (
    random_ergodic_birth_death,
    random_reversible_absorbing_kernel,
    random_skipfree_generator,
    random_skipfree_kernel,
    random_upper_triangular_kernel,
)

from conftest import ACCEPTANCE_LINES, BD3_MATRIX, ERG3_MATRIX, GEN3_MATRIX, CT21_MATRIX


def _record(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def skipfree_matrices():
    rng = np.random.default_rng(101)
    return [random_skipfree_kernel(rng, int(rng.integers(3, 10))) for _ in range(200)]


@pytest.fixture(scope="module")
def mixture_matrices():
    rng = np.random.default_rng(202)
    out = [
        random_reversible_absorbing_kernel(rng, int(rng.integers(3, 10)))
        for _ in range(200)
    ]
    out += [
        random_upper_triangular_kernel(rng, int(rng.integers(3, 10)))
        for _ in range(50)
    ]
    return out


@pytest.fixture(scope="module")
def ergodic_matrices():
    rng = np.random.default_rng(303)
    return [random_ergodic_birth_death(rng, int(rng.integers(3, 10))) for _ in range(100)]


@pytest.fixture(scope="module")
def generator_matrices():
    rng = np.random.default_rng(404)
    return [random_skipfree_generator(rng, int(rng.integers(3, 9))) for _ in range(100)]


def _law_vs_power_oracle(matrix) -> float:
    kernel = TransitionKernel(matrix)
    law = absorption_law(kernel)
    q = law.quantile(0.9999)
    oracle = power_cdf_oracle(kernel, None, t_max=q)
    exact = np.atleast_1d(law.cdf(np.arange(q + 1)))
    return float(np.abs(exact - oracle).max())


def test_01_skipfree_law_matches_power_oracle(skipfree_matrices):
    start = time.perf_counter()
    worst = max(_law_vs_power_oracle(m) for m in skipfree_matrices)
    elapsed = time.perf_counter() - start
    _record(
        1,
        "skip-free law vs power oracle, 200 chains",
        worst <= 1e-10 and elapsed < 10.0,
        f"sup dev {worst:.2e}, {elapsed:.2f}s",
    )


def test_02_bd3_spot_values():
    kernel = TransitionKernel(BD3_MATRIX)
    law = absorption_law(kernel)
    thetas = np.sort(eigenvalues(kernel).nonunit.real)
    closed_form = float((1.0 - thetas[0]) * (1.0 - thetas[1]))
    power2 = float(np.linalg.matrix_power(kernel.matrix, 2)[0, 2])
    dev_cdf = max(
        abs(float(law.cdf(2)) - 0.125),
        abs(closed_form - 0.125),
        abs(power2 - 0.125),
    )
    dev_mean = max(
        abs(law.mean() - 8.0),
        abs(law.mean() - mean_absorption_oracle(kernel)),
    )
    _record(
        2,
        "BD3 P(T<=2)=1/8 and mean 8",
        dev_cdf <= 1e-14 and dev_mean <= 1e-12,
        f"cdf dev {dev_cdf:.2e}, mean dev {dev_mean:.2e}",
    )


def test_03_general_mixture_and_weights(mixture_matrices):
    worst_dev = 0.0
    worst_sum = 0.0
    worst_last = 0.0
    worst_neg = 0.0
    for matrix in mixture_matrices:
        kernel = TransitionKernel(matrix)
        worst_dev = max(worst_dev, _law_vs_power_oracle(matrix))
        spec = eigenvalues(kernel)
        link = build_link(kernel, spec, None)
        w = mixture_weights(link).weights
        worst_sum = max(worst_sum, abs(float(w.sum()) - 1.0))
        worst_last = max(worst_last, abs(float(w[-1])))
        worst_neg = min(worst_neg, float(w.min()))

    gk = TransitionKernel(GEN3_MATRIX)
    gs = eigenvalues(gk)
    glink = build_link(gk, gs, None)
    gw = mixture_weights(glink).weights
    gen3_dev = float(np.abs(gw - np.array([0.0, 1 / 3, 2 / 3, 0.0])).max())

    ok = (
        worst_dev <= 1e-10
        and worst_sum <= 1e-10
        and worst_last <= 1e-10
        and worst_neg >= -1e-10
        and gen3_dev <= 1e-12
    )
    _record(
        3,
        "mixture law and a-weights, 250 chains",
        ok,
        f"cdf {worst_dev:.2e}, sum {worst_sum:.2e}, a_last {worst_last:.2e}, "
        f"min {worst_neg:.2e}, GEN3 {gen3_dev:.2e}",
    )


def test_04_intertwinings(skipfree_matrices, mixture_matrices):
    worst_link = 0.0
    worst_mod = 0.0
    worst_init = 0.0
    for matrix in [*skipfree_matrices, *mixture_matrices, BD3_MATRIX, GEN3_MATRIX]:
        kernel = TransitionKernel(matrix)
        spec = eigenvalues(kernel)
        link = build_link(kernel, spec, None)
        dual = build_dual(spec)
        worst_link = max(
            worst_link, check_intertwining(link, kernel, dual).residual
        )
        mod = build_modified_dual(kernel, link, spec, None)
        worst_mod = max(worst_mod, mod.intertwining_residual)
        worst_init = max(worst_init, mod.initial_residual)
    ok = worst_link <= 1e-10 and worst_mod <= 1e-10 and worst_init <= 1e-12
    _record(
        4,
        "intertwining identities, 452 chains",
        ok,
        f"link {worst_link:.2e}, modified {worst_mod:.2e}, initial {worst_init:.2e}",
    )


def test_05_sst_equals_separation_complement(ergodic_matrices):
    worst = 0.0
    for matrix in ergodic_matrices:
        kernel = TransitionKernel(matrix)
        assert check_monotone_reversal(kernel, stationary_law(kernel)).monotone
        law = sst_law(kernel)
        profile = separation(kernel)
        ts = np.arange(len(profile.s))
        dev = float(np.abs(np.atleast_1d(law.cdf(ts)) - (1.0 - profile.s)).max())
        worst = max(worst, dev)

    ek = TransitionKernel(ERG3_MATRIX)
    elaw = sst_law(ek)
    eprof = separation(ek, t_max=2)
    erg3_dev = max(
        abs(float(elaw.cdf(1))),
        abs(1.0 - eprof.s[1]),
        abs(float(elaw.cdf(2)) - 0.5),
        abs((1.0 - eprof.s[2]) - 0.5),
    )
    ok = worst <= 1e-10 and erg3_dev <= 1e-14
    _record(
        5,
        "SST law is 1 - separation, 100 chains",
        ok,
        f"sup dev {worst:.2e}, ERG3 {erg3_dev:.2e}",
    )


def test_06_continuous_law_matches_ctmc_oracle(generator_matrices):
    worst = 0.0
    for matrix in generator_matrices:
        gen = RateGenerator(matrix)
        law = hypoexp_law(gen)
        grid = np.linspace(0.0, law.quantile(0.9999), 50)
        oracle = ctmc_cdf_oracle(gen, None, grid)
        worst = max(worst, float(np.abs(law.cdf(grid) - oracle).max()))

    gen21 = RateGenerator(CT21_MATRIX)
    law21 = hypoexp_law(gen21)
    grid21 = np.linspace(0.0, 8.0, 50)
    closed = 1.0 - 2.0 * np.exp(-grid21) + np.exp(-2.0 * grid21)
    dev21 = float(np.abs(law21.cdf(grid21) - closed).max())
    ok = worst <= 1e-8 and dev21 <= 1e-10
    _record(
        6,
        "hypoexponential law vs ctmc oracle, 100 generators",
        ok,
        f"sup dev {worst:.2e}, rates-(2,1) {dev21:.2e}",
    )


def test_07_coupling_gates_bd3():
    kernel = TransitionKernel(BD3_MATRIX)
    start = time.perf_counter()
    report = verify(kernel, mode="skipfree", samples=100_000, seed=0)
    elapsed = time.perf_counter() - start
    ok = (
        report.domination_violations == 0
        and report.absorption_mismatches == 0
        and report.ks_statistic <= report.ks_threshold
        and report.conditional_passed
        and report.passed
        and elapsed < 60.0
    )
    _record(
        7,
        "BD3 coupling, 1e5 traces",
        ok,
        f"ks {report.ks_statistic:.4f} <= {report.ks_threshold:.4f}, "
        f"cells {report.conditional_cells}, {elapsed:.1f}s",
    )


def test_08_general_dual_gates_gen3():
    kernel = TransitionKernel(GEN3_MATRIX)
    report = verify(kernel, mode="general", samples=100_000, seed=0)
    ok = (
        report.l_passed
        and report.l_chisq_pvalue is not None
        and report.l_chisq_pvalue > 0.01
        and report.segments_passed
        and report.absorption_mismatches == 0
        and report.structural_l_violations == 0
        and report.passed
    )
    _record(
        8,
        "GEN3 general dual, 1e5 traces",
        ok,
        f"L p-value {report.l_chisq_pvalue:.3f}, "
        f"segments {report.segments_tested}, min p {report.segment_min_pvalue:.3f}",
    )


def test_09_negative_controls():
    kernel = TransitionKernel(BD3_MATRIX)
    spec = eigenvalues(kernel)
    link = build_link(kernel, spec, None)
    dual = build_dual(spec)

    rows = link.rows.copy()
    rows[1, 0] += 1e-6
    bad_link = dataclasses.replace(link, rows=rows)
    link_fails = not check_intertwining(bad_link, kernel, dual).passed

    thetas = spec.nonunit.real.copy()
    thetas[1] += 0.017
    wrong = DiscreteAbsorptionLaw(thetas, np.array([0.0, 0.0, 1.0]))
    ks_fails = not verify(
        kernel, mode="skipfree", samples=20_000, seed=3, law=wrong
    ).ks_passed

    stuck = TransitionKernel(
        np.array([[1.0, 0.0, 0.0], [0.0, 0.5, 0.5], [0.0, 0.0, 1.0]])
    )
    with pytest.raises(ZeroSuperdiagonal):
        absorption_law(stuck)

    _record(
        9,
        "negative controls",
        link_fails and ks_fails,
        f"perturbed link fails: {link_fails}, perturbed theta fails KS: {ks_fails}, "
        "zero superdiagonal raises",
    )


def test_10_determinism(tmp_path):
    files = {
        "bd3.json": {"mode": "discrete", "matrix": BD3_MATRIX},
        "gen3.json": {"mode": "discrete", "matrix": GEN3_MATRIX},
        "ct21.json": {"mode": "continuous", "matrix": CT21_MATRIX},
    }
    for name, spec in files.items():
        (tmp_path / name).write_text(json.dumps(spec), encoding="utf-8")

    def run(*args):
        out = subprocess.run(
            [sys.executable, "-m", "ssdual", *args],
            capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        return out.stdout

    ok = True
    for cmd, name in (
        ("verify", "bd3.json"),
        ("simulate", "gen3.json"),
        ("verify", "ct21.json"),
    ):
        args = (cmd, str(tmp_path / name), "--samples", "2000", "--seed", "12")
        ok = ok and run(*args) == run(*args)
    _record(10, "seeded runs are byte-identical", ok)
