"""The benchmark's own checks have teeth.

A law rebuilt with its most influential eigenvalue shifted by 1e-6 must fail
the checks that the workloads apply, both directly and through the outcome of
``verify``; the unshifted law must pass them.  Run with

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import ssdual  # noqa: E402
from ssdual import laws  # noqa: E402

import reference as ref  # noqa: E402
import workloads  # noqa: E402

SHIFT = 1e-6
BUILDERS = {"absorption": laws.absorption_law, "sst": laws.sst_law, "hypoexp": laws.hypoexp_law}


def shifted(law):
    """``law`` rebuilt with the eigenvalue that weighs most on its mean moved by SHIFT.

    A complex eigenvalue moves together with its conjugate, so the law stays real.
    """
    disc = getattr(law, "discrete", law)
    thetas = np.array(disc.thetas, dtype=complex)
    weights = np.asarray(disc.level_weights)
    j = int(np.argmax(np.abs((1.0 - weights[:-1]) / (1.0 - thetas) ** 2)))
    moved = thetas.copy()
    moved[j] += SHIFT
    if thetas[j].imag != 0.0:
        moved[int(np.argmin(np.abs(thetas - np.conj(thetas[j]))))] += SHIFT
    if not np.iscomplexobj(disc.thetas):
        moved = moved.real
    new = ssdual.DiscreteAbsorptionLaw(moved, disc.level_weights)
    return ssdual.ContinuousAbsorptionLaw(new, law.rate) if disc is not law else new


def evaluate(law, grid):
    return workloads.attempt(lambda: (law.mean(), law.cdf(grid)))


@pytest.fixture(scope="module")
def exact_size():
    workload = workloads.ExactSize(1)
    workload.prepare()
    workload.load()
    return workload


@pytest.fixture(scope="module")
def exact_horizon():
    workload = workloads.ExactHorizon(1)
    workload.prepare()
    workload.load()
    return workload


def test_exact_size_checks_catch_a_shifted_eigenvalue(exact_size):
    for spec, chain in zip(exact_size.specs, exact_size.objects):
        law = BUILDERS[spec.builder](chain, spec.m0)
        assert workloads.law_problem(evaluate(law, spec.grid), spec.mean, spec.cdf) is None, spec.label
        wrong = evaluate(shifted(law), spec.grid)
        assert workloads.law_problem(wrong, spec.mean, spec.cdf) is not None, spec.label


def test_exact_horizon_checks_catch_a_shifted_eigenvalue(exact_horizon):
    w = exact_horizon
    kernel, gen, ergodic = w.objects
    steps = np.arange(w.horizon + 1)
    law = laws.absorption_law(kernel)
    assert ref.cdf_ok(law.cdf(steps), w.cdf)
    assert ref.quantile_ok(law.quantile(w.level), w.level, w.cdf)
    wrong = shifted(law)
    assert not ref.cdf_ok(wrong.cdf(steps), w.cdf)
    assert not ref.quantile_ok(wrong.quantile(w.level), w.level, w.cdf)

    law = laws.hypoexp_law(gen, w.m0)
    assert workloads.law_problem(evaluate(law, w.times), w.continuous_mean, w.continuous_cdf) is None
    wrong = evaluate(shifted(law), w.times)
    assert workloads.law_problem(wrong, w.continuous_mean, w.continuous_cdf) is not None

    sst = laws.sst_law(ergodic)
    sst_steps = steps[: w.sst_horizon + 1]
    assert ref.cdf_ok(sst.cdf(sst_steps), 1.0 - w.separation)
    assert not ref.cdf_ok(shifted(sst).cdf(sst_steps), 1.0 - w.separation)


def test_verify_outcome_catches_a_shifted_eigenvalue():
    workload = workloads.VerifyCoupled(1)
    workload.prepare()
    workload.load()
    for (label, _, mode), chain, (mean, var) in zip(workload.specs, workload.objects,
                                                     workload.moments):
        law = laws.hypoexp_law(chain) if mode == "continuous" else laws.absorption_law(chain)
        for candidate, good in ((law, True), (shifted(law), False)):
            report = ssdual.verify(chain, mode=mode, samples=workload.traces, seed=0, law=candidate)
            assert (workloads.verify_problem(report, mean, var) is None) is good, label


def test_verify_rejects_the_perturbed_law():
    assert workloads.negative_control_rejected()


def test_references_agree_with_brute_force():
    rng = np.random.default_rng(3)
    mat = workloads.chains.skip_free(rng, 12)
    m0 = workloads.chains.initial_law(rng, 12)
    v = m0.copy()
    brute = []
    for _ in range(5000):
        brute.append(v[-1])
        v = v @ mat
    assert np.abs(ref.discrete_cdf(mat, m0, 4999) - brute).max() < 1e-13
    mean, _ = ref.discrete_moments(mat, m0)
    assert abs(mean - sum(1.0 - np.array(brute))) < 1e-6 * mean
