"""One Analysis per chain: each costly stage of the construction runs once per request."""

from __future__ import annotations

import collections
import sys

import numpy as np
import pytest

from ssdual import (
    Analysis,
    DiscreteAbsorptionLaw,
    NotErgodic,
    RateGenerator,
    TransitionKernel,
    absorption_law,
    classify_generator,
    classify_kernel,
    separation,
    uniformize,
    verify,
)
from ssdual import laws
from ssdual.cli import main
from ssdual.families import (
    random_birth_death_generator,
    random_ergodic_birth_death,
    random_skipfree_generator,
)

from conftest import BD3_MATRIX, CT21_MATRIX, ERG3_MATRIX, GEN3_MATRIX

#: stage -> the functions that perform it
STAGES = {
    "classify": ("classify_kernel", "classify_generator"),
    "eigenvalues": ("eigenvalues",),
    "link": ("build_link",),
    "modified": ("build_modified_dual",),
    "stationary": ("stationary_law",),
    "monotone": ("check_monotone_reversal",),
}


@pytest.fixture
def stage_counts(monkeypatch):
    """Count the stage calls, with each function wrapped wherever an ssdual module binds it."""
    counts = collections.Counter()
    modules = [m for key, m in sys.modules.items()
               if m is not None and (key == "ssdual" or key.startswith("ssdual."))]
    for stage, names in STAGES.items():
        for name in names:
            original = getattr(sys.modules["ssdual"], name)

            def wrapper(*args, _fn=original, _stage=stage, **kwargs):
                counts[_stage] += 1
                return _fn(*args, **kwargs)

            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, wrapper)
    return counts


SAMPLES = ["--samples", "2000", "--seed", "12"]


@pytest.mark.parametrize("argv, expected", [
    # sst: the second classification is stationary_law's own input check; ERG3
    # is skip-free from 0, so its law needs no link
    (["sst", "erg3", "--oracle"],
     dict(classify=2, eigenvalues=1, stationary=1, monotone=1)),
    (["verify", "bd3", *SAMPLES], dict(classify=1, eigenvalues=1, link=1)),
    (["verify", "gen3i", "--mode", "general", *SAMPLES],
     dict(classify=1, eigenvalues=1, link=1, modified=1)),
    (["verify", "ct21", *SAMPLES], dict(classify=1, eigenvalues=1, link=1)),
    (["absorption", "ct21"], dict(classify=1, eigenvalues=1)),
    (["spectrum", "bd3"], dict(classify=1, eigenvalues=1)),
], ids=["sst-erg3", "verify-bd3", "verify-gen3-general", "verify-ct21", "absorption-ct21",
        "spectrum-bd3"])
def test_cli_runs_each_stage_once(chain_file, stage_counts, capsys, argv, expected):
    files = {
        "bd3": chain_file(BD3_MATRIX, name="bd3.json"),
        "gen3i": chain_file(GEN3_MATRIX, name="gen3i.json", initial=[0.3, 0.5, 0.2]),
        "erg3": chain_file(ERG3_MATRIX, name="erg3.json"),
        "ct21": chain_file(CT21_MATRIX, mode="continuous", name="ct21.json"),
    }
    command, chain, *rest = argv
    assert main([command, files[chain], *rest]) == 0
    capsys.readouterr()
    assert dict(stage_counts) == expected


@pytest.mark.parametrize("chain, mode, m0, expected", [
    ("bd3", "skipfree", None, dict(classify=1, eigenvalues=1, link=1)),
    ("gen3", "general", [0.3, 0.5, 0.2], dict(classify=1, eigenvalues=1, link=1, modified=1)),
    ("ct21", "continuous", None, dict(classify=1, eigenvalues=1, link=1)),
])
def test_library_verify_runs_each_stage_once(request, stage_counts, chain, mode, m0, expected):
    verify(request.getfixturevalue(chain), mode=mode, samples=2000, seed=12, m0=m0)
    assert dict(stage_counts) == expected


@pytest.mark.parametrize("n", [400, 500, 800])
def test_skip_free_sst_law_reads_the_spectrum_alone(stage_counts, n):
    # from n = 500 the link's recurrence overflows; the law once read its NaN
    # target column and came back with a NaN mean
    kernel = TransitionKernel(random_ergodic_birth_death(np.random.default_rng(0), n))
    analysis = Analysis(kernel)
    law = analysis.sst_law()
    assert stage_counts["link"] == 0
    assert np.isfinite(law.mean()) and np.isfinite(law.cdf(10))
    e_d = np.eye(1, n, n - 1)[0]
    reference = DiscreteAbsorptionLaw(analysis.spectrum.nonunit, e_d)
    assert law.kind == reference.kind == "geometric_convolution"
    np.testing.assert_array_equal(law.thetas, reference.thetas)
    np.testing.assert_array_equal(law.level_weights, reference.level_weights)
    if n <= 500:
        t = 10**5
        power = np.linalg.matrix_power(kernel.matrix, t)[0]
        sep = float(np.max(1.0 - power / analysis.stationary))
        assert abs(law.cdf(t) - (1.0 - sep)) <= 1e-10


def test_stages_are_cached(gen3, stage_counts):
    analysis = Analysis(gen3, [0.3, 0.5, 0.2])
    for _ in range(2):
        law = analysis.absorption_law()
        assert analysis.modified.link.rows.shape == (3, 3)
        assert analysis.dual.thetas is analysis.spectrum.values
    assert law.mean() == absorption_law(gen3, [0.3, 0.5, 0.2]).mean()
    assert dict(stage_counts) == dict(classify=2, eigenvalues=2, link=2, modified=1)


@pytest.mark.parametrize("m0, t_max", [(None, None), ([0.2, 0.3, 0.5], 150)])
def test_separation_reads_the_analysis(erg3, bd3, stage_counts, m0, t_max):
    analysis = Analysis(erg3, m0)
    profile = analysis.separation(t_max)
    assert dict(stage_counts) == dict(classify=2, stationary=1)  # pi's own input check
    reference = separation(erg3, m0, t_max)
    assert np.array_equal(profile.s, reference.s)
    assert np.array_equal(profile.argmin_state, reference.argmin_state)
    assert profile.minimized_at_target == reference.minimized_at_target
    with pytest.raises(NotErgodic):
        Analysis(bd3).separation(10)


@pytest.fixture
def separation_calls(monkeypatch):
    """The t_max of every separation scan that an Analysis runs."""
    calls = []

    def counted(kernel, pi, vec, t_max, _fn=laws._separation):
        calls.append(t_max)
        return _fn(kernel, pi, vec, t_max)

    monkeypatch.setattr(laws, "_separation", counted)
    return calls


@pytest.mark.parametrize("extra, expected", [([], [None]), (["--t-max", "50"], [None, 50])])
def test_sst_scans_the_separation_once(chain_file, separation_calls, capsys, extra, expected):
    # started off the point mass, sst certifies by a full scan; the series is cut from it
    path = chain_file(ERG3_MATRIX, initial=[0.2, 0.6, 0.2])
    assert main(["sst", path, *extra]) == 0
    capsys.readouterr()
    assert separation_calls == expected


def test_separation_is_cut_from_the_scan(separation_calls):
    kernel = TransitionKernel(random_ergodic_birth_death(np.random.default_rng(0), 6))
    analysis = Analysis(kernel, [0.0, 1.0, 0.0, 0.0, 0.0, 0.0])
    law = analysis.sst_law()
    assert analysis.certification == "separation-scan"
    scan = analysis.separation()
    assert separation_calls == [None]
    t_max = law.quantile(1.0 - 1e-6)
    assert 64 < t_max < len(scan.s) - 1
    cut = analysis.separation(t_max)
    assert separation_calls == [None]
    assert np.array_equal(cut.s, scan.s[: t_max + 1])
    assert cut.minimized_at_target
    fresh = separation(kernel, analysis.m0, t_max)
    np.testing.assert_array_equal(cut.s, fresh.s)  # the two scans share their spans of rows
    np.testing.assert_array_equal(cut.argmin_state, fresh.argmin_state)
    with pytest.raises(ValueError):
        scan.s[0] = 0.0  # the kept scan is shared, so read-only
    assert len(analysis.separation(len(scan.s)).s) == len(scan.s) + 1
    assert separation_calls == [None, len(scan.s)]


def test_verify_takes_the_callers_analysis(bd3, gen3):
    analysis = Analysis(bd3)
    report = verify(analysis, mode="skipfree", samples=2000, seed=12)
    assert report.to_dict() == verify(bd3, mode="skipfree", samples=2000, seed=12).to_dict()
    with pytest.raises(ValueError, match="own initial law"):
        verify(analysis, mode="skipfree", samples=2000, seed=12, m0=[1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="starts at state 0"):
        verify(Analysis(gen3, [0.3, 0.5, 0.2]), mode="skipfree", samples=2000, seed=12)


def test_generator_class_is_its_uniformized_kernels_class():
    # Analysis classifies a generator once and reuses that class for its kernel
    rng = np.random.default_rng(0)
    for _ in range(400):
        n = int(rng.integers(2, 30))
        draw = random_birth_death_generator if rng.random() < 0.5 else random_skipfree_generator
        mat = draw(rng, n)
        if rng.random() < 0.5:  # an ergodic variant: the target steps down again
            mat[-1, -2], mat[-1, -1] = 1.0, -1.0
        gen = RateGenerator(mat)
        assert classify_generator(gen) == classify_kernel(uniformize(gen)[0])


def test_separation_rejects_a_negative_horizon(erg3, separation_calls):
    # before any scan, and also once a full scan is kept that a cut would read
    analysis = Analysis(erg3)
    with pytest.raises(ValueError, match="t_max must be nonnegative"):
        analysis.separation(-1)
    analysis.separation()
    with pytest.raises(ValueError, match="t_max must be nonnegative"):
        analysis.separation(-1)
    assert separation_calls == [None]
