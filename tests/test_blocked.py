"""Blocked evaluation of CDFs, quantiles and separation against step-by-step references.

The library evaluates F(t) = e0 Phat^t w and m0 P^t a block of B steps at a
time.  The references below advance one step at a time, as the library did
before blocking, so any change in the values comes from the order of the
floating-point sums only.  Above B levels the giant step Phat^B, built on
its band, is checked bit for bit against the dense n x n steps it replaced;
up to B levels it comes from the power ladder (doubling), checked against
the same steps to a tolerance, as is the continuous giant step against the
band's Poisson sum.  Continuous
laws, evaluated by the giant step exp(Ghat h), are checked against closed
forms and against scipy's ``expm`` of the primal generator.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ssdual import (
    ContinuousAbsorptionLaw,
    DiscreteAbsorptionLaw,
    HorizonExceeded,
    RateGenerator,
    TransitionKernel,
    absorption_law,
    hypoexp_law,
    power_cdf_oracle,
    separation,
    stationary_law,
)
from ssdual import laws
from ssdual.config import _BLOCK_STEPS as B
from ssdual.config import CDF_TAIL, MAX_HORIZON
from ssdual.duality import _dense
from ssdual.families import (
    random_birth_death_generator,
    random_birth_death_kernel,
    random_ergodic_birth_death,
    random_initial_law,
    random_skipfree_generator,
    random_skipfree_kernel,
    random_upper_triangular_kernel,
)

from conftest import BD3_MATRIX, CT21_MATRIX, ERG3_MATRIX, stiff_birth_death_generator

#: block edges, and None for the law's 0.999 quantile
HORIZONS = (0, B - 1, B, B + 1, 3 * B + 7, None)


def stepwise_cdf(law: DiscreteAbsorptionLaw, horizon: int) -> np.ndarray:
    """F(0..horizon) by the pure-birth recurrence, one step at a time, on the
    law's own levels (a signed spectrum's in stable pairs)."""
    w = law.level_weights
    hold, move = law._hold, law._move
    occ = np.zeros(len(w), dtype=hold.dtype)
    occ[0] = 1.0
    out = [occ @ w]
    for _ in range(horizon):
        nxt = occ * hold
        nxt[1:] += occ[:-1] * move[:-1]
        occ = nxt
        out.append(occ @ w)
    return np.real(np.array(out))


def dense_giant_step(law: DiscreteAbsorptionLaw) -> np.ndarray:
    """Phat^B by B dense n x n steps, as the library built it before the band."""
    power = np.eye(len(law._hold), dtype=law._dtype)
    for _ in range(B):
        nxt = power * law._hold
        nxt[:, 1:] += power[:, :-1] * law._move[:-1]
        power = nxt
    return power


def stepwise_separation(kernel: TransitionKernel, m0, t_max: int | None):
    """(s, argmin_state) one step at a time, ties resolved in the target's favour."""
    pi = stationary_law(kernel)
    d = kernel.d
    v = np.zeros(kernel.n) if m0 is None else np.asarray(m0, dtype=float)
    if m0 is None:
        v[0] = 1.0
    s_vals, args = [], []
    t = 0
    while True:
        ratios = v / pi
        m = ratios.min()
        s_vals.append(1.0 - m)
        args.append(d if ratios[d] <= m + 1e-12 * (1.0 + abs(m)) else int(np.argmin(ratios)))
        if t_max is not None and t >= t_max:
            break
        if t_max is None and s_vals[-1] < CDF_TAIL:
            break
        v = v @ kernel.matrix
        t += 1
    return np.array(s_vals), np.array(args)


def _kernel(mat) -> TransitionKernel:
    return TransitionKernel(mat)


def bounded_drop_skipfree(rng: np.random.Generator, n: int) -> np.ndarray:
    """Skip-free kernel with drops of at most three levels: complex spectrum, moderate mean."""
    mat = np.zeros((n, n))
    for i in range(n - 1):
        up = rng.uniform(0.3, 0.6)
        drop = rng.uniform(0.05, 0.2) if i else 0.0
        mat[i, i + 1] = up
        if i:
            low = max(0, i - 3)
            spread = rng.random(i - low)
            mat[i, low:i] = drop * spread / spread.sum()
        mat[i, i] = 1.0 - up - drop
    mat[n - 1, n - 1] = 1.0
    return mat


LAW_CHAINS = {
    "bd3": lambda: TransitionKernel(np.array(BD3_MATRIX)),
    "lazy_birth_death": lambda: _kernel(random_birth_death_kernel(np.random.default_rng(3), 12, lazy=True)),
    "signed_birth_death": lambda: _kernel(random_birth_death_kernel(np.random.default_rng(0), 50)),
    "complex_skipfree": lambda: _kernel(bounded_drop_skipfree(np.random.default_rng(0), 100)),
}


@pytest.fixture(scope="module", params=sorted(LAW_CHAINS))
def chain_law(request):
    kernel = LAW_CHAINS[request.param]()
    return request.param, kernel, absorption_law(kernel)


class TestDiscreteBlocks:
    def test_spectrum_kinds_covered(self, chain_law):
        name, _, law = chain_law
        if name == "signed_birth_death":
            assert not np.iscomplexobj(law.thetas) and law.thetas.min() < 0.0
        if name == "complex_skipfree":
            assert np.iscomplexobj(law.thetas)
        if name in ("bd3", "lazy_birth_death"):
            assert law.thetas.min() >= 0.0

    @pytest.mark.parametrize("horizon", HORIZONS)
    def test_matches_stepwise_and_oracle(self, chain_law, horizon):
        _, kernel, law = chain_law
        fresh = DiscreteAbsorptionLaw(law.thetas, law.level_weights)
        if horizon is None:
            horizon = law.quantile(0.999)
        blocked = np.atleast_1d(fresh.cdf(np.arange(horizon + 1)))
        assert np.abs(blocked - stepwise_cdf(law, horizon)).max() <= 1e-12
        assert np.abs(blocked - power_cdf_oracle(kernel, None, horizon)).max() <= 1e-10

    def test_growth_in_steps_gives_same_cache(self, chain_law):
        _, _, law = chain_law
        step = DiscreteAbsorptionLaw(law.thetas, law.level_weights)
        step.cdf(5)
        step.cdf(10**4)
        q = step.quantile(0.999)
        kept = step._cdf(0)
        once = DiscreteAbsorptionLaw(law.thetas, law.level_weights)
        once.cdf(np.arange(len(kept)))
        assert len(kept) % B == 0
        np.testing.assert_array_equal(kept, once._cdf(0)[: len(kept)])
        assert once.quantile(0.999) == q

    def test_pmf_at_zero_and_negative(self, chain_law):
        _, _, law = chain_law
        fresh = DiscreteAbsorptionLaw(law.thetas, law.level_weights)
        assert fresh.pmf(-3) == 0.0
        assert fresh.cdf(-1) == 0.0
        assert fresh.pmf(0) == fresh.cdf(0)
        np.testing.assert_array_equal(fresh.pmf(np.array([-2, -1])), [0.0, 0.0])
        pm = fresh.pmf(np.arange(2 * B))
        assert np.abs(np.cumsum(pm) - stepwise_cdf(law, 2 * B - 1)).max() <= 1e-12


GIANT_CHAINS = {
    # duals with more than B levels, whose giant step is built on the band
    "complex_skipfree": LAW_CHAINS["complex_skipfree"],
    # n = B + 1: the band is the whole upper triangle; n = B + 2: the first narrower band
    "signed_birth_death_B+1": lambda: _kernel(random_birth_death_kernel(np.random.default_rng(0), B + 1)),
    "complex_skipfree_B+2": lambda: _kernel(bounded_drop_skipfree(np.random.default_rng(0), B + 2)),
    "lazy_birth_death_200": lambda: _kernel(random_birth_death_kernel(np.random.default_rng(3), 200, lazy=True)),
}


@pytest.mark.parametrize("name", sorted(GIANT_CHAINS))
def test_band_giant_step_matches_dense_steps(name):
    law = absorption_law(GIANT_CHAINS[name]())
    assert not law._laddered
    banded = DiscreteAbsorptionLaw(law.thetas, law.level_weights)
    dense = DiscreteAbsorptionLaw(law.thetas, law.level_weights)
    dense._giant = dense_giant_step(dense)
    # equal as numbers; only the sign of zeros below the diagonal may differ
    np.testing.assert_array_equal(banded._giant, dense._giant)
    assert banded._cdf(20_000).tobytes() == dense._cdf(20_000).tobytes()


LADDER_FAMILIES = {
    # e_d weights from state 0: a signed spectrum in stable pairs
    "signed_birth_death": lambda n: (random_birth_death_kernel(np.random.default_rng(0), n), None),
    # the link's target column from a spread start, the canonical order
    "link_upper_triangular": lambda n: (random_upper_triangular_kernel(np.random.default_rng(0), n),
                                        random_initial_law(np.random.default_rng(1), n)),
    "complex_skipfree": lambda n: (bounded_drop_skipfree(np.random.default_rng(0), n), None),
    "lazy_birth_death": lambda n: (random_birth_death_kernel(np.random.default_rng(0), n, lazy=True), None),
}


@pytest.mark.parametrize("n", [2, 3, B - 1, B])
@pytest.mark.parametrize("family", sorted(LADDER_FAMILIES))
def test_ladder_giant_step_and_cdf_match_steps(family, n):
    # up to B levels the baby and giant steps come by doubling, so they agree
    # with B dense steps to rounding rather than bit for bit
    mat, m0 = LADDER_FAMILIES[family](n)
    law = absorption_law(TransitionKernel(mat), m0)
    assert law._laddered
    if n >= B - 1:
        assert np.iscomplexobj(law.thetas) == (family == "complex_skipfree")
        if family == "signed_birth_death":
            assert law.thetas.min() < 0.0
        assert law.level_weights[:-1].any() == (family == "link_upper_triangular")
    dense = dense_giant_step(law)
    assert np.abs(law._giant - dense).max() <= 1e-13 * np.abs(dense).max()
    assert np.abs(law.cdf(np.arange(20_001)) - stepwise_cdf(law, 20_000)).max() <= 1e-12


def test_growth_past_the_power_cap_gives_same_cache():
    # on 200 levels the block rows double only up to 4 rows per product
    law = absorption_law(GIANT_CHAINS["lazy_birth_death_200"]())
    step = DiscreteAbsorptionLaw(law.thetas, law.level_weights)
    for t in (5, 10**4, 20_000):
        step.cdf(t)
    q = step.quantile(0.999)
    kept = step._cdf(0)
    lo, hi = step._rows.span(len(kept) // B - 1)
    assert hi - lo == 4 and len(kept) // B > 16
    once = DiscreteAbsorptionLaw(law.thetas, law.level_weights)
    once.cdf(np.arange(len(kept)))
    np.testing.assert_array_equal(kept, once._cdf(0)[: len(kept)])
    assert once.quantile(0.999) == q


LONG_CHAINS = {
    "signed_birth_death_200": lambda: random_birth_death_kernel(np.random.default_rng(0), 200),
    "complex_skipfree_20": lambda: random_skipfree_kernel(np.random.default_rng(0), 20),
}


@pytest.mark.parametrize("name", sorted(LONG_CHAINS))
def test_long_horizon_matches_stepwise_and_oracle(name):
    # 313 blocks, their rows from squares of the giant step: up to S^128 on 20 levels, S^4 on 200
    kernel = TransitionKernel(LONG_CHAINS[name]())
    law = absorption_law(kernel)
    assert np.iscomplexobj(law.thetas) == (name == "complex_skipfree_20")
    blocked = law.cdf(np.arange(20_001))
    assert np.abs(blocked - stepwise_cdf(law, 20_000)).max() <= 1e-12
    assert np.abs(blocked - power_cdf_oracle(kernel, None, 20_000)).max() <= 1e-10


def test_single_block_builds_no_giant_step():
    # on the ladder (3 levels) S comes with the baby steps but is not read;
    # on the band (200 levels) it is not formed at all
    for kernel in (LAW_CHAINS["bd3"](), GIANT_CHAINS["lazy_birth_death_200"]()):
        law = absorption_law(kernel)
        law.cdf(B - 1)
        assert "_giant" not in vars(law) and not law._rows.powers
        law.cdf(B)
        assert "_giant" in vars(law) and law._rows.powers


def test_empty_grid():
    law = absorption_law(TransitionKernel(np.array(BD3_MATRIX)))
    assert law.cdf(np.array([], dtype=int)).shape == (0,)


def test_quantile_past_horizon_raises_quickly():
    # two states, leaving at rate 1e-8 per step: mean 1e8 >> MAX_HORIZON
    law = DiscreteAbsorptionLaw(np.array([1.0 - 1e-8]), np.array([0.0, 1.0]))
    start = time.perf_counter()
    with pytest.raises(HorizonExceeded):
        law.quantile(1.0 - 1e-6)
    assert time.perf_counter() - start < 5.0
    assert MAX_HORIZON < len(law._cdf(0)) <= MAX_HORIZON + B
    assert law.cdf(MAX_HORIZON) == pytest.approx(1.0 - (1.0 - 1e-8) ** MAX_HORIZON, rel=1e-9)


def test_stable_pairs_order():
    thetas = np.array([-0.5, -0.2, 0.0, 0.1, 0.3, 0.6])
    # -0.5 pairs with 0.6 and -0.2 with 0.3, the positive first; 0.0 and 0.1 follow
    assert laws._stable_pairs(thetas).tolist() == [0.6, -0.5, 0.3, -0.2, 0.0, 0.1]
    for kept in ([0.1, 0.2], [-0.5, 0.3, 0.4], [-0.3, -0.2, 0.5], [-0.2, 0.0]):
        kept = np.array(kept)
        assert laws._stable_pairs(kept) is kept


def test_stable_pairs_only_for_a_point_mass_start():
    thetas = np.array([-0.5, 0.6])
    assert DiscreteAbsorptionLaw(thetas, [0.0, 0.0, 1.0])._hold.tolist() == [0.6, -0.5, 1.0]
    law = DiscreteAbsorptionLaw(thetas, [0.25, 0.5, 1.0])
    assert law._hold.tolist() == [-0.5, 0.6, 1.0]
    assert law.thetas is thetas


@pytest.mark.parametrize("n", [80, 100, 120, 200])
def test_signed_birth_death_in_stable_pairs(n):
    # in the canonical order the CDF was off by 5e-9 to 5e6 here, and the
    # largest entry of the giant step was 2e6 to 2e17
    kernel = TransitionKernel(random_birth_death_kernel(np.random.default_rng(0), n))
    law = absorption_law(kernel)
    assert law.thetas.min() < 0.0 and np.all(np.diff(law.thetas) >= 0.0)
    oracle = power_cdf_oracle(kernel, None, 34_000)
    assert np.abs(law.cdf(np.arange(20_001)) - oracle[:20_001]).max() <= 1e-12
    assert oracle[-1] >= 1.0 - 1e-6
    assert law.quantile(1.0 - 1e-6) == int(np.argmax(oracle >= 1.0 - 1e-6))
    assert np.abs(law._giant).max() <= 1.0


def test_continuous_cdf_past_the_horizon_raises_before_allocating():
    # rates 1e-4 to 1e2: the Poisson series at the mean would have 2.2e10 terms
    law = hypoexp_law(RateGenerator(stiff_birth_death_generator(8, -4.0, 2.0)))
    with pytest.raises(HorizonExceeded, match="Poisson series"):
        law.cdf(law.mean())
    # no baby steps, giant step or block rows were formed
    assert not {"_baby", "_exp_giant", "_exp_rows"} & set(vars(law.discrete))
    with pytest.raises(HorizonExceeded):
        law.quantile(0.5)


SEPARATION_CHAINS = {
    "erg3": lambda: TransitionKernel(np.array(ERG3_MATRIX)),
    "ergodic_bd_6": lambda: _kernel(random_ergodic_birth_death(np.random.default_rng(1), 6)),
    "ergodic_bd_9": lambda: _kernel(random_ergodic_birth_death(np.random.default_rng(2), 9)),
}


@pytest.mark.parametrize("name", sorted(SEPARATION_CHAINS))
@pytest.mark.parametrize("start", ["point", "spread"])
class TestSeparationBlocks:
    @staticmethod
    def _start(kernel, start):
        return None if start == "point" else random_initial_law(np.random.default_rng(5), kernel.n)

    @pytest.mark.parametrize("t_max", [0, B - 1, B, 3 * B + 7])
    def test_fixed_horizon(self, name, start, t_max):
        kernel = SEPARATION_CHAINS[name]()
        m0 = self._start(kernel, start)
        prof = separation(kernel, m0, t_max=t_max)
        s, args = stepwise_separation(kernel, m0, t_max)
        assert len(prof.s) == t_max + 1
        assert np.abs(prof.s - s).max() <= 1e-12
        np.testing.assert_array_equal(prof.argmin_state, args)
        assert prof.minimized_at_target == bool(np.all(args == kernel.d))

    def test_scan_stops_at_same_step(self, name, start):
        kernel = SEPARATION_CHAINS[name]()
        m0 = self._start(kernel, start)
        prof = separation(kernel, m0)
        s, args = stepwise_separation(kernel, m0, None)
        assert len(prof.s) == len(s)
        assert prof.s[-1] < CDF_TAIL
        assert np.abs(prof.s - s).max() <= 1e-12
        np.testing.assert_array_equal(prof.argmin_state, args)


@pytest.mark.parametrize("n", [60, 100])
def test_separation_on_wider_chains(n):
    # blocks of 64 steps on 60 states, of 16 on 100 (a power of two <= 2^18 / n^2)
    kernel = TransitionKernel(random_ergodic_birth_death(np.random.default_rng(0), n))
    m0 = random_initial_law(np.random.default_rng(1), n)
    for t_max in (3 * B + 7, 2000):
        prof = separation(kernel, m0, t_max=t_max)
        s, args = stepwise_separation(kernel, m0, t_max)
        assert np.abs(prof.s - s).max() <= 1e-12
        np.testing.assert_array_equal(prof.argmin_state, args)


def test_separation_rejects_a_negative_horizon():
    with pytest.raises(ValueError, match="t_max must be nonnegative"):
        separation(TransitionKernel(np.array(ERG3_MATRIX)), t_max=-1)


def test_separation_ties_favour_target():
    # started at stationarity every ratio is 1: the target wins each tie
    kernel = TransitionKernel(np.array(ERG3_MATRIX))
    prof = separation(kernel, stationary_law(kernel), t_max=2 * B)
    assert prof.minimized_at_target
    assert np.all(prof.argmin_state == kernel.d)
    # started at the target, the minimizer leaves it and the flag records that
    prof = separation(kernel, [0.0, 0.0, 1.0], t_max=B + 1)
    _, args = stepwise_separation(kernel, [0.0, 0.0, 1.0], B + 1)
    np.testing.assert_array_equal(prof.argmin_state, args)
    assert not prof.minimized_at_target


def test_separation_non_mixing_raises():
    eps = 1e-8
    kernel = TransitionKernel(np.array([[1.0 - eps, eps], [eps, 1.0 - eps]]))
    with pytest.raises(HorizonExceeded):
        separation(kernel)
    assert len(separation(kernel, t_max=3 * B + 7).s) == 3 * B + 8


def test_continuous_chunks_match_scalar_calls():
    gen = RateGenerator(random_skipfree_generator(np.random.default_rng(4), 6))
    law = hypoexp_law(gen, random_initial_law(np.random.default_rng(4), 6))
    # the series runs to k = 84 here, so the 1000 times span two chunks
    ts = np.linspace(0.0, 3.0 * law.mean(), 1000)
    batch = law.cdf(ts)
    single = np.array([law.cdf(float(t)) for t in ts])
    assert np.abs(batch - single).max() <= 1e-14
    assert isinstance(law.cdf(1.0), float)
    assert law.cdf(np.array([])).shape == (0,)


#: uniformization steps in one continuous giant step
MU_H = B / 4


def _bounded_skipfree_generator(rng: np.random.Generator, n: int) -> np.ndarray:
    """Skip-free rate matrix whose drops stay small, so the target is reached in
    a few hundred time units even at n = 25 (``random_skipfree_generator``'s
    drops grow with the level, and its slowest mode rounds to zero there)."""
    gen = np.zeros((n, n))
    for i in range(n - 1):
        gen[i, i + 1] = rng.uniform(0.5, 2.0)
        if i > 0:
            gen[i, :i] = rng.random(i) * rng.uniform(0.05, 0.3) / i
        gen[i, i] = -gen[i].sum()
    return gen


CONTINUOUS_CHAINS = {
    "bd_gen_40": lambda: (random_birth_death_generator(np.random.default_rng(0), 40), None),
    "skipfree_gen_6": lambda: (random_skipfree_generator(np.random.default_rng(4), 6),
                               random_initial_law(np.random.default_rng(4), 6)),
    "skipfree_gen_25": lambda: (_bounded_skipfree_generator(np.random.default_rng(5), 25),
                                random_initial_law(np.random.default_rng(5), 25)),
}


def _edge_time(rate: float, k: int) -> float:
    """A time t with rate * t == j * MU_H exactly in floating point, for the
    first block edge j >= k where one exists."""
    for j in range(k, k + 16):
        t = j * MU_H / rate
        for t in (np.nextafter(t, 0.0), t, np.nextafter(t, np.inf)):
            if rate * t == j * MU_H:
                return float(t)
    raise AssertionError(f"no exact block edge from {k} at rate {rate!r}")


def _probe_times(law) -> np.ndarray:
    """0, block edges 1, 3 and 17 with 1e-9 (relative) on either side, and a deep-tail time."""
    ts = [0.0]
    for k in (1, 3, 17):
        t = _edge_time(law.rate, k)
        ts += [t * (1.0 - 1e-9), t, t * (1.0 + 1e-9)]
    ts.append(law.quantile(1.0 - 1e-10))
    return np.array(ts)


def test_continuous_giant_step_poisson_tail():
    from scipy import stats

    # the giant step sums Poisson(MU_H) weights over 0..B-1 steps only
    assert stats.poisson.sf(B - 1, MU_H) < 1e-16
    mus = np.array([0.0, 1e-9, 0.5, 7.25, MU_H - 1e-9, MU_H])
    weights = laws._poisson_weights(mus)
    assert weights.shape == (B, len(mus))
    # scipy forms the pmf as exp(j log mu - mu - log j!), good to ~1e-14 relative
    np.testing.assert_allclose(weights, stats.poisson.pmf(np.arange(B)[:, None], mus),
                               rtol=1e-13, atol=0.0)


def test_continuous_ct21_closed_form():
    law = hypoexp_law(RateGenerator(np.array(CT21_MATRIX)))
    ts = _probe_times(law)
    exact = 1.0 - 2.0 * np.exp(-ts) + np.exp(-2.0 * ts)
    assert np.abs(law.cdf(ts) - exact).max() <= 1e-12
    assert law.cdf(0.0) == 0.0


@pytest.mark.parametrize("name", sorted(CONTINUOUS_CHAINS))
def test_continuous_cdf_matches_expm(name):
    from scipy.linalg import expm

    gen, m0 = CONTINUOUS_CHAINS[name]()
    law = hypoexp_law(RateGenerator(gen), m0)
    start = np.eye(len(gen))[0] if m0 is None else m0
    ts = _probe_times(law)
    oracle = np.array([start @ expm(gen * t)[:, -1] for t in ts])
    assert np.abs(law.cdf(ts) - oracle).max() <= 1e-12
    assert oracle[-1] >= 1.0 - 1e-9
    # the deep-tail time lies past the last block edge probed
    assert len(law.discrete._exp_blocks(0)) > 17


@pytest.mark.parametrize("name", sorted(CONTINUOUS_CHAINS))
def test_continuous_growth_in_steps_gives_same_blocks(name):
    gen, m0 = CONTINUOUS_CHAINS[name]()
    law = hypoexp_law(RateGenerator(gen), m0)
    # 600 blocks: past the power cap of 512, 128 and 64 rows on 6, 25 and 40 levels
    ts = np.linspace(0.0, 600 * MU_H / law.rate, 40)
    for t in ts:
        law.cdf(t)
    once = hypoexp_law(RateGenerator(gen), m0)
    once.cdf(ts)
    kept, once_kept = law.discrete._exp_blocks(0), once.discrete._exp_blocks(0)
    assert len(kept) >= len(once_kept) > 600
    np.testing.assert_array_equal(kept[: len(once_kept)], once_kept)


def test_continuous_laws_of_two_rates_share_the_blocks():
    # E = exp(Ghat h) and its blocks depend on Phat alone; the rate only maps t to (s, r)
    gen, m0 = CONTINUOUS_CHAINS["skipfree_gen_6"]()
    disc = hypoexp_law(RateGenerator(gen), m0).discrete
    ts = np.linspace(0.0, 5.0 * disc.mean(), 300)
    shared = [ContinuousAbsorptionLaw(disc, rate) for rate in (1.0, 3.7)]
    # the slow law first, then the fast one grows the blocks, then the slow one again
    values = [shared[0].cdf(ts[::2]), shared[1].cdf(ts), shared[0].cdf(ts)]
    fresh = [ContinuousAbsorptionLaw(DiscreteAbsorptionLaw(disc.thetas, disc.level_weights), rate)
             for rate in (1.0, 3.7)]
    expected = [fresh[0].cdf(ts[::2]), fresh[1].cdf(ts), fresh[0].cdf(ts)]
    for got, want in zip(values, expected):
        assert got.tobytes() == want.tobytes()


def _band_poisson_sum(law) -> np.ndarray:
    """E as the sum of Poisson(j; B / 4) Phat^j over the band's B steps."""
    weights = laws._poisson_weights(np.array([MU_H]))[:, 0]
    powers = law.discrete._band_powers(B - 1)
    total = weights[0] * next(powers)
    for weight, band in zip(weights[1:], powers):
        total += weight * band
    total[0, -1] = 1.0
    return _dense(total)


LADDER_GENERATORS = {
    **{f"bd_gen_{n}": (lambda n=n: (random_birth_death_generator(np.random.default_rng(0), n), None))
       for n in (2, 3, 40, B)},
    "skipfree_gen_6": CONTINUOUS_CHAINS["skipfree_gen_6"],
    "skipfree_gen_25": CONTINUOUS_CHAINS["skipfree_gen_25"],
}


@pytest.mark.parametrize("name", sorted(LADDER_GENERATORS))
def test_continuous_ladder_giant_step_matches_band_sum(name):
    # Horner in Phat^8 on the ladder's powers against the band's term-by-term sum
    gen, m0 = LADDER_GENERATORS[name]()
    law = hypoexp_law(RateGenerator(gen), m0)
    assert law.discrete._laddered
    band = _band_poisson_sum(law)
    assert np.abs(law.discrete._exp_giant - band).max() <= 1e-15 * np.abs(band).max()


def test_continuous_giant_step_keeps_the_absorbed_mass():
    gen, _ = CONTINUOUS_CHAINS["bd_gen_40"]()
    law = hypoexp_law(RateGenerator(gen))
    law.cdf(1.0)
    giant = law.discrete._exp_giant
    assert giant[-1, -1] == 1.0
    assert np.abs(giant.sum(axis=1) - 1.0).max() <= 1e-14
    assert giant.min() >= 0.0


def _loaded_by_import(module: str) -> bool:
    """Whether a fresh ``import ssdual`` loads ``module``."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = f"import sys, ssdual; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    return out.stdout.strip() == "True"


def test_import_leaves_scipy_stats_unloaded():
    assert not _loaded_by_import("scipy.stats")


def test_import_leaves_scipy_linalg_unloaded():
    assert not _loaded_by_import("scipy.linalg")


def test_import_leaves_the_process_pool_unloaded():
    assert not _loaded_by_import("concurrent.futures.process")


def test_discrete_commands_leave_scipy_linalg_and_stats_unloaded(tmp_path):
    # every discrete command in one fresh interpreter, then its module table
    for name, matrix in (("bd3", BD3_MATRIX), ("erg3", ERG3_MATRIX)):
        (tmp_path / f"{name}.json").write_text(
            json.dumps({"mode": "discrete", "matrix": matrix}), encoding="utf-8")
    runs = [
        ["validate", "bd3.json"],
        ["spectrum", "bd3.json"],
        ["dual", "erg3.json"],
        ["absorption", "bd3.json", "--oracle", "--out", "abs"],
        ["sst", "erg3.json", "--oracle", "--out", "sst"],
        ["simulate", "bd3.json", "--samples", "2000", "--seed", "2"],
        ["verify", "bd3.json", "--samples", "2000", "--seed", "1"],
    ]
    unloaded = ["scipy.linalg", "scipy.stats", "scipy.special", "concurrent.futures.process"]
    code = (
        "import contextlib, io, json, sys\n"
        "from ssdual.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(argv) for argv in {runs!r}]\n"
        f"print(json.dumps([codes, [m for m in {unloaded!r} if m in sys.modules]]))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    codes, loaded = json.loads(out.stdout)
    assert codes == [0] * len(runs)
    assert loaded == []


def test_validate_loads_no_scipy(tmp_path):
    (tmp_path / "bd3.json").write_text(json.dumps({"mode": "discrete", "matrix": BD3_MATRIX}),
                                       encoding="utf-8")
    code = (
        "import contextlib, io, json, sys\n"
        "from ssdual.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['validate', 'bd3.json'])\n"
        "print(json.dumps([code, 'scipy' in sys.modules]))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert json.loads(out.stdout) == [0, False]


def test_continuous_absorption_loads_no_scipy_stats(tmp_path):
    (tmp_path / "ct21.json").write_text(
        json.dumps({"mode": "continuous", "matrix": CT21_MATRIX}), encoding="utf-8")
    code = (
        "import contextlib, io, json, sys\n"
        "from ssdual.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['absorption', 'ct21.json'])\n"
        "print(json.dumps([code, [m for m in ('scipy.stats', 'scipy.special') if m in sys.modules]]))\n"
    )
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(src)}, check=True)
    assert json.loads(out.stdout) == [0, []]
