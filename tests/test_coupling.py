"""Coupled sample paths and the statistical verification harness."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from scipy import stats

from ssdual import (
    Analysis,
    DiscreteAbsorptionLaw,
    InsufficientSamples,
    NotStochasticLink,
    RateGenerator,
    TransitionKernel,
    absorption_law,
    build_dual,
    build_link,
    build_modified_dual,
    eigenvalues,
    promotion_probability,
    simulate_coupled_continuous,
    simulate_coupled_discrete,
    simulate_general_dual,
    trace_stream,
    uniformize,
    verify,
)
from ssdual import coupling
from ssdual.config import _TRACE_BLOCK, _VERIFY_GATES, MAX_HORIZON
from ssdual.families import random_birth_death_kernel, random_initial_law, random_skipfree_kernel

from test_spectral import COMPLEX4

#: conditional cells compared between the lockstep and the scalar simulators
T_CELLS = 8


def _skipfree_parts(kernel):
    spec = eigenvalues(kernel)
    link = build_link(kernel, spec, None)
    dual = build_dual(spec)
    return spec, link, dual


class TestTraceStream:
    def test_reproducible_per_index(self):
        a = trace_stream(9, 4).random(5)
        b = trace_stream(9, 4).random(5)
        assert np.array_equal(a, b)

    def test_distinct_indices_differ(self):
        a = trace_stream(9, 4).random(5)
        b = trace_stream(9, 5).random(5)
        assert not np.array_equal(a, b)


class TestPromotionProbability:
    def test_bd3_spot_value(self, bd3):
        spec, link, _ = _skipfree_parts(bd3)
        p = promotion_probability(spec.nonunit.real, link.rows, 0, 0)
        assert p == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-14)

    def test_forced_when_primal_touches_next_level(self, bd3):
        spec, link, _ = _skipfree_parts(bd3)
        assert promotion_probability(spec.nonunit.real, link.rows, 0, 1) == 1.0

    def test_zero_support_rejected(self, bd3):
        spec, link, _ = _skipfree_parts(bd3)
        rows = np.zeros_like(link.rows)
        with pytest.raises(NotStochasticLink):
            promotion_probability(spec.nonunit.real, rows, 0, 0)


class TestCoupledPaths:
    def test_discrete_invariants(self, bd3):
        spec, link, dual = _skipfree_parts(bd3)
        for idx in range(200):
            tr = simulate_coupled_discrete(bd3, link, dual, trace_stream(1, idx))
            primal = np.array(tr.primal_path)
            shadow = np.array(tr.dual_path)
            assert np.all(primal <= shadow)
            assert tr.t_primal == tr.t_dual
            # dual climbs by at most one level per step
            assert np.all(np.diff(shadow) >= 0) and np.all(np.diff(shadow) <= 1)
            assert tr.largest_dual == bd3.d - 1
            assert primal[-1] == bd3.d and shadow[-1] == bd3.d

    def test_continuous_invariants(self, ct21):
        kernel_u, rate = uniformize(ct21)
        spec = eigenvalues(kernel_u)
        link = build_link(kernel_u, spec, None)
        rates = rate * (1.0 - spec.nonunit.real)
        for idx in range(200):
            tr = simulate_coupled_continuous(ct21, link, rates, trace_stream(2, idx))
            assert tr.t_primal == tr.t_dual
            assert np.all(np.array(tr.primal_path) <= np.array(tr.dual_path))
            assert np.all(np.diff(np.array(tr.event_times)) >= 0.0)

    def test_general_dual_absorbs_with_primal(self, gen3):
        spec = eigenvalues(gen3)
        link = build_link(gen3, spec, None)
        mod = build_modified_dual(gen3, link, spec, None)
        seen_l = set()
        for idx in range(400):
            tr = simulate_general_dual(gen3, mod, trace_stream(3, idx))
            assert tr.t_primal == tr.t_dual
            assert tr.primal_path[-1] == gen3.d
            seen_l.add(tr.largest_dual)
        # GEN3 a-weights are (0, 1/3, 2/3): L takes values 0 and 1, never -1
        assert seen_l == {0, 1}


class TestVerify:
    def test_bd3_passes(self, bd3):
        rep = verify(bd3, mode="skipfree", samples=4000, seed=7)
        assert rep.passed
        assert rep.domination_violations == 0
        assert rep.absorption_mismatches == 0
        assert rep.positivity_violations == 0
        assert rep.structural_l_violations == 0
        assert rep.ks_statistic <= rep.ks_threshold
        assert rep.conditional_cells > 0
        assert rep.empirical_mean == pytest.approx(rep.exact_mean, rel=0.05)

    def test_gen3_general_passes(self, gen3):
        rep = verify(gen3, mode="general", samples=4000, seed=7)
        assert rep.passed
        assert rep.l_chisq_pvalue is not None and rep.l_chisq_pvalue > 0.01
        assert rep.segments_tested > 0
        assert rep.absorption_mismatches == 0

    def test_continuous_passes(self, ct21):
        rep = verify(ct21, mode="continuous", samples=4000, seed=7)
        assert rep.passed
        assert rep.ks_pvalue is not None and rep.ks_pvalue > 0.01
        assert rep.segments_tested > 0

    def test_deterministic_and_partition_independent(self, bd3):
        a = verify(bd3, mode="skipfree", samples=2000, seed=42)
        b = verify(bd3, mode="skipfree", samples=2000, seed=42)
        c = verify(bd3, mode="skipfree", samples=2000, seed=42, jobs=2)
        assert a.to_dict() == b.to_dict() == c.to_dict()
        assert a.absorption_times == c.absorption_times

    def test_seed_changes_report(self, bd3):
        a = verify(bd3, mode="skipfree", samples=2000, seed=42)
        b = verify(bd3, mode="skipfree", samples=2000, seed=43)
        assert a.to_dict() != b.to_dict()

    def test_insufficient_samples(self, bd3):
        with pytest.raises(InsufficientSamples):
            verify(bd3, mode="skipfree", samples=5, seed=1)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_samples_must_be_positive(self, bd3, samples):
        with pytest.raises(ValueError, match="samples must be positive"):
            verify(bd3, samples=samples, seed=1)

    @pytest.mark.parametrize("horizon", [0, -1])
    def test_horizon_must_be_positive(self, bd3, ct21, horizon):
        # once every trace counted as a horizon hit, and verify raised
        # InsufficientSamples for want of a completed trace
        for chain in (bd3, ct21):
            with pytest.raises(ValueError, match="horizon must be at least 1"):
                verify(chain, samples=2000, seed=0, horizon=horizon)

    def test_horizon_hits_fail_the_run(self, bd3):
        rep = verify(bd3, mode="skipfree", samples=2000, seed=2, horizon=4)
        assert rep.horizon_hits > 0
        assert not rep.passed

    def test_perturbed_eigenvalue_fails_ks(self, bd3):
        spec = eigenvalues(bd3)
        thetas = spec.nonunit.real.copy()
        thetas[1] += 0.017
        wrong = DiscreteAbsorptionLaw(thetas, np.array([0.0, 0.0, 1.0]))
        rep = verify(bd3, mode="skipfree", samples=20000, seed=3, law=wrong)
        assert not rep.ks_passed
        assert not rep.passed

    def test_complex_link_rejected(self):
        k = TransitionKernel(COMPLEX4)
        with pytest.raises(NotStochasticLink):
            verify(k, mode="general", samples=100, seed=1)

    @pytest.mark.parametrize("chain, mode, m0, match", [
        ("bd3", "skipfree", [0.5, 0.5, 0.0], "starts at state 0"),
        ("ct21", "continuous", [0.5, 0.5, 0.0], "starts at state 0"),
        ("gen3", "skipfree", None, "skip-free chain"),
        ("jump_generator", "continuous", None, "skip-free chain"),
        ("jump_generator", None, None, "skip-free chain"),
    ])
    def test_mode_must_fit_the_chain(self, request, chain, mode, m0, match):
        # running anyway would test another law than the one asked for: the
        # delta-0 law in place of m0's, or a coupling that needs skip-free steps
        if chain == "jump_generator":
            chain = RateGenerator(np.array([[-2.0, 1.0, 1.0], [1.0, -2.0, 1.0], [0.0, 0.0, 0.0]]))
        else:
            chain = request.getfixturevalue(chain)
        with pytest.raises(ValueError, match=match):
            verify(chain, mode=mode, samples=2000, seed=12, m0=m0)

    @pytest.mark.parametrize("chain, m0, mode", [
        ("bd3", None, "skipfree"),
        ("bd3", [0.5, 0.5, 0.0], "general"),
        ("gen3", [0.3, 0.5, 0.2], "general"),
        ("ct21", None, "continuous"),
    ])
    def test_mode_is_inferred(self, request, chain, m0, mode):
        chain = request.getfixturevalue(chain)
        inferred = verify(chain, samples=2000, seed=12, m0=m0)
        assert inferred.mode == mode
        assert inferred.to_dict() == verify(chain, mode=mode, samples=2000, seed=12, m0=m0).to_dict()

    @pytest.mark.parametrize("name, mode, gates", [("bd3", "skipfree", 3),
                                                   ("gen3", "general", 4),
                                                   ("lazy5", "skipfree", 3)])
    def test_gate_rejections_are_nominal(self, request, name, mode, gates):
        # each gate family rejects a true law with probability at most alpha
        # (Bonferroni), so 200 seeded verifies of 200 traces reject about
        # alpha * gates of the time at most
        chain = TransitionKernel(LAZY5) if name == "lazy5" else request.getfixturevalue(name)
        seeds = range(200)
        rejected = sum(not verify(chain, mode=mode, samples=200, seed=seed).passed
                       for seed in seeds)
        alpha = _VERIFY_GATES["significance"]
        assert stats.binom.sf(rejected - 1, len(seeds), alpha * gates) > 1e-4

    def test_report_serializes_without_times(self, bd3):
        rep = verify(bd3, mode="skipfree", samples=2000, seed=5)
        d = rep.to_dict()
        assert "absorption_times" not in d
        assert d["mode"] == "skipfree" and d["samples"] == 2000
        assert len(rep.absorption_times) == 2000


def _lockstep(chain, mode, samples, seed, horizon=MAX_HORIZON, m0=None):
    """Counts of ``verify``'s lockstep simulator, without the gates."""
    sim = coupling._coupling(Analysis(chain, m0), mode, samples=samples, seed=seed,
                             horizon=horizon, t_cap=0 if mode == "continuous" else 64)
    return sim.count(0, -(-samples // _TRACE_BLOCK))


def _reference(chain, mode, samples, seed, m0=None):
    """Absorption times, [t, x_hat, x] cells up to T_CELLS and L from the scalar simulators."""
    if mode == "continuous":
        kernel, rate = uniformize(chain)
    else:
        kernel = chain
    spec = eigenvalues(kernel)
    link = build_link(kernel, spec, m0)
    if mode == "skipfree":
        dual = build_dual(spec)
        simulate = lambda rng: simulate_coupled_discrete(chain, link, dual, rng)
    elif mode == "general":
        modified = build_modified_dual(chain, link, spec, m0)
        simulate = lambda rng: simulate_general_dual(chain, modified, rng)
    else:
        rates = rate * (1.0 - spec.nonunit.real)
        simulate = lambda rng: simulate_coupled_continuous(chain, link, rates, rng)
    n = chain.n
    times, largest, cells = [], [], np.zeros((T_CELLS + 1, n, n), dtype=np.int64)
    for idx in range(samples):
        tr = simulate(trace_stream(seed, idx))
        assert not tr.hit_horizon
        times.append(tr.t_primal)
        largest.append(tr.largest_dual)
        for t in range(1, min(len(tr.primal_path) - 1, T_CELLS) + 1):
            cells[t, tr.dual_path[t], tr.primal_path[t]] += 1
    return np.array(times, dtype=float), cells, np.array(largest)


def _exact_law_pvalue(times: np.ndarray, law, mode: str) -> float:
    """Kolmogorov-Smirnov p-value of absorption times against their exact law.

    A discrete law is compared at every whole step, where the asymptotic
    Kolmogorov p-value is conservative.
    """
    if mode == "continuous":
        return float(stats.kstest(times, law.cdf).pvalue)
    ecdf = np.cumsum(np.bincount(times.astype(np.int64))) / len(times)
    dev = np.abs(ecdf - law.cdf(np.arange(len(ecdf)))).max()
    return float(stats.kstwobign.sf(dev * np.sqrt(len(times))))


def _homogeneity_pvalue(a: np.ndarray, b: np.ndarray) -> float:
    """Chi-square p-value that two count vectors share one law (sparse bins dropped)."""
    table = np.vstack([a.ravel(), b.ravel()])
    return float(stats.chi2_contingency(table[:, table.sum(axis=0) >= 20])[1])


LAZY5 = random_birth_death_kernel(np.random.default_rng(1), 5, lazy=True)
# LAZY5 slowed down until every transient state holds with probability >= 0.98
# (mean 541 steps): almost every step of a trace is a hold
_EPS = 0.02 / (1.0 - np.diag(LAZY5)[:-1].min())
SLOW5 = (1.0 - _EPS) * np.eye(5) + _EPS * LAZY5
START5 = random_initial_law(np.random.default_rng(5), 5)
# a general-mode start that is at the target with probability 0.32, else random
_rng = np.random.default_rng(0)
SKIPFREE4, START4 = random_skipfree_kernel(_rng, 4), random_initial_law(_rng, 4)
#: chains and starts of the lockstep comparisons that are not fixtures
CASES = {"lazy5": (LAZY5, None), "skipfree4": (SKIPFREE4, START4),
         "slow5": (SLOW5, None), "slow5_start": (SLOW5, START5)}


class TestLockstepAgainstReference:
    """The block simulator and the scalar references agree in distribution."""

    @pytest.mark.parametrize("name, mode", [("bd3", "skipfree"), ("gen3", "general"),
                                            ("ct21", "continuous"), ("lazy5", "skipfree"),
                                            ("skipfree4", "general"), ("slow5", "skipfree"),
                                            ("slow5_start", "general")])
    def test_same_laws(self, request, name, mode):
        chain, m0 = CASES.get(name, (None, None))
        chain = request.getfixturevalue(name) if chain is None else TransitionKernel(chain)
        # a slow trace takes about 540 steps of the scalar loop; the exact-law
        # check below carries the power there
        ref_samples = 400 if name.startswith("slow5") else 3000
        ref_times, ref_cells, ref_l = _reference(chain, mode, ref_samples, seed=21, m0=m0)
        counts = _lockstep(chain, mode, 2 * _TRACE_BLOCK, seed=22, m0=m0)
        assert counts.horizon_hits == 0
        times = np.concatenate(counts.times)
        assert stats.ks_2samp(ref_times, times).pvalue > 1e-3
        assert _exact_law_pvalue(times, Analysis(chain, m0).absorption_law(), mode) > 1e-3
        if mode != "continuous":
            assert _homogeneity_pvalue(ref_cells[1:], counts.cells[1:T_CELLS + 1]) > 1e-3
        if mode == "general":
            ref_hist = np.bincount(ref_l + 1, minlength=chain.n + 1)
            assert _homogeneity_pvalue(ref_hist, counts.largest) > 1e-3
        else:
            assert counts.largest[chain.d] == len(times)  # L = d - 1 on every trace

    @pytest.mark.parametrize("leave", [1e-3, 0.3, 0.9, 1.0])
    def test_holds_by_inversion_are_geometric(self, leave):
        u = np.random.default_rng(17).random(10**5)
        with np.errstate(divide="ignore"):  # log 0 = -inf for a pair always left
            holds = coupling._geometric(u, np.full(u.size, np.log1p(-leave)))
        assert holds.min() >= 1.0 and np.array_equal(holds, np.floor(holds))
        if leave == 1.0:
            assert np.all(holds == 1.0)
            return
        # about 40 cells of equal probability: (edge_{j-1}, edge_j], then the tail
        edges = np.unique(stats.geom.ppf(np.linspace(0.0, 1.0, 41)[1:-1], leave))
        probs = np.diff(stats.geom.cdf(edges, leave), prepend=0.0, append=1.0)
        observed = np.bincount(np.searchsorted(edges, holds), minlength=len(edges) + 1)
        assert stats.chisquare(observed, probs * u.size).pvalue > 1e-3

    @pytest.mark.parametrize("name", ["bd3", "lazy5", "slow5"])
    def test_stay_is_one_minus_the_leave(self, request, name):
        chain, _ = CASES.get(name, (None, None))
        chain = request.getfixturevalue(name) if chain is None else TransitionKernel(chain)
        sim = coupling._coupling(Analysis(chain), "skipfree", samples=1, seed=0,
                                 horizon=MAX_HORIZON, t_cap=0)
        mat, n = chain.matrix, chain.n
        hold = np.diag(mat)
        leave = (mat.sum(axis=1) - hold)[None, :] + hold * sim.promote.reshape(n, n)
        live = ~sim.stop & ~np.isnan(sim.log_stay)  # NaN: a refused pair
        assert np.abs(np.exp(sim.log_stay[live]) - (1.0 - leave.ravel()[live])).max() <= 1e-15

    def test_job_count_does_not_change_the_report(self, bd3):
        samples = 2 * _TRACE_BLOCK + 17
        reports = [verify(bd3, mode="skipfree", samples=samples, seed=8, jobs=jobs)
                   for jobs in (1, 2, 3)]
        assert reports[0].to_dict() == reports[1].to_dict() == reports[2].to_dict()
        assert reports[0].absorption_times == reports[1].absorption_times
        assert reports[0].absorption_times == reports[2].absorption_times
        assert len(reports[0].absorption_times) == samples

    def test_horizon_hits_count_each_stuck_trace_once(self, bd3, ct21):
        samples, horizon = 5000, 4
        counts = _lockstep(bd3, "skipfree", samples, seed=3, horizon=horizon)
        times = np.concatenate(counts.times)
        assert counts.horizon_hits + len(times) == samples
        assert times.max() <= horizon
        # cells hold completed traces only: one entry per step up to absorption
        steps = np.arange(counts.cells.shape[0])
        assert np.array_equal(counts.cells.sum(axis=(1, 2))[1:],
                              [(times >= t).sum() for t in steps[1:]])
        # P(T > 4) = 1 - F(4) for BD3, within five standard errors
        tail = 1.0 - absorption_law(bd3).cdf(horizon)
        assert abs(counts.horizon_hits / samples - tail) < 5 * np.sqrt(tail / samples)
        # a CT21 trace takes exactly two events: the primal's two jumps
        for events, hits in ((1, 2000), (2, 0)):
            ct = _lockstep(ct21, "continuous", 2000, seed=3, horizon=events)
            assert ct.horizon_hits == hits
            assert sum(map(len, ct.times)) == 2000 - hits

    def test_a_jump_past_the_horizon_is_a_hit(self):
        # SLOW5 holds for about 50 steps at a time, so a trace still running
        # at the horizon is mostly in a hold that crosses it
        samples, horizon = 5000, 300
        counts = _lockstep(TransitionKernel(SLOW5), "skipfree", samples, seed=3, horizon=horizon)
        times = np.concatenate(counts.times)
        assert counts.horizon_hits + len(times) == samples
        assert times.max() <= horizon
        assert np.array_equal(counts.cells.sum(axis=(1, 2))[1:],
                              [(times >= t).sum() for t in range(1, counts.cells.shape[0])])
        tail = 1.0 - absorption_law(TransitionKernel(SLOW5)).cdf(horizon)
        assert abs(counts.horizon_hits / samples - tail) < 5 * np.sqrt(tail * (1 - tail) / samples)

    def test_a_pair_never_left_is_a_hit(self, bd3):
        # state 0 absorbs the primal; the dual climbs alone from (0, 0) to
        # (d, 0), which neither chain leaves
        spec, link, dual = _skipfree_parts(bd3)
        stuck = TransitionKernel(np.array([[1.0, 0.0, 0.0], [0.25, 0.5, 0.25], [0.0, 0.0, 1.0]]))
        sim = coupling._SkipFree(stuck, link, dual, samples=500, seed=0,
                                 horizon=MAX_HORIZON, t_cap=64)
        counts = sim.count(0, 1)
        assert counts.horizon_hits == 500 and not counts.times[0].size

    def test_a_pair_left_below_an_ulp_is_a_hit(self, bd3):
        # the primal leaks 1e-17 from state 0, so at (d, 0) the stay rounds to
        # 1 while the leave is positive: the hold is about 1e17 steps
        spec, link, dual = _skipfree_parts(bd3)
        leaky = TransitionKernel(np.array([[1.0, 1e-17, 0.0], [0.25, 0.5, 0.25], [0.0, 0.0, 1.0]]))
        sim = coupling._SkipFree(leaky, link, dual, samples=500, seed=0,
                                 horizon=MAX_HORIZON, t_cap=64)
        assert not sim.stop[2 * 3] and -1e-16 < sim.log_stay[2 * 3] < 0.0
        counts = sim.count(0, 1)
        assert counts.horizon_hits == 500 and not counts.times[0].size

    @pytest.mark.parametrize("mode", ["skipfree", "general", "continuous"])
    def test_zero_link_mass_raises_in_blocks(self, bd3, gen3, ct21, mode):
        run = dict(samples=100, seed=0, horizon=MAX_HORIZON, t_cap=64)
        if mode == "general":
            spec = eigenvalues(gen3)
            link = build_link(gen3, spec, None)
            mod = build_modified_dual(gen3, link, spec, None)
            broken = dataclasses.replace(mod, kernel=np.zeros_like(mod.kernel))
            sim = coupling._General(gen3, broken, **run)
            reference = lambda: simulate_general_dual(gen3, broken, trace_stream(0, 0))
        elif mode == "skipfree":
            spec, link, dual = _skipfree_parts(bd3)
            rows = link.rows.copy()
            rows[:2, 0] = 0.0  # (x_hat, y) = (0, 0) has no mass
            broken = dataclasses.replace(link, rows=rows)
            sim = coupling._SkipFree(bd3, broken, dual, **run)
            reference = lambda: simulate_coupled_discrete(bd3, broken, dual, trace_stream(0, 0))
        else:
            kernel_u, rate = uniformize(ct21)
            spec = eigenvalues(kernel_u)
            link = build_link(kernel_u, spec, None)
            rows = link.rows.copy()
            rows[0, 0] = 0.0
            broken = dataclasses.replace(link, rows=rows)
            rates = rate * (1.0 - spec.nonunit.real)
            sim = coupling._Continuous(ct21, broken, rates, **run)
            reference = lambda: simulate_coupled_continuous(ct21, broken, rates, trace_stream(0, 0))
        with pytest.raises(NotStochasticLink):
            reference()
        with pytest.raises(NotStochasticLink):
            sim.count(0, 1)

    def test_structural_counts_are_per_trace(self, bd3):
        # the dual may now reach d from (1, 0) while the primal is short of it;
        # the primal then sits in (2, 1), where the link has no mass, step after step
        spec, link, dual = _skipfree_parts(bd3)
        rows = link.rows.copy()
        rows[2] = [0.2, 0.0, 0.8]
        broken = dataclasses.replace(link, rows=rows)
        sim = coupling._SkipFree(bd3, broken, dual, samples=1000, seed=4,
                                 horizon=MAX_HORIZON, t_cap=64)
        counts = sim.count(0, 1)
        domination, mismatches, positivity = counts.violations
        visits = counts.cells[:, 2, 1].sum()
        assert domination == 0
        assert 0 < positivity == mismatches < visits
        assert positivity <= 1000 - counts.horizon_hits
        # the same share of traces as the scalar reference, per trace
        ref = [simulate_coupled_discrete(bd3, broken, dual, trace_stream(4, idx))
               for idx in range(1000)]
        ref_bad = sum(rows[tr.dual_path, tr.primal_path].min() <= 0.0 for tr in ref)
        assert stats.fisher_exact([[positivity, 1000 - positivity],
                                   [ref_bad, 1000 - ref_bad]])[1] > 1e-3


def _chi_square_binned(observed: np.ndarray, probs: np.ndarray, min_expected: float):
    """One-row reference for ``coupling._chi_square``: (stat, dof), or None below one dof."""
    n = observed.sum()
    if n == 0:
        return None
    exp = probs * n
    merged_obs, merged_exp = [], []
    acc_o, acc_e = 0.0, 0.0
    for o, e in zip(observed.tolist(), exp.tolist()):
        acc_o += o
        acc_e += e
        if acc_e >= min_expected:
            merged_obs.append(acc_o)
            merged_exp.append(acc_e)
            acc_o, acc_e = 0.0, 0.0
    if acc_e > 0 or acc_o > 0:
        if merged_exp:
            merged_obs[-1] += acc_o
            merged_exp[-1] += acc_e
        else:
            merged_obs.append(acc_o)
            merged_exp.append(acc_e)
    dof = len(merged_obs) - 1
    if dof < 1:
        return None
    obs, expected = np.asarray(merged_obs), np.asarray(merged_exp)
    stat = float(np.sum((obs - expected) ** 2 / expected))
    return stat, dof


class TestGateStatistics:
    """The gates' statistics against one-cell references, their p-values against scipy.stats."""

    def test_special_functions_equal_the_distributions(self):
        x = np.concatenate([[0.0], np.geomspace(1e-3, 4000.0, 800)])
        for dof in range(1, 201):
            ref = stats.chi2.sf(x, dof)
            got = coupling._chi2_sf(dof, x)
            shown = ref >= 1e-300
            assert got[0] == 1.0
            np.testing.assert_allclose(got[shown], ref[shown], rtol=1e-12, atol=0.0)
            assert np.all(got[~shown] < 1e-299)
        # both sides of the switch between the series at 1, and the tail
        y = np.concatenate([np.linspace(0.0, 3.0, 3001), np.linspace(3.0, 18.0, 1501)])
        np.testing.assert_allclose(coupling._kolmogorov_sf(y), stats.kstwobign.sf(y),
                                   rtol=1e-13, atol=0.0)

    def test_chi_square_rows_equal_the_one_row_merge(self):
        rng = np.random.default_rng(0)
        dropped = kept = 0
        for _ in range(200):
            m, width = int(rng.integers(1, 40)), int(rng.integers(1, 30))
            probs = rng.random((m, width)) ** 3
            probs[rng.random((m, width)) < 0.3] = 0.0  # zero-probability columns
            probs /= np.maximum(probs.sum(axis=1, keepdims=True), 1e-300)
            scale = rng.choice([2.0, 30.0, 300.0, 5000.0]) * rng.random((m, 1))
            observed = rng.poisson(probs * scale)
            observed[rng.random(m) < 0.1] = 0  # empty cells
            stat, dof = coupling._chi_square(observed, probs, 5.0)
            ref = [_chi_square_binned(o, p, 5.0) for o, p in zip(observed, probs)]
            assert list(zip(stat.tolist(), dof.tolist())) == [r for r in ref if r is not None]
            kept += len(stat)
            dropped += sum(r is None and o.sum() > 0 for r, o in zip(ref, observed))
        assert kept > 1000 and dropped > 100  # both outcomes of the merge are exercised

    @pytest.mark.parametrize("mode", ["skipfree", "general"])
    def test_report_chi_square_gates_equal_the_cell_by_cell_reference(self, gen3, mode):
        # lower-triangular link rows: supports of every size up to 12 states
        chain = (TransitionKernel(random_birth_death_kernel(np.random.default_rng(3), 12, lazy=True))
                 if mode == "skipfree" else gen3)
        analysis = Analysis(chain, None if mode == "skipfree" else [0.3, 0.5, 0.2])
        sim = coupling._coupling(analysis, mode, samples=5000, seed=2, horizon=MAX_HORIZON,
                                 t_cap=_VERIFY_GATES["conditional_t_cap"])
        counts = sim.count(0, -(-5000 // _TRACE_BLOCK))
        law = analysis.absorption_law()
        report = coupling._build_report(mode, 5000, 2, law, counts,
                                        analysis.spectrum.nonunit.real, sim.link_rows)
        cells = []
        for t, level in zip(*np.nonzero(counts.cells.sum(axis=2) >= _VERIFY_GATES["min_cell_count"])):
            probs = np.clip(sim.link_rows[level], 0.0, None)
            support = probs > 0.0
            if support.sum() >= 2:
                cells.append(_chi_square_binned(counts.cells[t, level][support],
                                                probs[support] / probs[support].sum(),
                                                _VERIFY_GATES["min_expected"]))
        stat, dof = np.array([c for c in cells if c is not None]).T
        assert report.conditional_cells == len(stat) > 10
        assert report.conditional_min_pvalue == pytest.approx(stats.chi2.sf(stat, dof).min(),
                                                              rel=1e-12)
        if mode == "general":
            weights = np.clip(law.weights, 0.0, None)
            l_stat, l_dof = _chi_square_binned(counts.largest[: len(weights)].astype(float),
                                               weights / weights.sum(), _VERIFY_GATES["min_expected"])
            assert report.l_chisq_stat == l_stat
            assert report.l_chisq_pvalue == pytest.approx(stats.chi2.sf(l_stat, l_dof), rel=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 50, 3000])
    def test_ks_two_sided_equals_kstest(self, n):
        rng = np.random.default_rng(n)
        x = rng.exponential(0.7, n)
        cdf = lambda t: 1.0 - np.exp(-t / 0.75)  # noqa: E731
        res = stats.kstest(x, cdf)
        assert coupling._ks_two_sided(x, cdf) == (float(res.statistic), float(res.pvalue))
