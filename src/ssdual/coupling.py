"""Coupled sample paths of primal chains and their duals, plus verification.

The couplings realize the conditional-law picture: given the dual's position,
the primal state is distributed by the corresponding link row, and the dual
moves one level at a time (discrete skip-free and continuous cases) or through
the climb-or-jump structure of the modified dual (general case).  Simulation
uses one counter-based Philox stream per trace, keyed (seed, trace index), so
results are reproducible and independent of how traces are partitioned across
workers.

The verification harness aggregates traces on the fly and applies the gates:
exact-law KS on absorption times, chi-square on the per-step conditional laws,
chi-square on the largest-level statistic, per-segment climb laws, and
zero-tolerance structural counts (domination, simultaneous absorption,
link-support positivity).
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .config import MAX_HORIZON, VerifyThresholds
from .errors import InsufficientSamples, NotStochasticLink
from .chains import RateGenerator, TransitionKernel, uniformize
from .duality import DualKernel, LinkMatrix, ModifiedDual, build_dual, build_link, build_modified_dual
from .laws import ContinuousAbsorptionLaw, DiscreteAbsorptionLaw, absorption_law, hypoexp_law
from .spectral import eigenvalues, spectral_polynomials

__all__ = [
    "CouplingTrace",
    "VerifyReport",
    "simulate_coupled_discrete",
    "simulate_coupled_continuous",
    "simulate_general_dual",
    "trace_stream",
    "verify",
]

#: asymptotic Kolmogorov critical constants c_alpha: D_crit = c / sqrt(n)
_KS_CONSTANTS = {0.10: 1.2238, 0.05: 1.3581, 0.01: 1.6276, 0.001: 1.9495}


def trace_stream(seed: int, index: int) -> np.random.Generator:
    """Counter-based RNG for one trace: Philox keyed by (seed, trace index)."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(index)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True, slots=True)
class CouplingTrace:
    """One coupled trajectory.

    ``largest_dual`` is the largest dual level visited strictly before the
    dual's absorption epoch (-1 when the dual starts absorbed).  For
    continuous traces ``event_times`` holds the jump epochs aligned with the
    path arrays.
    """

    primal_path: tuple[int, ...]
    dual_path: tuple[int, ...]
    event_times: tuple[float, ...] | None
    t_primal: float | int | None
    t_dual: float | int | None
    largest_dual: int
    hit_horizon: bool


class _Uniforms:
    """Blocked uniform draws from one generator (single stream, fewer calls)."""

    __slots__ = ("rng", "buf", "idx")

    def __init__(self, rng: np.random.Generator, block: int = 64):
        self.rng = rng
        self.buf = rng.random(block)
        self.idx = 0

    def __call__(self) -> float:
        if self.idx >= len(self.buf):
            self.buf = self.rng.random(len(self.buf))
            self.idx = 0
        v = self.buf[self.idx]
        self.idx += 1
        return v


def _pick(cum_row: np.ndarray, u: float) -> int:
    j = int(np.searchsorted(cum_row, u, side="right"))
    return min(j, len(cum_row) - 1)


def _first_hit(path: tuple[int, ...], states) -> int | None:
    for t, s in enumerate(path):
        if s in states:
            return t
    return None


def promotion_probability(thetas: np.ndarray, link_rows: np.ndarray, x_hat: int, y: int) -> float:
    """Probability that the dual climbs from x_hat after the primal lands on y.

    For y = x_hat + 1 the climb is forced.  Otherwise the posterior odds of
    the dual having moved are (1 - theta) Lambda(x_hat + 1, y) against
    theta Lambda(x_hat, y).
    """
    if y == x_hat + 1:
        return 1.0
    theta = thetas[x_hat]
    up = (1.0 - theta) * link_rows[x_hat + 1, y]
    down = theta * link_rows[x_hat, y]
    den = up + down
    if den <= 0.0:
        raise NotStochasticLink(
            f"conditional state (x_hat={x_hat}, y={y}) has zero link mass; coupling undefined"
        )
    p = up / den
    if p < -1e-9 or p > 1.0 + 1e-9:
        raise NotStochasticLink(f"promotion probability {p!r} outside [0, 1]")
    return min(max(p, 0.0), 1.0)


def simulate_coupled_discrete(
    kernel: TransitionKernel,
    link: LinkMatrix,
    dual: DualKernel,
    rng: np.random.Generator,
    horizon: int = MAX_HORIZON,
) -> CouplingTrace:
    """Run the primal chain from 0 and promote a coupled dual copy along it.

    Requires a stochastic (lower-triangular) link; both chains start at 0 and
    are absorbed simultaneously at the target.
    """
    if not link.stochastic:
        raise NotStochasticLink("discrete coupling requires a stochastic link")
    mat = kernel.matrix
    d = kernel.d
    cum = np.cumsum(mat, axis=1)
    thetas = dual.thetas.real
    lam = link.rows
    draw = _Uniforms(rng)

    x = 0
    xh = 0
    primal = [0]
    dual_states = [0]
    steps = 0
    while x != d and steps < horizon:
        y = _pick(cum[x], draw())
        if xh < d:
            p = promotion_probability(thetas, lam, xh, y)
            if p >= 1.0 or (p > 0.0 and draw() < p):
                xh += 1
        x = y
        primal.append(x)
        dual_states.append(xh)
        steps += 1

    primal_t = tuple(primal)
    dual_t = tuple(dual_states)
    t_primal = _first_hit(primal_t, (d,))
    t_dual = _first_hit(dual_t, (d,))
    if t_dual is None:
        largest = max(dual_t)
    else:
        largest = max(dual_t[:t_dual]) if t_dual > 0 else -1
    return CouplingTrace(
        primal_path=primal_t,
        dual_path=dual_t,
        event_times=None,
        t_primal=t_primal,
        t_dual=t_dual,
        largest_dual=largest,
        hit_horizon=x != d,
    )


def simulate_coupled_continuous(
    gen: RateGenerator,
    link: LinkMatrix,
    rates: np.ndarray,
    rng: np.random.Generator,
    horizon: int = MAX_HORIZON,
) -> CouplingTrace:
    """Exponential-race coupling for a skip-free CTMC and its pure-birth dual.

    The dual at level x_hat carries a climb clock of rate
    nu(x_hat) Lambda(x_hat + 1, x) / Lambda(x_hat, x), redrawn whenever the
    pair (x_hat, x) changes; the primal's own jumps promote the dual only when
    they land exactly on x_hat + 1.
    """
    if not link.stochastic:
        raise NotStochasticLink("continuous coupling requires a stochastic link")
    g = gen.matrix
    d = gen.d
    lam = link.rows
    off = np.clip(g, 0.0, None)
    np.fill_diagonal(off, 0.0)
    cum = np.cumsum(off, axis=1)
    totals = cum[:, -1].copy()
    cum = cum / np.where(totals > 0, totals, 1.0)[:, None]

    x = 0
    xh = 0
    now = 0.0
    times = [0.0]
    primal = [0]
    dual_states = [0]
    events = 0
    while x != d and events < horizon:
        q = totals[x]
        if xh < d:
            base = lam[xh, x]
            if base <= 0.0:
                raise NotStochasticLink(
                    f"conditional state (x_hat={xh}, x={x}) has zero link mass"
                )
            r = rates[xh] * lam[xh + 1, x] / base
        else:
            r = 0.0
        e_primal = rng.exponential(1.0 / q) if q > 0 else np.inf
        e_dual = rng.exponential(1.0 / r) if r > 0 else np.inf
        if not np.isfinite(e_primal) and not np.isfinite(e_dual):
            break
        if e_primal <= e_dual:
            now += e_primal
            y = _pick(cum[x], rng.random())
            if y == xh + 1:
                xh = y
            x = y
        else:
            now += e_dual
            xh += 1
        times.append(now)
        primal.append(x)
        dual_states.append(xh)
        events += 1

    primal_t = tuple(primal)
    dual_t = tuple(dual_states)
    ip = _first_hit(primal_t, (d,))
    idual = _first_hit(dual_t, (d,))
    t_primal = times[ip] if ip is not None else None
    t_dual = times[idual] if idual is not None else None
    if idual is None:
        largest = max(dual_t)
    else:
        largest = max(dual_t[:idual]) if idual > 0 else -1
    return CouplingTrace(
        primal_path=primal_t,
        dual_path=dual_t,
        event_times=tuple(times),
        t_primal=t_primal,
        t_dual=t_dual,
        largest_dual=largest,
        hit_horizon=x != d,
    )


def simulate_general_dual(
    kernel: TransitionKernel,
    modified: ModifiedDual,
    rng: np.random.Generator,
    m0=None,
    horizon: int = MAX_HORIZON,
) -> CouplingTrace:
    """Run the primal chain and the modified dual conditioned along it.

    The next dual state is drawn with probability proportional to
    Pbar(x_bar, y_bar) * Lambda_bar(y_bar, y); the candidates are x_bar,
    x_bar + 1 and the target, by the climb-or-jump structure.
    """
    if not modified.stochastic:
        raise NotStochasticLink("general coupling requires a stochastic modified dual")
    mat = kernel.matrix
    d = kernel.d
    lam = modified.link.rows
    pbar = modified.kernel
    absorbing = set(modified.absorbing_states)
    cum = np.cumsum(mat, axis=1)
    draw = _Uniforms(rng)

    if draw() < modified.initial[d]:
        return CouplingTrace(
            primal_path=(d,),
            dual_path=(d,),
            event_times=None,
            t_primal=0,
            t_dual=0,
            largest_dual=-1,
            hit_horizon=False,
        )
    xh = 0
    x = _pick(np.cumsum(lam[0]), draw())
    primal = [x]
    dual_states = [0]
    steps = 0
    while x != d and steps < horizon:
        y = _pick(cum[x], draw())
        candidates = sorted({xh, min(xh + 1, d), d})
        probs = np.array([pbar[xh, c] * lam[c, y] for c in candidates])
        total = probs.sum()
        if total <= 0.0:
            raise NotStochasticLink(
                f"no admissible dual move from x_bar={xh} given primal state {y}"
            )
        u = draw() * total
        acc = 0.0
        nxt = candidates[-1]
        for c, p in zip(candidates, probs):
            acc += p
            if u < acc:
                nxt = c
                break
        x = y
        xh = nxt
        primal.append(x)
        dual_states.append(xh)
        steps += 1

    primal_t = tuple(primal)
    dual_t = tuple(dual_states)
    t_primal = _first_hit(primal_t, (d,))
    t_dual = _first_hit(dual_t, absorbing)
    if t_dual is None:
        largest = max(dual_t)
    else:
        largest = max(dual_t[:t_dual]) if t_dual > 0 else -1
    return CouplingTrace(
        primal_path=primal_t,
        dual_path=dual_t,
        event_times=None,
        t_primal=t_primal,
        t_dual=t_dual,
        largest_dual=largest,
        hit_horizon=x != d,
    )


# ---------------------------------------------------------------------------
# verification harness
# ---------------------------------------------------------------------------


@dataclass
class _Aggregate:
    """Order-independent accumulators for one batch of traces."""

    absorption_times: list = field(default_factory=list)
    largest: list = field(default_factory=list)
    horizon_hits: int = 0
    domination_violations: int = 0
    absorption_mismatches: int = 0
    positivity_violations: int = 0
    structural_l_violations: int = 0
    # cell (t, dual_state) -> counts over primal states
    conditional: dict = field(default_factory=dict)
    # (l, level) -> list of segment durations (level only, for unconditional modes)
    segments: dict = field(default_factory=dict)

    def merge(self, other: "_Aggregate") -> None:
        self.absorption_times.extend(other.absorption_times)
        self.largest.extend(other.largest)
        self.horizon_hits += other.horizon_hits
        self.domination_violations += other.domination_violations
        self.absorption_mismatches += other.absorption_mismatches
        self.positivity_violations += other.positivity_violations
        self.structural_l_violations += other.structural_l_violations
        for key, counts in other.conditional.items():
            if key in self.conditional:
                self.conditional[key] += counts
            else:
                self.conditional[key] = counts.copy()
        for key, durs in other.segments.items():
            self.segments.setdefault(key, []).extend(durs)


def _dual_segments(dual_path: tuple[int, ...], t_end: int) -> list[tuple[int, int]]:
    """(level, duration) of each completed climb segment up to index t_end."""
    out = []
    start = 0
    for t in range(1, t_end + 1):
        if dual_path[t] != dual_path[t - 1]:
            out.append((dual_path[t - 1], t - start))
            start = t
    return out


def _continuous_segments(dual_path, times, idx_end) -> list[tuple[int, float]]:
    out = []
    start = 0.0
    level = dual_path[0]
    for t in range(1, idx_end + 1):
        if dual_path[t] != dual_path[t - 1]:
            out.append((level, times[t] - start))
            start = times[t]
            level = dual_path[t]
    return out


def _aggregate_discrete(agg: _Aggregate, trace: CouplingTrace, link_rows, t_cap: int,
                        expected_l: int | None, absorbing_start: int) -> None:
    if trace.hit_horizon:
        agg.horizon_hits += 1
        return
    primal = np.asarray(trace.primal_path)
    dual = np.asarray(trace.dual_path)
    if (primal > dual).any():
        agg.domination_violations += 1
    if trace.t_primal != trace.t_dual:
        agg.absorption_mismatches += 1
    if link_rows[dual, primal].min() <= 0.0:
        agg.positivity_violations += 1
    agg.absorption_times.append(trace.t_primal)
    agg.largest.append(trace.largest_dual)
    if expected_l is not None and trace.largest_dual != expected_l:
        agg.structural_l_violations += 1
    _count_cells(agg, trace, link_rows.shape[1], t_cap)
    t_dual = trace.t_dual if trace.t_dual is not None else len(trace.dual_path) - 1
    for level, duration in _dual_segments(trace.dual_path, t_dual):
        if level < absorbing_start:
            agg.segments.setdefault((trace.largest_dual, level), []).append(duration)


def _count_cells(agg: _Aggregate, trace: CouplingTrace, n: int, t_cap: int) -> None:
    primal, dual = trace.primal_path, trace.dual_path
    for t in range(1, min(len(primal) - 1, t_cap) + 1):
        key = (t, dual[t])
        counts = agg.conditional.get(key)
        if counts is None:
            counts = np.zeros(n, dtype=np.int64)
            agg.conditional[key] = counts
        counts[primal[t]] += 1


def _aggregate_general(agg: _Aggregate, trace: CouplingTrace, link_rows, t_cap: int,
                       absorbing_start: int) -> None:
    # domination does not apply (the modified dual is not ordered above the
    # primal); the other gates mirror the skip-free case with Lambda_bar rows
    if trace.hit_horizon:
        agg.horizon_hits += 1
        return
    primal = np.asarray(trace.primal_path)
    dual = np.asarray(trace.dual_path)
    if trace.t_primal != trace.t_dual:
        agg.absorption_mismatches += 1
    if link_rows[dual, primal].min() <= 0.0:
        agg.positivity_violations += 1
    agg.absorption_times.append(trace.t_primal)
    agg.largest.append(trace.largest_dual)
    _count_cells(agg, trace, link_rows.shape[1], t_cap)
    t_dual = trace.t_dual if trace.t_dual is not None else len(trace.dual_path) - 1
    for level, duration in _dual_segments(trace.dual_path, t_dual):
        if level < absorbing_start:
            agg.segments.setdefault((trace.largest_dual, level), []).append(duration)


def _aggregate_continuous(agg: _Aggregate, trace: CouplingTrace, link_rows,
                          expected_l: int | None) -> None:
    if trace.hit_horizon:
        agg.horizon_hits += 1
        return
    primal = np.asarray(trace.primal_path)
    dual = np.asarray(trace.dual_path)
    if (primal > dual).any():
        agg.domination_violations += 1
    if trace.t_primal != trace.t_dual:
        agg.absorption_mismatches += 1
    if link_rows[dual, primal].min() <= 0.0:
        agg.positivity_violations += 1
    agg.absorption_times.append(trace.t_primal)
    agg.largest.append(trace.largest_dual)
    if expected_l is not None and trace.largest_dual != expected_l:
        agg.structural_l_violations += 1
    d = link_rows.shape[0] - 1
    idual = None
    for i, s in enumerate(trace.dual_path):
        if s == d:
            idual = i
            break
    if idual is not None:
        for level, duration in _continuous_segments(trace.dual_path, trace.event_times, idual):
            agg.segments.setdefault((trace.largest_dual, level), []).append(duration)


def _chi_square_binned(observed: np.ndarray, probs: np.ndarray, min_expected: float):
    """Chi-square with forward bin merging; returns (stat, pvalue, dof) or None."""
    from scipy import stats

    n = observed.sum()
    if n == 0:
        return None
    exp = probs * n
    merged_obs, merged_exp = [], []
    acc_o, acc_e = 0.0, 0.0
    for o, e in zip(observed, exp):
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
    merged_obs = np.asarray(merged_obs)
    merged_exp = np.asarray(merged_exp)
    stat = float(np.sum((merged_obs - merged_exp) ** 2 / merged_exp))
    return stat, float(stats.chi2.sf(stat, dof)), dof


def _ks_discrete(samples: np.ndarray, cdf_values: np.ndarray) -> float:
    """sup_t |ecdf(t) - F(t)| for integer samples; cdf_values covers 0..max."""
    n = len(samples)
    counts = np.bincount(samples, minlength=len(cdf_values))
    ecdf = np.cumsum(counts) / n
    return float(np.abs(ecdf - cdf_values).max())


@dataclass(frozen=True)
class VerifyReport:
    """Outcome of the statistical verification of a law against coupled paths."""

    mode: str
    samples: int
    seed: int
    exact_mean: float
    empirical_mean: float
    horizon_hits: int
    domination_violations: int
    absorption_mismatches: int
    positivity_violations: int
    structural_l_violations: int
    ks_statistic: float
    ks_threshold: float
    ks_pvalue: float | None
    ks_passed: bool
    conditional_cells: int
    conditional_min_pvalue: float | None
    conditional_alpha: float | None
    conditional_passed: bool
    l_chisq_stat: float | None
    l_chisq_pvalue: float | None
    l_passed: bool
    segments_tested: int
    segment_min_pvalue: float | None
    segment_alpha: float | None
    segments_passed: bool
    passed: bool
    # raw absorption times, kept for empirical-CDF series; not part of the
    # serialized summary
    absorption_times: tuple = ()

    def to_dict(self) -> dict:
        from dataclasses import asdict

        out = asdict(self)
        out.pop("absorption_times")
        return out


def _simulate_batch(payload, lo: int, hi: int) -> _Aggregate:
    (mode, kernel, link, dual, modified, gen, rates, m0, seed, horizon,
     t_cap, expected_l, absorbing_start) = payload
    agg = _Aggregate()
    for idx in range(lo, hi):
        rng = trace_stream(seed, idx)
        if mode == "skipfree":
            trace = simulate_coupled_discrete(kernel, link, dual, rng, horizon)
            _aggregate_discrete(agg, trace, link.rows, t_cap, expected_l, kernel.d)
        elif mode == "general":
            trace = simulate_general_dual(kernel, modified, rng, m0, horizon)
            _aggregate_general(agg, trace, modified.link.rows, t_cap, modified.absorbing_start)
        else:
            trace = simulate_coupled_continuous(gen, link, rates, rng, horizon)
            _aggregate_continuous(agg, trace, link.rows, expected_l)
    return agg


def verify(
    chain,
    *,
    mode: str,
    samples: int,
    seed: int,
    m0=None,
    law=None,
    traces=None,
    horizon: int = MAX_HORIZON,
    thresholds: VerifyThresholds = VerifyThresholds(),
    jobs: int = 1,
) -> VerifyReport:
    """Verify the exact law of a chain against coupled dual sample paths.

    Parameters
    ----------
    chain : TransitionKernel or RateGenerator
        Kernel for modes 'skipfree' and 'general', generator for 'continuous'.
    mode : str
        Coupling construction to exercise.
    samples, seed : int
        Monte Carlo size and the base of the per-trace Philox keys.
    m0 : optional
        Initial law for the general mode.
    law : optional
        Precomputed law (recomputed from the chain when omitted).
    traces : iterable of CouplingTrace, optional
        Aggregate existing traces instead of simulating fresh ones.
    jobs : int
        Worker processes; the per-trace streams make the result identical for
        any partitioning.

    Raises
    ------
    NotStochasticLink
        The coupling construction does not exist for this chain.
    InsufficientSamples
        No statistical gate reached its minimum cell occupancy.
    """
    if mode not in ("skipfree", "general", "continuous"):
        raise ValueError(f"unknown mode {mode!r}")

    gen = None
    kernel = chain
    rates = None
    modified = None
    link = None
    dual = None
    if mode == "continuous":
        if not isinstance(chain, RateGenerator):
            raise ValueError("continuous mode requires a RateGenerator")
        gen = chain
        if law is None:
            law = hypoexp_law(gen)
        kern_u, rate = uniformize(gen)
        spectrum = eigenvalues(kern_u)
        polys = spectral_polynomials(kern_u, spectrum)
        link = build_link(kern_u, spectrum, polys, None)
        rates = rate * (1.0 - spectrum.nonunit.real)
        if not link.stochastic:
            raise NotStochasticLink("continuous coupling requires a stochastic link")
        exact_mean = law.mean()
        expected_l = gen.d - 1
        payload = ("continuous", None, link, None, None, gen, rates, None, seed, horizon,
                   thresholds.conditional_t_cap, expected_l, gen.d)
        thetas_for_segments = spectrum.nonunit.real
    else:
        if not isinstance(chain, TransitionKernel):
            raise ValueError(f"{mode} mode requires a TransitionKernel")
        if law is None:
            law = absorption_law(kernel, m0 if mode == "general" else None)
        spectrum = eigenvalues(kernel)
        polys = spectral_polynomials(kernel, spectrum)
        if mode == "skipfree":
            link = build_link(kernel, spectrum, polys, None)
            dual = build_dual(spectrum)
            if not link.stochastic:
                raise NotStochasticLink("discrete coupling requires a stochastic link")
            expected_l = kernel.d - 1
            payload = ("skipfree", kernel, link, dual, None, None, None, None, seed, horizon,
                       thresholds.conditional_t_cap, expected_l, kernel.d)
        else:
            link = build_link(kernel, spectrum, polys, m0)
            modified = build_modified_dual(kernel, link, spectrum, m0)
            if not modified.stochastic:
                raise NotStochasticLink("general coupling requires a stochastic modified dual")
            expected_l = None
            payload = ("general", kernel, link, None, modified, None, None, m0, seed, horizon,
                       thresholds.conditional_t_cap, None, modified.absorbing_start)
        exact_mean = law.mean()
        thetas_for_segments = spectrum.nonunit.real

    agg = _Aggregate()
    if traces is not None:
        link_rows = modified.link.rows if mode == "general" else link.rows
        count = 0
        for trace in traces:
            count += 1
            if mode == "skipfree":
                _aggregate_discrete(agg, trace, link_rows, thresholds.conditional_t_cap,
                                    expected_l, kernel.d)
            elif mode == "general":
                _aggregate_general(agg, trace, link_rows, thresholds.conditional_t_cap,
                                   modified.absorbing_start)
            else:
                _aggregate_continuous(agg, trace, link_rows, expected_l)
        samples = count
    elif jobs > 1:
        chunk = (samples + jobs - 1) // jobs
        bounds = [(lo, min(lo + chunk, samples)) for lo in range(0, samples, chunk)]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_simulate_batch, payload, lo, hi) for lo, hi in bounds]
            for fut in futures:
                agg.merge(fut.result())
    else:
        agg = _simulate_batch(payload, 0, samples)

    return _build_report(mode, samples, seed, law, agg, thresholds,
                         exact_mean, thetas_for_segments, modified, link)


def _build_report(mode, samples, seed, law, agg, thresholds, exact_mean,
                  thetas, modified, link) -> VerifyReport:
    from scipy import stats

    alpha = thresholds.significance
    times = np.asarray(agg.absorption_times, dtype=float)
    if len(times) == 0:
        raise InsufficientSamples("no completed traces to verify")
    empirical_mean = float(times.mean())

    # exact-law KS on absorption times
    if mode == "continuous":
        res = stats.kstest(times, law.cdf)
        ks_stat = float(res.statistic)
        ks_pvalue = float(res.pvalue)
        ks_threshold = alpha
        ks_passed = ks_pvalue > alpha
    else:
        ts = times.astype(np.int64)
        cdf_vals = law.cdf(np.arange(int(ts.max()) + 1))
        ks_stat = _ks_discrete(ts, np.atleast_1d(cdf_vals))
        c_alpha = _KS_CONSTANTS.get(alpha, float(np.sqrt(-np.log(alpha / 2.0) / 2.0)))
        ks_threshold = c_alpha / np.sqrt(len(ts))
        ks_pvalue = None
        ks_passed = ks_stat <= ks_threshold

    # conditional-law chi-square per (t, dual state) cell
    link_rows = modified.link.rows if mode == "general" else (link.rows if link else None)
    cond_results = []
    if mode != "continuous" and link_rows is not None:
        for key in sorted(agg.conditional):
            counts = agg.conditional[key]
            if counts.sum() < thresholds.min_cell_count:
                continue
            probs = np.clip(link_rows[key[1]], 0.0, None)
            support = probs > 0.0
            if support.sum() < 2:
                continue
            res = _chi_square_binned(counts[support], probs[support] / probs[support].sum(),
                                     thresholds.min_expected)
            if res is not None:
                cond_results.append(res[1])
    conditional_cells = len(cond_results)
    if conditional_cells:
        conditional_alpha = alpha / conditional_cells
        conditional_min_p = float(min(cond_results))
        conditional_passed = conditional_min_p >= conditional_alpha
    else:
        conditional_alpha = None
        conditional_min_p = None
        conditional_passed = True
    if mode != "continuous" and conditional_cells == 0:
        raise InsufficientSamples(
            f"no conditional-law cell reached {thresholds.min_cell_count} observations"
        )

    # largest-level statistic: chi-square against the mixture weights in
    # general mode, structural count elsewhere
    l_stat = None
    l_pvalue = None
    l_passed = True
    if mode == "general":
        lvals = np.asarray(agg.largest)
        weights = np.clip(law.weights.real if np.iscomplexobj(law.weights) else law.weights,
                          0.0, None)
        observed = np.array([(lvals == k - 1).sum() for k in range(len(weights))], dtype=float)
        res = _chi_square_binned(observed, weights / weights.sum(), thresholds.min_expected)
        if res is not None:
            l_stat, l_pvalue, _ = res
            l_passed = l_pvalue >= alpha
    else:
        l_passed = agg.structural_l_violations == 0

    # per-segment climb laws: geometric (discrete) or exponential (continuous);
    # discrete segments use the conservative asymptotic Kolmogorov p-value
    seg_results = []
    for key in sorted(agg.segments):
        durs = np.asarray(agg.segments[key], dtype=float)
        if len(durs) < thresholds.min_cell_count:
            continue
        level = key[1]
        if mode == "continuous":
            nu = law.rates[level]
            res = stats.kstest(durs, lambda t, nu=nu: 1.0 - np.exp(-nu * t))
            seg_results.append(float(res.pvalue))
        else:
            theta = float(thetas[level])
            if theta <= 0.0:
                # degenerate one-step climb; any duration > 1 is impossible
                seg_results.append(1.0 if np.all(durs == 1.0) else 0.0)
                continue
            kmax = int(durs.max())
            cdf_geom = 1.0 - theta ** np.arange(1, kmax + 1)
            counts = np.bincount(durs.astype(np.int64), minlength=kmax + 1)[1:]
            ecdf = np.cumsum(counts) / len(durs)
            d_seg = float(np.abs(ecdf - cdf_geom).max())
            seg_results.append(float(stats.kstwobign.sf(d_seg * np.sqrt(len(durs)))))
    segments_tested = len(seg_results)
    if segments_tested:
        segment_alpha = alpha / segments_tested
        segment_min_p = float(min(seg_results))
        segments_passed = segment_min_p >= segment_alpha
    else:
        segment_alpha = None
        segment_min_p = None
        segments_passed = True
        if mode == "continuous":
            raise InsufficientSamples(
                f"no climb segment reached {thresholds.min_cell_count} observations"
            )

    passed = bool(
        agg.horizon_hits == 0
        and agg.domination_violations == 0
        and agg.absorption_mismatches == 0
        and agg.positivity_violations == 0
        and ks_passed
        and conditional_passed
        and l_passed
        and segments_passed
    )
    return VerifyReport(
        mode=mode,
        samples=samples,
        seed=seed,
        exact_mean=float(exact_mean),
        empirical_mean=empirical_mean,
        horizon_hits=agg.horizon_hits,
        domination_violations=agg.domination_violations,
        absorption_mismatches=agg.absorption_mismatches,
        positivity_violations=agg.positivity_violations,
        structural_l_violations=agg.structural_l_violations,
        ks_statistic=ks_stat,
        ks_threshold=float(ks_threshold),
        ks_pvalue=ks_pvalue,
        ks_passed=bool(ks_passed),
        conditional_cells=conditional_cells,
        conditional_min_pvalue=conditional_min_p,
        conditional_alpha=conditional_alpha,
        conditional_passed=bool(conditional_passed),
        l_chisq_stat=l_stat,
        l_chisq_pvalue=l_pvalue,
        l_passed=bool(l_passed),
        segments_tested=segments_tested,
        segment_min_pvalue=segment_min_p,
        segment_alpha=segment_alpha,
        segments_passed=bool(segments_passed),
        passed=passed,
        absorption_times=tuple(times.tolist()),
    )
