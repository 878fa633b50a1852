"""Exact absorption-time and strong stationary time laws, and the pipeline behind them.

``Analysis`` is the one place where the stages of the construction are put
in sequence: classify the chain, take its spectrum, build the link m0 Q_k and
the pure-birth dual, then read off the law.

Every law here is evaluated through the pure-birth dual: F(t) = e0 Phat^t w,
where Phat is the upper bidiagonal dual kernel started at level 0 and w is
the link's target column.  That single evaluation path covers the closed-form
cases (products and mixtures of geometrics, hypoexponentials) and the numeric
fallback for complex or signed spectra; the closed forms are what the kind
attribute and the sampling routines expose when the spectral data supports
them.

The CDF is evaluated B time steps at a time (baby-step/giant-step, after
Paterson and Stockmeyer).  The baby steps R = [w, Phat w, ..., Phat^{B-1} w]
are formed once per law; block s of the CDF is the row e0 Phat^{sB} times R,
and the giant step Phat^B, formed only when a second block is needed,
carries that row to the next block.  The values are kept in an array that
grows in whole blocks, doubling its length up to MAX_HORIZON; ``cdf`` and
``pmf`` index it and ``quantile`` searches it.  The values agree with a
step-by-step recurrence to rounding, not bit for bit.

Discrete laws live on {0, 1, 2, ...}; continuous laws are their Poisson
mixtures through a uniformization rate, with the Poisson weights of many
times formed at once.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .config import _BLOCK_STEPS, IMAG_PROB_TOL, MAX_HORIZON, TOL_NONNEG, TOL_SERIES, tol_alg
from .errors import (
    HorizonExceeded,
    ImaginaryResidue,
    MonotoneHypothesisFails,
    NotErgodic,
    PoleAtU,
    PreconditionError,
    TargetNotAccessible,
    ValidationError,
    ZeroSuperdiagonal,
)
from .chains import (
    RateGenerator,
    TransitionKernel,
    as_initial,
    classify_kernel,
    classify_generator,
    require_absorbing,
    stationary_law,
    uniformize,
)
from .duality import (
    DualKernel,
    LinkMatrix,
    ModifiedDual,
    MonotoneReport,
    SeparationProfile,
    _separation,
    build_dual,
    build_link,
    build_modified_dual,
    check_monotone_reversal,
)
from .spectral import SpectrumReport, eigenvalues

__all__ = [
    "Analysis",
    "DiscreteAbsorptionLaw",
    "ContinuousAbsorptionLaw",
    "absorption_law",
    "sst_law",
    "hypoexp_law",
]

_POLE_TOL = 1e-12

#: entries of the Poisson weight matrix formed at once by the continuous CDF
_CHUNK_ENTRIES = 2**16


def _real_probability(values: np.ndarray, context: str):
    """Strip an imaginary part below tolerance; raise beyond it."""
    if not np.iscomplexobj(values):
        return values
    worst = float(np.abs(values.imag).max()) if values.size else 0.0
    if worst > IMAG_PROB_TOL:
        raise ImaginaryResidue(f"{context} retained imaginary part {worst!r}")
    return values.real


class DiscreteAbsorptionLaw:
    """Law of a hitting time evaluated through the pure-birth dual.

    Parameters
    ----------
    thetas : array
        The d non-unit eigenvalues in canonical order.
    level_weights : array
        The link's target column w_j = Lambda(j, d) (rescaled for the strong
        stationary route); the last entry must be 1 within tolerance and is
        snapped to exactly 1.

    Attributes
    ----------
    weights : ndarray
        The mixture weights a_0..a_d (successive differences of
        ``level_weights``).
    kind : str
        'geometric_convolution', 'mixture', or 'numeric_cdf'.
    stochastic : bool
        True when the closed-form sampling representation exists.
    """

    def __init__(self, thetas, level_weights):
        thetas = np.atleast_1d(np.asarray(thetas))
        w = np.atleast_1d(np.asarray(level_weights)).copy()
        if len(w) != len(thetas) + 1:
            raise ValueError("level_weights must have one more entry than thetas")
        self.normalization_residual = float(abs(w[-1] - 1.0))
        if self.normalization_residual > tol_alg(len(w)):
            raise PreconditionError(
                f"target column does not reach 1 (residual {self.normalization_residual!r})"
            )
        w[-1] = 1.0
        if np.iscomplexobj(thetas) and np.abs(thetas.imag).max() == 0.0:
            thetas = thetas.real
        if np.iscomplexobj(w) and np.abs(w.imag).max() == 0.0:
            w = w.real
        self.thetas = thetas
        self.level_weights = w
        self.weights = np.concatenate([[w[0]], np.diff(w)])

        real = not (np.iscomplexobj(thetas) or np.iscomplexobj(w))
        thetas_ok = bool(real and thetas.min() >= 0.0 and thetas.max() < 1.0)
        weights_ok = bool(real and self.weights.min() >= -TOL_NONNEG)
        self.stochastic = thetas_ok and weights_ok
        if self.stochastic and w[0] == 0.0 and np.all(w[:-1] == 0.0):
            self.kind = "geometric_convolution"
        elif self.stochastic:
            self.kind = "mixture"
        else:
            self.kind = "numeric_cdf"

        self._dtype = float if real else complex
        hold = np.append(np.asarray(thetas, dtype=self._dtype), 1.0)
        self._hold = hold
        self._move = 1.0 - hold
        self._cdf = np.empty(0, dtype=self._dtype)
        self._baby = None
        self._giant = None
        self._row = None

    @property
    def d(self) -> int:
        return len(self.thetas)

    def __repr__(self) -> str:
        return f"DiscreteAbsorptionLaw(kind={self.kind!r}, d={self.d})"

    # -- evaluation ----------------------------------------------------

    def _baby_steps(self) -> np.ndarray:
        """Columns Phat^k w for k < _BLOCK_STEPS, so that F(sB + k) = e0 Phat^{sB} . column k."""
        out = np.empty((len(self._hold), _BLOCK_STEPS), dtype=self._dtype)
        col = self.level_weights.astype(self._dtype)
        for k in range(_BLOCK_STEPS):
            out[:, k] = col
            nxt = col * self._hold
            nxt[:-1] += self._move[:-1] * col[1:]
            col = nxt
        return out

    def _extend(self, t: int) -> None:
        """Grow the CDF cache to cover step t, in whole blocks, doubling its length.

        The doubling is capped at MAX_HORIZON + 1 entries (rounded up to a
        block); only an explicit request for a later step goes past it.
        """
        have = len(self._cdf)
        if t < have:
            return
        if self._baby is None:
            self._baby = self._baby_steps()
        want = max(t + 1, min(2 * have, MAX_HORIZON + 1))
        # row s is e0 Phat^{sB}, for the blocks s that this call adds
        rows = np.zeros((-(-(want - have) // _BLOCK_STEPS), len(self._hold)), dtype=self._dtype)
        if have:
            rows[0] = self._row @ self._giant_step()
        else:
            rows[0, 0] = 1.0
        for i in range(1, len(rows)):
            rows[i] = rows[i - 1] @ self._giant_step()
        self._row = rows[-1]
        self._cdf = np.concatenate([self._cdf, (rows @ self._baby).ravel()])

    def _giant_step(self) -> np.ndarray:
        """Phat^B, built on first use so that a single block never pays for it.

        It is built one step at a time rather than by repeated squaring: with
        a signed or complex spectrum the powers of Phat grow by orders of
        magnitude before they decay, and squaring loses that many digits.
        """
        if self._giant is None:
            power = np.eye(len(self._hold), dtype=self._dtype)
            for _ in range(_BLOCK_STEPS):
                nxt = power * self._hold
                nxt[:, 1:] += power[:, :-1] * self._move[:-1]
                power = nxt
            self._giant = power
        return self._giant

    def _cdf_at(self, ts: np.ndarray) -> np.ndarray:
        """Cached F at integer steps, 0 at negative ones."""
        if ts.size:
            self._extend(max(int(ts.max()), 0))
        return np.where(ts >= 0, self._cdf[np.maximum(ts, 0)], 0.0)

    def cdf(self, t):
        """P(T <= t) for integer t (scalar or array)."""
        ts = np.atleast_1d(np.asarray(t, dtype=int))
        vals = _real_probability(self._cdf_at(ts), "cdf")
        return float(vals[0]) if np.ndim(t) == 0 else vals

    def pmf(self, t):
        """P(T = t) for integer t (scalar or array)."""
        ts = np.atleast_1d(np.asarray(t, dtype=int))
        vals = _real_probability(self._cdf_at(ts) - self._cdf_at(ts - 1), "pmf")
        return float(vals[0]) if np.ndim(t) == 0 else vals

    def pgf(self, u):
        """E[u^T] by the mixture product form.

        Raises ``PoleAtU`` within ``1e-12`` of a pole 1/theta_j.
        """
        th = self.thetas
        for theta in th:
            if abs(1.0 - theta * u) <= _POLE_TOL * (1.0 + abs(theta * u)):
                raise PoleAtU(f"pgf evaluated at a pole of 1/(1 - theta u), theta={theta!r}")
        factors = (1.0 - th) * u / (1.0 - th * u)
        prefixes = np.concatenate([[1.0], np.cumprod(factors)])
        total = np.asarray(np.sum(self.weights * prefixes))
        if np.iscomplexobj(total) and not np.iscomplexobj(np.asarray(u)):
            total = _real_probability(total.reshape(1), "pgf")[0]
        return complex(total) if np.iscomplexobj(total) else float(total)

    def mean(self):
        """E[T] = sum over j < d of (1 - w_j) / (1 - theta_j)."""
        total = np.sum((1.0 - self.level_weights[:-1]) / (1.0 - self.thetas))
        total = _real_probability(np.atleast_1d(total), "mean")
        return float(total[0])

    def quantile(self, q: float) -> int:
        """Smallest t with F(t) >= q."""
        if not 0.0 <= q < 1.0 + 1e-15:
            raise ValueError("quantile level must be in [0, 1)")
        start = 0
        while True:
            self._extend(start)
            stop = min(len(self._cdf), MAX_HORIZON + 1)
            hits = np.flatnonzero(_real_probability(self._cdf[start:stop], "cdf") >= q)
            if len(hits):
                return start + int(hits[0])
            if stop > MAX_HORIZON:
                raise HorizonExceeded(f"quantile {q} unreachable within {MAX_HORIZON} steps")
            start = stop

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw by structure: mixture index, then independent geometric factors."""
        if not self.stochastic:
            raise PreconditionError(f"cannot sample a {self.kind} law by structure")
        n = 1 if size is None else int(size)
        probs = np.clip(self.weights, 0.0, None)
        probs /= probs.sum()
        ks = rng.choice(len(probs), size=n, p=probs)
        out = np.zeros(n, dtype=np.int64)
        for j, theta in enumerate(self.thetas):
            draws = rng.geometric(1.0 - theta, size=n)
            out += np.where(ks > j, draws, 0)
        return int(out[0]) if size is None else out


class ContinuousAbsorptionLaw:
    """Poisson mixture of a discrete law through a uniformization rate.

    ``rates`` holds the exponential rates theta -> rate * (1 - theta) when the
    spectrum is real (they are positive even for negative eigenvalues); the
    law is then a hypoexponential or a mixture of hypoexponential prefixes.
    """

    def __init__(self, discrete: DiscreteAbsorptionLaw, rate: float):
        self.discrete = discrete
        self.rate = float(rate)
        th = discrete.thetas
        if np.iscomplexobj(th):
            self.rates = None
        else:
            self.rates = self.rate * (1.0 - th)
        # exponential-factor sampling only needs positive real rates and
        # nonnegative weights; negative eigenvalues are fine here even though
        # the embedded discrete law has no geometric representation then
        weights_ok = bool(
            not np.iscomplexobj(discrete.weights) and discrete.weights.min() >= -TOL_NONNEG
        )
        if self.rates is not None and weights_ok and np.all(discrete.level_weights[:-1] == 0.0):
            self.kind = "hypoexponential"
        elif self.rates is not None and weights_ok:
            self.kind = "mixture"
        else:
            self.kind = "numeric_cdf"

    def __repr__(self) -> str:
        return f"ContinuousAbsorptionLaw(kind={self.kind!r}, d={self.discrete.d})"

    def cdf(self, t):
        """P(T <= t) as a Poisson-weighted sum of discrete CDF values.

        Each time's Poisson series is cut where its own tail falls below
        TOL_SERIES, so a time's value does not depend on the other times
        requested with it.  The weights are formed for many times at once, in
        chunks of about _CHUNK_ENTRIES.
        """
        from scipy import special, stats

        ts = np.atleast_1d(np.asarray(t, dtype=float))
        if (ts < 0).any():
            raise ValueError("times must be nonnegative")
        mus = self.rate * ts
        cuts = stats.poisson.isf(TOL_SERIES, mus).astype(int)
        k_max = int(cuts.max()) if ts.size else 0
        f_disc = _real_probability(self.discrete._cdf_at(np.arange(k_max + 1)), "cdf")
        log_fact = special.gammaln(np.arange(1, k_max + 2))
        out = np.empty(len(ts))
        step = max(1, _CHUNK_ENTRIES // (k_max + 1))
        for lo in range(0, len(ts), step):
            mu, cut = mus[lo : lo + step, None], cuts[lo : lo + step, None]
            ks = np.arange(cut.max() + 1)
            # the Poisson pmf as scipy.stats forms it, up to each row's own cut
            pmf = np.exp(special.xlogy(ks, mu) - log_fact[: len(ks)] - mu)
            pmf[ks > cut] = 0.0
            tail = (1.0 - pmf.sum(axis=1)) * f_disc[cut[:, 0]]
            out[lo : lo + step] = pmf @ f_disc[: len(ks)] + tail
        return float(out[0]) if np.ndim(t) == 0 else out

    def laplace(self, s):
        """E[exp(-s T)] = discrete pgf at u = rate / (rate + s)."""
        return self.discrete.pgf(self.rate / (self.rate + s))

    def mean(self) -> float:
        return self.discrete.mean() / self.rate

    def quantile(self, q: float) -> float:
        """Smallest t with F(t) >= q, by bracketed bisection."""
        if not 0.0 <= q < 1.0:
            raise ValueError("quantile level must be in [0, 1)")
        if self.cdf(0.0) >= q:
            return 0.0
        hi = max(self.mean(), 1.0 / self.rate)
        for _ in range(80):
            if self.cdf(hi) >= q:
                break
            hi *= 2.0
        else:
            raise HorizonExceeded(f"quantile {q} unreachable")
        lo = 0.0
        while hi - lo > 1e-12 * (1.0 + hi):
            mid = 0.5 * (lo + hi)
            if self.cdf(mid) >= q:
                hi = mid
            else:
                lo = mid
        return hi

    def sample(self, rng: np.random.Generator, size: int | None = None):
        """Draw by structure: mixture index, then independent exponential factors."""
        if self.kind == "numeric_cdf":
            raise PreconditionError("cannot sample a numeric_cdf law by structure")
        disc = self.discrete
        n = 1 if size is None else int(size)
        probs = np.clip(disc.weights, 0.0, None)
        probs /= probs.sum()
        ks = rng.choice(len(probs), size=n, p=probs)
        out = np.zeros(n)
        for j, nu in enumerate(self.rates):
            draws = rng.exponential(1.0 / nu, size=n)
            out += np.where(ks > j, draws, 0.0)
        return float(out[0]) if size is None else out


class Analysis:
    """The duality pipeline of one chain and initial law, each stage computed once.

    Construction classifies the chain and uniformizes a generator: ``kernel``
    is the discrete chain every stage works on, ``rate`` the uniformization
    rate (None for a kernel).  The uniformized kernel has the generator's
    support plus a positive diagonal, hence the generator's classification.
    The stages are built on first use and kept, each from those before it:
    spectrum -> rates and link (rows m0 Q_k) -> dual and modified (the modified
    dual), and stationary -> monotone -> certification.  The laws, ``verify``
    and the command line all read them from one Analysis.
    """

    def __init__(self, chain: TransitionKernel | RateGenerator, m0=None):
        self.chain = chain
        self.m0 = as_initial(m0, chain.n)
        if isinstance(chain, RateGenerator):
            self.chain_class = classify_generator(chain)
            self.kernel, self.rate = uniformize(chain)
        else:
            self.chain_class = classify_kernel(chain)
            self.kernel, self.rate = chain, None

    @property
    def starts_at_zero(self) -> bool:
        """Whether the initial law is the point mass at state 0."""
        return bool(self.m0[0] == 1.0)

    @cached_property
    def spectrum(self) -> SpectrumReport:
        return eigenvalues(self.kernel, self.chain_class)

    @cached_property
    def rates(self) -> np.ndarray | None:
        """A generator's exponential rates rate * (1 - Re theta); None for a kernel."""
        if self.rate is None:
            return None
        rates = self.rate * (1.0 - self.spectrum.nonunit.real)
        rates.setflags(write=False)  # shared by every reader of this Analysis
        return rates

    @cached_property
    def link(self) -> LinkMatrix:
        return build_link(self.kernel, self.spectrum, self.m0)

    @cached_property
    def dual(self) -> DualKernel:
        return build_dual(self.spectrum)

    @cached_property
    def modified(self) -> ModifiedDual:
        return build_modified_dual(self.kernel, self.link, self.spectrum, self.m0)

    @cached_property
    def stationary(self) -> np.ndarray:
        pi = stationary_law(self.kernel)
        pi.setflags(write=False)  # shared by every reader of this Analysis
        return pi

    @cached_property
    def monotone(self) -> MonotoneReport:
        return check_monotone_reversal(self.kernel, self.stationary)

    @cached_property
    def certification(self) -> str:
        """'structural' when the time reversal is stochastically monotone and
        the ratios m0/pi do not increase, else 'separation-scan'."""
        ratios = self.m0 / self.stationary
        structural = self.monotone.monotone and bool(np.all(np.diff(ratios) <= 1e-12))
        return "structural" if structural else "separation-scan"

    def separation(self, t_max: int | None = None) -> SeparationProfile:
        """The separation profile from the initial law; see ``duality.separation``."""
        if not self.chain_class.ergodic:
            raise NotErgodic("separation requires an ergodic kernel")
        return _separation(self.kernel, self.stationary, self.m0, t_max)

    def absorption_law(self) -> DiscreteAbsorptionLaw | ContinuousAbsorptionLaw:
        """The hitting-time law of the target; see the module function ``absorption_law``.

        A generator's law is the Poisson mixture of its uniformized kernel's.
        """
        cls = self.chain_class
        if cls.skip_free_up and not cls.superdiag_positive:
            step = "p(i, i+1)" if self.rate is None else "g(i, i+1)"
            raise ZeroSuperdiagonal(f"skip-free analysis requires {step} > 0 for every i < d")
        if not cls.target_accessible:
            raise TargetNotAccessible("target state is not accessible from every state")
        require_absorbing(self.chain)
        spectrum = self.spectrum
        if cls.skip_free_up and self.starts_at_zero:
            w = np.zeros(self.kernel.n, dtype=float if spectrum.all_real else complex)
            w[-1] = 1.0
        else:
            w = self.link.rows[:, -1]
        law = DiscreteAbsorptionLaw(spectrum.nonunit, w)
        return law if self.rate is None else ContinuousAbsorptionLaw(law, self.rate)

    def sst_law(self) -> DiscreteAbsorptionLaw:
        """The fastest strong stationary time's law; see the module function ``sst_law``."""
        if self.rate is not None:
            raise ValidationError("strong stationary analysis requires a TransitionKernel")
        if not self.chain_class.ergodic:
            raise NotErgodic("strong stationary analysis requires an ergodic kernel")
        if self.certification != "structural":
            if not self.monotone.monotone:
                raise MonotoneHypothesisFails(
                    f"time reversal is not stochastically monotone (rows {self.monotone.witness})"
                )
            profile = self.separation()
            if not profile.minimized_at_target:
                bad = int(np.nonzero(profile.argmin_state != self.kernel.d)[0][0])
                raise MonotoneHypothesisFails(
                    f"separation is not minimized at the target (first failure at t={bad})"
                )
        link = self.link
        if link.lower_triangular and self.starts_at_zero:
            w = np.zeros(self.kernel.n, dtype=link.rows.dtype)
            w[-1] = 1.0
        else:
            w = link.rows[:, -1] / self.stationary[-1]
        return DiscreteAbsorptionLaw(self.spectrum.nonunit, w)


def absorption_law(kernel: TransitionKernel, m0=None) -> DiscreteAbsorptionLaw:
    """Exact law of the hitting time of the (absorbing) target state.

    Skip-free chains started at 0 go through the structural route: the link is
    lower triangular with unit corner, so the law is the convolution of d
    geometrics (when the spectrum is real nonnegative) without building the
    link at all.  Everything else builds the link and takes the target
    column's successive differences as mixture weights.

    Raises
    ------
    ZeroSuperdiagonal
        Skip-free chain with a vanishing upward step (checked first).
    TargetNotAccessible
        Some state never reaches the target.
    PreconditionError
        Target not absorbing.
    """
    return Analysis(kernel, m0).absorption_law()


def sst_law(kernel: TransitionKernel, m0=None) -> DiscreteAbsorptionLaw:
    """Law of the fastest strong stationary time of an ergodic chain.

    The CDF equals 1 - s(t) (separation from stationarity) whenever the
    separation is minimized at the target state; the target column of the
    link, rescaled by pi(d), supplies the level weights.

    The hypothesis is certified structurally when the time reversal is
    stochastically monotone and the initial ratios m0/pi are nonincreasing
    (point mass at 0 included); otherwise the separation profile is scanned
    until its tail falls below CDF_TAIL.

    Raises
    ------
    ValidationError
        The chain is a rate generator.
    NotErgodic
    MonotoneHypothesisFails
        Reversal not monotone, or separation minimizer leaves the target.
    """
    return Analysis(kernel, m0).sst_law()


def hypoexp_law(gen: RateGenerator, m0=None) -> ContinuousAbsorptionLaw:
    """Exact absorption-time law of a CTMC via uniformization.

    A skip-free generator started at 0 with real spectrum yields the
    hypoexponential with rates theta * (1 - theta_j); the general case is the
    continuous mixture built from the uniformized chain's link.  The discrete
    structure transfers exactly: the uniformized kernel's spectral polynomials
    are polynomials in G, so link, weights and level structure agree with the
    continuous-time intertwining.  Raises ``ValidationError`` on a transition
    kernel, and otherwise as ``absorption_law`` does.
    """
    if not isinstance(gen, RateGenerator):
        raise ValidationError("hypoexp_law requires a RateGenerator")
    return Analysis(gen, m0).absorption_law()
