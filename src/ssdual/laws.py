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
are formed once per law; block s of the CDF is the row e0 S^s times R, with
the giant step S = Phat^B taken up only when a second block is needed.  How
R and S are formed depends on the dual's size, with no option:

* up to B levels, by doubling (``duality._power_ladder``): from the first m
  columns and Phat^m, the next m columns are Phat^m times them and
  Phat^{2m} = Phat^m Phat^m, so R and S take log2 B = 6 products and 6
  squarings of the dense Phat rather than B Python steps.  At that size the
  band of S fills the upper triangle, so a band would save nothing;
* above B levels, one step at a time: R column by column, and S on its band
  of B + 1 diagonals (Phat is upper bidiagonal), in about B n min(n, B) / 2
  products, scattered once into an n x n matrix.  These steps round as
  dense steps do, bit for bit, and the ladder's n^3 products catch up with
  them: on a 2-core x86-64 host the ladder's setup takes 0.27 ms against
  0.83 ms for the band at n = 100, 0.54 against 0.89 ms at n = 120, and
  2.0 against 1.3 ms at n = 200.

Squaring rounds differently from stepping.  On signed (stable pairs),
complex, link-route and lazy chains with 2 to 64 levels (seeds 0-2), the
ladder's CDF over 20 000 steps is within 7.4e-14 of the step-by-step
recurrence, where the band's is within 2.1e-14, and S is within 2.4e-15 of
its largest entry of B dense steps.  The rows grow by doubling too
(``duality._BlockRows``): row s is row s - K times S^K, with K the largest
power of two <= s, capped so that one product takes at most _BLOCK_WORK
multiply-adds (K = 512 on 8 levels, 4 on 200).  The rows with one K, and
their blocks, are each one matrix product, so 1 563 blocks take 13 such
spans rather than 1 563 vector-matrix products.  A block's bits depend on s
only, not on the order of the requests.  The blocks are kept with the law
in an array that grows in whole blocks, doubling its length up to
MAX_HORIZON (``_BlockRows.upto``); ``cdf`` and ``pmf`` index it and
``quantile`` searches it.  The values agree with a step-by-step recurrence
to rounding, not bit for bit.

Discrete laws live on {0, 1, 2, ...}.  A continuous law is the same dual in
continuous time, F(t) = e0 exp(Ghat t) w with Ghat = rate (Phat - I), and it
is evaluated the same way.  Its giant step is E = exp(Ghat h) over
h = (B / 4) / rate, the Poisson(B / 4) mixture of Phat^0..Phat^{B-1}: up to
B levels a Horner sum in Phat^8 over the ladder's [I, Phat, ..., Phat^7]
(within 1e-15 of its largest entry of the band's term-by-term sum), above
B summed on the band.  E depends on Phat alone, not on the rate, so the
discrete law keeps it and the blocks e0 E^s R too, grown by the same
doubling from E, E^2, E^4, ... and shared by its continuous laws of any
rate.  With rate t = s B / 4 + r, F(t) is block s weighted by the
Poisson(r) probabilities of 0..B-1 steps.  The Poisson mass past B - 1
steps is at most 1.4e-19 for every r <= B / 4, so no series is cut per time.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .config import _BLOCK_STEPS, IMAG_PROB_TOL, MAX_HORIZON, TOL_NONNEG, tol_alg
from .errors import (
    HorizonExceeded,
    ImaginaryResidue,
    MonotoneHypothesisFails,
    NotErgodic,
    NumericalBreakdown,
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
    _BlockRows,
    _dense,
    _power_ladder,
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

#: uniformization steps in one continuous giant step, the mean of its Poisson mixture
_GIANT_MEAN = _BLOCK_STEPS / 4


def _stable_pairs(thetas: np.ndarray) -> np.ndarray:
    """Real ``thetas`` in an order whose dual has bounded powers, when one exists.

    The i-th most negative theta b pairs with the i-th largest a, a first.
    When a >= |b| the pair's pmf is proportional to
    (a^{k+1} - b^{k+1}) / (a - b) >= 0, so every prefix of the dual is a law.
    The unpaired thetas follow in ascending order.  Without a negative theta,
    or when some pair has a < |b|, ``thetas`` come back as they are.
    """
    neg = np.sort(thetas[thetas < 0.0])
    if not len(neg):
        return thetas
    rest = np.sort(thetas[thetas >= 0.0])[::-1]
    partners = rest[: len(neg)]
    if len(partners) < len(neg) or (partners < -neg).any():
        return thetas
    return np.concatenate([np.column_stack([partners, neg]).ravel(), rest[len(neg):][::-1]])


def _real_probability(values: np.ndarray, context: str):
    """Strip an imaginary part below tolerance; raise beyond it."""
    if not np.iscomplexobj(values):
        return values
    worst = float(np.abs(values.imag).max()) if values.size else 0.0
    if worst > IMAG_PROB_TOL:
        raise ImaginaryResidue(f"{context} retained imaginary part {worst!r}")
    return values.real


def _poisson_weights(mus: np.ndarray) -> np.ndarray:
    """Poisson(mu) probabilities of 0..B-1 steps, column i for mus[i] in [0, B / 4].

    A running product from e^{-mu}, which cannot underflow for mu this small.
    """
    out = np.empty((_BLOCK_STEPS, len(mus)))
    out[0] = np.exp(-mus)
    np.divide(mus, np.arange(1, _BLOCK_STEPS)[:, None], out=out[1:])
    return np.cumprod(out, axis=0, out=out)


def _target_column(w: np.ndarray) -> np.ndarray:
    """The link's target column ``w``, checked to reach 1 at the top level.

    It does in exact arithmetic; a float64 link that misses by more than the
    algebraic tolerance has lost the digits the law needs.
    """
    residual = float(abs(w[-1] - 1.0))
    if residual > tol_alg(len(w)):
        raise NumericalBreakdown(
            f"the link's target column does not reach 1 (residual {residual!r}); "
            "its recurrence lost that much in double precision"
        )
    return w


def _floor(t) -> np.ndarray:
    """floor(t) as integers, for scalar or array t; a NaN or infinite t has no step."""
    times = np.atleast_1d(np.asarray(t))
    if times.dtype.kind in "iu":
        return times.astype(int, copy=False)
    if not np.isfinite(times).all():
        raise ValueError("times must be finite")
    return np.floor(times).astype(int)


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
        residual = float(abs(w[-1] - 1.0))
        if residual > tol_alg(len(w)):
            raise PreconditionError(f"target column does not reach 1 (residual {residual!r})")
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
        hold = np.asarray(thetas, dtype=self._dtype)
        if real and not w[:-1].any():
            # with level weights e_d the law is a convolution of geometric
            # factors, whatever the order of theta; the dual's levels take the
            # order that keeps its powers bounded
            hold = _stable_pairs(hold)
        self._hold = np.append(hold, 1.0)
        self._move = 1.0 - self._hold

    @property
    def d(self) -> int:
        return len(self.thetas)

    def __repr__(self) -> str:
        return f"DiscreteAbsorptionLaw(kind={self.kind!r}, d={self.d})"

    # -- the dual's powers, each formed on first use and kept -----------

    @property
    def _laddered(self) -> bool:
        """Whether the baby and giant steps come from ``_power_ladder`` on dense Phat.

        Up to B levels the band of Phat^B fills the upper triangle, so the
        band saves nothing and log2 B products beat B steps.  Above B the
        band keeps the rounding of dense steps, and its B^2 n / 2 products
        grow with n where the ladder's grow as n^3 (see the module docstring).
        """
        return len(self._hold) <= _BLOCK_STEPS

    def _step(self) -> np.ndarray:
        """Phat as a dense n x n matrix."""
        return _dense(np.stack([self._hold, self._move]))

    @cached_property
    def _ladder(self) -> tuple[np.ndarray, np.ndarray]:
        """The baby steps and Phat^B, both from one doubling of dense Phat (at most B levels)."""
        w = self.level_weights.astype(self._dtype)[:, None]
        return _power_ladder(self._step(), w, _BLOCK_STEPS)

    @cached_property
    def _baby(self) -> np.ndarray:
        """Columns Phat^k w for k < _BLOCK_STEPS, so that F(sB + k) = e0 Phat^{sB} . column k.

        Both laws' blocks read them.  Up to B levels the ladder forms them by
        doubling, and Phat^B with them; above B they are stepped one column
        at a time.
        """
        if self._laddered:
            return self._ladder[0]
        out = np.empty((len(self._hold), _BLOCK_STEPS), dtype=self._dtype)
        col = self.level_weights.astype(self._dtype)
        for k in range(_BLOCK_STEPS):
            out[:, k] = col
            nxt = col * self._hold
            nxt[:-1] += self._move[:-1] * col[1:]
            col = nxt
        return out

    def _band_powers(self, steps: int):
        """Yield Phat^m for m = 0..steps on its band, which each step overwrites.

        Phat is upper bidiagonal, so Phat^m is zero off its diagonals 0..m:
        row k of the band is diagonal k, padded with zeros past its end, and
        step m touches diagonals 0..m+1 only.  That is about
        steps n min(n, steps) / 2 products where dense steps take steps n^2.
        Each entry is formed as a dense step forms it,
        fl(fl(p hold) + fl(p' move)), so the powers do not depend on the layout.
        """
        n = len(self._hold)
        width = min(steps, n - 1) + 1
        pad = np.zeros(width - 1, dtype=self._dtype)
        # hold[k, i] = hold_{i+k} and move[k, i] = move_{i+k}, 0 past the last level
        hold = sliding_window_view(np.concatenate([self._hold, pad]), n)
        move = sliding_window_view(np.concatenate([self._move, pad]), n)
        band = np.zeros((width, n), dtype=self._dtype)  # band[k, i] = (Phat^m)(i, i + k)
        band[0] = 1.0
        carry = np.empty((width - 1, n), dtype=self._dtype)
        yield band
        for m in range(steps):
            top = min(m + 1, width - 1)
            np.multiply(band[:top], move[:top], out=carry[:top])
            band[: top + 1] *= hold[: top + 1]
            band[1 : top + 1] += carry[:top]
            yield band

    @cached_property
    def _giant(self) -> np.ndarray:
        """S = Phat^B, asked for only once a second block is needed.

        Up to B levels it is the ladder's last square, formed with the baby
        steps.  Above B it is built one step at a time on the band, in B
        steps of about n min(n, B) / 2 products.  Squaring loses the digits
        by which the powers of a signed or complex Phat grow before they
        decay; up to B levels that stays small.  On signed (stable pairs),
        complex, link-route and lazy chains with 2 to 64 levels the
        ladder's S is within 2.4e-15 of its largest entry of B dense steps,
        and the CDF over 20 000 steps within 7.4e-14 of the step-by-step
        recurrence (the band's, 2.1e-14).  The block rows square S itself,
        up to S^K with K at most 512 (``_BlockRows``); on the signed n = 200
        and complex n = 20 chains of the tests the CDF over 20 000 steps
        matches matrix powers of the primal to 1e-10.
        """
        if self._laddered:
            return self._ladder[1]
        for band in self._band_powers(_BLOCK_STEPS):
            pass
        return _dense(band)

    @cached_property
    def _exp_giant(self) -> np.ndarray:
        """E = exp(Ghat h) = sum over j < B of Poisson(j; B / 4) Phat^j, the continuous giant step.

        The rate only sets h = (B / 4) / rate.  The Poisson mass past B - 1
        steps is about 1.4e-19.  For a real spectrum Ghat is a pure-birth
        generator, so E is stochastic whatever the signs of theta.  Up to B
        levels the sum is taken by Horner in Phat^8 (Paterson and
        Stockmeyer): with [I, Phat, ..., Phat^7] and Phat^8 from the ladder,
        E = (...(A_7 Phat^8 + A_6) Phat^8 ...) + A_0, A_i = sum over k < 8 of
        Poisson(8i + k) Phat^k, in 13 products.  Above B it is summed on the
        band over the B steps, as S is built there.
        """
        weights = _poisson_weights(np.array([_GIANT_MEAN]))[:, 0]
        if self._laddered:
            n = len(self._hold)
            powers, eighth = _power_ladder(self._step(), np.eye(n, dtype=self._dtype), 8)
            parts = np.tensordot(weights.reshape(-1, 8), powers.reshape(n, 8, n), ([1], [1]))
            total = parts[-1]
            for part in parts[-2::-1]:
                total = total @ eighth + part
        else:
            powers = self._band_powers(_BLOCK_STEPS - 1)
            total = weights[0] * next(powers)
            for weight, band in zip(weights[1:], powers):
                total += weight * band
            total = _dense(total)
        # the dual's top level is absorbing, so E keeps it exactly; the float
        # sum of the weights may miss 1 by an ulp, and that loss would
        # compound over the blocks
        total[-1, -1] = 1.0
        return total

    @cached_property
    def _rows(self) -> _BlockRows:
        """The blocks e0 S^s R of the CDF."""
        return _BlockRows(np.eye(1, len(self._hold), dtype=self._dtype)[0], self._baby)

    @cached_property
    def _exp_rows(self) -> _BlockRows:
        """The blocks e0 E^s R that every continuous law on this dual reads."""
        return _BlockRows(np.eye(1, len(self._hold), dtype=self._dtype)[0], self._baby)

    def _cdf(self, t: int) -> np.ndarray:
        """F at steps 0, 1, ..., t at least, its blocks doubling up to MAX_HORIZON + 1 steps."""
        cap = -(-(MAX_HORIZON + 1) // _BLOCK_STEPS)
        return self._rows.upto(t // _BLOCK_STEPS, cap, lambda: self._giant).ravel()

    def _exp_blocks(self, s: int) -> np.ndarray:
        """Blocks e0 E^s R, s = 0, 1, ..., s at least, doubling up to MAX_HORIZON / (B / 4)."""
        cap = int(MAX_HORIZON // _GIANT_MEAN) + 1
        return self._exp_rows.upto(s, cap, lambda: self._exp_giant)

    # -- evaluation ----------------------------------------------------

    def _cdf_at(self, ts: np.ndarray) -> np.ndarray:
        """F at integer steps, 0 at negative ones."""
        if not ts.size:
            return np.zeros(0)
        cdf = self._cdf(max(int(ts.max()), 0))
        if ts.min() >= 0:
            return cdf[ts]
        return np.where(ts >= 0, cdf[np.maximum(ts, 0)], 0.0)

    def cdf(self, t):
        """P(T <= t) for real t (scalar or array), that is F at floor(t)."""
        vals = _real_probability(self._cdf_at(_floor(t)), "cdf")
        return float(vals[0]) if np.ndim(t) == 0 else vals

    def pmf(self, t):
        """P(T = t) for real t (scalar or array); 0 off the integers."""
        ts = _floor(t)
        vals = _real_probability(self._cdf_at(ts) - self._cdf_at(ts - 1), "pmf")
        vals = np.where(ts == np.atleast_1d(t), vals, 0.0)
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
        if not 0.0 <= q < 1.0:
            raise ValueError("quantile level must be in [0, 1)")
        start = 0
        while True:
            cdf = self._cdf(start)
            stop = min(len(cdf), MAX_HORIZON + 1)
            hits = np.flatnonzero(_real_probability(cdf[start:stop], "cdf") >= q)
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
    """Law of a CTMC hitting time through the dual in continuous time.

    F(t) = e0 exp(Ghat t) w, where Ghat = rate (Phat - I) is the generator of
    the discrete law's dual at the uniformization rate.  ``rates`` holds the
    exponential rates theta -> rate * (1 - theta) when the spectrum is real
    (they are positive even for negative eigenvalues); the law is then a
    hypoexponential or a mixture of hypoexponential prefixes.
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
        """P(T <= t) for t >= 0 (scalar or array).

        With rate t = s B / 4 + r and 0 <= r < B / 4, F(t) is block s of the
        discrete law's e0 E^s R weighted by the Poisson(r) probabilities of
        0..B-1 steps, so a time's value does not depend on the other times
        requested with it.  A time
        past MAX_HORIZON uniformization steps raises ``HorizonExceeded``
        before anything is allocated.
        """
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        if not (ts >= 0).all():
            raise ValueError("times must be nonnegative")
        if not ts.size:
            return np.zeros(0)
        mus = self.rate * ts
        if mus.max() > MAX_HORIZON:
            raise HorizonExceeded(
                f"Poisson series of {mus.max():.4g} uniformization steps at "
                f"t = {float(ts.max())!r} exceeds {MAX_HORIZON}"
            )
        ks = np.floor(mus / _GIANT_MEAN).astype(int)
        blocks = self.discrete._exp_blocks(int(ks.max()))
        weights = _poisson_weights(mus - _GIANT_MEAN * ks)
        out = _real_probability(np.einsum("ji,ij->i", weights, blocks[ks]), "cdf")
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
    dual), and stationary -> monotone -> certification; a full separation
    scan is kept too.  The laws, ``verify`` and the command line all read them
    from one Analysis.
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
        self._scan: SeparationProfile | None = None

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
        """The separation profile from the initial law; see ``duality.separation``.

        The full scan (``t_max`` None) is kept, and a later ``t_max`` inside
        it is cut from it rather than scanned again.
        """
        if t_max is not None and t_max < 0:
            raise ValueError("t_max must be nonnegative")
        if not self.chain_class.ergodic:
            raise NotErgodic("separation requires an ergodic kernel")
        if t_max is None:
            if self._scan is None:
                scan = _separation(self.kernel, self.stationary, self.m0, None)
                scan.s.setflags(write=False)  # shared by every reader of this Analysis
                scan.argmin_state.setflags(write=False)
                self._scan = scan
            return self._scan
        scan = self._scan
        if scan is None or t_max >= len(scan.s):
            return _separation(self.kernel, self.stationary, self.m0, t_max)
        argmin = scan.argmin_state[: t_max + 1]
        return SeparationProfile(scan.s[: t_max + 1], argmin, bool(np.all(argmin == self.kernel.d)))

    def absorption_law(self) -> DiscreteAbsorptionLaw | ContinuousAbsorptionLaw:
        """The hitting-time law of the target; see the module function ``absorption_law``.

        A generator's law is its uniformized kernel's dual run in continuous time.
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
            w = _target_column(self.link.rows[:, -1])
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
            w = _target_column(link.rows[:, -1] / self.stationary[-1])
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
    NumericalBreakdown
        The link's target column misses 1 by more than ``tol_alg(n)``.
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
    NumericalBreakdown
        The link's target column, over pi(d), misses 1 by more than ``tol_alg(n)``.
    """
    return Analysis(kernel, m0).sst_law()


def hypoexp_law(gen: RateGenerator, m0=None) -> ContinuousAbsorptionLaw:
    """Exact absorption-time law of a CTMC through its pure-birth dual.

    The generator G is uniformized at a rate theta, and the uniformized
    kernel's spectrum and link give the dual generator
    Ghat = theta (Phat - I); the law is F(t) = e0 exp(Ghat t) w.  A skip-free
    generator started at 0 with real spectrum yields the hypoexponential with
    rates theta * (1 - theta_j); the general case is the continuous mixture
    built from the uniformized chain's link.  The discrete structure
    transfers exactly: the uniformized kernel's spectral polynomials are
    polynomials in G, so link, weights and level structure agree with the
    continuous-time intertwining.  Raises ``ValidationError`` on a transition
    kernel, and otherwise as ``absorption_law`` does.
    """
    if not isinstance(gen, RateGenerator):
        raise ValidationError("hypoexp_law requires a RateGenerator")
    return Analysis(gen, m0).absorption_law()
