"""Coupled sample paths of primal chains and their duals, plus verification.

The couplings realize the conditional-law picture: given the dual's position,
the primal state is distributed by the corresponding link row, and the dual
moves one level at a time (discrete skip-free and continuous cases) or through
the climb-or-jump structure of the modified dual (general case).

``verify`` takes the link, dual and modified dual of its coupling from an
``Analysis`` (its own, or the caller's), so they are built once per request
and the law under test is read off the same stages.  It infers the mode, or
rejects one that does not fit the chain, rather than test another law than
the one asked for; its gates are fixed in ``config``.  It simulates its
traces in lockstep blocks of ``config._TRACE_BLOCK``, jump to jump: every
pass of the block's loop moves each trace to the next change of its pair
(dual level, primal state).  In discrete time the pair's hold is one
geometric draw and its exit a two-stage draw (``_Discrete``), so a chain
that mostly holds costs its jumps, not its steps; in continuous time the
primal's and the dual's clocks race.  Seeded discrete reports therefore
differ from those of the earlier step-by-step simulation, which drew one
primal move per step, and from those that drew the holds with numpy's
``geometric``; continuous ones do not.  Each block draws from its
own counter-based Philox stream, keyed (seed, block index), so results are
reproducible for any partition of blocks across workers; the process pool
is imported only when there is more than one worker.  The scalar
``simulate_*`` functions are one-trace, step-by-step references.

The harness counts each block into arrays and applies the gates: exact-law
KS on absorption times, chi-square on the per-step conditional laws,
chi-square on the largest-level statistic, per-segment climb laws, and
zero-tolerance structural counts (domination, simultaneous absorption,
link-support positivity).  All chi-square tables go through one array pass
with forward bin merging (``_chi_square``).  The discrete gates take their
p-values from numpy series (``_chi2_sf`` for whole degrees of freedom,
``_kolmogorov_sf``), so they load no scipy module; only the continuous KS
gates call ``scipy.stats.kstwo``.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import _TRACE_BLOCK, _VERIFY_GATES, MAX_HORIZON
from .errors import InsufficientSamples, NotStochasticLink
from .chains import RateGenerator, TransitionKernel
from .duality import DualKernel, LinkMatrix, ModifiedDual
from .laws import Analysis

__all__ = [
    "CouplingTrace",
    "VerifyReport",
    "simulate_coupled_discrete",
    "simulate_coupled_continuous",
    "simulate_general_dual",
    "trace_stream",
    "verify",
]


def trace_stream(seed: int, index: int) -> np.random.Generator:
    """Counter-based RNG: Philox keyed by (seed, index).

    ``verify`` draws block ``index`` of its traces from ``trace_stream(seed,
    index)``; the scalar simulators take one stream per trace.
    """
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


def _pick(cum_row: np.ndarray, u: float) -> int:
    j = int(np.searchsorted(cum_row, u, side="right"))
    return min(j, len(cum_row) - 1)


def _first_hit(path: tuple[int, ...], states) -> int | None:
    for t, s in enumerate(path):
        if s in states:
            return t
    return None


def _trace(primal: list, dual: list, d: int, absorbing, times: list | None = None) -> CouplingTrace:
    """The CouplingTrace of finished paths; ``times`` holds continuous event epochs."""
    t_primal = _first_hit(primal, (d,))
    t_dual = _first_hit(dual, absorbing)
    if t_dual is None:
        largest = max(dual)
    else:
        largest = max(dual[:t_dual]) if t_dual > 0 else -1
    if times is not None:  # step indices to event epochs
        t_primal = None if t_primal is None else times[t_primal]
        t_dual = None if t_dual is None else times[t_dual]
    return CouplingTrace(
        primal_path=tuple(primal),
        dual_path=tuple(dual),
        event_times=None if times is None else tuple(times),
        t_primal=t_primal,
        t_dual=t_dual,
        largest_dual=largest,
        hit_horizon=primal[-1] != d,
    )


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
    draw = rng.random

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

    return _trace(primal, dual_states, d, (d,))


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

    return _trace(primal, dual_states, d, (d,), times)


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
    absorbing = set(range(modified.absorbing_start, d + 1))
    cum = np.cumsum(mat, axis=1)
    draw = rng.random

    if draw() < modified.initial[d]:
        return _trace([d], [d], d, absorbing)
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

    return _trace(primal, dual_states, d, absorbing)


# ---------------------------------------------------------------------------
# lockstep simulation
# ---------------------------------------------------------------------------

#: bits of the per-trace structural flags
_POSITIVITY, _DOMINATION = 1, 2


@dataclass
class _Counts:
    """What the gates read, counted over the completed traces of whole blocks.

    A trace that hits the horizon adds to ``horizon_hits`` only.  The lists
    hold one array per block in block order, so counts of consecutive block
    ranges, merged in order, are the same for any partition.
    """

    cells: np.ndarray | None  # [t, x_hat, x] over steps 1..t_cap; None in continuous time
    largest: np.ndarray  # histogram of the largest dual level L, indexed L + 1
    violations: np.ndarray  # domination, absorption mismatch, positivity
    horizon_hits: int = 0
    times: list = field(default_factory=list)  # absorption times, in trace order
    segments: dict = field(default_factory=dict)  # (L, level) -> climb-segment durations

    def merge(self, other: _Counts) -> None:
        if self.cells is not None:
            self.cells += other.cells
        self.largest += other.largest
        self.violations += other.violations
        self.horizon_hits += other.horizon_hits
        self.times += other.times
        for key, durs in other.segments.items():
            self.segments.setdefault(key, []).extend(durs)


def _jump_table(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows of a nonnegative matrix as cumulative laws for ``_pick_rows``, and their masses.

    Each row is divided by its own last cumulative sum, so the column of its
    last positive entry holds exactly 1; the last column is +inf.
    """
    cum = np.cumsum(rows, axis=1)
    totals = cum[:, -1].copy()
    cum /= np.where(totals > 0, totals, 1.0)[:, None]
    cum[:, -1] = np.inf
    return cum, totals


def _pick_rows(table: np.ndarray, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """For every i, the first column of row x_i of a ``_jump_table`` above u_i.

    Cumulative sums of nonnegative entries never decrease, so that column is
    the count of entries <= u_i, and the +inf last column caps it.
    """
    return (table.take(x, axis=0) > u[:, None]).argmax(axis=1)


class _Lockstep:
    """Coupled traces of one chain, simulated a block of traces at a time, jump to jump.

    A block keeps the primal and dual states and the elapsed time of its
    active traces, and the time each trace's dual left each level; a trace
    retires when it stops.  Subclasses give ``step(rng, x, x_hat, code) ->
    (x, x_hat, elapsed)``, the next change of the pair (x_hat, x) of every
    active trace and the time until it, and ``start`` when the chains do not
    both start at 0.  One loop serves every coupling: each pass moves every
    active trace by one jump, a geometric hold in discrete time and the
    exponential race in continuous time.  The horizon bounds steps in
    discrete time, where a trace whose next jump lands past it is a horizon
    hit, and events in continuous time.  The conditional cells count, for
    each step 1..t_cap, the pair a completed trace held then: each hold that
    starts by ``t_cap`` is kept as (trace, entry step, exit step, pair) and
    added once per block through a difference array over the steps.  Tables
    over pairs (x_hat, x) are flat, indexed x_hat * n + x.
    """

    #: count climb segments only for traces whose dual absorbs
    absorbed_segments_only = False

    def __init__(self, link_rows: np.ndarray, levels: int, dominated: bool, *,
                 samples: int, seed: int, horizon: int, t_cap: int):
        n = self.n = link_rows.shape[0]
        self.d = n - 1
        self.link_rows = link_rows
        #: dual levels below this are transient; segments are recorded for them
        self.levels = levels
        self.samples, self.seed, self.horizon, self.t_cap = samples, seed, horizon, t_cap
        #: a trace stops after this many jumps, or past this time, as a horizon hit
        self.max_events, self.max_time = horizon, math.inf
        xh, x = np.divmod(np.arange(n * n), n)
        self.flags = (np.where(link_rows.ravel() <= 0.0, _POSITIVITY, 0)
                      | np.where(dominated & (x > xh), _DOMINATION, 0)).astype(np.uint8)
        #: pairs that end a trace: primal absorption, or a pair that is never
        #: left, which counts as a horizon hit
        self.stop = x == self.d

    def start(self, rng: np.random.Generator, size: int):
        return np.zeros(size, dtype=np.int64), np.zeros(size, dtype=np.int64)

    def count(self, lo: int, hi: int) -> _Counts:
        """Counts of blocks lo..hi-1."""
        n = self.n
        counts = _Counts(np.zeros((self.t_cap + 1, n, n), dtype=np.int64) if self.t_cap else None,
                         np.zeros(n + 1, dtype=np.int64), np.zeros(3, dtype=np.int64))
        for block in range(lo, hi):
            self._run(block, counts)
        return counts

    def _run(self, block: int, counts: _Counts) -> None:
        size = min(_TRACE_BLOCK, self.samples - block * _TRACE_BLOCK)
        rng = trace_stream(self.seed, block)
        n, d, levels, t_cap = self.n, self.d, self.levels, self.t_cap
        x, xh = self.start(rng, size)
        idx = np.arange(size)
        now = np.zeros(size)
        flags = np.zeros(size, dtype=np.uint8)
        left = np.full((size, levels), np.nan)  # when the dual left each level
        holds = []  # (trace, entry step, exit step, pair) of holds entered by t_cap
        t_end = np.full(size, np.inf)  # primal absorption time; inf for a horizon hit
        xh_end = np.zeros(size, dtype=np.int64)
        events = 0
        while True:
            code = xh * n + x
            flag = self.flags[code]
            if np.count_nonzero(flag):
                flags[idx] |= flag
            late = now > self.max_time
            out = self.stop[code] | late
            if np.count_nonzero(out):
                done = (x == d) & ~late
                t_end[idx[done]], xh_end[idx[done]] = now[done], xh[done]
                keep = ~out
                idx, x, xh, now, code = idx[keep], x[keep], xh[keep], now[keep], code[keep]
            if not idx.size or events == self.max_events:
                break
            events += 1
            y, nxt, dt = self.step(rng, x, xh, code)
            then = now + dt
            if t_cap:
                early = now <= t_cap
                holds.append((idx[early], now[early], then[early], code[early]))
            climbed = (nxt != xh) & (xh < levels)
            if np.count_nonzero(climbed):
                left[idx[climbed], xh[climbed]] = then[climbed]
            x, xh, now = y, nxt, then

        completed = t_end < np.inf
        counts.horizon_hits += size - int(completed.sum())
        # Dual paths never descend.  So a level was entered when the dual left
        # the level it visited before (the start level at 0); the dual absorbed
        # iff it ended at a level >= levels, when it last left a level; and L
        # is the highest level it left (-1 if it started absorbed).
        entered = np.zeros_like(left)
        entered[:, 1:] = np.fmax.accumulate(left, axis=1)[:, :-1]
        dur = left - np.nan_to_num(entered)
        absorbed = xh_end >= levels
        t_dual = np.fmax.reduce(left, axis=1, initial=0.0)
        last = np.where(np.isnan(left), -1, np.arange(levels)).max(axis=1, initial=-1)
        largest = np.where(absorbed, last, xh_end)
        for i, bad in enumerate((flags & _DOMINATION, ~absorbed | (t_dual != t_end),
                                 flags & _POSITIVITY)):
            counts.violations[i] += np.count_nonzero(bad[completed])
        counts.times.append(t_end[completed])
        counts.largest += np.bincount(largest[completed] + 1, minlength=n + 1)
        if counts.cells is not None:
            # the absorbing pair is held for the step of absorption
            fin = np.flatnonzero(completed & (t_end <= t_cap))
            holds.append((fin, t_end[fin], t_end[fin] + 1.0, xh_end[fin] * n + d))
            trace, enter, leave, code = map(np.concatenate, zip(*holds))
            keep = completed[trace]
            enter, leave, code = enter[keep], np.minimum(leave[keep], t_cap + 1), code[keep]
            # +1 from the entry step on, -1 from the exit step on; step 0 is not a cell
            span = (t_cap + 2) * n * n
            diff = (np.bincount(enter.astype(np.intp) * (n * n) + code, minlength=span)
                    - np.bincount(leave.astype(np.intp) * (n * n) + code, minlength=span))
            counts.cells[1:] += diff.reshape(t_cap + 2, n, n).cumsum(axis=0)[1:-1]
        segs = completed & absorbed if self.absorbed_segments_only else completed
        for big in np.unique(largest[segs]):
            for level, durs in enumerate(dur[segs & (largest == big)].T):
                if (durs := durs[~np.isnan(durs)]).size:
                    counts.segments.setdefault((int(big), level), []).append(durs)


def _geometric(u: np.ndarray, log_stay: np.ndarray) -> np.ndarray:
    """Geometric holds on {1, 2, ...} with stay probabilities exp(log_stay), by inversion.

    The hold exceeds k with probability stay^k, and 1 - u is uniform on
    (0, 1], so the hold is 1 + floor(log(1 - u) / log_stay); a stay of 0
    (log_stay -inf) gives exactly 1.
    """
    return 1.0 + np.floor(np.log1p(-u) / log_stay)


class _Discrete(_Lockstep):
    """A discrete-time coupling, simulated jump to jump on the pair chain (x_hat, x).

    One step of a coupling moves the primal by its kernel P, then the dual
    given the primal's new state.  The pair stays at c = (x_hat, x) when the
    primal holds and the dual does not move, so it leaves c with probability
    leave(c) = sum_{y != x} P(x, y) + P(x, x) p_move(c), a sum of
    nonnegative terms, never 1 minus the hold.  Its holding time is
    geometric, drawn by inversion (``_geometric``) against the log of the
    stay P(x, x) p_stay(c), with p_stay the dual's stay weight over its
    total; neither factor is formed by a subtraction.  The exit is drawn in
    two stages: with probability P(x, x) p_move(c) / leave(c) the primal
    holds and the dual moves; otherwise the primal moves to y, drawn from
    row x of P without its diagonal, and the dual moves by the subclass's
    law at (x_hat, y).
    Every table is over pairs.  A pair that is never left ends its trace as
    a horizon hit, as does a jump that lands past the horizon.  A pair from
    which the primal reaches a y where the dual's move is undefined is
    refused when a trace enters it.
    """

    def __init__(self, kernel: TransitionKernel, link_rows: np.ndarray, levels: int,
                 dominated: bool, p_move: np.ndarray, p_stay: np.ndarray,
                 undefined: np.ndarray, **run):
        super().__init__(link_rows, levels, dominated, **run)
        self.max_events, self.max_time = math.inf, self.horizon
        mat = self.matrix = kernel.matrix
        #: [x_hat, y] where the dual's move after the primal lands on y is undefined
        self.undefined = undefined
        hold = np.diag(mat)
        off = mat.copy()
        np.fill_diagonal(off, 0.0)
        self.exit, off_mass = _jump_table(off)
        alone = np.where(hold > 0.0, hold * p_move, 0.0)  # the primal holds, the dual moves
        leave = off_mass + alone
        # refused: the primal can land on a y where the dual's move is undefined
        leave[undefined.astype(float) @ (mat > 0.0).T > 0.0] = np.nan
        with np.errstate(divide="ignore", invalid="ignore"):
            self.alone = np.where(leave > 0.0, alone / leave, 0.0).ravel()
            log_stay = np.where(hold > 0.0, np.log(hold) + np.log(p_stay), -np.inf)
        # a pair always left holds exactly one step; a stay that rounds to 1
        # while the pair can be left takes log(1 - leave), about -leave
        log_stay = np.where(leave >= 1.0, -np.inf, np.where(log_stay < 0.0, log_stay, -leave))
        log_stay[np.isnan(leave)] = np.nan
        self.log_stay = log_stay.ravel()
        self.stop |= (leave == 0.0).ravel()

    def _jump(self, rng, x, xh, code):
        """The primal's next state, whether it held, a uniform for the dual, and the hold."""
        log_stay = self.log_stay[code]
        bad = np.isnan(log_stay)
        if np.count_nonzero(bad):
            i = bad.argmax()
            level, state = int(xh[i]), int(x[i])
            y = np.flatnonzero((self.matrix[state] > 0.0) & self.undefined[level])[0]
            self._refuse(level, int(y))
        u = rng.random((4, x.size))
        dt = _geometric(u[3], log_stay)
        alone = u[0] < self.alone[code]
        return np.where(alone, x, _pick_rows(self.exit, x, u[1])), alone, u[2], dt


class _SkipFree(_Discrete):
    """Primal from 0; the dual climbs with its posterior odds (Fill's coupling).

    Simulated jump to jump: at (x_hat, x) the dual moves alone with
    probability p_move = promote(x_hat, x) when the primal holds, and after
    the primal moves to y it climbs with promote(x_hat, y), which is 1 at
    y = x_hat + 1.  The geometric holds replace the steps at which neither
    moves.
    """

    def __init__(self, kernel: TransitionKernel, link: LinkMatrix, dual: DualKernel, **run):
        n, d = kernel.n, kernel.d
        self.thetas = dual.thetas.real
        # promotion_probability of every (x_hat, y) by the same arithmetic,
        # NaN where it raises; no climb from d
        theta = self.thetas[:d, None]
        up = (1.0 - theta) * link.rows[1:]
        down = theta * link.rows[:-1]
        den = up + down
        with np.errstate(divide="ignore", invalid="ignore"):
            p, stay = up / den, down / den
        ok = (den > 0.0) & (p >= -1e-9) & (p <= 1.0 + 1e-9)
        p = np.where(ok, np.clip(p, 0.0, 1.0), np.nan)
        stay = np.where(ok, np.clip(stay, 0.0, 1.0), np.nan)
        p[np.arange(d), np.arange(1, n)] = 1.0
        stay[np.arange(d), np.arange(1, n)] = 0.0
        promote = np.vstack([p, np.zeros(n)])
        self.promote = promote.ravel()
        super().__init__(kernel, link.rows, d, True, promote, np.vstack([stay, np.ones(n)]),
                         np.isnan(promote), **run)

    def _refuse(self, xh, y):
        promotion_probability(self.thetas, self.link_rows, xh, y)  # raises

    def step(self, rng, x, xh, code):
        y, alone, u, dt = self._jump(rng, x, xh, code)
        return y, xh + (alone | (u < self.promote[xh * self.n + y])), dt


class _General(_Discrete):
    """Primal from m0; the modified dual stays, climbs or jumps to the target.

    After the primal lands on y the move is drawn over {x_bar, x_bar + 1, d}
    with weights Pbar(x_bar, c) Lambda_bar(c, y); a climb that would land on
    d is the jump.  Simulated jump to jump, p_move at (x_bar, x) is the
    climb and jump weight over the total at y = x, and when the primal
    holds at the end of a hold the move is drawn from climb and jump alone.
    """

    def __init__(self, kernel: TransitionKernel, modified: ModifiedDual, **run):
        lam = modified.link.rows
        n, d = kernel.n, kernel.d
        pbar = modified.kernel
        self.start_cum = np.cumsum(lam[0])
        self.start_absorbed = modified.initial[d]
        stay = np.diag(pbar)[:, None] * lam
        climb, jump = np.zeros((2, n, n))
        climb[: d - 1] = np.diag(pbar, 1)[: d - 1, None] * lam[1:d]
        jump[:d] = pbar[:d, d][:, None] * lam[d]
        upto = stay + climb
        total = upto + jump
        move = climb + jump
        # the first n * n entries draw the move after the primal moved, the
        # rest after it held: from {climb, jump} alone
        self.stay = np.concatenate([stay.ravel(), np.zeros(n * n)])
        self.upto = np.concatenate([upto.ravel(), climb.ravel()])
        self.total = np.concatenate([total.ravel(), move.ravel()])
        with np.errstate(divide="ignore", invalid="ignore"):
            p_move, p_stay = move / total, stay / total
        super().__init__(kernel, lam, modified.absorbing_start, False, p_move, p_stay,
                         total <= 0.0, **run)

    def start(self, rng, size):
        u = rng.random((2, size))
        absorbed = u[0] < self.start_absorbed
        x = np.minimum(np.searchsorted(self.start_cum, u[1], side="right"), self.d)
        return np.where(absorbed, self.d, x), np.where(absorbed, self.d, 0)

    def _refuse(self, xh, y):
        raise NotStochasticLink(f"no admissible dual move from x_bar={xh} given primal state {y}")

    def step(self, rng, x, xh, code):
        y, alone, u, dt = self._jump(rng, x, xh, code)
        code = xh * self.n + y + alone * (self.n * self.n)
        v = u * self.total[code]
        nxt = np.where(v < self.stay[code], xh, np.where(v < self.upto[code], xh + 1, self.d))
        return y, nxt, dt


class _Continuous(_Lockstep):
    """Exponential race of the primal's jump clock and the dual's climb clock."""

    absorbed_segments_only = True

    def __init__(self, gen: RateGenerator, link: LinkMatrix, rates: np.ndarray, **run):
        super().__init__(link.rows, gen.d, True, **run)
        n, d, lam = self.n, self.d, link.rows
        off = np.clip(gen.matrix, 0.0, None)
        np.fill_diagonal(off, 0.0)
        self.cum, totals = _jump_table(off)
        # mean waiting times: the primal's by x, the dual's by (x_hat, x),
        # inf for a clock that never rings, NaN where the link has no mass
        with np.errstate(divide="ignore", invalid="ignore"):
            self.primal_scale = np.where(totals > 0, 1.0 / totals, np.inf)
            r = rates[:d, None] * lam[1:] / lam[:d]
            scale = np.where(lam[:d] > 0.0, np.where(r > 0, 1.0 / r, np.inf), np.nan)
        self.dual_scale = np.vstack([scale, np.full(n, np.inf)]).ravel()
        self.stop |= np.isinf(np.tile(self.primal_scale, n)) & np.isinf(self.dual_scale)

    def step(self, rng, x, xh, code):
        dual_scale = self.dual_scale[code]
        bad = np.isnan(dual_scale)
        if np.count_nonzero(bad):
            i = bad.argmax()
            raise NotStochasticLink(
                f"conditional state (x_hat={xh[i]}, x={x[i]}) has zero link mass"
            )
        e = rng.standard_exponential((2, x.size))
        e[0] *= self.primal_scale[x]
        e[1] *= dual_scale
        e[np.isnan(e)] = np.inf  # a zero draw times a clock that never rings
        primal = e[0] <= e[1]
        y = np.where(primal, _pick_rows(self.cum, x, rng.random(x.size)), x)
        return y, xh + (~primal | (y == xh + 1)), np.minimum(e[0], e[1])


# ---------------------------------------------------------------------------
# verification harness
# ---------------------------------------------------------------------------


def _chi_square(observed: np.ndarray, probs: np.ndarray, min_expected: float):
    """Chi-square statistics of the rows of a table, with forward bin merging.

    Row i compares ``observed[i]`` with ``probs[i]`` times the row's total.
    Walking the columns in order, every row accumulates observed and expected
    counts and closes a bin once the expected count reaches ``min_expected``;
    what is left at the end is folded into the row's last bin, or becomes its
    only bin.  Trailing columns of zero counts and zero probability change
    nothing, so rows of different widths may be padded with them.

    Returns the statistics and degrees of freedom of the rows with at least
    one degree of freedom, in row order.  Each statistic is summed over its
    own bins alone, so it equals the one-row computation bit for bit.
    """
    m, width = observed.shape
    total = observed.sum(axis=1)
    expected = probs * total[:, None]
    bin_obs, bin_exp = np.zeros((2, m, width))
    bins = np.zeros(m, dtype=np.int64)
    acc_o, acc_e = np.zeros((2, m))
    for j in range(width):
        acc_o += observed[:, j]
        acc_e += expected[:, j]
        rows = np.flatnonzero(acc_e >= min_expected)
        if rows.size:
            bin_obs[rows, bins[rows]] = acc_o[rows]
            bin_exp[rows, bins[rows]] = acc_e[rows]
            bins[rows] += 1
            acc_o[rows] = acc_e[rows] = 0.0
    # fold the remainder in; adding an empty remainder leaves a bin unchanged
    last = np.arange(m), np.maximum(bins - 1, 0)
    bin_obs[last] += acc_o
    bin_exp[last] += acc_e
    bins = np.where((acc_o > 0) | (acc_e > 0), np.maximum(bins, 1), bins)
    keep = np.flatnonzero((bins >= 2) & (total > 0))
    bins = bins[keep]
    stats = np.empty(len(keep))
    for size in np.unique(bins):  # one sum per bin count, in the order of a 1-d np.sum
        sel = bins == size
        obs, exp = bin_obs[keep[sel], :size], bin_exp[keep[sel], :size]
        stats[sel] = ((obs - exp) ** 2 / exp).sum(axis=1)
    return stats, bins - 1


def _chi2_sf(dof, x) -> np.ndarray:
    """Chi-square survival function for whole degrees of freedom k: Q(k/2, x/2).

    With a = k/2 and y = x/2, Q(a, y) is erfc(sqrt(y)) (k odd only) plus the
    terms e^{-y} y^p / Gamma(p + 1) for p = a - 1, a - 2, ... down to 0 or
    1/2.  Every term is positive, so no digits cancel; each is formed in log
    space, so e^{-y} underflowing does not zero a term that is not negligible.
    """
    dof, x = np.broadcast_arrays(np.atleast_1d(np.asarray(dof, dtype=np.int64)),
                                 np.atleast_1d(np.asarray(x, dtype=float)))
    y = x / 2.0
    i = np.arange(1, dof.max(initial=0) // 2 + 1)
    twice_p = dof[..., None] - 2 * i  # 2p, negative past the last term
    log_gamma = np.array([math.lgamma(h / 2.0) for h in range(2, twice_p.max(initial=0) + 3)])
    with np.errstate(divide="ignore", invalid="ignore"):
        log_terms = (twice_p / 2.0 * np.log(y)[..., None] - y[..., None]
                     - log_gamma[np.maximum(twice_p, 0)])
        q = np.where(twice_p >= 0, np.exp(log_terms), 0.0).sum(axis=-1)
    odd = dof % 2 == 1
    q[odd] += [math.erfc(v) for v in np.sqrt(y[odd]).tolist()]
    return np.where(y > 0.0, q, 1.0)


def _kolmogorov_sf(y) -> np.ndarray:
    """Survival function of Kolmogorov's limiting law, P(K > y).

    2 sum_k (-1)^{k-1} e^{-2k^2 y^2} for y >= 1, and below 1 the Jacobi-theta
    form 1 - sqrt(2 pi)/y sum_k e^{-(2k-1)^2 pi^2 / (8 y^2)}; five terms of
    either series leave a relative error below 1e-20 on its side of 1.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    k, yy = np.arange(1.0, 6.0), (y * y)[..., None]
    with np.errstate(divide="ignore", invalid="ignore"):
        large = 2.0 * ((-1.0) ** (k - 1.0) * np.exp(-2.0 * k * k * yy)).sum(axis=-1)
        small = 1.0 - np.sqrt(2.0 * np.pi) / y * np.exp(
            -((2.0 * k - 1.0) ** 2) * np.pi ** 2 / (8.0 * yy)).sum(axis=-1)
    return np.where(y >= 1.0, large, np.where(y > 0.0, small, 1.0))


def _bonferroni(pvalues, alpha: float):
    """(per-test level, smallest p-value, passed) of a family; (None, None, True) if empty."""
    if not len(pvalues):
        return None, None, True
    level = alpha / len(pvalues)
    smallest = float(min(pvalues))
    return level, smallest, smallest >= level


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
        out = asdict(self)
        out.pop("absorption_times")
        return out


def verify(
    chain,
    *,
    samples: int,
    seed: int,
    mode: str | None = None,
    m0=None,
    law=None,
    horizon: int = MAX_HORIZON,
    jobs: int = 1,
) -> VerifyReport:
    """Verify the exact law of a chain against coupled dual sample paths.

    Parameters
    ----------
    chain : TransitionKernel, RateGenerator or Analysis
        The chain, or its ``Analysis``, whose link, dual and modified dual
        the coupling then reuses.
    samples, seed : int
        Monte Carlo size and the base of the per-block Philox keys.
    mode : str, optional
        'skipfree' (a skip-free kernel from state 0), 'continuous' (a
        skip-free generator from state 0) or 'general' (any kernel and
        initial law).  Default: 'continuous' for a generator, else
        'skipfree' where it fits, else 'general'.
    m0 : optional
        Initial law (default: state 0); an Analysis carries its own.
    law : optional
        The law under test (the chain's own when omitted).  The coupling
        always comes from the chain, so a wrong law meets the true link.
    horizon : int
        A trace still running after this many steps (in discrete time) or
        jumps (in continuous time) is a horizon hit; at least 1.
    jobs : int
        Worker processes, each given a run of whole blocks of traces; the
        per-block streams make the result identical for any job count.

    Raises
    ------
    ValueError
        Fewer than one sample, a horizon below 1, not a chain, unknown mode,
        or a mode whose coupling does not exist for this chain type, initial
        law or structure (checked in that order).
    NotStochasticLink
        The coupling construction does not exist for this chain.
    InsufficientSamples
        No statistical gate reached its minimum cell occupancy.
    """
    if samples < 1:
        raise ValueError("samples must be positive")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    given = isinstance(chain, Analysis)
    if not (given or isinstance(chain, (TransitionKernel, RateGenerator))):
        raise ValueError("verify needs a TransitionKernel, a RateGenerator or an Analysis")
    if given and m0 is not None:
        raise ValueError("an Analysis carries its own initial law; pass no m0")
    analysis = chain if given else Analysis(chain, m0)
    generator = analysis.rate is not None
    skip_free_from_zero = analysis._skip_free_from_zero
    if mode is None:
        mode = "continuous" if generator else "skipfree" if skip_free_from_zero else "general"
    elif mode not in ("skipfree", "general", "continuous"):
        raise ValueError(f"unknown mode {mode!r}")
    if generator != (mode == "continuous"):
        chain_type = TransitionKernel if generator else RateGenerator
        raise ValueError(f"{mode} mode requires a {chain_type.__name__}")
    if mode != "general" and not skip_free_from_zero:
        misfit = ("starts at state 0; other starts" if not analysis.starts_at_zero
                  else "needs a skip-free chain; others")
        raise ValueError(f"{mode} coupling {misfit} need mode 'general'")
    if law is None:
        law = analysis.absorption_law()
    # continuous time has no per-step conditional cells
    sim = _coupling(analysis, mode, samples=samples, seed=seed, horizon=horizon,
                    t_cap=0 if generator else _VERIFY_GATES["conditional_t_cap"])
    blocks = -(-samples // _TRACE_BLOCK)
    per_job = -(-blocks // max(jobs, 1))
    spans = [(lo, min(lo + per_job, blocks)) for lo in range(0, blocks, per_job)]
    if len(spans) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=len(spans)) as pool:
            futures = [pool.submit(sim.count, lo, hi) for lo, hi in spans]
            counts = futures[0].result()
            for fut in futures[1:]:
                counts.merge(fut.result())
    else:
        counts = sim.count(0, blocks)

    return _build_report(mode, samples, seed, law, counts,
                         analysis.spectrum.nonunit.real, sim.link_rows)


def _coupling(analysis: Analysis, mode: str, **run) -> _Lockstep:
    """The lockstep simulator of ``verify``, from the stages of ``analysis``."""
    if mode == "general":
        modified = analysis.modified
        if not modified.stochastic:
            raise NotStochasticLink("general coupling requires a stochastic modified dual")
        return _General(analysis.kernel, modified, **run)
    link = analysis.link
    if not link.stochastic:
        raise NotStochasticLink(f"{'continuous' if mode == 'continuous' else 'discrete'} "
                                "coupling requires a stochastic link")
    if mode == "continuous":
        return _Continuous(analysis.chain, link, analysis.rates, **run)
    return _SkipFree(analysis.kernel, link, analysis.dual, **run)


def _ks_two_sided(x: np.ndarray, cdf) -> tuple[float, float]:
    """Kolmogorov-Smirnov statistic of a sample against ``cdf``, and its exact p-value.

    The statistic and p-value of ``scipy.stats.kstest(x, cdf)``, without its
    argument handling.
    """
    from scipy import stats

    x = np.sort(x)
    n = len(x)
    cdfvals = cdf(x)
    stat = max((np.arange(1.0, n + 1) / n - cdfvals).max(),
               (cdfvals - np.arange(0.0, n) / n).max())
    return float(stat), float(np.clip(stats.kstwo.sf(stat, n), 0.0, 1.0))


def _build_report(mode, samples, seed, law, counts: _Counts,
                  thetas, link_rows) -> VerifyReport:
    alpha = _VERIFY_GATES["significance"]
    min_count, min_expected = _VERIFY_GATES["min_cell_count"], _VERIFY_GATES["min_expected"]
    times = np.concatenate(counts.times) if counts.times else np.empty(0)
    if len(times) == 0:
        raise InsufficientSamples("no completed traces to verify")
    empirical_mean = float(times.mean())

    # exact-law KS on absorption times
    if mode == "continuous":
        ks_stat, ks_pvalue = _ks_two_sided(times, law.cdf)
        ks_threshold = alpha
        ks_passed = ks_pvalue > alpha
    else:
        # sup_t |ecdf(t) - F(t)| over t = 0..max
        ecdf = np.cumsum(np.bincount(times.astype(np.int64))) / len(times)
        ks_stat = float(np.abs(ecdf - law.cdf(np.arange(len(ecdf)))).max())
        # asymptotic Kolmogorov critical value c_alpha / sqrt(n)
        ks_threshold = float(np.sqrt(-np.log(alpha / 2.0) / 2.0)) / np.sqrt(len(times))
        ks_pvalue = None
        ks_passed = ks_stat <= ks_threshold

    # conditional-law chi-square per (t, dual state) cell, over each level's
    # support columns: one table, its rows left-aligned and padded with zeros
    cond_results = np.empty(0)
    if counts.cells is not None:
        n = link_rows.shape[0]
        support_probs = np.zeros((n, n))
        support_cols = np.full((n, n), n)  # column n of the padded rows is zero
        for level, probs in enumerate(np.clip(link_rows, 0.0, None)):
            cols = np.flatnonzero(probs > 0.0)
            support_probs[level, : len(cols)] = probs[cols] / probs[cols].sum()
            support_cols[level, : len(cols)] = cols
        t_idx, levels = np.nonzero(counts.cells.sum(axis=2) >= min_count)
        tested = support_cols[levels, 1] < n  # two support states or more
        t_idx, levels = t_idx[tested], levels[tested]
        rows = np.zeros((len(levels), n + 1), dtype=np.int64)
        rows[:, :n] = counts.cells[t_idx, levels]
        cond_stats, cond_dofs = _chi_square(np.take_along_axis(rows, support_cols[levels], axis=1),
                                            support_probs[levels], min_expected)
        cond_results = _chi2_sf(cond_dofs, cond_stats)
    conditional_cells = len(cond_results)
    conditional_alpha, conditional_min_p, conditional_passed = _bonferroni(cond_results, alpha)
    if mode != "continuous" and conditional_cells == 0:
        raise InsufficientSamples(
            f"no conditional-law cell reached {min_count} observations"
        )

    # largest-level statistic: chi-square against the mixture weights in
    # general mode, elsewhere a structural count of traces with L != d - 1
    domination, mismatches, positivity = (int(v) for v in counts.violations)
    structural_l = 0 if mode == "general" else len(times) - int(counts.largest[-2])
    l_stat = l_pvalue = None
    l_passed = structural_l == 0
    if mode == "general":
        weights = np.clip(law.weights.real if np.iscomplexobj(law.weights) else law.weights,
                          0.0, None)
        observed = counts.largest[: len(weights)].astype(float)
        l_stats, l_dofs = _chi_square(observed[None], (weights / weights.sum())[None],
                                      min_expected)
        if len(l_stats):
            l_stat, l_pvalue = float(l_stats[0]), float(_chi2_sf(l_dofs, l_stats)[0])
            l_passed = l_pvalue >= alpha

    # per-segment climb laws: geometric (discrete) or exponential (continuous);
    # discrete segments use the conservative asymptotic Kolmogorov p-value
    seg_results, kolmogorov_args = [], []
    for key in sorted(counts.segments):
        durs = np.concatenate(counts.segments[key])
        if len(durs) < min_count:
            continue
        level = key[1]
        if mode == "continuous":
            nu = law.rates[level]
            seg_results.append(_ks_two_sided(durs, lambda t: 1.0 - np.exp(-nu * t))[1])
        else:
            theta = float(thetas[level])
            if theta <= 0.0:
                # degenerate one-step climb; any duration > 1 is impossible
                seg_results.append(1.0 if np.all(durs == 1.0) else 0.0)
                continue
            kmax = int(durs.max())
            cdf_geom = 1.0 - theta ** np.arange(1, kmax + 1)
            hist = np.bincount(durs.astype(np.int64), minlength=kmax + 1)[1:]
            ecdf = np.cumsum(hist) / len(durs)
            d_seg = float(np.abs(ecdf - cdf_geom).max())
            kolmogorov_args.append(d_seg * np.sqrt(len(durs)))
    seg_results += _kolmogorov_sf(kolmogorov_args).tolist()
    segments_tested = len(seg_results)
    segment_alpha, segment_min_p, segments_passed = _bonferroni(seg_results, alpha)
    if mode == "continuous" and segments_tested == 0:
        raise InsufficientSamples(
            f"no climb segment reached {min_count} observations"
        )

    passed = bool(counts.horizon_hits == domination == mismatches == positivity == 0
                  and ks_passed and conditional_passed and l_passed and segments_passed)
    return VerifyReport(
        mode=mode,
        samples=samples,
        seed=seed,
        exact_mean=float(law.mean()),
        empirical_mean=empirical_mean,
        horizon_hits=counts.horizon_hits,
        domination_violations=domination,
        absorption_mismatches=mismatches,
        positivity_violations=positivity,
        structural_l_violations=structural_l,
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
