"""The four workloads: seeded inputs, one request, and the checks on its outputs.

A workload is built from its seed with numpy alone (``__init__``), computes
its references once per distinct input (``prepare``), turns the matrices into
ssdual objects (``load``), and then serves requests.  Every request of a
workload does the same work; a round is the list of requests that a run
covers a whole number of times.  ``request`` returns one outcome per
operation, an exception included, and ``check`` turns each outcome into a
verdict outside the timed region.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np
from scipy import stats

import chains
import reference as ref

#: fixture chains of the test suite and the paper's running examples
BD3 = np.array([[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.0, 1.0]])
GEN3 = np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.0, 0.0, 1.0]])
CT21 = np.array([[-2.0, 2.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, 0.0]])

#: significance of every statistical gate of ``verify``
ALPHA = 0.01


def attempt(fn, *args, **kwargs):
    """Run one operation; an exception is its outcome rather than an escape."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # every failure of the program under test is counted
        return exc


def _error(outcome) -> str | None:
    return f"{type(outcome).__name__}: {outcome}" if isinstance(outcome, Exception) else None


def _delta(n: int) -> np.ndarray:
    out = np.zeros(n)
    out[0] = 1.0
    return out


def _scaled(mat: np.ndarray, mean: float, m0=None) -> np.ndarray:
    """The chain slowed down to a mean hitting time of ``mean``, when it is faster."""
    return chains.slow_down(mat, max(1.0, mean / ref.discrete_moments(mat, m0)[0]))


def _relaxed(mat: np.ndarray, steps: float) -> np.ndarray:
    """An ergodic chain slowed down to a relaxation time of ``steps``, when it is faster."""
    gap = 1.0 - np.sort(np.linalg.eigvals(mat).real)[-2]
    return chains.slow_down(mat, max(1.0, steps * gap))


@dataclass
class Verdicts:
    """Outcome counts of a run."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(what)


class Workload:
    name = ""
    round_size = 1

    def __init__(self, seed: int, root: str = ".", workdir: str = ".", traced: bool = False) -> None:
        self.seed = seed
        self.root = root
        self.workdir = workdir
        self.traced = traced

    def prepare(self) -> None:
        """Compute the references; not timed."""

    def load(self) -> None:
        """Validate the generated matrices into ssdual objects."""

    def request(self, index: int) -> list:
        raise NotImplementedError

    def check(self, index: int, outcomes: list, verdicts: Verdicts) -> None:
        raise NotImplementedError

    def run_checks(self, verdicts: Verdicts) -> list[str]:
        """Checks on the whole run; returns what went wrong."""
        return []


# -- verify-coupled ---------------------------------------------------------


class VerifyCoupled(Workload):
    """``verify`` on four chains per request, one Philox seed per request."""

    name = "verify-coupled"
    traces = 200
    #: nominal rejection rate of one verify: alpha times its statistical gates
    gates = {"skipfree": 3, "general": 4, "continuous": 2}

    def __init__(self, seed: int, **kwargs) -> None:
        super().__init__(seed, **kwargs)
        rng = np.random.default_rng(seed)
        lazy = _scaled(chains.birth_death(rng, 6, lazy=True), 75.0)
        self.specs = [("BD3", BD3, "skipfree"), ("GEN3", GEN3, "general"),
                      ("CT21", CT21, "continuous"), ("lazy6", lazy, "skipfree")]
        self.rejections = {label: 0 for label, _, _ in self.specs}

    def prepare(self) -> None:
        self.moments = [ref.continuous_moments(mat) if mode == "continuous"
                        else ref.discrete_moments(mat) for _, mat, mode in self.specs]

    def load(self) -> None:
        import ssdual

        self.objects = [ssdual.RateGenerator(mat) if mode == "continuous"
                        else ssdual.TransitionKernel(mat) for _, mat, mode in self.specs]

    def request(self, index: int) -> list:
        from ssdual import coupling

        seed = self.seed * 1_000_003 + index
        return [attempt(coupling.verify, chain, mode=mode, samples=self.traces, seed=seed, jobs=1)
                for chain, (_, _, mode) in zip(self.objects, self.specs)]

    def check(self, index: int, outcomes: list, verdicts: Verdicts) -> None:
        for (label, _, _), (mean, var), report in zip(self.specs, self.moments, outcomes):
            problem = verify_problem(report, mean, var)
            verdicts.add(problem is None, f"request {index} {label}: {problem}")
            if problem is None and not report.passed:
                self.rejections[label] += 1

    def run_checks(self, verdicts: Verdicts) -> list[str]:
        problems = []
        requests = verdicts.attempted // len(self.specs)
        for label, _, mode in self.specs:
            p = stats.binom.sf(self.rejections[label] - 1, requests, ALPHA * self.gates[mode])
            if p < 1e-6:
                problems.append(f"{label}: {self.rejections[label]} gate rejections in "
                                f"{requests} verifies exceed the nominal level")
        if not negative_control_rejected():
            problems.append("verify accepted a law with a perturbed eigenvalue")
        return problems


def verify_problem(report, mean: float, var: float) -> str | None:
    """Why a verify outcome is a failure, or None.  Gate rejections are not failures."""
    if isinstance(report, Exception):
        return _error(report)
    counts = (report.horizon_hits, report.domination_violations, report.absorption_mismatches,
              report.positivity_violations, report.structural_l_violations)
    if any(counts):
        return f"structural counts {counts}"
    if not ref.mean_ok(report.exact_mean, mean):
        return f"exact mean {report.exact_mean!r}, reference {mean!r}"
    if not ref.band_ok(report.empirical_mean, mean, var, report.samples):
        return f"empirical mean {report.empirical_mean!r} outside the band around {mean!r}"
    return None


def negative_control_rejected() -> bool:
    """verify must reject BD3 against a law whose slow eigenvalue is shifted by 0.02."""
    import ssdual

    kernel = ssdual.TransitionKernel(BD3)
    law = ssdual.absorption_law(kernel)
    thetas = np.array(law.thetas, dtype=float)
    thetas[-1] += 0.02
    wrong = ssdual.DiscreteAbsorptionLaw(thetas, law.level_weights)
    report = ssdual.verify(kernel, mode="skipfree", samples=5000, seed=0, law=wrong)
    return not report.ks_passed


# -- exact-size -------------------------------------------------------------


@dataclass
class LawSpec:
    """One exact law of a request: its builder, input and evaluation points."""

    label: str
    builder: str
    matrix: np.ndarray
    m0: np.ndarray | None = None
    grid: np.ndarray | None = None
    mean: float = 0.0
    cdf: np.ndarray | None = None


def _grid(mean: float, continuous: bool) -> np.ndarray:
    points = mean * np.array([0.1, 0.25, 0.5, 1.0, 2.0, 4.0])
    return points if continuous else np.unique(np.round(points).astype(int))


class ExactSize(Workload):
    """Fresh laws of every kind on chains of 10 to 200 states, mean and a short CDF grid."""

    name = "exact-size"

    def __init__(self, seed: int, **kwargs) -> None:
        super().__init__(seed, **kwargs)
        rng = np.random.default_rng(seed)
        self.specs = [
            LawSpec("birth-death lazy n=200", "absorption",
                    _scaled(chains.birth_death(rng, 200, lazy=True), 2000.0)),
            LawSpec("reversible n=200", "absorption", chains.reversible(rng, 200)),
            LawSpec("reversible m0 n=100", "absorption", chains.reversible(rng, 100),
                    chains.initial_law(rng, 100)),
            LawSpec("skip-free n=100", "absorption", _scaled(chains.skip_free(rng, 100), 1000.0)),
            LawSpec("birth-death n=50", "absorption", chains.birth_death(rng, 50, lazy=False)),
            LawSpec("upper-triangular n=30", "absorption", chains.upper_triangular(rng, 30)),
            LawSpec("skip-free m0 n=10", "absorption", chains.skip_free(rng, 10),
                    chains.initial_law(rng, 10)),
            LawSpec("ergodic birth-death n=20", "sst",
                    _relaxed(chains.ergodic_birth_death(rng, 20), 600.0)),
            LawSpec("birth-death generator n=100", "hypoexp",
                    chains.birth_death_generator(rng, 100)),
            LawSpec("skip-free generator m0 n=25", "hypoexp",
                    chains.skip_free_generator(rng, 25), chains.initial_law(rng, 25)),
        ]

    def prepare(self) -> None:
        for spec in self.specs:
            if spec.builder == "hypoexp":
                spec.mean = ref.continuous_moments(spec.matrix, spec.m0)[0]
                spec.grid = _grid(spec.mean, continuous=True)
                spec.cdf = ref.continuous_cdf(spec.matrix, spec.m0, spec.grid)
            elif spec.builder == "sst":
                pi = ref.stationary(spec.matrix)
                spec.mean = ref.sst_mean(spec.matrix, spec.m0, pi)
                spec.grid = _grid(spec.mean, continuous=False)
                sep = ref.separation(spec.matrix, spec.m0, pi, int(spec.grid[-1]))
                spec.cdf = 1.0 - sep[spec.grid]
            else:
                spec.mean = ref.discrete_moments(spec.matrix, spec.m0)[0]
                spec.grid = _grid(spec.mean, continuous=False)
                spec.cdf = ref.discrete_cdf(spec.matrix, spec.m0, int(spec.grid[-1]))[spec.grid]

    def load(self) -> None:
        import ssdual

        self.objects = [ssdual.RateGenerator(s.matrix) if s.builder == "hypoexp"
                        else ssdual.TransitionKernel(s.matrix) for s in self.specs]

    def request(self, index: int) -> list:
        from ssdual import laws

        builders = {"absorption": laws.absorption_law, "sst": laws.sst_law,
                    "hypoexp": laws.hypoexp_law}
        return [attempt(_evaluate, builders[s.builder], chain, s.m0, s.grid)
                for s, chain in zip(self.specs, self.objects)]

    def check(self, index: int, outcomes: list, verdicts: Verdicts) -> None:
        for spec, out in zip(self.specs, outcomes):
            problem = law_problem(out, spec.mean, spec.cdf)
            verdicts.add(problem is None, f"request {index} {spec.label}: {problem}")


def _evaluate(builder, chain, m0, grid):
    law = builder(chain, m0)
    return law.mean(), law.cdf(grid)


def law_problem(outcome, mean: float, cdf: np.ndarray) -> str | None:
    """Why a (mean, cdf) outcome disagrees with its references, or None."""
    if isinstance(outcome, Exception):
        return _error(outcome)
    value, values = outcome
    if not ref.mean_ok(value, mean):
        return f"mean {value!r}, reference {mean!r}"
    if not ref.cdf_ok(values, cdf):
        return f"cdf off by {ref.cdf_deviation(values, cdf):.3g}"
    return None


# -- exact-horizon ----------------------------------------------------------


class ExactHorizon(Workload):
    """Fresh laws on small slow chains, evaluated deep in the tail."""

    name = "exact-horizon"
    #: discrete CDF horizon, in steps
    horizon = 100_000
    #: level of the deep quantile
    level = 1.0 - 1e-6
    #: continuous CDF points, spread over this many uniformization steps
    points = 1000
    uniform_steps = 600.0
    #: SST CDF and separation horizon, in steps
    sst_horizon = 20_000

    def __init__(self, seed: int, **kwargs) -> None:
        super().__init__(seed, **kwargs)
        rng = np.random.default_rng(seed)
        # mean 3000: the 1 - 1e-6 quantile (about 14 means) stays inside the horizon
        self.discrete = _scaled(chains.birth_death(rng, 8, lazy=True), 3000.0)
        self.generator = chains.skip_free_generator(rng, 6)
        self.m0 = chains.initial_law(rng, 6)
        t_max = self.uniform_steps / np.abs(np.diag(self.generator)).max()
        self.times = np.linspace(0.0, t_max, self.points)
        # relaxation time 1000 steps: separation falls to ~1e-9 within the horizon
        self.ergodic = _relaxed(chains.ergodic_birth_death(rng, 8), 1000.0)

    def prepare(self) -> None:
        self.cdf = ref.discrete_cdf(self.discrete, None, self.horizon)
        self.mean = ref.discrete_moments(self.discrete)[0]
        self.continuous_cdf = ref.continuous_cdf(self.generator, self.m0, self.times)
        self.continuous_mean = ref.continuous_moments(self.generator, self.m0)[0]
        pi = ref.stationary(self.ergodic)
        self.separation = ref.separation(self.ergodic, None, pi, self.sst_horizon)
        self.sst_mean = ref.sst_mean(self.ergodic, None, pi)

    def load(self) -> None:
        import ssdual

        self.objects = (ssdual.TransitionKernel(self.discrete), ssdual.RateGenerator(self.generator),
                        ssdual.TransitionKernel(self.ergodic))

    def request(self, index: int) -> list:
        from ssdual import duality, laws

        kernel, gen, ergodic = self.objects
        steps = np.arange(self.horizon + 1)
        law = attempt(laws.absorption_law, kernel)
        if isinstance(law, Exception):
            cdf = quantile = law
        else:
            cdf = attempt(law.cdf, steps)
            quantile = attempt(law.quantile, self.level)
        continuous = attempt(_evaluate, laws.hypoexp_law, gen, self.m0, self.times)
        sst = attempt(_evaluate, laws.sst_law, ergodic, None, steps[: self.sst_horizon + 1])
        profile = attempt(duality.separation, ergodic, None, t_max=self.sst_horizon)
        return [cdf, quantile, continuous, sst, profile]

    def check(self, index: int, outcomes: list, verdicts: Verdicts) -> None:
        cdf, quantile, continuous, sst, profile = outcomes
        checks = [
            ("discrete cdf", _error(cdf) or (None if ref.cdf_ok(cdf, self.cdf)
                                             else f"off by {ref.cdf_deviation(cdf, self.cdf):.3g}")),
            ("quantile", _error(quantile) or (None if ref.quantile_ok(quantile, self.level, self.cdf)
                                              else f"quantile {quantile}")),
            ("continuous", law_problem(continuous, self.continuous_mean, self.continuous_cdf)),
            ("sst", law_problem(sst, self.sst_mean, 1.0 - self.separation)),
            ("separation", _error(profile) or (
                None if ref.cdf_ok(profile.s, self.separation) and profile.minimized_at_target
                else "separation profile differs")),
        ]
        for label, problem in checks:
            verdicts.add(problem is None, f"request {index} {label}: {problem}")


# -- cli-cold ---------------------------------------------------------------


def _structure(mat: np.ndarray) -> str:
    """The second line of ``ssdual validate``, read off the matrix by the benchmark."""
    n = len(mat)
    support = mat > 0
    skip_free = not np.triu(support, 2).any()
    parts = ["skip-free birth-death" if skip_free and not np.tril(support, -2).any()
             else "skip-free upward" if skip_free else "general"]
    if not support[-1, :-1].any():
        parts.append("absorbing target")
    if all(support[i, i + 1] for i in range(n - 1)):
        parts.append("superdiagonal positive")
    return ", ".join(parts)


class CliCold(Workload):
    """One fresh ``python -m ssdual`` per request, over a fixed command cycle."""

    name = "cli-cold"
    commands = ("validate", "spectrum", "dual", "absorption", "sst", "verify")
    round_size = len(commands)
    samples = 2000

    def __init__(self, seed: int, **kwargs) -> None:
        super().__init__(seed, **kwargs)
        rng = np.random.default_rng(seed)
        self.absorbing = _scaled(chains.birth_death(rng, 5, lazy=True), 40.0)
        self.ergodic = chains.ergodic_birth_death(rng, 5)
        self.rejections = 0
        self.series_refs: dict[str, np.ndarray] = {}
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(self.root, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
        self.paths = {"absorbing": os.path.join(self.workdir, "absorbing.json"),
                      "ergodic": os.path.join(self.workdir, "ergodic.json")}

    def prepare(self) -> None:
        self.mean, self.var = ref.discrete_moments(self.absorbing)
        self.eigenvalues = ref.eigenvalues(self.absorbing)
        self.pi = ref.stationary(self.ergodic)
        self.sst_mean = ref.sst_mean(self.ergodic, None, self.pi)

    def load(self) -> None:
        for key, mat in (("absorbing", self.absorbing), ("ergodic", self.ergodic)):
            with open(self.paths[key], "w", encoding="utf-8") as fh:
                json.dump({"mode": "discrete", "matrix": mat.tolist()}, fh)

    def argv(self, index: int) -> list[str]:
        command = self.commands[index % self.round_size]
        chain = self.paths["ergodic" if command == "sst" else "absorbing"]
        out = os.path.join(self.workdir, f"out-{command}")
        extra = {"absorption": ["--oracle", "--out", out], "sst": ["--oracle", "--out", out],
                 "verify": ["--samples", str(self.samples),
                            "--seed", str(self.seed * 1000 + index // self.round_size)]}
        return [command, chain, *extra.get(command, [])]

    def request(self, index: int) -> list:
        argv = self.argv(index)
        if self.traced:
            spans = os.path.join(self.workdir, "spans.json")
            cmd = [sys.executable, os.path.join(self.root, "perfbench", "probe.py"), "cli", spans]
        else:
            cmd = [sys.executable, "-m", "ssdual"]
        return [attempt(subprocess.run, cmd + argv, capture_output=True, text=True,
                        env=self.env, cwd=self.workdir, timeout=120)]

    def check(self, index: int, outcomes: list, verdicts: Verdicts) -> None:
        proc = outcomes[0]
        command = self.commands[index % self.round_size]
        if isinstance(proc, Exception):
            verdicts.add(False, f"request {index} {command}: {proc!r}")
            return
        try:
            problem = getattr(self, f"_check_{command}")(proc)
        except (ValueError, KeyError, IndexError, OSError) as exc:
            problem = f"unreadable output: {exc!r}"
        verdicts.add(problem is None, f"request {index} {command}: {problem} {proc.stderr[-300:]}")

    def _check_validate(self, proc) -> str | None:
        lines = proc.stdout.splitlines()
        first = f"{self.paths['absorbing']}: discrete kernel, {len(self.absorbing)} states, " \
                f"target {len(self.absorbing) - 1}"
        if proc.returncode or lines != [first, _structure(self.absorbing)]:
            return f"exit {proc.returncode}, prose {lines}"
        return None

    def _check_spectrum(self, proc) -> str | None:
        out = json.loads(proc.stdout)
        vals = np.array([complex(re, im) for re, im in out["eigenvalues"]])
        if proc.returncode or np.abs(vals - self.eigenvalues).max() > 1e-10:
            return f"exit {proc.returncode}, eigenvalues {vals}"
        return None

    def _check_dual(self, proc) -> str | None:
        out = json.loads(proc.stdout)
        link = np.array(out["link"]["rows"])
        dual = np.array(out["dual_matrix"])
        residual = np.abs(link @ self.absorbing - dual @ link).max()
        if proc.returncode or residual > 1e-9 or np.abs(link[0] - _delta(len(link))).max() > 0:
            return f"exit {proc.returncode}, intertwining residual {residual:.3g}"
        return None

    def _series(self, command: str, reference) -> tuple[dict, np.ndarray, np.ndarray]:
        """The JSON summary and CSV series written by ``--out``, and the reference series.

        The reference is computed once: every round writes the same time grid.
        """
        base = os.path.join(self.workdir, f"out-{command}")
        with open(base + ".json", encoding="utf-8") as fh:
            summary = json.load(fh)
        rows = np.genfromtxt(base + ".csv", delimiter=",", names=True)
        ts = rows["t"].astype(int)
        if command not in self.series_refs or len(self.series_refs[command]) <= ts.max():
            self.series_refs[command] = reference(int(ts.max()))
        return summary, rows, self.series_refs[command][ts]

    def _check_absorption(self, proc) -> str | None:
        summary, rows, expected = self._series(
            "absorption", lambda t_max: ref.discrete_cdf(self.absorbing, None, t_max))
        if proc.returncode or not ref.cdf_ok(rows["exact_cdf"], expected) \
                or not ref.mean_ok(summary["law"]["mean"], self.mean):
            return f"exit {proc.returncode}, cdf off by {ref.cdf_deviation(rows['exact_cdf'], expected):.3g}"
        return None

    def _check_sst(self, proc) -> str | None:
        summary, rows, expected = self._series(
            "sst", lambda t_max: 1.0 - ref.separation(self.ergodic, None, self.pi, t_max))
        if proc.returncode or not ref.cdf_ok(rows["exact_cdf"], expected) \
                or not ref.mean_ok(summary["law"]["mean"], self.sst_mean) \
                or np.abs(np.array(summary["stationary"]) - self.pi).max() > 1e-12:
            return f"exit {proc.returncode}, cdf off by {ref.cdf_deviation(rows['exact_cdf'], expected):.3g}"
        return None

    def _check_verify(self, proc) -> str | None:
        # exit 5 is a gate rejection, which is counted but is not a failure
        if proc.returncode not in (0, 5):
            return f"exit {proc.returncode}"
        report = SimpleNamespace(**json.loads(proc.stdout)["report"])
        problem = verify_problem(report, self.mean, self.var)
        if problem is None and proc.returncode == 5:
            self.rejections += 1
        return problem

    def run_checks(self, verdicts: Verdicts) -> list[str]:
        verifies = verdicts.attempted // self.round_size
        if stats.binom.sf(self.rejections - 1, verifies, ALPHA * 3) < 1e-6:
            return [f"{self.rejections} gate rejections in {verifies} verify commands"]
        return []


WORKLOADS = {w.name: w for w in (VerifyCoupled, ExactSize, ExactHorizon, CliCold)}
