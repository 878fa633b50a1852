"""Sweep the random chain families and report worst-case residuals.

Usage:
    python3 scripts/random_sweep.py --count 200 --seed 0
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass

import numpy as np

from ssdual import (
    Analysis,
    RateGenerator,
    TransitionKernel,
    check_intertwining,
    ctmc_cdf_oracle,
    hypoexp_law,
    mixture_weights,
    power_cdf_oracle,
    separation,
    sst_law,
)
from ssdual.families import (
    random_ergodic_birth_death,
    random_reversible_absorbing_kernel,
    random_skipfree_generator,
    random_skipfree_kernel,
    random_upper_triangular_kernel,
)


@dataclass
class SweepConfig:
    count: int = 200
    seed: int = 0
    n_min: int = 3
    n_max: int = 9


def law_deviation(analysis: Analysis) -> float:
    law = analysis.absorption_law()
    q = law.quantile(0.9999)
    oracle = power_cdf_oracle(analysis.kernel, None, t_max=q)
    return float(np.abs(np.atleast_1d(law.cdf(np.arange(q + 1))) - oracle).max())


def intertwining_residuals(analysis: Analysis) -> tuple[float, float, float]:
    mod = analysis.modified
    return (
        check_intertwining(analysis.link, analysis.kernel, analysis.dual).residual,
        mod.intertwining_residual,
        mod.initial_residual,
    )


def sweep(cfg: SweepConfig) -> None:
    rng = np.random.default_rng(cfg.seed)
    size = lambda: int(rng.integers(cfg.n_min, cfg.n_max + 1))

    families = {
        "skip-free": lambda: random_skipfree_kernel(rng, size()),
        "reversible": lambda: random_reversible_absorbing_kernel(rng, size()),
        "triangular": lambda: random_upper_triangular_kernel(rng, size()),
    }
    for name, draw in families.items():
        dev = link_r = mod_r = init_r = neg = 0.0
        for _ in range(cfg.count):
            analysis = Analysis(TransitionKernel(draw()))
            dev = max(dev, law_deviation(analysis))
            a, b, c = intertwining_residuals(analysis)
            link_r, mod_r, init_r = max(link_r, a), max(mod_r, b), max(init_r, c)
            w = mixture_weights(analysis.link).weights
            if not np.iscomplexobj(w):
                neg = min(neg, float(w.min()))
        print(
            f"{name:>10}: law dev {dev:.3e}  intertwine {link_r:.3e}  "
            f"modified {mod_r:.3e}  initial {init_r:.3e}  min weight {neg:.3e}"
        )

    dev = 0.0
    for _ in range(cfg.count):
        kernel = TransitionKernel(random_ergodic_birth_death(rng, size()))
        law = sst_law(kernel)
        prof = separation(kernel)
        ts = np.arange(len(prof.s))
        dev = max(dev, float(np.abs(np.atleast_1d(law.cdf(ts)) - (1 - prof.s)).max()))
    print(f"{'sst':>10}: law dev {dev:.3e}")

    dev = 0.0
    for _ in range(cfg.count):
        gen = RateGenerator(random_skipfree_generator(rng, min(size(), 8)))
        law = hypoexp_law(gen)
        grid = np.linspace(0.0, law.quantile(0.9999), 50)
        dev = max(dev, float(np.abs(law.cdf(grid) - ctmc_cdf_oracle(gen, None, grid)).max()))
    print(f"{'ctmc':>10}: law dev {dev:.3e}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n-max", type=int, default=9)
    args = parser.parse_args()
    sweep(SweepConfig(count=args.count, seed=args.seed, n_max=args.n_max))


if __name__ == "__main__":
    main()
