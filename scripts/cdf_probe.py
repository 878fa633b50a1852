"""Time fresh discrete and continuous CDFs by chain size and print the timings as JSON.

For each size n, a lazy birth-death kernel, a birth-death rate generator and
an ergodic birth-death kernel with n states are drawn (seed 0).  Each repeat
builds a fresh ``absorption_law`` on the kernel and times
``law.cdf(np.arange(T))``; with T past one block of steps, that cost includes
the baby steps, the giant step and the block products.  It then times a fresh
``hypoexp_law`` on the generator together with its CDF on 1000 times spread
over four means, another fresh law with its ``quantile(1 - 1e-6)``, and
``separation`` of the ergodic kernel from state 0 to step T.  Medians and
minima are in seconds.

Usage:
    python3 scripts/cdf_probe.py --sizes 3 10 40 120 200 --horizon 2000 --repeat 7
"""

from __future__ import annotations

import argparse
import json
import platform
import time

import numpy as np

from ssdual import (
    RateGenerator,
    TransitionKernel,
    __version__,
    absorption_law,
    hypoexp_law,
    separation,
)
from ssdual.families import (
    random_birth_death_generator,
    random_birth_death_kernel,
    random_ergodic_birth_death,
)

#: continuous CDF points, spread over 0..4 means
CONTINUOUS_POINTS = 1000


def _timed(func, *args) -> float:
    start = time.perf_counter()
    func(*args)
    return time.perf_counter() - start


def probe(n: int, horizon: int, repeat: int) -> dict:
    kernel = TransitionKernel(random_birth_death_kernel(np.random.default_rng(0), n, lazy=True))
    gen = RateGenerator(random_birth_death_generator(np.random.default_rng(0), n))
    ergodic = TransitionKernel(random_ergodic_birth_death(np.random.default_rng(0), n))
    ts = np.arange(horizon)
    grid = np.linspace(0.0, 4.0 * hypoexp_law(gen).mean(), CONTINUOUS_POINTS)
    build, cdf, continuous, quantile, sep = [], [], [], [], []
    for _ in range(repeat):
        start = time.perf_counter()
        law = absorption_law(kernel)
        build.append(time.perf_counter() - start)
        cdf.append(_timed(law.cdf, ts))
        continuous.append(_timed(lambda: hypoexp_law(gen).cdf(grid)))
        quantile.append(_timed(lambda: hypoexp_law(gen).quantile(1.0 - 1e-6)))
        sep.append(_timed(separation, ergodic, None, horizon))
    return {
        "n": n,
        "build_s": float(np.median(build)),
        "cdf_s": float(np.median(cdf)),
        "cdf_min_s": float(np.min(cdf)),
        "continuous_cdf_s": float(np.median(continuous)),
        "continuous_cdf_min_s": float(np.min(continuous)),
        "continuous_quantile_s": float(np.median(quantile)),
        "separation_s": float(np.median(sep)),
        "separation_min_s": float(np.min(sep)),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[3, 10, 40, 120, 200])
    parser.add_argument("--horizon", type=int, default=2000,
                        help="discrete CDF points 0..T-1, separation steps 0..T")
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args()
    report = {
        "ssdual": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "horizon": args.horizon,
        "continuous_points": CONTINUOUS_POINTS,
        "repeat": args.repeat,
        "sizes": [probe(n, args.horizon, args.repeat) for n in args.sizes],
    }
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
