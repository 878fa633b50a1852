"""Time fresh discrete CDFs by chain size and print the timings as JSON.

For each size n, a lazy birth-death kernel with n states is drawn (seed 0),
and each repeat builds a fresh ``absorption_law`` and times
``law.cdf(np.arange(T))`` on it.  With T past one block of steps, that cost includes the baby steps,
the giant step and the block products.  Medians and minima are in seconds.

Usage:
    python3 scripts/cdf_probe.py --sizes 3 10 40 120 200 --horizon 2000 --repeat 7
"""

from __future__ import annotations

import argparse
import json
import platform
import time

import numpy as np

from ssdual import TransitionKernel, __version__, absorption_law
from ssdual.families import random_birth_death_kernel


def probe(n: int, horizon: int, repeat: int) -> dict:
    kernel = TransitionKernel(random_birth_death_kernel(np.random.default_rng(0), n, lazy=True))
    ts = np.arange(horizon)
    build, cdf = [], []
    for _ in range(repeat):
        start = time.perf_counter()
        law = absorption_law(kernel)
        built = time.perf_counter()
        law.cdf(ts)
        build.append(built - start)
        cdf.append(time.perf_counter() - built)
    return {
        "n": n,
        "build_s": float(np.median(build)),
        "cdf_s": float(np.median(cdf)),
        "cdf_min_s": float(np.min(cdf)),
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[3, 10, 40, 120, 200])
    parser.add_argument("--horizon", type=int, default=2000, help="CDF points 0..T-1")
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args()
    report = {
        "ssdual": __version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "horizon": args.horizon,
        "repeat": args.repeat,
        "sizes": [probe(n, args.horizon, args.repeat) for n in args.sizes],
    }
    print(json.dumps(report, indent=2))


if __name__ == "__main__":
    main()
