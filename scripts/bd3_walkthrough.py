"""Walk the full pipeline on a 3-state birth-death chain, step by step.

Prints the spectrum, link, dual, absorption law, and a Monte Carlo
verification report for the chain

    0.50 0.50 0.00
    0.25 0.50 0.25
    0.00 0.00 1.00

whose hitting time of state 2 is the convolution of two geometrics.
"""

from __future__ import annotations

import json

import numpy as np

from ssdual import (
    Analysis,
    TransitionKernel,
    check_intertwining,
    mean_absorption_oracle,
    power_cdf_oracle,
    verify,
)

MATRIX = [[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.0, 1.0]]


def main() -> None:
    np.set_printoptions(precision=6, suppress=True)
    kernel = TransitionKernel(MATRIX)
    analysis = Analysis(kernel)  # computes each stage below once, on first use
    print("chain classification:", analysis.chain_class)

    spec = analysis.spectrum
    print("\neigenvalues (hold probabilities of the dual):", spec.values.real)

    link, dual = analysis.link, analysis.dual
    print("\nlink rows (law of the primal given the dual level):")
    print(link.rows)
    print("\npure-birth dual kernel:")
    print(dual.matrix)
    print("\nintertwining residual:", check_intertwining(link, kernel, dual).residual)

    law = analysis.absorption_law()
    print("\nabsorption law:", law.kind)
    print("P(T <= t) for t = 0..8:", np.atleast_1d(law.cdf(np.arange(9))))
    print("power oracle:          ", power_cdf_oracle(kernel, None, t_max=8))
    print("mean:", law.mean(), "fundamental-matrix oracle:", mean_absorption_oracle(kernel))

    report = verify(analysis, mode="skipfree", samples=20000, seed=0)
    print("\nverification report:")
    print(json.dumps(report.to_dict(), indent=2))


if __name__ == "__main__":
    main()
