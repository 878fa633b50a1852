"""Shared fixtures: the three reference chains and a rates-(2, 1) generator.

BD3 is the lazy-ish birth-death chain whose absorption law is the convolution
of two geometrics, GEN3 adds an upward jump so the law is a genuine mixture,
and ERG3 is the ergodic variant used for strong stationary times.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from ssdual import RateGenerator, TransitionKernel

BD3_MATRIX = [[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.0, 1.0]]
GEN3_MATRIX = [[0.5, 0.25, 0.25], [0.25, 0.5, 0.25], [0.0, 0.0, 1.0]]
ERG3_MATRIX = [[0.5, 0.5, 0.0], [0.25, 0.5, 0.25], [0.0, 0.5, 0.5]]
CT21_MATRIX = [[-2.0, 2.0, 0.0], [0.0, -1.0, 1.0], [0.0, 0.0, 0.0]]

# eigenvalues of the BD3 transient block: (2 -+ sqrt(2)) / 4
BD3_THETAS = ((2.0 - np.sqrt(2.0)) / 4.0, (2.0 + np.sqrt(2.0)) / 4.0)



def stiff_birth_death_generator(n: int, lo: float, hi: float, seed: int = 0) -> np.ndarray:
    """Birth-death rates 10^U(lo, hi) on n states, drawn up_0, up_1, down_1, up_2, ...;
    the last state is absorbing."""
    rng = np.random.default_rng(seed)
    gen = np.zeros((n, n))
    gen[0, 1] = 10.0 ** rng.uniform(lo, hi)
    for i in range(1, n - 1):
        gen[i, i + 1] = 10.0 ** rng.uniform(lo, hi)
        gen[i, i - 1] = 10.0 ** rng.uniform(lo, hi)
    np.fill_diagonal(gen, -gen.sum(axis=1))
    return gen


# one line per acceptance criterion, echoed after the run
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def bd3() -> TransitionKernel:
    return TransitionKernel(np.array(BD3_MATRIX))


@pytest.fixture
def gen3() -> TransitionKernel:
    return TransitionKernel(np.array(GEN3_MATRIX))


@pytest.fixture
def erg3() -> TransitionKernel:
    return TransitionKernel(np.array(ERG3_MATRIX))


@pytest.fixture
def ct21() -> RateGenerator:
    return RateGenerator(np.array(CT21_MATRIX))


@pytest.fixture
def chain_file(tmp_path):
    """Factory writing a chain spec JSON and returning its path."""

    def write(matrix, mode: str = "discrete", name: str = "chain.json", **extra) -> str:
        spec = {"mode": mode, "matrix": np.asarray(matrix).tolist(), **extra}
        path = tmp_path / name
        path.write_text(json.dumps(spec), encoding="utf-8")
        return str(path)

    return write
