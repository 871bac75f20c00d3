"""Shared helpers for the test suite."""

import math

import numpy as np
import pytest

from pqlab import StructureParams, check_gap, solve

# the 1D and 2D targets of the benchmark's configs: (center, rho)
TARGETS_1D = (((0.5, 0.12), 0.2), ((0.45, 0.2), 0.15), ((0.55, 0.28), 0.12))
TARGETS_2D = (((0.5, 0.5, 0.12), 0.2), ((0.45, 0.55, 0.2), 0.15), ((0.55, 0.45, 0.28), 0.12))


def sample_gap_params(rng: np.random.Generator) -> StructureParams:
    """Draw a random parameter set satisfying the strict gap condition.

    Mixes finite and infinite integrability exponents; q is placed inside
    the admissible window with healthy margin (and sometimes at q = p).
    """
    while True:
        n = int(rng.integers(1, 5))
        p = float(rng.uniform(2.0, 4.5))
        alpha = math.inf if rng.random() < 0.15 else float(10.0 ** rng.uniform(0.2, 4.0))
        beta = math.inf if rng.random() < 0.15 else float(10.0 ** rng.uniform(0.2, 4.0))
        probe = StructureParams(n=n, p=p, q=p, alpha=alpha, beta=beta)
        window = check_gap(probe).rhs - p
        if window < 1e-6:
            continue
        q = p if rng.random() < 0.1 else p + float(rng.uniform(0.0, 0.98)) * window
        return StructureParams(n=n, p=p, q=q, alpha=alpha, beta=beta)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def diagnostics_field():
    """The diagnostics-2d field: the 2D degenerate preset at 33^2 x 32."""
    from test_solver import _probe_config_2d

    cfg = _probe_config_2d(2.0, 2.1, 0.8, nx=33, nt=32, alpha=20.0)
    u, _ = solve(cfg)
    return cfg, u
