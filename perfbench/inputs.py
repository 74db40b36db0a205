"""Seeded input generation for the benchmark workloads (numpy only).

The program under test never sees how an input was made: the selection
workloads get a correlation matrix in memory or a CSV file, and the
size-selection workload draws its rows through ``csskit.simlab`` inside
the timed operation, exactly as ``csskit simulate`` does.

Populations are planted-factor models.  ``k_star`` planted variables are
jointly Gaussian with equicorrelation 0.2; every other variable loads on
one planted "hub" with a strong loading and, with probability 0.3, on a
second one with a weak loading, plus independent noise.  Each hub is the
best single explainer of its block, so a correct search recovers the
planted set and the quality metrics stay steady from seed to seed.
"""

from typing import List, NamedTuple

import numpy as np


class Population(NamedTuple):
    """Population covariance with its planted subset (ascending indices)."""

    sigma: np.ndarray
    planted: List[int]
    # Row generator pieces, in natural (permuted) variable order:
    # x = z @ root + noise * sqrt(noise_var), see :func:`sample_rows`.
    root: np.ndarray
    noise_var: np.ndarray


def planted_population(p: int, k_star: int, rng: np.random.Generator) -> Population:
    """Correlation-scaled planted-factor population of dimension ``p``."""
    if not 1 <= k_star < p:
        raise ValueError(f"need 1 <= k_star < p, got k_star={k_star}, p={p}")
    m = p - k_star
    c_s = 0.8 * np.eye(k_star) + 0.2
    w = np.zeros((m, k_star))
    primary = rng.integers(0, k_star, m)
    w[np.arange(m), primary] = rng.uniform(0.7, 0.95, m) * rng.choice([-1.0, 1.0], m)
    second = rng.random(m) < 0.3
    other = (primary + rng.integers(1, k_star, m)) % k_star if k_star > 1 else primary
    w[np.arange(m)[second], other[second]] += (
        rng.uniform(0.2, 0.4, int(second.sum())) * rng.choice([-1.0, 1.0], int(second.sum()))
    )
    noise = rng.uniform(0.2, 0.5, m)

    # loadings of every variable on the planted ones, planted first
    load = np.vstack([np.eye(k_star), w])
    noise_all = np.concatenate([np.zeros(k_star), noise])
    perm = rng.permutation(p)  # natural position of the t-th generated variable
    load_nat = np.empty_like(load)
    load_nat[perm] = load
    noise_nat = np.empty(p)
    noise_nat[perm] = noise_all

    sigma = load_nat @ c_s @ load_nat.T + np.diag(noise_nat)
    scale = np.sqrt(np.diag(sigma))
    sigma = sigma / np.outer(scale, scale)
    sigma = (sigma + sigma.T) / 2.0
    np.fill_diagonal(sigma, 1.0)

    chol = np.linalg.cholesky(c_s)  # c_s = chol @ chol.T
    root = (chol.T @ load_nat.T) / scale  # z @ root has covariance of the signal part
    planted = sorted(int(i) for i in perm[:k_star])
    return Population(sigma, planted, root, noise_nat / scale**2)


def sample_rows(pop: Population, n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` complete rows drawn from the population (covariance ``pop.sigma``)."""
    k_star = pop.root.shape[0]
    z = rng.standard_normal((n, k_star))
    eps = rng.standard_normal((n, pop.sigma.shape[0])) * np.sqrt(pop.noise_var)
    return z @ pop.root + eps


def mask_at_random(x: np.ndarray, share: float, rng: np.random.Generator) -> np.ndarray:
    """Copy of ``x`` with each cell set to NaN independently with ``share``."""
    return np.where(rng.random(x.shape) < share, np.nan, x)


def write_csv(path: str, x: np.ndarray):
    """Plain comma-separated grid; missing cells are written as ``nan``."""
    np.savetxt(path, x, fmt="%.10g", delimiter=",")
