"""Goodness-of-fit testing for discrete distributions via gradient-free KSD.

Discrete data are lifted to continuous points (one uniform draw per
coordinate inside the state's quantile bin), the gradient-free Stein kernel
matrix is assembled once against the continuized null, and a multinomial
bootstrap of its degenerate U-statistic calibrates the rejection threshold.
The continuization draw is part of the test, so the seed is recorded in the
report; bootstrap replicates reuse the same kernel matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .discrete import (  # noqa: F401  (the two surrogate factories stay importable here for the clibench tracer)
    base_surrogate,
    continuize_data,
    pc_log_density,
    smooth_relaxation_surrogate,
)
from .gfsvgd import WeightedSample
from .kernels import (  # noqa: F401  (median_bandwidth stays importable here for the clibench tracer)
    KernelSpec,
    median_bandwidth,
    pairwise_sq_dists,
    rbf_gram,
    resolve_bandwidth,
)
from .ksd import gf_stein_gram, u_statistic_from_gram
from .models import ContinuousTarget, DiscreteTarget
from .rngs import stream_rng


@dataclass(frozen=True)
class TestReport:
    """Outcome of one bootstrap goodness-of-fit test.

    ``reject`` is p_value < alpha, and the reported critical value is the
    bootstrap order statistic chosen so that reject holds iff
    statistic > critical_value.
    """

    __test__ = False  # dataclass, not a pytest case

    statistic: float
    n_bootstrap: int
    critical_value: float
    p_value: float
    reject: bool
    alpha: float
    seed: int


def gof_gram(
    z_data: np.ndarray,
    null_target: DiscreteTarget,
    rng: np.random.Generator,
    surrogate: ContinuousTarget,
    kernel: KernelSpec = KernelSpec(),
) -> np.ndarray:
    """The n x n gradient-free Stein kernel matrix of the continuized data
    against the null's continuous parameterization (log-weights centered, so
    the matrix carries an arbitrary positive scale), with the score of
    ``surrogate``; the bandwidth is ``kernel``'s over the continuized points."""
    if z_data.shape[0] < 2:
        raise ValueError("goodness-of-fit testing needs at least two data points")
    x = continuize_data(z_data, null_target, rng)
    sq = pairwise_sq_dists(x, x)
    h = resolve_bandwidth(kernel, x, sq)
    gram = gf_stein_gram(x, surrogate, lambda pts: pc_log_density(pts, null_target), h, sq=sq)
    return 0.5 * (gram + gram.T)


def bootstrap_null(gram: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """m multinomial-bootstrap replicates of the degenerate U-statistic:
    sum_{i != j} (u_i - 1/n) K_ij (u_j - 1/n) with n u ~ Multinomial(n; 1/n)."""
    if m < 1:
        raise ValueError("need at least one bootstrap replicate")
    n = gram.shape[0]
    counts = rng.multinomial(n, np.full(n, 1.0 / n), size=m)
    v = counts / n - 1.0 / n
    full = np.einsum("mi,mi->m", v @ gram, v)
    diag_part = v ** 2 @ np.diag(gram)
    return full - diag_part


def _critical_value(replicates: np.ndarray, statistic: float, alpha: float) -> float:
    """Largest replicate order statistic c with (reject <=> statistic > c)."""
    m = replicates.size
    a_thr = alpha * (m + 1) - 1.0
    ceil_a = math.ceil(a_thr)
    r_max = ceil_a - 1 if ceil_a > a_thr else int(a_thr) - 1
    if r_max < 0:
        return float("inf")
    if r_max >= m:
        return float("-inf")
    return float(np.sort(replicates)[::-1][r_max])


def gof_test(
    z_data: np.ndarray,
    null_target: DiscreteTarget,
    surrogate: ContinuousTarget,
    alpha: float = 0.05,
    m: int = 1000,
    seed: int = 0,
    kernel: KernelSpec = KernelSpec(),
) -> TestReport:
    """Bootstrap goodness-of-fit test of the data against ``null_target``.

    The p-value uses the finite-sample correction (r + 1) / (m + 1) where r
    counts replicates at or above the statistic.
    """
    gram = gof_gram(z_data, null_target, stream_rng(seed, 0), surrogate, kernel)
    statistic = u_statistic_from_gram(gram)
    replicates = bootstrap_null(gram, m, stream_rng(seed, 1))
    r = int(np.sum(replicates >= statistic))
    p_value = (r + 1) / (m + 1)
    return TestReport(
        statistic=float(statistic),
        n_bootstrap=m,
        critical_value=_critical_value(replicates, statistic, alpha),
        p_value=float(p_value),
        reject=bool(p_value < alpha),
        alpha=float(alpha),
        seed=int(seed),
    )


# ---------------------------------------------------------------------------
# MMD baselines
# ---------------------------------------------------------------------------

def _hamming_gram(z1: np.ndarray, z2: np.ndarray) -> np.ndarray:
    d = z1.shape[1]
    mismatches = (z1[:, None, :] != z2[None, :, :]).sum(axis=2)
    return np.exp(-mismatches / d)


def mmd_hamming(z_samples_1: np.ndarray, z_samples_2: np.ndarray) -> float:
    """Biased (V-statistic) MMD^2 under the exponentiated normalized Hamming kernel."""
    z1, z2 = z_samples_1, z_samples_2
    if z1.shape[1] != z2.shape[1]:
        raise ValueError("sample sets have different dimensions")
    return float(
        _hamming_gram(z1, z1).mean() + _hamming_gram(z2, z2).mean() - 2.0 * _hamming_gram(z1, z2).mean()
    )


def mmd_rbf(x: np.ndarray, y: np.ndarray, h: float) -> float:
    """Biased MMD^2 between two plain samples under the RBF kernel."""
    kxx = rbf_gram(x, x, h)
    kyy = rbf_gram(y, y, h)
    kxy = rbf_gram(x, y, h)
    return float(kxx.mean() + kyy.mean() - 2.0 * kxy.mean())


def weighted_mmd(x_weighted: WeightedSample, y_exact: np.ndarray, h: float) -> float:
    """Importance-weighted MMD^2 between a weighted sample and an exact one:
    sum_ij w-hat_i k w-hat_j - (2/M) sum w-hat_i k(x_i, y_j) + (1/M^2) sum k(y, y')."""
    w = x_weighted.normalized_weights()
    x, y = x_weighted.positions, y_exact
    kxx = rbf_gram(x, x, h)
    kxy = rbf_gram(x, y, h)
    kyy = rbf_gram(y, y, h)
    m = y.shape[0]
    return float(w @ kxx @ w - (2.0 / m) * (w @ kxy).sum() + kyy.sum() / m ** 2)
