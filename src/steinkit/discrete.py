"""Discrete sampling through continuous parameterization.

A discrete target on K^d states is rewritten as a piecewise continuous
density p_c(x) = p0(x) * p-star(Gamma(x)) where p0 is the product standard
normal and Gamma maps each coordinate through quantile bins that give every
state exactly 1/K base mass.  Gradient-free SVGD then samples p_c with a
differentiable surrogate, and Gamma carries the particles back to states.

Bins are half-open [eta_{i-1}, eta_i) with boundaries assigned upward; the
choice is measure-zero but fixed so runs are reproducible.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import expit, ndtr, ndtri

from .errors import InvalidLambdaError
from .gfsvgd import GFSVGDResult, run_gf_svgd
from .kernels import KernelSpec
from .models import ContinuousTarget, DiscreteTarget
from .svgd import StepSchedule


@functools.lru_cache(maxsize=None)
def bin_thresholds(k: int) -> np.ndarray:
    """The K+1 bin edges, -inf and +inf padded, with interior edges
    eta_i = Phi^{-1}(i/K) (``scipy.special.ndtri``) so every bin holds exactly
    1/K of the standard-normal base mass in each coordinate (read-only)."""
    edges = np.concatenate(([-np.inf], ndtri(np.arange(1, k) / k), [np.inf]))
    edges.flags.writeable = False
    return edges


def bin_indices(x: np.ndarray, target: DiscreteTarget) -> np.ndarray:
    """Bin index of every coordinate; boundary values go to the upper bin."""
    if not np.all(np.isfinite(x)):
        raise ValueError("gamma map requires finite inputs")
    inner = bin_thresholds(len(target.alphabet))[1:-1]
    return np.searchsorted(inner, x, side="right")


def within_bin_positions(x: np.ndarray, target: DiscreteTarget) -> np.ndarray:
    """u = K * Phi(x) - bin index of every coordinate: where x lies inside its
    bin, on the scale of base mass.  Under p_c the u are iid Uniform[0, 1) and
    independent of the states whatever the target, because given its state x
    is the base restricted to that state's box."""
    return len(target.alphabet) * ndtr(x) - bin_indices(x, target)


def uniform_ks_statistic(u: np.ndarray) -> float:
    """Kolmogorov-Smirnov statistic sup |F_n - F| of all entries of ``u``
    against Uniform[0, 1), whose cdf F clips u to [0, 1]."""
    u = np.sort(np.clip(u, 0.0, 1.0), axis=None)
    n = u.size
    return float(max(np.max(np.arange(1, n + 1) / n - u), np.max(u - np.arange(n) / n)))


def within_bin_ks(x: np.ndarray, target: DiscreteTarget) -> float:
    """The largest, over the K bins, of the KS statistic of the within-bin
    positions of the coordinates in that bin against Uniform[0, 1).  Pooled
    over the bins, a collapse toward the origin would cancel: it moves u up in
    the bins below the median and down in those above.  A necessary check of
    a sample of p_c, not a sufficient one: the base N(0, I) passes it."""
    u = within_bin_positions(x, target)
    idx = bin_indices(x, target)
    return max(uniform_ks_statistic(u[idx == b]) for b in np.unique(idx))


def gamma_map(x: np.ndarray, target: DiscreteTarget) -> np.ndarray:
    """Map continuous points to states: coordinate j lands in the bin holding it."""
    alpha = np.asarray(target.alphabet, dtype=float)
    return alpha[bin_indices(x, target)]


def _log_p0(x: np.ndarray) -> np.ndarray:
    # product standard normal, unnormalized (constants cancel in every use)
    return -0.5 * np.einsum("nd,nd->n", x, x)


def pc_log_density(x: np.ndarray, target: DiscreteTarget) -> np.ndarray:
    """log p_c-bar(x) = log p0(x) + log p-star-bar(Gamma(x))."""
    return _log_p0(x) + target.log_mass(gamma_map(x, target))


def pc_target(target: DiscreteTarget) -> ContinuousTarget:
    """The piecewise continuous target (no score: it is not differentiable)."""
    return ContinuousTarget(dim=target.dims, log_density=lambda x: pc_log_density(x, target), score=None)


def base_surrogate(target: DiscreteTarget) -> ContinuousTarget:
    """The base distribution itself as surrogate: rho = p0, score -x."""
    return ContinuousTarget(dim=target.dims, log_density=_log_p0, score=lambda x: -x)


def exact_pc_surrogate(target: DiscreteTarget) -> ContinuousTarget:
    """p_c as log density, paired with its almost-everywhere score -x.

    Not a valid sampling surrogate: -x ignores the jumps of p_c between bins,
    so it is not the score of this density.  The importance weights are
    identically 1 and GF-SVGD with this surrogate runs plain SVGD on the
    N(0, I) base, which maps to the uniform law over states whatever the
    target.  No surrogate mode selects it; it is kept as a reference only.
    """
    return ContinuousTarget(dim=target.dims, log_density=lambda x: pc_log_density(x, target),
                            score=lambda x: -x)


def ising_surrogate(target: DiscreteTarget, lam: Optional[float] = None) -> ContinuousTarget:
    """Gaussian-form surrogate of an Ising target obtained by dropping the
    sign map: rho(x) = exp(-x' (A + lam I) x / 2) with A the negated
    ``target.couplings``.  A target without couplings raises ``ValueError``.

    ``lam`` defaults to 1 + max row sum of |A|, which makes A + lam I
    diagonally dominant and hence always positive definite; positive
    definiteness of the supplied lam is verified by a Cholesky attempt.
    """
    if target.couplings is None:
        raise ValueError("the ising surrogate needs an Ising target, one with couplings")
    a = -target.couplings
    if lam is None:
        lam = 1.0 + float(np.max(np.abs(a).sum(axis=1)))
    if not lam > 0:
        raise InvalidLambdaError("lambda must be positive")
    prec = a + lam * np.eye(target.dims)
    try:
        np.linalg.cholesky(prec)
    except np.linalg.LinAlgError as exc:
        raise InvalidLambdaError(f"A + lambda*I is not positive definite for lambda={lam}") from exc

    def logp(x):
        return -0.5 * np.einsum("nd,de,ne->n", x, prec, x)

    def score(x):
        return -(x @ prec)

    return ContinuousTarget(dim=target.dims, log_density=logp, score=score)


def sign_relaxation(t: np.ndarray) -> np.ndarray:
    """sigma(t) = 2 / (1 + e^{-t}) - 1, a smooth stand-in for sign(t)."""
    return 2.0 * expit(t) - 1.0


def sign_relaxation_deriv(t: np.ndarray) -> np.ndarray:
    """d sigma / dt = 2 e^{-t} / (1 + e^{-t})^2, computed stably."""
    return 2.0 * expit(t) * expit(-t)


def smooth_relaxation_surrogate(target: DiscreteTarget, temperature: float) -> ContinuousTarget:
    """Relax the state map inside the energy: rho(x) = p0(x) * exp(energy(sigma(tau x))).

    The energy is ``target.log_mass`` evaluated at the real-valued relaxed
    states, and its gradient is ``target.relaxed_score``; only targets whose
    free energy extends off the lattice (Ising, RBM) supply the latter.
    """
    if target.relaxed_score is None:
        raise ValueError("target does not expose a differentiable relaxed energy")
    tau = float(temperature)

    def logp(x):
        return _log_p0(x) + target.log_mass(sign_relaxation(tau * x))

    def score(x):
        inner = target.relaxed_score(sign_relaxation(tau * x))
        return -x + inner * sign_relaxation_deriv(tau * x) * tau

    return ContinuousTarget(dim=target.dims, log_density=logp, score=score)


@dataclass(frozen=True)
class DiscreteSampleResult:
    states: np.ndarray
    continuous: GFSVGDResult


def sample_discrete(
    target: DiscreteTarget,
    surrogate: ContinuousTarget,
    n: int,
    iters: int,
    kernel: KernelSpec,
    schedule: StepSchedule,
    rng: np.random.Generator,
) -> DiscreteSampleResult:
    """Draw approximate samples from a discrete target via GF-SVGD on p_c,
    driven by ``surrogate`` (``base_surrogate(target)``,
    ``smooth_relaxation_surrogate(target, temperature)`` or
    ``ising_surrogate(target, lam)``).  Particles start from the
    standard-normal base, and the final particles map to states through the
    quantile bins.
    """
    result = run_gf_svgd(
        target=pc_target(target),
        surrogate=surrogate,
        n=n,
        iters=iters,
        kernel=kernel,
        schedule=schedule,
        weight_mode="self-normalized",
        rng=rng,
        init_sampler=lambda r, m: r.standard_normal((m, target.dims)),
    )
    states = gamma_map(result.ensemble.positions, target)
    return DiscreteSampleResult(states=states, continuous=result)


def state_index_rows(z: np.ndarray, target: DiscreteTarget) -> np.ndarray:
    """Integer state indices for serialization; raises on unknown state values."""
    idx = np.full(z.shape, -1, dtype=int)
    for i, value in enumerate(target.alphabet):
        idx[z == value] = i
    if np.any(idx < 0):
        raise ValueError("sample contains values outside the alphabet")
    return idx


def continuize_data(
    z_samples: np.ndarray,
    target: DiscreteTarget,
    rng: np.random.Generator,
) -> np.ndarray:
    """Lift discrete data to continuous points distributed as q_c given z.

    Each coordinate in state i draws y uniformly from [i/K, (i+1)/K) and maps
    through the normal quantile, landing inside bin i by construction, so
    ``gamma_map`` returns the original states exactly.
    """
    idx = state_index_rows(z_samples, target)
    k = len(target.alphabet)
    y = (idx + rng.random(size=idx.shape)) / k
    x = ndtri(y)
    # pin within the half-open bin against quantile round-off at the edges
    edges = bin_thresholds(k)
    lo = edges[idx]
    hi = edges[idx + 1]
    return np.clip(x, lo, np.nextafter(hi, -np.inf))
