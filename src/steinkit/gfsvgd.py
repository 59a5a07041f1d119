"""Gradient-free SVGD: surrogate-score updates with importance-weight correction.

The update direction replaces the target score with a surrogate score s_rho
and multiplies each particle's contribution by w = rho-bar / p-bar.  Weights
are handled in log space throughout; in self-normalized mode the direction is
invariant to rescaling either unnormalized density, so neither normalization
constant is ever needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DegenerateWeightsError, MissingScoreError
from .kernels import KernelSpec, median_bandwidth, resolve_bandwidth  # noqa: F401  (median_bandwidth: clibench tracer)
from .models import ContinuousTarget, mixture_target
from .svgd import (  # noqa: F401  (apply_direction stays importable here for the clibench tracer)
    ParticleEnsemble,
    StepSchedule,
    annealed_targets,
    apply_direction,
    run_particles,
    stein_direction,
)


def effective_sample_size(log_w: np.ndarray) -> float:
    """(sum w)^2 / sum w^2, with the weights scaled by the largest first;
    -inf log-weights count as zero weights."""
    w = np.exp(log_w - np.max(log_w))
    return float(w.sum() ** 2 / (w ** 2).sum())


@dataclass(frozen=True)
class WeightedSample:
    """Positions with unnormalized log importance weights."""

    positions: np.ndarray
    log_weights: np.ndarray

    def normalized_weights(self) -> np.ndarray:
        top = np.max(self.log_weights)
        if not np.isfinite(top):
            raise DegenerateWeightsError("all importance weights vanished")
        w = np.exp(self.log_weights - top)
        return w / w.sum()

    @property
    def ess(self) -> float:
        return effective_sample_size(self.log_weights)


def rank_normalized_weights(log_w: np.ndarray) -> np.ndarray:
    """gamma_j = n / #{k : w_k >= w_j} (ties counted inclusively).

    Depends only on the ranks of the weights, hence is invariant under any
    monotone transform of them; equal weights map to all-ones.
    """
    n = log_w.size
    order = np.sort(log_w)
    count_ge = n - np.searchsorted(order, log_w, side="left")
    return n / count_ge.astype(float)


def _direction_weights(log_w: np.ndarray, mode: str, ess_floor: float = 2.0) -> tuple[np.ndarray, float]:
    """Weights and normalizer Z for the chosen mode; raises on degeneracy.

    ``ess_floor`` is the effective-sample-size threshold below which the
    direction has collapsed onto (nearly) one particle; pass 0 to reproduce
    unguarded behavior for stress experiments with badly matched surrogates.
    """
    n = log_w.size
    if mode == "self-normalized":
        top = np.max(log_w)
        if not np.isfinite(top):
            raise DegenerateWeightsError(f"all importance weights vanished (max log-weight {top})")
        w = np.exp(log_w - top)
        z = float(w.sum())
    elif mode == "plain":
        w = np.exp(log_w)
        z = float(n)
        if not np.any(w > 0):
            raise DegenerateWeightsError(
                f"all importance weights underflowed to zero (max log-weight {np.max(log_w):.3g})"
            )
    elif mode == "rank":
        w = rank_normalized_weights(log_w)
        z = float(w.sum())
    else:
        raise ValueError(f"unknown weight mode: {mode!r}")
    if n >= 2 and ess_floor > 0:
        ess = float(w.sum() ** 2 / (w ** 2).sum()) if np.any(w > 0) else 0.0
        if ess < ess_floor:
            raise DegenerateWeightsError(
                f"effective sample size {ess:.3f} < {ess_floor:g} (max log-weight {np.max(log_w):.3g})"
            )
    return w, z


def _gf_step(x, sq, target, surrogate, kernel, weight_mode, ess_floor) -> tuple[np.ndarray, float]:
    """Gradient-free direction at ``x`` and the ESS of its raw importance weights."""
    h = resolve_bandwidth(kernel, x, sq)
    log_w = surrogate.log_density(x) - target.log_density(x)
    ess = effective_sample_size(log_w)
    w, z = _direction_weights(log_w, weight_mode, ess_floor)
    return stein_direction(x, surrogate.score(x), w, z, h, sq=sq), ess


def gf_svgd_direction(
    particles: np.ndarray,
    target: ContinuousTarget,
    surrogate: ContinuousTarget,
    kernel: KernelSpec,
    weight_mode: str = "self-normalized",
    ess_floor: float = 2.0,
) -> np.ndarray:
    """Gradient-free update direction: row i is
    (1/Z) sum_j w_j [ s_rho(x_j) k(x_j, x_i) + grad_{x_j} k(x_j, x_i) ]."""
    if surrogate.score is None:
        raise MissingScoreError("surrogate has no analytic score")
    return _gf_step(particles, None, target, surrogate, kernel, weight_mode, ess_floor)[0]


def kernel_curve_surrogate(
    anchor_points: np.ndarray,
    anchor_logp: np.ndarray,
    h: float,
    sq: Optional[np.ndarray] = None,
) -> ContinuousTarget:
    """Smooth over-dispersed fit of a density from its values at anchor points:
    rho-bar(x) = sum_j p(x_j) exp(-||x_j - x||^2 / h), the isotropic Gaussian
    mixture with log-weights log p(x_j) and variance h / 2.

    ``sq`` is ``pairwise_sq_dists(anchors, anchors)`` when the caller already
    has it; it is used when the surrogate is evaluated at the anchor array
    itself.
    """
    if not h > 0:
        raise ValueError("smoothing bandwidth h must be > 0")
    return mixture_target(anchor_logp, anchor_points, h / 2.0, sq)


@dataclass(frozen=True)
class GFSVGDResult:
    ensemble: ParticleEnsemble
    ess_history: np.ndarray
    final_weights: WeightedSample


def _gf_result(ensemble, ess_history, surrogate, target) -> GFSVGDResult:
    x = ensemble.positions
    log_w = surrogate.log_density(x) - target.log_density(x)
    return GFSVGDResult(ensemble=ensemble, ess_history=np.array(ess_history, dtype=float),
                        final_weights=WeightedSample(positions=x, log_weights=log_w))


def run_gf_svgd(
    target: ContinuousTarget,
    surrogate: ContinuousTarget,
    n: int,
    iters: int,
    kernel: KernelSpec,
    schedule: StepSchedule,
    weight_mode: str,
    rng: np.random.Generator,
    init_sampler: Callable[[np.random.Generator, int], np.ndarray],
    callback: Optional[Callable[[ParticleEnsemble], None]] = None,
    ess_floor: float = 2.0,
) -> GFSVGDResult:
    """Run the gradient-free particle loop, recording the effective sample
    size of the importance weights at every iteration."""
    if surrogate.score is None:
        raise MissingScoreError("surrogate has no analytic score")
    ess_history = []

    def direction(it, x, sq):
        d, ess = _gf_step(x, sq, target, surrogate, kernel, weight_mode, ess_floor)
        ess_history.append(ess)
        return d

    ensemble = run_particles(init_sampler(rng, n), iters, direction, schedule, callback)
    return _gf_result(ensemble, ess_history, surrogate, target)


def run_agf_svgd(
    target: ContinuousTarget,
    p0: ContinuousTarget,
    betas: np.ndarray,
    n: int,
    kernel: KernelSpec,
    schedule: StepSchedule,
    rng: np.random.Generator,
    p0_sampler: Callable[[np.random.Generator, int], np.ndarray],
    smoothing: KernelSpec = KernelSpec(),
    callback: Optional[Callable[[ParticleEnsemble], None]] = None,
    ess_floor: float = 2.0,
) -> GFSVGDResult:
    """Annealed gradient-free SVGD.

    At temperature step l the surrogate is rebuilt on the fly by smoothing the
    next intermediate density's values at the current particles, so the weight
    ratio compares two nearby distributions.  One gradient-free step is taken
    per temperature; the smoothing bandwidth ``smoothing`` defaults to the
    median heuristic over the current particles.
    """
    path = annealed_targets(p0, target, betas)[1:]
    ess_history = []
    surrogate = None

    def direction(it, x, sq):
        nonlocal surrogate
        h_s = resolve_bandwidth(smoothing, x, sq)
        surrogate = kernel_curve_surrogate(x, path[it].log_density(x), h_s, sq)
        d, ess = _gf_step(x, sq, path[it], surrogate, kernel, "self-normalized", ess_floor)
        ess_history.append(ess)
        return d

    ensemble = run_particles(p0_sampler(rng, n), len(path), direction, schedule, callback)
    return _gf_result(ensemble, ess_history, surrogate, target)
