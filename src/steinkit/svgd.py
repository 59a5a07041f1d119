"""Stein variational gradient descent and its annealed variant.

The direction assembly (`stein_direction`) is shared with the gradient-free
module: SVGD is the special case of unit weights, so the two evolve particles
through literally the same arithmetic and a gradient-free run with surrogate
equal to the target reproduces an SVGD run bit for bit.

Updates are simultaneous (Jacobi style): every particle's direction is
computed from the same read-only snapshot of positions before anything moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import kernels
from .errors import DivergenceError, MissingScoreError
from .kernels import KernelSpec, pairwise_sq_dists, resolve_bandwidth
from .models import ContinuousTarget

DIVERGENCE_LIMIT = 1e8


@dataclass(frozen=True)
class ParticleEnsemble:
    """Particle positions plus iteration counter and Adam moment accumulators."""

    positions: np.ndarray
    iteration: int = 0
    adam_m: Optional[np.ndarray] = None
    adam_v: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class StepSchedule:
    """Step-size policy: fixed eps, Adam on the update direction, or a decaying
    eps / (1 + iter)^decay_exponent schedule (``eps`` doubles as the decay
    numerator alpha)."""

    mode: str = "adam"
    eps: float = 0.05
    beta1: float = 0.9
    beta2: float = 0.999
    delta: float = 1e-8
    decay_exponent: float = 0.5

    def __post_init__(self):
        if self.mode not in ("constant", "adam", "decay"):
            raise ValueError(f"unknown schedule mode: {self.mode!r}")
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("adam betas must lie in [0, 1)")

    def scalar_eps(self, iteration: int) -> float:
        """Plain step size at ``iteration`` (constant and decay modes only)."""
        if self.mode == "constant":
            return self.eps
        if self.mode == "decay":
            return self.eps / (1.0 + iteration) ** self.decay_exponent
        raise ValueError("adam schedule has no scalar step size")


def stein_direction(
    src_positions: np.ndarray,
    src_scores: np.ndarray,
    weights: np.ndarray,
    normalizer: float,
    h: float,
    eval_positions: Optional[np.ndarray] = None,
    sq: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Weighted kernel-Stein velocity field evaluated at ``eval_positions``.

    Row i is  (1/Z) * sum_j w_j [ s_j k(x_j, y_i) + grad_{x_j} k(x_j, y_i) ],
    with the RBF gradient expanded analytically.  ``sq`` is
    ``pairwise_sq_dists(src_positions, eval_positions)`` when the caller
    already has it.

    A square call (``eval_positions`` omitted or ``src_positions`` itself)
    takes the drive, the cross term and the column sum from one BLAS product,
    ``wk' [scores, x, 1]``; its bits can depend on the number of BLAS
    threads.  A cross call keeps three ``einsum`` reductions that write
    (d, m) arrays, so their loops run along the points.  Each of its output
    rows is a self-contained reduction over the source axis, so evaluating
    the field on subsets of two or more points yields bit-identical rows (a
    one-point set is summed in another order).
    """
    x = src_positions
    y = x if eval_positions is None else eval_positions
    if sq is None:
        sq = pairwise_sq_dists(x, y)
    # one (n, m) temporary, built in place: same bits as weights[:, None] * np.exp(-sq / h)
    wk = np.divide(sq, -h)
    np.exp(wk, out=wk)
    wk *= weights[:, None]
    if y is x:
        d = x.shape[1]
        sums = wk.T @ np.concatenate([src_scores, x, np.ones((x.shape[0], 1))], axis=1)
        drive, cross, colsum = sums[:, :d], sums[:, d:2 * d], sums[:, 2 * d]
    else:
        drive = np.einsum("ji,jd->di", wk, src_scores).T
        colsum = np.einsum("ji->i", wk)
        cross = np.einsum("ji,jd->di", wk, x).T
    repulse = (2.0 / h) * (y * colsum[:, None] - cross)
    return (drive + repulse) / normalizer


def svgd_direction(particles: np.ndarray, target: ContinuousTarget, kernel: KernelSpec, sq=None) -> np.ndarray:
    """Standard SVGD update direction, one row per particle; ``sq`` as in ``stein_direction``."""
    if target.score is None:
        raise MissingScoreError("target has no analytic score; use the gradient-free update")
    h = resolve_bandwidth(kernel, particles, sq)
    n = particles.shape[0]
    return stein_direction(particles, target.score(particles), np.ones(n), float(n), h, sq=sq)


def check_divergence(it: int, positions: np.ndarray) -> None:
    """Raise DivergenceError if any coordinate is non-finite or exceeds the
    divergence limit in magnitude after iteration ``it``."""
    if not np.all(np.isfinite(positions)):
        raise DivergenceError(f"non-finite particle positions at iteration {it}")
    if np.max(np.abs(positions)) > DIVERGENCE_LIMIT:
        raise DivergenceError(f"particle positions exceeded {DIVERGENCE_LIMIT:g} at iteration {it}")


def apply_direction(ensemble: ParticleEnsemble, direction: np.ndarray, schedule: StepSchedule) -> ParticleEnsemble:
    """Advance positions by the schedule-scaled direction; increments the counter.

    Raises DivergenceError if any coordinate becomes non-finite or exceeds
    the divergence limit in magnitude.
    """
    it = ensemble.iteration
    if schedule.mode == "adam":
        m = np.zeros_like(ensemble.positions) if ensemble.adam_m is None else ensemble.adam_m
        v = np.zeros_like(ensemble.positions) if ensemble.adam_v is None else ensemble.adam_v
        t = it + 1
        m = schedule.beta1 * m + (1.0 - schedule.beta1) * direction
        v = schedule.beta2 * v + (1.0 - schedule.beta2) * direction ** 2
        m_hat = m / (1.0 - schedule.beta1 ** t)
        v_hat = v / (1.0 - schedule.beta2 ** t)
        step = schedule.eps * m_hat / (np.sqrt(v_hat) + schedule.delta)
        new_positions = ensemble.positions + step
        new_m, new_v = m, v
    else:
        new_positions = ensemble.positions + schedule.scalar_eps(it) * direction
        new_m, new_v = ensemble.adam_m, ensemble.adam_v
    check_divergence(it, new_positions)
    return ParticleEnsemble(positions=new_positions, iteration=it + 1, adam_m=new_m, adam_v=new_v)


def run_particles(
    positions: np.ndarray,
    iters: int,
    direction: Callable[[int, np.ndarray, np.ndarray], np.ndarray],
    schedule: StepSchedule,
    callback: Optional[Callable[[ParticleEnsemble], None]] = None,
) -> ParticleEnsemble:
    """The particle loop of every SVGD-type sampler: iteration ``it`` moves
    the particles by ``direction(it, x, sq)``, where ``sq`` holds the pairwise
    squared distances of the current positions ``x``, computed once here for
    the bandwidth and the direction alike.  ``callback`` is invoked on the
    initial ensemble and after every step."""
    ensemble = ParticleEnsemble(positions)
    if callback is not None:
        callback(ensemble)
    for it in range(iters):
        x = ensemble.positions
        # called through the module so that clibench's tracer times it as the kernels layer
        ensemble = apply_direction(ensemble, direction(it, x, kernels.pairwise_sq_dists(x, x)), schedule)
        if callback is not None:
            callback(ensemble)
    return ensemble


def run_svgd(
    target: ContinuousTarget,
    n: int,
    iters: int,
    kernel: KernelSpec,
    schedule: StepSchedule,
    rng: np.random.Generator,
    init_sampler: Callable[[np.random.Generator, int], np.ndarray],
    callback: Optional[Callable[[ParticleEnsemble], None]] = None,
) -> ParticleEnsemble:
    """Run ``iters`` SVGD steps from ``init_sampler`` draws."""
    return run_particles(
        init_sampler(rng, n), iters, lambda it, x, sq: svgd_direction(x, target, kernel, sq), schedule, callback
    )


def annealed_targets(p0: ContinuousTarget, p: ContinuousTarget, betas: np.ndarray) -> list[ContinuousTarget]:
    """Geometric interpolation path: element l has log density
    (1 - beta_l) log p0-bar + beta_l log p-bar (scores combined the same way).

    ``betas`` must start at 0, end at 1, and be strictly increasing.  The
    endpoint elements reproduce the inputs exactly (the convex combination is
    applied verbatim, with 0 and 1 coefficients).
    """
    betas = np.asarray(betas, dtype=float)
    if betas.ndim != 1 or betas.size < 2 or betas[0] != 0.0 or betas[-1] != 1.0 or np.any(np.diff(betas) <= 0):
        raise ValueError("betas must be strictly increasing from 0 to 1")
    if p0.dim != p.dim:
        raise ValueError("p0 and p dimensions differ")

    def make(beta: float) -> ContinuousTarget:
        def logp(x, _b=beta):
            return (1.0 - _b) * p0.log_density(x) + _b * p.log_density(x)

        score = None
        if p0.score is not None and p.score is not None:
            def score(x, _b=beta):
                return (1.0 - _b) * p0.score(x) + _b * p.score(x)

        return ContinuousTarget(dim=p.dim, log_density=logp, score=score)

    return [make(float(b)) for b in betas]


def run_annealed_svgd(
    p0: ContinuousTarget,
    p: ContinuousTarget,
    betas: np.ndarray,
    m: int,
    n: int,
    kernel: KernelSpec,
    schedule: StepSchedule,
    rng: np.random.Generator,
    p0_sampler: Callable[[np.random.Generator, int], np.ndarray],
    callback: Optional[Callable[[ParticleEnsemble], None]] = None,
) -> ParticleEnsemble:
    """Annealed SVGD: m steps against each intermediate target in turn.

    Initial particles are drawn from p0 via ``p0_sampler``; one step per
    temperature (m=1) suffices when the path is fine.
    """
    path = annealed_targets(p0, p, betas)[1:]
    return run_particles(
        p0_sampler(rng, n), m * len(path), lambda it, x, sq: svgd_direction(x, path[it // m], kernel, sq),
        schedule, callback,
    )
