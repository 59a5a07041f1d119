"""Stein variational adaptive importance sampling.

Leader particles build each iteration's transport map; follower particles are
pushed through it without ever influencing it, so conditional on the leader
trajectory the followers stay i.i.d. draws from the evolving proposal q_l.
Their log densities are tracked through the log-det Jacobian of each map,
turning the final follower set into a standard importance sample for the
target: self-normalized expectations and an unbiased estimate of the
normalization constant come for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import logsumexp

from . import kernels
from .errors import InvalidApproximationError, SingularTransformError
from .gfsvgd import WeightedSample
from .kernels import KernelSpec, resolve_bandwidth
from .models import ContinuousTarget
from .svgd import StepSchedule, check_divergence, run_particles, stein_direction

PIVOT_FLOOR = 1e-14
FIRST_ORDER_EPS_MAX = 0.1
AUTO_DIAG_GUARD = 0.5
MAX_EPS_HALVINGS = 5


@dataclass(frozen=True)
class LeaderFollowerEnsemble:
    leaders: np.ndarray
    follower_log_q: np.ndarray
    eps_history: tuple[float, ...]


@dataclass(frozen=True)
class SteinISResult:
    sample: WeightedSample
    z_hat: float
    ensemble: LeaderFollowerEnsemble


def leader_velocity_field(
    leaders: np.ndarray,
    target: ContinuousTarget,
    kernel: KernelSpec,
    sq: np.ndarray,
) -> Callable:
    """Velocity field phi built from the leader set, with analytic Jacobian.

    Returns ``field(y, with_jacobian=False)`` evaluating phi (m, d) and,
    on request, A(y) = grad phi (m, d, d) at an (m, d) point set; both are
    averages over the leaders only.  ``sq`` is the leaders' square distance
    matrix, which gives the bandwidth and ``field(leaders)`` alike.

    With u_l = x_l - y and k_l = exp(-|u_l|^2 / h), the Jacobian is

        A = (1/l) sum_l [ (2/h) k_l s_l u_l' - (4/h^2) k_l u_l u_l' + (2/h) k_l I ],

    expanded into sums over the leaders so that no (l, m, d) tensor is built:
    sum_l k_l s_l x_l' and sum_l k_l x_l x_l' are (l, m) x (l, d^2)
    reductions over per-leader products, and the terms in y are rank-one
    corrections.  Coordinates are centred on the leader mean first, because
    the expansion cancels: a point y loses a few eps * |y - mean|^2 / h
    relative.  Uncentred, points 1e4 from the origin were off by up to 2e-6;
    centred, points within a few bandwidths of the leader mean match the
    direct contraction to about 1e-14, but a point at one of two leader modes
    1e3 apart (h = 0.3) only to about 1e-9.
    Every reduction runs over the leader axis alone, so rows of the field and
    the Jacobian do not depend on which other points share the call.
    """
    x_l = leaders
    if target.score is None:
        raise ValueError("SteinIS requires the target score")
    h = resolve_bandwidth(kernel, x_l, sq)
    s_l = target.score(x_l)
    n_l, d = x_l.shape
    ones = np.ones(n_l)
    centre = x_l.mean(axis=0)
    xc = x_l - centre
    # per-leader columns [1, s, x, s x', x x'] (x centred), reduced against k in one einsum
    products = np.concatenate(
        [ones[:, None], s_l, xc, (s_l[:, :, None] * xc[:, None, :]).reshape(n_l, d * d),
         (xc[:, :, None] * xc[:, None, :]).reshape(n_l, d * d)],
        axis=1,
    )
    split_at = np.cumsum([1, d, d, d * d])
    eye = np.eye(d)

    def field(y: np.ndarray, with_jacobian: bool = False):
        sq_ly = sq if y is x_l else kernels.pairwise_sq_dists(x_l, y)
        phi = stein_direction(x_l, s_l, ones, float(n_l), h, eval_positions=y, sq=sq_ly)
        if not with_jacobian:
            return phi
        # exp(-sq_ly / h) is the kernel matrix that stein_direction built for phi,
        # bit for bit.  The sums come out as (columns, m), with the points on
        # the inner axis: that layout keeps numpy's loops long, about four
        # times faster than an (m, columns) output at d = 2
        sums = np.einsum("lm,lf->fm", np.exp(-sq_ly / h), products)
        colsum, drive, cross, s_cross, x_cross = np.split(sums, split_at)
        s_cross, x_cross = s_cross.reshape(d, d, -1), x_cross.reshape(d, d, -1)
        yc = (y - centre).T
        # sum_l k s u' and sum_l k u u', with u = x_l - y = xc_l - yc, as (d, d, m)
        s_u = s_cross - drive[:, None, :] * yc[None, :, :]
        u_u = (x_cross - cross[:, None, :] * yc[None, :, :] - yc[:, None, :] * cross[None, :, :]
               + colsum * (yc[:, None, :] * yc[None, :, :]))
        jac = (2.0 / h) * s_u - (4.0 / h ** 2) * u_u + (2.0 / h) * colsum * eye[:, :, None]
        jac = np.ascontiguousarray(jac.transpose(2, 0, 1))
        jac /= n_l
        return phi, jac

    return field


def follower_log_dets(jacs: np.ndarray, eps: float, det_mode: str):
    """Batched log |det(I + eps A_i)| over Jacobians ``jacs`` (n, d, d).

    ``"exact"`` takes the log-determinant of each matrix.  ``"first-order"``
    takes sum_k log(1 + eps a_kk), valid when eps is below the reciprocal
    spectral radius of A.  That is enforced conservatively through the max
    row-sum norm, which upper-bounds the spectral radius and needs no
    eigensolver: in this mode eps * ||A||_inf >= 1 raises
    InvalidApproximationError.  ``"auto"`` takes the first-order form for
    eps <= FIRST_ORDER_EPS_MAX unless a diagonal factor falls below
    AUTO_DIAG_GUARD, and the exact form otherwise.

    Returns None when the step must be rejected (``run_steinis`` then halves
    eps): a fold, where some determinant factor is <= 0, or an exact
    |determinant| below PIVOT_FLOOR, which counts as numerically singular.
    """
    n, d, _ = jacs.shape
    diag_factors = 1.0 + eps * jacs[:, np.arange(d), np.arange(d)]
    mode = det_mode
    if det_mode == "auto":
        mode = "first-order" if eps <= FIRST_ORDER_EPS_MAX else "exact"
        if mode == "first-order" and np.any(np.abs(diag_factors) < AUTO_DIAG_GUARD):
            mode = "exact"
    if mode == "first-order":
        if det_mode == "first-order" and eps * float(np.max(np.abs(jacs).sum(axis=2))) >= 1.0:
            raise InvalidApproximationError("eps * ||A||_inf >= 1: first-order expansion invalid")
        if np.any(diag_factors <= 0.0):
            return None
        return np.sum(np.log(diag_factors), axis=1)
    signs, logabs = np.linalg.slogdet(np.eye(d)[None, :, :] + eps * jacs)
    if np.any(signs <= 0.0) or np.any(logabs < np.log(PIVOT_FLOOR)):
        return None
    return logabs


def run_steinis(
    target: ContinuousTarget,
    q0_sampler: Callable[[np.random.Generator, int], np.ndarray],
    q0_logpdf: Callable[[np.ndarray], np.ndarray],
    n_leaders: int,
    n_followers: int,
    iters: int,
    kernel: KernelSpec,
    schedule: StepSchedule,
    rng: np.random.Generator,
    det_mode: str = "auto",
) -> SteinISResult:
    """Evolve leaders and followers, tracking follower densities exactly.

    The initial proposal must supply an exact log pdf.  Each step of the shared
    particle loop builds the map from the leader snapshot, moves every particle
    by eps * phi and subtracts each follower's log |det(I + eps A)| from its
    running log q.  A step whose determinant factor folds (<= 0) is retried
    with eps halved, up to five times, after which the transform is declared
    singular; halvings apply to the whole step and are recorded in the eps history.
    """
    if det_mode not in ("exact", "first-order", "auto"):
        raise ValueError(f"unknown det_mode: {det_mode!r}")
    if schedule.mode == "adam":
        raise ValueError("SteinIS needs a scalar step size (constant or decay schedule)")
    leaders = q0_sampler(rng, n_leaders)
    followers = q0_sampler(rng, n_followers)
    log_q = q0_logpdf(followers)
    eps_history: list[float] = []

    def direction(it, x, sq):
        nonlocal followers, log_q
        field = leader_velocity_field(x, target, kernel, sq)
        eps = schedule.scalar_eps(it)
        phi_f, jac_f = field(followers, with_jacobian=True)
        log_dets = follower_log_dets(jac_f, eps, det_mode)
        halvings = 0
        while log_dets is None:
            halvings += 1
            if halvings > MAX_EPS_HALVINGS:
                raise SingularTransformError(f"transform stayed non-invertible after {MAX_EPS_HALVINGS} eps halvings at iteration {it}")
            eps *= 0.5
            log_dets = follower_log_dets(jac_f, eps, det_mode)
        followers = followers + eps * phi_f
        log_q = log_q - log_dets
        eps_history.append(eps)
        check_divergence(it, followers)
        # scaled by 2^-halvings, which is exact: the loop's step is the halved eps times phi
        return field(x) * 0.5 ** halvings

    leaders = run_particles(leaders, iters, direction, schedule).positions
    log_w = target.log_density(followers) - log_q
    z_hat = float(np.exp(logsumexp(log_w) - np.log(n_followers)))
    sample = WeightedSample(positions=followers, log_weights=log_w)
    ensemble = LeaderFollowerEnsemble(leaders=leaders, follower_log_q=log_q, eps_history=tuple(eps_history))
    return SteinISResult(sample=sample, z_hat=z_hat, ensemble=ensemble)


def self_normalized_expectation(sample: WeightedSample, f: Callable[[np.ndarray], np.ndarray]):
    """Importance-weighted average sum_i w-hat_i f(x_i) with normalized weights."""
    return sample.normalized_weights() @ f(sample.positions)


def path_integration_logZ(
    target: ContinuousTarget,
    q0_sampler: Callable[[np.random.Generator, int], np.ndarray],
    q0_logpdf: Callable[[np.ndarray], np.ndarray],
    n: int,
    iters: int,
    kernel: KernelSpec,
    schedule: StepSchedule,
    m0: int,
    rng: np.random.Generator,
) -> float:
    """log Z estimate by integrating squared KSD along an SVGD trajectory.

    Accumulates K-hat = sum_l eps_l * KSD^2(q_l || p) (V-statistic over the
    current particles) while running plain SVGD from q0, then returns
    K-hat - E_q0[log(q0 / p-bar)] with the expectation taken over m0 fresh
    q0 draws.  Requires a scalar step schedule so the accumulated eps matches
    the steps actually taken.  Runs on the shared particle loop, so positions
    that turn non-finite or exceed the divergence limit raise DivergenceError.
    """
    from .ksd import stein_gram, v_statistic_from_gram

    if schedule.mode == "adam":
        raise ValueError("path integration needs a scalar step size (constant or decay schedule)")
    if target.score is None:
        raise ValueError("path integration requires the target score")
    ref = q0_sampler(rng, m0)
    e0 = float(np.mean(q0_logpdf(ref) - target.log_density(ref)))
    ksd2 = []

    def direction(it, x, sq):
        h = resolve_bandwidth(kernel, x, sq)
        s = target.score(x)
        ksd2.append(v_statistic_from_gram(stein_gram(x, s, h, sq=sq)))
        return stein_direction(x, s, np.ones(len(x)), float(len(x)), h, sq=sq)

    run_particles(q0_sampler(rng, n), iters, direction, schedule)
    return sum(schedule.scalar_eps(it) * v for it, v in enumerate(ksd2)) - e0
