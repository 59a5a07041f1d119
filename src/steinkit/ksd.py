"""Kernelized Stein discrepancy machinery, assembled as Gram matrices.

``stein_gram`` is the score-based Stein kernel matrix kappa_p(x_i, y_j) between
two point sets (by default the square Gram over one), ``gf_stein_gram`` the
gradient-free importance-weighted matrix w_i kappa_rho(x_i, x_j) w_j and
``alpha_stein_gram`` the density-power-weighted variant.  U/V statistics
are read off a Gram, and black-box importance sampling weights solve a
simplex-constrained quadratic program in the gradient-free Gram.

For the RBF kernel all derivative terms are analytic; the double-derivative
trace is k * (2 d / h - 4 ||x - y||^2 / h^2) and that single expression is the
source of truth everywhere in the package (no autodiff anywhere).
"""

from __future__ import annotations

import warnings
from typing import Callable, Optional

import numpy as np

from .errors import MissingScoreError, NumericalFailure
from .kernels import pairwise_sq_dists
from .models import ContinuousTarget


def stein_gram(
    points: np.ndarray,
    scores: np.ndarray,
    h: float,
    sq: Optional[np.ndarray] = None,
    y: Optional[np.ndarray] = None,
    y_scores: Optional[np.ndarray] = None,
) -> np.ndarray:
    """kappa matrix kappa_p(x_i, y_j) given precomputed scores at both point
    sets; ``y`` and ``y_scores`` default to ``points`` and ``scores`` (the
    square Gram).  ``sq`` is ``pairwise_sq_dists(points, y)`` when the caller
    already has it."""
    x, sx = points, scores
    square = y is None
    y, sy = (x, sx) if square else (y, y_scores)
    d = x.shape[1]
    if sq is None:
        sq = pairwise_sq_dists(x, y)
    k = np.exp(-sq / h)
    ax = np.einsum("nd,nd->n", sx, x)
    ay = ax if square else np.einsum("md,md->m", sy, y)
    b = sx @ y.T
    # s_y' x_i, which the square Gram reads off b
    bt = b.T if square else (sy @ x.T).T
    g = (sx @ sy.T) * k
    g += (2.0 / h) * k * (ax[:, None] - b)
    g += (2.0 / h) * k * (ay[None, :] - bt)
    g += k * (2.0 * d / h - 4.0 * sq / h ** 2)
    return g


def gf_stein_gram(
    points: np.ndarray,
    surrogate: ContinuousTarget,
    log_p_fn: Callable,
    h: float,
    sq: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Gram matrix of the gradient-free Stein kernel, w_i kappa_rho(x_i, x_j) w_j.

    The max log-weight is subtracted from every log-weight before
    exponentiating, i.e. the matrix is returned up to the positive factor
    exp(2 max log w).  Downstream uses (GF-SVGD directions, bootstrap
    p-values, BBIS weights and their comparisons) are invariant to that
    scale, which is what lets everything run on unnormalized densities.
    ``sq`` is as in ``stein_gram``.
    """
    if surrogate.score is None:
        raise MissingScoreError("surrogate has no analytic score")
    kr = stein_gram(points, surrogate.score(points), h, sq)
    log_w = surrogate.log_density(points) - log_p_fn(points)
    w = np.exp(log_w - np.max(log_w))
    return w[:, None] * kr * w[None, :]


def alpha_stein_gram(points: np.ndarray, log_p_fn: Callable, score_fn: Callable, alpha: float, h: float) -> np.ndarray:
    """Density-power-weighted Stein kernel matrix
    p_i^a p_j^a [ (a+1)^2 s_i's_j k + (a+1) s_i'grad_y k + (a+1) s_j'grad_x k + tr term ].

    Scaling the scores by a + 1 gives ``stein_gram`` exactly those four
    weights.  ``p^a`` uses the unnormalized density, so the overall scale
    carries the (unknown) normalization constant to the 2a power; a = 0
    recovers ``stein_gram`` bit for bit.
    """
    log_p = log_p_fn(points)
    scale = np.exp(alpha * (log_p[:, None] + log_p[None, :]))
    return scale * stein_gram(points, (alpha + 1.0) * score_fn(points), h)


# ---------------------------------------------------------------------------
# U / V statistics
# ---------------------------------------------------------------------------

def v_statistic_from_gram(gram: np.ndarray) -> float:
    return float(gram.mean())


def u_statistic_from_gram(gram: np.ndarray) -> float:
    n = gram.shape[0]
    if n < 2:
        raise ValueError("U-statistic needs at least two points")
    return float((gram.sum() - np.trace(gram)) / (n * (n - 1)))


# ---------------------------------------------------------------------------
# Black-box importance sampling
# ---------------------------------------------------------------------------

def simplex_project(v: np.ndarray) -> np.ndarray:
    """Exact Euclidean projection onto the probability simplex (sort-based)."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, v.size + 1)
    positive = u - css / idx > 0
    rho = idx[positive][-1]
    tau = css[rho - 1] / rho
    return np.maximum(v - tau, 0.0)


def solve_simplex_qp(gram: np.ndarray, max_iter: int = 10000, tol: float = 1e-10) -> np.ndarray:
    """min u' K u over the probability simplex by accelerated projected gradient.

    Step size 1/L with L the Gershgorin bound max_i sum_j |K_ij|; on an
    objective increase the step is halved and momentum restarted, so the
    objective is nonincreasing across accepted iterates.  Warns and returns
    the best iterate if the relative-decrease tolerance is never met.
    """
    k = gram
    n = k.shape[0]
    if n == 1:
        return np.ones(1)
    lipschitz = float(np.max(np.abs(k).sum(axis=1)))
    step = 1.0 / max(lipschitz, 1e-300)
    u = np.full(n, 1.0 / n)
    u = simplex_project(u)
    obj = float(u @ k @ u)
    y = u.copy()
    t = 1.0
    best_u, best_obj = u.copy(), obj
    converged = False
    for _ in range(max_iter):
        cand = simplex_project(y - step * (2.0 * (k @ y)))
        cand_obj = float(cand @ k @ cand)
        if cand_obj > obj:
            step *= 0.5
            y = u.copy()
            t = 1.0
            if step < 1e-18:
                break
            continue
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        y = cand + ((t - 1.0) / t_next) * (cand - u)
        t = t_next
        decrease = obj - cand_obj
        u, obj = cand, cand_obj
        if obj < best_obj:
            best_u, best_obj = u.copy(), obj
        if decrease <= tol * max(abs(obj), 1e-300):
            converged = True
            break
    if not converged:
        warnings.warn("simplex QP did not reach the relative-decrease tolerance; returning best iterate")
    return best_u


def bbis_weights(gram: np.ndarray, max_iter: int = 10000, tol: float = 1e-10) -> np.ndarray:
    """Importance weights for arbitrary particles by minimizing the empirical
    gradient-free KSD u' K-tilde u subject to u on the probability simplex;
    ``gram`` is ``gf_stein_gram`` over the particles."""
    return solve_simplex_qp(0.5 * (gram + gram.T), max_iter=max_iter, tol=tol)


def bbis_error_bound(weights: np.ndarray, gram: np.ndarray) -> float:
    """sqrt(u' K-tilde u) for ``gram`` = K-tilde from ``gf_stein_gram``: the
    sample-dependent factor of the integration-error bound (the RKHS norm of
    the test function is reported separately by the caller as an unknown
    scale)."""
    if abs(weights.sum() - 1.0) > 1e-8 or weights.min() < -1e-12:
        raise ValueError("weights must lie on the probability simplex")
    quad = float(weights @ gram @ weights)
    if quad < -1e-10:
        raise NumericalFailure(f"quadratic form is negative beyond tolerance: {quad:.3e}")
    return float(np.sqrt(max(quad, 0.0)))
