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

from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
from scipy.special import erfc, expit

from .errors import InvalidLambdaError
from .gfsvgd import GFSVGDResult, run_gf_svgd
from .kernels import KernelSpec
from .models import ContinuousTarget, DiscreteTarget, IsingParams, _rowwise
from .svgd import StepSchedule

# Acklam's rational approximation to the normal quantile (central/tail split),
# polished below by one Newton step against an erfc-based Phi.
_ACKLAM_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
             1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ACKLAM_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
             6.680131188771972e+01, -1.328068155288572e+01)
_ACKLAM_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
             -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ACKLAM_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
             3.754408661907416e+00)
_ACKLAM_SPLIT = 0.02425


def normal_cdf(x):
    """Phi via the complementary error function (accurate far into the tails)."""
    x = np.asarray(x, dtype=float)
    return 0.5 * erfc(-x / np.sqrt(2.0))


def inverse_normal_cdf(u):
    """Normal quantile Phi^{-1}(u) for u in (0, 1).

    Rational approximation with one Newton polish step; absolute CDF error
    |Phi(result) - u| stays below 1e-12 across u in [1e-10, 1 - 1e-10].
    """
    u_arr = np.asarray(u, dtype=float)
    if np.any(~np.isfinite(u_arr)) or np.any(u_arr <= 0.0) or np.any(u_arr >= 1.0):
        raise ValueError("inverse normal cdf requires 0 < u < 1")
    scalar = u_arr.ndim == 0
    p = np.atleast_1d(u_arr).copy()
    x = np.empty_like(p)

    lower = p < _ACKLAM_SPLIT
    upper = p > 1.0 - _ACKLAM_SPLIT
    middle = ~(lower | upper)

    a, b, c, d = _ACKLAM_A, _ACKLAM_B, _ACKLAM_C, _ACKLAM_D
    if np.any(middle):
        q = p[middle] - 0.5
        r = q * q
        num = ((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]
        den = ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        x[middle] = q * num / den
    if np.any(lower):
        q = np.sqrt(-2.0 * np.log(p[lower]))
        num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        x[lower] = num / den
    if np.any(upper):
        q = np.sqrt(-2.0 * np.log(1.0 - p[upper]))
        num = ((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]
        den = (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        x[upper] = -num / den

    # Newton step on Phi(x) - u with the exact density as derivative
    pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    x -= (normal_cdf(x) - p) / pdf
    return float(x[0]) if scalar else x.reshape(u_arr.shape)


@dataclass(frozen=True)
class ContinuousParameterization:
    """Quantile-bin map for one discrete target.

    ``thresholds`` has K+1 entries, -inf and +inf padded, with interior
    thresholds eta_i = Phi^{-1}(i/K) so every bin holds exactly 1/K of the
    standard-normal base mass in each coordinate.
    """

    dims: int
    alphabet: tuple[float, ...]
    thresholds: np.ndarray
    log_star_mass: Callable[[np.ndarray], np.ndarray]

    @property
    def n_states(self) -> int:
        return len(self.alphabet)


def make_parameterization(target: DiscreteTarget) -> ContinuousParameterization:
    k = len(target.alphabet)
    inner = inverse_normal_cdf(np.arange(1, k) / k)
    thresholds = np.concatenate(([-np.inf], np.atleast_1d(inner), [np.inf]))
    return ContinuousParameterization(
        dims=target.dims,
        alphabet=tuple(float(a) for a in target.alphabet),
        thresholds=thresholds,
        log_star_mass=target.log_mass,
    )


def bin_indices(x: np.ndarray, param: ContinuousParameterization) -> np.ndarray:
    """Bin index of every coordinate; boundary values go to the upper bin."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("gamma map requires finite inputs")
    inner = param.thresholds[1:-1]
    return np.searchsorted(inner, x, side="right")


def gamma_map(x: np.ndarray, param: ContinuousParameterization) -> np.ndarray:
    """Map continuous points to states: coordinate j lands in the bin holding it."""
    alpha = np.asarray(param.alphabet)
    return alpha[bin_indices(x, param)]


def _log_p0(x: np.ndarray) -> np.ndarray:
    # product standard normal, unnormalized (constants cancel in every use)
    return -0.5 * np.einsum("nd,nd->n", x, x)


def pc_log_density(x: np.ndarray, param: ContinuousParameterization) -> np.ndarray:
    """log p_c-bar(x) = log p0(x) + log p-star-bar(Gamma(x))."""

    def batch(xb):
        return _log_p0(xb) + np.asarray(param.log_star_mass(gamma_map(xb, param)), dtype=float)

    return _rowwise(batch)(x)


def pc_target(param: ContinuousParameterization) -> ContinuousTarget:
    """The piecewise continuous target (no score: it is not differentiable)."""
    return ContinuousTarget(dim=param.dims, log_density=lambda x: pc_log_density(x, param), score=None)


def base_surrogate(param: ContinuousParameterization) -> ContinuousTarget:
    """The base distribution itself as surrogate: rho = p0, score -x."""
    return ContinuousTarget(dim=param.dims, log_density=_rowwise(_log_p0), score=_rowwise(lambda x: -x))


def exact_pc_surrogate(param: ContinuousParameterization) -> ContinuousTarget:
    """p_c as log density, paired with its almost-everywhere score -x.

    Not a valid sampling surrogate: -x ignores the jumps of p_c between bins,
    so it is not the score of this density.  The importance weights are
    identically 1 and GF-SVGD with this surrogate runs plain SVGD on the
    N(0, I) base, which maps to the uniform law over states whatever the
    target.  No surrogate mode selects it; it is kept as a reference only.
    """
    return ContinuousTarget(dim=param.dims, log_density=lambda x: pc_log_density(x, param),
                            score=_rowwise(lambda x: -x))


def ising_surrogate(params: IsingParams, lam: Optional[float] = None) -> ContinuousTarget:
    """Gaussian-form Ising surrogate obtained by dropping the sign map:
    rho(x) = exp(-x' (A + lam I) x / 2) with A the negated coupling matrix.

    ``lam`` defaults to 1 + max row sum of |A|, which makes A + lam I
    diagonally dominant and hence always positive definite; positive
    definiteness of the supplied lam is verified by a Cholesky attempt.
    """
    m = params.coupling_matrix()
    a = -m
    if lam is None:
        lam = 1.0 + float(np.max(np.abs(a).sum(axis=1)))
    if not lam > 0:
        raise InvalidLambdaError("lambda must be positive")
    prec = a + lam * np.eye(params.dims)
    try:
        np.linalg.cholesky(prec)
    except np.linalg.LinAlgError as exc:
        raise InvalidLambdaError(f"A + lambda*I is not positive definite for lambda={lam}") from exc

    def logp(x):
        return -0.5 * np.einsum("nd,de,ne->n", x, prec, x)

    def score(x):
        return -(x @ prec)

    return ContinuousTarget(dim=params.dims, log_density=_rowwise(logp), score=_rowwise(score))


def sign_relaxation(t: np.ndarray) -> np.ndarray:
    """sigma(t) = 2 / (1 + e^{-t}) - 1, a smooth stand-in for sign(t)."""
    return 2.0 * expit(t) - 1.0


def sign_relaxation_deriv(t: np.ndarray) -> np.ndarray:
    """d sigma / dt = 2 e^{-t} / (1 + e^{-t})^2, computed stably."""
    return 2.0 * expit(t) * expit(-t)


def smooth_relaxation_surrogate(
    target: DiscreteTarget,
    param: ContinuousParameterization,
    temperature: float = 10.0,
) -> ContinuousTarget:
    """Relax the state map inside the energy: rho(x) = p0(x) * exp(energy(sigma(tau x))).

    Requires the target to evaluate its energy (and gradient) at real-valued
    relaxed states, as the Ising and RBM free energies do.
    """
    if target.relaxed_log_mass is None or target.relaxed_score is None:
        raise ValueError("target does not expose a differentiable relaxed energy")
    tau = float(temperature)

    def logp(x):
        return _log_p0(x) + np.asarray(target.relaxed_log_mass(sign_relaxation(tau * x)), dtype=float)

    def score(x):
        inner = np.asarray(target.relaxed_score(sign_relaxation(tau * x)), dtype=float)
        return -x + inner * sign_relaxation_deriv(tau * x) * tau

    return ContinuousTarget(dim=param.dims, log_density=_rowwise(logp), score=_rowwise(score))


def resolve_surrogate(
    mode: Union[str, ContinuousTarget],
    target: DiscreteTarget,
    param: ContinuousParameterization,
    temperature: float = 10.0,
) -> ContinuousTarget:
    """The surrogate named by ``mode`` (``"base"`` or ``"relaxed"``), or
    ``mode`` itself when it is already a surrogate (e.g. ``ising_surrogate``)."""
    if isinstance(mode, ContinuousTarget):
        return mode
    if mode == "base":
        return base_surrogate(param)
    if mode == "relaxed":
        return smooth_relaxation_surrogate(target, param, temperature)
    raise ValueError(f"unknown surrogate mode: {mode!r}")


@dataclass(frozen=True)
class DiscreteSampleResult:
    states: np.ndarray
    continuous: GFSVGDResult


def sample_discrete(
    target: DiscreteTarget,
    surrogate_mode: Union[str, ContinuousTarget],
    n: int,
    iters: int,
    kernel: KernelSpec,
    schedule: StepSchedule,
    rng: np.random.Generator,
    init_sampler: Optional[Callable[[np.random.Generator, int], np.ndarray]] = None,
    temperature: float = 10.0,
) -> DiscreteSampleResult:
    """Draw approximate samples from a discrete target via GF-SVGD on p_c.

    ``surrogate_mode`` is as in ``resolve_surrogate``.  Particles start from
    the standard-normal base unless ``init_sampler`` overrides, and the final
    particles map to states through the quantile bins.
    """
    param = make_parameterization(target)
    surrogate = resolve_surrogate(surrogate_mode, target, param, temperature)
    if init_sampler is None:
        def init_sampler(r, m):
            return r.standard_normal((m, param.dims))
    result = run_gf_svgd(
        target=pc_target(param),
        surrogate=surrogate,
        n=n,
        iters=iters,
        kernel=kernel,
        schedule=schedule,
        weight_mode="self-normalized",
        rng=rng,
        init_sampler=init_sampler,
    )
    states = gamma_map(result.ensemble.positions, param)
    return DiscreteSampleResult(states=states, continuous=result)


def state_index_rows(z: np.ndarray, param: ContinuousParameterization) -> np.ndarray:
    """Integer state indices for serialization; raises on unknown state values."""
    z = np.atleast_2d(np.asarray(z, dtype=float))
    alpha = np.asarray(param.alphabet)
    idx = np.full(z.shape, -1, dtype=int)
    for i, value in enumerate(alpha):
        idx[z == value] = i
    if np.any(idx < 0):
        raise ValueError("sample contains values outside the alphabet")
    return idx


def continuize_data(
    z_samples: np.ndarray,
    param: ContinuousParameterization,
    rng: np.random.Generator,
) -> np.ndarray:
    """Lift discrete data to continuous points distributed as q_c given z.

    Each coordinate in state i draws y uniformly from [i/K, (i+1)/K) and maps
    through the normal quantile, landing inside bin i by construction, so
    ``gamma_map`` returns the original states exactly.
    """
    z = np.atleast_2d(np.asarray(z_samples, dtype=float))
    idx = state_index_rows(z, param)
    k = param.n_states
    y = (idx + rng.random(size=z.shape)) / k
    x = inverse_normal_cdf(y)
    # pin within the half-open bin against quantile round-off at the edges
    lo = param.thresholds[idx]
    hi = param.thresholds[idx + 1]
    x = np.clip(x, lo, np.nextafter(hi, -np.inf))
    if np.asarray(z_samples).ndim == 1:
        return x[0]
    return x
