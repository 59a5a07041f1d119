"""One-shot distributed model aggregation by bootstrapped KL-averaging.

Local machines ship fitted Gaussian models; the fusion center draws
parametric-bootstrap samples from them and combines them with one of three
estimators: the naive pooled refit, a linear control-variates correction
driven by empirical Fisher matrices, or a multiplicatively weighted refit
whose weights are the density ratio between each local model and its
bootstrap re-estimate.  The naive estimator's bootstrap error decays like
1/(d n); both corrected estimators reach 1/(d n^2).  This is the Gaussian
rate experiment of Han & Liu 2016, "Bootstrap Model Aggregation for
Distributed Statistical Learning", with the parameter-wise linear average as
its baseline.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import solve_triangular
from scipy.stats import wishart

from .rngs import stream_rng

RIDGE = 1e-8
LOG_RATIO_CLIP = 30.0


@dataclass(frozen=True)
class GaussianModel:
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        if cov.shape != (mean.size, mean.size):
            raise ValueError("covariance shape does not match the mean")

    @property
    def dim(self) -> int:
        return self.mean.size


# ---------------------------------------------------------------------------
# Density / sampling / MLE primitives
# ---------------------------------------------------------------------------

def model_logpdf(model: GaussianModel, x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    chol = np.linalg.cholesky(model.cov)
    y = solve_triangular(chol, (x - model.mean).T, lower=True).T
    maha = np.einsum("np,np->n", y, y)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * (maha + logdet + model.dim * np.log(2.0 * np.pi))


def model_sample(model: GaussianModel, rng: np.random.Generator, n: int) -> np.ndarray:
    chol = np.linalg.cholesky(model.cov)
    return model.mean + rng.standard_normal((n, model.dim)) @ chol.T


def _safe_cov(cov: np.ndarray) -> np.ndarray:
    try:
        np.linalg.cholesky(cov)
        return cov
    except np.linalg.LinAlgError:
        warnings.warn("singular covariance regularized with 1e-8 * I")
        return cov + RIDGE * np.eye(cov.shape[0])


def _gaussian_mle(x: np.ndarray, sample_weights: Optional[np.ndarray] = None) -> tuple[np.ndarray, np.ndarray]:
    """Weighted Gaussian MLE; covariance uses the 1/n (biased) convention."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    w = np.ones(x.shape[0]) if sample_weights is None else np.asarray(sample_weights, dtype=float)
    wsum = w.sum()
    mean = (w @ x) / wsum
    u = x - mean
    cov = (u.T * w) @ u / wsum
    return mean, _safe_cov(cov)


def local_mle(data: np.ndarray) -> GaussianModel:
    """Fit one machine's model: the closed-form Gaussian MLE of its data."""
    x = np.atleast_2d(np.asarray(data, dtype=float))
    if x.shape[0] <= x.shape[1]:
        raise ValueError("Gaussian MLE needs more samples than dimensions")
    return GaussianModel(*_gaussian_mle(x))


# ---------------------------------------------------------------------------
# Parameter vectorization (Gaussian) for the control-variates correction
# ---------------------------------------------------------------------------

def pack_gaussian(model: GaussianModel) -> np.ndarray:
    i, j = np.tril_indices(model.dim)
    return np.concatenate([model.mean, model.cov[i, j]])


def unpack_gaussian(theta: np.ndarray, p: int) -> GaussianModel:
    mean = theta[:p]
    cov = np.zeros((p, p))
    i, j = np.tril_indices(p)
    cov[i, j] = theta[p:]
    cov[j, i] = theta[p:]
    return GaussianModel(mean=mean, cov=cov)


def _gaussian_param_scores(model: GaussianModel, x: np.ndarray, mean_only: bool = False) -> np.ndarray:
    """Per-sample score d log N(x; mu, Sigma) / d theta in (mean, vech cov)
    coordinates, or in the mean alone; off-diagonal covariance entries appear
    once, so their score components carry the factor 2."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    prec = np.linalg.inv(model.cov)
    pu = (x - model.mean) @ prec
    if mean_only:
        return pu
    g = 0.5 * (np.einsum("ni,nj->nij", pu, pu) - prec[None, :, :])
    i, j = np.tril_indices(model.dim)
    s_cov = g[:, i, j]
    s_cov[:, i != j] *= 2.0
    return np.concatenate([pu, s_cov], axis=1)


def empirical_fisher(model: GaussianModel, x: np.ndarray, mean_only: bool = False) -> np.ndarray:
    """(1/n) sum_j s s' over the bootstrap points, s the parameter score
    (of the mean alone when ``mean_only``)."""
    s = _gaussian_param_scores(model, x, mean_only)
    return s.T @ s / s.shape[0]


def control_coefficients(fishers: Sequence[np.ndarray]) -> list[np.ndarray]:
    """B_k = -(sum_k I_k)^{-1} I_k, with a ridge fallback when the sum is singular."""
    total = np.sum(fishers, axis=0)
    q = total.shape[0]
    rhs = np.stack(fishers, axis=0).transpose(1, 0, 2).reshape(q, -1)
    try:
        solve = np.linalg.solve(total, rhs)
    except np.linalg.LinAlgError:
        warnings.warn("singular Fisher sum; adding 1e-8 ridge")
        solve = np.linalg.solve(total + RIDGE * np.eye(q), rhs)
    stacked = solve.reshape(q, len(fishers), q).transpose(1, 0, 2)
    return [-b for b in stacked]


# ---------------------------------------------------------------------------
# Aggregation estimators
# ---------------------------------------------------------------------------

def _draw_bootstrap(models: Sequence[GaussianModel], n: int, rng: np.random.Generator) -> list[np.ndarray]:
    return [model_sample(m, rng, n) for m in models]


def _fit(x: np.ndarray, sample_weights: Optional[np.ndarray] = None,
         cov: Optional[np.ndarray] = None) -> GaussianModel:
    """(Weighted) Gaussian MLE on x, or with a known ``cov`` the mean alone."""
    if cov is not None:
        mean = x.mean(axis=0) if sample_weights is None else (sample_weights @ x) / sample_weights.sum()
        return GaussianModel(mean=mean, cov=cov)
    return GaussianModel(*_gaussian_mle(x, sample_weights))


def _ratio_weights(models: Sequence[GaussianModel], refits: Sequence[GaussianModel],
                   boots: Sequence[np.ndarray]) -> np.ndarray:
    log_ratio = np.concatenate([model_logpdf(m_hat, b) - model_logpdf(m_tilde, b)
                                for m_hat, m_tilde, b in zip(models, refits, boots)])
    clipped = np.clip(log_ratio, -LOG_RATIO_CLIP, LOG_RATIO_CLIP)
    if np.any(clipped != log_ratio):
        warnings.warn("importance ratios clipped at exp(+-30)")
    return np.exp(clipped)


def _bootstrap_fits(
    models: Sequence[GaussianModel],
    boots: Sequence[np.ndarray],
    methods: Sequence[str],
    cov: Optional[np.ndarray] = None,
) -> dict[str, GaussianModel]:
    """Every requested estimator fitted from one bootstrap draw per machine.

    A known shared ``cov`` makes the mean the only parameter: every refit,
    Fisher block and correction is then over the mean alone.
    """
    mean_only = cov is not None
    pooled = np.vstack(boots)
    fits = {}
    if "kl-control" in methods or "kl-weighted" in methods:
        refits = [_fit(b, cov=cov) for b in boots]
    if "kl-naive" in methods or "kl-control" in methods:
        fits["kl-naive"] = _fit(pooled, cov=cov)
    if "kl-control" in methods:
        params = (lambda m: m.mean) if mean_only else pack_gaussian
        fishers = [empirical_fisher(m, b, mean_only) for m, b in zip(models, boots)]
        theta = params(fits["kl-naive"])
        for b_k, m_hat, m_tilde in zip(control_coefficients(fishers), models, refits):
            theta = theta + b_k @ (params(m_tilde) - params(m_hat))
        fits["kl-control"] = GaussianModel(mean=theta, cov=cov) if mean_only else unpack_gaussian(theta, models[0].dim)
    if "kl-weighted" in methods:
        fits["kl-weighted"] = _fit(pooled, _ratio_weights(models, refits, boots), cov)
    if "linear" in methods:
        linear = linear_average(models)
        fits["linear"] = GaussianModel(mean=linear.mean, cov=cov) if mean_only else linear
    return {method: fit for method, fit in fits.items() if method in methods}


def kl_average(method: str, local_models: Sequence[GaussianModel], n_bootstrap: int,
               rng: np.random.Generator) -> GaussianModel:
    """KL-averaging of the local Gaussian models from ``n_bootstrap``
    parametric-bootstrap draws per machine, by one of three estimators
    (``method``):

    - ``"kl-naive"``: the pooled MLE over the draws from every local model.
    - ``"kl-control"``: a linear control-variates correction of the naive
      estimator, in (mean, vech cov) coordinates, with coefficients from the
      empirical Fisher matrices.
    - ``"kl-weighted"``: a weighted pooled refit, in which each bootstrap point
      carries the density ratio p(x | theta-hat_k) / p(x | theta-tilde_k) as a
      multiplicative weight.  With theta-tilde = theta-hat the ratios are
      identically 1 and the estimator reduces to the naive one exactly.

    Returns the fitted model.
    """
    if method not in ("kl-naive", "kl-control", "kl-weighted"):
        raise ValueError(f"unknown KL-averaging method: {method!r}")
    if n_bootstrap < 1:
        raise ValueError("need at least one bootstrap draw per machine")
    boots = _draw_bootstrap(local_models, n_bootstrap, rng)
    return _bootstrap_fits(local_models, boots, (method,))[method]


def linear_average(local_models: Sequence[GaussianModel]) -> GaussianModel:
    """Parameter-wise mean of the local means and covariances.  Unlike the KL
    optimum it leaves out the spread of the local means from the covariance."""
    mean = np.mean([m.mean for m in local_models], axis=0)
    cov = np.mean([m.cov for m in local_models], axis=0)
    return GaussianModel(mean=mean, cov=cov)


# ---------------------------------------------------------------------------
# Rate experiment (desk-scale simulation in the asymptotic-local-MLE regime)
# ---------------------------------------------------------------------------

def exact_kl_optimum_gaussian(models: Sequence[GaussianModel]) -> GaussianModel:
    """Closed-form argmax of sum_k E_{p_k}[log N(x; theta)]: moment matching
    against the equal-weight mixture of the local models."""
    mean = np.mean([m.mean for m in models], axis=0)
    second = np.mean([m.cov + np.outer(m.mean, m.mean) for m in models], axis=0)
    return GaussianModel(mean=mean, cov=second - np.outer(mean, mean))


def _draw_asymptotic_local_models(
    rng: np.random.Generator, n_machines: int, dim: int, big_n: float, known_covariance: bool = False
) -> list[GaussianModel]:
    """Local MLEs drawn from their asymptotic sampling distribution around the
    truth (standard Gaussian), standing in for fits to N/d raw points."""
    m_per = big_n / n_machines
    models = []
    for k in range(n_machines):
        mean = rng.standard_normal(dim) / np.sqrt(m_per)
        if known_covariance:
            cov = np.eye(dim)
        else:
            cov = wishart.rvs(df=int(m_per) - 1, scale=np.eye(dim) / m_per, random_state=rng)
        models.append(GaussianModel(mean=mean, cov=cov))
    return models


def gaussian_mse(model: GaussianModel, reference: GaussianModel) -> float:
    return float(np.sum((model.mean - reference.mean) ** 2) + np.sum((model.cov - reference.cov) ** 2))


def gaussian_rate_experiment(
    n_machines: int,
    dim: int,
    n_grid: Sequence[int],
    n_trials: int,
    seed: int,
    big_n: float = 6e7,
    methods: Sequence[str] = ("kl-naive", "kl-control", "kl-weighted"),
    trial_indices: Optional[Sequence[int]] = None,
    known_covariance: bool = False,
) -> list[dict]:
    """MSE-vs-bootstrap-size grid for the three estimators, paired per trial.

    Within a trial all methods share the same local models and the same
    bootstrap draw, which makes per-n comparisons nearly noise-free.  Returns
    rows (method, d, n, trial, mse) with the MSE measured against the exact
    KL optimum of that trial's local models.  ``trial_indices`` restricts the
    run to a subset of trials (each trial has its own seed stream, so subsets
    computed in parallel reproduce the serial results exactly).

    With ``known_covariance`` the locals share one fixed covariance and only
    the mean is estimated; the asymptotic ordering between the estimators then
    shows already at small n, because no covariance block amplifies the
    ratio-weight variance.
    """
    if not known_covariance and int(big_n / n_machines) <= dim:
        raise ValueError(f"big_n: {big_n:g} / {n_machines} machines leaves {int(big_n / n_machines)} points per "
                         f"machine; the Wishart draw of a local covariance in dimension {dim} needs more")
    rows = []
    for trial in (range(n_trials) if trial_indices is None else trial_indices):
        models = _draw_asymptotic_local_models(
            stream_rng(seed, trial, 0), n_machines, dim, big_n, known_covariance=known_covariance
        )
        reference = exact_kl_optimum_gaussian(models)
        cov = models[0].cov if known_covariance else None
        for i_n, n in enumerate(n_grid):
            rng = stream_rng(seed, trial, 1 + i_n)
            fits = _bootstrap_fits(models, _draw_bootstrap(models, n, rng), methods, cov)
            for method, fit in fits.items():
                rows.append({
                    "method": method,
                    "d": n_machines,
                    "n": int(n),
                    "trial": trial,
                    "mse": gaussian_mse(fit, reference),
                })
    return rows


def fit_loglog_slope(ns: Sequence[float], values: Sequence[float]) -> float:
    """Least-squares slope of log(values) against log(ns); raises ValueError
    unless every value is positive."""
    values = np.asarray(values, dtype=float)
    if not np.all(values > 0):
        raise ValueError("a log-log slope needs positive values")
    return float(np.polyfit(np.log(np.asarray(ns, dtype=float)), np.log(values), 1)[0])
