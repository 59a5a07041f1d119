"""One-shot distributed model aggregation by bootstrapped KL-averaging.

Local machines ship fitted models (Gaussian or GMM); the fusion center draws
parametric-bootstrap samples from them and combines them with one of three
estimators: the naive pooled refit, a linear control-variates correction
driven by empirical Fisher matrices, or a multiplicatively weighted refit
whose weights are the density ratio between each local model and its
bootstrap re-estimate.  The naive estimator's bootstrap error decays like
1/(d n); both corrected estimators reach 1/(d n^2).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
from scipy.linalg import solve_triangular
from scipy.optimize import linear_sum_assignment
from scipy.special import logsumexp
from scipy.stats import wishart

from . import kernels
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


@dataclass(frozen=True)
class GMMModel:
    weights: np.ndarray
    means: np.ndarray
    covs: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        mu = np.atleast_2d(np.asarray(self.means, dtype=float))
        cv = np.asarray(self.covs, dtype=float)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "covs", cv)
        if np.any(w < 0) or abs(w.sum() - 1.0) > 1e-8:
            raise ValueError("mixture weights must lie on the simplex")
        if cv.shape != (w.size, mu.shape[1], mu.shape[1]):
            raise ValueError("component covariance shapes are inconsistent")

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def n_components(self) -> int:
        return self.weights.size


LocalModel = Union[GaussianModel, GMMModel]


# ---------------------------------------------------------------------------
# Density / sampling / MLE primitives
# ---------------------------------------------------------------------------

def _gaussian_logpdf(x: np.ndarray, mean: np.ndarray, cov: np.ndarray) -> np.ndarray:
    p = mean.size
    chol = np.linalg.cholesky(cov)
    u = np.atleast_2d(x) - mean
    y = solve_triangular(chol, u.T, lower=True).T
    maha = np.einsum("np,np->n", y, y)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * (maha + logdet + p * np.log(2.0 * np.pi))


def model_logpdf(model: LocalModel, x: np.ndarray) -> np.ndarray:
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if isinstance(model, GaussianModel):
        return _gaussian_logpdf(x, model.mean, model.cov)
    comps = np.stack([_gaussian_logpdf(x, model.means[c], model.covs[c]) for c in range(model.n_components)], axis=1)
    return logsumexp(comps + np.log(np.maximum(model.weights, 1e-300)), axis=1)


def model_sample(model: LocalModel, rng: np.random.Generator, n: int) -> np.ndarray:
    if isinstance(model, GaussianModel):
        chol = np.linalg.cholesky(model.cov)
        return model.mean + rng.standard_normal((n, model.dim)) @ chol.T
    idx = rng.choice(model.n_components, size=n, p=model.weights / model.weights.sum())
    out = np.empty((n, model.dim))
    for c in range(model.n_components):
        mask = idx == c
        if np.any(mask):
            chol = np.linalg.cholesky(model.covs[c])
            out[mask] = model.means[c] + rng.standard_normal((mask.sum(), model.dim)) @ chol.T
    return out


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


def _kmeans_style_init(x: np.ndarray, m: int, rng: np.random.Generator) -> np.ndarray:
    """Responsibility init: nearest of m distinct seed points."""
    centers = x[rng.choice(x.shape[0], size=m, replace=False)]
    d2 = kernels.pairwise_sq_dists(x, centers)
    resp = np.zeros((x.shape[0], m))
    resp[np.arange(x.shape[0]), d2.argmin(axis=1)] = 1.0
    return resp


def _gmm_em(
    x: np.ndarray,
    m: int,
    rng: np.random.Generator,
    sample_weights: Optional[np.ndarray] = None,
    tol: float = 1e-6,
    max_iter: int = 500,
) -> GMMModel:
    """(Weighted) EM for a full-covariance GMM; the weighted log-likelihood is
    checked to be nondecreasing at every iteration."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    n, p = x.shape
    sw = np.ones(n) if sample_weights is None else np.asarray(sample_weights, dtype=float)
    resp = _kmeans_style_init(x, m, rng)
    weights = np.empty(m)
    means = np.empty((m, p))
    covs = np.empty((m, p, p))

    def m_step(r):
        rw = r * sw[:, None]
        nc = np.maximum(rw.sum(axis=0), 1e-12)
        w = nc / nc.sum()
        for c in range(m):
            means[c] = rw[:, c] @ x / nc[c]
            u = x - means[c]
            covs[c] = _safe_cov((u.T * rw[:, c]) @ u / nc[c])
        return w

    weights = m_step(resp)
    prev_ll = -np.inf
    for _ in range(max_iter):
        log_comp = np.stack([_gaussian_logpdf(x, means[c], covs[c]) for c in range(m)], axis=1)
        log_comp = log_comp + np.log(np.maximum(weights, 1e-300))
        log_norm = logsumexp(log_comp, axis=1)
        ll = float(sw @ log_norm) / sw.sum()
        if ll < prev_ll - 1e-8 * max(1.0, abs(prev_ll)):
            raise AssertionError(f"EM log-likelihood decreased: {prev_ll} -> {ll}")
        resp = np.exp(log_comp - log_norm[:, None])
        weights = m_step(resp)
        if ll - prev_ll < tol and np.isfinite(prev_ll):
            prev_ll = ll
            break
        prev_ll = ll
    return GMMModel(weights=weights.copy(), means=means.copy(), covs=covs.copy())


def local_mle(
    data: np.ndarray,
    family: str = "gaussian",
    n_components: int = 1,
    rng: Optional[np.random.Generator] = None,
) -> LocalModel:
    """Fit one machine's model: Gaussian closed form, or GMM by seeded EM."""
    x = np.atleast_2d(np.asarray(data, dtype=float))
    if family == "gaussian":
        if x.shape[0] <= x.shape[1]:
            raise ValueError("Gaussian MLE needs more samples than dimensions")
        mean, cov = _gaussian_mle(x)
        return GaussianModel(mean=mean, cov=cov)
    if family == "gmm":
        if n_components == 1:
            mean, cov = _gaussian_mle(x)
            return GMMModel(weights=np.ones(1), means=mean[None, :], covs=cov[None, :, :])
        if rng is None:
            raise ValueError("GMM fitting needs an rng for the seeded init")
        fit = _gmm_em(x, n_components, rng)
        return GMMModel(weights=fit.weights, means=fit.means, covs=fit.covs)
    raise ValueError(f"unknown family: {family!r}")


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

def _draw_bootstrap(models: Sequence[LocalModel], n: int, rng: np.random.Generator) -> list[np.ndarray]:
    return [model_sample(m, rng, n) for m in models]


def _fit(
    model: LocalModel,
    x: np.ndarray,
    rng: Optional[np.random.Generator],
    sample_weights: Optional[np.ndarray] = None,
    cov: Optional[np.ndarray] = None,
) -> LocalModel:
    """(Weighted) MLE of ``model``'s family on x: Gaussian closed form, GMM by
    EM seeded from rng, or with a known ``cov`` the mean alone."""
    if cov is not None:
        mean = x.mean(axis=0) if sample_weights is None else (sample_weights @ x) / sample_weights.sum()
        return GaussianModel(mean=mean, cov=cov)
    if isinstance(model, GaussianModel):
        return GaussianModel(*_gaussian_mle(x, sample_weights))
    return _gmm_em(x, model.n_components, rng, sample_weights)


def _ratio_weights(models: Sequence[LocalModel], refits: Sequence[LocalModel], boots: Sequence[np.ndarray]) -> np.ndarray:
    log_ratio = np.concatenate([model_logpdf(m_hat, b) - model_logpdf(m_tilde, b)
                                for m_hat, m_tilde, b in zip(models, refits, boots)])
    clipped = np.clip(log_ratio, -LOG_RATIO_CLIP, LOG_RATIO_CLIP)
    if np.any(clipped != log_ratio):
        warnings.warn("importance ratios clipped at exp(+-30)")
    return np.exp(clipped)


def _bootstrap_fits(
    models: Sequence[LocalModel],
    boots: Sequence[np.ndarray],
    rng: Optional[np.random.Generator],
    methods: Sequence[str],
    cov: Optional[np.ndarray] = None,
) -> dict[str, LocalModel]:
    """Every requested estimator fitted from one bootstrap draw per machine.

    A known shared ``cov`` makes the mean the only parameter: every refit,
    Fisher block and correction is then over the mean alone.  The per-machine
    refits run before the pooled fits because GMM EM seeds its init from rng.
    """
    if "kl-control" in methods and not all(isinstance(m, GaussianModel) for m in models):
        raise ValueError("kl-control supports the Gaussian family only; match and convert GMMs first")
    mean_only = cov is not None
    pooled = np.vstack(boots)
    fits = {}
    if "kl-control" in methods or "kl-weighted" in methods:
        refits = [_fit(m, b, rng, cov=cov) for m, b in zip(models, boots)]
    if "kl-naive" in methods or "kl-control" in methods:
        fits["kl-naive"] = _fit(models[0], pooled, rng, cov=cov)
    if "kl-control" in methods:
        params = (lambda m: m.mean) if mean_only else pack_gaussian
        fishers = [empirical_fisher(m, b, mean_only) for m, b in zip(models, boots)]
        theta = params(fits["kl-naive"])
        for b_k, m_hat, m_tilde in zip(control_coefficients(fishers), models, refits):
            theta = theta + b_k @ (params(m_tilde) - params(m_hat))
        fits["kl-control"] = GaussianModel(mean=theta, cov=cov) if mean_only else unpack_gaussian(theta, models[0].dim)
    if "kl-weighted" in methods:
        fits["kl-weighted"] = _fit(models[0], pooled, rng, _ratio_weights(models, refits, boots), cov)
    if "linear" in methods:
        linear = linear_average(models)
        fits["linear"] = GaussianModel(mean=linear.mean, cov=cov) if mean_only else linear
    return {method: fit for method, fit in fits.items() if method in methods}


def kl_average(method: str, local_models: Sequence[LocalModel], n_bootstrap: int,
               rng: np.random.Generator) -> LocalModel:
    """KL-averaging of the local models from ``n_bootstrap`` parametric-bootstrap
    draws per machine, by one of three estimators (``method``):

    - ``"kl-naive"``: the pooled MLE over the draws from every local model.
    - ``"kl-control"``: a linear control-variates correction of the naive
      estimator.  Implemented for the Gaussian family, whose parameters are
      additive; GMM inputs must be component-matched and are not supported.
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
    return _bootstrap_fits(local_models, boots, rng, (method,))[method]


def symmetric_kl_gaussians(m1: np.ndarray, c1: np.ndarray, m2: np.ndarray, c2: np.ndarray) -> float:
    """KL(P||Q) + KL(Q||P) between two Gaussians, in closed form."""

    def kl(ma, ca, mb, cb):
        p = ma.size
        prec_b = np.linalg.inv(cb)
        diff = mb - ma
        tr = float(np.trace(prec_b @ ca))
        maha = float(diff @ prec_b @ diff)
        logdet = float(np.linalg.slogdet(cb)[1] - np.linalg.slogdet(ca)[1])
        return 0.5 * (tr + maha - p + logdet)

    return kl(m1, c1, m2, c2) + kl(m2, c2, m1, c1)


def match_components(gmm_models: Sequence[GMMModel]) -> list[np.ndarray]:
    """Per-model component permutations aligning everything to the first model,
    by minimum-cost assignment on pairwise symmetric KL between components."""
    counts = {m.n_components for m in gmm_models}
    if len(counts) != 1:
        raise ValueError("component matching requires equal component counts")
    ref = gmm_models[0]
    perms = [np.arange(ref.n_components)]
    for model in gmm_models[1:]:
        cost = np.empty((ref.n_components, model.n_components))
        for a in range(ref.n_components):
            for b in range(model.n_components):
                cost[a, b] = symmetric_kl_gaussians(ref.means[a], ref.covs[a], model.means[b], model.covs[b])
        _, cols = linear_sum_assignment(cost)
        perms.append(cols)
    return perms


def linear_average(local_models: Sequence[LocalModel]) -> LocalModel:
    """Parameter-wise mean; GMM components are matched to the first model first.

    Requires identical parameterizations across machines (same family and, for
    mixtures, the same component count) -- the structural weakness that
    KL-averaging avoids.
    """
    if all(isinstance(m, GaussianModel) for m in local_models):
        mean = np.mean([m.mean for m in local_models], axis=0)
        cov = np.mean([m.cov for m in local_models], axis=0)
        return GaussianModel(mean=mean, cov=cov)
    if all(isinstance(m, GMMModel) for m in local_models):
        perms = match_components(local_models)
        weights = np.mean([m.weights[p] for m, p in zip(local_models, perms)], axis=0)
        means = np.mean([m.means[p] for m, p in zip(local_models, perms)], axis=0)
        covs = np.mean([m.covs[p] for m, p in zip(local_models, perms)], axis=0)
        return GMMModel(weights=weights / weights.sum(), means=means, covs=covs)
    raise ValueError("linear averaging needs identically parameterized models")


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
            fits = _bootstrap_fits(models, _draw_bootstrap(models, n, rng), rng, methods, cov)
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
