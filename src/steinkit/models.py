"""Target distributions: continuous and discrete unnormalized models.

Continuous targets expose ``log_density`` (the unnormalized log p-bar) and,
when available analytically, ``score`` (gradient of log density, independent
of the normalization constant).  Discrete targets expose ``log_mass`` on a
product alphabet.

One batch contract holds across the library: a point set is a float
``(n, d)`` array, and every target callable maps it to an ``(n,)`` array
(``log_density``, ``log_mass``) or an ``(n, d)`` array (``score``).  The
library calls targets with batches only and does not re-coerce what they
return; score a single point ``x`` as ``target.score(x[None])[0]``.

Also houses the exhaustive-enumeration and finite-difference oracles used by
the test suite and the ``oracle`` CLI subcommand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import expit, logsumexp, softmax

from . import kernels
from .errors import StateSpaceTooLargeError

BRUTE_FORCE_CAP = 2 ** 20


@dataclass(frozen=True)
class ContinuousTarget:
    """Unnormalized continuous density log p-bar with optional analytic score."""

    dim: int
    log_density: Callable[[np.ndarray], np.ndarray]
    score: Optional[Callable[[np.ndarray], np.ndarray]] = None


@dataclass(frozen=True)
class DiscreteTarget:
    """Unnormalized mass on a product space with K states per coordinate.

    ``log_mass`` maps a float (n, dims) array of states to the (n,) log
    masses; it is never called with a single state.  ``relaxed_score`` is the
    (n, dims) gradient of ``log_mass`` on real vectors, given when the model's
    algebra extends off the lattice (Ising, RBM): the smooth relaxation
    surrogate then evaluates ``log_mass`` itself at the relaxed states.
    ``couplings`` is the read-only symmetric (dims, dims) coupling matrix of a
    pairwise model (Ising), and None for every other target.
    """

    dims: int
    alphabet: tuple[float, ...]
    log_mass: Callable[[np.ndarray], np.ndarray]
    relaxed_score: Optional[Callable[[np.ndarray], np.ndarray]] = None
    couplings: Optional[np.ndarray] = field(default=None, compare=False)

    def __post_init__(self):
        if len(self.alphabet) < 2:
            raise ValueError("alphabet needs at least two states per coordinate")


@dataclass(frozen=True)
class GaussBernoulliRBMParams:
    """Coupling B (d x d'), visible bias b (d,), hidden bias c (d',)."""

    B: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        B, b, c = (np.asarray(a, dtype=float) for a in (self.B, self.b, self.c))
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        if B.ndim != 2 or b.shape != (B.shape[0],) or c.shape != (B.shape[1],):
            raise ValueError("inconsistent RBM parameter shapes")
        if not all(np.all(np.isfinite(a)) for a in (B, b, c)):
            raise ValueError("RBM parameters must be finite")


@dataclass(frozen=True)
class BernoulliRBMParams:
    """Weights W (d x M) with column k coupling visible units to hidden unit k."""

    W: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        W, b, c = (np.asarray(a, dtype=float) for a in (self.W, self.b, self.c))
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        if W.ndim != 2 or b.shape != (W.shape[0],) or c.shape != (W.shape[1],):
            raise ValueError("inconsistent RBM parameter shapes")


# ---------------------------------------------------------------------------
# Continuous targets
# ---------------------------------------------------------------------------

def gaussian_target(mu: np.ndarray, sigma: float) -> ContinuousTarget:
    """Isotropic Gaussian N(mu, sigma * I); ``sigma`` scales the identity
    covariance (it is the per-coordinate variance, not a standard deviation)."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    if not sigma > 0:
        raise ValueError("sigma must be > 0")

    def logp(x):
        return -np.sum((x - mu) ** 2, axis=1) / (2.0 * sigma)

    def score(x):
        return -(x - mu) / sigma

    return ContinuousTarget(dim=mu.size, log_density=logp, score=score)


def mixture_target(log_weights: np.ndarray, means: np.ndarray, sigma: float,
                   sq: Optional[np.ndarray] = None) -> ContinuousTarget:
    """Isotropic Gaussian mixture with unnormalized log-weights and shared
    per-coordinate variance ``sigma``:
    log p-bar(x) = logsumexp_i(log w_i - ||x - mu_i||^2 / (2 sigma)).

    ``sq`` is ``pairwise_sq_dists(means, means)`` when the caller already has
    it; it is used when the mixture is evaluated at the ``means`` array itself.
    """
    logw = np.asarray(log_weights, dtype=float)
    means = np.atleast_2d(np.asarray(means, dtype=float))
    if logw.size == 0 or logw.size != means.shape[0]:
        raise ValueError(f"a mixture needs one weight per component and at least one component: "
                         f"{logw.size} mixture weights for {means.shape[0]} component means")
    if not sigma > 0:
        raise ValueError("sigma must be > 0")

    def softmax_parts(x):
        # (row max, exp of the logits shifted by it, their row sum): a plain numpy
        # logsumexp, without scipy's array-API dispatch on every call.  Distances go
        # through the module so that clibench's tracer times them as the kernels layer.
        d2 = sq if sq is not None and x is means else kernels.pairwise_sq_dists(x, means)
        logits = logw[None, :] - d2 / (2.0 * sigma)
        top = logits.max(axis=1, keepdims=True)
        e = np.exp(logits - top)
        return top, e, e.sum(axis=1, keepdims=True)

    def logp(x):
        top, _, total = softmax_parts(x)
        return (top + np.log(total))[:, 0]

    def score(x):
        # sum_i r_i (mu_i - x) / sigma without an (n, m, d) temporary
        _, e, total = softmax_parts(x)
        r = e / total
        return (r @ means - x * r.sum(axis=1, keepdims=True)) / sigma

    return ContinuousTarget(dim=means.shape[1], log_density=logp, score=score)


def gmm_target(weights: np.ndarray, means: Sequence[np.ndarray], sigma: float,
               log_scale: float = 0.0) -> ContinuousTarget:
    """Mixture of isotropic Gaussians with shared per-coordinate variance
    sigma and simplex weights; the log density is shifted by ``log_scale``."""
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0) or abs(weights.sum() - 1.0) > 1e-12:
        raise ValueError("weights must be nonnegative and sum to 1")
    return mixture_target(np.log(np.maximum(weights, 1e-300)) + log_scale, means, sigma)


def _log2cosh(t: np.ndarray) -> np.ndarray:
    # log(e^t + e^-t), safe for |t| >> 30
    at = np.abs(t)
    return at + np.log1p(np.exp(-2.0 * at))


def gauss_bernoulli_rbm_target(params: GaussBernoulliRBMParams) -> ContinuousTarget:
    """Marginal density of the Gauss-Bernoulli RBM over its visible units.

    log p-bar(x) = b'x - ||x||^2/2 + sum_i log(2 cosh(phi_i)), phi = B'x + c,
    with score b - x + B tanh(phi).
    """
    B, b, c = params.B, params.b, params.c

    def logp(x):
        phi = x @ B + c
        return x @ b - 0.5 * np.einsum("nd,nd->n", x, x) + _log2cosh(phi).sum(axis=1)

    def score(x):
        phi = x @ B + c
        return b - x + np.tanh(phi) @ B.T

    return ContinuousTarget(dim=b.size, log_density=logp, score=score)


def gauss_bernoulli_rbm_mixture(params: GaussBernoulliRBMParams):
    """Exact mixture form of the GB-RBM: enumerates all 2^d' hidden states.

    Returns ``(component_means, log_weights)`` for p(x) = sum_h pi_h N(x; mu_h, I)
    with mu_h = b + B h and log pi_h = c'h + ||mu_h||^2/2 (unnormalized).
    """
    d_hidden = params.c.size
    if 2 ** d_hidden > BRUTE_FORCE_CAP:
        raise StateSpaceTooLargeError(f"2^{d_hidden} hidden states exceed the enumeration cap")
    hs = enumerate_states((-1.0, 1.0), d_hidden)
    mus = params.b[None, :] + hs @ params.B.T
    logw = hs @ params.c + 0.5 * np.einsum("nd,nd->n", mus, mus)
    return mus, logw


def sample_gauss_bernoulli_rbm(rng: np.random.Generator, n: int, params: GaussBernoulliRBMParams) -> np.ndarray:
    mus, logw = gauss_bernoulli_rbm_mixture(params)
    return sample_gmm(rng, n, softmax(logw), mus, 1.0)


# ---------------------------------------------------------------------------
# Discrete targets
# ---------------------------------------------------------------------------

def ising_target(couplings: np.ndarray) -> DiscreteTarget:
    """Ising model p(z) proportional to exp(z'Mz / 2), z in {-1,+1}^d, for a
    symmetric coupling matrix M with zero diagonal: each edge (i, j) adds
    M[i, j] z_i z_j once."""
    m = np.array(couplings, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"couplings must be a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("couplings must be finite")
    if not np.array_equal(m, m.T):
        raise ValueError("couplings must be symmetric")
    if np.any(np.diag(m) != 0):
        raise ValueError("couplings must have a zero diagonal")
    m.flags.writeable = False

    def log_mass(z):
        # 0.5 z'Mz double-counts each edge once, matching the single-sum energy
        return 0.5 * np.einsum("nd,de,ne->n", z, m, z)

    def relaxed_score(x):
        return x @ m

    return DiscreteTarget(
        dims=m.shape[0],
        alphabet=(-1.0, 1.0),
        log_mass=log_mass,
        relaxed_score=relaxed_score,
        couplings=m,
    )


def grid_ising(rows: int, cols: int, theta: float) -> np.ndarray:
    """Coupling matrix of the uniform-coupling Ising model on a rows x cols
    lattice (4-neighbour): theta between lattice neighbours, zero elsewhere."""
    d = rows * cols
    edges = [(i, i + 1) for i in range(d) if (i + 1) % cols] + [(i, i + cols) for i in range(d - cols)]
    m = np.zeros((d, d))
    for i, j in edges:
        m[i, j] += theta
        m[j, i] += theta
    return m


def bernoulli_rbm_target(params: BernoulliRBMParams) -> DiscreteTarget:
    """Bernoulli RBM marginal mass: log m(z) = z'b + sum_k softplus(W'z + c)_k.

    The hidden units take values in {-1,+1} but the free energy keeps the
    1 + exp(.) form (rather than 2 cosh); this asymmetric convention is kept
    deliberately and documented here.
    """
    W, b, c = params.W, params.b, params.c

    def log_mass(z):
        phi = z @ W + c
        return z @ b + np.logaddexp(0.0, phi).sum(axis=1)

    def relaxed_score(x):
        phi = x @ W + c
        return b + expit(phi) @ W.T

    return DiscreteTarget(
        dims=b.size,
        alphabet=(-1.0, 1.0),
        log_mass=log_mass,
        relaxed_score=relaxed_score,
    )


def random_gauss_bernoulli_rbm(rng: np.random.Generator, dim: int, hidden: int) -> GaussBernoulliRBMParams:
    """b, c standard normal; B entries uniform on {+0.5, -0.5}."""
    return GaussBernoulliRBMParams(
        B=rng.choice([-0.5, 0.5], size=(dim, hidden)),
        b=rng.standard_normal(dim),
        c=rng.standard_normal(hidden),
    )


def random_bernoulli_rbm(rng: np.random.Generator, dims: int, hidden: int, w_scale: float = 0.05) -> BernoulliRBMParams:
    return BernoulliRBMParams(
        W=rng.normal(0.0, w_scale, size=(dims, hidden)),
        b=rng.standard_normal(dims),
        c=rng.standard_normal(hidden),
    )


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def enumerate_states(alphabet: Sequence[float], dims: int) -> np.ndarray:
    """All K^dims states in lexicographic order (first coordinate most significant)."""
    alphabet = np.asarray(alphabet, dtype=float)
    k = alphabet.size
    total = k ** dims
    if total > BRUTE_FORCE_CAP:
        raise StateSpaceTooLargeError(f"{k}^{dims} states exceed the enumeration cap {BRUTE_FORCE_CAP}")
    digits = np.unravel_index(np.arange(total), (k,) * dims)
    return alphabet[np.stack(digits, axis=1)]


def brute_force_distribution(target: DiscreteTarget) -> np.ndarray:
    """Exact normalized probabilities over all states, lexicographic order."""
    states = enumerate_states(target.alphabet, target.dims)
    logm = np.empty(states.shape[0])
    chunk = 1 << 16
    for start in range(0, states.shape[0], chunk):
        logm[start:start + chunk] = target.log_mass(states[start:start + chunk])
    p = np.exp(logm - logsumexp(logm))
    return p / p.sum()


def sample_discrete_target(rng: np.random.Generator, n: int, target: DiscreteTarget) -> np.ndarray:
    """Exact i.i.d. samples via full enumeration (oracle-quality, small models only)."""
    states = enumerate_states(target.alphabet, target.dims)
    probs = brute_force_distribution(target)
    return states[rng.choice(states.shape[0], size=n, p=probs)]


def conditional_probs(target: DiscreteTarget, states: np.ndarray, coord: int) -> np.ndarray:
    """Exact conditionals p(z_coord = a | rest) of every row of the (chains, d)
    ``states``, as a (chains, K) array, from one ``log_mass`` call on the
    (chains * K, d) candidates."""
    k = len(target.alphabet)
    cand = np.repeat(states, k, axis=0)
    cand[:, coord] = np.tile(target.alphabet, states.shape[0])
    logm = target.log_mass(cand).reshape(-1, k)
    p = np.exp(logm - logm.max(axis=1, keepdims=True))
    return p / p.sum(axis=1, keepdims=True)


def gibbs_sweep(target: DiscreteTarget, states: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One systematic Gibbs sweep of every chain, a row of the float (chains, d)
    ``states``: each coordinate in order is redrawn from its conditional by
    inverting the conditional cdf at one uniform per chain, in place."""
    alphabet = np.asarray(target.alphabet, dtype=float)
    for coord in range(target.dims):
        cdf = np.cumsum(conditional_probs(target, states, coord), axis=1)
        u = rng.random((states.shape[0], 1))
        states[:, coord] = alphabet[(u >= cdf[:, :-1]).sum(axis=1)]
    return states


def finite_difference_score(target: ContinuousTarget, x: np.ndarray, eps: float) -> np.ndarray:
    """Central-difference gradient of ``target.log_density`` at a single point."""
    if not eps > 0:
        raise ValueError("eps must be > 0")
    d = x.size
    shifts = np.repeat(x[None, :], 2 * d, axis=0)
    idx = np.arange(d)
    shifts[2 * idx, idx] += eps
    shifts[2 * idx + 1, idx] -= eps
    vals = target.log_density(shifts)
    return (vals[0::2] - vals[1::2]) / (2.0 * eps)


# ---------------------------------------------------------------------------
# Exact samplers for simple targets (experiment plumbing)
# ---------------------------------------------------------------------------

def gaussian_sampler(mu: np.ndarray, sigma: float) -> Callable[[np.random.Generator, int], np.ndarray]:
    mu = np.atleast_1d(np.asarray(mu, dtype=float))

    def sample(rng: np.random.Generator, n: int) -> np.ndarray:
        return mu + np.sqrt(sigma) * rng.standard_normal((n, mu.size))

    return sample


def gaussian_logpdf(mu: np.ndarray, sigma: float) -> Callable[[np.ndarray], np.ndarray]:
    """Exact (normalized) log pdf of N(mu, sigma*I), for importance-sampling bases."""
    quadratic = gaussian_target(mu, sigma)
    const = -0.5 * quadratic.dim * np.log(2.0 * np.pi * sigma)

    def logpdf(x):
        return const + quadratic.log_density(x)

    return logpdf


def sample_gmm(rng: np.random.Generator, n: int, weights: np.ndarray, means: np.ndarray, sigma: float) -> np.ndarray:
    weights = np.asarray(weights, dtype=float)
    means = np.atleast_2d(np.asarray(means, dtype=float))
    idx = rng.choice(means.shape[0], size=n, p=weights / weights.sum())
    return means[idx] + np.sqrt(sigma) * rng.standard_normal((n, means.shape[1]))
