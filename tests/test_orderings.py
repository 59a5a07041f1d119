"""Qualitative ordering checks between algorithm variants.

These reproduce relative-performance claims at desk scale: annealing beats
the plain gradient-free update on a hard high-dimensional mixture, and a
mean-matched over-dispersed surrogate beats a peaked one.  The absolute
numbers are scale-dependent; only the orderings are asserted.
"""

import numpy as np
import pytest

from steinkit import gfsvgd, kernels, models, svgd
from steinkit.gof import mmd_rbf
from steinkit.rngs import stream_rng

SEED = 7


@pytest.fixture(scope="module")
def gmm25():
    rng = stream_rng(SEED, 99)
    means = rng.uniform(-1.0, 1.0, size=(10, 25))
    weights = np.full(10, 0.1)
    target = models.gmm_target(weights, means, 1.0)
    mu_rho = rng.uniform(-1.0, 1.0, size=25)
    exact = models.sample_gmm(stream_rng(SEED, 98), 1000, weights, means, 1.0)
    return {
        "target": target,
        "mu_rho": mu_rho,
        "exact": exact,
        "h": kernels.median_bandwidth(exact),
    }


@pytest.fixture(scope="module")
def gmm25_runs(gmm25):
    """One budget-matched run of each variant on the 25-d mixture."""
    sched = svgd.StepSchedule(mode="adam", eps=0.05)
    iters = 500
    p0 = models.gaussian_target(gmm25["mu_rho"], 4.0)
    p0_sampler = models.gaussian_sampler(gmm25["mu_rho"], 4.0)
    betas = np.linspace(0.0, 1.0, iters + 1)
    # the fixed wide surrogate degenerates by design in 25 dimensions; run
    # unguarded to reproduce the plain gradient-free behavior
    gf = gfsvgd.run_gf_svgd(gmm25["target"], p0, 200, iters, kernels.KernelSpec(), sched,
                            "self-normalized", stream_rng(SEED, 0), p0_sampler, ess_floor=0.0)
    agf = gfsvgd.run_agf_svgd(gmm25["target"], p0, betas, 200, kernels.KernelSpec(), sched,
                              stream_rng(SEED, 0), p0_sampler, ess_floor=0.0)
    annealed = svgd.run_annealed_svgd(p0, gmm25["target"], betas, 1, 200, kernels.KernelSpec(),
                                      sched, stream_rng(SEED, 0), p0_sampler)
    mmd = lambda pos: mmd_rbf(pos, gmm25["exact"], gmm25["h"])
    return {
        "gf": mmd(gf.ensemble.positions),
        "agf": mmd(agf.ensemble.positions),
        "annealed": mmd(annealed.positions),
    }


def test_annealed_gf_beats_plain_gf_on_25d_gmm(gmm25_runs):
    assert gmm25_runs["agf"] < gmm25_runs["gf"]


def test_annealed_svgd_beats_plain_gf_at_equal_budget(gmm25_runs):
    assert gmm25_runs["annealed"] < gmm25_runs["gf"]


@pytest.mark.xfail(
    strict=False,
    reason="Gauss-Bernoulli RBM mass concentrates on components ~10 units from the "
    "start region; with value-only guidance the desk-scale annealed sampler does not "
    "reach them, so the sample-size ordering of the mean MSE is dominated by seed-level "
    "bias rather than the 1/n variance term.",
)
def test_rbm_mean_mse_decreases_with_sample_size():
    params = models.random_gauss_bernoulli_rbm(stream_rng(SEED, 97), 20, 10)
    target = models.gauss_bernoulli_rbm_target(params)
    mus, logw = models.gauss_bernoulli_rbm_mixture(params)
    pw = np.exp(logw - logw.max())
    pw /= pw.sum()
    true_mean = pw @ mus
    sched = svgd.StepSchedule(mode="adam", eps=0.05)
    betas = np.linspace(0.0, 1.0, 601)
    mse = {}
    for n in (20, 50, 100):
        errs = []
        for s in range(3):
            mu0 = stream_rng(SEED, 96, s).uniform(1.0, 2.0, size=20)
            p0 = models.gaussian_target(mu0, 3.0)
            res = gfsvgd.run_agf_svgd(target, p0, betas, n, kernels.KernelSpec(), sched,
                                      stream_rng(SEED, 95, s, n),
                                      models.gaussian_sampler(mu0, 3.0), ess_floor=0.0)
            errs.append(np.mean((res.ensemble.positions.mean(axis=0) - true_mean) ** 2))
        mse[n] = float(np.mean(errs))
    assert mse[100] < mse[50] < mse[20]
