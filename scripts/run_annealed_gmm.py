"""Gradient-free sampling on a high-dimensional GMM: plain vs annealed.

Runs GF-SVGD (fixed wide Gaussian surrogate) and AGF-SVGD (surrogate rebuilt
from the particles at every temperature) on a 25-dimensional ten-component
mixture at an equal iteration budget, reporting the RBF MMD of each particle
set against exact samples.
"""

import argparse

import numpy as np

from steinkit import gfsvgd, kernels, models, svgd
from steinkit.gof import mmd_rbf
from steinkit.rngs import stream_rng


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dim", type=int, default=25)
    ap.add_argument("--n", type=int, default=200)
    ap.add_argument("--iters", type=int, default=500)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    rng = stream_rng(args.seed, 99)
    means = rng.uniform(-1.0, 1.0, size=(10, args.dim))
    weights = np.full(10, 0.1)
    target = models.gmm_target(weights, means, 1.0)

    mu_rho = rng.uniform(-1.0, 1.0, size=args.dim)
    rho = models.gaussian_target(mu_rho, 4.0)
    p0 = models.gaussian_target(mu_rho, 4.0)
    p0_sampler = models.gaussian_sampler(mu_rho, 4.0)

    exact = models.sample_gmm(stream_rng(args.seed, 98), 1000, weights, means, 1.0)
    h = kernels.median_bandwidth(exact)
    schedule = svgd.StepSchedule(mode="adam", eps=0.05)

    # ess_floor=0: the fixed wide surrogate degenerates in 25 dimensions by
    # design -- this stress regime is the point of the comparison
    gf = gfsvgd.run_gf_svgd(
        target, rho, args.n, args.iters,
        kernels.KernelSpec(), schedule, "self-normalized", stream_rng(args.seed, 0), p0_sampler,
        ess_floor=0.0,
    )
    betas = np.linspace(0.0, 1.0, args.iters + 1)
    agf = gfsvgd.run_agf_svgd(
        target, p0, betas, args.n, kernels.KernelSpec(), schedule,
        stream_rng(args.seed, 0), p0_sampler, ess_floor=0.0,
    )

    mmd_gf = mmd_rbf(gf.ensemble.positions, exact, h)
    mmd_agf = mmd_rbf(agf.ensemble.positions, exact, h)
    print(f"GF-SVGD  MMD^2 = {mmd_gf:.5f}")
    print(f"AGF-SVGD MMD^2 = {mmd_agf:.5f}  ({args.iters} iterations each)")


if __name__ == "__main__":
    main()
