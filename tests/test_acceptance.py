"""Acceptance suite: one test per shipped guarantee, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines.  Tolerances are fixed here and match the package's documented
contracts; statistical checks run at fixed seeds with the sample sizes
stated inline.
"""

import numpy as np
import pytest

from steinkit import aggregation, discrete, gfsvgd, gof, kernels, ksd, models, steinis, svgd
from steinkit.rngs import stream_rng

KERN_MEDIAN = kernels.KernelSpec()
ADAM = svgd.StepSchedule(mode="adam", eps=0.05)


def report(num, name, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:2d} {name}: {status} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def _two_x_gmm_target(seed):
    """2D ten-component GMM scaled so the normalization constant is exactly 2."""
    rng = stream_rng(seed, 99)
    means = rng.uniform(-1.0, 1.0, size=(10, 2))
    target = models.gmm_target(np.full(10, 0.1), means, 1.0, log_scale=np.log(2.0) - np.log(2.0 * np.pi))
    return target, means.mean(axis=0)


def _steinis_gmm_run(seed, trial, iters, n_followers):
    target, true_mean = _two_x_gmm_target(seed)
    result = steinis.run_steinis(
        target,
        models.gaussian_sampler(np.zeros(2), 2.0),
        models.gaussian_logpdf(np.zeros(2), 2.0),
        100, n_followers, iters, KERN_MEDIAN,
        svgd.StepSchedule(mode="decay", eps=0.3, decay_exponent=0.5),
        stream_rng(seed, trial), det_mode="auto",
    )
    est = steinis.self_normalized_expectation(result.sample, lambda x: x)
    return result.z_hat, float(np.mean((est - true_mean) ** 2))


def test_criterion_1_stein_identities():
    # score-based identity E_{x~N(0,1)} kappa_p(x, y0) = 0
    rng = stream_rng(1001, 0)
    x = rng.standard_normal((1_000_000, 1))
    y0 = np.array([[0.5]])
    vals = ksd.stein_gram(x, -x, 1.0, y=y0, y_scores=-y0)[:, 0]
    se1 = vals.std(ddof=1) / np.sqrt(vals.size)
    ok1 = abs(vals.mean()) < 4 * se1

    # importance-weighted identity with rho = N(0, 2)
    y = stream_rng(1001, 1).standard_normal(1_000_000)
    w = np.exp(0.25 * y ** 2)  # rho-bar / p-bar up to scale
    k = np.exp(-((y - 0.5) ** 2))
    term = w * ((-y / 2.0) * k - 2.0 * (y - 0.5) * k)
    se2 = term.std(ddof=1) / np.sqrt(term.size)
    ok2 = abs(term.mean()) < 4 * se2
    report(1, "stein-identities", ok1 and ok2,
           f"plain {vals.mean():.2e} vs 4se {4 * se1:.2e}; weighted {term.mean():.2e} vs 4se {4 * se2:.2e}")


def test_criterion_2_score_correctness():
    rng = stream_rng(1002, 0)
    cases = {}
    cases["gaussian"] = models.gaussian_target(rng.normal(size=3), 1.7)
    w = rng.uniform(0.5, 1.5, size=5)
    cases["gmm"] = models.gmm_target(w / w.sum(), rng.uniform(-1, 1, size=(5, 3)), 0.8)
    cases["gauss-bernoulli-rbm"] = models.gauss_bernoulli_rbm_target(
        models.random_gauss_bernoulli_rbm(rng, 4, 6)
    )
    anchors = rng.standard_normal((8, 3))
    cases["kernel-curve"] = gfsvgd.kernel_curve_surrogate(anchors, rng.standard_normal(8), 1.5)
    cases["ising-surrogate"] = discrete.ising_surrogate(models.ising_target(models.grid_ising(2, 3, 0.4)))
    rbm_t = models.bernoulli_rbm_target(models.random_bernoulli_rbm(rng, 5, 3))
    cases["relaxed-rbm-surrogate"] = discrete.smooth_relaxation_surrogate(rbm_t, 10.0)

    worst = ("", 0.0)
    for name, target in cases.items():
        for _ in range(20):
            x = rng.standard_normal(target.dim)
            eps = 1e-5 * (1.0 + np.linalg.norm(x)) if name != "relaxed-rbm-surrogate" else 1e-6 * (1.0 + np.linalg.norm(x))
            fd = models.finite_difference_score(target, x, eps)
            rel = np.linalg.norm(target.score(x[None])[0] - fd) / max(np.linalg.norm(fd), 1.0)
            if rel > worst[1]:
                worst = (name, rel)
    report(2, "score-correctness", worst[1] < 1e-5, f"worst rel err {worst[1]:.2e} ({worst[0]})")


def test_criterion_3_reduction_identity():
    target = models.gaussian_target(np.zeros(2), 2.0)
    sampler = models.gaussian_sampler(np.zeros(2), 4.0)
    plain = svgd.run_svgd(target, 50, 200, KERN_MEDIAN, ADAM, stream_rng(1003, 0), sampler)
    free = gfsvgd.run_gf_svgd(target, target, 50, 200,
                              KERN_MEDIAN, ADAM, "self-normalized", stream_rng(1003, 0), sampler)
    ok_traj = np.array_equal(plain.positions, free.ensemble.positions)

    p_log = models.gaussian_logpdf(np.zeros(1), 1.0)
    scorer = models.gaussian_target(np.zeros(1), 1.0).score
    surrogate = models.ContinuousTarget(1, p_log, scorer)
    x = stream_rng(1003, 1).standard_normal((100, 1))
    a = ksd.gf_stein_gram(x, surrogate, p_log, 1.0)
    b = ksd.stein_gram(x, scorer(x), 1.0)
    worst = float(np.max(np.abs(a - b) / np.maximum(1.0, np.abs(b))))
    report(3, "gradient-free-reduction", ok_traj and worst <= 1e-10,
           f"trajectories bit-identical: {ok_traj}; kernel max rel diff {worst:.2e}")


def test_criterion_4_steinis_normalization_constant():
    seed = 2024
    z_hats = np.array([_steinis_gmm_run(seed, t, 800, 100)[0] for t in range(100)])
    stderr = z_hats.std(ddof=1) / 10.0
    err = abs(z_hats.mean() - 2.0)
    ok = err < 0.05 * 2.0 and err < 3 * stderr
    report(4, "steinis-z-hat", ok,
           f"mean {z_hats.mean():.4f} vs 2.0 (err {err:.4f}, 5% bound 0.1, 3se {3 * stderr:.4f}), 100 trials")


def test_criterion_5_steinis_mse_rate():
    seed = 2024
    sizes = (50, 100, 200, 400)
    mses = []
    for n_b in sizes:
        trials = [_steinis_gmm_run(seed, 10_000 + t, 300, n_b)[1] / 2.0 for t in range(50)]
        mses.append(float(np.mean(trials)))
    slope = aggregation.fit_loglog_slope(sizes, mses)
    report(5, "steinis-mse-slope", -1.35 <= slope <= -0.65,
           f"slope {slope:.3f} over |B| in {sizes}, band [-1.35, -0.65]")


def test_criterion_6_determinant_approximation_order():
    rng = stream_rng(1006, 0)
    errs_full, errs_half = [], []
    for _ in range(50):
        a = rng.standard_normal((4, 4))
        eps = 0.1 / float(np.max(np.abs(a).sum(axis=1)))
        errs_full.append(abs(steinis.follower_log_dets(a[None], eps, "first-order")[0]
                             - steinis.follower_log_dets(a[None], eps, "exact")[0]))
        errs_half.append(abs(steinis.follower_log_dets(a[None], eps / 2, "first-order")[0]
                             - steinis.follower_log_dets(a[None], eps / 2, "exact")[0]))
    ratio = float(np.mean(errs_full) / np.mean(errs_half))
    report(6, "determinant-order", 3.5 <= ratio <= 4.5, f"error ratio {ratio:.3f}, band [3.5, 4.5]")


def test_criterion_7_path_integration_log_z():
    target = models.gaussian_target(np.zeros(1), 1.0)  # p-bar = exp(-x^2/2)
    est = steinis.path_integration_logZ(
        target, models.gaussian_sampler(np.zeros(1), 2.0), models.gaussian_logpdf(np.zeros(1), 2.0),
        200, 600, kernels.KernelSpec(bandwidth=1.0), svgd.StepSchedule(mode="constant", eps=0.05),
        100_000, stream_rng(11, 0),
    )
    true_logz = 0.5 * np.log(2.0 * np.pi)
    report(7, "path-integration-logz", abs(est - true_logz) <= 0.15,
           f"estimate {est:.4f} vs {true_logz:.4f} (tol 0.15, n=200)")


def test_criterion_8_discrete_sampler():
    # (a) five-state categorical, total variation <= 0.05
    masses = np.array([0.1, 0.2, 0.3, 0.1, 0.3])
    states = (-1.0, -0.5, 0.0, 0.5, 1.0)
    lookup = dict(zip(states, np.log(masses)))

    def log_mass(z):
        return np.array([lookup[v] for v in z[:, 0]])

    cat = models.DiscreteTarget(dims=1, alphabet=states, log_mass=log_mass)
    res = discrete.sample_discrete(cat, discrete.base_surrogate(cat), 500, 500, KERN_MEDIAN, ADAM, stream_rng(0, 0))
    freq = np.array([np.mean(res.states[:, 0] == a) for a in states])
    tv = 0.5 * float(np.abs(freq - masses).sum())

    # (b) 3x3 Ising site means against exhaustive enumeration
    target = models.ising_target(models.grid_ising(3, 3, 0.2))
    oracle = models.brute_force_distribution(target) @ models.enumerate_states(target.alphabet, 9)
    exact_pc = discrete.exact_pc_surrogate(target)
    res_b = discrete.sample_discrete(target, exact_pc, 1000, 500, KERN_MEDIAN, ADAM, stream_rng(100, 0))
    site_err = float(np.max(np.abs(res_b.states.mean(axis=0) - oracle)))

    # (c) even-partition Monte Carlo bin frequencies
    draws = stream_rng(1008, 0).standard_normal((1_000_000, 1))
    idx = discrete.bin_indices(draws, cat)[:, 0]
    bin_err = float(np.max(np.abs(np.bincount(idx, minlength=5) / draws.shape[0] - 0.2)))

    ok = tv <= 0.05 and site_err <= 0.05 and bin_err <= 0.002
    report(8, "discrete-sampler", ok,
           f"categorical TV {tv:.4f} (<=0.05); ising site err {site_err:.4f} (<=0.05); bin freq err {bin_err:.5f} (<=0.002)")


def test_criterion_9_gof_calibration_and_power():
    null = models.ising_target(models.grid_ising(3, 3, 0.2))
    relaxed = discrete.smooth_relaxation_surrogate(null, 10.0)

    def rejection_rate(theta_data, n, reps, seed):
        data_target = models.ising_target(models.grid_ising(3, 3, theta_data))
        hits = 0
        for r in range(reps):
            z = models.sample_discrete_target(stream_rng(seed, r, 0), n, data_target)
            rep = gof.gof_test(z, null, relaxed, alpha=0.05, m=1000, seed=seed * 100_000 + r)
            hits += rep.reject
        return hits / reps

    level = rejection_rate(0.2, 200, 500, 21)
    power = rejection_rate(0.4, 1000, 100, 12)  # coupling doubled = temperature halved
    ok = 0.03 <= level <= 0.08 and power > 0.9
    report(9, "gof-level-and-power", ok,
           f"null rejection {level:.4f} in [0.03, 0.08]; power {power:.3f} > 0.9 at n=1000")


def test_criterion_10_bbis():
    target = models.gaussian_target(np.zeros(1), 1.0)

    # simplex constraints + solver-vs-grid agreement (3-point exhaustive search)
    k3 = np.array([[2.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.5]])
    u3 = ksd.solve_simplex_qp(k3)
    g = np.linspace(0.0, 1.0, 1001)
    u1, u2 = np.meshgrid(g, g, indexing="ij")
    u3_grid = 1.0 - u1 - u2
    mask = u3_grid >= -1e-12
    cand = np.stack([u1[mask], u2[mask], np.maximum(u3_grid[mask], 0.0)], axis=1)
    best = cand[np.einsum("ni,ij,nj->n", cand, k3, cand).argmin()]
    grid_err = float(np.max(np.abs(u3 - best)))
    ok_constraints = abs(u3.sum() - 1.0) <= 1e-8 and u3.min() >= -1e-12 and grid_err <= 2e-3

    # reweighted mean beats the uniform mean on the N(1,1) -> N(0,1) mismatch
    wins = 0
    for trial in range(100):
        rng = stream_rng(200, trial)
        pts = rng.normal(1.0, 1.0, size=(50, 1))
        h = kernels.median_bandwidth(pts)
        u = ksd.bbis_weights(ksd.gf_stein_gram(pts, target, target.log_density, h))
        wins += abs(u @ pts[:, 0]) < abs(pts[:, 0].mean())
    report(10, "bbis", ok_constraints and wins >= 90,
           f"grid err {grid_err:.2e} (<=2e-3); weighted beats uniform {wins}/100 (>=90)")


def test_criterion_11_aggregation_rates():
    grid = (50, 100, 200, 400, 800)
    rows = aggregation.gaussian_rate_experiment(10, 5, grid, 200, seed=314, known_covariance=True)

    def mean_mse(method, n):
        return float(np.mean([r["mse"] for r in rows if r["method"] == method and r["n"] == n]))

    slopes = {m: aggregation.fit_loglog_slope(grid, [mean_mse(m, n) for n in grid])
              for m in ("kl-naive", "kl-control", "kl-weighted")}
    ordering = all(mean_mse("kl-weighted", n) <= mean_mse("kl-naive", n) for n in grid)
    separation = slopes["kl-naive"] - slopes["kl-weighted"]
    ok = (
        -1.3 <= slopes["kl-naive"] <= -0.7
        and -2.4 <= slopes["kl-control"] <= -1.6
        and -2.4 <= slopes["kl-weighted"] <= -1.6
        and ordering
        and separation >= 0.6
    )
    report(11, "aggregation-rates", ok,
           f"slopes naive {slopes['kl-naive']:.3f} / control {slopes['kl-control']:.3f} / "
           f"weighted {slopes['kl-weighted']:.3f}; ordering at every n: {ordering}; separation {separation:.2f}")


def test_criterion_12_ksd_descent():
    target = models.gaussian_target(np.zeros(1), 1.0)
    ratios = []
    for seed in range(20):
        vals = {}

        def cb(ens, store=vals):
            if ens.iteration in (0, 200):
                h = kernels.median_bandwidth(ens.positions)
                x = ens.positions
                store[ens.iteration] = ksd.v_statistic_from_gram(ksd.stein_gram(x, target.score(x), h))

        svgd.run_svgd(target, 100, 200, KERN_MEDIAN, ADAM, stream_rng(1012, seed),
                      models.gaussian_sampler(np.zeros(1), 4.0), callback=cb)
        ratios.append(vals[0] / vals[200])
    med = float(np.median(ratios))
    report(12, "ksd-descent", med >= 5.0, f"median KSD^2 drop factor {med:.1f} (>=5) over 20 seeds")
