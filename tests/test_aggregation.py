import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from steinkit import aggregation
from steinkit.aggregation import (
    LOG_RATIO_CLIP,
    GaussianModel,
    _bootstrap_fits,
    _draw_asymptotic_local_models,
    _draw_bootstrap,
    _fit,
    _gaussian_mle,
    _ratio_weights,
    control_coefficients,
    empirical_fisher,
    exact_kl_optimum_gaussian,
    fit_loglog_slope,
    kl_average,
    linear_average,
    local_mle,
    model_logpdf,
    model_sample,
    pack_gaussian,
    unpack_gaussian,
)
from steinkit.rngs import stream_rng


class TestLocalMLE:
    def test_two_point_gaussian(self):
        m = local_mle(np.array([[0.0], [2.0]]))
        assert m.mean[0] == pytest.approx(1.0)
        assert m.cov[0, 0] == pytest.approx(1.0)  # biased 1/n covariance

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            local_mle(np.zeros((2, 2)))


class TestPackUnpack:
    def test_round_trip(self):
        rng = stream_rng(82, 0)
        a = rng.standard_normal((3, 3))
        model = GaussianModel(mean=rng.standard_normal(3), cov=a @ a.T + np.eye(3))
        back = unpack_gaussian(pack_gaussian(model), 3)
        assert np.allclose(back.mean, model.mean, atol=1e-15)
        assert np.allclose(back.cov, model.cov, atol=1e-15)

    def test_fisher_positive_semidefinite(self):
        rng = stream_rng(82, 1)
        model = GaussianModel(mean=np.zeros(2), cov=np.eye(2))
        x = model_sample(model, rng, 500)
        fisher = empirical_fisher(model, x)
        assert np.linalg.eigvalsh(fisher).min() > -1e-10


class TestKLNaive:
    def test_single_machine_is_bootstrap_mle(self):
        model = GaussianModel(mean=np.array([1.0]), cov=np.array([[2.0]]))
        res = kl_average("kl-naive", [model], 500, stream_rng(83, 0))
        boots = _draw_bootstrap([model], 500, stream_rng(83, 0))
        assert res.mean[0] == pytest.approx(boots[0].mean(), rel=1e-12)

    def test_combined_mean_is_pooled_mean(self):
        models = [GaussianModel(mean=np.array([m]), cov=np.array([[1.0]])) for m in (-1.0, 0.5, 2.0)]
        rng = stream_rng(83, 1)
        boots = _draw_bootstrap(models, 200, rng)
        fit = _fit(np.vstack(boots))
        assert fit.mean[0] == pytest.approx(np.vstack(boots).mean(), rel=1e-12)


class TestKLControl:
    def test_correction_vanishes_for_large_n(self):
        models = [
            GaussianModel(mean=stream_rng(84, k).normal(0, 0.01, size=2), cov=np.eye(2))
            for k in range(4)
        ]
        res = kl_average("kl-control", models, 100_000, stream_rng(84, 10))
        naive = kl_average("kl-naive", models, 100_000, stream_rng(84, 10))
        correction = np.linalg.norm(pack_gaussian(res) - pack_gaussian(naive))
        assert correction < 1e-2 * np.linalg.norm(pack_gaussian(naive))

    def test_identical_fishers_sum_to_minus_identity(self):
        rng = stream_rng(84, 20)
        q = 5
        a = rng.standard_normal((q, q))
        fisher = a @ a.T + np.eye(q)
        bs = control_coefficients([fisher] * 4)
        total = np.sum(bs, axis=0)
        assert np.allclose(total, -np.eye(q), atol=1e-10)
        for b in bs:
            assert np.allclose(b, -0.25 * np.eye(q), atol=1e-10)


class TestKLWeighted:
    def test_reduces_to_naive_when_refit_equals_original(self):
        models = [GaussianModel(mean=np.array([m]), cov=np.array([[1.0]])) for m in (-0.5, 0.5)]
        rng = stream_rng(85, 0)
        boots = _draw_bootstrap(models, 100, rng)
        pooled = np.vstack(boots)
        weighted = _fit(pooled, _ratio_weights(models, models, boots))
        naive = _fit(pooled)
        assert np.array_equal(weighted.mean, naive.mean)
        assert np.array_equal(weighted.cov, naive.cov)

    def test_weighted_mean_matches_numeric_maximizer(self):
        models = [GaussianModel(mean=np.array([0.3]), cov=np.array([[1.0]]))]
        rng = stream_rng(85, 1)
        boots = _draw_bootstrap(models, 200, rng)
        refits = [_fit(b) for b in boots]
        fit = _fit(np.vstack(boots), _ratio_weights(models, refits, boots))
        w = np.exp(model_logpdf(models[0], boots[0]) - model_logpdf(refits[0], boots[0]))
        x = boots[0][:, 0]

        def neg_weighted_loglik(mu):
            return float(np.sum(w * (x - mu) ** 2))  # known variance: quadratic

        res = minimize_scalar(neg_weighted_loglik, bounds=(-5, 5), method="bounded",
                              options={"xatol": 1e-12})
        assert fit.mean[0] == pytest.approx(res.x, abs=1e-8)

    def test_full_run_returns_result(self):
        models = [GaussianModel(mean=np.zeros(2), cov=np.eye(2)) for _ in range(3)]
        res = kl_average("kl-weighted", models, 50, stream_rng(85, 2))
        assert res.mean.shape == (2,) and res.cov.shape == (2, 2)


class TestMatchingAndAveraging:
    def test_identical_models_average_to_themselves(self):
        a = stream_rng(87, 1).standard_normal((3, 3))
        g = GaussianModel(mean=np.array([0.5, -1.0, 2.0]), cov=a @ a.T + np.eye(3))
        res = linear_average([g, g, g])
        assert np.allclose(res.mean, g.mean, atol=1e-12)
        assert np.allclose(res.cov, g.cov, atol=1e-12)


class TestExactKLAverage:
    # exact_kl_optimum_gaussian matches moments against the mixture of the
    # local models; its mean is the known-covariance KL average, the mean of
    # the local means
    def test_two_machine_mean(self):
        cov = np.array([[1.0]])
        models = [GaussianModel(mean=np.array([0.0]), cov=cov), GaussianModel(mean=np.array([2.0]), cov=cov)]
        assert exact_kl_optimum_gaussian(models).mean[0] == pytest.approx(1.0)

    def test_machine_permutation_invariance(self):
        cov = np.eye(2)
        models = [GaussianModel(mean=stream_rng(86, k).normal(size=2), cov=cov) for k in range(5)]
        a = exact_kl_optimum_gaussian(models)
        b = exact_kl_optimum_gaussian(models[::-1])
        assert np.allclose(a.mean, b.mean, atol=1e-15)

    def test_kl_naive_converges_to_exact(self):
        cov = np.array([[1.0]])
        models = [GaussianModel(mean=np.array([m]), cov=cov) for m in (-1.0, 0.0, 1.0)]
        exact = exact_kl_optimum_gaussian(models)
        n = 100_000
        res = kl_average("kl-naive", models, n, stream_rng(86, 10))
        stderr = 1.0 / np.sqrt(3 * n)
        assert abs(res.mean[0] - exact.mean[0]) < 3 * stderr


class TestOrderingInvariant:
    def test_weighted_beats_naive_at_n_100_full_family(self):
        # mean+covariance family, 200 paired trials at n=100
        rows = aggregation.gaussian_rate_experiment(10, 5, [100], 200, seed=99)
        naive = np.mean([r["mse"] for r in rows if r["method"] == "kl-naive"])
        weighted = np.mean([r["mse"] for r in rows if r["method"] == "kl-weighted"])
        assert weighted <= naive


class TestExperimentPlumbing:
    def test_exact_kl_optimum_is_moment_match(self):
        models = [
            GaussianModel(mean=np.array([0.0]), cov=np.array([[1.0]])),
            GaussianModel(mean=np.array([2.0]), cov=np.array([[1.0]])),
        ]
        opt = exact_kl_optimum_gaussian(models)
        assert opt.mean[0] == pytest.approx(1.0)
        # mixture second moment: 1 + mean of mu^2 = 3 -> variance 3 - 1 = 2
        assert opt.cov[0, 0] == pytest.approx(2.0)

    def test_loglog_slope_on_synthetic_power_law(self):
        ns = [50, 100, 200, 400]
        vals = [100.0 / n ** 1.5 for n in ns]
        assert fit_loglog_slope(ns, vals) == pytest.approx(-1.5, abs=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1e-3, np.nan])
    def test_loglog_slope_rejects_non_positive_values(self, bad):
        # log(0) would be -inf and the fitted slope NaN, which summary.json cannot hold
        with pytest.raises(ValueError, match="positive"):
            fit_loglog_slope([10, 20, 40], [0.5, bad, 0.1])

    def test_model_sample_matches_moments(self):
        cov = np.array([[2.0, 0.6], [0.6, 0.5]])
        model = GaussianModel(mean=np.array([1.0, -2.0]), cov=cov)
        x = model_sample(model, stream_rng(87, 0), 200_000)
        assert np.allclose(x.mean(axis=0), model.mean, atol=0.02)
        assert np.allclose(np.cov(x, rowvar=False), cov, atol=0.03)


# ---------------------------------------------------------------------------
# Oracles: each regime's estimators written out in that regime's own
# arithmetic, over the mean alone with a known covariance and over
# (mean, vech cov) otherwise.  _bootstrap_fits must match them bit for bit,
# including the rounding that differs between the regimes: the known-
# covariance unweighted mean is x.mean(axis=0), the full-family MLE's is
# (w @ x) / w.sum().
# ---------------------------------------------------------------------------

ALL_METHODS = ("kl-naive", "kl-control", "kl-weighted", "linear")


def known_cov_fits_oracle(models, boots, methods):
    cov = models[0].cov
    prec = np.linalg.inv(cov)
    pooled = np.vstack(boots)
    naive_mean = pooled.mean(axis=0)
    mean_hats = [m.mean for m in models]
    mean_tildes = [b.mean(axis=0) for b in boots]
    fits = {}
    if "kl-naive" in methods:
        fits["kl-naive"] = naive_mean
    if "kl-control" in methods:
        fishers = []
        for m, b in zip(models, boots):
            s = (b - m.mean) @ prec
            fishers.append(s.T @ s / b.shape[0])
        bs = control_coefficients(fishers)
        theta = naive_mean.copy()
        for b_k, hat, tilde in zip(bs, mean_hats, mean_tildes):
            theta = theta + b_k @ (tilde - hat)
        fits["kl-control"] = theta
    if "kl-weighted" in methods:
        logs = []
        for m, b, tilde in zip(models, boots, mean_tildes):
            logs.append(model_logpdf(GaussianModel(m.mean, cov), b) - model_logpdf(GaussianModel(tilde, cov), b))
        w = np.exp(np.clip(np.concatenate(logs), -LOG_RATIO_CLIP, LOG_RATIO_CLIP))
        fits["kl-weighted"] = (w @ pooled) / w.sum()
    if "linear" in methods:
        fits["linear"] = np.mean(mean_hats, axis=0)
    return {k: GaussianModel(mean=v, cov=cov.copy()) for k, v in fits.items()}


def full_family_fits_oracle(models, boots, methods):
    refits = [GaussianModel(*_gaussian_mle(b)) for b in boots]
    naive = GaussianModel(*_gaussian_mle(np.vstack(boots)))
    fits = {}
    if "kl-naive" in methods:
        fits["kl-naive"] = naive
    if "kl-control" in methods:
        bs = control_coefficients([empirical_fisher(m, b) for m, b in zip(models, boots)])
        theta = pack_gaussian(naive)
        for b_k, m_hat, m_tilde in zip(bs, models, refits):
            theta = theta + b_k @ (pack_gaussian(m_tilde) - pack_gaussian(m_hat))
        fits["kl-control"] = unpack_gaussian(theta, models[0].dim)
    if "kl-weighted" in methods:
        log_ratio = np.concatenate([model_logpdf(h, b) - model_logpdf(t, b) for h, t, b in zip(models, refits, boots)])
        w = np.exp(np.clip(log_ratio, -LOG_RATIO_CLIP, LOG_RATIO_CLIP))
        fits["kl-weighted"] = GaussianModel(*_gaussian_mle(np.vstack(boots), w))
    if "linear" in methods:
        fits["linear"] = linear_average(models)
    return fits


def assert_same_fits(got, want):
    assert list(got) == list(want)
    for method in want:
        assert np.array_equal(got[method].mean, want[method].mean), method
        assert np.array_equal(got[method].cov, want[method].cov), method


class TestSharedEstimatorPath:
    @pytest.mark.parametrize("known_covariance", [True, False], ids=["known-cov", "full-family"])
    @pytest.mark.parametrize("trial", [0, 1, 2])
    @pytest.mark.parametrize("n", [7, 50, 400])
    def test_matches_per_regime_oracle(self, known_covariance, trial, n):
        models = _draw_asymptotic_local_models(stream_rng(88, trial, 0), 6, 3, 6e5, known_covariance)
        boots = _draw_bootstrap(models, n, stream_rng(88, trial, 1))
        cov = models[0].cov if known_covariance else None
        oracle = known_cov_fits_oracle if known_covariance else full_family_fits_oracle
        assert_same_fits(_bootstrap_fits(models, boots, ALL_METHODS, cov), oracle(models, boots, ALL_METHODS))
        for method in ALL_METHODS:  # one method alone gives the same fit
            assert_same_fits(_bootstrap_fits(models, boots, (method,), cov),
                             oracle(models, boots, (method,)))

    def test_rate_experiment_rows_use_the_shared_path(self):
        for known_covariance in (True, False):
            rows = aggregation.gaussian_rate_experiment(4, 2, [30], 2, seed=5, methods=ALL_METHODS,
                                                        known_covariance=known_covariance)
            oracle = known_cov_fits_oracle if known_covariance else full_family_fits_oracle
            for trial in range(2):
                models = _draw_asymptotic_local_models(stream_rng(5, trial, 0), 4, 2, 6e7, known_covariance)
                boots = _draw_bootstrap(models, 30, stream_rng(5, trial, 1))
                reference = exact_kl_optimum_gaussian(models)
                want = {m: aggregation.gaussian_mse(f, reference) for m, f in oracle(models, boots, ALL_METHODS).items()}
                got = {r["method"]: r["mse"] for r in rows if r["trial"] == trial}
                assert got == want

    @pytest.mark.parametrize("method", ["kl-naive", "kl-control", "kl-weighted"])
    def test_public_wrappers_draw_then_fit(self, method):
        models = _draw_asymptotic_local_models(stream_rng(89, 0), 3, 2, 3e4)
        res = kl_average(method, models, 40, stream_rng(89, 1))
        boots = _draw_bootstrap(models, 40, stream_rng(89, 1))
        assert_same_fits({method: res}, {method: full_family_fits_oracle(models, boots, ALL_METHODS)[method]})

    def test_kl_average_rejects_other_methods(self):
        models = _draw_asymptotic_local_models(stream_rng(89, 0), 3, 2, 3e4)
        for method in ("linear", "kl_naive"):
            with pytest.raises(ValueError, match="unknown KL-averaging method"):
                kl_average(method, models, 40, stream_rng(89, 1))
